import pytest

from caproof.workload import MAX_SWEEP_ROWS, MAX_TURNS, WorkloadSpec, expand, total_tokens


def test_single_turn_decode_contexts():
    trace = expand(WorkloadSpec("w", turns=1, prefill_tokens_per_turn=100,
                                decode_tokens_per_turn=10))
    assert len(trace.records) == 1
    record = trace.records[0]
    assert record.prefill_start_context == 0
    assert list(record.decode_context_lengths) == list(range(101, 111))
    assert record.cumulative_context == 110
    assert total_tokens(trace) == (100, 10)


def test_coding_preset_scale():
    spec = WorkloadSpec("coding", turns=25, prefill_tokens_per_turn=12000,
                        decode_tokens_per_turn=400, carry_context=True)
    trace = expand(spec)
    # arithmetic: sum over turns of (prefill + decode)
    assert trace.final_context == 25 * (12000 + 400) == 310000
    assert total_tokens(trace) == (25 * 12000, 25 * 400) == (300000, 10000)


def test_chatbot_preset_totals():
    trace = expand(WorkloadSpec("chat", turns=5, prefill_tokens_per_turn=500,
                                decode_tokens_per_turn=300))
    assert total_tokens(trace) == (2500, 1500)


def test_no_carry_resets_context():
    trace = expand(WorkloadSpec("w", turns=4, prefill_tokens_per_turn=50,
                                decode_tokens_per_turn=5, carry_context=False))
    assert all(r.prefill_start_context == 0 for r in trace.records)
    assert all(r.cumulative_context == 55 for r in trace.records)


def test_carry_context_snowballs():
    spec = WorkloadSpec("w", turns=3, prefill_tokens_per_turn=10, decode_tokens_per_turn=2)
    trace = expand(spec)
    starts = [r.prefill_start_context for r in trace.records]
    assert starts == [0, 12, 24]
    cumulative = [r.cumulative_context for r in trace.records]
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == sum(total_tokens(trace))


def test_decode_contexts_are_consecutive():
    trace = expand(WorkloadSpec("w", turns=3, prefill_tokens_per_turn=7,
                                decode_tokens_per_turn=4))
    for record in trace.records:
        contexts = list(record.decode_context_lengths)
        assert contexts == list(range(contexts[0], contexts[0] + 4))
        assert contexts[0] == record.prefill_start_context + record.prefill_tokens + 1


def test_expand_deterministic():
    spec = WorkloadSpec("w", turns=9, prefill_tokens_per_turn=123, decode_tokens_per_turn=45)
    assert expand(spec) == expand(spec)


def test_validation():
    with pytest.raises(ValueError, match="turns"):
        WorkloadSpec("w", turns=0, prefill_tokens_per_turn=1, decode_tokens_per_turn=1)
    with pytest.raises(ValueError, match="batch_size"):
        WorkloadSpec("w", turns=1, prefill_tokens_per_turn=1, decode_tokens_per_turn=1,
                     batch_size=0)
    with pytest.raises(ValueError, match="decode_tokens_per_turn"):
        WorkloadSpec("w", turns=1, prefill_tokens_per_turn=1, decode_tokens_per_turn=-1)


def test_turns_capped_by_the_sweep_row_budget():
    """A sweep of MAX_TURNS turns (two rows a turn plus two totals) fits the
    row budget; one turn more is rejected before anything is expanded."""
    assert MAX_TURNS == 999_999
    assert 2 * MAX_TURNS + 2 <= MAX_SWEEP_ROWS < 2 * (MAX_TURNS + 1) + 2
    assert WorkloadSpec("w", turns=MAX_TURNS, prefill_tokens_per_turn=1,
                        decode_tokens_per_turn=1).turns == MAX_TURNS
    with pytest.raises(ValueError, match=f"^turns must be <= {MAX_TURNS}, got {MAX_TURNS + 1}$"):
        WorkloadSpec("w", turns=MAX_TURNS + 1, prefill_tokens_per_turn=1,
                     decode_tokens_per_turn=1)
