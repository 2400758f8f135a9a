import dataclasses
import random

import pytest

from caproof import analysis, metrics, model, reports
from caproof.analysis import (
    BoundClass,
    PhaseAnalysis,
    SweepRow,
    classify,
    grid_bounds,
    iter_grid,
    max_feasible_batch,
    min_devices,
    sweep_grid,
    sweep_workload,
)
from caproof.config import resolve_config
from caproof.hardware import HardwareSpec, ridge_point
from caproof.metrics import OperatingPoint, PhaseMetrics, decode_metrics, phase_metrics
from caproof.model import (
    GQA,
    MHA,
    MLA,
    ModelSpec,
    Phase,
    kv_bytes_per_token,
    weight_bytes,
)
from caproof.workload import TurnRecord, WorkloadSpec, expand
from oracles import random_model


def ref48_spec(attention=MHA()):
    return ModelSpec(name="ref48", num_layers=48, d_model=2048, num_heads=32,
                     head_dim=64, d_ff=8192, ffn_gated=True, attention=attention,
                     vocab_size=32000)


def make_hw(peak, bandwidth, capacity, devices=1, name="hw"):
    return HardwareSpec(name=name, peak_flops={b: peak for b in (2, 4, 8, 16, 32)},
                        mem_bandwidth=bandwidth, mem_capacity=capacity,
                        num_devices=devices)


def random_hardware(rng: random.Random, spec: ModelSpec) -> HardwareSpec:
    bandwidth = 10 ** rng.uniform(9, 13)
    ridge = 10 ** rng.uniform(-1, 3)
    # capacity spans from below the weights to far above them
    capacity = max(1.0, weight_bytes(spec)) * 10 ** rng.uniform(-1, 3)
    return make_hw(ridge * bandwidth, bandwidth, int(capacity) + 1,
                   devices=rng.choice([1, 2, 4]))


def random_point(rng: random.Random) -> OperatingPoint:
    return OperatingPoint(
        context_len=rng.randint(1, 100_000),
        batch_size=rng.randint(1, 256),
        phase=rng.choice([Phase.PREFILL, Phase.DECODE]),
    )


class TestMaxFeasibleBatch:
    def test_constructed_exact_fit(self):
        spec = ref48_spec()
        length = 1000
        capacity = weight_bytes(spec) + 3 * kv_bytes_per_token(spec) * length
        hw = make_hw(1e12, 1e12, capacity)
        assert max_feasible_batch(spec, hw, length) == 3
        assert max_feasible_batch(spec, hw, length, replicate_weights=True) == 3

    def test_weights_alone_do_not_fit(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, weight_bytes(spec) / 2)
        assert max_feasible_batch(spec, hw, 100) == 0

    def test_reference_config_long_context_single_device(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        # KV alone is ~118 GB per request at 300K tokens
        assert kv_bytes_per_token(spec) * 300_000 == pytest.approx(117.96e9, rel=0.01)
        assert max_feasible_batch(spec, hw, 300_000) < 2

    def test_aggregate_scales_with_devices(self):
        spec = ref48_spec()
        length = 10_000
        hw1 = make_hw(1e12, 1e12, weight_bytes(spec) + 5 * kv_bytes_per_token(spec) * length)
        hw4 = dataclasses.replace(hw1, num_devices=4)
        b1 = max_feasible_batch(spec, hw1, length)
        assert b1 == 5
        # weights counted once: the other three devices are pure KV space
        assert max_feasible_batch(spec, hw4, length) > 4 * b1


class TestMinDevices:
    def test_fits_one_device(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, 2 * weight_bytes(spec))
        assert min_devices(spec, hw, OperatingPoint(10, 1, Phase.DECODE)) == 1

    def test_ceiling_behavior(self):
        spec = ref48_spec()
        point = OperatingPoint(1000, 2, Phase.DECODE)
        need = weight_bytes(spec) + 2 * kv_bytes_per_token(spec) * 1000
        hw = make_hw(1e12, 1e12, (need - 8) / 2)  # requirement just over 2 devices
        assert min_devices(spec, hw, point) == 3

    def test_replicated_infeasible_flagged(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, weight_bytes(spec) / 2, devices=16)
        point = OperatingPoint(10, 1, Phase.DECODE)
        assert min_devices(spec, hw, point, replicate_weights=True) == 0

    def test_duality_with_max_feasible_batch(self):
        rng = random.Random(31)
        for _ in range(200):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)
            point = random_point(rng)
            k = min_devices(spec, hw, point)
            # smallest device count whose aggregate admits this batch
            for devices in range(max(1, k - 2), k + 2):
                grown = dataclasses.replace(hw, num_devices=devices)
                fits = max_feasible_batch(spec, grown, point.context_len) >= point.batch_size
                assert fits == (devices >= k)


def test_capacity_rule_equals_brute_force():
    """B_max, the feasible batch and the device count equal the largest batch or
    smallest device count that fits, found by search, on small integers in bits."""
    def largest_batch(cap):
        return max(b for b in range(100) if b == 0 or weights + b * kv_bits <= cap)

    for weights in range(0, 30):
        for kv_bits in range(1, 6):
            for cap in range(1, 30):
                per_device = largest_batch(cap)
                assert max(0, analysis._b_max(weights, kv_bits, cap)) == per_device
                for devices in (1, 2, 3):
                    assert analysis._feasible_batch(weights, kv_bits, cap, devices,
                                                    False) == largest_batch(devices * cap)
                    assert analysis._feasible_batch(weights, kv_bits, cap, devices,
                                                    True) == devices * per_device
                for batch in (1, 2, 5):
                    assert analysis._device_count(weights, kv_bits, cap, batch, False) == min(
                        n for n in range(100) if weights + batch * kv_bits <= n * cap)
                    assert analysis._device_count(weights, kv_bits, cap, batch, True) == (
                        min(n for n in range(1, 100) if n * per_device >= batch)
                        if per_device else 0)


class TestClassify:
    def test_compute_bound_constructed(self):
        spec = ref48_spec()
        point = OperatingPoint(8192, 64, Phase.PREFILL)
        oi = phase_metrics(spec, point).oi
        bandwidth = 1e12
        hw = make_hw(oi / 2 * bandwidth, bandwidth, 1e15)  # ridge = oi / 2
        result = classify(spec, hw, point)
        assert result.bound_class is BoundClass.COMPUTE_BOUND
        assert result.mfu_est == 1.0
        assert result.mbu_est == pytest.approx(0.5, rel=1e-12)

    def test_capacity_limited_constructed(self):
        spec = ref48_spec()
        length = 100
        point = OperatingPoint(length, 1, Phase.DECODE)
        capacity = weight_bytes(spec) + kv_bytes_per_token(spec) * length
        hw = make_hw(1e15, 1e9, capacity)  # enormous ridge, tiny capacity
        result = classify(spec, hw, point)
        assert result.bound_class is BoundClass.CAPACITY_LIMITED
        assert result.max_feasible_batch == 1
        assert result.mbu_est == 1.0
        assert result.mfu_est == pytest.approx(
            result.metrics.oi / ridge_point(hw, 16), rel=1e-12)

    def test_capacity_exceeded_constructed(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, weight_bytes(spec) / 2)
        result = classify(spec, hw, OperatingPoint(10, 1, Phase.DECODE))
        assert result.bound_class is BoundClass.CAPACITY_EXCEEDED
        assert result.max_feasible_batch == 0
        assert result.attainable_tokens_per_s == 0.0
        assert result.mfu_est == result.mbu_est == 0.0

    def test_bandwidth_bound_constructed(self):
        spec = ref48_spec()
        point = OperatingPoint(64, 1, Phase.DECODE)
        oi_b1 = decode_metrics(spec, point).oi
        bandwidth = 1e12
        # ridge sits above B=1 intensity but far below what batching reaches
        hw = make_hw(2 * oi_b1 * bandwidth, bandwidth, 1e15)
        result = classify(spec, hw, point)
        assert result.bound_class is BoundClass.BANDWIDTH_BOUND
        assert result.mbu_est == 1.0
        assert result.mfu_est == pytest.approx(0.5, rel=1e-3)

    def test_agent_long_context_is_capacity_limited_on_one_device(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        point = OperatingPoint(300_000, 1, Phase.DECODE)
        result = classify(spec, hw, point)
        assert result.bound_class is BoundClass.CAPACITY_LIMITED
        # adding cards leaves the per-device picture unchanged
        for devices in (2, 4, 8):
            grown = classify(spec, dataclasses.replace(hw, num_devices=devices), point)
            assert grown.bound_class is result.bound_class
            assert grown.metrics.oi == result.metrics.oi
            assert grown.mfu_est == result.mfu_est

    def test_randomized_soundness(self):
        rng = random.Random(37)
        for _ in range(300):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)
            point = random_point(rng)
            result = classify(spec, hw, point)
            assert result.bound_class in BoundClass
            fits_one_device = (
                weight_bytes(spec) + kv_bytes_per_token(spec) * point.context_len
                <= int(hw.mem_capacity)
            )
            ridge = ridge_point(hw, spec.weight_bits)
            if not fits_one_device:
                assert result.bound_class is BoundClass.CAPACITY_EXCEEDED
            else:
                assert (result.bound_class is BoundClass.COMPUTE_BOUND) == (
                    result.metrics.oi >= ridge
                )
                # mfu * peak equals the attainable FLOPs rate
                peak = hw.peak_for(spec.weight_bits)
                rate = (
                    result.attainable_tokens_per_s
                    * result.metrics.flops_per_token
                    / hw.num_devices
                )
                assert rate == pytest.approx(result.mfu_est * peak, rel=1e-12)
            assert 0.0 <= result.mfu_est <= 1.0
            assert 0.0 <= result.mbu_est <= 1.0

    def test_capacity_growth_never_degrades(self):
        rng = random.Random(41)
        good = {BoundClass.COMPUTE_BOUND, BoundClass.BANDWIDTH_BOUND}
        for _ in range(200):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)
            point = random_point(rng)
            before = classify(spec, hw, point).bound_class
            grown = dataclasses.replace(hw, mem_capacity=hw.mem_capacity * rng.randint(2, 100))
            after = classify(spec, grown, point).bound_class
            if before in good:
                assert after in good

    def test_per_device_invariance_under_device_scaling(self):
        rng = random.Random(43)
        for _ in range(200):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)
            point = random_point(rng)
            base = classify(spec, dataclasses.replace(hw, num_devices=1), point)
            for devices in (2, 4, 8):
                scaled = classify(spec, dataclasses.replace(hw, num_devices=devices), point)
                assert scaled.bound_class is base.bound_class
                assert scaled.metrics.oi == base.metrics.oi
                assert scaled.mfu_est == base.mfu_est
                assert scaled.mbu_est == base.mbu_est
                assert scaled.attainable_tokens_per_s == base.attainable_tokens_per_s * devices


class TestSweep:
    def test_single_point_grid_matches_classify(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        result = sweep_grid(spec, hw, [4], [2048], phases=(Phase.DECODE,))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row[:6] == ("point", "", None, Phase.DECODE, 4, 2048)
        assert row[6:16] == flat(classify(spec, hw, OperatingPoint(2048, 4, Phase.DECODE)))
        assert row[16:] == (None, None)

    def test_attention_variant_curves_ordered(self):
        hw = make_hw(2.25e15, 8e12, 192e9)
        lengths = [1000, 4000, 16000, 64000, 256000, 1000000]
        curves = {}
        for attention in (MHA(), GQA(num_kv_heads=8), MLA(d_latent=512, d_rope=64)):
            spec = ref48_spec(attention)
            result = sweep_grid(spec, hw, [1], lengths, phases=(Phase.DECODE,))
            curve = [row.cf_bytes for row in result.rows]
            assert curve == sorted(curve)  # monotone in context
            curves[spec.attention.kind] = curve
        for i in range(len(lengths)):
            assert curves["mla"][i] < curves["gqa"][i] < curves["mha"][i]

    def test_grid_ordering_deterministic(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        result = sweep_grid(spec, hw, [8, 1], [4096, 128], phases=(Phase.DECODE, Phase.PREFILL))
        keys = [(row.phase.value, row.batch_size, row.context_len) for row in result.rows]
        assert keys == [
            ("prefill", 1, 128), ("prefill", 1, 4096),
            ("prefill", 8, 128), ("prefill", 8, 4096),
            ("decode", 1, 128), ("decode", 1, 4096),
            ("decode", 8, 128), ("decode", 8, 4096),
        ]

    def test_csv_stable_and_reproducible(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        buffers = []
        for _ in range(2):
            result = sweep_grid(spec, hw, [1, 2], [1024], phases=(Phase.DECODE,))
            buffers.append(reports.sweep_csv(result))
        assert buffers[0] == buffers[1]
        header = buffers[0].splitlines()[0]
        assert header.startswith("row_kind,workload,turn_index,phase,batch_size,context_len,oi")

    def test_workload_sweep_rows(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        workload = WorkloadSpec("toy-agent", turns=3, prefill_tokens_per_turn=100,
                                decode_tokens_per_turn=10)
        result = sweep_workload(spec, hw, workload)
        points = [r for r in result.rows if r.row_kind == "point"]
        totals = [r for r in result.rows if r.row_kind == "workload_total"]
        assert len(points) == 6  # prefill + decode per turn
        assert len(totals) == 2
        assert {r.phase for r in totals} == {Phase.PREFILL, Phase.DECODE}
        for row in totals:
            assert row.prefill_total_tokens == 300
            assert row.decode_total_tokens == 30
            assert row.context_len == 330
        first_prefill = points[0]
        assert first_prefill.phase is Phase.PREFILL
        assert first_prefill.context_len == 100
        last_decode = [r for r in points if r.phase is Phase.DECODE][-1]
        assert last_decode.context_len == 330

    @pytest.mark.parametrize("prefill, decode, phase", [(100, 0, Phase.PREFILL),
                                                       (0, 10, Phase.DECODE)])
    def test_workload_sweep_points_only_phases_with_tokens(self, prefill, decode, phase):
        workload = WorkloadSpec("one-phase", turns=3, prefill_tokens_per_turn=prefill,
                                decode_tokens_per_turn=decode)
        result = sweep_workload(ref48_spec(), make_hw(2.25e15, 8e12, 192e9), workload)
        points = [(r.phase, r.context_len) for r in result.rows if r.row_kind == "point"]
        step = prefill + decode
        assert points == [(phase, step), (phase, 2 * step), (phase, 3 * step)]
        totals = [r for r in result.rows if r.row_kind == "workload_total"]
        assert [(r.prefill_total_tokens, r.decode_total_tokens) for r in totals] == [
            (3 * prefill, 3 * decode)] * 2

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    def test_workload_rows_equal_classify(self, include_activations, replicate_weights):
        rng = random.Random(30 + 2 * include_activations + replicate_weights)
        flags = (include_activations, replicate_weights)
        seen = set()
        for _ in range(40):
            spec = random_model(rng)
            workload = WorkloadSpec("w", turns=rng.randint(1, 4),
                                    prefill_tokens_per_turn=rng.randint(1, 20_000),
                                    decode_tokens_per_turn=rng.randint(0, 2_000),
                                    batch_size=rng.randint(1, 64))
            hw = boundary_hardware(rng, spec, OperatingPoint(
                rng.randint(1, 50_000), workload.batch_size, Phase.DECODE), include_activations)
            for row in sweep_workload(spec, hw, workload, *flags).rows:
                point = OperatingPoint(row.context_len, row.batch_size, row.phase)
                assert row[6:16] == flat(classify(spec, hw, point, *flags))
                seen.add(row.bound_class)
        assert len(seen) >= 3

    def test_empty_grid_rejected(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, 1e12)
        with pytest.raises(ValueError):
            sweep_grid(spec, hw, [], [1])

    def test_zero_token_workload_rejected(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, 1e12)
        empty = WorkloadSpec("empty", turns=2, prefill_tokens_per_turn=0,
                             decode_tokens_per_turn=0)
        with pytest.raises(ValueError, match="zero tokens"):
            sweep_workload(spec, hw, empty)


class TestCostsDerivedOncePerSpec:
    """Sweeps read a spec's model costs, so total_params runs per spec, not per point."""

    @pytest.fixture
    def total_params_calls(self, monkeypatch):
        calls = []
        original = model.total_params

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(model, "total_params", counting)
        return calls

    def test_grid_sweep(self, total_params_calls):
        hw = make_hw(2.25e15, 8e12, 192e9)
        lengths = [2**i for i in range(5, 21)]
        result = sweep_grid(ref48_spec(), hw, range(1, 33), lengths)
        assert len(result.rows) == 2 * 32 * 16
        assert len({r.bound_class for r in result.rows}) == 4
        assert len(total_params_calls) <= 2

    def test_workload_sweep(self, total_params_calls):
        hw = resolve_config("b200-node8", "hardware")
        workload = resolve_config("coding-agent", "workload")
        result = sweep_workload(ref48_spec(), hw, workload)
        assert len(result.rows) > 2
        assert len(total_params_calls) <= 2


class TestLeanPerPointPath:
    """The per-point path builds only the point's own result tuples."""

    def test_below_ridge_grid_calls_no_phase_metrics(self, monkeypatch):
        calls = []
        original = metrics.phase_metrics

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (metrics, analysis):
            if getattr(module, "phase_metrics", None) is original:
                monkeypatch.setattr(module, "phase_metrics", counting)
        hw = make_hw(1e12, 1e10, 192e9)  # ridge 100: every decode point is below it
        lengths = [2**i for i in range(1, 17)]
        result = sweep_grid(ref48_spec(), hw, range(1, 65), lengths, phases=(Phase.DECODE,))
        assert len(result.rows) == 1024
        assert {r.bound_class for r in result.rows} == {
            BoundClass.BANDWIDTH_BOUND, BoundClass.CAPACITY_LIMITED}
        assert calls == []

    def test_result_fields_are_read_only(self):
        """A sweep row is one flat tuple: every field is read-only and none
        holds a tuple; classify's two result types are read-only too."""
        spec, hw = ref48_spec(), make_hw(2.25e15, 8e12, 192e9)
        workload = WorkloadSpec("w", turns=2, prefill_tokens_per_turn=100,
                                decode_tokens_per_turn=10)
        rows = (sweep_grid(spec, hw, [1, 2], [4096]).rows
                + sweep_workload(spec, hw, workload).rows)
        assert {row.row_kind for row in rows} == {"point", "workload_total"}
        result = classify(spec, hw, OperatingPoint(4096, 1, Phase.DECODE))
        for value in (*rows, result, result.metrics):
            for name in type(value)._fields:
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
        for row in rows:
            assert not any(isinstance(value, tuple) for value in row), row

    def test_field_order_is_the_dataclass_order(self):
        """The result types keep their field order; a sweep row's fields are
        the sweep CSV's columns, in CSV order, each given at construction."""
        assert PhaseMetrics._fields == ("oi", "cf", "flops_per_token", "bytes_per_token")
        assert PhaseAnalysis._fields == (
            "metrics", "bound_class", "attainable_tokens_per_s", "mfu_est", "mbu_est",
            "max_feasible_batch", "min_devices")
        assert SweepRow._fields == (
            "row_kind", "workload", "turn_index", "phase", "batch_size", "context_len",
            "oi", "cf_bytes", "flops_per_token", "bytes_per_token", "bound_class",
            "attainable_tokens_per_s", "mfu_est", "mbu_est", "max_feasible_batch",
            "min_devices", "prefill_total_tokens", "decode_total_tokens")
        assert SweepRow._fields == reports.CSV_COLUMNS
        assert SweepRow._field_defaults == {}


def flat(result: PhaseAnalysis) -> tuple:
    """classify's result as the ten sweep-row fields from oi to min_devices."""
    return (*result.metrics, *result[1:])


def boundary_hardware(rng: random.Random, spec: ModelSpec, point: OperatingPoint,
                      include_activations: bool) -> HardwareSpec:
    """Random hardware whose ridge lies below the point's OI, between it and
    the OI at the largest batch that fits one device, or above both, so all
    four classes occur."""
    request = weight_bytes(spec) + kv_bytes_per_token(spec) * point.context_len
    capacity = int(request * 10 ** rng.uniform(-0.1, 3)) + 1
    per_device = max(1, max_feasible_batch(spec, make_hw(1.0, 1.0, capacity), point.context_len))
    oi = phase_metrics(spec, point, include_activations).oi
    best = phase_metrics(spec, OperatingPoint(point.context_len, per_device, point.phase),
                         include_activations).oi
    bandwidth = 10 ** rng.uniform(9, 13)
    ridge = oi * (best / oi) ** rng.uniform(-0.5, 1.5)
    return make_hw(ridge * bandwidth, bandwidth, capacity, devices=rng.choice([1, 2, 4]))


class TestClassifySingleSource:
    """classify's OI at the point and at the largest per-device batch come
    from the formula behind metrics.phase_metrics, bit for bit, and its
    verdict equals README rules 1-4 restated here from the public functions,
    apart from the rules function that classify and sweep_grid share."""

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    def test_matches_phase_metrics(self, include_activations, replicate_weights):
        rng = random.Random(2 * include_activations + replicate_weights)
        seen = set()
        for _ in range(300):
            spec = random_model(rng)
            point = random_point(rng)
            hw = boundary_hardware(rng, spec, point, include_activations)
            result = classify(spec, hw, point, include_activations, replicate_weights)
            expected = phase_metrics(spec, point, include_activations)
            for name in PhaseMetrics._fields:
                assert getattr(result.metrics, name) == getattr(expected, name), name
            seen.add(result.bound_class)
            assert result.max_feasible_batch == max_feasible_batch(
                spec, hw, point.context_len, replicate_weights)
            assert result.min_devices == min_devices(spec, hw, point, replicate_weights)
            one_device = dataclasses.replace(hw, num_devices=1)
            per_device = max_feasible_batch(spec, one_device, point.context_len)
            ridge = ridge_point(hw, spec.weight_bits)
            oi, flops, devices = expected.oi, expected.flops_per_token, hw.num_devices
            if per_device == 0:  # one request does not fit one device
                verdict = (BoundClass.CAPACITY_EXCEEDED, 0.0, 0.0, 0.0)
            elif oi >= ridge:
                verdict = (BoundClass.COMPUTE_BOUND,
                           hw.peak_for(spec.weight_bits) / flops * devices, 1.0, ridge / oi)
            else:
                best = phase_metrics(spec, OperatingPoint(point.context_len, per_device,
                                                          point.phase),
                                     include_activations).oi
                if best >= ridge:
                    verdict = (BoundClass.BANDWIDTH_BOUND,
                               oi * hw.mem_bandwidth / flops * devices, oi / ridge, 1.0)
                else:
                    verdict = (BoundClass.CAPACITY_LIMITED,
                               best * hw.mem_bandwidth / flops * devices, best / ridge, 1.0)
            assert (result.bound_class, result.attainable_tokens_per_s, result.mfu_est,
                    result.mbu_est) == verdict
        assert seen == set(BoundClass)



class TestSweepGridColumns:
    """sweep_grid classifies each (phase, L) column once, at its smallest
    batch, and extends that verdict along the batch axis; every row still
    equals classify at its point."""

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    def test_rows_equal_classify_at_every_batch(self, include_activations, replicate_weights):
        rng = random.Random(10 + 2 * include_activations + replicate_weights)
        flags = (include_activations, replicate_weights)
        heads, turned_compute_bound = set(), set()
        for _ in range(120):
            spec = random_model(rng)
            length = rng.randint(1, 100_000)
            phase = rng.choice([Phase.PREFILL, Phase.DECODE])
            hw = boundary_hardware(rng, spec, OperatingPoint(length, 1, phase),
                                   include_activations)
            one_device = dataclasses.replace(hw, num_devices=1)
            per_device = max(1, max_feasible_batch(spec, one_device, length))
            # around and far above the largest per-device batch B_max(L)
            batches = {rng.randint(1, 3), per_device, per_device + 1,
                       *(rng.randint(1, 64 * per_device) for _ in range(6))}
            lengths = {length, rng.randint(1, length), length * rng.randint(2, 8)}
            if rng.random() < 0.25:  # the ridge equals the OI at one grid batch
                tie = OperatingPoint(length, rng.choice(sorted(batches)), phase)
                hw = make_hw(phase_metrics(spec, tie, include_activations).oi, 1.0,
                             hw.mem_capacity, devices=hw.num_devices)
            result = sweep_grid(spec, hw, batches, lengths, Phase, *flags)
            assert [(r.phase, r.batch_size, r.context_len) for r in result.rows] == [
                (p, b, n) for p in Phase for b in sorted(batches) for n in sorted(lengths)]
            for row in result.rows:
                point = OperatingPoint(row.context_len, row.batch_size, row.phase)
                assert row[:3] == ("point", "", None) and row[16:] == (None, None)
                assert row[6:16] == flat(classify(spec, hw, point, *flags))
            per_phase = len(batches) * len(lengths)
            for start in range(0, len(result.rows), per_phase):
                for offset in range(len(lengths)):  # one (phase, L) column, batch ascending
                    column = [row.bound_class for row in
                              result.rows[start + offset:start + per_phase:len(lengths)]]
                    heads.add(column[0])
                    if (column[0] is BoundClass.CAPACITY_LIMITED
                            and BoundClass.COMPUTE_BOUND in column):
                        turned_compute_bound.add(result.rows[start].phase)
        assert heads == set(BoundClass)
        assert turned_compute_bound == set(Phase)

    def test_one_classify_per_column_and_no_point_per_row(self, monkeypatch):
        """Only the column heads build an OperatingPoint, a PhaseMetrics and a
        PhaseAnalysis; every other row is built from _metrics's floats."""
        calls, points, built = [], [], []
        original = analysis.classify

        def counting(spec, hw, point, *flags):
            calls.append((point.phase, point.batch_size, point.context_len))
            return original(spec, hw, point, *flags)

        checked = OperatingPoint.__post_init__

        def counted(point):
            points.append(point)
            checked(point)

        def recorded(result_type):
            def build(*fields):
                built.append(result_type)
                return result_type(*fields)
            return build

        monkeypatch.setattr(analysis, "classify", counting)
        monkeypatch.setattr(OperatingPoint, "__post_init__", counted)
        for result_type in (PhaseMetrics, PhaseAnalysis):
            monkeypatch.setattr(analysis, result_type.__name__, recorded(result_type))
        lengths = [2**i for i in range(5, 21)]
        result = sweep_grid(ref48_spec(), make_hw(2.25e15, 8e12, 192e9), range(3, 35), lengths)
        assert len(result.rows) == 2 * 32 * 16
        assert len({r.bound_class for r in result.rows}) == 4
        assert calls == [(phase, 3, length) for phase in Phase for length in lengths]
        assert len(points) == len(calls)
        assert built == [PhaseMetrics, PhaseAnalysis] * len(calls)


class TestWorkloadPointPath:
    """sweep_workload reads the ridge once and makes each row in classify's
    block loop, from classify's own column function: no OperatingPoint,
    PhaseMetrics or PhaseAnalysis, and no classify call, yet every row equals
    classify at its point."""

    # kind -> (carry_context, prefill tokens a turn, decode tokens a turn), as randint ranges
    KINDS = {
        "no-carry": (False, (1, 20_000), (0, 2_000)),
        "no-prefill": (True, (0, 0), (1, 20_000)),
        "no-decode": (True, (1, 20_000), (0, 0)),
    }

    def test_no_point_result_or_classify_per_row(self, monkeypatch):
        calls, ridges, points, built = [], [], [], []
        original_classify, original_ridge = analysis.classify, analysis.ridge_point
        checked = OperatingPoint.__post_init__

        def counting(*args):
            calls.append(args)
            return original_classify(*args)

        def reading(*args):
            ridges.append(args)
            return original_ridge(*args)

        def counted(point):
            points.append(point)
            checked(point)

        def recorded(result_type):
            def build(*fields):
                built.append(result_type)
                return result_type(*fields)
            return build

        monkeypatch.setattr(analysis, "classify", counting)
        monkeypatch.setattr(analysis, "ridge_point", reading)
        monkeypatch.setattr(OperatingPoint, "__post_init__", counted)
        for result_type in (PhaseMetrics, PhaseAnalysis):
            monkeypatch.setattr(analysis, result_type.__name__, recorded(result_type))
        hw = resolve_config("b200-node8", "hardware")
        workload = WorkloadSpec("w", turns=50, prefill_tokens_per_turn=4_000,
                                decode_tokens_per_turn=500, batch_size=4)
        result = sweep_workload(ref48_spec(), hw, workload)
        assert len(result.rows) == 2 * 50 + 2
        assert (calls, points, built) == ([], [], [])
        assert len(ridges) == 1

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_rows_equal_classify(self, kind, include_activations, replicate_weights):
        rng = random.Random(f"{kind}-{include_activations}-{replicate_weights}")
        flags = (include_activations, replicate_weights)
        carry, prefill, decode = self.KINDS[kind]
        seen, phases = set(), set()
        for _ in range(40):
            spec = random_model(rng)
            workload = WorkloadSpec("w", turns=rng.randint(1, 4),
                                    prefill_tokens_per_turn=rng.randint(*prefill),
                                    decode_tokens_per_turn=rng.randint(*decode),
                                    carry_context=carry, batch_size=rng.randint(1, 64))
            hw = boundary_hardware(rng, spec, OperatingPoint(
                rng.randint(1, 50_000), workload.batch_size, Phase.DECODE), include_activations)
            rows = sweep_workload(spec, hw, workload, *flags).rows
            points = [row for row in rows if row.row_kind == "point"]
            if not carry:  # every turn starts from an empty context
                assert len({(row.phase, row.context_len) for row in points}) <= 2
            for row in rows:
                point = OperatingPoint(row.context_len, row.batch_size, row.phase)
                assert row[6:16] == flat(classify(spec, hw, point, *flags))
                seen.add(row.bound_class)
            phases.update(row.phase for row in points)
        assert len(seen) >= 3
        assert phases == {"no-carry": set(Phase), "no-prefill": {Phase.DECODE},
                          "no-decode": {Phase.PREFILL}}[kind]

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_rows_equal_classify_across_a_block_boundary(self, kind, include_activations,
                                                         replicate_weights):
        """129 turns: the 129th is the first of the second 128-turn block."""
        rng = random.Random(f"boundary-{kind}-{include_activations}-{replicate_weights}")
        flags = (include_activations, replicate_weights)
        carry, prefill, decode = self.KINDS[kind]
        seen = set()
        for _ in range(6):
            spec = random_model(rng)
            workload = WorkloadSpec("w", turns=129,
                                    prefill_tokens_per_turn=rng.randint(*prefill),
                                    decode_tokens_per_turn=rng.randint(*decode),
                                    carry_context=carry, batch_size=rng.randint(1, 64))
            phases = [phase for phase, tokens in zip(Phase, (workload.prefill_tokens_per_turn,
                                                             workload.decode_tokens_per_turn))
                      if tokens]
            step = workload.prefill_tokens_per_turn + workload.decode_tokens_per_turn
            last = OperatingPoint((128 if carry else 0) * step + step, workload.batch_size,
                                  phases[-1])  # the second block's row
            hw = boundary_hardware(rng, spec, last, include_activations)
            blocks = list(analysis._workload_rows(spec, hw, workload, range(129), *flags))
            assert list(map(len, blocks)) == [128 * len(phases), len(phases), 2]
            rows = [row for block in blocks for row in block]
            assert [(row.row_kind, row.turn_index, row.phase) for row in rows] == [
                ("point", turn, phase) for turn in range(129) for phase in phases] + [
                ("workload_total", None, phase) for phase in Phase]
            for row in rows:
                point = OperatingPoint(row.context_len, row.batch_size, row.phase)
                assert row[6:16] == flat(classify(spec, hw, point, *flags))
                seen.add(row.bound_class)
        assert len(seen) >= 2


class TestWorkloadClosedForm:
    """Workload rows come from the trace's closed form: no TurnRecord is built,
    and agent_profile_rows analyses only the two totals rows of a workload."""

    @pytest.fixture
    def point_calls(self, monkeypatch):
        calls = []
        original = analysis._point

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(analysis, "_point", counting)
        return calls

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    def test_agent_profile_makes_two_points_a_workload(self, point_calls, include_activations,
                                                       replicate_weights):
        hw = resolve_config("b200-node8", "hardware")
        workloads = [WorkloadSpec(f"w{i}", turns=1_000, prefill_tokens_per_turn=1_000 * i,
                                  decode_tokens_per_turn=100, carry_context=i % 2 == 0)
                     for i in range(3)]
        rows = reports.agent_profile_rows(ref48_spec(), hw, workloads, include_activations,
                                          replicate_weights)
        assert len(rows) == 3
        assert len(point_calls) == 2 * len(workloads)
        finals = [row["final_context"] for row in rows]
        assert finals == [100_000, 1_100, 2_100_000]
        assert [call[3:5] for call in point_calls] == [
            (phase, final) for final in finals for phase in (Phase.PREFILL, Phase.DECODE)]

    def test_no_turn_record_built(self, monkeypatch, point_calls):
        built = []

        def counting(*args):
            built.append(args)
            return TurnRecord(*args)

        monkeypatch.setattr("caproof.workload.TurnRecord", counting)
        hw = resolve_config("b200-node8", "hardware")
        spec = WorkloadSpec("w", turns=1_000, prefill_tokens_per_turn=4_000,
                            decode_tokens_per_turn=500)
        reports.agent_profile_rows(ref48_spec(), hw, [spec])
        assert len(sweep_workload(ref48_spec(), hw, spec).rows) == 2 * 1_000 + 2
        assert len(point_calls) == 2 + 2 * 1_000 + 2
        assert built == []
        expand(spec)  # the public trace still builds its records
        assert len(built) == 1_000


class TestWorkloadBlocks:
    """_workload_rows makes a workload sweep's rows a block at a time, as
    iter_grid does a grid's, in blocks of the same size: at most 256 point rows
    per 128 turns, then the two totals rows. The CLI streams these blocks."""

    WORKLOAD = WorkloadSpec("w", turns=2_500, prefill_tokens_per_turn=4_000,
                            decode_tokens_per_turn=500, batch_size=4)

    def blocks(self):
        spec, hw = ref48_spec(), resolve_config("b200-node8", "hardware")
        return analysis._workload_rows(spec, hw, self.WORKLOAD, range(self.WORKLOAD.turns),
                                       False, True)

    def test_blocks_chain_to_the_held_rows(self):
        blocks = list(self.blocks())
        assert list(map(len, blocks)) == [256] * 19 + [136, 2]
        assert all(isinstance(block, list) for block in blocks)
        assert [row for block in blocks for row in block] == list(sweep_workload(
            ref48_spec(), resolve_config("b200-node8", "hardware"), self.WORKLOAD, False,
            True).rows)

    def test_rows_are_made_a_block_at_a_time(self, monkeypatch):
        """Asking for the first block builds its rows, of the first 128
        turns, and none of the later turns' rows."""
        built = []

        def counting(*fields):
            built.append(fields[2])
            return SweepRow(*fields)

        monkeypatch.setattr(analysis, "SweepRow", counting)
        blocks = self.blocks()
        assert built == []
        assert len(next(blocks)) == 256
        assert sorted(built) == [turn for turn in range(128) for _ in Phase]
        assert list(map(len, blocks)) == [256] * 18 + [136, 2]
        assert len(built) == 2 * 2_500 + 2


class TestWorkloadStrictVerdict:
    """Whether a row fits is an integer rule in the context length alone
    (_b_max), and the totals rows sit at the final, longest context. So a
    workload sweep's row is capacity_exceeded only if both totals rows are,
    and with carry_context the exceeded point rows are a suffix in turn order.
    Without carry the rows alternate between two contexts, so no suffix."""

    @staticmethod
    def exceeded(rows):
        return [row.bound_class is BoundClass.CAPACITY_EXCEEDED for row in rows]

    @pytest.mark.parametrize("carry", [False, True])
    def test_totals_rows_hold_the_verdict(self, carry):
        rng = random.Random(f"strict-{carry}")
        verdicts = []
        for _ in range(200):
            spec = random_model(rng)
            prefill = rng.choice([0, rng.randint(1, 20_000), rng.randint(1, 20_000)])
            decode = rng.randint(0 if prefill else 1, 2_000)
            workload = WorkloadSpec("w", turns=rng.randint(1, 30), prefill_tokens_per_turn=prefill,
                                    decode_tokens_per_turn=decode, carry_context=carry,
                                    batch_size=rng.randint(1, 64))
            final = (workload.turns if carry else 1) * (prefill + decode)
            devices = rng.choice([1, 2, 4])
            request = weight_bytes(spec) + (workload.batch_size * kv_bytes_per_token(spec)
                                            * rng.randint(1, final))
            hw = make_hw(1e15, 1e12, int(request / devices * 10 ** rng.uniform(-0.2, 0.2)) + 1,
                         devices=devices)
            rows = sweep_workload(spec, hw, workload, rng.random() < 0.5,
                                  rng.random() < 0.5).rows
            exceeded = self.exceeded(rows)
            assert exceeded[-2:] == [any(exceeded)] * 2
            if carry:
                assert exceeded[:-2] == sorted(exceeded[:-2])
            verdicts.append((any(exceeded), all(exceeded)))
        assert sum(some for some, _ in verdicts) >= 30
        assert verdicts.count((True, False)) >= (20 if carry else 1)  # some rows but not all

    def test_coding_agent_exceeds_from_turn_12(self):
        model = resolve_config("dense-70b", "model")
        hw = resolve_config("b200-node8", "hardware")
        rows = sweep_workload(model, hw, resolve_config("coding-agent", "workload")).rows
        exceeded = self.exceeded(rows)
        assert exceeded == [False] * 24 + [True] * 28
        assert (rows[24].turn_index, rows[24].phase) == (12, Phase.PREFILL)


class TestStreamedGrid:
    """iter_grid makes sweep_grid's rows in blocks of at most 256 rows per
    (phase, batch), and grid_bounds gives, before the first row is made, what
    the renderers need of them all: the least and greatest OI and whether one
    is capacity_exceeded."""

    PHASES = {"prefill": (Phase.PREFILL,), "decode": (Phase.DECODE,), "both": tuple(Phase)}

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    @pytest.mark.parametrize("phases", ["prefill", "decode", "both"])
    def test_closed_form_bounds_equal_the_row_scan(self, include_activations, replicate_weights,
                                                   phases):
        rng = random.Random(f"{include_activations}-{replicate_weights}-{phases}")
        exceeded_seen, shapes = set(), set()
        for case in range(200):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)  # criterion 6's instances
            batches = [rng.randint(1, 512) for _ in range(1 if case % 2 else rng.randint(2, 6))]
            lengths = [rng.randint(1, 2_000_000)
                       for _ in range(1 if case % 3 == 0 else rng.randint(2, 6))]
            rows = sweep_grid(spec, hw, batches, lengths, self.PHASES[phases],
                              include_activations, replicate_weights).rows
            oi_lo, oi_hi, exceeded = grid_bounds(spec, hw, batches, lengths,
                                                 self.PHASES[phases], include_activations)
            assert oi_lo == min(row.oi for row in rows)
            assert oi_hi == max(row.oi for row in rows)
            assert exceeded == any(row.bound_class is BoundClass.CAPACITY_EXCEEDED
                                   for row in rows)
            exceeded_seen.add(exceeded)
            shapes.add((len(set(batches)) > 1, len(set(lengths)) > 1))
        assert exceeded_seen == {False, True}
        assert shapes == {(False, False), (False, True), (True, False), (True, True)}

    def test_blocks_are_one_phase_and_batch_in_grid_order(self):
        spec, hw = ref48_spec(), make_hw(2.25e15, 8e12, 192e9)
        batches, lengths = [16, 1, 4, 16], [300_000, 1000, 32_000]
        blocks = list(iter_grid(spec, hw, batches, lengths))
        assert [row for block in blocks for row in block] == list(
            sweep_grid(spec, hw, batches, lengths).rows)
        assert [[(row.phase, row.batch_size, row.context_len) for row in block]
                for block in blocks] == [[(phase, batch, length) for length in sorted(lengths)]
                                         for phase in Phase for batch in (1, 4, 16)]

    def test_blocks_past_256_columns_are_cut_in_grid_order(self):
        spec, hw = ref48_spec(), make_hw(2.25e15, 8e12, 192e9)
        batches, lengths = [8, 2], [1_000 * step for step in range(600, 0, -1)]
        blocks = list(iter_grid(spec, hw, batches, lengths))
        assert [len(block) for block in blocks] == [256, 256, 88] * 4
        assert [row for block in blocks for row in block] == list(
            sweep_grid(spec, hw, batches, lengths).rows)
        keys = [{(row.phase, row.batch_size) for row in block} for block in blocks]
        assert keys == [{(phase, batch)} for phase in Phase for batch in (2, 8) for _ in range(3)]

    def test_rows_are_made_a_block_at_a_time(self, monkeypatch):
        """Asking for the first block builds its rows, after the column heads'
        rows that classify builds at the least batch, and none of the other
        batches' rows."""
        built = []

        def counting(*fields):
            built.append(fields[4])
            return SweepRow(*fields)

        monkeypatch.setattr(analysis, "SweepRow", counting)
        blocks = iter_grid(ref48_spec(), make_hw(2.25e15, 8e12, 192e9), range(1, 65),
                           [1000, 2000, 4000], (Phase.DECODE,))
        assert built == []
        assert len(next(blocks)) == 3
        assert built == [1] * 6
        assert len(list(blocks)) == 63
        assert built == [1] * 3 + [batch for batch in range(1, 65) for _ in range(3)]
