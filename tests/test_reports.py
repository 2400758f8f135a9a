"""The sweep renderers stream their artifact: the bytes equal the csv module's
(and the one-string table's), and no single write holds more than a block of
rows. The chart reports, which read the analysis core, equal their tables as
built from classify and the token totals with hand-kept column lists."""

import io
import itertools
import random

import pytest

from caproof import reports
from caproof.analysis import SweepResult, classify, sweep_grid, sweep_workload
from caproof.config import list_catalog, resolve_config
from caproof.hardware import HardwareSpec
from caproof.metrics import OperatingPoint
from caproof.model import Phase, kv_bytes_per_token, weight_bytes
from caproof.reports import CSV_COLUMNS, write_csv, write_sweep_csv
from caproof.workload import WorkloadSpec, expand, total_tokens
from oracles import random_model

ODD_NAMES = ["a,b", 'say "hi"', "two\nlines", "cr\rreturn", "  padded  ", "", '""', "plain"]


def reference_csv(result: SweepResult) -> str:
    """The CSV as write_csv, the one csv.writer, writes it."""
    buf = io.StringIO()
    write_csv(buf, CSV_COLUMNS, (
        (row.row_kind, row.workload, row.turn_index, row.phase.value, row.batch_size,
         row.context_len, *row.analysis.metrics, row.analysis.bound_class.value,
         *row.analysis[2:], row.prefill_total_tokens, row.decode_total_tokens)
        for row in result.rows
    ))
    return buf.getvalue()


def streamed(render) -> str:
    buf = io.StringIO()
    render(buf)
    return buf.getvalue()


def random_hardware(rng: random.Random, spec) -> HardwareSpec:
    bandwidth = 10 ** rng.uniform(9, 13)
    capacity = max(1.0, weight_bytes(spec)) * 10 ** rng.uniform(-1, 3)
    return HardwareSpec(name="hw", peak_flops={b: 10 ** rng.uniform(-1, 3) * bandwidth
                                               for b in (2, 4, 8, 16, 32)},
                        mem_bandwidth=bandwidth, mem_capacity=int(capacity) + 1,
                        num_devices=rng.choice([1, 2, 4]))


class TestCsvByteIdentity:
    @pytest.mark.parametrize("name", ODD_NAMES)
    def test_workload_names_quoted_as_csv_writer_quotes_them(self, name):
        rng = random.Random(len(name))
        spec = random_model(rng)
        workload = WorkloadSpec(name, turns=3, prefill_tokens_per_turn=100,
                                decode_tokens_per_turn=10)
        result = sweep_workload(spec, random_hardware(rng, spec), workload)
        assert streamed(lambda out: write_sweep_csv(result, out)) == reference_csv(result)

    def test_mixed_names_in_one_result(self):
        rng = random.Random(5)
        spec = random_model(rng)
        hw = random_hardware(rng, spec)
        rows = []
        for name in ODD_NAMES * 2:
            workload = WorkloadSpec(name, turns=2, prefill_tokens_per_turn=50,
                                    decode_tokens_per_turn=5)
            rows += sweep_workload(spec, hw, workload).rows
        result = SweepResult("m", "h", tuple(rows))
        assert streamed(lambda out: write_sweep_csv(result, out)) == reference_csv(result)

    def test_random_grid_rows(self):
        rng = random.Random(17)
        for _ in range(60):
            spec = random_model(rng)
            batches = [rng.randint(1, 512) for _ in range(rng.randint(1, 4))]
            lengths = [rng.randint(1, 2_000_000) for _ in range(rng.randint(1, 6))]
            result = sweep_grid(spec, random_hardware(rng, spec), batches, lengths,
                                include_activations=rng.random() < 0.5,
                                replicate_weights=rng.random() < 0.5)
            assert streamed(lambda out: write_sweep_csv(result, out)) == reference_csv(result)
            assert reports.sweep_csv(result) == reference_csv(result)


class RecordingFile(io.StringIO):
    """A text file that records the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.fixture(scope="module")
def big_grid():
    model = resolve_config("dense-70b", "model")
    hw = resolve_config("b200-node8", "hardware")
    lengths = [1000 + 1953 * i for i in range(512)]
    result = sweep_grid(model, hw, range(1, 17), lengths)
    assert len(result.rows) >= 16_384
    return model, hw, result


def one_string_text(result: SweepResult) -> str:
    """The table as it was built before streaming: one list of lines."""
    lines = [f"model={result.model} hardware={result.hardware}",
             f"{'kind':<15}{'phase':<9}{'batch':>6}{'context':>9}{'oi':>12}"
             f"{'cf_bytes':>12}  {'class':<18}{'tok/s':>12}{'mfu':>8}{'mbu':>8}"]
    for row in result.rows:
        a = row.analysis
        lines.append(
            f"{row.row_kind:<15}{row.phase.value:<9}{row.batch_size:>6}"
            f"{row.context_len:>9}{a.metrics.oi:>12.6g}{a.metrics.cf:>12.6g}"
            f"  {a.bound_class.value:<18}{a.attainable_tokens_per_s:>12.6g}"
            f"{a.mfu_est:>8.3g}{a.mbu_est:>8.3g}"
        )
    return "\n".join(lines) + "\n"


class TestBoundedWrites:
    @pytest.mark.parametrize("renderer", ["csv", "text", "svg"])
    def test_no_write_exceeds_a_block_of_lines(self, big_grid, renderer):
        model, hw, result = big_grid
        out = RecordingFile()
        if renderer == "csv":
            write_sweep_csv(result, out)
        elif renderer == "text":
            reports.sweep_text(result, out)
        else:
            reports.roofline_svg(model, hw, result, out)
        text = out.getvalue()
        line_bytes = len(text) / text.count("\n")
        assert text.count("\n") > len(result.rows)
        assert max(out.sizes) <= 2000 * line_bytes
        if renderer == "csv":
            assert text == reference_csv(result)
        elif renderer == "text":
            assert text == one_string_text(result)
        else:
            assert text.startswith("<svg ") and text.endswith("</svg>\n")
            assert text.count("<circle") == len(result.rows) + 1 + 4  # ridge and legend



AGENT_PROFILE_COLUMNS = [
    "workload", "turns", "batch_size", "prefill_total_tokens", "decode_total_tokens",
    "final_context", "cf_bytes", "prefill_oi", "decode_oi",
    "prefill_class", "decode_class", "min_devices_decode",
]
COMPARE_MOE_COLUMNS = [
    "model", "batch_size", "context_len", "weight_floor_bytes", "kv_bytes", "cf_bytes",
    "decode_oi",
]
FLAG_COMBINATIONS = list(itertools.product([False, True], repeat=2))


def explicit_csv(columns, rows) -> str:
    buf = io.StringIO()
    write_csv(buf, columns, ([row[c] for c in columns] for row in rows))
    return buf.getvalue()


def reference_agent_profile_row(model, hw, workload, flags):
    """One agent-profile row as classify at the final context and the trace's
    token totals give it."""
    trace = expand(workload)
    prefill_total, decode_total = total_tokens(trace)
    final, batch = trace.final_context, workload.batch_size
    prefill = classify(model, hw, OperatingPoint(final, batch, Phase.PREFILL), *flags)
    decode = classify(model, hw, OperatingPoint(final, batch, Phase.DECODE), *flags)
    values = [workload.name, workload.turns, batch, prefill_total, decode_total, final,
              decode.metrics.cf, prefill.metrics.oi, decode.metrics.oi,
              prefill.bound_class.value, decode.bound_class.value, decode.min_devices]
    return dict(zip(AGENT_PROFILE_COLUMNS, values))


class TestChartReportsReadTheCore:
    def test_agent_profile_equals_classify_at_final_context(self):
        rng = random.Random(23)
        workloads = [resolve_config(name, "workload") for name in list_catalog("workload")]
        for _ in range(12):
            model = random_model(rng)
            hw = random_hardware(rng, model)
            for flags in FLAG_COMBINATIONS:
                rows = reports.agent_profile_rows(model, hw, workloads, *flags)
                expected = [reference_agent_profile_row(model, hw, w, flags) for w in workloads]
                assert rows == expected
                assert [list(row) for row in rows] == [AGENT_PROFILE_COLUMNS] * len(rows)
                assert reports.agent_profile_csv(rows) == explicit_csv(AGENT_PROFILE_COLUMNS,
                                                                       expected)

    def test_compare_attention_csv_equals_kv_plus_amortized_weights(self):
        rng = random.Random(29)
        for _ in range(40):
            models = [random_model(rng) for _ in range(rng.randint(2, 4))]
            lengths = sorted({rng.randint(1, 2_000_000) for _ in range(rng.randint(2, 8))})
            batch = rng.randint(1, 512)
            columns = ["context_len"]
            expected = []
            for length in lengths:
                row = {"context_len": length}
                for spec in models:
                    kv = row[f"{spec.name}_kv_bytes"] = kv_bytes_per_token(spec) * length
                    row[f"{spec.name}_cf_bytes"] = kv + weight_bytes(spec) / batch
                expected.append(row)
            for spec in models:
                columns += [f"{spec.name}_kv_bytes", f"{spec.name}_cf_bytes"]
            rows = reports.compare_attention_rows(models, lengths, batch)
            assert reports.compare_attention_csv(rows) == explicit_csv(columns, expected)

    def test_compare_moe_csv_and_footprint_bars(self):
        rng = random.Random(31)
        for _ in range(40):
            models = [random_model(rng) for _ in range(rng.randint(2, 4))]
            batches = sorted({rng.randint(1, 512) for _ in range(rng.randint(1, 4))})
            rows = reports.compare_moe_rows(models, batches, rng.randint(1, 2_000_000),
                                            include_activations=rng.random() < 0.5)
            assert reports.compare_moe_csv(rows) == explicit_csv(COMPARE_MOE_COLUMNS, rows)
            for row in rows:  # the SVG bar reads cf_bytes where it added floor and KV
                assert row["cf_bytes"] == row["weight_floor_bytes"] + row["kv_bytes"]
