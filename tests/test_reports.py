"""The sweep renderers stream their artifact: the bytes equal the csv module's
(and the one-string table's), and no single write holds more than a block of
rows. The chart reports, which read the analysis core, equal their tables as
built from classify and the token totals with hand-kept column lists."""

import enum
import io
import itertools
import math
import random
import re

import pytest

from caproof import reports
from caproof.analysis import BoundClass, SweepResult, classify, sweep_grid, sweep_workload
from caproof.config import list_catalog, resolve_config
from caproof.hardware import HardwareSpec
from caproof.metrics import OperatingPoint
from caproof.model import Phase, kv_bytes_per_token, weight_bytes
from caproof.reports import CSV_COLUMNS, stream, stream_sweep_csv, sweep_csv, write_csv
from caproof.svg import LogScale
from caproof.workload import WorkloadSpec, expand, total_tokens
from oracles import random_model

ODD_NAMES = ["a,b", 'say "hi"', "two\nlines", "cr\rreturn", "  padded  ", "", '""', "plain"]


def reference_csv(result: SweepResult) -> str:
    """The CSV as write_csv, the one csv.writer, writes it: each column read
    from the row by name, a phase or class as its value."""
    buf = io.StringIO()
    write_csv(buf, CSV_COLUMNS, (
        [cell.value if isinstance(cell, enum.Enum) else cell
         for cell in (getattr(row, column) for column in CSV_COLUMNS)]
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


def random_grids():
    """60 sweep_grids of random models, hardware and flags. B (1-512) and L
    (1-2M) are drawn log-uniform, so short contexts and small batches occur
    and the rows hold every bound class in both phases."""
    rng = random.Random(17)
    for _ in range(60):
        spec = random_model(rng)
        batches = [round(2 ** rng.uniform(0, 9)) for _ in range(rng.randint(1, 4))]
        lengths = [round(10 ** rng.uniform(0, 6.3)) for _ in range(rng.randint(1, 6))]
        yield sweep_grid(spec, random_hardware(rng, spec), batches, lengths,
                         include_activations=rng.random() < 0.5,
                         replicate_weights=rng.random() < 0.5)


class TestCsvByteIdentity:
    @pytest.mark.parametrize("name", ODD_NAMES)
    def test_workload_names_quoted_as_csv_writer_quotes_them(self, name):
        rng = random.Random(len(name))
        spec = random_model(rng)
        workload = WorkloadSpec(name, turns=3, prefill_tokens_per_turn=100,
                                decode_tokens_per_turn=10)
        result = sweep_workload(spec, random_hardware(rng, spec), workload)
        assert sweep_csv(result) == reference_csv(result)

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
        assert sweep_csv(result) == reference_csv(result)

    def test_random_grid_rows(self):
        for result in random_grids():
            assert sweep_csv(result) == reference_csv(result)

    @pytest.mark.parametrize("carry_context", [True, False])
    def test_a_workload_sweep_in_three_slices(self, carry_context):
        """4,096 point rows and the two totals rows go to the renderer as
        slices of 2,048, 2,048 and 2 rows: the number memos start afresh at
        each slice of point rows and are kept for the totals slice."""
        rng = random.Random(27)
        spec = random_model(rng)
        workload = WorkloadSpec("w", turns=2_048, prefill_tokens_per_turn=300,
                                decode_tokens_per_turn=30, carry_context=carry_context)
        result = sweep_workload(spec, random_hardware(rng, spec), workload)
        assert len(result.rows) == 4_098
        assert sweep_csv(result) == reference_csv(result)


class TestTextByteIdentity:
    def test_random_grid_rows(self):
        classes = set()
        for result in random_grids():
            assert streamed(lambda out: reports.sweep_text(result, out)) == one_string_text(result)
            classes |= {row.bound_class for row in result.rows}
        assert classes == set(BoundClass)

    def test_template_floats_equal_the_format_specs(self):
        """The table's printf conversions of its float cells against the
        f-string specs of one_string_text: subnormal, smallest normal, the
        rounding edges of 6 and 3 significant digits, the exponent switch,
        the largest double, and random doubles over 600 decades."""
        rng = random.Random(27)
        edges = [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 999999.5, 9999995.0, 1e16,
                 1.7976931348623157e308]
        values = edges + [10 ** rng.uniform(-300, 300) for _ in range(20_000)]
        for x in values + [-x for x in values]:
            assert "%12.6g" % x == f"{x:>12.6g}", x
            assert "%8.3g" % x == f"{x:>8.3g}", x

    def test_template_ints_equal_the_format_specs(self):
        rng = random.Random(27)
        ints = [0, 1, 2**53] + [10**k + d for k in range(1, 16) for d in (-1, 0)]
        for n in ints + [rng.randrange(2**rng.randint(1, 53)) for _ in range(10_000)]:
            assert "%6s" % n == f"{n:>6}", n
            assert "%9s" % n == f"{n:>9}", n


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
        lines.append(
            f"{row.row_kind:<15}{row.phase.value:<9}{row.batch_size:>6}"
            f"{row.context_len:>9}{row.oi:>12.6g}{row.cf_bytes:>12.6g}"
            f"  {row.bound_class.value:<18}{row.attainable_tokens_per_s:>12.6g}"
            f"{row.mfu_est:>8.3g}{row.mbu_est:>8.3g}"
        )
    return "\n".join(lines) + "\n"


class TestBoundedWrites:
    @pytest.mark.parametrize("renderer", ["csv", "text", "svg"])
    def test_no_write_exceeds_a_block_of_lines(self, big_grid, renderer):
        model, hw, result = big_grid
        out = RecordingFile()
        if renderer == "csv":
            stream([stream_sweep_csv(out)], [result.rows])
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



def roof_tie():
    """(peak, bandwidth, ois): a peak and a bandwidth whose ridge, peak / bandwidth,
    times the bandwidth falls under the peak in binary64, and OIs from the ridge up
    whose products with the bandwidth are one ulp under the peak, the peak exactly
    and one ulp over it. The peak is a power of two, so the ulp under it is half the
    ulp over it; this is what lets both happen at once."""
    peak = 2.0**51
    for bandwidth in (3e12 + 1e9 * k for k in range(1, 50)):
        ridge = peak / bandwidth
        ois = [ridge, math.nextafter(ridge, math.inf)]
        ois.append(math.nextafter(ois[1], math.inf))
        if [oi * bandwidth for oi in ois] == [math.nextafter(peak, 0), peak,
                                              math.nextafter(peak, math.inf)]:
            return peak, bandwidth, ois
    raise AssertionError("no bandwidth gives the tie")


class TestRooflineRoofTie:
    """Each point's cy is ys(min(peak, oi * bandwidth)): the roof's y, formatted
    once, is reused exactly where min picks the peak, whatever the row's class."""

    @pytest.mark.parametrize("axis", ["log", "ulps"])
    def test_cy_follows_min_not_the_class(self, axis, monkeypatch):
        peak, bandwidth, ois = roof_tie()
        model = resolve_config("dense-70b", "model")
        hw = HardwareSpec(name="tie", peak_flops={model.weight_bits: peak},
                          mem_bandwidth=bandwidth, mem_capacity=1e12)
        ridge = peak / bandwidth
        assert ridge * bandwidth < peak and ois[0] == ridge  # compute-bound, under the roof
        ois = [math.nextafter(ridge, 0), *ois]  # a bandwidth-bound row under the ridge
        scales = []

        class Recorded(LogScale):
            def __init__(self, *args):
                super().__init__(*args)
                scales.append(self)

            if axis == "ulps":  # ulps from the peak, so a y one ulp off shows in 6 digits
                def __call__(self, value):
                    return (value - peak) / math.ulp(peak)

        monkeypatch.setattr(reports, "LogScale", Recorded)
        base = sweep_grid(model, hw, [1], [1000]).rows[0]
        rows = [base._replace(oi=oi, bound_class=BoundClass.COMPUTE_BOUND if oi >= ridge
                              else BoundClass.BANDWIDTH_BOUND) for oi in ois]
        svg = streamed(lambda out: stream([reports.stream_roofline_svg(
            model, hw, (min(ois), max(ois)), out)], [rows]))
        ys = scales[1]  # the roofline's axes: x first, then y
        points = re.findall(r'<circle cx="[^"]+" cy="([^"]+)" r="4" fill="[^"]+" stroke="#333"/>',
                            svg)
        expected = [format(ys(min(peak, oi * bandwidth)), ".6g") for oi in ois]
        assert points == expected
        if axis == "ulps":
            assert expected == ["-1", "-0.5", "0", "0"]


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
