"""The sweep renderers stream their artifact: the bytes equal the csv module's
(and the one-string table's), and no single write holds more than a block of
rows."""

import io
import random

import pytest

from caproof import reports
from caproof.analysis import CSV_COLUMNS, SweepResult, sweep_grid, sweep_workload, write_csv
from caproof.config import resolve_config
from caproof.hardware import HardwareSpec
from caproof.model import weight_bytes
from caproof.workload import WorkloadSpec
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
        assert streamed(result.to_csv) == reference_csv(result)

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
        assert streamed(result.to_csv) == reference_csv(result)

    def test_random_grid_rows(self):
        rng = random.Random(17)
        for _ in range(60):
            spec = random_model(rng)
            batches = [rng.randint(1, 512) for _ in range(rng.randint(1, 4))]
            lengths = [rng.randint(1, 2_000_000) for _ in range(rng.randint(1, 6))]
            result = sweep_grid(spec, random_hardware(rng, spec), batches, lengths,
                                include_activations=rng.random() < 0.5,
                                replicate_weights=rng.random() < 0.5)
            assert streamed(result.to_csv) == reference_csv(result)
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
            result.to_csv(out)
        elif renderer == "text":
            reports.sweep_text(result, out)
        else:
            reports.roofline_svg(model, hw, result, "grid", out)
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

