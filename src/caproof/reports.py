"""Report builders: text tables, CSV, and self-contained SVG charts. This
module owns every artifact format; the sweep CSV's columns are the fields of
analysis.SweepRow. Sweep artifacts are written to their file as they are
rendered, a line per row, in one pass over blocks of rows (stream).

Four chart types: the capacity-extended roofline with classified workload
points, capacity-footprint-vs-context curves per attention variant,
dense-vs-MoE footprint bars with a weight floor, and the per-agent
token/footprint/intensity profile. Text and SVG render numbers with
6 significant digits; CSV keeps full precision.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence, TextIO, Tuple

from .analysis import BoundClass, SweepResult, SweepRow, _workload_rows
from .hardware import HardwareSpec, ridge_point
from .metrics import OperatingPoint, cf_request, decode_metrics
from .model import ModelSpec, Phase, kv_bytes_per_token, weight_bytes
from .svg import Canvas, LogScale, draw_frame, fmt, si
from .workload import WorkloadSpec

CLASS_COLORS = {
    BoundClass.COMPUTE_BOUND: "#3182ce",
    BoundClass.BANDWIDTH_BOUND: "#d69e2e",
    BoundClass.CAPACITY_LIMITED: "#dd6b20",
    BoundClass.CAPACITY_EXCEEDED: "#e53e3e",
}
SERIES_COLORS = ["#3182ce", "#d69e2e", "#38a169", "#805ad5", "#dd6b20", "#319795"]

CSV_COLUMNS = SweepRow._fields
# A phase or class cell, in text and CSV alike: the values are lowercase identifiers, never quoted.
_ENUM_CELLS = {member: member.value for member in (*Phase, *BoundClass)}
Renderer = Generator[None, Optional[Sequence[SweepRow]], None]  # see stream


@dataclass(frozen=True)
class Report:
    """One command's artifacts: per format, a function of the open file that
    returns the format's renderer (a chart command's come from chart), so only
    the formats asked for are rendered, and the blocks of rows stream sends to
    them. `exceeded` is set when an analyzed point is capacity_exceeded (--strict)."""

    csv: Callable[[TextIO], Renderer]
    text: Callable[[TextIO], Renderer]
    svg: Callable[[TextIO], Renderer]
    blocks: Iterable[Sequence[SweepRow]] = ()
    exceeded: bool = False


def stream(renderers: Sequence[Renderer], blocks: Iterable[Sequence[SweepRow]]) -> None:
    """Write artifacts in one pass over blocks of rows. A renderer writes its
    head when started, the lines of each slice of at most 2,048 rows, one list
    that every renderer is sent and none changes, and its tail at None; an
    empty block sends nothing. No block is kept once written, so two are never held."""
    for renderer in renderers:
        next(renderer)
    for block in blocks:
        for first in range(0, len(block), 2_048):
            rows = block[first:first + 2_048]
            for renderer in renderers:
                renderer.send(rows)
            del rows
        del block
    for renderer in renderers:
        next(renderer, None)


def chart(csv: Callable[[], str], text: Callable[[], str], svg: Callable[[], str],
          exceeded: bool = False) -> Report:
    """A chart command's report. Each argument builds its format's artifact as
    one string, called only when that format is written; the renderer takes no rows."""
    def written(make: Callable[[], str], out: TextIO) -> Renderer:
        out.write(make())
        yield
    return Report(*(partial(written, make) for make in (csv, text, svg)), exceeded=exceeded)


class Cells(dict):
    """render(value) of each distinct value, computed once per
    renderer call; only the sweep CSV uses it. Only a cell that repeats down a
    (phase, L) grid column is memoized: its length, FLOP count and feasible
    batch, and the rate and mfu of every row that is not bandwidth-bound. A
    per-row value (oi, cf, bytes, mbu, and a bandwidth-bound row's rate and
    mfu) would never be hit again, so it is formatted directly. On a grid the
    memos hold O(columns) cells, not O(rows). Down a workload's point rows a
    carried context never repeats, so the CSV starts its number memos afresh
    at each slice of them: they hold at most one slice's cells. One instance
    holds values of one type, since equal keys share a cell and 1 == 1.0."""

    def __init__(self, render: Callable[[object], str]):
        super().__init__()
        self.render = render

    def __missing__(self, value) -> str:
        cell = self[value] = self.render(value)
        return cell


def _quoted(text: str) -> str:
    """A string cell as the csv module writes it inside a row. A lone empty
    field would be written as '""', so the cell is quoted next to a second,
    empty one."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def write_csv(out: TextIO, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """The CSV dialect of every report: a header, then one line per row tuple.
    The csv module writes floats with repr (full precision) and None as an
    empty cell."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def stream_sweep_csv(out: TextIO) -> Renderer:
    """The sweep CSV: CSV_COLUMNS, full float precision, deterministic order,
    byte-identical to write_csv. Each row is formatted as one line and written
    as it is formatted, so the CSV is never held whole: floats with repr, ints
    with str, None as an empty cell, and each distinct kind and workload quoted
    once by the csv module. The cells that repeat down a grid column (see Cells)
    are formatted once per distinct value (format without a spec is str, and
    a float's str is its repr); mbu, which is ridge/oi on a compute-bound
    row, and a bandwidth-bound row's rate and mfu are formatted per row."""
    quoted = Cells(_quoted)
    ints, floats = Cells(format), Cells(format)
    bandwidth = BoundClass.BANDWIDTH_BOUND
    out.write(",".join(CSV_COLUMNS) + "\n")
    while (rows := (yield)) is not None:
        if rows and rows[0].turn_index is not None:  # a workload's point rows
            ints, floats = Cells(format), Cells(format)
        out.writelines([
            f"{quoted[kind]},{quoted[workload]},{'' if turn is None else turn},"
            f"{_ENUM_CELLS[phase]},{batch},{ints[length]},{oi!r},{cf!r},{floats[flops]},"
            f"{nbytes!r},{_ENUM_CELLS[bound]},"
            f"{f'{rate!r},{mfu!r}' if bound is bandwidth else f'{floats[rate]},{floats[mfu]}'},"
            f"{mbu!r},"
            f"{ints[feasible]},{devices},"
            f"{'' if prefill_total is None else prefill_total},"
            f"{'' if decode_total is None else decode_total}\n"
            for (kind, workload, turn, phase, batch, length, oi, cf, flops, nbytes, bound, rate,
                 mfu, mbu, feasible, devices, prefill_total, decode_total) in rows
        ])
        del rows


def sweep_csv(result: SweepResult) -> str:
    """The sweep CSV of a held result as one string, its rows sent as one block."""
    buf = io.StringIO()
    stream([stream_sweep_csv(buf)], [result.rows])
    return buf.getvalue()


def stream_sweep_text(model: str, hardware: str, out: TextIO) -> Renderer:
    """The sweep as a fixed-width table, each row's line formatted by one
    printf template and written as it is formatted. No cell is memoized: the
    memos saved less than the per-cell format specs they needed cost."""
    out.write(
        f"model={model} hardware={hardware}\n"
        f"{'kind':<15}{'phase':<9}{'batch':>6}{'context':>9}{'oi':>12}"
        f"{'cf_bytes':>12}  {'class':<18}{'tok/s':>12}{'mfu':>8}{'mbu':>8}\n"
    )
    while (rows := (yield)) is not None:
        out.writelines([
            "%-15s%-9s%6s%9s%12.6g%12.6g  %-18s%12.6g%8.3g%8.3g\n"
            % (kind, _ENUM_CELLS[phase], batch, length, oi, cf, _ENUM_CELLS[bound], rate, mfu, mbu)
            for (kind, _, _, phase, batch, length, oi, cf, _, _, bound, rate, mfu, mbu,
                 _, _, _, _) in rows
        ])
        del rows


def sweep_text(result: SweepResult, out: TextIO) -> None:
    """The sweep table of a held result, its rows sent as one block."""
    stream([stream_sweep_text(result.model, result.hardware, out)], [result.rows])


def stream_roofline_svg(model: ModelSpec, hw: HardwareSpec, oi_range: Tuple[float, float],
                        out: TextIO) -> Renderer:
    """Both roofline arms, the ridge point, and the swept points colored by
    boundedness class, titled "<model> on <hardware>". Per-device axes, the x
    axis over the ridge and oi_range, the rows' least and greatest OI. Each
    element is written to `out` as it is drawn, the points between frame and legend."""
    bits = model.weight_bits
    peak = hw.peak_for(bits)
    bandwidth = hw.mem_bandwidth
    ridge = ridge_point(hw, bits)
    lo = min(oi_range[0], ridge) / 4
    hi = max(oi_range[1], ridge) * 4

    width, height = 640, 420
    x0, y0, x1, y1 = 70, 40, width - 170, height - 60
    xs = LogScale(lo, hi, x0, x1)
    ys = LogScale(min(lo * bandwidth, peak) / 4, peak * 4, y1, y0)
    canvas = Canvas(width, height, out)
    draw_frame(canvas, x0, y0, x1, y1, title=f"{model.name} on {hw.name}",
               x_label="operational intensity (FLOPs/byte)",
               y_label="attainable FLOP/s per device", xs=xs, ys=ys)

    # Bandwidth arm up to the ridge, then the flat compute roof.
    canvas.polyline(
        [(xs(lo), ys(lo * bandwidth)), (xs(ridge), ys(peak)), (xs(hi), ys(peak))],
        stroke="#222",
        width=2,
    )
    canvas.circle(xs(ridge), ys(peak), 4, fill="#222")
    canvas.text(xs(ridge), ys(peak) - 8, f"ridge {fmt(ridge)}", size=10, anchor="middle")

    # Each point sits on the roofline, at min(peak, oi * bandwidth), the roof's y
    # formatted once. One f-string per point writes what canvas.circle(x, y, 4,
    # fill=color, stroke="#333") would.
    roof = f"{ys(peak):.6g}"
    while (rows := (yield)) is not None:
        out.writelines([
            f'<circle cx="{xs(oi):.6g}" '
            f'cy="{f"{ys(arm):.6g}" if (arm := oi * bandwidth) < peak else roof}" r="4" '
            f'fill="{CLASS_COLORS[bound]}" stroke="#333"/>\n'
            for (_, _, _, _, _, _, oi, _, _, _, bound, _, _, _, _, _, _, _) in rows
        ])
        del rows

    legend_x, legend_y = x1 + 12, y0 + 10
    for i, bound in enumerate(BoundClass):
        canvas.circle(legend_x + 5, legend_y + 18 * i, 4, fill=CLASS_COLORS[bound])
        canvas.text(legend_x + 14, legend_y + 18 * i + 4, bound.value, size=9)
    canvas.close()


def roofline_svg(model: ModelSpec, hw: HardwareSpec, result: SweepResult, out: TextIO) -> None:
    """The roofline of a held result, its rows sent as one block."""
    ois = [row.oi for row in result.rows]
    stream([stream_roofline_svg(model, hw, (min(ois), max(ois)), out)], [result.rows])


def compare_attention_rows(models: Sequence[ModelSpec], context_lens: Sequence[int],
                           batch_size: int) -> List[Dict[str, float]]:
    rows = []
    for length in context_lens:
        row: Dict[str, float] = {"context_len": length}
        point = OperatingPoint(length, batch_size, Phase.DECODE)
        for spec in models:
            row[f"{spec.name}_kv_bytes"] = kv_bytes_per_token(spec) * length
            row[f"{spec.name}_cf_bytes"] = cf_request(spec, point)
        rows.append(row)
    return rows


def _csv_table(rows: List[Dict[str, object]]) -> str:
    """The rows as CSV; the header is the first row's keys, in insertion order."""
    buf = io.StringIO()
    write_csv(buf, list(rows[0]), (row.values() for row in rows))
    return buf.getvalue()


def _lines(title: str, lines: Iterable[str]) -> str:
    """A chart's text artifact: its title, then a line per row."""
    return "\n".join([title, *lines]) + "\n"


def compare_attention_csv(rows: List[Dict[str, float]]) -> str:
    return _csv_table(rows)


def compare_attention_text(models: Sequence[ModelSpec], rows: List[Dict[str, float]],
                           batch_size: int) -> str:
    return _lines(f"capacity footprint per request, batch={batch_size}", (
        "  ".join([f"L={row['context_len']}"]
                  + [f"{m.name}: {row[f'{m.name}_cf_bytes']:.6g} B" for m in models])
        for row in rows))


def compare_attention_svg(models: Sequence[ModelSpec], rows: List[Dict[str, float]],
                          batch_size: int) -> str:
    width, height = 620, 420
    x0, y0, x1, y1 = 80, 40, width - 150, height - 60
    canvas = Canvas(width, height)
    lengths = [row["context_len"] for row in rows]
    values = [row[f"{m.name}_cf_bytes"] for m in models for row in rows]
    xs = LogScale(min(lengths), max(lengths), x0, x1)
    ys = LogScale(min(values) / 2, max(values) * 2, y1, y0)
    draw_frame(
        canvas, x0, y0, x1, y1,
        title=f"capacity footprint vs context length (batch={batch_size})",
        x_label="context length (tokens)", y_label="bytes per request", xs=xs, ys=ys,
    )
    for i, spec in enumerate(models):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        points = [(xs(row["context_len"]), ys(row[f"{spec.name}_cf_bytes"])) for row in rows]
        canvas.polyline(points, stroke=color, width=2)
        canvas.circle(x1 + 14, y0 + 12 + 18 * i, 4, fill=color)
        canvas.text(x1 + 22, y0 + 16 + 18 * i, spec.name, size=9)
    return canvas.to_svg()


def compare_moe_rows(
    models: Sequence[ModelSpec],
    batch_sizes: Sequence[int],
    context_len: int,
    include_activations: bool = False,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for spec in models:
        for batch in batch_sizes:
            point = OperatingPoint(context_len, batch, Phase.DECODE)
            metrics = decode_metrics(spec, point, include_activations)
            rows.append({
                "model": spec.name,
                "batch_size": batch,
                "context_len": context_len,
                "weight_floor_bytes": weight_bytes(spec) / batch,
                "kv_bytes": kv_bytes_per_token(spec) * context_len,
                "cf_bytes": metrics.cf,
                "decode_oi": metrics.oi,
            })
    return rows


def compare_moe_csv(rows: List[Dict[str, object]]) -> str:
    return _csv_table(rows)


def compare_moe_text(rows: List[Dict[str, object]], context_len: int) -> str:
    return _lines(f"decode footprint and intensity at context {context_len}", (
        f"{row['model']} B={row['batch_size']}: weights {row['weight_floor_bytes']:.6g} B"
        f" + kv {row['kv_bytes']:.6g} B = {row['cf_bytes']:.6g} B,"
        f" decode OI {row['decode_oi']:.6g}"
        for row in rows))


def _bars(canvas, x0, y0, x1, y1, rows, bars, labels, title, y_label, pad, group, fill):
    """A log-axis panel over half the least to twice (as a float) the greatest
    positive value drawn. Each row's slot of the width holds a group `pad` of it in
    and `group` of it wide, an equal share per bar in `bars`, `fill` of each share
    drawn. A bar is a list of (key, color, opacity) layers drawn from y1 up in
    order; a value <= 0 draws nothing. `labels` are templates formatted with the
    row, one line each under its group, the first rotated. Returns the axis."""
    values = [row[key] for row in rows for bar in bars for key, _, _ in bar if row[key] > 0]
    ys = LogScale(min(values) / 2, max(values) * 2.0, y1, y0)
    draw_frame(canvas, x0, y0, x1, y1, title=title, y_label=y_label, ys=ys)
    slot = (x1 - x0) / len(rows)
    bar_w = slot * group / len(bars)
    for i, row in enumerate(rows):
        base_x = x0 + slot * i + slot * pad
        for j, bar in enumerate(bars):
            for key, color, opacity in bar:
                if row[key] > 0:
                    top = ys(row[key])
                    canvas.rect(base_x + j * bar_w, top, bar_w * fill, y1 - top, fill=color,
                                opacity=opacity)
        for k, label in enumerate(labels):
            canvas.text(base_x + slot * group / 2, y1 + 14 + 12 * k, label.format_map(row), size=8,
                        anchor="middle", rotate=None if k else 20)
    return ys


def compare_moe_svg(rows: List[Dict[str, object]], context_len: int) -> str:
    """Footprint bars, each up to CF in the KV color with the amortized-weight
    floor shaded over it, plus decode-OI bars. Both panels use log axes;
    footprints span orders of magnitude."""
    width, height = 760, 420
    canvas = Canvas(width, height)
    mid = width // 2
    x0, y0, y1 = 70, 40, height - 90
    labels = ["{model}", "B={batch_size}"]
    _bars(canvas, x0, y0, mid - 30, y1, rows,
          [[("cf_bytes", "#3182ce", None), ("weight_floor_bytes", "#a0aec0", 0.9)]], labels,
          f"footprint per request at context {si(context_len)}", "bytes per request", 0.2, 0.6, 1)
    canvas.rect(x0, height - 34, 10, 10, fill="#a0aec0", opacity=0.9)
    canvas.text(x0 + 14, height - 25, "model weights (amortized)", size=9)
    canvas.rect(x0 + 180, height - 34, 10, 10, fill="#3182ce")
    canvas.text(x0 + 194, height - 25, "KV cache above the floor", size=9)

    _bars(canvas, mid + 50, y0, width - 40, y1, rows, [[("decode_oi", "#d69e2e", None)]], labels,
          "decode operational intensity", "FLOPs/byte", 0.2, 0.6, 1)
    return canvas.to_svg()


def agent_profile_rows(model: ModelSpec, hw: HardwareSpec, workloads: Sequence[WorkloadSpec],
                       include_activations: bool = False,
                       replicate_weights: bool = False) -> List[Dict[str, object]]:
    """One row per workload: its token totals and the two workload_total rows
    of sweep_workload, which classify both phases at the final context, made
    without its per-turn rows."""
    rows: List[Dict[str, object]] = []
    for workload in workloads:
        (prefill, decode), = _workload_rows(model, hw, workload, (), include_activations,
                                            replicate_weights)
        rows.append({
            "workload": workload.name,
            "turns": workload.turns,
            "batch_size": decode.batch_size,
            "prefill_total_tokens": decode.prefill_total_tokens,
            "decode_total_tokens": decode.decode_total_tokens,
            "final_context": decode.context_len,
            "cf_bytes": decode.cf_bytes,
            "prefill_oi": prefill.oi,
            "decode_oi": decode.oi,
            "prefill_class": prefill.bound_class.value,
            "decode_class": decode.bound_class.value,
            "min_devices_decode": decode.min_devices,
        })
    return rows


def agent_profile_csv(rows: List[Dict[str, object]]) -> str:
    return _csv_table(rows)


def agent_profile_text(rows: List[Dict[str, object]], model: ModelSpec, hw: HardwareSpec) -> str:
    return _lines(f"agent profiles for {model.name} on {hw.name}", (
        f"{row['workload']}: {row['turns']} turns,"
        f" prefill {row['prefill_total_tokens']} decode {row['decode_total_tokens']},"
        f" final context {row['final_context']},"
        f" cf {row['cf_bytes']:.6g} B ({row['decode_class']}),"
        f" OI prefill {row['prefill_oi']:.6g} / decode {row['decode_oi']:.6g}"
        for row in rows))


def agent_profile_svg(rows: List[Dict[str, object]], hw: HardwareSpec) -> str:
    """Token totals, footprint vs one-device capacity, and phase OI per agent.
    The capacity line is drawn only where the capacity lies on the footprint axis."""
    width, height = 980, 430
    canvas = Canvas(width, height)
    y0, y1 = 40, height - 90

    tokens_x0 = 60
    labels = ["{workload}"]
    _bars(canvas, tokens_x0, y0, 330, y1, rows,
          [[("prefill_total_tokens", "#3182ce", None)], [("decode_total_tokens", "#d69e2e", None)]],
          labels, "tokens per task", "tokens", 0.15, 0.7, 0.9)
    canvas.rect(tokens_x0, height - 34, 10, 10, fill="#3182ce")
    canvas.text(tokens_x0 + 14, height - 25, "prefill", size=9)
    canvas.rect(tokens_x0 + 70, height - 34, 10, 10, fill="#d69e2e")
    canvas.text(tokens_x0 + 84, height - 25, "decode", size=9)

    cf_x0, cf_x1 = 390, 650
    cf_scale = _bars(canvas, cf_x0, y0, cf_x1, y1, rows, [[("cf_bytes", "#805ad5", None)]], labels,
                     "footprint per request (B=1 weights + KV)", "bytes", 0.15, 0.7, 0.9)
    if cf_scale.lo <= hw.mem_capacity <= cf_scale.hi:
        cap_y = cf_scale(hw.mem_capacity)
        canvas.line(cf_x0, cap_y, cf_x1, cap_y, stroke="#666", width=1.5, dash="5,3")
        canvas.text(cf_x1 - 4, cap_y - 4, "one-device capacity", size=8, anchor="end", color="#666")

    _bars(canvas, 710, y0, 950, y1, rows,
          [[("prefill_oi", "#3182ce", None)], [("decode_oi", "#d69e2e", None)]], labels,
          "operational intensity at final context", "FLOPs/byte", 0.15, 0.7, 0.9)
    return canvas.to_svg()
