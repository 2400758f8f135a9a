"""Report builders: text tables, CSV, and self-contained SVG charts.

Four chart types: the capacity-extended roofline with classified workload
points, capacity-footprint-vs-context curves per attention variant,
dense-vs-MoE footprint bars with a weight floor, and the per-agent
token/footprint/intensity profile. Text and SVG render numbers with
6 significant digits; CSV keeps full precision.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, TextIO

from .analysis import (ROW_BLOCK, BoundClass, FormattedCells, SweepResult, sweep_workload,
                       write_csv)
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


@dataclass(frozen=True)
class Report:
    """One command's artifacts as renderers that each write one format to an
    open text file, so only the formats asked for are rendered and a sweep
    artifact is streamed rather than held whole. `exceeded` is set when an
    analyzed point is capacity_exceeded (the --strict exit)."""

    csv: Callable[[TextIO], object]
    text: Callable[[TextIO], object]
    svg: Callable[[TextIO], object]
    exceeded: bool = False


def sweep_csv(result: SweepResult) -> str:
    """The sweep CSV as one string; the CLI streams result.to_csv to its file."""
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue()


def sweep_text(result: SweepResult, out: TextIO) -> None:
    """The sweep as a fixed-width table, one line per row, written ROW_BLOCK
    lines at a time."""
    out.write(
        f"model={result.model} hardware={result.hardware}\n"
        f"{'kind':<15}{'phase':<9}{'batch':>6}{'context':>9}{'oi':>12}"
        f"{'cf_bytes':>12}  {'class':<18}{'tok/s':>12}{'mfu':>8}{'mbu':>8}\n"
    )
    phases = {phase: f"{phase.value:<9}" for phase in Phase}
    bounds = {bound: f"{bound.value:<18}" for bound in BoundClass}
    lengths, rates, ratios = (FormattedCells(">9"), FormattedCells(">12.6g"),
                              FormattedCells(">8.3g"))
    rows = result.rows
    for start in range(0, len(rows), ROW_BLOCK):
        out.write("".join([
            f"{kind:<15}{phases[phase]}{batch:>6}{lengths[length]}{oi:>12.6g}{cf:>12.6g}"
            f"  {bounds[bound]}{rates[rate]}{ratios[mfu]}{ratios[mbu]}\n"
            for (kind, phase, batch, length, ((oi, cf, _, _), bound, rate, mfu, mbu, _, _),
                 _, _, _, _) in rows[start:start + ROW_BLOCK]
        ]))


def roofline_svg(
    model: ModelSpec, hw: HardwareSpec, result: SweepResult, title: str, out: TextIO
) -> None:
    """Both roofline arms, the ridge point, and the swept points colored by
    boundedness class. Per-device axes. The points are written ROW_BLOCK at
    a time between the frame and the legend."""
    bits = model.weight_bits
    peak = hw.peak_for(bits)
    bandwidth = hw.mem_bandwidth
    ridge = ridge_point(hw, bits)
    rows = result.rows
    ois = [row.analysis.metrics.oi for row in rows]
    lo = min(min(ois), ridge) / 4
    hi = max(max(ois), ridge) * 4

    width, height = 640, 420
    x0, y0, x1, y1 = 70, 40, width - 170, height - 60
    canvas = Canvas(width, height)
    xs = LogScale(lo, hi, x0, x1)
    ys = LogScale(min(lo * bandwidth, peak) / 4, peak * 4, y1, y0)
    draw_frame(canvas, x0, y0, x1, y1, title=title, x_label="operational intensity (FLOPs/byte)",
               y_label="attainable FLOP/s per device", xs=xs, ys=ys)

    # Bandwidth arm up to the ridge, then the flat compute roof.
    canvas.polyline(
        [(xs(lo), ys(lo * bandwidth)), (xs(ridge), ys(peak)), (xs(hi), ys(peak))],
        stroke="#222",
        width=2,
    )
    canvas.circle(xs(ridge), ys(peak), 4, fill="#222")
    canvas.text(xs(ridge), ys(peak) - 8, f"ridge {fmt(ridge)}", size=10, anchor="middle")
    canvas.write(out)

    # Each point sits on the roofline: attainable_flops with peak and
    # bandwidth read once, outside the per-row loop. One f-string per point
    # writes what canvas.circle(x, y, 4, fill=color, stroke="#333") would.
    for start in range(0, len(rows), ROW_BLOCK):
        out.write("".join([
            f'<circle cx="{xs(oi):.6g}" cy="{ys(min(peak, oi * bandwidth)):.6g}" r="4" '
            f'fill="{CLASS_COLORS[bound]}" stroke="#333"/>\n'
            for (_, _, _, _, ((oi, _, _, _), bound, _, _, _, _, _), _, _, _, _)
            in rows[start:start + ROW_BLOCK]
        ]))

    legend_x, legend_y = x1 + 12, y0 + 10
    for i, bound in enumerate(BoundClass):
        canvas.circle(legend_x + 5, legend_y + 18 * i, 4, fill=CLASS_COLORS[bound])
        canvas.text(legend_x + 14, legend_y + 18 * i + 4, bound.value, size=9)
    canvas.write(out, end=True)


def compare_attention_rows(
    models: Sequence[ModelSpec], context_lens: Sequence[int], batch_size: int
) -> List[Dict[str, float]]:
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


def compare_attention_csv(rows: List[Dict[str, float]]) -> str:
    return _csv_table(rows)


def compare_attention_text(
    models: Sequence[ModelSpec], rows: List[Dict[str, float]], batch_size: int
) -> str:
    lines = [f"capacity footprint per request, batch={batch_size}"]
    for row in rows:
        cells = [f"L={row['context_len']}"]
        cells += [f"{m.name}: {row[f'{m.name}_cf_bytes']:.6g} B" for m in models]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def compare_attention_svg(
    models: Sequence[ModelSpec], rows: List[Dict[str, float]], batch_size: int
) -> str:
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
            rows.append(
                {
                    "model": spec.name,
                    "batch_size": batch,
                    "context_len": context_len,
                    "weight_floor_bytes": weight_bytes(spec) / batch,
                    "kv_bytes": kv_bytes_per_token(spec) * context_len,
                    "cf_bytes": metrics.cf,
                    "decode_oi": metrics.oi,
                }
            )
    return rows


def compare_moe_csv(rows: List[Dict[str, object]]) -> str:
    return _csv_table(rows)


def compare_moe_text(rows: List[Dict[str, object]], context_len: int) -> str:
    lines = [f"decode footprint and intensity at context {context_len}"]
    for row in rows:
        lines.append(
            f"{row['model']} B={row['batch_size']}: weights {row['weight_floor_bytes']:.6g} B"
            f" + kv {row['kv_bytes']:.6g} B = {row['cf_bytes']:.6g} B,"
            f" decode OI {row['decode_oi']:.6g}"
        )
    return "\n".join(lines) + "\n"


def compare_moe_svg(rows: List[Dict[str, object]], context_len: int) -> str:
    """Footprint bars with the amortized-weight floor shaded, plus decode-OI
    bars. Both panels use log axes; footprints span orders of magnitude."""
    width, height = 760, 420
    canvas = Canvas(width, height)
    mid = width // 2
    x0, y0, x1, y1 = 70, 40, mid - 30, height - 90
    cf_values = [row["cf_bytes"] for row in rows]
    floor_values = [row["weight_floor_bytes"] for row in rows]
    ys = LogScale(min(floor_values) / 2, max(cf_values) * 2, y1, y0)
    draw_frame(canvas, x0, y0, x1, y1, title=f"footprint per request at context {si(context_len)}",
               y_label="bytes per request", ys=ys)
    slot = (x1 - x0) / len(rows)
    for i, row in enumerate(rows):
        bar_x = x0 + slot * i + slot * 0.2
        bar_w = slot * 0.6
        # full bar up to CF in the KV color, weight floor shaded over it
        cf_top = ys(row["cf_bytes"])
        canvas.rect(bar_x, cf_top, bar_w, y1 - cf_top, fill="#3182ce")
        floor_top = ys(row["weight_floor_bytes"])
        canvas.rect(bar_x, floor_top, bar_w, y1 - floor_top, fill="#a0aec0", opacity=0.9)
        canvas.text(bar_x + bar_w / 2, y1 + 14, f"{row['model']}", size=8, anchor="middle", rotate=20)
        canvas.text(bar_x + bar_w / 2, y1 + 26, f"B={row['batch_size']}", size=8, anchor="middle")
    canvas.rect(x0, height - 34, 10, 10, fill="#a0aec0", opacity=0.9)
    canvas.text(x0 + 14, height - 25, "model weights (amortized)", size=9)
    canvas.rect(x0 + 180, height - 34, 10, 10, fill="#3182ce")
    canvas.text(x0 + 194, height - 25, "KV cache above the floor", size=9)

    x0b, x1b = mid + 50, width - 40
    oi_values = [row["decode_oi"] for row in rows]
    ysb = LogScale(min(oi_values) / 2, max(oi_values) * 2, y1, y0)
    draw_frame(canvas, x0b, y0, x1b, y1, title="decode operational intensity", y_label="FLOPs/byte",
               ys=ysb)
    slot_b = (x1b - x0b) / len(rows)
    for i, row in enumerate(rows):
        bar_x = x0b + slot_b * i + slot_b * 0.2
        top = ysb(row["decode_oi"])
        canvas.rect(bar_x, top, slot_b * 0.6, y1 - top, fill="#d69e2e")
        canvas.text(bar_x + slot_b * 0.3, y1 + 14, f"{row['model']}", size=8, anchor="middle", rotate=20)
        canvas.text(bar_x + slot_b * 0.3, y1 + 26, f"B={row['batch_size']}", size=8, anchor="middle")
    return canvas.to_svg()


def agent_profile_rows(
    model: ModelSpec,
    hw: HardwareSpec,
    workloads: Sequence[WorkloadSpec],
    include_activations: bool = False,
    replicate_weights: bool = False,
) -> List[Dict[str, object]]:
    """One row per workload: its token totals and the two workload_total rows
    of sweep_workload, which classify both phases at the final context."""
    rows: List[Dict[str, object]] = []
    for workload in workloads:
        prefill, decode = sweep_workload(model, hw, workload, include_activations,
                                         replicate_weights).rows[-2:]
        rows.append(
            {
                "workload": workload.name,
                "turns": workload.turns,
                "batch_size": decode.batch_size,
                "prefill_total_tokens": decode.prefill_total_tokens,
                "decode_total_tokens": decode.decode_total_tokens,
                "final_context": decode.context_len,
                "cf_bytes": decode.analysis.metrics.cf,
                "prefill_oi": prefill.analysis.metrics.oi,
                "decode_oi": decode.analysis.metrics.oi,
                "prefill_class": prefill.analysis.bound_class.value,
                "decode_class": decode.analysis.bound_class.value,
                "min_devices_decode": decode.analysis.min_devices,
            }
        )
    return rows


def agent_profile_csv(rows: List[Dict[str, object]]) -> str:
    return _csv_table(rows)


def agent_profile_text(rows: List[Dict[str, object]], model: ModelSpec, hw: HardwareSpec) -> str:
    lines = [f"agent profiles for {model.name} on {hw.name}"]
    for row in rows:
        lines.append(
            f"{row['workload']}: {row['turns']} turns,"
            f" prefill {row['prefill_total_tokens']} decode {row['decode_total_tokens']},"
            f" final context {row['final_context']},"
            f" cf {row['cf_bytes']:.6g} B ({row['decode_class']}),"
            f" OI prefill {row['prefill_oi']:.6g} / decode {row['decode_oi']:.6g}"
        )
    return "\n".join(lines) + "\n"


def _bar_panel_log(canvas, x0, y0, x1, y1, labels, series, colors, title, y_label):
    """Grouped bars on a log y-axis. series: list of (name, values)."""
    all_values = [v for _, values in series for v in values if v > 0]
    ys = LogScale(min(all_values) / 2, max(all_values) * 2, y1, y0)
    draw_frame(canvas, x0, y0, x1, y1, title=title, y_label=y_label, ys=ys)
    slot = (x1 - x0) / len(labels)
    group_w = slot * 0.7
    bar_w = group_w / len(series)
    for i, label in enumerate(labels):
        base_x = x0 + slot * i + slot * 0.15
        for j, (_, values) in enumerate(series):
            if values[i] <= 0:
                continue
            top = ys(values[i])
            canvas.rect(base_x + j * bar_w, top, bar_w * 0.9, y1 - top, fill=colors[j])
        canvas.text(base_x + group_w / 2, y1 + 14, label, size=8, anchor="middle", rotate=20)
    return ys


def agent_profile_svg(rows: List[Dict[str, object]], hw: HardwareSpec) -> str:
    """Token totals, footprint vs one-device capacity, and phase OI per agent."""
    width, height = 980, 430
    canvas = Canvas(width, height)
    labels = [str(row["workload"]) for row in rows]
    y0, y1 = 40, height - 90
    panels = [(60, 330), (390, 650), (710, 950)]

    _bar_panel_log(
        canvas, panels[0][0], y0, panels[0][1], y1, labels,
        [
            ("prefill", [float(r["prefill_total_tokens"]) for r in rows]),
            ("decode", [float(r["decode_total_tokens"]) for r in rows]),
        ],
        ["#3182ce", "#d69e2e"],
        "tokens per task", "tokens",
    )
    canvas.rect(panels[0][0], height - 34, 10, 10, fill="#3182ce")
    canvas.text(panels[0][0] + 14, height - 25, "prefill", size=9)
    canvas.rect(panels[0][0] + 70, height - 34, 10, 10, fill="#d69e2e")
    canvas.text(panels[0][0] + 84, height - 25, "decode", size=9)

    cf_scale = _bar_panel_log(
        canvas, panels[1][0], y0, panels[1][1], y1, labels,
        [("cf", [float(r["cf_bytes"]) for r in rows])],
        ["#805ad5"],
        "footprint per request (B=1 weights + KV)", "bytes",
    )
    cap_y = cf_scale(hw.mem_capacity) if cf_scale.lo <= hw.mem_capacity <= cf_scale.hi else None
    if cap_y is not None:
        canvas.line(panels[1][0], cap_y, panels[1][1], cap_y, stroke="#666", width=1.5, dash="5,3")
        canvas.text(panels[1][1] - 4, cap_y - 4, "one-device capacity", size=8, anchor="end", color="#666")

    _bar_panel_log(
        canvas, panels[2][0], y0, panels[2][1], y1, labels,
        [
            ("prefill", [float(r["prefill_oi"]) for r in rows]),
            ("decode", [float(r["decode_oi"]) for r in rows]),
        ],
        ["#3182ce", "#d69e2e"],
        "operational intensity at final context", "FLOPs/byte",
    )
    return canvas.to_svg()
