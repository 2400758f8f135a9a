"""Capacity-extended roofline classification and parameter sweeps.

Beyond the classic compute-bound/bandwidth-bound split, a workload can be
capacity-limited (it fits, but no feasible batch size raises its operational
intensity to the ridge point) or capacity-exceeded (a single request does not
fit). Classification and the MFU/MBU estimates are per-device verdicts and
therefore invariant to device count: adding cards buys capacity and
throughput, never per-device intensity. Aggregate capacity enters only
through the planning outputs max_feasible_batch and min_devices, which count
weights once across the aggregation by default (parallelism-agnostic lower
bound) or per device with replicate_weights=True (upper bound).

Capacity comparisons are carried out in integer bits so feasibility and
device-count duality are exact.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from .hardware import HardwareSpec, ridge_point
from .metrics import OperatingPoint, PhaseMetrics, _metrics
from .model import ModelSpec, Phase
from .workload import WorkloadSpec, expand, total_tokens


class BoundClass(enum.Enum):
    COMPUTE_BOUND = "compute_bound"
    BANDWIDTH_BOUND = "bandwidth_bound"
    CAPACITY_LIMITED = "capacity_limited"
    CAPACITY_EXCEEDED = "capacity_exceeded"


class PhaseAnalysis(NamedTuple):
    metrics: PhaseMetrics
    bound_class: BoundClass
    attainable_tokens_per_s: float
    mfu_est: float
    mbu_est: float
    max_feasible_batch: int
    min_devices: int


def _device_capacity_bits(hw: HardwareSpec) -> int:
    return int(hw.mem_capacity) * 8


def _feasible_batch(weights: int, kv_bits: int, cap: int, num_devices: int,
                    replicate_weights: bool) -> int:
    """max_feasible_batch from weight bits and one request's KV bits."""
    if replicate_weights:
        return num_devices * max(0, (cap - weights) // kv_bits)
    total_cap = num_devices * cap
    if weights > total_cap:
        return 0
    return (total_cap - weights) // kv_bits


def _device_count(weights: int, kv_bits: int, cap: int, batch_size: int,
                  replicate_weights: bool) -> int:
    """min_devices from weight bits and one request's KV bits."""
    if replicate_weights:
        per_device = (cap - weights) // kv_bits
        if per_device < 1:
            return 0
        return -(-batch_size // per_device)
    return -(-(weights + batch_size * kv_bits) // cap)


def max_feasible_batch(
    spec: ModelSpec,
    hw: HardwareSpec,
    context_len: int,
    replicate_weights: bool = False,
) -> int:
    """Largest batch whose weights + KV fit the aggregation; 0 if even the
    weights do not fit."""
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    costs = spec.costs
    return _feasible_batch(costs.weight_bits, costs.kv_bits * context_len,
                           _device_capacity_bits(hw), hw.num_devices, replicate_weights)


def min_devices(
    spec: ModelSpec,
    hw: HardwareSpec,
    point: OperatingPoint,
    replicate_weights: bool = False,
) -> int:
    """Smallest device count that fits the point's batch; 0 flags a point no
    aggregation can fit (only possible with replicated weights)."""
    costs = spec.costs
    return _device_count(costs.weight_bits, costs.kv_bits * point.context_len,
                         _device_capacity_bits(hw), point.batch_size, replicate_weights)


def _verdict(metrics: PhaseMetrics, column: tuple, devices: int, ridge: float,
             compute_rate: float, bandwidth: float, num_devices: int) -> PhaseAnalysis:
    """README rules 1-4 at one point, given the verdict of its (phase, L)
    column, (bound_class, rate, mfu, mbu, max_feasible_batch), and the
    compute-bound tokens/s, peak / flops_per_token * num_devices."""
    bound, rate, mfu, mbu, feasible = column
    if bound is BoundClass.CAPACITY_EXCEEDED:  # no attainable rate, mfu or mbu
        return PhaseAnalysis(metrics, bound, 0.0, 0.0, 0.0, feasible, devices)
    oi = metrics.oi
    if oi >= ridge:
        return PhaseAnalysis(metrics, BoundClass.COMPUTE_BOUND, compute_rate, 1.0, ridge / oi,
                             feasible, devices)
    if bound is BoundClass.CAPACITY_LIMITED:  # the best reachable rate, mfu and mbu
        return PhaseAnalysis(metrics, bound, rate, mfu, mbu, feasible, devices)
    return PhaseAnalysis(metrics, BoundClass.BANDWIDTH_BOUND,
                         oi * bandwidth / metrics.flops_per_token * num_devices, oi / ridge, 1.0,
                         feasible, devices)


def classify(
    spec: ModelSpec,
    hw: HardwareSpec,
    point: OperatingPoint,
    include_activations: bool = False,
    replicate_weights: bool = False,
) -> PhaseAnalysis:
    """Place one operating point in the capacity-extended roofline.

    Rules, in order:
    - a single request (weights + its KV) exceeds one device -> CAPACITY_EXCEEDED;
    - OI at the point >= ridge -> COMPUTE_BOUND (mfu 1, mbu ridge/oi);
    - some per-device-feasible batch reaches the ridge -> BANDWIDTH_BOUND at
      this point (mfu oi/ridge, mbu 1);
    - otherwise CAPACITY_LIMITED: mfu is the best reachable, evaluated at the
      largest per-device-feasible batch.

    OI is monotone non-decreasing in batch size (weight amortization), so
    ridge reachability is decided at that largest feasible batch, whose OI
    comes from the same formula as the point's. _verdict applies the rules.
    """
    bits = spec.weight_bits
    ridge = ridge_point(hw, bits)
    costs = spec.costs
    length, phase = point.context_len, point.phase
    flops = float(costs.token_flops(phase, length))
    metrics = PhaseMetrics(*_metrics(costs, phase, length, point.batch_size,
                                     include_activations, flops))
    weights = costs.weight_bits
    kv_bits = costs.kv_bits * length
    cap_dev = _device_capacity_bits(hw)
    feasible = _feasible_batch(weights, kv_bits, cap_dev, hw.num_devices, replicate_weights)
    devices = _device_count(weights, kv_bits, cap_dev, point.batch_size, replicate_weights)
    if weights + kv_bits > cap_dev:
        column = (BoundClass.CAPACITY_EXCEEDED, 0.0, 0.0, 0.0, feasible)
    else:
        best_oi = _metrics(costs, phase, length, (cap_dev - weights) // kv_bits,
                           include_activations, flops)[0]
        column = (BoundClass.BANDWIDTH_BOUND if best_oi >= ridge else BoundClass.CAPACITY_LIMITED,
                  best_oi * hw.mem_bandwidth / flops * hw.num_devices, best_oi / ridge, 1.0,
                  feasible)
    return _verdict(metrics, column, devices, ridge, hw.peak_for(bits) / flops * hw.num_devices,
                    hw.mem_bandwidth, hw.num_devices)


class SweepRow(NamedTuple):
    row_kind: str  # "point" or "workload_total"
    phase: Phase
    batch_size: int
    context_len: int
    analysis: PhaseAnalysis
    workload: str = ""
    turn_index: Optional[int] = None
    prefill_total_tokens: Optional[int] = None
    decode_total_tokens: Optional[int] = None


CSV_COLUMNS = (
    "row_kind",
    "workload",
    "turn_index",
    "phase",
    "batch_size",
    "context_len",
    "oi",
    "cf_bytes",
    "flops_per_token",
    "bytes_per_token",
    "bound_class",
    "attainable_tokens_per_s",
    "mfu_est",
    "mbu_est",
    "max_feasible_batch",
    "min_devices",
    "prefill_total_tokens",
    "decode_total_tokens",
)


# Rows per write when a sweep artifact is streamed to a file.
ROW_BLOCK = 1000


class _QuotedCells(dict):
    """A string cell as the csv module writes it inside a row, computed once
    per distinct string. A lone empty field would be written as '""', so
    each cell is quoted next to a second, empty one."""

    def __missing__(self, text: str) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((text, ""))
        cell = self[text] = buf.getvalue()[:-2]
        return cell


class FormattedCells(dict):
    """format(value, spec) of each distinct value, computed once per
    renderer call: on a grid a length, FLOP count, rate or ratio repeats down
    its column. One instance holds values of one type, since equal keys
    share a cell and 1 == 1.0."""

    def __init__(self, spec: str = ""):
        super().__init__()
        self.spec = spec

    def __missing__(self, value) -> str:
        cell = self[value] = format(value, self.spec)
        return cell


@dataclass(frozen=True)
class SweepResult:
    model: str
    hardware: str
    rows: Tuple[SweepRow, ...]

    def to_csv(self, out: TextIO) -> None:
        """Stable column schema, full float precision, deterministic order,
        byte-identical to write_csv. Each row is formatted as one line and
        the lines are written ROW_BLOCK at a time, so the CSV is never held
        whole: floats with repr, ints with str, None as an empty cell, and
        each distinct string cell quoted once by the csv module. The columns
        whose values repeat down a grid column are formatted once per
        distinct value (format with an empty spec is str, and a float's str
        is its repr)."""
        quoted = _QuotedCells()
        ints, floats = FormattedCells(), FormattedCells()
        phases = {phase: quoted[phase.value] for phase in Phase}
        bounds = {bound: quoted[bound.value] for bound in BoundClass}
        out.write(",".join(CSV_COLUMNS) + "\n")
        rows = self.rows
        for start in range(0, len(rows), ROW_BLOCK):
            out.write("".join([
                f"{quoted[kind]},{quoted[workload]},{'' if turn is None else turn},"
                f"{phases[phase]},{batch},{ints[length]},{oi!r},{cf!r},{floats[flops]},"
                f"{nbytes!r},{bounds[bound]},{floats[rate]},{floats[mfu]},{floats[mbu]},"
                f"{ints[feasible]},{devices},"
                f"{'' if prefill_total is None else prefill_total},"
                f"{'' if decode_total is None else decode_total}\n"
                for (kind, phase, batch, length,
                     ((oi, cf, flops, nbytes), bound, rate, mfu, mbu, feasible, devices),
                     workload, turn, prefill_total, decode_total)
                in rows[start:start + ROW_BLOCK]
            ]))


def write_csv(out: TextIO, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """The CSV dialect of every report: a header, then one line per row tuple.
    The csv module writes floats with repr (full precision) and None as an
    empty cell."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def sweep_grid(
    spec: ModelSpec,
    hw: HardwareSpec,
    batch_sizes: Sequence[int],
    context_lens: Sequence[int],
    phases: Iterable[Phase] = (Phase.PREFILL, Phase.DECODE),
    include_activations: bool = False,
    replicate_weights: bool = False,
) -> SweepResult:
    """One PhaseAnalysis per (phase, batch, context) grid point, in phase ->
    batch -> context order, each equal to classify's at that point.

    classify runs once per (phase, L) column, at the smallest batch: whether
    one request fits and whether some per-device-feasible batch reaches the
    ridge depend on L alone, and OI never falls as the batch grows (weight
    bytes per token are W/B + c). Every larger batch of the column is judged
    by _verdict against the head's verdict, and no OperatingPoint is built
    for it.
    """
    if not batch_sizes or not context_lens:
        raise ValueError("sweep grid must be non-empty")
    wanted = set(phases)
    batches, lengths = sorted(set(batch_sizes)), sorted(set(context_lens))
    flags = (include_activations, replicate_weights)
    costs = spec.costs
    ridge = ridge_point(hw, spec.weight_bits)
    peak, bandwidth, num_devices = hw.peak_for(spec.weight_bits), hw.mem_bandwidth, hw.num_devices
    weights, cap_dev = costs.weight_bits, _device_capacity_bits(hw)
    rows = []
    for phase in (Phase.PREFILL, Phase.DECODE):
        if phase not in wanted:
            continue
        columns = []
        for length in lengths:
            head = classify(spec, hw, OperatingPoint(length, batches[0], phase), *flags)
            rows.append(SweepRow("point", phase, batches[0], length, head))
            flops = head.metrics.flops_per_token
            columns.append((length, costs.kv_bits * length, flops, peak / flops * num_devices,
                            head[1:6]))
        for batch in batches[1:]:
            for length, kv_bits, flops, compute_rate, column in columns:
                metrics = PhaseMetrics(*_metrics(costs, phase, length, batch,
                                                 include_activations, flops))
                devices = _device_count(weights, kv_bits, cap_dev, batch, replicate_weights)
                rows.append(SweepRow("point", phase, batch, length, _verdict(
                    metrics, column, devices, ridge, compute_rate, bandwidth, num_devices)))
    return SweepResult(model=spec.name, hardware=hw.name, rows=tuple(rows))


def sweep_workload(
    spec: ModelSpec,
    hw: HardwareSpec,
    workload: WorkloadSpec,
    include_activations: bool = False,
    replicate_weights: bool = False,
) -> SweepResult:
    """Per-turn prefill/decode points for an agent workload, plus one
    aggregate row per phase at the final context with the token totals."""
    trace = expand(workload)
    if trace.final_context < 1:
        raise ValueError(f"workload '{workload.name}' expands to zero tokens")
    batch = workload.batch_size
    flags = (include_activations, replicate_weights)

    def row(kind: str, phase: Phase, context_len: int, **totals) -> SweepRow:
        analysis = classify(spec, hw, OperatingPoint(context_len, batch, phase), *flags)
        return SweepRow(kind, phase, batch, context_len, analysis, workload.name, **totals)

    rows: List[SweepRow] = []
    for record in trace.records:
        turn = record.turn_index
        if record.prefill_tokens > 0:
            end = record.prefill_start_context + record.prefill_tokens
            rows.append(row("point", Phase.PREFILL, end, turn_index=turn))
        if len(record.decode_context_lengths) > 0:
            rows.append(row("point", Phase.DECODE, record.cumulative_context, turn_index=turn))
    prefill_total, decode_total = total_tokens(trace)
    for phase in (Phase.PREFILL, Phase.DECODE):
        rows.append(row("workload_total", phase, trace.final_context,
                        prefill_total_tokens=prefill_total, decode_total_tokens=decode_total))
    return SweepResult(model=spec.name, hardware=hw.name, rows=tuple(rows))
