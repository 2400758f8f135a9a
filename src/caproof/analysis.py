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
device-count duality are exact. The results are plain data; reports renders
them as CSV, text and SVG.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .hardware import HardwareSpec, ridge_point
from .metrics import OperatingPoint, PhaseMetrics, _metrics
from .model import ModelSpec, Phase, _bound
from .workload import WorkloadSpec, _context


class BoundClass(enum.Enum):
    COMPUTE_BOUND = "compute_bound"
    BANDWIDTH_BOUND = "bandwidth_bound"
    CAPACITY_LIMITED = "capacity_limited"
    CAPACITY_EXCEEDED = "capacity_exceeded"
    __hash__ = object.__hash__  # members are singletons: hashed in C, by identity


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


def _b_max(weights: int, kv_bits: int, cap: int) -> int:
    """B_max: how many requests of kv_bits fit in cap bits beside the weights; < 1 if none."""
    return (cap - weights) // kv_bits


def _feasible_batch(weights: int, kv_bits: int, cap: int, num_devices: int,
                    replicate_weights: bool) -> int:
    """max_feasible_batch from weight bits and one request's KV bits."""
    if replicate_weights:
        return num_devices * max(0, _b_max(weights, kv_bits, cap))
    return max(0, _b_max(weights, kv_bits, num_devices * cap))


def _device_count(weights: int, kv_bits: int, cap: int, batch_size: int,
                  replicate_weights: bool) -> int:
    """min_devices from weight bits and one request's KV bits."""
    if replicate_weights:
        per_device = _b_max(weights, kv_bits, cap)
        return -(-batch_size // per_device) if per_device >= 1 else 0
    return -(-(weights + batch_size * kv_bits) // cap)


def max_feasible_batch(spec: ModelSpec, hw: HardwareSpec, context_len: int,
                       replicate_weights: bool = False) -> int:
    """Largest batch whose weights + KV fit the aggregation; 0 if even the
    weights do not fit."""
    _bound("context_len", context_len, ">= 1")
    costs = spec.costs
    return _feasible_batch(costs.weight_bits, costs.kv_bits * context_len,
                           _device_capacity_bits(hw), hw.num_devices, replicate_weights)


def min_devices(spec: ModelSpec, hw: HardwareSpec, point: OperatingPoint,
                replicate_weights: bool = False) -> int:
    """Smallest device count that fits the point's batch; 0 flags a point no
    aggregation can fit (only possible with replicated weights)."""
    costs = spec.costs
    return _device_count(costs.weight_bits, costs.kv_bits * point.context_len,
                         _device_capacity_bits(hw), point.batch_size, replicate_weights)


def _column(spec: ModelSpec, hw: HardwareSpec, length: int, flops: float, verdict: tuple,
            replicate_weights: bool, head: tuple = ("point", "", None),
            totals: tuple = (None, None)) -> tuple:
    """A (phase, L) column's constants, in the order _block unpacks them, between its
    rows' head (row_kind, workload, turn_index) and their token totals."""
    costs, kv_bits, cap_dev = spec.costs, spec.costs.kv_bits * length, _device_capacity_bits(hw)
    return (*head, length, costs.kv_bits / 8 * length, kv_bits, flops,
            hw.peak_for(spec.weight_bits) / flops * hw.num_devices, verdict,
            _feasible_batch(costs.weight_bits, kv_bits, cap_dev, hw.num_devices, replicate_weights),
            _b_max(costs.weight_bits, kv_bits, cap_dev), *totals)


def _block(spec: ModelSpec, hw: HardwareSpec, ridge: float, phase: Phase, batch: int,
           columns: Sequence[tuple], include_activations: bool,
           replicate_weights: bool) -> List[SweepRow]:
    """The SweepRow at batch B in each _column, the only place one is made, with no other
    call a row: _metrics's formula, README rules 1-4 (their one statement) and
    _device_count, inline. A column's verdict, (bound_class, rate, mfu, mbu), is taken at
    B_max(L) (_point) or the grid's least batch (iter_grid); OI never falls as B grows."""
    costs, exceeded, limited = spec.costs, BoundClass.CAPACITY_EXCEEDED, BoundClass.CAPACITY_LIMITED
    w8, kv, act, bandwidth, num_devices = (costs.weight_bits / 8, costs.kv_bits / 8,
                                           costs.act_bytes, hw.mem_bandwidth, hw.num_devices)
    per_batch, cap_dev, prefill, rows = (w8 / batch, _device_capacity_bits(hw),
                                         phase is Phase.PREFILL, [])
    for (kind, workload, turn, length, kv_length, kv_bits, flops, compute_rate, verdict, feasible,
         per_device, prefill_total, decode_total) in columns:
        nbytes = w8 / (batch * length) + kv if prefill else per_batch + kv_length + kv
        if include_activations:
            nbytes += act
        oi = flops / nbytes
        if verdict[0] is exceeded:  # no attainable rate, mfu or mbu
            bound, rate, mfu, mbu = verdict
        elif oi >= ridge:
            bound, rate, mfu, mbu = BoundClass.COMPUTE_BOUND, compute_rate, 1.0, ridge / oi
        elif verdict[0] is limited:  # the best reachable rate, mfu and mbu
            bound, rate, mfu, mbu = verdict
        else:
            bound, rate, mfu, mbu = (BoundClass.BANDWIDTH_BOUND,
                                     oi * bandwidth / flops * num_devices, oi / ridge, 1.0)
        devices = ((-(-batch // per_device) if per_device >= 1 else 0) if replicate_weights
                   else -(-(costs.weight_bits + batch * kv_bits) // cap_dev))
        rows.append(SweepRow(kind, workload, turn, phase, batch, length, oi, kv_length + per_batch,
                             flops, nbytes, bound, rate, mfu, mbu, feasible, devices,
                             prefill_total, decode_total))
    return rows


def _point(spec: ModelSpec, hw: HardwareSpec, ridge: float, phase: Phase, length: int,
           include_activations: bool, replicate_weights: bool, *head_and_totals: tuple) -> tuple:
    """The _column of (phase, L), its verdict taken at B_max(L) with _metrics: one per
    classify call and per workload row. ridge is ridge_point(hw, spec.weight_bits), read
    once by the caller; nothing is validated here."""
    costs = spec.costs
    flops = float(costs.token_flops(phase, length))
    if (best := _b_max(costs.weight_bits, costs.kv_bits * length, _device_capacity_bits(hw))) < 1:
        verdict = (BoundClass.CAPACITY_EXCEEDED, 0.0, 0.0, 0.0)
    else:
        best_oi = _metrics(costs, phase, length, best, include_activations, flops)[0]
        verdict = (BoundClass.BANDWIDTH_BOUND if best_oi >= ridge else BoundClass.CAPACITY_LIMITED,
                   best_oi * hw.mem_bandwidth / flops * hw.num_devices, best_oi / ridge, 1.0)
    return _column(spec, hw, length, flops, verdict, replicate_weights, *head_and_totals)


def classify(spec: ModelSpec, hw: HardwareSpec, point: OperatingPoint,
             include_activations: bool = False, replicate_weights: bool = False) -> PhaseAnalysis:
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
    comes from the same formula as the point's. _block makes the point's row.
    """
    ridge, flags = ridge_point(hw, spec.weight_bits), (include_activations, replicate_weights)
    row = _block(spec, hw, ridge, point.phase, point.batch_size,
                 [_point(spec, hw, ridge, point.phase, point.context_len, *flags)], *flags)[0]
    return PhaseAnalysis(PhaseMetrics(*row[6:10]), *row[10:16])


class SweepRow(NamedTuple):
    """A sweep point or workload total: the sweep CSV's columns, in CSV order."""

    row_kind: str  # "point" or "workload_total"
    workload: str  # "" on grid rows
    turn_index: Optional[int]  # None on grid rows and totals
    phase: Phase
    batch_size: int
    context_len: int
    oi: float
    cf_bytes: float
    flops_per_token: float
    bytes_per_token: float
    bound_class: BoundClass
    attainable_tokens_per_s: float
    mfu_est: float
    mbu_est: float
    max_feasible_batch: int
    min_devices: int
    prefill_total_tokens: Optional[int]  # set on workload_total rows only
    decode_total_tokens: Optional[int]


@dataclass(frozen=True)
class SweepResult:
    """A held sweep: the model and hardware names and its rows, in CSV order."""

    model: str
    hardware: str
    rows: Tuple[SweepRow, ...]


# The most rows in a block of iter_grid, or of _workload_rows (half as many turns). Traced heap
# of a warm 128k-row grid pass (1,000 L values): 1.00 MB, against 1.37 uncut, 1.13 at 512 and 1.04
# at 128; RSS of a 100,000-turn workload sweep: 16.2 MB, against 18.6 at 1,024 turns (3.11).
_BLOCK_ROWS = 256


def iter_grid(spec: ModelSpec, hw: HardwareSpec, batch_sizes: Sequence[int],
              context_lens: Sequence[int], phases: Iterable[Phase] = (Phase.PREFILL, Phase.DECODE),
              include_activations: bool = False,
              replicate_weights: bool = False) -> Iterator[List[SweepRow]]:
    """One SweepRow per (phase, batch, context) grid point, in phase ->
    batch -> context order, its metrics and verdict equal to classify's at
    that point, made a block at a time: per (phase, batch), lists of at most
    _BLOCK_ROWS rows, a row per L.

    classify runs once per (phase, L) column, at the smallest batch: whether
    one request fits and whether some per-device-feasible batch reaches the
    ridge depend on L alone, and OI never falls as the batch grows (weight
    bytes per token are W/B + c). _block holds the rows' arithmetic: each
    block is made by its one loop, from the column heads' verdicts. Its rows
    are pinned, bit for bit, to classify and so to metrics._metrics.
    """
    if not batch_sizes or not context_lens:
        raise ValueError("sweep grid must be non-empty")
    wanted = set(phases)
    batches, lengths = sorted(set(batch_sizes)), sorted(set(context_lens))
    ridge = ridge_point(hw, spec.weight_bits)
    for phase in (phase for phase in Phase if phase in wanted):
        columns = []
        for length in lengths:
            head = classify(spec, hw, OperatingPoint(length, batches[0], phase),
                            include_activations, replicate_weights)
            columns.append(_column(spec, hw, length, head.metrics.flops_per_token, head[1:5],
                                   replicate_weights))
        chunks = [columns[first:first + _BLOCK_ROWS]
                  for first in range(0, len(columns), _BLOCK_ROWS)]
        for batch in batches:
            for chunk in chunks:
                yield _block(spec, hw, ridge, phase, batch, chunk, include_activations,
                             replicate_weights)


def sweep_grid(spec: ModelSpec, hw: HardwareSpec, batch_sizes: Sequence[int],
               context_lens: Sequence[int], phases: Iterable[Phase] = (Phase.PREFILL, Phase.DECODE),
               include_activations: bool = False,
               replicate_weights: bool = False) -> SweepResult:
    """iter_grid's rows, held in one SweepResult."""
    blocks = iter_grid(spec, hw, batch_sizes, context_lens, phases, include_activations,
                       replicate_weights)
    return SweepResult(model=spec.name, hardware=hw.name, rows=tuple(chain.from_iterable(blocks)))


def grid_bounds(spec: ModelSpec, hw: HardwareSpec, batch_sizes: Sequence[int],
                context_lens: Sequence[int], phases: Iterable[Phase],
                include_activations: bool) -> Tuple[float, float, bool]:
    """The least and greatest OI of iter_grid's rows, and whether one is
    capacity_exceeded, in closed form. OI never falls as the batch grows, and
    IEEE division and addition keep that order, so the least OI is at the
    smallest batch and the greatest at the largest, bit for bit. Whether a
    request fits depends on L alone, and the longest L fits least."""
    costs, ends = spec.costs, {min(batch_sizes), max(batch_sizes)}
    ois = [_metrics(costs, phase, length, batch, include_activations)[0]
           for phase in set(phases) for length in context_lens for batch in ends]
    exceeded = _b_max(costs.weight_bits, costs.kv_bits * max(context_lens),
                           _device_capacity_bits(hw)) < 1
    return min(ois), max(ois), exceeded


def _workload_rows(spec: ModelSpec, hw: HardwareSpec, workload: WorkloadSpec,
                   turns: Sequence[int], *flags: bool) -> Iterator[List[SweepRow]]:
    """The point rows of the given turns, a block per _BLOCK_ROWS // 2: a _block per phase with
    tokens, interleaved by turn. Then a block of a workload_total row per phase at the final
    context. Each column is _point's, from the trace's closed form; the ridge is read once."""
    prefill, decode = workload.prefill_tokens_per_turn, workload.decode_tokens_per_turn
    if (final := _context(workload, workload.turns - 1) + prefill + decode) < 1:
        raise ValueError(f"workload '{workload.name}' expands to zero tokens")
    batch, ridge, name = workload.batch_size, ridge_point(hw, spec.weight_bits), workload.name
    ends = [(phase, end) for phase, tokens, end in zip(Phase, (prefill, decode),
                                                       (prefill, prefill + decode)) if tokens]
    for first in range(0, len(turns), _BLOCK_ROWS // 2):
        chunk = list(turns[first:first + _BLOCK_ROWS // 2])  # one int a turn, shared by its rows
        blocks = [_block(spec, hw, ridge, phase, batch, [_point(
            spec, hw, ridge, phase, _context(workload, turn) + end, *flags, ("point", name, turn))
            for turn in chunk], *flags) for phase, end in ends]
        yield [row for rows in zip(*blocks) for row in rows]
    totals = (workload.turns * prefill, workload.turns * decode)
    yield [row for phase in Phase for row in _block(spec, hw, ridge, phase, batch, [
        _point(spec, hw, ridge, phase, final, *flags, ("workload_total", name, None), totals)],
        *flags)]


def sweep_workload(spec: ModelSpec, hw: HardwareSpec, workload: WorkloadSpec,
                   include_activations: bool = False,
                   replicate_weights: bool = False) -> SweepResult:
    """Per-turn prefill/decode points for an agent workload, plus one
    aggregate row per phase at the final context with the token totals."""
    blocks = _workload_rows(spec, hw, workload, range(workload.turns), include_activations,
                            replicate_weights)
    return SweepResult(model=spec.name, hardware=hw.name, rows=tuple(chain.from_iterable(blocks)))
