"""Operational intensity (OI) and capacity footprint (CF) per phase.

OI is FLOPs per byte moved from DRAM; CF is DRAM bytes held per request
(weights amortized over the batch, plus the request's KV cache).
Activations are treated as on-chip and excluded from both by default; the
generic-matmul helper oi_matmul keeps the output write-back in its
denominator, so both conventions are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .model import ModelCosts, ModelSpec, Phase


@dataclass(frozen=True)
class OperatingPoint:
    context_len: int
    batch_size: int
    phase: Phase

    def __post_init__(self):
        if self.context_len < 1:
            raise ValueError(f"context_len must be >= 1, got {self.context_len}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


class PhaseMetrics(NamedTuple):
    oi: float  # FLOPs per DRAM byte
    cf: float  # DRAM bytes per request
    flops_per_token: float
    bytes_per_token: float


def oi_matmul(m: int, d: int, length: int) -> float:
    """Operations per element transferred for Y = W @ X with W (m x d) and
    X (d x length), counting loads of W and X and the write of Y:
    2*m*d*length / (m*d + d*length + m*length).

    Integer inputs stay exact until the final division, so the m <-> length
    symmetry of the formula holds bit-for-bit.
    """
    if m < 1 or d < 1 or length < 1:
        raise ValueError(f"matmul dims must be >= 1, got m={m} d={d} length={length}")
    return (2 * m * d * length) / (m * d + d * length + m * length)


def oi_matmul_bytes(m: int, d: int, length: int, element_bits: int) -> float:
    """oi_matmul scaled to operations per byte at the given element width."""
    return oi_matmul(m, d, length) / (element_bits / 8)


def _metrics(costs: ModelCosts, phase: Phase, length: int, batch: int,
             include_activations: bool,
             flops: Optional[float] = None) -> Tuple[float, float, float, float]:
    """(oi, cf, flops_per_token, bytes_per_token) at context length L and
    batch B, from the spec's costs. The one formula behind cf_request, the
    three *_metrics functions and analysis.classify and sweep_grid, which
    read a point and its largest per-device batch from it; arguments are not
    validated here. flops is float(costs.token_flops(phase, L)); a caller
    that evaluates one L at many batches passes it, read once per L."""
    if flops is None:
        flops = float(costs.token_flops(phase, length))
    kv = costs.kv_bits / 8
    if phase is Phase.PREFILL:
        bytes_per_tok = costs.weight_bits / 8 / (batch * length) + kv
    else:
        bytes_per_tok = costs.weight_bits / 8 / batch + kv * length + kv
    if include_activations:
        bytes_per_tok += costs.act_bytes
    cf = kv * length + costs.weight_bits / 8 / batch
    return flops / bytes_per_tok, cf, flops, bytes_per_tok


def cf_request(spec: ModelSpec, point: OperatingPoint) -> float:
    """Per-request DRAM bytes: KV cache for the full context plus the weight
    bytes amortized over the batch."""
    return _metrics(spec.costs, point.phase, point.context_len, point.batch_size, False)[1]


def decode_metrics(
    spec: ModelSpec, point: OperatingPoint, include_activations: bool = False
) -> PhaseMetrics:
    """Per-token metrics while generating at context length L.

    Bytes move the whole weight set (amortized over the batch), read the
    request's cached KV, and write the new token's KV entry. The KV write is
    negligible but included for exactness. include_activations adds the
    ModelCosts.act_bytes sensitivity term to either phase (by default
    activations are assumed to stay in on-chip SRAM).
    """
    if point.phase is not Phase.DECODE:
        raise ValueError(f"decode_metrics requires a DECODE point, got {point.phase}")
    return PhaseMetrics(*_metrics(spec.costs, Phase.DECODE, point.context_len,
                                  point.batch_size, include_activations))


def prefill_metrics(
    spec: ModelSpec, point: OperatingPoint, include_activations: bool = False
) -> PhaseMetrics:
    """Per-token metrics while ingesting a prompt of length L.

    Weights amortize over every prompt token in the batch (B * L); each token
    writes its KV entry; the attention-score FLOPs integrate over positions
    1..L, giving 2 * layers * heads * head_dim * (L + 1) per token on average.
    """
    if point.phase is not Phase.PREFILL:
        raise ValueError(f"prefill_metrics requires a PREFILL point, got {point.phase}")
    return PhaseMetrics(*_metrics(spec.costs, Phase.PREFILL, point.context_len,
                                  point.batch_size, include_activations))


def phase_metrics(
    spec: ModelSpec, point: OperatingPoint, include_activations: bool = False
) -> PhaseMetrics:
    return PhaseMetrics(*_metrics(spec.costs, point.phase, point.context_len,
                                  point.batch_size, include_activations))
