"""Model architecture descriptors and closed-form parameter/FLOP/byte accounting.

Conventions used throughout:
- 2 FLOPs per multiply-accumulate; softmax, normalization, and activation
  functions are excluded (sub-1% for realistic shapes).
- Embedding lookups count toward weight bytes but not FLOPs (not matmuls).
- Parameter and FLOP counts are exact integers; byte values are produced by
  a single final division by 8.

The per-spec constants that every operating point needs (weight bits,
matmul weights, KV bits per token, the attention-score factor and the
activation byte term) are derived once per ModelSpec, on first use of
ModelSpec.costs, and cached on the instance; the public accessors below read
them from there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

VALID_ELEMENT_BITS = (2, 4, 8, 16, 32)


class Phase(enum.Enum):
    PREFILL = "prefill"
    DECODE = "decode"


@dataclass(frozen=True)
class MHA:
    """Full multi-head attention: every head caches its own K and V."""

    kind = "mha"


@dataclass(frozen=True)
class GQA:
    """Grouped-query attention: query heads share num_kv_heads K/V heads."""

    num_kv_heads: int
    kind = "gqa"

    def __post_init__(self):
        if self.num_kv_heads < 1:
            raise ValueError(f"num_kv_heads must be >= 1, got {self.num_kv_heads}")


@dataclass(frozen=True)
class MLA:
    """Latent attention: K/V compressed into a shared per-token latent vector
    of width d_latent, plus an optional decoupled positional component d_rope."""

    d_latent: int
    d_rope: int = 0
    kind = "mla"

    def __post_init__(self):
        if self.d_latent <= 0:
            raise ValueError(f"d_latent must be > 0, got {self.d_latent}")
        if self.d_rope < 0:
            raise ValueError(f"d_rope must be >= 0, got {self.d_rope}")


AttentionKind = Union[MHA, GQA, MLA]


@dataclass(frozen=True)
class MoESpec:
    """Mixture-of-experts FFN configuration.

    Each layer holds num_experts routed experts plus num_shared_experts
    always-active ones, all with inner dimension d_ff_expert; a token
    activates top_k routed experts.
    """

    num_experts: int
    top_k: int
    d_ff_expert: int
    num_shared_experts: int = 0

    def __post_init__(self):
        if self.num_experts < 1:
            raise ValueError(f"num_experts must be >= 1, got {self.num_experts}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.top_k > self.num_experts:
            raise ValueError(
                f"top_k ({self.top_k}) must not exceed num_experts ({self.num_experts})"
            )
        if self.num_shared_experts < 0:
            raise ValueError(
                f"num_shared_experts must be >= 0, got {self.num_shared_experts}"
            )
        if self.d_ff_expert <= 0:
            raise ValueError(f"d_ff_expert must be > 0, got {self.d_ff_expert}")


@dataclass(frozen=True)
class ModelSpec:
    """Full architectural descriptor from which all counts derive.

    head_dim defaults to d_model // num_heads. num_heads * head_dim is not
    forced to equal d_model (all three only need to be positive).
    """

    name: str
    num_layers: int
    d_model: int
    num_heads: int
    d_ff: int
    head_dim: Optional[int] = None
    attention: AttentionKind = MHA()
    ffn_gated: bool = True
    moe: Optional[MoESpec] = None
    vocab_size: int = 0
    weight_bits: int = 16
    kv_bits: int = 16

    def __post_init__(self):
        if self.head_dim is None:
            if self.d_model % self.num_heads != 0:
                raise ValueError(
                    "head_dim omitted but d_model is not divisible by num_heads "
                    f"({self.d_model} / {self.num_heads})"
                )
            object.__setattr__(self, "head_dim", self.d_model // self.num_heads)
        for field_name in ("num_layers", "d_model", "num_heads", "head_dim", "d_ff"):
            value = getattr(self, field_name)
            if value <= 0:
                raise ValueError(f"{field_name} must be > 0, got {value}")
        if self.vocab_size < 0:
            raise ValueError(f"vocab_size must be >= 0, got {self.vocab_size}")
        for field_name in ("weight_bits", "kv_bits"):
            value = getattr(self, field_name)
            if value not in VALID_ELEMENT_BITS:
                raise ValueError(
                    f"{field_name} must be one of {VALID_ELEMENT_BITS}, got {value}"
                )
        if isinstance(self.attention, GQA):
            if self.attention.num_kv_heads > self.num_heads:
                raise ValueError(
                    f"num_kv_heads ({self.attention.num_kv_heads}) must not exceed "
                    f"num_heads ({self.num_heads})"
                )
            if self.num_heads % self.attention.num_kv_heads != 0:
                raise ValueError(
                    f"num_heads ({self.num_heads}) must be divisible by "
                    f"num_kv_heads ({self.attention.num_kv_heads})"
                )

    @cached_property
    def costs(self) -> ModelCosts:
        """The spec's derived constants, computed on first use. Not a field:
        eq, hash and repr ignore it, and dataclasses.replace gives the new
        spec its own."""
        if isinstance(self.attention, MLA):
            kv_width = self.attention.d_latent + self.attention.d_rope
        else:
            kv_heads = (self.attention.num_kv_heads if isinstance(self.attention, GQA)
                        else self.num_heads)
            kv_width = 2 * kv_heads * self.head_dim
        return ModelCosts(
            weight_bits=total_params(self) * self.weight_bits,
            matmul_weights=activated_params(self) - embedding_params(self),
            kv_bits=self.num_layers * kv_width * self.kv_bits,
            attn=self.num_layers * self.num_heads * self.head_dim,
            act_bytes=2 * self.num_layers * self.d_model * self.weight_bits / 8,
        )


class ModelCosts(NamedTuple):
    """Per-spec constants of the closed-form accounting. A NamedTuple rather
    than a frozen dataclass: both are immutable, and the tuple is several
    times cheaper to define at import.

    weight_bits: all weights at weight precision (total_params * weight_bits).
    matmul_weights: weights multiplied per token (activated minus embedding).
    kv_bits: cached bits per token across all layers.
    attn: layers * heads * head_dim, the attention-score FLOP factor.
    act_bytes: one read + one write of the hidden state per layer at weight
        precision, the optional activation byte term.
    """

    weight_bits: int
    matmul_weights: int
    kv_bits: int
    attn: int
    act_bytes: float

    def token_flops(self, phase: Phase, length: int) -> int:
        """Matmul FLOPs per token at context length L, the one statement of
        the FLOP formula: 2 * matmul_weights plus the attention-score term,
        4 * attn * L for a DECODE token at cache length L and its mean over
        positions 1..L, 2 * attn * (L + 1), for a PREFILL token."""
        if phase is Phase.PREFILL:
            return 2 * self.matmul_weights + 2 * self.attn * (length + 1)
        return 2 * self.matmul_weights + 4 * self.attn * length


def _ffn_matrix_count(spec: ModelSpec) -> int:
    # Gated FFN uses gate/up/down; plain FFN only up/down.
    return 3 if spec.ffn_gated else 2


def _attn_params_per_layer(spec: ModelSpec) -> int:
    q_out = spec.num_heads * spec.head_dim
    attn = spec.d_model * q_out + q_out * spec.d_model  # query + output projections
    if isinstance(spec.attention, MLA):
        # The compressed K/V path is a single joint down-projection; per-head
        # up-projections are folded into the query/output terms above.
        attn += spec.d_model * (spec.attention.d_latent + spec.attention.d_rope)
    elif isinstance(spec.attention, GQA):
        attn += 2 * spec.d_model * spec.attention.num_kv_heads * spec.head_dim
    else:
        attn += 2 * spec.d_model * q_out
    return attn


def _ffn_params_per_layer(spec: ModelSpec, activated_only: bool) -> int:
    if spec.moe is None:
        return _ffn_matrix_count(spec) * spec.d_model * spec.d_ff
    moe = spec.moe
    per_expert = _ffn_matrix_count(spec) * spec.d_model * moe.d_ff_expert
    experts = moe.top_k if activated_only else moe.num_experts
    router = spec.d_model * moe.num_experts
    return (experts + moe.num_shared_experts) * per_expert + router


def embedding_params(spec: ModelSpec) -> int:
    return spec.vocab_size * spec.d_model


def total_params(spec: ModelSpec) -> int:
    """All weights: embedding + per-layer attention + FFN/MoE + output head."""
    per_layer = _attn_params_per_layer(spec) + _ffn_params_per_layer(spec, False)
    head = spec.d_model * spec.vocab_size
    return embedding_params(spec) + spec.num_layers * per_layer + head


def activated_params(spec: ModelSpec) -> int:
    """Weights touched per token: top_k + shared experts for MoE, else all."""
    per_layer = _attn_params_per_layer(spec) + _ffn_params_per_layer(spec, True)
    head = spec.d_model * spec.vocab_size
    return embedding_params(spec) + spec.num_layers * per_layer + head


def weight_bytes(spec: ModelSpec) -> float:
    return spec.costs.weight_bits / 8


def kv_bits_per_token(spec: ModelSpec) -> int:
    """Cached bits per token across all layers.

    MHA stores K and V per head, GQA per KV head; MLA stores one latent
    (+rope) vector per token regardless of head count.
    """
    return spec.costs.kv_bits


def kv_bytes_per_token(spec: ModelSpec) -> float:
    return spec.costs.kv_bits / 8


def flops_per_token(spec: ModelSpec, phase: Phase, context_len: int) -> int:
    """Matmul FLOPs to process one token at the given context length.

    2 * activated matmul weights (embedding lookup excluded, output head and
    MoE router included) plus the attention-score term 4 * layers * heads *
    head_dim * context_len for scores and the attention-weighted value sum.
    For PREFILL this is the cost of the token at its own running context;
    callers integrate over positions. For DECODE context_len is the current
    cache length.
    """
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    return spec.costs.token_flops(Phase.DECODE, context_len)
