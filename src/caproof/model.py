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
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

VALID_ELEMENT_BITS = (2, 4, 8, 16, 32)
_RULE_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _bound(name: str, value, rule: str) -> None:
    """ValueError unless value keeps rule, e.g. ">= 1 byte"; NaN and +-inf never do."""
    op, limit = rule.split()[:2]
    if not (_RULE_OPS[op](value, float(limit)) and abs(value) != math.inf):
        raise ValueError(f"{name} must be {rule}, got {value}")


def _text(name: str, value: str) -> None:
    """ValueError if value holds a lone surrogate, which UTF-8 cannot encode."""
    if any("\ud800" <= char <= "\udfff" for char in value):
        raise ValueError(f"{name} must be text UTF-8 can encode, got a lone surrogate")


class Phase(enum.Enum):
    PREFILL = "prefill"
    DECODE = "decode"
    __hash__ = object.__hash__  # members are singletons: hashed in C, by identity


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
        _bound("num_kv_heads", self.num_kv_heads, ">= 1")


@dataclass(frozen=True)
class MLA:
    """Latent attention: K/V compressed into a shared per-token latent vector
    of width d_latent, plus an optional decoupled positional component d_rope."""

    d_latent: int
    d_rope: int = 0
    kind = "mla"

    def __post_init__(self):
        _bound("d_latent", self.d_latent, "> 0")
        _bound("d_rope", self.d_rope, ">= 0")


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
        _bound("num_experts", self.num_experts, ">= 1")
        _bound("top_k", self.top_k, ">= 1")
        if self.top_k > self.num_experts:
            raise ValueError(
                f"top_k ({self.top_k}) must not exceed num_experts ({self.num_experts})"
            )
        _bound("d_ff_expert", self.d_ff_expert, "> 0")
        _bound("num_shared_experts", self.num_shared_experts, ">= 0")


@dataclass(frozen=True)
class ModelSpec:
    """Full architectural descriptor from which all counts derive.

    head_dim defaults to d_model // num_heads, which are checked > 0 first.
    num_heads * head_dim need not equal d_model; all three need only be > 0.
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
        _text("name", self.name)
        for field_name in ("num_layers", "d_model", "num_heads", "d_ff"):
            _bound(field_name, getattr(self, field_name), "> 0")
        if self.head_dim is None:
            if self.d_model % self.num_heads != 0:
                raise ValueError(
                    "head_dim omitted but d_model is not divisible by num_heads "
                    f"({self.d_model} / {self.num_heads})"
                )
            object.__setattr__(self, "head_dim", self.d_model // self.num_heads)
        _bound("head_dim", self.head_dim, "> 0")
        _bound("vocab_size", self.vocab_size, ">= 0")
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
        return ModelCosts(
            weight_bits=total_params(self) * self.weight_bits,
            matmul_weights=activated_params(self) - embedding_params(self),
            kv_bits=self.num_layers * _kv_width(self) * self.kv_bits,
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


def _kv_width(spec: ModelSpec) -> int:
    """Cached elements per token per layer: K and V per head for MHA, per KV
    head for GQA, one latent (+rope) vector for MLA."""
    attention = spec.attention
    if isinstance(attention, MLA):
        return attention.d_latent + attention.d_rope
    kv_heads = attention.num_kv_heads if isinstance(attention, GQA) else spec.num_heads
    return 2 * kv_heads * spec.head_dim


def _params(spec: ModelSpec, experts: int) -> int:
    """Weights with `experts` routed experts per MoE layer: the embedding and
    the untied output head, plus per layer the query and output projections,
    the K/V projections (d_model x the cached K/V width; for MLA the joint
    down-projection, its per-head up-projections folded into query/output) and
    the FFN, or the routed and shared experts plus the router. A gated FFN or
    expert has gate/up/down matrices, a plain one up/down."""
    q_out = spec.num_heads * spec.head_dim
    ffn = (3 if spec.ffn_gated else 2) * spec.d_model
    per_layer = 2 * spec.d_model * q_out + spec.d_model * _kv_width(spec)
    moe = spec.moe
    if moe is None:
        per_layer += ffn * spec.d_ff
    else:
        counted = experts + moe.num_shared_experts
        per_layer += counted * ffn * moe.d_ff_expert + spec.d_model * moe.num_experts
    return 2 * embedding_params(spec) + spec.num_layers * per_layer


def embedding_params(spec: ModelSpec) -> int:
    return spec.vocab_size * spec.d_model


def total_params(spec: ModelSpec) -> int:
    """All weights: every routed expert of an MoE layer counts."""
    return _params(spec, spec.moe.num_experts if spec.moe else 0)


def activated_params(spec: ModelSpec) -> int:
    """Weights touched per token: top_k + shared experts for MoE, else all."""
    return _params(spec, spec.moe.top_k if spec.moe else 0)


def weight_bytes(spec: ModelSpec) -> float:
    return spec.costs.weight_bits / 8


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
    _bound("context_len", context_len, ">= 1")
    return spec.costs.token_flops(Phase.DECODE, context_len)
