"""Every single-value input bound of the spec constructors, OperatingPoint and
the three bounded free functions, one row each.

Each row builds the object with one value changed and gives the value the
bound admits last, the value it rejects first and the exact ValueError text
for that value. The same rows are checked again with NaN, inf and -inf,
which every bound rejects with the same text ending in the value."""

import math

import pytest

from caproof.analysis import classify, max_feasible_batch
from caproof.hardware import HardwareSpec, attainable_flops
from caproof.metrics import OperatingPoint
from caproof.model import GQA, MLA, MoESpec, ModelSpec, Phase, flops_per_token
from caproof.workload import MAX_TURNS, WorkloadSpec


def model(**overrides):
    fields = dict(name="m", num_layers=2, d_model=64, num_heads=4, d_ff=128, head_dim=16)
    return ModelSpec(**{**fields, **overrides})


def moe(**overrides):
    return MoESpec(**{**dict(num_experts=4, top_k=2, d_ff_expert=32), **overrides})


def hardware(**overrides):
    fields = dict(name="h", peak_flops={16: 1e15}, mem_bandwidth=1e12, mem_capacity=1e11)
    return HardwareSpec(**{**fields, **overrides})


def workload(**overrides):
    fields = dict(name="w", turns=2, prefill_tokens_per_turn=10, decode_tokens_per_turn=5)
    return WorkloadSpec(**{**fields, **overrides})


# (build(value), last accepted value, first rejected value, its exact message);
# one row per bounded field, each its lower bound
ROWS = [
    (lambda v: GQA(v), 1, 0, "num_kv_heads must be >= 1, got 0"),
    (lambda v: MLA(v), 1, 0, "d_latent must be > 0, got 0"),
    (lambda v: MLA(8, v), 0, -1, "d_rope must be >= 0, got -1"),
    (lambda v: moe(num_experts=v, top_k=1), 1, 0, "num_experts must be >= 1, got 0"),
    (lambda v: moe(top_k=v), 1, 0, "top_k must be >= 1, got 0"),
    (lambda v: moe(num_shared_experts=v), 0, -1, "num_shared_experts must be >= 0, got -1"),
    (lambda v: moe(d_ff_expert=v), 1, 0, "d_ff_expert must be > 0, got 0"),
    (lambda v: model(num_layers=v), 1, 0, "num_layers must be > 0, got 0"),
    (lambda v: model(d_model=v), 1, 0, "d_model must be > 0, got 0"),
    (lambda v: model(num_heads=v), 1, 0, "num_heads must be > 0, got 0"),
    (lambda v: model(head_dim=v), 1, 0, "head_dim must be > 0, got 0"),
    (lambda v: model(d_ff=v), 1, 0, "d_ff must be > 0, got 0"),
    (lambda v: model(vocab_size=v), 0, -1, "vocab_size must be >= 0, got -1"),
    (lambda v: hardware(peak_flops={8: 2e15, 16: v}), 1e-100, math.nextafter(1e-100, 0.0),
     "peak_flops[16] must be >= 1e-100, got 9.999999999999999e-101"),
    (lambda v: hardware(mem_bandwidth=v), 1e-100, math.nextafter(1e-100, 0.0),
     "mem_bandwidth must be >= 1e-100, got 9.999999999999999e-101"),
    (lambda v: hardware(mem_capacity=v), 1.0, math.nextafter(1.0, 0.0),
     "mem_capacity must be >= 1 byte, got 0.9999999999999999"),
    (lambda v: hardware(num_devices=v), 1, 0, "num_devices must be >= 1, got 0"),
    (lambda v: workload(turns=v), 1, 0, "turns must be >= 1, got 0"),
    (lambda v: workload(prefill_tokens_per_turn=v), 0, -1,
     "prefill_tokens_per_turn must be >= 0, got -1"),
    (lambda v: workload(decode_tokens_per_turn=v), 0, -1,
     "decode_tokens_per_turn must be >= 0, got -1"),
    (lambda v: workload(batch_size=v), 1, 0, "batch_size must be >= 1, got 0"),
    (lambda v: OperatingPoint(v, 1, Phase.DECODE), 1, 0, "context_len must be >= 1, got 0"),
    (lambda v: OperatingPoint(1, v, Phase.DECODE), 1, 0, "batch_size must be >= 1, got 0"),
    (lambda v: flops_per_token(model(), Phase.DECODE, v), 1, 0,
     "context_len must be >= 1, got 0"),
    (lambda v: max_feasible_batch(model(), hardware(), v), 1, 0,
     "context_len must be >= 1, got 0"),
    (lambda v: attainable_flops(hardware(), 16, v), 5e-324, 0.0, "oi must be > 0, got 0.0"),
]
# The turns cap; NaN and inf meet the field's lower bound first.
TURNS_CAP = (lambda v: workload(turns=v), MAX_TURNS, MAX_TURNS + 1,
             f"turns must be <= {MAX_TURNS}, got {MAX_TURNS + 1}")
# The rate caps, under which every ridge is a float; NaN and inf meet the
# rate's lower bound first.
ABOVE = math.nextafter(1e100, math.inf)
RATE_ROWS = [
    (lambda v: hardware(peak_flops={8: 2e15, 16: v}), 1e100, ABOVE,
     "peak_flops[16] must be <= 1e100, got 1.0000000000000002e+100"),
    (lambda v: hardware(mem_bandwidth=v), 1e100, ABOVE,
     "mem_bandwidth must be <= 1e100, got 1.0000000000000002e+100"),
]
IDS = [f"{i}-" + message.split(" must ")[0] for i, (*_, message) in enumerate(ROWS)]
RATE_IDS = [f"ridge-{message.split()[0]}-{message.split()[3]}" for *_, message in RATE_ROWS]
# The capacity cap, under which the largest per-device batch is a float; NaN
# and inf meet the field's lower bound first.
CAPACITY_CAP = (lambda v: hardware(mem_capacity=v), 1e100, ABOVE,
                "mem_capacity must be <= 1e100, got 1.0000000000000002e+100")


@pytest.mark.parametrize("build, accepted, rejected, message",
                         ROWS + [TURNS_CAP] + RATE_ROWS + [CAPACITY_CAP],
                         ids=IDS + ["turns-cap"] + RATE_IDS + ["capacity-cap"])
def test_first_rejected_value_has_the_frozen_message(build, accepted, rejected, message):
    build(accepted)
    with pytest.raises(ValueError) as exc:
        build(rejected)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("build, accepted, rejected, message", ROWS, ids=IDS)
def test_non_finite_value_is_rejected_with_the_same_rule(build, accepted, rejected, message,
                                                         value):
    with pytest.raises(ValueError) as exc:
        build(value)
    assert str(exc.value) == message.rsplit(", got ", 1)[0] + f", got {value}"


def test_huge_integer_is_compared_exactly_not_converted_to_float():
    assert model(num_layers=10**400).num_layers == 10**400


def test_zero_heads_without_head_dim_is_a_bound_error():
    with pytest.raises(ValueError, match=r"^num_heads must be > 0, got 0$"):
        model(num_heads=0, head_dim=None)


@pytest.mark.parametrize("field", ["mem_capacity", "mem_bandwidth"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_classify_never_meets_a_non_finite_hardware_number(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        hw = hardware(**{field: value})
        classify(model(), hw, OperatingPoint(4096, 1, Phase.DECODE))
