import dataclasses
import random

import pytest

from caproof.config import parse_config, spec_to_dict
from caproof.model import (
    GQA,
    MHA,
    MLA,
    MoESpec,
    ModelSpec,
    Phase,
    activated_params,
    embedding_params,
    flops_per_token,
    kv_bytes_per_token,
    total_params,
    weight_bytes,
)
from oracles import (
    flops_per_token_oracle,
    kv_bytes_per_token_oracle,
    params_oracle,
    random_model,
)


def ref48_spec(attention=MHA(), **overrides):
    fields = dict(
        name="ref48",
        num_layers=48,
        d_model=2048,
        num_heads=32,
        head_dim=64,
        d_ff=8192,
        ffn_gated=True,
        attention=attention,
        vocab_size=32000,
        weight_bits=16,
        kv_bits=16,
    )
    fields.update(overrides)
    return ModelSpec(**fields)


def toy_dense(**overrides):
    fields = dict(name="toy", num_layers=1, d_model=2, num_heads=1, head_dim=2,
                  d_ff=4, ffn_gated=False, vocab_size=0)
    fields.update(overrides)
    return ModelSpec(**fields)


class TestParamCounts:
    def test_single_layer_toy_hand_count(self):
        # attention 4 matrices of 2x2 = 16, ffn 2 matrices of 2x4 = 16
        assert total_params(toy_dense()) == 32

    def test_reference_config_against_enumeration(self):
        spec = ref48_spec()
        assert total_params(spec) == params_oracle(spec) == 3352297472

    def test_gqa_with_all_heads_equals_mha(self):
        spec_mha = ref48_spec()
        spec_gqa = ref48_spec(attention=GQA(num_kv_heads=32))
        assert total_params(spec_gqa) == total_params(spec_mha)
        assert kv_bytes_per_token(spec_gqa) == kv_bytes_per_token(spec_mha)

    def test_dense_activated_equals_total(self):
        spec = ref48_spec()
        assert activated_params(spec) == total_params(spec)

    def test_moe_expert_ratio(self):
        dense_width = 64
        base = dict(name="m", num_layers=2, d_model=16, num_heads=2, head_dim=8,
                    d_ff=dense_width, ffn_gated=False, vocab_size=0)
        moe = ModelSpec(**base, moe=MoESpec(num_experts=8, top_k=2, d_ff_expert=dense_width))
        # expert contribution activates exactly top_k / num_experts of the total
        router = 2 * 16 * 8
        attn = 2 * (16 * 16 * 4)
        total_expert = total_params(moe) - attn - router
        active_expert = activated_params(moe) - attn - router
        assert active_expert * 8 == total_expert * 2

    def test_moe_shared_expert_counting(self):
        spec = ModelSpec(name="ds-toy", num_layers=2, d_model=8, num_heads=2,
                         head_dim=4, d_ff=16, ffn_gated=True, vocab_size=0,
                         moe=MoESpec(num_experts=4, top_k=1, num_shared_experts=1, d_ff_expert=16))
        assert activated_params(spec) == params_oracle(spec, activated_only=True) == 2112
        assert total_params(spec) == params_oracle(spec) == 4416

    def test_moe_all_experts_active_boundary(self):
        spec = ModelSpec(name="full", num_layers=1, d_model=8, num_heads=2,
                         head_dim=4, d_ff=16, vocab_size=0,
                         moe=MoESpec(num_experts=4, top_k=4, d_ff_expert=8))
        assert activated_params(spec) == total_params(spec)

    def test_randomized_specs_match_enumeration(self):
        rng = random.Random(7)
        for _ in range(150):
            spec = random_model(rng)
            assert total_params(spec) == params_oracle(spec), spec
            assert activated_params(spec) == params_oracle(spec, True), spec
            assert activated_params(spec) <= total_params(spec)
            if spec.moe is None:
                assert activated_params(spec) == total_params(spec)
            elif spec.moe.top_k < spec.moe.num_experts:
                assert activated_params(spec) < total_params(spec)


class TestWeightBytes:
    def test_toy_at_16_bit(self):
        assert weight_bytes(toy_dense()) == 64.0  # 32 params * 2 bytes

    def test_halving_bits_halves_bytes(self):
        full = weight_bytes(ref48_spec(weight_bits=16))
        half = weight_bytes(ref48_spec(weight_bits=8))
        assert half * 2 == full

    def test_reference_config_value(self):
        assert weight_bytes(ref48_spec()) == 3352297472 * 2


class TestKvBytes:
    def test_mha_reference_value(self):
        # 2 * 48 layers * 32 heads * 64 dims * 2 bytes
        assert kv_bytes_per_token(ref48_spec()) == 393216.0

    def test_gqa_reference_value_and_ratio(self):
        gqa = ref48_spec(attention=GQA(num_kv_heads=8))
        assert kv_bytes_per_token(gqa) == 98304.0
        assert kv_bytes_per_token(ref48_spec()) == 4 * kv_bytes_per_token(gqa)

    def test_mla_reference_value(self):
        mla = ref48_spec(attention=MLA(d_latent=512, d_rope=64))
        assert kv_bytes_per_token(mla) == 48 * 576 * 2 == 55296.0

    def test_kv_independent_of_d_model(self):
        a = ref48_spec(d_model=2048)
        b = ref48_spec(d_model=4096)
        assert kv_bytes_per_token(a) == kv_bytes_per_token(b)

    def test_mla_independent_of_heads(self):
        a = ref48_spec(attention=MLA(512, 64), num_heads=32, head_dim=64)
        b = ref48_spec(attention=MLA(512, 64), num_heads=8, head_dim=64)
        assert kv_bytes_per_token(a) == kv_bytes_per_token(b)

    def test_linear_in_kv_bits(self):
        rng = random.Random(21)
        for _ in range(40):
            spec = random_model(rng)
            scaled = dataclasses.replace(spec, kv_bits=32)
            assert kv_bytes_per_token(scaled) == kv_bytes_per_token(spec) * 32 / spec.kv_bits

    def test_randomized_against_per_layer_summation(self):
        rng = random.Random(3)
        for _ in range(100):
            spec = random_model(rng)
            assert kv_bytes_per_token(spec) == kv_bytes_per_token_oracle(spec)

    def test_gqa_ratio_scales_with_kv_heads(self):
        mha = ref48_spec()
        for kv_heads in (1, 2, 4, 8, 16, 32):
            gqa = ref48_spec(attention=GQA(num_kv_heads=kv_heads))
            assert kv_bytes_per_token(gqa) == kv_bytes_per_token(mha) * kv_heads / 32


class TestFlopsPerToken:
    def test_context_one_hand_check(self):
        spec = toy_dense()
        # 2 * 32 activated matmul params + 4 * 1 layer * 1 head * 2 dims
        assert flops_per_token(spec, Phase.DECODE, 1) == 2 * 32 + 8

    def test_attention_term_linear_in_context(self):
        spec = ref48_spec()
        f1 = flops_per_token(spec, Phase.DECODE, 1000)
        f2 = flops_per_token(spec, Phase.DECODE, 2000)
        f3 = flops_per_token(spec, Phase.DECODE, 3000)
        assert f3 - f2 == f2 - f1  # affine in context
        attn_1k = f2 - f1
        assert attn_1k == 4 * 48 * 32 * 64 * 1000

    def test_toy_against_loop_oracle(self):
        spec = ModelSpec(name="t", num_layers=2, d_model=4, num_heads=2, head_dim=2,
                         d_ff=8, ffn_gated=False, vocab_size=0)
        assert flops_per_token(spec, Phase.DECODE, 5) == flops_per_token_oracle(spec, 5) == 672

    def test_rejects_zero_context(self):
        with pytest.raises(ValueError):
            flops_per_token(toy_dense(), Phase.DECODE, 0)

    def test_randomized_against_loop_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            spec = random_model(rng)
            ctx = rng.randint(1, 500)
            assert flops_per_token(spec, Phase.DECODE, ctx) == flops_per_token_oracle(spec, ctx)
            assert flops_per_token(spec, Phase.PREFILL, ctx) == flops_per_token_oracle(spec, ctx)

    def test_strictly_increasing_in_context(self):
        spec = ref48_spec()
        values = [flops_per_token(spec, Phase.DECODE, c) for c in (1, 2, 10, 100)]
        assert values == sorted(values) and len(set(values)) == len(values)


class TestModelCosts:
    def test_costs_agree_with_counts_on_random_specs(self):
        rng = random.Random(606)
        seen = set()
        for i in range(300):
            spec = random_model(rng, force_moe=i % 2 == 0)
            seen.add((spec.attention.kind, spec.moe is None))
            costs = spec.costs
            assert costs.weight_bits == total_params(spec) * spec.weight_bits
            assert costs.weight_bits == params_oracle(spec) * spec.weight_bits
            assert costs.matmul_weights == activated_params(spec) - embedding_params(spec)
            assert costs.matmul_weights == (params_oracle(spec, True)
                                            - spec.vocab_size * spec.d_model)
            assert costs.kv_bits / 8 == kv_bytes_per_token_oracle(spec)
            assert costs.attn == spec.num_layers * spec.num_heads * spec.head_dim
            assert costs.act_bytes == 2 * spec.num_layers * spec.d_model * spec.weight_bits / 8
            assert 2 * costs.matmul_weights + 4 * costs.attn * 7 == flops_per_token_oracle(spec, 7)
        assert seen == {(kind, dense) for kind in ("mha", "gqa", "mla")
                        for dense in (True, False)}

    def test_replace_derives_fresh_costs(self):
        spec = ref48_spec()
        before = spec.costs
        wider = dataclasses.replace(spec, kv_bits=32)
        assert wider.costs != before
        assert wider.costs.kv_bits == 2 * before.kv_bits
        assert spec.costs is before

    def test_costs_are_not_a_field(self):
        assert "costs" not in {f.name for f in dataclasses.fields(ModelSpec)}
        used, fresh = ref48_spec(), ref48_spec()
        used.costs
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and "costs" not in repr(used)
        assert spec_to_dict(used) == spec_to_dict(fresh)
        assert parse_config(spec_to_dict(used), "round-trip") == used


class TestValidation:
    def test_head_dim_default(self):
        spec = ModelSpec(name="d", num_layers=1, d_model=64, num_heads=4, d_ff=8)
        assert spec.head_dim == 16

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError, match="weight_bits"):
            toy_dense(weight_bits=12)

    def test_gqa_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelSpec(name="g", num_layers=1, d_model=64, num_heads=6, d_ff=8,
                      head_dim=4, attention=GQA(num_kv_heads=4))

    def test_gqa_too_many_kv_heads(self):
        with pytest.raises(ValueError, match="num_kv_heads"):
            ModelSpec(name="g", num_layers=1, d_model=64, num_heads=4, d_ff=8,
                      head_dim=4, attention=GQA(num_kv_heads=8))

    def test_moe_top_k_bound(self):
        with pytest.raises(ValueError, match="top_k"):
            MoESpec(num_experts=4, top_k=5, d_ff_expert=8)

    def test_mla_needs_positive_latent(self):
        with pytest.raises(ValueError, match="d_latent"):
            MLA(d_latent=0)
