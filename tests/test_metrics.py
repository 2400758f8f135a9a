import dataclasses
import random
from fractions import Fraction

import pytest

from caproof.metrics import (
    OperatingPoint,
    cf_request,
    decode_metrics,
    oi_matmul,
    oi_matmul_bytes,
    prefill_metrics,
)
from caproof.model import (
    GQA,
    MHA,
    MLA,
    MoESpec,
    ModelSpec,
    Phase,
    flops_per_token,
    kv_bytes_per_token,
    weight_bytes,
)
from oracles import matmul_tally_oracle, random_model


def ref48_spec(attention=MHA()):
    return ModelSpec(name="ref48", num_layers=48, d_model=2048, num_heads=32,
                     head_dim=64, d_ff=8192, ffn_gated=True, attention=attention,
                     vocab_size=32000)


class TestOiMatmul:
    def test_plug_in_values(self):
        assert oi_matmul(1, 1, 1) == pytest.approx(2 / 3, rel=0, abs=0)
        assert oi_matmul(2, 2, 2) == pytest.approx(4 / 3, rel=0, abs=0)

    def test_bytes_variant(self):
        assert oi_matmul_bytes(4, 4, 4, 16) == oi_matmul(4, 4, 4) / 2
        assert oi_matmul_bytes(4, 4, 4, 8) == oi_matmul(4, 4, 4)

    def test_against_brute_force_tally(self):
        rng = random.Random(5)
        for _ in range(200):
            m, d, length = (rng.randint(1, 512) for _ in range(3))
            ops, transfers = matmul_tally_oracle(m, d, length)
            assert oi_matmul(m, d, length) == ops / transfers

    def test_symmetry_exact(self):
        rng = random.Random(6)
        for _ in range(300):
            m, d, length = (rng.randint(1, 4096) for _ in range(3))
            assert oi_matmul(m, d, length) == oi_matmul(length, d, m)

    def test_upper_bound_and_large_length_limit(self):
        rng = random.Random(8)
        for _ in range(100):
            m, d, length = (rng.randint(1, 2048) for _ in range(3))
            assert oi_matmul(m, d, length) < 2 * min(m, d, length)
        m, d = 64, 256
        limit = 2 * m * d / (m + d)
        assert oi_matmul(m, d, 10**9) == pytest.approx(limit, rel=1e-6)

    def test_monotone_in_length(self):
        values = [oi_matmul(128, 512, length) for length in (1, 4, 64, 1024, 65536)]
        assert values == sorted(values)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            oi_matmul(0, 1, 1)


class TestCfRequest:
    def test_b1_l1_is_weights_plus_kv(self):
        spec = ModelSpec(name="t", num_layers=1, d_model=2, num_heads=1,
                         head_dim=2, d_ff=4, ffn_gated=False)
        point = OperatingPoint(1, 1, Phase.DECODE)
        assert cf_request(spec, point) == weight_bytes(spec) + kv_bytes_per_token(spec)

    def test_large_batch_limit_is_kv_only(self):
        spec = ref48_spec()
        length = 1000
        kv_term = kv_bytes_per_token(spec) * length
        cf = cf_request(spec, OperatingPoint(length, 10**9, Phase.DECODE))
        assert cf == pytest.approx(kv_term, rel=1e-6)
        assert cf > kv_term

    def test_reference_config_long_context(self):
        spec = ref48_spec()
        cf = cf_request(spec, OperatingPoint(100000, 1, Phase.DECODE))
        assert cf == 393216 * 100000 + weight_bytes(spec)

    def test_exact_decomposition_on_random_specs(self):
        rng = random.Random(9)
        for _ in range(100):
            spec = random_model(rng)
            batch = rng.randint(1, 64)
            length = rng.randint(1, 10**6)
            cf = cf_request(spec, OperatingPoint(length, batch, Phase.DECODE))
            assert cf == kv_bytes_per_token(spec) * length + weight_bytes(spec) / batch

    def test_monotonicity_and_bit_linearity(self):
        spec = ref48_spec()
        cf_b = [cf_request(spec, OperatingPoint(4096, b, Phase.DECODE)) for b in (1, 2, 4, 8)]
        assert cf_b == sorted(cf_b, reverse=True) and len(set(cf_b)) == 4
        cf_l = [cf_request(spec, OperatingPoint(length, 4, Phase.DECODE))
                for length in (1, 10, 100, 1000)]
        assert cf_l == sorted(cf_l) and len(set(cf_l)) == 4
        half_kv = dataclasses.replace(spec, kv_bits=8)
        point = OperatingPoint(4096, 4, Phase.DECODE)
        kv_term = kv_bytes_per_token(spec) * 4096
        assert cf_request(half_kv, point) == cf_request(spec, point) - kv_term / 2
        half_w = dataclasses.replace(spec, weight_bits=8)
        assert cf_request(half_w, point) == cf_request(spec, point) - weight_bytes(spec) / 8


@pytest.mark.parametrize("function, phase, message", [
    (prefill_metrics, Phase.DECODE, "prefill_metrics requires a PREFILL point, got Phase.DECODE"),
    (decode_metrics, Phase.PREFILL, "decode_metrics requires a DECODE point, got Phase.PREFILL"),
])
def test_phase_metrics_reject_the_other_phase(function, phase, message):
    with pytest.raises(ValueError) as exc:
        function(ref48_spec(), OperatingPoint(16, 1, phase))
    assert str(exc.value) == message


class TestDecodeMetrics:
    def test_toy_hand_ratio(self):
        spec = ModelSpec(name="t", num_layers=1, d_model=2, num_heads=1,
                         head_dim=2, d_ff=4, ffn_gated=False)
        metrics = decode_metrics(spec, OperatingPoint(1, 1, Phase.DECODE))
        flops = 2 * 32 + 4 * 1 * 1 * 2
        read = weight_bytes(spec) + kv_bytes_per_token(spec)
        write = kv_bytes_per_token(spec)
        assert metrics.flops_per_token == flops
        assert metrics.bytes_per_token == read + write
        assert metrics.oi == flops / (read + write)

    def test_oi_ratio_consistency(self):
        rng = random.Random(13)
        for _ in range(100):
            spec = random_model(rng)
            point = OperatingPoint(rng.randint(1, 10**5), rng.randint(1, 128), Phase.DECODE)
            metrics = decode_metrics(spec, point)
            assert metrics.oi == pytest.approx(
                metrics.flops_per_token / metrics.bytes_per_token, rel=1e-12
            )

    def test_oi_grid_monotonicity(self):
        spec = ref48_spec()
        for length in (1, 512, 8192, 300000):
            ois = [decode_metrics(spec, OperatingPoint(length, b, Phase.DECODE)).oi
                   for b in (1, 2, 8, 64, 1024)]
            assert ois == sorted(ois) and len(set(ois)) == len(ois)

    def test_oi_falls_with_context_once_kv_reads_dominate(self):
        # KV reads pull OI toward the attention-only asymptote; with weights
        # quantized below the KV width that asymptote lies below the short
        # context value, so OI falls monotonically with L.
        spec = dataclasses.replace(ref48_spec(), weight_bits=4)
        for batch in (1, 16):
            ois = [decode_metrics(spec, OperatingPoint(length, batch, Phase.DECODE)).oi
                   for length in (1, 1000, 100000, 1000000)]
            assert ois == sorted(ois, reverse=True) and len(set(ois)) == len(ois)

    def test_large_batch_asymptote(self):
        spec = ref48_spec()
        length = 4096
        kv = kv_bytes_per_token(spec)
        asymptote = flops_per_token(spec, Phase.DECODE, length) / (kv * (length + 1))
        oi = decode_metrics(spec, OperatingPoint(length, 10**9, Phase.DECODE)).oi
        assert oi == pytest.approx(asymptote, rel=1e-6)
        assert oi < asymptote

    def test_moe_variant_has_lower_decode_oi(self):
        # same total FFN weights, but only top_k/num_experts = 1/4 active
        dense = ModelSpec(name="d", num_layers=4, d_model=64, num_heads=4,
                          head_dim=16, d_ff=256, ffn_gated=True, vocab_size=1000)
        moe = dataclasses.replace(
            dense, moe=MoESpec(num_experts=4, top_k=1, d_ff_expert=64))
        point = OperatingPoint(2048, 1, Phase.DECODE)
        assert decode_metrics(moe, point).oi < decode_metrics(dense, point).oi

    def test_wrong_phase_rejected(self):
        with pytest.raises(ValueError, match="DECODE"):
            decode_metrics(ref48_spec(), OperatingPoint(1, 1, Phase.PREFILL))


class TestPrefillMetrics:
    def test_single_token_degeneracy(self):
        # at L=1, B=1 prefill and decode differ only by the KV read term
        spec = ref48_spec()
        prefill = prefill_metrics(spec, OperatingPoint(1, 1, Phase.PREFILL))
        decode = decode_metrics(spec, OperatingPoint(1, 1, Phase.DECODE))
        assert prefill.flops_per_token == decode.flops_per_token
        assert decode.bytes_per_token - prefill.bytes_per_token == kv_bytes_per_token(spec)

    def test_closed_form_matches_positionwise_average(self):
        rng = random.Random(17)
        for _ in range(30):
            spec = random_model(rng)
            length = rng.randint(1, 200)
            total = sum(flops_per_token(spec, Phase.PREFILL, pos) for pos in range(1, length + 1))
            expected = Fraction(total, length)
            got = prefill_metrics(spec, OperatingPoint(length, 1, Phase.PREFILL)).flops_per_token
            assert Fraction(int(got)) == expected

    def test_prefill_oi_dominates_decode(self):
        rng = random.Random(19)
        for _ in range(60):
            spec = random_model(rng)
            length = rng.randint(1, 10**5)
            batch = rng.randint(1, 64)
            prefill = prefill_metrics(spec, OperatingPoint(length, batch, Phase.PREFILL))
            decode = decode_metrics(spec, OperatingPoint(length, batch, Phase.DECODE))
            assert prefill.oi >= decode.oi

    def test_activation_term_flag(self):
        spec = ref48_spec()
        point = OperatingPoint(4096, 1, Phase.PREFILL)
        plain = prefill_metrics(spec, point)
        with_act = prefill_metrics(spec, point, include_activations=True)
        extra = 2 * spec.num_layers * spec.d_model * spec.weight_bits / 8
        assert with_act.bytes_per_token == plain.bytes_per_token + extra
        assert with_act.oi < plain.oi


class TestAttentionOrdering:
    def test_cf_ordering_holds_when_widths_order(self):
        mha = ref48_spec()
        gqa = ref48_spec(attention=GQA(num_kv_heads=8))
        mla = ref48_spec(attention=MLA(d_latent=512, d_rope=64))
        # latent width 576 < 2*8*64 = 1024 < 2*32*64 = 4096
        for length in (1, 100, 10000, 1000000):
            point = OperatingPoint(length, 1, Phase.DECODE)
            assert cf_request(mla, point) < cf_request(gqa, point) < cf_request(mha, point)
