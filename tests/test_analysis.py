import dataclasses
import io
import random

import pytest

from caproof import analysis, metrics, model, reports
from caproof.analysis import (
    BoundClass,
    PhaseAnalysis,
    SweepRow,
    classify,
    max_feasible_batch,
    min_devices,
    sweep_grid,
    sweep_workload,
)
from caproof.config import resolve_config
from caproof.hardware import HardwareSpec, ridge_point
from caproof.metrics import OperatingPoint, PhaseMetrics, decode_metrics, phase_metrics
from caproof.model import (
    GQA,
    MHA,
    MLA,
    ModelSpec,
    Phase,
    kv_bytes_per_token,
    weight_bytes,
)
from caproof.workload import WorkloadSpec
from oracles import random_model


def ref48_spec(attention=MHA()):
    return ModelSpec(name="ref48", num_layers=48, d_model=2048, num_heads=32,
                     head_dim=64, d_ff=8192, ffn_gated=True, attention=attention,
                     vocab_size=32000)


def make_hw(peak, bandwidth, capacity, devices=1, name="hw"):
    return HardwareSpec(name=name, peak_flops={b: peak for b in (2, 4, 8, 16, 32)},
                        mem_bandwidth=bandwidth, mem_capacity=capacity,
                        num_devices=devices)


def random_hardware(rng: random.Random, spec: ModelSpec) -> HardwareSpec:
    bandwidth = 10 ** rng.uniform(9, 13)
    ridge = 10 ** rng.uniform(-1, 3)
    # capacity spans from below the weights to far above them
    capacity = max(1.0, weight_bytes(spec)) * 10 ** rng.uniform(-1, 3)
    return make_hw(ridge * bandwidth, bandwidth, int(capacity) + 1,
                   devices=rng.choice([1, 2, 4]))


def random_point(rng: random.Random) -> OperatingPoint:
    return OperatingPoint(
        context_len=rng.randint(1, 100_000),
        batch_size=rng.randint(1, 256),
        phase=rng.choice([Phase.PREFILL, Phase.DECODE]),
    )


class TestMaxFeasibleBatch:
    def test_constructed_exact_fit(self):
        spec = ref48_spec()
        length = 1000
        capacity = weight_bytes(spec) + 3 * kv_bytes_per_token(spec) * length
        hw = make_hw(1e12, 1e12, capacity)
        assert max_feasible_batch(spec, hw, length) == 3
        assert max_feasible_batch(spec, hw, length, replicate_weights=True) == 3

    def test_weights_alone_do_not_fit(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, weight_bytes(spec) / 2)
        assert max_feasible_batch(spec, hw, 100) == 0

    def test_reference_config_long_context_single_device(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        # KV alone is ~118 GB per request at 300K tokens
        assert kv_bytes_per_token(spec) * 300_000 == pytest.approx(117.96e9, rel=0.01)
        assert max_feasible_batch(spec, hw, 300_000) < 2

    def test_aggregate_scales_with_devices(self):
        spec = ref48_spec()
        length = 10_000
        hw1 = make_hw(1e12, 1e12, weight_bytes(spec) + 5 * kv_bytes_per_token(spec) * length)
        hw4 = dataclasses.replace(hw1, num_devices=4)
        b1 = max_feasible_batch(spec, hw1, length)
        assert b1 == 5
        # weights counted once: the other three devices are pure KV space
        assert max_feasible_batch(spec, hw4, length) > 4 * b1


class TestMinDevices:
    def test_fits_one_device(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, 2 * weight_bytes(spec))
        assert min_devices(spec, hw, OperatingPoint(10, 1, Phase.DECODE)) == 1

    def test_ceiling_behavior(self):
        spec = ref48_spec()
        point = OperatingPoint(1000, 2, Phase.DECODE)
        need = weight_bytes(spec) + 2 * kv_bytes_per_token(spec) * 1000
        hw = make_hw(1e12, 1e12, (need - 8) / 2)  # requirement just over 2 devices
        assert min_devices(spec, hw, point) == 3

    def test_replicated_infeasible_flagged(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, weight_bytes(spec) / 2, devices=16)
        point = OperatingPoint(10, 1, Phase.DECODE)
        assert min_devices(spec, hw, point, replicate_weights=True) == 0

    def test_duality_with_max_feasible_batch(self):
        rng = random.Random(31)
        for _ in range(200):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)
            point = random_point(rng)
            k = min_devices(spec, hw, point)
            # smallest device count whose aggregate admits this batch
            for devices in range(max(1, k - 2), k + 2):
                grown = dataclasses.replace(hw, num_devices=devices)
                fits = max_feasible_batch(spec, grown, point.context_len) >= point.batch_size
                assert fits == (devices >= k)


class TestClassify:
    def test_compute_bound_constructed(self):
        spec = ref48_spec()
        point = OperatingPoint(8192, 64, Phase.PREFILL)
        oi = phase_metrics(spec, point).oi
        bandwidth = 1e12
        hw = make_hw(oi / 2 * bandwidth, bandwidth, 1e15)  # ridge = oi / 2
        result = classify(spec, hw, point)
        assert result.bound_class is BoundClass.COMPUTE_BOUND
        assert result.mfu_est == 1.0
        assert result.mbu_est == pytest.approx(0.5, rel=1e-12)

    def test_capacity_limited_constructed(self):
        spec = ref48_spec()
        length = 100
        point = OperatingPoint(length, 1, Phase.DECODE)
        capacity = weight_bytes(spec) + kv_bytes_per_token(spec) * length
        hw = make_hw(1e15, 1e9, capacity)  # enormous ridge, tiny capacity
        result = classify(spec, hw, point)
        assert result.bound_class is BoundClass.CAPACITY_LIMITED
        assert result.max_feasible_batch == 1
        assert result.mbu_est == 1.0
        assert result.mfu_est == pytest.approx(
            result.metrics.oi / ridge_point(hw, 16), rel=1e-12)

    def test_capacity_exceeded_constructed(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, weight_bytes(spec) / 2)
        result = classify(spec, hw, OperatingPoint(10, 1, Phase.DECODE))
        assert result.bound_class is BoundClass.CAPACITY_EXCEEDED
        assert result.max_feasible_batch == 0
        assert result.attainable_tokens_per_s == 0.0
        assert result.mfu_est == result.mbu_est == 0.0

    def test_bandwidth_bound_constructed(self):
        spec = ref48_spec()
        point = OperatingPoint(64, 1, Phase.DECODE)
        oi_b1 = decode_metrics(spec, point).oi
        bandwidth = 1e12
        # ridge sits above B=1 intensity but far below what batching reaches
        hw = make_hw(2 * oi_b1 * bandwidth, bandwidth, 1e15)
        result = classify(spec, hw, point)
        assert result.bound_class is BoundClass.BANDWIDTH_BOUND
        assert result.mbu_est == 1.0
        assert result.mfu_est == pytest.approx(0.5, rel=1e-3)

    def test_agent_long_context_is_capacity_limited_on_one_device(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        point = OperatingPoint(300_000, 1, Phase.DECODE)
        result = classify(spec, hw, point)
        assert result.bound_class is BoundClass.CAPACITY_LIMITED
        # adding cards leaves the per-device picture unchanged
        for devices in (2, 4, 8):
            grown = classify(spec, dataclasses.replace(hw, num_devices=devices), point)
            assert grown.bound_class is result.bound_class
            assert grown.metrics.oi == result.metrics.oi
            assert grown.mfu_est == result.mfu_est

    def test_randomized_soundness(self):
        rng = random.Random(37)
        for _ in range(300):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)
            point = random_point(rng)
            result = classify(spec, hw, point)
            assert result.bound_class in BoundClass
            fits_one_device = (
                weight_bytes(spec) + kv_bytes_per_token(spec) * point.context_len
                <= int(hw.mem_capacity)
            )
            ridge = ridge_point(hw, spec.weight_bits)
            if not fits_one_device:
                assert result.bound_class is BoundClass.CAPACITY_EXCEEDED
            else:
                assert (result.bound_class is BoundClass.COMPUTE_BOUND) == (
                    result.metrics.oi >= ridge
                )
                # mfu * peak equals the attainable FLOPs rate
                peak = hw.peak_for(spec.weight_bits)
                rate = (
                    result.attainable_tokens_per_s
                    * result.metrics.flops_per_token
                    / hw.num_devices
                )
                assert rate == pytest.approx(result.mfu_est * peak, rel=1e-12)
            assert 0.0 <= result.mfu_est <= 1.0
            assert 0.0 <= result.mbu_est <= 1.0

    def test_capacity_growth_never_degrades(self):
        rng = random.Random(41)
        good = {BoundClass.COMPUTE_BOUND, BoundClass.BANDWIDTH_BOUND}
        for _ in range(200):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)
            point = random_point(rng)
            before = classify(spec, hw, point).bound_class
            grown = dataclasses.replace(hw, mem_capacity=hw.mem_capacity * rng.randint(2, 100))
            after = classify(spec, grown, point).bound_class
            if before in good:
                assert after in good

    def test_per_device_invariance_under_device_scaling(self):
        rng = random.Random(43)
        for _ in range(200):
            spec = random_model(rng)
            hw = random_hardware(rng, spec)
            point = random_point(rng)
            base = classify(spec, dataclasses.replace(hw, num_devices=1), point)
            for devices in (2, 4, 8):
                scaled = classify(spec, dataclasses.replace(hw, num_devices=devices), point)
                assert scaled.bound_class is base.bound_class
                assert scaled.metrics.oi == base.metrics.oi
                assert scaled.mfu_est == base.mfu_est
                assert scaled.mbu_est == base.mbu_est
                assert scaled.attainable_tokens_per_s == base.attainable_tokens_per_s * devices


class TestSweep:
    def test_single_point_grid_matches_classify(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        result = sweep_grid(spec, hw, [4], [2048], phases=(Phase.DECODE,))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.analysis == classify(spec, hw, OperatingPoint(2048, 4, Phase.DECODE))

    def test_attention_variant_curves_ordered(self):
        hw = make_hw(2.25e15, 8e12, 192e9)
        lengths = [1000, 4000, 16000, 64000, 256000, 1000000]
        curves = {}
        for attention in (MHA(), GQA(num_kv_heads=8), MLA(d_latent=512, d_rope=64)):
            spec = ref48_spec(attention)
            result = sweep_grid(spec, hw, [1], lengths, phases=(Phase.DECODE,))
            curve = [row.analysis.metrics.cf for row in result.rows]
            assert curve == sorted(curve)  # monotone in context
            curves[spec.attention.kind] = curve
        for i in range(len(lengths)):
            assert curves["mla"][i] < curves["gqa"][i] < curves["mha"][i]

    def test_grid_ordering_deterministic(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        result = sweep_grid(spec, hw, [8, 1], [4096, 128], phases=(Phase.DECODE, Phase.PREFILL))
        keys = [(row.phase.value, row.batch_size, row.context_len) for row in result.rows]
        assert keys == [
            ("prefill", 1, 128), ("prefill", 1, 4096),
            ("prefill", 8, 128), ("prefill", 8, 4096),
            ("decode", 1, 128), ("decode", 1, 4096),
            ("decode", 8, 128), ("decode", 8, 4096),
        ]

    def test_csv_stable_and_reproducible(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        buffers = []
        for _ in range(2):
            result = sweep_grid(spec, hw, [1, 2], [1024], phases=(Phase.DECODE,))
            buf = io.StringIO()
            reports.write_sweep_csv(result, buf)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]
        header = buffers[0].splitlines()[0]
        assert header.startswith("row_kind,workload,turn_index,phase,batch_size,context_len,oi")

    def test_workload_sweep_rows(self):
        spec = ref48_spec()
        hw = make_hw(2.25e15, 8e12, 192e9)
        workload = WorkloadSpec("toy-agent", turns=3, prefill_tokens_per_turn=100,
                                decode_tokens_per_turn=10)
        result = sweep_workload(spec, hw, workload)
        points = [r for r in result.rows if r.row_kind == "point"]
        totals = [r for r in result.rows if r.row_kind == "workload_total"]
        assert len(points) == 6  # prefill + decode per turn
        assert len(totals) == 2
        assert {r.phase for r in totals} == {Phase.PREFILL, Phase.DECODE}
        for row in totals:
            assert row.prefill_total_tokens == 300
            assert row.decode_total_tokens == 30
            assert row.context_len == 330
        first_prefill = points[0]
        assert first_prefill.phase is Phase.PREFILL
        assert first_prefill.context_len == 100
        last_decode = [r for r in points if r.phase is Phase.DECODE][-1]
        assert last_decode.context_len == 330

    @pytest.mark.parametrize("prefill, decode, phase", [(100, 0, Phase.PREFILL),
                                                       (0, 10, Phase.DECODE)])
    def test_workload_sweep_points_only_phases_with_tokens(self, prefill, decode, phase):
        workload = WorkloadSpec("one-phase", turns=3, prefill_tokens_per_turn=prefill,
                                decode_tokens_per_turn=decode)
        result = sweep_workload(ref48_spec(), make_hw(2.25e15, 8e12, 192e9), workload)
        points = [(r.phase, r.context_len) for r in result.rows if r.row_kind == "point"]
        step = prefill + decode
        assert points == [(phase, step), (phase, 2 * step), (phase, 3 * step)]
        totals = [r for r in result.rows if r.row_kind == "workload_total"]
        assert [(r.prefill_total_tokens, r.decode_total_tokens) for r in totals] == [
            (3 * prefill, 3 * decode)] * 2

    def test_empty_grid_rejected(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, 1e12)
        with pytest.raises(ValueError):
            sweep_grid(spec, hw, [], [1])

    def test_zero_token_workload_rejected(self):
        spec = ref48_spec()
        hw = make_hw(1e12, 1e12, 1e12)
        empty = WorkloadSpec("empty", turns=2, prefill_tokens_per_turn=0,
                             decode_tokens_per_turn=0)
        with pytest.raises(ValueError, match="zero tokens"):
            sweep_workload(spec, hw, empty)


class TestCostsDerivedOncePerSpec:
    """Sweeps read a spec's model costs, so total_params runs per spec, not per point."""

    @pytest.fixture
    def total_params_calls(self, monkeypatch):
        calls = []
        original = model.total_params

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(model, "total_params", counting)
        return calls

    def test_grid_sweep(self, total_params_calls):
        hw = make_hw(2.25e15, 8e12, 192e9)
        lengths = [2**i for i in range(5, 21)]
        result = sweep_grid(ref48_spec(), hw, range(1, 33), lengths)
        assert len(result.rows) == 2 * 32 * 16
        assert len({r.analysis.bound_class for r in result.rows}) == 4
        assert len(total_params_calls) <= 2

    def test_workload_sweep(self, total_params_calls):
        hw = resolve_config("b200-node8", "hardware")
        workload = resolve_config("coding-agent", "workload")
        result = sweep_workload(ref48_spec(), hw, workload)
        assert len(result.rows) > 2
        assert len(total_params_calls) <= 2


class TestLeanPerPointPath:
    """The per-point path builds only the point's own result tuples."""

    def test_below_ridge_grid_calls_no_phase_metrics(self, monkeypatch):
        calls = []
        original = metrics.phase_metrics

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (metrics, analysis):
            if getattr(module, "phase_metrics", None) is original:
                monkeypatch.setattr(module, "phase_metrics", counting)
        hw = make_hw(1e12, 1e10, 192e9)  # ridge 100: every decode point is below it
        lengths = [2**i for i in range(1, 17)]
        result = sweep_grid(ref48_spec(), hw, range(1, 65), lengths, phases=(Phase.DECODE,))
        assert len(result.rows) == 1024
        assert {r.analysis.bound_class for r in result.rows} == {
            BoundClass.BANDWIDTH_BOUND, BoundClass.CAPACITY_LIMITED}
        assert calls == []

    def test_result_fields_are_read_only(self):
        hw = make_hw(2.25e15, 8e12, 192e9)
        row = sweep_grid(ref48_spec(), hw, [1], [4096]).rows[0]
        for value in (row, row.analysis, row.analysis.metrics):
            for name in type(value)._fields:
                with pytest.raises(AttributeError):
                    setattr(value, name, None)

    def test_field_order_is_the_dataclass_order(self):
        assert PhaseMetrics._fields == ("oi", "cf", "flops_per_token", "bytes_per_token")
        assert PhaseAnalysis._fields == (
            "metrics", "bound_class", "attainable_tokens_per_s", "mfu_est", "mbu_est",
            "max_feasible_batch", "min_devices")
        assert SweepRow._fields == (
            "row_kind", "phase", "batch_size", "context_len", "analysis", "workload",
            "turn_index", "prefill_total_tokens", "decode_total_tokens")
        assert SweepRow._field_defaults == {
            "workload": "", "turn_index": None, "prefill_total_tokens": None,
            "decode_total_tokens": None}


def boundary_hardware(rng: random.Random, spec: ModelSpec, point: OperatingPoint,
                      include_activations: bool) -> HardwareSpec:
    """Random hardware whose ridge lies below the point's OI, between it and
    the OI at the largest batch that fits one device, or above both, so all
    four classes occur."""
    request = weight_bytes(spec) + kv_bytes_per_token(spec) * point.context_len
    capacity = int(request * 10 ** rng.uniform(-0.1, 3)) + 1
    per_device = max(1, max_feasible_batch(spec, make_hw(1.0, 1.0, capacity), point.context_len))
    oi = phase_metrics(spec, point, include_activations).oi
    best = phase_metrics(spec, OperatingPoint(point.context_len, per_device, point.phase),
                         include_activations).oi
    bandwidth = 10 ** rng.uniform(9, 13)
    ridge = oi * (best / oi) ** rng.uniform(-0.5, 1.5)
    return make_hw(ridge * bandwidth, bandwidth, capacity, devices=rng.choice([1, 2, 4]))


class TestClassifySingleSource:
    """classify's OI at the point and at the largest per-device batch come
    from the formula behind metrics.phase_metrics, bit for bit, and its
    verdict equals README rules 1-4 restated here from the public functions,
    apart from the rules function that classify and sweep_grid share."""

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    def test_matches_phase_metrics(self, include_activations, replicate_weights):
        rng = random.Random(2 * include_activations + replicate_weights)
        seen = set()
        for _ in range(300):
            spec = random_model(rng)
            point = random_point(rng)
            hw = boundary_hardware(rng, spec, point, include_activations)
            result = classify(spec, hw, point, include_activations, replicate_weights)
            expected = phase_metrics(spec, point, include_activations)
            for name in PhaseMetrics._fields:
                assert getattr(result.metrics, name) == getattr(expected, name), name
            seen.add(result.bound_class)
            assert result.max_feasible_batch == max_feasible_batch(
                spec, hw, point.context_len, replicate_weights)
            assert result.min_devices == min_devices(spec, hw, point, replicate_weights)
            one_device = dataclasses.replace(hw, num_devices=1)
            per_device = max_feasible_batch(spec, one_device, point.context_len)
            ridge = ridge_point(hw, spec.weight_bits)
            oi, flops, devices = expected.oi, expected.flops_per_token, hw.num_devices
            if per_device == 0:  # one request does not fit one device
                verdict = (BoundClass.CAPACITY_EXCEEDED, 0.0, 0.0, 0.0)
            elif oi >= ridge:
                verdict = (BoundClass.COMPUTE_BOUND,
                           hw.peak_for(spec.weight_bits) / flops * devices, 1.0, ridge / oi)
            else:
                best = phase_metrics(spec, OperatingPoint(point.context_len, per_device,
                                                          point.phase),
                                     include_activations).oi
                if best >= ridge:
                    verdict = (BoundClass.BANDWIDTH_BOUND,
                               oi * hw.mem_bandwidth / flops * devices, oi / ridge, 1.0)
                else:
                    verdict = (BoundClass.CAPACITY_LIMITED,
                               best * hw.mem_bandwidth / flops * devices, best / ridge, 1.0)
            assert (result.bound_class, result.attainable_tokens_per_s, result.mfu_est,
                    result.mbu_est) == verdict
        assert seen == set(BoundClass)



class TestSweepGridColumns:
    """sweep_grid classifies each (phase, L) column once, at its smallest
    batch, and extends that verdict along the batch axis; every row still
    equals classify at its point."""

    @pytest.mark.parametrize("include_activations", [False, True])
    @pytest.mark.parametrize("replicate_weights", [False, True])
    def test_rows_equal_classify_at_every_batch(self, include_activations, replicate_weights):
        rng = random.Random(10 + 2 * include_activations + replicate_weights)
        flags = (include_activations, replicate_weights)
        heads, turned_compute_bound = set(), set()
        for _ in range(120):
            spec = random_model(rng)
            length = rng.randint(1, 100_000)
            phase = rng.choice([Phase.PREFILL, Phase.DECODE])
            hw = boundary_hardware(rng, spec, OperatingPoint(length, 1, phase),
                                   include_activations)
            one_device = dataclasses.replace(hw, num_devices=1)
            per_device = max(1, max_feasible_batch(spec, one_device, length))
            # around and far above the largest per-device batch B_max(L)
            batches = {rng.randint(1, 3), per_device, per_device + 1,
                       *(rng.randint(1, 64 * per_device) for _ in range(6))}
            lengths = {length, rng.randint(1, length), length * rng.randint(2, 8)}
            if rng.random() < 0.25:  # the ridge equals the OI at one grid batch
                tie = OperatingPoint(length, rng.choice(sorted(batches)), phase)
                hw = make_hw(phase_metrics(spec, tie, include_activations).oi, 1.0,
                             hw.mem_capacity, devices=hw.num_devices)
            result = sweep_grid(spec, hw, batches, lengths, Phase, *flags)
            assert [(r.phase, r.batch_size, r.context_len) for r in result.rows] == [
                (p, b, n) for p in Phase for b in sorted(batches) for n in sorted(lengths)]
            for row in result.rows:
                point = OperatingPoint(row.context_len, row.batch_size, row.phase)
                assert row.analysis == classify(spec, hw, point, *flags)
            per_phase = len(batches) * len(lengths)
            for start in range(0, len(result.rows), per_phase):
                for offset in range(len(lengths)):  # one (phase, L) column, batch ascending
                    column = [row.analysis.bound_class for row in
                              result.rows[start + offset:start + per_phase:len(lengths)]]
                    heads.add(column[0])
                    if (column[0] is BoundClass.CAPACITY_LIMITED
                            and BoundClass.COMPUTE_BOUND in column):
                        turned_compute_bound.add(result.rows[start].phase)
        assert heads == set(BoundClass)
        assert turned_compute_bound == set(Phase)

    def test_one_classify_per_column_and_no_point_per_row(self, monkeypatch):
        calls, points = [], []
        original = analysis.classify

        def counting(spec, hw, point, *flags):
            calls.append((point.phase, point.batch_size, point.context_len))
            return original(spec, hw, point, *flags)

        checked = OperatingPoint.__post_init__

        def counted(point):
            points.append(point)
            checked(point)

        monkeypatch.setattr(analysis, "classify", counting)
        monkeypatch.setattr(OperatingPoint, "__post_init__", counted)
        lengths = [2**i for i in range(5, 21)]
        result = sweep_grid(ref48_spec(), make_hw(2.25e15, 8e12, 192e9), range(3, 35), lengths)
        assert len(result.rows) == 2 * 32 * 16
        assert len({r.analysis.bound_class for r in result.rows}) == 4
        assert calls == [(phase, 3, length) for phase in Phase for length in lengths]
        assert len(points) == len(calls)
