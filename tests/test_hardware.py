import pytest

from caproof.hardware import (
    HardwareSpec,
    UnknownPrecisionError,
    attainable_flops,
    ridge_point,
)


def unit_device(**overrides):
    fields = dict(name="unit", peak_flops={16: 1e12}, mem_bandwidth=1e12,
                  mem_capacity=1e9, num_devices=1)
    fields.update(overrides)
    return HardwareSpec(**fields)


def test_unit_ridge():
    assert ridge_point(unit_device(), 16) == 1.0


def test_ridge_direct_division():
    hw = unit_device(peak_flops={8: 2e15}, mem_bandwidth=8e12)
    assert ridge_point(hw, 8) == 250.0


def test_ridge_recomputed_from_fields():
    hw = unit_device(peak_flops={4: 9e15, 8: 4.5e15, 16: 2.25e15}, mem_bandwidth=8e12)
    for bits in (4, 8, 16):
        assert ridge_point(hw, bits) == hw.peak_flops[bits] / hw.mem_bandwidth


def test_attainable_at_ridge_is_peak():
    hw = unit_device(peak_flops={16: 4e12}, mem_bandwidth=2e12)
    ridge = ridge_point(hw, 16)
    assert attainable_flops(hw, 16, ridge) == 4e12
    assert attainable_flops(hw, 16, ridge / 2) == 2e12  # linear arm
    assert attainable_flops(hw, 16, ridge * 10) == 4e12  # flat arm


def test_attainable_monotone_and_capped():
    hw = unit_device(peak_flops={16: 3e12}, mem_bandwidth=1.5e12)
    previous = 0.0
    for oi in (0.01, 0.1, 1, 2, 5, 50, 500):
        value = attainable_flops(hw, 16, oi)
        assert value >= previous
        assert value <= 3e12
        assert value / hw.mem_bandwidth <= oi  # bandwidth arm bound
        previous = value


def test_unknown_precision_names_available():
    hw = unit_device(peak_flops={8: 1e12, 16: 2e12})
    with pytest.raises(UnknownPrecisionError, match="8, 16"):
        ridge_point(hw, 4)


def test_validation():
    with pytest.raises(ValueError, match="peak_flops"):
        unit_device(peak_flops={})
    with pytest.raises(ValueError, match="mem_bandwidth"):
        unit_device(mem_bandwidth=0)
    with pytest.raises(ValueError, match="num_devices"):
        unit_device(num_devices=0)
    with pytest.raises(ValueError, match="precision"):
        unit_device(peak_flops={12: 1e12})
    with pytest.raises(ValueError, match="oi"):
        attainable_flops(unit_device(), 16, 0)


def test_capacity_of_at_least_one_byte():
    for capacity in (0, 0.5, 1 - 1e-9):
        with pytest.raises(ValueError, match="mem_capacity must be >= 1 byte"):
            unit_device(mem_capacity=capacity)
    assert unit_device(mem_capacity=1).mem_capacity == 1
