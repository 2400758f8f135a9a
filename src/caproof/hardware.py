"""Accelerator descriptors: peak compute per precision, bandwidth, capacity.

Numeric entries live in catalog files, never in code. Multi-device
aggregation is linear in capacity, bandwidth, and compute; interconnect
effects are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .model import VALID_ELEMENT_BITS, _bound, _text


class UnknownPrecisionError(ValueError):
    """Raised when a precision has no peak-FLOPs entry on this hardware."""


@dataclass(frozen=True)
class HardwareSpec:
    name: str
    peak_flops: Dict[int, float]  # bits -> FLOP/s per device
    mem_bandwidth: float  # bytes/s per device
    mem_capacity: float  # bytes per device
    num_devices: int = 1

    def __post_init__(self):
        _text("name", self.name)
        if not self.peak_flops:
            raise ValueError("peak_flops must have at least one precision entry")
        for bits, rate in self.peak_flops.items():
            if bits not in VALID_ELEMENT_BITS:
                raise ValueError(
                    f"peak_flops precision must be one of {VALID_ELEMENT_BITS}, got {bits}"
                )
            _bound(f"peak_flops[{bits}]", rate, "> 0")
        _bound("mem_bandwidth", self.mem_bandwidth, "> 0")
        _bound("mem_capacity", self.mem_capacity, ">= 1 byte")
        _bound("mem_capacity", self.mem_capacity, "<= 1e100")
        _bound("num_devices", self.num_devices, ">= 1")

    def peak_for(self, bits: int) -> float:
        try:
            return self.peak_flops[bits]
        except KeyError:
            available = ", ".join(str(b) for b in sorted(self.peak_flops))
            raise UnknownPrecisionError(
                f"{self.name} has no peak-FLOPs entry for {bits}-bit; "
                f"available precisions: {available}"
            ) from None


def ridge_point(hw: HardwareSpec, bits: int) -> float:
    """Operational intensity at which the roofline arms meet, per device. Peak and
    bandwidth must each lie within 1e-100..1e100: the ridge is then a positive float,
    and the roofline's axes, 4x past the ridge and the peak in whole decades, stay finite."""
    peak, bandwidth = hw.peak_for(bits), hw.mem_bandwidth
    if not (1e-100 <= peak <= 1e100 and 1e-100 <= bandwidth <= 1e100):  # once per classify or sweep
        for name, rate in ((f"peak_flops[{bits}]", peak), ("mem_bandwidth", bandwidth)):
            _bound(name, rate, ">= 1e-100")
            _bound(name, rate, "<= 1e100")
    return peak / bandwidth


def attainable_flops(hw: HardwareSpec, bits: int, oi: float) -> float:
    """min(peak, oi * bandwidth) per device: the classic roofline."""
    _bound("oi", oi, "> 0")
    return min(hw.peak_for(bits), oi * hw.mem_bandwidth)
