"""Accelerator descriptors: peak compute per precision, bandwidth, capacity.

Numeric entries live in catalog files, never in code. Multi-device
aggregation is linear in capacity, bandwidth, and compute; interconnect
effects are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .model import VALID_ELEMENT_BITS


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
        if not self.peak_flops:
            raise ValueError("peak_flops must have at least one precision entry")
        for bits, rate in self.peak_flops.items():
            if bits not in VALID_ELEMENT_BITS:
                raise ValueError(
                    f"peak_flops precision must be one of {VALID_ELEMENT_BITS}, got {bits}"
                )
            if rate <= 0:
                raise ValueError(f"peak_flops[{bits}] must be > 0, got {rate}")
        if self.mem_bandwidth <= 0:
            raise ValueError(f"mem_bandwidth must be > 0, got {self.mem_bandwidth}")
        if self.mem_capacity < 1:
            raise ValueError(f"mem_capacity must be >= 1 byte, got {self.mem_capacity}")
        if self.num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {self.num_devices}")

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
    """Operational intensity at which the roofline arms meet, per device."""
    return hw.peak_for(bits) / hw.mem_bandwidth


def attainable_flops(hw: HardwareSpec, bits: int, oi: float) -> float:
    """min(peak, oi * bandwidth) per device: the classic roofline."""
    if oi <= 0:
        raise ValueError(f"oi must be > 0, got {oi}")
    return min(hw.peak_for(bits), oi * hw.mem_bandwidth)
