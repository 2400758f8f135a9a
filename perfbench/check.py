"""Output checks for the benchmark: artifact digests, exact row counters, and
an independent oracle for sampled sweep-CSV rows.

The oracle recomputes each sampled row's OI, CF and bound class from the
test suite's counting oracles (`tests/oracles.py`: weight matrices enumerated
one by one, FLOPs from a per-matrix loop, KV bytes from a per-layer sum) and
applies README rules 1-4 with a brute-force search over batch sizes, instead
of the library's closed forms and its largest-feasible-batch shortcut.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import random
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

REL_TOL = 1e-9
SWEEP_SCHEMA_FIRST_COLUMN = "row_kind"


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("caproof_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path: Path) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def class_mix(header: List[str], rows: List[List[str]]) -> Dict[str, int]:
    """Rows per "phase/bound_class" of a sweep-schema CSV."""
    phase, bound = header.index("phase"), header.index("bound_class")
    mix = Counter(f"{row[phase]}/{row[bound]}" for row in rows)
    return dict(sorted(mix.items()))


class RowOracle:
    """README classification rules 1-4 for one model on one device."""

    def __init__(self, oracles, spec, hw):
        params = oracles.params_oracle(spec)
        self.oracles = oracles
        self.spec = spec
        self.weight_bits = params * spec.weight_bits
        self.weight_bytes = self.weight_bits / 8
        self.kv_bytes = oracles.kv_bytes_per_token_oracle(spec)
        self.kv_bits = round(self.kv_bytes * 8)
        self.cap_bits = int(hw.mem_capacity) * 8
        self.ridge = hw.peak_flops[spec.weight_bits] / hw.mem_bandwidth

    def flops(self, phase: str, length: int) -> float:
        if phase == "decode":
            return self.oracles.flops_per_token_oracle(self.spec, length)
        # Per-token FLOPs are affine in position, so the mean over positions
        # 1..L equals the value at the mean position (L + 1) / 2.
        return self.oracles.flops_per_token_oracle(self.spec, (length + 1) / 2)

    def bytes_per_token(self, phase: str, batch: int, length: int) -> float:
        if phase == "decode":
            return self.weight_bytes / batch + self.kv_bytes * length + self.kv_bytes
        return self.weight_bytes / (batch * length) + self.kv_bytes

    def fits_one_device(self, batch: int, length: int) -> bool:
        return self.weight_bits + batch * self.kv_bits * length <= self.cap_bits

    def row(self, phase: str, batch: int, length: int):
        """(oi, cf, bound_class) by rules 1-4."""
        flops = self.flops(phase, length)
        oi = flops / self.bytes_per_token(phase, batch, length)
        cf = self.kv_bytes * length + self.weight_bytes / batch
        if not self.fits_one_device(1, length):
            return oi, cf, "capacity_exceeded"
        if oi >= self.ridge:
            return oi, cf, "compute_bound"
        trial = 1
        while self.fits_one_device(trial, length):
            if flops / self.bytes_per_token(phase, trial, length) >= self.ridge:
                return oi, cf, "bandwidth_bound"
            trial += 1
        return oi, cf, "capacity_limited"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def oracle_mismatches(oracle: RowOracle, header: List[str], rows: List[List[str]],
                      rng: random.Random, sample: int) -> Tuple[int, List[str]]:
    """Check a seeded sample of rows; returns (rows checked, mismatch messages)."""
    col = {name: header.index(name) for name in
           ("phase", "batch_size", "context_len", "oi", "cf_bytes", "bound_class")}
    picked = sorted(rng.sample(range(len(rows)), min(sample, len(rows))))
    problems = []
    for index in picked:
        row = rows[index]
        phase = row[col["phase"]]
        batch, length = int(row[col["batch_size"]]), int(row[col["context_len"]])
        oi, cf, bound = oracle.row(phase, batch, length)
        got = (float(row[col["oi"]]), float(row[col["cf_bytes"]]), row[col["bound_class"]])
        if not (_close(got[0], oi) and _close(got[1], cf) and got[2] == bound):
            problems.append(f"row {index + 1} ({phase} B={batch} L={length}): "
                            f"csv {got} oracle {(oi, cf, bound)}")
    return len(picked), problems


def load_recorded(path: Path) -> Dict[str, Dict[str, Dict[str, str]]]:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))
