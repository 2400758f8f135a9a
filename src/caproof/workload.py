"""Agent usage profiles and their expansion into per-turn context traces.

A workload is a deterministic multi-turn loop: each turn ingests
prefill_tokens_per_turn (system prompt, tool definitions, observations) and
generates decode_tokens_per_turn. With carry_context the context snowballs:
generated tokens stay cached and the next turn's input lands on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .model import _bound, _text

# Rows one sweep may have. Held, by tracemalloc on 3.11, a sweep_grid row is 283 B (128k grid) and
# a sweep_workload row 345-374 B (100,000 turns): 567 and 690-748 MB. The CLI streams both.
MAX_SWEEP_ROWS = 2_000_000
MAX_TURNS = (MAX_SWEEP_ROWS - 2) // 2  # a prefill and a decode row a turn, two totals


@dataclass(frozen=True)
class WorkloadSpec:
    """An agent workload: turns of prefill and decode tokens, the context carried or not."""

    name: str
    turns: int
    prefill_tokens_per_turn: int
    decode_tokens_per_turn: int
    carry_context: bool = True
    batch_size: int = 1

    def __post_init__(self):
        _text("name", self.name)
        _bound("turns", self.turns, ">= 1")
        _bound("turns", self.turns, f"<= {MAX_TURNS}")
        _bound("prefill_tokens_per_turn", self.prefill_tokens_per_turn, ">= 0")
        _bound("decode_tokens_per_turn", self.decode_tokens_per_turn, ">= 0")
        _bound("batch_size", self.batch_size, ">= 1")


@dataclass(frozen=True)
class TurnRecord:
    """One environment-agent exchange: the prompt extends the context from
    prefill_start_context by prefill_tokens, then decode_tokens tokens are
    generated, one per context length, up to cumulative_context."""

    turn_index: int
    prefill_start_context: int
    prefill_tokens: int
    decode_tokens: int
    cumulative_context: int


@dataclass(frozen=True)
class TurnTrace:
    """A workload's per-turn records, as expand makes them."""

    workload: WorkloadSpec
    records: Tuple[TurnRecord, ...]

    @property
    def final_context(self) -> int:
        return self.records[-1].cumulative_context


def _context(spec: WorkloadSpec, turn: int) -> int:
    """The context turn `turn` (from 0) starts at: all earlier turns' tokens if carried."""
    step = spec.prefill_tokens_per_turn + spec.decode_tokens_per_turn
    return turn * step if spec.carry_context else 0


def expand(spec: WorkloadSpec) -> TurnTrace:
    """Expand a workload into its deterministic per-turn trace."""
    prefill, decode = spec.prefill_tokens_per_turn, spec.decode_tokens_per_turn
    return TurnTrace(workload=spec, records=tuple(
        TurnRecord(turn, (start := _context(spec, turn)), prefill, decode, start + prefill + decode)
        for turn in range(spec.turns)))


def total_tokens(trace: TurnTrace) -> Tuple[int, int]:
    """(prefill_total, decode_total) summed over all turns."""
    spec = trace.workload
    return spec.turns * spec.prefill_tokens_per_turn, spec.turns * spec.decode_tokens_per_turn
