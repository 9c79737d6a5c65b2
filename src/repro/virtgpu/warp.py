"""Warp execution state.

A :class:`Warp` is the scheduling unit of the virtual GPU, exactly as
on hardware (Sec. II-C).  It owns a simulated clock (cycles), lane
utilization counters, and charging helpers used by the set-operation
kernels and the matching engines.  Warps never run Python threads —
the engines advance them through a discrete-event scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .costmodel import WARP_SIZE, GpuCostModel

__all__ = ["Warp", "WarpCounters"]


@dataclass
class WarpCounters:
    """Per-warp activity counters (basis of Figs. 12–13 metrics)."""

    set_ops: int = 0            # warp-wide set operations issued
    rounds: int = 0             # 32-lane rounds executed
    busy_lanes: int = 0         # lane-slots doing useful work
    copies: int = 0
    filters: int = 0
    steals_initiated: int = 0
    steals_received: int = 0
    tree_nodes: int = 0         # exploration-tree nodes expanded
    matches: int = 0
    busy_cycles: float = 0.0    # cycles spent on real work
    idle_cycles: float = 0.0    # cycles spent spinning / waiting

    @property
    def lane_slots(self) -> int:
        return self.rounds * WARP_SIZE

    @property
    def thread_utilization(self) -> float:
        """Fraction of lane-slots doing useful work (Fig. 13 metric)."""
        slots = self.lane_slots
        return self.busy_lanes / slots if slots else 0.0

    def merge(self, other: "WarpCounters") -> None:
        self.set_ops += other.set_ops
        self.rounds += other.rounds
        self.busy_lanes += other.busy_lanes
        self.copies += other.copies
        self.filters += other.filters
        self.steals_initiated += other.steals_initiated
        self.steals_received += other.steals_received
        self.tree_nodes += other.tree_nodes
        self.matches += other.matches
        self.busy_cycles += other.busy_cycles
        self.idle_cycles += other.idle_cycles


@dataclass
class Warp:
    """One warp: 32 SIMT lanes advancing a private simulated clock."""

    warp_id: int
    block_id: int
    cost: GpuCostModel = field(default_factory=GpuCostModel)
    clock: float = 0.0
    counters: WarpCounters = field(default_factory=WarpCounters)
    # read-only observability subscriber (repro.obs.TraceCollector);
    # hooks fire after charges and never alter the cost model
    tracer: object | None = field(default=None, repr=False, compare=False)

    def charge(self, cycles: float, busy: bool = True) -> None:
        """Advance this warp's clock by ``cycles``."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.clock += cycles
        if busy:
            self.counters.busy_cycles += cycles
        else:
            self.counters.idle_cycles += cycles

    # The three charges below run at least once per kernel step, so they
    # inline GpuCostModel.rounds / set_op_cycles / copy_cycles /
    # filter_cycles (which stay the definition) in the same operand
    # order; tests/test_virtgpu_device.py pins bit-equality.

    def charge_set_op(self, total_elems: int, operand_size: int, in_global: bool = True) -> None:
        """Charge a (combined) set operation and update lane counters."""
        cost = self.cost
        counters = self.counters
        rounds = -(-total_elems // WARP_SIZE) or 1
        counters.set_ops += 1
        counters.rounds += rounds
        counters.busy_lanes += total_elems
        cycles = rounds * (
            cost.warp_issue
            + cost.probe_factor * max(1.0, math.log2(max(operand_size, 2)))
            + (cost.global_access if in_global else cost.shared_access)
        )
        self.clock += cycles
        counters.busy_cycles += cycles
        if self.tracer is not None:
            self.tracer.on_set_op(self, total_elems, operand_size, rounds, cycles)

    def charge_copy(self, num_elems: int, in_global: bool = True) -> None:
        cost = self.cost
        counters = self.counters
        rounds = -(-num_elems // WARP_SIZE) or 1
        counters.copies += 1
        counters.rounds += rounds
        counters.busy_lanes += num_elems
        cycles = rounds * (
            cost.warp_issue + (cost.global_access if in_global else cost.shared_access)
        )
        self.clock += cycles
        counters.busy_cycles += cycles
        if self.tracer is not None:
            self.tracer.on_copy(self, num_elems, rounds, cycles)

    def charge_filter(self, num_elems: int) -> None:
        cost = self.cost
        counters = self.counters
        counters.filters += 1
        cycles = (-(-num_elems // WARP_SIZE) or 1) * (cost.warp_issue + cost.shared_access)
        self.clock += cycles
        counters.busy_cycles += cycles
        if self.tracer is not None:
            self.tracer.on_filter(self, num_elems, cycles)

    def sync_to(self, other_clock: float) -> None:
        """Wait (idle) until ``other_clock`` if it is in this warp's future."""
        if other_clock > self.clock:
            self.counters.idle_cycles += other_clock - self.clock
            self.clock = other_clock

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Warp(b{self.block_id}/w{self.warp_id}, clock={self.clock:.0f}, "
                f"util={self.counters.thread_utilization:.2f})")
