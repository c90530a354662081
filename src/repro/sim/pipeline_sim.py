"""Cycle-level verification of optimized streaming schedules.

``simulate_streaming`` replays a solved :class:`BufferSchedule` (optionally
extended over many chunks) at integer-cycle granularity: every edge's
occupancy is evaluated each cycle from the stages' production/consumption
ramps, checked against the optimized capacity, and accumulated into SRAM
traffic counts.  A correctly sized pipeline completes with **zero stalls
and zero overflow** — the paper's third requirement (Sec. 5.1) — and the
report feeds the energy model with exact on-chip traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.dataflow.graph import Edge
from repro.errors import SimulationError
from repro.optimizer.schedule import (
    BufferSchedule,
    steady_interval,
)
from repro.sim.energy import EnergyModel

#: Discretisation slack: cycle-granular ramps can momentarily exceed the
#: continuous-time optimum by less than one element.
_CAPACITY_SLACK = 1.0


@dataclass
class StreamingReport:
    """Outcome of a cycle-level schedule replay."""

    cycles: int
    buffer_peaks: Dict[Edge, float]
    buffer_capacities: Dict[Edge, float]
    sram_traffic_values: float          # values written + read on-chip
    dram_traffic_bytes: float           # input + output only (streaming!)
    overflow_events: int

    @property
    def stall_free(self) -> bool:
        return self.overflow_events == 0

    def sram_energy_pj(self, model: EnergyModel,
                       total_capacity_bytes: float) -> float:
        return model.sram_energy(total_capacity_bytes,
                                 self.sram_traffic_values * 4.0)


def _ramp(times: np.ndarray, start: float, rate: float,
          total: float) -> np.ndarray:
    """Clamped linear ramp: 0 before *start*, slope *rate*, cap *total*."""
    return np.clip((times - start) * rate, 0.0, total)


def simulate_streaming(schedule: BufferSchedule, n_chunks: int = 1,
                       input_value_width: int = 3,
                       strict: bool = True) -> StreamingReport:
    """Replay *schedule* over ``n_chunks`` chunks cycle by cycle.

    Chunks are initiated at the multi-chunk initiation interval (slowest
    stage busy time), matching :func:`repro.optimizer.schedule.extend_to_chunks`.
    With ``strict`` set, any occupancy above capacity (plus one element of
    discretisation slack) raises :class:`SimulationError`.
    """
    if n_chunks <= 0:
        raise SimulationError("n_chunks must be positive")
    inst = schedule.inst
    graph = inst.graph
    interval = steady_interval(schedule)
    horizon = schedule.makespan + (n_chunks - 1) * interval + 2.0
    times = np.arange(0.0, np.ceil(horizon) + 1.0)

    peaks: Dict[Edge, float] = {}
    capacities: Dict[Edge, float] = {}
    overflow = 0
    sram_values = 0.0
    for edge in graph.edges:
        producer, consumer = edge.producer, edge.consumer
        tau_out = graph.stage(producer).tau_out
        tau_in = graph.stage(consumer).tau_in
        w_p = inst.w_out[producer]
        width = schedule.edge_widths.get(edge, 1)
        produced = np.zeros_like(times)
        freed = np.zeros_like(times)
        for chunk in range(n_chunks):
            offset = chunk * interval
            produced += _ramp(times,
                              schedule.write_start[producer] + offset,
                              tau_out, w_p)
            freed += _ramp(times,
                           schedule.overwrite_start[edge] + offset,
                           tau_in, w_p)
        occupancy = np.maximum(produced - freed, 0.0)
        peak = float(occupancy.max())
        capacity = schedule.buffer_elements[edge]
        peaks[edge] = peak
        capacities[edge] = capacity
        if peak > capacity + _CAPACITY_SLACK:
            overflow += 1
            if strict:
                raise SimulationError(
                    f"buffer {producer}->{consumer} overflows: peak "
                    f"{peak:.2f} > capacity {capacity:.2f}"
                )
        # On-chip traffic: every value is written once and read once.
        sram_values += 2.0 * w_p * width * n_chunks

    # Streaming eliminates intermediate DRAM traffic: only the raw input
    # and the final output cross the chip boundary.
    input_values = sum(inst.w_out[s] for s in graph.sources()) * n_chunks
    output_values = sum(inst.w_in[s] for s in graph.sinks()) * n_chunks
    dram_bytes = (input_values * input_value_width + output_values) * 4.0

    cycles = int(np.ceil(schedule.makespan + (n_chunks - 1) * interval))
    return StreamingReport(cycles, peaks, capacities, sram_values,
                           dram_bytes, overflow)


def double_buffered_cycles(inst, dram_bytes_per_stage: Dict[str, float],
                           compute_cycles: Dict[str, float],
                           bytes_per_cycle: float = 25.6) -> float:
    """Latency model of the paper's Base (double-buffered) execution.

    Stages separated by off-chip round-trips run sequentially; double
    buffering overlaps each stage's DRAM traffic with its compute, so the
    stage costs ``max(compute, transfer)`` (Sec. 1's description of
    existing accelerators).
    """
    total = 0.0
    for name, compute in compute_cycles.items():
        transfer = dram_bytes_per_stage.get(name, 0.0) / bytes_per_cycle
        total += max(compute, transfer)
    return total
