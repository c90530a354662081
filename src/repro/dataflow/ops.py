"""Abstract stage descriptors — the paper's programming interface (Sec. 6).

Users describe a point-cloud pipeline as a dataflow graph of abstract
operations without specifying their computation.  Each operation carries
the Tbl. 1 parameters:

======== ============ =================================================
symbol   parameter    meaning
======== ============ =================================================
ρ_in     ``i_shape``  input shape ``[points, attrs]`` per read
f_in     ``i_freq``   cycles between input reads
β        ``reuse``    per-dimension input reuse factors
Δt_stage ``stage``    pipeline depth (cycles of internal latency)
ρ_out    ``o_shape``  output shape per write
f_out    ``o_freq``   cycles between output writes
======== ============ =================================================

The three constructors mirror Listing 1: :func:`stencil`,
:func:`reduction`, and :func:`global_op`; greyed-out parameters in the
paper's Fig. 12 are inferred here exactly as described (stencil and
reduction default ``i_freq`` / ``o_freq`` to 1, stencil reuse comes from
the kernel, reduction reuse is 1).

Throughputs derive as in Sec. 5.2:

* ``tau_out = prod(o_shape_points) / o_freq`` — elements written per cycle,
* ``tau_in = prod(i_shape_points) / (beta * i_freq)`` for stencils (each
  element re-read ``beta`` times costs no fresh input),
* ``tau_in = prod(i_shape_points) / i_freq`` for reductions/global ops.

An *element* is one point row (``i_shape[0]`` counts points; ``i_shape[1]``
counts attributes per point and must match across an edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ValidationError

#: Dependency kinds distinguishing Eqn. 6 (local) from Eqn. 7 (global).
LOCAL_KINDS = ("source", "elementwise", "stencil", "reduction", "sink")
GLOBAL_KINDS = ("global",)
ALL_KINDS = LOCAL_KINDS + GLOBAL_KINDS


@dataclass(frozen=True)
class StageSpec:
    """One abstract pipeline stage (a node of the dataflow graph)."""

    name: str
    kind: str
    i_shape: Tuple[int, int]
    o_shape: Tuple[int, int]
    i_freq: float = 1.0
    o_freq: float = 1.0
    reuse: Tuple[int, int] = (1, 1)
    stage: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("stage name must be non-empty")
        if self.kind not in ALL_KINDS:
            raise ValidationError(
                f"kind must be one of {ALL_KINDS}, got {self.kind!r}"
            )
        for label, shape in (("i_shape", self.i_shape),
                             ("o_shape", self.o_shape)):
            if len(shape) != 2 or any(int(v) <= 0 for v in shape):
                raise ValidationError(
                    f"{label} must be two positive ints, got {shape}"
                )
        if self.i_freq <= 0 or self.o_freq <= 0:
            raise ValidationError("i_freq and o_freq must be positive")
        if len(self.reuse) != 2 or any(int(v) <= 0 for v in self.reuse):
            raise ValidationError(
                f"reuse must be two positive ints, got {self.reuse}"
            )
        if self.stage <= 0:
            raise ValidationError("stage (pipeline depth) must be positive")

    # ------------------------------------------------------------------
    @property
    def is_global(self) -> bool:
        """True for global-dependent operations (Eqn. 7 applies)."""
        return self.kind in GLOBAL_KINDS

    @property
    def reuse_factor(self) -> int:
        """Total input reuse β (product over dimensions)."""
        return int(self.reuse[0]) * int(self.reuse[1])

    @property
    def tau_in(self) -> float:
        """Fresh input elements consumed per cycle (τ_in).

        Note: the paper's Eqn. 6 divides the stencil rate by the reuse
        factor β, but β counts *re-reads from the buffer*, not fresh
        arrivals — a 2x3 stencil consumes one new column per output just
        like Fig. 3's line buffer.  We therefore keep the fresh rate at
        ``ρ_in / f_in`` for every kind and apply β to the buffer
        working-set floor instead, which preserves element-volume
        conservation through the pipeline.
        """
        return float(self.i_shape[0]) / self.i_freq

    @property
    def tau_out(self) -> float:
        """Output elements produced per cycle (τ_out)."""
        return float(self.o_shape[0]) / self.o_freq

    @property
    def gain(self) -> float:
        """Output elements per fresh input element (W_out / W_in)."""
        return self.tau_out / self.tau_in

    @property
    def element_width_in(self) -> int:
        """Attributes per input element."""
        return int(self.i_shape[1])

    @property
    def element_width_out(self) -> int:
        """Attributes per output element."""
        return int(self.o_shape[1])


def source(name: str, o_shape=(1, 3), o_freq: float = 1.0) -> StageSpec:
    """A producer with no upstream edge (raw point-cloud reader)."""
    return StageSpec(name=name, kind="source", i_shape=(1, 1),
                     o_shape=tuple(o_shape), i_freq=1.0, o_freq=o_freq,
                     reuse=(1, 1), stage=1)


def elementwise(name: str, i_shape=(1, 3), o_shape=None,
                stage: int = 1) -> StageSpec:
    """A 1-in-1-out local op (scaling, thresholding, MLP per point)."""
    if o_shape is None:
        o_shape = i_shape
    return StageSpec(name=name, kind="elementwise", i_shape=tuple(i_shape),
                     o_shape=tuple(o_shape), i_freq=1.0, o_freq=1.0,
                     reuse=(1, 1), stage=stage)


def stencil(name: str, i_shape, o_shape, stage: int,
            reuse) -> StageSpec:
    """Listing 1: ``stencil(i_shape, o_shape, stage, reuse)``.

    ``i_freq``/``o_freq`` are implicitly 1 (Fig. 12: "the stencil
    operation's input and output frequency are implicitly defined as 1").
    """
    return StageSpec(name=name, kind="stencil", i_shape=tuple(i_shape),
                     o_shape=tuple(o_shape), i_freq=1.0, o_freq=1.0,
                     reuse=tuple(reuse), stage=stage)


def reduction(name: str, i_shape, o_shape, stage: int,
              o_freq: float) -> StageSpec:
    """Listing 1: ``reduction(i_shape, o_shape, stage, o_freq)``.

    A group of inputs contributes to one output; no input reuse,
    ``i_freq`` implicitly 1.
    """
    return StageSpec(name=name, kind="reduction", i_shape=tuple(i_shape),
                     o_shape=tuple(o_shape), i_freq=1.0, o_freq=o_freq,
                     reuse=(1, 1), stage=stage)


def global_op(name: str, i_shape, o_shape, i_freq: float, o_freq: float,
              reuse, stage: int) -> StageSpec:
    """Listing 1: ``global_op(i_shape, o_shape, i_freq, o_freq, reuse,
    stage)`` — sorting, kNN search, range search."""
    return StageSpec(name=name, kind="global", i_shape=tuple(i_shape),
                     o_shape=tuple(o_shape), i_freq=i_freq, o_freq=o_freq,
                     reuse=tuple(reuse), stage=stage)


def sink(name: str, i_shape=(1, 3)) -> StageSpec:
    """A consumer with no downstream edge (DMA writer / result drain)."""
    return StageSpec(name=name, kind="sink", i_shape=tuple(i_shape),
                     o_shape=(1, 1), i_freq=1.0, o_freq=1.0,
                     reuse=(1, 1), stage=1)
