"""Dataflow graphs of abstract stages, with line buffers on edges.

A :class:`DataflowGraph` is a DAG of :class:`~repro.dataflow.ops.StageSpec`
nodes.  Every edge carries a line buffer whose size the optimizer
(:mod:`repro.optimizer`) later determines.  The graph is *abstract* until
:meth:`DataflowGraph.instantiate` binds it to a workload size, which
propagates total element counts (the ``W_i`` of Eqn. 7) through the DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.dataflow.ops import StageSpec
from repro.errors import GraphError


@dataclass(frozen=True)
class Edge:
    """A producer -> consumer line-buffer edge."""

    producer: str
    consumer: str


class DataflowGraph:
    """A DAG of stages connected by line buffers."""

    def __init__(self) -> None:
        self._stages: Dict[str, StageSpec] = {}
        self._edges: List[Edge] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_stage(self, spec: StageSpec) -> "DataflowGraph":
        """Add a stage; names must be unique.  Returns self for chaining."""
        if spec.name in self._stages:
            raise GraphError(f"duplicate stage name {spec.name!r}")
        self._stages[spec.name] = spec
        return self

    def connect(self, producer: str, consumer: str) -> "DataflowGraph":
        """Add a line-buffer edge from *producer* to *consumer*."""
        for name in (producer, consumer):
            if name not in self._stages:
                raise GraphError(f"unknown stage {name!r}")
        if producer == consumer:
            raise GraphError("self-loops are not allowed")
        edge = Edge(producer, consumer)
        if edge in self._edges:
            raise GraphError(f"duplicate edge {producer!r} -> {consumer!r}")
        prod, cons = self._stages[producer], self._stages[consumer]
        if prod.element_width_out != cons.element_width_in:
            raise GraphError(
                f"element width mismatch on {producer!r} -> {consumer!r}: "
                f"{prod.element_width_out} vs {cons.element_width_in}"
            )
        self._edges.append(edge)
        return self

    @classmethod
    def chain(cls, stages: Sequence[StageSpec]) -> "DataflowGraph":
        """Build a linear pipeline from an ordered stage list."""
        graph = cls()
        for spec in stages:
            graph.add_stage(spec)
        for prev, cur in zip(stages[:-1], stages[1:]):
            graph.connect(prev.name, cur.name)
        return graph

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stages(self) -> Dict[str, StageSpec]:
        return dict(self._stages)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    def stage(self, name: str) -> StageSpec:
        try:
            return self._stages[name]
        except KeyError:
            raise GraphError(f"unknown stage {name!r}") from None

    def producers_of(self, name: str) -> List[str]:
        self.stage(name)
        return [e.producer for e in self._edges if e.consumer == name]

    def consumers_of(self, name: str) -> List[str]:
        self.stage(name)
        return [e.consumer for e in self._edges if e.producer == name]

    def sources(self) -> List[str]:
        return [n for n in self._stages if not self.producers_of(n)]

    def sinks(self) -> List[str]:
        return [n for n in self._stages if not self.consumers_of(n)]

    def topological_order(self) -> List[str]:
        """Stage names in dependency order; raises on cycles."""
        in_degree = {n: len(self.producers_of(n)) for n in self._stages}
        ready = sorted(n for n, d in in_degree.items() if d == 0)
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for consumer in sorted(self.consumers_of(node)):
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    ready.append(consumer)
            ready.sort()
        if len(order) != len(self._stages):
            raise GraphError("dataflow graph contains a cycle")
        return order

    def validate(self) -> None:
        """Check DAG-ness and that every non-source/sink stage is wired."""
        order = self.topological_order()
        for name in order:
            spec = self._stages[name]
            has_in = bool(self.producers_of(name))
            has_out = bool(self.consumers_of(name))
            if spec.kind == "source" and has_in:
                raise GraphError(f"source {name!r} has incoming edges")
            if spec.kind == "sink" and has_out:
                raise GraphError(f"sink {name!r} has outgoing edges")
            if spec.kind not in ("source", "sink") and not (has_in and
                                                            has_out):
                raise GraphError(
                    f"stage {name!r} must have both producers and consumers"
                )

    # ------------------------------------------------------------------
    # Workload binding
    # ------------------------------------------------------------------
    def instantiate(self, n_input_elements: int) -> "InstantiatedGraph":
        """Bind the graph to a workload of *n_input_elements* per source.

        Element totals ``W`` propagate through each stage by its gain
        (τ_out / τ_in); fan-in stages consume their producers' combined
        output.
        """
        if n_input_elements <= 0:
            raise GraphError("n_input_elements must be positive")
        self.validate()
        order = self.topological_order()
        w_in: Dict[str, float] = {}
        w_out: Dict[str, float] = {}
        for name in order:
            spec = self._stages[name]
            producers = self.producers_of(name)
            if not producers:
                w_in[name] = float(n_input_elements)
            else:
                w_in[name] = sum(w_out[p] for p in producers)
            if spec.kind == "source":
                w_out[name] = float(n_input_elements)
            else:
                w_out[name] = w_in[name] * spec.gain
        return InstantiatedGraph(self, w_in, w_out)


@dataclass
class InstantiatedGraph:
    """A dataflow graph bound to concrete per-stage element totals."""

    graph: DataflowGraph
    w_in: Dict[str, float]
    w_out: Dict[str, float]

    def write_duration(self, name: str) -> float:
        """Cycles stage *name* spends writing its output (W / τ_out)."""
        return self.w_out[name] / self.graph.stage(name).tau_out

    def read_duration(self, name: str) -> float:
        """Cycles stage *name* spends reading fresh input (W_in / τ_in)."""
        spec = self.graph.stage(name)
        if spec.kind == "source":
            return 0.0
        return self.w_in[name] / spec.tau_in

    def busy_duration(self, name: str) -> float:
        """Total busy time of the stage (max of read and write phases)."""
        return max(self.read_duration(name), self.write_duration(name))

    def edge_rates(self, edge) -> Tuple[float, float]:
        """(τ_out of producer, τ_in of consumer) for one edge."""
        return (self.graph.stage(edge.producer).tau_out,
                self.graph.stage(edge.consumer).tau_in)
