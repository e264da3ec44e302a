"""Computation graphs of operators connected by tensor edges.

Nodes are :class:`~repro.graph.operators.OperatorSpec`; edges connect a
producer's output to one input slot of a consumer, optionally renaming
logical axes (``seq -> seq_k`` for attention's key/value side) or selecting
a fixed sub-range of a producer axis (the Q/K/V thirds of a fused QKV
projection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .operators import OperatorSpec
from .tensors import AxisInterval


@dataclass(frozen=True)
class Edge:
    """A tensor dependency from ``src``'s output into ``dst``'s input slot.

    Attributes:
        src: Producer node name.
        dst: Consumer node name.
        slot: Consumer slot the tensor feeds (``I``, ``W``, ``I2``).
        axis_map: Renames producer axes into consumer axis names.
        src_fixed: Producer axes restricted to a fixed interval — used when
            the consumer reads a sub-tensor (e.g. the Q third of a fused QKV
            output selects ``qkv in [0, 1)``).
    """

    src: str
    dst: str
    slot: str = "I"
    axis_map: Mapping[str, str] = field(default_factory=dict)
    src_fixed: Mapping[str, AxisInterval] = field(default_factory=dict)

    def map_axis(self, producer_axis: str) -> str:
        return self.axis_map.get(producer_axis, producer_axis)

    def key(self) -> Tuple[str, str, str]:
        return (self.src, self.dst, self.slot)


class ComputationGraph:
    """A DAG of operators in topological order.

    Args:
        nodes: Operators, already topologically sorted (producers first).
        edges: Tensor dependencies between them.

    Raises:
        ValueError: On duplicate node names, dangling edges or edges going
            backwards in the supplied order.
    """

    def __init__(self, nodes: Sequence[OperatorSpec], edges: Sequence[Edge]) -> None:
        self.nodes: Tuple[OperatorSpec, ...] = tuple(nodes)
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self._index: Dict[str, int] = {}
        for i, node in enumerate(self.nodes):
            if node.name in self._index:
                raise ValueError(f"duplicate node name {node.name!r}")
            self._index[node.name] = i
        seen_slots = set()
        for edge in self.edges:
            if edge.src not in self._index or edge.dst not in self._index:
                raise ValueError(f"edge {edge.key()} references unknown node")
            if self._index[edge.src] >= self._index[edge.dst]:
                raise ValueError(
                    f"edge {edge.key()} violates topological order"
                )
            slot_key = (edge.dst, edge.slot)
            if slot_key in seen_slots:
                raise ValueError(f"slot {slot_key} fed by multiple edges")
            seen_slots.add(slot_key)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> OperatorSpec:
        return self.nodes[self._index[name]]

    def index(self, name: str) -> int:
        return self._index[name]

    def in_edges(self, name: str) -> List[Edge]:
        return [e for e in self.edges if e.dst == name]

    def out_edges(self, name: str) -> List[Edge]:
        return [e for e in self.edges if e.src == name]

    # ------------------------------------------------------------------
    # structure analysis for segmented DP (paper Sec. 5.1)
    # ------------------------------------------------------------------

    def extended_edges(self) -> List[Edge]:
        """Edges whose destination is not the topologically next node."""
        return [
            e
            for e in self.edges
            if self._index[e.dst] != self._index[e.src] + 1
        ]

    def total_parameters(self) -> int:
        return sum(node.parameter_elements() for node in self.nodes)

    def total_flops(self) -> float:
        from ..core.dims import ALL_PHASES

        return sum(node.flops(ph) for node in self.nodes for ph in ALL_PHASES)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputationGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"
        )
