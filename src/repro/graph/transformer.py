"""Transformer block computation graphs (paper Fig. 6).

One block is the 13-node chain the paper's segmented DP operates on::

    n0  input anchor (previous layer's residual add)
    n1  layernorm 1
    n2  fused QKV projection           (extended edges to n3/n5: K, V)
    n3  attention scores  Q @ K^T
    n4  softmax
    n5  attention context scores @ V
    n6  output projection
    n7  residual add 1                 (extended edge from n0)
    n8  layernorm 2
    n9  fc1
    n10 activation
    n11 fc2
    n12 residual add 2                 (extended edge from n7)

with segments ``[0,2]``, ``[2,7]``, ``[7,12]`` (paper Sec. 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.dims import Dim
from .graph import ComputationGraph, Edge
from .operators import OpKind, OperatorSpec
from .tensors import AxisInterval


@dataclass(frozen=True)
class BlockShape:
    """Logical axis sizes of one transformer block instance.

    Attributes:
        batch: Global batch size of the training iteration.
        seq: Sequence length.
        hidden: Model hidden size (``heads * embed``).
        heads: Attention head count.
        ffn: MLP intermediate size.
    """

    batch: int
    seq: int
    hidden: int
    heads: int
    ffn: int

    @property
    def embed(self) -> int:
        if self.hidden % self.heads:
            raise ValueError("hidden must be divisible by heads")
        return self.hidden // self.heads

    def axis_sizes(self) -> Dict[str, int]:
        return {
            "batch": self.batch,
            "seq": self.seq,
            "seq_k": self.seq,
            "hidden": self.hidden,
            "heads": self.heads,
            "embed": self.embed,
            "qkv": 3,
            "ffn": self.ffn,
        }


#: Node names of one block in topological order (n0 excluded — it is the
#: previous block's output anchor).
BLOCK_NODE_NAMES: Tuple[str, ...] = (
    "ln1",
    "qkv",
    "scores",
    "softmax",
    "context",
    "out_proj",
    "add1",
    "ln2",
    "fc1",
    "act",
    "fc2",
    "add2",
)

#: Paper Fig. 6 segment boundaries, as node names including the anchor.
SEGMENT_ANCHORS: Tuple[str, ...] = ("input", "qkv", "add1", "add2")


def _block_nodes(shape: BlockShape, prefix: str) -> List[OperatorSpec]:
    axes = shape.axis_sizes()
    hidden_t = ("hidden",)
    seq_t = ("seq",)
    batch_t = ("batch",)
    bh = ("batch", "heads")

    def op(name: str, kind: OpKind, dim_axes: Dict[Dim, Tuple[str, ...]], **kw) -> OperatorSpec:
        return OperatorSpec(
            name=prefix + name, kind=kind, dim_axes=dim_axes, axis_sizes=axes, **kw
        )

    return [
        op("ln1", OpKind.LAYERNORM, {Dim.B: batch_t, Dim.M: seq_t, Dim.K: hidden_t}),
        op(
            "qkv",
            OpKind.LINEAR,
            {Dim.B: batch_t, Dim.M: seq_t, Dim.N: hidden_t,
             Dim.K: ("heads", "qkv", "embed")},
        ),
        op(
            "scores",
            OpKind.MATMUL,
            {Dim.B: bh, Dim.M: seq_t, Dim.N: ("embed",), Dim.K: ("seq_k",)},
        ),
        op("softmax", OpKind.SOFTMAX, {Dim.B: bh, Dim.M: seq_t, Dim.K: ("seq_k",)}),
        op(
            "context",
            OpKind.MATMUL,
            {Dim.B: bh, Dim.M: seq_t, Dim.N: ("seq_k",), Dim.K: ("embed",)},
        ),
        op(
            "out_proj",
            OpKind.LINEAR,
            {Dim.B: batch_t, Dim.M: seq_t, Dim.N: ("heads", "embed"),
             Dim.K: hidden_t},
        ),
        op("add1", OpKind.ELEMENTWISE,
           {Dim.B: batch_t, Dim.M: seq_t, Dim.K: hidden_t},
           pointwise_flops=1.0, stash_inputs=False),
        op("ln2", OpKind.LAYERNORM, {Dim.B: batch_t, Dim.M: seq_t, Dim.K: hidden_t}),
        op(
            "fc1",
            OpKind.LINEAR,
            {Dim.B: batch_t, Dim.M: seq_t, Dim.N: hidden_t, Dim.K: ("ffn",)},
        ),
        op("act", OpKind.ELEMENTWISE,
           {Dim.B: batch_t, Dim.M: seq_t, Dim.K: ("ffn",)}, pointwise_flops=4.0),
        op(
            "fc2",
            OpKind.LINEAR,
            {Dim.B: batch_t, Dim.M: seq_t, Dim.N: ("ffn",), Dim.K: hidden_t},
        ),
        op("add2", OpKind.ELEMENTWISE,
           {Dim.B: batch_t, Dim.M: seq_t, Dim.K: hidden_t},
           pointwise_flops=1.0, stash_inputs=False),
    ]


def _block_edges(prefix: str, anchor: str) -> List[Edge]:
    p = prefix
    q_third = {"qkv": AxisInterval(0, 1)}
    k_third = {"qkv": AxisInterval(1, 2)}
    v_third = {"qkv": AxisInterval(2, 3)}
    to_keys = {"seq": "seq_k"}
    return [
        Edge(anchor, p + "ln1", "I"),
        Edge(p + "ln1", p + "qkv", "I"),
        Edge(p + "qkv", p + "scores", "I", src_fixed=q_third),
        Edge(p + "qkv", p + "scores", "W", axis_map=to_keys, src_fixed=k_third),
        Edge(p + "scores", p + "softmax", "I"),
        Edge(p + "softmax", p + "context", "I"),
        Edge(p + "qkv", p + "context", "W", axis_map=to_keys, src_fixed=v_third),
        Edge(p + "context", p + "out_proj", "I"),
        Edge(p + "out_proj", p + "add1", "I"),
        Edge(anchor, p + "add1", "I2"),
        Edge(p + "add1", p + "ln2", "I"),
        Edge(p + "ln2", p + "fc1", "I"),
        Edge(p + "fc1", p + "act", "I"),
        Edge(p + "act", p + "fc2", "I"),
        Edge(p + "fc2", p + "add2", "I"),
        Edge(p + "add1", p + "add2", "I2"),
    ]


def build_block_graph(shape: BlockShape, n_layers: int = 1) -> ComputationGraph:
    """Build ``n_layers`` stacked transformer blocks plus an input anchor.

    The anchor node ``input`` stands for the previous stage's output (the
    paper's ``n0``); layer ``i`` nodes are prefixed ``L{i}.``.
    """
    axes = shape.axis_sizes()
    # The anchor stands for the previous layer's residual add (paper Fig. 6
    # n0); sharing add2's operator type lets the layer table chain into
    # itself when layers are stacked (endpoint candidate spaces must match).
    anchor = OperatorSpec(
        name="input",
        kind=OpKind.ELEMENTWISE,
        dim_axes={Dim.B: ("batch",), Dim.M: ("seq",), Dim.K: ("hidden",)},
        axis_sizes=axes,
        pointwise_flops=1.0,
        stash_inputs=False,
    )
    nodes: List[OperatorSpec] = [anchor]
    edges: List[Edge] = []
    previous = "input"
    for layer in range(n_layers):
        prefix = f"L{layer}."
        nodes.extend(_block_nodes(shape, prefix))
        edges.extend(_block_edges(prefix, previous))
        previous = prefix + "add2"
    return ComputationGraph(nodes, edges)


def build_mlp_graph(shape: BlockShape) -> ComputationGraph:
    """The MLP sub-block alone (paper Fig. 9's ablation workload)."""
    axes = shape.axis_sizes()
    anchor = OperatorSpec(
        name="input",
        kind=OpKind.ELEMENTWISE,
        dim_axes={Dim.B: ("batch",), Dim.M: ("seq",), Dim.K: ("hidden",)},
        axis_sizes=axes,
        pointwise_flops=0.0,
        stash_inputs=False,
    )

    def op(name: str, kind: OpKind, dim_axes, **kw) -> OperatorSpec:
        return OperatorSpec(name=name, kind=kind, dim_axes=dim_axes, axis_sizes=axes, **kw)

    nodes = [
        anchor,
        op("fc1", OpKind.LINEAR,
           {Dim.B: ("batch",), Dim.M: ("seq",), Dim.N: ("hidden",), Dim.K: ("ffn",)}),
        op("act", OpKind.ELEMENTWISE,
           {Dim.B: ("batch",), Dim.M: ("seq",), Dim.K: ("ffn",)}, pointwise_flops=4.0),
        op("fc2", OpKind.LINEAR,
           {Dim.B: ("batch",), Dim.M: ("seq",), Dim.N: ("ffn",), Dim.K: ("hidden",)}),
    ]
    edges = [
        Edge("input", "fc1", "I"),
        Edge("fc1", "act", "I"),
        Edge("act", "fc2", "I"),
    ]
    return ComputationGraph(nodes, edges)
