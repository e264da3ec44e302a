"""Computation graphs, operators and the transformer block structure."""

import pytest

from repro.core.dims import Dim, Phase
from repro.graph.graph import ComputationGraph, Edge
from repro.graph.models import (
    BENCHMARK_MODELS,
    BLOOM_176B,
    LLAMA2_70B,
    OPT_175B,
    OPT_6_7B,
)
from repro.graph.operators import OpKind, OperatorSpec
from repro.graph.transformer import (
    BLOCK_NODE_NAMES,
    BlockShape,
    build_block_graph,
    build_mlp_graph,
)


def _op(name, kind=OpKind.ELEMENTWISE):
    return OperatorSpec(
        name=name,
        kind=kind,
        dim_axes={Dim.B: ("batch",), Dim.M: ("seq",), Dim.K: ("hidden",)},
        axis_sizes={"batch": 4, "seq": 16, "hidden": 32},
    )


class TestGraphValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ComputationGraph([_op("a"), _op("a")], [])

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValueError):
            ComputationGraph([_op("a")], [Edge("a", "b")])

    def test_backward_edge_rejected(self):
        with pytest.raises(ValueError):
            ComputationGraph([_op("a"), _op("b")], [Edge("b", "a")])

    def test_duplicate_slot_rejected(self):
        with pytest.raises(ValueError):
            ComputationGraph(
                [_op("a"), _op("b"), _op("c")],
                [Edge("a", "c", "I"), Edge("b", "c", "I")],
            )

    def test_lookups(self):
        g = ComputationGraph([_op("a"), _op("b")], [Edge("a", "b")])
        assert g.node("a").name == "a"
        assert g.index("b") == 1
        assert [e.src for e in g.in_edges("b")] == ["a"]
        assert [e.dst for e in g.out_edges("a")] == ["b"]
        assert len(g) == 2


class TestOperatorSpec:
    def test_linear_dims(self):
        op = OperatorSpec(
            name="fc",
            kind=OpKind.LINEAR,
            dim_axes={
                Dim.B: ("batch",), Dim.M: ("seq",),
                Dim.N: ("hidden",), Dim.K: ("ffn",),
            },
            axis_sizes={"batch": 4, "seq": 16, "hidden": 32, "ffn": 64},
        )
        assert op.dim_size(Dim.N) == 32
        assert op.present_dims == (Dim.B, Dim.M, Dim.N, Dim.K)
        assert op.allow_temporal
        assert op.parameter_elements() == 32 * 64
        assert op.flops(Phase.FORWARD) == 2 * 4 * 16 * 32 * 64

    def test_softmax_protects_reduction_dim(self):
        op = OperatorSpec(
            name="sm",
            kind=OpKind.SOFTMAX,
            dim_axes={Dim.B: ("batch", "heads"), Dim.M: ("seq",), Dim.K: ("seq_k",)},
            axis_sizes={"batch": 4, "heads": 8, "seq": 16, "seq_k": 16},
        )
        assert Dim.K not in op.legal_dims
        assert not op.allow_temporal

    def test_attention_matmul_protects_embed(self):
        op = OperatorSpec(
            name="scores",
            kind=OpKind.MATMUL,
            dim_axes={
                Dim.B: ("batch", "heads"), Dim.M: ("seq",),
                Dim.N: ("embed",), Dim.K: ("seq_k",),
            },
            axis_sizes={"batch": 4, "heads": 8, "seq": 16, "embed": 64, "seq_k": 16},
        )
        assert Dim.N not in op.legal_dims
        assert not op.allow_temporal
        assert op.parameter_elements() == 0

    def test_attention_axis_options(self):
        op = OperatorSpec(
            name="scores",
            kind=OpKind.MATMUL,
            dim_axes={
                Dim.B: ("batch", "heads"), Dim.M: ("seq",),
                Dim.N: ("embed",), Dim.K: ("seq_k",),
            },
            axis_sizes={"batch": 4, "heads": 8, "seq": 16, "embed": 64, "seq_k": 16},
        )
        assert op.partition_axis_options(Dim.B) == ("batch", "heads")
        assert op.partition_axis_options(Dim.M) == (None,)

    def test_layernorm_parameters(self):
        op = _op("ln", OpKind.LAYERNORM)
        assert op.parameter_elements() == 2 * 32
        assert op.flops(Phase.GRADIENT) > 0

    def test_elementwise_gradient_free(self):
        op = _op("add")
        assert op.flops(Phase.GRADIENT) == 0.0


class TestTransformerBlock:
    def test_node_ordering_matches_fig6(self, small_block):
        names = [n.name for n in small_block.nodes]
        assert names[0] == "input"
        assert names[1:] == [f"L0.{n}" for n in BLOCK_NODE_NAMES]

    def test_extended_edges(self, small_block):
        extended = {(e.src, e.dst) for e in small_block.extended_edges()}
        assert ("L0.qkv", "L0.context") in extended
        assert ("input", "L0.add1") in extended
        assert ("L0.add1", "L0.add2") in extended
        assert len(extended) == 3

    def test_qkv_feeds_three_consumers(self, small_block):
        outs = small_block.out_edges("L0.qkv")
        assert len(outs) == 3
        fixed = sorted(
            (e.dst.split(".")[-1], e.slot, e.src_fixed["qkv"].start)
            for e in outs
        )
        assert fixed == [("context", "W", 2), ("scores", "I", 0), ("scores", "W", 1)]

    def test_attention_key_axis_renamed(self, small_block):
        edge = next(
            e for e in small_block.edges
            if e.dst == "L0.scores" and e.slot == "W"
        )
        assert edge.axis_map == {"seq": "seq_k"}

    def test_residual_adds_do_not_stash(self, small_block):
        assert not small_block.node("L0.add1").stash_inputs
        assert not small_block.node("L0.add2").stash_inputs
        assert small_block.node("L0.act").stash_inputs

    def test_multi_layer_chaining(self):
        g = build_block_graph(OPT_6_7B.block_shape(batch=8), n_layers=3)
        assert len(g.nodes) == 1 + 3 * len(BLOCK_NODE_NAMES)
        assert "L2.add2" in [n.name for n in g.nodes]
        assert ("L0.add2", "L1.add1") in {(e.src, e.dst) for e in g.edges}

    def test_mlp_graph(self, small_mlp):
        assert [n.name for n in small_mlp.nodes] == ["input", "fc1", "act", "fc2"]

    def test_embed_divisibility_checked(self):
        with pytest.raises(ValueError):
            BlockShape(batch=8, seq=128, hidden=100, heads=3, ffn=400).embed


class TestModels:
    def test_parameter_counts(self):
        # within 6% of the nominal sizes
        assert OPT_175B.parameters / 175e9 == pytest.approx(1.0, abs=0.06)
        assert OPT_6_7B.parameters / 6.7e9 == pytest.approx(1.0, abs=0.06)
        assert BLOOM_176B.parameters / 176e9 == pytest.approx(1.0, abs=0.06)

    def test_embed_is_128_for_all(self):
        for model in BENCHMARK_MODELS:
            assert model.hidden // model.heads == 128

    def test_block_shape(self):
        shape = LLAMA2_70B.block_shape(batch=16)
        assert shape.hidden == 8192
        assert shape.seq == LLAMA2_70B.default_seq
        assert shape.axis_sizes()["qkv"] == 3

    def test_total_flops_positive(self, small_block):
        assert small_block.total_flops() > 0
        assert small_block.total_parameters() > 0
