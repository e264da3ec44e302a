"""Inter-operator redistribution cost (Eq. 8-9)."""

import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import legacy_inter  # noqa: E402  (frozen per-rank model, lives next to this file)
from repro.core.cost.inter import InterOperatorCostModel
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.core.spec import PartitionSpec
from repro.graph.graph import Edge
from repro.graph.models import MODELS_BY_KEY
from repro.graph.transformer import build_block_graph


@pytest.fixture(scope="module")
def inter8(profiler8):
    return InterOperatorCostModel(profiler8)


def _edge(graph, src, dst, slot="I"):
    return next(
        e for e in graph.edges if e.src == src and e.dst == dst and e.slot == slot
    )


class TestAlignedEdges:
    def test_identical_pointwise_layout_is_free(self, inter8, large_mlp):
        fc1, act = large_mlp.node("fc1"), large_mlp.node("act")
        edge = _edge(large_mlp, "fc1", "act")
        fc1_spec = PartitionSpec.from_string("B-K-K", 3)
        act_spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        assert inter8.cost(edge, fc1, fc1_spec, act, act_spec) == 0.0

    def test_megatron_column_to_activation_free(self, inter8, large_mlp):
        """fc1 column-parallel output lands exactly where act needs it."""
        fc1, act = large_mlp.node("fc1"), large_mlp.node("act")
        edge = _edge(large_mlp, "fc1", "act")
        fc1_spec = PartitionSpec.from_string("B-K-K", 3)
        act_spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        assert inter8.cost(edge, fc1, fc1_spec, act, act_spec) == 0.0

    def test_row_parallel_replicated_output_free_into_any_batch_split(
        self, inter8, large_mlp
    ):
        """After fc2's all-reduce every device holds the full output."""
        act, fc2 = large_mlp.node("act"), large_mlp.node("fc2")
        edge = _edge(large_mlp, "act", "fc2")
        act_spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        fc2_spec = PartitionSpec.from_string("B-N-N", 3)
        assert inter8.cost(edge, act, act_spec, fc2, fc2_spec) == 0.0


class TestMisalignedEdges:
    def test_transposed_layout_costs(self, inter8, large_mlp):
        fc1, act = large_mlp.node("fc1"), large_mlp.node("act")
        edge = _edge(large_mlp, "fc1", "act")
        fc1_spec = PartitionSpec.from_string("B-K-K", 3)
        act_spec = PartitionSpec.from_string(
            "K-K-B", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        assert inter8.cost(edge, fc1, fc1_spec, act, act_spec) > 0.0

    def test_intra_node_skew_cheaper_than_cross_node(self, inter8, large_mlp):
        """The Cannon skew entering a temporal region stays on NVLink."""
        fc1, act = large_mlp.node("fc1"), large_mlp.node("act")
        edge = _edge(large_mlp, "act", "fc2")
        act, fc2 = large_mlp.node("act"), large_mlp.node("fc2")
        act_spec = PartitionSpec.from_string(
            "K-M-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        temporal = PartitionSpec.from_string("N-P2x2", 3)  # skew differs intra-node
        shuffled = PartitionSpec.from_string("P2x2-N", 3)  # differs across nodes
        cheap = inter8.cost(edge, act, act_spec, fc2, temporal)
        costly = inter8.cost(edge, act, act_spec, fc2, shuffled)
        assert cheap < costly

    def test_traffic_split_reported(self, inter8, large_mlp):
        act, fc2 = large_mlp.node("act"), large_mlp.node("fc2")
        edge = _edge(large_mlp, "act", "fc2")
        act_spec = PartitionSpec.from_string(
            "K-M-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        fc2_spec = PartitionSpec.from_string("N-P2x2", 3)
        intra, inter = inter8.forward_traffic_matrix(
            edge, act, [act_spec], fc2, [fc2_spec]
        )
        assert intra[0, 0] > 0
        assert inter[0, 0] == 0.0


class TestMatrixConsistency:
    def test_matrix_matches_scalar(self, inter8, large_mlp):
        act, fc2 = large_mlp.node("act"), large_mlp.node("fc2")
        edge = _edge(large_mlp, "act", "fc2")
        act_specs = [
            PartitionSpec.from_string(s, 3, legal_dims=act.legal_dims,
                                      allow_temporal=False)
            for s in ("B-K-K", "K-M-K", "B-B-K")
        ]
        fc2_specs = [
            PartitionSpec.from_string(s, 3) for s in ("B-N-N", "N-P2x2", "K-B-B")
        ]
        matrix = inter8.cost_matrix(edge, act, act_specs, fc2, fc2_specs)
        for i, sa in enumerate(act_specs):
            for j, sf in enumerate(fc2_specs):
                assert matrix[i, j] == pytest.approx(
                    inter8.cost(edge, act, sa, fc2, sf)
                )

    def test_directional_costs_sum_to_less_than_total(self, inter8, large_mlp):
        act, fc2 = large_mlp.node("act"), large_mlp.node("fc2")
        edge = _edge(large_mlp, "act", "fc2")
        act_spec = PartitionSpec.from_string(
            "K-M-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        fc2_spec = PartitionSpec.from_string("K-B-B", 3)
        fwd, bwd = inter8.directional_costs(edge, act, act_spec, fc2, fc2_spec)
        assert fwd >= 0 and bwd >= 0
        assert fwd + bwd == pytest.approx(
            inter8.cost(edge, act, act_spec, fc2, fc2_spec), rel=0.2
        )


class TestQkvThirds:
    def test_head_aligned_qkv_to_scores_free(self, profiler8, large_block):
        """Megatron: head-split QKV feeds head-split scores with no traffic."""
        inter = InterOperatorCostModel(profiler8)
        qkv = large_block.node("L0.qkv")
        scores = large_block.node("L0.scores")
        edge = _edge(large_block, "L0.qkv", "L0.scores", slot="I")
        qkv_spec = PartitionSpec.from_string("B-K[heads]-K[heads]", 3)
        scores_spec = PartitionSpec.from_string(
            "B[batch]-B[heads]-B[heads]", 3,
            legal_dims=scores.legal_dims, allow_temporal=False,
        )
        assert inter.cost(edge, qkv, qkv_spec, scores, scores_spec) == 0.0

    def test_batch_split_scores_from_head_split_qkv_costs(
        self, profiler8, large_block
    ):
        inter = InterOperatorCostModel(profiler8)
        qkv = large_block.node("L0.qkv")
        scores = large_block.node("L0.scores")
        edge = _edge(large_block, "L0.qkv", "L0.scores", slot="I")
        qkv_spec = PartitionSpec.from_string("B-K[heads]-K[heads]", 3)
        scores_spec = PartitionSpec.from_string(
            "B[batch]-B[batch]-B[batch]", 3,
            legal_dims=scores.legal_dims, allow_temporal=False,
        )
        assert inter.cost(edge, qkv, qkv_spec, scores, scores_spec) > 0.0

    def test_w_slot_uses_key_third(self, profiler8, large_block):
        """K-tensor edge intersects only the middle qkv third."""
        inter = InterOperatorCostModel(profiler8)
        qkv = large_block.node("L0.qkv")
        scores = large_block.node("L0.scores")
        edge_w = _edge(large_block, "L0.qkv", "L0.scores", slot="W")
        qkv_spec = PartitionSpec.from_string("B-K[heads]-K[heads]", 3)
        scores_spec = PartitionSpec.from_string(
            "B[batch]-B[heads]-B[heads]", 3,
            legal_dims=scores.legal_dims, allow_temporal=False,
        )
        assert inter.cost(edge_w, qkv, qkv_spec, scores, scores_spec) == 0.0


def _frozen_boundaries(op, specs):
    return [legacy_inter.NodeBoundary(op, spec) for spec in specs]


class TestFrozenEquivalence:
    """Batched decoding prices edges to the bytes of the frozen per-rank model."""

    @pytest.mark.parametrize(
        "model_key,profiler_name,beam",
        [
            ("opt-175b", "profiler4", None),
            ("llama2-70b", "profiler8", None),
            ("opt-175b", "profiler16", 48),
        ],
    )
    def test_cost_matrix_bytes_match_frozen(
        self, request, model_key, profiler_name, beam
    ):
        profiler = request.getfixturevalue(profiler_name)
        graph = build_block_graph(MODELS_BY_KEY[model_key].block_shape(batch=16))
        candidates = PrimeParOptimizer(profiler, beam=beam).candidates_for(graph)
        batched = InterOperatorCostModel(profiler)
        frozen = legacy_inter.InterOperatorCostModel(profiler)
        for edge in graph.edges:
            src, dst = candidates[edge.src], candidates[edge.dst]
            matrix = batched.cost_matrix(edge, src.op, src.specs, dst.op, dst.specs)
            golden = frozen.cost_matrix(
                edge,
                src.op,
                _frozen_boundaries(src.op, src.specs),
                dst.op,
                _frozen_boundaries(dst.op, dst.specs),
            )
            assert matrix.shape == golden.shape == (len(src), len(dst))
            assert matrix.tobytes() == golden.tobytes(), edge.key()

    def test_single_spec_paths_match_frozen(self, profiler8, large_block):
        batched = InterOperatorCostModel(profiler8)
        frozen = legacy_inter.InterOperatorCostModel(profiler8)
        candidates = PrimeParOptimizer(profiler8).candidates_for(large_block)
        for edge in large_block.edges:
            src, dst = candidates[edge.src], candidates[edge.dst]
            for prod_spec in src.specs[:4]:
                for cons_spec in dst.specs[:4]:
                    args = (edge, src.op, prod_spec, dst.op, cons_spec)
                    expected = frozen.directional_costs(*args)
                    # The second call reads the boxes memoized by the first.
                    assert batched.directional_costs(*args) == expected
                    assert batched.directional_costs(*args) == expected
                    assert batched.cost(*args) == frozen.cost(*args)


class TestBoxMemo:
    def test_memo_is_not_pickled(self, inter8, large_mlp):
        """A priced plan spec pickles to the bytes it had without the memo."""
        act, fc2 = large_mlp.node("act"), large_mlp.node("fc2")
        edge = _edge(large_mlp, "act", "fc2")

        def specs():
            return (
                PartitionSpec.from_string(
                    "K-M-K", 3, legal_dims=act.legal_dims, allow_temporal=False
                ),
                PartitionSpec.from_string("N-P2x2", 3),
            )

        act_spec, fc2_spec = specs()
        inter8.directional_costs(edge, act, act_spec, fc2, fc2_spec)
        assert act_spec.evaluator.box_memo and fc2_spec.evaluator.box_memo
        # Twins priced by the frozen model touch the same DSI matrices and
        # never had a box memo.
        act_twin, fc2_twin = specs()
        legacy_inter.InterOperatorCostModel(inter8.profiler).directional_costs(
            edge, act, act_twin, fc2, fc2_twin
        )
        for spec, twin in ((act_spec, act_twin), (fc2_spec, fc2_twin)):
            data = pickle.dumps(spec, pickle.HIGHEST_PROTOCOL)
            assert len(data) == len(pickle.dumps(twin, pickle.HIGHEST_PROTOCOL))
            assert data == pickle.dumps(twin, pickle.HIGHEST_PROTOCOL)
            clone = pickle.loads(data)
            assert clone == spec and not clone.evaluator.box_memo

    def test_memo_keyed_by_operator_layout(self, inter8, large_block):
        """One spec priced against two operators decodes each one's axes."""
        frozen = legacy_inter.InterOperatorCostModel(inter8.profiler)
        qkv = large_block.node("L0.qkv")
        scores = large_block.node("L0.scores")
        edge = _edge(large_block, "L0.qkv", "L0.scores", slot="I")
        fc1, act = large_block.node("L0.fc1"), large_block.node("L0.act")
        fc1_edge = _edge(large_block, "L0.fc1", "L0.act")
        shared = PartitionSpec.from_string("B-K-K", 3)
        scores_spec = PartitionSpec.from_string(
            "B[batch]-B[heads]-B[heads]", 3,
            legal_dims=scores.legal_dims, allow_temporal=False,
        )
        act_spec = PartitionSpec.from_string(
            "K-M-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        for args in (
            (edge, qkv, shared, scores, scores_spec),
            (fc1_edge, fc1, shared, act, act_spec),
        ):
            assert inter8.directional_costs(*args) == frozen.directional_costs(*args)
