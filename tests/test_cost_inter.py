"""Inter-operator redistribution cost (Eq. 8-9)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import legacy_inter  # noqa: E402  (frozen per-rank model, lives next to this file)
from oracles import (  # noqa: E402  (scalar oracles)
    axis_intervals,
    heap_id_matrix,
    slice_interval,
)
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import torus_cluster, v100_cluster
from repro.core.cost import inter as inter_module
from repro.core.cost.inter import (
    InterOperatorCostModel,
    SliceTables,
    boundary_axes,
    slice_ids,
)
from repro.core.dims import ALL_DIMS, Dim
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.core.spec import PartitionSpec
from repro.core.steps import BOUNDARY_POINTS
from repro.graph.graph import Edge
from repro.graph.models import MODELS_BY_KEY
from repro.graph.transformer import build_block_graph
from repro.sim.engine import EventDrivenSimulator


@pytest.fixture(scope="module")
def inter8(profiler8):
    return InterOperatorCostModel(profiler8)


def _edge(graph, src, dst, slot="I"):
    return next(
        e for e in graph.edges if e.src == src and e.dst == dst and e.slot == slot
    )


def _price(model, edge, prod_op, prod_spec, cons_op, cons_spec):
    """``edge_costs`` of one spec per side, each with its own decoder."""
    return model.edge_costs(
        edge,
        SliceTables.decode(prod_op, [prod_spec]),
        SliceTables.decode(cons_op, [cons_spec]),
    )


class TestAlignedEdges:
    def test_identical_pointwise_layout_is_free(self, inter8, large_mlp):
        fc1, act = large_mlp.node("fc1"), large_mlp.node("act")
        edge = _edge(large_mlp, "fc1", "act")
        fc1_spec = PartitionSpec.from_string("B-K-K", 3)
        act_spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        assert _price(inter8, edge, fc1, fc1_spec, act, act_spec)[0] == 0.0

    def test_megatron_column_to_activation_free(self, inter8, large_mlp):
        """fc1 column-parallel output lands exactly where act needs it."""
        fc1, act = large_mlp.node("fc1"), large_mlp.node("act")
        edge = _edge(large_mlp, "fc1", "act")
        fc1_spec = PartitionSpec.from_string("B-K-K", 3)
        act_spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        assert _price(inter8, edge, fc1, fc1_spec, act, act_spec)[0] == 0.0

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
        assert _price(inter8, edge, act, act_spec, fc2, fc2_spec)[0] == 0.0


class TestMisalignedEdges:
    def test_transposed_layout_costs(self, inter8, large_mlp):
        fc1, act = large_mlp.node("fc1"), large_mlp.node("act")
        edge = _edge(large_mlp, "fc1", "act")
        fc1_spec = PartitionSpec.from_string("B-K-K", 3)
        act_spec = PartitionSpec.from_string(
            "K-K-B", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        assert _price(inter8, edge, fc1, fc1_spec, act, act_spec)[0] > 0.0

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
        cheap = _price(inter8, edge, act, act_spec, fc2, temporal)[0]
        costly = _price(inter8, edge, act, act_spec, fc2, shuffled)[0]
        assert cheap < costly

    def test_traffic_split_reported(self, inter8, large_mlp):
        act, fc2 = large_mlp.node("act"), large_mlp.node("fc2")
        edge = _edge(large_mlp, "act", "fc2")
        act_spec = PartitionSpec.from_string(
            "K-M-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        fc2_spec = PartitionSpec.from_string("N-P2x2", 3)
        intra, inter = inter8.forward_traffic_matrix(
            edge,
            SliceTables.decode(act, [act_spec]),
            SliceTables.decode(fc2, [fc2_spec]),
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
        matrix = inter8.cost_matrix(
            edge,
            SliceTables.decode(act, act_specs),
            SliceTables.decode(fc2, fc2_specs),
        )
        for i, sa in enumerate(act_specs):
            for j, sf in enumerate(fc2_specs):
                assert matrix[i, j] == pytest.approx(
                    _price(inter8, edge, act, sa, fc2, sf)[0]
                )

    def test_directional_costs_sum_to_less_than_total(self, inter8, large_mlp):
        act, fc2 = large_mlp.node("act"), large_mlp.node("fc2")
        edge = _edge(large_mlp, "act", "fc2")
        act_spec = PartitionSpec.from_string(
            "K-M-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        fc2_spec = PartitionSpec.from_string("K-B-B", 3)
        total, fwd, bwd = _price(inter8, edge, act, act_spec, fc2, fc2_spec)
        assert fwd >= 0 and bwd >= 0
        assert fwd + bwd == pytest.approx(total, rel=0.2)


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
        assert _price(inter, edge, qkv, qkv_spec, scores, scores_spec)[0] == 0.0

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
        assert _price(inter, edge, qkv, qkv_spec, scores, scores_spec)[0] > 0.0

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
        assert _price(inter, edge_w, qkv, qkv_spec, scores, scores_spec)[0] == 0.0


def _frozen_boundaries(op, specs):
    return [legacy_inter.NodeBoundary(op, spec) for spec in specs]


def _assert_edges_match_frozen(profiler, graph, candidates):
    batched = InterOperatorCostModel(profiler)
    frozen = legacy_inter.InterOperatorCostModel(profiler)
    for edge in graph.edges:
        src, dst = candidates[edge.src], candidates[edge.dst]
        matrix = batched.cost_matrix(edge, src.tables, dst.tables)
        golden = frozen.cost_matrix(
            edge,
            src.op,
            _frozen_boundaries(src.op, src.specs),
            dst.op,
            _frozen_boundaries(dst.op, dst.specs),
        )
        assert matrix.shape == golden.shape == (len(src), len(dst))
        assert matrix.tobytes() == golden.tobytes(), edge.key()


def _assert_single_specs_match_frozen(profiler, graph, candidates, per_side=4):
    batched = InterOperatorCostModel(profiler)
    frozen = legacy_inter.InterOperatorCostModel(profiler)
    for edge in graph.edges:
        src, dst = candidates[edge.src], candidates[edge.dst]
        for prod_spec in src.specs[:per_side]:
            for cons_spec in dst.specs[:per_side]:
                args = (edge, src.op, prod_spec, dst.op, cons_spec)
                expected = (frozen.cost(*args),) + frozen.directional_costs(*args)
                prod = SliceTables.decode(src.op, [prod_spec])
                cons = SliceTables.decode(dst.op, [cons_spec])
                # The repeat call prices from the same decoders.
                assert batched.edge_costs(edge, prod, cons) == expected
                assert batched.edge_costs(edge, prod, cons) == expected


#: Node-block layouts for the same-node coverage max: one GPU per node
#: (no peers), two, the whole cluster as one node, a 2D torus (one node),
#: and 32 devices at the default 4 per node.
NODE_BLOCK_CASES = {
    "gpn1": ("opt-6.7b", lambda: v100_cluster(8, gpus_per_node=1), None, 16),
    "gpn2": ("opt-6.7b", lambda: v100_cluster(8, gpus_per_node=2), None, 16),
    "gpn8": ("opt-6.7b", lambda: v100_cluster(8, gpus_per_node=8), None, 16),
    "torus2x4": ("opt-6.7b", lambda: torus_cluster(2, 4), None, 16),
    "dev32-beam48": ("opt-175b", lambda: v100_cluster(32), 48, 32),
}


@pytest.fixture(scope="module", params=sorted(NODE_BLOCK_CASES))
def node_block_case(request):
    model_key, topology, beam, batch = NODE_BLOCK_CASES[request.param]
    profiler = FabricProfiler(topology())
    graph = build_block_graph(MODELS_BY_KEY[model_key].block_shape(batch=batch))
    candidates = PrimeParOptimizer(profiler, beam=beam).candidates_for(graph)
    return profiler, graph, candidates


#: Whole-search fixtures of the frozen-model equivalence suite.
EQUIVALENCE_CASES = [
    ("opt-175b", "profiler4", None),
    ("llama2-70b", "profiler8", None),
    ("opt-175b", "profiler16", 48),
]


def _equivalence_case(request, model_key, profiler_name, beam):
    profiler = request.getfixturevalue(profiler_name)
    graph = build_block_graph(MODELS_BY_KEY[model_key].block_shape(batch=16))
    candidates = PrimeParOptimizer(profiler, beam=beam).candidates_for(graph)
    return profiler, graph, candidates


class TestFrozenEquivalence:
    """Slice-id coverage tables price edges to the frozen per-rank bytes."""

    @pytest.mark.parametrize("model_key,profiler_name,beam", EQUIVALENCE_CASES)
    def test_cost_matrix_bytes_match_frozen(
        self, request, model_key, profiler_name, beam
    ):
        _assert_edges_match_frozen(
            *_equivalence_case(request, model_key, profiler_name, beam)
        )

    def test_single_spec_paths_match_frozen(self, profiler8, large_block):
        candidates = PrimeParOptimizer(profiler8).candidates_for(large_block)
        _assert_single_specs_match_frozen(profiler8, large_block, candidates)

    def test_node_block_cost_matrices_match_frozen(self, node_block_case):
        _assert_edges_match_frozen(*node_block_case)

    def test_node_block_single_spec_paths_match_frozen(self, node_block_case):
        _assert_single_specs_match_frozen(*node_block_case)


def _assert_slice_ids_match_oracle(candidates):
    """``intervals[ids]`` equals ``axis_intervals`` for every spec and slice."""
    for candidate_set in {id(s): s for s in candidates.values()}.values():
        op = candidate_set.op
        for dim in ALL_DIMS:
            if not op.dim_axes.get(dim):
                continue
            tables = slice_ids(op, candidate_set.specs, dim)
            assert list(tables) == list(op.dim_axes[dim])
            for s, spec in enumerate(candidate_set.specs):
                for index in range(spec.slice_counts[dim]):
                    expected = axis_intervals(op, spec, dim, index)
                    for axis, (ids, intervals) in tables.items():
                        start, stop = intervals[ids[s, index]]
                        assert (start, stop) == (
                            expected[axis].start, expected[axis].stop
                        ), (op.name, str(spec), dim, index, axis)


class TestSliceIds:
    """Per-axis heap ids name the oracle's slice intervals."""

    @pytest.mark.parametrize("model_key,profiler_name,beam", EQUIVALENCE_CASES)
    def test_intervals_match_axis_intervals(
        self, request, model_key, profiler_name, beam
    ):
        _, _, candidates = _equivalence_case(request, model_key, profiler_name, beam)
        _assert_slice_ids_match_oracle(candidates)

    def test_node_block_intervals_match_axis_intervals(self, node_block_case):
        _assert_slice_ids_match_oracle(node_block_case[2])

    def test_heap_ids_are_dense_per_count(self, large_mlp):
        """Heap id ``count + index``: one id per (count, index) pair."""
        fc1 = large_mlp.node("fc1")
        specs = [PartitionSpec.from_string(s, 3) for s in ("B-K-K", "K-K-K", "B-B-B")]
        ids, intervals = slice_ids(fc1, specs, Dim.K)[fc1.dim_axes[Dim.K][0]]
        assert ids[0, :4].tolist() == [4, 5, 6, 7]
        assert ids[1, :8].tolist() == list(range(8, 16))
        assert ids[2, 0] == 1
        assert len(intervals) == 16
        size = fc1.axis_sizes[fc1.dim_axes[Dim.K][0]]
        assert intervals[1].tolist() == [0, size]
        assert intervals[8:16, 1].tolist() == [size * (i + 1) // 8 for i in range(8)]

    def test_count_not_power_of_two_rejected(self, large_mlp):
        fc1 = large_mlp.node("fc1")
        spec = PartitionSpec.from_string("B-K-K", 3)
        axis = fc1.dim_axes[Dim.K][0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inter_module, "grid_events", lambda op, spec, dim: [(axis, 3)])
            with pytest.raises(ValueError, match=r"^fc1: K splits axis .* into 3 "):
                slice_ids(fc1, [spec], Dim.K)


_EDGE_DIGEST_SCRIPT = """
import hashlib
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.graph.models import MODELS_BY_KEY
from repro.graph.transformer import build_block_graph
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.engine import EventDrivenSimulator

graph = build_block_graph(MODELS_BY_KEY["llama2-70b"].block_shape(batch=8))
optimizer = PrimeParOptimizer(FabricProfiler(v100_cluster(8)))
result = optimizer.optimize(graph)
digest = hashlib.sha256(repr(result.cost).encode())
for matrix in optimizer._edge_memo.values():
    digest.update(matrix.tobytes())
print(len(optimizer._edge_memo), digest.hexdigest())
"""


class TestHashSeedIndependence:
    def test_edge_matrix_bytes_ignore_hash_seed(self):
        """Coverage terms multiply in a fixed axis order, not set order."""
        repo = Path(__file__).resolve().parent.parent
        outputs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PRIMEPAR_CACHE="off")
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _EDGE_DIGEST_SCRIPT],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert int(outputs[0][0]) > 0
        assert outputs[0] == outputs[1]


class TestSliceTables:
    def test_priced_plan_spec_pickles_unchanged(self, inter8, large_mlp):
        """Pricing a plan spec leaves no decoder on it to pickle."""
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
        _price(inter8, edge, act, act_spec, fc2, fc2_spec)
        # Twins priced by the frozen model touch the same DSI matrices.
        act_twin, fc2_twin = specs()
        legacy_inter.InterOperatorCostModel(inter8.profiler).directional_costs(
            edge, act, act_twin, fc2, fc2_twin
        )
        for spec, twin in ((act_spec, act_twin), (fc2_spec, fc2_twin)):
            data = pickle.dumps(spec, pickle.HIGHEST_PROTOCOL)
            assert data == pickle.dumps(twin, pickle.HIGHEST_PROTOCOL)
            assert pickle.loads(data) == spec

    def test_one_spec_priced_against_two_operators(self, inter8, large_block):
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
            assert _price(inter8, *args)[1:] == frozen.directional_costs(*args)

    def test_priced_candidate_sets_pickle_unchanged(self, profiler8, large_block):
        """A search's priced sets pickle to their unpriced bytes, no tables."""
        optimizer = PrimeParOptimizer(profiler8, beam=16)
        sets = list(
            {id(s): s for s in optimizer.candidates_for(large_block).values()}.values()
        )
        before = [pickle.dumps(s, pickle.HIGHEST_PROTOCOL) for s in sets]
        optimizer.optimize(large_block)
        for candidate_set, unpriced in zip(sets, before):
            assert "_tables" in candidate_set.__dict__
            data = pickle.dumps(candidate_set, pickle.HIGHEST_PROTOCOL)
            assert data == unpriced
            assert b"SliceTables" not in data
            clone = pickle.loads(data)
            assert clone.specs == candidate_set.specs
            assert "_tables" not in clone.__dict__

    def test_pool_payloads_carry_no_tables(self, profiler8, large_block):
        """Fault-sweep payloads ship a lowered plan without decoders."""
        optimizer = PrimeParOptimizer(profiler8, beam=16)
        plan = optimizer.optimize(large_block).plan
        simulator = EventDrivenSimulator(profiler8)
        lowering = simulator.lower(large_block, plan)
        payload = (profiler8, large_block, plan, 1, lowering)
        assert b"SliceTables" not in pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        for candidate_set in optimizer.candidates_for(large_block).values():
            data = pickle.dumps(candidate_set, pickle.HIGHEST_PROTOCOL)
            assert b"SliceTables" not in data


class TestDecodeOnce:
    def test_warm_search_decodes_nothing(self, profiler16):
        """A warm 16-device beam-48 OPT-175B search prices every edge from
        the heap ids its sets were built with: no slice table, no
        boundary matrix."""
        graph = build_block_graph(MODELS_BY_KEY["opt-175b"].block_shape(batch=16))
        PrimeParOptimizer(profiler16, beam=48).optimize(graph)  # warms the cache
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            raise AssertionError("decoded during a warm search")

        optimizer = PrimeParOptimizer(profiler16, beam=48)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inter_module, "slice_ids", recorded)
            patch.setattr(inter_module, "boundary_matrices", recorded)
            optimizer.optimize(graph)
        assert not calls
        assert all(
            "_tables" in s.__dict__
            for s in optimizer.candidates_for(graph).values()
        )


def _assert_heap_ids_match_oracle(candidates):
    """Every set's stored heap ids are each spec's ``slice_ids`` gathered
    by the scalar ``dsi_matrix`` at each boundary point, and every interval
    of its decoder the oracle's."""
    for candidate_set in {id(s): s for s in candidates.values()}.values():
        op = candidate_set.op
        axes = boundary_axes(op)
        ids = candidate_set.heap_ids
        intervals = candidate_set.tables.intervals
        assert ids.shape == (
            len(candidate_set), len(BOUNDARY_POINTS),
            candidate_set.specs[0].n_devices, len(axes),
        )
        assert ids.dtype == np.min_scalar_type(intervals.shape[1] - 1)
        assert ids.flags.c_contiguous and intervals.flags.c_contiguous
        for a, axis in enumerate(axes):
            size = op.axis_sizes[axis]
            for heap, (start, stop) in enumerate(intervals[a].tolist()):
                n = 1 << (max(heap, 1).bit_length() - 1)
                assert (start, stop) == slice_interval(size, n, max(heap, 1) - n)
        for s, spec in enumerate(candidate_set.specs):
            for p, point in enumerate(BOUNDARY_POINTS):
                assert np.array_equal(
                    ids[s, p], heap_id_matrix(op, spec, *point)
                ), (op.name, str(spec), point)


class TestBoundaryIds:
    """Candidate sets carry their boundary layouts as per-axis heap ids."""

    @pytest.mark.parametrize("n_devices", [4, 8])
    @pytest.mark.parametrize("model_key", sorted(MODELS_BY_KEY))
    def test_heap_ids_match_oracle(self, model_key, n_devices):
        profiler = FabricProfiler(v100_cluster(n_devices))
        graph = build_block_graph(MODELS_BY_KEY[model_key].block_shape(batch=16))
        _assert_heap_ids_match_oracle(
            PrimeParOptimizer(profiler).candidates_for(graph)
        )

    def test_reloaded_sets_price_like_fresh(
        self, profiler8, large_block, tmp_path, monkeypatch
    ):
        """A set reloaded from disk pickles and prices every edge matrix
        to the bytes of a freshly built one, and keeps no ``boundary``."""
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
        fresh = PrimeParOptimizer(profiler8).candidates_for(large_block)
        loaded = PrimeParOptimizer(profiler8).candidates_for(large_block)
        model = InterOperatorCostModel(profiler8)
        for name, built in fresh.items():
            again = loaded[name]
            assert again is not built
            data = pickle.dumps(built, pickle.HIGHEST_PROTOCOL)
            assert data == pickle.dumps(again, pickle.HIGHEST_PROTOCOL)
            assert "boundary" not in vars(pickle.loads(data))
        for edge in large_block.edges:
            matrices = [
                model.cost_matrix(edge, sets[edge.src].tables, sets[edge.dst].tables)
                for sets in (fresh, loaded)
            ]
            assert matrices[0].tobytes() == matrices[1].tobytes(), edge.key()

    def test_one_spec_decode_is_a_row_of_the_bulk(self, large_block):
        """``plan_edge_costs``' one-spec decoders hold the rows of the set's
        own decode: one decode function for both."""
        op = large_block.node("L0.qkv")
        specs = [
            PartitionSpec.from_string(text, 3)
            for text in ("B-K-K", "N-P2x2", "B-M-N", "R-R-R")
        ]
        bulk = SliceTables.decode(op, specs)
        for s, spec in enumerate(specs):
            lone = SliceTables.decode(op, [spec])
            assert np.array_equal(lone.ids[0], bulk.ids[s])
            width = lone.intervals.shape[1]
            assert np.array_equal(lone.intervals, bulk.intervals[:, :width])


def _recorded_shortfalls(patch):
    """Patch ``_shortfall`` to record its inputs; returns the record list."""
    calls = []
    shortfall = inter_module._shortfall

    def recorded(table, held, need, v, gpus_per_node):
        result = shortfall(table, held, need, v, gpus_per_node)
        calls.append((table, held, need, v, gpus_per_node, result))
        return result

    patch.setattr(inter_module, "_shortfall", recorded)
    return calls


def _rank_terms(table, held, need, v, gpus_per_node):
    """Per rank ``d``: ``(v·own, v·node)``, each ``(n_held, n_need)``.

    ``node`` is the max of the coverage over the XOR peers ``{d ^ m : m <
    gpn}``, the per-rank statement of the kernel's node-block max.
    """
    n_dev = held.shape[1]
    gpn = min(gpus_per_node, n_dev)
    for d in range(n_dev):
        cols = need[:, d]
        own = table[held[:, d]][:, cols]
        node = np.max([table[held[:, d ^ m]][:, cols] for m in range(gpn)], axis=0)
        yield d, own, node, v[:, d]


class TestShortfallPremises:
    """``_shortfall`` needs no clip and its sums are exact."""

    def test_premises_hold_on_equivalence_fixtures(self, node_block_case):
        profiler, graph, candidates = node_block_case
        with pytest.MonkeyPatch.context() as patch:
            calls = _recorded_shortfalls(patch)
            _assert_edges_match_frozen(profiler, graph, candidates)
        assert calls
        for table, held, need, v, gpus_per_node, (intra, inter) in calls:
            # Coverage is a product of overlap / length factors.
            assert table.min() >= 0.0 and table.max() <= 1.0
            clipped_intra = np.zeros_like(intra)
            clipped_inter = np.zeros_like(inter)
            for _, own, node, weight in _rank_terms(
                table, held, need, v, gpus_per_node
            ):
                # A rank lies in its own node block.
                assert (node >= own).all()
                for term in (own * weight, node * weight):
                    assert (term == np.floor(term)).all()
                clipped_intra += np.clip((node - own) * weight, 0.0, None)
                clipped_inter += np.clip((1.0 - node) * weight, 0.0, None)
            # So the clipped per-rank tail prices the same bytes.
            assert clipped_intra.tobytes() == intra.tobytes()
            assert clipped_inter.tobytes() == inter.tobytes()


#: Every model at 4 and 8 devices (exact) and 16 devices (beam 48).
EXACTNESS_SCALES = ((4, None), (8, None), (16, 48))


class TestExactnessPremise:
    """Eq. 9's per-rank terms are exact integers, so sums ignore order.

    ``_shortfall`` sums ``v·own`` and ``v·node`` over whole node blocks
    and subtracts the totals; that is byte-identical to summing ``v·(node
    − own)`` rank by rank only because every term and partial sum is an
    integer element count below 2^53.
    """

    @pytest.mark.parametrize("n_devices,beam", EXACTNESS_SCALES)
    @pytest.mark.parametrize("model_key", sorted(MODELS_BY_KEY))
    def test_terms_are_integers_below_2_53(self, model_key, n_devices, beam):
        profiler = FabricProfiler(v100_cluster(n_devices))
        graph = build_block_graph(MODELS_BY_KEY[model_key].block_shape(batch=16))
        candidates = PrimeParOptimizer(profiler, beam=beam).candidates_for(graph)
        model = InterOperatorCostModel(profiler)
        limit = 2.0**53
        for edge in graph.edges:
            src, dst = candidates[edge.src], candidates[edge.dst]
            for direction in ("forward", "backward"):
                price = getattr(model, f"{direction}_traffic_matrix")
                with pytest.MonkeyPatch.context() as patch:
                    calls = _recorded_shortfalls(patch)
                    price(edge, src.tables, dst.tables)
                (table, held, need, v, gpus_per_node, _), = calls
                where = f"{model_key}@{n_devices} {edge.key()} {direction}"
                gpn = min(gpus_per_node, held.shape[1])
                sums = {"own": 0.0, "node": 0.0}
                block = {"own": 0.0, "node": 0.0}
                for d, own, node, weight in _rank_terms(
                    table, held, need, v, gpus_per_node
                ):
                    for name, coverage in (("own", own), ("node", node)):
                        term = coverage * weight
                        block[name] = block[name] + term
                        for what, value in (("term", term), ("block", block[name])):
                            assert (value == np.floor(value)).all(), (
                                f"{where}: v·{name} {what} at rank {d} "
                                "is not an integer"
                            )
                            assert value.max() < limit, (
                                f"{where}: v·{name} {what} at rank {d} "
                                "reaches 2^53"
                            )
                    if d % gpn == gpn - 1:
                        for name in sums:
                            sums[name] = sums[name] + block[name]
                            block[name] = 0.0
                            assert sums[name].max() < limit, where
                assert v.sum(axis=1).max() < limit, where
