"""Segmented dynamic programming: Eq. 11-14, optimality and extraction."""

import importlib.util
import itertools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import (  # noqa: E402
    min_plus_strided,  # the strided Bellman kernel
    stack_layers_doubling,  # paper Sec. 5.1 stack
)
from repro.core.cost.overall import OverallCostModel
from repro.core.optimizer.candidates import build_candidates, type_key
from repro.core.optimizer.canonical import canonical_specs
from repro.core.optimizer import dp, merge
from repro.core.optimizer.dp import min_plus, min_plus_diagonal, solve_segment
from repro.core.optimizer.merge import merge_tables, stack_layers
from repro.core.optimizer.segmenter import segment_graph
from repro.core.optimizer import strategy
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.core.cost.intra import IntraOperatorCostModel
from repro.core.cost.inter import InterOperatorCostModel
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.graph.models import MODELS_BY_KEY, OPT_6_7B
from repro.graph.transformer import build_block_graph


class TestMinPlus:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        left = rng.random((7, 5))
        right = rng.random((5, 9))
        out, arg = min_plus(left, right)
        for a in range(7):
            for c in range(9):
                column = left[a] + right[:, c]
                assert out[a, c] == pytest.approx(column.min())
                assert column[arg[a, c]] == pytest.approx(column.min())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            min_plus(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_chunking_boundary(self):
        rng = np.random.default_rng(1)
        left = rng.random((3, 200))
        right = rng.random((200, 300))
        out, _ = min_plus(left, right)
        expected = (left[:, :, None] + right[None, :, :]).min(axis=1)
        assert np.allclose(out, expected)

    @pytest.mark.parametrize("columns", [1, 7])
    def test_budget_chunks_match_one_chunk(self, columns, monkeypatch):
        """A tiny byte budget chunks the columns without moving a bit."""
        rng = np.random.default_rng(2)
        # Small integers make many tied minima; argmin keeps the first.
        left = rng.integers(0, 4, (9, 40)).astype(float)
        right = rng.integers(0, 4, (40, 23)).astype(float)
        whole_out, whole_arg = min_plus(left, right)
        monkeypatch.setattr(dp, "CHUNK_BYTES", columns * left.size * 8)
        out, arg = min_plus(left, right)
        assert out.tobytes() == whole_out.tobytes()
        assert arg.tobytes() == whole_arg.tobytes()


def _min_plus_cases():
    """Random, tie-heavy, ``inf``-row, ``1 x n`` and multi-chunk inputs."""
    rng = np.random.default_rng(3)
    ties_left = rng.integers(0, 3, (17, 31)).astype(float)
    ties_right = rng.integers(0, 3, (31, 45)).astype(float)
    inf_left = rng.random((6, 11))
    inf_left[2] = np.inf
    inf_left[4, ::2] = np.inf
    inf_right = rng.random((11, 8))
    inf_right[:, 5] = np.inf
    fold = rng.integers(0, 5, (56, 56)).astype(float)
    return {
        "random": (rng.random((7, 5)), rng.random((5, 9))),
        "ties": (ties_left, ties_right),
        "inf-rows": (inf_left, inf_right),
        "fold-row": (fold.min(axis=0, keepdims=True), fold),
        "chunked": (rng.random((40, 120)), rng.random((120, 300))),
        "chunked-ties": (
            rng.integers(0, 2, (64, 96)).astype(float),
            rng.integers(0, 2, (96, 130)).astype(float),
        ),
    }


class TestMinPlusKernel:
    """The contiguous kernel is byte-identical to the strided oracle."""

    @pytest.mark.parametrize("case", sorted(_min_plus_cases()))
    def test_matches_strided_oracle(self, case):
        left, right = _min_plus_cases()[case]
        out, arg = min_plus(left, right)
        expected_out, expected_arg = min_plus_strided(left, right)
        assert out.tobytes() == expected_out.tobytes()
        assert arg.tobytes() == expected_arg.tobytes()

    def test_bellman_stage_times_every_product(self, monkeypatch, profiler8):
        """``stage_seconds["bellman"]`` holds the segment DP's and the
        merge's min-plus products, each segment's closed-form first step
        and the layer fold."""
        delay = 2e-3
        calls = []

        def slowed(label, fn):
            def slow(*args):
                calls.append(label)
                time.sleep(delay)
                return fn(*args)

            return slow

        monkeypatch.setattr(dp, "min_plus", slowed("product", min_plus))
        monkeypatch.setattr(
            dp, "min_plus_diagonal", slowed("first", min_plus_diagonal)
        )
        monkeypatch.setattr(merge, "min_plus", slowed("product", min_plus))
        monkeypatch.setattr(
            strategy, "stack_layers", slowed("fold", stack_layers)
        )
        graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
        result = PrimeParOptimizer(profiler8, beam=8).optimize(graph, n_layers=4)
        stages = result.stage_seconds
        assert calls.count("fold") == 1 and calls.count("first") >= 1
        assert calls.count("product") > 1
        assert len(calls) * delay <= stages["bellman"]
        assert stages["bellman"] <= stages["segment_dp"] + stages["merge"]

    @staticmethod
    def _diagonal_cases():
        """First steps: random, tie-heavy, ``inf`` intra rows and
        all-``inf`` edge columns (and both)."""
        rng = np.random.default_rng(5)
        inf_intra = rng.random(9)
        inf_intra[[0, 4]] = np.inf
        inf_columns = rng.random((9, 13))
        inf_columns[:, [0, 6]] = np.inf
        inf_columns[3, 2] = np.inf
        return {
            "random": (rng.random(7), rng.random((7, 11))),
            "ties": (
                rng.integers(0, 2, 12).astype(float),
                rng.integers(0, 2, (12, 15)).astype(float),
            ),
            "inf-rows": (inf_intra, rng.random((9, 13))),
            "inf-columns": (rng.random(9), inf_columns),
            "both": (inf_intra, inf_columns),
        }

    @pytest.mark.parametrize(
        "case", ["random", "ties", "inf-rows", "inf-columns", "both"]
    )
    def test_diagonal_first_step_matches_dense(self, case):
        intra, right = self._diagonal_cases()[case]
        dense = np.full((len(intra), len(intra)), np.inf)
        np.fill_diagonal(dense, intra)
        out, arg = min_plus_diagonal(intra, right)
        expected_out, expected_arg = min_plus(dense, right)
        assert out.tobytes() == expected_out.tobytes()
        assert arg.dtype == expected_arg.dtype
        assert arg.tobytes() == expected_arg.tobytes()
        if case not in ("random", "ties"):
            assert np.isinf(out).any()


class TestSegmenter:
    def test_fig6_segments(self, small_block):
        segmentation = segment_graph(small_block)
        starts = [seg.node_names[0] for seg in segmentation.segments]
        ends = [seg.node_names[-1] for seg in segmentation.segments]
        assert starts == ["input", "L0.qkv", "L0.add1"]
        assert ends == ["L0.qkv", "L0.add1", "L0.add2"]

    def test_cross_edges(self, small_block):
        segmentation = segment_graph(small_block)
        assert [(e.src, e.dst) for e in segmentation.cross_edges] == [
            ("input", "L0.add1")
        ]

    def test_chain_graph_single_segment(self, small_mlp):
        segmentation = segment_graph(small_mlp)
        assert len(segmentation.segments) == 1
        assert not segmentation.cross_edges

    def test_multi_layer_segments(self):
        g = build_block_graph(OPT_6_7B.block_shape(batch=8), n_layers=2)
        segmentation = segment_graph(g)
        assert len(segmentation.segments) == 6
        assert len(segmentation.cross_edges) == 2


class TestCandidates:
    def test_twin_extras_dropped(self, profiler4, small_block):
        """Canonical extras that respell an enumerated spec's axis are
        twins: ``B`` (default axis, resolving to ``batch``) for
        ``B[batch]``.  They count in ``raw_size`` but are not kept; the
        enumerated spelling stands for them."""
        intra = IntraOperatorCostModel(profiler4)
        scores = small_block.node("L0.scores")
        candidates = build_candidates(scores, 2, intra)
        kept = {str(spec) for spec in candidates.specs}
        assert (candidates.raw_size, len(candidates)) == (18, 16)
        assert {"B[batch]-B[batch]", "B[batch]-B[heads]"} <= kept
        assert not {"B-B", "B-B[heads]"} & kept

    def test_beam_keeps_canonical(self, profiler8, small_mlp):
        intra = IntraOperatorCostModel(profiler8)
        fc1 = small_mlp.node("fc1")
        beamed = build_candidates(fc1, 3, intra, beam=3)
        canon = canonical_specs(fc1, 3)
        kept = set(beamed.specs)
        assert all(spec in kept for spec in canon)

    def test_type_key_shared_across_layers(self):
        g = build_block_graph(OPT_6_7B.block_shape(batch=8), n_layers=2)
        assert type_key(g.node("L0.fc1")) == type_key(g.node("L1.fc1"))
        assert type_key(g.node("L0.fc1")) != type_key(g.node("L0.fc2"))

    def test_partition_batch_false_removes_batch(self, profiler4, small_mlp):
        intra = IntraOperatorCostModel(profiler4)
        fc1 = small_mlp.node("fc1")
        candidates = build_candidates(fc1, 2, intra, partition_batch=False)
        from repro.core.dims import Dim
        for spec in candidates.specs:
            assert spec.slice_counts[Dim.B] == 1


class TestOptimalityAgainstExhaustive:
    @pytest.mark.parametrize("include_temporal", [True, False])
    def test_dp_matches_bruteforce_on_mlp(
        self, profiler4, small_mlp, include_temporal
    ):
        """The segmented DP finds the exhaustive-search optimum (Sec. 5.2)."""
        optimizer = PrimeParOptimizer(
            profiler4, include_temporal=include_temporal
        )
        result = optimizer.optimize(small_mlp)
        candidates = optimizer.candidates_for(small_mlp)
        inter = optimizer.inter_model
        names = [n.name for n in small_mlp.nodes]
        edge_matrices = []
        for edge in small_mlp.edges:
            src_set, dst_set = candidates[edge.src], candidates[edge.dst]
            matrix = inter.cost_matrix(edge, src_set.tables, dst_set.tables)
            edge_matrices.append(
                (names.index(edge.src), names.index(edge.dst), matrix)
            )
        best = np.inf
        for combo in itertools.product(
            *(range(len(candidates[name])) for name in names)
        ):
            cost = sum(
                candidates[name].intra[idx] for name, idx in zip(names, combo)
            )
            for src_i, dst_i, matrix in edge_matrices:
                cost += matrix[combo[src_i], combo[dst_i]]
            best = min(best, cost)
        assert result.cost == pytest.approx(best, rel=1e-9)

    def test_extracted_plan_cost_matches_reported(self, profiler4, small_block):
        """Backpointer extraction reproduces the DP's optimal value."""
        optimizer = PrimeParOptimizer(profiler4)
        result = optimizer.optimize(small_block)
        overall = OverallCostModel(profiler4)
        recomputed = overall.plan_cost(small_block, result.plan).objective(0.0)
        assert recomputed == pytest.approx(result.cost, rel=1e-9)

    def test_extracted_plan_cost_matches_with_alpha(self, profiler4, small_block):
        alpha = 1e-11
        optimizer = PrimeParOptimizer(profiler4, alpha=alpha)
        result = optimizer.optimize(small_block)
        overall = OverallCostModel(profiler4, alpha=alpha)
        recomputed = overall.plan_cost(small_block, result.plan).objective(alpha)
        assert recomputed == pytest.approx(result.cost, rel=1e-9)


class TestSpaceRelations:
    def test_temporal_space_never_worse(self, profiler4, small_block):
        """The conventional space is a subset, so PrimePar's optimum <= Alpa's."""
        full = PrimeParOptimizer(profiler4, include_temporal=True)
        conv = PrimeParOptimizer(profiler4, include_temporal=False)
        assert full.optimize(small_block).cost <= conv.optimize(
            small_block
        ).cost * (1 + 1e-9)

    def test_beam_never_beats_exact(self, profiler4, small_block):
        exact = PrimeParOptimizer(profiler4)
        beamed = PrimeParOptimizer(profiler4, beam=4)
        assert beamed.optimize(small_block).cost >= exact.optimize(
            small_block
        ).cost - 1e-12

    @pytest.mark.parametrize("beam", [0, -1])
    def test_beam_below_one_rejected(self, profiler4, beam):
        """``None`` is the one spelling of an exact search: a beam of 0
        would keep only each operator's canonical specs."""
        with pytest.raises(ValueError, match="beam"):
            PrimeParOptimizer(profiler4, beam=beam)

    @pytest.mark.parametrize(
        "raw, beam", [("0", None), ("-1", None), ("24", 24)]
    )
    def test_bench_beam_zero_is_exact(self, monkeypatch, raw, beam):
        """``REPRO_BENCH_BEAM32=0`` asks the benchmarks for an exact search."""
        root = Path(__file__).resolve().parent.parent
        path = root / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        monkeypatch.setenv("REPRO_BENCH_BEAM32", raw)
        assert bench.beam_for(32) == beam
        assert bench.beam_for(16) is None

    def test_plan_covers_every_node(self, profiler4, small_block):
        result = PrimeParOptimizer(profiler4).optimize(small_block)
        assert set(result.plan) == {n.name for n in small_block.nodes}

    def test_candidate_sizes_reported(self, profiler4, small_block):
        result = PrimeParOptimizer(profiler4).optimize(small_block)
        raw, kept = result.candidate_sizes["L0.fc1"]
        assert raw >= kept >= 1


class TestLayerStacking:
    def test_stacked_cost_grows_linearly(self, profiler4, small_block):
        optimizer = PrimeParOptimizer(profiler4)
        r2 = optimizer.optimize(small_block, n_layers=2)
        r4 = optimizer.optimize(small_block, n_layers=4)
        per_layer_2 = r2.model_cost / 2
        per_layer_4 = r4.model_cost / 4
        assert per_layer_4 == pytest.approx(per_layer_2, rel=0.2)

    def test_stack_layers_one_is_identity(self, profiler4, small_mlp):
        optimizer = PrimeParOptimizer(profiler4)
        candidates = optimizer.candidates_for(small_mlp)
        segmentation = segment_graph(small_mlp)
        table = solve_segment(
            small_mlp, segmentation.segments[0], candidates, optimizer.inter_model
        )
        cost = stack_layers(table.cost, candidates[table.end].intra, 1)
        assert cost == table.cost.min()

    @pytest.mark.parametrize("n_devices", [4, 8])
    @pytest.mark.parametrize("model_key", sorted(MODELS_BY_KEY))
    def test_fold_matches_recursive_doubling(
        self, model_key, n_devices, monkeypatch
    ):
        """The fold's ``model_cost`` equals the paper's recursive doubling
        to 1e-12 relative at 2, 3 and full depth, on the layer table and
        boundary intra costs the search hands it."""
        seen = []

        def recording(layer_cost, boundary_intra, n_layers):
            seen.append((layer_cost, boundary_intra))
            return stack_layers(layer_cost, boundary_intra, n_layers)

        monkeypatch.setattr(strategy, "stack_layers", recording)
        model = MODELS_BY_KEY[model_key]
        graph = build_block_graph(model.block_shape(batch=max(8, n_devices)))
        optimizer = PrimeParOptimizer(
            FabricProfiler(v100_cluster(n_devices)), alpha=2e-11
        )
        result = optimizer.optimize(graph, n_layers=model.n_layers)
        [(layer_cost, intra)] = seen
        assert result.model_cost == stack_layers(
            layer_cost, intra, model.n_layers
        )
        for depth in (2, 3, model.n_layers):
            fold = stack_layers(layer_cost, intra, depth)
            doubling = stack_layers_doubling(layer_cost, intra, depth)
            assert fold == pytest.approx(doubling, rel=1e-12, abs=0), depth

    @pytest.mark.parametrize("classes", [1, 5, 56])
    def test_fold_matches_min_plus_fold(self, classes):
        """Each step's minimum is the sum at ``min_plus``'s argmin, so the
        fold is byte-identical to folding through ``min_plus``, ``inf``
        entries and tied minima included."""
        rng = np.random.default_rng(classes)
        layer_cost = rng.integers(1, 6, (classes, classes)).astype(float)
        layer_cost += rng.random((classes, classes)) * (classes > 1)
        layer_cost[rng.random((classes, classes)) < 0.3] = np.inf
        layer_cost[0, 0] = 3.0
        intra = rng.random(classes)
        for depth in (1, 2, 3, 17):
            row = layer_cost.min(axis=0, keepdims=True)
            for _ in range(depth - 1):
                row, _ = min_plus(row, layer_cost - intra[:, None])
            expected = float(row.min())
            got = stack_layers(layer_cost, intra, depth)
            assert got.hex() == expected.hex(), depth

    def test_merge_requires_matching_boundary(self, profiler4, small_mlp):
        optimizer = PrimeParOptimizer(profiler4)
        candidates = optimizer.candidates_for(small_mlp)
        segmentation = segment_graph(small_mlp)
        table = solve_segment(
            small_mlp, segmentation.segments[0], candidates, optimizer.inter_model
        )
        with pytest.raises(ValueError):
            merge_tables(table, table, candidates[table.end].intra)
