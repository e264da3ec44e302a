"""Grid layouts: axis-targeted slicing of flattened dimensions."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from legacy_candidates import grid_signature  # noqa: E402  (the scalar oracle's)
from oracles import axis_intervals  # noqa: E402  (scalar per-slice oracle)
from repro.core.cost.inter import SliceTables
from repro.core.dims import ALL_DIMS, Dim
from repro.core.layout import default_axis, grid_events
from repro.core.optimizer.candidates import (
    _BOUNDARY_POINTS,
    operator_dim_limits,
    type_key,
)
from repro.core.space import enumerate_specs
from repro.core.spec import PartitionSpec
from repro.graph.models import MODELS_BY_KEY, OPT_6_7B
from repro.graph.transformer import build_block_graph


@pytest.fixture(scope="module")
def block():
    return build_block_graph(OPT_6_7B.block_shape(batch=8))


class TestDefaultAxis:
    def test_prefers_major_axis_with_capacity(self):
        sizes = {"batch": 8, "heads": 32}
        assert default_axis(("batch", "heads"), sizes, {"batch": 1, "heads": 1}, 2) == "batch"

    def test_spills_to_minor_when_exhausted(self):
        sizes = {"batch": 2, "heads": 32}
        factors = {"batch": 2, "heads": 1}
        assert default_axis(("batch", "heads"), sizes, factors, 2) == "heads"

    def test_falls_back_to_most_capacity(self):
        sizes = {"a": 2, "b": 3}
        factors = {"a": 2, "b": 2}
        assert default_axis(("a", "b"), sizes, factors, 2) == "b"


class TestGridEvents:
    def test_explicit_axis_respected(self, block):
        scores = block.node("L0.scores")
        spec = PartitionSpec.from_string("B[heads]-B[batch]", 2)
        events = grid_events(scores, spec, Dim.B)
        assert events == [("heads", 2), ("batch", 2)]

    def test_default_axis_resolution(self, block):
        scores = block.node("L0.scores")
        spec = PartitionSpec.from_string("B-B", 2)
        events = grid_events(scores, spec, Dim.B)
        assert events == [("batch", 2), ("batch", 2)]

    def test_temporal_contributes_to_mnk(self, block):
        fc1 = block.node("L0.fc1")
        spec = PartitionSpec.from_string("P2x2", 2)
        assert grid_events(fc1, spec, Dim.M) == [("seq", 2)]
        assert grid_events(fc1, spec, Dim.N) == [("hidden", 2)]
        assert grid_events(fc1, spec, Dim.K) == [("ffn", 2)]

    def test_qkv_column_split_targets_heads(self, block):
        qkv = block.node("L0.qkv")
        spec = PartitionSpec.from_string("K-K", 2)
        assert grid_events(qkv, spec, Dim.K) == [("heads", 2), ("heads", 2)]

    def test_unknown_axis_rejected(self, block):
        fc1 = block.node("L0.fc1")
        spec = PartitionSpec.from_string("K[bogus]-B", 2)
        with pytest.raises(ValueError):
            grid_events(fc1, spec, Dim.K)

    def test_absent_dim_has_no_events(self, block):
        ln = block.node("L0.ln1")
        spec = PartitionSpec.from_string("B-K", 2, legal_dims=ln.legal_dims, allow_temporal=False)
        assert grid_events(ln, spec, Dim.N) == []


class TestAxisIntervals:
    def test_single_axis_contiguous(self, block):
        fc1 = block.node("L0.fc1")
        spec = PartitionSpec.from_string("K-K", 2)
        intervals = axis_intervals(fc1, spec, Dim.K, 1)
        assert intervals["ffn"].start == 4096
        assert intervals["ffn"].stop == 8192

    def test_grid_slices_are_boxes(self, block):
        """(batch x heads) grid: slice index decomposes into both axes."""
        scores = block.node("L0.scores")
        spec = PartitionSpec.from_string("B[batch]-B[heads]", 2)
        # slice 3 = batch half 1, heads half 1
        intervals = axis_intervals(scores, spec, Dim.B, 3)
        assert (intervals["batch"].start, intervals["batch"].stop) == (4, 8)
        assert (intervals["heads"].start, intervals["heads"].stop) == (16, 32)

    def test_event_order_sets_significance(self, block):
        scores = block.node("L0.scores")
        spec = PartitionSpec.from_string("B[heads]-B[batch]", 2)
        # Earlier event (heads) is the most significant digit.
        intervals = axis_intervals(scores, spec, Dim.B, 2)
        assert (intervals["heads"].start, intervals["heads"].stop) == (16, 32)
        assert (intervals["batch"].start, intervals["batch"].stop) == (0, 4)

    def test_volume_preserved(self, block):
        """Across all slices, per-axis boxes tile the full dim."""
        qkv = block.node("L0.qkv")
        spec = PartitionSpec.from_string("K-K", 2)
        total = 0
        for index in range(4):
            intervals = axis_intervals(qkv, spec, Dim.K, index)
            volume = 1
            for interval in intervals.values():
                volume *= interval.length
            total += volume
        assert total == qkv.dim_size(Dim.K)

    def test_unpartitioned_axes_full(self, block):
        qkv = block.node("L0.qkv")
        spec = PartitionSpec.from_string("K-K", 2)
        intervals = axis_intervals(qkv, spec, Dim.K, 0)
        assert intervals["qkv"].length == 3
        assert intervals["embed"].length == qkv.axis_sizes["embed"]


class TestGridSignature:
    def test_signature_distinguishes_axis_choice(self, block):
        scores = block.node("L0.scores")
        a = PartitionSpec.from_string("B[batch]-B[heads]", 2)
        b = PartitionSpec.from_string("B[heads]-B[batch]", 2)
        assert grid_signature(scores, a) != grid_signature(scores, b)

    def test_signature_stable(self, block):
        fc1 = block.node("L0.fc1")
        spec = PartitionSpec.from_string("N-P2x2", 3)
        assert grid_signature(fc1, spec) == grid_signature(fc1, spec)


def _operator_types(model_key):
    """One operator per candidate-set type of the model's block."""
    graph = build_block_graph(MODELS_BY_KEY[model_key].block_shape(batch=16))
    types = {}
    for node in graph.nodes:
        types.setdefault(type_key(node), node)
    return list(types.values())


def _enumerated_specs(op, n_bits):
    """The operator's whole partition space, before collapse or beam."""
    legal = list(op.legal_dims)
    return enumerate_specs(
        n_bits,
        legal,
        allow_temporal=op.allow_temporal,
        dim_limits=operator_dim_limits(op),
        axis_options={dim: op.partition_axis_options(dim) for dim in legal},
        axis_capacities=op.axis_capacities(),
        include_replicate=not op.is_matmul_like,
    )


class TestBatchedAxisBoxes:
    @pytest.mark.parametrize("n_devices", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("model_key", sorted(MODELS_BY_KEY))
    def test_matches_axis_intervals_rank_by_rank(self, model_key, n_devices):
        n_bits = n_devices.bit_length() - 1
        for op in _operator_types(model_key):
            specs = _enumerated_specs(op, n_bits)
            dims = [dim for dim in ALL_DIMS if op.dim_axes.get(dim)]
            # axis_intervals depends on the spec only through the dim's grid
            # events, so it is tabulated once per distinct event list and
            # axis over every slice index, and looked up by each rank's DSI
            # at each boundary point.
            oracle = {}
            tables = []
            for spec in specs:
                table = {}
                for dim in dims:
                    key = (dim, tuple(grid_events(op, spec, dim)))
                    if key not in oracle:
                        rows = [
                            axis_intervals(op, spec, dim, index)
                            for index in range(spec.slice_counts[dim])
                        ]
                        oracle[key] = {
                            axis: np.array(
                                [(row[axis].start, row[axis].stop) for row in rows]
                            )
                            for axis in op.dim_axes[dim]
                        }
                    for axis, rows in oracle[key].items():
                        table[dim, axis] = rows
                tables.append(table)
            # The boundary points, the slots' gradient holder points among
            # them, decoded for the whole list and, on a sample of about 16
            # specs, for each spec alone.
            holders = {(slot.grad_phase, -1) for slot in op.slots_with_aux()}
            assert holders <= set(_BOUNDARY_POINTS)
            decoder = SliceTables(op, specs)
            sample = range(0, len(specs), max(1, len(specs) // 16))
            lone = {i: SliceTables(op, [specs[i]]) for i in sample}
            for point in _BOUNDARY_POINTS:
                boxes = decoder.boxes(point, ALL_DIMS)
                lone_boxes = {
                    i: single.boxes(point, ALL_DIMS) for i, single in lone.items()
                }
                matrices = [spec.evaluator.dsi_matrix(*point) for spec in specs]
                for dim in dims:
                    column = ALL_DIMS.index(dim)
                    for axis in op.dim_axes[dim]:
                        expected = np.stack([
                            table[dim, axis][matrix[:, column]]
                            for matrix, table in zip(matrices, tables)
                        ])
                        context = (op.name, n_devices, point, axis)
                        assert boxes[axis].dtype == np.int64
                        assert np.array_equal(boxes[axis], expected), context
                        for i, single in lone_boxes.items():
                            assert np.array_equal(
                                single[axis], expected[i : i + 1]
                            ), context + (str(specs[i]),)
