"""DSI evaluation — Algorithm 1 semantics."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.device import DeviceId, all_devices
from repro.core.dims import ALL_DIMS, ALL_PHASES, Dim, Phase
from repro.core.partitions import (
    DimPartition,
    Replicate,
    TemporalPartition,
    parse_sequence,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from dsi_oracle import DsiEvaluator  # noqa: E402  (scalar Alg. 1 walk)
from oracles import (  # noqa: E402  (scalar references)
    dsi_matrix,
    group_indicator,
    temporal_varying_dims,
)


def evaluator(text: str, n_bits: int) -> DsiEvaluator:
    return DsiEvaluator(parse_sequence(text.replace("-", " ")), n_bits)


class TestConstruction:
    def test_bit_budget_enforced(self):
        with pytest.raises(ValueError):
            DsiEvaluator((DimPartition(Dim.B),), 2)
        with pytest.raises(ValueError):
            DsiEvaluator((TemporalPartition(1),), 3)

    def test_total_steps(self):
        assert evaluator("B-N", 2).total_steps == 1
        assert evaluator("P2x2", 2).total_steps == 2
        assert evaluator("P4x4", 4).total_steps == 4
        assert evaluator("P2x2-P2x2", 4).total_steps == 4

    def test_has_temporal(self):
        assert not evaluator("B-N", 2).has_temporal
        assert evaluator("N-P2x2", 3).has_temporal


class TestSliceCounts:
    def test_dim_partition_doubles(self):
        counts = evaluator("B-N-N", 3).slice_counts()
        assert counts[Dim.B] == 2
        assert counts[Dim.N] == 4
        assert counts[Dim.M] == 1
        assert counts[Dim.K] == 1

    def test_temporal_multiplies_mnk(self):
        counts = evaluator("P2x2", 2).slice_counts()
        assert counts[Dim.B] == 1
        assert counts[Dim.M] == 2
        assert counts[Dim.N] == 2
        assert counts[Dim.K] == 2

    def test_replicate_changes_nothing(self):
        counts = evaluator("R-R", 2).slice_counts()
        assert all(c == 1 for c in counts.values())


class TestPaperExamples:
    def test_eq2_eq3_partition_m_then_n(self):
        """Paper Eq. 2-3: partition M then N over 4 devices."""
        ev = evaluator("M-N", 2)
        for phase in ALL_PHASES:
            for device in all_devices(2):
                result = ev.dsi(device, phase)
                assert result[Dim.M] == device.bits[0]
                assert result[Dim.N] == device.bits[1]
                assert result[Dim.B] == 0
                assert result[Dim.K] == 0

    def test_forward_eq4(self):
        """Pure P_{2x2}: Eq. 4 DSIs."""
        ev = evaluator("P2x2", 2)
        for device in all_devices(2):
            r, c = device.bits[0], device.bits[1]
            for t in range(2):
                result = ev.dsi(device, Phase.FORWARD, t)
                assert result[Dim.M] == r % 2
                assert result[Dim.N] == (r + c + t) % 2
                assert result[Dim.K] == c % 2

    def test_backward_eq5(self):
        ev = evaluator("P2x2", 2)
        for device in all_devices(2):
            r, c = device.bits[0], device.bits[1]
            for t in range(2):
                result = ev.dsi(device, Phase.BACKWARD, t)
                assert result[Dim.M] == r % 2
                assert result[Dim.N] == (r + c - 1) % 2
                assert result[Dim.K] == (c + t) % 2

    def test_gradient_eq6(self):
        ev = evaluator("P2x2", 2)
        for device in all_devices(2):
            r, c = device.bits[0], device.bits[1]
            for t in range(2):
                delta = 1 if t == 1 else 0
                result = ev.dsi(device, Phase.GRADIENT, t)
                assert result[Dim.M] == (r + t) % 2
                assert result[Dim.N] == (r + c - 1 + delta) % 2
                assert result[Dim.K] == (c - 1 + delta) % 2

    def test_prefix_partition_shifts_significance(self):
        """Alg. 1: earlier steps occupy higher DSI digits."""
        ev = evaluator("N-P2x2", 3)
        for device in all_devices(3):
            spatial = device.bits[0]
            r, c = device.bits[1], device.bits[2]
            result = ev.dsi(device, Phase.FORWARD, t=0)
            assert result[Dim.N] == 2 * spatial + (r + c) % 2


class TestTemporalDecomposition:
    def test_negative_index_is_last(self):
        ev = evaluator("P4x4", 4)
        assert ev.decompose_step(-1) == (3,)
        assert ev.decompose_step(3) == (3,)

    def test_mixed_radix_outer_first(self):
        ev = evaluator("P2x2-P2x2", 4)
        assert ev.decompose_step(0) == (0, 0)
        assert ev.decompose_step(1) == (0, 1)
        assert ev.decompose_step(2) == (1, 0)
        assert ev.decompose_step(3) == (1, 1)

    def test_no_temporal_single_step(self):
        ev = evaluator("B-N", 2)
        assert ev.decompose_step(0) == ()


class TestMatrixAgreement:
    @pytest.mark.parametrize(
        "text,n", [("B-N", 2), ("P2x2", 2), ("N-P2x2", 3), ("R-P2x2", 3),
                   ("P2x2-P2x2", 4), ("B-M-N-K", 4)]
    )
    def test_matrix_matches_scalar(self, text, n):
        ev = evaluator(text, n)
        for phase in ALL_PHASES:
            for t in range(ev.total_steps):
                matrix = dsi_matrix(ev, phase, t)
                for device in all_devices(n):
                    scalar = ev.dsi(device, phase, t)
                    row = matrix[device.rank]
                    for i, dim in enumerate(ALL_DIMS):
                        assert row[i] == scalar[dim]


class TestBitDependencies:
    def test_dim_partition_dependency(self):
        ev = evaluator("B-N", 2)
        assert group_indicator(ev, Phase.FORWARD, (Dim.B,)) == (0,)
        assert group_indicator(ev, Phase.FORWARD, (Dim.N,)) == (1,)
        assert group_indicator(ev, Phase.FORWARD, (Dim.M,)) == ()

    def test_temporal_dependencies(self):
        ev = evaluator("P2x2", 2)
        assert group_indicator(ev, Phase.FORWARD, (Dim.M,)) == (0,)
        assert group_indicator(ev, Phase.FORWARD, (Dim.K,)) == (1,)
        assert group_indicator(ev, Phase.FORWARD, (Dim.N,)) == (0, 1)

    def test_replicate_has_no_dependencies(self):
        ev = evaluator("R-N", 2)
        assert group_indicator(ev, Phase.FORWARD, (Dim.N,)) == (1,)
        for dim in ALL_DIMS:
            assert 0 not in group_indicator(ev, Phase.FORWARD, (dim,))

    def test_group_indicator_union(self):
        ev = evaluator("N-P2x2", 3)
        assert group_indicator(ev, Phase.FORWARD, (Dim.M, Dim.K)) == (1, 2)

    def test_device_bit_width_checked(self):
        ev = evaluator("B-N", 2)
        with pytest.raises(ValueError):
            ev.dsi(DeviceId((0,)), Phase.FORWARD)


class TestTemporalVaryingDims:
    def test_no_temporal(self):
        ev = evaluator("B-N", 2)
        assert not any(temporal_varying_dims(ev, Phase.FORWARD).values())

    def test_forward_varies_n(self):
        ev = evaluator("P2x2", 2)
        varying = temporal_varying_dims(ev, Phase.FORWARD)
        assert varying[Dim.N] and not varying[Dim.M] and not varying[Dim.K]

    def test_backward_varies_k(self):
        ev = evaluator("P2x2", 2)
        varying = temporal_varying_dims(ev, Phase.BACKWARD)
        assert varying[Dim.K] and not varying[Dim.N]

    def test_gradient_varies_mnk(self):
        ev = evaluator("P2x2", 2)
        varying = temporal_varying_dims(ev, Phase.GRADIENT)
        assert varying[Dim.M] and varying[Dim.N] and varying[Dim.K]
