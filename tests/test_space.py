"""Partition-space enumeration."""

import pytest

from repro.core.dims import ALL_DIMS, Dim
from repro.core.partitions import Replicate
from repro.core.space import enumerate_sequences, enumerate_specs, space_size


class TestCounts:
    @pytest.mark.parametrize(
        "n,expected_full,expected_conv",
        [(1, 4, 4), (2, 17, 16), (3, 72, 64), (4, 306, 256), (5, 1300, 1024)],
    )
    def test_space_sizes(self, n, expected_full, expected_conv):
        assert len(enumerate_specs(n, ALL_DIMS)) == expected_full
        assert (
            len(enumerate_specs(n, ALL_DIMS, include_temporal=False))
            == expected_conv
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_matches(self, n):
        assert space_size(n, 4) == len(enumerate_specs(n, ALL_DIMS))
        assert space_size(n, 4, include_temporal=False) == len(
            enumerate_specs(n, ALL_DIMS, include_temporal=False)
        )

    def test_fewer_legal_dims(self):
        assert len(enumerate_specs(2, (Dim.B, Dim.M), include_temporal=False)) == 4

    def test_conventional_is_subset(self):
        full = set(s.steps for s in enumerate_specs(3, ALL_DIMS))
        conv = set(
            s.steps for s in enumerate_specs(3, ALL_DIMS, include_temporal=False)
        )
        assert conv < full


class TestConstraints:
    def test_every_sequence_consumes_all_bits(self):
        for steps in enumerate_sequences(4, ALL_DIMS):
            assert sum(s.bits_consumed for s in steps) == 4

    def test_dim_limits_cap_slices(self):
        specs = enumerate_specs(3, ALL_DIMS, dim_limits={Dim.B: 2})
        for s in specs:
            assert s.slice_counts[Dim.B] <= 2

    def test_dim_limits_apply_to_temporal(self):
        specs = enumerate_specs(2, ALL_DIMS, dim_limits={Dim.M: 1})
        assert all(not s.has_temporal for s in specs)

    def test_allow_temporal_false_removes_primitive(self):
        specs = enumerate_specs(2, ALL_DIMS, allow_temporal=False)
        assert all(not s.has_temporal for s in specs)


class TestAxisOptions:
    def test_axis_options_expand_space(self):
        base = enumerate_specs(2, (Dim.B,), include_temporal=False)
        expanded = enumerate_specs(
            2,
            (Dim.B,),
            include_temporal=False,
            axis_options={Dim.B: ("batch", "heads")},
        )
        assert len(expanded) == 4 * len(base)

    def test_axis_capacities_prune(self):
        specs = enumerate_specs(
            2,
            (Dim.B,),
            include_temporal=False,
            axis_options={Dim.B: ("batch", "heads")},
            axis_capacities={(Dim.B, "batch"): 1},
        )
        for s in specs:
            for step in s.steps:
                assert step.axis != "batch"


class TestReplicateOption:
    def test_replicate_excluded_by_default(self):
        for s in enumerate_specs(2, ALL_DIMS):
            assert not any(isinstance(step, Replicate) for step in s.steps)

    def test_replicate_included_on_request(self):
        specs = enumerate_specs(
            2, (Dim.B,), include_temporal=False, include_replicate=True
        )
        texts = {str(s) for s in specs}
        assert "R-R" in texts and "B-R" in texts and "R-B" in texts and "B-B" in texts
