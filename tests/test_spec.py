"""PartitionSpec construction, legality and layout queries."""

import pytest

from repro.core.dims import Dim
from repro.core.partitions import DimPartition, TemporalPartition
from repro.core.spec import PartitionSpec


class TestLegality:
    def test_illegal_dim_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec.from_string("K-B", 2, legal_dims=(Dim.B, Dim.M))

    def test_temporal_rejected_when_disallowed(self):
        with pytest.raises(ValueError):
            PartitionSpec.from_string("P2x2", 2, allow_temporal=False)

    def test_bit_budget(self):
        with pytest.raises(ValueError):
            PartitionSpec.from_string("B", 2)

    def test_replicated_spec_zero_bits(self):
        spec = PartitionSpec.replicated(0)
        assert spec.n_devices == 1
        with pytest.raises(ValueError):
            PartitionSpec.replicated(2)


class TestStructure:
    def test_n_devices(self):
        assert PartitionSpec.from_string("B-N-K", 3).n_devices == 8

    def test_total_steps(self):
        assert PartitionSpec.from_string("N-P2x2", 3).total_steps == 2
        assert PartitionSpec.from_string("P4x4", 4).total_steps == 4


class TestIdentity:
    def test_equality_and_hash(self):
        a = PartitionSpec.from_string("B-N", 2)
        b = PartitionSpec.from_string("B-N", 2)
        c = PartitionSpec.from_string("N-B", 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_str_round_trip(self):
        spec = PartitionSpec.from_string("B-N-P2x2", 4)
        assert str(spec) == "B-N-P2x2"
        again = PartitionSpec.from_string(str(spec), 4)
        assert again == spec

    def test_not_equal_to_other_types(self):
        assert PartitionSpec.from_string("B", 1) != "B"
