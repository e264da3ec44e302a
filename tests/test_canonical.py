"""Canonical baseline/partner specs injected into candidate sets."""

import pytest

from repro.core.dims import Dim
from repro.core.optimizer.canonical import canonical_specs, megatron_steps
from repro.core.partitions import DimPartition, Replicate, TemporalPartition


class TestMegatronSteps:
    def test_fc1_column(self, large_block):
        steps = megatron_steps(large_block.node("L0.fc1"), 1, 2)
        assert [str(s) for s in steps] == ["B", "K", "K"]

    def test_attention_heads(self, large_block):
        steps = megatron_steps(large_block.node("L0.scores"), 0, 2)
        assert all(s.axis == "heads" for s in steps)

    def test_layernorm_replicated(self, large_block):
        steps = megatron_steps(large_block.node("L0.ln1"), 1, 2)
        assert steps[0] == DimPartition(Dim.B)
        assert all(isinstance(s, Replicate) for s in steps[1:])


class TestCanonicalSpecs:
    def test_every_spec_is_legal(self, large_block):
        for node in large_block.nodes:
            for spec in canonical_specs(node, 4):
                assert spec.n_bits == 4

    def test_megatron_configs_present_for_linears(self, large_block):
        fc2 = large_block.node("L0.fc2")
        texts = {str(s) for s in canonical_specs(fc2, 3)}
        assert "N-N-N" in texts       # d=1
        assert "B-N-N" in texts       # d=2
        assert "B-B-N" in texts       # d=4

    def test_temporal_sequences_for_linears(self, large_block):
        fc2 = large_block.node("L0.fc2")
        texts = {str(s) for s in canonical_specs(fc2, 3)}
        assert "N-P2x2" in texts
        assert "B-P2x2" in texts or "B-N-P2x2" in texts

    def test_temporal_partners_for_pointwise(self, large_block):
        act = large_block.node("L0.act")
        texts = {str(s) for s in canonical_specs(act, 3)}
        assert "K-M-K" in texts       # matches fc1's K-P2x2 output layout
        assert "R-M-K" in texts

    def test_no_temporal_for_softmax(self, large_block):
        softmax = large_block.node("L0.softmax")
        for spec in canonical_specs(softmax, 3):
            assert not spec.has_temporal

    def test_dp_capped_by_batch(self, large_block):
        # fixture batch is 8 -> at most 3 B-partitions
        fc2 = large_block.node("L0.fc2")
        for spec in canonical_specs(fc2, 5):
            assert spec.slice_counts[Dim.B] <= 8

    def test_partition_batch_false_removes_dp(self, large_block):
        fc2 = large_block.node("L0.fc2")
        for spec in canonical_specs(fc2, 3, partition_batch=False):
            assert spec.slice_counts[Dim.B] == 1

    def test_include_temporal_false(self, large_block):
        fc2 = large_block.node("L0.fc2")
        for spec in canonical_specs(fc2, 3, include_temporal=False):
            assert not spec.has_temporal

    def test_no_duplicates(self, large_block):
        fc2 = large_block.node("L0.fc2")
        specs = canonical_specs(fc2, 4)
        assert len(specs) == len(set(specs))
