"""Numeric DSI analyses: all-reduce groups, replication, ring transfers."""

import pytest

from repro.core import analysis
from repro.core.device import DeviceId, all_devices
from repro.core.dims import (
    BATCHED_MATMUL_SIGNATURES,
    Dim,
    LINEAR_SIGNATURES,
    Phase,
)
from repro.core.spec import PartitionSpec


def spec(text, n, **kw):
    return PartitionSpec.from_string(text, n, **kw)


class TestAllReduceGroups:
    def test_pure_dp_gradient_allreduce(self):
        """Data parallelism all-reduces dW across every device."""
        s = spec("B-B", 2)
        groups = analysis.allreduce_groups(s, LINEAR_SIGNATURES[Phase.GRADIENT])
        assert len(groups) == 1
        assert groups[0].size == 4
        assert groups[0].n_classes == 4

    def test_pure_dp_forward_free(self):
        s = spec("B-B", 2)
        assert not analysis.allreduce_groups(s, LINEAR_SIGNATURES[Phase.FORWARD])

    def test_row_parallel_forward_allreduce(self):
        """Partitioning N (row parallel) all-reduces the forward output."""
        s = spec("N-N", 2)
        groups = analysis.allreduce_groups(s, LINEAR_SIGNATURES[Phase.FORWARD])
        assert len(groups) == 1
        assert groups[0].size == 4

    def test_column_parallel_backward_allreduce(self):
        s = spec("K-K", 2)
        groups = analysis.allreduce_groups(s, LINEAR_SIGNATURES[Phase.BACKWARD])
        assert len(groups) == 1

    def test_mixed_groups_partition_devices(self):
        """Groups are disjoint and group by equal output DSI."""
        s = spec("B-N", 2)
        groups = analysis.allreduce_groups(s, LINEAR_SIGNATURES[Phase.FORWARD])
        assert len(groups) == 2  # one per batch half
        members = [d for g in groups for d in g.members]
        assert len(set(members)) == len(members) == 4

    def test_temporal_needs_no_allreduce(self):
        s = spec("P2x2", 2)
        for signature in LINEAR_SIGNATURES.values():
            assert not analysis.allreduce_groups(s, signature)

    def test_replicas_excluded_from_summation(self):
        """Pure replicas share coverage and must not be summed."""
        s = spec("R-N", 2)
        groups = analysis.allreduce_groups(s, LINEAR_SIGNATURES[Phase.FORWARD])
        assert len(groups) == 1
        group = groups[0]
        assert group.size == 4
        assert group.n_classes == 2  # two N slices, each held twice

    def test_replicate_only_has_no_allreduce(self):
        s = spec("R-R", 2)
        for signature in LINEAR_SIGNATURES.values():
            assert not analysis.allreduce_groups(s, signature)

    def test_batched_matmul_gradient_reduces_m_only(self):
        """dK/dV sum over M, not B (attention batched matmul)."""
        s = spec("B-B", 2)
        groups = analysis.allreduce_groups(
            s, BATCHED_MATMUL_SIGNATURES[Phase.GRADIENT]
        )
        assert not groups  # B carried, nothing summed across devices
        s = spec("M-M", 2)
        groups = analysis.allreduce_groups(
            s, BATCHED_MATMUL_SIGNATURES[Phase.GRADIENT]
        )
        assert len(groups) == 1


class TestCoverage:
    def test_group_coverages_disjoint_and_complete(self):
        """Within a group, per-class coverages tile the reduce space."""
        for text, n in [("B-N", 2), ("N-P2x2", 3), ("M-P2x2", 3), ("B-M-N", 3)]:
            s = spec(text, n)
            for signature in LINEAR_SIGNATURES.values():
                total = 1
                for dim in sorted(signature.reduce_dims):
                    total *= s.slice_counts[dim]
                for group in analysis.allreduce_groups(s, signature):
                    covered = []
                    for rep in group.class_representatives:
                        coverage = analysis.reduce_coverage(s, signature, rep)
                        covered.extend(coverage)
                    assert len(covered) == len(set(covered))
                    assert len(set(covered)) == total

    def test_single_device_covers_all_when_no_allreduce(self):
        s = spec("P2x2", 2)
        signature = LINEAR_SIGNATURES[Phase.FORWARD]
        for device in all_devices(2):
            coverage = analysis.reduce_coverage(s, signature, device)
            assert len(coverage) == s.slice_counts[Dim.N]


class TestReplication:
    def test_weight_replicated_under_dp(self):
        s = spec("B-B", 2)
        w = LINEAR_SIGNATURES[Phase.FORWARD].inputs[1]
        groups = analysis.replication_groups(s, Phase.FORWARD, w)
        assert len(groups) == 1
        assert len(groups[0]) == 4

    def test_input_not_replicated_under_dp(self):
        s = spec("B-B", 2)
        i = LINEAR_SIGNATURES[Phase.FORWARD].inputs[0]
        assert not analysis.replication_groups(s, Phase.FORWARD, i)

    def test_temporal_replicates_nothing(self):
        s = spec("P2x2", 2)
        for signature in LINEAR_SIGNATURES.values():
            for tensor in signature.tensors:
                for t in range(2):
                    assert not analysis.replication_groups(
                        s, signature.phase, tensor, t
                    )

    def test_replicate_step_replicates_everything(self):
        s = spec("R-R", 2)
        for tensor in LINEAR_SIGNATURES[Phase.FORWARD].tensors:
            groups = analysis.replication_groups(s, Phase.FORWARD, tensor)
            assert [len(group) for group in groups] == [4]


class TestRingTransfers:
    def test_no_transfers_without_temporal(self):
        s = spec("B-N", 2)
        for signature in LINEAR_SIGNATURES.values():
            assert not analysis.ring_transfers(s, signature)

    def test_transfer_delivers_needed_block(self):
        """Destination's next-step DSI equals source's current DSI."""
        s = spec("N-P2x2", 3)
        for signature in LINEAR_SIGNATURES.values():
            for tr in analysis.ring_transfers(s, signature):
                tensor = next(
                    t for t in signature.tensors if t.name == tr.tensor
                )
                src_now = s.evaluator.tensor_dsi(
                    tr.src, signature.phase, tr.step, tensor.dims
                )
                dst_next = s.evaluator.tensor_dsi(
                    tr.dst, signature.phase, tr.step + 1, tensor.dims
                )
                assert src_now == dst_next

    def test_nearest_holder_prefers_same_node(self):
        """Replicated tensors transfer from same-leading-bits holders."""
        s = spec("N-P2x2", 3)
        for signature in LINEAR_SIGNATURES.values():
            for tr in analysis.ring_transfers(s, signature):
                # The N bit (leading) selects the node; src and dst agree.
                assert tr.src.bit(0) == tr.dst.bit(0)

    def test_transfers_by_step_partition(self):
        s = spec("P4x4", 4)
        signature = LINEAR_SIGNATURES[Phase.FORWARD]
        by_step = analysis.transfers_by_step(s, signature)
        flat = [tr for trs in by_step.values() for tr in trs]
        assert len(flat) == len(analysis.ring_transfers(s, signature))
        for step, transfers in by_step.items():
            assert all(tr.step == step for tr in transfers)


class TestAlignment:
    @pytest.mark.parametrize(
        "text,n",
        [("P2x2", 2), ("N-P2x2", 3), ("B-K-P2x2", 4), ("P2x2-P2x2", 4), ("B-N", 2)],
    )
    def test_weight_cycle_closes(self, text, n):
        """Feature 3: W at Forward start == dW at Gradient end."""
        assert analysis.weight_cycle_aligned(spec(text, n))

    def test_stash_alignment_forward_to_gradient(self):
        s = spec("P2x2", 2)
        assert analysis.phase_transition_aligned(
            s, Phase.FORWARD, Phase.GRADIENT, (Dim.B, Dim.M, Dim.N)
        )

    def test_misalignment_detected(self):
        """W moves between Backward end and Forward start under pure P."""
        s = spec("P2x2", 2)
        assert not analysis.phase_transition_aligned(
            s, Phase.BACKWARD, Phase.FORWARD, (Dim.N, Dim.K)
        )
