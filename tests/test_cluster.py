"""Cluster substrate: topology, grouping patterns, collectives, profiler."""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from repro.cluster.collectives import (
    COLLECTIVE_EFFICIENCY,
    Transfer,
    concurrent_step_time,
    pattern_allreduce_time,
)
from repro.cluster.groups import grouping_pattern, ring_order
from repro.cluster.hardware import A100_SXM4_80GB, V100_SXM2_32GB
from repro.cluster.links import INFINIBAND_100G, NVLINK_V100, LinkSpec
from repro.cluster.profiler import fit_linear
from repro.cluster.topology import ClusterTopology, torus_cluster, v100_cluster

sys.path.insert(0, str(Path(__file__).resolve().parent))
import legacy_intra  # noqa: E402  (per-transfer scalar step pricing)


class TestLinks:
    def test_transfer_time_linear(self):
        link = LinkSpec("test", bandwidth=1e9, latency=1e-6)
        assert link.transfer_time(0) == 0.0
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_paper_bandwidths(self):
        # 300 GB/s NVLink total -> 150 GB/s per direction; 100 Gb/s IB.
        assert NVLINK_V100.bandwidth == pytest.approx(150e9)
        assert INFINIBAND_100G.bandwidth == pytest.approx(12.5e9)


class TestTopology:
    def test_paper_cluster_shape(self):
        topo = v100_cluster(32)
        assert topo.n_nodes == 8
        assert topo.gpus_per_node == 4
        assert topo.n_bits == 5
        assert topo.device is V100_SXM2_32GB

    def test_leading_bits_select_node(self):
        topo = v100_cluster(8)
        assert topo.node_of(0) == 0
        assert topo.node_of(3) == 0
        assert topo.node_of(4) == 1
        assert topo.same_node(1, 2)
        assert not topo.same_node(3, 4)

    def test_link_between(self):
        topo = v100_cluster(8)
        assert topo.link_between(0, 1).name == "nvlink"
        assert topo.link_between(0, 4).name == "infiniband"
        with pytest.raises(ValueError):
            topo.link_between(2, 2)

    def test_small_cluster_single_node(self):
        topo = v100_cluster(2)
        assert topo.n_nodes == 1
        assert topo.link_between(0, 1).name == "nvlink"

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            ClusterTopology(
                device=V100_SXM2_32GB,
                n_devices=6,
                gpus_per_node=3,
                intra_link=NVLINK_V100,
                inter_link=INFINIBAND_100G,
            )

    def test_torus_hops(self):
        topo = torus_cluster(4, 4)
        assert topo.torus_hops(0, 1) == 1
        assert topo.torus_hops(0, 3) == 1  # wraparound
        assert topo.torus_hops(0, 5) == 2
        assert topo.torus_hops(0, 10) == 4

    def test_torus_multihop_link(self):
        topo = torus_cluster(4, 4)
        near = topo.link_between(0, 1)
        far = topo.link_between(0, 10)
        assert far.bandwidth < near.bandwidth
        assert far.latency > near.latency


class TestGroupingPatterns:
    def test_fig5_pattern_a(self):
        """Indicator (d1, d3) over 8 devices -> 2 groups of 4 (Fig. 5a)."""
        pattern = grouping_pattern(3, (0, 2))
        assert len(pattern.groups) == 2
        assert pattern.group_size == 4
        assert (0, 1, 4, 5) in pattern.groups

    def test_fig5_pattern_b(self):
        """Indicator (d2, d3): intra-node quads (Fig. 5b)."""
        pattern = grouping_pattern(3, (1, 2))
        assert pattern.groups == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_groups_partition_devices(self):
        pattern = grouping_pattern(4, (0, 3))
        flat = sorted(r for g in pattern.groups for r in g)
        assert flat == list(range(16))

    def test_empty_indicator(self):
        pattern = grouping_pattern(2, ())
        assert pattern.group_size == 1
        assert len(pattern.groups) == 4

    def test_ring_order_sorted(self):
        assert ring_order((3, 1, 2)) == [1, 2, 3]


class TestCollectives:
    def test_intra_node_faster_than_inter(self):
        topo = v100_cluster(8)
        intra = grouping_pattern(3, (1, 2))  # quads within nodes
        inter = grouping_pattern(3, (0,))  # pairs across nodes
        size = 64 * 1 << 20
        assert pattern_allreduce_time(topo, intra, size) < pattern_allreduce_time(
            topo, inter, size
        )

    def test_allreduce_monotone_in_size(self):
        topo = v100_cluster(8)
        pattern = grouping_pattern(3, (1, 2))
        small = pattern_allreduce_time(topo, pattern, 1 << 20)
        large = pattern_allreduce_time(topo, pattern, 1 << 24)
        assert large > small

    def test_trivial_group_free(self):
        topo = v100_cluster(8)
        pattern = grouping_pattern(3, ())
        assert pattern_allreduce_time(topo, pattern, 1 << 20) == 0.0

    def test_nic_sharing_slows_concurrent_streams(self):
        topo = v100_cluster(8)
        lone = concurrent_step_time(topo, [Transfer(0, 4, 1 << 24)])
        shared = concurrent_step_time(
            topo,
            [Transfer(r, r + 4, 1 << 24) for r in range(4)],
        )
        assert shared > 2 * lone

    def test_intra_node_streams_do_not_share(self):
        topo = v100_cluster(8)
        lone = concurrent_step_time(topo, [Transfer(0, 1, 1 << 24)])
        many = concurrent_step_time(
            topo,
            [Transfer(0, 1, 1 << 24), Transfer(2, 3, 1 << 24)],
        )
        assert many == pytest.approx(lone)

    def test_collective_efficiency_applied(self):
        topo = v100_cluster(4)
        pattern = grouping_pattern(2, (0, 1))  # one group of all 4 ranks
        time = pattern_allreduce_time(topo, pattern, 1 << 24)
        ideal_round = (1 << 24) / 4 / topo.intra_link.bandwidth
        assert time >= 6 * ideal_round / COLLECTIVE_EFFICIENCY

    def test_empty_transfers(self):
        topo = v100_cluster(4)
        assert concurrent_step_time(topo, []) == 0.0


class TestProfiler:
    def test_fit_linear_recovers_coefficients(self):
        model = fit_linear([1e6, 2e6, 4e6], [1.0 + 2e-6 * s for s in (1e6, 2e6, 4e6)])
        assert model.base == pytest.approx(1.0, rel=1e-6)
        assert model.per_byte == pytest.approx(2e-6, rel=1e-6)

    def test_predict_zero_for_empty_payload(self):
        model = fit_linear([1e6, 2e6], [0.1, 0.2])
        assert model.predict(0) == 0.0
        assert model.predict(-5) == 0.0

    def test_allreduce_model_cached_per_indicator(self, profiler8):
        a = profiler8.allreduce_model((1, 2))
        b = profiler8.allreduce_model((2, 1))
        assert a is b

    def test_allreduce_model_orders_patterns(self, profiler8):
        intra = profiler8.allreduce_model((1, 2))
        inter = profiler8.allreduce_model((0,))
        size = 64 << 20
        assert intra.predict(size) < inter.predict(size)

    def test_redistribution_models(self, profiler8):
        intra = profiler8.redistribution_model(intra_node=True)
        inter = profiler8.redistribution_model(intra_node=False)
        assert intra.predict(1 << 24) < inter.predict(1 << 24)


class TestHardware:
    def test_effective_rates(self):
        assert V100_SXM2_32GB.effective_matmul_flops < V100_SXM2_32GB.peak_flops
        assert A100_SXM4_80GB.peak_flops > V100_SXM2_32GB.peak_flops


@pytest.mark.parametrize(
    "topology",
    [
        v100_cluster(16),
        v100_cluster(8, gpus_per_node=2),
        dataclasses.replace(v100_cluster(32), nics_per_node=2),
        torus_cluster(4, 4),
        torus_cluster(2, 8),
    ],
    ids=["v100-16", "v100-8x2", "v100-32-2nics", "torus4x4", "torus2x8"],
)
def test_vectorized_step_time_matches_scalar(topology):
    """Array pricing of a concurrent step, NIC streams counted with one
    ``bincount``, equals the per-transfer scalar loop bit for bit: self
    sends, empty sends and shared NICs included."""
    rng = random.Random(7)
    for _ in range(200):
        transfers = [
            (
                rng.randrange(topology.n_devices),
                rng.randrange(topology.n_devices),
                rng.choice([0.0, 1.0, 12345.0, 1e6 * rng.random()]),
            )
            for _ in range(rng.randrange(1, 20))
        ]
        expected = legacy_intra.concurrent_step_time(topology, transfers)
        got = concurrent_step_time(
            topology, [Transfer(*transfer) for transfer in transfers]
        )
        assert got.hex() == expected.hex(), transfers
