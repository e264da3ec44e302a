"""Cluster topologies: devices, nodes and the links between them.

The paper's testbed is 8 nodes x 4 V100 GPUs, NVLink (300 GB/s) within a
node and 100 Gb/s InfiniBand between nodes (paper Sec. 6).  Device ranks map
to node boundaries exactly as in the paper's ablation (Sec. 6.3): with
``D = (d_1, ..., d_n)``, the *leading* bits select the node, so GPUs 0..3
share node 0, GPUs 4..7 share node 1, and so on.

A 2D-torus topology is provided for the Sec. 7 discussion (TPU-v4-like
interconnects), where ring neighbours enjoy dedicated links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .hardware import DeviceSpec, TPU_V4_LIKE, V100_SXM2_32GB
from .links import INFINIBAND_100G, LinkSpec, NVLINK_V100, TORUS_ICI


@dataclass(frozen=True)
class PathResources:
    """Schedulable fabric resources along one point-to-point path.

    A discrete-event engine materialises one shared resource per ``shared``
    entry (key, aggregate capacity in bytes/s); concurrent transfers whose
    paths name the same key divide that capacity.  A single stream never
    exceeds ``stream_bandwidth`` (the per-stream link rate) and always pays
    ``latency`` once per message.  An empty ``shared`` tuple means the path
    is dedicated (intra-node NVLink, torus neighbour links).

    Attributes:
        shared: ``(resource key, capacity)`` pairs, e.g. a node's NIC pool.
        stream_bandwidth: Per-stream bandwidth ceiling, bytes/s.
        latency: Per-message latency, seconds.
    """

    shared: Tuple[Tuple[str, float], ...]
    stream_bandwidth: float
    latency: float


@dataclass(frozen=True)
class ClusterTopology:
    """A cluster of ``2**n_bits`` homogeneous devices.

    Attributes:
        device: Per-device hardware spec.
        n_devices: Total device count (power of two).
        gpus_per_node: Devices sharing fast intra-node links.
        intra_link: Link class within a node.
        inter_link: Link class between nodes (shared NIC per node).
        nics_per_node: Inter-node NICs per node; concurrent inter-node
            streams from one node share its NICs' bandwidth.
        torus: If set, ``(rows, cols)`` of a 2D torus where *all* neighbour
            hops use ``intra_link`` and there is no NIC sharing (Sec. 7).
    """

    device: DeviceSpec
    n_devices: int
    gpus_per_node: int
    intra_link: LinkSpec
    inter_link: LinkSpec
    nics_per_node: int = 1
    torus: Tuple[int, int] = ()

    def __post_init__(self) -> None:
        if self.n_devices & (self.n_devices - 1):
            raise ValueError(f"n_devices must be a power of two, got {self.n_devices}")
        if not self.torus and self.n_devices % self.gpus_per_node:
            raise ValueError("n_devices must be a multiple of gpus_per_node")

    @property
    def n_bits(self) -> int:
        return (self.n_devices - 1).bit_length()

    @property
    def n_nodes(self) -> int:
        return max(self.n_devices // self.gpus_per_node, 1)

    def node_of(self, rank: int) -> int:
        """Node index of a device rank (leading id bits select the node)."""
        return rank // self.gpus_per_node

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.node_of(rank_a) == self.node_of(rank_b)

    # ------------------------------------------------------------------
    # link resolution
    # ------------------------------------------------------------------

    def link_between(self, rank_a: int, rank_b: int) -> LinkSpec:
        """The bottleneck link class on the path between two devices."""
        if rank_a == rank_b:
            raise ValueError("no link from a device to itself")
        if self.torus:
            return self._torus_link(rank_a, rank_b)
        if self.same_node(rank_a, rank_b):
            return self.intra_link
        return self.inter_link

    def _torus_coords(self, rank: int) -> Tuple[int, int]:
        rows, cols = self.torus
        return rank // cols, rank % cols

    def torus_hops(self, rank_a: int, rank_b: int) -> int:
        """Minimal hop count between two devices on the 2D torus."""
        rows, cols = self.torus
        ra, ca = self._torus_coords(rank_a)
        rb, cb = self._torus_coords(rank_b)
        dr = min((ra - rb) % rows, (rb - ra) % rows)
        dc = min((ca - cb) % cols, (cb - ca) % cols)
        return dr + dc

    def _torus_link(self, rank_a: int, rank_b: int) -> LinkSpec:
        hops = self.torus_hops(rank_a, rank_b)
        if hops <= 1:
            return self.intra_link
        # Multi-hop paths pay per-hop latency and share links with the
        # traffic they cross; model as proportionally lower bandwidth.
        return LinkSpec(
            name=f"{self.intra_link.name}-{hops}hop",
            bandwidth=self.intra_link.bandwidth / hops,
            latency=self.intra_link.latency * hops,
        )

    def transfer_time(self, rank_a: int, rank_b: int, n_bytes: float) -> float:
        """Uncongested point-to-point transfer time."""
        return self.link_between(rank_a, rank_b).transfer_time(n_bytes)

    # ------------------------------------------------------------------
    # schedulable resources (discrete-event simulation)
    # ------------------------------------------------------------------

    def path_resources(self, rank_a: int, rank_b: int) -> PathResources:
        """The fabric resources a ``rank_a -> rank_b`` stream occupies.

        Cross-node streams pass through both endpoints' NIC pools (capacity
        ``nics_per_node * inter_link.bandwidth`` each) — concurrent streams
        touching a node, in either direction, share that pool.  Intra-node
        and torus-neighbour paths are dedicated point-to-point links, the
        same assumption the Eq. 7 cost model makes.
        """
        link = self.link_between(rank_a, rank_b)
        if not self.torus and not self.same_node(rank_a, rank_b):
            capacity = self.inter_link.bandwidth * self.nics_per_node
            shared = (
                (f"nic:node{self.node_of(rank_a)}", capacity),
                (f"nic:node{self.node_of(rank_b)}", capacity),
            )
        else:
            shared = ()
        return PathResources(
            shared=shared,
            stream_bandwidth=link.bandwidth,
            latency=link.latency,
        )


def v100_cluster(n_devices: int, gpus_per_node: int = 4) -> ClusterTopology:
    """The paper's evaluation cluster scaled to ``n_devices`` GPUs."""
    gpn = min(gpus_per_node, n_devices)
    return ClusterTopology(
        device=V100_SXM2_32GB,
        n_devices=n_devices,
        gpus_per_node=gpn,
        intra_link=NVLINK_V100,
        inter_link=INFINIBAND_100G,
    )


def torus_cluster(rows: int, cols: int, device: DeviceSpec = TPU_V4_LIKE) -> ClusterTopology:
    """A 2D-torus cluster (paper Sec. 7 discussion)."""
    n_devices = rows * cols
    return ClusterTopology(
        device=device,
        n_devices=n_devices,
        gpus_per_node=n_devices,
        intra_link=TORUS_ICI,
        inter_link=TORUS_ICI,
        torus=(rows, cols),
    )
