"""Interconnect link primitives.

A link carries point-to-point traffic between two devices with a simple
``latency + bytes / bandwidth`` model.  Topologies compose links into paths;
collectives compose paths into group operations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkSpec:
    """A physical interconnect class.

    Attributes:
        name: e.g. ``"nvlink"`` or ``"infiniband"``.
        bandwidth: Unidirectional bandwidth in bytes/s available to one
            point-to-point stream.
        latency: Per-message latency in seconds.
    """

    name: str
    bandwidth: float
    latency: float

    def transfer_time(self, n_bytes: float) -> float:
        """Time to move ``n_bytes`` across this link."""
        if n_bytes <= 0:
            return 0.0
        return self.latency + n_bytes / self.bandwidth


#: 300 GB/s NVLink within a node (paper Sec. 6, V100-SXM2 NVLink total).
NVLINK_V100 = LinkSpec(name="nvlink", bandwidth=300e9 / 2, latency=3e-6)

#: 100 Gb/s InfiniBand between nodes, shared by the node's GPUs.
INFINIBAND_100G = LinkSpec(name="infiniband", bandwidth=100e9 / 8, latency=8e-6)

#: TPU-v4-like torus link (per-direction ICI bandwidth).
TORUS_ICI = LinkSpec(name="torus-ici", bandwidth=50e9, latency=2e-6)
