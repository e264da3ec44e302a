"""Analytic communication costs on a topology.

Models ring-algorithm collectives (NCCL-style) and concurrent point-to-point
transfer steps, including the sharing of a node's inter-node NIC by
concurrent streams — the effect that makes cross-node all-reduce so much
more expensive than intra-node (paper Fig. 2a, Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .groups import GroupingPattern, ring_order
from .topology import ClusterTopology


#: Fraction of link bandwidth a ring collective sustains (NCCL-style
#: protocol overheads, chunking and synchronisation; point-to-point copies
#: do not pay this).  Data-dependent collectives additionally pay a launch/
#: synchronisation gap per invocation.
COLLECTIVE_EFFICIENCY = 0.65
COLLECTIVE_LAUNCH_OVERHEAD = 2e-5


@dataclass(frozen=True)
class Transfer:
    """One concurrent point-to-point transfer of ``n_bytes``."""

    src: int
    dst: int
    n_bytes: float


def _ring_edges(group: Sequence[int]) -> List[Tuple[int, int]]:
    order = ring_order(group)
    return [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]


def _effective_transfer_times(
    topology: ClusterTopology,
    src: np.ndarray,
    dst: np.ndarray,
    n_bytes: np.ndarray,
) -> np.ndarray:
    """Per-transfer times when each row's transfers run concurrently.

    ``src``, ``dst`` and ``n_bytes`` are ``(rows, n)`` arrays (``n_bytes``
    may broadcast); a negative ``src`` marks an empty slot.  Concurrent
    inter-node streams of one row leaving (or entering) the same node share
    its NICs, counted per row with one ``bincount``; intra-node NVLink is
    point-to-point and not shared in this model.  Multi-hop torus links
    already embed contention in their spec.  Self and empty sends, and
    sends of no bytes, take 0.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n_bytes = np.asarray(n_bytes, dtype=float)
    present = src >= 0
    src = np.where(present, src, 0)
    dst = np.where(present, dst, 0)
    moving = present & (src != dst)
    intra, inter = topology.intra_link, topology.inter_link
    if topology.torus:
        rows, cols = topology.torus
        dr = (src // cols - dst // cols) % rows
        dc = (src % cols - dst % cols) % cols
        hops = np.minimum(dr, rows - dr) + np.minimum(dc, cols - dc)
        near = hops <= 1
        bandwidth = np.where(
            near, intra.bandwidth, intra.bandwidth / np.maximum(hops, 1)
        )
        latency = np.where(near, intra.latency, intra.latency * hops)
        sharing = 1.0
    else:
        src_node = src // topology.gpus_per_node
        dst_node = dst // topology.gpus_per_node
        cross = moving & (src_node != dst_node)
        bandwidth = np.where(cross, inter.bandwidth, intra.bandwidth)
        latency = np.where(cross, inter.latency, intra.latency)
        n_nodes = topology.n_nodes
        row = np.arange(src.shape[0])[:, None] * n_nodes
        out_streams = np.bincount(
            (row + src_node)[cross], minlength=src.shape[0] * n_nodes
        )
        in_streams = np.bincount(
            (row + dst_node)[cross], minlength=src.shape[0] * n_nodes
        )
        contenders = np.maximum(
            out_streams[row + src_node], in_streams[row + dst_node]
        )
        sharing = np.where(
            cross, np.maximum(1.0, contenders / topology.nics_per_node), 1.0
        )
    times = latency + n_bytes * sharing / bandwidth
    return np.where(moving & (n_bytes > 0), times, 0.0)


def _transfer_times(
    topology: ClusterTopology, transfers: Sequence[Transfer]
) -> np.ndarray:
    """:func:`_effective_transfer_times` of one concurrent transfer list."""
    return _effective_transfer_times(
        topology,
        np.array([[tr.src for tr in transfers]], dtype=np.int64),
        np.array([[tr.dst for tr in transfers]], dtype=np.int64),
        np.array([[tr.n_bytes for tr in transfers]], dtype=float),
    )[0]


def concurrent_step_time(
    topology: ClusterTopology, transfers: Sequence[Transfer]
) -> float:
    """Completion time of a set of concurrent point-to-point transfers."""
    if not transfers:
        return 0.0
    return float(_transfer_times(topology, transfers).max())


def pattern_allreduce_time(
    topology: ClusterTopology, pattern: GroupingPattern, n_bytes: float
) -> float:
    """All-reduce latency of a full SPMD grouping pattern.

    Every group executes simultaneously; the pattern completes when the
    slowest group does (paper Sec. 4.1).
    """
    g = pattern.group_size
    if g <= 1 or n_bytes <= 0:
        return 0.0
    groups = [list(group) for group in pattern.groups]
    latencies = _ring_allreduce_times(topology, groups, n_bytes / g, 2 * (g - 1))
    return max([0.0] + latencies)


def _ring_allreduce_times(
    topology: ClusterTopology,
    groups: Sequence[Sequence[int]],
    chunk: float,
    rounds: int,
) -> List[float]:
    """Each group's ring all-reduce latency while every group's ring runs:
    ``rounds`` rounds of ``chunk``-byte sends, paced by the ring's slowest
    edge among all the groups' concurrent edges."""
    rings = [_ring_edges(group) for group in groups]
    edges = [edge for ring in rings for edge in ring]
    times = _effective_transfer_times(
        topology,
        np.array([[a for a, _ in edges]], dtype=np.int64),
        np.array([[b for _, b in edges]], dtype=np.int64),
        chunk,
    )[0]
    latencies = []
    end = 0
    for ring in rings:
        per_round = float(times[end:end + len(ring)].max())
        end += len(ring)
        latencies.append(
            COLLECTIVE_LAUNCH_OVERHEAD
            + rounds * per_round / COLLECTIVE_EFFICIENCY
        )
    return latencies
