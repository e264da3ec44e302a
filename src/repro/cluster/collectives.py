"""Analytic communication costs on a topology.

Models ring-algorithm collectives (NCCL-style) and concurrent point-to-point
transfer steps, including the sharing of a node's inter-node NIC by
concurrent streams — the effect that makes cross-node all-reduce so much
more expensive than intra-node (paper Fig. 2a, Fig. 5).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
    topology: ClusterTopology, transfers: Sequence[Transfer]
) -> List[float]:
    """Per-transfer times when all ``transfers`` run concurrently.

    Concurrent inter-node streams leaving (or entering) the same node share
    its NICs; intra-node NVLink is point-to-point and not shared in this
    model.  Multi-hop torus links already embed contention in their spec.
    """
    out_streams: Dict[int, int] = defaultdict(int)
    in_streams: Dict[int, int] = defaultdict(int)
    for tr in transfers:
        if tr.src != tr.dst and not topology.torus and not topology.same_node(tr.src, tr.dst):
            out_streams[topology.node_of(tr.src)] += 1
            in_streams[topology.node_of(tr.dst)] += 1
    times = []
    for tr in transfers:
        if tr.src == tr.dst or tr.n_bytes <= 0:
            times.append(0.0)
            continue
        link = topology.link_between(tr.src, tr.dst)
        sharing = 1.0
        if not topology.torus and not topology.same_node(tr.src, tr.dst):
            contenders = max(
                out_streams[topology.node_of(tr.src)],
                in_streams[topology.node_of(tr.dst)],
            )
            sharing = max(1.0, contenders / topology.nics_per_node)
        times.append(link.latency + tr.n_bytes * sharing / link.bandwidth)
    return times


def concurrent_step_time(
    topology: ClusterTopology, transfers: Sequence[Transfer]
) -> float:
    """Completion time of a set of concurrent point-to-point transfers."""
    if not transfers:
        return 0.0
    return max(_effective_transfer_times(topology, transfers))


def ring_allreduce_time(
    topology: ClusterTopology,
    group: Sequence[int],
    n_bytes: float,
    concurrent_groups: Sequence[Sequence[int]] = (),
) -> float:
    """Ring all-reduce latency for one group of ``n_bytes`` per device.

    Ring all-reduce moves ``2 (g-1)/g * n_bytes`` per device over the ring's
    bottleneck link in ``2 (g-1)`` latency-bound rounds.  ``concurrent_groups``
    are the *other* groups of the same SPMD pattern executing simultaneously;
    they contend for NICs.
    """
    group = list(group)
    g = len(group)
    if g <= 1 or n_bytes <= 0:
        return 0.0
    chunk = n_bytes / g
    rounds = 2 * (g - 1)
    all_edges: List[Transfer] = []
    own_edges: List[Transfer] = []
    for member_group in [group] + [list(cg) for cg in concurrent_groups]:
        if len(member_group) <= 1:
            continue
        edges = [
            Transfer(src=a, dst=b, n_bytes=chunk)
            for a, b in _ring_edges(member_group)
        ]
        if member_group == group:
            own_edges = edges
        all_edges.extend(edges)
    if not own_edges:
        return 0.0
    # own_edges were appended first, so their times lead the result list.
    times = _effective_transfer_times(topology, all_edges)
    per_round = max(times[: len(own_edges)])
    return (
        COLLECTIVE_LAUNCH_OVERHEAD
        + rounds * per_round / COLLECTIVE_EFFICIENCY
    )


def pattern_allreduce_time(
    topology: ClusterTopology, pattern: GroupingPattern, n_bytes: float
) -> float:
    """All-reduce latency of a full SPMD grouping pattern.

    Every group executes simultaneously; the pattern completes when the
    slowest group does (paper Sec. 4.1).
    """
    if pattern.group_size <= 1 or n_bytes <= 0:
        return 0.0
    worst = 0.0
    groups = [list(g) for g in pattern.groups]
    for i, group in enumerate(groups):
        others = groups[:i] + groups[i + 1 :]
        worst = max(worst, ring_allreduce_time(topology, group, n_bytes, others))
    return worst
