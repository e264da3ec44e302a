#!/usr/bin/env python
"""Model a custom interconnect and see how the optimal strategy shifts.

The paper's Sec. 7 discussion predicts the spatial-temporal primitive
benefits from torus interconnects (TPU-v4-like), whose neighbour links
carry its ring traffic natively.  This example costs the same OPT-175B MLP
block on three fabrics and prints the searched plan for each — watch the
primitive's placement change with the topology.

Run:  python examples/custom_cluster.py
"""

from repro import (
    ClusterTopology,
    EventDrivenSimulator,
    FabricProfiler,
    PrimeParOptimizer,
    torus_cluster,
    v100_cluster,
)
from repro.cluster.hardware import V100_SXM2_32GB
from repro.cluster.links import INFINIBAND_100G, NVLINK_V100, LinkSpec
from repro.graph.models import OPT_175B
from repro.graph.transformer import build_mlp_graph


def fat_node_cluster(n_devices: int) -> ClusterTopology:
    """A custom fabric: 8-GPU nodes with a slower in-node switch."""
    return ClusterTopology(
        device=V100_SXM2_32GB,
        n_devices=n_devices,
        gpus_per_node=8,
        intra_link=LinkSpec("pcie-switch", bandwidth=6.4e10, latency=5e-6),
        inter_link=INFINIBAND_100G,
    )


def main() -> None:
    batch = 16
    fabrics = [
        ("V100 switch (4 nodes x 4, NVLink+IB)", v100_cluster(16)),
        ("2D torus 4x4 (TPU-v4-like)", torus_cluster(4, 4)),
        ("fat nodes (2 nodes x 8, PCIe switch)", fat_node_cluster(16)),
    ]
    graph = build_mlp_graph(OPT_175B.block_shape(batch=batch))
    for label, topology in fabrics:
        profiler = FabricProfiler(topology)
        result = PrimeParOptimizer(profiler, alpha=2e-11).optimize(graph)
        report = EventDrivenSimulator(profiler).run(graph, result.plan, batch)
        plan = {n.split(".")[-1]: str(s) for n, s in result.plan.items()}
        print(f"{label}")
        print(f"  plan: fc1={plan['fc1']}  act={plan['act']}  fc2={plan['fc2']}")
        print(
            f"  latency {report.latency * 1e3:7.1f} ms/layer, "
            f"collective {report.collective_latency * 1e3:6.1f} ms, "
            f"ring overlapped {report.breakdown.get('ring-overlapped', 0) * 1e3:6.1f} ms"
        )
        print()


if __name__ == "__main__":
    main()
