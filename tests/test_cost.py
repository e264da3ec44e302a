"""Cost model: compute, communication, memory, intra (Eq. 7)."""

import pytest

from repro.core.cost.communication import CommunicationCostModel
from repro.core.cost.compute import (
    ComputeCostModel,
    block_bytes_batch,
    block_elements_batch,
)
from repro.baselines.megatron import megatron_plan
from repro.core.cost.intra import IntraOperatorCostModel
from repro.core.cost.memory import MemoryCostModel
from repro.core.cost.overall import OverallCostModel
from repro.core.dims import ALL_PHASES, Dim, Phase
from repro.core.spec import PartitionSpec
from repro.core.steps import DsiTable
from repro.graph.tensors import DTYPE_BYTES


def indicator(op, spec, phase):
    """Bit mask (bit ``b`` = device-id bit ``b``) of the group indicator
    of ``phase``'s output all-reduce."""
    return int(CommunicationCostModel._indicator_masks(op, spec.table, phase)[0])


def counts(spec):
    """``spec``'s slice counts as a one-row float ``[spec, dim]`` matrix."""
    return spec.table.slice_counts.astype(float)


def step_latency(model, op, spec, phase):
    return model.step_latency_batch(op, counts(spec), phase)[0]


def allreduce(comm, op, spec, phase):
    return comm.allreduce_latency_batch(op, spec.table, phase)[0]


def ring_latencies(comm, op, spec, phase):
    """Ring latency per temporal step of one phase of one spec."""
    sends = comm.ring_sends(op, spec.table, DsiTable(spec.table), phase)
    return comm.ring_latencies(sends)[0].tolist()


@pytest.fixture(scope="module")
def fc2(large_mlp):
    return large_mlp.node("fc2")


@pytest.fixture(scope="module")
def act(large_mlp):
    return large_mlp.node("act")


class TestBlockSizes:
    def test_block_elements_divides_by_slices(self, fc2):
        spec = PartitionSpec.from_string("N-P2x2", 3)
        # N: 4 slices, M: 2, K: 2
        full = fc2.dim_size(Dim.B) * fc2.dim_size(Dim.M) * fc2.dim_size(Dim.N)
        counts = spec.table.slice_counts.astype(float)
        dims = (Dim.B, Dim.M, Dim.N)
        assert block_elements_batch(fc2, counts, dims)[0] == full / 8
        assert block_bytes_batch(fc2, counts, (Dim.N, Dim.K))[0] == pytest.approx(
            fc2.dim_size(Dim.N) * fc2.dim_size(Dim.K) / 8 * DTYPE_BYTES
        )


class TestComputeModel:
    def test_step_latency_independent_of_t(self, topo8, fc2):
        model = ComputeCostModel(topo8.device)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        a = step_latency(model, fc2, spec, Phase.FORWARD)
        assert a > 0

    def test_phase_latency_scales_with_steps(self, profiler8, fc2):
        """Eq. 7 charges a phase's step latency once per temporal step."""
        intra = IntraOperatorCostModel(profiler8)
        temporal = PartitionSpec.from_string("N-P2x2", 3)
        assert temporal.total_steps == 2
        assert intra.cost(fc2, temporal).compute_latency == pytest.approx(
            sum(
                2 * step_latency(intra.compute, fc2, temporal, phase)
                for phase in ALL_PHASES
            )
        )

    def test_equal_flops_across_specs(self, topo8, fc2):
        """Eq. 7 compute: every full partitioning does the same total work."""
        model = ComputeCostModel(topo8.device)
        a = PartitionSpec.from_string("B-N-K", 3)
        b = PartitionSpec.from_string("N-P2x2", 3)
        la = a.total_steps * step_latency(model, fc2, a, Phase.FORWARD)
        lb = b.total_steps * step_latency(model, fc2, b, Phase.FORWARD)
        assert la == pytest.approx(lb, rel=0.1)

    def test_pointwise_zero_gradient(self, topo8, act):
        model = ComputeCostModel(topo8.device)
        spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        assert step_latency(model, act, spec, Phase.GRADIENT) == 0.0

    def test_replication_does_not_shrink_compute(self, topo8, fc2):
        model = ComputeCostModel(topo8.device)
        split = PartitionSpec.from_string("N-N-N", 3)
        repl = PartitionSpec.from_string("R-R-N", 3)
        assert step_latency(model, fc2, repl, Phase.FORWARD) > step_latency(
            model, fc2, split, Phase.FORWARD
        )


class TestCommunicationModel:
    def test_fig9_megatron_kernel1_indicator(self, profiler8, fc2):
        """Megatron fc2 = B-N-N: all-reduce with group indicator (d2, d3)."""
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("B-N-N", 3)
        assert indicator(fc2, spec, Phase.FORWARD) == 0b110

    def test_fig9_primepar_kernel1_indicator(self, profiler8, fc2):
        """PrimePar fc2 = N-P2x2: all-reduce with group indicator (d1)."""
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        assert indicator(fc2, spec, Phase.FORWARD) == 0b1

    def test_temporal_primitive_collective_free(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("R-P2x2", 3)
        for phase in ALL_PHASES:
            assert allreduce(comm, fc2, spec, phase) == 0.0

    def test_dp_gradient_allreduce_positive(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("B-B-B", 3)
        assert allreduce(comm, fc2, spec, Phase.GRADIENT) > 0
        assert allreduce(comm, fc2, spec, Phase.FORWARD) == 0.0

    def test_ring_latencies_zero_without_temporal(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("B-N-K", 3)
        assert ring_latencies(comm, fc2, spec, Phase.FORWARD) == [0.0]

    def test_ring_latencies_shape(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        rings = ring_latencies(comm, fc2, spec, Phase.FORWARD)
        assert len(rings) == 2
        assert rings[0] > 0  # step 0 carries I and W rings
        assert rings[1] == 0.0  # last forward step communicates nothing

    def test_backward_last_step_carries_w_epilogue(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        rings = ring_latencies(comm, fc2, spec, Phase.BACKWARD)
        assert rings[-1] > 0

    def test_gradient_last_step_carries_dw(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        rings = ring_latencies(comm, fc2, spec, Phase.GRADIENT)
        assert rings[-1] > 0

    def test_layernorm_extras(self, profiler8, large_block):
        comm = CommunicationCostModel(profiler8)
        ln = large_block.node("L0.ln1")
        split_k = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=ln.legal_dims, allow_temporal=False
        )
        no_k = PartitionSpec.from_string(
            "B-M-M", 3, legal_dims=ln.legal_dims, allow_temporal=False
        )
        fc1 = large_block.node("L0.fc1")
        assert comm.layernorm_extras_batch(ln, split_k.table)[0] > 0
        assert comm.layernorm_extras_batch(fc1, split_k.table)[0] == 0.0
        # B/M partitioning still all-reduces the tiny gamma/beta gradients.
        assert comm.layernorm_extras_batch(ln, no_k.table)[0] > 0


class TestMemoryModel:
    def test_replicated_weight_costs_full_size(self, fc2):
        memory = MemoryCostModel()
        dp = PartitionSpec.from_string("B-B-B", 3)
        full_w = fc2.dim_size(Dim.N) * fc2.dim_size(Dim.K) * DTYPE_BYTES
        assert memory.parameter_bytes_batch(fc2, counts(dp))[0] == pytest.approx(
            2 * full_w
        )

    def test_partitioned_weight_shrinks(self, fc2):
        memory = MemoryCostModel()
        mp = PartitionSpec.from_string("N-N-N", 3)
        dp = PartitionSpec.from_string("B-B-B", 3)
        assert memory.parameter_bytes_batch(fc2, counts(mp))[0] == pytest.approx(
            memory.parameter_bytes_batch(fc2, counts(dp))[0] / 8
        )

    def test_temporal_partitions_weight_fully(self, fc2):
        memory = MemoryCostModel()
        spec = PartitionSpec.from_string("N-P2x2", 3)
        dp = PartitionSpec.from_string("B-B-B", 3)
        assert memory.parameter_bytes_batch(fc2, counts(spec))[0] == pytest.approx(
            memory.parameter_bytes_batch(fc2, counts(dp))[0] / 8
        )

    def test_double_buffer_only_for_temporal(self, fc2):
        memory = MemoryCostModel()
        spatial = PartitionSpec.from_string("B-N-K", 3)
        temporal = PartitionSpec.from_string("N-P2x2", 3)
        buffers = [
            memory.double_buffer_bytes_batch(
                fc2, counts(spec), spec.table.has_temporal
            )[0]
            for spec in (spatial, temporal)
        ]
        assert buffers[0] == 0.0
        assert buffers[1] > 0.0

    def test_no_stash_for_residual_add(self, large_block):
        memory = MemoryCostModel()
        add = large_block.node("L0.add1")
        spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=add.legal_dims, allow_temporal=False
        )
        assert memory.stash_bytes_batch(add, counts(spec))[0] == 0.0

    def test_plan_memory_sums(self, profiler8, large_block):
        """A plan's memory is the sum of its operators' three parts."""
        plan = megatron_plan(large_block, 3, dp_degree=2)
        priced = OverallCostModel(profiler8).plan_cost(large_block, plan)
        parts = [
            t.parameter_bytes[0] + t.stash_bytes[0] + t.buffer_bytes[0]
            for t in priced.terms
        ]
        assert [c.memory_bytes for c in priced.operators] == parts
        assert priced.memory_bytes == pytest.approx(sum(parts))


class TestIntraCost:
    def test_eq7_composition(self, profiler8, fc2):
        model = IntraOperatorCostModel(profiler8, alpha=1e-12)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        cost = model.cost(fc2, spec)
        assert cost.latency == pytest.approx(
            cost.compute_latency + cost.ring_exposed + cost.allreduce_latency
        )
        assert cost.total == pytest.approx(
            cost.latency + 1e-12 * cost.memory_bytes
        )

    def test_paper_fig9_story(self, profiler8, fc2):
        """PrimePar's N-P2x2 beats Megatron's B-N-N on fc2 (Fig. 9)."""
        model = IntraOperatorCostModel(profiler8)
        megatron = model.cost(fc2, PartitionSpec.from_string("B-N-N", 3))
        primepar = model.cost(fc2, PartitionSpec.from_string("N-P2x2", 3))
        assert primepar.allreduce_latency < megatron.allreduce_latency
        assert primepar.latency < megatron.latency

    def test_node_spanning_square_penalised(self, profiler8, fc2):
        """A primitive spanning nodes exposes inter-node ring traffic."""
        model = IntraOperatorCostModel(profiler8)
        intra_sq = model.cost(fc2, PartitionSpec.from_string("N-P2x2", 3))
        inter_sq = model.cost(fc2, PartitionSpec.from_string("P2x2-N", 3))
        assert inter_sq.ring_exposed > intra_sq.ring_exposed
