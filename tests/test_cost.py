"""Cost model: compute, communication, memory, intra (Eq. 7)."""

import pytest

from repro.core.cost.communication import CommunicationCostModel
from repro.core.cost.compute import ComputeCostModel, block_bytes, block_elements
from repro.core.cost.intra import IntraOperatorCostModel
from repro.core.cost.memory import MemoryCostModel
from repro.core.dims import ALL_PHASES, Dim, Phase
from repro.core.spec import PartitionSpec
from repro.graph.tensors import DTYPE_BYTES


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
        assert block_elements(fc2, spec, (Dim.B, Dim.M, Dim.N)) == full / 8
        assert block_bytes(fc2, spec, (Dim.N, Dim.K)) == pytest.approx(
            fc2.dim_size(Dim.N) * fc2.dim_size(Dim.K) / 8 * DTYPE_BYTES
        )


class TestComputeModel:
    def test_step_latency_independent_of_t(self, topo8, fc2):
        model = ComputeCostModel(topo8.device)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        a = model.step_latency(fc2, spec, Phase.FORWARD)
        assert a > 0

    def test_phase_latency_scales_with_steps(self, profiler8, fc2):
        """Eq. 7 charges a phase's step latency once per temporal step."""
        intra = IntraOperatorCostModel(profiler8)
        temporal = PartitionSpec.from_string("N-P2x2", 3)
        assert temporal.total_steps == 2
        assert intra.cost(fc2, temporal).compute_latency == pytest.approx(
            sum(
                2 * intra.compute.step_latency(fc2, temporal, phase)
                for phase in ALL_PHASES
            )
        )

    def test_equal_flops_across_specs(self, topo8, fc2):
        """Eq. 7 compute: every full partitioning does the same total work."""
        model = ComputeCostModel(topo8.device)
        a = PartitionSpec.from_string("B-N-K", 3)
        b = PartitionSpec.from_string("N-P2x2", 3)
        la = a.total_steps * model.step_latency(fc2, a, Phase.FORWARD)
        lb = b.total_steps * model.step_latency(fc2, b, Phase.FORWARD)
        assert la == pytest.approx(lb, rel=0.1)

    def test_pointwise_zero_gradient(self, topo8, act):
        model = ComputeCostModel(topo8.device)
        spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=act.legal_dims, allow_temporal=False
        )
        assert model.step_latency(act, spec, Phase.GRADIENT) == 0.0

    def test_replication_does_not_shrink_compute(self, topo8, fc2):
        model = ComputeCostModel(topo8.device)
        split = PartitionSpec.from_string("N-N-N", 3)
        repl = PartitionSpec.from_string("R-R-N", 3)
        assert model.step_latency(fc2, repl, Phase.FORWARD) > model.step_latency(
            fc2, split, Phase.FORWARD
        )


class TestCommunicationModel:
    def test_fig9_megatron_kernel1_indicator(self, profiler8, fc2):
        """Megatron fc2 = B-N-N: all-reduce with group indicator (d2, d3)."""
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("B-N-N", 3)
        assert comm.allreduce_indicator(fc2, spec, Phase.FORWARD) == (1, 2)

    def test_fig9_primepar_kernel1_indicator(self, profiler8, fc2):
        """PrimePar fc2 = N-P2x2: all-reduce with group indicator (d1)."""
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        assert comm.allreduce_indicator(fc2, spec, Phase.FORWARD) == (0,)

    def test_temporal_primitive_collective_free(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("R-P2x2", 3)
        for phase in ALL_PHASES:
            assert comm.allreduce_latency(fc2, spec, phase) == 0.0

    def test_dp_gradient_allreduce_positive(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("B-B-B", 3)
        assert comm.allreduce_latency(fc2, spec, Phase.GRADIENT) > 0
        assert comm.allreduce_latency(fc2, spec, Phase.FORWARD) == 0.0

    def test_ring_latencies_zero_without_temporal(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("B-N-K", 3)
        assert comm.ring_phase_latencies(fc2, spec, Phase.FORWARD) == [0.0]

    def test_ring_latencies_shape(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        rings = comm.ring_phase_latencies(fc2, spec, Phase.FORWARD)
        assert len(rings) == 2
        assert rings[0] > 0  # step 0 carries I and W rings
        assert rings[1] == 0.0  # last forward step communicates nothing

    def test_backward_last_step_carries_w_epilogue(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        rings = comm.ring_phase_latencies(fc2, spec, Phase.BACKWARD)
        assert rings[-1] > 0

    def test_gradient_last_step_carries_dw(self, profiler8, fc2):
        comm = CommunicationCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        rings = comm.ring_phase_latencies(fc2, spec, Phase.GRADIENT)
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
        assert comm.layernorm_extras(ln, split_k) > 0
        assert comm.layernorm_extras(large_block.node("L0.fc1"), split_k) == 0.0
        # B/M partitioning still all-reduces the tiny gamma/beta gradients.
        assert comm.layernorm_extras(ln, no_k) > 0


class TestMemoryModel:
    def test_replicated_weight_costs_full_size(self, fc2):
        memory = MemoryCostModel()
        dp = PartitionSpec.from_string("B-B-B", 3)
        full_w = fc2.dim_size(Dim.N) * fc2.dim_size(Dim.K) * DTYPE_BYTES
        assert memory.parameter_bytes(fc2, dp) == pytest.approx(2 * full_w)

    def test_partitioned_weight_shrinks(self, fc2):
        memory = MemoryCostModel()
        mp = PartitionSpec.from_string("N-N-N", 3)
        dp = PartitionSpec.from_string("B-B-B", 3)
        assert memory.parameter_bytes(fc2, mp) == pytest.approx(
            memory.parameter_bytes(fc2, dp) / 8
        )

    def test_temporal_partitions_weight_fully(self, fc2):
        memory = MemoryCostModel()
        spec = PartitionSpec.from_string("N-P2x2", 3)
        dp = PartitionSpec.from_string("B-B-B", 3)
        assert memory.parameter_bytes(fc2, spec) == pytest.approx(
            memory.parameter_bytes(fc2, dp) / 8
        )

    def test_double_buffer_only_for_temporal(self, fc2):
        memory = MemoryCostModel()
        assert memory.double_buffer_bytes(
            fc2, PartitionSpec.from_string("B-N-K", 3)
        ) == 0.0
        assert memory.double_buffer_bytes(
            fc2, PartitionSpec.from_string("N-P2x2", 3)
        ) > 0.0

    def test_no_stash_for_residual_add(self, large_block):
        memory = MemoryCostModel()
        add = large_block.node("L0.add1")
        spec = PartitionSpec.from_string(
            "B-K-K", 3, legal_dims=add.legal_dims, allow_temporal=False
        )
        assert memory.stash_bytes(add, spec) == 0.0

    def test_plan_memory_sums(self, large_mlp, fc2):
        memory = MemoryCostModel()
        spec = PartitionSpec.from_string("N-N-N", 3)
        total = memory.plan_memory([(fc2, spec), (fc2, spec)])
        assert total == pytest.approx(2 * memory.operator_memory(fc2, spec))


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

    def test_cache_hit_returns_same_object(self, profiler8, fc2):
        model = IntraOperatorCostModel(profiler8)
        spec = PartitionSpec.from_string("N-P2x2", 3)
        assert model.cost(fc2, spec) is model.cost(fc2, spec)

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
