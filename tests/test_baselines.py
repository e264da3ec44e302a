"""Baselines: Megatron-LM plans, the Alpa stand-in, the ideal memory bound."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import schedule_oracle as analysis  # noqa: E402  (scalar all-reduce groups)
from repro.baselines.ideal import global_footprint_bytes, ideal_peak_memory
from repro.baselines.megatron import (
    best_megatron_plan,
    megatron_plan,
    megatron_plans,
)
from repro.baselines.portfolio import portfolio
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.cost.overall import OverallCostModel
from repro.core.dims import Dim, Phase
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.core.partitions import Replicate
from repro.graph.models import MODELS_BY_KEY
from repro.graph.transformer import build_block_graph
from repro.sim.engine import EventDrivenSimulator


class TestMegatronPlan:
    def test_plan_covers_graph(self, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        assert set(plan) == {n.name for n in large_block.nodes}

    def test_column_row_structure(self, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=1)
        assert str(plan["L0.fc1"]) == "K-K-K"
        assert str(plan["L0.fc2"]) == "N-N-N"
        assert str(plan["L0.qkv"]) == "K[heads]-K[heads]-K[heads]"
        assert str(plan["L0.out_proj"]) == "N[heads]-N[heads]-N[heads]"

    def test_layernorm_replicated(self, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        ln_steps = plan["L0.ln1"].steps
        assert sum(isinstance(s, Replicate) for s in ln_steps) == 2

    def test_dp_degree_validation(self, large_block):
        with pytest.raises(ValueError):
            megatron_plan(large_block, 3, dp_degree=3)
        with pytest.raises(ValueError):
            megatron_plan(large_block, 3, dp_degree=16)

    def test_dp_exceeding_batch_rejected(self, large_block):
        # batch is 8 in the fixture
        with pytest.raises(ValueError):
            megatron_plan(large_block, 5, dp_degree=16)

    def test_forward_allreduce_only_on_row_parallel(self, large_block):
        """Megatron forward all-reduces exactly out_proj and fc2 outputs."""
        plan = megatron_plan(large_block, 3, dp_degree=1)
        for name, spec in plan.items():
            node = large_block.node(name)
            if node.kind.value not in ("linear", "matmul"):
                continue
            groups = analysis.allreduce_groups(
                spec, node.signatures()[Phase.FORWARD]
            )
            suffix = name.split(".")[-1]
            if suffix in ("out_proj", "fc2"):
                assert groups, name
            else:
                assert not groups, name

    def test_gradient_allreduce_under_dp(self, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        fc1 = large_block.node("L0.fc1")
        groups = analysis.allreduce_groups(
            plan["L0.fc1"], fc1.signatures()[Phase.GRADIENT]
        )
        assert groups  # weight-gradient sync across the two replicas

    def test_attention_zero_edge_traffic(self, profiler8, large_block):
        """Head-aligned attention: no redistribution inside the block."""
        from repro.core.cost.inter import InterOperatorCostModel

        plan = megatron_plan(large_block, 3, dp_degree=2)
        inter = InterOperatorCostModel(profiler8)
        for edge, cost, _, _ in inter.plan_edge_costs(large_block, plan):
            assert cost == pytest.approx(0.0), edge.key()


class TestBestMegatron:
    def test_enumeration_returns_best(self, profiler8, large_block):
        simulator = EventDrivenSimulator(profiler8)
        best = best_megatron_plan(simulator, large_block, global_batch=8)
        assert best.dp_degree * best.mp_degree == 8
        # Every other feasible degree is no faster.
        d = 1
        while d <= 8:
            plan = megatron_plan(large_block, 3, dp_degree=d)
            report = simulator.run_model(large_block, plan, 8, 1)
            assert report.throughput <= best.report.throughput * (1 + 1e-9)
            d *= 2


    @pytest.mark.parametrize(
        "model_key, devices",
        [("opt-6.7b", 4), ("opt-6.7b", 8), ("llama2-70b", 4), ("llama2-70b", 8)],
    )
    def test_throughput_pick_is_eq10_fastest(self, model_key, devices):
        """On contention-free single-node cells the simulated-throughput
        pick is also the degree Eq. 10 prices fastest: the rule the
        robustness portfolio once used agrees with this one."""
        model = MODELS_BY_KEY[model_key]
        profiler = FabricProfiler(v100_cluster(devices))
        graph = build_block_graph(model.block_shape(batch=8))
        best = best_megatron_plan(
            EventDrivenSimulator(profiler), graph, 8, model.n_layers
        )
        cost = OverallCostModel(profiler)
        fastest, _ = min(
            megatron_plans(graph, profiler.topology, 8),
            key=lambda entry: cost.plan_cost(graph, entry[1]).latency,
        )
        assert best.dp_degree == fastest


#: The memory weight the benchmarks compare the three systems under.
ALPHA = 2e-11


class TestAlpa:
    """The Alpa stand-in: the portfolio's conventional-space search."""

    def test_alpa_excludes_temporal(self, profiler4, small_block):
        plans = portfolio(
            profiler4, small_block, global_batch=8, n_layers=1, alpha=ALPHA
        )
        assert all(
            not spec.has_temporal for spec in plans.conventional.plan.values()
        )

    def test_alpa_is_conventional_search(self, profiler4, small_block):
        """The stand-in is PrimePar's own search without the temporal
        primitive, under the portfolio's one alpha."""
        plans = portfolio(
            profiler4, small_block, global_batch=8, n_layers=2, alpha=ALPHA
        )
        direct = PrimeParOptimizer(
            profiler4, alpha=ALPHA, include_temporal=False
        ).optimize(small_block, n_layers=2)
        assert plans.conventional.plan == direct.plan
        assert plans.conventional.cost == direct.cost
        assert plans.conventional.model_cost == direct.model_cost

    def test_alpa_at_least_as_good_as_megatron(self, profiler8, large_block):
        """Alpa searches a superset of Megatron's manual plans; at alpha 0
        its objective is latency alone."""
        simulator = EventDrivenSimulator(profiler8)
        plans = portfolio(
            profiler8, large_block, global_batch=8, n_layers=1, alpha=0.0
        )
        alpa_report = simulator.run_model(
            large_block, plans.conventional.plan, 8, 1
        )
        assert alpa_report.throughput >= (
            plans.megatron.report.throughput * 0.999
        )

    @pytest.mark.parametrize("n_devices", [4, 8])
    @pytest.mark.parametrize("key", sorted(MODELS_BY_KEY))
    def test_spaces_nest_under_one_alpha(self, key, n_devices):
        """The conventional space is a subset of PrimePar's, so under one
        alpha PrimePar's exact optimum is never above the stand-in's, per
        layer or over the whole stack (the six benchmark models)."""
        model = MODELS_BY_KEY[key]
        batch = max(8, n_devices)
        plans = portfolio(
            FabricProfiler(v100_cluster(n_devices)),
            build_block_graph(model.block_shape(batch=batch)),
            global_batch=batch, n_layers=model.n_layers, alpha=ALPHA,
        )
        assert plans.primepar.cost <= plans.conventional.cost
        assert plans.primepar.model_cost <= plans.conventional.model_cost


class TestIdealMemory:
    def test_footprint_positive(self, large_block):
        assert global_footprint_bytes(large_block) > 0

    def test_ideal_scales_inversely_with_devices(self, large_block):
        m8 = ideal_peak_memory(large_block, 8)
        m16 = ideal_peak_memory(large_block, 16)
        assert m8 == pytest.approx(2 * m16)

    def test_ideal_below_any_real_plan(self, profiler8, large_block):
        """No replication means the ideal is a lower bound (Fig. 2b)."""
        simulator = EventDrivenSimulator(profiler8)
        plan = megatron_plan(large_block, 3, dp_degree=2)
        report = simulator.run(large_block, plan, 8)
        # The real plan double-buffers nothing here, but replicates LNs and
        # weights; allow the paper's model differences with a small margin.
        assert ideal_peak_memory(large_block, 8) <= report.peak_memory_bytes
