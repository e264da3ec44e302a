"""Numerical equivalence of partitioned training on the virtual cluster."""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import schedule_oracle  # noqa: E402  (scalar ring schedule and groups)
from repro.core.device import DeviceId
from repro.core.dims import ALL_DIMS, LINEAR_SIGNATURES, Phase
from repro.core.space import enumerate_specs
from repro.core.spec import PartitionSpec
from repro.runtime.linear_exec import LinearShape, PartitionedLinear
from repro.runtime.reference import reference_iteration
from repro.runtime.verify import verify_spec
from repro.runtime.virtual_cluster import VirtualCluster


class TestVirtualCluster:
    def test_send_deliver(self):
        cluster = VirtualCluster(1)
        a, b = DeviceId((0,)), DeviceId((1,))
        cluster.device(a).put("x", np.ones(3))
        cluster.send(a, b, "x", cluster.device(a).get("x"))
        cluster.deliver()
        assert np.array_equal(cluster.device(b).get("x"), np.ones(3))
        assert cluster.stats["p2p_messages"] == 1

    def test_snapshot_semantics(self):
        """Messages carry the value at send time (double buffering)."""
        cluster = VirtualCluster(1)
        a, b = DeviceId((0,)), DeviceId((1,))
        block = np.ones(2)
        cluster.device(a).put("x", block)
        cluster.send(a, b, "x", cluster.device(a).get("x"))
        block[:] = 5.0  # mutate after send
        cluster.deliver()
        assert np.array_equal(cluster.device(b).get("x"), np.ones(2))

    def test_allreduce_sums(self):
        cluster = VirtualCluster(1)
        a, b = DeviceId((0,)), DeviceId((1,))
        cluster.device(a).put("g", np.array([1.0]))
        cluster.device(b).put("g", np.array([2.0]))
        cluster.allreduce([a, b], "g")
        assert cluster.device(a).get("g")[0] == 3.0
        assert cluster.device(b).get("g")[0] == 3.0

    def test_allreduce_with_representatives(self):
        """Replicas receive the sum without contributing to it."""
        cluster = VirtualCluster(2)
        devices = [DeviceId.from_rank(r, 2) for r in range(4)]
        for rank, device in enumerate(devices):
            cluster.device(device).put("g", np.array([float(rank % 2 + 1)]))
        cluster.allreduce(devices, "g", representatives=devices[:2])
        for device in devices:
            assert cluster.device(device).get("g")[0] == 3.0


class TestReference:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        i = rng.standard_normal((2, 4, 6))
        w = rng.standard_normal((6, 8))
        do = rng.standard_normal((2, 4, 8))
        out = reference_iteration(i, w, do, lr=0.1)
        assert out["O"].shape == (2, 4, 8)
        assert out["dI"].shape == (2, 4, 6)
        assert out["dW"].shape == (6, 8)
        assert np.allclose(out["W"], w - 0.1 * out["dW"])


class TestEquivalenceExhaustive:
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
    def test_all_specs_match_reference(self, n_bits):
        """Every sequence in the space preserves training semantics."""
        for spec in enumerate_specs(n_bits, ALL_DIMS, include_replicate=True):
            report = verify_spec(spec, seed=3)
            assert report.passed, (str(spec), report.max_errors)

    @pytest.mark.parametrize(
        "text,n",
        [
            ("P2x2", 2),
            ("P4x4", 4),
            ("N-P2x2", 3),
            ("B-N-P2x2", 4),
            ("P2x2-P2x2", 4),
            ("M-K-P2x2", 4),
            ("R-P2x2", 3),
        ],
    )
    def test_selected_large_specs(self, text, n):
        report = verify_spec(PartitionSpec.from_string(text, n), seed=7)
        assert report.passed, report.max_errors


def executed_schedule(spec):
    """Run one iteration of ``spec`` and record what the cluster did.

    Returns ``(sends, groups)``: the set of ``(tensor, src, dst)`` ranks
    sent after each ``(phase, step)``'s compute and before the next one's,
    and the set of ``(members, representatives)`` ranks all-reduced at the
    end of each phase.
    """
    side = max(spec.slice_counts.values())
    shape = LinearShape(side, side, side, side)
    rng = np.random.default_rng(0)
    executor = PartitionedLinear(spec, shape)
    cluster = executor.cluster
    sends, groups = {}, {}
    where = {}
    run_phase, send, allreduce = (
        executor._run_phase, cluster.send, cluster.allreduce
    )

    def recording_phase(phase, compute):
        calls = itertools.count()
        where["at"] = (phase, None)

        def counted(store):
            where["at"] = (phase, next(calls) // spec.n_devices)
            return compute(store)

        run_phase(phase, counted)

    def recording_send(src, dst, name, block):
        sends.setdefault(where["at"], set()).add((name, src.rank, dst.rank))
        send(src, dst, name, block)

    def recording_allreduce(members, name, representatives=None):
        groups.setdefault(where["at"][0], set()).add(
            (
                tuple(d.rank for d in members),
                tuple(d.rank for d in representatives),
            )
        )
        allreduce(members, name, representatives=representatives)

    executor._run_phase = recording_phase
    cluster.send = recording_send
    cluster.allreduce = recording_allreduce
    executor.run_iteration(
        rng.standard_normal((side, side, side)),
        rng.standard_normal((side, side)),
        rng.standard_normal((side, side, side)),
    )
    return sends, groups


def oracle_schedule(spec):
    """:func:`executed_schedule`'s record, from the scalar oracle: its
    ``transfers_by_step`` plus Backward's ``W`` ``epilogue_transfers``,
    and its ``allreduce_groups``."""
    sends, groups = {}, {}
    for phase, signature in LINEAR_SIGNATURES.items():
        transfers = [
            transfer
            for step in schedule_oracle.transfers_by_step(spec, signature).values()
            for transfer in step
        ]
        if phase is Phase.BACKWARD:
            transfers += schedule_oracle.epilogue_transfers(
                spec, signature.inputs[1], Phase.BACKWARD, Phase.FORWARD
            )
        for tr in transfers:
            sends.setdefault((phase, tr.step), set()).add(
                (tr.tensor, tr.src.rank, tr.dst.rank)
            )
        found = schedule_oracle.allreduce_groups(spec, signature)
        if found:
            groups[phase] = {
                (
                    tuple(d.rank for d in group.members),
                    tuple(d.rank for d in group.class_representatives),
                )
                for group in found
            }
    return sends, groups


class TestExecutedSchedule:
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
    def test_schedule_matches_oracle(self, n_bits):
        """Every linear spec: the virtual cluster sends, step by step, and
        all-reduces, phase by phase, exactly what the scalar oracle
        derives (``tests/schedule_oracle.py``)."""
        for spec in enumerate_specs(n_bits, ALL_DIMS, include_replicate=True):
            assert executed_schedule(spec) == oracle_schedule(spec), str(spec)


class TestFeatureStatistics:
    def test_pure_primitive_needs_no_collectives(self):
        report = verify_spec(PartitionSpec.from_string("P2x2", 2))
        assert report.allreduce_invocations == 0
        assert report.p2p_messages > 0

    def test_spatial_reduce_needs_collectives(self):
        report = verify_spec(PartitionSpec.from_string("N-N", 2))
        assert report.allreduce_invocations > 0
        assert report.p2p_messages == 0

    def test_report_fields(self):
        report = verify_spec(PartitionSpec.from_string("P2x2", 2))
        assert report.spec == "P2x2"
        assert set(report.max_errors) == {"O", "dI", "dW", "W"}


class TestShapeValidation:
    def test_indivisible_shape_rejected(self):
        spec = PartitionSpec.from_string("P2x2", 2)
        with pytest.raises(ValueError):
            PartitionedLinear(spec, LinearShape(b=4, m=3, n=4, k=4))

    def test_custom_shape(self):
        spec = PartitionSpec.from_string("B-K", 2)
        report = verify_spec(spec, shape=LinearShape(b=4, m=2, n=6, k=8))
        assert report.passed


class TestMultipleIterations:
    def test_two_chained_iterations(self):
        """Feature 3 lets iterations chain without redistribution."""
        spec = PartitionSpec.from_string("P2x2", 2)
        shape = LinearShape(4, 4, 4, 4)
        rng = np.random.default_rng(11)
        i1 = rng.standard_normal((4, 4, 4))
        w = rng.standard_normal((4, 4))
        do1 = rng.standard_normal((4, 4, 4))
        executor = PartitionedLinear(spec, shape)
        first = executor.run_iteration(i1, w, do1, lr=0.1)
        ref1 = reference_iteration(i1, w, do1, lr=0.1)
        assert np.allclose(first["W"], ref1["W"])
        # Second iteration from the updated weight.
        i2 = rng.standard_normal((4, 4, 4))
        do2 = rng.standard_normal((4, 4, 4))
        executor2 = PartitionedLinear(spec, shape)
        second = executor2.run_iteration(i2, first["W"], do2, lr=0.1)
        ref2 = reference_iteration(i2, ref1["W"], do2, lr=0.1)
        assert np.allclose(second["O"], ref2["O"])
        assert np.allclose(second["W"], ref2["W"])
