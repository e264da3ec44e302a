"""Property-based tests (hypothesis) on core invariants."""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))
import schedule_oracle as analysis  # noqa: E402  (scalar ring schedule)
from dsi_oracle import evaluator  # noqa: E402  (scalar Alg. 1 walk)
from oracles import dsi_matrix, slice_interval  # noqa: E402  (scalar references)
from repro.core.device import DeviceId, all_devices
from repro.core.dims import ALL_DIMS, ALL_PHASES, Dim, LINEAR_SIGNATURES, Phase
from repro.core.optimizer.dp import min_plus
from repro.core.partitions import DimPartition, Replicate, TemporalPartition
from repro.core.spec import PartitionSpec
from repro.runtime.verify import verify_spec

# ---------------------------------------------------------------------------
# random partition sequences
# ---------------------------------------------------------------------------


@st.composite
def partition_specs(draw, max_bits=4):
    """A random legal partition sequence consuming <= max_bits bits."""
    steps = []
    bits = draw(st.integers(min_value=1, max_value=max_bits))
    remaining = bits
    while remaining:
        choices = ["dim", "replicate"]
        if remaining >= 2:
            choices.append("temporal")
        kind = draw(st.sampled_from(choices))
        if kind == "dim":
            steps.append(DimPartition(draw(st.sampled_from(ALL_DIMS))))
            remaining -= 1
        elif kind == "replicate":
            steps.append(Replicate())
            remaining -= 1
        else:
            k = draw(st.integers(min_value=1, max_value=remaining // 2))
            steps.append(TemporalPartition(k))
            remaining -= 2 * k
    return PartitionSpec(tuple(steps), bits)


class TestDsiInvariants:
    @given(partition_specs())
    @settings(max_examples=60, deadline=None)
    def test_every_slice_is_owned_each_step(self, spec):
        """At every (phase, t), devices' tensor DSIs cover all slices."""
        for phase in ALL_PHASES:
            signature = LINEAR_SIGNATURES[phase]
            for t in range(spec.total_steps):
                for tensor in signature.tensors:
                    expected = 1
                    for dim in tensor.dims:
                        expected *= spec.slice_counts[dim]
                    held = {
                        evaluator(spec).tensor_dsi(d, phase, t, tensor.dims)
                        for d in all_devices(spec.n_bits)
                    }
                    assert len(held) == expected

    @given(partition_specs())
    @settings(max_examples=60, deadline=None)
    def test_dsi_within_slice_range(self, spec):
        for phase in ALL_PHASES:
            for t in range(spec.total_steps):
                matrix = dsi_matrix(evaluator(spec), phase, t)
                for i, dim in enumerate(ALL_DIMS):
                    assert matrix[:, i].min() >= 0
                    assert matrix[:, i].max() < spec.slice_counts[dim]

    @given(partition_specs())
    @settings(max_examples=60, deadline=None)
    def test_weight_cycle_always_aligned(self, spec):
        """Feature 3 holds for every sequence, not just the pure primitive."""
        assert analysis.weight_cycle_aligned(spec)

    @given(partition_specs())
    @settings(max_examples=60, deadline=None)
    def test_stash_alignment_always_holds(self, spec):
        assert analysis.phase_transition_aligned(
            spec, Phase.FORWARD, Phase.GRADIENT, (Dim.B, Dim.M, Dim.N)
        )
        assert analysis.phase_transition_aligned(
            spec, Phase.BACKWARD, Phase.GRADIENT, (Dim.B, Dim.M, Dim.K)
        )

    @given(partition_specs())
    @settings(max_examples=40, deadline=None)
    def test_coverage_tiles_reduce_space(self, spec):
        for signature in LINEAR_SIGNATURES.values():
            total = 1
            for dim in sorted(signature.reduce_dims):
                total *= spec.slice_counts[dim]
            for group in analysis.allreduce_groups(spec, signature):
                covered = []
                for rep in group.class_representatives:
                    covered.extend(analysis.reduce_coverage(spec, signature, rep))
                assert sorted(covered) == sorted(set(covered))
                assert len(set(covered)) == total


class TestNumericalEquivalence:
    @given(partition_specs(max_bits=3), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_random_specs_train_exactly(self, spec, seed):
        """Any sequence reproduces single-device training bit-close."""
        report = verify_spec(spec, seed=seed)
        assert report.passed, (report.spec, report.max_errors)


class TestSliceInterval:
    @given(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_slices_tile_dimension(self, total, n_slices):
        cursor = 0
        for index in range(n_slices):
            start, stop = slice_interval(total, n_slices, index)
            assert start == cursor
            cursor = stop
        assert cursor == total

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_slice_sizes_balanced(self, total, n_slices):
        sizes = [
            slice_interval(total, n_slices, i)[1]
            - slice_interval(total, n_slices, i)[0]
            for i in range(n_slices)
        ]
        assert max(sizes) - min(sizes) <= 1


class TestMinPlusProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_min_plus_matches_bruteforce(self, a, b, c, seed):
        rng = np.random.default_rng(seed)
        left = rng.random((a, b))
        right = rng.random((b, c))
        out, arg = min_plus(left, right)
        expected = (left[:, :, None] + right[None, :, :]).min(axis=1)
        assert np.allclose(out, expected)
        taken = np.take_along_axis(
            left[:, :, None] + right[None, :, :], arg[:, None, :], axis=1
        )[:, 0, :]
        assert np.allclose(taken, expected)
