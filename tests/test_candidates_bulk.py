"""Bulk step-table passes against their per-spec references.

Candidate builds:
``tests/legacy_candidates.py`` keeps the per-spec ``boundary_class_key``
and the dict-based collapse it fed.  Over every operator type of the six
models, with and without the temporal primitive and batch splitting, and
with and without a beam, the twin-check build must keep the same specs as
the collapse, pickle to the same bytes and bump the same ``candidates.*``
counters.  The oracle's keys also show the enumerator class-injective
(every enumerated spec is alone in its class), and the bulk boundary
matrices must equal the scalar ``dsi_matrix`` of every enumerated spec.

Here the grid runs under a cheap stand-in cost whose many ties exercise
the first-index tie rule: all six models at 2 and 4 devices, LLaMA2-70B
(the cold-search benchmark's model) at 8, where it also runs with the real
Eq. 7 model.  To keep this suite fast, ``benchmarks/bench_candidates.py``
runs the whole grid with real costs at 8 and 16 devices, and OPT-175B at
32 devices with beam 48.

All-reduce pricing: ``cost_batch`` prices spatial specs from a step table,
and must match the per-spec ``cost`` bit for bit on every spatial spec of
the six models at 4 and 8 devices (16, and OPT-175B at 32, in the bench
tier).
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import legacy_candidates as legacy  # noqa: E402  (frozen per-spec collapse)
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.cost.intra import IntraCost, IntraOperatorCostModel
from repro.core.optimizer.candidates import (
    _BOUNDARY_POINTS,
    boundary_matrices,
    build_candidates,
    inject_canonical,
    operator_dim_limits,
    type_key,
)
from repro.core.layout import grid_events
from repro.core.partitions import DimPartition, Replicate
from repro.core.space import enumerate_specs
from repro.core.spec import PartitionSpec
from repro.graph.models import MODELS_BY_KEY
from repro.graph.transformer import build_block_graph
from repro.obs.metrics import MetricsRegistry, use_registry


def operator_types(model_key: str, n_devices: int):
    """One operator per candidate-set type of the model's block."""
    shape = MODELS_BY_KEY[model_key].block_shape(batch=max(8, n_devices))
    types = {}
    for node in build_block_graph(shape).nodes:
        types.setdefault(type_key(node), node)
    return list(types.values())


class TieCost:
    """Stand-in Eq. 7 model: a cheap cost with many exact ties.

    Depends only on the spec's steps, so both builds see the same costs,
    and, like Eq. 7 (slice counts and DSIs, never a grid axis), not on how
    a step spells its axis.
    """

    def cost_batch(self, op, specs: Sequence[PartitionSpec]) -> List[IntraCost]:
        return [
            IntraCost(
                compute_latency=float(
                    sum(
                        (i + 1) * _step_code(step)
                        for i, step in enumerate(spec.steps)
                    ) % 5
                ),
                ring_latency=0.0,
                ring_exposed=0.0,
                allreduce_latency=0.0,
                memory_bytes=0.0,
                alpha=0.0,
            )
            for spec in specs
        ]


def _step_code(step) -> int:
    if isinstance(step, Replicate):
        return 1
    if isinstance(step, DimPartition):
        return 2 + "BMNK".index(step.dim.value)
    return 7 * step.k


def counter_values(registry: MetricsRegistry) -> Dict:
    return {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
        for entry in registry.snapshot()["counters"]
        if entry["name"].startswith("candidates.")
    }


def assert_same_build(op, n_bits, intra, include_temporal, partition_batch, beam):
    """Both builds: same kept specs, pickle bytes and counters.

    Returns the bulk build.
    """
    built = {}
    counters = {}
    builds = (("legacy", legacy.build_candidates), ("bulk", build_candidates))
    for name, build in builds:
        registry = MetricsRegistry()
        with use_registry(registry):
            built[name] = build(
                op, n_bits, intra,
                include_temporal=include_temporal,
                partition_batch=partition_batch,
                beam=beam,
            )
        counters[name] = counter_values(registry)
    context = (op.name, n_bits, include_temporal, partition_batch, beam)
    assert [str(s) for s in built["bulk"].specs] == [
        str(s) for s in built["legacy"].specs
    ], context
    assert pickle.dumps(built["bulk"]) == pickle.dumps(built["legacy"]), context
    assert counters["bulk"] == counters["legacy"], context
    return built["bulk"]


def assert_grid(op, n_bits, intra, beams=(None, 48)):
    """:func:`assert_same_build` over both space switches and ``beams``.

    A beam no smaller than the class count is never applied, so that
    build is skipped once the unbeamed build shows it.
    """
    for include_temporal in (True, False):
        for partition_batch in (True, False):
            classes = None
            for beam in beams:
                if beam is not None and classes is not None and classes <= beam:
                    continue
                cset = assert_same_build(
                    op, n_bits, intra, include_temporal, partition_batch, beam
                )
                if beam is None:
                    classes = len(cset)


def assert_injective_with_matrices(op, specs):
    """The oracle puts each spec in its own class, and the bulk boundary
    matrices equal every spec's scalar ``dsi_matrix``."""
    matrices = boundary_matrices(specs)
    keys = [legacy.boundary_class_key(op, spec) for spec in specs]
    assert len(set(keys)) == len(keys), op.name
    for i, spec in enumerate(specs):
        for p, point in enumerate(_BOUNDARY_POINTS):
            assert np.array_equal(
                matrices[i, p], spec.evaluator.dsi_matrix(*point)
            ), (op.name, str(spec), point)


@pytest.mark.parametrize(
    "model_key, n_devices",
    [(key, n) for key in sorted(MODELS_BY_KEY) for n in (2, 4)]
    + [("llama2-70b", 8)],
)
def test_bulk_build_matches_legacy(model_key, n_devices):
    n_bits = n_devices.bit_length() - 1
    for op in operator_types(model_key, n_devices):
        assert_grid(op, n_bits, TieCost())


def test_bulk_build_matches_legacy_priced():
    """The real Eq. 7 model: its costs, ties and pickled slice counts."""
    intra = IntraOperatorCostModel(FabricProfiler(v100_cluster(8)))
    for op in operator_types("llama2-70b", 8):
        for beam in (None, 48):
            assert_same_build(op, 3, intra, True, True, beam)


def enumerated_specs(op, n_bits: int, include_temporal: bool = True):
    """The operator's whole partition space, before collapse or beam."""
    return enumerate_specs(
        n_bits,
        list(op.legal_dims),
        allow_temporal=op.allow_temporal,
        include_temporal=include_temporal,
        dim_limits=operator_dim_limits(op),
        axis_options={d: op.partition_axis_options(d) for d in op.legal_dims},
        axis_capacities=op.axis_capacities(),
        include_replicate=not op.is_matmul_like,
    )


@pytest.mark.parametrize("n_devices", [4, 16])
def test_partition_and_matrices_match_oracle(n_devices):
    """Every enumerated spec: its own oracle class, all boundary matrices."""
    n_bits = n_devices.bit_length() - 1
    for op in operator_types("opt-175b", n_devices):
        assert_injective_with_matrices(op, enumerated_specs(op, n_bits))


def assert_spatial_costs_match_scalar(model_key, n_devices):
    """``cost_batch`` prices spatial specs' all-reduces from a step table;
    every ``IntraCost`` must equal the per-spec path's, bit for bit."""
    profiler = FabricProfiler(v100_cluster(n_devices))
    batched = IntraOperatorCostModel(profiler, alpha=2e-11)
    scalar = IntraOperatorCostModel(profiler, alpha=2e-11)
    n_bits = n_devices.bit_length() - 1
    for op in operator_types(model_key, n_devices):
        specs = enumerated_specs(op, n_bits, include_temporal=False)
        for spec, cost in zip(specs, batched.cost_batch(op, specs)):
            assert cost == scalar.cost(op, spec), (op.name, str(spec))


@pytest.mark.parametrize("n_devices", [4, 8])
@pytest.mark.parametrize("model_key", sorted(MODELS_BY_KEY))
def test_spatial_cost_batch_matches_scalar(model_key, n_devices):
    assert_spatial_costs_match_scalar(model_key, n_devices)


def test_axis_choice_splits_classes():
    """Same DSIs, different grid axes: ``B[batch]-B[heads]`` vs the swap
    are two oracle classes, and neither is the other's twin."""
    scores = operator_types("opt-6.7b", 4)[3]
    assert scores.name.endswith("scores")
    specs = [
        PartitionSpec.from_string("B[batch]-B[heads]", 2),
        PartitionSpec.from_string("B[heads]-B[batch]", 2),
    ]
    matrices = boundary_matrices(specs)
    assert np.array_equal(matrices[0], matrices[1])
    assert_injective_with_matrices(scores, specs)
    assert inject_canonical(scores, specs[:1], specs[1:]) == ([1], 0)


@pytest.mark.parametrize(
    "model_key, suffix, extra, twin",
    [
        ("opt-6.7b", "qkv", "K[heads]-K[heads]", "K-K"),
        ("opt-6.7b", "scores", "B-B[heads]", "B[batch]-B[heads]"),
    ],
)
def test_twin_extra_yields_to_enumerated_spelling(model_key, suffix, extra, twin):
    """A canonical extra that respells an enumerated spec's axis is not
    appended: the enumerated spelling is protected in its place."""
    op = next(
        op for op in operator_types(model_key, 4) if op.name.endswith(suffix)
    )
    specs = enumerated_specs(op, 2)
    extra_spec = PartitionSpec.from_string(extra, 2)
    assert extra_spec not in specs
    enumerated = list(specs)
    protected, twins = inject_canonical(op, specs, [extra_spec])
    assert specs == enumerated and twins == 1
    assert str(specs[protected[0]]) == twin
    assert legacy.boundary_class_key(op, extra_spec) == legacy.boundary_class_key(
        op, specs[protected[0]]
    )


def test_non_twin_extra_appended():
    """Same steps up to axis spelling, but another grid: appended."""
    scores = operator_types("opt-6.7b", 4)[3]
    specs = [PartitionSpec.from_string("B[batch]-B[heads]", 2)]
    same = PartitionSpec.from_string("B[batch]-B[heads]", 2)
    twin = PartitionSpec.from_string("B-B[heads]", 2)
    other = PartitionSpec.from_string("B[heads]-B", 2)
    protected, twins = inject_canonical(scores, specs, [same, twin, other])
    assert (protected, twins) == ([0, 0, 1], 1)
    assert specs[1] is other


def test_unknown_explicit_axis_rejected():
    fc1 = operator_types("opt-6.7b", 4)[-3]
    assert fc1.name.endswith("fc1")
    dim = fc1.legal_dims[0]
    spec = PartitionSpec((DimPartition(dim, axis="nope"),), 1)
    twin = PartitionSpec((DimPartition(dim),), 1)
    with pytest.raises(ValueError, match="not part of"):
        grid_events(fc1, spec, dim)
    with pytest.raises(ValueError, match="not part of"):
        inject_canonical(fc1, [twin], [spec])
    with pytest.raises(ValueError, match="not part of"):
        legacy.grid_signature(fc1, spec)


def test_seeded_caches_are_distinct_arrays():
    """One owned array per key, in ``dsi_matrix``'s own key order."""
    op = operator_types("opt-6.7b", 8)[-3]
    profiler = FabricProfiler(v100_cluster(8))
    cset = build_candidates(op, 3, IntraOperatorCostModel(profiler), beam=48)
    temporal = [spec for spec in cset.specs if spec.has_temporal]
    assert temporal and len(temporal) < len(cset.specs)
    for spec in cset.specs:
        cache = spec.evaluator._matrix_cache
        last = spec.total_steps - 1
        expected = [(phase, t % spec.total_steps) for phase, t in _BOUNDARY_POINTS]
        assert list(cache) == list(dict.fromkeys(expected))
        assert len(cache) == (5 if last else 3)
        arrays = list(cache.values())
        assert all(a.base is None and a.flags.c_contiguous for a in arrays)
        assert len({id(a) for a in arrays}) == len(arrays)
