"""Twin-check candidate builds vs the frozen per-spec collapse, at full scale.

The bench-tier half of ``tests/test_candidates_bulk.py``: the same
build-equivalence checks (kept specs, byte-identical
``pickle.dumps(CandidateSet)``, ``candidates.*`` counters) against
``tests/legacy_candidates.py``, with the real Eq. 7 cost model, on every
operator type of the six models at 8 and 16 devices (both space switches,
beam ``None`` and 48), and on OPT-175B at 32 devices with beam 48;
``cost_batch``'s step-table Eq. 7 pricing against the frozen per-spec
assembly (``tests/legacy_intra.py``) on every enumerated spec of the six
models at 16 devices and of OPT-175B at 32; and the bulk ring sends
against the scalar oracle's ``ring_transfers`` and ``epilogue_transfers``
(``tests/schedule_oracle.py``) on every
temporal spec of OPT-175B at 32 devices, the space its beam-48 builds
prune.
Takes a few minutes; ``-k opt_175b_32`` runs the 32-device check alone
(CI's bench-smoke job does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_candidates.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from test_candidates_bulk import (
    assert_costs_match_legacy,
    assert_grid,
    assert_ring_sends_match_analysis,
    operator_types,
)

from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.cost.intra import IntraOperatorCostModel
from repro.graph.models import MODELS_BY_KEY


@pytest.mark.parametrize("n_devices", [8, 16])
@pytest.mark.parametrize("model_key", sorted(MODELS_BY_KEY))
def test_bulk_build_matches_legacy_priced(model_key, n_devices):
    intra = IntraOperatorCostModel(FabricProfiler(v100_cluster(n_devices)))
    n_bits = n_devices.bit_length() - 1
    for op in operator_types(model_key, n_devices):
        assert_grid(op, n_bits, intra)


def test_opt_175b_32_devices_beam_48():
    intra = IntraOperatorCostModel(FabricProfiler(v100_cluster(32)))
    for op in operator_types("opt-175b", 32):
        assert_grid(op, 5, intra, beams=(48,))


@pytest.mark.parametrize(
    "model_key, n_devices",
    [(key, 16) for key in sorted(MODELS_BY_KEY)] + [("opt-175b", 32)],
)
def test_spatial_cost_batch_matches_scalar(model_key, n_devices):
    assert_costs_match_legacy(model_key, n_devices)


def test_ring_sends_match_analysis_opt_175b_32():
    assert assert_ring_sends_match_analysis("opt-175b", 32) > 0
