"""Execution simulation: kernel timelines, iteration reports, memory playback.

One engine replays plans: :class:`~repro.sim.engine.EventDrivenSimulator`,
a discrete-event replay with per-device streams and fabric-link contention.
It produces an :class:`~repro.sim.executor.IterationReport`, whose timeline
exports as a Chrome trace via :mod:`repro.sim.trace`.

:mod:`repro.sim.faults` layers seeded fault injection on the event engine
(a scenario is the arguments :meth:`KernelGraph.execute` is given) and
Monte-Carlo robustness scoring on top
(:func:`evaluate_robustness` → :class:`RobustnessReport`,
:func:`robust_search` for tail-latency-optimal planning).
"""

from .engine import EventDrivenSimulator, PlanLowering
from .kernel_graph import KernelGraph, SimKernel, StreamResource
from .executor import IterationReport
from .faults import (
    DegradedLink,
    FaultModel,
    FaultScenario,
    NicFlap,
    NodeOutage,
    RecoveryModel,
    RobustnessReport,
    ScenarioOutcome,
    Straggler,
    evaluate_robustness,
    robust_search,
)
from .timeline import KernelRecord, Timeline

__all__ = [
    "DegradedLink",
    "EventDrivenSimulator",
    "FaultModel",
    "FaultScenario",
    "IterationReport",
    "KernelGraph",
    "KernelRecord",
    "NicFlap",
    "NodeOutage",
    "PlanLowering",
    "RecoveryModel",
    "RobustnessReport",
    "ScenarioOutcome",
    "SimKernel",
    "StreamResource",
    "Straggler",
    "Timeline",
    "evaluate_robustness",
    "robust_search",
]
