"""Chrome/Perfetto trace export of simulated kernel timelines.

Converts a :class:`~repro.sim.timeline.Timeline` (a plan replay's or a
pipeline schedule's) into the Chrome trace-event JSON format, loadable in
``chrome://tracing`` or https://ui.perfetto.dev.  Each device gets two
tracks: a compute track for stream kernels (compute, all-reduce,
redistribution, pipeline stages) and a communication track for overlapped
ring transfers, so the overlap the temporal primitive buys is visible as
parallel slices.

Layout:

* ``pid`` — the node housing the device (all devices when no topology is
  given share pid 0);
* ``tid`` — ``2 * device`` for the compute track, ``2 * device + 1`` for
  the overlapped-communication track;
* ``ts``/``dur`` — microseconds (trace-event convention; the simulator's
  clock is seconds).

Optimizer spans (``repro.obs.spans`` exports) ride along on a dedicated
``pid`` (:data:`SPAN_PID`) so one Perfetto view shows the strategy search
(wall-clock) next to the simulated execution it produced; worker-process
spans merged by ``parallel_map`` get their own thread rows.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence

from ..cluster.topology import ClusterTopology
from .timeline import Timeline

#: Seconds -> trace-event microseconds.
_US = 1e6

#: Process id of the optimizer-span track — far above any simulated node.
SPAN_PID = 1000


def _track_of(device: int, overlapped: bool) -> int:
    return 2 * device + (1 if overlapped else 0)


def span_events(
    spans: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """Optimizer spans as complete trace events on the :data:`SPAN_PID` track.

    Spans from the main process share thread 0; spans merged from each
    worker process land on their own thread so fan-out is visible.
    """
    events: List[Dict[str, object]] = []
    tids: Dict[str, int] = {}
    for entry in spans:
        if entry["duration"] <= 0:
            continue
        proc = str(entry.get("proc", "main"))
        tid = tids.setdefault(proc, len(tids))
        events.append(
            {
                "name": entry["name"],
                "cat": "span",
                "ph": "X",
                "ts": entry["start"] * _US,
                "dur": entry["duration"] * _US,
                "pid": SPAN_PID,
                "tid": tid,
                "args": {
                    "path": entry["path"],
                    "proc": proc,
                    **dict(entry.get("attrs", {})),
                },
            }
        )
    metadata: List[Dict[str, object]] = []
    if events:
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": SPAN_PID,
                "tid": 0,
                "args": {"name": "optimizer (search spans)"},
            }
        )
        for proc, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": SPAN_PID,
                    "tid": tid,
                    "args": {"name": f"spans {proc}"},
                }
            )
    return metadata + events


def timeline_to_trace(
    timeline: Timeline,
    topology: Optional[ClusterTopology] = None,
    spans: Optional[Sequence[Mapping[str, object]]] = None,
) -> Dict[str, object]:
    """A Chrome trace-event document for ``timeline``.

    Returns the ``{"traceEvents": [...]}`` object form with process/thread
    name metadata plus one complete (``ph="X"``) event per kernel record;
    ``spans`` adds the optimizer-span track (:func:`span_events`).
    """
    events: List[Dict[str, object]] = []
    seen_tracks: Dict[int, int] = {}  # tid -> device
    for record in timeline.records:
        if record.duration <= 0:
            continue
        tid = _track_of(record.device, record.overlapped)
        seen_tracks.setdefault(tid, record.device)
        pid = topology.node_of(record.device) if topology is not None else 0
        events.append(
            {
                "name": f"{record.op}.{record.phase}.{record.kind}",
                "cat": record.kind,
                "ph": "X",
                "ts": record.start * _US,
                "dur": record.duration * _US,
                "pid": pid,
                "tid": tid,
                "args": {
                    "op": record.op,
                    "phase": record.phase,
                    "kind": record.kind,
                    "overlapped": record.overlapped,
                },
            }
        )
    metadata: List[Dict[str, object]] = []
    pids = sorted({e["pid"] for e in events})
    for pid in pids:
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"node{pid}"},
            }
        )
    for tid, device in sorted(seen_tracks.items()):
        pid = topology.node_of(device) if topology is not None else 0
        kind = "compute" if tid % 2 == 0 else "comm"
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"dev{device} {kind}"},
            }
        )
    trace_events = metadata + events
    if spans:
        trace_events += span_events(spans)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": timeline.clock * _US},
    }


def write_trace(
    path: str,
    timeline: Timeline,
    topology: Optional[ClusterTopology] = None,
    spans: Optional[Sequence[Mapping[str, object]]] = None,
) -> None:
    """Serialise ``timeline`` (plus optimizer ``spans``) as trace JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(timeline_to_trace(timeline, topology, spans=spans), fh, indent=1)
