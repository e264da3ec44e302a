"""``repro.api`` — the one front door for requests and results.

Every surface that accepts a planning request — the ``primepar`` CLI, the
``repro.serve`` HTTP daemon, and the stdlib :class:`~repro.serve.client.PlanClient`
— builds it from this module, the only place a request field is declared:

* **Request types** — frozen dataclasses (:class:`SearchRequest`,
  :class:`SimulateRequest`, :class:`ExplainRequest`,
  :class:`RobustnessRequest`).  Each field carries its name, type,
  default, allowed values and help text; ``from_json`` validates against
  them and rejects any key that is not one of them, the CLI generates its
  flags from them (:func:`request_fields`), and each type names its HTTP
  ``endpoint``.  Validation errors carry the offending field path
  (:class:`ValidationError`, mapped to HTTP 400 by the server and exit
  code 2 by the CLI).
* **Daemon knobs** — :class:`ServeConfig`, whose fields generate the
  ``primepar serve`` flags the same way and are checked by the same rules
  when it is built.
* **Fault model** — the fields of :class:`~repro.sim.faults.FaultModel`
  and :class:`~repro.sim.faults.RecoveryModel`, which a robustness
  request's ``faults`` spells, are declared with the same :func:`_arg`
  and checked under ``faults.<name>`` when parsed or built directly.

One function, :func:`_value`, checks every field that arrives from
outside the program.

Wire compatibility: field names, canonicalization (``batch == 0`` resolves
to ``max(8, min(devices, 32))``) and the plan cache key are bit-identical
to the pre-``repro.api`` serving layer, so warm plan stores and checked-in
bench baselines remain valid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import Field, dataclass, field, fields
from typing import Any, Dict, Mapping, Tuple, Union

from . import cache as diskcache
from .graph.models import MODELS_BY_KEY

__all__ = [
    "ExplainRequest",
    "MAX_ALPHA",
    "MAX_BATCH",
    "MAX_DEVICES",
    "MAX_LAYERS",
    "OBJECTIVES",
    "PLANS",
    "RobustnessRequest",
    "SCHEMA_VERSION",
    "SearchRequest",
    "ServeConfig",
    "SimulateRequest",
    "ValidationError",
    "check_fields",
    "field_type",
    "plan_from_json",
    "plan_to_json",
    "request_fields",
    "stamp",
]

#: Version stamp carried by every request body and result document this
#: module emits; bump when any schema changes meaning.
SCHEMA_VERSION = 1

#: Largest cluster a request may ask for (guards against absurd bodies).
MAX_DEVICES = 4096

#: Largest global batch a request may ask for: every byte count a plan's
#: price list sums stays far below 2**53, so its sums stay exact.
MAX_BATCH = 65_536

#: Deepest replay a request may ask for (replay time grows linearly with
#: depth; the deepest benchmark model has 96 layers).
MAX_LAYERS = 1024

#: Largest Eq. 7 memory weight in s/byte; every plan cost stays finite.
MAX_ALPHA = 1.0

#: Plan-scoring objectives understood by the robustness layer.
OBJECTIVES = ("nominal", "p50", "p95", "p99", "blend")

#: Plans a derived request can replay: PrimePar's searched plan, or the
#: Megatron data-parallel degree with the highest simulated throughput.
PLANS = ("primepar", "megatron")

#: A fault model on the wire: a compact spec string or a JSON object.
FaultSpec = Union[str, Mapping[str, Any]]

#: Accepted Python types and error-message name per field annotation.
_KINDS = {
    "str": ((str,), "str"),
    "int": ((int,), "int"),
    "float": ((float,), "float"),
    "bool": ((bool,), "bool"),
    "FaultSpec": ((str, Mapping), "a spec string or a JSON object"),
}


class ValidationError(Exception):
    """A malformed request or document (HTTP 400).

    Args:
        message: Human-readable description of the failure.
        field: Dotted path of the offending field (``""`` when the body as
            a whole is malformed), surfaced in error payloads so clients
            can point at the exact input.
    """

    def __init__(self, message: str, field: str = "") -> None:
        super().__init__(message)
        self.field = field

    @property
    def message(self) -> str:
        return str(self.args[0]) if self.args else ""


def _arg(default: Any, help: str, **rules: Any) -> Any:
    """A request, daemon-knob or fault-model field: default, help, ``rules``.

    Rules: ``choices`` (allowed values), ``lo``/``hi`` (inclusive bounds),
    ``gt`` (an exclusive lower bound, paired with ``hi``) and ``flag``
    (the CLI flag stem when it differs from the field name).
    """
    return field(default=default, metadata={"help": help, **rules})


def _plan_arg() -> Any:
    """The ``plan`` field of a request answered from a plan."""
    return _arg(
        "primepar",
        "partition plan: primepar's search result, or megatron's "
        "best data-parallel degree",
        choices=PLANS,
    )


def request_fields(cls) -> Tuple[Field, ...]:
    """The flat wire fields of a request type, in body order.

    A nested ``search`` field contributes :class:`SearchRequest`'s fields.
    """
    out = []
    for f in fields(cls):
        out.extend(fields(SearchRequest) if f.name == "search" else (f,))
    return tuple(out)


def field_type(f: Field) -> type:
    """The Python type a field's text form parses to (for the CLI)."""
    return _KINDS[f.type][0][0]


def _value(body: Mapping[str, Any], f: Field, prefix: str = "") -> Any:
    """One field of a flat body, type- and rule-checked.

    ``prefix`` is the path of the object the field sits in (``"faults."``
    for a fault-model field); errors carry ``prefix + name``.
    """
    name, rules = f.name, f.metadata
    path = prefix + name
    value = body.get(name, f.default)
    kinds, kind_name = _KINDS[f.type]
    if isinstance(value, bool) and bool not in kinds:
        raise ValidationError(f"field {name!r} must be {kind_name}", path)
    if float in kinds and isinstance(value, int):
        # an int past the float range fails the finite check, not float()
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, kinds):
        raise ValidationError(f"field {name!r} must be {kind_name}", path)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"field {name!r} must be finite", path)
    choices = rules.get("choices")
    if choices is not None and value not in choices:
        raise ValidationError(
            f"{name} must be one of {choices}, got {value!r}", path
        )
    lo, hi, gt = rules.get("lo"), rules.get("hi"), rules.get("gt")
    if gt is not None and not gt < value <= hi:
        raise ValidationError(
            f"{name} must be in ({gt}, {hi}], got {value}", path
        )
    if lo is not None and hi is not None and not lo <= value <= hi:
        raise ValidationError(
            f"{name} must be in [{lo}, {hi}], got {value}", path
        )
    if lo is not None and value < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {value}", path)
    return value


def check_fields(obj: Any, prefix: str = "") -> None:
    """Check every declared field of dataclass ``obj`` by :func:`_value`.

    Called from ``__post_init__``, so a directly built object obeys the
    rules a parsed body does; an int in a float field becomes a float.
    """
    for f in fields(obj):
        if f.metadata:
            object.__setattr__(obj, f.name, _value(vars(obj), f, prefix))


def _require_object(body: Any) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise ValidationError("request body must be a JSON object")
    version = body.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {version!r}; this build speaks "
            f"{SCHEMA_VERSION}",
            "schema_version",
        )
    return body


def _values(cls, body: Mapping[str, Any]) -> Dict[str, Any]:
    """Every field of ``cls`` from a flat body; absent fields default."""
    return {
        f.name: (
            SearchRequest._canonical(_values(SearchRequest, body))
            if f.name == "search" else _value(body, f)
        )
        for f in fields(cls)
    }


def _read(cls, body: Any) -> Dict[str, Any]:
    """:func:`_values` of a body holding no key ``cls`` does not declare."""
    body = _require_object(body)
    known = {f.name for f in request_fields(cls)}
    for key in body:
        if key not in known and key != "schema_version":
            raise ValidationError(
                f"unknown field {key!r} for {cls.__name__}", str(key)
            )
    return _values(cls, body)


class _Request:
    """Shared wire form of the request dataclasses."""

    def to_json(self) -> Dict[str, Any]:
        """The flat body: a nested search's fields sit at the top level."""
        body: Dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "search":
                body.update(value.to_json())
            else:
                body[f.name] = dict(value) if isinstance(value, Mapping) else value
        return body


# ----------------------------------------------------------------------
# request types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchRequest(_Request):
    """One plan-search request (CLI ``primepar search``, ``POST /v1/search``)."""

    endpoint = "/v1/search"

    model: str = _arg(
        "opt-6.7b", "benchmark model", choices=tuple(sorted(MODELS_BY_KEY))
    )
    devices: int = _arg(
        8, f"cluster size, a power of two in [2, {MAX_DEVICES}]"
    )
    batch: int = _arg(
        0, f"global batch, at most {MAX_BATCH} (0 = max(8, min(devices, "
        "32)))", lo=0, hi=MAX_BATCH,
    )
    alpha: float = _arg(
        2e-11, f"Eq. 7 memory weight in s/byte, at most {MAX_ALPHA:g}",
        lo=0, hi=MAX_ALPHA,
    )
    beam: int = _arg(0, "beam width for the search (0 = exact)", lo=0)
    include_temporal: bool = _arg(
        True,
        "search the spatial-temporal space; off (--no-temporal) restricts "
        "the search to the conventional space, the Alpa baseline",
        flag="temporal",
    )
    deadline: float = _arg(
        0.0,
        "per-request budget in seconds; tightens, never extends, the "
        "server default (0 = the server default)",
        lo=0,
    )

    @classmethod
    def from_json(cls, body: Any) -> "SearchRequest":
        """Validate and canonicalize a raw JSON body.

        Raises:
            ValidationError: With the offending field path on any
                malformed or out-of-range field.
        """
        return cls._canonical(_read(cls, body))

    @classmethod
    def _canonical(cls, values: Dict[str, Any]) -> "SearchRequest":
        """The request ``values`` spell, with ``batch == 0`` resolved.

        Raises:
            ValidationError: If ``devices`` is not a power of two in range.
        """
        devices = values["devices"]
        if not 2 <= devices <= MAX_DEVICES or devices & (devices - 1):
            raise ValidationError(
                f"devices must be a power of two in [2, {MAX_DEVICES}], "
                f"got {devices}",
                "devices",
            )
        if values["batch"] == 0:
            values["batch"] = max(8, min(devices, 32))
        return cls(**values)

    def cache_key(self) -> str:
        """Content hash identifying this request's plan payload.

        ``deadline`` is deliberately excluded — it shapes *when* a search
        may be cut off, never *what* plan it yields — so the key is
        bit-identical to the pre-``repro.api`` serving layer.
        """
        return diskcache.content_key(
            "plan",
            SCHEMA_VERSION,
            self.model,
            self.devices,
            self.batch,
            self.alpha,
            self.beam,
            self.include_temporal,
        )


@dataclass(frozen=True)
class SimulateRequest(_Request):
    """One plan-replay request (``primepar simulate``, ``POST /v1/simulate``)."""

    endpoint = "/v1/simulate"

    search: SearchRequest = field(default_factory=SearchRequest)
    plan: str = _plan_arg()
    layers: int = _arg(
        0, f"layers to simulate, at most {MAX_LAYERS} (0 = the model's "
        "full depth)", lo=0, hi=MAX_LAYERS,
    )

    @classmethod
    def from_json(cls, body: Any) -> "SimulateRequest":
        return cls(**_read(cls, body))

    @property
    def n_layers(self) -> int:
        """Layers replayed: ``layers``, or the model's full depth at 0."""
        return self.layers or MODELS_BY_KEY[self.search.model].n_layers

    def cache_key(self) -> str:
        """Content hash of the replay (plan key, plan choice, depth)."""
        return diskcache.content_key(
            "simrequest", SCHEMA_VERSION, self.search.cache_key(), self.plan,
            self.n_layers,
        )


@dataclass(frozen=True)
class ExplainRequest(_Request):
    """One cost-decomposition request (``primepar explain``, ``POST /v1/explain``)."""

    endpoint = "/v1/explain"

    search: SearchRequest = field(default_factory=SearchRequest)
    plan: str = _plan_arg()
    links: bool = _arg(
        False,
        "add per-link byte attribution from a one-layer event-engine replay",
    )

    @classmethod
    def from_json(cls, body: Any) -> "ExplainRequest":
        return cls(**_read(cls, body))

    def cache_key(self) -> str:
        """Content hash of the decomposition (plan key, plan choice, links)."""
        return diskcache.content_key(
            "explainrequest", SCHEMA_VERSION, self.search.cache_key(),
            self.plan, self.links,
        )


@dataclass(frozen=True)
class RobustnessRequest(_Request):
    """One robustness-scoring request (``primepar faults``, ``POST /v1/robustness``).

    Only the *shape* of ``faults`` is checked here; :meth:`fault_model`
    checks each fault field against its declaration, raising under the
    ``faults.<name>`` field path.
    """

    endpoint = "/v1/robustness"

    search: SearchRequest = field(default_factory=SearchRequest)
    plan: str = _plan_arg()
    faults: FaultSpec = _arg(
        "",
        "fault model: a spec such as \"straggler=0.2:1.8,degrade=0.3:0.5,"
        "flap=0.5:0.002:0.25,outage=0.05,ckpt=16,restart=30,replan=5\" or "
        "a JSON object of FaultModel fields, each checked against its "
        "declared bounds (e.g. flap rate <= 64, slowdown <= 100); empty = "
        "zero faults (the CLI also reads @file.json)",
    )
    scenarios: int = _arg(
        16, "Monte-Carlo fault scenarios per plan", lo=1, hi=1024
    )
    seed: int = _arg(
        0,
        "scenario sampling seed; the same seed and plan reproduce the "
        "report bit-identically at any --jobs",
        lo=0,
    )
    objective: str = _arg(
        "p99", "plan-scoring objective", choices=OBJECTIVES
    )
    blend: float = _arg(
        0.5, "nominal/p99 weight of the blend objective", lo=0, hi=1
    )
    layers: int = _arg(
        8, f"layers per robustness replay, at most {MAX_LAYERS} (0 = the "
        "model's full depth)", lo=0, hi=MAX_LAYERS,
    )

    @classmethod
    def from_json(cls, body: Any) -> "RobustnessRequest":
        values = _read(cls, body)
        if isinstance(values["faults"], Mapping):
            values["faults"] = dict(values["faults"])
        return cls(**values)

    @property
    def n_layers(self) -> int:
        """Layers per replay: ``layers``, or the model's full depth at 0."""
        return self.layers or MODELS_BY_KEY[self.search.model].n_layers

    def fault_model(self):
        """The :class:`~repro.sim.faults.FaultModel` that ``faults`` spells.

        The one parser of ``faults`` for every surface.  A spec string is
        never a path: ``@file.json`` is read by the CLI alone.
        """
        from .sim.faults import FaultModel

        if isinstance(self.faults, str):
            return FaultModel.from_spec(self.faults)
        return FaultModel.from_json(self.faults)

    def cache_key(self) -> str:
        """Content hash of the sweep (plan key, plan choice, canonical
        fault model, scenarios, seed, depth)."""
        return diskcache.content_key(
            "robustness", SCHEMA_VERSION, self.search.cache_key(), self.plan,
            self.fault_model().canonical(), self.scenarios, self.seed,
            self.n_layers,
        )


# ----------------------------------------------------------------------
# daemon knobs
# ----------------------------------------------------------------------


@dataclass
class ServeConfig:
    """Knobs of one ``repro.serve`` daemon instance.

    Every field but ``retry_after`` is a ``primepar serve`` flag, generated
    from the field's name, type, default and help like the request flags.
    """

    host: str = _arg("127.0.0.1", "bind address")
    port: int = _arg(
        8780, "TCP port; 0 picks an ephemeral one", lo=0, hi=65535
    )
    max_concurrent: int = _arg(
        2, "searches/simulations allowed to run at once", lo=1
    )
    queue_depth: int = _arg(
        8, "requests allowed to wait for a slot before 429", lo=0
    )
    lru_size: int = _arg(
        256, "in-memory plan store capacity in entries", lo=1
    )
    deadline: float = _arg(
        120.0,
        "default per-request budget in seconds; requests may tighten but "
        "not extend it (0 = unbounded)",
        lo=0,
    )
    jobs: int = _arg(
        1, "worker processes each admitted search may use "
        "(1 = serial, 0 = all cores)",
        lo=0,
    )
    drain_timeout: float = _arg(
        10.0, "seconds to wait for in-flight requests on shutdown", lo=0
    )
    retry_after: float = 1.0
    slo_p95_ms: float = _arg(
        0.0,
        "p95 latency target in ms over the last 256 /v1/* requests; "
        "/healthz reports breach when exceeded (0 disables)",
        lo=0,
    )

    def __post_init__(self) -> None:
        """Check every flag field by the rules the request fields use."""
        check_fields(self)


# ----------------------------------------------------------------------
# result envelopes
# ----------------------------------------------------------------------


def stamp(kind: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Wrap a result payload with its schema version and document kind."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}


def plan_to_json(plan: Mapping[str, Any]) -> Dict[str, str]:
    """A plan as sorted ``{operator: str(spec)}`` — the serving wire shape."""
    return {name: str(spec) for name, spec in sorted(plan.items())}


def plan_from_json(payload: Mapping[str, str], n_bits: int) -> Dict[str, Any]:
    """Rehydrate a wire-shape plan into :class:`~repro.PartitionSpec` values."""
    from .core.spec import PartitionSpec

    plan: Dict[str, Any] = {}
    for name, text in payload.items():
        if text == "(replicated)":
            plan[name] = PartitionSpec((), n_bits)
        else:
            plan[name] = PartitionSpec.from_string(text, n_bits)
    return plan
