"""One front door: the CLI, HTTP bodies and Python build the same requests.

For each endpoint the same inputs are spelled three ways — ``primepar``
flags through ``build_parser``, the flat HTTP body through
``XRequest.from_json``, and Python keyword arguments — and must give equal
canonical requests with equal plan and derived cache keys.  With no flags
at all, every command's request is the request an empty body makes, and a
body key no request field declares is rejected rather than ignored.  The
same request is also answered through two doors — the CLI or HTTP, and the
in-process ``PlanService`` — and the answers compared, for the searched
plan and for the Megatron plan a request can name instead.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExplainRequest,
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
    ValidationError,
)
from repro.cli import build_parser, request_body
from repro.serve.server import ROUTES
from repro.serve.service import TRANSPORT_KEYS

SEARCH_ARGV = [
    "--model", "llama2-7b", "--devices", "4", "--batch", "16",
    "--alpha", "1e-11", "--beam", "3",
]
SEARCH_BODY = {
    "model": "llama2-7b", "devices": 4, "batch": 16, "alpha": 1e-11,
    "beam": 3,
}
SEARCH = SearchRequest(
    model="llama2-7b", devices=4, batch=16, alpha=1e-11, beam=3
)
FAULTS = "straggler=0.2:1.8,outage=0.1"

#: endpoint -> (request type, CLI argv, HTTP body, Python request)
CASES = {
    "search": (
        SearchRequest,
        ["search", *SEARCH_ARGV, "--no-temporal"],
        {**SEARCH_BODY, "include_temporal": False},
        SearchRequest(
            model="llama2-7b", devices=4, batch=16, alpha=1e-11, beam=3,
            include_temporal=False,
        ),
    ),
    "simulate": (
        SimulateRequest,
        ["simulate", *SEARCH_ARGV, "--layers", "2", "--plan", "primepar"],
        {**SEARCH_BODY, "layers": 2, "plan": "primepar"},
        SimulateRequest(search=SEARCH, layers=2),
    ),
    "explain": (
        ExplainRequest,
        ["explain", *SEARCH_ARGV, "--links", "--plan", "megatron"],
        {**SEARCH_BODY, "links": True, "plan": "megatron"},
        ExplainRequest(search=SEARCH, links=True, plan="megatron"),
    ),
    "robustness": (
        RobustnessRequest,
        [
            "faults", *SEARCH_ARGV, "--faults", FAULTS, "--scenarios", "4",
            "--seed", "3", "--objective", "blend", "--blend", "0.25",
            "--layers", "2",
        ],
        {
            **SEARCH_BODY, "faults": FAULTS, "scenarios": 4, "seed": 3,
            "objective": "blend", "blend": 0.25, "layers": 2,
        },
        RobustnessRequest(
            search=SEARCH, faults=FAULTS, scenarios=4, seed=3,
            objective="blend", blend=0.25, layers=2,
        ),
    ),
}


def _plan_request(request) -> SearchRequest:
    return request if isinstance(request, SearchRequest) else request.search


@pytest.mark.parametrize("endpoint", sorted(CASES))
def test_every_door_builds_the_same_request(endpoint):
    cls, argv, body, python = CASES[endpoint]
    from_cli = cls.from_json(request_body(build_parser().parse_args(argv)))
    from_http = cls.from_json(body)
    assert from_cli == from_http == python
    assert from_cli.to_json() == from_http.to_json() == python.to_json()
    assert (
        _plan_request(from_cli).cache_key()
        == _plan_request(from_http).cache_key()
        == _plan_request(python).cache_key()
    )
    assert from_cli.cache_key() == from_http.cache_key() == python.cache_key()
    assert cls.endpoint in ROUTES


@pytest.mark.parametrize(
    "command, cls",
    [
        ("search", SearchRequest),
        ("compare", SearchRequest),
        ("sweep3d", SearchRequest),
        ("simulate", SimulateRequest),
        ("explain", ExplainRequest),
        ("faults", RobustnessRequest),
    ],
)
def test_parser_defaults_are_the_request_defaults(command, cls):
    args = build_parser().parse_args([command])
    assert cls.from_json(request_body(args)) == cls.from_json({})


@pytest.mark.parametrize(
    "cls, body, key",
    [
        (SearchRequest, {"devics": 64}, "devics"),
        (SearchRequest, {**SEARCH_BODY, "layers": 2}, "layers"),
        (SimulateRequest, {"faults": "outage=0.1"}, "faults"),
        (ExplainRequest, {"links": True, "trace": 1}, "trace"),
        (RobustnessRequest, {"scenario": 3}, "scenario"),
    ],
)
def test_unknown_keys_are_rejected(cls, body, key):
    """A key no field of the request (or its nested search) declares is a
    validation error on that key — HTTP 400 — never silently ignored."""
    with pytest.raises(ValidationError) as err:
        cls.from_json(body)
    assert err.value.field == key
    assert repr(key) in str(err.value)


ANSWER_CASES = {
    "simulate": SimulateRequest(
        search=SearchRequest(model="opt-6.7b", devices=2, batch=8), layers=2
    ),
    "simulate-megatron": SimulateRequest(
        search=SearchRequest(model="opt-6.7b", devices=2, batch=8), layers=2,
        plan="megatron",
    ),
    "explain": ExplainRequest(
        search=SearchRequest(model="opt-6.7b", devices=2, batch=8), links=True
    ),
    "robustness": RobustnessRequest(
        search=SearchRequest(model="opt-6.7b", devices=2, batch=8),
        faults=FAULTS, scenarios=4, seed=3, layers=2,
    ),
}


def _service():
    """A fresh in-process service over the session's disk tier."""
    from repro.serve.service import PlanService
    from repro.serve.store import PlanStore

    return PlanService(store=PlanStore(max_entries=4))


def _served_answer(request):
    """The in-process service's answer to ``request``, less transport keys."""
    answer = getattr(_service(), ROUTES[request.endpoint])(request.to_json())
    return {k: v for k, v in answer.items() if k not in TRANSPORT_KEYS}


@pytest.fixture(scope="module")
def served():
    """An in-process daemon on an ephemeral port, with its own store."""
    from repro.serve.server import PlanServer, ServeConfig
    from repro.serve.service import PlanService
    from repro.serve.store import PlanStore

    server = PlanServer(
        ServeConfig(port=0), service=PlanService(store=PlanStore(max_entries=8))
    ).start()
    yield server
    server.shutdown()


@pytest.mark.parametrize("endpoint", sorted(ANSWER_CASES))
def test_http_and_service_give_the_same_answer(served, endpoint):
    """Same request, same answer: ``PlanClient.post`` over HTTP equals the
    in-process ``PlanService`` call once transport fields are dropped."""
    from repro.serve.client import PlanClient

    request = ANSWER_CASES[endpoint]
    over_http = PlanClient(served.url).post(request, debug_trace=True)
    assert "trace" in over_http
    for key in TRANSPORT_KEYS:
        over_http.pop(key)
    assert over_http == json.loads(json.dumps(_served_answer(request)))


SMALL_ARGV = ["--model", "opt-6.7b", "--devices", "4", "--batch", "8"]
SMALL = SearchRequest(model="opt-6.7b", devices=4, batch=8)
FAULTS_ARGV = ["--faults", FAULTS, "--scenarios", "2", "--layers", "2"]

#: case -> (CLI argv, the request it spells)
CLI_CASES = {
    "search": (["search", *SMALL_ARGV], SMALL),
    "simulate": (
        ["simulate", *SMALL_ARGV, "--layers", "2"],
        SimulateRequest(search=SMALL, layers=2),
    ),
    "simulate-megatron": (
        ["simulate", *SMALL_ARGV, "--layers", "2", "--plan", "megatron"],
        SimulateRequest(search=SMALL, layers=2, plan="megatron"),
    ),
    "explain": (["explain", *SMALL_ARGV], ExplainRequest(search=SMALL)),
    "explain-megatron": (
        ["explain", *SMALL_ARGV, "--plan", "megatron"],
        ExplainRequest(search=SMALL, plan="megatron"),
    ),
    "faults": (
        ["faults", *SMALL_ARGV, *FAULTS_ARGV],
        RobustnessRequest(search=SMALL, faults=FAULTS, scenarios=2, layers=2),
    ),
    "faults-megatron": (
        ["faults", *SMALL_ARGV, *FAULTS_ARGV, "--plan", "megatron"],
        RobustnessRequest(
            search=SMALL, faults=FAULTS, scenarios=2, layers=2,
            plan="megatron",
        ),
    ),
}


@pytest.mark.parametrize(
    "case", ["explain", "explain-megatron", "faults", "faults-megatron"]
)
def test_cli_json_and_service_give_the_same_answer(capsys, case):
    """Same request, same answer: ``primepar explain|faults --json`` equals
    the service's document less its transport keys."""
    from repro.cli import main

    argv, request = CLI_CASES[case]
    assert main([*argv, "--json"]) == 0
    from_cli = json.loads(capsys.readouterr().out)
    assert from_cli == json.loads(json.dumps(_served_answer(request)))


@pytest.mark.parametrize("case", ["search", "simulate", "simulate-megatron"])
def test_cli_renders_the_service_answer(capsys, case):
    """``primepar search|simulate`` print exactly their renderer applied
    to the in-process service's payloads.

    A first service call warms the shared disk tier, so the command and
    the fresh service after it both read the plan from disk.
    """
    from repro.cli import main, render_search, render_simulate

    argv, request = CLI_CASES[case]
    body = request.to_json()
    getattr(_service(), ROUTES[request.endpoint])(body)
    assert main(argv) == 0
    from_cli = capsys.readouterr().out
    service = _service()
    if case == "search":
        render_search(
            service.search_from_request(body),
            service.simulate_from_request(body),
        )
    else:
        render_simulate(service.simulate_from_request(body))
    assert from_cli == capsys.readouterr().out


def test_cli_import_loads_no_serve_module():
    """``import repro.cli`` leaves ``repro.serve`` to the commands that
    answer through it, so ``verify``, ``report`` and ``cache`` never pay
    for it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.serve')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    ).stdout
    assert out.strip() == "[]"
