"""One front door: the CLI, HTTP bodies and Python build the same requests.

For each endpoint the same inputs are spelled three ways — ``primepar``
flags through ``build_parser``, the flat HTTP body through
``XRequest.from_json``, and Python keyword arguments — and must give equal
canonical requests with equal plan and derived cache keys.  With no flags
at all, every command's request is the request an empty body makes, and a
body key no request field declares is rejected rather than ignored.  One
request is also answered through two doors and the answers compared.
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
        ["simulate", *SEARCH_ARGV, "--layers", "2"],
        {**SEARCH_BODY, "layers": 2},
        SimulateRequest(search=SEARCH, layers=2),
    ),
    "explain": (
        ExplainRequest,
        ["explain", *SEARCH_ARGV, "--links"],
        {**SEARCH_BODY, "links": True},
        ExplainRequest(search=SEARCH, links=True),
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



def test_explain_cli_and_service_give_the_same_answer(capsys):
    """Same request, same answer: ``primepar explain --json`` equals the
    service's ``/v1/explain`` document less its provenance keys."""
    from repro.cli import main
    from repro.serve.service import PlanService
    from repro.serve.store import PlanStore

    argv = ["--model", "opt-6.7b", "--devices", "4", "--batch", "8"]
    body = {"model": "opt-6.7b", "devices": 4, "batch": 8}
    assert main(["explain", "--json", *argv]) == 0
    from_cli = json.loads(capsys.readouterr().out)
    served = PlanService(store=PlanStore(max_entries=4)).explain_from_request(
        body
    )
    for key in ("plan_cost", "plan_key", "plan_source", "source"):
        served.pop(key)
    assert from_cli == json.loads(json.dumps(served))
