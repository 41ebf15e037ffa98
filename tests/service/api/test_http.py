"""The HTTP layer, driven over real sockets through the harness.

Includes the malformed-body property: whatever bytes a client posts,
the answer is a structured 4xx JSON error — never a 500, never a hang.
"""

import functools
import http.client
import json
import socket

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.api.client import ServiceError

from tests.service.api.util import CHEAP_QUERY


def test_healthz(harness):
    with harness.client() as client:
        health = client.healthz()
    assert health["status"] == "ok"
    assert health["uptime_s"] >= 0.0


def test_bounds_and_admissible_roundtrip(harness):
    with harness.client() as client:
        row = client.bounds(dict(CHEAP_QUERY))
        assert row["kind"] == "delay"
        assert row["feasible"] is True
        assert row["cached"] is None
        verdict = client.admissible({**CHEAP_QUERY, "target": row["delay"]})
        assert verdict["admissible"] is True  # bound <= its own value
        assert verdict["bound"] == row["delay"]
        assert verdict["cached"] == "lru"  # warmed by the bounds call
        tight = client.admissible({**CHEAP_QUERY, "target": row["delay"] / 2})
        assert tight["admissible"] is False


def test_metrics_endpoint_is_an_obs_snapshot(harness):
    with harness.client() as client:
        client.bounds(dict(CHEAP_QUERY))
        client.bounds(dict(CHEAP_QUERY))
        snap = client.metrics()
    assert set(snap) >= {"counters", "gauges", "series"}
    counters = snap["counters"]
    assert counters["service.requests.bounds"] == 2.0
    assert counters["service.lru_hit"] == 1.0
    assert counters["service.lru_miss"] == 1.0
    assert snap["gauges"]["service.inflight"] == 0
    assert len(snap["series"]["service.request_latency"]) == 2
    assert snap["series"]["service.batch_occupancy"] == [1.0]


@pytest.mark.filterwarnings("ignore:EDF deadline fixed point")
def test_nonconverged_edf_lane_counted_in_metrics(harness, monkeypatch):
    """An EDF lane that exhausts ``max_iter`` is counted, and the count
    reaches ``GET /v1/metrics`` through the coalescer's flush."""
    from repro.service.api import cells

    monkeypatch.setattr(
        cells, "EDFLaneSpec", functools.partial(cells.EDFLaneSpec, max_iter=1)
    )
    query = {
        **CHEAP_QUERY, "scheduler": "EDF", "hops": 5,
        "n_through": 100, "n_cross": 236, "s_grid": 8, "gamma_grid": 8,
    }
    with harness.client() as client:
        row = client.bounds(query)
        snap = client.metrics()
    assert row["edf"]["edf_converged"] is False
    assert row["edf"]["edf_iterations"] == 1
    assert snap["counters"]["e2e.edf_nonconverged"] == 1.0
    assert snap["counters"]["e2e.edf_iterations"] == 1.0


@pytest.mark.filterwarnings("ignore:EDF deadline fixed point")
def test_unconverged_edf_is_not_admissible(harness, monkeypatch):
    """An EDF answer whose deadline fixed point did not converge bounds
    another deadline assignment: however loose the target, the verdict
    rejects it and says so."""
    from repro.service.api import cells

    query = {
        **CHEAP_QUERY, "scheduler": "EDF", "hops": 5,
        "n_through": 100, "n_cross": 236, "s_grid": 8, "gamma_grid": 8,
        "target": 1e9,
    }
    with harness.client() as client:
        converged = client.admissible(query)
    assert converged["converged"] is True
    assert converged["admissible"] is True

    monkeypatch.setattr(
        cells, "EDFLaneSpec", functools.partial(cells.EDFLaneSpec, max_iter=1)
    )
    with harness.client() as client:
        verdict = client.admissible({**query, "n_cross": 235})
    assert verdict["feasible"] is True
    assert verdict["bound"] <= verdict["target"]
    assert verdict["converged"] is False
    assert verdict["admissible"] is False


def test_infeasible_bound_serializes_as_infinity(harness):
    """An overloaded hop has no finite bound; the JSON round-trips it."""
    with harness.client() as client:
        row = client.bounds({**CHEAP_QUERY, "n_through": 500, "n_cross": 500})
        assert row["feasible"] is False
        assert row["delay"] == float("inf")
        verdict = client.admissible(
            {**CHEAP_QUERY, "n_through": 500, "n_cross": 500, "target": 1e9}
        )
        assert verdict["admissible"] is False  # infeasible is never admitted


def test_validation_errors_are_structured_400s(harness):
    with harness.client() as client:
        status, payload = client.request(
            "POST", "/v1/bounds", {**CHEAP_QUERY, "scheduler": "WFQ"}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert payload["error"]["field"] == "scheduler"
        try:
            client.bounds({**CHEAP_QUERY, "scheduler": "WFQ"})
        except ServiceError as exc:
            assert exc.status == 400
        else:  # pragma: no cover
            raise AssertionError("expected ServiceError")


def test_admissible_requires_numeric_target(harness):
    with harness.client() as client:
        status, payload = client.request(
            "POST", "/v1/admissible", dict(CHEAP_QUERY)
        )
    assert status == 400
    assert payload["error"]["field"] == "target"


def test_routing_errors(harness):
    with harness.client() as client:
        status, payload = client.request("GET", "/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not-found"
        status, payload = client.request("GET", "/v1/bounds")
        assert status == 405
        status, payload = client.request("POST", "/v1/bounds")
        assert status == 400
        assert payload["error"]["code"] == "empty-body"


def test_connection_survives_errors(harness):
    """Keep-alive holds across an error response: same connection, next
    request still answered."""
    with harness.client() as client:
        status, _ = client.request("POST", "/v1/bounds", {"scheduler": "X"})
        assert status == 400
        assert client.healthz()["status"] == "ok"


def _raw_request(host, port, payload: bytes) -> tuple[int, dict]:
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(
            b"POST /v1/bounds HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
            % (len(payload), payload)
        )
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def test_oversized_body_is_rejected(shared_harness):
    conn = http.client.HTTPConnection(
        shared_harness.host, shared_harness.port, timeout=30
    )
    conn.request(
        "POST", "/v1/bounds", body=b"x" * 10,
        headers={"Content-Length": str((1 << 20) + 1)},
    )
    response = conn.getresponse()
    assert response.status == 413
    conn.close()


@given(
    payload=st.one_of(
        st.binary(max_size=200),
        st.text(max_size=200).map(lambda s: s.encode()),
        st.sampled_from(
            [
                b"",
                b"{",
                b"[1, 2",
                b"null",
                b"[]",
                b'"query"',
                b"{}",
                b'{"scheduler": }',
                b'{"hops": NaN}',
                b'{"scheduler": "FIFO", "hops": -1, "n_through": 1}',
                b'{"scheduler": "FIFO", "hops": 1e400, "n_through": 1}',
                '{"scheduler": "FIFÖ"}'.encode(),
                b"\xff\xfe\x00\x01",
            ]
        ),
    )
)
def test_malformed_bodies_never_500_or_hang(shared_harness, payload):
    """Any byte blob posted to /v1/bounds gets a structured 4xx JSON
    answer; the server neither 500s nor stalls the connection."""
    status, body = _raw_request(
        shared_harness.host, shared_harness.port, payload
    )
    assert 400 <= status < 500
    assert "error" in body
    assert body["error"]["code"]
    assert body["error"]["message"]
