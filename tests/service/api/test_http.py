"""The HTTP layer, driven over real sockets through the harness.

Includes the malformed-body property: whatever bytes a client posts,
the answer is a structured 4xx JSON error — never a 500, never a hang;
the request-read paths (one read deadline per request, the header cap,
LF-only line endings) over raw sockets; and the LRU hit path, which
skips the sha256 cell key.
"""

import functools
import http.client
import json
import logging
import socket

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.api import http as service_http
from repro.service.api import model
from repro.service.api.app import ServiceConfig
from repro.service.api.client import ServiceError

from tests.service.api.util import CHEAP_QUERY, ServerHarness


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


def test_two_point_grid_is_a_400(harness):
    """A 2-point grid passes no solver's grid-then-golden search, so the
    query is rejected up front, not failed in the solve."""
    with harness.client() as client:
        status, payload = client.request(
            "POST", "/v1/bounds",
            {**CHEAP_QUERY, "kind": "backlog", "gamma_grid": 2},
        )
    assert status == 400
    assert payload["error"]["field"] == "gamma_grid"


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


def test_lru_hits_skip_the_cell_key(tmp_path, monkeypatch):
    """The sha256 ``cell_key`` runs once per LRU miss: a cold solve and
    a disk hit each call it once; LRU hits, on either route, call it
    zero times and return the key stored at the miss."""
    calls = []

    def counted(cell):
        calls.append(cell)
        return real(cell)

    real = model.cell_key
    monkeypatch.setattr(model, "cell_key", counted)
    config = ServiceConfig(cache_dir=str(tmp_path), batch_window_s=0.001)
    with ServerHarness(config) as harness, harness.client() as client:
        row = client.bounds(dict(CHEAP_QUERY))
        assert (row["cached"], len(calls)) == (None, 1)
        for _ in range(2):
            hit = client.bounds(dict(CHEAP_QUERY))
            verdict = client.admissible({**CHEAP_QUERY, "target": 1e9})
            assert hit == {**row, "cached": "lru"}
            assert (verdict["key"], verdict["cached"]) == (row["key"], "lru")
        assert len(calls) == 1
    with ServerHarness(config) as harness, harness.client() as client:
        disk = client.bounds(dict(CHEAP_QUERY))
        assert disk == {**row, "cached": "disk"}
        assert len(calls) == 2
        hit = client.bounds(dict(CHEAP_QUERY))
        assert hit == {**row, "cached": "lru"}
        assert len(calls) == 2


def _responses(sock) -> list[tuple[int, dict, bytes]]:
    """Read until the server closes; split into ``(status, headers,
    body)`` responses by their Content-Length."""
    raw = b""
    while chunk := sock.recv(65536):
        raw += chunk
    out = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(
            (k.strip().lower(), v.strip())
            for k, v in (line.split(":", 1) for line in lines)
        )
        length = int(headers["content-length"])
        out.append((int(status_line.split()[1]), headers, raw[:length]))
        raw = raw[length:]
    return out


@pytest.fixture()
def short_deadline(monkeypatch):
    """A 0.2 s request-read deadline (the server reads it per request)."""
    monkeypatch.setattr(service_http, "READ_TIMEOUT_S", 0.2)


def test_stalled_request_gets_408_and_close(harness, short_deadline):
    """A client that sends a request line and a header, then stalls, is
    answered 408 and closed once the one request deadline passes."""
    with socket.create_connection((harness.host, harness.port)) as sock:
        sock.settimeout(10.0)
        sock.sendall(b"POST /v1/bounds HTTP/1.1\r\nHost: t\r\n")
        ((status, headers, body),) = _responses(sock)
    assert status == 408
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["code"] == "timeout"


def test_idle_keepalive_connection_gets_408(harness, short_deadline):
    """After a served request, an idle keep-alive connection is timed
    out like a stalled one: 408, then close."""
    with socket.create_connection((harness.host, harness.port)) as sock:
        sock.settimeout(10.0)
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        (first, _, _), (status, headers, _) = _responses(sock)
    assert (first, status) == (200, 408)
    assert headers["connection"] == "close"


def test_oversized_header_block_is_413(harness):
    """A header block past ``_MAX_HEADER_BYTES`` is refused with 413."""
    filler = b"X-Filler: " + b"a" * 1000 + b"\r\n"
    count = service_http._MAX_HEADER_BYTES // len(filler) + 1
    with socket.create_connection((harness.host, harness.port)) as sock:
        sock.settimeout(10.0)
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n" + filler * count)
        ((status, headers, body),) = _responses(sock)
    assert status == 413
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["code"] == "headers-too-large"


def _overlong_exchange(harness, caplog, head: bytes):
    """Send a request head with one line past the server's 64 KiB
    stream-reader limit; the responses, and the errors the server
    logged meanwhile."""
    with caplog.at_level(logging.ERROR):
        with socket.create_connection((harness.host, harness.port)) as sock:
            sock.settimeout(10.0)
            sock.sendall(head)
            responses = _responses(sock)
        # a healthy exchange afterwards: the handler task ended cleanly
        with harness.client() as client:
            assert client.healthz()["status"] == "ok"
    return responses, [r for r in caplog.records if r.levelno >= logging.ERROR]


def test_overlong_header_line_is_413_and_close(harness, caplog):
    """One header line longer than the stream reader's line limit is
    answered like an oversized header block — 413, then close — not
    with a bare close and a traceback in the server."""
    responses, errors = _overlong_exchange(
        harness, caplog,
        b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n"
        b"X-Long: " + b"a" * (70 << 10) + b"\r\n\r\n",
    )
    ((status, headers, body),) = responses
    assert status == 413
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["code"] == "headers-too-large"
    assert errors == []


def test_overlong_request_line_is_400_and_close(harness, caplog):
    """A request line (here its path) longer than the stream reader's
    line limit is a malformed request line: 400, then close."""
    responses, errors = _overlong_exchange(
        harness, caplog,
        b"GET /" + b"p" * (70 << 10) + b" HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    ((status, headers, body),) = responses
    assert status == 400
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["code"] == "bad-request-line"
    assert errors == []


def test_lf_only_line_endings_are_served(harness):
    """Bare ``\\n`` line endings parse like ``\\r\\n`` ones."""
    payload = json.dumps(CHEAP_QUERY).encode()
    with socket.create_connection((harness.host, harness.port)) as sock:
        sock.settimeout(30.0)
        sock.sendall(
            b"POST /v1/bounds HTTP/1.1\nHost: t\nConnection: close\n"
            b"Content-Length: %d\n\n%s" % (len(payload), payload)
        )
        ((status, _, body),) = _responses(sock)
    assert status == 200
    assert json.loads(body)["feasible"] is True
