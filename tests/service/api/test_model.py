"""Query validation and canonicalization (`repro.service.api.model`)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.config import CAPACITY, EPSILON, QUICK_GRIDS
from repro.service.api.model import PAPER_TRAFFIC, BoundQuery, QueryError


def q(**overrides):
    body = {"scheduler": "FIFO", "hops": 4, "n_through": 10}
    body.update(overrides)
    return body


def test_defaults_fill_paper_setting():
    query = BoundQuery.from_json(q())
    assert query.kind == "delay"
    assert query.traffic == PAPER_TRAFFIC
    assert query.capacity == 100.0
    assert query.epsilon == EPSILON
    assert query.n_cross == 0
    assert query.s_grid == QUICK_GRIDS["s_grid"]


def test_cell_key_is_canonical():
    """Field order and list-vs-tuple spelling do not change the key."""
    a = BoundQuery.from_json(
        {"scheduler": "SP", "hops": 3, "n_through": 7, "traffic": [1.5, 0.989, 0.9]}
    )
    b = BoundQuery.from_json(
        {"traffic": (1.5, 0.989, 0.9), "n_through": 7, "hops": 3, "scheduler": "SP"}
    )
    assert a == b
    assert a.key() == b.key()


def test_non_edf_weights_are_canonicalized():
    """Deadline weights cannot affect FIFO answers, so they are pinned
    to the defaults — the cache key must not fragment on them."""
    plain = BoundQuery.from_json(q())
    weighted = BoundQuery.from_json(
        q(deadline_weight_through=3.0, deadline_weight_cross=7.0)
    )
    assert plain.key() == weighted.key()
    # ... while for EDF they are honoured and enter the key
    edf = BoundQuery.from_json(q(scheduler="EDF"))
    edf_weighted = BoundQuery.from_json(
        q(scheduler="EDF", deadline_weight_through=3.0)
    )
    assert edf.deadline_weight_through == 1.0
    assert edf_weighted.deadline_weight_through == 3.0
    assert edf.key() != edf_weighted.key()


def test_backend_field_is_ignored(harness):
    """The model reads no ``backend`` field: bodies naming either old
    setting, or none, are one query, with one key and one served row."""
    small = {"hops": 2, "n_cross": 10, "s_grid": 4, "gamma_grid": 4}
    bodies = [q(**small), q(backend="numpy", **small),
              q(backend="scalar", **small)]
    keys = {BoundQuery.from_json(body).key() for body in bodies}
    assert len(keys) == 1
    with harness.client() as client:
        rows = [client.bounds(body) for body in bodies]
    assert [row.pop("cached") for row in rows] == [None, "lru", "lru"]
    assert rows[0]["key"] in keys
    assert rows[1] == rows[0] and rows[2] == rows[0]


#: Two canonical values per field, so independent draws often coincide.
_VALUES = {
    "kind": ("delay", "backlog"),
    "scheduler": ("FIFO", "BMUX", "SP", "EDF"),
    "hops": (1, 4),
    "n_through": (10, 20),
    "n_cross": (0, 5),
    "epsilon": (EPSILON, 1e-6),
    "traffic": (PAPER_TRAFFIC, (2.0, 0.989, 0.9)),
    "capacity": (CAPACITY, 50.0),
    "deadline_weight_through": (1.0, 3.0),
    "deadline_weight_cross": (10.0, 7.0),
    "s_grid": (QUICK_GRIDS["s_grid"], 5),
    "gamma_grid": (QUICK_GRIDS["gamma_grid"], 5),
}

#: The fields a body may omit, with the value omission stands for.
_DEFAULTS = {
    "kind": "delay",
    "n_cross": 0,
    "epsilon": EPSILON,
    "traffic": PAPER_TRAFFIC,
    "capacity": CAPACITY,
    "deadline_weight_through": 1.0,
    "deadline_weight_cross": 10.0,
    "s_grid": QUICK_GRIDS["s_grid"],
    "gamma_grid": QUICK_GRIDS["gamma_grid"],
}


@st.composite
def _fields(draw):
    """One valid query as field values (weights drawn for every
    scheduler, so FIFO/BMUX/SP bodies carry EDF weights too)."""
    fields = {name: draw(st.sampled_from(v)) for name, v in _VALUES.items()}
    if fields["scheduler"] == "EDF":
        fields["kind"] = "delay"  # EDF has no backlog bound
    return fields


def _spell_number(draw, value):
    if isinstance(value, float) and value.is_integer() and draw(st.booleans()):
        return int(value)
    return value


@st.composite
def _body(draw, fields):
    """One JSON body for ``fields``: defaults omitted or explicit,
    integral floats spelled as ints, tuples as lists, maybe an ignored
    ``backend``, keys in any order."""
    body = {}
    for name, value in fields.items():
        if name in _DEFAULTS and value == _DEFAULTS[name] and draw(
            st.booleans()
        ):
            continue
        if isinstance(value, tuple):
            value = [_spell_number(draw, v) for v in value]
        body[name] = _spell_number(draw, value)
    if draw(st.booleans()):
        body["backend"] = draw(st.sampled_from(["numpy", "scalar"]))
    return dict(draw(st.permutations(list(body.items()))))


@st.composite
def _body_pair(draw):
    first = draw(_fields())
    if draw(st.booleans()):
        second = dict(first)
    else:  # one field moved, or an independent draw
        second = draw(st.one_of(
            _fields(),
            st.sampled_from(sorted(_VALUES)).flatmap(
                lambda name: st.sampled_from(_VALUES[name]).map(
                    lambda v: {**first, name: v}
                )
            ),
        ))
        if second["scheduler"] == "EDF":
            second["kind"] = "delay"
    return draw(_body(first)), draw(_body(second))


@given(_body_pair())
def test_query_equality_is_key_equality(pair):
    """The service's LRU is keyed by the parsed query, its disk tier and
    responses by ``key()``: the two identities must agree exactly, so
    two bodies share an LRU entry iff they share a sha256 key."""
    a, b = (BoundQuery.from_json(body) for body in pair)
    assert (a == b) == (a.key() == b.key())
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "body, field",
    [
        ({"hops": 4, "n_through": 10}, "scheduler"),
        (q(scheduler="WFQ"), "scheduler"),
        (q(kind="jitter"), "kind"),
        (q(kind="backlog", scheduler="EDF"), "scheduler"),
        (q(hops=0), "hops"),
        (q(hops=5000), "hops"),
        (q(hops=2.5), "hops"),
        (q(hops=True), "hops"),
        (q(n_through=0), "n_through"),
        (q(epsilon=0.0), "epsilon"),
        (q(epsilon=1.0), "epsilon"),
        (q(epsilon="tiny"), "epsilon"),
        (q(traffic=[1.5, 0.989]), "traffic"),
        (q(traffic=[1.5, 1.2, 0.9]), "traffic.p11"),
        (q(traffic="fast"), "traffic"),
        (q(capacity=0.0), "capacity"),
        (q(n_cross=-1), "n_cross"),
        (q(s_grid=1), "s_grid"),
        (q(gamma_grid=10**6), "gamma_grid"),
        (q(scheduler="EDF", deadline_weight_cross=0.0), "deadline_weight_cross"),
        (q(s_grid=2), "s_grid"),
        (q(gamma_grid=2), "gamma_grid"),
    ],
)
def test_rejections_name_the_field(body, field):
    with pytest.raises(QueryError) as excinfo:
        BoundQuery.from_json(body)
    assert excinfo.value.field == field
    payload = excinfo.value.to_json()
    assert payload["error"]["code"] == "bad-request"
    assert payload["error"]["field"] == field


def test_non_object_bodies_rejected():
    for body in (None, [], "query", 7):
        with pytest.raises(QueryError):
            BoundQuery.from_json(body)


def test_nan_and_inf_rejected():
    with pytest.raises(QueryError):
        BoundQuery.from_json(q(epsilon=float("nan")))
    with pytest.raises(QueryError):
        BoundQuery.from_json(q(capacity=float("inf")))
