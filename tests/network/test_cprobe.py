"""The generated-C probe kernel mirrors the Python objective bitwise.

The lane engine (``repro.network.lanes``) only stays bitwise-equal to
the per-cell searches if :func:`repro.network.cprobe.probe_values`
returns the exact doubles of :func:`repro.network.vectorized._e2e_probe`
and :func:`repro.network.cprobe.golden_values` the exact iterates of
:func:`repro.utils.numeric.golden_section_min` over that probe.  These
tests check both over randomized contexts spanning every ``Delta`` case
and a wide hop range.  When no C compiler is available the module falls
back to the Python loop, which is trivially identical — the randomized
checks still run, and a dedicated test asserts the compiled kernel is
actually present so CI notices a silently broken toolchain.
"""

import math
import random
import shutil

import pytest

from repro import obs
from repro.arrivals.mmoo import MMOOParameters
from repro.network import cprobe
from repro.network.cprobe import ProbeTable, golden_values, probe_values
from repro.network.e2e import mmoo_ebb_pair
from repro.network.vectorized import _e2e_probe
from repro.utils.numeric import golden_section_min

DELTAS = (0.0, 1.0, -9.0, math.inf, -math.inf)


def _random_contexts(rng, n):
    """Register ``n`` random feasible contexts; returns (table, raw)."""
    table = ProbeTable()
    raw = []
    for _ in range(n):
        traffic = MMOOParameters(
            peak=rng.uniform(1.0, 2.0),
            p11=rng.uniform(0.95, 0.995),
            p22=rng.uniform(0.85, 0.95),
        )
        n_through = rng.randint(1, 200)
        n_cross = rng.randint(0, 200)
        capacity = 100.0
        s = rng.uniform(1e-3, 0.5)
        through, cross = mmoo_ebb_pair(traffic, n_through, n_cross, s)
        if capacity - cross.rate - through.rate <= 0.0:
            continue
        hops = rng.choice((1, 2, 10, 30))
        delta = rng.choice(DELTAS)
        epsilon = rng.choice((1e-3, 1e-6, 1e-9))
        index = table.add(through, cross, hops, capacity, delta, epsilon)
        raw.append((index, through, cross, hops, capacity, delta, epsilon))
    return table, raw


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_kernel_available():
    """With ``cc`` present the kernel must compile."""
    assert cprobe.available(), (
        "generated-C probe kernel failed to compile; the lane engine "
        "would silently run on the slow Python fallback"
    )


def test_probe_values_bitwise_random():
    rng = random.Random(7)
    table, raw = _random_contexts(rng, 120)
    indices, gammas, expected = [], [], []
    for index, through, cross, hops, capacity, delta, epsilon in raw:
        gamma_max = (capacity - cross.rate - through.rate) / (hops + 1)
        for _ in range(4):
            gamma = rng.uniform(1e-6, 1.2) * gamma_max
            indices.append(index)
            gammas.append(gamma)
            expected.append(
                _e2e_probe(
                    through, cross, hops, capacity, delta, epsilon, gamma
                )
            )
    got = probe_values(table, indices, gammas)
    assert len(got) == len(expected)
    for value, reference in zip(got, expected):
        if math.isinf(reference):
            assert math.isinf(value)
        else:
            # bitwise: the engine's comparisons must see the same doubles
            assert value == reference


def test_golden_values_bitwise_random():
    rng = random.Random(11)
    table, raw = _random_contexts(rng, 40)
    indices, los, his, expected = [], [], [], []
    for index, through, cross, hops, capacity, delta, epsilon in raw:
        gamma_max = (capacity - cross.rate - through.rate) / (hops + 1)

        def objective(g, args=(through, cross, hops, capacity, delta, epsilon)):
            return _e2e_probe(*args, g)

        lo = rng.uniform(0.0, 0.4) * gamma_max
        hi = rng.uniform(0.5, 0.999) * gamma_max
        indices.append(index)
        los.append(lo)
        his.append(hi)
        expected.append(golden_section_min(objective, lo, hi, tol=1e-9))
    xs, fs = golden_values(table, indices, los, his)
    for i in range(len(indices)):
        x_ref, f_ref = expected[i]
        assert xs[i] == x_ref, (i, xs[i], x_ref)
        if math.isinf(f_ref):
            assert math.isinf(fs[i])
        else:
            assert fs[i] == f_ref, (i, fs[i], f_ref)


def test_deep_path_falls_back_to_python():
    """Hop counts beyond the C kernel's bound use the Python fallback."""
    rng = random.Random(3)
    traffic = MMOOParameters.paper_defaults()
    through, cross = mmoo_ebb_pair(traffic, 50, 50, 0.01)
    table = ProbeTable()
    hops = 5000  # > MAX_HOPS: C returns NaN, wrapper must recompute
    index = table.add(through, cross, hops, 100.0, 0.0, 1e-9)
    gamma_max = (100.0 - cross.rate - through.rate) / (hops + 1)
    gamma = 0.5 * gamma_max
    got = probe_values(table, [index], [gamma])
    reference = _e2e_probe(through, cross, hops, 100.0, 0.0, 1e-9, gamma)
    assert not math.isnan(got[0])
    assert got[0] == reference


@pytest.mark.parametrize("delta", DELTAS)
def test_probe_every_delta_case(delta):
    traffic = MMOOParameters.paper_defaults()
    through, cross = mmoo_ebb_pair(traffic, 100, 100, 0.02)
    table = ProbeTable()
    index = table.add(through, cross, 10, 100.0, delta, 1e-9)
    gamma_max = (100.0 - cross.rate - through.rate) / 11
    gammas = [0.1 * gamma_max, 0.5 * gamma_max, 0.9 * gamma_max]
    got = probe_values(table, [index] * len(gammas), gammas)
    for gamma, value in zip(gammas, got):
        assert value == _e2e_probe(
            through, cross, 10, 100.0, delta, 1e-9, gamma
        )


def _kernel_requests(table, raw):
    """Per context: two γ points and one golden bracket."""
    indices, gammas, los, his = [], [], [], []
    for index, through, cross, hops, capacity, _, _ in raw:
        gamma_max = (capacity - cross.rate - through.rate) / (hops + 1)
        indices.append(index)
        gammas.append(0.3 * gamma_max)
        los.append(0.1 * gamma_max)
        his.append(0.6 * gamma_max)
    return indices, gammas, los, his


def test_results_are_not_views_of_table_buffers():
    """The table reuses its kernel buffers across calls; a returned
    array must survive the next call unchanged."""
    table, raw = _random_contexts(random.Random(5), 6)
    indices, gammas, los, his = _kernel_requests(table, raw)
    first = probe_values(table, indices, gammas)
    kept = first.copy()
    probe_values(table, indices[::-1], [2 * g for g in gammas[::-1]])
    assert first.tobytes() == kept.tobytes()

    xs, fs = golden_values(table, indices, los, his)
    kept_x, kept_f = xs.copy(), fs.copy()
    golden_values(table, indices[::-1], los, his)
    probe_values(table, indices, his)
    assert xs.tobytes() == kept_x.tobytes()
    assert fs.tobytes() == kept_f.tobytes()


def test_deep_paths_counted_as_fallbacks():
    """A path beyond ``MAX_HOPS`` comes back from C as NaN (the kernel
    reports how many) and is served, and counted, by the Python loop;
    its neighbours stay in C."""
    through, cross = mmoo_ebb_pair(MMOOParameters.paper_defaults(), 50, 50,
                                   0.01)
    table = ProbeTable()
    deep = table.add(through, cross, cprobe.MAX_HOPS + 1, 100.0, 0.0, 1e-9)
    short = table.add(through, cross, 3, 100.0, 0.0, 1e-9)
    top = (100.0 - cross.rate - through.rate) / (cprobe.MAX_HOPS + 2)
    indices = [deep, short, deep]
    gammas = [0.5 * top, 0.2 * top, 0.7 * top]
    with obs.scoped() as registry:
        got = probe_values(table, indices, gammas)
    in_python = 2 if cprobe.available() else 3
    assert registry.counter("cprobe.fallbacks") == in_python
    for index, gamma, value in zip(indices, gammas, got.tolist()):
        args = table.context(index)
        assert value == _e2e_probe(*args, gamma)

    with obs.scoped() as registry:
        xs, fs = golden_values(table, [short, deep], [0.1 * top] * 2,
                               [0.9 * top] * 2)
    assert registry.counter("cprobe.fallbacks") == in_python - 1
    for i, index in enumerate((short, deep)):
        args = table.context(index)
        want = golden_section_min(
            lambda g: _e2e_probe(*args, g), 0.1 * top, 0.9 * top, tol=1e-9
        )
        assert (xs[i], fs[i]) == want
