import numpy as np
import pytest
from hypothesis import strategies as st

from lpldpc import TannerGraph, generate_regular


@pytest.fixture
def single_check():
    """The smallest parity check: x0 + x1 + x2 = 0."""
    return TannerGraph(3, [[0, 1, 2]])


@pytest.fixture
def path_graph():
    """Path-shaped graph: v0 - c0 - v1 - c1 - v2."""
    return TannerGraph(3, [[0, 1], [1, 2]])


@pytest.fixture
def g34_small():
    return generate_regular(12, 3, 4, seed=11)


def awgn_llr(g, sigma, seed, trial, map_spec=None):
    """All-zeros transmission helper: modified LLRs for one trial."""
    from lpldpc import ChannelParams, apply_map, bpsk, normalized_llr, transmit_awgn

    params = ChannelParams(sigma * sigma)
    y = transmit_awgn(bpsk(np.zeros(g.n, dtype=np.uint8)), params, seed, trial)
    lam = normalized_llr(y, params)
    return apply_map(map_spec, lam) if map_spec is not None else lam


def recorded_solves(monkeypatch, run, faces=None):
    """Run ``run()`` and return ((c, a, b), solution) per simplex solve.

    When ``faces`` is a list, each ``simplex.minimize_on_face`` call also
    appends ((sol, cost, eps), solution) to it.
    """
    from lpldpc import simplex

    calls = []
    real, real_face = simplex.solve, simplex.minimize_on_face

    def record(c, a, b):
        sol = real(c, a, b)
        calls.append(((c, a, b), sol))
        return sol

    def record_face(sol, cost, eps):
        out = real_face(sol, cost, eps)
        faces.append(((sol, cost, eps), out))
        return out

    monkeypatch.setattr(simplex, "solve", record)
    if faces is not None:
        monkeypatch.setattr(simplex, "minimize_on_face", record_face)
    run()
    monkeypatch.setattr(simplex, "solve", real)
    monkeypatch.setattr(simplex, "minimize_on_face", real_face)
    return calls


@st.composite
def irregular_graphs(draw, max_degree):
    """Random check sides with degrees 0 .. max_degree, low degrees favoured."""
    n = draw(st.integers(1, max_degree + 2))
    degree = st.one_of(st.integers(0, 2), st.integers(3, max(3, min(n, max_degree))))
    degs = draw(st.lists(degree, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TannerGraph(n, [sorted(rng.choice(n, size=min(d, n), replace=False).tolist())
                           for d in degs])
