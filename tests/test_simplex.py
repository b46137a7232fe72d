import dataclasses
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpldpc import MapSpec, generate_regular, lp_decode, simplex, witness_search
from lpldpc.lpdec import TIE_FACE_EPS, build_constraints
from lpldpc.simplex import (
    MAX_ITER,
    IterationLimitError,
    SimplexError,
    UnboundedError,
    minimize_on_face,
    solve,
)

from conftest import awgn_llr, irregular_graphs, recorded_solves
from oracles import (
    best_vertex_value,
    dense_pivot,
    dense_minimize_on_face,
    dense_set_objective,
    dense_solve,
    var_regular_graph,
)


def test_textbook_max():
    # max 2x + 3y st x + y <= 100, 6x + 3y <= 360, x + 2y <= 120
    a = np.array([[1.0, 1], [6, 3], [1, 2]])
    b = np.array([100.0, 360, 120])
    sol = solve(-np.array([2.0, 3]), a, b)
    assert -sol.value == pytest.approx(200.0, abs=1e-9)
    assert sol.x == pytest.approx([40.0, 40.0], abs=1e-9)


def test_min_is_max_of_negated():
    # the max by the reference's own two-phase solver
    a = np.array([[1.0, 2], [3, 1]])
    b = np.array([4.0, 6])
    c = np.array([1.0, -1])
    lo = solve(c, a, b)
    hi = dense_solve(-c, a, b, sense="max")
    assert lo.value == pytest.approx(-hi.value, abs=1e-12)
    assert lo.sharpness == hi.sharpness > 0


@pytest.mark.parametrize("a, b", [
    ([[-1.0]], [-1.0]),  # x >= 1
    ([[-1.0], [1.0]], [-1.0, 3.0]),  # 1 <= x <= 3
    ([[1.0]], [-1.0]),  # x <= -1
], ids=["lower-bound", "two-sided", "infeasible"])
def test_negative_rhs_rejected(a, b):
    # the solve starts at the origin, which b < 0 cuts off, feasible LP or not
    for c in (1.0, -1.0):
        with pytest.raises(ValueError, match="^right-hand side must be >= 0, got -1$"):
            solve(np.array([c]), np.array(a), np.array(b))


def test_minimize_on_face_walks_the_optimal_face():
    # min -x - y over x + y <= 1, x, y <= 1: the edge from (1, 0) to (0, 1)
    a = np.vstack([[1.0, 1.0], np.eye(2)])
    sol = solve(np.array([-1.0, -1.0]), a, np.array([1.0, 1.0, 1.0]))
    assert sol.sharpness == 0.0 and sol.x.tolist() == [1.0, 0.0]
    assert sol.basis.tolist() == [0, 3, 4]  # x in the row of x + y <= 1
    kept = [v.copy() for v in sol.tableau]
    other = minimize_on_face(sol, np.array([1.0, -1.0]), 0.0)
    assert other.x.tolist() == [0.0, 1.0] and other.value == -1.0
    assert other.iterations == 1 and other.basis.tolist() == [1, 3, 4, 5]
    assert all(np.array_equal(v, w) for v, w in zip(sol.tableau, kept))
    # staying put takes no pivot; the face row's slack is basic at eps
    same = minimize_on_face(sol, np.array([-1.0, 1.0]), 0.25)
    assert same.x.tolist() == [1.0, 0.0] and same.iterations == 0
    assert same.basis.tolist() == [*sol.basis, 5]
    for cost, eps in ((np.ones(3), 0.0), (np.array([np.nan, 1.0]), 0.0),
                      (np.ones(2), -1e-12), (np.ones(2), np.nan)):
        with pytest.raises(ValueError):
            minimize_on_face(sol, cost, eps)


def test_minimize_on_face_obeys_the_pivot_cap():
    # the one-pivot face solve above, with no pivot allowed
    a = np.vstack([[1.0, 1.0], np.eye(2)])
    sol = solve(np.array([-1.0, -1.0]), a, np.array([1.0, 1.0, 1.0]))
    assert minimize_on_face(sol, np.array([1.0, -1.0]), 0.0).iterations == 1
    with mock.patch.object(simplex, "MAX_ITER", 0), pytest.raises(
            IterationLimitError, match="^no optimum within 0 pivots;"):
        minimize_on_face(sol, np.array([1.0, -1.0]), 0.0)
    # the pivot it needs is allowed, and staying put needs none
    with mock.patch.object(simplex, "MAX_ITER", 1):
        assert minimize_on_face(sol, np.array([1.0, -1.0]), 0.0).x.tolist() == [0.0, 1.0]
    with mock.patch.object(simplex, "MAX_ITER", 0):
        assert minimize_on_face(sol, np.array([-1.0, 1.0]), 0.25).iterations == 0


def test_unbounded_detected():
    with pytest.raises(UnboundedError):
        solve(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]))


def test_beale_cycling_instance_terminates():
    # Classic degenerate instance that cycles under the largest-coefficient
    # rule; Bland pivoting must reach the optimum -1/20.
    a = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    sol = solve(c, a, b)
    assert sol.value == pytest.approx(-0.05, abs=1e-12)


def test_sharpness_is_zero_on_exact_ties_and_positive_on_unique_optima():
    # min -x - y over x + y <= 1: the whole edge from (1, 0) to (0, 1) is optimal
    a = np.array([[1.0, 1.0]])
    assert solve(np.array([-1.0, -1.0]), a, np.array([1.0])).sharpness == 0.0
    # min -2x - y: (1, 0) alone; reduced costs 1 (y) and 2 (slack), |T_N| <= 1
    assert solve(np.array([-2.0, -1.0]), a, np.array([1.0])).sharpness == 1.0


def test_iteration_cap_raises():
    a = np.array([[1.0, 1], [6, 3], [1, 2]])
    b = np.array([100.0, 360, 120])
    with mock.patch.object(simplex, "MAX_ITER", 1), pytest.raises(IterationLimitError):
        solve(-np.array([2.0, 3]), a, b)


def test_deterministic_pivoting():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4))
    b = np.abs(rng.normal(size=6)) + 0.5
    c = rng.normal(size=4)
    first = solve(c, a, b)
    second = solve(c, a, b)
    assert (first.x == second.x).all()
    assert first.basis.tolist() == second.basis.tolist()


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError):
        solve(np.ones(2), np.ones((3, 3)), np.ones(3))
    with pytest.raises(ValueError):
        solve(np.array([np.inf]), np.ones((1, 1)), np.ones(1))


def test_matches_vertex_enumeration_on_random_boxes():
    # Random bounded LPs: rows plus a unit box; the optimum over vertices
    # enumerated from scratch must match the simplex value.
    rng = np.random.default_rng(123)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        rows = int(rng.integers(1, 4))
        a = rng.integers(-2, 3, size=(rows, n)).astype(float)
        b = np.abs(rng.normal(size=rows)) + 0.2
        a = np.vstack([a, np.eye(n)])
        b = np.concatenate([b, np.ones(n)])
        c = rng.normal(size=n)

        class Cons:  # minimal stand-in with the fields the oracle needs
            pass

        cons = Cons()
        cons.n, cons.a, cons.b = n, a, b
        verts = []
        import itertools

        full_a = np.vstack([a, -np.eye(n)])
        full_b = np.concatenate([b, np.zeros(n)])
        for combo in itertools.combinations(range(len(full_b)), n):
            try:
                v = np.linalg.solve(full_a[list(combo)], full_b[list(combo)])
            except np.linalg.LinAlgError:
                continue
            if (full_a @ v <= full_b + 1e-9).all():
                verts.append(v)
        want = best_vertex_value(np.array(verts), c, "max")
        sol = solve(-c, a, b)
        assert -sol.value == pytest.approx(want, abs=1e-9)


def test_solution_is_basic_feasible():
    a = np.array([[1.0, 1, 1], [1, -1, 0]])
    b = np.array([2.0, 0.5])
    sol = solve(-np.array([1.0, 1, 0.2]), a, b)
    assert (a @ sol.x <= b + 1e-9).all()
    assert (sol.x >= -1e-12).all()
    # a vertex of {Ax<=b, x>=0} in R^3 has at least 3 tight constraints
    tight = int((np.abs(a @ sol.x - b) < 1e-9).sum()) + int((np.abs(sol.x) < 1e-12).sum())
    assert tight >= 3


def _outcome(c, a, b, sense="min", cap=MAX_ITER):
    """``solve``'s optimum of ``sense`` c.x within ``cap`` pivots, a max as
    the min of -c.x with its value negated, or the SimplexError it raises."""
    try:
        with mock.patch.object(simplex, "MAX_ITER", cap):
            sol = solve(c if sense == "min" else -c, a, b)
    except SimplexError as exc:
        return type(exc)
    return sol if sense == "min" else dataclasses.replace(sol, value=-sol.value)


def _dense_outcome(c, a, b, sense="min", max_iter=MAX_ITER):
    try:
        return dense_solve(c, a, b, sense=sense, max_iter=max_iter)
    except SimplexError as exc:
        return type(exc)


def _face_outcome(face, *args):
    try:
        return face(*args)
    except SimplexError as exc:
        return type(exc)


def _away(sol):
    """The tie probe's cost, as ``lp_decode`` builds it: away from ``sol.x``."""
    return np.where(sol.x >= 0.5, 1.0, -1.0)


def _decode_lp(g, lamp):
    """The decode LP of ``lamp``, built from the polytope rows and the
    max-normalized cost; ``lp_decode`` solves it unless the hard decision
    settles the decode first."""
    cons = build_constraints(g)
    scale = np.abs(lamp).max()
    cn = lamp / scale if scale > 0 else lamp.copy()
    lp = (cn, cons.a, cons.b)
    with pytest.MonkeyPatch.context() as mp:
        calls = recorded_solves(mp, lambda: lp_decode(g, lamp))
    if calls:
        (c, a, b), _ = calls[0]
        assert np.array_equal(c, cn) and a is cons.a and b is cons.b
    return lp


def _recorded_lps(g, lamp):
    """(c, a, b) of the decode LP, built even when ``lp_decode``
    skips it, then of every solve ``witness_search`` makes on ``lamp``. The
    decode LP's tie probe continues its solve: ``_away`` on the optimum,
    over the optimal face."""
    lp = _decode_lp(g, lamp)
    with pytest.MonkeyPatch.context() as mp:
        calls = recorded_solves(mp, lambda: witness_search(g, lamp))
    return [lp] + [args for args, _ in calls]


def _assert_same_path(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert got.iterations == want.iterations
    assert got.basis.tolist() == want.basis.tolist()
    # An exchange may leave -0.0 where the dense update leaves +0.0.
    assert np.array_equal(got.x, want.x)
    assert got.value == want.value
    assert got.sharpness == want.sharpness


def _random_lp(kind, m, n, seed, boxed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        a = rng.normal(size=(m, n))
        b = np.abs(rng.normal(size=m))
        c = rng.normal(size=n)
    elif kind == "integer":
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(0, 4, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
    else:  # sparse, many zero right-hand sides: degenerate vertices
        a = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], size=(m, n))
        b = rng.choice([0.0, 0.0, 1.0], size=m)
        c = rng.choice([-1.0, 0.0, 1.0], size=n)
    if boxed:
        a = np.vstack([a, np.eye(n)])
        b = np.concatenate([b, np.ones(n)])
    return c, a, b


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["gaussian", "integer", "sparse"]),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    boxed=st.booleans(),
    sense=st.sampled_from(["min", "max"]),
    max_iter=st.sampled_from([2, MAX_ITER]),
)
def test_pivot_matches_dense_reference_on_random_lps(kind, m, n, seed, boxed, sense, max_iter):
    c, a, b = _random_lp(kind, m, n, seed, boxed)
    got = _outcome(c, a, b, sense, max_iter)
    want = _dense_outcome(c, a, b, sense, max_iter)
    _assert_same_path(got, want)
    if isinstance(got, type):
        return
    # continued over the optimal face, which may be unbounded
    d = np.random.default_rng(seed).choice([-1.0, 1.0], size=n)
    _assert_same_path(_face_outcome(minimize_on_face, got, d, 1e-3),
                      _face_outcome(dense_minimize_on_face, (c, a, b), d, 1e-3, sense))


def test_kernels_match_dense_reference_on_random_tableaus():
    # A full tableau whose basic columns are unit vectors, condensed to its
    # nonbasic columns in a shuffled order: pricing out an objective and one
    # exchange must give the full dense results restricted to the nonbasic
    # columns, entry for entry.
    rng = np.random.default_rng(5)
    for _ in range(200):
        rows = int(rng.integers(1, 9))
        cols = rows + int(rng.integers(1, 6))
        full = np.where(rng.random((rows + 1, cols + 1)) < 0.5,
                        rng.normal(size=(rows + 1, cols + 1)), 0.0)
        basis = rng.choice(cols, size=rows, replace=False)
        full[:, basis] = 0.0
        full[np.arange(rows), basis] = 1.0
        nonbasic = rng.permutation(np.setdiff1d(np.arange(cols), basis))
        tab = full[:, np.append(nonbasic, -1)]
        cost = np.where(rng.random(cols) < 0.5, rng.normal(size=cols), 0.0)
        simplex._set_objective(tab, basis, nonbasic, cost)
        dense_set_objective(full, basis, cost)
        assert tab.tobytes() == full[:, np.append(nonbasic, -1)].tobytes()
        row = int(rng.integers(rows))
        nonzero = np.flatnonzero(tab[row, :-1])
        if nonzero.size == 0:
            continue
        s = int(rng.choice(nonzero))
        entering, leaving = nonbasic[s], basis[row]
        got_basis, want_basis = basis.copy(), basis.copy()
        simplex._exchange(tab, got_basis, nonbasic, row, s)
        dense_pivot(full, want_basis, row, entering)
        assert nonbasic[s] == leaving and got_basis.tolist() == want_basis.tolist()
        # The dense update may turn a -0.0 of the pivot row into +0.0.
        assert np.array_equal(tab, full[:, np.append(nonbasic, -1)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["gaussian", "integer", "sparse"]),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    boxed=st.booleans(),
    eps=st.sampled_from([1e-12, 1e-3, 0.3]),
)
def test_face_probe_stays_within_sharpness_bound(kind, m, n, seed, boxed, eps):
    # Every feasible point within eps of the optimal value lies within
    # eps / sharpness of the optimum in every coordinate, slacks included;
    # probe the face {c.x <= c.x* + eps} in several directions.
    c, a, b = _random_lp(kind, m, n, seed, boxed)
    try:
        sol = solve(c, a, b)
    except UnboundedError:
        return
    if sol.sharpness == 0.0:
        return
    bound = eps / sol.sharpness
    rng = np.random.default_rng(seed)
    away = _away(sol)
    for d in (away, -away, rng.choice([-1.0, 1.0], size=n), rng.normal(size=n)):
        x = minimize_on_face(sol, d, eps).x
        moved = max(np.abs(x - sol.x).max(), np.abs(a @ (x - sol.x)).max())
        assert moved <= bound + 1e-9 * (1.0 + np.abs(sol.x).max())


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_pivot_path_pinned_on_witness_lp(monkeypatch, trial):
    # d_v = 25 with m = 60 checks: no check has degree 1, so the stopping-set
    # core is every variable and the LP keeps n rows and |E| + 1 columns
    g = var_regular_graph(18, 25, 60, seed=3)
    lamp = awgn_llr(g, 0.5, seed=7, trial=trial, map_spec=MapSpec.parse("threshold:1.0"))
    calls = recorded_solves(monkeypatch, lambda: witness_search(g, lamp))
    assert len(calls) == 1
    (args, got), = calls
    assert args[1].shape == (18, 451)
    _assert_same_path(got, dense_solve(*args))


@pytest.mark.parametrize("trial", [0, 1, 2, 3])
def test_pivot_path_pinned_on_decoder_lps(monkeypatch, trial):
    g = generate_regular(24, 3, 4, seed=3)
    lamp = awgn_llr(g, 0.9, seed=5, trial=trial)
    calls = recorded_solves(monkeypatch, lambda: lp_decode(g, lamp))
    assert len(calls) == 1  # the main solve certifies a unique optimum
    (args, got), = calls
    _assert_same_path(got, dense_solve(*args))
    away = _away(got)
    _assert_same_path(minimize_on_face(got, away, TIE_FACE_EPS),
                      dense_minimize_on_face(args, away, TIE_FACE_EPS))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_recorded_decode_and_witness_lps_match_dense_reference(data):
    # degree-0 and -1 checks included; quantize2 LLRs make the LPs
    # degenerate, and the probe LP is the face of the main optimum
    g = data.draw(irregular_graphs(max_degree=6))
    spec = MapSpec.parse(data.draw(st.sampled_from(["trivial", "threshold:1.0", "quantize2:1"])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lamp = spec.apply(rng.normal(1.0, data.draw(st.sampled_from([0.3, 0.8, 1.5])), size=g.n))
    lps = _recorded_lps(g, lamp)
    for lp in lps:
        _assert_same_path(_outcome(*lp), _dense_outcome(*lp))
    sol = solve(*lps[0])
    _assert_same_path(minimize_on_face(sol, _away(sol), TIE_FACE_EPS),
                      dense_minimize_on_face(lps[0], _away(sol), TIE_FACE_EPS))


def _highs_outcome(c, a, b, sense="min"):
    """("optimal", value), ("infeasible", None) or ("unbounded", None) from
    HiGHS dual simplex, which shares no code with ``simplex.solve``."""
    from scipy.optimize import linprog

    sign = 1.0 if sense == "min" else -1.0
    res = linprog(sign * np.asarray(c), A_ub=a, b_ub=b, method="highs-ds")
    kind = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    assert kind is not None, res.message
    return kind, sign * res.fun if kind == "optimal" else None


def _assert_matches_highs(c, a, b, sense="min"):
    got = _outcome(c, a, b, sense)
    kind, value = _highs_outcome(c, a, b, sense)
    if isinstance(got, type):
        assert (kind, got) == ("unbounded", UnboundedError)
        return
    assert kind == "optimal"
    assert abs(got.value - value) <= 1e-9 * max(1.0, abs(value))


def _assert_probe_matches_highs(lp):
    """The tie probe of decode LP ``lp``, continued as ``lp_decode`` runs
    it, reaches the optimum that HiGHS finds on the explicit face LP: the
    rows of ``lp`` plus c.x <= c.x* + TIE_FACE_EPS."""
    c, a, b = lp
    sol = solve(*lp)
    face = (_away(sol), np.vstack([a, c]), np.append(b, c @ sol.x + TIE_FACE_EPS))
    kind, value = _highs_outcome(*face)
    assert kind == "optimal"
    got = minimize_on_face(sol, face[0], TIE_FACE_EPS).value
    assert abs(got - value) <= 1e-9 * max(1.0, abs(value))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["gaussian", "integer", "sparse"]),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    boxed=st.booleans(),
    sense=st.sampled_from(["min", "max"]),
)
def test_random_lps_match_highs(kind, m, n, seed, boxed, sense):
    _assert_matches_highs(*_random_lp(kind, m, n, seed, boxed), sense)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_recorded_decode_and_witness_lps_match_highs(data):
    g = data.draw(irregular_graphs(max_degree=6))
    spec = MapSpec.parse(data.draw(st.sampled_from(["trivial", "threshold:1.0", "quantize2:1"])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lamp = spec.apply(rng.normal(1.0, data.draw(st.sampled_from([0.3, 0.8, 1.5])), size=g.n))
    lps = _recorded_lps(g, lamp)
    for lp in lps:
        _assert_matches_highs(*lp)
    _assert_probe_matches_highs(lps[0])


@pytest.mark.parametrize("trial", [0, 1])
def test_benchmark_decode_and_witness_lps_match_highs(trial):
    # the decode LP of a (3,4) n=24 graph with its probe, and the decode LPs
    # of the witness-dv25 graph, whose witness needs no LP (its core is empty)
    g = generate_regular(24, 3, 4, seed=3)
    lps = _recorded_lps(g, awgn_llr(g, 0.9, seed=5, trial=trial))
    for lp in lps:
        _assert_matches_highs(*lp)
    _assert_probe_matches_highs(lps[0])
    g = var_regular_graph(18, 25, 200, seed=3)
    lamp = awgn_llr(g, 0.5, seed=7, trial=trial, map_spec=MapSpec.parse("threshold:1.0"))
    lps = _recorded_lps(g, lamp)
    for lp in lps:
        _assert_matches_highs(*lp)
    _assert_probe_matches_highs(lps[0])


def test_import_decode_and_witness_load_no_scipy():
    # scipy is a test dependency only: scipy.special alone adds about 26 MB
    # of peak RSS and 0.3 s to start-up, and HiGHS (scipy.optimize) and
    # scipy.sparse more; only the tests above may bring it in.
    script = """
import sys
import numpy as np
import lpldpc
g = lpldpc.generate_regular(12, 3, 4, seed=11)
lamp = np.linspace(-0.5, 1.5, g.n)
lpldpc.lp_decode(g, lamp)
lpldpc.witness_search(g, lamp)
loaded = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
print(",".join(loaded))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == ""
