import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpldpc import (
    ChannelParams,
    MapSpec,
    TannerGraph,
    apply_map,
    bpsk,
    build_constraints,
    enumerate_codewords,
    generate_regular,
    lp_decode,
    membership,
    ml_decode,
    normalized_llr,
    simplex,
    transmit_awgn,
    trial_rng,
)
from lpldpc.gf2 import nullspace_basis, rank
from lpldpc.lpdec import INTEGRALITY_TOL, TIE_FACE_EPS, _parity_ok

from conftest import awgn_llr, irregular_graphs, recorded_solves
from oracles import (
    best_vertex_value,
    dense_solve,
    lp_decode_always_probe,
    membership_by_rows,
    vertices_by_bases,
    vertices_by_qhull,
)


def test_single_check_constraint_counts(single_check):
    cons = build_constraints(single_check)
    # 3 box rows + 4 odd-subset rows (three singletons, one triple)
    assert cons.a.shape == (7, 3)
    odd = cons.a[3:]
    sizes = sorted(int((row == 1).sum()) for row in odd)
    assert sizes == [1, 1, 1, 3]
    assert set(np.unique(cons.a)) <= {-1.0, 0.0, 1.0}


def test_degree_four_check_has_eight_rows():
    g = TannerGraph(4, [[0, 1, 2, 3]])
    cons = build_constraints(g)
    assert cons.a.shape == (4 + 8, 4)  # 4 box rows, then the check's rows
    assert (cons.a[4:] != 0).all()


def test_zero_point_always_feasible():
    for seed in range(3):
        g = generate_regular(12, 3, 4, seed=seed)
        cons = build_constraints(g)
        assert (cons.b >= 0).all()
        assert membership(g, np.zeros(12))


def test_check_degree_cap():
    g = TannerGraph(17, [list(range(17))])
    with pytest.raises(ValueError, match="cap"):
        build_constraints(g)


def test_membership_answers_above_degree_cap():
    # degree 18 > MAX_CHECK_DEGREE: membership builds no rows, so it answers
    g = TannerGraph(20, [list(range(18)), [17, 18, 19]])
    rng = np.random.default_rng(18)
    points = [np.full(20, 0.5), np.zeros(20), rng.random(20), 0.2 * rng.random(20)]
    inside = np.zeros(20)
    inside[[0, 1, 18, 19]] = 1.0  # a codeword: even at both checks
    outside = inside.copy()
    outside[2] = 1.0
    points += [inside, outside, 0.9 * inside + 0.05]
    for w in points:
        assert membership(g, w) == membership_by_rows(g, w)
    assert membership(g, inside) and not membership(g, outside)


def test_nan_is_not_a_member(single_check):
    assert not membership(single_check, np.array([np.nan, 0.0, 0.0]))
    assert not membership(single_check, np.array([0.5, np.nan, 0.5]))
    assert not membership(single_check, np.array([0.0, np.inf, 0.0]))
    # a variable in no check meets only the box, which NaN slips past
    g = TannerGraph(4, [[0, 1, 2], []])
    w = np.array([0.0, 0.0, 0.0, np.nan])
    assert not membership(g, w)
    assert not membership_by_rows(g, w)


@st.composite
def cube_points(draw, n):
    """Interior, boundary, box-violating and lattice points of the unit cube."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "lattice", "bits", "half", "box"]))
    if kind == "uniform":
        return rng.random(n)
    if kind == "lattice":  # sums land exactly on right-hand sides
        return rng.integers(0, 5, size=n) / 4.0
    if kind == "bits":  # codewords sit on every one of their checks' faces
        return rng.integers(0, 2, size=n).astype(float)
    if kind == "half":
        w = np.full(n, 0.5)
        w[rng.random(n) < 0.3] = draw(st.sampled_from([0.0, 1.0]))
        return w
    return rng.uniform(-0.1, 1.1, size=n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_membership_matches_row_oracle(data):
    g = data.draw(irregular_graphs(max_degree=10))
    w = data.draw(cube_points(g.n))
    assert membership(g, w) == membership_by_rows(g, w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parity_ok_matches_dense_syndrome(data):
    # degree-0 checks included; bits are floats, as lp_decode rounds them
    g = data.draw(irregular_graphs(max_degree=8))
    h = g.parity_check_matrix().astype(np.int64)
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n)))
    assert _parity_ok(g, bits.astype(float)) == (not ((h @ bits) % 2).any())
    basis = nullspace_basis(h.astype(np.uint8)).astype(np.int64)
    coeffs = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(basis),
                                         max_size=len(basis))), dtype=np.int64)
    assert _parity_ok(g, ((coeffs @ basis) % 2).astype(float))


def test_lp_solve_examples(single_check):
    cons = build_constraints(single_check)
    # the max of c.x is the negated min of -c.x
    sol = simplex.solve(-np.ones(3), cons.a, cons.b)
    assert -sol.value == pytest.approx(2.0, abs=1e-9)
    assert sorted(np.round(sol.x, 9).tolist()) in ([0.0, 1.0, 1.0],)
    zero = -simplex.solve(-np.zeros(3), cons.a, cons.b).value
    assert zero == 0.0
    val = -simplex.solve(-np.array([1.0, -1.0, -1.0]), cons.a, cons.b).value
    assert val == pytest.approx(0.0, abs=1e-9)


def test_lp_solve_deterministic(single_check):
    cons = build_constraints(single_check)
    a = simplex.solve(-np.ones(3), cons.a, cons.b).x
    b = simplex.solve(-np.ones(3), cons.a, cons.b).x
    assert (a == b).all()


def test_membership_examples(single_check):
    for cw in enumerate_codewords(single_check):
        assert membership(single_check, cw)
    assert membership(single_check, np.full(3, 0.5))
    assert not membership(single_check, np.array([1.0, 0.0, 0.0]))
    g = generate_regular(16, 3, 4, seed=0)
    assert membership(g, np.full(16, 0.5))


def test_enumerate_codewords_single_check(single_check):
    words = {tuple(w) for w in enumerate_codewords(single_check)}
    assert words == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_enumerate_codewords_matches_exhaustive():
    for seed in (1, 4):
        g = generate_regular(8, 3, 4, seed=seed)
        h = g.parity_check_matrix().astype(int)
        brute = {
            bits
            for bits in itertools.product((0, 1), repeat=8)
            if not (h @ np.array(bits) % 2).any()
        }
        words = {tuple(int(b) for b in w) for w in enumerate_codewords(g)}
        assert words == brute
        assert len(words) == 2 ** (8 - rank(h))


def test_codewords_pass_membership():
    g = generate_regular(12, 3, 4, seed=3)
    for w in enumerate_codewords(g):
        assert membership(g, w.astype(float))


def test_code_dimension_cap_shared():
    # one check on 26 variables leaves dimension 25 > MAX_DIMENSION = 24
    g = TannerGraph(26, [[0, 1]])
    with pytest.raises(ValueError, match="code dimension 25 exceeds cap 24"):
        enumerate_codewords(g)
    with pytest.raises(ValueError, match="code dimension 25 exceeds cap 24"):
        ml_decode(g, np.ones(26))


def test_ml_decode_examples(single_check):
    cw, value = ml_decode(single_check, np.ones(3))
    assert value == 3.0 and not cw.any()
    cw, value = ml_decode(single_check, np.array([-5.0, 1.0, 1.0]))
    assert value == 5.0
    # exact tie between 101 and 110: lexicographically smallest bit vector wins
    assert cw.tolist() == [1, 0, 1]


def test_lp_decode_noiseless(single_check):
    out = lp_decode(single_check, np.ones(3))
    assert out.status == "integral"
    assert not out.codeword.any()
    assert out.objective == pytest.approx(3.0, abs=1e-9)


def test_lp_decode_detects_tie(single_check):
    out = lp_decode(single_check, np.array([-2.0, 1.0, 1.0]))
    assert out.status == "tie"
    assert out.objective == pytest.approx(2.0, abs=1e-9)


def test_exact_tie_has_zero_sharpness(monkeypatch, single_check):
    # 110 and 101 are both optimal: the main solve cannot certify uniqueness
    outs, faces = [], []
    calls = recorded_solves(monkeypatch, lambda: outs.append(
        lp_decode(single_check, np.array([-2.0, 1.0, 1.0]))), faces)
    (_, main), = calls
    ((start, _, eps), probe), = faces  # the probe continues the main solve
    assert main.sharpness == 0.0
    assert start is main and eps == TIE_FACE_EPS
    assert outs[0].stats == {"uniqueness": "probed", "main_pivots": main.iterations,
                             "probe_pivots": probe.iterations}


def _assert_same_as_always_probe(g, lamp):
    got = lp_decode(g, lamp)
    want = lp_decode_always_probe(g, lamp)
    assert got.status == want.status
    if want.codeword is not None:
        assert np.array_equal(got.codeword, want.codeword)
    if got.stats["uniqueness"] != "hard_decision":
        assert got.stats["uniqueness"] in ("certified", "probed")
        assert np.array_equal(got.vertex, want.vertex)
        assert got.objective == want.objective
        return got
    # The hard decision h is returned exactly; the simplex reaches the same
    # vertex only up to rounding (about 1e-14 on nonzero codewords).
    hard = (lamp < 0).astype(float)
    assert want.status == "integral" and np.array_equal(want.codeword, hard)
    assert np.array_equal(got.vertex, hard)
    assert got.objective == float(lamp.sum() - 2.0 * (lamp @ hard))
    assert np.abs(want.vertex - hard).max() <= 1e-9
    assert abs(want.objective - got.objective) <= 1e-9 * max(1.0, abs(got.objective))
    assert got.stats["main_pivots"] == got.stats["probe_pivots"] == 0
    return got


def _hard_decision_guard(g, lamp):
    """Whether the LLR signs form a codeword with every |llr| at least
    1e-6 max|llr|, by a dense syndrome."""
    scale = np.abs(lamp).max()
    if scale == 0 or TIE_FACE_EPS > INTEGRALITY_TOL * (np.abs(lamp) / scale).min():
        return False
    h = g.parity_check_matrix().astype(np.int64)
    return not ((h @ (lamp < 0).astype(np.int64)) % 2).any()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hard_decision_certificate_matches_always_probe(data):
    # LLR signs follow a random codeword, or that word with one bit flipped;
    # exact zeros and magnitudes of 1e-7 * max break the guard and send the
    # decode to the LP, 1e-5 * max keeps it
    g = data.draw(irregular_graphs(max_degree=6))
    words = enumerate_codewords(g)
    word = words[data.draw(st.integers(0, len(words) - 1))].copy()
    if data.draw(st.booleans()):
        word[data.draw(st.integers(0, g.n - 1))] ^= 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mags = rng.uniform(0.1, 2.0, size=g.n)
    small = rng.random(g.n) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    mags[small] = data.draw(st.sampled_from([0.0, 1e-7, 1e-5])) * mags.max()
    lamp = np.where(word == 1, -mags, mags)
    got = _assert_same_as_always_probe(g, lamp)
    assert (got.stats["uniqueness"] == "hard_decision") == _hard_decision_guard(g, lamp)


def test_hard_decision_needs_every_llr_clear_of_zero(monkeypatch, single_check):
    # 000 is a codeword in both, but 1e-9 sends the decode to the LP. Alone,
    # x0 cannot move without x1 or x2, so the probe keeps 000; paired with a
    # second 1e-9, the edge to 110 is nearly flat and the probe finds a tie.
    for lamp, status in (([1e-9, 1.0, 1.0], "integral"), ([1e-9, 1e-9, 1.0], "tie")):
        outs, faces = [], []
        calls = recorded_solves(monkeypatch, lambda: outs.append(
            _assert_same_as_always_probe(single_check, np.array(lamp))), faces)
        assert outs[0].status == status
        assert outs[0].stats["uniqueness"] == "probed"
        # the main solve in lp_decode and in the oracle, whose cold probe
        # runs through the dense reference; lp_decode's probe is a face call
        assert len(calls) == 2 and len(faces) == 1


def test_hard_decision_decodes_a_nonzero_codeword_without_solving(monkeypatch):
    g = generate_regular(24, 3, 4, seed=3)
    word = next(w for w in enumerate_codewords(g) if w.any())
    lamp = np.where(word == 1, -1.0, 1.0) * np.linspace(0.5, 2.0, g.n)
    outs = []
    assert recorded_solves(monkeypatch, lambda: outs.append(lp_decode(g, lamp))) == []
    out, = outs
    assert out.status == "integral" and np.array_equal(out.codeword, word)
    assert np.array_equal(out.vertex, word.astype(float))
    assert out.objective == np.abs(lamp).sum()
    assert out.stats == {"uniqueness": "hard_decision", "main_pivots": 0, "probe_pivots": 0}
    _assert_same_as_always_probe(g, lamp)


def test_hard_decision_keeps_the_check_degree_cap():
    # all-positive LLRs: the zero codeword is the hard decision, yet the
    # decoder still refuses a check of degree 17
    g = TannerGraph(17, [list(range(17))])
    with pytest.raises(ValueError, match="check degree 17 exceeds cap 16"):
        lp_decode(g, np.ones(17))


@pytest.mark.parametrize("g, lamp, status", [
    (TannerGraph(3, [[0, 1, 2]]), [-2.0, 1.0, 1.0], "tie"),
    (TannerGraph(3, [[0, 1, 2]]), [-1.0, 0.0, 0.0], "tie"),
    (TannerGraph(3, [[0, 1, 2]]), [0.0, 0.0, 0.0], "tie"),
    (TannerGraph(3, [[0, 1], [1, 2]]), [1.0, -2.0, 1.0], "tie"),
    (TannerGraph(4, [[0, 1, 2, 3]]), [-1.0, -1.0, -1.0, 1.0], "tie"),
    (TannerGraph(5, [[0, 1, 2], [2, 3, 4]]), [1.0, 1.0, -2.0, 1.0, 1.0], "tie"),
    # Near ties: 110 beats 101 by d. The probe slides along the edge between
    # them by up to 1e-12 / (d / 2), a tie beyond 1e-6. Sharpness is about
    # d / 4, so only d = 2e-4 is certified.
    (TannerGraph(3, [[0, 1, 2]]), [-2.0, 1.0, 1.0 + 2e-13], "tie"),
    (TannerGraph(3, [[0, 1, 2]]), [-2.0, 1.0, 1.0 + 2e-8], "tie"),
    (TannerGraph(3, [[0, 1, 2]]), [-2.0, 1.0, 1.0 + 2e-6], "integral"),
    (TannerGraph(3, [[0, 1, 2]]), [-2.0, 1.0, 1.0 + 2e-4], "integral"),
])
def test_lp_decode_matches_always_probe_on_exact_and_near_ties(g, lamp, status):
    assert _assert_same_as_always_probe(g, np.array(lamp)).status == status


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lp_decode_matches_always_probe(data):
    # quantize2 and integer LLRs give degenerate optima and exact ties, where
    # the certificate must fail and the probe must run
    g = data.draw(irregular_graphs(max_degree=6))
    spec = MapSpec.parse(data.draw(st.sampled_from(["trivial", "threshold:1.0", "quantize2:1"])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        lam = rng.normal(1.0, data.draw(st.sampled_from([0.3, 0.8, 1.5])), size=g.n)
    else:
        lam = rng.integers(-2, 3, size=g.n).astype(float)
    _assert_same_as_always_probe(g, spec.apply(lam))


def _perfbench_unit_seed(seed, k):
    """Master seed of the k-th ``run_wer`` call of a perfbench run."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


@pytest.mark.parametrize("n, d_c, seed, sigma2, trial, pivots", [
    # wer-n24 seed 1 unit 40 position 6, and seed 12 unit 7 position 0
    # (trivial map; positions run over sigma2 (0.5, 0.8), then 4 trials)
    (24, 4, _perfbench_unit_seed(1, 40), 0.8, 2, 40),
    (24, 4, _perfbench_unit_seed(12, 7), 0.5, 0, 3),
    # wer-n48 seed 1
    (48, 6, 1, 0.5, 3, 159),
    (48, 6, 1, 0.5, 5, 6),
])
def test_runaway_probe_decodes_are_certified(monkeypatch, n, d_c, seed, sigma2, trial, pivots):
    # The face probe of these decodes cycled under Bland's rule and ran into
    # IterationLimitError; the main solve certifies each optimum instead.
    g = generate_regular(n, 3, d_c, seed=3)
    params = ChannelParams(sigma2)
    y = transmit_awgn(bpsk(np.zeros(n, dtype=np.uint8)), params, seed, trial)
    lamp = normalized_llr(y, params)
    outs = []
    calls = recorded_solves(monkeypatch, lambda: outs.append(lp_decode(g, lamp)))
    (_, main), = calls
    assert main.iterations == pivots
    assert TIE_FACE_EPS <= INTEGRALITY_TOL * main.sharpness
    assert outs[0].stats == {"uniqueness": "certified", "main_pivots": pivots, "probe_pivots": 0}


def test_runaway_probe_finishes_on_the_main_tableau(monkeypatch):
    # wer-n24 seed 10 unit 536 position 22 (quantize2:1, sigma2 0.8, trial
    # 2): the main optimum 0 has sharpness 0, and the probe solved cold
    # from the stacked face LP runs away under Bland's rule (past 20,000
    # pivots; 2,000 here). Continued from the main tableau it takes 33.
    g = generate_regular(24, 3, 4, seed=3)
    lamp = np.ones(24)
    lamp[[13, 14, 17, 23]] = -1.0
    outs, faces = [], []
    calls = recorded_solves(monkeypatch, lambda: outs.append(lp_decode(g, lamp)), faces)
    ((c, a, b), main), = calls
    ((_, away, _), probe), = faces
    assert main.sharpness == 0.0 and not main.x.any()
    assert outs[0].status == "integral" and not outs[0].codeword.any()
    assert outs[0].stats == {"uniqueness": "probed", "main_pivots": 36, "probe_pivots": 33}
    face = (away, np.vstack([a, c]), np.append(b, c @ main.x + TIE_FACE_EPS))
    with pytest.raises(simplex.IterationLimitError):
        dense_solve(*face, max_iter=2000)
    # HiGHS on the explicit face: min away.x is -|x - 0|_1 in the unit box,
    # so no face point lies beyond the integrality tolerance of the optimum
    from scipy.optimize import linprog

    res = linprog(away, A_ub=face[1], b_ub=face[2], method="highs-ds")
    assert res.status == 0 and -res.fun <= INTEGRALITY_TOL
    assert abs(probe.value - res.fun) <= 1e-9


@pytest.mark.parametrize("sigma2, seed, trial", [(0.25, 1, 16), (0.3, 2, 1)])
def test_runaway_main_solves_take_the_hard_decision(monkeypatch, sigma2, seed, trial):
    # run_wer trials with random codewords and threshold:1.0 on a (3,4) n=24
    # graph: the main decode LP finds no optimum under Bland's rule within
    # 100,000 pivots (2,000 here), but the hard decision is the sent
    # codeword and settles the decode without it
    g = generate_regular(24, 3, 4, seed=3)
    basis = nullspace_basis(g.parity_check_matrix())
    x = (trial_rng(seed, trial, stream=1).integers(0, 2, basis.shape[0]) @ basis) % 2
    params = ChannelParams(sigma2)
    lamp = apply_map(MapSpec.parse("threshold:1.0"),
                     normalized_llr(transmit_awgn(bpsk(x), params, seed, trial), params))
    outs = []
    assert recorded_solves(monkeypatch, lambda: outs.append(lp_decode(g, lamp))) == []
    assert x.any() and np.array_equal(outs[0].codeword, x)
    assert outs[0].stats["uniqueness"] == "hard_decision"
    cons = build_constraints(g)
    with mock.patch.object(simplex, "MAX_ITER", 2000), pytest.raises(simplex.IterationLimitError):
        simplex.solve(lamp / np.abs(lamp).max(), cons.a, cons.b)


def test_lp_decode_integral_nonzero(single_check):
    out = lp_decode(single_check, np.array([1.0, -3.0, -2.0]))
    assert out.status == "integral"
    assert out.codeword.tolist() == [0, 1, 1]


def test_quantization_level_invariance(g34_small):
    for t in range(50):
        lam = awgn_llr(g34_small, sigma=0.9, seed=21, trial=t)
        a = lp_decode(g34_small, apply_map(MapSpec.quantize2(1.0), lam))
        b = lp_decode(g34_small, apply_map(MapSpec.quantize2(10.0), lam))
        assert a.status == b.status
        if a.status == "integral":
            assert (a.codeword == b.codeword).all()
        else:
            assert np.allclose(a.vertex, b.vertex, atol=1e-9)


def test_positive_scaling_keeps_argmax(g34_small):
    for t in range(15):
        lam = awgn_llr(g34_small, sigma=0.7, seed=22, trial=t)
        a = lp_decode(g34_small, lam)
        b = lp_decode(g34_small, 3.7 * lam)
        assert a.status == b.status
        assert np.allclose(a.vertex, b.vertex, atol=1e-7)


def test_relaxation_dominance_and_vertex_feasibility(g34_small):
    for t in range(25):
        lam = awgn_llr(g34_small, sigma=1.0, seed=23, trial=t)
        out = lp_decode(g34_small, lam)
        _, ml_value = ml_decode(g34_small, lam)
        assert out.objective >= ml_value - 1e-9
        assert membership(g34_small, out.vertex)
        if out.status == "integral":
            assert out.objective == pytest.approx(ml_value, abs=1e-9)


def test_fractional_outcomes_occur(g34_small):
    statuses = set()
    for t in range(40):
        lam = awgn_llr(g34_small, sigma=1.3, seed=24, trial=t)
        statuses.add(lp_decode(g34_small, lam).status)
    assert "fractional" in statuses
    assert "integral" in statuses


def test_lp_decode_validates_input(single_check):
    with pytest.raises(ValueError):
        lp_decode(single_check, np.ones(4))
    with pytest.raises(ValueError):
        lp_decode(single_check, np.array([1.0, np.inf, 0.0]))


def _random_polytope_graph(rng):
    n = int(rng.integers(3, 13))
    m = int(rng.integers(1, 4))
    rows = []
    for _ in range(m):
        deg = int(rng.integers(3, min(6, n) + 1))
        rows.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
    return TannerGraph(n, rows)


def test_lp_optimum_matches_qhull_vertices():
    rng = np.random.default_rng(77)
    for _ in range(8):
        g = _random_polytope_graph(rng)
        cons = build_constraints(g)
        c = rng.normal(size=g.n)
        value = -simplex.solve(-c, cons.a, cons.b).value
        want = best_vertex_value(vertices_by_qhull(cons), c, "max")
        assert value == pytest.approx(want, abs=1e-9)


def test_qhull_oracle_agrees_with_basis_enumeration(single_check):
    # validate the oracle itself at tiny sizes
    for g in (single_check, TannerGraph(4, [[0, 1, 2, 3]]), TannerGraph(5, [[0, 1, 2], [2, 3, 4]])):
        cons = build_constraints(g)
        via_qhull = {tuple(np.round(v, 7)) for v in vertices_by_qhull(cons)}
        via_bases = {tuple(np.round(v, 7)) for v in vertices_by_bases(cons)}
        assert via_qhull == via_bases


def test_nullspace_basis_is_valid():
    g = generate_regular(16, 3, 4, seed=6)
    h = g.parity_check_matrix()
    basis = nullspace_basis(h)
    assert basis.shape[0] == 16 - rank(h)
    assert not ((h.astype(int) @ basis.T.astype(int)) % 2).any()
    assert rank(basis) == basis.shape[0]
