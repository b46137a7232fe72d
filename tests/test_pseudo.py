import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpldpc import (
    PseudoCodeword,
    TannerGraph,
    awgnc_pseudoweight,
    beats_zero,
    bfs_tiers,
    canonical_completion,
    canonical_profile,
    generate_regular,
    lp_decode,
    max_scaling_alpha,
    membership,
    parse_alist,
    pseudoweight_bound,
    single_pcw_error_prob,
    wer_lower_bound,
)

from lpldpc import lpdec

from conftest import awgn_llr, irregular_graphs
from oracles import alpha_by_bisection, alpha_by_check_loop, membership_by_rows, q_tail

WER_AT_T4 = 0.020246612442445522  # (1 - 1/4)(8 pi)^(-1/2) e^(-2), frozen


def test_profile_tier_values():
    g = generate_regular(10, 3, 5, seed=8)
    tiers = bfs_tiers(g, 0)
    prof = canonical_profile(g, tiers)
    assert prof[0] == 1.0
    levels = {prof[i] for i in range(10)}
    assert levels <= {1.0, 0.25, 0.0625, 0.015625}
    # non-increasing along tiers, all positive
    assert (prof > 0).all()
    order = np.argsort(tiers.var_tier)
    assert (np.diff(prof[order]) <= 0).all()


def test_profile_requires_regular_graph():
    irregular = parse_alist("""\
4 2
2 3
1 2 1 1
3 2
1 0
1 2
2 0
1 0
1 2 4
2 3 0
""")
    with pytest.raises(ValueError, match="regular"):
        canonical_profile(irregular, None)


def test_profile_requires_dc_at_least_three(path_graph):
    tiers = bfs_tiers(path_graph, 0)
    with pytest.raises(ValueError, match="degree"):
        canonical_profile(path_graph, tiers)


def test_alpha_single_check(single_check):
    tiers = bfs_tiers(single_check, 0)
    prof = canonical_profile(single_check, tiers)
    assert prof.tolist() == [1.0, 0.5, 0.5]
    assert max_scaling_alpha(single_check, prof) == pytest.approx(1.0, abs=1e-12)


def test_alpha_matches_bisection_oracle():
    for seed, (n, dv, dc) in [(1, (16, 3, 4)), (2, (20, 3, 5)), (5, (12, 3, 4))]:
        g = generate_regular(n, dv, dc, seed=seed)
        prof = canonical_profile(g, bfs_tiers(g, 1))
        alpha = max_scaling_alpha(g, prof)
        oracle = alpha_by_bisection(membership_by_rows, g, prof)
        assert alpha == pytest.approx(oracle, abs=1e-9)
        assert membership(g, alpha * prof)
        assert not membership(g, (alpha + 1e-5) * prof)


def _alpha_or_error(fn, g, prof):
    try:
        return fn(g, prof)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dc=st.integers(3, 20), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       tiers=st.booleans(), scale=st.sampled_from([1.0, 1e-9]),
       violate=st.booleans())
@example(dc=5, m=2, seed=0, tiers=False, scale=1e-9, violate=True)
def test_alpha_equals_check_loop_at_high_degree(dc, m, seed, tiers, scale, violate):
    # numpy sums more than 8 entries pairwise, so check degrees up to 20 pin
    # that the vectorized sums round exactly like the per-check ones
    rng = np.random.default_rng(seed)
    n = dc + 3
    g = TannerGraph(n, [sorted(rng.choice(n, size=dc, replace=False).tolist())
                        for _ in range(m)])
    if tiers:  # tier-decay values (d_c - 1)^(-t): many exact ties
        prof = (1.0 / (dc - 1)) ** rng.integers(0, 3, size=n)
    else:
        # max <= sum of the rest at every check, so only the scale moves
        # the gaps
        prof = scale * rng.uniform(0.5, 1.0, size=n)
    if violate:
        # one entry just above the sum of the rest at check 0: the size-1
        # row fails by a gap that the 1e-9 scale puts under any absolute
        # cut-off, and it must still raise the named error
        nbrs = g.check_nbrs[0]
        prof[nbrs[0]] = 1.001 * prof[list(nbrs[1:])].sum()
        with pytest.raises(ValueError, match="check 0: size-1"):
            max_scaling_alpha(g, prof)
    got = _alpha_or_error(max_scaling_alpha, g, prof)
    assert got == _alpha_or_error(alpha_by_check_loop, g, prof)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_alpha_equals_check_loop_on_irregular_graphs(data):
    # degree-0, -1 and -2 checks, ties and zeros; an error must name the
    # same (lowest) failing check as the loop
    g = data.draw(irregular_graphs(max_degree=20))
    n = g.n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["uniform", "high", "tiers"]))
    if kind == "uniform":
        prof = rng.random(n)
    elif kind == "high":  # max <= sum of the rest at every check of degree >= 3
        prof = rng.uniform(0.5, 1.0, size=n)
    else:
        prof = 3.0 ** -rng.integers(0, 4, size=n).astype(float)
    prof[rng.random(n) < 0.1] = 0.0
    if not prof.any():
        prof[0] = 1.0
    got = _alpha_or_error(max_scaling_alpha, g, prof)
    assert got == _alpha_or_error(alpha_by_check_loop, g, prof)
    if isinstance(got, float):
        assert membership_by_rows(g, got * prof)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_alpha_recheck_is_membership_of_the_scaled_profile(data):
    # max_scaling_alpha re-checks s * profile on s times the profile's own
    # sorted rows; at alpha and just above it, on the graphs and profiles of
    # test_alpha_equals_check_loop_on_irregular_graphs, that verdict must be
    # membership's and the row-by-row oracle's
    g = data.draw(irregular_graphs(max_degree=20))
    n = g.n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["uniform", "high", "tiers"]))
    if kind == "uniform":
        prof = rng.random(n)
    elif kind == "high":
        prof = rng.uniform(0.5, 1.0, size=n)
    else:
        prof = 3.0 ** -rng.integers(0, 4, size=n).astype(float)
    prof[rng.random(n) < 0.1] = 0.0
    if not prof.any():
        prof[0] = 1.0
    try:
        alpha = max_scaling_alpha(g, prof)
    except ValueError:
        return  # a size-1 row fails for the profile itself
    groups = list(lpdec._odd_subset_rows(g, prof))
    verdicts = []
    for s in (alpha, np.nextafter(alpha, np.inf), alpha * (1 + 1e-6)):
        w = s * prof
        recheck = lpdec._within_polytope(w, ((checks, s * rows) for checks, rows in groups))
        assert recheck == membership(g, w) == membership_by_rows(g, w)
        verdicts.append(recheck)
    assert verdicts == [True, True, False]


def test_alpha_homogeneity(g34_small):
    prof = canonical_profile(g34_small, bfs_tiers(g34_small, 0))
    alpha = max_scaling_alpha(g34_small, prof)
    assert max_scaling_alpha(g34_small, 4.0 * prof) == pytest.approx(alpha / 4.0, rel=1e-12)


def test_alpha_rejects_singleton_violation(single_check):
    with pytest.raises(ValueError, match="size-1"):
        max_scaling_alpha(single_check, np.array([1.0, 0.0, 0.0]))


def test_alpha_box_only_when_no_odd_set_binds():
    from lpldpc import TannerGraph

    # top-3 gap is 1.4, ratio 2/1.4 > 1, so only the box row binds
    g = TannerGraph(4, [[0, 1, 2, 3]])
    assert max_scaling_alpha(g, np.array([1.0, 0.4, 0.4, 0.4])) == pytest.approx(1.0)


def test_pseudoweight_identities():
    v = np.zeros(9)
    v[[1, 3, 4, 7]] = 1.0
    assert awgnc_pseudoweight(v) == 4.0
    assert awgnc_pseudoweight(np.array([1.0, 0.5, 0.5])) == pytest.approx(8.0 / 3.0, rel=1e-15)
    rng = np.random.default_rng(3)
    w = rng.random(12)
    for c in (0.1, 7.3):
        assert awgnc_pseudoweight(c * w) == pytest.approx(awgnc_pseudoweight(w), rel=1e-12)
    with pytest.raises(ValueError):
        awgnc_pseudoweight(np.zeros(4))


def test_pseudoweight_accepts_pcw_objects():
    pcw = PseudoCodeword(np.array([1.0, 0.5, 0.5]))
    assert awgnc_pseudoweight(pcw) == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_pcw_validates_range():
    with pytest.raises(ValueError):
        PseudoCodeword(np.array([1.2, 0.0]))
    with pytest.raises(ValueError):
        PseudoCodeword(np.array([np.nan]))
    for bad in ([np.inf], [-np.inf], [0.5, np.nan], [0.0, -1e-8]):
        with pytest.raises(ValueError, match="^pseudo-codeword entries must be finite and lie"):
            PseudoCodeword(np.array(bad))
    assert PseudoCodeword(np.array([])).omega.size == 0
    assert PseudoCodeword([0.0, 1.0 + 1e-10]).omega.dtype == float


def test_bound_values():
    b = pseudoweight_bound(3, 5, 10 ** 6)
    assert b.beta == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert b.beta_prime == 36.0
    assert b.bound == pytest.approx(3.6e5, rel=1e-12)
    for dv in range(3, 7):
        for dc in range(dv + 1, 9):
            assert pseudoweight_bound(dv, dc, 100).beta < 1.0
    for bad in [(2, 5), (4, 4), (5, 3)]:
        with pytest.raises(ValueError):
            pseudoweight_bound(*bad, 10)


def test_completion_satisfies_bound():
    for seed, (n, dv, dc) in [(0, (16, 3, 4)), (1, (20, 3, 5)), (2, (24, 3, 6))]:
        g = generate_regular(n, dv, dc, seed=seed)
        pcw, alpha = canonical_completion(g, 2)
        assert 0 < alpha <= 1.0
        assert membership(g, pcw.omega)
        assert awgnc_pseudoweight(pcw) <= pseudoweight_bound(dv, dc, n).bound


def test_beats_zero_examples(single_check):
    w = PseudoCodeword(np.array([1.0, 1.0, 0.0]))
    assert not beats_zero(w, np.ones(3))
    assert beats_zero(w, np.array([-1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        beats_zero(w, np.ones(4))


def test_beats_zero_blocks_zero_codeword(g34_small):
    pcw, _ = canonical_completion(g34_small, 0)
    hits = 0
    for t in range(60):
        lam = awgn_llr(g34_small, sigma=1.5, seed=31, trial=t)
        if beats_zero(pcw, lam):
            hits += 1
            out = lp_decode(g34_small, lam)
            assert not out.is_zero_codeword()
    assert hits > 0


def test_single_pcw_error_prob_values():
    w = PseudoCodeword(np.array([1.0, 1.0, 1.0, 1.0]))  # pseudo-weight 4
    assert single_pcw_error_prob(w, 1.0) == pytest.approx(q_tail(2.0), rel=1e-12)
    assert single_pcw_error_prob(w, 1e-3) < 1e-100
    with pytest.raises(ValueError):
        single_pcw_error_prob(w, 0.0)


def test_single_pcw_error_prob_matches_monte_carlo():
    # the hyperplane-crossing law at 1e5 trials, three (graph, sigma) settings
    settings = [
        (generate_regular(16, 3, 4, seed=2), 2.2, 41),
        (generate_regular(16, 3, 4, seed=2), 1.6, 42),
        (generate_regular(20, 3, 5, seed=3), 2.0, 43),
    ]
    for g, sigma, seed in settings:
        pcw, _ = canonical_completion(g, 0)
        p = single_pcw_error_prob(pcw, sigma)
        assert 1e-3 < p < 0.5
        hits = 0
        for t in range(100_000):
            hits += beats_zero(pcw, awgn_llr(g, sigma, seed, t))
        se = math.sqrt(p * (1 - p) / 100_000)
        assert abs(hits / 100_000 - p) < 3 * se


def test_wer_lower_bound_value():
    # K' n^beta = 4 with K' = 4, beta = 1/2, n = 1
    assert wer_lower_bound(4.0, 0.5, 1) == pytest.approx(WER_AT_T4, rel=1e-12)


def test_wer_lower_bound_monotone_in_n():
    values = [wer_lower_bound(1.0, 0.5, n) for n in (4, 16, 64, 256, 1024)]
    assert values == sorted(values, reverse=True)
    assert values[-1] > 0.0


def test_wer_lower_bound_validation():
    with pytest.raises(ValueError):
        wer_lower_bound(0.0, 0.5, 10)
    with pytest.raises(ValueError):
        wer_lower_bound(1.0, 1.5, 10)
