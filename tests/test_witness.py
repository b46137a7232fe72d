import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpldpc import (
    MapSpec,
    ProofParams,
    TannerGraph,
    boundary_set,
    chernoff_sigma_budget,
    check_expansion,
    check_feasible,
    derive_params,
    find_delta_matching,
    generate_regular,
    high_noise_prob,
    high_noise_set,
    lp_decode,
    ml_decode,
    qfunc,
    stopping_core,
    weights_from_matching,
    witness_search,
)
from lpldpc import ChannelParams, normalized_llr, transmit_awgn
from lpldpc.witness import DEAD_BAND, ParameterError, _verify_matching

from conftest import awgn_llr, irregular_graphs, recorded_solves
from oracles import (
    check_feasible_by_dicts,
    delta_matching_by_max_flow,
    dense_solve,
    find_delta_matching_one_check_per_bfs,
    lift_core_witness,
    pairwise_witness_lp_by_loops,
    q_tail,
    stopping_core_by_queue,
    var_regular_graph,
    witness_lp_by_loops,
)

THRESHOLD1 = MapSpec.threshold(1.0)


def tiny_params(d_v, delta_dv, w=1.0):
    """Hand-built ProofParams for matching unit tests at toy degrees.

    Bypasses derive_params (which legitimately requires d_v > 4(4w+2)); only
    the fields used by the matching and weight routines are meaningful.
    """
    delta = delta_dv / d_v
    return ProofParams(
        w=w, d_v=d_v, delta_hat=delta, delta=delta, delta_prime=2 * delta - 1,
        gamma=0.5, kappa_lo=0.0, kappa_hi=1.0, alpha_exp=None,
    )


def _by_edge(g, tau):
    """Edge weights keyed by (variable, check)."""
    return dict(zip(g.edges(), tau.tolist()))


def _mask(g, variables):
    """Boolean mask over the variables of ``g``."""
    mask = np.zeros(g.n, dtype=bool)
    mask[list(variables)] = True
    return mask


def _matched(owner):
    """The matching ``owner`` holds, as (variable, check) edges."""
    return {(int(owner[j]), int(j)) for j in np.flatnonzero(owner >= 0)}


def test_derive_params_requires_dv_above_floor():
    with pytest.raises(ParameterError, match="4"):
        derive_params(1.0, 24)
    derive_params(1.0, 25)  # smallest admissible integer for W = 1
    with pytest.raises(ParameterError):
        derive_params(0.5, 100)


def test_derive_params_example_values():
    p = derive_params(1.0, 25, delta_hat=0.93)
    assert p.delta == pytest.approx(23 / 25, rel=1e-15)
    assert p.delta_dv == 23
    assert p.delta_prime == pytest.approx(0.84, rel=1e-12)
    assert p.gamma == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert p.kappa_lo == pytest.approx(1.0 / 21.0, rel=1e-12)
    assert p.kappa_hi == pytest.approx(0.125, rel=1e-12)
    assert p.kappa == 0.5 * (p.kappa_lo + p.kappa_hi)
    assert derive_params(1.0, 25, delta_hat=0.93, kappa=0.1).kappa == 0.1


def test_derive_params_rejects_a_fractional_d_v():
    # a fraction is an error, not d_v = 25
    with pytest.raises(TypeError):
        derive_params(1.0, 25.9)
    assert derive_params(1.0, np.int64(25)) == derive_params(1.0, 25)


def test_derive_params_invariants_hold():
    for w, d_v in [(1.0, 25), (1.0, 40), (1.5, 33), (2.0, 41)]:
        p = derive_params(w, d_v)
        assert d_v > 4 * (4 * w + 2)
        assert 1 - 1 / d_v > p.delta_hat > 1 - 0.75 / (4 * w + 2)
        assert p.delta_hat - p.delta <= 1 / d_v + 1e-12
        assert p.delta > 1 - 1 / (4 * w + 2)
        assert 0 < p.gamma < 1
        assert p.kappa_lo < p.kappa_hi
        assert p.delta_dv == round(p.delta * d_v)
        assert (2 * p.delta - 1) / (4 * (1 - p.delta)) > w


def test_derive_params_delta_hat_interval():
    with pytest.raises(ParameterError, match="interval"):
        derive_params(1.0, 25, delta_hat=0.97)
    with pytest.raises(ParameterError, match="interval"):
        derive_params(1.0, 25, delta_hat=0.875)
    with pytest.raises(ParameterError, match="alpha_exp"):
        derive_params(1.0, 25, alpha_exp=1.5)


def test_high_noise_set_examples():
    assert high_noise_set(np.ones(4)).tolist() == [False] * 4
    assert high_noise_set(np.array([0.49, 0.5, -2.0])).tolist() == [True, False, True]


def test_high_noise_set_frequency_matches_prob():
    sigma = 0.45
    params = ChannelParams(sigma * sigma)
    p = high_noise_prob(params, THRESHOLD1)
    count = 0
    trials, n = 800, 500
    for t in range(trials):
        lam = THRESHOLD1.apply(normalized_llr(transmit_awgn(np.ones(n), params, 51, t), params))
        count += np.count_nonzero(high_noise_set(lam))
    se = math.sqrt(p * (1 - p) / (trials * n))
    assert abs(count / (trials * n) - p) < 3 * se


def test_boundary_set_empty_when_u_empty(g34_small):
    params = tiny_params(3, 2)
    assert not boundary_set(g34_small, np.zeros(g34_small.n, dtype=bool), params).any()


def test_boundary_set_hand_graph():
    # six variables, checks chosen so exactly one variable straddles N(U)
    g = TannerGraph(6, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [3, 4, 5], [1, 4, 5], [2, 4, 5]])
    params = tiny_params(3, 3)  # delta = 1, delta' = 1: threshold (1-delta')dv = 0
    u = {0}
    # independent set-intersection oracle
    var_nbrs = g.var_nbrs
    nu = {j for i in u for j in var_nbrs[i]}
    expect = {
        i for i in range(6)
        if i not in u and sum(1 for j in var_nbrs[i] if j in nu) > 0
    }
    assert set(np.flatnonzero(boundary_set(g, _mask(g, u), params)).tolist()) == expect


def test_boundary_full_overlap_is_member():
    # v1 shares all its checks with N({v0})
    g = TannerGraph(3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    params = tiny_params(3, 3)
    assert boundary_set(g, _mask(g, {0}), params)[1]


def test_expansion_singletons_pass():
    g = generate_regular(16, 3, 4, seed=1)
    verdict = check_expansion(g, beta_exp=3.0, s_max=1)
    assert verdict.ok
    assert verdict.subsets_checked == 16


def test_expansion_finds_duplicate_neighborhood_pair():
    g = TannerGraph(4, [[0, 1], [0, 1], [0, 1], [2, 3], [2, 3], [2, 3]])
    verdict = check_expansion(g, beta_exp=3.0, s_max=2)
    assert not verdict.ok
    assert verdict.violating == (0, 1)
    assert verdict.neighbor_count == 3
    assert verdict.required == 6.0


def test_expansion_verdict_invariant_under_relabeling():
    g = generate_regular(12, 3, 4, seed=4)
    perm = np.random.default_rng(0).permutation(12)
    relabeled = TannerGraph(12, [sorted(int(perm[i]) for i in row) for row in g.check_nbrs])
    a = check_expansion(g, beta_exp=2.5, s_max=3)
    b = check_expansion(relabeled, beta_exp=2.5, s_max=3)
    assert a.ok == b.ok


def test_expansion_rejects_a_fractional_s_max():
    # a float is an error, even an integral one
    g = generate_regular(12, 3, 4, seed=4)
    with pytest.raises(TypeError):
        check_expansion(g, beta_exp=2.5, s_max=2.0)


def test_expansion_rejects_a_nan_beta():
    # count + 1e-12 < nan is always False: every subset would pass
    g = generate_regular(24, 3, 4, seed=3)
    with pytest.raises(ValueError, match="beta_exp"):
        check_expansion(g, beta_exp=math.nan, s_max=2)
    assert not check_expansion(g, beta_exp=math.inf, s_max=2).ok


def test_expansion_budget_enforced():
    g = generate_regular(40, 3, 4, seed=2)
    with pytest.raises(ValueError, match="budget"):
        check_expansion(g, beta_exp=2.0, s_max=20)


def test_empty_matching():
    g = generate_regular(12, 3, 4, seed=3)
    none = np.zeros(g.n, dtype=bool)
    owner = find_delta_matching(g, none, none, tiny_params(3, 2))
    assert owner is not None and owner.tolist() == [-1] * g.m


def test_matching_single_variable_private_checks():
    # one variable with 3 private checks, delta*dv = 2 -> two matched edges
    g = TannerGraph(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    params = tiny_params(3, 2)
    owner = find_delta_matching(g, _mask(g, {0}), _mask(g, ()), params)
    assert owner is not None
    assert owner.dtype == np.int64 and owner.shape == (g.m,)
    assert len(_matched(owner)) == 2
    assert all(i == 0 for i, _ in _matched(owner))


def test_matching_absent_when_checks_scarce():
    # two high-noise variables needing 2 private checks each, but only 3 checks
    g = TannerGraph(3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    params = tiny_params(3, 2)
    assert find_delta_matching(g, _mask(g, {0, 1}), _mask(g, ()), params) is None


def test_matching_exists_on_verified_expanders():
    # Proof-scale degrees: whenever the expansion is verified at sizes up to
    # s_max and |U| + |boundary| <= s_max, a matching must exist.
    params = derive_params(1.0, 25)
    s_max = 2
    qualifying = 0
    for seed in range(15):
        g = var_regular_graph(30, 25, 375, seed=seed)
        if not check_expansion(g, beta_exp=params.delta_dv, s_max=s_max).ok:
            continue
        for u in ({3}, {14}, {7, 19}, {2, 11}):
            u = _mask(g, u)
            udot = boundary_set(g, u, params)
            if np.count_nonzero(u) == 1:
                # pair expansion caps every overlap at (1 - delta') d_v
                assert not udot.any()
            if np.count_nonzero(u | udot) > s_max:
                continue  # outside the proposition's hypotheses
            qualifying += 1
            assert find_delta_matching(g, u, udot, params) is not None
    assert qualifying >= 12


def _assert_matching_matches_oracle(g, u, udot, params):
    owner = find_delta_matching(g, u, udot, params)
    reference = find_delta_matching_one_check_per_bfs(g, u, udot, params)
    assert (owner is None) == (reference is None)
    assert owner is None or np.array_equal(owner, reference)
    u, udot = set(np.flatnonzero(u).tolist()), set(np.flatnonzero(udot).tolist())
    want = delta_matching_by_max_flow(g, u, udot, params)
    assert (owner is None) == (want is None)
    if owner is None:
        return False
    # one owner per check makes the matching check-disjoint
    got = _matched(owner)
    assert got <= set(g.edges())
    need = {i: max(params.delta_dv, 0) for i in u}
    need.update({i: max(params.delta_prime_dv, 0) for i in udot})
    assert Counter(i for i, _ in got) == Counter({i: k for i, k in need.items() if k})
    assert Counter(i for i, _ in got) == Counter(i for i, _ in want)
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_matching_matches_max_flow_oracle_on_irregular_graphs(data):
    # degree-0 and -1 checks, variables without checks, negative delta'
    g = data.draw(irregular_graphs(max_degree=6))
    d_v = data.draw(st.integers(1, 4))
    params = tiny_params(d_v, data.draw(st.integers(1, d_v)))
    nodes = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    cut = data.draw(st.integers(0, len(nodes)))
    _assert_matching_matches_oracle(g, _mask(g, nodes[:cut]), _mask(g, nodes[cut:]), params)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_matching_matches_max_flow_oracle_on_var_regular_graphs(data):
    # boundary sets from boundary_set, at toy and at proof-scale degrees
    seed = data.draw(st.integers(0, 2**32 - 1))
    if data.draw(st.booleans()):
        g, params = var_regular_graph(18, 25, 200, seed), derive_params(1.0, 25)
    else:
        d_v = data.draw(st.integers(2, 6))
        g = var_regular_graph(data.draw(st.integers(2, 14)), d_v,
                              d_v + data.draw(st.integers(0, 12)), seed)
        params = tiny_params(d_v, data.draw(st.integers((d_v + 1) // 2, d_v)))
    u = _mask(g, data.draw(st.lists(st.integers(0, g.n - 1), max_size=6)))
    udot = boundary_set(g, u, params)
    var_nbrs = g.var_nbrs
    nu = {j for i in np.flatnonzero(u).tolist() for j in var_nbrs[i]}
    assert set(np.flatnonzero(udot).tolist()) == {
        i for i in range(g.n) if not u[i]
        and len(nu.intersection(var_nbrs[i])) > params.d_v - params.delta_prime_dv}
    _assert_matching_matches_oracle(g, u, udot, params)


def _free_checks_meet_needs(g, need):
    """Whether each variable, served in index order, meets its ``need``
    from its own still free checks alone, with no augmenting path."""
    taken = np.zeros(g.m, dtype=bool)
    for i in np.flatnonzero(need).tolist():
        checks = g.var_indices[g.var_indptr[i]:g.var_indptr[i + 1]]
        free = checks[~taken[checks]][:need[i]]
        if free.size < need[i]:
            return False
        taken[free] = True
    return True


def test_matching_equals_one_search_per_check_on_every_kind_of_case():
    # Roots take their own free checks in one pass before any search. Over
    # seeded masks, the owner arrays (None included) equal the reference
    # that runs one breadth-first search per check, and the max-flow verdict
    # agrees; the cases include matchings that need augmenting paths.
    rng = np.random.default_rng(17)
    kinds = Counter()
    for case in range(240):
        if case % 4 == 0:
            g, params = var_regular_graph(18, 25, 200, seed=case), derive_params(1.0, 25)
            u = rng.random(g.n) < rng.uniform(0.05, 0.25)
        else:  # about as many checks needed as there are: paths get long
            d_v, n = int(rng.integers(2, 5)), int(rng.integers(4, 16))
            k = int(rng.integers(1, d_v))
            g = var_regular_graph(n, d_v, max(d_v, int(n * k * rng.uniform(0.8, 1.6))), seed=case)
            params = tiny_params(d_v, k)
            u = rng.random(g.n) < rng.uniform(0.5, 1.0)
        udot = boundary_set(g, u, params)
        need = u * max(params.delta_dv, 0) + udot * max(params.delta_prime_dv, 0)
        if _assert_matching_matches_oracle(g, u, udot, params):
            kinds["free checks" if _free_checks_meet_needs(g, need) else "augmented"] += 1
        else:
            kinds["more needed than checks" if need.sum() > g.m else "no matching"] += 1
    assert min(kinds[k] for k in ("free checks", "augmented", "no matching")) >= 25, kinds


def test_verify_matching_rejects_invalid_edge_sets():
    # v0 at checks 0 and 2, v1 at 0 and 1, v2 at 1 and 2, v3 at none: the
    # edge keys var * 3 + check are 0, 2, 3, 4, 7, 8. The owner of check j
    # is the variable matched to it, -1 when it is free.
    g = TannerGraph(4, [[0, 1], [1, 2], [0, 2]])
    need = np.array([1, 1, 0, 0])  # v0 and v1 need one check each
    assert _verify_matching(g, np.array([0, 1, -1]), need)
    assert _verify_matching(g, np.array([-1, -1, -1]), np.zeros(4, dtype=int))
    for owner in ([1, 0, -1],  # key 1 falls between two edges
                  [0, -1, 1],  # key 5 likewise
                  [0, 1, 3],  # key 11 lies past the last edge
                  [0, 1, 4], [0, 1, -2],  # variable range
                  [0, 1, -1, 2], [0, 1],  # check range: a fourth check, no third
                  [0.0, 1.0, -1.0],  # not variable indices
                  [0, -1, -1]):  # v1 gets no check
        assert not _verify_matching(g, np.array(owner), need), owner
    empty = TannerGraph(2, [[]])
    assert _verify_matching(empty, np.array([-1]), np.zeros(2, dtype=int))
    assert not _verify_matching(empty, np.array([0]), np.zeros(2, dtype=int))


def test_matching_augments_along_a_long_chain():
    # v_k holds checks k and k + 1 (k < K), v_K only check 0. Taken in order,
    # v_k takes check k, so v_K's unit shifts every v_k to check k + 1: one
    # augmenting path through K + 1 checks, beyond the recursion limit.
    k = 1600
    g = TannerGraph(k + 1, [[0, k]] + [[j - 1, j] for j in range(1, k)] + [[k - 1]])
    owner = find_delta_matching(g, _mask(g, range(k + 1)), _mask(g, ()), tiny_params(2, 1))
    assert owner is not None
    assert owner.tolist() == [k] + list(range(k))  # v_K at check 0, v_k at check k + 1


def test_weights_from_empty_matching(g34_small):
    params = tiny_params(3, 2)
    none = np.zeros(g34_small.n, dtype=bool)
    owner = find_delta_matching(g34_small, none, none, params)
    tau = weights_from_matching(g34_small, owner, none, params)
    assert tau.shape == (len(g34_small.edges()),)
    assert (tau == 0.0).all()


def test_weights_single_matched_check():
    g = TannerGraph(4, [[0, 1, 2, 3], [0, 1, 2, 3][:2]])
    params = dataclasses.replace(tiny_params(2, 1), kappa=0.25)
    u = _mask(g, {0})
    owner = find_delta_matching(g, u, _mask(g, ()), params)
    assert owner is not None
    (i, j), = _matched(owner)
    tau = _by_edge(g, weights_from_matching(g, owner, u, params))
    assert tau[(i, j)] == -0.25
    others = [tau[(i2, j)] for i2 in g.check_nbrs[j] if i2 != i]
    assert all(v == 0.25 for v in others)


def test_weights_kappa_interval_enforced():
    # the weights read kappa from ProofParams, which holds it strictly
    # inside its interval
    params = derive_params(1.0, 25)
    for kappa in (params.kappa_lo, params.kappa_hi, math.nan):
        with pytest.raises(ValueError, match=r"kappa must lie strictly inside \("):
            derive_params(1.0, 25, kappa=kappa)
        with pytest.raises(ValueError, match=r"kappa must lie strictly inside \("):
            dataclasses.replace(params, kappa=kappa)


def test_weights_reject_invalid_owner(g34_small):
    # an owner below -1 would otherwise index from the end of the mask
    params = tiny_params(3, 2)
    free, none = np.full(g34_small.m, -1), np.zeros(g34_small.n, dtype=bool)
    assert not weights_from_matching(g34_small, free, none, params).any()
    for value in (-2, g34_small.n):
        owner = free.copy()
        owner[0] = value
        with pytest.raises(ValueError, match="owner"):
            weights_from_matching(g34_small, owner, none, params)
    for owner in (free[1:], np.append(free, -1), free.astype(float)):
        with pytest.raises(ValueError, match="owner"):
            weights_from_matching(g34_small, owner, none, params)


def test_weights_reject_an_owner_not_at_its_check():
    # variable 0 is not at check 0: taken as its owner, check 0 would put
    # +kappa on every edge and -kappa on none
    g = var_regular_graph(18, 25, 200, seed=3)
    params = derive_params(1.0, 25)
    assert 0 not in g.check_nbrs[0]
    owner = np.full(g.m, -1)
    owner[0] = 0
    with pytest.raises(ValueError, match="owner"):
        weights_from_matching(g, owner, _mask(g, {0}), params)
    (i,) = g.check_nbrs[0]  # the one variable at check 0
    owner[0] = i
    tau = weights_from_matching(g, owner, _mask(g, {i}), params)
    assert _by_edge(g, tau)[(i, 0)] == -params.kappa and np.count_nonzero(tau) == 1


def test_masks_must_be_boolean_and_length_n(g34_small):
    params = tiny_params(3, 2)
    none = np.zeros(g34_small.n, dtype=bool)
    for bad in (none[1:], np.append(none, False), none.astype(int), frozenset({0})):
        with pytest.raises(ValueError, match="boolean mask"):
            boundary_set(g34_small, bad, params)
        with pytest.raises(ValueError, match="boolean mask"):
            find_delta_matching(g34_small, bad, none, params)
        with pytest.raises(ValueError, match="boolean mask"):
            find_delta_matching(g34_small, none, bad, params)
        with pytest.raises(ValueError, match="boolean mask"):
            weights_from_matching(g34_small, np.full(g34_small.m, -1), bad, params)


def test_weights_always_satisfy_pairwise(g34_small):
    # at most one -kappa edge per matched check, everything else >= 0
    params = tiny_params(3, 2)
    u = _mask(g34_small, {0, 5})
    udot = boundary_set(g34_small, u, params)
    owner = find_delta_matching(g34_small, u, udot, params)
    if owner is None:
        pytest.skip("no matching on this fixture")
    tau = _by_edge(g34_small, weights_from_matching(g34_small, owner, u, params))
    for j, nbrs in enumerate(g34_small.check_nbrs):
        vals = sorted(tau[(i, j)] for i in nbrs)
        assert vals[0] + vals[1] >= 0.0


def test_check_feasible_zero_weights(g34_small):
    none = np.zeros(g34_small.n, dtype=bool)
    zero = weights_from_matching(
        g34_small, find_delta_matching(g34_small, none, none, tiny_params(3, 2)),
        none, tiny_params(3, 2),
    )
    verdict = check_feasible(g34_small, zero, np.ones(g34_small.n))
    assert verdict.ok and verdict.margin == pytest.approx(1.0)
    lam = np.ones(g34_small.n)
    lam[4] = 0.0
    verdict = check_feasible(g34_small, zero, lam)
    assert not verdict.ok and verdict.margin == 0.0


def test_check_feasible_requires_full_edge_cover(g34_small):
    with pytest.raises(ValueError, match="edge set"):
        check_feasible(g34_small, np.zeros(1), np.ones(g34_small.n))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_feasible_rejects_a_non_finite_weight(g34_small, bad):
    # a NaN weight passed every pairwise test, and +inf gave margin -inf
    tau = np.zeros(g34_small.num_edges)
    tau[0] = bad
    with pytest.raises(ValueError, match="finite"):
        check_feasible(g34_small, tau, np.ones(g34_small.n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_check_feasible_matches_dict_oracle(data):
    g = data.draw(irregular_graphs(max_degree=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["grid", "normal", "matching"]))
    tau = rng.normal(size=g.num_edges)
    if kind == "grid":  # ties, zero pair sums and sums at the tolerance
        tau = rng.integers(-2, 3, size=g.num_edges) / 4.0
    elif kind == "matching":
        params = tiny_params(2, 1)
        u = rng.random(g.n) < 0.4
        owner = find_delta_matching(g, u, np.zeros(g.n, dtype=bool), params)
        if owner is not None:
            tau = weights_from_matching(g, owner, u, params)
    lamp = rng.integers(-1, 4, size=g.n) / 2.0
    got = check_feasible(g, tau, lamp)
    want = check_feasible_by_dicts(g, dict(zip(g.edges(), tau.tolist())), lamp)
    assert (got.ok, got.margin, got.pairwise_ok, got.bad_check) == want


def test_constructive_weights_feasible_and_decode_succeeds():
    # executable form of the final construction: matching + midpoint kappa,
    # the default of derive_params
    # implies a feasible assignment and an all-zeros LP decode
    params = derive_params(1.0, 25)
    ch = ChannelParams(0.33 ** 2)
    done = 0
    for seed in (0, 1):
        g = var_regular_graph(14, 25, 170, seed=100 + seed)
        for t in range(20):
            lam = THRESHOLD1.apply(normalized_llr(
                transmit_awgn(np.ones(g.n), ch, 61 + seed, t), ch))
            u = high_noise_set(lam)
            udot = boundary_set(g, u, params)
            m = find_delta_matching(g, u, udot, params)
            if m is None:
                continue
            w = weights_from_matching(g, m, u, params)
            verdict = check_feasible(g, w, lam)
            assert verdict.ok, f"margin {verdict.margin}"
            assert lp_decode(g, lam).is_zero_codeword()
            done += 1
    assert done >= 15


def test_witness_search_all_plus_one(single_check):
    assert witness_search(single_check, np.ones(3)) == pytest.approx(1.0, abs=1e-9)


def test_witness_search_all_minus_one(single_check):
    s = witness_search(single_check, -np.ones(3))
    assert s <= -1.0 + 1e-9


def test_witness_sign_matches_decoder(g34_small):
    checked = 0
    for t in range(40):
        lam = awgn_llr(g34_small, sigma=1.0, seed=71, trial=t)
        s = witness_search(g34_small, lam)
        if abs(s) <= 1e-7:
            continue
        checked += 1
        assert (s > 0) == lp_decode(g34_small, lam).is_zero_codeword()
    assert checked >= 35


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=irregular_graphs(max_degree=8))
def test_stopping_core_matches_queue_peel(g):
    core = stopping_core(g)
    want, order = stopping_core_by_queue(g)
    assert core.dtype == bool and core.shape == (g.n,)
    # cached per graph, an equal one built apart included, and read-only
    assert stopping_core(g) is core and stopping_core(TannerGraph(g.n, g.check_nbrs)) is core
    with pytest.raises(ValueError):
        core[0] = True
    assert np.flatnonzero(core).tolist() == want
    # no check sees the core exactly once, so it is a stopping set ...
    for nbrs in g.check_nbrs:
        assert sum(bool(core[i]) for i in nbrs) != 1
    # ... and the largest one: peeling frees every other variable, each at a
    # check whose other neighbours were all freed before it
    freed = set()
    for i, j in order:
        assert i in g.check_nbrs[j] and set(g.check_nbrs[j]) - {i} <= freed
        freed.add(i)
    assert sorted(freed.union(want)) == list(range(g.n))


@pytest.mark.parametrize("g", [
    generate_regular(12, 3, 4, seed=11),  # full core
    TannerGraph(5, [[3, 1, 4], [0, 2], [4, 0, 1, 2], [2]]),  # unsorted; core {1, 3, 4}
    var_regular_graph(18, 25, 80, seed=3),  # core of 17 variables
    var_regular_graph(18, 25, 200, seed=3),  # the witness-dv25 graph: empty core
])
def test_witness_lp_matches_loop_assembly(monkeypatch, g):
    lamp = np.linspace(-0.5, 1.5, g.n)
    calls = recorded_solves(monkeypatch, lambda: witness_search(g, lamp))
    core, _ = stopping_core_by_queue(g)
    if not core:
        assert calls == []
        return
    ((c, a, b), sol), = calls
    # The reference form of the subgraph the core induces, under the cap of
    # the whole vector: a cap row, then s+ and s- as the last two columns.
    rank = {i: r for r, i in enumerate(core)}
    sub = TannerGraph(len(core), [[rank[i] for i in nbrs if i in rank] for nbrs in g.check_nbrs])
    want_c, want_a, want_b = witness_lp_by_loops(sub, lamp[core])
    want_b[-1] = np.abs(lamp).max()
    # The solved LP drops the cap row and s-, and shifts b by L = min llr_R:
    # |R| rows, |E_R| + 1 columns, and b >= 0 with min 0, so no phase 1.
    # It minimizes -t: the negated cost, with +0.0 zeros.
    rows, cols = len(core), want_a.shape[1] - 1
    low = lamp[core].min()
    assert a.shape == (rows, cols) and a.tobytes() == want_a[:rows, :cols].tobytes()
    assert c.tobytes() == (0.0 - want_c[:cols]).tobytes()
    assert b.tobytes() == (want_b[:rows] - low).tobytes()
    assert b.min() == 0.0
    want = dense_solve(want_c, want_a, want_b, sense="max").value  # b < 0: phase 1
    assert abs(low - sol.value - want) <= 1e-9 * max(1.0, np.abs(lamp).max())
    assert witness_search(g, lamp) == low - sol.value


@pytest.mark.parametrize("lamp", [
    *(awgn_llr(var_regular_graph(18, 25, 200, seed=3), 0.5, seed=7, trial=t, map_spec=THRESHOLD1)
      for t in range(3)),
    -np.linspace(0.1, 2.0, 18),
    np.zeros(18),
])
def test_witness_search_skips_simplex_on_empty_core(monkeypatch, lamp):
    # the witness-dv25 graph: 44 of its 200 checks have degree 1, and
    # peeling frees all 18 variables
    g = var_regular_graph(18, 25, 200, seed=3)
    assert not stopping_core(g).any()
    calls = recorded_solves(monkeypatch, lambda: witness_search(g, lamp))
    s_star = witness_search(g, lamp)
    assert calls == []
    assert type(s_star) is float and s_star == (np.abs(lamp).max() or 1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_witness_search_matches_pairwise_lp(data):
    # degree-0, -1 and -2 checks included; quantize2 LLRs make the LPs
    # highly degenerate
    g = data.draw(irregular_graphs(max_degree=8))
    spec = data.draw(st.sampled_from(["trivial", "threshold:1.0", "quantize2:1"]))
    sigma = data.draw(st.sampled_from([0.3, 0.8, 1.5]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lamp = MapSpec.parse(spec).apply(rng.normal(1.0, sigma, size=g.n))
    with pytest.MonkeyPatch.context() as mp:
        calls = recorded_solves(mp, lambda: witness_search(g, lamp))
    s_star = witness_search(g, lamp)
    want = dense_solve(*pairwise_witness_lp_by_loops(g, lamp), sense="max").value  # b < 0
    assert abs(s_star - want) <= 1e-9 * max(1.0, np.abs(lamp).max())

    # One row per core variable, one column per core edge plus t, a
    # right-hand side >= 0, and no solve for an empty core. tau_ij =
    # M_j - 2 mu_ij from the core vertex, lifted down the peel order, is a
    # witness with margin s*, by the independent constructive checker.
    core, order = stopping_core_by_queue(g)
    core_edges = [(i, j) for i, j in g.edges() if i in core]
    x = np.zeros(len(core_edges))
    if core:
        ((_, a, b), sol), = calls
        assert a.shape == (len(core), len(core_edges) + 1)
        assert b.min() == 0.0
        x = sol.x
    else:
        assert calls == []
    tau = lift_core_witness(g, order, dict(zip(core_edges, x.tolist())), s_star, lamp)
    verdict = check_feasible(g, tau, lamp)
    assert verdict.pairwise_ok
    assert verdict.margin >= s_star - 1e-9


@pytest.mark.parametrize("sigma2", [0.5, 1.0, 2.0])
def test_witness_search_matches_highs_at_high_noise(sigma2):
    # A full core of 60 variables with many negative LLRs, which would be
    # negative right-hand sides without the shift by L. The solved LP starts
    # at a feasible origin, and its s* is HiGHS's optimum of the reference
    # form (cap row, split s) over the whole graph.
    from scipy.optimize import linprog

    g = var_regular_graph(60, 25, 50, seed=3)
    assert stopping_core(g).all()
    for trial in range(3):
        lamp = awgn_llr(g, math.sqrt(sigma2), seed=1, trial=trial, map_spec=THRESHOLD1)
        with pytest.MonkeyPatch.context() as mp:
            calls = recorded_solves(mp, lambda: witness_search(g, lamp))
        ((_, a, b), _), = calls
        assert a.shape == (g.n, g.num_edges + 1) and b.min() == 0.0
        s_star = witness_search(g, lamp)
        c, a, b = witness_lp_by_loops(g, lamp)
        res = linprog(-c, A_ub=a, b_ub=b, method="highs-ds")
        assert res.status == 0, res.message
        assert abs(s_star + res.fun) <= 1e-9 * max(1.0, np.abs(lamp).max())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_witness_sign_matches_decoder_on_irregular_graphs(data):
    # degree-0 and -1 checks included: both earlier wrong witness verdicts
    # (a degree-1 check, all LLRs 0) were on such graphs
    g = data.draw(irregular_graphs(max_degree=6))
    spec = MapSpec.parse(data.draw(st.sampled_from(["trivial", "threshold:1.0", "quantize2:1"])))
    lamp = np.zeros(g.n)
    if not data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lamp = spec.apply(rng.normal(1.0, data.draw(st.sampled_from([0.3, 0.8, 1.5])), size=g.n))
    s_star = witness_search(g, lamp)
    if abs(s_star) > DEAD_BAND:
        assert (s_star > 0) == lp_decode(g, lamp).is_zero_codeword()


def test_witness_sign_with_degree_one_check_and_negative_llrs():
    # check 0 = {v0} forces x0 = 0 and makes tau_00 = -mu unbounded below,
    # so a witness exists although every LLR is negative
    g = TannerGraph(2, [[0], [0, 1]])
    lamp = np.array([-1.0, -0.5])
    assert witness_search(g, lamp) > 0
    assert lp_decode(g, lamp).is_zero_codeword()


def test_witness_sign_with_degree_one_check_and_zero_llrs():
    # the polytope of TannerGraph(2, [[0], [0, 1]]) is the single point 0, so
    # LP decoding succeeds even with no information; the cap is then 1
    g = TannerGraph(2, [[0], [0, 1]])
    lamp = np.zeros(2)
    assert witness_search(g, lamp) > 0
    assert lp_decode(g, lamp).is_zero_codeword()


@pytest.mark.parametrize("g", [
    TannerGraph(3, [[0, 1, 2]]),
    TannerGraph(3, [[0, 1], [1, 2]]),
    generate_regular(12, 3, 4, seed=11),
])
def test_witness_search_zero_llrs_without_degree_one_checks(g):
    # checks of degree >= 2 bound s by the mean LLR: no witness when all are 0
    assert witness_search(g, np.zeros(g.n)) == 0.0


def test_chernoff_budget_hits_quarter_sigma():
    # with target = Q(2), the boundary sits exactly at sigma = 1/4
    p = derive_params(1.0, 25, delta_hat=0.93)  # gamma = 2/3
    alpha = 2.0 * (1.0 + p.gamma) * q_tail(2.0)
    p = derive_params(1.0, 25, delta_hat=0.93, alpha_exp=alpha)
    budget = chernoff_sigma_budget(p, n=1000)
    assert budget.sigma_max == pytest.approx(0.25, rel=1e-9)
    assert budget.sigma2_max == pytest.approx(0.0625, rel=1e-9)
    assert budget.p_target == pytest.approx(q_tail(2.0), rel=1e-12)
    assert budget.u_cap_chernoff == pytest.approx(alpha * 1000 / (2 * (1 + p.gamma)))
    assert budget.u_cap_matching == pytest.approx((alpha * 1000 - 1) / (1 + p.gamma))


def test_chernoff_budget_increases_with_alpha():
    budgets = []
    for alpha in (0.02, 0.05, 0.1, 0.3):
        p = derive_params(1.0, 25, alpha_exp=alpha)
        budgets.append(chernoff_sigma_budget(p).sigma2_max)
    assert budgets == sorted(budgets)


def test_chernoff_budget_requires_alpha():
    p = derive_params(1.0, 25)
    with pytest.raises(ValueError, match="alpha_exp"):
        chernoff_sigma_budget(p)
    # alpha_exp = 1 would put the target at or above 1/2 for small gamma
    with pytest.raises(ValueError, match=r"alpha_exp must be set and lie in \(0, 1\)"):
        chernoff_sigma_budget(dataclasses.replace(p, alpha_exp=1.0))


def test_chernoff_budget_is_the_largest_sigma_below_the_target():
    # Q(1 / (2 sigma)) stays below the target, and 1e-12 more sigma reaches it
    for (w, d_v), alpha in itertools.product(((1.0, 25), (1.0, 100), (1.5, 40), (2.0, 100)),
                                             (1e-6, 0.02, 0.3, 0.99)):
        budget = chernoff_sigma_budget(derive_params(w, d_v, alpha_exp=alpha))
        sigma, target = budget.sigma_max, budget.p_target
        assert qfunc(1.0 / (2.0 * sigma)) < target <= qfunc(1.0 / (2.0 * sigma * (1 + 1e-12)))
        assert budget.sigma2_max == sigma * sigma


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_llr_consumers_reject_non_finite_and_wrong_length_vectors(g34_small, bad):
    g = g34_small
    tau = np.zeros(g.num_edges)
    consumers = {"lp_decode": lambda lam: lp_decode(g, lam),
                 "ml_decode": lambda lam: ml_decode(g, lam),
                 "witness_search": lambda lam: witness_search(g, lam),
                 "check_feasible": lambda lam: check_feasible(g, tau, lam)}
    for name, consume in consumers.items():
        lam = np.ones(g.n)
        lam[3] = bad
        with pytest.raises(ValueError, match=r"^LLR vector must be finite$"):
            consume(lam)
        with pytest.raises(ValueError, match=rf"^expected a length-{g.n} LLR vector, got shape \(5,\)$"):
            consume(np.ones(5))


def test_u_rarely_exceeds_cap_below_budget():
    # at half the budgeted sigma, |U| stays under the Chernoff cap
    p = derive_params(1.0, 25, delta_hat=0.93)
    alpha = 2.0 * (1.0 + p.gamma) * 0.01
    p = derive_params(1.0, 25, delta_hat=0.93, alpha_exp=alpha)
    budget = chernoff_sigma_budget(p, n=1000)
    sigma = budget.sigma_max / 2.0
    ch = ChannelParams(sigma * sigma)
    xbar = np.ones(1000)
    exceed = 0
    for t in range(1000):
        lam = THRESHOLD1.apply(normalized_llr(transmit_awgn(xbar, ch, 81, t), ch))
        exceed += np.count_nonzero(high_noise_set(lam)) > budget.u_cap_chernoff
    assert exceed / 1000 < 0.01
