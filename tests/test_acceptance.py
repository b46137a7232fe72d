"""Acceptance suite: one test per shipped criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; seeds are fixed so the statistical
checks are reproducible.
"""

import math
import time

import numpy as np
import pytest

from lpldpc import (
    ChannelParams,
    MapSpec,
    apply_map,
    awgnc_pseudoweight,
    beats_zero,
    bfs_tiers,
    boundary_set,
    build_constraints,
    canonical_completion,
    check_feasible,
    derive_params,
    find_delta_matching,
    generate_regular,
    high_noise_set,
    lp_decode,
    membership,
    ml_decode,
    normalized_llr,
    pseudoweight_bound,
    simplex,
    single_pcw_error_prob,
    transmit_awgn,
    weights_from_matching,
    witness_search,
)
from lpldpc.tanner import DisconnectedGraphError, GenerationError, TannerGraph

from conftest import awgn_llr
from oracles import best_vertex_value, var_regular_graph, vertices_by_qhull

DEAD_BAND = 1e-7


def announce(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def connected_regular(n, dv, dc, base_seed):
    for attempt in range(50):
        try:
            g = generate_regular(n, dv, dc, seed=base_seed + 1000 * attempt)
            bfs_tiers(g, 0)
            return g
        except (DisconnectedGraphError, GenerationError):
            continue
    raise RuntimeError(f"no connected ({dv},{dc}) graph at n={n}")


def test_criterion_1_hyperplane_crossing_law():
    start = time.monotonic()
    g = connected_regular(32, 3, 4, base_seed=14)
    pcw, _ = canonical_completion(g, 0)
    wp = awgnc_pseudoweight(pcw)
    sigma = math.sqrt(wp) / 2.0  # puts the law exactly at Q(2)
    p = single_pcw_error_prob(pcw, sigma)
    assert 0.005 <= p <= 0.05
    trials = 100_000
    params = ChannelParams(sigma * sigma)
    xbar = np.ones(g.n)
    hits = 0
    for t in range(trials):
        lam = normalized_llr(transmit_awgn(xbar, params, seed=101, trial=t), params)
        hits += beats_zero(pcw, lam)
    freq = hits / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    elapsed = time.monotonic() - start
    assert abs(freq - p) <= 3.0 * se, f"freq {freq} vs p {p} (3se = {3 * se})"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(1, "hyperplane-crossing law",
             f"freq {freq:.5f} vs Q {p:.5f}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def witness_decoder_records():
    """Shared instance sweep for criteria 2 and 6.

    Over 500 random instances: s* from the witness LP, the decode outcome,
    and both signal-domain objectives.
    """
    sigmas = [0.3, 0.6, 1.0, 1.5]
    maps = [MapSpec.trivial(), MapSpec.trivial(), MapSpec.threshold(1.0)]
    records = []
    graphs = []
    for seed in (0, 1):
        graphs += [generate_regular(n, 3, 4, seed=seed) for n in (8, 12, 16, 20, 24)]
        graphs += [generate_regular(n, 3, 5, seed=seed) for n in (5, 10, 15, 20)]
    trial = 0
    for g in graphs:
        for k in range(28):
            sigma = sigmas[trial % len(sigmas)]
            spec = maps[trial % len(maps)]
            lam = awgn_llr(g, sigma, seed=300, trial=trial, map_spec=spec)
            out = lp_decode(g, lam)
            s_star = witness_search(g, lam)
            _, ml_value = ml_decode(g, lam)
            records.append({
                "s_star": s_star,
                "success": out.is_zero_codeword(),
                "status": out.status,
                "lp_objective": out.objective,
                "ml_value": ml_value,
            })
            trial += 1
    return records


def test_criterion_2_witness_equivalence(witness_decoder_records):
    records = witness_decoder_records
    assert len(records) >= 500
    dead = [r for r in records if abs(r["s_star"]) <= DEAD_BAND]
    counted = [r for r in records if abs(r["s_star"]) > DEAD_BAND]
    mismatches = [r for r in counted if (r["s_star"] > 0) != r["success"]]
    assert not mismatches, f"{len(mismatches)} disagreements"
    announce(2, "LP decode <=> witness existence",
             f"{len(counted)} counted, {len(dead)} in dead band (reported, not counted)")


def test_criterion_3_constructive_pipeline_soundness():
    params = derive_params(1.0, 25)
    ch = ChannelParams(0.33 ** 2)
    spec = MapSpec.threshold(1.0)
    shapes = [(12, 150), (18, 200)]
    instances = nontrivial = 0
    attempts = 0
    while instances < 200 and attempts < 500:
        n, m = shapes[attempts % 2]
        g = var_regular_graph(n, 25, m, seed=500 + attempts // 2)
        lam = apply_map(spec, normalized_llr(
            transmit_awgn(np.ones(n), ch, seed=501, trial=attempts), ch))
        attempts += 1
        u = high_noise_set(lam)
        udot = boundary_set(g, u, params)
        matching = find_delta_matching(g, u, udot, params)
        if matching is None:
            continue
        weights = weights_from_matching(g, matching, u, params)
        verdict = check_feasible(g, weights, lam)
        assert verdict.ok, f"infeasible construction, margin {verdict.margin}"
        out = lp_decode(g, lam)
        assert out.is_zero_codeword(), f"decode returned {out.status}"
        instances += 1
        nontrivial += u.any()
    assert instances >= 200
    assert nontrivial >= 50  # the sweep must exercise real high-noise sets
    announce(3, "constructive pipeline soundness",
             f"{instances} instances ({nontrivial} with non-empty high-noise set)")


def test_criterion_4_pseudoweight_bound_sweep():
    # (3,5) needs n*dv divisible by 5: nearest admissible lengths are used
    grid = {
        (3, 4): (24, 48, 96),
        (3, 5): (25, 50, 100),
        (3, 6): (24, 48, 96),
    }
    cases = 0
    for (dv, dc), sizes in grid.items():
        for n in sizes:
            bound = pseudoweight_bound(dv, dc, n).bound
            for gseed in range(5):
                g = connected_regular(n, dv, dc, base_seed=17 + gseed)
                rng = np.random.default_rng((dv, dc, n, gseed))
                for root in rng.choice(n, size=3, replace=False):
                    pcw, _ = canonical_completion(g, int(root))
                    assert membership(g, pcw.omega)
                    assert awgnc_pseudoweight(pcw) <= bound
                    cases += 1
    assert cases == 9 * 5 * 3
    announce(4, "tier-completion pseudo-weight bound", f"{cases} completions")


def test_criterion_5_quantization_level_invariance():
    g = generate_regular(16, 3, 4, seed=9)
    low, high = MapSpec.quantize2(1.0), MapSpec.quantize2(10.0)
    for t in range(1000):
        lam = awgn_llr(g, sigma=math.sqrt(0.8), seed=402, trial=t)
        a = lp_decode(g, apply_map(low, lam))
        b = lp_decode(g, apply_map(high, lam))
        assert a.status == b.status, f"trial {t}"
        if a.status == "integral":
            assert (a.codeword == b.codeword).all()
        else:
            assert (a.vertex == b.vertex).all()
    announce(5, "quantization level invariance", "1000 trials, outcomes identical")


def test_criterion_6_relaxation_and_integral_collapse(witness_decoder_records):
    for r in witness_decoder_records:
        assert r["lp_objective"] >= r["ml_value"] - 1e-9
        if r["status"] == "integral":
            assert abs(r["lp_objective"] - r["ml_value"]) <= 1e-9
    announce(6, "relaxation dominance and integral collapse",
             f"{len(witness_decoder_records)} instances")


def test_criterion_7_pseudoweight_identities():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        bits = rng.integers(0, 2, size=n)
        if not bits.any():
            bits[0] = 1
        assert awgnc_pseudoweight(bits.astype(float)) == float(bits.sum())
    for _ in range(50):
        w = rng.random(16) + 1e-3
        base = awgnc_pseudoweight(w)
        c = float(rng.uniform(1e-3, 1e3))
        assert abs(awgnc_pseudoweight(c * w) - base) <= 1e-12 * base
    announce(7, "pseudo-weight identities", "50 binary vectors, 50 scalings")


def test_criterion_8_small_polytope_oracle():
    rng = np.random.default_rng(88)
    done = 0
    while done < 20:
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 4))
        rows = []
        for _ in range(m):
            deg = int(rng.integers(3, min(6, n) + 1))
            rows.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
        cons = build_constraints(TannerGraph(n, rows))
        vertices = vertices_by_qhull(cons)
        for sense, sign in (("max", -1.0), ("min", 1.0)):
            c = rng.normal(size=n)
            # a max is the negated min of -c.x
            value = sign * simplex.solve(sign * c, cons.a, cons.b).value
            want = best_vertex_value(vertices, c, sense)
            assert abs(value - want) <= 1e-9, f"{sense}: {value} vs {want}"
        done += 1
    announce(8, "LP optimum equals vertex-enumeration optimum", "20 polytopes, both senses")
