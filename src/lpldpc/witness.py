"""Edge-weight certificates for LP decoding success of the all-zeros word.

A weight assignment tau on the Tanner edges is feasible when every pair of
edges at a check has non-negative weight sum and every variable satisfies
sum_j tau_ij < llr_i strictly. Such an assignment exists if and only if the
LP decoder returns the all-zeros codeword; ``witness_search`` decides this
exactly by maximizing the worst per-variable slack, and the constructive
path builds an assignment from a check-disjoint matching that gives every
high-noise variable enough private checks.

The witness LP is written over the generators of each check's pairwise cone
rather than over its pairs: one non-negative weight mu per edge, with
tau_ij = M_j - 2 mu_ij and M_j the sum of mu at check j. Every pairwise sum
is then 2 * (sum of the other mu) >= 0, so the LP keeps only the n variable
rows and a cap row, instead of one row per pair of edges at a check (a
number that grows with the square of the check degree). Its optimum is the
same number as the pairwise LP's; ``witness_search`` gives the argument.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import simplex
from .channel import qfunc
from .tanner import neighbor_set

__all__ = [
    "ParameterError",
    "ProofParams",
    "DeltaMatching",
    "EdgeWeights",
    "ExpansionVerdict",
    "FeasibilityVerdict",
    "SigmaBudget",
    "derive_params",
    "high_noise_set",
    "boundary_set",
    "check_expansion",
    "find_delta_matching",
    "weights_from_matching",
    "check_feasible",
    "witness_search",
    "chernoff_sigma_budget",
]

EXPANSION_BUDGET = 10_000_000
DEAD_BAND = 1e-7


class ParameterError(ValueError):
    """A derived-parameter inequality failed; the message names it."""


@dataclass(frozen=True)
class ProofParams:
    """Derived constants tying a truncation value W to a variable degree.

    delta is the matching density (delta * d_v integral), delta_prime the
    boundary density 2*delta - 1, gamma the high-noise budget factor, and
    (kappa_lo, kappa_hi) the open interval of usable edge-weight magnitudes.
    alpha_exp is the expansion fraction, fixed by the caller when known.
    """

    w: float
    d_v: int
    delta_hat: float
    delta: float
    delta_prime: float
    gamma: float
    kappa_lo: float
    kappa_hi: float
    alpha_exp: float | None = None

    @property
    def delta_dv(self):
        return round(self.delta * self.d_v)

    @property
    def delta_prime_dv(self):
        return 2 * self.delta_dv - self.d_v

    @property
    def kappa_mid(self):
        return 0.5 * (self.kappa_lo + self.kappa_hi)


def derive_params(w, d_v, delta_hat=None, alpha_exp=None):
    """Fill and validate all proof constants for truncation value ``w``.

    Requires w >= 1 and d_v > 4(4w + 2). delta_hat defaults to the midpoint
    of its legal open interval; delta is the largest value <= delta_hat with
    delta * d_v integral. Every inequality is checked and named on failure.
    """
    w = float(w)
    d_v = int(d_v)
    if not w >= 1:
        raise ParameterError(f"w >= 1 required, got {w}")
    floor_dv = 4 * (4 * w + 2)
    if not d_v > floor_dv:
        raise ParameterError(f"d_v > 4(4w+2) = {floor_dv:g} required, got {d_v}")
    lo = 1.0 - 0.75 / (4 * w + 2)
    hi = 1.0 - 1.0 / d_v
    if delta_hat is None:
        delta_hat = 0.5 * (lo + hi)
    delta_hat = float(delta_hat)
    if not lo < delta_hat < hi:
        raise ParameterError(
            f"delta_hat must lie in the open interval ({lo:.6g}, {hi:.6g}), got {delta_hat}"
        )
    delta_dv = math.floor(delta_hat * d_v + 1e-9)
    delta = delta_dv / d_v
    if not delta_hat - delta <= 1.0 / d_v + 1e-12:
        raise ParameterError("delta_hat - delta <= 1/d_v failed")
    if not delta > 1.0 - 1.0 / (4 * w + 2):
        raise ParameterError(f"delta > 1 - 1/(4w+2) failed: delta = {delta:.6g}")
    delta_prime = 2.0 * delta - 1.0
    gamma = (1.0 - delta) * d_v / ((1.0 - delta) * d_v + 1.0)
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"0 < gamma < 1 failed: gamma = {gamma:.6g}")
    kappa_lo = w / ((2.0 * delta - 1.0) * d_v)
    kappa_hi = 1.0 / (4.0 * (1.0 - delta) * d_v)
    if not kappa_lo < kappa_hi:
        raise ParameterError(
            f"(2 delta - 1) / (4 (1 - delta)) > w failed: kappa interval "
            f"({kappa_lo:.6g}, {kappa_hi:.6g}) is empty"
        )
    if alpha_exp is not None:
        alpha_exp = float(alpha_exp)
        if not 0.0 < alpha_exp < 1.0:
            raise ParameterError(f"alpha_exp must lie in (0, 1), got {alpha_exp}")
    return ProofParams(
        w=w, d_v=d_v, delta_hat=delta_hat, delta=delta, delta_prime=delta_prime,
        gamma=gamma, kappa_lo=kappa_lo, kappa_hi=kappa_hi, alpha_exp=alpha_exp,
    )


def high_noise_set(lamp):
    """Indices with modified LLR strictly below 1/2."""
    lamp = np.asarray(lamp, dtype=float)
    return frozenset(np.flatnonzero(lamp < 0.5).tolist())


def _require_var_regular(g, d_v):
    if any(len(r) != d_v for r in g.var_nbrs):
        raise ValueError(f"graph must have uniform variable degree {d_v}")


def boundary_set(g, u, params):
    """Variables outside U whose neighborhoods overlap N(U) in more than
    (1 - delta') d_v checks."""
    _require_var_regular(g, params.d_v)
    nu = neighbor_set(g, u)
    threshold = params.d_v - params.delta_prime_dv  # (1 - delta') d_v, exact
    out = set()
    for i in range(g.n):
        if i in u:
            continue
        overlap = sum(1 for j in g.var_nbrs[i] if j in nu)
        if overlap > threshold:
            out.add(i)
    return frozenset(out)


@dataclass(frozen=True)
class ExpansionVerdict:
    ok: bool
    violating: tuple | None
    neighbor_count: int | None
    required: float | None
    subsets_checked: int


def check_expansion(g, beta_exp, s_max):
    """Exhaustively test |N(S)| >= beta_exp * |S| for every |S| <= s_max.

    Subset sizes ascend and subsets enumerate lexicographically, so the first
    violator is deterministic. The total subset count must stay within the
    enumeration budget.
    """
    s_max = int(s_max)
    if s_max < 1 or s_max > g.n:
        raise ValueError(f"s_max must lie in 1..{g.n}")
    total = sum(math.comb(g.n, s) for s in range(1, s_max + 1))
    if total > EXPANSION_BUDGET:
        raise ValueError(f"{total} subsets exceed the enumeration budget {EXPANSION_BUDGET}")
    masks = []
    for i in range(g.n):
        bits = 0
        for j in g.var_nbrs[i]:
            bits |= 1 << j
        masks.append(bits)
    checked = 0
    for s in range(1, s_max + 1):
        for subset in itertools.combinations(range(g.n), s):
            checked += 1
            union = 0
            for i in subset:
                union |= masks[i]
            count = union.bit_count()
            if count + 1e-12 < beta_exp * s:
                return ExpansionVerdict(
                    ok=False, violating=subset, neighbor_count=count,
                    required=beta_exp * s, subsets_checked=checked,
                )
    return ExpansionVerdict(ok=True, violating=None, neighbor_count=None,
                            required=None, subsets_checked=checked)


@dataclass(frozen=True)
class DeltaMatching:
    """Check-disjoint edge set giving delta*d_v edges to every high-noise
    variable and delta'*d_v to every boundary variable."""

    edges: frozenset


def _verify_matching(g, m_edges, u, udot, params):
    per_check = {}
    per_var = {}
    for i, j in m_edges:
        per_check[j] = per_check.get(j, 0) + 1
        per_var[i] = per_var.get(i, 0) + 1
        if j not in g.var_nbrs[i]:
            return False
    if any(c > 1 for c in per_check.values()):
        return False
    if any(per_var.get(i, 0) < params.delta_dv for i in u):
        return False
    if any(per_var.get(i, 0) < params.delta_prime_dv for i in udot):
        return False
    return True


def find_delta_matching(g, u, udot, params):
    """Search for a matching by integral max-flow; None when none exists.

    Source feeds each high-noise variable delta*d_v units and each boundary
    variable delta'*d_v, Tanner edges carry one unit, every check passes one
    unit to the sink. The demands are met exactly iff the max flow saturates
    the source, and integral capacities make the optimal flow integral. The
    returned matching is re-verified against its three defining conditions.
    """
    u = frozenset(u)
    udot = frozenset(udot)
    if u & udot:
        raise ValueError("high-noise and boundary sets must be disjoint")
    need = {i: max(params.delta_dv, 0) for i in sorted(u)}
    need.update({i: max(params.delta_prime_dv, 0) for i in sorted(udot)})
    required = sum(need.values())
    if required == 0:
        return DeltaMatching(frozenset())
    if required > g.m:
        return None

    parts = sorted(need)
    src = 0
    var_id = {i: 1 + a for a, i in enumerate(parts)}
    check_id = {j: 1 + len(parts) + j for j in range(g.m)}
    sink = 1 + len(parts) + g.m
    cap = {node: {} for node in range(sink + 1)}

    def add_edge(a, b2, c):
        cap[a][b2] = c
        cap[b2].setdefault(a, 0)

    for i in parts:
        add_edge(src, var_id[i], need[i])
        for j in g.var_nbrs[i]:
            add_edge(var_id[i], check_id[j], 1)
    for j in range(g.m):
        add_edge(check_id[j], sink, 1)

    flow = 0
    while True:
        parent = {src: None}
        queue = deque([src])
        while queue and sink not in parent:
            node = queue.popleft()
            for nxt, c in cap[node].items():
                if c > 0 and nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        if sink not in parent:
            break
        path = [sink]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        push = min(cap[a][b2] for a, b2 in zip(path, path[1:]))
        for a, b2 in zip(path, path[1:]):
            cap[a][b2] -= push
            cap[b2][a] += push
        flow += push
    if flow != required:
        return None

    edges = frozenset(
        (i, j) for i in parts for j in g.var_nbrs[i] if cap[var_id[i]][check_id[j]] == 0
    )
    if not _verify_matching(g, edges, u, udot, params):
        raise RuntimeError("max-flow produced an invalid matching")
    return DeltaMatching(edges)


@dataclass(frozen=True, eq=False)
class EdgeWeights:
    """Weights tau on exactly the edge set of a graph, keyed (variable, check)."""

    tau: dict


def weights_from_matching(g, matching, u, kappa, params):
    """Constructive assignment: each check matched to a high-noise variable
    puts -kappa on that edge and +kappa on its other edges; checks matched to
    boundary variables, and unmatched checks, stay at zero."""
    if not params.kappa_lo < kappa < params.kappa_hi:
        raise ValueError(
            f"kappa must lie strictly inside ({params.kappa_lo:.6g}, {params.kappa_hi:.6g})"
        )
    u = frozenset(u)
    tau = {e: 0.0 for e in g.edges()}
    for i, j in sorted(matching.edges):
        if i in u:
            tau[(i, j)] = -kappa
            for i2 in g.check_nbrs[j]:
                if i2 != i:
                    tau[(i2, j)] = kappa
    return EdgeWeights(tau)


@dataclass(frozen=True)
class FeasibilityVerdict:
    ok: bool
    margin: float
    pairwise_ok: bool
    bad_check: int | None


def check_feasible(g, weights, lamp):
    """Verify both witness conditions; the margin is min_i (llr_i - sum tau).

    Pairwise sums at a check are non-negative iff its two smallest weights
    sum to >= 0. The per-variable condition is strict, so the verdict passes
    only when the margin is positive.
    """
    lamp = np.asarray(lamp, dtype=float)
    if lamp.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} LLR vector, got shape {lamp.shape}")
    tau = weights.tau
    if set(tau) != set(g.edges()):
        raise ValueError("weights must cover exactly the edge set of the graph")
    bad = None
    for j, nbrs in enumerate(g.check_nbrs):
        if len(nbrs) < 2:
            continue
        w = sorted(tau[(i, j)] for i in nbrs)
        if w[0] + w[1] < -1e-12:
            bad = j
            break
    sums = np.array([sum(tau[(i, j)] for j in g.var_nbrs[i]) for i in range(g.n)])
    margin = float((lamp - sums).min())
    return FeasibilityVerdict(
        ok=bad is None and margin > 0.0, margin=margin,
        pairwise_ok=bad is None, bad_check=bad,
    )


def witness_search(g, lamp):
    """Maximum worst-case slack s* over all weight assignments, by LP.

    s* = max min_i (llr_i - sum_j tau_ij) over pairwise-feasible tau. At a
    check of degree d the feasible weights form the cone {tau_a + tau_b >= 0},
    generated by the rays e_a and -e_a + sum_{b != a} e_b. So
    tau_ij = M_j - 2 mu_ij + nu_ij with mu, nu >= 0 and
    M_j = sum_{i' in N(j)} mu_i'j. The e_a parts nu only raise variable sums,
    so nu = 0 loses nothing, and the LP is: maximize s subject to
    sum_{j in N(i)} (M_j - 2 mu_ij) + s <= llr_i for every variable i, over
    one mu per edge and s split into positive parts. s* > 0 certifies a
    strictly feasible assignment exists; s* <= 0 certifies none does.

    The cap row s <= max|llr| (1 when every LLR is 0) stays. When every
    check has degree >= 2, its weights sum to (d - 2) M_j >= 0, so summing
    the variable rows bounds s by the mean LLR and the cap is inactive. At a
    degree-1 check tau is -mu, unbounded below, and without the cap s can be
    unbounded too; then s* equals the cap. Only a positive cap gives such an
    LP the right sign: max(llr) would be wrong whenever every LLR is
    negative, and max|llr| alone whenever every LLR is 0.
    """
    lamp = np.asarray(lamp, dtype=float)
    if lamp.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} LLR vector, got shape {lamp.shape}")
    if not np.isfinite(lamp).all():
        raise ValueError("LLR vector must be finite")
    # edges in g.edges() order: variable-major, checks ascending
    edge_var, edge_check = np.repeat(np.arange(g.n), g.var_degrees), g.var_indices
    ne = edge_var.size
    h = np.zeros((g.m, g.n))
    h[edge_check, edge_var] = 1.0
    # Column (i', j) carries mu_i'j: +1 in the row of every variable at check
    # j (its share of M_j), and 1 - 2 = -1 in its own variable's row.
    a = np.zeros((g.n + 1, ne + 2))
    a[:g.n, :ne] = h[edge_check].T
    a[edge_var, np.arange(ne)] = -1.0
    a[:, ne] = 1.0
    a[:, ne + 1] = -1.0
    cap = np.abs(lamp).max()
    b = np.append(lamp, cap if cap > 0 else 1.0)
    c = np.zeros(ne + 2)
    c[ne] = 1.0
    c[ne + 1] = -1.0
    sol = simplex.solve(c, a, b, sense="max")
    return float(sol.value)


@dataclass(frozen=True)
class SigmaBudget:
    sigma2_max: float
    sigma_max: float
    p_target: float
    n: int | None = None
    u_cap_chernoff: float | None = None
    u_cap_matching: float | None = None


def chernoff_sigma_budget(params, n=None):
    """Largest noise variance keeping the high-noise probability below
    alpha / (2 (1 + gamma)), found by bisection on the monotone map
    sigma -> Q(1 / (2 sigma)). With ``n`` given, also reports the implied
    caps alpha*n / (2(1+gamma)) and (alpha*n - 1) / (1 + gamma) on |U|."""
    if params.alpha_exp is None or not params.alpha_exp > 0:
        raise ValueError("alpha_exp must be set and positive")
    target = params.alpha_exp / (2.0 * (1.0 + params.gamma))
    lo, hi = 1e-9, 1.0
    while qfunc(1.0 / (2.0 * hi)) < target:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the noise budget")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if qfunc(1.0 / (2.0 * mid)) < target:
            lo = mid
        else:
            hi = mid
    sigma = lo
    caps = {}
    if n is not None:
        an = params.alpha_exp * n
        caps = {
            "u_cap_chernoff": an / (2.0 * (1.0 + params.gamma)),
            "u_cap_matching": (an - 1.0) / (1.0 + params.gamma),
        }
    return SigmaBudget(sigma2_max=sigma * sigma, sigma_max=sigma,
                       p_target=target, n=n, **caps)
