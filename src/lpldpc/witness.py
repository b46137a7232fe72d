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
is then 2 * (sum of the other mu) >= 0, so the LP keeps only the variable
rows, instead of one row per pair of edges at a check (a number that grows
with the square of the check degree). Its optimum is the same number as the
pairwise LP's. Only the graph's stopping-set core, what peeling leaves
(``stopping_core``), constrains it: a peeled variable's row can always be
met through the check that freed it. So the LP is solved on the core alone,
and not at all when the core is empty; ``witness_search`` gives both
arguments.
"""

from __future__ import annotations

import itertools
import math
import statistics
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import simplex
from .channel import _index, qfunc
from .lpdec import _llr_vector

__all__ = [
    "ParameterError",
    "ProofParams",
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
    "stopping_core",
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
    kappa, the magnitude the construction uses, defaults to that interval's
    midpoint and must lie strictly inside it. alpha_exp is the expansion
    fraction, fixed by the caller when known.
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
    kappa: float | None = None

    def __post_init__(self):
        if self.kappa is None:
            object.__setattr__(self, "kappa", 0.5 * (self.kappa_lo + self.kappa_hi))
        elif not self.kappa_lo < self.kappa < self.kappa_hi:
            raise ValueError(
                f"kappa must lie strictly inside ({self.kappa_lo:.6g}, {self.kappa_hi:.6g})"
            )

    @property
    def delta_dv(self):
        return round(self.delta * self.d_v)

    @property
    def delta_prime_dv(self):
        return 2 * self.delta_dv - self.d_v

    def matching_cap(self, n):
        """(alpha n - 1) / (1 + gamma): the largest |U| the matching argument covers."""
        return (self.alpha_exp * n - 1.0) / (1.0 + self.gamma)


def derive_params(w, d_v, delta_hat=None, alpha_exp=None, kappa=None):
    """Fill and validate all proof constants for truncation value ``w``.

    Requires w >= 1 and d_v > 4(4w + 2). delta_hat defaults to the midpoint
    of its legal open interval; delta is the largest value <= delta_hat with
    delta * d_v integral. Every inequality is checked and named on failure;
    ``ProofParams`` defaults and checks ``kappa``.
    """
    if isinstance(w, (bool, np.bool_)):
        raise ParameterError(f"w must be a number, got {w!r}")
    w = float(w)
    d_v = _index(d_v)
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
        gamma=gamma, kappa_lo=kappa_lo, kappa_hi=kappa_hi, alpha_exp=alpha_exp, kappa=kappa,
    )


def high_noise_set(lamp):
    """Mask of the variables whose modified LLR is strictly below 1/2."""
    return np.asarray(lamp, dtype=float) < 0.5


def _require_mask(g, mask, name):
    mask = np.asarray(mask)
    if mask.shape != (g.n,) or mask.dtype != bool:
        raise ValueError(
            f"{name} must be a length-{g.n} boolean mask, got {mask.dtype} of shape {mask.shape}"
        )
    return mask


def boundary_set(g, u, params):
    """Mask of the variables outside the mask ``u`` whose checks overlap N(U)
    in more than (1 - delta') d_v places."""
    if g.regular_var_degree != params.d_v:
        raise ValueError(f"graph must have uniform variable degree {params.d_v}")
    u = _require_mask(g, u, "U")
    near = np.zeros(g.m, dtype=bool)  # N(U)
    near[g.var_indices[u[g.edge_var]]] = True
    overlap = np.bincount(g.edge_var[near[g.var_indices]], minlength=g.n)
    return ~u & (overlap > params.d_v - params.delta_prime_dv)  # (1 - delta') d_v, exact


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
    enumeration budget, and a NaN ``beta_exp`` is rejected.
    """
    if math.isnan(beta_exp):
        raise ValueError("beta_exp must be a number, got nan")
    s_max = _index(s_max)
    if s_max < 1 or s_max > g.n:
        raise ValueError(f"s_max must lie in 1..{g.n}")
    total = sum(math.comb(g.n, s) for s in range(1, s_max + 1))
    if total > EXPANSION_BUDGET:
        raise ValueError(f"{total} subsets exceed the enumeration budget {EXPANSION_BUDGET}")
    ptr, checks = g.var_indptr.tolist(), g.var_indices.tolist()
    masks = []
    for a, b in zip(ptr, ptr[1:]):
        bits = 0
        for j in checks[a:b]:
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


def _owner_edges(g, owner):
    """Mask of the edges whose check ``owner`` gives to the edge's variable,
    aligned with ``(g.edge_var, g.var_indices)``; None unless ``owner`` gives
    each check to a variable at that check, or to none (-1)."""
    if not (owner.shape == (g.m,) and owner.dtype.kind in "iu"
            and owner.min() >= -1 and owner.max() < g.n):
        return None
    own = owner[g.var_indices] == g.edge_var
    # The graph is simple, so each held check has at most one edge to its
    # holder, and exactly one when the holder is at the check.
    return own if np.count_nonzero(own) == np.count_nonzero(owner >= 0) else None


def _verify_matching(g, owner, need):
    """True when ``owner`` gives each check to a variable at that check, or
    to none (-1), and at least ``need[i]`` checks to every variable i."""
    return _owner_edges(g, owner) is not None and bool(
        (np.bincount(owner[owner >= 0], minlength=g.n) >= need).all())


def find_delta_matching(g, u, udot, params):
    """Search for a matching by augmenting paths; None when none exists.

    ``u`` and ``udot`` are the boolean masks of the high-noise and boundary
    variables. Each high-noise variable needs delta*d_v checks and each
    boundary variable delta'*d_v, and no check may serve two variables. The
    matching is returned as ``owner``: the variable holding each check, -1
    for a free check. Variables are served in index order. A variable first
    takes its own free checks, in order and up to its need. What it still
    needs is met one check at a time: a breadth-first search from the
    variable goes from each variable to its checks, and from a held check to
    its holder, until it reaches a free check; each variable on that path
    then moves to the next check. A held check is never freed again, so the
    first pass takes exactly the checks that these searches would take at
    their first step. This is augmenting-path max flow with the source and
    sink left implicit. A variable that finds no path now finds none later
    either, so the answer is None exactly when the needs cannot all be met.
    The search keeps its own queue, so the path length is not bounded by the
    recursion limit. The returned matching is re-verified against the graph
    and the needs.
    """
    u, udot = _require_mask(g, u, "U"), _require_mask(g, udot, "Udot")
    if (u & udot).any():
        raise ValueError("high-noise and boundary sets must be disjoint")
    per_u, per_udot = max(params.delta_dv, 0), max(params.delta_prime_dv, 0)
    required = np.count_nonzero(u) * per_u + np.count_nonzero(udot) * per_udot
    if required == 0:
        return np.full(g.m, -1, dtype=np.int64)
    if required > g.m:
        return None
    need = u * per_u + udot * per_udot

    ptr, nbrs = g.var_indptr.tolist(), g.var_indices.tolist()
    owner = [-1] * g.m  # variable holding each check
    for root in np.flatnonzero(need).tolist():
        missing = int(need[root])
        for j in nbrs[ptr[root]:ptr[root + 1]]:
            if missing and owner[j] < 0:
                owner[j] = root
                missing -= 1
        for _ in range(missing):
            back = {root: (None, None)}  # variable -> (check it came through, previous variable)
            queue = deque([root])
            free = None
            while queue and free is None:
                v = queue.popleft()
                for j in nbrs[ptr[v]:ptr[v + 1]]:
                    w = owner[j]
                    if w < 0:
                        free = j
                        break
                    if w not in back:
                        back[w] = (j, v)
                        queue.append(w)
            if free is None:
                return None
            j = free
            while v is not None:
                owner[j] = v
                j, v = back[v]

    owner = np.array(owner, dtype=np.int64)
    if not _verify_matching(g, owner, need):
        raise RuntimeError("augmenting-path search produced an invalid matching")
    return owner


def weights_from_matching(g, owner, u, params):
    """Constructive assignment, one weight per edge, aligned with
    ``(g.edge_var, g.var_indices)``: each check whose ``owner`` is a
    high-noise variable (mask ``u``) puts -kappa (``params.kappa``) on that
    edge and +kappa on its other edges; checks held by boundary variables,
    and free checks, stay at zero."""
    u = _require_mask(g, u, "U")
    owner = np.asarray(owner)
    own = _owner_edges(g, owner)
    if own is None:
        raise ValueError(f"owner must give each of {g.m} checks to -1 or to a variable at "
                         f"that check, got {owner.dtype} of shape {owner.shape}")
    held = owner[g.var_indices]  # the holder of each edge's check
    by_u = (held >= 0) & u[held]
    tau = np.zeros(g.num_edges)
    tau[by_u] = params.kappa
    tau[by_u & own] = -params.kappa
    return tau


@dataclass(frozen=True)
class FeasibilityVerdict:
    ok: bool
    margin: float
    pairwise_ok: bool
    bad_check: int | None


def check_feasible(g, tau, lamp):
    """Verify both witness conditions; the margin is min_i (llr_i - sum tau).

    Pairwise sums at a check are non-negative iff its two smallest weights
    sum to >= 0; ``bad_check`` is the lowest check where they do not. The
    per-variable condition is strict, so the verdict passes only when the
    margin is positive. ``tau`` must hold one finite weight per edge,
    aligned with ``(g.edge_var, g.var_indices)``.
    """
    lamp = _llr_vector(g, lamp)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (g.num_edges,):
        raise ValueError(
            f"weights must cover exactly the edge set of the graph: "
            f"{g.num_edges} weights, got shape {tau.shape}"
        )
    if not np.isfinite(tau).all():
        raise ValueError("weights must be finite")
    # sorted by check, then weight: check j's weights fill its CSR range
    by_check = tau[np.lexsort((tau, g.var_indices))]
    pairs = np.flatnonzero(g.check_degrees >= 2)
    start = g.check_indptr[pairs]
    bad_checks = pairs[by_check[start] + by_check[start + 1] < -1e-12]
    bad = int(bad_checks[0]) if bad_checks.size else None
    sums = np.bincount(g.edge_var, weights=tau, minlength=g.n)
    margin = float((lamp - sums).min())
    return FeasibilityVerdict(
        ok=bad is None and margin > 0.0, margin=margin,
        pairwise_ok=bad is None, bad_check=bad,
    )


@lru_cache(maxsize=64)
def stopping_core(g):
    """Read-only boolean mask of the largest stopping set of ``g``: its core.

    A stopping set is a set of variables that no check sees exactly once. A
    union of stopping sets is one, so a largest exists, and peeling finds it:
    a check with exactly one live neighbour frees that variable. Each round
    frees the whole frontier of such variables, until no check frees a live
    one; what stays live is the core. Per round, each check counts its live
    neighbours and sums their indices: at a count of 1 the sum is the
    neighbour it frees. The core depends on the graph alone, so it is
    cached per graph (graphs are immutable), like ``build_constraints``.
    """
    edge_var, edge_check = g.edge_var, g.var_indices
    live = np.ones(g.n, dtype=bool)
    while True:
        on = live[edge_var]
        count = np.bincount(edge_check[on], minlength=g.m)
        total = np.bincount(edge_check[on], weights=edge_var[on], minlength=g.m)
        freed = total[count == 1].astype(np.int64)
        if not live[freed].any():
            live.flags.writeable = False
            return live
        live[freed] = False


def witness_search(g, lamp):
    """Maximum worst-case slack s* over all weight assignments, by LP.

    s* = max min_i (llr_i - sum_j tau_ij) over pairwise-feasible tau. At a
    check of degree d the feasible weights form the cone {tau_a + tau_b >= 0},
    generated by the rays e_a and -e_a + sum_{b != a} e_b. So
    tau_ij = M_j - 2 mu_ij + nu_ij with mu, nu >= 0 and
    M_j = sum_{i' in N(j)} mu_i'j. The e_a parts nu only raise variable sums,
    so nu = 0 loses nothing: s* is the largest s with
    sum_{j in N(i)} (M_j - 2 mu_ij) + s <= llr_i for every variable i, over
    one mu >= 0 per edge. s* > 0 certifies a strictly feasible assignment
    exists; s* <= 0 certifies none does.

    Only the stopping-set core R (``stopping_core``) constrains s. Column
    mu_ij is -1 in row i and +1 in the rows of the other variables at check
    j. When check j freed variable i during peeling, those variables were
    all freed before i; so setting the freeing mu in reverse peel order, each
    large enough for its own row, meets every peeled row whatever s is, and
    touches no row in R. Every other column at a peeled variable has no
    negative entry in a row of R, so setting it to 0 loses nothing. What is
    left is the LP of the subgraph induced by R, on llr_R.

    With R empty, s is unbounded (a degree-1 check makes tau = -mu unbounded
    below) and s* is the cap max|llr|, 1 when every LLR is 0, with no solve;
    only a positive cap gives that verdict the right sign. Otherwise every
    check at a core variable has d >= 2 core neighbours, or peeling would
    have freed that variable, and its weights sum to (d - 2) M_j >= 0; so
    summing the rows bounds s by the mean of llr_R, and no cap row is
    needed. With L = min llr_R and s = L + t the LP is: maximize t, by
    minimizing -t, subject to sum_{j in N(i)} (M_j - 2 mu_ij) + t <= llr_i - L
    for i in R, with mu, t >= 0. Its right-hand side is >= 0, so the simplex
    starts at the feasible origin with no phase 1, and s* = L - min(-t) =
    L + t*. By duality s* is the minimum of llr_R . omega over the
    fundamental cone of the core (omega >= 0, omega_i <= sum_{N(j) - i} omega
    at every check j) normalized to sum omega = 1: the least LLR cost of a
    normalized pseudo-codeword (Koetter & Vontobel).
    """
    lamp = _llr_vector(g, lamp)
    core = stopping_core(g)
    if not core.any():
        return float(np.abs(lamp).max() or 1.0)
    # core edges, aligned with (g.edge_var, g.var_indices): variable-major,
    # checks ascending
    edge_var, edge_check = g.edge_var, g.var_indices
    keep = core[edge_var]
    edge_row, edge_check = (np.cumsum(core) - 1)[edge_var[keep]], edge_check[keep]
    rows, ne = np.count_nonzero(core), edge_row.size
    h = np.zeros((g.m, rows))
    h[edge_check, edge_row] = 1.0
    # Column (i', j) carries mu_i'j: +1 in the row of every core variable at
    # check j (its share of M_j), and 1 - 2 = -1 in its own variable's row.
    # The last column carries t.
    a = np.ones((rows, ne + 1))
    a[:, :ne] = h[edge_check].T
    a[edge_row, np.arange(ne)] = -1.0
    llr = lamp[core]
    low = llr.min()
    c = np.zeros(ne + 1)
    c[ne] = -1.0
    return float(low - simplex.solve(c, a, llr - low).value)


@dataclass(frozen=True)
class SigmaBudget:
    sigma2_max: float
    sigma_max: float
    p_target: float
    n: int | None = None
    u_cap_chernoff: float | None = None
    u_cap_matching: float | None = None


def chernoff_sigma_budget(params, n=None):
    """Largest noise variance keeping the high-noise probability
    Q(1 / (2 sigma)) below alpha / (2 (1 + gamma)): sigma = 1 / (2 z) for
    the upper-tail quantile z of the target, stepped down by ulps while
    rounding leaves Q at or above the target. With ``n`` given, also reports the
    implied caps alpha*n / (2(1+gamma)) and (alpha*n - 1) / (1 + gamma) on |U|."""
    if params.alpha_exp is None or not 0 < params.alpha_exp < 1:
        raise ValueError("alpha_exp must be set and lie in (0, 1)")
    target = params.alpha_exp / (2.0 * (1.0 + params.gamma))  # below 1/2
    sigma = 1.0 / (2.0 * -statistics.NormalDist().inv_cdf(target))
    while qfunc(1.0 / (2.0 * sigma)) >= target:
        sigma = math.nextafter(sigma, 0.0)
    caps = {}
    if n is not None:
        caps = {
            "u_cap_chernoff": params.alpha_exp * n / (2.0 * (1.0 + params.gamma)),
            "u_cap_matching": params.matching_cap(n),
        }
    return SigmaBudget(sigma2_max=sigma * sigma, sigma_max=sigma,
                       p_target=target, n=n, **caps)
