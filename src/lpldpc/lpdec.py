"""Decoding over the parity relaxation polytope.

The feasible region is the intersection, over all checks, of the convex
hulls of the single-check even-weight codes, described explicitly by the
odd-subset inequalities

    sum_{i in S} x_i - sum_{i in N(j) \\ S} x_i <= |S| - 1,   S odd,

together with the box 0 <= x <= 1. Decoding maximizes the signal-domain
correlation sum((1 - 2 x_i) * llr_i), equivalently minimizes llr . x over
the polytope.

Only LP decoding builds these rows, so only it is bound by MAX_CHECK_DEGREE,
even for a decode settled by its hard decision without solving; membership
finds each check's most violated row of every size by a sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2, simplex

__all__ = [
    "INTEGRALITY_TOL",
    "FEASIBILITY_TOL",
    "MAX_CHECK_DEGREE",
    "MAX_DIMENSION",
    "PolytopeConstraints",
    "DecodeOutcome",
    "build_constraints",
    "lp_decode",
    "ml_decode",
    "membership",
    "enumerate_codewords",
]

INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-8
TIE_FACE_EPS = 1e-12   # slack when probing the optimal face; see lp_decode
MAX_CHECK_DEGREE = 16  # 2^(d_c - 1) inequalities per check, built for lp_decode
MAX_DIMENSION = 24     # brute-force codeword enumeration cap


@dataclass(frozen=True, eq=False)
class PolytopeConstraints:
    """Rows a.x <= b: the n upper box rows first, then each check's odd-subset
    rows (sizes ascending, subsets in lexicographic order)."""

    n: int
    a: np.ndarray
    b: np.ndarray


@lru_cache(maxsize=64)
def build_constraints(g):
    """Odd-subset plus box description of the decoding polytope of ``g``.

    Cached per graph (graphs are immutable). Checks of degree above
    MAX_CHECK_DEGREE are rejected since the row count doubles per degree.
    """
    degs = g.check_degrees
    if degs.max() > MAX_CHECK_DEGREE:
        raise ValueError(
            f"check degree {degs.max()} exceeds cap {MAX_CHECK_DEGREE}"
        )
    total = g.n + sum(1 << (d - 1) for d in degs.tolist() if d >= 1)
    a = np.zeros((total, g.n))
    b = np.zeros(total)
    a[np.arange(g.n), np.arange(g.n)] = 1.0
    b[:g.n] = 1.0
    r = g.n
    ptr, flat = g.check_indptr.tolist(), g.check_indices.tolist()
    for j in range(g.m):
        nbrs = sorted(flat[ptr[j]:ptr[j + 1]])
        for size in range(1, len(nbrs) + 1, 2):
            for subset in itertools.combinations(nbrs, size):
                a[r, nbrs] = -1.0
                a[r, list(subset)] = 1.0
                b[r] = size - 1
                r += 1
    return PolytopeConstraints(n=g.n, a=a, b=b)


def _odd_subset_rows(g, w):
    """Each check's entries of ``w`` in descending order, one sort per degree.

    Yields ``(checks, rows)`` per check degree, ascending and skipping degree
    0: ``rows[k]`` lists check ``checks[k]``'s entries, largest first. When
    all checks share one degree d, the single group is gathered as
    ``w[check_indices.reshape(m, d)]``, with no grouping by degree.
    """
    degs = g.check_degrees
    d = g.regular_check_degree
    if d is not None:
        groups = [(np.arange(g.m), g.check_indices.reshape(g.m, d))] if d else []
    else:
        groups = []
        for d in np.unique(degs[degs > 0]):
            checks = np.flatnonzero(degs == d)
            groups.append((checks, g.check_indices[g.check_indptr[checks, None] + np.arange(d)]))
    for checks, var_rows in groups:
        yield checks, np.sort(w[var_rows], axis=1)[:, ::-1]


def _odd_subset_gaps(rows):
    """Most violated odd-subset row of every size at each check of ``rows``.

    ``rows`` holds checks' entries in descending order, as
    ``_odd_subset_rows`` yields them. Over size-s subsets S,
    sum_S w - sum_rest w peaks at the s largest entries: the gap
    2 * csum[s - 1] - total of the descending prefix sums. Returns ``gaps``
    with ``gaps[t, k]`` the gap of check k at size 2t + 1 (bound 2t). The
    prefix sums run down the columns, one vector add per size, and give the
    floats of ``np.cumsum`` along each row.
    """
    cols = rows.T
    csum = np.empty(cols.shape)
    csum[0] = cols[0]
    for s in range(1, len(cols)):
        np.add(csum[s - 1], cols[s], out=csum[s])
    # numpy adds fewer than 8 terms in order, so such a row's sum is its last
    # prefix sum; from 8 terms on it sums pairwise, to other floats
    total = csum[-1] if len(cols) < 8 else rows.sum(axis=1)
    return 2.0 * csum[::2] - total


def _within_polytope(w, groups):
    """``membership``'s test of ``w``, given ``groups``, the lazily yielded
    ``_odd_subset_rows`` of ``w``. A NaN propagates through ``min`` and
    ``max`` and fails both box comparisons, as an infinity fails one; a
    size's rows all hold when the largest gap over the checks does."""
    if not (-FEASIBILITY_TOL <= w.min() and w.max() <= 1 + FEASIBILITY_TOL):
        return False
    for _, rows in groups:
        tops = _odd_subset_gaps(rows).max(axis=1).tolist()
        if any(top > 2.0 * t + FEASIBILITY_TOL for t, top in enumerate(tops)):
            return False
    return True


def membership(g, w):
    """True iff ``w`` meets every polytope constraint within ``FEASIBILITY_TOL``.

    No row is built: each check's most violated odd subset of every size
    comes from one sort per check degree and prefix sums
    (``_odd_subset_rows``, ``_odd_subset_gaps``), after the box test.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} vector, got shape {w.shape}")
    return _within_polytope(w, _odd_subset_rows(g, w))


@dataclass(frozen=True, eq=False)
class DecodeOutcome:
    """Result of one LP decode.

    ``status`` is ``integral`` (vertex rounds to a codeword), ``fractional``
    (vertex has a non-binary coordinate), or ``tie`` (a second optimal vertex
    with different support exists; counted as a failure). ``objective`` is
    the signal-domain correlation at the optimum. ``stats`` explains how the
    outcome was reached and is never written to CSVs: ``uniqueness`` is
    ``hard_decision`` (the LLR signs form a codeword that is the unique
    optimum; no LP was solved), ``certified`` (read from the final tableau)
    or ``probed`` (the face probe ran), with the pivot counts
    ``main_pivots`` and ``probe_pivots`` (both 0 for a hard decision, the
    probe's 0 when certified).
    """

    status: str
    vertex: np.ndarray
    objective: float
    codeword: np.ndarray | None = None
    stats: dict | None = None

    @property
    def is_integral(self):
        return self.status == "integral"

    def is_zero_codeword(self):
        return self.status == "integral" and not self.codeword.any()


def _llr_vector(g, lamp):
    """``lamp`` as a float array; ValueError unless a finite length-n vector."""
    lamp = np.asarray(lamp, dtype=float)
    if lamp.shape != (g.n,):
        raise ValueError(f"expected a length-{g.n} LLR vector, got shape {lamp.shape}")
    if not np.isfinite(lamp).all():
        raise ValueError("LLR vector must be finite")
    return lamp


def _parity_ok(g, bits):
    """Whether 0/1 ``bits`` meet every check: each check's sum is even."""
    sums = np.bincount(g.var_indices, weights=bits[g.edge_var], minlength=g.m)
    return not (sums % 2).any()


def lp_decode(g, lamp):
    """Decode a modified LLR vector by linear programming.

    The objective is max-normalized before solving, which makes the pivot
    path (hence the outcome) invariant under positive scaling of the input.

    Hard decision: when h = [lamp < 0] is a codeword and
    TIE_FACE_EPS <= INTEGRALITY_TOL * min|cn| for the normalized cost cn,
    h is returned as the unique optimum and no LP is solved (the ML
    certificate of Feldman, Wainwright & Karger). For x in the polytope,
    cn.x - cn.h = sum |cn_i| |x_i - h_i| >= min|cn| * max|x - h|, since x
    lies in the unit box and h_i = 1 exactly where cn_i < 0. So h is
    optimal, and the face probe could not move beyond
    TIE_FACE_EPS / min|cn| <= INTEGRALITY_TOL: the certificate below with
    sharpness min|cn|. A zero or near-zero LLR goes to the LP.

    Otherwise the LP is solved, and whether its optimum is unique is settled
    in one of two ways.

    Certified: the main solve's sharpness bound (``simplex.LpSolution``)
    puts every feasible point within TIE_FACE_EPS of the optimal value
    inside TIE_FACE_EPS / sharpness of the vertex in every coordinate. When
    TIE_FACE_EPS <= INTEGRALITY_TOL * sharpness, the face probe below could
    not move beyond the integrality tolerance in exact arithmetic, so it is
    skipped and the optimum is unique.

    Probed: otherwise the main solve continues over the optimal face
    {cn.x <= cn.x1 + TIE_FACE_EPS} (``simplex.minimize_on_face``: one row
    added to the final tableau, no second cold solve) and maximizes distance
    from the found vertex, starting there; if it moves beyond the integrality
    tolerance, a second optimum exists (its value within TIE_FACE_EPS of the
    first) and the instance is classified as a tie. The face carries only a
    1e-12 buffer: genuine ties sit within float error of the optimum, while
    a looser face would also sweep up near-tie instances whose optimum is
    merely shallow.
    """
    lamp = _llr_vector(g, lamp)
    cons = build_constraints(g)  # the degree cap holds even when no LP is solved
    mag = np.abs(lamp)
    scale = mag.max()
    # min|cn| is min|lamp| / scale: dividing by a positive scale keeps the order
    if scale > 0 and TIE_FACE_EPS <= INTEGRALITY_TOL * (mag.min() / scale):
        hard = (lamp < 0).astype(float)
        if not hard.any() or _parity_ok(g, hard):  # the zero word meets every check
            stats = {"uniqueness": "hard_decision", "main_pivots": 0, "probe_pivots": 0}
            objective = float(lamp.sum() - 2.0 * (lamp @ hard))
            return DecodeOutcome(status="integral", vertex=hard, objective=objective,
                                 codeword=hard.astype(np.uint8), stats=stats)

    cn = lamp / scale if scale > 0 else lamp.copy()
    sol = simplex.solve(cn, cons.a, cons.b)
    x1 = sol.x
    objective = float(lamp.sum() - 2.0 * (lamp @ x1))
    stats = {"uniqueness": "certified", "main_pivots": sol.iterations, "probe_pivots": 0}

    if TIE_FACE_EPS > INTEGRALITY_TOL * sol.sharpness:
        away = np.where(x1 >= 0.5, 1.0, -1.0)
        sol2 = simplex.minimize_on_face(sol, away, TIE_FACE_EPS)
        stats.update(uniqueness="probed", probe_pivots=sol2.iterations)
        if np.abs(sol2.x - x1).max() > INTEGRALITY_TOL:
            return DecodeOutcome(status="tie", vertex=x1, objective=objective, stats=stats)

    rounded = np.rint(x1)
    if np.abs(x1 - rounded).max() <= INTEGRALITY_TOL and _parity_ok(g, rounded):
        return DecodeOutcome(
            status="integral", vertex=x1, objective=objective,
            codeword=rounded.astype(np.uint8), stats=stats,
        )
    return DecodeOutcome(status="fractional", vertex=x1, objective=objective, stats=stats)


def _codeword_chunks(g):
    basis = gf2.nullspace_basis(g.parity_check_matrix())
    k, _ = basis.shape
    if k > MAX_DIMENSION:
        raise ValueError(f"code dimension {k} exceeds cap {MAX_DIMENSION}")
    words = basis.astype(np.int64)
    step = 1 << min(16, k)  # at most 2^16 codewords per chunk
    shifts = np.arange(k, dtype=np.int64)
    for lo in range(0, 1 << k, step):
        idx = np.arange(lo, min(lo + step, 1 << k), dtype=np.int64)
        msgs = (idx[:, None] >> shifts) & 1
        yield ((msgs @ words) % 2).astype(np.uint8)


def enumerate_codewords(g):
    """All solutions of the parity checks, as a (2^k, n) uint8 array.

    k = n - rank(H) over GF(2); capped at MAX_DIMENSION.
    """
    return np.vstack(list(_codeword_chunks(g)))


def ml_decode(g, lamp):
    """Brute-force maximum of the signal-domain correlation over all codewords.

    Returns (codeword, value). Exact ties resolve to the lexicographically
    smallest bit vector.
    """
    lamp = _llr_vector(g, lamp)
    total = lamp.sum()
    best_value = -np.inf
    best_bytes = None
    for chunk in _codeword_chunks(g):
        values = total - 2.0 * (chunk @ lamp)
        cmax = values.max()
        if cmax < best_value:
            continue
        for row in np.flatnonzero(values == cmax):
            key = chunk[row].tobytes()
            if cmax > best_value or key < best_bytes:
                best_value = float(cmax)
                best_bytes = key
    codeword = np.frombuffer(best_bytes, dtype=np.uint8).copy()
    return codeword, best_value
