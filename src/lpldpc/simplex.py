"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves min/max c.x subject to A x <= b, x >= 0. Rows with negative
right-hand side get phase-1 artificials; the returned point is always a
basic feasible solution, i.e. a vertex of the feasible region. Pivoting is
fully deterministic.

The tableau is condensed: it keeps one column per nonbasic variable (plus
the right-hand side) and none for the basic ones, whose columns are unit
vectors. Variables carry labels (structurals 0..n-1, slacks n..n+m-1,
artificials after them); ``basis`` holds the label basic in each row and
``nonbasic`` the label of each column. A pivot is one dense Jordan
exchange: the entering and leaving labels swap places, and every stored
entry gets exactly the arithmetic of the full-tableau rank-one update.
Bland's rule picks the lowest entering and leaving labels, so the pivot
sequence, bases and solutions are those of the full tableau (a zero may
differ in sign).

Each solution carries a sharpness bound read from the final tableau:
sharpness = r_min / max(1, max|T_N|), where r_min is the smallest reduced
cost in the phase-2 objective row and T_N the final constraint rows, both
over the nonbasic columns, which are all the columns stored (0 when
r_min <= 0). Along the nonbasic coordinates the objective rises by at least
r_min * sum(x_N), and each basic coordinate moves by at most
max|T_N| * sum(x_N). So any feasible x, slacks included, with
c.x <= c.x* + eps lies within eps / sharpness of x* in every coordinate;
sharpness > 0 certifies that the optimum is unique (Mangasarian,
"Uniqueness of solution in linear programming", Linear Algebra Appl. 25,
1979).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PIVOT_TOL",
    "MAX_ITER",
    "LpSolution",
    "SimplexError",
    "IterationLimitError",
    "UnboundedError",
    "InfeasibleError",
    "solve",
]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
MAX_ITER = 1_000_000


class SimplexError(RuntimeError):
    pass


class IterationLimitError(SimplexError):
    """Pivot cap exceeded; the tableau state is reported, never returned."""


class UnboundedError(SimplexError):
    """The objective improves without bound along a feasible ray."""


class InfeasibleError(SimplexError):
    """Phase 1 could not drive the artificial variables to zero."""


@dataclass
class LpSolution:
    x: np.ndarray
    value: float
    basis: np.ndarray
    iterations: int
    sharpness: float


def _exchange(tab, basis, nonbasic, row, s):
    """Jordan exchange: ``nonbasic[s]`` enters the basis at ``row`` and the
    variable it replaces takes over column ``s``."""
    p = tab[row, s]
    prow = tab[row] / p
    prow[s] = 1.0 / p
    f = tab[:, s].copy()
    f[row] = 0.0
    tab[:, s] = 0.0
    tab -= np.outer(f, prow)
    tab[row] = prow
    basis[row], nonbasic[s] = nonbasic[s], basis[row]


def _set_objective(tab, basis, nonbasic, cost):
    tab[-1, :-1] = cost[nonbasic]
    tab[-1, -1] = 0.0
    cb = cost[basis]
    for r in np.flatnonzero(cb):
        tab[-1] -= cb[r] * tab[r]


def _pivot_loop(tab, basis, nonbasic, max_iter, used):
    """Run Bland pivots to optimality; returns total iteration count."""
    rows = tab.shape[0] - 1
    it = used
    while True:
        candidates = np.flatnonzero(tab[-1, :-1] < -PIVOT_TOL)
        if candidates.size == 0:
            return it
        s = int(candidates[np.argmin(nonbasic[candidates])])  # Bland: lowest label enters
        column = tab[:rows, s]
        pos = np.flatnonzero(column > PIVOT_TOL)
        if pos.size == 0:
            raise UnboundedError(f"objective unbounded along column {nonbasic[s]}")
        ratios = tab[pos, -1] / column[pos]
        rmin = ratios.min()
        ties = pos[ratios == rmin]
        row = int(ties[np.argmin(basis[ties])])  # Bland: lowest basic label leaves
        col = int(nonbasic[s])
        _exchange(tab, basis, nonbasic, row, s)
        it += 1
        if it > max_iter:
            raise IterationLimitError(
                f"no optimum within {max_iter} pivots; "
                f"current objective {-tab[-1, -1]:.6g}, last pivot ({row}, {col})"
            )


def _solve_min(c, a, b, max_iter):
    m, n = a.shape
    flip = b < 0
    art_rows = np.flatnonzero(flip)
    nart = art_rows.size

    # Labels: structurals 0..n-1, slacks n..n+m-1, artificials from n+m.
    # Nonbasic at the start: every structural and the slack of each flipped
    # row; the other slacks and the artificials form the basis.
    nonbasic = np.concatenate([np.arange(n), n + art_rows])
    tab = np.zeros((m + 1, nonbasic.size + 1))
    tab[:m, :n] = a
    tab[art_rows, :n] = -a[art_rows]
    tab[art_rows, n + np.arange(nart)] = -1.0
    tab[:m, -1] = np.where(flip, -b, b)
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(nart)

    iters = 0
    if nart:
        cost1 = np.zeros(n + m + nart)
        cost1[n + m:] = 1.0
        _set_objective(tab, basis, nonbasic, cost1)
        iters = _pivot_loop(tab, basis, nonbasic, max_iter, iters)
        if -tab[-1, -1] > FEAS_TOL:
            raise InfeasibleError(f"phase-1 optimum {-tab[-1, -1]:.3e} > 0")
        # Drive leftover artificials out of the basis; drop rows that turn
        # out to be redundant (all structural coefficients eliminated).
        keep = np.ones(m + 1, dtype=bool)
        for r in range(m):
            if basis[r] >= n + m:
                ok = np.flatnonzero((nonbasic < n + m) & (np.abs(tab[r, :-1]) > PIVOT_TOL))
                if ok.size:
                    _exchange(tab, basis, nonbasic, r, int(ok[np.argmin(nonbasic[ok])]))
                    iters += 1
                else:
                    keep[r] = False
        real = np.append(nonbasic < n + m, True)  # drop the nonbasic artificials
        tab = tab[np.ix_(keep, real)]
        basis, nonbasic = basis[keep[:m]], nonbasic[real[:-1]]

    cost2 = np.zeros(n + m)
    cost2[:n] = c
    _set_objective(tab, basis, nonbasic, cost2)
    iters = _pivot_loop(tab, basis, nonbasic, max_iter, iters)

    full = np.zeros(n + m)
    full[basis] = tab[:-1, -1]
    x = full[:n].copy()
    # Sharpness (module docstring); inf when no column is nonbasic.
    r_min = tab[-1, :-1].min(initial=np.inf)
    sharpness = r_min / max(1.0, np.abs(tab[:-1, :-1]).max(initial=0.0)) if r_min > 0 else 0.0
    return LpSolution(x=x, value=float(c @ x), basis=basis.copy(), iterations=iters,
                      sharpness=float(sharpness))


def solve(c, a, b, sense="min", max_iter=MAX_ITER):
    """Optimize c.x over {A x <= b, x >= 0}.

    Returns an LpSolution whose ``x`` is an optimal basic feasible solution
    and whose ``sharpness`` bounds the optimal face (see the module
    docstring): every feasible x within eps of the optimal value lies within
    eps / sharpness of ``x`` in every coordinate. ``basis`` lists the
    variable basic in each row (structurals 0..n-1, slacks from n; rows that
    phase 1 found redundant are dropped) and ``iterations`` counts pivots.
    The work is one condensed tableau: (m+1) x (n+1) entries in phase 2,
    one more column per flipped row in phase 1.
    Raises UnboundedError / InfeasibleError / IterationLimitError rather than
    ever returning a suboptimal point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2:
        raise ValueError("A must be a 2-d array")
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError(f"shape mismatch: A is {a.shape}, b is {b.shape}, c is {c.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("LP data must be finite")
    if sense == "min":
        return _solve_min(c, a, b, max_iter)
    if sense == "max":
        sol = _solve_min(-c, a, b, max_iter)
        return dataclasses.replace(sol, value=float(c @ sol.x))
    raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
