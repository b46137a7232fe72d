"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves min/max c.x subject to A x <= b, x >= 0. Rows with negative
right-hand side get phase-1 artificials; the returned point is always a
basic feasible solution, i.e. a vertex of the feasible region. Pivoting is
fully deterministic.

The tableau is dense, but a pivot updates it in place only at the rows where
the pivot column is nonzero and the columns where the pivot row is nonzero:
no other entry can change. Each updated entry gets the same arithmetic as a
full rank-one update, so the pivot sequence, bases and solutions are those
of the full update (a zero may keep its sign where the full update would
flip it).

Each solution carries a sharpness bound read from the final tableau:
sharpness = r_min / max(1, max|T_N|), where r_min is the smallest reduced
cost over the nonbasic columns of the phase-2 objective row and T_N the
final constraint rows restricted to those columns (0 when r_min <= 0).
Along the nonbasic coordinates the objective rises by at least
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


def _pivot(tab, basis, row, col):
    prow = tab[row]
    prow /= prow[col]
    rows = np.flatnonzero(tab[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(prow)
    # Flat indices of the rows x cols block; tab is C-contiguous, so the
    # reshape is a view and the update lands in the tableau.
    block = (rows * tab.shape[1])[:, None] + cols
    tab.reshape(-1)[block] -= np.outer(tab[rows, col], prow[cols])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _set_objective(tab, basis, cost):
    tab[-1, :-1] = cost
    tab[-1, -1] = 0.0
    cb = cost[basis]
    for r in np.flatnonzero(cb):
        tab[-1] -= cb[r] * tab[r]


def _pivot_loop(tab, basis, max_iter, tol, used):
    """Run Bland pivots to optimality; returns total iteration count."""
    rows = tab.shape[0] - 1
    it = used
    while True:
        red = tab[-1, :-1]
        candidates = np.flatnonzero(red < -tol)
        if candidates.size == 0:
            return it
        col = int(candidates[0])  # Bland: lowest eligible column index enters
        column = tab[:rows, col]
        pos = np.flatnonzero(column > tol)
        if pos.size == 0:
            raise UnboundedError(f"objective unbounded along column {col}")
        ratios = tab[pos, -1] / column[pos]
        rmin = ratios.min()
        ties = pos[ratios == rmin]
        row = int(ties[np.argmin(basis[ties])])  # Bland: lowest basic index leaves
        _pivot(tab, basis, row, col)
        it += 1
        if it > max_iter:
            raise IterationLimitError(
                f"no optimum within {max_iter} pivots; "
                f"current objective {-tab[-1, -1]:.6g}, last pivot ({row}, {col})"
            )


def _solve_min(c, a, b, max_iter, tol):
    m, n = a.shape
    flip = b < 0
    art_rows = np.flatnonzero(flip)
    nart = art_rows.size
    ncols = n + m + nart

    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :n] = a
    tab[art_rows, :n] = -a[art_rows]
    tab[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    tab[art_rows, n + m + np.arange(nart)] = 1.0
    tab[:m, -1] = np.where(flip, -b, b)
    basis = (n + np.arange(m)).astype(np.int64)
    basis[art_rows] = n + m + np.arange(nart)

    iters = 0
    if nart:
        cost1 = np.zeros(ncols)
        cost1[n + m:] = 1.0
        _set_objective(tab, basis, cost1)
        iters = _pivot_loop(tab, basis, max_iter, tol, iters)
        if -tab[-1, -1] > FEAS_TOL:
            raise InfeasibleError(f"phase-1 optimum {-tab[-1, -1]:.3e} > 0")
        # Drive leftover artificials out of the basis; drop rows that turn
        # out to be redundant (all structural coefficients eliminated).
        drop = []
        for r in range(m):
            if basis[r] >= n + m:
                row = tab[r, :n + m]
                nz = np.flatnonzero(np.abs(row) > tol)
                if nz.size:
                    _pivot(tab, basis, r, int(nz[0]))
                    iters += 1
                else:
                    drop.append(r)
        if drop:
            keep = [r for r in range(m) if r not in drop]
            tab = np.vstack([tab[keep], tab[-1:]])
            basis = basis[keep]
        tab = np.delete(tab, np.s_[n + m:n + m + nart], axis=1)

    cost2 = np.zeros(n + m)
    cost2[:n] = c
    _set_objective(tab, basis, cost2)
    iters = _pivot_loop(tab, basis, max_iter, tol, iters)

    rows = tab.shape[0] - 1
    full = np.zeros(n + m)
    full[basis[:rows]] = tab[:rows, -1]
    x = full[:n].copy()
    return LpSolution(x=x, value=float(c @ x), basis=basis.copy(), iterations=iters,
                      sharpness=_sharpness(tab, basis))


def _sharpness(tab, basis):
    """r_min / max(1, max|T_N|) over the nonbasic columns; 0 unless r_min > 0.

    With no nonbasic column (no structural variables) it is inf.
    """
    nonbasic = np.ones(tab.shape[1] - 1, dtype=bool)
    nonbasic[basis] = False
    cols = np.flatnonzero(nonbasic)
    r_min = tab[-1, cols].min(initial=np.inf)
    if not r_min > 0:
        return 0.0
    return float(r_min / max(1.0, np.abs(tab[:-1, cols]).max(initial=0.0)))


def solve(c, a, b, sense="min", max_iter=MAX_ITER, tol=PIVOT_TOL):
    """Optimize c.x over {A x <= b, x >= 0}.

    Returns an LpSolution whose ``x`` is an optimal basic feasible solution
    and whose ``sharpness`` bounds the optimal face (see the module
    docstring): every feasible x within eps of the optimal value lies within
    eps / sharpness of ``x`` in every coordinate.
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
        return _solve_min(c, a, b, max_iter, tol)
    if sense == "max":
        sol = _solve_min(-c, a, b, max_iter, tol)
        return dataclasses.replace(sol, value=float(c @ sol.x))
    raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
