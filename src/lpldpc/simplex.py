"""Dense primal simplex with Bland's anti-cycling rule.

Solves min c.x subject to A x <= b, x >= 0 with b >= 0, so the slack
basis at the origin is feasible and there is no phase 1; the returned
point is always a basic feasible solution, i.e. a vertex of the feasible
region. Pivoting is fully deterministic.

The tableau is condensed: it keeps one column per nonbasic variable (plus
the right-hand side) and none for the basic ones, whose columns are unit
vectors. Variables carry labels (structurals 0..n-1, slacks n..n+m-1);
``basis`` holds the label basic in each row and ``nonbasic`` the label of
each column. A pivot is one dense Jordan exchange: the entering and
leaving labels swap places, and every stored entry gets exactly the
arithmetic of the full-tableau rank-one update. Bland's rule picks the
lowest entering and leaving labels, so the pivot sequence, bases and
solutions are those of the full tableau (a zero may differ in sign).

Each solution carries a sharpness bound read from the final tableau:
sharpness = r_min / max(1, max|T_N|), where r_min is the smallest reduced
cost in the final objective row and T_N the final constraint rows, both
over the nonbasic columns, which are all the columns stored (0 when
r_min <= 0). Along the nonbasic coordinates the objective rises by at least
r_min * sum(x_N), and each basic coordinate moves by at most
max|T_N| * sum(x_N). So any feasible x, slacks included, with
c.x <= c.x* + eps lies within eps / sharpness of x* in every coordinate;
sharpness > 0 certifies that the optimum is unique (Mangasarian,
"Uniqueness of solution in linear programming", Linear Algebra Appl. 25,
1979).

``minimize_on_face`` continues a solved tableau over the optimal face.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PIVOT_TOL",
    "MAX_ITER",
    "LpSolution",
    "SimplexError",
    "IterationLimitError",
    "UnboundedError",
    "solve",
    "minimize_on_face",
]

PIVOT_TOL = 1e-9
MAX_ITER = 1_000_000


class SimplexError(RuntimeError):
    pass


class IterationLimitError(SimplexError):
    """Pivot cap exceeded; the tableau state is reported, never returned."""


class UnboundedError(SimplexError):
    """The objective improves without bound along a feasible ray."""


@dataclass
class LpSolution:
    x: np.ndarray
    value: float
    basis: np.ndarray
    iterations: int
    sharpness: float
    # The final condensed tableau (tab, nonbasic), whose row labels are
    # ``basis``, continued by ``minimize_on_face``.
    tableau: tuple | None = field(default=None, repr=False, compare=False)


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


def _pivot_loop(tab, basis, nonbasic):
    """Run Bland pivots to optimality; returns the pivot count. Raises
    IterationLimitError past ``MAX_ITER`` pivots, read at call time."""
    rows, cap = tab.shape[0] - 1, MAX_ITER
    it = 0
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
        if it > cap:
            raise IterationLimitError(
                f"no optimum within {cap} pivots; "
                f"current objective {-tab[-1, -1]:.6g}, last pivot ({row}, {col})"
            )


def _optimize(tab, basis, nonbasic, cost):
    """Price ``cost``, on structural labels 0..len(cost)-1, into the last
    row of a feasible tableau and pivot it to an optimum."""
    full = np.zeros(nonbasic.size + basis.size)
    full[:cost.size] = cost
    _set_objective(tab, basis, nonbasic, full)
    iters = _pivot_loop(tab, basis, nonbasic)
    values = np.zeros(full.size)
    values[basis] = tab[:-1, -1]
    x = values[:cost.size].copy()
    # Sharpness (module docstring); inf when no column is nonbasic.
    r_min = tab[-1, :-1].min(initial=np.inf)
    sharpness = r_min / max(1.0, np.abs(tab[:-1, :-1]).max(initial=0.0)) if r_min > 0 else 0.0
    return LpSolution(x=x, value=float(cost @ x), basis=basis, iterations=iters,
                      sharpness=float(sharpness), tableau=(tab, nonbasic))


def solve(c, a, b):
    """Minimize c.x over {A x <= b, x >= 0}, for b >= 0.

    The slack basis at the origin is feasible, so Bland pivots start there.
    Returns an LpSolution whose ``x`` is an optimal basic feasible solution
    and whose ``sharpness`` bounds the optimal face (see the module
    docstring): every feasible x within eps of the optimal value lies within
    eps / sharpness of ``x`` in every coordinate. ``basis`` lists the
    variable basic in each row (structurals 0..n-1, slacks from n) and
    ``iterations`` counts pivots. The work is one condensed tableau of
    (m+1) x (n+1) entries, kept on the solution for ``minimize_on_face``.
    Raises ValueError on a negative right-hand side, UnboundedError, and
    IterationLimitError past ``MAX_ITER`` pivots, rather than ever returning
    a suboptimal point.
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
    if (b < 0).any():
        raise ValueError(f"right-hand side must be >= 0, got {b.min():.6g}")
    # Structurals 0..n-1 start nonbasic at 0, slacks n..n+m-1 basic at b.
    tab = np.zeros((m + 1, n + 1))
    tab[:m, :n] = a
    tab[:m, -1] = b
    return _optimize(tab, n + np.arange(m), np.arange(n), c)


def minimize_on_face(sol, cost, eps):
    """Minimize cost.x over the optimal face of ``sol``'s LP, from ``sol.x``.

    The face adds c.x <= c.x* + eps, c the cost ``sol`` minimized. ``sol``'s
    final objective row reads c.x = c.x* + r_N.x_N, so that is the row
    r_N.x_N <= eps, whose slack (label n + m) is basic at eps >= 0: ``sol``'s
    basis stays feasible and Bland pivots run from it, with no phase 1.
    Returns an LpSolution, or raises, as ``solve`` does; ``iterations``
    counts the face pivots. ``sol``'s tableau is left as it was.
    """
    tab0, nonbasic = sol.tableau
    basis = sol.basis
    m, n = basis.size, nonbasic.size
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (n,) or not np.isfinite(cost).all():
        raise ValueError(f"expected a finite length-{n} cost, got shape {cost.shape}")
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    tab = np.vstack([tab0, tab0[-1:]])  # the objective row becomes the face row
    tab[m, -1] = eps
    return _optimize(tab, np.append(basis, n + m), nonbasic.copy(), cost)
