"""Independent brute-force oracles used to pin expected values in tests.

Nothing here may call the code paths it checks: distances come from
Floyd-Warshall rather than BFS, tail probabilities from scipy's erfc rather
than math.erfc, vertex enumeration from qhull (and raw basis enumeration at
tiny sizes) rather than the simplex solver, polytope membership from every
odd-subset row rather than the sorted prefix sums, and profile scaling from
bisection rather than the closed form, and the witness optimum from the
pairwise edge-weight LP (one row per pair of edges at a check) rather than
from the cone generators. The stopping-set core comes from a queue peel, one
check at a time, rather than from frontier rounds over the edge arrays, and
the witness of a peeled graph from back-substitution down that peel order. The dense solver below keeps the full tableau,
basic columns included, and pivots by a full rank-one update; the
condensed tableau's exchanges must follow its pivot path exactly, on a
cold solve and on a continuation over the optimal face. It keeps the
phase 1 that the library's simplex no longer has, so it also solves the
LPs here whose right-hand side is negative. The
witness LP is also built entry by entry to pin its vectorized assembly.
The per-check scaling loop is the one the vectorized scaling replaced, kept
as its reference, and so are the Tanner graph layer's per-edge constructor,
its per-token alist parser, its queue BFS and its rejection sampler with
``np.unique``, which the array versions must match exactly. The pseudo-weight scan keeps its separate
connectivity BFS per sampled graph, which the scan's retry loop, reading
connectivity from the first completion, must match row for row. The
always-probe decoder is ``lp_decode`` before it read uniqueness from the
final tableau, with its probe solved cold by the dense solver; the certified
decoder, whose probe continues the main solve, must return the same
outcome. The
delta-matching verdict comes from Edmonds-Karp max flow on an explicit
network with source and sink, rather than from augmenting paths on the
Tanner graph, and the witness check from weights keyed by (variable, check)
in a dict, rather than from edge arrays. The one-check-per-search matching
is ``find_delta_matching`` before roots took their own free checks in one
pass; the new search must return the same owner arrays. The cell-major
``run_wer`` and ``run_witness_rate`` redraw each trial's noise (and
codeword) in every (map, sigma2) cell through ``transmit_awgn``; the
trial-major drivers, which draw them once per trial, must write the same
CSV bytes.
"""

import itertools
import math
from collections import deque

import numpy as np
from scipy.spatial import HalfspaceIntersection
from scipy.special import erfc


def q_tail(x):
    return float(0.5 * erfc(x / math.sqrt(2.0)))


def floyd_warshall_distances(g):
    """All-pairs distances over variables (0..n-1) then checks (n..n+m-1)."""
    size = g.n + g.m
    dist = np.full((size, size), np.inf)
    np.fill_diagonal(dist, 0.0)
    for j, nbrs in enumerate(g.check_nbrs):
        for i in nbrs:
            dist[i, g.n + j] = dist[g.n + j, i] = 1.0
    for k in range(size):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def _halfspace_rows(cons):
    # Append the lower bounds; build_constraints only carries x <= 1 boxes.
    a = np.vstack([cons.a, -np.eye(cons.n)])
    b = np.concatenate([cons.b, np.zeros(cons.n)])
    return a, b


def vertices_by_qhull(cons):
    """All vertices of {a x <= b, 0 <= x <= 1} via halfspace intersection.

    Requires (1/2, ..., 1/2) to be strictly interior, which holds whenever
    every check degree is at least 3.
    """
    a, b = _halfspace_rows(cons)
    halfspaces = np.hstack([a, -b[:, None]])
    interior = np.full(cons.n, 0.5)
    return HalfspaceIntersection(halfspaces, interior).intersections


def vertices_by_bases(cons, tol=1e-9):
    """Vertex enumeration by trying every n-subset of constraint rows.

    Exponential; only usable for n <= 5 or so. Serves to cross-validate the
    qhull route on tiny instances.
    """
    a, b = _halfspace_rows(cons)
    n = cons.n
    found = []
    for rows in itertools.combinations(range(len(b)), n):
        sub = a[list(rows)]
        try:
            v = np.linalg.solve(sub, b[list(rows)])
        except np.linalg.LinAlgError:
            continue
        if (a @ v <= b + tol).all():
            found.append(v)
    return np.array(found)


def best_vertex_value(vertices, c, sense="max"):
    values = vertices @ np.asarray(c, dtype=float)
    return float(values.max() if sense == "max" else values.min())


def alpha_by_bisection(membership, g, profile, iters=80):
    """Largest feasible scaling of a profile, via bisection on membership."""
    profile = np.asarray(profile, dtype=float)
    hi = 1.0 / profile.max()
    if membership(g, hi * profile):
        return hi
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if membership(g, mid * profile):
            lo = mid
        else:
            hi = mid
    return lo


def membership_by_rows(g, w, tol=1e-8):
    """Polytope membership tested on every box and odd-subset row.

    Each size-s subset S of a check gives the row
    sum_S w - sum_rest w <= s - 1, evaluated as a +-1 matrix product.
    Exponential in the check degree.
    """
    w = np.asarray(w, dtype=float)
    if not ((w >= -tol) & (w <= 1.0 + tol)).all():
        return False  # NaN fails both comparisons
    for nbrs in g.check_nbrs:
        for size in range(1, len(nbrs) + 1, 2):
            subsets = np.array(list(itertools.combinations(range(len(nbrs)), size)))
            rows = -np.ones((len(subsets), len(nbrs)))
            np.put_along_axis(rows, subsets, 1.0, axis=1)
            if not (rows @ w[list(nbrs)] <= size - 1 + tol).all():
                return False
    return True


def alpha_by_check_loop(g, profile):
    """Closed-form profile scaling, one check and one odd size at a time.

    The loop ``max_scaling_alpha`` ran before its checks were vectorized;
    the vectorized form must return the same float. Its cut-offs are
    relative to max(profile), like the vectorized form's.
    """
    p = np.asarray(profile, dtype=float)
    alpha = 1.0 / p.max()
    for j, nbrs in enumerate(g.check_nbrs):
        if not nbrs:
            continue
        vals = np.sort(p[list(nbrs)])[::-1]
        total = vals.sum()
        if 2.0 * vals[0] > total + 1e-9 * p.max():
            raise ValueError(
                f"check {j}: size-1 odd-subset constraint fails for the profile "
                "(not a tier profile of a regular graph?)"
            )
        csum = np.cumsum(vals)
        for s in range(3, len(vals) + 1, 2):
            gap = 2.0 * csum[s - 1] - total
            if gap > 1e-12 * p.max():
                alpha = min(alpha, (s - 1) / gap)
    return float(alpha)


def var_regular_graph(n, d_v, m, seed):
    """Variable-regular bipartite graph with random check sides.

    Simple by construction (each variable samples d_v distinct checks);
    check degrees are whatever the sampling produces. This is the synthetic
    construction used for proof-scale variable degrees, where rejection
    sampling of doubly regular graphs cannot succeed.
    """
    from lpldpc import TannerGraph

    rng = np.random.default_rng(seed)
    rows = [[] for _ in range(m)]
    for i in range(n):
        for j in rng.choice(m, size=d_v, replace=False):
            rows[j].append(i)
    return TannerGraph(n, [sorted(r) for r in rows])


def dense_pivot(tab, basis, row, col):
    """Bland-simplex pivot as a full rank-one update of the whole tableau."""
    tab[row] /= tab[row, col]
    other = tab[:, col].copy()
    other[row] = 0.0
    tab -= np.outer(other, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def dense_set_objective(tab, basis, cost):
    """Objective row priced out by a scan over every basic row."""
    rows = tab.shape[0] - 1
    tab[-1, :-1] = cost
    tab[-1, -1] = 0.0
    for r in range(rows):
        cb = cost[basis[r]]
        if cb != 0.0:
            tab[-1] -= cb * tab[r]


def _dense_pivot_loop(tab, basis, max_iter, tol, used):
    from lpldpc.simplex import IterationLimitError, UnboundedError

    rows = tab.shape[0] - 1
    it = used
    while True:
        candidates = np.flatnonzero(tab[-1, :-1] < -tol)
        if candidates.size == 0:
            return it
        col = int(candidates[0])
        column = tab[:rows, col]
        pos = np.flatnonzero(column > tol)
        if pos.size == 0:
            raise UnboundedError(f"objective unbounded along column {col}")
        ratios = tab[pos, -1] / column[pos]
        ties = pos[ratios == ratios.min()]
        dense_pivot(tab, basis, int(ties[np.argmin(basis[ties])]), col)
        it += 1
        if it > max_iter:
            raise IterationLimitError(f"no optimum within {max_iter} pivots")


FEAS_TOL = 1e-8  # largest phase-1 optimum that dense_solve accepts as feasible


class InfeasibleError(RuntimeError):
    """``dense_solve``'s phase 1 could not drive the artificials to zero."""


def _dense_optimum(c, a, b, sense, max_iter):
    """(full tableau, basis, pivots) at ``dense_solve``'s optimum."""
    from lpldpc.simplex import MAX_ITER, PIVOT_TOL

    max_iter = MAX_ITER if max_iter is None else max_iter
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    sign = {"min": 1.0, "max": -1.0}[sense]
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
        dense_set_objective(tab, basis, cost1)
        iters = _dense_pivot_loop(tab, basis, max_iter, PIVOT_TOL, iters)
        if -tab[-1, -1] > FEAS_TOL:
            raise InfeasibleError(f"phase-1 optimum {-tab[-1, -1]:.3e} > 0")
        drop = []
        for r in range(m):
            if basis[r] >= n + m:
                nz = np.flatnonzero(np.abs(tab[r, :n + m]) > PIVOT_TOL)
                if nz.size:
                    dense_pivot(tab, basis, r, int(nz[0]))
                    iters += 1
                else:
                    drop.append(r)
        keep = [r for r in range(m) if r not in drop]
        tab = np.delete(np.vstack([tab[keep], tab[-1:]]), np.s_[n + m:n + m + nart], axis=1)
        basis = basis[keep]

    cost2 = np.zeros(n + m)
    cost2[:n] = sign * c
    dense_set_objective(tab, basis, cost2)
    return tab, basis, _dense_pivot_loop(tab, basis, max_iter, PIVOT_TOL, iters)


def _dense_solution(c, tab, basis, iters):
    """LpSolution of an optimal full tableau; structurals are 0..len(c)-1."""
    from lpldpc.simplex import LpSolution

    full = np.zeros(tab.shape[1] - 1)
    full[basis] = tab[:-1, -1]
    x = full[:c.size].copy()
    nonbasic = np.ones(full.size, dtype=bool)
    nonbasic[basis] = False
    r_min = tab[-1, :-1][nonbasic].min(initial=np.inf)
    scale = max(1.0, np.abs(tab[:-1, :-1][:, nonbasic]).max(initial=0.0))
    return LpSolution(x=x, value=float(c @ x), basis=basis.copy(), iterations=iters,
                      sharpness=float(r_min / scale) if r_min > 0 else 0.0)


def dense_solve(c, a, b, sense="min", max_iter=None):
    """Two-phase Bland simplex on the full tableau: every basic column kept
    as a unit vector, artificials removed by deleting their columns after
    phase 1. Same rules, labels and outputs as ``lpldpc.simplex.solve``,
    which takes b >= 0 only; here a negative right-hand side gets a phase-1
    artificial, so this solver also serves LPs that start infeasible."""
    c = np.asarray(c, dtype=float)
    return _dense_solution(c, *_dense_optimum(c, a, b, sense, max_iter))


def dense_minimize_on_face(lp, cost, eps, sense="min"):
    """Full-tableau reference of
    ``simplex.minimize_on_face(simplex.solve(*lp), cost, eps)``, the face
    of a max being that of the min of -c.x.

    ``dense_solve``'s final tableau for ``lp = (c, a, b)`` under ``sense``
    gains the face row, its objective row with the basic columns zeroed and
    right-hand side eps, and that row's slack column; Bland pivots on
    ``cost`` run from that basis. ``iterations`` counts the face pivots only.
    """
    from lpldpc.simplex import MAX_ITER, PIVOT_TOL

    c, a, b = lp
    tab, basis, _ = _dense_optimum(np.asarray(c, dtype=float), a, b, sense, None)
    rows, labels = tab.shape[0] - 1, tab.shape[1] - 1
    face = np.zeros((rows + 2, labels + 2))
    face[:rows, :labels] = tab[:rows, :labels]
    face[:rows, -1] = tab[:rows, -1]
    face[rows, :labels] = tab[-1, :labels]
    face[rows, basis] = 0.0
    face[rows, labels] = 1.0
    face[rows, -1] = eps
    basis = np.append(basis, labels)
    cost = np.asarray(cost, dtype=float)
    full = np.zeros(labels + 1)
    full[:cost.size] = cost
    dense_set_objective(face, basis, full)
    return _dense_solution(cost, face, basis, _dense_pivot_loop(face, basis, MAX_ITER, PIVOT_TOL, 0))


def witness_lp_by_loops(g, lamp):
    """(c, A, b) of the witness LP over all of ``g``, one constraint entry at
    a time: the reference form, whose optimum is s*.

    Columns: mu per edge in ``g.edges()`` order, then s+ and s-. Rows: one
    per variable, sum_{j in N(i)} (M_j - 2 mu_ij) + s <= llr_i, then the
    cap s <= max|llr| (1 when every LLR is 0). ``witness_search`` solves
    the same LP on the stopping-set core, with s shifted by the least core
    LLR, no cap row and one column for the shifted s.
    """
    edges = g.edges()
    ne = len(edges)
    eidx = {e: k for k, e in enumerate(edges)}
    a = np.zeros((g.n + 1, ne + 2))
    for j, nbrs in enumerate(g.check_nbrs):
        for i_own in nbrs:
            k = eidx[(i_own, j)]
            for i in nbrs:
                a[i, k] += 1.0  # mu_i'j is part of M_j in every row at check j
            a[i_own, k] -= 2.0
    for r in range(g.n + 1):
        a[r, ne] = 1.0
        a[r, ne + 1] = -1.0
    b = np.zeros(g.n + 1)
    b[:g.n] = lamp
    b[g.n] = np.abs(lamp).max() or 1.0
    c = np.zeros(ne + 2)
    c[ne] = 1.0
    c[ne + 1] = -1.0
    return c, a, b


def stopping_core_by_queue(g):
    """(core, order): the variables peeling never frees, ascending, and the
    (variable, check) pairs it frees them by, in order. A check with exactly
    one live neighbour frees it; checks enter the queue as their count of
    live neighbours falls to 1."""
    check_nbrs, var_nbrs = g.check_nbrs, g.var_nbrs
    live = [True] * g.n
    count = [len(nbrs) for nbrs in check_nbrs]
    queue = deque(j for j in range(g.m) if count[j] == 1)
    order = []
    while queue:
        j = queue.popleft()
        if count[j] != 1:
            continue  # its last live neighbour was freed by another check
        (i,) = [v for v in check_nbrs[j] if live[v]]
        live[i] = False
        order.append((i, j))
        for k in var_nbrs[i]:
            count[k] -= 1
            if count[k] == 1:
                queue.append(k)
    return [i for i in range(g.n) if live[i]], order


def lift_core_witness(g, order, core_mu, s, lamp):
    """Edge weights tau, in ``g.edges()`` order, from a vertex of the witness
    LP on the stopping-set core.

    ``core_mu`` maps each core edge (variable, check) to its mu; every other
    mu starts at 0. Walking the peel ``order`` backwards, the mu of each freed
    (variable, check) pair is raised just enough that llr_i - sum_j tau_ij
    >= s. It adds to the rows of that check's other variables only, which
    were freed earlier and so come later in the walk.
    """
    mu = dict.fromkeys(g.edges(), 0.0)
    mu.update(core_mu)
    check_nbrs, var_nbrs = g.check_nbrs, g.var_nbrs

    def tau(i, j):
        return sum(mu[(k, j)] for k in check_nbrs[j]) - 2.0 * mu[(i, j)]

    for i, j in reversed(order):
        mu[(i, j)] = max(0.0, sum(tau(i, k) for k in var_nbrs[i]) + s - lamp[i])
    return np.array([tau(i, j) for i, j in g.edges()])


def pairwise_witness_lp_by_loops(g, lamp):
    """(c, A, b) of the witness LP over edge weights, one row per edge pair.

    Columns: tau+ per edge, tau- per edge, then s+ and s-. Rows:
    tau_ij + tau_i'j >= 0 for every pair at a check, then
    sum_j tau_ij + s <= llr_i per variable and the cap s <= max|llr| (1 when
    every LLR is 0). This is the direct form of the witness conditions, the
    reference optimum for ``witness_search``'s cone-generator LP.
    """
    edges = g.edges()
    ne = len(edges)
    eidx = {e: k for k, e in enumerate(edges)}
    sp, sm = 2 * ne, 2 * ne + 1
    npairs = sum(len(r) * (len(r) - 1) // 2 for r in g.check_nbrs)
    a = np.zeros((npairs + g.n + 1, 2 * ne + 2))
    b = np.zeros(npairs + g.n + 1)
    r = 0
    for j, nbrs in enumerate(g.check_nbrs):
        for i1, i2 in itertools.combinations(sorted(nbrs), 2):
            k1, k2 = eidx[(i1, j)], eidx[(i2, j)]
            a[r, [k1, k2]] = -1.0
            a[r, [ne + k1, ne + k2]] = 1.0
            r += 1
    var_nbrs = g.var_nbrs
    for i in range(g.n):
        for j in var_nbrs[i]:
            k = eidx[(i, j)]
            a[r, k] = 1.0
            a[r, ne + k] = -1.0
        a[r, sp] = 1.0
        a[r, sm] = -1.0
        b[r] = lamp[i]
        r += 1
    a[r, sp] = 1.0
    a[r, sm] = -1.0
    b[r] = np.abs(lamp).max() or 1.0
    c = np.zeros(2 * ne + 2)
    c[sp] = 1.0
    c[sm] = -1.0
    return c, a, b


def tanner_views_by_loops(n, check_nbrs):
    """(check_nbrs, var_nbrs) tuples as the per-edge constructor built them.

    Raises the constructor's ValueError at the first offender in row-major
    order: a range error before a repeated edge at the same entry.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one variable node")
    rows = tuple(tuple(int(i) for i in row) for row in check_nbrs)
    if not rows:
        raise ValueError("need at least one check node")
    var_nbrs = [[] for _ in range(n)]
    seen = set()
    for j, row in enumerate(rows):
        for i in row:
            if not 0 <= i < n:
                raise ValueError(f"check {j}: variable index {i} out of range [0, {n})")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge between variable {i} and check {j}")
            seen.add((i, j))
    for j, row in enumerate(rows):
        for i in row:
            var_nbrs[i].append(j)
    return rows, tuple(tuple(r) for r in var_nbrs)


def parse_alist_by_tokens(text):
    """``parse_alist`` per line and per token in Python, with no array
    code: the same checks in the same order, so it returns an equal graph
    or raises the same AlistError."""
    from lpldpc import AlistError, TannerGraph
    from lpldpc.tanner import MAX_TOKEN_DIGITS

    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise AlistError(f"non-ASCII byte at offset {exc.start}") from exc
    elif not text.isascii():
        offset = next(k for k, ch in enumerate(text) if not ch.isascii())
        raise AlistError(f"non-ASCII character at offset {offset}")
    lines = []
    for raw in text.splitlines():
        parts = raw.split()
        if parts:
            if not all(p.isdigit() for p in parts):
                raise AlistError(f"non-integer token in line {raw!r}")
            lines.append(parts)
    too_long = [len(p) for parts in lines for p in parts if len(p) > MAX_TOKEN_DIGITS]
    if too_long:
        raise AlistError(f"integer token of {too_long[0]} digits; at most {MAX_TOKEN_DIGITS} are read")
    lines = [[int(p) for p in parts] for parts in lines]
    if len(lines) < 4:
        raise AlistError("truncated file: need header, max degrees and degree lists")
    if len(lines[0]) != 2:
        raise AlistError("header must contain exactly 'n m'")
    n, m = lines[0]
    if n < 1 or m < 1:
        raise AlistError(f"non-positive dimensions n={n}, m={m}")
    if len(lines[1]) != 2:
        raise AlistError("second line must contain the two maximum degrees")
    dv_max, dc_max = lines[1]
    if len(lines[2]) != n:
        raise AlistError(f"expected {n} variable degrees, got {len(lines[2])}")
    if len(lines[3]) != m:
        raise AlistError(f"expected {m} check degrees, got {len(lines[3])}")
    var_deg, check_deg = lines[2], lines[3]
    if any(d < 0 or d > dv_max for d in var_deg) or any(d < 0 or d > dc_max for d in check_deg):
        raise AlistError("degree list entry exceeds declared maximum degree")
    if len(lines) != 4 + n + m:
        raise AlistError(f"expected {4 + n + m} lines, got {len(lines)}")

    def read_block(block, degrees, upper, what):
        out = []
        for k, row in enumerate(block):
            entries = [e for e in row if e != 0]  # zeros are padding
            if len(entries) != degrees[k]:
                raise AlistError(
                    f"{what} {k}: declared degree {degrees[k]} but {len(entries)} neighbors listed"
                )
            if any(e < 1 or e > upper for e in entries):
                raise AlistError(f"{what} {k}: neighbor index out of range 1..{upper}")
            if len(set(entries)) != len(entries):
                raise AlistError(f"{what} {k}: duplicate edge in neighbor list")
            out.append([e - 1 for e in entries])
        return out

    var_lists = read_block(lines[4:4 + n], var_deg, m, "variable")
    check_lists = read_block(lines[4 + n:], check_deg, n, "check")
    g = TannerGraph(n, check_lists)
    if (g.var_degrees.tolist() != var_deg
            or g.var_indices.tolist() != [j for row in var_lists for j in sorted(row)]):
        raise AlistError("variable and check adjacency blocks disagree")
    return g


def generate_regular_by_unique(n, d_v, d_c, seed, retry_cap):
    """Check rows of ``generate_regular``: the same permutation per attempt,
    rejected when ``np.unique`` finds a repeated (variable, check) pair, with
    rows filled stub by stub. Raises the same errors."""
    from lpldpc import GenerationError

    n, d_v, d_c = int(n), int(d_v), int(d_c)
    if d_v < 1 or d_c < 2:
        raise ValueError("need d_v >= 1 and d_c >= 2")
    if (n * d_v) % d_c != 0:
        raise ValueError(f"n*d_v = {n * d_v} is not divisible by d_c = {d_c}")
    m = n * d_v // d_c
    if d_v > m or d_c > n:
        raise GenerationError(
            f"no simple graph exists: degrees ({d_v}, {d_c}) exceed the opposite side ({m}, {n})"
        )
    rng = np.random.default_rng(seed)
    var_of = np.repeat(np.arange(n, dtype=np.int64), d_v)
    check_stub = np.repeat(np.arange(m, dtype=np.int64), d_c)
    for _ in range(retry_cap):
        check_of = check_stub[rng.permutation(n * d_v)]
        if np.unique(var_of * m + check_of).size == n * d_v:
            rows = [[] for _ in range(m)]
            for i, j in zip(var_of.tolist(), check_of.tolist()):
                rows[j].append(i)
            return tuple(tuple(sorted(r)) for r in rows)
    raise GenerationError(
        f"no simple ({d_v}, {d_c})-regular graph found in {retry_cap} resamples (n={n}, m={m})"
    )


def bfs_tiers_by_queue(g, root):
    """(var_tier, check_tier, num_tiers) by a node-at-a-time queue BFS over
    the tuple views; raises DisconnectedGraphError like ``bfs_tiers``."""
    from lpldpc import DisconnectedGraphError

    var_nbrs, check_nbrs = g.var_nbrs, g.check_nbrs
    var_tier = np.full(g.n, -1, dtype=np.int64)
    check_tier = np.full(g.m, -1, dtype=np.int64)
    var_tier[root] = 0
    queue = deque([(root, True)])
    while queue:
        node, is_var = queue.popleft()
        if is_var:
            for j in var_nbrs[node]:
                if check_tier[j] < 0:
                    check_tier[j] = var_tier[node] + 1
                    queue.append((j, False))
        else:
            for i in check_nbrs[node]:
                if var_tier[i] < 0:
                    var_tier[i] = check_tier[node] + 1
                    queue.append((i, True))
    if (var_tier < 0).any() or (check_tier < 0).any():
        raise DisconnectedGraphError(
            np.flatnonzero(var_tier < 0).tolist(), np.flatnonzero(check_tier < 0).tolist()
        )
    return var_tier, check_tier, int(max(var_tier.max(), check_tier.max()))


def pseudo_scan_by_connectivity_bfs(config):
    """``run_pseudo_scan`` as it was before connectivity came from the first
    completion's tier BFS: each attempt's sample is tested by a separate
    ``bfs_tiers`` from variable 0, and only then are roots drawn and
    completed. Returns the same ScanRow list or raises the same errors."""
    from lpldpc import (DisconnectedGraphError, GenerationError, ScanRow, awgnc_pseudoweight,
                        bfs_tiers, canonical_completion, generate_regular, pseudoweight_bound,
                        trial_rng)

    sc = config.scan
    rows = []
    for ni, n in enumerate(sc.n_values):
        bound = pseudoweight_bound(sc.dv, sc.dc, n).bound
        for gi in range(sc.graphs_per_n):
            for attempt in range(50):
                gseed = int(np.random.SeedSequence(
                    entropy=config.seed, spawn_key=(ni, gi, attempt)
                ).generate_state(1)[0])
                try:
                    g = generate_regular(n, sc.dv, sc.dc, gseed)
                    bfs_tiers(g, 0)
                    break
                except (DisconnectedGraphError, GenerationError):
                    continue
            else:
                raise RuntimeError(f"no connected ({sc.dv}, {sc.dc})-regular graph found at n={n}")
            rng = trial_rng(config.seed, ni * 10_000 + gi, stream=2)
            roots = rng.choice(n, size=sc.roots_per_graph, replace=False)
            for root in sorted(int(r) for r in roots):
                pcw, alpha = canonical_completion(g, root)
                rows.append(ScanRow(n=n, dv=sc.dv, dc=sc.dc, graph_seed=gseed, root=root,
                                    alpha=alpha, pseudoweight=awgnc_pseudoweight(pcw),
                                    bound=bound))
    return rows


def lp_decode_always_probe(g, lamp):
    """``lp_decode`` as it was before the sharpness certificate: the face
    probe runs on every decode, as a cold two-phase solve of the main LP's
    rows plus the face row, not a continuation of the main solve. Returns a
    DecodeOutcome without stats."""
    from lpldpc import simplex
    from lpldpc.lpdec import INTEGRALITY_TOL, TIE_FACE_EPS, DecodeOutcome, build_constraints

    lamp = np.asarray(lamp, dtype=float)
    cons = build_constraints(g)
    scale = np.abs(lamp).max()
    cn = lamp / scale if scale > 0 else lamp.copy()
    x1 = simplex.solve(cn, cons.a, cons.b).x
    objective = float(lamp.sum() - 2.0 * (lamp @ x1))
    # the probe solved cold, with the face as an explicit row whose
    # right-hand side may be negative
    away = np.where(x1 >= 0.5, 1.0, -1.0)
    a2 = np.vstack([cons.a, cn])
    b2 = np.append(cons.b, cn @ x1 + TIE_FACE_EPS)
    x2 = dense_solve(away, a2, b2, sense="min").x
    if np.abs(x2 - x1).max() > INTEGRALITY_TOL:
        return DecodeOutcome(status="tie", vertex=x1, objective=objective)
    rounded = np.rint(x1)
    h = g.parity_check_matrix().astype(np.int64)
    if (np.abs(x1 - rounded).max() <= INTEGRALITY_TOL
            and not ((h @ rounded.astype(np.int64)) % 2).any()):
        return DecodeOutcome(status="integral", vertex=x1, objective=objective,
                             codeword=rounded.astype(np.uint8))
    return DecodeOutcome(status="fractional", vertex=x1, objective=objective)


def delta_matching_by_max_flow(g, u, udot, params):
    """Edge set of a delta-matching, or None, by Edmonds-Karp integral max flow.

    Source feeds each high-noise variable delta*d_v units and each boundary
    variable delta'*d_v, Tanner edges carry one unit, every check passes one
    unit to the sink. The demands are met exactly iff the max flow saturates
    the source.
    """
    need = {i: max(params.delta_dv, 0) for i in sorted(u)}
    need.update({i: max(params.delta_prime_dv, 0) for i in sorted(udot)})
    required = sum(need.values())
    if required == 0:
        return frozenset()
    if required > g.m:
        return None

    var_nbrs = g.var_nbrs
    parts = sorted(need)
    src = 0
    var_id = {i: 1 + a for a, i in enumerate(parts)}
    check_id = {j: 1 + len(parts) + j for j in range(g.m)}
    sink = 1 + len(parts) + g.m
    cap = {node: {} for node in range(sink + 1)}

    def add_edge(a, b, c):
        cap[a][b] = c
        cap[b].setdefault(a, 0)

    for i in parts:
        add_edge(src, var_id[i], need[i])
        for j in var_nbrs[i]:
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
        push = min(cap[a][b] for a, b in zip(path, path[1:]))
        for a, b in zip(path, path[1:]):
            cap[a][b] -= push
            cap[b][a] += push
        flow += push
    if flow != required:
        return None
    return frozenset(
        (i, j) for i in parts for j in var_nbrs[i] if cap[var_id[i]][check_id[j]] == 0
    )


def check_feasible_by_dicts(g, tau, lamp):
    """(ok, margin, pairwise_ok, bad_check) of the witness conditions for
    weights ``tau`` keyed by (variable, check), one check and one variable at
    a time. Raises ValueError unless the keys are exactly the edge set."""
    lamp = np.asarray(lamp, dtype=float)
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
    var_nbrs = g.var_nbrs
    sums = np.array([sum(tau[(i, j)] for j in var_nbrs[i]) for i in range(g.n)])
    margin = float((lamp - sums).min())
    return bad is None and margin > 0.0, margin, bad is None, bad


def find_delta_matching_one_check_per_bfs(g, u, udot, params):
    """``find_delta_matching`` with one breadth-first search per assigned
    check, its own free checks included: the owner array, or None."""
    from lpldpc.witness import _require_mask, _verify_matching

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
    owner = [-1] * g.m
    for root in np.flatnonzero(need).tolist():
        for _ in range(need[root]):
            back = {root: (None, None)}
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


def run_wer_cell_major(config):
    """``run_wer`` one (map, sigma2) cell at a time: every cell redraws each
    trial's codeword (substream 1) and its noise through ``transmit_awgn``."""
    from lpldpc import (CellResult, ChannelParams, apply_map, bpsk, gf2, lp_decode,
                        normalized_llr, transmit_awgn, trial_rng)

    g = config.graph.load()
    basis = None
    if config.random_codeword:
        basis = gf2.nullspace_basis(g.parity_check_matrix())
    results = []
    zeros = np.zeros(g.n, dtype=np.uint8)
    for spec in config.maps:
        for s2 in config.sigma2:
            params = ChannelParams(s2)
            mismatch = fractional = tie = 0
            for t in range(config.trials):
                if basis is not None and basis.shape[0] > 0:
                    msg = trial_rng(config.seed, t, stream=1).integers(0, 2, basis.shape[0])
                    x = (msg @ basis) % 2
                else:
                    x = zeros
                y = transmit_awgn(bpsk(x), params, config.seed, t)
                lamp = apply_map(spec, normalized_llr(y, params))
                out = lp_decode(g, lamp)
                if out.status == "tie":
                    tie += 1
                elif out.status == "fractional":
                    fractional += 1
                elif (out.codeword != x).any():
                    mismatch += 1
            failures = mismatch + fractional + tie
            wer = failures / config.trials
            results.append(CellResult(
                map=str(spec), sigma2=s2, trials=config.trials,
                mismatch=mismatch, fractional=fractional, tie=tie,
                failures=failures, wer=wer, stderr=math.sqrt(wer * (1.0 - wer) / config.trials),
            ))
    return results


def run_witness_rate_cell_major(config):
    """``run_witness_rate`` one sigma2 cell at a time: every cell redraws each
    trial's noise through ``transmit_awgn``."""
    from lpldpc import (ChannelParams, ProofSpec, WitnessRateRow, apply_map, boundary_set, bpsk,
                        check_expansion, check_feasible, derive_params, find_delta_matching,
                        high_noise_set, lp_decode, normalized_llr, transmit_awgn,
                        weights_from_matching, witness_search)
    from lpldpc.witness import DEAD_BAND

    g = config.graph.load()
    vd = g.var_degrees
    if vd.min() != vd.max():
        raise ValueError("witness-rate needs a variable-regular graph")
    d_v = int(vd[0])
    proof = config.proof or ProofSpec()
    spec = config.maps[0]
    expansion = "assumed"
    params = derive_params(proof.w, d_v, proof.delta_hat, kappa=proof.kappa)
    if proof.verify_smax is not None:
        alpha_exp = proof.verify_smax / g.n
        verdict = check_expansion(g, params.delta_dv, proof.verify_smax)
        expansion = "verified" if verdict.ok else "assumed"
        params = derive_params(proof.w, d_v, proof.delta_hat, alpha_exp=alpha_exp,
                               kappa=proof.kappa)
    zeros_bar = bpsk(np.zeros(g.n, dtype=np.uint8))

    rows = []
    for s2 in config.sigma2:
        ch = ChannelParams(s2)
        wpos = constructive = success_n = agree = checked = dead = viol = 0
        for t in range(config.trials):
            y = transmit_awgn(zeros_bar, ch, config.seed, t)
            lamp = apply_map(spec, normalized_llr(y, ch))
            u = high_noise_set(lamp)
            udot = boundary_set(g, u, params)
            owner = find_delta_matching(g, u, udot, params)
            built_ok = False
            if owner is not None:
                tau = weights_from_matching(g, owner, u, params)
                built_ok = check_feasible(g, tau, lamp).ok
            s_star = witness_search(g, lamp)
            out = lp_decode(g, lamp)
            success = out.is_zero_codeword()
            wpos += s_star > 0
            constructive += built_ok
            success_n += success
            if abs(s_star) > DEAD_BAND:
                checked += 1
                agree += (s_star > 0) == success
            else:
                dead += 1
            if expansion == "verified":
                an = params.alpha_exp * g.n
                size_u = int(np.count_nonzero(u))
                if size_u <= params.matching_cap(g.n):
                    viol += size_u + int(np.count_nonzero(udot)) > an + 1e-9
        rows.append(WitnessRateRow(
            sigma2=s2, trials=config.trials, witness_positive=wpos,
            constructive_ok=constructive, lp_success=success_n,
            agreement_checked=checked, agreement=agree, dead_band=dead,
            expansion=expansion, size_bound_violations=viol,
        ))
    return rows
