"""Bipartite Tanner graphs: alist IO, random regular sampling, BFS tiers.

Variable and check indices are 0-based everywhere in memory; alist files are
1-based on disk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import _index

__all__ = [
    "TannerGraph",
    "BfsTiers",
    "AlistError",
    "GenerationError",
    "DisconnectedGraphError",
    "parse_alist",
    "emit_alist",
    "generate_regular",
    "bfs_tiers",
]

# Full resamples of the stub matching before giving up on a simple graph.
RETRY_CAP = 10_000

# The ASCII blanks at which str.split() splits tokens. numpy's text reader
# splits only at the first six, so the rest become spaces before it reads.
_BLANKS = b" \t\n\r\v\f\x1c\x1d\x1e\x1f"
_TO_SPACE = bytes.maketrans(_BLANKS, b" " * len(_BLANKS))
# Longest alist token, in digits: Python's default limit for int() of a
# decimal string (sys.int_max_str_digits), which counts leading zeros too.
MAX_TOKEN_DIGITS = 4300


class AlistError(ValueError):
    """Malformed alist input."""


class GenerationError(RuntimeError):
    """Random graph generation could not produce a simple graph."""


class DisconnectedGraphError(ValueError):
    """A BFS root does not reach every node of the graph."""

    def __init__(self, unreachable_vars, unreachable_checks):
        self.unreachable_vars = tuple(unreachable_vars)
        self.unreachable_checks = tuple(unreachable_checks)
        names = [f"v{i}" for i in self.unreachable_vars]
        names += [f"c{j}" for j in self.unreachable_checks]
        super().__init__("graph is disconnected; unreachable nodes: " + ", ".join(names))


def _shared_degree(degrees, num_edges):
    """The degree of every node of a side, or None when the degrees differ.

    No degree exceeds the side's maximum d, so d times the node count equals
    the edge total only when every degree is d.
    """
    d = int(degrees.max())
    return d if d * degrees.size == num_edges else None


def _rows(indptr, indices):
    """CSR rows as a tuple of tuples."""
    flat, ptr = indices.tolist(), indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))


class TannerGraph:
    """Immutable bipartite adjacency between n variable nodes and m check nodes.

    The adjacency is stored once, as read-only CSR index arrays: check j's
    variables are ``check_indices[check_indptr[j]:check_indptr[j + 1]]`` in
    construction order, and variable i's checks are
    ``var_indices[var_indptr[i]:var_indptr[i + 1]]`` in ascending order.
    Next to them sit the read-only int64 arrays ``var_degrees``,
    ``check_degrees`` and ``edge_var``, the variable of each edge in
    ``edges()`` order: edge k joins variable ``edge_var[k]`` and check
    ``var_indices[k]``. ``regular_var_degree`` and ``regular_check_degree``
    hold the degree that every node of that side shares, or None when the
    side's degrees differ; a graph with no edges reads (0, 0). ``check_nbrs``
    and ``var_nbrs`` are tuple views built from these arrays on each access.
    Parallel edges are rejected. Instances are safe to share across threads.

    Hash and equality read one key, stored with the arrays: ``n`` and the
    bytes of ``check_indptr`` and ``check_indices``. Two graphs are equal
    when they have the same ``n``, the same check degrees in the same check
    order, and the same variables in the same order within every check; the
    key's bytes cache their hash, so a graph hashes in O(1) after its first
    hash.
    """

    __slots__ = ("n", "m", "check_indptr", "check_indices", "var_indptr", "var_indices",
                 "var_degrees", "check_degrees", "regular_var_degree", "regular_check_degree",
                 "edge_var", "_key")

    def __init__(self, n, check_nbrs):
        n = _index(n)
        if n < 1:
            raise ValueError("need at least one variable node")
        rows = []
        for j, row in enumerate(check_nbrs):  # row-major, so the first offender is named
            rows.append({})  # an ordered set: the row's variables in their given order
            for x in row:
                try:
                    i = _index(x)
                except TypeError:
                    raise ValueError(f"check {j}: variable index {x!r} is not an integer") from None
                if not 0 <= i < n:
                    raise ValueError(f"check {j}: variable index {i} out of range [0, {n})")
                if i in rows[-1]:
                    raise ValueError(f"duplicate edge between variable {i} and check {j}")
                rows[-1][i] = None
        if not rows:
            raise ValueError("need at least one check node")
        check_indptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
        var_of = np.fromiter(itertools.chain.from_iterable(rows), np.int64, int(check_indptr[-1]))
        self._set_csr(n, check_indptr, var_of)

    def _set_csr(self, n, check_indptr, var_of):
        """Store fresh int64 check-side CSR arrays of a simple graph, whose
        indices lie in [0, n), their transpose and each side's degrees;
        returns self."""
        m = check_indptr.size - 1
        check_degrees = np.diff(check_indptr)
        check_of = np.repeat(np.arange(m, dtype=np.int64), check_degrees)
        # stable by variable, so each variable's checks ascend; keys of 16
        # bits or less are radix sorted
        order = np.argsort(var_of.astype(np.min_scalar_type(n - 1)), kind="stable")
        var_sorted, var_check = var_of[order], check_of[order]
        var_degrees = np.bincount(var_of, minlength=n)
        var_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(var_degrees, out=var_indptr[1:])
        self.n = n
        self.m = m
        self.check_indptr, self.check_indices = check_indptr, var_of
        self.var_indptr, self.var_indices = var_indptr, var_check
        self.var_degrees, self.check_degrees = var_degrees, check_degrees
        self.regular_var_degree = _shared_degree(var_degrees, var_of.size)
        self.regular_check_degree = _shared_degree(check_degrees, var_of.size)
        self.edge_var = var_sorted
        self._key = (n, check_indptr.tobytes(), var_of.tobytes())
        for arr in (check_indptr, var_of, var_indptr, var_check,
                    var_degrees, check_degrees, var_sorted):
            arr.flags.writeable = False
        return self

    def __eq__(self, other):
        if not isinstance(other, TannerGraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"TannerGraph(n={self.n}, m={self.m}, edges={self.num_edges})"

    @property
    def check_nbrs(self):
        return _rows(self.check_indptr, self.check_indices)

    @property
    def var_nbrs(self):
        return _rows(self.var_indptr, self.var_indices)

    @property
    def num_edges(self):
        return int(self.check_indices.size)

    def edges(self):
        """All (variable, check) pairs, variable-major, deterministic order."""
        return tuple(zip(self.edge_var.tolist(), self.var_indices.tolist()))

    def parity_check_matrix(self):
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        h[self.var_indices, self.edge_var] = 1
        return h


def parse_alist(text):
    """Parse an alist document (str or bytes) into a TannerGraph.

    Layout: header ``n m``, max degrees, per-variable and per-check degree
    lists, then the 1-based neighbor lists (zero padding allowed). Both
    adjacency blocks are cross-checked against each other.

    The document must be ASCII. Its lines are those of ``str.splitlines``
    and its tokens those of ``str.split``; blank lines drop out. A token
    holds unsigned decimal digits only, at most ``MAX_TOKEN_DIGITS`` of
    them. The header, maximum-degree and degree tokens are read with
    ``int``, and every value once more by one numpy read, which saturates a
    token beyond int64; such a value is out of range for any graph. The
    checks run per block on arrays and report the first failure in
    document order.
    """
    if isinstance(text, (bytes, bytearray)):
        data = bytes(text)
        if not data.isascii():
            offset = next(k for k, b in enumerate(data) if b >= 128)
            raise AlistError(f"non-ASCII byte at offset {offset}")
        text = data.decode("ascii")
    elif not text.isascii():
        offset = next(k for k, ch in enumerate(text) if not ch.isascii())
        raise AlistError(f"non-ASCII character at offset {offset}")
    else:
        data = text.encode("ascii")
    # Only unsigned decimal digits: "+3", "0_1" and "3.0" are no alist integers.
    raw_lines = text.splitlines()
    if data.translate(None, b"0123456789" + _BLANKS):
        raw = next(raw for raw in raw_lines if not all(map(str.isdigit, raw.split())))
        raise AlistError(f"non-integer token in line {raw!r}")
    # only a line longer than a token's limit can hold a token beyond it
    too_long = [len(token) for raw in raw_lines if len(raw) > MAX_TOKEN_DIGITS
                for token in raw.split() if len(token) > MAX_TOKEN_DIGITS]
    if too_long:
        raise AlistError(f"integer token of {too_long[0]} digits; "
                         f"at most {MAX_TOKEN_DIGITS} are read")
    lines = [tokens for tokens in map(str.split, raw_lines) if tokens]
    if len(lines) < 4:
        raise AlistError("truncated file: need header, max degrees and degree lists")
    if len(lines[0]) != 2:
        raise AlistError("header must contain exactly 'n m'")
    n, m = map(int, lines[0])
    if n < 1 or m < 1:
        raise AlistError(f"non-positive dimensions n={n}, m={m}")
    if len(lines[1]) != 2:
        raise AlistError("second line must contain the two maximum degrees")
    dv_max, dc_max = map(int, lines[1])
    if len(lines[2]) != n:
        raise AlistError(f"expected {n} variable degrees, got {len(lines[2])}")
    if len(lines[3]) != m:
        raise AlistError(f"expected {m} check degrees, got {len(lines[3])}")
    if max(map(int, lines[2])) > dv_max or max(map(int, lines[3])) > dc_max:
        raise AlistError("degree list entry exceeds declared maximum degree")
    if len(lines) != 4 + n + m:
        raise AlistError(f"expected {4 + n + m} lines, got {len(lines)}")
    vals = np.fromstring(data.translate(_TO_SPACE), dtype=np.int64, sep=" ")

    # Rows 0..n-1 list the variables' checks, rows n..n+m-1 the checks'
    # variables; zeros are padding.
    row = np.repeat(np.arange(n + m), list(map(len, lines[4:])))
    entry = vals[4 + n + m:]
    row, entry = row[entry != 0], entry[entry != 0]
    declared = vals[4:4 + n + m]
    listed = np.bincount(row, minlength=n + m)
    out_of_range = np.zeros(n + m, dtype=bool)
    out_of_range[row[entry > np.repeat([m, n], [n, m])[row]]] = True
    order = np.lexsort((entry, row))
    row_sorted, entry_sorted = row[order], entry[order]
    repeated = np.zeros(n + m, dtype=bool)
    repeated[row_sorted[1:][(row_sorted[1:] == row_sorted[:-1])
                            & (entry_sorted[1:] == entry_sorted[:-1])]] = True
    bad = np.flatnonzero((listed != declared) | out_of_range | repeated)
    if bad.size:
        r = int(bad[0])
        what, k, upper = ("variable", r, m) if r < n else ("check", r - n, n)
        if listed[r] != declared[r]:
            degree = int((lines[2] + lines[3])[r])  # exact where vals saturates
            raise AlistError(
                f"{what} {k}: declared degree {degree} but {listed[r]} neighbors listed"
            )
        if out_of_range[r]:
            raise AlistError(f"{what} {k}: neighbor index out of range 1..{upper}")
        raise AlistError(f"{what} {k}: duplicate edge in neighbor list")

    # The blocks are checked above, as _set_csr requires; its transpose
    # arrays list each variable's checks in ascending order.
    check_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(listed[n:], out=check_indptr[1:])
    g = TannerGraph.__new__(TannerGraph)._set_csr(n, check_indptr, entry[row >= n] - 1)
    if (not np.array_equal(g.var_degrees, listed[:n])
            or not np.array_equal(g.var_indices, entry_sorted[row_sorted < n] - 1)):
        raise AlistError("variable and check adjacency blocks disagree")
    return g


def emit_alist(g):
    """Canonical alist text for a graph: zero-padded, 1-based, newline terminated.

    Every neighbor row has at least one entry, so a graph whose maximum
    degree is 0 writes rows of a single padding 0, not blank lines.
    """
    vd, cd = g.var_degrees, g.check_degrees
    out = [f"{g.n} {g.m}", f"{vd.max()} {cd.max()}",
           " ".join(map(str, vd.tolist())), " ".join(map(str, cd.tolist()))]
    for rows, width in ((g.var_nbrs, max(vd.max(), 1)), (g.check_nbrs, max(cd.max(), 1))):
        for row in rows:
            out.append(" ".join(map(str, [e + 1 for e in row] + [0] * (width - len(row)))))
    return "\n".join(out) + "\n"


def generate_regular(n, d_v, d_c, seed):
    """Sample a simple (d_v, d_c)-regular Tanner graph.

    Configuration model: the n*d_v variable stubs are matched against the
    m*d_c check stubs by a seeded random permutation, resampling from scratch
    until the multigraph has no parallel edges (at most RETRY_CAP attempts).
    Each attempt shuffles a copy of the check stubs in place. That consumes
    exactly the draws of ``rng.permutation(n*d_v)`` and moves the stubs as
    that permutation would (``tests/oracles.generate_regular_by_unique``
    pins this). The pairs of stub columns are then compared one at a time,
    and the attempt is rejected at the first pair in which some variable
    lists a check twice. So a fixed seed fixes the graph. The accepted
    sample becomes CSR arrays, with no lists.
    """
    n, d_v, d_c = _index(n), _index(d_v), _index(d_c)
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
    check_stub = np.repeat(np.arange(m, dtype=np.int64), d_c)
    pairs = list(itertools.combinations(range(d_v), 2))
    for _ in range(RETRY_CAP):
        check_of = check_stub.copy()
        rng.shuffle(check_of)
        # stub k belongs to variable k // d_v: row i holds variable i's checks
        check_of = check_of.reshape(n, d_v)
        if not any((check_of[:, a] == check_of[:, b]).any() for a, b in pairs):
            # stable, so each check lists its stubs, hence its variables, in order
            keys = check_of.astype(np.min_scalar_type(m - 1))
            rows = np.argsort(keys, axis=None, kind="stable") // d_v
            indptr = np.arange(m + 1, dtype=np.int64) * d_c
            return TannerGraph.__new__(TannerGraph)._set_csr(n, indptr, rows)
    raise GenerationError(
        f"no simple ({d_v}, {d_c})-regular graph found in {RETRY_CAP} resamples (n={n}, m={m})"
    )


@dataclass(frozen=True)
class BfsTiers:
    """Breadth-first tier numbers from a variable-node root.

    ``var_tier[i]`` / ``check_tier[j]`` hold graph distances from the root;
    variables sit on even tiers and checks on odd tiers. ``num_tiers`` is the
    eccentricity of the root.
    """

    root: int
    var_tier: np.ndarray
    check_tier: np.ndarray
    num_tiers: int


def _csr_gather(indptr, indices, nodes):
    """Concatenated CSR rows of ``nodes``."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    return indices[np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])]


def _row_gather(indptr, indices, d):
    """A function of a node array that returns the nodes' CSR rows, in any
    shape: one fancy index into ``indices`` viewed as rows when ``d``, the
    side's regular degree or None, is positive, ``_csr_gather`` otherwise."""
    if d:
        rows = indices.reshape(-1, d)
        return lambda nodes: rows.take(nodes, axis=0)
    return lambda nodes: _csr_gather(indptr, indices, nodes)


def bfs_tiers(g, root):
    """Tier ordering of all nodes by distance from variable node ``root``.

    ``root`` is read with ``operator.index``, so a float or a bool is a
    TypeError.
    Level-synchronous: tier t + 1 is the set of unseen neighbours of the
    nodes at tier t, on alternating sides. Each side gathers a tier's
    neighbours with ``_row_gather``, one fancy index per tier when the side
    is degree-regular. The next frontier is the reached list itself with
    repeats removed, so a tier costs time in its own size, not in n + m.
    """
    root = _index(root)
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range [0, {g.n})")
    var_tier = np.full(g.n, -1, dtype=np.int64)
    check_tier = np.full(g.m, -1, dtype=np.int64)
    var_tier[root] = 0
    sides = ((_row_gather(g.var_indptr, g.var_indices, g.regular_var_degree), check_tier),
             (_row_gather(g.check_indptr, g.check_indices, g.regular_check_degree), var_tier))
    slot = np.empty(max(g.n, g.m), dtype=np.int64)
    frontier, tier, labelled = np.array([root], dtype=np.int64), 0, 1
    while frontier.size:
        gather, seen = sides[tier % 2]
        reached = gather(frontier)
        reached = reached[seen[reached] < 0]
        # One copy of each node: whichever write to slot[v] lands, exactly
        # one position of v in ``reached`` reads back its own index.
        at = np.arange(reached.size)
        slot[reached] = at
        frontier = reached[slot[reached] == at]
        tier += 1
        seen[frontier] = tier
        labelled += frontier.size
    if labelled < g.n + g.m:
        raise DisconnectedGraphError(
            np.flatnonzero(var_tier < 0).tolist(), np.flatnonzero(check_tier < 0).tolist()
        )
    return BfsTiers(root=root, var_tier=var_tier, check_tier=check_tier, num_tiers=tier - 1)
