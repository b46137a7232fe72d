import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpldpc import (
    AlistError,
    DisconnectedGraphError,
    GenerationError,
    TannerGraph,
    bfs_tiers,
    emit_alist,
    generate_regular,
    parse_alist,
)

from lpldpc import tanner

from conftest import irregular_graphs
from oracles import (
    bfs_tiers_by_queue,
    floyd_warshall_distances,
    generate_regular_by_unique,
    parse_alist_by_tokens,
    tanner_views_by_loops,
    var_regular_graph,
)

SINGLE_CHECK_ALIST = """\
3 1
1 3
1 1 1
3
1
1
1
1 2 3
"""

# Irregular graph with padded neighbor lists (vars 0..3, checks 0..1).
PADDED_ALIST = """\
4 2
2 3
1 2 1 1
3 2
1 0
1 2
2 0
1 0
1 2 4
2 3 0
"""


def test_parse_single_check():
    g = parse_alist(SINGLE_CHECK_ALIST)
    assert g.n == 3 and g.m == 1
    assert g.check_nbrs == ((0, 1, 2),)
    assert g.var_nbrs == ((0,), (0,), (0,))


def test_parse_accepts_bytes():
    assert parse_alist(SINGLE_CHECK_ALIST.encode()) == parse_alist(SINGLE_CHECK_ALIST)


def test_parse_emit_round_trip_on_fixtures():
    for text in (SINGLE_CHECK_ALIST, PADDED_ALIST):
        g = parse_alist(text)
        canonical = emit_alist(g)
        assert parse_alist(canonical) == g
        # emit is idempotent on its own output
        assert emit_alist(parse_alist(canonical)) == canonical


def test_emit_matches_canonical_padding():
    g = parse_alist(PADDED_ALIST)
    out = emit_alist(g)
    lines = out.splitlines()
    assert lines[0] == "4 2"
    assert lines[1] == "2 3"
    # every variable line padded to dv_max = 2
    assert all(len(line.split()) == 2 for line in lines[4:8])
    assert all(len(line.split()) == 3 for line in lines[8:10])


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("3 1 9", "header"),
        ("three 1", "non-integer"),
        ("0 1", "non-positive"),
    ],
)
def test_parse_header_errors(mutation, fragment):
    bad = SINGLE_CHECK_ALIST.replace("3 1", mutation, 1)
    with pytest.raises(AlistError, match=fragment):
        parse_alist(bad)


def test_parse_duplicate_edge():
    bad = SINGLE_CHECK_ALIST.replace("1 2 3", "1 1 3")
    with pytest.raises(AlistError, match="duplicate"):
        parse_alist(bad)


def test_parse_degree_mismatch():
    bad = SINGLE_CHECK_ALIST.replace("\n3\n", "\n2\n")
    with pytest.raises(AlistError, match="degree"):
        parse_alist(bad)


def test_parse_out_of_range_index():
    bad = SINGLE_CHECK_ALIST.replace("1 2 3", "1 2 4")
    with pytest.raises(AlistError, match="range"):
        parse_alist(bad)


def test_parse_inconsistent_views():
    # variable block says v0-c0 only, check block says c0 = {v0, v1, v2}
    bad = """\
3 1
1 3
1 1 1
3
1
1
2
1 2 3
"""
    with pytest.raises(AlistError):
        parse_alist(bad)


def test_parse_blocks_disagree():
    # both blocks are well formed, but the variable block puts v0 at c0
    # and v2 at c1 while the check block lists c0 = {v1, v2}, c1 = {v0}
    bad = """\
3 2
1 2
1 1 1
2 1
1
1
2
2 3
1
"""
    with pytest.raises(AlistError, match="disagree"):
        parse_alist(bad)
    # the concatenated variable rows agree (c0 | c1 c2 against c0 c1 | c2);
    # only the per-variable degrees tell the blocks apart
    bad = """\
2 3
2 1
1 2
1 1 1
1
2 3
1
1
2
"""
    with pytest.raises(AlistError, match="disagree"):
        parse_alist(bad)


def test_constructor_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError, match="duplicate"):
        TannerGraph(3, [[0, 0, 1]])
    with pytest.raises(ValueError, match="range"):
        TannerGraph(3, [[0, 3]])
    # integers only: int() would read these as ((0, 1), (2, 0))
    with pytest.raises(ValueError, match=r"^check 0: variable index 0\.7 is not an integer$"):
        TannerGraph(3, [[0.7, 1.9], ["2", 0]])
    with pytest.raises(ValueError, match=r"^check 1: variable index '2' is not an integer$"):
        TannerGraph(3, [[0, 1], ["2", 0]])
    with pytest.raises(TypeError):
        TannerGraph(3.0, [[0, 1]])
    g = TannerGraph(np.int64(3), [np.array([2, 0]), (np.uint8(1),)])
    assert g.check_nbrs == ((2, 0), (1,))


def test_generate_regular_degrees():
    g = generate_regular(8, 3, 4, seed=1)
    assert g.m == 6
    assert (g.var_degrees == 3).all()
    assert (g.check_degrees == 4).all()
    assert (g.regular_var_degree, g.regular_check_degree) == (3, 4)


def test_generate_regular_divisibility_error():
    with pytest.raises(ValueError, match="divisible"):
        generate_regular(10, 3, 4, seed=1)


@pytest.mark.parametrize("args", [(12.7, 3, 4), (12, 3.0, 4), (12, 3, 4.0)])
def test_generate_regular_rejects_fractions(args):
    # a fraction is an error, not the graph of its integer part
    with pytest.raises(TypeError):
        generate_regular(*args, seed=1)
    assert generate_regular(*map(np.int64, (12, 3, 4)), seed=1) == generate_regular(12, 3, 4, 1)


def test_generate_regular_deterministic():
    a = generate_regular(16, 3, 4, seed=42)
    b = generate_regular(16, 3, 4, seed=42)
    assert a == b
    assert a != generate_regular(16, 3, 4, seed=43)


def test_generate_regular_degenerate_params():
    # a single check of degree 12 > n = 4 cannot be simple
    with pytest.raises(GenerationError):
        generate_regular(4, 3, 12, seed=0)


def test_edge_count_identity():
    for seed in range(5):
        g = generate_regular(20, 3, 5, seed=seed)
        assert int(g.var_degrees.sum()) == int(g.check_degrees.sum()) == 60
        assert g.num_edges == 60


def test_parse_emit_identity_on_generated():
    g = generate_regular(12, 3, 4, seed=9)
    assert parse_alist(emit_alist(g)) == g


def test_bfs_tiers_single_check(single_check):
    tiers = bfs_tiers(single_check, 0)
    assert tiers.var_tier.tolist() == [0, 2, 2]
    assert tiers.check_tier.tolist() == [1]
    assert tiers.num_tiers == 2


def test_bfs_tiers_path_root_middle(path_graph):
    tiers = bfs_tiers(path_graph, 1)
    assert tiers.num_tiers == 2
    assert tiers.var_tier.tolist() == [2, 0, 2]


def test_bfs_tier_parity():
    for seed in (0, 1, 2):
        g = generate_regular(16, 3, 4, seed=seed)
        for root in (0, 5):
            try:
                tiers = bfs_tiers(g, root)
            except DisconnectedGraphError:
                continue
            assert (tiers.var_tier % 2 == 0).all()
            assert (tiers.check_tier % 2 == 1).all()


def test_bfs_matches_floyd_warshall(g34_small):
    dist = floyd_warshall_distances(g34_small)
    tiers = bfs_tiers(g34_small, 3)
    assert tiers.var_tier.tolist() == dist[3, :g34_small.n].astype(int).tolist()
    assert tiers.check_tier.tolist() == dist[3, g34_small.n:].astype(int).tolist()
    assert tiers.num_tiers == int(dist[3].max())


def test_bfs_neighbors_differ_by_one(g34_small):
    tiers = bfs_tiers(g34_small, 0)
    for j, nbrs in enumerate(g34_small.check_nbrs):
        for i in nbrs:
            assert abs(tiers.check_tier[j] - tiers.var_tier[i]) == 1


def test_bfs_disconnected_reports_nodes():
    g = TannerGraph(6, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(DisconnectedGraphError) as info:
        bfs_tiers(g, 0)
    assert set(info.value.unreachable_vars) == {3, 4, 5}
    assert set(info.value.unreachable_checks) == {1}


def test_graph_is_immutable_value():
    g = generate_regular(8, 3, 4, seed=1)
    assert isinstance(g.check_nbrs, tuple)
    assert hash(g) == hash(generate_regular(8, 3, 4, seed=1))


def test_graph_stores_only_csr_arrays():
    g = generate_regular(8, 3, 4, seed=1)
    assert set(TannerGraph.__slots__) == {
        "n", "m", "check_indptr", "check_indices", "var_indptr", "var_indices",
        "var_degrees", "check_degrees", "regular_var_degree", "regular_check_degree",
        "edge_var", "_key"}
    with pytest.raises(AttributeError):
        g.check_nbrs = ()
    # equal graphs built apart hash alike; the check order matters
    assert hash(TannerGraph(3, [[0, 1], [1, 2]])) == hash(TannerGraph(3, [(0, 1), (1, 2)]))
    assert TannerGraph(3, [[0, 1], [1, 2]]) != TannerGraph(3, [[1, 2], [0, 1]])
    assert TannerGraph(3, [[0, 1], [2]]) != TannerGraph(3, [[0], [1, 2]])


@pytest.mark.parametrize("n, d_v, d_c, seed", [(8, 3, 4, 1), (24, 3, 4, 3), (48, 3, 6, 3)])
def test_graphs_built_three_ways_hash_and_compare_equal(n, d_v, d_c, seed):
    made = generate_regular(n, d_v, d_c, seed)
    built = TannerGraph(n, made.check_nbrs)
    parsed = parse_alist(emit_alist(made))
    for g in (built, parsed, parse_alist(emit_alist(made).encode())):
        assert g is not made and g == made and made == g
        assert hash(g) == hash(made)
    assert len({made, built, parsed}) == 1


def test_graphs_differing_in_row_order_or_check_indptr_compare_unequal():
    base = TannerGraph(4, [[0, 1], [2, 3]])
    assert base == TannerGraph(4, [(0, 1), (2, 3)])
    # the same edges, another variable order inside one check
    assert base != TannerGraph(4, [[1, 0], [2, 3]])
    # the same check_indices, another check_indptr
    other = TannerGraph(4, [[0], [1, 2, 3]])
    assert np.array_equal(other.check_indices, base.check_indices)
    assert base != other
    # the same CSR arrays, another n; and a graph is no tuple or array
    assert base != TannerGraph(5, [[0, 1], [2, 3]])
    assert base != (4, [[0, 1], [2, 3]]) and base.__eq__(base.check_indices) is NotImplemented


def test_freshly_parsed_equal_graph_hits_the_per_graph_caches():
    from lpldpc import build_constraints, stopping_core

    text = emit_alist(generate_regular(24, 3, 4, seed=3))
    first, again = parse_alist(text), parse_alist(text)
    for cached in (build_constraints, stopping_core):
        want = cached(first)
        hits = cached.cache_info().hits
        assert cached(again) is want
        assert cached.cache_info().hits == hits + 1


def test_parse_rejects_non_ascii_bytes():
    with pytest.raises(AlistError, match="non-ASCII"):
        parse_alist(b"\xff\xfe")


@pytest.mark.parametrize("token", ["+3", "0_3", "3.0", "-3", "\u0663", "\uff13", "\u00b3"])
def test_parse_accepts_only_ascii_decimal_tokens(token):
    # int() reads every one of these except "3.0"; none is an alist integer
    bad = SINGLE_CHECK_ALIST.replace("3 1", f"{token} 1", 1)
    with pytest.raises(AlistError):
        parse_alist(bad)
    if token.isascii():
        with pytest.raises(AlistError, match="non-integer"):
            parse_alist(bad.encode())


@pytest.mark.parametrize("old, new, digits", [
    ("3 1\n", "9" * 5000 + " 1\n", 5000),  # header
    ("1 3\n", "9" * 5000 + " 3\n", 5000),  # maximum degree
    # a degree entry of 4,400 digits, equal to a maximum of 4,300
    ("1 3\n1 1 1\n", "9" * 4300 + " 3\n" + "0" * 100 + "9" * 4300 + " 1 1\n", 4400),
], ids=["header", "max-degree", "degree-entry"])
def test_parse_rejects_tokens_beyond_int_digit_limit(old, new, digits):
    # int() refuses more than 4300 digits, leading zeros included
    with pytest.raises(AlistError, match=f"integer token of {digits} digits"):
        parse_alist(SINGLE_CHECK_ALIST.replace(old, new, 1))


def test_parse_rejects_non_ascii_text():
    # a non-ASCII space would otherwise split tokens as str.split() does
    with pytest.raises(AlistError, match="non-ASCII character at offset 1"):
        parse_alist(SINGLE_CHECK_ALIST.replace("3 1", "3\u20031", 1))


def test_emit_zero_degree_graph_round_trips():
    # no edges: every neighbor row is a single padding 0, never a blank line
    g = TannerGraph(2, [[]])
    text = emit_alist(g)
    assert text == "2 1\n0 0\n0 0\n0\n0\n0\n0\n"
    assert parse_alist(text) == g


def _same_arrays(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in
               ("check_indptr", "check_indices", "var_indptr", "var_indices"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=irregular_graphs(max_degree=6))
def test_parse_emit_round_trip_on_irregular_graphs(g):
    # degree-0 checks and variables included
    text = emit_alist(g)
    for back in (parse_alist(text), parse_alist(text.encode())):
        assert back == g and back.n == g.n and back.m == g.m
        assert _same_arrays(back, g)
    assert emit_alist(parse_alist(text)) == text


@st.composite
def _malformed_alist(draw):
    """An alist file of a random graph with a few bytes flipped, inserted,
    deleted or cut off."""
    data = bytearray(emit_alist(draw(irregular_graphs(max_degree=6))).encode())
    tokens = st.sampled_from([b"0", b"-1", b"7", b" ", b"\n", b"x", b"1.5", b"\xff",
                              b"99999999999999999999999"])
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "insert", "delete", "cut"]))
        if kind == "flip" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[pos:pos] = draw(tokens)
        elif kind == "delete":
            del data[pos:pos + draw(st.integers(1, 3))]
        elif kind == "cut":
            del data[pos:]
    return bytes(data)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.one_of(_malformed_alist(), st.binary(max_size=40)))
def test_parse_malformed_bytes_raises_only_alist_error(data):
    try:
        g = parse_alist(data)
    except AlistError:
        return
    assert parse_alist(emit_alist(g)) == g  # a mutation may leave a valid file


# Separators where str.splitlines() breaks a line, and further blanks where
# str.split() splits tokens, and tokens of 19 or more digits, some of them
# below 10**18 by leading zeros.
_LINE_BREAKS = [b"\n", b"\r", b"\r\n", b"\f", b"\v", b"\x1c", b"\x1d", b"\x1e"]
_BLANKS = [b" ", b"\t", b"\x1f", b"  "]
_LONG_TOKENS = [b"99999999999999999999999", b"1000000000000000000", b"999999999999999999",
                b"0000000000000000000000003", b"9223372036854775808", b"18446744073709551617"]


@st.composite
def _respaced_alist(draw):
    """An alist file, valid or mutated, with its line breaks and blanks
    swapped for others and long tokens written into it."""
    data = draw(st.one_of(st.builds(lambda g: emit_alist(g).encode(),
                                    irregular_graphs(max_degree=6)), _malformed_alist()))
    data = data.replace(b"\n", b"\0").replace(b" ", b"\1")
    parts = []
    for byte in data:
        if byte == 0:
            byte = draw(st.sampled_from(_LINE_BREAKS))
        elif byte == 1:
            byte = draw(st.sampled_from(_BLANKS))
        else:
            byte = bytes([byte])
        parts.append(byte)
    data = bytearray(b"".join(parts))
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(data)))
        data[pos:pos] = draw(st.sampled_from(_LONG_TOKENS + _BLANKS + _LINE_BREAKS))
    return bytes(data)


def _parse_outcome(parse, data):
    try:
        g = parse(data)
    except AlistError as exc:
        return "AlistError", str(exc)
    return "ok", g.n, g.m, *(getattr(g, name).tolist() for name in
                             ("check_indptr", "check_indices", "var_indptr", "var_indices"))


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(data=st.one_of(_malformed_alist(), st.binary(max_size=40), _respaced_alist()))
@example(data=SINGLE_CHECK_ALIST.replace("\n", "\r\n").encode())
@example(data=SINGLE_CHECK_ALIST.replace("1 3\n", "99999999999999999999 3\n").encode())
@example(data=SINGLE_CHECK_ALIST.replace("1 3\n", "99999999999999999999 3\n")
         .replace("1 1 1\n", "100000000000000000000 1 1\n").encode())  # beyond a long maximum
@example(data=SINGLE_CHECK_ALIST.replace("1 3\n", "99999999999999999999 3\n")
         .replace("1 1 1\n", "10000000000000000000 1 1\n").encode())  # within it
@example(data=SINGLE_CHECK_ALIST.replace("1 2 3", "1 2 0000000000000000000000003").encode())
@example(data=b"99999999999999999999 0\n1 1\n1\n1\n")
@example(data=SINGLE_CHECK_ALIST.replace("1 3\n", "9" * 5000 + " 3\n").encode())
@example(data=b"3 1\x1c1 3\x1d1\x1f1 1\x1e3\f1\v1\r1\n1 2 x3\n")
@example(data=PADDED_ALIST.encode().replace(b" ", b"\x1f").replace(b"\n", b"\x0b", 5)
         .replace(b"\n", b"\x0c", 1).replace(b"\n", b"\x1c\x1d\x1e", 3))
@example(data=SINGLE_CHECK_ALIST.replace("1 2 3", "1 2 " + "9" * 4300).encode())  # out of range
@example(data=SINGLE_CHECK_ALIST.replace("1 2 3", "1 2 " + "0" * 4299 + "3").encode())
def test_parse_matches_per_token_parser(data):
    # bytes, and the same document as text (where a byte >= 128 is a
    # non-ASCII character): an equal graph, or the same AlistError message
    for doc in (data, data.decode("latin-1")):
        assert _parse_outcome(parse_alist, doc) == _parse_outcome(parse_alist_by_tokens, doc)


def _outcome(fn, *errors):
    try:
        return "ok", fn()
    except errors as exc:
        return type(exc).__name__, str(exc)


def _csr_views(g):
    """The tuple views rebuilt from the CSR index arrays."""
    def rows(indptr, indices):
        return tuple(tuple(indices[a:b].tolist()) for a, b in zip(indptr[:-1], indptr[1:]))
    return rows(g.check_indptr, g.check_indices), rows(g.var_indptr, g.var_indices)


@st.composite
def _raw_graphs(draw):
    """(n, rows) with mostly valid indices, some out of range or beyond int64."""
    n = draw(st.integers(-1, 7))
    index = st.one_of(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                      st.integers(-2, n + 2), st.sampled_from([2**63, -2**63 - 1, 2**70]))
    rows = draw(st.lists(st.lists(index, max_size=min(6, max(n, 1)), unique=draw(st.booleans())),
                         max_size=5))
    return n, rows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(raw=_raw_graphs())
@example(raw=(3, [[0, 1, 0, 5]]))  # repeated edge before a range error
@example(raw=(3, [[1, 7, 1]]))  # range error before a repeated edge
@example(raw=(3, [[1, 2], [2, -1, 2, 1]]))
def test_constructor_matches_per_edge_loops(raw):
    n, rows = raw
    want = _outcome(lambda: tanner_views_by_loops(n, rows), ValueError)
    got = _outcome(lambda: TannerGraph(n, rows), ValueError)
    if want[0] != "ok":
        assert got == want
        return
    g = got[1]
    assert (g.check_nbrs, g.var_nbrs) == want[1]
    assert _csr_views(g) == want[1]
    assert g.check_degrees.tolist() == [len(r) for r in want[1][0]]
    assert g.var_degrees.tolist() == [len(r) for r in want[1][1]]
    assert g.edges() == tuple((i, j) for i in range(g.n) for j in want[1][1][i])


def test_csr_arrays_are_read_only():
    g = generate_regular(8, 3, 4, seed=1)
    for arr in (g.check_indptr, g.check_indices, g.var_indptr, g.var_indices,
                g.var_degrees, g.check_degrees, g.edge_var):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert (g.check_degrees == 4).all()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=st.one_of(
    irregular_graphs(max_degree=6),
    irregular_graphs(max_degree=6).map(lambda g: parse_alist(emit_alist(g))),
    st.builds(lambda k, seed: generate_regular(4 * k, 3, 4, seed),
              st.integers(1, 6), st.integers(0, 2**32 - 1)),
))
@example(g=TannerGraph(3, [[], [0, 2], []]))  # degree-0 checks
@example(g=TannerGraph(3, [[0, 1, 2], [0], [1, 2]]))  # variable-regular only
@example(g=TannerGraph(3, [[0, 1]]))  # an isolated variable beside a uniform check side
@example(g=TannerGraph(2, [[], []]))  # no edges: both sides read 0
def test_stored_degrees_and_edge_vars_match_the_csr_arrays(g):
    for stored, want in ((g.check_degrees, np.diff(g.check_indptr)),
                         (g.var_degrees, np.diff(g.var_indptr)),
                         (g.edge_var, np.repeat(np.arange(g.n), g.var_degrees))):
        assert stored.dtype == np.int64
        assert np.array_equal(stored, want)
    # a side's regular degree: its maximum d when d times its node count is
    # the edge total, else None; equally, its one distinct degree
    for stored, degrees in ((g.regular_var_degree, g.var_degrees),
                            (g.regular_check_degree, g.check_degrees)):
        d = int(degrees.max())
        assert stored == (d if d * degrees.size == g.num_edges else None)
        assert stored == (d if len(set(degrees.tolist())) == 1 else None)
        assert stored is None or type(stored) is int
    # the check-side construction of H
    h = np.zeros((g.m, g.n), dtype=np.uint8)
    h[np.repeat(np.arange(g.m), np.diff(g.check_indptr)), g.check_indices] = 1
    got = g.parity_check_matrix()
    assert got.dtype == np.uint8 and np.array_equal(got, h)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    d_v=st.integers(1, 8), d_c=st.integers(2, 9), k=st.integers(1, 10),
    skew=st.sampled_from([0] * 7 + [1]), seed=st.integers(0, 2**32 - 1),
    cap=st.sampled_from([1, 40]),
)
@example(d_v=0, d_c=4, k=1, skew=0, seed=0, cap=40)
@example(d_v=3, d_c=1, k=1, skew=0, seed=0, cap=40)
@example(d_v=3, d_c=4, k=64, skew=0, seed=3, cap=40)  # n = 256
@example(d_v=3, d_c=9, k=4, skew=0, seed=0, cap=40)  # n = 36: high d_c, fails
# the sizes the benchmark and the tests sample, at the full and a shortened cap
@example(d_v=3, d_c=4, k=128, skew=0, seed=3, cap=tanner.RETRY_CAP)  # n = 512
@example(d_v=3, d_c=4, k=128, skew=0, seed=3, cap=1)
@example(d_v=3, d_c=4, k=256, skew=0, seed=3, cap=tanner.RETRY_CAP)  # n = 1024
@example(d_v=3, d_c=4, k=256, skew=0, seed=3, cap=1)
@example(d_v=3, d_c=6, k=24, skew=0, seed=3, cap=tanner.RETRY_CAP)  # n = 48
@example(d_v=3, d_c=6, k=24, skew=0, seed=3, cap=1)
@example(d_v=1, d_c=2, k=257, skew=0, seed=3, cap=1)  # m = 257: the first uint16 check key
def test_generate_regular_matches_unique_oracle(d_v, d_c, k, skew, seed, cap):
    # n is a multiple of d_c / gcd(d_v, d_c) unless skewed; small n with
    # large d_c exhausts the shortened retry cap, so failures are compared too
    n = k * d_c // math.gcd(max(d_v, 1), d_c) + skew
    errors = (ValueError, GenerationError)
    want = _outcome(lambda: generate_regular_by_unique(n, d_v, d_c, seed, cap), *errors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanner, "RETRY_CAP", cap)
        got = _outcome(lambda: generate_regular(n, d_v, d_c, seed), *errors)
    if got[0] == "ok":
        assert got[1].n == n
        got = "ok", got[1].check_nbrs
    assert got == want


@pytest.mark.parametrize("n", [255, 256, 257, 65535, 65536, 65537])
def test_variable_side_csr_matches_an_int64_stable_argsort_at_every_key_width(n):
    # _set_csr sorts by variable with keys of np.min_scalar_type(n - 1):
    # uint8 up to n = 256, uint16 up to n = 65536, then uint32
    rng = np.random.default_rng(n)
    g = TannerGraph(n, [rng.permutation(n)[:n // 2 + j] for j in range(4)])
    var_of = np.asarray(g.check_indices, dtype=np.int64)
    order = np.argsort(var_of, kind="stable")
    var_indptr = np.concatenate([[0], np.cumsum(np.bincount(var_of, minlength=n))])
    for got, want in ((g.var_indptr, var_indptr), (g.edge_var, var_of[order]),
                      (g.var_indices, np.repeat(np.arange(g.m), g.check_degrees)[order])):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)


def test_generate_regular_failure_matches_oracle_at_full_cap():
    want = _outcome(lambda: generate_regular_by_unique(44, 3, 11, 0, tanner.RETRY_CAP),
                    GenerationError)
    assert want[0] == "GenerationError"
    assert _outcome(lambda: generate_regular(44, 3, 11, 0), GenerationError) == want


def _tiers(g, root):
    t = bfs_tiers(g, root)
    assert t.root == root
    return t.var_tier, t.check_tier, t.num_tiers


def _bfs_outcome(fn):
    try:
        var_tier, check_tier, num_tiers = fn()
    except DisconnectedGraphError as exc:
        return "disconnected", exc.unreachable_vars, exc.unreachable_checks, str(exc)
    assert var_tier.dtype == check_tier.dtype == np.int64
    return "ok", var_tier.tolist(), check_tier.tolist(), num_tiers


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=irregular_graphs(max_degree=6))
def test_bfs_tiers_matches_queue_oracle(g):
    # degree-0 and -1 checks and disconnected graphs included; every root
    for root in range(g.n):
        assert _bfs_outcome(lambda: _tiers(g, root)) == \
            _bfs_outcome(lambda: bfs_tiers_by_queue(g, root))


def _check_regular_graph(n, d_c, m, seed):
    """Each of m checks samples d_c distinct variables: a uniform check side
    and whatever variable degrees the sampling gives."""
    rng = np.random.default_rng(seed)
    return TannerGraph(n, [sorted(rng.choice(n, size=d_c, replace=False).tolist())
                           for _ in range(m)])


@pytest.mark.parametrize("g, var_side_uniform", [
    (var_regular_graph(60, 25, 50, seed=3), True),
    (_check_regular_graph(24, 4, 30, seed=3), False),  # connected
    (_check_regular_graph(40, 4, 20, seed=3), False),  # isolated variables
], ids=["var-regular", "check-regular", "check-regular-disconnected"])
def test_bfs_tiers_matches_queue_oracle_on_one_sided_regular_graphs(g, var_side_uniform):
    # one side gathers rows of one width, the other goes through _csr_gather
    uniform = [int(d.min()) == int(d.max()) for d in (g.var_degrees, g.check_degrees)]
    assert uniform == [var_side_uniform, not var_side_uniform]
    for root in range(g.n):
        assert _bfs_outcome(lambda: _tiers(g, root)) == \
            _bfs_outcome(lambda: bfs_tiers_by_queue(g, root))


def test_bfs_tiers_reads_root_as_an_index(g34_small):
    want = _tiers(g34_small, 1)
    for root in (np.int64(1), np.uint8(1)):
        t = bfs_tiers(g34_small, root)
        assert type(t.root) is int and t.root == 1
        assert _bfs_outcome(lambda: (t.var_tier, t.check_tier, t.num_tiers)) == \
            _bfs_outcome(lambda: want)
    for root in (1.0, np.float64(1.0), "1", None, True, np.True_):
        with pytest.raises(TypeError):
            bfs_tiers(g34_small, root)
    for root in (-1, g34_small.n):
        with pytest.raises(ValueError, match="out of range"):
            bfs_tiers(g34_small, root)


@pytest.mark.parametrize("n, d_v, d_c", [(256, 3, 4), (96, 3, 6), (60, 4, 5)])
def test_bfs_tiers_matches_queue_oracle_on_regular_graphs(n, d_v, d_c):
    g = generate_regular(n, d_v, d_c, seed=3)
    for root in (0, 1, n // 2, n - 1):
        assert _bfs_outcome(lambda: _tiers(g, root)) == \
            _bfs_outcome(lambda: bfs_tiers_by_queue(g, root))
