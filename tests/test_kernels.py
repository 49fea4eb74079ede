import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinforge import combinatorics
from coinforge._kernels import (
    intersection_sizes,
    mask_positions,
    membership_matrix,
    rows_meeting_threshold,
    suffix_table,
)
from coinforge.combinatorics import (
    PublishGraph,
    _scan,
    gen_committees,
    gen_publish_graph,
    sample_without_replacement,
    verify_committees,
    verify_publish_graph,
)
from coinforge.params import ParamError, crusader_fault_bound


def _matrix(rows, width):
    """membership_matrix of per-row position lists."""
    return membership_matrix([sum(1 << p for p in set(row)) for row in rows], width)


@pytest.mark.parametrize("n,block_words", [(12, 1 << 16), (70, 1), (70, 5000), (130, 20000)])
def test_intersection_sizes_match_bruteforce(n, block_words):
    # multiword masks past 64 positions, and row blocks of one row or several
    rng = random.Random(n)
    rows = [tuple(sorted(rng.sample(range(n), 9))) for _ in range(6)]
    rows.append(tuple(range(n - 9, n)))  # straddles the word boundary when n > 64
    b_sets = list(itertools.combinations(range(n), 2)) + [tuple(range(n - 4, n))]
    got = intersection_sizes(_matrix(rows, n), _matrix(b_sets, n), block_words)
    assert got.dtype == np.uint8 and got.shape == (len(rows), len(b_sets))
    assert got.tolist() == [[len(set(r) & set(b)) for b in b_sets] for r in rows]


def test_kernel_matches_bruteforce():
    rng = random.Random(5)
    for rows, m in ((1, 40), (7, 300), (300, 20)):  # 300 rows need a count wider than uint8
        sizes = np.array([[rng.randint(0, 6) for _ in range(rows)] for _ in range(m)], dtype=np.uint8)
        needs = np.array([rng.randint(1, 6) for _ in range(rows)], dtype=np.uint8)
        got = rows_meeting_threshold(needs, sizes)
        assert got.tolist() == [sum(int(v) >= int(t) for v, t in zip(row, needs)) for row in sizes]
    sizes = np.full((3, 300), 5, dtype=np.uint8)
    assert rows_meeting_threshold(np.full(300, 5, dtype=np.uint8), sizes).tolist() == [300] * 3


def test_empty_b_sets():
    member = _matrix([(0, 1)], 3)
    empty = _matrix([()] * 4, 3)
    assert intersection_sizes(member, empty, 1 << 16).tolist() == [[0, 0, 0, 0]]
    assert intersection_sizes(member, empty[:0], 1 << 16).shape == (1, 0)
    no_rows = np.zeros((4, 0), dtype=np.uint8)  # no row can still meet its threshold
    assert rows_meeting_threshold(np.zeros(0, dtype=np.uint8), no_rows).tolist() == [0, 0, 0, 0]


def test_membership_matrix_matches_bruteforce():
    # bit p of a row's int mask is bit p % 64 of word p // 64, low word first
    rng = random.Random(5)
    for width in (1, 4, 63, 64, 65, 66, 130, 192):
        rows = [(), tuple(range(width)), tuple(sorted({0, width - 1}))] + [
            tuple(sorted(rng.sample(range(width), rng.randint(1, width)))) for _ in range(5)]
        m = membership_matrix([sum(1 << p for p in row) for row in rows], width)
        words = -(-width // 64)
        assert m.dtype == np.uint64 and m.shape == (len(rows), words) and m.flags.writeable
        assert [tuple(p for p in range(64 * words) if int(mask[p // 64]) >> (p % 64) & 1) for mask in m] == rows
        assert [mask_positions(mask) for mask in m] == rows
        assert membership_matrix([], width).shape == (0, words)


@pytest.mark.parametrize("width,k", [(5, 0), (6, 1), (9, 4), (12, 3), (70, 2)])
def test_suffix_table_is_lex_order(width, k):
    table = suffix_table(width, k)
    assert [mask_positions(m) for m in table] == list(itertools.combinations(range(width), k))
    assert not table.flags.writeable
    for j in range(width):  # subsets with minimum >= j form a tail
        tail = table[len(table) - math.comb(width - j, k):]
        assert all(min(mask_positions(m), default=width) >= j for m in tail)


# --- the exhaustive scan against an itertools reference ----------------------


def _reference_scan(rows, universe, size, threshold, cap, chunk=8192):
    """First violating B in lex order over `universe`, with the checks count of
    an enumeration in blocks of `chunk` fault sets."""
    total = math.comb(len(universe), size)
    row_sets = [set(r) for r in rows]
    for rank, b in enumerate(itertools.combinations(universe, size)):
        bs = set(b)
        if sum(1 for r in row_sets if len(r & bs) >= threshold) >= cap:
            return b, len(rows) * min(total, (rank // chunk + 1) * chunk)
    return None, len(rows) * total


def _check_committees(committees, n, alpha, epsilon, c):
    b = combinatorics.committee_fault_size(n, alpha, epsilon)
    want = _reference_scan(committees, list(range(n)), b, alpha * len(committees[0]), c)
    res = verify_committees(committees, n, alpha, epsilon, c, check_budget=10**9)
    if res.enumerated:
        assert (res.witness, res.checks) == want
    assert res.passed == (want[0] is None)
    return res


def test_scan_matches_reference_on_random_layouts():
    rng = random.Random(2024)
    outcomes = set()
    scanned = 0
    for _ in range(60):
        n = rng.choice([8, 10, 13, 16])
        s = rng.randint(2, n // 2 + 1)
        q = rng.randint(1, 9)
        c = rng.randint(1, 4)
        committees = tuple(sample_without_replacement(rng, list(range(n)), s) for _ in range(q))
        res = _check_committees(committees, n, 1 / 3, 1 / 12, c)
        outcomes.add(res.passed)
        scanned += res.enumerated
    assert outcomes == {True, False}
    assert scanned >= 50


@pytest.mark.parametrize("n,b,start", [
    (24, 6, 18),   # witness is the last of C(24,6)=134596 sets: several chunks
    (24, 6, 7),    # witness past the first 8192 sets, inside a later chunk
    (20, 5, 2),
    (70, 3, 62),   # multiword masks, witness straddles bit 64
    (70, 2, 68),
])
def test_scan_finds_deep_witness_like_reference(n, b, start):
    committee = tuple(range(start, start + b))
    res = _check_committees((committee, committee), n, 1.0, 1 - (b + 0.5) / n, 2)
    assert res.witness == committee


def test_scan_full_pass_counts_every_check():
    rows = [(0, 1, 2)] * 3
    assert _scan(rows, range(30), 4, 4.0, 1) == (None, 3 * math.comb(30, 4))
    assert _scan(rows, range(30), 0, 1.0, 1) == (None, 3)  # C(30, 0) = 1 fault set, the empty one
    assert _scan(rows, range(30), 4, 3.0, 3) == ((0, 1, 2, 3), 3 * 8192)


@st.composite
def _scan_cases(draw):
    """Rows, universe, size, quota, cap and a suffix-table limit for `_scan`.

    The universe is range(width) or a sorted set of ids below 300, up to 70
    wide so that masks take two words. Sizes keep C(width, size) at most 3000
    so that the reference stays quick; a table limit below C(width, size)
    makes k < size, so the scan walks many prefixes, and the largest limit
    gives k = size, one empty prefix. A small block size for the `checks`
    count makes that count tell the witness's rank.
    """
    width = draw(st.integers(1, 70))
    if draw(st.booleans()):
        universe = range(width)
    else:
        universe = sorted(draw(st.sets(st.integers(0, 299), min_size=width, max_size=width)))
    size = draw(st.sampled_from([s for s in range(width + 1) if math.comb(width, s) <= 3000]))
    row_size = draw(st.integers(1, width))
    rows = draw(st.lists(st.permutations(list(universe)).map(lambda p: tuple(sorted(p[:row_size]))),
                         min_size=1, max_size=8))
    quota = draw(st.integers(1, row_size))
    cap = draw(st.integers(1, len(rows)))
    limit = draw(st.sampled_from([1, 4, 64, 1 << 16]))
    chunk = draw(st.sampled_from([1, 7, 8192]))
    return rows, universe, size, quota, cap, limit, chunk


@settings(max_examples=200, deadline=None)
@given(case=_scan_cases())
def test_scan_matches_reference_property(case):
    rows, universe, size, quota, cap, limit, chunk = case
    with mock.patch.object(combinatorics, "_TABLE", limit), mock.patch.object(combinatorics, "_CHUNK", chunk):
        got = _scan(rows, universe, size, quota, cap)
    assert got == _reference_scan(rows, list(universe), size, quota, cap, chunk)


def test_exact_bound_skips_prefixes_before_a_deep_witness(monkeypatch):
    # width 24, size 6: k = 5 and one prefix per first element. Two copies of the
    # committee (18..23) with quota 6 meet a prefix (f,) with f < 18 in no member,
    # so each needs 6 > k tail members and every earlier prefix is skipped
    # without a compare; the witness is the last B, past 16 blocks of _CHUNK
    calls = []
    kernel = combinatorics.rows_meeting_threshold
    monkeypatch.setattr(combinatorics, "rows_meeting_threshold",
                        lambda needs, sizes: calls.append(sizes.shape) or kernel(needs, sizes))
    rows = [tuple(range(18, 24))] * 2
    got = _scan(rows, range(24), 6, 6, 2)
    assert got == _reference_scan(rows, list(range(24)), 6, 6, 2) == (tuple(range(18, 24)), 2 * math.comb(24, 6))
    assert calls == [(1, 2)]  # only the prefix (18,), whose one tail is (19..23)

    # a quota one lower leaves each row a need of 5 <= k from the first prefix on,
    # so the first prefix (0,) is compared over its whole tail and holds the witness
    calls.clear()
    got = _scan(rows, range(24), 6, 5, 2)
    assert got == _reference_scan(rows, list(range(24)), 6, 5, 2)
    assert got[0] == (0, 18, 19, 20, 21, 22)
    assert calls == [(math.comb(23, 5), 2)]


def _layout_point():
    n, q, s, c, d, delta = 32, 9, 16, 4, 6, 9
    layout = gen_committees(n, q, s, 0.3333, 0.125, c, seed=5, verify_mode="none")
    graph = gen_publish_graph(layout.committees[0], n, d, delta, seed=0, verify_mode="none")
    return (lambda: verify_committees(layout.committees, n, 0.3333, 0.125, c),
            lambda: verify_publish_graph(graph, layout.committees[0], d))


@pytest.mark.parametrize("scan", [0, 1], ids=["committees", "graph"])
def test_scan_memory_at_the_layout_point(scan):
    # the benchmark's layout point (n=32, q=9, s=16, c=4; d=6, delta=9): one scan's
    # peak traced allocation, after a first call has built the cached suffix table
    call = _layout_point()[scan]
    res = call()
    assert res.enumerated
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_unscanned_passes_have_no_witness_in_the_reference_scan():
    # wherever the rule passes a cap without a scan, the reference finds no violating B;
    # the draws reach epsilon <= 0, s = n, q < c, empty fault sets and degrees below
    # ceil(2s/3), and a threshold of 0 or less (alpha <= 0, degree 0) is refused at input
    rng = random.Random(12)
    reasons = {}
    refused = {"committees": 0, "graph": 0}
    for _ in range(300):
        n = rng.randint(2, 10)
        s = rng.choice((rng.randint(1, n), n))
        alpha = rng.choice((-0.5, 0.0, 0.2, 1 / 3, 0.5, 0.75))
        epsilon = rng.choice((-0.25, -0.05, 0.0, 1 / 12, 0.15))
        c = rng.randint(1, 5)
        committees = tuple(sample_without_replacement(rng, list(range(n)), s) for _ in range(rng.randint(1, 6)))
        if alpha <= 0:
            with pytest.raises(ParamError, match="alpha must be positive"):
                verify_committees(committees, n, alpha, epsilon, c, check_budget=10**9)
            refused["committees"] += 1
        else:
            res = verify_committees(committees, n, alpha, epsilon, c, check_budget=10**9)
            b = combinatorics.committee_fault_size(n, alpha, epsilon)
            assert res.passed == (_reference_scan(committees, list(range(n)), b, alpha * s, c)[0] is None)
            if not res.enumerated:
                key = ("committees", res.note, epsilon <= 0, len(committees) < c, s == n, b == 0)
                reasons[key] = reasons.get(key, 0) + 1

        members = tuple(sorted(rng.sample(range(20), rng.randint(1, 10))))
        delta = rng.randint(0, len(members))
        adjacency = tuple(sample_without_replacement(rng, list(members), delta) for _ in range(rng.randint(1, 8)))
        d = rng.randint(1, 4)
        graph = PublishGraph(0, adjacency, "x", 0)
        if delta == 0:
            with pytest.raises(ParamError, match="degree must be at least 1"):
                verify_publish_graph(graph, members, d, check_budget=10**9)
            refused["graph"] += 1
            continue
        res = verify_publish_graph(graph, members, d, check_budget=10**9)
        b = crusader_fault_bound(len(members))
        assert res.passed == (_reference_scan(adjacency, list(members), b, delta / 2.0, d)[0] is None)
        if not res.enumerated:
            key = ("graph", res.note, False, len(adjacency) < d, delta < math.ceil(2 * len(members) / 3), b == 0)
            reasons[key] = reasons.get(key, 0) + 1
    rules = ("fewer rows than the cap", "fault sets are smaller than the threshold")
    assert min(refused.values()) > 0
    for kind in ("committees", "graph"):
        assert {key[1] for key in reasons if key[0] == kind} == set(rules)
        assert any(key[0] == kind and key[1] == rules[1] and key[5] for key in reasons)  # empty fault sets
    assert {key[1] for key in reasons if key[0] == "committees" and key[2]} == set(rules)  # epsilon <= 0
    assert any(key[:5] == ("committees", rules[1], True, False, True) for key in reasons)  # s = n, epsilon <= 0
    assert any(key[0] == "committees" and key[3] for key in reasons)  # q < c
    assert any(key[:5] == ("graph", rules[1], False, False, True) for key in reasons)  # degree < ceil(2s/3)


def test_a_threshold_of_zero_is_refused_not_passed():
    # at alpha = 0 the empty fault set meets every committee in >= 0 members, so no
    # layout meets the cap; the verifier and the generator both refuse the input
    with pytest.raises(ParamError, match="alpha must be positive"):
        verify_committees(((0, 1, 2, 3),) * 5, 8, 0.0, 0.0, 2)
    with pytest.raises(ParamError, match="alpha must be positive"):
        combinatorics.gen_committees(8, 5, 4, 0.0, 0.0, 2, seed=0)
    with pytest.raises(ParamError, match="degree must be at least 1"):
        verify_publish_graph(PublishGraph(0, ((),) * 3, "x", 0), (0, 1, 2), 1)


@pytest.mark.parametrize("call,message", [
    (lambda: verify_committees(((),) * 5, 8, 1 / 3, 1 / 3, 2), "one size >= 1"),  # {} meets every empty row
    (lambda: verify_committees((), 8, 1 / 3, 1 / 12, 2), "one or more rows"),
    (lambda: verify_committees(((0, 1, 2, 3), (4, 5, 6)), 8, 1 / 3, 1 / 12, 2), r"sizes \[3, 4\]"),
    (lambda: verify_publish_graph(PublishGraph(0, ((0, 1), (1, 2), (2,)), "x", 0), (0, 1, 2), 2), "one size"),
    (lambda: verify_committees(((0, 1, 2, 3),) * 5, 8, 0.9, -0.5, 2), "= 11 exceeds n=8"),
    (lambda: combinatorics.gen_committees(8, 5, 4, 0.9, -0.5, 2, seed=0), "= 11 exceeds n=8"),
], ids=["empty-rows", "no-rows", "mixed-committee-sizes", "unequal-degrees", "b-above-n", "gen-b-above-n"])
def test_inputs_without_one_row_size_or_with_b_above_n_are_refused(call, message):
    with pytest.raises(ParamError, match=message):
        call()


def test_publish_graph_scan_with_non_contiguous_ids_matches_reference():
    rng = random.Random(99)
    outcomes = set()
    scanned = 0
    for _ in range(60):
        members = tuple(sorted(rng.sample(range(200), rng.randint(4, 12))))
        s = len(members)
        delta = rng.randint(1, s)
        adjacency = tuple(sample_without_replacement(rng, list(members), delta)
                          for _ in range(rng.randint(1, 20)))
        d = rng.randint(1, 4)
        b = crusader_fault_bound(s)
        want = _reference_scan(adjacency, list(members), b, delta / 2.0, d)
        res = verify_publish_graph(PublishGraph(0, adjacency, "x", 0), members, d)
        if res.enumerated:
            assert (res.witness, res.checks) == want
            scanned += 1
        else:
            assert want[0] is None and res.passed
        outcomes.add(res.passed)
    assert outcomes == {True, False} and scanned >= 15
