import itertools
import math
import random

import numpy as np
import pytest

from coinforge import combinatorics
from coinforge._kernels import mask_positions, membership_matrix, rows_meeting_threshold, suffix_table
from coinforge.combinatorics import (
    PublishGraph,
    _scan,
    sample_without_replacement,
    verify_committees,
    verify_publish_graph,
)


def _brute(rows, b_sets, threshold):
    out = []
    for b in b_sets:
        bs = set(b)
        out.append(sum(1 for r in rows if len(bs & set(r)) >= threshold))
    return out


def test_kernel_matches_bruteforce():
    rng = random.Random(5)
    for n in (12, 70):
        rows = [tuple(sorted(rng.sample(range(n), 5))) for _ in range(7)]
        rows.append(tuple(range(n - 5, n)))  # straddles the word boundary when n > 64
        b_sets = list(itertools.combinations(range(n), 3))
        member = membership_matrix(rows, n)
        masks = membership_matrix(b_sets, n)
        for threshold in (1.0, 1.5, 2.0, 5 / 3):
            got = rows_meeting_threshold(member, masks, threshold)
            assert got.tolist() == _brute(rows, b_sets, threshold)


def test_empty_b_sets():
    member = membership_matrix([(0, 1)], 3)
    empty = membership_matrix([()] * 4, 3)
    assert rows_meeting_threshold(member, empty, 1.0).tolist() == [0, 0, 0, 0]


def test_membership_matrix_shape():
    m = membership_matrix([(0, 2), (1,)], 4)
    assert m.dtype == np.uint64 and m.tolist() == [[0b101], [0b10]]
    wide = membership_matrix([(0, 63, 64, 65)], 66)
    assert wide.tolist() == [[1 | 1 << 63, 0b11]]
    assert mask_positions(wide[0]) == (0, 63, 64, 65)


@pytest.mark.parametrize("width,k", [(5, 0), (6, 1), (9, 4), (12, 3), (70, 2)])
def test_suffix_table_is_lex_order(width, k):
    table = suffix_table(width, k)
    assert [mask_positions(m) for m in table] == list(itertools.combinations(range(width), k))
    assert not table.flags.writeable
    for j in range(width):  # subsets with minimum >= j form a tail
        tail = table[len(table) - math.comb(width - j, k):]
        assert all(min(mask_positions(m), default=width) >= j for m in tail)


# --- the exhaustive scan against an itertools reference ----------------------


def _reference_scan(rows, universe, size, threshold, cap):
    """First violating B in lex order over `universe`, with the checks count of
    an enumeration in blocks of 8192 fault sets."""
    total = math.comb(len(universe), size)
    row_sets = [set(r) for r in rows]
    for rank, b in enumerate(itertools.combinations(universe, size)):
        bs = set(b)
        if sum(1 for r in row_sets if len(r & bs) >= threshold) >= cap:
            return b, len(rows) * min(total, (rank // 8192 + 1) * 8192)
    return None, len(rows) * total


def _check_committees(committees, n, alpha, epsilon, c):
    b = combinatorics.committee_fault_size(n, alpha, epsilon)
    want = _reference_scan(committees, list(range(n)), b, alpha * len(committees[0]), c)
    res = verify_committees(committees, n, alpha, epsilon, c, "exhaustive", check_budget=10**9)
    assert (res.witness, res.checks) == want
    assert res.passed == (want[0] is None)
    return res


def test_scan_matches_reference_on_random_layouts():
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(60):
        n = rng.choice([8, 10, 13, 16])
        s = rng.randint(2, n // 2 + 1)
        q = rng.randint(1, 9)
        c = rng.randint(1, 4)
        committees = tuple(sample_without_replacement(rng, list(range(n)), s) for _ in range(q))
        outcomes.add(_check_committees(committees, n, 1 / 3, 1 / 12, c).passed)
    assert outcomes == {True, False}


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
    assert _scan(rows, range(30), 0, 1.0, 1) == (None, 0)
    assert _scan(rows, range(30), 4, 3.0, 3) == ((0, 1, 2, 3), 3 * 8192)


def test_publish_graph_scan_with_non_contiguous_ids_matches_reference():
    rng = random.Random(99)
    outcomes = set()
    for _ in range(30):
        members = tuple(sorted(rng.sample(range(200), rng.randint(4, 12))))
        s = len(members)
        delta = rng.randint(1, s)
        adjacency = tuple(sample_without_replacement(rng, list(members), delta)
                          for _ in range(rng.randint(1, 20)))
        d = rng.randint(1, 4)
        b = combinatorics.graph_fault_size(s)
        want = _reference_scan(adjacency, list(members), b, delta / 2.0, d)
        res = verify_publish_graph(PublishGraph(0, adjacency, "x", 0), members, d,
                                   force_enumeration=True)
        assert (res.witness, res.checks) == (want if b else (None, 0))
        outcomes.add(res.passed)
    assert outcomes == {True, False}
