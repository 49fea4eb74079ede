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
from coinforge.params import ParamError, crusader_fault_bound


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
