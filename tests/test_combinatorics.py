import copy
import itertools
import json
import math
import random

import pytest

from coinforge.combinatorics import (
    DEFAULT_CHECK_BUDGET,
    GenerationError,
    InfeasibleGraphError,
    InfeasibleLayoutError,
    PublishGraph,
    VERIFY_MODES,
    VerificationBudgetError,
    check_committee_feasibility,
    check_graph_feasibility,
    dumps_layout,
    gen_committees,
    gen_publish_graph,
    layout_document,
    layout_from_document,
    loads_layout,
    overloading_fault_sets,
    sample_without_replacement,
    verify_committees,
    verify_publish_graph,
)
from coinforge.params import ParamError, publish_degree


def test_sampling_is_uniform_sorted_and_reproducible():
    rng = random.Random(3)
    got = sample_without_replacement(rng, list(range(10)), 4)
    assert got == tuple(sorted(got)) and len(set(got)) == 4
    assert sample_without_replacement(random.Random(3), list(range(10)), 4) == got
    seen = set()
    for _ in range(400):
        seen.update(sample_without_replacement(rng, list(range(10)), 4))
    assert seen == set(range(10))


def test_full_committee_branch():
    layout = gen_committees(14, 9, 14, 1 / 3, 1 / 12, 3, seed=0)
    assert layout.committees == tuple(tuple(range(14)) for _ in range(9))
    assert layout.verified == "exhaustive"
    assert layout.attempts == 1
    # any fault set intersects every committee in |B| < alpha*s elements
    res = verify_committees(layout.committees, layout.n, 1 / 3, 1 / 12, 1)
    assert res.passed


def test_full_committees_at_epsilon_zero_are_no_proof():
    # b = floor(0.5 * 6) = 3 reaches alpha*s = 3: {0, 1, 2} overloads every copy of [6]
    res = verify_committees((tuple(range(6)),) * 3, 6, 0.5, 0.0, 1)
    assert not res.passed and res.witness == (0, 1, 2)
    with pytest.raises(InfeasibleLayoutError):
        gen_committees(6, 3, 6, 0.5, 0.0, 1, seed=0)
    assert gen_committees(6, 3, 6, 0.5, 0.0, 1, seed=0, verify_mode="none").verified == "unverified"


def test_c_zero_rejected():
    with pytest.raises(ParamError, match="c must be at least 1"):
        gen_committees(14, 9, 6, 1 / 3, 1 / 12, 0, seed=0)


def test_handbuilt_overloaded_layout_fails_with_lex_smallest_witness():
    committees = ((0, 1, 2, 3), (0, 1, 4, 5), (2, 4, 6, 8), (3, 5, 7, 9), (6, 7, 8, 9))
    res = verify_committees(committees, 10, 1 / 3, 1 / 12, 2)
    assert not res.passed
    assert res.witness == (0, 1)  # both committees 0 and 1 contain {0, 1}


def test_feasible_layout_verifies_and_reverifies():
    layout = gen_committees(8, 5, 4, 1 / 3, 1 / 12, 4, seed=11)
    assert layout.verified == "exhaustive"
    again = verify_committees(layout.committees, layout.n, 1 / 3, 1 / 12, 4)
    assert again.passed  # idempotent
    twin = gen_committees(8, 5, 4, 1 / 3, 1 / 12, 4, seed=11)
    assert twin.committees == layout.committees  # reproducible


def test_overconstrained_point_always_fails():
    # At (n=14, q=9, s=6, alpha=1/3, eps=1/12) every committee is overloaded by
    # exactly 140 of the 364 size-3 fault sets, so sum_B count(B) = 1260 and no
    # assignment keeps every count under c=3. The verifier must find a witness
    # for every candidate and the generator must give up at its resample cap.
    for seed in range(4):
        rng = random.Random(seed)
        committees = tuple(sample_without_replacement(rng, list(range(14)), 6) for _ in range(9))
        res = verify_committees(committees, 14, 1 / 3, 1 / 12, 3)
        assert not res.passed and res.witness is not None
    with pytest.raises(GenerationError, match="resamples"):
        gen_committees(14, 9, 6, 1 / 3, 1 / 12, 3, seed=0, max_attempts=8)


def _certificate_fires(n, q, s, alpha, epsilon, c):
    try:
        check_committee_feasibility(n, q, s, alpha, epsilon, c)
    except InfeasibleLayoutError:
        return True
    return False


def test_overloading_count_matches_brute_force():
    for n in range(2, 10):
        for s in range(1, n + 1):
            for b in range(0, n + 1):
                for alpha in (0.2, 1 / 3, 0.3333, 0.5):
                    committee = set(range(s))
                    want = sum(1 for fault_set in itertools.combinations(range(n), b)
                               if len(committee & set(fault_set)) >= alpha * s)
                    assert overloading_fault_sets(n, s, b, alpha) == want, (n, s, b, alpha)


def test_certificate_fires_only_above_the_pigeonhole_limit():
    # n=4, s=2, alpha=1/2, eps=1/8: b=1, each committee is overloaded by N=2 of
    # the C(4,1)=4 singletons. q=2, c=2 sits at equality (2*2 = 1*4): feasible.
    assert overloading_fault_sets(4, 2, 1, 1 / 2) == 2
    assert not _certificate_fires(4, 2, 2, 1 / 2, 1 / 8, 2)
    assert verify_committees(((0, 1), (2, 3)), 4, 1 / 2, 1 / 8, 2).passed
    with pytest.raises(InfeasibleLayoutError, match="resamples") as info:
        gen_committees(4, 3, 2, 1 / 2, 1 / 8, 2, seed=0)
    err = info.value
    assert (err.n, err.q, err.s, err.b, err.c) == (4, 3, 2, 1, 2)
    assert (err.per_committee, err.total, err.limit) == (2, 6, 4)
    assert isinstance(err, GenerationError)


def test_certificate_agrees_with_exhaustive_verifier():
    rng = random.Random(7)
    fired = 0
    for n in range(4, 10):
        for s in range(2, n):
            for q in (2, 3, 5):
                for c in (1, 2, 3):
                    alpha, epsilon = 1 / 3, 1 / 12
                    if not _certificate_fires(n, q, s, alpha, epsilon, c):
                        continue
                    fired += 1
                    for _ in range(3):
                        committees = tuple(sample_without_replacement(rng, list(range(n)), s)
                                           for _ in range(q))
                        assert not verify_committees(committees, n, alpha, epsilon, c).passed
    assert fired > 0


def test_certificate_spares_every_point_the_suite_and_benchmark_generate():
    for n, q, s, c, alpha, epsilon in [
        (8, 5, 4, 4, 1 / 3, 1 / 12),
        (16, 9, 4, 3, 1 / 3, 0.15),
        (64, 9, 16, 3, 0.3333, 0.0833),
        (32, 9, 16, 4, 0.3333, 0.125),
        (12, 5, 6, 3, 0.3333, 0.125),
    ]:
        assert not _certificate_fires(n, q, s, alpha, epsilon, c), (n, q, s, c)


def test_epsilon_above_alpha_is_a_param_error():
    # floor((0.1 - 0.3) * 8) = -2: a negative fault size is a bad point, not an itertools error
    with pytest.raises(ParamError, match="negative"):
        gen_committees(8, 5, 4, 0.1, 0.3, 2, seed=0)
    with pytest.raises(ParamError, match="negative"):
        check_committee_feasibility(8, 5, 4, 0.1, 0.3, 2)
    with pytest.raises(ParamError, match="negative"):
        verify_committees(((0, 1, 2, 3),), 8, 0.1, 0.3, 2)


def test_committee_ids_outside_the_universe_are_a_param_error():
    with pytest.raises(ParamError, match="lie in"):
        verify_committees(((0, 1, 40), (2, 3, 4)), 8, 1 / 3, 1 / 12, 2)


def _graph_certificate_fires(s, n, d, delta):
    try:
        check_graph_feasibility(s, n, d, delta)
    except InfeasibleGraphError:
        return True
    return False


def test_graph_certificate_counts_deafening_sets_like_the_verifier():
    # each receiver row is deafened by exactly N of the C(s, b) fault sets
    for s in range(3, 11):
        b = math.ceil(s / 3) - 1
        for delta in range(1, s + 1):
            row = set(range(delta))
            want = sum(1 for fault_set in itertools.combinations(range(s), b)
                       if len(row & set(fault_set)) >= delta / 2.0)
            assert overloading_fault_sets(s, delta, b, 0.5) == want, (s, delta)


def test_graph_certificate_refuses_before_any_draw(monkeypatch):
    # s=9, delta=4: b=2, each row is deafened by C(4,2)=6 of C(9,2)=36 fault sets;
    # n=16 receivers give 96 > (d-1)*36 = 36 at d=2, and 96 <= 3*36 at d=4.
    assert _graph_certificate_fires(9, 16, 2, 4)
    assert not _graph_certificate_fires(9, 16, 4, 4)
    drawn = []
    monkeypatch.setattr("coinforge.combinatorics.sample_without_replacement",
                        lambda *a: drawn.append(a))
    committee = tuple(range(0, 18, 2))
    with pytest.raises(InfeasibleGraphError, match=r"96 > \(d-1\)\*C\(9,2\) = 36") as info:
        gen_publish_graph(committee, 16, 2, 4, seed=0, verify_mode="exhaustive")
    err = info.value
    assert (err.s, err.n, err.delta, err.b, err.d) == (9, 16, 4, 2, 2)
    assert (err.per_receiver, err.total, err.limit) == (6, 96, 36)
    assert isinstance(err, GenerationError)
    assert drawn == []


def test_graph_certificate_only_where_the_verifier_enumerates():
    committee = tuple(range(9))
    assert not _graph_certificate_fires(9, 16, 17, 4)  # d > n short-circuit
    assert not _graph_certificate_fires(9, 16, 2, 6)   # delta = ceil(2s/3) short-circuit
    assert not _graph_certificate_fires(2, 16, 2, 1)   # b = 0
    g = gen_publish_graph(committee, 16, 2, 4, seed=0, verify_mode="none")
    assert g.verified == "unverified"
    # at an infeasible point every sampled graph does fail exhaustive verification
    for seed in range(3):
        rng = random.Random(seed)
        adjacency = tuple(sample_without_replacement(rng, list(committee), 4) for _ in range(16))
        assert not verify_publish_graph(PublishGraph(0, adjacency, "x", 0), committee, 2).passed


def test_graph_certificate_spares_the_benchmark_point():
    # s=16, delta=9, b=5: N = C(9,5) = 126 and 32*126 = 4032 <= (6-1)*C(16,5) = 21840
    assert overloading_fault_sets(16, 9, 5, 0.5) == 126
    assert not _graph_certificate_fires(16, 32, 6, 9)


def test_exhaustive_budget_rejection():
    committees = tuple(tuple(range(i, i + 10)) for i in range(6))
    with pytest.raises(VerificationBudgetError, match="budget of 1000$") as info:
        verify_committees(committees, 40, 1 / 3, 1 / 12, 3, check_budget=1000)
    # b = floor((1/3 - 1/12) * 40) = 10: C(40, 10) fault sets times 6 committees
    assert (info.value.checks, info.value.budget) == (math.comb(40, 10) * 6, 1000)
    assert f"{math.comb(40, 10) * 6} checks" in str(info.value) and "budget of 1000" in str(info.value)


def test_budget_refusal_comes_before_any_draw(monkeypatch):
    drawn = []
    monkeypatch.setattr("coinforge.combinatorics.sample_without_replacement",
                        lambda *a: drawn.append(a))
    # b = floor((0.3333 - 0.125) * 40) = 8: C(40, 8) fault sets times 9 committees
    with pytest.raises(VerificationBudgetError) as info:
        gen_committees(40, 9, 20, 0.3333, 0.125, 3, seed=1)
    assert (info.value.checks, info.value.budget) == (math.comb(40, 8) * 9, DEFAULT_CHECK_BUDGET)
    # s=9, delta=4, d=4 passes the graph certificate; b = 2: C(9, 2) fault sets times 16 rows
    assert not _graph_certificate_fires(9, 16, 4, 4)
    with pytest.raises(VerificationBudgetError) as info:
        gen_publish_graph(tuple(range(9)), 16, 4, 4, seed=0, check_budget=100)
    assert (info.value.checks, info.value.budget) == (math.comb(9, 2) * 16, 100)
    assert drawn == []


def test_points_that_pass_unscanned_are_never_refused_for_budget():
    committee = tuple(range(9))
    assert gen_publish_graph(committee, 16, 17, 4, seed=0, check_budget=0).verified == "exhaustive"  # d > n
    assert gen_publish_graph(committee, 16, 2, 6, seed=0, check_budget=0).verified == "exhaustive"  # ceil(2s/3)
    assert gen_publish_graph((0, 1), 16, 2, 1, seed=0, check_budget=0).verified == "exhaustive"  # b = 0
    assert gen_committees(8, 5, 4, 1 / 3, 1 / 3, 4, seed=11, check_budget=0).verified == "exhaustive"  # b = 0
    # b = ceil(9/3)-1 = 2 < 5/2: no receiver can be deafened, at a degree below ceil(2s/3)
    assert gen_publish_graph(committee, 16, 2, 5, seed=0, check_budget=0).verified == "exhaustive"
    assert gen_committees(40, 9, 20, 0.3333, 0.125, 10, seed=1, check_budget=0).attempts == 1  # q < c
    layout = gen_committees(40, 9, 40, 0.3333, 0.125, 3, seed=1, check_budget=0)
    res = verify_committees(layout.committees, 40, 0.3333, 0.125, 3, check_budget=0)  # s = n: b = 8 < alpha*s
    assert res.passed and not res.enumerated and res.note == "fault sets are smaller than the threshold"


def test_publish_graph_generation_and_exhaustive_verification():
    committee = tuple(range(9))
    delta = publish_degree(9, 1, 16)
    assert delta == 6
    g = gen_publish_graph(committee, 16, 1, delta, seed=4)
    assert len(g.adjacency) == 16
    assert all(len(a) == 6 and a == tuple(sorted(a)) for a in g.adjacency)
    # degree ceil(2s/3) = 6: fault sets of size 2 < 6/2 pass without enumeration, and
    # none of the C(9,2)=36 of them gives any receiver 3 neighbours in B
    res = verify_publish_graph(g, committee, 1)
    assert res.passed and not res.enumerated and res.checks == 0
    assert all(len(set(row) & set(b)) < 3 for b in itertools.combinations(committee, 2) for row in g.adjacency)
    # at degree 4 (threshold 2) the scan runs, passes and visits all 36 fault sets
    scanned = verify_publish_graph(gen_publish_graph(committee, 16, 5, 4, seed=5), committee, 5)
    assert scanned.passed and scanned.enumerated and scanned.checks == 36 * 16
    twin = gen_publish_graph(committee, 16, 1, delta, seed=4)
    assert twin.adjacency == g.adjacency


def test_publish_graph_trivial_branches():
    committee = tuple(range(9))
    g = gen_publish_graph(committee, 4, 1, 6, seed=1, verify_mode="none")
    res = verify_publish_graph(g, committee, 5)  # d > n
    assert res.passed and not res.enumerated and "fewer rows" in res.note


def test_layout_document_roundtrip_is_byte_exact():
    layout = gen_committees(8, 5, 4, 1 / 3, 1 / 12, 4, seed=11)
    graphs = [gen_publish_graph(cmt, 8, 1, 3, seed=j, committee_id=j)
              for j, cmt in enumerate(layout.committees)]
    text = dumps_layout(layout, graphs)
    layout2, graphs2 = loads_layout(text)
    assert dumps_layout(layout2, graphs2) == text
    doc = layout_document(layout, graphs)
    assert set(doc) == {"n", "q", "s", "seed", "committees", "graphs", "verified"}


def _layout_doc():
    layout = gen_committees(8, 5, 4, 1 / 3, 1 / 12, 4, seed=11)
    graphs = [gen_publish_graph(cmt, 8, 1, 3, seed=j, committee_id=j)
              for j, cmt in enumerate(layout.committees)]
    return json.loads(dumps_layout(layout, graphs))


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return edit


@pytest.mark.parametrize("what,edit", [
    ("member id n", lambda d: d["committees"][0].__setitem__(-1, 8)),
    ("negative member id", lambda d: d["committees"][0].__setitem__(0, -1)),
    ("unsorted committee", lambda d: d["committees"][0].reverse()),
    ("duplicate member", lambda d: d["committees"][0].__setitem__(1, d["committees"][0][0])),
    ("committee not of size s", lambda d: d["committees"][0].pop()),
    ("too few committees", lambda d: d["committees"].pop()),
    ("q disagrees", _set(("q",), 6)),
    ("float member id", lambda d: d["committees"][0].__setitem__(0, 0.5)),
    ("graph id out of range", _set(("graphs", 0, "committee_id"), 5)),
    ("graph id negative", _set(("graphs", 0, "committee_id"), -1)),
    ("graph id repeated", _set(("graphs", 1, "committee_id"), 0)),
    ("too few adjacency rows", lambda d: d["graphs"][0]["adjacency"].pop()),
    ("unsorted adjacency row", lambda d: d["graphs"][0]["adjacency"][0].reverse()),
    ("adjacency rows of two sizes", lambda d: d["graphs"][0]["adjacency"][3].pop()),
    ("row id outside the committee", lambda d: d["graphs"][0]["adjacency"][0].__setitem__(-1, 99)),
    ("missing key", lambda d: d.pop("seed")),
    ("committees not a list", _set(("committees",), 5)),
    ("n a string", _set(("n",), "8")),
    ("adjacency not a list", _set(("graphs", 0, "adjacency"), 7)),
    ("graph not a mapping", _set(("graphs", 0), 7)),
])
def test_layout_documents_are_validated(what, edit):
    doc = _layout_doc()
    layout_from_document(copy.deepcopy(doc))  # the untouched document loads
    edit(doc)
    with pytest.raises(ParamError):
        layout_from_document(doc)


@pytest.mark.parametrize("mode", ["exhaustive", "none"])
def test_generated_layouts_load(mode):
    # the desk-scale test point and the benchmark's fairness and layout points
    points = ((8, 5, 4, 4, 1, 3, 1 / 12), (16, 9, 4, 3, 1, publish_degree(4, 1, 16), 0.15),
              (32, 9, 16, 4, 6, 9, 0.125))
    for n, q, s, c, d, delta, epsilon in points:
        for seed in range(3):
            layout = gen_committees(n, q, s, 0.3333, epsilon, c, seed=seed, verify_mode=mode)
            graphs = [gen_publish_graph(cmt, n, d, delta, seed=seed + j, verify_mode=mode, committee_id=j)
                      for j, cmt in enumerate(layout.committees)]
            text = dumps_layout(layout, graphs)
            assert dumps_layout(*loads_layout(text)) == text


def test_publish_graph_rows_outside_the_committee_are_refused():
    committee = tuple(range(7))
    graph = PublishGraph(0, ((0, 1, 99),) * 4, "x", 0)
    with pytest.raises(ParamError, match="members of the committee"):
        verify_publish_graph(graph, committee, 2)


@pytest.mark.parametrize("mode", ["sampled", "bogus"])
def test_unknown_verify_modes_are_refused_before_any_draw(mode, monkeypatch):
    assert VERIFY_MODES == ("exhaustive", "none")
    drawn = []
    monkeypatch.setattr("coinforge.combinatorics.sample_without_replacement",
                        lambda *a: drawn.append(a))
    for call in (lambda: gen_committees(8, 5, 4, 1 / 3, 1 / 12, 4, seed=11, verify_mode=mode),
                 lambda: gen_committees(8, 5, 8, 1 / 3, 1 / 12, 4, seed=11, verify_mode=mode),  # s = n
                 lambda: gen_publish_graph((0, 1, 2, 3), 8, 1, 3, seed=0, verify_mode=mode)):
        with pytest.raises(ParamError, match="unknown verify mode"):
            call()
    assert drawn == []
