"""Random committee lists and sparse publish graphs, with verification.

Two combinatorial objects back the protocol:

  * a list of q committees (s-element subsets of [n]) such that no corruption
    set B of size <= (alpha-epsilon)*n overloads (|Q_i ∩ B| >= k) c or more
    of them;
  * per committee, a bipartite graph assigning every one of the n receiver
    vertices exactly Delta distinct neighbors inside the committee, such that
    no fault set B ⊂ Q of size ceil(s/3)-1 gives d or more receivers k' or
    more neighbors in B.

The thresholds are integer quotas from the one overload rule
`params.overload_quota`: k = overload_quota(alpha, s), the least integer
>= alpha*s, and k' = overload_quota(1/2, Delta). Both caps are one
property: no b-subset B of a universe gives cap or more rows quota or more
members in B. Each verifier takes rows of one size and a cap, checks them,
and hands them to one cap check (`_cap_check`). One rule
(`_unscanned_reason`) passes a cap without a scan: fewer rows than the cap,
or fault sets smaller than the quota (|row ∩ B| <= |B| < quota), which
covers empty fault sets, every s = n layout at epsilon > 0
(b <= (alpha-epsilon)*n < alpha*s) and publish graphs of degree ceil(2s/3)
or more. The rule needs a positive quota, so alpha <= 0, empty rows and a
publish degree below 1 are refused at input. Elsewhere the check
enumerates every maximal-size B (maximality suffices by monotonicity), so a
pass is a proof. Enumeration is budgeted by (B, row) membership checks; a
scan past the budget is refused up front, by the generators before any
draw, with VerificationBudgetError, which carries the checks and budget. A
cap the rule passes is never refused. Rows and fault sets are uint64 bitsets
(`_kernels`). Each fault set, in lex order, is a prefix ORed onto a tail of a
cached suffix table of at most _TABLE masks, so the scan runs in two steps:
the sizes |row ∩ tail| for every row and table entry, once per scan; then
per prefix, one threshold compare of those sizes against what each row
still needs, skipping a prefix whose rows cannot reach the cap.

Both objects come from one Las-Vegas loop (`_las_vegas`): sample uniformly,
verify, resample on failure, one Random(seed) feeding the draws; the
generators' verify mode "none" (`VERIFY_MODES`) keeps the first draw and
marks it "unverified". Sampling is a partial Fisher-Yates shuffle, so each
row is a uniform subset, as the paper's hypergeometric analysis assumes.
Committees are public, deterministic objects fixed before any execution; the
adversary never influences generation.

Before sampling committees, a counting certificate rules out points where no
layout can exist. Each s-subset is overloaded by exactly N maximal fault sets
(`overloading_fault_sets`), so any list of q committees has q*N (B, committee)
overload pairs spread over C(n, b) fault sets. If q*N > (c-1)*C(n, b), some B
overloads c or more committees whatever the layout (pigeonhole), and
`gen_committees` raises `InfeasibleLayoutError` without drawing anything. The
certificate is sufficient, not necessary: a point it lets through may still
have no valid layout, and the sampler then runs out of resamples as before.
Publish graphs get the same certificate with receiver rows of Delta
neighbours in place of committees (`check_graph_feasibility`,
`InfeasibleGraphError`).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

from ._jsonout import dumps
from ._kernels import intersection_sizes, mask_positions, membership_matrix, rows_meeting_threshold, suffix_table
from .params import ParamError, crusader_fault_bound, overload_quota

DEFAULT_CHECK_BUDGET = 10_000_000
DEFAULT_MAX_ATTEMPTS = 1000
_CHUNK = 8192  # block size of the `checks` count on a failed scan
_TABLE = 1 << 16  # most masks in one suffix table, and most words in one uint64 temporary
VERIFY_MODES = ("exhaustive", "none")


class VerificationBudgetError(ParamError):
    """Exhaustive enumeration would need `checks` (B, row) checks, more than `budget`."""

    def __init__(self, checks: int, budget: int):
        self.checks, self.budget = checks, budget
        super().__init__(f"exhaustive verification needs {checks} checks, more than the budget of {budget}")


class GenerationError(RuntimeError):
    """The Las-Vegas loop hit its resample cap without an accepted object."""


class InfeasibleLayoutError(GenerationError):
    """Counting certificate (total = q*per_committee > limit) that no layout meets the cap."""

    def __init__(self, n: int, q: int, s: int, b: int, c: int, per_committee: int):
        self.n, self.q, self.s, self.b, self.c = n, q, s, b, c
        self.per_committee = per_committee
        self.total = q * per_committee
        self.limit = (c - 1) * math.comb(n, b)
        super().__init__(
            f"no committee list exists at n={n} q={q} s={s} c={c}: each committee is "
            f"overloaded by {per_committee} of the C({n},{b}) fault sets, and "
            f"q*{per_committee} = {self.total} > (c-1)*C({n},{b}) = {self.limit}, so some "
            f"fault set overloads c committees in every layout (refused before any resamples)"
        )


class InfeasibleGraphError(GenerationError):
    """Counting certificate (total = n*per_receiver > limit) that no publish graph meets the cap."""

    def __init__(self, s: int, n: int, delta: int, b: int, d: int, per_receiver: int):
        self.s, self.n, self.delta, self.b, self.d = s, n, delta, b, d
        self.per_receiver = per_receiver
        self.total = n * per_receiver
        self.limit = (d - 1) * math.comb(s, b)
        super().__init__(
            f"no publish graph exists at s={s} n={n} delta_cap={delta} d={d}: each receiver is "
            f"deafened by {per_receiver} of the C({s},{b}) fault sets, and "
            f"n*{per_receiver} = {self.total} > (d-1)*C({s},{b}) = {self.limit}, so some "
            f"fault set deafens d receivers in every graph (refused before any resamples)"
        )


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    witness: tuple[int, ...] | None = None
    enumerated: bool = True
    checks: int = 0
    note: str = ""


@dataclass(frozen=True)
class CommitteeLayout:
    n: int
    q: int
    s: int
    committees: tuple[tuple[int, ...], ...]
    verified: str
    seed: int
    attempts: int = 1


@dataclass(frozen=True)
class PublishGraph:
    committee_id: int
    adjacency: tuple[tuple[int, ...], ...]  # one sorted neighbor set per receiver vertex
    verified: str
    seed: int

    @property
    def delta_cap(self) -> int:
        return len(self.adjacency[0]) if self.adjacency else 0


def sample_without_replacement(rng: random.Random, pool: list[int], k: int) -> tuple[int, ...]:
    """Partial Fisher-Yates over a copy of `pool`; returns a sorted k-subset."""
    if k > len(pool):
        raise ParamError("cannot sample more elements than the pool holds")
    items = list(pool)
    limit = len(items)
    for i in range(k):
        j = rng.randrange(i, limit)
        items[i], items[j] = items[j], items[i]
    return tuple(sorted(items[:k]))


def _scan(rows, universe, size: int, quota: int, cap: int):
    """First size-subset B of the sorted `universe` (lex order) that cap or more rows meet
    in >= quota members, else None.

    Each B is a prefix (itertools, lex order) ORed onto a tail of the cached
    suffix table of k-subsets: the suffixes that extend a prefix ending at a
    are exactly the table rows with minimum > a, a tail slice. k is the
    largest size whose table, and every smaller one, holds at most _TABLE
    masks. The sizes |row ∩ tail| are taken once per scan, for every row and
    table entry. A prefix P then leaves row r a need of quota - |P ∩ row_r|
    members in the tail: a row with need <= 0 meets the quota for every tail
    and one with need > k for none. A prefix whose rows can reach the cap is
    decided with one threshold compare per (tail, row that can still meet);
    one whose rows cannot is skipped, an exact bound.

    Returns (witness, checks). `checks` keeps the count of an enumeration in
    blocks of _CHUNK fault sets: C(len(universe), size) * rows on a pass, and
    rows * min(C(len(universe), size), (rank // _CHUNK + 1) * _CHUNK) when
    the witness has lex rank `rank`.
    """
    import numpy as np  # loaded at the first scan, so commands that run none never load it

    width = len(universe)
    total = math.comb(width, size)
    bit = {p: 1 << i for i, p in enumerate(universe)}  # the verifiers refuse ids outside the universe
    row_bits = []
    for row in rows:
        mask = 0
        for p in row:
            mask |= bit[p]
        row_bits.append(mask)
    member = membership_matrix(row_bits, width)
    k = 0
    while k < size and math.comb(width, k + 1) <= _TABLE:
        k += 1
    table = suffix_table(width, k)
    sizes = intersection_sizes(member, table, _TABLE)  # (rows, len(table)) uint8
    rank = 0  # lex rank of the prefix's first B
    for prefix in itertools.combinations(range(width - k), size - k):
        start = len(table) - math.comb(width - prefix[-1] - 1, k) if prefix else 0
        bits = sum(1 << p for p in prefix)
        always, live, needs = 0, [], []
        for r, row in enumerate(row_bits):
            need = quota - (bits & row).bit_count()
            if need <= 0:
                always += 1
            elif need <= k:
                live.append(r)
                needs.append(need)
        if always + len(live) >= cap:
            counts = rows_meeting_threshold(np.array(needs, dtype=np.uint8), sizes[live, start:].T)
            hit = np.flatnonzero(counts >= max(cap - always, 0))  # counts are unsigned
            if hit.size:
                rank += int(hit[0])
                witness = tuple(universe[p] for p in prefix + mask_positions(table[start + hit[0]]))
                return witness, len(rows) * min(total, (rank // _CHUNK + 1) * _CHUNK)
        rank += len(table) - start
    return None, len(rows) * total


def _cap_check(rows, universe, size, quota, cap, check_budget) -> VerifyResult:
    """Whether no size-subset B of the sorted `universe` gives cap or more `rows`
    quota (>= 1) or more members in B, by `_unscanned_reason` or else by exhaustive scan."""
    reason = _unscanned_reason(len(universe), size, len(rows), quota, cap, check_budget)
    if reason:
        return VerifyResult(True, enumerated=False, note=reason)
    witness, checks = _scan(rows, universe, size, quota, cap)
    return VerifyResult(witness is None, witness=witness, checks=checks)


def _unscanned_reason(width, size, rows, quota, cap, check_budget) -> str | None:
    """Why no size-subset B of a width-element universe can give cap or more of `rows`
    rows quota (>= 1) or more members in B, so that the cap holds without a scan;
    None if only a scan can tell, and then a scan of more than check_budget checks is refused."""
    if rows < cap:
        return "fewer rows than the cap"
    if size < quota:  # |row ∩ B| <= |B| < quota
        return "fault sets are smaller than the threshold"
    checks = math.comb(width, size) * rows
    if checks > check_budget:
        raise VerificationBudgetError(checks, check_budget)
    return None


def _exhaustive(mode: str) -> bool:
    """Whether a generator in verify mode `mode` verifies its draws; unknown modes are ParamErrors."""
    if mode not in VERIFY_MODES:
        raise ParamError(f"unknown verify mode {mode!r}")
    return mode == "exhaustive"


def _las_vegas(what, seed, max_attempts, draw, verify=None):
    """(object, attempt) of the first draw(rng) that verify(object) passes (the first
    draw when verify is None), one Random(seed) feeding the draws; the callables look
    up `sample_without_replacement` and `verify_*` in this module at call time, so a
    wrapper set there sees each call."""
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        candidate = draw(rng)
        if verify is None or verify(candidate).passed:
            return candidate, attempt
    raise GenerationError(f"no acceptable {what} within {max_attempts} resamples (seed {seed})")


# --- committees ------------------------------------------------------------


def committee_fault_size(n: int, alpha: float, epsilon: float) -> int:
    """floor((alpha - epsilon) * n); alpha <= 0, where the empty set already
    overloads every committee, a negative size (epsilon > alpha) and a size
    above n (there is no such subset of [n]) are ParamErrors."""
    if alpha <= 0:
        raise ParamError(f"alpha must be positive, not {alpha}")
    b = math.floor((alpha - epsilon) * n)
    if b < 0:
        raise ParamError(f"fault size floor((alpha-epsilon)*n) = {b} is negative: "
                         f"epsilon={epsilon} exceeds alpha={alpha}")
    if b > n:
        raise ParamError(f"fault size floor((alpha-epsilon)*n) = {b} exceeds n={n}")
    return b


def overloading_fault_sets(n: int, s: int, b: int, share: float) -> int:
    """How many b-subsets B of [n] overload one fixed s-subset Q: |Q ∩ B| >= k,
    the quota k = overload_quota(share, s) the verifiers use.

    Exact: the sum over j >= k of C(s, j) * C(n-s, b-j).
    """
    return sum(math.comb(s, j) * math.comb(n - s, b - j) for j in range(overload_quota(share, s), min(s, b) + 1))


def check_committee_feasibility(n: int, q: int, s: int, alpha: float, epsilon: float, c: int) -> int:
    """Raise InfeasibleLayoutError if q*N > (c-1)*C(n, b) proves no layout exists,
    else return b, the size of the fault sets that verification enumerates.

    Sufficient, not necessary: passing this check does not promise a layout.
    A negative b (epsilon > alpha) is a ParamError.
    """
    b = committee_fault_size(n, alpha, epsilon)
    per_committee = overloading_fault_sets(n, s, b, alpha)
    if q * per_committee > (c - 1) * math.comb(n, b):
        raise InfeasibleLayoutError(n, q, s, b, c, per_committee)
    return b


def verify_committees(
    committees: tuple[tuple[int, ...], ...],
    n: int,
    alpha: float,
    epsilon: float,
    c: int,
    *,
    check_budget: int = DEFAULT_CHECK_BUDGET,
) -> VerifyResult:
    """Check the bad-committee cap: every maximal B overloads fewer than c committees.

    A committee is overloaded by B when it holds overload_quota(alpha, s) or more
    members of B. Enumerates all B with |B| = floor((alpha-epsilon)*n) where
    `_unscanned_reason` does not pass the cap; the returned witness is the
    lexicographically smallest violating B. The committees must be one or more
    rows of one size s >= 1.
    """
    if c < 1:
        raise ParamError("c must be at least 1")
    b = committee_fault_size(n, alpha, epsilon)
    if any(not 0 <= p < n for row in committees for p in row):
        raise ParamError(f"committee member ids must lie in [0, {n})")
    sizes = {len(row) for row in committees}
    if len(sizes) != 1 or 0 in sizes:
        raise ParamError(f"committees must be one or more rows of one size >= 1, not of sizes {sorted(sizes)}")
    return _cap_check(committees, range(n), b, overload_quota(alpha, sizes.pop()), c, check_budget)


def gen_committees(
    n: int,
    q: int,
    s: int,
    alpha: float,
    epsilon: float,
    c: int,
    seed: int,
    verify_mode: str = "exhaustive",
    *,
    check_budget: int = DEFAULT_CHECK_BUDGET,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> CommitteeLayout:
    """Las-Vegas committee list generator.

    In "exhaustive" mode the counting certificate of
    `check_committee_feasibility` runs first, before any draw: a point it
    proves infeasible raises InfeasibleLayoutError at once instead of spending
    max_attempts resamples. It uses no randomness, so layouts at points it
    lets through are unchanged. It is sufficient, not necessary: a point can
    pass it and still exhaust the resamples with GenerationError. A scan past
    check_budget is refused next, where `_unscanned_reason` does not pass the cap.
    """
    if c < 1:
        raise ParamError("c must be at least 1")
    if not (1 <= s <= n):
        raise ParamError("s must be in [1, n]")
    if q < 1:
        raise ParamError("q must be at least 1")
    exhaustive = _exhaustive(verify_mode)
    committee_fault_size(n, alpha, epsilon)  # alpha <= 0, epsilon > alpha and b > n are ParamErrors
    if exhaustive:
        _unscanned_reason(n, check_committee_feasibility(n, q, s, alpha, epsilon, c), q,
                          overload_quota(alpha, s), c, check_budget)

    pool = list(range(n))
    committees, attempts = _las_vegas(
        "committee list", seed, max_attempts,
        lambda rng: tuple(sample_without_replacement(rng, pool, s) for _ in range(q)),
        (lambda committees: verify_committees(committees, n, alpha, epsilon, c, check_budget=check_budget))
        if exhaustive else None)
    return CommitteeLayout(n, q, s, committees, "exhaustive" if exhaustive else "unverified", seed, attempts)


# --- publish graphs ---------------------------------------------------------


def check_graph_feasibility(s: int, n: int, d: int, delta_cap: int) -> int:
    """Raise InfeasibleGraphError if n*N > (d-1)*C(s, b) proves no publish graph
    exists, else return the size of the fault sets that verification enumerates.

    The publish-graph twin of `check_committee_feasibility`: a receiver row of
    delta_cap neighbours is deafened (overload_quota(0.5, delta_cap) of them in B)
    by exactly N = overloading_fault_sets(s, delta_cap, b, 0.5) of the C(s, b)
    fault sets B of size b = ceil(s/3)-1.
    """
    b = crusader_fault_bound(s)
    per_receiver = overloading_fault_sets(s, delta_cap, b, 0.5)
    if n * per_receiver > (d - 1) * math.comb(s, b):
        raise InfeasibleGraphError(s, n, delta_cap, b, d, per_receiver)
    return b


def verify_publish_graph(
    graph: PublishGraph,
    committee: tuple[int, ...],
    d: int,
    *,
    check_budget: int = DEFAULT_CHECK_BUDGET,
) -> VerifyResult:
    """Check the mishearing cap: every B ⊂ Q of size ceil(s/3)-1 leaves fewer
    than d receivers with overload_quota(0.5, Delta) or more neighbors in B.

    Enumerates those B where `_unscanned_reason` does not pass the cap. A degree
    (delta_cap) below 1 and adjacency rows of unequal size are ParamErrors.
    """
    if d < 1:
        raise ParamError("d must be at least 1")
    if graph.delta_cap < 1:
        raise ParamError("publish-graph degree must be at least 1")
    members = set(committee)
    if not all(members.issuperset(row) for row in graph.adjacency):
        raise ParamError("publish-graph adjacency rows must hold only members of the committee")
    if any(len(row) != graph.delta_cap for row in graph.adjacency):
        raise ParamError("publish-graph adjacency rows must all have one size, the degree")
    return _cap_check(graph.adjacency, sorted(committee), crusader_fault_bound(len(committee)),
                      overload_quota(0.5, graph.delta_cap), d, check_budget)


def gen_publish_graph(
    committee: tuple[int, ...],
    n: int,
    d: int,
    delta_cap: int,
    seed: int,
    verify_mode: str = "exhaustive",
    *,
    committee_id: int = 0,
    check_budget: int = DEFAULT_CHECK_BUDGET,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> PublishGraph:
    """Las-Vegas publish graph generator for one committee.

    Every receiver vertex v_1..v_n independently samples delta_cap distinct
    neighbors inside the committee (members' own vertices included; their
    tallies go unused by the protocol but the edges exist and are paid for).

    In "exhaustive" mode the counting certificate of
    `check_graph_feasibility` runs first and refuses a point where no graph
    can pass, before any draw; it uses no randomness. A scan past
    check_budget is refused next, where `_unscanned_reason` does not pass the cap.
    """
    s = len(committee)
    if not (1 <= delta_cap <= s):
        raise ParamError("delta_cap must be in [1, s]")
    if d < 1:
        raise ParamError("d must be at least 1")
    exhaustive = _exhaustive(verify_mode)
    if exhaustive:
        _unscanned_reason(s, check_graph_feasibility(s, n, d, delta_cap), n, overload_quota(0.5, delta_cap), d,
                          check_budget)
    members = sorted(committee)
    tag = "exhaustive" if exhaustive else "unverified"
    graph, _ = _las_vegas(
        "publish graph", seed, max_attempts,
        lambda rng: PublishGraph(
            committee_id, tuple(sample_without_replacement(rng, members, delta_cap) for _ in range(n)), tag, seed),
        (lambda graph: verify_publish_graph(graph, tuple(members), d, check_budget=check_budget))
        if exhaustive else None)
    return graph


# --- serialization ----------------------------------------------------------


def layout_document(layout: CommitteeLayout, graphs: list[PublishGraph] | None = None) -> dict:
    graphs = graphs or []
    return {
        "n": layout.n,
        "q": layout.q,
        "s": layout.s,
        "seed": layout.seed,
        "committees": [list(c) for c in layout.committees],
        "graphs": [
            {
                "committee_id": g.committee_id,
                "adjacency": [list(a) for a in g.adjacency],
                "verified": g.verified,
                "seed": g.seed,
            }
            for g in graphs
        ],
        "verified": layout.verified,
    }


def layout_from_document(doc: dict) -> tuple[CommitteeLayout, list[PublishGraph]]:
    """Layout and graphs (sorted by committee_id) of a document, refused with
    ParamError unless well formed.

    Well formed: integers n, q, s and seed, and a string verified; q
    committees, each a sorted s-subset of [0, n); at most one graph per
    committee id in [0, q), each with an integer seed, a string verified, and
    n sorted adjacency rows of one common size that hold only members of that
    committee. A bool is no integer here.
    """
    try:
        layout = CommitteeLayout(
            n=doc["n"],
            q=doc["q"],
            s=doc["s"],
            committees=tuple(tuple(c) for c in doc["committees"]),
            verified=doc["verified"],
            seed=doc["seed"],
        )
        graphs = [
            PublishGraph(
                committee_id=g["committee_id"],
                adjacency=tuple(tuple(a) for a in g["adjacency"]),
                verified=g["verified"],
                seed=g["seed"],
            )
            for g in doc["graphs"]
        ]
    except KeyError as exc:
        raise ParamError(f"layout document lacks the key {exc}") from None
    except TypeError as exc:  # a list or mapping where the document holds a scalar, or the reverse
        raise ParamError(f"layout document is malformed: {exc}") from None
    _check_layout(layout, graphs)
    return layout, sorted(graphs, key=lambda g: g.committee_id)


def _sorted_ids(row) -> bool:
    """Whether `row` holds increasing integer ids; a bool is no integer here."""
    return all(type(p) is int for p in row) and all(a < b for a, b in zip(row, row[1:]))


def _check_verified_and_seed(what, verified, seed) -> None:
    if type(verified) is not str or type(seed) is not int:
        raise ParamError(f"{what} needs a string verified and an integer seed, not {verified!r} and {seed!r}")


def _check_layout(layout: CommitteeLayout, graphs: list[PublishGraph]) -> None:
    n, q, s = layout.n, layout.q, layout.s
    if not all(type(v) is int for v in (n, q, s)):
        raise ParamError(f"layout n, q and s must be integers, not {n!r}, {q!r}, {s!r}")
    _check_verified_and_seed("layout", layout.verified, layout.seed)
    if len(layout.committees) != q:
        raise ParamError(f"layout lists {len(layout.committees)} committees, not q={q}")
    for j, row in enumerate(layout.committees):
        if len(row) != s or not _sorted_ids(row) or (row and not (0 <= row[0] and row[-1] < n)):
            raise ParamError(f"committee {j} is not a sorted {s}-subset of [0, {n})")
    seen = set()
    for g in graphs:
        j = g.committee_id
        if type(j) is not int or not 0 <= j < q or j in seen:
            raise ParamError(f"graph committee_id {j!r} is out of [0, {q}) or repeated")
        seen.add(j)
        _check_verified_and_seed(f"graph {j}", g.verified, g.seed)
        if len(g.adjacency) != n:
            raise ParamError(f"graph {j} has {len(g.adjacency)} adjacency rows, not n={n}")
        members = set(layout.committees[j])
        for row in g.adjacency:
            if len(row) != g.delta_cap or not _sorted_ids(row) or not members.issuperset(row):
                raise ParamError(f"graph {j}: adjacency rows must be sorted, of one size, "
                                 f"and hold only members of committee {j}")


def dumps_layout(layout: CommitteeLayout, graphs: list[PublishGraph] | None = None) -> str:
    return dumps(layout_document(layout, graphs))


def loads_layout(text: str) -> tuple[CommitteeLayout, list[PublishGraph]]:
    return layout_from_document(json.loads(text))
