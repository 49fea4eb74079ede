"""Behaviour digest of the two random objects: generators and verifiers, outcome by outcome.

Each group runs a fixed grid of calls and hashes one JSON line per call: the
returned dataclass, or the exception type, message and certificate fields.
The generator grids use the verify modes "exhaustive" and "none"; any change
to a result, a message, a `checks` count, a witness or a generated object
shows up here. Running this file prints one group's lines (see the end).
"""

import dataclasses
import hashlib
import json
import math
import random

import pytest

from coinforge.combinatorics import (
    PublishGraph,
    gen_committees,
    gen_publish_graph,
    verify_committees,
    verify_publish_graph,
)

MODES = ("exhaustive", "none")
ALPHA_EPS = ((1 / 3, 1 / 12), (1 / 3, 1 / 3), (1 / 3, 0.5), (0.5, 0.1), (0.4, 0.15))  # b < 0 at (1/3, 0.5)


def _outcome(call):
    try:
        value = call()
    except Exception as exc:  # the digest records every exception, whatever its type
        line = ["raise", type(exc).__name__, str(exc), sorted(vars(exc).items())]
    else:
        line = ["ok", type(value).__name__, dataclasses.asdict(value)]
    return json.dumps(line, sort_keys=True)


def _gen_committee_lines():
    k = 0
    for n in (5, 6, 8, 10, 12):
        for s in (2, 3, 4, n):
            for q in (3, 5, 8):
                for c in (1, 2, 3, 4):
                    for alpha, eps in ALPHA_EPS:
                        k += 1
                        mode = MODES[k % 2]
                        budget = (60, 10_000_000)[k % 4 != 0]
                        yield _outcome(lambda: gen_committees(
                            n, q, s, alpha, eps, c, seed=k, verify_mode=mode,
                            check_budget=budget, max_attempts=3))
    for n, q, s, c in ((6, 3, 0, 2), (6, 3, 7, 2), (6, 0, 3, 2), (6, 3, 3, 0), (6, 3, 3, -1)):
        for mode in MODES:
            yield _outcome(lambda: gen_committees(n, q, s, 1 / 3, 1 / 12, c, seed=1, verify_mode=mode))


def _gen_graph_lines():
    k = 0
    for s in (1, 3, 4, 5, 6, 7, 9):
        committee = tuple(range(2, 2 + 2 * s, 2))
        for n in (4, 6, 9, 12):
            for d in (1, 2, 3, n + 1):
                for delta_cap in sorted({x for x in (1, 2, math.ceil(s / 2), math.ceil(2 * s / 3), s) if x <= s}):
                    k += 1
                    mode = MODES[k % 2]
                    budget = (40, 10_000_000)[k % 5 != 0]
                    yield _outcome(lambda: gen_publish_graph(
                        committee, n, d, delta_cap, seed=k, verify_mode=mode, committee_id=k % 4,
                        check_budget=budget, max_attempts=3))
    for d, delta_cap in ((0, 2), (-1, 2), (2, 0), (2, 5)):
        for mode in MODES:
            yield _outcome(lambda: gen_publish_graph((1, 3, 5, 7), 6, d, delta_cap, seed=1, verify_mode=mode))


def _verify_committee_lines():
    pick = random.Random(2024)
    for k in range(700):
        n = pick.randint(4, 10)
        s = pick.randint(1, n)
        rows = tuple(tuple(sorted(pick.sample(range(n), s))) for _ in range(pick.randint(1, 6)))
        if k % 37 == 0:
            rows = rows + ((0, n),)  # an id outside [0, n)
        alpha, eps = ALPHA_EPS[2 if k % 19 == 0 else pick.choice((0, 1, 3, 4))]
        c = 0 if k % 17 == 0 else pick.randint(1, 4)
        pick.randrange(3 if k % 11 == 0 else 2)  # a retired draw, kept for the grid's inputs
        budget = pick.choice((30, 10_000_000))
        yield _outcome(lambda: verify_committees(rows, n, alpha, eps, c, check_budget=budget))


def _verify_graph_lines():
    pick = random.Random(4048)
    for k in range(700):
        s = pick.randint(1, 9)
        committee = tuple(sorted(pick.sample(range(14), s)))
        n = pick.randint(1, 10)
        delta = pick.randint(1, s)
        adjacency = tuple(tuple(sorted(pick.sample(committee, delta))) for _ in range(n))
        if k % 29 == 0:
            adjacency = adjacency[:-1] + ((99,),)  # a neighbour outside the committee
        graph = PublishGraph(k % 3, adjacency, "unverified", k)
        d = 0 if k % 23 == 0 else pick.randint(1, n + 1)
        pick.randrange(3 if k % 13 == 0 else 2), pick.random()  # retired draws, kept for the grid's inputs
        budget = pick.choice((25, 10_000_000))
        yield _outcome(lambda: verify_publish_graph(graph, committee, d, check_budget=budget))


GROUPS = {
    "gen_committees": _gen_committee_lines,
    "gen_publish_graph": _gen_graph_lines,
    "verify_committees": _verify_committee_lines,
    "verify_publish_graph": _verify_graph_lines,
}

# (number of calls, sha256 over their outcome lines)
EXPECTED = {
    "gen_committees": (1210, "0001981cbd329eb38cc0729b261a3a60953b6043d988eb2ab558b094ab01a18b"),
    "gen_publish_graph": (456, "76b58a723479f41f7b0f31da76fbaa0bdc23140c1bc82eae56df5cc649b77d80"),
    "verify_committees": (700, "a5cee4538b65d180b9c6b1e71cafbf85934446ecff2671887d02dae3f573203c"),
    "verify_publish_graph": (700, "69c21638edf85713951034193a1131a403c2ef5c44780c5bd91a67527a1c76f7"),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_combinatorics_outcomes_match_recorded_digest(group):
    lines = list(GROUPS[group]())
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == EXPECTED[group]


if __name__ == "__main__":
    # Print one group's outcome lines, e.g. `python tests/test_combinatorics_digest.py verify_committees`,
    # so that a re-recorded sha can be backed by a diff of the lines before and after a change.
    import sys

    for line in GROUPS[sys.argv[1]]():
        print(line)
