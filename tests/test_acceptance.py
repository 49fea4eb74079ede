"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines. The heavy
statistical scenarios run once per session and feed several criteria.
"""

import itertools
import math
import random

import pytest

from ap_oracle import oracle_derive
from byz import PublishCorrupter, ScriptedByzantine, crusader_worst_cases, random_crusader_behavior
from conftest import small_transform
from coinforge.analysis import audit_transcript, message_caps, verify_anticoncentration, wilson_interval
from coinforge.cli import main as cli_main
from coinforge import combinatorics
from coinforge.combinatorics import (
    GenerationError,
    InfeasibleLayoutError,
    gen_committees,
    gen_publish_graph,
    verify_publish_graph,
)
from coinforge.params import CoinParams, derive_params, preset_cost, publish_degree
from coinforge.protocols import CrusaderProtocol, PublishProtocol, TransformProtocol
from coinforge.simnet import BOT, mix64, run_simulation
from coinforge.strategies import (
    CombinedStrategy,
    CommitteeTargeterStrategy,
    FifoStrategy,
    PublishDelayerStrategy,
    RandomDelayStrategy,
)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- criterion 1: exact anti-concentration -----------------------------------


def test_criterion_1_anticoncentration_exact():
    res = verify_anticoncentration(64)
    ok = res.passed and res.elapsed_seconds < 1.0
    report(1, ok, f"{res.pairs_checked} (n, sigma) pairs, zero failures, "
                  f"{res.elapsed_seconds:.3f}s")


# --- criterion 2: parameter formulas vs arbitrary-precision oracle ------------


def test_criterion_2_parameter_sweep():
    rng = random.Random(0xC01F)
    mismatches = 0
    even_q = 0
    for _ in range(1000):
        n = rng.randrange(1, 1_000_000)
        k = rng.uniform(2.0, 8.0)
        z = rng.uniform(0.01, 3.0)
        alpha = rng.uniform(0.02, 1 / 3)
        epsilon = rng.uniform(0.001, alpha * 0.95)
        dp = derive_params(CoinParams(n=n, z=z, k=k, epsilon=epsilon, alpha=alpha))
        want = oracle_derive(n, k, z, epsilon, alpha)
        got = dp.as_dict()
        for key in ("q", "c", "s", "d", "delta_cap", "live_threshold", "output_threshold"):
            if got[key] != want[key]:
                mismatches += 1
                break
        else:
            if abs(got["z_prime"] - want["z_prime"]) > 1e-12 * max(1.0, want["z_prime"]):
                mismatches += 1
        if dp.q % 2 == 0:
            even_q += 1
    report(2, mismatches == 0 and even_q == 0,
           f"1000 random parameter draws, {mismatches} oracle mismatches, {even_q} even q")


# --- criterion 3: committee generator at the stated point ---------------------
# No layout exists at the stated point (n=14, q=9, s=6, alpha=1/3, eps=1/12,
# c=3): b = floor((1/3 - 1/12)*14) = 3, every size-6 committee is overloaded
# (>= 2 members in B) by exactly C(6,2)*C(8,1) + C(6,3) = 140 of the
# C(14,3) = 364 maximal fault sets, so the q*140 = 1260 (B, committee) overload
# pairs exceed (c-1)*364 = 728 and some B overloads >= 4 >= c committees in
# every layout. There the generator must refuse with that counting certificate,
# identically for every seed and before drawing anything. The resample bound is
# checked where a layout can exist: the desk-scale point (n=8, q=5, s=4, c=4)
# of the README examples and small_transform.


def test_criterion_3_committee_generator(monkeypatch):
    n, q, s, c = 14, 9, 6, 3
    b = 3
    committee = set(range(s))
    counted = sum(1 for fault_set in itertools.combinations(range(n), b)
                  if 3 * len(committee & set(fault_set)) >= s)
    draws = []
    real_sample = combinatorics.sample_without_replacement

    def counting_sample(*args):
        draws.append(args)
        return real_sample(*args)

    monkeypatch.setattr(combinatorics, "sample_without_replacement", counting_sample)
    refusals = set()
    for seed in range(100):
        with pytest.raises(InfeasibleLayoutError) as info:
            gen_committees(n, q, s, 1 / 3, 1 / 12, c, seed=seed,
                           verify_mode="exhaustive", max_attempts=100)
        err = info.value
        refusals.add((err.b, err.per_committee, err.total, err.limit))
    certificate = (b, counted, q * counted, (c - 1) * math.comb(n, b))
    refused = (not draws and refusals == {certificate}
               and certificate == (3, 140, 1260, 728))
    monkeypatch.undo()

    resamples = 0
    failed_seed = None
    for seed in range(100):
        try:
            layout = gen_committees(8, 5, 4, 1 / 3, 1 / 12, 4, seed=seed,
                                    verify_mode="exhaustive", max_attempts=100)
            resamples += layout.attempts - 1
        except GenerationError:
            failed_seed = seed
            break
    ok = refused and failed_seed is None and resamples <= 100
    report(3, ok,
           f"(n=14, q=9, s=6, c=3) refused on 100/100 seeds with {len(draws)} draws: "
           f"certificate {sorted(refusals)} vs counted q*{counted} = {q * counted} > "
           f"{(c - 1) * math.comb(n, b)}; exhaustive generation at (n=8, q=5, s=4, c=4): "
           + (f"seed {failed_seed} exceeded 100 resamples" if failed_seed is not None
              else f"{resamples} resamples over 100 seeds"))


# --- criterion 4: publish graph generator --------------------------------------


def test_criterion_4_publish_graph_generator():
    committee = tuple(range(9))
    delta = publish_degree(9, 2, 16)
    graph = gen_publish_graph(committee, 16, 2, delta, seed=5)
    # a reference scan: the most receivers any of the C(9,2)=36 fault sets deafens
    deafened = max(sum(len(set(row) & set(b)) >= delta / 2 for row in graph.adjacency)
                   for b in itertools.combinations(committee, 2))
    scanned = verify_publish_graph(gen_publish_graph(committee, 16, 5, 4, seed=5), committee, 5)
    trivial_degree = verify_publish_graph(graph, committee, 2)
    big_d = verify_publish_graph(graph, committee, 17)
    ok = (delta == 6 and deafened < 2
          and scanned.passed and scanned.enumerated and scanned.checks == 36 * 16
          and trivial_degree.passed and not trivial_degree.enumerated
          and big_d.passed and not big_d.enumerated)
    report(4, ok, f"Delta={delta} graph deafens at most {deafened} receivers over C(9,2)=36 fault sets; "
                  f"a Delta=4 graph passed an enumerated scan of {scanned.checks} checks; "
                  f"d>n and Delta=ceil(2s/3) pass unscanned")


# --- criterion 5: crusader agreement -------------------------------------------


@pytest.fixture(scope="session")
def crusader_runs():
    s, t_local = 4, 1
    cap = 4 * s * s
    stats = {"trials": 0, "liveness": 0, "weak": 0, "validity": 0, "latency": 0,
             "messages": 0, "audit": 0}
    cp = CoinParams(n=s, z=0.3, epsilon=1 / 12, alpha=1 / 3, R=1.0)
    dp = derive_params(cp, {"q": 1, "s": 4, "c": 1, "d": 1})
    scripts = crusader_worst_cases(s)

    def one_trial(idx, inputs, strategy, honest_ids, budget):
        rep = run_simulation(CrusaderProtocol(s, inputs), strategy,
                             seed=mix64(0xAC5, idx), t_budget=budget)
        stats["trials"] += 1
        outs = [rep.outputs[i] for i in honest_ids]
        if not all(o is not None for o in outs):
            stats["liveness"] += 1
            return
        bits = {o for o in outs if o != BOT}
        if len(bits) > 1:
            stats["weak"] += 1
        honest_inputs = [inputs[i] for i in honest_ids]
        if len(set(honest_inputs)) == 1 and set(outs) != {honest_inputs[0]}:
            stats["validity"] += 1
        if rep.latency > 3.0 + 1e-9:
            stats["latency"] += 1
        if sum(rep.msg_count_by_kind.values()) > cap:
            stats["messages"] += 1
        if not audit_transcript(rep, dp, n=s, R=1.0).passed:
            stats["audit"] += 1

    rng = random.Random(0x5EED)
    idx = 0
    for _ in range(2500):  # honest, random inputs, random schedules
        inputs = [rng.getrandbits(1) for _ in range(s)]
        one_trial(idx, inputs, RandomDelayStrategy(), range(s), 0)
        idx += 1
    for i in range(2500):  # honest, unanimous inputs
        bit = i & 1
        one_trial(idx, [bit] * s, RandomDelayStrategy(), range(s), 0)
        idx += 1
    for _ in range(2500):  # structured byzantine behavior space
        inputs = [rng.getrandbits(1) for _ in range(s)]
        one_trial(idx, inputs, ScriptedByzantine([3], random_crusader_behavior),
                  range(3), 1)
        idx += 1
    for i in range(2500):  # hand-scripted worst cases
        inputs = [rng.getrandbits(1) for _ in range(s)]
        one_trial(idx, inputs, ScriptedByzantine([3], scripts[i % len(scripts)]),
                  range(3), 1)
        idx += 1
    return stats


def test_criterion_5_crusader(crusader_runs):
    st = crusader_runs
    violations = st["liveness"] + st["weak"] + st["validity"] + st["latency"] + st["messages"]
    report(5, st["trials"] >= 10_000 and violations == 0,
           f"{st['trials']} trials; violations: liveness={st['liveness']} "
           f"weak_agreement={st['weak']} validity={st['validity']} "
           f"latency={st['latency']} messages={st['messages']}")


# --- criterion 6: publish -------------------------------------------------------


@pytest.fixture(scope="session")
def publish_runs():
    s, n, d = 9, 16, 2
    committee = tuple(range(s))
    delta = publish_degree(s, d, n)
    graph = gen_publish_graph(committee, n, d, delta, seed=7)
    cp = CoinParams(n=n, z=0.3, epsilon=1 / 12, alpha=1 / 3, R=1.0)
    dp = derive_params(cp, {"q": 1, "s": s, "c": 1, "d": d, "delta_cap": delta})
    stats = {"common_trials": 0, "missed_cap": 0, "split_trials": 0, "split_liveness": 0,
             "audit": 0}
    rng = random.Random(0xB0B)

    def corrupter(trial_rng):
        victims = trial_rng.sample(committee, 2)
        when = trial_rng.choice((0.25, 1.0, 1.75))
        payload = trial_rng.choice((BOT, 0, 1, None))
        return PublishCorrupter(victims, when=when, inject_payload=payload)

    for i in range(600):  # common input, up to 2 corruptions in 2/3 of trials
        b_q = i & 1
        proto = PublishProtocol(committee, n, graph, {m: b_q for m in committee})
        if i % 3 == 0:
            strat, budget = RandomDelayStrategy(), 0
        else:
            strat, budget = corrupter(rng), 2
        rep = run_simulation(proto, strat, seed=mix64(0x9B, i), t_budget=budget)
        corrupted = {p for p, _ in rep.corruptions}
        missed = sum(1 for p in range(n) if p not in corrupted and rep.outputs[p] != b_q)
        stats["common_trials"] += 1
        if missed >= d:
            stats["missed_cap"] += 1
        if not audit_transcript(rep, dp, n=n, R=1.0).passed:
            stats["audit"] += 1

    split_inputs = lambda trial_rng: {m: trial_rng.getrandbits(1) for m in committee}
    for i in range(400):  # split inputs: clause-1 liveness only
        proto = PublishProtocol(committee, n, graph, split_inputs)
        if i % 2 == 0:
            strat, budget = RandomDelayStrategy(), 0
        else:
            strat, budget = corrupter(rng), 2
        rep = run_simulation(proto, strat, seed=mix64(0x9C, i), t_budget=budget)
        corrupted = {p for p, _ in rep.corruptions}
        stats["split_trials"] += 1
        if not all(rep.outputs[p] is not None for p in range(n) if p not in corrupted):
            stats["split_liveness"] += 1
        if not audit_transcript(rep, dp, n=n, R=1.0).passed:
            stats["audit"] += 1
    return stats


def test_criterion_6_publish(publish_runs):
    st = publish_runs
    ok = (st["common_trials"] + st["split_trials"] >= 1000
          and st["missed_cap"] == 0 and st["split_liveness"] == 0)
    report(6, ok,
           f"{st['common_trials']} common-input trials (honest parties missing the "
           f"bit always < d), {st['split_trials']} split-input trials (liveness "
           f"failures: {st['split_liveness']})")


# --- criteria 7 and 8: end-to-end transformation --------------------------------


@pytest.fixture(scope="session")
def transform_honest_runs():
    cp, dp, layout, graphs, proto = small_transform()
    assert layout.verified == "exhaustive"
    stats = {"trials": 0, "agreed": 0, "bit_ones": 0, "late": 0, "audit": 0,
             "msg_total_over": 0, "cp": cp, "dp": dp}
    total_cap = sum(message_caps(dp, cp.n).values())
    replay = {}  # at most 2^5 coin-draw vectors: each is simulated once, every report read
    for i in range(10_000):
        rep = run_simulation(proto, FifoStrategy(), seed=mix64(0x7AC7, i), replay=replay)
        stats["trials"] += 1
        if rep.agreed:
            stats["agreed"] += 1
            stats["bit_ones"] += rep.output_bit
        if rep.latency > cp.R + 5.0 + 1e-9:
            stats["late"] += 1
        if not audit_transcript(rep, dp, n=cp.n, R=cp.R).passed:
            stats["audit"] += 1
        if sum(rep.msg_count_by_kind.values()) > total_cap:
            stats["msg_total_over"] += 1
    return stats


def test_criterion_7_transform_honest(transform_honest_runs):
    st = transform_honest_runs
    lo, hi, _ = wilson_interval(st["bit_ones"], st["trials"], 0.99)
    ok = (st["trials"] == 10_000 and st["agreed"] == st["trials"]
          and lo <= 0.5 <= hi and st["late"] == 0)
    report(7, ok,
           f"{st['trials']} trials, agreement {st['agreed']}/{st['trials']}, "
           f"ones frequency {st['bit_ones'] / st['trials']:.4f} "
           f"(99% Wilson [{lo:.4f}, {hi:.4f}]), latency violations {st['late']}")


def _adversarial_setup():
    """Layout + target where the in-budget corruption set makes exactly one
    committee bad: the two lowest members of the target committee must not
    co-reside in any other committee."""
    n, q, s, alpha, epsilon, z = 16, 9, 4, 1 / 3, 0.15, 1.4
    cp = CoinParams(n=n, t=2, z=z, epsilon=epsilon, alpha=alpha, delta=1.0, R=1.0)
    dp = derive_params(cp, {"q": q, "s": s, "c": 3, "d": 1})
    assert dp.live_threshold == q - 1  # one stalled committee is absorbed
    for seed in range(64):
        try:
            layout = gen_committees(n, q, s, alpha, epsilon, 3, seed=seed,
                                    verify_mode="exhaustive", max_attempts=50)
        except GenerationError:
            continue
        for j, cmt in enumerate(layout.committees):
            pair = set(sorted(cmt)[:2])
            if all(not pair <= set(other) for i, other in enumerate(layout.committees)
                   if i != j):
                graphs = [gen_publish_graph(c, n, dp.d, dp.delta_cap,
                                            seed=mix64(seed, 90 + g), committee_id=g)
                          for g, c in enumerate(layout.committees)]
                proto = TransformProtocol(cp, dp, layout, graphs)
                return cp, dp, layout, proto, j
    raise AssertionError("no suitable adversarial layout found")


@pytest.fixture(scope="session")
def transform_adversarial_runs():
    cp, dp, layout, proto, target = _adversarial_setup()
    stats = {"trials": 0, "agreed": 0, "liveness": 0, "audit": 0, "bad_committees": set(),
             "cp": cp, "dp": dp}
    replay = {}  # at most 2^9 coin-draw vectors: each is simulated once, every report read
    for i in range(10_000):
        strat = CombinedStrategy(CommitteeTargeterStrategy([target]),
                                 PublishDelayerStrategy(1.0))
        rep = run_simulation(proto, strat, seed=mix64(0xADB, i), t_budget=cp.t, replay=replay)
        stats["trials"] += 1
        corrupted = {p for p, _ in rep.corruptions}
        assert len(corrupted) == cp.t  # the full budget is spent
        bad = sum(1 for cmt in layout.committees
                  if len(corrupted & set(cmt)) >= proto.bad_quota)
        stats["bad_committees"].add(bad)
        if rep.agreed:
            stats["agreed"] += 1
        if not rep.all_honest_output:
            stats["liveness"] += 1
        if not audit_transcript(rep, dp, n=cp.n, R=cp.R).passed:
            stats["audit"] += 1
    return stats


def test_criterion_8_transform_adversarial(transform_adversarial_runs):
    st = transform_adversarial_runs
    rate = st["agreed"] / st["trials"]
    lo, _, _ = wilson_interval(st["agreed"], st["trials"], 0.99)
    target = 1.0 - st["dp"].z_prime
    ok = (st["trials"] == 10_000 and lo >= target and st["liveness"] == 0)
    report(8, ok,
           f"{st['trials']} trials under committee_targeter+publish_delayer "
           f"(bad committees per trial: {sorted(st['bad_committees'])}), "
           f"common-output rate {rate:.4f}, Wilson lower edge {lo:.4f} >= 1 - z' = {target:.4f}, "
           f"liveness failures {st['liveness']}")


# --- criterion 9: ideal coin calibration ----------------------------------------


def test_criterion_9_ideal_coin_calibration():
    cp, dp, layout, graphs, proto = small_transform(n=4, q=5, s=4, c=1, delta=0.5,
                                                    layout_seed=3)
    fair = instances = 0
    for i in range(2000):
        rep = run_simulation(proto, FifoStrategy(), seed=mix64(0x1DEA, i))
        for rec in rep.coin_truth:
            instances += 1
            fair += rec["g_drawn"]
    lo, hi, _ = wilson_interval(fair, instances, 0.99)
    ok = instances == 10_000 and lo <= 0.5 <= hi
    report(9, ok, f"{instances} instances at delta=0.5, fair fraction "
                  f"{fair / instances:.4f}, 99% Wilson [{lo:.4f}, {hi:.4f}]")


# --- criterion 10: transcript audits --------------------------------------------


def test_criterion_10_audits(crusader_runs, publish_runs, transform_honest_runs,
                             transform_adversarial_runs):
    fails = (crusader_runs["audit"] + publish_runs["audit"]
             + transform_honest_runs["audit"] + transform_adversarial_runs["audit"]
             + transform_honest_runs["msg_total_over"])
    report(10, fails == 0,
           f"audit_transcript passed on every trial of criteria 5-8 "
           f"({fails} failures); honest totals within 4s^2*q + n*Delta*q + n^2 + q*M(s)")


# --- criterion 11: reference cost instantiations ---------------------------------


def test_criterion_11_cost_dominance():
    doms = {}
    for variant, eps in (("perfect", 0.01), ("crypto", 0.1)):
        rep = preset_cost(variant, 10**6, eps, 0.9, kappa=128)
        doms[variant] = (rep.dominant_term("messages"), rep.dominant_term("bits"))
    ok = all(d == ("strong_coin", "strong_coin") for d in doms.values())
    report(11, ok, f"n=10^6 dominant breakdown terms: {doms}")


# --- criterion 12: byte-identical reruns ------------------------------------------


def test_criterion_12_determinism(tmp_path):
    layout_path = str(tmp_path / "layout.json")
    flags = ["--n", "8", "--override-q", "5", "--override-s", "4", "--override-c", "4",
             "--override-d", "1", "--z", "0.3", "--epsilon", "0.0833",
             "--alpha", "0.3333", "--seed", "11"]
    snapshots = []
    for _ in range(2):
        assert cli_main(["gen-committees", *flags, "--out", layout_path]) == 0
        assert cli_main(["gen-graphs", "--layout", layout_path, *flags]) == 0
        run_path = str(tmp_path / "runs.json")
        assert cli_main(["run-coin", "--layout", layout_path, *flags,
                         "--trials", "100", "--out", run_path,
                         "--log", str(tmp_path / "log.ndjson")]) == 0
        est_path = str(tmp_path / "est.json")
        assert cli_main(["estimate-fairness", "--layout", layout_path, *flags,
                         "--trials", "100", "--out", est_path]) == 0
        derive_path = str(tmp_path / "derive.json")
        assert cli_main(["derive", *flags, "--out", derive_path]) == 0
        snapshots.append(tuple(open(p, "rb").read() for p in
                               (layout_path, run_path, est_path, derive_path,
                                str(tmp_path / "log.ndjson"))))
    ok = snapshots[0] == snapshots[1]
    report(12, ok, "gen-committees, gen-graphs, run-coin, estimate-fairness, derive "
                   "and the event log reproduce byte-identically from their configs")