import functools
import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byz import ScriptedByzantine
from conftest import small_transform
from coinforge import simnet
from coinforge.config import parse_strategy_spec
from coinforge.protocols import CrusaderProtocol
from coinforge.simnet import (
    AdversaryAction,
    CoinSpec,
    K_COIN,
    K_CRUS_AUX,
    K_CRUS_VAL,
    K_MAJ,
    K_OPAQUE,
    K_PUB,
    KIND_NAMES,
    RngStream,
    Simulation,
    StrategyViolation,
    dump_event_log,
    mix64,
    report_json,
    run_simulation,
)
from coinforge.strategies import CombinedStrategy, FifoStrategy, RandomDelayStrategy, Strategy, build_strategy


class PingProtocol:
    """Party 0 broadcasts one bit; everyone outputs on receipt."""

    n = 4
    tag_space = 1
    maj_tag_space = 1
    coin_specs = ()

    def setup_trial(self, rng):
        return None

    def make_party(self, pid, ctx):
        proto = self

        class P:
            output = None

            def on_start(self):
                if pid == 0:
                    return [(tuple(range(proto.n)), 0, K_MAJ, 1)]
                return []

            def on_message(self, env):
                self.output = env.payload
                return []

            def on_coin(self, inst, bit):
                return []

        return P()


def test_benign_schedule_all_output_and_latency_counts_rounds():
    rep = run_simulation(CrusaderProtocol(4, [1, 1, 1, 1]), FifoStrategy(), seed=1)
    assert rep.outputs == [1, 1, 1, 1]
    assert rep.latency == 2.0  # unanimous inputs: value round then aux round
    assert rep.all_honest_output


def test_strongly_adaptive_drop():
    class DropSender(Strategy):
        reactive = True
        _done = False

        def next_action(self, view):
            if self._done:
                return None
            self._done = True
            self._queue = [AdversaryAction.corrupt(0)]
            self._queue += [AdversaryAction.drop(e.id) for e in view.pending_envelopes()
                            if e.sender == 0]
            self.next_action = lambda v: self._queue.pop(0) if self._queue else None
            return self.next_action(view)

    rep = run_simulation(PingProtocol(), DropSender(), seed=1, t_budget=1)
    assert rep.outputs == [None, None, None, None]
    assert rep.corruptions == [(0, 0.0)]


def test_corruption_budget_enforced():
    class OverBudget(Strategy):
        reactive = True
        i = 0

        def next_action(self, view):
            if self.i >= 2:
                return None
            self.i += 1
            return AdversaryAction.corrupt(self.i - 1)

    with pytest.raises(StrategyViolation, match="budget"):
        run_simulation(PingProtocol(), OverBudget(), seed=1, t_budget=1)


def test_dropping_honest_sender_is_a_violation():
    class BadDrop(Strategy):
        reactive = True
        done = False

        def next_action(self, view):
            if self.done:
                return None
            pend = view.pending_envelopes()
            if not pend:
                return None
            self.done = True
            return AdversaryAction.drop(pend[0].id)

    with pytest.raises(StrategyViolation, match="honest sender"):
        run_simulation(PingProtocol(), BadDrop(), seed=1, t_budget=1)


def test_eventual_delivery_and_causality():
    _, _, _, _, proto = small_transform()
    sim = Simulation(proto, RandomDelayStrategy(), seed=9)
    sim.run()
    for env in sim.envelopes:  # no one is corrupted, so every envelope is honest and delivered
        assert env.delivered_at is not None
        if env.recipient == env.sender:
            assert env.delivered_at == env.sent_at  # self-delivery is instant
        else:
            assert env.delivered_at > env.sent_at


def test_determinism_byte_for_byte():
    _, _, _, _, proto = small_transform()
    runs = []
    for _ in range(2):
        log = []
        rep = Simulation(proto, RandomDelayStrategy(), seed=77, log=log).run()
        runs.append((dump_event_log(log), report_json(rep)))
    assert runs[0] == runs[1]


def test_latency_invariant_under_uniform_delay_rescaling():
    _, _, _, _, proto = small_transform()
    full = run_simulation(proto, RandomDelayStrategy(1.0), seed=5)
    half = run_simulation(proto, RandomDelayStrategy(0.5), seed=5)
    assert half.max_delay == full.max_delay * 0.5
    assert half.latency == full.latency  # bitwise equal: dyadic grid, pow-2 scale


def test_step_budget_reports_not_faults():
    class Spammer(Strategy):
        reactive = True

        def next_action(self, view):
            pend = view.pending_envelopes()
            if not pend:
                return None
            e = pend[0]
            return AdversaryAction.delay(e.id, e.sent_at + 1.0)

    rep = run_simulation(PingProtocol(), Spammer(), seed=1, step_budget=3)
    assert rep.strategy_budget_hit


def test_injected_opaque_payload_counts_in_its_own_bucket():
    class Injector(Strategy):
        reactive = True
        done = False

        def next_action(self, view):
            if self.done:
                return None
            if not view.corrupted:
                return AdversaryAction.corrupt(0)
            self.done = True
            return AdversaryAction.inject(
                {"sender": 0, "recipient": 1, "kind": K_OPAQUE, "payload": 0xDEAD,
                 "size_bits": 96}, time=0.5)

    rep = run_simulation(PingProtocol(), Injector(), seed=1, t_budget=1)
    assert rep.byz_msg_count_by_bucket["opaque"] == 1


def test_secure_mode_hides_honest_payloads():
    class Peek(Strategy):
        reactive = True
        done = False

        def next_action(self, view):
            if self.done:
                return None
            self.done = True
            pend = view.pending_envelopes()
            assert pend
            with pytest.raises(StrategyViolation):
                view.payload_of(pend[0])
            return None

    run_simulation(PingProtocol(), Peek(), seed=1)


def test_scripted_byzantine_messages_are_counted_separately():
    rep = run_simulation(CrusaderProtocol(4, [1, 1, 1, 1]),
                         ScriptedByzantine([3]), seed=2, t_budget=1)
    assert rep.corruptions and rep.corruptions[0][0] == 3
    assert sum(rep.byz_msg_count_by_kind.values()) == 0  # silent victim
    honest = sum(rep.msg_count_by_kind.values())
    assert honest <= 4 * 16  # 4s^2 cap


# --- every adversary model rule: one scripted case per StrategyViolation ---------------


class Script(Strategy):
    """Plays `steps` in order; a step maps the view to its action, or to None to wait for a later poll."""

    reactive = True

    def __init__(self, *steps, offsets=None, delay=None):
        self.steps, self.offsets, self.delay = list(steps), offsets, delay

    def coin_offsets(self, spec, view):
        return self.offsets

    def delay_for(self, env):
        return self.delay

    def next_action(self, view):
        act = self.steps[0](view) if self.steps else None
        if act is not None:
            self.steps.pop(0)
        return act


class CoinPingProtocol(PingProtocol):
    """PingProtocol plus one oracle coin among parties 0, 1 and 2, with R = 1."""

    def __init__(self, delta=1.0, bad_threshold=1.0, R=1.0):
        self.coin_specs = [CoinSpec(0, (0, 1, 2), delta, R, bad_threshold)]


def now(act):
    return lambda view: act


def once(cond, act):
    return lambda view: act if cond(view) else None


def delivered(eid):  # party 0 pings envelopes 0..3 to parties 0..3; envelope 0 self-delivers at time 0
    return lambda view: view.envelope(eid).delivered_at is not None


def after_1(view):  # every ping to another party lands at the deadline 1
    return view.now >= 1.0


A = AdversaryAction
PING = {"sender": 0, "recipient": 1, "kind": K_MAJ, "payload": 1}

CRUS = {"sender": 3, "recipient": 0, "kind": K_CRUS_VAL, "payload": 1}


def crusader_4():
    return CrusaderProtocol(4, [1, 1, 1, 1])


def injected(msg, **fields):
    """Corrupt msg's sender at time 0, then inject msg with `fields` replaced, for delivery at 0.5."""
    return Script(now(A.corrupt(msg["sender"])), now(A.inject({**msg, **fields}, 0.5)))


# name -> (protocol, corruption budget, strategy, the message its violation matches)
VIOLATIONS = {
    "coin-offset-zero": (CoinPingProtocol, 0, lambda: Script(offsets={0: 0.0}), "offset outside"),
    "coin-offset-past-R": (CoinPingProtocol, 0, lambda: Script(offsets={1: 1.5}), "offset outside"),
    "delay-zero": (PingProtocol, 0, lambda: Script(delay=0.0), r"delay 0.0 outside"),
    "delay-past-deadline": (PingProtocol, 0, lambda: Script(delay=1.5), r"delay 1.5 outside"),
    "over-budget": (PingProtocol, 0, lambda: Script(now(A.corrupt(1))), "budget 0 exceeded"),
    "corrupt-twice": (PingProtocol, 2, lambda: Script(now(A.corrupt(1)), now(A.corrupt(1))), "already corrupted"),
    "drop-honest": (PingProtocol, 1, lambda: Script(now(A.drop(1))), "honest sender"),
    "drop-delivered": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), once(delivered(0), A.drop(0))),
                       "already delivered"),
    "delay-delivered": (PingProtocol, 0, lambda: Script(once(delivered(0), A.delay(0, 0.5))), "already delivered"),
    "delay-dropped": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), now(A.drop(1)), now(A.delay(1, 0.5))),
                      "already delivered or dropped"),
    "delay-into-past": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), once(after_1, A.delay(3, 0.5))),
                        "into the past"),
    "honest-delivery-late": (PingProtocol, 0, lambda: Script(now(A.delay(1, 1.5))), r"\(sent, sent\+1\]"),
    "honest-delivery-at-send": (PingProtocol, 0, lambda: Script(lambda v: A.delay(1, v.now)),
                                r"\(sent, sent\+1\]"),
    "inject-into-past": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), once(after_1, A.inject(PING, 0.5))),
                         "into the past"),
    "inject-from-honest": (PingProtocol, 0, lambda: Script(now(A.inject(PING, 0.5))), "honest party"),
    "inject-size-zero": (PingProtocol, 1,
                         lambda: Script(now(A.corrupt(0)), now(A.inject({**PING, "size_bits": 0}, 0.5))),
                         "size_bits >= 1"),
    "coin-set-non-member": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(0, 3, 0.5))), "not a member"),
    "coin-set-time-zero": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(0, 0, 0.0))), r"outside \(0, R\]"),
    "coin-set-time-past-R": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(0, 0, 1.5))), r"outside \(0, R\]"),
    "coin-set-after-output": (CoinPingProtocol, 0,  # member 0 outputs at 0.25
                              lambda: Script(once(lambda v: v.now >= 0.25, A.coin_set(0, 0, 0.5)),
                                             offsets={0: 0.25}),
                              "already delivered"),
    "coin-set-bit-of-fair-coin": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(0, 0, None, bit=1))),
                                  "fair coin"),
    "unknown-kind": (PingProtocol, 0, lambda: Script(now(A("teleport"))), "unknown action kind 'teleport'"),
    # malformed actions: every id names something that exists, every time is a finite number
    "corrupt-no-such-party": (PingProtocol, 1, lambda: Script(now(A.corrupt(9))), r"party 9 is not an id in \[0, 4\)"),
    "corrupt-negative-party": (PingProtocol, 1, lambda: Script(now(A.corrupt(-1))), "party -1 is not an id"),
    "drop-negative-id": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), now(A.drop(-1))),
                         "envelope -1 is not an id"),
    "delay-bool-id": (PingProtocol, 0, lambda: Script(now(A.delay(True, 0.5))), "envelope True is not an id"),
    "delay-no-such-envelope": (PingProtocol, 0, lambda: Script(now(A.delay(99, 0.5))),
                               r"envelope 99 is not an id in \[0, 4\)"),
    "delay-time-none": (PingProtocol, 0, lambda: Script(now(A.delay(1, None))), "time None is not a finite number"),
    "delay-time-nan": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), now(A.delay(1, math.nan))),
                       "time nan is not a finite number"),
    "inject-time-nan": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), now(A.inject(PING, math.nan))),
                        "time nan is not a finite number"),
    "inject-not-a-dict": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), now(A.inject(None, 0.5))),
                          "a dict with sender, recipient, kind and payload"),
    "inject-no-payload": (PingProtocol, 1,
                          lambda: Script(now(A.corrupt(0)), now(A.inject({"sender": 0, "recipient": 1, "kind": K_MAJ},
                                                                          0.5))),
                          "a dict with sender, recipient, kind and payload"),
    "inject-no-such-sender": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), now(A.inject({**PING, "sender": 9},
                                                                                                0.5))),
                              "sender 9 is not an id"),
    "inject-no-such-recipient": (PingProtocol, 1,
                                 lambda: Script(now(A.corrupt(0)), now(A.inject({**PING, "recipient": 7}, 0.5))),
                                 "recipient 7 is not an id"),
    "inject-no-such-kind": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), now(A.inject({**PING, "kind": 9}, 0.5))),
                            r"kind 9 is not an id in \[0, 7\)"),
    "inject-no-such-inst": (PingProtocol, 1, lambda: Script(now(A.corrupt(0)), now(A.inject({**PING, "inst": 1}, 0.5))),
                            r"inst 1 is not an id in \[0, 1\)"),
    "inject-size-not-int": (PingProtocol, 1,
                            lambda: Script(now(A.corrupt(0)), now(A.inject({**PING, "size_bits": 1.5}, 0.5))),
                            "integer size_bits >= 1"),
    "coin-set-negative-instance": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(-1, 0, 0.5))),
                                   "coin instance -1 is not an id"),
    "coin-set-no-such-instance": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(5, 0, 0.5))),
                                  r"coin instance 5 is not an id in \[0, 1\)"),
    "coin-set-bool-party": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(0, True, 0.5))), "not a member"),
    "coin-set-bit-two": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(0, 0, None, bit=2))), "coin bit 2"),
    "coin-set-time-nan": (CoinPingProtocol, 0, lambda: Script(now(A.coin_set(0, 0, math.nan))),
                          "time nan is not a finite number"),
    "coin-offset-nan": (CoinPingProtocol, 0, lambda: Script(offsets={0: math.nan}),
                        "offset nan is not a finite number"),
    # a coin_offsets answer is None or a dict keyed by members of the instance
    "coin-offsets-a-list": (CoinPingProtocol, 0, lambda: Script(offsets=[0.5]), "None or a member -> offset dict"),
    "coin-offsets-a-number": (CoinPingProtocol, 0, lambda: Script(offsets=0.5), "None or a member -> offset dict"),
    "coin-offsets-non-member": (CoinPingProtocol, 0, lambda: Script(offsets={3: 0.5}), "party 3 is not a member"),
    # and so is each part's answer inside a combination
    "combined-coin-offsets-a-list": (CoinPingProtocol, 0,
                                     lambda: CombinedStrategy(FifoStrategy(), Script(offsets=[0.5])),
                                     "None or a member -> offset dict"),
    "combined-coin-offsets-a-number": (CoinPingProtocol, 0,
                                       lambda: CombinedStrategy(Script(offsets=0.5), FifoStrategy()),
                                       "None or a member -> offset dict"),
    "coin-offsets-no-such-party": (lambda: boundary_protocol("transform"), 0, lambda: Script(offsets={99: 0.5}),
                                   "party 99 is not a member"),
    "coin-offsets-tuple-key": (lambda: boundary_protocol("transform"), 0, lambda: Script(offsets={(0,): 0.5}),
                               r"party \(0,\) is not a member"),
    "coin-set-bit-after-output": (lambda: CoinPingProtocol(delta=0.0), 0,  # unfair; member 0 outputs at 0.25
                                  lambda: Script(once(lambda v: v.now >= 0.25, A.coin_set(0, 0, None, bit=1)),
                                                 offsets={0: 0.25}),
                                  "already delivered"),
    "coin-set-into-past": (CoinPingProtocol, 0,  # members 0 and 1 output at 0.75
                           lambda: Script(once(lambda v: v.now >= 0.75, A.coin_set(0, 2, 0.5)),
                                          offsets={0: 0.75, 1: 0.75}),
                           "into the past"),
    "self-delivery-past-deadline": (PingProtocol, 0, lambda: Script(now(A.delay(0, 1e6))),
                                    r"\(sent, sent\+1\], a self-delivery also at sent"),
    "delay-str": (PingProtocol, 0, lambda: Script(delay="0.5"), "delay '0.5' is not a finite number"),
    "delay-bool": (PingProtocol, 0, lambda: Script(delay=True), "delay True is not a finite number"),
    # an injected payload is an exact int in its kind's value set
    "inject-maj-true": (PingProtocol, 1, lambda: injected(PING, payload=True),
                        r"MAJ payload is one of \(0, 1\), not True"),
    "inject-maj-float": (PingProtocol, 1, lambda: injected(PING, payload=1.0),
                         r"MAJ payload is one of \(0, 1\), not 1.0"),
    "inject-maj-two": (PingProtocol, 1, lambda: injected(PING, payload=2), r"MAJ payload is one of \(0, 1\), not 2"),
    "inject-crus-val-float": (crusader_4, 1, lambda: injected(CRUS, payload=1.0),
                              r"CRUS_VAL payload is one of \(0, 1\), not 1.0"),
    "inject-crus-aux-float": (crusader_4, 1, lambda: injected(CRUS, kind=K_CRUS_AUX, payload=1.0),
                              r"CRUS_AUX payload is one of \(0, 1\), not 1.0"),
    "inject-pub-three": (PingProtocol, 1, lambda: injected(PING, kind=K_PUB, payload=3),
                         r"PUB payload is one of \(0, 1, 2\), not 3"),
    "inject-coin-str": (PingProtocol, 1, lambda: injected(PING, kind=K_COIN, payload="1"),
                        r"COIN payload is one of \(0, 1\), not '1'"),
    # the view's lookups check their ids as actions do
    "view-envelope-negative": (PingProtocol, 0, lambda: Script(lambda v: v.envelope(-1)),
                               "envelope -1 is not an id"),
    "view-envelope-past-end": (PingProtocol, 0, lambda: Script(lambda v: v.envelope(4)),
                               r"envelope 4 is not an id in \[0, 4\)"),
    "view-coin-truth-negative": (CoinPingProtocol, 0, lambda: Script(lambda v: v.coin_truth(-1)),
                                 "coin instance -1 is not an id"),
    "view-coin-truth-past-end": (CoinPingProtocol, 0, lambda: Script(lambda v: v.coin_truth(1)),
                                 r"coin instance 1 is not an id in \[0, 1\)"),
}


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_every_model_rule_faults_the_strategy(name):
    protocol, t_budget, strategy, match = VIOLATIONS[name]
    with pytest.raises(StrategyViolation, match=match):
        run_simulation(protocol(), strategy(), seed=1, t_budget=t_budget)


BOUNDARY_PROTOCOLS = {"transform": lambda: small_transform()[-1], "crusader": crusader_4}
PAYLOADS = (0, 1, 2, 3, -1, True, False, 1.0, "1", None)


@functools.cache
def boundary_protocol(name):
    return BOUNDARY_PROTOCOLS[name]()


@st.composite
def injections(draw, protocol):
    """1-6 inject actions from party 0: any kind, an inst inside the kind's space, any payload of
    PAYLOADS (OPAQUE with a declared size), a dyadic delivery time in (0, 2]."""
    acts = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, len(KIND_NAMES) - 1))
        space = getattr(protocol, "maj_tag_space" if kind == K_MAJ else "tag_space", 1)
        msg = {"sender": 0, "recipient": draw(st.integers(0, protocol.n - 1)), "kind": kind,
               "inst": draw(st.integers(0, space - 1)), "payload": draw(st.sampled_from(PAYLOADS))}
        if kind == K_OPAQUE:
            msg["size_bits"] = 8
        acts.append(A.inject(msg, draw(st.integers(1, 512)) / 256))
    return acts


def admissible(msg):
    payload, kind = msg["payload"], msg["kind"]
    bits = (0, 1, 2) if kind == K_PUB else (0, 1)
    return kind == K_OPAQUE or (type(payload) is int and payload in bits)


@pytest.mark.parametrize("name", sorted(BOUNDARY_PROTOCOLS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_injection_ends_in_a_report_or_a_violation(name, data):
    # every injection is admitted or refused at the boundary: no handler raises on what it admits
    protocol = boundary_protocol(name)
    acts = data.draw(injections(protocol))
    strategy = Script(now(A.corrupt(0)), *map(now, acts))
    if all(admissible(act.message) for act in acts):
        rep = run_simulation(protocol, strategy, seed=1, t_budget=1)
        assert sum(rep.byz_msg_count_by_kind.values()) == len(acts)
    else:
        with pytest.raises(StrategyViolation, match="payload is one of"):
            run_simulation(protocol, strategy, seed=1, t_budget=1)


def test_re_timing_to_now_and_integer_delays_are_legal():
    # an honest self-delivery re-timed to its send instant, and a coin output re-timed to now
    log = []
    steps = (now(A.delay(0, 0.0)), once(lambda v: v.now >= 0.5, A.coin_set(0, 2, 0.5)))
    rep = run_simulation(CoinPingProtocol(), Script(*steps, offsets={0: 0.5}, delay=1), seed=1, log=log)
    assert rep.output_times == [0.0, 1.0, 1.0, 1.0]
    assert [(rec["party"], rec["time"]) for rec in log if rec["kind"] == "coin"] == [(0, 0.5), (2, 0.5), (1, 1.0)]


def test_a_delayed_self_delivery_counts_toward_max_delay():
    rep = run_simulation(PingProtocol(), Script(now(A.delay(0, 0.25)), delay=0.125), seed=1)
    assert rep.output_times == [0.25, 0.125, 0.125, 0.125]
    assert rep.max_delay == 0.25 and rep.latency == 1.0


def _bytes(protocol, strategy, **kw):
    log = []
    rep = run_simulation(protocol, strategy, seed=1, log=log, **kw)
    return report_json(rep), dump_event_log(log)


@pytest.mark.parametrize("zero,one", [(0, 1), (-0.0, 1.0)], ids=["ints", "negative-zero"])
def test_every_time_is_stored_as_a_binary64(zero, one):
    # an int R, offset, delay answer or action time, and a -0.0, give the bytes of 0.0 and 1.0
    def script(zero, one):
        steps = (A.corrupt(3), A.inject({**PING, "sender": 3}, zero), A.coin_set(0, 2, one), A.delay(3, one))
        return Script(*map(now, steps), offsets={0: one}, delay=one)

    want = _bytes(CoinPingProtocol(), script(0.0, 1.0), t_budget=1)
    assert _bytes(CoinPingProtocol(R=one), script(zero, one), t_budget=1) == want
    assert '"time": 0.0' in want[1] and '"time": 1.0' in want[1]


def test_an_int_R_gives_the_bytes_of_a_float_R():
    runs = [_bytes(small_transform(R=R)[-1], FifoStrategy()) for R in (1, 1.0)]
    assert runs[0] == runs[1]


class SelfLoop(PingProtocol):
    """Party 0 answers every delivery to itself with another zero-delay self-send."""

    def make_party(self, pid, ctx):
        class P:
            output = None

            def on_start(self):
                return [((0,), 0, K_MAJ, 1)] if pid == 0 else []

            def on_message(self, env):
                return [((0,), 0, K_MAJ, 1)]

            def on_coin(self, inst, bit):
                return []

        return P()


def test_a_run_that_never_quiesces_exhausts_the_event_budget(monkeypatch):
    # every self-send lands on the running instant, so the budget is checked per event, not per instant
    monkeypatch.setattr(simnet, "MAX_EVENTS", 1000)
    sim = Simulation(SelfLoop(), FifoStrategy(), seed=1)
    with pytest.raises(RuntimeError, match="event budget exhausted"):
        sim.run()
    assert len(sim.envelopes) == 1001 and sim.now == 0.0


def _coin_outputs(protocol, strategy):
    """(member, time, detail) of every coin output of one run, in order."""
    log = []
    run_simulation(protocol, strategy, seed=1, log=log)
    return [(rec["party"], rec["time"], rec["detail"]) for rec in log if rec["kind"] == "coin"]


def test_legal_coin_set_assigns_unfair_bits_and_re_times_outputs():
    # an unfair instance (delta = 0): an honest member's bit may be assigned, the others get the default 0
    unfair = _coin_outputs(CoinPingProtocol(delta=0.0), Script(now(A.coin_set(0, 1, None, bit=1))))
    assert unfair == [(0, 1.0, "inst=0 bit=0 fair=False"), (1, 1.0, "inst=0 bit=1 fair=False"),
                      (2, 1.0, "inst=0 bit=0 fair=False")]
    # a re-time to 0.5 leaves the entry at R stale, and one to 0.75 the entry at the offset 0.25
    earlier = _coin_outputs(CoinPingProtocol(), Script(now(A.coin_set(0, 0, 0.5))))
    later = _coin_outputs(CoinPingProtocol(), Script(now(A.coin_set(0, 0, 0.75)), offsets={0: 0.25}))
    for outputs, t in ((earlier, 0.5), (later, 0.75)):
        assert [(m, time) for m, time, _ in outputs] == [(0, t), (1, 1.0), (2, 1.0)]
        assert len({detail for _, _, detail in outputs}) == 1 and outputs[0][2].endswith("fair=True")


@pytest.mark.parametrize("steps", [
    (A.corrupt(0), A.corrupt(1)),
    (A.coin_set(0, 2, 0.5), A.corrupt(0), A.corrupt(1)),
    (A.corrupt(0), A.coin_set(0, 0, None, bit=1), A.corrupt(1)),
], ids=["corrupt-only", "re-time-first", "assign-between"])
def test_coin_set_does_not_fix_the_fairness_verdict(steps):
    # two corrupted members void the contract; every action lands at time 0, before any coin output,
    # so a coin_set among them must not fix the verdict while only one member is corrupted
    rep = run_simulation(CoinPingProtocol(bad_threshold=2.0), Script(*map(now, steps)), seed=1, t_budget=2)
    assert [rec["fair"] for rec in rep.coin_truth] == [False]


def test_a_committee_coin_turns_unfair_exactly_at_the_overload_quota():
    _, _, layout, _, proto = small_transform()
    assert proto.bad_quota == 2  # ceil(s/3) at s = 4
    committee = layout.committees[0]

    def committee_0_fair(strategy, t_budget):
        rep = run_simulation(proto, strategy, seed=1, t_budget=t_budget)
        return rep, next(rec["fair"] for rec in rep.coin_truth if rec["instance"] == 0)

    for k in (1, 2):  # quota - 1 and quota members, corrupted at time 0
        _, fair = committee_0_fair(Script(*[now(A.corrupt(m)) for m in committee[:k]]), k)
        assert fair is (k < proto.bad_quota)
    rep, fair = committee_0_fair(build_strategy(parse_strategy_spec("committee_targeter:0")), 4)
    assert [p for p, _ in rep.corruptions] == list(committee[:proto.bad_quota]) and fair is False


class CoinDecideProtocol(PingProtocol):
    """Three parties that send nothing and output the bit of their one oracle coin, with R = 1."""

    n = 3

    def __init__(self):
        self.coin_specs = [CoinSpec(0, (0, 1, 2), 1.0, 1.0, 1.0)]

    def make_party(self, pid, ctx):
        class P:
            output = None

            def on_start(self):
                return []

            def on_message(self, env):
                return []

            def on_coin(self, inst, bit):
                self.output = bit
                return []

        return P()


def test_a_party_deciding_on_a_coin_output_gets_an_output_record():
    log = []
    rep = run_simulation(CoinDecideProtocol(), FifoStrategy(), seed=1, log=log)
    assert rep.output_times == [1.0, 1.0, 1.0]
    assert [(rec["kind"], rec["party"], rec["time"]) for rec in log] == [
        (kind, member, 1.0) for member in range(3) for kind in ("coin", "output")]


def test_mix64_is_stable():
    assert mix64(1, 2) == mix64(1, 2)
    assert mix64(1, 2) != mix64(1, 3)
    assert mix64(0, 0) >= 0


# --- per-trial rng streams ------------------------------------------------------


@pytest.mark.parametrize("first", ["random", "getrandbits", "randrange"])
@pytest.mark.parametrize("seed", [0, 1, mix64(7, 2), 2**63 - 1])
def test_rng_stream_yields_the_seeded_random_sequences(seed, first):
    """random(), getrandbits(k) and randrange(a, b), interleaved from any first draw, as Random(seed) gives them."""
    stream, ref = RngStream(seed), random.Random(seed)
    draws = {"random": lambda r, i: r.random(), "getrandbits": lambda r, i: r.getrandbits(i % 64 + 1),
             "randrange": lambda r, i: r.randrange(1, 257 + i)}
    order = [first, *(name for name in draws if name != first)]
    for i in range(60):
        name = order[i % 3]
        assert draws[name](stream, i) == draws[name](ref, i)


def test_a_stream_never_drawn_from_builds_no_random(monkeypatch):
    toss = small_transform(n=1, q=1, s=1, c=1, z=0.3, epsilon=1 / 12, layout_seed=1, ell=8)[-1]
    built = []

    class Counting(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(simnet, "random", types.SimpleNamespace(Random=Counting))
    RngStream(5)
    assert built == []
    seed = mix64(3, 0)
    rep = run_simulation(toss, FifoStrategy(), seed)
    # only the coin stream: the protocol's setup_trial and fifo draw nothing
    assert built == [mix64(seed, 0)] and rep.agreed

