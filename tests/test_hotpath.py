"""Guards for the simulator hot path: golden output bytes, polling, max_delay, CLI reuse."""

import hashlib
import json

import pytest

from byz import PublishCorrupter, ScriptedByzantine, random_crusader_behavior
from conftest import small_transform
from coinforge.cli import main
from coinforge.combinatorics import gen_publish_graph
from coinforge.config import parse_strategy_spec
from coinforge.params import publish_degree
from coinforge.protocols import BenorCoinProtocol, CrusaderProtocol, PublishProtocol
from coinforge.simnet import (
    AdversaryAction,
    K_CRUS_VAL,
    K_MAJ,
    Simulation,
    dump_event_log,
    mix64,
    report_json,
    run_simulation,
)
from coinforge.strategies import BenorBiaserStrategy, FifoStrategy, RandomDelayStrategy, Strategy, build_strategy

SEEDS = (1, 2, 3)


def _publish_protocol():
    committee = tuple(range(9))
    graph = gen_publish_graph(committee, 16, 2, publish_degree(9, 2, 16), seed=4)
    return PublishProtocol(committee, 16, graph, {m: 1 for m in committee})


class TieShuffler(Strategy):
    """Lands events on instants that already hold some, and on the running one.

    Delays come from a coarse grid, so many events share an instant. At the
    first poll it corrupts committee 0's lowest member and drops every other
    pending envelope of it. Every twentieth poll before time 1.5 it then
    re-times a pending envelope onto an occupied instant and one onto
    view.now, injects at an occupied instant and at now, and re-times an
    honest member of an unfair coin onto an occupied instant with a chosen bit.
    """

    reactive = True

    def bind(self, view, rng):
        super().bind(view, rng)
        self.at = {}  # envelope id -> the delivery time this strategy gave it
        self.coin_at = {}  # (coin instance, member) -> its output time
        self.queue = []
        self.polls = 0

    def delay_for(self, env):
        delay = self.rng.choice((0.25, 0.5, 1.0))
        self.at[env.id] = env.sent_at + delay
        return delay

    def coin_offsets(self, spec, view):
        offsets = {m: 0.5 if m % 2 else spec.R for m in spec.members}
        self.coin_at.update(((spec.inst, m), t) for m, t in offsets.items())
        return offsets

    def next_action(self, view):
        self.polls += 1
        if self.polls == 1:
            self.victim = min(view.protocol.layout.committees[0])
            theirs = [env.id for env in view.pending_envelopes() if env.sender == self.victim]
            self.queue = [AdversaryAction.corrupt(self.victim)] + [AdversaryAction.drop(eid) for eid in theirs[::2]]
        elif not self.queue and self.polls % 20 == 0:
            if view.now >= 1.5:
                self.reactive = False
                return None
            self._shuffle(view)
        return self.queue.pop(0) if self.queue else None

    def _shuffle(self, view):
        now, rng = view.now, self.rng
        pending = [env for env in view.pending_envelopes() if env.id in self.at]
        occupied = sorted({self.at[env.id] for env in pending} | {t for t in self.coin_at.values() if t >= now})
        honest = [env for env in pending if env.sender != self.victim]
        if honest:
            env = rng.choice(honest)
            fits = [t for t in occupied if env.sent_at < t <= env.sent_at + 1.0]
            if fits:
                self.at[env.id] = t = rng.choice(fits)
                self.queue.append(AdversaryAction.delay(env.id, t))
        ready = [env for env in pending if env.sent_at < now or env.sender == self.victim]
        if ready:
            env = rng.choice(ready)
            self.at[env.id] = now
            self.queue.append(AdversaryAction.delay(env.id, now))
        recipient = rng.randrange(view.n)
        self.queue.append(AdversaryAction.inject(
            {"sender": self.victim, "recipient": recipient, "inst": 0, "kind": K_MAJ,
             "payload": rng.getrandbits(1)}, rng.choice(occupied or [now])))
        self.queue.append(AdversaryAction.inject(
            {"sender": self.victim, "recipient": recipient, "inst": rng.randrange(view.protocol.q),
             "kind": K_CRUS_VAL, "payload": rng.getrandbits(1)}, now))
        waiting = [key for key, t in sorted(self.coin_at.items())
                   if t > now and key[1] != self.victim and not view.coin_truth(key[0])[0]]
        spots = [t for t in occupied if t <= 1.0]
        if waiting and spots:
            key = rng.choice(waiting)
            self.coin_at[key] = t = rng.choice(spots)
            self.queue.append(AdversaryAction.coin_set(*key, t, bit=rng.getrandbits(1)))


def _scenarios():
    """name -> (protocol, strategy factory, Simulation keywords)."""
    transform = small_transform()[-1]
    benor_transform = small_transform(coin_mode="benor", layout_seed=17)[-1]
    benor_multitoss = small_transform(coin_mode="benor", layout_seed=17, ell=3)[-1]
    half_fair = small_transform(delta=0.5)[-1]
    return {
        "fifo": (transform, FifoStrategy, {}),
        "random_delay": (transform, RandomDelayStrategy, {}),
        "targeter_delayer": (
            transform,
            lambda: build_strategy(parse_strategy_spec("committee_targeter:0,2+publish_delayer:1.0")),
            {"t_budget": 4}),
        "random_delay_delayer": (  # two parts answer delay_for: the later one wins
            transform, lambda: build_strategy(parse_strategy_spec("random_delay+publish_delayer:0.5")), {}),
        "benor_biaser": (BenorCoinProtocol(25, 2), BenorBiaserStrategy,
                         {"mode": "full_info", "t_budget": 2}),
        "scripted_byzantine": (CrusaderProtocol(4, lambda rng: [rng.getrandbits(1) for _ in range(4)]),
                               lambda: ScriptedByzantine([3], random_crusader_behavior, base_delay=None),
                               {"t_budget": 1}),
        "publish_corrupter": (_publish_protocol(), lambda: PublishCorrupter([0, 1]), {"t_budget": 2}),
        "benor_transform": (benor_transform, RandomDelayStrategy, {}),
        "benor_multitoss": (benor_multitoss, FifoStrategy, {}),
        "tie_order": (half_fair, TieShuffler, {"t_budget": 1}),
    }


def _runs(protocol, make_strategy, kw):
    """(seed, report, event log) of each seed in SEEDS."""
    for seed in SEEDS:
        log = []
        yield seed, Simulation(protocol, make_strategy(), mix64(seed, 1000), log=log, **kw).run(), log


def _digests(protocol, make_strategy, kw):
    """sha256 over report_json and the event log of every seed in SEEDS, whose times never decrease."""
    reports, logs = hashlib.sha256(), hashlib.sha256()
    for seed, rep, log in _runs(protocol, make_strategy, kw):
        assert report_json(run_simulation(protocol, make_strategy(), mix64(seed, 1000), **kw)) == report_json(rep)
        times = [rec["time"] for rec in log]
        assert times == sorted(times)  # the clock never moves backwards
        reports.update(report_json(rep).encode())
        logs.update(dump_event_log(log).encode())
    return reports.hexdigest(), logs.hexdigest()


# (report_json digest, event-log digest) per scenario, recorded with the
# simulator that polled every reactive strategy after every event and rescanned
# all envelopes for max_delay; a faster loop must reproduce them byte for byte
GOLDEN = {
    "fifo": ("66142c056fc66b047d4ec7d45841ac1d099535ea5196203c87b034ceb7e0f528",
             "3fd8435d5bf5554ac91c47d28cc17c56e9f9d9a07282812964f21699bd298a39"),
    "random_delay": ("e41a8443a2c27bf67649ccf16d4cdbea9302d02fc5692ce085dfe5c1494987f0",
                     "f5de1a965e71ce947c848f9525657cd3252eb2175c9f7b4baa87b914cfb1be48"),
    "targeter_delayer": ("483c0ae9916206eda787cfe08770f06866e56f6dc7a46af9467a64562684ad5f",
                         "12884f0fcdf5e331fe82d6b40740ab6b41fcad03eaf5dd5b8ffde9dc2cf9078c"),
    "random_delay_delayer": ("546f539d94f6e324b3051cc2b9a28e3cc5f6a146a3d4d1afe5a44fe18454c815",
                             "87cf5f5979e48e4b3062c032727901e7d89b7f0e0388045bbb479bc42aca6e3f"),
    "benor_biaser": ("ef265624e6eb5d2733c447c2625121604f16634bc6f75b77e3c70c4844ca69dd",
                     "e6fef8fa3e05e926295d8d8e13085ba2c17bbffd37572efc6ea621192eff9615"),
    "scripted_byzantine": ("6b02f695b35f429f2d03c1766873be8a43dec0c6a983b4e20779b1d6bb03ac62",
                           "199f8fd59ee8cc398bbe995168ccf4b495d2214cd552ebec7eabbe1c8b32db34"),
    "publish_corrupter": ("026301f30ea9adfee9223f16766cc5d580e78242c1d82365a4352d634508d842",
                          "5fa8e57be9a0b398f5ef961162ad6918264a116d332320dfc3f8c754e6ef164f"),
    # the two benor entries pin the real-traffic committee coin inside the
    # transformation and the multi-bit toss
    "benor_transform": ("8d7d6d356b14cad42be3cda887add2521909df3f035085936e94da489a0841d2",
                        "99edaa56034e4eef52efe79baef3c0513eaa12c32568d0754f1d4950f3c2b6da"),
    "benor_multitoss": ("e5ff76b4910eeb32b4a0c94cdc42477588a847cb7390f23bcefb90bb3416ac03",
                        "95cd952a85ed7e158d4ca07b46a97c65c332dbece065dcdd800e06443bad8123"),
    # many events per instant, re-timed, injected and coin-set onto occupied
    # instants and onto now; recorded with the per-message (time, seq) heap
    "tie_order": ("541b728dc5f2a79d9917119e8b1242712e8923f019a16b926b89501af337161a",
                  "dc69e4e084d60be9815647b26fa08710333864a1a01e92a16bee0f29de4f8fce"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digests(name):
    protocol, make_strategy, kw = _scenarios()[name]
    assert _digests(protocol, make_strategy, kw) == GOLDEN[name]


# --- polling: a finished strategy is not polled again --------------------------


def _count_polls(strategy):
    """Wrap strategy.next_action; return the list its results are appended to."""
    results = []
    inner = strategy.next_action

    def next_action(view):
        act = inner(view)
        results.append(act)
        return act

    strategy.next_action = next_action
    return results


@pytest.mark.parametrize("spec", ["committee_targeter:0,2", "committee_targeter:0,2+publish_delayer:1.0"])
def test_finished_targeter_is_polled_at_most_actions_plus_one_times(spec):
    transform = small_transform()[-1]
    for seed in SEEDS:
        strategy = build_strategy(parse_strategy_spec(spec))
        polls = _count_polls(strategy)
        rep = run_simulation(transform, strategy, mix64(seed, 1000), t_budget=4)
        actions = sum(act is not None for act in polls)
        assert actions > 0 and rep.corruptions
        assert len(polls) <= actions + 1 < rep.events
        assert strategy.reactive is False


def test_time_gated_strategy_still_fires_at_its_time():
    protocol = _publish_protocol()
    strategy = PublishCorrupter([0, 1])  # when=1.5, returns None until then
    polls = _count_polls(strategy)
    rep = run_simulation(protocol, strategy, mix64(1, 1000), t_budget=2)
    assert [p for p, _ in rep.corruptions] == [0, 1]
    assert all(t >= 1.5 for _, t in rep.corruptions)
    # the wrapper sees every poll up to the first action, where the strategy
    # swaps in its drain; the drops and injections after it come from the swapped-in method
    assert polls[-1] is not None and polls.count(None) == len(polls) - 1
    assert rep.byz_msg_count_by_kind["PUB"] > 0


# --- max_delay: senders corrupted after delivery ---------------------------------


class TwoSenders:
    """Party 0 sends one message to party 2, party 1 one to party 3; nobody replies."""

    n = 4
    coin_specs = ()

    def setup_trial(self, rng):
        return None

    def make_party(self, pid, ctx):
        class P:
            output = None

            def on_start(self):
                return [((pid + 2,), 0, K_MAJ, 1)] if pid < 2 else []

            def on_message(self, env):
                self.output = env.payload
                return []

            def on_coin(self, inst, bit):
                return []

        return P()


class SlowThenCorrupt(Strategy):
    """Party 0's mail takes the full deadline, party 1's half; corrupt `victim` at `when`."""

    reactive = True

    def __init__(self, victim, when):
        self.victim = victim
        self.when = when

    def delay_for(self, env):
        return 1.0 if env.sender == 0 else 0.5

    def next_action(self, view):
        if self.victim is None or view.now < self.when:
            return None
        victim, self.victim = self.victim, None
        self.reactive = False
        return AdversaryAction.corrupt(victim)


@pytest.mark.parametrize("victim,when,want", [
    (None, 0.0, 1.0),  # nobody corrupted: the slow message counts
    (0, 1.0, 0.5),     # slow sender corrupted after its message was delivered: it no longer counts
    (1, 1.0, 1.0),     # the fast sender corrupted instead
    (0, 0.0, 0.5),     # corrupted before delivery
])
def test_max_delay_ignores_senders_corrupted_by_report_time(victim, when, want):
    sim = Simulation(TwoSenders(), SlowThenCorrupt(victim, when), seed=1, t_budget=1)
    rep = sim.run()
    slow = sim.envelopes[0]
    assert (slow.sender, slow.delivered_at) == (0, 1.0)
    if victim == 0 and when == 1.0:
        assert rep.corruptions == [(0, 1.0)]
    rescan = max((e.delivered_at - e.sent_at for e in sim.envelopes
                  if e.delivered_at is not None and e.sender not in sim.corrupted
                  and e.recipient != e.sender), default=0.0)
    assert rep.max_delay == want == (rescan or 1.0)


def test_strategy_that_turns_reactive_off_mid_run_is_not_polled_again():
    transform = small_transform()[-1]
    strategy = SlowThenCorrupt(victim=7, when=1.0)
    times = []
    inner = strategy.next_action
    strategy.next_action = lambda view: times.append(view.now) or inner(view)
    rep = run_simulation(transform, strategy, mix64(1, 1000), t_budget=1)
    (victim, corrupted_at), = rep.corruptions
    assert victim == 7 and corrupted_at >= 1.0
    assert max(times) == corrupted_at < max(t for t in rep.output_times if t is not None)


# --- CLI: one parser, no state carried between calls -----------------------------


def test_back_to_back_cli_calls_share_no_parsed_state(tmp_path, capsys):
    a, b, c = (str(tmp_path / f"{k}.json") for k in "abc")
    assert main(["derive", "--n", "16", "--override-q", "5", "--override-s", "4", "--seed", "7",
                 "--out", a]) == 0
    assert main(["cost-report", "--variant", "perfect", "--n", "1000", "--epsilon", "0.01",
                 "--out", b]) == 0
    assert main(["derive", "--n", "16", "--out", c]) == 0
    first, second = json.load(open(a)), json.load(open(c))
    assert first["config"]["overrides"] == {"q": 5, "s": 4} and first["seed"] == 7
    assert second["config"]["overrides"] == {} and second["seed"] == 0
    assert second["results"]["q"] != 5
    reused = open(c, "rb").read()
    from coinforge import cli
    cli._parser.cache_clear()
    assert main(["derive", "--n", "16", "--out", c]) == 0
    assert open(c, "rb").read() == reused
    capsys.readouterr()


# --- run-coin --log records trial 0 during the run -------------------------------


def test_run_coin_log_matches_a_standalone_trial_zero(tmp_path):
    from coinforge.config import ExperimentConfig, build_protocol
    from test_cli import _gen_layout

    layout = _gen_layout(tmp_path)
    flags = ["--n", "8", "--override-q", "5", "--override-s", "4", "--override-c", "4",
             "--override-d", "1", "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333"]
    log = tmp_path / "trial0.ndjson"
    assert main(["run-coin", "--layout", layout, *flags, "--strategy", "random_delay", "--trials", "3",
                 "--seed", "9", "--out", str(tmp_path / "runs.json"), "--log", str(log)]) == 0
    cfg = ExperimentConfig(n=8, z=0.3, epsilon=0.0833, alpha=0.3333, seed=9, layout_path=layout,
                           overrides={"q": 5, "s": 4, "c": 4, "d": 1})
    protocol, _ = build_protocol(cfg)
    records = []
    Simulation(protocol, RandomDelayStrategy(), mix64(9, 1000), log=records).run()
    assert log.read_text() == dump_event_log(records)


if __name__ == "__main__":
    # Print one scenario's report and event log lines per seed, e.g. `python tests/test_hotpath.py fifo`,
    # so that a re-recorded GOLDEN pair can be backed by a diff of the lines before and after a change.
    import sys

    for _, rep, log in _runs(*_scenarios()[sys.argv[1]]):
        sys.stdout.write(report_json(rep) + dump_event_log(log))
