"""The one trial runner: its seed rule, trial-0 logging, and the output bytes of every trial command."""

import hashlib
import json

import pytest

from conftest import small_transform
from coinforge import analysis, simnet
from coinforge.analysis import estimate_fairness, run_trials
from coinforge.cli import main
from coinforge.config import parse_strategy_spec
from coinforge.params import ParamError
from coinforge.simnet import coin_draws, dump_event_log, mix64, report_json, run_simulation
from coinforge.strategies import FifoStrategy, RandomDelayStrategy, Strategy, build_strategy

FLAGS = ("--n", "8", "--override-q", "5", "--override-s", "4", "--override-c", "4",
         "--override-d", "1", "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333")

# name -> (argv, files the command writes); paths are relative so the config
# block embedded in --out does not depend on the working directory
COMMANDS = {
    "run-coin": (["run-coin", "--layout", "layout.json", *FLAGS, "--strategy", "random_delay",
                  "--trials", "4", "--seed", "9", "--out", "out.json", "--log", "trial0.ndjson"],
                 ["out.json", "trial0.ndjson"]),
    "run-coin-zero-trials": (["run-coin", "--layout", "layout.json", *FLAGS, "--trials", "0",
                              "--seed", "9", "--out", "out.json", "--log", "trial0.ndjson"],
                             ["out.json", "trial0.ndjson"]),
    "run-crusader": (["run-crusader", "--s", "4", "--inputs", "random", "--strategy", "random_delay",
                      "--trials", "6", "--seed", "3", "--out", "out.json"],
                     ["out.json"]),
    "run-publish-split": (["run-publish", "--layout", "layout.json", *FLAGS, "--committee", "1", "--split",
                           "--strategy", "random_delay", "--trials", "4", "--seed", "5", "--out", "out.json"],
                          ["out.json"]),
    "estimate-fairness": (["estimate-fairness", "--layout", "layout.json", *FLAGS, "--strategy", "random_delay",
                           "--trials", "24", "--seed", "2", "--out", "out.json", "--csv", "trials.csv"],
                          ["out.json", "trials.csv"]),
    "estimate-fairness-targeted": (["estimate-fairness", "--layout", "layout.json", *FLAGS, "--t", "2",
                                    "--strategy", "committee_targeter:0+publish_delayer:1.0", "--trials", "6",
                                    "--seed", "2", "--out", "out.json", "--csv", "trials.csv"],
                                   ["out.json", "trials.csv"]),
    "leader": (["leader", "--layout", "layout.json", *FLAGS, "--ell", "3", "--seed", "6", "--out", "out.json"],
               ["out.json"]),
}

# (exit code, sha256 of stdout and of each written file), recorded with the
# per-command trial loops that run_trials replaced
EXPECTED = {
    "estimate-fairness": (0, {
        "stdout": "bda81a9cf20768a9c2846924c9d7d9ae51fdd09a3eeb2e398db083f2627db8e3",
        "out.json": "6f92891761db21b401c9a385b17d76ce2430a85c22022b1a49baa8520b1bf895",
        "trials.csv": "7c8ea31ef8069d5b966c5bc9d7bdf405d2ac7b63966a231248cf8da81cfc1307",
    }),
    "estimate-fairness-targeted": (2, {
        "stdout": "dd3ee2b5641b33bdacd1b72afb855a785ef97b9304b95836db7c4d585380a7fa",
        "out.json": "846e484165d36af26f856a34fe6b7d7d3d5ea51d9645b3cded89e96713210983",
        "trials.csv": "87126ee296d21aa4b29d73cd9399376384e110522c7b7a03f1785ba22abcf492",
    }),
    "leader": (0, {
        "stdout": "bca1eb15be031c9b7cb7a49650e344f3771fd4fbd97d2398fbfa373901f7ff0e",
        "out.json": "bb558363928d52eff41ae7fd0776d381524030c73205e4d42b366616aa6c9294",
    }),
    "run-coin": (0, {
        "stdout": "4c2898a7b3d1b028c6d39cd578d99972f9fca61ce048d6153b0029de06cf9a71",
        "out.json": "d338f945f566bb6d8c52e08c9f1130c6a604fbcdfa065b41754fa255c479abf5",
        "trial0.ndjson": "5cc6144c025c3c903653aeb88f56bd7f5885c50ce4cddf1112fc1cf8eaef5d0b",
    }),
    "run-coin-zero-trials": (0, {
        "stdout": "d7c60806ae0422953a32f8cc219e36c1e7bea2242b03d475687b3fc3e5482fae",
        "out.json": "3ecd2171573852c7aa400e55250008512d340cc1fcc28c5723b10e37d8a3f953",
        "trial0.ndjson": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
    "run-crusader": (0, {
        "stdout": "0dd871f4283862836e2420f4bfd21c74e385149a583f958368417ad1a211bba2",
        "out.json": "c88d1f0c936562dcf4679dd5a411c1dcb2a355b9d29d0d3883d23b8cf01e4e2a",
    }),
    "run-publish-split": (0, {
        "stdout": "5fc9766dd033d2d5b4b0eed820cf801b9bf04b7621a30965ec2bb0e72b4c29a9",
        "out.json": "6f97e2de0cee80bfab7ca7b9dc899f78041ca00f06d36fa57316e3ced42adb14",
    }),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def layout_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-committees", *FLAGS, "--seed", "11", "--out", "layout.json"]) == 0
    assert main(["gen-graphs", *FLAGS, "--seed", "12", "--layout", "layout.json"]) == 0
    return tmp_path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_trial_command_output_bytes(name, layout_dir, capsys):
    argv, files = COMMANDS[name]
    capsys.readouterr()
    rc = main(argv)
    digests = {"stdout": _sha(capsys.readouterr().out.encode())}
    digests.update((f, _sha((layout_dir / f).read_bytes())) for f in files)
    assert (rc, digests) == EXPECTED[name]


# --- run_trials: the seed rule and trial-0 logging ---------------------------------


def test_run_trials_seed_rule_and_trial_zero_log():
    protocol = small_transform()[-1]
    seed = 17
    log = []
    reports = list(run_trials(protocol, RandomDelayStrategy, seed, 4, log=log))
    assert len(reports) == 4
    for i, rep in enumerate(reports):
        assert report_json(rep) == report_json(run_simulation(protocol, RandomDelayStrategy(), mix64(seed, 1000 + i)))
    trial0 = []
    run_simulation(protocol, RandomDelayStrategy(), mix64(seed, 1000), log=trial0)
    assert log and dump_event_log(log) == dump_event_log(trial0)


def test_run_trials_runs_each_trial_when_asked(monkeypatch):
    protocol = small_transform()[-1]
    seeds = []
    inner = analysis.run_simulation

    def spy(protocol, strategy, seed, **kw):
        seeds.append((seed, kw["log"] is not None))
        return inner(protocol, strategy, seed, **kw)

    monkeypatch.setattr(analysis, "run_simulation", spy)
    reports = run_trials(protocol, RandomDelayStrategy, 5, 3, log=[])
    assert seeds == []
    next(reports)
    assert seeds == [(mix64(5, 1000), True)]
    list(reports)
    assert seeds == [(mix64(5, 1000 + i), i == 0) for i in range(3)]


def test_run_trials_rejects_negative_counts():
    protocol = small_transform()[-1]
    with pytest.raises(ParamError):
        run_trials(protocol, RandomDelayStrategy, 0, -1)
    assert list(run_trials(protocol, RandomDelayStrategy, 0, 0)) == []


# --- replay: each coin-draw vector is simulated once per call when the run draws nothing else ---


@pytest.fixture
def builds(monkeypatch):
    """The seeds of the Simulations built, in order."""
    seeds = []

    class Counting(simnet.Simulation):
        def __init__(self, protocol, strategy, seed, **kw):
            seeds.append(seed)
            super().__init__(protocol, strategy, seed, **kw)

    monkeypatch.setattr(simnet, "Simulation", Counting)
    return seeds


def _fresh(protocol, make_strategy, seed, t_budget=0):
    """report_json of trial `seed` run on its own, outside any loop."""
    return report_json(run_simulation(protocol, make_strategy(), seed, t_budget=t_budget))


@pytest.mark.parametrize("spec,t_budget", [("fifo", 0), ("committee_targeter:0,2+publish_delayer:1.0", 4)])
def test_replayed_trials_equal_fresh_runs_with_fewer_builds(spec, t_budget, builds):
    protocol = small_transform()[-1]  # five coins at delta = 1: at most 2^5 draw vectors
    make = lambda: build_strategy(parse_strategy_spec(spec))  # noqa: E731
    trials = 80
    got = [report_json(rep) for rep in run_trials(protocol, make, 3, trials, t_budget=t_budget)]
    built = len(builds)
    assert built == len({coin_draws(protocol, mix64(3, 1000 + i)) for i in range(trials)}) < trials
    assert got == [_fresh(protocol, make, mix64(3, 1000 + i), t_budget) for i in range(trials)]


class DrawsOnCoinZeroOne(Strategy):
    """Draws delays from its rng, so a trial's path depends on its seed, only when coin 0's b* is 1."""

    def bind(self, view, rng):
        super().bind(view, rng)
        self.view = view

    def delay_for(self, env):
        if self.view.coin_truth(0)[1]:
            return self.rng.randrange(1, 257) / 256
        return None


def test_a_trial_that_drew_is_never_served(builds):
    protocol = small_transform()[-1]
    trials = 80
    got = [report_json(rep) for rep in run_trials(protocol, DrawsOnCoinZeroOne, 4, trials)]
    built = list(builds)
    assert got == [_fresh(protocol, DrawsOnCoinZeroOne, mix64(4, 1000 + i)) for i in range(trials)]
    draws = [coin_draws(protocol, mix64(4, 1000 + i)) for i in range(trials)]
    assert 0 < sum(d[0][1] for d in draws) < trials
    # every trial that drew was built, and each draw-free vector once
    assert built == [mix64(4, 1000 + i) for i, d in enumerate(draws) if d[0][1] or d not in draws[:i]]
    assert len(built) < trials


def test_random_delay_builds_one_simulation_per_trial(builds):
    list(run_trials(small_transform()[-1], RandomDelayStrategy, 5, 80))
    assert builds == [mix64(5, 1000 + i) for i in range(80)]


@pytest.mark.parametrize("delta,trials,replays", [(1.0, 31, False), (1.0, 32, True), (0.5, 1023, False),
                                                  (0.5, 1024, True)])
def test_replay_needs_a_draw_space_within_the_trial_count(delta, trials, replays, monkeypatch):
    protocol = small_transform(delta=delta)[-1]  # five coins: 2^5 vectors at delta = 1, else 4^5
    passed = []
    inner = analysis.run_simulation

    def spy(protocol, strategy, seed, **kw):
        passed.append(kw["replay"])
        return inner(protocol, strategy, seed, **kw)

    monkeypatch.setattr(analysis, "run_simulation", spy)
    next(run_trials(protocol, FifoStrategy, 1, trials))
    assert (passed[0] is not None) is replays


def test_a_logged_trial_is_simulated(builds):
    protocol = small_transform()[-1]
    log = []
    reports = list(run_trials(protocol, FifoStrategy, 6, 40, log=log))
    trial0 = []
    fresh = run_simulation(protocol, FifoStrategy(), mix64(6, 1000), log=trial0)
    assert builds[0] == mix64(6, 1000) and report_json(reports[0]) == report_json(fresh)
    assert log and dump_event_log(log) == dump_event_log(trial0)
    # also when its draws are stored already
    replay, again = {}, []
    run_simulation(protocol, FifoStrategy(), mix64(6, 1000), replay=replay)
    built = len(builds)
    run_simulation(protocol, FifoStrategy(), mix64(6, 1000), log=again, replay=replay)
    assert len(builds) == built + 1 and dump_event_log(again) == dump_event_log(trial0)


def test_run_coin_multitoss_bytes_equal_with_replay_suppressed(tmp_path, monkeypatch, builds):
    # the 8-bit toss at n = q = s = 1: eight coins at delta = 1, so at most 256 draw vectors in 300 trials
    monkeypatch.chdir(tmp_path)
    flags = ["--n", "1", "--override-q", "1", "--override-s", "1", "--override-c", "1",
             "--override-d", "1", "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333"]
    assert main(["gen-committees", *flags, "--seed", "1", "--out", "layout.json"]) == 0
    assert main(["gen-graphs", *flags, "--seed", "1", "--layout", "layout.json"]) == 0
    doc = {"n": 1, "z": 0.3, "epsilon": 0.0833, "alpha": 0.3333, "overrides": {"q": 1, "s": 1, "c": 1, "d": 1},
           "protocol": {"kind": "multivalued", "ell": 8}, "strategy": {"name": "fifo"},
           "trials": 300, "seed": 0, "layout_path": "layout.json", "out": "runs.json"}
    (tmp_path / "multitoss.json").write_text(json.dumps(doc))
    argv = ["run-coin", "--config", "multitoss.json", "--seed", "7"]
    assert main(argv) == 0
    replayed = (tmp_path / "runs.json").read_bytes()
    assert len(builds) < 300
    inner = analysis.run_simulation
    monkeypatch.setattr(analysis, "run_simulation", lambda *a, replay=None, **kw: inner(*a, **kw))
    del builds[:]
    assert main(argv) == 0
    assert len(builds) == 300
    assert (tmp_path / "runs.json").read_bytes() == replayed


# --- bad trial counts and confidence levels are config errors ------------------------


@pytest.mark.parametrize("argv", [
    ["estimate-fairness", "--layout", "layout.json", *FLAGS, "--trials", "0"],
    ["estimate-fairness", "--layout", "layout.json", *FLAGS, "--trials", "2", "--confidence", "1.5"],
    ["run-coin", "--layout", "layout.json", *FLAGS, "--trials", "-1", "--out", "out.json"],
    ["run-crusader", "--s", "4", "--trials", "-2", "--out", "out.json"],
], ids=["fairness-zero-trials", "fairness-confidence", "run-coin-negative", "run-crusader-negative"])
def test_bad_trials_or_confidence_is_a_config_error(argv, layout_dir, capsys):
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (layout_dir / "out.json").exists()


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
def test_estimate_fairness_refuses_confidence_before_drawing_a_report(confidence):
    def reports():
        raise AssertionError("a report was drawn")
        yield

    with pytest.raises(ParamError):
        estimate_fairness(reports(), delta=1.0, z=0.3, q=5, confidence=confidence)


# --- committee_targeter outside a plain transformation --------------------------------


@pytest.mark.parametrize("argv,out,err", [
    # every targeted committee loses its crusader liveness at this desk scale, so nobody outputs
    (["leader", "--layout", "layout.json", *FLAGS, "--strategy", "committee_targeter:0", "--t", "2"],
     "leader: no honest output\n", ""),
    (["run-crusader", "--s", "4", "--t", "1", "--strategy", "committee_targeter:0"],
     "", "failure: committee_targeter needs a protocol with a committee layout\n"),
], ids=["leader", "run-crusader"])
def test_committee_targeter_outside_a_transform_is_a_property_failure(argv, out, err, layout_dir, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == (out, err)
