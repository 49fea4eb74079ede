import json

import pytest

from coinforge.cli import main
from coinforge.config import ExperimentConfig, parse_strategy_spec, build_strategy
from coinforge.params import ParamError
from coinforge.strategies import CombinedStrategy, PublishDelayerStrategy, built_in_strategies


def run_cli(*argv):
    return main(list(argv))


def _gen_layout(tmp_path, name="layout.json"):
    path = str(tmp_path / name)
    rc = run_cli("gen-committees", "--n", "8", "--override-q", "5", "--override-s", "4",
                 "--override-c", "4", "--override-d", "1", "--z", "0.3",
                 "--epsilon", "0.0833", "--alpha", "0.3333", "--seed", "11", "--out", path)
    assert rc == 0
    rc = run_cli("gen-graphs", "--layout", path, "--n", "8", "--override-q", "5",
                 "--override-s", "4", "--override-c", "4", "--override-d", "1",
                 "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333", "--seed", "12")
    assert rc == 0
    return path


def test_derive_prints_and_writes(tmp_path, capsys):
    out = str(tmp_path / "derive.json")
    rc = run_cli("derive", "--n", "16", "--k", "2", "--z", "0.3",
                 "--epsilon", "0.05", "--alpha", "0.3333", "--out", out)
    assert rc == 0
    assert "q=33" in capsys.readouterr().out
    doc = json.loads(open(out).read())
    assert doc["results"]["q"] == 33
    assert "config_digest" in doc and "seed" in doc and "version" in doc


def test_derive_rejects_bad_params():
    assert run_cli("derive", "--n", "10", "--epsilon", "0.4", "--alpha", "0.3333") == 3


def test_missing_config_file_is_a_config_error():
    assert run_cli("run-coin", "--config", "missing.json") == 3


def test_unknown_strategy_is_a_config_error(tmp_path):
    layout = _gen_layout(tmp_path)
    rc = run_cli("run-coin", "--layout", layout, "--n", "8", "--override-q", "5",
                 "--override-s", "4", "--override-c", "4", "--override-d", "1",
                 "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333",
                 "--strategy", "mystery", "--trials", "2")
    assert rc == 3


def test_missing_layout_is_a_config_error():
    rc = run_cli("run-coin", "--n", "8", "--trials", "1")
    assert rc == 3


def test_infeasible_verification_budget_is_a_config_error(tmp_path):
    rc = run_cli("gen-committees", "--n", "64", "--override-q", "9", "--override-s", "16",
                 "--override-c", "3", "--override-d", "1", "--z", "0.3",
                 "--epsilon", "0.0833", "--alpha", "0.3333", "--seed", "1",
                 "--out", str(tmp_path / "x.json"))
    assert rc == 3


def test_infeasible_committee_point_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = run_cli("gen-committees", "--n", "14", "--override-q", "9", "--override-s", "6",
                 "--override-c", "3", "--alpha", "0.3333", "--epsilon", "0.0833",
                 "--out", str(out))
    assert rc == 3
    err = capsys.readouterr().err
    assert "config error" in err and "1260 > (c-1)*C(14,3) = 728" in err
    assert not out.exists()


def test_infeasible_publish_graph_point_is_a_config_error(tmp_path, capsys):
    layout = tmp_path / "layout.json"
    flags = ["--n", "16", "--override-q", "1", "--override-s", "9", "--override-c", "1",
             "--override-d", "2", "--override-delta-cap", "4", "--z", "0.3",
             "--alpha", "0.3333", "--epsilon", "0.0833", "--seed", "3"]
    assert run_cli("gen-committees", *flags, "--verify", "none", "--out", str(layout)) == 0
    before = layout.read_text()
    rc = run_cli("gen-graphs", *flags, "--layout", str(layout))
    assert rc == 3
    err = capsys.readouterr().err
    assert "config error" in err and "96 > (d-1)*C(9,2) = 36" in err
    assert layout.read_text() == before


def test_run_coin_and_event_log(tmp_path, capsys):
    layout = _gen_layout(tmp_path)
    out = str(tmp_path / "runs.json")
    log = str(tmp_path / "trial0.ndjson")
    rc = run_cli("run-coin", "--layout", layout, "--n", "8", "--override-q", "5",
                 "--override-s", "4", "--override-c", "4", "--override-d", "1",
                 "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333",
                 "--trials", "3", "--seed", "9", "--out", out, "--log", log)
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["results"]["agreed"] == 3
    lines = open(log).read().splitlines()
    assert lines and all(json.loads(ln)["kind"] in
                         ("send", "deliver", "drop", "corrupt", "coin", "output")
                         for ln in lines)


def test_run_crusader_command(tmp_path):
    rc = run_cli("run-crusader", "--s", "4", "--inputs", "random", "--trials", "20",
                 "--strategy", "random_delay", "--seed", "3",
                 "--out", str(tmp_path / "c.json"))
    assert rc == 0


def test_run_publish_command(tmp_path):
    layout = _gen_layout(tmp_path)
    rc = run_cli("run-publish", "--layout", layout, "--committee", "0",
                 "--common-bit", "1", "--trials", "10", "--seed", "5",
                 "--out", str(tmp_path / "p.json"))
    assert rc == 0


def test_estimate_fairness_command(tmp_path, capsys):
    layout = _gen_layout(tmp_path)
    csv_path = str(tmp_path / "trials.csv")
    rc = run_cli("estimate-fairness", "--layout", layout, "--n", "8", "--override-q", "5",
                 "--override-s", "4", "--override-c", "4", "--override-d", "1",
                 "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333",
                 "--trials", "30", "--seed", "2", "--csv", csv_path,
                 "--out", str(tmp_path / "est.json"))
    assert rc == 0
    assert "wilson" in capsys.readouterr().out
    assert open(csv_path).read().startswith("trial,seed,agreed")


def test_verify_command_pass_and_fail(tmp_path):
    layout = _gen_layout(tmp_path)
    rc = run_cli("verify", "--layout", layout, "--n", "8", "--override-q", "5",
                 "--override-s", "4", "--override-c", "4", "--override-d", "1",
                 "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333")
    assert rc == 0
    # tighten c until the layout cannot satisfy the cap: property failure
    rc = run_cli("verify", "--layout", layout, "--n", "8", "--override-q", "5",
                 "--override-s", "4", "--override-c", "1", "--override-d", "1",
                 "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333")
    assert rc == 2


def test_verify_lemma4_command(tmp_path, capsys):
    rc = run_cli("verify-lemma4", "--n-max", "24", "--out", str(tmp_path / "l4.json"))
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_cost_report_variants(capsys):
    assert run_cli("cost-report", "--variant", "perfect", "--n", "1000000",
                   "--epsilon", "0.01", "--delta-prime", "0.9") == 0
    assert "dominant=strong_coin" in capsys.readouterr().out
    assert run_cli("cost-report", "--n", "16", "--k", "2", "--z", "0.3",
                   "--epsilon", "0.05", "--alpha", "0.3333",
                   "--M", "[[1,2,0]]", "--L", "[[8,0,0]]") == 0
    assert "coin_msgs=8448" in capsys.readouterr().out


def test_leader_command(tmp_path, capsys):
    layout = _gen_layout(tmp_path)
    rc = run_cli("leader", "--layout", layout, "--ell", "3", "--n", "8",
                 "--override-q", "5", "--override-s", "4", "--override-c", "4",
                 "--override-d", "1", "--z", "0.3", "--epsilon", "0.0833",
                 "--alpha", "0.3333", "--seed", "6")
    assert rc == 0
    assert "-> party" in capsys.readouterr().out


def test_rerun_reproduces_output_bytes(tmp_path):
    layout = _gen_layout(tmp_path)
    out = str(tmp_path / "runs.json")
    outs = []
    for _ in range(2):
        rc = run_cli("run-coin", "--layout", layout, "--n", "8", "--override-q", "5",
                     "--override-s", "4", "--override-c", "4", "--override-d", "1",
                     "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333",
                     "--trials", "5", "--seed", "31", "--out", out)
        assert rc == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("COINFORGE_SEED", "777")
    cfg = ExperimentConfig()
    assert cfg.seed == 777


def test_strategy_spec_grammar():
    spec = parse_strategy_spec("committee_targeter:0,2+publish_delayer:1.0")
    assert spec["name"] == "combined" and len(spec["parts"]) == 2
    strat = build_strategy(spec)
    assert isinstance(strat, CombinedStrategy)
    assert isinstance(build_strategy(parse_strategy_spec("publish_delayer:0.5")),
                      PublishDelayerStrategy)
    with pytest.raises(ParamError):
        build_strategy(parse_strategy_spec("mystery"))
    with pytest.raises(ParamError):
        parse_strategy_spec("")


SPEC_ARGS = {"fifo": "", "random_delay": ":0.5", "committee_targeter": ":0,2", "publish_delayer": ":0.25",
             "benor_biaser": ""}


def test_every_registered_strategy_builds_from_a_spec_string():
    registry = built_in_strategies()
    assert set(registry) == set(SPEC_ARGS)
    for name, cls in registry.items():
        for text in (name, name + SPEC_ARGS[name]):
            strat = build_strategy(parse_strategy_spec(text))
            assert type(strat) is cls and strat.name == name
    assert build_strategy(parse_strategy_spec("random_delay:0.5")).scale == 0.5
    assert build_strategy(parse_strategy_spec("committee_targeter:0,2")).targets == [0, 2]
    assert build_strategy(parse_strategy_spec("publish_delayer:0.25")).fraction == 0.25
    combined = build_strategy(parse_strategy_spec("+".join(n + SPEC_ARGS[n] for n in sorted(registry))))
    assert [p.name for p in combined.parts] == sorted(registry)


@pytest.mark.parametrize("text", ["random_delay:fast", "random_delay:2", "committee_targeter:x",
                                  "publish_delayer:1.5", "fifo+mystery"])
def test_bad_strategy_specs_are_param_errors(text):
    with pytest.raises(ParamError):
        build_strategy(parse_strategy_spec(text))


def test_bad_strategy_arguments_are_a_config_error(tmp_path):
    rc = run_cli("run-crusader", "--s", "4", "--trials", "1", "--strategy", "random_delay:fast")
    assert rc == 3


def test_malformed_layout_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "layout.json"
    doc = json.loads(open(_gen_layout(tmp_path)).read())
    doc["graphs"][0]["adjacency"][0][-1] = 99  # not a member of committee 0
    path.write_text(json.dumps(doc))
    rc = run_cli("verify", "--layout", str(path), "--n", "8", "--override-q", "5",
                 "--override-s", "4", "--override-c", "4", "--override-d", "1",
                 "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333")
    assert rc == 3
    assert "committee 0" in capsys.readouterr().err


def test_params_only_config_document(tmp_path, capsys):
    # the parameter block uses exactly these key names
    doc = {"n": 16, "t": 0, "z": 0.3, "k": 2.0, "epsilon": 0.05, "alpha": 1 / 3,
           "delta": 1.0, "R": 1.0,
           "overrides": {"q": 5, "c": 1, "s": 4, "d": 1, "delta_cap": 3}}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    assert run_cli("derive", "--config", str(path)) == 0
    out = capsys.readouterr().out
    assert "q=5" in out and "overridden" in out


def test_flags_override_config_values(tmp_path, capsys):
    doc = {"n": 16, "k": 2.0, "z": 0.3, "epsilon": 0.05, "alpha": 1 / 3}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    assert run_cli("derive", "--config", str(path), "--n", "4") == 0
    assert "q=9" in capsys.readouterr().out  # 2*ceil(4^1)+1 from the flag value


def test_config_roundtrip_and_digest(tmp_path):
    cfg = ExperimentConfig(n=8, trials=5, seed=3)
    doc = cfg.to_dict()
    again = ExperimentConfig.from_dict(doc)
    assert again.digest() == cfg.digest()
    with pytest.raises(ParamError, match="unknown config"):
        ExperimentConfig.from_dict({"banana": 1})

# --- record_log: only trial 0, only through --log ---------------------------------

_COIN_FLAGS = ("--n", "8", "--override-q", "5", "--override-s", "4", "--override-c", "4",
               "--override-d", "1", "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333")


def test_record_log_config_records_trial_zero_only(tmp_path, monkeypatch):
    from coinforge import analysis

    layout = _gen_layout(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"record_log": True}))
    calls = []
    inner = analysis.run_simulation

    def spy(*args, **kw):
        calls.append((kw.get("record_log"), kw.get("log") is not None))
        return inner(*args, **kw)

    monkeypatch.setattr(analysis, "run_simulation", spy)
    logs = {}
    for name, extra in (("with_key", ("--config", str(cfg_path))), ("without_key", ())):
        log = tmp_path / f"{name}.ndjson"
        assert run_cli("run-coin", "--layout", layout, *_COIN_FLAGS, *extra, "--strategy", "random_delay",
                       "--trials", "3", "--seed", "9", "--out", str(tmp_path / f"{name}.json"),
                       "--log", str(log)) == 0
        logs[name] = log.read_text()
    assert calls == [(None, True), (None, False), (None, False)] * 2
    assert logs["with_key"] and logs["with_key"] == logs["without_key"]
    doc = json.loads((tmp_path / "with_key.json").read_text())
    assert doc["config"]["record_log"] is True  # the key stays in the config and its digest


@pytest.mark.parametrize("command", ["run-coin", "run-crusader", "estimate-fairness", "leader"])
def test_record_log_without_log_is_a_config_error(tmp_path, capsys, command):
    layout = _gen_layout(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"record_log": True}))
    argv = {
        "run-coin": ["--layout", layout, *_COIN_FLAGS, "--trials", "2"],
        "run-crusader": ["--s", "4", "--trials", "2"],
        "estimate-fairness": ["--layout", layout, *_COIN_FLAGS, "--trials", "2"],
        "leader": ["--layout", layout, *_COIN_FLAGS, "--ell", "2"],
    }[command]
    capsys.readouterr()
    assert run_cli(command, "--config", str(cfg_path), *argv) == 3
    assert "--log" in capsys.readouterr().err
