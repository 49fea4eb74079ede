import hashlib
import json

import pytest

from coinforge.cli import main
from coinforge.config import ExperimentConfig, parse_strategy_spec
from coinforge.params import ParamError
from coinforge.strategies import CombinedStrategy, PublishDelayerStrategy, build_strategy, built_in_strategies


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


def test_graph_degree_other_than_delta_cap_is_a_config_error(tmp_path, capsys):
    # the desk point derives delta_cap = 3, the degree the graphs are drawn with
    layout = _gen_layout(tmp_path)
    capsys.readouterr()
    rc = run_cli("run-coin", "--layout", layout, *_COIN_FLAGS, "--override-delta-cap", "1", "--trials", "2")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: layout does not match the derived parameters")
    assert "degree delta_cap=1" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "gen-graphs"])
@pytest.mark.parametrize("change", [("--n", "16"), ("--override-q", "7", "--override-s", "3")], ids=["n", "q-s"])
def test_layout_for_other_parameters_is_a_config_error(tmp_path, capsys, command, change):
    # the desk layout has n=8, q=5, s=4; a flag that derives another instance refuses it
    layout = _gen_layout(tmp_path)
    before = open(layout).read()
    flags = dict(zip(_COIN_FLAGS[::2], _COIN_FLAGS[1::2]))
    flags.update(zip(change[::2], change[1::2]))
    capsys.readouterr()
    assert run_cli(command, "--layout", layout, *(x for kv in flags.items() for x in kv),
                   "--out", str(tmp_path / "out.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: layout does not match the derived parameters") and err.count("\n") == 1
    assert open(layout).read() == before and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag,value", [("--n", "16"), ("--override-q", "7"), ("--override-s", "3")],
                         ids=["n", "q", "s"])
def test_run_publish_refuses_a_layout_of_another_instance(tmp_path, capsys, flag, value):
    # the desk layout has n=8, q=5, s=4; the default n is 8, and overrides that agree are accepted
    layout = _gen_layout(tmp_path)
    run = ("run-publish", "--layout", layout, "--committee", "0", "--trials", "2")
    assert run_cli(*run) == 0
    assert run_cli(*run, "--override-q", "5", "--override-s", "4", "--override-c", "1") == 0
    capsys.readouterr()
    assert run_cli(*run, flag, value, "--out", str(tmp_path / "out.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: layout does not match the run's") and err.count("\n") == 1
    assert f"{flag.split('-')[-1]}={value}" in err
    assert not (tmp_path / "out.json").exists()


def test_derived_s_equal_n_layout_verifies_without_a_scan(tmp_path, capsys):
    # n=40 derives s = n = 40, q = 81 and c = 1; b = floor((1/3 - 0.05) * 40) = 11 < 40/3,
    # so no fault set overloads a committee, while a scan would need 81 * C(40, 11) checks
    layout, out = str(tmp_path / "layout-n40.json"), tmp_path / "verify.json"
    assert run_cli("gen-committees", "--n", "40", "--seed", "3", "--out", layout) == 0
    assert "s=40 verified=exhaustive" in capsys.readouterr().out
    assert run_cli("verify", "--layout", layout, "--n", "40", "--out", str(out)) == 0
    assert capsys.readouterr().out == "verify: pass\n"
    assert json.loads(out.read_text())["results"] == {"committees": {"passed": True, "witness": None, "checks": 0}}


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


def test_run_publish_output_config_replays(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _gen_layout(tmp_path)
    for inputs in (["--split"], ["--common-bit", "0"]):
        assert run_cli("run-publish", "--layout", "layout.json", "--committee", "2", *inputs,
                       "--strategy", "random_delay", "--trials", "4", "--seed", "5", "--out", "out.json") == 0
        doc = json.loads(open("out.json").read())
        assert doc["config"]["protocol"] == {"kind": "publish", "committee": 2,
                                             "inputs": "random" if inputs == ["--split"] else 0}
        open("cfg.json", "w").write(json.dumps(doc["config"]))
        assert run_cli("run-coin", "--config", "cfg.json", "--out", "replay.json") == 0
        assert json.loads(open("replay.json").read())["results"]["reports"] == doc["results"]["reports"]


def test_publish_config_without_a_layout_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"protocol": {"kind": "publish", "committee": 0, "inputs": 1}}))
    assert run_cli("run-coin", "--config", str(path), "--trials", "1") == 3
    assert "missing layout file" in capsys.readouterr().err


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


@pytest.mark.parametrize("protocol", [
    {"kind": "crusader", "s": 4},
    {"kind": "publish", "committee": 0},
    {"kind": "multivalued", "ell": 3},
], ids=["crusader", "publish", "three-bit-toss"])
def test_estimate_fairness_without_one_coin_bit_is_refused_before_any_trial(tmp_path, monkeypatch, capsys,
                                                                           protocol):
    from coinforge import analysis

    layout = _gen_layout(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"protocol": protocol}))
    drawn = []
    monkeypatch.setattr(analysis, "run_simulation", lambda *args, **kw: drawn.append(args))
    capsys.readouterr()
    assert run_cli("estimate-fairness", "--config", str(path), "--layout", layout, *_COIN_FLAGS,
                   "--trials", "5", "--out", str(tmp_path / "est.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: estimate-fairness") and err.count("\n") == 1
    assert drawn == [] and not (tmp_path / "est.json").exists()


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
    for name in ("a.json", "b.json"):
        assert run_cli("verify-lemma4", "--n-max", "24", "--out", str(tmp_path / name)) == 0
        assert "pass" in capsys.readouterr().out
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cost_report_variants(capsys):
    assert run_cli("cost-report", "--variant", "perfect", "--n", "1000000",
                   "--epsilon", "0.01", "--delta-prime", "0.9") == 0
    assert "dominant=strong_coin" in capsys.readouterr().out
    assert run_cli("cost-report", "--n", "16", "--k", "2", "--z", "0.3",
                   "--epsilon", "0.05", "--alpha", "0.3333",
                   "--M", "[[1,2,0]]", "--L", "[[8,0,0]]") == 0
    assert "coin_msgs=8448" in capsys.readouterr().out


VARIANT = ["cost-report", "--variant", "perfect", "--n", "1000000", "--epsilon", "0.01"]


@pytest.mark.parametrize("argv,message", [
    (["verify-lemma4", "--n-max", "0"], "n_max must be at least 1"),
    (["cost-report", "--n", "8", "--M", "[[1,2]]"], "--M must be"),
    (["cost-report", "--n", "8", "--M", '{"a": 1}'], "--M must be"),
    (["cost-report", "--n", "8", "--L", "[[8,0,-1]]"], "--L must be"),
    (["cost-report", "--variant", "perfect", "--n", "1000000", "--epsilon", "0.01", "--M", "[[1,9,0]]"],
     "takes no --M or --L"),
    (["cost-report", "--variant", "crypto", "--n", "1000000", "--epsilon", "0.01", "--L", "[[8,0,0]]"],
     "takes no --M or --L"),
    # a variant reads only n, epsilon, delta' and (crypto) kappa; a report without one reads neither of the last two
    ([*VARIANT, "--k", "3"], "takes no --k"),
    ([*VARIANT, "--alpha", "0.25", "--z", "0.1"], "takes no --z, --alpha"),
    ([*VARIANT, "--R", "7"], "takes no --R"),
    ([*VARIANT, "--override-q", "9"], "takes no --override-q"),
    ([*VARIANT, "--kappa", "7"], "takes no --kappa"),
    (["cost-report", "--n", "1000000", "--epsilon", "0.01", "--delta-prime", "0.5", "--kappa", "7"],
     "a report without --variant takes no --delta-prime, --kappa"),
], ids=["lemma4-n-max-0", "cost-term-of-two", "cost-terms-a-mapping", "cost-negative-logpow",
        "cost-variant-with-M", "cost-variant-with-L", "cost-variant-with-k", "cost-variant-with-alpha-z",
        "cost-variant-with-R", "cost-variant-with-override", "cost-perfect-with-kappa",
        "cost-delta-prime-kappa-without-variant"])
def test_bad_lemma4_and_cost_arguments_are_a_config_error(capsys, argv, message):
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and err.count("\n") == 1


def test_cost_report_bytes_at_the_readme_point(tmp_path, monkeypatch, capsys):
    """The README's cost-report, written to --out: the exact tag-bit rule changed no byte."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(*VARIANT, "--delta-prime", "0.9", "--seed", "0", "--out", "cost.json") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "00ee9fb445313ca8c64542275745e6cc2b013893861d16c79c172d530f302f81")
    assert hashlib.sha256((tmp_path / "cost.json").read_bytes()).hexdigest() == (
        "820880d521de4d50f2c307ac082dae1e4ed933275824b391a020e4dba5817e99")


def test_cost_report_variant_refuses_config_values_it_does_not_read(tmp_path, capsys):
    dropped = tmp_path / "dropped.json"
    dropped.write_text(json.dumps({"k": 3.0, "alpha": 0.2, "R": 7}))
    assert run_cli(*VARIANT, "--config", str(dropped)) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "does not read k, alpha, R," in err
    dropped.write_text(json.dumps({"t": 1, "overrides": {"q": 9}}))
    assert run_cli(*VARIANT, "--config", str(dropped)) == 3
    assert "does not read t, overrides.q," in capsys.readouterr().err
    # a CLI-written config holds every unread value at its default, so it loads
    out = tmp_path / "cost.json"
    assert run_cli(*VARIANT, "--out", str(out)) == 0
    printed = capsys.readouterr().out
    written = tmp_path / "written.json"
    written.write_text(json.dumps(json.loads(out.read_text())["config"]))
    assert run_cli("cost-report", "--variant", "perfect", "--config", str(written)) == 0
    assert capsys.readouterr().out == printed


def test_leader_command(tmp_path, capsys):
    layout = _gen_layout(tmp_path)
    rc = run_cli("leader", "--layout", layout, "--ell", "3", "--n", "8",
                 "--override-q", "5", "--override-s", "4", "--override-c", "4",
                 "--override-d", "1", "--z", "0.3", "--epsilon", "0.0833",
                 "--alpha", "0.3333", "--seed", "6")
    assert rc == 0
    assert "-> party" in capsys.readouterr().out


def test_leader_with_no_tosses_is_a_config_error(tmp_path, capsys):
    layout = _gen_layout(tmp_path)
    capsys.readouterr()
    assert run_cli("leader", "--layout", layout, *_COIN_FLAGS, "--ell", "0") == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "ell must be at least 1" in err


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


def test_bad_strategy_arguments_are_a_config_error(tmp_path, capsys):
    # spec strings with unparsable or surplus arguments, and malformed blocks in a config document
    specs = ["random_delay:fast", "random_delay:0.5,x", "publish_delayer:1.0,0.25", "fifo:1", "benor_biaser:1"]
    blocks = [{}, {"name": 5}, {"name": "random_delay", "args": 5}, {"name": "random_delay", "args": [0.5]},
              {"name": "combined"}, {"name": "combined", "parts": {}}, {"name": "combined", "parts": [5]}]
    path = tmp_path / "cfg.json"
    for strategy in specs + blocks:
        if isinstance(strategy, str):
            argv = ["--strategy", strategy]
        else:
            path.write_text(json.dumps({"strategy": strategy}))
            argv = ["--config", str(path)]
        capsys.readouterr()
        assert run_cli("run-crusader", "--s", "4", "--trials", "1", *argv) == 3, strategy
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, (strategy, err)


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


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.__setitem__("committees", 5), "malformed"),
    (lambda d: d.__setitem__("n", "8"), "integers"),
    (lambda d: d["graphs"][0].__setitem__("adjacency", 7), "malformed"),
], ids=["committees-int", "n-string", "adjacency-int"])
def test_layout_of_the_wrong_json_types_is_a_config_error(tmp_path, capsys, edit, message):
    path = _gen_layout(tmp_path)
    doc = json.loads(open(path).read())
    edit(doc)
    open(path, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--layout", path, *_COIN_FLAGS) == 3
    assert message in capsys.readouterr().err


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
    with pytest.raises(ParamError, match="JSON object"):
        ExperimentConfig.from_dict([["n", 8]])


@pytest.mark.parametrize("command,doc,argv,key", [
    ("derive", {"overrides": 5}, [], "overrides"),
    ("run-crusader", {"trials": "3"}, ["--s", "4"], "trials"),
    ("derive", {"overrides": {"q": "x"}}, [], "q"),
    ("derive", {"overrides": {"q": None}}, [], "q"),
    ("derive", {"overrides": {"q": 5.9}}, [], "q"),
    ("derive", {"overrides": {"q": True}}, [], "q"),
    ("derive", {"overrides": {"delta_cap": "3"}}, [], "delta_cap"),
], ids=["overrides-int", "trials-string", "override-string", "override-null", "override-float", "override-bool",
        "override-delta_cap-string"])
def test_config_values_of_the_wrong_json_types_are_a_config_error(tmp_path, capsys, command, doc, argv, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(command, "--config", str(path), *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert repr(key) in err


@pytest.mark.parametrize("key,value", [
    ("n", 8.0), ("seed", True), ("alpha", "1/3"), ("R", None), ("protocol", []),
    ("mode", 1), ("layout_path", 3), ("out", False), ("record_log", 1),
])
def test_config_keys_take_their_json_types(key, value):
    with pytest.raises(ParamError, match=f"config key '{key}' must be"):
        ExperimentConfig.from_dict({key: value})

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
        calls.append(kw.get("log") is not None)
        return inner(*args, **kw)

    monkeypatch.setattr(analysis, "run_simulation", spy)
    logs = {}
    for name, extra in (("with_key", ("--config", str(cfg_path))), ("without_key", ())):
        log = tmp_path / f"{name}.ndjson"
        assert run_cli("run-coin", "--layout", layout, *_COIN_FLAGS, *extra, "--strategy", "random_delay",
                       "--trials", "3", "--seed", "9", "--out", str(tmp_path / f"{name}.json"),
                       "--log", str(log)) == 0
        logs[name] = log.read_text()
    assert calls == [True, False, False] * 2
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


# --- publish graphs belong to committees by committee_id ----------------------------


def _results_and_stdout(capsys, *argv):
    """(exit code, stdout, the results block of --out) of one command writing out.json."""
    capsys.readouterr()
    rc = run_cli(*argv)
    out = capsys.readouterr().out
    return rc, out, json.loads(open("out.json").read())["results"]


@pytest.mark.parametrize("order", ["reversed", "rotated"])
def test_graphs_listed_out_of_order_are_matched_by_committee_id(tmp_path, monkeypatch, capsys, order):
    monkeypatch.chdir(tmp_path)
    layout = _gen_layout(tmp_path)
    doc = json.loads(open(layout).read())
    doc["graphs"] = doc["graphs"][::-1] if order == "reversed" else doc["graphs"][2:] + doc["graphs"][:2]
    (tmp_path / "moved.json").write_text(json.dumps(doc))
    for argv in (["verify", *_COIN_FLAGS],
                 ["run-coin", *_COIN_FLAGS, "--strategy", "random_delay", "--trials", "3"],
                 ["estimate-fairness", *_COIN_FLAGS, "--strategy", "random_delay", "--trials", "3"],
                 ["run-publish", "--committee", "1", "--split", "--trials", "3"]):
        want = _results_and_stdout(capsys, *argv, "--layout", layout, "--out", "out.json")
        assert _results_and_stdout(capsys, *argv, "--layout", "moved.json", "--out", "out.json") == want


@pytest.mark.parametrize("committee,drop", [("99", None), ("-1", None), ("5", None), ("2", 2)],
                         ids=["99", "negative", "q", "no-graph"])
def test_run_publish_committee_without_a_graph_is_a_config_error(tmp_path, capsys, committee, drop):
    path = _gen_layout(tmp_path)
    if drop is not None:
        doc = json.loads(open(path).read())
        doc["graphs"] = [g for g in doc["graphs"] if g["committee_id"] != drop]
        open(path, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("run-publish", "--layout", path, "--committee", committee, "--trials", "1") == 3
    assert "no publish graph" in capsys.readouterr().err


@pytest.mark.parametrize("targets", ["99", "-1", "5", "0,5"])
def test_committee_targeter_ids_outside_the_layout_are_a_config_error(tmp_path, capsys, targets):
    layout = _gen_layout(tmp_path)
    capsys.readouterr()
    assert run_cli("run-coin", "--layout", layout, *_COIN_FLAGS, "--t", "2", "--trials", "1",
                   "--strategy", f"committee_targeter:{targets}") == 3
    assert "must lie in [0, 5)" in capsys.readouterr().err


# --- verification modes: exhaustive or none, and a budget refusal says why ----------

_N40_FLAGS = ("--n", "40", "--override-q", "9", "--override-s", "20", "--override-c", "3",
              "--alpha", "0.3333", "--epsilon", "0.125", "--seed", "1")


def test_budget_refusal_names_the_checks_and_the_budget(tmp_path, capsys):
    # b = floor((0.3333 - 0.125) * 40) = 8, so a full scan needs C(40, 8) * 9 = 692142165 checks
    layout = str(tmp_path / "layout.json")
    assert run_cli("gen-committees", *_N40_FLAGS, "--verify", "none", "--out", layout) == 0
    for argv in (["gen-committees", *_N40_FLAGS, "--out", str(tmp_path / "x.json")],
                 ["verify", *_N40_FLAGS, "--layout", layout]):
        capsys.readouterr()
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "692142165" in err and "10000000" in err
        assert "--verify" not in err  # `verify` has no such flag, so neither command suggests one
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["gen-committees", "--verify", "sampled"],
    ["gen-graphs", "--layout", "layout.json", "--verify", "sampled"],
    ["verify", "--layout", "layout.json", "--mode", "sampled"],
    ["verify", "--layout", "layout.json", "--mode", "exhaustive"],
], ids=["gen-committees", "gen-graphs", "verify-sampled", "verify-exhaustive"])
def test_sampled_verification_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2 and "usage:" in capsys.readouterr().err


def test_verify_output_config_replays_as_a_run(tmp_path):
    layout = _gen_layout(tmp_path)
    out = tmp_path / "verify.json"
    assert run_cli("verify", "--layout", layout, *_COIN_FLAGS, "--out", str(out)) == 0
    config = json.loads(out.read_text())["config"]
    assert config["mode"] == "secure" and config["layout_path"] == layout
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("run-coin", "--config", str(cfg_path), "--trials", "2",
                   "--out", str(tmp_path / "runs.json")) == 0


# --- protocol-block values take their JSON types --------------------------------------


@pytest.mark.parametrize("protocol,key", [
    ({"kind": "multivalued", "ell": "x"}, "ell"),
    ({"kind": "multivalued", "ell": 2.7}, "ell"),
    ({"kind": "transform", "ell": True}, "ell"),
    ({"kind": "crusader", "s": 4, "t_local": "1"}, "t_local"),
    ({"kind": "crusader", "s": "4"}, "s"),
    ({"kind": "crusader", "s": 4, "inputs": "01x1"}, "inputs"),
    ({"kind": "crusader", "s": 4, "inputs": [0, 1, 2, 1]}, "inputs"),
    ({"kind": "crusader", "s": 4, "inputs": [0, True, 1, 1]}, "inputs"),
    ({"kind": "crusader", "s": 4, "inputs": 5}, "inputs"),
    ({"kind": "benor", "s": 4, "t_local": 1.0}, "t_local"),
    ({"kind": "crusader", "s": 4, "inputs": [0, 1]}, "inputs"),
    ({"kind": "crusader", "s": 4, "inputs": "01"}, "inputs"),
    ({"kind": "crusader", "s": 4, "inputs": "01100"}, "inputs"),
    ({"kind": "crusader", "s": -1}, "s"),
    ({"kind": "benor", "s": 0}, "s"),
    ({"kind": "benor", "s": 4, "t_local": 4}, "t_local"),
    ({"kind": "benor", "s": 4, "t_local": -3}, "t_local"),
    ({"kind": "crusader", "s": 4, "t_local": -1}, "t_local"),
    ({"kind": "crusader", "s": 4, "t_local": 9}, "t_local"),
    ({"kind": "publish", "committee": "1"}, "committee"),
    ({"kind": "publish", "inputs": "split"}, "inputs"),
    ({"kind": "publish", "inputs": True}, "inputs"),
], ids=["ell-string", "ell-float", "ell-bool", "t_local-string", "s-string", "inputs-string",
        "inputs-2", "inputs-bool", "inputs-int", "benor-t_local-float", "inputs-short-list",
        "inputs-short-string", "inputs-long-string", "s-negative", "benor-s-zero",
        "benor-t_local-s", "benor-t_local-negative", "t_local-negative", "t_local-past-s",
        "publish-committee-string", "publish-inputs-split", "publish-inputs-bool"])
def test_protocol_values_of_the_wrong_types_are_a_config_error(tmp_path, capsys, protocol, key):
    layout = _gen_layout(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"protocol": protocol}))
    capsys.readouterr()
    assert run_cli("run-coin", "--config", str(path), "--layout", layout, *_COIN_FLAGS, "--trials", "2") == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and repr(key) in err


def test_run_crusader_t_local_outside_the_committee_is_a_config_error(capsys):
    assert run_cli("run-crusader", "--s", "4", "--t-local", "4", "--trials", "1") == 3
    assert "'t_local' must lie in [0, s=4)" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", [
    {"kind": "crusader", "s": 4, "t_local": 1, "inputs": "0110"},
    {"kind": "crusader", "s": 4, "inputs": [0, 1, 1, 0]},
    {"kind": "crusader", "s": 4, "inputs": ["0", "1", "1", "0"]},
    {"kind": "crusader", "s": 4, "inputs": 1},
    {"kind": "benor", "s": 4, "t_local": 1},
    {"kind": "multivalued", "ell": 2},
    {"kind": "benor", "s": 4, "t_local": 3},
    {"kind": "crusader", "s": 4, "t_local": 0},
    {"kind": "publish", "committee": 4, "inputs": "random"},
], ids=["bit-string", "bit-list", "bit-char-list", "common-bit", "benor", "multivalued", "benor-t_local-top",
        "t_local-zero", "publish"])
def test_protocol_values_of_their_types_run(tmp_path, protocol):
    layout = _gen_layout(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"protocol": protocol}))
    out = tmp_path / "runs.json"
    assert run_cli("run-coin", "--config", str(path), "--layout", layout, *_COIN_FLAGS, "--trials", "2",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["config"]["protocol"] == protocol
