"""Experiment runner.

Subcommands: derive, gen-committees, gen-graphs, verify, run-coin,
run-crusader, run-publish, estimate-fairness, verify-lemma4, cost-report,
leader. Each writes machine-readable JSON to --out (embedding the config
digest, seed and code version) and a human summary to stdout.

Exit codes: 0 success, 2 protocol-property failure, 3 configuration error
(including a committee or publish-graph point that a counting certificate
proves infeasible).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import get_type_hints

from . import __version__, analysis, combinatorics, protocols
from ._jsonout import dumps
from .config import (
    ExperimentConfig,
    build_protocol,
    config_digest,
    load_layout_file,
    parse_strategy_spec,
)
from .combinatorics import (
    GenerationError,
    InfeasibleGraphError,
    InfeasibleLayoutError,
)
from .params import OVERRIDE_KEYS, CoinParams, ParamError, Poly, derive_params, preset_cost, transform_cost
# run_simulation is not called here (trials run in analysis.run_trials); it
# stays a module attribute because perfbench patches cli.run_simulation by name
from .simnet import StrategyViolation, dump_event_log, mix64, run_simulation  # noqa: F401
from .strategies import build_strategy

# name -> type of each CoinParams field; every field is a flag of its own
_PARAM_TYPES = get_type_hints(CoinParams)

EXIT_OK = 0
EXIT_PROPERTY = 2
EXIT_CONFIG = 3


def _write_out(path, payload):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(payload))


def _envelope(cfg_dict, seed, results):
    return {
        "version": __version__,
        "config_digest": config_digest(cfg_dict),
        "seed": seed,
        "config": cfg_dict,
        "results": results,
    }


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config document; flags override its values")
    for name, kind in _PARAM_TYPES.items():
        p.add_argument(f"--{name}", type=kind)
    for key in OVERRIDE_KEYS:
        p.add_argument(f"--override-{key.replace('_', '-')}", type=int, dest=f"override_{key}")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def _add_trial_flags(p: argparse.ArgumentParser, trials: bool = True):
    p.add_argument("--strategy", default=None)
    if trials:
        p.add_argument("--trials", type=int)
    p.add_argument("--mode", choices=["secure", "full_info"])


def _config_from_args(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_file(args.config)
    else:
        cfg = ExperimentConfig()
    for key in (*_PARAM_TYPES, "seed", "out", "trials", "confidence", "mode"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    for key in OVERRIDE_KEYS:
        val = getattr(args, f"override_{key}", None)
        if val is not None:
            cfg.overrides[key] = val
    if getattr(args, "layout", None):
        cfg.layout_path = args.layout
    if getattr(args, "strategy", None):
        cfg.strategy = parse_strategy_spec(args.strategy)
    if getattr(args, "coin", None):
        cfg.protocol["coin"] = args.coin
    return cfg


def _derived(cfg: ExperimentConfig):
    return derive_params(cfg.coin_params(), cfg.overrides or None)


def cmd_derive(args):
    cfg = _config_from_args(args)
    dp = _derived(cfg)
    print(f"q={dp.q} z'={dp.z_prime:.6g} c={dp.c} s={dp.s} d={dp.d} "
          f"delta_cap={dp.delta_cap} live={dp.live_threshold} out={dp.output_threshold}"
          + (f" overridden={list(dp.overridden)}" if dp.overridden else ""))
    _write_out(cfg.out, _envelope(cfg.to_dict(), cfg.seed, dp.as_dict()))
    return EXIT_OK


def cmd_gen_committees(args):
    cfg = _config_from_args(args)
    dp = _derived(cfg)
    layout = combinatorics.gen_committees(
        cfg.n, dp.q, dp.s, cfg.alpha, cfg.epsilon, dp.c, cfg.seed, args.verify)
    doc = combinatorics.layout_document(layout)
    _write_out(cfg.out, doc)
    print(f"layout: n={layout.n} q={layout.q} s={layout.s} verified={layout.verified} "
          f"attempts={layout.attempts}")
    return EXIT_OK


def cmd_gen_graphs(args):
    cfg = _config_from_args(args)
    layout, _ = load_layout_file(args.layout)
    dp = _derived(cfg)
    protocols.check_layout_matches(cfg.n, dp, layout)
    graphs = []
    for j, committee in enumerate(layout.committees):
        graphs.append(combinatorics.gen_publish_graph(
            committee, layout.n, dp.d, dp.delta_cap, mix64(cfg.seed, j), args.verify,
            committee_id=j))
    doc = combinatorics.layout_document(layout, graphs)
    _write_out(cfg.out or args.layout, doc)
    print(f"graphs: q={len(graphs)} delta_cap={dp.delta_cap} d={dp.d} verified={args.verify}")
    return EXIT_OK


def cmd_verify(args):
    cfg = _config_from_args(args)
    layout, graphs = load_layout_file(args.layout)
    dp = _derived(cfg)
    protocols.check_layout_matches(cfg.n, dp, layout, graphs)
    res = combinatorics.verify_committees(layout.committees, layout.n, cfg.alpha, cfg.epsilon, dp.c)
    results = {"committees": {"passed": res.passed, "witness": res.witness, "checks": res.checks}}
    ok = res.passed
    for g in graphs:
        gres = combinatorics.verify_publish_graph(g, layout.committees[g.committee_id], dp.d)
        results[f"graph_{g.committee_id}"] = {"passed": gres.passed, "witness": gres.witness}
        ok = ok and gres.passed
    _write_out(cfg.out, _envelope(cfg.to_dict(), cfg.seed, results))
    print("verify:", "pass" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_PROPERTY


def _check_record_log(cfg: ExperimentConfig, log=None):
    """A config's `record_log` asks for trial 0's event log, which only run-coin --log writes."""
    if cfg.record_log and log is None:
        raise ParamError("record_log: true needs --log PATH (run-coin), the only place an event log is written")


def _trials(cfg: ExperimentConfig, protocol, trials=None, log=None):
    """The run's seeded trials (cfg.trials unless `trials` is given), each against a fresh
    cfg.strategy, run lazily by analysis.run_trials; a `log` list receives trial 0's event log."""
    _check_record_log(cfg, log)
    return analysis.run_trials(protocol, lambda: build_strategy(cfg.strategy), cfg.seed,
                               cfg.trials if trials is None else trials, mode=cfg.mode, t_budget=cfg.t, log=log)


def _finish_trials(name, cfg: ExperimentConfig, reports, failures_key="liveness_failures",
                   failed=lambda rep: not rep.all_honest_output, **counts):
    """Write a trial command's counts and reports to --out and print its summary line.

    `failed(report)` marks the trials counted under `failures_key` (by default
    those where an honest party has no output), which follows the other
    `counts` in the summary; any such trial exits 2.
    """
    failures = counts[failures_key] = sum(failed(r) for r in reports)
    results = {"trials": cfg.trials, **counts, "reports": [r.as_dict() for r in reports]}
    _write_out(cfg.out, _envelope(cfg.to_dict(), cfg.seed, results))
    print(f"{name}: trials={cfg.trials} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return EXIT_OK if failures == 0 else EXIT_PROPERTY


def cmd_run_coin(args):
    cfg = _config_from_args(args)
    proto, dp = build_protocol(cfg)
    log = [] if args.log else None
    reports = list(_trials(cfg, proto, log=log))
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(dump_event_log(log))
    return _finish_trials("run-coin", cfg, reports, agreed=sum(r.agreed for r in reports))


def cmd_run_crusader(args):
    cfg = _config_from_args(args)
    cfg.protocol = {"kind": "crusader", "s": args.s, "inputs": args.inputs}
    if args.t_local is not None:
        cfg.protocol["t_local"] = args.t_local
    proto, _ = build_protocol(cfg)

    def violated(rep):  # an honest party without output, or two distinct non-bot outputs
        return not rep.all_honest_output or len({o for o in rep.outputs if o not in (None, 2)}) > 1

    return _finish_trials("run-crusader", cfg, list(_trials(cfg, proto)), "violations", violated)


def cmd_run_publish(args):
    cfg = _config_from_args(args)
    cfg.protocol = {"kind": "publish", "committee": args.committee,
                    "inputs": "random" if args.split else args.common_bit}
    proto, _ = build_protocol(cfg)
    return _finish_trials("run-publish", cfg, list(_trials(cfg, proto)))


def cmd_estimate_fairness(args):
    cfg = _config_from_args(args)
    proto, dp = build_protocol(cfg)
    # b* is the majority of the committee coins' fair bits: a run without a coin has none,
    # and an ell-bit output is no single bit to compare with it
    kind = cfg.protocol.get("kind", "transform")
    if kind in ("crusader", "publish"):
        raise ParamError(f"estimate-fairness needs a committee coin, and a {kind} run has none to define b*")
    if getattr(proto, "ell", 1) > 1:
        raise ParamError(f"estimate-fairness compares one output bit with b*, "
                         f"so it needs ell = 1, not {proto.ell}")
    q = dp.q if dp is not None else 1
    est = analysis.estimate_fairness(_trials(cfg, proto), delta=cfg.delta, z=cfg.z, q=q,
                                     confidence=cfg.confidence, label=kind,
                                     seed=cfg.seed)
    _write_out(cfg.out, _envelope(cfg.to_dict(), cfg.seed, est.as_dict()))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(est.to_csv())
    sys.stdout.write(est.to_table())
    return EXIT_OK if est.target_met else EXIT_PROPERTY


def cmd_verify_lemma4(args):
    res = analysis.verify_anticoncentration(args.n_max)
    payload = {
        "passed": res.passed,
        "n_max": res.n_max,
        "pairs_checked": res.pairs_checked,
        "failure": res.failure,
    }  # the elapsed time goes to stdout only, so a rerun writes the same bytes
    _write_out(args.out, _envelope({"n_max": args.n_max}, 0, payload))
    print(f"verify-lemma4: {'pass' if res.passed else 'FAIL'} "
          f"({res.pairs_checked} pairs, {res.elapsed_seconds:.3f}s)")
    return EXIT_OK if res.passed else EXIT_PROPERTY


def _poly(flag, text) -> Poly:
    """The Poly of a JSON list of [coef, exp, logpow] terms: two numbers and a non-negative integer."""
    terms = json.loads(text)
    if not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 3 and all(type(x) in (int, float) for x in t[:2])
            and type(t[2]) is int and t[2] >= 0 for t in terms):
        raise ParamError(f"{flag} must be a JSON list of [coef, exp, logpow] terms, not {text}")
    return Poly(tuple(map(tuple, terms)))


def cmd_cost_report(args):
    cfg = _config_from_args(args)
    if args.variant and (args.M is not None or args.L is not None):
        raise ParamError(f"--variant {args.variant} sets its own M and L, so it takes no --M or --L")
    # a flag the report does not read is refused, not dropped (only the crypto coin's L reads kappa)
    dests = (*_PARAM_TYPES, *(f"override_{key}" for key in OVERRIDE_KEYS), "delta_prime", "kappa")
    reads = (("n", "epsilon", "delta_prime", *(("kappa",) if args.variant == "crypto" else ()))
             if args.variant else dests[:-2])
    unread = [dest for dest in dests if dest not in reads and getattr(args, dest) is not None]
    if unread:
        raise ParamError(f"{'--variant ' + args.variant if args.variant else 'a report without --variant'} takes no "
                         + ", ".join("--" + dest.replace("_", "-") for dest in unread))
    if args.variant:
        # the same rule for --config: an unread flag was refused above, so an unread value off
        # its default came from the document (a CLI-written config holds the defaults)
        default = ExperimentConfig()
        dropped = [key for key in _PARAM_TYPES if key not in ("n", "epsilon")
                   and getattr(cfg, key) != getattr(default, key)]
        dropped += [f"overrides.{key}" for key in sorted(cfg.overrides)]
        if dropped:
            raise ParamError(f"--variant {args.variant} does not read {', '.join(dropped)}, "
                             "which --config sets to values other than the defaults")
        report = preset_cost(args.variant, cfg.n, cfg.epsilon, 0.9 if args.delta_prime is None else args.delta_prime,
                             128 if args.kappa is None else args.kappa)
    else:
        M = _poly("--M", args.M) if args.M else Poly.power(2)
        L = _poly("--L", args.L) if args.L else Poly.constant(1)
        report = transform_cost(cfg.coin_params(), M, L, cfg.overrides or None)
    _write_out(cfg.out, _envelope(cfg.to_dict(), cfg.seed, report.as_dict()))
    print(f"cost: coin_msgs={report.strongcoin_messages:.6g} (size {report.strongcoin_msg_size:.6g}b) "
          f"publish_msgs={report.publish_messages:.6g} bcast={report.broadcast_messages:.6g} "
          f"total_bits={report.total_bits:.6g} latency<={report.latency_bound:.6g} "
          f"dominant={report.dominant_term()}")
    return EXIT_OK


def cmd_leader(args):
    cfg = _config_from_args(args)
    cfg.protocol = {"kind": "multivalued", "ell": args.ell, "coin": cfg.protocol.get("coin", "ideal")}
    proto, dp = build_protocol(cfg)
    (rep,) = _trials(cfg, proto, trials=1)
    if all(o is None for o in rep.outputs):
        print("leader: no honest output")  # a liveness failure, not a disagreement
        return EXIT_PROPERTY
    if not rep.agreed:
        print("leader: parties did not agree")
        return EXIT_PROPERTY
    value = rep.output_bit
    leader = protocols.elect_leader(value, cfg.n)
    results = {"value": value, "leader": leader, "ell": args.ell}
    _write_out(cfg.out, _envelope(cfg.to_dict(), cfg.seed, results))
    print(f"leader: value={value} -> party {leader}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="coinforge", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive protocol parameters")
    _add_param_flags(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("gen-committees", help="generate a committee layout")
    _add_param_flags(p)
    p.add_argument("--verify", choices=combinatorics.VERIFY_MODES, default="exhaustive")
    p.set_defaults(func=cmd_gen_committees)

    p = sub.add_parser("gen-graphs", help="generate publish graphs for a layout")
    _add_param_flags(p)
    p.add_argument("--layout", required=True)
    p.add_argument("--verify", choices=combinatorics.VERIFY_MODES, default="exhaustive")
    p.set_defaults(func=cmd_gen_graphs)

    p = sub.add_parser("verify", help="re-verify a layout document")
    _add_param_flags(p)
    p.add_argument("--layout", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run-coin", help="run transformed-coin trials")
    _add_param_flags(p)
    p.add_argument("--layout", required=False)
    _add_trial_flags(p)
    p.add_argument("--coin", choices=["ideal", "benor"])
    p.add_argument("--log", help="write an event log (NDJSON) for trial 0")
    p.set_defaults(func=cmd_run_coin)

    p = sub.add_parser("run-crusader", help="run standalone crusader trials")
    _add_param_flags(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t-local", type=int, dest="t_local")
    p.add_argument("--inputs", default="random")
    _add_trial_flags(p)
    p.set_defaults(func=cmd_run_crusader)

    p = sub.add_parser("run-publish", help="run standalone publish trials")
    _add_param_flags(p)
    p.add_argument("--layout", required=True)
    p.add_argument("--committee", type=int, default=0)
    p.add_argument("--common-bit", type=int, choices=[0, 1], default=1, dest="common_bit")
    p.add_argument("--split", action="store_true", help="random per-member inputs")
    _add_trial_flags(p)
    p.set_defaults(func=cmd_run_publish)

    p = sub.add_parser("estimate-fairness", help="statistical fairness estimate")
    _add_param_flags(p)
    p.add_argument("--layout")
    _add_trial_flags(p)
    p.add_argument("--confidence", type=float)
    p.add_argument("--coin", choices=["ideal", "benor"])
    p.add_argument("--csv", help="per-trial CSV output path")
    p.set_defaults(func=cmd_estimate_fairness)

    p = sub.add_parser("verify-lemma4", help="exact anti-concentration check")
    p.add_argument("--n-max", type=int, default=64, dest="n_max")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_lemma4)

    p = sub.add_parser("cost-report", help="closed-form cost bounds")
    _add_param_flags(p)
    p.add_argument("--variant", choices=["perfect", "crypto"])
    p.add_argument("--delta-prime", type=float, dest="delta_prime")
    p.add_argument("--kappa", type=int)
    p.add_argument("--M", help="JSON [[coef, exp, logpow], ...]")
    p.add_argument("--L", help="JSON [[coef, exp, logpow], ...]")
    p.set_defaults(func=cmd_cost_report)

    p = sub.add_parser("leader", help="multi-bit toss and leader election")
    _add_param_flags(p)
    p.add_argument("--layout", required=False)
    p.add_argument("--ell", type=int, default=4)
    _add_trial_flags(p, trials=False)
    p.set_defaults(func=cmd_leader)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParamError, InfeasibleLayoutError, InfeasibleGraphError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GenerationError, StrategyViolation) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
