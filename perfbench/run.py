#!/usr/bin/env python3
"""coinforge benchmark: three workloads driven through `coinforge.cli.main`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload layout --seed 1 --seconds 30 --trace 0

Workloads (one process, one thread, CLI calls made in-process, outputs in a
scratch directory under .perfbench_out/ that is removed on exit):

  layout                gen-committees -> gen-graphs -> verify on a 32-party,
                        9-committee instance; one unit is that pipeline for one
                        layout seed. Stresses combinatorics and the kernel.
  fairness_adversarial  estimate-fairness at the criterion-8 shape (n=16, q=9)
                        under committee_targeter+publish_delayer; one unit is
                        one call of FAIRNESS_TRIALS trials on each of
                        FAIRNESS_LAYOUTS layouts. Event-heavy simnet.
  multitoss             run-coin with an 8-bit multivalued toss at n=q=s=1,
                        fifo; one unit is one call of MULTITOSS_TRIALS trials.
                        Per-trial setup, report and CLI serialisation dominate.

Every input (layout seeds, the targeted committee, trial seeds) derives from
--seed. Units run back to back until --seconds have passed. With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 the same
units run first untraced and then traced (tracing.py), the outputs of the two
passes must match byte for byte, and the last line carries the per-layer
metrics. Every unit's outputs are checked: exit codes, structural invariants,
a repeat of unit 0 (or the traced pass) for byte identity, and, at the
default and held-out seeds, the answer digests in expected.json. Spans and a
full result record (with the environment) are written to .perfbench_out/.

`--tiny` shrinks every workload for the self-check (selfcheck.py).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib.util import find_spec
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
HELDOUT_SEED = 2  # held out: check a claimed gain here too, not only at DEFAULT_SEED
SETUP_REPEATS = 5
UNTRACED_SHARE = 0.4  # of --seconds, in a --trace 1 run; the traced pass reruns those units
FAIRNESS_LAYOUTS = 8
FAIRNESS_TRIALS = 12  # per layout and unit
MULTITOSS_TRIALS = 500

perf = time.perf_counter


# --- metric tables (BENCHMARK.json lists the same names) ---------------------

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("step_ms.p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

MSG_KINDS = ("COIN", "CRUS_VAL", "CRUS_RELAY", "CRUS_AUX", "PUB", "MAJ", "OPAQUE")

PER_LAYER = [
    ("combinatorics.verify_committees.calls", "count", "lower"),
    ("combinatorics.verify_committees.s", "s", "lower"),
    ("combinatorics.verify_committees.reject_s", "s", "lower"),
    ("combinatorics.verify_committees.checks", "count", "lower"),
    ("combinatorics.verify_publish_graph.calls", "count", "lower"),
    ("combinatorics.verify_publish_graph.s", "s", "lower"),
    ("combinatorics.verify_publish_graph.checks", "count", "lower"),
    ("combinatorics.self_s", "s", "lower"),
    ("combinatorics.committee_accept_ratio", "ratio", "higher"),
    ("combinatorics.graph_accept_ratio", "ratio", "higher"),
    ("combinatorics.sample_without_replacement.s", "s", "lower"),
    ("kernels.rows_meeting_threshold.calls", "count", "lower"),
    ("kernels.rows_meeting_threshold.s", "s", "lower"),
    ("kernels.rows_meeting_threshold.checks", "count", "lower"),
    ("kernels.checks_per_s", "1/s", "higher"),
    ("kernels.membership_matrix.s", "s", "lower"),
    ("simnet.setup_s", "s", "lower"),
    ("simnet.loop_s", "s", "lower"),
    ("simnet.report_s", "s", "lower"),
    ("simnet.events", "count", "lower"),
    ("simnet.us_per_event", "us", "lower"),
    ("simnet.stale_pop_ratio", "ratio", "lower"),
    ("simnet.envelopes", "count", "lower"),
    ("strategies.next_action.calls", "count", "lower"),
    ("strategies.useful_poll_ratio", "ratio", "higher"),
    ("strategies.delay_for.calls", "count", "lower"),
    ("strategies.s", "s", "lower"),
    ("protocols.handler.calls", "count", "lower"),
    ("protocols.handler_s", "s", "lower"),
    *[(f"protocols.msgs_per_trial.{k}", "count", "lower") for k in MSG_KINDS],
    ("analysis.estimate_fairness.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("config.build_strategy.calls", "count", "lower"),
    ("config.build_strategy.s", "s", "lower"),
    ("config.load_layout_file.s", "s", "lower"),
    ("params.derive_params.calls", "count", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.units", "count", "higher"),
    ("untraced.step_ms.p99", "ms", "lower"),
]


# --- helpers -----------------------------------------------------------------


def sha256_files(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def derived_seed(*parts):
    """A seed in [1, 2^31) that depends only on the parts."""
    return random.Random(":".join(str(p) for p in parts)).randrange(1, 2**31)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class CheckFailure(Exception):
    """A unit's output broke an invariant or a digest."""


def require(cond, what):
    if not cond:
        raise CheckFailure(what)


# --- workloads ---------------------------------------------------------------
#
# A workload generates its inputs in setup(), names the CLI calls of unit i
# (argv and expected exit code), and checks a unit's output files, returning
# (byte digest, answer digest, work done). The byte digest covers whole output
# files; the answer digest covers only what the outputs assert (verdicts,
# counts, bits), so it survives format-only changes.


class Layout:
    name = "layout"
    unit = "gen-committees + gen-graphs + verify for one layout seed"
    step = "exhaustive scan"
    work = "fault-set x row checks"

    def __init__(self, seed, tiny):
        self.seed = seed
        if tiny:
            self.n, self.q, self.s, self.c, self.d, self.delta_cap = 12, 5, 6, 3, 2, 3
        else:
            self.n, self.q, self.s, self.c, self.d, self.delta_cap = 32, 9, 16, 4, 6, 9
        self.alpha, self.epsilon = 0.3333, 0.125
        self.flags = ["--n", str(self.n), "--override-q", str(self.q), "--override-s", str(self.s),
                      "--override-c", str(self.c), "--override-d", str(self.d),
                      "--override-delta-cap", str(self.delta_cap), "--alpha", str(self.alpha),
                      "--epsilon", str(self.epsilon), "--z", "0.3"]

    def setup(self, call):
        pass  # every input is an argv

    def unit_calls(self, i):
        cseed, gseed = derived_seed(self.name, self.seed, i, "committees"), derived_seed(self.name, self.seed, i, "graphs")
        return [
            (["gen-committees", *self.flags, "--seed", str(cseed), "--out", "layout.json"], 0),
            (["gen-graphs", *self.flags, "--seed", str(gseed), "--layout", "layout.json",
              "--out", "graphs.json"], 0),
            (["verify", *self.flags, "--layout", "graphs.json", "--out", "verify.json"], 0),
        ]

    def outputs(self):
        return ["layout.json", "graphs.json", "verify.json"]

    def check(self, i):
        doc = read_json("graphs.json")
        committees = doc["committees"]
        require((doc["n"], doc["q"], doc["s"]) == (self.n, self.q, self.s), "layout shape")
        require(len(committees) == self.q, "committee count")
        for cmt in committees:
            require(len(cmt) == self.s and cmt == sorted(set(cmt)) and 0 <= cmt[0] and cmt[-1] < self.n,
                    "committee is not a sorted s-subset of the parties")
        require([g["committee_id"] for g in doc["graphs"]] == list(range(self.q)), "one graph per committee")
        for g in doc["graphs"]:
            members = set(committees[g["committee_id"]])
            require(len(g["adjacency"]) == self.n, "one adjacency row per receiver")
            for row in g["adjacency"]:
                require(len(row) == self.delta_cap and row == sorted(set(row)) and set(row) <= members,
                        "adjacency row is not a sorted delta_cap-subset of its committee")
        res = read_json("verify.json")["results"]
        b = math.floor((self.alpha - self.epsilon) * self.n)
        require(res["committees"] == {"passed": True, "witness": None,
                                      "checks": math.comb(self.n, b) * self.q},
                "verify did not pass a full committee scan")
        for j in range(self.q):
            require(res[f"graph_{j}"] == {"passed": True, "witness": None}, f"graph {j} did not verify")
        answer = {"committees": committees, "adjacency": [g["adjacency"] for g in doc["graphs"]],
                  "verify": res}
        return sha256_files(*self.outputs()), sha256_json(answer), None


FAIR_FLAGS = ["--n", "16", "--override-q", "9", "--override-s", "4", "--override-c", "3",
              "--override-d", "1", "--t", "2", "--z", "1.4", "--epsilon", "0.15", "--alpha", "0.3333"]


class FairnessAdversarial:
    name = "fairness_adversarial"
    unit = f"one estimate-fairness call on each of {FAIRNESS_LAYOUTS} layouts"
    step = "trial"
    work = "trials"

    def __init__(self, seed, tiny):
        self.seed = seed
        self.trials = 5 if tiny else FAIRNESS_TRIALS
        self.strategies = []

    def setup(self, call):
        """Per layout, the first layout seed with a committee whose two lowest
        members share no other committee, so targeting it corrupts exactly one
        committee. Several layouts per run average out layout-to-layout cost."""
        self.strategies = [self._target(call, k, f"layout-{k}.json") for k in range(FAIRNESS_LAYOUTS)]

    def _target(self, call, k, path):
        for attempt in range(64):
            lseed = derived_seed(self.name, self.seed, "layout", k, attempt)
            call(["gen-committees", *FAIR_FLAGS, "--seed", str(lseed), "--out", path], 0)
            committees = read_json(path)["committees"]
            for j, cmt in enumerate(committees):
                pair = set(cmt[:2])
                if all(not pair <= set(other) for i, other in enumerate(committees) if i != j):
                    call(["gen-graphs", *FAIR_FLAGS, "--seed", str(lseed), "--layout", path], 0)
                    return f"committee_targeter:{j}+publish_delayer:1.0"
        raise CheckFailure("no layout with a single-committee target among 64 seeds")

    def unit_calls(self, i):
        return [(["estimate-fairness", *FAIR_FLAGS, "--layout", f"layout-{k}.json", "--strategy", strategy,
                  "--trials", str(self.trials), "--seed", str(derived_seed(self.name, self.seed, i, k)),
                  "--out", f"estimate-{k}.json"], 0)
                for k, strategy in enumerate(self.strategies)]

    def outputs(self):
        return [f"estimate-{k}.json" for k in range(FAIRNESS_LAYOUTS)]

    def check(self, i):
        keys = ("trials", "agreed_count", "common_uniform_count", "undefined_bstar_count", "bit_counts",
                "live_count", "target_met")
        answers = []
        for path in self.outputs():
            est = read_json(path)["results"]
            require(est["trials"] == self.trials, "trial count")
            require(est["live_count"] == self.trials, "liveness failure under the adversary")
            require(sum(est["bit_counts"]) == est["agreed_count"] <= self.trials, "bit counts vs agreed count")
            require(est["common_uniform_count"] + est["undefined_bstar_count"] <= self.trials, "rate counts")
            require(est["target_met"] is True, "fairness target missed")
            answers.append({k: est[k] for k in keys})
        return sha256_files(*self.outputs()), sha256_json(answers), self.trials * len(answers)


MULTI_FLAGS = ["--n", "1", "--override-q", "1", "--override-s", "1", "--override-c", "1",
               "--override-d", "1", "--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333"]


class Multitoss:
    name = "multitoss"
    unit = "one run-coin call"
    step = "trial"
    work = "trials"

    def __init__(self, seed, tiny):
        self.seed = seed
        self.trials = 20 if tiny else MULTITOSS_TRIALS

    def setup(self, call):
        lseed = derived_seed(self.name, self.seed, "layout")
        call(["gen-committees", *MULTI_FLAGS, "--seed", str(lseed), "--out", "layout.json"], 0)
        call(["gen-graphs", *MULTI_FLAGS, "--seed", str(lseed), "--layout", "layout.json"], 0)
        doc = {"n": 1, "z": 0.3, "epsilon": 0.0833, "alpha": 0.3333,
               "overrides": {"q": 1, "s": 1, "c": 1, "d": 1},
               "protocol": {"kind": "multivalued", "ell": 8}, "strategy": {"name": "fifo"},
               "trials": self.trials, "seed": 0, "layout_path": "layout.json", "out": "runs.json"}
        with open("multitoss.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    def unit_calls(self, i):
        return [(["run-coin", "--config", "multitoss.json", "--seed", str(derived_seed(self.name, self.seed, i))], 0)]

    def outputs(self):
        return ["runs.json"]

    def check(self, i):
        res = read_json("runs.json")["results"]
        require(res["trials"] == self.trials == len(res["reports"]), "trial count")
        require(res["agreed"] == self.trials and res["liveness_failures"] == 0, "disagreement or liveness failure")
        tosses = []
        for rep in res["reports"]:
            bit = rep["output_bit"]
            require(rep["agreed"] and isinstance(bit, int) and 0 <= bit < 256 and rep["outputs"] == [bit],
                    "toss is not one agreed 8-bit value")
            tosses.append((rep["seed"], bit))
        return sha256_files("runs.json"), sha256_json(tosses), self.trials


WORKLOADS = {w.name: w for w in (Layout, FairnessAdversarial, Multitoss)}


# --- running units -------------------------------------------------------------


class Runner:
    """Makes the CLI calls of one workload and keeps the tally of calls and failures."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # a tracing.Tracer while a traced pass runs

    def fail(self, what):
        self.failed += 1
        print(f"CHECK FAILED: {what}", file=sys.stderr)

    def call(self, argv, expected_rc):
        """One in-process CLI call; its printed summary is captured, not shown."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    rc = self.cli_main(argv)
                else:
                    rc = self.tracer.call("cli.main", self.cli_main, (argv,))
        except Exception:
            self.fail(f"{argv[0]} raised\n{traceback.format_exc()}")
            return False
        if rc != expected_rc:
            self.fail(f"{argv[0]} exited {rc}, expected {expected_rc}: {err.getvalue().strip()}")
            return False
        return True

    def unit(self, wl, i):
        """Run unit i; return (wall seconds, byte digest, answer digest, work) or None on failure."""
        calls = wl.unit_calls(i)
        t0 = perf()
        ok = all(self.call(argv, rc) for argv, rc in calls)
        wall = perf() - t0
        if not ok:
            return None
        try:
            digest, answer, work = wl.check(i)
        except (CheckFailure, OSError, KeyError, ValueError, TypeError) as exc:
            self.fail(f"{wl.name} unit {i}: {exc!r}")
            return None
        return wall, digest, answer, work


class Probes:
    """Step timings and scan checks for untraced passes: one clock pair per trial or scan."""

    def __init__(self):
        self.steps = []
        self.checks = 0

    def install(self, patches):
        from coinforge import analysis, cli, combinatorics

        def timed(fn, scan):
            def wrapper(*args, **kwargs):
                t0 = perf()
                res = fn(*args, **kwargs)
                self.steps.append(perf() - t0)
                if scan:
                    self.checks += res.checks
                return res
            return wrapper

        patches.set(cli, "run_simulation", timed(cli.run_simulation, False))
        patches.set(analysis, "run_simulation", timed(analysis.run_simulation, False))
        patches.set(combinatorics, "verify_committees", timed(combinatorics.verify_committees, True))
        patches.set(combinatorics, "verify_publish_graph", timed(combinatorics.verify_publish_graph, True))


def run_until(runner, wl, deadline):
    """Run units 0, 1, ... until the deadline has passed, at least one; return [(index, result)]."""
    done = []
    while not done or perf() < deadline:
        done.append((len(done), runner.unit(wl, len(done))))
    return done


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def ratio(num, den):
    return num / den if den else 0.0


# --- environment -------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy

    h = hashlib.sha256()
    for p in sorted((SRC / "coinforge").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": find_spec("numba") is not None,
        "git_commit": git_commit(),
        "src_sha256": h.hexdigest(),
    }


# --- metrics -----------------------------------------------------------------


def end_to_end_metrics(setup_s, results, probes):
    walls = [r[0] for _, r in results]
    # trial workloads count trials from their outputs; layout counts scan checks
    work = sum(r[3] for _, r in results) if results[0][1][3] is not None else probes.checks
    steps = probes.steps
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "work_per_s": work / sum(walls),
        "step_ms.p50": statistics.median(steps) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tr, gc_clock, units, overhead_s, untraced_steps, output_bytes):
    calls, total, self_t, counts, times = tr.calls, tr.total, tr.self_time, tr.counts, tr.times
    per = 1.0 / units
    vc, vg = "combinatorics.verify_committees", "combinatorics.verify_publish_graph"
    rmt, mm = "kernels.rows_meeting_threshold", "kernels.membership_matrix"
    init, run, rep = "simnet.Simulation.__init__", "simnet.Simulation.run", "simnet.Simulation._report"
    trials = counts["simnet.trials"]
    events = counts["simnet.events"]
    loop_s = total[run] - total[rep]
    return {
        f"{vc}.calls": calls[vc] * per,
        f"{vc}.s": total[vc] * per,
        f"{vc}.reject_s": times["committees.reject_s"] * per,
        f"{vc}.checks": counts["committees.checks"] * per,
        f"{vg}.calls": calls[vg] * per,
        f"{vg}.s": total[vg] * per,
        f"{vg}.checks": counts["graph.checks"] * per,
        "combinatorics.self_s": (total[vc] + total[vg] - total[rmt] - total[mm]) * per,
        "combinatorics.committee_accept_ratio": ratio(calls["combinatorics.gen_committees"],
                                                      counts["committees.draws"]),
        "combinatorics.graph_accept_ratio": ratio(calls["combinatorics.gen_publish_graph"],
                                                  counts["graph.draws"]),
        "combinatorics.sample_without_replacement.s": total["combinatorics.sample_without_replacement"] * per,
        f"{rmt}.calls": calls[rmt] * per,
        f"{rmt}.s": total[rmt] * per,
        f"{rmt}.checks": counts["kernel.checks"] * per,
        "kernels.checks_per_s": ratio(counts["kernel.checks"], total[rmt]),
        f"{mm}.s": total[mm] * per,
        "simnet.setup_s": total[init] * per,
        "simnet.loop_s": loop_s * per,
        "simnet.report_s": total[rep] * per,
        "simnet.events": events * per,
        "simnet.us_per_event": ratio(loop_s * 1e6, events),
        "simnet.stale_pop_ratio": ratio(counts["simnet.stale_pops"], events),
        "simnet.envelopes": counts["simnet.envelopes"] * per,
        "strategies.next_action.calls": calls["strategies.next_action"] * per,
        "strategies.useful_poll_ratio": ratio(counts["strategies.actions"], calls["strategies.next_action"]),
        "strategies.delay_for.calls": calls["strategies.delay_for"] * per,
        "strategies.s": (total["strategies.next_action"] + total["strategies.delay_for"]) * per,
        "protocols.handler.calls": calls["protocols.handler"] * per,
        "protocols.handler_s": total["protocols.handler"] * per,
        **{f"protocols.msgs_per_trial.{k}": ratio(counts[f"msgs.{k}"], trials) for k in MSG_KINDS},
        "analysis.estimate_fairness.self_s": self_t["analysis.estimate_fairness"] * per,
        "cli.self_s": self_t["cli.main"] * per,
        "cli.output_bytes": output_bytes * per,
        "config.build_strategy.calls": calls["config.build_strategy"] * per,
        "config.build_strategy.s": total["config.build_strategy"] * per,
        "config.load_layout_file.s": total["config.load_layout_file"] * per,
        "params.derive_params.calls": calls["params.derive_params"] * per,
        "runtime.gc_s": gc_clock.seconds * per,
        "runtime.gc_collections": gc_clock.collections * per,
        "trace.overhead_s": overhead_s,
        "trace.units": units,
        "untraced.step_ms.p99": percentile(untraced_steps, 99) * 1e3,
    }


# --- main ----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrunken inputs, for the self-check")
    return p.parse_args(argv)


IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import coinforge.cli; print(time.perf_counter() - t0)"
)


def fresh_import_seconds():
    """Time `import coinforge.cli` in a fresh interpreter, as a user's first call pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def run(args):
    """Run one workload in the current directory; return the result record."""
    from coinforge import cli

    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    runner = Runner(cli.main)

    def setup_call(argv, rc):
        if not runner.call(argv, rc):
            raise CheckFailure(f"set-up call {argv[0]} failed")

    # set up SETUP_REPEATS times; every repeat must yield the same input files
    setup_times, input_digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        wl.setup(setup_call)
        setup_times.append(perf() - t0)
        input_digests.add(sha256_files(*sorted(os.listdir("."))))
    if len(input_digests) != 1:
        raise CheckFailure("set-up does not reproduce its input files")
    import_times = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    probes = Probes()
    start = perf()
    share = UNTRACED_SHARE if args.trace else 1.0
    with tracing.Patches() as patches:
        probes.install(patches)
        untraced = run_until(runner, wl, start + share * args.seconds)
    ok_units = [(i, r) for i, r in untraced if r is not None]

    # answer digests of unit 0, recorded at DEFAULT_SEED and HELDOUT_SEED
    expected = read_json(HERE / "expected.json").get(wl.name, {}) if not args.tiny else {}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
              "units": len(untraced), "unit_digests": {}}

    if args.trace == 0:
        # determinism: unit 0 again must give the same bytes
        again = runner.unit(wl, 0)
        if untraced[0][1] is not None and again is not None and again[1] != untraced[0][1][1]:
            runner.fail("unit 0 output bytes differ between two runs")
        metrics = end_to_end_metrics(setup_s, ok_units, probes) if ok_units else {}
        table = END_TO_END
    else:
        tracer = tracing.Tracer()
        runner.tracer = tracer
        output_bytes = 0
        traced = []
        with tracing.Patches() as patches, tracing.GcClock() as gc_clock:
            tracing.install(tracer, patches)
            for i, _ in untraced:
                res = runner.unit(wl, i)
                traced.append((i, res))
                if res is not None:
                    output_bytes += sum(os.path.getsize(p) for p in wl.outputs())
        runner.tracer = None
        extra = []  # traced minus untraced wall time of the same unit
        for (i, a), (_, b) in zip(untraced, traced):
            if a is not None and b is not None:
                extra.append(b[0] - a[0])
                if a[1] != b[1]:
                    runner.fail(f"unit {i}: traced output bytes differ from the untraced run")
        metrics = {}
        if extra:
            metrics = per_layer_metrics(tracer, gc_clock, len(traced), statistics.median(extra),
                                        probes.steps, output_bytes)
        table = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}.jsonl"  # the last traced run's only: they run to megabytes
        tracer.write_spans(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))

    for i, r in untraced:
        if r is not None:
            record["unit_digests"][str(i)] = {"bytes": r[1], "answer": r[2]}
    if str(args.seed) in expected and untraced[0][1] is not None:
        if untraced[0][1][2] != expected[str(args.seed)]:
            runner.fail(f"unit 0 answer digest {untraced[0][1][2]} != expected {expected[str(args.seed)]}")

    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table if name in metrics}
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["correct"] = runner.failed == 0 and len(record["metrics"]) == len(table)
    return record


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "coinforge" / "__init__.py").is_file():
        print(f"perfbench: no coinforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        record = run(args)
    except CheckFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(work_dir, ignore_errors=True)
    record["environment"] = environment()
    tag = "-tiny" if args.tiny else ""
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json", "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} units={record['units']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"numba={'present' if env['numba'] else 'absent'} commit={env['git_commit']}")
    wl = WORKLOADS[args.workload]
    print(f"# unit = {wl.unit}; step = one {wl.step}; work = {wl.work}")
    for name, m in record["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':44s} {record['failed'] / max(record['attempted'], 1):.6g} "
          f"({record['failed']} failed calls or checks / {record['attempted']} CLI calls)")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
