"""In-memory spans around coinforge's public calls, installed from outside.

Nothing inside the package is edited: the tracer replaces module attributes
and class methods where the package looks them up, and restores them on
exit. Each wrapped call opens a span on a stack; when it closes, its duration
is charged to its parent as child time, so every name gets a self time
(duration minus the time its child spans cover).

Coarse calls (CLI commands, verification scans, trials) are kept as span
records and written out at the end. Per-event calls (party handlers,
strategy polls, kernel batches) only feed the per-name aggregates, so a
traced run of thousands of trials keeps a bounded number of records.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    """Span stack, per-name aggregates and extra counters for one traced phase."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, root_id, name, start, end)
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.times = defaultdict(float)
        self._stack = []  # [span_id, name, child_time]
        self._next_id = 0
        self._root = None

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def call(self, name, fn, args=(), kwargs=None, record=True):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._root = span_id
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        t0 = perf()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf()
            self._stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
            if record:
                self.spans.append((span_id, parent[0] if parent else None, self._root, name, t0, t1))

    def wrap(self, name, fn, record=True, after=None):
        """A wrapper of fn that opens a span per call; after(result, args, dur) sees each result."""

        def wrapper(*args, **kwargs):
            t0 = perf()
            result = self.call(name, fn, args, kwargs, record)
            if after is not None:
                after(result, args, perf() - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, root, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "trace": root, "name": name,
                                     "start": t0, "end": t1}) + "\n")


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)
        return False


class GcClock:
    """Collector pauses, timed through gc.callbacks while installed."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = None

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = perf()
        elif self._t0 is not None:
            self.seconds += perf() - self._t0
            self.collections += 1
            self._t0 = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


def install(tracer: Tracer, patches: Patches):
    """Wrap the public calls of every layer the workloads reach."""
    from coinforge import analysis, cli, combinatorics, config, protocols, simnet

    t = tracer

    # combinatorics and the counting kernel, patched in the namespace that calls them
    def after_verify(kind, generator):
        def after(res, args, dur):
            t.counts[f"{kind}.checks"] += res.checks
            if t.parent_name() == generator:  # a draw of the Las-Vegas loop
                t.counts[f"{kind}.draws"] += 1
            if not res.passed:
                t.times[f"{kind}.reject_s"] += dur
        return after

    def after_kernel(res, args, dur):
        member, b_sets = args[0], args[1]
        t.counts["kernel.checks"] += len(b_sets) * len(member)

    for name in ("gen_committees", "gen_publish_graph"):
        patches.set(combinatorics, name, t.wrap(f"combinatorics.{name}", getattr(combinatorics, name)))
    patches.set(combinatorics, "verify_committees",
                t.wrap("combinatorics.verify_committees", combinatorics.verify_committees,
                       after=after_verify("committees", "combinatorics.gen_committees")))
    patches.set(combinatorics, "verify_publish_graph",
                t.wrap("combinatorics.verify_publish_graph", combinatorics.verify_publish_graph,
                       after=after_verify("graph", "combinatorics.gen_publish_graph")))
    patches.set(combinatorics, "sample_without_replacement",
                t.wrap("combinatorics.sample_without_replacement",
                       combinatorics.sample_without_replacement, record=False))
    patches.set(combinatorics, "rows_meeting_threshold",
                t.wrap("kernels.rows_meeting_threshold", combinatorics.rows_meeting_threshold,
                       record=False, after=after_kernel))
    patches.set(combinatorics, "membership_matrix",
                t.wrap("kernels.membership_matrix", combinatorics.membership_matrix, record=False))

    # cli / config / params, where cli and config look them up
    for mod in (cli, config):
        patches.set(mod, "load_layout_file", t.wrap("config.load_layout_file", mod.load_layout_file))
        patches.set(mod, "derive_params", t.wrap("params.derive_params", mod.derive_params, record=False))
    patches.set(cli, "build_strategy", t.wrap("config.build_strategy", cli.build_strategy, record=False))

    # analysis and the trial entry points
    patches.set(analysis, "estimate_fairness", t.wrap("analysis.estimate_fairness", analysis.estimate_fairness))
    patches.set(analysis, "run_simulation", t.wrap("simnet.run_simulation", analysis.run_simulation))
    patches.set(cli, "run_simulation", t.wrap("simnet.run_simulation", cli.run_simulation))

    # Simulation methods at class level; the strategy's hooks per instance
    sim_cls = simnet.Simulation
    orig_init, orig_run, orig_report = sim_cls.__init__, sim_cls.run, sim_cls._report

    def after_poll(act, args, dur):
        if act is not None:
            t.counts["strategies.actions"] += 1

    def init(self, *args, **kwargs):
        t.call("simnet.Simulation.__init__", orig_init, (self,) + args, kwargs)
        strat = self.strategy
        strat.next_action = t.wrap("strategies.next_action", strat.next_action, record=False,
                                   after=after_poll)
        strat.delay_for = t.wrap("strategies.delay_for", strat.delay_for, record=False)

    def run(self, *args, **kwargs):
        rep = t.call("simnet.Simulation.run", orig_run, (self,) + args, kwargs)
        delivered = sum(1 for env in self.envelopes if env.delivered_at is not None)
        delivered += sum(len(ci.output_times) for ci in self.coin_instances)
        t.counts["simnet.trials"] += 1
        t.counts["simnet.events"] += self.events
        t.counts["simnet.stale_pops"] += self.events - delivered
        t.counts["simnet.envelopes"] += len(self.envelopes)
        for kind, count in rep.msg_count_by_kind.items():
            t.counts[f"msgs.{kind}"] += count
        for kind, count in rep.byz_msg_count_by_kind.items():
            t.counts[f"msgs.{kind}"] += count
        return rep

    def report(self):
        return t.call("simnet.Simulation._report", orig_report, (self,))

    # party handlers at class level; a multi-bit party's calls into its
    # per-bit sub-parties stay inside the outer handler span
    def handler(fn):
        def wrapper(self, *args):
            if t.parent_name() == "protocols.handler":
                return fn(self, *args)
            return t.call("protocols.handler", fn, (self,) + args, record=False)
        return wrapper

    for cls in (protocols.TransformParty, protocols.MultiParty):
        for hook in ("on_start", "on_message", "on_coin"):
            patches.set(cls, hook, handler(getattr(cls, hook)))

    patches.set(sim_cls, "__init__", init)
    patches.set(sim_cls, "run", run)
    patches.set(sim_cls, "_report", report)
