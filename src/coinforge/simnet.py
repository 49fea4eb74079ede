"""Deterministic discrete-event simulation of an asynchronous byzantine network.

Model: n parties on reliable authenticated channels. The adversary schedules
every delivery, may adaptively corrupt up to t parties mid-run, and may drop a
corrupted sender's still-undelivered messages (strong adaptivity). Messages
from honest senders have a hard delivery deadline of 1 virtual time unit, which
realizes eventual delivery in finite runs; all reported latencies are
normalized by the maximum honest-sender delivery delay actually used.

The virtual clock is dyadic-rational valued, stored in binary64 (exact for the
1/256-grid delays the built-in strategies use), so identical (protocol,
strategy, seed) triples replay byte-identically. One simulation instance is
strictly single-threaded; independent trials share no mutable state.

Channels are authenticated: the harness stamps true sender ids and corrupted
parties can forge content but never origin. Secure channels are the default -
the adversary sees payloads only on edges touching corrupted parties; a
full-information toggle exists for demonstrations of payload-reading attacks.
Self-addressed messages deliver at the send instant with zero delay and count
in message totals.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
import json
import math
import random
from dataclasses import dataclass

from .params import ParamError

# wire kinds; K_OPAQUE marks injected blobs with a declared size
K_COIN, K_CRUS_VAL, K_CRUS_RELAY, K_CRUS_AUX, K_PUB, K_MAJ = range(6)
K_OPAQUE = 6
KIND_NAMES = ("COIN", "CRUS_VAL", "CRUS_RELAY", "CRUS_AUX", "PUB", "MAJ", "OPAQUE")
BOT = 2  # wire encoding of the crusader "no common value" output

DEADLINE = 1.0  # honest-sender force-delivery horizon
MIN_DELAY = 1.0 / 256.0
DEFAULT_STEP_BUDGET = 100_000

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1


def mix64(seed: int, index: int) -> int:
    """Cheap deterministic stream split, stable across platforms."""
    x = (seed ^ (index * _MIX)) & _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def _bucket_of(kind, size_bits):
    if kind == K_OPAQUE:
        return "opaque"
    return "bit" if size_bits == 1 else "tagged"


class StrategyViolation(RuntimeError):
    """The adversary strategy broke a model rule (budget, drop, forgery...)."""


class Envelope:
    """One simulated network message."""

    __slots__ = (
        "id", "sender", "recipient", "inst", "kind", "payload", "size_bits",
        "sent_at", "delivered_at", "honest_at_send", "injected", "dropped",
    )

    def __init__(self, eid, sender, recipient, inst, kind, payload, size_bits, sent_at, honest_at_send, injected=False):
        self.id = eid
        self.sender = sender
        self.recipient = recipient
        self.inst = inst
        self.kind = kind
        self.payload = payload
        self.size_bits = size_bits
        self.sent_at = sent_at
        self.delivered_at = None
        self.honest_at_send = honest_at_send
        self.injected = injected
        self.dropped = False


@dataclass(frozen=True)
class AdversaryAction:
    """One scheduler/corruption decision."""

    kind: str  # deliver | delay | corrupt | drop | inject | coin_set
    envelope_id: int | None = None
    party: int | None = None
    time: float | None = None
    instance: int | None = None
    bit: int | None = None
    message: dict | None = None

    @classmethod
    def deliver(cls, envelope_id):
        return cls("deliver", envelope_id=envelope_id)

    @classmethod
    def delay(cls, envelope_id, time):
        return cls("delay", envelope_id=envelope_id, time=time)

    @classmethod
    def corrupt(cls, party):
        return cls("corrupt", party=party)

    @classmethod
    def drop(cls, envelope_id):
        return cls("drop", envelope_id=envelope_id)

    @classmethod
    def inject(cls, message, time):
        return cls("inject", message=message, time=time)

    @classmethod
    def coin_set(cls, instance, party, time, bit=None):
        return cls("coin_set", instance=instance, party=party, time=time, bit=bit)


@dataclass
class CoinSpec:
    """Static description of one committee coin instance."""

    inst: int
    members: tuple[int, ...]
    delta: float
    R: float
    bad_threshold: float  # corrupted members >= this voids the fairness contract
    mode: str = "ideal"  # ideal | benor
    t_local: int = 0  # wait-threshold parameter for benor-mode instances


class CoinInstance:
    """Per-trial state of one committee coin oracle."""

    __slots__ = ("spec", "g_drawn", "b_star", "activation", "effective", "assigned", "offsets", "output_times")

    def __init__(self, spec, g_drawn, b_star, activation=0.0):
        self.spec = spec
        self.g_drawn = g_drawn
        self.b_star = b_star
        self.activation = activation
        self.effective = None  # resolved lazily against the corruption set
        self.assigned = {}  # member -> bit, used when not effective
        self.offsets = {}  # member -> scheduled offset
        self.output_times = {}  # member -> delivery time

    def resolve(self, corrupted):
        if self.effective is None:
            bad = sum(1 for m in self.spec.members if m in corrupted)
            self.effective = bool(self.g_drawn) and bad < self.spec.bad_threshold
        return self.effective


class AdversaryView:
    """What the adversary may observe: a live window onto the simulation,
    detached when its run() returns."""

    def __init__(self, sim):
        self._sim = sim

    @property
    def now(self):
        return self._sim.now

    @property
    def n(self):
        return self._sim.n

    @property
    def mode(self):
        return self._sim.mode

    @property
    def corrupted(self):
        return self._sim.corrupted

    @property
    def budget_remaining(self):
        return self._sim.t_budget - len(self._sim.corrupted)

    @property
    def protocol(self):
        return self._sim.protocol

    def pending_envelopes(self):
        sim = self._sim
        return [sim.envelopes[eid] for eid in sorted(sim._sched)]

    def envelope(self, eid):
        return self._sim.envelopes[eid]

    def can_read(self, env) -> bool:
        if self._sim.mode == "full_info":
            return True
        return env.sender in self._sim.corrupted or env.recipient in self._sim.corrupted

    def payload_of(self, env):
        if not self.can_read(env):
            raise StrategyViolation("payload not visible over secure channels")
        return env.payload

    def coin_truth(self, inst_index):
        # revealed at activation; a deliberately permissive (conservative) reading
        ci = self._sim.coin_instances[inst_index]
        return ci.g_drawn, ci.b_star


@dataclass
class TrialReport:
    seed: int
    n: int
    outputs: list
    output_times: list
    agreed: bool
    output_bit: int | None
    latency: float
    all_honest_output: bool
    max_delay: float
    msg_count_by_bucket: dict
    byz_msg_count_by_bucket: dict
    msg_count_by_kind: dict
    byz_msg_count_by_kind: dict
    corruptions: list
    coin_truth: list
    b_star: int | None
    b_star_defined: bool
    coin_live_by_bound: bool
    strategy_budget_hit: bool
    events: int
    discarded_non_neighbor: int
    sum_coin_bits: int | None

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["latency"] = None if math.isinf(self.latency) else self.latency
        return d


def report_json(report: TrialReport) -> str:
    return json.dumps(report.as_dict(), sort_keys=True) + "\n"


def dump_event_log(log: list[dict]) -> str:
    """Newline-delimited JSON, byte-stable across identical runs."""
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in log)


class Simulation:
    """One deterministic trial. Drive with run(); inspect the TrialReport."""

    def __init__(
        self,
        protocol,
        strategy,
        seed: int,
        *,
        mode: str = "secure",
        t_budget: int = 0,
        record_log: bool = False,
        step_budget: int = DEFAULT_STEP_BUDGET,
        max_events: int = 100_000_000,
    ):
        if mode not in ("secure", "full_info"):
            raise ParamError("mode must be 'secure' or 'full_info'")
        self.protocol = protocol
        self.strategy = strategy
        self.seed = seed
        self.mode = mode
        self.t_budget = t_budget
        self.record_log = record_log
        self.step_budget = step_budget
        self.max_events = max_events

        self.n = protocol.n
        self.rng = random.Random(mix64(seed, 0))
        self.now = 0.0
        self._seq = 0
        self._heap = []
        self.envelopes: list[Envelope] = []
        self._sched: dict[int, float] = {}  # env id -> scheduled delivery, while pending
        self.corrupted: set[int] = set()
        self.corruption_log: list[tuple[int, float]] = []
        self.view = AdversaryView(self)
        self.log: list[dict] = []
        self.events = 0
        self.budget_hit = False

        # message accounting, honest-at-send vs byzantine
        self._kind_count = [0] * len(KIND_NAMES)
        self._byz_kind_count = [0] * len(KIND_NAMES)
        self._bucket = {"bit": 0, "tagged": 0, "opaque": 0}
        self._byz_bucket = {"bit": 0, "tagged": 0, "opaque": 0}

        tag_space = getattr(protocol, "tag_space", 1)
        maj_space = getattr(protocol, "maj_tag_space", 1)
        tag_bits = math.ceil(math.log2(tag_space)) if tag_space > 1 else 0
        maj_bits = math.ceil(math.log2(maj_space)) if maj_space > 1 else 0
        self._kind_size = (
            tag_bits + 1,  # COIN
            tag_bits + 1,  # CRUS_VAL
            tag_bits + 1,  # CRUS_RELAY
            tag_bits + 1,  # CRUS_AUX
            tag_bits + 2,  # PUB carries 0/1/bot
            maj_bits + 1,  # MAJ
            0,             # OPAQUE: size must be declared at injection
        )
        self._kind_bucket = tuple(_bucket_of(kind, size) for kind, size in enumerate(self._kind_size))
        # largest cross-party delay delivered per sender while it was honest
        self._sender_max_delay = [0.0] * self.n

        self._trial_ctx = protocol.setup_trial(random.Random(mix64(seed, 1)))
        self.parties = [protocol.make_party(i, self._trial_ctx) for i in range(self.n)]
        self.output_times: list[float | None] = [None] * self.n

        # committee coin oracles: ideal-mode instances draw (g, b*) at
        # activation and schedule member outputs; benor-mode instances are
        # real message traffic whose ground truth resolves at report time.
        self.coin_instances: list[CoinInstance] = []
        self._benor_specs: list[CoinSpec] = []
        coin_specs = getattr(protocol, "coin_specs", ())
        strategy.bind(self, random.Random(mix64(seed, 2)))
        for spec in coin_specs:
            if spec.mode != "ideal":
                self._benor_specs.append(spec)
                continue
            g = self.rng.random() < spec.delta
            b = self.rng.getrandbits(1)
            ci = CoinInstance(spec, g, b)
            idx = len(self.coin_instances)
            self.coin_instances.append(ci)
            offsets = strategy.coin_offsets(spec, self.view) or {}
            for member in spec.members:
                off = offsets.get(member, spec.R)
                if not (0.0 < off <= spec.R):
                    raise StrategyViolation("coin output offset outside (0, R]")
                ci.offsets[member] = off
                self._push(off, 1, (idx, member))

    # -- scheduling primitives ------------------------------------------------

    def _push(self, time, etype, arg):
        self._seq += 1
        heappush(self._heap, (time, self._seq, etype, arg))

    def _emit(self, sender, msgs):
        """Send each (recipients, inst, kind, payload) batch, counted once per batch."""
        if not msgs:
            return
        honest = sender not in self.corrupted
        if honest:
            kind_count, bucket = self._kind_count, self._bucket
        else:
            kind_count, bucket = self._byz_kind_count, self._byz_bucket
        kind_size, kind_bucket = self._kind_size, self._kind_bucket
        envelopes, sched, heap = self.envelopes, self._sched, self._heap
        append, delay_for, deadline = envelopes.append, self._delay_for, DEADLINE
        record_log = self.record_log
        now = self.now
        seq = self._seq
        eid = len(envelopes)
        for recipients, inst, kind, payload in msgs:
            size = kind_size[kind]
            kind_count[kind] += len(recipients)
            bucket[kind_bucket[kind]] += len(recipients)
            for r in recipients:
                env = Envelope(eid, sender, r, inst, kind, payload, size, now, honest)
                append(env)
                if r == sender:
                    t = now  # self-delivery, zero delay
                else:
                    delay = delay_for(env)
                    if delay is None:
                        delay = deadline
                    if not (0.0 < delay <= deadline):
                        raise StrategyViolation(f"delay {delay} outside (0, {DEADLINE}]")
                    t = now + delay
                sched[eid] = t
                seq += 1
                heappush(heap, (t, seq, 0, eid))
                if record_log:
                    self.log.append({"time": now, "kind": "send", "envelope_id": eid,
                                     "detail": f"{sender}->{r} {KIND_NAMES[kind]}/{inst} p={payload}"})
                eid += 1
        self._seq = seq

    # -- adversary actions -----------------------------------------------------

    def _apply_action(self, act: AdversaryAction):
        kind = act.kind
        if kind == "corrupt":
            p = act.party
            if p in self.corrupted:
                raise StrategyViolation(f"party {p} is already corrupted")
            if len(self.corrupted) + 1 > self.t_budget:
                raise StrategyViolation(f"corruption budget {self.t_budget} exceeded")
            self.corrupted.add(p)
            self.corruption_log.append((p, self.now))
            if self.record_log:
                self.log.append({"time": self.now, "kind": "corrupt", "party": p, "detail": ""})
        elif kind == "drop":
            env = self.envelopes[act.envelope_id]
            if env.sender not in self.corrupted:
                raise StrategyViolation("cannot drop an envelope from an honest sender")
            if env.delivered_at is not None or env.dropped:
                raise StrategyViolation("envelope already delivered or dropped")
            env.dropped = True
            self._sched.pop(env.id, None)
            if self.record_log:
                self.log.append({"time": self.now, "kind": "drop", "envelope_id": env.id, "detail": ""})
        elif kind in ("delay", "deliver"):
            env = self.envelopes[act.envelope_id]
            if env.delivered_at is not None or env.dropped:
                raise StrategyViolation("envelope already delivered or dropped")
            t = self.now if kind == "deliver" else act.time
            if t < self.now:
                raise StrategyViolation("cannot schedule into the past")
            if env.sender not in self.corrupted and env.recipient != env.sender:
                if not (env.sent_at < t <= env.sent_at + DEADLINE):
                    raise StrategyViolation("honest-sender delivery must land in (sent, sent+1]")
            self._sched[env.id] = t
            self._push(t, 0, env.id)
        elif kind == "inject":
            msg = act.message
            sender = msg["sender"]
            if sender not in self.corrupted:
                raise StrategyViolation("cannot inject from an honest party (channels are authenticated)")
            kind = msg["kind"]
            size = msg.get("size_bits", self._kind_size[kind])
            if size < 1:
                raise StrategyViolation("injected messages need size_bits >= 1")
            eid = len(self.envelopes)
            env = Envelope(eid, sender, msg["recipient"], msg.get("inst", 0), kind,
                           msg["payload"], size, self.now, False, injected=True)
            self.envelopes.append(env)
            self._byz_kind_count[kind] += 1
            self._byz_bucket[_bucket_of(kind, size)] += 1
            t = act.time if act.time is not None else self.now + MIN_DELAY
            if t < self.now:
                raise StrategyViolation("cannot schedule into the past")
            self._sched[eid] = t
            self._push(t, 0, eid)
        elif kind == "coin_set":
            ci = self.coin_instances[act.instance]
            member = act.party
            if member not in ci.spec.members:
                raise StrategyViolation("party is not a member of that coin instance")
            fair = ci.resolve(self.corrupted)
            if act.bit is not None:
                if fair and member not in self.corrupted:
                    raise StrategyViolation("cannot assign outputs of a fair coin instance")
                ci.assigned[member] = act.bit
            if act.time is not None:
                off = act.time - ci.activation
                if not (0.0 < off <= ci.spec.R):
                    raise StrategyViolation("coin output time outside (activation, activation+R]")
                if member in ci.output_times:
                    raise StrategyViolation("coin output already delivered")
                ci.offsets[member] = off
                self._push(act.time, 1, (act.instance, member))
        else:
            raise StrategyViolation(f"unknown action kind {kind!r}")

    def _adversary_phase(self):
        steps = 0
        while True:
            act = self.strategy.next_action(self.view)
            if act is None:
                return
            steps += 1
            if steps > self.step_budget:
                self.budget_hit = True
                return
            self._apply_action(act)

    # -- main loop ---------------------------------------------------------------

    def run(self, stop=None) -> TrialReport:
        try:
            return self._run(stop)
        finally:
            # drop the view's back-reference: a finished run holds no sim <-> view
            # cycle, so it is freed by reference counting, even if a strategy kept the view
            self.view._sim = None

    def _run(self, stop):
        strategy = self.strategy
        # looked up here, not in __init__, so a per-instance wrapper set after
        # construction is the one that runs
        self._delay_for = strategy.delay_for
        for pid, party in enumerate(self.parties):
            self._emit(pid, party.on_start())
        # a reactive strategy is polled after every event until it turns
        # `reactive` off; that is one-way, it is never polled again
        reactive = getattr(strategy, "reactive", False)
        if reactive:
            self._adversary_phase()
            reactive = strategy.reactive
        heap, envelopes, sched = self._heap, self.envelopes, self._sched
        corrupted, parties, output_times = self.corrupted, self.parties, self.output_times
        sender_max_delay = self._sender_max_delay
        record_log, max_events = self.record_log, self.max_events
        while heap:
            self.events += 1
            if self.events > max_events:
                raise RuntimeError("event budget exhausted; protocol likely not quiescing")
            t, _, etype, arg = heappop(heap)
            if etype == 0:
                if sched.get(arg) != t:
                    continue  # stale heap entry: re-timed, dropped or delivered
                env = envelopes[arg]
                self.now = t
                env.delivered_at = t
                del sched[arg]
                if record_log:
                    self.log.append({"time": t, "kind": "deliver", "envelope_id": arg, "detail": ""})
                rec, sender = env.recipient, env.sender
                if rec != sender and sender not in corrupted:
                    delay = t - env.sent_at
                    if delay > sender_max_delay[sender]:
                        sender_max_delay[sender] = delay
                if rec not in corrupted:
                    party = parties[rec]
                    msgs = party.on_message(env)
                    if msgs:
                        self._emit(rec, msgs)
                    if party.output is not None and output_times[rec] is None:
                        output_times[rec] = t
                        if record_log:
                            self.log.append({"time": t, "kind": "output", "party": rec,
                                             "detail": repr(party.output)})
            else:
                idx, member = arg
                ci = self.coin_instances[idx]
                self.now = t
                if member in ci.output_times or member in corrupted:
                    continue
                if ci.offsets.get(member) is not None and ci.activation + ci.offsets[member] != t:
                    continue  # re-timed; stale entry
                fair = ci.resolve(corrupted)
                if fair:
                    bit = ci.b_star
                else:
                    bit = ci.assigned.get(member)
                    if bit is None:
                        bit = strategy.adversarial_coin_bit(ci.spec, member, self.view)
                ci.output_times[member] = t
                if record_log:
                    self.log.append({"time": t, "kind": "coin", "party": member,
                                     "detail": f"inst={ci.spec.inst} bit={bit} fair={fair}"})
                party = parties[member]
                self._emit(member, party.on_coin(ci.spec.inst, bit))
                if party.output is not None and output_times[member] is None:
                    output_times[member] = t
            if reactive:
                self._adversary_phase()
                reactive = strategy.reactive
            if stop is not None and stop(self):
                break
        return self._report()

    # -- reporting ---------------------------------------------------------------

    def _report(self) -> TrialReport:
        honest = [i for i in range(self.n) if i not in self.corrupted]
        outputs = [None if i in self.corrupted else self.parties[i].output for i in range(self.n)]
        honest_out = [outputs[i] for i in honest]
        all_out = all(o is not None for o in honest_out)
        agreed = all_out and len(set(honest_out)) == 1
        output_bit = honest_out[0] if agreed and honest_out else None

        # a sender corrupted after delivery no longer counts, as if every
        # delivered envelope were rescanned now
        max_delay = max((d for pid, d in enumerate(self._sender_max_delay) if pid not in self.corrupted),
                        default=0.0)
        if max_delay == 0.0:
            max_delay = 1.0

        if all_out and honest:
            latency = max(self.output_times[i] for i in honest) / max_delay
        else:
            latency = math.inf

        truth = []
        coin_live = True
        pairs = []  # (fair, b_star) across ideal and benor instances
        for ci in self.coin_instances:
            eff = ci.resolve(self.corrupted)
            max_off = max((t - ci.activation for m, t in ci.output_times.items() if m not in self.corrupted),
                          default=None)
            if max_off is not None and max_off > ci.spec.R * max_delay:
                coin_live = False
            truth.append({
                "instance": ci.spec.inst,
                "g_drawn": ci.g_drawn,
                "fair": eff,
                "b_star": ci.b_star,
                "max_offset": max_off,
            })
            pairs.append((eff, ci.b_star))
        for spec in self._benor_specs:
            g, b = self.protocol.benor_truth(self._trial_ctx, spec, self.corrupted)
            truth.append({"instance": spec.inst, "g_drawn": g, "fair": g, "b_star": b, "max_offset": None})
            pairs.append((g, b))
        truth.sort(key=lambda rec: rec["instance"])

        sum_bits = None
        if pairs and all(b is not None for _, b in pairs):
            sum_bits = sum(b for _, b in pairs)
        b_star_defined = bool(pairs) and all(f for f, _ in pairs) and len(pairs) % 2 == 1
        b_star = None
        if b_star_defined:
            total = sum(b for _, b in pairs)
            b_star = 1 if 2 * total > len(pairs) else 0

        discarded = sum(getattr(p, "discarded_non_neighbor", 0) for i, p in enumerate(self.parties)
                        if i not in self.corrupted)

        return TrialReport(
            seed=self.seed,
            n=self.n,
            outputs=outputs,
            output_times=list(self.output_times),
            agreed=agreed,
            output_bit=output_bit,
            latency=latency,
            all_honest_output=all_out,
            max_delay=max_delay,
            msg_count_by_bucket=dict(self._bucket),
            byz_msg_count_by_bucket=dict(self._byz_bucket),
            msg_count_by_kind={KIND_NAMES[k]: v for k, v in enumerate(self._kind_count) if v},
            byz_msg_count_by_kind={KIND_NAMES[k]: v for k, v in enumerate(self._byz_kind_count) if v},
            corruptions=list(self.corruption_log),
            coin_truth=truth,
            b_star=b_star,
            b_star_defined=b_star_defined,
            coin_live_by_bound=coin_live,
            strategy_budget_hit=self.budget_hit,
            events=self.events,
            discarded_non_neighbor=discarded,
            sum_coin_bits=sum_bits,
        )


def run_simulation(protocol, strategy, seed: int, stop=None, log=None, **kw) -> TrialReport:
    """Build one Simulation, run it to quiescence (or `stop`), return the report.

    Given a list as `log`, the run records its event log and appends it there.

    A finished trial holds no reference cycles and is freed by reference
    counting, so the cyclic collector is paused while it runs (its envelopes
    would otherwise set off young-generation scans of live objects) and the
    caller's collector state is restored on the way out, also on an error.
    """
    if log is not None:
        kw["record_log"] = True
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulation(protocol, strategy, seed, **kw)
        report = sim.run(stop)
        if log is not None:
            log.extend(sim.log)
        del sim  # freed here, before the collector can run again
        return report
    finally:
        if enabled:
            gc.enable()
