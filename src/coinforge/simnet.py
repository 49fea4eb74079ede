"""Deterministic discrete-event simulation of an asynchronous byzantine network.

Model: n parties on reliable authenticated channels. The adversary schedules
every delivery, may adaptively corrupt up to t parties mid-run, and may drop a
corrupted sender's still-undelivered messages (strong adaptivity). Messages
from honest senders have a hard delivery deadline of 1 virtual time unit, which
realizes eventual delivery in finite runs; all reported latencies are
normalized by the maximum honest-sender delivery delay actually used.

The virtual clock is dyadic-rational valued and binary64: every time that
enters the run (a coin's R and output offsets, a delay_for answer, a delay,
inject or coin_set time) is converted with float() at the boundary, and -0.0
is stored as 0.0, so an int 1 and 1.0 give the same bytes. It is exact for
the 1/256-grid delays the built-in strategies use, so identical (protocol,
strategy, seed) triples replay byte-identically. Events run in order of time,
then in the order they were scheduled; one scheduled for the running instant
runs in the same instant, after every event already there. One simulation
instance is strictly single-threaded; independent trials share no mutable
state.

Channels are authenticated: the harness stamps true sender ids and corrupted
parties can forge content but never origin. Secure channels are the default:
`AdversaryView.payload_of` refuses a payload on an edge touching no corrupted
party. That binds a strategy only through the view; `delay_for` and
`pending_envelopes` hand over the envelopes themselves, payloads included,
and no built-in reads one in secure mode. A full-information toggle exists
for demonstrations of payload-reading attacks.
Self-addressed messages deliver at the send instant with zero delay and count
in message totals; a strategy may re-time an honest one within the same
deadline, and that delay then counts toward the normalizing maximum.

The adversary (a `strategies` plug-in) sees the run only through its
AdversaryView and acts only through AdversaryActions, each checked against
the rules above before it takes effect: an id, in an action or a view
lookup, must name something that exists; a time, delay_for's answer
included, must be a finite number; an injected payload must be an int in
its kind's `KIND_VALUES` (checked only here: handlers trust their payloads);
and no delivery or coin output is scheduled before now. An envelope is
pending while its id is in `_sched`, the one record of what may still be
dropped or re-timed. A coin is fair until its corrupted members reach the
instance's overload quota (`CoinSpec.bad_threshold`); the verdict is fixed
at its first honest output, or at report time.

Draws and replay. A trial draws its coins' (g, b*) by one rule,
`coin_draws(protocol, seed)`: from `random.Random(mix64(seed, 0))`, per coin
spec in order, g = random() < delta and then b* = getrandbits(1). Its two
other streams, the protocol's setup stream (mix64(seed, 1)) and the
strategy's stream (mix64(seed, 2)), build their Random at their first draw or
read. A run that built neither drew no randomness besides its coins, so it is
a function of the protocol, the strategy, mode, t_budget, step_budget and the
draws, and another run with those inputs and the same draws takes the same
path and draws nothing too. `run_simulation(..., replay=dict)` relies on
that: it keeps the report of such a run under its draws and serves a later
call with the same draws a copy carrying the later seed. A run that drew,
a run that recorded a log and a run that raised are never served.
"""

from __future__ import annotations

import functools
import gc
from heapq import heappop, heappush
import json
import math
import random
import weakref
from dataclasses import dataclass, replace

from .params import ParamError, tag_bits

# wire kinds; K_OPAQUE marks injected blobs with a declared size
K_COIN, K_CRUS_VAL, K_CRUS_RELAY, K_CRUS_AUX, K_PUB, K_MAJ, K_OPAQUE = range(7)
KIND_NAMES = ("COIN", "CRUS_VAL", "CRUS_RELAY", "CRUS_AUX", "PUB", "MAJ", "OPAQUE")
BOT = 2  # wire encoding of the crusader "no common value" output
# the wire format: each kind's payloads (OPAQUE: any); a size is instance tag bits plus value bits
KIND_VALUES = ((0, 1), (0, 1), (0, 1), (0, 1), (0, 1, BOT), (0, 1), None)

DEADLINE = 1.0  # honest-sender force-delivery horizon
MIN_DELAY = 1.0 / 256.0
DEFAULT_STEP_BUDGET = 100_000
MAX_EVENTS = 100_000_000  # a run past this many events is not quiescing

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1


def mix64(seed: int, index: int) -> int:
    """Cheap deterministic stream split, stable across platforms."""
    x = (seed ^ (index * _MIX)) & _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


class RngStream:
    """A per-trial stream: `random.Random(seed)`, built at its first draw.

    `seed` is an int, or a function that returns one, called at the first
    draw (`CombinedStrategy` seeds its parts so, from its own stream).

    Most trials never draw from most of their streams (a fifo multi-toss
    trial draws only coin bits), and seeding a Random costs about 10 us. The
    first lookup of a public name builds the Random and caches its bound
    method in the instance dict, so later draws cost what a Random's do and
    the stream holds no reference back to itself. Every stream yields the
    numbers `random.Random(seed)` would. Whether a run drew at all is
    `Simulation.drew`.
    """

    def __init__(self, seed):
        self._seed = seed

    def __getattr__(self, name):  # reached only for names not yet in the instance dict
        if name.startswith("_"):
            raise AttributeError(name)
        rng = self.__dict__.get("_rng")
        if rng is None:
            seed = self._seed
            rng = self._rng = random.Random(seed() if callable(seed) else seed)
        value = getattr(rng, name)
        if callable(value):  # a method; a data attribute such as gauss_next may change
            setattr(self, name, value)
        return value


def _bucket_of(kind, size_bits):
    if kind == K_OPAQUE:
        return "opaque"
    return "bit" if size_bits == 1 else "tagged"


@functools.lru_cache(maxsize=64)
def _wire_table(tag_space: int, maj_tag_space: int):
    """(instance spaces, sizes in bits, buckets) per kind, once per pair of a
    protocol's spaces rather than per trial: MAJ instances range over
    maj_tag_space, every other kind's over tag_space."""
    spaces = tuple(maj_tag_space if kind == K_MAJ else tag_space for kind in range(len(KIND_NAMES)))
    sizes = tuple(0 if values is None else tag_bits(space) + tag_bits(len(values))
                  for space, values in zip(spaces, KIND_VALUES))
    return spaces, sizes, tuple(_bucket_of(kind, size) for kind, size in enumerate(sizes))


class StrategyViolation(RuntimeError):
    """The adversary strategy broke a model rule (budget, drop, forgery...)."""


def _time(what, t):
    """A time is a finite int or float, not a bool; it is kept as a binary64, with -0.0 as 0.0."""
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
        raise StrategyViolation(f"{what} {t!r} is not a finite number")
    return float(t) or 0.0


def _check_id(what, x, count):
    """An id names one of `count` things: an int, not a bool, in [0, count)."""
    if type(x) is not int or not 0 <= x < count:
        raise StrategyViolation(f"{what} {x!r} is not an id in [0, {count})")


class Envelope:
    """One simulated network message, from `sender` to `recipient`, of wire
    `kind` with `payload`, in instance `inst`.

    `id` is its index in `Simulation.envelopes`, `sent_at` its send time and
    `delivered_at` its delivery time (None while pending, and for good once
    dropped). Its size is not kept: an honest message's follows from its kind,
    and an injected one's declared `size_bits` is checked and counted when it
    is injected.
    """

    __slots__ = ("id", "sender", "recipient", "inst", "kind", "payload", "sent_at", "delivered_at")

    def __init__(self, eid, sender, recipient, inst, kind, payload, sent_at):
        self.id = eid
        self.sender = sender
        self.recipient = recipient
        self.inst = inst
        self.kind = kind
        self.payload = payload
        self.sent_at = sent_at
        self.delivered_at = None


@dataclass(frozen=True)
class AdversaryAction:
    """One scheduler/corruption decision."""

    kind: str  # delay | corrupt | drop | inject | coin_set; delay(eid, view.now) delivers at once
    envelope_id: int | None = None
    party: int | None = None
    time: float | None = None
    instance: int | None = None
    bit: int | None = None
    message: dict | None = None

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
    """Static description of one oracle coin instance: fair with probability
    delta, when every honest member outputs the common fresh bit within R.
    The adversary times the outputs and chooses those of an unfair instance."""

    inst: int
    members: tuple[int, ...]
    delta: float
    R: float
    bad_threshold: int  # corrupted members >= this quota (`params.overload_quota`) void the fairness contract

    def __post_init__(self):
        self.R = float(self.R)  # an int R must not put int times on the clock


class CoinInstance:
    """Per-trial state of one committee coin oracle. Every instance activates
    at time 0, so its output offsets are absolute times."""

    __slots__ = ("spec", "g_drawn", "b_star", "effective", "assigned", "offsets", "output_times")

    def __init__(self, spec, g_drawn, b_star):
        self.spec = spec
        self.g_drawn = g_drawn
        self.b_star = b_star
        self.effective = None  # the fairness verdict, fixed by the first `resolve`
        self.assigned = {}  # member -> bit, used when not effective
        self.offsets = {}  # member -> scheduled offset
        self.output_times = {}  # member -> delivery time

    def fair(self, corrupted):
        """The verdict once `resolve` fixed it; before that, checked against `corrupted` and not kept."""
        if self.effective is not None:
            return self.effective
        return bool(self.g_drawn) and sum(m in corrupted for m in self.spec.members) < self.spec.bad_threshold

    def resolve(self, corrupted):
        if self.effective is None:
            self.effective = self.fair(corrupted)
        return self.effective


class AdversaryView:
    """What the adversary may observe: a live window onto the simulation,
    detached when its run() returns. It holds the simulation weakly, so a
    simulation that is built but never run holds no cycle through its view."""

    def __init__(self, sim):
        self._sim = weakref.proxy(sim)

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
        envelopes = self._sim.envelopes
        _check_id("envelope", eid, len(envelopes))
        return envelopes[eid]

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
        instances = self._sim.coin_instances
        _check_id("coin instance", inst_index, len(instances))
        ci = instances[inst_index]
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


def coin_draws(protocol, seed: int) -> tuple:
    """Each of the protocol's coin specs' (g, b*), in spec order, for the trial at `seed`."""
    specs = getattr(protocol, "coin_specs", ())
    if not specs:
        return ()
    rng = random.Random(mix64(seed, 0))
    draws = []
    for spec in specs:
        g = rng.random() < spec.delta
        draws.append((g, rng.getrandbits(1)))
    return tuple(draws)


class Simulation:
    """One deterministic trial. Drive with run(); inspect the TrialReport.

    `draws` are the coins' (g, b*), `coin_draws(protocol, seed)` when not given.
    """

    def __init__(
        self,
        protocol,
        strategy,
        seed: int,
        *,
        mode: str = "secure",
        t_budget: int = 0,
        log: list | None = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
        draws: tuple | None = None,
    ):
        if mode not in ("secure", "full_info"):
            raise ParamError("mode must be 'secure' or 'full_info'")
        self.protocol = protocol
        self.strategy = strategy
        self.seed = seed
        self.mode = mode
        self.t_budget = t_budget
        self.log = log  # event records are appended here when given
        self.step_budget = step_budget

        self.n = protocol.n
        self.now = 0.0
        # the queue of instants: a heap of the distinct pending times, and each
        # time's events in scheduling order, an envelope id or a coin output's
        # (instance index, member)
        self._times = []
        self._instants = {}
        self.envelopes: list[Envelope] = []
        self._sched: dict[int, float] = {}  # env id -> scheduled delivery, while pending
        self.corrupted: set[int] = set()
        self.corruption_log: list[tuple[int, float]] = []
        self.view = AdversaryView(self)
        self.events = 0
        self.budget_hit = False

        # message accounting: honest sends by kind (their buckets follow from
        # the kind), injected byzantine traffic by kind and by declared size
        self._kind_count = [0] * len(KIND_NAMES)
        self._byz_kind_count = [0] * len(KIND_NAMES)
        self._byz_bucket = {"bit": 0, "tagged": 0, "opaque": 0}

        self._inst_space, self._kind_size, self._kind_bucket = _wire_table(
            getattr(protocol, "tag_space", 1), getattr(protocol, "maj_tag_space", 1))
        # largest delay delivered per sender while it was honest
        self._sender_max_delay = [0.0] * self.n

        self._setup_rng = RngStream(mix64(seed, 1))
        self._strategy_rng = RngStream(mix64(seed, 2))
        self._trial_ctx = protocol.setup_trial(self._setup_rng)
        self.parties = [protocol.make_party(i, self._trial_ctx) for i in range(self.n)]
        self.output_times: list[float | None] = [None] * self.n

        # committee coin oracles take their drawn (g, b*) at activation and
        # schedule member outputs; a coin the parties run themselves is message
        # traffic, and its protocol reports the ground truth (`benor_truth`) at
        # report time
        if draws is None:
            draws = coin_draws(protocol, seed)
        self.coin_instances: list[CoinInstance] = []
        strategy.bind(self.view, self._strategy_rng)
        for spec, (g, b) in zip(getattr(protocol, "coin_specs", ()), draws, strict=True):
            ci = CoinInstance(spec, g, b)
            idx = len(self.coin_instances)
            self.coin_instances.append(ci)
            offsets = strategy.coin_offsets(spec, self.view)
            if offsets is None:
                offsets = {}
            elif not isinstance(offsets, dict):
                raise StrategyViolation(f"coin offsets are None or a member -> offset dict, not {offsets!r}")
            for member in offsets:
                if type(member) is not int or member not in spec.members:
                    raise StrategyViolation(f"party {member!r} is not a member of that coin instance")
            for member in spec.members:
                off = _time("coin output offset", offsets.get(member, spec.R))
                if not (0.0 < off <= spec.R):
                    raise StrategyViolation("coin output offset outside (0, R]")
                ci.offsets[member] = off
                self._push(off, (idx, member))

    @property
    def drew(self) -> bool:
        """Whether the setup or strategy stream built its Random, so far: any draw or read does."""
        return "_rng" in vars(self._setup_rng) or "_rng" in vars(self._strategy_rng)

    # -- scheduling primitives ------------------------------------------------

    def _push(self, time, event):
        """Schedule `event` at `time`, after every event already at that instant."""
        batch = self._instants.get(time)
        if batch is None:
            self._instants[time] = [event]
            heappush(self._times, time)
        else:
            batch.append(event)

    def _emit(self, sender, msgs):
        """Send each (recipients, inst, kind, payload) batch of an honest sender, counted once per batch.

        Only honest parties run handlers: on_start runs before any adversary
        phase, and deliveries and coin outputs to corrupted parties are skipped.
        """
        if not msgs:
            return
        kind_count = self._kind_count
        envelopes, sched, times, instants = self.envelopes, self._sched, self._times, self._instants
        append, delay_for, deadline = envelopes.append, self._delay_for, DEADLINE
        log = self.log
        now = self.now
        eid = len(envelopes)
        last_t = batch = None  # the instant of the previous envelope and its event list
        for recipients, inst, kind, payload in msgs:
            kind_count[kind] += len(recipients)
            for r in recipients:
                env = Envelope(eid, sender, r, inst, kind, payload, now)
                append(env)
                if r == sender:
                    t = now  # self-delivery, zero delay
                else:
                    delay = delay_for(env)
                    if delay is None:
                        delay = deadline
                    elif type(delay) is not float:  # a float needs only the range check
                        delay = _time("delay", delay)
                    if not (0.0 < delay <= deadline):
                        raise StrategyViolation(f"delay {delay} outside (0, {DEADLINE}]")
                    t = now + delay
                sched[eid] = t
                if t != last_t:
                    batch = instants.get(t)
                    if batch is None:
                        batch = instants[t] = []
                        heappush(times, t)
                    last_t = t
                batch.append(eid)
                if log is not None:
                    log.append({"time": now, "kind": "send", "envelope_id": eid,
                                     "detail": f"{sender}->{r} {KIND_NAMES[kind]}/{inst} p={payload}"})
                eid += 1

    # -- adversary actions -----------------------------------------------------

    def _apply_action(self, act: AdversaryAction):
        kind = act.kind
        if kind == "corrupt":
            p = act.party
            _check_id("party", p, self.n)
            if p in self.corrupted:
                raise StrategyViolation(f"party {p} is already corrupted")
            if len(self.corrupted) + 1 > self.t_budget:
                raise StrategyViolation(f"corruption budget {self.t_budget} exceeded")
            self.corrupted.add(p)
            self.corruption_log.append((p, self.now))
            if self.log is not None:
                self.log.append({"time": self.now, "kind": "corrupt", "party": p, "detail": ""})
        elif kind == "drop":
            _check_id("envelope", act.envelope_id, len(self.envelopes))
            env = self.envelopes[act.envelope_id]
            if env.sender not in self.corrupted:
                raise StrategyViolation("cannot drop an envelope from an honest sender")
            if self._sched.pop(env.id, None) is None:
                raise StrategyViolation("envelope already delivered or dropped")
            if self.log is not None:
                self.log.append({"time": self.now, "kind": "drop", "envelope_id": env.id, "detail": ""})
        elif kind == "delay":
            _check_id("envelope", act.envelope_id, len(self.envelopes))
            env = self.envelopes[act.envelope_id]
            if env.id not in self._sched:
                raise StrategyViolation("envelope already delivered or dropped")
            t = _time("delivery time", act.time)
            if t < self.now:
                raise StrategyViolation("cannot schedule into the past")
            if env.sender not in self.corrupted:
                sent = env.sent_at
                if not (sent < t <= sent + DEADLINE or (t == sent and env.recipient == env.sender)):
                    raise StrategyViolation("honest-sender delivery must land in (sent, sent+1], "
                                            "a self-delivery also at sent")
            self._sched[env.id] = t
            self._push(t, env.id)
        elif kind == "inject":
            msg = act.message
            if not isinstance(msg, dict) or not {"sender", "recipient", "kind", "payload"} <= msg.keys():
                raise StrategyViolation("an injected message is a dict with sender, recipient, kind and payload")
            sender, recipient, kind = msg["sender"], msg["recipient"], msg["kind"]
            _check_id("sender", sender, self.n)
            if sender not in self.corrupted:
                raise StrategyViolation("cannot inject from an honest party (channels are authenticated)")
            _check_id("recipient", recipient, self.n)
            _check_id("kind", kind, len(KIND_NAMES))
            inst = msg.get("inst", 0)
            _check_id("inst", inst, self._inst_space[kind])
            payload, values = msg["payload"], KIND_VALUES[kind]
            if values is not None and (type(payload) is not int or payload not in values):
                raise StrategyViolation(f"a {KIND_NAMES[kind]} payload is one of {values}, not {payload!r}")
            size = msg.get("size_bits", self._kind_size[kind])
            if type(size) is not int or size < 1:
                raise StrategyViolation("injected messages need an integer size_bits >= 1")
            t = _time("delivery time", self.now + MIN_DELAY if act.time is None else act.time)
            if t < self.now:
                raise StrategyViolation("cannot schedule into the past")
            eid = len(self.envelopes)
            self.envelopes.append(Envelope(eid, sender, recipient, inst, kind, payload, self.now))
            self._byz_kind_count[kind] += 1
            self._byz_bucket[_bucket_of(kind, size)] += 1
            self._sched[eid] = t
            self._push(t, eid)
        elif kind == "coin_set":
            _check_id("coin instance", act.instance, len(self.coin_instances))
            ci = self.coin_instances[act.instance]
            member = act.party
            if type(member) is not int or member not in ci.spec.members:
                raise StrategyViolation(f"party {member!r} is not a member of that coin instance")
            if member in ci.output_times:
                raise StrategyViolation("coin output already delivered")
            if act.bit is not None:
                if type(act.bit) is not int or act.bit not in (0, 1):
                    raise StrategyViolation(f"coin bit {act.bit!r} is not 0 or 1")
                # checked, not fixed: a verdict that is unfair now stays unfair, as corruption only grows
                if ci.fair(self.corrupted) and member not in self.corrupted:
                    raise StrategyViolation("cannot assign outputs of a fair coin instance")
                ci.assigned[member] = act.bit
            if act.time is not None:
                t = _time("coin output time", act.time)
                if not (0.0 < t <= ci.spec.R):
                    raise StrategyViolation("coin output time outside (0, R]")
                if t < self.now:
                    raise StrategyViolation("cannot schedule into the past")
                ci.offsets[member] = t
                self._push(t, (act.instance, member))
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

    def run(self) -> TrialReport:
        try:
            return self._run()
        finally:
            # detach the view: a strategy that kept it cannot read the finished run
            self.view._sim = None

    def _run(self):
        strategy = self.strategy
        # looked up here, not in __init__, so a per-instance wrapper set after
        # construction is the one that runs
        self._delay_for = strategy.delay_for
        for pid, party in enumerate(self.parties):
            self._emit(pid, party.on_start())
        # a reactive strategy is polled after every delivery or coin output (not
        # after a stale entry) until it turns `reactive` off; that is one-way,
        # it is never polled again
        reactive = getattr(strategy, "reactive", False)
        if reactive:
            self._adversary_phase()
            reactive = strategy.reactive
        times, instants = self._times, self._instants
        envelopes, sched, coin_instances = self.envelopes, self._sched, self.coin_instances
        corrupted, parties, output_times = self.corrupted, self.parties, self.output_times
        sender_max_delay = self._sender_max_delay
        log = self.log
        events, max_events = self.events, MAX_EVENTS
        while times:
            t = heappop(times)
            self.now = t
            # the walk also reaches the events appended to this instant while it runs
            for event in instants[t]:
                events += 1  # per event: a zero-delay loop spins inside one instant
                if events > max_events:
                    raise RuntimeError("event budget exhausted; protocol likely not quiescing")
                if type(event) is int:
                    if sched.get(event) != t:
                        continue  # stale entry: re-timed, dropped or delivered
                    env = envelopes[event]
                    env.delivered_at = t
                    del sched[event]
                    if log is not None:
                        log.append({"time": t, "kind": "deliver", "envelope_id": event, "detail": ""})
                    rec, sender = env.recipient, env.sender
                    if sender not in corrupted:  # a self-delivery re-timed past its send instant counts too
                        delay = t - env.sent_at
                        if delay > sender_max_delay[sender]:
                            sender_max_delay[sender] = delay
                    if rec not in corrupted:
                        party = parties[rec]
                        msgs = party.on_message(env)
                        if msgs:
                            self._emit(rec, msgs)
                        if party.output is not None and output_times[rec] is None:
                            self._decided(rec, t)
                else:
                    idx, member = event
                    ci = coin_instances[idx]
                    if member in ci.output_times or member in corrupted:
                        continue
                    if ci.offsets[member] != t:
                        continue  # re-timed; stale entry
                    fair = ci.resolve(corrupted)
                    bit = ci.b_star if fair else ci.assigned.get(member, 0)
                    ci.output_times[member] = t
                    if log is not None:
                        log.append({"time": t, "kind": "coin", "party": member,
                                    "detail": f"inst={ci.spec.inst} bit={bit} fair={fair}"})
                    party = parties[member]
                    self._emit(member, party.on_coin(ci.spec.inst, bit))
                    if party.output is not None and output_times[member] is None:
                        self._decided(member, t)
                if reactive:
                    self._adversary_phase()
                    reactive = strategy.reactive
            del instants[t]
        self.events = events
        return self._report()

    def _decided(self, pid, t):
        """Party `pid` has just set its output, on a message or on a coin output."""
        self.output_times[pid] = t
        if self.log is not None:
            self.log.append({"time": t, "kind": "output", "party": pid, "detail": repr(self.parties[pid].output)})

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
        pairs = []  # (fair, b_star) across oracle and majority-bit instances
        for ci in self.coin_instances:
            eff = ci.resolve(self.corrupted)
            max_off = max((t for m, t in ci.output_times.items() if m not in self.corrupted),
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
        if hasattr(self.protocol, "benor_truth"):
            for inst, g, b in self.protocol.benor_truth(self._trial_ctx, self.corrupted):
                truth.append({"instance": inst, "g_drawn": g, "fair": g, "b_star": b, "max_offset": None})
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
        bucket = {"bit": 0, "tagged": 0, "opaque": 0}
        for kind, count in enumerate(self._kind_count):
            bucket[self._kind_bucket[kind]] += count

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
            msg_count_by_bucket=bucket,
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


def run_simulation(protocol, strategy, seed: int, log=None, replay=None, **kw) -> TrialReport:
    """Build one Simulation, run it to quiescence, return the report.

    Given a list as `log`, the run appends its event records there as they happen.

    Given a dict as `replay`, shared by calls with the same protocol, strategy
    spec and keywords, the trial's coin draws key it: a run that drew no
    other randomness stores its report there, and a later call without a
    `log` whose draws are stored gets that report with its own seed, unrun
    (module docstring). A served report shares its lists and dicts with the
    stored one, so reports are read-only.

    A finished trial holds no reference cycles and is freed by reference
    counting, so the cyclic collector is paused while it runs (its envelopes
    would otherwise set off young-generation scans of live objects) and the
    caller's collector state is restored on the way out, also on an error.
    """
    draws = None
    if replay is not None:
        draws = coin_draws(protocol, seed)
        hit = replay.get(draws) if log is None else None
        if hit is not None:
            return replace(hit, seed=seed)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulation(protocol, strategy, seed, log=log, draws=draws, **kw)
        report = sim.run()
        if replay is not None and not sim.drew:
            replay[draws] = report
        del sim  # freed here, before the collector can run again
        return report
    finally:
        if enabled:
            gc.enable()
