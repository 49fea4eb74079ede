"""Adversary strategies: the scheduling/corruption plugin API plus built-ins.

A strategy sees the run only through an AdversaryView, one channel per decision:

  * bind(view, rng) runs before the first event: it takes the per-trial rng,
    a stream seeded on its first draw (`simnet.RngStream`), and may refuse
    the run from view.n, view.mode or view.protocol. A strategy draws its
    randomness from this rng only: a run whose streams were never drawn from
    is replayed from its coin draws (`simnet` module docstring).
  * delay_for(env) is consulted once per cross-party send and returns the
    delivery delay in (0, 1]; None means the 1-unit deadline. This is sugar
    for an immediate "delay" action and keeps the common path cheap.
  * coin_offsets(spec, view) times an instance's coin outputs at activation:
    it returns None (every member at R) or a member -> offset dict.
  * next_action(view) is polled after every delivery or coin output (a stale
    queue entry polls no one) while it returns actions
    (corrupt / drop / delay / inject / coin_set); None means "nothing now".
    delay(eid, view.now) delivers at once; coin_set(..., bit=b) alone picks
    an unfair coin member's output (0 otherwise) before it is delivered.
    Only strategies with `reactive` true are polled; one with nothing left
    to do sets `reactive = False`, which the run loop re-reads after each
    adversary phase, never polling it again. A strategy that decides
    everything at its first poll subclasses PlannedStrategy: plan(view) lists
    the actions, handed out in order before the flag turns off.

The view is detached once run() returns, and a trial runs with the cyclic
collector paused, so a strategy should build no reference cycles it expects
to be collected mid-run.

Every built-in declares its CLI name and builds itself from the string
arguments of a spec "name:a,b" (`from_args`), refusing more arguments than it
takes; `built_in_strategies()` is the one name table and `build_strategy` the
one place specs become strategies.

Built-ins (all deterministic given their bound seed):

  fifo               every delivery at the deadline, order = send order.
  random_delay       seeded delays on a dyadic 1/256 grid (exact in binary64,
                     so uniformly rescaling by powers of two is lossless).
  committee_targeter corrupts the protocol's bad_quota (the least integer
                     >= alpha*s) members of each named committee, lowest ids
                     first, dropping their in-flight messages; overdrawing
                     the corruption budget faults the strategy, and so does
                     a protocol without a committee layout.
  publish_delayer    holds publish fan-out messages toward a receiver fraction
                     at the deadline, everything else travels faster.
  benor_biaser       full-information attack on the majority-bit coin: corrupt
                     late members, read honest bits in flight, counter the
                     majority and split delivery orders between two halves of
                     the committee. Demands payload visibility and therefore
                     faults in secure-channel mode.
"""

from __future__ import annotations

import functools
import math

from .params import ParamError
from .simnet import AdversaryAction, DEADLINE, K_COIN, K_PUB, MIN_DELAY, RngStream, StrategyViolation


class Strategy:
    name = "base"
    reactive = False

    @classmethod
    def from_args(cls, args):
        """Instance from the string arguments of a CLI spec."""
        _at_most(args, 0)
        return cls()

    def bind(self, view, rng):
        self.rng = rng

    def delay_for(self, env):
        return None  # deadline

    def next_action(self, view):
        return None

    def coin_offsets(self, spec, view):
        """Member -> output offset in (0, R]; None puts every member at R. A strategy
        that is never polled (random_delay) cannot coin_set, so it times coin outputs here."""
        return None


def _at_most(args, count):
    if len(args) > count:
        raise ValueError(f"takes at most {count} argument{'' if count == 1 else 's'}, not {len(args)}")


class PlannedStrategy(Strategy):
    """Reactive until its plan is drained: `plan(view)` runs at the first poll
    and lists every action, and next_action hands them out in that order."""

    reactive = True
    _actions = None  # iterator over the plan, set at the first poll

    def next_action(self, view):
        if self._actions is None:
            self._actions = iter(self.plan(view))
        act = next(self._actions, None)
        if act is None:
            self.reactive = False  # plan drained
        return act


class FifoStrategy(Strategy):
    name = "fifo"


class RandomDelayStrategy(Strategy):
    """Uniform dyadic delays in (0, scale]; coin outputs at R*scale."""

    name = "random_delay"

    def __init__(self, scale: float = 1.0):
        if not (0.0 < scale <= 1.0):
            raise ValueError("scale must be in (0, 1]")
        self.scale = scale

    @classmethod
    def from_args(cls, args):
        _at_most(args, 1)
        return cls(float(args[0]) if args else 1.0)

    def delay_for(self, env):
        return self.rng.randrange(1, 257) / 256.0 * self.scale

    def coin_offsets(self, spec, view):
        return {m: spec.R * self.scale for m in spec.members}


class CommitteeTargeterStrategy(PlannedStrategy):
    """Corrupt enough members of each named committee to make it bad.

    Quota per committee is the protocol's `bad_quota`, the least integer >=
    alpha*s, at which its coin turns unfair; already-corrupted members count
    toward it. Corruption happens at the first adversary phase (time 0) and
    the victims' undelivered messages are dropped. A target list whose quotas
    exceed the budget faults at the first overdrawing corruption.
    """

    name = "committee_targeter"

    def __init__(self, targets):
        self.targets = list(targets)

    @classmethod
    def from_args(cls, args):
        return cls([int(a) for a in args])  # any number of targets

    def bind(self, view, rng):
        layout = getattr(view.protocol, "layout", None)
        if layout is None:
            raise StrategyViolation("committee_targeter needs a protocol with a committee layout")
        if not all(0 <= j < layout.q for j in self.targets):
            raise ParamError(f"committee_targeter: target ids {self.targets} must lie in [0, {layout.q})")
        super().bind(view, rng)

    def plan(self, view):
        proto = view.protocol
        quota = proto.bad_quota
        chosen = set(view.corrupted)
        actions = []
        for j in self.targets:
            committee = sorted(proto.layout.committees[j])
            have = sum(1 for m in committee if m in chosen)
            for m in committee:
                if have >= quota:
                    break
                if m not in chosen:
                    chosen.add(m)
                    have += 1
                    actions.append(AdversaryAction.corrupt(m))
        new = {a.party for a in actions}
        for env in view.pending_envelopes():
            if env.sender in new:
                actions.append(AdversaryAction.drop(env.id))
        return actions


class PublishDelayerStrategy(Strategy):
    """Publish fan-out toward the first ceil(fraction*n) receivers waits until
    the deadline; all other traffic moves at BASE_DELAY."""

    name = "publish_delayer"
    BASE_DELAY = 0.5

    def __init__(self, fraction: float):
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction

    @classmethod
    def from_args(cls, args):
        _at_most(args, 1)
        return cls(float(args[0]) if args else 1.0)

    def bind(self, view, rng):
        super().bind(view, rng)
        self._cut = math.ceil(self.fraction * view.n)

    def delay_for(self, env):
        if env.kind == K_PUB and env.recipient < self._cut:
            return DEADLINE
        return self.BASE_DELAY


class BenorBiaserStrategy(PlannedStrategy):
    """Counter the honest majority of a majority-bit committee coin.

    Needs full-information mode (it reads honest coin bits in flight) and a
    positive corruption budget. Corrupts the highest-id members, silences
    them, injects the countering bit from them, then delivers bit-sorted
    orders to the two halves of the committee so slim majorities split.
    """

    name = "benor_biaser"
    EARLY = 0.25  # delay of the bits a half hears first; the others wait for the deadline

    def bind(self, view, rng):
        if view.mode != "full_info":
            raise StrategyViolation("benor_biaser demands payload visibility (full-information mode)")
        super().bind(view, rng)

    def plan(self, view):
        n = view.n
        budget = view.budget_remaining
        if budget <= 0:
            return []
        victims = list(range(n - budget, n))
        actions = [AdversaryAction.corrupt(p) for p in victims]
        victim_set = set(victims)
        pending = view.pending_envelopes()
        honest_bits = {}
        for env in pending:
            if env.kind != K_COIN:
                continue
            if env.sender in victim_set:
                actions.append(AdversaryAction.drop(env.id))
            else:
                honest_bits.setdefault(env.sender, env.payload)  # full-info read
        ones = sum(honest_bits.values())
        b_maj = 1 if 2 * ones > len(honest_bits) else 0
        counter = 1 - b_maj
        for p in victims:
            for r in range(n):
                if r in victim_set:
                    continue
                actions.append(AdversaryAction.inject(
                    {"sender": p, "recipient": r, "inst": 0, "kind": K_COIN, "payload": counter},
                    time=MIN_DELAY))
        # group A (low ids) hears majority-bit senders first, group B the rest
        half = n // 2
        for env in pending:
            if env.kind != K_COIN or env.sender in victim_set or env.recipient == env.sender:
                continue
            favors_maj = env.payload == b_maj
            early_for_recipient = favors_maj if env.recipient < half else not favors_maj
            t = env.sent_at + (self.EARLY if early_for_recipient else DEADLINE)
            actions.append(AdversaryAction.delay(env.id, t))
        return actions


class CombinedStrategy(Strategy):
    """Compose strategies; later parts win delay_for, actions drain in order.

    Each part gets its own stream. At the first draw by any part, every
    part's seed is drawn from the combined strategy's rng, getrandbits(63) in
    part order, so a combination whose parts never draw leaves its rng unbuilt.
    """

    name = "combined"

    def __init__(self, *parts):
        self.parts = list(parts)

    @property
    def reactive(self):
        return any(getattr(p, "reactive", False) for p in self.parts)

    def bind(self, view, rng):
        super().bind(view, rng)
        count, seeds = len(self.parts), []

        def seed_of(i):  # holds the rng and the seeds, not the strategy, so no cycle
            if not seeds:
                seeds.extend(rng.getrandbits(63) for _ in range(count))
            return seeds[i]

        for i, p in enumerate(self.parts):
            p.bind(view, RngStream(functools.partial(seed_of, i)))
        # a part that keeps the base delay_for always answers None and draws
        # nothing, so skipping it changes neither the winner nor any rng stream
        self._delayers = [p.delay_for for p in self.parts
                          if "delay_for" in vars(p) or type(p).delay_for is not Strategy.delay_for]
        if len(self._delayers) == 1:
            self.delay_for = self._delayers[0]

    def delay_for(self, env):
        chosen = None
        for delay_for in self._delayers:
            d = delay_for(env)
            if d is not None:
                chosen = d
        return chosen

    def next_action(self, view):
        for p in self.parts:
            act = p.next_action(view)
            if act is not None:
                return act
        return None

    def coin_offsets(self, spec, view):
        merged = {}
        for p in self.parts:
            offsets = p.coin_offsets(spec, view)
            if offsets is not None:
                if not isinstance(offsets, dict):
                    raise StrategyViolation(f"coin offsets are None or a member -> offset dict, not {offsets!r}")
                merged.update(offsets)
        return merged or None


_BUILT_IN = {cls.name: cls for cls in (FifoStrategy, RandomDelayStrategy, CommitteeTargeterStrategy,
                                       PublishDelayerStrategy, BenorBiaserStrategy)}


def built_in_strategies() -> dict:
    """Name -> class for the stock adversaries; each parses its own CLI arguments."""
    return dict(_BUILT_IN)


def build_strategy(spec: dict):
    """Fresh strategy instance per trial (strategies carry per-run state).

    `spec` is {"name", "args"} or {"name": "combined", "parts": [...]}, as
    `config.parse_strategy_spec` writes it; a block without a string name,
    args that are not a list of strings, a combined block without a list of
    parts, unknown names and unparsable or surplus arguments are ParamErrors.
    """
    if _name(spec) == "combined":
        parts = spec.get("parts")
        if not isinstance(parts, list):
            raise ParamError(f"a combined strategy block needs a list of 'parts', not {parts!r}")
        return CombinedStrategy(*[_build_one(p) for p in parts])
    return _build_one(spec)


def _name(spec) -> str:
    if not isinstance(spec, dict) or type(spec.get("name")) is not str:
        raise ParamError(f"a strategy block needs a string 'name', not {spec!r}")
    return spec["name"]


def _build_one(spec: dict):
    cls = _BUILT_IN.get(_name(spec))
    if cls is None:
        raise ParamError(f"unknown strategy {spec['name']!r}")
    args = spec.get("args", [])
    if not isinstance(args, list) or not all(type(a) is str for a in args):
        raise ParamError(f"strategy {spec['name']!r} needs 'args' as a list of strings, not {args!r}")
    try:
        return cls.from_args(args)
    except ValueError as exc:
        raise ParamError(f"bad arguments {args!r} for strategy {spec['name']!r}: {exc}") from None
