"""Protocol state machines: crusader agreement, committee bit publishing, the
committee coin, and the strong-coin-to-weak-coin transformation.

The party interface. A protocol gives `n`, `setup_trial(rng)` (the per-trial
context, drawn from its own seeded stream) and `make_party(pid, ctx)`. A party
gives `on_start()` and `on_message(env)`, each returning the
(recipients, inst, kind, payload) batches to send, and `output`, None until it
decides. `on_coin(inst, bit)` is called only on members of oracle coin
instances. A protocol may also give `tag_space` and `maj_tag_space` (the
instance counts that size the wire tags), `coin_specs` (the oracle coins the
simulator runs) and `benor_truth(ctx, corrupted)` (the (inst, fair, b*) of
each majority-bit coin its parties run); the simulator reads 1, 1 and no coins
where they are missing. Every role below is a party: a standalone protocol's
`make_party` returns the role itself, `PublishProtocol.role` builds every
publish role, and the transformation party routes each envelope to its role
in that instance. Scheduling, corruption, accounting and payload checks live in `simnet`.

Crusader agreement (binary, tolerates t < s/3 inside a committee of size s):
  1. broadcast VAL(input);
  2. on t+1 distinct echoes (VAL or RELAY) of a bit, relay it once;
     on 2t+1 distinct echoes, accept it;
  3. on first accepted bit, broadcast one AUX carrying it;
  4. once s-t distinct senders' AUX values all lie in the accepted set:
     output the bit if they are unanimous, else output bot.
Validity, weak agreement and liveness hold with <= 3 message delays and at
most 4 broadcasts (4s^2 messages) per honest run.

Publish(Q, d): members run crusader on their input bits, send their crusader
output to their graph neighbors, and output their own input directly.
Non-members output b once more than Delta/2 distinct neighbors sent b or bot
(a simultaneous double-threshold resolves deterministically to 0).

Transformation: party i runs the committee coin in every committee containing
i and feeds the coin output into that committee's publish instance (every
publish graph must have the derived degree delta_cap). Each toss then takes
two majority votes, ties going to 0 in both:
  1. the live vote counts one publish output per committee; when the count
     reaches the live threshold, the party broadcasts the majority as MAJ, once;
  2. the output vote counts the first MAJ bit from each sender; when the count
     reaches floor(2n/3)+1, the majority is the toss bit.
An ell-bit toss is ell parallel runs of this: toss e uses coin, crusader and
publish instances e*q .. e*q+q-1 and MAJ instance e, and a party outputs once
every toss has its bit, the bits concatenated with toss 0 highest (at ell = 1,
the plain bit).
"""

from __future__ import annotations

import math
import random

from .combinatorics import CommitteeLayout, PublishGraph
from .params import CoinParams, DerivedParams, ParamError, crusader_fault_bound, overload_quota
from .simnet import BOT, CoinSpec, K_COIN, K_CRUS_AUX, K_CRUS_RELAY, K_CRUS_VAL, K_MAJ, K_PUB


class CrusaderSM:
    __slots__ = ("members", "members_set", "t_local", "inst", "input",
                 "echo_senders", "relayed", "accepted", "aux_sent", "aux_from", "output")

    def __init__(self, members, t_local, inst, input=None):
        self.members = members
        self.members_set = frozenset(members)
        self.t_local = t_local
        self.inst = inst
        self.input = input
        self.echo_senders = (set(), set())
        self.relayed = [False, False]
        self.accepted = [False, False]
        self.aux_sent = False
        self.aux_from = {}
        self.output = None

    def on_start(self):
        if self.input is None:
            return []
        return [(self.members, self.inst, K_CRUS_VAL, self.input)]

    def on_message(self, env):
        out = []
        sender, kind, payload = env.sender, env.kind, env.payload
        if sender not in self.members_set:
            return out
        if kind == K_CRUS_VAL or kind == K_CRUS_RELAY:
            seen = self.echo_senders[payload]
            if sender in seen:
                return out
            seen.add(sender)
            count = len(seen)
            if count >= self.t_local + 1 and not self.relayed[payload]:
                self.relayed[payload] = True
                out.append((self.members, self.inst, K_CRUS_RELAY, payload))
            if count >= 2 * self.t_local + 1 and not self.accepted[payload]:
                self.accepted[payload] = True
                if not self.aux_sent:
                    self.aux_sent = True
                    out.append((self.members, self.inst, K_CRUS_AUX, payload))
                self._try_output()
        elif kind == K_CRUS_AUX:
            if sender not in self.aux_from:
                self.aux_from[sender] = payload
                self._try_output()
        return out

    def _try_output(self):
        if self.output is not None:
            return
        count = 0
        values = 0b00
        for b in self.aux_from.values():
            if self.accepted[b]:
                count += 1
                values |= 1 << b
        if count >= len(self.members) - self.t_local:
            self.output = BOT if values == 0b11 else (values >> 1)  # 0b01 -> 0, 0b10 -> 1


class PublishMemberSM:
    """Member role: crusader, then one fan-out of the crusader output.

    The output is the member's own input, taken when the fan-out is sent. A
    crusader that finishes before the input is set (the member's coin is
    late) fans out once all the same, and that member's output stays None.
    """

    __slots__ = ("crusader", "receivers", "inst", "pub_sent", "output")
    discarded_non_neighbor = 0  # only receivers discard publish sends

    def __init__(self, members, t_local, inst, receivers, input=None):
        self.crusader = CrusaderSM(members, t_local, inst, input)
        self.receivers = receivers
        self.inst = inst
        self.pub_sent = False
        self.output = None

    def on_start(self):
        return self.crusader.on_start()

    def set_input(self, b):
        self.crusader.input = b
        return self.crusader.on_start()

    def on_message(self, env):
        if env.kind == K_PUB:
            return []  # member vertices never tally publish sends
        crusader = self.crusader
        msgs = crusader.on_message(env)
        if crusader.output is not None and not self.pub_sent:
            self.pub_sent = True
            if self.receivers:
                msgs.append((self.receivers, self.inst, K_PUB, crusader.output))
            self.output = crusader.input
        return msgs


class PublishReceiverSM:
    __slots__ = ("neighbors", "delta", "seen", "c0", "c1", "output", "discarded_non_neighbor")

    def __init__(self, neighbors, delta):
        self.neighbors = neighbors
        self.delta = delta
        self.seen = set()
        self.c0 = 0
        self.c1 = 0
        self.output = None
        self.discarded_non_neighbor = 0

    def on_start(self):
        return []

    def on_message(self, env):
        sender, payload = env.sender, env.payload
        if env.kind != K_PUB:
            return []
        if sender not in self.neighbors:
            self.discarded_non_neighbor += 1
            return []
        if sender in self.seen:
            return []
        self.seen.add(sender)
        if payload != 1:
            self.c0 += 1
        if payload != 0:
            self.c1 += 1
        if self.output is None:
            # a bot arrival can cross both thresholds at once; 0 wins deterministically
            hit0 = 2 * self.c0 > self.delta
            hit1 = 2 * self.c1 > self.delta
            if hit0:
                self.output = 0
            elif hit1:
                self.output = 1
        return []


class BenorSM:
    """Majority-of-generated-bits committee coin: broadcast, wait s - t, majority."""

    __slots__ = ("members", "members_set", "inst", "bit", "wait", "seen", "ones", "output")

    def __init__(self, members, t_local, inst, bit):
        self.members = members
        self.members_set = frozenset(members)
        self.inst = inst
        self.bit = bit
        self.wait = len(members) - t_local
        self.seen = set()
        self.ones = 0
        self.output = None

    def on_start(self):
        return [(self.members, self.inst, K_COIN, self.bit)]

    def on_message(self, env):
        sender, payload = env.sender, env.payload
        if env.kind != K_COIN or self.output is not None or sender not in self.members_set or sender in self.seen:
            return []
        self.seen.add(sender)
        self.ones += payload
        if len(self.seen) == self.wait:
            self.output = 1 if 2 * self.ones > self.wait else 0
        return []


# --- transformation party ----------------------------------------------------


class TransformParty:
    """One party in all ell tosses. Roles are keyed by global instance id
    e*q + j: its publish role in `pub`, its majority-bit coin in `benor`.
    Toss e runs two majority votes, each a tally [zeros, ones] whose ties go to 0:
      - v[e] counts each of the toss's q publish instances once, when its
        role's output first becomes non-None; when v[e] reaches the live
        threshold, the party broadcasts MAJ(e) with the majority bit, once;
      - w[e] counts the first MAJ(e) bit of each sender (maj_from[e] holds
        the senders counted); when w[e] reaches floor(2n/3)+1, the majority
        is the toss bit bits[e], and later MAJ(e) change nothing.
    The output is set when the last toss gets its bit."""

    __slots__ = ("proto", "pub", "benor", "v", "w", "maj_from", "bits", "output")

    def __init__(self, pid, proto, ctx):
        self.proto = proto
        self.pub = {}
        self.benor = {}
        q, ell = proto.q, proto.ell
        for inst in range(q * ell):
            publish = proto.publish[inst % q]
            self.pub[inst] = publish.role(pid, inst)
            if proto.coin_mode == "benor" and pid in publish.member_set:
                self.benor[inst] = BenorSM(publish.committee, proto.t_local, inst, ctx[(inst, pid)])
        self.v = [[0, 0] for _ in range(ell)]
        self.w = [[0, 0] for _ in range(ell)]
        self.maj_from = [set() for _ in range(ell)]
        self.bits = [None] * ell
        self.output = None

    def on_start(self):
        return [msg for sm in self.benor.values() for msg in sm.on_start()]

    def on_coin(self, inst, bit):
        # called once per member and instance; the member's publish output is
        # taken from a later crusader message, never here
        return self.pub[inst].set_input(bit)

    def on_message(self, env):
        kind, inst = env.kind, env.inst
        if kind == K_MAJ:
            # MAJ instance = toss
            bits, sender, w = self.bits, env.sender, self.w[inst]
            if bits[inst] is None and sender not in self.maj_from[inst]:
                self.maj_from[inst].add(sender)
                w[env.payload] += 1
                if w[0] + w[1] == self.proto.output_threshold:
                    bits[inst] = 0 if w[0] >= w[1] else 1
                    if None not in bits:  # toss 0 highest
                        value = 0
                        for bit in bits:
                            value = (value << 1) | bit
                        self.output = value
            return []
        if kind == K_COIN:
            sm = self.benor.get(inst)
            if sm is not None and sm.output is None:
                sm.on_message(env)
                if sm.output is not None:
                    return self.on_coin(inst, sm.output)
            return []
        # each publish role ignores the kinds it does not handle
        sm = self.pub[inst]
        counted = sm.output is not None
        msgs = sm.on_message(env)
        if not counted and sm.output is not None:
            proto = self.proto
            e = inst // proto.q
            v = self.v[e]
            v[sm.output] += 1
            if v[0] + v[1] == proto.live_threshold:
                return msgs + [(proto.all_parties, e, K_MAJ, 0 if v[0] >= v[1] else 1)]
        return msgs

    @property
    def discarded_non_neighbor(self):
        return sum(sm.discarded_non_neighbor for sm in self.pub.values())


# perfbench's tracer patches the handlers of `protocols.MultiParty` by name
MultiParty = TransformParty


def check_layout_matches(n: int, dp: DerivedParams, layout: CommitteeLayout, graphs=()) -> None:
    """Refuse a layout built for another instance: its n, q and s, and the degree of
    every given publish graph, must be n and the derived dp.q, dp.s and dp.delta_cap."""
    if (layout.q != dp.q or layout.n != n or layout.s != dp.s
            or any(g.delta_cap != dp.delta_cap for g in graphs)):
        raise ParamError(f"layout does not match the derived parameters q={dp.q} n={n} s={dp.s} "
                         f"and publish graph degree delta_cap={dp.delta_cap}")


class MajorityBitCoins:
    """Setup and ground truth of the majority-bit coins (`BenorSM`) a protocol's
    parties run: `benor_instances` lists them as (inst, members), none over
    oracle coins, and `t_local` is the fault bound inside each."""

    def setup_trial(self, rng: random.Random) -> dict:
        """Each member's generated bit per (inst, member), drawn in list order, then member order."""
        return {(inst, m): rng.getrandbits(1) for inst, members in self.benor_instances for m in members}

    def benor_truth(self, ctx, corrupted) -> list:
        """(inst, fair, b*) of each instance from its honest members' generated bits."""
        return [(inst, *benor_ground_truth([ctx[(inst, m)] for m in members if m not in corrupted],
                                           len(members), self.t_local))
                for inst, members in self.benor_instances]


class TransformProtocol(MajorityBitCoins):
    """Factory for ell parallel tosses of the transformed coin over a fixed
    committee layout (instance layout in the module docstring). For a
    delta-fair ell-bit value each toss needs per-bit fairness
    `per_bit_delta(delta, ell)`.
    """

    def __init__(
        self,
        cp: CoinParams,
        dp: DerivedParams,
        layout: CommitteeLayout,
        graphs: list[PublishGraph],
        coin_mode: str = "ideal",
        ell: int = 1,
    ):
        check_layout_matches(cp.n, dp, layout, graphs)
        if [g.committee_id for g in graphs] != list(range(dp.q)):
            raise ParamError("need one publish graph per committee, in committee_id order")
        if not (1 <= dp.live_threshold <= dp.q):
            raise ParamError("live threshold outside [1, q]; adjust z")
        if coin_mode not in ("ideal", "benor"):
            raise ParamError("coin_mode must be 'ideal' or 'benor'")
        if ell < 1:
            raise ParamError("ell must be at least 1")
        self.layout = layout
        self.coin_mode = coin_mode
        self.ell = ell

        self.n = layout.n
        self.q = dp.q
        self.bad_quota = overload_quota(cp.alpha, dp.s)  # corrupted members that make a committee bad
        self.live_threshold = dp.live_threshold
        self.output_threshold = dp.output_threshold
        self.t_local = crusader_fault_bound(dp.s)
        self.tag_space = dp.q * ell
        self.maj_tag_space = ell
        self.all_parties = tuple(range(self.n))

        self.publish = [PublishProtocol(c, self.n, g, None) for c, g in zip(layout.committees, graphs)]
        instances = [(e * self.q + j, p.committee) for e in range(ell) for j, p in enumerate(self.publish)]
        if coin_mode == "ideal":
            self.coin_specs = [CoinSpec(inst, members, cp.delta, cp.R, self.bad_quota)
                               for inst, members in instances]
            self.benor_instances = []
        else:
            self.benor_instances = instances

    def make_party(self, pid, ctx):
        return TransformParty(pid, self, ctx)


def per_bit_delta(target_delta: float, ell: int) -> float:
    return 1.0 - (1.0 - target_delta) / ell


def elect_leader(value: int, n: int) -> int:
    """Map an ell-bit coin value to a party id in 1..n."""
    if n < 1 or value < 0:
        raise ParamError("need n >= 1 and a nonnegative coin value")
    return value % n + 1


def benor_ground_truth(honest_bits, s: int, t_local: int):
    """(fair, b*) per the schedule-independence threshold.

    The common output is forced regardless of scheduling iff some bit was
    generated by at least ceil((s + t_local + 1)/2) honest members.
    """
    need = math.ceil((s + t_local + 1) / 2)
    ones = sum(honest_bits)
    zeros = len(honest_bits) - ones
    if ones >= need:
        return True, 1
    if zeros >= need:
        return True, 0
    return False, None


# --- standalone factories ----------------------------------------------------


class CrusaderProtocol:
    """s parties running one crusader instance on given inputs.

    `inputs` is a list of bits or a callable rng -> list (fresh inputs per
    trial). Corrupted parties' inputs are ignored by the harness anyway.
    """

    def __init__(self, s: int, inputs, t_local: int | None = None):
        self.n = s
        self.t_local = crusader_fault_bound(s) if t_local is None else t_local
        self.members = tuple(range(s))
        self.inputs = inputs

    def setup_trial(self, rng):
        return list(self.inputs(rng)) if callable(self.inputs) else list(self.inputs)

    def make_party(self, pid, ctx):
        return CrusaderSM(self.members, self.t_local, 0, ctx[pid])


class PublishProtocol:
    """One committee publishing over one graph; receivers are everyone else.
    `role` builds every publish role, standalone and inside the transformation."""

    def __init__(self, committee: tuple[int, ...], n: int, graph: PublishGraph, inputs):
        self.committee = tuple(sorted(committee))
        self.member_set = frozenset(committee)
        self.n = n
        self.inputs = inputs  # dict member -> bit, or callable rng -> dict
        self.t_local = crusader_fault_bound(len(committee))
        self.delta_cap = graph.delta_cap
        self.neighbor_sets = [frozenset(row) for row in graph.adjacency]
        served = {m: [] for m in self.committee}  # member -> the receiver vertices it serves, ascending
        for v, row in enumerate(graph.adjacency):
            for m in row:
                served[m].append(v)
        self.receivers_of = {m: tuple(vs) for m, vs in served.items()}

    def setup_trial(self, rng):
        return dict(self.inputs(rng)) if callable(self.inputs) else dict(self.inputs)

    def role(self, pid, inst, input=None):
        """Party pid's role in publish instance `inst`: member or receiver."""
        if pid in self.member_set:
            return PublishMemberSM(self.committee, self.t_local, inst, self.receivers_of[pid], input)
        return PublishReceiverSM(self.neighbor_sets[pid], self.delta_cap)

    def make_party(self, pid, ctx):
        return self.role(pid, 0, ctx[pid] if pid in self.member_set else None)


class BenorCoinProtocol(MajorityBitCoins):
    """Standalone majority-bit committee coin among s parties."""

    def __init__(self, s: int, t_local: int):
        self.n = s
        self.t_local = t_local
        self.members = tuple(range(s))
        self.benor_instances = [(0, self.members)]

    def make_party(self, pid, ctx):
        return BenorSM(self.members, self.t_local, 0, ctx[(0, pid)])
