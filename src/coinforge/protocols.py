"""Protocol state machines: crusader agreement, committee bit publishing, and
the strong-coin-to-weak-coin transformation.

All machines are pure transition objects: events (an input, an envelope, a
coin output) go in, messages and at most one output come out. Scheduling,
corruption and accounting live entirely in `simnet`.

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
i, feeds the coin output into that committee's publish instance, tallies
publish outputs v_b, broadcasts the majority bit exactly when v0+v1 hits the
live threshold, tallies first-bit-per-sender w_b, and outputs the majority
exactly when w0+w1 hits floor(2n/3)+1 (ties resolve to 0 in both places).
"""

from __future__ import annotations

import math
import random

from .combinatorics import CommitteeLayout, PublishGraph
from .params import CoinParams, DerivedParams, ParamError
from .simnet import BOT, CoinSpec, K_COIN, K_CRUS_AUX, K_CRUS_RELAY, K_CRUS_VAL, K_MAJ, K_PUB


def crusader_fault_bound(s: int) -> int:
    return math.ceil(s / 3) - 1


class CrusaderSM:
    __slots__ = ("pid", "members", "members_set", "t_local", "inst",
                 "echo_senders", "relayed", "accepted", "aux_sent", "aux_from", "output")

    def __init__(self, pid, members, t_local, inst):
        self.pid = pid
        self.members = members
        self.members_set = frozenset(members)
        self.t_local = t_local
        self.inst = inst
        self.echo_senders = (set(), set())
        self.relayed = [False, False]
        self.accepted = [False, False]
        self.aux_sent = False
        self.aux_from = {}
        self.output = None

    def start(self, b):
        return [(self.members, self.inst, K_CRUS_VAL, b)]

    def on_msg(self, sender, kind, payload):
        out = []
        if sender not in self.members_set or payload not in (0, 1):
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
    """Member role: crusader, then one fan-out of the crusader output."""

    __slots__ = ("crusader", "receivers", "inst", "input", "pub_sent", "publish_output")

    def __init__(self, pid, members, t_local, inst, receivers):
        self.crusader = CrusaderSM(pid, members, t_local, inst)
        self.receivers = receivers
        self.inst = inst
        self.input = None
        self.pub_sent = False
        self.publish_output = None

    def set_input(self, b):
        self.input = b
        return self.crusader.start(b)

    def on_msg(self, sender, kind, payload):
        if kind == K_PUB:
            return []  # member vertices never tally publish sends
        msgs = self.crusader.on_msg(sender, kind, payload)
        if self.crusader.output is not None and not self.pub_sent:
            self.pub_sent = True
            if self.receivers:
                msgs.append((self.receivers, self.inst, K_PUB, self.crusader.output))
            self.publish_output = self.input
        return msgs


class PublishReceiverSM:
    __slots__ = ("neighbors", "delta", "seen", "c0", "c1", "output", "discarded")

    def __init__(self, neighbors, delta):
        self.neighbors = neighbors
        self.delta = delta
        self.seen = set()
        self.c0 = 0
        self.c1 = 0
        self.output = None
        self.discarded = 0

    def on_pub(self, sender, payload):
        if payload not in (0, 1, BOT):
            return
        if sender not in self.neighbors:
            self.discarded += 1
            return
        if sender in self.seen:
            return
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


class BenorSM:
    """Majority-of-generated-bits committee coin: broadcast, wait s - t, majority."""

    __slots__ = ("members_set", "wait", "seen", "ones", "result")

    def __init__(self, members, t_local):
        self.members_set = frozenset(members)
        self.wait = len(members) - t_local
        self.seen = set()
        self.ones = 0
        self.result = None

    def on_coin_msg(self, sender, payload):
        if self.result is not None or payload not in (0, 1) or sender not in self.members_set:
            return None
        if sender in self.seen:
            return None
        self.seen.add(sender)
        self.ones += payload
        if len(self.seen) == self.wait:
            self.result = 1 if 2 * self.ones > self.wait else 0
            return self.result
        return None


def ideal_strong_coin(inst: int, members: tuple[int, ...], delta: float, R: float,
                      alpha: float, t_local: int = 0) -> CoinSpec:
    """Oracle-backed committee coin: fair with probability delta per instance,
    every honest member outputs the common fresh bit within R of activation,
    the adversary chooses output times (and, for unfair instances, the member
    outputs). The drawn bit is revealed to the adversary view at activation.
    The contract is void once alpha*|members| members are corrupted."""
    if not (0.0 < delta <= 1.0):
        raise ParamError("delta must be in (0, 1]")
    if R <= 0:
        raise ParamError("R must be positive")
    return CoinSpec(inst, tuple(members), delta, R, alpha * len(members),
                    mode="ideal", t_local=t_local)


def benor_strong_coin(inst: int, members: tuple[int, ...], t_local: int) -> CoinSpec:
    """Majority-of-broadcast-bits committee coin, run as real message traffic."""
    return CoinSpec(inst, tuple(members), 1.0, 1.0, math.inf,
                    mode="benor", t_local=t_local)


def reverse_adjacency(committee, graph: PublishGraph) -> dict:
    """Reverse adjacency of a publish graph: member -> the receiver vertices it serves, ascending."""
    rev = {m: [] for m in committee}
    for v, neighbors in enumerate(graph.adjacency):
        for m in neighbors:
            rev[m].append(v)
    return {m: tuple(vs) for m, vs in rev.items()}


# --- transformation party ----------------------------------------------------


class TransformParty:
    __slots__ = ("pid", "proto", "base", "maj_inst", "member_pub", "recv_pub", "benor",
                 "v0", "v1", "w0", "w1", "maj_sent", "seen_maj", "seen_pub", "output", "_bits")

    def __init__(self, pid, proto, bits, base=0, maj_inst=0):
        self.pid = pid
        self.proto = proto
        self.base = base  # global instance id of this coin group's committee 0
        self.maj_inst = maj_inst
        self.member_pub = {}
        self.recv_pub = {}
        self.benor = {}
        for j in range(proto.q):
            if pid in proto.member_sets[j]:
                self.member_pub[j] = PublishMemberSM(
                    pid, proto.committees[j], proto.t_local, base + j, proto.receivers_of[j][pid])
                if proto.coin_mode == "benor":
                    self.benor[j] = BenorSM(proto.committees[j], proto.t_local)
            else:
                self.recv_pub[j] = PublishReceiverSM(proto.neighbor_sets[j][pid], proto.delta_cap)
        self.v0 = self.v1 = self.w0 = self.w1 = 0
        self.maj_sent = False
        self.seen_maj = set()
        self.seen_pub = set()
        self.output = None
        self._bits = bits

    def on_start(self):
        if self.proto.coin_mode != "benor":
            return []
        return [(self.proto.committees[j], self.base + j, K_COIN, self._bits[(self.base + j, self.pid)])
                for j in sorted(self.benor)]

    def on_coin(self, inst, bit):
        j = inst - self.base
        sm = self.member_pub.get(j)
        if sm is None or sm.input is not None:
            return []
        msgs = sm.set_input(bit)
        return msgs + self._member_done(j)

    def _member_done(self, j):
        sm = self.member_pub[j]
        if sm.publish_output is not None and j not in self.seen_pub:
            return self._pub_output(j, sm.publish_output)
        return []

    def _pub_output(self, j, b):
        self.seen_pub.add(j)
        if b == 0:
            self.v0 += 1
        else:
            self.v1 += 1
        if not self.maj_sent and self.v0 + self.v1 == self.proto.live_threshold:
            self.maj_sent = True
            bmaj = 0 if self.v0 >= self.v1 else 1
            return [(self.proto.all_parties, self.maj_inst, K_MAJ, bmaj)]
        return []

    def on_message(self, env):
        kind = env.kind
        if kind == K_MAJ:
            if env.payload in (0, 1) and env.sender not in self.seen_maj:
                self.seen_maj.add(env.sender)
                if env.payload == 0:
                    self.w0 += 1
                else:
                    self.w1 += 1
                if self.output is None and self.w0 + self.w1 == self.proto.output_threshold:
                    self.output = 0 if self.w0 >= self.w1 else 1
            return []
        j = env.inst - self.base
        if not (0 <= j < self.proto.q):
            return []
        if kind == K_PUB:
            sm = self.recv_pub.get(j)
            if sm is not None:
                sm.on_pub(env.sender, env.payload)
                if sm.output is not None and j not in self.seen_pub:
                    return self._pub_output(j, sm.output)
            return []
        if kind == K_COIN:
            bsm = self.benor.get(j)
            if bsm is not None:
                bit = bsm.on_coin_msg(env.sender, env.payload)
                if bit is not None:
                    return self.on_coin(env.inst, bit)
            return []
        sm = self.member_pub.get(j)
        if sm is None:
            return []
        msgs = sm.on_msg(env.sender, kind, env.payload)
        return msgs + self._member_done(j)

    @property
    def discarded_non_neighbor(self):
        return sum(sm.discarded for sm in self.recv_pub.values())


class TransformProtocol:
    """Factory for one transformed-coin toss over a fixed committee layout."""

    def __init__(
        self,
        cp: CoinParams,
        dp: DerivedParams,
        layout: CommitteeLayout,
        graphs: list[PublishGraph],
        coin_mode: str = "ideal",
    ):
        if layout.q != dp.q or layout.n != cp.n or layout.s != dp.s:
            raise ParamError("layout does not match the derived parameters")
        if len(graphs) != dp.q:
            raise ParamError("need one publish graph per committee")
        if not (1 <= dp.live_threshold <= dp.q):
            raise ParamError("live threshold outside [1, q]; adjust z")
        if coin_mode not in ("ideal", "benor"):
            raise ParamError("coin_mode must be 'ideal' or 'benor'")
        self.cp = cp
        self.dp = dp
        self.layout = layout
        self.graphs = graphs
        self.coin_mode = coin_mode

        self.n = layout.n
        self.q = dp.q
        self.s = dp.s
        self.alpha = cp.alpha
        self.delta_cap = dp.delta_cap
        self.live_threshold = dp.live_threshold
        self.output_threshold = dp.output_threshold
        self.t_local = crusader_fault_bound(dp.s)
        self.tag_space = dp.q
        self.maj_tag_space = 1
        self.all_parties = tuple(range(self.n))

        self.committees = [tuple(c) for c in layout.committees]
        self.member_sets = [frozenset(c) for c in self.committees]
        self.neighbor_sets = [[frozenset(g.adjacency[v]) for v in range(self.n)] for g in graphs]
        self.receivers_of = [reverse_adjacency(c, g) for c, g in zip(self.committees, graphs)]

        if coin_mode == "ideal":
            self.coin_specs = [
                ideal_strong_coin(j, self.committees[j], cp.delta, cp.R, cp.alpha, self.t_local)
                for j in range(self.q)
            ]
        else:
            self.coin_specs = [
                benor_strong_coin(j, self.committees[j], self.t_local)
                for j in range(self.q)
            ]

    def setup_trial(self, rng: random.Random):
        """Benor-mode members' generated bits, in `coin_specs` order (MultiTransformProtocol too)."""
        if self.coin_mode != "benor":
            return None
        return {(spec.inst, m): rng.getrandbits(1) for spec in self.coin_specs for m in spec.members}

    def benor_truth(self, ctx, spec, corrupted):
        return benor_ground_truth(
            [ctx[(spec.inst, m)] for m in spec.members if m not in corrupted],
            len(spec.members), spec.t_local)

    def make_party(self, pid, ctx):
        return TransformParty(pid, self, ctx)

    def audit_caps(self, coin_M=None):
        """Honest-message caps per kind group, mirroring the cost accounting."""
        coin_cap = 0.0
        if coin_M is not None:
            coin_cap = self.q * coin_M(self.s)
        elif self.coin_mode == "benor":
            coin_cap = self.q * self.s**2
        return {
            "crusader": 4 * self.s**2 * self.q,
            "publish": self.n * self.delta_cap * self.q,
            "broadcast": self.n**2,
            "coin": coin_cap,
        }


class MultiParty:
    """ell parallel transformation instances; output is the concatenated value."""

    __slots__ = ("subs", "q", "ell", "pending", "output")

    def __init__(self, pid, proto, ctx):
        self.q = proto.q
        self.ell = proto.ell
        self.subs = [TransformParty(pid, proto.base, ctx, base=e * proto.base.q, maj_inst=e)
                     for e in range(proto.ell)]
        self.pending = proto.ell  # sub-instances without an output yet
        self.output = None

    def on_start(self):
        msgs = []
        for sub in self.subs:
            msgs.extend(sub.on_start())
        return msgs

    def on_coin(self, inst, bit):
        # never finishes a sub-instance: a TransformParty outputs only on a MAJ delivery
        return self.subs[inst // self.q].on_coin(inst, bit)

    def on_message(self, env):
        e = env.inst if env.kind == K_MAJ else env.inst // self.q
        if not (0 <= e < self.ell):
            return []
        sub = self.subs[e]
        was_open = sub.output is None
        msgs = sub.on_message(env)
        if was_open and sub.output is not None:
            self.pending -= 1
            if self.pending == 0:  # the last output completes the value, sub-instance 0 highest
                value = 0
                for s in self.subs:
                    value = (value << 1) | s.output
                self.output = value
        return msgs

    @property
    def discarded_non_neighbor(self):
        return sum(s.discarded_non_neighbor for s in self.subs)


class MultiTransformProtocol:
    """Toss the transformed coin ell times in parallel for an ell-bit output.

    Each parallel instance needs per-bit fairness 1 - (1-delta)/ell to make the
    concatenation delta-fair overall.
    """

    def __init__(self, base: TransformProtocol, ell: int):
        if ell < 1:
            raise ParamError("ell must be at least 1")
        self.base = base
        self.ell = ell
        self.n = base.n
        self.q = base.q
        self.coin_mode = base.coin_mode
        self.tag_space = base.q * ell
        self.maj_tag_space = ell
        self.layout = base.layout
        self.coin_specs = [
            CoinSpec(e * base.q + spec.inst, spec.members, spec.delta, spec.R,
                     spec.bad_threshold, mode=spec.mode, t_local=spec.t_local)
            for e in range(ell)
            for spec in base.coin_specs
        ]

    setup_trial = TransformProtocol.setup_trial

    def benor_truth(self, ctx, spec, corrupted):
        return self.base.benor_truth(ctx, spec, corrupted)

    def make_party(self, pid, ctx):
        return MultiParty(pid, self, ctx)


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


class _InputParty:
    """Wraps one SM whose input is fixed at activation."""

    __slots__ = ("sm", "input")

    def __init__(self, sm, value):
        self.sm = sm
        self.input = value

    def on_start(self):
        return self.sm.start(self.input) if self.input is not None else []

    def on_message(self, env):
        return self.sm.on_msg(env.sender, env.kind, env.payload)

    def on_coin(self, inst, bit):
        return []

    @property
    def output(self):
        return self.sm.output


class CrusaderProtocol:
    """s parties running one crusader instance on given inputs.

    `inputs` is a list of bits or a callable rng -> list (fresh inputs per
    trial). Corrupted parties' inputs are ignored by the harness anyway.
    """

    def __init__(self, s: int, inputs, t_local: int | None = None):
        self.n = s
        self.tag_space = 1
        self.maj_tag_space = 1
        self.t_local = crusader_fault_bound(s) if t_local is None else t_local
        self.members = tuple(range(s))
        self.inputs = inputs
        self.coin_specs = ()

    def setup_trial(self, rng):
        return list(self.inputs(rng)) if callable(self.inputs) else list(self.inputs)

    def make_party(self, pid, ctx):
        return _InputParty(CrusaderSM(pid, self.members, self.t_local, 0), ctx[pid])


class _PublishMemberParty(_InputParty):
    def on_start(self):
        return self.sm.set_input(self.input) if self.input is not None else []

    @property
    def output(self):
        return self.sm.publish_output


class _PublishReceiverParty:
    __slots__ = ("sm",)

    def __init__(self, sm):
        self.sm = sm

    def on_start(self):
        return []

    def on_message(self, env):
        if env.kind == K_PUB:
            self.sm.on_pub(env.sender, env.payload)
        return []

    def on_coin(self, inst, bit):
        return []

    @property
    def output(self):
        return self.sm.output

    @property
    def discarded_non_neighbor(self):
        return self.sm.discarded


class PublishProtocol:
    """One committee publishing over one graph; receivers are everyone else."""

    def __init__(self, committee: tuple[int, ...], n: int, graph: PublishGraph, inputs):
        self.committee = tuple(sorted(committee))
        self.member_set = frozenset(committee)
        self.n = n
        self.graph = graph
        self.inputs = inputs  # dict member -> bit, or callable rng -> dict
        self.t_local = crusader_fault_bound(len(committee))
        self.tag_space = 1
        self.maj_tag_space = 1
        self.coin_specs = ()
        self.delta_cap = graph.delta_cap
        self.receivers_of = reverse_adjacency(self.committee, graph)

    def setup_trial(self, rng):
        return dict(self.inputs(rng)) if callable(self.inputs) else dict(self.inputs)

    def make_party(self, pid, ctx):
        if pid in self.member_set:
            sm = PublishMemberSM(pid, self.committee, self.t_local, 0, self.receivers_of[pid])
            return _PublishMemberParty(sm, ctx[pid])
        return _PublishReceiverParty(PublishReceiverSM(frozenset(self.graph.adjacency[pid]), self.delta_cap))


class _BenorParty:
    __slots__ = ("pid", "members", "sm", "bit", "output")

    def __init__(self, pid, members, sm, bit):
        self.pid = pid
        self.members = members
        self.sm = sm
        self.bit = bit
        self.output = None

    def on_start(self):
        return [(self.members, 0, K_COIN, self.bit)]

    def on_message(self, env):
        if env.kind == K_COIN:
            result = self.sm.on_coin_msg(env.sender, env.payload)
            if result is not None:
                self.output = result
        return []

    def on_coin(self, inst, bit):
        return []


class BenorCoinProtocol:
    """Standalone majority-bit committee coin among s parties."""

    def __init__(self, s: int, t_local: int):
        self.n = s
        self.t_local = t_local
        self.members = tuple(range(s))
        self.tag_space = 1
        self.maj_tag_space = 1
        self.coin_specs = (CoinSpec(0, self.members, 1.0, 1.0, math.inf, mode="benor", t_local=t_local),)

    def setup_trial(self, rng):
        return {(0, m): rng.getrandbits(1) for m in self.members}

    def benor_truth(self, ctx, spec, corrupted):
        return benor_ground_truth(
            [ctx[(0, m)] for m in spec.members if m not in corrupted], self.n, self.t_local)

    def make_party(self, pid, ctx):
        return _BenorParty(pid, self.members, BenorSM(self.members, self.t_local), ctx[(0, pid)])
