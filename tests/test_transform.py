from types import SimpleNamespace

import pytest

from conftest import small_transform
from coinforge.analysis import wilson_interval
from coinforge.params import ParamError
from coinforge.protocols import (
    BenorCoinProtocol,
    TransformParty,
    TransformProtocol,
    benor_ground_truth,
    elect_leader,
    per_bit_delta,
)
from coinforge.simnet import (
    K_CRUS_VAL,
    K_MAJ,
    K_PUB,
    AdversaryAction,
    Envelope,
    Simulation,
    StrategyViolation,
    mix64,
    run_simulation,
)
from coinforge.strategies import (
    BenorBiaserStrategy,
    CommitteeTargeterStrategy,
    FifoStrategy,
    PlannedStrategy,
    PublishDelayerStrategy,
    RandomDelayStrategy,
    Strategy,
)


def test_unanimous_fair_coins_reach_the_drawn_majority(transform_small):
    cp, dp, layout, graphs, proto = transform_small
    for seed in range(50):
        rep = run_simulation(proto, FifoStrategy(), seed=seed)
        assert rep.agreed and rep.output_bit == rep.b_star
        assert rep.latency <= cp.R + 5.0
        assert rep.sum_coin_bits * 2 != dp.q  # q odd: a tie is impossible


def test_delta_one_statistical_sweep(transform_small):
    cp, dp, layout, graphs, proto = transform_small
    bits = [0, 0]
    for seed in range(1500):
        rep = run_simulation(proto, RandomDelayStrategy(), seed=mix64(7, seed))
        assert rep.agreed
        bits[rep.output_bit] += 1
    lo, hi, _ = wilson_interval(bits[1], sum(bits), 0.99)
    assert lo <= 0.5 <= hi


def test_ideal_coin_delta_one_always_fair(transform_small):
    _, _, _, _, proto = transform_small
    rep = run_simulation(proto, FifoStrategy(), seed=3)
    assert all(rec["fair"] for rec in rep.coin_truth)
    assert rep.b_star_defined


def test_ideal_coin_fairness_calibration():
    cp, dp, layout, graphs, proto = small_transform(delta=0.5)
    fair = trials = 0
    for seed in range(400):
        rep = run_simulation(proto, FifoStrategy(), seed=mix64(11, seed))
        for rec in rep.coin_truth:
            trials += 1
            fair += rec["g_drawn"]
    lo, hi, _ = wilson_interval(fair, trials, 0.99)
    assert lo <= 0.5 <= hi


def test_adversarial_instances_with_conflicting_bits_stay_live():
    cp, dp, layout, graphs, proto = small_transform(delta=0.5, layout_seed=13)

    class ConflictingCoin(PlannedStrategy):
        # split every unfair instance's members across both bits
        def plan(self, view):
            return [AdversaryAction.coin_set(i, member, None, bit=index % 2)
                    for i, spec in enumerate(view.protocol.coin_specs) if not view.coin_truth(i)[0]
                    for index, member in enumerate(spec.members)]

    for seed in range(120):
        rep = run_simulation(proto, ConflictingCoin(), seed=mix64(5, seed))
        assert rep.all_honest_output  # crusader absorbs the disagreement


def test_assigning_fair_coin_outputs_is_a_violation(transform_small):
    _, _, _, _, proto = transform_small

    class Meddler(Strategy):
        reactive = True
        done = False

        def next_action(self, view):
            if self.done:
                return None
            self.done = True
            g, _ = view.coin_truth(0)
            assert g  # delta = 1: always fair
            member = view.protocol.layout.committees[0][0]
            return AdversaryAction.coin_set(0, member, time=0.5, bit=1)

    with pytest.raises(StrategyViolation, match="fair coin"):
        run_simulation(proto, Meddler(), seed=1)


def test_committee_targeter_respects_layout_guarantee():
    # exhaustively verified layout: any in-budget corruption set overloads
    # fewer than c committees; the targeter itself must fault past the budget
    cp, dp, layout, graphs, proto = small_transform(
        n=14, q=9, s=6, c=8, d=1, epsilon=1 / 12, t=3, layout_seed=23)
    rep = run_simulation(proto, CommitteeTargeterStrategy([0]), seed=2, t_budget=3)
    corrupted = {p for p, _ in rep.corruptions}
    assert len(corrupted) == 2  # ceil(alpha * 6)
    bad = sum(1 for cmt in layout.committees
              if len(corrupted & set(cmt)) >= cp.alpha * dp.s)
    assert bad < 8
    with pytest.raises(StrategyViolation, match="budget"):
        run_simulation(proto, CommitteeTargeterStrategy([0, 1, 2]), seed=2, t_budget=3)


def test_publish_delayer_delivers_at_deadline(transform_small):
    _, _, _, _, proto = transform_small
    from coinforge.simnet import K_PUB, Simulation

    sim = Simulation(proto, PublishDelayerStrategy(1.0), seed=4)
    rep = sim.run()
    assert rep.all_honest_output
    pub = [e for e in sim.envelopes if e.kind == K_PUB and e.recipient != e.sender]
    assert pub and all(e.delivered_at - e.sent_at == 1.0 for e in pub)


def test_kinds_a_role_does_not_handle_change_nothing(transform_small):
    # a corrupted member x of committee 0 sends, while instance 0's crusader is
    # in flight (fan-out at time 3), a publish message to another member and a
    # crusader VAL to a receiver
    _, _, layout, graphs, proto = transform_small
    committee = layout.committees[0]
    x, member = committee[0], committee[1]
    receivers = [v for v in range(proto.n) if v not in committee]
    deaf = next(v for v in receivers if x not in graphs[0].adjacency[v])  # x is not its neighbour

    class Injector(PlannedStrategy):
        def __init__(self, recipients_kinds):
            self.recipients_kinds = recipients_kinds

        def plan(self, view):
            return [AdversaryAction.corrupt(x)] + [
                AdversaryAction.inject({"sender": x, "recipient": r, "inst": 0, "kind": kind, "payload": 1},
                                       time=2.5)
                for r, kind in self.recipients_kinds]

    def run(recipients_kinds):
        sim = Simulation(proto, Injector(recipients_kinds), seed=6, t_budget=1)
        rep = sim.run()
        honest_sends = [(e.sender, e.recipient, e.inst, e.kind, e.payload, e.sent_at, e.delivered_at)
                        for e in sim.envelopes if e.honest_at_send]
        tallies = [(p.v, p.w, p.maj_from, p.bits, p.output) for i, p in enumerate(sim.parties) if i != x]
        return rep, honest_sends, tallies

    base, base_sends, base_tallies = run([])
    assert base.all_honest_output and base.discarded_non_neighbor == 0
    misrouted, sends, tallies = run([(member, K_PUB), (receivers[0], K_CRUS_VAL)])
    assert misrouted.byz_msg_count_by_kind == {"PUB": 1, "CRUS_VAL": 1}
    assert (sends, tallies) == (base_sends, base_tallies)
    assert (misrouted.outputs, misrouted.output_times) == (base.outputs, base.output_times)
    assert misrouted.discarded_non_neighbor == 0  # a member does not count publish sends
    deafened, sends, tallies = run([(member, K_PUB), (receivers[0], K_CRUS_VAL), (deaf, K_PUB)])
    assert (sends, tallies) == (base_sends, base_tallies)
    assert deafened.discarded_non_neighbor == 1  # only the receiver's discard


# --- the two per-toss votes of one party -------------------------------------


class FirstPayloadRole:
    """A stub publish role whose output is the payload of the first message it gets."""

    output = None
    discarded_non_neighbor = 0

    def on_message(self, env):
        if self.output is None:
            self.output = env.payload
        return []


class StubPublish:
    def role(self, pid, inst):
        return FirstPayloadRole()


EVERYONE = tuple(range(6))


def _vote_party():
    """Party 0 of n = 6 in two tosses of q = 4 stub publish instances, with live threshold 2 and
    output threshold 4, so that both votes can tie."""
    proto = SimpleNamespace(q=4, ell=2, publish=[StubPublish()] * 4, coin_mode="ideal", live_threshold=2,
                            output_threshold=4, all_parties=EVERYONE)
    return TransformParty(0, proto, {})


def _send(party, sender, inst, kind, payload):
    return party.on_message(Envelope(0, sender, 0, inst, kind, payload, 1, 0.0, True))


def test_live_vote_counts_each_instance_once_and_ties_to_zero():
    party = _vote_party()
    assert _send(party, 1, 0, K_PUB, 1) == []
    assert _send(party, 2, 0, K_PUB, 0) == []  # instance 0 has counted its output 1 already
    assert _send(party, 1, 1, K_PUB, 0) == [(EVERYONE, 0, K_MAJ, 0)]  # 1:1 at the live threshold
    assert _send(party, 1, 2, K_PUB, 1) == [] and _send(party, 1, 3, K_PUB, 1) == []  # one MAJ per toss
    assert _send(party, 1, 4, K_PUB, 1) == []  # instances 4..7 vote in toss 1
    assert _send(party, 1, 5, K_PUB, 1) == [(EVERYONE, 1, K_MAJ, 1)]
    assert party.output is None


def test_output_vote_counts_each_senders_first_maj_and_ties_to_zero():
    party = _vote_party()
    for sender in range(4):
        assert _send(party, sender, 0, K_MAJ, 1) == []
    assert party.output is None  # toss 1 has no bit yet
    for sender, toss, bit in [(0, 1, 1),
                              (0, 1, 0),  # sender 0's second MAJ of toss 1: ignored
                              (1, 1, 1), (2, 1, 0)]:
        assert _send(party, sender, toss, K_MAJ, bit) == []
    assert party.output is None  # toss 1 has counted 1, 1 and 0
    assert _send(party, 3, 1, K_MAJ, 0) == []  # 2:2 at the output threshold: toss 1 gives 0
    assert party.output == 0b10  # toss 0 highest
    assert _send(party, 4, 1, K_MAJ, 1) == [] and party.output == 0b10


# --- benor coin ---------------------------------------------------------------


class FixedBitsBenor(BenorCoinProtocol):
    def __init__(self, s, t_local, bits):
        super().__init__(s, t_local)
        self.bits = list(bits)

    def setup_trial(self, rng):
        return {(0, m): self.bits[m] for m in self.members}


def test_benor_majority_example():
    rep = run_simulation(FixedBitsBenor(4, 0, [1, 1, 1, 0]), FifoStrategy(), seed=0)
    assert rep.outputs == [1, 1, 1, 1]


def test_benor_full_delivery_matches_enumeration():
    # under full delivery every party sees all s bits: output = global majority,
    # ties to 0 (exact enumeration of all 2^4 assignments)
    for mask in range(16):
        bits = [(mask >> i) & 1 for i in range(4)]
        rep = run_simulation(FixedBitsBenor(4, 0, bits), FifoStrategy(), seed=mask)
        want = 1 if sum(bits) > 2 else 0
        assert rep.outputs == [want] * 4
        g, b = benor_ground_truth(bits, 4, 0)
        assert g == (sum(bits) >= 3 or sum(bits) <= 1)
        if g:
            assert rep.outputs == [b] * 4


def test_benor_baseline_rate_bounded_away_from_zero():
    proto = BenorCoinProtocol(25, 2)
    common_uniform = 0
    trials = 300
    for seed in range(trials):
        rep = run_simulation(proto, RandomDelayStrategy(), seed=mix64(3, seed))
        if rep.b_star_defined and rep.agreed and rep.output_bit == rep.b_star:
            common_uniform += 1
    assert common_uniform / trials > 0.4  # forced-majority mass ~0.69 for s=25


def test_benor_biaser_reduces_agreement():
    proto = BenorCoinProtocol(25, 2)
    trials = 400
    base = attacked = 0
    for seed in range(trials):
        rep = run_simulation(proto, FifoStrategy(), seed=mix64(21, seed), mode="full_info")
        base += rep.agreed
        rep = run_simulation(proto, BenorBiaserStrategy(), seed=mix64(21, seed),
                             mode="full_info", t_budget=2)
        attacked += rep.agreed
    assert attacked < base  # direction only


def test_benor_biaser_requires_full_information():
    with pytest.raises(StrategyViolation, match="payload visibility"):
        run_simulation(BenorCoinProtocol(25, 2), BenorBiaserStrategy(), seed=1,
                       mode="secure", t_budget=2)


def test_transform_over_benor_committees():
    cp, dp, layout, graphs, proto = small_transform(coin_mode="benor", layout_seed=17)
    for seed in range(40):
        rep = run_simulation(proto, RandomDelayStrategy(), seed=mix64(9, seed))
        assert rep.all_honest_output


# --- multi-bit tosses and leader election -------------------------------------


def test_single_bit_multitoss_matches_plain_transform(transform_small):
    cp, dp, layout, graphs, proto = transform_small
    multi = TransformProtocol(cp, dp, layout, graphs, ell=1)
    for seed in (1, 5, 9):
        a = run_simulation(proto, FifoStrategy(), seed=seed)
        b = run_simulation(multi, FifoStrategy(), seed=seed)
        assert a.outputs == b.outputs


def test_multitoss_concatenates_per_instance_bits():
    cp, dp, layout, graphs, multi = small_transform(n=4, q=3, s=4, c=1, layout_seed=2, ell=3)
    for seed in range(30):
        rep = run_simulation(multi, RandomDelayStrategy(), seed=mix64(31, seed))
        assert rep.agreed
        value = rep.output_bit
        # reconstruct from per-instance fair bits (delta = 1: all fair)
        bits = [rec["b_star"] for rec in rep.coin_truth]
        want = 0
        for e in range(3):
            group = bits[e * dp.q:(e + 1) * dp.q]
            want = (want << 1) | (1 if 2 * sum(group) > dp.q else 0)
        assert value == want


def test_zero_tosses_is_a_param_error(transform_small):
    cp, dp, layout, graphs, _ = transform_small
    with pytest.raises(ParamError, match="ell must be at least 1"):
        TransformProtocol(cp, dp, layout, graphs, ell=0)


def test_per_bit_delta_and_leader_mapping():
    assert per_bit_delta(0.9, 8) == pytest.approx(1 - 0.1 / 8)
    assert elect_leader(13, 10) == 4
    assert elect_leader(0, 7) == 1
    with pytest.raises(ParamError):
        elect_leader(-1, 5)


def test_ell_one_is_identity_delta():
    assert per_bit_delta(0.75, 1) == 0.75
