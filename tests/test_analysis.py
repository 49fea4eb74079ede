import json
import math
from fractions import Fraction

import pytest

from conftest import small_transform
from coinforge.analysis import (
    audit_transcript,
    estimate_fairness,
    run_trials,
    verify_anticoncentration,
    wilson_interval,
)
from coinforge.params import ParamError
from coinforge.simnet import run_simulation
from coinforge.strategies import FifoStrategy, RandomDelayStrategy


def _scenario(delta=1.0, strategy=FifoStrategy, seed=0, **kw):
    """(estimate, trials, cp, dp): `trials(count)` runs the small transform from `seed` and
    `estimate(count)` folds those trials into a fairness estimate."""
    cp, dp, layout, graphs, proto = small_transform(delta=delta, **kw)

    def trials(count):
        return run_trials(proto, strategy, seed, count)

    def estimate(count):
        return estimate_fairness(trials(count), delta=cp.delta, z=cp.z, q=dp.q, seed=seed)

    return estimate, trials, cp, dp


# --- exact anti-concentration -------------------------------------------------


def test_anticoncentration_examples():
    res = verify_anticoncentration(4)
    assert res.passed
    # n=1, sigma=1: whole mass 1 <= 8/(5*1) = 1.6
    # n=4, sigma=1: Pr[X=2] = 6/16 = 0.375 <= 8/(5*2) = 0.8
    assert Fraction(6, 16) <= Fraction(8, 10)


def test_anticoncentration_matches_fraction_arithmetic():
    for n in range(1, 21):
        denom = 2**n
        for sigma in range(0, n + 1):
            mass = sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) < 2 * sigma)
            lhs = Fraction(mass, denom)
            # squared comparison against (8 sigma / 5 sqrt(n))^2
            assert lhs * lhs * 25 * n <= Fraction(64 * sigma * sigma)
    assert verify_anticoncentration(20).passed


def test_anticoncentration_sigma_zero_is_vacuous():
    res = verify_anticoncentration(9)
    assert res.passed and res.pairs_checked == sum(n + 1 for n in range(1, 10))


# --- wilson -------------------------------------------------------------------


def test_wilson_known_values():
    lo, hi, half = wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.40383, abs=2e-4)
    assert hi == pytest.approx(0.59617, abs=2e-4)
    assert 0.0 <= lo <= hi <= 1.0


def test_wilson_input_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(1, 10, 1.5)
    with pytest.raises(ParamError):  # a ParamError, so the CLI reports it as a config error
        wilson_interval(1, 10, 0.0)


# --- fairness estimation --------------------------------------------------------


def test_estimate_delta_one_honest():
    estimate, *_ = _scenario()
    est = estimate(300)
    assert est.agreed_rate == 1.0
    assert est.rate == 1.0  # every trial matches the drawn majority bit
    assert est.undefined_bstar_count == 0
    assert est.target_met
    assert est.live_count == 300


def test_estimate_delta_zero_vacuous_target():
    estimate, *_ = _scenario(delta=1e-9)  # effectively never fair
    est = estimate(50)
    assert est.target <= 0.0  # 1 - (1-delta)q - z is vacuous
    assert est.target_met  # auto-pass
    assert est.undefined_bstar_count == 50


def test_estimate_reproducible_and_interval_shrinks():
    estimate, *_ = _scenario(strategy=RandomDelayStrategy, seed=42)
    a = estimate(120)
    b = estimate(120)
    assert a.as_dict() == b.as_dict()
    doubled = estimate(240)
    assert doubled.half_width <= a.half_width


def test_estimate_exports():
    estimate, *_ = _scenario()
    est = estimate(20)
    doc = json.loads(est.to_json())
    assert doc["trials"] == 20
    table = est.to_table()
    assert "wilson" in table and "target" in table
    csv_text = est.to_csv()
    assert csv_text.count("\n") == 21  # header + one row per trial


# --- transcript audit -----------------------------------------------------------


def test_audit_passes_honest_trials():
    _, trials, cp, dp = _scenario(strategy=RandomDelayStrategy)
    for rep in trials(40):
        res = audit_transcript(rep, dp, n=cp.n, R=cp.R)
        assert res.passed, res.detail


def test_audit_names_first_violated_term():
    _, trials, cp, dp = _scenario()
    (rep,) = trials(1)
    rep.msg_count_by_kind["PUB"] = 10**9
    res = audit_transcript(rep, dp, n=cp.n, R=cp.R)
    assert not res.passed and res.failed_term == "publish"


def test_audit_flooding_byzantine_does_not_break_honest_caps():
    from byz import PublishCorrupter
    from coinforge.combinatorics import gen_publish_graph
    from coinforge.params import CoinParams, derive_params, publish_degree
    from coinforge.protocols import PublishProtocol

    committee = tuple(range(9))
    graph = gen_publish_graph(committee, 16, 2, publish_degree(9, 2, 16), seed=4)
    proto = PublishProtocol(committee, 16, graph, {m: 1 for m in committee})
    rep = run_simulation(proto, PublishCorrupter([0], when=0.5, inject_payload=0),
                         seed=3, t_budget=1)
    dp = derive_params(CoinParams(n=16, z=0.3, epsilon=1 / 12, alpha=1 / 3),
                       {"q": 1, "s": 9, "c": 1, "d": 2})
    res = audit_transcript(rep, dp, n=16, R=1.0)
    assert res.passed  # byzantine-sent flooding is tallied separately
    assert sum(rep.byz_msg_count_by_kind.values()) > 0
