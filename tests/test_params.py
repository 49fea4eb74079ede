import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ap_oracle import oracle_derive
from coinforge.params import (
    CoinParams,
    ParamError,
    Poly,
    POLY_LOG,
    derive_params,
    overload_quota,
    preset_cost,
    publish_degree,
    tag_bits,
    transform_cost,
)


def test_initialization_example_n16():
    dp = derive_params(CoinParams(n=16, k=2.0, z=0.3, epsilon=0.05, alpha=1 / 3))
    assert (dp.q, dp.c, dp.s, dp.d, dp.delta_cap) == (33, 1, 16, 1, 11)
    assert dp.z_prime == pytest.approx(0.1, abs=1e-12)
    assert dp.output_threshold == 11


def test_initialization_single_party():
    # z - 1.6/sqrt(3) = 2.076 > z/3 = 1 here, so the subtractive branch wins
    dp = derive_params(CoinParams(n=1, k=2.0, z=3.0, epsilon=0.1, alpha=1 / 3))
    assert dp.q == 3
    assert dp.z_prime == pytest.approx(3.0 - 1.6 / math.sqrt(3.0))
    assert dp.c == 2
    assert dp.s == 1


def test_z_third_branch():
    dp = derive_params(CoinParams(n=1, k=2.0, z=1.0, epsilon=0.1, alpha=1 / 3))
    assert dp.z_prime == pytest.approx(1.0 / 3.0)
    assert dp.c == 1


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(n=10, epsilon=0.4, alpha=1 / 3), "epsilon must be less than alpha"),
        (dict(n=10, alpha=0.4), "alpha must be at most 1/3"),
        (dict(n=10, k=1.5), "k must be at least 2"),
        (dict(n=10, z=0.0), "z must be positive"),
        (dict(n=0), "n must be a positive integer"),
        (dict(n=10, epsilon=-0.1), "epsilon must be positive"),
        (dict(n=10, delta=0.0), "delta must be in (0, 1]"),
        (dict(n=10, R=0.0), "R must be positive"),
        (dict(n=True), "n must be a positive integer"),  # a bool is no integer here
        (dict(n=10, t=True), "t must be an integer in [0, n]"),
    ],
)
def test_distinct_diagnostics(kwargs, fragment):
    with pytest.raises(ParamError, match=__import__("re").escape(fragment)):
        CoinParams(**kwargs)


def test_manual_overrides_flagged():
    p = CoinParams(n=8, z=0.3, epsilon=1 / 12, alpha=1 / 3)
    dp = derive_params(p, {"q": 5, "s": 4, "c": 3, "d": 1})
    assert dp.q == 5 and dp.s == 4
    assert dp.overridden == ("q", "c", "s", "d")
    # live threshold recomputes from the overridden q
    assert dp.live_threshold == 5 - math.floor(5 * dp.z_prime * math.sqrt(5) / 12)
    with pytest.raises(ParamError, match="odd"):
        derive_params(p, {"q": 4})
    with pytest.raises(ParamError, match="unknown override"):
        derive_params(p, {"Q": 5})


def _random_valid_params(rng):
    n = rng.randrange(1, 1_000_000)
    k = rng.uniform(2.0, 8.0)
    z = rng.uniform(0.01, 3.0)
    alpha = rng.uniform(0.02, 1 / 3)
    epsilon = rng.uniform(0.001, alpha * 0.95)
    return CoinParams(n=n, z=z, k=k, epsilon=epsilon, alpha=alpha)


def test_matches_arbitrary_precision_oracle_sweep():
    rng = random.Random(20240817)
    for _ in range(250):
        p = _random_valid_params(rng)
        dp = derive_params(p)
        want = oracle_derive(p.n, p.k, p.z, p.epsilon, p.alpha)
        got = {k: v for k, v in dp.as_dict().items() if k in want}
        got["z_prime"] = pytest.approx(want["z_prime"], rel=1e-12)
        assert got == want
        assert dp.q % 2 == 1


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10_000),
    k=st.floats(2.0, 8.0, allow_nan=False),
    z=st.floats(0.02, 3.0, allow_nan=False),
    alpha=st.floats(0.05, 1 / 3, allow_nan=False),
    frac=st.floats(0.05, 0.9, allow_nan=False),
)
def test_derived_invariants(n, k, z, alpha, frac):
    p = CoinParams(n=n, k=k, z=z, epsilon=alpha * frac, alpha=alpha)
    dp = derive_params(p)
    assert dp.q % 2 == 1
    assert z / 3 - 1e-12 <= dp.z_prime <= z + 1e-12
    assert 1 <= dp.s <= n
    assert dp.d >= 1 and dp.c >= 1
    # purity: bit-identical on repeat
    assert derive_params(p) == dp


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5_000),
    z=st.floats(0.05, 2.0, allow_nan=False),
    bump=st.floats(0.01, 1.0, allow_nan=False),
)
def test_s_monotone_in_z(n, z, bump):
    base = CoinParams(n=n, z=z, epsilon=0.05, alpha=1 / 3)
    more = CoinParams(n=n, z=z + bump, epsilon=0.05, alpha=1 / 3)
    assert derive_params(more).s <= derive_params(base).s


# --- the overload rule ----------------------------------------------------------


def _least_meeting(share, size):
    """Brute force: the least integer j with j >= share*size."""
    return next(j for j in itertools.count() if j >= share * size)


@settings(max_examples=300, deadline=None)
@given(
    share=st.one_of(st.sampled_from([1 / 3, 0.3333, 0.5]), st.floats(0.0, 1.0, allow_nan=False),
                    st.integers(0, 64).map(lambda j: j / 64)),
    size=st.integers(0, 64),
)
def test_overload_quota_is_the_least_integer_meeting_the_share(share, size):
    got = overload_quota(share, size)
    assert type(got) is int and got == _least_meeting(share, size)


def test_overload_quota_at_the_paper_shares_and_exact_products():
    for size in range(65):
        for share in (1 / 3, 0.3333, 0.5):
            assert overload_quota(share, size) == _least_meeting(share, size), (share, size)
    for m in range(22):  # share*size is an exact integer: the quota is that integer, not one more
        assert overload_quota(1 / 3, 3 * m) == m
        assert overload_quota(0.5, 2 * m) == m
    assert overload_quota(1 / 3, 4) == 2 and overload_quota(0.3333, 3) == 1 and overload_quota(0.5, 7) == 4


# --- cost accounting ---------------------------------------------------------


def test_cost_example_quadratic_coin():
    p = CoinParams(n=16, k=2.0, z=0.3, epsilon=0.05, alpha=1 / 3)
    rep = transform_cost(p, Poly.power(2), Poly.constant(8))
    assert rep.strongcoin_messages == 33 * 256  # q * M(s) = 33 * 16^2
    assert rep.strongcoin_msg_size == 8 + math.ceil(math.log2(33))
    assert rep.total_bits == pytest.approx(sum(t.bits for t in rep.breakdown))


def test_cost_zero_polynomial_and_latency():
    p = CoinParams(n=16, k=2.0, z=0.3, epsilon=0.05, alpha=1 / 3, R=1.0)
    rep = transform_cost(p, Poly(()), Poly.constant(8))
    assert rep.strongcoin_messages == 0
    assert rep.broadcast_messages == 256
    assert rep.latency_bound == 6.0  # R + 5
    with pytest.raises(ParamError, match="negative"):
        transform_cost(p, Poly(((-1.0, 1.0, 0),)), Poly.constant(8))


def test_poly_log_factor():
    m = Poly.power(3, logpow=1)
    assert m(8) == 512 * 3
    assert m(1) == 0.0
    assert POLY_LOG(16) == 4


def test_preset_rejects_delta_prime_near_one():
    with pytest.raises(ParamError, match="committee size would reach n"):
        preset_cost("perfect", 10, 0.01, 0.999)
    with pytest.raises(ParamError, match="unknown variant"):
        preset_cost("quantum", 100, 0.01, 0.5)


def test_preset_crypto_message_size_capped_by_kappa():
    rep = preset_cost("crypto", 10**6, 0.1, 0.5, kappa=128)
    tag = math.ceil(math.log2(rep.derived.q))
    assert rep.strongcoin_msg_size == 128 + tag
    assert rep.strongcoin_msg_size <= 2 * 128
    assert rep.derived.s < 10**6  # non-degenerate committee size in this regime


def test_preset_dominant_term_is_the_committee_coin():
    for variant in ("perfect", "crypto"):
        rep = preset_cost(variant, 10**6, 0.01 if variant == "perfect" else 0.1, 0.9,
                          kappa=128)
        assert rep.dominant_term("bits") == "strong_coin"
        assert rep.dominant_term("messages") == "strong_coin"


def test_publish_degree_formula():
    # min(ceil(2*9/3), ceil(30*(9 ln2 / 1 + ln 16))) = min(6, 271)
    assert publish_degree(9, 1, 16) == 6
    assert publish_degree(9, 2, 16) == 6


def _ceil_log2(q):
    """The least b with 2**b >= q, by integer doubling."""
    b = 0
    while (1 << b) < q:
        b += 1
    return b


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 33, 2**48 + 1, 2**49, 2**49 + 1, 2**60, 2**60 + 1, 2**100 + 1])
def test_tag_bits_is_the_exact_ceil_log2(q):
    assert tag_bits(q) == _ceil_log2(q)


@pytest.mark.parametrize("e", [49, 60])
def test_transform_cost_tags_are_exact_where_binary64_log2_rounds_down(e):
    q = 2**e + 1
    assert math.ceil(math.log2(q)) == e  # the float rule: one bit short
    rep = transform_cost(CoinParams(n=16), Poly.power(2), Poly.constant(1), {"q": q})
    assert rep.strongcoin_msg_size == 1 + (e + 1)
    assert [t.bits_per_message for t in rep.breakdown[1:3]] == [e + 3, e + 3]
