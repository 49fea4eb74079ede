"""Multi-bit toss uniformity: ell parallel instances concatenate to a uniform
ell-bit value. Runs the smallest legal instantiation (n=1, q=1), where toss e
has one oracle coin, coin_instances[e], and its drawn bit b* is the toss bit;
the protocol-level plumbing at larger parameters is covered in test_transform.py.

The check has two parts. The exact part runs all 256 bit vectors of b* and
shows that the output is exactly those bits, toss 0 highest. So the output is
a bijective function of the drawn b* vector, and the chi-square statistic of
the outputs over any seeds equals that of the drawn vectors; the statistical
part computes it on the vectors that `coin_draws` gives, after checking that
a simulation's coin instances carry exactly those draws."""

import random
from collections import Counter

import pytest

from conftest import small_transform
from coinforge.simnet import Simulation, coin_draws, mix64
from coinforge.strategies import FifoStrategy

ELL = 8

# 99.9% quantile of chi-square with 255 degrees of freedom (Wilson-Hilferty)
CHI2_CRIT_255 = 330.52


@pytest.fixture(scope="module")
def eight_bit_toss():
    return small_transform(n=1, q=1, s=1, c=1, z=0.3, epsilon=1 / 12, layout_seed=1, ell=ELL)[-1]


def _drawn_value(draws):
    """The drawn b* bits of the ELL tosses as one value, toss 0 highest; every coin is fair at delta = 1."""
    value = 0
    for g, b_star in draws:
        assert g
        value = (value << 1) | b_star
    return value


def test_simulation_coins_carry_the_coin_draws(eight_bit_toss):
    # the draw rule: per coin, g = random() < delta, then b* = getrandbits(1), from Random(mix64(seed, 0))
    for i in range(8):
        seed = mix64(0x8B17, i)
        rng = random.Random(mix64(seed, 0))
        rule = [(rng.random() < 1.0, rng.getrandbits(1)) for _ in range(ELL)]
        sim = Simulation(eight_bit_toss, FifoStrategy(), seed)
        assert [(ci.g_drawn, ci.b_star) for ci in sim.coin_instances] == list(coin_draws(eight_bit_toss, seed)) == rule


def test_output_is_the_drawn_bits_toss_zero_highest(eight_bit_toss):
    for value in range(2**ELL):
        for i in (value, value + 2**ELL):  # two seeds per bit vector
            sim = Simulation(eight_bit_toss, FifoStrategy(), mix64(0x8B17, i))
            for e, ci in enumerate(sim.coin_instances):
                ci.b_star = (value >> (ELL - 1 - e)) & 1
            rep = sim.run()
            assert rep.agreed and rep.output_bit == value


def test_eight_bit_outputs_uniform_by_chi_square(eight_bit_toss):
    # taken on the drawn vectors, which the exact part shows equal the outputs
    trials = 100_000
    counts = Counter(_drawn_value(coin_draws(eight_bit_toss, mix64(0x8B17, i))) for i in range(trials))
    expected = trials / 2**ELL
    chi2 = sum((counts.get(v, 0) - expected) ** 2 / expected for v in range(2**ELL))
    assert chi2 < CHI2_CRIT_255, f"chi2={chi2:.1f}"
