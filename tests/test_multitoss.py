"""Multi-bit toss uniformity: ell parallel instances concatenate to a uniform
ell-bit value. Runs the smallest legal instantiation (n=1, q=1) so that 10^5
end-to-end trials stay affordable; the protocol-level plumbing at larger
parameters is covered in test_transform.py."""

from collections import Counter

from conftest import small_transform
from coinforge.simnet import mix64, run_simulation
from coinforge.strategies import FifoStrategy

# 99.9% quantile of chi-square with 255 degrees of freedom (Wilson-Hilferty)
CHI2_CRIT_255 = 330.52


def test_eight_bit_outputs_uniform_by_chi_square():
    cp, dp, layout, graphs, multi = small_transform(
        n=1, q=1, s=1, c=1, z=0.3, epsilon=1 / 12, layout_seed=1, ell=8)
    counts = Counter()
    trials = 100_000
    for i in range(trials):
        rep = run_simulation(multi, FifoStrategy(), seed=mix64(0x8B17, i))
        assert rep.agreed
        counts[rep.output_bit] += 1
    assert set(counts) <= set(range(256))
    expected = trials / 256
    chi2 = sum((counts.get(v, 0) - expected) ** 2 / expected for v in range(256))
    assert chi2 < CHI2_CRIT_255, f"chi2={chi2:.1f}"
