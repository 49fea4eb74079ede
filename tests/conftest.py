import pytest

from coinforge.combinatorics import gen_committees, gen_publish_graph
from coinforge.params import CoinParams, derive_params
from coinforge.protocols import TransformProtocol
from coinforge.simnet import mix64


def small_transform(n=8, q=5, s=4, c=4, d=1, z=0.3, epsilon=1 / 12, alpha=1 / 3,
                    delta=1.0, R=1.0, t=0, layout_seed=11, coin_mode="ideal",
                    verify="exhaustive", ell=1):
    """Desk-scale transformation setup used across the protocol tests."""
    cp = CoinParams(n=n, t=t, z=z, k=2.0, epsilon=epsilon, alpha=alpha, delta=delta, R=R)
    dp = derive_params(cp, {"q": q, "s": s, "c": c, "d": d})
    layout = gen_committees(n, q, s, alpha, epsilon, c, seed=layout_seed, verify_mode=verify)
    graphs = [gen_publish_graph(cmt, n, d, dp.delta_cap, seed=mix64(layout_seed, 50 + j),
                                committee_id=j, verify_mode=verify)
              for j, cmt in enumerate(layout.committees)]
    return cp, dp, layout, graphs, TransformProtocol(cp, dp, layout, graphs, coin_mode=coin_mode, ell=ell)


@pytest.fixture(scope="session")
def transform_small():
    return small_transform()
