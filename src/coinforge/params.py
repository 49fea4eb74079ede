"""Parameter derivation and closed-form cost accounting for the committee coin.

The construction assorts n parties into q fixed committees of size s. Each
committee internally tosses a strong binary coin, publishes its bit through a
sparse bipartite graph, and every party outputs the bit it believes a majority
of committees published. All protocol quantities derive from the user inputs:

    n       party count
    t       corruption budget (only constrains simulations, not derivation)
    z       fairness-loss parameter; the output coin loses at most z fairness
            on top of the per-committee losses
    k       committee exponent; q grows like n^(2-2/k)
    epsilon fault-tolerance slack; the output coin tolerates epsilon*n fewer
            corruptions than the committee coin's alpha*n
    alpha   base fault ratio of the committee coin (epsilon < alpha <= 1/3)
    delta   per-instance fairness of the committee coin
    R       latency bound of the committee coin, in normalized time units

Derived quantities (ceilings applied last, all intermediates in binary64):

    q       = 2*ceil(n^(2-2/k)) + 1                      (odd by construction)
    z'      = max(z/3, z - 1.6*q^(-1/2))
    c       = ceil(z'*sqrt(q)/3)        exclusive cap on bad committees
    s       = min(n, ceil(((2a-e)/(z'*e^2)) * (n*ln2/c + ln q)))
    d       = ceil(z'*n*(1-3a+3e) / (36*sqrt(q)))        publish fault budget
    Delta   = min(ceil(2s/3), ceil(30*(s*ln2/d + ln n))) receiver degree
    live    = q - floor(5*z'*sqrt(q)/12)  publish outputs before majority bcast
    out     = floor(2n/3) + 1             majority bits before final output

The headline constants are conservative: for any n small enough to simulate,
the s formula returns s = n. A manual override mode therefore lets callers pin
q, c, s, d, Delta directly; overridden runs are flagged in every report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace


class ParamError(ValueError):
    """Raised when protocol parameters violate their preconditions."""


OVERRIDE_KEYS = ("q", "c", "s", "d", "delta_cap")


@dataclass(frozen=True)
class CoinParams:
    """User-facing inputs. Validation happens on construction."""

    n: int
    t: int = 0
    z: float = 0.3
    k: float = 2.0
    epsilon: float = 0.05
    alpha: float = 1.0 / 3.0
    delta: float = 1.0
    R: float = 1.0

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:  # a bool is no integer here
            raise ParamError("n must be a positive integer")
        if type(self.t) is not int or self.t < 0 or self.t > self.n:
            raise ParamError("t must be an integer in [0, n]")
        if self.z <= 0:
            raise ParamError("z must be positive")
        if self.k < 2:
            raise ParamError("k must be at least 2")
        if self.epsilon <= 0:
            raise ParamError("epsilon must be positive")
        if self.alpha > 1.0 / 3.0:
            raise ParamError("alpha must be at most 1/3")
        if self.epsilon >= self.alpha:
            raise ParamError("epsilon must be less than alpha")
        if not (0.0 < self.delta <= 1.0):
            raise ParamError("delta must be in (0, 1]")
        if self.R <= 0:
            raise ParamError("R must be positive")


@dataclass(frozen=True)
class DerivedParams:
    q: int
    z_prime: float
    c: int
    s: int
    d: int
    delta_cap: int
    live_threshold: int
    output_threshold: int
    overridden: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {**asdict(self), "overridden": list(self.overridden)}


def crusader_fault_bound(s: int) -> int:
    """ceil(s/3) - 1, the most faults (t < s/3) a committee of size s tolerates: the
    crusader threshold and the size of the fault sets a publish graph must withstand."""
    return math.ceil(s / 3) - 1


def overload_quota(share: float, size: int) -> int:
    """ceil(share*size), the least integer j >= share*size: the one overload rule. A
    committee of size s is bad once overload_quota(alpha, s) members are corrupted, and a
    receiver of degree Delta is deafened once overload_quota(0.5, Delta) neighbours are faulty."""
    return math.ceil(share * size)


def tag_bits(space: int) -> int:
    """(space - 1).bit_length(), the bits that name one of `space` values: the one tag rule. A
    message's instance tag names one of its protocol's instances, and its payload one of its
    kind's values. Exact for every integer, where ceil(log2(space)) in binary64 is not (it
    reads 60 at 2**60 + 1)."""
    return (space - 1).bit_length()


def publish_degree(s: int, d: int, n: int) -> int:
    """Receiver degree Delta for a committee of size s at fault budget d."""
    if s < 1 or d < 1 or n < 1:
        raise ParamError("publish degree needs s, d, n >= 1")
    return min(math.ceil(2 * s / 3), math.ceil(30 * (s * math.log(2) / d + math.log(n))))


def derive_params(p: CoinParams, overrides: dict | None = None) -> DerivedParams:
    """Evaluate the initialization formulas, optionally pinning some values.

    `overrides` may set any of q, c, s, d, delta_cap, each to an integer. An
    overridden q must be odd; z', the live threshold and the output threshold
    are recomputed from whatever q and z end up in force. Pure: identical
    inputs give bit-identical outputs.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ParamError(f"unknown override keys: {sorted(unknown)}")
    for key, value in overrides.items():
        if type(value) is not int:  # a bool is no integer here
            raise ParamError(f"override {key!r} must be an integer, not {value!r}")

    n = p.n
    if "q" in overrides:
        q = overrides["q"]
        if q < 1 or q % 2 == 0:
            raise ParamError("override q must be a positive odd integer")
    else:
        q = 2 * math.ceil(n ** (2.0 - 2.0 / p.k)) + 1

    sqrt_q = math.sqrt(q)
    z_prime = max(p.z / 3.0, p.z - 1.6 / sqrt_q)

    if "c" in overrides:
        c = overrides["c"]
    else:
        c = math.ceil(z_prime * sqrt_q / 3.0)
    if c < 1:
        raise ParamError("c must be at least 1")

    if "s" in overrides:
        s = overrides["s"]
    else:
        coeff = (2.0 * p.alpha - p.epsilon) / (z_prime * p.epsilon**2)
        s = min(n, math.ceil(coeff * (n * math.log(2) / c + math.log(q))))
    if not (1 <= s <= n):
        raise ParamError("s must be in [1, n]")

    if "d" in overrides:
        d = overrides["d"]
    else:
        d = math.ceil(z_prime * n * (1.0 - 3.0 * p.alpha + 3.0 * p.epsilon) / (36.0 * sqrt_q))
    if d < 1:
        raise ParamError("d must be at least 1")

    if "delta_cap" in overrides:
        delta_cap = overrides["delta_cap"]
        if delta_cap < 1:
            raise ParamError("delta_cap must be at least 1")
    else:
        delta_cap = publish_degree(s, d, n)

    live_threshold = q - math.floor(5.0 * z_prime * sqrt_q / 12.0)
    output_threshold = (2 * n) // 3 + 1

    return DerivedParams(
        q=q,
        z_prime=z_prime,
        c=c,
        s=s,
        d=d,
        delta_cap=delta_cap,
        live_threshold=live_threshold,
        output_threshold=output_threshold,
        overridden=tuple(k for k in OVERRIDE_KEYS if k in overrides),
    )


# --- cost accounting -------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Cost polynomial as (coefficient, exponent, log2-power) terms.

    Expresses shapes like x^2, x^3*log x, or a constant kappa. Log factors are
    base 2; log2(x)^p with x < 1 is rejected, x = 1 evaluates the log factor
    to 0.
    """

    terms: tuple[tuple[float, float, int], ...]

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ParamError("cost polynomials take nonnegative arguments")
        total = 0.0
        for coef, exp, logpow in self.terms:
            term = coef * x**exp
            if logpow:
                if x < 1:
                    raise ParamError("log factor undefined below 1")
                term *= math.log2(x) ** logpow if x > 1 else 0.0
            total += term
        return total

    @classmethod
    def constant(cls, value: float) -> "Poly":
        return cls(((float(value), 0.0, 0),))

    @classmethod
    def power(cls, exponent: float, coef: float = 1.0, logpow: int = 0) -> "Poly":
        return cls(((coef, float(exponent), logpow),))


POLY_LOG = Poly(((1.0, 0.0, 1),))


@dataclass(frozen=True)
class CostTerm:
    name: str
    messages: float
    bits_per_message: float

    @property
    def bits(self) -> float:
        return self.messages * self.bits_per_message


@dataclass(frozen=True)
class CostReport:
    strongcoin_messages: float
    strongcoin_msg_size: float
    publish_messages: float
    broadcast_messages: float
    total_bits: float
    latency_bound: float
    breakdown: tuple[CostTerm, ...]
    derived: DerivedParams
    overridden: bool = False

    def dominant_term(self, by: str = "bits") -> str:
        key = (lambda t: t.bits) if by == "bits" else (lambda t: t.messages)
        return max(self.breakdown, key=key).name

    def as_dict(self) -> dict:
        return {**asdict(self), "breakdown": [{**asdict(t), "bits": t.bits} for t in self.breakdown],
                "derived": self.derived.as_dict()}


def transform_cost(p: CoinParams, M: Poly, L: Poly, overrides: dict | None = None) -> CostReport:
    """Evaluate the end-to-end message/bit bounds for one transformed toss.

    M and L describe the committee coin: at most M(x) messages of size at most
    L(x) bits when x parties run it. The transformed coin then costs
       q*M(s) coin messages of size L(s) + tag_bits(q) = ceil(log2 q) tag bits,
       s*n^(3-3/k) / (z*(1-3a+3e)) + n^(2-2/k)*(s^2 + n*log2 n) publish-layer
       messages (tag + 2 bits each), and n^2 single-bit majority broadcasts.
    Latency is bounded by R + 5. Zero polynomial evaluations are legal
    (no coin messages); negative ones are rejected.
    """
    dp = derive_params(p, overrides)
    n, s, q = p.n, dp.s, dp.q
    m_val = M(s)
    l_val = L(s)
    if m_val < 0 or l_val < 0:
        raise ParamError("polynomial evaluated to a negative value")

    tag = tag_bits(q)
    coin_msgs = q * m_val
    coin_size = l_val + tag

    fanout = s * n ** (3.0 - 3.0 / p.k) / (p.z * (1.0 - 3.0 * p.alpha + 3.0 * p.epsilon))
    quadratic = n ** (2.0 - 2.0 / p.k) * (s**2 + n * math.log2(n))
    publish_size = tag + 2
    bcast = float(n) ** 2

    breakdown = (
        CostTerm("strong_coin", coin_msgs, coin_size),
        CostTerm("publish_fanout", fanout, publish_size),
        CostTerm("publish_quadratic", quadratic, publish_size),
        CostTerm("majority_broadcast", bcast, 1.0),
    )
    return CostReport(
        strongcoin_messages=coin_msgs,
        strongcoin_msg_size=coin_size,
        publish_messages=fanout + quadratic,
        broadcast_messages=bcast,
        total_bits=sum(t.bits for t in breakdown),
        latency_bound=p.R + 5.0,
        breakdown=breakdown,
        derived=dp,
        overridden=bool(dp.overridden),
    )


#: Reference instantiations: committee-coin shape per security flavor.
PRESETS = {
    "perfect": {"k": 4.0, "alpha": 0.25, "M": Poly.power(4), "L": POLY_LOG},
    "crypto": {"k": 3.0, "alpha": 1.0 / 3.0, "M": Poly.power(3, logpow=1), "L": None},
}


def preset_cost(variant: str, n: int, epsilon: float, delta_prime: float, kappa: int = 128) -> CostReport:
    """Cost report for the two reference coins (perfect / cryptographic).

    Sets z = (1-delta')/2 and per-committee fairness delta = 1 - (1-delta')/(2q)
    so the output coin is delta'-fair. delta' must stay below 1 - 1/n; above
    that the committee size would reach n and the construction degenerates.
    """
    if variant not in PRESETS:
        raise ParamError(f"unknown variant {variant!r} (expected 'perfect' or 'crypto')")
    if n < 2:
        raise ParamError("n must be at least 2 for the reference instantiations")
    if delta_prime >= 1.0 - 1.0 / n:
        raise ParamError("delta_prime too close to 1: committee size would reach n")
    cfg = PRESETS[variant]
    z = (1.0 - delta_prime) / 2.0
    base = CoinParams(n=n, z=z, k=cfg["k"], epsilon=epsilon, alpha=cfg["alpha"],
                      delta=1.0, R=float(math.ceil(math.log2(n))))  # delta: a placeholder until q is known
    p = replace(base, delta=1.0 - (1.0 - delta_prime) / (2.0 * derive_params(base).q))
    L = cfg["L"] if cfg["L"] is not None else Poly.constant(kappa)
    return transform_cost(p, cfg["M"], L)
