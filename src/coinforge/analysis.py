"""Exact and statistical verification: the binomial anti-concentration bound,
the seeded trial runner, fairness estimation with Wilson intervals, and
transcript auditing.

Statistical results here are evidence, not proof: estimates carry seeded
reproducibility and confidence intervals, while the anti-concentration check
is exact (unbounded integers, comparisons squared and cross-multiplied so no
floating-point rounding can mis-flag a boundary case).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from statistics import NormalDist

from .params import DerivedParams, ParamError
from .simnet import TrialReport, mix64, run_simulation


# --- exact anti-concentration check ----------------------------------------


@dataclass(frozen=True)
class AntiConcentrationResult:
    passed: bool
    n_max: int
    pairs_checked: int
    failure: tuple[int, int] | None
    elapsed_seconds: float


def verify_anticoncentration(n_max: int) -> AntiConcentrationResult:
    """Check Pr[|X - n/2| < sigma] <= 8*sigma/(5*sqrt(n)) exactly.

    X is the sum of n fair coin bits; the scan covers every n in [1, n_max]
    and every integer sigma in [0, n]. The comparison
        S / 2^n <= 8*sigma / (5*sqrt(n))
    is squared and cross-multiplied into integers: 25 * S^2 * n <= 64 * sigma^2 * 4^n.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    t0 = time.perf_counter()
    pairs = 0
    failure = None
    for n in range(1, n_max + 1):
        row = [math.comb(n, k) for k in range(n + 1)]
        four_n = 4**n
        for sigma in range(0, n + 1):
            # mass strictly inside the band: |2k - n| < 2*sigma
            mass = sum(row[k] for k in range(n + 1) if abs(2 * k - n) < 2 * sigma)
            pairs += 1
            if 25 * mass * mass * n > 64 * sigma * sigma * four_n:
                failure = (n, sigma)
                break
        if failure:
            break
    return AntiConcentrationResult(failure is None, n_max, pairs, failure, time.perf_counter() - t0)


# --- Wilson intervals --------------------------------------------------------


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float, float]:
    """(low, high, half_width) of the Wilson score interval."""
    if trials <= 0:
        raise ParamError(f"trials must be positive, got {trials}")
    if not (0.0 < confidence < 1.0):
        raise ParamError(f"confidence must be in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half), half


# --- the trial runner --------------------------------------------------------


def run_trials(protocol, make_strategy, seed: int, trials: int, *, mode: str = "secure",
               t_budget: int = 0, log=None):
    """An iterator over the reports of trials 0..trials-1, each run when it is asked for.

    Trial i runs `protocol` against a fresh `make_strategy()` at seed
    mix64(seed, 1000 + i). A `log` list receives trial 0's event log, and only
    trial 0 is recorded. Every command and estimate runs its trials here.
    `run_simulation` is looked up in this module at each trial, so a wrapper
    set on `analysis.run_simulation` sees every trial.
    """
    if trials < 0:
        raise ParamError(f"trials must be non-negative, got {trials}")
    return (run_simulation(protocol, make_strategy(), mix64(seed, 1000 + i), mode=mode,
                           t_budget=t_budget, log=log if i == 0 else None)
            for i in range(trials))


# --- fairness estimation -----------------------------------------------------


@dataclass
class FairnessEstimate:
    trials: int
    agreed_count: int
    common_uniform_count: int
    undefined_bstar_count: int
    bit_counts: list
    confidence: float
    rate: float
    agreed_rate: float
    interval: tuple
    half_width: float
    target: float
    target_met: bool
    live_count: int
    label: str = ""
    seed: int = 0
    rows: list = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "rows"}
        d["interval"] = list(self.interval)
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        rows = [
            ("trials", self.trials),
            ("agreed", f"{self.agreed_count} ({self.agreed_rate:.4f})"),
            ("common uniform", f"{self.common_uniform_count} ({self.rate:.4f})"),
            ("undefined b*", self.undefined_bstar_count),
            ("bit counts", f"0:{self.bit_counts[0]} 1:{self.bit_counts[1]}"),
            ("wilson", f"[{self.interval[0]:.4f}, {self.interval[1]:.4f}] @ {self.confidence}"),
            ("target", f"{self.target:.4f} -> {'met' if self.target_met else 'MISSED'}"),
            ("live", self.live_count),
        ]
        width = max(len(str(k)) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["trial", "seed", "agreed", "bit", "latency", "bits_msgs", "tagged_msgs", "opaque_msgs"])
        for row in self.rows:
            w.writerow(row)
        return buf.getvalue()


def estimate_fairness(reports, *, delta: float, z: float, q: int, confidence: float = 0.99,
                      label: str = "", seed: int = 0) -> FairnessEstimate:
    """Fold trial reports, one at a time, into the common-uniform-output rate.

    A trial counts as common-uniform when all honest parties output, their
    outputs agree, the trial-level fair bit b* is defined (every committee
    instance hit its fairness event), and the common output equals b*. The
    harness-side ground truth is used rather than inferring fairness from the
    outputs themselves. Trials without a defined b* are counted separately.
    The estimate passes when the Wilson lower edge clears the target
    1 - (1-delta)*q - z (the lower edge is >= 0, so a target <= 0 is vacuous).
    """
    agreed = 0
    common = 0
    undefined = 0
    live = 0
    bits = [0, 0]
    rows = []
    for i, rep in enumerate(reports):
        if rep.agreed:
            agreed += 1
            if rep.output_bit in (0, 1):
                bits[rep.output_bit] += 1
        if rep.all_honest_output:
            live += 1
        if not rep.b_star_defined:
            undefined += 1
        elif rep.agreed and rep.output_bit == rep.b_star:
            common += 1
        rows.append([
            i, rep.seed, int(rep.agreed),
            rep.output_bit if rep.agreed else "",
            rep.latency if not math.isinf(rep.latency) else "",
            rep.msg_count_by_bucket["bit"],
            rep.msg_count_by_bucket["tagged"],
            rep.msg_count_by_bucket["opaque"],
        ])
    trials = len(rows)
    lo, hi, half = wilson_interval(common, trials, confidence)
    target = 1.0 - (1.0 - delta) * q - z
    return FairnessEstimate(
        trials=trials,
        agreed_count=agreed,
        common_uniform_count=common,
        undefined_bstar_count=undefined,
        bit_counts=bits,
        confidence=confidence,
        rate=common / trials,
        agreed_rate=agreed / trials,
        interval=(lo, hi),
        half_width=half,
        target=target,
        target_met=lo >= target,
        live_count=live,
        label=label,
        seed=seed,
        rows=rows,
    )


# --- transcript auditing -----------------------------------------------------


@dataclass(frozen=True)
class AuditResult:
    passed: bool
    failed_term: str | None = None
    detail: str = ""

    def __bool__(self):
        return self.passed

    def as_dict(self) -> dict:
        return {"passed": self.passed, "failed_term": self.failed_term, "detail": self.detail}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True) + "\n"


def audit_transcript(report: TrialReport, dp: DerivedParams, n: int, R: float,
                     coin_cap: float = 0.0, instances: int = 1) -> AuditResult:
    """Check honest message counts and latency against the per-term caps.

    Caps (honest, protocol-conformant sends only; byzantine traffic is
    reported separately and not capped): 4*s^2*q crusader messages, n*Delta*q
    publish fan-out, n^2 majority broadcasts, coin_cap committee-coin
    messages, all times `instances` parallel instances; latency <= R + 5
    whenever every committee coin was live by its bound.
    """
    kinds = report.msg_count_by_kind
    crusader = kinds.get("CRUS_VAL", 0) + kinds.get("CRUS_RELAY", 0) + kinds.get("CRUS_AUX", 0)
    checks = [
        ("crusader", crusader, 4 * dp.s**2 * dp.q * instances),
        ("publish", kinds.get("PUB", 0), n * dp.delta_cap * dp.q * instances),
        ("broadcast", kinds.get("MAJ", 0), n * n * instances),
        ("coin", kinds.get("COIN", 0), coin_cap * instances),
    ]
    for name, got, cap in checks:
        if got > cap:
            return AuditResult(False, name, f"{name}: {got} > cap {cap}")
    if report.coin_live_by_bound and not math.isinf(report.latency):
        if report.latency > R + 5.0 + 1e-9:
            return AuditResult(False, "latency", f"latency {report.latency} > {R + 5.0}")
    return AuditResult(True)
