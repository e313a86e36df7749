"""Verification campaigns, coverage evaluation, and report types.

Each campaign checks one structural claim exhaustively at desk scale and
returns a report listing any counterexamples. Coverage is the probability
that the bound does not exceed the true mean; a bound is valid at level
1 - alpha when that probability is at least 1 - alpha for every
distribution (bound <= mean counts as covered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .closedform import lexi_low_homogeneous
from .dist import (
    Distribution,
    SupportSet,
    agree_on,
    augment,
    full_support,
    mean,
    mean_lipschitz_check,
    omega_pmf,
    prob_upper_set,
    restrict_to,
    transfer_to_augmented,
)
from .oracle import OracleConfig, pessimal_bound_oracle, refined_support, relevant_values
from .orders import (
    LexiLow,
    LexiHigh,
    Preorder,
    Quantile,
    enumerate_omega,
    is_monotone,
    monotone_linear_extensions,
    upper_set,
)
from .support import Sample, SupportGrid, homogeneous_sample

SCHEMA_VERSION = 1
COVERED_SLACK = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """A counter-based Philox generator keyed by the seed.

    Trial t of a Monte Carlo run consumes row t of one stream, so chunked
    or parallel evaluation that preserves row indices reproduces serial
    results exactly.
    """
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True, eq=False)
class CoverageReport:
    method: str
    alpha: float
    n: int
    distribution: Distribution
    coverage: float
    mode: str
    trials: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "method": self.method,
            "alpha": self.alpha,
            "n": self.n,
            "distribution": [float(v) for v in self.distribution.mass],
            "coverage": self.coverage,
            "mode": self.mode,
        }
        if self.mode == "MONTE_CARLO":
            out["trials"] = self.trials
            out["seed"] = self.seed
        return out


@dataclass
class VerifyReport:
    theorem: str
    instances_checked: int
    failures: list[str] = field(default_factory=list)
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "theorem": self.theorem,
            "instances_checked": self.instances_checked,
            "failures": list(self.failures),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


class OracleCache:
    """Memoizes oracle values by everything they depend on: grid, n,
    alpha, search support, and the upper set itself (its mask bytes over
    the sample space of grid and n). Distinct samples sharing an upper set
    (e.g. under a quantile preorder) hit one entry. Its config is the one
    every search through it runs with; the sample space comes from
    ``enumerate_omega``, the same object the oracle reads. A hit costs
    O(runs of x) plus one mask comparison over the sample space: x's row
    comes from its indices, the order's rank vector is the one the sample
    space keeps (``Omega.ranks``), and the refined support's augmentation
    is memoized. ``hits`` and ``misses`` count the lookups ``value``
    answered from the table and by a search."""

    def __init__(self, cfg: OracleConfig | None = None):
        self.cfg = cfg or OracleConfig()
        self._values: dict[tuple, float] = {}
        self.hits = 0
        self.misses = 0

    def value(self, x: Sample, order: Preorder, alpha: float,
              support: SupportSet | None = None) -> float:
        sup = self.cfg.support_override if support is None else support
        if sup is None:
            sup = refined_support(x, order)
        mask = upper_set(x, order, enumerate_omega(x.grid, x.n)).mask
        key = (x.grid, x.n, alpha, sup.indices, mask.tobytes(), self.cfg.resolution)
        if key in self._values:
            self.hits += 1
        else:
            cfg = replace(self.cfg, support_override=sup)
            self._values[key] = pessimal_bound_oracle(x, order, alpha, cfg).value
            self.misses += 1
        return self._values[key]


def value_tolerance(grid: SupportGrid, cfg: OracleConfig) -> float:
    """Default slack for oracle-value comparisons: twice the grid step
    the search was asked for, scaled by the support range."""
    return 2.0 * cfg.resolution * (grid.s_max - grid.s_min)


def exact_coverage(F: Distribution, bound_fn, n: int, alpha: float,
                   method: str = "custom") -> CoverageReport:
    """Coverage by full enumeration of the sample space: the covered pmf
    summed exactly (``math.fsum``) and clamped to [0, 1], since the rounded
    pmf terms themselves can add up to just over 1."""
    omega = enumerate_omega(F.grid, n)
    mu = mean(F)
    covered = np.array([bound_fn(x) <= mu + COVERED_SLACK for x in omega], dtype=bool)
    cov = math.fsum(omega_pmf(F, omega)[covered].tolist())
    return CoverageReport(method, alpha, n, F, min(1.0, max(0.0, cov)), "EXACT")


def mc_coverage(F: Distribution, bound_fn, n: int, trials: int, seed: int,
                alpha: float, method: str = "custom") -> CoverageReport:
    """Coverage by seeded simulation; deterministic given the seed.

    Trials are drawn and tallied in chunks of ``kernels.BLOCK_ROWS`` rows
    of one stream, so the draws never take more than one chunk's memory
    however many trials run; the tally keeps one count per distinct
    sample, read off the runs of equal rows in each chunk's lexsort, and
    the bound is evaluated once per distinct sample, in sample order."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = make_rng(seed)
    cum = np.cumsum(F.mass)
    tally: dict[tuple[int, ...], int] = {}
    for start in range(0, trials, kernels.BLOCK_ROWS):
        u = rng.random((min(kernels.BLOCK_ROWS, trials - start), n))
        idx = np.minimum(np.searchsorted(cum, u, side="right"), F.grid.m - 1)
        idx.sort(axis=1)
        # equal rows in runs: sorted by the first column, ties by the next
        idx = idx[np.lexsort(idx.T[::-1])]
        starts = np.flatnonzero(np.r_[True, (idx[1:] != idx[:-1]).any(axis=1)])
        counts = np.diff(starts, append=idx.shape[0])
        for row, c in zip(map(tuple, idx[starts].tolist()), counts.tolist()):
            tally[row] = tally.get(row, 0) + c
    mu = mean(F)
    covered = sum(c for row, c in sorted(tally.items())
                  if bound_fn(Sample(F.grid, row)) <= mu + COVERED_SLACK)
    return CoverageReport(method, alpha, n, F, covered / trials, "MONTE_CARLO",
                          trials=trials, seed=seed)


def make_oracle_bound(order: Preorder, alpha: float,
                      cache: OracleCache | None = None):
    """Bound function backed by the search oracle, memoized per upper set."""
    cache = cache or OracleCache()

    def bound(x: Sample) -> float:
        return cache.value(x, order, alpha)

    return bound


def verify_sandwich(grid: SupportGrid, n: int, alpha: float,
                    cache: OracleCache | None = None,
                    orders: list[Preorder] | None = None) -> VerifyReport:
    """Extremality of the lexicographic orders among monotone orders.

    For every monotone total order T and homogeneous sample: the
    low-lexicographic upper set is contained in T's, which is contained
    in the high-lexicographic one (checked as exact set inclusions), and
    for every x sitting between consecutive homogeneous samples under T
    the bound values form the matching chain (checked with slack twice
    the value tolerance). Non-monotone orders passed in are filtered out,
    not asserted on. Oracle values come from ``cache`` (a fresh default
    one when omitted), whose config sets the search and the tolerance.
    """
    cache = cache or OracleCache()
    omega = enumerate_omega(grid, n)
    if orders is None:
        orders = monotone_linear_extensions(omega)
    orders = [T for T in orders if is_monotone(T, omega)]
    tol = value_tolerance(grid, cache.cfg)
    lexi_low, lexi_high = LexiLow(), LexiHigh()
    report = VerifyReport("sandwich", 0, tolerance=tol)

    homs = [homogeneous_sample(grid, i, n) for i in range(grid.m)]
    rows = [omega.position(s) for s in homs]
    lows = [upper_set(s, lexi_low, omega).mask for s in homs]
    highs = [upper_set(s, lexi_high, omega).mask for s in homs]
    for T in orders:
        rank = omega.ranks(T)
        for i in range(grid.m):
            u_t = rank >= rank[rows[i]]
            report.instances_checked += 1
            if (lows[i] & ~u_t).any() or (u_t & ~highs[i]).any():
                report.failures.append(f"upper-set inclusion broken at S_{i}")
        for i in range(grid.m - 1):
            lo = cache.value(homs[i], lexi_high, alpha)
            hi = cache.value(homs[i + 1], lexi_low, alpha)
            between = (rank >= rank[rows[i]]) & (rank <= rank[rows[i + 1]])
            for r in np.flatnonzero(between):
                x = omega[r]
                v = cache.value(x, T, alpha)
                report.instances_checked += 1
                if not (lo - 2 * tol <= v <= hi + 2 * tol):
                    report.failures.append(
                        f"value chain broken at x={x.idx}, i={i}: "
                        f"{lo:.6f} <= {v:.6f} <= {hi:.6f} fails at 2*tol={2 * tol:.2e}"
                    )
        for i, si in enumerate(homs):
            v = cache.value(si, T, alpha)
            lo = cache.value(si, lexi_high, alpha)
            hi = lexi_low_homogeneous(grid, i, n, alpha)
            report.instances_checked += 1
            if not (lo - tol <= v <= hi + tol):
                report.failures.append(
                    f"extremality broken at S_{i}: {lo:.6f} <= {v:.6f} <= {hi:.6f}"
                )
    return report


def verify_consistency(order: Preorder, bound_values: dict[Sample, float],
                       tolerance: float = 0.0) -> VerifyReport:
    """A bound is consistent with a preorder iff it is monotone across
    strict comparisons and constant across equivalences."""
    samples = list(bound_values)
    if not samples:
        raise ValueError("empty bound table")
    omega = enumerate_omega(samples[0].grid, samples[0].n)
    missing = [x.idx for x in omega if x not in bound_values]
    if missing:
        raise ValueError(f"bound table missing samples: {missing}")
    report = VerifyReport(f"consistency[{order.name}]", len(omega) ** 2, tolerance=tolerance)
    rank = omega.ranks(order)
    b = np.array([bound_values[x] for x in omega], dtype=float)
    falls = (rank[:, None] < rank[None, :]) & (b[:, None] > b[None, :] + tolerance)
    differs = (rank[:, None] == rank[None, :]) & (np.abs(b[:, None] - b[None, :]) > tolerance)
    for r, c in zip(*np.nonzero(falls | differs)):
        x, y, bx, by = omega[r], omega[c], float(b[r]), float(b[c])
        if falls[r, c]:
            report.failures.append(f"{x.idx} < {y.idx} but B falls {bx:.6f} -> {by:.6f}")
        else:
            report.failures.append(f"{x.idx} ~ {y.idx} but B differs {bx:.6f} vs {by:.6f}")
    return report


def consistency_campaign(grid: SupportGrid, n: int, alpha: float,
                         cache: OracleCache | None = None) -> list[VerifyReport]:
    """Oracle-value consistency for the built-in preorders, with values
    from ``cache`` (a fresh default one when omitted)."""
    cache = cache or OracleCache()
    omega = enumerate_omega(grid, n)
    tol = value_tolerance(grid, cache.cfg)
    orders: list[Preorder] = [LexiLow(), LexiHigh()] + [Quantile(i) for i in range(1, n + 1)]
    reports = []
    for order in orders:
        table = {x: cache.value(x, order, alpha) for x in omega}
        reports.append(verify_consistency(order, table, tolerance=tol))
    return reports


def verify_agreement(x: Sample, order: Preorder, trials: int, seed: int) -> VerifyReport:
    """Upper-set probabilities are blind to mass arrangements off the
    relevant support values.

    The relevant values C are ``oracle.relevant_values``, the set the
    oracle's support refinement rests on. For random G, move
    sub-threshold mass to the grid minimum and inter-gap mass to successor
    points. Each trial checks that the transfer H agrees with G pointwise
    and cumulatively on C, that H lives on the augmentation of C, and that
    the upper-set probability is unchanged to within 1e-12. Trials run as
    mass stacks of ``BLOCK_ROWS // |omega|`` rows drawn from one stream.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    grid = x.grid
    C = relevant_values(x, order)
    if C is None:
        raise ValueError(f"no agreement construction for order {order.name}")
    omega = enumerate_omega(grid, x.n)
    U = upper_set(x, order, omega)
    C_aug = augment(C, grid)
    rng = make_rng(seed)
    where = f"x={x.idx}, order={order.name}"
    report = VerifyReport(f"agreement[{order.name}]", trials, tolerance=1e-12)
    rows = max(1, kernels.BLOCK_ROWS // len(omega))
    for start in range(0, trials, rows):
        G = rng.dirichlet(np.ones(grid.m), size=min(rows, trials - start))
        H = transfer_to_augmented(G, C, grid)
        delta = np.abs(prob_upper_set(G, U) - prob_upper_set(H, U))
        agrees, restricted = agree_on(G, H, C), restrict_to(H, C_aug)
        for t in np.flatnonzero(~agrees | ~restricted | (delta > 1e-12)).tolist():
            if not agrees[t]:
                report.failures.append(f"{where}: transfer does not agree with G on {C.indices}")
            if not restricted[t]:
                report.failures.append(f"{where}: transfer puts mass off the augmented set")
            if delta[t] > 1e-12:
                report.failures.append(f"{where}: probability moved by {delta[t]:.3e}")
    return report


def agreement_campaign(grid: SupportGrid, trials: int, seed: int) -> list[VerifyReport]:
    """Agreement invariance for the low-lexicographic and median preorders
    at the mixed sample (1, 1, 3) on a 5-point grid over grid's range."""
    x = Sample(SupportGrid(grid.s_min, grid.s_max, 5), (1, 1, 3))
    return [
        verify_agreement(x, LexiLow(), trials, seed),
        verify_agreement(x, Quantile(2), trials, seed + 1),
    ]


def verify_refinement(grid: SupportGrid, n: int, alpha: float,
                      cache: OracleCache | None = None) -> VerifyReport:
    """Support restriction does not change oracle values for quantile and
    low-lexicographic preorders (within twice the value tolerance), with
    values from ``cache`` (a fresh default one when omitted)."""
    cache = cache or OracleCache()
    omega = enumerate_omega(grid, n)
    tol = value_tolerance(grid, cache.cfg)
    report = VerifyReport("refinement", 0, tolerance=2 * tol)
    orders: list[Preorder] = [LexiLow()] + [Quantile(i) for i in range(1, n + 1)]
    for order in orders:
        for x in omega:
            refined = cache.value(x, order, alpha)
            full = cache.value(x, order, alpha, support=full_support(grid))
            report.instances_checked += 1
            if abs(refined - full) > 2 * tol:
                report.failures.append(
                    f"x={x.idx}, order={order.name}: refined {refined:.6f} vs full {full:.6f}"
                )
    return report


def verify_lipschitz(ms: tuple[int, ...] = (2, 5, 10), pairs: int = 1000,
                     seed: int = 20260810) -> VerifyReport:
    """Mean differences are Lipschitz in the l2 mass distance."""
    report = VerifyReport("mean-lipschitz", 0, tolerance=1e-12)
    for m in ms:
        grid = SupportGrid(0.0, 1.0, m)
        # one call draws the same stream as 2 * pairs single-row dirichlet calls
        masses = make_rng(seed + m).dirichlet(np.ones(m), size=2 * pairs)
        holds = mean_lipschitz_check(grid, masses[0::2], masses[1::2])
        report.instances_checked += holds.size
        report.failures.extend(f"violated at m={m}" for _ in np.flatnonzero(~holds))
    return report


def run_all(grid: SupportGrid | None = None, n: int = 2, alpha: float = 0.25,
            cache: OracleCache | None = None, trials: int = 200,
            seed: int = 20260810) -> list[VerifyReport]:
    """The shipped default campaign: sandwich, consistency, agreement,
    refinement, and the mean-Lipschitz sweep.

    The three oracle campaigns share ``cache`` (a fresh default one when
    omitted), so each distinct (sample, upper set, support) is searched
    once per run; every report is the same as with a cache per campaign."""
    grid = grid or SupportGrid(0.0, 1.0, 3)
    cache = cache or OracleCache()
    reports = [verify_sandwich(grid, n, alpha, cache)]
    reports.extend(consistency_campaign(grid, n, alpha, cache))
    reports.extend(agreement_campaign(grid, trials, seed))
    reports.append(verify_refinement(grid, n, alpha, cache))
    reports.append(verify_lipschitz(seed=seed))
    return reports
