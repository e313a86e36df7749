"""Acceptance suite: one test per shipped criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them as they happen). Oracle runs are memoized per upper set within the
module, which is what keeps the sweeps inside their runtime budgets.
"""

import itertools
import time

import numpy as np
import pytest

from orderbound import (
    Distribution,
    LexiHigh,
    LexiLow,
    OracleConfig,
    Pointwise,
    Quantile,
    Sample,
    SupportGrid,
    enumerate_omega,
    homogeneous_sample,
    lexi_high_homogeneous_bracket,
    optimal_pointwise_homogeneous,
    quantile_bound,
)
from orderbound.harness import (
    OracleCache,
    exact_coverage,
    make_oracle_bound,
    verify_agreement,
    verify_lipschitz,
    verify_refinement,
    verify_sandwich,
)

RES = 1e-3
CFG = OracleConfig(resolution=RES)
SWEEP_MS = (2, 3, 5)
SWEEP_NS = (1, 2, 3)
SWEEP_ALPHAS = (0.05, 0.25, 0.5)


@pytest.fixture(scope="module")
def cache():
    return OracleCache(CFG)


def _report(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {name} {detail}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def test_criterion_1_pointwise_closed_form(cache):
    t0 = time.monotonic()
    failures = []
    worst = 0.0
    count = 0
    for m in SWEEP_MS:
        grid = SupportGrid(0.0, 1.0, m)
        tol = 2 * RES * (grid.s_max - grid.s_min)
        for n, alpha, i in itertools.product(SWEEP_NS, SWEEP_ALPHAS, range(m)):
            x = homogeneous_sample(grid, i, n)
            got = cache.value(x, Pointwise(x), alpha)
            want = optimal_pointwise_homogeneous(grid, i, n, alpha)
            worst = max(worst, abs(got - want))
            count += 1
            if not want - 1e-9 <= got <= want + tol:
                failures.append(f"m={m} n={n} a={alpha} i={i}: {got:.6f} vs {want:.6f}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s over the 120s budget")
    _report(1, "pointwise closed form",
            failures, f"({count} instances, max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_lexi_low_closed_form(cache):
    failures = []
    worst = 0.0
    count = 0
    for m in SWEEP_MS:
        grid = SupportGrid(0.0, 1.0, m)
        tol = 2 * RES * (grid.s_max - grid.s_min)
        for n, alpha, i in itertools.product(SWEEP_NS, SWEEP_ALPHAS, range(m)):
            x = homogeneous_sample(grid, i, n)
            got = cache.value(x, LexiLow(), alpha)
            want = optimal_pointwise_homogeneous(grid, i, n, alpha)
            worst = max(worst, abs(got - want))
            count += 1
            if not want - 1e-9 <= got <= want + tol:
                failures.append(f"m={m} n={n} a={alpha} i={i}: {got:.6f} vs {want:.6f}")
    _report(2, "lexi-low closed form", failures,
            f"({count} instances, max err {worst:.2e})")


def test_criterion_3_lexi_high_bracket(cache):
    failures = []
    count = 0
    for m in SWEEP_MS:
        grid = SupportGrid(0.0, 1.0, m)
        tol = 2 * RES * (grid.s_max - grid.s_min)
        for n, alpha in itertools.product(SWEEP_NS, SWEEP_ALPHAS):
            for i in range(1, m):
                got = cache.value(homogeneous_sample(grid, i, n), LexiHigh(), alpha)
                br = lexi_high_homogeneous_bracket(grid, i, n, alpha)
                count += 1
                if not br.contains(got, slack=tol):
                    failures.append(
                        f"m={m} n={n} a={alpha} i={i}: {got:.6f} outside "
                        f"[{br.lo:.6f}, {br.hi:.6f}]"
                    )
    _report(3, "lexi-high bracket", failures, f"({count} instances)")


def test_criterion_4_quantile_approximation(cache):
    t0 = time.monotonic()
    grid = SupportGrid(0.0, 1.0, 5)
    eps = 1e-4
    c = grid.spacing
    tol = c + eps + 2 * RES * (grid.s_max - grid.s_min)
    failures = []
    worst = 0.0
    count = 0
    for n in (1, 2, 3, 4):
        for x in enumerate_omega(grid, n):
            for i in range(1, n + 1):
                for alpha in (0.05, 0.25):
                    approx = quantile_bound(x, i, alpha, eps).bound
                    exact = cache.value(x, Quantile(i), alpha)
                    gap = abs(approx - exact)
                    worst = max(worst, gap)
                    count += 1
                    if gap > tol:
                        failures.append(
                            f"x={x.idx} i={i} a={alpha}: |{approx:.6f} - {exact:.6f}| > {tol:.4f}"
                        )
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s over the 300s budget")
    _report(4, "quantile approximation vs oracle", failures,
            f"({count} instances, max gap {worst:.4f} <= {tol:.4f}, {elapsed:.1f}s)")


def test_criterion_5_analytic_quantile_family():
    grid = SupportGrid(0.0, 1.0, 5)
    eps = 1e-4
    failures = []
    count = 0
    # i = 1: the upper set needs every draw at-or-above the atom, so the
    # critical mass is alpha**(1/n) analytically
    for n in range(1, 7):
        for alpha in (0.01, 0.1, 0.5):
            for j in range(5):
                x = homogeneous_sample(grid, j, n)
                res = quantile_bound(x, 1, alpha, eps)
                p_star = alpha ** (1.0 / n)
                want = grid.s_min * (1 - p_star) + grid.point(j) * p_star
                count += 1
                if j > 0 and abs(res.p_hat - p_star) > res.delta:
                    failures.append(f"n={n} a={alpha} j={j}: p_hat off by "
                                    f"{abs(res.p_hat - p_star):.2e} > {res.delta:.2e}")
                if abs(res.bound - want) > eps + res.delta * (grid.s_max - grid.s_min):
                    failures.append(f"n={n} a={alpha} j={j}: bound {res.bound:.6f} vs {want:.6f}")
    _report(5, "analytic quantile family", failures, f"({count} instances)")


def test_criterion_6_sandwich_campaign():
    grid = SupportGrid(0.0, 1.0, 3)
    report = verify_sandwich(grid, 2, 0.25, OracleCache(CFG))
    _report(6, "sandwich campaign m=3 n=2", report.failures,
            f"({report.instances_checked} instances, tol {report.tolerance:.1e})")


def test_criterion_7_refinement_soundness():
    failures = []
    count = 0
    for m in (2, 3, 4):
        for n in (1, 2, 3):
            report = verify_refinement(SupportGrid(0.0, 1.0, m), n, 0.25, OracleCache(CFG))
            count += report.instances_checked
            failures += [f"m={m} n={n}: {f}" for f in report.failures]
    _report(7, "refinement soundness", failures, f"({count} instances)")


def test_criterion_8_agreement_property():
    grid = SupportGrid(0.0, 1.0, 5)
    x = Sample(grid, (1, 1, 3))
    failures = []
    count = 0
    for order, seed in ((LexiLow(), 1001), (Quantile(2), 1002)):
        report = verify_agreement(x, order, trials=200, seed=seed)
        count += report.instances_checked
        failures += report.failures
    _report(8, "agreement under support transfer", failures, f"({count} pairs)")


def test_criterion_9_coverage_validity():
    grid = SupportGrid(0.0, 1.0, 3)
    alpha = 0.1
    bound = make_oracle_bound(LexiLow(), alpha, OracleCache(CFG))
    failures = []
    count = 0
    sweep = [
        np.array([a, b, 10 - a - b], dtype=float) / 10.0
        for a in range(11)
        for b in range(11 - a)
    ]
    for n in (1, 2, 3):
        for mass in sweep:
            F = Distribution(grid, mass)
            cov = exact_coverage(F, bound, n, alpha).coverage
            count += 1
            if cov < 1 - alpha - 1e-9:
                failures.append(f"n={n} mass={mass.tolist()}: coverage {cov:.6f}")
    _report(9, "coverage validity on simplex sweep", failures,
            f"({count} distributions, level {1 - alpha})")


def test_criterion_10_mean_lipschitz():
    report = verify_lipschitz(ms=(2, 5, 10), pairs=1000, seed=20260810)
    _report(10, "mean-Lipschitz inequality", report.failures,
            f"({report.instances_checked} seeded pairs)")
