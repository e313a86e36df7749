import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import orderbound.quantile
from orderbound import (
    Sample,
    SupportGrid,
    enumerate_omega,
    homogeneous_sample,
    make_sample,
    quantile_bound,
    tail_prob,
)
from orderbound.quantile import QuantileBoundResult, _certified_cell

from conftest import binom_tail_by_summation, criterion_4_calls, exact_quantile_bound


def _tail_by_enumeration(i, n, p):
    """Independent reference: walk all 2^n outcomes of the two-atom draw
    and test the i-th smallest directly."""
    total = 0.0
    for hits in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for h in hits:
            prob *= p if h else 1.0 - p
        if sorted(hits)[i - 1] == 1:
            total += prob
    return total


class TestTailProb:
    def test_single_draw(self):
        for p in (0.0, 0.3, 1.0):
            assert abs(tail_prob(1, 1, p) - p) < 1e-15

    def test_certain_at_full_mass(self):
        for n in (1, 3, 6):
            assert tail_prob(n, n, 1.0) == 1.0

    def test_max_statistic_two_draws(self):
        # P[max of two draws hits the atom] = 1 - (1-p)^2
        assert abs(tail_prob(2, 2, 0.5) - 0.75) < 1e-15
        assert abs(tail_prob(2, 2, 0.5) - _tail_by_enumeration(2, 2, 0.5)) < 1e-15

    def test_min_statistic_two_draws(self):
        # P[min of two draws hits the atom] = p^2
        assert abs(tail_prob(1, 2, 0.5) - 0.25) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_enumeration(self, n):
        for i in range(1, n + 1):
            for p in (0.0, 0.2, 0.5, 0.9, 1.0):
                assert abs(tail_prob(i, n, p) - _tail_by_enumeration(i, n, p)) < 1e-12

    @pytest.mark.parametrize("p", [1e-5, 1e-12, 1e-100])
    def test_small_tail_does_not_cancel(self, p):
        # 1 - P[X <= k] read 0 here for every p below 7.45e-9
        assert tail_prob(1, 2, p) == pytest.approx(p**2, rel=1e-14, abs=0.0)

    def test_probability_validation(self):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                tail_prob(1, 2, p)

    def test_off_by_one_reading_is_a_different_event(self):
        # the paper's text puts the tail at P[X > n - i - 1], X the draws on
        # the high atom: one draw fewer than the i-th smallest needs. At
        # (i, n, p) = (2, 2, 0.5) that is P[X >= 0], certain, while the
        # larger of two draws lands on the high atom with probability 0.75
        i, n, p = 2, 2, 0.5
        off_by_one = sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n - i, n + 1))
        assert off_by_one == 1.0
        assert tail_prob(i, n, p) == _tail_by_enumeration(i, n, p) == 0.75

    def test_edges(self):
        for n in (1, 2, 5, 150):
            for i in range(1, n + 1):
                assert tail_prob(i, n, 0.0) == 0.0
                assert tail_prob(i, n, 1.0) == 1.0

    @given(
        n=st.integers(1, 150),
        i_frac=st.floats(0, 1),
        p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_direct_summation(self, n, i_frac, p):
        i = 1 + int(round(i_frac * (n - 1)))
        assert abs(tail_prob(i, n, p) - binom_tail_by_summation(n - i, n, p)) < 1e-12

    def test_large_n_against_mpmath(self):
        # P[X > k] at n = 10,000 against a 40-digit sum of the tail terms,
        # each the last times (n - j) / (j + 1) * p / (1 - p)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        n = 10_000
        for k, p in [(5000, 0.5), (4800, 0.47), (9999, 0.999), (120, 0.01)]:
            q = mpmath.mpf(p)
            ratio = q / (1 - q)
            term = mpmath.binomial(n, k + 1) * q ** (k + 1) * (1 - q) ** (n - k - 1)
            want = mpmath.mpf(0)
            for j in range(k + 1, n + 1):
                want += term
                term = term * (n - j) / (j + 1) * ratio
            assert tail_prob(n - k, n, p) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            i = int(rng.integers(1, n + 1))
            p1, p2 = sorted(rng.random(2))
            assert tail_prob(i, n, p1) <= tail_prob(i, n, p2) + 1e-15

    def test_index_validation(self):
        with pytest.raises(ValueError):
            tail_prob(0, 3, 0.5)
        with pytest.raises(ValueError):
            tail_prob(4, 3, 0.5)


class TestQuantileBound:
    def test_single_draw_alpha(self, unit2):
        x = make_sample(unit2, [1.0])
        res = quantile_bound(x, 1, 0.05, 1e-4)
        assert abs(res.p_hat - 0.05) <= res.delta
        assert abs(res.bound - 0.05) <= res.delta
        assert res.c == 1.0

    def test_degenerate_atom_at_min(self, unit3):
        x = make_sample(unit3, [0.0, 0.5])
        res = quantile_bound(x, 1, 0.25, 1e-4)
        assert res.bound == unit3.s_min
        assert res.iterations == 0  # delta = 1, interval never shrinks

    def test_analytic_family_min_statistic(self, unit5):
        """i = 1 needs every draw at-or-above the atom, so the critical
        mass is alpha**(1/n) in closed form."""
        for n in range(1, 7):
            for alpha in (0.01, 0.1, 0.5):
                for j in range(1, 5):
                    x = homogeneous_sample(unit5, j, n)
                    res = quantile_bound(x, 1, alpha, 1e-4)
                    p_star = alpha ** (1.0 / n)
                    v = unit5.point(j)
                    assert abs(res.p_hat - p_star) <= res.delta
                    want = unit5.s_min * (1 - p_star) + v * p_star
                    assert abs(res.bound - want) <= res.epsilon + res.delta * 1.0

    def test_criterion_4_calls_within_epsilon_of_the_exact_bound(self):
        # the two-atom family holds the exact bound, so the only error is
        # the search's: within epsilon, not one grid step plus epsilon
        eps = 1e-4
        for x, i, alpha in criterion_4_calls():
            exact = exact_quantile_bound(x, i, alpha)
            got = quantile_bound(x, i, alpha, eps).bound
            assert abs(got - exact) <= eps, (x.idx, i, alpha, got, exact)

    def test_interval_brackets_critical_point(self, unit5):
        for n, i, alpha in [(3, 2, 0.25), (4, 1, 0.05), (5, 5, 0.1), (2, 1, 0.25)]:
            x = homogeneous_sample(unit5, 3, n)
            res = quantile_bound(x, i, alpha, 1e-4)
            d = res.delta
            assert tail_prob(i, n, min(res.p_hat + d, 1.0)) > alpha
            assert res.p_hat <= d or tail_prob(i, n, res.p_hat - d) <= alpha

    def test_iteration_cap(self, unit5):
        for eps in (1e-3, 1e-4, 1e-6):
            x = homogeneous_sample(unit5, 4, 3)
            res = quantile_bound(x, 2, 0.25, eps)
            assert res.iterations == 1 - math.frexp(res.delta)[1]

    def test_alpha_zero_collapses(self, unit5):
        x = homogeneous_sample(unit5, 3, 2)
        res = quantile_bound(x, 1, 0.0, 1e-4)
        assert res.p_hat <= res.delta
        assert res.bound <= unit5.s_min + res.delta * (unit5.point(3) - unit5.s_min)

    def test_validation(self, unit5):
        x = homogeneous_sample(unit5, 3, 2)
        with pytest.raises(ValueError):
            quantile_bound(x, 0, 0.25, 1e-4)
        with pytest.raises(ValueError):
            quantile_bound(x, 1, 1.0, 1e-4)
        with pytest.raises(ValueError):
            quantile_bound(x, 1, 0.25, 0.0)


def _bisect_reference(
    x: Sample,
    i: int,
    alpha: float,
    epsilon: float,
) -> QuantileBoundResult:
    """The bisection quantile_bound used to run, kept verbatim as the
    reference its closed form must reproduce bit for bit."""
    n = x.n
    if not 1 <= i <= n:
        raise ValueError(f"order statistic index {i} outside [1, {n}]")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    grid = x.grid
    value = grid.point(x.order_stat(i))
    delta = epsilon / max(value - grid.s_min, epsilon)

    a, b = 0.0, 1.0
    iterations = 0
    while b - a > delta:
        mid = a + (b - a) / 2.0
        if tail_prob(i, n, mid) < alpha:
            a = mid
        else:
            b = mid
        iterations += 1

    p_hat = a
    bound = grid.s_min * (1.0 - p_hat) + value * p_hat
    return QuantileBoundResult(
        p_hat=p_hat,
        bound=bound,
        epsilon=epsilon,
        c=grid.spacing,
        iterations=iterations,
        delta=delta,
    )


SWEEP_ALPHAS = (0.0, 1e-9, 0.05, 0.25, 0.5, 0.95, 0.999999)
SWEEP_EPSILONS = (1e-2, 1e-4, 1e-8, 1e-12)


def _same(res: QuantileBoundResult, ref: QuantileBoundResult) -> bool:
    """Field-wise equality that also tells -0.0 from 0.0."""
    return (
        res == ref
        and res.p_hat.hex() == ref.p_hat.hex()
        and res.bound.hex() == ref.bound.hex()
        and res.delta.hex() == ref.delta.hex()
    )


class TestClosedFormEqualsBisection:
    def test_every_small_sample(self, unit5):
        """Every m=5 sample with n <= 6, every i, alpha and epsilon. The
        bisection reads x only through n and the grid index of its i-th
        order statistic, so one reference call serves every sample sharing
        them."""
        refs = {}
        checked = 0
        for n in range(1, 7):
            for x in enumerate_omega(unit5, n):
                for i in range(1, n + 1):
                    for alpha, eps in itertools.product(SWEEP_ALPHAS, SWEEP_EPSILONS):
                        key = (n, i, x.order_stat(i), alpha, eps)
                        if key not in refs:
                            refs[key] = _bisect_reference(x, i, alpha, eps)
                        res = quantile_bound(x, i, alpha, eps)
                        assert _same(res, refs[key]), (x.idx, i, alpha, eps)
                        checked += 1
        assert checked == 2310 * 7 * 4

    @pytest.mark.parametrize("n", [50, 1000, 10_000])
    def test_large_samples_on_shifted_grid(self, n):
        grid = SupportGrid(-0.75, 0.25, 11)
        rng = np.random.default_rng(n)
        for _ in range(3):
            idx = np.sort(rng.choice(grid.m, size=n, p=rng.dirichlet(np.ones(grid.m))))
            x = Sample(grid, tuple(int(v) for v in idx))
            for i in sorted({1, max(1, n // 10), n // 2, (9 * n) // 10, n}):
                for alpha, eps in itertools.product(SWEEP_ALPHAS, SWEEP_EPSILONS):
                    res = quantile_bound(x, i, alpha, eps)
                    ref = _bisect_reference(x, i, alpha, eps)
                    assert _same(res, ref), (n, i, alpha, eps)


def _walk_cases(unit5):
    """(x, i, alpha) cases with the critical mass inside (0, 1), on a
    dyadic point (alpha = 0.5 at n = 1), and near either end."""
    grid = SupportGrid(-0.75, 0.25, 11)
    big = Sample(grid, tuple(sorted(j % grid.m for j in range(50))))
    return [
        (homogeneous_sample(unit5, 3, 3), 2, 0.25),
        (make_sample(unit5, [0.25, 0.5, 1.0]), 3, 0.05),
        (make_sample(unit5, [1.0]), 1, 0.5),
        (homogeneous_sample(unit5, 4, 6), 6, 0.95),
        (big, 1, 1e-9),
        (big, 25, 0.25),
        (big, 50, 0.999999),
    ]


class TestCertificationWalk:
    @pytest.mark.parametrize("shift", [-3, -1, 1, 3])
    def test_misplaced_critical_mass_walks_back(self, monkeypatch, unit5, shift):
        real = scipy.special.betaincinv
        offset = 0.0
        monkeypatch.setattr(
            scipy.special, "betaincinv", lambda a, b, y: real(a, b, y) + offset
        )
        for x, i, alpha in _walk_cases(unit5):
            for eps in SWEEP_EPSILONS:
                ref = _bisect_reference(x, i, alpha, eps)
                offset = shift * math.ldexp(1.0, -ref.iterations)
                res = quantile_bound(x, i, alpha, eps)
                assert _same(res, ref), (x.idx, i, alpha, eps)

    @pytest.mark.parametrize("p_star", [0.0, 1.0 - 1e-15])
    def test_critical_mass_at_either_end_walks_across(self, monkeypatch, unit5, p_star):
        monkeypatch.setattr(scipy.special, "betaincinv", lambda a, b, y: p_star)
        for x, i, alpha in _walk_cases(unit5):
            for eps in SWEEP_EPSILONS:
                res = quantile_bound(x, i, alpha, eps)
                ref = _bisect_reference(x, i, alpha, eps)
                assert _same(res, ref), (x.idx, i, alpha, eps)

    def test_walk_up_past_exact_grid_points_raises(self, monkeypatch, unit5):
        # on steps of 2**-57 only the cells below 2**-4 have double ends; a
        # critical mass misplaced at 0 passes the up-front check, and the
        # walk up toward the true one, 1 - sqrt(0.75), stops at 2**53 steps
        monkeypatch.setattr(scipy.special, "betaincinv", lambda a, b, y: 0.0)
        with pytest.raises(ValueError, match="too small"):
            quantile_bound(homogeneous_sample(unit5, 4, 2), 2, 0.25, 1e-17)

    def test_nan_critical_mass_raises(self, monkeypatch, unit5):
        monkeypatch.setattr(scipy.special, "betaincinv", lambda a, b, y: math.nan)
        x = homogeneous_sample(unit5, 3, 3)
        with pytest.raises(FloatingPointError, match="betaincinv"):
            quantile_bound(x, 2, 0.25, 1e-4)

    @pytest.mark.parametrize("eps", [1e-4, 1e-12, 1e-18])
    @pytest.mark.parametrize("alpha", [1e-30, 1e-20])
    def test_cancelled_tail_far_from_critical_mass(self, unit5, alpha, eps):
        # the tail p**2 is below 1e-16 here; computed as 1 - P[X <= k] it
        # cancelled to 0 below p ~ 7e-9, far above betaincinv's 1e-15 or
        # 1e-10, and the search galloped thousands of grid steps (billions
        # at 2**-60) to a cell above the critical mass
        x = homogeneous_sample(unit5, 3, 2)
        assert _same(quantile_bound(x, 1, alpha, eps), _bisect_reference(x, 1, alpha, eps))

    def test_tiny_alpha_certifies_below_critical_mass(self, unit5):
        # the critical mass is 1e-15, inside the first cell of step 2**-40
        res = quantile_bound(homogeneous_sample(unit5, 3, 2), 1, 1e-30, 1e-12)
        assert res.p_hat == 0.0

    def test_epsilon_finer_than_doubles_raises(self, unit5):
        # the grid step 2**-60 is below the spacing of doubles near p = 0.5,
        # where the bisection never terminates
        x = homogeneous_sample(unit5, 3, 2)
        with pytest.raises(ValueError, match="too small"):
            quantile_bound(x, 1, 0.25, 1e-18)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1e-4, -math.inf])
    def test_epsilon_must_be_positive_and_finite(self, unit5, eps):
        # an infinite epsilon used to give delta = inf / inf = NaN with one
        # iteration, where the largest finite one gives delta 1.0 and none
        x = homogeneous_sample(unit5, 1, 3)
        with pytest.raises(ValueError, match=f"^epsilon must be positive and finite, got {eps}$"):
            quantile_bound(x, 1, 0.05, eps)
        res = quantile_bound(x, 1, 0.05, sys.float_info.max)
        assert (res.delta, res.iterations) == (1.0, 0)

    def test_underflowing_delta_raises(self):
        # both epsilons share the cell searched for p_star's sake (t = 1)
        x = homogeneous_sample(SupportGrid(0.0, 4.0, 5), 4, 2)
        for eps in (5e-324, 1e-323):
            with pytest.raises(ValueError, match=f"^epsilon {eps!r} is too small"):
                quantile_bound(x, 1, 0.25, eps)


class TestCellMemo:
    def test_warm_memo_matches_cold_and_the_bisection(self, monkeypatch, unit5):
        real = orderbound.quantile.tail_prob
        tails = []
        monkeypatch.setattr(orderbound.quantile, "tail_prob",
                            lambda i, n, p: tails.append(p) or real(i, n, p))
        for x, i, alpha in _walk_cases(unit5):
            for eps in SWEEP_EPSILONS:
                ref = _bisect_reference(x, i, alpha, eps)
                _certified_cell.cache_clear()
                cold = quantile_bound(x, i, alpha, eps)
                tails.clear()
                warm = quantile_bound(x, i, alpha, eps)
                assert tails == []  # the warm call evaluates no tail
                assert _certified_cell.cache_info()[:2] == (1, 1)  # (hits, misses)
                assert _same(cold, ref) and _same(warm, ref), (x.idx, i, alpha, eps)

    def test_each_grid_depth_gets_its_own_cell(self, unit5):
        # at epsilon 1e-4 the order statistics 1.0, 0.75, 0.5 and 0.25 need
        # t = 14, 13, 13 and 12: equal (n, i, alpha), three cells, and the
        # two samples at t = 13 share one
        results = []
        for j in (4, 3, 2, 1):
            x = homogeneous_sample(unit5, j, 3)
            res = quantile_bound(x, 2, 0.25, 1e-4)
            assert _same(res, _bisect_reference(x, 2, 0.25, 1e-4)), j
            results.append(res)
        assert [r.iterations for r in results] == [14, 13, 13, 12]
        assert results[0].p_hat != results[-1].p_hat  # so t = 12 cannot read t = 14's cell
        info = _certified_cell.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 3, 3)

    def test_too_fine_names_the_callers_epsilon(self, unit5):
        # both epsilons ask for the same too-fine cell (t = 60), twice each;
        # the refusal is not kept, and each message names the epsilon asked for
        x = homogeneous_sample(unit5, 3, 2)
        for eps in (1e-18, 1.1e-18) * 2:
            with pytest.raises(ValueError, match=f"^epsilon {eps!r} is too small"):
                quantile_bound(x, 1, 0.25, eps)
        assert _certified_cell.cache_info().currsize == 0

    def test_failed_search_is_not_kept(self, monkeypatch, unit5):
        x = homogeneous_sample(unit5, 3, 3)
        with monkeypatch.context() as m:
            m.setattr(scipy.special, "betaincinv", lambda a, b, y: math.nan)
            with pytest.raises(FloatingPointError, match="betaincinv"):
                quantile_bound(x, 2, 0.25, 1e-4)
        assert _certified_cell.cache_info().currsize == 0
        assert _same(quantile_bound(x, 2, 0.25, 1e-4), _bisect_reference(x, 2, 0.25, 1e-4))

    def test_memo_is_bounded(self):
        maxsize = _certified_cell.cache_info().maxsize
        assert maxsize == 4096
        for n in range(1, maxsize + 11):
            _certified_cell(1, n, 0.0, 1)
        assert _certified_cell.cache_info().currsize == maxsize
        # the least recently used cells went first
        hits = _certified_cell.cache_info().hits
        _certified_cell(1, maxsize + 10, 0.0, 1)
        assert _certified_cell.cache_info().hits == hits + 1
        _certified_cell(1, 1, 0.0, 1)
        assert _certified_cell.cache_info().hits == hits + 1


_FIRST_USE = """
import sys
import orderbound, orderbound.cli
assert "scipy" not in sys.modules, "importing orderbound loaded scipy"
x = orderbound.make_sample(orderbound.SupportGrid(0.0, 1.0, 5), [0.25, 0.5, 0.75])
first = orderbound.quantile_bound(x, 2, 0.05, 1e-4)
import scipy.special
# each search reads scipy.special's binding when it runs, so a patch there
# is seen; a memo hit would never call betaincinv: search the cell again
real, calls = scipy.special.betaincinv, []
scipy.special.betaincinv = lambda a, b, y: calls.append((a, b, y)) or real(a, b, y)
orderbound.quantile._certified_cell.cache_clear()
again = orderbound.quantile_bound(x, 2, 0.05, 1e-4)
assert calls == [(2, 2, 0.05)] and again == first
print(first.bound.hex(), first.p_hat.hex())
"""


def test_scipy_loads_on_first_use():
    src = str(Path(orderbound.quantile.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _FIRST_USE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    x = make_sample(SupportGrid(0.0, 1.0, 5), [0.25, 0.5, 0.75])
    res = quantile_bound(x, 2, 0.05, 1e-4)
    assert out.stdout.split() == [res.bound.hex(), res.p_hat.hex()]
