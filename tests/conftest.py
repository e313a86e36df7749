import math

import pytest
from scipy.special import betaincinv

from orderbound import SupportGrid, enumerate_omega
from orderbound.quantile import _certified_cell


@pytest.fixture(autouse=True)
def _cold_quantile_cells():
    """Every test starts and ends with an empty quantile-cell memo, so a
    test that patches betaincinv or tail_prob never reads a cell certified
    without the patch, and no cell it certified with one outlives it."""
    _certified_cell.cache_clear()
    yield
    _certified_cell.cache_clear()


@pytest.fixture
def unit2():
    return SupportGrid(0.0, 1.0, 2)


@pytest.fixture
def unit3():
    return SupportGrid(0.0, 1.0, 3)


@pytest.fixture
def unit5():
    return SupportGrid(0.0, 1.0, 5)


def binom_tail_by_summation(k: int, n: int, p: float) -> float:
    """Independent reference: P[X > k] for X ~ Binomial(n, p), summed term
    by term over the upper tail (not one minus the cdf, which cancels)."""
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k + 1, n + 1))


def criterion_4_calls():
    """Every (sample, i, alpha) of acceptance criterion 4."""
    grid = SupportGrid(0.0, 1.0, 5)
    for n in (1, 2, 3, 4):
        for x in enumerate_omega(grid, n):
            for i in range(1, n + 1):
                for alpha in (0.05, 0.25):
                    yield x, i, alpha


def exact_quantile_bound(x, i: int, alpha: float) -> float:
    """The true bound under Quantile(i): P_F[U] depends on F only through
    q = F(X >= v), v = x_(i), and rises with q, so the least mean puts
    mass p* = betaincinv(n - i + 1, i, alpha) at v and the rest at s_min."""
    grid, v = x.grid, x.grid.point(x.order_stat(i))
    return grid.s_min + float(betaincinv(x.n - i + 1, i, alpha)) * (v - grid.s_min)


def count_linear_extensions(n_elems: int, strict_pairs: set[tuple[int, int]]) -> int:
    """Independent reference: count linear extensions by recursive removal
    of minimal elements (different algorithm from the permutation filter)."""
    remaining = frozenset(range(n_elems))

    def rec(left: frozenset) -> int:
        if not left:
            return 1
        total = 0
        for e in left:
            if not any(a in left and (a, e) in strict_pairs for a in left):
                total += rec(left - {e})
        return total

    return rec(remaining)
