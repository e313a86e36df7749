"""Fast approximation of quantile-preorder bounds in closed form.

The bound for sample x under the i-th quantile preorder is attained in a
two-atom family: mass p at x's i-th order statistic and 1 - p at the grid
minimum. The constraint probability is a binomial tail that is monotone
in p. It equals the regularized incomplete beta function
``I_p(k + 1, n - k)`` (DLMF 8.17.5), so the critical mass where it reaches
alpha is one ``betaincinv`` call. That mass is snapped to the dyadic grid a
bisection on [0, 1] would stop on, and the grid point is certified by
evaluating the tail at its two ends. The critical mass and its certified
cell depend on the sample only through (n, i), so each (n, i, alpha, t)
cell, t the grid depth, is certified once per process and kept in a
4,096-entry memo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .support import Sample


def tail_prob(i: int, n: int, p: float) -> float:
    """Probability that the i-th smallest of n two-atom draws is the high atom.

    With X counting draws on the high atom, the i-th order statistic
    reaches it iff at most i - 1 draws land below, i.e. X > k with
    ``k = n - i``. The tail ``P[X > k] = I_p(k + 1, n - k)`` is evaluated
    directly: one minus the binomial cdf cancels to 0 once the tail falls
    below about 1e-16.

    Non-decreasing in p for every fixed (i, n).
    """
    from scipy.special import betainc  # imported on use: importing orderbound loads no scipy

    if not 1 <= i <= n:
        raise ValueError(f"order statistic index {i} outside [1, {n}]")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    k = n - i
    return float(betainc(k + 1, n - k, p))


# a double holds j * 2**-t exactly for every integer j up to 2**53
_EXACT_STEPS = 2**53


def _too_fine(epsilon: float, p_star: float) -> ValueError:
    return ValueError(
        f"epsilon {epsilon!r} is too small: the search grid near p = {p_star!r}"
        " is finer than double precision"
    )


class _TooFine(Exception):
    """Raised with the critical mass when the grid cells near it have no
    double ends; ``quantile_bound`` names the caller's epsilon."""


@functools.lru_cache(maxsize=4096)
def _certified_cell(i: int, n: int, alpha: float, t: int) -> tuple[float, float]:
    """The critical mass p_star of the i-th of n draws at alpha, and p_hat,
    the left end of the certified cell of the dyadic grid of step 2**-t.

    Neither depends on the sample beyond (n, i), so each cell is searched
    once and kept with the 4,096 most recently asked for. Raises
    FloatingPointError when betaincinv returns a non-finite mass and
    _TooFine when the grid near it is finer than double precision; neither
    is kept.
    """
    from scipy.special import betaincinv  # imported on use, as in tail_prob

    k = n - i
    p_star = 0.0 if alpha == 0.0 else float(betaincinv(k + 1, n - k, alpha))
    if not math.isfinite(p_star):
        raise FloatingPointError(f"betaincinv({k + 1}, {n - k}, {alpha!r}) returned {p_star}")
    # p_hat = lo * 2**-t with lo < 2**t, and both ends of its grid cell are
    # doubles only for lo < 2**53
    if t > 53 and p_star >= math.ldexp(1.0, 53 - t):
        raise _TooFine(p_star)
    top = 2**t

    def below(m: int) -> bool:
        return tail_prob(i, n, math.ldexp(m, -t)) < alpha

    # Certify the grid cell [lo, hi] * 2**-t: lo == 0 or below(lo), and
    # hi == top or not below(hi). When rounding put p_star in a neighbouring
    # cell, gallop toward the failed test and bisect the bracket it finds;
    # with a monotone tail exactly one cell passes, the one the bisection
    # of [0, 1] ends in.
    lo = min(max(math.floor(math.ldexp(p_star, t)), 0), top - 1)
    hi = lo + 1
    step = 1
    while lo > 0 and not below(lo):
        lo, hi = max(lo - step, 0), lo
        step *= 2
    while hi < top and below(hi):
        if hi == _EXACT_STEPS:
            raise _TooFine(p_star)
        lo, hi = hi, min(hi + step, top, _EXACT_STEPS)
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return p_star, math.ldexp(lo, -t)


@dataclass(frozen=True)
class QuantileBoundResult:
    """Outcome of the search for the critical mass.

    bound = s_min * (1 - p_hat) + x_(i) * p_hat; c is the grid spacing
    (reported only: the two-atom reduction is exact) and delta the
    requested width of the interval holding the critical mass. p_hat sits
    on the dyadic grid of step ``2**-iterations``, the coarsest one no wider
    than delta; iterations is therefore the number of steps a bisection of
    [0, 1] takes to reach width delta, and p_hat the left end it stops on.
    """

    p_hat: float
    bound: float
    epsilon: float
    c: float
    iterations: int
    delta: float


def quantile_bound(
    x: Sample,
    i: int,
    alpha: float,
    epsilon: float,
) -> QuantileBoundResult:
    """Approximate the i-th quantile-preorder bound at sample x.

    p_hat is the largest point q of the dyadic grid of step ``h = 2**-t``
    below the critical mass: the tail probability is strictly below alpha
    at q (or q = 0) and at least alpha at q + h (or q + h = 1). t is the
    smallest integer with ``h <= delta``, where ``delta = epsilon /
    max(x_(i) - s_min, epsilon)``, so the mean error contributed by the
    search is at most epsilon on any grid. This is exactly the left end a
    bisection of [0, 1] stops on (keep the upper half iff the tail at the
    midpoint is strictly below alpha, until the width is at most delta),
    after t halvings.

    The critical mass ``betaincinv(k + 1, n - k, alpha)`` (``k = n - i``)
    is rounded down to the grid, and the two conditions above are checked
    with two tail evaluations. If rounding put the point on the wrong side
    of a test, the search steps by h toward the test that failed, doubling
    the step until it passes, and bisects the grid points in between. The
    certified cell depends on x only through (n, i): it is searched once
    per (n, i, alpha, t) per process and kept with the 4,096 most recently
    used, so a later call for the same cell evaluates no tail.

    The two-atom family holds the exact bound for this preorder, and p_hat
    lies within h <= delta of the critical mass, so the result is within
    epsilon of the exact bound; with alpha = 0 the search collapses to
    p_hat = 0 and the bound to the grid minimum. Raises ValueError when
    epsilon is not a positive finite float (an infinite one would make
    delta NaN), or so small that the grid points near the critical mass
    are not doubles.
    """
    n = x.n
    if not 1 <= i <= n:
        raise ValueError(f"order statistic index {i} outside [1, {n}]")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")

    grid = x.grid
    value = grid.point(x.order_stat(i))
    delta = epsilon / max(value - grid.s_min, epsilon)
    # delta = f * 2**e with f in [0.5, 1), so 2**-t <= delta iff t >= 1 - e
    t = 1 - math.frexp(delta)[1]
    try:
        p_star, p_hat = _certified_cell(i, n, alpha, t)
    except _TooFine as fine:
        raise _too_fine(epsilon, fine.args[0]) from None
    if delta == 0.0:  # t = 1 here; the cell was searched only for p_star
        raise _too_fine(epsilon, p_star)
    bound = grid.s_min * (1.0 - p_hat) + value * p_hat
    return QuantileBoundResult(
        p_hat=p_hat,
        bound=bound,
        epsilon=epsilon,
        c=grid.spacing,
        iterations=t,
        delta=delta,
    )

