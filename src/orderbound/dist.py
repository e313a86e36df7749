"""Distributions on a support grid and their sample probabilities.

A distribution is a dense probability vector over the full grid even when
it is known to live on a subset; restriction to a subset is a predicate,
not a type change, which keeps interop with the search oracle simple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .orders import Omega, UpperSet
from .support import Sample, SupportGrid

MASS_SUM_TOL = 1e-12
PMF_CDF_TOL = 1e-12
ZERO_MASS_TOL = 1e-15


def _checked_masses(mass, m: int, ndim: int = 1) -> np.ndarray:
    """A float copy of ``mass``, one mass vector (ndim 1) or one per row
    (ndim 2), after the checks every mass vector gets: length m, finite
    and non-negative entries, and each summing to 1 within MASS_SUM_TOL."""
    arr = np.array(mass, dtype=float)
    if arr.ndim != ndim or arr.shape[-1] != m:
        raise ValueError(f"mass vector must have length m={m}")
    if not np.isfinite(arr).all():
        raise ValueError("mass vector has non-finite entries")
    if np.any(arr < 0):
        raise ValueError("mass vector has negative entries")
    sums = arr.sum(axis=-1)
    off = np.flatnonzero(np.abs(sums - 1.0) > MASS_SUM_TOL)
    if off.size:
        raise ValueError(
            f"mass must sum to 1 within {MASS_SUM_TOL}, got {sums.flat[off[0]]!r}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass vector over the grid points."""

    grid: SupportGrid
    mass: np.ndarray

    def __post_init__(self):
        arr = _checked_masses(self.mass, self.grid.m)
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

    @property
    def mean(self) -> float:
        return mean(self)

    def to_json(self) -> str:
        return json.dumps([float(v) for v in self.mass])


def point_mass(grid: SupportGrid, i: int) -> Distribution:
    mass = np.zeros(grid.m)
    mass[i] = 1.0
    return Distribution(grid, mass)


def uniform(grid: SupportGrid) -> Distribution:
    return Distribution(grid, np.full(grid.m, 1.0 / grid.m))


def distribution_from_json(grid: SupportGrid, text: str) -> Distribution:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of masses")
    return Distribution(grid, np.asarray(data, dtype=float))


@dataclass(frozen=True)
class SupportSet:
    """A subset of grid indices, sorted and without duplicates."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if list(self.indices) != sorted(set(self.indices)):
            object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))
        if any(i < 0 for i in self.indices):
            raise ValueError("support indices must be non-negative")

    @classmethod
    def of(cls, indices) -> "SupportSet":
        return cls(tuple(sorted(set(int(i) for i in indices))))

    def __contains__(self, i: int) -> bool:
        return i in set(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


def full_support(grid: SupportGrid) -> SupportSet:
    return SupportSet(tuple(range(grid.m)))


def mean(F: Distribution) -> float:
    """Expected value: dot product of masses and support points."""
    return float(np.dot(F.mass, np.asarray(F.grid.points)))


def omega_pmf(F: Distribution, omega: Omega) -> np.ndarray:
    """Probability of each sample of omega under F, in omega's row order.

    Multinomial form, one product per row of ``(idx, runs)``: the
    coefficient times F(S_j)^c for each run of c copies of index j, in
    ascending grid order (a column where no run starts gives 1.0 exactly).
    The powers are taken with Python's float ``**`` per (grid point, run
    length) pair, because numpy's vectorized power can differ from it in
    the last bit.
    """
    if omega.grid != F.grid:
        raise ValueError("sample and distribution live on different grids")
    table = np.array([[float(p) ** c for c in range(omega.n + 1)] for p in F.mass])
    factors = table[omega.idx, omega.runs]
    prob = factors[:, 0].copy()
    for col in factors.T[1:]:
        prob *= col
    return omega.coefs * prob


def sample_prob(F: Distribution, x: Sample) -> float:
    """Probability that n i.i.d. draws from F form the multiset x."""
    return float(omega_pmf(F, Omega(x.grid, x.n, [x.idx]))[0])


def prob_upper_set(F: Distribution, U: UpperSet) -> float:
    """Total probability of drawing a sample in the upper set, summed in
    member order."""
    probs = omega_pmf(F, U.omega)[U.mask]
    return float(np.cumsum(probs)[-1]) if probs.size else 0.0


def augment(C: SupportSet, grid: SupportGrid) -> SupportSet:
    """C plus the grid minimum plus the successor of each non-maximal element."""
    out = set(C.indices)
    out.add(0)
    for i in C.indices:
        if i > grid.m - 1:
            raise ValueError(f"support index {i} outside grid")
        if i != grid.m - 1:
            out.add(i + 1)
    return SupportSet.of(out)


def restrict_to(F: Distribution, C: SupportSet) -> bool:
    """True iff F puts (numerically) zero mass outside C."""
    outside = [j for j in range(F.grid.m) if j not in set(C.indices)]
    return all(float(F.mass[j]) <= ZERO_MASS_TOL for j in outside)


def agree_on(G: Distribution, H: Distribution, C: SupportSet) -> bool:
    """Pointwise and cumulative agreement of two distributions on C.

    For every index in C the pmf values must match and the cdf values up
    to and including that index must match, both within 1e-12 absolute.
    """
    if G.grid != H.grid:
        raise ValueError("distributions live on different grids")
    cg = np.cumsum(G.mass)
    ch = np.cumsum(H.mass)
    for j in C.indices:
        if abs(float(G.mass[j]) - float(H.mass[j])) > PMF_CDF_TOL:
            return False
        if abs(float(cg[j]) - float(ch[j])) > PMF_CDF_TOL:
            return False
    return True


def transfer_to_augmented(F: Distribution, C: SupportSet, grid: SupportGrid) -> Distribution:
    """Push F's off-C mass down onto the augmented set of C.

    Mass below the smallest element of C moves to the grid minimum; mass
    strictly between consecutive elements moves to the successor of the
    lower one; mass above the largest element moves to its successor. The
    result agrees with F pointwise and cumulatively on C, is supported on
    the augmentation of C, and its mean never exceeds F's.
    """
    if not C.indices:
        out = np.zeros(grid.m)
        out[0] = 1.0
        return Distribution(grid, out)
    src = np.asarray(F.mass, dtype=float)
    out = np.zeros(grid.m)
    s = list(C.indices)
    for j in s:
        out[j] = src[j]
    out[0] += float(src[: s[0]].sum())
    for a, b in zip(s, s[1:]):
        gap = float(src[a + 1 : b].sum())
        if gap:
            out[a + 1] += gap
    if s[-1] < grid.m - 1:
        out[s[-1] + 1] += float(src[s[-1] + 1 :].sum())
    return Distribution(grid, out)


def mean_lipschitz_check(grid: SupportGrid, a, b) -> np.ndarray:
    """For each row pair of two (P, m) mass arrays on the grid: the mean
    difference is bounded by sqrt(m) * max|S_i| * l2 mass distance.

    Every row gets a Distribution's mass checks. The constant uses
    max|S_i| rather than S_max so the inequality also holds on grids with
    negative support values. Returns one bool per row.
    """
    a, b = _checked_masses(a, grid.m, ndim=2), _checked_masses(b, grid.m, ndim=2)
    if a.shape != b.shape:
        raise ValueError(f"need equally many mass vectors, got {a.shape[0]} and {b.shape[0]}")
    pts = np.asarray(grid.points)
    lhs = np.abs(a @ pts - b @ pts)
    rhs = math.sqrt(grid.m) * float(np.max(np.abs(pts))) * np.linalg.norm(a - b, axis=1)
    return lhs <= rhs + 1e-12
