"""Distributions on a support grid and their sample probabilities.

A distribution is a dense probability vector over the full grid even when
it is known to live on a subset; restriction to a subset is a predicate,
not a type change, which keeps interop with the search oracle simple.
Probabilities and transfers also take a (P, m) mass stack, one mass
vector per row, through the same code as one vector.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .kernels import pow_table
from .orders import Omega, UpperSet, _multinomial_coefs, _run_lengths
from .support import Sample, SupportGrid, json_floats

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
            f"mass must sum to 1 within {MASS_SUM_TOL}, got {float(sums.flat[off[0]])!r}"
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
    return Distribution(grid, np.array(json_floats(data, "mass", ValueError)))


@dataclass(frozen=True)
class SupportSet:
    """A subset of grid indices, sorted and without duplicates."""

    indices: tuple[int, ...]

    def __post_init__(self):
        try:
            indices = tuple(sorted(set(operator.index(i) for i in self.indices)))
        except TypeError:
            raise ValueError("support indices must be integers") from None
        if indices and indices[0] < 0:
            raise ValueError("support indices must be non-negative")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def of(cls, indices) -> "SupportSet":
        return cls(tuple(indices))

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


def full_support(grid: SupportGrid) -> SupportSet:
    return SupportSet(tuple(range(grid.m)))


def mean(F: Distribution) -> float:
    """Expected value: dot product of masses and support points."""
    return float(np.dot(F.mass, np.asarray(F.grid.points)))


def _stacked_masses(F, grid: SupportGrid) -> np.ndarray:
    """F's masses as a (P, m) stack: one row for a Distribution on the
    grid, a checked copy of a (P, m) mass stack."""
    if isinstance(F, Distribution):
        if F.grid != grid:
            raise ValueError("sample and distribution live on different grids")
        return F.mass[None]
    return _checked_masses(F, grid.m, ndim=2)


def _rows_pmf(masses: np.ndarray, idx: np.ndarray, runs: np.ndarray,
              coefs: np.ndarray) -> np.ndarray:
    """(P, R) probabilities of R sample rows, given by their (R, n) index
    rows, run lengths and multinomial coefficients, under each row of a
    (P, m) mass stack.

    Multinomial form, one product per row of ``(idx, runs)``: the
    coefficient times F(S_j)^c for each run of c copies of index j, in
    ascending grid order (a column where no run starts gives 1.0 exactly).
    The powers come from ``kernels.pow_table`` as left-to-right products,
    the arithmetic the oracle's kernel uses, so each entry is within about
    n roundings of its exact value. Every entry is computed on its own, so
    it has the same bits in any set of rows it is asked for with.
    """
    n = idx.shape[1]
    # powers[..., c] = mass ** c for c = 0..n
    powers = np.stack([np.ones_like(masses), *pow_table(masses, n)], axis=-1)
    factors = powers[:, idx, runs]
    prob = factors[..., 0].copy()
    for s in range(1, n):
        prob *= factors[..., s]
    return coefs * prob


def omega_pmf(F, omega: Omega) -> np.ndarray:
    """Probability of each sample of omega under F, in omega's row order:
    one row for a Distribution, a (P, |omega|) array for a (P, m) mass
    stack, whose row p equals the call on row p's Distribution bit for bit.
    Each entry is ``_rows_pmf``'s product for that row."""
    prob = _rows_pmf(_stacked_masses(F, omega.grid), omega.idx, omega.runs, omega.coefs)
    return prob[0] if isinstance(F, Distribution) else prob


def sample_prob(F: Distribution, x: Sample) -> float:
    """Probability that n i.i.d. draws from F form the multiset x: the
    ``omega_pmf`` entry of x's row, from x's one row alone."""
    idx = np.array([x.idx], dtype=np.int64)
    runs = _run_lengths(idx)
    return float(_rows_pmf(_stacked_masses(F, x.grid), idx, runs, _multinomial_coefs(runs))[0, 0])


def prob_upper_set(F, U: UpperSet):
    """Total probability of drawing a sample in the upper set: the
    ``omega_pmf`` entries of the member rows, evaluated for those rows
    only and summed in member order; a float for a Distribution, one per
    row of a mass stack."""
    omega, mask = U.omega, U.mask
    probs = _rows_pmf(_stacked_masses(F, omega.grid), omega.idx[mask], omega.runs[mask],
                      omega.coefs[mask])
    total = np.cumsum(probs, axis=-1)[:, -1] if mask.any() else probs.sum(axis=-1)
    return float(total[0]) if isinstance(F, Distribution) else total


#: (support, grid) pairs whose augmentation ``augment`` keeps.
AUGMENTS_KEPT = 1024


@functools.lru_cache(maxsize=AUGMENTS_KEPT)
def augment(C: SupportSet, grid: SupportGrid) -> SupportSet:
    """C plus the grid minimum plus the successor of each non-maximal element.

    A pure function of (C, grid), both frozen, so the ``AUGMENTS_KEPT``
    most recent results are kept: a cache hit's ``refined_support`` then
    builds only the relevant values' set."""
    outside = [i for i in C.indices if i > grid.m - 1]
    if outside:
        raise ValueError(f"support index {outside[0]} outside grid")
    return SupportSet.of({0, *C.indices, *(i + 1 for i in C.indices if i < grid.m - 1)})


def restrict_to(mass, C: SupportSet):
    """True iff the mass puts (numerically) zero mass outside C, per row of a stack."""
    return ~(np.delete(mass, list(C.indices), axis=-1) > ZERO_MASS_TOL).any(axis=-1)


def agree_on(G, H, C: SupportSet):
    """Pointwise and cumulative agreement of two masses on C, per row of a stack.

    For every index in C the pmf values must match and the cdf values up
    to and including that index must match, both within 1e-12 absolute.
    """
    G, H = np.asarray(G, dtype=float), np.asarray(H, dtype=float)
    if G.shape != H.shape:
        raise ValueError(f"mass shapes differ: {G.shape} and {H.shape}")
    cols = list(C.indices)
    pmf_off = np.abs(G[..., cols] - H[..., cols]) > PMF_CDF_TOL
    cdf_off = np.abs(G.cumsum(axis=-1)[..., cols] - H.cumsum(axis=-1)[..., cols]) > PMF_CDF_TOL
    return ~(pmf_off | cdf_off).any(axis=-1)


def transfer_to_augmented(mass, C: SupportSet, grid: SupportGrid) -> np.ndarray:
    """Push off-C mass down onto the augmented set of C, per row of a stack.

    Mass below the smallest element of C moves to the grid minimum; mass
    strictly between consecutive elements moves to the successor of the
    lower one; mass above the largest element moves to its successor,
    column by column. The result agrees with the input pointwise and
    cumulatively on C, is supported on the augmentation of C, and its mean
    never exceeds the input's.
    """
    mass = np.asarray(mass, dtype=float)
    dest = np.zeros(grid.m, dtype=np.intp)
    for a, b in zip(C.indices, C.indices[1:] + (grid.m,)):
        dest[a] = a
        dest[a + 1:b] = a + 1
    out = np.zeros_like(mass)
    for j, d in enumerate(dest.tolist()):
        out[..., d] += mass[..., j]
    return out


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
