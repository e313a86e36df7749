"""Evenly spaced support grids and canonical multiset samples.

Samples store grid *indices*, never raw reals, so equality of support
values is exact integer equality. A sample of size n is kept in
non-decreasing index order, which makes it a canonical representative of
the multiset of draws: the i-th order statistic is literally ``idx[i - 1]``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from dataclasses import dataclass

#: Number of distinct samples above which exhaustive verification is hopeless.
DESK_SCALE_LIMIT = 10**6


class GridError(ValueError):
    """Invalid grid parameters or a value that does not sit on the grid."""


@dataclass(frozen=True)
class SupportGrid:
    """``m`` evenly spaced support points between ``s_min`` and ``s_max``.

    Point ``i`` is the convex combination ``s_min * (1 - t) + s_max * t``
    with ``t = i / (m - 1)``, which makes both endpoints exact in floating
    point and keeps the sequence strictly increasing.
    """

    s_min: float
    s_max: float
    m: int

    def __post_init__(self):
        # read as Sample reads its indices, so np.int64(5) is the grid of 5
        try:
            m = operator.index(self.m)
        except TypeError:
            raise GridError(f"m must be an integer, got {self.m!r}") from None
        object.__setattr__(self, "m", m)
        if m < 2:
            raise GridError(f"need at least 2 support points, got m={m}")
        if not (math.isfinite(self.s_min) and math.isfinite(self.s_max)):
            raise GridError("grid endpoints must be finite")
        if not self.s_min < self.s_max:
            raise GridError(f"need s_min < s_max, got [{self.s_min}, {self.s_max}]")
        # an infinite range gives an infinite spacing, and make_sample's
        # tolerance of 1e-9 spacings would then snap any value to s_min
        if not math.isfinite(self.s_max - self.s_min):
            raise GridError(
                f"range s_max - s_min of [{self.s_min}, {self.s_max}] overflows a double"
            )

    @property
    def spacing(self) -> float:
        return (self.s_max - self.s_min) / (self.m - 1)

    def point(self, i: int) -> float:
        if not 0 <= i <= self.m - 1:
            raise GridError(f"index {i} outside [0, {self.m - 1}]")
        t = i / (self.m - 1)
        return self.s_min * (1.0 - t) + self.s_max * t

    @functools.cached_property
    def points(self) -> tuple[float, ...]:
        # kept in the instance dict; dataclass equality and hashing read
        # only the fields
        return tuple(self.point(i) for i in range(self.m))


@dataclass(frozen=True)
class Sample:
    """A size-n multiset of grid indices in non-decreasing order."""

    grid: SupportGrid
    idx: tuple[int, ...]

    def __post_init__(self):
        if len(self.idx) < 1:
            raise GridError("a sample needs at least one component")
        # builtins over the whole tuple: samples are built by the thousand
        try:
            idx = tuple(map(operator.index, self.idx))
        except TypeError:
            raise GridError("sample indices must be integers") from None
        object.__setattr__(self, "idx", idx)
        if min(idx) < 0 or max(idx) > self.grid.m - 1:
            raise GridError(f"sample indices {idx} outside grid range")
        if not all(map(operator.le, idx, idx[1:])):
            raise GridError("sample indices must be non-decreasing")

    @property
    def n(self) -> int:
        return len(self.idx)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.grid.point(i) for i in self.idx)

    def order_stat(self, i: int) -> int:
        """Grid index of the i-th smallest component (1-based)."""
        if not 1 <= i <= self.n:
            raise GridError(f"order statistic index {i} outside [1, {self.n}]")
        return self.idx[i - 1]

    @property
    def distinct_indices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.idx)))

    def is_homogeneous(self) -> bool:
        return self.idx[0] == self.idx[-1]


def make_sample(grid: SupportGrid, values: list[float]) -> Sample:
    """Resolve real values to grid indices and return the canonical sample.

    Each value must match a support point up to relative tolerance 1e-9
    (plus an absolute slack of 1e-9 grid spacings near zero); anything
    further off the grid is rejected rather than snapped.
    """
    if len(values) == 0:
        raise GridError("cannot build a sample from an empty list")
    abs_tol = 1e-9 * grid.spacing
    idx = []
    for v in values:
        if not math.isfinite(v):
            raise GridError(f"sample value {v} is not finite")
        i = int(round((v - grid.s_min) / grid.spacing))
        i = min(max(i, 0), grid.m - 1)
        if not math.isclose(v, grid.point(i), rel_tol=1e-9, abs_tol=abs_tol):
            raise GridError(f"value {v} is not on the grid {grid}")
        idx.append(i)
    return Sample(grid, tuple(sorted(idx)))


def homogeneous_sample(grid: SupportGrid, i: int, n: int) -> Sample:
    """The sample whose n components all sit at support point i."""
    if not 0 <= i <= grid.m - 1:
        raise GridError(f"index {i} outside [0, {grid.m - 1}]")
    if n < 1:
        raise GridError(f"need n >= 1, got {n}")
    return Sample(grid, (i,) * n)


def check_compatible(x: Sample, y: Sample) -> None:
    """Raise unless two samples share a grid and a sample size."""
    if x.grid != y.grid:
        raise GridError("samples live on different grids")
    if x.n != y.n:
        raise GridError(f"samples have different sizes ({x.n} vs {y.n})")


def json_floats(entries: list, what: str, error: type[ValueError]) -> list[float]:
    """The entries of a parsed JSON array as floats. Each must be a JSON
    number, an int or a float but not a bool; ``error`` names the first
    that is not, or an int too large for a double, as a ``what`` entry."""
    floats = []
    for v in entries:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise error(f"{what} entry {json.dumps(v)} is not a number")
        try:
            floats.append(float(v))
        except OverflowError:
            raise error(f"{what} entry {v} overflows a double") from None
    return floats


#: A comma-form sample entry: an ASCII decimal number, or inf or nan
#: (which ``make_sample`` refuses as not finite).
_DECIMAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)",
                      re.IGNORECASE)


def parse_sample_values(text: str) -> list[float]:
    """Parse 'a,b,c' or a JSON array of numbers into a list of floats.
    A comma-form entry must be an ASCII decimal number (optional sign,
    digits with at most one point, optional exponent), inf or nan: not
    everything ``float`` reads, such as ``1_0`` or non-ASCII digits."""
    text = text.strip()
    if text.startswith("["):
        data = json.loads(text)
        if not isinstance(data, list):
            raise GridError("expected a JSON array of numbers")
        return json_floats(data, "sample", GridError)
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise GridError("empty sample text")
    for p in parts:
        if not _DECIMAL.fullmatch(p):
            raise GridError(f"sample entry {p} is not a number")
    return [float(p) for p in parts]
