"""Total orders and preorders on one array-native sample space.

``enumerate_omega`` returns an :class:`Omega`: the size-n multisets of grid
indices in lexicographic order, held only as their index matrix, run
lengths and multinomial coefficients (none has an axis of length m); a
``Sample`` is built when a row is read. A preorder is defined by one
method, ``rank``, which maps index rows to integers: equal rank means
equivalent, lower rank means below. Comparisons, upper sets and
monotonicity are array comparisons of rank vectors, which each sample
space keeps for its most recently used orders.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .support import DESK_SCALE_LIMIT, Sample, SupportGrid, check_compatible

LESS = -1
EQUIVALENT = 0
GREATER = 1


#: Most entries ``Omega.componentwise_leq`` may allocate (|Omega| <= 16,384).
COMPONENTWISE_MAX_ENTRIES = 1 << 28
#: Orders whose rank vector one Omega keeps, the most recently used.
RANKS_KEPT = 8


class EnumerationGuardError(ValueError):
    """The requested enumeration exceeds the desk-scale guard."""


def _lex_rank(rows: np.ndarray) -> np.ndarray:
    """Dense rank of each row in lexicographic order; equal rows share one."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    fresh = np.ones(rows.shape[0], dtype=np.int64)
    fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    rank = np.empty(rows.shape[0], dtype=np.int64)
    rank[order] = np.cumsum(fresh) - 1
    return rank


def _multiset_row(idx: tuple[int, ...], m: int) -> int:
    """Row of the sorted index tuple idx among all size-n multisets of
    range(m) in lexicographic order (the combinatorial number system).
    C(m - a + L - 1, L) sorted size-L tails have every index >= a, so a
    rise from a to b at column s passes C(m - a + L - 1, L) - C(m - b +
    L - 1, L) rows, L = n - s: those whose column s lies in [a, b).
    Column 0 rises from 0."""
    n = len(idx)
    row = prev = 0
    for s, a in enumerate(idx):
        if a != prev:
            tail = n - s
            row += math.comb(m - prev + tail - 1, tail) - math.comb(m - a + tail - 1, tail)
            prev = a
    return row


def _run_lengths(idx: np.ndarray) -> np.ndarray:
    """(R, n) run lengths of sorted index rows: entry (r, s) is the length
    of the run that starts at column s of row r, 0 where no run starts,
    in the smallest unsigned dtype holding n."""
    fresh = np.ones(idx.shape, dtype=bool)
    fresh[:, 1:] = idx[:, 1:] != idx[:, :-1]
    starts = np.flatnonzero(fresh)  # every row starts a run, so runs stay in one row
    runs = np.zeros(idx.size, dtype=np.min_scalar_type(idx.shape[1]))
    runs[starts] = np.diff(starts, append=idx.size)
    return runs.reshape(idx.shape)


def _multinomial_coefs(runs: np.ndarray) -> np.ndarray:
    """n! / prod_s runs[r, s]! for each row of run lengths: exact in
    integers and rounded once to float. Rows whose run lengths are the
    same multiset share one computation."""
    rows, n = runs.shape
    if rows == 0:
        return np.zeros(0)
    group = _lex_rank(np.sort(runs, axis=1))
    first = np.empty(int(group.max()) + 1, dtype=np.int64)
    first[group] = np.arange(rows)
    exact = [math.factorial(n) // math.prod(math.factorial(c) for c in runs[r].tolist())
             for r in first.tolist()]
    if max(exact) > sys.float_info.max:
        raise EnumerationGuardError(
            f"multinomial coefficients of size-{n} samples exceed the double range"
        )
    return np.array([float(c) for c in exact])[group]


class Omega(Sequence):
    """The sample space of one grid and sample size n: all C(m + n - 1, n)
    size-n multisets of grid indices, in lexicographic order, held as
    three read-only arrays built once:

    - ``idx``: the (|Omega|, n) int64 index matrix, row r is sample r's
      index vector;
    - ``runs``: the (|Omega|, n) run lengths, ``runs[r, s]`` is the length
      of the run of equal indices that starts at column s of ``idx[r]``
      and 0 where no run starts (smallest unsigned dtype holding n);
    - ``coefs``: float multinomial coefficients n! / prod_s runs[r, s]!.

    No array has an axis of length m, so the memory grows with |Omega|
    and n, not with the grid. Iteration, ``len``, indexing and ``in``
    behave as on a list of the samples: reading row r builds its
    ``Sample``. A subset of the sample space is a bool mask or an array
    of rows over it, never another Omega; ``enumerate_omega`` keeps one
    Omega per (grid, n).

    ``position`` finds a sample's row from its indices alone, in O(runs
    of the sample). ``ranks`` keeps the read-only rank vectors of the
    ``RANKS_KEPT`` most recently used orders, keyed by order equality,
    so every upper set of one order on one Omega reads one vector.
    """

    def __init__(self, grid: SupportGrid, n: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        total = math.comb(grid.m + n - 1, n)
        if total > DESK_SCALE_LIMIT:
            raise EnumerationGuardError(
                f"sample space has {total} elements, above the guard of {DESK_SCALE_LIMIT}"
            )
        idx = kernels.multisets(grid.m, n).astype(np.int64)
        runs = _run_lengths(idx)
        coefs = _multinomial_coefs(runs)
        for arr in (idx, runs, coefs):
            arr.flags.writeable = False
        self.grid, self.n = grid, n
        self.idx, self.runs, self.coefs = idx, runs, coefs
        self._ranks: dict[Preorder, np.ndarray] = {}

    def __len__(self) -> int:
        return self.idx.shape[0]

    def __getitem__(self, key):
        return Sample(self.grid, tuple(self.idx[operator.index(key)].tolist()))

    def __iter__(self):
        for row in self.idx.tolist():
            yield Sample(self.grid, tuple(row))

    def position(self, x: Sample) -> int:
        """Row of sample x, from its indices; ValueError for a sample of
        another grid or size, the only ones omega does not contain."""
        if x.grid == self.grid and x.n == self.n:
            return _multiset_row(x.idx, self.grid.m)
        raise ValueError("omega does not contain the base sample")

    def ranks(self, order: Preorder) -> np.ndarray:
        """``order.rank(self.idx)``. The read-only vectors of the
        ``RANKS_KEPT`` most recently used orders are kept, keyed by order
        equality, which ``Preorder.rank``'s contract makes safe; an
        unhashable order is ranked afresh on every call."""
        try:
            rank = self._ranks.pop(order, None)
        except TypeError:
            return order.rank(self.idx)
        if rank is None:
            rank = order.rank(self.idx)
            rank.flags.writeable = False
        self._ranks[order] = rank  # reinserted last: the most recently used
        if len(self._ranks) > RANKS_KEPT:
            del self._ranks[next(iter(self._ranks))]
        return rank

    def componentwise_leq(self) -> np.ndarray:
        """(|Omega|, |Omega|) bool matrix: entry (a, b) is true iff every
        order statistic of sample a is at most the one of sample b; above
        ``COMPONENTWISE_MAX_ENTRIES`` entries, EnumerationGuardError."""
        size = len(self)
        if size * size > COMPONENTWISE_MAX_ENTRIES:
            raise EnumerationGuardError(f"the componentwise order on {size} samples is a {size}"
                                        f" x {size} matrix, above {COMPONENTWISE_MAX_ENTRIES}")
        leq = np.ones((size, size), dtype=bool)
        for col in self.idx.T:
            leq &= col[:, None] <= col[None, :]
        return leq


class Preorder:
    """Base preorder. Subclasses implement ``rank``; ``compare`` and
    ``leq`` derive from it."""

    name = "preorder"

    def rank(self, idx: np.ndarray) -> np.ndarray:
        """int64 rank of each row of an (R, n) index matrix. Rows of equal
        rank are equivalent and lower rank is below; ranks are comparable
        only within one call.

        The rank must be a pure function of the order's value and the
        rows, and equal orders must rank alike: ``Omega.ranks`` keeps one
        vector per order, keyed by equality, for every equal order to read.
        """
        raise NotImplementedError

    def compare(self, x: Sample, y: Sample) -> int:
        check_compatible(x, y)
        a, b = self.rank(np.array([x.idx, y.idx], dtype=np.int64)).tolist()
        return (a > b) - (a < b)

    def leq(self, x: Sample, y: Sample) -> bool:
        """x is below-or-equivalent-to y."""
        return self.compare(x, y) != GREATER


@dataclass(frozen=True)
class LexiLow(Preorder):
    """Lexicographic order scanning order statistics from the smallest.
    Field-less, so every instance is equal to every other."""

    name = "lexi-low"

    def rank(self, idx):
        return _lex_rank(idx)


@dataclass(frozen=True)
class LexiHigh(Preorder):
    """Lexicographic order scanning order statistics from the largest.
    Field-less, so every instance is equal to every other."""

    name = "lexi-high"

    def rank(self, idx):
        return _lex_rank(idx[:, ::-1])


@dataclass(frozen=True)
class Quantile(Preorder):
    """Compare samples solely by their i-th order statistic (1-based).

    Ties in that statistic are genuine equivalences, so this is a total
    preorder rather than a total order.
    """

    i: int

    @property
    def name(self):
        return f"quantile:{self.i}"

    def rank(self, idx):
        if not 1 <= self.i <= idx.shape[1]:
            raise ValueError(f"quantile index {self.i} outside [1, {idx.shape[1]}]")
        return idx[:, self.i - 1].astype(np.int64)


@dataclass(frozen=True)
class Pointwise(Preorder):
    """Two-class preorder whose only upper class is a single sample.

    The designated sample ranks above everything else and all other
    samples are mutually equivalent, so its upper set is the singleton.
    """

    top: Sample

    @property
    def name(self):
        return "pointwise"

    def rank(self, idx):
        if idx.shape[1] != self.top.n:
            raise ValueError(f"rows of size {idx.shape[1]}, top sample of size {self.top.n}")
        return (idx == np.asarray(self.top.idx)).all(axis=1).astype(np.int64)


@dataclass(frozen=True)
class CustomTable(Preorder):
    """Preorder backed by an explicit rank table.

    Samples with equal rank are equivalent; lower rank means earlier in
    the order. Every sample ranked must appear in the table. The hash is
    the table's, taken once: equal tables hash alike.
    """

    ranks: dict[Sample, int]

    def __post_init__(self):
        by_idx = {s.idx: r for s, r in self.ranks.items()}
        object.__setattr__(self, "_by_idx", by_idx)
        object.__setattr__(self, "_hash", hash(frozenset(by_idx.items())))

    def __hash__(self):
        return self._hash

    @property
    def name(self):
        return "custom-table"

    def rank(self, idx):
        try:
            return np.array([self._by_idx[row] for row in map(tuple, idx.tolist())],
                            dtype=np.int64).reshape(idx.shape[0])
        except KeyError as exc:
            raise ValueError(f"sample {exc.args[0]} missing from rank table") from None

    @classmethod
    def from_ranking(cls, ordered: list[Sample]) -> "CustomTable":
        """Total order given by an explicit list from lowest to highest."""
        return cls({s: r for r, s in enumerate(ordered)})


@functools.lru_cache(maxsize=4)
def enumerate_omega(grid: SupportGrid, n: int) -> Omega:
    """All size-n multisets of grid indices, in lexicographic order.

    The count is exactly C(m + n - 1, n); anything above
    ``support.DESK_SCALE_LIMIT`` raises rather than grinding away. The
    sample spaces of the four most recent (grid, n) are kept, so every
    caller asking for the same one reads the same read-only ``Omega``.
    """
    return Omega(grid, n)


@dataclass(frozen=True, eq=False)
class UpperSet:
    """All samples of omega ranked at or above a base sample under a
    preorder, held as a read-only bool mask over omega's rows. A read-only
    bool array that owns its data is kept as given; any other mask is
    copied, so no caller's array can change it later."""

    base: Sample
    order: Preorder
    omega: Omega
    mask: np.ndarray

    def __post_init__(self):
        mask = self.mask
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.flags.owndata and not mask.flags.writeable):
            mask = np.array(mask, dtype=bool)
            mask.flags.writeable = False
        if mask.shape != (len(self.omega),):
            raise ValueError(f"mask must have one entry per sample, got shape {mask.shape}")
        object.__setattr__(self, "mask", mask)

    @property
    def members(self) -> tuple[Sample, ...]:
        """The member samples in lexicographic order."""
        return tuple(self.omega[r] for r in np.flatnonzero(self.mask))

    def __contains__(self, y: Sample) -> bool:
        try:
            return bool(self.mask[self.omega.position(y)])
        except ValueError:
            return False

    def __len__(self) -> int:
        return int(self.mask.sum())

    def member_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(tuple, self.omega.idx[self.mask].tolist()))


def upper_set(x: Sample, order: Preorder, omega: Omega) -> UpperSet:
    """{y in omega : x is below-or-equivalent-to y}, as the mask
    ``rank >= rank[x]`` over omega's kept rank vector of the order, made
    read-only and handed to the ``UpperSet`` without a copy."""
    rank = omega.ranks(order)
    mask = rank >= rank[omega.position(x)]
    mask.flags.writeable = False
    return UpperSet(x, order, omega, mask)


def is_monotone(order: Preorder, omega: Omega) -> bool:
    """Check x <= y componentwise implies x below-or-equivalent-to y."""
    rank = omega.ranks(order)
    return bool((~omega.componentwise_leq() | (rank[:, None] <= rank[None, :])).all())


def monotone_linear_extensions(omega: Omega, max_extensions: int = 1000) -> list[CustomTable]:
    """All total orders on omega that extend the componentwise order, as
    rank tables, in lexicographic order of their rankings.

    Minimal-element recursion (Knuth & Szwarcfiter, IPL 1974): each
    position takes, in ascending row order, every unplaced sample with no
    unplaced sample strictly below it, and the rest is extended
    recursively. The work grows with the number of extensions, so that is
    what the guard counts: passing ``max_extensions`` raises
    EnumerationGuardError.
    """
    size = len(omega)
    strict = omega.componentwise_leq()
    np.fill_diagonal(strict, False)  # samples are distinct, so this leaves <
    above = [np.flatnonzero(row).tolist() for row in strict]
    waiting = strict.sum(axis=0).tolist()  # unplaced samples strictly below each
    free = [True] * size
    prefix: list[int] = []
    extensions: list[CustomTable] = []
    start = 0  # first row to try at the current depth
    while True:
        e = next((e for e in range(start, size) if free[e] and not waiting[e]), None)
        if e is not None:
            free[e] = False
            for a in above[e]:
                waiting[a] -= 1
            prefix.append(e)
            start = 0
            if len(prefix) < size:
                continue
            if len(extensions) == max_extensions:
                raise EnumerationGuardError(
                    f"more than {max_extensions} monotone linear extensions on "
                    f"{size} samples; guard is {max_extensions}"
                )
            extensions.append(CustomTable.from_ranking([omega[r] for r in prefix]))
        if not prefix:
            return extensions
        # undo the last placement and try the next row at its depth
        e = prefix.pop()
        free[e] = True
        for a in above[e]:
            waiting[a] += 1
        start = e + 1


def order_from_string(text: str, *, pointwise_base: Sample | None = None) -> Preorder:
    """Parse a CLI order selector: lexi-low, lexi-high, quantile:<i>, pointwise."""
    text = text.strip().lower()
    if text == "lexi-low":
        return LexiLow()
    if text == "lexi-high":
        return LexiHigh()
    if text.startswith("quantile:"):
        try:
            return Quantile(int(text.split(":", 1)[1]))
        except ValueError:
            pass  # not an integer index: refused below like any unknown selector
    if text == "pointwise":
        if pointwise_base is None:
            raise ValueError("pointwise order needs a base sample")
        return Pointwise(pointwise_base)
    raise ValueError(f"unknown order selector {text!r}")
