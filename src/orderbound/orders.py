"""Total orders and preorders on samples.

A comparator returns one of ``LESS``, ``EQUIVALENT``, ``GREATER``. All
built-in comparators work on the canonical sorted index vectors, so the
i-th order statistic is read off directly and nothing is re-sorted at
comparison time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .support import Sample, SupportGrid, check_compatible, leq_componentwise, lt_componentwise

LESS = -1
EQUIVALENT = 0
GREATER = 1


class EnumerationGuardError(ValueError):
    """The requested enumeration exceeds the desk-scale guard."""


class Preorder:
    """Base comparator. Subclasses implement ``_cmp`` on index tuples."""

    name = "preorder"

    def compare(self, x: Sample, y: Sample) -> int:
        check_compatible(x, y)
        return self._cmp(x, y)

    def _cmp(self, x: Sample, y: Sample) -> int:
        raise NotImplementedError

    def leq(self, x: Sample, y: Sample) -> bool:
        """x is below-or-equivalent-to y."""
        return self.compare(x, y) != GREATER


class LexiLow(Preorder):
    """Lexicographic order scanning order statistics from the smallest."""

    name = "lexi-low"

    def _cmp(self, x, y):
        if x.idx == y.idx:
            return EQUIVALENT
        return LESS if x.idx < y.idx else GREATER


class LexiHigh(Preorder):
    """Lexicographic order scanning order statistics from the largest."""

    name = "lexi-high"

    def _cmp(self, x, y):
        if x.idx == y.idx:
            return EQUIVALENT
        return LESS if x.idx[::-1] < y.idx[::-1] else GREATER


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

    def _cmp(self, x, y):
        if not 1 <= self.i <= x.n:
            raise ValueError(f"quantile index {self.i} outside [1, {x.n}]")
        a, b = x.order_stat(self.i), y.order_stat(self.i)
        if a == b:
            return EQUIVALENT
        return LESS if a < b else GREATER


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

    def _cmp(self, x, y):
        xt = x.idx == self.top.idx
        yt = y.idx == self.top.idx
        if xt == yt:
            return EQUIVALENT
        return GREATER if xt else LESS


@dataclass(frozen=True)
class CustomTable(Preorder):
    """Comparator backed by an explicit rank table.

    Samples with equal rank are equivalent; lower rank means earlier in
    the order. Every sample compared must appear in the table.
    """

    ranks: dict[Sample, int] = field(hash=False)

    @property
    def name(self):
        return "custom-table"

    def _cmp(self, x, y):
        try:
            a, b = self.ranks[x], self.ranks[y]
        except KeyError as exc:
            raise ValueError(f"sample {exc.args[0].idx} missing from rank table") from None
        if a == b:
            return EQUIVALENT
        return LESS if a < b else GREATER

    @classmethod
    def from_ranking(cls, ordered: list[Sample]) -> "CustomTable":
        """Total order given by an explicit list from lowest to highest."""
        return cls({s: r for r, s in enumerate(ordered)})


def enumerate_omega(grid: SupportGrid, n: int, max_size: int = 10**6) -> list[Sample]:
    """All size-n multisets of grid indices, in lexicographic order.

    The count is exactly C(m + n - 1, n); anything above ``max_size``
    raises rather than grinding away.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = math.comb(grid.m + n - 1, n)
    if total > max_size:
        raise EnumerationGuardError(
            f"sample space has {total} elements, above the guard of {max_size}"
        )
    return [
        Sample(grid, idx)
        for idx in itertools.combinations_with_replacement(range(grid.m), n)
    ]


@dataclass(frozen=True)
class UpperSet:
    """All samples ranked at or above a base sample under a preorder."""

    base: Sample
    order: Preorder
    members: tuple[Sample, ...]

    def __contains__(self, y: Sample) -> bool:
        return any(y.idx == s.idx for s in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(s.idx for s in self.members)


def upper_set(x: Sample, order: Preorder, omega: list[Sample]) -> UpperSet:
    """Filter omega down to {y : x is below-or-equivalent-to y}."""
    if not any(s.idx == x.idx for s in omega):
        raise ValueError("omega does not contain the base sample")
    members = tuple(sorted((y for y in omega if order.leq(x, y)), key=lambda s: s.idx))
    return UpperSet(x, order, members)


def is_monotone(order: Preorder, omega: list[Sample]) -> bool:
    """Check x <= y componentwise implies x below-or-equivalent-to y."""
    for x, y in itertools.permutations(omega, 2):
        if leq_componentwise(x, y) and not order.leq(x, y):
            return False
    return True


def agrees(total: Preorder, pre: Preorder, omega: list[Sample]) -> bool:
    """Check a total order respects every strict comparison of a preorder."""
    for x, y in itertools.combinations(omega, 2):
        if total.compare(x, y) == EQUIVALENT:
            raise ValueError("first argument is not a total order on omega")
    for x, y in itertools.permutations(omega, 2):
        if pre.compare(x, y) == LESS and total.compare(x, y) != LESS:
            return False
    return True


def monotone_linear_extensions(omega: list[Sample], max_elements: int = 8) -> list[CustomTable]:
    """All total orders on omega that extend the componentwise order.

    Brute force over permutations, so omega is capped at ``max_elements``.
    """
    if len(omega) > max_elements:
        raise EnumerationGuardError(
            f"{len(omega)} samples means {len(omega)}! permutations; guard is {max_elements}"
        )
    strict_pairs = [
        (i, j)
        for i, x in enumerate(omega)
        for j, y in enumerate(omega)
        if i != j and lt_componentwise(x, y)
    ]
    extensions = []
    for perm in itertools.permutations(range(len(omega))):
        pos = {elem: where for where, elem in enumerate(perm)}
        if all(pos[i] < pos[j] for i, j in strict_pairs):
            extensions.append(CustomTable.from_ranking([omega[e] for e in perm]))
    return extensions


def order_from_string(text: str, *, pointwise_base: Sample | None = None) -> Preorder:
    """Parse a CLI order selector: lexi-low, lexi-high, quantile:<i>, pointwise."""
    text = text.strip().lower()
    if text == "lexi-low":
        return LexiLow()
    if text == "lexi-high":
        return LexiHigh()
    if text.startswith("quantile:"):
        return Quantile(int(text.split(":", 1)[1]))
    if text == "pointwise":
        if pointwise_base is None:
            raise ValueError("pointwise order needs a base sample")
        return Pointwise(pointwise_base)
    raise ValueError(f"unknown order selector {text!r}")
