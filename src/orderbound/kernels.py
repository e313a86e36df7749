"""Constraint-probability kernel plus shared scan plumbing.

The constraint-probability evaluation over candidate mass vectors is the
inner loop of the search oracle. Around it sit the power routine,
composition enumeration and N-scaled scores that the oracle's scans share.

``multisets`` is the one enumerator: the size-n multisets of range(m) in
lexicographic order, built level by level with slice copies. It gives the
sample space (``orders.enumerate_omega``) and, by stars and bars, every
simplex: the compositions of N into k parts are the gaps between the
sorted bars of ``multisets(N + 1, k - 1)``, in the same order. A simplex
depends only on (N, k), so the four most recent are kept, read-only and in
the smallest unsigned dtype that holds N, for the next scan of the same
simplex; the oracle's fixed cell budget bounds each one. Scans read it in
row slices of ``BLOCK_ROWS`` = 8,192, the fastest of 4,096, 8,192 and
16,384 for the kernel on 2-core x86 (a block's factor arrays stay in
cache). Next to each kept simplex sits its box table: for each box, a
run of ``BOX_ROWS`` = 128 rows counted from its first row, the bottom-
and top-greedy points of its column range, filled from the lowest atom
up and from the highest down, as the atoms' values strictly increase.
``composition_floors`` bounds every box's scores from below without
scoring a row, and ``composition_ceilings`` bounds every box's
probabilities from above, for up-closed terms, with one kernel call over
the boxes' top-greedy points.
Both bounds hold for any subset of a box's rows, so a scan may cut a box
at a block edge and send only the live boxes to the kernel. Neither
depends on alpha, and a search repeated at another alpha asks for the same
ones, so the eight most recent of each are kept, read-only: the floors per
(N, k, ``BOX_ROWS``, values' bytes), the ceilings per (N, k, ``BOX_ROWS``,
``Terms.key``), one float per box each. Once a scan's beam has a cut,
``composition_cut_ceilings`` bounds, for the boxes it names, the
probabilities of only the rows that score at most the cut: in tail
coordinates the cut caps every tail, and the capped top-greedy point
dominates those rows.

The probability is one fixed polynomial per search, given as multinomial
coefficients and exponent rows. ``Terms`` is everything the kernel and the
ceilings read of it: the per-atom top exponents, each term's plan of
(atom, power) factors, the degree n, whether the terms are up-closed and
the ceilings' rounding factor. It is built once per term set and the eight
most recent are kept, keyed by the shape and bytes of the exponents and
the bytes of the coefficients (``Terms.of``), so ``eval_probs`` keeps its
array arguments and finds the plan by one lookup.
``pow_table`` is the package's one power routine: the kernel takes each
atom's powers of c / N from it, and ``dist.omega_pmf`` its powers of the
atom masses, so every power is the same left-to-right product. None of
this changes a bit of the results: rows come out in the same
lexicographic order and every probability is the same product of the
same factors in the same order.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

#: Rows per kernel block: the enumeration default, the neighbourhood slice
#: and, divided by |omega|, the trials in one ``verify_agreement`` chunk.
BLOCK_ROWS = 1 << 13
#: Rows per box of a simplex, the granularity of ``composition_floors``,
#: ``composition_ceilings`` and ``composition_cut_ceilings``: box b is rows
#: [b * BOX_ROWS, (b + 1) * BOX_ROWS) of the simplex, whatever
#: ``BLOCK_ROWS`` is. With the first scan's re-bound, 128 and 256 ran
#: within 2% of each other on coarse-to-fine calls, ``verify all`` and the
#: criterion-4 sweep (three alternating 10 s benchmark runs each, 2-core
#: x86), and 128 sends fewer simplex rows to the kernel: 615,056 against
#: 993,458 on the first 48 coarse-to-fine benchmark calls.
BOX_ROWS = 1 << 7


@dataclass(frozen=True)
class Terms:
    """A constraint polynomial sum_t coefs[t] * prod_j (c_j / N) ** expts[t, j]
    and what the kernel and the ceilings read of it, built once per term
    set by ``Terms.of``. Equal and hashed by ``key`` alone.

    coefs    : read-only float64 (T,) multinomial coefficients, member order
    expts    : read-only int64 (T, k) per-atom occurrence counts
    tops     : per atom, its largest exponent (0 when no term uses it)
    plan     : per term, (coefficient, its factors): a factor (j, e - 1)
               reads atom j's power e from ``pow_table``; exponent-zero
               factors, exactly 1.0, are left out
    n        : the degree, the largest exponent-row sum (0 with no terms)
    up_closed: True when there are terms and every exponent row with
               e[j] > 0 is still a row after one unit moves from atom j to
               atom j + 1: the members on the atoms are an up-set of the
               componentwise order, so the probability can only rise when
               mass moves up. No terms is False: the probability is 0
               everywhere, so no row is feasible and no box is ruled out
               by a ceiling.
    ceiling_factor: 1 + 4 * (2n + T) * eps, the rounding factor of
               ``composition_ceilings``
    key      : (expts.shape, coefs' bytes, expts' bytes)
    """

    key: tuple
    coefs: np.ndarray = field(compare=False, repr=False)
    expts: np.ndarray = field(compare=False, repr=False)
    tops: tuple[int, ...] = field(compare=False)
    plan: tuple[tuple[float, tuple[tuple[int, int], ...]], ...] = field(compare=False, repr=False)
    n: int = field(compare=False)
    up_closed: bool = field(compare=False)
    ceiling_factor: float = field(compare=False)

    @staticmethod
    def of(coefs: np.ndarray, expts: np.ndarray) -> Terms:
        """The terms of float64 ``coefs`` (T,) and int64 ``expts`` (T, k),
        one of the eight most recently asked for when the bytes match."""
        coefs = np.asarray(coefs, dtype=np.float64)
        expts = np.asarray(expts, dtype=np.int64)
        return _terms(expts.shape, coefs.tobytes(), expts.tobytes())


@functools.lru_cache(maxsize=8)
def _terms(shape: tuple[int, int], coef_bytes: bytes, expt_bytes: bytes) -> Terms:
    coefs = np.frombuffer(coef_bytes, dtype=np.float64)
    expts = np.frombuffer(expt_bytes, dtype=np.int64).reshape(shape)
    rows = expts.tolist()
    plan = tuple((coef, tuple((j, e - 1) for j, e in enumerate(row) if e))
                 for coef, row in zip(coefs.tolist(), rows))
    n = max(map(sum, rows), default=0)
    present = set(map(tuple, rows))
    up_closed = bool(present) and all(
        (*row[:j], row[j] - 1, row[j + 1] + 1, *row[j + 2:]) in present
        for row in present for j in range(len(row) - 1) if row[j])
    factor = 1 + 4 * (2 * n + len(rows)) * float(np.finfo(np.float64).eps)
    return Terms((shape, coef_bytes, expt_bytes), coefs, expts,
                 tuple(expts.max(axis=0, initial=0).tolist()), plan, n, up_closed, factor)


def eval_probs(counts: np.ndarray, N: int, coefs: np.ndarray,
               expts: np.ndarray) -> np.ndarray:
    """Constraint probability for each candidate count vector.

    counts : integer (B, k) occupation numbers summing to N
    N      : the grid's step count, so atom j carries mass counts[:, j] / N
    coefs  : float64 (T,) multinomial coefficients per upper-set member
    expts  : int64 (T, k) per-atom occurrence counts per member

    Each term is multiplied out atom by atom and the terms are summed in
    member order, so results are reproducible bit for bit. A factor with
    exponent zero is exactly 1.0 and is skipped. Every other factor
    (c / N) ** e is read from ``pow_table(counts[:, j] / N, top)``, built
    once per call and atom up to the atom's top exponent, so it is the
    base times itself e - 1 times, left to right. The factors and top
    exponents come from the plan ``Terms.of(coefs, expts)`` keeps.
    """
    terms = Terms.of(coefs, expts)
    B = counts.shape[0]
    acc = np.zeros(B)
    # powers[j][e - 1] = (counts[:, j] / N) ** e, up to atom j's top exponent
    powers = [pow_table(counts[:, j] / N, top) if top else None
              for j, top in enumerate(terms.tops)]
    term = np.empty(B)
    for coef, factors in terms.plan:
        if not factors:
            acc += coef
            continue
        j, i = factors[0]
        np.multiply(powers[j][i], coef, out=term)
        for j, i in factors[1:]:
            np.multiply(term, powers[j][i], out=term)
        acc += term
    return acc


def pow_table(base: np.ndarray, max_exp: int) -> list[np.ndarray]:
    """[base ** 1, ..., base ** max_exp] for a float array ``base`` of any
    shape: entry e - 1 is base ** e, and the first entry is ``base``
    itself, not a copy.

    Built by repeated multiplication left to right, base ** e = base **
    (e - 1) * base, so every power rounds the same way wherever it is
    formed. Exponent 0, exactly 1.0, is left to the caller.
    """
    powers = [base] if max_exp else []
    for _ in range(1, max_exp):
        powers.append(powers[-1] * base)
    return powers


def scaled_scores(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """N-scaled means: sum_j counts[:, j] * values[j], accumulated left to right."""
    acc = np.zeros(counts.shape[0])
    part = np.empty(counts.shape[0])
    for j in range(counts.shape[1]):
        np.multiply(counts[:, j], values[j], out=part)
        acc += part
    return acc


def score_margin(N: int, values: np.ndarray) -> float:
    """``8 * k * eps * N * max|v|`` for the k atom values ``values``: the
    slack the scans allow a computed ``scaled_scores`` entry of a row of
    non-negative counts summing to N.

    With u = eps / 2 and g = k u / (1 - k u), a k-term score computed in
    any order is within g * sum_j |c_j v_j| of its exact value, so within
    g N max|v| for such a row. The margin, 16 k u N max|v|, covers several
    of those errors and the roundings around them; each caller states
    what its own use needs. A Python float, which overflows to inf
    without a warning.
    """
    return 8 * len(values) * sys.float_info.epsilon * N * float(np.abs(values).max())


def multisets(m: int, n: int) -> np.ndarray:
    """Every size-n multiset of range(m), m >= 1, as a non-decreasing row,
    the rows in lexicographic order, in the smallest unsigned dtype holding
    m - 1.

    Built by the suffix rule: the size-j rows that start with v are v
    followed by every size-(j - 1) row whose first entry is at least v,
    a suffix of the level below since its first column is sorted. Each
    level is m slice copies in the row dtype.
    """
    dtype = np.min_scalar_type(m - 1)
    rows = np.arange(m, dtype=dtype)[:, None] if n else np.zeros((1, 0), dtype=dtype)
    for j in range(2, n + 1):
        starts = np.searchsorted(rows[:, 0], np.arange(m)).tolist()
        level = np.empty((sum(rows.shape[0] - s for s in starts), j), dtype=dtype)
        at = 0
        for v, s in enumerate(starts):
            part = level[at:at + rows.shape[0] - s]
            part[:, 0] = v
            part[:, 1:] = rows[s:]
            at += part.shape[0]
        rows = level
    return rows


def iter_composition_blocks(N: int, k: int) -> Iterator[np.ndarray]:
    """Yield all compositions of N into k parts as slices of ``BLOCK_ROWS``
    rows, in lexicographic order of the count vectors.

    Blocks are read-only row slices of one Fortran-order array of dtype
    ``np.min_scalar_type(N)`` (uint16 at N = 1000), so every column of a
    block is contiguous and ``eval_probs`` reads it without a copy. The
    simplices of the four most recent (N, k) are kept whatever their size;
    callers keep them small (the oracle scans at most its cell budget).
    """
    simplex = _simplex(N, k)
    for start in range(0, simplex.shape[0], BLOCK_ROWS):
        yield simplex[start:start + BLOCK_ROWS]


def composition_floors(N: int, k: int, values: np.ndarray) -> np.ndarray:
    """For each box of ``BOX_ROWS`` rows of the simplex
    ``iter_composition_blocks(N, k)`` yields, a float no larger than the
    ``scaled_scores(rows, values)`` entry of any of its rows. The values,
    the atoms' points, strictly increase; ValueError otherwise.

    Every row c of a box lies in the box's column range lo <= c <= hi and
    sums to N, so its exact score is at least the range's smallest one: lo
    plus the N - sum(lo) left filled into the lowest atoms first, each up
    to hi - lo (the greedy solution of that linear program, an integer
    vector: the box's bottom-greedy point). A computed row score is then
    at least the computed greedy score less twice the error bound of
    ``score_margin``, and the margin subtracted, ``score_margin(N,
    values)``, covers that and the rounding of the subtraction with room
    to spare. Read-only, and kept for the next call with the same (N, k,
    ``BOX_ROWS``) and float64 values.
    """
    return _floors(N, k, BOX_ROWS, np.asarray(values, dtype=np.float64).tobytes())


@functools.lru_cache(maxsize=8)
def _floors(N: int, k: int, rows: int, value_bytes: bytes) -> np.ndarray:
    values = np.frombuffer(value_bytes, dtype=np.float64)
    if not (values[1:] > values[:-1]).all():
        raise ValueError("composition_floors needs strictly increasing atom values")
    bottom = _box_points(N, k, rows)[0]
    floors = scaled_scores(bottom, values) - score_margin(N, values)
    floors.flags.writeable = False
    return floors


def composition_ceilings(N: int, k: int, terms: Terms) -> np.ndarray:
    """For each box of ``BOX_ROWS`` rows of the simplex
    ``iter_composition_blocks(N, k)`` yields, a float no smaller than the
    ``eval_probs(rows, N, terms.coefs, terms.expts)`` entry of any of its
    rows, provided ``terms.up_closed``: each exponent row with e[j] > 0
    still has a member after one unit moves from atom j to atom j + 1.

    The terms are then the probability that n iid draws from the atoms, at
    masses c / N, form a multiset in an up-set of the componentwise order,
    which can only rise when mass moves to a higher atom. Every row c of a
    box lies in the box's column range lo <= c <= hi and sums to N, so the
    box's top-greedy point g, lo plus the N - sum(lo) left filled into the
    highest atoms first, each up to hi - lo, has every tail sum g[j:] >=
    c[j:] and exact probability at least c's.

    With u = eps / 2, a computed term is its coefficient, rounded once from
    the exact multinomial, times at most 2n rounded operations (n the
    largest exponent-row sum): a division c / N and e - 1 products per
    power, and one product per factor. Its relative error is at most
    (1 + u) ** (2n + 1) - 1. The T nonnegative terms are summed left to
    right from zero, which adds T - 1 roundings. With M = 2n + T, a row's
    computed probability is at most (1 + u) ** M times its exact one, and
    g's at least (1 - u) ** M times, so a row's computed probability is at
    most g's computed one times ((1 + u) / (1 - u)) ** M, about 1 + M *
    eps. The factor applied, ``terms.ceiling_factor`` = ``1 + 4 * M *
    eps``, covers that and the rounding of the product with room to spare:
    a box whose ceiling is below alpha holds no row whose computed
    probability reaches alpha. Read-only, and kept for the next call with
    the same (N, k, ``BOX_ROWS``, ``terms.key``).
    """
    return _ceilings(N, k, BOX_ROWS, terms)


@functools.lru_cache(maxsize=8)
def _ceilings(N: int, k: int, rows: int, terms: Terms) -> np.ndarray:
    top = _box_points(N, k, rows)[1]
    ceilings = eval_probs(top, N, terms.coefs, terms.expts) * terms.ceiling_factor
    ceilings.flags.writeable = False
    return ceilings


def composition_cut_ceilings(N: int, k: int, terms: Terms, values: np.ndarray, cut,
                             boxes: np.ndarray) -> np.ndarray:
    """For each box ``boxes`` names, of the ``BOX_ROWS``-row boxes of the simplex
    ``iter_composition_blocks(N, k)`` yields, a float no smaller than the
    ``eval_probs`` entry of any of the box's rows whose computed
    ``scaled_scores`` is at most ``cut``, provided ``terms.up_closed`` and
    the values, the atoms' points, strictly increase. ``cut``, one for all
    boxes or one per box, is +inf or the computed score of a composition
    of N. At cut = +inf the box's point is its top-greedy one, so this is
    ``composition_ceilings`` bit for bit.

    In tail coordinates, T_j = c[j:].sum() for j = 1..k-1 and steps d_j =
    v_j - v_{j-1} > 0, a row's exact score is N v_0 + sum_j T_j d_j, and
    a composition whose tails are all at least c's has at least c's
    exact probability (see ``composition_ceilings``). A row c of a box
    has tails T_i >= Tlo_i, those of the box's bottom-greedy point, and
    T_j <= Thi_j, those of its top-greedy point. If its computed score is
    at most cut, its exact score is at most cut + g N M (the error bound
    of ``score_margin``, g = k u / (1 - k u), u = eps / 2, M = max|v|), so

        T_j d_j <= cut + g N M - N v_0 - sum_{i != j} Tlo_i d_i.

    The budget computed, cut + margin - N v_0 - sum_i Tlo_i d_i + Tlo_j
    d_j with the d_i rounded once, the products and the sum of magnitude at
    most 2 N M, cut at most about N M and the intermediate sums at most
    6 N M, is within about (2k + 14) u N M of its exact value. The margin,
    ``score_margin(N, values)`` = 16 k u N M, covers that and g N M for k
    >= 2 (at k = 1 there are no tails), so the budget is at least
    the right-hand side. Its quotient by the rounded d_j, rounded once, is
    then at least T_j (1 - 2u) > T_j - 1 for T_j <= N < 2**52, so B_j =
    floor(quotient) + 1 >= T_j: the + 1 covers the division's rounding.
    Tails do not rise with j, so T_j <= B_i for every i <= j, and the
    point whose tails are min(Thi_j, min_{i <= j} B_i), clamped at 0,
    which do not rise either, is a composition of N whose tails are all
    at least c's. Its computed probability times ``terms.ceiling_factor``
    is at least c's computed one, as in ``composition_ceilings``. One
    kernel call over the boxes' points; nothing is kept, as the cut
    changes from call to call.
    """
    bottom, top = _box_points(N, k, BOX_ROWS)
    values = np.asarray(values, dtype=np.float64)
    steps = values[1:] - values[:-1]
    low = _tails(bottom[boxes]) * steps
    base = (np.asarray(cut, dtype=np.float64) + score_margin(N, values) - N * values[0]
            - low.sum(axis=1))
    budget = np.floor((base[..., None] + low) / steps) + 1
    tails = np.minimum(_tails(top[boxes]), np.minimum.accumulate(budget, axis=1))
    point = -np.diff(np.maximum(tails, 0), axis=1, prepend=N, append=0)
    probs = eval_probs(point.astype(np.int64), N, terms.coefs, terms.expts)
    return probs * terms.ceiling_factor


def _tails(points: np.ndarray) -> np.ndarray:
    """Float64 (B, k - 1) tails of int (B, k) points: column j - 1 is
    points[:, j:].sum(axis=1), for j = 1..k-1."""
    return np.cumsum(points[:, :0:-1], axis=1)[:, ::-1].astype(np.float64)


@functools.lru_cache(maxsize=4)
def _box_points(N: int, k: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The bottom-greedy and top-greedy points, int64 (boxes, k) and
    read-only, of the ``rows``-row boxes of ``_simplex(N, k)``, the last
    box possibly shorter: the box's column minima lo plus the N - sum(lo)
    left filled into the atoms lowest first (bottom) or highest first
    (top), each up to the box's column range hi - lo. One table for each
    of the four simplices ``_simplex`` keeps; the box size, ``BOX_ROWS``
    as the public functions pass it, is part of the key, so a table is
    never read at another size."""
    simplex = _simplex(N, k)
    starts = np.arange(0, simplex.shape[0], rows)
    lo = np.minimum.reduceat(simplex, starts, axis=0).astype(np.int64)
    span = np.maximum.reduceat(simplex, starts, axis=0) - lo
    points = []
    for atoms in (range(k), range(k - 1, -1, -1)):
        point, left = lo.copy(), N - lo.sum(axis=1)
        for j in atoms:
            take = np.minimum(left, span[:, j])
            point[:, j] += take
            left -= take
        point.flags.writeable = False
        points.append(point)
    return points[0], points[1]


@functools.lru_cache(maxsize=4)
def _simplex(N: int, k: int) -> np.ndarray:
    """Compositions of N into k parts by stars and bars: the gaps between
    the k - 1 sorted bars of each row of ``multisets(N + 1, k - 1)`` and
    the ends 0 and N, which keeps lexicographic order."""
    bars = multisets(N + 1, k - 1)
    counts = np.empty((bars.shape[0], k), dtype=bars.dtype, order="F")
    counts[:, :-1] = bars
    counts[:, -1] = N
    for j in range(k - 1, 0, -1):
        counts[:, j] -= counts[:, j - 1]
    counts.flags.writeable = False
    return counts
