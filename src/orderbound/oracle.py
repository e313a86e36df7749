"""Ground-truth bounds by exhaustive search over a quantized simplex.

The bound for sample x under a preorder is the smallest mean among
distributions that give the upper set of x probability at least alpha.
This module minimizes the mean over mass vectors with entries on a grid
of step ``resolution``, restricted to a support subset that provably
suffices for the preorder at hand, and then sharpens the incumbent with
``REFINE_PASSES`` local refinement rounds at halved steps.

The first scan enumerates the finest simplex that fits ``CELL_BUDGET``,
the requested one when it fits (dense mode); otherwise a beam of the best
candidates walks through step halvings down to the requested resolution
(coarse to fine) before the refinement rounds. Each scan visits its
blocks in reverse lexicographic order, lowest means first, and scores
and runs the probability kernel only on rows that can still enter the
beam. The first scan rules out each 128-row box of the simplex by a
score floor before any of its rows is scored, and gathers the rows of
the boxes left into full kernel batches. When the upper set's members
on the support are closed under moving one unit of a sample to the next
atom up (the lexicographic and quantile orders; the pointwise one only
at the all-top sample), the probability only rises as mass moves up, so
the first scan also skips each box whose probability ceiling, its
top-greedy point's probability times a stated rounding factor, is below
alpha: no row in it is feasible. Under such members, once the beam is
full the first scan re-bounds the live boxes it has not reached, unless
their rows fit in one batch, and drops each whose cut-limited ceiling is
below alpha: the probability bound, from one dominating point, of the
box's rows that score at most the beam's cut. The beam's rows are
the next stage's centres. Only when a stage ends with no feasible row,
which never happens under such members, does a second pass over that
stage's rows find the most probable one to stand in for them. A refinement neighbourhood pairs
each centre only with the offsets that keep it non-negative, read from a byte-bounded
memo keyed by the centre's entries clipped to the radius. Doubled, a
full beam's rows keep their probabilities and twice their scores, so the
next beam's cut is at most twice this one, and the neighbourhood drops
every pair scoring above that before it builds a key. Every stage is
deterministic, and ties between equal means, and between equal top
probabilities, are broken toward the lexicographically smallest mass
vector, so results do not depend on evaluation order. The witness's
constraint probability is the kernel's value at its row, the number the
search compared with alpha, so after the member terms are read the
oracle never reads the sample space again.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dist import Distribution, SupportSet, augment, full_support
from .orders import (
    EnumerationGuardError,
    LexiLow,
    Pointwise,
    Preorder,
    Quantile,
    UpperSet,
    enumerate_omega,
    upper_set,
)
from .support import Sample


#: Most cells one enumerated scan may hold; above it the coarse-to-fine
#: schedule engages.
CELL_BUDGET = 600_000
#: Candidates that survive each coarse-to-fine or refinement stage.
BEAM_WIDTH = 24
#: Most rows one refinement neighbourhood may materialize before dedup.
NEIGHBORHOOD_MAX_ROWS = 1 << 24
#: Most bytes of valid offset indices kept across neighbourhoods; one
#: pattern's indices take at most 2.5 MB (616,227 int32 at k = 14).
VALID_OFFSETS_BYTES = 1 << 22
#: Step-halving polish rounds around the incumbent after the requested
#: resolution is reached.
REFINE_PASSES = 3


class InfeasibleError(RuntimeError):
    """No distribution on the search support satisfies the constraint."""


@dataclass(frozen=True)
class OracleConfig:
    """Search settings a caller chooses.

    resolution is the simplex grid step; support_override, a non-empty
    support, replaces ``refined_support`` as the search support. The scan
    budget, the beam width and the refinement rounds are fixed
    (``CELL_BUDGET``, ``BEAM_WIDTH``, ``REFINE_PASSES``).
    """

    resolution: float = 1e-3
    support_override: SupportSet | None = None

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        if self.support_override is not None and not self.support_override:
            raise ValueError("support_override must hold at least one index")


@dataclass(frozen=True, eq=False)
class OracleResult:
    """``constraint_prob`` is the kernel's probability at the witness, the
    number the search compared with alpha, so it is at least alpha."""

    value: float
    witness: Distribution
    constraint_prob: float
    support_used: SupportSet
    final_step: float
    mode: str


def relevant_values(x: Sample, order: Preorder) -> SupportSet | None:
    """Grid indices through whose pmf and cdf alone a distribution sets
    the probability of x's upper set, or None when no such set is claimed.

    Under a quantile preorder that is the relevant order statistic; under
    the low-lexicographic order, and for the singleton upper set of the
    pointwise preorder, it is x's distinct values. Other orders read the
    whole distribution.
    """
    if isinstance(order, Quantile):
        return SupportSet.of([x.order_stat(order.i)])
    if isinstance(order, (LexiLow, Pointwise)):
        return SupportSet.of(x.distinct_indices)
    return None


def refined_support(x: Sample, order: Preorder) -> SupportSet:
    """Support subset that suffices for the oracle under this preorder.

    Mass can be shifted onto the augmentation of ``relevant_values``
    without changing the constraint or raising the mean. Orders without
    relevant values keep the full grid.
    """
    values = relevant_values(x, order)
    return full_support(x.grid) if values is None else augment(values, x.grid)


def _member_terms(U: UpperSet, atoms: tuple[int, ...]):
    """Multinomial coefficients and exponent rows, in member order, for
    upper-set members whose indices all lie on the given atoms (every other
    member has probability zero); an exponent counts an atom in the row."""
    slot = np.full(U.omega.grid.m, -1)
    slot[list(atoms)] = np.arange(len(atoms))
    slots = slot[U.omega.idx[U.mask]]
    keep = (slots >= 0).all(axis=1)
    expts = np.zeros((int(keep.sum()), len(atoms)), dtype=np.int64)
    for col in slots[keep].T:
        expts[np.arange(col.size), col] += 1
    return U.omega.coefs[U.mask][keep], expts


@functools.cache
def _zero_sum_offsets(k: int, radius: int) -> np.ndarray:
    """Every k-vector with entries in [-radius, radius] summing to zero, in
    lexicographic order (read-only int64). Rows grow one coordinate at a
    time, dropping those the coordinates left cannot bring back to zero;
    each level keeps only the kept rows' (parent row, step) positions."""
    steps = np.arange(-radius, radius + 1, dtype=np.int64)
    sums, picks = np.zeros(1, dtype=np.int64), []
    for left in range(k - 1, -1, -1):
        sums = (sums[:, None] + steps).ravel()
        picks.append(np.flatnonzero(np.abs(sums) <= radius * left))
        sums = sums[picks[-1]]
    offs = np.empty((sums.size, k), dtype=np.int64)
    row = np.arange(sums.size)
    for col in range(k - 1, -1, -1):
        row, step = np.divmod(picks[col][row], steps.size)
        offs[:, col] = steps[step]
    offs.flags.writeable = False
    return offs


def _count_zero_sum_offsets(k: int, radius: int) -> int:
    """len(_zero_sum_offsets(k, radius)) without building them: the
    central coefficient of (1 + x + ... + x**(2r))**k, by inclusion and
    exclusion over the parts that exceed 2r."""
    width, total = 2 * radius + 1, radius * k
    return sum((-1) ** j * math.comb(k, j) * math.comb(total - j * width + k - 1, k - 1)
               for j in range(total // width + 1))


def _neighbor_radius(k: int) -> int:
    if k <= 5:
        return 3
    if k <= 6:
        return 2
    return 1


def _lex_order(rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Permutation sorting by (score, row) lexicographically."""
    keys = tuple(rows[:, c] for c in range(rows.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (scores,))


class _Reducer:
    """Deterministic reduction over candidate blocks, in any block order and
    any partition: a beam of the best ``beam_width`` feasible rows in
    (score, row) order, whose first row is the feasible minimum (the
    lex-smallest on exact ties). A reduction that met no feasible row has
    an empty beam; ``_most_probable`` then finds the rescue row.

    Once the beam is full, a row scoring above its last score (``cut``) can
    never enter it, so a block whose best feasible score lies above the cut
    is dropped without a partition or a sort.

    Rows may arrive in any integer dtype (enumerated blocks are uint8 or
    uint16); every kept row is int64, so refinement can double it without
    wrapping."""

    def __init__(self, alpha: float, beam_width: int):
        self.alpha = alpha
        self.beam_width = beam_width
        self._beam_rows: np.ndarray | None = None
        self._beam_scores = np.zeros(0)
        # largest finite double until the beam is full: every feasible
        # score passes it, every infeasible (+inf) one fails it
        self._cut = sys.float_info.max

    @property
    def cut(self) -> float:
        """Highest score that can still enter the beam."""
        return self._cut

    @property
    def full(self) -> bool:
        """True once the beam holds ``beam_width`` rows and the cut is set."""
        return self._beam_scores.size == self.beam_width

    def consume(self, rows: np.ndarray, scores: np.ndarray, probs: np.ndarray) -> None:
        # infeasible rows score +inf, so no row is gathered to find the
        # feasible minimum
        masked = np.where(probs >= self.alpha, scores, math.inf)
        if masked.min() > self._cut:  # no feasible row, or none that can enter the beam
            return
        keep = np.flatnonzero(masked <= self._cut)
        if keep.size > self.beam_width:
            # every row scoring at or below the beam_width-th score, ties
            # included, so the (score, row) order of this slice starts with
            # the block's share of the beam
            kept = masked[keep]
            keep = keep[kept <= np.partition(kept, self.beam_width - 1)[self.beam_width - 1]]
        cand_rows = rows[keep].astype(np.int64)
        if self._beam_rows is not None:
            cand_rows = np.concatenate([self._beam_rows, cand_rows])
        cand_scores = np.concatenate([self._beam_scores, masked[keep]])
        order = _lex_order(cand_rows, cand_scores)[: self.beam_width]
        self._beam_rows, self._beam_scores = cand_rows[order], cand_scores[order]
        if order.size == self.beam_width:
            self._cut = float(self._beam_scores[-1])

    def beam(self) -> np.ndarray:
        if self._beam_rows is None:
            return np.zeros((0, 0), dtype=np.int64)
        return self._beam_rows


def _scan_blocks(blocks, N, coefs, expts, values, alpha, floors=None) -> _Reducer:
    """Reduce the blocks in reverse order, sending to the kernel only the
    rows of boxes that can still hold a beam row, gathered into batches of
    at least ``kernels.BLOCK_ROWS`` rows.

    Blocks come in lexicographic order and the atoms' values increase, so
    the reverse order meets mass on the lowest atoms first and the beam
    fills near the feasibility boundary early. The blocks' rows are cut
    into boxes of ``kernels.BOX_ROWS`` rows, counted from the first
    block's first row, so a box may straddle two blocks. ``floors``, one
    per box, bounds each box's feasible scores from below, for any of the
    box's rows: ``kernels.composition_floors`` for a simplex, +inf for a
    box that holds no feasible row. A box is live while its floor is at
    most the reducer's cut; a block with no live box is skipped by one
    float compare on its least floor, and the runs of live boxes in a
    block are found by one compare over its floors.
    The live boxes' rows join a pending batch, which is scored and, unless
    every score lies above the cut, run through the kernel and the
    reducer, once it holds ``BLOCK_ROWS`` rows, and after every block
    while the beam is not full, so the cut closes as early as it would
    block by block. Batching changes no bit of the result: the reducer
    does not depend on order or partition, and a cut that has not yet seen
    the pending rows is only looser.

    When the terms are up-closed and the beam has just filled, the live
    boxes not yet visited are re-bounded once, unless their rows fit in
    one batch: a box stays live only while its
    ``kernels.composition_cut_ceilings`` at this cut, the probability
    bound of its rows that score at most the cut, reaches alpha. The cut
    only falls, so a row it prunes could never enter the beam.

    Without floors every box is live and each block is scored in turn.
    """
    red = _Reducer(alpha, BEAM_WIDTH)
    blocks = list(blocks)
    if floors is not None:
        sizes = np.array([rows.shape[0] for rows in blocks], dtype=np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        least = _least_floors(floors, starts, ends)
        first_rows = starts.tolist()
    terms = None if floors is None else kernels.Terms.of(coefs, expts)
    rebound = terms is not None and terms.up_closed
    batch, held = [], 0
    for i in range(len(blocks) - 1, -1, -1):
        rows, cut = blocks[i], red.cut
        if floors is None:
            parts = [rows]
        elif least[i] > cut:
            continue
        else:
            parts = _live_parts(rows, first_rows[i], floors, cut)
        batch += parts
        held += sum(part.shape[0] for part in parts)
        if held >= kernels.BLOCK_ROWS or not red.full:
            _reduce_batch(red, batch, N, coefs, expts, values)
            batch, held = [], 0
            if rebound and red.full:
                rebound = False
                cut_floors = _cut_floors(floors, N, terms, values, alpha, red.cut, first_rows[i])
                if cut_floors is not None:
                    floors = cut_floors
                    least = _least_floors(floors, starts, ends)
    if batch:
        _reduce_batch(red, batch, N, coefs, expts, values)
    return red


def _least_floors(floors, starts, ends) -> list[float]:
    """Per block [starts[i], ends[i]) of the simplex's rows, the least floor
    of the ``kernels.BOX_ROWS``-row boxes it touches; block i + 1 may start
    in block i's last box."""
    box = kernels.BOX_ROWS
    hi = -(-ends // box)
    return np.minimum(np.minimum.reduceat(floors, starts // box), floors[hi - 1]).tolist()


def _live_parts(rows, start, floors, cut) -> list[np.ndarray]:
    """The slices of ``rows``, simplex rows from ``start`` on, that the runs
    of consecutive ``kernels.BOX_ROWS``-row boxes with floors at most
    ``cut`` cover. One compare over the block's floors gives the live mask;
    each run is found by two byte searches in it, with no Python step per
    box."""
    box = kernels.BOX_ROWS
    first = start // box
    live = (floors[first:-(-(start + rows.shape[0]) // box)] <= cut).tobytes()
    parts, z = [], 0
    while (a := live.find(1, z)) >= 0:
        z = live.find(0, a)
        if z < 0:
            z = len(live)
        parts.append(rows[max((first + a) * box - start, 0):(first + z) * box - start])
    return parts


def _cut_floors(floors, N, terms, values, alpha, cut, end) -> np.ndarray | None:
    """The box floors of a scan whose rows from ``end`` on are visited and
    whose beam's cut is ``cut``, or None when the live boxes (``floors`` at
    most ``cut``) that start below ``end`` fit in one ``kernels.BLOCK_ROWS``
    batch. Each such box whose cut-limited ceiling
    (``kernels.composition_cut_ceilings``, one kernel call over them all)
    is below alpha gets +inf; every other box keeps its floor."""
    live = np.flatnonzero(floors[:-(-end // kernels.BOX_ROWS)] <= cut)
    if live.size * kernels.BOX_ROWS <= kernels.BLOCK_ROWS:
        return None
    ceilings = kernels.composition_cut_ceilings(N, values.shape[0], terms, values, cut, live)
    floors = floors.copy()
    floors[live[ceilings < alpha]] = math.inf
    return floors


def _reduce_batch(red: _Reducer, batch, N, coefs, expts, values) -> None:
    """Score the rows of the batch's parts and, unless every score lies
    above the reducer's cut, run them through the kernel and the reducer."""
    rows = batch[0] if len(batch) == 1 else np.concatenate(batch)
    scores = kernels.scaled_scores(rows, values)
    if scores.min() > red.cut:
        return
    red.consume(rows, scores, kernels.eval_probs(rows, N, coefs, expts))


def _most_probable(parts, N, coefs, expts) -> tuple[np.ndarray, float]:
    """The most probable row of the parts, as int64, and its probability.
    The parts come in lexicographic order, and the first maximum is kept,
    so ties go to the lexicographically smallest row."""
    row, prob = None, -math.inf
    for rows in parts:
        probs = kernels.eval_probs(rows, N, coefs, expts)
        i = int(np.argmax(probs))
        if probs[i] > prob:
            row, prob = rows[i].astype(np.int64), float(probs[i])
    return row, prob


@functools.cache
def _offset_needs(k: int, radius: int) -> np.ndarray:
    """Per offset, what it needs of a centre to keep the row non-negative,
    in unary (read-only int64): field j, bits radius * j up, holds one bit
    per unit entry j falls below zero, so bit radius * j + v is set when
    offset entry j is below -v. The fields take k * radius bits, at most 15
    for the k <= 14 atoms the neighbourhood guard admits."""
    need = np.maximum(-_zero_sum_offsets(k, radius), 0)
    need = ((1 << need) - 1) @ ((1 << radius) ** np.arange(k))
    need.flags.writeable = False
    return need


class _ByteBoundedMemo:
    """Arrays by key, the least recently used dropped first while they hold
    more than ``limit`` bytes; an array larger than the limit is not kept."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._arrays: dict = {}

    def get(self, key, make) -> np.ndarray:
        """The array kept for key, else ``make()``, kept as the most recent."""
        array = self._arrays.pop(key, None)
        if array is None:
            array = make()
            if array.nbytes > self.limit:
                return array
            self.nbytes += array.nbytes
            while self.nbytes > self.limit:
                self.nbytes -= self._arrays.pop(next(iter(self._arrays))).nbytes
        self._arrays[key] = array
        return array


_VALID_OFFSETS = _ByteBoundedMemo(VALID_OFFSETS_BYTES)


def _valid_offsets(k: int, radius: int, have: int) -> np.ndarray:
    """Increasing indices (read-only int32) of the ``_zero_sum_offsets(k,
    radius)`` that keep non-negative a centre whose unary code is ``have``:
    those that need no bit of ``_offset_needs`` the code lacks. Memoized per
    (k, radius, have) within ``VALID_OFFSETS_BYTES``."""
    def make():
        idx = np.flatnonzero((_offset_needs(k, radius) & ~have) == 0).astype(np.int32)
        idx.flags.writeable = False
        return idx

    return _VALID_OFFSETS.get((k, radius, have), make)


def _neighborhood(centers: np.ndarray, k: int, values: np.ndarray,
                  offset_scores: np.ndarray, limit: float) -> np.ndarray:
    """Distinct non-negative rows centre + offset, in lexicographic order,
    less the rows whose score must exceed ``limit`` (+inf drops none).

    Each centre is paired only with the offsets that keep it non-negative,
    ``_valid_offsets`` of its unary code, so no pair is tested for sign. On
    the first 48 ``oracle-c2f`` benchmark items (384 stages at k = 5, 74
    distinct codes) that is 4,140,772 of the 13,372,416 centre x offset
    pairs; 1,997,248 of them pass the score bound, and they dedup to
    441,393 rows.

    A pair is dropped before any key is built when the
    offset's score (``offset_scores``, the ``scaled_scores`` of
    ``_zero_sum_offsets``) exceeds ``limit`` plus a margin less the
    centre's score. The margin, ``kernels.score_margin(N, values)`` for
    centres summing to N, makes every dropped row's computed
    ``scaled_scores`` exceed ``limit``, so a row scoring exactly ``limit``
    is kept. With u = eps / 2 and g = k u / (1 - k u), the error bound of
    ``score_margin`` is g N max|v| for the centre and for the row, both
    non-negative and summing to N, and 2 g N max|v| for the offset, whose
    entries sum to zero and whose negative entries total at most N once
    the row is non-negative. Forming limit + margin less the centre's score rounds
    twice, by about 3 u N max|v| in all. So a dropped row's computed score
    exceeds ``limit`` + margin - (4 g + 3 u) N max|v|, and (4 g + 3 u),
    about (4 k + 3) u, is under half the margin's 16 k u.

    The centres share one sum, so every candidate row is fixed by its
    first k - 1 entries. Entry j less lo_j, the lowest value it can take,
    is packed into the bits its range needs of one of a few int64 keys,
    the first entries in the highest bits of the last key, so the keys
    sort in the rows' order. Packing is a product with the entries' bit
    weights, linear while entries stay non-negative: a candidate's keys
    are its centre's keys plus its offset's keys, and no candidate row is
    built. A single key is sorted alone, several lexicographically.
    """
    radius = _neighbor_radius(k)
    offs = _zero_sum_offsets(k, radius)
    total = sum(centers[0].tolist())
    heads = centers[:, :-1]
    lo = np.maximum(heads.min(axis=0) - radius, 0)
    widths = [int(w).bit_length() for w in (heads.max(axis=0) + radius - lo).tolist()]
    # (key, bit) of each entry, filling the keys from the last entry up
    place: list[tuple[int, int]] = [(0, 0)] * (k - 1)
    key, used = 0, 0
    for j in range(k - 2, -1, -1):
        if used + widths[j] > 63:
            key, used = key + 1, 0
        place[j] = (key, used)
        used += widths[j]

    # the keys of rows are weight @ rows[:, :-1].T
    weight = np.zeros((key + 1, k - 1), dtype=np.int64)
    for j, (w, bit) in enumerate(place):
        weight[w, j] = 1 << bit

    # a centre entry v holds the low min(v, radius) bits of its field, and
    # the offsets that keep it non-negative depend on it only through them
    have = ((1 << np.minimum(centers, radius)) - 1) @ ((1 << radius) ** np.arange(k))
    valid = [_valid_offsets(k, radius, code) for code in have.tolist()]
    sizes = [v.size for v in valid]
    oi = np.concatenate(valid, dtype=np.intp)
    margin = kernels.score_margin(total, values)
    keep = offset_scores[oi] <= np.repeat(limit + margin - centers @ values, sizes)
    oi = oi[keep]
    # one 1-d array per key, the last the most significant
    keys = [np.repeat(c, sizes)[keep] + o[oi]
            for c, o in zip(weight @ (heads - lo).T, weight @ offs[:, :-1].T)]
    if len(keys) == 1:
        keys = [np.sort(keys[0])]
    else:
        order = np.lexsort(keys)
        keys = [key[order] for key in keys]
    fresh = np.ones(keys[0].size, dtype=bool)
    fresh[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in keys])
    keys = [key[fresh] for key in keys]
    rows = np.empty((keys[0].size, k), dtype=np.int64)
    for j, (w, bit) in enumerate(place):
        rows[:, j] = (keys[w] >> bit & (1 << widths[j]) - 1) + lo[j]
    rows[:, -1] = total - rows[:, :-1].sum(axis=1)
    return rows


def _schedule(k: int, cfg: OracleConfig) -> tuple[int, int, str]:
    """(n0, stages, mode) on k atoms: the first scan's step 1/n0, the
    finest whose simplex fits ``CELL_BUDGET`` but no finer than the
    requested one, and the refinement stages after it, the halvings down
    to the requested step and then ``REFINE_PASSES``; EnumerationGuardError
    if a stage's neighbourhood could exceed ``NEIGHBORHOOD_MAX_ROWS`` rows.
    A resolution whose reciprocal overflows a double asks for the largest
    double's step count, which the caller's precision guard refuses."""
    n_target = max(1, math.ceil(min(1.0 / cfg.resolution, sys.float_info.max)))
    n0, hi = 1, n_target
    while n0 < hi:
        mid = (n0 + hi + 1) // 2
        if math.comb(mid + k - 1, k - 1) <= CELL_BUDGET:
            n0 = mid
        else:
            hi = mid - 1
    stages = math.ceil(math.log2(n_target / n0)) + REFINE_PASSES
    # every stage's centres are at most the beam's rows
    if _count_zero_sum_offsets(k, _neighbor_radius(k)) * BEAM_WIDTH > NEIGHBORHOOD_MAX_ROWS:
        raise EnumerationGuardError(
            f"refinement neighbourhoods on k={k} support atoms exceed the guard of"
            f" {NEIGHBORHOOD_MAX_ROWS} rows"
        )
    return n0, stages, "dense" if n0 == n_target else "coarse-to-fine"


def _minimize(values: np.ndarray, coefs: np.ndarray, expts: np.ndarray,
              alpha: float, n0: int, stages: int):
    """Minimize the mean over the quantized simplex subject to the
    constraint probability being >= alpha. Returns (counts, N).

    The first scan skips the simplex boxes whose score floor is above the
    beam's cut and, when the terms are up-closed, those whose probability
    ceiling is below alpha, folded into the floors as +inf; once its beam
    is full it re-bounds the live boxes left (``_scan_blocks``). A stage that
    ends with an empty beam hands on the most probable of its rows, from a
    second pass over them. Up-closed terms never need it: they include the
    all-top-atom member, so at the all-top-atom row that term, coefficient
    1 times (N / N) ** n, is exactly 1.0 and every other term has a factor
    0 / N; the row's probability computes to exactly 1.0 > alpha, its
    box's ceiling is at least that, so every beam holds a feasible row.
    """
    k = values.shape[0]
    terms = kernels.Terms.of(coefs, expts)
    floors = kernels.composition_floors(n0, k, values)
    if terms.up_closed:
        # a box below alpha holds no feasible row: no cut admits it
        floors = np.where(kernels.composition_ceilings(n0, k, terms) >= alpha, floors, math.inf)
    n_cur, blocks = n0, list(kernels.iter_composition_blocks(n0, k))
    red = _scan_blocks(blocks, n_cur, coefs, expts, values, alpha, floors)

    # the offsets' scores, fixed for the call
    offset_scores = kernels.scaled_scores(_zero_sum_offsets(k, _neighbor_radius(k)), values)
    for _ in range(stages):
        # the beam's distinct rows are the next centres; only when no row
        # was feasible does the most probable row stand in for them
        centers = red.beam()
        if not centers.size:
            centers = _most_probable(blocks, n_cur, coefs, expts)[0][None]
        # doubled, a full beam's rows keep their probabilities (2c / 2N is
        # the double c / N) and score exactly twice as much, and offset 0
        # keeps them in the neighbourhood: the next beam fills, and its cut
        # is at most twice this one; until the beam is full the cut is the
        # largest double, and twice it is +inf
        n_cur *= 2
        cands = _neighborhood(centers * 2, k, values, offset_scores, 2 * red.cut)
        # kernel-sized slices; the reducer does not depend on the partition
        blocks = [cands[i:i + kernels.BLOCK_ROWS] for i in range(0, len(cands), kernels.BLOCK_ROWS)]
        red = _scan_blocks(blocks, n_cur, coefs, expts, values, alpha)

    beam = red.beam()
    if not beam.size:
        raise InfeasibleError(
            f"no mass vector at step 1/{n_cur} reaches constraint probability {alpha}"
            f" (closest achieved {_most_probable(blocks, n_cur, coefs, expts)[1]:.6g})"
        )
    return beam[0], n_cur


def _step_count(steps: int) -> str:
    """A step count for a message: exact up to 2**53, to four significant
    digits above, where the count of a resolution whose reciprocal
    overflows a double would take 310 digits (1.646e+309)."""
    if steps <= 1 << 53:
        return str(steps)
    from decimal import Decimal  # only a refused resolution reaches here

    return f"{Decimal(steps):.4g}"


def pessimal_bound_oracle(x: Sample, order: Preorder, alpha: float,
                          cfg: OracleConfig | None = None) -> OracleResult:
    """Smallest mean among distributions giving x's upper set probability
    at least alpha.

    The search runs on ``refined_support(x, order)`` unless the config
    overrides it. The returned value sits within ``2 * final_step *
    (s_max - s_min)`` of the true minimum (checked against the closed
    forms in the test suite); the witness is the minimizing mass vector.

    Raises InfeasibleError when no distribution on the support meets the
    constraint, which is reported rather than silently clamped, and
    EnumerationGuardError, before the sample space is read, when a refinement
    neighbourhood could exceed ``NEIGHBORHOOD_MAX_ROWS`` rows (k >= 15 atoms).
    A resolution whose final step times ``s_max - s_min`` is below the
    value's rounding bound raises ValueError at the same point: on two
    atoms of [0, 1], steps of 1e-14 run and 1e-15 are refused. So is a search
    whose scores could overflow a double: the final step count times the
    largest |value| of a support atom, or the neighbourhood radius times
    the atoms' summed |values|, near the largest double. At the default
    resolution, [0, 1e304] runs and [0, 1e305] is refused.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    cfg = cfg or OracleConfig()
    grid = x.grid
    support = cfg.support_override
    if support is None:
        support = refined_support(x, order)
    if any(i > grid.m - 1 for i in support.indices):
        raise ValueError("support override contains indices outside the grid")

    atoms = support.indices
    n0, stages, mode = _schedule(len(atoms), cfg)
    # the value, k exact counts (N <= 2**53) dotted with atom values of size
    # at most M and divided by N, is within g M of its exact value, g = (k +
    # 1) u / (1 - (k + 1) u), u = eps / 2; a final step times the range of at
    # least that also keeps N <= 2 / g < 2**53, as the range is at most 2 M
    ku = (len(atoms) + 1) * sys.float_info.epsilon / 2
    top = max(abs(grid.s_min), abs(grid.s_max))
    rounding = ku / (1 - ku) * top
    span = (grid.s_max - grid.s_min) * (1 / (n0 << stages))
    if span < rounding:
        raise ValueError(
            f"resolution {cfg.resolution!r} ends on steps of 1/{_step_count(n0 << stages)}:"
            f" final step times (s_max - s_min) = {span:.3g} is below the value's rounding"
            f" bound {rounding:.3g}"
        )
    # a score's partial sums are within a factor 1 + g of their exact values
    # (g as above): at most N M for a row, whose counts total at most N = n0
    # << stages, M the atoms' largest |v|, and r S for an offset on radius
    # r, |o_j| <= r, S the atoms' summed |v|. The value's dot product is a
    # row's score, the doubled cut a score at N / 2 doubled exactly, and a
    # floor subtracts, and a neighbourhood adds, kernels.score_margin, 8 k
    # eps N M.
    # So all stay finite while max(N M, r S) (1 + 16 k eps) does; past that
    # a row can score +inf, which no cut admits. The neighbourhood's bound,
    # the doubled cut plus the margin less a centre's score, is not negative
    # as no centre scores above the cut: it can overflow only to +inf,
    # which drops no pair.
    k = len(atoms)
    values = np.array([grid.point(a) for a in atoms])
    # Python floats overflow to inf without a warning
    sizes = [abs(v) for v in values.tolist()]
    radius, largest, summed = _neighbor_radius(k), max(sizes), sum(sizes)
    reach = max((n0 << stages) * largest, radius * summed)
    if reach * (1 + 16 * k * sys.float_info.epsilon) > sys.float_info.max:
        raise ValueError(
            f"scores overflow a double: {n0 << stages} steps times max|v| = {largest:.3g} on a row,"
            f" or radius {radius} times sum|v| = {summed:.3g} on an offset, over the {k}"
            f" support atoms exceeds the largest double"
        )
    omega = enumerate_omega(grid, x.n)
    U = upper_set(x, order, omega)
    coefs, expts = _member_terms(U, atoms)

    try:
        counts, n_final = _minimize(values, coefs, expts, alpha, n0, stages)
    except InfeasibleError as exc:
        raise InfeasibleError(f"sample {x.idx}, order {order.name}: {exc}") from None

    mass = np.zeros(grid.m)
    mass[list(atoms)] = counts / n_final
    witness = Distribution(grid, mass)
    return OracleResult(
        value=float(np.dot(counts, values) / n_final),
        witness=witness,
        constraint_prob=float(kernels.eval_probs(counts[None], n_final, coefs, expts)[0]),
        support_used=support,
        final_step=1.0 / n_final,
        mode=mode,
    )


def pointwise_bound_oracle(x: Sample, alpha: float,
                           cfg: OracleConfig | None = None) -> OracleResult:
    """Oracle for the largest valid bound value at x (singleton upper set)."""
    return pessimal_bound_oracle(x, Pointwise(x), alpha, cfg)
