"""Constraint-probability kernel plus shared scan plumbing.

The constraint-probability evaluation over candidate mass vectors is the
inner loop of the search oracle. Around it sit the power tables,
composition enumeration and N-scaled scores that the oracle's scans share.

Enumeration yields blocks of at most ``chunk`` rows (``BLOCK_ROWS`` = 8,192
by default, the fastest of 4,096, 8,192 and 16,384 for the kernel on 2-core
x86: a block's factor arrays stay in cache): it groups runs of sibling
subtrees of the composition tree into one block and expands each run level
by level with numpy, so no Python loop runs per row or per short prefix. A
simplex depends only on (N, k), so the blocks of the four most recent
simplices are kept, read-only and in the smallest unsigned dtype that holds
N, for the next scan of the same simplex; the oracle's fixed cell budget
bounds each one. The kernel's table is a ``pow_table`` table, and the
kernel forms each atom's powers from the base c / N by the same repeated
multiplication, so it gathers nothing from the table. None of this changes
a bit of the results: rows come out in the same lexicographic order and
every probability is the same product of the same factors in the same
order.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

#: Rows per kernel block: the enumeration default and the neighbourhood slice.
BLOCK_ROWS = 1 << 13


def eval_probs(counts: np.ndarray, table: np.ndarray, coefs: np.ndarray,
               expts: np.ndarray) -> np.ndarray:
    """Constraint probability for each candidate count vector.

    counts : integer (B, k) occupation numbers summing to N
    table  : float64 (N+1, E+1) ``pow_table(N, E)``, E >= every exponent
    coefs  : float64 (T,) multinomial coefficients per upper-set member
    expts  : int64 (T, k) per-atom occurrence counts per member

    Each term is multiplied out atom by atom and the terms are summed in
    member order, so results are reproducible bit for bit. A factor with
    exponent zero is exactly 1.0 and is skipped. Every other factor
    (c / N) ** e is formed once per call the way ``pow_table`` forms
    table[c, e]: the base c / N (the double table[c, 1] holds) times
    itself e - 1 times, left to right. So each factor equals the table
    entry bit for bit, and no factor is gathered from the table.
    """
    B = counts.shape[0]
    N = table.shape[0] - 1
    acc = np.zeros(B)
    # powers[j][e - 1] = (counts[:, j] / N) ** e, up to atom j's top exponent
    powers: list[list[np.ndarray]] = []
    for j, top in enumerate(expts.max(axis=0, initial=0).tolist()):
        chain = [counts[:, j] / N] if top else []
        while len(chain) < top:
            chain.append(chain[-1] * chain[0])
        powers.append(chain)
    term = np.empty(B)
    for coef, row in zip(coefs.tolist(), expts.tolist()):
        factors = [powers[j][e - 1] for j, e in enumerate(row) if e]
        if not factors:
            acc += coef
            continue
        np.multiply(factors[0], coef, out=term)
        for f in factors[1:]:
            np.multiply(term, f, out=term)
        acc += term
    return acc


def pow_table(N: int, max_exp: int) -> np.ndarray:
    """table[c, e] = (c / N) ** e built by repeated multiplication."""
    base = np.arange(N + 1, dtype=np.float64) / N
    table = np.empty((N + 1, max_exp + 1))
    table[:, 0] = 1.0
    for e in range(1, max_exp + 1):
        table[:, e] = table[:, e - 1] * base
    return table


def scaled_scores(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """N-scaled means: sum_j counts[:, j] * values[j], accumulated left to right."""
    acc = np.zeros(counts.shape[0])
    part = np.empty(counts.shape[0])
    for j in range(counts.shape[1]):
        np.multiply(counts[:, j], values[j], out=part)
        acc += part
    return acc


def iter_composition_blocks(N: int, k: int, chunk: int = BLOCK_ROWS) -> Iterator[np.ndarray]:
    """Yield all compositions of N into k parts as blocks of at most
    ``chunk`` rows, in lexicographic order of the count vectors.

    Blocks are read-only, Fortran-order arrays of dtype
    ``np.min_scalar_type(N)`` (uint16 at N = 1000), so ``eval_probs`` reads
    their columns without a copy. The blocks of the four most recent
    (N, k, chunk) keys are kept whatever their size, and a repeated call
    yields the same array objects without enumerating again; callers keep
    the simplex small (the oracle scans at most its cell budget).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    yield from _kept_blocks(N, k, chunk)


@functools.lru_cache(maxsize=4)
def _kept_blocks(N: int, k: int, chunk: int) -> tuple[np.ndarray, ...]:
    return tuple(_composition_blocks(N, k, chunk))


def _composition_blocks(N: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    """Enumerate the blocks ``iter_composition_blocks`` yields.

    The compositions form a tree whose level-i nodes fix the first i
    coordinates. At a node, consecutive children whose subtree sizes sum
    to at most ``chunk`` are grouped into one run, and each run is
    expanded into a single block level by level with numpy; only a child
    whose own subtree exceeds ``chunk`` is descended into.
    """
    dtype = np.min_scalar_type(N)
    if k == 1:
        block = np.array([[N]], dtype=dtype)
        block.flags.writeable = False
        yield block
        return

    def _subtree(rem: int, free: int) -> int:
        # compositions of rem into `free` parts
        return math.comb(rem + free - 1, free - 1)

    def _expand(prefix: tuple[int, ...], lo: int, hi: int, rem: int, size: int) -> np.ndarray:
        # rows whose coordinate len(prefix) runs over lo..hi, all later
        # coordinates free, in lexicographic order
        level = len(prefix)
        block = np.empty((size, k), dtype=dtype, order="F")
        block[:, :level] = prefix
        col = np.arange(lo, hi + 1, dtype=np.int64)
        left = rem - col
        cols = [col]
        for _ in range(level + 1, k - 1):
            reps = left + 1
            parent = np.repeat(np.arange(reps.shape[0]), reps)
            starts = np.cumsum(reps) - reps
            child = np.arange(parent.shape[0], dtype=np.int64) - starts[parent]
            cols = [c[parent] for c in cols]
            cols.append(child)
            left = left[parent] - child
        cols.append(left)
        for j, c in enumerate(cols):
            block[:, level + j] = c
        block.flags.writeable = False
        return block

    def _walk(prefix: tuple[int, ...], rem: int) -> Iterator[np.ndarray]:
        free = k - len(prefix) - 1  # coordinates left after this one
        total = _subtree(rem, free + 1)
        if total <= chunk:
            yield _expand(prefix, 0, rem, rem, total)
            return
        lo, size = 0, 0
        for c in range(rem + 1):
            sub = _subtree(rem - c, free)
            if size and size + sub > chunk:
                yield _expand(prefix, lo, c - 1, rem, size)
                size = 0
            if sub > chunk:
                yield from _walk(prefix + (c,), rem - c)
                continue
            if not size:
                lo = c
            size += sub
        if size:
            yield _expand(prefix, lo, rem, rem, size)

    yield from _walk((), N)
