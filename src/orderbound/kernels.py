"""Constraint-probability kernel plus shared scan plumbing.

The constraint-probability evaluation over candidate mass vectors is the
inner loop of the search oracle. Around it sit the power tables,
composition enumeration and N-scaled scores that the oracle's scans share.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def eval_probs(counts: np.ndarray, table: np.ndarray, coefs: np.ndarray,
               expts: np.ndarray) -> np.ndarray:
    """Constraint probability for each candidate count vector.

    counts : int64 (B, k) occupation numbers summing to N
    table  : float64 (N+1, E+1) with table[c, e] = (c / N) ** e
    coefs  : float64 (T,) multinomial coefficients per upper-set member
    expts  : int64 (T, k) per-atom occurrence counts per member

    Each term is multiplied out atom by atom and the terms are summed in
    member order, so results are reproducible bit for bit.
    """
    B, k = counts.shape
    acc = np.zeros(B)
    for t in range(coefs.shape[0]):
        term = np.full(B, coefs[t])
        for j in range(k):
            term = term * table[counts[:, j], expts[t, j]]
        acc = acc + term
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
    for j in range(counts.shape[1]):
        acc = acc + counts[:, j] * values[j]
    return acc


def iter_composition_blocks(N: int, k: int, chunk: int = 1 << 16) -> Iterator[np.ndarray]:
    """Yield all compositions of N into k parts as int64 blocks, in
    lexicographic order of the count vectors.

    The final two coordinates of each prefix are vectorized; blocks are
    buffered up to roughly ``chunk`` rows before being yielded.
    """
    if k == 1:
        yield np.array([[N]], dtype=np.int64)
        return

    pending: list[np.ndarray] = []
    size = 0
    prefix = np.zeros(k - 2, dtype=np.int64)

    def _tail_block(rem: int) -> np.ndarray:
        block = np.empty((rem + 1, k), dtype=np.int64)
        block[:, : k - 2] = prefix
        t = np.arange(rem + 1, dtype=np.int64)
        block[:, k - 2] = t
        block[:, k - 1] = rem - t
        return block

    def _walk(level: int, rem: int):
        nonlocal size
        if level == k - 2:
            pending.append(_tail_block(rem))
            size += rem + 1
            if size >= chunk:
                out = np.concatenate(pending, axis=0)
                pending.clear()
                size = 0
                yield out
            return
        for c in range(rem + 1):
            prefix[level] = c
            yield from _walk(level + 1, rem - c)
        prefix[level] = 0

    yield from _walk(0, N)
    if pending:
        yield np.concatenate(pending, axis=0)
