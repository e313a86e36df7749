import math

import numpy as np
import pytest

from orderbound import kernels


def _random_instance(rng):
    N = int(rng.integers(4, 300))
    k = int(rng.integers(1, 7))
    T = int(rng.integers(0, 40))
    maxe = int(rng.integers(1, 7))
    table = kernels.pow_table(N, maxe)
    counts = rng.multinomial(N, np.ones(k) / k, size=128).astype(np.int64)
    coefs = rng.random(T) * 20
    expts = rng.integers(0, maxe + 1, size=(T, k)).astype(np.int64)
    return counts, table, coefs, expts


def test_eval_probs_against_direct_formula():
    rng = np.random.default_rng(7)
    counts, table, coefs, expts = _random_instance(rng)
    N = int(counts[0].sum())
    got = kernels.eval_probs(counts, table, coefs, expts)
    for b in range(0, counts.shape[0], 17):
        want = sum(
            coefs[t] * math.prod((counts[b, j] / N) ** expts[t, j] for j in range(counts.shape[1]))
            for t in range(coefs.shape[0])
        )
        assert got[b] == pytest.approx(want, abs=1e-12)


def test_empty_terms_give_zero():
    table = kernels.pow_table(10, 2)
    counts = np.array([[4, 6]], dtype=np.int64)
    probs = kernels.eval_probs(counts, table, np.zeros(0), np.zeros((0, 2), dtype=np.int64))
    assert probs.tolist() == [0.0]


def test_pow_table():
    t = kernels.pow_table(8, 3)
    assert t.shape == (9, 4)
    assert t[0, 0] == 1.0
    assert t[4, 1] == 0.5
    assert t[4, 3] == pytest.approx(0.125)


def test_scaled_scores_match_dot():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 10, size=(50, 4)).astype(np.int64)
    values = rng.random(4)
    got = kernels.scaled_scores(counts, values)
    assert np.allclose(got, counts @ values)


class TestCompositionBlocks:
    @pytest.mark.parametrize("N,k", [(0, 1), (5, 1), (7, 2), (6, 3), (5, 4), (3, 5)])
    def test_complete_and_lexicographic(self, N, k):
        rows = np.concatenate(list(kernels.iter_composition_blocks(N, k)), axis=0)
        assert rows.shape == (math.comb(N + k - 1, k - 1), k)
        assert (rows.sum(axis=1) == N).all()
        as_tuples = [tuple(r) for r in rows]
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)

    def test_chunking_preserves_order(self):
        all_at_once = np.concatenate(list(kernels.iter_composition_blocks(30, 3)), axis=0)
        chunked = np.concatenate(list(kernels.iter_composition_blocks(30, 3, chunk=7)), axis=0)
        assert np.array_equal(all_at_once, chunked)

