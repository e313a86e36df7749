import itertools
import math

import numpy as np
import pytest

from orderbound import kernels


def _reference_pow_table(N, max_exp):
    """table[c, e] = (c / N) ** e for every count c, built column by column
    by repeated multiplication: the tests' own reference for the powers of
    c / N, independent of ``kernels.pow_table``."""
    base = np.arange(N + 1, dtype=np.float64) / N
    table = np.empty((N + 1, max_exp + 1))
    table[:, 0] = 1.0
    for e in range(1, max_exp + 1):
        table[:, e] = table[:, e - 1] * base
    return table


def _random_instance(rng):
    N = int(rng.integers(4, 300))
    k = int(rng.integers(1, 7))
    T = int(rng.integers(0, 40))
    maxe = int(rng.integers(1, 7))
    counts = rng.multinomial(N, np.ones(k) / k, size=128).astype(np.int64)
    coefs = rng.random(T) * 20
    expts = rng.integers(0, maxe + 1, size=(T, k)).astype(np.int64)
    return counts, N, coefs, expts


def test_eval_probs_against_direct_formula():
    rng = np.random.default_rng(7)
    counts, N, coefs, expts = _random_instance(rng)
    got = kernels.eval_probs(counts, N, coefs, expts)
    for b in range(0, counts.shape[0], 17):
        want = sum(
            coefs[t] * math.prod((counts[b, j] / N) ** expts[t, j] for j in range(counts.shape[1]))
            for t in range(coefs.shape[0])
        )
        assert got[b] == pytest.approx(want, abs=1e-12)


def _eval_probs_per_term(counts, N, coefs, expts):
    """The kernel as a plain per-term loop: one product per term over all
    k atoms, exponent-zero factors included, summed in member order, with
    every factor gathered from ``_reference_pow_table``."""
    B, k = counts.shape
    table = _reference_pow_table(N, int(expts.max(initial=0)))
    acc = np.zeros(B)
    for t in range(coefs.shape[0]):
        term = np.full(B, coefs[t])
        for j in range(k):
            term = term * table[counts[:, j], expts[t, j]]
        acc = acc + term
    return acc


@pytest.mark.parametrize("seed", range(40))
def test_eval_probs_bitwise_equals_per_term_loop(seed):
    rng = np.random.default_rng(seed)
    counts, N, coefs, expts = _random_instance(rng)
    # zero out a share of the exponents, whole rows included
    expts[rng.random(expts.shape) < 0.4] = 0
    if expts.shape[0] > 1:
        expts[0] = 0
    got = kernels.eval_probs(counts, N, coefs, expts)
    assert np.array_equal(got, _eval_probs_per_term(counts, N, coefs, expts))


@pytest.mark.parametrize("N,k", [(200, 3), (1000, 3), (59, 5)])
def test_eval_probs_bitwise_on_scan_rows(N, k):
    # enumerated blocks (uint8 at N <= 255, uint16 above) and the int64
    # rows of a refinement neighbourhood
    from orderbound.oracle import _neighbor_radius, _neighborhood, _zero_sum_offsets

    rng = np.random.default_rng(N + k)
    T = 12
    expts = rng.integers(0, 4, size=(T, k)).astype(np.int64)
    expts[0] = 0
    coefs = rng.random(T) * 20
    block = next(iter(kernels.iter_composition_blocks(N, k)))
    assert block.dtype == (np.uint8 if N <= 255 else np.uint16)
    centres = np.array([rng.multinomial(N, np.ones(k) / k) for _ in range(5)])
    values = np.linspace(0.0, 1.0, k)
    offsets = _zero_sum_offsets(k, _neighbor_radius(k))
    near = _neighborhood(centres, k, values, kernels.scaled_scores(offsets, values), math.inf)
    assert near.dtype == np.int64 and (near.sum(axis=1) == N).all()
    for counts in (block, near):
        got = kernels.eval_probs(counts, N, coefs, expts)
        assert np.array_equal(got, _eval_probs_per_term(counts, N, coefs, expts))


def test_eval_probs_no_terms_bitwise():
    rng = np.random.default_rng(11)
    counts, N, _, _ = _random_instance(rng)
    k = counts.shape[1]
    coefs, expts = np.zeros(0), np.zeros((0, k), dtype=np.int64)
    got = kernels.eval_probs(counts, N, coefs, expts)
    assert np.array_equal(got, _eval_probs_per_term(counts, N, coefs, expts))
    assert got.shape == (counts.shape[0],)


def test_empty_terms_give_zero():
    counts = np.array([[4, 6]], dtype=np.int64)
    probs = kernels.eval_probs(counts, 10, np.zeros(0), np.zeros((0, 2), dtype=np.int64))
    assert probs.tolist() == [0.0]


def test_pow_table():
    # powers from exponent 1, the first the base itself, over a base of any
    # shape; on the steps c / N they are the reference table's columns
    # 1..max_exp, bit for bit
    N = 8
    for max_exp in (0, 1, 3, 6):
        base = np.arange(N + 1) / N
        t = kernels.pow_table(base, max_exp)
        assert len(t) == max_exp
        if max_exp:
            assert t[0] is base
        assert np.array_equal(np.array(t).reshape(max_exp, N + 1).T,
                              _reference_pow_table(N, max_exp)[:, 1:])
        rng = np.random.default_rng(max_exp)
        masses = rng.dirichlet(np.ones(5), size=3)
        masses[0, 2] = 0.0
        stack = kernels.pow_table(masses, max_exp)
        want = np.ones_like(masses)
        for power in stack:
            assert power.shape == (3, 5) and power.dtype == np.float64
            want = want * masses
            assert np.array_equal(power, want)
    assert [p[0] for p in kernels.pow_table(np.array([0.5]), 3)] == [0.5, 0.25, 0.125]


def test_scaled_scores_match_dot():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 10, size=(50, 4)).astype(np.int64)
    values = rng.random(4)
    got = kernels.scaled_scores(counts, values)
    assert np.allclose(got, counts @ values)


class TestMultisets:
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_itertools_reference(self, m, n):
        got = kernels.multisets(m, n)
        want = list(itertools.combinations_with_replacement(range(m), n))
        assert got.dtype == np.min_scalar_type(m - 1)
        assert got.shape == (len(want), n)
        assert [tuple(r) for r in got.tolist()] == want

    @pytest.mark.parametrize("m,dtype", [(256, np.uint8), (257, np.uint16), (1001, np.uint16)])
    def test_rows_take_the_smallest_unsigned_dtype(self, m, dtype):
        rows = kernels.multisets(m, 2)
        assert rows.dtype == dtype
        assert rows.shape == (math.comb(m + 1, 2), 2)
        assert rows[-1].tolist() == [m - 1, m - 1]


class TestCompositionBlocks:
    @pytest.mark.parametrize("N,k", [(0, 1), (5, 1), (7, 2), (6, 3), (5, 4), (3, 5)])
    def test_complete_and_lexicographic(self, N, k):
        rows = np.concatenate(list(kernels.iter_composition_blocks(N, k)), axis=0)
        assert rows.shape == (math.comb(N + k - 1, k - 1), k)
        assert (rows.sum(axis=1) == N).all()
        as_tuples = [tuple(r) for r in rows]
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)

    def test_chunking_preserves_order(self, monkeypatch):
        all_at_once = np.concatenate(list(kernels.iter_composition_blocks(30, 3)), axis=0)
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
        chunked = list(kernels.iter_composition_blocks(30, 3))
        assert len(chunked) == -(-all_at_once.shape[0] // 7)
        assert np.array_equal(all_at_once, np.concatenate(chunked, axis=0))

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("N", [0, 1, 4, 9])
    @pytest.mark.parametrize("block_rows", [7, 1 << 14])
    def test_equals_itertools_reference(self, monkeypatch, N, k, block_rows):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
        got = [tuple(r) for b in kernels.iter_composition_blocks(N, k) for r in b.tolist()]
        assert got == list(_compositions(N, k))

    @pytest.mark.parametrize("N,k", [(30, 3), (12, 5), (59, 5), (1000, 3), (9, 8)])
    @pytest.mark.parametrize("block_rows", [7, 100, None])
    def test_blocks_never_exceed_chunk(self, monkeypatch, N, k, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
        cap = block_rows or 1 << 13
        sizes = [b.shape[0] for b in kernels.iter_composition_blocks(N, k)]
        # full blocks of exactly BLOCK_ROWS rows, then the remainder
        total = math.comb(N + k - 1, k - 1)
        assert sizes == [cap] * (total // cap) + ([total % cap] if total % cap else [])


class TestBlockMemo:
    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        kernels._simplex.cache_clear()
        yield
        kernels._simplex.cache_clear()

    def test_second_call_yields_the_same_arrays(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 1000)
        first = list(kernels.iter_composition_blocks(100, 3))
        second = list(kernels.iter_composition_blocks(100, 3))
        assert len(first) == len(second) > 1
        # every block of both calls is a view of one kept simplex
        base = first[0].base
        assert base is kernels._simplex(100, 3)
        assert all(a.base is base and b.base is base for a, b in zip(first, second))

    @pytest.mark.parametrize("N,k", [(0, 1), (9, 1), (59, 5), (200, 2), (1000, 3)])
    def test_blocks_are_read_only_narrow_and_column_major(self, N, k):
        for block in kernels.iter_composition_blocks(N, k):
            assert block.dtype == np.min_scalar_type(N)
            # eval_probs reads each column in place; a row slice of a
            # Fortran-order array is not f_contiguous as a whole
            assert all(block[:, j].flags.c_contiguous for j in range(k))
            with pytest.raises(ValueError):
                block[0, 0] = 1

    def test_keeps_the_four_most_recent_keys(self):
        first = {N: kernels._simplex(N, 3) for N in range(6)}
        list(kernels.iter_composition_blocks(2, 3))  # now most recent
        list(kernels.iter_composition_blocks(6, 3))  # evicts 3, the least recent
        assert kernels._simplex.cache_info().currsize == 4
        # kept keys first: looking them up evicts nothing
        for N in (4, 5, 2):
            again = list(kernels.iter_composition_blocks(N, 3))
            assert all(b.base is first[N] for b in again), N
        for N in (3, 0):
            again = list(kernels.iter_composition_blocks(N, 3))
            assert not any(b.base is first[N] for b in again), N
            assert np.array_equal(first[N], np.concatenate(again))


def _floor_cases():
    """(N, values) for every simplex the oracle-dense and oracle-c2f
    benchmarks scan (N = 1000 on k <= 3 atoms, the coarse-to-fine n0 on
    k = 5), on the unit grid, its extreme shifts by -2 and +2, a negative
    grid and the wide grid of ``--s-max 999``."""
    from orderbound.oracle import OracleConfig, _schedule

    n0 = _schedule(5, OracleConfig())[0]
    grids = [(0.0, 1.0, 5), (-2.0, -1.0, 5), (2.0, 3.0, 5), (-2.5, 0.75, 5), (0.0, 999.0, 1000)]
    for s_min, s_max, m in grids:
        points = np.linspace(s_min, s_max, m)
        # the lowest, a spread and the highest atoms of each size
        cases = [(1000, atoms) for atoms in
                 ([0], [m - 1], [0, m - 1], [1, 3], [0, 2, 3], [2, 3, 4], [0, 1, 4])]
        cases.append((n0, [0, 1, 2, 3, 4]))
        if m > 5:
            cases += [(1000, [0, 300, 999]), (n0, [0, 1, 500, 998, 999])]
        for N, atoms in cases:
            yield pytest.param(N, points[atoms], id=f"{N}-[{s_min},{s_max}]-{','.join(map(str, atoms))}")


def _boxes(N, k):
    """The rows of ``iter_composition_blocks(N, k)`` in boxes of
    ``kernels.BOX_ROWS`` rows counted from the first row, whatever the
    blocks are."""
    rows = np.concatenate(list(kernels.iter_composition_blocks(N, k)))
    return np.split(rows, range(kernels.BOX_ROWS, rows.shape[0], kernels.BOX_ROWS))


class TestCompositionFloors:
    @pytest.mark.parametrize("N,values", list(_floor_cases()))
    def test_floor_is_at_most_every_computed_score(self, N, values):
        k = values.size
        floors = kernels.composition_floors(N, k, values)
        boxes = _boxes(N, k)
        assert floors.shape == (len(boxes),)
        lows = np.array([kernels.scaled_scores(b, values).min() for b in boxes])
        assert (floors <= lows).all()

    @pytest.mark.parametrize("block_rows,box_rows", [(500, 512), (7, 512), (1 << 20, 512),
                                                     (500, 7), (7, 500), (1 << 13, 1 << 20)])
    def test_floors_line_up_with_the_boxes_whatever_the_blocks(self, monkeypatch, block_rows,
                                                               box_rows):
        values = np.array([-2.0, -1.75, -1.0])
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(kernels, "BOX_ROWS", box_rows)
        floors = kernels.composition_floors(200, 3, values)
        boxes = _boxes(200, 3)
        assert floors.shape == (-(-20_301 // box_rows),) == (len(boxes),)
        lows = np.array([kernels.scaled_scores(b, values).min() for b in boxes])
        assert (floors <= lows).all()

    def test_floor_is_the_box_minimum_less_the_margin(self, monkeypatch):
        # the whole simplex in one box: the box is the simplex, whose
        # least score puts all N on the lowest atom; the margin is
        # 8 * k * eps * N * max|v|
        monkeypatch.setattr(kernels, "BOX_ROWS", 1 << 20)
        values = np.array([2.0, 2.25, 2.5, 3.0])
        margin = 8 * 4 * np.finfo(np.float64).eps * 100 * 3.0
        assert kernels.composition_floors(100, 4, values).tolist() == [200.0 - margin]

    def test_box_points_are_kept_per_simplex(self, monkeypatch):
        # one table for each of the four simplices _simplex keeps
        assert kernels._box_points.cache_info().maxsize == 4
        assert kernels._simplex.cache_info().maxsize == 4
        kernels._box_points.cache_clear()
        kernels._floors.cache_clear()
        monkeypatch.setattr(kernels, "BOX_ROWS", 7)
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 5)
        bottom, top = kernels._box_points(30, 3, 7)
        for point in (bottom, top):
            assert point.dtype == np.int64 and not point.flags.writeable
            assert (point.sum(axis=1) == 30).all()
        first = kernels.composition_floors(30, 3, np.array([0.0, 1.0, 2.0]))
        assert kernels._box_points.cache_info().hits == 1
        # each point is its box's column minima plus the rest filled into
        # the lowest atoms first (bottom) or the highest first (top), each
        # up to the box's column maxima
        boxes = _boxes(30, 3)
        for point, atoms in ((bottom, (0, 1, 2)), (top, (2, 1, 0))):
            want = []
            for b in boxes:
                lo, hi = b.min(axis=0).tolist(), b.max(axis=0).tolist()
                left = 30 - sum(lo)
                for j in atoms:
                    take = min(left, hi[j] - lo[j])
                    lo[j] += take
                    left -= take
                want.append(lo)
            assert point.tolist() == want
        # the table does not depend on the values, so other increasing
        # values reuse it
        second = kernels.composition_floors(30, 3, np.array([0.0, 1.5, 2.0]))
        info = kernels._box_points.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        assert first.tolist() != second.tolist()
        # three more simplices are kept beside it; a fifth drops the least
        # recently used, and the box size is part of the key
        for N in (31, 32, 33):
            kernels._box_points(N, 3, 7)
        assert kernels._box_points(30, 3, 7)[0] is bottom
        kernels._box_points(34, 3, 7)
        assert kernels._box_points.cache_info().currsize == 4
        assert kernels._box_points(30, 3, 7)[0] is bottom
        assert kernels._box_points(31, 3, 7)[0] is not kernels._box_points(31, 3, 8)[0]

    @pytest.mark.parametrize("values", [[0.0, 0.0, 1.0], [0.0, 1.0, 0.5], [1.0, 0.5, 0.0]])
    def test_values_that_do_not_strictly_increase_are_refused(self, values):
        # the bottom-greedy point fills the lowest atoms first, a floor only
        # when they are the lowest-valued ones
        with pytest.raises(ValueError, match="strictly increasing"):
            kernels.composition_floors(30, 3, np.array(values))
        assert kernels.composition_floors(30, 1, np.array([-1.0])).tolist() == [
            -30.0 - 8 * np.finfo(np.float64).eps * 30]


def _ceiling_cases():
    """(grid, sample, order, full support?) for up-closed member terms on
    every simplex the oracle-dense and oracle-c2f benchmarks scan: quantile
    calls on their refined supports (k <= 3 atoms, N = 1000) and calls on
    five atoms at the coarse-to-fine n0, on the grids of ``_floor_cases``."""
    from orderbound import LexiHigh, LexiLow, Quantile

    grids = [(0.0, 1.0, 5), (-2.0, -1.0, 5), (2.0, 3.0, 5), (-2.5, 0.75, 5), (0.0, 999.0, 1000)]
    for grid in grids:
        if grid[2] == 5:
            calls = [((1, 2, 3, 3), Quantile(1), False), ((1, 2, 3, 3), Quantile(3), False),
                     ((0, 4), Quantile(2), False), ((4,), Quantile(1), False),
                     ((1, 3), LexiHigh(), True), ((0, 2, 4), LexiLow(), True)]
        else:
            calls = [((300, 500), Quantile(1), False), ((0, 999), Quantile(2), False),
                     ((999,), Quantile(1), False), ((300, 500), LexiLow(), False)]
        for idx, order, full in calls:
            yield pytest.param(grid, idx, order, full,
                               id=f"{grid}-{order.name}-{','.join(map(str, idx))}-{full}")


class TestCompositionCeilings:
    @pytest.mark.parametrize("grid,idx,order,full", list(_ceiling_cases()))
    def test_ceiling_is_at_least_every_computed_probability(self, grid, idx, order, full):
        from orderbound import Sample, SupportGrid
        from orderbound.dist import full_support
        from orderbound.oracle import OracleConfig, _member_terms, _schedule, refined_support
        from orderbound.orders import enumerate_omega, upper_set

        x = Sample(SupportGrid(*grid), idx)
        atoms = (full_support(x.grid) if full else refined_support(x, order)).indices
        k = len(atoms)
        N = _schedule(k, OracleConfig())[0]
        assert (k <= 3) == (N == 1000)
        coefs, expts = _member_terms(upper_set(x, order, enumerate_omega(x.grid, x.n)), atoms)
        terms = kernels.Terms.of(coefs, expts)
        assert terms.up_closed
        ceilings = kernels.composition_ceilings(N, k, terms)
        boxes = _boxes(N, k)
        assert ceilings.shape == (len(boxes),)
        highs = np.array([kernels.eval_probs(b, N, coefs, expts).max() for b in boxes])
        assert (ceilings >= highs).all()
        # the first row puts all N on the top atom, probability exactly 1
        # (other rows may compute a bit above 1, and the ceiling covers them)
        assert boxes[0][0, -1] == N
        assert kernels.eval_probs(boxes[0][:1], N, coefs, expts).tolist() == [1.0]
        assert ceilings[0] >= 1.0

    @pytest.mark.parametrize("block_rows,box_rows", [(500, 512), (7, 500), (1 << 20, 512)])
    def test_ceilings_line_up_with_the_boxes_whatever_the_blocks(self, monkeypatch, block_rows,
                                                                 box_rows):
        # LexiHigh at x = (1, 3) on the five unit atoms, at the dense N = 60
        from orderbound import LexiHigh, Sample, SupportGrid
        from orderbound.oracle import _member_terms
        from orderbound.orders import enumerate_omega, upper_set

        x = Sample(SupportGrid(0.0, 1.0, 5), (1, 3))
        coefs, expts = _member_terms(upper_set(x, LexiHigh(), enumerate_omega(x.grid, 2)),
                                     tuple(range(5)))
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(kernels, "BOX_ROWS", box_rows)
        ceilings = kernels.composition_ceilings(60, 5, kernels.Terms.of(coefs, expts))
        boxes = _boxes(60, 5)
        assert ceilings.shape == (-(-635_376 // box_rows),) == (len(boxes),)
        highs = np.array([kernels.eval_probs(b, 60, coefs, expts).max() for b in boxes])
        assert (ceilings >= highs).all()
        assert (ceilings < 0.25).any() and (ceilings >= 0.25).any()

    def test_ceiling_is_the_top_point_times_the_factor(self, monkeypatch):
        # the whole simplex in one box: its top-greedy point puts all N on
        # the highest atom, probability exactly 1 under up-closed terms, and
        # the factor is 1 + 4 * (2n + T) * eps for n = 2, T = 3 terms
        monkeypatch.setattr(kernels, "BOX_ROWS", 1 << 20)
        coefs = np.array([2.0, 1.0, 1.0])
        expts = np.array([[0, 1, 1], [0, 2, 0], [0, 0, 2]])
        eps = np.finfo(np.float64).eps
        terms = kernels.Terms.of(coefs, expts)
        assert (terms.n, terms.ceiling_factor) == (2, 1 + 28 * eps)
        assert kernels.composition_ceilings(100, 3, terms).tolist() == [1 + 28 * eps]

    def test_terms_that_are_not_up_closed_can_exceed_the_top_point(self):
        # the negative control: pointwise at x = (0, 1) on two atoms is the
        # single member {0, 1}, 2 p (1 - p), which falls when mass moves up;
        # row c is (c, N - c), so the box that holds (500, 500), where the
        # maximum 1/2 is, has top point (b * BOX_ROWS, N - b * BOX_ROWS),
        # whose probability is below 1/2
        from orderbound import Pointwise, Sample, SupportGrid
        from orderbound.oracle import _member_terms
        from orderbound.orders import enumerate_omega, upper_set

        grid = SupportGrid(0.0, 1.0, 2)
        x = Sample(grid, (0, 1))
        coefs, expts = _member_terms(upper_set(x, Pointwise(x), enumerate_omega(grid, 2)), (0, 1))
        terms = kernels.Terms.of(coefs, expts)
        assert not terms.up_closed
        b = 500 // kernels.BOX_ROWS
        box = _boxes(1000, 2)[b]
        assert box[0].tolist() == kernels._box_points(1000, 2, kernels.BOX_ROWS)[1][b].tolist()
        raw = kernels.composition_ceilings(1000, 2, terms)[b]
        assert raw == kernels.eval_probs(box[:1], 1000, coefs, expts)[0] * terms.ceiling_factor
        assert raw < kernels.eval_probs(box, 1000, coefs, expts).max() == 0.5

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 3), (5, 2)])
    def test_up_closure_per_order(self, m, n):
        # on full and refined supports, for every sample: the lexicographic
        # and quantile orders are up-closed, the pointwise order is not
        # (n >= 2 and x off the all-top sample), nor is an empty polynomial
        from orderbound import LexiHigh, LexiLow, Pointwise, Quantile, SupportGrid
        from orderbound.dist import full_support
        from orderbound.oracle import _member_terms, refined_support
        from orderbound.orders import CustomTable, enumerate_omega, upper_set

        grid = SupportGrid(0.0, 1.0, m)
        omega = enumerate_omega(grid, n)
        reverse = CustomTable.from_ranking(list(omega)[::-1])
        for x in omega:
            for order in [LexiLow(), LexiHigh(), Pointwise(x), reverse] + [
                    Quantile(i) for i in range(1, n + 1)]:
                U = upper_set(x, order, omega)
                for support in (full_support(grid), refined_support(x, order)):
                    coefs, expts = _member_terms(U, support.indices)
                    got = kernels.Terms.of(coefs, expts).up_closed
                    assert got == _up_closed_reference(expts), (x.idx, order.name)
                    assert got == _up_closed_isin(expts), (x.idx, order.name)
                    if isinstance(order, (LexiLow, LexiHigh, Quantile)):
                        assert got, (x.idx, order.name)
                    if isinstance(order, Pointwise) and support.indices == tuple(range(m)):
                        assert got == (x.idx == (m - 1,) * n), x.idx
        assert not kernels.Terms.of(np.zeros(0), np.zeros((0, 3), dtype=np.int64)).up_closed
        assert not _up_closed_reference(np.zeros((0, 3), dtype=np.int64))
        assert not _up_closed_isin(np.zeros((0, 3), dtype=np.int64))


def _up_closed_term_sets():
    """The distinct member terms, on the five atoms of the five-point grid,
    of every built-in up-closed order (LexiHigh, LexiLow and each
    Quantile(i)) at every sample of size n <= 3."""
    from orderbound import LexiHigh, LexiLow, Quantile, SupportGrid
    from orderbound.oracle import _member_terms
    from orderbound.orders import enumerate_omega, upper_set

    grid = SupportGrid(0.0, 1.0, 5)
    found = {}
    for n in (1, 2, 3):
        omega = enumerate_omega(grid, n)
        for x in omega:
            for order in [LexiHigh(), LexiLow()] + [Quantile(i) for i in range(1, n + 1)]:
                U = upper_set(x, order, omega)
                terms = kernels.Terms.of(*_member_terms(U, tuple(range(5))))
                found.setdefault(terms.key, terms)
    return list(found.values())


class TestCompositionCutCeilings:
    @pytest.mark.parametrize("box_rows", [kernels.BOX_ROWS, 7])
    def test_cut_ceiling_is_at_least_every_row_under_the_cut(self, monkeypatch, box_rows):
        # N = 12 on five atoms: 1,820 rows, in boxes of BOX_ROWS rows and
        # of 7. Cuts: +inf, where the ceiling is composition_ceilings' one;
        # the final cut of a scan at alpha 0.25, the 24th feasible score;
        # and per box the score of its median row, a tie. The atoms:
        # five-point grids on [0, 1], [-1.5, 2], [1000, 1001], where N v_0
        # cancels, and [2**50, 2**50 + 1], where a score rounds by several
        # steps, so there the margin, not the + 1, keeps the bound; and
        # five atoms of the nine-point unit grid with falling and with
        # rising steps, as on a refined support, where a later budget can
        # exceed an earlier one
        monkeypatch.setattr(kernels, "BOX_ROWS", box_rows)
        N, k = 12, 5
        simplex = np.concatenate(list(kernels.iter_composition_blocks(N, k)))
        box = np.arange(simplex.shape[0]) // box_rows
        boxes = np.arange(box[-1] + 1)
        width = np.bincount(box)
        atom_sets = [np.linspace(lo, hi, k) for lo, hi in
                     [(0.0, 1.0), (-1.5, 2.0), (1000.0, 1001.0), (2.0 ** 50, 2.0 ** 50 + 1)]]
        atom_sets += [np.linspace(0.0, 1.0, 9)[list(atoms)]
                      for atoms in ((0, 4, 6, 7, 8), (0, 1, 2, 4, 8))]
        term_sets = _up_closed_term_sets()
        assert len(term_sets) == 97 and all(t.up_closed for t in term_sets)
        for values in atom_sets:
            lo = values[0]
            scores = kernels.scaled_scores(simplex, values)
            by_box = np.lexsort((scores, box))
            ties = scores[by_box[np.cumsum(width) - width + width // 2]]
            tighter = 0
            for terms in term_sets:
                probs = kernels.eval_probs(simplex, N, terms.coefs, terms.expts)
                final = np.sort(scores[probs >= 0.25])[23]
                top = kernels.composition_cut_ceilings(N, k, terms, values, math.inf, boxes)
                assert np.array_equal(top, kernels.composition_ceilings(N, k, terms))
                for cut in (math.inf, final, ties):
                    ceilings = kernels.composition_cut_ceilings(N, k, terms, values, cut, boxes)
                    under = scores <= np.broadcast_to(cut, boxes.shape)[box]
                    assert (probs[under] <= ceilings[box[under]]).all(), (lo, terms.key)
                    # every box's point is a composition, also where no row
                    # scores under the cut
                    assert (ceilings >= 0).all(), (lo, terms.key)
                    tighter += int((ceilings < top).sum())
            # the cut binds: many ceilings fall, except where the margin
            # spans every step
            assert (tighter == 0) == (lo == 2.0 ** 50), (lo, tighter)


def _up_closed_reference(expts):
    """Non-empty, and every row with a unit on atom j < k - 1 is still a
    row with that unit moved to atom j + 1, by Python sets of tuples."""
    rows = {tuple(r) for r in expts.tolist()}
    for r in rows:
        for j in range(len(r) - 1):
            if r[j] and tuple(r[:j]) + (r[j] - 1, r[j + 1] + 1) + tuple(r[j + 2:]) not in rows:
                return False
    return bool(rows)


def _up_closed_isin(expts):
    """The same test by ``np.isin`` over each row's bytes as one void key,
    the derivation the oracle used before ``Terms`` kept the answer."""
    if not expts.shape[0]:
        return False
    rows, atoms = np.nonzero(expts[:, :-1])
    moved = expts[rows]
    moved[np.arange(rows.size), atoms] -= 1
    moved[np.arange(rows.size), atoms + 1] += 1
    key = np.dtype((np.void, moved.itemsize * expts.shape[1]))
    return bool(np.isin(moved.view(key), np.ascontiguousarray(expts, moved.dtype).view(key)).all())


def _criterion_term_sets():
    """Member terms of every oracle call of the criterion 3, 4 and 7
    acceptance sweeps on the unit five-point grid (samples of sizes 1 to 4;
    Quantile(i), LexiLow, LexiHigh and Pointwise), on refined and on full
    supports."""
    from orderbound import LexiHigh, LexiLow, Pointwise, Quantile, SupportGrid
    from orderbound.dist import full_support
    from orderbound.oracle import _member_terms, refined_support
    from orderbound.orders import enumerate_omega, upper_set

    grid = SupportGrid(0.0, 1.0, 5)
    for n in (1, 2, 3, 4):
        omega = enumerate_omega(grid, n)
        for x in omega:
            for order in [LexiLow(), LexiHigh(), Pointwise(x)] + [
                    Quantile(i) for i in range(1, n + 1)]:
                U = upper_set(x, order, omega)
                for support in (refined_support(x, order), full_support(grid)):
                    yield x, order, _member_terms(U, support.indices)


class TestTerms:
    def test_up_closed_equals_the_isin_derivation_on_the_criterion_sweeps(self):
        from orderbound import Pointwise

        seen = 0
        for x, order, (coefs, expts) in _criterion_term_sets():
            got = kernels.Terms.of(coefs, expts).up_closed
            assert got == _up_closed_isin(expts), (x.idx, order.name)
            if not isinstance(order, Pointwise):
                assert got, (x.idx, order.name)
            elif expts.shape[1] == 5:
                assert got == (x.idx == (4,) * x.n), x.idx
            seen += 1
        assert seen == 2 * (5 * 4 + 15 * 5 + 35 * 6 + 70 * 7)

    def test_non_monotone_table_and_pointwise(self):
        # the reversed ranking's upper set of the all-bottom sample is that
        # sample alone, (2, 0, 0), which moving one draw up leaves; that of
        # the all-top sample is all of omega, an up-set; pointwise terms are
        # up-closed only at the all-top sample
        from orderbound import Pointwise, Sample, SupportGrid
        from orderbound.oracle import _member_terms
        from orderbound.orders import CustomTable, enumerate_omega, is_monotone, upper_set

        grid = SupportGrid(0.0, 1.0, 3)
        omega = enumerate_omega(grid, 2)
        reverse = CustomTable.from_ranking(list(omega)[::-1])
        assert not is_monotone(reverse, omega)
        for idx, order, want in [((0, 0), reverse, False), ((2, 2), reverse, True),
                                 ((0, 2), Pointwise(Sample(grid, (0, 2))), False),
                                 ((2, 2), Pointwise(Sample(grid, (2, 2))), True)]:
            x = Sample(grid, idx)
            coefs, expts = _member_terms(upper_set(x, order, omega), (0, 1, 2))
            assert kernels.Terms.of(coefs, expts).up_closed is want, idx
            assert _up_closed_isin(expts) is want, idx

    def test_fields(self):
        coefs = np.array([2.0, 1.0, 1.0])
        expts = np.array([[0, 1, 1], [0, 2, 0], [0, 0, 2]], dtype=np.int32)
        terms = kernels.Terms.of(coefs, expts)
        assert terms.tops == (0, 2, 2) and terms.n == 2 and terms.up_closed
        assert terms.plan == ((2.0, ((1, 0), (2, 0))), (1.0, ((1, 1),)), (1.0, ((2, 1),)))
        assert terms.expts.dtype == np.int64 and terms.coefs.dtype == np.float64
        assert not terms.coefs.flags.writeable and not terms.expts.flags.writeable
        # the same bytes give the same kept object, whatever the caller's
        # dtype; equality and hashing read the key alone
        again = kernels.Terms.of(coefs.copy(), expts.astype(np.int64))
        assert again is terms and hash(again) == hash(terms)
        other = kernels.Terms.of(coefs * 2, expts)
        assert other != terms and other.plan[0][0] == 4.0 and other.expts.tolist() == expts.tolist()
        # changing the caller's arrays afterwards does not reach the kept terms
        coefs[0] = 7.0
        assert terms.coefs.tolist() == [2.0, 1.0, 1.0]

    def test_equal_exponents_other_coefficients_alternately(self):
        # two polynomials with the same exponent rows, called in turn, each
        # get their own probabilities, bit for bit the reference loop's
        rng = np.random.default_rng(3)
        counts, N, coefs, expts = _random_instance(rng)
        while coefs.size == 0:
            counts, N, coefs, expts = _random_instance(rng)
        others = coefs[::-1] + 1.0
        want = [_eval_probs_per_term(counts, N, c, expts) for c in (coefs, others)]
        assert not np.array_equal(*want)
        for _ in range(3):
            for c, w in zip((coefs, others), want):
                assert np.array_equal(kernels.eval_probs(counts, N, c, expts), w)

    def test_kept_floors_and_ceilings_are_read_only_and_fresh(self):
        # equal exponent rows, other coefficients: each term set gets its
        # own ceilings, and each kept array equals one computed afresh
        coefs = np.array([2.0, 1.0, 1.0])
        expts = np.array([[0, 1, 1], [0, 2, 0], [0, 0, 2]])
        values = np.array([0.0, 0.25, 1.0])
        N, k = 120, 3
        top = kernels._box_points(N, k, kernels.BOX_ROWS)[1]
        for c in (coefs, coefs / 4, coefs, coefs / 4):
            terms = kernels.Terms.of(c, expts)
            ceilings = kernels.composition_ceilings(N, k, terms)
            assert not ceilings.flags.writeable
            fresh = kernels.eval_probs(top, N, c, expts) * terms.ceiling_factor
            assert np.array_equal(ceilings, fresh)
            assert kernels.composition_ceilings(N, k, terms) is ceilings
        for v in (values, values + 0.5, values):
            floors = kernels.composition_floors(N, k, v)
            assert not floors.flags.writeable
            fresh = kernels._floors.__wrapped__(N, k, kernels.BOX_ROWS, v.tobytes())
            assert np.array_equal(floors, fresh)
            assert kernels.composition_floors(N, k, v.copy()) is floors


def _compositions(N, k):
    """Compositions of N into k parts in lexicographic order, by stars and
    bars: increasing bar positions give increasing count vectors."""
    for bars in itertools.combinations(range(N + k - 1), k - 1):
        edges = (-1,) + bars + (N + k - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))
