import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from orderbound import (
    CustomTable,
    LexiHigh,
    LexiLow,
    Omega,
    Pointwise,
    Quantile,
    Sample,
    SupportGrid,
    UpperSet,
    enumerate_omega,
    homogeneous_sample,
    monotone_linear_extensions,
    upper_set,
)
from orderbound.orders import (
    EQUIVALENT,
    GREATER,
    LESS,
    RANKS_KEPT,
    EnumerationGuardError,
    Preorder,
    is_monotone,
    order_from_string,
)
from orderbound import orders
from orderbound.support import GridError

from conftest import count_linear_extensions


def _omega(m, n):
    return enumerate_omega(SupportGrid(0, 1, m), n)


class TestCompare:
    def test_lexi_low_first_stat_decides(self, unit3):
        assert LexiLow().compare(Sample(unit3, (0, 2)), Sample(unit3, (1, 1))) == LESS

    def test_lexi_high_last_stat_decides(self, unit3):
        assert LexiHigh().compare(Sample(unit3, (0, 2)), Sample(unit3, (1, 1))) == GREATER

    def test_quantile_tie(self, unit3):
        assert Quantile(1).compare(Sample(unit3, (0, 2)), Sample(unit3, (0, 1))) == EQUIVALENT

    def test_quantile_index_out_of_range(self, unit3):
        with pytest.raises(ValueError):
            Quantile(3).compare(Sample(unit3, (0, 1)), Sample(unit3, (0, 2)))

    def test_mismatched_inputs(self, unit2, unit3):
        with pytest.raises(GridError):
            LexiLow().compare(Sample(unit2, (0,)), Sample(unit3, (0,)))

    def test_pointwise_classes(self, unit2):
        top = Sample(unit2, (0, 0))
        order = Pointwise(top)
        other, another = Sample(unit2, (0, 1)), Sample(unit2, (1, 1))
        assert order.compare(top, other) == GREATER
        assert order.compare(other, top) == LESS
        assert order.compare(other, another) == EQUIVALENT

    def test_custom_table_missing_sample(self, unit2):
        order = CustomTable({Sample(unit2, (0, 0)): 0})
        with pytest.raises(ValueError):
            order.compare(Sample(unit2, (0, 0)), Sample(unit2, (1, 1)))

    def test_quantile_less_implies_lexi_low_less(self, unit2):
        for x, y in itertools.permutations(enumerate_omega(unit2, 2), 2):
            if Quantile(1).compare(x, y) == LESS:
                assert LexiLow().compare(x, y) == LESS

    def test_large_n_without_enumerating(self):
        grid = SupportGrid(0, 1, 3)
        x = Sample(grid, (0,) * 999 + (2,))
        y = Sample(grid, (0,) * 998 + (1, 1))
        assert LexiLow().compare(x, y) == LESS
        assert LexiHigh().compare(x, y) == GREATER
        assert Quantile(1000).compare(x, y) == GREATER
        assert Quantile(999).compare(x, y) == LESS
        assert Quantile(1).compare(x, y) == EQUIVALENT


def _builtin_orders(n):
    orders = [LexiLow(), LexiHigh()]
    orders += [Quantile(i) for i in range(1, n + 1)]
    return orders


@pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3) for n in (1, 2, 3)])
def test_total_preorder_axioms_exhaustive(m, n):
    """Totality, antisymmetry of the comparison result, and transitivity
    of below-or-equivalent, for every built-in comparator."""
    omega = _omega(m, n)
    orders = _builtin_orders(n) + [Pointwise(omega[-1])]
    for order in orders:
        for x, y in itertools.product(omega, repeat=2):
            r = order.compare(x, y)
            assert r in (LESS, EQUIVALENT, GREATER)
            assert r == -order.compare(y, x)
        for x, y, z in itertools.product(omega, repeat=3):
            if order.leq(x, y) and order.leq(y, z):
                assert order.leq(x, z)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3)])
def test_lexi_orders_are_total(m, n):
    omega = _omega(m, n)
    for order in (LexiLow(), LexiHigh()):
        for x, y in itertools.combinations(omega, 2):
            assert order.compare(x, y) != EQUIVALENT


class TestEnumerate:
    def test_counts(self):
        assert [s.idx for s in _omega(2, 2)] == [(0, 0), (0, 1), (1, 1)]
        assert len(_omega(3, 1)) == 3
        assert len(_omega(3, 2)) == math.comb(4, 2)

    def test_canonical_order(self):
        omega = _omega(3, 2)
        assert [s.idx for s in omega] == sorted(s.idx for s in omega)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_idx_equals_itertools_reference(self, m, n):
        want = list(itertools.combinations_with_replacement(range(m), n))
        omega = enumerate_omega(SupportGrid(0, 1, m), n)
        assert omega.idx.dtype == np.int64
        assert [tuple(r) for r in omega.idx.tolist()] == want

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            enumerate_omega(SupportGrid(0, 1, 100), 5)

    def test_arrays(self):
        omega = _omega(3, 2)
        assert isinstance(omega, Omega)
        assert omega.idx.tolist() == [list(s.idx) for s in omega]
        assert omega.runs.tolist() == [[2, 0], [1, 1], [1, 1], [2, 0], [1, 1], [2, 0]]
        assert omega.runs.dtype == np.uint8
        assert omega.coefs.tolist() == [1.0, 2.0, 2.0, 1.0, 2.0, 1.0]
        for arr in (omega.idx, omega.runs, omega.coefs):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 3), (4, 4)])
    def test_coefs_are_exact_multinomials(self, m, n):
        for x, coef in zip(_omega(m, n), _omega(m, n).coefs.tolist()):
            want = math.factorial(n)
            for j in set(x.idx):
                want //= math.factorial(x.idx.count(j))
            assert coef == float(want)

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 3), (5, 4), (6, 1)])
    def test_runs_are_the_multiplicities(self, m, n):
        # the nonzero run lengths are the multiplicities of the distinct
        # indices in ascending order, each at its run's first column
        omega = _omega(m, n)
        assert omega.runs.shape == (len(omega), n)
        for x, runs in zip(omega, omega.runs.tolist()):
            starts = [s for s in range(n) if s == 0 or x.idx[s] != x.idx[s - 1]]
            assert [runs[s] for s in starts] == [x.idx.count(x.idx[s]) for s in starts]
            assert sum(runs) == n and runs.count(0) == n - len(starts)

    def test_sequence_behaviour(self):
        omega = _omega(3, 2)
        assert len(omega) == 6
        assert omega[1] == Sample(SupportGrid(0, 1, 3), (0, 1))
        assert omega[-1].idx == (2, 2)
        assert omega[1] in omega and Sample(SupportGrid(0, 1, 4), (0, 1)) not in omega
        assert omega.position(omega[4]) == 4

    def test_one_sample_space_per_grid_and_size(self, unit3):
        # Omega is built from (grid, n) alone: always the whole sample
        # space, int64 rows from the multiset enumerator
        omega = Omega(unit3, 2)
        assert omega.idx.dtype == np.int64
        assert omega.idx.tolist() == _omega(3, 2).idx.tolist() == [
            [0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]]
        assert omega.coefs.tolist() == [1.0, 2.0, 2.0, 1.0, 2.0, 1.0]
        assert not (omega.idx.flags.writeable or omega.runs.flags.writeable
                    or omega.coefs.flags.writeable)
        with pytest.raises(ValueError, match="n >= 1"):
            Omega(unit3, 0)
        with pytest.raises(TypeError):
            omega[:2]

    def test_guard_fires_before_any_row_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(orders.kernels, "multisets", lambda m, n: built.append((m, n)))
        # C(1000 + 3 - 1, 3) = 167,167,000 samples
        with pytest.raises(EnumerationGuardError, match="167167000 elements"):
            Omega(SupportGrid(0, 1, 1000), 3)
        assert built == []

    def test_enumeration_builds_no_samples(self, monkeypatch):
        built = []
        check = Sample.__post_init__
        monkeypatch.setattr(Sample, "__post_init__", lambda s: (built.append(s.idx), check(s))[1])
        enumerate_omega.cache_clear()
        omega = enumerate_omega(SupportGrid(0, 1, 20), 4)
        assert len(omega) == 8855 and built == []
        assert omega[19].idx == (0, 0, 0, 19) and built == [(0, 0, 0, 19)]

    def test_componentwise_guard_fires_before_allocating(self, monkeypatch):
        omega = _omega(3, 3)  # 10 samples
        monkeypatch.setattr(orders, "COMPONENTWISE_MAX_ENTRIES", 99)
        with pytest.raises(EnumerationGuardError, match="10 x 10"):
            omega.componentwise_leq()
        monkeypatch.setattr(orders, "COMPONENTWISE_MAX_ENTRIES", 100)
        assert omega.componentwise_leq().shape == (10, 10)

    def test_coefficient_overflow_is_a_guard_error(self):
        with pytest.raises(EnumerationGuardError, match="double range"):
            enumerate_omega(SupportGrid(0, 1, 2), 1100)


class TestRank:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (4, 3)])
    def test_rank_matches_compare(self, m, n):
        omega = _omega(m, n)
        for order in _builtin_orders(n) + [Pointwise(omega[1])]:
            rank = order.rank(omega.idx)
            assert rank.dtype == np.int64 and rank.shape == (len(omega),)
            rank = rank.tolist()
            for (a, x), (b, y) in itertools.product(enumerate(omega), repeat=2):
                assert order.compare(x, y) == (rank[a] > rank[b]) - (rank[a] < rank[b])

    def test_lexi_ranks_on_omega(self):
        omega = _omega(3, 2)
        assert LexiLow().rank(omega.idx).tolist() == list(range(6))
        # rows read from the largest statistic: 00, 10, 20, 11, 21, 22
        assert LexiHigh().rank(omega.idx).tolist() == [0, 1, 3, 2, 4, 5]

    def test_quantile_and_pointwise(self):
        omega = _omega(3, 2)
        assert Quantile(2).rank(omega.idx).tolist() == [0, 1, 2, 1, 2, 2]
        assert Pointwise(omega[3]).rank(omega.idx).tolist() == [0, 0, 0, 1, 0, 0]

    def test_pointwise_rejects_rows_of_another_size(self):
        order = Pointwise(_omega(3, 2)[3])
        with pytest.raises(ValueError, match="size 3"):
            order.rank(_omega(3, 3).idx)

    def test_custom_table_lookup(self):
        omega = _omega(2, 2)
        order = CustomTable.from_ranking([omega[2], omega[0], omega[1]])
        assert order.rank(omega.idx).tolist() == [1, 2, 0]


class TestPosition:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_every_row_of_every_complete_omega(self, m):
        for n in range(1, 6):
            omega = _omega(m, n)
            assert [omega.position(x) for x in omega] == list(range(len(omega)))

    def test_first_middle_and_last_rows_at_m_1000(self):
        grid = SupportGrid(0, 1, 1000)
        omega = enumerate_omega(grid, 2)
        rows = []
        for a, b in [(0, 0), (293, 321), (999, 999)]:
            # the m - v samples whose first index is v, for each v < a
            rows.append(sum(1000 - v for v in range(a)) + b - a)
            assert omega.idx[rows[-1]].tolist() == [a, b]
            assert omega.position(Sample(grid, (a, b))) == rows[-1]
        assert rows == [0, len(omega) // 2, len(omega) - 1]

    def test_samples_of_another_grid_or_size_are_absent(self, unit3):
        omega = _omega(3, 2)
        for x in (Sample(SupportGrid(0, 1, 4), (0, 1)), Sample(SupportGrid(0, 1, 4), (0, 3)),
                  Sample(SupportGrid(0, 2, 3), (0, 1)), Sample(unit3, (0, 1, 1))):
            with pytest.raises(ValueError, match="does not contain"):
                omega.position(x)


class TestRankReuse:
    def test_kept_vector_is_the_orders_rank(self):
        omega = _omega(4, 3)
        table = CustomTable.from_ranking(list(omega)[::-1])
        for order in [LexiLow(), LexiHigh(), Quantile(1), Quantile(2), Quantile(3),
                      Pointwise(omega[5]), table]:
            kept = omega.ranks(order)
            assert not kept.flags.writeable and kept.dtype == np.int64
            assert kept.tolist() == order.rank(omega.idx).tolist()
            assert omega.ranks(order) is kept

    def test_equal_orders_share_one_vector(self):
        omega = _omega(3, 2)
        assert LexiLow() == LexiLow() and hash(LexiLow()) == hash(LexiLow())
        assert LexiHigh() == LexiHigh() and hash(LexiHigh()) == hash(LexiHigh())
        assert LexiLow() != LexiHigh()
        assert omega.ranks(LexiLow()) is omega.ranks(LexiLow())
        assert omega.ranks(LexiHigh()).tolist() == [0, 1, 3, 2, 4, 5]
        assert omega.ranks(Quantile(2)) is omega.ranks(Quantile(2))

    def test_each_omega_keeps_the_most_recent_orders(self):
        calls = []

        class Counting(Pointwise):
            def rank(self, idx):
                calls.append(self.top.idx)
                return super().rank(idx)

        omega = _omega(3, 3)
        tops = [Counting(x) for x in omega]  # 10 distinct orders
        assert RANKS_KEPT == 8
        for order in tops[:8]:
            omega.ranks(order)
        omega.ranks(tops[0])  # kept, and now the most recent
        assert len(calls) == 8
        omega.ranks(tops[8])  # a ninth drops the least recent, tops[1]
        for order in [tops[0], *tops[2:9]]:
            omega.ranks(order)
        assert len(calls) == 9
        omega.ranks(tops[1])
        assert calls[-1] == omega[1].idx and len(calls) == 10

    def test_unhashable_orders_are_ranked_on_every_call(self, unit3):
        @dataclass
        class Column(Preorder):
            s: int
            calls: int = 0

            def rank(self, idx):
                self.calls += 1
                return idx[:, self.s].astype(np.int64)

        omega = _omega(3, 2)
        order = Column(1)
        for x in omega:
            assert upper_set(x, order, omega).mask.tolist() == \
                upper_set(x, Quantile(2), omega).mask.tolist()
        assert order.calls == len(omega)

    def test_custom_tables_hash_by_their_table(self):
        exts = monotone_linear_extensions(_omega(3, 3))
        assert len(exts) == 12 and len({hash(T) for T in exts}) == 12
        pair = monotone_linear_extensions(_omega(3, 2))
        assert len(pair) == 2 and hash(pair[0]) != hash(pair[1])
        again = CustomTable(dict(reversed(list(exts[0].ranks.items()))))
        assert again == exts[0] and hash(again) == hash(exts[0])
        assert len({exts[0], again, *exts}) == 12


class TestUpperSet:
    def test_pointwise_singleton(self, unit2):
        omega = enumerate_omega(unit2, 2)
        x = Sample(unit2, (0, 1))
        u = upper_set(x, Pointwise(x), omega)
        assert u.member_set() == {(0, 1)}

    def test_lexi_low_top_sample(self, unit2):
        omega = enumerate_omega(unit2, 2)
        u = upper_set(Sample(unit2, (1, 1)), LexiLow(), omega)
        assert u.member_set() == {(1, 1)}

    def test_base_included(self, unit3):
        omega = enumerate_omega(unit3, 2)
        for x in omega:
            assert x.idx in upper_set(x, LexiHigh(), omega).member_set()

    def test_omega_must_contain_base(self, unit3):
        omega = enumerate_omega(unit3, 2)
        for x in (Sample(SupportGrid(0, 1, 4), (1, 2)), Sample(unit3, (1, 2, 2))):
            with pytest.raises(ValueError, match="does not contain"):
                upper_set(x, LexiLow(), omega)

    def test_mask_members_and_containment(self, unit3):
        omega = enumerate_omega(unit3, 2)
        u = upper_set(omega[2], LexiHigh(), omega)
        assert u.mask.tolist() == [False, False, True, False, True, True]
        assert u.omega is omega and not u.mask.flags.writeable
        assert [s.idx for s in u.members] == [(0, 2), (1, 2), (2, 2)]
        assert len(u) == 3
        assert omega[4] in u and omega[3] not in u
        assert Sample(SupportGrid(0, 1, 4), (0, 2)) not in u

    def test_upper_set_hands_over_its_mask(self, unit3, monkeypatch):
        omega = enumerate_omega(unit3, 2)
        given = []
        real = orders.UpperSet
        monkeypatch.setattr(orders, "UpperSet", lambda *args: given.append(args[3]) or real(*args))
        u = upper_set(omega[2], LexiHigh(), omega)
        assert u.mask is given[0] and not u.mask.flags.writeable

    def test_caller_masks_are_copied(self, unit3):
        omega = enumerate_omega(unit3, 2)
        x, order = omega[2], LexiHigh()
        want = [False, False, True, False, True, True]
        mine = np.array(want)
        u = UpperSet(x, order, omega, mine)
        mine[:] = True  # the caller's writable array changes; the upper set does not
        assert u.mask.tolist() == want and not u.mask.flags.writeable
        ints = UpperSet(x, order, omega, [0, 0, 1, 0, 1, 1])
        assert ints.mask.dtype == bool and ints.mask.tolist() == want
        # a read-only view of a writable array is copied too
        base = np.array(want)
        view = base.view()
        view.flags.writeable = False
        v = UpperSet(x, order, omega, view)
        base[:] = False
        assert v.mask.tolist() == want
        frozen = np.array(want)
        frozen.flags.writeable = False
        assert UpperSet(x, order, omega, frozen).mask is frozen
        for bad in (frozen[:5], np.ones((6, 1), dtype=bool)):
            with pytest.raises(ValueError, match="one entry per sample"):
                UpperSet(x, order, omega, bad)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_lexi_low_equiv_at_homogeneous(self, m, n):
        """At a homogeneous base the low-lexicographic upper set is exactly
        the componentwise upper set."""
        grid = SupportGrid(0, 1, m)
        omega = enumerate_omega(grid, n)
        for i in range(m):
            si = homogeneous_sample(grid, i, n)
            got = upper_set(si, LexiLow(), omega).member_set()
            want = {y.idx for y in omega if all(a <= b for a, b in zip(si.idx, y.idx))}
            assert got == want

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_lexi_high_equiv_at_homogeneous(self, m, n):
        """Membership iff the sample is the base itself or its largest
        component exceeds the base value."""
        grid = SupportGrid(0, 1, m)
        omega = enumerate_omega(grid, n)
        for i in range(m):
            si = homogeneous_sample(grid, i, n)
            got = upper_set(si, LexiHigh(), omega).member_set()
            want = {y.idx for y in omega if y.idx == si.idx or y.idx[-1] > i}
            assert got == want

    def test_equivalent_samples_share_upper_sets(self, unit3):
        omega = enumerate_omega(unit3, 2)
        order = Quantile(1)
        for x, y in itertools.combinations(omega, 2):
            if order.compare(x, y) == EQUIVALENT:
                assert (
                    upper_set(x, order, omega).member_set()
                    == upper_set(y, order, omega).member_set()
                )


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3)])
def test_sandwich_inclusions(m, n):
    """Every monotone total order traps the homogeneous upper sets between
    the two lexicographic ones."""
    grid = SupportGrid(0, 1, m)
    omega = enumerate_omega(grid, n)
    for T in monotone_linear_extensions(omega):
        for i in range(m):
            si = homogeneous_sample(grid, i, n)
            low = upper_set(si, LexiLow(), omega).member_set()
            mid = upper_set(si, T, omega).member_set()
            high = upper_set(si, LexiHigh(), omega).member_set()
            assert low <= mid <= high


class TestMonotone:
    def test_lexi_orders_monotone(self):
        for m, n in [(2, 2), (3, 2), (3, 3)]:
            omega = _omega(m, n)
            assert is_monotone(LexiLow(), omega)
            assert is_monotone(LexiHigh(), omega)

    def test_corrupted_table_not_monotone(self, unit2):
        omega = enumerate_omega(unit2, 2)
        ranking = [omega[2], omega[1], omega[0]]  # reverses [0,0] and [1,1]
        assert not is_monotone(CustomTable.from_ranking(ranking), omega)


class TestExtensions:
    def test_chain_has_one_extension(self):
        assert len(monotone_linear_extensions(_omega(2, 2))) == 1
        assert len(monotone_linear_extensions(_omega(3, 1))) == 1

    def test_count_matches_independent_counter(self):
        omega = _omega(3, 2)
        pairs = {
            (i, j)
            for i, x in enumerate(omega)
            for j, y in enumerate(omega)
            if i != j and all(a <= b for a, b in zip(x.idx, y.idx))
        }
        want = count_linear_extensions(len(omega), pairs)
        got = monotone_linear_extensions(omega)
        assert len(got) == want
        assert all(is_monotone(T, omega) for T in got)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_idx_equals_itertools_reference(self, m, n):
        want = list(itertools.combinations_with_replacement(range(m), n))
        omega = enumerate_omega(SupportGrid(0, 1, m), n)
        assert omega.idx.dtype == np.int64
        assert [tuple(r) for r in omega.idx.tolist()] == want

    def test_guard(self):
        # 41,526 extensions on 20 samples
        with pytest.raises(EnumerationGuardError, match="1000"):
            monotone_linear_extensions(_omega(4, 3))

    def test_guard_counts_extensions_not_samples(self):
        # 301 samples forming one chain have a single extension
        omega = _omega(2, 300)
        (only,) = monotone_linear_extensions(omega)
        assert only.rank(omega.idx).tolist() == list(range(len(omega)))
        with pytest.raises(EnumerationGuardError):
            monotone_linear_extensions(_omega(4, 2), max_extensions=11)
        assert len(monotone_linear_extensions(_omega(4, 2), max_extensions=12)) == 12

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 9) for n in range(1, 8)
                                     if math.comb(m + n - 1, n) <= 8])
    def test_recursion_equals_permutation_filter(self, m, n):
        omega = _omega(m, n)
        strict = [(i, j) for i, x in enumerate(omega) for j, y in enumerate(omega)
                  if i != j and all(a <= b for a, b in zip(x.idx, y.idx))]
        want = []
        for perm in itertools.permutations(range(len(omega))):
            pos = {elem: where for where, elem in enumerate(perm)}
            if all(pos[i] < pos[j] for i, j in strict):
                want.append([omega[e].idx for e in perm])
        got = [[s.idx for s in sorted(T.ranks, key=T.ranks.get)]
               for T in monotone_linear_extensions(omega)]
        assert got == want

    @pytest.mark.parametrize("m,n", [(4, 2), (3, 3)])
    def test_twelve_extensions(self, m, n):
        omega = _omega(m, n)
        got = monotone_linear_extensions(omega)
        assert len(got) == 12
        assert all(is_monotone(T, omega) for T in got)


def test_order_from_string(unit2):
    assert isinstance(order_from_string("lexi-low"), LexiLow)
    assert isinstance(order_from_string("lexi-high"), LexiHigh)
    assert order_from_string("quantile:2") == Quantile(2)
    base = Sample(unit2, (0, 1))
    assert order_from_string("pointwise", pointwise_base=base) == Pointwise(base)
    with pytest.raises(ValueError):
        order_from_string("pointwise")
    for text in ("median", "quantile:1.5", "quantile:"):
        with pytest.raises(ValueError, match=f"^unknown order selector {text!r}$"):
            order_from_string(text)
