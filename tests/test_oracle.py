import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betaincinv

from orderbound import (
    InfeasibleError,
    LexiHigh,
    LexiLow,
    OracleConfig,
    Pointwise,
    Quantile,
    Sample,
    SupportGrid,
    SupportSet,
    homogeneous_sample,
    lexi_high_homogeneous_bracket,
    lexi_low_homogeneous,
    make_sample,
    optimal_pointwise_homogeneous,
    pessimal_bound_oracle,
    pointwise_bound_oracle,
    refined_support,
)
from orderbound import kernels, oracle
from orderbound.dist import augment, full_support, prob_upper_set, restrict_to
from orderbound.harness import OracleCache, value_tolerance
from orderbound.oracle import (
    _count_zero_sum_offsets,
    _neighbor_radius,
    _neighborhood,
    _Reducer,
    _zero_sum_offsets,
    relevant_values,
)
from orderbound.orders import CustomTable, EnumerationGuardError, enumerate_omega, upper_set

from conftest import criterion_4_calls, exact_quantile_bound


FAST = OracleConfig(resolution=1e-3)


def _probs_by_row(rows, probs):
    """An ``eval_probs`` stand-in that reads each row's probability from
    ``probs``, for rows in lexicographic order."""
    radix = (int(rows.max()) + 1) ** np.arange(rows.shape[1] - 1, -1, -1)
    keys = rows.astype(np.int64) @ radix  # increasing: the rows are in lex order

    def eval_probs(counts, N, coefs, expts):
        return probs[np.searchsorted(keys, counts.astype(np.int64) @ radix)]

    return eval_probs


def _block_orders(blocks, seed):
    """The blocks forward, reversed and in a seeded shuffle."""
    blocks = list(blocks)
    shuffled = list(blocks)
    np.random.default_rng(seed).shuffle(shuffled)
    return [blocks, blocks[::-1], shuffled]


class TestRefinedSupport:
    def test_is_the_augmented_relevant_values(self, unit5):
        x = Sample(unit5, (1, 1, 3))
        for order in (LexiLow(), Quantile(2), Quantile(3), Pointwise(x)):
            assert refined_support(x, order) == augment(relevant_values(x, order), unit5)
        assert relevant_values(x, LexiHigh()) is None
        assert refined_support(x, LexiHigh()) == full_support(unit5)

    def test_quantile_augments_the_statistic(self, unit3):
        x = make_sample(unit3, [0.5])
        assert refined_support(x, Quantile(1)).indices == (0, 1, 2)

    def test_lexi_low_augments_distinct_values(self, unit3):
        x = Sample(unit3, (0, 0))
        assert refined_support(x, LexiLow()).indices == (0, 1)

    def test_lexi_high_keeps_full_grid(self, unit3):
        x = Sample(unit3, (0, 2))
        assert refined_support(x, LexiHigh()).indices == (0, 1, 2)

    def test_pointwise_augments_distinct_values(self, unit5):
        x = Sample(unit5, (1, 3))
        assert refined_support(x, Pointwise(x)).indices == (0, 1, 2, 3, 4)


class TestPointwiseOracle:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_matches_closed_form_at_homogeneous(self, m, n, alpha):
        grid = SupportGrid(0, 1, m)
        tol = value_tolerance(grid, FAST)
        for i in range(m):
            res = pointwise_bound_oracle(homogeneous_sample(grid, i, n), alpha, FAST)
            want = optimal_pointwise_homogeneous(grid, i, n, alpha)
            assert want - 1e-12 <= res.value <= want + tol

    def test_alpha_zero_gives_minimum(self, unit3):
        res = pointwise_bound_oracle(Sample(unit3, (1, 2)), 0.0, FAST)
        assert res.value == unit3.s_min

    def test_mixed_sample_analytic_solve(self, unit2):
        # minimize p subject to 2 p (1-p) >= 0.25; boundary root of
        # 8p^2 - 8p + 1 = 0 below one half
        want = (1 - math.sqrt(0.5)) / 2
        res = pointwise_bound_oracle(make_sample(unit2, [0.0, 1.0]), 0.25, FAST)
        assert want - 1e-12 <= res.value <= want + value_tolerance(unit2, FAST)

    def test_infeasible_is_reported(self, unit2):
        # the multiset {0,1} has probability at most 1/2 under any
        # distribution, so alpha = 0.9 cannot be met
        with pytest.raises(InfeasibleError):
            pointwise_bound_oracle(make_sample(unit2, [0.0, 1.0]), 0.9, FAST)


class TestOrderedOracles:
    def test_lexi_low_matches_closed_form(self, unit3):
        res = pessimal_bound_oracle(homogeneous_sample(unit3, 1, 2), LexiLow(), 0.04, FAST)
        assert 0.1 - 1e-12 <= res.value <= 0.1 + value_tolerance(unit3, FAST)

    def test_lexi_high_lands_in_bracket(self, unit5):
        tol = value_tolerance(unit5, FAST)
        for i in (1, 3, 4):
            res = pessimal_bound_oracle(homogeneous_sample(unit5, i, 2), LexiHigh(), 0.25, FAST)
            br = lexi_high_homogeneous_bracket(unit5, i, 2, 0.25)
            assert br.contains(res.value, slack=tol)

    def test_lexi_low_on_a_thousand_point_grid(self):
        # 500,500 samples of size 2: no array of the sample space, the
        # member terms or the witness's pmf has an axis of length m
        grid = SupportGrid(0.0, 1.0, 1000)
        res = pessimal_bound_oracle(homogeneous_sample(grid, 400, 2), LexiLow(), 0.05, FAST)
        want = lexi_low_homogeneous(grid, 400, 2, 0.05)
        assert abs(res.value - want) <= value_tolerance(grid, FAST)
        assert res.constraint_prob >= 0.05 - 1e-12

    def test_coarse_to_fine_engages_on_full_grid(self, unit5):
        res = pessimal_bound_oracle(homogeneous_sample(unit5, 2, 2), LexiHigh(), 0.25, FAST)
        assert res.mode == "coarse-to-fine"
        assert res.final_step <= FAST.resolution

    def test_upper_set_inclusion_orders_values(self, unit3):
        # the singleton upper set is contained in the componentwise one,
        # so the pointwise value dominates the low-lexicographic value
        x = homogeneous_sample(unit3, 1, 2)
        tol = value_tolerance(unit3, FAST)
        v_point = pointwise_bound_oracle(x, 0.25, FAST).value
        v_low = pessimal_bound_oracle(x, LexiLow(), 0.25, FAST).value
        assert v_low <= v_point + tol

    def test_custom_table_uses_full_grid(self, unit3):
        omega = enumerate_omega(unit3, 2)
        order = CustomTable.from_ranking(sorted(omega, key=lambda s: s.idx))
        res = pessimal_bound_oracle(omega[3], order, 0.25, FAST)
        assert res.support_used.indices == (0, 1, 2)

    def test_consistency_across_equivalent_samples(self, unit3):
        # quantile preorder: equivalent samples share the upper set and
        # must get identical oracle values
        order = Quantile(1)
        a = pessimal_bound_oracle(Sample(unit3, (0, 1)), order, 0.25, FAST)
        b = pessimal_bound_oracle(Sample(unit3, (0, 2)), order, 0.25, FAST)
        assert a.value == b.value


class TestExactBounds:
    """Mixed samples against bounds known in closed form. A witness is
    feasible, so no value may lie below the truth; the documented accuracy
    is 2 * final_step * range above it."""

    @staticmethod
    def _check(x, order, alpha, exact, res, measured):
        range_ = x.grid.s_max - x.grid.s_min
        where = f"x={x.idx} {order.name} alpha={alpha}: {res.value!r} vs exact {exact!r}"
        assert exact - 1e-12 * (1 + abs(exact)) <= res.value, f"below the truth: {where}"
        assert res.value <= exact + 2 * res.final_step * range_, (
            f"{where}: over 2 * final_step * range (measured overshoot at most {measured})"
        )

    @staticmethod
    def _memo(results, x, order, alpha):
        # one search per upper set: the support and the upper set fix it
        mask = upper_set(x, order, enumerate_omega(x.grid, x.n)).mask.tobytes()
        key = (x.grid, refined_support(x, order).indices, mask, alpha)
        if key not in results:
            results[key] = pessimal_bound_oracle(x, order, alpha, FAST)
        return results[key]

    def test_quantile_calls_of_criterion_4(self):
        results, calls = {}, 0
        for x, i, alpha in criterion_4_calls():
            res = self._memo(results, x, Quantile(i), alpha)
            self._check(x, Quantile(i), alpha, exact_quantile_bound(x, i, alpha), res,
                        "1.07e-4 * range")
            calls += 1
        assert calls == 840

    @pytest.mark.parametrize("grid", [SupportGrid(0.0, 1.0, 2), SupportGrid(-1.5, 2.0, 2)],
                             ids=["unit", "shifted"])
    def test_two_atom_grids_meet_clopper_pearson(self, grid):
        # with j of the n draws on the top atom, LexiLow and LexiHigh both
        # bound the mean by the Clopper-Pearson lower limit for j successes
        # (Clopper & Pearson, Biometrika 1934)
        results = {}
        range_ = grid.s_max - grid.s_min
        for n in range(1, 11):
            for x in enumerate_omega(grid, n):
                j = x.idx.count(1)
                for order in (LexiLow(), LexiHigh()):
                    for alpha in (0.05, 0.25, 0.5):
                        p = float(betaincinv(j, n - j + 1, alpha)) if j else 0.0
                        res = self._memo(results, x, order, alpha)
                        self._check(x, order, alpha, grid.s_min + p * range_, res,
                                    "1.25e-4 * range")

    @pytest.mark.parametrize("resolution", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("grid", [SupportGrid(0.0, 1.0, 2), SupportGrid(-1.5, 2.0, 2)],
                             ids=["unit", "shifted"])
    def test_fine_resolutions_meet_clopper_pearson(self, grid, resolution):
        # x = (0, 1) at alpha 0.25: 1 - (1 - p)**2 = 0.25 at p = 1 - sqrt(0.75),
        # and the accuracy 2 * final_step * range holds down to steps of 1e-13
        x = Sample(grid, (0, 1))
        exact = grid.s_min + (1 - math.sqrt(0.75)) * (grid.s_max - grid.s_min)
        for order in (LexiLow(), LexiHigh()):
            res = pessimal_bound_oracle(x, order, 0.25, OracleConfig(resolution=resolution))
            assert res.final_step <= resolution
            self._check(x, order, 0.25, exact, res, "2 * final_step * range")


class TestWitness:
    def test_feasible_and_on_support(self, unit5):
        x = homogeneous_sample(unit5, 2, 2)
        for order in (LexiLow(), Quantile(1), Pointwise(x)):
            res = pessimal_bound_oracle(x, order, 0.25, FAST)
            assert res.constraint_prob >= 0.25 - 1e-12
            assert restrict_to(res.witness.mass, res.support_used)
            assert abs(float(res.witness.mass.sum()) - 1.0) < 1e-12

    @staticmethod
    def _criterion_4_searches():
        """One search per support, Quantile upper set and alpha of the
        criterion-4 sweep (they fix the result): the call, its upper set and
        atoms, the result, and the witness's counts on N final steps."""
        seen = set()
        for x, i, alpha in criterion_4_calls():
            U = upper_set(x, Quantile(i), enumerate_omega(x.grid, x.n))
            atoms = refined_support(x, Quantile(i)).indices
            if (atoms, U.mask.tobytes(), alpha) in seen:
                continue
            seen.add((atoms, U.mask.tobytes(), alpha))
            res = pessimal_bound_oracle(x, Quantile(i), alpha)
            N = round(1 / res.final_step)
            counts = np.rint(res.witness.mass[list(atoms)] * N).astype(np.int64)
            assert counts.sum() == N
            yield x, i, alpha, U, atoms, res, N, counts
        assert len(seen) == 88  # of 840 calls

    def test_constraint_prob_is_the_kernel_value_the_search_tested(self):
        # on the criterion-4 sweep: the kernel's value at the witness's row,
        # so it reaches alpha by construction, and within 4 ulps of the
        # same probability summed over the whole sample space
        for x, i, alpha, U, atoms, res, N, counts in self._criterion_4_searches():
            coefs, expts = oracle._member_terms(U, atoms)
            assert res.constraint_prob >= alpha
            assert res.constraint_prob == kernels.eval_probs(counts[None], N, coefs, expts)[0]
            whole = prob_upper_set(res.witness, U)
            assert abs(res.constraint_prob - whole) <= 4 * np.spacing(whole), (x.idx, i, alpha)

    def test_witness_probability_in_exact_arithmetic(self):
        # the witness's probability over integers, sum of n! / prod(e!) *
        # prod(c ** e) over the member terms, against alpha's binary value
        # times N ** n: every witness but four reaches alpha exactly; those
        # four hit the decimal 0.05 exactly, 400 of 8,000 steps on x_(1),
        # and so fall short of the double 0.05 by less than one ulp
        short = []
        for x, i, alpha, U, atoms, res, N, counts in self._criterion_4_searches():
            _, expts = oracle._member_terms(U, atoms)
            total = sum(
                math.factorial(x.n) // math.prod(map(math.factorial, row))
                * math.prod(c**e for c, e in zip(counts.tolist(), row))
                for row in expts.tolist())
            slack = Fraction(total, N**x.n) - Fraction(alpha)
            if slack < 0:
                assert -slack < math.ulp(alpha), (x.idx, i, alpha)
                short.append((x.idx, i, alpha, counts.tolist(), N, Fraction(total, N**x.n)))
        assert short == [
            ((1,), 1, 0.05, [7600, 400, 0], 8000, Fraction(1, 20)),
            ((2,), 1, 0.05, [7600, 400, 0], 8000, Fraction(1, 20)),
            ((3,), 1, 0.05, [7600, 400, 0], 8000, Fraction(1, 20)),
            ((4,), 1, 0.05, [7600, 400], 8000, Fraction(1, 20)),
        ]

    def test_deterministic(self, unit5):
        x = homogeneous_sample(unit5, 2, 2)
        r1 = pessimal_bound_oracle(x, LexiHigh(), 0.25, FAST)
        r2 = pessimal_bound_oracle(x, LexiHigh(), 0.25, FAST)
        assert r1.value == r2.value
        assert np.array_equal(r1.witness.mass, r2.witness.mass)

    def test_support_override(self, unit3):
        x = homogeneous_sample(unit3, 1, 2)
        cfg = OracleConfig(resolution=1e-3, support_override=full_support(unit3))
        res = pessimal_bound_oracle(x, LexiLow(), 0.25, cfg)
        refined = pessimal_bound_oracle(x, LexiLow(), 0.25, FAST)
        assert abs(res.value - refined.value) <= 2 * value_tolerance(unit3, FAST)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(resolution=0.0)

    def test_empty_support_override_is_refused(self, unit3):
        # an empty override is not "no override": it must not fall back
        # to the refined support
        with pytest.raises(ValueError, match="support_override"):
            OracleConfig(support_override=SupportSet(()))
        with pytest.raises(ValueError, match="support_override"):
            OracleCache(FAST).value(Sample(unit3, (0, 2)), LexiLow(), 0.25, SupportSet(()))

    def test_only_caller_settings_are_fields(self):
        assert [f.name for f in dataclasses.fields(OracleConfig)] == [
            "resolution", "support_override"
        ]

    def test_alpha_validation(self, unit2):
        with pytest.raises(ValueError):
            pointwise_bound_oracle(Sample(unit2, (0,)), 1.0)

    def test_final_step_below_the_rounding_bound_is_refused(self, monkeypatch, unit2):
        # steps of 1e-15 on two atoms end on a grid of about 2**53.2 steps,
        # where the value's rounding error can exceed final_step * range;
        # such grids, down to the 2**66 steps of 1e-19 and past the steps of
        # 1e-320, whose reciprocal overflows a double, are refused before
        # the sample space is built; every count there is above 2**53, so
        # the message gives it to four digits (the capped count of 1e-320
        # has 310), and stays short
        x = Sample(unit2, (0, 1))
        built = []
        monkeypatch.setattr(oracle, "enumerate_omega", lambda *a: built.append(a))
        for res, steps in ((1e-15, "1.031e+16"), (1e-17, "1.319e+18"), (1e-19, "8.444e+19"),
                           (1e-320, "1.646e+309"), (5e-324, "1.646e+309")):
            with pytest.raises(ValueError, match=(
                    rf"^resolution {res!r} ends on steps of 1/{re.escape(steps)}: final step"
                    r" times \(s_max - s_min\) = \d\.?\d*e-\d+ is below the value's rounding"
                    r" bound 3.33e-16$")) as exc:
                pessimal_bound_oracle(x, LexiLow(), 0.25, OracleConfig(resolution=res))
            assert len(str(exc.value)) < 200
        assert built == []

    @pytest.mark.parametrize("s_max,sample,alpha", [(1e305, (2, 2), 0.9), (1e306, (0, 2), 0.05)])
    def test_scores_overflowing_a_double_are_refused(self, monkeypatch, s_max, sample, alpha):
        # 8,000 final steps times 1e305 overflow: every score of a row on
        # the top atom was +inf, so the first scan dropped every batch above
        # the cut and kept no rescue row (a TypeError), or at (0, 1e306)
        # reported a false InfeasibleError
        built = []
        monkeypatch.setattr(oracle, "enumerate_omega", lambda *a: built.append(a))
        x = Sample(SupportGrid(0.0, s_max, 3), sample)
        with pytest.raises(ValueError) as exc:
            pessimal_bound_oracle(x, LexiLow(), alpha)
        # the support atoms: {0, 2} at (2, 2), {0, 1, 2} at (0, 2)
        summed, k = {1e305: ("1e+305", 2), 1e306: ("1.5e+306", 3)}[s_max]
        assert str(exc.value) == (
            f"scores overflow a double: 8000 steps times max|v| = {s_max:.3g} on a row, or"
            f" radius 3 times sum|v| = {summed} on an offset, over the {k} support atoms"
            " exceeds the largest double")
        assert built == []

    def test_scores_just_inside_a_double_keep_their_value(self):
        # 8,000 steps times 1e304 is 8e307, below the largest double
        x = Sample(SupportGrid(0.0, 1e304, 3), (2, 2))
        res = pessimal_bound_oracle(x, LexiLow(), 0.9)
        assert (res.value, res.final_step) == (9.487499999999999e+303, 1 / 8000)

    def test_offset_scores_overflowing_a_double_are_refused(self):
        # at resolution 1 the search ends on 8 steps, but an offset on 14
        # atoms can move 7 units from values near -2e307 to values near
        # 2e307, a score of about 2.8e308, which overflowed in scaled_scores
        grid = SupportGrid(-2e307, 2e307, 1001)
        support = SupportSet.of([*range(7), *range(994, 1001)])
        cfg = OracleConfig(resolution=1.0, support_override=support)
        with pytest.raises(ValueError, match=(
                r"^scores overflow a double: 8 steps times .* radius 1 times sum\|v\| = inf"
                r" on an offset, over the 14 support atoms exceeds the largest double$")):
            pessimal_bound_oracle(Sample(grid, (0, 1000)), LexiHigh(), 0.05, cfg)

    def test_scores_bounded_by_the_searched_atoms_keep_their_value(self):
        # 14 atoms evenly spaced over [-1.5e307, 1.5e307]: an offset of
        # radius 1 scores at most sum|v| = 1.13e308, and a row on 8 final
        # steps at most 8 * 1.5e307 = 1.2e308, so every score is finite,
        # though 14 offset units times max(|s_min|, |s_max|) are not
        grid = SupportGrid(-1.5e307, 1.5e307, 14)
        res = pessimal_bound_oracle(Sample(grid, (0, 13)), LexiHigh(), 0.05,
                                    OracleConfig(resolution=1.0))
        assert (res.value, res.final_step, res.mode) == (-1.1249999999999998e+307, 1 / 8, "dense")
        assert res.constraint_prob >= 0.05

    def test_step_counts_are_exact_up_to_2_to_the_53(self):
        assert oracle._step_count(599_999 << 3) == "4799992"
        assert oracle._step_count(1 << 53) == "9007199254740992"
        assert oracle._step_count((1 << 53) + 1) == "9.007e+15"
        assert oracle._step_count(16458 * 10**305) == "1.646e+309"

    @pytest.mark.parametrize("grid", [SupportGrid(0.0, 1.0, 2), SupportGrid(-999.0, 999.0, 2),
                                      SupportGrid(-2.5, 0.75, 2)], ids=["unit", "wide", "neg"])
    def test_admitted_resolutions_keep_their_accuracy(self, grid):
        # against 40-digit mpmath: the low-lexicographic bound at (0, 1)
        # is s_min + (1 - sqrt(1 - alpha)) * range; every resolution the
        # precision guard admits lands within 2 * final_step * range of it
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        span = mpmath.mpf(grid.s_max) - mpmath.mpf(grid.s_min)
        exact = mpmath.mpf(grid.s_min) + (1 - mpmath.sqrt(mpmath.mpf(0.75))) * span
        x, admitted = Sample(grid, (0, 1)), []
        for e in range(6, 17):
            try:
                res = pessimal_bound_oracle(x, LexiLow(), 0.25, OracleConfig(resolution=10.0 ** -e))
            except ValueError:
                continue
            admitted.append(e)
            budget = 2 * mpmath.mpf(res.final_step) * span
            assert abs(mpmath.mpf(res.value) - exact) <= budget, e
        assert admitted == list(range(6, 15))

    def test_fine_resolution_memory_stays_flat(self, unit2):
        # no search array grows with 1 / resolution: the first scan is
        # capped by the cell budget and each refinement stage by the beam
        tracemalloc.start()
        try:
            pessimal_bound_oracle(Sample(unit2, (0, 1)), LexiLow(), 0.25,
                                  OracleConfig(resolution=1e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20


def test_oracle_cache_dedupes_by_upper_set(unit3):
    cache = OracleCache(FAST)
    a = cache.value(Sample(unit3, (0, 1)), Quantile(1), 0.25)
    b = cache.value(Sample(unit3, (0, 2)), Quantile(1), 0.25)
    assert a == b
    assert len(cache._values) == 1


# Full-grid k=5 calls at alpha 0.25 on the unit m=5 grid, all coarse-to-fine:
# (name, sample, value.hex(), witness.mass.tobytes().hex(), final_step.hex()).
# Any change to enumeration order, kernel arithmetic, neighbourhoods or beam
# selection that moves a bit of a result shows up here.
GOLDEN = [
    ("lexi-high-homog-n2", (2, 2), "0x1.9ba9386822b64p-4",
     "1a4eeabe3cb6eb3f0000000000000000000000000000000098c756040d27c13f0000000000000000",
     "0x1.15b1e5f75270dp-14"),
    ("lexi-high-mixed-n2", (1, 3), "0x1.1270d0456c798p-3",
     "1a4eeabe3cb6eb3f00000000000000000000000000000000000000000000000098c756040d27c13f",
     "0x1.15b1e5f75270dp-14"),
    ("quantile-full-n2", (1, 3), "0x1.0000000000000p-3",
     "000000000000e03f000000000000e03f000000000000000000000000000000000000000000000000",
     "0x1.15b1e5f75270dp-14"),
    ("lexi-low-full-n2", (1, 3), "0x1.0000000000000p-2",
     "000000000000e03f0000000000000000000000000000e03f00000000000000000000000000000000",
     "0x1.15b1e5f75270dp-14"),
    ("lexi-high-homog-n3", (2, 2, 2), "0x1.1915b1e5f7527p-4",
     "796c45d07012ed3f00000000000000000000000000000000349cd47d796cb73f0000000000000000",
     "0x1.15b1e5f75270dp-14"),
    ("lexi-high-mixed-n3", (0, 2, 4), "0x1.23eea4e1a08aep-2",
     "e6b11541c309e43f00000000000000001a4eeabe3cb6c63f00000000000000004eeabe3cb622c93f",
     "0x1.15b1e5f75270dp-14"),
    ("quantile-full-n3", (0, 2, 4), "0x1.4e3cbeea4e1a1p-3",
     "308fad081a8ee53f0000000000000000a1e1a4eecbe3d43f00000000000000000000000000000000",
     "0x1.15b1e5f75270dp-14"),
    ("lexi-low-full-n3", (0, 2, 4), "0x1.428ad8f2fba94p-3",
     "d98aa0e1a4aed73f94ba2f8fad28e43f000000000000000000000000000000000000000000000000",
     "0x1.15b1e5f75270dp-14"),
]


@pytest.mark.parametrize("name,idx,value,mass,step", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_full_grid_results_are_pinned(unit5, name, idx, value, mass, step):
    x = Sample(unit5, idx)
    if name.startswith("lexi-high"):
        order, cfg = LexiHigh(), None
    else:  # these orders reach the full grid only by override
        order = Quantile(x.n - 1) if name.startswith("quantile") else LexiLow()
        cfg = OracleConfig(support_override=full_support(unit5))
    res = pessimal_bound_oracle(x, order, 0.25, cfg)
    assert res.mode == "coarse-to-fine"
    assert res.value == float.fromhex(value)
    assert res.witness.mass.tobytes() == bytes.fromhex(mass)
    assert res.final_step == float.fromhex(step)


# Full-grid LexiHigh calls at x = (1, m - 2), alpha 0.25, on the unit grids
# of m = 6, 7 and 10 atoms, all coarse-to-fine, so the refinement stages
# build radius-2 (k = 6) and radius-1 (k >= 7) neighbourhoods: (m,
# value.hex(), witness.mass.tobytes().hex(), final_step.hex()).
WIDE_GOLDEN = [
    (6, "0x1.1296969696969p-3",
     "a6a5a5a5a5b5eb3f0000000000000000000000000000000000000000000000000000000000000000"
     "696969696929c13f",
     "0x1.e1e1e1e1e1e1ep-14"),
    (7, "0x1.1280000000000p-3",
     "0000000000b6eb3f0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000028c13f",
     "0x1.5555555555555p-14"),
    (10, "0x1.1276276276276p-3",
     "6227766227b6eb3f0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000766227766227c13f",
     "0x1.3b13b13b13b14p-14"),
]


@pytest.mark.parametrize("m,value,mass,step", WIDE_GOLDEN, ids=[f"m{g[0]}" for g in WIDE_GOLDEN])
def test_wide_grid_results_are_pinned(m, value, mass, step):
    res = pessimal_bound_oracle(Sample(SupportGrid(0.0, 1.0, m), (1, m - 2)), LexiHigh(), 0.25)
    assert res.mode == "coarse-to-fine"
    assert res.value == float.fromhex(value)
    assert res.witness.mass.tobytes() == bytes.fromhex(mass)
    assert res.final_step == float.fromhex(step)


@pytest.mark.parametrize("m,value", [(6, 0.13416819852941178), (7, 0.1236572265625)],
                         ids=["k6", "k7"])
def test_neighbor_radius_boundary_values_are_pinned(m, value):
    # k = 6, the last support searched with radius 2, and k = 7, the first
    # with radius 1: radius 1 at k = 6 would give 0.13419117647058823 and
    # radius 2 at k = 7 0.12361653645833333
    res = pessimal_bound_oracle(Sample(SupportGrid(0.0, 1.0, m), (1, m - 1)), LexiHigh(), 0.05)
    assert res.mode == "coarse-to-fine"
    assert res.value == value


# Dense calls (k <= 3 support atoms) at the default resolution, step 1/8000
# after the refinement passes: (grid size m, sample, order, alpha,
# value.hex(), witness.mass.tobytes().hex()).
DENSE_GOLDEN = [
    (2, (0, 1), "lexi-high", 0.05, "0x1.9fbe76c8b4396p-6",
     "e3a59bc42030ef3f96438b6ce7fb993f"),
    (2, (0, 1), "lexi-high", 0.25, "0x1.126e978d4fdf4p-3",
     "83c0caa145b6eb3ff4fdd478e926c13f"),
    (3, (1, 2), "lexi-high", 0.05, "0x1.8cac083126e98p-3",
     "0e2db29defa7e73f5eba490c022bc13f6891ed7c3f35c03f"),
    (3, (1, 2), "lexi-high", 0.25, "0x1.bb74bc6a7ef9ep-2",
     "f853e3a59bc4da3fd578e9263108d33f333333333333d23f"),
    (2, (0, 1), "lexi-low", 0.05, "0x1.9fbe76c8b4396p-6",
     "e3a59bc42030ef3f96438b6ce7fb993f"),
    (2, (0, 1), "lexi-low", 0.25, "0x1.126e978d4fdf4p-3",
     "83c0caa145b6eb3ff4fdd478e926c13f"),
    (3, (1, 2), "lexi-low", 0.05, "0x1.8cac083126e98p-3",
     "0e2db29defa7e73f5eba490c022bc13f6891ed7c3f35c03f"),
    (3, (1, 2), "lexi-low", 0.25, "0x1.bb74bc6a7ef9ep-2",
     "f853e3a59bc4da3fd578e9263108d33f333333333333d23f"),
    (2, (0, 1), "pointwise", 0.05, "0x1.a5e353f7ced91p-6",
     "931804560e2def3f91ed7c3f355e9a3f"),
    (2, (0, 1), "pointwise", 0.25, "0x1.2c083126e978dp-3",
     "1d5a643bdf4feb3f8d976e1283c0c23f"),
    (3, (1, 2), "pointwise", 0.05, "0x1.c9fbe76c8b439p-3",
     "d34d62105839e53ff6285c8fc2f5cc3f7d3f355eba49bc3f"),
    (3, (1, 2), "pointwise", 0.25, "0x1.0000000000000p-1",
     "000000000000d03f000000000000e03f000000000000d03f"),
    (5, (2, 2, 2, 2), "pointwise", 0.05, "0x1.e4395810624ddp-3",
     "91ed7c3f35dee03f0000000000000000dd2406819543de3f00000000000000000000000000000000"),
    (5, (2, 2, 2, 2), "pointwise", 0.25, "0x1.6a0c49ba5e354p-2",
     "5839b4c876bed23f000000000000000054e3a59bc4a0e63f00000000000000000000000000000000"),
    (2, (0, 1), "quantile:2", 0.05, "0x1.9fbe76c8b4396p-6",
     "e3a59bc42030ef3f96438b6ce7fb993f"),
    (2, (0, 1), "quantile:2", 0.25, "0x1.126e978d4fdf4p-3",
     "83c0caa145b6eb3ff4fdd478e926c13f"),
    (3, (1, 2), "quantile:1", 0.05, "0x1.c9fbe76c8b439p-4",
     "f2d24d6210d8e83f39b4c876be9fcc3f0000000000000000"),
    (3, (1, 2), "quantile:1", 0.25, "0x1.0000000000000p-2",
     "000000000000e03f000000000000e03f0000000000000000"),
    (5, (0, 2, 3), "quantile:2", 0.05, "0x1.153f7ced91687p-4",
     "5eba490c02abeb3f00000000000000008716d9cef753c13f00000000000000000000000000000000"),
    (5, (0, 2, 3), "quantile:2", 0.25, "0x1.4e353f7ced917p-3",
     "75931804568ee53f000000000000000017d9cef753e3d43f00000000000000000000000000000000"),
    (5, (1, 2, 2, 4), "quantile:3", 0.05, "0x1.8fdf3b645a1cbp-5",
     "c74b378941e0ec3f0000000000000000cba145b6f3fdb83f00000000000000000000000000000000"),
    (5, (1, 2, 2, 4), "quantile:3", 0.25, "0x1.f1eb851eb851fp-4",
     "b81e85eb5138e83f00000000000000001f85eb51b81ecf3f00000000000000000000000000000000"),
]


@pytest.mark.parametrize("m,idx,order,alpha,value,mass", DENSE_GOLDEN,
                         ids=[f"{g[2]}-m{g[0]}-{g[3]}" for g in DENSE_GOLDEN])
def test_dense_results_are_pinned(m, idx, order, alpha, value, mass):
    x = Sample(SupportGrid(0.0, 1.0, m), idx)
    if order.startswith("quantile:"):
        order = Quantile(int(order.removeprefix("quantile:")))
    else:
        order = {"lexi-high": LexiHigh(), "lexi-low": LexiLow(), "pointwise": Pointwise(x)}[order]
    assert len(refined_support(x, order).indices) in (2, 3)
    res = pessimal_bound_oracle(x, order, alpha)
    assert res.mode == "dense"
    assert res.value == float.fromhex(value)
    assert res.witness.mass.tobytes() == bytes.fromhex(mass)
    assert res.final_step == float.fromhex("0x1.0624dd2f1a9fcp-13")


# Pointwise at x=(0, 1) on the unit m=2 grid, alpha 0.49, coarse dense
# steps: 2 p (1 - p) < 0.49 at every p in steps of 1/3, 1/5 or 1/7, so the
# first scan finds no feasible row and refinement starts from the most
# probable row alone: (step, value.hex(), witness.mass.tobytes().hex(),
# final_step.hex()).
RESCUE_GOLDEN = [
    (3, "0x1.d555555555555p-2", "555555555555e13f555555555555dd3f", "0x1.5555555555555p-5"),
    (5, "0x1.ccccccccccccdp-2", "9a9999999999e13fcdccccccccccdc3f", "0x1.999999999999ap-6"),
    (7, "0x1.c924924924925p-2", "6edbb66ddbb6e13f254992244992dc3f", "0x1.2492492492492p-6"),
]


@pytest.mark.parametrize("steps,value,mass,final_step", RESCUE_GOLDEN,
                         ids=[f"1/{g[0]}" for g in RESCUE_GOLDEN])
def test_rescue_results_are_pinned(monkeypatch, unit2, steps, value, mass, final_step):
    beams = []
    real = oracle._scan_blocks

    def scan(*a):
        red = real(*a)
        beams.append(red.beam().shape[0])
        return red

    monkeypatch.setattr(oracle, "_scan_blocks", scan)
    res = pointwise_bound_oracle(Sample(unit2, (0, 1)), 0.49, OracleConfig(resolution=1 / steps))
    assert beams[0] == 0 and beams[-1] > 0
    assert res.mode == "dense"
    assert res.value == float.fromhex(value)
    assert res.witness.mass.tobytes() == bytes.fromhex(mass)
    assert res.final_step == float.fromhex(final_step)
    assert res.constraint_prob >= 0.49


def _unary_code(pattern, radius: int) -> int:
    """A centre's unary code from its entries clipped to the radius: field
    j, bits radius * j up, holds entry j's count of low bits."""
    return sum(((1 << v) - 1) << (radius * j) for j, v in enumerate(pattern))


def _spread_centres(n_cur: int, k: int) -> np.ndarray:
    """24 centres summing to n_cur, as doubled beam rows are: spread out,
    four on the boundary, three overlapping others and one repeated."""
    rng = np.random.default_rng(k)
    half = np.array([rng.multinomial(n_cur // 2, p)
                     for p in rng.dirichlet(np.ones(k), 20)])
    half[:4, k // 2 + 1:] = 0  # centres on the boundary lose negative neighbours
    half[:4, 0] = n_cur // 2 - half[:4, 1:].sum(axis=1)
    # overlapping neighbourhoods, and a repeated centre as when the
    # incumbent is also the first beam row
    near = half[:3].copy()
    near[np.arange(3), near.argmax(axis=1)] -= 1
    near[:, 0] += 1
    return np.concatenate([half, near, half[:1]]) * 2


class TestSearchInternals:
    @pytest.mark.parametrize("n_cur", [96, 15104, 1 << 16, 1 << 17])
    def test_neighborhood_equals_unique(self, n_cur):
        # rows with 8-, 16- and 32-bit entries; from 1 << 16 on the spread-out
        # centres need 16 or 17 bits an entry, so k >= 5 packs into two or
        # more keys (four 16-bit entries would reach the sign bit), and a
        # mixed-radix int64 key over all k columns would wrap
        for k in range(1, 11):
            centers = _spread_centres(n_cur, k)
            offs = _zero_sum_offsets(k, _neighbor_radius(k))
            values = np.linspace(0.0, 1.0, k)
            got = _neighborhood(centers, k, values, kernels.scaled_scores(offs, values), math.inf)
            cands = (centers[:, None, :] + offs[None]).reshape(-1, k)
            want = np.unique(cands[(cands >= 0).all(axis=1)], axis=0)
            assert got.dtype == want.dtype, k
            assert np.array_equal(got, want), k

    @pytest.mark.parametrize("n_cur", [96, 15104, 1 << 16, 1 << 17])
    def test_pruned_neighborhood_drops_only_rows_above_the_limit(self, n_cur):
        # values on a unit grid, a negative grid, a wide grid (as with
        # --s-max 999) and an integer grid whose row scores tie exactly;
        # the limit is a row's own score, so that row must stay. A limit of
        # +inf drops no pair, so the whole neighbourhood is the same for
        # every grid and is built, and its rows indexed, once per k
        weights = np.random.default_rng(5).integers(-(1 << 62), 1 << 62, size=10)
        for k in range(1, 11):
            centers = _spread_centres(n_cur, k)
            offs = _zero_sum_offsets(k, _neighbor_radius(k))
            full = None
            for values in (np.linspace(0.0, 1.0, k), np.linspace(-3.5, -0.25, k),
                           np.linspace(-999.0, 999.0, k), np.arange(k) - 2.0):
                offset_scores = kernels.scaled_scores(offs, values)
                if full is None:
                    full = _neighborhood(centers, k, values, offset_scores, math.inf)
                    # a wrapping int64 hash of each row, sorted
                    hashes = full.astype(np.int64) @ weights[:k]
                    by_hash = np.argsort(hashes)
                    hashes = hashes[by_hash]
                scores = kernels.scaled_scores(full, values)
                limit = float(np.sort(scores)[scores.size // 4])
                got = _neighborhood(centers, k, values, offset_scores, limit)
                # the row of full with each got row's hash; comparing the
                # rows themselves makes the membership exact
                at = np.searchsorted(hashes, got.astype(np.int64) @ weights[:k])
                match = by_hash[np.minimum(at, full.shape[0] - 1)]
                assert np.array_equal(full[match], got), k  # every got row is in full
                kept = np.zeros(full.shape[0], dtype=bool)
                kept[match] = True
                assert np.array_equal(got, full[kept]), k  # distinct, in order
                assert (kernels.scaled_scores(full[~kept], values) > limit).all(), k
                assert (kernels.scaled_scores(got, values) == limit).any(), k
                if k > 1:
                    assert got.shape[0] < full.shape[0], k

    @pytest.mark.parametrize("grid", [SupportGrid(0.0, 1.0, 5), SupportGrid(-2.0, -1.0, 5),
                                      SupportGrid(-999.0, 999.0, 5)], ids=["unit", "neg", "wide"])
    @pytest.mark.parametrize("order", [LexiHigh(), LexiLow()])
    def test_pruned_neighbourhood_scans_to_the_same_beam(self, grid, order):
        # from a full beam of 24 feasible rows, the pruned neighbourhood and
        # the whole one reduce to the same next beam, stage after stage
        x, alpha, k = Sample(grid, (0, 2, 4)), 0.25, 5
        U = upper_set(x, order, enumerate_omega(grid, x.n))
        values = np.array(grid.points)
        coefs, expts = oracle._member_terms(U, tuple(range(k)))
        n_cur, _, mode = oracle._schedule(k, OracleConfig())
        assert mode == "coarse-to-fine"
        red = oracle._scan_blocks(kernels.iter_composition_blocks(n_cur, k),
                                  n_cur, coefs, expts, values, alpha)
        offset_scores = kernels.scaled_scores(_zero_sum_offsets(k, _neighbor_radius(k)), values)
        for _ in range(3):
            assert red.beam().shape[0] == oracle.BEAM_WIDTH
            centers, limit = red.beam() * 2, 2 * red.cut
            n_cur *= 2
            whole = _neighborhood(centers, k, values, offset_scores, math.inf)
            pruned = _neighborhood(centers, k, values, offset_scores, limit)
            assert pruned.shape[0] < whole.shape[0]
            full = oracle._scan_blocks([whole], n_cur, coefs, expts, values, alpha)
            red = oracle._scan_blocks([pruned], n_cur, coefs, expts, values, alpha)
            assert np.array_equal(red.beam(), full.beam())

    def test_full_beam_stages_keep_at_most_half_their_pairs(self, monkeypatch, unit5):
        # a pair is kept only if its row is, so counting the pairs whose row
        # is kept bounds the kept pairs from above; the pruned search ends
        # bit for bit where the unpruned one does
        x = Sample(unit5, (0, 2, 4))
        real = oracle._neighborhood
        shares = []

        def spy(centers, k, *bound):
            rows = real(centers, k, *bound)
            if centers.shape[0] == oracle.BEAM_WIDTH:
                assert bound[2] < math.inf  # a full beam bounds the next one
                offs = _zero_sum_offsets(k, _neighbor_radius(k))
                cands = (centers[:, None, :] + offs[None]).reshape(-1, k)
                radix = (int(centers[0].sum()) + 1) ** np.arange(k - 1)
                valid = cands[(cands >= 0).all(axis=1)]
                kept = np.isin(valid[:, :-1] @ radix, rows[:, :-1] @ radix)
                shares.append(kept.sum() / cands.shape[0])
            return rows

        monkeypatch.setattr(oracle, "_neighborhood", spy)
        got = pessimal_bound_oracle(x, LexiHigh(), 0.25)
        monkeypatch.setattr(oracle, "_neighborhood",
                            lambda centers, k, *bound: real(centers, k, *bound[:2], math.inf))
        want = pessimal_bound_oracle(x, LexiHigh(), 0.25)
        assert got.mode == "coarse-to-fine" and len(shares) >= 2
        assert max(shares) <= 0.5
        assert got.value.hex() == want.value.hex()
        assert got.constraint_prob.hex() == want.constraint_prob.hex()
        assert got.witness.mass.tobytes() == want.witness.mass.tobytes()
        assert got.final_step == want.final_step

    def test_neighborhood_keys_stay_below_the_sign_bit(self):
        # four head entries spanning 16 bits each fill 64 bits, one more
        # than a non-negative int64 holds, so they need two keys
        centers = np.array([[0, 0, 0, 0, 100_000], [20_000] * 5,
                            [20_000, 20_001, 19_999, 20_000, 20_000]]) * 2
        values = np.linspace(0.0, 1.0, 5)
        offs = _zero_sum_offsets(5, 3)
        got = _neighborhood(centers, 5, values, kernels.scaled_scores(offs, values), math.inf)
        cands = (centers[:, None, :] + _zero_sum_offsets(5, 3)[None]).reshape(-1, 5)
        want = np.unique(cands[(cands >= 0).all(axis=1)], axis=0)
        assert np.array_equal(got, want)

    def test_refinement_centres_are_distinct(self, monkeypatch, unit5):
        # the centres are the beam's rows, each once: a repeated centre
        # would only repeat its neighbourhood
        seen = []
        real = oracle._neighborhood

        def spy(centers, k, *bound):
            seen.append(centers.copy())
            return real(centers, k, *bound)

        monkeypatch.setattr(oracle, "_neighborhood", spy)
        res = pessimal_bound_oracle(Sample(unit5, (0, 2, 4)), LexiHigh(), 0.25)
        assert res.mode == "coarse-to-fine"
        assert len(seen) >= 2
        for centers in seen:
            assert np.unique(centers, axis=0).shape[0] == centers.shape[0]

    @pytest.mark.parametrize("beam_width", [1, 5, 24, 60])
    def test_beam_equals_full_lexsort_under_ties(self, monkeypatch, beam_width):
        rng = np.random.default_rng(beam_width)
        rows = np.concatenate(list(kernels.iter_composition_blocks(10, 4)))
        # four distinct scores over 286 rows: every cutoff falls in a tie,
        # and probabilities in tenths tie at the maximum
        scores = rng.integers(0, 4, size=rows.shape[0]).astype(np.float64)
        probs = np.round(rng.random(rows.shape[0]), 1)
        feas = probs >= 0.3
        rows_f, scores_f = rows[feas], scores[feas]
        keys = tuple(rows_f[:, c] for c in range(3, -1, -1)) + (scores_f,)
        order = np.lexsort(keys)
        for blocks in _block_orders(np.arange(0, rows.shape[0], 50), beam_width):
            red = _Reducer(0.3, beam_width)
            for lo in blocks:
                red.consume(rows[lo:lo + 50], scores[lo:lo + 50], probs[lo:lo + 50])
            assert np.array_equal(red.beam(), rows_f[order[:beam_width]])
            assert np.array_equal(red.beam()[0], rows_f[order[0]])
        # over the infeasible rows alone, in any block order, the beam stays
        # empty; their probabilities tie at 0.2, and the rescue row is the
        # lex-first of their most probable rows, over the same 50-row slices
        rows_i, scores_i, probs_i = rows[~feas], scores[~feas], probs[~feas]
        assert (probs_i == probs_i.max()).sum() > 1
        for blocks in _block_orders(np.arange(0, rows_i.shape[0], 50), beam_width):
            red = _Reducer(0.3, beam_width)
            for lo in blocks:
                red.consume(rows_i[lo:lo + 50], scores_i[lo:lo + 50], probs_i[lo:lo + 50])
            assert red.beam().size == 0
        monkeypatch.setattr(kernels, "eval_probs", _probs_by_row(rows_i, probs_i))
        parts = [rows_i[lo:lo + 50] for lo in range(0, rows_i.shape[0], 50)]
        row, prob = oracle._most_probable(parts, 10, None, None)
        assert np.array_equal(row, rows_i[np.argmax(probs_i)])
        assert prob == probs_i.max()

    def test_block_partition_does_not_change_the_reducer(self, monkeypatch):
        # integer scores tie across rows and blocks, and probabilities tie
        # at the maximum, so the lex-first rules decide every field, in any
        # block order; scores rise along the lexicographic order, so fed
        # forward, once the beam is full most blocks fall above its cut and
        # are dropped unsorted
        rows_all = np.concatenate(list(kernels.iter_composition_blocks(60, 3)))
        values = np.array([1.0, 0.0, 1.0])
        alpha = 0.5

        def probs_of(rows):
            return np.minimum(rows[:, 1] + 2 * rows[:, 2], 80) / 80.0

        probs = probs_of(rows_all)
        scores = kernels.scaled_scores(rows_all, values)
        feas = probs >= alpha
        keys = tuple(rows_all[feas][:, c] for c in range(2, -1, -1)) + (scores[feas],)
        want = rows_all[feas][np.lexsort(keys)[:oracle.BEAM_WIDTH]]
        # the infeasible rows alone leave the beam empty, and their rescue
        # row is the lex-first of those at probability 39/80
        rows_i = rows_all[~feas]
        assert (probs_of(rows_i) == 39 / 80).sum() > 1
        monkeypatch.setattr(kernels, "eval_probs", lambda rows, *terms: probs_of(rows))
        for rows_in, feasible in ((rows_all, True), (rows_i, False)):
            for size in (7, 100, kernels.BLOCK_ROWS):
                blocks = np.split(rows_in, range(size, len(rows_in), size))
                for order in _block_orders(np.arange(len(blocks)), size):
                    red = _Reducer(alpha, oracle.BEAM_WIDTH)
                    for i in order:
                        rows = blocks[i]
                        red.consume(rows, kernels.scaled_scores(rows, values), probs_of(rows))
                    if feasible:
                        # every partition and order agrees with one full lexsort
                        assert np.array_equal(red.beam(), want)
                        assert kernels.scaled_scores(red.beam()[:1], values)[0] == 0.0
                    else:
                        assert red.beam().size == 0
                if not feasible:
                    # every partition, in lexicographic order, agrees too
                    row, prob = oracle._most_probable(blocks, 60, None, None)
                    assert np.array_equal(row, rows_i[np.argmax(probs_of(rows_i))])
                    assert prob == 39 / 80

    @pytest.mark.parametrize("idx,order,alpha", [
        ((1, 3), 1, 0.05), ((1, 3), 2, 0.25), ((1, 3), "lexi-low", 0.9),
        ((1, 3), "pointwise", 0.9), ((0, 2, 4), 2, 0.05), ((0, 2, 4), "lexi-low", 0.25),
        ((1, 2, 3, 3), 1, 0.05), ((1, 2, 3, 3), 3, 0.9), ((1, 2, 3, 3), "lexi-low", 0.25),
    ])
    def test_pruned_scan_equals_the_full_reduction(self, monkeypatch, unit5, idx, order, alpha):
        # the skipped boxes hold no row of the beam: the scan's beam is the
        # (score, row) lexsort of every feasible row of the simplex, and
        # with no feasible row (the pointwise case: 2 p (1 - p) <= 1/2) the
        # rescue row is the lex-first argmax over the whole simplex; so with
        # blocks of 500 rows, which cut through the 128-row boxes
        x = Sample(unit5, idx)
        order = {"lexi-low": LexiLow(), "pointwise": Pointwise(x)}.get(order) or Quantile(order)
        atoms = refined_support(x, order).indices
        U = upper_set(x, order, enumerate_omega(unit5, x.n))
        coefs, expts = oracle._member_terms(U, atoms)
        values = np.array([unit5.point(a) for a in atoms])
        N = 1000 if len(atoms) <= 3 else 40
        rows = np.concatenate(list(kernels.iter_composition_blocks(N, len(atoms))))
        probs = kernels.eval_probs(rows, N, coefs, expts)
        scores = kernels.scaled_scores(rows, values)
        feas = probs >= alpha
        keys = tuple(rows[feas][:, c] for c in range(len(atoms) - 1, -1, -1))
        want = rows[feas][np.lexsort(keys + (scores[feas],))[:oracle.BEAM_WIDTH]]
        assert feas.any() != isinstance(order, Pointwise)
        # the pointwise terms are not up-closed and get no ceilings
        floors = kernels.composition_floors(N, len(atoms), values)
        ceilings = None
        terms = kernels.Terms.of(coefs, expts)
        if terms.up_closed:
            ceilings = kernels.composition_ceilings(N, len(atoms), terms)
        assert (ceilings is None) == isinstance(order, Pointwise)
        # every box live, and boxes ruled out by their score floors, their
        # probability ceilings (folded into the floors as +inf) or both, the
        # live ones reaching the kernel in batches
        bounds = [None, floors]
        if ceilings is not None:
            bounds += [np.where(ceilings >= alpha, -math.inf, math.inf),
                       np.where(ceilings >= alpha, floors, math.inf)]
        for block_rows in (kernels.BLOCK_ROWS, 500):
            monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
            blocks = list(kernels.iter_composition_blocks(N, len(atoms)))
            for bound in bounds:
                red = oracle._scan_blocks(blocks, N, coefs, expts, values, alpha, bound)
                assert np.array_equal(red.beam().reshape(-1, len(atoms)), want)
            if not feas.any():
                row, prob = oracle._most_probable(blocks, N, coefs, expts)
                assert np.array_equal(row, rows[np.argmax(probs)])
                assert prob == probs.max()

    @pytest.mark.parametrize("order", [LexiLow(), LexiHigh(), Quantile(1)], ids=lambda o: o.name)
    def test_empty_terms_keep_the_rescue_path(self, order):
        # on atoms {0, 1} no member of x = (2, 2)'s upper set survives: the
        # polynomial is empty, and although vacuously closed under moving
        # mass up it gets no ceilings (every block's would be 0), so the scan
        # skips no box, and the error names the closest probability reached
        x = Sample(SupportGrid(0.0, 1.0, 3), (2, 2))
        cfg = OracleConfig(support_override=SupportSet.of([0, 1]))
        with pytest.raises(InfeasibleError) as exc:
            pessimal_bound_oracle(x, order, 0.3, cfg)
        assert str(exc.value) == (
            f"sample (2, 2), order {order.name}: no mass vector at step 1/8000 reaches"
            " constraint probability 0.3 (closest achieved 0)")
        assert pessimal_bound_oracle(x, order, 0.0, cfg).value.hex() == "0x0.0p+0"

    def test_dense_scan_skips_most_kernel_blocks(self, monkeypatch, unit5):
        # Quantile(1) at (1, 2, 3, 3) scans the N=1000 simplex on 3 atoms in
        # 62 blocks; visited low means first, the blocks that hold no
        # feasible row are ruled out by their probability ceilings, and the
        # beam fills early, so most blocks score above its cut; either way
        # they never reach the kernel, and most are ruled out before any
        # row is scored (the simplex blocks are the uint16 calls; the
        # ceilings' top-greedy points and refinement slices are int64)
        assert len(list(kernels.iter_composition_blocks(1000, 3))) == 62
        seen, scored = [], []
        real, real_scores = kernels.eval_probs, kernels.scaled_scores

        def spy(counts, N, coefs, expts):
            if counts.dtype == np.uint16:
                seen.append(counts.shape[0])
            return real(counts, N, coefs, expts)

        def scores_spy(counts, values):
            if counts.dtype == np.uint16:
                scored.append(counts.shape[0])
            return real_scores(counts, values)

        monkeypatch.setattr(kernels, "eval_probs", spy)
        monkeypatch.setattr(kernels, "scaled_scores", scores_spy)
        res = pessimal_bound_oracle(Sample(unit5, (1, 2, 3, 3)), Quantile(1), 0.05)
        assert res.mode == "dense"
        assert 0 < len(seen) <= len(scored) < 4
        # the first block fills the beam and is sent alone, so the next
        # blocks meet its cut: fewer rows than one block reach the kernel
        assert sum(seen) < kernels.BLOCK_ROWS

    @pytest.mark.parametrize("block_rows", [1 << 13, 500])
    @pytest.mark.parametrize("idx,order,alpha", [
        ((0, 2, 4), "lexi-high", 0.25), ((1, 2, 3, 3), 1, 0.05), ((1, 3), "pointwise", 0.05)])
    def test_scan_sends_every_row_of_every_live_box(self, monkeypatch, unit5, block_rows,
                                                    idx, order, alpha):
        # the rows scored, the kernel's candidates: every row once without
        # bounds; with bounds, each box's share of each block whole or not
        # at all, and every share held back has a box floor above the final
        # cut (the cut only falls), a box ceiling below alpha, or a
        # cut-limited ceiling below alpha at the cut of the re-bound. The
        # boxes are re-bounded once the beam is full, unless the live rows
        # left fit in one batch: at (1, 2, 3, 3) they do in blocks of 8,192
        # rows and not in blocks of 500; the pointwise terms are not
        # up-closed and get no ceilings
        x = Sample(unit5, idx)
        order = {"lexi-high": LexiHigh(), "pointwise": Pointwise(x)}.get(order) or Quantile(order)
        atoms = tuple(range(5)) if isinstance(order, LexiHigh) else refined_support(x, order).indices
        k = len(atoms)
        N = oracle._schedule(k, OracleConfig())[0]
        coefs, expts = oracle._member_terms(upper_set(x, order, enumerate_omega(unit5, x.n)), atoms)
        values = np.array([unit5.point(a) for a in atoms])
        floors = kernels.composition_floors(N, k, values)
        ceilings = np.full(floors.shape, math.inf)
        terms = kernels.Terms.of(coefs, expts)
        if terms.up_closed:
            ceilings = kernels.composition_ceilings(N, k, terms)
        box = kernels.BOX_ROWS
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
        blocks = list(kernels.iter_composition_blocks(N, k))
        radix = (N + 1) ** np.arange(k - 1, -1, -1)
        keys = np.concatenate(blocks) @ radix  # increasing: the rows are in lex order
        scored, cuts = [], []
        real, real_cut = kernels.scaled_scores, kernels.composition_cut_ceilings

        def spy(counts, values):
            scored.append(np.searchsorted(keys, counts @ radix))
            return real(counts, values)

        def cut_spy(*a):
            cuts.append(a[4])
            return real_cut(*a)

        monkeypatch.setattr(kernels, "scaled_scores", spy)
        monkeypatch.setattr(kernels, "composition_cut_ceilings", cut_spy)
        oracle._scan_blocks(blocks, N, coefs, expts, values, alpha)
        assert np.array_equal(np.sort(np.concatenate(scored)), np.arange(keys.size))
        scored.clear()
        live = np.where(ceilings >= alpha, floors, math.inf)
        red = oracle._scan_blocks(blocks, N, coefs, expts, values, alpha, live)
        assert len(cuts) == (idx == (0, 2, 4) or idx == (1, 2, 3, 3) and block_rows == 500)
        assert all(cut >= red.cut for cut in cuts)
        got = np.bincount(np.concatenate(scored), minlength=keys.size)
        assert got.max() == 1 and 0 < got.sum() < keys.size
        # one segment per (block, box) pair
        row = np.arange(keys.size)
        starts = np.cumsum([0] + [b.shape[0] for b in blocks])
        segment = np.cumsum(np.isin(row, starts) | (row % box == 0)) - 1
        share = np.bincount(segment, got) / np.bincount(segment)
        assert set(share.tolist()) == {0.0, 1.0}
        held = np.unique(row[share[segment] == 0] // box)
        by_box = (floors[held] > red.cut) | (ceilings[held] < alpha)
        by_cut = np.zeros(held.shape, dtype=bool)
        if cuts:
            by_cut = real_cut(N, k, terms, values, cuts[0], held) < alpha
        assert (by_box | by_cut).all()
        # at (0, 2, 4) the re-bound holds back boxes that the box bounds
        # keep live; at (1, 2, 3, 3) in blocks of 500 it holds back none
        assert (by_cut & ~by_box).any() == (idx == (0, 2, 4))

    def test_live_parts_equal_the_per_box_loop(self, monkeypatch):
        # the run-finding against the per-box loop it replaced, on floors
        # in runs of equal values, for blocks that start inside a box and
        # end inside or past one, at the box size and two others
        def by_box(rows, start, floors, box, cut):
            runs = []
            for b, floor in enumerate(floors[start // box:-(-(start + rows.shape[0]) // box)]
                                      .tolist(), start // box):
                if floor <= cut:
                    if runs and runs[-1][1] == b:
                        runs[-1][1] = b + 1
                    else:
                        runs.append([b, b + 1])
            return [rows[max(a * box - start, 0):z * box - start] for a, z in runs]

        rng = np.random.default_rng(11)
        simplex = np.arange(6000)[:, None]
        for box in (kernels.BOX_ROWS, 64, 7):
            monkeypatch.setattr(kernels, "BOX_ROWS", box)
            floors = np.repeat(rng.random(400), rng.integers(1, 6, 400))
            for start in (0, 1, box - 1, box, 5 * box + 3):
                for size in (1, box, 2 * box + 1, 3000):
                    rows = simplex[start:start + size]
                    for cut in (-1.0, 0.3, 0.7, 2.0):
                        got = oracle._live_parts(rows, start, floors, cut)
                        want = by_box(rows, start, floors, box, cut)
                        assert [p.ravel().tolist() for p in got] == [
                            p.ravel().tolist() for p in want], (box, start, size, cut)
                        assert all(np.shares_memory(p, rows) for p in got)

    def test_a_box_whose_ceiling_equals_alpha_stays_live(self, monkeypatch, unit3, unit5):
        # a row is feasible when its probability reaches alpha, so only a
        # ceiling below alpha rules its box out: at alpha equal to a box's
        # ceiling, the first scan gets that box's score floor, not +inf
        x, order = Sample(unit5, (1, 2, 3, 3)), Quantile(1)
        atoms = refined_support(x, order).indices
        k, N = len(atoms), 1000
        coefs, expts = oracle._member_terms(upper_set(x, order, enumerate_omega(unit5, x.n)),
                                            atoms)
        values = np.array([unit5.point(a) for a in atoms])
        ceilings = kernels.composition_ceilings(N, k, kernels.Terms.of(coefs, expts))
        alpha = float(np.sort(ceilings)[ceilings.size // 2])
        assert 0 < alpha < 1 and (ceilings < alpha).any() and (ceilings == alpha).any()
        seen = []
        real = oracle._scan_blocks

        def scan(blocks, *a):
            seen.append(a[-1])
            return real(blocks, *a)

        monkeypatch.setattr(oracle, "_scan_blocks", scan)
        assert pessimal_bound_oracle(x, order, alpha).mode == "dense"
        floors = kernels.composition_floors(N, k, values)
        assert np.array_equal(seen[0], np.where(ceilings >= alpha, floors, math.inf))
        assert np.isfinite(seen[0][ceilings == alpha]).all()
        monkeypatch.undo()
        # and so for the boxes' cut-limited ceilings: LexiHigh at (1, 2) on
        # the m=3 unit grid re-bounds its boxes once the first 3,456 rows
        # fill the beam; with every cut-limited ceiling equal to alpha
        # the rows sent are those sent with none (+inf), and with every one
        # an ulp below alpha no row is sent after the re-bound
        x, alpha = Sample(unit3, (1, 2)), 0.25
        want = pessimal_bound_oracle(x, LexiHigh(), alpha)
        sent = {}
        real_probs = kernels.eval_probs

        def spy(counts, N, coefs, expts):
            if counts.dtype == np.uint16:
                sent[ceiling].append(counts.shape[0])
            return real_probs(counts, N, coefs, expts)

        monkeypatch.setattr(kernels, "eval_probs", spy)
        for ceiling in (math.inf, alpha, math.nextafter(alpha, 0)):
            sent[ceiling] = []
            monkeypatch.setattr(kernels, "composition_cut_ceilings",
                                lambda *a: sent[ceiling].append("re-bound")
                                or np.full(len(a[-1]), ceiling))
            got = pessimal_bound_oracle(x, LexiHigh(), alpha)
            if ceiling >= alpha:
                assert got.value.hex() == want.value.hex()
                assert got.witness.mass.tobytes() == want.witness.mass.tobytes()
        assert sent[math.inf] == sent[alpha]
        assert sent[alpha][:2] == [3_456, "re-bound"] and len(sent[alpha]) > 2
        assert sent[math.nextafter(alpha, 0)] == [3_456, "re-bound"]

    def test_cut_floors_rebound_every_live_box_below_the_visited_rows(self, unit5):
        # LexiHigh at (0, 2, 4) on the five unit atoms at N = 40, alpha
        # 0.25: the re-bound gives +inf to exactly the boxes that start
        # below `end`, have a floor at most the cut (ties included) and a
        # cut-limited ceiling below alpha; every other box keeps its floor,
        # and the floors passed in are not written. Box b, whose floor is
        # the cut, is one of them, also as the last box below `end` when it
        # starts one row before it. When the live boxes below `end` hold at
        # most one batch of rows, exactly one included, nothing is
        # re-bounded.
        x = Sample(unit5, (0, 2, 4))
        coefs, expts = oracle._member_terms(upper_set(x, LexiHigh(), enumerate_omega(unit5, 3)),
                                            tuple(range(5)))
        terms = kernels.Terms.of(coefs, expts)
        values = np.array(unit5.points)
        N, k, alpha, box = 40, 5, 0.25, kernels.BOX_ROWS
        floors = np.where(kernels.composition_ceilings(N, k, terms) >= alpha,
                          kernels.composition_floors(N, k, values), math.inf)
        floors.flags.writeable = False
        batch = kernels.BLOCK_ROWS // box
        # the boxes that their own floor, as the cut, rules out, with more
        # than a batch of live boxes up to them
        own = np.flatnonzero(np.isfinite(floors))
        own = own[kernels.composition_cut_ceilings(N, k, terms, values, floors[own], own) < alpha]
        cases = [b for b in own.tolist() if (floors[:b + 1] <= floors[b]).sum() > batch][:3]
        assert len(cases) == 3
        for b in cases:
            cut = floors[b]
            for end in (b * box + 1, (b + 1) * box):
                got = oracle._cut_floors(floors, N, terms, values, alpha, cut, end)
                live = np.flatnonzero((floors <= cut) & (np.arange(floors.size) * box < end))
                assert live.size > batch
                want = floors.copy()
                ceilings = kernels.composition_cut_ceilings(N, k, terms, values, cut, live)
                want[live[ceilings < alpha]] = math.inf
                assert np.array_equal(got, want) and got[b] == math.inf and floors[b] == cut
        end = floors.size * box
        for extra in (0, 1):
            some = np.full(floors.shape, math.inf)
            some[-batch - extra:] = -math.inf
            got = oracle._cut_floors(some, N, terms, values, alpha, 0.0, end)
            assert (got is None) == (extra == 0)

    def test_first_c2f_scan_sends_only_live_boxes_to_the_kernel(self, monkeypatch, unit5):
        # LexiHigh at (0, 2, 4), alpha 0.25, on the five unit atoms: the
        # first scan of the N = 59 simplex, 595,665 uint8 rows in 73 blocks,
        # fills its beam from the live 128-row boxes and then re-bounds the
        # live boxes left under the beam's cut, so it sends 38,016 rows in
        # six calls (56,320 in seven with the box bounds alone); the
        # refinement slices and the ceilings' points are int64, and the
        # value is unchanged
        x = Sample(unit5, (0, 2, 4))
        seen = []
        real = kernels.eval_probs

        def spy(counts, N, coefs, expts):
            if counts.dtype == np.uint8:
                seen.append(counts.shape[0])
            return real(counts, N, coefs, expts)

        monkeypatch.setattr(kernels, "eval_probs", spy)
        res = pessimal_bound_oracle(x, LexiHigh(), 0.25)
        assert res.mode == "coarse-to-fine"
        assert len(seen) == 6 and sum(seen) == 38_016
        assert max(seen) < 2 * kernels.BLOCK_ROWS
        assert res.value.hex() == "0x1.23eea4e1a08aep-2"

    @pytest.mark.parametrize("idx,sent,value,prob,mass", [
        ((2, 2), [2_688], "0x1.0000000000000p-1", "0x1.0000000000000p-2",
         "000000000000e03f0000000000000000000000000000e03f"),
        ((1, 2), [3_456, 8_704, 11_392, 10_368, 9_216, 8_192, 2_816], "0x1.bb74bc6a7ef9ep-2",
         "0x1.00004ea4a8c15p-2",
         "f853e3a59bc4da3fd578e9263108d33f333333333333d23f"),
    ], ids=["(2,2)", "(1,2)"])
    def test_dense_first_scans_send_only_rows_under_the_cut(self, monkeypatch, unit3, idx, sent,
                                                            value, prob, mass):
        # LexiHigh on the three unit atoms at alpha 0.25, as `verify all
        # --m 3` runs it: the dense first scan of the N = 1000 simplex,
        # 501,501 uint16 rows, sends 69,120 rows at (2, 2) and 77,184 at
        # (1, 2) with the 128-row box bounds alone. Once the first batch
        # fills the beam, the live boxes left are re-bounded under its cut:
        # at (2, 2) no box stays live, and at (1, 2) 54,144 rows are sent in
        # all
        seen = []
        real = kernels.eval_probs

        def spy(counts, N, coefs, expts):
            if counts.dtype == np.uint16:
                seen.append(counts.shape[0])
            return real(counts, N, coefs, expts)

        monkeypatch.setattr(kernels, "eval_probs", spy)
        res = pessimal_bound_oracle(Sample(unit3, idx), LexiHigh(), 0.25)
        assert res.mode == "dense"
        assert seen == sent
        assert res.value.hex() == value
        assert res.constraint_prob.hex() == prob
        assert res.witness.mass.tobytes().hex() == mass

    @pytest.mark.parametrize("k", range(1, 11))
    def test_offsets_equal_the_product_filter(self, k):
        radius = _neighbor_radius(k)
        grid = itertools.product(range(-radius, radius + 1), repeat=k)
        want = np.array([o for o in grid if sum(o) == 0], dtype=np.int64)
        got = _zero_sum_offsets(k, radius)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_valid_offsets_equal_the_brute_force_filter(self, k):
        # every pattern at k <= 6, 200 sampled ones above: a centre entry
        # below the radius fixes its field, and any entry from the radius up
        # gives the full field; the memo's indices are the offsets that keep
        # a centre with that pattern non-negative
        radius = _neighbor_radius(k)
        offs = _zero_sum_offsets(k, radius)
        rng = np.random.default_rng(k)
        if k <= 6:
            patterns = np.array(list(itertools.product(range(radius + 1), repeat=k)))
        else:
            patterns = rng.integers(0, radius + 1, size=(200, k))
        for pattern in patterns.tolist():
            centre = np.array([v if v < radius else v + int(rng.integers(0, 4)) for v in pattern])
            got = oracle._valid_offsets(k, radius, _unary_code(pattern, radius))
            assert got.dtype == np.int32 and not got.flags.writeable
            assert np.array_equal(got, np.flatnonzero((centre + offs >= 0).all(axis=1)))

    def test_valid_offset_memo_is_bounded(self, monkeypatch):
        # the largest pattern the neighbourhood guard admits (k = 14, radius
        # 1, every offset) fits the default bound, which is a few MB
        assert 4 * _count_zero_sum_offsets(14, 1) <= oracle.VALID_OFFSETS_BYTES <= 8 << 20
        # every pattern at k = 5 (1.45 MB of indices in all), then at k = 10
        # (4.47 MB), under the default bound and a 100 kB one: the memo
        # never holds more than its bound, keeps each pattern as the most
        # recent, and drops the least recently used first
        for limit in (oracle.VALID_OFFSETS_BYTES, 100_000):
            memo = oracle._ByteBoundedMemo(limit)
            monkeypatch.setattr(oracle, "_VALID_OFFSETS", memo)
            for k in (5, 10):
                radius = _neighbor_radius(k)
                keys = [(k, radius, _unary_code(p, radius))
                        for p in itertools.product(range(radius + 1), repeat=k)]
                for key in keys:
                    got = oracle._valid_offsets(*key)
                    assert memo.nbytes <= limit
                    assert oracle._valid_offsets(*key) is got
                assert memo.nbytes == sum(a.nbytes for a in memo._arrays.values())
            kept = list(memo._arrays)
            assert kept == keys[-len(kept):] and len(kept) < len(keys)
        # an array above the bound is returned but not kept
        memo = oracle._ByteBoundedMemo(100)
        assert memo.get("big", lambda: np.zeros(26, dtype=np.int32)).size == 26
        assert memo.nbytes == 0 and not memo._arrays

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_offset_count_needs_no_offsets(self, radius):
        for k in range(1, 8):
            assert _count_zero_sum_offsets(k, radius) == len(_zero_sum_offsets(k, radius))
        # central trinomial coefficients, the k >= 7 neighbourhoods
        assert [_count_zero_sum_offsets(k, 1) for k in (14, 15, 16)] == [
            616_227, 1_787_607, 5_196_627
        ]

    @pytest.mark.parametrize("k", range(1, 15))
    def test_schedule_equals_the_stepwise_search(self, k):
        # the bisection for n0 against the doubling-then-stepping search it
        # replaced, over resolutions from 10 down to 1e-14 in thirds of a
        # decade; on one atom every simplex is a single cell, so k=1 is
        # always dense
        def stepwise(resolution):
            n_target = max(1, math.ceil(1.0 / resolution))
            if math.comb(n_target + k - 1, k - 1) <= oracle.CELL_BUDGET:
                return n_target, oracle.REFINE_PASSES, "dense"
            n0 = 1
            while math.comb(2 * n0 + k - 1, k - 1) <= oracle.CELL_BUDGET:
                n0 *= 2
            while math.comb(n0 + 1 + k - 1, k - 1) <= oracle.CELL_BUDGET:
                n0 += 1
            stages = max(0, math.ceil(math.log2(n_target / n0))) + oracle.REFINE_PASSES
            return n0, stages, "coarse-to-fine"

        modes = set()
        for e in range(-3, 43):
            resolution = 10.0 ** (-e / 3)
            got = oracle._schedule(k, OracleConfig(resolution=resolution))
            assert got == stepwise(resolution), resolution
            modes.add(got[2])
        assert modes == ({"dense"} if k == 1 else {"dense", "coarse-to-fine"})

    def test_neighbourhood_guard_fires_before_any_scan(self, monkeypatch):
        # k=16 atoms, coarse-to-fine: 5,196,627 offsets x 24 centres; the
        # guard reads only k, so neither the sample space nor the member
        # terms are built first
        calls = []
        monkeypatch.setattr(kernels, "iter_composition_blocks",
                            lambda *a: calls.append("scan") or iter(()))
        monkeypatch.setattr(oracle, "_member_terms", lambda *a: calls.append("terms"))
        monkeypatch.setattr(oracle, "enumerate_omega", lambda *a: calls.append("omega"))
        x = make_sample(SupportGrid(0.0, 1.0, 16), [0.2, 0.4])
        with pytest.raises(EnumerationGuardError, match="k=16"):
            pessimal_bound_oracle(x, LexiHigh(), 0.05)
        assert calls == []

    def test_neighbourhoods_are_scanned_in_kernel_slices(self, monkeypatch, unit5):
        # each refinement neighbourhood reaches the kernel in slices of at
        # most kernels.BLOCK_ROWS rows, and how finely it is sliced changes
        # no bit of the result
        x = Sample(unit5, (0, 2, 4))
        want = pessimal_bound_oracle(x, LexiHigh(), 0.25)
        sizes, scans = [], []
        real_neighborhood, real_scan = oracle._neighborhood, oracle._scan_blocks

        def neighborhood(centers, k, *bound):
            rows = real_neighborhood(centers, k, *bound)
            sizes.append(rows.shape[0])
            return rows

        def scan(blocks, *a):
            blocks = list(blocks)
            scans.append([b.shape[0] for b in blocks])
            return real_scan(blocks, *a)

        monkeypatch.setattr(oracle, "_neighborhood", neighborhood)
        monkeypatch.setattr(oracle, "_scan_blocks", scan)
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 500)
        got = pessimal_bound_oracle(x, LexiHigh(), 0.25)
        assert got.mode == "coarse-to-fine" and len(scans) == len(sizes) + 1
        assert max(sizes) > 500
        for size, blocks in zip(sizes, scans[1:]):
            assert sum(blocks) == size and max(blocks) <= 500
            assert len(blocks) == -(-size // 500)
        assert got.value.hex() == want.value.hex()
        assert got.constraint_prob.hex() == want.constraint_prob.hex()
        assert got.witness.mass.tobytes() == want.witness.mass.tobytes()
        assert got.final_step == want.final_step

    def test_kept_rows_are_int64_for_narrow_blocks(self):
        rows = np.concatenate(list(kernels.iter_composition_blocks(200, 2)))
        assert rows.dtype == np.uint8
        probs = rows[:, 1] / 200.0
        red = _Reducer(0.5, 4)
        red.consume(rows, rows[:, 0].astype(np.float64), probs)
        for kept in (red.beam()[0], red.beam()):
            assert kept.dtype == np.int64
        assert red.beam()[0].tolist() == [0, 200]
        # doubling a kept row for the next refinement stage must not wrap
        assert (red.beam() * 2).max() == 400
        # nor the rescue row, the most probable row when none is feasible:
        # probs are the single term c_1 / N
        rescue = _Reducer(1.5, 4)
        rescue.consume(rows, rows[:, 0].astype(np.float64), probs)
        assert rescue.beam().size == 0
        row, prob = oracle._most_probable([rows], 200, np.array([1.0]), np.array([[0, 1]]))
        assert (row.dtype, prob) == (np.int64, 1.0)
        assert (row * 2).tolist() == [0, 400]

    def test_narrow_blocks_give_the_int64_result(self, monkeypatch, unit3):
        # N = 200 at this resolution: uint8 blocks, and the witnesses put
        # more than 127/200 of the mass on one atom, so a kept row doubled
        # in its block's dtype would wrap in the first refinement pass
        cfg = OracleConfig(resolution=1 / 200)
        cases = [(Sample(unit3, (2, 2)), Quantile(1)), (Sample(unit3, (0, 1)), LexiLow())]
        narrow = [pessimal_bound_oracle(x, order, 0.9, cfg) for x, order in cases]
        real = kernels.iter_composition_blocks
        monkeypatch.setattr(
            kernels, "iter_composition_blocks",
            lambda N, k: (b.astype(np.int64) for b in real(N, k)),
        )
        for (x, order), got in zip(cases, narrow):
            want = pessimal_bound_oracle(x, order, 0.9, cfg)
            assert got.value.hex() == want.value.hex()
            assert got.witness.mass.tobytes() == want.witness.mass.tobytes()
            assert got.final_step == want.final_step == 1 / 1600
