import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderbound import (
    Distribution,
    LexiHigh,
    LexiLow,
    Quantile,
    Sample,
    SupportGrid,
    SupportSet,
    UpperSet,
    augment,
    enumerate_omega,
    mean,
    prob_upper_set,
    sample_prob,
    upper_set,
)
from orderbound.dist import (
    agree_on,
    distribution_from_json,
    full_support,
    mean_lipschitz_check,
    omega_pmf,
    point_mass,
    restrict_to,
    transfer_to_augmented,
    uniform,
)


def _dist(grid, *mass):
    return Distribution(grid, np.asarray(mass, dtype=float))


@st.composite
def simplex_vectors(draw, m):
    weights = draw(
        st.lists(st.integers(0, 50), min_size=m, max_size=m).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    return [w / total for w in weights]


class TestDistribution:
    def test_validation(self, unit3):
        with pytest.raises(ValueError):
            _dist(unit3, 0.5, 0.5)  # wrong length
        with pytest.raises(ValueError):
            _dist(unit3, 0.7, 0.4, -0.1)
        with pytest.raises(ValueError):
            _dist(unit3, 0.5, 0.5, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, unit2, bad):
        with pytest.raises(ValueError, match="non-finite"):
            _dist(unit2, bad, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            distribution_from_json(unit2, f"[{json.dumps(bad)}, 1.0]")

    @pytest.mark.parametrize("text,entry", [
        ("[true, false]", "true"), ('["0.5", "0.5"]', '"0.5"'), ("[0.5, null]", "null"),
        ("[[0.5, 0.5]]", "[0.5, 0.5]"), ("[1, false]", "false")])
    def test_json_entries_that_are_not_numbers_rejected(self, unit2, text, entry):
        # bools and numeric strings convert to floats, but are no masses
        with pytest.raises(ValueError) as exc:
            distribution_from_json(unit2, text)
        assert str(exc.value) == f"mass entry {entry} is not a number"
        with pytest.raises(ValueError, match=r"^mass entry 1000+ overflows a double$"):
            distribution_from_json(unit2, f"[{10 ** 400}, 0]")
        # JSON ints are numbers
        assert distribution_from_json(unit2, "[1, 0]").mass.tolist() == [1.0, 0.0]

    def test_json_roundtrip(self, unit3):
        F = _dist(unit3, 0.2, 0.3, 0.5)
        G = distribution_from_json(unit3, F.to_json())
        assert np.array_equal(F.mass, G.mass)

    def test_mass_is_frozen(self, unit2):
        F = uniform(unit2)
        with pytest.raises(ValueError):
            F.mass[0] = 0.9


class TestMean:
    def test_point_mass_at_min(self, unit3):
        assert mean(point_mass(unit3, 0)) == 0.0

    def test_uniform_two_points(self, unit2):
        assert mean(uniform(unit2)) == 0.5

    def test_dot_product(self, unit2):
        assert mean(_dist(unit2, 0.25, 0.75)) == 0.75

    def test_within_support_range(self):
        grid = SupportGrid(-2.0, 3.0, 4)
        rng = np.random.default_rng(0)
        for _ in range(100):
            F = Distribution(grid, rng.dirichlet(np.ones(4)))
            assert grid.s_min <= mean(F) <= grid.s_max


class TestSampleProb:
    def test_point_mass(self, unit2):
        assert sample_prob(point_mass(unit2, 0), Sample(unit2, (0, 0))) == 1.0

    def test_mixed_multiset(self, unit2):
        assert sample_prob(uniform(unit2), Sample(unit2, (0, 1))) == 0.5

    def test_homogeneous(self, unit2):
        assert sample_prob(uniform(unit2), Sample(unit2, (0, 0))) == 0.25

    def test_grid_mismatch(self, unit2, unit3):
        with pytest.raises(ValueError):
            sample_prob(uniform(unit2), Sample(unit3, (0,)))

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (5, 2), (5, 4), (11, 3)])
    def test_bit_identical_to_per_sample_reference(self, m, n):
        # from x's one row alone, on a grid with negative points; zero-mass
        # atoms included
        grid = SupportGrid(-1.5, 2.0, m)
        rng = np.random.default_rng(m * 10 + n)
        masses = rng.dirichlet(np.ones(m), size=5)
        masses[1, rng.permutation(m)[:m // 2]] = 0.0
        masses /= masses.sum(axis=1, keepdims=True)
        for mass in masses:
            F = Distribution(grid, mass)
            for x in enumerate_omega(grid, n):
                assert sample_prob(F, x).hex() == _reference_sample_prob(F, x).hex(), x.idx

    @given(data=st.data(), m=st.integers(2, 4), n=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_over_omega(self, data, m, n):
        grid = SupportGrid(0, 1, m)
        F = Distribution(grid, np.asarray(data.draw(simplex_vectors(m))))
        total = sum(sample_prob(F, x) for x in enumerate_omega(grid, n))
        assert abs(total - 1.0) < 1e-9


def _reference_sample_prob(F, x):
    # per-sample multinomial: each distinct index's power F(S_j)^c as the
    # left-to-right product 1.0 * p * ... * p, the powers multiplied in
    # ascending index order, then times the exact integer coefficient
    coef, prob = math.factorial(x.n), 1.0
    for j in sorted(set(x.idx)):
        c = x.idx.count(j)
        coef //= math.factorial(c)
        power = 1.0
        for _ in range(c):
            power *= float(F.mass[j])
        prob *= power
    return coef * prob


class TestOmegaPmf:
    @pytest.mark.parametrize("m,n", [(5, 1), (7, 2), (6, 3), (4, 4), (3, 5), (2, 6), (4, 6),
                                     (12, 2)])
    def test_bit_identical_to_per_row_reference(self, m, n):
        # from no zero-mass atom up to a single atom carrying all the mass;
        # one stack of all of them gives the same rows bit for bit
        grid = SupportGrid(0, 1, m)
        omega = enumerate_omega(grid, n)
        rng = np.random.default_rng(100 * m + n)
        masses = []
        for zeros in range(m):
            mass = rng.dirichlet(np.ones(m))
            mass[rng.permutation(m)[:zeros]] = 0.0
            masses.append(mass / mass.sum())
        stacked = omega_pmf(np.stack(masses), omega)
        for mass, row in zip(masses, stacked):
            F = Distribution(grid, mass)
            want = [_reference_sample_prob(F, x).hex() for x in omega]
            assert [p.hex() for p in omega_pmf(F, omega).tolist()] == want
            assert [p.hex() for p in row.tolist()] == want

    @pytest.mark.parametrize("m,n", [(5, 1), (7, 2), (6, 3), (4, 4), (3, 5), (2, 6), (4, 6)])
    def test_within_2n_eps_of_the_exact_rational(self, m, n):
        # against the exact multinomial probability of the float masses,
        # zero-mass atoms included: each entry is at most n roundings off
        grid = SupportGrid(0, 1, m)
        omega = enumerate_omega(grid, n)
        rng = np.random.default_rng(1000 + 10 * m + n)
        masses = rng.dirichlet(np.ones(m), size=m)
        for zeros, mass in enumerate(masses):
            mass[rng.permutation(m)[:zeros]] = 0.0
        masses /= masses.sum(axis=1, keepdims=True)
        tol = Fraction(2 * n) * Fraction(np.finfo(np.float64).eps)
        for mass, row in zip(masses, omega_pmf(masses, omega)):
            for x, got in zip(omega, row.tolist()):
                exact = Fraction(math.factorial(n))
                for j in set(x.idx):
                    c = x.idx.count(j)
                    exact *= Fraction(float(mass[j])) ** c / math.factorial(c)
                assert abs(Fraction(got) - exact) <= tol * exact, (mass.tolist(), x.idx)

    def test_stack_shape_and_checks(self, unit3):
        omega = enumerate_omega(unit3, 2)
        assert omega_pmf(np.full((4, 3), 1 / 3), omega).shape == (4, len(omega))
        assert omega_pmf(uniform(unit3), omega).shape == (len(omega),)
        for bad, match in (([1 / 3] * 3, "length"), ([[0.5, 0.5]], "length"),
                           ([[0.2, 0.3, 0.6]], "sum to 1"), ([[1.5, -0.5, 0.0]], "negative")):
            with pytest.raises(ValueError, match=match):
                omega_pmf(np.array(bad), omega)


class TestProbUpperSet:
    @pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (5, 2), (5, 4)])
    def test_bit_identical_to_per_sample_reference(self, m, n):
        # a stack of the five distributions gives each one's value bit for bit
        grid = SupportGrid(0, 1, m)
        omega = enumerate_omega(grid, n)
        rng = np.random.default_rng(m * 10 + n)
        Fs = [Distribution(grid, rng.dirichlet(np.ones(m))) for _ in range(5)]
        stack = np.stack([F.mass for F in Fs])
        for x in omega:
            for order in (LexiLow(), LexiHigh(), Quantile(n)):
                u = upper_set(x, order, omega)
                for F, p in zip(Fs, prob_upper_set(stack, u).tolist()):
                    want = 0.0
                    for y in u.members:
                        want += _reference_sample_prob(F, y)
                    assert prob_upper_set(F, u).hex() == want.hex()
                    assert p.hex() == want.hex()

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (11, 3)])
    def test_member_rows_sum_the_omega_pmf_in_order(self, m, n):
        # only the member rows are evaluated, and each keeps the bits
        # omega_pmf gives it; the empty mask sums to 0.0
        grid = SupportGrid(-1.5, 2.0, m)
        omega = enumerate_omega(grid, n)
        rng = np.random.default_rng(7 * m + n)
        stack = rng.dirichlet(np.ones(m), size=6)
        F = Distribution(grid, stack[0])
        single, stacked = omega_pmf(F, omega), omega_pmf(stack, omega)
        x = omega[len(omega) // 2]
        sets = [upper_set(x, order, omega) for order in (LexiLow(), LexiHigh(), Quantile(2))]
        sets.append(UpperSet(x, LexiLow(), omega, np.zeros(len(omega), dtype=bool)))
        for u in sets:
            want = 0.0
            for p in single[u.mask].tolist():
                want += p
            assert prob_upper_set(F, u).hex() == want.hex()
            for got, row in zip(prob_upper_set(stack, u).tolist(), stacked):
                want = 0.0
                for p in row[u.mask].tolist():
                    want += p
                assert got.hex() == want.hex()
        assert prob_upper_set(F, sets[-1]) == 0.0

    def test_one_float_per_distribution(self, unit3):
        omega = enumerate_omega(unit3, 2)
        u = upper_set(Sample(unit3, (1, 2)), LexiLow(), omega)
        assert type(prob_upper_set(uniform(unit3), u)) is float
        stacked = prob_upper_set(np.stack([uniform(unit3).mass, point_mass(unit3, 2).mass]), u)
        assert stacked.shape == (2,) and stacked[1] == 1.0

    def test_full_omega_is_one(self, unit3):
        omega = enumerate_omega(unit3, 2)
        F = _dist(unit3, 0.2, 0.3, 0.5)
        u = upper_set(omega[0], LexiLow(), omega)  # bottom sample: upper set is all
        assert u.member_set() == {x.idx for x in omega}
        assert abs(prob_upper_set(F, u) - 1.0) < 1e-12

    def test_singleton_point_mass(self, unit2):
        omega = enumerate_omega(unit2, 2)
        x = Sample(unit2, (1, 1))
        u = upper_set(x, LexiLow(), omega)
        assert prob_upper_set(point_mass(unit2, 1), u) == 1.0

    def test_uniform_top(self, unit2):
        omega = enumerate_omega(unit2, 2)
        u = upper_set(Sample(unit2, (1, 1)), LexiLow(), omega)
        assert prob_upper_set(uniform(unit2), u) == 0.25

    def test_monotone_under_inclusion(self, unit3):
        """Nested upper sets give ordered probabilities."""
        omega = enumerate_omega(unit3, 2)
        rng = np.random.default_rng(1)
        order = LexiLow()
        for _ in range(20):
            F = Distribution(unit3, rng.dirichlet(np.ones(3)))
            for x, y in itertools.permutations(omega, 2):
                if order.leq(x, y):
                    ux = upper_set(x, order, omega)
                    uy = upper_set(y, order, omega)
                    assert uy.member_set() <= ux.member_set()
                    assert prob_upper_set(F, uy) <= prob_upper_set(F, ux) + 1e-12


class TestSupportSets:
    def test_augment_interior(self, unit3):
        assert augment(SupportSet.of([0]), unit3).indices == (0, 1)

    def test_augment_top_has_no_successor(self, unit3):
        assert augment(SupportSet.of([2]), unit3).indices == (0, 2)

    def test_augment_empty(self, unit3):
        assert augment(SupportSet.of([]), unit3).indices == (0,)

    def test_augment_refuses_an_index_off_the_grid(self, unit3):
        with pytest.raises(ValueError, match="support index 5 outside grid"):
            augment(SupportSet.of([1, 5, 7]), unit3)

    def test_indices_sorted_unique_ints(self):
        s = SupportSet((np.int64(3), 1, True, 3))
        assert s.indices == (1, 3)
        assert all(type(i) is int for i in s.indices)
        assert SupportSet.of(i for i in (2, 0, 2)).indices == (0, 2)
        assert 2 in SupportSet.of([0, 2]) and 1 not in SupportSet.of([0, 2])

    @pytest.mark.parametrize("indices", [(0.5, 2), (1.0,), ("1",)])
    def test_non_integer_indices_rejected(self, indices):
        # a float index would otherwise build and fail deep in a scan
        with pytest.raises(ValueError, match="support indices must be integers"):
            SupportSet(indices)
        with pytest.raises(ValueError, match="support indices must be integers"):
            SupportSet.of(indices)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SupportSet((-1, 2))

    def test_restrict_to(self):
        assert restrict_to(np.array([1.0, 0.0, 0.0]), SupportSet.of([0]))
        assert not restrict_to(np.full(3, 1 / 3), SupportSet.of([0, 2]))
        assert restrict_to(np.array([0.3, 0.0, 0.7]), SupportSet.of([0, 2]))

    def test_restrict_to_one_bool_per_row(self):
        stack = np.array([[1.0, 0.0, 0.0], [0.3, 0.0, 0.7], [0.2, 1e-14, 0.8]])
        assert restrict_to(stack, SupportSet.of([0])).tolist() == [True, False, False]
        assert restrict_to(stack, SupportSet.of([0, 2])).tolist() == [True, True, False]


class TestAgreeOn:
    G = np.array([0.2, 0.3, 0.5])
    H = np.array([0.1, 0.4, 0.5])

    def test_identical(self, unit3):
        assert agree_on(self.G, self.G, full_support(unit3))

    def test_agree_at_top_point(self):
        assert agree_on(self.G, self.H, SupportSet.of([2]))

    def test_disagree_at_middle(self):
        assert not agree_on(self.G, self.H, SupportSet.of([1]))

    def test_one_bool_per_row(self):
        G = np.stack([self.G, self.G, self.H])
        H = np.stack([self.G, self.H, self.G])
        assert agree_on(G, H, SupportSet.of([1])).tolist() == [True, False, False]
        assert agree_on(G, H, SupportSet.of([2])).tolist() == [True, True, True]

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="shapes differ"):
            agree_on(self.G[None], np.stack([self.G, self.H]), SupportSet.of([2]))


def _transfer_reference(g, C):
    # the per-vector construction, one slice sum per gap; the column-by-column
    # sums equal it bit for bit
    s, out = list(C.indices), np.zeros(g.size)
    out[s] = g[s]
    out[0] += g[: s[0]].sum()
    for a, b in zip(s, s[1:] + [g.size]):
        if a + 1 < b:
            out[a + 1] += g[a + 1:b].sum()
    return out


class TestTransfer:
    def test_already_refined_is_identity(self, unit5):
        C = SupportSet.of([1])
        aug = augment(C, unit5)
        assert aug.indices == (0, 1, 2)
        G = np.array([0.4, 0.3, 0.3, 0.0, 0.0])
        assert np.array_equal(transfer_to_augmented(G, C, unit5), G)

    def test_structure(self, unit5):
        G = np.random.default_rng(3).dirichlet(np.ones(5), size=50)
        C = SupportSet.of([1, 3])
        H = transfer_to_augmented(G, C, unit5)
        assert H.shape == G.shape
        assert restrict_to(H, augment(C, unit5)).all()
        assert agree_on(G, H, C).all()
        pts = np.asarray(unit5.points)
        assert (H @ pts <= G @ pts + 1e-12).all()

    def test_rows_match_single_vectors_and_reference(self, unit5):
        G = np.random.default_rng(6).dirichlet(np.ones(5), size=40)
        for r in range(1, 6):
            for C in map(SupportSet, itertools.combinations(range(5), r)):
                H = transfer_to_augmented(G, C, unit5)
                for g, h in zip(G, H):
                    assert h.tobytes() == transfer_to_augmented(g, C, unit5).tobytes()
                    assert h.tobytes() == _transfer_reference(g, C).tobytes()

    def test_empty_support_sends_everything_to_the_minimum(self, unit3):
        H = transfer_to_augmented(np.array([[0.2, 0.3, 0.5]]), SupportSet(()), unit3)
        assert H.tolist() == [[1.0, 0.0, 0.0]]

    def test_preserves_upper_set_probability(self, unit5):
        """Quantile and low-lexicographic upper-set probabilities only see
        the pmf and cdf on the relevant values."""
        G = np.random.default_rng(4).dirichlet(np.ones(5), size=25)
        omega = enumerate_omega(unit5, 3)
        x = Sample(unit5, (1, 1, 3))
        cases = [
            (Quantile(2), SupportSet.of([x.order_stat(2)])),
            (LexiLow(), SupportSet.of(x.distinct_indices)),
        ]
        for order, C in cases:
            u = upper_set(x, order, omega)
            H = transfer_to_augmented(G, C, unit5)
            assert (np.abs(prob_upper_set(G, u) - prob_upper_set(H, u)) <= 1e-12).all()


class TestLipschitz:
    def test_equal_distributions(self, unit3):
        F = uniform(unit3)
        assert mean_lipschitz_check(unit3, F.mass[None], F.mass[None]).tolist() == [True]

    def test_endpoint_masses(self, unit2):
        u, v = point_mass(unit2, 0), point_mass(unit2, 1)
        assert mean_lipschitz_check(unit2, u.mass[None], v.mass[None]).tolist() == [True]

    def test_negative_support_needs_abs_constant(self):
        # |mean difference| = 4 here; a bound scaled by s_max = 1 alone
        # would give sqrt(2) * 1 * sqrt(2) = 2 and fail.
        grid = SupportGrid(-3.0, 1.0, 2)
        u, v = point_mass(grid, 0), point_mass(grid, 1)
        assert mean_lipschitz_check(grid, u.mass[None], v.mass[None]).tolist() == [True]

    def test_random_pairs(self, unit5):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            u = Distribution(unit5, rng.dirichlet(np.ones(5)))
            v = Distribution(unit5, rng.dirichlet(np.ones(5)))
            assert mean_lipschitz_check(unit5, u.mass[None], v.mass[None]).tolist() == [True]

    def test_every_row_gets_the_distribution_checks(self, unit3):
        ok = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        assert mean_lipschitz_check(unit3, ok, ok[::-1]).tolist() == [True, True]
        for bad, match in (([[0.2, 0.3, 0.5], [0.2, 0.3, 0.6]], "sum to 1"),
                           ([[0.2, 0.3, 0.5], [1.5, -0.5, 0.0]], "negative"),
                           ([[0.2, 0.3, 0.5], [np.nan, 0.5, 0.5]], "non-finite"),
                           ([[0.5, 0.5], [0.5, 0.5]], "length"),
                           ([0.2, 0.3, 0.5], "length"),
                           ([[0.2, 0.3, 0.5]], "equally many")):
            with pytest.raises(ValueError, match=match):
                mean_lipschitz_check(unit3, ok, bad)
