import itertools
import json
import math

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

    @given(data=st.data(), m=st.integers(2, 4), n=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_over_omega(self, data, m, n):
        grid = SupportGrid(0, 1, m)
        F = Distribution(grid, np.asarray(data.draw(simplex_vectors(m))))
        total = sum(sample_prob(F, x) for x in enumerate_omega(grid, n))
        assert abs(total - 1.0) < 1e-9


def _reference_sample_prob(F, x):
    # per-sample multinomial: Python ** per distinct index in ascending
    # order, then times the exact integer coefficient
    coef, prob = math.factorial(x.n), 1.0
    for j in sorted(set(x.idx)):
        c = x.idx.count(j)
        coef //= math.factorial(c)
        prob *= float(F.mass[j]) ** c
    return coef * prob


class TestOmegaPmf:
    @pytest.mark.parametrize("m,n", [(5, 1), (7, 2), (6, 3), (4, 4), (3, 5), (2, 6), (4, 6)])
    def test_bit_identical_to_per_row_reference(self, m, n):
        # from no zero-mass atom up to a single atom carrying all the mass
        grid = SupportGrid(0, 1, m)
        omega = enumerate_omega(grid, n)
        rng = np.random.default_rng(100 * m + n)
        for zeros in range(m):
            mass = rng.dirichlet(np.ones(m))
            mass[rng.permutation(m)[:zeros]] = 0.0
            F = Distribution(grid, mass / mass.sum())
            got = [p.hex() for p in omega_pmf(F, omega).tolist()]
            assert got == [_reference_sample_prob(F, x).hex() for x in omega]


class TestProbUpperSet:
    @pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (5, 2), (5, 4)])
    def test_bit_identical_to_per_sample_reference(self, m, n):
        grid = SupportGrid(0, 1, m)
        omega = enumerate_omega(grid, n)
        rng = np.random.default_rng(m * 10 + n)
        for F in [Distribution(grid, rng.dirichlet(np.ones(m))) for _ in range(5)]:
            for x in omega:
                assert sample_prob(F, x).hex() == _reference_sample_prob(F, x).hex()
                for order in (LexiLow(), LexiHigh(), Quantile(n)):
                    u = upper_set(x, order, omega)
                    want = 0.0
                    for y in u.members:
                        want += _reference_sample_prob(F, y)
                    assert prob_upper_set(F, u).hex() == want.hex()

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

    def test_restrict_to(self, unit3):
        assert restrict_to(point_mass(unit3, 0), SupportSet.of([0]))
        assert not restrict_to(uniform(unit3), SupportSet.of([0, 2]))
        assert restrict_to(_dist(unit3, 0.3, 0.0, 0.7), SupportSet.of([0, 2]))


class TestAgreeOn:
    def test_identical(self, unit3):
        F = _dist(unit3, 0.2, 0.3, 0.5)
        assert agree_on(F, F, full_support(unit3))

    def test_agree_at_top_point(self, unit3):
        G = _dist(unit3, 0.2, 0.3, 0.5)
        H = _dist(unit3, 0.1, 0.4, 0.5)
        assert agree_on(G, H, SupportSet.of([2]))

    def test_disagree_at_middle(self, unit3):
        G = _dist(unit3, 0.2, 0.3, 0.5)
        H = _dist(unit3, 0.1, 0.4, 0.5)
        assert not agree_on(G, H, SupportSet.of([1]))


class TestTransfer:
    def test_already_refined_is_identity(self, unit5):
        C = SupportSet.of([1])
        aug = augment(C, unit5)
        assert aug.indices == (0, 1, 2)
        G = Distribution(unit5, np.array([0.4, 0.3, 0.3, 0.0, 0.0]))
        H = transfer_to_augmented(G, C, unit5)
        assert np.array_equal(G.mass, H.mass)

    def test_structure(self, unit5):
        rng = np.random.default_rng(3)
        for _ in range(50):
            G = Distribution(unit5, rng.dirichlet(np.ones(5)))
            C = SupportSet.of([1, 3])
            H = transfer_to_augmented(G, C, unit5)
            assert restrict_to(H, augment(C, unit5))
            assert agree_on(G, H, C)
            assert mean(H) <= mean(G) + 1e-12

    def test_preserves_upper_set_probability(self, unit5):
        """Quantile and low-lexicographic upper-set probabilities only see
        the pmf and cdf on the relevant values."""
        rng = np.random.default_rng(4)
        omega = enumerate_omega(unit5, 3)
        x = Sample(unit5, (1, 1, 3))
        cases = [
            (Quantile(2), SupportSet.of([x.order_stat(2)])),
            (LexiLow(), SupportSet.of(x.distinct_indices)),
        ]
        for order, C in cases:
            u = upper_set(x, order, omega)
            for _ in range(25):
                G = Distribution(unit5, rng.dirichlet(np.ones(5)))
                H = transfer_to_augmented(G, C, unit5)
                assert abs(prob_upper_set(G, u) - prob_upper_set(H, u)) <= 1e-12


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
