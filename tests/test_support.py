import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderbound import SupportGrid, Sample, enumerate_omega, homogeneous_sample, make_sample
from orderbound.support import GridError, parse_sample_values


class TestGrid:
    def test_midpoint(self):
        assert SupportGrid(0, 1, 5).point(2) == 0.5

    def test_endpoint(self):
        assert SupportGrid(0, 1, 2).point(1) == 1.0

    def test_negative_grid(self):
        # direct evaluation: -1 + 1 * (3 - (-1)) / 4 = 0
        assert SupportGrid(-1, 3, 5).point(1) == 0.0

    def test_endpoints_exact_for_awkward_floats(self):
        g = SupportGrid(0.1, 0.3, 7)
        assert g.point(0) == 0.1
        assert g.point(6) == 0.3
        assert g.point(6) - g.point(0) == 0.3 - 0.1

    def test_strictly_increasing(self):
        for s_min, s_max, m in [(0, 1, 11), (-2.5, 7.5, 17), (0.1, 0.3, 9)]:
            pts = SupportGrid(s_min, s_max, m).points
            assert all(a < b for a, b in zip(pts, pts[1:]))

    def test_points_computed_once_and_invisible_to_equality(self):
        g, fresh = SupportGrid(-2.5, 7.5, 17), SupportGrid(-2.5, 7.5, 17)
        h = hash(g)
        assert g.points is g.points
        assert g.points == tuple(g.point(i) for i in range(17))
        assert g == fresh and hash(g) == h == hash(fresh)
        assert repr(g) == repr(fresh)
        assert len({g, fresh}) == 1

    def test_invalid(self):
        with pytest.raises(GridError):
            SupportGrid(0, 1, 1)
        with pytest.raises(GridError):
            SupportGrid(1, 0, 3)
        with pytest.raises(GridError):
            SupportGrid(0, 1, 3).point(3)

    def test_m_is_read_as_an_index(self):
        # numpy integers are the grid of that many points, stored as a
        # Python int; anything else that is no index is named as such
        g = SupportGrid(0, 1, np.int64(5))
        assert g == SupportGrid(0, 1, 5) and hash(g) == hash(SupportGrid(0, 1, 5))
        assert type(g.m) is int and g.points == SupportGrid(0, 1, 5).points
        for m, shown in [(5.0, "5.0"), ("5", "'5'"), (None, "None")]:
            with pytest.raises(GridError) as exc:
                SupportGrid(0, 1, m)
            assert str(exc.value) == f"m must be an integer, got {shown}"
        with pytest.raises(GridError) as exc:
            SupportGrid(0, 1, np.int64(1))
        assert str(exc.value) == "need at least 2 support points, got m=1"

    def test_range_overflowing_a_double_rejected(self):
        # an infinite spacing made make_sample's tolerance infinite, and
        # [0.5, 12345.0] snapped silently to indices (0, 0)
        with pytest.raises(GridError, match="overflows a double"):
            SupportGrid(-1e308, 1e308, 3)
        # a range of 1.6e308 is finite and still resolves values exactly
        g = SupportGrid(-8e307, 8e307, 3)
        assert make_sample(g, [0.0, 8e307]).idx == (1, 2)


class TestMakeSample:
    def test_sorts(self, unit2):
        assert make_sample(unit2, [1.0, 0.0]).idx == (0, 1)

    def test_duplicates_allowed(self, unit3):
        assert make_sample(unit3, [0.5, 0.5]).idx == (1, 1)

    def test_off_grid_rejected(self, unit3):
        with pytest.raises(GridError):
            make_sample(unit3, [0.3])

    def test_empty_rejected(self, unit3):
        with pytest.raises(GridError):
            make_sample(unit3, [])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, unit3, bad):
        with pytest.raises(GridError, match="not finite"):
            make_sample(unit3, [0.5, bad])

    def test_tiny_perturbation_resolved(self, unit3):
        assert make_sample(unit3, [0.5 + 1e-12]).idx == (1,)

    @given(
        m=st.integers(2, 8),
        raw=st.lists(st.integers(0, 7), min_size=1, max_size=5),
    )
    @settings(max_examples=200)
    def test_roundtrip_identity(self, m, raw):
        grid = SupportGrid(-1.5, 2.5, m)
        x = Sample(grid, tuple(sorted(i % m for i in raw)))
        assert make_sample(grid, list(x.values)).idx == x.idx


def test_homogeneous(unit3, unit5):
    assert homogeneous_sample(unit3, 0, 2).idx == (0, 0)
    assert homogeneous_sample(unit3, 2, 1).idx == (2,)
    assert homogeneous_sample(unit5, 2, 3).idx == (2, 2, 2)
    with pytest.raises(GridError):
        homogeneous_sample(unit3, 3, 2)
    with pytest.raises(GridError):
        homogeneous_sample(unit3, 0, 0)


def test_sample_validation(unit3):
    with pytest.raises(GridError):
        Sample(unit3, (1, 0))
    with pytest.raises(GridError):
        Sample(unit3, ())
    with pytest.raises(GridError):
        Sample(unit3, (0, 5))


@pytest.mark.parametrize("idx,message", [
    ((), "a sample needs at least one component"),
    ((0, 1.0), "sample indices must be integers"),
    ((0, "1"), "sample indices must be integers"),
    ((2, 3), "sample indices (2, 3) outside grid range"),
    ((-1, 0), "sample indices (-1, 0) outside grid range"),
    # the range is checked before the order
    ((3, 0), "sample indices (3, 0) outside grid range"),
    ((1, 0), "sample indices must be non-decreasing"),
    ((0, 2, 1, 2), "sample indices must be non-decreasing"),
])
def test_sample_validation_messages(unit3, idx, message):
    with pytest.raises(GridError) as err:
        Sample(unit3, idx)
    assert str(err.value) == message


def test_sample_indices_become_python_ints(unit3):
    x = Sample(unit3, [np.int64(0), True, np.uint8(2)])
    assert x.idx == (0, 1, 2) and all(type(i) is int for i in x.idx)


def _leq(x, y):
    """x <= y in the componentwise order of their sample space."""
    omega = enumerate_omega(x.grid, x.n)
    return bool(omega.componentwise_leq()[omega.position(x), omega.position(y)])


class TestComponentwise:
    def test_reflexive(self, unit3):
        assert _leq(Sample(unit3, (0, 2)), Sample(unit3, (0, 2)))

    def test_example(self, unit3):
        assert _leq(Sample(unit3, (0, 1)), Sample(unit3, (0, 2)))

    def test_incomparable_pair(self, unit3):
        x, y = Sample(unit3, (0, 2)), Sample(unit3, (1, 1))
        assert not _leq(x, y)
        assert not _leq(y, x)

    @pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3) for n in (1, 2, 3)])
    def test_partial_order_axioms(self, m, n):
        omega = enumerate_omega(SupportGrid(0, 1, m), n)
        leq = omega.componentwise_leq()
        for (a, x), (b, y) in itertools.product(enumerate(omega), repeat=2):
            assert leq[a, b] == all(i <= j for i, j in zip(x.idx, y.idx))
        assert leq.diagonal().all()
        assert np.array_equal(leq & leq.T, np.eye(len(omega), dtype=bool))
        # transitive: a <= c whenever some b has a <= b <= c
        chained = leq.astype(np.int64) @ leq.astype(np.int64) > 0
        assert not (chained & ~leq).any()


def test_parse_sample_values():
    assert parse_sample_values("0.5, 1") == [0.5, 1.0]
    assert parse_sample_values("[0.5, 1]") == [0.5, 1.0]
    assert parse_sample_values("[-1, 2e0]") == [-1.0, 2.0]
    with pytest.raises(GridError):
        parse_sample_values("   ")
    # JSON entries must be numbers: ints or floats, not bools, strings,
    # nulls or lists; the first other one is named
    for text, entry in [("[null]", "null"), ("[[0.5]]", "[0.5]"), ("[true, 1]", "true"),
                        ('[0, "1"]', '"1"'), ("[1, false]", "false"), ('[{"a": 1}]', '{"a": 1}')]:
        with pytest.raises(GridError) as exc:
            parse_sample_values(text)
        assert str(exc.value) == f"sample entry {entry} is not a number", text
    with pytest.raises(GridError, match=r"^sample entry 1000+ overflows a double$"):
        parse_sample_values(f"[{10 ** 400}]")
    # comma-form entries are ASCII decimals, inf or nan; inf and nan are
    # left for make_sample to refuse as not finite
    assert parse_sample_values(" 1., .5 ,-2e-1,+3E+0,4") == [1.0, 0.5, -0.2, 3.0, 4.0]
    assert parse_sample_values("1e999,0") == [math.inf, 0.0]
    assert [str(v) for v in parse_sample_values("inf,-INF,nan")] == ["inf", "-inf", "nan"]
    for entry in ["1_0", "\u0661", "\uff11", "0x10", "1e", ".", "1.2.3", "e5", "1 2",
                  "infinity", "+-1", "1e+"]:
        with pytest.raises(GridError) as exc:
            parse_sample_values(f"0.5,{entry}")
        assert str(exc.value) == f"sample entry {entry} is not a number", entry


def test_order_stat_is_one_based(unit5):
    x = Sample(unit5, (0, 2, 3))
    assert x.order_stat(1) == 0
    assert x.order_stat(3) == 3
    with pytest.raises(GridError):
        x.order_stat(0)
