import itertools
import math
import tracemalloc

import numpy as np
import pytest

from orderbound import (
    Distribution,
    LexiLow,
    LexiHigh,
    Omega,
    OracleConfig,
    Pointwise,
    Quantile,
    Sample,
    SupportGrid,
    enumerate_omega,
)
from orderbound import dist, harness, kernels, oracle
from orderbound.dist import point_mass, sample_prob, uniform
from orderbound.harness import (
    OracleCache,
    agreement_campaign,
    consistency_campaign,
    exact_coverage,
    make_oracle_bound,
    make_rng,
    mc_coverage,
    run_all,
    value_tolerance,
    verify_agreement,
    verify_consistency,
    verify_lipschitz,
    verify_refinement,
    verify_sandwich,
)
from orderbound.orders import CustomTable

CFG = OracleConfig(resolution=1e-3)


class TestExactCoverage:
    def test_constant_minimum_bound_covers_everything(self, unit3):
        F = Distribution(unit3, np.array([0.2, 0.3, 0.5]))
        report = exact_coverage(F, lambda x: unit3.s_min, 2, 0.25, method="const")
        assert report.coverage == 1.0
        assert report.mode == "EXACT"

    def test_point_mass_with_oracle_bound(self, unit3):
        bound = make_oracle_bound(LexiLow(), 0.25, OracleCache(CFG))
        report = exact_coverage(point_mass(unit3, 1), bound, 2, 0.25)
        assert report.coverage == 1.0

    def test_uniform_two_point_grid(self, unit2):
        # bounds: 0 at (0,0); ~0.134 at (0,1); 0.5 at (1,1); mean is 0.5
        bound = make_oracle_bound(LexiLow(), 0.25, OracleCache(CFG))
        report = exact_coverage(uniform(unit2), bound, 2, 0.25)
        assert report.coverage == pytest.approx(1.0, abs=1e-12)

    def test_never_above_one_over_simplex_sweep(self):
        # a bound at s_min covers every sample, so coverage is the whole pmf
        # summed; among these, the uniform m=5, n=3 case once read
        # 1.0000000000000007 (as in `coverage --exact --m 5 --n 3
        # --order lexi-high`, which covers every sample too)
        for m in (2, 3, 4, 5):
            grid = SupportGrid(0.0, 1.0, m)
            weights = [w for w in itertools.product(range(3), repeat=m) if sum(w)]
            for w in weights + [(1,) * m]:
                F = Distribution(grid, np.asarray(w) / sum(w))
                for n in (1, 2, 3, 4):
                    cov = exact_coverage(F, lambda x: grid.s_min, n, 0.05).coverage
                    assert 0.0 <= cov <= 1.0, (m, w, n, cov)

    def test_covered_pmf_summed_exactly(self, unit3):
        # covered iff the sample mean is at most 0.5: a left-to-right sum
        # of these pmf terms reads 0.6666666666666667
        F = uniform(unit3)
        report = exact_coverage(F, lambda x: sum(x.values) / x.n, 2, 0.1)
        covered = [sample_prob(F, x) for x in enumerate_omega(unit3, 2) if sum(x.values) <= 1.0]
        assert report.coverage == math.fsum(covered) == 0.6666666666666666

    def test_partial_coverage_case(self, unit2):
        # mean 0.2 sits below the bound at (1,1), which has probability 0.04
        F = Distribution(unit2, np.array([0.8, 0.2]))
        bound = make_oracle_bound(LexiLow(), 0.25, OracleCache(CFG))
        report = exact_coverage(F, bound, 2, 0.25)
        assert report.coverage == pytest.approx(0.96, abs=1e-12)


class TestMcCoverage:
    def test_deterministic_given_seed(self, unit2):
        F = Distribution(unit2, np.array([0.8, 0.2]))
        bound = make_oracle_bound(LexiLow(), 0.25, OracleCache(CFG))
        r1 = mc_coverage(F, bound, 2, 5000, 123, 0.25)
        r2 = mc_coverage(F, bound, 2, 5000, 123, 0.25)
        assert r1.coverage == r2.coverage
        assert r1.seed == 123 and r1.trials == 5000

    def test_three_sigma_of_exact(self, unit2):
        F = Distribution(unit2, np.array([0.8, 0.2]))
        cache = OracleCache(CFG)
        bound = make_oracle_bound(LexiLow(), 0.25, cache)
        exact = exact_coverage(F, bound, 2, 0.25).coverage
        trials = 20_000
        mc = mc_coverage(F, bound, 2, trials, 5, 0.25).coverage
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(mc - exact) <= 3 * sigma

    def test_constant_bound(self, unit3):
        F = uniform(unit3)
        report = mc_coverage(F, lambda x: unit3.s_min, 2, 100, 5, 0.1)
        assert report.coverage == 1.0

    def test_trials_validation(self, unit3):
        with pytest.raises(ValueError):
            mc_coverage(uniform(unit3), lambda x: 0.0, 2, 0, 5, 0.1)

    def test_sample_size_validation(self, unit3):
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            mc_coverage(uniform(unit3), lambda x: 0.0, 0, 10, 5, 0.1)

    @pytest.mark.parametrize("chunk", [64, 8192])
    def test_tally_counts_every_distinct_sample(self, monkeypatch, unit3, chunk):
        # each sample's tally, read back as the coverage of a bound that
        # covers it alone, is its count among the one-shot draw's rows by
        # np.unique; the bound is asked once per distinct sample, in order
        F = Distribution(unit3, np.array([0.5, 0.3, 0.2]))
        idx = np.searchsorted(np.cumsum(F.mass), make_rng(9).random((20_000, 3)), side="right")
        rows, counts = np.unique(np.sort(np.minimum(idx, 2), axis=1), axis=0, return_counts=True)
        rows = list(map(tuple, rows.tolist()))
        assert len(rows) == 10
        monkeypatch.setattr(kernels, "BLOCK_ROWS", chunk)
        for row, count in zip(rows, counts.tolist()):
            asked = []

            def bound(x, row=row):
                asked.append(x.idx)
                return unit3.s_min if x.idx == row else math.inf

            assert mc_coverage(F, bound, 3, 20_000, 9, 0.1).coverage == count / 20_000
            assert asked == rows

    @pytest.mark.parametrize("trials,chunks", [(1, (1, 7, 8192)), (7, (1, 7, 8192)),
                                               (10_000, (7, 8192)), (50_000, (8192,))])
    @pytest.mark.parametrize("seed", [5, 123])
    def test_chunks_reproduce_the_one_shot_draw(self, monkeypatch, unit3, trials, chunks, seed):
        # the one-shot reference draws every trial at once; a sample is
        # covered iff its mean is at most F's, 0.35
        F = Distribution(unit3, np.array([0.5, 0.3, 0.2]))
        bound = lambda x: sum(x.values) / x.n  # noqa: E731
        idx = np.searchsorted(np.cumsum(F.mass), make_rng(seed).random((trials, 2)), side="right")
        pts = np.asarray(unit3.points)[np.sort(np.minimum(idx, 2), axis=1)]
        want = int(((pts[:, 0] + pts[:, 1]) / 2 <= F.mean + harness.COVERED_SLACK).sum())
        for chunk in chunks:
            monkeypatch.setattr(kernels, "BLOCK_ROWS", chunk)
            assert mc_coverage(F, bound, 2, trials, seed, 0.1).coverage == want / trials

    def test_memory_stays_flat(self, unit3):
        # the 200,000 x 2 uniforms of a one-shot draw alone take 3.2 MB
        tracemalloc.start()
        try:
            report = mc_coverage(uniform(unit3), lambda x: unit3.s_min, 2, 200_000, 5, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.coverage == 1.0
        assert peak < 2 << 20


class TestSandwich:
    def test_two_point_grid_passes(self, unit2):
        report = verify_sandwich(unit2, 2, 0.25, OracleCache(CFG))
        assert report.passed
        assert report.instances_checked >= 3

    @pytest.mark.parametrize("m,n,want", [(2, 2, 7), (3, 2, 26), (2, 3, 8)])
    def test_instances_counted(self, m, n, want):
        # per extension: m inclusions, the samples between consecutive
        # homogeneous samples, m extremality checks
        report = verify_sandwich(SupportGrid(0, 1, m), n, 0.25, OracleCache(CFG))
        assert report.passed and report.instances_checked == want

    @pytest.mark.parametrize("patched,source", [(LexiHigh, LexiLow), (LexiLow, LexiHigh)])
    def test_inclusion_check_detects_a_wrong_extreme(self, unit3, monkeypatch, request,
                                                     patched, source):
        # with one lexicographic order ranking like the other, an extension's
        # upper sets escape the wrong extreme; sample spaces keep rank
        # vectors, so the patched rank runs on a fresh one, dropped after
        enumerate_omega.cache_clear()
        request.addfinalizer(enumerate_omega.cache_clear)
        monkeypatch.setattr(patched, "rank", source.rank)
        report = verify_sandwich(unit3, 2, 0.25, OracleCache(CFG))
        assert "upper-set inclusion broken at S_1" in report.failures

    def test_non_monotone_order_is_filtered(self, unit2):
        omega = enumerate_omega(unit2, 2)
        corrupted = CustomTable.from_ranking([omega[2], omega[1], omega[0]])
        report = verify_sandwich(unit2, 2, 0.25, OracleCache(CFG), orders=[corrupted])
        assert report.instances_checked == 0
        assert report.passed


class TestConsistency:
    def test_oracle_values_consistent_for_quantile(self, unit3):
        cache = OracleCache(CFG)
        omega = enumerate_omega(unit3, 2)
        table = {x: cache.value(x, Quantile(1), 0.25) for x in omega}
        report = verify_consistency(Quantile(1), table, tolerance=2 * CFG.resolution)
        assert report.passed

    def test_constant_bound_consistent_with_anything(self, unit3):
        omega = enumerate_omega(unit3, 2)
        for order in (LexiLow(), LexiHigh(), Quantile(2)):
            assert verify_consistency(order, {x: 0.5 for x in omega}).passed

    def test_sample_mean_consistent_with_lexi_low_at_small_n(self, unit3):
        # holds exhaustively for n <= 2 on this grid
        omega = enumerate_omega(unit3, 2)
        table = {x: sum(x.values) / x.n for x in omega}
        assert verify_consistency(LexiLow(), table, tolerance=1e-12).passed

    def test_detects_violations(self, unit3):
        omega = enumerate_omega(unit3, 2)
        table = {x: -sum(x.values) for x in omega}  # anti-monotone
        report = verify_consistency(LexiLow(), table)
        assert not report.passed

    def test_failures_in_pair_order(self, unit2):
        omega = enumerate_omega(unit2, 2)
        table = dict(zip(omega, (0.5, 0.2, 0.1)))
        report = verify_consistency(Quantile(1), table)
        assert report.instances_checked == 9
        assert report.failures == [
            "(0, 0) ~ (0, 1) but B differs 0.500000 vs 0.200000",
            "(0, 0) < (1, 1) but B falls 0.500000 -> 0.100000",
            "(0, 1) ~ (0, 0) but B differs 0.200000 vs 0.500000",
            "(0, 1) < (1, 1) but B falls 0.200000 -> 0.100000",
        ]

    def test_missing_samples_error(self, unit3):
        omega = enumerate_omega(unit3, 2)
        with pytest.raises(ValueError):
            verify_consistency(LexiLow(), {omega[0]: 0.0})

    def test_campaign_all_pass(self, unit3):
        for report in consistency_campaign(unit3, 2, 0.25, OracleCache(CFG)):
            assert report.passed, report.failures


class TestAgreement:
    def test_small_campaign(self, unit5):
        x = Sample(unit5, (1, 1, 3))
        for order in (LexiLow(), Quantile(2)):
            report = verify_agreement(x, order, trials=25, seed=9)
            assert report.passed
            assert report.instances_checked == 25

    def test_transfer_breaking_agreement_fails(self, unit5, monkeypatch):
        real = harness.transfer_to_augmented

        def lopsided(G, C, grid):
            # the real transfer with mass moved between two points of C
            H = real(G, C, grid)
            lo, hi = C.indices[0], C.indices[-1]
            H[:, hi] += H[:, lo] / 2
            H[:, lo] /= 2
            return H

        monkeypatch.setattr(harness, "transfer_to_augmented", lopsided)
        report = verify_agreement(Sample(unit5, (1, 1, 3)), LexiLow(), trials=5, seed=9)
        assert not report.passed
        assert report.instances_checked == 5
        assert any("does not agree" in f for f in report.failures)

    def test_transfer_off_augmented_set_fails(self, unit5, monkeypatch):
        monkeypatch.setattr(harness, "transfer_to_augmented", lambda G, C, grid: G)
        report = verify_agreement(Sample(unit5, (1, 1, 3)), Quantile(2), trials=5, seed=9)
        assert report.failures and all("off the augmented set" in f for f in report.failures)

    @staticmethod
    def _faulty_on_some_rows(G, C, grid):
        # the real transfer, broken on the trials whose G[0] exceeds 0.2:
        # there half of C's lowest mass moves to its highest point
        H = dist.transfer_to_augmented(G, C, grid)
        rows = G[:, 0] > 0.2
        lo, hi = C.indices[0], C.indices[-1]
        H[rows, hi] += H[rows, lo] / 2
        H[rows, lo] /= 2
        return H

    @pytest.mark.parametrize("faulty", [False, True], ids=["real", "faulty"])
    def test_one_trial_per_chunk_gives_the_same_report(self, unit5, monkeypatch, faulty):
        if faulty:
            monkeypatch.setattr(harness, "transfer_to_augmented", self._faulty_on_some_rows)
        x = Sample(unit5, (1, 1, 3))
        whole = verify_agreement(x, LexiLow(), trials=60, seed=9).to_dict()
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 1)
        chunked = verify_agreement(x, LexiLow(), trials=60, seed=9).to_dict()
        assert chunked == whole
        assert whole["instances_checked"] == 60
        assert whole["passed"] is not faulty
        if faulty:
            assert any("does not agree" in f for f in whole["failures"])
            assert any("probability moved" in f for f in whole["failures"])

    def test_chunks_continue_one_draw_stream(self):
        # successive chunk-sized dirichlet calls on one generator draw the
        # rows one call of the full size draws
        rng = make_rng(7)
        chunks = [rng.dirichlet(np.ones(5), size=rows) for rows in (234, 234, 1, 31)]
        assert np.concatenate(chunks).tobytes() == \
            make_rng(7).dirichlet(np.ones(5), size=500).tobytes()

    def test_every_small_sample_and_order(self, unit5):
        # every sample of size n <= 3 on five points, under the low
        # lexicographic, pointwise and every quantile preorder
        checked = 0
        for n in (1, 2, 3):
            for x in enumerate_omega(unit5, n):
                for order in [LexiLow(), Pointwise(x)] + [Quantile(i) for i in range(1, n + 1)]:
                    report = verify_agreement(x, order, trials=40, seed=checked)
                    assert report.passed, report.failures
                    checked += 1
        assert checked == 250

    def test_pointwise_reads_the_oracle_support_rule(self, unit5):
        # the singleton upper set reads pmf values only, the same relevant
        # values refined_support augments for the pointwise oracle
        x = Sample(unit5, (1, 1, 3))
        report = verify_agreement(x, Pointwise(x), trials=25, seed=9)
        assert report.passed, report.failures
        assert report.instances_checked == 25

    def test_rejects_unsupported_order(self, unit5):
        with pytest.raises(ValueError):
            verify_agreement(Sample(unit5, (1, 1, 3)), LexiHigh(), 5, 1)

    def test_trials_validation(self, unit5):
        # zero trials would check nothing and still report a pass
        with pytest.raises(ValueError, match="at least one trial"):
            verify_agreement(Sample(unit5, (1, 1, 3)), LexiLow(), 0, 1)


def test_refinement_small(unit3):
    report = verify_refinement(unit3, 2, 0.25, OracleCache(CFG))
    assert report.passed, report.failures
    assert report.instances_checked == 6 * 3  # 6 samples x (lexi-low, q1, q2)


def test_lipschitz_quick():
    report = verify_lipschitz(ms=(2, 4), pairs=100, seed=1)
    assert report.passed
    assert report.instances_checked == 200


@pytest.mark.parametrize("m", [2, 5, 10])
def test_batched_dirichlet_equals_sequential_draws(m):
    # verify_lipschitz draws all of an m's pairs in one call
    rng = make_rng(20260810 + m)
    sequential = np.stack([rng.dirichlet(np.ones(m)) for _ in range(2000)])
    batched = make_rng(20260810 + m).dirichlet(np.ones(m), size=2000)
    assert sequential.tobytes() == batched.tobytes()


def test_lipschitz_checks_every_pair(monkeypatch):
    calls = []
    real = harness.mean_lipschitz_check

    def spy(grid, a, b):
        calls.append((grid, a, b))
        return real(grid, a, b)

    monkeypatch.setattr(harness, "mean_lipschitz_check", spy)
    report = verify_lipschitz(ms=(3, 4), pairs=7, seed=2)
    assert report.passed and report.instances_checked == 14
    assert [(grid.m, a.shape, b.shape) for grid, a, b in calls] == [
        (3, (7, 3), (7, 3)), (4, (7, 4), (7, 4))
    ]
    for grid, a, b in calls:
        rng = make_rng(2 + grid.m)
        for u, v in zip(a, b):
            assert np.array_equal(u, rng.dirichlet(np.ones(grid.m)))
            assert np.array_equal(v, rng.dirichlet(np.ones(grid.m)))


def test_lipschitz_reports_each_violating_pair(monkeypatch):
    monkeypatch.setattr(harness, "mean_lipschitz_check",
                        lambda grid, a, b: np.arange(len(a)) % 3 != 0)
    report = verify_lipschitz(ms=(2, 5), pairs=7, seed=2)
    assert report.instances_checked == 14
    assert report.failures == ["violated at m=2"] * 3 + ["violated at m=5"] * 3


class TestSharedCache:
    def test_run_all_searches_each_key_once(self, monkeypatch):
        calls = []
        real = harness.pessimal_bound_oracle

        def spy(x, order, alpha, cfg=None):
            calls.append((x, order.name, alpha))
            return real(x, order, alpha, cfg)

        monkeypatch.setattr(harness, "pessimal_bound_oracle", spy)
        run_all(SupportGrid(0, 1, 3), 2, 0.25)
        assert len(calls) == 10

    def test_run_all_builds_each_sample_space_once(self, monkeypatch):
        built = []
        real = Omega.__init__

        def spy(self, grid, n):
            built.append((grid.m, n))
            real(self, grid, n)

        enumerate_omega.cache_clear()
        monkeypatch.setattr(Omega, "__init__", spy)
        run_all(SupportGrid(0, 1, 3), 2, 0.25)
        # the campaigns' m=3, n=2 space and agreement's m=5, n=3 one
        assert sorted(built) == [(3, 2), (5, 3)]

    def test_cache_miss_and_oracle_read_one_omega(self, unit3, monkeypatch):
        seen = []
        real = harness.upper_set

        def spy(x, order, omega):
            seen.append(omega)
            return real(x, order, omega)

        monkeypatch.setattr(harness, "upper_set", spy)
        monkeypatch.setattr(oracle, "upper_set", spy)
        OracleCache(CFG).value(Sample(unit3, (0, 2)), LexiHigh(), 0.25)
        assert len(seen) == 2
        assert seen[0] is seen[1] is enumerate_omega(unit3, 2)

    def test_a_cache_pass_ranks_each_sample_space_once(self, unit3):
        calls = []

        class Counting(Quantile):
            def rank(self, idx):
                calls.append(idx.shape[0])
                return super().rank(idx)

        cache = OracleCache(CFG)
        for n in (2, 3):
            for x in enumerate_omega(unit3, n):
                cache.value(x, Counting(2), 0.25)  # a fresh, equal order per lookup
        # one search per second order statistic, one rank call per sample space
        assert (cache.misses, cache.hits) == (6, 10)
        assert calls == [6, 10]

    def test_a_quantile_pass_at_scale_searches_once_per_upper_set(self):
        omega = enumerate_omega(SupportGrid(0.0, 1.0, 11), 6)
        cache = OracleCache(CFG)
        values = [cache.value(x, Quantile(2), 0.25) for x in omega]
        assert len(omega) == 8008 and (cache.misses, cache.hits) == (11, 7997)
        # the value depends on x only through its second order statistic
        want = [0.0, 0.0610625, 0.122125, 0.1831875, 0.24425, 0.3053125, 0.366375,
                0.4274375, 0.4885, 0.5495625, 0.610625]
        assert values == [want[j] for j in omega.idx[:, 1].tolist()]

    def test_reports_equal_separate_caches(self, unit3):
        shared = [r.to_dict() for r in run_all(unit3, 2, 0.25, OracleCache(CFG), trials=20, seed=4)]
        separate = [verify_sandwich(unit3, 2, 0.25, OracleCache(CFG))]
        separate += consistency_campaign(unit3, 2, 0.25, OracleCache(CFG))
        separate += agreement_campaign(unit3, 20, 4)
        separate.append(verify_refinement(unit3, 2, 0.25, OracleCache(CFG)))
        separate.append(verify_lipschitz(seed=4))
        assert shared == [r.to_dict() for r in separate]

    def test_cache_config_governs(self, unit2):
        cache = OracleCache(OracleConfig(resolution=1e-2))
        report = verify_refinement(unit2, 2, 0.25, cache)
        assert report.tolerance == 2 * value_tolerance(unit2, cache.cfg)


def test_reports_serialize(unit2):
    report = verify_sandwich(unit2, 1, 0.5, OracleCache(CFG))
    payload = report.to_dict()
    assert payload["schema_version"] == 1
    assert payload["passed"] is True
    F = uniform(unit2)
    cov = exact_coverage(F, lambda x: 0.0, 1, 0.5).to_dict()
    assert cov["schema_version"] == 1 and cov["mode"] == "EXACT"
    mc = mc_coverage(F, lambda x: 0.0, 1, 10, 3, 0.5).to_dict()
    assert mc["trials"] == 10 and mc["seed"] == 3


def test_make_rng_reproducible():
    a = make_rng(5).random(4)
    b = make_rng(5).random(4)
    assert np.array_equal(a, b)
    assert np.array_equal(make_rng(6).dirichlet(np.ones(4)), make_rng(6).dirichlet(np.ones(4)))
