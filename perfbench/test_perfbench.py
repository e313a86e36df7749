"""Checks on the benchmark itself: every expected span fires on each
workload that should hit it, the traced accounting adds up, a missing
entry point is reported as absent, and host scaling covers every op.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import HostSpeed, Latencies, run_ops  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KERNEL_SPANS = ("kernels.enumerate", "kernels.eval_probs", "kernels.scaled_scores",
                "kernels.pow_table", "oracle.reducer", "oracle.neighborhood",
                "oracle", "oracle.member_terms")

# workload -> (ops to run, spans that must fire, counters that must be > 0)
EXPECTED = {
    "oracle-c2f": (2, KERNEL_SPANS + ("orders.upper_set", "orders.enumerate_omega"),
                   ("oracle.calls_c2f", "oracle.neighborhood.cands_in")),
    "oracle-dense": (30, KERNEL_SPANS + ("harness.cache", "orders.upper_set", "quantile.bound"),
                     ("oracle.calls_dense", "harness.cache.hits", "quantile.tail_prob.calls")),
    "quantile-approx": (200, ("quantile.bound",), ("quantile.tail_prob.calls",)),
    "verify-all": (1, KERNEL_SPANS + ("cli.main", "harness.cache", "orders.upper_set",
                                      "orders.enumerate_omega", "orders.linear_extensions",
                                      "orders.is_monotone", "dist.prob_upper_set",
                                      "dist.transfer", "dist.lipschitz"),
                   ("harness.cache.lookups", "harness.cache.hits")),
}


def _traced(name, n_ops):
    wl = WORKLOADS[name](seed=3)
    with Tracer() as tracer:
        stats = run_ops(wl, n_ops=n_ops, tracer=tracer)
    return tracer, stats


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_expected_spans_fire(name):
    n_ops, spans, counters = EXPECTED[name]
    tracer, stats = _traced(name, n_ops)
    assert stats["failed"] == 0, stats["reasons"]
    silent = [s for s in spans if tracer.span_calls(s) == 0]
    assert not silent, f"{name}: spans never fired: {silent}"
    zero = [c for c in counters if tracer.counts[c] == 0]
    assert not zero, f"{name}: counters stayed at zero: {zero}"
    metrics = tracer.per_layer(stats["busy_ns"], stats["busy_ns"])
    assert list(metrics) == [m for m, _ in PER_LAYER]
    assert all(v is not None for v in metrics.values())
    # self times plus the unattributed rest account for the traced wall time
    total = sum(tracer.self_ns) + round(metrics["trace.unattributed_s"] * 1e9)
    assert abs(total - stats["busy_ns"]) <= 1_000


def test_patches_are_undone():
    import orderbound
    import orderbound.harness
    import orderbound.oracle

    before = (orderbound.oracle.upper_set, orderbound.harness.upper_set, orderbound.upper_set)
    with Tracer():
        assert orderbound.harness.upper_set is orderbound.oracle.upper_set
        assert orderbound.harness.upper_set is not before[1]
    assert (orderbound.oracle.upper_set, orderbound.harness.upper_set,
            orderbound.upper_set) == before


def test_removed_entry_point_is_absent(monkeypatch):
    import orderbound.oracle

    monkeypatch.delattr(orderbound.oracle, "_neighborhood")
    tracer, stats = _traced("quantile-approx", 50)
    metrics = tracer.per_layer(stats["busy_ns"], stats["busy_ns"])
    assert "_neighborhood" in tracer.absent
    for field in ("self_s", "cands_in", "cands_out", "dedup_ratio"):
        assert metrics[f"oracle.neighborhood.{field}"] is None
    assert metrics["quantile.bound.calls"] == 50


def test_host_scaling_covers_every_op():
    wl = WORKLOADS["quantile-approx"](seed=3)
    host, lat = HostSpeed(), Latencies(3)
    stats = run_ops(wl, n_ops=300, latencies=lat, host=host)
    assert stats["failed"] == 0, stats["reasons"]
    assert lat.seen == 300
    assert len(host.samples) >= 9  # the first burst, one before timing, one after
    # every op was scaled by a positive slowdown, so the totals are in proportion
    assert 0.05 < stats["scaled_ns"] / stats["busy_ns"] < 20
