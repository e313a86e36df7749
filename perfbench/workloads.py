"""The four benchmark workloads: inputs from a seed, one operation, and
the correctness check applied to every operation's result.

Each workload is a closed loop with one client: ``run`` is called on the
next item only after the previous call returned. ``items`` is one cycle of
inputs; the runner wraps around and calls ``begin_cycle`` at the start of
each cycle. Why each workload exists is recorded in README.md.

Every oracle grid is the unit grid shifted by a seeded multiple of 1/4.
On an m=5 grid the support points and every candidate mean are then exact
in binary floating point, so the search makes the same choices at every
shift and the values recorded in ``reference.json`` on the unshifted grid
apply to every seed after adding the shift.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

import orderbound as ob
from orderbound import harness
from orderbound.dist import full_support

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

ALPHAS = (0.05, 0.25)
EPSILON = 1e-4
# Two numerical routes to the same probability (the program's kernel or
# betainc against the benchmark's own recomputation) differ in the last bits.
PROB_TOL = 1e-12


def grid_shift(seed: int, tag: str) -> float:
    return random.Random(f"{tag}:grid:{seed}").randint(-8, 8) / 4


def shifted_grid(seed: int, tag: str, m: int) -> ob.SupportGrid:
    s_min = grid_shift(seed, tag)
    return ob.SupportGrid(s_min, s_min + 1.0, m)


def value_slack(grid: ob.SupportGrid) -> float:
    """The oracle's documented accuracy, 2 * resolution * (s_max - s_min)."""
    return 2.0 * ob.OracleConfig().resolution * (grid.s_max - grid.s_min)


@functools.cache
def load_reference() -> dict[str, float]:
    return json.loads(REFERENCE.read_text())["values"]


def c2f_key(x: ob.Sample, order, alpha: float) -> str:
    """Reference key; grid indices only, so it names the sample at any shift."""
    return f"c2f|{','.join(map(str, x.idx))}|{order.name}|{alpha}"


def dense_key(x: ob.Sample, i: int, alpha: float) -> str:
    return f"dense|{','.join(map(str, x.idx))}|{i}|{alpha}"


def c2f_call(x: ob.Sample, order, alpha: float):
    """One uncached oracle call on the full m=5 grid (k=5 > cell_budget)."""
    cfg = None
    if not isinstance(order, ob.LexiHigh):
        cfg = ob.OracleConfig(support_override=full_support(x.grid))
    return ob.pessimal_bound_oracle(x, order, alpha, cfg)


def c2f_universe(grid: ob.SupportGrid):
    """Every (sample, order, alpha) any seed can draw for oracle-c2f."""
    for n in (2, 3):
        orders = [ob.LexiHigh(), ob.LexiLow()] + [ob.Quantile(i) for i in range(1, n + 1)]
        for x, order, alpha in itertools.product(ob.enumerate_omega(grid, n), orders, ALPHAS):
            yield x, order, alpha


def dense_queries(grid: ob.SupportGrid):
    """The criterion-4 sweep: every m=5 sample with n <= 4, each i, each alpha."""
    for n in (1, 2, 3, 4):
        for x in ob.enumerate_omega(grid, n):
            for i in range(1, n + 1):
                for alpha in ALPHAS:
                    yield x, i, alpha


def check_quantile(x: ob.Sample, i: int, alpha: float, res) -> str | None:
    """The binomial tail at p_hat is <= alpha and at p_hat + delta >= alpha,
    by scipy.stats.binom.sf, and the bound is the two-atom mean at p_hat."""
    from scipy.stats import binom  # checker-only dependency, kept out of setup time

    n = x.n
    k = n - i  # tail = P[X >= n - i + 1] for X ~ Binomial(n, p)
    lo = float(binom.sf(k, n, res.p_hat))
    hi = float(binom.sf(k, n, min(1.0, res.p_hat + res.delta)))
    if lo > alpha + PROB_TOL:
        return f"quantile x={x.idx} i={i} a={alpha}: tail {lo!r} at p_hat above alpha"
    if hi < alpha - PROB_TOL:
        return f"quantile x={x.idx} i={i} a={alpha}: tail {hi!r} at p_hat+delta below alpha"
    grid = x.grid
    top = grid.point(x.order_stat(i))
    if res.delta * (top - grid.s_min) > EPSILON * (1 + 1e-9):
        return f"quantile x={x.idx} i={i} a={alpha}: delta {res.delta!r} exceeds epsilon"
    want = grid.s_min * (1.0 - res.p_hat) + top * res.p_hat
    if abs(res.bound - want) > 1e-12 * (1.0 + abs(want)):
        return f"quantile x={x.idx} i={i} a={alpha}: bound {res.bound!r} != {want!r}"
    return None


class Workload:
    name = ""
    tail_pct = 0.0   # the percentile reported as op_tail_ms
    trace_ops = 0    # fixed op count of a traced run, so its counts repeat
    block = 1        # timed runs measure whole blocks of this many ops

    def __init__(self, seed: int):
        self.items: list = []

    def begin_cycle(self) -> None:
        pass

    def run(self, item):
        raise NotImplementedError

    def check(self, pos: int, item, result) -> str | None:
        raise NotImplementedError


class OracleC2F(Workload):
    name = "oracle-c2f"
    tail_pct = 70.0
    trace_ops = 12
    rounds = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        grid = self.grid = shifted_grid(seed, self.name, 5)
        self.omegas = {n: ob.enumerate_omega(grid, n) for n in (2, 3)}
        # Calls cost 0.3-0.9 s depending on the sample, and a run makes only
        # a few dozen, so the sample list is fixed and the seed only moves
        # the grid: every seed does the same search work.
        rng = random.Random(self.name)
        combos = list(itertools.product((2, 3), ("lexi-high", "quantile", "lexi-low"), ALPHAS))
        # a round visits every (n, order, alpha) once with a homogeneous and
        # once with a mixed sample, interleaved so any prefix stays balanced
        for _ in range(self.rounds):
            for half in (0, 1):
                for c, (n, kind, alpha) in enumerate(combos):
                    if (c + half) % 2 == 0:
                        x = ob.homogeneous_sample(grid, rng.randrange(grid.m), n)
                    else:
                        x = rng.choice([y for y in self.omegas[n] if not y.is_homogeneous()])
                    order = {"lexi-high": ob.LexiHigh(), "lexi-low": ob.LexiLow(),
                             "quantile": ob.Quantile(rng.randint(1, n))}[kind]
                    self.items.append((x, order, alpha))
        self.slack = value_slack(grid)

    def run(self, item):
        return c2f_call(*item)

    def check(self, pos, item, res) -> str | None:
        x, order, alpha = item
        grid = self.grid
        w = res.witness
        if not isinstance(w, ob.Distribution) or w.grid != grid:
            return f"c2f x={x.idx} {order.name}: witness is not a distribution on the grid"
        mean = float(np.dot(np.asarray(w.mass), np.asarray(grid.points)))
        if abs(res.value - mean) > 1e-9 * (1.0 + abs(mean)):
            return f"c2f x={x.idx} {order.name}: value {res.value!r} != witness mean {mean!r}"
        prob = ob.prob_upper_set(w, ob.upper_set(x, order, self.omegas[x.n]))
        if prob < alpha - PROB_TOL:
            return f"c2f x={x.idx} {order.name} a={alpha}: witness probability {prob!r} < alpha"
        ref = grid.s_min + load_reference()[c2f_key(x, order, alpha)]
        if res.value > ref + self.slack:
            return f"c2f x={x.idx} {order.name} a={alpha}: {res.value!r} above reference {ref!r}"
        if isinstance(order, ob.LexiHigh) and x.is_homogeneous() and x.idx[0] >= 1:
            br = ob.lexi_high_homogeneous_bracket(grid, x.idx[0], x.n, alpha)
            if not br.contains(res.value, self.slack):
                return f"c2f x={x.idx} a={alpha}: {res.value!r} outside [{br.lo!r}, {br.hi!r}]"
        return None


class OracleDense(Workload):
    name = "oracle-dense"
    tail_pct = 99.0
    trace_ops = 840
    # a pass fills a fresh cache, so only whole passes have the same
    # mix of misses and hits wherever the clock runs out
    block = 840

    def __init__(self, seed: int):
        super().__init__(seed)
        grid = self.grid = shifted_grid(seed, self.name, 5)
        self.items = [(x, i, ob.Quantile(i), alpha) for x, i, alpha in dense_queries(grid)]
        self.slack = value_slack(grid)
        self.cache = None
        self.verified: dict[int, tuple] = {}

    def begin_cycle(self) -> None:
        self.cache = harness.OracleCache()

    def run(self, item):
        x, i, order, alpha = item
        approx = ob.quantile_bound(x, i, alpha, EPSILON)
        return approx, self.cache.value(x, order, alpha)

    def check(self, pos, item, result) -> str | None:
        if self.verified.get(pos) == result:
            return None
        x, i, _order, alpha = item
        approx, value = result
        failure = check_quantile(x, i, alpha, approx)
        if failure:
            return failure
        ref = self.grid.s_min + load_reference()[dense_key(x, i, alpha)]
        # the reference is within slack above the true minimum and no
        # feasible value lies below the true minimum
        if abs(value - ref) > self.slack:
            return f"dense x={x.idx} i={i} a={alpha}: {value!r} vs reference {ref!r}"
        tol = self.grid.spacing + EPSILON + self.slack
        if abs(approx.bound - value) > tol:
            return f"dense x={x.idx} i={i} a={alpha}: |{approx.bound!r} - {value!r}| > {tol}"
        self.verified[pos] = result
        return None


class QuantileApprox(Workload):
    name = "quantile-approx"
    tail_pct = 99.9
    trace_ops = 30_000
    block = 6 * 3  # one sample of each size, each i and alpha
    samples_per_n = 256

    def __init__(self, seed: int):
        super().__init__(seed)
        grid = self.grid = shifted_grid(seed, self.name, 11)
        gen = np.random.Generator(np.random.PCG64(seed))
        per_n = []
        for n in (10, 100, 1000):
            block = []
            for _ in range(self.samples_per_n):
                mass = gen.dirichlet(np.ones(grid.m))
                idx = np.sort(gen.choice(grid.m, size=n, p=mass))
                x = ob.Sample(grid, tuple(int(v) for v in idx))
                for q in (0.1, 0.5, 0.9):
                    i = max(1, math.ceil(q * n))
                    for alpha in ALPHAS:
                        block.append((x, i, alpha))
            per_n.append(block)
        # interleave the three sample sizes so every prefix has the same mix
        self.items = [it for triple in zip(*per_n) for it in triple]
        self.verified: dict[int, object] = {}

    def run(self, item):
        x, i, alpha = item
        return ob.quantile_bound(x, i, alpha, EPSILON)

    def check(self, pos, item, result) -> str | None:
        if self.verified.get(pos) == result:
            return None
        failure = check_quantile(*item, result)
        if failure is None:
            self.verified[pos] = result
        return failure


class VerifyAll(Workload):
    name = "verify-all"
    tail_pct = 75.0
    trace_ops = 12
    alphas = (0.05, 0.25, 0.5)
    # (3, 2) runs take ~1.5 s and (2, 3) ~0.3 s, and runs at alpha 0.5 are
    # ~25% cheaper. A block is one (3, 2) run at every alpha and then one
    # (2, 3) run, its alpha rotating from block to block: every block has
    # the same (3, 2) mix wherever the clock runs out, and the median and
    # the tail stay inside the (3, 2) mode instead of on the gap between
    # the two.
    block = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli = importlib.import_module("orderbound.cli")
        s_min = grid_shift(seed, self.name)
        rng = random.Random(f"{self.name}:seeds:{seed}")
        runs = [((3, 2), alpha) for alpha in self.alphas]
        for small_alpha in self.alphas:
            for (m, n), alpha in runs + [((2, 3), small_alpha)]:
                self.items.append([
                    "verify", "all", "--m", str(m), "--n", str(n), "--alpha", str(alpha),
                    "--s-min", repr(s_min), "--s-max", repr(s_min + 1.0),
                    "--seed", str(rng.randrange(2**31)), "--format", "json",
                ])

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, pos, argv, result) -> str | None:
        code, out, err = result
        label = " ".join(argv[2:8])
        if code != 0:
            return f"verify {label}: exit code {code}: {err.strip()[:200]}"
        try:
            reports = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"verify {label}: output is not JSON ({exc})"
        if not reports or not all(r.get("passed") is True for r in reports):
            bad = [r.get("theorem") for r in reports if r.get("passed") is not True]
            return f"verify {label}: reports not passed: {bad}"
        return None


WORKLOADS = {w.name: w for w in (OracleC2F, OracleDense, QuantileApprox, VerifyAll)}
