"""In-memory span tracing of orderbound's layers, applied from outside.

Each traced entry point is replaced, for the duration of a ``Tracer``
context, in every ``orderbound`` namespace that holds it: ``harness``
imports ``pessimal_bound_oracle``, ``upper_set`` and ``prob_upper_set`` by
name, ``oracle`` imports ``upper_set`` and ``enumerate_omega`` by name, and
``kernels.*`` is reached as module attributes, so patching only the defining
module would miss most calls. Methods are patched on their class.

A span records its name, start and end (``perf_counter_ns``), parent span
and operation id. Self time is the span's duration minus the durations of
its direct children, so the self times of all spans add up to the time
covered by top-level spans. Counters are updated after a span closes.

An entry point that no longer exists is reported as absent (``None``), not
as zero. A counter whose inputs no longer have the expected shape is
reported as absent too, rather than crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (span name, module, attribute path, kind); kind is "call", "gen" (time
# each next() of the returned generator) or "count" (count calls, no span)
ENTRIES = (
    ("kernels.enumerate", "orderbound.kernels", "iter_composition_blocks", "gen"),
    ("kernels.eval_probs", "orderbound.kernels", "eval_probs", "call"),
    ("kernels.scaled_scores", "orderbound.kernels", "scaled_scores", "call"),
    ("kernels.pow_table", "orderbound.kernels", "pow_table", "call"),
    ("oracle", "orderbound.oracle", "pessimal_bound_oracle", "call"),
    ("oracle.member_terms", "orderbound.oracle", "_member_terms", "call"),
    ("oracle.reducer", "orderbound.oracle", "_Reducer.consume", "call"),
    ("oracle.reducer", "orderbound.oracle", "_Reducer.beam", "call"),
    ("oracle.neighborhood", "orderbound.oracle", "_neighborhood", "call"),
    ("harness.cache", "orderbound.harness", "OracleCache.value", "call"),
    ("orders.upper_set", "orderbound.orders", "upper_set", "call"),
    ("orders.enumerate_omega", "orderbound.orders", "enumerate_omega", "call"),
    ("orders.linear_extensions", "orderbound.orders", "monotone_linear_extensions", "call"),
    ("orders.is_monotone", "orderbound.orders", "is_monotone", "call"),
    ("dist.prob_upper_set", "orderbound.dist", "prob_upper_set", "call"),
    ("dist.transfer", "orderbound.dist", "transfer_to_augmented", "call"),
    ("dist.lipschitz", "orderbound.dist", "mean_lipschitz_check", "call"),
    ("quantile.bound", "orderbound.quantile", "quantile_bound", "call"),
    ("quantile.tail_prob", "orderbound.quantile", "tail_prob", "count"),
    ("cli.main", "orderbound.cli", "main", "call"),
)

# The entry each layer's metrics depend on: the first one listed for its name.
_SOURCE: dict[str, str] = {}
for _name, _module, _path, _kind in ENTRIES:
    _SOURCE.setdefault(_name, _path)

# Per-layer metrics in report order: (name, unit).
PER_LAYER = (
    ("kernels.enumerate.self_s", "s"),
    ("kernels.enumerate.cells", "count"),
    ("kernels.eval_probs.self_s", "s"),
    ("kernels.eval_probs.calls", "count"),
    ("kernels.eval_probs.cells", "count"),
    ("kernels.eval_probs.term_evals", "count"),
    ("kernels.eval_probs.bytes_computed", "B"),
    ("kernels.scaled_scores.self_s", "s"),
    ("kernels.pow_table.self_s", "s"),
    ("oracle.reducer.self_s", "s"),
    ("oracle.reducer.cells", "count"),
    ("oracle.reducer.feasible_ratio", "1"),
    ("oracle.neighborhood.self_s", "s"),
    ("oracle.neighborhood.cands_in", "count"),
    ("oracle.neighborhood.cands_out", "count"),
    ("oracle.neighborhood.dedup_ratio", "1"),
    ("oracle.calls", "count"),
    ("oracle.calls_dense", "count"),
    ("oracle.calls_c2f", "count"),
    ("oracle.self_s", "s"),
    ("oracle.member_terms.self_s", "s"),
    ("oracle.member_terms.terms", "count"),
    ("oracle.infeasible", "count"),
    ("harness.cache.lookups", "count"),
    ("harness.cache.hit_ratio", "1"),
    ("harness.cache.self_s", "s"),
    ("orders.upper_set.calls", "count"),
    ("orders.upper_set.self_s", "s"),
    ("orders.enumerate_omega.self_s", "s"),
    ("orders.linear_extensions.self_s", "s"),
    ("orders.is_monotone.self_s", "s"),
    ("dist.prob_upper_set.calls", "count"),
    ("dist.prob_upper_set.self_s", "s"),
    ("dist.transfer.self_s", "s"),
    ("dist.lipschitz.self_s", "s"),
    ("quantile.bound.calls", "count"),
    ("quantile.bound.self_s", "s"),
    ("quantile.bound.iterations_mean", "count"),
    ("quantile.tail_prob.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "1"),
    ("trace.spans", "count"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Span recorder plus the patches that feed it.

    Use as a context manager; spans are recorded only while ``active`` is
    true, so the benchmark's own correctness checks (which call the same
    functions) stay out of the trace.
    """

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        self.unavailable: set[str] = set()
        self.absent: set[str] = set()
        self.root_ns = 0
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        t = perf_counter_ns()
        self.span_start.append(t)
        self._stack.append([idx, nid, t, 0])

    def exit(self) -> None:
        t = perf_counter_ns()
        idx, nid, start, child = self._stack.pop()
        dur = t - start
        self.span_end[idx] = t
        self.self_ns[nid] += dur - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.root_ns += dur

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module_name, path, kind in ENTRIES:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.add(path)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, path, kind, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            # every namespace that bound the same object by name
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "orderbound" or mod_name.startswith("orderbound.")) \
                        and mod is not None and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, path: str, kind: str, fn):
        tracer = self
        after = _AFTER.get(path)

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        nid = self.name_id(name)
        watch_oracle = name == "harness.cache"

        if kind == "gen":
            def timed_iter(gen):
                while True:
                    tracer.enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    if after is not None:
                        tracer._after(after, name, (item,))
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return timed_iter(gen) if tracer.active else gen
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = tracer.span_calls("oracle") if watch_oracle else None
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.exit()
                if name == "oracle" and type(exc).__name__ == "InfeasibleError":
                    tracer.counts["oracle.infeasible"] += 1
                raise
            tracer.exit()
            if after is not None:
                tracer._after(after, name, (args, result, before))
            return result
        return wrapper

    def _after(self, fn, name, payload) -> None:
        try:
            fn(self, *payload)
        except (AttributeError, IndexError, TypeError, ValueError):
            self.unavailable.add(name)

    # -- report ------------------------------------------------------------

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def span_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def per_layer(self, wall_ns: int, untraced_wall_ns: int) -> dict[str, float | None]:
        """Every PER_LAYER metric; None marks an absent entry point or a
        counter that could not be read."""
        c = self.counts
        cells = c["oracle.reducer.cells"]
        cands_in = c["oracle.neighborhood.cands_in"]
        lookups = c["harness.cache.lookups"]
        qcalls = self.span_calls("quantile.bound")
        out: dict[str, float | None] = {
            "kernels.enumerate.self_s": self.self_s("kernels.enumerate"),
            "kernels.enumerate.cells": c["kernels.enumerate.cells"],
            "kernels.eval_probs.self_s": self.self_s("kernels.eval_probs"),
            "kernels.eval_probs.calls": self.span_calls("kernels.eval_probs"),
            "kernels.eval_probs.cells": c["kernels.eval_probs.cells"],
            "kernels.eval_probs.term_evals": c["kernels.eval_probs.term_evals"],
            "kernels.eval_probs.bytes_computed": c["kernels.eval_probs.bytes_computed"],
            "kernels.scaled_scores.self_s": self.self_s("kernels.scaled_scores"),
            "kernels.pow_table.self_s": self.self_s("kernels.pow_table"),
            "oracle.reducer.self_s": self.self_s("oracle.reducer"),
            "oracle.reducer.cells": cells,
            "oracle.reducer.feasible_ratio": c["oracle.reducer.feasible"] / cells if cells else 0.0,
            "oracle.neighborhood.self_s": self.self_s("oracle.neighborhood"),
            "oracle.neighborhood.cands_in": cands_in,
            "oracle.neighborhood.cands_out": c["oracle.neighborhood.cands_out"],
            "oracle.neighborhood.dedup_ratio":
                c["oracle.neighborhood.cands_out"] / cands_in if cands_in else 0.0,
            "oracle.calls": self.span_calls("oracle"),
            "oracle.calls_dense": c["oracle.calls_dense"],
            "oracle.calls_c2f": c["oracle.calls_c2f"],
            "oracle.self_s": self.self_s("oracle"),
            "oracle.member_terms.self_s": self.self_s("oracle.member_terms"),
            "oracle.member_terms.terms": c["oracle.member_terms.terms"],
            "oracle.infeasible": c["oracle.infeasible"],
            "harness.cache.lookups": lookups,
            "harness.cache.hit_ratio": c["harness.cache.hits"] / lookups if lookups else 0.0,
            "harness.cache.self_s": self.self_s("harness.cache"),
            "orders.upper_set.calls": self.span_calls("orders.upper_set"),
            "orders.upper_set.self_s": self.self_s("orders.upper_set"),
            "orders.enumerate_omega.self_s": self.self_s("orders.enumerate_omega"),
            "orders.linear_extensions.self_s": self.self_s("orders.linear_extensions"),
            "orders.is_monotone.self_s": self.self_s("orders.is_monotone"),
            "dist.prob_upper_set.calls": self.span_calls("dist.prob_upper_set"),
            "dist.prob_upper_set.self_s": self.self_s("dist.prob_upper_set"),
            "dist.transfer.self_s": self.self_s("dist.transfer"),
            "dist.lipschitz.self_s": self.self_s("dist.lipschitz"),
            "quantile.bound.calls": qcalls,
            "quantile.bound.self_s": self.self_s("quantile.bound"),
            "quantile.bound.iterations_mean":
                c["quantile.bound.iterations"] / qcalls if qcalls else 0.0,
            "quantile.tail_prob.calls": c["quantile.tail_prob.calls"],
            "cli.main.self_s": self.self_s("cli.main"),
            "trace.wall_s": wall_ns / 1e9,
            "trace.unattributed_s": (wall_ns - self.root_ns) / 1e9,
            "trace.overhead_ratio": wall_ns / untraced_wall_ns if untraced_wall_ns else 0.0,
            "trace.spans": len(self.span_start),
        }
        for metric in out:
            layer, field = metric.rsplit(".", 1)
            if layer not in _SOURCE:
                continue
            if _SOURCE[layer] in self.absent or (
                    layer in self.unavailable and field not in ("self_s", "calls")):
                out[metric] = None
        if "OracleCache.value" in self.absent or "pessimal_bound_oracle" in self.absent:
            out["harness.cache.hit_ratio"] = None
        return out

    def spans(self) -> dict:
        """All recorded spans, column-wise."""
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }


# -- counters, run after a span closes -------------------------------------

def _after_enumerate(tr: Tracer, block) -> None:
    tr.counts["kernels.enumerate.cells"] += block.shape[0]


def _after_eval_probs(tr: Tracer, args, result, _before) -> None:
    counts, _table, coefs = args[0], args[1], args[2]
    rows, k = counts.shape
    terms = rows * coefs.shape[0]
    tr.counts["kernels.eval_probs.cells"] += rows
    tr.counts["kernels.eval_probs.term_evals"] += terms
    # each term reads k float64 table entries and accumulates one float64
    tr.counts["kernels.eval_probs.bytes_computed"] += 8 * terms * (k + 1)


def _after_oracle(tr: Tracer, _args, result, _before) -> None:
    mode = result.mode
    tr.counts["oracle.calls_dense" if mode == "dense" else "oracle.calls_c2f"] += 1


def _after_member_terms(tr: Tracer, _args, result, _before) -> None:
    tr.counts["oracle.member_terms.terms"] += len(result[0])


def _after_consume(tr: Tracer, args, _result, _before) -> None:
    reducer, rows, _scores, probs = args[:4]
    tr.counts["oracle.reducer.cells"] += rows.shape[0]
    tr.counts["oracle.reducer.feasible"] += int((probs >= reducer.alpha).sum())


def _after_neighborhood(tr: Tracer, args, result, _before) -> None:
    oracle = sys.modules["orderbound.oracle"]
    centers, k = args[0], args[1]
    offsets = oracle._zero_sum_offsets(k, oracle._neighbor_radius(k))
    tr.counts["oracle.neighborhood.cands_in"] += centers.shape[0] * offsets.shape[0]
    tr.counts["oracle.neighborhood.cands_out"] += result.shape[0]


def _after_cache(tr: Tracer, _args, _result, before) -> None:
    tr.counts["harness.cache.lookups"] += 1
    if tr.span_calls("oracle") == before:
        tr.counts["harness.cache.hits"] += 1


def _after_quantile(tr: Tracer, _args, result, _before) -> None:
    tr.counts["quantile.bound.iterations"] += result.iterations


_AFTER = {
    "iter_composition_blocks": _after_enumerate,
    "eval_probs": _after_eval_probs,
    "pessimal_bound_oracle": _after_oracle,
    "_member_terms": _after_member_terms,
    "_Reducer.consume": _after_consume,
    "_neighborhood": _after_neighborhood,
    "OracleCache.value": _after_cache,
    "quantile_bound": _after_quantile,
}
