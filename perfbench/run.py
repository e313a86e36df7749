"""orderbound benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the workload runs untraced for S seconds and the last
stdout line carries the end-to-end metrics, with times scaled to a
reference host speed measured by a fixed calibration loop run between
operations. With ``--trace 1`` a fixed
list of operations runs once untraced and once traced, and the last line
carries the per-layer split. Every result is checked; a run record with
the environment, details and (traced) all spans goes to ``.perfbench_out/``.
Workloads and metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter_ns

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
# Host calibration: one unit per CAL_EVERY_NS of wall time, run in bursts
# between operations; CAL_REFERENCE_NS is a unit's time at the reference
# speed (see README.md).
CAL_EVERY_NS = 25_000_000
CAL_REFERENCE_NS = 450_000
CAL_MAX_BURST = 64
RESERVOIR = 2_000_000  # every op of a 25 s run, at twice the fastest rate seen
MAX_REASONS = 20

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Latencies:
    """Per-op latencies in fixed memory: every op until the buffer is full,
    then a seeded uniform reservoir sample, so the benchmark's own memory
    does not grow with the number of operations a faster program completes."""

    def __init__(self, seed: int):
        import numpy as np
        self._np = np
        self.buf = np.full(RESERVOIR, np.nan)
        self.seen = 0
        self._rng = random.Random(seed)

    def add(self, ns: int) -> None:
        if self.seen < RESERVOIR:
            self.buf[self.seen] = ns
        else:
            j = self._rng.randrange(self.seen + 1)
            if j < RESERVOIR:
                self.buf[j] = ns
        self.seen += 1

    def percentile_ms(self, pct: float) -> float:
        kept = self.buf[: min(self.seen, RESERVOIR)]
        return float(self._np.percentile(kept, pct)) / 1e6


class HostSpeed:
    """Scales timed intervals to a reference host speed.

    On a host shared with other tenants, one process's speed can change by
    1.6x within a fraction of a second and drift for minutes, so raw times
    of the same code spread more from run to run than any bound a
    regression check could use. Each timed interval is
    therefore divided by the host's slowdown measured just before and just
    after it: the mean time of a calibration burst on each side, over
    CAL_REFERENCE_NS.

    The calibration unit is a fixed mix of interpreter work (tuple hashing
    and dict lookups) and small-array numpy calls, the two kinds of work
    orderbound's operations consist of. It never touches orderbound, so a
    change to the program moves the scaled times exactly as it moves the
    raw ones. It allocates nothing that outlives it and runs with the
    garbage collector paused, so the heap a workload has built does not
    change its time. Bursts take one unit per CAL_EVERY_NS since the last
    burst, so every workload spends about the same share of its run (a few
    percent) calibrating.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._a = np.arange(64.0)
        self._keys = [(i, i % 7, float(i)) for i in range(500)]
        self._table = dict.fromkeys(self._keys, 1)
        self.samples: list[int] = []
        self._last = perf_counter_ns()
        self._before = self._burst(8)

    def _unit(self) -> float:
        np, a, table = self._np, self._a, self._table
        acc = 0
        for key in self._keys:
            acc += table[key] + (hash(key) & 255)
        total = 0.0
        for i in range(50):
            total += float(np.dot(a, a * 0.5 + i))
            np.cumsum(a)
            np.searchsorted(a, 3.3)
        return acc + total

    def _burst(self, count: int) -> int:
        """Mean time of ``count`` calibration units, in ns."""
        collecting = gc.isenabled()
        gc.disable()
        self._unit()  # untimed: refills the caches the last operation evicted
        times = []
        for _ in range(count):
            t0 = perf_counter_ns()
            self._unit()
            times.append(perf_counter_ns() - t0)
        if collecting:
            gc.enable()
        self.samples += times
        self._last = perf_counter_ns()
        return sum(times) // count

    def due(self) -> bool:
        return perf_counter_ns() - self._last >= CAL_EVERY_NS

    def scale(self, raw_ns: list[int]) -> list[float]:
        """Scale the intervals timed since the last burst, using that burst
        and a new one taken now."""
        count = (perf_counter_ns() - self._last) // CAL_EVERY_NS
        after = self._burst(min(max(count, 1), CAL_MAX_BURST))
        slowdown = (self._before + after) / 2 / CAL_REFERENCE_NS
        self._before = after
        return [ns / slowdown for ns in raw_ns]

    def slowdown(self) -> float:
        """The run's mean slowdown against the reference, for the record."""
        return statistics.fmean(self.samples) / CAL_REFERENCE_NS


def run_ops(wl, *, seconds=None, n_ops=None, tracer=None, latencies=None,
            host=None) -> dict:
    """Closed loop: issue the next op only after the previous one returned.

    Only the op call is timed; checks, cycle resets and host calibration
    run between ops. With ``host``, ``latencies`` and ``scaled_ns`` get op
    times scaled to the reference host speed.
    Stops after ``n_ops`` ops, or when the next block of ``wl.block`` ops
    would, at the pace of the previous block, end after ``seconds``. Every
    run therefore measures whole blocks, whose cost does not depend on
    where in the input list the clock ran out.
    """
    items = wl.items
    started = block_start = perf_counter_ns()
    deadline = None if seconds is None else started + int(seconds * 1e9)
    busy_ns = scaled_ns = attempted = failed = 0
    reasons: list[str] = []
    pending: list[int] = []
    if host is not None:
        host.scale([])  # a fresh burst just before the first op
    while n_ops is None or attempted < n_ops:
        if deadline is not None and attempted and attempted % wl.block == 0:
            now = perf_counter_ns()
            if 2 * now - block_start > deadline:
                break
            block_start = now
        pos = attempted % len(items)
        if pos == 0:
            wl.begin_cycle()
        item = items[pos]
        error = None
        if tracer is not None:
            tracer.op = attempted
            tracer.active = True
        t0 = perf_counter_ns()
        try:
            result = wl.run(item)
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.active = False
        busy_ns += t1 - t0
        if host is not None:
            pending.append(t1 - t0)
        elif latencies is not None:
            latencies.add(t1 - t0)
        attempted += 1
        reason = f"op {pos} raised {type(error).__name__}: {error}" if error else wl.check(pos, item, result)
        if reason:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(reason[:300])
        if host is not None and host.due():
            scaled_ns += add_scaled(host.scale(pending), latencies)
            pending.clear()
    if pending:
        scaled_ns += add_scaled(host.scale(pending), latencies)
    return {"attempted": attempted, "failed": failed, "busy_ns": busy_ns,
            "scaled_ns": scaled_ns, "wall_ns": perf_counter_ns() - started,
            "reasons": reasons}


def add_scaled(times: list[float], latencies) -> float:
    if latencies is not None:
        for ns in times:
            latencies.add(ns)
    return sum(times)


def probe_setup(workload: str, seed: int, host: HostSpeed) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first timed op
    (import orderbound plus input generation), SETUP_PROBES times: as
    measured, and scaled to the reference host speed."""
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.decode()[-500:]}")
        times.append(t1 - t0)
        scaled += host.scale([t1 - t0])
    return times, scaled


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy
    import orderbound

    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "orderbound").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    backend = getattr(orderbound, "backend_name", None)
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend() if callable(backend) else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def warm_up(wl) -> None:
    """One untimed op so lazy imports and module-level caches are filled.
    An error here is left for the timed loop to record as a failed op."""
    wl.begin_cycle()
    try:
        wl.run(wl.items[0])
    except Exception:
        pass


def end_to_end(wl, args) -> tuple[dict, dict, dict]:
    host = HostSpeed()
    setup, setup_scaled = probe_setup(wl.name, args.seed, host)
    warm_up(wl)
    lat = Latencies(args.seed)
    stats = run_ops(wl, seconds=args.seconds, latencies=lat, host=host)
    done = stats["attempted"] - stats["failed"]
    n = stats["attempted"]
    # times at the reference host speed (HostSpeed); measured ones below
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": done / (stats["scaled_ns"] / 1e9),
        "op_p50_ms": lat.percentile_ms(50.0),
        "op_tail_ms": lat.percentile_ms(wl.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "measured_setup_s": statistics.median(setup),
        "measured_ops_per_s": done / (stats["busy_ns"] / 1e9),
        "host_slowdown": host.slowdown(),
        "calibrations": len(host.samples),
        "setup_probes_s": setup,
        "ops": n,
        "busy_s": stats["busy_ns"] / 1e9,
        "wall_s": stats["wall_ns"] / 1e9,
        "op_p50_samples": min(n, RESERVOIR),
        "op_tail_percentile": wl.tail_pct,
        "op_tail_ops_beyond": round(n * (1 - wl.tail_pct / 100)),
        "fail_ratio": stats["failed"] / n if n else None,
    }
    return metrics, details, stats


def traced(wl) -> tuple[dict, dict, dict, dict]:
    from tracer import Tracer

    warm_up(wl)
    plain = run_ops(wl, n_ops=wl.trace_ops)
    with Tracer() as tracer:
        stats = run_ops(wl, n_ops=wl.trace_ops, tracer=tracer)
    metrics = tracer.per_layer(stats["busy_ns"], plain["busy_ns"])
    stats["attempted"] += plain["attempted"]
    stats["failed"] += plain["failed"]
    stats["reasons"] = plain["reasons"] + stats["reasons"]
    details = {
        "ops": wl.trace_ops,
        "untraced_busy_s": plain["busy_ns"] / 1e9,
        "traced_busy_s": stats["busy_ns"] / 1e9,
        "absent_entries": sorted(tracer.absent),
        "unavailable_counters": sorted(tracer.unavailable),
        "self_s_sum": sum(tracer.self_ns) / 1e9,
        "fail_ratio": stats["failed"] / stats["attempted"],
    }
    return metrics, details, stats, tracer.spans()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "orderbound" / "__init__.py").is_file():
        print(f"error: no orderbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    spans = None
    if args.trace:
        from tracer import PER_LAYER
        values, details, stats, spans = traced(wl)
        units = dict(PER_LAYER)
    else:
        values, details, stats = end_to_end(wl, args)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']} {m['unit']}")
    print("# details " + json.dumps(details, sort_keys=True))
    for reason in stats["reasons"]:
        print(f"# FAILED {reason}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": metrics, "details": details,
              "attempted": stats["attempted"], "failed": stats["failed"],
              "failures": stats["reasons"]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
