"""Record the oracle values the benchmark checks its results against.

Covers every input any seed can give ``oracle-c2f`` and ``oracle-dense``,
on the unshifted unit grid (workloads add their seeded shift). Takes about
six minutes on one core.

Usage (from the repository root):  python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orderbound as ob  # noqa: E402
from orderbound import harness  # noqa: E402

from workloads import (  # noqa: E402
    REFERENCE, c2f_call, c2f_key, c2f_universe, dense_key, dense_queries,
)


def main() -> int:
    grid = ob.SupportGrid(0.0, 1.0, 5)
    values: dict[str, float] = {}
    t0 = time.perf_counter()
    for x, order, alpha in c2f_universe(grid):
        values[c2f_key(x, order, alpha)] = c2f_call(x, order, alpha).value
    cache = harness.OracleCache()
    for x, i, alpha in dense_queries(grid):
        values[dense_key(x, i, alpha)] = cache.value(x, ob.Quantile(i), alpha)
    payload = {
        "about": "pessimal_bound_oracle values on SupportGrid(0, 1, 5) at the default "
                 "OracleConfig, recorded by perfbench/record_reference.py",
        "resolution": ob.OracleConfig().resolution,
        "values": values,
    }
    tmp = REFERENCE.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, REFERENCE)
    print(f"{len(values)} values in {time.perf_counter() - t0:.1f} s -> {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
