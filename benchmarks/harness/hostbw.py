"""Host memory-bandwidth yardstick: a NumPy triad at two array sizes.

``a = b + 3c`` runs as two ufunc passes (``multiply`` into ``a``, then
``add`` into ``a``), which move five arrays' worth of bytes; the rate
counts those bytes, the way the sweep byte model counts NumPy's passes.
The first size is the workload's working set split over the three
arrays, the second a DRAM size.  Run on its own, in its own process, so
nothing else holds memory or cores::

    python3 benchmarks/harness/hostbw.py --ws-bytes 2500000 --dram-mib 128

prints one JSON line: ``{"ws": {"array_mib": ..., "gbps": ...}, "dram": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np


def triad_gbps(array_bytes: int, *, min_seconds: float = 0.2, min_reps: int = 5) -> float:
    """Median GB/s of the triad with three arrays of *array_bytes* each."""
    n = max(1, array_bytes // 8)
    a = np.empty(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    times = []
    stop = time.perf_counter() + min_seconds
    while len(times) < min_reps or time.perf_counter() < stop:
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        times.append(time.perf_counter() - t0)
    return 5 * 8 * n / statistics.median(times) / 1e9


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ws-bytes", type=int, required=True, help="workload working set, bytes")
    ap.add_argument("--dram-mib", type=int, required=True, help="DRAM-size array, MiB each")
    args = ap.parse_args()
    ws_array = max(64 * 1024, args.ws_bytes // 3)
    dram_array = args.dram_mib * 2**20
    print(
        json.dumps(
            {
                "ws": {"array_mib": ws_array / 2**20, "gbps": triad_gbps(ws_array)},
                "dram": {"array_mib": dram_array / 2**20, "gbps": triad_gbps(dram_array)},
            }
        )
    )


if __name__ == "__main__":
    main()
