#!/usr/bin/env python3
"""Benchmark the lattice-scan kernel: numba box scan vs numpy region scan.

The workload is the real certifier region for a witness pair in Q(sqrt(D)),
scaled up by widening the trace of the pair, plus a biquadratic positivity
scan.  The backends do not run the same chunks: numba tests every point of
the coordinate box, numpy only the per-prefix intervals that can hold a
survivor.  Both must return identical survivors and cover the same box
points, so the rate below is effective box points/second for the scan stage
only (exact confirmation is shared and excluded).

Run:  python benchmarks/bench_kernels.py [--repeat 3]
"""

import argparse
import os
import time

import numpy as np

from mqf.certifier import _pair_region
from mqf.cf import search_witnesses
from mqf.fields import make_field
from mqf.integers import superset_lattice_box, trace_simplex_box
from mqf.kernels import collect_survivors


def certifier_job():
    ws = search_witnesses(15, 2, trace_bound=60)
    a, b = ws.elements
    scaled = (a * 9) * 1  # widen the region: ~30x more lattice points
    box, emb_hi, ell = _pair_region(scaled, b * 9)
    return box.scan_job(-emb_hi, emb_hi, ell_bound=ell, skip_zero=True)


def positivity_job():
    field = make_field([2, 3])
    box = trace_simplex_box(field, 60)
    return box.scan_job(np.zeros(4), np.full(4, 60.0), skip_zero=True)


def run(job, backend: str) -> tuple[float, int, int]:
    os.environ["MQF_JIT"] = "1" if backend == "numba" else "0"
    try:
        start = time.perf_counter()
        survivors, scanned = collect_survivors(job)
        elapsed = time.perf_counter() - start
    finally:
        os.environ.pop("MQF_JIT", None)
    return elapsed, scanned, len(survivors)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    jobs = {"certifier pair region": certifier_job(), "positivity simplex": positivity_job()}
    try:
        import numba  # noqa: F401
        backends = ["numpy", "numba"]
    except ImportError:
        backends = ["numpy"]
        print("numba not importable: benchmarking the numpy fallback only")

    for name, job in jobs.items():
        print(f"\n== {name}: {job.total_points():,} lattice points ==")
        results = {}
        survivors = {}
        for backend in backends:
            run(job, backend)  # warm-up (JIT compile / cache load)
            best = min(run(job, backend) for _ in range(args.repeat))
            results[backend] = best
            survivors[backend] = best[2]
            rate = best[1] / best[0] if best[0] else float("inf")
            print(f"{backend:>6}: {best[0]*1e3:8.1f} ms   {rate/1e6:8.1f} M box points/s   "
                  f"{best[2]} survivors")
        if len(backends) == 2:
            speedup = results["numpy"][0] / results["numba"][0]
            same = survivors["numpy"] == survivors["numba"]
            print(f"numba speedup over numpy: {speedup:.2f}x   identical survivors: {same}")


if __name__ == "__main__":
    main()
