"""One benchmark process: set up a workload, run timed passes, report.

run.py starts this script in a fresh interpreter, several times with
``--setup-only`` to time set-up, then once for the measured run.  It can
also be run by hand from the repository root:

    python3 perfbench/worker.py --workload tower --inputs IN.json --seconds 20 --trace 0

It prints ``ready`` once mqf is imported and the inputs are built, and, after
a run, one JSON line with the pass summaries.

A run repeats passes until the next pass would end after ``--seconds``.
With ``--trace 1`` passes alternate untraced and traced, so tracing
overhead is measured inside one process.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import install, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, Pass

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
MIN_BEYOND = 10


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest listed percentile with at least MIN_BEYOND samples above it.

    Nearest-rank percentiles.  With too few samples for any of them, the
    slowest sample is reported and labelled "max".
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= MIN_BEYOND:
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


def import_mqf(root: Path):
    """Import mqf from the checkout's src/ and pin the numpy kernel backend."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mqf
    from mqf.kernels import backend_name

    if Path(mqf.__file__).resolve().parent != src / "mqf":
        raise SystemExit(f"imported mqf from {mqf.__file__}, not from {src}")
    if backend_name() != "numpy":
        raise SystemExit(f"kernel backend is {backend_name()}, expected numpy (MQF_JIT=0)")
    return mqf


def one_pass(workload, state, tracer: Tracer | None) -> dict:
    """Run, check and re-verify once; a tracer wraps the layers for this pass."""
    patcher, unwrapped = install(tracer) if tracer is not None else (None, [])
    try:
        p = Pass(tracer)
        workload.run(state, p)
    finally:
        if patcher is not None:
            patcher.restore()
    return {
        "traced": tracer is not None,
        "run_s": p.run_s,
        "verify_s": p.verify_s / workload.verify_repeats,
        "latencies": p.latencies,
        "ops": p.ops,
        "failed": p.failed,
        "layers": layer_metrics(tracer) if tracer is not None else None,
        "unwrapped": unwrapped,
    }


def run_passes(workload, state, seconds: float, trace: bool) -> tuple[list[dict], list[Tracer]]:
    """Repeat passes until the next one would overrun ``seconds``."""
    start = time.perf_counter()
    passes, tracers = [], []
    last = {}
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        begin = time.perf_counter()
        passes.append(one_pass(workload, state, tracer))
        last[traced] = time.perf_counter() - begin
        if tracer is not None:
            tracers.append(tracer)
        upcoming = trace and len(passes) % 2 == 1
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + last.get(upcoming, last[traced]) > seconds:
            return passes, tracers


def summarize(passes: list[dict], pass_is_op: bool) -> dict:
    """End-to-end numbers from untraced passes; per-layer from traced ones."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    run_s = statistics.median(p["run_s"] for p in plain)
    if pass_is_op:
        samples = [p["run_s"] for p in plain]
    else:
        samples = [t for p in plain for t in p["latencies"]]
    tail_label, tail_value = tail(samples)
    out = {
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "failures": sorted({reason for p in passes for reason in p["failed"].values()}),
        "pass_run_s": [p["run_s"] for p in passes],
        "passes": len(plain),
        "traced_passes": len(traced),
        "e2e": {
            "run_s": run_s,
            "verify_s": statistics.median(p["verify_s"] for p in plain),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "op_tail_percentile": tail_label,
        "op_samples": len(samples),
    }
    if traced:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(p["run_s"] for p in traced) - run_s
        out["layers"] = layers
        out["unwrapped"] = sorted({name for p in traced for name in p["unwrapped"]})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd())
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    mqf = import_mqf(args.root)
    workload = WORKLOADS[args.workload]
    state = workload.setup(json.loads(args.inputs.read_text()))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes, tracers = run_passes(workload, state, args.seconds, bool(args.trace))
    summary = summarize(passes, workload.pass_is_op)
    if args.spans is not None and tracers:
        args.spans.write_text(json.dumps([t.to_json() for t in tracers]))
    import numpy

    from mqf.kernels import backend_name, numba

    summary["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backend_name(),
        "numba": numba is not None,
        "mqf": mqf.__version__,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
