#!/usr/bin/env python3
"""The mqf benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 20 --trace 0

The inputs are made from the seed before anything is timed.  Set-up is timed
over several fresh interpreters; the measured run is one more fresh,
single-threaded interpreter (worker.py).  The last line of standard output
is a JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it records the machine, the environment and the details
behind each metric.  Both lines, the inputs and the spans of a traced run
are also written to .perfbench_out/ in the repository root.

Exits with status 2, printing no result, when there is no mqf source tree
to benchmark or when a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 7    # timed set-ups per untraced run; a traced run reports no setup_s
SETUP_TIMEOUT_S = 60
WORKER_GRACE_S = 120   # beyond --seconds: import, the pass that ends the run, exit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pinned_env() -> dict:
    """numpy kernels, no stray budget override, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["MQF_JIT"] = "0"
    env.pop("MQF_BUDGET", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def machine(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # The ceiling keeps git from searching above the checkout for a repository.
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unavailable"
    source = hashlib.sha256()
    for path in sorted((root / "src" / "mqf").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": revision,
        "src_sha256": source.hexdigest(),
        "env": {var: pinned_env().get(var) for var in ("MQF_JIT", "MQF_BUDGET", *THREAD_VARS)},
    }


def worker_cmd(root: Path, workload: str, inputs: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--root", str(root),
            "--workload", workload, "--inputs", str(inputs), *extra]


def time_setup(cmd: list[str], env: dict) -> float:
    """Seconds from starting a fresh interpreter until it prints ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mqf" / "__init__.py").is_file():
        print(f"no mqf source tree under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = out_dir / f"inputs-{tag}.json"
    inputs.write_text(json.dumps(workload.make_inputs(args.seed)))
    env = pinned_env()

    setup_cmd = worker_cmd(root, args.workload, inputs, "--setup-only")
    # Half the set-up samples are taken before the run and half after, so one
    # slow stretch of a shared machine does not set the median on its own.
    spawns = 0 if args.trace else SETUP_SPAWNS
    try:
        time_setup(setup_cmd, env)  # untimed: fills the bytecode and file caches
        setup = [time_setup(setup_cmd, env) for _ in range(spawns // 2)]
        spans = out_dir / f"spans-{tag}.json"
        proc = subprocess.run(
            worker_cmd(root, args.workload, inputs, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--spans", str(spans)),
            stdout=subprocess.PIPE, text=True, env=env, timeout=args.seconds + WORKER_GRACE_S)
        setup += [time_setup(setup_cmd, env) for _ in range(spawns - spawns // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"benchmark worker exited with status {proc.returncode}", file=sys.stderr)
        return 2
    summary = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        from layers import METRICS

        metrics = {name: {"value": summary["layers"][name], "unit": unit}
                   for name, unit, _ in METRICS}
    else:
        e2e = summary["e2e"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": e2e["run_s"], "unit": "s"},
            "verify_s": {"value": e2e["verify_s"], "unit": "s"},
            "op_p50_ms": {"value": e2e["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": e2e["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = summary["attempted"], summary["failed"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_use": workload.seed_use,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        "pass_run_s": summary["pass_run_s"],
        "passes": summary["passes"],
        "traced_passes": summary["traced_passes"],
        "op_samples": summary["op_samples"],
        "op_tail_percentile": summary["op_tail_percentile"],
        "fail_frac": failed / attempted,
        "failures": summary["failures"],
        "unwrapped": summary.get("unwrapped", []),
        "wait_s": 0.0,  # one process, jobs=1: nothing ever queues
        "machine": machine(root) | summary["env"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
