"""Benchmark for halfgraph: end-to-end timings, per-layer trace and output gates.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --record       # rewrite reference.json (default seed)
    python3 perfbench/selftest.py           # corrupt each gate's input, expect a failure

Each pass of the workload runs in a fresh interpreter (`worker.py`), one at a
time, until the next pass would end after `--seconds`.  With `--trace 0` the
last stdout line reports the medians of `wall_s` and `setup_s`, in reference
seconds (measured seconds rescaled to the host speed, see hostclock.py), and
of `peak_rss_mb`; with `--trace 1` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones.  The line before it holds
the run's metadata.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "halfgraph")
WORKDIR = os.path.join(HERE, ".work")
WORKLOADS = ("verify_all", "enumerate_n9", "graph_queries", "algebra")
DEFAULT_SEED = 1
RUN_LIMIT_S = 170  # the whole run, set-up included, ends before this


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, traced: bool, deadline: float,
               record: bool = False) -> dict:
    """One pass in a fresh interpreter; returns the worker's JSON plus `setup_s`.

    `wall_s` and `setup_s` are measured seconds with the sampler's bursts left
    out; an untraced pass also has `scale`, which turns them into reference
    seconds (see hostclock.py).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if traced else "0", WORKDIR] + (["--record"] if record else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"{workload} pass timed out after {err.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerError(f"{workload} pass exited with {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first"] - spawned - result["setup_busy_s"]
    return result


def source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None if too few."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return {"percentile": 100 * (index + 1) / len(ordered), "value": ordered[index]}


def measure(workload: str, seed: int, seconds: float, traced: bool, deadline: float):
    """Run passes until the next one would end after `seconds`; returns (plain, traced)."""
    start = time.monotonic()
    plain, with_trace, rounds = [], [], []
    while True:
        begun = time.monotonic()
        plain.append(run_worker(workload, seed, False, deadline))
        if traced:
            with_trace.append(run_worker(workload, seed, True, deadline))
        rounds.append(time.monotonic() - begun)
        next_end = time.monotonic() + statistics.median(rounds)
        if next_end - start > seconds or next_end > deadline:
            return plain, with_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from one pass of each workload")
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not os.path.exists(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no halfgraph sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(WORKDIR, exist_ok=True)
    # Compile once and load the files into the page cache, so that no timed
    # set-up pays for writing bytecode or for a cold disk.
    compileall.compile_dir(SRC_PACKAGE, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    subprocess.run([sys.executable, "-c", "import halfgraph.cli"],
                   cwd=os.path.dirname(SRC_PACKAGE), check=True, timeout=60)

    if args.record:
        reference = {}
        for workload in WORKLOADS:
            result = run_worker(workload, DEFAULT_SEED, False, time.monotonic() + 600, True)
            reference[workload] = result["summary"]
        with open(os.path.join(HERE, "reference.json"), "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                deadline)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    walls = [p["wall_s"] for p in plain]
    ref_walls = [p["wall_s"] * p["scale"] for p in plain]

    if args.trace:
        from tracer import metric_units

        units = metric_units()
        # Counts are identical across traced passes (checked below); times are medians.
        layers = {key: value if units[key] == "count"
                  else statistics.median(p["layers"][key] for p in traced)
                  for key, value in traced[0]["layers"].items()}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(walls))
        if any(p["calls"] != traced[0]["calls"] for p in traced):
            problems.append("call counts differ between traced passes")
        if min(p["layers"]["trace.top_coverage"] for p in traced) < 0.95:
            problems.append("top-level spans cover less than 95% of the traced wall time")
        metrics = {key: {"value": value, "unit": units[key]} for key, value in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(ref_walls), "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] * p["scale"] for p in plain),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain),
                            "unit": "MB"},
        }

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "source_digest": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "sizes": plain[0]["sizes"], "passes": len(plain), "traced_passes": len(traced),
        "wall_s_samples": ref_walls, "wall_s_tail": tail_percentile(ref_walls),
        "measured_wall_s_samples": walls,
        "measured_setup_s_samples": [p["setup_s"] for p in plain],
        "scale_samples": [p["scale"] for p in plain],
        "ops_failed_frac": failed / attempted if attempted else None,
        "errors": [e for p in passes for e in p["errors"]][:10], "problems": problems[:10],
        "run_s": time.monotonic() - started,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
