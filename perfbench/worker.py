"""One timed pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR [--record]

Imports halfgraph from the checkout's `src/`, builds the inputs, times the
workload from its first call to its last result, then checks the outputs.
With TRACE=0 the host-speed sampler (`hostclock.py`) runs from the start of
the script to the last result; its bursts are left out of `wall_s` and
`setup_busy_s`, and `scale` converts both to reference seconds.  With TRACE=1
there is no sampler; the span tracer is installed before the inputs are built
and removed before the outputs are checked.  Prints one JSON object on
stdout.  With --record it also prints the summary that `reference.json`
stores.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from hostclock import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    workload, seed, traced, workdir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    record = "--record" in argv[4:]
    sampler = None
    if not traced:
        sampler = Sampler()
        sampler.start()
    sys.path.insert(0, SRC)
    import halfgraph

    if not os.path.abspath(halfgraph.__file__).startswith(SRC + os.sep):
        print(f"halfgraph was imported from {halfgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    prepare, execute, summarize = workloads.WORKLOADS[workload]
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = prepare(seed, workdir)
    ops = workloads.Ops()
    first, first_pc = time.monotonic(), time.perf_counter()
    outputs = execute(inputs, ops)
    last_pc = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"first": first, "wall_s": last_pc - first_pc, "peak_rss_mb": peak_rss_mb,
              "setup_busy_s": 0.0, "scale": None}
    if sampler is not None:
        sampler.stop()
        result["wall_s"] -= sampler.busy(first_pc, last_pc)
        result["setup_busy_s"] = sampler.busy(float("-inf"), first_pc)
        result["scale"] = sampler.scale(first_pc, last_pc)
        result["bursts"] = len(sampler.bursts)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics((first_pc, last_pc))
        result["calls"] = tracer.calls()
        run_id = f"{workload}:{seed}:{os.getpid()}"
        tracer.dump(os.path.join(workdir, f"spans-{workload}.jsonl"), run_id)

    reference = {}
    if not record:
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)[workload]
    summary, problems = summarize(inputs, outputs, ops, reference)
    if not record:
        problems += workloads.compare(summary, reference, seed)
    result.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors[:20],
                  problems=problems[:20], sizes=inputs["sizes"])
    if record:
        result["summary"] = dict(summary, seed=seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
