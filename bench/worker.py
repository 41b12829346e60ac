"""Measuring process of the benchmark; run.py starts it, not a user.

    worker.py --probe --workload W --seed S
        import schubstab, build the round, print "ready" and exit (set-up probe)
    worker.py --workload W --seed S --seconds T --trace 0|1
        measure for about T seconds and print one JSON document

Each sample is a child forked from this process after ``import schubstab``
and ``build_round``, before anything has been computed, so its first round
is cold: no memo of the package carries over.  An untraced child runs the
round cold, reads its peak RSS, then runs it again warm.  With --trace 1,
untraced children (cold round only) alternate with traced children, which
install the tracer after the fork.  One child runs at a time and the
parent waits for each, so the loop is closed and single-threaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import schubstab  # noqa: E402,F401  (import before the fork is part of set-up)
from rounds import build_round, dump_for_checks, render, run_round  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def child_plain(ops, warm: bool, keep: bool, workload: str, seed: int) -> dict:
    cold_s, cold_scaled, op_s, results = run_round(ops)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    texts = [render(op, raw) for op, raw in zip(ops, results)]
    out = {
        "kind": "plain",
        "cold_s": cold_s,
        "cold_scaled_s": cold_scaled,
        "op_s": op_s,
        "rss_mib": rss_mib,
        "digests": [_digest(t) for t in texts],
    }
    if warm:
        del results
        warm_s, warm_scaled, _, warm_results = run_round(ops)
        out["warm_s"] = warm_s
        out["warm_scaled_s"] = warm_scaled
        out["warm_digests"] = [_digest(render(op, raw)) for op, raw in zip(ops, warm_results)]
    if keep:
        out["outputs"] = texts
        out["dump"] = dump_for_checks(workload, seed)
    return out


def child_traced(ops, keep: bool) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    cold_s, cold_scaled, _, results = run_round(ops, span=tracer.span)
    out = {
        "kind": "traced",
        "cold_s": cold_s,
        "cold_scaled_s": cold_scaled,
        "layer": tracer.layer_metrics(),
        "digests": [_digest(render(op, raw)) for op, raw in zip(ops, results)],
    }
    if keep:
        out["trace"] = tracer.to_json()
    return out


def fork_child(task) -> dict:
    """Run task() in a forked child and return the JSON it sends back."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 0
        try:
            data = json.dumps(task()).encode()
        except BaseException:
            data = json.dumps({"error": traceback.format_exc()}).encode()
            code = 1
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
        os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(data)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = build_round(workload, seed)
    children = []
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        plan = []
        keep = not children
        plan.append(lambda: child_plain(ops, not trace, keep, workload, seed))
        if trace:
            plan.append(lambda: child_traced(ops, keep))
        t0 = time.perf_counter()
        for task in plan:
            result = fork_child(task)
            if "error" in result:
                return {"error": result["error"]}
            children.append(result)
        durations.append(time.perf_counter() - t0)
        # Start another sample only if it should end within the run.
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    return {"children": children}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.probe:
        build_round(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
