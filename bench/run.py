"""Benchmark of schubstab: cold and warm rounds, set-up time and memory.

    python3 bench/run.py --workload soergel|demazure|stability \\
        --seed N --seconds T --trace 0|1

Run it from the root of a checkout.  It measures set-up by launching fresh
interpreters, then starts bench/worker.py, which samples rounds for about
T seconds in forked children.  It checks the first round's outputs against
independent computations (bench/checks.py) and every other round's outputs
against the first, byte for byte.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics; with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones.  The result, and the
trace of a traced run, are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_LAUNCHES = 15
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, calibrate  # noqa: E402
from rounds import WORKLOADS, build_round  # noqa: E402


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from launching an interpreter until the round is built,
    scaled by the median of host-speed loops run between the launches."""
    argv = [sys.executable, str(WORKER), "--probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    loops = [calibrate()]
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        loops.append(calibrate())
        if i:  # the first launch writes the bytecode caches
            samples.append(elapsed)
    return statistics.median(samples) * REFERENCE_S / statistics.median(loops)


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout)
    if "error" in result:
        raise RuntimeError("a measuring child raised:\n" + result["error"])
    return result


def compare_rounds(children: list[dict]) -> tuple[int, list[str]]:
    """Count the rounds run and name each whose outputs differ from the first's."""
    reference = children[0]["digests"]
    rounds, problems = 0, []
    for child in children:
        for key in ("digests", "warm_digests"):
            if key in child:
                rounds += 1
                if child[key] != reference:
                    problems.append(f"a {child['kind']} round's output differs from the first round's")
    return rounds, problems


def scan_rate(ops, first_outputs: list[str], op_seconds: list[float]) -> float:
    """Classes per second over the round's bayer scans, from an untraced round."""
    classes, seconds = 0, 0.0
    for op, text, t in zip(ops, first_outputs, op_seconds):
        if op.kind == "cli" and op.args[:2] == ("scan", "bayer"):
            doc = json.loads(text.partition("\n")[2])
            classes += doc["scanned"] + doc["skipped"]
            seconds += t
    return classes / seconds if seconds else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "schubstab" / "__init__.py").is_file():
        print(f"error: no schubstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    measured = run_worker(args.workload, args.seed, args.seconds, args.trace)
    children = measured["children"]
    plain = [c for c in children if c["kind"] == "plain"]
    traced = [c for c in children if c["kind"] == "traced"]
    first = plain[0]

    from checks import check_outputs  # sympy is imported only after measuring

    ops = build_round(args.workload, args.seed)
    problems, failed_ops = check_outputs(
        args.workload, args.seed, ops, first["outputs"], first["dump"]
    )
    rounds, differ = compare_rounds(children)
    problems += differ
    attempted = rounds * len(ops)
    failed = rounds * len(failed_ops)

    cold = statistics.median(c["cold_scaled_s"] for c in plain)
    if args.trace:
        layer = {
            name: statistics.median(c["layer"][name] for c in traced)
            for name in traced[0]["layer"]
        }
        layer["stability.scan.classes_per_s"] = statistics.median(
            scan_rate(ops, first["outputs"], c["op_s"]) for c in plain
        )
        layer["trace.overhead_s"] = (
            statistics.median(c["cold_scaled_s"] for c in traced) - cold
        )
        units = {"calls": "count", "terms_out": "count", "hit_rate": "ratio",
                 "classes_per_s": "1/s", "self_s": "s", "overhead_s": "s"}
        metrics = {
            name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
            for name, value in layer.items()
        }
    else:
        metrics = {
            "cold_round_s": {"value": cold, "unit": "s"},
            "warm_round_s": {
                "value": statistics.median(c["warm_scaled_s"] for c in plain),
                "unit": "s",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(c["rss_mib"] for c in plain), "unit": "MiB"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "result": result,
        "problems": problems,
        "failed_ops": failed_ops,
        "samples": [
            {k: c[k] for k in ("kind", "cold_s", "cold_scaled_s", "warm_s", "warm_scaled_s",
                               "rss_mib", "op_s") if k in c}
            for c in children
        ],
        "op_labels": [op.label for op in ops],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if traced:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(traced[0]["trace"]))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
