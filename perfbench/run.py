"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-ood --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the working directory; there is
no build step.  The seed draws every input; the program receives only the
generated inputs.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  The lines before it print the environment, every
metric with its unit, median, tail percentile and sample count, and every
output check.  A traced run also writes a Chrome trace and a per-layer
self-time table under ``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# Two serving workers each running a multi-threaded BLAS oversubscribe a
# small host, and thread counts must not vary between runs: pin BLAS to one
# thread before numpy is imported anywhere.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

# The open-loop generator shares the interpreter lock with the serving
# workers and, on online-drift, with refits.  At CPython's default 5 ms
# switch interval a busy host stretched its hand-over delays past the
# generator-lateness bound; 1 ms keeps the generator on schedule.
sys.setswitchinterval(0.001)

WORKLOADS = ("fit-ood", "grid-small", "serve-open", "online-drift")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _load_spec() -> dict:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument(
        "--seed", type=int, required=True,
        help="draws every input; keep 7919 held out for re-checking gain claims",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            print(f"workload {workload} failed with exit code {completed.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    root = os.getcwd()
    source = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program source at {source}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    spec = _load_spec()

    import report
    from harness import Tracer, environment

    tracer = Tracer(enabled=bool(args.trace))
    if args.workload in ("fit-ood", "grid-small"):
        import fit_workloads as module
    else:
        import serve_workloads as module
    runner = getattr(module, "run_" + args.workload.replace("-", "_"))
    with tracer.span("workload"):
        result = runner(root, args.seed, args.seconds, tracer)

    env = environment(root, args.workload, args.seed)
    output = report.emit(spec, env, args, result, tracer)
    print(json.dumps(output))
    return 0 if output["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
