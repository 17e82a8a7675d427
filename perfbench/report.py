"""Turn a :class:`~harness.WorkloadResult` into the printed report and result line."""

from __future__ import annotations

import json
import os
from typing import Dict

import numpy as np

from harness import OUTPUT_DIR, Tracer, WorkloadResult, summarize


def end_to_end(result: WorkloadResult) -> Dict[str, float]:
    """The generic end-to-end metrics every workload reports."""
    op = result.op
    return {
        "setup_s": float(np.median(result.setup_seconds)),
        "op_ms": op["median"] * 1e3,
        "pehe": result.pehe,
        "ok_share": (result.attempted - result.failed) / result.attempted,
    }


def _write_trace(workload: str, seed: int, tracer: Tracer, table, layers) -> str:
    directory = os.path.join(OUTPUT_DIR, "traces")
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"{workload}-seed{seed}")
    with open(stem + ".trace.json", "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(), handle)
    with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
        json.dump({"self_time": table, "per_layer": layers}, handle, indent=2, sort_keys=True)
    return stem


def emit(spec, env, args, result: WorkloadResult, tracer: Tracer) -> Dict[str, object]:
    """Print the human-readable report; return the final result object."""
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    headline = end_to_end(result)
    print("end-to-end metrics (generic, every workload):")
    print(f"  {'setup_s':<14} {headline['setup_s']:>12.6g} s      "
          f"{json.dumps(summarize(result.setup_seconds))}")
    print(f"  {'op_ms':<14} {headline['op_ms']:>12.6g} ms     median of n={result.op['n']}")
    print(f"  {'pehe':<14} {headline['pehe']:>12.6g} 1")
    print(f"  {'ok_share':<14} {headline['ok_share']:>12.6g} 1      "
          f"attempted={result.attempted} failed={result.failed}")
    print(f"end-to-end metrics ({args.workload}):")
    for name, (summary, unit) in result.named.items():
        fields = "  ".join(f"{k}={v:.6g}" for k, v in summary.items() if k not in ("n", "tail"))
        print(f"  {name:<14} {fields}  unit={unit}  n={summary['n']}")
    print(f"  {'failed_share':<14} {result.failed / result.attempted:.6g}  unit=1  "
          f"n={result.attempted}")
    for name, value in result.notes.items():
        print(f"  note {name}: {json.dumps(value)}")
    print("checks:")
    for name, ok, detail in result.checks:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}  ({detail})")

    if not args.trace:
        metrics = {name: {"value": headline[name], "unit": units[name]} for name in headline}
    else:
        layers = dict(result.layers)
        table = tracer.self_times()
        driven = set(layers)
        metrics = {}
        for entry in spec["per_layer"]:
            name = entry["name"]
            metrics[name] = {"value": float(layers.get(name, 0.0)), "unit": entry["unit"]}
        stem = _write_trace(args.workload, args.seed, tracer, table, metrics)
        print("per-layer metrics (traced run):")
        for name, metric in metrics.items():
            mark = "" if name in driven else "   (layer not driven by this workload)"
            print(f"  {name:<34} {metric['value']:>12.6g} {metric['unit']}{mark}")
        print("self time per span (ms):")
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_ms"]):
            print(f"  {name:<34} calls={row['calls']:<7} total={row['total_ms']:>11.3f} self={row['self_ms']:>11.3f}")
        print(f"trace written: {stem}.trace.json, {stem}.layers.json")
    return {
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
