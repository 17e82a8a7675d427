"""Shared plumbing of the committed ``BENCH_*.json`` benchmark records.

Each benchmark module (``training_benchmark``, ``serving_benchmark``,
``online_benchmark``, ``autodiff_benchmark``) declares its perf gates once,
as ``PERF_GATES``.  A full run fills its ``smoke_reference`` block from a
smoke run on the same machine through :func:`smoke_reference`, and
``repro <verb> --smoke --check-against BENCH_x.json`` compares a fresh
smoke run against that block through :func:`check_perf_regression`.  The
gate (budget factor, smoke-mode guard, output format), the machine block
and the JSON writer live here once so they cannot drift between records.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Callable, Dict, NamedTuple, Sequence

__all__ = [
    "REGRESSION_FACTOR",
    "PerfGate",
    "check_perf_regression",
    "smoke_reference",
    "machine_block",
    "write_record",
]

#: A smoke run slower than this factor times the committed baseline fails.
REGRESSION_FACTOR = 2.0


class PerfGate(NamedTuple):
    """One gated metric: ``(label, extractor(result), smoke_reference_key)``.

    Extractors are callables so nothing is read off the record until the
    smoke-mode guard has passed.  ``limit`` is the largest allowed ratio of
    measured to committed value: timings get :data:`REGRESSION_FACTOR`,
    deterministic counts get ``1.0`` so any increase fails.
    """

    label: str
    extract: Callable[[dict], float]
    key: str
    limit: float = REGRESSION_FACTOR


def check_perf_regression(
    result: dict, baseline_path: str, checks: Sequence[PerfGate]
) -> int:
    """Compare a smoke run against a committed baseline; 0 = within budget.

    Only smoke-mode records are gated: full runs measure different sizes, so
    comparing them against smoke references would always "regress" — the
    gate reports and skips instead of failing a half-hour run spuriously.
    Baselines without a ``smoke_reference`` block are skipped likewise.
    """
    if result.get("mode") != "smoke":
        print(
            f"note: perf gate only applies to --smoke runs "
            f"(this record is mode={result.get('mode')!r}); skipping"
        )
        return 0
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    reference = baseline.get("smoke_reference")
    if not reference:
        print(f"note: {baseline_path} has no smoke_reference block; skipping perf gate")
        return 0
    failures = []
    for label, extractor, reference_key, limit in checks:
        if reference_key not in reference:
            # Baseline predates this gate metric; it will appear on the next
            # full-run refresh.
            print(f"note: baseline has no {reference_key!r}; skipping that check")
            continue
        measured = extractor(result)
        committed = reference[reference_key]
        ratio = measured / committed
        status = "FAIL" if ratio > limit else "ok"
        print(
            f"perf gate: {label}: {measured:.6f} vs baseline {committed:.6f} "
            f"({ratio:.2f}x, limit {limit:.1f}x) [{status}]"
        )
        if ratio > limit:
            failures.append(label)
    if failures:
        print(f"error: perf regression on: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def smoke_reference(gates: Sequence[PerfGate], smoke_record: dict) -> Dict[str, float]:
    """The ``smoke_reference`` block a full run embeds for its CI gate.

    ``smoke_record`` is a smoke run measured on the same machine as the full
    run; every gate's extractor is applied to it, so the block holds
    exactly the keys :func:`check_perf_regression` will look up.
    """
    return {gate.key: gate.extract(smoke_record) for gate in gates}


def machine_block() -> Dict[str, object]:
    """Hardware and interpreter the record was measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_record(result: dict, path: str) -> str:
    """Write a benchmark record as pretty-printed JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    return path
