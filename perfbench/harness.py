"""Shared machinery of the benchmark: statistics, environment, tracing, checks.

Everything here is independent of the workloads.  The tracer records spans
around calls that the benchmark's own objects make into the program's
layers; it never edits the program.  A hook whose layer boundary is missing
(a renamed method) or was never crossed during a traced run raises
:class:`HookError`, so a layer is never silently reported as zero.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Where traces and cross-run expectation records are written, relative to
#: the checkout root (the benchmark's working directory).
OUTPUT_DIR = ".perfbench"


class HookError(RuntimeError):
    """A traced-run hook lost its layer boundary."""


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
#: Candidate percentiles, highest first; a percentile is supported when at
#: least ten samples lie beyond it.
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, the highest supported percentile and the sample count.

    With fewer than twenty samples no percentile has ten samples beyond
    it; the tail is then the maximum, labelled ``max``.
    """
    values = np.asarray(list(samples), dtype=np.float64)
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample")
    tail_label, tail = "max", float(values.max())
    for pct in _PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            tail_label, tail = f"p{pct:g}", float(np.percentile(values, pct))
            break
    return {"median": float(np.median(values)), tail_label: tail, "tail": tail, "n": len(values)}


# --------------------------------------------------------------------------- #
# Environment block
# --------------------------------------------------------------------------- #
#: BLAS thread variables pinned by ``run.py`` before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str) -> str:
    """Commit of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_info() -> Dict[str, object]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def environment(root: str, workload: str, seed: int) -> Dict[str, object]:
    """Hardware and software the run measured on."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "switch_interval_s": sys.getswitchinterval(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_sha": _git_sha(root),
        "workload": workload,
        "seed": seed,
    }


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    request_id: Optional[int] = None


class Tracer:
    """In-memory span recorder with instance-level hooks.

    ``enabled=False`` makes every method a no-op so the untraced run pays
    nothing; hooks are only installed by traced runs.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self._hooked: List[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans ---------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None):
        """Record one span; nested spans on the same thread become children."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                     threading.get_ident(), request_id)
            )
        stack.append(index)
        try:
            yield self.spans[index]
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def add_span(self, name: str, start: float, end: float, request_id: Optional[int] = None) -> None:
        """Record a span measured elsewhere (e.g. a queue wait)."""
        if self.enabled:
            with self._lock:
                self.spans.append(Span(name, start, end, None, threading.get_ident(), request_id))

    # -- hooks ---------------------------------------------------------- #
    def hook(
        self,
        owner: object,
        attr: str,
        span_name: str,
        after: Optional[Callable[[tuple, object, float, float], None]] = None,
        required: bool = True,
    ) -> None:
        """Time every call of ``owner.attr`` (a bound method) as ``span_name``.

        The hook is bound to ``owner`` as a method, so ``copy.deepcopy``
        re-binds it to the copy and the copy calls its own code.  ``after``
        receives ``(args, result, start, end)`` for hooks that also count.
        ``required=False`` is for boundaries a run may legitimately never
        cross (a rollback); they must still exist.
        """
        if not self.enabled:
            return
        bound = getattr(owner, attr, None)
        function = getattr(bound, "__func__", None)
        if function is None:
            raise HookError(
                f"layer boundary {type(owner).__name__}.{attr} not found; "
                f"the traced run cannot measure {span_name!r}"
            )
        tracer = self

        def hooked(self_, *args, **kwargs):
            with tracer.span(span_name) as record:
                result = function(self_, *args, **kwargs)
            if after is not None:
                after(args, result, record.start, record.end)
            return result

        setattr(owner, attr, types.MethodType(hooked, owner))
        if required and span_name not in self._hooked:
            self._hooked.append(span_name)

    def require_crossed(self) -> None:
        """Raise when a hooked boundary was never crossed during the run."""
        seen = {span.name for span in self.spans}
        missing = [name for name in self._hooked if name not in seen]
        if missing:
            raise HookError(
                "traced run never crossed the layer boundaries for "
                f"{missing}; a hook is stale (renamed or bypassed method)"
            )

    # -- analysis ------------------------------------------------------- #
    def durations(self, name: str) -> List[float]:
        return [span.end - span.start for span in self.spans if span.name == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self time (ms)."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["total_ms"] += duration * 1e3
            row["self_ms"] += (duration - covered[index]) * 1e3
        return table

    def unaccounted_share(self, root: str) -> float:
        """Share of the ``root`` spans' time not covered by any child span."""
        table = self.self_times().get(root)
        if not table or table["total_ms"] <= 0:
            raise HookError(f"no {root!r} span recorded; cannot compute the remainder")
        return table["self_ms"] / table["total_ms"]

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        threads: Dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            args: Dict[str, object] = {}
            if span.parent is not None:
                args["parent"] = self.spans[span.parent].name
            if span.request_id is not None:
                args["request_id"] = span.request_id
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def median_ms(values: Sequence[float]) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


# --------------------------------------------------------------------------- #
# Workload result
# --------------------------------------------------------------------------- #
@dataclass
class WorkloadResult:
    """What one workload measured.

    ``op``, ``setup_seconds``, ``pehe``, ``attempted`` and ``failed`` feed
    the generic end-to-end metrics every workload reports (see
    ``BENCHMARK.json``); ``named`` holds the workload's own end-to-end
    metrics under their descriptive names, each summarized with median,
    tail and sample count; ``layers`` holds per-layer metrics of a traced
    run.
    """

    setup_seconds: List[float]
    #: The workload's operation in seconds: ``median`` and sample count ``n``.
    op: Dict[str, object]
    pehe: float
    attempted: int
    failed: int
    named: Dict[str, Tuple[Dict[str, object], str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# --------------------------------------------------------------------------- #
# Cross-run expectations
# --------------------------------------------------------------------------- #
def compare_with_previous(root: str, key: str, payload: Dict[str, object]) -> Tuple[bool, str]:
    """Compare ``payload`` with the record an earlier run at this key left.

    The first run at a key writes the record.  Values are compared exactly:
    at a fixed seed the program's outputs are bit-for-bit deterministic.
    """
    directory = os.path.join(root, OUTPUT_DIR, "expect")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{key}.json")
    encoded = json.loads(json.dumps(payload))
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(encoded, handle, sort_keys=True)
        os.replace(tmp, path)
        return True, "first run at this seed; record written"
    with open(path, encoding="utf-8") as handle:
        previous = json.load(handle)
    if previous == encoded:
        return True, "identical to the previous run at this seed"
    return False, f"differs from the previous run at this seed ({path})"
