"""Serving workloads: ``serve-open`` and ``online-drift``.

``serve-open`` serves a model fitted during set-up through
``ServingFrontend(num_workers=2)`` under Poisson open-loop arrivals from one
generator thread.  Requests mix 1-row and 16-row sizes and half of all rows
come from a small hot set, so the registry's row cache hits.  No training
runs: this isolates ``repro.serve`` (validation, coalescing, row hashing and
cache, compiled forward, scatter).

``online-drift`` runs ``OnlineServingLoop`` over a recurring drift schedule,
so one run has many drift -> refit -> swap events, while one generator
thread keeps open-loop traffic of fresh rows on the same frontend.  Refits
and swaps (writes) run beside request traffic (reads), and the drift
monitor and registry deploy/drain are on the path.

Latency is timed from each request's due time, so a stalled generator or
server is charged to every request it delays; how late the generator ran
is reported, and a run whose generator fell behind is invalid.
"""

from __future__ import annotations

import copy
import math
import resource
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from harness import Tracer, WorkloadResult, median_ms, summarize
from repro import HTEEstimator, SBRLConfig, SyntheticGenerator
from repro.core import BackboneConfig, TrainingConfig
from repro.data import SyntheticConfig
from repro.serve import DriftMonitor, DriftSchedule, OnlineServingLoop, ServingFrontend, drift_stream

CAUSAL_MODEL_SEED = 2024
INIT_SEED = 2024
MODEL_DATA_SEED = 2024
SETUP_REPEATS = 3
NUM_WORKERS = 2
MAX_WAIT_MS = 1.0

#: A request meets the service level when it completes within this long
#: after it was due; a failed or unfinished request misses it.
P99_LIMIT_MS = 10.0
#: The generator must send 99% of requests within this long of their due
#: time, or the run is invalid: it did not offer the load it claims.  The
#: generator shares the interpreter lock with the workers and, on
#: online-drift, with refits; ``run.py`` sets a 1 ms switch interval, so a
#: few hand-overs of delay are normal and more means the load was not offered.
GEN_LATE_LIMIT_MS = 20.0

# serve-open traffic
SERVE_TRAIN_ROWS = 1000
FIXED_RATE = 1500.0
LADDER = (2000.0, 2500.0, 3000.0, 3600.0, 4300.0, 5200.0, 6200.0, 7500.0)
RUNG_SECONDS = 0.5
FIXED_SHARE = 0.7
SIZES = (1, 16)
SIZE_WEIGHTS = (0.9, 0.1)
HOT_SHARE = 0.5
HOT_ROWS = 64
#: Allowed deviation of a served answer from a direct prediction, in units
#: in the last place: summation order inside BLAS depends on batch rows.
ANSWER_ULPS = 64

# online-drift
STREAM_SAMPLES = 600
STREAM_BATCH_ROWS = 128
PERIOD = 8
MAX_STEPS = 400
WINDOW_SIZE = 256
MIN_WINDOW = 64
AUC_THRESHOLD = 0.70
REFIT_EPOCHS = 20
INITIAL_ITERATIONS = 80
WORLDS = 3
BACKGROUND_RATE = 100.0
DRIFT_DIMS = (4, 4, 4, 2)


def _small_config(iterations: int) -> SBRLConfig:
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=24, head_layers=2, head_units=12),
        training=TrainingConfig(
            iterations=iterations,
            learning_rate=1e-2,
            evaluation_interval=max(10, iterations // 3),
            early_stopping_patience=None,
            seed=INIT_SEED,
        ),
    )


# --------------------------------------------------------------------------- #
# Open-loop load
# --------------------------------------------------------------------------- #
class OpenLoop:
    """Poisson arrivals from one generator thread through ``submit``.

    ``requests`` are the request matrices, ``offsets`` their due times in
    seconds from the start.  Latency of request i is its completion time
    minus its due time; unfinished or failed requests keep ``inf``.  Only
    the answers are kept, not the futures, so the load adds little to the
    garbage collector's work.
    """

    def __init__(self, submit: Callable, requests: Sequence[np.ndarray], offsets: np.ndarray, model: str) -> None:
        self.submit = submit
        self.requests = requests
        self.offsets = offsets
        self.model = model
        count = len(requests)
        self.latency = np.full(count, np.inf)
        self.late = np.zeros(count)
        self.results: List[Optional[np.ndarray]] = [None] * count
        self.sent = 0
        self.errors = 0
        self._pending = 0
        self._idle = threading.Condition()
        self._thread = threading.Thread(target=self._run, name="perfbench-load", daemon=True)
        self.generator_error: Optional[BaseException] = None

    def _done(self, index: int, due: float, future) -> None:
        finished = time.perf_counter()
        error = future.exception()
        if error is None:
            self.latency[index] = finished - due
            self.results[index] = future.result()["ite"]
        with self._idle:
            self.errors += error is not None
            self._pending -= 1
            self._idle.notify_all()

    def _run(self) -> None:
        try:
            start = time.perf_counter() + 0.002
            for index, offset in enumerate(self.offsets):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.late[index] = time.perf_counter() - due
                future = self.submit(self.requests[index], model=self.model)
                with self._idle:
                    self._pending += 1
                    self.sent += 1
                future.add_done_callback(lambda f, i=index, d=due: self._done(i, d, f))
        except BaseException as exc:  # noqa: BLE001 - re-raised by join()
            self.generator_error = exc

    def begin(self) -> "OpenLoop":
        self._thread.start()
        return self

    def join(self, grace: float) -> None:
        """Wait for the schedule, then up to ``grace`` s for completions."""
        self._thread.join()
        if self.generator_error is not None:
            raise self.generator_error
        self._wait(grace)

    def drain(self) -> None:
        if not self._wait(120.0):
            raise RuntimeError("requests still pending two minutes after the schedule ended")

    def _wait(self, timeout: float) -> bool:
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout)


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def _growing(latency: np.ndarray) -> bool:
    """Whether the last quarter waited clearly longer than the first."""
    quarter = max(1, len(latency) // 4)
    first = np.median(latency[:quarter])
    last = np.median(latency[-quarter:])
    return bool(last > 2.0 * first + 1e-3)


# --------------------------------------------------------------------------- #
# Traced-run hooks on the serving tier
# --------------------------------------------------------------------------- #
class ServeProbe:
    """Hooks on one frontend, its registry and the versions it deploys."""

    def __init__(self, tracer: Tracer, frontend: ServingFrontend) -> None:
        self.tracer = tracer
        self.frontend = frontend
        self.batch_rows: List[int] = []
        self.hits = 0
        self.misses = 0
        self.drain_seconds: List[float] = []
        self._watchers: List[threading.Thread] = []
        self._lock = threading.Lock()
        tracer.hook(frontend, "submit", "serve.submit")
        tracer.hook(frontend, "_run_batch", "serve.batch", after=self._after_batch)

    def _after_batch(self, args, result, start, end) -> None:
        _, batch = args
        for request in batch:
            self.tracer.add_span("serve.queue_wait", request.enqueued_at, start, request_id=id(request))
        with self._lock:
            self.batch_rows.append(sum(len(request.matrix) for request in batch))

    def _after_predict_rows(self, args, result, start, end) -> None:
        with self._lock:
            self.hits += result[1]
            self.misses += result[2]

    def instrument(self, version) -> None:
        self.tracer.hook(version, "predict_rows", "serve.compute", after=self._after_predict_rows)
        if "predict_potential_outcomes" not in vars(version.estimator):
            self.tracer.hook(version.estimator, "predict_potential_outcomes", "serve.forward")

    def hook_registry(self) -> None:
        registry = self.frontend.registry

        def after_deploy(args, version, start, end) -> None:
            self.instrument(version)

        deploy = registry.deploy

        def watch(old) -> None:
            begin = time.perf_counter()
            if old.wait_drained(timeout=30.0):
                with self._lock:
                    self.drain_seconds.append(time.perf_counter() - begin)

        def deploy_and_watch(self_, name, source):
            old = registry.live(name) if name in registry else None
            version = deploy(name, source)
            if old is not None:
                watcher = threading.Thread(target=watch, args=(old,), daemon=True)
                watcher.start()
                self._watchers.append(watcher)
            return version

        registry.deploy = types.MethodType(deploy_and_watch, registry)
        self.tracer.hook(registry, "deploy", "registry.deploy", after=after_deploy)
        self.tracer.hook(registry, "rollback", "registry.rollback", required=False)

    def join(self) -> None:
        for watcher in self._watchers:
            watcher.join(timeout=30.0)

    def layers(self, window_seconds: float) -> Dict[str, float]:
        tracer = self.tracer
        spans = tracer.spans
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(spans):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(index)
        scatter = []
        busy = unaccounted = 0.0
        for index, span in enumerate(spans):
            if span.name != "serve.batch":
                continue
            busy += span.end - span.start
            compute = [spans[c] for c in children.get(index, ()) if spans[c].name == "serve.compute"]
            if compute:
                scatter.append(span.end - compute[-1].end)
                unaccounted += compute[-1].start - span.start
            else:
                unaccounted += span.end - span.start
        waits = np.asarray(tracer.durations("serve.queue_wait"))
        lookups = self.hits + self.misses
        return {
            "serve.submit_us": median_ms(tracer.durations("serve.submit")) * 1e3,
            "serve.queue_wait_p50_ms": float(np.percentile(waits, 50)) * 1e3,
            "serve.queue_wait_p99_ms": float(np.percentile(waits, 99)) * 1e3,
            "serve.batch_rows": float(np.mean(self.batch_rows)),
            "serve.batches": float(len(self.batch_rows)),
            "serve.compute_ms": median_ms(tracer.durations("serve.compute")),
            "serve.forward_ms": median_ms(tracer.durations("serve.forward")),
            "serve.scatter_ms": median_ms(scatter),
            "serve.cache_hit_ratio": self.hits / lookups,
            "serve.worker_busy_share": busy / (window_seconds * NUM_WORKERS),
            # Batch time before compute starts: lease, concatenation, casts.
            "trace.unaccounted_share": unaccounted / busy,
        }


# --------------------------------------------------------------------------- #
# serve-open
# --------------------------------------------------------------------------- #
class _ServeInputs:
    """Training data, hot rows and a pool of fresh rows, all from the seed."""

    def __init__(self, seed: int, fresh_rows: int) -> None:
        generator = SyntheticGenerator(SyntheticConfig(seed=CAUSAL_MODEL_SEED))
        # The served model is a fixture: its training data do not depend on
        # the seed, which draws the traffic.
        self.train = generator.generate(SERVE_TRAIN_ROWS, 2.5, seed=MODEL_DATA_SEED)
        hot = generator.generate(HOT_ROWS, 2.5, seed=seed + 1)
        half = fresh_rows // 2
        fresh = [generator.generate(half, -1.5, seed=seed + 2), generator.generate(fresh_rows - half, -3.0, seed=seed + 3)]
        self.covariates = np.concatenate([hot.covariates] + [f.covariates for f in fresh])
        self.true_ite = np.concatenate([hot.true_ite] + [f.true_ite for f in fresh])
        self.rng = np.random.default_rng(seed + 7)
        self.next_fresh = HOT_ROWS

    def requests(self, count: int) -> List[np.ndarray]:
        """Row-index arrays of ``count`` requests (fresh rows never repeat)."""
        sizes = self.rng.choice(SIZES, size=count, p=SIZE_WEIGHTS)
        out = []
        for size in sizes:
            hot = self.rng.random(size) < HOT_SHARE
            rows = np.empty(size, dtype=np.int64)
            rows[hot] = self.rng.integers(0, HOT_ROWS, size=int(hot.sum()))
            fresh = int((~hot).sum())
            if self.next_fresh + fresh > len(self.covariates):
                raise RuntimeError("fresh-row pool exhausted; enlarge it")
            rows[~hot] = np.arange(self.next_fresh, self.next_fresh + fresh)
            self.next_fresh += fresh
            out.append(rows)
        return out


def _check_answers(result: WorkloadResult, label: str, served: np.ndarray, reference: np.ndarray) -> None:
    """Served answers against ``predict_ite`` on the same rows.

    A fused batch's rows go through BLAS kernels chosen by the batch's row
    count, so an answer can differ from a direct ``predict_ite`` of the same
    rows in the last bits.  The check therefore allows ``ANSWER_ULPS`` units
    in the last place of the reference's magnitude, and reports how many
    answers were bit-equal.
    """
    tolerance = ANSWER_ULPS * np.finfo(reference.dtype).eps * np.maximum(1.0, np.abs(reference))
    deviation = np.abs(served - reference)
    result.check(
        f"{label} equal predict_ite on the same rows",
        served.shape == reference.shape and bool(np.all(deviation <= tolerance)),
        f"{len(reference)} rows, {np.mean(deviation == 0.0):.1%} bit-equal, "
        f"max deviation {deviation.max():.3g}",
    )


def _serve_setup(seed: int, fresh_rows: int):
    begin = time.perf_counter()
    inputs = _ServeInputs(seed, fresh_rows)
    generate_seconds = time.perf_counter() - begin
    estimator = HTEEstimator("cfr", "sbrl-hap", config=_small_config(60), seed=INIT_SEED)
    estimator.fit(inputs.train)
    frontend = ServingFrontend(num_workers=NUM_WORKERS, max_wait_ms=MAX_WAIT_MS)
    frontend.deploy("hte", estimator)
    for _ in range(50):
        frontend.predict(inputs.covariates[:1], model="hte")
    return inputs, estimator, frontend, generate_seconds


def _phase(frontend, inputs, rate, seconds, grace=2.0):
    offsets = poisson_offsets(inputs.rng, rate, seconds)
    row_sets = inputs.requests(len(offsets))
    matrices = [inputs.covariates[rows] for rows in row_sets]
    load = OpenLoop(frontend.submit, matrices, offsets, "hte").begin()
    load.join(grace)
    latency = load.latency.copy()  # unfinished requests stay inf
    load.drain()
    return load, row_sets, latency


def run_serve_open(root: str, seed: int, seconds: float, tracer: Tracer) -> WorkloadResult:
    fixed_seconds = FIXED_SHARE * seconds
    fresh_rows = int(
        sum(SIZE_WEIGHTS[i] * SIZES[i] for i in range(2)) * (1 - HOT_SHARE) * 1.4
        * (FIXED_RATE * fixed_seconds * 2 + sum(LADDER) * RUNG_SECONDS)
    ) + 4096
    setup_seconds, generate_seconds = [], []
    for repeat in range(SETUP_REPEATS):
        begin = time.perf_counter()
        inputs, estimator, frontend, generate = _serve_setup(seed, fresh_rows)
        setup_seconds.append(time.perf_counter() - begin)
        generate_seconds.append(generate)
        if repeat < SETUP_REPEATS - 1:
            frontend.stop()
    try:
        result = _serve_open(seconds, tracer, inputs, estimator, frontend, setup_seconds)
    finally:
        frontend.stop()
    if tracer.enabled:
        result.layers["data.generate_s"] = float(np.median(generate_seconds))
    return result


def _process_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_phase(frontend, inputs, rate, seconds):
    """A fixed-rate phase plus the process CPU seconds it cost per request."""
    begin = _process_cpu()
    load, row_sets, latency = _phase(frontend, inputs, rate, seconds)
    return load, row_sets, latency, (_process_cpu() - begin) / load.sent


def _serve_open(seconds, tracer, inputs, estimator, frontend, setup_seconds):
    fixed_seconds = FIXED_SHARE * seconds
    load, row_sets, latency, cpu_per_request = _cpu_phase(frontend, inputs, FIXED_RATE, fixed_seconds)
    served = [load]
    all_rows = [row_sets]

    ladder = []
    max_rps = 0.0
    for rate in LADDER:
        rung, rung_rows, rung_latency = _phase(frontend, inputs, rate, RUNG_SECONDS, grace=1.0)
        served.append(rung)
        all_rows.append(rung_rows)
        p99 = float(np.percentile(rung_latency, 99)) * 1e3
        late99 = float(np.percentile(rung.late, 99)) * 1e3
        met = p99 <= P99_LIMIT_MS and late99 <= GEN_LATE_LIMIT_MS and not _growing(rung_latency)
        ladder.append({"rate": rate, "p99_ms": p99, "gen_late_p99_ms": late99, "met": met})
        if not met:
            break
        max_rps = rate

    finite = np.isfinite(latency)
    attempted = sum(phase.sent for phase in served)
    failed = sum(phase.errors for phase in served)
    served_ite = np.concatenate([r for phase in served for r in phase.results if r is not None])
    served_rows = np.concatenate([rows for phase, sets in zip(served, all_rows)
                                  for rows, r in zip(sets, phase.results) if r is not None])
    # Hot rows are served many times; score each distinct row once so the
    # small hot set does not dominate the error.
    distinct_rows, first = np.unique(served_rows, return_index=True)
    pehe = float(np.sqrt(np.mean((served_ite[first] - inputs.true_ite[distinct_rows]) ** 2)))
    result = WorkloadResult(
        setup_seconds=setup_seconds,
        op={"median": cpu_per_request, "n": load.sent},
        pehe=pehe,
        attempted=attempted,
        failed=failed,
    )
    late = load.late * 1e3
    result.named["cpu_ms_per_request"] = (summarize([cpu_per_request * 1e3]), "ms")
    result.named["req_ms"] = (summarize(latency * 1e3), "ms")
    result.named["max_rps"] = (summarize([max_rps]), "1/s")
    result.named["pehe_served"] = (summarize([pehe]), "1")
    result.named["gen_late_ms"] = (summarize(late), "ms")
    result.notes["ladder"] = ladder
    result.notes["fixed_rate"] = FIXED_RATE
    result.notes["p99_limit_ms"] = P99_LIMIT_MS
    result.check("serve-open requests all answered", failed == 0 and finite.all(),
                 f"{failed} failed, {int((~finite).sum())} unfinished at the fixed rate")
    result.check(
        "generator kept the fixed-rate schedule",
        float(np.percentile(late, 99)) <= GEN_LATE_LIMIT_MS,
        f"gen_late p99 {np.percentile(late, 99):.3f} ms, max {late.max():.3f} ms "
        f"(limit {GEN_LATE_LIMIT_MS} ms)",
    )
    _check_answers(result, "served answers", served_ite, estimator.predict_ite(inputs.covariates[served_rows]))

    if tracer.enabled:
        probe = ServeProbe(tracer, frontend)
        probe.instrument(frontend.registry.live("hte"))
        begin = time.perf_counter()
        with tracer.span("serve.window"):
            traced, traced_rows, _, traced_cpu = _cpu_phase(frontend, inputs, FIXED_RATE, fixed_seconds)
        window = time.perf_counter() - begin
        tracer.require_crossed()
        _check_answers(result, "traced answers", np.concatenate(traced.results),
                       estimator.predict_ite(inputs.covariates[np.concatenate(traced_rows)]))
        result.layers.update(probe.layers(window))
        result.layers["load.gen_late_p99_ms"] = float(np.percentile(late, 99))
        result.layers["load.gen_late_max_ms"] = float(late.max())
        result.layers["trace.overhead_share"] = traced_cpu / cpu_per_request - 1.0
    return result


# --------------------------------------------------------------------------- #
# online-drift
# --------------------------------------------------------------------------- #
class _TimedStream:
    """Yields stream batches while the window lasts; stamps each step's start."""

    def __init__(self, batches, seconds: float) -> None:
        self.batches = batches
        self.seconds = seconds
        self.step_start: Dict[int, float] = {}

    def __iter__(self):
        started = time.perf_counter()
        for batch in self.batches:
            if time.perf_counter() - started > self.seconds:
                return
            self.step_start[batch.step] = time.perf_counter()
            yield batch


def _online_setup(seed: int):
    """One world's inputs, plus the seconds spent materialising the drift
    stream and generating the background rows."""
    schedule = DriftSchedule(kind="recurring", num_steps=MAX_STEPS, amplitude=1.0, period=PERIOD)
    begin = time.perf_counter()
    stream = drift_stream(schedule, num_samples=STREAM_SAMPLES, batch_rows=STREAM_BATCH_ROWS, seed=seed)
    materialise = time.perf_counter() - begin
    estimator = HTEEstimator("tarnet", "sbrl-hap", config=_small_config(INITIAL_ITERATIONS), seed=INIT_SEED)
    estimator.fit(stream.train)
    begin = time.perf_counter()
    generator = SyntheticGenerator(SyntheticConfig(*DRIFT_DIMS, seed=CAUSAL_MODEL_SEED))
    background = generator.generate(int(BACKGROUND_RATE * 120), 2.5, seed=seed + 11).covariates
    generate = time.perf_counter() - begin
    return (stream, estimator, background), (materialise, generate)


def _world_seed(seed: int, world: int) -> int:
    return seed * 1_000 + world


def run_online_drift(root: str, seed: int, seconds: float, tracer: Tracer) -> WorkloadResult:
    # Each world is its own drift stream (its own causal model), served for
    # an equal share of the window; pooling them steadies recovery and PEHE,
    # which otherwise swing with the one world a seed draws.
    worlds, setup_seconds, data_seconds = [], [], []
    for world in range(WORLDS):
        begin = time.perf_counter()
        inputs, timings = _online_setup(_world_seed(seed, world))
        setup_seconds.append(time.perf_counter() - begin)
        worlds.append(inputs)
        data_seconds.append(timings)
    share = seconds / WORLDS
    runs = [
        _online_run(_world_seed(seed, world), share, *inputs, Tracer(False))
        for world, inputs in enumerate(worlds)
    ]
    result = _online_result(setup_seconds, runs)
    if tracer.enabled:
        traced = _online_run(_world_seed(seed, 0), share, *worlds[0], tracer)
        result.check("traced online run has no failures", traced["failed"] == 0, "")
        result.layers.update(traced["layers"])
        materialise, generate = np.median(np.asarray(data_seconds), axis=0)
        result.layers["scenarios.materialise_s"] = float(materialise)
        result.layers["data.generate_s"] = float(generate)
        result.layers["trace.overhead_share"] = (
            float(np.median(traced["recover"])) / float(np.median(runs[0]["recover"])) - 1.0
        )
    return result


def _online_run(seed, seconds, stream, estimator, background, tracer: Tracer):
    # drift_stream draws each step's rows with replacement from finite
    # populations, so stream rows repeat across steps; a zero-size row cache
    # keeps the cache out of this workload (every lookup misses).
    frontend = ServingFrontend(num_workers=NUM_WORKERS, max_wait_ms=MAX_WAIT_MS, cache_size=0)
    monitor = DriftMonitor(stream.train, window_size=WINDOW_SIZE, min_window=MIN_WINDOW,
                           auc_threshold=AUC_THRESHOLD, seed=seed)
    refit_seconds: List[float] = []

    def refit(current: HTEEstimator, window) -> HTEEstimator:
        candidate = copy.deepcopy(current)
        begin = time.perf_counter()
        with tracer.span("core.refit"):
            candidate.refit(window, init="fitted", epochs=REFIT_EPOCHS)
        refit_seconds.append(time.perf_counter() - begin)
        return candidate

    deployed_at: Dict[int, float] = {}
    probe = None
    if tracer.enabled:
        probe = ServeProbe(tracer, frontend)
        probe.hook_registry()
        tracer.hook(monitor, "check", "diagnostics.check")
        tracer.hook(monitor, "observe", "diagnostics.observe")
    deploy = frontend.deploy

    def stamped_deploy(name, source):
        version = deploy(name, source)
        deployed_at[version.version] = time.perf_counter()
        return version

    frontend.deploy = stamped_deploy
    try:
        loop = OnlineServingLoop(frontend, copy.deepcopy(estimator), monitor, model="hte",
                                 refit_epochs=REFIT_EPOCHS, refit_window_batches=2,
                                 cooldown_steps=2, request_rows=32, refit_fn=refit)
        offsets = poisson_offsets(np.random.default_rng(seed + 13), BACKGROUND_RATE, seconds)
        if len(offsets) > len(background):
            raise RuntimeError("background pool exhausted; enlarge it")
        requests = [background[i : i + 1] for i in range(len(offsets))]
        timed = _TimedStream(stream.batches, seconds)
        begin = time.perf_counter()
        with tracer.span("online.window"):
            load = OpenLoop(frontend.submit, requests, offsets, "hte").begin()
            report = loop.run(timed)
            load.join(5.0)
        window = time.perf_counter() - begin
        latency = load.latency.copy()
        load.drain()
    finally:
        frontend.stop()
    if probe is not None:
        probe.join()

    weights = [batch.weight for batch in stream.batches]
    last_step = report.steps[-1].step
    window_steps = max(1, math.ceil(WINDOW_SIZE / STREAM_BATCH_ROWS))
    shifts = [s for s in range(1, last_step + 1) if weights[s] != weights[s - 1]]
    recover, delays, missed = [], [], []
    for position, shift in enumerate(shifts):
        following = shifts[position + 1] if position + 1 < len(shifts) else last_step + 1
        trigger = next((r.step for r in report.steps if r.step >= shift and r.status == "drift"), None)
        if shift + window_steps > last_step:
            continue  # the run ended before a full window of drifted traffic
        if trigger is None or trigger - shift > window_steps:
            missed.append(shift)
            continue
        delays.append(trigger - shift)
        kept = [e for e in report.events if e.kind == "refit" and shift <= e.step < following]
        if kept:
            recover.append(deployed_at[kept[0].details["version"]] - timed.step_start[shift])
    out = {
        "report": report,
        "latency": latency,
        "late": load.late,
        "recover": recover,
        "delays": delays,
        "missed": missed,
        "checked_shifts": len(delays) + len(missed),
        "refit_seconds": refit_seconds,
        "failed": report.failed_requests + load.errors + frontend.stats.failed_requests,
        "attempted": sum(r.requests for r in report.steps) + load.sent,
    }
    if tracer.enabled:
        tracer.require_crossed()
        layers = probe.layers(window)
        layers.update({
            "core.refit_s": float(np.median(refit_seconds)) if refit_seconds else 0.0,
            "registry.deploy_ms": median_ms(tracer.durations("registry.deploy")),
            "registry.drain_ms": median_ms(probe.drain_seconds),
            "registry.swaps": float(len(tracer.durations("registry.deploy")) - 1),
            "registry.rollbacks": float(len(tracer.durations("registry.rollback"))),
            "diagnostics.check_ms": median_ms(tracer.durations("diagnostics.check")),
            "diagnostics.observe_ms": median_ms(tracer.durations("diagnostics.observe")),
            "online.detect_delay_steps": float(np.median(delays)) if delays else 0.0,
            "load.gen_late_p99_ms": float(np.percentile(load.late, 99)) * 1e3,
            "load.gen_late_max_ms": float(load.late.max()) * 1e3,
            "trace.unaccounted_share": tracer.unaccounted_share("online.window"),
        })
        out["layers"] = layers
    return out


def _online_result(setup_seconds, runs) -> WorkloadResult:
    recover = [value for run in runs for value in run["recover"]]
    missed = [(world, step) for world, run in enumerate(runs) for step in run["missed"]]
    checked = sum(run["checked_shifts"] for run in runs)
    if not recover:
        raise RuntimeError(
            f"no drift recovery completed in the window ({checked} shifts, "
            f"missed (world, step) {missed}); recover_s is unmeasured"
        )
    per_step = [value for run in runs for value in run["report"].pehe_by_step()]
    failed = sum(run["failed"] for run in runs)
    result = WorkloadResult(
        setup_seconds=setup_seconds,
        op=summarize(recover),
        pehe=float(np.mean([np.mean(run["report"].pehe_by_step()) for run in runs])),
        attempted=sum(run["attempted"] for run in runs),
        failed=failed,
    )
    latency = np.concatenate([run["latency"] for run in runs]) * 1e3
    late = np.concatenate([run["late"] for run in runs]) * 1e3
    refits = [value for run in runs for value in run["refit_seconds"]]
    result.named["recover_s"] = (summarize(recover), "s")
    result.named["req_ms"] = (summarize(latency), "ms")
    result.named["pehe_served"] = (summarize(per_step), "1")
    result.named["gen_late_ms"] = (summarize(late), "ms")
    result.named["refit_s"] = (summarize(refits), "s")
    result.notes["worlds"] = len(runs)
    result.notes["shifts_checked"] = checked
    result.notes["refits"] = sum(run["report"].refits for run in runs)
    result.notes["rollbacks"] = sum(run["report"].rollbacks for run in runs)
    result.notes["background_rate"] = BACKGROUND_RATE
    result.check("online-drift has zero failed requests", failed == 0 and np.isfinite(latency).all(),
                 f"{failed} failed")
    result.check(
        "online-drift detects every shift within one monitor window",
        not missed and checked > 0,
        f"{checked} shifts checked, missed (world, step) {missed}",
    )
    result.check(
        "generator kept the background schedule",
        float(np.percentile(late, 99)) <= GEN_LATE_LIMIT_MS,
        f"gen_late p99 {np.percentile(late, 99):.3f} ms, max {late.max():.3f} ms",
    )
    return result
