"""Training workloads: ``fit-ood`` and ``grid-small``.

``fit-ood`` is the paper's core use: one full-batch SBRL-HAP fit on
Syn_8_8_8_2 at n=2000 with RBF-MMD balancing, evaluated on the in-
distribution (rho=2.5) and two OOD (rho=-1.5, -3.0) populations.  Its time
sits in the O(n^2) kernels, the HSIC pair loop and the replayed network
step, so a kernel or replay change shows here.

``grid-small`` is a cold-cache scenario sweep of many n=250 fits on a
two-process pool.  Python and autodiff dispatch, data materialisation and
the scheduler dominate; O(n^2) kernels barely matter, so a kernel change
should not move it and a scheduler change shows only here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

import numpy as np

from harness import (
    OUTPUT_DIR,
    HookError,
    Tracer,
    WorkloadResult,
    compare_with_previous,
    median_ms,
    summarize,
)
from repro import HTEEstimator, SBRLConfig, SyntheticGenerator
from repro.core import BackboneConfig, RegularizerConfig, TrainingConfig
from repro.core.loop import Callback
from repro.data import SyntheticConfig
from repro.experiments.scenario_suite import ScenarioSuiteConfig, run_scenario_suite

#: Structural seed of the synthetic causal model; the workload seed draws
#: the populations from it.
CAUSAL_MODEL_SEED = 2024
#: Weight-initialisation seed of every fitted estimator.
INIT_SEED = 2024
SETUP_REPEATS = 3

FIT_SAMPLES = 2000
FIT_ITERATIONS = 10
VALIDATION_SAMPLES = 500
ID_RHO = 2.5
OOD_RHOS = (-1.5, -3.0)

GRID_SCENARIOS = ("hidden-confounding", "overlap", "measurement-error")
GRID_SEVERITIES = (0.0, 1.0)
GRID_SAMPLES = 250
GRID_JOBS = 2
GRID_DATA_SEEDS = 6


# --------------------------------------------------------------------------- #
# fit-ood
# --------------------------------------------------------------------------- #
def fit_config() -> SBRLConfig:
    """SBRL-HAP with exact (unsubsampled) RBF-MMD balancing."""
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=3, rep_units=48, head_layers=3, head_units=24),
        regularizers=RegularizerConfig(
            ipm_kind="mmd_rbf", max_pairs_per_layer=24, subsample_threshold=None
        ),
        training=TrainingConfig(
            iterations=FIT_ITERATIONS,
            weight_update_every=5,
            weight_steps_per_iteration=2,
            weight_learning_rate=5e-2,
            weight_clip=(1e-3, 3.0),
            evaluation_interval=5,
            early_stopping_patience=None,
            seed=INIT_SEED,
        ),
    )


def _fit_inputs(seed: int) -> Dict[str, object]:
    generator = SyntheticGenerator(SyntheticConfig(seed=CAUSAL_MODEL_SEED))
    protocol = generator.generate_train_test_protocol(
        FIT_SAMPLES, train_rho=ID_RHO, test_rhos=(ID_RHO,) + OOD_RHOS, seed=seed
    )
    protocol["validation"] = generator.generate(VALIDATION_SAMPLES, ID_RHO, seed=seed + 500)
    return protocol


class _IterationProbe(Callback):
    """Reads every ``IterationRecord`` and times whole loop iterations."""

    def __init__(self) -> None:
        self.records = []
        self.iteration_seconds: List[float] = []
        self._last = 0.0

    def on_train_begin(self, loop) -> None:
        self._last = time.perf_counter()

    def on_iteration_end(self, loop, record) -> None:
        now = time.perf_counter()
        self.iteration_seconds.append(now - self._last)
        self._last = now
        self.records.append(record)


def _traced_fit(estimator: HTEEstimator, train, validation, tracer: Tracer) -> _IterationProbe:
    """``estimator.fit`` with spans around the loop's calls into the trainer."""
    trainer = estimator.build_trainer(train)
    tracer.hook(trainer, "_network_step", "core.network_step")
    tracer.hook(trainer, "_update_weights", "core.weight_update")
    tracer.hook(trainer, "_evaluation_loss", "core.eval")
    if trainer.weight_objective is None:
        raise RuntimeError("fit-ood expects a weighted framework")
    tracer.hook(trainer.weight_objective, "loss", "regularizers.weight_objective")
    tracer.hook(trainer.weight_objective.balancing, "loss", "regularizers.balancing")
    tracer.hook(trainer.weight_objective.independence, "loss", "regularizers.independence")
    probe = _IterationProbe()
    with tracer.span("core.fit"):
        trainer.fit(train, validation, callbacks=[probe])
    return probe


def _pehes(estimator: HTEEstimator, environments) -> Dict[str, float]:
    return {f"{rho:g}": float(estimator.evaluate(environments[rho])["pehe"]) for rho in (ID_RHO,) + OOD_RHOS}


def _measure_fits(protocol, seconds: float, tracer: Tracer):
    """Fit repeatedly while the window lasts (at least once)."""
    fit_seconds: List[float] = []
    pehes: List[Dict[str, float]] = []
    probe = None
    started = time.perf_counter()
    while not fit_seconds or (
        time.perf_counter() - started + fit_seconds[-1] <= seconds
    ):
        estimator = HTEEstimator("cfr", "sbrl-hap", config=fit_config(), seed=INIT_SEED)
        begin = time.perf_counter()
        if tracer.enabled:
            probe = _traced_fit(estimator, protocol["train"], protocol["validation"], tracer)
        else:
            estimator.fit(protocol["train"], protocol["validation"])
        fit_seconds.append(time.perf_counter() - begin)
        pehes.append(_pehes(estimator, protocol["test_environments"]))
    return fit_seconds, pehes, probe


def run_fit_ood(root: str, seed: int, seconds: float, tracer: Tracer) -> WorkloadResult:
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        protocol = _fit_inputs(seed)
        setup_seconds.append(time.perf_counter() - begin)

    fit_seconds, pehes, probe = _measure_fits(protocol, seconds, Tracer(False))
    first = pehes[0]
    result = WorkloadResult(
        setup_seconds=setup_seconds,
        op=summarize(fit_seconds),
        pehe=max(first[f"{rho:g}"] for rho in OOD_RHOS),
        attempted=len(fit_seconds),
        failed=sum(1 for p in pehes if not all(np.isfinite(list(p.values())))),
    )
    result.named["fit_s"] = (summarize(fit_seconds), "s")
    result.named["pehe_id"] = (summarize([first[f"{ID_RHO:g}"]]), "1")
    result.named["pehe_ood"] = (summarize([result.pehe]), "1")
    result.check("fits finite", result.failed == 0, "every PEHE finite")
    result.check(
        "fit-ood PEHE repeats within the run",
        all(p == first for p in pehes),
        f"{len(pehes)} fits at seed {seed}",
    )
    ok, detail = compare_with_previous(root, f"fit-ood-seed{seed}", first)
    result.check("fit-ood PEHE identical across runs", ok, detail)

    if tracer.enabled:
        traced_seconds, traced_pehes, probe = _measure_fits(protocol, 0.0, tracer)
        result.check(
            "traced fit gives the untraced PEHE", traced_pehes[0] == first, "hooks change nothing"
        )
        tracer.require_crossed()
        updates = len(tracer.durations("core.weight_update"))
        records = probe.records
        allocs = [r.tensor_allocs for r in records if r.tensor_allocs is not None]
        nodes = [r.graph_nodes for r in records if r.graph_nodes is not None]
        if not allocs or not nodes:
            raise HookError("IterationRecord no longer carries tensor_allocs / graph_nodes")
        result.layers.update({
            "data.generate_s": float(np.median(setup_seconds)),
            "core.iteration_ms": median_ms(probe.iteration_seconds),
            "core.network_step_ms": median_ms(tracer.durations("core.network_step")),
            "core.weight_update_ms": median_ms(tracer.durations("core.weight_update")),
            "core.eval_ms": median_ms(tracer.durations("core.eval")),
            "core.iterations": float(len(records)),
            "nn.replay_hit_ratio": float(np.mean([r.replay_hit for r in records])),
            "nn.tensor_allocs_per_iter": float(np.mean(allocs)),
            "nn.graph_nodes": float(np.median(nodes)),
            "regularizers.balancing_ms": median_ms(tracer.durations("regularizers.balancing")),
            "regularizers.independence_ms": median_ms(tracer.durations("regularizers.independence")),
            "metrics.hsic_calls_per_update": (
                len(tracer.durations("regularizers.independence")) / updates
            ),
            "trace.unaccounted_share": tracer.unaccounted_share("core.fit"),
        })
        result.layers["trace.overhead_share"] = traced_seconds[0] / result.op["median"] - 1.0
    return result


# --------------------------------------------------------------------------- #
# grid-small
# --------------------------------------------------------------------------- #
def _grid_config(seed: int, cache_dir: str) -> ScenarioSuiteConfig:
    return ScenarioSuiteConfig(
        scenario_names=GRID_SCENARIOS,
        severities=GRID_SEVERITIES,
        num_samples=GRID_SAMPLES,
        n_jobs=GRID_JOBS,
        seed=seed,
        scale="smoke",
        cache_dir=cache_dir,
    )


def _cells(record) -> List[Dict[str, object]]:
    cells = []
    for name in GRID_SCENARIOS:
        for cell in record["scenarios"][name]["cells"]:
            cells.append({
                key: cell[key]
                for key in ("scenario", "severity", "method", "pehe_mean", "ate_error_mean",
                            "per_environment", "error")
            })
    return cells


def _sweep(seed: int, scratch: str, index: int) -> Dict[str, object]:
    cache_dir = os.path.join(scratch, f"cache-{index}")
    record = run_scenario_suite(_grid_config(seed, cache_dir))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return record


def _sweep_seed(seed: int, index: int) -> int:
    """Suite seed of the ``index``-th sweep: sweeps cycle through
    ``GRID_DATA_SEEDS`` datasets so the run's PEHE averages over them."""
    return seed * 1_000 + index % GRID_DATA_SEEDS


def run_grid_small(root: str, seed: int, seconds: float, tracer: Tracer) -> WorkloadResult:
    os.makedirs(os.path.join(root, OUTPUT_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="grid-", dir=os.path.join(root, OUTPUT_DIR))
    try:
        return _run_grid_small(root, seed, seconds, tracer, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _grid_setup_seconds(root: str, seed: int) -> float:
    """A fresh interpreter importing the program and planning the grid.

    This is what a user pays before a sweep can start; the pool workers
    are forked from the measuring process and inherit its imports.
    """
    snippet = (
        "import sys; sys.path.insert(0, 'src'); "
        "from repro.experiments.scenario_suite import ScenarioSuiteConfig; "
        f"config = ScenarioSuiteConfig(scenario_names={GRID_SCENARIOS!r}, "
        f"severities={GRID_SEVERITIES!r}, num_samples={GRID_SAMPLES}, "
        f"n_jobs={GRID_JOBS}, seed={seed}, scale='smoke'); "
        f"config.resolved_scenarios(); config.resolved_methods({seed})"
    )
    begin = time.perf_counter()
    subprocess.run([sys.executable, "-c", snippet], cwd=root, check=True, timeout=120)
    return time.perf_counter() - begin


def _run_grid_small(root, seed, seconds, tracer, scratch) -> WorkloadResult:
    setup_seconds = [_grid_setup_seconds(root, _sweep_seed(seed, 0)) for _ in range(SETUP_REPEATS)]
    # The first sweep in a process forks its pool from a cold interpreter;
    # it is a warm-up, excluded from the measurement.
    warm = _cells(_sweep(_sweep_seed(seed, 0), scratch, 0))

    sweep_seconds: List[float] = []
    cells: List[List[Dict[str, object]]] = []
    started = time.perf_counter()
    while not sweep_seconds or time.perf_counter() - started + sweep_seconds[-1] <= seconds:
        index = len(cells)
        begin = time.perf_counter()
        record = _sweep(_sweep_seed(seed, index), scratch, index + 1)
        sweep_seconds.append(time.perf_counter() - begin)
        cells.append(_cells(record))

    distinct = cells[:GRID_DATA_SEEDS]
    errors = sum(1 for sweep in cells for cell in sweep if cell["error"] is not None)
    result = WorkloadResult(
        setup_seconds=setup_seconds,
        op=summarize(sweep_seconds),
        pehe=float(np.mean([cell["pehe_mean"] for sweep in distinct for cell in sweep])),
        attempted=sum(len(sweep) for sweep in cells),
        failed=errors,
    )
    result.named["grid_s"] = (summarize(sweep_seconds), "s")
    result.named["cell_pehe_mean"] = (summarize([result.pehe]), "1")
    result.notes["datasets"] = len(distinct)
    result.check("grid-small has no error units", errors == 0, f"{errors} error units")
    result.check(
        "grid-small cells identical across sweeps of one dataset",
        cells[0] == warm and all(
            sweep == cells[index % GRID_DATA_SEEDS] for index, sweep in enumerate(cells)
        ),
        f"{len(cells) + 1} sweeps over {len(distinct)} datasets",
    )
    ok, detail = compare_with_previous(root, f"grid-small-seed{seed}", warm)
    result.check("grid-small cells identical across runs", ok, detail)

    if tracer.enabled:
        from repro.experiments.cache import ResultCache

        # The suite builds its own ResultCache, so this one hook is on the
        # class, restored when the traced sweep ends.
        original_put = ResultCache.put
        put_seconds: List[float] = []

        def timed_put(self, key, payload):
            begin = time.perf_counter()
            try:
                return original_put(self, key, payload)
            finally:
                put_seconds.append(time.perf_counter() - begin)

        ResultCache.put = timed_put
        try:
            begin = time.perf_counter()
            with tracer.span("experiments.sweep"):
                traced = _sweep(_sweep_seed(seed, 0), scratch, 10_000)
            traced_seconds = time.perf_counter() - begin
        finally:
            ResultCache.put = original_put
        if not put_seconds:
            raise HookError("ResultCache.put was never called; cache.put_ms is unmeasured")
        result.check("traced sweep gives the untraced cells", _cells(traced) == warm, "")
        stages = traced["stages"]
        execute = stages["execute_seconds"]
        busy = stages["materialise_seconds"] + stages["fit_seconds"] + stages["evaluate_seconds"]
        result.layers.update({
            "scenarios.materialise_s": stages["materialise_seconds"],
            "experiments.plan_s": stages["plan_seconds"],
            "experiments.fit_s": stages["fit_seconds"],
            "experiments.evaluate_s": stages["evaluate_seconds"],
            "experiments.aggregate_s": stages["aggregate_seconds"],
            "experiments.worker_busy_share": busy / (execute * GRID_JOBS),
            "cache.misses": float(traced["cache"]["misses"]),
            "cache.put_ms": median_ms(put_seconds),
            "trace.unaccounted_share": 1.0 - (
                stages["plan_seconds"] + execute + stages["aggregate_seconds"]
            ) / traced_seconds,
        })
        result.layers["trace.overhead_share"] = traced_seconds / result.op["median"] - 1.0
    return result
