"""End-to-end pin of SBRL-HAP training through the RBF-MMD Balancing Regularizer.

The seed-11 goldens (``test_golden_regression.py``) train with the default
linear MMD, so they never reach the fused ``weighted_rbf_mmd_term`` kernel.
This module fits CFR+SBRL-HAP on the same protocol with exact
(unsubsampled) RBF-MMD in both the network loss and the sample-weight
objective, and pins:

* replay == eager, bit for bit;
* PEHE / ATE-error at the goldens' tolerance.  The pinned values were
  recorded on the code *before* the fused kernel replaced the
  ``rbf_kernel`` + ``bilinear_weighted_sum`` composition, so this test
  also bounds that change to rounding level;
* stacked multi-seed replay == serial fits for vanilla CFR with RBF-MMD.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.core.stacked import fit_stacked
from repro.data.synthetic import SyntheticConfig, SyntheticGenerator

#: The goldens' tolerance: it absorbs BLAS reassociation across platforms.
RTOL = 1e-5

#: metrics[environment] = (pehe, ate_error), full batch, recorded with the
#: composed (pre-fusion) RBF-MMD graph.
PINNED = {
    "2.5": (0.49943080041786503, 0.012821297211762258),
    "-2.5": (0.8138498128178095, 0.10422907015405242),
}


def _config(graph_replay="auto", iterations=30):
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
        regularizers=RegularizerConfig(
            alpha=1e-2,
            gamma1=1.0,
            gamma2=1e-2,
            gamma3=1e-2,
            ipm_kind="mmd_rbf",
            max_pairs_per_layer=6,
            subsample_threshold=None,
            num_anchors=32,
        ),
        training=TrainingConfig(
            iterations=iterations,
            learning_rate=1e-2,
            weight_update_every=5,
            weight_steps_per_iteration=1,
            evaluation_interval=10,
            early_stopping_patience=None,
            seed=0,
            graph_replay=graph_replay,
        ),
    )


@pytest.fixture(scope="module")
def protocol():
    generator = SyntheticGenerator(
        SyntheticConfig(
            num_instruments=4, num_confounders=4, num_adjustments=4, num_unstable=2, seed=11
        )
    )
    return generator.generate_train_test_protocol(
        num_samples=240, train_rho=2.5, test_rhos=(2.5, -2.5), seed=11
    )


def _fit(protocol, config, framework="sbrl-hap", seed=11):
    estimator = HTEEstimator(backbone="cfr", framework=framework, config=config, seed=seed)
    estimator.fit(protocol["train"])
    return estimator


def test_rbf_training_is_pinned_and_replay_equals_eager(protocol):
    replayed = _fit(protocol, _config("auto"))
    eager = _fit(protocol, _config("off"))
    assert replayed.trainer._replay.stats["hits"] > 0
    assert eager.trainer._replay is None
    for rho, dataset in protocol["test_environments"].items():
        metrics = replayed.evaluate(dataset)
        assert metrics == eager.evaluate(dataset), f"rho={rho:g}"
        want_pehe, want_ate = PINNED[f"{rho:g}"]
        assert metrics["pehe"] == pytest.approx(want_pehe, rel=RTOL)
        assert metrics["ate_error"] == pytest.approx(want_ate, rel=RTOL)
    assert (
        replayed.training_history().as_dict()["network_loss"]
        == eager.training_history().as_dict()["network_loss"]
    )


def test_rbf_stacked_equals_serial(protocol):
    config = _config(iterations=7)
    # Per-step pair anchors are dynamic inputs, which stacking cannot fuse.
    config = dataclasses.replace(
        config, regularizers=dataclasses.replace(config.regularizers, subsample_threshold=256)
    )
    seeds = [11, 12]
    stacked = [HTEEstimator("cfr", "vanilla", config=config, seed=s) for s in seeds]
    assert fit_stacked(stacked, [protocol["train"]] * len(seeds)) is True
    for seed, fused in zip(seeds, stacked):
        serial = _fit(protocol, config, framework="vanilla", seed=seed)
        state = serial.trainer.backbone.state_dict()
        for name, value in fused.trainer.backbone.state_dict().items():
            assert np.array_equal(value, state[name]), f"seed {seed} parameter {name}"
