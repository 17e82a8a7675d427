"""Tests for the shared benchmark-record plumbing and each record's gates."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import (
    autodiff_benchmark,
    online_benchmark,
    serving_benchmark,
    training_benchmark,
)
from repro.experiments.perf_gate import (
    REGRESSION_FACTOR,
    check_perf_regression,
    smoke_reference,
    write_record,
)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

MODULES = {
    "autodiff": autodiff_benchmark,
    "online": online_benchmark,
    "serving": serving_benchmark,
    "training": training_benchmark,
}


def _committed(name: str) -> dict:
    with open(os.path.join(ROOT, f"BENCH_{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_declared_gates_match_committed_smoke_reference(name):
    """A gate key missing from the committed block is skipped with a note,
    so the declared keys and the committed keys must be the same set."""
    gates = MODULES[name].PERF_GATES
    keys = {gate.key for gate in gates}
    record = _committed(name)
    assert keys == set(record["smoke_reference"])
    # The committed full record has the smoke record's schema, so it
    # stands in for one: every extractor must read it.
    block = smoke_reference(gates, record)
    assert set(block) == keys
    assert all(isinstance(value, (int, float)) for value in block.values())


class TestGraphNodeGate:
    """The fused-graph node count is exact: any extra node fails."""

    GATES = [
        gate
        for gate in autodiff_benchmark.PERF_GATES
        if gate.key == "decorrelation_fused_graph_nodes"
    ]

    @staticmethod
    def _record(nodes: int) -> dict:
        return {
            "mode": "smoke",
            "per_op": {"pairwise_decorrelation_loss": {"fused": {"graph_nodes": nodes}}},
        }

    @pytest.mark.parametrize("nodes, code", [(79, 1), (78, 0), (77, 0)])
    def test_any_increase_fails(self, tmp_path, nodes, code):
        baseline = tmp_path / "BENCH_autodiff.json"
        baseline.write_text(
            json.dumps({"smoke_reference": {"decorrelation_fused_graph_nodes": 78}})
        )
        assert len(self.GATES) == 1 and self.GATES[0].limit == 1.0
        assert check_perf_regression(self._record(nodes), str(baseline), self.GATES) == code

    @pytest.mark.parametrize("nodes, code", [(21, 1), (20, 0), (19, 0)])
    def test_any_mmd_graph_increase_fails(self, tmp_path, nodes, code):
        gates = [
            gate
            for gate in autodiff_benchmark.PERF_GATES
            if gate.key == "mmd_rbf_fused_graph_nodes"
        ]
        baseline = tmp_path / "BENCH_autodiff.json"
        baseline.write_text(json.dumps({"smoke_reference": {"mmd_rbf_fused_graph_nodes": 20}}))
        record = {
            "mode": "smoke",
            "per_op": {"mmd_rbf_weighted": {"fused": {"graph_nodes": nodes}}},
        }
        assert len(gates) == 1 and gates[0].limit == 1.0
        assert check_perf_regression(record, str(baseline), gates) == code

    def test_timings_keep_the_regression_factor(self):
        limits = {
            gate.key: gate.limit
            for module in MODULES.values()
            for gate in module.PERF_GATES
        }
        for key in ("decorrelation_fused_graph_nodes", "mmd_rbf_fused_graph_nodes"):
            assert limits.pop(key) == 1.0
        assert set(limits.values()) == {REGRESSION_FACTOR}


class TestTrainingHardGates:
    @staticmethod
    def _record(parallel: bool, stacked: bool) -> dict:
        return {
            "parallel_grid": {"identical_results": parallel},
            "stacked_replications": {"identical_results": stacked},
        }

    def test_identical_results_pass(self):
        assert training_benchmark.gate_failures(self._record(True, True)) == []

    def test_each_exactness_flag_is_gated(self):
        assert training_benchmark.gate_failures(self._record(False, False)) == [
            "parallel grid results differ from the serial grid",
            "stacked replications differ from serial fits",
        ]

    def test_committed_record_passes(self):
        assert training_benchmark.gate_failures(_committed("training")) == []


def test_autodiff_has_no_hard_gates():
    assert autodiff_benchmark.gate_failures(_committed("autodiff")) == []


def test_committed_records_round_trip_byte_for_byte(tmp_path):
    """Rewriting a committed record reproduces its exact bytes."""
    for name in ("autodiff", "online", "scenarios", "serving", "training"):
        source = os.path.join(ROOT, f"BENCH_{name}.json")
        path = write_record(_committed(name), str(tmp_path / f"{name}.json"))
        with open(source, "rb") as committed, open(path, "rb") as written:
            assert written.read() == committed.read(), name
