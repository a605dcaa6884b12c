import copy
import dataclasses
import json
from pathlib import Path

import pytest

import run
import workloads
from crnsim import engine


@pytest.fixture(scope="module")
def paired_result():
    config = engine.SimConfig(num_epochs=2, epoch_duration_s=5.0, num_runs=1, seed=3)
    return engine.run_experiment(config)


def doctored(result, label, epoch, **changes):
    """A copy of ``result`` with fields of one epoch replaced."""
    metrics = copy.deepcopy(result.metrics)
    run0 = metrics[label][0]
    run0[epoch] = dataclasses.replace(run0[epoch], **changes)
    return engine.ExperimentResult(config=result.config, policies=result.policies, metrics=metrics)


def problems_of(result):
    found = workloads.result_problems(result)
    return {key: " ".join(v) for key, v in found.items()}


def test_sound_result_passes(paired_result):
    assert problems_of(paired_result) == {}
    assert workloads.epochs_in(paired_result) == 3 * 2


@pytest.mark.parametrize(
    "label, changes, expect",
    [
        ("radar-only", {"truth_digest": "0" * 40}, "truth digest differs"),
        ("radar-only", {"harvested": 2, "pool_size": 2}, "radar-only harvested"),
        ("radar-only", {"formation_accuracy": 0.5}, "radar-only scored"),
        ("radar-only", {"radar_utilization": 0.9}, "utilisation"),
        ("bandit", {"association_accuracy": 1.5}, "outside [0, 1]"),
        ("bandit", {"formation_accuracy": -0.1}, "outside [0, 1]"),
        ("bandit", {"num_tracks": 10_000}, "tracks for"),
        ("bandit", {"num_tracks": 1, "rmse_median": float("nan")}, "non-finite RMSE"),
        ("random-0.8", {"active_node_steps": -1}, "!= 10 steps"),
    ],
)
def test_each_check_fires_on_a_doctored_epoch(paired_result, label, changes, expect):
    found = problems_of(doctored(paired_result, label, 1, **changes))
    assert list(found) == [(label, 0, 1)]
    assert expect in found[(label, 0, 1)]


def test_digests_see_any_field_change(paired_result):
    base = workloads.metrics_digest(paired_result)
    assert workloads.metrics_digest(copy.deepcopy(paired_result)) == base
    moved = doctored(paired_result, "bandit", 0, rmse_mean=paired_result.metrics["bandit"][0][0].rmse_mean + 1e-9)
    assert workloads.metrics_digest(moved) != base
    assert workloads.truth_digest(moved) == workloads.truth_digest(paired_result)


def test_combine_treats_units_as_runs(paired_result):
    combined = workloads.combine([paired_result, paired_result])
    assert len(combined.metrics["bandit"]) == 2
    q = workloads.quality(workloads.WORKLOADS["paired"], combined)
    assert set(q) == {
        "rmse_median_m", "final_rmse_median_m", "rmse_gain_vs_radar",
        "formation_accuracy", "association_accuracy",
    }


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.metric_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
