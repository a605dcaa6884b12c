"""The benchmark's workloads, output checks and digests.

A workload fixes the experiment shape (policies, epochs, scenario); the
benchmark runs it as a sequence of units, each one ``run_experiment`` call
with ``num_runs=1`` and its own seed derived from the workload seed. Units
are independent Monte Carlo runs, so the first ``core_units`` of them
together form the fixed experiment whose quality metrics and digests are
reported.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from crnsim import engine
from crnsim.bandit import PolicyKind
from crnsim.engine import EpochMetrics, ExperimentResult, PolicySpec, SimConfig
from crnsim.scenario import ScenarioConfig

BANDIT = PolicyKind.BANDIT.value
RADAR_ONLY = PolicyKind.RADAR_ONLY.value

# unit seeds are workload_seed * SEED_STRIDE + unit index
SEED_STRIDE = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policies: tuple
    num_epochs: int
    # the policy whose epochs give rmse_median_m
    quality_policy: str
    # units whose outputs make the reported quality metrics and digests
    core_units: int
    # units run twice, untraced then traced, in a --trace 1 run
    trace_units: int
    scenario: dict = field(default_factory=dict)

    def unit_config(self, seed: int, unit: int) -> SimConfig:
        return SimConfig(
            scenario=ScenarioConfig(**self.scenario),
            num_epochs=self.num_epochs,
            num_runs=1,
            seed=seed * SEED_STRIDE + unit,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paired",
            why="the paper's paired design: bandit, radar-only and random-0.8 "
            "replay the same truth; step loop dominates and pools stay small",
            policies=engine.default_policies(),
            num_epochs=3,
            quality_policy=BANDIT,
            core_units=4,
            trace_units=2,
        ),
        Workload(
            name="bandit-long",
            why="one bandit run over the default 15 epochs, so the class pool "
            "reaches its real size (~400 vectors) and re-clustering dominates",
            policies=(PolicySpec(PolicyKind.BANDIT),),
            num_epochs=15,
            quality_policy=BANDIT,
            core_units=1,
            trace_units=1,
        ),
        Workload(
            name="dense-radar",
            why="radar-only at twice the node and target density: no intercepts, "
            "bandit or re-clustering; truth stepping and fusion dominate",
            policies=(PolicySpec(PolicyKind.RADAR_ONLY),),
            num_epochs=3,
            quality_policy=RADAR_ONLY,
            core_units=6,
            trace_units=3,
            scenario={"node_density_per_km2": 0.4, "target_density_per_km2": 0.6},
        ),
    )
}


# --- output checks ---


def epoch_problems(m: EpochMetrics, steps_per_epoch: int) -> list:
    """What is wrong with one epoch's metrics on its own; empty when sound."""
    problems = []
    for name in ("formation_accuracy", "association_accuracy"):
        value = getattr(m, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name}={value} outside [0, 1]")
    if m.num_tracks > m.num_targets:
        problems.append(f"{m.num_tracks} tracks for {m.num_targets} targets")
    if m.num_tracks > 0 and not (
        math.isfinite(m.rmse_median)
        and math.isfinite(m.rmse_mean)
        and np.all(np.isfinite(m.rmse_per_target))
    ):
        problems.append("non-finite RMSE with tracks present")
    if m.active_node_steps + m.passive_node_steps != steps_per_epoch * m.num_nodes:
        problems.append(
            f"active {m.active_node_steps} + passive {m.passive_node_steps} "
            f"!= {steps_per_epoch} steps x {m.num_nodes} nodes"
        )
    if m.policy == RADAR_ONLY:
        if m.harvested != 0 or m.pool_size != 0:
            problems.append(
                f"radar-only harvested {m.harvested}, pool {m.pool_size}"
            )
        if m.formation_accuracy != 0.0 or m.association_accuracy != 0.0:
            problems.append("radar-only scored nonzero accuracy")
        if m.radar_utilization != 1.0:
            problems.append(f"radar-only utilisation {m.radar_utilization}")
    return problems


def result_problems(result: ExperimentResult) -> dict:
    """``{(label, run, epoch): [problem, ...]}`` for every failing epoch.

    Besides the per-epoch checks, every policy must see the truth the first
    policy saw in the same (run, epoch) cell: the paired design."""
    steps = result.config.steps_per_epoch
    labels = [p.label for p in result.policies]
    reference = result.metrics[labels[0]]
    problems = {}
    for label in labels:
        for r, run in enumerate(result.metrics[label]):
            for e, m in enumerate(run):
                found = epoch_problems(m, steps)
                if m.truth_digest != reference[r][e].truth_digest:
                    found.append(f"truth digest differs from {labels[0]}")
                if found:
                    problems[(label, r, e)] = found
    return problems


def epochs_in(result: ExperimentResult) -> int:
    return sum(len(run) for runs in result.metrics.values() for run in runs)


# --- combining units and reporting ---


def combine(results: list) -> ExperimentResult:
    """Units as the runs of one experiment, in unit order."""
    first = results[0]
    metrics = {
        label: [run for r in results for run in r.metrics[label]]
        for label in first.metrics
    }
    return ExperimentResult(config=first.config, policies=first.policies, metrics=metrics)


def _all_epochs(result: ExperimentResult):
    for p in result.policies:
        for run in result.metrics[p.label]:
            yield from run


def metrics_digest(result: ExperimentResult) -> str:
    """SHA-256 over every EpochMetrics field of every epoch, in order."""
    h = hashlib.sha256()
    for m in _all_epochs(result):
        for f in dataclasses.fields(m):
            value = getattr(m, f.name)
            h.update(f.name.encode())
            if isinstance(value, np.ndarray):
                h.update(f"{value.dtype}{value.shape}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                # numpy scalars as Python numbers, so the repr is version-proof
                h.update(repr(getattr(value, "item", lambda: value)()).encode())
    return h.hexdigest()


def truth_digest(result: ExperimentResult) -> str:
    """SHA-256 over the per-epoch truth digests, in order."""
    h = hashlib.sha256()
    for m in _all_epochs(result):
        h.update(m.truth_digest.encode())
    return h.hexdigest()


def quality(workload: Workload, result: ExperimentResult) -> dict:
    """Quality metrics of the combined core units, by metric name.

    ``rmse_median_m`` averages the median track RMSE over every epoch, not
    only the final one: epochs are independent scenarios, so this spreads
    far less across workload seeds than the final-epoch value (also
    reported, as ``final_rmse_median_m``)."""
    policy = workload.quality_policy
    out = {
        "rmse_median_m": float(
            np.nanmean([m.rmse_median for run in result.metrics[policy] for m in run])
        ),
        "final_rmse_median_m": float(np.mean(result.final_epoch(policy, "rmse_median"))),
    }
    labels = {p.label for p in result.policies}
    if {BANDIT, RADAR_ONLY} <= labels:
        out["rmse_gain_vs_radar"] = engine.rmse_improvement(result, RADAR_ONLY)
    if BANDIT in labels:
        for name in ("formation_accuracy", "association_accuracy"):
            out[name] = float(np.mean(result.final_epoch(BANDIT, name)))
    return out
