"""Engine contract: determinism, the paired design, config validation, the
harvest rule for radar-only, radar association by truth id, the
coordinator's per-class prediction cache, the names the benchmark tracer
hooks, and a digest guard over every metric of a small experiment."""

import dataclasses
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from crnsim.bandit import PolicyKind
from crnsim.classlib import ClassLibrary, LearnedClass, class_parameter_vector
from crnsim.engine import (
    ConfigError,
    Coordinator,
    PolicySpec,
    SimConfig,
    World,
    _fuse_radar,
    default_policies,
    epoch_seed,
    run_epoch,
    run_experiment,
)
from crnsim.scenario import Node, Region, ScenarioConfig, Target, default_family
from crnsim.sensing import SensorNoise
from crnsim.tracking import Track, process_noise_matrix, untuned_tuning

# about 7 nodes and 11 targets, 25 steps per epoch
SMALL = SimConfig(
    scenario=ScenarioConfig(region=Region(6.0, 6.0)),
    num_epochs=2,
    epoch_duration_s=12.5,
    num_runs=1,
    seed=3,
)
BANDIT = PolicySpec(PolicyKind.BANDIT)
RADAR_ONLY = PolicySpec(PolicyKind.RADAR_ONLY)


def assert_metrics_identical(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert np.array_equal(x, y, equal_nan=True), f.name
        else:
            assert x == y or (x != x and y != y), f.name


@pytest.fixture(scope="module")
def bandit_result():
    return run_experiment(SMALL, [BANDIT])


class TestDeterminism:
    def test_same_seed_same_metrics(self, bandit_result):
        again = run_experiment(SMALL, [BANDIT])
        runs, runs_again = bandit_result.metrics["bandit"], again.metrics["bandit"]
        assert len(runs) == len(runs_again) == 1
        for m, m_again in zip(runs[0], runs_again[0]):
            assert_metrics_identical(m, m_again)

    def test_library_carries_across_epochs(self, bandit_result):
        epochs = bandit_result.metrics["bandit"][0]
        assert epochs[0].harvested > 0
        assert epochs[1].pool_size == epochs[0].harvested + epochs[1].harvested


class TestPairedDesign:
    def test_truth_digest_equal_under_every_policy(self):
        # a fresh SeedSequence per epoch, as run_experiment makes them
        digests = {
            spec.label: run_epoch(
                ClassLibrary(), SMALL, epoch_seed(SMALL.seed, 1, 0), policy=spec
            )[0].truth_digest
            for spec in default_policies()
        }
        assert len(digests) == 3
        assert len(set(digests.values())) == 1

    def test_one_seed_sequence_reused_gives_one_truth(self):
        # make_streams must not advance the caller's SeedSequence
        seed = epoch_seed(SMALL.seed, 1, 0)
        first = run_epoch(ClassLibrary(), SMALL, seed, policy=RADAR_ONLY)[0]
        again = run_epoch(ClassLibrary(), SMALL, seed, policy=RADAR_ONLY)[0]
        assert seed.n_children_spawned == 0
        assert first.truth_digest == again.truth_digest
        fresh = run_epoch(
            ClassLibrary(), SMALL, epoch_seed(SMALL.seed, 1, 0), policy=RADAR_ONLY
        )[0]
        assert_metrics_identical(first, fresh)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "change",
        [
            {"num_epochs": 0},
            {"num_runs": 0},
            {"dt_s": 0.0},
            {"dt_s": -0.5},
            {"epoch_duration_s": 0.0},
            {"epoch_duration_s": -1.0},
            {"epoch_duration_s": 12.3},  # not a whole number of 0.5 s steps
            {"epoch_duration_s": 0.25},  # half a step
        ],
    )
    def test_invalid_sim_config_rejected(self, change):
        with pytest.raises(ConfigError):
            dataclasses.replace(SMALL, **change)

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_invalid_active_probability_rejected(self, p):
        with pytest.raises(ConfigError):
            PolicySpec(PolicyKind.RANDOM, p)

    def test_valid_edges_accepted(self):
        PolicySpec(PolicyKind.RANDOM, 0.0)
        PolicySpec(PolicyKind.RANDOM, 1.0)
        assert dataclasses.replace(SMALL, epoch_duration_s=0.5).steps_per_epoch == 1


class TestRadarOnly:
    def test_harvests_nothing_and_scores_zero(self, bandit_result):
        result = run_experiment(SMALL, [RADAR_ONLY])
        for m in result.metrics["radar-only"][0]:
            assert m.harvested == 0 and m.pool_size == 0
            assert m.num_classes == 0
            assert m.formation_accuracy == 0.0 and m.association_accuracy == 0.0
            assert m.radar_utilization == 1.0
        # the same cells do yield vectors when nodes also listen
        assert bandit_result.metrics["bandit"][0][0].harvested > 0


class TestRadarAssociation:
    def test_colocated_targets_update_their_own_tracks(self):
        # two targets at one position seen by one node: returns carry the
        # truth target id, so each reaches its own track, which gating on
        # position alone could not tell apart
        position = np.array([3000.0, 0.0, 500.0])
        targets = [
            Target(key, 0, position.copy(), np.zeros(3), 0, 0, False)
            for key in (10, 11)
        ]
        family = default_family()
        world = World(
            nodes=[Node(0, np.zeros(3), 10_000.0)],
            targets=targets,
            family=family,
            node_positions=np.zeros((1, 3)),
            radar_ranges=np.array([10_000.0]),
            passive_ranges=np.zeros(2),
            target_classes=[family.classes[0]] * 2,
            index_by_id={10: 0, 11: 1},
        )
        coord = Coordinator(
            library=ClassLibrary(), num_signal_states=4, use_class_knowledge=False
        )
        r, el = float(np.linalg.norm(position)), float(np.arctan2(500.0, 3000.0))
        # radial velocities +15 and -15 m/s tell the two returns apart
        z = np.array([[r, 0.0, el, 15.0, 0.0], [r, 0.0, el, -15.0, 0.0]])
        for t in (1, 2, 3):
            _fuse_radar(world, coord, np.array([0, 0]), np.array([0, 1]), z, t, 0.5,
                        SensorNoise())
        tracks = coord.tracks
        assert sorted(tracks) == [10, 11]
        assert tracks[10].num_updates == tracks[11].num_updates == 3
        los = position / r
        assert tracks[10].state[3:] @ los > 10.0
        assert tracks[11].state[3:] @ los < -10.0
        _fuse_radar(world, coord, np.array([0]), np.array([1]), z[1:], 4, 0.5,
                    SensorNoise())
        assert (tracks[10].num_updates, tracks[11].num_updates) == (3, 4)


class TestPredictCache:
    def _coordinator(self, use_class_knowledge):
        cls = default_family().classes[0]
        library = ClassLibrary(classes=[
            LearnedClass(class_id=4, centroid=class_parameter_vector(cls), member_count=1)
        ])
        return Coordinator(
            library=library, num_signal_states=4, use_class_knowledge=use_class_knowledge
        )

    def _track(self, class_assignment):
        return Track(
            target_key=0,
            model_states=np.zeros((3, 6)),
            model_covs=np.tile(np.eye(6), (3, 1, 1)),
            model_probs=np.full(3, 1 / 3),
            class_assignment=class_assignment,
        )

    def _expected(self, tuning, dt):
        Q = np.stack([process_noise_matrix(dt, s) for s in tuning.process_noise_per_state])
        return tuning.mode_transition.transition, Q

    def test_keyed_by_class_with_none_for_untuned(self):
        coord = self._coordinator(True)
        tuned, untuned = self._track(4), self._track(None)
        for track, tuning in (
            (tuned, coord.library.get(4).tuning()),
            (untuned, untuned_tuning()),
        ):
            trans, Q = coord.predict_arrays(track, 0.5)
            want_trans, want_Q = self._expected(tuning, 0.5)
            assert np.array_equal(trans, want_trans)
            assert np.array_equal(Q, want_Q)
        assert set(coord._noise_cache) == {4, None}

    def test_baseline_ignores_class_assignment(self):
        coord = self._coordinator(False)
        trans, Q = coord.predict_arrays(self._track(4), 0.5)
        want_trans, want_Q = self._expected(untuned_tuning(), 0.5)
        assert np.array_equal(trans, want_trans) and np.array_equal(Q, want_Q)
        assert set(coord._noise_cache) == {None}


def test_every_bench_tracer_hook_resolves(monkeypatch):
    # the benchmark tracer patches crnsim attributes by name and reports a
    # renamed one only as a missing layer, so a rename must fail here
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    unresolved = [
        (h.module, h.attr)
        for h in tracer.HOOKS
        if not hasattr(importlib.import_module(h.module), h.attr)
    ]
    assert tracer.HOOKS and unresolved == []


def metrics_sha256(result):
    """SHA-256 over every EpochMetrics field of every epoch, policy by
    policy, in order."""
    h = hashlib.sha256()
    for spec in result.policies:
        for run in result.metrics[spec.label]:
            for m in run:
                for f in dataclasses.fields(m):
                    value = getattr(m, f.name)
                    h.update(f.name.encode())
                    if isinstance(value, np.ndarray):
                        h.update(f"{value.dtype}{value.shape}".encode())
                        h.update(np.ascontiguousarray(value).tobytes())
                    else:
                        h.update(repr(getattr(value, "item", lambda: value)()).encode())
    return h.hexdigest()


# Recorded on the SMALL config under the three default policies. A change
# that is meant to alter behaviour updates this value and says why in
# CHANGES.md; any other change must leave it as it is.
SMALL_METRICS_SHA256 = "12fc3fa0bdec5aece9a2705c237e076bb2c210fb41ef1980c78b526ddd4dedd0"


class TestRegressionGuard:
    def test_small_experiment_metrics_unchanged(self):
        assert metrics_sha256(run_experiment(SMALL)) == SMALL_METRICS_SHA256
