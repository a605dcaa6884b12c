"""Engine contract: determinism, the paired design, the harvest rule for
radar-only, and the coordinator's per-class prediction cache."""

import dataclasses

import numpy as np
import pytest

from crnsim.bandit import PolicyKind
from crnsim.classlib import ClassLibrary, LearnedClass, class_parameter_vector
from crnsim.engine import (
    Coordinator,
    PolicySpec,
    SimConfig,
    default_policies,
    epoch_seed,
    run_epoch,
    run_experiment,
)
from crnsim.scenario import Region, ScenarioConfig, default_family
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
