"""Engine contract: determinism, the paired design (the world stream alone
reproduces an epoch's truth), config validation, one batched truth step per
step whatever the target count, the harvest rule for radar-only, radar
association by truth id with one return per target per step, the
coordinator's per-class prediction cache, the track table (its invariants,
reward entropies against a per-track oracle, IMM combination equal to a
`Track`'s, and no per-track state read or kept by the coordinator), the sign
of `rmse_improvement`, the names the benchmark tracer hooks, and a digest
guard over every metric of a small experiment."""

import copy
import dataclasses
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import crnsim.dynamics as dynamics
import crnsim.engine as engine
from crnsim.bandit import PolicyKind
from crnsim.classlib import ClassLibrary, LearnedClass, make_parameter_vector
from crnsim.dynamics import make_target_table, step_motion, step_signal
from crnsim.engine import (
    ConfigError,
    Coordinator,
    ExperimentResult,
    PolicySpec,
    SimConfig,
    World,
    _fuse_radar,
    default_policies,
    epoch_seed,
    make_streams,
    make_world,
    rmse_improvement,
    run_epoch,
    run_experiment,
)
from crnsim.markov import stationary_distribution
from crnsim.scenario import Node, Region, ScenarioConfig, Target, default_family
from crnsim.sensing import SensorNoise
from crnsim.tracking import Track, process_noise_matrix, start_track, untuned_tuning

from scalar_reference import kalman_update, track_uncertainties

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

    def test_world_stream_alone_reproduces_the_truth(self):
        # step a world outside the engine, from nothing but the world stream
        seed = epoch_seed(SMALL.seed, 1, 0)
        want = run_epoch(ClassLibrary(), SMALL, seed, policy=BANDIT)[0].truth_digest
        rng = make_streams(seed).world
        truth = make_world(SMALL.scenario, rng).targets
        digest = hashlib.sha1()
        for _ in range(SMALL.steps_per_epoch):
            step_motion(truth, SMALL.dt_s, rng)
            step_signal(truth, rng)
            digest.update(truth.position.tobytes())
            digest.update(
                np.column_stack([truth.motion_state, truth.signal_state]).tobytes()
            )
            digest.update(truth.tx_on.tobytes())
        assert digest.hexdigest() == want


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


def _radar_world(node_positions, target_positions):
    """Nodes with a 10 km radar and default-family targets at rest."""
    family = default_family()
    targets = [
        Target(i, 0, np.array(p, dtype=float), np.zeros(3), 0, 0, False)
        for i, p in enumerate(target_positions)
    ]
    return World(
        nodes=[Node(i, np.array(p, dtype=float), 10_000.0)
               for i, p in enumerate(node_positions)],
        targets=make_target_table(targets, family.classes),
        family=family,
        node_positions=np.array(node_positions, dtype=float),
        radar_ranges=np.full(len(node_positions), 10_000.0),
        passive_ranges=np.zeros(len(targets)),
    )


def _polar_row(node, point, d_az=0.0):
    """Noise-free [range, azimuth, elevation, radial velocity, angular
    rate] of a static point, with the azimuth shifted by d_az."""
    rel = np.asarray(point) - node
    r = float(np.linalg.norm(rel))
    return np.array(
        [r, np.arctan2(rel[1], rel[0]) + d_az, np.arcsin(rel[2] / r), 0.0, 0.0]
    )


def _radar_coordinator(world, library=None):
    return Coordinator(
        library=ClassLibrary() if library is None else library,
        num_signal_states=4,
        use_class_knowledge=library is not None,
        num_targets=world.num_targets,
    )


def _fuse_counting_updates(monkeypatch, coord):
    """`_fuse_radar` plus a per-row count of the filter updates it made: a
    track starts from two readings, so 2 + count is the row's number of
    measurement updates. Each bank that `kalman_update_arrays` returns is
    matched to the one table row it was written to."""
    update, banks = engine.kalman_update_arrays, []
    counts = np.zeros(coord.num_targets, dtype=np.int64)

    def recorded(*args):
        out = update(*args)
        banks.append(out[0])
        return out

    def fuse(*args):
        banks.clear()
        read = _fuse_radar(*args)
        for states in banks:
            for s in states:
                hit = [np.array_equal(s, m) for m in coord.model_states]
                assert sum(hit) == 1
                counts[hit.index(True)] += 1
        return read

    monkeypatch.setattr(engine, "kalman_update_arrays", recorded)
    return fuse, counts


class TestRadarAssociation:
    def test_colocated_targets_update_their_own_tracks(self, monkeypatch):
        # two targets at one position seen by one node: returns carry the
        # truth target id, so each reaches its own track, which gating on
        # position alone could not tell apart
        position = np.array([3000.0, 0.0, 500.0])
        world = _radar_world([np.zeros(3)], [position, position])
        coord = _radar_coordinator(world)
        fuse, updates = _fuse_counting_updates(monkeypatch, coord)
        r, el = float(np.linalg.norm(position)), float(np.arctan2(500.0, 3000.0))
        # radial velocities +15 and -15 m/s tell the two returns apart
        z = np.array([[r, 0.0, el, 15.0, 0.0], [r, 0.0, el, -15.0, 0.0]])
        for t in (1, 2, 3):
            fuse(world, coord, np.array([0, 0]), np.array([0, 1]), z, t, 0.5,
                 SensorNoise())
        assert np.flatnonzero(coord.live).tolist() == [0, 1]
        assert (2 + updates).tolist() == [3, 3]
        los = position / r
        assert coord.estimates[0, 3:] @ los > 10.0
        assert coord.estimates[1, 3:] @ los < -10.0
        fuse(world, coord, np.array([0]), np.array([1]), z[1:], 4, 0.5, SensorNoise())
        assert (2 + updates).tolist() == [3, 4]

    @pytest.mark.parametrize(
        "nodes, used",
        [
            # node 1 is closer: the smaller measured range wins over node id
            ([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]], 1),
            # equal ranges: the lower node id wins, whatever the input order
            ([[0.0, 0.0, 0.0], [6000.0, 0.0, 0.0]], 0),
        ],
    )
    def test_one_update_per_step_from_the_closest_return(
        self, monkeypatch, nodes, used
    ):
        target = np.array([3000.0, 400.0, 500.0])
        world = _radar_world(nodes, [target])
        coord = _radar_coordinator(world)
        fuse, updates = _fuse_counting_updates(monkeypatch, coord)
        noise = SensorNoise()
        # the two nodes disagree by +-0.01 rad in azimuth, so which return
        # was used shows in the estimate; ranges stay as measured
        rows = np.stack([_polar_row(world.node_positions[n], target, d)
                         for n, d in ((1, -0.01), (0, 0.01))])
        ni, ti = np.array([1, 0]), np.array([0, 0])
        ranges = rows[:, 0]
        assert (ranges[0] < ranges[1]) if used == 1 else (ranges[0] == ranges[1])
        for t in (1, 2):
            fuse(world, coord, ni, ti, rows, t, 0.5, noise)
        # started by differencing two looks from the same node: at rest
        assert coord.order.tolist() == [0] and 2 + updates[0] == 2
        assert np.allclose(coord.estimates[0, 3:], 0.0, atol=1e-9)
        for t in (3, 4, 5):
            track = Track(*(a[0] for a in coord.bank(np.array([0]))))
            expected = {
                n: kalman_update(copy.deepcopy(track), rows[list(ni).index(n)],
                                 world.nodes[n], noise)
                for n in (0, 1)
            }
            read, omegas = fuse(world, coord, ni, ti, rows, t, 0.5, noise)
            assert list(read) == [0] and list(omegas) == [0.0]
            assert 2 + updates[0] == t
            want, other = expected[used], expected[1 - used]
            assert np.allclose(coord.model_states[0], want.model_states, atol=1e-6)
            assert not np.allclose(coord.model_states[0], other.model_states, atol=1.0)


def _one_class_library():
    """A library whose class 4 has the vector a perfectly observed member
    of the default family's first class would have."""
    cls = default_family().classes[0]
    centroid = make_parameter_vector(
        stationary_distribution(cls.motion_chain),
        cls.motion_chain.transition,
        stationary_distribution(cls.signal_chain),
        cls.signal_chain.transition,
        np.ones(9),
    )
    return ClassLibrary(classes=[
        LearnedClass(class_id=4, centroid=centroid, member_count=1)
    ])


class TestPredictCache:
    def _coordinator(self, use_class_knowledge):
        return Coordinator(
            library=_one_class_library(),
            num_signal_states=4,
            use_class_knowledge=use_class_knowledge,
        )

    def _expected(self, tuning, dt):
        Q = np.stack([process_noise_matrix(dt, s) for s in tuning.process_noise_per_state])
        return tuning.mode_transition.transition, Q

    def test_keyed_by_class_with_none_for_untuned(self):
        coord = self._coordinator(True)
        for class_id, tuning in (
            (4, coord.library.get(4).tuning()),
            (None, untuned_tuning()),
        ):
            trans, Q = coord.predict_arrays(class_id, 0.5)
            want_trans, want_Q = self._expected(tuning, 0.5)
            assert np.array_equal(trans, want_trans)
            assert np.array_equal(Q, want_Q)
        assert set(coord._noise_cache) == {4, None}

    def test_baseline_ignores_class_assignment(self):
        coord = self._coordinator(False)
        trans, Q = coord.predict_arrays(4, 0.5)
        want_trans, want_Q = self._expected(untuned_tuning(), 0.5)
        assert np.array_equal(trans, want_trans) and np.array_equal(Q, want_Q)
        assert set(coord._noise_cache) == {None}


def _after_each_step(monkeypatch, check):
    """Make run_epoch call check(world, coordinator) after every step."""
    run_step = engine.run_step

    def checked(world, coordinator, *args):
        run_step(world, coordinator, *args)
        check(world, coordinator)

    monkeypatch.setattr(engine, "run_step", checked)


class TestTrackTable:
    def test_rows_match_the_tracks_after_every_step(self, monkeypatch):
        steps = []

        def check(world, c):
            rows = np.flatnonzero(c.live)
            assert sorted(c.order.tolist()) == rows.tolist()
            for row in range(c.num_targets):
                for history, counts in (
                    (c.motion_history[row], c.motion_counts),
                    (c.signal_history[row], c.signal_counts),
                ):
                    states = np.array([s for _, s in history], dtype=np.int64)
                    want = np.bincount(states, minlength=counts.shape[1])
                    assert np.array_equal(counts[row], want)
                    if not c.live[row]:
                        assert history == [] and not counts[row].any()
            steps.append(rows.size)

        _after_each_step(monkeypatch, check)
        run_experiment(SMALL, [BANDIT])
        assert len(steps) == 2 * SMALL.steps_per_epoch and max(steps) > 0

    def test_add_track_refuses_a_live_row_and_copies_the_bank(self):
        c = Coordinator(
            library=ClassLibrary(),
            num_signal_states=4,
            use_class_knowledge=False,
            num_targets=2,
        )

        def fresh():
            return start_track(np.zeros(3), np.eye(3), np.ones(3), np.eye(3), 0.5)

        track = fresh()
        c.add_track(0, track)
        with pytest.raises(ValueError):
            c.add_track(0, fresh())
        assert c.order.tolist() == [0] and c.live.tolist() == [True, False]
        assert np.array_equal(c.model_states[0], track.model_states)
        track.model_states += 1.0
        assert not np.array_equal(c.model_states[0], track.model_states)

    def test_combination_equals_the_tracks(self):
        # a class-tuned bank, so the models' states, covariances and
        # probabilities differ after the predict and the update
        target = np.array([3000.0, 400.0, 500.0])
        world = _radar_world([np.zeros(3)], [target])
        c = _radar_coordinator(world, _one_class_library())
        c.class_ids[0] = 4
        noise, ni, ti = SensorNoise(), np.array([0]), np.array([0])
        for t, d_az in ((1, 0.0), (2, 0.0), (3, 0.02)):
            if t == 3:
                engine._predict_tracks(c, 0.5)
            z = _polar_row(world.node_positions[0], target, d_az)[None]
            _fuse_radar(world, c, ni, ti, z, t, 0.5, noise)
        track = Track(*(a[0] for a in c.bank(np.array([0]))))
        assert np.ptp(track.model_probs) > 0
        assert (track.state == c.estimates[0]).all()
        assert (track.covariance[:2, :2] == c.xy_covariances(np.array([0]))[0]).all()

    def test_coordinator_holds_no_track(self, monkeypatch):
        steps = []

        def check(world, c):
            for value in vars(c).values():
                inner = ()
                if isinstance(value, dict):
                    inner = value.values()
                elif isinstance(value, list):
                    inner = value
                assert not isinstance(value, Track)
                assert not any(isinstance(v, Track) for v in inner)
            steps.append(c.order.size)

        _after_each_step(monkeypatch, check)
        run_experiment(SMALL, [BANDIT])
        assert max(steps) > 0

    @pytest.mark.parametrize("policy", default_policies(), ids=lambda p: p.label)
    def test_etas_equal_the_history_oracle(self, monkeypatch, policy):
        table_etas = engine._track_uncertainties
        kinds = {"thin": 0, "counted": 0, "classified": 0, "dropped": 0}

        def checked(c):
            # a same-step second reading is dropped and not counted
            for row in c.order:
                history = c.motion_history[row]
                if history:
                    step, state = history[-1]
                    before = c.motion_counts.copy()
                    c.record_motion(row, step, (state + 1) % 3)
                    assert history[-1] == (step, state)
                    assert np.array_equal(c.motion_counts, before)
                    kinds["dropped"] += 1
                    break
            etas = table_etas(c)
            want = track_uncertainties(c)
            assert c.order.tolist() == list(want)
            assert etas.tolist() == [list(e) for e in want.values()]
            for row in c.order:
                seen = c.motion_counts[row].sum() + c.signal_counts[row].sum()
                if c.class_ids[row] in c.class_etas:
                    kinds["classified"] += 1
                elif seen < 3:
                    kinds["thin"] += 1
                else:
                    kinds["counted"] += 1
            return etas

        monkeypatch.setattr(engine, "_track_uncertainties", checked)
        # the third epoch is the first whose library classifies tracks
        run_experiment(dataclasses.replace(SMALL, num_epochs=3), [policy])
        assert kinds["thin"] and kinds["counted"] and kinds["dropped"]
        if policy.kind is PolicyKind.BANDIT:
            assert kinds["classified"]

    def test_step_loop_reads_no_per_track_state(self, monkeypatch):
        reads = []
        for name in ("state", "covariance"):
            getter = getattr(Track, name).fget
            monkeypatch.setattr(Track, name, property(
                lambda track, getter=getter, name=name: reads.append(name)
                or getter(track)
            ))
        probe = start_track(np.zeros(3), np.eye(3), np.ones(3), np.eye(3), 0.5)
        probe.state, probe.covariance
        assert {"state", "covariance"} <= set(reads)
        reads.clear()
        steps = []
        _after_each_step(monkeypatch, lambda world, c: steps.append(c.order.size))
        run_experiment(SMALL, [BANDIT])
        assert max(steps) > 0 and reads == []


class TestTruthBatch:
    def test_one_batched_truth_step_per_step(self, monkeypatch):
        # the truth advances with one step_motion, one step_signal and three
        # Markov draws per step, however many targets the world holds
        calls = {"step_motion": 0, "step_signal": 0, "sample_next": 0}
        targets = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(engine, "step_motion")
        counted(engine, "step_signal")
        counted(dynamics, "sample_next")
        _after_each_step(
            monkeypatch, lambda world, c: targets.append(world.num_targets)
        )
        run_experiment(SMALL, [BANDIT])
        steps = len(targets)
        assert steps == SMALL.num_epochs * SMALL.steps_per_epoch
        assert min(targets) > 1 and len(set(targets)) > 1
        assert calls == {
            "step_motion": steps, "step_signal": steps, "sample_next": 3 * steps
        }


class TestRmseImprovement:
    def _result(self, bandit_result, medians):
        # medians: label -> per run, (first-epoch, final-epoch) rmse_median
        template = bandit_result.metrics["bandit"][0][0]
        metrics = {
            label: [
                [dataclasses.replace(template, policy=label, rmse_median=m)
                 for m in run]
                for run in runs
            ]
            for label, runs in medians.items()
        }
        policies = (BANDIT, PolicySpec(PolicyKind.RANDOM))
        return ExperimentResult(config=SMALL, policies=policies, metrics=metrics)

    @pytest.mark.parametrize(
        "bandit_final, want", [((7.0, 9.0), 0.2), ((11.0, 13.0), -0.2)]
    )
    def test_sign_follows_the_final_epoch(self, bandit_result, bandit_final, want):
        # first epochs point the other way: only the final epoch counts
        first = 20.0 if want > 0 else 1.0
        result = self._result(bandit_result, {
            "bandit": [(first, bandit_final[0]), (first, bandit_final[1])],
            "random-0.8": [(10.0, 10.0), (10.0, 10.0)],
        })
        assert rmse_improvement(result, "random-0.8") == pytest.approx(want)


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
SMALL_METRICS_SHA256 = "06c7d0c9b201313fd24a9eb6d913157568406fe36a7e1d143ef0ba9751dd39d0"


class TestRegressionGuard:
    def test_small_experiment_metrics_unchanged(self):
        assert metrics_sha256(run_experiment(SMALL)) == SMALL_METRICS_SHA256
