"""Engine contract: determinism, the paired design (the world stream alone
reproduces an epoch's truth, under a shared or a fresh default family),
config validation, one batched truth step, one bandit-table selection and
update, at most one track-start batch and one class-assignment batch per
step whatever the target and node counts, the harvest rule for radar-only,
the harvest gate on reading counts and the pool table each harvest grows,
radar association by truth id with one return per target per step and
stale first sightings replaced, one prediction of mixed-class rows against
the one-track oracle under each row's tuning, baselines never classifying a
track, the track table (its count
tables against histories recorded on the test side, reward entropies
against a per-track oracle, IMM combination equal to the oracle `Track`'s,
no per-row state kept outside its columns, and every live bank exactly
symmetric, positive definite and normalized after every step), behavior vectors
from the count tables against the history builder, the sign of
`rmse_improvement`, the names the benchmark tracer hooks and the pool size
it counts, and a digest guard over every metric of a small experiment."""

import copy
import dataclasses
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnsim.dynamics as dynamics
import crnsim.engine as engine
from crnsim.bandit import PolicyKind
from crnsim.classlib import (
    ClassLibrary,
    family_blocks,
    update_library,
    vectors_from_counts,
)
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
from crnsim.scenario import Region, ScenarioConfig, Target, default_family
from crnsim.sensing import SensorNoise
from crnsim.tracking import NUM_MODELS, start_track

from scalar_reference import (
    RecordedHistories,
    Track,
    _history_counts,
    class_tuning,
    imm_predict,
    kalman_update,
    make_node,
    make_parameter_vector,
    record_reading,
    track_uncertainties,
    untuned_tuning,
    vector_from_histories,
)

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


    def test_shared_default_family_gives_the_truth_of_a_fresh_one(self):
        # every default config shares one family; epochs leave it intact
        # and see the truth a freshly built family gives
        seed = epoch_seed(SMALL.seed, 1, 0)
        fresh = dataclasses.replace(
            SMALL.scenario, family=default_family.__wrapped__()
        )
        assert fresh.family is not SMALL.scenario.family is default_family()
        digests = [
            run_epoch(ClassLibrary(), config, seed, policy=BANDIT)[0].truth_digest
            for config in (SMALL, dataclasses.replace(SMALL, scenario=fresh), SMALL)
        ]
        assert len(set(digests)) == 1


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
                                 make_node(world.node_positions[n]), noise)
                for n in (0, 1)
            }
            read, omegas = fuse(world, coord, ni, ti, rows, t, 0.5, noise)
            assert list(read) == [0] and list(omegas) == [0.0]
            assert 2 + updates[0] == t
            want, other = expected[used], expected[1 - used]
            assert np.allclose(coord.model_states[0], want.model_states, atol=1e-6)
            assert not np.allclose(coord.model_states[0], other.model_states, atol=1.0)

    @pytest.mark.parametrize("gap, starts", [(2, True), (40, False)])
    def test_a_stale_first_sighting_is_replaced(self, gap, starts):
        # a target seen at step 1 and next at step 1 + gap, flying at 20 m/s
        # along x from then on; it was elsewhere at step 1. Up to two steps
        # old, the held look starts the track; a 40-step-old look (20 s) is
        # replaced, and the track starts from the next 0.5 s difference.
        velocity = np.array([20.0, 0.0, 0.0])
        seen = {1: np.array([3000.0, 3000.0, 500.0])}
        for t in (1 + gap, 2 + gap):
            seen[t] = np.array([2000.0, 0.0, 500.0]) + velocity * (t - 1 - gap) * 0.5
        world = _radar_world([np.zeros(3)], [seen[1]])
        coord = _radar_coordinator(world)
        ni, ti = np.array([0]), np.array([0])

        def look(t):
            z = _polar_row(world.node_positions[0], seen[t])[None]
            _fuse_radar(world, coord, ni, ti, z, t, 0.5, SensorNoise())

        look(1)
        look(1 + gap)
        assert bool(coord.live[0]) == starts
        if starts:
            return
        assert coord.pending_step[0] == 1 + gap
        look(2 + gap)
        assert coord.live[0] and coord.pending_step[0] == engine.NO_SIGHTING_STEP
        assert np.allclose(coord.estimates[0, 3:], velocity, atol=1e-6)


def _class_library(num_classes=1):
    """A library whose classes, ids 4, 7, ..., have the vectors perfectly
    observed members of the default family's first classes would have."""
    vectors = [
        make_parameter_vector(
            cls.motion_chain.stationary,
            cls.motion_chain.transition,
            cls.signal_chain.stationary,
            cls.signal_chain.transition,
            np.ones(9),
        ).values
        for cls in default_family().classes[:num_classes]
    ]
    return ClassLibrary(
        ids=4 + 3 * np.arange(num_classes),
        centroids=np.stack(vectors),
    )


class TestClassTunedPrediction:
    def test_each_row_predicts_under_its_class_tuning(self):
        # live rows of class rows 1, -1, 0, -1 in a non-ascending start
        # order: one prediction gives each row the bank the one-track oracle
        # gives under that row's tuning
        library = _class_library(2)
        c = Coordinator(
            library=library,
            num_signal_states=4,
            use_class_knowledge=True,
            num_targets=5,
        )
        rng = np.random.default_rng(8)
        order = np.array([3, 0, 4, 1])
        B, M = order.size, NUM_MODELS
        states = rng.normal(0.0, 1000.0, (B, M, 6))
        A = rng.normal(0.0, 5.0, (B, M, 6, 6))
        covs = A @ np.swapaxes(A, -1, -2) + 10.0 * np.eye(6)
        probs = rng.dirichlet(np.ones(M), size=B)
        c.start_tracks(order, states, covs, probs)
        c.class_rows[order] = [1, -1, 0, -1]
        engine._predict_tracks(c, 0.5)
        for i, row in enumerate(order):
            cls = c.class_rows[row]
            tuning = untuned_tuning() if cls < 0 else class_tuning(library, cls)
            want = imm_predict(Track(states[i], covs[i], probs[i]), tuning, 0.5)
            got = c.bank(np.array([row]))
            for g, w in zip(got, (want.model_states, want.model_covs, want.model_probs)):
                assert np.array_equal(g[0], w)


def _after_each_step(monkeypatch, check):
    """Make run_epoch call check(world, coordinator) after every step."""
    run_step = engine.run_step

    def checked(world, coordinator, *args):
        run_step(world, coordinator, *args)
        check(world, coordinator)

    monkeypatch.setattr(engine, "run_step", checked)


class TestCovarianceHealth:
    # the filter kernels round differently from the textbook forms, so over
    # whole runs every live bank must stay a valid Gaussian mixture: each
    # model covariance exactly symmetric and positive definite, the model
    # probabilities finite and summing to 1
    @pytest.mark.parametrize(
        "config, policy",
        [
            (SMALL, BANDIT),
            (
                SimConfig(
                    scenario=ScenarioConfig(
                        node_density_per_km2=0.4, target_density_per_km2=0.6
                    ),
                    num_epochs=2,
                    num_runs=1,
                    seed=5,
                ),
                RADAR_ONLY,
            ),
        ],
        ids=["small-bandit", "dense-radar-only"],
    )
    def test_live_banks_stay_valid_after_every_step(self, monkeypatch, config, policy):
        checked = []

        def check(world, c):
            states, covs, probs = c.bank(np.flatnonzero(c.live))
            assert np.array_equal(covs, np.swapaxes(covs, -1, -2))
            np.linalg.cholesky(covs)
            assert np.isfinite(probs).all()
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            checked.append(probs.shape[0])

        _after_each_step(monkeypatch, check)
        run_experiment(config, [policy])
        assert len(checked) == config.num_epochs * config.steps_per_epoch
        assert max(checked) > 0


class TestTrackTable:
    def test_rows_match_the_tracks_after_every_step(self, monkeypatch):
        # the count tables hold what the recorded histories count: occupancy,
        # adjacent-step transitions and the last reading
        steps = []
        histories = RecordedHistories().install(monkeypatch)

        def check(world, c):
            rows = np.flatnonzero(c.live)
            assert sorted(c.order.tolist()) == rows.tolist()
            recorded = histories.of(c)
            for row in range(c.num_targets):
                for history, counts, transitions, last in (
                    (recorded.motion[row], c.motion_counts, c.motion_transitions,
                     c.motion_last),
                    (recorded.signal[row], c.signal_counts, c.signal_transitions,
                     c.signal_last),
                ):
                    states = np.array([s for _, s in history], dtype=np.int64)
                    want = np.bincount(states, minlength=counts.shape[1])
                    assert np.array_equal(counts[row], want)
                    if history:
                        pairs = _history_counts(history, counts.shape[1])[1]
                        assert np.array_equal(transitions[row], pairs)
                        assert tuple(last[row]) == history[-1]
                    if not c.live[row]:
                        assert history == [] and not counts[row].any()
                        assert not transitions[row].any()
            steps.append(rows.size)

        _after_each_step(monkeypatch, check)
        run_experiment(SMALL, [BANDIT])
        assert len(steps) == 2 * SMALL.steps_per_epoch and max(steps) > 0

    def test_start_tracks_refuses_a_live_row_and_copies_the_banks(self):
        c = Coordinator(
            library=ClassLibrary(),
            num_signal_states=4,
            use_class_knowledge=False,
            num_targets=3,
        )

        def fresh(n):
            R = np.tile(np.eye(3), (n, 1, 1))
            return start_track(
                np.zeros((n, 3)), R, np.arange(3.0 * n).reshape(n, 3), R,
                np.full(n, 0.5),
            )

        states, covs, probs = fresh(2)
        c.start_tracks(np.array([2, 0]), states, covs, probs)
        with pytest.raises(ValueError):
            c.start_tracks(np.array([1, 0]), *fresh(2))
        assert c.order.tolist() == [2, 0] and c.live.tolist() == [True, False, True]
        assert np.array_equal(c.model_states[[2, 0]], states)
        assert np.array_equal(c.model_covs[[2, 0]], covs)
        assert np.array_equal(c.model_probs[[2, 0]], probs)
        states += 1.0
        assert not np.array_equal(c.model_states[[2, 0]], states)

    def test_combination_equals_the_tracks(self):
        # a class-tuned bank, so the models' states, covariances and
        # probabilities differ after the predict and the update
        target = np.array([3000.0, 400.0, 500.0])
        world = _radar_world([np.zeros(3)], [target])
        c = _radar_coordinator(world, _class_library())
        c.class_rows[0] = 0
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
        # per-row state lives only in table columns, one row per target: the
        # class entropies have one row per library class, the mixing chains
        # one more for the untuned filter, and no dict, list or track record
        # is kept
        steps = []

        def check(world, c):
            k = c.library.ids.size
            for name, value in vars(c).items():
                assert not isinstance(value, (Track, list, dict)), name
                if name == "class_etas":
                    assert value.shape == (k, 2)
                elif name == "mode_transitions":
                    assert value.shape == (k + 1, NUM_MODELS, NUM_MODELS)
                elif isinstance(value, np.ndarray) and name != "order":
                    assert value.shape[0] == c.num_targets, name
            steps.append(c.order.size)

        _after_each_step(monkeypatch, check)
        run_experiment(SMALL, [BANDIT])
        assert max(steps) > 0

    @pytest.mark.parametrize("policy", default_policies(), ids=lambda p: p.label)
    def test_etas_equal_the_history_oracle(self, monkeypatch, policy):
        table_etas = engine._track_uncertainties
        kinds = {"thin": 0, "counted": 0, "classified": 0, "dropped": 0}
        histories = RecordedHistories().install(monkeypatch)

        def checked(c):
            # a same-step second reading is dropped and not counted
            recorded = histories.of(c)
            for row in c.order:
                history = recorded.motion[row]
                if history:
                    step, state = history[-1]
                    tables = (c.motion_counts, c.motion_transitions, c.motion_last)
                    before = [a.copy() for a in tables]
                    c.record_motion([row], step, [(state + 1) % 3])
                    assert history[-1] == (step, state)
                    for was, now in zip(before, tables):
                        assert np.array_equal(now, was)
                    kinds["dropped"] += 1
                    break
            etas = table_etas(c)
            want = track_uncertainties(c, histories)
            assert c.order.tolist() == list(want)
            assert etas.tolist() == [list(e) for e in want.values()]
            for row in c.order:
                seen = c.motion_counts[row].sum() + c.signal_counts[row].sum()
                if c.use_class_knowledge and c.class_rows[row] >= 0:
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

    @pytest.mark.parametrize(
        "policy",
        [RADAR_ONLY, PolicySpec(PolicyKind.RANDOM)],
        ids=lambda p: p.label,
    )
    def test_baselines_never_classify(self, monkeypatch, policy):
        # a baseline keeps every row unclassified after every step, so its
        # filters and rewards never read the class library, even once
        # random-p's library holds classes
        classes = []

        def check(world, c):
            assert (c.class_rows == -1).all()
            classes.append(c.library.ids.size)

        _after_each_step(monkeypatch, check)
        run_experiment(dataclasses.replace(SMALL, num_epochs=3), [policy])
        assert len(classes) == 3 * SMALL.steps_per_epoch
        assert (max(classes) > 0) == (policy.kind is PolicyKind.RANDOM)


class TestCountTables:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_vectors_equal_the_history_oracle(self, seed, num_signal_states):
        # random rows and states, gaps between steps and same-step second
        # readings, fed through the coordinator's recorders and, one reading
        # at a time, into (step, state) histories: the count builder equals
        # the history builder on every row read at least once of each kind
        rng = np.random.default_rng(seed)
        T, S = int(rng.integers(1, 8)), num_signal_states
        c = Coordinator(
            library=ClassLibrary(),
            num_signal_states=S,
            use_class_knowledge=False,
            num_targets=T,
        )
        histories = {"motion": [[] for _ in range(T)], "signal": [[] for _ in range(T)]}
        step = int(rng.integers(-1, 2))
        for _ in range(int(rng.integers(1, 40))):
            step += int(rng.integers(1, 4))
            for kind, n in (("motion", 3), ("signal", S)):
                # none, one or two calls in this step
                for _ in range(int(rng.integers(0, 3))):
                    size = int(rng.integers(0, T + 1))
                    rows = rng.choice(T, size=size, replace=False)
                    states = rng.integers(0, n, size=rows.size)
                    getattr(c, f"record_{kind}")(rows, step, states)
                    for row, state in zip(rows, states):
                        record_reading(histories[kind][row], step, int(state))
        read = [
            r for r in range(T) if histories["motion"][r] and histories["signal"][r]
        ]
        rows = np.array(read, dtype=np.int64)
        values, evidence = vectors_from_counts(
            c.motion_counts[rows],
            c.motion_transitions[rows],
            c.signal_counts[rows],
            c.signal_transitions[rows],
        )
        assert values.shape[0] == evidence.shape[0] == len(read)
        for i, row in enumerate(read):
            want = vector_from_histories(
                histories["motion"][row], histories["signal"][row], 3, S
            )
            assert (values[i] == want.values).all()
            assert (evidence[i] == want.evidence).all()


class TestHarvestGate:
    # (motion, signal) readings per row: each side of both boundaries
    READINGS = [(9, 3), (10, 3), (10, 2), (9, 2), (25, 7), (10, 3), (0, 0)]

    def _coordinator(self):
        rng = np.random.default_rng(4)
        c = Coordinator(
            library=ClassLibrary(),
            num_signal_states=4,
            use_class_knowledge=False,
            num_targets=len(self.READINGS),
        )
        for row, (n_motion, n_signal) in enumerate(self.READINGS):
            for step in range(n_motion):
                c.record_motion([row], step, rng.integers(0, 3, 1))
            for step in range(n_signal):
                c.record_signal([row], step, rng.integers(0, 4, 1))
        return c

    def test_exactly_the_rows_observed_enough_in_input_order(self):
        c = self._coordinator()
        order = np.array([5, 3, 1, 0, 4, 6, 2])
        rows, values, evidence = engine.track_parameter_vector(c, order)
        assert rows.tolist() == [5, 1, 4]
        want_values, want_evidence = vectors_from_counts(
            c.motion_counts[rows],
            c.motion_transitions[rows],
            c.signal_counts[rows],
            c.signal_transitions[rows],
        )
        assert np.array_equal(values, want_values)
        assert np.array_equal(evidence, want_evidence)

    def test_no_rows_give_empty_batches(self):
        c = self._coordinator()
        blocks = family_blocks(3, 4)
        for given_rows in (np.zeros(0, dtype=np.int64), np.array([0, 2, 3, 6])):
            rows, values, evidence = engine.track_parameter_vector(c, given_rows)
            assert rows.shape == (0,)
            assert values.shape == (0, sum(b.length for b in blocks))
            assert evidence.shape == (0, len(blocks))

    def test_each_epoch_harvests_the_live_rows_past_the_gate(self, monkeypatch):
        # the last step's table of each epoch's coordinator is the one
        # harvested
        coordinators, passed = [], []

        def check(world, c):
            if not coordinators or coordinators[-1] is not c:
                coordinators.append(c)
                passed.append(0)
            ready = (c.motion_counts.sum(axis=1) >= 10) & (
                c.signal_counts.sum(axis=1) >= 3
            )
            passed[-1] = int((c.live & ready).sum())

        _after_each_step(monkeypatch, check)
        epochs = run_experiment(SMALL, [BANDIT]).metrics["bandit"][0]
        assert [m.harvested for m in epochs] == passed
        assert min(passed) > 0


class TestHarvestContract:
    def test_pool_grows_by_each_epochs_aligned_harvest(
        self, monkeypatch, bandit_result
    ):
        # the SMALL bandit experiment driven epoch by epoch: each epoch
        # appends exactly its harvested rows, and the rows it appends are
        # the harvest call's vectors and evidence beside their targets' true
        # class ids; earlier rows stay as they were
        last = {}
        _after_each_step(monkeypatch, lambda world, c: last.update(world=world, c=c))
        assigned = []

        def recording_update(*args):
            new_library, ids = update_library(*args)
            assigned.append(ids)
            return new_library, ids

        monkeypatch.setattr(engine, "update_library", recording_update)
        library, pool = ClassLibrary(), engine.Pool.empty(SMALL.scenario.family)
        blocks = family_blocks()
        assert pool.blocks == blocks
        length = sum(b.length for b in blocks)
        for epoch, want in enumerate(bandit_result.metrics["bandit"][0]):
            before = (pool.values, pool.evidence, pool.true_ids)
            n = pool.true_ids.size
            m, library = run_epoch(
                library, SMALL, epoch_seed(SMALL.seed, 0, epoch), policy=BANDIT,
                pool=pool,
            )
            assert_metrics_identical(m, want)
            c = last["c"]
            rows, values, evidence = engine.track_parameter_vector(
                c, np.flatnonzero(c.live)
            )
            assert m.harvested == rows.size > 0
            assert m.pool_size == n + rows.size
            assert pool.values.shape == (m.pool_size, length)
            assert pool.evidence.shape == (m.pool_size, len(blocks))
            assert pool.true_ids.shape == (m.pool_size,)
            columns = (pool.values, pool.evidence, pool.true_ids)
            for column, old in zip(columns, before):
                assert np.array_equal(column[:n], old)
            true_ids = last["world"].targets.class_id[rows]
            for column, new in zip(columns, (values, evidence, true_ids)):
                assert np.array_equal(column[n:], new)
            # the re-clustered library: one table row per class, in the
            # pool's layout
            k = m.num_classes
            assert library.blocks == blocks
            assert library.ids.shape == (k,) and np.all(np.diff(library.ids) > 0)
            assert library.centroids.shape == (k, length)
            # the epoch's assignments partition the pool over the classes
            rows = np.searchsorted(library.ids, assigned[-1])
            assert assigned[-1].shape == (m.pool_size,)
            assert np.array_equal(library.ids[rows], assigned[-1])
            assert np.all(np.bincount(rows, minlength=k) > 0)


class TestTruthBatch:
    def test_one_batched_truth_step_per_step(self, monkeypatch):
        # the truth advances with one step_motion, one step_signal and three
        # Markov draws per step, however many targets the world holds; the
        # bandit table picks every node's arm, and updates it, in one call;
        # a step's new tracks start in one call; class assignment scores
        # every ready row in one call, and behavior vectors are built at
        # most once a step plus once for the harvest
        calls = {
            "step_motion": 0, "step_signal": 0, "sample_next": 0,
            "ucb_select": 0, "record_reward": 0, "start_track": 0,
            "assign_class": 0, "track_parameter_vector": 0,
        }
        targets = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in (
            "step_motion", "step_signal", "ucb_select", "record_reward",
            "start_track", "assign_class", "track_parameter_vector",
        ):
            counted(engine, name)
        counted(dynamics, "sample_next")
        _after_each_step(
            monkeypatch, lambda world, c: targets.append(world.num_targets)
        )
        run_experiment(SMALL, [BANDIT])
        steps = len(targets)
        assert steps == SMALL.num_epochs * SMALL.steps_per_epoch
        assert min(targets) > 1 and len(set(targets)) > 1
        assert 0 < calls.pop("start_track") <= steps
        assert 0 < calls.pop("assign_class") <= steps
        assert 0 < calls.pop("track_parameter_vector") <= steps + SMALL.num_epochs
        assert calls == {
            "step_motion": steps, "step_signal": steps, "sample_next": 3 * steps,
            "ucb_select": steps, "record_reward": steps,
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


def _bench_tracer(monkeypatch):
    """The benchmark's tracer module, loaded from `bench/tracer.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_bench_tracer_hook_resolves(monkeypatch):
    # the benchmark tracer patches crnsim attributes by name and reports a
    # renamed one only as a missing layer, so a rename must fail here
    tracer = _bench_tracer(monkeypatch)
    unresolved = [
        (h.module, h.attr)
        for h in tracer.HOOKS
        if not hasattr(importlib.import_module(h.module), h.attr)
    ]
    assert tracer.HOOKS and unresolved == []


def test_bench_tracer_counts_the_whole_pool(monkeypatch):
    # the tracer reads `classlib.pool_vectors` as the length of
    # `update_library`'s second argument, so that argument must stay the
    # whole pool: one re-cluster per epoch over every harvested row so far
    tracer = _bench_tracer(monkeypatch).Tracer()
    with tracer.installed():
        result = run_experiment(SMALL, [BANDIT])
    epochs = result.metrics["bandit"][0]
    assert tracer.missing == []
    assert tracer.layer_stats()["classlib.update_library"]["calls"] == len(epochs)
    pooled = sum(m.pool_size for m in epochs)
    assert tracer.counters["classlib.pool_vectors"] == pooled > 0


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
SMALL_METRICS_SHA256 = "fd0ccb0b38e9b49f52e7075c605a130a25975f2320d36f855d8faf36c43ff041"


class TestRegressionGuard:
    def test_small_experiment_metrics_unchanged(self):
        assert metrics_sha256(run_experiment(SMALL)) == SMALL_METRICS_SHA256
