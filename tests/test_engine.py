"""Engine contract: determinism, the paired design (the world stream alone
reproduces an epoch's truth, under a shared or a fresh default family),
config validation (policy labels included), worlds with no nodes or no
targets run through every layer's general code, one batched truth step, one
bandit-table selection and update, at most one track-start batch and one class-assignment batch per
step whatever the target and node counts, the harvest rule for radar-only,
the harvest gate on reading counts and the pool table each harvest grows,
the one behavior-vector layout of the count tables, pool, library and harvest,
radar association by truth id with one return per target per step (the
closest, which sensing picks; fusion is given distinct targets, ascending)
and stale first sightings replaced, one prediction of mixed-class rows against
the one-track oracle under each row's tuning, baselines never classifying a
track, the track table (its count
tables against histories recorded on the test side, each channel
recorded at most once per step over distinct rows, reward entropies
against a per-track oracle, IMM combination equal to the oracle `Track`'s,
no per-row state kept outside its columns, every live bank exactly
symmetric, positive definite and normalized after every step, every
unclassified one its model 0 alone at probability 1, read exactly by the
passive gate, and every row classified promoted to M copies of that model
at probability 1/M), behavior vectors
from the count tables against the history builder, rewards computed only
under the bandit, once a step, the sign of `rmse_improvement`, the names
the benchmark tracer hooks and the pool size it counts, a digest guard over every metric of a small experiment, and the
process pool over (run, policy) cells: bit-exact against the cells run in
turn, never started where it cannot gain or while a function of the
package is replaced, and passing a worker's error to the caller with no
process left behind."""

import concurrent.futures
import copy
import dataclasses
import hashlib
import importlib
import importlib.util
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crnsim.classlib as classlib
import crnsim.dynamics as dynamics
import crnsim.engine as engine
from crnsim.bandit import PolicyKind
from crnsim.classlib import (
    BLOCK_LENGTHS,
    VECTOR_LENGTH,
    ClassLibrary,
    Readings,
    update_library,
    vectors_from_counts,
)
from crnsim.dynamics import step_motion, step_signal
from crnsim.engine import (
    ConfigError,
    Coordinator,
    ExperimentResult,
    PolicySpec,
    Pool,
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
from crnsim.scenario import (
    COORD_TURN,
    CRUISE_CV,
    MOTION_STATES,
    SIGNAL_TYPES,
    Region,
    ScenarioConfig,
    TargetFamily,
    default_family,
)
from crnsim.sensing import SensorNoise, radar_measure_batch
from crnsim.tracking import NUM_MODELS, start_track

from scalar_reference import (
    RecordedHistories,
    Target,
    Track,
    _history_counts,
    class_tuning,
    family_blocks,
    imm_predict,
    kalman_update,
    make_node,
    make_parameter_vector,
    record_reading,
    run_experiment_in_turn,
    spy_on_readings,
    target_table,
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
                ClassLibrary(), SMALL, epoch_seed(SMALL.seed, 1, 0), policy=spec,
                pool=Pool.empty(),
            )[0].truth_digest
            for spec in default_policies()
        }
        assert len(digests) == 3
        assert len(set(digests.values())) == 1

    def test_one_seed_sequence_reused_gives_one_truth(self):
        # make_streams must not advance the caller's SeedSequence
        seed = epoch_seed(SMALL.seed, 1, 0)
        first = run_epoch(ClassLibrary(), SMALL, seed, RADAR_ONLY, Pool.empty())[0]
        again = run_epoch(ClassLibrary(), SMALL, seed, RADAR_ONLY, Pool.empty())[0]
        assert seed.n_children_spawned == 0
        assert first.truth_digest == again.truth_digest
        fresh = run_epoch(
            ClassLibrary(), SMALL, epoch_seed(SMALL.seed, 1, 0), RADAR_ONLY,
            Pool.empty(),
        )[0]
        assert_metrics_identical(first, fresh)

    def test_world_stream_alone_reproduces_the_truth(self):
        # step a world outside the engine, from nothing but the world stream
        seed = epoch_seed(SMALL.seed, 1, 0)
        want = run_epoch(ClassLibrary(), SMALL, seed, BANDIT, Pool.empty())[0].truth_digest
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
            run_epoch(ClassLibrary(), config, seed, BANDIT, Pool.empty())[0].truth_digest
            for config in (SMALL, dataclasses.replace(SMALL, scenario=fresh), SMALL)
        ]
        assert len(set(digests)) == 1

    def test_the_turn_entry_of_the_process_noise_leaves_the_truth(self):
        # a turn is a noise-free rotation, so families that differ only in
        # their classes' turn noise give one truth; the cruise entry, which
        # the truth does read, moves it
        seed = epoch_seed(SMALL.seed, 1, 0)

        def truth_digest(state, noise):
            classes = []
            for c in default_family().classes:
                per_state = c.process_noise.copy()
                per_state[state] = noise
                classes.append(dataclasses.replace(c, process_noise=per_state))
            scenario = dataclasses.replace(
                SMALL.scenario, family=TargetFamily(tuple(classes))
            )
            config = dataclasses.replace(SMALL, scenario=scenario)
            metrics = run_epoch(ClassLibrary(), config, seed, BANDIT, Pool.empty())[0]
            return metrics.truth_digest

        want = run_epoch(ClassLibrary(), SMALL, seed, BANDIT, Pool.empty())[0].truth_digest
        assert truth_digest(COORD_TURN, 0.0) == truth_digest(COORD_TURN, 100.0) == want
        assert truth_digest(CRUISE_CV, 2.0) != want


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
            {"dt_s": float("nan")},
            {"epoch_duration_s": float("nan")},
            # each of these used to construct and then fail inside the run:
            # `round` overflows, `SeedSequence` refuses a negative seed (in
            # every cell, in a forked worker under the pool), and a float
            # count or seed raises TypeError
            {"epoch_duration_s": float("inf")},
            {"seed": -1},
            {"seed": 1.5},
            {"num_runs": 1.5},
            {"num_epochs": 1.5},
        ],
    )
    def test_invalid_sim_config_rejected(self, change):
        with pytest.raises(ConfigError):
            dataclasses.replace(SMALL, **change)

    def test_numpy_integers_accepted(self):
        config = dataclasses.replace(
            SMALL, seed=np.int64(3), num_runs=np.int32(1), num_epochs=np.uint8(2)
        )
        assert config.steps_per_epoch == SMALL.steps_per_epoch

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_invalid_active_probability_rejected(self, p):
        with pytest.raises(ConfigError):
            PolicySpec(PolicyKind.RANDOM, p)

    @pytest.mark.parametrize(
        "policies",
        [
            [BANDIT, BANDIT],
            # one label, "random-0.5", for two probabilities
            [
                PolicySpec(PolicyKind.RANDOM, 0.5),
                PolicySpec(PolicyKind.RANDOM, 0.5000001),
            ],
        ],
        ids=["same-policy", "same-label"],
    )
    def test_colliding_policy_labels_rejected(self, policies):
        # results are keyed by label, so the runs would be merged
        with pytest.raises(ConfigError):
            run_experiment(SMALL, policies, workers=1)

    def test_valid_edges_accepted(self):
        PolicySpec(PolicyKind.RANDOM, 0.0)
        PolicySpec(PolicyKind.RANDOM, 1.0)
        assert dataclasses.replace(SMALL, epoch_duration_s=0.5).steps_per_epoch == 1


def _bench_module(monkeypatch, name):
    """A module of the benchmark, loaded from `bench/<name>.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestEmptyWorlds:
    @pytest.mark.parametrize(
        "nodes, targets", [(0.0, 0.3), (0.2, 0.0), (0.0, 0.0)],
        ids=["no-nodes", "no-targets", "nothing"],
    )
    def test_an_empty_draw_runs_every_policy(self, monkeypatch, nodes, targets):
        # a PPP may draw no points: the world is used as drawn, and every
        # layer runs its general code on the empty tables. Every policy sees
        # one truth, no track, vector or class comes of it, and each epoch
        # passes the benchmark's per-epoch checks but one: with no nodes
        # there is no node-step, the utilisation reads 0, and the radar-only
        # rule (utilisation 1) fails on that 0.
        workloads = _bench_module(monkeypatch, "workloads")
        scenario = dataclasses.replace(
            SMALL.scenario, node_density_per_km2=nodes, target_density_per_km2=targets
        )
        config = dataclasses.replace(SMALL, scenario=scenario, num_runs=2)
        result = run_experiment(config, default_policies(), workers=1)
        steps = config.steps_per_epoch
        reference = result.metrics["bandit"]
        for label, runs in result.metrics.items():
            for r, run in enumerate(runs):
                assert len(run) == config.num_epochs
                for e, m in enumerate(run):
                    assert (m.num_nodes == 0) == (nodes == 0)
                    assert (m.num_targets == 0) == (targets == 0)
                    want = []
                    if m.num_nodes == 0:
                        assert m.active_node_steps == m.passive_node_steps == 0
                        assert m.radar_utilization == 0.0
                        if label == "radar-only":
                            want = ["radar-only utilisation 0.0"]
                    assert workloads.epoch_problems(m, steps) == want
                    assert m.truth_digest == reference[r][e].truth_digest
                    assert m.num_tracks == 0 and m.rmse_per_target.size == 0
                    assert np.isnan(m.rmse_mean) and np.isnan(m.rmse_median)
                    assert m.harvested == m.pool_size == m.num_classes == 0


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
    targets = [
        Target(i, 0, np.array(p, dtype=float), np.zeros(3), 0, 0, False)
        for i, p in enumerate(target_positions)
    ]
    return World(
        targets=target_table(targets, default_family().classes),
        node_positions=np.array(node_positions, dtype=float),
        radar_range_m=10_000.0,
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
        dt_s=0.5,
        num_targets=world.num_targets,
    )


def _fuse_counting_updates(monkeypatch, coord):
    """`_fuse_radar` plus a per-row count of the filter updates it made: a
    track starts from two readings, so 2 + count is the row's number of
    measurement updates. Each bank of m models that `kalman_update_arrays`
    returns is matched to the one table row whose first m models it was
    written to: a full bank to a classified row, a one-model bank to an
    unclassified row's model 0."""
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
                hit = [bool((s == m[: len(s)]).all()) for m in coord.model_states]
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
            fuse(world, coord, np.array([0, 0]), np.array([0, 1]), z, t, SensorNoise())
        assert np.flatnonzero(coord.live).tolist() == [0, 1]
        assert (2 + updates).tolist() == [3, 3]
        los = position / r
        assert coord.estimates[0, 3:] @ los > 10.0
        assert coord.estimates[1, 3:] @ los < -10.0
        fuse(world, coord, np.array([0]), np.array([1]), z[1:], 4, SensorNoise())
        assert (2 + updates).tolist() == [3, 4]

    @pytest.mark.parametrize(
        "nodes, used",
        [
            # node 1 is closer: the smaller measured range wins over node id
            ([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]], 1),
            # equal ranges: the lower node id wins
            ([[0.0, 0.0, 0.0], [6000.0, 0.0, 0.0]], 0),
        ],
    )
    def test_one_update_per_step_from_the_closest_return(
        self, monkeypatch, nodes, used
    ):
        # sensing picks the closest return, and fusion updates the track
        # from that one return alone
        target = np.array([3000.0, 400.0, 500.0])
        world = _radar_world(nodes, [target])
        coord = _radar_coordinator(world)
        fuse, updates = _fuse_counting_updates(monkeypatch, coord)
        noise = SensorNoise()
        # azimuth noise alone, the same draws at every step, node-major: the
        # two nodes disagree by +-0.01 rad in azimuth, so which return was
        # used shows in the estimate; ranges stay as measured
        draws = np.array([[0.0, 1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0, 0.0]])
        rng = SimpleNamespace(standard_normal=lambda shape: draws.copy())
        looks = SensorNoise(0.0, 0.01, 0.0, 0.0, 0.0, 0.0)
        returns = {
            n: _polar_row(world.node_positions[n], target, d)
            for n, d in ((1, -0.01), (0, 0.01))
        }
        ranges = {n: row[0] for n, row in returns.items()}
        assert (ranges[1] < ranges[0]) if used == 1 else (ranges[0] == ranges[1])

        def measure():
            truth = world.targets
            return radar_measure_batch(
                world.node_positions, np.ones(2, bool), world.radar_range_m,
                truth.position, truth.velocity, truth.heading_rate, rng, looks,
            )

        ni, ti, z = measure()
        assert ni.tolist() == [used] and ti.tolist() == [0]
        assert np.allclose(z[0], returns[used], rtol=0.0, atol=1e-12)
        for t in (1, 2):
            fuse(world, coord, *measure(), t, noise)
        # started by differencing two looks from the same node: at rest
        assert np.flatnonzero(coord.live).tolist() == [0] and 2 + updates[0] == 2
        assert np.allclose(coord.estimates[0, 3:], 0.0, atol=1e-9)
        for t in (3, 4, 5):
            # the row is unclassified: the one model it stores and runs
            track = Track(*(a[0] for a in coord.bank(np.array([0]), 1)))
            expected = {
                n: kalman_update(copy.deepcopy(track), returns[n],
                                 make_node(world.node_positions[n]), noise)
                for n in (0, 1)
            }
            read, omegas = fuse(world, coord, *measure(), t, noise)
            assert list(read) == [0] and list(omegas) == [0.0]
            assert 2 + updates[0] == t
            want, other = expected[used], expected[1 - used]
            got = coord.model_states[0, :1]
            assert np.allclose(got, want.model_states, atol=1e-6)
            assert not np.allclose(got, other.model_states, atol=1.0)

    def test_fusion_is_given_distinct_targets_ascending(self, monkeypatch):
        # `_fuse_radar`'s precondition, which it does not check: the engine
        # hands it at most one return per target, targets ascending, as
        # `radar_measure_batch` returns them
        fuse, given = engine._fuse_radar, []

        def spy(world, coordinator, ni, ti, z, t, noise):
            given.append(np.array(ti))
            assert ni.shape == ti.shape and z.shape == (ti.size, 5)
            return fuse(world, coordinator, ni, ti, z, t, noise)

        monkeypatch.setattr(engine, "_fuse_radar", spy)
        run_experiment(SMALL, [BANDIT], workers=1)
        assert len(given) == SMALL.num_epochs * 25
        assert sum(ti.size for ti in given) > 0
        for ti in given:
            assert (np.diff(ti) > 0).all()

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
            _fuse_radar(world, coord, ni, ti, z, t, SensorNoise())

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
        # gives under that row's tuning. A classified row starts from a
        # random bank and matches bit for bit. An unclassified row starts as
        # the engine stores every unclassified row, one model at probability
        # 1; the oracle runs it as M copies at 1/M and mixes three
        # fl(1/3)-weighted copies, so the row's one model equals the oracle's
        # model 0 up to rounding, and its other models stay empty
        library = _class_library(2)
        c = Coordinator(
            library=library,
            dt_s=0.5,
            num_targets=5,
        )
        rng = np.random.default_rng(8)
        order = np.array([3, 0, 4, 1])
        B, M = order.size, NUM_MODELS
        states = rng.normal(0.0, 1000.0, (B, M, 6))
        A = rng.normal(0.0, 5.0, (B, M, 6, 6))
        covs = A @ np.swapaxes(A, -1, -2) + 10.0 * np.eye(6)
        probs = rng.dirichlet(np.ones(M), size=B)
        classes = np.array([1, -1, 0, -1])
        one = classes < 0
        c.start_tracks(order[~one], states[~one], covs[~one], probs[~one])
        c.start_tracks(order[one], states[one, :1], covs[one, :1], np.ones((2, 1)))
        states[one] = states[one, :1]
        covs[one] = covs[one, :1]
        probs[one] = 1.0 / M
        c.class_rows[order] = classes
        engine._predict_tracks(c)
        for i, row in enumerate(order):
            cls = c.class_rows[row]
            tuning = untuned_tuning() if cls < 0 else class_tuning(library, cls)
            want = imm_predict(Track(states[i], covs[i], probs[i]), tuning, 0.5)
            got = [a[0] for a in c.bank(np.array([row]))]
            wanted = (want.model_states, want.model_covs, want.model_probs)
            if cls >= 0:
                for g, w in zip(got, wanted):
                    assert np.array_equal(g, w)
                continue
            for g, w in zip(got[:2], wanted[:2]):
                scale = np.abs(w).max()
                np.testing.assert_allclose(g[:1], w[:1], rtol=1e-12, atol=1e-12 * scale)
                assert not g[1:].any()
            assert got[2].tolist() == [1.0] + [0.0] * (M - 1)


def _after_each_step(monkeypatch, check):
    """Make run_epoch call check(world, coordinator) after every step."""
    run_step = engine.run_step

    def checked(world, coordinator, *args):
        active = run_step(world, coordinator, *args)
        check(world, coordinator)
        return active

    monkeypatch.setattr(engine, "run_step", checked)


class TestCovarianceHealth:
    # the filter kernels round differently from the textbook forms, so over
    # whole runs every live bank must stay a valid Gaussian mixture: each
    # model a row runs (all M once classified, model 0 before) with its
    # covariance exactly symmetric and positive definite, the model
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
            rows = np.flatnonzero(c.live)
            classified = c.class_rows[rows] >= 0
            for run, models in ((rows[classified], NUM_MODELS), (rows[~classified], 1)):
                states, covs, probs = c.bank(run, models)
                assert np.array_equal(covs, np.swapaxes(covs, -1, -2))
                np.linalg.cholesky(covs)
                assert np.isfinite(probs).all()
                np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            checked.append(rows.size)

        _after_each_step(monkeypatch, check)
        run_experiment(config, [policy])
        assert len(checked) == config.num_epochs * config.steps_per_epoch
        assert max(checked) > 0


class TestUnclassifiedBanks:
    # the table stores the models a row runs: an unclassified row runs its
    # model 0 alone (see `_predict_tracks`), so after every step, under
    # every policy, it holds that model at probability 1 and nothing in
    # models 1..M-1, whose probabilities are 0
    @pytest.mark.parametrize("policy", default_policies(), ids=lambda p: p.label)
    def test_unclassified_rows_hold_model_0_alone(self, monkeypatch, policy):
        checked = []

        def check(world, c):
            rows = np.flatnonzero(c.live & (c.class_rows < 0))
            states, covs, probs = c.bank(rows)
            assert not states[:, 1:].any() and not covs[:, 1:].any()
            assert (probs[:, 0] == 1.0).all() and (probs[:, 1:] == 0.0).all()
            checked.append(rows.size)

        _after_each_step(monkeypatch, check)
        run_experiment(SMALL, [policy])
        assert len(checked) == SMALL.num_epochs * SMALL.steps_per_epoch
        assert max(checked) > 0

    def test_a_classified_row_starts_from_m_copies_of_model_0(self, monkeypatch):
        # at the step a row is classified its bank becomes M bit-identical
        # copies of the one model it ran, each at probability 1/M, and its
        # estimate stays that model's state
        attempt = engine._attempt_assignments
        promoted = []

        def checked(c):
            rows = np.flatnonzero(c.live & (c.class_rows < 0))
            before = [a.copy() for a in c.bank(rows, 1)[:2]]
            estimates = c.estimates[rows].copy()
            attempt(c)
            now = c.class_rows[rows] >= 0
            states, covs, probs = c.bank(rows[now])
            assert (states == before[0][now]).all() and (covs == before[1][now]).all()
            assert (probs == 1.0 / NUM_MODELS).all()
            assert (c.estimates[rows] == estimates).all()
            promoted.append(int(now.sum()))

        monkeypatch.setattr(engine, "_attempt_assignments", checked)
        # the third epoch is the first whose library classifies tracks; a
        # wider radius than the online default makes sure some are
        monkeypatch.setattr(classlib, "DEFAULT_ACCEPT_RADIUS", 0.5)
        run_experiment(dataclasses.replace(SMALL, num_epochs=3), [BANDIT])
        assert sum(promoted) > 0

    def test_the_passive_gate_reads_model_0_exactly(self, monkeypatch):
        # with probabilities (1, 0, ..., 0) the IMM combination of an
        # unclassified row is its model 0, bit for bit: the estimate and the
        # horizontal covariance block that `_apply_passive` gates with
        checked = []

        def check(world, c):
            rows = np.flatnonzero(c.live & (c.class_rows < 0))
            assert (c.estimates[rows] == c.model_states[rows, 0]).all()
            xy = c.xy_covariances(rows)
            assert np.array_equal(xy, c.model_covs[rows, 0, :2, :2])
            checked.append(rows.size)

        _after_each_step(monkeypatch, check)
        run_experiment(SMALL, [BANDIT])
        assert max(checked) > 0


class TestTrackTable:
    def test_rows_match_the_tracks_after_every_step(self, monkeypatch):
        # the count tables hold what the recorded histories count: occupancy,
        # adjacent-step transitions and the last reading
        steps = []
        histories = RecordedHistories().install(monkeypatch)

        def check(world, c):
            rows = np.flatnonzero(c.live)
            recorded = histories.of(c)
            for row in range(c.num_targets):
                for history, table in (
                    (recorded.motion[row], c.motion),
                    (recorded.signal[row], c.signal),
                ):
                    states = np.array([s for _, s in history], dtype=np.int64)
                    want = np.bincount(states, minlength=table.counts.shape[1])
                    assert np.array_equal(table.counts[row], want)
                    if history:
                        pairs = _history_counts(history, table.counts.shape[1])[1]
                        assert np.array_equal(table.transitions[row], pairs)
                        assert tuple(table.last[row]) == history[-1]
                    if not c.live[row]:
                        assert history == [] and not table.counts[row].any()
                        assert not table.transitions[row].any()
            steps.append(rows.size)

        _after_each_step(monkeypatch, check)
        run_experiment(SMALL, [BANDIT])
        assert len(steps) == 2 * SMALL.steps_per_epoch and max(steps) > 0

    def test_start_tracks_refuses_a_live_row_and_copies_the_banks(self):
        c = Coordinator(
            library=ClassLibrary(),
            dt_s=0.5,
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
        assert c.live.tolist() == [True, False, True]
        # a new track is the one model it runs
        for got, given in zip(c.bank(np.array([2, 0]), 1), (states, covs, probs)):
            assert np.array_equal(got, given)
        states += 1.0
        assert not np.array_equal(c.model_states[[2, 0], :1], states)

    def test_combination_equals_the_tracks(self, monkeypatch):
        # a class-tuned bank, so the models' states, covariances and
        # probabilities differ after the predict and the update. The row
        # starts unclassified and is classified as the engine does it, by
        # `_attempt_assignments` once it is observed enough, which promotes
        # its one model to M; the class library accepts it here whatever
        # its readings
        target = np.array([3000.0, 400.0, 500.0])
        world = _radar_world([np.zeros(3)], [target])
        c = _radar_coordinator(world, _class_library())
        noise, ni, ti = SensorNoise(), np.array([0]), np.array([0])
        row = np.array([0])
        for t in (1, 2):
            z = _polar_row(world.node_positions[0], target)[None]
            _fuse_radar(world, c, ni, ti, z, t, noise)
        for step in range(engine.MIN_RADAR_OBS):
            c.motion.record(row, step, np.array([step % 3]))
        for step in range(engine.MIN_PASSIVE_OBS):
            c.signal.record(row, step, np.array([step % 4]))
        monkeypatch.setattr(
            engine, "assign_class", lambda library, values: np.zeros(len(values), int)
        )
        engine._attempt_assignments(c)
        assert c.class_rows.tolist() == [0]
        assert (c.model_probs[0] == 1.0 / NUM_MODELS).all()
        engine._predict_tracks(c)
        z = _polar_row(world.node_positions[0], target, 0.02)[None]
        _fuse_radar(world, c, ni, ti, z, 3, noise)
        track = Track(*(a[0] for a in c.bank(np.array([0]))))
        assert np.ptp(track.model_probs) > 0
        assert (track.state == c.estimates[0]).all()
        assert (track.covariance[:2, :2] == c.xy_covariances(np.array([0]))[0]).all()

    def test_coordinator_holds_no_track(self, monkeypatch):
        # per-row state lives only in table columns, one row per target, the
        # reading tables' columns included: the class entropies and mixing
        # chains are the library's, one row per class, the filter matrices
        # are the epoch's, and no dict, list or track record is kept
        steps = []
        M = NUM_MODELS
        per_epoch = {
            "state_transition": (6, 6),
            "state_noise": (M, 6, 6),
            "untuned_noise": (6, 6),
        }

        def check(world, c):
            k = c.library.ids.size
            for name, value in vars(c).items():
                assert not isinstance(value, (Track, list, dict)), name
                if isinstance(value, Readings):
                    for column in vars(value).values():
                        assert column.shape[0] == c.num_targets, name
                elif name in per_epoch:
                    assert value.shape == per_epoch[name], name
                elif isinstance(value, np.ndarray):
                    assert value.shape[0] == c.num_targets, name
            assert c.library.etas.shape == (k, 2)
            assert c.library.mode_transitions.shape == (k, M, M)
            steps.append(int(c.live.sum()))

        _after_each_step(monkeypatch, check)
        run_experiment(SMALL, [BANDIT])
        assert max(steps) > 0

    @pytest.mark.parametrize("policy", default_policies(), ids=lambda p: p.label)
    def test_etas_equal_the_history_oracle(self, monkeypatch, policy):
        # after every step, under every policy, though only the bandit's
        # rewards read the entropies
        kinds = {"thin": 0, "counted": 0, "classified": 0}
        histories = RecordedHistories().install(monkeypatch)

        def check(world, c):
            live = np.flatnonzero(c.live)
            etas = engine._track_uncertainties(c)
            want = track_uncertainties(c, histories)
            assert live.tolist() == list(want)
            assert etas.tolist() == [list(e) for e in want.values()]
            for row in live:
                seen = c.motion.counts[row].sum() + c.signal.counts[row].sum()
                if c.class_rows[row] >= 0:
                    kinds["classified"] += 1
                elif seen < 3:
                    kinds["thin"] += 1
                else:
                    kinds["counted"] += 1

        _after_each_step(monkeypatch, check)
        # the third epoch is the first whose library classifies tracks; a
        # wider radius than the online default makes sure the bandit's do
        monkeypatch.setattr(classlib, "DEFAULT_ACCEPT_RADIUS", 0.5)
        run_experiment(dataclasses.replace(SMALL, num_epochs=3), [policy])
        assert kinds["thin"] and kinds["counted"]
        if policy.kind is PolicyKind.BANDIT:
            assert kinds["classified"]

    @pytest.mark.parametrize(
        "policy",
        [RADAR_ONLY, PolicySpec(PolicyKind.RANDOM)],
        ids=lambda p: p.label,
    )
    def test_baselines_never_classify(self, monkeypatch, policy):
        # a baseline's coordinator holds an empty library after every step,
        # so it classifies no row and its filters and rewards never read
        # the run's classes, even once random-p's run has learned some
        checked = []

        def check(world, c):
            assert c.library.ids.size == 0
            assert (c.class_rows == -1).all()
            checked.append(1)

        _after_each_step(monkeypatch, check)
        result = run_experiment(dataclasses.replace(SMALL, num_epochs=3), [policy])
        assert len(checked) == 3 * SMALL.steps_per_epoch
        [run] = result.metrics[policy.label]
        learned = max(m.num_classes for m in run)
        assert (learned > 0) == (policy.kind is PolicyKind.RANDOM)


class TestCountTables:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_vectors_equal_the_history_oracle(self, seed, num_signal_states):
        # random rows and states and gaps between steps, counted by the
        # recorder into one channel's count tables of each kind and, one
        # reading at a time, into (step, state) histories: the count builder
        # equals the history builder on every row read at least once of each
        # kind. Each channel is recorded at most once per step, over distinct
        # rows, as the engine does (`test_each_channel_is_recorded_once_per_
        # step`). The count code takes any state count, so the signal channel
        # here has 2-6 states.
        rng = np.random.default_rng(seed)
        T, S = int(rng.integers(1, 8)), num_signal_states
        tables = {kind: Readings.empty(T, n) for kind, n in (("motion", 3), ("signal", S))}
        histories = {"motion": [[] for _ in range(T)], "signal": [[] for _ in range(T)]}
        step = int(rng.integers(-1, 2))
        for _ in range(int(rng.integers(1, 40))):
            step += int(rng.integers(1, 4))
            for kind, n in (("motion", 3), ("signal", S)):
                # none or one call in this step
                if rng.integers(0, 2):
                    size = int(rng.integers(0, T + 1))
                    rows = rng.choice(T, size=size, replace=False)
                    states = rng.integers(0, n, size=rows.size)
                    tables[kind].record(rows, step, states)
                    for row, state in zip(rows, states):
                        record_reading(histories[kind][row], step, int(state))
        read = [
            r for r in range(T) if histories["motion"][r] and histories["signal"][r]
        ]
        rows = np.array(read, dtype=np.int64)
        values, evidence = vectors_from_counts(tables["motion"], tables["signal"], rows)
        assert values.shape[0] == evidence.shape[0] == len(read)
        for i, row in enumerate(read):
            want = vector_from_histories(
                histories["motion"][row], histories["signal"][row], 3, S
            )
            assert (values[i] == want.values).all()
            assert (evidence[i] == want.evidence).all()

    def test_each_channel_is_recorded_once_per_step(self, monkeypatch):
        # the recorder's precondition, which it does not check: the engine
        # calls `Readings.record` at most once per step on each coordinator's
        # motion table and on its signal table, over distinct rows, under
        # every default policy. A call's channel is the table it is made on.
        calls, coordinators = {}, []

        def seen(c, kind, rows, step, states):
            if not coordinators or coordinators[-1] is not c:
                coordinators.append(c)
            calls.setdefault((len(coordinators), kind), []).append(
                (step, np.array(rows))
            )

        spy_on_readings(monkeypatch, seen)
        config = dataclasses.replace(SMALL, num_epochs=3)
        run_experiment(config, default_policies(), workers=1)
        assert len(coordinators) == 3 * config.num_epochs
        read = 0
        for made in calls.values():
            steps = [step for step, _ in made]
            assert steps == sorted(set(steps))
            for _, rows in made:
                assert np.unique(rows).size == rows.size
                read += rows.size
        assert read and {kind for _, kind in calls} == {"motion", "signal"}


class TestHarvestGate:
    # (motion, signal) readings per row: each side of both boundaries
    READINGS = [(9, 3), (10, 3), (10, 2), (9, 2), (25, 7), (10, 3), (0, 0)]

    def _coordinator(self):
        rng = np.random.default_rng(4)
        c = Coordinator(
            library=ClassLibrary(),
            dt_s=0.5,
            num_targets=len(self.READINGS),
        )
        for row, (n_motion, n_signal) in enumerate(self.READINGS):
            for step in range(n_motion):
                c.motion.record(np.array([row]), step, rng.integers(0, 3, 1))
            for step in range(n_signal):
                c.signal.record(np.array([row]), step, rng.integers(0, 4, 1))
        return c

    def test_exactly_the_rows_observed_enough_in_input_order(self):
        c = self._coordinator()
        order = np.array([5, 3, 1, 0, 4, 6, 2])
        rows, values, evidence = engine.track_parameter_vector(c, order)
        assert rows.tolist() == [5, 1, 4]
        want_values, want_evidence = vectors_from_counts(c.motion, c.signal, rows)
        assert np.array_equal(values, want_values)
        assert np.array_equal(evidence, want_evidence)

    def test_no_rows_give_empty_batches(self):
        c = self._coordinator()
        for given_rows in (np.zeros(0, dtype=np.int64), np.array([0, 2, 3, 6])):
            rows, values, evidence = engine.track_parameter_vector(c, given_rows)
            assert rows.shape == (0,)
            assert values.shape == (0, VECTOR_LENGTH)
            assert evidence.shape == (0, BLOCK_LENGTHS.size)

    def test_each_epoch_harvests_the_live_rows_past_the_gate(self, monkeypatch):
        # the last step's table of each epoch's coordinator is the one
        # harvested
        coordinators, passed = [], []

        def check(world, c):
            if not coordinators or coordinators[-1] is not c:
                coordinators.append(c)
                passed.append(0)
            ready = (c.motion.counts.sum(axis=1) >= 10) & (
                c.signal.counts.sum(axis=1) >= 3
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
        library, pool = ClassLibrary(), Pool.empty()
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
            assert pool.values.shape == (m.pool_size, VECTOR_LENGTH)
            assert pool.evidence.shape == (m.pool_size, BLOCK_LENGTHS.size)
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
            assert library.ids.shape == (k,) and np.all(np.diff(library.ids) > 0)
            assert library.centroids.shape == (k, VECTOR_LENGTH)
            # the epoch's assignments partition the pool over the classes
            rows = np.searchsorted(library.ids, assigned[-1])
            assert assigned[-1].shape == (m.pool_size,)
            assert np.array_equal(library.ids[rows], assigned[-1])
            assert np.all(np.bincount(rows, minlength=k) > 0)


class TestOneLayout:
    def test_every_table_has_the_one_layout(self, monkeypatch):
        # the layout `classlib` fixes from the state spaces is the one the
        # coordinator's count tables, the empty pool and library, and a
        # SMALL bandit epoch's harvest and library all have
        V, S = len(MOTION_STATES), len(SIGNAL_TYPES)
        assert BLOCK_LENGTHS.tolist() == [V, S] + [V] * V + [S] * S
        assert BLOCK_LENGTHS.tolist() == [b.length for b in family_blocks()]
        assert VECTOR_LENGTH == V + S + V * V + S * S == 32
        weights = [b.weight for b in family_blocks()]
        assert np.array_equal(classlib._WEIGHTS, np.repeat(weights, BLOCK_LENGTHS))
        coordinators = []
        _after_each_step(monkeypatch, lambda world, c: coordinators.append(c))
        pool, library = Pool.empty(), ClassLibrary()
        assert pool.values.shape == (0, VECTOR_LENGTH)
        assert pool.evidence.shape == (0, BLOCK_LENGTHS.size)
        assert library.centroids.shape == (0, VECTOR_LENGTH)
        m, library = run_epoch(
            library, SMALL, epoch_seed(SMALL.seed, 0, 0), BANDIT, pool
        )
        c = coordinators[-1]
        T = c.num_targets
        assert c.motion.counts.shape == (T, V)
        assert c.motion.transitions.shape == (T, V, V)
        assert c.signal.counts.shape == (T, S)
        assert c.signal.transitions.shape == (T, S, S)
        assert m.harvested > 0 and m.num_classes > 0
        assert pool.values.shape == (m.harvested, VECTOR_LENGTH)
        assert pool.evidence.shape == (m.harvested, BLOCK_LENGTHS.size)
        assert library.centroids.shape == (m.num_classes, VECTOR_LENGTH)


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


class TestRewards:
    @pytest.mark.parametrize(
        "policy", [RADAR_ONLY, PolicySpec(PolicyKind.RANDOM)], ids=lambda p: p.label
    )
    def test_a_baseline_computes_no_reward(self, monkeypatch, policy):
        # a baseline's rewards would feed nothing, so they are not computed
        def refuse(*args):
            raise AssertionError("a baseline computed rewards")

        monkeypatch.setattr(engine, "compute_rewards", refuse)
        monkeypatch.setattr(engine, "_track_uncertainties", refuse)
        m = run_epoch(
            ClassLibrary(), SMALL, epoch_seed(SMALL.seed, 0, 0), policy, Pool.empty()
        )[0]
        assert m.num_tracks > 0
        steps = SMALL.steps_per_epoch * m.num_nodes
        assert m.active_node_steps + m.passive_node_steps == steps

    def test_the_bandit_computes_one_reward_batch_per_step(self, monkeypatch):
        calls = {"compute_rewards": 0, "_track_uncertainties": 0}
        for name in calls:
            original = getattr(engine, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(engine, name, counted)
        run_epoch(
            ClassLibrary(), SMALL, epoch_seed(SMALL.seed, 0, 0), BANDIT, Pool.empty()
        )
        steps = SMALL.steps_per_epoch
        assert calls == {"compute_rewards": steps, "_track_uncertainties": steps}


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
    return _bench_module(monkeypatch, "tracer")


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


def test_bench_tracer_sees_one_fit_call_per_recluster(monkeypatch):
    # `kmeans_distributions` fits every k of a re-cluster in one call and
    # `_pool_log_likelihood` scores them in one, so each hook fires once
    # per `update_library` call
    tracer = _bench_tracer(monkeypatch).Tracer()
    with tracer.installed():
        run_experiment(SMALL, [BANDIT])
    stats = tracer.layer_stats()
    reclusters = stats["classlib.update_library"]["calls"]
    assert reclusters > 0
    assert stats["classlib.kmeans_distributions"]["calls"] == reclusters
    assert stats["classlib.pool_log_likelihood"]["calls"] == reclusters


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
SMALL_METRICS_SHA256 = "32fff2dc11a2c4a4d476caaa35615e9b1ded40c632d83cd0b66cf812c47c4021"


class TestRegressionGuard:
    def test_small_experiment_metrics_unchanged(self):
        assert metrics_sha256(run_experiment(SMALL)) == SMALL_METRICS_SHA256


class _SpyExecutor(ProcessPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


def _refuse_to_start(*args, **kwargs):
    raise AssertionError("a process pool was started")


class TestCellPool:
    def test_pool_gives_the_serial_metrics(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SpyExecutor)
        monkeypatch.setattr(_SpyExecutor, "started", 0)
        config = dataclasses.replace(SMALL, num_runs=2)
        policies = default_policies()
        result = run_experiment(config)
        reference = run_experiment_in_turn(config, policies)
        if engine._usable_cpus() > 1:
            assert _SpyExecutor.started == 1
        # labels in policy order, each holding its own policy's runs in run
        # order: the runs replay different truths, so a swap would show
        assert list(result.metrics) == [p.label for p in policies]
        truths = [[m.truth_digest for m in run] for run in reference.metrics["bandit"]]
        assert truths[0] != truths[1]
        for label, runs in result.metrics.items():
            assert {m.policy for run in runs for m in run} == {label}
            assert [[m.truth_digest for m in run] for run in runs] == truths
        assert metrics_sha256(result) == metrics_sha256(reference)
        assert multiprocessing.active_children() == []

    def test_no_pool_where_one_cannot_help(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_to_start)
        assert run_experiment(SMALL, [BANDIT]).metrics["bandit"]
        # a numpy integer is a whole number of workers
        result = run_experiment(SMALL, workers=np.int64(1))
        assert metrics_sha256(result) == SMALL_METRICS_SHA256

    def test_without_fork_the_cells_run_in_process(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_to_start)
        monkeypatch.delattr(os, "fork")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert engine._usable_cpus() == 2
        assert metrics_sha256(run_experiment(SMALL)) == SMALL_METRICS_SHA256

    def test_a_replaced_function_keeps_the_cells_in_process(self, monkeypatch):
        # a wrapper that counts, as the benchmark tracer's do, must count
        # every cell's calls in this process
        config = dataclasses.replace(SMALL, num_runs=2)
        reference = run_experiment_in_turn(config, default_policies())
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_to_start)
        calls = []
        original = engine.run_step

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "run_step", counted)
        assert metrics_sha256(run_experiment(config)) == metrics_sha256(reference)
        cells = config.num_runs * len(default_policies())
        assert len(calls) == cells * config.num_epochs * config.steps_per_epoch
        monkeypatch.undo()
        assert not engine._replaced_functions()

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("epoch failed")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SpyExecutor)
        monkeypatch.setattr(_SpyExecutor, "started", 0)
        monkeypatch.setattr(engine, "run_epoch", fail)
        with pytest.raises(RuntimeError, match="epoch failed"):
            run_experiment(SMALL)
        assert _SpyExecutor.started == 0
        # an explicit worker count pools even a patched engine
        with pytest.raises(RuntimeError, match="epoch failed"):
            run_experiment(SMALL, workers=2)
        assert _SpyExecutor.started == 1
        assert multiprocessing.active_children() == []

    def test_no_workers_is_a_config_error(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_to_start)
        with pytest.raises(ConfigError):
            run_experiment(SMALL, workers=0)

    @pytest.mark.parametrize("workers", [2.5, 1.5])
    def test_a_fractional_worker_count_is_a_config_error(self, monkeypatch, workers):
        # refused where it enters, not inside the pool or by running in turn
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse_to_start)
        with pytest.raises(ConfigError, match="whole number"):
            run_experiment(SMALL, workers=workers)

    def test_import_loads_no_pool_machinery(self):
        # nor any of scipy: numpy is the only runtime dependency
        code = (
            "import sys, crnsim.engine; print('multiprocessing' in sys.modules, "
            "any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        src = str(Path(engine.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["False", "False"]
