import math

import numpy as np
import pytest

from crnsim.bandit import NodeMode
from crnsim.classlib import vector_from_histories
from crnsim.dynamics import make_target_table, step_motion
from crnsim.markov import MarkovChain, StateSequence, estimate_transitions
from crnsim.scenario import (
    CRUISE_CV,
    HIGH_G,
    Node,
    Target,
    TargetClass,
    default_family,
)
from crnsim.sensing import SensorNoise
from crnsim.tracking import (
    DEFAULT_STATE_ACCEL_STD,
    NUM_MODELS,
    VERTICAL_Q_FRACTION,
    FilterTuning,
    LengthMismatch,
    Track,
    cv_transition,
    imm_mix,
    imm_predict,
    imm_predict_arrays,
    infer_motion_state,
    kalman_update_arrays,
    measurement_rows,
    motion_state_posterior,
    omega_log_evidence,
    polar_to_cartesian,
    process_noise_matrix,
    start_track,
    track_rmse,
    tuned_tuning,
    untuned_tuning,
)
from scalar_reference import kalman_update, radar_measure, target_row

TINY_NOISE = SensorNoise(1e-6, 1e-9, 1e-9, 1e-6, 1e-9, 1e-9)

STAY_CV = np.eye(3)  # every motion state absorbs; spawned CV stays CV


def make_class(
    motion_P=None,
    process_noise=(0.0, 0.0, 0.0),
    speed_range=(0.0, 1e9),
    turn_range=(0.5, 0.5),
):
    return TargetClass(
        class_id=0,
        name="test",
        motion_chain=MarkovChain(STAY_CV if motion_P is None else np.asarray(motion_P)),
        signal_chain=MarkovChain(np.full((4, 4), 0.25)),
        tx_chain=MarkovChain(np.full((2, 2), 0.5)),
        tx_power_w=1.0,
        process_noise=np.asarray(process_noise, dtype=float),
        speed_range_mps=speed_range,
        altitude_range_m=(0.0, 10_000.0),
        turn_rate_range_radps=turn_range,
    )


def make_truth(cls, position, v, state=CRUISE_CV, turn_rate=0.0):
    """A one-target table of class `cls`."""
    target = Target(
        target_id=0,
        class_id=cls.class_id,
        position=np.asarray(position, dtype=float),
        velocity=np.asarray(v, dtype=float),
        motion_state=state,
        signal_state=0,
        tx_on=True,
        turn_rate_radps=turn_rate,
    )
    return make_target_table([target], [cls])


def single_model_track(state=None, cov=None):
    s = np.zeros(6) if state is None else np.asarray(state, dtype=float)
    P = np.eye(6) * 100.0 if cov is None else np.asarray(cov, dtype=float)
    return Track(
        model_states=s[None].copy(),
        model_covs=P[None].copy(),
        model_probs=np.array([1.0]),
    )


def single_model_tuning(accel_std=0.0):
    return FilterTuning(
        mode_transition=MarkovChain(np.array([[1.0]])),
        process_noise_per_state=np.array([accel_std]),
    )


class TestDynamicsMatrices:
    def test_cv_transition_structure(self):
        F = cv_transition(0.5)
        x = np.array([1.0, 2.0, 3.0, 10.0, -20.0, 4.0])
        assert F @ x == pytest.approx([6.0, -8.0, 5.0, 10.0, -20.0, 4.0])

    def test_process_noise_hand_values(self):
        # white-noise acceleration: var * [dt^4/4, dt^3/2; dt^3/2, dt^2]
        Q = process_noise_matrix(0.5, 5.0)
        assert Q[0, 0] == pytest.approx(25 * 0.5**4 / 4)
        assert Q[0, 3] == pytest.approx(25 * 0.5**3 / 2)
        assert Q[3, 3] == pytest.approx(25 * 0.5**2)
        # vertical axis runs at the scaled-down noise
        assert Q[2, 2] == pytest.approx(25 * VERTICAL_Q_FRACTION**2 * 0.5**4 / 4)
        assert Q[5, 5] == pytest.approx(25 * VERTICAL_Q_FRACTION**2 * 0.5**2)
        assert Q == pytest.approx(Q.T)


class TestImmPredict:
    def test_pure_extrapolation_zero_noise(self):
        track = single_model_track(state=[0, 0, 0, 10, 0, 0], cov=np.eye(6))
        imm_predict(track, single_model_tuning(0.0), 0.5)
        assert track.state == pytest.approx([5, 0, 0, 10, 0, 0])
        F = cv_transition(0.5)
        assert track.covariance == pytest.approx(F @ np.eye(6) @ F.T)

    def test_trace_grows_by_q_injection(self):
        track = single_model_track(cov=np.zeros((6, 6)))
        imm_predict(track, single_model_tuning(5.0), 0.5)
        expected = 25.0 * (2 + VERTICAL_Q_FRACTION**2) * (0.5**4 / 4 + 0.5**2)
        assert np.trace(track.covariance) == pytest.approx(expected, abs=1e-9)

    def test_identity_transition_keeps_models_separate(self):
        states = np.array([[[0.0] * 6, [1.0] * 6, [2.0] * 6]])
        covs = np.tile(np.eye(6), (1, 3, 1, 1))
        probs = np.array([[0.2, 0.5, 0.3]])
        mixed, mixed_cov, c = imm_mix(states, covs, probs, np.eye(3)[None])
        assert mixed == pytest.approx(states)
        assert mixed_cov == pytest.approx(covs)
        assert c == pytest.approx(probs)

    def test_mixing_probabilities_stay_normalized(self):
        rng = np.random.default_rng(0)
        uav = default_family().classes[0]
        trans = uav.motion_chain.transition[None]
        probs = rng.dirichlet(np.ones(3))[None]
        states = rng.normal(0, 100, (1, 3, 6))
        covs = np.tile(np.eye(6) * 50, (1, 3, 1, 1))
        _, _, c = imm_mix(states, covs, probs, trans)
        assert c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            imm_predict(single_model_track(), single_model_tuning(), 0.0)


class TestPolarConversion:
    def test_geometry_round_trip(self):
        node = np.array([100.0, -50.0, 0.0])
        truth = np.array([3100.0, 3950.0, 500.0])
        rel = truth - node
        r = np.linalg.norm(rel)
        az = math.atan2(rel[1], rel[0])
        el = math.asin(rel[2] / r)
        pos, R = polar_to_cartesian(r, az, el, node, (25.0, 0.017, 0.017))
        assert pos == pytest.approx(truth, abs=1e-9)
        assert R == pytest.approx(R.T)
        assert np.all(np.linalg.eigvalsh(R) > 0)

    def test_jacobian_against_numerical_diff(self):
        node = np.zeros(3)
        r, az, el = 5000.0, 0.7, 0.2
        sig = (25.0, math.radians(1), math.radians(1))
        _, R = polar_to_cartesian(r, az, el, node, sig)

        def cart(p):
            rr, a, e = p
            return np.array(
                [rr * math.cos(e) * math.cos(a), rr * math.cos(e) * math.sin(a),
                 rr * math.sin(e)]
            )

        eps = 1e-6
        J = np.empty((3, 3))
        p0 = np.array([r, az, el])
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = eps
            J[:, k] = (cart(p0 + dp) - cart(p0 - dp)) / (2 * eps)
        expected = J @ np.diag(np.square(sig)) @ J.T
        assert R == pytest.approx(expected, rel=1e-5)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(1)
        rs = rng.uniform(1e3, 8e3, 5)
        azs = rng.uniform(-3, 3, 5)
        els = rng.uniform(-0.5, 0.5, 5)
        node = np.zeros(3)
        pos_b, R_b = polar_to_cartesian(rs, azs, els, node, (25.0, 0.02, 0.02))
        for k in range(5):
            p, R = polar_to_cartesian(rs[k], azs[k], els[k], node, (25.0, 0.02, 0.02))
            assert pos_b[k] == pytest.approx(p)
            assert R_b[k] == pytest.approx(R)


class TestKalmanUpdate:
    def _textbook_update(self, x, P, z, R, H):
        # independent reference: plain-form Kalman equations
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x_new = x + K @ (z - H @ x)
        P_new = (np.eye(6) - K @ H) @ P
        return x_new, P_new

    def test_matches_textbook_equations(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 100, 6)
        A = rng.normal(0, 1, (6, 6))
        P = A @ A.T + 10 * np.eye(6)
        z = rng.normal(0, 100, 4)
        H = measurement_rows(x[None], np.zeros((1, 3)))[0]
        R = np.diag([625.0, 625.0, 625.0, 1.0])
        got_x, got_P, _ = kalman_update_arrays(
            x[None, None], P[None, None], np.array([[1.0]]), z[None], R[None], H[None]
        )
        exp_x, exp_P = self._textbook_update(x, P, z, R, H)
        assert got_x[0, 0] == pytest.approx(exp_x, rel=1e-9)
        assert got_P[0, 0] == pytest.approx(exp_P, rel=1e-7, abs=1e-7)

    def test_perfect_measurement_limit(self):
        node = Node(node_id=0, position=np.zeros(3))
        truth = target_row(
            make_truth(make_class(), [2000.0, 1500.0, 400.0], v=(30.0, 0.0, 0.0))
        )
        rng = np.random.default_rng(0)
        meas = radar_measure(node, truth, NodeMode.ACTIVE, rng, TINY_NOISE)
        track = single_model_track(
            state=[1900, 1400, 300, 0, 0, 0], cov=np.eye(6) * 1e6
        )
        kalman_update(track, meas, node, TINY_NOISE)
        assert track.state[:3] == pytest.approx(truth.position, abs=0.1)

    def test_position_covariance_never_grows(self):
        rng = np.random.default_rng(5)
        node = Node(node_id=0, position=np.zeros(3))
        truth = target_row(
            make_truth(make_class(), [2500.0, 1000.0, 300.0], v=(10.0, 5.0, 0.0))
        )
        track = single_model_track(state=[2400, 900, 250, 0, 0, 0])
        for _ in range(20):
            before = np.trace(track.covariance[:3, :3])
            meas = radar_measure(node, truth, NodeMode.ACTIVE, rng)
            kalman_update(track, meas, node)
            after = np.trace(track.covariance[:3, :3])
            assert after <= before + 1e-9

    def test_noiseless_cv_convergence(self):
        # 50 exact measurements: final position error well under sigma_r/10
        node = Node(node_id=0, position=np.zeros(3))
        cls = make_class(speed_range=(0.0, 100.0))
        truth = make_truth(cls, [-1200.0, 500.0, 300.0], v=(30.0, 10.0, 0.0))
        rng = np.random.default_rng(0)
        tuning = untuned_tuning()
        track = None
        prev = None
        for step in range(50):
            step_motion(truth, 0.5, rng)
            meas = radar_measure(
                node, target_row(truth), NodeMode.ACTIVE, rng, TINY_NOISE
            )
            pos, R = polar_to_cartesian(
                meas[0], meas[1], meas[2], node.position,
                (25.0, 0.0175, 0.0175),
            )
            if track is None:
                if prev is None:
                    prev = (pos, R)
                    continue
                track = start_track(prev[0], prev[1], pos, R, 0.5)
                continue
            imm_predict(track, tuning, 0.5)
            kalman_update(track, meas, node, TINY_NOISE)
        err = np.linalg.norm(track.state[:3] - truth.position[0])
        assert err < 2.5

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(7)
        node = Node(node_id=0, position=np.zeros(3))
        cls = make_class(speed_range=(0.0, 200.0), process_noise=(3.0, 3.0, 3.0))
        truth = make_truth(cls, [1500.0, 2500.0, 600.0], v=(40.0, -20.0, 0.0))
        track = start_track(
            np.array([1450.0, 2450.0, 550.0]),
            np.eye(3) * 625.0,
            np.array([1480.0, 2470.0, 580.0]),
            np.eye(3) * 625.0,
            0.5,
        )
        tuning = tuned_tuning(default_family().classes[0])
        for _ in range(30):
            step_motion(truth, 0.5, rng)
            imm_predict(track, tuning, 0.5)
            for P in track.model_covs:
                assert P == pytest.approx(P.T, abs=1e-9)
                assert np.min(np.linalg.eigvalsh(P)) > -1e-6
            meas = radar_measure(node, target_row(truth), NodeMode.ACTIVE, rng)
            kalman_update(track, meas, node)
            for P in track.model_covs:
                assert P == pytest.approx(P.T, abs=1e-9)
                assert np.min(np.linalg.eigvalsh(P)) > -1e-6


class TestStartTrack:
    def test_two_point_differencing(self):
        p1 = np.array([1000.0, 0.0, 100.0])
        p2 = np.array([1010.0, 5.0, 100.0])
        R = np.eye(3) * 400.0
        track = start_track(p1, R, p2, R, 0.5)
        assert track.state[:3] == pytest.approx(p2)
        assert track.state[3:] == pytest.approx([20.0, 10.0, 0.0])
        assert track.model_probs == pytest.approx(np.ones(NUM_MODELS) / NUM_MODELS)
        P = track.covariance
        assert P[:3, :3] == pytest.approx(R)
        assert P[3:, 3:] == pytest.approx(2 * R / 0.25)

    def test_rejects_simultaneous_measurements(self):
        p = np.zeros(3)
        with pytest.raises(ValueError):
            start_track(p, np.eye(3), p, np.eye(3), 0.0)

    def test_equality_is_identity_and_does_not_raise(self):
        R = np.eye(3)
        a, b = (start_track(np.zeros(3), R, np.ones(3), R, 0.5) for _ in range(2))
        assert a == a
        assert (a == b) is False


class TestMotionStateInference:
    def test_single_model_always_that_model(self):
        track = single_model_track()
        assert infer_motion_state(track) == 0
        assert motion_state_posterior(track) == pytest.approx([1.0])

    def _run_segment(self, state, accel, omega_truth, steps=5):
        rng = np.random.default_rng(11)
        node = Node(node_id=0, position=np.zeros(3))
        uav = default_family().classes[0]
        stay = np.zeros((3, 3))
        stay[:, state] = 1.0
        cls = make_class(
            motion_P=stay,
            process_noise=uav.process_noise,
            speed_range=(5.0, 60.0),
            turn_range=(omega_truth, omega_truth) if omega_truth else (0.3, 0.3),
        )
        truth = make_truth(
            cls, [-500.0, 1000.0, 400.0], v=(25.0, 0.0, 0.0), state=state,
            turn_rate=omega_truth,
        )
        tuning = tuned_tuning(uav)
        track = None
        prev = None
        posts = []
        for step in range(steps + 2):
            step_motion(truth, 0.5, rng)
            meas = radar_measure(node, target_row(truth), NodeMode.ACTIVE, rng)
            pos, R = polar_to_cartesian(
                meas[0], meas[1], meas[2], node.position,
                (25.0, 0.0175, 0.0175),
            )
            if track is None:
                if prev is None:
                    prev = (pos, R)
                    continue
                track = start_track(prev[0], prev[1], pos, R, 0.5)
                continue
            imm_predict(track, tuning, 0.5)
            kalman_update(track, meas, node)
            posts.append(
                motion_state_posterior(track, [meas[4]])
            )
        return posts

    def test_cruise_segment_identified(self):
        posts = self._run_segment(CRUISE_CV, 1.0, 0.0)
        assert posts[-1][CRUISE_CV] > 0.5

    def test_high_g_segment_identified(self):
        posts = self._run_segment(HIGH_G, 35.0, 0.0)
        assert int(np.argmax(posts[-1])) == HIGH_G

    def test_history_recording_and_counts(self):
        track = single_model_track()
        track.model_probs = np.array([1.0])
        infer_motion_state(track, step=4)
        infer_motion_state(track, step=5)
        infer_motion_state(track, step=5)  # second reading this step: dropped
        infer_motion_state(track, step=7)  # gap: no transition counted
        assert track.motion_history == [(4, 0), (5, 0), (7, 0)]
        v = vector_from_histories(track.motion_history, [(4, 0)], 3, 4)
        np.testing.assert_array_equal(v.evidence[2:5], [1.0, 0.0, 0.0])

    @staticmethod
    def _three_model_track():
        R = np.eye(3) * 400.0
        track = start_track(np.zeros(3), R, np.array([10.0, 0.0, 0.0]), R, 0.5)
        track.model_probs = np.array([0.2, 0.5, 0.3])
        track.motion_belief = np.array([0.6, 0.3, 0.1])
        return track

    def test_posterior_leaves_track_unchanged(self):
        track = self._three_model_track()
        belief, probs = track.motion_belief.copy(), track.model_probs.copy()
        post = motion_state_posterior(track, [math.radians(15.0)])
        assert int(np.argmax(post)) == 1
        assert np.array_equal(track.motion_belief, belief)
        assert np.array_equal(track.model_probs, probs)
        assert track.motion_history == []

    def test_inference_stores_belief_not_model_probs(self):
        track = self._three_model_track()
        probs = track.model_probs.copy()
        post = motion_state_posterior(track, [math.radians(15.0)])
        infer_motion_state(track, [math.radians(15.0)], step=0)
        assert np.array_equal(track.model_probs, probs)
        assert track.motion_belief == pytest.approx(post)
        # no angular rate: the reading is the prior and nothing is stored
        infer_motion_state(track, step=1)
        assert track.motion_belief == pytest.approx(post)

    def test_prediction_carries_belief_along_mode_chain(self):
        track = self._three_model_track()
        tuning = tuned_tuning(default_family().classes[0])
        belief = track.motion_belief.copy()
        imm_predict(track, tuning, 0.5)
        assert track.motion_belief == pytest.approx(
            belief @ tuning.mode_transition.transition
        )

    def test_untuned_reading_matches_flat_prior(self):
        # the uniform mode chain forgets the previous reading, so the
        # recursion reduces to the engine's flat-prior argmax of the summed
        # angular-rate evidence
        omegas = [
            [0.01], [0.3], [-0.25], [1.2], [0.02, 0.35], [0.0], [-0.9, 0.6],
            [0.07], [0.12], [0.5, 0.45, 0.4], [-0.03], [2.0],
        ]
        track = self._three_model_track()
        tuning = untuned_tuning()
        got, expected = [], []
        for step, w in enumerate(omegas):
            imm_predict(track, tuning, 0.5)
            got.append(infer_motion_state(track, w, step=step))
            expected.append(int(np.argmax(omega_log_evidence(np.asarray(w)).sum(axis=0))))
        assert got == expected
        assert len(set(expected)) == NUM_MODELS


def _switching_target_run(seed, steps, radar_range_m=50_000.0):
    """Full pipeline on a mode-switching UAV-class target: returns per-step
    inference accuracy and the track's recorded motion history."""
    rng = np.random.default_rng(seed)
    node = Node(node_id=0, position=np.zeros(3), radar_range_m=radar_range_m)
    uav = default_family().classes[0]
    truth = make_truth(uav, [-800.0, 900.0, 500.0], v=(22.0, -5.0, 0.0))
    tuning = tuned_tuning(uav)
    track = None
    prev = None
    hits = total = 0
    for step in range(steps):
        step_motion(truth, 0.5, rng)
        meas = radar_measure(node, target_row(truth), NodeMode.ACTIVE, rng)
        pos, R = polar_to_cartesian(
            meas[0], meas[1], meas[2], node.position,
            (25.0, 0.0175, 0.0175),
        )
        if track is None:
            if prev is None:
                prev = (pos, R)
                continue
            track = start_track(prev[0], prev[1], pos, R, 0.5)
            continue
        imm_predict(track, tuning, 0.5)
        kalman_update(track, meas, node)
        got = infer_motion_state(track, [meas[4]], step=step)
        hits += got == truth.motion_state[0]
        total += 1
    return hits / total, track


class TestStateHistoryRecovery:
    def test_per_step_accuracy_over_one_epoch(self):
        accuracy, _ = _switching_target_run(seed=2, steps=52)
        assert accuracy >= 0.7

    def test_transition_recovery_from_long_history(self):
        # one 50-step epoch cannot pin a 3x3 chain (the rarest state draws
        # ~10 visits; binomial noise alone exceeds the tolerance), so the
        # recovery bound is checked where the estimator has converged
        accuracy, track = _switching_target_run(seed=7, steps=2000)
        assert accuracy >= 0.7
        est = estimate_transitions(
            StateSequence(tuple(s for _, s in track.motion_history)), 3, smoothing=0.1
        )
        true_p = default_family().classes[0].motion_chain.transition
        assert np.max(np.abs(est.transition - true_p)) <= 0.1


def _paired_epoch_rmse(cls, seed, num_targets):
    """Mean epoch RMSE over class-matched targets for a tuned and an
    untuned filter fed identical measurement streams."""
    rng = np.random.default_rng(seed)
    node = Node(node_id=0, position=np.zeros(3), radar_range_m=100_000.0)
    tun, unt = tuned_tuning(cls), untuned_tuning()
    sums = {"tuned": 0.0, "untuned": 0.0}
    for _ in range(num_targets):
        speed = rng.uniform(*cls.speed_range_mps)
        heading = rng.uniform(0, 2 * np.pi)
        position = [rng.uniform(-1500, 1500), rng.uniform(-1500, 1500),
                    rng.uniform(*cls.altitude_range_m)]
        truth = make_truth(
            cls, position, v=(speed * np.cos(heading), speed * np.sin(heading), 0.0)
        )
        tracks = {"tuned": None, "untuned": None}
        prev = None
        est = {"tuned": [], "untuned": []}
        truth_path = []
        for _ in range(52):
            step_motion(truth, 0.5, rng)
            meas = radar_measure(node, target_row(truth), NodeMode.ACTIVE, rng)
            pos, R = polar_to_cartesian(
                meas[0], meas[1], meas[2],
                node.position, (25.0, 0.0175, 0.0175),
            )
            if tracks["tuned"] is None:
                if prev is None:
                    prev = (pos, R)
                    continue
                for k in tracks:
                    tracks[k] = start_track(prev[0], prev[1], pos, R, 0.5)
                continue
            for k, tng in (("tuned", tun), ("untuned", unt)):
                imm_predict(tracks[k], tng, 0.5)
                kalman_update(tracks[k], meas, node)
                est[k].append(tracks[k].state[:3].copy())
            truth_path.append(truth.position[0].copy())
        for k in sums:
            sums[k] += track_rmse(est[k], truth_path)
    return sums["tuned"] / num_targets, sums["untuned"] / num_targets


class TestTunedVersusUntuned:
    def test_class_matched_tuning_lowers_epoch_rmse(self):
        uav = default_family().classes[0]
        pairs = [_paired_epoch_rmse(uav, 1000 + s, 4) for s in range(10)]
        tuned = np.array([p[0] for p in pairs])
        untuned = np.array([p[1] for p in pairs])
        assert tuned.mean() < untuned.mean()
        assert np.sum(tuned < untuned) >= 8


class TestTrackRmse:
    def test_zero_for_exact(self):
        pts = [np.array([1.0, 2, 3]), np.array([4.0, 5, 6])]
        assert track_rmse(pts, pts) == 0.0

    def test_constant_offset(self):
        truth = [np.zeros(3)] * 8
        est = [np.array([10.0, 0, 0])] * 8
        assert track_rmse(est, truth) == pytest.approx(10.0)

    def test_alternating_offsets(self):
        truth = [np.zeros(3), np.zeros(3)]
        est = [np.array([3.0, 0, 0]), np.array([0.0, 4, 0])]
        assert track_rmse(est, truth) == pytest.approx(math.sqrt((9 + 16) / 2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            track_rmse([np.zeros(3)], [np.zeros(3)] * 2)
        with pytest.raises(LengthMismatch):
            track_rmse([], [])


class TestTunings:
    def test_tuned_passthrough(self):
        balloon = default_family().classes[2]
        tuning = tuned_tuning(balloon)
        assert tuning.process_noise_per_state == pytest.approx(balloon.process_noise)
        assert tuning.mode_transition is balloon.motion_chain

    def test_untuned_uniform_and_geometric_mean(self):
        tuning = untuned_tuning()
        assert tuning.mode_transition.transition == pytest.approx(
            np.full((3, 3), 1 / 3)
        )
        assert tuning.process_noise_per_state == pytest.approx(
            np.full(3, np.cbrt(np.prod(DEFAULT_STATE_ACCEL_STD)))
        )

    def test_equality_is_identity_and_does_not_raise(self):
        a, b = untuned_tuning(), untuned_tuning()
        assert a == a
        assert (a == b) is False

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FilterTuning(
                mode_transition=MarkovChain(np.full((3, 3), 1 / 3)),
                process_noise_per_state=np.array([1.0, 2.0]),
            )


class TestBatchedConsistency:
    def test_stacked_tracks_match_individual_calls(self):
        rng = np.random.default_rng(13)
        B = 4
        states = rng.normal(0, 1000, (B, 3, 6))
        covs = np.empty((B, 3, 6, 6))
        for b in range(B):
            for m in range(3):
                A = rng.normal(0, 1, (6, 6))
                covs[b, m] = A @ A.T + 5 * np.eye(6)
        probs = rng.dirichlet(np.ones(3), size=B)
        trans = np.stack(
            [default_family().classes[b % 3].motion_chain.transition for b in range(B)]
        )
        F = cv_transition(0.5)
        Q = np.stack(
            [
                np.stack([process_noise_matrix(0.5, s) for s in DEFAULT_STATE_ACCEL_STD])
                for _ in range(B)
            ]
        )
        got_s, got_c, got_p = imm_predict_arrays(states, covs, probs, trans, F, Q)
        for b in range(B):
            es, ec, ep = imm_predict_arrays(
                states[b : b + 1], covs[b : b + 1], probs[b : b + 1],
                trans[b : b + 1], F, Q[b : b + 1],
            )
            assert got_s[b] == pytest.approx(es[0], rel=1e-12)
            assert got_c[b] == pytest.approx(ec[0], rel=1e-12)
            assert got_p[b] == pytest.approx(ep[0], rel=1e-12)

    def test_stacked_updates_match_individual_calls(self):
        rng = np.random.default_rng(17)
        B = 4
        states = rng.normal(0, 1000, (B, 3, 6))
        covs = np.tile(np.eye(6) * 200.0, (B, 3, 1, 1))
        probs = rng.dirichlet(np.ones(3), size=B)
        z = rng.normal(0, 1000, (B, 4))
        R = np.tile(np.diag([625.0, 625, 625, 1.0]), (B, 1, 1))
        H = measurement_rows(states.mean(axis=1), np.zeros((B, 3)))
        got = kalman_update_arrays(states, covs, probs, z, R, H)
        for b in range(B):
            exp = kalman_update_arrays(
                states[b : b + 1], covs[b : b + 1], probs[b : b + 1],
                z[b : b + 1], R[b : b + 1], H[b : b + 1],
            )
            for g, e in zip(got, exp):
                assert g[b] == pytest.approx(e[0], rel=1e-10, abs=1e-10)
