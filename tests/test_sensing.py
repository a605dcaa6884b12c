import math
from types import SimpleNamespace

import numpy as np
import pytest

from crnsim.bandit import NodeMode
from crnsim.classlib import ClassLibrary
from crnsim.engine import GATE_MAX_RAD, Coordinator, _apply_passive, _associate_bearings
from crnsim.sensing import (
    ReceiverParams,
    SensorNoise,
    ZeroRange,
    max_detectable_range,
    passive_detect_batch,
    passive_snr,
    radar_measure_batch,
    receiver_noise_power,
    wrap_angle,
)
from scalar_reference import passive_detect, radar_measure

ZERO_NOISE = SensorNoise(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
SIGMA_DOA = math.radians(2.0)


def make_node(pos, node_id=0, radar_range_m=4000.0):
    return SimpleNamespace(
        node_id=node_id, position=np.asarray(pos, dtype=float), radar_range_m=radar_range_m
    )


def make_target(pos, vel=(0.0, 0.0, 0.0), target_id=0, tx_on=True, signal_state=2,
                heading_rate_radps=0.0):
    return SimpleNamespace(
        target_id=target_id,
        position=np.asarray(pos, dtype=float),
        velocity=np.asarray(vel, dtype=float),
        tx_on=tx_on,
        signal_state=signal_state,
        heading_rate_radps=heading_rate_radps,
    )


def make_class(tx_power_w=1.0, tx_gain=1.0):
    return SimpleNamespace(tx_power_w=tx_power_w, tx_gain=tx_gain)


def radar_once(target_pos, vel=(0.0, 0.0, 0.0), heading_rate=0.0, active=True,
               rng=None, noise=SensorNoise()):
    """One node at the origin against the given targets (rows of
    target_pos); returns (node_idx, target_idx, z)."""
    pos = np.atleast_2d(np.asarray(target_pos, dtype=float))
    m = len(pos)
    return radar_measure_batch(
        np.zeros((1, 3)),
        np.array([active]),
        np.array([4000.0]),
        pos,
        np.tile(np.asarray(vel, dtype=float), (m, 1)),
        np.full(m, heading_rate),
        np.random.default_rng(0) if rng is None else rng,
        noise,
    )


def passive_once(target_pos, tx_power_w=1.0, tx_on=True, passive=True, rng=None):
    """One node at the origin listening to the given targets, each with the
    reach of a tx_power_w emitter; returns (node_idx, target_idx, bearings)."""
    pos = np.atleast_2d(np.asarray(target_pos, dtype=float))
    m = len(pos)
    reach = max_detectable_range(tx_power_w, 1.0, ReceiverParams())
    return passive_detect_batch(
        np.zeros((1, 3)),
        np.array([passive]),
        pos,
        np.full(m, tx_on),
        np.full(m, reach),
        np.random.default_rng(1) if rng is None else rng,
    )


class TestLinkBudget:
    def test_unit_noise_power(self):
        # k * 290 K with F = 1, B = 1 Hz
        rx = ReceiverParams(noise_figure=1.0, bandwidth_hz=1.0)
        assert receiver_noise_power(rx) == pytest.approx(4.0038821e-21, rel=1e-6)

    def test_default_noise_power(self):
        assert receiver_noise_power(ReceiverParams()) == pytest.approx(
            4.0038821e-14, rel=1e-6
        )

    def test_invalid_receiver_rejected(self):
        with pytest.raises(ValueError):
            receiver_noise_power(ReceiverParams(noise_figure=0.0))

    def test_snr_at_ten_km(self):
        snr = passive_snr(1.0, 1.0, ReceiverParams(), 10e3)
        assert snr == pytest.approx(71.17238267, rel=1e-8)
        assert 10 * math.log10(snr) == pytest.approx(18.523, abs=1e-3)

    def test_snr_inverse_square(self):
        rx = ReceiverParams()
        assert passive_snr(1.0, 1.0, rx, 20e3) == pytest.approx(
            passive_snr(1.0, 1.0, rx, 10e3) / 4.0, rel=1e-12
        )

    def test_snr_monotone_in_range(self):
        rx = ReceiverParams()
        vals = [passive_snr(1.0, 1.0, rx, r) for r in np.linspace(1e3, 200e3, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_zero_range_raises(self, bad):
        with pytest.raises(ZeroRange):
            passive_snr(1.0, 1.0, ReceiverParams(), bad)

    def test_max_range_one_watt(self):
        assert max_detectable_range(1.0, 1.0, ReceiverParams()) == pytest.approx(
            84363.726, rel=1e-6
        )

    def test_max_range_inverts_snr(self):
        rx = ReceiverParams()
        for p in (0.01, 0.1, 1.0, 10.0, 100.0):
            r = max_detectable_range(p, 1.0, rx)
            assert passive_snr(p, 1.0, rx, r) == pytest.approx(1.0, rel=1e-9)

    def test_max_range_scales_with_sqrt_power(self):
        rx = ReceiverParams()
        lo = max_detectable_range(0.01, 1.0, rx)
        hi = max_detectable_range(100.0, 1.0, rx)
        assert lo == pytest.approx(8436.37, rel=1e-5)
        assert hi == pytest.approx(843637.26, rel=1e-6)
        assert hi / lo == pytest.approx(100.0, rel=1e-12)


class TestPassiveDetect:
    def test_detects_and_carries_truth_signal(self):
        # the engine reads the true signal type through the target index
        signal_states = [3, 1]
        ni, ti, bearings = passive_once([[3000, 4000, 0], [90_000, 0, 0]])
        assert ni.tolist() == [0]
        assert [signal_states[j] for j in ti] == [3]
        assert passive_snr(1.0, 1.0, ReceiverParams(), 5000.0) > 1.0
        assert bearings[0] == pytest.approx(math.atan2(4000, 3000), abs=0.2)

    def test_requires_passive_mode(self):
        ni, _, _ = passive_once([1000, 0, 0], passive=False)
        assert ni.size == 0

    def test_requires_transmitter_on(self):
        ni, _, _ = passive_once([1000, 0, 0], tx_on=False)
        assert ni.size == 0

    def test_weak_emitter_out_of_range(self):
        # beyond the 8.44 km reach of 10 mW
        assert passive_once([9000, 0, 0], tx_power_w=0.01)[0].size == 0
        # the same geometry with 1 W is detectable
        assert passive_once([9000, 0, 0], tx_power_w=1.0)[0].size == 1

    def test_bearing_noise_statistics(self):
        ni, _, bearings = passive_once(
            np.tile([1000.0, 1000.0, 0.0], (4000, 1)), rng=np.random.default_rng(5)
        )
        assert ni.size == 4000
        assert np.mean(bearings) == pytest.approx(math.pi / 4, abs=5e-3)
        assert np.std(bearings) == pytest.approx(SIGMA_DOA, rel=0.05)


class TestRadarMeasure:
    def test_truth_channels_with_zero_noise(self):
        _, _, z = radar_once(
            [3000, 0, 300], vel=(-50, 10, 0), heading_rate=0.2, noise=ZERO_NOISE
        )
        dist = math.sqrt(3000**2 + 300**2)
        rng_m, az, el, vr, omega = z[0]
        assert rng_m == pytest.approx(dist, rel=1e-12)
        assert az == pytest.approx(0.0, abs=1e-12)
        assert el == pytest.approx(math.asin(300 / dist), rel=1e-12)
        assert vr == pytest.approx(-50 * 3000 / dist, rel=1e-12)
        assert omega == pytest.approx(0.2, rel=1e-12)

    def test_horizontal_gate(self):
        # 4.2 km horizontally is out even at zero altitude
        assert radar_once([4200, 0, 0])[0].size == 0
        # high target at 3.9 km horizontal is in despite > 4 km slant range
        ni, _, z = radar_once([3900, 0, 2000])
        assert ni.size == 1
        assert z[0, 0] > 4000

    def test_requires_active_mode(self):
        assert radar_once([1000, 0, 0], active=False)[0].size == 0

    def test_noise_statistics(self):
        target = np.array([2000.0, 2000.0, 500.0])
        ni, _, z = radar_once(np.tile(target, (4000, 1)), rng=np.random.default_rng(11))
        assert ni.size == 4000
        truth = np.linalg.norm(target)
        assert np.mean(z[:, 0]) == pytest.approx(truth, abs=2.0)
        assert np.std(z[:, 0]) == pytest.approx(25.0, rel=0.05)


def associate(det_bearings, track_xy, track_cov=None, node_xy=(0.0, 0.0)):
    """engine._associate_bearings with every detection heard at node_xy."""
    det_bearings = np.atleast_1d(np.asarray(det_bearings, dtype=float))
    track_xy = np.atleast_2d(np.asarray(track_xy, dtype=float))
    if track_cov is None:
        track_cov = np.zeros((len(track_xy), 2, 2))
    return _associate_bearings(
        np.tile(np.asarray(node_xy, dtype=float), (det_bearings.size, 1)),
        det_bearings,
        track_xy,
        np.asarray(track_cov, dtype=float),
        SIGMA_DOA,
    )


def at_bearing(deg, r=5000.0):
    return [r * math.cos(math.radians(deg)), r * math.sin(math.radians(deg))]


class TestNearestBearingIndex:
    """Gate geometry of engine._associate_bearings: the index of the track
    whose bearing gate holds a detection, -1 when none does."""

    def test_nearest_within_gate(self):
        tracks = [at_bearing(0), at_bearing(30), at_bearing(-40)]
        assert associate(math.radians(28), tracks).tolist() == [1]

    def test_outside_gate_unmatched(self):
        assert associate(math.radians(15), [at_bearing(0)]).tolist() == [-1]

    def test_wraparound(self):
        # pi - 1 deg vs -pi + 1 deg are 2 degrees apart, inside the gate
        assert associate(math.pi - math.radians(1), [at_bearing(-179)]).tolist() == [0]

    def test_gate_matches_three_sigma_doa(self):
        # with zero track covariance the gate is 3 sigma of the DoA noise
        gate = 3 * SIGMA_DOA
        got = associate([gate - 1e-9, gate + 1e-9, -gate + 1e-9], [[5000.0, 0.0]])
        assert got.tolist() == [0, -1, 0]

    def test_covariance_widens_the_gate_up_to_the_cap(self):
        # cross-range sigma of 3 deg at 5 km: gate 3 * sqrt(2^2 + 3^2) deg
        sigma_y = 5000.0 * math.radians(3.0)
        widened = np.diag([0.0, sigma_y**2])[None]
        gate = 3 * math.hypot(SIGMA_DOA, math.radians(3.0))
        probe = [math.radians(9.0), gate - 1e-9, gate + 1e-9]
        assert associate(probe, [[5000.0, 0.0]]).tolist() == [-1, -1, -1]
        assert associate(probe, [[5000.0, 0.0]], widened).tolist() == [0, 0, -1]
        # a huge covariance widens the gate only to GATE_MAX_RAD
        huge = np.diag([0.0, 1e12])[None]
        cap = [GATE_MAX_RAD - 1e-9, GATE_MAX_RAD + 1e-9]
        assert associate(cap, [[5000.0, 0.0]], huge).tolist() == [0, -1]


class TestAssociateDetection:
    """Claim rules of engine._associate_bearings and _apply_passive."""

    def test_no_tracks(self):
        coordinator = Coordinator(
            library=ClassLibrary(), num_signal_states=4, use_class_knowledge=False
        )
        logged = _apply_passive(
            None, coordinator, np.array([0]), np.array([0]), np.array([0.3]), 1,
            SIGMA_DOA,
        )
        assert logged == 0

    def test_no_tracks_claims_nothing(self):
        got = _associate_bearings(
            np.zeros((2, 2)), np.array([0.1, 0.2]), np.zeros((0, 2)),
            np.zeros((0, 2, 2)), SIGMA_DOA,
        )
        assert got.tolist() == [-1, -1]

    def test_single_track_at_bearing(self):
        assert associate(0.0, [[5000.0, 0.0]]).tolist() == [0]

    def test_nearest_of_two(self):
        tracks = [
            [5000 * math.cos(0.5), 5000 * math.sin(0.5)],
            [5000.0, 0.0],
        ]
        assert associate(0.1, tracks).tolist() == [1]

    def test_gate_excludes(self):
        assert associate(0.3, [[5000.0, 0.0]]).tolist() == [-1]

    def test_order_invariant_with_tie_break(self):
        # two tracks at exactly the same bearing: the tie is ambiguous, so
        # neither claims the detection, in either order
        tracks = [[4000.0, 0.0], [8000.0, 0.0]]
        assert associate(0.0, tracks).tolist() == [-1]
        assert associate(0.0, tracks[::-1]).tolist() == [-1]


class TestBatchConsistency:
    def _setup(self, seed=3):
        rng = np.random.default_rng(seed)
        nodes = [make_node(rng.uniform(0, 10_000, 3) * [1, 1, 0], node_id=i) for i in range(6)]
        targets = [
            make_target(
                rng.uniform(0, 10_000, 3) * [1, 1, 0.1],
                vel=rng.normal(0, 30, 3),
                target_id=j,
                tx_on=bool(rng.random() < 0.7),
                heading_rate_radps=float(rng.normal(0, 0.2)),
            )
            for j in range(8)
        ]
        return rng, nodes, targets

    def test_radar_batch_matches_scalar(self):
        rng, nodes, targets = self._setup()
        modes = [NodeMode.ACTIVE if i % 2 == 0 else NodeMode.PASSIVE for i in range(6)]
        ni, ti, z = radar_measure_batch(
            np.array([n.position for n in nodes]),
            np.array([m is NodeMode.ACTIVE for m in modes]),
            np.full(6, 4000.0),
            np.array([t.position for t in targets]),
            np.array([t.velocity for t in targets]),
            np.array([t.heading_rate_radps for t in targets]),
            rng,
            ZERO_NOISE,
        )
        got = {(int(a), int(b)) for a, b in zip(ni, ti)}
        expected = {}
        for i, node in enumerate(nodes):
            for j, t in enumerate(targets):
                m = radar_measure(node, t, modes[i], rng, ZERO_NOISE)
                if m is not None:
                    expected[(i, j)] = m
        assert got == set(expected)
        for k, (a, b) in enumerate(zip(ni, ti)):
            assert z[k] == pytest.approx(expected[(int(a), int(b))], rel=1e-10)

    def test_passive_batch_matches_scalar_gating(self):
        rng, nodes, targets = self._setup(seed=9)
        cls = make_class(0.05)  # ~18.9 km reach, some pairs in, some out
        rmax = max_detectable_range(0.05, 1.0, ReceiverParams())
        ni, ti, bearings = passive_detect_batch(
            np.array([n.position for n in nodes]),
            np.ones(6, dtype=bool),
            np.array([t.position for t in targets]),
            np.array([t.tx_on for t in targets]),
            np.full(8, rmax),
            rng,
            ZERO_NOISE,
        )
        got = {(int(a), int(b)) for a, b in zip(ni, ti)}
        expected = set()
        for i, node in enumerate(nodes):
            for j, t in enumerate(targets):
                if passive_detect(node, t, cls, NodeMode.PASSIVE, rng, ZERO_NOISE) is not None:
                    expected.add((i, j))
        assert got == expected
        for k, (a, b) in enumerate(zip(ni, ti)):
            rel = targets[int(b)].position - nodes[int(a)].position
            assert bearings[k] == pytest.approx(math.atan2(rel[1], rel[0]), abs=1e-12)

    def test_batch_bearing_noise(self):
        rng = np.random.default_rng(21)
        node_pos = np.zeros((1, 3))
        tgt_pos = np.array([[5000.0, 0.0, 0.0]])
        draws = []
        for _ in range(3000):
            _, _, b = passive_detect_batch(
                node_pos, np.ones(1, bool), tgt_pos, np.ones(1, bool),
                np.array([10_000.0]), rng,
            )
            draws.append(b[0])
        assert np.std(draws) == pytest.approx(math.radians(2.0), rel=0.06)

    def test_empty_masks_produce_empty_results(self):
        rng = np.random.default_rng(0)
        ni, ti, z = radar_measure_batch(
            np.zeros((2, 3)), np.zeros(2, bool), np.full(2, 4000.0),
            np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), rng,
        )
        assert ni.size == 0 and z.shape == (0, 5)


class TestWrapAngle:
    def test_wraps_into_interval(self):
        xs = np.array([0.0, math.pi, -math.pi, 3 * math.pi, -7.5, 12.0])
        w = wrap_angle(xs)
        assert np.all(w <= math.pi + 1e-12)
        assert np.all(w >= -math.pi - 1e-12)
        assert np.allclose(np.cos(w), np.cos(xs))
        assert np.allclose(np.sin(w), np.sin(xs))
