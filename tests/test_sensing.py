import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from crnsim.classlib import ClassLibrary
from crnsim.engine import GATE_MAX_RAD, Coordinator, _apply_passive, _associate_bearings
from crnsim.sensing import (
    ReceiverParams,
    SensorNoise,
    max_detectable_range,
    passive_detect_batch,
    radar_measure_batch,
    receiver_noise_power,
    wrap_angle,
)
from scalar_reference import (
    ZeroRange,
    associate_bearings_by_angle,
    closest_returns,
    make_node,
    passive_detect,
    passive_snr,
    radar_measure,
    radar_measure_all_pairs,
)

ZERO_NOISE = SensorNoise(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
SIGMA_DOA = math.radians(2.0)


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
        4000.0,
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
        SensorNoise(),
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
        # by the constructor, before any world is spawned from it
        for bad in ({"noise_figure": 0.0}, {"bandwidth_hz": -1.0}):
            with pytest.raises(ValueError):
                ReceiverParams(**bad)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ReceiverParams)]
    )
    @pytest.mark.parametrize("value", [0.0, -0.3, float("nan")])
    def test_nonpositive_link_budget_value_rejected(self, field, value):
        # a zero loss divides by zero and a negative gain takes a square
        # root of a negative at the first spawn, and a negative wavelength
        # gives every class a negative passive range, so the run would
        # silently intercept nothing
        with pytest.raises(ValueError):
            ReceiverParams(**{field: value})

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ReceiverParams)]
    )
    def test_infinite_link_budget_value_rejected(self, field):
        # an infinite gain gives every class an infinite passive range, and
        # an infinite noise figure a range of 0, and either would run
        with pytest.raises(ValueError, match="finite"):
            ReceiverParams(**{field: math.inf})

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


class TestSensorNoise:
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SensorNoise)])
    @pytest.mark.parametrize("sigma", [-0.1, float("nan")])
    def test_invalid_sigma_rejected(self, field, sigma):
        # by the constructor, not by numpy inside a run's step loop
        with pytest.raises(ValueError):
            SensorNoise(**{field: sigma})

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SensorNoise)])
    def test_infinite_sigma_rejected(self, field):
        # an infinite range sigma ran to completion with a NaN RMSE
        with pytest.raises(ValueError, match="finite"):
            SensorNoise(**{field: math.inf})


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
        np.asarray(node_xy, dtype=float)[None],
        np.zeros(det_bearings.size, dtype=np.intp),
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


class TestCosineGate:
    """`engine._associate_bearings` tests |wrap(predicted - measured)| <= g
    in its cosine form; `associate_bearings_by_angle` tests the angle."""

    def test_matches_the_angle_gate_on_random_scenes(self):
        rng = np.random.default_rng(2024)
        detections = claimed = 0
        for _ in range(1200):
            node_xy = rng.uniform(0, 20_000, (int(rng.integers(1, 8)), 2))
            num_tracks = int(rng.integers(1, 12))
            track_xy = rng.uniform(-2_000, 22_000, (num_tracks, 2))
            spread = rng.normal(0, 300, (num_tracks, 2, 2))
            track_cov = spread @ spread.transpose(0, 2, 1)
            k = int(rng.integers(1, 40))
            det_nodes = np.sort(rng.integers(0, len(node_xy), k))
            # most detections aim at a track, so many fall near a gate edge
            aim = track_xy[rng.integers(0, num_tracks, k)] - node_xy[det_nodes]
            bearings = np.arctan2(aim[:, 1], aim[:, 0]) + rng.normal(0, 0.1, k)
            bearings = np.where(
                rng.random(k) < 0.2, rng.uniform(-np.pi, np.pi, k), bearings
            )
            bearings = np.arctan2(np.sin(bearings), np.cos(bearings))
            got = _associate_bearings(
                node_xy, det_nodes, bearings, track_xy, track_cov, SIGMA_DOA
            )
            want = associate_bearings_by_angle(
                node_xy[det_nodes], bearings, track_xy, track_cov, SIGMA_DOA
            )
            assert np.array_equal(got, want)
            detections += k
            claimed += int((want >= 0).sum())
        assert claimed > detections // 4

    def test_track_on_its_node_reads_bearing_zero(self):
        # at r = 0, arctan2(0, 0) = 0: the gate is centred on bearing 0
        gate = 3 * SIGMA_DOA
        probe = [0.0, gate - 1e-9, gate + 1e-9, -gate + 1e-9, math.pi / 2, math.pi]
        assert associate(probe, [[0.0, 0.0]]).tolist() == [0, 0, -1, 0, -1, -1]
        node_xy = np.array([[250.0, -40.0]])
        got = _associate_bearings(
            node_xy, np.zeros(len(probe), dtype=np.intp), np.array(probe),
            node_xy.copy(), np.zeros((1, 2, 2)), SIGMA_DOA,
        )
        want = associate_bearings_by_angle(
            np.repeat(node_xy, len(probe), axis=0), np.array(probe),
            node_xy.copy(), np.zeros((1, 2, 2)), SIGMA_DOA,
        )
        assert got.tolist() == want.tolist() == [0, 0, -1, 0, -1, -1]

    def test_track_near_its_node(self):
        # within a metre of the node the range is not clamped: the gate is
        # still centred on the track's bearing
        node_xy = np.array([[250.0, -40.0]])
        for offset in ([0.5, 0.0], [0.0, -0.3], [-0.2, 0.2]):
            track_xy = node_xy + offset
            centre = math.atan2(offset[1], offset[0])
            probe = centre + np.array([0.0, 0.05, -0.05, 0.2, math.pi])
            probe = np.arctan2(np.sin(probe), np.cos(probe))
            got = _associate_bearings(
                node_xy, np.zeros(probe.size, dtype=np.intp), probe, track_xy,
                np.zeros((1, 2, 2)), SIGMA_DOA,
            )
            want = associate_bearings_by_angle(
                np.repeat(node_xy, probe.size, axis=0), probe, track_xy,
                np.zeros((1, 2, 2)), SIGMA_DOA,
            )
            assert got.tolist() == want.tolist() == [0, 0, 0, -1, -1]


class TestAssociateDetection:
    """Claim rules of engine._associate_bearings and _apply_passive."""

    def test_no_tracks(self):
        # `_associate_bearings` needs at least one track; with no live row
        # `_apply_passive` returns before calling it
        coordinator = Coordinator(library=ClassLibrary(), dt_s=0.5)
        logged = _apply_passive(
            None, coordinator, np.array([0]), np.array([0]), np.array([0.3]), 1,
            SIGMA_DOA,
        )
        assert logged == 0

    def test_no_tracks_claims_nothing(self):
        # the table has rows, but no track has started in any of them
        coordinator = Coordinator(library=ClassLibrary(), dt_s=0.5, num_targets=2)
        logged = _apply_passive(
            None, coordinator, np.array([0, 1]), np.array([0, 1]),
            np.array([0.1, 0.2]), 1, SIGMA_DOA,
        )
        assert logged == 0
        assert not coordinator.signal.counts.any()

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
        nodes = [make_node(rng.uniform(0, 10_000, 3) * [1, 1, 0]) for _ in range(6)]
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
        # each seen target's return is the scalar measurement of its
        # closest active node in range (noise-free, so the measured range
        # is the distance), on a ring of nodes whose gates overlap
        rng, nodes, targets = self._setup()
        active = np.arange(6) % 2 == 0
        ni, ti, z = radar_measure_batch(
            np.array([n.position for n in nodes]),
            active,
            4000.0,
            np.array([t.position for t in targets]),
            np.array([t.velocity for t in targets]),
            np.array([t.heading_rate_radps for t in targets]),
            rng,
            ZERO_NOISE,
        )
        expected, in_range = {}, 0
        for j, t in enumerate(targets):
            seen = {}
            for i, node in enumerate(nodes):
                m = radar_measure(node, t, active[i], rng, ZERO_NOISE)
                if m is not None:
                    seen[i] = m
            in_range += len(seen)
            if seen:
                # the smallest range, then the lowest node id
                i = min(seen, key=lambda i: (seen[i][0], i))
                expected[(i, j)] = seen[i]
        assert in_range > len(expected) > 0
        assert ti.tolist() == sorted({j for _, j in expected})
        assert {(int(a), int(b)) for a, b in zip(ni, ti)} == set(expected)
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
                if passive_detect(node, t, cls, False, rng, ZERO_NOISE) is not None:
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
                np.array([10_000.0]), rng, SensorNoise(),
            )
            draws.append(b[0])
        assert np.std(draws) == pytest.approx(math.radians(2.0), rel=0.06)

    def test_only_nodes_in_the_mode_are_read(self):
        # a node outside the mode adds no pair and no noise draw: a mixed
        # mask gives what the table of the nodes in the mode alone gives
        rng, nodes, targets = self._setup(seed=5)
        node_pos = np.array([n.position for n in nodes])
        tgt_pos = np.array([t.position for t in targets])
        mask = np.array([True, False, False, True, False, True])
        kept = np.flatnonzero(mask)
        radar = dict(
            radar_range_m=6000.0, target_positions=tgt_pos,
            target_velocities=np.array([t.velocity for t in targets]),
            heading_rates=np.array([t.heading_rate_radps for t in targets]),
            noise=SensorNoise(),
        )
        got = radar_measure_batch(node_pos, mask, rng=np.random.default_rng(4), **radar)
        want = radar_measure_batch(
            node_pos[kept], np.ones(kept.size, bool), rng=np.random.default_rng(4), **radar
        )
        assert got[0].size > 0
        assert np.array_equal(got[0], kept[want[0]])
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        passive = dict(
            target_positions=tgt_pos, tx_on=np.ones(len(targets), bool),
            max_range_m=np.full(len(targets), 8000.0), noise=SensorNoise(),
        )
        got = passive_detect_batch(node_pos, ~mask, rng=np.random.default_rng(4), **passive)
        want = passive_detect_batch(
            node_pos[~mask], np.ones((~mask).sum(), bool),
            rng=np.random.default_rng(4), **passive,
        )
        assert got[0].size > 0
        assert np.array_equal(got[0], np.flatnonzero(~mask)[want[0]])
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    def test_empty_masks_produce_empty_results(self):
        rng = np.random.default_rng(0)
        ni, ti, z = radar_measure_batch(
            np.zeros((2, 3)), np.zeros(2, bool), 4000.0,
            np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), rng, SensorNoise(),
        )
        assert ni.size == 0 and z.shape == (0, 5)
        # no node listens: no intercept and no draw
        before = rng.bit_generator.state
        ni, ti, bearings = passive_detect_batch(
            np.zeros((3, 3)), np.zeros(3, bool), np.ones((2, 3)), np.ones(2, bool),
            np.full(2, 1e6), rng, SensorNoise(),
        )
        assert ni.size == ti.size == bearings.size == 0
        assert ni.dtype == ti.dtype == np.intp
        assert rng.bit_generator.state == before


def radar_inputs(nodes, active, targets, radar_range_m=4000.0, seed=0):
    """Keyword inputs of `radar_measure_batch` for (N, 3) node and (T, 3)
    target positions, with seeded velocities and heading rates."""
    g = np.random.default_rng(seed)
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    return dict(
        node_positions=np.asarray(nodes, dtype=float).reshape(-1, 3),
        active_mask=np.asarray(active, dtype=bool),
        radar_range_m=radar_range_m,
        target_positions=targets,
        target_velocities=g.normal(0.0, 30.0, targets.shape),
        heading_rates=g.normal(0.0, 0.2, len(targets)),
    )


def assert_equals_all_pairs_oracle(inputs, noise, seed):
    """`radar_measure_batch` gives what measuring every pair and then
    picking each target's closest return gives, bit for bit, and leaves
    the generator where that does."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = radar_measure_batch(**inputs, rng=got_rng, noise=noise)
    want = closest_returns(*radar_measure_all_pairs(**inputs, rng=want_rng, noise=noise))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got


class TestClosestReturn:
    """The radar delivers one return per seen target: the one of the
    active node with the smallest measured range, then the lowest node id."""

    def test_random_geometries_equal_the_oracle(self):
        picked = several = 0
        for seed in range(300):
            g = np.random.default_rng(seed)
            n, t = int(g.integers(0, 30)), int(g.integers(0, 50))
            inputs = radar_inputs(
                g.uniform(0.0, 20_000.0, (n, 3)) * [1.0, 1.0, 0.01],
                g.random(n) < g.random(),
                g.uniform(0.0, 20_000.0, (t, 3)) * [1.0, 1.0, 0.2],
                radar_range_m=float(g.uniform(1000.0, 8000.0)),
                seed=seed,
            )
            noise = SensorNoise() if seed % 3 else ZERO_NOISE
            ni, ti, _ = assert_equals_all_pairs_oracle(inputs, noise, seed)
            picked += ti.size
            # seen by more than one node: the pick had a choice
            rel = inputs["target_positions"][None, ti] - inputs["node_positions"][:, None]
            in_range = np.hypot(rel[..., 0], rel[..., 1]) <= inputs["radar_range_m"]
            several += int(((in_range & inputs["active_mask"][:, None]).sum(0) > 1).sum())
        assert several > picked // 4 > 0

    @pytest.mark.parametrize(
        "nodes, active, targets",
        [
            # no active node while targets exist
            ([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]], [False, False], [[500.0, 0.0, 100.0]]),
            # no node at all
            (np.zeros((0, 3)), np.zeros(0, bool), [[500.0, 0.0, 100.0]]),
            # no targets
            ([[0.0, 0.0, 0.0]], [True], np.zeros((0, 3))),
            # no target in range
            ([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]], [True, True], [[9000.0, 0.0, 100.0]]),
        ],
    )
    def test_nothing_seen_gives_empty_returns(self, nodes, active, targets):
        for noise in (SensorNoise(), ZERO_NOISE):
            ni, ti, z = assert_equals_all_pairs_oracle(
                radar_inputs(nodes, active, targets), noise, 5
            )
            assert ni.size == ti.size == 0 and z.shape == (0, 5)
            assert ni.dtype == ti.dtype == np.intp

    def test_the_smaller_measured_range_wins(self):
        # node 0 is 10 m farther, but its range noise (-25 m) takes its
        # measured range below node 1's (+25 m): the measured range decides
        nodes = [[-3010.0, 0.0, 0.0], [3000.0, 0.0, 0.0]]
        inputs = radar_inputs(nodes, [True, True], [[0.0, 0.0, 0.0]])
        draws = np.array([[-1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
        rng = SimpleNamespace(standard_normal=lambda shape: draws.copy())
        ni, ti, z = radar_measure_batch(**inputs, rng=rng, noise=SensorNoise())
        assert ni.tolist() == [0] and ti.tolist() == [0]
        assert z[0, 0] == 3010.0 - 25.0
        # with the draws swapped, the closer node's smaller range wins
        draws = draws[::-1]
        ni, _, z = radar_measure_batch(**inputs, rng=rng, noise=SensorNoise())
        assert ni.tolist() == [1] and z[0, 0] == 3000.0 - 25.0

    @pytest.mark.parametrize("mirror", [1.0, -1.0])
    def test_an_equal_range_goes_to_the_lower_node_id(self, mirror):
        # two mirror-image nodes, noise-free: the measured ranges tie
        # exactly, and node 0 wins on whichever side it stands
        nodes = [[mirror * 3000.0, 0.0, 0.0], [-mirror * 3000.0, 0.0, 0.0]]
        targets = [[0.0, 400.0, 500.0], [0.0, -1200.0, 80.0]]
        inputs = radar_inputs(nodes, [True, True], targets)
        rel = inputs["target_positions"][None] - inputs["node_positions"][:, None]
        dist = np.linalg.norm(rel, axis=2)
        assert (dist[0] == dist[1]).all()
        ni, ti, z = assert_equals_all_pairs_oracle(inputs, ZERO_NOISE, 2)
        assert ni.tolist() == [0, 0] and ti.tolist() == [0, 1]
        assert (z[:, 0] == dist[0]).all()


class TestWrapAngle:
    def test_wraps_into_interval(self):
        xs = np.array([0.0, math.pi, -math.pi, 3 * math.pi, -7.5, 12.0])
        w = wrap_angle(xs)
        assert np.all(w <= math.pi + 1e-12)
        assert np.all(w >= -math.pi - 1e-12)
        assert np.allclose(np.cos(w), np.cos(xs))
        assert np.allclose(np.sin(w), np.sin(xs))
