import math

import numpy as np
import pytest

from crnsim.dynamics import step_motion, step_signal
from crnsim.engine import SimConfig
from crnsim.markov import MarkovChain
from crnsim.scenario import (
    COORD_TURN,
    CRUISE_CV,
    HIGH_G,
    TX_ON,
    VERTICAL_NOISE_FRACTION,
    ScenarioConfig,
    TargetClass,
    chain_from_stationary,
    default_family,
    spawn_scenario,
)
from scalar_reference import Target, estimate_transitions, target_table

STAY_CV = np.eye(3)  # absorbing chains pin the motion state for kinematics tests


def make_class(
    motion_P=None,
    process_noise=(0.0, 0.0, 0.0),
    speed_range=(0.0, 1e9),
    turn_range=(0.5, 0.5),
    tx_P=None,
    signal_P=None,
    class_id=0,
):
    return TargetClass(
        class_id=class_id,
        name="test",
        motion_chain=MarkovChain(STAY_CV if motion_P is None else np.asarray(motion_P)),
        signal_chain=MarkovChain(
            np.full((4, 4), 0.25) if signal_P is None else np.asarray(signal_P)
        ),
        tx_chain=MarkovChain(
            np.array([[0.5, 0.5], [0.5, 0.5]]) if tx_P is None else np.asarray(tx_P)
        ),
        tx_power_w=1.0,
        process_noise=np.asarray(process_noise, dtype=float),
        speed_range_mps=speed_range,
        altitude_range_m=(0.0, 10_000.0),
        turn_rate_range_radps=turn_range,
    )


def make_target(cls, state=CRUISE_CV, v=(100.0, 0.0, 0.0), turn_rate=0.0):
    return Target(
        target_id=0,
        class_id=cls.class_id,
        position=np.zeros(3),
        velocity=np.asarray(v, dtype=float),
        motion_state=state,
        signal_state=0,
        tx_on=True,
        turn_rate_radps=turn_rate,
    )


def make_table(cls, **target):
    """A one-target table of class `cls`."""
    return target_table([make_target(cls, **target)], [cls])


class TestStepMotion:
    def test_noiseless_cv_advances_exactly(self):
        rng = np.random.default_rng(0)
        t = make_table(make_class())
        step_motion(t, 0.5, rng)
        assert t.position[0] == pytest.approx([50.0, 0.0, 0.0], abs=1e-12)
        assert t.velocity[0] == pytest.approx([100.0, 0.0, 0.0], abs=1e-12)
        assert t.heading_rate[0] == 0.0

    def test_quarter_turn_rotation(self):
        rng = np.random.default_rng(0)
        ct_stay = np.zeros((3, 3))
        ct_stay[:, COORD_TURN] = 1.0
        t = make_table(
            make_class(motion_P=ct_stay), state=COORD_TURN, turn_rate=math.pi / 2
        )
        step_motion(t, 1.0, rng)
        # rotation-matrix oracle: R(pi/2) @ [100, 0] = [0, 100]
        assert t.velocity[0] == pytest.approx([0.0, 100.0, 0.0], abs=1e-9)
        assert t.heading_rate[0] == pytest.approx(math.pi / 2, abs=1e-12)

    @staticmethod
    def _turn_rates_of_a_steady_turn(neighbour):
        """Rates of a target that keeps turning at 0.3 rad/s over 20 steps,
        and how many turns the other rows entered meanwhile."""
        rng = np.random.default_rng(3)
        ct_stay = np.zeros((3, 3))
        ct_stay[:, COORD_TURN] = 1.0
        cls = make_class(motion_P=ct_stay, turn_range=(0.1, 0.6))
        targets, classes = [make_target(cls, state=COORD_TURN, turn_rate=0.3)], [cls]
        if neighbour:
            # a second class whose target enters a turn every other step,
            # drawing a fresh rate each time from the same stream
            flip = np.array([[0, 1, 0], [1, 0, 0], [1, 0, 0]], dtype=float)
            other = make_class(motion_P=flip, turn_range=(0.1, 0.6), class_id=1)
            targets.append(make_target(other))
            classes.append(other)
        t = target_table(targets, classes)
        rates, entries = set(), 0
        for _ in range(20):
            before = t.motion_state.copy()
            step_motion(t, 0.5, rng)
            rates.add(t.turn_rate[0])
            entered = (t.motion_state == COORD_TURN) & (before != COORD_TURN)
            entries += int(entered.sum())
        return rates, entries

    def test_turn_rate_persists_while_turning(self):
        assert self._turn_rates_of_a_steady_turn(neighbour=False) == ({0.3}, 0)

    def test_turn_rate_persists_beside_a_target_entering_turns(self):
        assert self._turn_rates_of_a_steady_turn(neighbour=True) == ({0.3}, 10)

    def test_turn_rate_redrawn_on_reentry(self):
        rng = np.random.default_rng(4)
        # deterministic CV <-> CT flip-flop
        flip = np.array([[0, 1, 0], [1, 0, 0], [1, 0, 0]], dtype=float)
        t = make_table(make_class(motion_P=flip, turn_range=(0.1, 0.6)))
        rates = []
        for _ in range(40):
            step_motion(t, 0.5, rng)
            if t.motion_state[0] == COORD_TURN:
                rates.append(t.turn_rate[0])
        assert len(set(rates)) == len(rates)  # fresh draw each entry
        assert all(0.1 <= abs(r) <= 0.6 for r in rates)

    def test_occupancy_matches_stationary(self):
        rng = np.random.default_rng(0)
        uav = default_family().classes[0]
        t = make_table(uav, v=(20.0, 0.0, 0.0))
        counts = np.zeros(3)
        for _ in range(10_000):
            step_motion(t, 0.5, rng)
            counts[t.motion_state[0]] += 1
        freq = counts / counts.sum()
        assert freq == pytest.approx(
            uav.motion_chain.stationary, abs=0.02
        )

    def test_generated_path_recovers_transition_matrix(self):
        rng = np.random.default_rng(0)
        uav = default_family().classes[0]
        t = make_table(uav, v=(20.0, 0.0, 0.0))
        seq = [int(t.motion_state[0])]
        for _ in range(10_000):
            step_motion(t, 0.5, rng)
            seq.append(int(t.motion_state[0]))
        est = estimate_transitions(seq, 3)
        assert np.max(np.abs(est - uav.motion_chain.transition)) < 0.05

    def test_speed_clamped_to_class_range(self):
        rng = np.random.default_rng(5)
        cls = make_class(process_noise=(50.0, 50.0, 50.0), speed_range=(10.0, 30.0))
        t = make_table(cls, v=(20.0, 0.0, 0.0))
        for _ in range(200):
            step_motion(t, 0.5, rng)
            speed = np.linalg.norm(t.velocity[0])
            assert 10.0 - 1e-9 <= speed <= 30.0 + 1e-9

    def test_vertical_noise_is_scaled_down(self):
        rng = np.random.default_rng(6)
        cls = make_class(process_noise=(10.0, 10.0, 10.0), speed_range=(0.0, 1e9))
        dvz, dvx = [], []
        for _ in range(4000):
            t = make_table(cls, v=(100.0, 0.0, 0.0))
            step_motion(t, 0.5, rng)
            dvx.append(t.velocity[0, 0] - 100.0)
            dvz.append(t.velocity[0, 2])
        assert np.std(dvx) == pytest.approx(10.0 * 0.5, rel=0.06)
        assert np.std(dvz) == pytest.approx(
            10.0 * VERTICAL_NOISE_FRACTION * 0.5, rel=0.06
        )

    def test_tiny_dt_gives_tiny_displacement(self):
        rng = np.random.default_rng(7)
        t = make_table(make_class())
        step_motion(t, 1e-6, rng)
        assert np.linalg.norm(t.position[0]) == pytest.approx(1e-4, rel=1e-9)

    def test_rejects_nonpositive_dt(self):
        # step_motion trusts dt; the simulation config it comes from checks it
        for dt in (0.0, -0.5):
            with pytest.raises(ValueError):
                SimConfig(dt_s=dt)

    def test_high_g_uses_its_own_noise_level(self):
        rng = np.random.default_rng(9)
        stay_high = np.zeros((3, 3))
        stay_high[:, HIGH_G] = 1.0
        cls = make_class(motion_P=stay_high, process_noise=(0.0, 0.0, 20.0))
        deltas = []
        for _ in range(2000):
            t = make_table(cls, state=HIGH_G)
            step_motion(t, 0.5, rng)
            deltas.append(t.velocity[0, 1])
        assert np.std(deltas) == pytest.approx(20.0 * 0.5, rel=0.07)


class TestStepSignal:
    def test_absorbing_tx_stays_on(self):
        rng = np.random.default_rng(0)
        t = make_table(make_class(tx_P=np.eye(2)))
        for _ in range(50):
            step_signal(t, rng)
            assert t.tx_on[0]

    def test_duty_cycle_long_run(self):
        rng = np.random.default_rng(2)
        t = make_table(make_class(tx_P=[[0.95, 0.05], [0.20, 0.80]]))
        on = 0
        for _ in range(10_000):
            step_signal(t, rng)
            on += t.tx_on[0]
        # stationary On fraction = 0.20 / 0.25
        assert on / 10_000 == pytest.approx(0.8, abs=0.02)

    def test_signal_occupancy_matches_stationary(self):
        rng = np.random.default_rng(3)
        ga = default_family().classes[1]
        t = make_table(ga)
        counts = np.zeros(4)
        for _ in range(10_000):
            step_signal(t, rng)
            counts[t.signal_state[0]] += 1
        assert counts / counts.sum() == pytest.approx(
            ga.signal_chain.stationary, abs=0.02
        )

    def test_signal_sequence_recovers_transitions(self):
        # a moderately skewed chain: every state is visited often enough at
        # 10^4 steps for per-entry recovery (the family's 1-2% signal states
        # need far longer sequences to pin their rows down)
        rng = np.random.default_rng(4)
        chain = chain_from_stationary([0.4, 0.3, 0.2, 0.1], persistence=0.3)
        t = make_table(make_class(signal_P=chain.transition))
        seq = [int(t.signal_state[0])]
        for _ in range(10_000):
            step_signal(t, rng)
            seq.append(int(t.signal_state[0]))
        est = estimate_transitions(seq, 4)
        assert np.max(np.abs(est - chain.transition)) < 0.05


class TestMixedClassBatch:
    def test_each_target_keeps_its_own_class(self):
        # one default-family spawn stepped as one batch: every class's
        # occupancy, speeds and duty cycle must be its own, which a row
        # gathering another class's parameters would break
        family = default_family()
        rng = np.random.default_rng(11)
        _, t = spawn_scenario(ScenarioConfig(), rng)
        members = {c.class_id: t.class_id == c.class_id for c in family.classes}
        assert all(m.sum() >= 5 for m in members.values())
        steps = 3000
        motion = np.zeros((t.num_targets, 3))
        on = np.zeros(t.num_targets)
        for _ in range(steps):
            step_motion(t, 0.5, rng)
            step_signal(t, rng)
            motion[np.arange(t.num_targets), t.motion_state] += 1
            on += t.tx_on
            speed = np.linalg.norm(t.velocity, axis=1)
            for cls in family.classes:
                lo, hi = cls.speed_range_mps
                s = speed[members[cls.class_id]]
                assert np.all((s >= lo - 1e-9) & (s <= hi + 1e-9)), cls.name
        for cls in family.classes:
            m = members[cls.class_id]
            occupancy = motion[m].sum(axis=0) / (m.sum() * steps)
            assert occupancy == pytest.approx(
                cls.motion_chain.stationary, abs=0.03
            ), cls.name
            duty = on[m].sum() / (m.sum() * steps)
            assert duty == pytest.approx(
                cls.tx_chain.stationary[TX_ON], abs=0.04
            ), cls.name
