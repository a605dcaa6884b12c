"""Ground-truth target propagation, one batch per step.

The targets of a world are one table of arrays (`TargetTable`), a row per
target. Motion follows a per-class Markov chain over {CruiseCV,
CoordinatedTurn, HighGManeuver}. Cruise and high-G states integrate
constant velocity with white acceleration noise (small and large
respectively); coordinated turns rotate the horizontal velocity at a rate
drawn on state entry. The signal side evolves independently: transmit
on/off and emitted signal type each follow their own chains.

`step_motion` and `step_signal` advance every row at once. A step draws
from its generator in this order, each block in ascending row order:

1. one motion uniform per target (`sample_next`);
2. a turn magnitude and a sign uniform, (K, 2), for the K targets that
   enter a turn (a target with no turn rate yet counts as entering);
3. standard normals, (K, 3), for the K targets not turning;
4. one transmit uniform per target;
5. one signal-type uniform per target.

The first three come from `step_motion`, the last two from `step_signal`.
A target's draws depend on the other rows only through this order, so the
statistics of each row are those of its own class.

The realized heading rate over each step is recorded in the table; the
radar's angular-velocity channel observes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from crnsim.markov import sample_next
from crnsim.scenario import COORD_TURN, TX_OFF, TX_ON, Target, TargetClass
from crnsim.sensing import wrap_angle

# vertical acceleration noise is this fraction of the horizontal value:
# aircraft maneuver mostly in the horizontal plane
VERTICAL_NOISE_FRACTION = 0.2
NOISE_AXES = np.array([1.0, 1.0, VERTICAL_NOISE_FRACTION])


@dataclass(eq=False)
class TargetTable:
    """The targets of one world, a row per target in spawn order: its truth
    state, which the steps advance in place, and its class's parameters,
    gathered once by `make_target_table`."""

    class_id: np.ndarray  # (T,)
    position: np.ndarray  # (T, 3) m
    velocity: np.ndarray  # (T, 3) m/s
    turn_rate: np.ndarray  # (T,) current coordinated-turn rate, rad/s
    heading_rate: np.ndarray  # (T,) realized heading change over the last step
    motion_state: np.ndarray  # (T,)
    signal_state: np.ndarray  # (T,)
    tx_state: np.ndarray  # (T,) TX_ON or TX_OFF
    # the row CDFs (`MarkovChain.row_cdf`) of each row's class chains
    motion_cdf: np.ndarray  # (T, 3, 3)
    signal_cdf: np.ndarray  # (T, S, S)
    tx_cdf: np.ndarray  # (T, 2, 2)
    process_noise: np.ndarray  # (T, 3) acceleration std per motion state
    speed_range: np.ndarray  # (T, 2) m/s
    turn_rate_range: np.ndarray  # (T, 2) rad/s

    @property
    def num_targets(self) -> int:
        return self.class_id.size

    @property
    def tx_on(self) -> np.ndarray:
        return self.tx_state == TX_ON


def make_target_table(
    targets: Sequence[Target], classes: Sequence[TargetClass]
) -> TargetTable:
    """Table of `targets`, in order, each row parameterized by the class in
    `classes` with its class id."""
    index = {cls.class_id: i for i, cls in enumerate(classes)}
    rows = np.array([index[tg.class_id] for tg in targets], dtype=np.int64)

    def gather(per_class):
        return np.array([np.asarray(v, dtype=float) for v in per_class])[rows]

    def column(attr, dtype):
        return np.array([getattr(tg, attr) for tg in targets], dtype=dtype)

    return TargetTable(
        class_id=column("class_id", np.int64),
        position=column("position", float).reshape(-1, 3),
        velocity=column("velocity", float).reshape(-1, 3),
        turn_rate=column("turn_rate_radps", float),
        heading_rate=column("heading_rate_radps", float),
        motion_state=column("motion_state", np.int64),
        signal_state=column("signal_state", np.int64),
        tx_state=np.array([TX_ON if tg.tx_on else TX_OFF for tg in targets],
                          dtype=np.int64),
        motion_cdf=gather(c.motion_chain.row_cdf for c in classes),
        signal_cdf=gather(c.signal_chain.row_cdf for c in classes),
        tx_cdf=gather(c.tx_chain.row_cdf for c in classes),
        process_noise=gather(c.process_noise for c in classes),
        speed_range=gather(c.speed_range_mps for c in classes),
        turn_rate_range=gather(c.turn_rate_range_radps for c in classes),
    )


def step_motion(
    targets: TargetTable, dt: float, rng: np.random.Generator
) -> TargetTable:
    """Advance every target by dt: resample the motion states, then
    integrate the matching kinematics. Speeds are clamped to each class's
    range."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v = targets.velocity
    prev_heading = np.arctan2(v[:, 1], v[:, 0])
    prev_state = targets.motion_state
    state = sample_next(targets.motion_cdf, prev_state, rng)
    targets.motion_state = state
    turning = state == COORD_TURN

    enter = np.flatnonzero(
        turning & ((prev_state != COORD_TURN) | (targets.turn_rate == 0.0))
    )
    u = rng.random((enter.size, 2))
    lo, hi = targets.turn_rate_range[enter].T
    targets.turn_rate[enter] = (lo + (hi - lo) * u[:, 0]) * np.where(
        u[:, 1] < 0.5, 1.0, -1.0
    )
    targets.turn_rate[~turning] = 0.0

    # turning rows rotate their velocity and get no acceleration; the others
    # rotate by zero, which leaves their velocity exactly as it was
    free = np.flatnonzero(~turning)
    accel = np.zeros_like(v)
    sigma = targets.process_noise[free, state[free]]
    accel[free] = rng.standard_normal((free.size, 3)) * (
        sigma[:, None] * NOISE_AXES
    )
    ang = targets.turn_rate * dt
    c, s = np.cos(ang), np.sin(ang)
    vx, vy = v[:, 0].copy(), v[:, 1].copy()
    v[:, 0] = c * vx - s * vy
    v[:, 1] = s * vx + c * vy
    targets.position += v * dt + 0.5 * accel * dt * dt
    v += accel * dt

    speed = np.linalg.norm(v, axis=1)
    moving = speed >= 1e-12
    lo, hi = targets.speed_range.T
    scale = np.clip(speed, lo, hi) / np.where(moving, speed, 1.0)
    v *= np.where(moving, scale, 1.0)[:, None]
    heading = np.arctan2(v[:, 1], v[:, 0])
    targets.heading_rate = wrap_angle(heading - prev_heading) / dt
    return targets


def step_signal(targets: TargetTable, rng: np.random.Generator) -> TargetTable:
    """Resample every target's transmit activity, then its emitted signal
    type, independently of motion."""
    targets.tx_state = sample_next(targets.tx_cdf, targets.tx_state, rng)
    targets.signal_state = sample_next(targets.signal_cdf, targets.signal_state, rng)
    return targets
