"""Ground-truth target propagation, one batch per step.

The targets of a world are one `scenario.TargetTable`, a row per target,
and this module only steps it. Motion follows a per-class Markov chain over
{CruiseCV, CoordinatedTurn, HighGManeuver}. Cruise and high-G states
integrate constant velocity with white acceleration noise (small and large
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

import numpy as np

from crnsim.markov import sample_next
from crnsim.scenario import COORD_TURN, VERTICAL_NOISE_FRACTION, TargetTable
from crnsim.sensing import wrap_angle

NOISE_AXES = np.array([1.0, 1.0, VERTICAL_NOISE_FRACTION])


def step_motion(targets: TargetTable, dt: float, rng: np.random.Generator) -> None:
    """Advance every target in place by dt > 0: resample the motion states,
    then integrate the matching kinematics. Speeds are clamped to each
    class's range."""
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


def step_signal(targets: TargetTable, rng: np.random.Generator) -> None:
    """Resample every target's transmit activity, then its emitted signal
    type, in place and independently of motion."""
    targets.tx_state = sample_next(targets.tx_cdf, targets.tx_state, rng)
    targets.signal_state = sample_next(targets.signal_cdf, targets.signal_state, rng)
