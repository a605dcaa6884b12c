"""Ground-truth target propagation.

Motion follows a per-class Markov chain over {CruiseCV, CoordinatedTurn,
HighGManeuver}. Cruise and high-G states integrate constant velocity with
white acceleration noise (small and large respectively); coordinated turns
rotate the horizontal velocity at a rate drawn on state entry. The signal
side evolves independently: transmit on/off and emitted signal type each
follow their own chains.

The realized heading rate over each step is recorded on the target; the
radar's angular-velocity channel observes it.
"""

from __future__ import annotations

import math

import numpy as np

from crnsim.markov import sample_next
from crnsim.scenario import COORD_TURN, TX_OFF, TX_ON, Target, TargetClass
from crnsim.sensing import wrap_angle

# vertical acceleration noise is this fraction of the horizontal value:
# aircraft maneuver mostly in the horizontal plane
VERTICAL_NOISE_FRACTION = 0.2


def _clamp_speed(velocity: np.ndarray, lo: float, hi: float) -> np.ndarray:
    speed = float(np.linalg.norm(velocity))
    if speed < 1e-12:
        return velocity
    if speed > hi:
        return velocity * (hi / speed)
    if speed < lo:
        return velocity * (lo / speed)
    return velocity


def step_motion(
    target: Target, cls: TargetClass, dt: float, rng: np.random.Generator
) -> Target:
    """Advance one target by dt: resample the motion state, then integrate
    the matching kinematics. Speed is clamped to the class range."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    prev_heading = math.atan2(target.velocity[1], target.velocity[0])
    prev_state = target.motion_state
    state = sample_next(cls.motion_chain, prev_state, rng)
    target.motion_state = state

    if state == COORD_TURN:
        if prev_state != COORD_TURN or target.turn_rate_radps == 0.0:
            lo, hi = cls.turn_rate_range_radps
            target.turn_rate_radps = float(rng.uniform(lo, hi)) * (
                1.0 if rng.random() < 0.5 else -1.0
            )
        ang = target.turn_rate_radps * dt
        c, s = math.cos(ang), math.sin(ang)
        vx, vy = target.velocity[0], target.velocity[1]
        target.velocity[0] = c * vx - s * vy
        target.velocity[1] = s * vx + c * vy
        target.position += target.velocity * dt
    else:
        sigma = float(cls.process_noise[state])
        accel = rng.normal(0.0, 1.0, 3) * (
            sigma * np.array([1.0, 1.0, VERTICAL_NOISE_FRACTION])
        )
        target.position += target.velocity * dt + 0.5 * accel * dt * dt
        target.velocity += accel * dt
        target.turn_rate_radps = 0.0

    target.velocity = _clamp_speed(target.velocity, *cls.speed_range_mps)
    heading = math.atan2(target.velocity[1], target.velocity[0])
    target.heading_rate_radps = float(wrap_angle(heading - prev_heading)) / dt
    return target


def step_signal(
    target: Target, cls: TargetClass, rng: np.random.Generator
) -> Target:
    """Resample transmit activity and emitted signal type, independently of
    motion."""
    tx_state = TX_ON if target.tx_on else TX_OFF
    target.tx_on = sample_next(cls.tx_chain, tx_state, rng) == TX_ON
    target.signal_state = sample_next(cls.signal_chain, target.signal_state, rng)
    return target
