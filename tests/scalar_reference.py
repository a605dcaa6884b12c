"""One-pair, one-track references for the batched sensing and filter code.

`radar_measure` and `passive_detect` evaluate a single node/target pair
with the gates and noise model of `sensing.radar_measure_batch` and
`sensing.passive_detect_batch`. The tests use them as oracles for the batch
functions, and to feed a filter one measurement at a time. `kalman_update`
fuses one radar row into one track through `tracking.kalman_update_arrays`
with a batch of 1. `track_uncertainties` rebuilds every track's reward
entropies from its row's whole histories, one track at a time, as an
oracle for the engine's table of reading counts. `target_row` hands one
row of a `dynamics.TargetTable` to these one-target functions. None of this
runs in the simulation.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from crnsim.bandit import MIN_OBSERVATIONS_FOR_ESTIMATE, NodeMode
from crnsim.classlib import block_values
from crnsim.markov import normalized_entropy
from crnsim.scenario import MOTION_STATES, TX_ON, Target
from crnsim.sensing import (
    ReceiverParams,
    SensorNoise,
    passive_snr,
    wrap_angle,
)
from crnsim.tracking import (
    Track,
    kalman_update_arrays,
    measurement_rows,
    polar_to_cartesian,
)


def target_row(targets, i: int = 0) -> Target:
    """A copy of row i of a `dynamics.TargetTable` as a `scenario.Target`."""
    return Target(
        target_id=i,
        class_id=int(targets.class_id[i]),
        position=targets.position[i].copy(),
        velocity=targets.velocity[i].copy(),
        motion_state=int(targets.motion_state[i]),
        signal_state=int(targets.signal_state[i]),
        tx_on=bool(targets.tx_state[i] == TX_ON),
        turn_rate_radps=float(targets.turn_rate[i]),
        heading_rate_radps=float(targets.heading_rate[i]),
    )


def radar_measure(
    node, target, mode: NodeMode, rng: np.random.Generator, noise=SensorNoise()
) -> Optional[np.ndarray]:
    """[range, azimuth, elevation, radial velocity, angular rate] of one
    target seen by one node's radar, noise included; None when the node is
    passive or the target lies outside its horizontal range gate. Noise is
    drawn channel by channel, in column order."""
    if mode is not NodeMode.ACTIVE:
        return None
    rel = target.position - node.position
    if math.hypot(rel[0], rel[1]) > node.radar_range_m:
        return None
    dist = float(np.linalg.norm(rel))
    az = math.atan2(rel[1], rel[0])
    el = math.asin(rel[2] / dist)
    vr = float(np.dot(target.velocity, rel)) / dist
    return np.array(
        [
            dist + rng.normal(0.0, noise.sigma_range_m),
            float(wrap_angle(az + rng.normal(0.0, noise.sigma_azimuth_rad))),
            el + rng.normal(0.0, noise.sigma_elevation_rad),
            vr + rng.normal(0.0, noise.sigma_radial_velocity),
            target.heading_rate_radps
            + rng.normal(0.0, noise.sigma_angular_velocity_rad),
        ]
    )


def passive_detect(
    node,
    target,
    target_class,
    mode: NodeMode,
    rng: np.random.Generator,
    noise=SensorNoise(),
) -> Optional[tuple[float, float]]:
    """(noisy bearing, linear SNR) of one target's emission at one node;
    None unless the node is passive, the target transmits, and the link
    budget of the default receiver reaches 0 dB."""
    if mode is not NodeMode.PASSIVE or not target.tx_on:
        return None
    rel = target.position - node.position
    snr = passive_snr(
        target_class.tx_power_w,
        target_class.tx_gain,
        ReceiverParams(),
        float(np.linalg.norm(rel)),
    )
    if snr < 1.0:
        return None
    bearing = math.atan2(rel[1], rel[0]) + rng.normal(0.0, noise.sigma_doa_rad)
    return float(wrap_angle(bearing)), snr


def kalman_update(
    track: Track, row: np.ndarray, node, noise=SensorNoise()
) -> Track:
    """Fuse one radar row (converted position + radial velocity) into one
    track, with R built from `noise` as the engine builds it."""
    pos, R3 = polar_to_cartesian(
        row[0],
        row[1],
        row[2],
        node.position,
        (noise.sigma_range_m, noise.sigma_azimuth_rad, noise.sigma_elevation_rad),
    )
    z = np.concatenate([pos, [row[3]]])
    R = np.zeros((4, 4))
    R[:3, :3] = R3
    R[3, 3] = max(noise.sigma_radial_velocity, 1e-6) ** 2
    H = measurement_rows(track.state[None], np.asarray(node.position)[None])
    states, covs, probs = kalman_update_arrays(
        track.model_states[None],
        track.model_covs[None],
        track.model_probs[None],
        z[None],
        R[None],
        H,
    )
    track.model_states, track.model_covs, track.model_probs = (
        states[0],
        covs[0],
        probs[0],
    )
    return track


def smoothed_entropy(history, num_states: int) -> float:
    """Normalized entropy of the add-one posterior mean over the states of
    a (step, state) history."""
    counts = np.bincount(
        np.asarray([s for _, s in history], dtype=np.int64), minlength=num_states
    )
    counts = counts + 1.0 / num_states
    return float(normalized_entropy(counts / counts.sum()))


def track_uncertainties(coordinator) -> dict:
    """Per-track (motion, signal) reward entropies, keyed by row and in
    `coordinator.order`: the class centroid's once the row is classified,
    1 for thin histories, else the smoothed entropies of its histories."""
    etas = {}
    for row in coordinator.order.tolist():
        motion = coordinator.motion_history[row]
        signal = coordinator.signal_history[row]
        class_id = int(coordinator.class_ids[row])
        cls = None
        if coordinator.use_class_knowledge and class_id >= 0:
            cls = coordinator.library.get(class_id)
        if cls is not None:
            em = normalized_entropy(block_values(cls.centroid, "pi_v"))
            es = normalized_entropy(block_values(cls.centroid, "pi_s"))
        elif len(motion) + len(signal) < MIN_OBSERVATIONS_FOR_ESTIMATE:
            em = es = 1.0
        else:
            em = smoothed_entropy(motion, len(MOTION_STATES))
            es = smoothed_entropy(signal, coordinator.num_signal_states)
        etas[row] = (float(em), float(es))
    return etas
