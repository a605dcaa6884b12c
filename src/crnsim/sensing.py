"""Sensing models for the radar network.

Two channels per node: an active radar with deterministic detection inside
a hard range gate, and a passive RF receiver whose reach follows the
one-way link budget

    SNR = P_t G_t G_r lambda^2 / ((4 pi R)^2 P_n L),   P_n = k T_0 F B.

Passive interception requires three things at once: the emitter within the
SNR-limited range, the emitter actually transmitting, and the node parked
in passive mode. Detections above that threshold are reliable, so the true
signal type is carried through and only the bearing is noisy.

The link-budget functions are scalar. Sensing itself is batched: the
*_batch functions gate every (node in the mode, target) pair of a step at
once, and they are the only sensing code the simulation runs. The radar
delivers one return per seen target, the closest active node's: it is the
only one the coordinator fuses, so only that pair is measured in full.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23
REFERENCE_TEMP_K = 290.0


@dataclass(frozen=True)
class ReceiverParams:
    """Passive receiver front end. Defaults: 10 dB-equivalent noise factor,
    1 MHz bandwidth, unity gain, 3 dB system loss, 1 GHz band."""

    noise_figure: float = 10.0
    bandwidth_hz: float = 1.0e6
    gain: float = 1.0
    system_loss: float = 2.0
    wavelength_m: float = 0.3

    def __post_init__(self):
        # written so that NaN fails each check
        if not all(0 < value < math.inf for value in astuple(self)):
            raise ValueError(
                "noise figure, bandwidth, gain, system loss and wavelength "
                "must be positive and finite"
            )


@dataclass(frozen=True)
class SensorNoise:
    """Per-channel measurement noise, one sigma."""

    sigma_range_m: float = 25.0
    sigma_azimuth_rad: float = math.radians(1.0)
    sigma_elevation_rad: float = math.radians(1.0)
    sigma_radial_velocity: float = 1.0
    sigma_angular_velocity_rad: float = math.radians(0.5)
    sigma_doa_rad: float = math.radians(2.0)

    def __post_init__(self):
        if not all(0 <= sigma < math.inf for sigma in astuple(self)):
            raise ValueError("noise sigmas must be nonnegative and finite")


def receiver_noise_power(rx: ReceiverParams) -> float:
    """Thermal noise power k T_0 F B in watts."""
    return BOLTZMANN_J_PER_K * REFERENCE_TEMP_K * rx.noise_figure * rx.bandwidth_hz


def max_detectable_range(tx_power_w: float, tx_gain: float, rx: ReceiverParams) -> float:
    """Range at which the link budget falls to an SNR of 0 dB, i.e. the
    passive detection radius for this emitter."""
    noise = receiver_noise_power(rx)
    return (rx.wavelength_m / (4.0 * math.pi)) * math.sqrt(
        tx_power_w * tx_gain * rx.gain / (noise * rx.system_loss)
    )


def wrap_angle(theta):
    """Wrap to (-pi, pi]; works on scalars and arrays."""
    return np.arctan2(np.sin(theta), np.cos(theta))


def radar_measure_batch(
    node_positions: np.ndarray,
    active_mask: np.ndarray,
    radar_range_m: float,
    target_positions: np.ndarray,
    target_velocities: np.ndarray,
    heading_rates: np.ndarray,
    rng: np.random.Generator,
    noise: SensorNoise,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radar return the coordinator fuses for each target seen this step.

    Every active node sees the targets within `radar_range_m` of it,
    horizontally. Of a target's returns, the one from the node with the
    smallest measured range (distance plus range noise) is kept, and on a
    tie the one from the lowest node id. Returns (node_idx, target_idx, z),
    one row per seen target, targets ascending, where z has columns
    [range, azimuth, elevation, radial velocity, angular rate], noise
    included.

    Every in-range pair draws its five noise values, node-major, as one
    (K, 5) standard-normal block, but only the kept pairs get their angles,
    radial velocity and angular rate. Pair geometry is built for the
    active nodes only.
    """
    active = np.flatnonzero(active_mask)
    # one (A, T) plane per axis of the node-to-target offsets, subtracted
    # from contiguous (3, .) copies: about half the time of strided views
    targets = np.ascontiguousarray(target_positions.T)
    nodes = np.ascontiguousarray(node_positions[active].T)
    rel = targets[:, None, :] - nodes[:, :, None]
    dx, dy, dz = rel
    seen = np.hypot(dx, dy) <= radar_range_m
    draws = rng.standard_normal((np.count_nonzero(seen), 5))
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)  # summed as np.linalg.norm sums
    # measured range of every (active node, target) pair, +inf out of range;
    # row 0 holds +inf only, so a target no node sees picks it, as every
    # target does when no node is active
    measured = np.full((active.size + 1, seen.shape[1]), np.inf)
    measured[1:][seen] = dist[seen] + draws[:, 0] * noise.sigma_range_m
    best = measured.argmin(axis=0)
    ti = np.flatnonzero(best)
    a = best[ti] - 1
    k = np.cumsum(seen)[a * seen.shape[1] + ti] - 1  # each kept pair's draw
    r, d = rel[:, a, ti].T, dist[a, ti]
    z = np.column_stack(
        [
            d,
            np.arctan2(r[:, 1], r[:, 0]),
            np.arcsin(np.clip(r[:, 2] / d, -1.0, 1.0)),
            np.einsum("ij,ij->i", target_velocities[ti], r) / d,
            heading_rates[ti],
        ]
    )
    sig = np.array(
        [
            noise.sigma_range_m,
            noise.sigma_azimuth_rad,
            noise.sigma_elevation_rad,
            noise.sigma_radial_velocity,
            noise.sigma_angular_velocity_rad,
        ]
    )
    z += draws[k] * sig
    z[:, 1] = wrap_angle(z[:, 1])
    return active[a], ti, z


def passive_detect_batch(
    node_positions: np.ndarray,
    passive_mask: np.ndarray,
    target_positions: np.ndarray,
    tx_on: np.ndarray,
    max_range_m: np.ndarray,
    rng: np.random.Generator,
    noise: SensorNoise,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All passive intercepts for this step.

    max_range_m holds each target's precomputed SNR-limited radius.
    Returns (node_idx, target_idx, noisy bearings), node-major. Pair
    geometry is built for the listening nodes only, and nothing when none
    listens.
    """
    listening = np.flatnonzero(passive_mask)
    # not needed for the result: the general path gives the same empty
    # arrays. It skips the pair geometry on every step no node listens in,
    # which is every step of a radar-only run.
    if listening.size == 0:
        return listening, listening.copy(), np.empty(0)
    rel = target_positions[None, :, :] - node_positions[listening, None, :]  # (P, M, 3)
    dist = np.linalg.norm(rel, axis=2)
    ni, ti = np.nonzero(tx_on[None, :] & (dist <= max_range_m[None, :]))
    r = rel[ni, ti]
    ni = listening[ni]
    bearing = np.arctan2(r[:, 1], r[:, 0]) + rng.normal(0.0, noise.sigma_doa_rad, ni.size)
    return ni, ti, wrap_angle(bearing)
