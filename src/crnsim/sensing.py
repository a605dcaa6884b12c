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
*_batch functions evaluate every node/target pair of a step at once, and
they are the only sensing code the simulation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23
REFERENCE_TEMP_K = 290.0


class ZeroRange(ValueError):
    """Link budget evaluated at zero separation."""


@dataclass(frozen=True)
class ReceiverParams:
    """Passive receiver front end. Defaults: 10 dB-equivalent noise factor,
    1 MHz bandwidth, unity gain, 3 dB system loss, 1 GHz band."""

    noise_figure: float = 10.0
    bandwidth_hz: float = 1.0e6
    gain: float = 1.0
    system_loss: float = 2.0
    wavelength_m: float = 0.3


@dataclass(frozen=True)
class SensorNoise:
    """Per-channel measurement noise, one sigma."""

    sigma_range_m: float = 25.0
    sigma_azimuth_rad: float = math.radians(1.0)
    sigma_elevation_rad: float = math.radians(1.0)
    sigma_radial_velocity: float = 1.0
    sigma_angular_velocity_rad: float = math.radians(0.5)
    sigma_doa_rad: float = math.radians(2.0)


def receiver_noise_power(rx: ReceiverParams) -> float:
    """Thermal noise power k T_0 F B in watts."""
    if rx.noise_figure <= 0 or rx.bandwidth_hz <= 0:
        raise ValueError("noise figure and bandwidth must be positive")
    return BOLTZMANN_J_PER_K * REFERENCE_TEMP_K * rx.noise_figure * rx.bandwidth_hz


def passive_snr(
    tx_power_w: float, tx_gain: float, rx: ReceiverParams, range_m: float
) -> float:
    """Linear one-way SNR at the given separation."""
    if range_m <= 0.0:
        raise ZeroRange(f"range must be positive, got {range_m}")
    if tx_power_w <= 0.0:
        raise ValueError("transmit power must be positive")
    noise = receiver_noise_power(rx)
    num = tx_power_w * tx_gain * rx.gain * rx.wavelength_m**2
    den = (4.0 * math.pi * range_m) ** 2 * noise * rx.system_loss
    return num / den


def max_detectable_range(
    tx_power_w: float, tx_gain: float, rx: ReceiverParams, threshold_snr: float = 1.0
) -> float:
    """Range at which the link budget crosses the SNR threshold (default
    0 dB), i.e. the passive detection radius for this emitter."""
    if threshold_snr <= 0.0:
        raise ValueError("threshold must be positive")
    noise = receiver_noise_power(rx)
    return (rx.wavelength_m / (4.0 * math.pi)) * math.sqrt(
        tx_power_w * tx_gain * rx.gain / (noise * rx.system_loss * threshold_snr)
    )


def wrap_angle(theta):
    """Wrap to (-pi, pi]; works on scalars and arrays."""
    return np.arctan2(np.sin(theta), np.cos(theta))


def radar_measure_batch(
    node_positions: np.ndarray,
    active_mask: np.ndarray,
    radar_range_m: np.ndarray,
    target_positions: np.ndarray,
    target_velocities: np.ndarray,
    heading_rates: np.ndarray,
    rng: np.random.Generator,
    noise: SensorNoise = SensorNoise(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All radar detections for this step.

    Returns (node_idx, target_idx, z) where z has columns [range, azimuth,
    elevation, radial velocity, angular rate], noise included, one row per
    detected pair.
    """
    rel = target_positions[None, :, :] - node_positions[:, None, :]  # (N, M, 3)
    horiz = np.hypot(rel[..., 0], rel[..., 1])
    hit = active_mask[:, None] & (horiz <= radar_range_m[:, None])
    ni, ti = np.nonzero(hit)
    if ni.size == 0:
        return ni, ti, np.empty((0, 5))
    r = rel[ni, ti]
    dist = np.linalg.norm(r, axis=1)
    az = np.arctan2(r[:, 1], r[:, 0])
    el = np.arcsin(np.clip(r[:, 2] / dist, -1.0, 1.0))
    vr = np.einsum("ij,ij->i", target_velocities[ti], r) / dist
    omega = heading_rates[ti]
    z = np.column_stack([dist, az, el, vr, omega])
    sig = np.array(
        [
            noise.sigma_range_m,
            noise.sigma_azimuth_rad,
            noise.sigma_elevation_rad,
            noise.sigma_radial_velocity,
            noise.sigma_angular_velocity_rad,
        ]
    )
    z += rng.normal(0.0, 1.0, z.shape) * sig
    z[:, 1] = wrap_angle(z[:, 1])
    return ni, ti, z


def passive_detect_batch(
    node_positions: np.ndarray,
    passive_mask: np.ndarray,
    target_positions: np.ndarray,
    tx_on: np.ndarray,
    max_range_m: np.ndarray,
    rng: np.random.Generator,
    noise: SensorNoise = SensorNoise(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All passive intercepts for this step.

    max_range_m holds each target's precomputed SNR-limited radius.
    Returns (node_idx, target_idx, noisy bearings).
    """
    rel = target_positions[None, :, :] - node_positions[:, None, :]
    dist = np.linalg.norm(rel, axis=2)
    hit = passive_mask[:, None] & tx_on[None, :] & (dist <= max_range_m[None, :])
    ni, ti = np.nonzero(hit)
    if ni.size == 0:
        return ni, ti, np.empty(0)
    r = rel[ni, ti]
    bearing = np.arctan2(r[:, 1], r[:, 0]) + rng.normal(0.0, noise.sigma_doa_rad, ni.size)
    return ni, ti, wrap_angle(bearing)
