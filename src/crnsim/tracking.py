"""Track filtering: an interacting-multiple-model Kalman filter per target.

State is [x, y, z, vx, vy, vz]. The model bank holds one filter per motion
state; all share constant-velocity dynamics and differ in process noise
level (a linear coordinated-turn model would need the unknown turn rate,
so turning shows up as elevated process noise plus the angular-rate
evidence used for motion-state inference). Mixing follows the tuning's
mode-transition chain.

Radar polar measurements are fused as converted Cartesian position (with
Jacobian-propagated covariance) plus a linearized radial-velocity row.
The angular-velocity channel never enters the filter. It drives a separate
forward recursion over motion states: each track carries a belief that the
prediction pushes through the tuning's mode chain and each angular-rate
reading reweights, so evidence from earlier steps is kept. The filter's own
model probabilities are neither read nor changed by that reading.

All heavy math lives in array-batched functions over rows of tracks
(leading axis = track, then model), including the IMM combination of a
bank into one state and covariance. The engine keeps its tracks as one
table of such rows and passes the live rows to these functions once per
step. A `Track` is the single-target record -- filter bank, motion history,
motion-state belief -- that `start_track` hands out and the per-track
operations work on. The one per-track wrapper left is `imm_predict`, a
batch of 1 that also moves the motion-state belief along the mode chain; it
is the only code that does, and `infer_motion_state` relies on that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from crnsim.markov import MarkovChain
from crnsim.scenario import MOTION_STATES, TargetClass

NUM_MODELS = len(MOTION_STATES)

# class-agnostic per-motion-state acceleration noise (m/s^2); the untuned
# filter collapses these to their geometric mean, learned classes use them
# per state
DEFAULT_STATE_ACCEL_STD = np.array([0.5, 5.0, 20.0])

# vertical process noise fraction, mirroring the truth dynamics
VERTICAL_Q_FRACTION = 0.2

# angular-rate evidence densities (rad/s): heading rate near zero for
# cruise, bimodal for turns, broad for high-G
OMEGA_STD_CV = math.radians(2.0)
OMEGA_MEAN_CT = math.radians(15.0)
OMEGA_STD_CT = math.radians(12.0)
OMEGA_STD_HIGHG = math.radians(40.0)

MIN_MODEL_PROB = 1e-12


class LengthMismatch(ValueError):
    """History lengths disagree."""


@dataclass(frozen=True, eq=False)
class FilterTuning:
    """IMM parametrization: mode-transition chain + per-state noise.
    Compares by identity, as `MarkovChain` does."""

    mode_transition: MarkovChain
    process_noise_per_state: np.ndarray

    def __post_init__(self):
        noise = np.asarray(self.process_noise_per_state, dtype=float)
        if noise.size != self.mode_transition.num_states:
            raise ValueError("one process noise per motion state required")
        if np.any(noise < 0):
            raise ValueError("process noise must be nonnegative")
        object.__setattr__(self, "process_noise_per_state", noise)


def tuned_tuning(cls: TargetClass) -> FilterTuning:
    """Filter matched to a class: its true motion chain and noise levels."""
    return FilterTuning(
        mode_transition=cls.motion_chain,
        process_noise_per_state=np.asarray(cls.process_noise, dtype=float),
    )


def untuned_tuning(num_states: int = NUM_MODELS) -> FilterTuning:
    """Class-agnostic filter: uniform mixing, one shared noise level (the
    geometric mean of the per-state defaults)."""
    shared = float(np.exp(np.mean(np.log(DEFAULT_STATE_ACCEL_STD))))
    uniform = np.full((num_states, num_states), 1.0 / num_states)
    return FilterTuning(
        mode_transition=MarkovChain(uniform, labels=MOTION_STATES[:num_states]),
        process_noise_per_state=np.full(num_states, shared),
    )


@dataclass(eq=False)
class Track:
    """One target's filter bank plus its motion history: (step, state)
    readings of motion state, at most one per step (see `record_reading`).
    Compares by identity, as `FilterTuning` does."""

    model_states: np.ndarray  # (models, 6)
    model_covs: np.ndarray  # (models, 6, 6)
    model_probs: np.ndarray  # (models,)
    motion_history: list = field(default_factory=list)
    # motion-state belief from angular-rate readings, kept apart from
    # model_probs; None starts it uniform over the models
    motion_belief: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.motion_belief is None:
            m = len(self.model_probs)
            self.motion_belief = np.full(m, 1.0 / m)

    @property
    def state(self) -> np.ndarray:
        return combined_states(self.model_states[None], self.model_probs[None])[0]

    @property
    def covariance(self) -> np.ndarray:
        return combined_covariances(
            self.model_states[None],
            self.model_covs[None],
            self.model_probs[None],
            self.state[None],
        )[0]


def record_reading(history: list, step: int, state: int) -> bool:
    """Append a (step, state) reading to a track history; a second reading
    in a step that already has one is dropped. Returns whether it was
    appended."""
    if history and history[-1][0] == step:
        return False
    history.append((step, int(state)))
    return True


# --- batched array core ---


def cv_transition(dt: float) -> np.ndarray:
    """Constant-velocity transition for [x,y,z,vx,vy,vz]."""
    F = np.eye(6)
    F[0, 3] = F[1, 4] = F[2, 5] = dt
    return F


def process_noise_matrix(dt: float, accel_std: float) -> np.ndarray:
    """Discrete white-noise-acceleration Q; the vertical axis gets the
    scaled-down noise the truth dynamics use."""
    q = np.zeros((6, 6))
    var = np.array([1.0, 1.0, VERTICAL_Q_FRACTION**2]) * accel_std**2
    for ax in range(3):
        q[ax, ax] = var[ax] * dt**4 / 4.0
        q[ax, ax + 3] = q[ax + 3, ax] = var[ax] * dt**3 / 2.0
        q[ax + 3, ax + 3] = var[ax] * dt**2
    return q


def imm_mix(
    states: np.ndarray, covs: np.ndarray, probs: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IMM mixing step over stacked tracks.

    states (B,M,6), covs (B,M,6,6), probs (B,M), trans (B,M,M)
    row-stochastic per track. Returns mixed states/covs and the predicted
    model probabilities.
    """
    c = np.einsum("bi,bij->bj", probs, trans)  # (B, M) predicted model probs
    c = np.maximum(c, MIN_MODEL_PROB)
    # w[b,i,j] = trans[b,i,j] * probs[b,i] / c[b,j]
    w = trans * probs[:, :, None] / c[:, None, :]
    mixed = np.einsum("bij,bik->bjk", w, states)  # (B, M, 6)
    dx = states[:, :, None, :] - mixed[:, None, :, :]  # (B, i, j, 6)
    mixed_cov = np.einsum("bij,bikl->bjkl", w, covs) + np.einsum(
        "bij,bijk,bijl->bjkl", w, dx, dx
    )
    return mixed, mixed_cov, c


def imm_predict_arrays(
    states: np.ndarray,
    covs: np.ndarray,
    probs: np.ndarray,
    trans: np.ndarray,
    F: np.ndarray,
    Q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mix then linearly propagate every model of every track.

    F is (6,6) shared; trans is (B,M,M) and Q (B,M,6,6) per track (tracks
    may carry different tunings). Returns (states, covs, probs) after
    prediction.
    """
    mixed, mixed_cov, c = imm_mix(states, covs, probs, trans)
    pred = np.einsum("ij,bmj->bmi", F, mixed)
    pred_cov = np.einsum("ij,bmjk,lk->bmil", F, mixed_cov, F) + Q
    return pred, _symmetrize(pred_cov), c


def combined_states(states: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """IMM combined state of stacked banks: states (B,M,n), probs (B,M)
    -> (B,n), the probability-weighted mean of the model states."""
    return (probs[:, None, :] @ states)[:, 0]


def combined_covariances(
    states: np.ndarray, covs: np.ndarray, probs: np.ndarray, means: np.ndarray
) -> np.ndarray:
    """IMM combined covariance of stacked banks about their combined states
    `means` (B,n): the weighted model covariances (B,M,n,n) plus the spread
    of the model states (B,M,n) around the mean. Works on any leading block
    of the state, e.g. the horizontal (..., :2) slices."""
    dx = states - means[:, None, :]
    return np.einsum("bm,bmij->bij", probs, covs) + np.einsum(
        "bm,bmi,bmj->bij", probs, dx, dx
    )


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + np.swapaxes(P, -1, -2))


def polar_to_cartesian(
    range_m, azimuth_rad, elevation_rad, node_position, sigmas
) -> tuple[np.ndarray, np.ndarray]:
    """Convert polar measurements to Cartesian positions with
    first-order-propagated covariance.

    Accepts scalars or batched arrays (K,); node_position is (3,) or
    (K,3); sigmas = (sigma_r, sigma_az, sigma_el). Returns (K,3) positions
    and (K,3,3) covariances (squeezed when scalar input).
    """
    r = np.atleast_1d(np.asarray(range_m, dtype=float))
    az = np.atleast_1d(np.asarray(azimuth_rad, dtype=float))
    el = np.atleast_1d(np.asarray(elevation_rad, dtype=float))
    npos = np.atleast_2d(np.asarray(node_position, dtype=float))
    ca, sa = np.cos(az), np.sin(az)
    ce, se = np.cos(el), np.sin(el)
    offset = np.stack([r * ce * ca, r * ce * sa, r * se], axis=-1)
    pos = npos + offset
    # Jacobian wrt (r, az, el), shape (K, 3, 3)
    J = np.empty((r.size, 3, 3))
    J[:, 0, 0] = ce * ca
    J[:, 0, 1] = -r * ce * sa
    J[:, 0, 2] = -r * se * ca
    J[:, 1, 0] = ce * sa
    J[:, 1, 1] = r * ce * ca
    J[:, 1, 2] = -r * se * sa
    J[:, 2, 0] = se
    J[:, 2, 1] = 0.0
    J[:, 2, 2] = r * ce
    S = np.diag(np.asarray(sigmas, dtype=float) ** 2)
    R = np.einsum("kij,jl,kml->kim", J, S, J)
    if np.isscalar(range_m) or np.asarray(range_m).ndim == 0:
        return pos[0], R[0]
    return pos, R


def measurement_rows(
    states: np.ndarray, node_positions: np.ndarray
) -> np.ndarray:
    """H matrices (K,4,6) for a position + radial-velocity measurement,
    linearized at each track's current combined position estimate."""
    K = states.shape[0]
    H = np.zeros((K, 4, 6))
    H[:, 0, 0] = H[:, 1, 1] = H[:, 2, 2] = 1.0
    los = states[:, :3] - node_positions
    dist = np.linalg.norm(los, axis=1, keepdims=True)
    dist = np.maximum(dist, 1e-6)
    H[:, 3, 3:] = los / dist
    return H


def kalman_update_arrays(
    states: np.ndarray,
    covs: np.ndarray,
    probs: np.ndarray,
    z: np.ndarray,
    R: np.ndarray,
    H: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joseph-form Kalman update of every model of every stacked track,
    with the IMM model-probability reweighting.

    states (B,M,6), covs (B,M,6,6), probs (B,M), z (B,4), R (B,4,4),
    H (B,4,6). Returns updated (states, covs, probs).
    """
    B, M, n = states.shape
    d = z.shape[1]
    zhat = np.einsum("bij,bmj->bmi", H, states)
    nu = z[:, None, :] - zhat  # (B, M, d)
    PHt = np.einsum("bmij,bkj->bmik", covs, H)  # (B, M, 6, d)
    S = np.einsum("bki,bmij->bmkj", H, PHt) + R[:, None, :, :]
    S = _symmetrize(S)
    Sinv = np.linalg.inv(S)
    K = np.einsum("bmik,bmkj->bmij", PHt, Sinv)  # (B, M, 6, d)
    states_new = states + np.einsum("bmij,bmj->bmi", K, nu)
    IKH = np.eye(n)[None, None] - np.einsum("bmij,bjk->bmik", K, H)
    covs_new = np.einsum("bmij,bmjk,bmlk->bmil", IKH, covs, IKH) + np.einsum(
        "bmij,bjk,bmlk->bmil", K, R, K
    )
    covs_new = _symmetrize(covs_new)
    # model likelihoods -> probability reweighting (log space for safety)
    maha = np.einsum("bmi,bmij,bmj->bm", nu, Sinv, nu)
    _, logdet = np.linalg.slogdet(S)
    loglik = -0.5 * (maha + logdet + d * math.log(2.0 * math.pi))
    logw = np.log(np.maximum(probs, MIN_MODEL_PROB)) + loglik
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return states_new, covs_new, w / w.sum(axis=1, keepdims=True)


# --- per-track operations ---


def start_track(
    pos1: np.ndarray,
    R1: np.ndarray,
    pos2: np.ndarray,
    R2: np.ndarray,
    dt: float,
) -> Track:
    """Two-point differencing initialization from the first two converted
    position measurements (dt apart)."""
    if dt <= 0:
        raise ValueError("measurements must be time-separated")
    state = np.concatenate([pos2, (pos2 - pos1) / dt])
    P = np.zeros((6, 6))
    P[:3, :3] = R2
    P[:3, 3:] = P[3:, :3] = R2 / dt
    P[3:, 3:] = (R1 + R2) / dt**2
    return Track(
        model_states=np.tile(state, (NUM_MODELS, 1)),
        model_covs=np.tile(P, (NUM_MODELS, 1, 1)),
        model_probs=np.full(NUM_MODELS, 1.0 / NUM_MODELS),
    )


def imm_predict(track: Track, tuning: FilterTuning, dt: float) -> Track:
    """Advance one track by dt under the tuning's model bank; the
    motion-state belief moves one step along the same mode chain."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    F = cv_transition(dt)
    Q = np.stack(
        [process_noise_matrix(dt, s) for s in tuning.process_noise_per_state]
    )
    states, covs, probs = imm_predict_arrays(
        track.model_states[None],
        track.model_covs[None],
        track.model_probs[None],
        tuning.mode_transition.transition[None],
        F,
        Q[None],
    )
    track.model_states, track.model_covs, track.model_probs = (
        states[0],
        covs[0],
        probs[0],
    )
    track.motion_belief = track.motion_belief @ tuning.mode_transition.transition
    return track


def omega_log_evidence(omega: np.ndarray) -> np.ndarray:
    """Log density of measured angular rates under each motion model.

    omega (K,) -> (K, NUM_MODELS). Cruise concentrates near zero, turns are
    bimodal around +/- the typical rate, high-G is broad.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))[:, None]

    def log_n(x, mu, std):
        return -0.5 * ((x - mu) / std) ** 2 - math.log(std * math.sqrt(2 * math.pi))

    cv = log_n(w, 0.0, OMEGA_STD_CV)
    ct = np.logaddexp(
        log_n(w, OMEGA_MEAN_CT, OMEGA_STD_CT), log_n(w, -OMEGA_MEAN_CT, OMEGA_STD_CT)
    ) - math.log(2.0)
    hg = log_n(w, 0.0, OMEGA_STD_HIGHG)
    return np.concatenate([cv, ct, hg], axis=1)


def motion_state_posterior(
    track: Track, measured_omegas: Sequence[float] = ()
) -> np.ndarray:
    """Per-model posterior for this step: the track's motion-state belief
    (the previous reading's posterior pushed through the mode chain by the
    prediction) weighted by angular-rate evidence when the radar measured
    any. Pure: neither the belief nor the filter's model probabilities
    change."""
    log_post = np.log(np.maximum(track.motion_belief, MIN_MODEL_PROB))
    if len(measured_omegas) > 0:
        log_post = log_post + omega_log_evidence(np.asarray(measured_omegas)).sum(
            axis=0
        )
    log_post -= log_post.max()
    post = np.exp(log_post)
    return post / post.sum()


def infer_motion_state(
    track: Track, measured_omegas: Sequence[float] = (), step: Optional[int] = None
) -> int:
    """Most probable motion model this step.

    With any measured angular rate the posterior becomes the track's
    motion-state belief, which the next prediction carries forward; the
    filter's model probabilities are left untouched. When a step index is
    given the inferred state is recorded in the track's motion history.
    """
    post = motion_state_posterior(track, measured_omegas)
    if len(measured_omegas) > 0:
        track.motion_belief = post
    state = int(np.argmax(post))
    if step is not None:
        record_reading(track.motion_history, step, state)
    return state


def track_rmse(
    estimated_positions: Sequence[np.ndarray], truth_positions: Sequence[np.ndarray]
) -> float:
    """Root-mean-square 3D position error over aligned histories."""
    if len(estimated_positions) != len(truth_positions):
        raise LengthMismatch(
            f"{len(estimated_positions)} estimates vs {len(truth_positions)} truths"
        )
    if len(estimated_positions) == 0:
        raise LengthMismatch("empty histories")
    est = np.asarray(estimated_positions, dtype=float)
    tru = np.asarray(truth_positions, dtype=float)
    return float(np.sqrt(np.mean(np.sum((est - tru) ** 2, axis=1))))
