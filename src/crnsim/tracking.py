"""Track filtering: an interacting-multiple-model Kalman filter per target.

State is [x, y, z, vx, vy, vz]. The model bank holds one filter per motion
state; all share constant-velocity dynamics and differ in process noise
level (a linear coordinated-turn model would need the unknown turn rate,
so turning shows up as elevated process noise plus the angular-rate
evidence used for motion-state inference). A classified track mixes its
models by its class's mode-transition chain, each model at its state's
default noise level. An unclassified track runs the untuned filter: M
models at `UNTUNED_ACCEL_STD` under a uniform chain would start identical
and, sharing F and Q, stay identical under any mixing chain (Blom &
Bar-Shalom, IEEE TAC 1988), so that filter is one Kalman filter. A track
starts unclassified, as a one-model bank (M == 1), where mixing is the
identity and the model-probability reweighting is skipped; the engine
gives it M models, copies of that one, when it is classified.

Radar polar measurements are fused as converted Cartesian position (with
Jacobian-propagated covariance) plus a linearized radial-velocity row.
The angular-velocity channel never enters the filter: `omega_log_evidence`
scores each measured angular rate under every motion model, and the engine
reads a track's motion state from that evidence alone (a flat prior), so
the reading does not depend on how the track is tuned.

The filter math is array kernels over a batch of tracks (leading axis =
track, then model): starting tracks by two-point differencing, IMM
prediction, the Kalman update, and the IMM combination of a bank into one
state and covariance. Each matrix product is a batched `matmul` over the
(track, model) leading axes, and each probability-weighted sum over models
is one `matmul` over the flattened matrices; no product of three or more
operands goes through `einsum`, whose unoptimized path loops over every
index at once. The engine keeps its tracks as one table of such rows and
passes each step's rows to these kernels in at most two calls each, one
for the classified rows' full banks and one for the unclassified rows'
one-model banks; a track has no other form.
"""

from __future__ import annotations

import math

import numpy as np

from crnsim.scenario import MOTION_STATES, VERTICAL_NOISE_FRACTION

NUM_MODELS = len(MOTION_STATES)

# class-agnostic per-motion-state acceleration noise (m/s^2); a classified
# track's filter uses these per state
DEFAULT_STATE_ACCEL_STD = np.array([0.5, 5.0, 20.0])

# the unclassified filter: every model at the geometric mean of the per-state
# levels, so the bank is one constant-velocity Kalman filter
UNTUNED_ACCEL_STD = float(np.exp(np.mean(np.log(DEFAULT_STATE_ACCEL_STD))))

# angular-rate evidence densities (rad/s): heading rate near zero for
# cruise, bimodal for turns, broad for high-G
OMEGA_STD_CV = math.radians(2.0)
OMEGA_MEAN_CT = math.radians(15.0)
OMEGA_STD_CT = math.radians(12.0)
OMEGA_STD_HIGHG = math.radians(40.0)

MIN_MODEL_PROB = 1e-12


def cv_transition(dt: float) -> np.ndarray:
    """Constant-velocity transition for [x,y,z,vx,vy,vz]."""
    F = np.eye(6)
    F[0, 3] = F[1, 4] = F[2, 5] = dt
    return F


def process_noise_matrix(dt: float, accel_std) -> np.ndarray:
    """Discrete white-noise-acceleration Q of each acceleration std in
    `accel_std`, an array (...) or one float: (..., 6, 6). The vertical
    axis gets the scaled-down noise the truth dynamics use."""
    std = np.asarray(accel_std, dtype=float)
    var = np.array([1.0, 1.0, VERTICAL_NOISE_FRACTION**2]) * (std**2)[..., None]
    q = np.zeros(std.shape + (6, 6))
    ax = np.arange(3)
    q[..., ax, ax] = var * dt**4 / 4.0
    q[..., ax, ax + 3] = q[..., ax + 3, ax] = var * dt**3 / 2.0
    q[..., ax + 3, ax + 3] = var * dt**2
    return q


def imm_mix(
    states: np.ndarray, covs: np.ndarray, probs: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IMM mixing step over stacked tracks.

    states (B,M,6), covs (B,M,6,6), probs (B,M), trans (B,M,M)
    row-stochastic per track. Returns mixed states/covs and the predicted
    model probabilities.
    """
    B, M, n = states.shape
    c = (probs[:, None, :] @ trans)[:, 0]  # (B, M) predicted model probs
    c = np.maximum(c, MIN_MODEL_PROB)
    # w[b,i,j] = trans[b,i,j] * probs[b,i] / c[b,j]
    w = trans * probs[:, :, None] / c[:, None, :]
    wT = np.swapaxes(w, 1, 2)  # (B, j, i)
    mixed = wT @ states  # (B, M, 6)
    dx = states[:, None, :, :] - mixed[:, :, None, :]  # (B, j, i, 6)
    mixed_cov = (wT @ covs.reshape(B, M, n * n)).reshape(B, M, n, n) + (
        np.swapaxes(dx, 2, 3) @ (wT[..., None] * dx)
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

    F is (6,6) shared; trans is (B,M,M) per track (tracks may carry
    different tunings) and Q broadcasts against the (B,M,6,6) covariances.
    Returns (states, covs, probs) after prediction. A one-model bank
    (M == 1) is not mixed: mixing one model is the identity, so trans is
    not read and the probabilities come back as given.
    """
    if states.shape[1] == 1:
        mixed, mixed_cov, c = states, covs, probs
    else:
        mixed, mixed_cov, c = imm_mix(states, covs, probs, trans)
    pred = mixed @ F.T
    pred_cov = F @ mixed_cov @ F.T + Q
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
    B, M, n = states.shape
    dx = states - means[:, None, :]
    weighted = (probs[:, None, :] @ covs.reshape(B, M, n * n)).reshape(B, n, n)
    return weighted + np.swapaxes(dx, 1, 2) @ (probs[:, :, None] * dx)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + np.swapaxes(P, -1, -2))


def polar_to_cartesian(
    r: np.ndarray,
    az: np.ndarray,
    el: np.ndarray,
    node_positions: np.ndarray,
    sigmas: tuple[float, float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Convert K polar measurements to Cartesian positions with
    first-order-propagated covariance.

    Range, azimuth and elevation are float arrays (K,), each measured from
    its node's position in `node_positions` (K, 3); sigmas is the tuple
    (sigma_r, sigma_az, sigma_el). Returns (K, 3) positions and (K, 3, 3)
    covariances.
    """
    ca, sa = np.cos(az), np.sin(az)
    ce, se = np.cos(el), np.sin(el)
    offset = np.stack([r * ce * ca, r * ce * sa, r * se], axis=-1)
    pos = node_positions + offset
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
    var = np.asarray(sigmas, dtype=float) ** 2
    # J diag(var) J^T, by scaling J's columns; symmetrized so that a track
    # started from R has an exactly symmetric bank, as prediction and update
    # leave it
    R = _symmetrize((J * var) @ np.swapaxes(J, 1, 2))
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
    H (B,4,6). Returns updated (states, covs, probs). A one-model bank
    (M == 1) has nothing to reweight: no likelihood is computed and the
    probabilities come back as given.
    """
    B, M, n = states.shape
    d = z.shape[1]
    Ht = np.swapaxes(H, 1, 2)  # (B, 6, d)
    nu = z[:, None, :] - states @ Ht  # (B, M, d)
    PHt = covs @ Ht[:, None]  # (B, M, 6, d)
    S = H[:, None] @ PHt + R[:, None, :, :]
    S = _symmetrize(S)
    Sinv = np.linalg.inv(S)
    K = PHt @ Sinv  # (B, M, 6, d)
    states_new = states + (K @ nu[..., None])[..., 0]
    IKH = np.eye(n) - K @ H[:, None]
    covs_new = IKH @ covs @ np.swapaxes(IKH, 2, 3) + (
        K @ R[:, None] @ np.swapaxes(K, 2, 3)
    )
    covs_new = _symmetrize(covs_new)
    if M == 1:
        return states_new, covs_new, probs
    # model likelihoods -> probability reweighting (log space for safety)
    maha = (nu[..., None, :] @ Sinv @ nu[..., None])[..., 0, 0]
    _, logdet = np.linalg.slogdet(S)
    loglik = -0.5 * (maha + logdet + d * math.log(2.0 * math.pi))
    logw = np.log(np.maximum(probs, MIN_MODEL_PROB)) + loglik
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return states_new, covs_new, w / w.sum(axis=1, keepdims=True)


def start_track(
    pos1: np.ndarray,
    R1: np.ndarray,
    pos2: np.ndarray,
    R2: np.ndarray,
    dt: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-point differencing initialization of B tracks from their first
    two converted position measurements: positions (B,3), covariances
    (B,3,3), dt (B,) > 0 apart. Returns the B one-model banks of the
    untuned filter every new track runs: the differenced states (B,1,6),
    their covariances (B,1,6,6) and probabilities 1 (B,1)."""
    gap = dt[:, None, None]
    state = np.concatenate([pos2, (pos2 - pos1) / dt[:, None]], axis=1)
    P = np.zeros((dt.size, 6, 6))
    P[:, :3, :3] = R2
    P[:, :3, 3:] = P[:, 3:, :3] = R2 / gap
    P[:, 3:, 3:] = (R1 + R2) / gap**2
    return state[:, None], P[:, None], np.ones((dt.size, 1))


def omega_log_evidence(omega: np.ndarray) -> np.ndarray:
    """Log density of measured angular rates under each motion model.

    omega, a float array (K,) -> (K, NUM_MODELS). Cruise concentrates near
    zero, turns are bimodal around +/- the typical rate, high-G is broad.
    """
    w = omega[:, None]

    def log_n(x, mu, std):
        return -0.5 * ((x - mu) / std) ** 2 - math.log(std * math.sqrt(2 * math.pi))

    cv = log_n(w, 0.0, OMEGA_STD_CV)
    ct = np.logaddexp(
        log_n(w, OMEGA_MEAN_CT, OMEGA_STD_CT), log_n(w, -OMEGA_MEAN_CT, OMEGA_STD_CT)
    ) - math.log(2.0)
    hg = log_n(w, 0.0, OMEGA_STD_HIGHG)
    return np.concatenate([cv, ct, hg], axis=1)


def track_rmse(squared_errors: np.ndarray) -> float:
    """Root-mean-square 3D position error of one track from its (n,)
    squared errors, one per tracked step, n >= 1."""
    return float(np.sqrt(np.mean(squared_errors)))
