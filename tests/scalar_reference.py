"""One-pair, one-track, one-node, one-vector references for the batched
sensing, filter, bandit and class-learning code, and helpers only tests use.

`radar_measure` and `passive_detect` evaluate a single node/target pair
with the gates and noise model of `sensing.radar_measure_batch` and
`sensing.passive_detect_batch`; `make_node` builds the node they read. The
tests use them as oracles for the batch functions, and to feed a filter one
measurement at a time.

A `Track` is one target's filter bank as a single record, the form a track
had before the engine kept only table rows. `start_one_track` and
`polar_to_cartesian_one` run `tracking.start_track` and
`tracking.polar_to_cartesian` with a batch of 1, `imm_predict` and
`kalman_update` advance and fuse one track through
`tracking.imm_predict_arrays` and `tracking.kalman_update_arrays`, so a
`Track` is the oracle the track table's rows are compared against.
`imm_predict` runs under a `FilterTuning`, one track's IMM parametrization
as a single record (mode chain and per-state process noise), the form a
tuning had before the engine gathered it from per-class arrays:
`untuned_tuning`, `class_tuning` (a learned library class) and
`tuned_tuning` (a true class) build one, and `process_noise_one` is the
per-axis loop that builds one model's Q.
`Track` also carries the forward recursion over motion states
(`motion_belief`, `motion_state_posterior`, `infer_motion_state`, Rabiner
1989): each step's belief is the previous posterior pushed through the
tuning's mode chain, reweighted by angular-rate evidence. The engine reads
with a flat prior instead, because its readings must not depend on tuning;
the recursion stays here as the yardstick for how well motion states can
be read from a tuned chain. `record_reading` appends one (step, state)
reading to a history, dropping a second one in the same step.

`RecordedHistories` keeps, on the test side, the (step, state) reading
histories the coordinator does not hold, by wrapping its recorders;
`track_uncertainties` rebuilds every track's reward entropies from those
whole histories, one track at a time, and `vector_from_histories` (with
`_history_counts` and the scalar `occupancy_sample_size`) one track's
behavior vector, as oracles for the engine's count tables and
`classlib.vectors_from_counts`. `target_row` hands one row of a
`dynamics.TargetTable` to these one-target functions. `ucb_select`,
`record_reward` and `baseline_policy` play one node's two arms, held as
(2,) counts and means indexed by `bandit.ACTIVE` and `bandit.PASSIVE`, as
oracles for the bandit table.

`ParameterVector` is one target's behavior vector as a single validated
record (values, block layout, evidence), the form a pool entry had before
`classlib` kept the pool as (N, L) values and (N, blocks) evidence;
`stack_vectors` turns a list of them into that table.

The rest are helpers only tests call: `passive_snr`, the link budget at
one range (`sensing.max_detectable_range` is its inverse);
`distribution_distance` between two vectors and `make_parameter_vector`
from one target's estimates; `sample_path`, `estimate_transitions` and
`sample_next_one` for one chain's path and one chain's step.
None of this runs in the simulation.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from crnsim.bandit import (
    ACTIVE,
    MIN_OBSERVATIONS_FOR_ESTIMATE,
    PASSIVE,
    OutOfRangeReward,
    PolicyKind,
)
from crnsim.classlib import (
    BlockMismatch,
    BlockSpec,
    _distance_matrix,
    family_blocks,
)
from crnsim.engine import Coordinator
from crnsim.markov import (
    MarkovChain,
    inverse_cdf,
    normalized_entropy,
    sample_next,
    transition_matrix_from_counts,
)
from crnsim.scenario import MOTION_STATES, TX_ON, Target, TargetClass
from crnsim.sensing import (
    ReceiverParams,
    SensorNoise,
    receiver_noise_power,
    wrap_angle,
)
from crnsim.tracking import (
    DEFAULT_STATE_ACCEL_STD,
    MIN_MODEL_PROB,
    NUM_MODELS,
    VERTICAL_Q_FRACTION,
    combined_covariances,
    combined_states,
    cv_transition,
    imm_predict_arrays,
    kalman_update_arrays,
    measurement_rows,
    omega_log_evidence,
    polar_to_cartesian,
    start_track,
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


def make_node(pos, radar_range_m: float = 4000.0) -> SimpleNamespace:
    """One radar node: its position (3,) and horizontal radar range."""
    return SimpleNamespace(
        position=np.asarray(pos, dtype=float), radar_range_m=radar_range_m
    )


def radar_measure(
    node, target, active: bool, rng: np.random.Generator, noise=SensorNoise()
) -> Optional[np.ndarray]:
    """[range, azimuth, elevation, radial velocity, angular rate] of one
    target seen by one node's radar, noise included; None when the node is
    passive or the target lies outside its horizontal range gate. Noise is
    drawn channel by channel, in column order."""
    if not active:
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
    active: bool,
    rng: np.random.Generator,
    noise=SensorNoise(),
) -> Optional[tuple[float, float]]:
    """(noisy bearing, linear SNR) of one target's emission at one node;
    None unless the node is passive, the target transmits, and the link
    budget of the default receiver reaches 0 dB."""
    if active or not target.tx_on:
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


@dataclass(eq=False)
class Track:
    """One target's filter bank plus its motion history: (step, state)
    readings of motion state, at most one per step (see `record_reading`),
    and the motion-state belief of the forward recursion
    (`infer_motion_state`). Compares by identity."""

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


def start_one_track(pos1, R1, pos2, R2, dt: float) -> Track:
    """One track started by `tracking.start_track` with a batch of 1."""
    states, covs, probs = start_track(
        pos1[None], R1[None], pos2[None], R2[None], np.array([dt])
    )
    return Track(states[0], covs[0], probs[0])


def polar_to_cartesian_one(
    range_m: float, azimuth_rad: float, elevation_rad: float, node_position, sigmas
) -> tuple[np.ndarray, np.ndarray]:
    """One measurement through `tracking.polar_to_cartesian`: its (3,)
    position and (3, 3) covariance."""
    pos, R = polar_to_cartesian(
        np.array([range_m]),
        np.array([azimuth_rad]),
        np.array([elevation_rad]),
        np.asarray(node_position, dtype=float)[None],
        sigmas,
    )
    return pos[0], R[0]


def record_reading(history: list, step: int, state: int) -> bool:
    """Append a (step, state) reading to a track history; a second reading
    in a step that already has one is dropped. Returns whether it was
    appended."""
    if history and history[-1][0] == step:
        return False
    history.append((step, int(state)))
    return True


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


def untuned_tuning() -> FilterTuning:
    """Class-agnostic filter: uniform mixing, one shared noise level (the
    geometric mean of the per-state defaults)."""
    shared = float(np.exp(np.mean(np.log(DEFAULT_STATE_ACCEL_STD))))
    uniform = np.full((NUM_MODELS, NUM_MODELS), 1.0 / NUM_MODELS)
    return FilterTuning(
        mode_transition=MarkovChain(uniform),
        process_noise_per_state=np.full(NUM_MODELS, shared),
    )


def tuned_tuning(cls: TargetClass) -> FilterTuning:
    """Filter matched to a class: its true motion chain and noise levels."""
    return FilterTuning(
        mode_transition=cls.motion_chain,
        process_noise_per_state=np.asarray(cls.process_noise, dtype=float),
    )


def class_tuning(library, row: int) -> FilterTuning:
    """Filter of the learned class in library row `row`: its centroid's
    motion-transition rows (the V blocks after the occupancies),
    renormalized, mix the models; per-state default acceleration stands in
    for noise."""
    v, s = library.blocks[0].length, library.blocks[1].length
    P = library.centroids[row, v + s : v + s + v * v].reshape(v, v)
    return FilterTuning(
        mode_transition=MarkovChain(P / P.sum(axis=1, keepdims=True)),
        process_noise_per_state=DEFAULT_STATE_ACCEL_STD[:v].copy(),
    )


def process_noise_one(dt: float, accel_std: float) -> np.ndarray:
    """Discrete white-noise-acceleration Q (6, 6) of one acceleration std,
    one axis at a time; the vertical axis gets the scaled-down noise."""
    q = np.zeros((6, 6))
    var = np.array([1.0, 1.0, VERTICAL_Q_FRACTION**2]) * accel_std**2
    for ax in range(3):
        q[ax, ax] = var[ax] * dt**4 / 4.0
        q[ax, ax + 3] = q[ax + 3, ax] = var[ax] * dt**3 / 2.0
        q[ax + 3, ax + 3] = var[ax] * dt**2
    return q


def imm_predict(track: Track, tuning: FilterTuning, dt: float) -> Track:
    """Advance one track by dt under the tuning's model bank; the
    motion-state belief moves one step along the same mode chain."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    F = cv_transition(dt)
    Q = np.stack([process_noise_one(dt, s) for s in tuning.process_noise_per_state])
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
    """Most probable motion model this step, by the forward recursion.

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


def kalman_update(
    track: Track, row: np.ndarray, node, noise=SensorNoise()
) -> Track:
    """Fuse one radar row (converted position + radial velocity) into one
    track, with R built from `noise` as the engine builds it."""
    pos, R3 = polar_to_cartesian_one(
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


class RecordedHistories:
    """Per-row (step, state) motion and signal histories of the current
    coordinator. `install(monkeypatch)` wraps `Coordinator.record_motion`
    and `record_signal` so that every reading they are given is also
    appended through `record_reading` (one reading per step, a
    second one dropped) before the coordinator counts it. `of(coordinator)`
    returns this recorder with `motion` and `signal`, one list per table
    row, starting them empty when a new coordinator appears."""

    def __init__(self):
        self.coordinator = None
        self.motion, self.signal = [], []

    def install(self, monkeypatch) -> "RecordedHistories":
        for kind in ("motion", "signal"):
            record = getattr(Coordinator, f"record_{kind}")

            def wrapped(c, rows, step, states, kind=kind, record=record):
                histories = getattr(self.of(c), kind)
                for row, state in zip(np.asarray(rows), np.asarray(states)):
                    record_reading(histories[row], int(step), int(state))
                record(c, rows, step, states)

            monkeypatch.setattr(Coordinator, f"record_{kind}", wrapped)
        return self

    def of(self, coordinator) -> "RecordedHistories":
        if coordinator is not self.coordinator:
            self.coordinator = coordinator
            self.motion = [[] for _ in range(coordinator.num_targets)]
            self.signal = [[] for _ in range(coordinator.num_targets)]
        return self


def track_uncertainties(coordinator, histories: RecordedHistories) -> dict:
    """Per-track (motion, signal) reward entropies, keyed by row and in
    `coordinator.order`: the class centroid's once the row is classified
    under class knowledge, 1 for thin histories, else the smoothed
    entropies of its recorded histories."""
    recorded = histories.of(coordinator)
    etas = {}
    for row in coordinator.order.tolist():
        motion, signal = recorded.motion[row], recorded.signal[row]
        class_row = int(coordinator.class_rows[row])
        if coordinator.use_class_knowledge and class_row >= 0:
            centroid = coordinator.library.centroids[class_row]
            V = len(MOTION_STATES)
            em = normalized_entropy(centroid[:V])
            es = normalized_entropy(centroid[V : V + coordinator.num_signal_states])
        elif len(motion) + len(signal) < MIN_OBSERVATIONS_FOR_ESTIMATE:
            em = es = 1.0
        else:
            em = smoothed_entropy(motion, len(MOTION_STATES))
            es = smoothed_entropy(signal, coordinator.num_signal_states)
        etas[row] = (float(em), float(es))
    return etas


_BLOCK_SUM_TOL = 1e-6


def block_slices(blocks):
    """(spec, slice) of each block of a vector in the `blocks` layout."""
    offset = 0
    for b in blocks:
        yield b, slice(offset, offset + b.length)
        offset += b.length


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Concatenated distribution blocks describing one target's behavior.

    evidence holds one effective sample size per block, aligned with
    `blocks`: the discounted step count behind a stationary block (see
    `occupancy_sample_size`), the transitions out of the source state for a
    transition row. It scales the AIC likelihood, so unobserved rows carry
    no evidence.
    """

    values: np.ndarray
    blocks: tuple[BlockSpec, ...]
    evidence: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        total = sum(b.length for b in self.blocks)
        if vals.shape != (total,):
            raise BlockMismatch(
                f"expected {total} values for the block structure, got {vals.shape}"
            )
        evidence = np.asarray(self.evidence, dtype=float)
        if evidence.shape != (len(self.blocks),):
            raise BlockMismatch(
                f"expected {len(self.blocks)} evidence entries, got {evidence.shape}"
            )
        if np.any(vals < -1e-12):
            raise ValueError("distribution entries must be nonnegative")
        for b, sl in block_slices(self.blocks):
            if abs(vals[sl].sum() - 1.0) > _BLOCK_SUM_TOL:
                raise ValueError(f"block {b.name} does not sum to 1")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "evidence", evidence)


def stack_vectors(vectors) -> tuple[np.ndarray, np.ndarray]:
    """The (N, L) values and (N, blocks) evidence of a list of vectors, the
    pool table `classlib` works on."""
    return (
        np.stack([v.values for v in vectors]),
        np.stack([v.evidence for v in vectors]),
    )


def make_parameter_vector(
    pi_v: np.ndarray,
    P_v: np.ndarray,
    pi_s: np.ndarray,
    P_s: np.ndarray,
    evidence,
) -> ParameterVector:
    """Assemble the standard vector from one target's estimates and the
    evidence behind each block, in `family_blocks` order."""
    pi_v = np.asarray(pi_v, dtype=float)
    pi_s = np.asarray(pi_s, dtype=float)
    P_v = np.asarray(P_v, dtype=float)
    P_s = np.asarray(P_s, dtype=float)
    values = np.concatenate([pi_v, pi_s, P_v.ravel(), P_s.ravel()])
    return ParameterVector(
        values=values,
        blocks=family_blocks(pi_v.size, pi_s.size),
        evidence=evidence,
    )


def occupancy_sample_size(n_steps: float, occupancy, transition) -> float:
    """One estimate's effective sample size, n * (1 - rho) / (1 + rho) with
    rho the occupancy-weighted self-transition mass; 0 without steps."""
    if n_steps <= 0:
        return 0.0
    occupancy = np.asarray(occupancy, dtype=float)
    rho = float(np.sum(occupancy * np.diag(np.asarray(transition, dtype=float))))
    return float(n_steps) * (1.0 - rho) / (1.0 + rho)


def _history_counts(history, num_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy frequencies and transition counts of one (step, state)
    history. A transition is counted only between readings in adjacent
    steps, never across a gap."""
    steps, states = np.asarray(history, dtype=np.int64).reshape(-1, 2).T
    occupancy = np.bincount(states, minlength=num_states) / states.size
    adjacent = steps[1:] == steps[:-1] + 1
    pairs = states[:-1][adjacent] * num_states + states[1:][adjacent]
    counts = np.bincount(pairs, minlength=num_states * num_states)
    return occupancy, counts.reshape(num_states, num_states).astype(float)


def vector_from_histories(
    motion, signal, num_motion_states: int, num_signal_states: int
) -> ParameterVector:
    """One target's behavior vector from its (step, state) histories of
    motion states and signal types (each non-empty, at most one reading per
    step): occupancies, add-one transition matrices, and as evidence the
    discounted occupancy sample sizes and the per-row transition counts."""
    pi_v, mc = _history_counts(motion, num_motion_states)
    pi_s, sc = _history_counts(signal, num_signal_states)
    P_v = transition_matrix_from_counts(mc)
    P_s = transition_matrix_from_counts(sc)
    n_v = occupancy_sample_size(len(motion), pi_v, P_v)
    n_s = occupancy_sample_size(len(signal), pi_s, P_s)
    evidence = np.concatenate([[n_v, n_s], mc.sum(axis=1), sc.sum(axis=1)])
    return make_parameter_vector(pi_v, P_v, pi_s, P_s, evidence)


def distribution_distance(a: ParameterVector, b: ParameterVector) -> float:
    """Weighted sum of per-block JSD between two parameter vectors."""
    if a.blocks != b.blocks:
        raise BlockMismatch("parameter vectors have different block structures")
    return float(_distance_matrix(a.values[None], b.values[None], a.blocks)[0, 0])


def sample_next_one(chain: MarkovChain, state: int, rng) -> int:
    """One chain's successor of one state, by `markov.sample_next` with a
    batch of 1."""
    return int(sample_next(chain.row_cdf[None], np.array([state]), rng)[0])


class ZeroRange(ValueError):
    """Link budget evaluated at zero separation."""


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


def sample_path(
    chain: MarkovChain,
    length: int,
    init: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sample a state path of the given length (at least 1); init defaults
    to a stationary draw. Each step inverts its row's cached CDF at one of
    the uniforms a single `rng.random(length)` call returns, through the
    `inverse_cdf` that `markov.sample_next` uses."""
    if length < 1:
        raise ValueError(f"path length must be at least 1, got {length}")
    if rng is None:
        rng = np.random.default_rng()
    path = np.empty(length, dtype=np.int64)
    if init is None:
        init = int(rng.choice(chain.num_states, p=chain.stationary))
    path[0] = init
    u = rng.random(length)
    for t in range(1, length):
        path[t] = inverse_cdf(chain.row_cdf[path[t - 1]], u[t])
    return path


def estimate_transitions(states, num_states: int, smoothing: float = 1.0) -> np.ndarray:
    """Smoothed transition matrix of a path observed at every step: its
    transitions counted as `_history_counts` counts them, then
    `transition_matrix_from_counts`. Needs at least two states."""
    if len(states) < 2:
        raise ValueError("need at least two observations to count a transition")
    _, counts = _history_counts(list(enumerate(states)), num_states)
    return transition_matrix_from_counts(counts, smoothing)


def ucb_select(counts, means, t: int) -> bool:
    """Whether one node plays Active: unplayed arms first, Active before
    Passive, then the larger mean plus sqrt(log t / count), ties to Active."""
    if t < 1:
        raise ValueError("t starts at 1")
    if counts[ACTIVE] == 0:
        return True
    if counts[PASSIVE] == 0:
        return False
    score = means + np.sqrt(math.log(t) / counts)
    return bool(score[ACTIVE] >= score[PASSIVE])


def record_reward(counts, means, active: bool, value: float) -> None:
    """Update one node's played arm, running mean and count, in place."""
    if not 0.0 <= value <= 1.0:
        raise OutOfRangeReward(f"reward {value} outside [0, 1]")
    i = ACTIVE if active else PASSIVE
    counts[i] += 1
    means[i] += (value - means[i]) / counts[i]


def baseline_policy(kind: PolicyKind, p: float, rng: np.random.Generator) -> bool:
    """Whether one node plays Active under a baseline: always under
    radar-only, with probability p (one uniform draw) under random-p."""
    if kind is PolicyKind.RADAR_ONLY:
        return True
    if kind is PolicyKind.RANDOM:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        return bool(rng.random() < p)
    raise ValueError(f"not a baseline policy: {kind}")
