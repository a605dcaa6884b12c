"""One-pair, one-track, one-node, one-vector references for the batched
sensing, filter, bandit and class-learning code, and helpers only tests use.

`radar_measure` and `passive_detect` evaluate a single node/target pair
with the gates and noise model of `sensing.radar_measure_batch` and
`sensing.passive_detect_batch`; `make_node` builds the node they read. The
tests use them as oracles for the batch functions, and to feed a filter one
measurement at a time. `radar_measure_all_pairs` is
`sensing.radar_measure_batch` as it was before it picked each target's
closest return: every in-range (active node, target) pair measured in
full, node-major; `closest_returns` is the lexsort pick that
`engine._fuse_radar` then made. Together they are the oracle for the
batch function, bit for bit, generator state included.
`associate_bearings_by_angle` is the passive bearing gate as it was before
`engine._associate_bearings` took its cosine form: one node position per
detection, and the angle between the predicted and the measured bearing
per (detection, track) pair, wrapped by `arctan2`; it is the oracle for
that gate.

A `Track` is one target's filter bank as a single record, the form a track
had before the engine kept only table rows. `start_one_track` and
`polar_to_cartesian_one` run `tracking.start_track` (repeating the one
model it starts to M) and `tracking.polar_to_cartesian` with a batch of
1, `imm_predict` and `kalman_update` advance and fuse one track through
`tracking.imm_predict_arrays` and `tracking.kalman_update_arrays`, so a
`Track` is the oracle the track table's rows are compared against.
`imm_predict` runs under a `FilterTuning`, one track's IMM parametrization
as a single record (mode chain and per-state process noise), the form a
tuning had before the engine gathered it from per-class arrays:
`untuned_tuning` (under `UNTUNED_MODE_TRANSITION`, the uniform chain of
the untuned bank as M models), `class_tuning` (a learned library class)
and `tuned_tuning` (a true class) build one, and `process_noise_one` is
the per-axis loop that builds one model's Q.
`Track` also carries the forward recursion over motion states
(`motion_belief`, `motion_state_posterior`, `infer_motion_state`, Rabiner
1989): each step's belief is the previous posterior pushed through the
tuning's mode chain, reweighted by angular-rate evidence. The engine reads
with a flat prior instead, because its readings must not depend on tuning;
the recursion stays here as the yardstick for how well motion states can
be read from a tuned chain. `record_reading` appends one (step, state)
reading to a history, dropping a second one in the same step.

`RecordedHistories` keeps, on the test side, the (step, state) reading
histories the coordinator does not hold, by spying on its reading tables
(`spy_on_readings`, which sees every `classlib.Readings.record` call);
`track_uncertainties` rebuilds every track's reward entropies from those
whole histories, one track at a time, and `vector_from_histories` (with
`_history_counts` and the scalar `occupancy_sample_size`) one track's
behavior vector, as oracles for the `classlib.Readings` count tables and
`classlib.vectors_from_counts`. `ucb_select`, `record_reward` and
`baseline_policy` play one node's two arms, held as (2,) counts and means
indexed by `bandit.ACTIVE` and `bandit.PASSIVE`, as oracles for the bandit
table.

A `Target` is one target's truth state as a single record, the form a
target had before `scenario.spawn_scenario` drew straight into a
`scenario.TargetTable`. `spawn_targets` is that spawn from scalar calls,
one per target and quantity, each state by `rng.choice(p=...)`, building
one `Target` per target: the oracle the table's columns and the
generator's final state are compared against. `target_table` builds a
table from `Target`s, and `target_row` hands one row of a table to the
one-target functions above as a `Target`.

`ParameterVector` is one target's behavior vector as a single validated
record (values, block layout, evidence), the form a pool entry had before
`classlib` kept the pool as (N, L) values and (N, blocks) evidence;
`stack_vectors` turns a list of them into that table, and `library_of` a
list of centroid vectors into a `classlib.ClassLibrary`. Its layout is a
tuple of `BlockSpec`s from `family_blocks(V, S)`, which builds the layout
for any state counts, the form it had before `classlib` fixed it as
constants for V = 3 motion states and S = 4 signal types; the per-block
oracles read it. Combining vectors of different layouts raises
`BlockMismatch`; `classlib` needs no such check, every vector there having
the one layout.

`run_experiment_in_turn` is `engine.run_experiment` as one loop over the
(run, policy) cells in this process, the form it had before the cells ran
in a process pool: the oracle the pooled result must equal bit for bit.

`closed_class_count` counts a chain's closed communicating classes from
scipy's strongly connected components, the way `markov` did before it
counted them from boolean reachability: the oracle for
`markov._closed_class_count`.

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
from scipy.sparse.csgraph import connected_components

from crnsim.bandit import (
    ACTIVE,
    MIN_OBSERVATIONS_FOR_ESTIMATE,
    PASSIVE,
    OutOfRangeReward,
    PolicyKind,
)
from crnsim.classlib import (
    TRANSITION_BLOCK_WEIGHT,
    ClassLibrary,
    Readings,
    _distance_matrix,
)
from crnsim.engine import (
    GATE_MAX_RAD,
    Coordinator,
    ExperimentResult,
    Pool,
    epoch_seed,
    run_epoch,
)
from crnsim.markov import (
    MarkovChain,
    inverse_cdf,
    normalized_entropy,
    sample_next,
    transition_matrix_from_counts,
)
from crnsim.scenario import (
    MOTION_STATES,
    SIGNAL_TYPES,
    TX_OFF,
    TX_ON,
    VERTICAL_NOISE_FRACTION,
    TargetClass,
    TargetTable,
    make_target_table,
    sample_ppp,
)
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


@dataclass
class Target:
    target_id: int
    class_id: int
    position: np.ndarray  # [x, y, z] m
    velocity: np.ndarray  # [vx, vy, vz] m/s
    motion_state: int
    signal_state: int
    tx_on: bool
    turn_rate_radps: float = 0.0  # current coordinated-turn rate
    heading_rate_radps: float = 0.0  # realized heading change over the last step


def target_table(
    targets: Sequence[Target],
    classes: Sequence[TargetClass],
    receiver: ReceiverParams = ReceiverParams(),
) -> TargetTable:
    """`scenario.make_target_table` of `targets`, in order, each row of the
    class in `classes` with its class id, turn and heading rates included.
    The targets' fields become the table's columns, arrays of the dtypes
    and shapes `make_target_table` takes."""
    index = {cls.class_id: i for i, cls in enumerate(classes)}
    table = make_target_table(
        tuple(classes),
        np.array([index[tg.class_id] for tg in targets], dtype=np.int64),
        np.array([tg.position for tg in targets], dtype=float).reshape(-1, 3),
        np.array([tg.velocity for tg in targets], dtype=float).reshape(-1, 3),
        np.array([tg.motion_state for tg in targets], dtype=np.int64),
        np.array([tg.signal_state for tg in targets], dtype=np.int64),
        np.array([TX_ON if tg.tx_on else TX_OFF for tg in targets], dtype=np.int64),
        receiver,
    )
    table.turn_rate[:] = [tg.turn_rate_radps for tg in targets]
    table.heading_rate[:] = [tg.heading_rate_radps for tg in targets]
    return table


def spawn_targets(config, rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """`scenario.spawn_scenario` as one `Target` per target, from scalar
    calls: one per target and quantity, taken quantity by quantity in the
    spawn's order (class, motion state, speed, heading, altitude, signal
    type, transmit state), each state by `rng.choice(p=...)` on its class's
    stationary distribution. Every turn rate is 0. Returns the (N, 3) node
    positions and the targets."""
    node_xy = sample_ppp(config.node_density_per_km2, config.region, rng)
    target_xy = sample_ppp(config.target_density_per_km2, config.region, rng)
    family = config.family
    classes = [family.classes[rng.integers(len(family.classes))] for _ in target_xy]

    def states(chain_of):
        return [
            int(rng.choice(pi.size, p=pi))
            for pi in (chain_of(cls).stationary for cls in classes)
        ]

    motion = states(lambda cls: cls.motion_chain)
    speeds = [rng.uniform(*cls.speed_range_mps) for cls in classes]
    headings = [rng.uniform(0.0, 2.0 * np.pi) for _ in classes]
    altitudes = [rng.uniform(*cls.altitude_range_m) for cls in classes]
    signal = states(lambda cls: cls.signal_chain)
    tx = states(lambda cls: cls.tx_chain)
    targets = [
        Target(
            target_id=j,
            class_id=cls.class_id,
            position=np.array([xy[0], xy[1], altitudes[j]]),
            velocity=speeds[j]
            * np.array([np.cos(headings[j]), np.sin(headings[j]), 0.0]),
            motion_state=motion[j],
            signal_state=signal[j],
            tx_on=tx[j] == TX_ON,
        )
        for j, (cls, xy) in enumerate(zip(classes, target_xy))
    ]
    return np.column_stack([node_xy, np.zeros(len(node_xy))]), targets


def target_row(targets, i: int = 0) -> Target:
    """A copy of row i of a `scenario.TargetTable` as a `Target`."""
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


def radar_measure_all_pairs(
    node_positions: np.ndarray,
    active_mask: np.ndarray,
    radar_range_m: float,
    target_positions: np.ndarray,
    target_velocities: np.ndarray,
    heading_rates: np.ndarray,
    rng: np.random.Generator,
    noise: SensorNoise,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every radar return of a step: (node_idx, target_idx, z), one row per
    active node and target within `radar_range_m` of it horizontally,
    node-major, z as `sensing.radar_measure_batch` gives it."""
    active = np.flatnonzero(active_mask)
    rel = target_positions[None, :, :] - node_positions[active, None, :]
    horiz = np.hypot(rel[..., 0], rel[..., 1])
    ni, ti = np.nonzero(horiz <= radar_range_m)
    r = rel[ni, ti]
    ni = active[ni]
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


def closest_returns(
    ni: np.ndarray, ti: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of each target's returns, the one with the smallest measured range
    and then the lowest node id; targets ascending."""
    pick = np.lexsort((ni, z[:, 0], ti))
    first = np.ones(pick.size, dtype=bool)
    first[1:] = ti[pick][1:] != ti[pick][:-1]
    keep = pick[first]
    return ni[keep], ti[keep], z[keep]


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


def associate_bearings_by_angle(
    det_node_xy: np.ndarray,
    det_bearings: np.ndarray,
    track_xy: np.ndarray,
    track_cov_xy: np.ndarray,
    sigma_doa_rad: float,
) -> np.ndarray:
    """Track index claiming each detection heard at (K, 2) node positions,
    -1 when no track or more than one gates it: a detection is inside a
    track's gate when the wrapped angle between the track's predicted
    bearing and the measured one is at most the gate."""
    rel = track_xy[None, :, :] - det_node_xy[:, None, :]  # (K, T, 2)
    r2 = np.maximum(rel[..., 0] ** 2 + rel[..., 1] ** 2, 1.0)
    pred = np.arctan2(rel[..., 1], rel[..., 0])
    resid = np.abs(wrap_angle(pred - det_bearings[:, None]))
    # cross-range variance: tangent^T P tangent with tangent = (-y, x)/r
    var_b = (
        rel[..., 1] ** 2 * track_cov_xy[None, :, 0, 0]
        - 2.0 * rel[..., 0] * rel[..., 1] * track_cov_xy[None, :, 0, 1]
        + rel[..., 0] ** 2 * track_cov_xy[None, :, 1, 1]
    ) / (r2 * r2)
    gate = np.minimum(3.0 * np.sqrt(sigma_doa_rad**2 + var_b), GATE_MAX_RAD)
    inside = resid <= gate  # (K, T)
    claims = inside.sum(axis=1)
    return np.where(claims == 1, inside.argmax(axis=1), -1)


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
    """One track started by `tracking.start_track` with a batch of 1, its
    one model repeated to M at probability 1/M: the M-model bank that any
    tuning, untuned or class-tuned, can predict."""
    states, covs, _ = start_track(
        pos1[None], R1[None], pos2[None], R2[None], np.array([dt])
    )
    return Track(
        np.repeat(states[0], NUM_MODELS, axis=0),
        np.repeat(covs[0], NUM_MODELS, axis=0),
        np.full(NUM_MODELS, 1.0 / NUM_MODELS),
    )


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


# the uniform mode chain of the untuned filter as an M-model bank; the
# engine runs that bank as one model, which needs no chain
UNTUNED_MODE_TRANSITION = np.full((NUM_MODELS, NUM_MODELS), 1.0 / NUM_MODELS)


def untuned_tuning() -> FilterTuning:
    """Class-agnostic filter: uniform mixing, one shared noise level (the
    geometric mean of the per-state defaults)."""
    shared = float(np.exp(np.mean(np.log(DEFAULT_STATE_ACCEL_STD))))
    return FilterTuning(
        mode_transition=MarkovChain(UNTUNED_MODE_TRANSITION),
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
    v, s = len(MOTION_STATES), len(SIGNAL_TYPES)
    P = library.centroids[row, v + s : v + s + v * v].reshape(v, v)
    return FilterTuning(
        mode_transition=MarkovChain(P / P.sum(axis=1, keepdims=True)),
        process_noise_per_state=DEFAULT_STATE_ACCEL_STD[:v].copy(),
    )


def process_noise_one(dt: float, accel_std: float) -> np.ndarray:
    """Discrete white-noise-acceleration Q (6, 6) of one acceleration std,
    one axis at a time; the vertical axis gets the scaled-down noise."""
    q = np.zeros((6, 6))
    var = np.array([1.0, 1.0, VERTICAL_NOISE_FRACTION**2]) * accel_std**2
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


def spy_on_readings(monkeypatch, seen) -> None:
    """Call `seen(coordinator, kind, rows, step, states)` before every
    `Readings.record` call on a coordinator's reading table, `kind` being
    "motion" or "signal" by the table the call is made on. Wraps
    `Coordinator.__post_init__` to learn each new coordinator's tables."""
    post_init, record = Coordinator.__post_init__, Readings.record
    owners = {}  # id of a table -> (its coordinator, its channel)

    def registering(c):
        post_init(c)
        for kind in ("motion", "signal"):
            owners[id(getattr(c, kind))] = (c, kind)

    def spy(table, rows, step, states):
        seen(*owners[id(table)], rows, step, states)
        record(table, rows, step, states)

    monkeypatch.setattr(Coordinator, "__post_init__", registering)
    monkeypatch.setattr(Readings, "record", spy)


class RecordedHistories:
    """Per-row (step, state) motion and signal histories of the current
    coordinator. `install(monkeypatch)` spies on its reading tables
    (`spy_on_readings`) so that every reading they are given is also
    appended through `record_reading` (one reading per step, a
    second one dropped) before the table counts it. `of(coordinator)`
    returns this recorder with `motion` and `signal`, one list per table
    row, starting them empty when a new coordinator appears."""

    def __init__(self):
        self.coordinator = None
        self.motion, self.signal = [], []

    def install(self, monkeypatch) -> "RecordedHistories":
        def seen(c, kind, rows, step, states):
            histories = getattr(self.of(c), kind)
            for row, state in zip(rows, states):
                record_reading(histories[row], int(step), int(state))

        spy_on_readings(monkeypatch, seen)
        return self

    def of(self, coordinator) -> "RecordedHistories":
        if coordinator is not self.coordinator:
            self.coordinator = coordinator
            self.motion = [[] for _ in range(coordinator.num_targets)]
            self.signal = [[] for _ in range(coordinator.num_targets)]
        return self


def track_uncertainties(coordinator, histories: RecordedHistories) -> dict:
    """Per-track (motion, signal) reward entropies, keyed by row, live rows
    ascending: the class centroid's once the row is classified, 1 for thin
    histories, else the smoothed entropies of its recorded histories."""
    recorded = histories.of(coordinator)
    etas = {}
    for row in np.flatnonzero(coordinator.live).tolist():
        motion, signal = recorded.motion[row], recorded.signal[row]
        class_row = int(coordinator.class_rows[row])
        if class_row >= 0:
            centroid = coordinator.library.centroids[class_row]
            V, S = len(MOTION_STATES), len(SIGNAL_TYPES)
            em = normalized_entropy(centroid[:V])
            es = normalized_entropy(centroid[V : V + S])
        elif len(motion) + len(signal) < MIN_OBSERVATIONS_FOR_ESTIMATE:
            em = es = 1.0
        else:
            em = smoothed_entropy(motion, len(MOTION_STATES))
            es = smoothed_entropy(signal, len(SIGNAL_TYPES))
        etas[row] = (float(em), float(es))
    return etas


_BLOCK_SUM_TOL = 1e-6


class BlockMismatch(ValueError):
    """Vectors with different block structures were combined."""


@dataclass(frozen=True)
class BlockSpec:
    """One distribution block inside a behavior vector."""

    name: str
    length: int
    weight: float = 1.0


def family_blocks(
    num_motion_states: int = len(MOTION_STATES),
    num_signal_states: int = len(SIGNAL_TYPES),
) -> tuple[BlockSpec, ...]:
    """Block layout of a behavior vector over the given state counts:
    occupancies, then motion and signal transition rows at half weight."""
    v, s = num_motion_states, num_signal_states
    blocks = [BlockSpec("pi_v", v), BlockSpec("pi_s", s)]
    blocks += [BlockSpec(f"P_v_row{i}", v, TRANSITION_BLOCK_WEIGHT) for i in range(v)]
    blocks += [BlockSpec(f"P_s_row{i}", s, TRANSITION_BLOCK_WEIGHT) for i in range(s)]
    return tuple(blocks)


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


def library_of(centroids, first_id=10, step=1) -> ClassLibrary:
    """A library of the given centroid vectors with ids first_id, first_id
    + step, ...; the empty library for no vectors."""
    if not centroids:
        return ClassLibrary()
    return ClassLibrary(
        ids=first_id + step * np.arange(len(centroids)),
        centroids=stack_vectors(centroids)[0],
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
    """Weighted sum of per-block JSD between two parameter vectors in the
    package's layout, by `classlib._distance_matrix`."""
    if a.blocks != b.blocks or a.blocks != family_blocks():
        raise BlockMismatch("parameter vectors have different block structures")
    return float(_distance_matrix(a.values[None], b.values[None])[0, 0])


def sample_next_one(chain: MarkovChain, state: int, rng) -> int:
    """One chain's successor of one state, by `markov.sample_next` with a
    batch of 1."""
    return int(sample_next(chain.row_cdf[None], np.array([state]), rng)[0])


def closed_class_count(P: np.ndarray) -> int:
    """Number of closed communicating classes of the chain's support graph,
    one strongly connected component at a time."""
    adj = (P > 0).astype(np.int8)
    n_comp, comp = connected_components(adj, directed=True, connection="strong")
    closed = 0
    for c in range(n_comp):
        members = comp == c
        # a class is closed when no positive mass leaves it
        if not np.any(adj[members][:, ~members]):
            closed += 1
    return closed


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
        path[t] = inverse_cdf(chain.row_cdf[path[t - 1]][None], u[t : t + 1])[0]
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


def run_experiment_in_turn(config, policies) -> ExperimentResult:
    """Every (run, policy) cell in turn, in (run, policy) order: a fresh
    library and pool per cell, carried through its epochs."""
    policies = tuple(policies)
    metrics: dict = {p.label: [] for p in policies}
    for run in range(config.num_runs):
        for spec in policies:
            library = ClassLibrary()
            pool = Pool.empty()
            per_epoch = []
            for epoch in range(config.num_epochs):
                em, library = run_epoch(
                    library, config, epoch_seed(config.seed, run, epoch),
                    policy=spec, pool=pool,
                )
                per_epoch.append(em)
            metrics[spec.label].append(per_epoch)
    return ExperimentResult(config=config, policies=policies, metrics=metrics)
