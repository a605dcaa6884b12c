"""Epoch-based Monte Carlo driver for the radar network.

Each epoch spawns a fresh scenario and runs a fixed-step loop in which the
coordinator picks a mode per node, the world advances, both sensing
channels fire, tracks fuse whatever came back, and under the bandit each
node's played arm is rewarded by how much estimation uncertainty remains in
its footprint. At the epoch boundary, behavior vectors are harvested from
well-observed tracks into a cumulative pool, the class library re-clusters,
and the epoch is scored.

The coordinator keeps its tracks as one table with a row per target, the
target's index in the world (filter bank, combined estimate, class as a
library row, reading count tables and a held first sighting). A row is the
whole track: every layer of the step loop -- IMM prediction, track starts
and radar fusion with one return per target, motion and signal reading,
passive association, class assignment, rewards and the error tape --
runs once per step over the live rows. The count tables are `classlib`'s,
one `classlib.Readings` per channel, which builds behavior vectors from
them, a batch of rows at a time, for class assignment during the epoch
and for the harvest at its end.

The class-learning side is tables too. The cumulative pool (`Pool`) is one
table with a row per harvested track -- behavior vector, evidence and the
target's true class id -- which each epoch's harvest grows with one
concatenate per column, and the class library is one table with a row per
class (see `classlib.ClassLibrary`). A classified track stores its class's
library row, so the reward entropies of classified tracks and the
class-tuned filters are gathers from per-class arrays the library builds
once (`ClassLibrary.etas`, `ClassLibrary.mode_transitions`).

Randomness is split into four named streams (scenario/truth, sensor noise,
policy coin flips, clustering restarts) so that policies compared under
the same seed see byte-identical target trajectories: mode choices change
how many sensor-noise and policy draws happen, and only the world stream
feeds the truth. The world stream first spawns the scenario, then each step
advances the whole target table with one `step_motion` and one
`step_signal` call, whose draws come in the fixed order `dynamics`
documents; the sizes of those draws depend only on the truth.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from crnsim.bandit import (
    MIN_OBSERVATIONS_FOR_ESTIMATE,
    BanditState,
    PolicyKind,
    baseline_policy,
    compute_rewards,
    record_reward,
    ucb_select,
)
from crnsim.classlib import (
    BLOCK_LENGTHS,
    VECTOR_LENGTH,
    ClassLibrary,
    Readings,
    assign_class,
    score_classes,
    update_library,
    vectors_from_counts,
)
from crnsim.dynamics import step_motion, step_signal
from crnsim.scenario import (
    MOTION_STATES,
    SIGNAL_TYPES,
    ScenarioConfig,
    TargetTable,
    spawn_scenario,
)
from crnsim.sensing import (
    SensorNoise,
    passive_detect_batch,
    radar_measure_batch,
)
from crnsim.tracking import (
    DEFAULT_STATE_ACCEL_STD,
    NUM_MODELS,
    UNTUNED_ACCEL_STD,
    combined_covariances,
    combined_states,
    cv_transition,
    imm_predict_arrays,
    omega_log_evidence,
    kalman_update_arrays,
    measurement_rows,
    polar_to_cartesian,
    process_noise_matrix,
    start_track,
    track_rmse,
)

# harvest gate: a track contributes a behavior vector only with this much
# radar/passive readings behind it
MIN_RADAR_OBS = 10
MIN_PASSIVE_OBS = 3

DEFAULT_RANDOM_ACTIVE_P = 0.8

# a first sighting older than this many steps is replaced by the next look
# rather than differenced with it: over a long gap the target may have turned,
# and the difference would start the track with a wrong velocity and a small
# covariance. Two steps is the normal gap under the bandit, whose nodes all
# play Active at t=1 and Passive at t=2.
PENDING_MAX_AGE_STEPS = 2

# the held first sighting's step of a row that holds none: too old to be
# differenced at any step >= 0
NO_SIGHTING_STEP = -PENDING_MAX_AGE_STEPS - 1


class ConfigError(ValueError):
    """Simulation configuration is internally inconsistent."""


@dataclass(frozen=True)
class PolicySpec:
    """Mode-control policy: the UCB bandit or one of the two baselines."""

    kind: PolicyKind = PolicyKind.BANDIT
    active_probability: float = DEFAULT_RANDOM_ACTIVE_P  # RANDOM only

    def __post_init__(self):
        if not 0.0 <= self.active_probability <= 1.0:
            raise ConfigError("active probability must lie in [0, 1]")

    @property
    def label(self) -> str:
        if self.kind is PolicyKind.RANDOM:
            return f"random-{self.active_probability:g}"
        return self.kind.value


@dataclass(frozen=True)
class SimConfig:
    """One experiment: scenario statistics plus schedule and seeds."""

    scenario: ScenarioConfig = ScenarioConfig()
    num_epochs: int = 15
    epoch_duration_s: float = 25.0
    dt_s: float = 0.5
    num_runs: int = 30
    seed: int = 0
    noise: SensorNoise = SensorNoise()

    def __post_init__(self):
        counts = (self.num_epochs, self.num_runs, self.seed)
        if not all(isinstance(n, numbers.Integral) for n in counts):
            raise ConfigError("epoch count, run count and seed must be integers")
        if self.num_epochs < 1 or self.num_runs < 1:
            raise ConfigError("need at least one epoch and one run")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not (self.dt_s > 0 and 0 < self.epoch_duration_s < math.inf):
            raise ConfigError("dt and epoch duration must be positive and finite")
        steps = self.epoch_duration_s / self.dt_s
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ConfigError("epoch duration must be a whole number of steps")

    @property
    def steps_per_epoch(self) -> int:
        return int(round(self.epoch_duration_s / self.dt_s))


@dataclass(frozen=True)
class Streams:
    """The four independent RNG streams one epoch consumes."""

    world: np.random.Generator
    sense: np.random.Generator
    policy: np.random.Generator
    library: np.random.Generator


def make_streams(seed: np.random.SeedSequence) -> Streams:
    """Named streams from a SeedSequence.

    The children are the ones `spawn(4)` gives on a fresh sequence, built
    without spawning, so the caller's SeedSequence is left unchanged and
    the same object always yields the same streams."""
    kids = [
        np.random.default_rng(
            np.random.SeedSequence(
                seed.entropy,
                spawn_key=seed.spawn_key + (i,),
                pool_size=seed.pool_size,
            )
        )
        for i in range(4)
    ]
    return Streams(*kids)


@dataclass
class World:
    """Ground truth for one epoch: the targets, the (N, 3) node positions
    and the one radar range every node has.

    `targets` is the truth as one table, a row per target: class id,
    position and velocity (T, 3), turn and heading rates, motion, signal and
    transmit states, and each row's class parameters (chain CDFs, process
    noise, speed and turn-rate ranges, passive range). A target's row is
    also its row in the coordinator's track table and the id its sensor
    returns carry."""

    targets: TargetTable
    node_positions: np.ndarray  # (N, 3)
    radar_range_m: float

    @property
    def num_nodes(self) -> int:
        return len(self.node_positions)

    @property
    def num_targets(self) -> int:
        return self.targets.num_targets


def make_world(scenario: ScenarioConfig, rng: np.random.Generator) -> World:
    """One spawn of the scenario as a world. A draw with no nodes or no
    targets is used as drawn: every layer of the step loop runs on empty
    tables with its general code."""
    node_positions, targets = spawn_scenario(scenario, rng)
    return World(targets, node_positions, scenario.radar_range_km * 1000.0)


@dataclass
class Coordinator:
    """Central fusion state: the track table, the class library it
    classifies tracks by and the bandit table (one row per node). Under a
    baseline policy the library is empty, so no track is classified, and
    the bandit table is None.

    The table has one row per target of the epoch's world, in world order
    (a target has at most one track). A row is the whole track: the IMM
    bank -- model states (M, 6), covariances (M, 6, 6), probabilities (M,)
    -- the combined estimate, its class as a library row (`class_rows`, -1
    while unclassified), and its row of the motion-state and signal-type
    reading tables (`motion`, `signal`), which `classlib.Readings` owns:
    the counting, and the vectors and entropies built from it. Until
    its track starts, a row may hold one first sighting, waiting for a
    second look to difference it with: its step (`pending_step`,
    NO_SIGHTING_STEP when none), converted position
    (`pending_pos` (T, 3)) and covariance (`pending_cov` (T, 3, 3)). A row is
    live once its track starts, and every layer of a step visits the live
    rows in ascending order.

    The table stores the models a row runs. A track starts unclassified,
    and an unclassified row runs the untuned filter, one Kalman filter (see
    `_predict_tracks`): its model 0 at probability 1, with models 1..M-1
    zero at probability 0. A row is promoted once, at the step it is
    classified (`_attempt_assignments`): its model 0 is copied to all M
    models at probability 1/M, the bank its IMM starts from.

    `dt_s` is the step the filters predict over; the filter matrices built
    from it are per-epoch arrays, as the library's per-class ones are."""

    library: ClassLibrary
    dt_s: float
    num_targets: int = 0  # table rows
    bandits: Optional[BanditState] = None

    def __post_init__(self):
        T, M = self.num_targets, NUM_MODELS
        self.model_states = np.zeros((T, M, 6))
        self.model_covs = np.zeros((T, M, 6, 6))
        self.model_probs = np.zeros((T, M))
        self.estimates = np.zeros((T, 6))  # combined state of each row
        self.live = np.zeros(T, dtype=bool)
        self.class_rows = np.full(T, -1, dtype=np.int64)
        self.pending_step = np.full(T, NO_SIGHTING_STEP, dtype=np.int64)
        self.pending_pos = np.zeros((T, 3))
        self.pending_cov = np.zeros((T, 3, 3))
        self.motion = Readings.empty(T, len(MOTION_STATES))
        self.signal = Readings.empty(T, len(SIGNAL_TYPES))
        # the filter matrices: the constant-velocity transition (6, 6), the
        # process noise of each motion state's model (M, 6, 6) and the
        # untuned level's (6, 6)
        self.state_transition = cv_transition(self.dt_s)
        self.state_noise = process_noise_matrix(self.dt_s, DEFAULT_STATE_ACCEL_STD)
        self.untuned_noise = process_noise_matrix(self.dt_s, UNTUNED_ACCEL_STD)

    def start_tracks(self, rows: np.ndarray, states, covs, probs) -> None:
        """Start tracks in the free table rows `rows`, each its target's
        index in the world, from copies of the given banks (see
        `set_bank`)."""
        if self.live[rows].any():
            raise ValueError(f"rows {rows[self.live[rows]]} already hold a track")
        self.set_bank(rows, states, covs, probs)
        self.live[rows] = True

    def bank(self, rows: np.ndarray, models: int = NUM_MODELS):
        """The rows' first `models` models as banks: states (B, m, 6),
        covariances (B, m, 6, 6) and probabilities (B, m)."""
        return (
            self.model_states[rows, :models],
            self.model_covs[rows, :models],
            self.model_probs[rows, :models],
        )

    def set_bank(self, rows: np.ndarray, states, covs, probs) -> None:
        """Write banks of m models to the rows' first m models and
        recombine their estimates."""
        m = states.shape[1]
        self.model_states[rows, :m] = states
        self.model_covs[rows, :m] = covs
        self.model_probs[rows, :m] = probs
        self.estimates[rows] = combined_states(states, probs)

    def xy_covariances(self, rows: np.ndarray) -> np.ndarray:
        """(B, 2, 2) horizontal block of the rows' combined covariances."""
        return combined_covariances(
            self.model_states[rows, :, :2],
            self.model_covs[rows, :, :2, :2],
            self.model_probs[rows],
            self.estimates[rows, :2],
        )


def make_coordinator(
    library: ClassLibrary, world: World, policy: PolicySpec, dt_s: float
) -> Coordinator:
    """Fresh per-epoch coordinator whose filters step by `dt_s`. Bandit
    statistics start cold every epoch; only the class library carries over.
    A baseline's coordinator gets an empty library, so it classifies no
    track and the run's classes steer neither its filters nor its rewards;
    `run_epoch` still learns and scores them from its own `library`."""
    bandit = policy.kind is PolicyKind.BANDIT
    return Coordinator(
        library=library if bandit else ClassLibrary(),
        dt_s=dt_s,
        num_targets=world.num_targets,
        bandits=BanditState.cold(world.num_nodes) if bandit else None,
    )


def track_parameter_vector(
    coordinator: Coordinator, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Behavior vectors of the rows whose tracks have been observed enough
    to estimate all four blocks, from the rows' readings: those rows, in
    the given order, with their (B, L) values and (B, blocks) evidence (see
    `vectors_from_counts`)."""
    c = coordinator
    enough = (c.motion.counts[rows].sum(axis=1) >= MIN_RADAR_OBS) & (
        c.signal.counts[rows].sum(axis=1) >= MIN_PASSIVE_OBS
    )
    rows = rows[enough]
    values, evidence = vectors_from_counts(c.motion, c.signal, rows)
    return rows, values, evidence


def _select_modes(
    coordinator: Coordinator, policy: PolicySpec, num_nodes: int, t: int, rng
) -> np.ndarray:
    """The (N,) Active mask of this step."""
    if policy.kind is PolicyKind.BANDIT:
        return ucb_select(coordinator.bandits, t)
    return baseline_policy(policy.kind, policy.active_probability, num_nodes, rng)


def _predict_tracks(coordinator: Coordinator) -> None:
    """One IMM prediction over the live rows, one batch each for the
    classified and the unclassified rows. A classified row mixes its bank
    by its class's chain, each model at its motion state's default
    acceleration level. An unclassified row runs the untuned filter, M
    models at the untuned level that would stay identical under any mixing
    chain, as the one model it stores: a one-model bank, predicted with no
    chain."""
    c = coordinator
    rows = np.flatnonzero(c.live)
    classified = c.class_rows[rows] >= 0
    F = c.state_transition
    tuned, untuned = rows[classified], rows[~classified]
    if tuned.size:
        trans = c.library.mode_transitions[c.class_rows[tuned]]
        c.set_bank(
            tuned, *imm_predict_arrays(*c.bank(tuned), trans, F, c.state_noise)
        )
    if untuned.size:
        c.set_bank(
            untuned, *imm_predict_arrays(*c.bank(untuned, 1), None, F, c.untuned_noise)
        )


def _fuse_radar(
    world: World,
    coordinator: Coordinator,
    ni: np.ndarray,
    ti: np.ndarray,
    z: np.ndarray,
    t: int,
    noise: SensorNoise,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply this step's radar returns in three batches: an untracked row
    whose held first sighting is at most PENDING_MAX_AGE_STEPS old starts
    its track, unclassified and as one model, by two-point differencing of
    that sighting and the new look; any other untracked row holds the new
    look as its first sighting, replacing an older one; the tracked rows
    get one Kalman update of the models they store, in one batch for the
    classified rows' full banks and one for the unclassified rows'
    one-model banks (see `_predict_tracks`). Returns the rows of the tracks
    that got a reading, ascending, and the angular rate each one measured.

    One observer per target per step: `radar_measure_batch` delivers only
    the closest active node's return of each target (smallest measured
    range, then lowest node id), so cross-range velocity is left to the
    motion model. Needs at most one return per target, targets ascending,
    as that function returns them.

    Returns are associated to tracks by the truth target id they carry
    (`ti`), not by gating: the radar channel assumes perfect data
    association, so two targets at one position, seen by one node, still
    update their own tracks. Only the passive channel associates by
    measurement (see `_associate_bearings`)."""
    rows = ti  # a target's track is its table row
    npos = world.node_positions[ni]
    sigmas = (noise.sigma_range_m, noise.sigma_azimuth_rad, noise.sigma_elevation_rad)
    pos, R3 = polar_to_cartesian(z[:, 0], z[:, 1], z[:, 2], npos, sigmas)
    c = coordinator
    tracked = c.live[rows]
    held_step = c.pending_step[rows]
    starts = ~tracked & (t - held_step <= PENDING_MAX_AGE_STEPS)
    if starts.any():
        sr = rows[starts]
        banks = start_track(
            c.pending_pos[sr], c.pending_cov[sr], pos[starts], R3[starts],
            (t - held_step[starts]) * c.dt_s,
        )
        c.start_tracks(sr, *banks)
        c.pending_step[sr] = NO_SIGHTING_STEP
    hold = ~tracked & ~starts
    hr = rows[hold]
    c.pending_step[hr] = t
    c.pending_pos[hr] = pos[hold]
    c.pending_cov[hr] = R3[hold]
    upd = np.flatnonzero(tracked)
    if upd.size:
        ur = rows[upd]
        zb = np.column_stack([pos[upd], z[upd, 3]])
        Rb = np.zeros((upd.size, 4, 4))
        Rb[:, :3, :3] = R3[upd]
        Rb[:, 3, 3] = max(noise.sigma_radial_velocity, 1e-6) ** 2
        H = measurement_rows(c.estimates[ur], npos[upd])
        classified = c.class_rows[ur] >= 0
        for k, models in ((classified, NUM_MODELS), (~classified, 1)):
            if k.any():
                c.set_bank(
                    ur[k],
                    *kalman_update_arrays(*c.bank(ur[k], models), zb[k], Rb[k], H[k]),
                )
    read = c.live[rows]
    return rows[read], z[read, 4]


# widest bearing gate a track may claim through; beyond this a stale track
# still shadows its neighborhood (forcing ambiguity drops) without vetoing
# the whole horizon
GATE_MAX_RAD = np.radians(15.0)


def _associate_bearings(
    node_xy: np.ndarray,
    det_nodes: np.ndarray,
    det_bearings: np.ndarray,
    track_xy: np.ndarray,
    track_cov_xy: np.ndarray,
    sigma_doa_rad: float,
) -> np.ndarray:
    """Track index claiming each detection, -1 when no track gates or when
    more than one does.

    Each track's gate is 3 sigma of predicted-bearing error: DoA noise
    plus its own cross-range position uncertainty projected to an angle
    (the fixed-gate rule is the zero-covariance special case). A track
    coasting through a passive stretch drifts, so its gate widens with its
    covariance; its emissions then overlap the drifted gate and get
    dropped as ambiguous rather than logged against a neighbor. Bearings
    are azimuth only, so two targets over the same ground position gate
    each other from every receiver; those are dropped the same way.

    Takes the (nodes, 2) node table and each detection's node id (the
    engine passes them ascending, in `np.nonzero` order, but any order
    works), so that the bearing geometry and the gate are built once per
    (listening node, track). The gate test is then the cosine form, with
    no angle per (detection, track) pair: for a track at offset (dx, dy)
    and range r from the node, a measured bearing b and a gate g <= pi,

        |wrap(arctan2(dy, dx) - b)| <= g  <=>  dx cos b + dy sin b >= r cos g.

    A track exactly on its node (r = 0) reads as bearing 0, as
    arctan2(0, 0) does. Needs at least one track, in ascending row order
    so results are deterministic."""
    listening = np.flatnonzero(np.bincount(det_nodes))
    listener = np.searchsorted(listening, det_nodes)  # (K,) rows of listening
    nodes = node_xy[listening]
    dx = track_xy[:, 0] - nodes[:, 0, None]  # (U, T)
    dy = track_xy[:, 1] - nodes[:, 1, None]
    dx2, dy2 = dx**2, dy**2
    r2 = dx2 + dy2
    # cross-range variance: tangent^T P tangent with tangent = (-y, x)/r
    clamped = np.maximum(r2, 1.0)
    var_b = (
        dy2 * track_cov_xy[:, 0, 0]
        - 2.0 * dx * dy * track_cov_xy[:, 0, 1]
        + dx2 * track_cov_xy[:, 1, 1]
    ) / (clamped * clamped)
    gate = np.minimum(3.0 * np.sqrt(sigma_doa_rad**2 + var_b), GATE_MAX_RAD)
    on_node = r2 == 0.0
    if on_node.any():
        dx[on_node] = 1.0
        r2[on_node] = 1.0
    threshold = np.sqrt(r2) * np.cos(gate)
    inside = (
        dx[listener] * np.cos(det_bearings)[:, None]
        + dy[listener] * np.sin(det_bearings)[:, None]
        >= threshold[listener]
    )  # (K, T)
    claims = inside.sum(axis=1)
    return np.where(claims == 1, inside.argmax(axis=1), -1)


def _apply_passive(
    world: World,
    coordinator: Coordinator,
    ni: np.ndarray,
    ti: np.ndarray,
    bearings: np.ndarray,
    t: int,
    sigma_doa_rad: float,
) -> int:
    """Associate this step's intercepts to tracks by bearing and record
    corroborated signal observations. Returns how many tracks logged one."""
    # `_associate_bearings` needs a track, and a step without intercepts
    # logs nothing: skip the covariances and the gate
    if ni.size == 0 or not coordinator.live.any():
        return 0
    rows = np.flatnonzero(coordinator.live)  # ascending row
    hit = _associate_bearings(
        world.node_positions[:, :2],
        ni,
        bearings,
        coordinator.estimates[rows, :2],
        coordinator.xy_covariances(rows),
        sigma_doa_rad,
    )
    types = world.targets.signal_state[ti]
    S = len(SIGNAL_TYPES)
    claimed = hit >= 0
    counts = np.bincount(
        hit[claimed] * S + types[claimed], minlength=rows.size * S
    ).reshape(rows.size, S)
    top = counts.argmax(axis=1)
    peak = counts.max(axis=1)
    # Every passive receiver hears every in-range emitter, so at this
    # target density a silent target's track regularly gates someone
    # else's emission. Detections gating more than one track are already
    # dropped (see _associate_bearings); a claim that survives that filter
    # is near-certainly from the gated track's own target, so one receiver
    # suffices -- demanding more starves signal readings whenever few
    # nodes listen. Conflicting same-step claims (tied modal type) are
    # still skipped.
    logs = (peak > 0) & ((counts == peak[:, None]).sum(axis=1) == 1)
    coordinator.signal.record(rows[logs], t, top[logs])
    return int(logs.sum())


def _attempt_assignments(coordinator: Coordinator) -> None:
    """Classify, in one batch, every unclassified live row observed enough
    to have a behavior vector. A row no class accepts stays at -1 and is
    tried again next step, with the readings it gains meanwhile. A row a
    class accepts is promoted from the one model it ran to M copies of it
    at probability 1/M; its estimate, that model's state, is kept."""
    c = coordinator
    unclassified = np.flatnonzero(c.live & (c.class_rows < 0))
    rows, values, _ = track_parameter_vector(c, unclassified)
    if rows.size:
        c.class_rows[rows] = assign_class(c.library, values)
        promoted = rows[c.class_rows[rows] >= 0]
        c.model_states[promoted] = c.model_states[promoted, :1]
        c.model_covs[promoted] = c.model_covs[promoted, :1]
        c.model_probs[promoted] = 1.0 / NUM_MODELS


def _track_uncertainties(coordinator: Coordinator) -> np.ndarray:
    """(motion, signal) normalized entropies of the live tracks in row
    order, (B, 2), under the coordinator's best current knowledge. Class
    centroids stand in once a track is classified (`ClassLibrary.etas`);
    thin records (< 3 readings) count as fully uncertain, eta = 1;
    otherwise the smoothed reading counts give them (`Readings.entropies`).
    Reward side only -- harvested vectors keep raw occupancy."""
    c = coordinator
    rows = np.flatnonzero(c.live)
    etas = np.column_stack([c.motion.entropies(rows), c.signal.entropies(rows)])
    seen = c.motion.counts[rows].sum(axis=1) + c.signal.counts[rows].sum(axis=1)
    etas[seen < MIN_OBSERVATIONS_FOR_ESTIMATE] = 1.0
    classes = c.class_rows[rows]
    known = classes >= 0
    etas[known] = c.library.etas[classes[known]]
    return etas


def run_step(
    world: World,
    coordinator: Coordinator,
    policy: PolicySpec,
    t: int,
    streams: Streams,
    config: SimConfig,
) -> np.ndarray:
    """Advance the simulation by one step (t counts from 1) and return the
    (N,) Active mask it played.

    Order per step: mode selection from last step's knowledge, truth
    advance, sensing, track prediction and fusion, class assignment, then,
    under the bandit, rewards for the played arms.
    """
    dt = config.dt_s

    active = _select_modes(coordinator, policy, world.num_nodes, t, streams.policy)

    truth = world.targets
    step_motion(truth, dt, streams.world)
    step_signal(truth, streams.world)
    positions, tx_on = truth.position, truth.tx_on

    ni_r, ti_r, z_r = radar_measure_batch(
        world.node_positions,
        active,
        world.radar_range_m,
        positions,
        truth.velocity,
        truth.heading_rate,
        streams.sense,
        config.noise,
    )
    ni_p, ti_p, bearings = passive_detect_batch(
        world.node_positions,
        ~active,
        positions,
        tx_on,
        truth.passive_range,
        streams.sense,
        config.noise,
    )

    _predict_tracks(coordinator)
    rows, omegas = _fuse_radar(
        world, coordinator, ni_r, ti_r, z_r, t, config.noise
    )
    # Readings feed cross-track clustering, so the recorded state must not
    # depend on how this particular track happens to be tuned: a tuned
    # filter reads high-G kicks that an untuned one absorbs into cruise,
    # and mixing both reads splits every true class in two. The measured
    # angular rates alone (flat model prior) give every track the same
    # reading conditions; the filter's own posterior still drives tracking.
    coordinator.motion.record(rows, t, omega_log_evidence(omegas).argmax(axis=1))
    _apply_passive(
        world, coordinator, ni_p, ti_p, bearings, t, config.noise.sigma_doa_rad
    )

    if coordinator.library.ids.size:
        _attempt_assignments(coordinator)

    # the bandit's rewards: remaining uncertainty in each node's radar
    # footprint, on the column of the arm it played
    if coordinator.bandits is not None:
        rewards = compute_rewards(
            world.node_positions[:, :2],
            world.radar_range_m,
            coordinator.estimates[coordinator.live, :2],
            _track_uncertainties(coordinator),
            active,
        )
        record_reward(coordinator.bandits, active, rewards)
    return active


@dataclass(frozen=True)
class EpochMetrics:
    """What one epoch produced, for curves and comparisons."""

    policy: str
    num_nodes: int
    num_targets: int
    num_tracks: int
    rmse_per_target: np.ndarray  # one entry per track, in world order
    rmse_mean: float
    rmse_median: float
    radar_utilization: float
    active_node_steps: int
    passive_node_steps: int
    harvested: int
    pool_size: int
    num_classes: int
    formation_accuracy: float
    association_accuracy: float
    truth_digest: str


@dataclass
class Pool:
    """The cumulative harvest of one (run, policy) as one table, a row per
    harvested track: its behavior vector (N, VECTOR_LENGTH), its evidence
    (N, blocks) and its target's true class id (N,), which only scoring
    reads."""

    values: np.ndarray
    evidence: np.ndarray
    true_ids: np.ndarray

    @classmethod
    def empty(cls) -> "Pool":
        """No rows yet."""
        return cls(
            np.zeros((0, VECTOR_LENGTH)),
            np.zeros((0, BLOCK_LENGTHS.size)),
            np.zeros(0, dtype=np.int64),
        )

    def extend(self, values, evidence, true_ids) -> None:
        """Append rows, one concatenate per column."""
        self.values = np.concatenate([self.values, values])
        self.evidence = np.concatenate([self.evidence, evidence])
        self.true_ids = np.concatenate([self.true_ids, true_ids])


def run_epoch(
    library: ClassLibrary,
    config: SimConfig,
    rng: np.random.SeedSequence,
    policy: PolicySpec,
    pool: Pool,
) -> tuple[EpochMetrics, ClassLibrary]:
    """One scenario under one policy, scored at the boundary.

    Returns (EpochMetrics, updated library). `pool` carries the cumulative
    harvest across epochs and is extended in place by this epoch's rows:
    one `track_parameter_vector` call over the live rows, and the true
    class ids of their targets. The library re-clusters the whole pool, and
    only when the pool is non-empty -- a radar-only epoch intercepts
    nothing, harvests nothing, and scores zero.

    After each step the epoch records the squared 3D position error of
    each live row's combined estimate, indexed (step, target row), each
    row's first tracked step, the active node-steps, and the truth
    (positions, motion and signal states, transmit flags) in the digest.
    """
    streams = make_streams(rng)
    world = make_world(config.scenario, streams.world)
    coordinator = make_coordinator(library, world, policy, config.dt_s)
    steps = config.steps_per_epoch
    truth = world.targets
    T = world.num_targets
    squared_errors = np.zeros((steps, T))
    first = np.full(T, -1)  # -1 while untracked
    active_steps = 0
    digest = hashlib.sha1()
    for t in range(1, steps + 1):
        active = run_step(world, coordinator, policy, t, streams, config)
        digest.update(truth.position.tobytes())
        digest.update(
            np.column_stack([truth.motion_state, truth.signal_state]).tobytes()
        )
        digest.update(truth.tx_on.tobytes())
        live = coordinator.live
        first[live & (first < 0)] = t - 1
        error = coordinator.estimates[live, :3] - truth.position[live]
        squared_errors[t - 1, live] = np.sum(error**2, axis=1)
        active_steps += int(active.sum())

    rows = np.flatnonzero(first >= 0)
    rmse = np.array(
        [track_rmse(squared_errors[f:, r]) for r, f in zip(rows, first[rows])]
    )
    node_steps = steps * world.num_nodes

    harvest, values, evidence = track_parameter_vector(
        coordinator, np.flatnonzero(coordinator.live)
    )
    pool.extend(values, evidence, world.targets.class_id[harvest])

    new_library = library
    formation, association = 0.0, 0.0
    if pool.true_ids.size:
        new_library, assigned = update_library(
            library, pool.values, pool.evidence, streams.library
        )
        formation, association = score_classes(new_library, assigned, pool.true_ids)

    metrics = EpochMetrics(
        policy=policy.label,
        num_nodes=world.num_nodes,
        num_targets=world.num_targets,
        num_tracks=rows.size,
        rmse_per_target=rmse,
        rmse_mean=float(np.mean(rmse)) if rmse.size else float("nan"),
        rmse_median=float(np.median(rmse)) if rmse.size else float("nan"),
        radar_utilization=active_steps / node_steps if node_steps else 0.0,
        active_node_steps=active_steps,
        passive_node_steps=node_steps - active_steps,
        harvested=harvest.size,
        pool_size=pool.true_ids.size,
        num_classes=new_library.ids.size,
        formation_accuracy=formation,
        association_accuracy=association,
        truth_digest=digest.hexdigest(),
    )
    return metrics, new_library


def default_policies() -> tuple[PolicySpec, ...]:
    """The compared trio: UCB bandit, always-radar, random with p=0.8."""
    return (
        PolicySpec(PolicyKind.BANDIT),
        PolicySpec(PolicyKind.RADAR_ONLY),
        PolicySpec(PolicyKind.RANDOM, DEFAULT_RANDOM_ACTIVE_P),
    )


@dataclass(frozen=True)
class ExperimentResult:
    """All epochs of all runs, per policy label."""

    config: SimConfig
    policies: tuple
    metrics: dict  # label -> [run][epoch] EpochMetrics

    def final_epoch(self, label: str, attr: str) -> np.ndarray:
        """One value per run, taken at the last epoch."""
        return np.array([getattr(run[-1], attr) for run in self.metrics[label]])


def epoch_seed(base_seed: int, run: int, epoch: int) -> np.random.SeedSequence:
    """Seed for one (run, epoch) cell. Policies are not part of the key, so
    every policy replays the same scenario and truth draws -- the paired
    design the comparisons rely on."""
    return np.random.SeedSequence(base_seed, spawn_key=(run, epoch))


def _run_cell(config: SimConfig, spec: PolicySpec, run: int) -> list:
    """One (run, policy) cell: a fresh library and pool carried through the
    run's epochs. Returns its per-epoch metrics."""
    library = ClassLibrary()
    pool = Pool.empty()
    per_epoch = []
    for epoch in range(config.num_epochs):
        em, library = run_epoch(
            library,
            config,
            epoch_seed(config.seed, run, epoch),
            policy=spec,
            pool=pool,
        )
        per_epoch.append(em)
    return per_epoch


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replaced_functions() -> bool:
    """Whether any function of a crnsim module is no longer the one it held
    when this module was imported (a tracer's wrapper, a test's patch)."""
    return any(
        namespace.get(name) is not value
        for namespace, name, value in _IMPORTED_FUNCTIONS
    )


def _run_cells(config: SimConfig, cells: list, workers: int) -> list:
    """Every cell's per-epoch metrics, in the order of `cells`: in a fork
    pool of `workers` processes, or in this process with one worker or no
    "fork" on the platform."""
    if workers < 2 or not hasattr(os, "fork"):
        return [_run_cell(config, spec, run) for run, spec in cells]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    runs, specs = zip(*cells)
    with ProcessPoolExecutor(workers, mp_context=context) as executor:
        return list(executor.map(_run_cell, [config] * len(cells), specs, runs))


def run_experiment(
    config: SimConfig,
    policies: Optional[Sequence[PolicySpec]] = None,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Full paired Monte Carlo: num_runs independent scenario streams, each
    replayed under every policy for num_epochs epochs. Per policy and run,
    the class library persists across epochs while bandit state resets.

    Each (run, policy) cell draws only from its own `epoch_seed(seed, run,
    epoch)` streams, so the cells are independent. They run in a pool of
    `min(cells, workers)` processes started by "fork". Fork, not spawn: a
    spawned worker would import numpy and crnsim afresh, 0.2-0.3 s on a
    2-core machine, which is about one default-size epoch per worker. The
    cells are submitted and collected in (run, policy) order, and each
    worker computes a cell exactly as this process would, from the same
    forked code and state, so the result is bit-exact against running the
    cells in turn. With one cell, one worker or no "fork" on the platform,
    the cells run in this process and nothing is imported or started. An
    error in any cell is raised here once the pool has shut down.

    `workers=None` means every CPU this process may use, or one while any
    function of a crnsim module has been replaced since import: a tracer's
    wrapper or a test's patch would run in the workers, and what it records
    there is lost with them. A patch that is not a module-level name (a
    class attribute, a numpy function) is not noticed: pass `workers=1` to
    keep every cell in this process.

    The results are keyed by `PolicySpec.label`, so two policies with one
    label are refused rather than merged."""
    if not (workers is None or isinstance(workers, numbers.Integral) and workers > 0):
        raise ConfigError("workers must be a whole number, at least one")
    policies = tuple(policies) if policies is not None else default_policies()
    labels = [p.label for p in policies]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"policies need distinct labels, got {labels}")
    cells = [(run, spec) for run in range(config.num_runs) for spec in policies]
    if workers is None:
        workers = 1 if _replaced_functions() else _usable_cpus()
    workers = min(len(cells), workers)
    metrics: dict = {label: [] for label in labels}
    for (_, spec), per_epoch in zip(cells, _run_cells(config, cells, workers)):
        metrics[spec.label].append(per_epoch)
    return ExperimentResult(config=config, policies=policies, metrics=metrics)


def rmse_improvement(result: ExperimentResult, baseline_label: str) -> float:
    """Fractional final-epoch median-RMSE improvement of the bandit over a
    baseline, on the across-run paired average."""
    bandit = result.final_epoch(PolicyKind.BANDIT.value, "rmse_median")
    base = result.final_epoch(baseline_label, "rmse_median")
    return float((np.mean(base) - np.mean(bandit)) / np.mean(base))


# every module-level function and class of crnsim as imported, for
# `_replaced_functions`; last, so that this module's own are in it
_IMPORTED_FUNCTIONS = tuple(
    (vars(module), name, value)
    for module_name, module in list(sys.modules.items())
    if module_name == "crnsim" or module_name.startswith("crnsim.")
    for name, value in vars(module).items()
    if callable(value)
)
