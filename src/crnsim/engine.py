"""Epoch-based Monte Carlo driver for the radar network.

Each epoch spawns a fresh scenario and runs a fixed-step loop in which the
coordinator picks a mode per node, the world advances, both sensing
channels fire, tracks fuse whatever came back, and each node's played arm
is rewarded by how much estimation uncertainty remains in its footprint.
At the epoch boundary, behavior vectors are harvested from well-observed
tracks into a cumulative pool, the class library re-clusters, and the
epoch is scored.

The coordinator keeps its tracks as one table with a row per target, the
target's index in the world (filter bank, combined estimate, class id,
reading histories and their counts). A row is the whole track: every layer
of the step loop -- IMM prediction, radar fusion with one return per target,
passive association, class assignment, rewards and the estimate tape --
runs once per step over the live rows, and the harvest reads the rows'
histories.

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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from crnsim.bandit import (
    MIN_OBSERVATIONS_FOR_ESTIMATE,
    BanditState,
    NodeMode,
    PolicyKind,
    baseline_policy,
    compute_rewards,
    record_reward,
    ucb_select,
)
from crnsim.classlib import (
    ClassLibrary,
    ParameterVector,
    assign_class,
    block_values,
    score_classes,
    update_library,
    vector_from_histories,
)
from crnsim.dynamics import TargetTable, make_target_table, step_motion, step_signal
from crnsim.markov import normalized_entropy
from crnsim.scenario import (
    MOTION_STATES,
    DegenerateScenario,
    ScenarioConfig,
    TargetFamily,
    spawn_scenario,
)
from crnsim.sensing import (
    SensorNoise,
    max_detectable_range,
    passive_detect_batch,
    radar_measure_batch,
    wrap_angle,
)
from crnsim.tracking import (
    NUM_MODELS,
    Track,
    combined_covariances,
    combined_states,
    cv_transition,
    imm_predict_arrays,
    omega_log_evidence,
    kalman_update_arrays,
    measurement_rows,
    polar_to_cartesian,
    process_noise_matrix,
    record_reading,
    start_track,
    track_rmse,
    untuned_tuning,
)

# retries after a spawn with zero nodes or zero targets
MAX_SPAWN_RETRIES = 5

# harvest gate: a track contributes a behavior vector only with this much
# radar/passive history behind it
MIN_RADAR_OBS = 10
MIN_PASSIVE_OBS = 3

DEFAULT_RANDOM_ACTIVE_P = 0.8


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
    policy: PolicySpec = PolicySpec()
    seed: int = 0
    noise: SensorNoise = SensorNoise()

    def __post_init__(self):
        if self.num_epochs < 1 or self.num_runs < 1:
            raise ConfigError("need at least one epoch and one run")
        if self.dt_s <= 0 or self.epoch_duration_s <= 0:
            raise ConfigError("dt and epoch duration must be positive")
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


def make_streams(seed) -> Streams:
    """Named streams from an int or a SeedSequence.

    The children are the ones `spawn(4)` gives on a fresh sequence, built
    without spawning, so the caller's SeedSequence is left unchanged and
    the same object always yields the same streams."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
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
    """Ground truth for one epoch, plus the static arrays sensing needs.

    `targets` is the truth as one table, a row per target: class id,
    position and velocity (T, 3), turn and heading rates, motion, signal and
    transmit states, and each row's class parameters (chain CDFs, process
    noise, speed and turn-rate ranges). A target's row is also its row in
    the coordinator's track table and the id its sensor returns carry."""

    nodes: list
    targets: TargetTable
    family: TargetFamily
    node_positions: np.ndarray  # (N, 3)
    radar_ranges: np.ndarray  # (N,)
    passive_ranges: np.ndarray  # (T,) SNR-limited intercept radius

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_targets(self) -> int:
        return self.targets.num_targets


def make_world(scenario: ScenarioConfig, rng: np.random.Generator) -> World:
    """Spawn a usable scenario, resampling degenerate draws a few times."""
    for attempt in range(MAX_SPAWN_RETRIES + 1):
        try:
            nodes, targets = spawn_scenario(scenario, rng)
            break
        except DegenerateScenario:
            if attempt == MAX_SPAWN_RETRIES:
                raise
    classes = [scenario.family.class_by_id(t.class_id) for t in targets]
    return World(
        nodes=nodes,
        targets=make_target_table(targets, scenario.family.classes),
        family=scenario.family,
        node_positions=np.array([n.position for n in nodes]),
        radar_ranges=np.array([n.radar_range_m for n in nodes]),
        passive_ranges=np.array(
            [
                max_detectable_range(c.tx_power_w, c.tx_gain, scenario.receiver)
                for c in classes
            ]
        ),
    )


@dataclass
class Coordinator:
    """Central fusion state: the track table, learned classes, per-node
    bandits.

    The table has one row per target of the epoch's world, in world order
    (a target has at most one track). A row is the whole track: the IMM
    bank -- model states (M, 6), covariances (M, 6, 6), probabilities (M,)
    -- the combined estimate, the class id (-1 while unclassified), the
    (step, state) motion and signal histories that `vector_from_histories`
    reads, and how many readings of each state those histories hold. A row
    is live once its track starts; `order` lists the live rows in start
    order, and prediction and rewards run in that order so that sums over
    tracks round as they did when each track was visited in turn."""

    library: ClassLibrary
    num_signal_states: int
    use_class_knowledge: bool
    num_targets: int = 0  # table rows
    # first sightings waiting for a second measurement: row -> (step, pos, R)
    pending: dict = field(default_factory=dict)
    bandits: list = field(default_factory=list)
    _noise_cache: dict = field(default_factory=dict)

    def __post_init__(self):
        T, M = self.num_targets, NUM_MODELS
        self.model_states = np.zeros((T, M, 6))
        self.model_covs = np.zeros((T, M, 6, 6))
        self.model_probs = np.zeros((T, M))
        self.estimates = np.zeros((T, 6))  # combined state of each row
        self.live = np.zeros(T, dtype=bool)
        self.class_ids = np.full(T, -1, dtype=np.int64)
        self.motion_counts = np.zeros((T, len(MOTION_STATES)), dtype=np.int64)
        self.signal_counts = np.zeros((T, self.num_signal_states), dtype=np.int64)
        self.motion_history = [[] for _ in range(T)]
        self.signal_history = [[] for _ in range(T)]
        self.order = np.zeros(0, dtype=np.int64)
        # (motion, signal) entropies of each class centroid; the library is
        # fixed for the coordinator's epoch
        self.class_etas = {
            c.class_id: (
                normalized_entropy(block_values(c.centroid, "pi_v")),
                normalized_entropy(block_values(c.centroid, "pi_s")),
            )
            for c in (self.library.classes if self.use_class_knowledge else ())
        }

    def add_track(self, row: int, track: Track) -> None:
        """Start a track in the free table row `row`, its target's index in
        the world, from a copy of `track`'s filter bank; the coordinator
        keeps no reference to `track`."""
        if self.live[row]:
            raise ValueError(f"row {row} already holds a track")
        self.set_bank(
            np.array([row]),
            track.model_states[None],
            track.model_covs[None],
            track.model_probs[None],
        )
        self.live[row] = True
        self.order = np.append(self.order, row)

    def bank(self, rows: np.ndarray):
        """The rows' IMM banks: states (B, M, 6), covariances (B, M, 6, 6)
        and probabilities (B, M)."""
        return self.model_states[rows], self.model_covs[rows], self.model_probs[rows]

    def set_bank(self, rows: np.ndarray, states, covs, probs) -> None:
        """Write the rows' IMM banks and recombine their estimates."""
        self.model_states[rows] = states
        self.model_covs[rows] = covs
        self.model_probs[rows] = probs
        self.estimates[rows] = combined_states(states, probs)

    def xy_covariances(self, rows: np.ndarray) -> np.ndarray:
        """(B, 2, 2) horizontal block of the rows' combined covariances."""
        return combined_covariances(
            self.model_states[rows][..., :2],
            self.model_covs[rows][:, :, :2, :2],
            self.model_probs[rows],
            self.estimates[rows][:, :2],
        )

    def record_motion(self, row: int, step: int, state: int) -> None:
        """Record a motion-state reading in the row's history and count it
        when `record_reading` keeps it."""
        if record_reading(self.motion_history[row], step, state):
            self.motion_counts[row, state] += 1

    def record_signal(self, row: int, step: int, state: int) -> None:
        """Record a signal-type reading, as `record_motion` does."""
        if record_reading(self.signal_history[row], step, state):
            self.signal_counts[row, state] += 1

    def predict_arrays(self, class_id: Optional[int], dt: float):
        """(transition, Q-stack) of the tuning a track of this class gets,
        cached per epoch under the class, None when the untuned bank
        applies. Baselines and a class id missing from the library also get
        the untuned bank."""
        key = class_id if self.use_class_knowledge else None
        if key not in self._noise_cache:
            cls = None if key is None else self.library.get(key)
            tuning = untuned_tuning() if cls is None else cls.tuning()
            Q = np.stack(
                [process_noise_matrix(dt, s) for s in tuning.process_noise_per_state]
            )
            self._noise_cache[key] = (tuning.mode_transition.transition, Q)
        return self._noise_cache[key]


def make_coordinator(
    library: ClassLibrary, world: World, policy: PolicySpec
) -> Coordinator:
    """Fresh per-epoch coordinator. Bandit statistics start cold every
    epoch; only the class library carries over. Baselines keep the library
    for scoring but never let it steer filters or rewards."""
    bandit = policy.kind is PolicyKind.BANDIT
    return Coordinator(
        library=library,
        num_signal_states=world.family.signal_state_count,
        use_class_knowledge=bandit,
        num_targets=world.num_targets,
        bandits=[BanditState() for _ in world.nodes] if bandit else [],
    )


@dataclass
class _EpochTape:
    """Per-step records accumulated for end-of-epoch metrics. Positions are
    indexed (step, target row); a row's estimates start at its first
    tracked step."""

    est: np.ndarray  # (steps, T, 3) combined position estimates
    truth: np.ndarray  # (steps, T, 3)
    first: np.ndarray  # (T,) first tracked step index, -1 while untracked
    modes: list = field(default_factory=list)  # (N,) bool active, per step
    rewards: list = field(default_factory=list)  # (N,) played reward, per step
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha1)


def _observed_enough(num_motion, num_signal):
    """The harvest gate on reading counts; works on ints and on arrays."""
    return (num_motion >= MIN_RADAR_OBS) & (num_signal >= MIN_PASSIVE_OBS)


def track_parameter_vector(
    coordinator: Coordinator, row: int
) -> Optional[ParameterVector]:
    """Behavior vector from one row's histories, or None when its track has
    not been observed enough to estimate all four blocks."""
    motion, signal = coordinator.motion_history[row], coordinator.signal_history[row]
    if not _observed_enough(len(motion), len(signal)):
        return None
    return vector_from_histories(
        motion, signal, len(MOTION_STATES), coordinator.num_signal_states
    )


def _select_modes(
    coordinator: Coordinator, policy: PolicySpec, num_nodes: int, t: int, rng
) -> list:
    if policy.kind is PolicyKind.BANDIT:
        return [ucb_select(coordinator.bandits[i], t) for i in range(num_nodes)]
    return [
        baseline_policy(policy.kind, policy.active_probability, rng)
        for _ in range(num_nodes)
    ]


def _predict_tracks(coordinator: Coordinator, dt: float) -> None:
    """One IMM prediction over the live rows, in start order, each under
    its class's tuning."""
    c = coordinator
    rows = c.order
    if rows.size == 0:
        return
    M = NUM_MODELS
    trans = np.empty((rows.size, M, M))
    Q = np.empty((rows.size, M, 6, 6))
    class_ids = c.class_ids[rows]
    for cid in np.unique(class_ids):
        sel = class_ids == cid
        trans[sel], Q[sel] = c.predict_arrays(None if cid < 0 else int(cid), dt)
    c.set_bank(rows, *imm_predict_arrays(*c.bank(rows), trans, cv_transition(dt), Q))


def _fuse_radar(
    world: World,
    coordinator: Coordinator,
    ni: np.ndarray,
    ti: np.ndarray,
    z: np.ndarray,
    t: int,
    dt: float,
    noise: SensorNoise,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply this step's radar returns: start tracks via two-point
    differencing, update the rest in one batch. Returns the rows of the
    tracks that got a reading, ascending, and the angular rate each one
    measured.

    One observer per target per step: the coordinator uses the return of
    the closest active node (smallest measured range, then lowest node id)
    and discards redundant looks. A second look at the same target adds
    little -- positional accuracy is already measurement-limited -- while
    the single-observer geometry leaves cross-range velocity to the motion
    model, which is exactly where class-tuned filters pay off.

    Returns are associated to tracks by the truth target id they carry
    (`ti`), not by gating: the radar channel assumes perfect data
    association, so two targets at one position, seen by one node, still
    update their own tracks. Only the passive channel associates by
    measurement (see `_associate_bearings`)."""
    # one return per target, targets ascending
    pick = np.lexsort((ni, z[:, 0], ti))
    first = np.ones(pick.size, dtype=bool)
    first[1:] = ti[pick][1:] != ti[pick][:-1]
    keep = pick[first]
    ni, rows, z = ni[keep], ti[keep], z[keep]
    npos = world.node_positions[ni]
    sigmas = (noise.sigma_range_m, noise.sigma_azimuth_rad, noise.sigma_elevation_rad)
    pos, R3 = polar_to_cartesian(z[:, 0], z[:, 1], z[:, 2], npos, sigmas)
    tracked = coordinator.live[rows]
    for i in np.flatnonzero(~tracked):
        row = int(rows[i])
        held = coordinator.pending.pop(row, None)
        if held is None:
            coordinator.pending[row] = (t, pos[i], R3[i])
            continue
        step0, pos0, R0 = held
        coordinator.add_track(
            row, start_track(pos0, R0, pos[i], R3[i], dt=(t - step0) * dt)
        )
    upd = np.flatnonzero(tracked)
    if upd.size:
        c, ur = coordinator, rows[upd]
        zb = np.column_stack([pos[upd], z[upd, 3]])
        Rb = np.zeros((upd.size, 4, 4))
        Rb[:, :3, :3] = R3[upd]
        Rb[:, 3, 3] = max(noise.sigma_radial_velocity, 1e-6) ** 2
        H = measurement_rows(c.estimates[ur], npos[upd])
        c.set_bank(ur, *kalman_update_arrays(*c.bank(ur), zb, Rb, H))
    read = coordinator.live[rows]
    return rows[read], z[read, 4]


# widest bearing gate a track may claim through; beyond this a stale track
# still shadows its neighborhood (forcing ambiguity drops) without vetoing
# the whole horizon
GATE_MAX_RAD = np.radians(15.0)


def _associate_bearings(
    det_node_xy: np.ndarray,
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
    each other from every receiver; those are dropped the same way. Track
    order must be ascending row so results are deterministic."""
    if track_xy.shape[0] == 0:
        return np.full(det_bearings.shape[0], -1)
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


def _apply_passive(
    world: World,
    coordinator: Coordinator,
    ni: np.ndarray,
    ti: np.ndarray,
    bearings: np.ndarray,
    t: int,
    sigma_doa_rad: float,
) -> int:
    """Associate this step's intercepts to tracks by bearing and append
    corroborated signal observations. Returns how many tracks logged one."""
    if ni.size == 0 or coordinator.order.size == 0:
        return 0
    rows = np.flatnonzero(coordinator.live)  # ascending row
    hit = _associate_bearings(
        world.node_positions[ni][:, :2],
        bearings,
        coordinator.estimates[rows, :2],
        coordinator.xy_covariances(rows),
        sigma_doa_rad,
    )
    types = world.targets.signal_state[ti]
    S = coordinator.num_signal_states
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
    # suffices -- demanding more starves signal histories whenever few
    # nodes listen. Conflicting same-step claims (tied modal type) are
    # still skipped.
    logs = (peak > 0) & ((counts == peak[:, None]).sum(axis=1) == 1)
    for i in np.flatnonzero(logs):
        coordinator.record_signal(rows[i], t, top[i])
    return int(logs.sum())


def _attempt_assignments(coordinator: Coordinator) -> None:
    c = coordinator
    ready = (
        c.live
        & (c.class_ids < 0)
        & _observed_enough(c.motion_counts.sum(axis=1), c.signal_counts.sum(axis=1))
    )
    for row in np.flatnonzero(ready):
        class_id = assign_class(c.library, track_parameter_vector(c, row))
        if class_id is not None:
            c.class_ids[row] = class_id


def _smoothed(counts: np.ndarray) -> np.ndarray:
    """Add-one posterior mean of each row of state counts.

    Raw frequencies from a handful of samples are usually degenerate (five
    steps in Cruise reads as zero entropy), which would pay the bandit for
    ignorance; a unit of prior mass spread over the states keeps small
    samples honestly uncertain while letting genuinely one-sided histories
    collapse within ~10 observations. Reward side only -- harvested
    vectors keep raw occupancy."""
    p = counts + 1.0 / counts.shape[1]
    return p / p.sum(axis=1, keepdims=True)


def _track_uncertainties(coordinator: Coordinator) -> np.ndarray:
    """(motion, signal) normalized entropies of the live tracks in start
    order, (B, 2), under the coordinator's best current knowledge. Class
    centroids stand in once a track is classified; thin histories (< 3
    observations) count as fully uncertain, eta = 1; otherwise the
    smoothed reading counts give them."""
    c = coordinator
    rows = c.order
    motion, signal = c.motion_counts[rows], c.signal_counts[rows]
    etas = np.column_stack(
        [normalized_entropy(_smoothed(motion)), normalized_entropy(_smoothed(signal))]
    )
    etas[motion.sum(axis=1) + signal.sum(axis=1) < MIN_OBSERVATIONS_FOR_ESTIMATE] = 1.0
    class_ids = c.class_ids[rows]
    for cid, eta in c.class_etas.items():
        etas[class_ids == cid] = eta
    return etas


def run_step(
    world: World,
    coordinator: Coordinator,
    policy: PolicySpec,
    t: int,
    streams: Streams,
    config: SimConfig,
    tape: _EpochTape,
) -> None:
    """Advance the simulation by one step (t counts from 1).

    Order per step: mode selection from last step's knowledge, truth
    advance, sensing, track prediction and fusion, estimate bookkeeping,
    then rewards for the played arms.
    """
    dt = config.dt_s
    N = world.num_nodes

    modes = _select_modes(coordinator, policy, N, t, streams.policy)
    active = np.array([m is NodeMode.ACTIVE for m in modes])

    truth = world.targets
    step_motion(truth, dt, streams.world)
    step_signal(truth, streams.world)
    positions, tx_on = truth.position, truth.tx_on
    tape.digest.update(positions.tobytes())
    tape.digest.update(
        np.column_stack([truth.motion_state, truth.signal_state]).tobytes()
    )
    tape.digest.update(tx_on.tobytes())

    ni_r, ti_r, z_r = radar_measure_batch(
        world.node_positions,
        active,
        world.radar_ranges,
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
        world.passive_ranges,
        streams.sense,
        config.noise,
    )

    _predict_tracks(coordinator, dt)
    rows, omegas = _fuse_radar(
        world, coordinator, ni_r, ti_r, z_r, t, dt, config.noise
    )
    # Histories feed cross-track clustering, so the recorded state must not
    # depend on how this particular track happens to be tuned: a tuned
    # filter reads high-G kicks that an untuned one absorbs into cruise,
    # and mixing both reads splits every true class in two. The measured
    # angular rates alone (flat model prior) give every track the same
    # reading conditions; the filter's own posterior still drives tracking.
    for row, state in zip(rows, omega_log_evidence(omegas).argmax(axis=1)):
        coordinator.record_motion(row, t, state)
    _apply_passive(
        world, coordinator, ni_p, ti_p, bearings, t, config.noise.sigma_doa_rad
    )

    live = coordinator.live
    tape.first[live & (tape.first < 0)] = t - 1
    tape.est[t - 1, live] = coordinator.estimates[live, :3]
    tape.truth[t - 1] = positions

    if coordinator.use_class_knowledge and coordinator.library.classes:
        _attempt_assignments(coordinator)

    # rewards: remaining uncertainty in each node's radar footprint, on the
    # column of the arm it played
    rewards = compute_rewards(
        world.node_positions[:, :2],
        world.radar_ranges,
        coordinator.estimates[coordinator.order, :2],
        _track_uncertainties(coordinator),
        active,
    )
    if policy.kind is PolicyKind.BANDIT:
        for i in range(N):
            record_reward(coordinator.bandits[i], modes[i], float(rewards[i]))
    tape.modes.append(active)
    tape.rewards.append(rewards)


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
    reward_trace: np.ndarray  # (steps, nodes) played-arm rewards
    active_node_steps: int
    passive_node_steps: int
    harvested: int
    pool_size: int
    num_classes: int
    formation_accuracy: float
    association_accuracy: float
    truth_digest: str


def run_epoch(
    library: ClassLibrary,
    config: SimConfig,
    rng,
    policy: Optional[PolicySpec] = None,
    pool: Optional[list] = None,
    pool_true_ids: Optional[list] = None,
) -> tuple[EpochMetrics, ClassLibrary]:
    """One scenario under one policy, scored at the boundary.

    Returns (EpochMetrics, updated library). `pool` / `pool_true_ids`, when
    given, carry the cumulative harvested vectors across epochs and are
    extended in place; omitted, the epoch is scored on its own harvest.
    The library only updates when the pool is non-empty -- a radar-only
    epoch intercepts nothing, harvests nothing, and scores zero.
    """
    if policy is None:
        policy = config.policy
    streams = make_streams(rng)
    world = make_world(config.scenario, streams.world)
    coordinator = make_coordinator(library, world, policy)
    steps = config.steps_per_epoch
    T = world.num_targets
    tape = _EpochTape(
        est=np.zeros((steps, T, 3)),
        truth=np.zeros((steps, T, 3)),
        first=np.full(T, -1),
    )
    for t in range(1, steps + 1):
        run_step(world, coordinator, policy, t, streams, config, tape)

    rows = np.flatnonzero(tape.first >= 0)
    rmse = np.array(
        [
            track_rmse(tape.est[f:, r], tape.truth[f:, r])
            for r, f in zip(rows, tape.first[rows])
        ]
    )
    modes = np.array(tape.modes)  # (steps, N) bool
    active_steps = int(modes.sum())
    node_steps = steps * world.num_nodes

    if pool is None:
        pool = []
    if pool_true_ids is None:
        pool_true_ids = []
    harvested = 0
    for row in np.flatnonzero(coordinator.live):
        vec = track_parameter_vector(coordinator, row)
        if vec is None:
            continue
        pool.append(vec)
        pool_true_ids.append(int(world.targets.class_id[row]))
        harvested += 1

    new_library = library
    formation, association = 0.0, 0.0
    if pool:
        new_library, assigned = update_library(library, pool, streams.library)
        formation, association = score_classes(new_library, assigned, pool_true_ids)

    metrics = EpochMetrics(
        policy=policy.label,
        num_nodes=world.num_nodes,
        num_targets=world.num_targets,
        num_tracks=rows.size,
        rmse_per_target=rmse,
        rmse_mean=float(np.mean(rmse)) if rmse.size else float("nan"),
        rmse_median=float(np.median(rmse)) if rmse.size else float("nan"),
        radar_utilization=active_steps / node_steps if node_steps else 0.0,
        reward_trace=np.array(tape.rewards),
        active_node_steps=active_steps,
        passive_node_steps=node_steps - active_steps,
        harvested=harvested,
        pool_size=len(pool),
        num_classes=len(new_library.classes),
        formation_accuracy=formation,
        association_accuracy=association,
        truth_digest=tape.digest.hexdigest(),
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

    def curve(self, label: str, attr: str) -> np.ndarray:
        """Across-run mean of one metric per epoch."""
        per_run = np.array(
            [[getattr(m, attr) for m in run] for run in self.metrics[label]]
        )
        return per_run.mean(axis=0)

    def final_epoch(self, label: str, attr: str) -> np.ndarray:
        """One value per run, taken at the last epoch."""
        return np.array([getattr(run[-1], attr) for run in self.metrics[label]])


def epoch_seed(base_seed: int, run: int, epoch: int) -> np.random.SeedSequence:
    """Seed for one (run, epoch) cell. Policies are not part of the key, so
    every policy replays the same scenario and truth draws -- the paired
    design the comparisons rely on."""
    return np.random.SeedSequence(base_seed, spawn_key=(run, epoch))


def run_experiment(
    config: SimConfig, policies: Optional[Sequence[PolicySpec]] = None
) -> ExperimentResult:
    """Full paired Monte Carlo: num_runs independent scenario streams, each
    replayed under every policy for num_epochs epochs. Per policy and run,
    the class library persists across epochs while bandit state resets."""
    policies = tuple(policies) if policies is not None else default_policies()
    metrics: dict = {p.label: [] for p in policies}
    for run in range(config.num_runs):
        for spec in policies:
            library = ClassLibrary()
            pool: list = []
            true_ids: list = []
            per_epoch = []
            for epoch in range(config.num_epochs):
                em, library = run_epoch(
                    library,
                    config,
                    epoch_seed(config.seed, run, epoch),
                    policy=spec,
                    pool=pool,
                    pool_true_ids=true_ids,
                )
                per_epoch.append(em)
            metrics[spec.label].append(per_epoch)
    return ExperimentResult(config=config, policies=policies, metrics=metrics)


def rmse_improvement(result: ExperimentResult, baseline_label: str) -> float:
    """Fractional final-epoch median-RMSE improvement of the bandit over a
    baseline, on the across-run paired average."""
    bandit = result.final_epoch(PolicyKind.BANDIT.value, "rmse_median")
    base = result.final_epoch(baseline_label, "rmse_median")
    return float((np.mean(base) - np.mean(bandit)) / np.mean(base))
