"""Epoch-based Monte Carlo driver for the radar network.

Each epoch spawns a fresh scenario and runs a fixed-step loop in which the
coordinator picks a mode per node, the world advances, both sensing
channels fire, tracks fuse whatever came back, and each node's played arm
is rewarded by how much estimation uncertainty remains in its footprint.
At the epoch boundary, behavior vectors are harvested from well-observed
tracks into a cumulative pool, the class library re-clusters, and the
epoch is scored.

The step loop hot path is batched: per-pair sensing, IMM prediction, and
measurement fusion all run as stacked-array operations; radar returns for
the same target from several nodes fuse sequentially in rounds.

Randomness is split into four named streams (scenario/truth, sensor noise,
policy coin flips, clustering restarts) so that policies compared under
the same seed see byte-identical target trajectories: mode choices change
how many sensor-noise and policy draws happen, and only the world stream
feeds the truth.
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
    record_reward,
    ucb_select,
)
from crnsim.classlib import (
    DEFAULT_ACCEPT_RADIUS,
    DEFAULT_MAX_CLASSES,
    ClassLibrary,
    ParameterVector,
    assign_class,
    block_values,
    make_parameter_vector,
    occupancy_sample_size,
    score_classes,
    update_library,
)
from crnsim.dynamics import step_motion, step_signal
from crnsim.markov import normalized_entropy
from crnsim.scenario import (
    MOTION_STATES,
    DegenerateScenario,
    Node,
    ScenarioConfig,
    Target,
    TargetClass,
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
    FilterTuning,
    Track,
    cv_transition,
    imm_predict_arrays,
    omega_log_evidence,
    kalman_update_arrays,
    measurement_rows,
    polar_to_cartesian,
    process_noise_matrix,
    start_track,
    track_rmse,
    untuned_tuning,
)

# retries after a spawn with zero nodes or zero targets
MAX_SPAWN_RETRIES = 5

# steps between attempts to match an unassigned track to a learned class
ASSIGN_PERIOD = 1

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
    accept_radius: float = DEFAULT_ACCEPT_RADIUS
    max_classes: int = DEFAULT_MAX_CLASSES
    # harvest gate: a track contributes a behavior vector only with this
    # much radar/passive history behind it
    min_radar_obs: int = 10
    min_passive_obs: int = 3

    def __post_init__(self):
        if self.num_epochs < 1 or self.num_runs < 1:
            raise ConfigError("need at least one epoch and one run")
        if self.dt_s <= 0 or self.epoch_duration_s <= 0:
            raise ConfigError("dt and epoch duration must be positive")
        steps = self.epoch_duration_s / self.dt_s
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ConfigError("epoch duration must be a whole number of steps")
        if self.min_radar_obs < 2 or self.min_passive_obs < 1:
            raise ConfigError("harvest thresholds too small to estimate from")

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
    """Normalize an int / SeedSequence / Streams into named streams."""
    if isinstance(seed, Streams):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    kids = [np.random.default_rng(c) for c in seed.spawn(4)]
    return Streams(*kids)


@dataclass
class World:
    """Ground truth for one epoch, plus the static arrays sensing needs."""

    nodes: list
    targets: list
    family: TargetFamily
    node_positions: np.ndarray  # (N, 3)
    radar_ranges: np.ndarray  # (N,)
    passive_ranges: np.ndarray  # (T,) SNR-limited intercept radius
    target_classes: list  # per target, parallel
    index_by_id: dict

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_targets(self) -> int:
        return len(self.targets)


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
        targets=targets,
        family=scenario.family,
        node_positions=np.array([n.position for n in nodes]),
        radar_ranges=np.array([n.radar_range_m for n in nodes]),
        passive_ranges=np.array(
            [
                max_detectable_range(c.tx_power_w, c.tx_gain, scenario.receiver)
                for c in classes
            ]
        ),
        target_classes=classes,
        index_by_id={t.target_id: i for i, t in enumerate(targets)},
    )


@dataclass
class Coordinator:
    """Central fusion state: tracks, learned classes, per-node bandits."""

    library: ClassLibrary
    num_signal_states: int
    use_class_knowledge: bool
    accept_radius: float = DEFAULT_ACCEPT_RADIUS
    tracks: dict = field(default_factory=dict)  # target key -> Track
    # first sightings waiting for a second measurement: key -> (step, pos, R)
    pending: dict = field(default_factory=dict)
    bandits: list = field(default_factory=list)
    _untuned: FilterTuning = field(default_factory=untuned_tuning)
    _tuning_cache: dict = field(default_factory=dict)
    _noise_cache: dict = field(default_factory=dict)

    def tuning_for(self, track: Track) -> FilterTuning:
        cid = track.class_assignment
        if not self.use_class_knowledge or cid is None:
            return self._untuned
        if cid not in self._tuning_cache:
            cls = self.library.get(cid)
            self._tuning_cache[cid] = self._untuned if cls is None else cls.tuning()
        return self._tuning_cache[cid]

    def predict_arrays(self, track: Track, dt: float):
        """(transition, Q-stack) of a track's tuning, cached per epoch under
        the class that tunes it, None when the untuned bank applies."""
        key = track.class_assignment if self.use_class_knowledge else None
        if key not in self._noise_cache:
            tuning = self.tuning_for(track)
            Q = np.stack(
                [process_noise_matrix(dt, s) for s in tuning.process_noise_per_state]
            )
            self._noise_cache[key] = (tuning.mode_transition.transition, Q)
        return self._noise_cache[key]


def make_coordinator(
    library: ClassLibrary, world: World, policy: PolicySpec, config: SimConfig
) -> Coordinator:
    """Fresh per-epoch coordinator. Bandit statistics start cold every
    epoch; only the class library carries over. Baselines keep the library
    for scoring but never let it steer filters or rewards."""
    bandit = policy.kind is PolicyKind.BANDIT
    return Coordinator(
        library=library,
        num_signal_states=world.family.signal_state_count,
        use_class_knowledge=bandit,
        accept_radius=config.accept_radius,
        bandits=[BanditState() for _ in world.nodes] if bandit else [],
    )


@dataclass
class _EpochTape:
    """Per-step records accumulated for end-of-epoch metrics."""

    est: dict = field(default_factory=dict)  # key -> [([x,y,z]), ...]
    truth: dict = field(default_factory=dict)
    modes: list = field(default_factory=list)  # (N,) bool active, per step
    rewards: list = field(default_factory=list)  # (N,) played reward, per step
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha1)


def track_parameter_vector(
    track: Track,
    num_signal_states: int,
    min_radar_obs: int = 10,
    min_passive_obs: int = 3,
) -> Optional[ParameterVector]:
    """Behavior vector from one track's histories, or None when the track
    has not been observed enough to estimate all four blocks."""
    n_v = len(track.motion_state_history)
    n_s = len(track.signal_history)
    if n_v < min_radar_obs or n_s < min_passive_obs:
        return None
    pi_v = track.estimated_motion_distribution()
    pi_s = track.estimated_signal_distribution(num_signal_states)
    P_v = track.estimated_motion_matrix()
    P_s = track.estimated_signal_matrix(num_signal_states)
    return make_parameter_vector(
        pi_v,
        P_v,
        pi_s,
        P_s,
        n_motion=occupancy_sample_size(n_v, pi_v, P_v),
        n_signal=occupancy_sample_size(n_s, pi_s, P_s),
        motion_row_counts=track.motion_row_counts(),
        signal_row_counts=track.signal_row_counts(num_signal_states),
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
    tracks = list(coordinator.tracks.values())
    if not tracks:
        return
    B = len(tracks)
    states = np.stack([tr.model_states for tr in tracks])
    covs = np.stack([tr.model_covs for tr in tracks])
    probs = np.stack([tr.model_probs for tr in tracks])
    M = states.shape[1]
    trans = np.empty((B, M, M))
    Q = np.empty((B, M, 6, 6))
    for i, tr in enumerate(tracks):
        trans[i], Q[i] = coordinator.predict_arrays(tr, dt)
    s, c, p = imm_predict_arrays(states, covs, probs, trans, cv_transition(dt), Q)
    for i, tr in enumerate(tracks):
        tr.model_states, tr.model_covs, tr.model_probs = s[i], c[i], p[i]


def _fuse_radar(
    world: World,
    coordinator: Coordinator,
    ni: np.ndarray,
    ti: np.ndarray,
    z: np.ndarray,
    t: int,
    dt: float,
    noise: SensorNoise,
) -> dict:
    """Apply this step's radar returns: start tracks via two-point
    differencing, update the rest. Returns measured angular rates per
    updated track key.

    One observer per target per step: the coordinator uses the return of
    the closest active node (smallest measured range, then lowest node id)
    and discards redundant looks. A second look at the same target adds
    little -- positional accuracy is already measurement-limited -- while
    the single-observer geometry leaves cross-range velocity to the motion
    model, which is exactly where class-tuned filters pay off."""
    sigmas = (noise.sigma_range_m, noise.sigma_azimuth_rad, noise.sigma_elevation_rad)
    timestamp = t * dt
    if ni.size:
        pick = np.lexsort((ni, z[:, 0], ti))
        first = np.ones(pick.size, dtype=bool)
        first[1:] = ti[pick][1:] != ti[pick][:-1]
        keep = np.sort(pick[first])
        ni, ti, z = ni[keep], ti[keep], z[keep]
    # group measurements per target, node order within a target
    order = np.lexsort((ni, ti))
    meas_by_key: dict = {}
    omegas: dict = {}
    for idx in order:
        n_i, t_i = int(ni[idx]), int(ti[idx])
        key = world.targets[t_i].target_id
        row = z[idx]
        if key in coordinator.tracks:
            meas_by_key.setdefault(key, []).append((n_i, row))
            omegas.setdefault(key, []).append(float(row[4]))
            continue
        pos, R = polar_to_cartesian(
            row[0], row[1], row[2], world.node_positions[n_i], sigmas
        )
        held = coordinator.pending.get(key)
        if held is None or held[0] == t:
            # first sighting, or a same-step duplicate that cannot seed
            # velocity differencing; keep the earliest
            if held is None:
                coordinator.pending[key] = (t, pos, R)
            continue
        step0, pos0, R0 = held
        del coordinator.pending[key]
        coordinator.tracks[key] = start_track(
            key, pos0, R0, pos, R, dt=(t - step0) * dt, timestamp=timestamp
        )
        omegas.setdefault(key, []).append(float(row[4]))
    # sequential fusion: round r applies each track's r-th measurement
    sigma_vr2 = max(noise.sigma_radial_velocity, 1e-6) ** 2
    r = 0
    while True:
        batch = [
            (key, lst[r]) for key, lst in meas_by_key.items() if r < len(lst)
        ]
        if not batch:
            break
        tracks = [coordinator.tracks[key] for key, _ in batch]
        node_idx = np.array([n_i for _, (n_i, _) in batch])
        rows = np.stack([row for _, (_, row) in batch])
        npos = world.node_positions[node_idx]
        pos, R3 = polar_to_cartesian(rows[:, 0], rows[:, 1], rows[:, 2], npos, sigmas)
        B = len(batch)
        zb = np.column_stack([pos, rows[:, 3]])
        Rb = np.zeros((B, 4, 4))
        Rb[:, :3, :3] = R3
        Rb[:, 3, 3] = sigma_vr2
        combined = np.stack([tr.state for tr in tracks])
        H = measurement_rows(combined, npos)
        states = np.stack([tr.model_states for tr in tracks])
        covs = np.stack([tr.model_covs for tr in tracks])
        probs = np.stack([tr.model_probs for tr in tracks])
        s, c, p, innov = kalman_update_arrays(states, covs, probs, zb, Rb, H)
        for i, tr in enumerate(tracks):
            tr.model_states, tr.model_covs, tr.model_probs = s[i], c[i], p[i]
            tr.last_innovation = innov[i]
            tr.num_updates += 1
            tr.last_update = timestamp
        r += 1
    return omegas


# Every passive receiver hears every in-range emitter, so at this target
# density a silent target's track regularly gates someone else's emission.
# Detections gating more than one track are dropped (see
# _associate_bearings); a claim that survives that filter is near-certainly
# from the gated track's own target, so one receiver suffices -- demanding
# more starves signal histories whenever few nodes listen. Conflicting
# same-step claims (tied modal type) are still skipped.
CORROBORATION_MIN = 1


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
    order must be ascending key so results are deterministic."""
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
    if ni.size == 0 or not coordinator.tracks:
        return 0
    keys = sorted(coordinator.tracks)
    track_xy = np.stack([coordinator.tracks[k].state[:2] for k in keys])
    track_cov = np.stack(
        [coordinator.tracks[k].covariance[:2, :2] for k in keys]
    )
    hit = _associate_bearings(
        world.node_positions[ni][:, :2],
        bearings,
        track_xy,
        track_cov,
        sigma_doa_rad,
    )
    types = np.array([world.targets[j].signal_state for j in ti], dtype=np.int64)
    logged = 0
    for k_i in np.unique(hit[hit >= 0]):
        counts = np.bincount(
            types[hit == k_i], minlength=coordinator.num_signal_states
        )
        top = int(counts.argmax())
        if counts[top] < CORROBORATION_MIN or (counts == counts[top]).sum() > 1:
            continue
        coordinator.tracks[keys[k_i]].record_signal_state(
            top, t, coordinator.num_signal_states
        )
        logged += 1
    return logged


def _attempt_assignments(world: World, coordinator: Coordinator, config: SimConfig):
    for track in coordinator.tracks.values():
        if track.class_assignment is not None:
            continue
        vec = track_parameter_vector(
            track,
            coordinator.num_signal_states,
            config.min_radar_obs,
            config.min_passive_obs,
        )
        if vec is None:
            continue
        track.class_assignment = assign_class(
            coordinator.library, vec, coordinator.accept_radius
        )


def _smoothed_entropy(history, num_states: int) -> float:
    """Normalized entropy of the add-one posterior mean over a short
    categorical history.

    Raw frequencies from a handful of samples are usually degenerate (five
    steps in Cruise reads as zero entropy), which would pay the bandit for
    ignorance; a unit of prior mass spread over the states keeps small
    samples honestly uncertain while letting genuinely one-sided histories
    collapse within ~10 observations. Reward side only -- harvested
    vectors keep raw occupancy."""
    counts = np.bincount(
        np.asarray(history, dtype=np.int64), minlength=num_states
    )
    counts = counts + 1.0 / num_states
    return float(normalized_entropy(counts / counts.sum()))


def _track_uncertainties(coordinator: Coordinator) -> dict:
    """Per-track normalized entropies (motion, signal) under the
    coordinator's best current knowledge. Class centroids stand in once a
    track is classified; thin histories (< 3 observations) count as fully
    uncertain, eta = 1."""
    etas = {}
    for key, tr in coordinator.tracks.items():
        cls = None
        if coordinator.use_class_knowledge and tr.class_assignment is not None:
            cls = coordinator.library.get(tr.class_assignment)
        if cls is not None:
            em = normalized_entropy(block_values(cls.centroid, "pi_v"))
            es = normalized_entropy(block_values(cls.centroid, "pi_s"))
        elif (
            len(tr.motion_state_history) + len(tr.signal_history)
            < MIN_OBSERVATIONS_FOR_ESTIMATE
        ):
            em = es = 1.0
        else:
            em = _smoothed_entropy(tr.motion_state_history, len(MOTION_STATES))
            es = _smoothed_entropy(
                [s for _, s in tr.signal_history],
                coordinator.num_signal_states,
            )
        etas[key] = (float(em), float(es))
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

    for target, cls in zip(world.targets, world.target_classes):
        step_motion(target, cls, dt, streams.world)
        step_signal(target, cls, streams.world)

    positions = np.array([tg.position for tg in world.targets])
    velocities = np.array([tg.velocity for tg in world.targets])
    heading_rates = np.array([tg.heading_rate_radps for tg in world.targets])
    tx_on = np.array([tg.tx_on for tg in world.targets], dtype=bool)
    states = np.array(
        [[tg.motion_state, tg.signal_state] for tg in world.targets], dtype=np.int64
    )
    tape.digest.update(positions.tobytes())
    tape.digest.update(states.tobytes())
    tape.digest.update(tx_on.tobytes())

    ni_r, ti_r, z_r = radar_measure_batch(
        world.node_positions,
        active,
        world.radar_ranges,
        positions,
        velocities,
        heading_rates,
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
    omegas = _fuse_radar(world, coordinator, ni_r, ti_r, z_r, t, dt, config.noise)
    # Histories feed cross-track clustering, so the recorded state must not
    # depend on how this particular track happens to be tuned: a tuned
    # filter reads high-G kicks that an untuned one absorbs into cruise,
    # and mixing both reads splits every true class in two. The measured
    # angular rates alone (flat model prior) give every track the same
    # reading conditions; the filter's own posterior still drives tracking.
    for key in omegas:
        state = int(
            np.argmax(omega_log_evidence(np.asarray(omegas[key])).sum(axis=0))
        )
        coordinator.tracks[key].record_motion_state(state, t)
    _apply_passive(
        world, coordinator, ni_p, ti_p, bearings, t, config.noise.sigma_doa_rad
    )

    for key, tr in coordinator.tracks.items():
        est = tr.state
        tape.est.setdefault(key, []).append(np.array(est[:3]))
        tape.truth.setdefault(key, []).append(
            world.targets[world.index_by_id[key]].position.copy()
        )

    if (
        coordinator.use_class_knowledge
        and coordinator.library.classes
        and t % ASSIGN_PERIOD == 0
    ):
        _attempt_assignments(world, coordinator, config)

    # rewards: remaining uncertainty (motion for the radar arm, signal for
    # the passive arm) averaged over the tracks inside each node's radar
    # footprint; a node with an empty footprint earns nothing either way
    etas = _track_uncertainties(coordinator)
    keys = list(etas)
    rewards = np.zeros(N)
    if keys:
        track_xy = np.array([coordinator.tracks[k].state[:2] for k in keys])
        eta_arr = np.array([etas[k] for k in keys])  # (T, 2) motion, signal
        d = np.linalg.norm(
            world.node_positions[:, None, :2] - track_xy[None, :, :], axis=2
        )
        covered = d <= world.radar_ranges[:, None]  # (N, T)
        counts = covered.sum(axis=1)
        sums = covered @ eta_arr  # (N, 2)
        has = counts > 0
        arm = np.where(active, 0, 1)
        rewards[has] = sums[has, arm[has]] / counts[has]
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
    rmse_per_target: np.ndarray  # one entry per track, sorted by target key
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
    coordinator = make_coordinator(library, world, policy, config)
    tape = _EpochTape()
    steps = config.steps_per_epoch
    for t in range(1, steps + 1):
        run_step(world, coordinator, policy, t, streams, config, tape)

    keys = sorted(tape.est)
    rmse = np.array([track_rmse(tape.est[k], tape.truth[k]) for k in keys])
    modes = np.array(tape.modes)  # (steps, N) bool
    active_steps = int(modes.sum())
    node_steps = steps * world.num_nodes

    if pool is None:
        pool = []
    if pool_true_ids is None:
        pool_true_ids = []
    harvested = 0
    for key in sorted(coordinator.tracks):
        vec = track_parameter_vector(
            coordinator.tracks[key],
            coordinator.num_signal_states,
            config.min_radar_obs,
            config.min_passive_obs,
        )
        if vec is None:
            continue
        pool.append(vec)
        pool_true_ids.append(
            world.targets[world.index_by_id[key]].class_id
        )
        harvested += 1

    new_library = library
    formation, association = 0.0, 0.0
    if pool:
        new_library, assigned = update_library(
            library, pool, streams.library, config.max_classes
        )
        formation, association = score_classes(new_library, assigned, pool_true_ids)
        new_library.epoch_history.append((formation, association))

    metrics = EpochMetrics(
        policy=policy.label,
        num_nodes=world.num_nodes,
        num_targets=world.num_targets,
        num_tracks=len(keys),
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
