"""Scenario generation: region geometry, Poisson point process placement of
radar nodes and targets, and the ground-truth target family.

A target class bundles three Markov chains (motion state, signal type,
transmit on/off) with kinematic limits and an emitter power. A family is a
set of classes over common state spaces whose parameter distributions are
pairwise distinguishable, so behavior observed over an epoch identifies
the class.

A target has one form, its row of a `TargetTable`: `spawn_scenario` draws
each quantity as one column (class, motion state, speed, heading,
altitude, signal type, transmit state), chain states by
`markov.inverse_cdf` as `dynamics` draws them, and `make_target_table`
gathers every per-class parameter, the passive range included, by the one
class index of each row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from crnsim.markov import MarkovChain, inverse_cdf
from crnsim.sensing import ReceiverParams, max_detectable_range

MOTION_STATES = ("CruiseCV", "CoordinatedTurn", "HighGManeuver")
SIGNAL_TYPES = ("UAVControl", "Telemetry", "ADSB", "FMVoice")

CRUISE_CV, COORD_TURN, HIGH_G = 0, 1, 2
TX_ON, TX_OFF = 0, 1

# two classes are considered distinguishable when at least one parameter
# distribution differs by more than this (total-variation scale)
FAMILY_SEPARATION = 0.15

# vertical acceleration noise is this fraction of the horizontal value:
# aircraft maneuver mostly in the horizontal plane. The truth dynamics and
# the tracking filters' process noise both use it.
VERTICAL_NOISE_FRACTION = 0.2


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle; targets and nodes spawn inside it."""

    width_km: float = 10.0
    height_km: float = 10.0

    def __post_init__(self):
        if not (0 < self.width_km < math.inf and 0 < self.height_km < math.inf):
            raise ValueError("region dimensions must be positive and finite")

    @property
    def area_km2(self) -> float:
        return self.width_km * self.height_km

    @property
    def width_m(self) -> float:
        return self.width_km * 1000.0

    @property
    def height_m(self) -> float:
        return self.height_km * 1000.0


@dataclass(frozen=True, eq=False)
class TargetClass:
    """One class of the truth: its three chains, kinematic limits and
    emitter. Immutable, arrays included (`process_noise` is a read-only
    copy, as `MarkovChain` arrays are), so classes and families can be
    shared freely."""

    class_id: int
    name: str
    motion_chain: MarkovChain
    signal_chain: MarkovChain
    tx_chain: MarkovChain
    tx_power_w: float
    # per-motion-state acceleration noise, m/s^2; a turn is a noise-free
    # rotation, so only the tests' tuning oracles read the turn entry
    process_noise: np.ndarray
    speed_range_mps: tuple[float, float]
    altitude_range_m: tuple[float, float]
    turn_rate_range_radps: tuple[float, float]
    tx_gain: float = 1.0

    def __post_init__(self):
        if not (0 < self.tx_power_w < math.inf and 0 < self.tx_gain < math.inf):
            raise ValueError("transmit power and gain must be positive and finite")
        noise = np.array(self.process_noise, dtype=float)
        noise.setflags(write=False)
        if noise.ndim != 1 or noise.size != self.motion_chain.num_states:
            raise ValueError("process noise must list one std per motion state")
        if not np.all((noise >= 0) & (noise < math.inf)):
            raise ValueError("process noise must be nonnegative and finite")
        object.__setattr__(self, "process_noise", noise)
        for lo, hi in (self.speed_range_mps, self.altitude_range_m,
                       self.turn_rate_range_radps):
            if not 0 <= lo <= hi < math.inf:
                raise ValueError("ranges must satisfy 0 <= lo <= hi < inf")

    def parameter_distributions(self) -> list[np.ndarray]:
        """Every distribution this class is described by: the three
        stationary distributions followed by all transition rows."""
        out = []
        for chain in (self.motion_chain, self.signal_chain, self.tx_chain):
            out.append(chain.stationary)
        for chain in (self.motion_chain, self.signal_chain, self.tx_chain):
            out.extend(chain.transition)
        return out


@dataclass(frozen=True)
class TargetFamily:
    """The classes of the truth. Every class's chains run over the same
    state spaces: MOTION_STATES, SIGNAL_TYPES and transmit On/Off, which
    also fix the layout of the behavior vectors class learning clusters."""

    classes: tuple[TargetClass, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("family needs at least one class")
        for cls in self.classes:
            if cls.motion_chain.num_states != len(MOTION_STATES):
                raise ValueError(f"{cls.name}: wrong motion state count")
            if cls.signal_chain.num_states != len(SIGNAL_TYPES):
                raise ValueError(f"{cls.name}: wrong signal state count")
            if cls.tx_chain.num_states != 2:
                raise ValueError(f"{cls.name}: tx chain must be On/Off")
        ids = [c.class_id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise ValueError("class ids must be unique")
        for i, a in enumerate(self.classes):
            for b in self.classes[i + 1:]:
                if self._indistinguishable(a, b):
                    raise ValueError(
                        f"classes {a.name} and {b.name} are equal in state "
                        f"distribution at separation {FAMILY_SEPARATION}"
                    )

    @staticmethod
    def _indistinguishable(a: TargetClass, b: TargetClass) -> bool:
        """Whether every parameter distribution of `a` lies within
        FAMILY_SEPARATION of `b`'s, entry by entry. Both classes run over
        the family's state spaces, so the distributions pair up in shape."""
        return all(
            np.max(np.abs(da - db)) <= FAMILY_SEPARATION
            for da, db in zip(a.parameter_distributions(), b.parameter_distributions())
        )


@dataclass(eq=False)
class TargetTable:
    """The targets of one world, a row per target in spawn order: its truth
    state, which `dynamics` advances in place, and its class's parameters,
    gathered once by `make_target_table`."""

    class_id: np.ndarray  # (T,)
    position: np.ndarray  # (T, 3) m
    velocity: np.ndarray  # (T, 3) m/s
    turn_rate: np.ndarray  # (T,) current coordinated-turn rate, rad/s
    heading_rate: np.ndarray  # (T,) realized heading change over the last step
    motion_state: np.ndarray  # (T,)
    signal_state: np.ndarray  # (T,)
    tx_state: np.ndarray  # (T,) TX_ON or TX_OFF
    # the row CDFs (`MarkovChain.row_cdf`) of each row's class chains
    motion_cdf: np.ndarray  # (T, 3, 3)
    signal_cdf: np.ndarray  # (T, S, S)
    tx_cdf: np.ndarray  # (T, 2, 2)
    process_noise: np.ndarray  # (T, 3) per motion state, turn entry unread
    speed_range: np.ndarray  # (T, 2) m/s
    turn_rate_range: np.ndarray  # (T, 2) rad/s
    passive_range: np.ndarray  # (T,) SNR-limited intercept radius, m

    @property
    def num_targets(self) -> int:
        return self.class_id.size

    @property
    def tx_on(self) -> np.ndarray:
        return self.tx_state == TX_ON


def _gather(per_class, kind: np.ndarray) -> np.ndarray:
    """Per-row floats of a per-class quantity: `per_class` yields one value
    (a float or an array) per class, and row i gets that of `kind[i]`."""
    return np.array([*per_class], dtype=float)[kind]


def make_target_table(
    classes: tuple[TargetClass, ...],
    kind: np.ndarray,
    position: np.ndarray,
    velocity: np.ndarray,
    motion_state: np.ndarray,
    signal_state: np.ndarray,
    tx_state: np.ndarray,
    receiver: ReceiverParams,
) -> TargetTable:
    """Table of T targets in the given truth state, row i of class
    `classes[kind[i]]`, with no turn rate and no heading change yet. Takes
    arrays the table keeps as its columns: int64 `kind`, `motion_state`,
    `signal_state` and `tx_state` (T,), and float `position` and `velocity`
    (T, 3). Every per-class column is gathered by `kind`, the passive range
    too: each class's `max_detectable_range` to `receiver`."""
    budget = (max_detectable_range(c.tx_power_w, c.tx_gain, receiver) for c in classes)
    return TargetTable(
        class_id=np.array([c.class_id for c in classes], dtype=np.int64)[kind],
        position=position,
        velocity=velocity,
        turn_rate=np.zeros(kind.size),
        heading_rate=np.zeros(kind.size),
        motion_state=motion_state,
        signal_state=signal_state,
        tx_state=tx_state,
        motion_cdf=_gather((c.motion_chain.row_cdf for c in classes), kind),
        signal_cdf=_gather((c.signal_chain.row_cdf for c in classes), kind),
        tx_cdf=_gather((c.tx_chain.row_cdf for c in classes), kind),
        process_noise=_gather((c.process_noise for c in classes), kind),
        speed_range=_gather((c.speed_range_mps for c in classes), kind),
        turn_rate_range=_gather((c.turn_rate_range_radps for c in classes), kind),
        passive_range=_gather(budget, kind),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    region: Region = Region()
    node_density_per_km2: float = 0.2
    target_density_per_km2: float = 0.3
    radar_range_km: float = 4.0
    receiver: ReceiverParams = ReceiverParams()
    family: TargetFamily = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.family is None:
            object.__setattr__(self, "family", default_family())
        densities = (self.node_density_per_km2, self.target_density_per_km2)
        if not all(0 <= density < math.inf for density in densities):
            raise ValueError("densities must be nonnegative and finite")
        if not 0 < self.radar_range_km < math.inf:
            raise ValueError("radar range must be positive and finite")


def sample_ppp(
    density_per_km2: float, region: Region, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson point process over the region, at a nonnegative
    density.

    Returns an (n, 2) array of xy positions in meters; n ~ Poisson(density
    times area), points i.i.d. uniform.
    """
    n = rng.poisson(density_per_km2 * region.area_km2)
    pts = np.empty((n, 2))
    pts[:, 0] = rng.uniform(0.0, region.width_m, n)
    pts[:, 1] = rng.uniform(0.0, region.height_m, n)
    return pts


def chain_from_stationary(pi, persistence: float) -> MarkovChain:
    """Chain with the given stationary distribution exactly.

    Each step keeps the current state with probability 1 - persistence and
    otherwise resamples from pi, i.e. P = (1-a) I + a 1 pi^T; stationarity
    and irreducibility (for positive pi) follow by construction.
    """
    pi = np.asarray(pi, dtype=float)
    if not 0 < persistence <= 1:
        raise ValueError("persistence must lie in (0, 1]")
    if np.any(pi <= 0):
        raise ValueError("stationary distribution must be strictly positive")
    P = (1 - persistence) * np.eye(pi.size) + persistence * np.tile(pi, (pi.size, 1))
    return MarkovChain(P)


@functools.cache
def default_family() -> TargetFamily:
    """Three-class family: consumer UAV, general aviation, high-altitude
    balloon. Built and validated once; every call, and every
    `ScenarioConfig` without a family, shares that one immutable instance.

    The UAV is mid-altitude and dynamic with emissions concentrated on
    control/telemetry; general aviation is low-altitude and stable,
    emitting ADS-B and FM voice; the balloon barely maneuvers and mostly
    sends telemetry. Motion/signal chains are built to hit these stationary
    distributions exactly; tx chains set each emitter's duty cycle.
    """
    uav = TargetClass(
        class_id=0,
        name="UAV",
        motion_chain=chain_from_stationary([0.45, 0.35, 0.20], persistence=0.5),
        signal_chain=chain_from_stationary([0.91, 0.06, 0.02, 0.01], persistence=0.30),
        tx_chain=MarkovChain(np.array([[0.98, 0.02], [0.18, 0.82]])),  # 90% duty cycle
        tx_power_w=0.1,
        # kinematic envelope: cruise jitter stays under the ~4.5 deg/s
        # cruise/turn boundary at the slowest speed and turn rates sit
        # inside (5, 30) deg/s, but high-G kicks overlap the turn band:
        # about a fifth of high-G steps realize 4.5-30 deg/s of heading
        # rate (10th percentile ~13 deg/s), so one step's reading cannot
        # separate them; a mode-chain prior carried from earlier steps
        # could, but the engine reads each step with a flat prior so that
        # readings do not depend on how a track is tuned
        process_noise=np.array([0.4, 9.0, 60.0]),
        speed_range_mps=(15.0, 35.0),
        altitude_range_m=(200.0, 1200.0),
        turn_rate_range_radps=(0.15, 0.45),
    )
    ga = TargetClass(
        class_id=1,
        name="GeneralAviation",
        motion_chain=chain_from_stationary([0.55, 0.35, 0.10], persistence=0.5),
        signal_chain=chain_from_stationary([0.01, 0.02, 0.92, 0.05], persistence=0.30),
        tx_chain=MarkovChain(np.array([[0.90, 0.10], [0.10, 0.90]])),  # 50% duty cycle
        tx_power_w=10.0,
        # at these speeds the high-G kick realizes 13-22 deg/s of heading
        # change, so such segments read as turns; that merge is uniform
        # across all class members, which is what the clustering needs
        process_noise=np.array([0.5, 15.0, 15.0]),
        speed_range_mps=(55.0, 90.0),
        altitude_range_m=(50.0, 600.0),
        turn_rate_range_radps=(0.12, 0.25),
    )
    balloon = TargetClass(
        class_id=2,
        name="Balloon",
        motion_chain=chain_from_stationary([0.80, 0.15, 0.05], persistence=0.5),
        signal_chain=chain_from_stationary([0.01, 0.95, 0.02, 0.02], persistence=0.30),
        tx_chain=MarkovChain(np.array([[0.86, 0.14], [0.06, 0.94]])),  # 30% duty cycle
        tx_power_w=1.0,
        process_noise=np.array([0.05, 0.75, 1.0]),
        speed_range_mps=(3.0, 8.0),
        altitude_range_m=(2000.0, 5000.0),
        turn_rate_range_radps=(0.10, 0.20),
    )
    return TargetFamily(classes=(uav, ga, balloon))


def spawn_scenario(
    config: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, TargetTable]:
    """Draw one scenario: node and target positions from independent PPPs,
    then one call per quantity for all T targets, in this order: class
    (uniform over the family), motion state, speed, heading, altitude,
    signal type and transmit state. Speed, heading and altitude are uniform
    within class limits; a state is `inverse_cdf` of one uniform per target
    at its class's stationary CDF, built as `MarkovChain.row_cdf` is. Turn
    rates start at 0: the first `dynamics.step_motion` draws one for every
    target still turning. Returns the (N, 3) node positions, on the ground,
    and the targets. Either PPP may draw no points; an empty draw is a world
    like any other, with a (0, 3) node array or an empty table."""
    node_xy = sample_ppp(config.node_density_per_km2, config.region, rng)
    target_xy = sample_ppp(config.target_density_per_km2, config.region, rng)
    classes = config.family.classes
    T = len(target_xy)
    kind = rng.integers(len(classes), size=T)

    def draw_state(stationaries):
        cdf = np.cumsum(_gather(stationaries, kind), axis=1)
        return inverse_cdf(cdf / cdf[:, -1:], rng.random(T))

    motion = draw_state(c.motion_chain.stationary for c in classes)
    speed = rng.uniform(*_gather((c.speed_range_mps for c in classes), kind).T)
    heading = rng.uniform(0.0, 2.0 * np.pi, T)
    altitude = rng.uniform(*_gather((c.altitude_range_m for c in classes), kind).T)
    signal = draw_state(c.signal_chain.stationary for c in classes)
    # the draw is the state: TX_ON is 0
    tx = draw_state(c.tx_chain.stationary for c in classes)
    velocity = speed[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
    targets = make_target_table(
        classes, kind, np.column_stack([target_xy, altitude]),
        np.column_stack([velocity, np.zeros(T)]), motion, signal, tx, config.receiver,
    )
    return np.column_stack([node_xy, np.zeros(len(node_xy))]), targets
