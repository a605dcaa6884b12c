"""Scenario generation: region geometry, Poisson point process placement of
radar nodes and targets, and the ground-truth target family.

A target class bundles three Markov chains (motion state, signal type,
transmit on/off) with kinematic limits and an emitter power. A family is a
set of classes over common state spaces whose parameter distributions are
pairwise distinguishable, so behavior observed over an epoch identifies
the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from crnsim.markov import (
    MarkovChain,
    equal_in_state_distribution,
    stationary_distribution,
)
from crnsim.sensing import ReceiverParams

MOTION_STATES = ("CruiseCV", "CoordinatedTurn", "HighGManeuver")
SIGNAL_TYPES = ("UAVControl", "Telemetry", "ADSB", "FMVoice")
TX_STATES = ("On", "Off")

CRUISE_CV, COORD_TURN, HIGH_G = 0, 1, 2
TX_ON, TX_OFF = 0, 1

# two classes are considered distinguishable when at least one parameter
# distribution differs by more than this (total-variation scale)
FAMILY_SEPARATION = 0.15


class DegenerateScenario(ValueError):
    """PPP draw produced an unusable scenario (no nodes or no targets)."""


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle; targets and nodes spawn inside it."""

    width_km: float = 10.0
    height_km: float = 10.0

    def __post_init__(self):
        if self.width_km <= 0 or self.height_km <= 0:
            raise ValueError("region dimensions must be positive")

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
    class_id: int
    name: str
    motion_chain: MarkovChain
    signal_chain: MarkovChain
    tx_chain: MarkovChain
    tx_power_w: float
    # per-motion-state acceleration noise, m/s^2
    process_noise: np.ndarray
    speed_range_mps: tuple[float, float]
    altitude_range_m: tuple[float, float]
    turn_rate_range_radps: tuple[float, float]
    tx_gain: float = 1.0

    def __post_init__(self):
        if self.tx_power_w <= 0:
            raise ValueError("transmit power must be positive")
        noise = np.asarray(self.process_noise, dtype=float)
        if noise.ndim != 1 or noise.size != self.motion_chain.num_states:
            raise ValueError("process noise must list one std per motion state")
        if np.any(noise < 0):
            raise ValueError("process noise must be nonnegative")
        object.__setattr__(self, "process_noise", noise)
        for lo, hi in (self.speed_range_mps, self.altitude_range_m,
                       self.turn_rate_range_radps):
            if not 0 <= lo <= hi:
                raise ValueError("ranges must satisfy 0 <= lo <= hi")

    def parameter_distributions(self) -> list[np.ndarray]:
        """Every distribution this class is described by: the three
        stationary distributions followed by all transition rows."""
        out = []
        for chain in (self.motion_chain, self.signal_chain, self.tx_chain):
            out.append(stationary_distribution(chain))
        for chain in (self.motion_chain, self.signal_chain, self.tx_chain):
            out.extend(chain.transition)
        return out


@dataclass(frozen=True)
class TargetFamily:
    classes: tuple[TargetClass, ...]
    motion_state_count: int = len(MOTION_STATES)
    signal_state_count: int = len(SIGNAL_TYPES)

    def __post_init__(self):
        if not self.classes:
            raise ValueError("family needs at least one class")
        for cls in self.classes:
            if cls.motion_chain.num_states != self.motion_state_count:
                raise ValueError(f"{cls.name}: wrong motion state count")
            if cls.signal_chain.num_states != self.signal_state_count:
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
        return all(
            equal_in_state_distribution(da, db, FAMILY_SEPARATION)
            for da, db in zip(a.parameter_distributions(), b.parameter_distributions())
        )

    def class_by_id(self, class_id: int) -> TargetClass:
        for cls in self.classes:
            if cls.class_id == class_id:
                return cls
        raise KeyError(class_id)


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


@dataclass(frozen=True, eq=False)
class Node:
    node_id: int
    position: np.ndarray  # [x, y, 0] m
    radar_range_m: float = 4000.0


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
        if self.node_density_per_km2 < 0 or self.target_density_per_km2 < 0:
            raise ValueError("densities must be nonnegative")
        if self.radar_range_km <= 0:
            raise ValueError("radar range must be positive")


def sample_ppp(
    density_per_km2: float, region: Region, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson point process over the region.

    Returns an (n, 2) array of xy positions in meters; n ~ Poisson(density
    times area), points i.i.d. uniform.
    """
    if density_per_km2 < 0:
        raise ValueError("density must be nonnegative")
    n = rng.poisson(density_per_km2 * region.area_km2)
    pts = np.empty((n, 2))
    pts[:, 0] = rng.uniform(0.0, region.width_m, n)
    pts[:, 1] = rng.uniform(0.0, region.height_m, n)
    return pts


def chain_from_stationary(
    pi, persistence: float, labels: Optional[tuple[str, ...]] = None
) -> MarkovChain:
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
    return MarkovChain(P, labels=labels)


def default_family() -> TargetFamily:
    """Three-class family: consumer UAV, general aviation, high-altitude
    balloon.

    The UAV is mid-altitude and dynamic with emissions concentrated on
    control/telemetry; general aviation is low-altitude and stable,
    emitting ADS-B and FM voice; the balloon barely maneuvers and mostly
    sends telemetry. Motion/signal chains are built to hit these stationary
    distributions exactly; tx chains set each emitter's duty cycle.
    """
    uav = TargetClass(
        class_id=0,
        name="UAV",
        motion_chain=chain_from_stationary(
            [0.45, 0.35, 0.20], persistence=0.5, labels=MOTION_STATES
        ),
        signal_chain=chain_from_stationary(
            [0.91, 0.06, 0.02, 0.01], persistence=0.30, labels=SIGNAL_TYPES
        ),
        tx_chain=MarkovChain(
            np.array([[0.98, 0.02], [0.18, 0.82]]), labels=TX_STATES
        ),  # 90% duty cycle
        tx_power_w=0.1,
        # kinematic envelope: cruise jitter stays under the ~4.5 deg/s
        # cruise/turn boundary at the slowest speed and turn rates sit
        # inside (5, 30) deg/s, but high-G kicks overlap the turn band:
        # about a fifth of high-G steps realize 4.5-30 deg/s of heading
        # rate (10th percentile ~13 deg/s), so one step's reading cannot
        # separate them; the mode-chain prior that
        # tracking.infer_motion_state carries from earlier steps does
        process_noise=np.array([0.4, 9.0, 60.0]),
        speed_range_mps=(15.0, 35.0),
        altitude_range_m=(200.0, 1200.0),
        turn_rate_range_radps=(0.15, 0.45),
    )
    ga = TargetClass(
        class_id=1,
        name="GeneralAviation",
        motion_chain=chain_from_stationary(
            [0.55, 0.35, 0.10], persistence=0.5, labels=MOTION_STATES
        ),
        signal_chain=chain_from_stationary(
            [0.01, 0.02, 0.92, 0.05], persistence=0.30, labels=SIGNAL_TYPES
        ),
        tx_chain=MarkovChain(
            np.array([[0.90, 0.10], [0.10, 0.90]]), labels=TX_STATES
        ),  # 50% duty cycle
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
        motion_chain=chain_from_stationary(
            [0.80, 0.15, 0.05], persistence=0.5, labels=MOTION_STATES
        ),
        signal_chain=chain_from_stationary(
            [0.01, 0.95, 0.02, 0.02], persistence=0.30, labels=SIGNAL_TYPES
        ),
        tx_chain=MarkovChain(
            np.array([[0.86, 0.14], [0.06, 0.94]]), labels=TX_STATES
        ),  # 30% duty cycle
        tx_power_w=1.0,
        process_noise=np.array([0.05, 0.75, 1.0]),
        speed_range_mps=(3.0, 8.0),
        altitude_range_m=(2000.0, 5000.0),
        turn_rate_range_radps=(0.10, 0.20),
    )
    return TargetFamily(classes=(uav, ga, balloon))


def spawn_scenario(
    config: ScenarioConfig, rng: np.random.Generator
) -> tuple[list[Node], list[Target]]:
    """Draw one scenario: node and target positions from independent PPPs,
    classes uniform over the family, initial chain states from the
    stationary distributions, speed/heading uniform within class limits.
    """
    node_xy = sample_ppp(config.node_density_per_km2, config.region, rng)
    target_xy = sample_ppp(config.target_density_per_km2, config.region, rng)
    if len(node_xy) == 0 or len(target_xy) == 0:
        raise DegenerateScenario(
            f"drew {len(node_xy)} nodes and {len(target_xy)} targets"
        )
    nodes = [
        Node(
            node_id=i,
            position=np.array([xy[0], xy[1], 0.0]),
            radar_range_m=config.radar_range_km * 1000.0,
        )
        for i, xy in enumerate(node_xy)
    ]
    family = config.family
    stationaries = {
        cls.class_id: (
            stationary_distribution(cls.motion_chain),
            stationary_distribution(cls.signal_chain),
            stationary_distribution(cls.tx_chain),
        )
        for cls in family.classes
    }
    targets = []
    for j, xy in enumerate(target_xy):
        cls = family.classes[rng.integers(len(family.classes))]
        pi_v, pi_s, pi_tx = stationaries[cls.class_id]
        motion_state = int(rng.choice(pi_v.size, p=pi_v))
        speed = rng.uniform(*cls.speed_range_mps)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        turn_rate = 0.0
        if motion_state == COORD_TURN:
            turn_rate = rng.uniform(*cls.turn_rate_range_radps) * rng.choice([-1, 1])
        targets.append(
            Target(
                target_id=j,
                class_id=cls.class_id,
                position=np.array(
                    [xy[0], xy[1], rng.uniform(*cls.altitude_range_m)]
                ),
                velocity=speed
                * np.array([np.cos(heading), np.sin(heading), 0.0]),
                motion_state=motion_state,
                signal_state=int(rng.choice(pi_s.size, p=pi_s)),
                tx_on=bool(rng.choice(2, p=pi_tx) == TX_ON),
                turn_rate_radps=turn_rate,
            )
        )
    return nodes, targets
