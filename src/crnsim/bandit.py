"""Per-node mode selection: a two-armed UCB bandit choosing between active
radar and passive spectrum sensing, plus the radar-only and random-p
baseline policies.

Rewards are normalized Shannon entropies of the coordinator's current
distribution estimates, so they are always in [0, 1]: the active arm is
paid by motion-model uncertainty, the passive arm by signal-model
uncertainty, each averaged over the tracks inside the node's radar
footprint (`compute_rewards`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# tracks with fewer observations than this contribute maximum uncertainty,
# pushing nodes to observe unknown targets
MIN_OBSERVATIONS_FOR_ESTIMATE = 3


class OutOfRangeReward(ValueError):
    """Reward outside the unit interval."""


class NodeMode(Enum):
    ACTIVE = 0
    PASSIVE = 1


class PolicyKind(Enum):
    BANDIT = "bandit"
    RADAR_ONLY = "radar-only"
    RANDOM = "random"


@dataclass
class BanditState:
    """Pull counts and running mean rewards for one node's two arms."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros(2, dtype=np.int64))
    means: np.ndarray = field(default_factory=lambda: np.zeros(2))
    total_steps: int = 0


def compute_rewards(
    node_xy: np.ndarray,
    radar_ranges: np.ndarray,
    track_xy,
    etas,
    active: np.ndarray,
) -> np.ndarray:
    """Played-arm reward of every node for one step.

    `etas` holds one (motion, signal) normalized entropy per track, aligned
    with `track_xy`. A node covers the tracks whose horizontal distance is
    within its radar range, and is paid the mean over them of the motion
    column when it played Active (`active` True), of the signal column when
    it played Passive. A node that covers no track earns 0 on either arm.
    Returns an (N,) array.
    """
    rewards = np.zeros(len(node_xy))
    if len(track_xy) == 0:
        return rewards
    track_xy = np.asarray(track_xy, dtype=float)
    eta = np.asarray(etas, dtype=float)  # (T, 2) motion, signal
    d = np.linalg.norm(node_xy[:, None, :] - track_xy[None, :, :], axis=2)
    covered = d <= radar_ranges[:, None]  # (N, T)
    counts = covered.sum(axis=1)
    sums = covered @ eta  # (N, 2)
    has = counts > 0
    arm = np.where(active, 0, 1)
    rewards[has] = sums[has, arm[has]] / counts[has]
    return rewards


def ucb_select(state: BanditState, t: int) -> NodeMode:
    """Pick the arm maximizing mean reward plus the sqrt(log t / N) bonus.

    Unplayed arms are selected first (infinite bonus); ties go to Active.
    """
    if t < 1:
        raise ValueError("t starts at 1")
    if state.counts[NodeMode.ACTIVE.value] == 0:
        return NodeMode.ACTIVE
    if state.counts[NodeMode.PASSIVE.value] == 0:
        return NodeMode.PASSIVE
    bonus = np.sqrt(math.log(t) / state.counts)
    score = state.means + bonus
    if score[NodeMode.ACTIVE.value] >= score[NodeMode.PASSIVE.value]:
        return NodeMode.ACTIVE
    return NodeMode.PASSIVE


def record_reward(state: BanditState, mode: NodeMode, value: float) -> BanditState:
    """Update the played arm's running mean and count in place."""
    if not 0.0 <= value <= 1.0:
        raise OutOfRangeReward(f"reward {value} outside [0, 1]")
    i = mode.value
    state.counts[i] += 1
    state.means[i] += (value - state.means[i]) / state.counts[i]
    state.total_steps += 1
    return state


def baseline_policy(
    kind: PolicyKind, p: float, rng: np.random.Generator
) -> NodeMode:
    """Radar-only always plays Active; random-p plays Active with probability p."""
    if kind is PolicyKind.RADAR_ONLY:
        return NodeMode.ACTIVE
    if kind is PolicyKind.RANDOM:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        return NodeMode.ACTIVE if rng.random() < p else NodeMode.PASSIVE
    raise ValueError(f"not a baseline policy: {kind}")
