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
from dataclasses import dataclass
from enum import Enum

import numpy as np

# tracks with fewer observations than this contribute maximum uncertainty,
# pushing nodes to observe unknown targets
MIN_OBSERVATIONS_FOR_ESTIMATE = 3


class OutOfRangeReward(ValueError):
    """Reward outside the unit interval."""


class PolicyKind(Enum):
    BANDIT = "bandit"
    RADAR_ONLY = "radar-only"
    RANDOM = "random"


# arm columns of the bandit table
ACTIVE, PASSIVE = 0, 1


@dataclass
class BanditState:
    """Every node's two arms as one table, a row per node: pull counts and
    running mean rewards, each (N, 2) with columns ACTIVE and PASSIVE."""

    counts: np.ndarray
    means: np.ndarray

    @classmethod
    def cold(cls, num_nodes: int) -> BanditState:
        """No arm of any node played yet."""
        return cls(np.zeros((num_nodes, 2), dtype=np.int64), np.zeros((num_nodes, 2)))


def compute_rewards(
    node_xy: np.ndarray,
    radar_range_m: float,
    track_xy: np.ndarray,
    etas: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Played-arm reward of every node for one step.

    `etas` is a (T, 2) array of one (motion, signal) normalized entropy per
    track, aligned with the (T, 2) `track_xy`; T may be 0. A node covers
    the tracks whose horizontal distance is within `radar_range_m`, and is
    paid the mean over them of the motion column when it played Active
    (`active` True), of the signal column when it played Passive. A node
    that covers no track, which is every node when there are no tracks,
    earns 0 on either arm. Returns an (N,) array.
    """
    rewards = np.zeros(len(node_xy))
    d = np.linalg.norm(node_xy[:, None, :] - track_xy[None, :, :], axis=2)
    covered = d <= radar_range_m  # (N, T)
    counts = covered.sum(axis=1)
    sums = covered @ etas  # (N, 2)
    has = counts > 0
    arm = np.where(active, ACTIVE, PASSIVE)
    rewards[has] = sums[has, arm[has]] / counts[has]
    return rewards


def ucb_select(state: BanditState, t: int) -> np.ndarray:
    """The (N,) Active mask: each node plays the arm maximizing mean reward
    plus the sqrt(log t / count) bonus.

    Unplayed arms are selected first (infinite bonus), Active before
    Passive; ties go to Active. Needs t >= 1."""
    counts = state.counts
    # rows with an unplayed arm are decided before their score is read
    score = state.means + np.sqrt(math.log(t) / np.maximum(counts, 1))
    return (counts[:, ACTIVE] == 0) | (
        (counts[:, PASSIVE] > 0) & (score[:, ACTIVE] >= score[:, PASSIVE])
    )


def record_reward(
    state: BanditState, active: np.ndarray, rewards: np.ndarray
) -> BanditState:
    """Update every node's played arm (Active where `active` is True) with
    its reward, running mean and count, in place: `active` and the float
    `rewards` are (N,) arrays. Nothing is updated when any reward lies
    outside [0, 1]."""
    bad = ~((rewards >= 0.0) & (rewards <= 1.0))
    if bad.any():
        raise OutOfRangeReward(f"rewards {rewards[bad]} outside [0, 1]")
    rows = np.arange(rewards.size)
    arm = np.where(active, ACTIVE, PASSIVE)
    state.counts[rows, arm] += 1
    means = state.means[rows, arm]
    state.means[rows, arm] = means + (rewards - means) / state.counts[rows, arm]
    return state


def baseline_policy(
    kind: PolicyKind, p: float, num_nodes: int, rng: np.random.Generator
) -> np.ndarray:
    """The (N,) Active mask of a baseline: radar-only plays Active at every
    node; random-p plays Active at each node with probability p, one
    uniform draw per node. Needs a baseline kind (radar-only or random)
    and p in [0, 1]."""
    if kind is PolicyKind.RADAR_ONLY:
        return np.ones(num_nodes, dtype=bool)
    return rng.random(num_nodes) < p
