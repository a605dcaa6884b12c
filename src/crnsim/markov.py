"""Finite Markov chains: construction, sampling, stationary distributions,
smoothed transition estimates from counts, and normalized entropy.

Every target parameter in the simulation (motion state, signal type,
transmit on/off) is modeled as a finite chain, so this module is the
substrate the rest of the package builds on. All randomness is threaded
through caller-supplied numpy Generators; nothing here holds hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ROW_SUM_TOL = 1e-9


class NonUniqueStationary(ValueError):
    """Chain has two or more closed communicating classes."""


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Row-stochastic transition matrix over a finite state space.

    `row_cdf` holds each row's cumulative distribution, built the way
    `Generator.choice` builds it (cumsum, then divide by the last entry),
    so that `sample_next` can draw without calling `choice`. `stationary`
    is solved on first use and kept. Chains compare
    by identity: a generated `==` would compare the arrays inside a tuple
    and raise."""

    transition: np.ndarray
    row_cdf: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
            raise ValueError(f"transition must be a square matrix, got shape {P.shape}")
        if not np.all(np.isfinite(P)):
            raise ValueError("transition entries must be finite")
        if np.any(P < -ROW_SUM_TOL) or np.any(P > 1 + ROW_SUM_TOL):
            raise ValueError("transition entries must lie in [0, 1]")
        rowsums = P.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > ROW_SUM_TOL):
            raise ValueError(f"transition rows must sum to 1, got {rowsums}")
        P = np.clip(P, 0.0, 1.0)
        P.setflags(write=False)
        object.__setattr__(self, "transition", P)
        cdf = np.cumsum(P, axis=1)
        cdf /= cdf[:, -1:]
        cdf.setflags(write=False)
        object.__setattr__(self, "row_cdf", cdf)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def stationary(self) -> np.ndarray:
        """The stationary distribution, read-only: pi P = pi, sum(pi) = 1,
        solved by direct linear solve. Raises NonUniqueStationary when the
        chain has two or more closed communicating classes (the fixed point
        is then not unique)."""
        pi = _solve_stationary(self.transition)
        pi.setflags(write=False)
        return pi


def _closed_class_count(P: np.ndarray) -> int:
    """Number of closed communicating classes of the chain's support graph.

    `reach[i, j]` says whether state j can be reached from state i; it is
    the one-step reachability `I | P > 0` squared until it stops growing. A
    state lies in a closed class when every state it reaches reaches it
    back, and the states of one closed class reach exactly that class, so
    the closed classes are the distinct reach-rows of those states."""
    reach = np.eye(P.shape[0], dtype=bool) | (P > 0)
    while True:
        longer = reach @ reach
        if np.array_equal(longer, reach):
            break
        reach = longer
    closed = ~np.any(reach & ~reach.T, axis=1)
    return len(np.unique(reach[closed], axis=0))


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    p = P.shape[0]
    if p == 1:
        return np.array([1.0])
    if _closed_class_count(P) > 1:
        raise NonUniqueStationary("chain has multiple closed communicating classes")
    # stack (P^T - I) with the normalization row and solve least squares
    A = np.vstack([P.T - np.eye(p), np.ones((1, p))])
    b = np.zeros(p + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def inverse_cdf(row_cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The state each uniform draw selects from its row CDF: `row_cdf`
    (T, S) and `u` (T,) give (T,), the number of CDF entries at or below
    `u`. For a non-decreasing row that is
    `row.searchsorted(u, side="right")`, which is how `Generator.choice`
    inverts its CDF, so zero-probability states are never drawn."""
    return (row_cdf <= u[:, None]).sum(axis=1)


def sample_next(
    row_cdfs: np.ndarray, current: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw the successor of each state in `current` (T,) from its chain's
    transition row: `row_cdfs` (T, S, S) holds one chain's `row_cdf` per
    draw (a target table keeps its rows' class chains this way). All draws
    come from one `rng.random(current.shape)` call and are inverted at each
    state's cached row CDF (`inverse_cdf`). For one state that is what
    `rng.choice(n, p=row)` does: the same state comes out and the generator
    advances the same way. Nothing that `choice` checks is lost: it wants
    finite, non-negative entries summing to 1 within sqrt(eps) ~ 1.5e-8, and
    `MarkovChain` already requires finite rows summing to 1 within
    ROW_SUM_TOL = 1e-9 and clips entries to [0, 1]. Returns the (T,) next
    states."""
    rows = row_cdfs[np.arange(current.size), current]
    return inverse_cdf(rows, rng.random(current.shape))


def transition_matrix_from_counts(
    counts: np.ndarray, smoothing: float = 1.0
) -> np.ndarray:
    """Additive-smoothing estimate from a count array: row i is
    (count(i->j) + smoothing) / (count(i->.) + p*smoothing) over the p
    columns. Every row needs mass, which any smoothing > 0 gives. A row is
    the last axis, one distribution's counts; any number of rows works,
    none included, and so does a stack of count matrices."""
    counts = counts + smoothing
    return counts / counts.sum(axis=-1, keepdims=True)


def normalized_entropy(dist: np.ndarray) -> np.ndarray:
    """Shannon entropy divided by log2 of the state count, in [0, 1].

    Takes a float array of one distribution per row over the last axis, of
    at least two states, and returns one value per row. Degenerate
    distributions give 0, uniform gives 1. Zero entries add nothing
    (0 log 0 = 0). Rounding can push a uniform distribution's sum just past
    log2 of the state count (11 states give 1 + 2**-52), so values are
    clamped to 1: callers such as bandit rewards rely on the bound.
    """
    pos = dist > 0
    terms = np.where(pos, dist * np.log2(np.where(pos, dist, 1.0)), 0.0)
    return np.minimum(-terms.sum(axis=-1) / np.log2(dist.shape[-1]), 1.0)
