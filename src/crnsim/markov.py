"""Finite Markov chains: construction, sampling, stationary distributions,
transition estimation from observed state sequences, and normalized entropy.

Every target parameter in the simulation (motion state, signal type,
transmit on/off) is modeled as a finite chain, so this module is the
substrate the rest of the package builds on. All randomness is threaded
through caller-supplied numpy Generators; nothing here holds hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

ROW_SUM_TOL = 1e-9


class NonUniqueStationary(ValueError):
    """Chain has two or more closed communicating classes."""


class EmptySequence(ValueError):
    """State sequence too short to estimate transitions."""


@dataclass(frozen=True)
class MarkovChain:
    """Row-stochastic transition matrix over a finite labeled state space.

    `row_cdf` holds each row's cumulative distribution, built the way
    `Generator.choice` builds it (cumsum, then divide by the last entry),
    so that `sample_next` can draw without calling `choice`."""

    transition: np.ndarray
    labels: tuple[str, ...] = ()
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
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"s{i}" for i in range(P.shape[0]))
            )
        elif len(self.labels) != P.shape[0]:
            raise ValueError("label count must match state count")
        else:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True)
class StateSequence:
    """States observed at consecutive time steps, step_duration seconds apart."""

    states: tuple[int, ...]
    step_duration: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(int(s) for s in self.states))

    def __len__(self) -> int:
        return len(self.states)


def validate_distribution(probs, tol: float = ROW_SUM_TOL) -> np.ndarray:
    """Check a vector is a probability distribution and return it as an array."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("distribution must be a non-empty 1-D vector")
    if np.any(p < -tol) or np.any(p > 1 + tol):
        raise ValueError("distribution entries must lie in [0, 1]")
    if abs(p.sum() - 1.0) > tol:
        raise ValueError(f"distribution must sum to 1, got {p.sum()}")
    return np.clip(p, 0.0, 1.0)


def _closed_class_count(P: np.ndarray) -> int:
    """Number of closed communicating classes of the chain's support graph."""
    adj = (P > 0).astype(np.int8)
    n_comp, comp = connected_components(adj, directed=True, connection="strong")
    closed = 0
    for c in range(n_comp):
        members = comp == c
        # a class is closed when no positive mass leaves it
        if not np.any(adj[members][:, ~members]):
            closed += 1
    return closed


def stationary_distribution(chain: MarkovChain) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by direct linear solve.

    Raises NonUniqueStationary when the chain has two or more closed
    communicating classes (the fixed point is then not unique).
    """
    P = chain.transition
    p = chain.num_states
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


def sample_next(chain: MarkovChain, current: int, rng: np.random.Generator) -> int:
    """Draw the successor state of `current` from the chain's transition row.

    Inverts the row's cached CDF at one `rng.random()` draw, which is what
    `rng.choice(n, p=row)` does: the same states come out and the generator
    advances the same way. Nothing that `choice` checks is lost: it wants
    finite, non-negative entries summing to 1 within sqrt(eps) ~ 1.5e-8, and
    `MarkovChain` already requires finite rows summing to 1 within
    ROW_SUM_TOL = 1e-9 and clips entries to [0, 1]."""
    return int(chain.row_cdf[current].searchsorted(rng.random(), side="right"))


def sample_path(
    chain: MarkovChain,
    length: int,
    init: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sample a state path of the given length; init defaults to a stationary draw."""
    if rng is None:
        rng = np.random.default_rng()
    cum = np.cumsum(chain.transition, axis=1)
    path = np.empty(length, dtype=np.int64)
    if init is None:
        init = int(rng.choice(chain.num_states, p=stationary_distribution(chain)))
    path[0] = init
    u = rng.random(length)
    for t in range(1, length):
        path[t] = np.searchsorted(cum[path[t - 1]], u[t], side="right")
    return path


def estimate_transitions(
    seq: StateSequence, num_states: int, smoothing: float = 1.0
) -> MarkovChain:
    """Estimate a transition matrix from an observed path by additive smoothing.

    Row i is (count(i->j) + smoothing) / (count(i->.) + p*smoothing). Rows that
    were never visited (and smoothing == 0) fall back to uniform.
    """
    if len(seq) < 2:
        raise EmptySequence("need at least two observations to count a transition")
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    states = np.asarray(seq.states, dtype=np.int64)
    if states.min() < 0 or states.max() >= num_states:
        raise ValueError("sequence contains states outside [0, num_states)")
    counts = np.zeros((num_states, num_states))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    counts += smoothing
    totals = counts.sum(axis=1, keepdims=True)
    P = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 1.0 / num_states)
    return MarkovChain(P)


def transition_matrix_from_counts(
    counts: np.ndarray, smoothing: float = 1.0
) -> np.ndarray:
    """Same estimator as estimate_transitions, applied to a pre-built count
    matrix. Unvisited rows come out uniform."""
    counts = np.asarray(counts, dtype=float) + smoothing
    p = counts.shape[0]
    totals = counts.sum(axis=1, keepdims=True)
    return np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 1.0 / p)


def normalized_entropy(dist) -> float:
    """Shannon entropy divided by log2 of the state count, in [0, 1].

    Degenerate distributions give 0, uniform gives 1; single-state
    distributions return 0 by convention.
    """
    p = np.asarray(dist, dtype=float)
    n = p.size
    if n < 2:
        return 0.0
    nz = p[p > 0]
    h = -np.sum(nz * np.log2(nz))
    return float(h / np.log2(n))


def equal_in_state_distribution(a, b, tol: float) -> bool:
    """True iff the two distributions have equal length and agree within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol)
