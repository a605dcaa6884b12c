"""End-of-epoch class learning over per-target behavior vectors.

Each observed target contributes one behavior vector, a row of the (B, L)
batch `vectors_from_counts` builds from the count tables the coordinator
keeps per track: how often each motion state and signal type was read, and
how often each state followed another in adjacent steps. A vector holds the
estimated stationary distributions (primary blocks) plus the rows of the
estimated transition matrices (half-weight blocks — stationary behavior
defines a class, transition structure only helps separate classes that
happen to share it) in the `family_blocks(V, S)` layout, and beside it one
evidence entry per block. This is the only place that turns observed
behavior into a vector; tracks only count readings.

Class learning works on tables, never on one object per vector or per
class. The cumulative pool is (N, L) values with (N, blocks) evidence;
`update_library` re-clusters it by k-means (`kmeans_distributions`, (N,)
assignments and (k, L) centroids), chooses the cluster count by AIC, and
returns a new `ClassLibrary`: ascending class ids (k,), centroids (k, L)
and the block layout. The classes persist across epochs: each update keeps
ids stable by matching new centroids to old ones. `assign_class` scores a
(B, L) batch against the centroids and returns each vector's library row.
A learned class carries enough structure to tune a filter bank:
`ClassLibrary.mode_transitions()` stacks every centroid's motion-transition
rows as an IMM mixing chain, and the engine pairs them with the per-state
default acceleration levels as process noise.

Lloyd fits under the weighted KL divergence KL(p || c), a Bregman
divergence: the blockwise mean is its exact minimiser, so each Lloyd run
decreases its objective monotonically (Banerjee, Merugu, Dhillon & Ghosh,
"Clustering with Bregman divergences", JMLR 2005), and the point-to-centroid
term is one matmul. Distances that are scored -- class assignment and
matching new classes to old ones -- are the weighted Jensen-Shannon
divergence. The block layout enters every kernel only as per-element
weights: each block's weight (or evidence) repeated over its elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp, xlogy

from crnsim.markov import transition_matrix_from_counts

DEFAULT_ACCEPT_RADIUS = 0.25
MAX_CLASSES = 6
KMEANS_MAX_ITER = 100
KMEANS_RESTARTS = 10
EM_MAX_ITER = 50
EM_TOL = 1e-6
TRANSITION_BLOCK_WEIGHT = 0.5

_LN2 = math.log(2.0)


class BlockMismatch(ValueError):
    """Vectors with different block structures were combined."""


class TooFewPoints(ValueError):
    """More clusters requested than vectors available."""


@dataclass(frozen=True)
class BlockSpec:
    """One distribution block inside a behavior vector."""

    name: str
    length: int
    weight: float = 1.0


def family_blocks(
    num_motion_states: int = 3, num_signal_states: int = 4
) -> tuple[BlockSpec, ...]:
    """Block layout shared by every vector of a single-family environment."""
    v, s = num_motion_states, num_signal_states
    blocks = [BlockSpec("pi_v", v), BlockSpec("pi_s", s)]
    blocks += [BlockSpec(f"P_v_row{i}", v, TRANSITION_BLOCK_WEIGHT) for i in range(v)]
    blocks += [BlockSpec(f"P_s_row{i}", s, TRANSITION_BLOCK_WEIGHT) for i in range(s)]
    return tuple(blocks)


def occupancy_sample_size(n_steps, occupancy, transition):
    """Effective number of independent draws behind an occupancy estimate.

    A persistent chain revisits its current state, so n_steps observations
    carry far less evidence about the stationary distribution than n_steps
    iid draws would; pretending otherwise makes the AIC likelihood read
    ordinary between-target scatter as class structure. Discounts by the
    mean self-transition probability rho: n * (1 - rho) / (1 + rho), and
    0 where n_steps is 0.

    rho is deliberately the raw self-transition mass, not the excess over
    chance agreement: the overshoot (an iid chain already gets rho > 0)
    doubles as slack for the cross-correlation between the occupancy and
    transition-row estimates, which all come from the same short path.

    Takes one estimate per leading index: n_steps (...), occupancy (..., S)
    and transition (..., S, S) give (...).
    """
    n = np.asarray(n_steps, dtype=float)
    diagonal = np.diagonal(np.asarray(transition, dtype=float), axis1=-2, axis2=-1)
    rho = (np.asarray(occupancy, dtype=float) * diagonal).sum(axis=-1)
    return np.where(n > 0, n * (1.0 - rho) / (1.0 + rho), 0.0)


def _channel_estimates(counts: np.ndarray, transitions: np.ndarray):
    """Occupancy (B, S), add-one transition matrices flattened row by row
    (B, S * S), discounted occupancy sample sizes (B,) and per-source
    transition counts (B, S) of one reading channel of B tracks."""
    B, S = counts.shape
    n = counts.sum(axis=1)
    occupancy = counts / n[:, None]
    transitions = transitions.astype(float)
    P = transition_matrix_from_counts(transitions)
    return (
        occupancy,
        P.reshape(B, S * S),
        occupancy_sample_size(n, occupancy, P),
        transitions.sum(axis=2),
    )


def vectors_from_counts(
    motion_counts: np.ndarray,
    motion_transitions: np.ndarray,
    signal_counts: np.ndarray,
    signal_transitions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Behavior vectors of B tracks from their reading counts: occupancy
    counts (B, V) and (B, S), and counts of transitions between readings in
    adjacent steps (B, V, V) and (B, S, S); every track has at least one
    reading of each kind. Returns the (B, L) values in `family_blocks(V, S)`
    order -- occupancies, add-one transition matrices -- and the (B, blocks)
    evidence: the discounted occupancy sample sizes, then the transitions
    counted out of each source state."""
    pi_v, P_v, n_v, rows_v = _channel_estimates(motion_counts, motion_transitions)
    pi_s, P_s, n_s, rows_s = _channel_estimates(signal_counts, signal_transitions)
    values = np.concatenate([pi_v, pi_s, P_v, P_s], axis=1)
    return values, np.column_stack([n_v, n_s, rows_v, rows_s])


# --- distance ---


def _spread(per_block, blocks) -> np.ndarray:
    """Per-block entries (..., blocks) repeated over each block's elements:
    (..., L)."""
    return np.repeat(per_block, [b.length for b in blocks], axis=-1)


def _distance_matrix(
    points: np.ndarray, centroids: np.ndarray, blocks
) -> np.ndarray:
    """Weighted JSD in bits between every point (N, L) and centroid (K, L):
    (N, K), from the (N, K, L) midpoints.

    Each sum over elements runs along one row in the same order for every
    row (a matmul would not), so equal vectors score exactly equal and a
    vector is at distance 0 from itself."""
    w = _spread([b.weight for b in blocks], blocks)

    def neg_entropy(x):
        return (xlogy(x, x) * w).sum(axis=-1)

    mid = 0.5 * (points[:, None] + centroids[None])
    jsd = (
        0.5 * neg_entropy(points)[:, None]
        + 0.5 * neg_entropy(centroids)[None]
        - neg_entropy(mid)
    )
    return np.maximum(jsd / _LN2, 0.0)


# --- clustering ---


def _log_centroids(centroids: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(centroids, 1e-12))


def _lloyd(
    points: np.ndarray, k: int, blocks, rng
) -> tuple[np.ndarray, np.ndarray, float, list]:
    """One Lloyd run under weighted KL from k distinct random points of the
    pool.

    Assignment needs only the cross-entropy -(w p) . log c, one (N, k)
    matmul per iteration; the per-point constant w . p log p completes the
    KL for the objective and for picking the worst-fit point. Returns the
    assignments, centroids, final objective and the objective of every
    iteration."""
    n = points.shape[0]
    w = _spread([b.weight for b in blocks], blocks)
    weighted = points * w
    self_term = xlogy(points, points) @ w
    rows = np.arange(n)

    def cross_entropy(centroids):
        return -(weighted @ _log_centroids(centroids).T)

    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    objective_trace = []
    for _ in range(KMEANS_MAX_ITER):
        cross = cross_entropy(centroids)
        new_assign = np.argmin(cross, axis=1)
        fit = self_term + cross[rows, new_assign]
        objective_trace.append(float(fit.sum()))
        for c in range(k):
            members = new_assign == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                # re-seed an empty cluster with the worst-fit point
                worst = int(np.argmax(fit))
                centroids[c] = points[worst]
                new_assign[worst] = c
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    objective = float((self_term + cross_entropy(centroids)[rows, assign]).sum())
    return assign, centroids, objective, objective_trace


def kmeans_distributions(
    points: np.ndarray, k: int, blocks, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd k-means of the (N, L) points under weighted KL, best of 10
    restarts.

    Returns the (N,) assignments and the (k, L) centroids; centroids are
    blockwise means, so they remain valid distributions.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(points):
        raise TooFewPoints(f"k={k} exceeds {len(points)} vectors")
    best = None
    for _ in range(KMEANS_RESTARTS):
        assign, cents, objective, _ = _lloyd(points, k, blocks, rng)
        if best is None or objective < best[2]:
            best = (assign, cents, objective)
    return best[0], best[1]


def _pool_log_likelihood(
    points: np.ndarray,
    evidence: np.ndarray,
    assign: np.ndarray,
    centroids: np.ndarray,
    blocks,
) -> float:
    """Mixture log-likelihood of the pool, EM-polished from the k-means fit.

    Each member scores every block as a categorical sample of its effective
    size (the block's evidence) under a component's centroid: with the
    evidence spread over the elements, all blocks and components are one
    matmul.

    Scoring the hard k-means quantisation directly is useless for model
    order selection: splitting one class along its sampling noise moves
    every member a little closer to a sub-centroid, so the assigned-centroid
    likelihood grows linearly with pool size and swamps any fixed AIC
    penalty.  Running EM from the k-means solution lets redundant
    sub-components re-broaden (soft responsibilities wash the split out),
    while genuinely distinct classes keep near-hard memberships, so only
    real structure earns likelihood."""
    k = centroids.shape[0]
    n = points.shape[0]
    weights = np.bincount(assign, minlength=k).astype(float) / n
    cents = centroids.copy()
    counts = _spread(evidence, blocks) * points
    prev = -np.inf
    for _ in range(EM_MAX_ITER):
        with np.errstate(divide="ignore"):
            logits = counts @ _log_centroids(cents).T + np.log(weights)
        norm = logsumexp(logits, axis=1)
        logl = float(norm.sum())
        if logl - prev < EM_TOL * max(1.0, abs(logl)):
            return max(logl, prev)
        prev = logl
        resp = np.exp(logits - norm[:, None])
        weights = resp.mean(axis=0)
        denom = _spread(resp.T @ evidence, blocks)
        np.divide(resp.T @ counts, denom, out=cents, where=denom > 1e-12)
    return prev


def _fit_pool(points: np.ndarray, evidence: np.ndarray, blocks, rng):
    """k-means fits of the (N, L) points for k = 1..MAX_CLASSES; returns the
    AIC winner (ties favor smaller k) as (aic, k, (N,) assignments, (k, L)
    centroids)."""
    if not len(points):
        raise TooFewPoints("no vectors to cluster")
    d = sum(b.length - 1 for b in blocks)
    best = None
    for k in range(1, min(MAX_CLASSES, len(points)) + 1):
        assign, centroids = kmeans_distributions(points, k, blocks, rng)
        logl = _pool_log_likelihood(points, evidence, assign, centroids, blocks)
        aic = 2.0 * k * d - 2.0 * logl
        if best is None or aic < best[0]:
            best = (aic, k, assign, centroids)
    return best


def select_k_aic(points: np.ndarray, evidence: np.ndarray, blocks, rng) -> int:
    """Cluster count of the (N, L) points with their (N, blocks) evidence
    minimizing AIC = 2kd - 2 logL over k = 1..MAX_CLASSES."""
    return _fit_pool(points, evidence, blocks, rng)[1]


# --- the library ---


def _empty_ids() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ClassLibrary:
    """Classes learned so far, as one table with a row per class in
    ascending id order: stable class ids (k,) and centroids (k, L) in the
    `blocks` layout. The default is the empty library (k = 0) in the default
    family's layout."""

    blocks: tuple[BlockSpec, ...] = family_blocks()
    ids: np.ndarray = field(default_factory=_empty_ids)
    centroids: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.centroids is None:
            length = sum(b.length for b in self.blocks)
            object.__setattr__(self, "centroids", np.zeros((0, length)))
        if np.any(np.diff(self.ids) <= 0):
            raise ValueError("class ids must be unique and ascending")

    def occupancies(self) -> tuple[np.ndarray, np.ndarray]:
        """The centroids' motion (k, V) and signal (k, S) occupancies: the
        first two blocks of the `family_blocks` layout."""
        v, s = self.blocks[0].length, self.blocks[1].length
        return self.centroids[:, :v], self.centroids[:, v : v + s]

    def mode_transitions(self) -> np.ndarray:
        """The IMM mixing chain of every class (k, V, V): its centroid's
        motion-transition rows (the V blocks after the occupancies),
        renormalized."""
        v, s = self.blocks[0].length, self.blocks[1].length
        P = self.centroids[:, v + s : v + s + v * v].reshape(-1, v, v)
        return P / P.sum(axis=2, keepdims=True)


def _greedy_id_match(centroids: np.ndarray, library: ClassLibrary) -> np.ndarray:
    """Stable class id of each new centroid (k, L): (k,) ids, matched to the
    library's classes nearest-pair-first; unmatched centroids get fresh ids
    above the library's, in index order. All new x old pairs are scored in
    one kernel call; equal distances go to the lower new index, then to the
    old class listed first."""
    ids = np.full(len(centroids), -1, dtype=np.int64)
    old = library.ids
    if old.size:
        dists = _distance_matrix(centroids, library.centroids, library.blocks)
        used = np.zeros(old.size, dtype=bool)
        for flat in np.argsort(dists, axis=None, kind="stable"):
            i, j = divmod(int(flat), old.size)
            if ids[i] < 0 and not used[j]:
                ids[i] = old[j]
                used[j] = True
    fresh = ids < 0
    ids[fresh] = (old[-1] + 1 if old.size else 0) + np.arange(fresh.sum())
    return ids


def update_library(
    library: ClassLibrary, values: np.ndarray, evidence: np.ndarray, blocks, rng
) -> tuple[ClassLibrary, np.ndarray]:
    """Re-cluster the cumulative pool, (N, L) values with their (N, blocks)
    evidence in the `blocks` layout, and rebuild the class table in that
    layout; a non-empty `library` must share it.

    Returns the new library plus each pool vector's assigned class id (N,),
    which callers use to score the epoch.
    """
    _, _, assign, centroids = _fit_pool(values, evidence, blocks, rng)
    ids = _greedy_id_match(centroids, library)
    order = np.argsort(ids)
    new_library = ClassLibrary(
        blocks=blocks, ids=ids[order], centroids=centroids[order]
    )
    return new_library, ids[assign]


def assign_class(
    library: ClassLibrary,
    values: np.ndarray,
    accept_radius: float = DEFAULT_ACCEPT_RADIUS,
) -> np.ndarray:
    """Nearest learned class of each of B vectors (B, L), laid out in the
    library's block structure, within the acceptance radius: (B,) library
    rows, -1 where no class lies within it and for every vector when the
    library is empty.

    All vectors are scored against all centroids in one `_distance_matrix`
    call; ties go to the class listed first."""
    values = np.asarray(values, dtype=float)
    if not library.ids.size:
        return np.full(len(values), -1)
    if values.shape[1] != library.centroids.shape[1]:
        raise BlockMismatch("vectors do not have the library's block structure")
    dists = _distance_matrix(values, library.centroids, library.blocks)
    best = np.argmin(dists, axis=1)
    rows = np.arange(len(values))
    return np.where(dists[rows, best] > accept_radius, -1, best)


def score_classes(
    library: ClassLibrary,
    assigned_ids,
    true_ids,
) -> tuple[float, float]:
    """Formation and association accuracy for one epoch, from each pool
    vector's assigned class id (-1 for none) and true class id.

    Formation compares the learned class count against the true count
    with linear partial credit. Association is the fraction of targets
    whose learned class maps to their true class under the best
    one-to-one matching of learned to true classes.
    """
    assigned_ids, true_ids = np.asarray(assigned_ids), np.asarray(true_ids)
    if assigned_ids.shape != true_ids.shape:
        raise ValueError("assigned and true id lists must align")
    true_labels, t_index = np.unique(true_ids, return_inverse=True)
    k_true = true_labels.size
    formation = max(0.0, 1.0 - abs(library.ids.size - k_true) / k_true)

    classified = assigned_ids >= 0
    learned_labels, l_index = np.unique(assigned_ids[classified], return_inverse=True)
    if not learned_labels.size:
        return formation, 0.0
    cells = t_index[classified] * learned_labels.size + l_index
    confusion = np.bincount(cells, minlength=k_true * learned_labels.size)
    confusion = confusion.reshape(k_true, learned_labels.size).astype(float)
    rows, cols = linear_sum_assignment(-confusion)
    association = float(confusion[rows, cols].sum()) / len(true_ids)
    return formation, association
