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
`update_library` re-clusters it by k-means under a summed Jensen-Shannon
divergence (`kmeans_distributions`, (N,) assignments and (k, L)
centroids), chooses the cluster count by AIC, and returns a new
`ClassLibrary`: ascending class ids (k,), centroids (k, L), member counts
(k,) and the block layout. The classes persist across epochs: each update
keeps ids stable by matching new centroids to old ones. `assign_class`
scores a (B, L) batch against the centroids and returns each vector's
library row. A learned class carries enough structure to tune a filter
bank: `ClassLibrary.mode_transitions()` stacks every centroid's
motion-transition rows as an IMM mixing chain, and the engine pairs them
with the per-state default acceleration levels as process noise.

The distance and likelihood kernels work on all blocks at once (see
`_blocked`) and are bit-exact: every float they produce equals the one a
per-block loop over slices gives, so the fast paths change no result. Two
rules keep it so. Each block is summed strictly left to right, the order
numpy's `.sum(axis=-1)` uses on a slice (`np.add.reduceat` and pairwise
sums group the terms differently). Per-block results are combined by a
sequential `out += w_b * x[..., b]` in block order, never by a sum over the
block axis. Every kernel is elementwise across vectors, so a vector scores
the same alone as in any batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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


def _block_slices(blocks):
    offset = 0
    for b in blocks:
        yield b, slice(offset, offset + b.length)
        offset += b.length


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


@functools.lru_cache(maxsize=None)
def _block_layout(blocks: tuple[BlockSpec, ...]) -> np.ndarray:
    """Gather index (W, B): entry [j, b] is the position of element j of
    block b in the concatenated vector, W the longest block length. Past a
    block's end it is L, the index of an appended zero."""
    width = max(b.length for b in blocks)
    index = np.full((width, len(blocks)), sum(b.length for b in blocks))
    for i, (b, sl) in enumerate(_block_slices(blocks)):
        index[: b.length, i] = np.arange(sl.start, sl.stop)
    index.setflags(write=False)
    return index


def _blocked(x: np.ndarray, blocks) -> np.ndarray:
    """(..., L) vectors in blocked form (W, ..., B): slice j holds element j
    of every block, so a kernel can walk all blocks one element position at
    a time. The zero padding adds an exact 0 to every block sum below."""
    padded = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    return np.ascontiguousarray(np.moveaxis(padded[..., _block_layout(blocks)], -2, 0))


def _entropy_bits(columns) -> np.ndarray:
    """Base-2 entropy of every block, from the (..., B) slices of a blocked
    array in position order. Each block's x log x terms are added strictly
    left to right, ((a + b) + c) + d: the order `.sum(axis=-1)` gives the
    block's own slice. The slices are overwritten, so pass a copy; they may
    all be one reused buffer."""
    total = None
    for c in columns:
        xlogy(c, c, out=c)
        if total is None:
            total = c.copy()
        else:
            total += c
    np.negative(total, out=total)
    total /= _LN2
    return total


class _BlockedPool(NamedTuple):
    """Pool points in blocked form with their block entropies, computed
    once and shared by every distance evaluation against the pool."""

    values: np.ndarray  # (W, N, B)
    entropy: np.ndarray  # (N, B)


def _blocked_pool(points: np.ndarray, blocks) -> _BlockedPool:
    values = _blocked(points, blocks)
    return _BlockedPool(values, _entropy_bits(values.copy()))


def _midpoints(p: np.ndarray, q: np.ndarray):
    """The (N, K, B) slices, in position order, of the blocked midpoints of
    every p (W, N, B) and q (W, K, B), all written into one buffer."""
    m = np.empty((p.shape[1], q.shape[1], p.shape[2]))
    for pj, qj in zip(p, q):
        np.add(pj[:, None], qj[None, :], out=m)
        m *= 0.5
        yield m


def _pool_distances(pool: _BlockedPool, centroids: np.ndarray, blocks) -> np.ndarray:
    """Weighted JSD between every pool point and centroid (K, L): (N, K).

    One fused kernel for all blocks: each `xlogy` covers one element
    position of every block of every (point, centroid) midpoint, and no
    (N, K, L) array is ever built. Bit-exact against a per-block loop: each
    block keeps the clamp max(H(m) - H(p)/2 - H(q)/2, 0), and the weighted
    sum runs block by block in layout order."""
    q = _blocked(centroids, blocks)
    jsd = _entropy_bits(_midpoints(pool.values, q))
    jsd -= 0.5 * pool.entropy[:, None]
    jsd -= 0.5 * _entropy_bits(q.copy())[None, :]
    np.maximum(jsd, 0.0, out=jsd)
    out = np.zeros(jsd.shape[:2])
    for b, spec in enumerate(blocks):
        out += spec.weight * jsd[..., b]
    return out


def _distance_matrix(
    points: np.ndarray, centroids: np.ndarray, blocks
) -> np.ndarray:
    """Weighted JSD between every point (N,L) and centroid (K,L): (N,K).

    Every entry is bit-identical to summing `weight * JSD` over the block
    slices one at a time (see the module docstring for the order rules)."""
    return _pool_distances(_blocked_pool(points, blocks), centroids, blocks)


# --- clustering ---


def _lloyd(
    points: np.ndarray,
    k: int,
    blocks,
    rng,
    pool: Optional[_BlockedPool] = None,
) -> tuple[np.ndarray, np.ndarray, float, list]:
    """One Lloyd run from k distinct random points of the pool.

    The (N, k) distance matrix is carried across iterations: after each
    centroid update only the columns of centroids whose values changed are
    recomputed. Columns do not depend on each other, so the carried matrix
    equals a full recompute bit for bit, and at exit it already belongs to
    the final centroids. `pool` is the blocked form of `points`, computed
    here when the caller has not."""
    n = points.shape[0]
    if pool is None:
        pool = _blocked_pool(points, blocks)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    dists = _pool_distances(pool, centroids, blocks)
    assign = np.full(n, -1)
    objective_trace = []
    for _ in range(KMEANS_MAX_ITER):
        new_assign = np.argmin(dists, axis=1)
        objective_trace.append(float(dists[np.arange(n), new_assign].sum()))
        previous = centroids.copy()
        for c in range(k):
            members = new_assign == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                # re-seed an empty cluster with the worst-fit point
                worst = int(np.argmax(dists[np.arange(n), new_assign]))
                centroids[c] = points[worst]
                new_assign[worst] = c
        moved = np.any(centroids != previous, axis=1)
        if moved.any():
            dists[:, moved] = _pool_distances(pool, centroids[moved], blocks)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    objective = float(dists[np.arange(n), assign].sum())
    return assign, centroids, objective, objective_trace


def kmeans_distributions(
    points: np.ndarray, k: int, blocks, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd k-means of the (N, L) points under the weighted JSD of
    `_distance_matrix`, best of 10 restarts.

    Returns the (N,) assignments and the (k, L) centroids; centroids are
    blockwise means, so they remain valid distributions.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(points):
        raise TooFewPoints(f"k={k} exceeds {len(points)} vectors")
    pool = _blocked_pool(points, blocks)
    best = None
    for _ in range(KMEANS_RESTARTS):
        assign, cents, objective, _ = _lloyd(points, k, blocks, rng, pool)
        if best is None or objective < best[2]:
            best = (assign, cents, objective)
    return best[0], best[1]


def _mixture_logits(
    points: np.ndarray,
    evidence: np.ndarray,
    centroids: np.ndarray,
    weights: np.ndarray,
    blocks,
) -> np.ndarray:
    """Per-member, per-component joint log-density (N, K): mixing weight plus
    every block scored as a categorical sample of the member's effective
    size under the component centroid. `points` are in blocked form
    (W, N, B), see `_blocked`. The cross terms of all blocks are summed one
    element position at a time, then combined block by block, as in
    `_pool_distances`."""
    logc = np.log(np.maximum(_blocked(centroids, blocks), 1e-12))
    cross = np.zeros((points.shape[1], centroids.shape[0], len(blocks)))
    term = np.empty_like(cross)
    for p, lc in zip(points, logc):
        cross += np.multiply(p[:, None], lc[None, :], out=term)
    logits = np.zeros(cross.shape[:2])
    for gi in range(len(blocks)):
        logits += evidence[:, gi, None] * cross[..., gi]
    with np.errstate(divide="ignore"):
        logits += np.log(weights)[None, :]
    return logits


def _pool_log_likelihood(
    points: np.ndarray,
    evidence: np.ndarray,
    assign: np.ndarray,
    centroids: np.ndarray,
    blocks,
) -> float:
    """Mixture log-likelihood of the pool, EM-polished from the k-means fit.

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
    blocked = _blocked(points, blocks)
    prev = -np.inf
    for _ in range(EM_MAX_ITER):
        logits = _mixture_logits(blocked, evidence, cents, weights, blocks)
        norm = logsumexp(logits, axis=1)
        logl = float(norm.sum())
        if logl - prev < EM_TOL * max(1.0, abs(logl)):
            return max(logl, prev)
        prev = logl
        resp = np.exp(logits - norm[:, None])
        weights = resp.mean(axis=0)
        for gi, (spec, sl) in enumerate(_block_slices(blocks)):
            mass = resp * evidence[:, gi, None]       # (N, K)
            denom = mass.sum(axis=0)                  # (K,)
            alive = denom > 1e-12
            new = mass.T @ points[:, sl]              # (K, len)
            cents[alive, sl] = new[alive] / denom[alive, None]
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
    ascending id order: stable class ids (k,), centroids (k, L) in the
    `blocks` layout, and how many pool vectors each class held when it was
    learned (k,). The default is the empty library (k = 0) in the default
    family's layout."""

    blocks: tuple[BlockSpec, ...] = family_blocks()
    ids: np.ndarray = field(default_factory=_empty_ids)
    centroids: Optional[np.ndarray] = None
    member_counts: np.ndarray = field(default_factory=_empty_ids)

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
    _, k, assign, centroids = _fit_pool(values, evidence, blocks, rng)
    ids = _greedy_id_match(centroids, library)
    order = np.argsort(ids)
    new_library = ClassLibrary(
        blocks=blocks,
        ids=ids[order],
        centroids=centroids[order],
        member_counts=np.bincount(assign, minlength=k)[order],
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
