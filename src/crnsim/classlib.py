"""End-of-epoch class learning over per-target behavior vectors.

This module owns a track's behavior record: one `Readings` count table
per reading channel (motion states, signal types), which the coordinator
holds and hands each step's readings to. Each observed target contributes
one behavior vector, a row of the (B, L) batch `vectors_from_counts`
builds from the two tables. A vector holds the
estimated stationary distributions (primary blocks) plus the rows of the
estimated transition matrices (half-weight blocks — stationary behavior
defines a class, transition structure only helps separate classes that
happen to share it), and beside it one evidence entry per block. This is
the only place that turns observed behavior into a vector or an entropy.

The layout is one set of constants, fixed by the state spaces of
`scenario`: the V = 3 motion states and S = 4 signal types give the nine
`BLOCK_LENGTHS` (V, S, then V rows of V and S rows of S) and vectors of
`VECTOR_LENGTH` = 32 values.

Class learning works on tables, never on one object per vector or per
class. The cumulative pool is (N, L) values with (N, blocks) evidence;
`update_library` re-clusters it by k-means for every k = 1..6 (at most N)
at once, chooses the cluster count by AIC, and returns a new
`ClassLibrary`: ascending class ids (k,) and centroids (k, L). One
`kmeans_distributions` call draws every Lloyd start first -- k by k,
restart by restart, `rng.choice(N, size=k, replace=False)` each -- and
then runs each k's 10 restarts as one (10, k) stack; one
`_pool_log_likelihood` call polishes every k's fit by EM in one
(ks, max k, N) stack and scores it. The classes persist across epochs:
each update keeps ids stable by matching new centroids to old ones.
`assign_class` scores a (B, L) batch against the centroids and returns
each vector's library row. A learned class carries enough structure to
tune a filter bank: `ClassLibrary.mode_transitions` stacks every
centroid's motion-transition rows as an IMM mixing chain, and the engine
pairs them with the per-state default acceleration levels as process
noise; `ClassLibrary.etas`, the centroids' occupancy entropies, are a
classified track's reward entropies.

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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from crnsim.markov import normalized_entropy, transition_matrix_from_counts
from crnsim.scenario import MOTION_STATES, SIGNAL_TYPES

DEFAULT_ACCEPT_RADIUS = 0.25
MAX_CLASSES = 6
KMEANS_MAX_ITER = 100
KMEANS_RESTARTS = 10
EM_MAX_ITER = 50
EM_TOL = 1e-6
TRANSITION_BLOCK_WEIGHT = 0.5

_LN2 = math.log(2.0)

_V, _S = len(MOTION_STATES), len(SIGNAL_TYPES)
# the behavior-vector layout: motion and signal occupancies, then the rows
# of the motion and of the signal transition matrix, one block each
BLOCK_LENGTHS = np.array([_V, _S] + [_V] * _V + [_S] * _S)
VECTOR_LENGTH = int(BLOCK_LENGTHS.sum())
# each element's block weight: 1 for the occupancies, half for the rows
_WEIGHTS = np.repeat([1.0, 1.0] + [TRANSITION_BLOCK_WEIGHT] * (_V + _S), BLOCK_LENGTHS)


def occupancy_sample_size(
    n_steps: np.ndarray, occupancy: np.ndarray, transition: np.ndarray
) -> np.ndarray:
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

    Takes one estimate per track of B: the counts n_steps (B,) and the
    float occupancy (B, S) and transition (B, S, S) give (B,).
    """
    rho = (occupancy * np.diagonal(transition, axis1=1, axis2=2)).sum(axis=1)
    return np.where(n_steps > 0, n_steps * (1.0 - rho) / (1.0 + rho), 0.0)


# the step of a row's last reading before its first one: neither equal nor
# adjacent to any step >= 0
NO_READING_STEP = -2


@dataclass(eq=False)
class Readings:
    """The behavior record of one reading channel (motion states or signal
    types) of T tracks over S states, as count tables with a row per track:
    how many readings of each state (`counts` (T, S)), how many transitions
    between readings in adjacent steps (`transitions` (T, S, S)), and the
    (step, state) of the last reading (`last` (T, 2); NO_READING_STEP
    before the first), from which the next reading's transition is
    counted. Any S works."""

    counts: np.ndarray
    transitions: np.ndarray
    last: np.ndarray

    @classmethod
    def empty(cls, rows: int, states: int) -> "Readings":
        """No readings yet in any of `rows` rows over `states` states."""
        return cls(
            np.zeros((rows, states), dtype=np.int64),
            np.zeros((rows, states, states), dtype=np.int64),
            np.tile([NO_READING_STEP, 0], (rows, 1)),
        )

    def record(self, rows: np.ndarray, step: int, states: np.ndarray) -> None:
        """Count one step's readings: state `states[i]` for row `rows[i]`,
        both integer arrays. Needs distinct rows that have no reading in
        `step` yet: the engine records each channel once per step.
        A reading counts its state, and a transition from the row's last
        reading when that reading was in the step before; across a gap
        nothing is counted."""
        last_step, last_state = self.last[rows].T
        adjacent = last_step == step - 1
        self.counts[rows, states] += 1
        self.transitions[rows[adjacent], last_state[adjacent], states[adjacent]] += 1
        self.last[rows, 0] = step
        self.last[rows, 1] = states

    def estimates(self, rows: np.ndarray):
        """Occupancy (B, S), add-one transition matrices flattened row by
        row (B, S * S), discounted occupancy sample sizes (B,) and
        per-source transition counts (B, S) of the B given rows, each read
        at least once."""
        counts = self.counts[rows]
        B, S = counts.shape
        n = counts.sum(axis=1)
        occupancy = counts / n[:, None]
        transitions = self.transitions[rows].astype(float)
        P = transition_matrix_from_counts(transitions)
        n_eff = occupancy_sample_size(n, occupancy, P)
        return occupancy, P.reshape(B, S * S), n_eff, transitions.sum(axis=2)

    def entropies(self, rows: np.ndarray) -> np.ndarray:
        """(B,) normalized entropies of the given rows' occupancy counts,
        smoothed by one unit of prior mass spread over the states, so a row
        with no readings reads 1. Raw frequencies from a handful of samples
        are usually degenerate (five steps in Cruise reads as zero entropy),
        which would pay the bandit for ignorance; the prior mass keeps small
        samples honestly uncertain while letting genuinely one-sided records
        collapse within ~10 observations."""
        counts = self.counts[rows]
        return normalized_entropy(
            transition_matrix_from_counts(counts, 1.0 / counts.shape[1])
        )


def vectors_from_counts(
    motion: Readings, signal: Readings, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Behavior vectors of B tracks, the given rows of the motion (V
    states) and signal (S states) tables; every row has at least one
    reading of each kind. Returns the (B, L) values in block order --
    occupancies, add-one transition matrices -- and the (B, blocks)
    evidence: the discounted occupancy sample sizes, then the transitions
    counted out of each source state. Any V and S work; the library's
    kernels take the layout of V = 3 and S = 4."""
    pi_v, P_v, n_v, out_v = motion.estimates(rows)
    pi_s, P_s, n_s, out_s = signal.estimates(rows)
    values = np.concatenate([pi_v, pi_s, P_v, P_s], axis=1)
    return values, np.column_stack([n_v, n_s, out_v, out_s])


# --- distance ---


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x elementwise, and 0 (the limit) where x is 0."""
    logs = np.zeros_like(x)
    np.log(x, out=logs, where=x > 0)
    return x * logs


def _spread(per_block) -> np.ndarray:
    """Per-block entries (..., blocks) repeated over each block's elements:
    (..., L)."""
    return np.repeat(per_block, BLOCK_LENGTHS, axis=-1)


def _distance_matrix(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Weighted JSD in bits between every point (N, L) and centroid (K, L):
    (N, K), from the (N, K, L) midpoints.

    Each sum over elements runs along one row in the same order for every
    row (a matmul would not), so equal vectors score exactly equal and a
    vector is at distance 0 from itself."""

    def neg_entropy(x):
        return (_xlogx(x) * _WEIGHTS).sum(axis=-1)

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


def _cross_entropy(weighted: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Cross-entropy term -(w p) . log c of every point against every
    centroid of R runs: (R, N, k) from the (N, L) weighted points and the
    (R, k, L) centroids.

    One batched matmul; it gives each run the bits a lone (N, L) @ (L, k)
    product gives, which a wider product over several runs' columns would
    not. The matmul need not score equal columns equally either, so a
    repeated centroid takes its run's first copy's column, and ties go to
    that copy."""
    cross = -(weighted @ _log_centroids(centroids).transpose(0, 2, 1))
    first = (centroids[:, :, None] == centroids[:, None]).all(axis=3).argmax(axis=2)
    for r in np.flatnonzero((first != np.arange(first.shape[1])).any(axis=1)):
        cross[r] = cross[r][:, first[r]]
    return cross


def _reseed_run(points, assign, fit, centroids) -> None:
    """One run's centroid update when a cluster of it is empty, in place:
    clusters in order, each a blockwise mean of its members or, when it
    has none, the worst-fit point not yet taken by another re-seed in this
    iteration. Equal points fit equally, but the BLAS need not score them
    so, so the pick goes to the first untaken copy of the worst vector."""
    for c in range(centroids.shape[0]):
        members = assign == c
        if members.any():
            centroids[c] = points[members].mean(axis=0)
        else:
            worst = int(np.argmax(fit))
            copies = (points == points[worst]).all(axis=1) & (fit > -np.inf)
            worst = int(np.argmax(copies))
            centroids[c] = points[worst]
            assign[worst] = c
            fit[worst] = -np.inf


def _lloyd_runs(
    points: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R Lloyd runs of one k under weighted KL as one stack, from the
    (R, k) indices of each run's distinct starting points.

    Assignment needs only the cross-entropy, one batched matmul per
    iteration for every run still iterating; the per-point constant
    w . p log p completes the KL for the objective and for picking the
    worst-fit point. Centroids are blockwise means: one batched one-hot
    (R, k, N) @ (N, L) matmul, which sums each cluster's members in pool
    order as `mean` does (at k = 1 the matmul would be a matrix-vector
    product, which does not, so the sum is taken directly). A run whose
    update leaves a cluster empty is updated alone (`_reseed_run`). A run
    leaves the stack once an iteration leaves its assignments unchanged.
    Returns the (R, N) assignments, the (R, k, L) centroids and the (R,)
    objectives under the final centroids."""
    n = points.shape[0]
    runs, k = starts.shape
    weighted = points * _WEIGHTS
    self_term = _xlogx(points) @ _WEIGHTS
    rows = np.arange(n)
    labels = np.arange(k)[:, None]
    out_assign = np.empty((runs, n), dtype=np.intp)
    out_centroids = np.empty((runs, k, points.shape[1]))
    # the runs still iterating, compacted: their indices, centroids and
    # assignments
    live = np.arange(runs)
    centroids = points[starts]
    assign = np.full((runs, n), -1)
    for _ in range(KMEANS_MAX_ITER):
        cross = _cross_entropy(weighted, centroids)
        new_assign = cross.argmin(axis=2)
        members = new_assign[:, None, :] == labels
        sizes = members.sum(axis=2)
        if k == 1:
            sums = points.sum(axis=0)
        else:
            sums = members.astype(float) @ points
        with np.errstate(invalid="ignore", divide="ignore"):
            centroids = sums / sizes[..., None]
        for j in np.flatnonzero((sizes == 0).any(axis=1)):
            fit = self_term + cross[j, rows, new_assign[j]]
            _reseed_run(points, new_assign[j], fit, centroids[j])
        moved = (new_assign != assign).any(axis=1)
        if not moved.all():
            done = ~moved
            out_assign[live[done]] = new_assign[done]
            out_centroids[live[done]] = centroids[done]
            live, centroids = live[moved], centroids[moved]
            new_assign = new_assign[moved]
            if not live.size:
                break
        assign = new_assign
    else:
        out_assign[live] = assign
        out_centroids[live] = centroids
    cross = _cross_entropy(weighted, out_centroids).reshape(runs * n, k)
    fits = cross[np.arange(runs * n), out_assign.ravel()].reshape(runs, n)
    return out_assign, out_centroids, (self_term + fits).sum(axis=1)


def kmeans_distributions(
    points: np.ndarray, ks, rng
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Lloyd k-means of the (N, L) points under weighted KL for each k in
    `ks`, best of 10 restarts each; needs 1 <= k <= N.

    Every start is drawn first, in the order k by k and restart by
    restart, `rng.choice(N, size=k, replace=False)` each; then each k's
    restarts run as one (restarts, k) stack (`_lloyd_runs`), and the run
    with the strictly lowest objective wins. Returns one fit per k: the
    (N,) assignments and the (k, L) centroids; centroids are blockwise
    means, so they remain valid distributions. Clusters are numbered by
    their lowest-index member (a cluster left empty comes after every
    other), so the labels depend only on the partition, not on which
    restart or seed found it.
    """
    n = len(points)
    starts = [
        np.array([rng.choice(n, size=k, replace=False) for _ in range(KMEANS_RESTARTS)])
        for k in ks
    ]
    fits = []
    for k, run_starts in zip(ks, starts):
        assign, cents, objective = _lloyd_runs(points, run_starts)
        best = int(np.argmin(objective))
        first = np.full(k, n)
        np.minimum.at(first, assign[best], np.arange(n))
        order = np.argsort(first, kind="stable")
        fits.append((np.argsort(order)[assign[best]], cents[best][order]))
    return fits


def _pool_log_likelihood(
    points: np.ndarray, evidence: np.ndarray, fits
) -> np.ndarray:
    """Mixture log-likelihood of the pool under each k-means fit, (fits,),
    EM-polished from the fit's (N,) assignments and (k, L) centroids.

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
    real structure earns likelihood.

    Every fit's EM runs in one stack, component-major: (fits, kmax, N)
    logits, where kmax is the largest k and a fit's components past its
    own k have zero weight, so they score -inf and take no
    responsibility. A fit leaves the stack once its log-likelihood gains
    less than EM_TOL relative; each fit's sum runs along its own
    contiguous row."""
    n = points.shape[0]
    ks = [cents.shape[0] for _, cents in fits]
    cents = np.zeros((len(fits), max(ks), points.shape[1]))
    weights = np.zeros(cents.shape[:2])
    for i, (assign, centroids) in enumerate(fits):
        cents[i, : ks[i]] = centroids
        weights[i, : ks[i]] = np.bincount(assign, minlength=ks[i]) / n
    counts = _spread(evidence) * points
    counts_t = np.ascontiguousarray(counts.T)
    logl = np.empty(len(fits))
    live = np.arange(len(fits))
    prev = np.full(len(fits), -np.inf)
    for _ in range(EM_MAX_ITER):
        with np.errstate(divide="ignore"):
            logits = _log_centroids(cents) @ counts_t + np.log(weights)[..., None]
            top = logits.max(axis=1)
            norm = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
        new = norm.sum(axis=1)
        done = new - prev < EM_TOL * np.maximum(1.0, np.abs(new))
        if done.any():
            logl[live[done]] = np.maximum(new[done], prev[done])
            keep = ~done
            live, cents, weights = live[keep], cents[keep], weights[keep]
            logits, norm, new = logits[keep], norm[keep], new[keep]
            if not live.size:
                return logl
        prev = new
        resp = np.exp(logits - norm[:, None])
        weights = resp.mean(axis=2)
        denom = _spread(resp @ evidence)
        np.divide(resp @ counts, denom, out=cents, where=denom > 1e-12)
    logl[live] = prev
    return logl


def _fit_pool(points: np.ndarray, evidence: np.ndarray, rng):
    """k-means fits of the (N, L) points, N >= 1, with their (N, blocks)
    evidence for k = 1..min(MAX_CLASSES, N); returns the AIC winner
    (AIC = 2kd - 2 logL, ties favor smaller k) as (aic, k, (N,)
    assignments, (k, L) centroids)."""
    d = VECTOR_LENGTH - BLOCK_LENGTHS.size
    ks = np.arange(1, min(MAX_CLASSES, len(points)) + 1)
    fits = kmeans_distributions(points, ks, rng)
    aic = 2.0 * ks * d - 2.0 * _pool_log_likelihood(points, evidence, fits)
    best = int(np.argmin(aic))
    return (float(aic[best]), int(ks[best]), *fits[best])


# --- the library ---


def _empty_ids() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _no_centroids() -> np.ndarray:
    return np.zeros((0, VECTOR_LENGTH))


@dataclass(frozen=True, eq=False)
class ClassLibrary:
    """Classes learned so far, as one table with a row per class in
    ascending id order: stable class ids (k,) and centroids (k, L), both
    read-only copies of the arrays passed, and the per-class arrays derived
    from the centroids (`etas`, `mode_transitions`). The default is the
    empty library (k = 0)."""

    ids: np.ndarray = field(default_factory=_empty_ids)
    centroids: np.ndarray = field(default_factory=_no_centroids)

    def __post_init__(self):
        if np.any(np.diff(self.ids) <= 0):
            raise ValueError("class ids must be unique and ascending")
        # read-only copies, so the per-class arrays kept below stay true
        for name in ("ids", "centroids"):
            object.__setattr__(self, name, getattr(self, name).copy())
            getattr(self, name).setflags(write=False)

    @cached_property
    def etas(self) -> np.ndarray:
        """(k, 2) normalized entropies of the centroids' motion and signal
        occupancies (the first two blocks), built on first use and kept."""
        return np.column_stack([
            normalized_entropy(self.centroids[:, :_V]),
            normalized_entropy(self.centroids[:, _V : _V + _S]),
        ])

    @cached_property
    def mode_transitions(self) -> np.ndarray:
        """The IMM mixing chain of every class (k, V, V), built on first
        use and kept: its centroid's motion-transition rows (the V blocks
        after the occupancies), renormalized."""
        P = self.centroids[:, _V + _S : _V + _S + _V * _V].reshape(-1, _V, _V)
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
        dists = _distance_matrix(centroids, library.centroids)
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
    library: ClassLibrary, values: np.ndarray, evidence: np.ndarray, rng
) -> tuple[ClassLibrary, np.ndarray]:
    """Re-cluster the cumulative pool, (N, L) values with their (N, blocks)
    evidence, and rebuild the class table.

    Returns the new library plus each pool vector's assigned class id (N,),
    which callers use to score the epoch.
    """
    _, _, assign, centroids = _fit_pool(values, evidence, rng)
    ids = _greedy_id_match(centroids, library)
    order = np.argsort(ids)
    new_library = ClassLibrary(ids=ids[order], centroids=centroids[order])
    return new_library, ids[assign]


def assign_class(library: ClassLibrary, values: np.ndarray) -> np.ndarray:
    """Nearest learned class of each of B vectors (B, L) within
    DEFAULT_ACCEPT_RADIUS: (B,) library rows, -1 where no class lies within
    it. Needs a non-empty library.

    All vectors are scored against all centroids in one `_distance_matrix`
    call; ties go to the class listed first."""
    dists = _distance_matrix(values, library.centroids)
    best = np.argmin(dists, axis=1)
    rows = np.arange(len(values))
    return np.where(dists[rows, best] > DEFAULT_ACCEPT_RADIUS, -1, best)


def score_classes(
    library: ClassLibrary, assigned_ids: np.ndarray, true_ids: np.ndarray
) -> tuple[float, float]:
    """Formation and association accuracy for one epoch, from each pool
    vector's assigned class id (-1 for none) and true class id, two (N,)
    integer arrays.

    Formation compares the learned class count against the true count
    with linear partial credit. Association is the fraction of targets
    whose learned class maps to their true class under the best
    one-to-one matching of learned to true classes. Every matching of the
    smaller label set into the larger is scored, in one gather over the
    integer confusion counts: P(max k, min k) = max k! / (max k - min k)!
    matchings, 6 for 3 true classes against 3 learned ones and at most 720
    while the true classes number at most MAX_CLASSES.
    """
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
    confusion = confusion.reshape(k_true, learned_labels.size)
    if k_true > learned_labels.size:
        confusion = confusion.T
    small, large = confusion.shape
    matchings = np.array(list(itertools.permutations(range(large), small)))
    matched = confusion[np.arange(small), matchings].sum(axis=1).max()
    return formation, float(matched) / len(true_ids)
