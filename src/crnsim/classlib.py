"""End-of-epoch class learning over per-target parameter estimates.

Each observed target contributes a ParameterVector, which
`vector_from_histories` builds from the track's (step, state) histories of
motion states and signal types: the estimated stationary distributions
(primary blocks) plus the rows of the estimated transition matrices
(half-weight blocks — stationary behavior defines a class, transition
structure only helps separate classes that happen to share it), with the
evidence behind each block. This is the only place that turns observed
behavior into a vector; tracks only record readings. Vectors are clustered
by k-means under a summed Jensen-Shannon divergence, the cluster count
is chosen by AIC, and the resulting classes persist across epochs: each
update re-clusters the cumulative pool and keeps ids stable by matching
new centroids to old ones.

A learned class carries enough structure to tune a filter bank: its
centroid's motion-transition rows become the IMM mixing chain, with the
per-state default acceleration levels standing in for process noise.

The distance and likelihood kernels work on all blocks at once (see
`_blocked`) and are bit-exact: every float they produce equals the one a
per-block loop over slices gives, so the fast paths change no result. Two
rules keep it so. Each block is summed strictly left to right, the order
numpy's `.sum(axis=-1)` uses on a slice (`np.add.reduceat` and pairwise
sums group the terms differently). Per-block results are combined by a
sequential `out += w_b * x[..., b]` in block order, never by a sum over the
block axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp, xlogy

from crnsim.markov import MarkovChain, transition_matrix_from_counts
from crnsim.tracking import DEFAULT_STATE_ACCEL_STD, FilterTuning

DEFAULT_ACCEPT_RADIUS = 0.25
DEFAULT_MAX_CLASSES = 6
KMEANS_MAX_ITER = 100
KMEANS_RESTARTS = 10
TRANSITION_BLOCK_WEIGHT = 0.5

_LN2 = math.log(2.0)
_BLOCK_SUM_TOL = 1e-6


class BlockMismatch(ValueError):
    """Parameter vectors with different block structures were combined."""


class TooFewPoints(ValueError):
    """More clusters requested than vectors available."""


@dataclass(frozen=True)
class BlockSpec:
    """One distribution block inside a ParameterVector."""

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


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Concatenated distribution blocks describing one target's behavior.

    evidence holds one effective sample size per block, aligned with
    `blocks`: the discounted step count behind a stationary block (see
    `occupancy_sample_size`), the transitions out of the source state for a
    transition row. It scales the AIC likelihood, so unobserved rows carry
    no evidence.
    """

    values: np.ndarray
    blocks: tuple[BlockSpec, ...]
    evidence: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        total = sum(b.length for b in self.blocks)
        if vals.shape != (total,):
            raise BlockMismatch(
                f"expected {total} values for the block structure, got {vals.shape}"
            )
        evidence = np.asarray(self.evidence, dtype=float)
        if evidence.shape != (len(self.blocks),):
            raise BlockMismatch(
                f"expected {len(self.blocks)} evidence entries, got {evidence.shape}"
            )
        if np.any(vals < -1e-12):
            raise ValueError("distribution entries must be nonnegative")
        for b, sl in _block_slices(self.blocks):
            if abs(vals[sl].sum() - 1.0) > _BLOCK_SUM_TOL:
                raise ValueError(f"block {b.name} does not sum to 1")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "evidence", evidence)


def _block_slices(blocks):
    offset = 0
    for b in blocks:
        yield b, slice(offset, offset + b.length)
        offset += b.length


def block_values(vector: ParameterVector, name: str) -> np.ndarray:
    """One named block of the concatenated vector (read-only view)."""
    for spec, sl in _block_slices(vector.blocks):
        if spec.name == name:
            return vector.values[sl]
    raise KeyError(name)


def make_parameter_vector(
    pi_v: np.ndarray,
    P_v: np.ndarray,
    pi_s: np.ndarray,
    P_s: np.ndarray,
    evidence,
) -> ParameterVector:
    """Assemble the standard vector from one target's estimates and the
    evidence behind each block, in `family_blocks` order."""
    pi_v = np.asarray(pi_v, dtype=float)
    pi_s = np.asarray(pi_s, dtype=float)
    P_v = np.asarray(P_v, dtype=float)
    P_s = np.asarray(P_s, dtype=float)
    values = np.concatenate([pi_v, pi_s, P_v.ravel(), P_s.ravel()])
    return ParameterVector(
        values=values,
        blocks=family_blocks(pi_v.size, pi_s.size),
        evidence=evidence,
    )


def occupancy_sample_size(n_steps: float, occupancy, transition) -> float:
    """Effective number of independent draws behind an occupancy estimate.

    A persistent chain revisits its current state, so n_steps observations
    carry far less evidence about the stationary distribution than n_steps
    iid draws would; pretending otherwise makes the AIC likelihood read
    ordinary between-target scatter as class structure. Discounts by the
    mean self-transition probability rho: n * (1 - rho) / (1 + rho).

    rho is deliberately the raw self-transition mass, not the excess over
    chance agreement: the overshoot (an iid chain already gets rho > 0)
    doubles as slack for the cross-correlation between the occupancy and
    transition-row estimates, which all come from the same short path.
    """
    if n_steps <= 0:
        return 0.0
    occupancy = np.asarray(occupancy, dtype=float)
    rho = float(np.sum(occupancy * np.diag(np.asarray(transition, dtype=float))))
    return float(n_steps) * (1.0 - rho) / (1.0 + rho)


def _history_counts(history, num_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupancy frequencies and transition counts of one (step, state)
    history. A transition is counted only between readings in adjacent
    steps, never across a gap."""
    steps, states = np.asarray(history, dtype=np.int64).reshape(-1, 2).T
    occupancy = np.bincount(states, minlength=num_states) / states.size
    adjacent = steps[1:] == steps[:-1] + 1
    pairs = states[:-1][adjacent] * num_states + states[1:][adjacent]
    counts = np.bincount(pairs, minlength=num_states * num_states)
    return occupancy, counts.reshape(num_states, num_states).astype(float)


def vector_from_histories(
    motion, signal, num_motion_states: int, num_signal_states: int
) -> ParameterVector:
    """One target's behavior vector from its (step, state) histories of
    motion states and signal types (each non-empty, at most one reading per
    step): occupancies, add-one transition matrices, and as evidence the
    discounted occupancy sample sizes and the per-row transition counts."""
    pi_v, mc = _history_counts(motion, num_motion_states)
    pi_s, sc = _history_counts(signal, num_signal_states)
    P_v = transition_matrix_from_counts(mc)
    P_s = transition_matrix_from_counts(sc)
    n_v = occupancy_sample_size(len(motion), pi_v, P_v)
    n_s = occupancy_sample_size(len(signal), pi_s, P_s)
    evidence = np.concatenate([[n_v, n_s], mc.sum(axis=1), sc.sum(axis=1)])
    return make_parameter_vector(pi_v, P_v, pi_s, P_s, evidence)


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


def distribution_distance(a: ParameterVector, b: ParameterVector) -> float:
    """Weighted sum of per-block JSD between two parameter vectors."""
    if a.blocks != b.blocks:
        raise BlockMismatch("parameter vectors have different block structures")
    return float(_distance_matrix(a.values[None], b.values[None], a.blocks)[0, 0])


def _stack(vectors: Sequence[ParameterVector]) -> np.ndarray:
    blocks = vectors[0].blocks
    for v in vectors[1:]:
        if v.blocks != blocks:
            raise BlockMismatch("vectors in one pool must share block structure")
    return np.stack([v.values for v in vectors])


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
    vectors: Sequence[ParameterVector], k: int, rng
) -> tuple[np.ndarray, list[ParameterVector]]:
    """Lloyd k-means under distribution_distance, best of 10 restarts.

    Returns (assignments, centroids); centroids are blockwise means, so
    they remain valid distributions.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(vectors):
        raise TooFewPoints(f"k={k} exceeds {len(vectors)} vectors")
    points = _stack(vectors)
    blocks = vectors[0].blocks
    pool = _blocked_pool(points, blocks)
    best = None
    for _ in range(KMEANS_RESTARTS):
        assign, cents, objective, _ = _lloyd(points, k, blocks, rng, pool)
        if best is None or objective < best[2]:
            best = (assign, cents, objective)
    assign, cents, _ = best
    # a centroid is not an observation, so it carries no evidence
    no_evidence = np.zeros(len(blocks))
    centroids = [
        ParameterVector(values=c, blocks=blocks, evidence=no_evidence)
        for c in cents
    ]
    return assign, centroids


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
    max_iter: int = 50,
    tol: float = 1e-6,
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
    for _ in range(max_iter):
        logits = _mixture_logits(blocked, evidence, cents, weights, blocks)
        norm = logsumexp(logits, axis=1)
        logl = float(norm.sum())
        if logl - prev < tol * max(1.0, abs(logl)):
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


def _fit_pool(vectors: Sequence[ParameterVector], k_max: int, rng):
    """k-means fits for k=1..k_max; returns the AIC winner (ties favor
    smaller k)."""
    if not vectors:
        raise TooFewPoints("no vectors to cluster")
    points = _stack(vectors)
    blocks = vectors[0].blocks
    d = sum(b.length - 1 for b in blocks)
    evidence = np.stack([v.evidence for v in vectors])
    best = None
    for k in range(1, min(k_max, len(vectors)) + 1):
        assign, centroids = kmeans_distributions(vectors, k, rng)
        cents = np.stack([c.values for c in centroids])
        logl = _pool_log_likelihood(points, evidence, assign, cents, blocks)
        aic = 2.0 * k * d - 2.0 * logl
        if best is None or aic < best[0]:
            best = (aic, k, assign, centroids)
    return best


def select_k_aic(
    vectors: Sequence[ParameterVector], k_max: int = DEFAULT_MAX_CLASSES, rng=None
) -> int:
    """Cluster count minimizing AIC = 2kd - 2 logL over k = 1..k_max."""
    if rng is None:
        rng = np.random.default_rng()
    return _fit_pool(vectors, k_max, rng)[1]


# --- the library ---


@dataclass(eq=False)
class LearnedClass:
    """One discovered class: centroid behavior plus filter tuning."""

    class_id: int
    centroid: ParameterVector
    member_count: int

    def tuning(self) -> FilterTuning:
        """IMM tuning from the centroid: its motion-transition rows mix the
        models, per-state default acceleration stands in for noise."""
        rows = [
            self.centroid.values[sl]
            for spec, sl in _block_slices(self.centroid.blocks)
            if spec.name.startswith("P_v_row")
        ]
        P = np.stack(rows)
        P = P / P.sum(axis=1, keepdims=True)
        return FilterTuning(
            mode_transition=MarkovChain(P),
            process_noise_per_state=DEFAULT_STATE_ACCEL_STD[: P.shape[0]].copy(),
        )


@dataclass
class ClassLibrary:
    """Classes learned so far."""

    classes: list = field(default_factory=list)

    def __post_init__(self):
        ids = [c.class_id for c in self.classes]
        if len(ids) != len(set(ids)):
            raise ValueError("class ids must be unique")

    def get(self, class_id: int) -> Optional[LearnedClass]:
        for c in self.classes:
            if c.class_id == class_id:
                return c
        return None


def _greedy_id_match(
    new_centroids: list[ParameterVector], old_classes: list
) -> dict[int, int]:
    """Map new-cluster index -> stable class id, nearest-centroid-first.
    All new x old pairs are scored in one kernel call; equal distances go
    to the lower new index, then to the old class listed first."""
    mapping: dict[int, int] = {}
    if old_classes:
        old_ids = [c.class_id for c in old_classes]
        values = _stack(list(new_centroids) + [c.centroid for c in old_classes])
        k = len(new_centroids)
        dists = _distance_matrix(values[:k], values[k:], old_classes[0].centroid.blocks)
        used_old: set = set()
        for flat in np.argsort(dists, axis=None, kind="stable"):
            i, j = divmod(int(flat), len(old_ids))
            old_id = old_ids[j]
            if i in mapping or old_id in used_old:
                continue
            mapping[i] = old_id
            used_old.add(old_id)
    next_id = max((c.class_id for c in old_classes), default=-1) + 1
    for i in range(len(new_centroids)):
        if i not in mapping:
            mapping[i] = next_id
            next_id += 1
    return mapping


def update_library(
    library: ClassLibrary,
    pool: Sequence[ParameterVector],
    rng,
    k_max: int = DEFAULT_MAX_CLASSES,
) -> tuple[ClassLibrary, np.ndarray]:
    """Re-cluster the cumulative vector pool and rebuild the class set.

    Returns the new library plus each pool vector's assigned class id
    (aligned with `pool`), which callers use to score the epoch.
    """
    _, k, assign, centroids = _fit_pool(pool, k_max, rng)
    mapping = _greedy_id_match(centroids, library.classes)
    classes = [
        LearnedClass(
            class_id=mapping[i],
            centroid=centroids[i],
            member_count=int(np.sum(assign == i)),
        )
        for i in range(k)
    ]
    classes.sort(key=lambda c: c.class_id)
    new_library = ClassLibrary(classes=classes)
    assigned_ids = np.array([mapping[int(a)] for a in assign])
    return new_library, assigned_ids


def assign_class(
    library: ClassLibrary,
    vector: ParameterVector,
    accept_radius: float = DEFAULT_ACCEPT_RADIUS,
) -> Optional[int]:
    """Nearest learned class within the acceptance radius, else None.

    All centroids are scored in one kernel call; each distance equals
    `distribution_distance(vector, centroid)`, and ties go to the class
    listed first."""
    if any(c.centroid.blocks != vector.blocks for c in library.classes):
        raise BlockMismatch("parameter vectors have different block structures")
    if not library.classes:
        return None
    centroids = np.stack([c.centroid.values for c in library.classes])
    dists = _distance_matrix(vector.values[None], centroids, vector.blocks)[0]
    best = int(np.argmin(dists))
    if dists[best] > accept_radius:
        return None
    return library.classes[best].class_id


def score_classes(
    library: ClassLibrary,
    assigned_ids: Sequence,
    true_ids: Sequence,
) -> tuple[float, float]:
    """Formation and association accuracy for one epoch.

    Formation compares the learned class count against the true count
    with linear partial credit. Association is the fraction of targets
    whose learned class maps to their true class under the best
    one-to-one matching of learned to true classes.
    """
    if len(assigned_ids) != len(true_ids):
        raise ValueError("assigned and true id lists must align")
    true_labels = sorted(set(true_ids))
    k_true = len(true_labels)
    k_hat = len(library.classes)
    formation = max(0.0, 1.0 - abs(k_hat - k_true) / k_true)

    learned_labels = sorted({a for a in assigned_ids if a is not None})
    if not learned_labels:
        return formation, 0.0
    confusion = np.zeros((k_true, len(learned_labels)))
    t_index = {t: i for i, t in enumerate(true_labels)}
    l_index = {l: j for j, l in enumerate(learned_labels)}
    for a, t in zip(assigned_ids, true_ids):
        if a is not None:
            confusion[t_index[t], l_index[a]] += 1
    rows, cols = linear_sum_assignment(-confusion)
    association = float(confusion[rows, cols].sum()) / len(true_ids)
    return formation, association
