"""Exactness of the fused class-learning kernels and the CDF sampler.

The references below are the straightforward per-block forms: one JSD per
block slice, a full distance recompute every Lloyd iteration, one categorical
cross term per block slice, a sorted list of scored (new, old) centroid
pairs for class-id matching, and `Generator.choice` for Markov steps. The
package's fast paths must reproduce every float and every draw of these
references exactly, so all comparisons use `np.array_equal` or `==`.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import logsumexp, xlogy

from crnsim.classlib import (
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    BlockMismatch,
    ClassLibrary,
    LearnedClass,
    ParameterVector,
    _distance_matrix,
    _fit_pool,
    _greedy_id_match,
    _lloyd,
    _pool_log_likelihood,
    _stack,
    assign_class,
    distribution_distance,
    family_blocks,
    kmeans_distributions,
)
from crnsim.markov import MarkovChain, sample_next
from crnsim.scenario import default_family

BLOCKS = family_blocks()
POOL_SIZES = (30, 130, 400)
K_RANGE = range(1, 7)


# --- per-block references ---


def _slices(blocks):
    offset = 0
    for b in blocks:
        yield b, slice(offset, offset + b.length)
        offset += b.length


def ref_entropy_bits(p):
    return -xlogy(p, p).sum(axis=-1) / math.log(2.0)


def ref_jsd_bits(p, q):
    m = 0.5 * (p + q)
    return np.maximum(
        ref_entropy_bits(m) - 0.5 * ref_entropy_bits(p) - 0.5 * ref_entropy_bits(q),
        0.0,
    )


def ref_distance_matrix(points, centroids, blocks):
    out = np.zeros((points.shape[0], centroids.shape[0]))
    for spec, sl in _slices(blocks):
        out += spec.weight * ref_jsd_bits(points[:, None, sl], centroids[None, :, sl])
    return out


def ref_distribution_distance(a, b):
    total = 0.0
    for spec, sl in _slices(a.blocks):
        total += spec.weight * float(ref_jsd_bits(a.values[sl], b.values[sl]))
    return total


def ref_lloyd(points, k, blocks, rng, reseeds):
    """Lloyd with a full distance recompute per iteration; appends to
    `reseeds` each time an empty cluster is re-seeded."""
    n = points.shape[0]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        dists = ref_distance_matrix(points, centroids, blocks)
        new_assign = np.argmin(dists, axis=1)
        for c in range(k):
            members = new_assign == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                worst = int(np.argmax(dists[np.arange(n), new_assign]))
                centroids[c] = points[worst]
                new_assign[worst] = c
                reseeds.append(c)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    dists = ref_distance_matrix(points, centroids, blocks)
    return assign, centroids, float(dists[np.arange(n), assign].sum())


def ref_kmeans(points, k, blocks, rng, reseeds=None):
    reseeds = [] if reseeds is None else reseeds
    best = None
    for _ in range(KMEANS_RESTARTS):
        assign, cents, objective = ref_lloyd(points, k, blocks, rng, reseeds)
        if best is None or objective < best[2]:
            best = (assign, cents, objective)
    return best[0], best[1]


def ref_mixture_logits(points, evidence, centroids, weights, blocks):
    logc = np.log(np.maximum(centroids, 1e-12))
    logits = np.zeros((points.shape[0], centroids.shape[0]))
    for gi, (spec, sl) in enumerate(_slices(blocks)):
        logits += evidence[:, gi, None] * (points[:, None, sl] * logc[None, :, sl]).sum(
            axis=2
        )
    with np.errstate(divide="ignore"):
        logits += np.log(weights)[None, :]
    return logits


def ref_pool_log_likelihood(points, evidence, assign, centroids, blocks,
                            max_iter=50, tol=1e-6):
    k = centroids.shape[0]
    n = points.shape[0]
    weights = np.bincount(assign, minlength=k).astype(float) / n
    cents = centroids.copy()
    prev = -np.inf
    for _ in range(max_iter):
        logits = ref_mixture_logits(points, evidence, cents, weights, blocks)
        norm = logsumexp(logits, axis=1)
        logl = float(norm.sum())
        if logl - prev < tol * max(1.0, abs(logl)):
            return max(logl, prev)
        prev = logl
        resp = np.exp(logits - norm[:, None])
        weights = resp.mean(axis=0)
        for gi, (spec, sl) in enumerate(_slices(blocks)):
            mass = resp * evidence[:, gi, None]
            denom = mass.sum(axis=0)
            alive = denom > 1e-12
            new = mass.T @ points[:, sl]
            cents[alive, sl] = new[alive] / denom[alive, None]
    return prev


def ref_fit_pool(vectors, k_max, rng):
    points = _stack(vectors)
    blocks = vectors[0].blocks
    d = sum(b.length - 1 for b in blocks)
    evidence = pool_evidence(vectors)
    best = None
    for k in range(1, min(k_max, len(vectors)) + 1):
        assign, cents = ref_kmeans(points, k, blocks, rng)
        logl = ref_pool_log_likelihood(points, evidence, assign, cents, blocks)
        aic = 2.0 * k * d - 2.0 * logl
        if best is None or aic < best[0]:
            best = (aic, k, assign, cents)
    return best


def ref_greedy_id_match(new_centroids, old_classes):
    pairs = [
        (ref_distribution_distance(cent, old.centroid), i, old.class_id)
        for i, cent in enumerate(new_centroids)
        for old in old_classes
    ]
    mapping, used_old = {}, set()
    for _, i, old_id in sorted(pairs, key=lambda p: p[0]):
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


def ref_sample_next(chain, current, rng):
    row = chain.transition[current]
    return int(rng.choice(row.size, p=row))


# --- pools ---


def dirichlet_pool(n, seed):
    """n vectors around three random class centres. Stationary blocks are
    25-draw frequencies (exact zeros occur); transition rows are Dirichlet
    draws, some with near-zero entries."""
    rng = np.random.default_rng(seed)
    centres = [[rng.dirichlet(np.ones(b.length)) for b in BLOCKS] for _ in range(3)]
    vectors = []
    for i in range(n):
        centre = centres[i % 3]
        parts = [
            rng.multinomial(25, c) / 25 if b.name.startswith("pi_")
            else rng.dirichlet(20.0 * c + 0.05)
            for b, c in zip(BLOCKS, centre)
        ]
        evidence = [rng.uniform(1, 20), rng.uniform(1, 20)]
        evidence += [float(rng.integers(0, 30)) for b in BLOCKS if "_row" in b.name]
        vectors.append(
            ParameterVector(
                values=np.concatenate(parts), blocks=BLOCKS, evidence=evidence
            )
        )
    return vectors


def duplicate_pool():
    """Twelve vectors with only three distinct values: seeding often picks
    two equal centroids, and one of them then loses every member."""
    distinct = dirichlet_pool(3, 99)
    return [distinct[i % 3] for i in range(12)]


def pool_evidence(vectors):
    return np.stack([v.evidence for v in vectors])


@pytest.fixture(scope="module", params=POOL_SIZES)
def pool(request):
    return dirichlet_pool(request.param, request.param)


# --- tests ---


class TestDistanceKernel:
    def test_distance_matrix_matches_per_block(self, pool):
        pts = _stack(pool)
        rng = np.random.default_rng(len(pool))
        for k in K_RANGE:
            cents = pts[rng.choice(len(pool), size=k, replace=False)]
            # a blockwise mean, the kind of centroid Lloyd produces
            cents[0] = pts[: len(pool) // 2].mean(axis=0)
            assert np.array_equal(
                _distance_matrix(pts, cents, BLOCKS),
                ref_distance_matrix(pts, cents, BLOCKS),
            )

    def test_distribution_distance_matches_per_block(self):
        pool = dirichlet_pool(40, 5)
        for a, b in zip(pool, pool[1:]):
            assert distribution_distance(a, b) == ref_distribution_distance(a, b)


class TestLloyd:
    def test_kmeans_matches_full_recompute(self, pool):
        pts = _stack(pool)
        for k in K_RANGE:
            assign, cents = kmeans_distributions(pool, k, np.random.default_rng(k))
            ref_assign, ref_cents = ref_kmeans(pts, k, BLOCKS, np.random.default_rng(k))
            assert np.array_equal(assign, ref_assign)
            assert np.array_equal(np.stack([c.values for c in cents]), ref_cents)

    def test_lloyd_objective_matches(self):
        pts = _stack(dirichlet_pool(30, 7))
        for k in K_RANGE:
            assign, cents, obj, _ = _lloyd(pts, k, BLOCKS, np.random.default_rng(k))
            ref = ref_lloyd(pts, k, BLOCKS, np.random.default_rng(k), [])
            assert np.array_equal(assign, ref[0])
            assert np.array_equal(cents, ref[1])
            assert obj == ref[2]

    def test_empty_cluster_reseed_matches(self):
        pool = duplicate_pool()
        pts = _stack(pool)
        reseeds = []
        for k in (2, 3):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            assign, cents = kmeans_distributions(pool, k, rng)
            ref_assign, ref_cents = ref_kmeans(pts, k, BLOCKS, ref_rng, reseeds)
            assert np.array_equal(assign, ref_assign)
            assert np.array_equal(np.stack([c.values for c in cents]), ref_cents)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert reseeds, "the duplicate pool never forced a re-seed"


class TestLikelihood:
    def test_pool_log_likelihood_matches(self, pool):
        pts = _stack(pool)
        evidence = pool_evidence(pool)
        for k in K_RANGE:
            assign, cents = ref_kmeans(pts, k, BLOCKS, np.random.default_rng(k))
            got = _pool_log_likelihood(pts, evidence, assign, cents, BLOCKS)
            assert got == ref_pool_log_likelihood(pts, evidence, assign, cents, BLOCKS)

    def test_fit_pool_winner_matches(self, pool):
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        aic, k, assign, centroids = _fit_pool(pool, 6, rng)
        ref_aic, ref_k, ref_assign, ref_cents = ref_fit_pool(pool, 6, ref_rng)
        assert (aic, k) == (ref_aic, ref_k)
        assert np.array_equal(assign, ref_assign)
        assert np.array_equal(np.stack([c.values for c in centroids]), ref_cents)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestAssignClass:
    def _library(self, centroids):
        return ClassLibrary(classes=[
            LearnedClass(class_id=10 + i, centroid=c, member_count=1)
            for i, c in enumerate(centroids)
        ])

    def test_matches_nearest_by_distribution_distance(self):
        pool = dirichlet_pool(60, 3)
        library = self._library(pool[:5])
        for radius in (0.05, 0.25, 10.0):
            for v in pool[5:]:
                dists = [ref_distribution_distance(v, c.centroid)
                         for c in library.classes]
                best = int(np.argmin(dists))
                want = None if dists[best] > radius else library.classes[best].class_id
                assert assign_class(library, v, radius) == want

    def test_empty_library_gives_none(self):
        assert assign_class(ClassLibrary(), dirichlet_pool(1, 0)[0]) is None

    def test_block_mismatch_still_raises(self):
        from crnsim.classlib import make_parameter_vector

        other = make_parameter_vector(
            [0.5, 0.5], np.full((2, 2), 0.5), [1.0], np.ones((1, 1)), np.ones(5)
        )
        library = self._library(dirichlet_pool(2, 4))
        with pytest.raises(BlockMismatch):
            assign_class(library, other)


class TestGreedyIdMatch:
    def _classes(self, centroids, first_id=10):
        return [
            LearnedClass(class_id=first_id + 3 * i, centroid=c, member_count=1)
            for i, c in enumerate(centroids)
        ]

    def test_matches_pair_list(self, pool):
        for n_new in (1, 3, 6):
            for n_old in (0, 1, 2, 5):
                new = pool[:n_new]
                old = self._classes(pool[-n_old:] if n_old else [])
                assert _greedy_id_match(new, old) == ref_greedy_id_match(new, old)

    def test_ties_follow_new_index_then_old_order(self):
        # equal centroids make every distance a tie
        distinct = dirichlet_pool(2, 8)
        new = [distinct[0], distinct[0], distinct[1], distinct[0]]
        old = self._classes([distinct[0], distinct[0], distinct[1]], first_id=7)
        got = _greedy_id_match(new, old)
        assert got == ref_greedy_id_match(new, old)
        assert got == {0: 7, 1: 10, 2: 13, 3: 14}


class TestSampleNext:
    def test_draws_match_generator_choice(self):
        family = default_family()
        for cls in family.classes:
            for chain in (cls.motion_chain, cls.signal_chain, cls.tx_chain):
                for row, cdf in zip(chain.transition, chain.row_cdf):
                    # what Generator.choice builds from p=row
                    assert np.array_equal(cdf, row.cumsum() / row.cumsum()[-1])
                rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
                state = ref_state = 0
                for _ in range(10_000):
                    state = sample_next(chain, state, rng)
                    ref_state = ref_sample_next(chain, ref_state, ref_rng)
                    assert state == ref_state
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_probability_state_never_drawn(self):
        class Zero:
            """A generator whose uniform draws are exactly 0.0."""

            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        chain = MarkovChain(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]]))
        assert [sample_next(chain, s, Zero()) for s in range(3)] == [1, 2, 0]

    def test_cdf_is_derived_state(self):
        a = MarkovChain(np.array([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0], [1 / 3] * 3]))
        assert np.all(a.row_cdf[:, -1] == 1.0)
        assert not a.row_cdf.flags.writeable
        (cdf,) = [f for f in dataclasses.fields(a) if f.name == "row_cdf"]
        assert not (cdf.init or cdf.compare or cdf.repr)

    def test_nan_row_rejected_at_construction(self):
        # Generator.choice refused NaN rows; the chain now refuses them first
        with pytest.raises(ValueError):
            MarkovChain(np.array([[np.nan, 0.5], [0.5, 0.5]]))
