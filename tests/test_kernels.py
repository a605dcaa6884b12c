"""The class-learning kernels and the CDF sampler against straightforward
references.

The references are the per-block forms: one JSD or KL per block slice, a
full distance recompute every Lloyd iteration, one categorical cross term
per block slice, a sorted list of scored (new, old) centroid pairs for
class-id matching, a loop scoring one vector at a time for batched class
assignment, and `Generator.choice` for Markov steps. The package sums over
all elements at once with per-element weights, so its floats may differ
from the per-block sums in the last bits: distances, objectives, centroids
and likelihoods are compared with `assert_allclose` (rtol 1e-12, atol at
most 1e-12). Every discrete outcome -- assignments, the chosen cluster
count, class rows, matched ids, Markov draws and generator states -- must be
equal. The JSD Lloyd reference is the yardstick the KL fit must agree with.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp, xlogy

import crnsim.classlib as classlib
from crnsim.classlib import (
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    ClassLibrary,
    _distance_matrix,
    _fit_pool,
    _greedy_id_match,
    _lloyd_runs,
    _pool_log_likelihood,
    assign_class,
    kmeans_distributions,
    score_classes,
)
from crnsim.markov import MarkovChain
from crnsim.scenario import default_family
from scalar_reference import (
    ParameterVector,
    block_slices,
    distribution_distance,
    family_blocks,
    library_of,
    sample_next_one,
    stack_vectors,
)

BLOCKS = family_blocks()
POOL_SIZES = (30, 130, 400)
K_RANGE = range(1, 7)
TOLERANCE = dict(rtol=1e-12, atol=1e-12)


# --- per-block references ---


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
    for spec, sl in block_slices(blocks):
        out += spec.weight * ref_jsd_bits(points[:, None, sl], centroids[None, :, sl])
    return out


def ref_distribution_distance(a, b):
    total = 0.0
    for spec, sl in block_slices(a.blocks):
        total += spec.weight * float(ref_jsd_bits(a.values[sl], b.values[sl]))
    return total


def ref_kl_matrix(points, centroids, blocks):
    """Weighted KL(point || centroid) in nats, centroid logs clamped at
    1e-12: (N, K)."""
    out = np.zeros((points.shape[0], centroids.shape[0]))
    for spec, sl in block_slices(blocks):
        p = points[:, None, sl]
        logc = np.log(np.maximum(centroids[None, :, sl], 1e-12))
        out += spec.weight * (xlogy(p, p) - p * logc).sum(axis=-1)
    return out


def ref_lloyd(points, k, blocks, rng, reseeds, distance=ref_kl_matrix):
    """Lloyd with a full distance recompute per iteration. An empty cluster
    takes the point that fit its centroid worst at the iteration's
    assignment, skipping points already taken in the same iteration; each
    re-seed appends (iteration, cluster, point) to `reseeds`."""
    n = points.shape[0]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for it in range(KMEANS_MAX_ITER):
        dists = distance(points, centroids, blocks)
        new_assign = np.argmin(dists, axis=1)
        fit = dists[np.arange(n), new_assign]
        taken = []
        for c in range(k):
            members = new_assign == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                worst = max(
                    (i for i in range(n) if i not in taken), key=lambda i: fit[i]
                )
                centroids[c] = points[worst]
                new_assign[worst] = c
                taken.append(worst)
                reseeds.append((it, c, worst))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    dists = distance(points, centroids, blocks)
    return assign, centroids, float(dists[np.arange(n), assign].sum())


def ref_kmeans(points, k, blocks, rng, reseeds=None, distance=ref_kl_matrix):
    """Best of the restarts, its clusters renumbered in the order the
    points first name them, clusters no point names last."""
    reseeds = [] if reseeds is None else reseeds
    best = None
    for _ in range(KMEANS_RESTARTS):
        assign, cents, objective = ref_lloyd(points, k, blocks, rng, reseeds, distance)
        if best is None or objective < best[2]:
            best = (assign, cents, objective)
    assign, cents, _ = best
    order = []
    for label in list(assign) + list(range(k)):
        if label not in order:
            order.append(label)
    new_label = {old: new for new, old in enumerate(order)}
    return np.array([new_label[a] for a in assign]), cents[order]


def ref_mixture_logits(points, evidence, centroids, weights, blocks):
    logc = np.log(np.maximum(centroids, 1e-12))
    logits = np.zeros((points.shape[0], centroids.shape[0]))
    for gi, (spec, sl) in enumerate(block_slices(blocks)):
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
        for gi, (spec, sl) in enumerate(block_slices(blocks)):
            mass = resp * evidence[:, gi, None]
            denom = mass.sum(axis=0)
            alive = denom > 1e-12
            new = mass.T @ points[:, sl]
            cents[alive, sl] = new[alive] / denom[alive, None]
    return prev


def ref_fit_pool(vectors, k_max, rng):
    points, evidence = stack_vectors(vectors)
    blocks = vectors[0].blocks
    d = sum(b.length - 1 for b in blocks)
    best = None
    for k in range(1, min(k_max, len(vectors)) + 1):
        assign, cents = ref_kmeans(points, k, blocks, rng)
        logl = ref_pool_log_likelihood(points, evidence, assign, cents, blocks)
        aic = 2.0 * k * d - 2.0 * logl
        if best is None or aic < best[0]:
            best = (aic, k, assign, cents)
    return best


def ref_greedy_id_match(new_centroids, old_ids, old_centroids):
    """Each new centroid's id, in index order, from a sorted list of scored
    (new, old) pairs."""
    pairs = [
        (ref_distribution_distance(cent, old), i, old_id)
        for i, cent in enumerate(new_centroids)
        for old_id, old in zip(old_ids, old_centroids)
    ]
    mapping, used_old = {}, set()
    for _, i, old_id in sorted(pairs, key=lambda p: p[0]):
        if i in mapping or old_id in used_old:
            continue
        mapping[i] = old_id
        used_old.add(old_id)
    next_id = max(old_ids, default=-1) + 1
    for i in range(len(new_centroids)):
        if i not in mapping:
            mapping[i] = next_id
            next_id += 1
    return [mapping[i] for i in range(len(new_centroids))]


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


def duplicate_pool(distinct=3, copies=4):
    """copies * distinct vectors with only `distinct` distinct values:
    seeding often picks two equal centroids, and one of them then loses
    every member."""
    values = dirichlet_pool(distinct, 99)
    return [values[i % distinct] for i in range(copies * distinct)]


def repeats_pool(distinct=24, repeated=3, copies=3):
    """`distinct` vectors, the first `repeated` of them `copies` times
    each: seeding sometimes picks two equal centroids among otherwise
    distinct points."""
    values = dirichlet_pool(distinct, distinct)
    return values + values[:repeated] * (copies - 1)


@pytest.fixture(scope="module", params=POOL_SIZES)
def pool(request):
    return dirichlet_pool(request.param, request.param)


# --- tests ---


class TestDistanceKernel:
    def test_distance_matrix_matches_per_block(self, pool):
        pts = stack_vectors(pool)[0]
        rng = np.random.default_rng(len(pool))
        for k in K_RANGE:
            cents = pts[rng.choice(len(pool), size=k, replace=False)]
            # a blockwise mean, the kind of centroid Lloyd produces
            cents[0] = pts[: len(pool) // 2].mean(axis=0)
            np.testing.assert_allclose(
                _distance_matrix(pts, cents),
                ref_distance_matrix(pts, cents, BLOCKS),
                **TOLERANCE,
            )

    def test_distribution_distance_matches_per_block(self):
        pool = dirichlet_pool(40, 5)
        for a, b in zip(pool, pool[1:]):
            np.testing.assert_allclose(
                distribution_distance(a, b), ref_distribution_distance(a, b),
                **TOLERANCE,
            )


def agreement(a, b):
    """Share of vectors two labelings put in the same class, under the best
    one-to-one matching of their labels."""
    confusion = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(confusion, (a, b), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / a.size


def lone_run(points, k, rng):
    """One Lloyd run from k distinct random points of the pool, drawn as
    `ref_lloyd` draws them: `_lloyd_runs` with a single row of starts.
    Returns its assignments, centroids and objective."""
    starts = rng.choice(len(points), size=k, replace=False)[None]
    assign, cents, objective = _lloyd_runs(points, starts)
    return assign[0], cents[0], objective[0]


class TestLloyd:
    def test_kmeans_matches_full_recompute(self, pool):
        pts = stack_vectors(pool)[0]
        for k in K_RANGE:
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            [(assign, cents)] = kmeans_distributions(pts, (k,), rng)
            ref_assign, ref_cents = ref_kmeans(pts, k, BLOCKS, ref_rng)
            assert np.array_equal(assign, ref_assign)
            np.testing.assert_allclose(cents, ref_cents, **TOLERANCE)

    @pytest.mark.parametrize(
        "pool",
        (dirichlet_pool(130, 130), duplicate_pool(6, 3), repeats_pool()),
        ids=("dirichlet", "duplicates", "repeats"),
    )
    def test_one_call_fits_every_k(self, pool):
        # every k's restarts in one call, as `_fit_pool` makes it: the same
        # fits and generator state as the reference fitting k = 1..6 in
        # turn; the duplicate and repeat pools seed equal centroids, so
        # the stack takes the equal-column and re-seed paths
        pts = stack_vectors(pool)[0]
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fits = kmeans_distributions(pts, K_RANGE, rng)
            assert len(fits) == len(K_RANGE)
            for k, (assign, cents) in zip(K_RANGE, fits):
                ref_assign, ref_cents = ref_kmeans(pts, k, BLOCKS, ref_rng)
                assert np.array_equal(assign, ref_assign), (seed, k)
                np.testing.assert_allclose(cents, ref_cents, **TOLERANCE)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_labels_follow_the_partition(self):
        # six distinct values three times each at k = 5: many restarts tie
        # on the objective up to rounding, and a restart's labels depend on
        # its seeding; numbering clusters by their lowest-index member
        # leaves labels that depend only on the partition
        pts = stack_vectors(duplicate_pool(6, 3))[0]
        k = 5
        for seed in range(40):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            [(assign, cents)] = kmeans_distributions(pts, (k,), rng)
            assert list(dict.fromkeys(assign.tolist())) == list(range(k)), seed
            ref_assign, ref_cents = ref_kmeans(pts, k, BLOCKS, ref_rng)
            assert np.array_equal(assign, ref_assign), seed
            np.testing.assert_allclose(cents, ref_cents, **TOLERANCE)

    def test_lloyd_objective_matches(self):
        pts = stack_vectors(dirichlet_pool(30, 7))[0]
        for k in K_RANGE:
            assign, cents, obj = lone_run(pts, k, np.random.default_rng(k))
            ref = ref_lloyd(pts, k, BLOCKS, np.random.default_rng(k), [])
            assert np.array_equal(assign, ref[0])
            np.testing.assert_allclose(cents, ref[1], **TOLERANCE)
            np.testing.assert_allclose(obj, ref[2], **TOLERANCE)

    def test_empty_cluster_reseed_matches(self, monkeypatch):
        reseeds = []
        # the six-value pool fails a worst-fit pick by the cross-entropy
        # alone, without the per-point constant of the KL
        for pool, k in ((duplicate_pool(), 2), (duplicate_pool(), 3),
                        (duplicate_pool(6, 3), 4)):
            pts = stack_vectors(pool)[0]
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            [(assign, cents)] = kmeans_distributions(pts, (k,), rng)
            ref_assign, ref_cents = ref_kmeans(pts, k, BLOCKS, ref_rng, reseeds)
            assert np.array_equal(assign, ref_assign)
            np.testing.assert_allclose(cents, ref_cents, **TOLERANCE)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert reseeds, "the duplicate pool never forced a re-seed"

        # k = 5-6 seeds with two equal centroids: the matmul may score the
        # equal columns differently in the last bits (at some pool sizes
        # below 250 it does), which would send points to the later copy;
        # the points must go to the first copy, as the reference sends them
        pts = stack_vectors(repeats_pool())[0]
        tried = 0
        for k in (5, 6):
            for seed in range(300):
                picked = np.random.default_rng(seed).choice(len(pts), size=k, replace=False)
                if len(np.unique(pts[picked], axis=0)) == k:
                    continue
                tried += 1
                assign, cents, objective = lone_run(
                    pts, k, np.random.default_rng(seed)
                )
                ref = ref_lloyd(pts, k, BLOCKS, np.random.default_rng(seed), [])
                assert np.array_equal(assign, ref[0]), (k, seed)
                np.testing.assert_allclose(cents, ref[1], **TOLERANCE)
                np.testing.assert_allclose(objective, ref[2], **TOLERANCE)
        assert tried > 100

        # k seeds on equal pool vectors: every point ties across the equal
        # centroids and goes to the first, so k - 1 clusters are empty in
        # the first iteration, and each must take a different point
        a, b, c = stack_vectors(duplicate_pool(3, 1))[0]
        pts = np.array([a] * 10 + [b, c])
        k = 3
        seed = next(
            s for s in range(100)
            if (np.random.default_rng(s).choice(12, size=k, replace=False) < 10).all()
        )
        reseeds = []
        rng = np.random.default_rng(seed)
        assign, cents, objective = lone_run(pts, k, rng)
        ref = ref_lloyd(pts, k, BLOCKS, np.random.default_rng(seed), reseeds)
        first = [(cluster, point) for it, cluster, point in reseeds if it == 0]
        assert [cluster for cluster, _ in first] == [1, 2]
        assert {point for _, point in first} == {10, 11}
        assert np.array_equal(assign, ref[0])
        np.testing.assert_allclose(cents, ref[1], **TOLERANCE)
        np.testing.assert_allclose(objective, ref[2], **TOLERANCE)
        assert len(set(assign[:10])) == 1 and len(set(assign)) == k
        # the first iteration alone leaves k distinct centroids
        monkeypatch.setattr(classlib, "KMEANS_MAX_ITER", 1)
        _, first_cents, _ = lone_run(pts, k, np.random.default_rng(seed))
        assert len(np.unique(first_cents, axis=0)) == k

    def test_reseed_takes_first_copy_of_worst_point(self, monkeypatch):
        # a far vector repeated in the pool fits every centroid worst, and
        # its copies fit exactly equally, but the matmul may score them
        # differently in the last bits; an empty cluster must take the first
        # copy, as the reference takes it. One iteration shows which copy.
        monkeypatch.setattr(classlib, "KMEANS_MAX_ITER", 1)
        far = stack_vectors(dirichlet_pool(1, 7))[0][0]
        on_far = 0
        for n, far_copies in ((30, 6), (60, 3), (60, 9), (75, 6), (90, 6), (90, 9)):
            base = stack_vectors(dirichlet_pool(n, n))[0]
            pts = np.vstack([base, [base[0]] * 10, [far] * far_copies])
            for k in (5, 6):
                for seed in range(200):
                    picked = np.random.default_rng(seed).choice(
                        len(pts), size=k, replace=False
                    )
                    # seeds with two equal centroids and no far copy
                    if len(np.unique(pts[picked], axis=0)) == k or (
                        picked >= n + 10
                    ).any():
                        continue
                    reseeds = []
                    ref_lloyd(pts, k, BLOCKS, np.random.default_rng(seed), reseeds)
                    assign, _, _ = lone_run(pts, k, np.random.default_rng(seed))
                    first = [(c, p) for it, c, p in reseeds if it == 0]
                    assert first, (n, k, seed)
                    for cluster, point in first:
                        assert assign[point] == cluster, (n, k, seed)
                        on_far += point >= n + 10
        assert on_far > 100

    @pytest.mark.parametrize("size", (130, 400))
    def test_kl_fit_finds_the_jsd_classes(self, size):
        # the premise of fitting under KL: on three-class pools it finds
        # the classes a Lloyd fit under the scored JSD finds
        pts = stack_vectors(dirichlet_pool(size, size))[0]
        [(assign, _)] = kmeans_distributions(pts, (3,), np.random.default_rng(3))
        jsd_assign, _ = ref_kmeans(
            pts, 3, BLOCKS, np.random.default_rng(3), distance=ref_distance_matrix
        )
        assert agreement(assign, jsd_assign) >= 0.99


class TestLikelihood:
    def test_pool_log_likelihood_matches(self, pool):
        # every fit's EM in one stack, each converging at its own iteration,
        # equals the reference run on each fit alone; a last component that
        # loses its members starts EM with zero weight: -inf logits
        pts, evidence = stack_vectors(pool)
        fits = []
        for k in K_RANGE:
            assign, cents = ref_kmeans(pts, k, BLOCKS, np.random.default_rng(k))
            for labels in (assign, np.minimum(assign, max(k - 2, 0))):
                fits.append((labels, cents))
        np.testing.assert_allclose(
            _pool_log_likelihood(pts, evidence, fits),
            [ref_pool_log_likelihood(pts, evidence, *fit, BLOCKS) for fit in fits],
            **TOLERANCE,
        )

    def test_fit_pool_winner_matches(self, pool):
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        aic, k, assign, centroids = _fit_pool(*stack_vectors(pool), rng)
        ref_aic, ref_k, ref_assign, ref_cents = ref_fit_pool(pool, 6, ref_rng)
        assert k == ref_k
        assert np.array_equal(assign, ref_assign)
        np.testing.assert_allclose(aic, ref_aic, **TOLERANCE)
        np.testing.assert_allclose(centroids, ref_cents, **TOLERANCE)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def ref_association(assigned, true):
    """Share of targets whose learned class (-1 for none) maps to their true
    class under the optimal one-to-one matching, by the Hungarian method."""
    classified = assigned >= 0
    true_labels = np.unique(true)
    learned_labels = np.unique(assigned[classified])
    confusion = np.zeros((true_labels.size, learned_labels.size))
    np.add.at(
        confusion,
        (np.searchsorted(true_labels, true[classified]),
         np.searchsorted(learned_labels, assigned[classified])),
        1,
    )
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / true.size


class TestScoreClasses:
    def test_association_matches_hungarian(self):
        # every shape of true x learned classes up to MAX_CLASSES, either
        # side the larger, some targets unclassified
        rng = np.random.default_rng(31)
        for k_true in K_RANGE:
            for k_learned in K_RANGE:
                for _ in range(80):
                    n = int(rng.integers(k_true + k_learned, 60))
                    true = rng.permutation(np.arange(n) % k_true) * 7 + 3
                    assigned = rng.permutation(np.arange(n) % (k_learned + 1)) * 2 - 1
                    # learned labels cluster a little with the true ones, so
                    # the optimum is not always the diagonal
                    follow = rng.random(n) < 0.4
                    assigned[follow] = (true[follow] % k_learned) * 2 + 1
                    _, association = score_classes(ClassLibrary(), assigned, true)
                    assert association == ref_association(assigned, true)


class TestAssignClass:
    def test_matches_nearest_by_distribution_distance(self, monkeypatch):
        pool = dirichlet_pool(60, 3)
        centroids = pool[:5]
        library = library_of(centroids)
        for radius in (0.05, 0.25, 10.0):
            for v in pool[5:]:
                dists = [ref_distribution_distance(v, c) for c in centroids]
                best = int(np.argmin(dists))
                want = -1 if dists[best] > radius else best
                monkeypatch.setattr(classlib, "DEFAULT_ACCEPT_RADIUS", radius)
                assert assign_class(library, v.values[None]).tolist() == [want]

    def test_batch_equals_per_vector_argmin(self, monkeypatch, pool):
        # the whole pool in one call against a loop that scores one vector
        # at a time; the radius splits the pool into matches and misses
        library = library_of(dirichlet_pool(6, 21))
        points = stack_vectors(pool)[0]
        per_vector = [
            ref_distance_matrix(p[None], library.centroids, BLOCKS)[0] for p in points
        ]
        radius = float(np.median([d.min() for d in per_vector]))
        want = []
        for d in per_vector:
            best = int(np.argmin(d))
            want.append(-1 if d[best] > radius else best)
        monkeypatch.setattr(classlib, "DEFAULT_ACCEPT_RADIUS", radius)
        got = assign_class(library, points)
        assert got.shape == (len(pool),) and got.tolist() == want
        assert -1 in want and len(set(want)) > 2

    def test_ties_go_to_the_class_listed_first(self):
        a, b = dirichlet_pool(2, 8)
        library = library_of([b, a, a, b])
        values = stack_vectors([a, b, a])[0]
        assert assign_class(library, values).tolist() == [1, 0, 1]
        # a matrix-vector product would score some of these equal rows
        # differently in the last bit
        a, b, c = dirichlet_pool(3, 12)
        library = library_of([a, b, c, a, b, c])
        values = stack_vectors([a, b, c, a, b, c, a])[0]
        assert assign_class(library, values).tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_no_class_within_the_radius_gives_minus_one(self, monkeypatch):
        library = library_of(dirichlet_pool(3, 4))
        monkeypatch.setattr(classlib, "DEFAULT_ACCEPT_RADIUS", 0.0)
        got = assign_class(library, stack_vectors(dirichlet_pool(10, 5))[0])
        assert got.tolist() == [-1] * 10


class TestGreedyIdMatch:
    def _match(self, new, old, first_id=10):
        """(package, reference) ids of the new centroid vectors against a
        library of the old ones, ids first_id, first_id + 3, ..."""
        library = library_of(old, first_id, step=3)
        got = _greedy_id_match(stack_vectors(new)[0], library)
        assert got.dtype == np.int64
        return got.tolist(), ref_greedy_id_match(new, library.ids.tolist(), old)

    def test_matches_pair_list(self, pool):
        for n_new in (1, 3, 6):
            for n_old in (0, 1, 2, 5):
                got, want = self._match(pool[:n_new], pool[-n_old:] if n_old else [])
                assert got == want

    def test_ties_follow_new_index_then_old_order(self):
        # equal centroids make every distance a tie
        distinct = dirichlet_pool(2, 8)
        new = [distinct[0], distinct[0], distinct[1], distinct[0]]
        old = [distinct[0], distinct[0], distinct[1]]
        got, want = self._match(new, old, first_id=7)
        assert got == want == [7, 10, 13, 14]


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
                    state = sample_next_one(chain, state, rng)
                    ref_state = ref_sample_next(chain, ref_state, ref_rng)
                    assert state == ref_state
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_probability_state_never_drawn(self):
        class Zero:
            """A generator whose uniform draws are exactly 0.0."""

            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        chain = MarkovChain(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]]))
        assert [sample_next_one(chain, s, Zero()) for s in range(3)] == [1, 2, 0]

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
