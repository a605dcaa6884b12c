"""Class-library tests: the vector builder, distances, clustering, model
order."""

import math

import numpy as np
import pytest

from crnsim.classlib import (
    BlockMismatch,
    BlockSpec,
    ClassLibrary,
    TooFewPoints,
    assign_class,
    family_blocks,
    kmeans_distributions,
    occupancy_sample_size,
    score_classes,
    select_k_aic,
    update_library,
    vectors_from_counts,
    _distance_matrix,
    _lloyd,
)
from crnsim.engine import Coordinator
from crnsim.markov import MarkovChain
from crnsim.scenario import default_family
from scalar_reference import (
    ParameterVector,
    distribution_distance,
    make_parameter_vector,
    record_reading,
    sample_path,
    stack_vectors,
    vector_from_histories,
)

FAMILY = default_family()
BLOCKS = family_blocks()

# single-block JSD of [0.5,0.5] vs [0.9,0.1], frozen from the reference
# implementation below
JSD_HALF_VS_NINETY = 0.146793


def reference_jsd(p, q):
    """Independent base-2 JSD: plain loops, no shared code with the package."""
    m = [(pi + qi) / 2.0 for pi, qi in zip(p, q)]

    def h(dist):
        return -sum(x * math.log2(x) for x in dist if x > 0.0)

    return h(m) - 0.5 * h(p) - 0.5 * h(q)


def _single(probs, block):
    return ParameterVector(values=probs, blocks=(block,), evidence=np.ones(1))


def synth_vector(class_index, rng, n_motion=50, n_signal=25):
    """A class member observed at every step of its sampled paths."""
    cls = FAMILY.classes[class_index]
    return vector_from_histories(
        list(enumerate(sample_path(cls.motion_chain, n_motion, rng=rng))),
        list(enumerate(sample_path(cls.signal_chain, n_signal, rng=rng))),
        num_motion_states=3,
        num_signal_states=4,
    )


def counted_vector(motion_readings, signal_readings, num_signal_states=4):
    """One track's behavior vector from (step, state) readings, counted by
    a coordinator's recorders and built by `vectors_from_counts`."""
    c = Coordinator(
        library=ClassLibrary(),
        num_signal_states=num_signal_states,
        use_class_knowledge=False,
        num_targets=1,
    )
    for step, state in motion_readings:
        c.record_motion([0], step, [state])
    for step, state in signal_readings:
        c.record_signal([0], step, [state])
    values, evidence = vectors_from_counts(
        c.motion_counts, c.motion_transitions, c.signal_counts, c.signal_transitions
    )
    return ParameterVector(values[0], family_blocks(3, num_signal_states), evidence[0])


def strong_class_vector(class_index, n=200.0):
    """Exact class parameters carrying heavy evidence, as if observed for
    a long time."""
    cls = FAMILY.classes[class_index]
    return make_parameter_vector(
        cls.motion_chain.stationary,
        cls.motion_chain.transition,
        cls.signal_chain.stationary,
        cls.signal_chain.transition,
        np.full(9, n),
    )


def random_family_vector(rng):
    pi_v = rng.dirichlet(np.ones(3))
    pi_s = rng.dirichlet(np.ones(4))
    P_v = rng.dirichlet(np.ones(3), size=3)
    P_s = rng.dirichlet(np.ones(4), size=4)
    return make_parameter_vector(pi_v, P_v, pi_s, P_s, np.full(9, 10.0))


class TestDistance:
    def test_identical_vectors_zero(self):
        v = strong_class_vector(0)
        assert distribution_distance(v, v) == 0.0

    def test_frozen_single_block_value(self):
        a = _single(np.array([0.5, 0.5]), BlockSpec("pi_v", 2))
        b = _single(np.array([0.9, 0.1]), BlockSpec("pi_v", 2))
        got = distribution_distance(a, b)
        ref = reference_jsd([0.5, 0.5], [0.9, 0.1])
        assert got == pytest.approx(ref, rel=1e-12)
        assert got == pytest.approx(JSD_HALF_VS_NINETY, abs=1e-6)

    def test_disjoint_motion_occupancy_gives_one(self):
        # everything shared except pi_v on disjoint supports: JSD=1, weight 1
        shared = dict(
            pi_s=np.full(4, 0.25),
            P_v=np.full((3, 3), 1 / 3),
            P_s=np.full((4, 4), 0.25),
            evidence=np.ones(9),
        )
        a = make_parameter_vector(pi_v=np.array([1.0, 0, 0]), **shared)
        b = make_parameter_vector(pi_v=np.array([0, 1.0, 0]), **shared)
        assert distribution_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_transition_row_weighted_half(self):
        base = dict(
            pi_v=np.full(3, 1 / 3),
            pi_s=np.full(4, 0.25),
            P_s=np.full((4, 4), 0.25),
            evidence=np.ones(9),
        )
        P1 = np.full((3, 3), 1 / 3)
        P2 = P1.copy()
        P1[0] = [1.0, 0, 0]
        P2[0] = [0, 1.0, 0]
        a = make_parameter_vector(P_v=P1, **base)
        b = make_parameter_vector(P_v=P2, **base)
        assert distribution_distance(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        bound = 2.0 + 0.5 * 7  # unit-weight pi blocks + half-weight rows
        for _ in range(50):
            a, b = random_family_vector(rng), random_family_vector(rng)
            d_ab = distribution_distance(a, b)
            assert d_ab == pytest.approx(distribution_distance(b, a), rel=1e-12)
            assert 0.0 <= d_ab <= bound

    def test_sqrt_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c = (random_family_vector(rng) for _ in range(3))
            ab = math.sqrt(distribution_distance(a, b))
            bc = math.sqrt(distribution_distance(b, c))
            ac = math.sqrt(distribution_distance(a, c))
            assert ac <= ab + bc + 1e-12

    def test_block_mismatch_raises(self):
        a = random_family_vector(np.random.default_rng(3))
        b = make_parameter_vector(
            np.full(3, 1 / 3), np.full((3, 3), 1 / 3),
            np.full(5, 0.2), np.full((5, 5), 0.2), np.ones(10),
        )
        with pytest.raises(BlockMismatch):
            distribution_distance(a, b)


class TestParameterVector:
    def test_block_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_parameter_vector(
                np.array([0.5, 0.2, 0.1]), np.full((3, 3), 1 / 3),
                np.full(4, 0.25), np.full((4, 4), 0.25), np.ones(9),
            )

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            make_parameter_vector(
                np.array([1.2, -0.1, -0.1]), np.full((3, 3), 1 / 3),
                np.full(4, 0.25), np.full((4, 4), 0.25), np.ones(9),
            )

    def test_evidence_one_entry_per_block(self):
        with pytest.raises(BlockMismatch):
            make_parameter_vector(
                np.full(3, 1 / 3), np.full((3, 3), 1 / 3),
                np.full(4, 0.25), np.full((4, 4), 0.25), np.ones(2),
            )

    def test_row_counts_recorded_per_row(self):
        motion_readings = [(0, 0), (1, 0), (1, 2), (2, 1), (5, 2), (6, 2)]
        signal_readings = [(3, 1), (4, 2), (4, 0), (9, 2), (10, 3)]
        motion = []
        # (1, 2) and (4, 0) are second readings in a step and are dropped
        for step, state in motion_readings:
            record_reading(motion, step, state)
        assert motion == [(0, 0), (1, 0), (2, 1), (5, 2), (6, 2)]
        v = counted_vector(motion_readings, signal_readings)
        np.testing.assert_array_equal(v.values[:3], [0.4, 0.2, 0.4])
        # 0->0, 0->1, then 2->2 after the gap; nothing counted across it
        np.testing.assert_array_equal(v.evidence[2:5], [2.0, 0.0, 1.0])
        np.testing.assert_array_equal(v.evidence[5:], [0.0, 1.0, 1.0, 0.0])


class TestOccupancySampleSize:
    def test_persistent_chain_discounts_hard(self):
        # P = 0.75 I + 0.25 * uniform: mean self-transition 5/6
        pi = np.full(3, 1 / 3)
        P = 0.75 * np.eye(3) + 0.25 * np.full((3, 3), 1 / 3)
        assert occupancy_sample_size(50, pi, P) == pytest.approx(50 / 11)

    def test_iid_chain_keeps_partial_credit(self):
        # iid uniform 2-state: rho = 0.5 -> n/3 (deliberately conservative)
        pi = np.array([0.5, 0.5])
        P = np.full((2, 2), 0.5)
        assert occupancy_sample_size(30, pi, P) == pytest.approx(10.0)

    def test_frozen_chain_has_no_evidence(self):
        pi = np.array([1.0, 0.0])
        assert occupancy_sample_size(40, pi, np.eye(2)) == 0.0

    def test_no_steps_no_evidence(self):
        assert occupancy_sample_size(0, np.array([1.0]), np.eye(1)) == 0.0


class TestVectorFromPaths:
    """The count builder on paths observed at every step."""

    def test_hand_built_counts(self):
        v = counted_vector(enumerate([0, 0, 1]), enumerate([2, 2, 2, 3]))
        np.testing.assert_allclose(v.values[:3], [2 / 3, 1 / 3, 0])
        np.testing.assert_allclose(v.values[3:7], [0, 0, 0.75, 0.25])
        # motion row 0 saw 0->0 and 0->1 once each, then +1 smoothing
        row0 = v.values[7:10]
        np.testing.assert_allclose(row0, [2 / 5, 2 / 5, 1 / 5])
        # evidence: pi_v, pi_s, then motion rows, then signal rows
        assert v.evidence[2] == 2.0
        assert v.evidence[3] == 0.0
        assert v.evidence[7] == 3.0

    def test_occupancy_evidence_wired_through(self):
        rng = np.random.default_rng(4)
        cls = FAMILY.classes[0]
        mpath = sample_path(cls.motion_chain, 40, rng=rng)
        spath = sample_path(cls.signal_chain, 20, rng=rng)
        v = counted_vector(enumerate(mpath), enumerate(spath))
        pi_v, P_v = v.values[:3], v.values[7:16].reshape(3, 3)
        assert v.evidence[0] == pytest.approx(occupancy_sample_size(40, pi_v, P_v))
        assert 0.0 < v.evidence[0] < 40.0


class TestKmeans:
    def test_k1_centroid_is_blockwise_mean(self):
        rng = np.random.default_rng(5)
        pool = [random_family_vector(rng) for _ in range(10)]
        assign, cents = kmeans_distributions(stack_vectors(pool)[0], 1, BLOCKS, rng)
        assert np.all(assign == 0) and cents.shape == (1, 32)
        np.testing.assert_allclose(
            cents[0], np.mean([v.values for v in pool], axis=0),
            atol=1e-12,
        )

    def test_duplicated_vector_zero_within_distance(self):
        v = strong_class_vector(1)
        pool = [v] * 8
        rng = np.random.default_rng(6)
        points = stack_vectors(pool)[0]
        for k in (1, 2, 3):
            assign, cents = kmeans_distributions(points, k, BLOCKS, rng)
            for i, a in enumerate(assign):
                assert distribution_distance(pool[i], make_like(v, cents[a])) < 1e-12

    def test_well_separated_pair_matches_brute_force(self):
        # two tight groups around different class parameters; cross-distance
        # dwarfs within-distance, so the optimal 2-partition is unambiguous
        rng = np.random.default_rng(7)
        pool = []
        for ci in (0, 2):
            base = strong_class_vector(ci)
            for _ in range(4):
                jittered = np.concatenate([
                    rng.dirichlet(base.values[sl] * 800 + 1)
                    for _, sl in _slices(base.blocks)
                ])
                pool.append(
                    make_like(base, jittered)
                )
        within = [distribution_distance(pool[i], pool[j])
                  for i in range(4) for j in range(i + 1, 4)]
        cross = [distribution_distance(pool[i], pool[j])
                 for i in range(4) for j in range(4, 8)]
        assert min(cross) > 5 * max(within)

        pts = stack_vectors(pool)[0]
        blocks = pool[0].blocks
        best_mask = brute_force_two_means(pts, blocks)
        assign, _ = kmeans_distributions(pts, 2, blocks, np.random.default_rng(8))
        assert np.array_equal(assign == assign[0], best_mask == best_mask[0])

    def test_more_clusters_than_points_raises(self):
        points = stack_vectors([strong_class_vector(i) for i in range(3)])[0]
        with pytest.raises(TooFewPoints):
            kmeans_distributions(points, 4, BLOCKS, np.random.default_rng(9))

    def test_lloyd_objective_non_increasing(self):
        # KL is a Bregman divergence: the blockwise mean minimises it, so
        # neither the assignment nor the centroid step can raise the
        # objective (25-step paths leave exact zeros for the log clamp)
        rng = np.random.default_rng(10)
        pool = [synth_vector(i % 3, rng, 25, 25) for i in range(130)]
        blocks = pool[0].blocks
        for size in (30, 130):
            pts = stack_vectors(pool[:size])[0]
            for seed in range(5):
                for k in (2, 3, 4, 6):
                    _, _, obj, trace = _lloyd(
                        pts, k, blocks, np.random.default_rng(seed)
                    )
                    for earlier, later in zip(trace, trace[1:]):
                        assert later <= earlier + 1e-9
                    assert obj <= trace[-1] + 1e-9


def _slices(blocks):
    offset = 0
    for b in blocks:
        yield b, slice(offset, offset + b.length)
        offset += b.length


def make_like(template, values):
    return ParameterVector(
        values=values, blocks=template.blocks, evidence=template.evidence
    )


def brute_force_two_means(pts, blocks):
    """Exhaustive best 2-partition by the k-means objective (n <= 12)."""
    n = pts.shape[0]
    best_obj, best_mask = np.inf, None
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        obj = 0.0
        for side in (mask, ~mask):
            centroid = pts[side].mean(axis=0, keepdims=True)
            obj += float(_distance_matrix(pts[side], centroid, blocks).sum())
        if obj < best_obj:
            best_obj, best_mask = obj, mask
    return best_mask


class TestSelectK:
    def test_identical_vectors_pick_one(self):
        pool = [strong_class_vector(0)] * 10
        rng = np.random.default_rng(11)
        assert select_k_aic(*stack_vectors(pool), BLOCKS, rng) == 1

    def test_two_far_groups_pick_two(self):
        rng = np.random.default_rng(12)
        pool = [synth_vector(0, rng, 300, 150) for _ in range(8)]
        pool += [synth_vector(2, rng, 300, 150) for _ in range(8)]
        assert select_k_aic(*stack_vectors(pool), BLOCKS, rng) == 2

    def test_three_class_recovery_rate(self):
        # 30 targets per trial, 10 per class, 50-step motion / 25-step signal
        hits = 0
        for seed in range(10_000, 10_020):
            rng = np.random.default_rng(seed)
            pool = [synth_vector(i % 3, rng) for i in range(30)]
            hits += select_k_aic(*stack_vectors(pool), BLOCKS, rng) == 3
        assert hits >= 16  # >= 80%

    def test_large_cumulative_pool_stays_at_three(self):
        # pools keep growing across epochs; the choice must not drift upward
        rng = np.random.default_rng(13)
        pool = [synth_vector(i % 3, rng, 25, 25) for i in range(450)]
        assert select_k_aic(*stack_vectors(pool), BLOCKS, rng) == 3


def library_of(ids, centroids):
    """A library of the given ids (ascending) and (k, L) centroids."""
    return ClassLibrary(ids=np.asarray(ids), centroids=np.asarray(centroids))


def class_sizes(library, assigned):
    """How many pool vectors each library class holds, in table order."""
    rows = np.searchsorted(library.ids, assigned)
    assert np.array_equal(library.ids[rows], assigned)
    return np.bincount(rows, minlength=library.ids.size).tolist()


def update_from(library, pool, rng):
    """`update_library` on a list of vectors, stacked into the pool table."""
    return update_library(library, *stack_vectors(pool), pool[0].blocks, rng)


class TestUpdateLibrary:
    def test_fresh_library_from_first_epoch(self):
        rng = np.random.default_rng(10_000)
        pool = [synth_vector(i % 3, rng) for i in range(30)]
        lib, assigned = update_from(ClassLibrary(), pool, rng)
        assert lib.ids.tolist() == [0, 1, 2]
        assert lib.centroids.shape == (3, 32)
        sizes = class_sizes(lib, assigned)
        assert min(sizes) > 0 and sum(sizes) == 30
        assert assigned.shape == (30,)
        assert set(assigned) == {0, 1, 2}

    def test_reclustering_same_pool_is_fixed_point(self):
        pool = [strong_class_vector(i) for i in range(3)] * 20
        rng = np.random.default_rng(14)
        lib1, assigned1 = update_from(ClassLibrary(), pool, rng)
        lib2, assigned2 = update_from(lib1, pool, rng)
        assert lib2.ids.tolist() == lib1.ids.tolist()
        np.testing.assert_allclose(lib1.centroids, lib2.centroids, atol=1e-9)
        assert class_sizes(lib1, assigned1) == class_sizes(lib2, assigned2) == [20] * 3

    def test_ids_stable_as_pool_grows(self):
        rng = np.random.default_rng(10_000)
        pool = [synth_vector(i % 3, rng) for i in range(30)]
        lib1, _ = update_from(ClassLibrary(), pool, rng)
        pool += [synth_vector(i % 3, rng) for i in range(30)]
        lib2, _ = update_from(lib1, pool, rng)
        assert lib2.ids.tolist() == lib1.ids.tolist()
        # each retained id still describes the same underlying class
        template = pool[0]
        for c1, c2 in zip(lib1.centroids, lib2.centroids):
            a, b = make_like(template, c1), make_like(template, c2)
            assert distribution_distance(a, b) < 0.1

    def test_ids_must_ascend(self):
        centroids = np.tile(strong_class_vector(0).values, (2, 1))
        for ids in ([1, 0], [2, 2]):
            with pytest.raises(ValueError):
                library_of(ids, centroids)


class TestAssignClass:
    def test_empty_library_returns_none(self):
        # -1: no class
        values = strong_class_vector(0).values[None]
        assert assign_class(ClassLibrary(), values).tolist() == [-1]

    def test_exact_centroid_maps_to_its_class(self):
        pool = [strong_class_vector(i) for i in range(3)] * 20
        lib, _ = update_from(ClassLibrary(), pool, np.random.default_rng(15))
        assert assign_class(lib, lib.centroids).tolist() == list(range(lib.ids.size))

    def test_matches_nearest_neighbor_oracle(self):
        pool = [strong_class_vector(i) for i in range(3)] * 20
        lib, _ = update_from(ClassLibrary(), pool, np.random.default_rng(16))
        rng = np.random.default_rng(17)
        for _ in range(20):
            v = random_family_vector(rng)
            radius = rng.uniform(0.05, 1.5)
            dists = {
                row: distribution_distance(v, make_like(v, centroid))
                for row, centroid in enumerate(lib.centroids)
            }
            nearest = min(dists, key=dists.get)
            expected = nearest if dists[nearest] <= radius else -1
            got = assign_class(lib, v.values[None], accept_radius=radius)
            assert got.tolist() == [expected]

    def test_beyond_radius_unclassified(self):
        lib = library_of([0], strong_class_vector(0).values[None])
        far = strong_class_vector(2)
        assert distribution_distance(far, strong_class_vector(0)) > 0.25
        assert assign_class(lib, far.values[None]).tolist() == [-1]


class TestScoreClasses:
    def _library_of_size(self, k):
        return library_of(np.arange(k), np.tile(strong_class_vector(0).values, (k, 1)))

    def test_perfect_clustering(self):
        lib = self._library_of_size(3)
        true = np.repeat([0, 1, 2], 10)
        formation, association = score_classes(lib, true.copy(), true)
        assert formation == 1.0 and association == 1.0

    def test_ten_percent_misassigned(self):
        lib = self._library_of_size(3)
        true = np.repeat([0, 1, 2], 10)
        assigned = true.copy()
        assigned[[0, 10, 20]] = [1, 2, 0]  # 3 of 30 wrong
        formation, association = score_classes(lib, assigned, true)
        assert formation == 1.0
        assert association == pytest.approx(0.9)

    def test_formation_partial_credit(self):
        true = np.repeat([0, 1, 2], 5)
        for k_hat, expected in ((1, 1 / 3), (4, 2 / 3), (6, 0.0)):
            lib = self._library_of_size(k_hat)
            formation, _ = score_classes(lib, true.copy(), true)
            assert formation == pytest.approx(expected)

    def test_random_assignment_near_chance(self):
        # optimal matching inflates pure chance a little above 1/3 at finite n
        lib = self._library_of_size(3)
        rng = np.random.default_rng(18)
        true = np.repeat([0, 1, 2], 100)
        scores = [
            score_classes(lib, rng.integers(0, 3, true.size), true)[1]
            for _ in range(30)
        ]
        assert 0.30 < np.mean(scores) < 0.42

    def test_unclassified_counted_against_association(self):
        lib = self._library_of_size(2)
        true = [0] * 5 + [1] * 5
        assigned = [0] * 5 + [-1] * 5
        _, association = score_classes(lib, assigned, true)
        assert association == pytest.approx(0.5)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            score_classes(self._library_of_size(2), [0, 1], [0, 1, 2])


class TestClassTuning:
    def test_centroid_rows_become_mode_transition(self):
        lib, _ = update_from(
            ClassLibrary(), [strong_class_vector(i) for i in range(3)] * 5,
            np.random.default_rng(21),
        )
        chains = lib.mode_transitions()
        assert chains.shape == (lib.ids.size, 3, 3)
        for chain in chains:
            MarkovChain(chain)
            np.testing.assert_allclose(chain.sum(axis=1), 1.0, atol=1e-12)
        # a strong pure-class library reproduces the true mixing chains
        for ci in range(3):
            true_vec = strong_class_vector(ci)
            (row,) = assign_class(lib, true_vec.values[None])
            np.testing.assert_allclose(
                chains[row],
                FAMILY.classes[ci].motion_chain.transition,
                atol=1e-9,
            )


class TestLearnedLibraryConsistency:
    def test_unique_mapping_from_true_parameters(self):
        # a library learned from well-observed members sends each true
        # class's exact parameters back to a single distinct learned class
        rng = np.random.default_rng(22)
        pool = [synth_vector(i % 3, rng, 200, 100) for i in range(30)]
        lib, _ = update_from(ClassLibrary(), pool, rng)
        assert lib.ids.size == 3
        # learned centroids sit near, not on, the true parameters (smoothing
        # bias), so allow a wider radius than the online default here
        truths = np.stack([strong_class_vector(ci).values for ci in range(3)])
        hits = set(assign_class(lib, truths, accept_radius=0.5).tolist())
        assert -1 not in hits and len(hits) == 3

    def test_association_improves_with_longer_observation(self):
        rng = np.random.default_rng(23)
        scores = []
        for steps in (15, 200):
            true = np.array([i % 3 for i in range(30)])
            pool = [synth_vector(c, rng, steps, steps) for c in true]
            lib, assigned = update_from(ClassLibrary(), pool, rng)
            scores.append(score_classes(lib, assigned, true)[1])
        assert scores[1] >= scores[0]
        assert scores[1] > 0.95
