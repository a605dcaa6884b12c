import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnsim.engine import _smoothed
from crnsim.markov import (
    EmptySequence,
    MarkovChain,
    NonUniqueStationary,
    StateSequence,
    equal_in_state_distribution,
    estimate_transitions,
    normalized_entropy,
    sample_next,
    sample_path,
    stationary_distribution,
)


def power_iteration_stationary(P, tol=1e-14, max_iter=500_000):
    """Independent oracle: iterate pi <- pi P from uniform until converged."""
    P = np.asarray(P, dtype=float)
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(max_iter):
        nxt = pi @ P
        if np.abs(nxt - pi).max() < tol:
            return nxt / nxt.sum()
        pi = nxt
    return pi / pi.sum()


class TestMarkovChain:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_default_labels(self):
        c = MarkovChain(np.eye(3))
        assert c.labels == ("s0", "s1", "s2")
        assert c.num_states == 3

    def test_equality_is_identity_and_does_not_raise(self):
        P = np.array([[0.9, 0.1], [0.5, 0.5]])
        a, b = MarkovChain(P), MarkovChain(P)
        assert a == a
        assert (a == b) is False
        assert a != b


class TestStationaryDistribution:
    def test_single_state(self):
        c = MarkovChain(np.array([[1.0]]))
        assert stationary_distribution(c) == pytest.approx([1.0])

    def test_symmetric_two_state(self):
        c = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert stationary_distribution(c) == pytest.approx([0.5, 0.5])

    def test_asymmetric_two_state(self):
        # pi P = pi solved by hand: pi = (q, p)/(p+q) with p=0.1, q=0.5
        c = MarkovChain(np.array([[0.9, 0.1], [0.5, 0.5]]))
        pi = stationary_distribution(c)
        assert pi == pytest.approx([5 / 6, 1 / 6], abs=1e-12)
        assert pi == pytest.approx(power_iteration_stationary(c.transition), abs=1e-9)

    def test_matches_power_iteration_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.integers(2, 6)
            P = rng.gamma(1.0, 1.0, size=(p, p)) + 1e-3
            P /= P.sum(axis=1, keepdims=True)
            c = MarkovChain(P)
            pi = stationary_distribution(c)
            assert pi == pytest.approx(power_iteration_stationary(P), abs=1e-9)
            # fixed point: one application of P returns pi
            assert pi @ P == pytest.approx(pi, abs=1e-9)

    def test_reducible_chain_rejected(self):
        c = MarkovChain(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(c)

    def test_two_closed_blocks_rejected(self):
        P = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.2, 0.8],
                [0.0, 0.0, 0.8, 0.2],
            ]
        )
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(MarkovChain(P))

    def test_transient_state_is_fine(self):
        # state 0 leaks into the closed block {1, 2}; stationary is unique
        P = np.array([[0.5, 0.5, 0.0], [0.0, 0.6, 0.4], [0.0, 0.3, 0.7]])
        pi = stationary_distribution(MarkovChain(P))
        assert pi[0] == pytest.approx(0.0, abs=1e-12)
        assert pi @ P == pytest.approx(pi, abs=1e-9)


class TestSampleNext:
    def test_deterministic_transition(self):
        c = MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))
        rng = np.random.default_rng(0)
        assert sample_next(c, 0, rng) == 1

    def test_absorbing_state(self):
        c = MarkovChain(np.eye(2))
        rng = np.random.default_rng(0)
        assert sample_next(c, 1, rng) == 1

    def test_empirical_frequency(self):
        c = MarkovChain(np.array([[0.9, 0.1], [0.5, 0.5]]))
        rng = np.random.default_rng(42)
        draws = np.array([sample_next(c, 0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(0.1, abs=0.005)


class _ConstantDraws:
    """Generator stand-in whose uniform draws all equal u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


class TestSamplePath:
    def test_draw_above_an_unnormalised_row_sum_stays_in_range(self):
        # a valid row summing to 1 - 5e-10; a draw above that sum must still
        # land on the last state
        chain = MarkovChain(np.array([[0.5, 0.5 - 5e-10], [0.5, 0.5]]))
        path = sample_path(chain, 6, init=0, rng=_ConstantDraws(1.0 - 1e-10))
        assert path.tolist() == [0, 1, 1, 1, 1, 1]

    def test_steps_match_sample_next(self):
        chain = MarkovChain(np.array([[0.8, 0.15, 0.05], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]]))
        # with init given, sample_path takes one random(200) call
        path = sample_path(chain, 200, init=2, rng=np.random.default_rng(4))
        u = np.random.default_rng(4).random(200)
        for t in range(1, 200):
            want = sample_next(chain, int(path[t - 1]), _ConstantDraws(u[t]))
            assert path[t] == want

    @pytest.mark.parametrize("length", [0, -1])
    def test_rejects_empty_path_before_any_draw(self, length):
        chain = MarkovChain(np.array([[0.9, 0.1], [0.5, 0.5]]))
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            sample_path(chain, length, rng=rng)
        assert rng.bit_generator.state == before


class TestEstimateTransitions:
    def test_constant_sequence_unvisited_row_uniform(self):
        est = estimate_transitions(StateSequence((0, 0, 0, 0)), 2, smoothing=0.0)
        assert est.transition[0] == pytest.approx([1.0, 0.0])
        assert est.transition[1] == pytest.approx([0.5, 0.5])

    def test_alternating_sequence(self):
        est = estimate_transitions(StateSequence((0, 1, 0, 1, 0)), 2, smoothing=0.0)
        assert est.transition == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_too_short(self):
        with pytest.raises(EmptySequence):
            estimate_transitions(StateSequence((0,)), 2)

    def test_generate_then_estimate_roundtrip(self):
        P = np.array([[0.9, 0.1], [0.5, 0.5]])
        chain = MarkovChain(P)
        rng = np.random.default_rng(3)
        path = sample_path(chain, 10_000, rng=rng)
        est = estimate_transitions(StateSequence(tuple(path)), 2, smoothing=1.0)
        assert np.abs(est.transition - P).max() < 0.02

    def test_path_occupancy_matches_stationary(self):
        P = np.array([[0.8, 0.15, 0.05], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]])
        chain = MarkovChain(P)
        rng = np.random.default_rng(11)
        path = sample_path(chain, 20_000, rng=rng)
        occ = np.bincount(path, minlength=3) / path.size
        assert occ == pytest.approx(stationary_distribution(chain), abs=0.02)


class TestNormalizedEntropy:
    def test_degenerate(self):
        assert normalized_entropy([1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert normalized_entropy([0.5, 0.5]) == pytest.approx(1.0)
        assert normalized_entropy([0.25] * 4) == pytest.approx(1.0)

    def test_skewed_pair(self):
        # -(0.75*log2(0.75) + 0.25*log2(0.25)) / log2(2)
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert expected == pytest.approx(0.811278, abs=1e-6)
        assert normalized_entropy([0.75, 0.25]) == pytest.approx(expected, abs=1e-12)

    def test_single_state_convention(self):
        assert normalized_entropy([1.0]) == 0.0

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8).map(
            lambda w: np.array(w) / np.sum(w)
        )
    )
    def test_bounds_and_permutation_invariance(self, dist):
        h = normalized_entropy(dist)
        assert 0.0 <= h <= 1.0 + 1e-12
        rng = np.random.default_rng(0)
        assert normalized_entropy(rng.permutation(dist)) == pytest.approx(h)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 12])
    def test_rows_equal_per_row_calls(self, n):
        rng = np.random.default_rng(n)
        rows = rng.dirichlet(np.ones(n), size=64)
        rows[rng.random(rows.shape) < 0.3] = 0.0  # zero entries
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        got = normalized_entropy(rows)
        assert isinstance(normalized_entropy(rows[0]), float)
        assert got.shape == (64,)
        assert got.tolist() == [normalized_entropy(r) for r in rows]
        # one row, and a stack of row blocks
        assert normalized_entropy(rows[:1]).tolist() == [normalized_entropy(rows[0])]
        assert normalized_entropy(rows.reshape(8, 8, n)).tolist() == (
            got.reshape(8, 8).tolist()
        )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_uniform_and_smoothed_rows_never_exceed_one(self, n):
        # rounding puts the unclamped sum at 1 + 2**-52 for 11 uniform
        # states and for smoothed counts [1] * 5 and [0] * 6
        rows = np.vstack(
            [np.full(n, 1.0 / n)]
            + [_smoothed(np.full((1, n), c)) for c in (0, 1, 2, 3)]
        )
        assert normalized_entropy(rows).max() <= 1.0
        assert normalized_entropy(rows[0]) <= 1.0

    @given(st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_uniform_is_unique_maximizer(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        if np.abs(w - 1.0 / n).max() > 1e-3:
            assert normalized_entropy(w) < 1.0
        # mixing toward uniform never lowers entropy
        mixed = 0.5 * w + 0.5 / n
        assert normalized_entropy(mixed) >= normalized_entropy(w) - 1e-12


class TestEqualInStateDistribution:
    def test_identity(self):
        assert equal_in_state_distribution([0.5, 0.5], [0.5, 0.5], 1e-6)

    def test_disjoint(self):
        assert not equal_in_state_distribution([1.0, 0.0], [0.0, 1.0], 0.1)

    def test_within_tolerance(self):
        assert equal_in_state_distribution([0.80, 0.20], [0.78, 0.22], 0.05)

    def test_length_mismatch(self):
        assert not equal_in_state_distribution([1.0], [0.5, 0.5], 0.5)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            equal_in_state_distribution([1.0], [1.0], 0.0)
