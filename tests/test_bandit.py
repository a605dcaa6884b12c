import copy
import math

import numpy as np
import pytest

from crnsim.bandit import (
    ACTIVE,
    PASSIVE,
    BanditState,
    OutOfRangeReward,
    PolicyKind,
    baseline_policy,
    compute_rewards,
    record_reward,
    ucb_select,
)
from crnsim.classlib import ClassLibrary
from crnsim.engine import Coordinator, PolicySpec, _track_uncertainties
from crnsim.markov import normalized_entropy, transition_matrix_from_counts
from crnsim.tracking import start_track

import scalar_reference as scalar


def one_node(counts=(0, 0), means=(0.0, 0.0)):
    """A bandit table with one node's row."""
    return BanditState(
        np.array([counts], dtype=np.int64), np.array([means], dtype=float)
    )


class TestComputeRewards:
    NODE_XY = np.array([[0.0, 0.0], [20_000.0, 0.0]])
    RADAR_RANGE_M = 4000.0
    # two tracks inside node 0's footprint, one outside every footprint
    TRACK_XY = np.array([[1000.0, 0.0], [0.0, 3000.0], [5000.0, 0.0]])
    ETAS = np.array([(0.2, 0.9), (0.6, 0.1), (1.0, 1.0)])

    def rewards(self, active, track_xy=TRACK_XY, etas=ETAS):
        return compute_rewards(
            self.NODE_XY, self.RADAR_RANGE_M, track_xy, etas, np.asarray(active)
        )

    def test_no_coverage_is_zero(self):
        # node 1 covers no track; a step without tracks pays nobody
        assert self.rewards([True, False])[1] == 0.0
        no_tracks = np.zeros((0, 2))
        assert self.rewards([True, True], no_tracks, no_tracks).tolist() == [0.0, 0.0]

    def test_unknown_tracks_max_uncertainty(self):
        # tracks with too little history count as fully uncertain (eta = 1)
        coordinator = Coordinator(library=ClassLibrary(), dt_s=0.5, num_targets=2)
        pos = np.column_stack([self.TRACK_XY[:2], np.zeros(2)])
        R = np.tile(np.eye(3), (2, 1, 1))
        coordinator.start_tracks(
            np.arange(2), *start_track(pos, R, pos, R, np.full(2, 0.5))
        )
        etas = _track_uncertainties(coordinator)
        assert etas.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        xy = coordinator.estimates[coordinator.live, :2]
        for active in (True, False):
            assert self.rewards([active, active], xy, etas)[0] == 1.0

    def test_five_signal_types_pay_a_valid_reward(self):
        # with five signal types, smoothed counts [1] * 5 used to give an
        # entropy of 1 + 2**-52, which record_reward rejected; the reward
        # entropies smooth each track's counts as `_track_uncertainties` does
        signal = np.ones((1, 5))
        eta = normalized_entropy(transition_matrix_from_counts(signal, 1.0 / 5))
        etas = np.column_stack([np.ones(1), eta])
        passive = np.array([False])
        reward = compute_rewards(
            self.NODE_XY[:1], self.RADAR_RANGE_M, np.zeros((1, 2)), etas, passive
        )[0]
        state = record_reward(one_node(), passive, np.array([reward]))
        assert state.means[0, PASSIVE] == reward

    def test_known_distributions(self):
        # node 0 averages over its two covered tracks only
        assert self.rewards([True, True])[0] == pytest.approx((0.2 + 0.6) / 2, abs=1e-15)

    def test_column_follows_mode(self):
        # a passive node is paid signal uncertainty, the second column
        assert self.rewards([False, True])[0] == pytest.approx((0.9 + 0.1) / 2, abs=1e-15)

    def test_footprint_edge_counts_as_covered(self):
        edge, etas = np.array([[4000.0, 0.0]]), np.array([(0.7, 0.3)])
        assert self.rewards([True, True], edge, etas).tolist() == [0.7, 0.0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            self.rewards([True, True], self.TRACK_XY, self.ETAS[:2])


class TestUcbSelect:
    def test_unplayed_arms_first_active_then_passive(self):
        state = one_node()
        assert ucb_select(state, 1).tolist() == [True]
        record_reward(state, np.array([True]), np.array([0.0]))
        assert ucb_select(state, 2).tolist() == [False]

    def test_tie_goes_to_active(self):
        assert ucb_select(one_node((3, 3), (0.5, 0.5)), 7).tolist() == [True]

    def test_exploration_bonus_hand_computed(self):
        # active: 0.5 + sqrt(ln 13 / 10) = 1.0064, passive: 0.9 + sqrt(ln 13 / 2) = 2.0325
        assert ucb_select(one_node((10, 2), (0.5, 0.9)), 13).tolist() == [False]
        # flip the counts and the bonus no longer rescues the weaker mean
        assert ucb_select(one_node((10, 10), (0.9, 0.5)), 21).tolist() == [True]

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            ucb_select(one_node(), 0)

    def test_converges_to_better_arm_under_constant_rewards(self):
        # gap of 0.15 between arm means: equilibrium pull share of the
        # better arm at horizon 50 should sit in the 0.55..0.9 band
        state = one_node()
        for t in range(1, 51):
            active = ucb_select(state, t)
            record_reward(state, active, np.where(active, 0.61, 0.46))
        share = state.counts[0, ACTIVE] / 50
        assert 0.55 <= share <= 0.9
        assert state.counts[0, PASSIVE] >= 5  # still explores


class TestRecordReward:
    def test_running_mean(self):
        state = one_node()
        for active, reward in ((True, 0.2), (True, 0.4), (False, 1.0)):
            record_reward(state, np.array([active]), np.array([reward]))
        assert state.means[0, ACTIVE] == pytest.approx(0.3)
        assert state.means[0, PASSIVE] == pytest.approx(1.0)
        assert state.counts.tolist() == [[2, 1]]

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.inf, math.nan])
    def test_rejects_out_of_range(self, bad):
        # one bad reward among good ones: no node's arm is updated
        state = BanditState(np.tile([1, 2], (3, 1)), np.tile([0.5, 0.25], (3, 1)))
        before = copy.deepcopy(state)
        with pytest.raises(OutOfRangeReward):
            record_reward(state, np.array([True, False, True]), np.array([0.5, bad, 1.0]))
        assert np.array_equal(state.counts, before.counts)
        assert np.array_equal(state.means, before.means)


class TestBaselinePolicy:
    def test_radar_only_always_active(self):
        rng = np.random.default_rng(0)
        active = baseline_policy(PolicyKind.RADAR_ONLY, 0.0, 100, rng)
        assert active.dtype == bool and active.all() and active.shape == (100,)

    def test_random_p_frequency(self):
        rng = np.random.default_rng(7)
        n = 20_000
        picks = baseline_policy(PolicyKind.RANDOM, 0.8, n, rng).sum()
        assert picks / n == pytest.approx(0.8, abs=0.01)

    def test_invalid_p_rejected(self):
        # baseline_policy trusts p; the policy spec it comes from checks it
        for p in (-0.2, 1.2):
            with pytest.raises(ValueError):
                PolicySpec(PolicyKind.RANDOM, p)


class TestBanditTableAgainstScalar:
    """The table functions give, node by node, exactly what one node's
    scalar bandit (`scalar_reference`) gives."""

    def random_state(self, rng, n=64):
        # small counts, so unplayed arms and both-played rows are common;
        # every eighth row ties on counts and means
        counts = rng.integers(0, 4, size=(n, 2))
        means = rng.random((n, 2))
        counts[::8, PASSIVE] = counts[::8, ACTIVE]
        means[::8, PASSIVE] = means[::8, ACTIVE]
        return BanditState(counts, means)

    @pytest.mark.parametrize("t", [1, 2, 7, 50])
    def test_ucb_select(self, t):
        state = self.random_state(np.random.default_rng(t))
        got = ucb_select(state, t)
        want = [scalar.ucb_select(c, m, t) for c, m in zip(state.counts, state.means)]
        assert got.dtype == bool and got.tolist() == want
        played = (state.counts > 0).all(axis=1)
        assert got[~played].any() and (~got[~played]).any()
        assert got[played].any() and (~got[played]).any()
        assert played[::8].any() and got[::8][played[::8]].all()  # ties

    def test_record_reward(self):
        rng = np.random.default_rng(11)
        state = self.random_state(rng)
        counts, means = state.counts.copy(), state.means.copy()
        for t in range(1, 20):
            active = ucb_select(state, t)
            rewards = rng.random(active.size)
            rewards[::5] = 0.0
            rewards[1::5] = 1.0
            record_reward(state, active, rewards)
            for i in range(active.size):
                scalar.record_reward(counts[i], means[i], active[i], float(rewards[i]))
            assert np.array_equal(state.counts, counts)
            assert np.array_equal(state.means, means)  # bit for bit

    @pytest.mark.parametrize("kind, p", [
        (PolicyKind.RADAR_ONLY, 0.0), (PolicyKind.RANDOM, 0.8), (PolicyKind.RANDOM, 0.3),
    ])
    def test_baseline_policy(self, kind, p):
        # one draw per node: the same mask and the same generator state as
        # one scalar draw per node
        batch, one = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(10):
            got = baseline_policy(kind, p, 17, batch)
            assert got.tolist() == [scalar.baseline_policy(kind, p, one) for _ in range(17)]
        assert batch.random() == one.random()
