import math

import numpy as np
import pytest

from crnsim.bandit import (
    BanditState,
    NodeMode,
    OutOfRangeReward,
    PolicyKind,
    baseline_policy,
    compute_rewards,
    record_reward,
    ucb_select,
)
from crnsim.classlib import ClassLibrary
from crnsim.engine import Coordinator, _track_uncertainties
from crnsim.tracking import start_track


class TestComputeRewards:
    NODE_XY = np.array([[0.0, 0.0], [20_000.0, 0.0]])
    RANGES = np.array([4000.0, 4000.0])
    # two tracks inside node 0's footprint, one outside every footprint
    TRACK_XY = [[1000.0, 0.0], [0.0, 3000.0], [5000.0, 0.0]]
    ETAS = [(0.2, 0.9), (0.6, 0.1), (1.0, 1.0)]

    def rewards(self, active, track_xy=TRACK_XY, etas=ETAS):
        return compute_rewards(
            self.NODE_XY, self.RANGES, track_xy, etas, np.asarray(active)
        )

    def test_no_coverage_is_zero(self):
        # node 1 covers no track; a step without tracks pays nobody
        assert self.rewards([True, False])[1] == 0.0
        assert self.rewards([True, True], [], []).tolist() == [0.0, 0.0]

    def test_unknown_tracks_max_uncertainty(self):
        # tracks with too little history count as fully uncertain (eta = 1)
        coordinator = Coordinator(
            library=ClassLibrary(),
            num_signal_states=4,
            use_class_knowledge=True,
            num_targets=2,
        )
        for key, xy in enumerate(self.TRACK_XY[:2]):
            coordinator.add_track(key, start_track(
                np.r_[xy, 0.0], np.eye(3), np.r_[xy, 0.0], np.eye(3), 0.5
            ))
        etas = _track_uncertainties(coordinator)
        assert etas.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        xy = coordinator.estimates[coordinator.order, :2]
        for active in (True, False):
            assert self.rewards([active, active], xy, etas)[0] == 1.0

    def test_five_signal_types_pay_a_valid_reward(self):
        # with five signal types, smoothed counts [1] * 5 used to give an
        # entropy of 1 + 2**-52, which record_reward rejected
        coordinator = Coordinator(
            library=ClassLibrary(),
            num_signal_states=5,
            use_class_knowledge=True,
            num_targets=1,
        )
        coordinator.add_track(0, start_track(
            np.zeros(3), np.eye(3), np.zeros(3), np.eye(3), 0.5
        ))
        for step in range(5):
            coordinator.record_signal(0, step, step)
        etas = _track_uncertainties(coordinator)
        passive = np.array([False])
        reward = compute_rewards(
            self.NODE_XY[:1], self.RANGES[:1], coordinator.estimates[:, :2], etas,
            passive,
        )[0]
        state = record_reward(BanditState(), NodeMode.PASSIVE, float(reward))
        assert state.means[NodeMode.PASSIVE.value] == reward

    def test_known_distributions(self):
        # node 0 averages over its two covered tracks only
        assert self.rewards([True, True])[0] == pytest.approx((0.2 + 0.6) / 2, abs=1e-15)

    def test_column_follows_mode(self):
        # a passive node is paid signal uncertainty, the second column
        assert self.rewards([False, True])[0] == pytest.approx((0.9 + 0.1) / 2, abs=1e-15)

    def test_footprint_edge_counts_as_covered(self):
        assert self.rewards([True, True], [[4000.0, 0.0]], [(0.7, 0.3)]).tolist() == [0.7, 0.0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            self.rewards([True, True], self.TRACK_XY, self.ETAS[:2])


class TestUcbSelect:
    def test_unplayed_arms_first_active_then_passive(self):
        state = BanditState()
        assert ucb_select(state, 1) is NodeMode.ACTIVE
        record_reward(state, NodeMode.ACTIVE, 0.0)
        assert ucb_select(state, 2) is NodeMode.PASSIVE

    def test_tie_goes_to_active(self):
        state = BanditState(counts=np.array([3, 3]), means=np.array([0.5, 0.5]))
        assert ucb_select(state, 7) is NodeMode.ACTIVE

    def test_exploration_bonus_hand_computed(self):
        # active: 0.5 + sqrt(ln 13 / 10) = 1.0064, passive: 0.9 + sqrt(ln 13 / 2) = 2.0325
        state = BanditState(counts=np.array([10, 2]), means=np.array([0.5, 0.9]))
        assert ucb_select(state, 13) is NodeMode.PASSIVE
        # flip the counts and the bonus no longer rescues the weaker mean
        state = BanditState(counts=np.array([10, 10]), means=np.array([0.9, 0.5]))
        assert ucb_select(state, 21) is NodeMode.ACTIVE

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            ucb_select(BanditState(), 0)

    def test_converges_to_better_arm_under_constant_rewards(self):
        # gap of 0.15 between arm means: equilibrium pull share of the
        # better arm at horizon 50 should sit in the 0.55..0.9 band
        state = BanditState()
        rewards = {NodeMode.ACTIVE: 0.61, NodeMode.PASSIVE: 0.46}
        for t in range(1, 51):
            mode = ucb_select(state, t)
            record_reward(state, mode, rewards[mode])
        share = state.counts[NodeMode.ACTIVE.value] / 50
        assert 0.55 <= share <= 0.9
        assert state.counts[NodeMode.PASSIVE.value] >= 5  # still explores


class TestRecordReward:
    def test_running_mean(self):
        state = BanditState()
        record_reward(state, NodeMode.ACTIVE, 0.2)
        record_reward(state, NodeMode.ACTIVE, 0.4)
        record_reward(state, NodeMode.PASSIVE, 1.0)
        assert state.means[0] == pytest.approx(0.3)
        assert state.means[1] == pytest.approx(1.0)
        assert state.counts.tolist() == [2, 1]
        assert state.total_steps == 3

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(OutOfRangeReward):
            record_reward(BanditState(), NodeMode.ACTIVE, bad)


class TestBaselinePolicy:
    def test_radar_only_always_active(self):
        rng = np.random.default_rng(0)
        assert all(
            baseline_policy(PolicyKind.RADAR_ONLY, 0.0, rng) is NodeMode.ACTIVE
            for _ in range(100)
        )

    def test_random_p_frequency(self):
        rng = np.random.default_rng(7)
        n = 20_000
        picks = sum(
            baseline_policy(PolicyKind.RANDOM, 0.8, rng) is NodeMode.ACTIVE
            for _ in range(n)
        )
        assert picks / n == pytest.approx(0.8, abs=0.01)

    def test_invalid_p_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            baseline_policy(PolicyKind.RANDOM, 1.2, rng)

    def test_bandit_kind_is_not_a_baseline(self):
        with pytest.raises(ValueError):
            baseline_policy(PolicyKind.BANDIT, 0.5, np.random.default_rng(0))
