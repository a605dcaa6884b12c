import dataclasses
import math

import numpy as np
import pytest

import crnsim.markov as markov
from crnsim.dynamics import step_motion
from crnsim.engine import make_world
from crnsim.markov import MarkovChain
from crnsim.scenario import (
    COORD_TURN,
    FAMILY_SEPARATION,
    MOTION_STATES,
    SIGNAL_TYPES,
    Region,
    ScenarioConfig,
    TargetFamily,
    chain_from_stationary,
    default_family,
    sample_ppp,
    spawn_scenario,
)
from crnsim.sensing import max_detectable_range

from scalar_reference import spawn_targets


def total_variation(a, b):
    return 0.5 * np.sum(np.abs(np.asarray(a) - np.asarray(b)))


class TestRegion:
    def test_area(self):
        assert Region(10, 10).area_km2 == 100.0
        assert Region(2.5, 4.0).area_km2 == 10.0

    @pytest.mark.parametrize(
        "w,h", [(0, 10), (10, -1), (float("nan"), 10), (10, float("nan"))]
    )
    def test_rejects_degenerate(self, w, h):
        with pytest.raises(ValueError):
            Region(w, h)

    @pytest.mark.parametrize("w,h", [(math.inf, 10), (10, math.inf)])
    def test_rejects_infinite(self, w, h):
        # an infinite area makes the Poisson draw of a spawn raise inside
        # the run (under the cell pool, in a worker)
        with pytest.raises(ValueError, match="finite"):
            Region(w, h)


class TestSamplePpp:
    def test_zero_density_empty(self):
        pts = sample_ppp(0.0, Region(), np.random.default_rng(0))
        assert pts.shape == (0, 2)

    def test_mean_count(self):
        rng = np.random.default_rng(42)
        counts = [len(sample_ppp(0.2, Region(), rng)) for _ in range(10_000)]
        assert np.mean(counts) == pytest.approx(20.0, abs=0.5)

    def test_poisson_variance(self):
        rng = np.random.default_rng(7)
        counts = [len(sample_ppp(0.3, Region(), rng)) for _ in range(10_000)]
        assert np.var(counts) == pytest.approx(30.0, abs=2.0)

    def test_points_uniform_in_region(self):
        rng = np.random.default_rng(3)
        region = Region(4, 8)
        pts = np.vstack([sample_ppp(1.0, region, rng) for _ in range(200)])
        assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= region.width_m)
        assert np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] <= region.height_m)
        # uniformity: mean near center, both axes
        assert np.mean(pts[:, 0]) == pytest.approx(region.width_m / 2, rel=0.05)
        assert np.mean(pts[:, 1]) == pytest.approx(region.height_m / 2, rel=0.05)

    def test_negative_density_rejected(self):
        # sample_ppp trusts its density; the scenario config it comes from
        # checks it
        with pytest.raises(ValueError):
            ScenarioConfig(target_density_per_km2=-0.1)


class TestChainFromStationary:
    def test_recovers_requested_stationary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pi = rng.dirichlet(np.ones(rng.integers(2, 6)) * 2 + 0.5)
            chain = chain_from_stationary(pi, persistence=0.3)
            assert chain.stationary == pytest.approx(pi, abs=1e-12)

    def test_diagonal_structure(self):
        chain = chain_from_stationary([0.5, 0.3, 0.2], persistence=0.4)
        expected_diag = 1 - 0.4 * (1 - np.array([0.5, 0.3, 0.2]))
        assert np.diag(chain.transition) == pytest.approx(expected_diag)

    def test_rejects_bad_persistence(self):
        with pytest.raises(ValueError):
            chain_from_stationary([0.5, 0.5], persistence=0.0)
        with pytest.raises(ValueError):
            chain_from_stationary([0.5, 0.5], persistence=1.2)

    def test_rejects_zero_mass_state(self):
        with pytest.raises(ValueError):
            chain_from_stationary([1.0, 0.0], persistence=0.5)


class TestDefaultFamily:
    def test_three_classes(self):
        family = default_family()
        assert len(family.classes) == 3
        for cls in family.classes:
            assert cls.motion_chain.num_states == len(MOTION_STATES)
            assert cls.signal_chain.num_states == len(SIGNAL_TYPES)

    def test_balloon_is_nearly_static(self):
        family = default_family()
        balloon = next(c for c in family.classes if c.name == "Balloon")
        pi = balloon.motion_chain.stationary
        assert pi[0] >= 0.9

    def test_pairwise_separation(self):
        family = default_family()
        for i, a in enumerate(family.classes):
            for b in family.classes[i + 1:]:
                dists = [
                    total_variation(da, db)
                    for da, db in zip(
                        a.parameter_distributions(), b.parameter_distributions()
                    )
                ]
                assert max(dists) > FAMILY_SEPARATION

    def test_duty_cycles(self):
        family = default_family()
        duty = {
            c.name: c.tx_chain.stationary[0] for c in family.classes
        }
        assert duty["UAV"] == pytest.approx(0.9, abs=1e-9)
        assert duty["GeneralAviation"] == pytest.approx(0.5, abs=1e-9)
        assert duty["Balloon"] == pytest.approx(0.3, abs=1e-9)

    def test_rejects_duplicate_classes(self):
        import dataclasses

        family = default_family()
        clone = dataclasses.replace(family.classes[0], class_id=99)
        with pytest.raises(ValueError, match="equal in state distribution"):
            TargetFamily(classes=(family.classes[0], clone))

    def test_rejects_classes_within_separation(self):
        # a class whose every parameter distribution lies within
        # FAMILY_SEPARATION of another's is rejected, not only an exact
        # clone; moving one chain beyond it makes the pair distinguishable
        uav = default_family().classes[0]
        rotation = np.roll(np.eye(3), 1, axis=1)
        for weight, rejected in ((0.05, True), (0.5, False)):
            moved = (1 - weight) * uav.motion_chain.transition + weight * rotation
            near = dataclasses.replace(
                uav, class_id=99, motion_chain=MarkovChain(moved)
            )
            if rejected:
                with pytest.raises(ValueError, match="equal in state distribution"):
                    TargetFamily(classes=(uav, near))
            else:
                TargetFamily(classes=(uav, near))

    def test_rejects_wrong_state_count(self):
        # a motion or signal chain over another number of states than
        # MOTION_STATES or SIGNAL_TYPES, which fix the behavior-vector layout
        import dataclasses

        family = default_family()
        for chain, states in (("motion", 2), ("motion", 4), ("signal", 3), ("signal", 5)):
            # a copy: the default family is shared and must stay intact
            bad = dataclasses.replace(family.classes[0])
            uniform = MarkovChain(np.full((states, states), 1.0 / states))
            object.__setattr__(bad, f"{chain}_chain", uniform)
            with pytest.raises(ValueError, match=f"{chain} state count"):
                TargetFamily(classes=(bad, family.classes[1]))


    def test_built_once_shared_and_read_only(self):
        family = ScenarioConfig().family
        assert ScenarioConfig().family is family is default_family()
        for cls in family.classes:
            chains = (cls.motion_chain, cls.signal_chain, cls.tx_chain)
            arrays = [cls.process_noise]
            for chain in chains:
                arrays += [chain.transition, chain.row_cdf, chain.stationary]
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0

    def test_process_noise_is_a_read_only_copy(self):
        import dataclasses

        noise = np.array([1.0, 2.0, 3.0])
        cls = dataclasses.replace(default_family().classes[0], process_noise=noise)
        assert noise.flags.writeable and not cls.process_noise.flags.writeable
        assert cls.process_noise.tolist() == [1.0, 2.0, 3.0]


class TestTargetClass:
    # a class is checked where it is built, before any world spawns from
    # it: a negative gain takes the square root of a negative at the first
    # spawn, and a NaN power gives the class's targets a NaN passive range,
    # so they would silently never be intercepted
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_nonpositive_tx_power_rejected(self, value):
        with pytest.raises(ValueError, match="power and gain"):
            dataclasses.replace(default_family().classes[0], tx_power_w=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_nonpositive_tx_gain_rejected(self, value):
        with pytest.raises(ValueError, match="power and gain"):
            dataclasses.replace(default_family().classes[0], tx_gain=value)

    @pytest.mark.parametrize("field", ["tx_power_w", "tx_gain"])
    def test_infinite_tx_power_or_gain_rejected(self, field):
        # either gives the class's targets an infinite passive range
        with pytest.raises(ValueError, match="power and gain"):
            dataclasses.replace(default_family().classes[0], **{field: math.inf})

    @pytest.mark.parametrize(
        "field", ["speed_range_mps", "altitude_range_m", "turn_rate_range_radps"]
    )
    def test_infinite_range_bound_rejected(self, field):
        # an infinite upper bound makes the uniform draw of a spawn
        # overflow inside the run
        with pytest.raises(ValueError, match="< inf"):
            dataclasses.replace(default_family().classes[0], **{field: (0.0, math.inf)})

    # an infinite cruise noise ran to a NaN median RMSE
    @pytest.mark.parametrize("value", [-0.1, float("nan"), math.inf])
    def test_negative_process_noise_rejected(self, value):
        noise = np.array([0.5, value, 15.0])
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(default_family().classes[0], process_noise=noise)


def renumbered_family(ids=(7, 3, 5)) -> TargetFamily:
    """The default classes under class ids that are not their positions in
    the family."""
    return TargetFamily(
        classes=tuple(
            dataclasses.replace(c, class_id=i)
            for c, i in zip(default_family().classes, ids)
        )
    )


class TestSpawnScenario:
    @pytest.mark.parametrize(
        "nodes, targets", [(0.2, 0.0), (0.0, 0.3), (0.0, 0.0)],
        ids=["no-targets", "no-nodes", "nothing"],
    )
    def test_zero_density_gives_empty_tables(self, nodes, targets):
        # an empty draw is a world: (0, 3) nodes or a table of no rows,
        # every column shaped for zero targets, the draws those of the
        # object spawn
        cfg = ScenarioConfig(
            node_density_per_km2=nodes, target_density_per_km2=targets
        )
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        node_positions, table = spawn_scenario(cfg, rng)
        ref_nodes, ref_targets = spawn_targets(cfg, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(node_positions, ref_nodes)
        assert node_positions.shape == (len(ref_nodes), 3)
        assert table.num_targets == len(ref_targets)
        assert (len(ref_nodes) == 0) == (nodes == 0)
        assert (len(ref_targets) == 0) == (targets == 0)
        if targets == 0:
            for name, shape in (
                ("position", (0, 3)),
                ("velocity", (0, 3)),
                ("motion_cdf", (0, 3, 3)),
                ("signal_cdf", (0, 4, 4)),
                ("tx_cdf", (0, 2, 2)),
                ("process_noise", (0, 3)),
                ("speed_range", (0, 2)),
                ("passive_range", (0,)),
            ):
                assert getattr(table, name).shape == shape, name

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(),
            ScenarioConfig(family=renumbered_family()),
            ScenarioConfig(node_density_per_km2=0.4, target_density_per_km2=0.6),
        ],
        ids=["default", "ids-7-3-5", "dense"],
    )
    def test_table_matches_the_object_spawn(self, cfg):
        # the table is drawn with the draws, in the order, of the spawn that
        # built one Target per target; every column, the per-class ones
        # looked up by class id, holds what that spawn gave
        by_id = {c.class_id: c for c in cfg.family.classes}
        for seed in range(8):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            nodes, table = spawn_scenario(cfg, rng)
            ref_nodes, targets = spawn_targets(cfg, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert np.array_equal(nodes, ref_nodes)
            assert table.class_id.tolist() == [t.class_id for t in targets]
            for column, attr in (
                ("position", "position"),
                ("velocity", "velocity"),
                ("motion_state", "motion_state"),
                ("signal_state", "signal_state"),
                ("tx_on", "tx_on"),
                ("turn_rate", "turn_rate_radps"),
                ("heading_rate", "heading_rate_radps"),
            ):
                want = np.array([getattr(t, attr) for t in targets])
                got = getattr(table, column)
                assert got.shape == want.shape and np.array_equal(got, want), column
            classes = [by_id[t.class_id] for t in targets]
            for column, per_class in (
                ("motion_cdf", lambda c: c.motion_chain.row_cdf),
                ("signal_cdf", lambda c: c.signal_chain.row_cdf),
                ("tx_cdf", lambda c: c.tx_chain.row_cdf),
                ("process_noise", lambda c: c.process_noise),
                ("speed_range", lambda c: c.speed_range_mps),
                ("turn_rate_range", lambda c: c.turn_rate_range_radps),
                (
                    "passive_range",
                    lambda c: max_detectable_range(c.tx_power_w, c.tx_gain, cfg.receiver),
                ),
            ):
                want = np.array([per_class(c) for c in classes], dtype=float)
                assert np.array_equal(getattr(table, column), want), column

    def test_expected_counts_table(self):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(5)
        n_nodes, n_targets = [], []
        for _ in range(1500):
            nodes, targets = spawn_scenario(cfg, rng)
            n_nodes.append(len(nodes))
            n_targets.append(targets.num_targets)
        assert np.mean(n_nodes) == pytest.approx(20.0, abs=0.5)
        assert np.mean(n_targets) == pytest.approx(30.0, abs=0.6)

    def test_entities_inside_region(self):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(1)
        nodes, targets = spawn_scenario(cfg, rng)
        assert nodes.shape == (len(nodes), 3) and len(nodes) > 0
        assert np.all((0 <= nodes[:, 0]) & (nodes[:, 0] <= cfg.region.width_m))
        assert np.all((0 <= nodes[:, 1]) & (nodes[:, 1] <= cfg.region.height_m))
        assert np.all(nodes[:, 2] == 0.0)
        # the world keeps these positions, with the configured radar range
        world = make_world(cfg, np.random.default_rng(1))
        assert np.array_equal(world.node_positions, nodes)
        assert world.radar_range_m == 4000.0
        x, y = targets.position[:, 0], targets.position[:, 1]
        assert np.all((0 <= x) & (x <= cfg.region.width_m))
        assert np.all((0 <= y) & (y <= cfg.region.height_m))

    def test_passive_range_is_each_targets_class_budget(self):
        # one link budget per class, gathered by class: ids that are not
        # the classes' positions in the family still find their own class
        cfg = ScenarioConfig(family=renumbered_family())
        world = make_world(cfg, np.random.default_rng(3))
        by_id = {c.class_id: c for c in cfg.family.classes}
        want = [
            max_detectable_range(by_id[i].tx_power_w, by_id[i].tx_gain, cfg.receiver)
            for i in world.targets.class_id.tolist()
        ]
        assert world.targets.passive_range.tolist() == want
        assert len(set(want)) == 3

    def test_spawn_respects_class_limits(self):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(2)
        nodes, targets = spawn_scenario(cfg, rng)
        by_id = {c.class_id: c for c in cfg.family.classes}
        for i, class_id in enumerate(targets.class_id.tolist()):
            cls = by_id[class_id]
            lo, hi = cls.altitude_range_m
            assert lo <= targets.position[i, 2] <= hi
            speed = np.linalg.norm(targets.velocity[i])
            slo, shi = cls.speed_range_mps
            assert slo - 1e-9 <= speed <= shi + 1e-9
            assert targets.velocity[i, 2] == 0.0
        # the spawn draws no turn rate; the first step draws one, in the
        # class's range and of either sign, for every target still turning
        assert (targets.turn_rate == 0.0).all()
        step_motion(targets, 0.5, rng)
        signs = set()
        for i, class_id in enumerate(targets.class_id.tolist()):
            rate = targets.turn_rate[i]
            if targets.motion_state[i] == COORD_TURN:
                lo, hi = by_id[class_id].turn_rate_range_radps
                assert lo <= abs(rate) <= hi
                signs.add(math.copysign(1.0, rate))
            else:
                assert rate == 0.0
        assert signs == {-1.0, 1.0}

    def test_spawns_reuse_the_family_stationaries(self, monkeypatch):
        # the chains are fixed per class, so their stationary distributions
        # are solved once, when the family is validated, and never per spawn
        cfg = ScenarioConfig()
        solve, solved = markov._solve_stationary, []
        monkeypatch.setattr(
            markov, "_solve_stationary", lambda P: solved.append(P) or solve(P)
        )
        rng = np.random.default_rng(4)
        for _ in range(5):
            spawn_scenario(cfg, rng)
        assert solved == []

    def test_stationary_initialization_of_motion_states(self):
        # single-class family so every target is a UAV; its signal types
        # and transmit states start stationary too
        uav = default_family().classes[0]
        cfg = ScenarioConfig(
            family=TargetFamily(classes=(uav,)), target_density_per_km2=1.0
        )
        rng = np.random.default_rng(9)
        motion, signal, tx = [], [], []
        while len(motion) < 10_000:
            _, targets = spawn_scenario(cfg, rng)
            motion.extend(targets.motion_state.tolist())
            signal.extend(targets.signal_state.tolist())
            tx.extend(targets.tx_state.tolist())
        for states, chain in (
            (motion, uav.motion_chain),
            (signal, uav.signal_chain),
            (tx, uav.tx_chain),
        ):
            freq = np.bincount(states, minlength=chain.num_states) / len(states)
            assert freq == pytest.approx(chain.stationary, abs=0.02)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(node_density_per_km2=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(radar_range_km=0.0)

    @pytest.mark.parametrize(
        "field", ["node_density_per_km2", "target_density_per_km2", "radar_range_km"]
    )
    def test_nan_config_rejected(self, field):
        # NaN fails every comparison, so a check written as `x < 0` would
        # pass it: a NaN range would run and track nothing, a NaN density
        # would fail inside numpy's Poisson draw
        with pytest.raises(ValueError):
            ScenarioConfig(**{field: float("nan")})

    @pytest.mark.parametrize(
        "field", ["node_density_per_km2", "target_density_per_km2", "radar_range_km"]
    )
    def test_infinite_config_rejected(self, field):
        # an infinite density makes the Poisson draw of a spawn raise inside
        # the run; an infinite range gates nothing out
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(**{field: math.inf})
