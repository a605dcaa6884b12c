import sys
import types

import numpy as np
import pytest

from tracer import HOOKS, Hook, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    np.testing.assert_allclose(self_times(starts, ends, parents), [3.0, 2.0, 1.0, 4.0])


def test_self_time_of_leaves_and_roots_is_their_duration():
    np.testing.assert_allclose(self_times([0.0, 2.0], [1.5, 2.25], [-1, -1]), [1.5, 0.25])
    assert self_times([], [], []).size == 0


@pytest.fixture
def fake_module(monkeypatch):
    """outer() calls inner() twice through module globals."""
    mod = types.ModuleType("fake_layers")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(inner(x))\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_layer_stats_on_nested_calls(fake_module):
    t = Tracer(
        hooks=(
            Hook("fake_layers", "outer", "fake.outer"),
            Hook("fake_layers", "inner", "fake.inner", ("fake.seen",), lambda args, r: (args[0],)),
        )
    )
    with t.installed():
        assert fake_module.outer(1) == 3
        assert fake_module.outer(10) == 12
    stats = t.layer_stats()
    assert stats["fake.outer"]["calls"] == 2
    assert stats["fake.inner"]["calls"] == 4
    assert t.counters["fake.seen"] == 1 + 2 + 10 + 11
    inner, outer = stats["fake.inner"], stats["fake.outer"]
    assert inner["self_s"] == pytest.approx(inner["busy_s"])
    assert outer["self_s"] == pytest.approx(outer["busy_s"] - inner["busy_s"])
    assert 0.0 < outer["self_s"] < outer["busy_s"]


def test_missing_hook_is_reported_absent(fake_module):
    t = Tracer(
        hooks=(
            Hook("fake_layers", "outer", "fake.outer"),
            Hook("fake_layers", "gone", "fake.gone", ("fake.gone_count",), lambda a, r: (1,)),
            Hook("no_such_module_here", "f", "nowhere.f"),
        )
    )
    with t.installed():
        fake_module.outer(0)
    assert t.missing == ["fake.gone", "nowhere.f"]
    assert set(t.layer_stats()) == {"fake.outer"}
    assert "fake.gone_count" not in t.counters


def _hooked_attributes():
    import importlib

    return {
        (h.module, h.attr): getattr(importlib.import_module(h.module), h.attr)
        for h in HOOKS
    }


def test_originals_restored_after_traced_run():
    from crnsim import engine

    before = _hooked_attributes()
    config = engine.SimConfig(num_epochs=1, epoch_duration_s=2.5, num_runs=1, seed=5)
    t = Tracer()
    with t.installed():
        assert engine.run_experiment is not before[("crnsim.engine", "run_experiment")]
        engine.run_experiment(config)
    after = _hooked_attributes()
    assert all(after[key] is before[key] for key in before)
    assert not t.missing
    stats = t.layer_stats()
    assert stats["engine.run_experiment"]["calls"] == 1
    assert stats["engine.run_step"]["calls"] == 3 * config.steps_per_epoch


def test_originals_restored_when_traced_block_raises(fake_module):
    original = fake_module.outer
    t = Tracer(hooks=(Hook("fake_layers", "outer", "fake.outer"),))
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("boom")
    assert fake_module.outer is original


def test_write_spans(tmp_path, fake_module):
    t = Tracer(hooks=(Hook("fake_layers", "outer", "fake.outer"),))
    with t.installed():
        fake_module.outer(0)
    path = tmp_path / "spans.npz"
    t.write_spans(path)
    spans = np.load(path)
    assert list(spans["names"]) == ["fake.outer"]
    assert list(spans["name"]) == [0] and list(spans["parent"]) == [-1]
    assert spans["end"][0] >= spans["start"][0]
