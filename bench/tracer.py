"""Per-layer tracing from outside the program.

The tracer swaps module attributes of ``crnsim`` for timing wrappers, keeps
one span per wrapped call in memory (name, start, end, parent) and puts the
originals back when the traced block ends. Nothing under ``src/`` knows it
is being traced, and an untraced run never sees a wrapper.

A hook whose attribute no longer exists (a later change deleted or renamed
the function) is skipped: its metrics are reported as absent rather than
failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def _rows(args, result):
    return (int(np.shape(args[0])[0]),)


def _detections(args, result):
    return (len(result[0]),)


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute: where it is looked up, and the layer name it
    is reported under. ``count(args, result)`` returns one value per name
    in ``counters``, added up over calls."""

    module: str
    attr: str
    name: str
    counters: tuple = ()
    count: Optional[Callable] = None


# Each hook patches the name where the caller looks it up: the engine imports
# most layer functions into its own namespace, dynamics imports sample_next,
# and classlib calls its own helpers through module globals.
HOOKS = (
    Hook("crnsim.engine", "run_experiment", "engine.run_experiment"),
    Hook("crnsim.engine", "run_epoch", "engine.run_epoch"),
    Hook("crnsim.engine", "run_step", "engine.run_step"),
    Hook(
        "crnsim.engine", "make_world", "scenario.make_world",
        ("scenario.nodes", "scenario.targets"),
        lambda args, world: (world.num_nodes, world.num_targets),
    ),
    Hook("crnsim.engine", "_select_modes", "engine.select_modes"),
    Hook("crnsim.engine", "ucb_select", "bandit.ucb_select"),
    Hook("crnsim.engine", "record_reward", "bandit.record_reward"),
    Hook("crnsim.engine", "step_motion", "dynamics.step_motion"),
    Hook("crnsim.engine", "step_signal", "dynamics.step_signal"),
    Hook("crnsim.dynamics", "sample_next", "markov.sample_next"),
    Hook(
        "crnsim.engine", "radar_measure_batch", "sensing.radar_measure_batch",
        ("sensing.radar_returns",), _detections,
    ),
    Hook(
        "crnsim.engine", "passive_detect_batch", "sensing.passive_detect_batch",
        ("sensing.passive_intercepts",), _detections,
    ),
    Hook("crnsim.engine", "_predict_tracks", "engine.predict_tracks"),
    Hook(
        "crnsim.engine", "imm_predict_arrays", "tracking.imm_predict_arrays",
        ("tracking.predict_rows",), _rows,
    ),
    Hook("crnsim.engine", "_fuse_radar", "engine.fuse_radar"),
    Hook("crnsim.engine", "start_track", "tracking.start_track"),
    Hook(
        "crnsim.engine", "kalman_update_arrays", "tracking.kalman_update_arrays",
        ("tracking.update_rows",), _rows,
    ),
    Hook("crnsim.engine", "omega_log_evidence", "tracking.omega_log_evidence"),
    Hook(
        "crnsim.engine", "_apply_passive", "engine.apply_passive",
        ("engine.passive_logged",), lambda args, logged: (int(logged),),
    ),
    Hook("crnsim.engine", "_attempt_assignments", "engine.attempt_assignments"),
    Hook("crnsim.engine", "track_parameter_vector", "engine.track_parameter_vector"),
    Hook(
        "crnsim.engine", "assign_class", "classlib.assign_class",
        ("classlib.assign_matched",), lambda args, cid: (int(cid is not None),),
    ),
    Hook("crnsim.engine", "_track_uncertainties", "engine.track_uncertainties"),
    Hook(
        "crnsim.engine", "update_library", "classlib.update_library",
        ("classlib.pool_vectors",), lambda args, result: (len(args[1]),),
    ),
    Hook("crnsim.classlib", "kmeans_distributions", "classlib.kmeans_distributions"),
    Hook("crnsim.classlib", "_pool_log_likelihood", "classlib.pool_log_likelihood"),
    Hook("crnsim.engine", "track_rmse", "tracking.track_rmse"),
)


def self_times(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread of synchronous calls, so children lie inside
    their parent and do not overlap each other. ``parents[i]`` is the index
    of span i's parent, or -1 for a root span."""
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    has = parents >= 0
    covered = np.bincount(parents[has], weights=dur[has], minlength=dur.size)
    return dur - covered


@dataclass
class Tracer:
    """Span recorder. Use ``with tracer.installed(): ...`` around the calls
    to trace; spans and counters accumulate across several such blocks."""

    hooks: tuple = HOOKS
    missing: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    # layer name -> id stored in each span, in first-wrapped order
    _name_ids: dict = field(default_factory=dict)
    _span_name: array = field(default_factory=lambda: array("l"))
    _span_parent: array = field(default_factory=lambda: array("l"))
    _span_start: array = field(default_factory=lambda: array("d"))
    _span_end: array = field(default_factory=lambda: array("d"))
    _stack: list = field(default_factory=list)

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        name_id = self._name_ids.setdefault(hook.name, len(self._name_ids))
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        stack, counters = self._stack, self.counters
        keys, count = hook.counters, hook.count
        for key in keys:
            counters.setdefault(key, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if count is not None:
                for key, value in zip(keys, count(args, result)):
                    counters[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every present hook for its wrapper; restore on exit."""
        saved = []
        try:
            for hook in self.hooks:
                try:
                    module = importlib.import_module(hook.module)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, hook.attr, None)
                if original is None:
                    if hook.name not in self.missing:
                        self.missing.append(hook.name)
                    continue
                saved.append((module, hook.attr, original))
                setattr(module, hook.attr, self._wrap(original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_stats(self) -> dict:
        """``{layer: {"calls", "busy_s", "self_s"}}`` over all spans so far.
        Layers whose hook was missing are left out."""
        names = np.asarray(self._span_name, dtype=np.int64)
        starts = np.asarray(self._span_start, dtype=float)
        ends = np.asarray(self._span_end, dtype=float)
        dur = ends - starts
        own = self_times(starts, ends, self._span_parent)
        k = len(self._name_ids)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self._name_ids)
            if name not in self.missing
        }

    def write_spans(self, path) -> None:
        """Save every span as parallel arrays (``name`` indexes ``names``;
        ``parent`` is a span index, -1 for a root) in one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(list(self._name_ids)),
            name=np.asarray(self._span_name, dtype=np.int64),
            start=np.asarray(self._span_start, dtype=float),
            end=np.asarray(self._span_end, dtype=float),
            parent=np.asarray(self._span_parent, dtype=np.int64),
        )
