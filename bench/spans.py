"""Timing spans around the calls between tiltedsums layers.

A traced run installs wrappers on the module and class attributes through
which the layers call each other, after the program is imported; no file of
the program is edited.  Each span records its name, start, end, parent span
and run id, plus one number taken from the call (a member count, Newton
iterations, points, samples, bytes).  Spans stay in memory, one buffer per
thread, and are written out when the run ends.
"""

import functools
import importlib
import itertools
import os
import sys
import threading
import time

import numpy as np


def _n_members(args, result):
    return args[1]


def _iterations(args, result):
    return result.iterations


def _points(args, result):
    return np.size(args[1]) // args[0].d


def _samples(args, result):
    return result.samples


def _row_failed(args, result):
    return int(result.error is not None)


def _bytes_written(args, result):
    return sum(os.path.getsize(p) for p in result if p)


# (module, attribute path, span name, number recorded from the call).  A
# function imported into several modules is wrapped at each of them, so
# every call path between two layers is covered exactly once.
PATCHES = (
    ("tiltedsums.cli", "parse_config_file", "config.parse", None),
    ("tiltedsums.config", "FamilySpec.build", "families.build", _n_members),
    ("tiltedsums.cli", "solve_tilt", "tilting.solve_tilt", _iterations),
    ("tiltedsums.sweep", "solve_tilt", "tilting.solve_tilt", _iterations),
    ("tiltedsums.tv", "solve_tilt", "tilting.solve_tilt", _iterations),
    ("tiltedsums.conditional", "solve_tilt", "tilting.solve_tilt", _iterations),
    ("tiltedsums.cli", "build_model", "edgeworth.build_model", None),
    ("tiltedsums.conditional", "build_model", "edgeworth.build_model", None),
    ("tiltedsums.conditional", "RatioContext.__init__", "conditional.RatioContext", None),
    ("tiltedsums.conditional", "RatioContext.log_ratio_exact", "conditional.log_ratio_exact", _points),
    ("tiltedsums.cli", "tv_scheffe", "tv.scheffe", _samples),
    ("tiltedsums.cli", "tv_sum_mc", "tv.sum_mc", _samples),
    ("tiltedsums.cli", "tv_joint_mc", "tv.joint_mc", _samples),
    ("tiltedsums.sweep", "tv_scheffe", "tv.scheffe", _samples),
    ("tiltedsums.sweep", "tv_sum_mc", "tv.sum_mc", _samples),
    ("tiltedsums.sweep", "tv_joint_mc", "tv.joint_mc", _samples),
    ("tiltedsums.checks", "run_assumption_checks", "checks.report", None),
    ("tiltedsums.families", "GammaMember.density_partial_l1", "checks.partial_l1", None),
    ("tiltedsums.families", "NormalMember.density_partial_l1", "checks.partial_l1", None),
    ("tiltedsums.cli", "run_sweep", "sweep.run", None),
    ("tiltedsums.sweep", "run_row", "sweep.row", _row_failed),
    ("tiltedsums.cli", "fit_scaling", "sweep.fit", None),
    ("tiltedsums.cli", "emit_report", "sweep.emit", _bytes_written),
)


class Tracer:
    """Span recorder; spans are tuples (id, name, start, end, parent, run, value)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._buffers.append(local.spans)
        return local.spans, local.stack

    def wrap(self, name, fn, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._state()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                number = value(args, result) if value and result is not None else None
                spans.append((sid, name, start, end, parent, self.run_id, number))

        return traced

    def install(self):
        """Wrap every patch target; a target the program no longer has is
        reported on stderr and skipped, so its metrics read 0."""
        for module_name, path, name, value in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                print(f"trace: {module_name}.{path} not found, not traced", file=sys.stderr)
                continue
            setattr(owner, attr, self.wrap(name, fn, value))

    def spans(self):
        with self._lock:
            return [s for buf in self._buffers for s in buf]


def layer_metrics(spans):
    """Per-layer totals from one run's spans.

    Self time is a span's duration minus its children's; children share the
    parent's thread and run one after another, so their durations add.
    """
    child_time = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    total, self_time, count, value = {}, {}, {}, {}
    for sid, name, start, end, _, _, number in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        count[name] = count.get(name, 0) + 1
        value[name] = value.get(name, 0) + (number or 0)

    sweep_s = total.get("sweep.run", 0.0)
    return {
        "config.parse_s": total.get("config.parse", 0.0),
        "families.build_s": total.get("families.build", 0.0),
        "families.members": value.get("families.build", 0),
        "tilting.solve_s": total.get("tilting.solve_tilt", 0.0),
        "tilting.solves": count.get("tilting.solve_tilt", 0),
        "tilting.newton_iters": value.get("tilting.solve_tilt", 0),
        "edgeworth.build_model_s": total.get("edgeworth.build_model", 0.0),
        "edgeworth.models": count.get("edgeworth.build_model", 0),
        "conditional.ratio_context_s": self_time.get("conditional.RatioContext", 0.0),
        "conditional.log_ratio_s": total.get("conditional.log_ratio_exact", 0.0),
        "conditional.log_ratio_calls": count.get("conditional.log_ratio_exact", 0),
        "conditional.log_ratio_points": value.get("conditional.log_ratio_exact", 0),
        "tv.scheffe_core_s": self_time.get("tv.scheffe", 0.0),
        "tv.sum_mc_core_s": self_time.get("tv.sum_mc", 0.0),
        "tv.joint_mc_core_s": self_time.get("tv.joint_mc", 0.0),
        "tv.samples": sum(value.get(n, 0) for n in ("tv.scheffe", "tv.sum_mc", "tv.joint_mc")),
        "checks.report_s": total.get("checks.report", 0.0),
        "checks.partial_l1_calls": count.get("checks.partial_l1", 0),
        "sweep.rows": count.get("sweep.row", 0),
        "sweep.rows_failed": value.get("sweep.row", 0),
        "sweep.fit_s": total.get("sweep.fit", 0.0),
        "sweep.emit_s": total.get("sweep.emit", 0.0),
        "sweep.bytes_written": value.get("sweep.emit", 0),
        "sweep.thread_overlap": total.get("sweep.row", 0.0) / sweep_s if sweep_s else 0.0,
    }
