"""Span tracing of the adastream layers, from outside the package.

``install`` wraps the public functions of each module of ``adastream``. A
traced function records a span (name, start, end, parent) per call; the
cheap helpers of ``ladder``, ``config`` and ``metrics`` only count calls.
Spans are kept in memory and written out when the run ends.

A function is patched wherever it is looked up: every ``adastream`` module
that bound the same function object at import (``simulator`` imports
``forward``, ``step``, ``decide``, ``extract_features`` and
``select_efficient``; ``synth`` imports ``make_synthetic_grid`` and
``select_efficient``) gets the wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

# Traced functions: "<module>.<qualname>" in adastream.
TRACED = (
    "controller.step", "controller.decide",
    "predictor.forward", "predictor.forward_batch", "predictor.train",
    "predictor.read_training_csv", "predictor.save_model", "predictor.load_model",
    "motion.VelocityEstimator.update",
    "features.FeatureVector.with_context", "features.extract_features",
    "quality.synthetic_quality", "quality.make_synthetic_grid",
    "quality.load_grids", "quality.write_grids_csv",
    "labeler.select_efficient", "labeler.select_max_quality",
    "labeler.label_grids", "labeler.savings_curve",
    "simulator.run_session", "simulator.compare_baselines",
    "simulator.allocate_bits", "simulator.GridQualitySource.__call__",
    "simulator.OracleQualityPolicy.decide_mode",
    "simulator.scenario_from_json", "simulator.write_frame_csv",
    "simulator.write_window_csv",
    "synth.grids_for_clips", "synth.training_examples",
    "cli.cmd_gen_synthetic", "cli.cmd_label", "cli.cmd_train",
    "cli.cmd_evaluate", "cli.cmd_simulate", "cli.cmd_compare",
)

# Functions that run once per simulated frame; they also report a p99.
PER_FRAME = (
    "controller.step", "predictor.forward", "motion.VelocityEstimator.update",
    "features.FeatureVector.with_context", "quality.synthetic_quality",
    "simulator.GridQualitySource.__call__",
)

# Too cheap to trace: calls are counted per module.
COUNTED = {
    "ladder": ("width_for_height", "objective_cost", "pixels_per_second",
               "Ladder.frame_rate_index", "Ladder.height_index", "Ladder.mode",
               "Ladder.require_mode", "Ladder.modes"),
    "config": ("load_config",),
    "metrics": ("relative_error", "confusion_matrix", "write_confusion_csv"),
}


class Tracer:
    """In-memory span store. Single-threaded: the parent of a span is the
    span open when it starts."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}  # name -> index in names
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        # Derived counters fed by call hooks.
        self.epochs = 0
        self.grids_seen: dict[int, object] = {}   # id -> grid, kept alive
        self.max_quality_calls = 0
        self.oracle_cells: dict[int, int] = {}     # decide span -> pickable cells
        self.grids_scanned = 0

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one round."""
        idx = self._open(self.name_id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        nid = self.name_id(name)
        perf = time.perf_counter
        ends, stack = self.end, self._stack
        add_name, add_parent = self.span_name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        push, pop = stack.append, stack.pop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            push(idx)
            if hook is not None:
                hook(self, idx, args, kwargs)
            add_start(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                pop()

        return traced

    def wrap_count(self, fn, module: str):
        counts = self.counts
        counts.setdefault(module, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[module] += 1
            return fn(*args, **kwargs)

        return counted


# ---------------------------------------------------------------------------
# Call hooks for the derived counts


def _hook_train(tracer, idx, args, kwargs):
    from adastream.predictor import TrainConfig
    config = args[1] if len(args) > 1 else kwargs.get("config", TrainConfig())
    tracer.epochs += config.epochs


def _hook_max_quality(tracer, idx, args, kwargs):
    """Bulk labeling only: an oracle policy's per-decision grid is skipped."""
    oracle = tracer.ids.get("simulator.OracleQualityPolicy.decide_mode")
    p = tracer.parent[idx]
    while p >= 0:
        if tracer.span_name[p] == oracle:
            return
        p = tracer.parent[p]
    grid = args[0] if args else kwargs["grid"]
    tracer.grids_seen[id(grid)] = grid
    tracer.max_quality_calls += 1


def _hook_decide_mode(tracer, idx, args, kwargs):
    policy = args[0]
    ladder = policy.ladder
    n_rates = len(policy.frame_rates) if policy.frame_rates else ladder.n_frame_rates
    tracer.oracle_cells[idx] = n_rates * ladder.n_heights


HOOKS = {
    "predictor.train": _hook_train,
    "labeler.select_max_quality": _hook_max_quality,
    "simulator.OracleQualityPolicy.decide_mode": _hook_decide_mode,
}


class ScanCountingList(list):
    """A list that counts the items handed out by full iterations, so that a
    linear scan such as ``min(grids, key=...)`` is measured where it runs."""

    def __init__(self, items, tracer: Tracer):
        super().__init__(items)
        self._tracer = tracer

    def __iter__(self):
        self._tracer.grids_scanned += len(self)
        return super().__iter__()


@contextmanager
def count_grid_scans(source, tracer: Tracer):
    """Within the block, count the grids a GridQualitySource iterates over,
    if it keeps them in a list."""
    grids = getattr(source, "grids", None)
    if type(grids) is not list:
        yield
        return
    source.grids = ScanCountingList(grids, tracer)
    try:
        yield
    finally:
        source.grids = grids


# ---------------------------------------------------------------------------
# Patching


def _resolve(path: str):
    """(owner object, attribute, function) for "<module>.<qualname>"."""
    module_name, _, qualname = path.partition(".")
    owner = importlib.import_module(f"adastream.{module_name}")
    *owners, attr = qualname.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


def install(tracer: Tracer):
    """Patch every traced and counted function; returns an undo callable."""
    importlib.import_module("adastream.cli")  # load every module first
    tracer.missing.clear()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "adastream" or name.startswith("adastream.")]
    undo = []

    def replace_everywhere(owner, attr, fn, wrapper):
        if isinstance(owner, type):
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, key, fn))
                    setattr(module, key, wrapper)

    targets = [(path, lambda fn, path=path: tracer.wrap(fn, path, HOOKS.get(path)))
               for path in TRACED]
    targets += [(f"{module}.{name}", lambda fn, module=module: tracer.wrap_count(fn, module))
                for module, names in COUNTED.items() for name in names]
    for path, make_wrapper in targets:
        try:
            owner, attr, fn = _resolve(path)
        except (AttributeError, KeyError, ImportError):
            tracer.missing.append(path)
            continue
        replace_everywhere(owner, attr, fn, make_wrapper(fn))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall


# ---------------------------------------------------------------------------
# Analysis


def self_times(start, end, parent) -> np.ndarray:
    """Per span: its duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    result = end - start
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        intervals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_lo, cur_hi = None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[p] -= covered
    return result


def totals(tracer: Tracer, path: str) -> tuple[int, float]:
    """Number of spans named ``path`` and their summed duration."""
    nid = tracer.ids.get(path)
    if nid is None:
        return 0, 0.0
    mask = np.asarray(tracer.span_name) == nid
    dur = np.asarray(tracer.end)[mask] - np.asarray(tracer.start)[mask]
    return int(mask.sum()), float(dur.sum())


def per_layer_stats(tracer: Tracer, rounds: int) -> dict[str, float]:
    """calls, self_s (both per traced round) and us_p50 per traced function,
    plus us_p99 for per-frame functions and the call counts of the counted
    modules."""
    rounds = max(rounds, 1)
    names = np.asarray(tracer.span_name, dtype=np.int64)
    start = np.asarray(tracer.start)
    dur_us = (np.asarray(tracer.end) - start) * 1e6
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    stats: dict[str, float] = {}
    for path in TRACED:
        nid = tracer.ids.get(path)
        mask = names == nid if nid is not None else np.zeros(names.size, bool)
        n = int(mask.sum())
        stats[f"{path}.calls"] = n / rounds
        stats[f"{path}.self_s"] = float(selfs[mask].sum()) / rounds
        stats[f"{path}.us_p50"] = float(np.median(dur_us[mask])) if n else 0.0
        if path in PER_FRAME:
            stats[f"{path}.us_p99"] = float(np.percentile(dur_us[mask], 99)) if n else 0.0
    for module in COUNTED:
        stats[f"{module}.calls"] = tracer.counts.get(module, 0) / rounds
    return stats


def oracle_useful_cell_ratio(tracer: Tracer) -> float:
    """Lowest, over the oracle policies' decisions, of the cells the policy
    may pick divided by the quality-source calls its decision makes."""
    source = tracer.ids.get("simulator.GridQualitySource.__call__")
    synthetic = tracer.ids.get("quality.synthetic_quality")
    calls: dict[int, int] = {idx: 0 for idx in tracer.oracle_cells}
    for i, p in enumerate(tracer.parent):
        if p in calls and tracer.span_name[i] in (source, synthetic):
            calls[p] += 1
    ratios = [tracer.oracle_cells[idx] / n for idx, n in calls.items() if n]
    return min(ratios) if ratios else 0.0


def write_spans(tracer: Tracer, path) -> None:
    """CSV of every span: index, name, start and end in microseconds from
    the first span, parent index (-1 for a root)."""
    t0 = tracer.start[0] if tracer.start else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,name,start_us,end_us,parent\n")
        names = tracer.names
        for i, (nid, s, e, p) in enumerate(zip(tracer.span_name, tracer.start,
                                                tracer.end, tracer.parent)):
            fh.write(f"{i},{names[nid]},{(s - t0) * 1e6:.3f},"
                     f"{(e - t0) * 1e6:.3f},{p}\n")
