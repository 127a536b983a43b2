"""In-memory spans around the calls into each clonebound module.

:class:`Recorder` wraps public functions where their callers look them up,
records one span per outermost call (a call nested inside a span of the
same name is not recorded again), and restores every name on exit.
:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable

from oracle import SWEEPS


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one traced replay. Use as a context manager around it."""

    def __init__(self, targets):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._targets = targets
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recording a span called ``name``; ``name`` may be a
        function of the call's (args, kwargs). ``count`` maps
        (args, kwargs, result) to the counts stored on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if label in self._active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(label, 0.0, 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            self._active.add(label)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._active.discard(label)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Recorder":
        try:
            for owner, attr, name, count in self._targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, count))
                elif attr == "ALL_SWEEPS":
                    # A table of direct function references: wrap each entry.
                    new = tuple((key, self.wrap(f"{name}.{key}", fn, count))
                                for key, fn in raw)
                else:
                    new = self.wrap(name, raw, count)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.op, s.counts]
                for s in self.spans]


def targets(cli) -> list[tuple]:
    """(owner, attribute, span name, count) of every traced call site.

    ``cli`` is the imported ``clonebound.cli`` module, whose import has
    already loaded every other module named here.
    """
    import clonebound.bounds as bounds
    import clonebound.cloners as cloners
    import clonebound.cloning as cloning
    import clonebound.geometry as geometry
    import clonebound.search as search

    def rows(args, kwargs, result):
        return {"rows": len(args[1][0])}

    def sweep(args, kwargs, result):
        return {"trials": result.trials, "violations": result.violations}

    def samples(args, kwargs, result):
        return {"samples": args[0]}

    def minimize(args, kwargs, result):
        objective, cfg = args[0], args[1]
        best = result.best_ae if objective == "ae" else result.best_re
        bound = result.bound_ae if objective == "ae" else result.bound_re
        return {"evals": result.trials, "starts": cfg.restarts + 2,
                "gap": best - bound}

    def cloner_sweep(args, kwargs, result):
        return {"samples": result.trials,
                "floor_violations": result.floor_violations}

    return [
        (cli, "sample_curve", "bounds.sample_curve", None),
        (cli, "table_csv", "bounds.table_csv", rows),
        (bounds, "table_csv", "bounds.table_csv", rows),
        (bounds.BoundCurve, "to_json_dict", "bounds.to_json_dict", None),
        (cloning.TwoStateSet, "from_states", "cloning.TwoStateSet", None),
        (cloning.TwoStateSet, "at_overlap", "cloning.TwoStateSet", None),
        (cloning, "analyze_output", "cloning.analyze_output", None),
        (cli, "unitarity_residual", "cloning.unitarity_residual", None),
        (cloners, "build_symmetric", "cloners.build.sym", None),
        (cloners, "build_asymmetric", "cloners.build.asym", None),
        (cloners, "build_wootters_zurek", "cloners.build.wz", None),
        (cli, "closed_form_re_s", "cloners.closed_form", None),
        (cli, "closed_form_re_wz", "cloners.closed_form", None),
        (cli, "ALL_SWEEPS", "geometry", sweep),
        (geometry, "random_states", "statespace.random_states", samples),
        (cli, "verify_point", "search.verify_point", None),
        (search, "minimize_objective",
         lambda args, kwargs: f"search.minimize_objective.{args[0]}", minimize),
        (search, "random_cloner_sweep", "search.random_cloner_sweep",
         cloner_sweep),
    ]


COMMANDS = ("bounds", "cloner", "lemmas", "verify")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics over every span of a traced replay.

    A name never called reads 0: that layer did no work on this workload.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        total = counts.setdefault(s.name, {})
        for key, value in s.counts.items():
            if key == "gap":
                total[key] = max(total.get(key, value), value)
            else:
                total[key] = total.get(key, 0) + value
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def b(name):
        return busy.get(name, 0.0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    m = {}
    for cmd in COMMANDS:
        name = f"cli.main.{cmd}"
        m[f"cli.main_s.{cmd}"] = b(name)
        m[f"cli.main_self_s.{cmd}"] = sum(
            s.duration - child_time[i] for i, s in enumerate(spans)
            if s.name == name) if name in busy else 0.0
    m["bounds.sample_curve.calls"] = calls.get("bounds.sample_curve", 0)
    m["bounds.sample_curve.busy_s"] = b("bounds.sample_curve")
    m["bounds.table_csv.busy_s"] = b("bounds.table_csv")
    m["bounds.table_csv.rows"] = c("bounds.table_csv", "rows")
    m["bounds.table_csv.rows_per_s"] = _ratio(c("bounds.table_csv", "rows"),
                                              b("bounds.table_csv"))
    m["bounds.to_json_dict.busy_s"] = b("bounds.to_json_dict")
    for name in ("cloning.TwoStateSet", "cloning.analyze_output"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.busy_s"] = b(name)
    m["cloning.unitarity_residual.busy_s"] = b("cloning.unitarity_residual")
    for kind in ("sym", "asym", "wz"):
        m[f"cloners.build.{kind}.calls"] = calls.get(f"cloners.build.{kind}", 0)
        m[f"cloners.build.{kind}.busy_s"] = b(f"cloners.build.{kind}")
    m["cloners.closed_form.busy_s"] = b("cloners.closed_form")
    for sweep in SWEEPS:
        name = f"geometry.{sweep}"
        m[f"{name}.busy_s"] = b(name)
        m[f"{name}.trials_per_s"] = _ratio(c(name, "trials"), b(name))
        m[f"{name}.violations"] = c(name, "violations")
    name = "statespace.random_states"
    m[f"{name}.calls"] = calls.get(name, 0)
    m[f"{name}.samples"] = c(name, "samples")
    m[f"{name}.busy_s"] = b(name)
    m["search.verify_point.calls"] = calls.get("search.verify_point", 0)
    m["search.verify_point.busy_s"] = b("search.verify_point")
    objectives = [f"search.minimize_objective.{o}" for o in ("ae", "re")]
    evals = sum(c(n, "evals") for n in objectives)
    starts = sum(c(n, "starts") for n in objectives)
    for n in objectives:
        m[f"{n}.busy_s"] = b(n)
    m["search.minimize_objective.evals"] = evals
    m["search.minimize_objective.eval_us"] = 1e6 * _ratio(
        sum(b(n) for n in objectives), evals)
    m["search.minimize_objective.evals_per_start"] = _ratio(evals, starts)
    gaps = [counts[n]["gap"] for n in objectives if n in counts]
    m["search.minimize_objective.gap_max"] = max(gaps) if gaps else 0.0
    name = "search.random_cloner_sweep"
    m[f"{name}.busy_s"] = b(name)
    m[f"{name}.samples_per_s"] = _ratio(c(name, "samples"), b(name))
    m[f"{name}.floor_violations"] = c(name, "floor_violations")
    return m
