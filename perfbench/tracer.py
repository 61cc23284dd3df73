"""Per-layer spans recorded from outside the package.

The tracer replaces, for the duration of one timed call, the names that
``tpnet.pipeline`` imports from the other modules, the ``tpnet.exports``
writers and the ``ArtifactCache`` methods with thin wrappers. Each wrapper
records one span: calls and self time (its duration minus the time of the
wrapped calls made inside it). Spans that start directly inside the timed
call are its children, so

    sum of every span's self time + pipeline.self_s == traced wall time

holds by construction. ``layer_metrics`` turns the spans and counters into the
per-layer metrics named in BENCHMARK.json.

``pipeline.trace_overhead_s`` is measured inside the traced process: the
number of wrapper entries (calls and ``next()``s) times the cost of one entry,
timed on no-op functions and streams in the same process, plus the time spent
in the counting hooks.

A name the program no longer has (fused or removed by a later change) is
skipped and reads as 0 calls. Static and class methods stay static and class
methods, so a wrapped ``ArtifactCache.key`` never sees the cache object as an
extra key part.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Span name -> the per-layer time metric its self time is added to. Every
# wrapped name appears here, so the layer times partition the traced wall.
SPAN_METRIC = {
    "read_panel_csv": "panels.read_s",
    "aggregate_window": "panels.window_s",
    "align_countries": "panels.window_s",
    "aggregate_activities": "panels.window_s",
    "compute_rca": "rca.s",
    "binarize": "rca.s",
    "compute_assist": "assist.empirical_s",
    "fit_bicm": "nullmodel.fit_s",
    "null_assist_ensemble": "nullmodel.draw_contract_s",
    "null_assist_degree_zscores": "nullmodel.audit_s",
    "compute_pvalues": "validate.compare_s",
    "intersect_pairs": "validate.intersect_s",
    "significance_profile": "validate.profile_s",
    "degree_report": "validate.degree_report_s",
    "rank_activities": "efc.rank_s",
    "cumulative_link_difference": "efc.curve_s",
    "exports.network_report": "exports.report_build_s",
    "exports.tech_subclass_degrees": "exports.report_build_s",
    "exports.write_edge_csv": "exports.write_s",
    "exports.write_graphml": "exports.write_s",
    "exports.write_json": "exports.write_s",
    "exports.write_ranking_csv": "exports.write_s",
    "exports.write_curve_csv": "exports.write_s",
    "ArtifactCache.key": "pipeline.cache_key_s",
    "ArtifactCache.load": "pipeline.cache_load_s",
    "ArtifactCache.store": "pipeline.cache_store_s",
}

TIME_METRICS = tuple(sorted(set(SPAN_METRIC.values()))) + ("pipeline.self_s",)

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("panels.read_s", "s"),
    ("panels.rows", "count"),
    ("panels.rows_per_s", "rows/s"),
    ("panels.window_s", "s"),
    ("rca.s", "s"),
    ("rca.calls", "count"),
    ("assist.empirical_s", "s"),
    ("assist.null_gflop", "Gflop"),
    ("nullmodel.fit_s", "s"),
    ("nullmodel.fit_calls", "count"),
    ("nullmodel.draw_contract_s", "s"),
    ("nullmodel.samples", "count"),
    ("nullmodel.ms_per_sample", "ms"),
    ("nullmodel.gflops", "Gflop/s"),
    ("nullmodel.audit_s", "s"),
    ("nullmodel.audit_draws", "count"),
    ("nullmodel.redraw_ratio", "ratio"),
    ("validate.compare_s", "s"),
    ("validate.intersect_s", "s"),
    ("validate.intersect_calls", "count"),
    ("validate.edges", "count"),
    ("validate.us_per_edge", "us"),
    ("validate.profile_s", "s"),
    ("validate.profile_calls", "count"),
    ("validate.degree_report_s", "s"),
    ("exports.report_build_s", "s"),
    ("exports.write_s", "s"),
    ("exports.bytes", "B"),
    ("exports.report_json_bytes", "B"),
    ("efc.rank_s", "s"),
    ("efc.iterations", "count"),
    ("efc.unstable", "count"),
    ("efc.curve_s", "s"),
    ("pipeline.cache_key_s", "s"),
    ("pipeline.cache_load_s", "s"),
    ("pipeline.cache_store_s", "s"),
    ("pipeline.cache_lookups", "count"),
    ("pipeline.cache_hits", "count"),
    ("pipeline.cache_hit_ratio", "ratio"),
    ("pipeline.cache_bytes", "B"),
    ("pipeline.self_s", "s"),
    ("pipeline.traced_wall_s", "s"),
    ("pipeline.trace_overhead_s", "s"),
    ("run.cpu_s", "s"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_time: float = 0.0


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span recorder; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self, rows_by_path: dict[str, int]):
        self.rows_by_path = {str(Path(p).resolve()): n for p, n in rows_by_path.items()}
        self.spans = {name: SpanStats() for name in SPAN_METRIC}
        self.counters: Counter = Counter()
        self.children_time = 0.0
        self.entries = 0
        self.stream_entries = 0
        self.hook_time = 0.0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self) -> list[float]:
        self.entries += 1
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float]) -> None:
        duration = perf_counter() - frame[0]
        self._stack.pop()
        stats = self.spans[name]
        stats.calls += 1
        stats.self_time += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.children_time += duration

    def _wrap_function(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if after is not None:
                start = perf_counter()
                after(args, kwargs, result)
                self.hook_time += perf_counter() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_stream(self, name: str, fn, on_item):
        """Time every ``next()`` of the returned stream as one span."""

        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))

            def stream():
                while True:
                    self.stream_entries += 1
                    frame = self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, frame)
                    start = perf_counter()
                    on_item(args, kwargs)
                    self.hook_time += perf_counter() - start
                    yield item

            return stream()

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, name: str, make) -> None:
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.append(name)
            return
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    # -- counters ---------------------------------------------------------
    def _count_rows(self, args, kwargs, result) -> None:
        path = str(Path(_arg(args, kwargs, 0, "path")).resolve())
        self.counters["panels.rows"] += self.rows_by_path.get(path, 0)

    def _count_sample(self, args, kwargs) -> None:
        tech = _arg(args, kwargs, 0, "tech_model")
        prod = _arg(args, kwargs, 1, "prod_model")
        countries, techs = tech.shape
        products = prod.shape[1]
        self.counters["nullmodel.samples"] += 1
        self.counters["flop"] += 2 * countries * techs * products

    def _count_audit(self, args, kwargs, result) -> None:
        self.counters["nullmodel.audit_draws"] += int(_arg(args, kwargs, 2, "n"))

    def _count_edges(self, args, kwargs, result) -> None:
        self.counters["validate.edges"] += result.edge_count

    def _count_ranking(self, args, kwargs, result) -> None:
        fit = result[1]
        self.counters["efc.iterations"] += fit.iterations_run
        self.counters["efc.unstable"] += int(not fit.rank_stable)

    def _count_written(self, args, kwargs, result) -> None:
        path = Path(_arg(args, kwargs, 1, "path"))
        size = path.stat().st_size
        self.counters["exports.bytes"] += size
        if path.name == "report.json":
            self.counters["exports.report_json_bytes"] += size

    def _count_lookup(self, args, kwargs, result) -> None:
        self.counters["pipeline.cache_lookups"] += 1
        self.counters["pipeline.cache_hits"] += int(result is not None)

    # -- install ----------------------------------------------------------
    def install(self, pipeline, exports) -> None:
        after = {
            "read_panel_csv": self._count_rows,
            "null_assist_degree_zscores": self._count_audit,
            "intersect_pairs": self._count_edges,
            "rank_activities": self._count_ranking,
        }
        for name in SPAN_METRIC:
            owner, _, attr = name.rpartition(".")
            if name == "null_assist_ensemble":
                self._replace(
                    pipeline, attr, name,
                    lambda fn: self._wrap_stream(name, fn, self._count_sample),
                )
                continue
            if owner == "exports":
                target = exports
                hook = self._count_written if attr.startswith("write_") else None
            elif owner == "ArtifactCache":
                target = getattr(pipeline, "ArtifactCache", None)
                if target is None:
                    self.missing.append(name)
                    continue
                hook = self._count_lookup if attr == "load" else None
            else:
                target = pipeline
                hook = after.get(attr)
            self._replace(
                target, attr, name, lambda fn: self._wrap_function(name, fn, hook)
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- overhead ---------------------------------------------------------
    def overhead_s(self, probes: int = 5000, repeats: int = 5) -> float:
        """Seconds the wrappers added to the traced call.

        Times ``probes`` calls of a wrapped and a bare no-op function, and as
        many ``next()``s of a wrapped and a bare stream, best of ``repeats``;
        the difference per entry of each kind, times this tracer's entries of
        that kind, plus its hook time.
        """
        probe = Tracer({})
        probe.spans = {"probe": SpanStats()}

        def noop(*args, **kwargs):
            return None

        def stream(*args, **kwargs):
            return iter([None] * probes)

        def call_loop(fn):
            start = perf_counter()
            for _ in range(probes):
                fn()
            return perf_counter() - start

        def next_loop(fn):
            start = perf_counter()
            for _ in fn():
                pass
            return perf_counter() - start

        wrapped_call = probe._wrap_function("probe", noop)
        wrapped_stream = probe._wrap_stream("probe", stream, noop)

        def added(loop, wrapped, bare) -> float:
            best = min(loop(wrapped) for _ in range(repeats))
            return max(best - min(loop(bare) for _ in range(repeats)), 0.0) / probes

        calls = self.entries - self.stream_entries
        return (
            calls * added(call_loop, wrapped_call, noop)
            + self.stream_entries * added(next_loop, wrapped_stream, stream)
            + self.hook_time
        )

    # -- report -----------------------------------------------------------
    def layer_metrics(self, wall_s: float, cache_dir: Path) -> dict[str, float]:
        """Per-layer metrics for one traced call that took ``wall_s``.

        ``run.cpu_s`` needs the process totals; the caller fills it in.
        """
        out = {metric: 0.0 for metric, _ in LAYER_METRICS}
        for name, stats in self.spans.items():
            out[SPAN_METRIC[name]] += stats.self_time
        c = self.counters
        calls = {name: stats.calls for name, stats in self.spans.items()}
        out["panels.rows"] = c["panels.rows"]
        out["panels.rows_per_s"] = _ratio(c["panels.rows"], out["panels.read_s"])
        out["rca.calls"] = calls["compute_rca"]
        out["assist.null_gflop"] = c["flop"] / 1e9
        out["nullmodel.fit_calls"] = calls["fit_bicm"]
        out["nullmodel.samples"] = c["nullmodel.samples"]
        out["nullmodel.ms_per_sample"] = 1e3 * _ratio(
            out["nullmodel.draw_contract_s"], c["nullmodel.samples"]
        )
        out["nullmodel.gflops"] = _ratio(c["flop"] / 1e9, out["nullmodel.draw_contract_s"])
        out["nullmodel.audit_draws"] = c["nullmodel.audit_draws"]
        out["nullmodel.redraw_ratio"] = _ratio(
            c["nullmodel.audit_draws"], c["nullmodel.samples"]
        )
        out["validate.intersect_calls"] = calls["intersect_pairs"]
        out["validate.edges"] = c["validate.edges"]
        out["validate.us_per_edge"] = 1e6 * _ratio(
            out["validate.intersect_s"], c["validate.edges"]
        )
        out["validate.profile_calls"] = calls["significance_profile"]
        out["exports.bytes"] = c["exports.bytes"]
        out["exports.report_json_bytes"] = c["exports.report_json_bytes"]
        out["efc.iterations"] = c["efc.iterations"]
        out["efc.unstable"] = c["efc.unstable"]
        out["pipeline.cache_lookups"] = c["pipeline.cache_lookups"]
        out["pipeline.cache_hits"] = c["pipeline.cache_hits"]
        out["pipeline.cache_hit_ratio"] = _ratio(
            c["pipeline.cache_hits"], c["pipeline.cache_lookups"]
        )
        out["pipeline.cache_bytes"] = dir_bytes(cache_dir)
        out["pipeline.self_s"] = wall_s - self.children_time
        out["pipeline.traced_wall_s"] = wall_s
        out["pipeline.trace_overhead_s"] = self.overhead_s()
        return out


def dir_bytes(root: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total
