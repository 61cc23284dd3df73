"""End-to-end orchestration: ingest, windows, RCA, contraction, null-model
validation, ranking, reports, and the window-robustness harness.

Runs are deterministic given (config, seed): every random substream is derived
from the master seed plus a structural key (lag index, pair index, sample
index), and all writers are deterministic. Each period pair's null sampling
is one pass of ``nullmodel.null_exceedance_counts``, the package's only null
loop: it draws both layers, contracts them with the kernel of the empirical
matrix and yields the exceedance counts and each layer's worst sampled-degree
z-score, the sampling-bias audit. Only the exceedance counts, the one costly
intermediate, are cached on disk, keyed by a content hash of their inputs, so
a rerun from the cache reproduces identical downstream results; windows, RCA,
contractions and fits are recomputed.

Every run, pipeline or robustness, starts with ``load_inputs``: the panels
are read under the ``ingest`` tag and the lags resolved under ``configure``.
A written pipeline run records each completed stage in ``manifest.json`` in
the output directory, all through one recorder; the manifest is replaced
through a temp file, so a killed run never leaves a partial one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import exports
from .assist import AssistMatrix, compute_assist
from .config import LagSpec, RunConfig, config_to_dict, resolve_lag
from .efc import (
    ActivityRanking,
    FitnessComplexity,
    LinkDifferenceCurve,
    cumulative_link_difference,
    rank_activities,
)
from .errors import ConfigError, StageError, TpnetError
from .nullmodel import fit_bicm, null_exceedance_counts
from .panels import (
    ActivityPanel,
    aggregate_activities,
    aggregate_window,
    align_countries,
    missing_years,
    read_panel_csv,
)
from .rca import BinaryMatrix, binarize, compute_rca
from .validate import (
    PairValidation,
    ValidatedNetwork,
    _standing,
    degree_report,
    intersect_pairs,
    load_hs_sections,
)

logger = logging.getLogger(__name__)

LAX_TIER = "90"


def _publish(path: Path, write) -> None:
    """Write ``path`` through ``write(tmp)`` on a per-process temp name, then
    move it into place: runs sharing an output directory never write the
    same file, a run killed mid-write never leaves a partial ``path``, and
    the temp file is gone either way."""
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp{path.suffix}")
    try:
        write(tmp)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


class ArtifactCache:
    """Write-once npz store keyed by a content hash of each artifact's inputs."""

    def __init__(self, root: Optional[Path]):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(*parts) -> str:
        digest = hashlib.sha256()
        for part in parts:
            if isinstance(part, np.ndarray):
                arr = np.ascontiguousarray(part)
                digest.update(str(arr.dtype).encode())
                digest.update(str(arr.shape).encode())
                digest.update(arr.tobytes())
            else:
                digest.update(str(part).encode())
            digest.update(b"\x1f")
        return digest.hexdigest()

    def _path(self, kind: str, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / f"{kind}-{key}.npz"

    def load(self, kind: str, key: str) -> Optional[dict[str, np.ndarray]]:
        """The entry's arrays, or None when there is none. An entry that
        cannot be read (empty, truncated, not an npz) is removed with a
        warning and counts as a miss, so ``store`` writes a fresh one."""
        path = self._path(kind, key)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            logger.warning("%s is unreadable (%s); removing it", path, exc)
            path.unlink(missing_ok=True)
            return None

    def store(self, kind: str, key: str, **arrays: np.ndarray) -> None:
        path = self._path(kind, key)
        if path is None or path.exists():
            return
        _publish(path, lambda tmp: np.savez(tmp, **arrays))


@dataclass(frozen=True)
class LagResult:
    spec: LagSpec
    validations: tuple[PairValidation, ...]
    network: ValidatedNetwork


@dataclass(frozen=True)
class PipelineResult:
    config: RunConfig
    lag_results: tuple[LagResult, ...]
    tech_ranking: Optional[ActivityRanking] = None
    product_ranking: Optional[ActivityRanking] = None
    tech_fit: Optional[FitnessComplexity] = None
    product_fit: Optional[FitnessComplexity] = None
    curves: tuple[LinkDifferenceCurve, ...] = ()

    def network(self, delta_t: int) -> ValidatedNetwork:
        for result in self.lag_results:
            if result.spec.delta_t == delta_t:
                return result.network
        raise KeyError(f"no network for lag {delta_t}")


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except TpnetError as exc:
        raise StageError(stage, str(exc)) from exc


class Manifest:
    """Stage-completion record kept next to the outputs.

    A previous manifest for the same config is extended; one for another
    config, or one that cannot be read back as a JSON object, is replaced.
    """

    def __init__(self, out_dir: Path, cfg: RunConfig):
        self.path = out_dir / "manifest.json"
        snapshot = config_to_dict(cfg)
        snapshot.pop("output_dir", None)
        self.data = {"config": snapshot, "stages": {}, "outputs": []}
        try:
            previous = json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            logger.warning("%s is unreadable (%s); starting a new one", self.path, exc)
            return
        if not isinstance(previous, dict):
            logger.warning("%s is not a JSON object; starting a new one", self.path)
        elif previous.get("config") == snapshot:
            self.data = previous

    def complete(self, stage: str, **info) -> None:
        self.data["stages"][stage] = dict(sorted(info.items()))
        self._write()

    def add_output(self, path: Path, out_dir: Path) -> None:
        rel = str(path.relative_to(out_dir))
        if rel not in self.data["outputs"]:
            self.data["outputs"].append(rel)
            self.data["outputs"].sort()
        self._write()

    def _write(self) -> None:
        text = json.dumps(self.data, sort_keys=True, indent=2) + "\n"
        _publish(self.path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def load_panels(cfg: RunConfig) -> tuple[ActivityPanel, ActivityPanel]:
    tech = read_panel_csv(cfg.technology_panel, "technology")
    prod = read_panel_csv(cfg.product_panel, "product")
    if cfg.digits is not None:
        prod = aggregate_activities(prod, cfg.digits)
    logger.info(
        "loaded panels: technology %s, product %s", tech.shape, prod.shape
    )
    return tech, prod


def resolve_lags(cfg: RunConfig, tech: ActivityPanel, prod: ActivityPanel) -> tuple[LagSpec, ...]:
    """Fill in default period pairs and check every window fits the panels."""
    resolved = []
    for lag in cfg.lags:
        spec = resolve_lag(lag, prod.years, cfg.delta)
        for t1, t2 in spec.pairs:
            for panel, end in ((tech, t1), (prod, t2)):
                missing = missing_years(panel, cfg.delta, end)
                if missing:
                    raise ConfigError(
                        f"lag {spec.delta_t} pair ({t1}, {t2}): {panel.layer_kind} "
                        f"panel is missing years {missing}"
                    )
        resolved.append(spec)
    return tuple(resolved)


def load_inputs(cfg: RunConfig) -> tuple[ActivityPanel, ActivityPanel, tuple[LagSpec, ...]]:
    """The staged prelude of every command: read both panels under the
    ``ingest`` tag, then resolve the lags under ``configure``."""
    tech, prod = _stage("ingest", load_panels, cfg)
    return tech, prod, _stage("configure", resolve_lags, cfg, tech, prod)


def _binary_for_window(
    panel: ActivityPanel, delta: int, end_year: int
) -> BinaryMatrix:
    return binarize(compute_rca(aggregate_window(panel, delta, end_year)))


def contract_pair(
    cfg: RunConfig,
    tech_panel: ActivityPanel,
    prod_panel: ActivityPanel,
    pair: tuple[int, int],
) -> tuple[BinaryMatrix, BinaryMatrix, AssistMatrix]:
    """Windows, RCA and alignment of one (t1, t2) pair, then its contraction."""
    t1, t2 = pair
    tech_bin = _binary_for_window(tech_panel, cfg.delta, t1)
    prod_bin = _binary_for_window(prod_panel, cfg.delta, t2)
    tech_bin, prod_bin, common = align_countries(tech_bin, prod_bin)
    logger.info("pair (%s, %s): %d common countries", t1, t2, len(common))
    return tech_bin, prod_bin, compute_assist(tech_bin, prod_bin)


def validate_pair(
    cfg: RunConfig,
    tech_panel: ActivityPanel,
    prod_panel: ActivityPanel,
    pair: tuple[int, int],
    stream_key: tuple[int, ...],
    cache: ArtifactCache,
) -> PairValidation:
    """Full single-pair chain: windows, RCA, alignment, contraction, nulls.

    The null draws, their comparison with the empirical matrix and the
    sampling-bias audit are one pass, ``null_exceedance_counts``. A layer
    whose sampled degrees drift past 4 sigma over the n draws gets a log
    warning, never a failure: such an excursion happens by chance now and
    then.
    """
    tech_bin, prod_bin, empirical = contract_pair(cfg, tech_panel, prod_panel, pair)
    tech_model = fit_bicm(tech_bin)
    prod_model = fit_bicm(prod_bin)
    # The literal names the sampling scheme: counts drawn under another
    # scheme have other bits for the same inputs, so they must not be read.
    counts_key = cache.key(
        "counts", "degree-class draws, one substream per sample", empirical.values,
        tech_model.link_probabilities, prod_model.link_probabilities,
        cfg.samples, cfg.seed, *stream_key,
    )
    n = cfg.samples
    cached = cache.load("counts", counts_key)
    if cached is not None:
        counts = cached["counts"]
    else:
        counts, drift = null_exceedance_counts(
            tech_model, prod_model, empirical.values, n, cfg.seed, stream_key
        )
        for layer, worst in zip(("technology", "product"), drift):
            if worst > 4.0:
                logger.warning(
                    "pair %s: %s layer sampled degrees drift %.2f sigma from "
                    "expectation over %d draws",
                    pair, layer, worst, n,
                )
        cache.store("counts", counts_key, counts=counts, n=np.array([n]))
    return PairValidation(
        tech_ids=empirical.tech_ids,
        product_ids=empirical.product_ids,
        empirical=empirical.values,
        exceed_counts=counts,
        n_samples=n,
        t1=pair[0],
        t2=pair[1],
    )


def run_lag(
    cfg: RunConfig,
    tech_panel: ActivityPanel,
    prod_panel: ActivityPanel,
    spec: LagSpec,
    lag_index: int,
    cache: ArtifactCache,
) -> LagResult:
    validations = tuple(
        validate_pair(
            cfg, tech_panel, prod_panel, pair, (0, lag_index, pair_index), cache
        )
        for pair_index, pair in enumerate(spec.pairs)
    )
    network = intersect_pairs(validations, cfg.tier)
    logger.info(
        "lag %d: %d edges at tier %s across %d pairs",
        spec.delta_t, network.edge_count, cfg.tier, len(spec.pairs),
    )
    return LagResult(spec=spec, validations=validations, network=network)


def compute_rankings(
    cfg: RunConfig,
    tech_panel: ActivityPanel,
    prod_panel: ActivityPanel,
    lags: Sequence[LagSpec],
) -> tuple[ActivityRanking, FitnessComplexity, ActivityRanking, FitnessComplexity]:
    """Complexity rankings on the most recent configured window of each layer."""
    tech_end = max(t1 for spec in lags for t1, _ in spec.pairs)
    prod_end = max(t2 for spec in lags for _, t2 in spec.pairs)
    tech_bin = _binary_for_window(tech_panel, cfg.delta, tech_end)
    prod_bin = _binary_for_window(prod_panel, cfg.delta, prod_end)
    tech_ranking, tech_fit = rank_activities(tech_bin)
    prod_ranking, prod_fit = rank_activities(prod_bin)
    return tech_ranking, tech_fit, prod_ranking, prod_fit


def _write_lag_outputs(
    out_dir: Path,
    manifest: Manifest,
    cfg: RunConfig,
    result: LagResult,
    sections: dict[str, str],
    reports: bool,
) -> None:
    lag_dir = out_dir / f"lag_{result.spec.delta_t}"
    lag_dir.mkdir(parents=True, exist_ok=True)
    net = result.network
    edge_path = lag_dir / "edges.csv"
    exports.write_edge_csv(net, edge_path)
    graphml_path = lag_dir / "network.graphml"
    exports.write_graphml(net, graphml_path, sections)
    written = [edge_path, graphml_path]
    if reports:
        report = degree_report(net, sections)
        meta = {
            "delta": cfg.delta,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "tier": cfg.tier,
            "digits": cfg.digits,
        }
        report_path = lag_dir / "report.json"
        exports.write_json(
            exports.network_report(
                net, report, _standing(result.validations),
                exports.tech_subclass_degrees(net), meta,
            ),
            report_path,
        )
        written.append(report_path)
    for path in written:
        manifest.add_output(path, out_dir)


def run_pipeline(
    cfg: RunConfig, write: bool = True, reports: bool = True
) -> PipelineResult:
    """Execute every configured lag end to end and write all artifacts.

    With ``write=False`` the run stays in memory (no outputs, no manifest);
    the on-disk cache under the output directory is still used. With
    ``reports=False`` only the per-lag network files are written, not the
    JSON reports, rankings, or curves.
    """
    out_dir = Path(cfg.output_dir)
    cache = ArtifactCache(out_dir / "cache")
    manifest = Manifest(out_dir, cfg) if write else None
    record = manifest.complete if manifest else lambda stage, **info: None

    tech_panel, prod_panel, lags = load_inputs(cfg)
    record("ingest", technology_shape=list(tech_panel.shape),
           product_shape=list(prod_panel.shape))
    record("configure", lags=[
        {"delta_t": spec.delta_t, "pairs": [list(p) for p in spec.pairs]}
        for spec in lags
    ])

    lag_results = []
    for lag_index, spec in enumerate(lags):
        stage = f"validate_lag_{spec.delta_t}"
        result = _stage(
            stage, run_lag, cfg, tech_panel, prod_panel, spec, lag_index, cache
        )
        lag_results.append(result)
        record(stage, pairs=[list(p) for p in spec.pairs],
               edges=result.network.edge_count)

    tech_ranking, tech_fit, prod_ranking, prod_fit = _stage(
        "efc", compute_rankings, cfg, tech_panel, prod_panel, lags
    )
    record("efc", technology_activities=len(tech_ranking),
           product_activities=len(prod_ranking))

    rankings = {"technology": tech_ranking, "product": prod_ranking}
    curves: list[LinkDifferenceCurve] = []
    if len(lag_results) >= 2:
        ordered = sorted(lag_results, key=lambda r: r.spec.delta_t)
        base, lagged = ordered[0].network, ordered[-1].network
        curves = [
            cumulative_link_difference(base, lagged, ranking, side)
            for side, ranking in rankings.items()
        ]

    if write:
        sections = load_hs_sections()
        for result in lag_results:
            stage = f"report_lag_{result.spec.delta_t}"
            _stage(
                stage, _write_lag_outputs,
                out_dir, manifest, cfg, result, sections, reports,
            )
            record(stage)
        if reports:
            tables = [
                (f"rankings/{side}_ranks.csv", exports.write_ranking_csv, ranking)
                for side, ranking in rankings.items()
            ] + [
                (f"curves/{curve.side}_curve.csv", exports.write_curve_csv, curve)
                for curve in curves
            ]
            for name, writer, table in tables:
                path = out_dir / name
                path.parent.mkdir(exist_ok=True)
                writer(table, path)
                manifest.add_output(path, out_dir)
            record("report")

    return PipelineResult(
        config=cfg,
        lag_results=tuple(lag_results),
        tech_ranking=tech_ranking,
        product_ranking=prod_ranking,
        tech_fit=tech_fit,
        product_fit=prod_fit,
        curves=tuple(curves),
    )


@dataclass(frozen=True)
class RobustnessRow:
    delta: int
    end_year: int
    t1: int
    t2: int
    edges_at_tier: int
    overlap_at_tier: float
    edges_at_lax: int
    overlap_at_lax: float
    outside_benchmark_span: bool


@dataclass(frozen=True)
class RobustnessReport:
    """Benchmark-edge recovery across alternative window configurations."""

    benchmark_tier: str
    lax_tier: str
    benchmark_edges: int
    delta_t: int
    rows: tuple[RobustnessRow, ...]

    @property
    def configurations(self) -> int:
        return len(self.rows)

    def mean_overlaps(self) -> dict[int, dict[str, float]]:
        by_delta: dict[int, list[RobustnessRow]] = {}
        for row in self.rows:
            by_delta.setdefault(row.delta, []).append(row)
        return {
            delta: {
                "tier": sum(r.overlap_at_tier for r in rows) / len(rows),
                "lax": sum(r.overlap_at_lax for r in rows) / len(rows),
            }
            for delta, rows in sorted(by_delta.items())
        }

    def to_dict(self) -> dict:
        return {
            "benchmark_tier": self.benchmark_tier,
            "lax_tier": self.lax_tier,
            "benchmark_edges": self.benchmark_edges,
            "delta_t": self.delta_t,
            "configurations": self.configurations,
            "rows": [asdict(r) for r in self.rows],
            "mean_overlaps": {
                str(d): v for d, v in self.mean_overlaps().items()
            },
        }


def enumerate_windows(
    tech_panel: ActivityPanel,
    prod_panel: ActivityPanel,
    delta: int,
    delta_t: int,
) -> list[tuple[int, int]]:
    """All (t1, t2) with both delta-year windows inside their panels."""
    return [
        (t2 - delta_t, t2)
        for t2 in sorted(prod_panel.years)
        if not missing_years(prod_panel, delta, t2)
        and not missing_years(tech_panel, delta, t2 - delta_t)
    ]


def run_robustness(
    cfg: RunConfig,
    benchmark: Optional[ValidatedNetwork] = None,
    deltas: Sequence[int] = (3, 4, 10),
    write: bool = True,
) -> RobustnessReport:
    """Rerun the single-pair pipeline over alternative windows and report the
    fraction of benchmark edges each configuration recovers.

    The panels are read once. Without a ``benchmark``, only the first lag is
    validated, with ``run_pipeline``'s stream and cache keys, so it is that
    run's first network. Every window length in ``deltas`` (at least one,
    each >= 1, none repeated; checked before any work) is tried at every
    end-year it fits, at the benchmark's tier and at the laxer 90% tier.
    Windows reaching outside the span of the benchmark's own product windows
    are flagged.
    """
    deltas = tuple(deltas)
    if not deltas:
        raise ConfigError("window lengths must list at least one length")
    if min(deltas) < 1:
        raise ConfigError(f"window lengths must be >= 1, got {min(deltas)}")
    if len(set(deltas)) < len(deltas):
        raise ConfigError(f"window lengths must not repeat, got {list(deltas)}")
    out_dir = Path(cfg.output_dir)
    cache = ArtifactCache(out_dir / "cache")
    tech_panel, prod_panel, lags = load_inputs(cfg)
    if benchmark is None:
        benchmark = _stage(
            f"validate_lag_{lags[0].delta_t}",
            run_lag, cfg, tech_panel, prod_panel, lags[0], 0, cache,
        ).network
    if benchmark.edge_count == 0:
        raise ConfigError("benchmark network has no edges to recover")
    if (
        benchmark.tech_ids != tech_panel.activity_ids
        or benchmark.product_ids != prod_panel.activity_ids
    ):
        raise ConfigError("benchmark axes do not match the configured panels")
    delta_t = benchmark.lag if benchmark.lag is not None else lags[0].delta_t
    bench_t2 = [t2 for _, t2 in benchmark.pairs if t2 is not None]
    span = (min(bench_t2) - cfg.delta + 1, max(bench_t2)) if bench_t2 else None
    benchmark_edges = benchmark.edge_count
    tier = benchmark.tier

    rows = []
    for delta in deltas:
        for t1, t2 in enumerate_windows(tech_panel, prod_panel, delta, delta_t):
            validation = _stage(
                f"robustness_d{delta}_{t2}", validate_pair, cfg.replace(delta=delta),
                tech_panel, prod_panel, (t1, t2), (1, delta, t2), cache,
            )
            at_tier = validation.tier_mask(tier)
            at_lax = validation.tier_mask(LAX_TIER)
            outside = span is not None and not (
                span[0] <= t2 - delta + 1 and t2 <= span[1]
            )
            rows.append(
                RobustnessRow(
                    delta=delta,
                    end_year=t2,
                    t1=t1,
                    t2=t2,
                    edges_at_tier=int(np.count_nonzero(at_tier)),
                    overlap_at_tier=int(np.count_nonzero(at_tier & benchmark.mask))
                    / benchmark_edges,
                    edges_at_lax=int(np.count_nonzero(at_lax)),
                    overlap_at_lax=int(np.count_nonzero(at_lax & benchmark.mask))
                    / benchmark_edges,
                    outside_benchmark_span=outside,
                )
            )
            logger.info(
                "robustness delta=%d end=%d: overlap %.3f at %s",
                delta, t2, rows[-1].overlap_at_tier, tier,
            )
    report = RobustnessReport(
        benchmark_tier=tier,
        lax_tier=LAX_TIER,
        benchmark_edges=benchmark_edges,
        delta_t=delta_t,
        rows=tuple(rows),
    )
    if write:
        rob_dir = out_dir / "robustness"
        rob_dir.mkdir(exist_ok=True)
        exports.write_json(report.to_dict(), rob_dir / "report.json")
    return report
