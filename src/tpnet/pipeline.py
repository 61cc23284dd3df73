"""End-to-end orchestration: ingest, windows, RCA, contraction, null-model
validation, ranking, reports, and the window-robustness harness.

A configured lag pair and a robustness window are one kind of (t1, t2)
pair, and ``Run.validate_pair`` is the one path that validates either: it
windows, contracts and fits the pair, then reads or draws its null counts.
Runs are deterministic given (config, seed): each pair's random stream is
derived from the master seed plus a structural key, (0, lag index, pair
index) for a lag pair and (1, window length, end year) for a robustness
window, (2, window length, -end year) for one ending before year 0, and all
writers are deterministic. Each pair's null sampling
is one pass of ``nullmodel.null_exceedance_counts``, the package's only null
loop: it draws both layers, contracts them with the kernel of the empirical
matrix and yields the exceedance counts and each layer's worst sampled-degree
z-score, the sampling-bias audit. Two costly results are cached on disk, one
entry per artifact: each pair's exceedance counts, named by its stream key
and read back as the ``PairValidation`` that checks them, and each parsed
panel, named by its layer kind. An entry holds the content
key of its inputs (for counts, ``SAMPLING_SCHEME`` among them; for a panel,
the file's bytes, ``PANEL_FORMAT`` and the entry's layout), and one made from
other inputs is replaced. A pair keeps its counts, narrowed to uint16 (uint32
above 65,535 samples), but not its empirical matrix: ``intersect_pairs``
takes each lag's matrices and keeps only the edges' mean weights. Windows,
RCA, contractions and fits are recomputed, so a rerun gives identical
results. A command's pairs all run in forked worker processes when at least
two workers, one per available CPU, get at least two pairs each, and all in
the command's own process otherwise (``Run._validate_pairs``); the number of
pairs decides, and each pair's cache lookup runs where the pair does. The
command's own process logs their drift warnings, tags their errors and
records them in call order, so no output depends on the CPU count.

Every command, ``run_pipeline`` and ``run_robustness`` among them, is one
``Run``: it opens the output directory, the cache and ``manifest.json`` once,
each created by its first write (a failed ingest writes nothing), reads the
panels in the ``ingest`` stage and, for every command but ``tpnet ingest``,
resolves the lags in ``configure``. Each stage is one ``Run.stage`` block,
which tags the block's errors with the stage and, once the block completes,
records the stage with the files it wrote; the manifest is written by
``exports.write_json``, the encoder of every JSON artifact, to a temp file
that replaces it, so a killed run never leaves a partial one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import zipfile
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass
from itertools import repeat, starmap
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import exports
from .assist import AssistMatrix, compute_assist
from .config import LagSpec, RunConfig, _int, config_to_dict
from .efc import (
    ActivityRanking,
    LinkDifferenceCurve,
    cumulative_link_difference,
    rank_activities,
)
from .errors import ConfigError, StageError, TpnetError
from .nullmodel import SAMPLING_SCHEME, fit_bicm, null_exceedance_counts
from .panels import (
    PANEL_FORMAT,
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
    the temp file is gone either way. Creates ``path``'s directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp{path.suffix}")
    try:
        write(tmp)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


class ArtifactCache:
    """npz store of one entry per artifact, ``<name>.npz``, holding the
    content ``key`` of the inputs it was made from; its directory is created
    by the first store. Opening it touches no file, and only the entries
    that ``load`` is asked for by name are ever read."""

    def __init__(self, root: Path):
        self.root = Path(root)

    @staticmethod
    def key(*parts) -> str:
        digest = hashlib.sha256()
        for part in parts:
            if isinstance(part, np.ndarray):
                arr = np.ascontiguousarray(part)  # hashed in place: tobytes()'s bytes
                digest.update(str(arr.dtype).encode())
                digest.update(str(arr.shape).encode())
                digest.update(arr)
            else:
                digest.update(str(part).encode())
            digest.update(b"\x1f")
        return digest.hexdigest()

    def load(self, name: str, key: str, read):
        """``read`` of entry ``name``'s arrays but ``key``, or None, having read
        only ``key``, if there is no entry or it has another ``key``. An entry
        that cannot be read (empty, truncated, not an npz, a bad CRC), has no
        ``key``, or that ``read`` finds malformed (KeyError, TypeError or
        ValueError), is removed with a warning and counts as a miss."""
        path = self.root / f"{name}.npz"
        if not path.exists():
            return None
        try:
            # np.load of a path would leak its handle when the file is no zip
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                if str(data["key"]) != key:
                    return None
                arrays = {field: data[field] for field in data.files if field != "key"}
        except KeyError as exc:  # no ``key`` member
            problem = f"malformed ({exc})"
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            problem = f"unreadable ({exc})"
        else:
            try:
                return read(arrays)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed ({exc})"
        logger.warning("%s is %s; removing it", path, problem)
        path.unlink(missing_ok=True)
        return None

    def store(self, name: str, key: str, **arrays: np.ndarray) -> None:
        """Replace entry ``name`` with ``arrays`` made under ``key``."""
        _publish(self.root / f"{name}.npz",
                 lambda tmp: np.savez(tmp, key=np.array(key), **arrays))


@dataclass(frozen=True)
class LagResult:
    spec: LagSpec
    network: ValidatedNetwork

    @property
    def validations(self) -> tuple[PairValidation, ...]:
        return self.network.validations


@dataclass(frozen=True)
class PipelineResult:
    lag_results: tuple[LagResult, ...]
    tech_ranking: Optional[ActivityRanking] = None
    product_ranking: Optional[ActivityRanking] = None
    curves: tuple[LinkDifferenceCurve, ...] = ()

    def network(self, delta_t: int) -> ValidatedNetwork:
        for result in self.lag_results:
            if result.spec.delta_t == delta_t:
                return result.network
        raise KeyError(f"no network for lag {delta_t}")


# Part of a panel entry's key, beside PANEL_FORMAT, so an entry of the earlier
# layout (one ``values`` stack of every year) is a silent miss and is replaced.
_PANEL_LAYOUT = "one member per year"


def _cached_panel(entry: dict, layer_kind: str) -> ActivityPanel:
    """A ``panel`` entry's labels (one UTF-8 JSON blob), years, and each
    year's values (member ``values-<year>``)."""
    countries, activities = json.loads(entry["labels"].tobytes())
    years = entry["years"].tolist()
    return ActivityPanel(layer_kind, tuple(countries), tuple(activities), tuple(years),
                         {year: entry[f"values-{year}"] for year in years})


def _read_panel(path: str | Path, layer_kind: str, cache: ArtifactCache) -> ActivityPanel:
    """``read_panel_csv`` through ``cache``'s entry ``panel-<layer_kind>``, keyed
    on the file's bytes, ``PANEL_FORMAT`` and the entry's layout. Each year is
    stored as it is, never copied into one stack."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except (OSError, ValueError):  # ValueError: a NUL byte in the path
        return read_panel_csv(path, layer_kind)  # for its error message
    name = f"panel-{layer_kind}"
    key = cache.key("panel", PANEL_FORMAT, _PANEL_LAYOUT, layer_kind, digest.hexdigest())
    panel = cache.load(name, key, read=lambda entry: _cached_panel(entry, layer_kind))
    if panel is not None:
        logger.info("read the %s panel %s from the cache", layer_kind, path)
        return panel
    panel = read_panel_csv(path, layer_kind)  # a failed parse stores nothing
    labels = json.dumps([panel.country_ids, panel.activity_ids]).encode("utf-8")
    cache.store(name, key, labels=np.frombuffer(labels, np.uint8),
                years=np.array(panel.years, np.int64),
                **{f"values-{year}": panel.values[year] for year in panel.years})
    return panel


def load_panels(cfg: RunConfig, cache: Optional[ArtifactCache] = None) -> tuple[ActivityPanel, ActivityPanel]:
    read = read_panel_csv if cache is None else lambda path, kind: _read_panel(path, kind, cache)
    tech = read(cfg.technology_panel, "technology")
    prod = read(cfg.product_panel, "product")
    if cfg.digits is not None:
        prod = aggregate_activities(prod, cfg.digits)
    logger.info(
        "loaded panels: technology %s, product %s", tech.shape, prod.shape
    )
    return tech, prod


def resolve_lags(cfg: RunConfig, tech: ActivityPanel, prod: ActivityPanel) -> tuple[LagSpec, ...]:
    """Fill in each lag's missing period pairs, then check every window fits
    the panels. By default the product windows end at ``last - delta`` and
    ``last``, and each technology window ends ``delta_t`` earlier."""
    last = max(prod.years)
    resolved = []
    for lag in cfg.lags:
        defaults = tuple((t2 - lag.delta_t, t2) for t2 in (last - cfg.delta, last))
        spec = lag if lag.pairs else LagSpec(lag.delta_t, defaults)
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


class Run:
    """One command over its output directory, opening the directory, its
    cache and its ``manifest.json`` once. Every stage is one ``stage``
    block, the only writer of the manifest: ``Run.ingest`` reads the panels
    through that cache in ``ingest``, and ``Run.start`` then resolves the
    lags in ``configure``. A previous manifest for the same config is
    extended; one for another config, or one that cannot be read back as a
    JSON object with a ``stages`` object and an ``outputs`` list of paths, is
    replaced.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out_dir = Path(cfg.output_dir)
        self.cache = ArtifactCache(self.out_dir / "cache")
        self.manifest = self.out_dir / "manifest.json"
        snapshot = config_to_dict(cfg)
        snapshot.pop("output_dir", None)
        self.data = {"config": snapshot, "stages": {}, "outputs": []}
        try:
            previous = json.loads(self.manifest.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            logger.warning("%s is unreadable (%s); starting a new one", self.manifest, exc)
            return
        outputs = previous.get("outputs") if isinstance(previous, dict) else None
        if not (isinstance(outputs, list) and all(isinstance(rel, str) for rel in outputs)
                and isinstance(previous.get("stages"), dict)):
            logger.warning("%s is not a JSON object with a stages object and an "
                           "outputs list; starting a new one", self.manifest)
        elif previous.get("config") == snapshot:
            self.data = previous

    @classmethod
    def ingest(cls, cfg: RunConfig) -> "Run":
        """Open the run and read both panels in the ``ingest`` stage."""
        run = cls(cfg)
        with run.stage("ingest") as entry:
            run.tech, run.prod = load_panels(cfg, run.cache)
            entry.update(technology_shape=list(run.tech.shape),
                         product_shape=list(run.prod.shape))
        return run

    @classmethod
    def start(cls, cfg: RunConfig) -> "Run":
        """``Run.ingest``, then resolve the lags in the ``configure`` stage."""
        run = cls.ingest(cfg)
        with run.stage("configure") as entry:
            run.lags = resolve_lags(cfg, run.tech, run.prod)
            entry["lags"] = [{"delta_t": spec.delta_t, "pairs": [list(p) for p in spec.pairs]}
                             for spec in run.lags]
        return run

    @contextmanager
    def stage(self, tag: str):
        """One stage: yield its manifest entry, whose ``outputs`` list takes
        the files the stage writes. A ``TpnetError`` raised in the block is
        raised as ``StageError(tag, …)``, but one from a stage nested inside
        passes unchanged. When the block completes, the stage is recorded
        with the entry's other items and its files, in one write."""
        entry = {"outputs": []}
        try:
            yield entry
        except StageError:
            raise
        except TpnetError as exc:
            raise StageError(tag, str(exc)) from exc
        written = {str(path.relative_to(self.out_dir)) for path in entry["outputs"]}
        self.data["stages"][tag] = {key: entry[key] for key in sorted(entry) if key != "outputs"}
        self.data["outputs"] = sorted(written.union(self.data["outputs"]))
        _publish(self.manifest, lambda tmp: exports.write_json(self.data, tmp))

    def validate_lag(self, lag_index: int) -> LagResult:
        """Validate every pair of one configured lag and intersect them at the
        configured tier, in the stage ``validate_lag_<dt>``."""
        spec = self.lags[lag_index]
        jobs = [(self.cfg.delta, pair, (0, lag_index, pair_index))
                for pair_index, pair in enumerate(spec.pairs)]
        with self.stage(f"validate_lag_{spec.delta_t}") as entry:
            validations, empirical = zip(*self._validate_pairs(jobs, empirical=True))
            network = intersect_pairs(validations, self.cfg.tier, empirical)
            logger.info(
                "lag %d: %d edges at tier %s across %d pairs",
                spec.delta_t, network.edge_count, self.cfg.tier, len(spec.pairs),
            )
            entry.update(pairs=[list(p) for p in spec.pairs], edges=network.edge_count)
        return LagResult(spec=spec, network=network)

    def _validate_pairs(self, jobs, empirical: bool = False):
        """Yield ``validate_pair``'s validation and, if ``empirical``, its
        empirical matrix (else None) for each ``(delta, pair, stream_key)``
        job in order, logging a drawn pair's drift as it is yielded.

        Every job runs in forked workers when ``_fork_pool`` starts any for
        ``len(jobs) // 2``, and here when it starts none: the job count
        alone decides, and each job's cache lookup runs where the job does.
        Each result is dropped once read, and the pool is shut down on every
        exit, its queued jobs cancelled."""
        # a worker needs two pairs to pay for its fork: at the bench's N, two
        # loops at once ran at half speed, and pooling a lag's two pairs lost
        pool = _fork_pool(len(jobs) // 2, self)
        try:
            results = (starmap(self.validate_pair, jobs) if pool is None
                       else pool.map(_forked_pair, jobs, repeat(empirical)))
            for (_, pair, _), (validation, drift, values) in zip(jobs, results):
                for layer, worst in zip(("technology", "product"), drift):
                    if worst > 4.0:
                        logger.warning(
                            "pair %s: %s layer sampled degrees drift %.2f sigma from "
                            "expectation over %d draws",
                            pair, layer, worst, self.cfg.samples,
                        )
                yield validation, values if empirical else None
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def validate_pair(
        self, delta: int, pair: tuple[int, int], stream_key: tuple[int, ...]
    ) -> tuple[PairValidation, tuple[float, ...], np.ndarray]:
        """One (t1, t2) pair: its ``delta``-year windows, RCA, alignment and
        contraction, then its exceedance counts; the ``PairValidation``, the
        sampling-bias drift and the empirical matrix. Its errors are untagged
        and its drift unlogged: ``_validate_pairs`` tags and logs them.

        The counts are read from the cache entry ``counts-<stream_key>``, as
        the ``PairValidation`` they build, with no drift, or drawn by
        ``null_exceedance_counts`` and stored there as that validation's
        narrowed counts. That one pass also audits the sampling bias: each
        layer's largest |z| of its sampled degrees over the n draws. A layer
        past 4 sigma gets a log warning, never a failure, since such an
        excursion happens by chance now and then.
        """
        n = self.cfg.samples
        tech_bin, prod_bin, empirical = contract_pair(delta, self.tech, self.prod, pair)
        tech_model = fit_bicm(tech_bin)
        prod_model = fit_bicm(prod_bin)
        key = self.cache.key(
            "counts", SAMPLING_SCHEME, empirical.values,
            tech_model.link_probabilities, prod_model.link_probabilities,
            n, self.cfg.seed, *stream_key,
        )

        def read(entry: dict) -> PairValidation:
            if not np.array_equal(entry["n"], [n]):
                raise ValueError(f"n other than {n}")
            return PairValidation(empirical.tech_ids, empirical.product_ids,
                                  entry["counts"], n, *pair)

        name = "counts-" + "-".join(map(str, stream_key))
        validation = self.cache.load(name, key, read)
        if validation is not None:
            return validation, (), empirical.values
        counts, drift = null_exceedance_counts(
            tech_model, prod_model, empirical.values, n, self.cfg.seed, stream_key
        )
        validation = read({"counts": counts, "n": np.array([n])})
        self.cache.store(name, key, counts=validation.exceed_counts, n=np.array([n]))
        return validation, drift, empirical.values


_forked_run: Optional[Run] = None  # in a forked worker, the run it inherited


def _adopt(run: Run) -> None:
    global _forked_run
    _forked_run = run


def _forked_pair(job, empirical: bool):
    """``validate_pair`` of one job in a forked worker, on the panels it
    inherited; the empirical matrix only if asked for."""
    validation, drift, values = _forked_run.validate_pair(*job)
    return validation, drift, values if empirical else None


def _fork_pool(wanted: int, run: Run):
    """A fork-context process pool of ``min(CPUs available, wanted)`` workers
    that adopt ``run``, or None when that is below 2 or the platform has no
    CPU affinity or no fork. Modules it needs are imported only here."""
    try:
        workers = min(len(os.sched_getaffinity(0)), wanted)
    except AttributeError:  # no sched_getaffinity
        return None
    if workers < 2:
        return None
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(run,))


def _binary_for_window(
    panel: ActivityPanel, delta: int, end_year: int
) -> BinaryMatrix:
    return binarize(compute_rca(aggregate_window(panel, delta, end_year)))


def contract_pair(
    delta: int,
    tech_panel: ActivityPanel,
    prod_panel: ActivityPanel,
    pair: tuple[int, int],
) -> tuple[BinaryMatrix, BinaryMatrix, AssistMatrix]:
    """``delta``-year windows, RCA and alignment of one (t1, t2) pair, then
    its contraction."""
    t1, t2 = pair
    tech_bin = _binary_for_window(tech_panel, delta, t1)
    prod_bin = _binary_for_window(prod_panel, delta, t2)
    tech_bin, prod_bin, common = align_countries(tech_bin, prod_bin)
    logger.info("pair (%s, %s): %d common countries", t1, t2, len(common))
    return tech_bin, prod_bin, compute_assist(tech_bin, prod_bin)


def compute_rankings(
    cfg: RunConfig,
    tech_panel: ActivityPanel,
    prod_panel: ActivityPanel,
    lags: Sequence[LagSpec],
) -> tuple[dict[str, ActivityRanking], dict]:
    """Complexity rankings on the most recent configured window of each
    layer, keyed ``technology`` then ``product``, and what the ``efc`` stage
    records of each layer's fit: its ranked activities, the iterations run
    and whether the ranks settled."""
    ends = (max(t1 for spec in lags for t1, _ in spec.pairs),
            max(t2 for spec in lags for _, t2 in spec.pairs))
    rankings, info = {}, {}
    for panel, end in zip((tech_panel, prod_panel), ends):
        side = panel.layer_kind
        rankings[side], fit = rank_activities(_binary_for_window(panel, cfg.delta, end))
        info.update({f"{side}_activities": len(rankings[side]),
                     f"{side}_efc_iterations": fit.iterations_run,
                     f"{side}_rank_stable": fit.rank_stable})
    return rankings, info


def _write_tables(out_dir: Path, rankings: dict[str, ActivityRanking], curves=()) -> list[Path]:
    """Write ``rankings/<side>_ranks.csv`` for each ranking and
    ``curves/<side>_curve.csv`` for each curve; the paths written."""
    tables = [
        (f"rankings/{side}_ranks.csv", exports.write_ranking_csv, ranking)
        for side, ranking in rankings.items()
    ] + [
        (f"curves/{curve.side}_curve.csv", exports.write_curve_csv, curve)
        for curve in curves
    ]
    written = []
    for name, writer, table in tables:
        path = out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(table, path)
        written.append(path)
    return written


def run_pipeline(
    cfg: RunConfig, write: bool = True, reports: bool = True
) -> PipelineResult:
    """Execute every configured lag end to end and write all artifacts.

    With ``write=False`` no network, report, ranking or curve file is
    written; the cache is still used, and the manifest still records the
    ``ingest``, ``configure``, ``validate_lag_<dt>`` and ``efc`` stages,
    with no file listed. With ``reports=False`` only the per-lag network
    files are written, not the JSON reports, rankings, or curves.
    """
    run = Run.start(cfg)
    lag_results = [run.validate_lag(lag_index) for lag_index in range(len(run.lags))]
    with run.stage("efc") as entry:
        rankings, efc_info = compute_rankings(cfg, run.tech, run.prod, run.lags)
        entry.update(efc_info)

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
        meta = {"delta": cfg.delta, "samples": cfg.samples, "seed": cfg.seed,
                "tier": cfg.tier, "digits": cfg.digits}
        for result in lag_results:
            lag_dir = run.out_dir / f"lag_{result.spec.delta_t}"
            with run.stage(f"report_lag_{result.spec.delta_t}") as entry:
                written = entry["outputs"] = [lag_dir / "edges.csv", lag_dir / "network.graphml"]
                lag_dir.mkdir(parents=True, exist_ok=True)
                exports.write_network(result.network, *written, sections)
                if reports:
                    report = degree_report(result.network, sections)
                    exports.write_report(result.network, report, meta, lag_dir / "report.json")
                    written.append(lag_dir / "report.json")
        if reports:
            with run.stage("report") as entry:
                entry["outputs"] = _write_tables(run.out_dir, rankings, curves)

    return PipelineResult(
        lag_results=tuple(lag_results),
        tech_ranking=rankings["technology"],
        product_ranking=rankings["product"],
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
        # string keys, so the file sorts the window lengths as text
        return {**asdict(self), "configurations": self.configurations,
                "mean_overlaps": {str(d): v for d, v in self.mean_overlaps().items()}}


def enumerate_windows(
    tech_panel: ActivityPanel,
    prod_panel: ActivityPanel,
    delta: int,
    delta_t: int,
) -> list[tuple[int, int]]:
    """All (t1, t2) with both delta-year windows inside their panels: none
    for a window longer than either panel."""
    if delta > min(len(tech_panel.years), len(prod_panel.years)):
        return []
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
) -> RobustnessReport:
    """Rerun the single-pair pipeline over alternative windows, report the
    fraction of benchmark edges each configuration recovers, and write that
    report to ``robustness/report.json`` under the output directory.

    The panels are read once. Without a ``benchmark``, only the first lag is
    validated, with ``run_pipeline``'s stream and cache keys, so it is that
    run's first network. Each window is recorded in the manifest as
    ``robustness_d<delta>_<end>`` with its edge counts at both tiers, and the
    report as ``robustness``. Every window length in ``deltas`` (at least one,
    each an integer >= 1 by the config's rule, none repeated; checked before
    any work) is tried at every end-year it fits, at the benchmark's tier and
    at the laxer 90% tier.
    Windows reaching outside the span of the benchmark's own product windows
    are flagged.
    """
    deltas = tuple(_int("window length", delta) for delta in deltas)
    if not deltas:
        raise ConfigError("window lengths must list at least one length")
    if min(deltas) < 1:
        raise ConfigError(f"window lengths must be >= 1, got {min(deltas)}")
    if len(set(deltas)) < len(deltas):
        raise ConfigError(f"window lengths must not repeat, got {list(deltas)}")
    run = Run.start(cfg)
    if benchmark is None:
        benchmark = run.validate_lag(0).network
    with run.stage("robustness") as entry:
        if benchmark.edge_count == 0:
            raise ConfigError("benchmark network has no edges to recover")
        if (benchmark.tech_ids, benchmark.product_ids) != (run.tech.activity_ids,
                                                           run.prod.activity_ids):
            raise ConfigError("benchmark axes do not match the configured panels")
        delta_t = benchmark.lag if benchmark.lag is not None else run.lags[0].delta_t
        bench_t2 = [t2 for _, t2 in benchmark.pairs]
        span = (min(bench_t2) - cfg.delta + 1, max(bench_t2))
        benchmark_edges = benchmark.edge_count
        tier = benchmark.tier

        # SeedSequence takes no negative spawn key: windows ending before year 0 get family 2
        jobs = [(delta, (t1, t2), (1, delta, t2) if t2 >= 0 else (2, delta, -t2))
                for delta in deltas
                for t1, t2 in enumerate_windows(run.tech, run.prod, delta, delta_t)]
        rows = []
        with closing(run._validate_pairs(jobs)) as validations:
            for delta, (t1, t2), _ in jobs:
                with run.stage(f"robustness_d{delta}_{t2}") as window:
                    validation = next(validations)[0]
                    at_tier = validation.tier_mask(tier)
                    at_lax = validation.tier_mask(LAX_TIER)
                    outside = not (span[0] <= t2 - delta + 1 and t2 <= span[1])
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
                    window.update(edges_at_tier=rows[-1].edges_at_tier,
                                  edges_at_lax=rows[-1].edges_at_lax)
        report = RobustnessReport(
            benchmark_tier=tier,
            lax_tier=LAX_TIER,
            benchmark_edges=benchmark_edges,
            delta_t=delta_t,
            rows=tuple(rows),
        )
        path = run.out_dir / "robustness" / "report.json"
        path.parent.mkdir(exist_ok=True)
        exports.write_json(report.to_dict(), path)
        entry["outputs"].append(path)
    return report
