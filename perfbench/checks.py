"""Output checks for one benchmark run, and the artifact digest.

The checks use integers only (counts, thresholds, row and cell counts), so
they do not depend on the float kernels a later change may rewrite. Each
returns a list of failure messages; an empty list means the run is correct.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

# Tier -> (numerator, denominator) of its level, so ceil(level * N) stays
# integer. Kept apart from the program's own table so the check is independent.
TIER_LEVELS = {"90": (90, 100), "95": (95, 100), "99": (99, 100), "99.9": (999, 1000)}


def threshold(tier: str, n: int) -> int:
    num, den = TIER_LEVELS[tier]
    return -((-num * n) // den)


def check_lag(lag, tier: str, samples: int) -> list[str]:
    """Counts lie in [0, N] with n_samples == N, and the network is exactly the
    links whose count reaches ceil(level * N) in every pair."""
    errors = []
    name = f"lag {lag.spec.delta_t}"
    first = lag.validations[0]
    mask = np.ones(first.exceed_counts.shape, dtype=bool)
    for v in lag.validations:
        counts = np.asarray(v.exceed_counts)
        if v.n_samples != samples:
            errors.append(f"{name} pair ({v.t1}, {v.t2}): n_samples {v.n_samples} != {samples}")
        if counts.min(initial=0) < 0 or counts.max(initial=0) > samples:
            errors.append(f"{name} pair ({v.t1}, {v.t2}): counts outside [0, {samples}]")
        mask &= counts >= threshold(tier, samples)
    expected = {
        (first.tech_ids[i], first.product_ids[j]) for i, j in zip(*np.nonzero(mask))
    }
    if set(lag.network.edge_set()) != expected:
        errors.append(f"{name}: edge set differs from the counts intersected at tier {tier}")
    if lag.network.edge_count != len(expected):
        errors.append(f"{name}: edge_count {lag.network.edge_count} != {len(expected)}")
    return errors


def check_pipeline(result, cfg, out_dir: Path, reports: bool) -> list[str]:
    errors = []
    for lag in result.lag_results:
        errors += check_lag(lag, cfg.tier, cfg.samples)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    stages = {"ingest", "configure", "efc"}
    for lag in result.lag_results:
        stages |= {f"validate_lag_{lag.spec.delta_t}", f"report_lag_{lag.spec.delta_t}"}
    if reports:
        stages.add("report")
    missing = stages - set(manifest["stages"])
    if missing:
        errors.append(f"manifest lacks stages {sorted(missing)}")
    for lag in result.lag_results:
        lag_dir = out_dir / f"lag_{lag.spec.delta_t}"
        with (lag_dir / "edges.csv").open(encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != lag.network.edge_count:
            errors.append(
                f"lag {lag.spec.delta_t}: edges.csv has {rows} rows, "
                f"edge_count is {lag.network.edge_count}"
            )
        if reports:
            report = json.loads((lag_dir / "report.json").read_text(encoding="utf-8"))
            if report["edge_count"] != lag.network.edge_count:
                errors.append(f"lag {lag.spec.delta_t}: report.json edge_count differs")
    return errors


def check_robustness(benchmark_result, report, cfg, out_dir: Path, configurations: int) -> list[str]:
    """The benchmark network as in ``check_lag``; then every cached count
    array (the benchmark's pairs and one per window) has ``n == N`` and counts
    in [0, N], and the windows' edge counts at both tiers are those of their
    count arrays against ``ceil(level * N)``."""
    errors = []
    for lag in benchmark_result.lag_results:
        errors += check_lag(lag, cfg.tier, cfg.samples)
    n = cfg.samples
    tiers = (report.benchmark_tier, report.lax_tier)

    def edges(counts) -> tuple[int, ...]:
        return tuple(int(np.count_nonzero(counts >= threshold(t, n))) for t in tiers)

    bench_pairs = [v for lag in benchmark_result.lag_results for v in lag.validations]
    entries = sorted((out_dir / "cache").glob("counts-*.npz"))
    if len(entries) != len(bench_pairs) + configurations:
        errors.append(
            f"{len(entries)} cached count arrays, expected "
            f"{len(bench_pairs)} benchmark pairs + {configurations} windows"
        )
    window_edges = Counter()
    for path in entries:
        with np.load(path, allow_pickle=False) as data:
            samples, counts = int(data["n"][0]), data["counts"]
        if samples != n:
            errors.append(f"{path.name}: n_samples {samples} != {n}")
        if counts.min(initial=0) < 0 or counts.max(initial=0) > n:
            errors.append(f"{path.name}: counts outside [0, {n}]")
        window_edges[edges(counts)] += 1
    window_edges -= Counter(edges(np.asarray(v.exceed_counts)) for v in bench_pairs)
    if window_edges != Counter((row.edges_at_tier, row.edges_at_lax) for row in report.rows):
        errors.append("window edge counts differ from their cached counts at the two tiers")
    if report.configurations != configurations:
        errors.append(f"{report.configurations} configurations, expected {configurations}")
    for row in report.rows:
        where = f"delta {row.delta} end {row.end_year}"
        if not (0 <= row.overlap_at_tier <= 1 and 0 <= row.overlap_at_lax <= 1):
            errors.append(f"{where}: overlap outside [0, 1]")
        # The lax tier's threshold is lower, so its network contains the tier's.
        if row.edges_at_lax < row.edges_at_tier:
            errors.append(f"{where}: fewer edges at the lax tier than at {cfg.tier}")
    written = json.loads((out_dir / "robustness" / "report.json").read_text(encoding="utf-8"))
    if written["configurations"] != configurations:
        errors.append("robustness/report.json configuration count differs")
    return errors


def check_panels(panels, expected: dict) -> list[str]:
    """Axes, years and per-year nonzero cells match what the generator wrote."""
    errors = []
    for panel in panels:
        want = expected[panel.layer_kind]
        if list(panel.country_ids) != want["countries"]:
            errors.append(f"{panel.layer_kind}: country axis differs from the input")
        if list(panel.activity_ids) != want["activities"]:
            errors.append(f"{panel.layer_kind}: activity axis differs from the input")
        if list(panel.years) != want["years"]:
            errors.append(f"{panel.layer_kind}: years {panel.years} differ from the input")
        for year in panel.years:
            cells = int(np.count_nonzero(panel.values[year]))
            if cells != want["cells"]:
                errors.append(
                    f"{panel.layer_kind} {year}: {cells} nonzero cells, input has {want['cells']}"
                )
    return errors


def digest_dir(out_dir: Path) -> str:
    """SHA-256 over every file under ``out_dir`` except ``cache/``, by relative path."""
    h = hashlib.sha256()
    files = sorted(
        p for p in out_dir.rglob("*")
        if p.is_file() and p.relative_to(out_dir).parts[0] != "cache"
    )
    for path in files:
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def digest_panels(panels) -> str:
    h = hashlib.sha256()
    for panel in panels:
        h.update(repr((panel.layer_kind, panel.country_ids, panel.activity_ids, panel.years)).encode())
        for year in panel.years:
            h.update(np.ascontiguousarray(panel.values[year]).tobytes())
    return h.hexdigest()
