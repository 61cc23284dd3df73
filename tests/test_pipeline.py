"""End-to-end pipeline runs, caching, robustness harness, and the CLI."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from tpnet import ConfigError, run_pipeline, run_robustness, serialize_config
from tpnet.cli import main
from tpnet.config import LagSpec, RunConfig
from tpnet.pipeline import enumerate_windows, load_panels

from .conftest import PLANTED_LINK


def _config(panel_files, tmp_path, **overrides):
    tech_csv, prod_csv = panel_files
    defaults = dict(
        technology_panel=str(tech_csv),
        product_panel=str(prod_csv),
        delta=2,
        samples=400,
        seed=7,
        tier="95",
        output_dir=str(tmp_path / "out"),
        lags=(LagSpec(0, ((2011, 2011), (2013, 2013))),),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_planted_link_survives_end_to_end(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path)
    result = run_pipeline(cfg)
    net = result.network(0)
    assert PLANTED_LINK in net.edge_set()
    for validation in result.lag_results[0].validations:
        link = validation.link(*PLANTED_LINK)
        assert link.passes("95")
    out = tmp_path / "out"
    assert (out / "lag_0" / "edges.csv").exists()
    assert (out / "lag_0" / "network.graphml").exists()
    assert (out / "lag_0" / "report.json").exists()
    assert (out / "rankings" / "technology_ranks.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "validate_lag_0" in manifest["stages"]
    assert "report" in manifest["stages"]


def test_two_lags_produce_curves(planted_panel_files, tmp_path):
    cfg = _config(
        planted_panel_files,
        tmp_path,
        lags=(
            LagSpec(0, ((2011, 2011), (2013, 2013))),
            LagSpec(2, ((2011, 2013),)),
        ),
    )
    result = run_pipeline(cfg)
    assert {c.side for c in result.curves} == {"technology", "product"}
    out = tmp_path / "out"
    assert (out / "curves" / "product_curve.csv").exists()
    for curve in result.curves:
        nets = {r.spec.delta_t: r.network for r in result.lag_results}
        if curve.side == "product":
            diff = nets[2].edge_count - nets[0].edge_count
            assert curve.final_value == diff


def test_window_not_covered_by_panel_rejected(planted_panel_files, tmp_path):
    cfg = _config(
        planted_panel_files, tmp_path,
        lags=(LagSpec(0, ((2009, 2009),)),),
    )
    with pytest.raises(Exception, match="missing years"):
        run_pipeline(cfg)


def test_rerun_from_cache_is_identical(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path)
    first = run_pipeline(cfg)
    cache_files = sorted((tmp_path / "out" / "cache").iterdir())
    assert cache_files
    second = run_pipeline(cfg)
    assert first.network(0).edge_set() == second.network(0).edge_set()
    a = first.lag_results[0].validations[0].exceed_counts
    b = second.lag_results[0].validations[0].exceed_counts
    assert np.array_equal(a, b)


def test_robustness_overlap_on_matching_configuration(planted_panel_files, tmp_path):
    cfg = _config(
        planted_panel_files, tmp_path,
        lags=(LagSpec(0, ((2013, 2013),)),),
    )
    result = run_pipeline(cfg, write=False)
    benchmark = result.network(0)
    report = run_robustness(cfg, benchmark, deltas=(2,))
    # the delta=2 enumeration includes the benchmark's own window
    by_end = {row.end_year: row for row in report.rows}
    assert by_end[2013].overlap_at_tier == 1.0
    assert report.benchmark_edges == benchmark.edge_count
    assert (tmp_path / "out" / "robustness" / "report.json").exists()


def test_robustness_rejects_empty_benchmark(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, tier="99.9", samples=50)
    from tpnet.validate import PairValidation, intersect_pairs

    empty = intersect_pairs(
        [PairValidation(
            tech_ids=("T0",), product_ids=("10 P0",), empirical=np.zeros((1, 1)),
            exceed_counts=np.zeros((1, 1), dtype=int), n_samples=10000,
            t1=2013, t2=2013,
        )],
        "95",
    )
    with pytest.raises(ConfigError, match="no edges"):
        run_robustness(cfg, empty)


def test_enumerate_windows_counts(planted_decade_panel_files, tmp_path):
    cfg = _config(planted_decade_panel_files, tmp_path, delta=5)
    tech_panel, prod_panel = load_panels(cfg)
    # 2008-2017 coverage: 8 + 7 + 1 windows for lengths 3, 4, 10
    assert len(enumerate_windows(tech_panel, prod_panel, 3, 0)) == 8
    assert len(enumerate_windows(tech_panel, prod_panel, 4, 0)) == 7
    assert len(enumerate_windows(tech_panel, prod_panel, 10, 0)) == 1
    assert enumerate_windows(tech_panel, prod_panel, 11, 0) == []
    # lagged windows need the technology panel to reach further back
    assert len(enumerate_windows(tech_panel, prod_panel, 3, 2)) == 6


def _write_config(cfg, tmp_path):
    path = tmp_path / "config.json"
    serialize_config(cfg, path)
    return path


def test_cli_stage_commands(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, samples=200)
    config_path = _write_config(cfg, tmp_path)
    runner = CliRunner()
    out = tmp_path / "out"

    result = runner.invoke(main, ["ingest", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert (out / "ingest.json").exists()

    result = runner.invoke(main, ["rca", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert (out / "rca" / "rca_technology_2_2011.csv").exists()
    assert (out / "rca" / "m_product_2_2013.csv").exists()

    result = runner.invoke(main, ["assist", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert (out / "assist" / "assist_2011_2011.csv").exists()

    result = runner.invoke(main, ["validate", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert "lag 0:" in result.output
    assert (out / "lag_0" / "edges.csv").exists()

    result = runner.invoke(main, ["efc", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert (out / "rankings" / "product_ranks.csv").exists()

    result = runner.invoke(main, ["report", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert (out / "lag_0" / "report.json").exists()

    result = runner.invoke(
        main, ["robustness", "--config", str(config_path), "--deltas", "2"]
    )
    assert result.exit_code == 0, result.output
    assert "configurations" in result.output


def test_cli_overrides_and_failures(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, samples=100)
    config_path = _write_config(cfg, tmp_path)
    runner = CliRunner()

    alt_out = tmp_path / "alt"
    result = runner.invoke(
        main,
        ["validate", "--config", str(config_path), "--samples", "150",
         "--seed", "3", "--out", str(alt_out)],
    )
    assert result.exit_code == 0, result.output
    assert (alt_out / "lag_0" / "edges.csv").exists()

    missing = tmp_path / "missing.json"
    result = runner.invoke(main, ["validate", "--config", str(missing)])
    assert result.exit_code != 0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json}", encoding="utf-8")
    result = runner.invoke(main, ["validate", "--config", str(bad)])
    assert result.exit_code != 0
    assert "invalid JSON" in result.output


def test_cli_stage_error_is_tagged(planted_panel_files, tmp_path):
    tech_csv, _ = planted_panel_files
    cfg = RunConfig(
        technology_panel=str(tech_csv),
        product_panel=str(tmp_path / "nope.csv"),
        output_dir=str(tmp_path / "out"),
        lags=(LagSpec(0, ((2011, 2011),)),),
        delta=2,
        samples=50,
    )
    config_path = _write_config(cfg, tmp_path)
    runner = CliRunner()
    result = runner.invoke(main, ["validate", "--config", str(config_path)])
    assert result.exit_code != 0
    assert "[ingest]" in result.output
