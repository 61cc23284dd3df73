"""End-to-end pipeline runs, caching, robustness harness, and the CLI."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tpnet import (
    ConfigError,
    StageError,
    fit_bicm,
    nullmodel,
    pipeline,
    run_pipeline,
    run_robustness,
    serialize_config,
    significance_profile,
)
from tpnet.cli import main
from tpnet.config import LagSpec, RunConfig, config_to_dict
from tpnet.pipeline import (
    ArtifactCache,
    contract_pair,
    enumerate_windows,
    load_panels,
)
from tpnet.rca import BinaryMatrix

from .conftest import PLANTED_LINK, write_constant_panel_csv


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


def test_report_json_profiles_match_significance_profile(tmp_path):
    # country pair k holds only tech Tk and product Pk (k < 3), beside a
    # dense block: P0-P2 are connected, P3-P6 are not
    countries = tuple(f"C{i}" for i in range(10))
    techs = tuple(f"T{i}" for i in range(6))
    products = ("12 P2", "9 P3", "10 P0", "100 P4", "11 P1", "13 P5", "14 P6")
    tech = np.zeros((10, 6), dtype=int)
    prod = np.zeros((10, 7), dtype=int)
    for k, j in enumerate((2, 4, 0)):
        tech[2 * k:2 * k + 2, k] = 1
        prod[2 * k:2 * k + 2, j] = 1
    tech[6:, 3:] = 1
    prod[6:, (1, 3, 5, 6)] = 1
    panels = (
        write_constant_panel_csv(tmp_path / "t.csv", tech, countries, techs, range(2010, 2014)),
        write_constant_panel_csv(tmp_path / "p.csv", prod, countries, products, range(2010, 2014)),
    )
    result = run_pipeline(_config(panels, tmp_path))
    validations = result.lag_results[0].validations
    report = json.loads((tmp_path / "out" / "lag_0" / "report.json").read_text("utf-8"))
    profiles = report["significance_profiles"]
    assert result.network(0).edge_set() == {
        ("T0", "10 P0"), ("T1", "11 P1"), ("T2", "12 P2")
    }
    assert list(profiles) == ["10 P0", "11 P1", "12 P2"]
    for product, entries in profiles.items():
        assert entries == [
            {"tech": e.tech_id, "exceed_fraction": e.exceed_fraction,
             "highest_tier": e.highest_tier}
            for e in significance_profile(product, validations)
        ]


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


def test_manifest_records_every_stage_and_output(planted_panel_files, tmp_path):
    # lag 0 leaves its pairs to the panels; configure records them resolved
    lags = (LagSpec(0), LagSpec(2, ((2011, 2013),)))
    cfg = _config(planted_panel_files, tmp_path, samples=100, lags=lags)
    run_pipeline(cfg)
    snapshot = config_to_dict(cfg)
    del snapshot["output_dir"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {
        "config": snapshot,
        "stages": {
            "ingest": {"product_shape": [6, 5], "technology_shape": [6, 4]},
            "configure": {"lags": [
                {"delta_t": 0, "pairs": [[2011, 2011], [2013, 2013]]},
                {"delta_t": 2, "pairs": [[2011, 2013]]},
            ]},
            "validate_lag_0": {"edges": 1, "pairs": [[2011, 2011], [2013, 2013]]},
            "validate_lag_2": {"edges": 1, "pairs": [[2011, 2013]]},
            "efc": {"product_activities": 5, "technology_activities": 4},
            "report_lag_0": {},
            "report_lag_2": {},
            "report": {},
        },
        "outputs": [
            "curves/product_curve.csv",
            "curves/technology_curve.csv",
            "lag_0/edges.csv",
            "lag_0/network.graphml",
            "lag_0/report.json",
            "lag_2/edges.csv",
            "lag_2/network.graphml",
            "lag_2/report.json",
            "rankings/product_ranks.csv",
            "rankings/technology_ranks.csv",
        ],
    }

    memory = tmp_path / "memory"
    run_pipeline(cfg.replace(output_dir=str(memory)), write=False)
    assert not (memory / "manifest.json").exists()


def test_truncated_manifest_is_replaced(planted_panel_files, tmp_path, caplog):
    cfg = _config(planted_panel_files, tmp_path, samples=100)
    config_path = _write_config(cfg, tmp_path)
    runner = CliRunner()
    assert runner.invoke(main, ["validate", "--config", str(config_path)]).exit_code == 0
    path = tmp_path / "out" / "manifest.json"
    complete = path.read_bytes()
    # what a run killed while writing the manifest used to leave behind
    path.write_bytes(complete[:40])
    with caplog.at_level("WARNING", logger="tpnet.pipeline"):
        result = runner.invoke(main, ["validate", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert "manifest.json is unreadable" in caplog.text
    assert path.read_bytes() == complete
    assert sorted(json.loads(complete)["stages"]) == [
        "configure", "efc", "ingest", "report_lag_0", "validate_lag_0"
    ]
    assert [p.name for p in path.parent.glob("manifest*")] == ["manifest.json"]


def test_cache_store_loads_back_without_temp_files(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    key = ArtifactCache.key("counts", np.arange(6).reshape(2, 3), 400, 7)
    counts = np.array([[0, 400], [17, 399]])
    cache.store("counts", key, counts=counts, n=np.array([400]))
    cache.store("counts", key, counts=counts + 1, n=np.array([401]))
    loaded = cache.load("counts", key)
    assert np.array_equal(loaded["counts"], counts)
    assert loaded["counts"].dtype == counts.dtype
    assert loaded["n"].tolist() == [400]
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [f"counts-{key}.npz"]
    assert not list((tmp_path / "cache").glob("*.tmp.npz"))

    # another run writing the same entry keeps its own temp file
    other = ArtifactCache.key("counts", 8)
    foreign = tmp_path / "cache" / f"counts-{other}.tmp.npz"
    foreign.write_bytes(b"partial")
    cache.store("counts", other, counts=counts, n=np.array([400]))
    assert foreign.read_bytes() == b"partial"
    assert np.array_equal(cache.load("counts", other)["counts"], counts)


def test_counts_of_another_sampling_scheme_are_not_read(planted_panel_files, tmp_path):
    # entries under the keys of earlier schemes, as the full-layer loop (no
    # tag) and the three-substream class loop stored their counts: every cell
    # at n, so reading either would keep every link
    cfg = _config(
        planted_panel_files, tmp_path, samples=30, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    tech_panel, prod_panel = load_panels(cfg)
    tech_bin, prod_bin, empirical = contract_pair(cfg, tech_panel, prod_panel, (2013, 2013))
    inputs = (
        empirical.values, fit_bicm(tech_bin).link_probabilities,
        fit_bicm(prod_bin).link_probabilities, cfg.samples, cfg.seed, 0, 0, 0,
    )
    planted = np.full(empirical.values.shape, cfg.samples)
    for tag in ((), ("degree-class draws",)):
        ArtifactCache(tmp_path / "out" / "cache").store(
            "counts", ArtifactCache.key("counts", *tag, *inputs),
            counts=planted, n=np.array([cfg.samples]),
        )
    counts = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    assert not np.array_equal(counts, planted)
    assert len(list((tmp_path / "out" / "cache").iterdir())) == 3


@pytest.mark.parametrize(
    "damage",
    [lambda entry: b"", lambda entry: entry[: len(entry) // 2], lambda entry: b"partial"],
    ids=["empty", "truncated", "not-npz"],
)
def test_unreadable_cache_entry_is_a_miss(planted_panel_files, tmp_path, caplog, damage):
    cfg = _config(
        planted_panel_files, tmp_path, samples=50, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    cold = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    [entry] = (tmp_path / "out" / "cache").iterdir()
    entry.write_bytes(damage(entry.read_bytes()))
    config_path = _write_config(cfg, tmp_path)
    with caplog.at_level("WARNING", logger="tpnet"):
        result = CliRunner().invoke(main, ["validate", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and warnings[0].startswith(f"{entry} is unreadable")
    with np.load(entry, allow_pickle=False) as data:
        assert data["counts"].dtype == np.int32
        assert np.array_equal(data["counts"], cold)
        assert data["n"].tolist() == [cfg.samples]


def test_each_pair_draws_each_layer_once_per_sample(
    planted_panel_files, tmp_path, monkeypatch
):
    draws = Counter()
    real_rng = nullmodel._rng

    def counting_rng(seed, key):
        draws[key] += 1
        return real_rng(seed, key)

    monkeypatch.setattr(nullmodel, "_rng", counting_rng)
    cfg = _config(planted_panel_files, tmp_path, samples=30)
    run_pipeline(cfg, write=False)
    pairs = [(0, 0, 0), (0, 0, 1)]
    assert set(draws) == {
(*pair, i) for pair in pairs for i in range(30)}
    assert set(draws.values()) == {1}


def test_sampling_bias_flag_reports_every_draw(
    planted_panel_files, tmp_path, monkeypatch, caplog
):
    # the loop's audit reads 4.5 sigma on the technology layer and 3.9 on the
    # product layer: one warning for the pair, none for a rerun from the cache
    real_counts = pipeline.null_exceedance_counts

    def drifting_counts(*args):
        counts, _ = real_counts(*args)
        return counts, (4.5, 3.9)

    monkeypatch.setattr(pipeline, "null_exceedance_counts", drifting_counts)
    cfg = _config(
        planted_panel_files, tmp_path, samples=30, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    with caplog.at_level("WARNING", logger="tpnet.pipeline"):
        run_pipeline(cfg, write=False)
        run_pipeline(cfg, write=False)
    assert [r.getMessage() for r in caplog.records] == [
        "pair (2013, 2013): technology layer sampled degrees drift 4.50 sigma "
        "from expectation over 30 draws"
    ]


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


def test_robustness_given_benchmark_resolves_lags(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, lags=(LagSpec(0, ((2013, 2013),)),))
    benchmark = run_pipeline(cfg, write=False).network(0)
    # a lag whose technology window starts before the panels do
    unfit = cfg.replace(lags=(LagSpec(3, ((2010, 2013),)),))
    with pytest.raises(StageError, match=r"^\[configure\] lag 3 pair \(2010, 2013\)"):
        run_robustness(unfit, benchmark, deltas=(2,))
    assert not (tmp_path / "out" / "robustness").exists()


@pytest.mark.parametrize(
    "deltas", [(0,), (-1,), (3, 3), ()], ids=["zero", "negative", "repeated", "empty"]
)
def test_robustness_rejects_bad_deltas_before_ingest(planted_panel_files, tmp_path, deltas):
    cfg = _config(planted_panel_files, tmp_path, samples=50)
    with pytest.raises(ConfigError, match="window lengths must"):
        run_robustness(cfg, deltas=deltas)
    assert not list((tmp_path / "out" / "cache").glob("*"))


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


def test_cli_rejects_negative_seed_before_ingest(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, samples=20)
    config_path = _write_config(cfg, tmp_path)
    out = tmp_path / "negative"
    result = CliRunner().invoke(
        main,
        ["validate", "--config", str(config_path), "--seed", "-1",
         "--out", str(out)],
    )
    assert result.exit_code == 1
    assert "seed must be >= 0, got -1" in result.output
    assert not isinstance(result.exception, ValueError)
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["ingest", "rca", "assist", "validate", "efc", "report", "robustness"]
)
def test_cli_stage_error_is_tagged(planted_panel_files, tmp_path, command):
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
    result = runner.invoke(main, [command, "--config", str(config_path)])
    assert result.exit_code != 0
    assert "[ingest]" in result.output


@pytest.mark.parametrize("unreadable", ["latin1", "long_path"])
def test_cli_unreadable_panel_is_tagged(planted_panel_files, tmp_path, unreadable):
    prod_csv = tmp_path / ("x" * 5000)
    if unreadable == "latin1":
        prod_csv = tmp_path / "latin1.csv"
        prod_csv.write_bytes(b"country,activity,year,value\nFRA,caf\xe9,2011,1\n")
    cfg = _config(planted_panel_files, tmp_path, product_panel=str(prod_csv))
    result = CliRunner().invoke(main, ["ingest", "--config", str(_write_config(cfg, tmp_path))])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: [ingest] ")
    assert len(result.output.splitlines()) == 1


def test_cli_robustness_matches_library_two_step(planted_panel_files, tmp_path, monkeypatch):
    lags = (LagSpec(0, ((2011, 2011), (2013, 2013))), LagSpec(2, ((2011, 2013),)))
    cfg = _config(planted_panel_files, tmp_path, samples=100, lags=lags)
    library_cfg = cfg.replace(output_dir=str(tmp_path / "library"))
    benchmark = run_pipeline(library_cfg, write=False).lag_results[0].network
    report = run_robustness(library_cfg, benchmark, (1, 2))

    reads = []
    read_panel_csv = pipeline.read_panel_csv

    def counting_read(*args, **kwargs):
        reads.append(args)
        return read_panel_csv(*args, **kwargs)

    monkeypatch.setattr(pipeline, "read_panel_csv", counting_read)
    result = CliRunner().invoke(
        main, ["robustness", "--config", str(_write_config(cfg, tmp_path)), "--deltas", "1,2"]
    )
    assert result.exit_code == 0, result.output
    assert len(reads) == 2
    out, library = tmp_path / "out", tmp_path / "library"
    robustness_json = Path("robustness") / "report.json"
    assert (out / robustness_json).read_bytes() == (library / robustness_json).read_bytes()
    # lag 0's two pairs plus one entry per window; nothing for lag 2
    assert len(list((out / "cache").iterdir())) == 2 + report.configurations
    assert len(list((library / "cache").iterdir())) == 3 + report.configurations
