"""End-to-end pipeline runs, caching, robustness harness, and the CLI."""

import gc
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import struct
import warnings
import zipfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tpnet import (
    ConfigError,
    FitError,
    PanelError,
    StageError,
    TpnetError,
    exports,
    fit_bicm,
    nullmodel,
    pipeline,
    rank_activities,
    run_pipeline,
    run_robustness,
    serialize_config,
    significance_profile,
)
from tpnet.cli import main
from tpnet.config import LagSpec, RunConfig, config_to_dict
from tpnet.panels import PANEL_FORMAT, aggregate_window, read_panel_csv
from tpnet.pipeline import (
    ArtifactCache,
    contract_pair,
    enumerate_windows,
    load_panels,
)
from tpnet.rca import BinaryMatrix, binarize, compute_rca
from tpnet.validate import PairValidation, ValidatedNetwork, intersect_pairs

from .conftest import (
    PLANTED_COUNTRIES,
    PLANTED_LINK,
    PLANTED_PRODUCTS,
    PLANTED_TECHS,
    planted_matrices,
    watch_blocks,
    write_constant_panel_csv,
)


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
    i = net.tech_ids.index(PLANTED_LINK[0])
    j = net.product_ids.index(PLANTED_LINK[1])
    for validation in result.lag_results[0].validations:
        assert validation.tier_mask("95")[i, j]
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
            "efc": {"product_activities": 5, "product_efc_iterations": 54,
                    "product_rank_stable": True, "technology_activities": 4,
                    "technology_efc_iterations": 54, "technology_rank_stable": True},
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

    # a run that writes no file still records its stages, and lists no file
    memory = tmp_path / "memory"
    run_pipeline(cfg.replace(output_dir=str(memory)), write=False)
    recorded = ("ingest", "configure", "validate_lag_0", "validate_lag_2", "efc")
    assert json.loads((memory / "manifest.json").read_text(encoding="utf-8")) == {
        "config": snapshot,
        "stages": {stage: manifest["stages"][stage] for stage in recorded},
        "outputs": [],
    }
    assert not list(memory.glob("lag_*"))


def test_efc_stage_records_each_layers_fit(planted_panel_files, tmp_path):
    # both lag-0 pairs end in 2013, so each layer is ranked on its 2012-2013 window
    cfg = _config(planted_panel_files, tmp_path, samples=50)
    want = {}
    for panel in load_panels(cfg):
        ranking, fit = rank_activities(binarize(compute_rca(aggregate_window(panel, 2, 2013))))
        side = panel.layer_kind
        want.update({f"{side}_activities": len(ranking),
                     f"{side}_efc_iterations": fit.iterations_run,
                     f"{side}_rank_stable": fit.rank_stable})
    manifest = tmp_path / "out" / "manifest.json"
    run_pipeline(cfg)
    assert json.loads(manifest.read_text(encoding="utf-8"))["stages"]["efc"] == want
    manifest.unlink()
    result = CliRunner().invoke(main, ["efc", "--config", str(_write_config(cfg, tmp_path))])
    assert result.exit_code == 0, result.output
    assert json.loads(manifest.read_text(encoding="utf-8"))["stages"]["efc"] == want


@pytest.mark.parametrize("writer, message, stage, written", [
    ("write_report", r"^\[report_lag_0\] writer failed$", "report_lag_0", "lag_0/edges.csv"),
    ("write_curve_csv", r"^\[report\] writer failed$", "report", "rankings/technology_ranks.csv"),
], ids=["lag_files", "tables"])
def test_failed_stage_lists_none_of_its_files(
    planted_panel_files, tmp_path, monkeypatch, writer, message, stage, written
):
    lags = (LagSpec(0, ((2011, 2011), (2013, 2013))), LagSpec(2, ((2011, 2013),)))
    cfg = _config(planted_panel_files, tmp_path, samples=100, lags=lags)

    def failing_writer(*args, **kwargs):
        raise PanelError("writer failed")

    monkeypatch.setattr(exports, writer, failing_writer)
    with pytest.raises(TpnetError, match=message):
        run_pipeline(cfg)
    out = tmp_path / "out"
    assert (out / written).exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert "efc" in manifest["stages"]
    assert stage not in manifest["stages"]
    assert written not in manifest["outputs"]


def test_each_lag_computes_its_edge_arrays_once(planted_panel_files, tmp_path, monkeypatch):
    lags = (LagSpec(0, ((2011, 2011), (2013, 2013))), LagSpec(2, ((2011, 2013),)))
    cfg = _config(planted_panel_files, tmp_path, samples=100, lags=lags)
    calls = Counter()
    edge_arrays = ValidatedNetwork.edge_arrays

    def spy(net):
        calls[net.lag] += 1
        return edge_arrays(net)

    monkeypatch.setattr(ValidatedNetwork, "edge_arrays", spy)
    run_pipeline(cfg)
    assert calls == {0: 1, 2: 1}
    assert (tmp_path / "out" / "lag_2" / "report.json").exists()


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
    # the same config with members a later run cannot extend
    members = json.loads(complete)
    for damaged in (
        {"config": members["config"], "stages": members["stages"]},
        {**members, "stages": []},
        {**members, "outputs": {}},
        {**members, "outputs": [1]},
    ):
        path.write_text(json.dumps(damaged), encoding="utf-8")
        caplog.clear()
        with caplog.at_level("WARNING", logger="tpnet.pipeline"):
            result = runner.invoke(main, ["validate", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        assert "manifest.json is not a JSON object with a stages object" in caplog.text
        assert path.read_bytes() == complete


def test_cache_store_loads_back_without_temp_files(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    key = ArtifactCache.key("counts", np.arange(6).reshape(2, 3), 400, 7)
    counts = np.array([[0, 400], [17, 399]])
    cache.store("counts-0-0-0", key, counts=counts, n=np.array([400]))
    loaded = cache.load("counts-0-0-0", key, read=dict)
    assert np.array_equal(loaded["counts"], counts)
    assert loaded["counts"].dtype == counts.dtype
    assert loaded["n"].tolist() == [400]
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["counts-0-0-0.npz"]
    assert not list((tmp_path / "cache").glob("*.tmp.npz"))

    # another run writing the same entry keeps its own temp file
    foreign = tmp_path / "cache" / "counts-0-0-1.999.tmp.npz"
    foreign.write_bytes(b"partial")
    cache.store("counts-0-0-1", key, counts=counts, n=np.array([400]))
    assert foreign.read_bytes() == b"partial"
    assert np.array_equal(cache.load("counts-0-0-1", key, read=dict)["counts"], counts)


_KEYED = np.arange(12, dtype=np.int64).reshape(3, 4)


@pytest.mark.parametrize("parts, digest", [
    pytest.param(("counts", _KEYED, 400, 7),
                 "036877e9e29174e61726b5cba870b28da53cf2ebe432eb5f695f9e381c8b3d55", id="C-order"),
    # the same values in Fortran order hash as their C-order copy
    pytest.param(("counts", np.asfortranarray(_KEYED), 400, 7),
                 "036877e9e29174e61726b5cba870b28da53cf2ebe432eb5f695f9e381c8b3d55", id="F-order"),
    pytest.param(("counts", _KEYED[:, ::2], 400, 7),
                 "93ce90a61e49c87115ac65a9808c9a32a499991b62427d2cbdf32d2a09dee775", id="sliced"),
    pytest.param(("counts", np.array(2.5), "x"),
                 "593dbe70a8728bc8a973b07e9d3b3736ce527b95c459a29368834b51bd942970", id="0-d"),
    pytest.param(("counts", np.zeros((0, 3), np.float64), 0),
                 "9f5df9bb0fd62997ec50ed3efe60543d86b860257c3dc112fc1d86e1aee9c064", id="empty"),
    pytest.param(("panel", np.array([[True, False], [False, True]]), "product"),
                 "3ff3e44728856bd8bd6e1489e652cda41ee3b1e13e40e03255bfa1a605b53e9c", id="bool"),
    pytest.param(("counts", np.array([0, 1, 65535], np.uint16), 50, 0, 0, 1),
                 "456f8059441d96d70f9c7889bf219ee25c3969820a988a17a6f476826d8b6a7b", id="uint16"),
    pytest.param(("counts", np.linspace(0.0, 1.0, 7), np.full((2, 2), 0.1), 20, 1, 1, 3, 2010),
                 "1e8d71ef0a9d8617b9d33a9f19395edd60a1526643572d67bec95d5bf6239f38",
                 id="float64"),
])
def test_cache_keys_are_pinned(parts, digest):
    # a change to how keys are hashed would silently miss every stored entry
    assert ArtifactCache.key(*parts) == digest


def test_entry_under_another_key_is_a_silent_miss_and_is_replaced(
    planted_panel_files, tmp_path, caplog
):
    cache = ArtifactCache(tmp_path / "cache")
    old, new = ArtifactCache.key(1), ArtifactCache.key(2)
    cache.store("counts-0-0-0", old, counts=np.zeros(2, np.int64))
    with caplog.at_level("WARNING", logger="tpnet"):
        assert cache.load("counts-0-0-0", new, read=dict) is None
    assert not caplog.records
    cache.store("counts-0-0-0", new, counts=np.ones(2, np.int64))
    assert cache.load("counts-0-0-0", new, read=dict)["counts"].tolist() == [1, 1]
    assert cache.load("counts-0-0-0", old, read=dict) is None
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["counts-0-0-0.npz"]

    # a run with another seed replaces each pair's counts, and its entries
    # are those of a run with that seed alone
    cfg = _config(planted_panel_files, tmp_path, samples=30)
    cache_dir = tmp_path / "out" / "cache"
    run_pipeline(cfg, write=False)
    names = sorted(p.name for p in cache_dir.iterdir())
    assert names == ["counts-0-0-0.npz", "counts-0-0-1.npz",
                     "panel-product.npz", "panel-technology.npz"]
    caplog.clear()
    with caplog.at_level("WARNING", logger="tpnet"):
        reseeded = run_pipeline(cfg.replace(seed=8), write=False)
    assert not caplog.records
    assert sorted(p.name for p in cache_dir.iterdir()) == names
    alone = run_pipeline(cfg.replace(seed=8, output_dir=str(tmp_path / "alone")), write=False)
    for name in names[:2]:
        with np.load(cache_dir / name) as a, np.load(tmp_path / "alone" / "cache" / name) as b:
            assert sorted(a.files) == sorted(b.files)
            assert all(np.array_equal(a[f], b[f]) for f in a.files)
    for x, y in zip(reseeded.lag_results[0].validations, alone.lag_results[0].validations):
        assert np.array_equal(x.exceed_counts, y.exceed_counts)


def test_opening_a_run_changes_no_file(planted_panel_files, tmp_path):
    # beside the current entries: entries named by their content key, as
    # earlier layouts named them, with or without a format tag before it,
    # another run's temp file and other names. Opening the cache, then a run,
    # reads only the current panel entries and removes nothing.
    cfg = _config(planted_panel_files, tmp_path)
    out = tmp_path / "out"
    pipeline.Run.start(cfg)
    key = ArtifactCache.key(1)
    for name in (f"counts-{key}.npz", f"counts-0123abcd-{key}.npz",
                 f"panel-{key}.npz", f"panel-0123abcd-{key}.npz",
                 f"panel-0123abcd-{key}.999.tmp.npz", "panel-notes.npz", f"notes-{key}.npz",
                 "counts-0-0-0.npz"):
        (out / "cache" / name).write_bytes(b"planted")
    files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(files) == 11  # the manifest, two panel entries and the eight planted
    ArtifactCache(out / "cache")
    pipeline.Run.start(cfg)
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files


def test_counts_of_another_sampling_scheme_are_not_read(planted_panel_files, tmp_path):
    # entries under the keys and file names of earlier schemes, as the
    # full-layer loop (no tag), the three-substream class loop, the
    # binomial-block class loop and the jumped-substream loop stored their
    # counts, one under another name tag, and the pair's entry under the
    # jumped-substream key: every cell at n, so reading any would keep every
    # link. The run reads none, and its store replaces the pair's entry; the
    # entries under other names stay, unread.
    cfg = _config(
        planted_panel_files, tmp_path, samples=30, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    tech_panel, prod_panel = load_panels(cfg)
    tech_bin, prod_bin, empirical = contract_pair(cfg.delta, tech_panel, prod_panel, (2013, 2013))
    inputs = (
        empirical.values, fit_bicm(tech_bin).link_probabilities,
        fit_bicm(prod_bin).link_probabilities, cfg.samples, cfg.seed, 0, 0, 0,
    )
    planted = np.full(empirical.values.shape, cfg.samples)
    earlier = (
        (), ("degree-class draws",), ("degree-class draws, one substream per sample",),
        ("degree-class draws, diversification table, jumped PCG64 per sample",),
    )
    cache_dir = tmp_path / "out" / "cache"
    cache_dir.mkdir(parents=True)
    names = [f"counts-{ArtifactCache.key('counts', *tag, *inputs)}.npz" for tag in earlier]
    names.append(f"counts-0123abcd-{ArtifactCache.key('counts', *inputs)}.npz")
    for name in names:
        np.savez(cache_dir / name, counts=planted, n=np.array([cfg.samples]))
    np.savez(cache_dir / "counts-0-0-0.npz", counts=planted, n=np.array([cfg.samples]),
             key=np.array(ArtifactCache.key("counts", *earlier[-1], *inputs)))
    counts = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    assert not np.array_equal(counts, planted)
    assert sorted(p.name for p in cache_dir.glob("counts-*.npz")) == sorted(
        names + ["counts-0-0-0.npz"])

    # an entry under the current scheme's key is what a rerun reads
    key = ArtifactCache.key("counts", nullmodel.SAMPLING_SCHEME, *inputs)
    ArtifactCache(cache_dir).store(
        "counts-0-0-0", key, counts=planted, n=np.array([cfg.samples])
    )
    counts = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    assert np.array_equal(counts, planted)


def _npz(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _damaged(entry: bytes, **edits) -> bytes:
    """The entry ``entry`` with each named array passed through its edit; an
    edit that gives None drops its array."""
    with np.load(io.BytesIO(entry), allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    for name, edit in edits.items():
        arrays[name] = edit(arrays[name])
    return _npz(**{name: array for name, array in arrays.items() if array is not None})


def _first_count(value):
    def edit(counts):
        counts = counts.astype(np.int32)  # stored narrowed: widen to plant any value
        counts.flat[0] = value
        return counts
    return edit


@pytest.mark.parametrize(
    "damage, problem",
    [
        pytest.param(lambda entry: b"", "unreadable", id="empty"),
        pytest.param(lambda entry: entry[: len(entry) // 2], "unreadable", id="truncated"),
        pytest.param(lambda entry: b"partial", "unreadable", id="not-npz"),
        pytest.param(lambda entry: _damaged(entry, key=lambda key: None), "malformed",
                     id="no-key"),
        pytest.param(
            lambda entry: _damaged(entry, counts=lambda c: np.zeros((2, 3), dtype=np.int32)),
            "malformed", id="wrong-shape",
        ),
        pytest.param(lambda entry: _damaged(entry, counts=_first_count(51)), "malformed",
                     id="out-of-range"),
        pytest.param(lambda entry: _damaged(entry, counts=_first_count(-1)), "malformed",
                     id="negative"),
        pytest.param(lambda entry: _damaged(entry, counts=lambda c: c.astype(np.float64)),
                     "malformed", id="float-counts"),
        pytest.param(lambda entry: _damaged(entry, counts=lambda c: None), "malformed",
                     id="no-counts"),
        pytest.param(lambda entry: _damaged(entry, n=lambda n: np.array([49])), "malformed",
                     id="other-n"),
    ],
)
def test_unreadable_cache_entry_is_a_miss(
    planted_panel_files, tmp_path, caplog, damage, problem
):
    cfg = _config(
        planted_panel_files, tmp_path, samples=50, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    cold = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    entry = tmp_path / "out" / "cache" / "counts-0-0-0.npz"
    entry.write_bytes(damage(entry.read_bytes()))
    config_path = _write_config(cfg, tmp_path)
    with caplog.at_level("WARNING", logger="tpnet"):
        result = CliRunner().invoke(main, ["validate", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and warnings[0].startswith(f"{entry} is {problem}")
    with np.load(entry, allow_pickle=False) as data:
        assert data["counts"].dtype == np.uint16
        assert np.array_equal(data["counts"], cold)
        assert data["n"].tolist() == [cfg.samples]


def test_unreadable_cache_entry_closes_its_file(tmp_path):
    # a truncated entry fails in the zip reader after the file is open
    cache = ArtifactCache(tmp_path)
    cache.store("counts-0-0-0", "k", n=np.array([1]))
    entry = tmp_path / "counts-0-0-0.npz"
    entry.write_bytes(entry.read_bytes()[:14])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.load("counts-0-0-0", "k", read=dict) is None
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
    assert not entry.exists()


def test_counts_entry_past_n_is_refused_before_it_is_narrowed(
    planted_panel_files, tmp_path, caplog
):
    # 65,541 read as uint16 would be 5, a count within [0, n]: the entry is
    # checked in the dtype it was stored in, refused, and its counts drawn again
    cfg = _config(
        planted_panel_files, tmp_path, samples=10_000, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    cold = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    entry = tmp_path / "out" / "cache" / "counts-0-0-0.npz"
    entry.write_bytes(_damaged(entry.read_bytes(), counts=_first_count(65_541)))
    with caplog.at_level("WARNING", logger="tpnet"):
        warm = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [f"{entry} is malformed (exceedance counts must lie in [0, n_samples])"
                        "; removing it"]
    assert warm.dtype == np.uint16 and np.array_equal(warm, cold)
    with np.load(entry, allow_pickle=False) as data:
        assert data["counts"].dtype == np.uint16 and np.array_equal(data["counts"], cold)


def test_each_pair_draws_each_layer_once_per_sample(
    planted_panel_files, tmp_path, monkeypatch
):
    draws = Counter()
    watch_blocks(monkeypatch, lambda stream_key, first, count: draws.update(
        (*stream_key, i) for i in range(first, first + count)))
    cfg = _config(planted_panel_files, tmp_path, samples=30)
    run_pipeline(cfg, write=False)
    pairs = [(0, 0, 0), (0, 0, 1)]
    assert set(draws) == {(*pair, i) for pair in pairs for i in range(30)}
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


def _fit_fails_for(monkeypatch, delta, pair):
    """Patch the pipeline's fit so that it raises ``FitError`` on the layers
    of ``pair``'s ``delta``-year windows. It names the pair, not a call count,
    so it holds in forked workers too, each of which counts its own calls."""
    real_contract, real_fit, contracted = pipeline.contract_pair, pipeline.fit_bicm, []

    def contract(d, tech_panel, prod_panel, p):
        contracted[:] = [(d, p)]
        return real_contract(d, tech_panel, prod_panel, p)

    def fit(binary):
        if contracted == [(delta, pair)]:
            raise FitError("planted fit failure", residual=1.0)
        return real_fit(binary)

    monkeypatch.setattr(pipeline, "contract_pair", contract)
    monkeypatch.setattr(pipeline, "fit_bicm", fit)


def _cpus(monkeypatch, count):
    """Patch the CPUs available to this process to ``count``; the worker
    count of each ``_validate_pairs`` call's pool (None without one) is
    appended to the list returned."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    real_pool, workers = pipeline._fork_pool, []

    def fork_pool(wanted, run):
        pool = real_pool(wanted, run)
        workers.append(None if pool is None else pool._max_workers)
        return pool

    monkeypatch.setattr(pipeline, "_fork_pool", fork_pool)
    return workers


def test_failing_lag_pair_is_tagged_with_its_lag(planted_panel_files, tmp_path, monkeypatch):
    # lag 0's pairs end in 2011 and 2013; lag 2's one pair is (2011, 2013)
    lags = (LagSpec(0), LagSpec(2, ((2011, 2013),)))
    cfg = _config(planted_panel_files, tmp_path, samples=30, lags=lags)
    _fit_fails_for(monkeypatch, 2, (2011, 2013))
    with pytest.raises(StageError, match=r"^\[validate_lag_2\] planted fit failure$") as err:
        run_pipeline(cfg)
    assert isinstance(err.value.__cause__, FitError)
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert "validate_lag_0" in stages and "validate_lag_2" not in stages


def test_failing_robustness_window_is_tagged_with_its_window(
    planted_panel_files, tmp_path, monkeypatch
):
    # at 2 CPUs two forked workers run the seven windows; the windows before
    # the failing one are recorded in order either way
    _fit_fails_for(monkeypatch, 2, (2012, 2012))
    for cpus in (1, 2):
        out = tmp_path / f"out_{cpus}"
        cfg = _config(planted_panel_files, tmp_path, samples=30, output_dir=str(out))
        with monkeypatch.context() as patch:
            workers = _cpus(patch, cpus)
            with pytest.raises(
                StageError, match=r"^\[robustness_d2_2012\] planted fit failure$"
            ) as err:
                run_robustness(cfg, deltas=(1, 2))
        assert isinstance(err.value.__cause__, FitError)
        stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
        windows = sorted(stage for stage in stages if stage.startswith("robustness"))
        assert windows == [
            "robustness_d1_2010", "robustness_d1_2011", "robustness_d1_2012",
            "robustness_d1_2013", "robustness_d2_2011",
        ]
        assert workers == [None, None if cpus == 1 else 2]
        assert multiprocessing.active_children() == []


def test_failing_robustness_row_is_tagged_with_its_window(
    planted_panel_files, tmp_path, monkeypatch
):
    # a window's stage spans its whole row, not only the wait for its counts
    real_row = pipeline.RobustnessRow

    def row(**fields):
        if (fields["delta"], fields["end_year"]) == (2, 2012):
            raise PanelError("row failed")
        return real_row(**fields)

    monkeypatch.setattr(pipeline, "RobustnessRow", row)
    for cpus in (1, 2):
        out = tmp_path / f"out_{cpus}"
        cfg = _config(planted_panel_files, tmp_path, samples=30, output_dir=str(out))
        with monkeypatch.context() as patch:
            workers = _cpus(patch, cpus)
            with pytest.raises(StageError, match=r"^\[robustness_d2_2012\] row failed$") as err:
                run_robustness(cfg, deltas=(1, 2))
        assert isinstance(err.value.__cause__, PanelError)
        stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
        windows = sorted(stage for stage in stages if stage.startswith("robustness"))
        assert windows == [
            "robustness_d1_2010", "robustness_d1_2011", "robustness_d1_2012",
            "robustness_d1_2013", "robustness_d2_2011",
        ]
        assert workers == [None, None if cpus == 1 else 2]
        assert multiprocessing.active_children() == []


def test_validate_pair_raises_its_errors_untagged(planted_panel_files, tmp_path, monkeypatch):
    run = pipeline.Run.start(_config(planted_panel_files, tmp_path, samples=30))
    _fit_fails_for(monkeypatch, 2, (2011, 2011))
    with pytest.raises(FitError) as err:
        run.validate_pair(2, (2011, 2011), (0, 0, 0))
    assert type(err.value) is FitError and str(err.value) == "planted fit failure"


@pytest.mark.parametrize("error", [
    FitError("fit stalled [at 3]", residual=0.25), StageError("robustness_d2_2012", "[x] failed"),
])
def test_errors_survive_pickling(error):
    # a forked worker's error reaches the parent through pickle
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert getattr(copy, "residual", None) == getattr(error, "residual", None)
    assert getattr(copy, "stage", None) == getattr(error, "stage", None)


def _robustness_outputs(out):
    """``robustness/report.json``, ``manifest.json`` and each member of every
    counts entry under ``out``; an npz's zip headers hold its write time, so
    each member's bytes are compared rather than the file's."""
    files = {rel: (out / rel).read_bytes() for rel in ("robustness/report.json", "manifest.json")}
    for entry in sorted((out / "cache").glob("counts-*.npz")):
        with zipfile.ZipFile(entry) as zf:
            files.update({f"{entry.name}/{member}": zf.read(member)
                          for member in sorted(zf.namelist())})
    return files


def test_cpu_count_changes_no_robustness_output(
    planted_panel_files, tmp_path, monkeypatch, caplog
):
    # at 2 and 3 CPUs the seven windows run in forked workers, which inherit
    # this patch: each window drifts by its own amount
    real_counts = pipeline.null_exceedance_counts

    def drifting_counts(*args):
        counts, _ = real_counts(*args)
        stream_key = args[5]
        return counts, (3.0 + stream_key[1], 4.0 + stream_key[2] % 10 / 10)

    def robustness(out, *options):
        """``tpnet robustness --deltas 1,2`` into ``out``: its outputs and warnings."""
        cfg = _config(planted_panel_files, tmp_path, samples=50, output_dir=str(out))
        caplog.clear()
        with caplog.at_level("WARNING", logger="tpnet.pipeline"):
            result = CliRunner().invoke(main, [
                "robustness", "--config", str(_write_config(cfg, tmp_path)), "--deltas", "1,2",
                *options,
            ])
        assert result.exit_code == 0, result.output
        return _robustness_outputs(out), [r.getMessage() for r in caplog.records]

    monkeypatch.setattr(pipeline, "null_exceedance_counts", drifting_counts)
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        reseeded, _ = robustness(tmp_path / "out_seed_8", "--seed", "8")
    outputs, logged = [], []
    for cpus in (1, 2, 3):
        out = tmp_path / f"out_{cpus}"
        with monkeypatch.context() as patch:
            workers = _cpus(patch, cpus)
            cold, cold_warnings = robustness(out)
            # a warm rerun reads all nine entries back, wherever its pairs run,
            # and a rerun at another seed replaces them all
            assert robustness(out) == (cold, [])
            assert robustness(out, "--seed", "8")[0] == reseeded
        # the lag's two pairs run here; seven windows need at least two workers
        assert workers == [None, None if cpus == 1 else cpus] * 3
        assert multiprocessing.active_children() == []
        outputs.append(cold)
        logged.append(cold_warnings)
    assert len([name for name in outputs[0] if name.startswith("counts-")]) == 3 * 9
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert reseeded.keys() == outputs[0].keys() and reseeded != outputs[0]
    # the lag's second pair drifts 4.1 sigma on its product layer; a window
    # ending in 201e drifts 4.e on it, and a 2-year one 5 on its technology layer
    drift = ("pair ({0}, {0}): {1} layer sampled degrees drift {2:.2f} sigma "
             "from expectation over 50 draws")
    assert logged[0] == (
        [drift.format(2013, "product", 4.1)]
        + [drift.format(end, "product", 4 + end % 10 / 10) for end in (2011, 2012, 2013)]
        + [drift.format(end, layer, worst) for end in (2011, 2012, 2013)
           for layer, worst in (("technology", 5.0), ("product", 4 + end % 10 / 10))]
    )
    assert logged[1] == logged[0] and logged[2] == logged[0]


@pytest.mark.parametrize("platform", ["no_cpu_affinity", "no_fork"])
def test_without_a_fork_pool_every_pair_runs_here(
    planted_panel_files, tmp_path, monkeypatch, platform
):
    # at 2 CPUs the seven windows would start two workers; a platform without
    # CPU affinity or without fork starts none and writes what 1 CPU writes
    def robustness(out):
        cfg = _config(planted_panel_files, tmp_path, samples=30, output_dir=str(out))
        run_robustness(cfg, deltas=(1, 2))
        return _robustness_outputs(out)

    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        alone = robustness(tmp_path / "out_1")
    with monkeypatch.context() as patch:
        workers = _cpus(patch, 2)
        if platform == "no_cpu_affinity":
            patch.delattr(os, "sched_getaffinity", raising=False)
        else:
            patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert robustness(tmp_path / "out_2") == alone
    assert workers == [None, None]
    assert multiprocessing.active_children() == []


def test_robustness_windows_ending_before_year_zero(tmp_path, monkeypatch):
    tech, prod = planted_matrices()
    files = (
        write_constant_panel_csv(tmp_path / "tech.csv", tech, PLANTED_COUNTRIES, PLANTED_TECHS,
                                 range(-4, 0)),
        write_constant_panel_csv(tmp_path / "prod.csv", prod, PLANTED_COUNTRIES, PLANTED_PRODUCTS,
                                 range(-4, 0)),
    )
    cfg = _config(files, tmp_path, samples=50, lags=(LagSpec(0),))
    report = run_robustness(cfg, deltas=(1, 2))
    # four 1-year and three 2-year windows; a window ending in t2 < 0 is keyed (2, delta, -t2)
    assert [(row.delta, row.end_year) for row in report.rows] == [
        (1, -4), (1, -3), (1, -2), (1, -1), (2, -3), (2, -2), (2, -1),
    ]
    entries = sorted(p.name for p in (tmp_path / "out" / "cache").glob("counts-*.npz"))
    assert entries == sorted(
        ["counts-0-0-0.npz", "counts-0-0-1.npz"]
        + [f"counts-2-1-{end}.npz" for end in (1, 2, 3, 4)]
        + [f"counts-2-2-{end}.npz" for end in (1, 2, 3)]
    )

    # a warm rerun reads every counts entry back and draws nothing, at 2 CPUs
    # in forked workers, so each hit is logged to a file they append to too
    hit_log, load = tmp_path / "hits.txt", ArtifactCache.load

    def logging_load(self, name, key, read):
        found = load(self, name, key, read)
        if found is not None:
            with open(hit_log, "a", encoding="utf-8") as fh:
                fh.write(f"{name}\n")
        return found

    def no_draws(*args):
        raise AssertionError("the warm run drew null samples")

    monkeypatch.setattr(ArtifactCache, "load", logging_load)
    monkeypatch.setattr(pipeline, "null_exceedance_counts", no_draws)
    for cpus in (1, 2):
        hit_log.unlink(missing_ok=True)
        with monkeypatch.context() as patch:
            workers = _cpus(patch, cpus)
            assert run_robustness(cfg, deltas=(1, 2)) == report
        assert workers == [None, None if cpus == 1 else 2]
        assert multiprocessing.active_children() == []
        hits = hit_log.read_text(encoding="utf-8").split()
        assert sorted(f"{name}.npz" for name in hits if name.startswith("counts-")) == entries


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


def test_robustness_records_each_window_with_its_edge_counts(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, samples=100)
    report = run_robustness(cfg, deltas=(1, 2))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    windows = {
        stage: info for stage, info in manifest["stages"].items()
        if stage.startswith("robustness_d")
    }
    assert len(windows) == report.configurations > 0
    assert windows == {
        f"robustness_d{row.delta}_{row.end_year}": {
            "edges_at_lax": row.edges_at_lax, "edges_at_tier": row.edges_at_tier
        }
        for row in report.rows
    }
    assert {"ingest", "configure", "validate_lag_0", "robustness"} <= set(manifest["stages"])
    assert manifest["outputs"] == ["robustness/report.json"]


def _one_link_benchmark(tech_id, product_id, exceed_counts):
    return intersect_pairs(
        [PairValidation(
            tech_ids=(tech_id,), product_ids=(product_id,),
            exceed_counts=np.full((1, 1), exceed_counts), n_samples=10000,
            t1=2013, t2=2013,
        )],
        "95",
        [np.zeros((1, 1))],
    )


def test_robustness_rejects_empty_benchmark(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, tier="99.9", samples=50)
    empty = _one_link_benchmark("T0", "10 P0", 0)
    with pytest.raises(StageError, match=r"^\[robustness\] benchmark network has no edges to recover$"):
        run_robustness(cfg, empty)


def test_robustness_rejects_benchmark_on_other_axes(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, samples=50)
    other = _one_link_benchmark("X0", "99 X0", 10000)
    assert other.edge_count == 1
    with pytest.raises(
        StageError, match=r"^\[robustness\] benchmark axes do not match the configured panels$"
    ) as err:
        run_robustness(cfg, other, deltas=(2,))
    assert isinstance(err.value.__cause__, ConfigError)
    assert not (tmp_path / "out" / "robustness").exists()


def test_cli_robustness_without_benchmark_edges_is_tagged(tmp_path, monkeypatch):
    # two one-year windows over three countries: lag 0 has no significant link
    (tmp_path / "tiny_tech.csv").write_text(
        "country,activity,year,value\nA,T1,2010,5\nA,T2,2010,1\nB,T1,2010,1\nB,T2,2010,4\n"
        "C,T1,2010,2\nA,T1,2011,5\nB,T2,2011,4\nC,T1,2011,3\nC,T2,2011,3\n",
        encoding="utf-8",
    )
    (tmp_path / "tiny_prod.csv").write_text(
        "country,activity,year,value\nA,0101,2010,3\nB,8471,2010,2\nC,0101,2010,1\n"
        "C,8471,2010,1\nA,0101,2011,3\nB,8471,2011,2\nC,0101,2011,2\nA,8471,2011,1\n",
        encoding="utf-8",
    )
    (tmp_path / "tiny.json").write_text(json.dumps({
        "technology_panel": "tiny_tech.csv", "product_panel": "tiny_prod.csv",
        "delta": 1, "samples": 50,
    }), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["robustness", "--config", "tiny.json", "--deltas", "1"])
    assert result.exit_code == 1
    assert result.output == "Error: [robustness] benchmark network has no edges to recover\n"


def test_robustness_given_benchmark_resolves_lags(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, lags=(LagSpec(0, ((2013, 2013),)),))
    benchmark = run_pipeline(cfg, write=False).network(0)
    # a lag whose technology window starts before the panels do
    unfit = cfg.replace(lags=(LagSpec(3, ((2010, 2013),)),))
    with pytest.raises(StageError, match=r"^\[configure\] lag 3 pair \(2010, 2013\)"):
        run_robustness(unfit, benchmark, deltas=(2,))
    assert not (tmp_path / "out" / "robustness").exists()


@pytest.mark.parametrize(
    "deltas, message",
    [((0,), "window lengths must"), ((-1,), "window lengths must"),
     ((3, 3), "window lengths must"), ((), "window lengths must"),
     (("3",), "window length must be an integer"), ((3.0,), "window length must be an integer"),
     ((True,), "window length must be an integer")],
    ids=["zero", "negative", "repeated", "empty", "string", "float", "bool"],
)
def test_robustness_rejects_bad_deltas_before_ingest(planted_panel_files, tmp_path, deltas, message):
    cfg = _config(planted_panel_files, tmp_path, samples=50)
    with pytest.raises(ConfigError, match=message):
        run_robustness(cfg, deltas=deltas)
    assert not list((tmp_path / "out" / "cache").glob("*"))
    assert not (tmp_path / "out").exists()


def test_robustness_takes_numpy_window_lengths_as_ints(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, samples=50)
    report = run_robustness(cfg, deltas=(np.int64(3),))
    assert report.configurations > 0
    written = json.loads((tmp_path / "out" / "robustness" / "report.json").read_text("utf-8"))
    assert {row["delta"] for row in written["rows"]} == {3}
    assert all(type(row.delta) is int for row in report.rows)
    assert list(written["mean_overlaps"]) == ["3"]


def test_robustness_report_sorts_window_lengths_as_text(tmp_path):
    rows = tuple(
        pipeline.RobustnessRow(delta=delta, end_year=2013, t1=2013, t2=2013, edges_at_tier=1,
                               overlap_at_tier=1.0, edges_at_lax=1, overlap_at_lax=1.0,
                               outside_benchmark_span=False)
        for delta in (3, 10)
    )
    report = pipeline.RobustnessReport("95", "90", 1, 0, rows)
    exports.write_json(report.to_dict(), tmp_path / "report.json")
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert list(payload["mean_overlaps"]) == ["10", "3"]
    assert payload["configurations"] == 2
    assert sorted(payload) == ["benchmark_edges", "benchmark_tier", "configurations",
                               "delta_t", "lax_tier", "mean_overlaps", "rows"]


def test_every_json_artifact_is_sorted_indent_2_json(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, samples=100)
    config_path = str(_write_config(cfg, tmp_path))
    runner = CliRunner()
    for command in (["ingest"], ["report"], ["robustness", "--deltas", "1,2"]):
        result = runner.invoke(main, [*command, "--config", config_path])
        assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    written = sorted(str(path.relative_to(out)) for path in out.rglob("*.json")
                     if path.relative_to(out).parts[0] != "cache")
    assert written == ["ingest.json", "lag_0/report.json", "manifest.json",
                       "robustness/report.json"]
    for rel in written:
        text = (out / rel).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", rel


def test_network_of_an_unconfigured_lag_is_a_key_error():
    result = pipeline.PipelineResult(
        lag_results=(pipeline.LagResult(LagSpec(0), _one_link_benchmark("T0", "10 P0", 10000)),),
    )
    assert result.network(0).edge_count == 1
    with pytest.raises(KeyError) as err:
        result.network(7)
    assert err.value.args == ("no network for lag 7",)


def test_enumerate_windows_counts(planted_decade_panel_files, tmp_path):
    cfg = _config(planted_decade_panel_files, tmp_path, delta=5)
    tech_panel, prod_panel = load_panels(cfg)
    # 2008-2017 coverage: 8 + 7 + 1 windows for lengths 3, 4, 10
    assert len(enumerate_windows(tech_panel, prod_panel, 3, 0)) == 8
    assert len(enumerate_windows(tech_panel, prod_panel, 4, 0)) == 7
    assert len(enumerate_windows(tech_panel, prod_panel, 10, 0)) == 1
    assert enumerate_windows(tech_panel, prod_panel, 11, 0) == []
    assert enumerate_windows(tech_panel, prod_panel, 10**6, 0) == []
    # lagged windows need the technology panel to reach further back
    assert len(enumerate_windows(tech_panel, prod_panel, 3, 2)) == 6


def _write_config(cfg, tmp_path):
    path = tmp_path / "config.json"
    serialize_config(cfg, path)
    return path


def test_cli_window_longer_than_the_panel_is_one_short_configure_line(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, delta=10**5, lags=(LagSpec(0),))
    result = CliRunner().invoke(main, ["report", "--config", str(_write_config(cfg, tmp_path))])
    assert result.exit_code == 1
    assert result.output == (
        "Error: [configure] technology panel has 4 years, too few for the "
        "100000-year window ending -97987\n"
    )
    assert len(result.output.encode()) < 500


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
    rank_tables = [out / "rankings" / f"{side}_ranks.csv" for side in ("technology", "product")]
    efc_bytes = [path.read_bytes() for path in rank_tables]

    result = runner.invoke(main, ["report", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert (out / "lag_0" / "report.json").exists()
    # tpnet efc and tpnet report write the same rank tables
    assert [path.read_bytes() for path in rank_tables] == efc_bytes

    result = runner.invoke(
        main, ["robustness", "--config", str(config_path), "--deltas", "2"]
    )
    assert result.exit_code == 0, result.output
    assert "configurations" in result.output

    # every command recorded its stages, and the manifest lists exactly the
    # files on disk other than the cache and itself
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    on_disk = {
        str(path.relative_to(out)) for path in out.rglob("*")
        if path.is_file() and path.relative_to(out).parts[0] != "cache"
    }
    assert set(manifest["outputs"]) == on_disk - {"manifest.json"}
    assert "ingest.json" in manifest["outputs"]
    windows = {f"robustness_d2_{t2}" for _, t2 in enumerate_windows(*load_panels(cfg), 2, 0)}
    assert windows
    assert {"rca", "assist", "efc", "robustness", *windows} <= set(manifest["stages"])


def test_cli_report_prints_each_curves_final_value(planted_panel_files, tmp_path):
    lags = (LagSpec(0, ((2011, 2011), (2013, 2013))), LagSpec(2, ((2011, 2013),)))
    cfg = _config(planted_panel_files, tmp_path, samples=100, lags=lags)
    result = CliRunner().invoke(main, ["report", "--config", str(_write_config(cfg, tmp_path))])
    assert result.exit_code == 0, result.output
    curves = run_pipeline(cfg.replace(output_dir=str(tmp_path / "library"))).curves
    assert [c.side for c in curves] == ["technology", "product"]
    for curve in curves:
        assert f"{curve.side} curve final value: {curve.final_value}\n" in result.output


def test_cli_robustness_rejects_bad_deltas_in_one_line(planted_panel_files, tmp_path):
    cfg = _config(planted_panel_files, tmp_path, samples=50)
    result = CliRunner().invoke(
        main, ["robustness", "--config", str(_write_config(cfg, tmp_path)), "--deltas", "3,x"]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: bad --deltas value '3,x'\n"
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command, writer", [
    ("rca", "write_matrix_csv"), ("assist", "write_assist_csv"),
])
def test_cli_writer_error_is_tagged_and_leaves_the_stage_unrecorded(
    planted_panel_files, tmp_path, monkeypatch, command, writer
):
    # the command's stage spans its writes as well as its matrices
    def fail(*args):
        raise PanelError("writer failed")

    monkeypatch.setattr(exports, writer, fail)
    cfg = _config(planted_panel_files, tmp_path, samples=20)
    result = CliRunner().invoke(main, [command, "--config", str(_write_config(cfg, tmp_path))])
    assert result.exit_code == 1
    assert result.output == f"Error: [{command}] writer failed\n"
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert sorted(stages) == ["configure", "ingest"]


@pytest.mark.parametrize(
    "command", ["ingest", "rca", "assist", "validate", "efc", "report", "robustness"]
)
def test_cli_unwritable_output_dir_is_one_line(planted_panel_files, tmp_path, command):
    not_a_dir = tmp_path / "afile"
    not_a_dir.write_text("", encoding="utf-8")
    cfg = _config(planted_panel_files, tmp_path, samples=20, output_dir=str(not_a_dir))
    result = CliRunner().invoke(main, [command, "--config", str(_write_config(cfg, tmp_path))])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: cannot write {not_a_dir}")
    assert len(result.output.splitlines()) == 1


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
    assert len(list((out / "cache").glob("counts-*.npz"))) == 2 + report.configurations
    assert len(list((library / "cache").glob("counts-*.npz"))) == 3 + report.configurations
    # and one entry per panel file
    assert len(list((out / "cache").glob("panel-*.npz"))) == 2


def _count_reads(monkeypatch) -> list:
    """Patch ``pipeline.read_panel_csv`` to record each call's arguments."""
    reads = []
    read_panel_csv = pipeline.read_panel_csv

    def counting_read(*args, **kwargs):
        reads.append(args)
        return read_panel_csv(*args, **kwargs)

    monkeypatch.setattr(pipeline, "read_panel_csv", counting_read)
    return reads


def _assert_same_panel(a, b):
    assert (a.layer_kind, a.country_ids, a.activity_ids, a.years) == (
        b.layer_kind, b.country_ids, b.activity_ids, b.years
    )
    assert all(a.values[year].tobytes() == b.values[year].tobytes() for year in a.years)


@pytest.fixture
def non_ascii_panel_files(tmp_path):
    """Panels whose labels need JSON escapes and CSV quoting, and whose values
    take every digit of a float64."""
    tech_csv, prod_csv = tmp_path / "tech.csv", tmp_path / "prod.csv"
    tech_csv.write_text(
        "country,activity,year,value\n"
        "C\u00f4te d'Ivoire,Y02E \u00e9t\u00e9,2011,0.1\n"
        "\u4e2d\u56fd,\"Y02W \"\"30\"\", x\",2011,1e-300\n"
        "C\u00f4te d'Ivoire,Y02E \u00e9t\u00e9,2012,1.7976931348623157e308\n"
        "\u4e2d\u56fd,Y02E \u00e9t\u00e9,2013,3.141592653589793\n",
        encoding="utf-8",
    )
    prod_csv.write_text(
        "country,activity,year,value\n"
        "C\u00f4te d'Ivoire,10 \U0001f600,2011,2\n"
        "\u4e2d\u56fd,11 \\u00e9,2012,0.30000000000000004\n"
        "\u4e2d\u56fd,10 \U0001f600,2013,5e-324\n",
        encoding="utf-8",
    )
    return tech_csv, prod_csv


def test_cached_panel_equals_the_cold_parse(non_ascii_panel_files, tmp_path, monkeypatch):
    cfg = _config(non_ascii_panel_files, tmp_path)
    cache = ArtifactCache(tmp_path / "cache")
    cold = load_panels(cfg)
    first = load_panels(cfg, cache)
    assert len(list((tmp_path / "cache").glob("panel-*.npz"))) == 2
    reads = _count_reads(monkeypatch)
    warm = load_panels(cfg, cache)
    assert reads == []
    for a, b, c in zip(cold, first, warm):
        _assert_same_panel(a, b)
        _assert_same_panel(a, c)
    assert "\u4e2d\u56fd" in warm[0].country_ids and "11 \\u00e9" in warm[1].activity_ids


def test_cached_panel_is_keyed_on_file_bytes(planted_panel_files, tmp_path, monkeypatch):
    _, prod_csv = planted_panel_files
    cfg = _config(planted_panel_files, tmp_path)
    cache = ArtifactCache(tmp_path / "cache")
    cold = load_panels(cfg, cache)
    reads = _count_reads(monkeypatch)

    # the same bytes under another path are a hit
    copy = tmp_path / "copy" / "prod.csv"
    copy.parent.mkdir()
    copy.write_bytes(prod_csv.read_bytes())
    moved = load_panels(cfg.replace(product_panel=str(copy)), cache)
    assert reads == []
    _assert_same_panel(moved[1], cold[1])

    # edited bytes are a miss, parsed again, and replace the layer's entry
    prod_csv.write_bytes(prod_csv.read_bytes().replace(b"2013,1.0", b"2013,2.0"))
    edited = load_panels(cfg, cache)[1]
    assert [args[0] for args in reads] == [cfg.product_panel]
    assert edited.values[2013].max() == 2.0
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        "panel-product.npz", "panel-technology.npz"]
    _assert_same_panel(load_panels(cfg, cache)[1], edited)
    assert len(reads) == 1


def test_each_edit_of_a_panel_replaces_its_one_entry(planted_panel_files, tmp_path, monkeypatch):
    _, prod_csv = planted_panel_files
    cfg = _config(planted_panel_files, tmp_path)
    cache = ArtifactCache(tmp_path / "cache")
    load_panels(cfg, cache)
    sizes = {p.name: p.stat().st_size for p in (tmp_path / "cache").iterdir()}
    reads = _count_reads(monkeypatch)
    for value in (b"2.0", b"3.0"):
        prod_csv.write_bytes(prod_csv.read_bytes().replace(b"2013,1.0", b"2013," + value, 1))
        warm = load_panels(cfg, cache)[1]
        _assert_same_panel(warm, read_panel_csv(prod_csv, "product"))
    assert [args[0] for args in reads] == [cfg.product_panel] * 2
    assert {p.name: p.stat().st_size for p in (tmp_path / "cache").iterdir()} == sizes
    assert sorted(sizes) == ["panel-product.npz", "panel-technology.npz"]


def _negative_first(values):
    values = values.copy()
    values.flat[0] = -1.0
    return values


@pytest.mark.parametrize(
    "damage, problem",
    [
        pytest.param(lambda entry: entry[: len(entry) // 2], "unreadable", id="truncated"),
        pytest.param(lambda entry: _damaged(entry, **{"values-2011": lambda v: v[:, :-1]}),
                     "malformed", id="wrong-shape"),
        pytest.param(lambda entry: _damaged(entry, **{"values-2011": _negative_first}),
                     "malformed", id="negative"),
        pytest.param(lambda entry: _damaged(entry, **{"values-2011": lambda v: None}),
                     "malformed", id="missing-year"),
        pytest.param(lambda entry: _damaged(
            entry, labels=lambda labels: np.frombuffer(b'["\xff"]', np.uint8)),
            "malformed", id="undecodable-labels"),
    ],
)
def test_damaged_panel_entry_is_a_miss(
    planted_panel_files, tmp_path, caplog, monkeypatch, damage, problem
):
    cfg = _config(planted_panel_files, tmp_path)
    cache = ArtifactCache(tmp_path / "cache")
    cold = load_panels(cfg, cache)
    entry = tmp_path / "cache" / "panel-product.npz"
    stored = entry.read_bytes()
    entry.write_bytes(damage(stored))
    reads = _count_reads(monkeypatch)
    with caplog.at_level("WARNING", logger="tpnet"):
        warm = load_panels(cfg, cache)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and warnings[0].startswith(f"{entry} is {problem}")
    assert [args[0] for args in reads] == [cfg.product_panel]
    _assert_same_panel(warm[1], cold[1])
    assert entry.read_bytes() == stored


def test_old_layout_panel_entry_is_replaced_silently(
    planted_panel_files, tmp_path, caplog, monkeypatch
):
    # the earlier layout stored every year in one ``values`` stack, under a
    # key without the layout: a silent miss, parsed once and replaced by one
    # member per year
    _, prod_csv = planted_panel_files
    cfg = _config(planted_panel_files, tmp_path)
    cache = ArtifactCache(tmp_path / "cache")
    panel = load_panels(cfg, cache)[1]
    labels = json.dumps([panel.country_ids, panel.activity_ids]).encode("utf-8")
    digest = hashlib.sha256(prod_csv.read_bytes()).hexdigest()
    entry = tmp_path / "cache" / "panel-product.npz"
    np.savez(entry, key=np.array(ArtifactCache.key("panel", PANEL_FORMAT, "product", digest)),
             labels=np.frombuffer(labels, np.uint8), years=np.array(panel.years, np.int64),
             values=np.stack([panel.values[year] for year in panel.years]))
    reads = _count_reads(monkeypatch)
    with caplog.at_level("WARNING", logger="tpnet"):
        warm = load_panels(cfg, cache)
    assert not caplog.records
    assert [args[0] for args in reads] == [cfg.product_panel]
    _assert_same_panel(warm[1], panel)
    with np.load(entry) as data:
        assert sorted(data.files) == [
            "key", "labels", *(f"values-{year}" for year in range(2010, 2014)), "years"]
    _assert_same_panel(load_panels(cfg, cache)[1], panel)
    assert len(reads) == 1


def _member_reads(monkeypatch) -> defaultdict:
    """Record, per cache entry name, the npz members read from now on."""
    reads = defaultdict(list)
    getitem = np.lib.npyio.NpzFile.__getitem__

    def recording_getitem(self, member):
        reads[Path(self.zip.filename).stem].append(member)
        return getitem(self, member)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording_getitem)
    return reads


def _entry_arrays(entry: Path) -> dict:
    with np.load(entry, allow_pickle=False) as data:
        return {member: data[member] for member in data.files}


def _assert_same_arrays(a: dict, b: dict) -> None:
    assert sorted(a) == sorted(b)
    for member in a:
        assert a[member].dtype == b[member].dtype and np.array_equal(a[member], b[member])


def _flip_last_data_byte(entry: Path, member: str) -> None:
    """Flip the last stored byte of ``member``'s array in the npz ``entry``,
    so that reading the member fails the archive's CRC check."""
    with zipfile.ZipFile(entry) as archive:
        info = archive.getinfo(f"{member}.npy")
    content = bytearray(entry.read_bytes())
    name_length, extra_length = struct.unpack_from("<HH", content, info.header_offset + 26)
    content[info.header_offset + 30 + name_length + extra_length + info.compress_size - 1] ^= 0xFF
    entry.write_bytes(bytes(content))


def test_a_stale_key_lookup_reads_only_the_key(
    planted_panel_files, tmp_path, caplog, monkeypatch
):
    # a re-seeded run's counts entry and an edited panel's entry were made
    # under other keys: each lookup reads that entry's key and nothing else
    _, prod_csv = planted_panel_files
    cfg = _config(
        planted_panel_files, tmp_path, samples=30, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    run_pipeline(cfg, write=False)
    cache_dir = tmp_path / "out" / "cache"
    members = {entry.stem: sorted(_entry_arrays(entry)) for entry in cache_dir.iterdir()}
    assert sorted(members) == ["counts-0-0-0", "panel-product", "panel-technology"]
    reads = _member_reads(monkeypatch)
    prod_csv.write_bytes(prod_csv.read_bytes().replace(b"2013,1.0", b"2013,2.0"))
    with caplog.at_level("WARNING", logger="tpnet"):
        run_pipeline(cfg.replace(seed=8), write=False)
    assert not caplog.records
    assert reads["counts-0-0-0"] == reads["panel-product"] == ["key"]
    # a hit reads the key first, then every other member
    assert reads["panel-technology"][0] == "key"
    assert sorted(reads["panel-technology"]) == members["panel-technology"]
    reads.clear()
    run_pipeline(cfg.replace(seed=8), write=False)
    assert {name: names[0] for name, names in reads.items()} == dict.fromkeys(members, "key")
    assert {name: sorted(names) for name, names in reads.items()} == members


_CORRUPTIBLE = [
    pytest.param("counts-0-0-0", "counts", id="counts"),
    pytest.param("panel-product", "values-2011", id="panel"),
]


@pytest.mark.parametrize("name, member", _CORRUPTIBLE)
def test_entry_with_a_flipped_data_byte_is_unreadable(
    planted_panel_files, tmp_path, caplog, monkeypatch, name, member
):
    cfg = _config(
        planted_panel_files, tmp_path, samples=30, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    cold = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    entry = tmp_path / "out" / "cache" / f"{name}.npz"
    stored = _entry_arrays(entry)
    _flip_last_data_byte(entry, member)
    parses = _count_reads(monkeypatch)
    with caplog.at_level("WARNING", logger="tpnet"):
        warm = run_pipeline(cfg, write=False).lag_results[0].validations[0].exceed_counts
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and warnings[0].startswith(f"{entry} is unreadable")
    # the counts are drawn again, or the panel parsed again, and stored as before
    assert len(parses) == (name == "panel-product")
    assert np.array_equal(warm, cold)
    _assert_same_arrays(_entry_arrays(entry), stored)


@pytest.mark.parametrize("name, member", _CORRUPTIBLE)
def test_stale_entry_with_a_corrupt_member_is_a_silent_miss(
    planted_panel_files, tmp_path, caplog, name, member
):
    # the corrupt member is never read: the entry's key says it is stale,
    # and the store replaces the whole entry
    _, prod_csv = planted_panel_files
    cfg = _config(
        planted_panel_files, tmp_path, samples=30, lags=(LagSpec(0, ((2013, 2013),)),)
    )
    run_pipeline(cfg, write=False)
    entry = tmp_path / "out" / "cache" / f"{name}.npz"
    _flip_last_data_byte(entry, member)
    prod_csv.write_bytes(prod_csv.read_bytes().replace(b"2013,1.0", b"2013,2.0"))
    with caplog.at_level("WARNING", logger="tpnet"):
        run_pipeline(cfg.replace(seed=8), write=False)
    assert not caplog.records
    run_pipeline(cfg.replace(seed=8, output_dir=str(tmp_path / "alone")), write=False)
    _assert_same_arrays(_entry_arrays(entry),
                        _entry_arrays(tmp_path / "alone" / "cache" / f"{name}.npz"))


def test_failed_ingest_leaves_no_output_directory(planted_panel_files, tmp_path):
    tech_csv, _ = planted_panel_files
    bad = tmp_path / "bad_prod.csv"
    bad.write_text("country,activity,year,value\nC0,10 P0,2010,3\nC1,10 P0,2010,-3\n",
                   encoding="utf-8")
    missing = tmp_path / "missing.csv"
    for name, tech, prod in (("missing", missing, bad), ("bad", tech_csv, bad)):
        cfg = _config((tech, prod), tmp_path, output_dir=str(tmp_path / name))
        config_path = _write_config(cfg, tmp_path)
        result = CliRunner().invoke(main, ["ingest", "--config", str(config_path)])
        assert result.exit_code == 1 and result.output.startswith("Error: [ingest] ")
    # a missing technology panel fails before anything is written; a bad
    # product panel after the technology panel's entry
    assert not (tmp_path / "missing").exists()
    assert [p.name for p in (tmp_path / "bad").iterdir()] == ["cache"]
    [entry] = (tmp_path / "bad" / "cache").iterdir()
    assert entry.name == "panel-technology.npz"
    with np.load(entry) as data:
        assert json.loads(data["labels"].tobytes())[1] == list(PLANTED_TECHS)


def test_failed_parse_is_not_cached(planted_panel_files, tmp_path):
    bad = tmp_path / "bad_prod.csv"
    bad.write_text("country,activity,year,value\nC0,10 P0,2010,3\nC1,10 P0,2010,-3\n",
                   encoding="utf-8")
    cfg = _config(planted_panel_files, tmp_path, product_panel=str(bad))
    config_path = _write_config(cfg, tmp_path)
    outputs = [CliRunner().invoke(main, ["ingest", "--config", str(config_path)]).output
               for _ in range(2)]
    assert outputs[0] == outputs[1] == f"Error: [ingest] {bad}:3: negative value '-3'\n"
    # only the technology panel, which parsed, has an entry
    assert len(list((tmp_path / "out" / "cache").glob("panel-*.npz"))) == 1


def test_cached_panel_serves_every_digits(planted_panel_files, tmp_path, monkeypatch):
    cfg = _config(planted_panel_files, tmp_path)
    cache = ArtifactCache(tmp_path / "cache")
    load_panels(cfg, cache)
    reads = _count_reads(monkeypatch)
    warm = load_panels(cfg.replace(digits=2), cache)
    assert reads == []
    cold = load_panels(cfg.replace(digits=2))
    assert warm[1].activity_ids == ("10", "11", "12", "13", "14")
    for a, b in zip(warm, cold):
        _assert_same_panel(a, b)


def test_cli_robustness_after_report_parses_no_panel(planted_panel_files, tmp_path, monkeypatch):
    cfg = _config(planted_panel_files, tmp_path, samples=100)
    config_path = str(_write_config(cfg, tmp_path))
    assert CliRunner().invoke(main, ["report", "--config", config_path]).exit_code == 0
    reads = _count_reads(monkeypatch)
    result = CliRunner().invoke(main, ["robustness", "--config", config_path, "--deltas", "1"])
    assert result.exit_code == 0, result.output
    assert reads == []


@pytest.mark.parametrize("command, outputs", [
    pytest.param(["report"], ["manifest.json"], id="report"),
    pytest.param(["robustness", "--deltas", "1,2"],
                 ["manifest.json", "robustness/report.json"], id="robustness"),
])
def test_warm_manifest_equals_cold(planted_panel_files, tmp_path, monkeypatch, command, outputs):
    cfg = _config(planted_panel_files, tmp_path, samples=100)
    args = [*command, "--config", str(_write_config(cfg, tmp_path))]
    out = tmp_path / "out"
    assert CliRunner().invoke(main, args).exit_code == 0
    cold = [(out / name).read_bytes() for name in outputs]
    (out / "manifest.json").unlink()

    # panels and counts now come from the cache: the warm run draws nothing
    def no_draws(*args):
        raise AssertionError("the warm run drew null samples")

    monkeypatch.setattr(pipeline, "null_exceedance_counts", no_draws)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert [(out / name).read_bytes() for name in outputs] == cold
