"""Smoke test of the benchmark harness at a tiny shape.

    python3 -m pytest perfbench/test_harness.py -q

Every flow runs end to end through the same code path as a real run, with
panels of 24 countries x 30 technologies x 60 products and N=20, in a
temporary work directory.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import synth  # noqa: E402
from tracer import LAYER_METRICS, TIME_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = synth.Shape(countries=24, technologies=30, products=60, product_digits=4)


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, shape=TINY, config={**w.config, "samples": 20})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(name, tmp_path):
    result, context = run.measure(tiny(name), 3, 0.0, False, ROOT, work=tmp_path)
    assert result["correct"], context["errors"]
    # One timed process, then set-up-only ones until set-up is sampled enough.
    assert result["attempted"] == context["setup_samples"] == run.SETUP_SAMPLES
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_partitions_the_traced_wall(name, tmp_path):
    result, context = run.measure(tiny(name), 3, 0.0, True, ROOT, work=tmp_path)
    assert result["correct"], context["errors"]
    assert context["trace_missing"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [n for n, _ in LAYER_METRICS]
    # One traced process, so every metric is that process's own value.
    assert sum(metrics[m] for m in TIME_METRICS) == pytest.approx(
        metrics["pipeline.traced_wall_s"], rel=1e-9
    )
    assert 0 < metrics["pipeline.trace_overhead_s"] < metrics["pipeline.traced_wall_s"]
    assert metrics["panels.rows"] == sum(context["input_rows"].values()) * (
        2 if name == "robustness_hs4" else 1
    )


def test_robustness_warm_call_hits_the_cache(tmp_path):
    result, _ = run.measure(tiny("robustness_hs4"), 3, 0.0, True, ROOT, work=tmp_path)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # The warm run_pipeline looks up 6 entries per pair and 2 binary windows
    # for the rankings, all filled by set-up; each of the 16 new windows looks
    # up 6 entries (at this tiny shape some windows binarize alike and hit).
    assert metrics["pipeline.cache_hits"] >= 2 * 6 + 2
    assert metrics["pipeline.cache_lookups"] == 2 * 6 + 2 + 16 * 6
    assert metrics["validate.intersect_calls"] == 1 + 2 * 16


def test_digest_mismatch_with_an_earlier_run_fails(tmp_path):
    workload = tiny("ingest_hs6")
    first, context = run.measure(workload, 5, 0.0, False, ROOT, work=tmp_path)
    assert first["correct"]
    log = tmp_path / "digests.json"
    data = json.loads(log.read_text())
    assert list(data.values()) == [context["artifact_sha256"]]
    log.write_text(json.dumps({k: "0" * 64 for k in data}))
    second, _ = run.measure(workload, 5, 0.0, False, ROOT, work=tmp_path)
    assert not second["correct"] and second["failed"] == 1


def test_tracer_keeps_static_methods_and_tolerates_missing_names(tmp_path):
    from tpnet import exports, pipeline

    cache_cls = pipeline.ArtifactCache
    key = cache_cls.key("binary", 1)
    fake = types.SimpleNamespace(
        **{k: v for k, v in vars(pipeline).items() if k != "compute_pvalues"}
    )
    tracer = Tracer({})
    tracer.install(fake, exports)
    try:
        assert isinstance(inspect.getattr_static(cache_cls, "key"), staticmethod)
        assert cache_cls(None).key("binary", 1) == key
    finally:
        tracer.uninstall()
    assert inspect.getattr_static(cache_cls, "key").__func__.__name__ == "key"
    assert tracer.missing == ["compute_pvalues"]
    metrics = tracer.layer_metrics(1.0, tmp_path)
    assert metrics["pipeline.cache_key_s"] > 0
    assert metrics["validate.compare_s"] == 0


def test_robustness_check_reads_every_cached_count_array(tmp_path, monkeypatch):
    import numpy as np
    import tpnet
    from tpnet import pipeline

    import checks
    from workloads import ROBUSTNESS_CONFIGURATIONS, ROBUSTNESS_DELTAS, run_config

    workload = tiny("robustness_hs4")
    synth.write_panels(workload.shape, 3, tmp_path, ROOT / "src/tpnet/data/hs_sections.csv")
    (tmp_path / "config.json").write_text(json.dumps(run_config(workload, 3, "out")))
    monkeypatch.chdir(tmp_path)
    cfg = tpnet.parse_config("config.json")
    result = pipeline.run_pipeline(cfg, write=False)
    report = pipeline.run_robustness(cfg, result.lag_results[0].network, ROBUSTNESS_DELTAS)
    out_dir = tmp_path / "out"

    def check():
        return checks.check_robustness(result, report, cfg, out_dir, ROBUSTNESS_CONFIGURATIONS)

    assert check() == []
    entries = sorted((out_dir / "cache").glob("counts-*.npz"))
    with np.load(entries[0]) as data:
        counts, n = data["counts"], data["n"]
    np.savez(entries[0], counts=counts + cfg.samples + 1, n=n)
    assert any("outside" in e for e in check())
    entries[0].unlink()
    assert any("cached count arrays" in e for e in check())
