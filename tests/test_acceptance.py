"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import functools
import time

import numpy as np
import pytest

from tpnet import (
    compute_assist,
    compute_rca,
    fit_bicm,
    intersect_pairs,
    run_efc,
    run_pipeline,
    run_robustness,
    tier_threshold,
)
from tpnet import nullmodel
from tpnet.config import LagSpec, RunConfig
from tpnet.nullmodel import null_exceedance_counts
from tpnet.panels import WindowedMatrix
from tpnet.rca import BinaryMatrix
from tpnet.validate import PairValidation

from .conftest import (
    PLANTED_LINK,
    null_draws,
    random_binary,
    random_binary_no_empty,
)
from .oracles import enumerate_exceedance, reference_rca

TIER_LEVELS_CHECKED = (("95", 0.95), ("99", 0.99), ("99.9", 0.999))


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {title}")
                raise
            print(f"[criterion {number:2d}] PASS  {title}")

        return wrapper

    return decorate


def _window(values, layer="product"):
    values = np.asarray(values, dtype=float)
    return WindowedMatrix(
        layer,
        tuple(f"c{i}" for i in range(values.shape[0])),
        tuple(f"a{j}" for j in range(values.shape[1])),
        1, 2000, values,
    )


def _binary(values, activities=None):
    values = np.asarray(values, dtype=int)
    return BinaryMatrix(
        tuple(f"c{i}" for i in range(values.shape[0])),
        activities or tuple(f"a{j}" for j in range(values.shape[1])),
        values,
    )


@criterion(1, "RCA: scale invariance and direct-formula agreement at 1e-12, < 1 s")
def test_rca_correctness():
    rng = np.random.default_rng(1001)
    cases = []
    while len(cases) < 200:
        shape = (int(rng.integers(2, 21)), int(rng.integers(2, 31)))
        weights = rng.random(shape) * (rng.random(shape) < 0.7)
        if weights.sum() > 0:
            cases.append(weights)
    scales = rng.uniform(1e-3, 1e3, size=len(cases))
    elapsed = 0.0
    for weights, k in zip(cases, scales):
        start = time.perf_counter()
        base = compute_rca(_window(weights))
        scaled = compute_rca(_window(k * weights))
        elapsed += time.perf_counter() - start
        assert np.abs(base.values - scaled.values).max() <= 1e-12
        assert np.abs(base.values - reference_rca(weights)).max() <= 1e-12
    assert elapsed < 1.0, f"RCA computation took {elapsed:.2f}s"


@criterion(2, "Assist: active rows sum to 1 +/- 1e-12 on 200 random layer pairs")
def test_assist_row_stochasticity():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        n_c = int(rng.integers(2, 9))
        tech = random_binary(rng, (n_c, int(rng.integers(1, 6))), 0.5)
        prod = random_binary(rng, (n_c, int(rng.integers(1, 7))), 0.5)
        for i in range(n_c):
            if tech[i].any() and not prod[i].any():
                prod[i, rng.integers(prod.shape[1])] = 1
        tech_layer = _binary(tech)
        assist = compute_assist(tech_layer, _binary(prod))
        sums = assist.values[tech_layer.ubiquity > 0].sum(axis=1)
        if sums.size:
            assert np.abs(sums - 1.0).max() <= 1e-12


@criterion(3, "Null model: expected degrees match within 1e-8; identity fixture p = 0.5 +/- 1e-10")
def test_bicm_degree_matching(monkeypatch):
    rng = np.random.default_rng(1003)
    for _ in range(100):
        shape = (int(rng.integers(2, 16)), int(rng.integers(2, 21)))
        values = random_binary(rng, shape, float(rng.uniform(0.15, 0.85)))
        m = _binary(values)
        model = fit_bicm(m)
        rows, cols = model.link_probabilities.sum(axis=1), model.link_probabilities.sum(axis=0)
        assert np.abs(rows - m.diversification).max() <= 1e-8
        assert np.abs(cols - m.ubiquity).max() <= 1e-8
    monkeypatch.setattr(nullmodel, "_TOLERANCE", 1e-12)
    ident = fit_bicm(_binary(np.eye(2)))
    assert np.abs(ident.link_probabilities - 0.5).max() <= 1e-10


@criterion(4, "Sampling: N=10000 means within [0.485, 0.515]; seed-to-seed exceedance drift < 0.015")
def test_sampling_fidelity(monkeypatch):
    ident_t = _binary(np.eye(2))
    ident_p = _binary(np.eye(2))
    with monkeypatch.context() as tight:
        tight.setattr(nullmodel, "_TOLERANCE", 1e-12)
        model = fit_bicm(ident_t)
    mean = sum(null_draws(model, 10_000, seed=1)) / 10_000
    assert mean.min() >= 0.485 and mean.max() <= 0.515
    empirical = compute_assist(ident_t, ident_p)
    tech_model, prod_model = fit_bicm(ident_t), fit_bicm(ident_p)
    fractions = []
    for seed in (11, 12):
        counts, _ = null_exceedance_counts(
            tech_model, prod_model, empirical.values, 10_000, seed=seed
        )
        fractions.append(counts / 10_000)
    assert np.abs(fractions[0] - fractions[1]).max() < 0.015


@criterion(5, "Monte Carlo tier decisions match exhaustive enumeration away from boundaries, < 2 min")
def test_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    checked_links = 0
    for fixture in range(20):
        density = float(rng.uniform(0.3, 0.8))
        tech_values = random_binary(rng, (2, 2), density)
        prod_values = random_binary(rng, (2, 3), density)
        tech = _binary(tech_values)
        prod = _binary(prod_values)
        empirical = compute_assist(tech, prod)
        tech_model, prod_model = fit_bicm(tech), fit_bicm(prod)
        exact = enumerate_exceedance(
            tech_model.link_probabilities,
            prod_model.link_probabilities,
            empirical.values,
        )
        n = 10_000
        counts, _ = null_exceedance_counts(
            tech_model, prod_model, empirical.values, n, seed=600 + fixture
        )
        for tier, level in TIER_LEVELS_CHECKED:
            decisions = counts >= tier_threshold(tier, n)
            clear = np.abs(exact - level) > 0.015
            assert np.array_equal(decisions[clear], exact[clear] >= level)
            checked_links += int(clear.sum())
    elapsed = time.perf_counter() - start
    assert checked_links > 0
    assert elapsed < 120.0, f"oracle comparison took {elapsed:.1f}s"


@criterion(6, "Monotonicity: tier sets nest and k-pair intersections shrink, 100 instances")
def test_tier_and_intersection_monotonicity():
    rng = np.random.default_rng(1006)
    for _ in range(100):
        n = int(rng.integers(100, 10_001))
        pairs = []
        for pair_index in range(4):
            counts = rng.integers(0, n + 1, size=(3, 4))
            pairs.append(
                PairValidation(
                    tech_ids=("t0", "t1", "t2"),
                    product_ids=("p0", "p1", "p2", "p3"),
                    exceed_counts=counts,
                    n_samples=n,
                    t1=2000 + pair_index,
                    t2=2000 + pair_index,
                )
            )
        ones = [np.ones((3, 4))] * len(pairs)
        e999 = intersect_pairs(pairs[:1], "99.9", ones[:1]).edge_set()
        e99 = intersect_pairs(pairs[:1], "99", ones[:1]).edge_set()
        e95 = intersect_pairs(pairs[:1], "95", ones[:1]).edge_set()
        assert e999 <= e99 <= e95
        previous = None
        for k in range(1, 5):
            edges = intersect_pairs(pairs[:k], "95", ones[:k]).edge_set()
            if previous is not None:
                assert edges <= previous
            previous = edges


@criterion(7, "Fitness-complexity: flat fixture, unit means at 1e-12, nested ranking, stable stop")
def test_efc_properties():
    flat = run_efc(_binary(np.ones((4, 6))))
    assert np.array_equal(flat.fitness, np.ones(4))
    assert np.array_equal(flat.complexity, np.ones(6))

    rng = np.random.default_rng(1007)
    for _ in range(100):
        shape = (int(rng.integers(2, 10)), int(rng.integers(2, 12)))
        values = random_binary_no_empty(rng, shape, float(rng.uniform(0.3, 0.8)))
        result = run_efc(_binary(values))
        assert result.iterations_run <= 5000
        for mean_f, mean_q in result.mean_history:
            assert abs(mean_f - 1.0) <= 1e-12
            assert abs(mean_q - 1.0) <= 1e-12

    nested = run_efc(_binary(np.tril(np.ones((5, 5), dtype=int))))
    ubiquity = np.tril(np.ones((5, 5))).sum(axis=0)
    assert nested.activity_rank == {
        f"a{j}": int(ubiquity[j]) for j in range(5)
    }

    # rank-stability stopping fires within the iteration budget on the
    # deterministic fixtures (simultaneous-update runs can legitimately end
    # flagged unstable on adversarial matrices; that path is tested separately)
    from .conftest import planted_matrices

    tech, prod = planted_matrices()
    fixtures = (
        flat, nested,
        run_efc(_binary([[1, 1], [1, 0]])),
        run_efc(_binary(tech)),
        run_efc(_binary(prod)),
    )
    for result in fixtures:
        assert result.rank_stable and result.iterations_run <= 5000


def _planted_config(panel_files, tmp_path, **overrides):
    tech_csv, prod_csv = panel_files
    defaults = dict(
        technology_panel=str(tech_csv),
        product_panel=str(prod_csv),
        delta=2,
        samples=10_000,
        seed=101,
        tier="99.9",
        output_dir=str(tmp_path / "out"),
        lags=(LagSpec(0, ((2011, 2011), (2013, 2013))),),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


@criterion(8, "Planted link validated at 99.9% in both pairs; no repeated spurious link in 20 reruns")
def test_planted_link_recovery(planted_panel_files, tmp_path):
    cfg = _planted_config(planted_panel_files, tmp_path)
    result = run_pipeline(cfg, write=False)
    network = result.network(0)
    assert PLANTED_LINK in network.edge_set()
    i = network.tech_ids.index(PLANTED_LINK[0])
    j = network.product_ids.index(PLANTED_LINK[1])
    for validation in result.lag_results[0].validations:
        assert validation.tier_mask("99.9")[i, j], (
            validation.t1, validation.t2, validation.exceed_counts[i, j]
        )

    appearances: dict[tuple[str, str], int] = {}
    for seed in range(201, 221):
        rerun = run_pipeline(cfg.replace(seed=seed), write=False)
        for edge in rerun.network(0).edge_set() - {PLANTED_LINK}:
            appearances[edge] = appearances.get(edge, 0) + 1
    # 5% of 20 reruns = 1: no spurious link may show up more than once
    assert all(count <= 1 for count in appearances.values()), appearances


@criterion(9, "Determinism: identical config and seed give byte-identical artifacts")
def test_determinism(planted_panel_files, tmp_path):
    lags = (
        LagSpec(0, ((2011, 2011), (2013, 2013))),
        LagSpec(2, ((2011, 2013),)),
    )
    outputs = []
    for run in ("a", "b"):
        cfg = _planted_config(
            planted_panel_files, tmp_path,
            samples=500, tier="95", lags=lags,
            output_dir=str(tmp_path / f"run_{run}"),
        )
        run_pipeline(cfg)
        out = tmp_path / f"run_{run}"
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and "cache" not in p.parts
        }
        outputs.append(files)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    assert any(name.endswith("edges.csv") for name in outputs[0])
    assert any(name.endswith("network.graphml") for name in outputs[0])
    assert any(name.endswith("report.json") for name in outputs[0])


@criterion(10, "Robustness: >= 0.9 overlap for every window; 16 configurations on a 10-year panel")
def test_robustness_harness(planted_decade_panel_files, tmp_path):
    tech_csv, prod_csv = planted_decade_panel_files
    cfg = RunConfig(
        technology_panel=str(tech_csv),
        product_panel=str(prod_csv),
        delta=5,
        samples=10_000,
        seed=42,
        tier="95",
        output_dir=str(tmp_path / "out"),
    )
    benchmark = run_pipeline(cfg, write=False).network(0)
    assert benchmark.edge_count >= 1
    report = run_robustness(cfg, benchmark, deltas=(3, 4, 10))
    assert report.configurations == 16
    per_delta = {d: 0 for d in (3, 4, 10)}
    for row in report.rows:
        per_delta[row.delta] += 1
        assert row.overlap_at_tier >= 0.9, (row.delta, row.end_year, row.overlap_at_tier)
        assert row.overlap_at_lax >= row.overlap_at_tier - 1e-12
    assert per_delta == {3: 8, 4: 7, 10: 1}
