"""Null-model fitting, ensemble sampling, and the pair-validation loop."""

import numpy as np
import pytest

from tpnet import (
    AxisMismatchError,
    FitError,
    compute_assist,
    fit_bicm,
    nullmodel,
    sample_ensemble,
)
from tpnet.assist import _assist_values, _openblas_thread_controls
from tpnet.nullmodel import _draw, _rng, null_exceedance_counts
from tpnet.rca import BinaryMatrix

from .conftest import blas_threads, random_binary
from .oracles import (
    enumerate_exceedance,
    reference_assist,
    reference_class_counts,
    reference_exceedance_counts,
)


def _binary(values, layer="product"):
    values = np.asarray(values, dtype=int)
    return BinaryMatrix(
        layer,
        tuple(f"c{i}" for i in range(values.shape[0])),
        tuple(f"a{j}" for j in range(values.shape[1])),
        values,
    )


def test_identity_fit_is_half_everywhere():
    model = fit_bicm(_binary(np.eye(2)), tolerance=1e-12)
    assert np.allclose(model.link_probabilities, 0.5, atol=1e-10)
    rows, cols = model.expected_degrees()
    assert np.allclose(rows, 1.0, atol=1e-10)
    assert np.allclose(cols, 1.0, atol=1e-10)


def test_all_ones_saturates_to_certainty():
    model = fit_bicm(_binary(np.ones((3, 3))))
    assert (model.link_probabilities == 1.0).all()
    assert model.fit_residual == 0.0


def test_all_zero_matrix_fits_to_zero():
    model = fit_bicm(_binary(np.zeros((2, 3))))
    assert (model.link_probabilities == 0.0).all()


def test_random_matrix_degrees_match():
    rng = np.random.default_rng(42)
    values = random_binary(rng, (6, 8), 0.4)
    m = _binary(values)
    model = fit_bicm(m)
    rows, cols = model.expected_degrees()
    assert np.abs(rows - m.diversification).max() <= 1e-8
    assert np.abs(cols - m.ubiquity).max() <= 1e-8
    assert model.fit_residual <= 1e-8


def test_degenerate_rows_and_columns_are_pinned():
    values = np.array([[1, 1, 1], [1, 0, 1], [0, 0, 0]])
    m = _binary(values)
    model = fit_bicm(m)
    p = model.link_probabilities
    assert (p[0] == 1.0).all()        # full row
    assert (p[2] == 0.0).all()        # zero row
    rows, cols = model.expected_degrees()
    assert np.abs(rows - m.diversification).max() <= 1e-8
    assert np.abs(cols - m.ubiquity).max() <= 1e-8


def test_multiplier_probability_consistency_on_solved_block():
    rng = np.random.default_rng(3)
    values = random_binary(rng, (5, 7), 0.5)
    m = _binary(values)
    model = fit_bicm(m)
    x, y = model.row_multipliers, model.col_multipliers
    finite = np.isfinite(x)[:, None] & np.isfinite(y)[None, :]
    expected = np.outer(x, y) / (1.0 + np.outer(x, y))
    assert np.allclose(
        model.link_probabilities[finite], expected[finite], atol=1e-12
    )


def test_nonconvergence_carries_residual():
    with pytest.raises(FitError) as err:
        fit_bicm(_binary(np.eye(3)), max_iterations=1, tolerance=1e-15)
    assert err.value.residual > 0


def test_sampling_degenerate_probabilities():
    zero = fit_bicm(_binary(np.zeros((2, 2))))
    for sample in sample_ensemble(zero, 5, seed=1):
        assert not sample.any()
    ones = fit_bicm(_binary(np.ones((2, 2))))
    for sample in sample_ensemble(ones, 5, seed=1):
        assert sample.all()


def test_draw_into_buffer_matches_ensemble_and_fresh_draw():
    model = fit_bicm(_binary(random_binary(np.random.default_rng(5), (4, 6), 0.5)))
    buf = np.full(model.shape, 7.0)
    for i, sample in enumerate(sample_ensemble(model, 20, seed=3)):
        drawn = _draw(model.link_probabilities, _rng(3, (i,)), out=buf)
        fresh = np.random.default_rng(
            np.random.SeedSequence(entropy=3, spawn_key=(i,))
        ).random(model.shape) < model.link_probabilities
        assert drawn is buf and sample.dtype == np.int8
        assert np.array_equal(drawn, fresh) and np.array_equal(sample, fresh)


def test_replay_is_bitwise_identical():
    model = fit_bicm(_binary(np.eye(3)))
    first = [s.copy() for s in sample_ensemble(model, 50, seed=9)]
    second = list(sample_ensemble(model, 50, seed=9))
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    different = list(sample_ensemble(model, 50, seed=10))
    assert any(not np.array_equal(a, b) for a, b in zip(first, different))


def test_stream_keys_give_independent_substreams():
    model = fit_bicm(_binary(np.eye(3)))
    a = list(sample_ensemble(model, 10, seed=9, stream_key=(0,)))
    b = list(sample_ensemble(model, 10, seed=9, stream_key=(1,)))
    assert any(not np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_mean_tracks_probabilities():
    model = fit_bicm(_binary(np.eye(2)), tolerance=1e-12)
    mean = sample_ensemble(model, 4000, seed=123).sample_mean()
    assert np.abs(mean - 0.5).max() < 0.03  # ~4 sigma at n=4000


def test_paired_stream_zscores_cover_both_layers():
    rng = np.random.default_rng(81)
    tech = fit_bicm(_binary(random_binary(rng, (4, 3), 0.5), layer="technology"))
    prod = fit_bicm(_binary(random_binary(rng, (4, 5), 0.5)))
    _, drift = null_exceedance_counts(tech, prod, np.zeros((3, 5)), 1500, seed=5)
    assert len(drift) == 2
    # each layer's worst |z| of its drawn degrees: some drift, never 4 sigma
    assert all(0.0 < worst < 4.0 for worst in drift)


def _degenerate_layers(rng, countries, techs, products):
    """Random layers with a zero-diversification country, a country holding
    every product (pinned to p=1) and a zero-ubiquity technology."""
    tech = random_binary(rng, (countries, techs), 0.5)
    prod = random_binary(rng, (countries, products), 0.4)
    prod[0] = 0
    prod[1] = 1
    tech[:, 1] = 0
    return _binary(tech, layer="technology"), _binary(prod)


@pytest.mark.parametrize(
    "fixture_seed, max_dim, n, stream_key",
    [
        (0, 12, 1, ()),
        (1, 12, 7, (3,)),
        (2, 12, 40, (0, 1, 2)),
        (3, 12, 150, (1, 4, 2017)),
        (4, 40, 60, (0, 2, 1)),
    ],
)
def test_fused_counts_match_reference_path(fixture_seed, max_dim, n, stream_key):
    # the loop against the oracle that draws every block itself, exactly
    rng = np.random.default_rng(fixture_seed)
    countries, techs, products = (int(k) for k in rng.integers(4, max_dim, size=3))
    tech_m, prod_m = _degenerate_layers(rng, countries, techs, products)
    tech, prod = fit_bicm(tech_m), fit_bicm(prod_m)
    assert (prod.link_probabilities[0] == 0).all()
    assert (prod.link_probabilities[1] == 1).all()
    assert (tech.link_probabilities[:, 1] == 0).all()
    empirical = compute_assist(tech_m, prod_m)
    seed = 11 + fixture_seed

    counts, drift = null_exceedance_counts(
        tech, prod, empirical.values, n, seed, stream_key
    )
    reference, reference_drift = reference_class_counts(
        tech, prod, empirical.values, n, seed, stream_key
    )
    assert counts.dtype == np.int32
    assert np.array_equal(counts, reference)
    _assert_same_drift(drift, reference_drift)


def _assert_same_drift(got, want):
    # per class on one side, per activity and country on the other
    assert len(got) == len(want) == 2
    assert all(isinstance(worst, float) for worst in got)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _exceedance_fixture(fixture_seed):
    rng = np.random.default_rng(fixture_seed)
    tech_m, prod_m = _degenerate_layers(rng, 9, 6, 8)
    tech, prod = fit_bicm(tech_m), fit_bicm(prod_m)
    return tech, prod, compute_assist(tech_m, prod_m).values


def _chunk_bytes(tech, prod, draws):
    """``_CHUNK_BYTES`` that stores ``draws`` draws of these models per chunk."""
    k_t, k_p = (len(nullmodel._classes(model)[0]) for model in (tech, prod))
    return draws * 8 * k_t * k_p


@pytest.mark.parametrize("draws", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 150, 600])
def test_counts_do_not_depend_on_chunk_size(monkeypatch, draws, n):
    # chunks of 1-3 draws: every count is summed over many sort-and-count
    # passes, the last one short when draws does not divide n
    tech, prod, empirical = _exceedance_fixture(n)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", _chunk_bytes(tech, prod, draws))
    counts, drift = null_exceedance_counts(tech, prod, empirical, n, 3, (0, 1))
    reference, reference_drift = reference_class_counts(tech, prod, empirical, n, 3, (0, 1))
    assert counts.dtype == np.int32
    assert np.array_equal(counts, reference)
    if n == 600:  # int32 counts, well past what a byte holds
        assert counts.max() > 255
    _assert_same_drift(drift, reference_drift)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 150, 600])
def test_counts_do_not_depend_on_worker_count(workers, n):
    # the caller's OpenBLAS runs `workers` threads; the loop contracts on one
    # and hands the caller's count back
    tech, prod, empirical = _exceedance_fixture(n)
    reference, reference_drift = reference_class_counts(tech, prod, empirical, n, 3, (0, 1))
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(workers)
    try:
        counts, drift = null_exceedance_counts(tech, prod, empirical, n, 3, (0, 1))
        after = [get() for get, _ in controls]
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
    assert after == [workers] * len(controls)
    assert counts.dtype == np.int32
    assert np.array_equal(counts, reference)
    if n == 600:  # int32 counts, well past what a byte holds
        assert counts.max() > 255
    _assert_same_drift(drift, reference_drift)


def test_class_counts_follow_the_full_layer_law():
    # Each cell's count is Binomial(n, q) under both loops, q the chance that
    # its empirical weight beats one null contraction of two full layers. At
    # independent seeds the difference of the two counts has variance
    # 2 n q (1 - q); every cell must lie within 4.5 of its standard
    # deviations, estimated from the pooled counts (per-cell false alarm
    # 7e-6, about 0.2% over the 240 cells).
    rng = np.random.default_rng(23)
    tech_m = _binary(random_binary(rng, (12, 8), 0.5), layer="technology")
    prod_m = _binary(random_binary(rng, (12, 30), 0.4))
    tech, prod = fit_bicm(tech_m), fit_bicm(prod_m)
    empirical = compute_assist(tech_m, prod_m).values
    n = 2000
    counts, _ = null_exceedance_counts(tech, prod, empirical, n, seed=1)
    reference, _ = reference_exceedance_counts(tech, prod, empirical, n, seed=2)
    q = (counts + reference) / (2 * n)
    assert ((q > 0.05) & (q < 0.95)).sum() >= 60  # cells the bound can test
    sd = np.sqrt(2 * n * q * (1 - q))
    assert (np.abs(counts - reference) <= 4.5 * sd).all()


@pytest.mark.parametrize("failing_sample", [0, 4])
def test_failing_draw_propagates_with_blas_restored(monkeypatch, failing_sample):
    # one draw per chunk: sample 0 fails first, sample 4 after four
    # sort-and-count passes
    real_rng, real_draw = nullmodel._rng, nullmodel._draw
    sample_of = {}

    def keyed_rng(seed, key):
        rng = real_rng(seed, key)
        sample_of[id(rng)] = key[-1]
        return rng

    def failing_draw(probabilities, rng, out=None):
        if sample_of[id(rng)] == failing_sample:
            raise RuntimeError(f"draw {failing_sample} failed")
        return real_draw(probabilities, rng, out=out)

    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(nullmodel, "_rng", keyed_rng)
    monkeypatch.setattr(nullmodel, "_draw", failing_draw)
    before = blas_threads()
    tech, prod, empirical = _exceedance_fixture(5)
    with pytest.raises(RuntimeError, match=f"draw {failing_sample} failed"):
        null_exceedance_counts(tech, prod, empirical, 7, seed=2)
    assert blas_threads() == before


def test_null_assist_requires_shared_countries():
    tech = fit_bicm(_binary(np.eye(2), layer="technology"))
    prod_values = np.ones((3, 2), dtype=int)
    prod = fit_bicm(_binary(prod_values))
    with pytest.raises(AxisMismatchError):
        null_exceedance_counts(tech, prod, np.zeros((2, 2)), 1, seed=0)
    with pytest.raises(AxisMismatchError):
        null_exceedance_counts(tech, tech, np.zeros((2, 3)), 1, seed=0)
    with pytest.raises(ValueError):
        null_exceedance_counts(tech, tech, np.zeros((2, 2)), 0, seed=0)


def test_degenerate_models_reproduce_empirical_contraction():
    tech_m = _binary(np.ones((2, 2)), layer="technology")
    prod_m = _binary(np.ones((2, 3)))
    tech, prod = fit_bicm(tech_m), fit_bicm(prod_m)
    empirical = compute_assist(tech_m, prod_m).values
    # every null weight v satisfies e <= v < next float above e, so v == e
    tied, _ = null_exceedance_counts(tech, prod, empirical, 20, seed=5)
    above, _ = null_exceedance_counts(
        tech, prod, np.nextafter(empirical, np.inf), 20, seed=5
    )
    assert (tied == 0).all()
    assert (above == 20).all()


def test_null_stream_matches_reference_contraction():
    rng = np.random.default_rng(15)
    tech_m = _binary(random_binary(rng, (4, 3), 0.5), layer="technology")
    prod_m = _binary(random_binary(rng, (4, 4), 0.5))
    tech, prod = fit_bicm(tech_m), fit_bicm(prod_m)
    tech_buf, prod_buf, values = np.empty((4, 3)), np.empty((4, 4)), np.empty((3, 4))
    # the loop's draws, buffers and kernel call, one sample at a time
    for i in range(5):
        rng = _rng(21, (i,))
        tech_draw = _draw(tech.link_probabilities, rng, out=tech_buf)
        prod_draw = _draw(prod.link_probabilities, rng, out=prod_buf)
        expected = reference_assist(tech_draw, prod_draw)
        _assist_values(tech_draw, prod_draw, out=values)
        assert np.allclose(values, expected)


def test_null_distribution_matches_exhaustive_enumeration():
    # tiny layers: Monte Carlo exceedance against exact enumeration over all
    # paired configurations weighted by their Bernoulli probabilities
    tech_m = _binary(np.array([[1, 0], [1, 1]]), layer="technology")
    prod_m = _binary(np.array([[1, 1, 0], [0, 1, 1]]))
    tech, prod = fit_bicm(tech_m), fit_bicm(prod_m)
    empirical = compute_assist(tech_m, prod_m)
    exact = enumerate_exceedance(
        tech.link_probabilities, prod.link_probabilities, empirical.values
    )
    n = 4000
    counts, _ = null_exceedance_counts(tech, prod, empirical.values, n, seed=33)
    mc = counts / n
    assert np.abs(mc - exact).max() < 3 * np.sqrt(0.25 / n) + 1e-9

