"""Null-model fitting, ensemble sampling, and the pair-validation loop."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpnet import (
    AxisMismatchError,
    FitError,
    PanelError,
    compute_assist,
    fit_bicm,
    nullmodel,
)
from tpnet.assist import _assist_values, _openblas_thread_controls
from tpnet.nullmodel import (
    _UNIT_BITS,
    BiCMModel,
    _diversification_table,
    _solve_reduced,
    _stream,
    null_exceedance_counts,
)
from tpnet.rca import BinaryMatrix
from tpnet.validate import TIER_LEVELS, tier_threshold

from .conftest import blas_threads, null_draws, random_binary, watch_blocks
from .oracles import (
    enumerate_exceedance,
    exact_diversification_law,
    reference_assist,
    reference_class_counts,
    reference_exceedance_counts,
)


def _binary(values):
    values = np.asarray(values, dtype=int)
    return BinaryMatrix(
        tuple(f"c{i}" for i in range(values.shape[0])),
        tuple(f"a{j}" for j in range(values.shape[1])),
        values,
    )


def test_identity_fit_is_half_everywhere(monkeypatch):
    monkeypatch.setattr(nullmodel, "_TOLERANCE", 1e-12)
    model = fit_bicm(_binary(np.eye(2)))
    assert np.allclose(model.link_probabilities, 0.5, atol=1e-10)
    rows, cols = model.link_probabilities.sum(axis=1), model.link_probabilities.sum(axis=0)
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
    rows, cols = model.link_probabilities.sum(axis=1), model.link_probabilities.sum(axis=0)
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
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    assert np.abs(rows - m.diversification).max() <= 1e-8
    assert np.abs(cols - m.ubiquity).max() <= 1e-8


def test_nonconvergence_carries_residual(monkeypatch):
    monkeypatch.setattr(nullmodel, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(nullmodel, "_TOLERANCE", 1e-15)
    with pytest.raises(FitError) as err:
        fit_bicm(_binary(np.eye(3)))
    assert err.value.residual > 0


def test_fit_reaching_the_tolerance_on_its_last_iteration_returns(monkeypatch):
    # the smallest budget that fits reaches the tolerance on its last allowed
    # iteration, so the solve returns after its loop, not inside it
    m = _binary(random_binary(np.random.default_rng(3), (12, 15), 0.4))

    def fit(budget):
        monkeypatch.setattr(nullmodel, "_MAX_ITERATIONS", budget)
        return fit_bicm(m)

    budget = 1
    while True:
        try:
            model = fit(budget)
        except FitError:
            budget += 1
        else:
            break
    assert budget > 1
    assert model.fit_residual <= 1e-8
    with pytest.raises(FitError, match="^no convergence within"):
        fit(budget - 1)


def test_infeasible_degrees_stall_with_residual():
    # row total 5 against column total 8: no fit exists, so steps are halved until the solve stalls
    with pytest.raises(FitError, match="^fixed-point stalled at residual") as err:
        _solve_reduced(np.array([1.0, 2.0]), np.array([3.0, 1.0]),
                       np.array([1.0, 4.0]), np.array([4.0, 1.0]))
    assert err.value.residual == pytest.approx(0.83, abs=0.01)


def test_sampling_degenerate_probabilities():
    zero = fit_bicm(_binary(np.zeros((2, 2))))
    for sample in null_draws(zero, 5, seed=1):
        assert not sample.any()
    ones = fit_bicm(_binary(np.ones((2, 2))))
    for sample in null_draws(ones, 5, seed=1):
        assert sample.all()


def test_draw_into_buffer_matches_ensemble_and_fresh_draw():
    # the stream read as the loop reads it, in one block, against the replay
    # of each stretch and a generator advanced by hand
    model = fit_bicm(_binary(random_binary(np.random.default_rng(5), (4, 6), 0.5)))
    p = model.link_probabilities
    block = _stream(3, ()).random((20, *p.shape)) < p
    for i, sample in enumerate(null_draws(model, 20, seed=3)):
        bits = np.random.PCG64(np.random.SeedSequence(3))
        bits.advance(i * p.size)
        fresh = np.random.Generator(bits).random(p.shape) < p
        assert sample.dtype == np.float64
        assert np.array_equal(block[i], fresh) and np.array_equal(sample, fresh)


def test_replay_is_bitwise_identical():
    model = fit_bicm(_binary(np.eye(3)))
    first = list(null_draws(model, 50, seed=9))
    second = list(null_draws(model, 50, seed=9))
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    different = list(null_draws(model, 50, seed=10))
    assert any(not np.array_equal(a, b) for a, b in zip(first, different))


def test_stream_keys_give_independent_substreams():
    model = fit_bicm(_binary(np.eye(3)))
    a = list(null_draws(model, 10, seed=9, stream_key=(0,)))
    b = list(null_draws(model, 10, seed=9, stream_key=(1,)))
    assert any(not np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_mean_tracks_probabilities(monkeypatch):
    monkeypatch.setattr(nullmodel, "_TOLERANCE", 1e-12)
    model = fit_bicm(_binary(np.eye(2)))
    mean = sum(null_draws(model, 4000, seed=123)) / 4000
    assert np.abs(mean - 0.5).max() < 0.03  # ~4 sigma at n=4000


def _model(p):
    p = np.asarray(p, dtype=np.float64)
    return BiCMModel(
        tuple(f"c{i}" for i in range(p.shape[0])),
        tuple(f"a{j}" for j in range(p.shape[1])),
        p,
        0.0,
    )


_PROBABILITIES = st.sampled_from([0.0, 1.0, 0.125, 0.5, 0.75, 5e-324, float(np.nextafter(1.0, 0.0))])


@st.composite
def _probability_columns(draw):
    """Columns picked, with repeats, from a pool holding the all-0 and the
    all-1 column and up to four drawn ones."""
    countries = draw(st.integers(1, 5))
    column = st.lists(_PROBABILITIES, min_size=countries, max_size=countries)
    pool = [[0.0] * countries, [1.0] * countries] + draw(st.lists(column, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return np.array([pool[k] for k in picks]).T


@settings(max_examples=300, deadline=None)
@given(_probability_columns())
@example(np.array([[0.5], [0.25]]))
@example(np.array([[1.0, 0.0, 1.0, 0.0]]))
def test_classes_are_unique_columns(p):
    first, order, size = nullmodel._classes(_model(p))
    _, want_first, inverse, want_size = np.unique(
        p.T, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    assert np.array_equal(first, want_first)
    assert np.array_equal(order, np.argsort(inverse.reshape(-1), kind="stable"))
    assert np.array_equal(size, want_size)


def _table_law(first, thresholds):
    """Each country's {value: probability} read off its table row."""
    steps = np.diff(thresholds, prepend=0, axis=1) / 2.0**_UNIT_BITS
    return [
        {start + r: w for r, w in enumerate(row) if w}
        for start, row in zip(first.tolist(), steps.tolist())
    ]


@pytest.mark.parametrize("fixture_seed", range(12))
def test_diversification_table_is_the_exact_law(fixture_seed):
    # rows of free, pinned-to-0 and pinned-to-1 links, then a country with
    # every link pinned and classes of every size, one member included
    rng = np.random.default_rng(fixture_seed)
    q = rng.random((4, 5)) ** 2
    q[0, 1], q[1, 2] = 0.0, 1.0
    q[3] = rng.choice([0.0, 1.0], 5)
    extra = rng.integers(0, 6, 5)
    first, thresholds = _diversification_table(q, extra)
    assert (thresholds[:, -1] == 2**_UNIT_BITS).all()
    for c, law in enumerate(_table_law(first, thresholds)):
        exact = exact_diversification_law(q[c], extra.tolist())
        for value in set(law) | set(exact):
            assert abs(law.get(value, 0.0) - float(exact.get(value, 0))) <= 1e-12
    pinned = int(extra[q[3] == 1].sum())
    assert first[3] == pinned and (thresholds[3] == 2**_UNIT_BITS).all()


def test_diversification_window_leaves_under_2_to_the_minus_64_outside():
    # 500 links at 1/64 and 1/32: Bernstein's window is far narrower than
    # the support
    q, extra = np.array([[1 / 64, 1 / 32]]), np.array([300, 200])
    first, thresholds = _diversification_table(q, extra)
    window = range(int(first[0]), int(first[0]) + thresholds.shape[1])
    assert 0 < len(window) < 100
    exact = exact_diversification_law(q[0], extra.tolist())
    outside = sum(w for value, w in exact.items() if value not in window)
    assert 0 < outside < Fraction(1, 2**64)
    law = _table_law(first, thresholds)[0]
    assert max(abs(law.get(v, 0.0) - float(exact[v])) for v in window) <= 1e-12


def _recorded_degrees(monkeypatch):
    """Each draw's product layer and d, as the loop passes its blocks to the
    kernel."""
    calls, real = [], nullmodel._assist_values

    def recording(tech, prod, d):
        calls.extend(zip(prod.copy(), np.array(d)))
        return real(tech, prod, d)

    monkeypatch.setattr(nullmodel, "_assist_values", recording)
    return calls


def test_pinned_countries_draw_their_exact_diversification(monkeypatch):
    # product classes of 3, 2 and 1 members; countries 0-2 hold only
    # probabilities 0 and 1, so every draw gives them d = 6, 0 and 4
    classes = np.array([[1, 1, 1], [0, 0, 0], [1, 0, 1], [0.3, 0.6, 0.9]])
    prod = _model(classes[:, [0, 0, 0, 1, 1, 2]])
    tech = _model(np.full((4, 2), 0.5))
    calls = _recorded_degrees(monkeypatch)
    null_exceedance_counts(tech, prod, np.zeros((2, 6)), 300, seed=4)
    assert len(calls) == 300
    assert all(np.array_equal(d[:3], [6, 0, 4]) for _, d in calls)
    assert len({d[3] for _, d in calls}) > 1


def test_layers_of_single_member_classes_draw_no_diversification(monkeypatch):
    # every product column differs, so S = 0 and d is the drawn row sums
    prod = _model(np.random.default_rng(2).random((5, 4)))
    tech = _model(np.full((5, 3), 0.5))
    calls = _recorded_degrees(monkeypatch)
    null_exceedance_counts(tech, prod, np.zeros((3, 4)), 300, seed=4)
    assert len(calls) == 300
    assert all(np.array_equal(d, drawn.sum(axis=1)) for drawn, d in calls)


def _worst_uniform_z(uniforms):
    """Largest |z| over the columns of ``uniforms``, one row per sample: of
    each column's mean across samples and of its lag-1 correlation."""
    n = len(uniforms)
    centred = uniforms - 0.5
    mean_z = centred.mean(axis=0) * np.sqrt(12 * n)
    lag_z = (centred[1:] * centred[:-1]).mean(axis=0) * 12 * np.sqrt(n - 1)
    return max(np.abs(mean_z).max(), np.abs(lag_z).max())


@pytest.mark.parametrize("seed, stream_key", [(1, (0, 0, 0)), (7, (0, 0, 1))])
def test_jumped_substreams_are_uncorrelated(seed, stream_key):
    # the first 128 uniforms of 4,000 samples of M = 6,360 (HS4 width), read
    # in blocks as the loop reads them: 2 x 128 z-scores per stream, each
    # beyond 4.5 with chance 7e-6. Samples started i << 64 apart share their
    # low 64 state bits and fail the same test.
    rng = _stream(seed, stream_key)
    stretches = np.concatenate([rng.random((100, 6360))[:, :128] for _ in range(40)])
    assert _worst_uniform_z(stretches) < 4.5
    shifted = []
    for i in range(4000):
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream_key))
        bits.advance(i << 64)
        shifted.append(np.random.Generator(bits).random(128))
    assert _worst_uniform_z(np.array(shifted)) > 4.5


def test_paired_stream_zscores_cover_both_layers():
    rng = np.random.default_rng(81)
    tech = fit_bicm(_binary(random_binary(rng, (4, 3), 0.5)))
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
    return _binary(tech), _binary(prod)


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


def _block_bytes(tech, prod, draws):
    """``_BLOCK_BYTES`` that draws ``draws`` samples of these models per block:
    each takes a uniform per link of both layers' class columns and one per
    country."""
    k_t, k_p = (len(nullmodel._classes(model)[0]) for model in (tech, prod))
    return draws * 8 * tech.shape[0] * (k_t + k_p + 1)


def test_counts_do_not_depend_on_block_size(monkeypatch):
    # blocks of 1, 4 and 150 draws, inside chunks of 7 that cut the larger
    # blocks short; each run against the oracle that replays one draw at a time
    tech, prod, empirical = _exceedance_fixture(150)
    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", _chunk_bytes(tech, prod, 7))
    reference, reference_drift = reference_class_counts(tech, prod, empirical, 150, 3, (0, 1))
    runs, sizes = [], []
    watch_blocks(monkeypatch, lambda key, first, count: sizes.append(count))
    for draws in (1, 4, 150):
        monkeypatch.setattr(nullmodel, "_BLOCK_BYTES", _block_bytes(tech, prod, draws))
        runs.append(null_exceedance_counts(tech, prod, empirical, 150, 3, (0, 1)))
    assert max(sizes) == 7 and 1 in sizes and 4 in sizes
    for counts, drift in runs:
        assert np.array_equal(counts, runs[0][0]) and drift == runs[0][1]
        assert np.array_equal(counts, reference)
        _assert_same_drift(drift, reference_drift)


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
    tech_m = _binary(random_binary(rng, (12, 8), 0.5))
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


def _calibration_counts(countries, replications, n):
    """Counts over replications whose empirical layers are drawn from the
    very models the loop draws its null layers from, each replication from
    its own stream. Technology classes have sizes 2, 1 and 3, plus one
    technology no country holds; product classes have sizes 3, 2, 1 and 2,
    and the last country exports nothing. Every other class column is
    uniform on [0.05, 0.9). Returns the counts of the held technologies."""
    rng = np.random.default_rng(countries)

    def columns(sizes):
        return np.repeat(rng.uniform(0.05, 0.9, (countries, len(sizes))), sizes, axis=1)

    tech = _model(np.c_[columns((2, 1, 3)), np.zeros(countries)])
    prod_p = columns((3, 2, 1, 2))
    prod_p[-1] = 0.0
    prod = _model(prod_p)
    counts = np.empty((replications, tech.shape[1], prod.shape[1]), dtype=np.int32)
    for r in range(replications):
        data = np.random.default_rng(np.random.SeedSequence(r, spawn_key=(1,)))
        layers = [(data.random(m.shape) < m.link_probabilities).astype(np.float64)
                  for m in (tech, prod)]
        empirical, _ = _assist_values(*layers)
        counts[r], _ = null_exceedance_counts(tech, prod, empirical, n, seed=r, stream_key=(0,))
    # its weight and every null weight are 0, and ties do not count
    assert (counts[:, -1] == 0).all()
    return counts[:, :-1]


def test_calibrated_counts_rank_the_empirical_weight_uniformly():
    # Simulation-based calibration (Talts et al. 2018): an empirical weight
    # drawn from the null law ranks uniformly among the n null weights, up
    # to ties, which 40 countries make rare. Cells of one replication share
    # its null draws, so the histogram takes one cell per replication; 57.4
    # is chi-square's 1e-5 point at 19 degrees of freedom.
    n, replications = 19, 1500
    counts = _calibration_counts(40, replications, n)[:, 0, 0]
    expected = replications / (n + 1)
    assert ((np.bincount(counts, minlength=n + 1) - expected) ** 2 / expected).sum() < 57.4


def test_calibrated_counts_hold_each_tiers_false_positive_bound():
    # The Monte Carlo test (Besag & Clifford 1989): such a weight beats at
    # least k of n null weights with probability at most (n - k + 1) / (n + 1);
    # ties, frequent with 6 countries, only lower it. Each replication's
    # share of cells at k or more is one statistic whose mean obeys the same
    # bound, tested 4.5 standard errors above it (false alarm 3.4e-6).
    n, replications = 19, 3000
    counts = _calibration_counts(6, replications, n)
    for tier in TIER_LEVELS:
        k = tier_threshold(tier, n)
        share = (counts >= k).mean(axis=(1, 2))
        bound = (n - k + 1) / (n + 1)
        assert share.mean() <= bound + 4.5 * share.std(ddof=1) / np.sqrt(replications), tier


@pytest.mark.parametrize("failing_sample", [0, 4])
def test_failing_draw_propagates_with_blas_restored(monkeypatch, failing_sample):
    # one draw per block and per chunk: sample 0 fails first, sample 4 after
    # four sort-and-count passes
    def failing(stream_key, first, count):
        if first <= failing_sample < first + count:
            raise RuntimeError(f"draw {failing_sample} failed")

    monkeypatch.setattr(nullmodel, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(nullmodel, "_BLOCK_BYTES", 1)
    watch_blocks(monkeypatch, failing)
    before = blas_threads()
    tech, prod, empirical = _exceedance_fixture(5)
    with pytest.raises(RuntimeError, match=f"draw {failing_sample} failed"):
        null_exceedance_counts(tech, prod, empirical, 7, seed=2)
    assert blas_threads() == before


def test_null_assist_requires_shared_countries():
    tech = fit_bicm(_binary(np.eye(2)))
    prod_values = np.ones((3, 2), dtype=int)
    prod = fit_bicm(_binary(prod_values))
    with pytest.raises(AxisMismatchError):
        null_exceedance_counts(tech, prod, np.zeros((2, 2)), 1, seed=0)
    with pytest.raises(AxisMismatchError):
        null_exceedance_counts(tech, tech, np.zeros((2, 3)), 1, seed=0)
    with pytest.raises(ValueError):
        null_exceedance_counts(tech, tech, np.zeros((2, 2)), 0, seed=0)


def test_sample_counts_past_int32_are_refused(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(nullmodel, "_stream", no_draws)
    tech = _model(np.full((2, 2), 0.5))
    for n in (2**31, 2**40):
        with pytest.raises(ValueError, match=re.escape("must be < 2**31, the int32 counts' bound")):
            null_exceedance_counts(tech, tech, np.zeros((2, 2)), n, seed=0)


def _many_countries(count: int) -> tuple[BiCMModel, BiCMModel]:
    """One technology held everywhere and one class of two products, each
    exported with probability 1/2, over ``count`` countries."""
    countries = tuple(f"C{c}" for c in range(count))
    return (BiCMModel(countries, ("t",), np.ones((count, 1)), 0.0),
            BiCMModel(countries, ("p0", "p1"), np.full((count, 2), 0.5), 0.0))


def test_more_countries_than_the_offset_table_holds_are_refused(monkeypatch):
    # at 2**15 countries the last row's top threshold plus its offset is 2**63
    def no_draws(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(nullmodel, "_stream", no_draws)
    tech, prod = _many_countries(2**15)
    with pytest.raises(PanelError, match=re.escape("at most 32767 countries, got 32768")):
        null_exceedance_counts(tech, prod, np.zeros((1, 2)), 1, seed=0)


def test_the_most_countries_the_offset_table_holds_still_draw(monkeypatch):
    degrees = []
    assist_values = nullmodel._assist_values

    def spy(tech, prod, d):
        degrees.append(d.copy())
        return assist_values(tech, prod, d)

    monkeypatch.setattr(nullmodel, "_assist_values", spy)
    tech, prod = _many_countries(2**15 - 1)
    counts, _ = null_exceedance_counts(tech, prod, np.zeros((1, 2)), 8, seed=0)
    assert counts.tolist() == [[0, 0]]  # a zero weight never exceeds a null one
    drawn = np.concatenate(degrees)
    assert drawn.shape == (8, 2**15 - 1)
    assert set(np.unique(drawn).tolist()) == {0.0, 1.0, 2.0}


def test_degenerate_models_reproduce_empirical_contraction():
    tech_m = _binary(np.ones((2, 2)))
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
    tech_m = _binary(random_binary(rng, (4, 3), 0.5))
    prod_m = _binary(random_binary(rng, (4, 4), 0.5))
    tech, prod = fit_bicm(tech_m), fit_bicm(prod_m)
    # five draws of each layer, contracted in one stacked call as the loop
    # contracts a block
    tech_draws = np.array(list(null_draws(tech, 5, seed=21)))
    prod_draws = np.array(list(null_draws(prod, 5, seed=22)))
    values, _ = _assist_values(tech_draws, prod_draws)
    for k in range(5):
        assert np.allclose(values[k], reference_assist(tech_draws[k], prod_draws[k]))


def test_null_distribution_matches_exhaustive_enumeration():
    # tiny layers: Monte Carlo exceedance against exact enumeration over all
    # paired configurations weighted by their Bernoulli probabilities
    tech_m = _binary(np.array([[1, 0], [1, 1]]))
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



def _tie_fixture():
    """Empirical layers and null models with one exact tie. Countries A-D
    all hold technology t. Empirically A, B and C export p00 at
    diversification 5 and D does not; in every null draw p00 is exported only
    by A (d = 2) and B (d = 10). Both weights of (t, p00) are exactly
    (1/5 + 1/5 + 1/5) / 4 = (1/2 + 1/10) / 4 = 3/20."""
    countries = ("A", "B", "C", "D")
    products = tuple(f"p{j:02d}" for j in range(10))
    exports = np.zeros((4, 10), dtype=int)
    for c, held in enumerate(((0, 1, 2, 3, 4), (0, 5, 6, 7, 8), (0, 1, 2, 3, 9), (1,))):
        exports[c, list(held)] = 1
    drawn = np.zeros((4, 10))
    drawn[0, :2] = drawn[1] = 1.0
    return (
        BinaryMatrix(countries, ("t",), np.ones((4, 1), dtype=int)),
        BinaryMatrix(countries, products, exports),
        BiCMModel(countries, ("t",), np.ones((4, 1)), 0.0),
        BiCMModel(countries, products, drawn, 0.0),
    )


def _exact_weight(tech, prod):
    """(t, p00)'s weight as a rational: 1/d over the countries holding both,
    divided by t's ubiquity."""
    d = prod.sum(axis=1)
    both = [c for c in range(len(d)) if tech[c, 0] and prod[c, 0]]
    return sum(Fraction(1, int(d[c])) for c in both) / int(tech[:, 0].sum())


def test_tie_fixture_weights_are_equal_rationals():
    tech, prod, _, prod_model = _tie_fixture()
    drawn = prod_model.link_probabilities
    assert _exact_weight(tech.values, prod.values) == Fraction(3, 20)
    assert _exact_weight(tech.values, drawn) == Fraction(3, 20)
    # in floats the empirical side comes out one ulp above the null side
    assert compute_assist(tech, prod).values[0, 0] == 0.15000000000000002
    assert _assist_values(tech.values.astype(np.float64), drawn)[0][0, 0] == 0.15


@pytest.mark.xfail(strict=True, reason="float roundoff scores an exact tie as an exceedance")
def test_exact_tie_never_counts_as_an_exceedance():
    tech, prod, tech_model, prod_model = _tie_fixture()
    emp = compute_assist(tech, prod)
    counts, _ = null_exceedance_counts(tech_model, prod_model, emp.values, 10, 0, (0,))
    assert counts[0, 0] == 0


@pytest.mark.parametrize("build, message", [
    (lambda: BiCMModel(("c0", "c1"), ("a0",), np.zeros((1, 2)), 0.0),
     "probability matrix shape does not match axes"),
    (lambda: fit_bicm(BinaryMatrix((), ("a0",), np.zeros((0, 1), dtype=int))),
     "cannot fit a null model to an empty matrix"),
])
def test_null_model_inputs_are_checked(build, message):
    with pytest.raises(PanelError, match=f"^{re.escape(message)}$"):
        build()
