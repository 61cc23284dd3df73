"""Specialization ratios and binarization."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnet import AllZeroError, AxisMismatchError, PanelError, binarize, compute_rca
from tpnet.panels import WindowedMatrix
from tpnet.rca import BinaryMatrix, RcaMatrix

from .oracles import reference_rca


def _window(values, layer="product"):
    values = np.asarray(values, dtype=float)
    countries = tuple(f"c{i}" for i in range(values.shape[0]))
    activities = tuple(f"a{j}" for j in range(values.shape[1]))
    return WindowedMatrix(layer, countries, activities, 1, 2000, values)


def test_uniform_matrix_gives_unit_ratios():
    rca = compute_rca(_window(np.ones((2, 2))))
    assert np.allclose(rca.values, 1.0)


def test_hand_evaluated_two_by_two():
    rca = compute_rca(_window([[2.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(rca.values, [[2.0, 0.0], [0.0, 2.0]])


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_global_scale_invariance(k):
    rng = np.random.default_rng(17)
    weights = rng.random((4, 5)) * (rng.random((4, 5)) < 0.7)
    weights[3, :] = 0.0
    base = compute_rca(_window(weights))
    scaled = compute_rca(_window(k * weights))
    assert np.allclose(base.values, scaled.values, atol=1e-12)
    assert np.array_equal(binarize(base).values, binarize(scaled).values)


def test_matches_reference_evaluation():
    rng = np.random.default_rng(23)
    for _ in range(25):
        shape = (rng.integers(2, 8), rng.integers(2, 9))
        weights = rng.random(shape) * (rng.random(shape) < 0.6)
        if weights.sum() == 0:
            continue
        rca = compute_rca(_window(weights))
        assert np.allclose(rca.values, reference_rca(weights), atol=1e-12)


def test_zero_rows_and_columns_give_zero_ratios():
    weights = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    rca = compute_rca(_window(weights))
    assert rca.values[1].tolist() == [0.0, 0.0, 0.0]
    assert rca.values[0, 1] == 0.0
    assert (rca.values == 0).sum() == 4


def test_all_zero_matrix_rejected():
    with pytest.raises(AllZeroError):
        compute_rca(_window(np.zeros((2, 2))))


def test_every_active_column_has_a_specialized_country():
    rng = np.random.default_rng(31)
    for _ in range(50):
        weights = rng.random((6, 7)) * (rng.random((6, 7)) < 0.5)
        if weights.sum() == 0:
            continue
        m = binarize(compute_rca(_window(weights)))
        active = weights.sum(axis=0) > 0
        assert (m.ubiquity[active] >= 1).all()


def test_row_shares_sum_to_one_for_positive_rows():
    rng = np.random.default_rng(37)
    weights = rng.random((5, 6)) + 0.01
    row_shares = weights / weights.sum(axis=1, keepdims=True)
    assert np.allclose(row_shares.sum(axis=1), 1.0, atol=1e-12)


def test_threshold_is_inclusive():
    rca = compute_rca(_window(np.ones((3, 4))))
    assert np.allclose(rca.values, 1.0)
    m = binarize(rca)
    assert m.values.all()


def test_threshold_application_and_degrees():
    rca = compute_rca(_window([[2.0, 0.0], [0.0, 2.0]]))
    m = binarize(rca)
    assert np.array_equal(m.values, np.eye(2, dtype=int))
    assert m.diversification.tolist() == [1, 1]
    assert m.ubiquity.tolist() == [1, 1]


def test_zero_row_stays_unspecialized():
    weights = np.array([[1.0, 1.0], [0.0, 0.0]])
    m = binarize(compute_rca(_window(weights)))
    assert m.values[1].tolist() == [0, 0]
    assert m.diversification[1] == 0


def test_restrict_countries_recomputes_degrees():
    m = binarize(compute_rca(_window([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])))
    sub = m.restrict_countries(("c0", "c2"))
    assert sub.country_ids == ("c0", "c2")
    assert sub.diversification.tolist() == list(sub.values.sum(axis=1))


@pytest.mark.parametrize("build, error, message", [
    (lambda: RcaMatrix(("c0", "c1"), ("a0",), np.ones((1, 2))),
     PanelError, "RCA matrix shape does not match axes"),
    (lambda: RcaMatrix(("c0",), ("a0", "a1"), [[1.0, np.nan]]),
     PanelError, "RCA values must be finite and >= 0"),
    (lambda: RcaMatrix(("c0",), ("a0", "a1"), [[1.0, -0.5]]),
     PanelError, "RCA values must be finite and >= 0"),
    (lambda: BinaryMatrix(("c0", "c1"), ("a0",), np.ones((1, 2), dtype=int)),
     PanelError, "binary matrix shape does not match axes"),
    (lambda: BinaryMatrix(("c0",), ("a0", "a1"), [[1, 2]]),
     PanelError, "binary matrix entries must be 0 or 1"),
    (lambda: BinaryMatrix(("c0",), ("a0",), [[1]]).restrict_countries(("c0", "c9")),
     AxisMismatchError, "countries not present in matrix: ['c9']"),
])
def test_matrix_inputs_are_checked(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
