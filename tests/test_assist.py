"""Contraction of two binary layers into the directed assist matrix."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tpnet
from tpnet import AxisMismatchError, PanelError, assist, compute_assist
from tpnet.assist import _assist_values, _one_blas_thread, _openblas_thread_controls
from tpnet.rca import BinaryMatrix

from .conftest import blas_threads, random_binary
from .oracles import reference_assist


def _layers(tech_values, prod_values, countries=None):
    tech_values = np.asarray(tech_values)
    prod_values = np.asarray(prod_values)
    countries = countries or tuple(f"c{i}" for i in range(tech_values.shape[0]))
    tech = BinaryMatrix(countries, tuple(f"t{j}" for j in range(tech_values.shape[1])), tech_values)
    prod = BinaryMatrix(countries, tuple(f"p{j}" for j in range(prod_values.shape[1])), prod_values)
    return tech, prod


def test_hand_evaluated_contraction():
    tech, prod = _layers([[1], [0]], [[1, 1], [1, 0]])
    assist = compute_assist(tech, prod)
    assert np.allclose(assist.values, [[0.5, 0.5]])


def test_full_cooccurrence_single_column():
    tech, prod = _layers([[1], [1]], [[1], [1]])
    assist = compute_assist(tech, prod)
    assert assist.values.tolist() == [[1.0]]


def test_inactive_technology_row_is_zero():
    tech, prod = _layers([[1, 0], [1, 0]], [[1], [1]])
    assist = compute_assist(tech, prod)
    assert assist.tech_ids == ("t0", "t1")
    assert assist.values[1].tolist() == [0.0]


def test_zero_diversification_country_is_skipped():
    # c1 holds the technology but exports nothing; it must not contribute
    tech, prod = _layers([[1], [1]], [[1, 1], [0, 0]])
    assist = compute_assist(tech, prod)
    assert np.allclose(assist.values, [[0.25, 0.25]])


def test_mismatched_country_axes_rejected():
    tech, _ = _layers([[1], [0]], [[1], [1]], countries=("A", "B"))
    _, prod = _layers([[1], [0]], [[1], [1]], countries=("A", "C"))
    with pytest.raises(AxisMismatchError):
        compute_assist(tech, prod)


@pytest.mark.parametrize("given_d", [False, True])
def test_kernel_leaves_its_inputs_unchanged(given_d):
    # the null loop sums the product draw's columns after contracting it, and
    # the empirical path hands over the read-only int8 layer
    rng = np.random.default_rng(4)
    tech = random_binary(rng, (7, 5), 0.5).astype(np.float64)
    prod = random_binary(rng, (7, 6), 0.5).astype(np.float64)
    prod[2] = 0.0  # a country with no product diversification
    d = prod.sum(axis=1) + 3.0 * (prod.sum(axis=1) > 0) if given_d else None
    tech_before, prod_before = tech.copy(), prod.copy()
    values, u = _assist_values(tech, prod, d)
    assert np.array_equal(tech, tech_before)
    assert np.array_equal(prod, prod_before)
    assert np.array_equal(u, tech.sum(axis=0))
    if not given_d:
        assert np.allclose(values, reference_assist(tech, prod))
        int8_values, _ = _assist_values(tech, prod.astype(np.int8))
        assert int8_values.tobytes() == values.tobytes()


@pytest.mark.parametrize("countries, techs, products, blocks", [
    (6, 4, 5, 7), (120, 26, 26, 5), (3, 1, 1, 4), (40, 3, 90, 3),
])
def test_stacked_kernel_equals_each_slice_bit_for_bit(countries, techs, products, blocks):
    # stacks cut from one block of uniforms, as the null loop lays them out,
    # with a zero-diversification country and a zero-ubiquity technology in
    # every slice, contracted with and without a given d
    rng = np.random.default_rng(countries)
    cut = countries * techs
    uniforms = rng.random((blocks, cut + countries * products))
    tech = uniforms[:, :cut].reshape(blocks, countries, techs)
    prod = uniforms[:, cut:].reshape(blocks, countries, products)
    np.less(tech, 0.5, out=tech)
    np.less(prod, 0.4, out=prod)
    tech[:, :, 0] = 0.0
    prod[:, 0] = 0.0
    d = prod.sum(axis=-1) + rng.integers(0, 3, (blocks, countries))
    d[:, 0] = 0.0
    with _one_blas_thread():
        for given in (d, None):
            values, u = _assist_values(tech, prod, given)
            for k in range(blocks):
                one = None if given is None else given[k]
                want, want_u = _assist_values(tech[k].copy(), prod[k].copy(), one)
                assert values[k].tobytes() == want.tobytes()
                assert u[k].tobytes() == want_u.tobytes()
            assert (values[:, 0] == 0).all()


def test_matches_reference_on_random_layers():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tech_values = random_binary(rng, (5, 3), 0.5)
        prod_values = random_binary(rng, (5, 4), 0.5)
        tech, prod = _layers(tech_values, prod_values)
        assist = compute_assist(tech, prod)
        assert np.allclose(assist.values, reference_assist(tech_values, prod_values), atol=1e-14)
        assert assist.values.min() >= 0.0 and assist.values.max() <= 1.0


def test_active_rows_sum_to_one_when_no_degenerate_holder():
    rng = np.random.default_rng(13)
    for _ in range(100):
        tech_values = random_binary(rng, (6, 4), 0.4)
        prod_values = random_binary(rng, (6, 5), 0.5)
        # give every technology holder at least one export
        for i in range(6):
            if tech_values[i].any() and not prod_values[i].any():
                prod_values[i, rng.integers(5)] = 1
        tech, prod = _layers(tech_values, prod_values)
        assist = compute_assist(tech, prod)
        sums = assist.values[tech.ubiquity > 0].sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_monotone_in_added_dual_holder():
    # a new country holding both the technology and the product never
    # decreases that link's weight
    rng = np.random.default_rng(19)
    for _ in range(50):
        tech_values = random_binary(rng, (4, 3), 0.5)
        prod_values = random_binary(rng, (4, 4), 0.6)
        tech_values[0, 0] = 1
        prod_values[0, 0] = 1
        for i in range(4):
            if tech_values[i].any() and not prod_values[i].any():
                prod_values[i, rng.integers(4)] = 1
        tech, prod = _layers(tech_values, prod_values)
        before = compute_assist(tech, prod).values[0, 0]
        extra_tech = np.vstack([tech_values, [[1, 0, 0]]])
        extra_prod_row = np.zeros((1, 4), dtype=int)
        extra_prod_row[0, 0] = 1
        extra_prod = np.vstack([prod_values, extra_prod_row])
        countries = tuple(f"c{i}" for i in range(5))
        tech2, prod2 = _layers(extra_tech, extra_prod, countries=countries)
        after = compute_assist(tech2, prod2).values[0, 0]
        assert after >= before - 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(29)
    tech_values = random_binary(rng, (5, 3), 0.5)
    prod_values = random_binary(rng, (5, 4), 0.5)
    tech, prod = _layers(tech_values, prod_values)
    base = compute_assist(tech, prod).values

    perm = rng.permutation(5)
    countries = tuple(f"c{i}" for i in perm)
    tech_p = BinaryMatrix(countries, tech.activity_ids, tech_values[perm])
    prod_p = BinaryMatrix(countries, prod.activity_ids, prod_values[perm])
    assert np.allclose(compute_assist(tech_p, prod_p).values, base)

    col_perm = rng.permutation(4)
    prod_c = BinaryMatrix(
        prod.country_ids, tuple(prod.activity_ids[j] for j in col_perm), prod_values[:, col_perm]
    )
    assert np.allclose(compute_assist(tech, prod_c).values, base[:, col_perm])


@pytest.mark.parametrize("prior", [None, 2])
def test_one_blas_thread_pins_and_restores(prior):
    start = blas_threads()
    controls = _openblas_thread_controls()
    try:
        for _, set_threads in controls if prior else ():
            set_threads(prior)
        before = blas_threads()
        with _one_blas_thread():
            assert blas_threads() == [1] * len(before)
            with _one_blas_thread():
                assert blas_threads() == [1] * len(before)
            assert blas_threads() == [1] * len(before)
        assert blas_threads() == before
        with pytest.raises(RuntimeError, match="inside the pin"):
            with _one_blas_thread():
                raise RuntimeError("inside the pin")
        assert blas_threads() == before
    finally:
        for (_, set_threads), count in zip(controls, start):
            set_threads(count)


def test_without_proc_self_maps_no_thread_count_is_pinned(monkeypatch):
    # a platform without /proc/self/maps finds no controls: the pin does
    # nothing, and the contraction gives the same values
    rng = np.random.default_rng(5)
    tech, prod = _layers(random_binary(rng, (9, 6), 0.4), random_binary(rng, (9, 7), 0.4))
    pinned = compute_assist(tech, prod).values
    controls = _openblas_thread_controls()
    start = [get() for get, _ in controls]

    def no_maps(*args, **kwargs):
        raise OSError("no /proc/self/maps")

    try:
        with monkeypatch.context() as patch:
            patch.setattr(assist, "open", no_maps, raising=False)
            _openblas_thread_controls.cache_clear()
            assert _openblas_thread_controls() == ()
            for _, set_threads in controls:
                set_threads(2)
            with _one_blas_thread():
                assert [get() for get, _ in controls] == [2] * len(controls)
            values = compute_assist(tech, prod).values
    finally:
        _openblas_thread_controls.cache_clear()
        for (_, set_threads), count in zip(controls, start):
            set_threads(count)
    assert np.array_equal(values, pinned)


_CONTRACTION_DIGEST = """
import hashlib
import numpy as np
from tpnet import compute_assist
from tpnet.rca import BinaryMatrix

rng = np.random.default_rng(17)
countries = tuple(f"c{i}" for i in range(120))
layers = [
    BinaryMatrix(countries, tuple(f"{kind[0]}{j}" for j in range(width)),
                 (rng.random((120, width)) < 0.4).astype(int))
    for kind, width in (("technology", 388), ("product", 974))
]
print(hashlib.sha256(compute_assist(*layers).values.tobytes()).hexdigest())
"""


def test_contraction_bits_do_not_depend_on_blas_threads():
    # OpenBLAS rounds this shape differently at one and two threads unless
    # the contraction is pinned to one.
    blas_threads()
    src = str(Path(tpnet.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-c", _CONTRACTION_DIGEST],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.add(result.stdout.strip())
    assert len(digests) == 1


def test_assist_matrix_rejects_a_shape_other_than_its_axes():
    with pytest.raises(PanelError, match=r"^assist matrix shape does not match axes$"):
        assist.AssistMatrix(("t0",), ("p0", "p1"), np.zeros((2, 1)))
