"""Shared fixtures: planted co-occurrence matrices and panel builders."""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import numpy as np
import pytest

from tpnet import nullmodel
from tpnet.assist import _openblas_thread_controls
from tpnet.nullmodel import BiCMModel
from tpnet.panels import ActivityPanel, read_panel_csv
from tpnet.rca import BinaryMatrix

PLANTED_COUNTRIES = tuple(f"C{i}" for i in range(6))
PLANTED_TECHS = ("T0", "T1", "T2", "T3")
PLANTED_PRODUCTS = ("10 P0", "11 P1", "12 P2", "13 P3", "14 P4")

PLANTED_LINK = ("T0", "10 P0")


def planted_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Binary layers with one planted perfect co-occurrence.

    Countries C0 and C1 hold only technology T0 and export only product P0,
    so the (T0, P0) contraction weight is exactly 1 and far above anything a
    degree-preserving null can reach. The other four countries share a dense
    block whose links are fully expected under the null (exceedance ~0.71,
    far from every significance boundary). Entries are chosen so that using
    the matrix itself as panel weights reproduces it through the
    comparative-advantage threshold: every 1-cell satisfies
    row_sum * col_sum <= total.
    """
    tech = np.zeros((6, 4), dtype=int)
    tech[0, 0] = tech[1, 0] = 1
    tech[2:6, 1:4] = 1
    prod = np.zeros((6, 5), dtype=int)
    prod[0, 0] = prod[1, 0] = 1
    prod[2:6, 1:5] = 1
    return tech, prod


def planted_binary_layers() -> tuple[BinaryMatrix, BinaryMatrix]:
    tech, prod = planted_matrices()
    return (
        BinaryMatrix(PLANTED_COUNTRIES, PLANTED_TECHS, tech),
        BinaryMatrix(PLANTED_COUNTRIES, PLANTED_PRODUCTS, prod),
    )


def write_constant_panel_csv(
    path: Path,
    matrix: np.ndarray,
    countries: tuple[str, ...],
    activities: tuple[str, ...],
    years: range,
) -> Path:
    """Panel CSV whose yearly matrices all equal ``matrix`` (time-constant)."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "activity", "year", "value"])
        for year in years:
            for i, country in enumerate(countries):
                for j, activity in enumerate(activities):
                    if matrix[i, j]:
                        writer.writerow([country, activity, year, float(matrix[i, j])])
    return path


def read_records(path: Path, records, layer_kind: str) -> ActivityPanel:
    """Write (country, activity, year, value) records to ``path`` as a panel
    CSV, each value as its ``repr`` so floats round-trip exactly, and read it
    back with ``read_panel_csv``."""
    lines = [f"{c},{a},{y},{v!r}\n" for c, a, y, v in records]
    path.write_text("country,activity,year,value\n" + "".join(lines), encoding="utf-8")
    return read_panel_csv(path, layer_kind)


@pytest.fixture
def planted_panel_files(tmp_path):
    """Time-constant planted panels covering 2010-2013 (for delta=2 runs)."""
    tech, prod = planted_matrices()
    tech_csv = write_constant_panel_csv(
        tmp_path / "tech.csv", tech, PLANTED_COUNTRIES, PLANTED_TECHS,
        range(2010, 2014),
    )
    prod_csv = write_constant_panel_csv(
        tmp_path / "prod.csv", prod, PLANTED_COUNTRIES, PLANTED_PRODUCTS,
        range(2010, 2014),
    )
    return tech_csv, prod_csv


@pytest.fixture
def planted_decade_panel_files(tmp_path):
    """Time-constant planted panels covering 2008-2017 (for delta=5 runs)."""
    tech, prod = planted_matrices()
    tech_csv = write_constant_panel_csv(
        tmp_path / "tech10.csv", tech, PLANTED_COUNTRIES, PLANTED_TECHS,
        range(2008, 2018),
    )
    prod_csv = write_constant_panel_csv(
        tmp_path / "prod10.csv", prod, PLANTED_COUNTRIES, PLANTED_PRODUCTS,
        range(2008, 2018),
    )
    return tech_csv, prod_csv


def random_binary(rng: np.random.Generator, shape, density=0.5) -> np.ndarray:
    return (rng.random(shape) < density).astype(int)


def random_binary_no_empty(rng: np.random.Generator, shape, density=0.5) -> np.ndarray:
    """Random 0/1 matrix with every row and column nonzero."""
    m = random_binary(rng, shape, density)
    for i in range(shape[0]):
        if m[i].sum() == 0:
            m[i, rng.integers(shape[1])] = 1
    for j in range(shape[1]):
        if m[:, j].sum() == 0:
            m[rng.integers(shape[0]), j] = 1
    return m


def null_draws(
    model: BiCMModel, n: int, seed: int, stream_key: tuple[int, ...] = ()
) -> Iterator[np.ndarray]:
    """The model's n Bernoulli layers as the null loop draws a layer: draw i
    compares, link by link, the uniforms of stretch i of the stream of
    (seed, stream_key), one uniform per link, replayed with ``advance``, each
    into a new float64 0/1 array."""
    p = model.link_probabilities
    for i in range(n):
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream_key))
        bits.advance(i * p.size)
        yield (np.random.Generator(bits).random(p.shape) < p).astype(np.float64)


def watch_blocks(monkeypatch, watch) -> None:
    """Patch the null loop's stream so that each block of draws first calls
    ``watch(stream_key, first, count)``: the block's first sample index and
    its number of samples."""
    real = nullmodel._stream

    def stream(seed, stream_key):
        rng, drawn = real(seed, stream_key), [0]

        def random(shape):
            watch(stream_key, drawn[0], shape[0])
            drawn[0] += shape[0]
            return rng.random(shape)

        return SimpleNamespace(random=random)

    monkeypatch.setattr(nullmodel, "_stream", stream)


def blas_threads() -> list[int]:
    """Thread count of each OpenBLAS in the process; skips without one."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("numpy is not linked against OpenBLAS")
    return [get() for get, _ in controls]
