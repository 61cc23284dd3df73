"""Deterministic synthetic panels for the benchmark.

A cell (country c, activity i) is present with probability
``0.6 * a_c * b_i``, with ``a`` and ``b`` drawn uniform on [0, 1), so both
layers have nested, heterogeneous densities. The uniforms are stratified
(one draw in each of n equal slices, in random order), so the overall
density, and with it the work a run does, barely moves from seed to seed. A present cell is present in
every year and carries a lognormal base weight times a yearly lognormal
jitter (sigma 0.3), so windows ending in different years binarize
differently. Product ids start with a 2-digit chapter taken from the
package's own section table, the way real HS codes do.

The program under test only ever sees the CSV files this module writes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

YEARS = tuple(range(2008, 2018))
PRESENCE_SCALE = 0.6
JITTER_SIGMA = 0.3


@dataclass(frozen=True)
class Shape:
    countries: int
    technologies: int
    products: int
    product_digits: int


@dataclass(frozen=True)
class LayerFile:
    path: Path
    rows: int
    # Present cells per year: each is one nonzero entry of every yearly matrix.
    cells: int
    # Ids holding at least one present cell, sorted: the axes a loader must see.
    countries: tuple[str, ...]
    activities: tuple[str, ...]


@dataclass(frozen=True)
class PanelFiles:
    technology: LayerFile
    product: LayerFile

    @property
    def rows(self) -> int:
        return self.technology.rows + self.product.rows


def read_chapters(sections_csv: Path) -> list[str]:
    with sections_csv.open(newline="", encoding="utf-8") as fh:
        return [row["chapter"] for row in csv.DictReader(fh)]


def product_ids(n: int, digits: int, chapters: list[str]) -> tuple[str, ...]:
    suffix = digits - 2
    return tuple(
        f"{chapters[j % len(chapters)]}{j // len(chapters):0{suffix}d}"
        for j in range(n)
    )


def stratified_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.permutation(n) + rng.random(n)) / n


def _write_layer(
    path: Path,
    rng: np.random.Generator,
    a: np.ndarray,
    countries: tuple[str, ...],
    activities: tuple[str, ...],
) -> LayerFile:
    b = stratified_uniform(rng, len(activities))
    present = rng.random((len(countries), len(activities))) < PRESENCE_SCALE * np.outer(a, b)
    rows, cols = np.nonzero(present)
    base = rng.lognormal(mean=3.0, sigma=1.5, size=rows.size)
    prefix = [f"{countries[r]},{activities[c]}," for r, c in zip(rows, cols)]
    lines = ["country,activity,year,value"]
    for year in YEARS:
        jitter = rng.lognormal(mean=0.0, sigma=JITTER_SIGMA, size=rows.size)
        lines.extend(
            f"{p}{year},{v!r}" for p, v in zip(prefix, (base * jitter).tolist())
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return LayerFile(
        path=path,
        rows=rows.size * len(YEARS),
        cells=int(rows.size),
        countries=tuple(sorted(countries[r] for r in np.unique(rows))),
        activities=tuple(sorted(activities[c] for c in np.unique(cols))),
    )


def write_panels(shape: Shape, seed: int, out_dir: Path, sections_csv: Path) -> PanelFiles:
    """Write the technology and product panel CSVs for ``seed`` into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    countries = tuple(f"C{c:03d}" for c in range(shape.countries))
    techs = tuple(f"{'ABCDEFGH'[j % 8]}{j:04d}" for j in range(shape.technologies))
    prods = product_ids(shape.products, shape.product_digits, read_chapters(sections_csv))
    a = stratified_uniform(rng, shape.countries)
    return PanelFiles(
        technology=_write_layer(out_dir / "technology.csv", rng, a, countries, techs),
        product=_write_layer(out_dir / "product.csv", rng, a, countries, prods),
    )
