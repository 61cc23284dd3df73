"""Yearly country-activity data panels: loading, windowing, axis alignment.

A panel holds one layer (technology or product) as a stack of dense yearly
country x activity matrices with labeled, lexicographically sorted axes.
Axis ordering is canonical so every downstream matrix is reproducible
bit-for-bit across runs. Missing cells are zeros: absence of a record means
no activity, not missing data.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AxisMismatchError, PanelError, WindowError

LAYER_KINDS = ("technology", "product")

PANEL_CSV_HEADER = ("country", "activity", "year", "value")


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=np.float64)
    out.setflags(write=False)
    return out


def _check_layer_kind(layer_kind: str) -> None:
    if layer_kind not in LAYER_KINDS:
        raise PanelError(f"layer_kind must be one of {LAYER_KINDS}, got {layer_kind!r}")


def _check_no_duplicates(ids: Sequence[str], what: str) -> None:
    dups = sorted(i for i, n in Counter(ids).items() if n > 1)
    if dups:
        raise PanelError(f"duplicate {what} labels: {dups}")


@dataclass(frozen=True)
class ActivityPanel:
    """Yearly weighted country x activity matrices for one layer."""

    layer_kind: str
    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    years: tuple[int, ...]
    values: Mapping[int, np.ndarray]

    def __post_init__(self):
        _check_layer_kind(self.layer_kind)
        _check_no_duplicates(self.country_ids, "country")
        _check_no_duplicates(self.activity_ids, "activity")
        shape = (len(self.country_ids), len(self.activity_ids))
        frozen: dict[int, np.ndarray] = {}
        for year in self.years:
            if year not in self.values:
                raise PanelError(f"missing matrix for year {year}")
            mat = np.asarray(self.values[year], dtype=np.float64)
            if mat.shape != shape:
                raise PanelError(
                    f"year {year}: matrix shape {mat.shape} does not match axes {shape}"
                )
            if not np.all(np.isfinite(mat)) or np.any(mat < 0):
                raise PanelError(f"year {year}: values must be finite and >= 0")
            frozen[year] = _frozen(mat)
        object.__setattr__(self, "values", MappingProxyType(frozen))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.country_ids), len(self.activity_ids))


@dataclass(frozen=True)
class WindowedMatrix:
    """Sum of a panel's yearly matrices over the window ending at ``end_year``."""

    layer_kind: str
    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    delta: int
    end_year: int
    values: np.ndarray

    def __post_init__(self):
        _check_layer_kind(self.layer_kind)
        if self.delta < 1:
            raise WindowError(f"window length must be >= 1, got {self.delta}")
        mat = np.asarray(self.values, dtype=np.float64)
        if mat.shape != (len(self.country_ids), len(self.activity_ids)):
            raise PanelError("window matrix shape does not match axes")
        object.__setattr__(self, "values", _frozen(mat))

    def restrict_countries(self, keep: Sequence[str]) -> "WindowedMatrix":
        idx = _country_indices(self.country_ids, keep)
        return replace(self, country_ids=tuple(keep), values=self.values[idx, :])


def _country_indices(country_ids: Sequence[str], keep: Sequence[str]) -> list[int]:
    pos = {c: i for i, c in enumerate(country_ids)}
    missing = [c for c in keep if c not in pos]
    if missing:
        raise AxisMismatchError(f"countries not present in matrix: {missing}")
    return [pos[c] for c in keep]


def _ingest(records: Iterable, layer_kind: str, no_data: str, bad) -> ActivityPanel:
    """Parse, check and accumulate (country, activity, year, value) records in one pass.

    ``bad(what, raw, record)`` builds the error for a record that fails a check.
    ``bincount`` adds in input order, so duplicate keys sum as a running sum.
    """
    _check_layer_kind(layer_kind)
    axes = y_pos, c_pos, a_pos = {}, {}, {}  # label -> first-seen index
    seen = y_idx, c_idx, a_idx = array("q"), array("q"), array("q")
    weights = array("d")
    for record in records:
        try:
            country, activity, year_raw, value_raw = record
        except (TypeError, ValueError):
            raise PanelError(f"record is not a (country, activity, year, value) tuple: {record!r}")
        try:
            year = int(str(year_raw))
        except ValueError:
            raise bad("unparseable year", year_raw, record)
        try:
            value = float(value_raw)
        except (TypeError, ValueError):
            raise bad("non-numeric value", value_raw, record)
        if not math.isfinite(value):
            raise bad("non-finite value", value_raw, record)
        if value < 0:
            raise bad("negative value", value_raw, record)
        y_idx.append(y_pos.setdefault(year, len(y_pos)))
        c_idx.append(c_pos.setdefault(str(country), len(c_pos)))
        a_idx.append(a_pos.setdefault(str(activity), len(a_pos)))
        weights.append(value)
    if not weights:
        raise PanelError(no_data)
    years, countries, activities = labels = [tuple(sorted(pos)) for pos in axes]
    # first-seen index -> sorted index: argsort inverts "sorted index -> first-seen index"
    ranks = [np.argsort([pos[x] for x in order]) for pos, order in zip(axes, labels)]
    shape = tuple(map(len, labels))
    flat = np.ravel_multi_index([r[np.frombuffer(i, np.int64)] for r, i in zip(ranks, seen)], shape)
    block = np.bincount(flat, weights=np.frombuffer(weights), minlength=math.prod(shape))
    values = dict(zip(years, block.reshape(shape)))
    return ActivityPanel(layer_kind, countries, activities, years, values)


def load_panel(
    records: Iterable[tuple[str, str, object, object]], layer_kind: str
) -> ActivityPanel:
    """Build a dense panel from long-format (country, activity, year, value) records.

    Duplicate (country, activity, year) keys are summed. Axes come out sorted
    lexicographically, years ascending, and unrecorded cells are 0.
    """
    return _ingest(records, layer_kind, "no records to load",
                   lambda what, raw, record: PanelError(f"{what} in record {record!r}"))


def read_panel_csv(path: str | Path, layer_kind: str) -> ActivityPanel:
    """Read a UTF-8 CSV with header ``country,activity,year,value`` into a panel.

    A leading byte-order mark is ignored, blank lines are skipped, and
    whitespace around the fields is ignored.
    """
    path = Path(path)
    if not path.is_file():
        raise PanelError(f"{path}: no such file")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError(f"{path}: file is empty")
        if tuple(h.strip().lower() for h in header) != PANEL_CSV_HEADER:
            raise PanelError(
                f"{path}: expected header {','.join(PANEL_CSV_HEADER)!r}, got {','.join(header)!r}"
            )

        def rows():
            # int() and float() skip whitespace themselves: only the labels
            # are stripped, and only a row without 4 fields or a year can be blank.
            for row in reader:
                if len(row) != 4 or not row[2].strip():
                    if not "".join(row).strip():
                        continue
                    if len(row) != 4:
                        raise PanelError(f"{path}:{reader.line_num}: expected 4 fields, got {len(row)}")
                country, activity, year, value = row
                yield country.strip(), activity.strip(), year, value

        return _ingest(rows(), layer_kind, f"{path}: no data rows",
                       lambda what, raw, _: PanelError(f"{path}:{reader.line_num}: {what} {raw.strip()!r}"))


def aggregate_window(panel: ActivityPanel, delta: int, end_year: int) -> WindowedMatrix:
    """Sum the yearly matrices over [end_year - delta + 1, end_year]."""
    if delta < 1:
        raise WindowError(f"window length must be >= 1, got {delta}")
    wanted = range(end_year - delta + 1, end_year + 1)
    missing = sorted(set(wanted) - set(panel.years))
    if missing:
        raise WindowError(
            f"{panel.layer_kind} panel is missing years {missing} for the "
            f"{delta}-year window ending {end_year}"
        )
    total = np.zeros(panel.shape)
    for year in wanted:
        total += panel.values[year]
    return WindowedMatrix(
        layer_kind=panel.layer_kind,
        country_ids=panel.country_ids,
        activity_ids=panel.activity_ids,
        delta=delta,
        end_year=end_year,
        values=total,
    )


def aggregate_activities(panel: ActivityPanel, prefix_len: int) -> ActivityPanel:
    """Sum activity columns that share the same code prefix of ``prefix_len`` chars.

    Used to coarsen product codes (e.g. 6-digit subheadings to 2-digit
    chapters). Codes shorter than the prefix are kept whole, so re-aggregating
    at or above the native code length is a no-op.
    """
    if prefix_len < 1:
        raise PanelError(f"prefix_len must be >= 1, got {prefix_len}")
    groups: dict[str, list[int]] = {}
    for j, activity in enumerate(panel.activity_ids):
        groups.setdefault(activity[:prefix_len], []).append(j)
    new_ids = tuple(sorted(groups))
    if new_ids == panel.activity_ids:
        return panel
    values = {}
    for year in panel.years:
        mat = panel.values[year]
        out = np.zeros((len(panel.country_ids), len(new_ids)))
        for k, code in enumerate(new_ids):
            out[:, k] = mat[:, groups[code]].sum(axis=1)
        values[year] = out
    return ActivityPanel(panel.layer_kind, panel.country_ids, new_ids, panel.years, values)


def align_countries(tech, prod):
    """Restrict two matrices to the sorted intersection of their country sets.

    Works on any matrix type carrying ``country_ids`` and a
    ``restrict_countries`` method (windowed, RCA, or binary matrices).
    Column axes are untouched. Returns the two restricted matrices and the
    common country list.
    """
    common = tuple(sorted(set(tech.country_ids) & set(prod.country_ids)))
    if not common:
        raise AxisMismatchError("the two layers share no countries")
    if tech.country_ids == common and prod.country_ids == common:
        return tech, prod, common
    return tech.restrict_countries(common), prod.restrict_countries(common), common
