"""Revealed comparative advantage and binary specialization matrices.

RCA compares an entity's share of an activity with the world share of that
activity; values of at least 1 mark competitive specialization. Cells with
zero weight get RCA 0: absence of activity cannot reveal comparative
advantage, so 0/0 is defined as non-specialization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import AllZeroError, AxisMismatchError, PanelError
from .panels import WindowedMatrix, _frozen


@dataclass(frozen=True)
class RcaMatrix:
    """Country x activity matrix of specialization ratios (dimensionless)."""

    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.values, dtype=np.float64)
        if mat.shape != (len(self.country_ids), len(self.activity_ids)):
            raise PanelError("RCA matrix shape does not match axes")
        if not np.all(np.isfinite(mat)) or np.any(mat < 0):
            raise PanelError("RCA values must be finite and >= 0")
        object.__setattr__(self, "values", _frozen(mat))


@dataclass(frozen=True)
class BinaryMatrix:
    """Country x activity 0/1 specialization matrix.

    Row sums are country diversification, column sums activity ubiquity;
    both are recomputed on demand so restrictions can never leave them stale.
    """

    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.values)
        if mat.shape != (len(self.country_ids), len(self.activity_ids)):
            raise PanelError("binary matrix shape does not match axes")
        if not np.isin(mat, (0, 1)).all():
            raise PanelError("binary matrix entries must be 0 or 1")
        out = np.ascontiguousarray(mat, dtype=np.int8)
        out.setflags(write=False)
        object.__setattr__(self, "values", out)

    @property
    def diversification(self) -> np.ndarray:
        """Per-country number of specializations (row sums)."""
        return self.values.sum(axis=1, dtype=np.int64)

    @property
    def ubiquity(self) -> np.ndarray:
        """Per-activity number of specialized countries (column sums)."""
        return self.values.sum(axis=0, dtype=np.int64)

    def restrict_countries(self, keep: Sequence[str]) -> "BinaryMatrix":
        pos = {c: i for i, c in enumerate(self.country_ids)}
        missing = [c for c in keep if c not in pos]
        if missing:
            raise AxisMismatchError(f"countries not present in matrix: {missing}")
        idx = [pos[c] for c in keep]
        return replace(self, country_ids=tuple(keep), values=self.values[idx, :])


def compute_rca(window: WindowedMatrix) -> RcaMatrix:
    """Specialization ratios: (cell / row total) over (column total / grand total).

    Rows or columns with no weight yield all-zero RCA rows/columns. The
    result is invariant under global rescaling of the weights.
    """
    weights = window.values
    total = weights.sum()
    if total == 0:
        raise AllZeroError(
            f"cannot compute specialization ratios for an all-zero "
            f"{window.layer_kind} matrix (window ending {window.end_year})"
        )
    row_totals = weights.sum(axis=1, keepdims=True)
    col_totals = weights.sum(axis=0, keepdims=True)
    shares = np.divide(weights, row_totals, out=np.zeros_like(weights), where=row_totals > 0)
    world = col_totals / total
    rca = np.divide(shares, world, out=np.zeros_like(shares), where=world > 0)
    return RcaMatrix(window.country_ids, window.activity_ids, rca)


def binarize(rca: RcaMatrix) -> BinaryMatrix:
    """Specialization as a 0/1 matrix by the one fixed rule: a cell is 1
    where its RCA is at least 1 (inclusive), else 0."""
    return BinaryMatrix(rca.country_ids, rca.activity_ids, (rca.values >= 1.0).astype(np.int8))
