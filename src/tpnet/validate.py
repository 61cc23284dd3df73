"""Monte Carlo link validation, significance tiers, and network assembly.

A link is significant at a tier when its empirical weight strictly exceeds
the null weight in at least ceil(level * N) of the N draws; ties count
against significance. All threshold arithmetic is integer (counts against
exact rational levels), never floating fractions. The final network keeps
only links significant at the chosen tier in every configured period pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import AxisMismatchError

TIER_LEVELS: dict[str, Fraction] = {
    "90": Fraction(90, 100),
    "95": Fraction(95, 100),
    "99": Fraction(99, 100),
    "99.9": Fraction(999, 1000),
}

# The largest sample count: the null loop's counts and tallies are int32.
# A pair holds its counts as uint16 up to 65,535 samples and as uint32 above.
MAX_SAMPLES = np.iinfo(np.int32).max

# Main-pipeline tiers, weakest to strongest; "90" exists for robustness runs.
TIER_ORDER = ("95", "99", "99.9")


def tier_threshold(tier: str, n_samples: int) -> int:
    """Minimum exceedance count for significance at the tier: ceil(level * N)."""
    level = TIER_LEVELS.get(str(tier))
    if level is None:
        raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(TIER_LEVELS)}")
    return -((-level.numerator * n_samples) // level.denominator)


@dataclass(frozen=True)
class PairValidation:
    """Per-link exceedance counts for one pair of a technology window ending
    in year ``t1`` and a product window ending in year ``t2``."""

    tech_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    exceed_counts: np.ndarray
    n_samples: int
    t1: int
    t2: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be <= {MAX_SAMPLES}, got {self.n_samples}")
        counts = np.asarray(self.exceed_counts)
        if counts.dtype.kind not in "iu":  # refuse floats and bools, never truncate them
            raise ValueError(f"exceedance counts must be integers, got dtype {counts.dtype}")
        if counts.shape != (len(self.tech_ids), len(self.product_ids)):
            raise AxisMismatchError("validation matrices do not match axes")
        if counts.min(initial=0) < 0 or counts.max(initial=0) > self.n_samples:
            raise ValueError("exceedance counts must lie in [0, n_samples]")
        # narrowed only once in range, so no count wraps
        narrow = np.uint16 if self.n_samples <= np.iinfo(np.uint16).max else np.uint32
        object.__setattr__(self, "exceed_counts", counts.astype(narrow, copy=False))

    def tier_mask(self, tier: str) -> np.ndarray:
        return self.exceed_counts >= tier_threshold(tier, self.n_samples)


def _shared_axes(validations: Sequence[PairValidation]) -> PairValidation:
    """The first pair, after checking that every pair has its axes."""
    if not validations:
        raise ValueError("need at least one validated pair")
    first = validations[0]
    for other in validations[1:]:
        if other.tech_ids != first.tech_ids or other.product_ids != first.product_ids:
            raise AxisMismatchError("validated pairs do not share axes")
    return first


# Tier level k names TIER_ORDER[k - 1]; level 0 is below every tier.
_TIER_NAMES = np.array([None, *TIER_ORDER], dtype=object)


def _standing(
    validations: Sequence[PairValidation], index=...
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest exceedance fraction over the pairs, and the level of the
    strongest tier passed in every pair, for the cells ``index`` selects."""
    counts = [v.exceed_counts[index] for v in validations]
    fraction = np.minimum.reduce(
        [c / v.n_samples for c, v in zip(counts, validations)]
    )
    level = np.zeros(fraction.shape, dtype=np.intp)
    for k, tier in enumerate(TIER_ORDER, start=1):
        passed = np.logical_and.reduce(
            [c >= tier_threshold(tier, v.n_samples) for c, v in zip(counts, validations)]
        )
        level[passed] = k
    return fraction, level


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in string order; equal ids share a position."""
    rank = {value: r for r, value in enumerate(sorted(set(ids)))}
    return np.array([rank[value] for value in ids], dtype=np.intp)


@dataclass(frozen=True, eq=False)
class ValidatedNetwork:
    """Directed technology-to-product network surviving all period pairs.

    The network is ``mask``, a boolean matrix over the pairs' (tech, product)
    axes marking the links significant at ``tier`` in every pair of
    ``validations``, and ``weights``, each edge's empirical weight averaged
    over the pairs, in ``np.nonzero(mask)`` order. The axes, the pairs' years
    and the lag are read from the pairs; edge sets and degrees are views of
    the mask; ``edge_arrays`` computes the other per-edge values from the
    pairs' counts.
    """

    tier: str
    validations: tuple[PairValidation, ...]
    mask: np.ndarray
    weights: np.ndarray

    @property
    def tech_ids(self) -> tuple[str, ...]:
        return self.validations[0].tech_ids

    @property
    def product_ids(self) -> tuple[str, ...]:
        return self.validations[0].product_ids

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((v.t1, v.t2) for v in self.validations)

    @property
    def lag(self) -> Optional[int]:
        """t2 - t1, when all pairs share one lag."""
        lags = {t2 - t1 for t1, t2 in self.pairs}
        return lags.pop() if len(lags) == 1 else None

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def edge_set(self) -> frozenset[tuple[str, str]]:
        tech_ids, product_ids = self.tech_ids, self.product_ids
        rows, cols = np.nonzero(self.mask)
        return frozenset(
            (tech_ids[i], product_ids[j]) for i, j in zip(rows.tolist(), cols.tolist())
        )

    def tech_degrees(self) -> dict[str, int]:
        return dict(zip(self.tech_ids, np.count_nonzero(self.mask, axis=1).tolist()))

    def product_degrees(self) -> dict[str, int]:
        return dict(zip(self.product_ids, np.count_nonzero(self.mask, axis=0).tolist()))

    def edge_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per edge, in (tech_id, product_id) order: the tech and product axis
        positions, the empirical weight averaged over the pairs, the largest
        p-value over the pairs, and the strongest tier passed in every pair
        (None below the weakest)."""
        rows, cols = np.nonzero(self.mask)
        order = np.lexsort(
            (_id_ranks(self.product_ids)[cols], _id_ranks(self.tech_ids)[rows])
        )
        rows, cols = rows[order], cols[order]
        # int64 before n - counts, so no difference wraps in the counts' dtype
        p_value = np.maximum.reduce(
            [(v.n_samples - v.exceed_counts[rows, cols].astype(np.int64)) / v.n_samples
             for v in self.validations]
        )
        _, level = _standing(self.validations, (rows, cols))
        return rows, cols, self.weights[order], p_value, _TIER_NAMES[level]


def intersect_pairs(
    validations: Sequence[PairValidation], tier: str, empirical: Sequence[np.ndarray]
) -> ValidatedNetwork:
    """Keep the links significant at the tier in every period pair, with
    each one's weight in ``empirical``, the pairs' matrices in their order,
    averaged over the pairs. No matrix is kept."""
    first = _shared_axes(validations)
    tier_threshold(tier, first.n_samples)  # reject unknown tiers up front
    if len(empirical) != len(validations):
        raise ValueError(f"{len(validations)} pairs but {len(empirical)} empirical matrices")
    shape = first.exceed_counts.shape
    empirical = [np.asarray(e, dtype=np.float64) for e in empirical]
    if any(e.shape != shape for e in empirical):
        raise AxisMismatchError("empirical matrices do not match the pairs' axes")
    mask = np.ones(shape, dtype=bool)
    for v in validations:
        mask &= v.tier_mask(tier)
    rows, cols = np.nonzero(mask)
    weights = sum(e[rows, cols] for e in empirical) / len(empirical)
    return ValidatedNetwork(tier=str(tier), validations=tuple(validations), mask=mask,
                            weights=weights)


UNCLASSIFIED = "Unclassified"


def load_hs_sections() -> dict[str, str]:
    """Bundled mapping from 2-digit product chapter to section name."""
    text = resources.files("tpnet.data").joinpath("hs_sections.csv").read_text("utf-8")
    return {row["chapter"]: row["section"] for row in csv.DictReader(text.splitlines())}


def product_chapter(product_id: str) -> str:
    """Leading 2-character chapter code of a product id."""
    return product_id[:2]


@dataclass(frozen=True)
class SectionRow:
    section: str
    chapters: str
    products_in_axis: int
    nodes: int
    node_pct: float
    edges: int
    edge_pct: float


@dataclass(frozen=True)
class DegreeReport:
    """Per-section product node/edge accounting for one network."""

    rows: tuple[SectionRow, ...]
    total_nodes: int
    total_edges: int
    unclassified_chapters: tuple[str, ...] = ()


def _chapter_ranges(chapters: Sequence[str]) -> str:
    """Collapse sorted 2-digit chapter codes into range notation like 01-05,08."""
    nums = sorted(chapters)
    parts: list[str] = []
    start = prev = None
    for ch in nums:
        if start is None:
            start = prev = ch
            continue
        contiguous = ch.isdigit() and prev.isdigit() and int(ch) == int(prev) + 1
        if contiguous:
            prev = ch
        else:
            parts.append(start if start == prev else f"{start}-{prev}")
            start = prev = ch
    if start is not None:
        parts.append(start if start == prev else f"{start}-{prev}")
    return ",".join(parts)


def degree_report(
    net: ValidatedNetwork, product_sections: Mapping[str, str]
) -> DegreeReport:
    """Count product nodes and edges per section, with shares of the totals.

    Products whose chapter is missing from the mapping land in an
    "Unclassified" row, and their chapters are named in
    ``unclassified_chapters``.
    """
    product_degrees = net.product_degrees()
    unclassified: set[str] = set()
    sections: dict[str, dict] = {}
    for product in net.product_ids:
        chapter = product_chapter(product)
        section = product_sections.get(chapter)
        if section is None:
            unclassified.add(chapter)
            section = UNCLASSIFIED
        entry = sections.setdefault(
            section, {"chapters": set(), "axis": 0, "nodes": 0, "edges": 0}
        )
        entry["axis"] += 1
        entry["chapters"].add(chapter)
        deg = product_degrees[product]
        if deg > 0:
            entry["nodes"] += 1
            entry["edges"] += deg

    total_nodes = sum(e["nodes"] for e in sections.values())
    total_edges = sum(e["edges"] for e in sections.values())

    def order_key(item):
        name, entry = item
        if name == UNCLASSIFIED:
            return ("1", "")
        return ("0", min(entry["chapters"]))

    rows = []
    for name, entry in sorted(sections.items(), key=order_key):
        mapped = [ch for ch, sec in product_sections.items() if sec == name]
        chapters = mapped if mapped else sorted(entry["chapters"])
        rows.append(
            SectionRow(
                section=name,
                chapters=_chapter_ranges(chapters),
                products_in_axis=entry["axis"],
                nodes=entry["nodes"],
                node_pct=entry["nodes"] / total_nodes * 100 if total_nodes else 0.0,
                edges=entry["edges"],
                edge_pct=entry["edges"] / total_edges * 100 if total_edges else 0.0,
            )
        )
    return DegreeReport(
        rows=tuple(rows),
        total_nodes=total_nodes,
        total_edges=total_edges,
        unclassified_chapters=tuple(sorted(unclassified)),
    )


@dataclass(frozen=True)
class ProfileEntry:
    """One technology's standing against a single product."""

    tech_id: str
    exceed_fraction: float
    highest_tier: Optional[str]


def significance_profile(
    product_id: str, validations: Sequence[PairValidation]
) -> tuple[ProfileEntry, ...]:
    """All technologies' exceedance standing for one product over a
    sequence of pairs.

    The reported fraction is the smallest across pairs and a tier counts as
    passed only when passed in every pair, matching the network's
    intersection rule.
    """
    first = _shared_axes(validations)
    if product_id not in first.product_ids:
        raise AxisMismatchError(f"unknown product {product_id!r}")
    j = first.product_ids.index(product_id)
    fraction, level = _standing(validations, (slice(None), j))
    return tuple(
        map(ProfileEntry, first.tech_ids, fraction.tolist(), _TIER_NAMES[level].tolist())
    )
