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

# Main-pipeline tiers, weakest to strongest; "90" exists for robustness runs.
TIER_ORDER = ("95", "99", "99.9")


def tier_threshold(tier: str, n_samples: int) -> int:
    """Minimum exceedance count for significance at the tier: ceil(level * N)."""
    level = TIER_LEVELS.get(str(tier))
    if level is None:
        raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(TIER_LEVELS)}")
    return -((-level.numerator * n_samples) // level.denominator)


@dataclass(frozen=True)
class LinkValidation:
    """Validation record for a single technology-product link in one pair."""

    tech_id: str
    product_id: str
    empirical_weight: float
    exceed_count: int
    n_samples: int

    @property
    def exceed_fraction(self) -> float:
        return self.exceed_count / self.n_samples

    @property
    def p_value(self) -> float:
        """Fraction of draws the empirical weight failed to strictly exceed."""
        return (self.n_samples - self.exceed_count) / self.n_samples

    def passes(self, tier: str) -> bool:
        return self.exceed_count >= tier_threshold(tier, self.n_samples)

    @property
    def tiers(self) -> dict[str, bool]:
        return {tier: self.passes(tier) for tier in TIER_ORDER}


@dataclass(frozen=True)
class PairValidation:
    """Per-link exceedance counts for one (technology window, product window) pair."""

    tech_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    empirical: np.ndarray
    exceed_counts: np.ndarray
    n_samples: int
    t1: Optional[int] = None
    t2: Optional[int] = None

    def __post_init__(self):
        shape = (len(self.tech_ids), len(self.product_ids))
        emp = np.asarray(self.empirical, dtype=np.float64)
        counts = np.asarray(self.exceed_counts, dtype=np.int64)
        if emp.shape != shape or counts.shape != shape:
            raise AxisMismatchError("validation matrices do not match axes")
        if counts.min(initial=0) < 0 or counts.max(initial=0) > self.n_samples:
            raise ValueError("exceedance counts must lie in [0, n_samples]")
        object.__setattr__(self, "empirical", emp)
        object.__setattr__(self, "exceed_counts", counts)

    @property
    def p_values(self) -> np.ndarray:
        return (self.n_samples - self.exceed_counts) / self.n_samples

    def tier_mask(self, tier: str) -> np.ndarray:
        return self.exceed_counts >= tier_threshold(tier, self.n_samples)

    def link(self, tech_id: str, product_id: str) -> LinkValidation:
        if tech_id not in self.tech_ids:
            raise AxisMismatchError(f"unknown technology {tech_id!r}")
        if product_id not in self.product_ids:
            raise AxisMismatchError(f"unknown product {product_id!r}")
        i = self.tech_ids.index(tech_id)
        j = self.product_ids.index(product_id)
        return LinkValidation(
            tech_id=tech_id,
            product_id=product_id,
            empirical_weight=float(self.empirical[i, j]),
            exceed_count=int(self.exceed_counts[i, j]),
            n_samples=self.n_samples,
        )


def _shared_axes(validations: Sequence[PairValidation]) -> PairValidation:
    """The first pair, after checking that every pair has its axes."""
    if not validations:
        raise ValueError("need at least one validated pair")
    first = validations[0]
    for other in validations[1:]:
        if other.tech_ids != first.tech_ids or other.product_ids != first.product_ids:
            raise AxisMismatchError("validated pairs do not share axes")
    return first


_TIER_NAMES = np.array([None, *TIER_ORDER], dtype=object)


def _standing(
    validations: Sequence[PairValidation], index=...
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest exceedance fraction over the pairs, and strongest tier passed
    in every pair (None below the weakest), for the cells ``index`` selects."""
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
    return fraction, _TIER_NAMES[level]


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in string order; equal ids share a position."""
    rank = {value: r for r, value in enumerate(sorted(set(ids)))}
    return np.array([rank[value] for value in ids], dtype=np.intp)


@dataclass(frozen=True, eq=False)
class ValidatedNetwork:
    """Directed technology-to-product network surviving all period pairs.

    The network is ``mask``, a boolean matrix over (``tech_ids``,
    ``product_ids``) marking the links significant at ``tier`` in every pair
    of ``validations``. Edge sets and degrees are views of the mask;
    ``edge_arrays`` computes the per-edge values from the pairs' matrices.
    """

    tier: str
    lag: Optional[int]
    pairs: tuple[tuple[Optional[int], Optional[int]], ...]
    tech_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    validations: tuple[PairValidation, ...]
    mask: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def edge_set(self) -> frozenset[tuple[str, str]]:
        rows, cols = np.nonzero(self.mask)
        return frozenset(
            (self.tech_ids[i], self.product_ids[j])
            for i, j in zip(rows.tolist(), cols.tolist())
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
        p-value over the pairs, and the strongest tier passed in every pair."""
        rows, cols = np.nonzero(self.mask)
        order = np.lexsort(
            (_id_ranks(self.product_ids)[cols], _id_ranks(self.tech_ids)[rows])
        )
        rows, cols = rows[order], cols[order]
        weight = sum(v.empirical[rows, cols] for v in self.validations) / len(self.validations)
        p_value = np.maximum.reduce(
            [(v.n_samples - v.exceed_counts[rows, cols]) / v.n_samples
             for v in self.validations]
        )
        _, highest = _standing(self.validations, (rows, cols))
        return rows, cols, weight, p_value, highest


def intersect_pairs(
    validations: Sequence[PairValidation], tier: str
) -> ValidatedNetwork:
    """Keep the links significant at the tier in every period pair."""
    first = _shared_axes(validations)
    tier_threshold(tier, first.n_samples)  # reject unknown tiers up front
    mask = np.ones(first.empirical.shape, dtype=bool)
    for v in validations:
        mask &= v.tier_mask(tier)
    lags = {v.t2 - v.t1 for v in validations if v.t1 is not None and v.t2 is not None}
    lag = lags.pop() if len(lags) == 1 else None
    return ValidatedNetwork(
        tier=str(tier),
        lag=lag,
        pairs=tuple((v.t1, v.t2) for v in validations),
        tech_ids=first.tech_ids,
        product_ids=first.product_ids,
        validations=tuple(validations),
        mask=mask,
    )


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

    @property
    def flagged(self) -> bool:
        return bool(self.unclassified_chapters)


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
    "Unclassified" row and the report is flagged.
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
    product_id: str, validations: PairValidation | Sequence[PairValidation]
) -> tuple[ProfileEntry, ...]:
    """All technologies' exceedance standing for one product.

    With several pairs the reported fraction is the smallest across pairs and
    a tier counts as passed only when passed in every pair, matching the
    network's intersection rule.
    """
    if isinstance(validations, PairValidation):
        validations = [validations]
    first = _shared_axes(validations)
    if product_id not in first.product_ids:
        raise AxisMismatchError(f"unknown product {product_id!r}")
    j = first.product_ids.index(product_id)
    fraction, highest = _standing(validations, (slice(None), j))
    return tuple(map(ProfileEntry, first.tech_ids, fraction.tolist(), highest.tolist()))
