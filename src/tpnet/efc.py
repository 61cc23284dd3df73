"""Nonlinear fitness-complexity iteration and complexity-ordered link curves.

Each iteration sums complexities into country fitness and takes the harmonic
contraction of fitness into activity complexity, then rescales both vectors
to unit mean. Because values can keep drifting while their order is already
settled, the stopping rule is rank stability: the run ends once the full
fitness and complexity rankings have not changed for a window of consecutive
iterations. Only rankings are consumed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import AllZeroError, AxisMismatchError
from .rca import BinaryMatrix
from .validate import ValidatedNetwork, _id_ranks

DEFAULT_MAX_ITERATIONS = 5000
DEFAULT_RANK_STABILITY_WINDOW = 50

SIDES = ("technology", "product")


def _ranking_order(id_ranks: np.ndarray, scores: np.ndarray) -> tuple[int, ...]:
    """Indices ordered by descending score; exact ties break by ascending id,
    given as each id's position in string order (``_id_ranks``)."""
    return tuple(np.lexsort((id_ranks, -scores)).tolist())


@dataclass(frozen=True)
class FitnessComplexity:
    """Converged (rank-stable) fitness and complexity values with rankings."""

    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    fitness: np.ndarray
    complexity: np.ndarray
    iterations_run: int
    rank_stable: bool
    mean_history: tuple[tuple[float, float], ...] = ()

    @property
    def activity_rank(self) -> dict[str, int]:
        """Rank 1 = most complex activity."""
        order = _ranking_order(_id_ranks(self.activity_ids), self.complexity)
        return {self.activity_ids[idx]: pos + 1 for pos, idx in enumerate(order)}

    @property
    def country_rank(self) -> dict[str, int]:
        """Rank 1 = fittest country."""
        order = _ranking_order(_id_ranks(self.country_ids), self.fitness)
        return {self.country_ids[idx]: pos + 1 for pos, idx in enumerate(order)}


def run_efc(
    m: BinaryMatrix,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    rank_stability_window: int = DEFAULT_RANK_STABILITY_WINDOW,
    track_means: bool = False,
) -> FitnessComplexity:
    """Iterate fitness/complexity from flat starts until ranks are stable.

    The matrix must have no all-zero rows or columns (strip them first, e.g.
    via rank_activities). A run that exhausts max_iterations without a stable
    ranking streak is returned flagged, not raised.
    """
    values = np.asarray(m.values, dtype=np.float64)
    if values.size == 0:
        raise AllZeroError("cannot rank an empty matrix")
    if (values.sum(axis=1) == 0).any() or (values.sum(axis=0) == 0).any():
        raise AllZeroError(
            "matrix has all-zero rows or columns; strip them before ranking"
        )
    n_countries, n_activities = values.shape
    held = values != 0
    fitness = np.ones(n_countries)
    complexity = np.ones(n_activities)
    country_ranks = _id_ranks(m.country_ids)
    activity_ranks = _id_ranks(m.activity_ids)
    prev_orders = (
        _ranking_order(country_ranks, fitness),
        _ranking_order(activity_ranks, complexity),
    )
    streak = 0
    stable = False
    iterations = 0
    means: list[tuple[float, float]] = []
    for iterations in range(1, max_iterations + 1):
        # reduce instead of matmul: identical rows/columns must get bitwise
        # identical sums, or exact rank ties jitter by 1 ulp and never settle
        raw_fitness = np.add.reduce(values * complexity[None, :], axis=1)
        # low fitness can underflow to exact 0 on long runs; its reciprocal
        # is inf, which must only reach columns the country actually holds
        with np.errstate(divide="ignore", over="ignore"):
            inv_fitness = 1.0 / fitness
            harmonic = np.add.reduce(
                np.where(held, inv_fitness[:, None], 0.0), axis=0
            )
            raw_complexity = 1.0 / harmonic
        fitness = raw_fitness / raw_fitness.mean()
        complexity = raw_complexity / raw_complexity.mean()
        if track_means:
            means.append((float(fitness.mean()), float(complexity.mean())))
        orders = (
            _ranking_order(country_ranks, fitness),
            _ranking_order(activity_ranks, complexity),
        )
        if orders == prev_orders:
            streak += 1
        else:
            streak = 0
        prev_orders = orders
        if streak >= rank_stability_window:
            stable = True
            break
    return FitnessComplexity(
        country_ids=m.country_ids,
        activity_ids=m.activity_ids,
        fitness=fitness,
        complexity=complexity,
        iterations_run=iterations,
        rank_stable=stable,
        mean_history=tuple(means),
    )


@dataclass(frozen=True)
class ActivityRanking:
    """Complexity ranking of one layer's activities, rank 1 = most complex.

    Activities stripped before the iteration (zero rows or columns) share the
    worst rank and are listed in ``stripped``.
    """

    kind: str
    ranks: Mapping[str, int]
    stripped: tuple[str, ...] = ()

    def positions_ascending_complexity(self) -> tuple[str, ...]:
        """Activity ids from least to most complex; rank ties break by id."""
        return tuple(
            sorted(self.ranks, key=lambda a: (-self.ranks[a], a))
        )

    def __contains__(self, activity_id: str) -> bool:
        return activity_id in self.ranks

    def __len__(self) -> int:
        return len(self.ranks)


def rank_activities(m: BinaryMatrix) -> tuple[ActivityRanking, FitnessComplexity]:
    """Rank a layer's activities, stripping empty rows/columns first.

    Stripped activities tie at the worst rank; stripped countries are simply
    excluded from the iteration. Returns the ranking and the underlying fit on
    the stripped matrix.
    """
    ubiquity = m.ubiquity
    keep_rows = [i for i, d in enumerate(m.diversification) if d > 0]
    keep_cols = [j for j, u in enumerate(ubiquity) if u > 0]
    if not keep_rows or not keep_cols:
        raise AllZeroError("matrix has no nonzero rows or columns to rank")
    stripped = tuple(a for a, u in zip(m.activity_ids, ubiquity) if u == 0)
    core = BinaryMatrix(
        layer_kind=m.layer_kind,
        country_ids=tuple(m.country_ids[i] for i in keep_rows),
        activity_ids=tuple(m.activity_ids[j] for j in keep_cols),
        values=m.values[np.ix_(keep_rows, keep_cols)],
        delta=m.delta,
        end_year=m.end_year,
    )
    result = run_efc(core)
    ranks = dict(result.activity_rank)
    worst = len(ranks) + 1
    for activity in stripped:
        ranks[activity] = worst
    return ActivityRanking(kind=m.layer_kind, ranks=ranks, stripped=stripped), result


@dataclass(frozen=True)
class CurvePoint:
    position: int
    activity_id: str
    degree_base: int
    degree_lagged: int
    cumulative: int
    quartile_label: Optional[str] = None


@dataclass(frozen=True)
class LinkDifferenceCurve:
    """Running link-count difference over activities ordered by complexity."""

    side: str
    points: tuple[CurvePoint, ...]
    quartile_positions: dict[str, int]

    @property
    def final_value(self) -> int:
        return self.points[-1].cumulative if self.points else 0


def cumulative_link_difference(
    net_base: ValidatedNetwork,
    net_lagged: ValidatedNetwork,
    ranking: ActivityRanking,
    side: str,
) -> LinkDifferenceCurve:
    """Cumulative (lagged minus base) degree difference along the complexity axis.

    Positions run from least to most complex, so gains concentrated on complex
    activities push the curve up only near its right end. Quartile boundary
    positions are measured from the most-complex end: the "25%" label marks
    where the top quarter of the ranking begins.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if side == "technology":
        deg_base = net_base.tech_degrees()
        deg_lagged = net_lagged.tech_degrees()
    else:
        deg_base = net_base.product_degrees()
        deg_lagged = net_lagged.product_degrees()
    connected = {a for a, d in deg_base.items() if d > 0}
    connected |= {a for a, d in deg_lagged.items() if d > 0}
    missing = sorted(a for a in connected if a not in ranking)
    if missing:
        raise AxisMismatchError(
            f"{side} nodes missing from the complexity ranking: {missing}"
        )
    positions = ranking.positions_ascending_complexity()
    n = len(positions)
    boundaries = {
        f"{q}%": n - (q * n) // 100 for q in (25, 50, 75)
    }
    label_at = {pos: label for label, pos in sorted(boundaries.items())}
    points = []
    running = 0
    for k, activity in enumerate(positions, start=1):
        base = deg_base.get(activity, 0)
        lagged = deg_lagged.get(activity, 0)
        running += lagged - base
        points.append(
            CurvePoint(
                position=k,
                activity_id=activity,
                degree_base=base,
                degree_lagged=lagged,
                cumulative=running,
                quartile_label=label_at.get(k),
            )
        )
    return LinkDifferenceCurve(
        side=side, points=tuple(points), quartile_positions=boundaries
    )
