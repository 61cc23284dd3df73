"""Maximum-entropy null model for binary bipartite layers.

Fits one positive multiplier per country and per activity so that under
independent links with probability p = x*y / (1 + x*y) the expected row and
column degrees match the observed ones. The solve runs on a reduced system:
zero-degree nodes are pinned to probability 0, full rows/columns to
probability 1 (stripping repeats until no degenerate nodes remain), and
remaining nodes are grouped by degree value so equal degrees share one
multiplier.

Each sample index derives its own random substream from (seed, stream_key,
index), so ensembles are reproducible bit-for-bit.
``sample_ensemble`` streams single-layer Bernoulli draws for inspecting the
model; ``null_exceedance_counts`` is the only code that samples null
contractions. Activities of one degree share one probability column, so
every cell of a (technology class, product class) pair has the same null
law: each draw contracts one representative column per class with the
empirical path's kernel, and each cell counts, by binary search in its class
pair's sorted null weights, the draws its empirical weight beats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .assist import _assist_values, _one_blas_thread
from .errors import AxisMismatchError, FitError, PanelError
from .rca import BinaryMatrix

DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class BiCMModel:
    """Fitted degree-constrained link-probability model for one binary layer."""

    layer_kind: str
    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    row_multipliers: np.ndarray
    col_multipliers: np.ndarray
    link_probabilities: np.ndarray
    fit_residual: float

    def __post_init__(self):
        p = np.asarray(self.link_probabilities, dtype=np.float64)
        if p.shape != (len(self.country_ids), len(self.activity_ids)):
            raise PanelError("probability matrix shape does not match axes")
        object.__setattr__(self, "link_probabilities", p)
        object.__setattr__(self, "row_multipliers", np.asarray(self.row_multipliers, dtype=np.float64))
        object.__setattr__(self, "col_multipliers", np.asarray(self.col_multipliers, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, int]:
        return self.link_probabilities.shape

    def expected_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.link_probabilities
        return p.sum(axis=1), p.sum(axis=0)


def _solve_reduced(
    row_deg: np.ndarray,
    row_mult: np.ndarray,
    col_deg: np.ndarray,
    col_mult: np.ndarray,
    tolerance: float,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped fixed-point solve on distinct-degree classes.

    Updates x then y from the constraint equations; on a residual increase the
    step is halved and retried, resetting to full steps after any accepted
    move.
    """

    def residual(x: np.ndarray, y: np.ndarray) -> float:
        q = np.outer(x, y)
        p = q / (1.0 + q)
        row_err = np.abs(p @ col_mult - row_deg).max()
        col_err = np.abs(row_mult @ p - col_deg).max()
        return max(row_err, col_err)

    total = float(row_deg @ row_mult)
    x = row_deg / math.sqrt(total)
    y = col_deg / math.sqrt(total)
    best = residual(x, y)
    step = 1.0
    for _ in range(max_iterations):
        if best <= tolerance:
            return x, y
        denom_x = (col_mult * y / (1.0 + np.outer(x, y))).sum(axis=1)
        x_prop = row_deg / denom_x
        x_try = x + step * (x_prop - x)
        denom_y = (row_mult[:, None] * x_try[:, None] / (1.0 + np.outer(x_try, y))).sum(axis=0)
        y_prop = col_deg / denom_y
        y_try = y + step * (y_prop - y)
        res = residual(x_try, y_try)
        if res <= best:
            x, y, best = x_try, y_try, res
            step = min(1.0, step * 2.0)
        else:
            step *= 0.5
            if step < 1e-12:
                raise FitError(
                    f"fixed-point stalled at residual {best:.3e} (tolerance {tolerance:.1e})",
                    residual=best,
                )
    if best <= tolerance:
        return x, y
    raise FitError(
        f"no convergence within {max_iterations} iterations; residual {best:.3e} "
        f"(tolerance {tolerance:.1e})",
        residual=best,
    )


def fit_bicm(
    m: BinaryMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> BiCMModel:
    """Fit the null model so expected degrees match observed within tolerance.

    Deterministic given inputs. Degenerate nodes never reach the solver:
    zero-degree rows/columns get multiplier 0, full rows/columns multiplier
    inf with their entries pinned to probability 1 against the nodes active
    when they were stripped.
    """
    observed = np.asarray(m.values, dtype=np.int64)
    n_rows, n_cols = observed.shape
    if n_rows == 0 or n_cols == 0:
        raise PanelError("cannot fit a null model to an empty matrix")
    p = np.zeros((n_rows, n_cols))
    x = np.zeros(n_rows)
    y = np.zeros(n_cols)

    active_rows = np.arange(n_rows)
    active_cols = np.arange(n_cols)
    block = observed.copy()
    while block.size:
        row_deg = block.sum(axis=1)
        col_deg = block.sum(axis=0)
        zero_r = row_deg == 0
        full_r = row_deg == block.shape[1]
        zero_c = col_deg == 0
        full_c = col_deg == block.shape[0]
        if not (zero_r.any() or full_r.any() or zero_c.any() or full_c.any()):
            break
        if full_r.any():
            p[np.ix_(active_rows[full_r], active_cols)] = 1.0
            x[active_rows[full_r]] = np.inf
        if full_c.any():
            p[np.ix_(active_rows, active_cols[full_c])] = 1.0
            y[active_cols[full_c]] = np.inf
        keep_r = ~(zero_r | full_r)
        keep_c = ~(zero_c | full_c)
        active_rows = active_rows[keep_r]
        active_cols = active_cols[keep_c]
        block = block[keep_r][:, keep_c]

    if block.size:
        row_deg = block.sum(axis=1).astype(np.float64)
        col_deg = block.sum(axis=0).astype(np.float64)
        uniq_r, inv_r, mult_r = np.unique(row_deg, return_inverse=True, return_counts=True)
        uniq_c, inv_c, mult_c = np.unique(col_deg, return_inverse=True, return_counts=True)
        xr, yr = _solve_reduced(
            uniq_r, mult_r.astype(np.float64), uniq_c, mult_c.astype(np.float64),
            tolerance, max_iterations,
        )
        x_block = xr[inv_r]
        y_block = yr[inv_c]
        x[active_rows] = x_block
        y[active_cols] = y_block
        q = np.outer(x_block, y_block)
        p[np.ix_(active_rows, active_cols)] = q / (1.0 + q)

    row_err = np.abs(p.sum(axis=1) - observed.sum(axis=1)).max() if n_rows else 0.0
    col_err = np.abs(p.sum(axis=0) - observed.sum(axis=0)).max() if n_cols else 0.0
    return BiCMModel(
        layer_kind=m.layer_kind,
        country_ids=m.country_ids,
        activity_ids=m.activity_ids,
        row_multipliers=x,
        col_multipliers=y,
        link_probabilities=p,
        fit_residual=float(max(row_err, col_err)),
    )


def _rng(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _draw(
    probabilities: np.ndarray, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """One Bernoulli layer as float64 0/1, written into ``out`` when given:
    entry (c, a) is 1 with probability ``probabilities[c, a]``."""
    if out is None:
        out = np.empty(probabilities.shape)
    rng.random(out=out)
    return np.less(out, probabilities, out=out)


@dataclass(frozen=True)
class NullEnsemble:
    """Replayable stream of Bernoulli samples from one fitted model.

    Iterating yields int8 matrices; iterating again replays the identical
    sequence, because sample i depends only on (seed, stream_key, i).
    """

    model: BiCMModel
    n: int
    seed: int
    stream_key: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[np.ndarray]:
        p = self.model.link_probabilities
        for i in range(self.n):
            yield _draw(p, _rng(self.seed, (*self.stream_key, i))).astype(np.int8)

    def sample_mean(self) -> np.ndarray:
        total = np.zeros(self.model.shape)
        for sample in self:
            total += sample
        return total / self.n


def sample_ensemble(
    model: BiCMModel, n: int, seed: int, stream_key: tuple[int, ...] = ()
) -> NullEnsemble:
    """Stream of n independent entrywise-Bernoulli draws from the model."""
    return NullEnsemble(model=model, n=n, seed=seed, stream_key=stream_key)


# Bytes of null weights stored between two sort-and-count passes, whatever n.
_CHUNK_BYTES = 1 << 23


def _classes(model: BiCMModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Activities grouped by identical probability column: each class's first
    member, which represents it, each activity's class and each class's size."""
    _, first, inverse, size = np.unique(
        model.link_probabilities.T, axis=0,
        return_index=True, return_inverse=True, return_counts=True,
    )
    return first, inverse.reshape(-1), size


def _worst_z(sums: np.ndarray, mean: np.ndarray, var: np.ndarray, n: int) -> float:
    """Largest |z| of the mean sampled degrees ``sums / n`` against their
    expectations; a degree with no variance (pinned to 0 or 1) scores 0."""
    sd = np.sqrt(var / n)
    z = np.divide(sums / n - mean, sd, out=np.zeros(sd.shape), where=sd > 0)
    return float(np.abs(z).max(initial=0.0))


def null_exceedance_counts(
    tech_model: BiCMModel,
    prod_model: BiCMModel,
    empirical_values: np.ndarray,
    n: int,
    seed: int,
    stream_key: tuple[int, ...] = (),
) -> tuple[np.ndarray, tuple[float, float]]:
    """Exceedance counts over n null contractions per degree class pair.

    Draw i takes, from its one substream (seed, *stream_key, i) and in this
    order, the columns of the technology and of the product class
    representatives, with ``_draw``, then each country's link count over the
    other members of each product class, Binomial(size - 1, p). The product
    representatives' row sums plus those counts are the countries' product
    degrees d. The empirical matrix's kernel, ``assist._assist_values``,
    contracts the representatives with that d into one null weight per class
    pair, with the law of its cells.

    Up to ``_CHUNK_BYTES`` of null weights are stored, then sorted per class
    pair; one ``searchsorted`` per class pair counts, for each of its cells,
    the draws whose null weight its empirical weight strictly exceeds (ties do
    not count). Counts add across chunks; BLAS runs on one thread throughout.

    Returns (counts, drift): int32 counts, and per layer (technology,
    product) the largest |z| of the drawn degrees' means over the n draws
    against their expectations, the sampling-bias audit. Class members share
    their representative's column, so the z-scores are taken per class; the
    technology row degrees never enter a null weight and are not drawn.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if tech_model.country_ids != prod_model.country_ids:
        raise AxisMismatchError(
            "technology and product models must share the same country axis"
        )
    empirical = np.asarray(empirical_values, dtype=np.float64)
    shape = (tech_model.shape[1], prod_model.shape[1])
    if empirical.shape != shape:
        raise AxisMismatchError("empirical matrix does not match the model axes")
    tech_first, tech_class, tech_size = _classes(tech_model)
    prod_first, prod_class, prod_size = _classes(prod_model)
    tech_p = tech_model.link_probabilities[:, tech_first]
    prod_p = prod_model.link_probabilities[:, prod_first]
    k_t, k_p = len(tech_first), len(prod_first)
    # Cells grouped by class pair in one array: technology class a's segment
    # holds its rows with products ordered by class, transposed, so class pair
    # (a, b) is the contiguous rows bounds[b]:bounds[b + 1] of that segment.
    bounds = np.concatenate(([0], np.cumsum(prod_size)))
    prod_order = np.argsort(prod_class, kind="stable")
    splits = np.cumsum(tech_size)[:-1]
    tech_rows = np.split(np.argsort(tech_class, kind="stable"), splits)

    def by_class(flat: np.ndarray) -> list[np.ndarray]:
        return [part.reshape(shape[1], -1) for part in np.split(flat, splits * shape[1])]

    cells = by_class(np.empty(empirical.size))
    tallies = by_class(np.zeros(empirical.size, dtype=np.int32))
    for rows, block in zip(tech_rows, cells):
        block[...] = empirical[np.ix_(rows, prod_order)].T
    stored = np.empty((k_t * k_p, min(n, max(1, _CHUNK_BYTES // (8 * k_t * k_p)))))
    tech, prod, values = np.empty(tech_p.shape), np.empty(prod_p.shape), np.empty((k_t, k_p))
    tech_cols, prod_rows, prod_cols = np.zeros(k_t), np.zeros(tech_p.shape[0]), np.zeros(k_p)
    with _one_blas_thread():
        for i in range(n):
            rng = _rng(seed, (*stream_key, i))
            _draw(tech_p, rng, out=tech)
            _draw(prod_p, rng, out=prod)
            d = prod.sum(axis=1) + rng.binomial(prod_size - 1, prod_p).sum(axis=1)
            prod_cols += prod.sum(axis=0)  # before the kernel scales prod by 1/d
            _, u, _ = _assist_values(tech, prod, out=values, d=d)
            tech_cols += u
            prod_rows += d
            j = i % stored.shape[1]
            stored[:, j] = values.ravel()
            if j < stored.shape[1] - 1 and i < n - 1:
                continue
            null = stored[:, :j + 1]
            null.sort(axis=1)
            for a, (block, tally) in enumerate(zip(cells, tallies)):
                for b in range(k_p):
                    s = slice(bounds[b], bounds[b + 1])
                    tally[s] += np.searchsorted(null[a * k_p + b], block[s], side="left")
    counts = np.empty(shape, dtype=np.int32)
    for rows, tally in zip(tech_rows, tallies):
        counts[np.ix_(rows, prod_order)] = tally.T
    tech_var, prod_var = tech_p * (1.0 - tech_p), prod_p * (1.0 - prod_p)
    drift = (
        _worst_z(tech_cols, tech_p.sum(axis=0), tech_var.sum(axis=0), n),
        max(
            _worst_z(prod_rows, prod_p @ prod_size, prod_var @ prod_size, n),
            _worst_z(prod_cols, prod_p.sum(axis=0), prod_var.sum(axis=0), n),
        ),
    )
    return counts, drift
