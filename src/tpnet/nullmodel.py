"""Maximum-entropy null model for binary bipartite layers.

Fits one positive multiplier per country and per activity so that under
independent links with probability p = x*y / (1 + x*y) the expected row and
column degrees match the observed ones. The solve runs on a reduced system:
zero-degree nodes are pinned to probability 0, full rows/columns to
probability 1 (stripping repeats until no degenerate nodes remain), and
remaining nodes are grouped by degree value so equal degrees share one
multiplier.

Sampling draws every matrix entry as an independent Bernoulli variable. Each
sample index derives its own random substream from (seed, stream_key, index),
so ensembles are reproducible bit-for-bit and order-insensitive: accumulating
over samples is parallelized across indices without changing any result.

Validation runs ``null_exceedance_counts``: one loop per period pair that
draws both layers with ``_draw``, contracts them with the empirical path's
kernel, compares the result with the empirical matrix and adds the degree
sums for the sampling-bias audit, all in buffers allocated once. Its samples
are split across a pool of one thread per available CPU, with BLAS pinned to
one thread. It is the only code in the package that samples null contractions;
``sample_ensemble`` streams single-layer draws for inspecting the model.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
    model: BiCMModel, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """One Bernoulli layer as float64 0/1, written into ``out`` when given:
    entry (c, a) is 1 with probability ``link_probabilities[c, a]``."""
    if out is None:
        out = np.empty(model.shape)
    rng.random(out=out)
    return np.less(out, model.link_probabilities, out=out)


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
        for i in range(self.n):
            yield _draw(self.model, _rng(self.seed, (*self.stream_key, i))).astype(np.int8)

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


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# A uint8 tally holds at most this many draws before it is folded into the
# int32 counts.
_TALLY_DRAWS = np.iinfo(np.uint8).max


def null_exceedance_counts(
    tech_model: BiCMModel,
    prod_model: BiCMModel,
    empirical_values: np.ndarray,
    n: int,
    seed: int,
    stream_key: tuple[int, ...] = (),
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Exceedance counts over n null contractions, drawn, contracted and
    compared in one pass.

    Draw i samples the technology layer from substream (seed, *stream_key,
    i, 0) and the product layer from (seed, *stream_key, i, 1) with
    ``_draw``, and contracts them with ``assist._assist_values``, the kernel
    of the empirical matrix. A link's count is the number of draws whose
    null weight the empirical weight strictly exceeds; ties do not count.

    Sample i runs on worker ``i % workers``, one pool thread per available
    CPU (at most n), with BLAS on one thread throughout. Counts and degree
    sums are sums of integers, so they are the same bits for any worker
    count.

    Returns (counts, degree_sums): int32 counts, and per layer (technology,
    product) the row and column degree sums over all n draws, for
    ``degree_zscores``.
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
    workers = min(_available_cpus(), n)
    counts = np.zeros(shape, dtype=np.int32)
    counts_lock = threading.Lock()
    # Allocated here rather than in the workers: buffers allocated in worker
    # threads land in per-thread malloc arenas and raise the peak RSS.
    buffers = [
        (
            np.empty(tech_model.shape),
            np.empty(prod_model.shape),
            np.empty(shape),
            np.empty(shape, dtype=bool),
            np.zeros(shape, dtype=np.uint8),
        )
        for _ in range(workers)
    ]
    degree_sums = [
        tuple(np.zeros(k) for k in (*tech_model.shape, *prod_model.shape))
        for _ in range(workers)
    ]

    def run(worker: int) -> None:
        tech, prod, values, exceeds, tally = buffers[worker]
        tech_rows, tech_cols, prod_rows, prod_cols = degree_sums[worker]
        samples = range(worker, n, workers)
        for k, i in enumerate(samples, 1):
            _draw(tech_model, _rng(seed, (*stream_key, i, 0)), out=tech)
            _draw(prod_model, _rng(seed, (*stream_key, i, 1)), out=prod)
            tech_rows += tech.sum(axis=1)
            prod_cols += prod.sum(axis=0)  # before the kernel scales prod by 1/d
            _, u, d = _assist_values(tech, prod, out=values)
            tech_cols += u
            prod_rows += d
            np.greater(empirical, values, out=exceeds)
            np.add(tally, exceeds.view(np.uint8), out=tally)
            if k % _TALLY_DRAWS == 0 or k == len(samples):
                with counts_lock:
                    np.add(counts, tally, out=counts)
                tally.fill(0)

    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        list(pool.map(run, range(workers)))
    tech_rows, tech_cols, prod_rows, prod_cols = (sum(s) for s in zip(*degree_sums))
    return counts, ((tech_rows, tech_cols), (prod_rows, prod_cols))


def degree_zscores(
    model: BiCMModel, row_sum: np.ndarray, col_sum: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Z-scores of mean sampled degrees against their expectations, from the
    row and column degree sums over ``count`` draws.

    Diagnostic for sampling bias; values beyond ~4 sigma deserve a warning
    but are not an error (they occur with small probability by chance).
    Nodes pinned to probability 0 or 1 have no variance and score 0.
    """
    if count < 1:
        raise ValueError("empty ensemble")
    p = model.link_probabilities
    var = p * (1.0 - p)
    row_sd = np.sqrt(var.sum(axis=1) / count)
    col_sd = np.sqrt(var.sum(axis=0) / count)
    row_z = np.divide(
        row_sum / count - p.sum(axis=1), row_sd,
        out=np.zeros(p.shape[0]), where=row_sd > 0,
    )
    col_z = np.divide(
        col_sum / count - p.sum(axis=0), col_sd,
        out=np.zeros(p.shape[1]), where=col_sd > 0,
    )
    return row_z, col_z
