"""Maximum-entropy null model for binary bipartite layers.

Fits one positive multiplier per country and per activity so that under
independent links with probability p = x*y / (1 + x*y) the expected row and
column degrees match the observed ones. The solve runs on a reduced system:
zero-degree nodes are pinned to probability 0, full rows/columns to
probability 1 (stripping repeats until no degenerate nodes remain), and
remaining nodes are grouped by degree value so equal degrees share one
multiplier.

``null_exceedance_counts`` is the only sampler. Each pair has one random
stream and sample i reads a fixed stretch of it, so counts are reproducible
bit-for-bit. Activities of one degree share one probability column, so every
cell of a (technology class, product class) pair has the same null law: each
draw contracts one representative column per class with the empirical path's
kernel, and each cell counts, by binary search in its class pair's sorted
null weights, the draws its empirical weight beats. The other members of the
product classes enter a draw only through each country's diversification,
drawn at once from a table of its law built once per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assist import _assist_values, _one_blas_thread
from .errors import AxisMismatchError, FitError, PanelError
from .rca import BinaryMatrix
from .validate import MAX_SAMPLES

# The solver's fixed budget: the largest degree error it accepts and the
# fixed-point iterations it may take to get there.
_TOLERANCE, _MAX_ITERATIONS = 1e-8, 10_000


@dataclass(frozen=True)
class BiCMModel:
    """Fitted degree-constrained link-probability model for one binary layer."""

    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    link_probabilities: np.ndarray
    fit_residual: float

    def __post_init__(self):
        p = np.asarray(self.link_probabilities, dtype=np.float64)
        if p.shape != (len(self.country_ids), len(self.activity_ids)):
            raise PanelError("probability matrix shape does not match axes")
        object.__setattr__(self, "link_probabilities", p)

    @property
    def shape(self) -> tuple[int, int]:
        return self.link_probabilities.shape


def _solve_reduced(
    row_deg: np.ndarray,
    row_mult: np.ndarray,
    col_deg: np.ndarray,
    col_mult: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped fixed-point solve on distinct-degree classes, within
    ``_TOLERANCE`` in at most ``_MAX_ITERATIONS`` iterations.

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
    for _ in range(_MAX_ITERATIONS):
        if best <= _TOLERANCE:
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
                    f"fixed-point stalled at residual {best:.3e} (tolerance {_TOLERANCE:.1e})",
                    residual=best,
                )
    if best <= _TOLERANCE:
        return x, y
    raise FitError(
        f"no convergence within {_MAX_ITERATIONS} iterations; residual {best:.3e} "
        f"(tolerance {_TOLERANCE:.1e})",
        residual=best,
    )


def fit_bicm(m: BinaryMatrix) -> BiCMModel:
    """Fit the null model so expected degrees match observed within 1e-8,
    in at most 10,000 solver iterations (else ``FitError``).

    Deterministic given inputs. Degenerate nodes never reach the solver:
    zero-degree rows/columns get probability 0, full rows/columns probability
    1 against the nodes active when they were stripped.
    """
    observed = np.asarray(m.values, dtype=np.int64)
    n_rows, n_cols = observed.shape
    if n_rows == 0 or n_cols == 0:
        raise PanelError("cannot fit a null model to an empty matrix")
    p = np.zeros((n_rows, n_cols))

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
        if full_c.any():
            p[np.ix_(active_rows, active_cols[full_c])] = 1.0
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
            uniq_r, mult_r.astype(np.float64), uniq_c, mult_c.astype(np.float64)
        )
        q = np.outer(xr[inv_r], yr[inv_c])
        p[np.ix_(active_rows, active_cols)] = q / (1.0 + q)

    row_err = np.abs(p.sum(axis=1) - observed.sum(axis=1)).max()
    col_err = np.abs(p.sum(axis=0) - observed.sum(axis=0)).max()
    return BiCMModel(
        country_ids=m.country_ids,
        activity_ids=m.activity_ids,
        link_probabilities=p,
        fit_residual=float(max(row_err, col_err)),
    )


def _stream(seed: int, stream_key: tuple[int, ...]) -> np.random.Generator:
    """The pair's one stream: sample i reads its M uniforms from i * M on."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream_key)))


# Names the sampling scheme of ``null_exceedance_counts`` in the counts' cache
# key: counts drawn under another scheme have other bits for the same inputs,
# so they must not be read. Change it with any change to the draws.
SAMPLING_SCHEME = "degree-class draws, diversification table, one PCG64 stream per pair"

# Bytes of null weights stored between two sort-and-count passes, and of
# uniforms drawn, compared and contracted at once, whatever n.
_CHUNK_BYTES, _BLOCK_BYTES = 1 << 23, 1 << 18

# Bernstein's inequality puts less than 2**-64 of a sum of independent
# Bernoulli links outside mean +- t once t**2 / (2 * (var + t / 3)) >= _TAIL.
_TAIL = 65 * math.log(2.0)

# Diversification tables hold cumulative probabilities in units of 2**-48, a
# uniform's top 48 bits: row c is offset by c units of 1.0 in one int64 array.
# The last of C rows tops out at C units, below 2**63 for C up to 2**15 - 1.
_UNIT_BITS = 48
_MAX_COUNTRIES = (1 << (63 - _UNIT_BITS)) - 1


def _classes(model: BiCMModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Activities grouped by identical probability column: each class's first
    member, which represents it, the activities in class order and each
    class's size. Classes are in lexicographic order of their columns."""
    p = model.link_probabilities
    order = np.lexsort(p[::-1])
    ordered = p[:, order]
    starts = np.flatnonzero(np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)])
    # lexsort is stable, so each class's first member leads its run
    return order[starts], order, np.diff(np.r_[starts, p.shape[1]])


def _diversification_table(q: np.ndarray, extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each country's law of S_c = sum_k Binomial(extra[k], q[c, k]) as an
    inverse-CDF table: (first, thresholds), with S_c = first[c] plus the
    number of thresholds[c] at or below a uniform's top ``_UNIT_BITS`` bits.

    Links pinned to 0 or 1 add a constant. The rest sum to a law whose
    characteristic function is evaluated, per country, on the window mean +-
    t that Bernstein's bound (``_TAIL``) leaves less than 2**-64 outside, and
    inverted with one ``irfft``; rounding noise below the transform's
    resolution is cut, so a country with no free link draws its constant.
    """
    q, extra = q[:, extra > 0], extra[extra > 0]
    free = (q > 0) & (q < 1)
    links = np.where(free, extra, 0).astype(np.float64)
    spread = q * (1.0 - q)
    mean, var, top = (links * q).sum(axis=1), (links * spread).sum(axis=1), links.sum(axis=1)
    t = _TAIL / 3 + np.sqrt(_TAIL**2 / 9 + 2 * _TAIL * var)
    low = np.clip(np.floor(mean - t), 0, top).astype(np.int64)
    width = int((np.clip(np.ceil(mean + t), 0, top) - low).max(initial=0)) + 1
    # E[z**S] on z = exp(-i theta) (irfft's sign) times z**-low, so that the
    # inverse transform puts P(S = low + r) at r. |.| and arg come from real
    # logs and angles, one class at a time (countries x frequencies arrays
    # only), and the shift's angle from exact integer residues.
    freq = np.arange(width // 2 + 1)
    theta = 2 * np.pi / width * freq
    half, sin, cos = np.sin(theta / 2) ** 2, np.sin(theta), np.cos(theta)
    angle = -2 * np.pi / width * (low[:, None] * freq % width)
    log_abs = np.zeros(angle.shape)
    with np.errstate(divide="ignore"):
        for p, s, w in zip(q.T[:, :, None], spread.T[:, :, None], links.T[:, :, None]):
            log_abs += w / 2 * np.log1p(-4 * s * half)
            angle += w * np.arctan2(p * sin, 1 - p + p * cos)
    pmf = np.fft.irfft(np.exp(log_abs - 1j * angle), n=width, axis=1)
    pmf[pmf < width * np.finfo(np.float64).eps] = 0.0
    cdf = np.cumsum(pmf, axis=1)
    thresholds = np.rint(np.ldexp(cdf / cdf[:, -1:], _UNIT_BITS)).astype(np.int64)
    return np.where(q == 1, extra, 0).sum(axis=1) + low, thresholds


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

    Draw i reads, from position i * M of the pair's stream
    ``_stream(seed, stream_key)``, M uniforms: in this order, one per link of
    the technology and of the product class representatives, compared with
    their probabilities, then one per country, which picks its link count S
    over the other members of each product class from the pair's
    ``_diversification_table``. The product representatives' row sums plus S
    are the countries' product degrees d. The empirical matrix's kernel,
    ``assist._assist_values``, contracts the representatives with that d into
    one null weight per class pair, with the law of its cells. Draws are
    made in blocks of at most ``_BLOCK_BYTES`` of uniforms, so a block is a
    few numpy calls; the block size never changes a draw.

    Each chunk of draws, at most ``_CHUNK_BYTES`` of null weights, is sorted
    per class pair; one ``searchsorted`` per class pair counts, for each cell
    of its rectangle in the class-ordered empirical matrix, the draws its
    empirical weight strictly exceeds (ties do not count). Counts add across
    chunks; BLAS runs on one thread throughout. More than ``_MAX_COUNTRIES``
    (2**15 - 1) countries raise ``PanelError``: their offset table rows would
    overflow int64.

    Returns (counts, drift): int32 counts, so n is at most ``MAX_SAMPLES``,
    and per layer (technology, product) the largest |z| of the drawn
    degrees' means over the n draws against their expectations, the
    sampling-bias audit. Class members share their representative's column,
    so the z-scores are taken per class; the technology row degrees never
    enter a null weight and are not drawn.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count must be < 2**31, the int32 counts' bound, got {n}")
    if tech_model.country_ids != prod_model.country_ids:
        raise AxisMismatchError(
            "technology and product models must share the same country axis"
        )
    if len(prod_model.country_ids) > _MAX_COUNTRIES:
        raise PanelError(f"the null sampler takes at most {_MAX_COUNTRIES} countries, "
                         f"got {len(prod_model.country_ids)}")
    empirical = np.asarray(empirical_values, dtype=np.float64)
    shape = (tech_model.shape[1], prod_model.shape[1])
    if empirical.shape != shape:
        raise AxisMismatchError("empirical matrix does not match the model axes")
    tech_first, tech_order, tech_size = _classes(tech_model)
    prod_first, prod_order, prod_size = _classes(prod_model)
    tech_p = tech_model.link_probabilities[:, tech_first]
    prod_p = prod_model.link_probabilities[:, prod_first]
    k_t, k_p = len(tech_first), len(prod_first)
    # Rows and columns in class order: the cells of class pair (a, b) are the
    # rectangle (tech_spans[a], prod_spans[b]) of ``ordered`` and ``tally``.
    grid = np.ix_(tech_order, prod_order)
    ordered, tally = empirical[grid], np.zeros(shape, dtype=np.int32)
    tech_spans, prod_spans = (
        [slice(stop - k, stop) for k, stop in zip(size.tolist(), np.cumsum(size).tolist())]
        for size in (tech_size, prod_size)
    )
    null = np.empty((k_t, k_p, min(n, max(1, _CHUNK_BYTES // (8 * k_t * k_p)))))
    # Country c's table row, offset by c units, in one sorted array: a search
    # for c's uniform plus c units lands at c * width + its row's index.
    first, table = _diversification_table(prod_p, prod_size - 1)
    countries = np.arange(len(first))
    offsets, base = countries << _UNIT_BITS, first - countries * table.shape[1]
    table = (table + offsets[:, None]).ravel()
    t_end, p_end = tech_p.size, tech_p.size + prod_p.size
    block = max(1, _BLOCK_BYTES // (8 * (p_end + len(first))))
    tech_cols, prod_rows, prod_cols = np.zeros(k_t), np.zeros(tech_p.shape[0]), np.zeros(k_p)
    rng = _stream(seed, stream_key)
    with _one_blas_thread():
        for start in range(0, n, null.shape[2]):
            chunk = null[:, :, :min(null.shape[2], n - start)]
            for j in range(0, chunk.shape[2], block):
                uniforms = rng.random((min(block, chunk.shape[2] - j), p_end + len(first)))
                tech = uniforms[:, :t_end].reshape(-1, *tech_p.shape)
                prod = uniforms[:, t_end:p_end].reshape(-1, *prod_p.shape)
                np.less(tech, tech_p, out=tech)
                np.less(prod, prod_p, out=prod)
                bits = np.ldexp(uniforms[:, p_end:], _UNIT_BITS).astype(np.int64) + offsets
                d = prod.sum(axis=-1) + (np.searchsorted(table, bits, side="right") + base)
                values, u = _assist_values(tech, prod, d)
                chunk[:, :, j:j + len(values)] = np.moveaxis(values, 0, -1)
                tech_cols += u.sum(axis=0)
                prod_rows += d.sum(axis=0)
                prod_cols += prod.sum(axis=(0, 1))
            chunk.sort(axis=2)
            for a, rows in enumerate(tech_spans):
                for b, cols in enumerate(prod_spans):
                    tally[rows, cols] += np.searchsorted(chunk[a, b], ordered[rows, cols], side="left")
    counts = np.empty(shape, dtype=np.int32)
    counts[grid] = tally
    tech_var, prod_var = tech_p * (1.0 - tech_p), prod_p * (1.0 - prod_p)
    drift = (
        _worst_z(tech_cols, tech_p.sum(axis=0), tech_var.sum(axis=0), n),
        max(
            _worst_z(prod_rows, prod_p @ prod_size, prod_var @ prod_size, n),
            _worst_z(prod_cols, prod_p.sum(axis=0), prod_var.sum(axis=0), n),
        ),
    )
    return counts, drift
