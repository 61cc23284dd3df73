"""Directed technology-to-product contraction over common countries.

Each entry counts co-occurrences of technology and product specialization in
the same country, weighting every country by the inverse of its product
diversification and normalizing the row by the technology's ubiquity. Both
degree vectors are recomputed from the (already country-aligned) inputs, never
inherited from the full panels.

Degeneracy conventions: countries with zero product diversification carry no
co-occurrence information and are skipped; technologies held by no country
keep an all-zero row, so the matrix shape is stable across period pairs.

Contractions run on one OpenBLAS thread (``_one_blas_thread``): OpenBLAS
rounds the product differently at different thread counts for some shapes,
and artifacts must not depend on the machine's CPU count.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AxisMismatchError, PanelError
from .rca import BinaryMatrix


@dataclass(frozen=True)
class AssistMatrix:
    """Technology x product matrix of normalized co-occurrence weights in [0, 1]."""

    tech_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.values, dtype=np.float64)
        if mat.shape != (len(self.tech_ids), len(self.product_ids)):
            raise PanelError("assist matrix shape does not match axes")
        object.__setattr__(self, "values", mat)


_OPENBLAS_THREAD_FUNCTIONS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into the
    process, numpy's among them; empty where none is found or there is no
    ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return ()
    controls = []
    for path in sorted(p for p in paths if "openblas" in p.rpartition("/")[2].lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library file deleted since it was mapped
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block and restore the previous
    counts on exit, so contractions round the same way on any machine.

    The setting is global to the process: only a coordinating thread may
    enter this, never a worker thread, whose restore would change the thread
    count under another thread's GEMM. Separate processes, such as forked
    pair workers, may each pin their own. Without OpenBLAS it does nothing.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def _assist_values(tech: np.ndarray, prod: np.ndarray, d: Optional[np.ndarray] = None):
    """Contraction kernel of the empirical path and of the null loop.

    ``tech`` is a float64 0/1 layer and ``prod`` a 0/1 layer on the same
    country axis; neither is written. ``prod``'s rows are weighted by 1/d,
    where the diversification ``d`` is ``prod``'s row sums unless given (the
    null loop draws only some of the product columns). Returns (values,
    ubiquity). Zero-diversification countries contribute nothing;
    zero-ubiquity technology rows stay zero. Stacks of layers (the null
    loop's blocks) contract slice by slice, each as a single layer would.
    """
    if d is None:
        d = prod.sum(axis=-1)
    u = tech.sum(axis=-2)
    weighted = prod * np.divide(1.0, d, out=np.zeros(d.shape), where=d > 0)[..., None]
    values = np.swapaxes(tech, -1, -2) @ weighted
    values *= np.divide(1.0, u, out=np.zeros(u.shape), where=u > 0)[..., None]
    return values, u


def compute_assist(tech: BinaryMatrix, prod: BinaryMatrix) -> AssistMatrix:
    """Contract two country-aligned binary layers into the directed matrix."""
    if tech.country_ids != prod.country_ids:
        raise AxisMismatchError(
            "technology and product layers must be aligned to the same country "
            "list before contraction"
        )
    with _one_blas_thread():
        values, _ = _assist_values(tech.values.astype(np.float64), prod.values)
    return AssistMatrix(tech.activity_ids, prod.activity_ids, values)
