"""One fresh-process run of one workload: set up, time one call, check it.

Started by run.py with the run directory as working directory:

    python3 rep.py SPEC.json LAUNCHED_AT

``LAUNCHED_AT`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers the
interpreter, ``import tpnet``, the config and, for the robustness flow, the
cold cache fill. Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
import traceback
from pathlib import Path


class _Count(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it, or None."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str, launched_at: float) -> dict:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import numpy as np
    import tpnet
    from tpnet import exports, pipeline

    out: dict = {"numpy": np.__version__, "errors": []}
    warnings = _Count()
    logging.getLogger("tpnet").addHandler(warnings)
    cfg = tpnet.parse_config(spec["config"])
    out_dir = Path(cfg.output_dir)
    flow = spec["flow"]
    if flow == "robustness":
        pipeline.run_pipeline(cfg, write=False)
    setup_s = time.monotonic() - launched_at
    out["setup_s"] = setup_s
    if spec["setup_only"]:
        return out

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["rows_by_path"])
        tracer.install(pipeline, exports)
    start = time.perf_counter()
    try:
        if flow == "validate":
            result = pipeline.run_pipeline(cfg, reports=False)
        elif flow == "report":
            result = pipeline.run_pipeline(cfg)
        elif flow == "robustness":
            result = pipeline.run_pipeline(cfg, write=False)
            benchmark = result.lag_results[0].network
            report = pipeline.run_robustness(cfg, benchmark, tuple(spec["deltas"]))
        elif flow == "ingest":
            result = pipeline.load_panels(cfg)
        else:
            raise ValueError(f"unknown flow {flow!r}")
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["wall_s"] = wall_s
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall_s, out_dir / "cache")
        out["trace_missing"] = tracer.missing

    import checks

    if flow in ("validate", "report"):
        out["errors"] = checks.check_pipeline(result, cfg, out_dir, flow == "report")
        out["digest"] = checks.digest_dir(out_dir)
    elif flow == "robustness":
        out["errors"] = checks.check_robustness(
            result, report, cfg, out_dir, spec["configurations"]
        )
        out["digest"] = checks.digest_dir(out_dir)
    else:
        out["errors"] = checks.check_panels(result, spec["expected_panels"])
        out["digest"] = checks.digest_panels(result)
    out["drift_warnings"] = warnings.count
    out["blas_threads"] = blas_threads()
    return out


if __name__ == "__main__":
    launched = float(sys.argv[2])
    try:
        payload = main(sys.argv[1], launched)
    except Exception as exc:  # the parent records the failure and carries on
        traceback.print_exc()
        payload = {"errors": [f"{type(exc).__name__}: {exc}"], "crashed": True}
    print(json.dumps(payload))
