"""tpnet benchmark: times the pipeline in fresh processes on synthetic panels.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes the panels for ``--seed`` (untimed), then starts fresh
``rep.py`` processes, each with an empty output directory, until ``--seconds``
of them have been spent; every process is one operation. With ``--trace 0``
the last stdout line reports the medians of the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced processes and reports the
per-layer metrics of the traced ones. The line before it holds the run
context. Inputs are generated just before they are read, so they are warm in
the page cache; nothing on the machine is changed to make them cold.

A run fails (``failed`` > 0, ``correct`` false) when a process raises, an
output check fails, or its artifact digest differs from that of another run
of the same source tree, workload and seed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import synth  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import ROBUSTNESS_CONFIGURATIONS, ROBUSTNESS_DELTAS, WORKLOADS, Workload, run_config  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Untraced runs add set-up-only processes until set-up has this many samples.
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
WORK_DIR = "_work"


def source_digest(package: Path) -> str:
    """SHA-256 of the package sources and of the benchmark code that makes the
    inputs: tells commits apart without git."""
    h = hashlib.sha256()
    files = [p for p in sorted(package.rglob("*")) if "__pycache__" not in p.parts]
    for path in files + sorted(HERE.glob("*.py")):
        if path.is_file():
            h.update(os.path.relpath(path, package.parent.parent).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class DigestLog:
    """Artifact digests of earlier runs in this checkout, keyed by source,
    workload and seed, so a run that disagrees with an earlier one fails."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def expected(self, key: str):
        return self.data.get(key)

    def record(self, key: str, digest: str) -> None:
        self.data.setdefault(key, digest)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True, indent=1))
        tmp.replace(self.path)


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs (0 if
    the kernel does not report it). Read-only; explains noisy runs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _spawn(spec_path: Path, run_dir: Path, timeout: float) -> dict:
    steal = steal_seconds()
    launched_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), str(spec_path), repr(launched_at)],
            cwd=run_dir, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        payload = {"errors": ["timed out"], "crashed": True}
    else:
        try:
            payload = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            payload = {
                "errors": [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"],
                "crashed": True,
            }
        if proc.returncode != 0 and not payload.get("crashed"):
            payload["errors"].append(f"exit code {proc.returncode}")
    payload["elapsed_s"] = time.monotonic() - launched_at
    payload["steal_s"] = steal_seconds() - steal
    return payload


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
    work: Path = HERE / WORK_DIR,
) -> tuple[dict, dict]:
    """Run one benchmark measurement; returns (result line, context).

    ``work`` holds the run's inputs and outputs while it lasts, and the
    digest log across runs.
    """
    package = root / "src" / "tpnet"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no tpnet sources under {root / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    compileall.compile_dir(str(package), quiet=1)
    run_dir = work / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        files = synth.write_panels(
            workload.shape, seed, run_dir, package / "data" / "hs_sections.csv"
        )
        base_spec = {
            "root": str(root),
            "flow": workload.flow,
            "deltas": list(ROBUSTNESS_DELTAS),
            "configurations": ROBUSTNESS_CONFIGURATIONS,
            "rows_by_path": {
                str(files.technology.path): files.technology.rows,
                str(files.product.path): files.product.rows,
            },
            "expected_panels": {
                layer.path.stem: {
                    "countries": list(layer.countries),
                    "activities": list(layer.activities),
                    "years": list(synth.YEARS),
                    "cells": layer.cells,
                }
                for layer in (files.technology, files.product)
            },
        }
        reps: list[dict] = []

        def launch(index: int, traced: bool, setup_only: bool = False) -> dict:
            out_name = f"out-{index}"
            config_path = run_dir / f"config-{index}.json"
            config_path.write_text(json.dumps(run_config(workload, seed, out_name)))
            spec_path = run_dir / f"spec-{index}.json"
            spec_path.write_text(json.dumps({
                **base_spec, "config": config_path.name, "trace": traced,
                "setup_only": setup_only,
            }))
            rep = _spawn(spec_path, run_dir, deadline - time.monotonic())
            rep["traced"] = traced
            shutil.rmtree(run_dir / out_name, ignore_errors=True)
            return rep

        spent = 0.0
        # With tracing, processes come in (untraced, traced) pairs.
        while not reps or spent < seconds or (trace and len(reps) % 2):
            rep = launch(len(reps), trace and len(reps) % 2 == 1)
            reps.append(rep)
            spent += rep["elapsed_s"]
            if rep.get("crashed") or time.monotonic() > deadline:
                break
        probes: list[dict] = []
        while not trace and len(reps) + len(probes) < SETUP_SAMPLES:
            if time.monotonic() > deadline:
                break
            probes.append(launch(len(reps) + len(probes), False, setup_only=True))

        digest_log = DigestLog(work / "digests.json")
        key = f"{source_digest(package)}/{workload.name}/{seed}"
        reference = digest_log.expected(key)
        digests = [r["digest"] for r in reps if "digest" in r]
        if reference is None and digests:
            reference = digests[0]
        for rep in reps:
            if "digest" in rep and rep["digest"] != reference:
                rep["errors"].append(f"artifact digest {rep['digest'][:12]} != {reference[:12]}")
        if reference is not None and all(not r["errors"] for r in reps):
            digest_log.record(key, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = reps + probes
    failed = sum(1 for r in ops if r["errors"])
    good = [r for r in reps if "wall_s" in r]
    if not good:
        raise RuntimeError("no process completed: " + "; ".join(
            e for r in ops for e in r["errors"]
        ))
    metrics = {}
    trace_wall_delta_s = None
    if trace:
        traced_reps = [r for r in good if r["traced"]]
        plain = [r for r in good if not r["traced"]]
        if not traced_reps or not plain:
            raise RuntimeError("no traced and untraced pair completed")
        # Context only: across processes, machine drift swamps the tracer's
        # cost, which pipeline.trace_overhead_s measures inside the process.
        trace_wall_delta_s = statistics.median(r["wall_s"] for r in traced_reps) - statistics.median(
            r["wall_s"] for r in plain
        )
        for name, unit in LAYER_METRICS:
            if name == "run.cpu_s":
                value = statistics.median(r["cpu_s"] for r in traced_reps)
            else:
                value = statistics.median(r["layers"][name] for r in traced_reps)
            metrics[name] = {"value": value, "unit": unit}
    else:
        setups = [r["setup_s"] for r in ops if "setup_s" in r]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    context = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": good[0].get("numpy"),
        "blas_threads": good[0].get("blas_threads"),
        "input_rows": {"technology": files.technology.rows, "product": files.product.rows},
        "inputs": "page-cache warm: written just before the run",
        "processes": len(ops),
        "setup_samples": len([r for r in ops if "setup_s" in r]),
        "wall_s_each": [r["wall_s"] for r in good],
        "trace_wall_delta_s": trace_wall_delta_s,
        "run.cpu_s_each": [r["cpu_s"] for r in good],
        "steal_s_each": [r["steal_s"] for r in ops],
        "source_sha256": key.split("/")[0],
        "artifact_sha256": reference,
        "drift_warnings": sorted({r.get("drift_warnings", 0) for r in good}),
        "trace_missing": sorted({m for r in good for m in r.get("trace_missing", [])}),
        "errors": [e for r in ops for e in r["errors"]],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running process is killed and
    # waited for, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = HERE.parent
    try:
        result, context = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root
        )
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
