"""The benchmark's workloads: input shape, run config and the flow they time.

Flows (each is what one CLI command waits on):

- ``validate``: ``run_pipeline(cfg, reports=False)``, as ``tpnet validate``.
- ``report``: ``run_pipeline(cfg)``, as ``tpnet report``.
- ``robustness``: as ``tpnet robustness``. Set-up fills the cache with a
  cold ``run_pipeline(cfg, write=False)``, standing in for an earlier
  ``tpnet report``; the timed call is a warm ``run_pipeline(cfg,
  write=False)`` followed by ``run_robustness(cfg, net, (3, 4, 10))``.
- ``ingest``: ``load_panels(cfg)``, as ``tpnet ingest``.

Sizes: HS4 is 120 countries x 400 technologies x 1,000 products (about 255k
CSV rows), HS6 is 150 x 650 x 5,000 (about 1.3M rows). The sample counts keep
one timed call between 5 and 40 s on a 2-core machine, so that 22 runs of
every workload fit in one hour.
"""

from __future__ import annotations

from dataclasses import dataclass

from synth import Shape

HS4 = Shape(countries=120, technologies=400, products=1000, product_digits=4)
HS6 = Shape(countries=150, technologies=650, products=5000, product_digits=6)

ROBUSTNESS_DELTAS = (3, 4, 10)
# Window configurations run_robustness finds for ROBUSTNESS_DELTAS at lag 0 in
# the 2008-2017 panels: 8 three-year, 7 four-year and 1 ten-year window.
ROBUSTNESS_CONFIGURATIONS = 16

LAG0_2012_2017 = [{"delta_t": 0, "pairs": [[2012, 2012], [2017, 2017]]}]


@dataclass(frozen=True)
class Workload:
    name: str
    flow: str
    shape: Shape
    config: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "validate_hs4", "validate", HS4,
            {"delta": 5, "samples": 400, "tier": "95", "lags": LAG0_2012_2017},
        ),
        Workload(
            "report_hs4", "report", HS4,
            {
                "delta": 3,
                "samples": 20,
                "tier": "95",
                "lags": [
                    {"delta_t": 0, "pairs": [[2014, 2014], [2017, 2017]]},
                    {"delta_t": 4, "pairs": [[2010, 2014], [2013, 2017]]},
                ],
            },
        ),
        Workload(
            "robustness_hs4", "robustness", HS4,
            {"delta": 5, "samples": 50, "tier": "95", "lags": LAG0_2012_2017},
        ),
        Workload("ingest_hs6", "ingest", HS6, {"delta": 5, "samples": 1000, "tier": "95"}),
    )
}


def run_config(workload: Workload, seed: int, output_dir: str) -> dict:
    """The JSON config the program reads; panel paths are relative to the run dir."""
    return {
        "technology_panel": "technology.csv",
        "product_panel": "product.csv",
        "seed": seed,
        "output_dir": output_dir,
        **workload.config,
    }
