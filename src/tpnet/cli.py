"""Command-line entry points for the pipeline stages.

Every subcommand reads the same JSON config; --seed, --samples, --tier,
--digits, and --out override individual fields for the invocation. Commands
exit 0 on success and nonzero with a stage-tagged message on failure.
"""

from __future__ import annotations

import functools
import logging
from pathlib import Path

import click

from . import exports
from .config import RunConfig, parse_config
from .errors import TpnetError
from .panels import aggregate_window
from .pipeline import (
    _stage,
    compute_rankings,
    contract_pair,
    load_inputs,
    load_panels,
    run_pipeline,
    run_robustness,
)
from .rca import binarize, compute_rca


def _common_options(fn):
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False),
                  help="Path to the JSON run configuration.")
    @click.option("--seed", type=int, default=None, help="Override the master seed.")
    @click.option("--samples", type=int, default=None, help="Override the ensemble size.")
    @click.option("--tier", type=str, default=None, help="Override the significance tier.")
    @click.option("--digits", type=int, default=None,
                  help="Override the product code aggregation prefix length.")
    @click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
                  help="Override the output directory.")
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def _load_config(config_path, seed, samples, tier, digits, out_dir) -> RunConfig:
    cfg = _run(parse_config, config_path)
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if samples is not None:
        overrides["samples"] = samples
    if tier is not None:
        overrides["tier"] = tier
    if digits is not None:
        overrides["digits"] = digits
    if out_dir is not None:
        overrides["output_dir"] = out_dir
    if overrides:
        cfg = _run(lambda: cfg.replace(**overrides))
    return cfg


def _run(fn, *args):
    try:
        return fn(*args)
    except TpnetError as exc:
        raise click.ClickException(str(exc))


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Log stage progress.")
def main(verbose: bool):
    """Build, validate, and analyze lagged technology-to-product networks."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@_common_options
def ingest(config_path, seed, samples, tier, digits, out_dir):
    """Load and check the two panels; write a summary."""
    cfg = _load_config(config_path, seed, samples, tier, digits, out_dir)
    tech, prod = _run(_stage, "ingest", load_panels, cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "technology": {
            "countries": len(tech.country_ids),
            "activities": len(tech.activity_ids),
            "years": list(tech.years),
        },
        "product": {
            "countries": len(prod.country_ids),
            "activities": len(prod.activity_ids),
            "years": list(prod.years),
        },
    }
    exports.write_json(summary, out / "ingest.json")
    click.echo(
        f"technology panel: {len(tech.country_ids)} countries x "
        f"{len(tech.activity_ids)} activities, years {tech.years[0]}-{tech.years[-1]}"
    )
    click.echo(
        f"product panel: {len(prod.country_ids)} countries x "
        f"{len(prod.activity_ids)} activities, years {prod.years[0]}-{prod.years[-1]}"
    )


@main.command()
@_common_options
def rca(config_path, seed, samples, tier, digits, out_dir):
    """Write RCA and binary specialization matrices for every configured window."""
    cfg = _load_config(config_path, seed, samples, tier, digits, out_dir)

    def work(cfg):
        tech, prod, lags = load_inputs(cfg)
        tech_ends, prod_ends = zip(*(pair for spec in lags for pair in spec.pairs))
        out = Path(cfg.output_dir) / "rca"
        out.mkdir(parents=True, exist_ok=True)
        for panel, ends in ((tech, tech_ends), (prod, prod_ends)):
            for end in sorted(set(ends)):
                ratios = _stage("rca", compute_rca, aggregate_window(panel, cfg.delta, end))
                binary = binarize(ratios)
                stem = f"{panel.layer_kind}_{cfg.delta}_{end}"
                exports.write_matrix_csv(
                    ratios.country_ids, ratios.activity_ids, ratios.values,
                    out / f"rca_{stem}.csv",
                )
                exports.write_matrix_csv(
                    binary.country_ids, binary.activity_ids, binary.values,
                    out / f"m_{stem}.csv",
                )
        return out

    out = _run(work, cfg)
    click.echo(f"wrote RCA and binary matrices to {out}")


@main.command()
@_common_options
def assist(config_path, seed, samples, tier, digits, out_dir):
    """Write the contraction matrix for every configured period pair."""
    cfg = _load_config(config_path, seed, samples, tier, digits, out_dir)

    def work(cfg):
        tech, prod, lags = load_inputs(cfg)
        out = Path(cfg.output_dir) / "assist"
        out.mkdir(parents=True, exist_ok=True)
        for spec in lags:
            for t1, t2 in spec.pairs:
                _, _, matrix = _stage("assist", contract_pair, cfg, tech, prod, (t1, t2))
                exports.write_assist_csv(matrix, out / f"assist_{t1}_{t2}.csv")
        return out

    out = _run(work, cfg)
    click.echo(f"wrote assist matrices to {out}")


@main.command()
@_common_options
def validate(config_path, seed, samples, tier, digits, out_dir):
    """Run the full validation and write the per-lag networks."""
    cfg = _load_config(config_path, seed, samples, tier, digits, out_dir)
    result = _run(lambda c: run_pipeline(c, reports=False), cfg)
    for lag_result in result.lag_results:
        click.echo(
            f"lag {lag_result.spec.delta_t}: {lag_result.network.edge_count} edges "
            f"at tier {cfg.tier}"
        )


@main.command()
@_common_options
def efc(config_path, seed, samples, tier, digits, out_dir):
    """Write complexity rankings for the most recent configured windows."""
    cfg = _load_config(config_path, seed, samples, tier, digits, out_dir)

    def work(cfg):
        tech, prod, lags = load_inputs(cfg)
        tech_ranking, _, prod_ranking, _ = _stage(
            "efc", compute_rankings, cfg, tech, prod, lags
        )
        out = Path(cfg.output_dir) / "rankings"
        out.mkdir(parents=True, exist_ok=True)
        exports.write_ranking_csv(tech_ranking, out / "technology_ranks.csv")
        exports.write_ranking_csv(prod_ranking, out / "product_ranks.csv")
        return out

    out = _run(work, cfg)
    click.echo(f"wrote rankings to {out}")


@main.command()
@_common_options
def report(config_path, seed, samples, tier, digits, out_dir):
    """Run everything: networks, degree reports, profiles, rankings, curves."""
    cfg = _load_config(config_path, seed, samples, tier, digits, out_dir)
    result = _run(run_pipeline, cfg)
    for lag_result in result.lag_results:
        click.echo(
            f"lag {lag_result.spec.delta_t}: {lag_result.network.edge_count} edges "
            f"at tier {cfg.tier}"
        )
    if result.curves:
        for curve in result.curves:
            click.echo(
                f"{curve.side} curve final value: {curve.final_value}"
            )


@main.command()
@_common_options
@click.option("--deltas", default="3,4,10", show_default=True,
              help="Comma-separated window lengths to test.")
def robustness(config_path, seed, samples, tier, digits, out_dir, deltas):
    """Benchmark-edge recovery across alternative aggregation windows."""
    cfg = _load_config(config_path, seed, samples, tier, digits, out_dir)
    try:
        delta_list = [int(d) for d in deltas.split(",") if d.strip()]
    except ValueError:
        raise click.ClickException(f"bad --deltas value {deltas!r}")
    rob = _run(lambda c: run_robustness(c, deltas=delta_list), cfg)
    click.echo(
        f"{rob.configurations} configurations against a "
        f"{rob.benchmark_edges}-edge benchmark"
    )
    for delta, means in rob.mean_overlaps().items():
        click.echo(
            f"delta {delta}: mean overlap {means['tier']:.3f} at "
            f"{rob.benchmark_tier}%, {means['lax']:.3f} at {rob.lax_tier}%"
        )


if __name__ == "__main__":
    main()
