"""Command-line entry points for the pipeline stages.

Every subcommand reads the same JSON config; --seed, --samples, --tier,
--digits, and --out override individual fields for the invocation. Commands
exit 0 on success and nonzero with a stage-tagged message on failure.
"""

from __future__ import annotations

import functools
import logging

import click

from . import exports
from .config import parse_config
from .errors import TpnetError
from .panels import aggregate_window
from .pipeline import (
    Run,
    _write_tables,
    compute_rankings,
    contract_pair,
    run_pipeline,
    run_robustness,
)
from .rca import binarize, compute_rca


def _common_options(fn):
    """The one entry path of every command: parse the config, apply the
    overrides given, call ``fn(cfg, **command_options)``, and report a
    library error, or an output path that cannot be created or written, as
    a one-line ``Error:`` with exit status 1."""
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
    def command(config_path, seed, samples, tier, digits, out_dir, **command_options):
        overrides = dict(seed=seed, samples=samples, tier=tier, digits=digits, output_dir=out_dir)
        try:
            cfg = parse_config(config_path).replace(
                **{name: value for name, value in overrides.items() if value is not None}
            )
            fn(cfg, **command_options)
        except TpnetError as exc:
            raise click.ClickException(str(exc))
        except OSError as exc:  # reading the inputs raises TpnetErrors, so this is a write
            path = exc.filename or cfg.output_dir
            raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}")

    return command


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
def ingest(cfg):
    """Load and check the two panels; write a summary."""
    run = Run.ingest(cfg)
    path = run.out_dir / "ingest.json"
    with run.stage("ingest") as entry:  # the same stage, now with the summary among its files
        entry.update(run.data["stages"]["ingest"], outputs=[path])
        exports.write_json(
            {
                panel.layer_kind: {
                    "countries": len(panel.country_ids),
                    "activities": len(panel.activity_ids),
                    "years": list(panel.years),
                }
                for panel in (run.tech, run.prod)
            },
            path,
        )
    for panel in (run.tech, run.prod):
        click.echo(
            f"{panel.layer_kind} panel: {len(panel.country_ids)} countries x "
            f"{len(panel.activity_ids)} activities, years {panel.years[0]}-{panel.years[-1]}"
        )


@main.command()
@_common_options
def rca(cfg):
    """Write RCA and binary specialization matrices for every configured window."""
    run = Run.start(cfg)
    tech_ends, prod_ends = zip(*(pair for spec in run.lags for pair in spec.pairs))
    out = run.out_dir / "rca"
    out.mkdir(exist_ok=True)
    with run.stage("rca") as entry:
        for panel, ends in ((run.tech, tech_ends), (run.prod, prod_ends)):
            for end in sorted(set(ends)):
                ratios = compute_rca(aggregate_window(panel, cfg.delta, end))
                binary = binarize(ratios)
                stem = f"{panel.layer_kind}_{cfg.delta}_{end}"
                for name, matrix in ((f"rca_{stem}.csv", ratios), (f"m_{stem}.csv", binary)):
                    exports.write_matrix_csv(
                        matrix.country_ids, matrix.activity_ids, matrix.values, out / name
                    )
                    entry["outputs"].append(out / name)
    click.echo(f"wrote RCA and binary matrices to {out}")


@main.command()
@_common_options
def assist(cfg):
    """Write the contraction matrix for every configured period pair."""
    run = Run.start(cfg)
    out = run.out_dir / "assist"
    out.mkdir(exist_ok=True)
    with run.stage("assist") as entry:
        for spec in run.lags:
            for t1, t2 in spec.pairs:
                _, _, matrix = contract_pair(cfg.delta, run.tech, run.prod, (t1, t2))
                entry["outputs"].append(out / f"assist_{t1}_{t2}.csv")
                exports.write_assist_csv(matrix, entry["outputs"][-1])
    click.echo(f"wrote assist matrices to {out}")


def _echo_networks(result, tier):
    for lag_result in result.lag_results:
        click.echo(
            f"lag {lag_result.spec.delta_t}: {lag_result.network.edge_count} edges "
            f"at tier {tier}"
        )


@main.command()
@_common_options
def validate(cfg):
    """Run the full validation and write the per-lag networks."""
    _echo_networks(run_pipeline(cfg, reports=False), cfg.tier)


@main.command()
@_common_options
def efc(cfg):
    """Write complexity rankings for the most recent configured windows."""
    run = Run.start(cfg)
    with run.stage("efc") as entry:
        rankings, info = compute_rankings(cfg, run.tech, run.prod, run.lags)
        written = _write_tables(run.out_dir, rankings)
        entry.update(info, outputs=written)
    click.echo(f"wrote rankings to {written[0].parent}")


@main.command()
@_common_options
def report(cfg):
    """Run everything: networks, degree reports, profiles, rankings, curves."""
    result = run_pipeline(cfg)
    _echo_networks(result, cfg.tier)
    for curve in result.curves:
        click.echo(f"{curve.side} curve final value: {curve.final_value}")


@main.command()
@_common_options
@click.option("--deltas", default="3,4,10", show_default=True,
              help="Comma-separated window lengths to test.")
def robustness(cfg, deltas):
    """Benchmark-edge recovery across alternative aggregation windows."""
    try:
        delta_list = [int(d) for d in deltas.split(",") if d.strip()]
    except ValueError:
        raise click.ClickException(f"bad --deltas value {deltas!r}")
    rob = run_robustness(cfg, deltas=delta_list)
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
