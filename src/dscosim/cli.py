"""Command-line front end.

Exit codes: 0 success, 1 network-assumption violation, 2 config/usage error
(a config whose arrays do not fit in memory or exceed numpy's size limit, or
on which a numerical routine does not converge, included), 3 divergence.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
import numpy as np

from .algorithms import mixers, run
from .config import load_config
from .errors import (
    AssumptionError,
    CapabilityError,
    ConfigurationError,
    DivergenceError,
    InsufficientDataError,
    NumericalError,
)
from .normality import _check_schedule, collect_delta, compare_covariance
from .normality import samples_to_csv, theoretical_covariance
from .records import aggregate_mean_rows, record_to_csv, RunRecord
from .topology import build_weight_pair, check_assumption2


@click.group()
def main():
    """Distributed compositional optimization simulator."""


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


# numpy's ValueErrors for an array beyond its size limit, raised before any allocation
_SIZE_LIMITS = ("Maximum allowed dimension exceeded", "array is too big;")


def _exit_codes(command):
    """Map simulator errors to exit codes."""

    @functools.wraps(command)
    def wrapper(**kwargs):
        try:
            return command(**kwargs)
        except (ConfigurationError, CapabilityError, InsufficientDataError, NumericalError) as err:
            _fail(2, err)
        except AssumptionError as err:
            _fail(1, err)
        except DivergenceError as err:
            _fail(3, err)
        except (MemoryError, ValueError) as err:  # numpy's _ArrayMemoryError names its array
            if isinstance(err, ValueError) and not str(err).startswith(_SIZE_LIMITS):
                raise  # any other ValueError is a bug, not a config
            _fail(2, f"the config's arrays do not fit in memory ({err})")

    return wrapper


# record headers still echo the normality study's two retired keys at their last
# defaults, so every record CSV keeps its bytes
_RETIRED_ECHO = {"normality_k": 20000, "replications": 200}


def _build_instance(cfg):
    """The problem, weights and schedule that every seed of `cfg` shares, built
    once; the optimum, where the family has one, is solved here and cached."""
    problem = cfg.build_problem()
    weights = None if cfg["algorithm"] in ("scgd", "scsc") else cfg.build_weights()
    if problem.has_optimum:
        problem.optimum()
    return problem, weights, cfg.schedule


def _run_batch(shared, seeds):
    """Run a batch of seeds as one replica-batched run and write each seed's CSV.

    Returns one (record, path) per seed, in order; a diverged seed writes its
    partial record, and its error is returned, not raised, so every seed runs.
    """
    cfg, out_dir, problem, weights, schedule = shared
    algorithm = cfg["algorithm"]
    results = run(
        algorithm,
        problem,
        schedule,
        cfg["iterations"],
        weights=weights,
        seeds=seeds,
        metric_stride=cfg["metric_stride"],
        eta=cfg["eta"],
        gamma=cfg["gamma"],
        config={**cfg.values, **_RETIRED_ECHO},
    )
    Path(out_dir).mkdir(parents=True, exist_ok=True)  # so a run() that raises leaves none
    out = []
    for seed, result in zip(seeds, results):
        if isinstance(result, DivergenceError):
            path = Path(out_dir) / f"run_{algorithm}_seed{seed}_partial.csv"
            path.write_text(record_to_csv(result.record))
            click.echo(f"partial record -> {path}", err=True)
            out.append(result)
        else:
            path = Path(out_dir) / f"run_{algorithm}_seed{seed}.csv"
            path.write_text(record_to_csv(result))
            out.append((result, path))
    return out


def _run_seeds(cfg, seeds, out_dir, jobs=1):
    """Run every seed and return their (record, path) pairs in seed order; if any
    seed diverged, raise the first diverged seed's error once all have run (each
    diverged seed has written its partial record).

    With ``jobs`` > 1 the seed list is cut into up to `jobs` contiguous batches
    (never more than there are seeds), one per worker process, so each worker
    receives the shared instance once, with its batch.
    """
    shared = (cfg, out_dir, *_build_instance(cfg))
    workers = min(jobs, len(seeds))
    if workers == 1:
        results = _run_batch(shared, seeds)
    else:
        # the pool costs ~20 ms of import (multiprocessing, socket, ...); serial runs skip it
        from concurrent.futures import ProcessPoolExecutor

        bounds = [len(seeds) * w // workers for w in range(workers + 1)]
        batches = [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            run_batch = functools.partial(_run_batch, shared)
            results = [r for batch in pool.map(run_batch, batches) for r in batch]
    diverged = [r for r in results if isinstance(r, DivergenceError)]
    if diverged:
        raise diverged[0]
    return results


def _write_aggregate(cfg, records, out_dir):
    agg = RunRecord(config={**cfg.values, **_RETIRED_ECHO}, seed=-1, rows=aggregate_mean_rows(records))
    agg.status = "aggregate"
    path = Path(out_dir) / "aggregate.csv"
    path.write_text(record_to_csv(agg))
    return path


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="override the config's seed list")
@click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False))
@_exit_codes
def cmd_run(config_path, seed, out_dir):
    """Execute one run per seed and write per-seed plus aggregate CSVs."""
    cfg = load_config(config_path)
    seeds = [seed] if seed is not None else cfg.seed_list()
    results = _run_seeds(cfg, seeds, out_dir)
    for s, (record, path) in zip(seeds, results):
        click.echo(f"seed {s}: {record.status}, {len(record.rows)} rows -> {path}")
    agg_path = _write_aggregate(cfg, [record for record, _ in results], out_dir)
    click.echo(f"aggregate -> {agg_path}")


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False))
@_exit_codes
def cmd_sweep(config_path, jobs, out_dir):
    """Multi-seed sweep with optional parallel workers."""
    cfg = load_config(config_path)
    seeds = cfg.seed_list()
    records = [record for record, _ in _run_seeds(cfg, seeds, out_dir, jobs)]
    agg_path = _write_aggregate(cfg, records, out_dir)
    click.echo(f"{len(records)} runs complete, aggregate -> {agg_path}")


@main.command("validate-topology")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@_exit_codes
def cmd_validate_topology(config_path):
    """Report graph, spanning-tree and weight-matrix diagnostics."""
    cfg = load_config(config_path)
    g = cfg.build_graph()
    click.echo(f"n = {g.n}")
    click.echo(f"edges (excl. self-loops) = {len(g.edges)}")
    roots = sorted(g.roots())
    click.echo(f"spanning tree: {'yes' if roots else 'NO'}")
    click.echo(f"roots = {roots}")
    ok = check_assumption2(g, g)
    click.echo(f"common root: {'yes' if ok else 'NO'}")
    if not ok:
        _fail(1, "no spanning tree with a common root" if not roots else "root sets disjoint")
    wp = build_weight_pair(g, g)
    click.echo(f"u = {np.array2string(wp.u, precision=6)}")
    click.echo(f"v = {np.array2string(wp.v, precision=6)}")
    click.echo(f"tau_A = {wp.tau_A:.6f}")
    click.echo(f"tau_B = {wp.tau_B:.6f}")
    d = cfg.build_problem().d  # a MAML config mixes its network's parameters, not `dim`
    for name, _, plan in mixers(cfg["algorithm"], wp, d):
        blocks = " ".join(f"[{a}, {b})" for a, b in zip(plan[0], plan[0][1:])) if plan else ""
        click.echo(f"mix {name} at dim {d}: {'split ' + blocks if plan else 'dense'}")
    if not (wp.tau_A < 1 and wp.tau_B < 1):
        _fail(1, "contraction factor not below 1")


@main.command("normality")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False))
@_exit_codes
def cmd_normality(config_path, out_dir):
    """Averaged-iterate covariance study; exit 0 iff the match is within threshold."""
    cfg = load_config(config_path)
    if cfg["problem"] != "quadratic":
        raise ConfigurationError("normality study supports the quadratic family only")
    if cfg["algorithm"] != "ab-dscsc":
        raise ConfigurationError(
            f"normality study runs ab-dscsc only, got algorithm {cfg['algorithm']!r}"
        )
    seeds = cfg.seed_list()
    base, R = seeds[0], len(seeds)
    if seeds != list(range(base, base + R)):
        raise ConfigurationError(
            f"normality runs the seeds base ... base + R - 1 (seeds = base:R), got {cfg['seeds']!r}"
        )
    if R < 50:
        raise InsufficientDataError(f"normality needs >= 50 seeds, got {R}")
    _check_schedule(cfg.schedule)  # collect_delta's check, before the build
    problem, weights, schedule = _build_instance(cfg)
    samples = collect_delta(R, problem, weights, schedule, cfg["iterations"], cfg["agent"], base)
    report = compare_covariance(samples, theoretical_covariance(problem))
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    (Path(out_dir) / "normality_samples.csv").write_text(samples_to_csv(samples))
    lines = [
        "# gradient-noise covariance read as the sum over agents of per-agent covariances",
        "key,value",
    ]
    lines += [f"{k},{v:.17g}" for k, v in report.to_kv_rows()]
    (Path(out_dir) / "normality_report.csv").write_text("\n".join(lines) + "\n")
    error = report.rel_frobenius_error
    click.echo(f"rel_frobenius_error = {error:.4f}")
    if not np.isfinite(error) or error > cfg["threshold"]:
        _fail(1, f"covariance mismatch {error:.4f} > {cfg['threshold']}")


if __name__ == "__main__":
    main()
