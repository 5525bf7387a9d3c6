"""Command-line surface: ingest, seed, infer, synth, eval.

One subcommand per pipeline stage so intermediate files stay inspectable.
Diagnostics go to stderr, data goes to files (or to stdout only with an
explicit --stdout flag), and every file-producing run writes a manifest
recording parameters and input digests. All randomness flows from explicit
--rng-seed flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .evaluation import (
    CityTable,
    city_accuracy,
    evaluate,
    gamma_sweep,
    read_truth_file,
    write_per_iteration_csv,
    write_report_csv,
    write_sweep_csv,
)
from .graph import (
    build_reciprocal_network,
    iter_mention_file,
    read_network_file,
    write_network_file,
)
from .ground_truth import (
    Gazetteer,
    gazetteer_homes,
    gps_homes,
    merge_seeds,
    read_gps_events_file,
    read_profile_claims_file,
    read_seeds_file,
    seed_points,
    write_seeds_file,
)
from .solver import (
    DescentViolation,
    SolverConfig,
    infer,
    read_estimates_file,
    write_estimates_file,
)
from .synth import SynthConfig, generate, write_synth_files


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # BrokenExecutor covers the solver's BrokenProcessPool (a worker died).
    except (ValueError, OSError, DescentViolation, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _usable_cpus() -> int:
    """The CPUs this process may run on, which a CPU-limited container caps
    below os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvgeo",
        description="Social-graph location inference by total-variation minimization.",
    )
    parser.add_argument("--version", action="version", version=f"tvgeo {__version__}")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("ingest", help="build the reciprocated-mention network")
    p.add_argument("mentions", help="mention TSV: src_id<TAB>dst_id<TAB>count")
    out = p.add_mutually_exclusive_group(required=True)
    out.add_argument("--out", type=Path, help="output network TSV")
    out.add_argument("--stdout", action="store_true", help="write the network to stdout")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("seed", help="derive ground-truth seeds from GPS and profiles")
    p.add_argument("--gps", type=Path, help="GPS events TSV")
    p.add_argument("--profiles", type=Path, help="profile claims TSV")
    p.add_argument("--gazetteer", type=Path, help="gazetteer TSV (required with --profiles)")
    p.add_argument(
        "--now",
        type=float,
        help="reference unix time for profile staleness (required with --profiles)",
    )
    out = p.add_mutually_exclusive_group(required=True)
    out.add_argument("--out", type=Path, help="output seeds TSV")
    out.add_argument("--stdout", action="store_true")
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("infer", help="run the solver")
    p.add_argument("network", type=Path)
    p.add_argument("seeds", type=Path)
    p.add_argument("--gamma", type=float, default=100.0, help="max ego dispersion in km (inf allowed)")
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--median-tol", type=float, default=0.01, help="median solver tolerance in km")
    p.add_argument("--median-max-iter", type=int, default=1000)
    p.add_argument(
        "--threads",
        type=int,
        default=_usable_cpus(),
        help="worker processes; output is byte-identical for any value",
    )
    p.add_argument("--report", type=Path, help="per-iteration counts CSV (default: OUT.report.csv)")
    p.add_argument(
        "--check-descent",
        action="store_true",
        help="assert the per-node descent invariant on every accepted update",
    )
    out = p.add_mutually_exclusive_group(required=True)
    out.add_argument("--out", type=Path, help="output estimates TSV")
    out.add_argument("--stdout", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("synth", help="generate a planted-city benchmark")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--num-cities", type=int, required=True)
    p.add_argument("--users-per-city", type=int, required=True)
    p.add_argument("--city-radius", type=float, required=True, help="km")
    p.add_argument("--mean-degree", type=float, required=True)
    p.add_argument("--inter-fraction", type=float, default=0.0)
    p.add_argument("--seed-fraction", type=float, required=True)
    p.add_argument("--rng-seed", type=int, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score estimates against ground truth")
    p.add_argument("estimates", type=Path)
    p.add_argument("truth", type=Path, help="truth TSV (3-column) or seeds TSV (5-column)")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--cities", type=Path, help="city table TSV for city accuracy")
    p.add_argument("--min-pop", type=int, default=5000)
    p.add_argument("--sweep", help="comma-separated gamma values (km); reruns the solver per value")
    p.add_argument("--network", type=Path, help="network TSV (required with --sweep)")
    p.add_argument("--train-seeds", type=Path, help="training seeds TSV (required with --sweep)")
    p.add_argument("--iterations", type=int, default=5, help="solver iterations for --sweep runs")
    p.add_argument(
        "--threads",
        type=int,
        default=_usable_cpus(),
        help="worker processes; output is byte-identical for any value",
    )
    p.set_defaults(func=cmd_eval)

    return parser


def cmd_ingest(args: argparse.Namespace) -> int:
    network, report = build_reciprocal_network(iter_mention_file(args.mentions))
    if args.stdout:
        write_network_file(network, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_network_file(network, fh)
        _write_manifest(
            args.out,
            "ingest",
            {"mentions": str(args.mentions)},
            [Path(args.mentions)],
        )
    print(
        f"ingest: {report.records_in} records in, {report.directed_pairs} directed pairs, "
        f"{report.edges_out} reciprocated edges over {report.users_out} users, "
        f"{report.dropped} dropped ({report.dropped_self_mentions} self-mentions, "
        f"{report.dropped_nonpositive} non-positive counts)",
        file=sys.stderr,
    )
    return 0


def cmd_seed(args: argparse.Namespace) -> int:
    if args.gps is None and args.profiles is None:
        raise ValueError("at least one of --gps/--profiles is required")
    gps_records = {}
    if args.gps is not None:
        gps_records = gps_homes(read_gps_events_file(args.gps))
    gaz_records = {}
    if args.profiles is not None:
        if args.gazetteer is None:
            raise ValueError("--gazetteer is required when --profiles is given")
        if args.now is None:
            raise ValueError("--now is required when --profiles is given")
        gazetteer = Gazetteer.from_tsv(args.gazetteer)
        gaz_records = gazetteer_homes(
            read_profile_claims_file(args.profiles), gazetteer, args.now
        )
    seeds = merge_seeds(gps_records.values(), gaz_records.values())
    if args.stdout:
        write_seeds_file(seeds, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_seeds_file(seeds, fh)
        inputs = [p for p in (args.gps, args.profiles, args.gazetteer) if p is not None]
        _write_manifest(
            args.out,
            "seed",
            {
                "gps": _opt_str(args.gps),
                "profiles": _opt_str(args.profiles),
                "gazetteer": _opt_str(args.gazetteer),
                "now": args.now,
            },
            inputs,
        )
    overlap = len(gps_records.keys() & gaz_records.keys())
    print(
        f"seed: {len(gps_records)} gps, {len(gaz_records)} gazetteer, "
        f"{overlap} overlapping (gps wins), {len(seeds)} total",
        file=sys.stderr,
    )
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    network = read_network_file(args.network)
    seeds = seed_points(read_seeds_file(args.seeds))
    missing = sum(1 for user in seeds if user not in network)
    if missing:
        print(
            f"warning: {missing} of {len(seeds)} seed users absent from the network "
            "(passed through unchanged)",
            file=sys.stderr,
        )
    cfg = SolverConfig(
        gamma_km=args.gamma,
        iterations=args.iterations,
        median_tol_km=args.median_tol,
        median_max_iter=args.median_max_iter,
    )
    state, stats = infer(
        network, seeds, cfg, threads=args.threads, check_descent=args.check_descent
    )
    if args.stdout:
        write_estimates_file(state, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_estimates_file(state, fh)
        report_path = args.report or Path(f"{args.out}.report.csv")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write("iteration,newly_located,located_total\n")
            for row in stats:
                fh.write(f"{row.iteration},{row.newly_located},{row.located_total}\n")
        _write_manifest(
            args.out,
            "infer",
            {
                "network": str(args.network),
                "seeds": str(args.seeds),
                "gamma": args.gamma,
                "iterations": args.iterations,
                "median_tol": args.median_tol,
                "median_max_iter": args.median_max_iter,
            },
            [args.network, args.seeds],
        )
    located_total = stats[-1].located_total if stats else len(seeds)
    print(
        f"infer: {located_total} users located after {len(stats)} iterations "
        f"({len(seeds)} seeds)",
        file=sys.stderr,
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        num_cities=args.num_cities,
        users_per_city=args.users_per_city,
        city_radius_km=args.city_radius,
        intra_edge_mean_degree=args.mean_degree,
        inter_edge_fraction=args.inter_fraction,
        seed_fraction=args.seed_fraction,
        rng_seed=args.rng_seed,
    )
    result = generate(cfg)
    paths = write_synth_files(result, args.out_dir)
    _write_manifest(
        args.out_dir / "synth",
        "synth",
        {
            "num_cities": cfg.num_cities,
            "users_per_city": cfg.users_per_city,
            "city_radius_km": cfg.city_radius_km,
            "intra_edge_mean_degree": cfg.intra_edge_mean_degree,
            "inter_edge_fraction": cfg.inter_edge_fraction,
            "seed_fraction": cfg.seed_fraction,
            "rng_seed": cfg.rng_seed,
        },
        [],
    )
    print(
        f"synth: {result.network.num_nodes} networked users, "
        f"{result.network.num_edges} edges, {len(result.seeds)} seeds, "
        f"{cfg.num_cities} cities -> {args.out_dir}",
        file=sys.stderr,
    )
    for name, path in paths.items():
        print(f"synth: wrote {name}: {path}", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    estimates = read_estimates_file(args.estimates)
    truth = read_truth_file(args.truth)

    located_universe = set(estimates.located)
    missing = len(set(truth) - located_universe)
    if missing:
        print(
            f"warning: {missing} of {len(truth)} truth users have no estimate",
            file=sys.stderr,
        )

    report = evaluate(estimates, truth)
    if args.cities is not None:
        cities = CityTable.from_tsv(args.cities)
        accuracy = city_accuracy(estimates, truth, cities, args.min_pop)
        report = replace(report, city_accuracy=accuracy)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.csv", "w", encoding="utf-8") as fh:
        write_report_csv(report, fh)
    with open(out_dir / "per_iteration.csv", "w", encoding="utf-8") as fh:
        write_per_iteration_csv(report, fh)

    inputs = [args.estimates, args.truth]
    if args.cities is not None:
        inputs.append(args.cities)

    if args.sweep is not None:
        if args.network is None or args.train_seeds is None:
            raise ValueError("--sweep requires --network and --train-seeds")
        gammas = [float(g) for g in args.sweep.split(",") if g.strip()]
        network = read_network_file(args.network)
        train = seed_points(read_seeds_file(args.train_seeds))
        rows = gamma_sweep(
            network, train, truth, gammas, args.iterations, threads=args.threads
        )
        with open(out_dir / "sweep.csv", "w", encoding="utf-8") as fh:
            write_sweep_csv(rows, fh)
        inputs.extend([args.network, args.train_seeds])

    _write_manifest(
        out_dir / "eval",
        "eval",
        {
            "estimates": str(args.estimates),
            "truth": str(args.truth),
            "cities": _opt_str(args.cities),
            "min_pop": args.min_pop,
            "sweep": args.sweep,
            "network": _opt_str(args.network),
            "train_seeds": _opt_str(args.train_seeds),
            "iterations": args.iterations,
        },
        inputs,
    )
    print(
        f"eval: coverage {report.coverage:.4f}, median error "
        f"{report.median_error_km:.3f} km, mean error {report.mean_error_km:.3f} km",
        file=sys.stderr,
    )
    return 0


def _opt_str(path: Path | None) -> str | None:
    return None if path is None else str(path)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(
    anchor: Path, command: str, parameters: dict, inputs: Iterable[Path]
) -> Path:
    """Write ANCHOR.manifest.json. Everything except created_at is a pure
    function of the command inputs, so manifests from identical runs differ
    only in that one field."""
    manifest = {
        "tool": "tvgeo",
        "version": __version__,
        "command": command,
        "parameters": _jsonable(parameters),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(f"{anchor}.manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _jsonable(parameters: dict) -> dict:
    out = {}
    for key, value in parameters.items():
        if isinstance(value, float) and math.isinf(value):
            value = "inf" if value > 0 else "-inf"
        out[key] = value
    return out


if __name__ == "__main__":
    sys.exit(main())
