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
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO

from . import __version__, _workers
from ._tsv import atomic_write
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
    DEFAULT_GAMMA_KM,
    DEFAULT_ITERATIONS,
    DescentViolation,
    SolverConfig,
    infer,
    read_estimates_file,
    write_estimates_file,
    write_iteration_stats_csv,
)
from .synth import SynthConfig, generate, write_synth_files


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DescentViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenExecutor:
        # A solver or seeding worker died. CPython words this in two ways,
        # depending on whether the pool was still taking work, so the message
        # is fixed.
        print("error: a worker process terminated abruptly", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvgeo",
        description="Social-graph location inference by total-variation minimization.",
    )
    parser.add_argument("--version", action="version", version=f"tvgeo {__version__}")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("ingest", help="build the reciprocated-mention network")
    p.add_argument("mentions", help="mention TSV: src_id<TAB>dst_id<TAB>count")
    _add_output(p, "network")
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
    _add_output(p, "seeds")
    p.set_defaults(func=cmd_seed)

    p = sub.add_parser("infer", help="run the solver")
    p.add_argument("network", type=Path)
    p.add_argument("seeds", type=Path)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA_KM, help="max ego dispersion in km (inf allowed)")
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    _add_threads(p)
    p.add_argument("--report", type=Path, help="per-iteration counts CSV (default: OUT.report.csv)")
    p.add_argument(
        "--check-descent",
        action="store_true",
        help="assert the per-node descent invariant on every accepted update",
    )
    _add_output(p, "estimates")
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
    p.add_argument(
        "--sweep",
        help="comma-separated gamma values (km); reruns the solver per value",
    )
    p.add_argument("--network", type=Path, help="network TSV (--sweep only; required)")
    p.add_argument("--train-seeds", type=Path, help="training seeds TSV (--sweep only; required)")
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS, help="solver iterations for --sweep runs")
    _add_threads(p)
    p.set_defaults(func=cmd_eval)

    return parser


def _add_output(p: argparse.ArgumentParser, what: str) -> None:
    out = p.add_mutually_exclusive_group(required=True)
    out.add_argument("--out", type=Path, help=f"output {what} TSV")
    out.add_argument("--stdout", action="store_true", help=f"write the {what} to stdout")


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads",
        type=_worker_count,
        default=_workers.usable_cpus(),
        help="worker processes, at least 1; output is byte-identical for any value",
    )


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def cmd_ingest(args: argparse.Namespace) -> int:
    network, report = build_reciprocal_network(iter_mention_file(args.mentions))
    _write_output(
        args, "ingest", ("mentions",), (args.mentions,),
        {args.out: lambda fh: write_network_file(network, fh)},
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
    if args.profiles is not None and args.gazetteer is None:
        raise ValueError("--gazetteer is required when --profiles is given")
    if args.profiles is not None and args.now is None:
        raise ValueError("--now is required when --profiles is given")
    gps_records = {}
    if args.gps is not None:
        gps_records = gps_homes(read_gps_events_file(args.gps), threads=_workers.usable_cpus())
    gaz_records = {}
    if args.profiles is not None:
        gazetteer = Gazetteer.from_tsv(args.gazetteer)
        gaz_records = gazetteer_homes(
            read_profile_claims_file(args.profiles), gazetteer, args.now
        )
    seeds = merge_seeds(gps_records.values(), gaz_records.values())
    _write_output(
        args, "seed", ("gps", "profiles", "gazetteer", "now"),
        (args.gps, args.profiles, args.gazetteer),
        {args.out: lambda fh: write_seeds_file(seeds, fh)},
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
    cfg = SolverConfig(gamma_km=args.gamma, iterations=args.iterations)
    state, stats = infer(
        network, seeds, cfg, threads=args.threads, check_descent=args.check_descent
    )
    outputs = {args.out: lambda fh: write_estimates_file(state, fh)}
    report = args.report or (args.out and Path(f"{args.out}.report.csv"))
    if report:
        outputs[report] = lambda fh: write_iteration_stats_csv(stats, fh)
    _write_output(
        args, "infer", ("network", "seeds", "gamma", "iterations"),
        (args.network, args.seeds), outputs,
    )
    print(
        f"infer: {stats[-1].located_total} users located after {len(stats)} iterations "
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
    _write_manifest(args.out_dir / "synth", "synth", asdict(cfg), {})
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
    gammas = None
    if args.sweep is None:
        if args.network is not None or args.train_seeds is not None:
            raise ValueError("--network and --train-seeds are read only with --sweep")
    else:
        if args.network is None or args.train_seeds is None:
            raise ValueError("--sweep requires --network and --train-seeds")
        try:
            gammas = [float(g) for g in args.sweep.split(",") if g.strip()]
        except ValueError:
            raise ValueError(f"--sweep: expected comma-separated gamma values, got {args.sweep!r}") from None
        if not gammas:
            raise ValueError("--sweep: gamma list must not be empty")
        try:
            for gamma in gammas:
                SolverConfig(gamma, args.iterations)
        except ValueError as exc:
            raise ValueError(f"--sweep: {exc}") from None
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

    inputs = [args.estimates, args.truth, args.cities]
    outputs = {
        args.out_dir / "report.csv": lambda fh: write_report_csv(report, fh),
        args.out_dir / "per_iteration.csv": lambda fh: write_per_iteration_csv(report, fh),
    }
    if gammas is not None:
        network = read_network_file(args.network)
        train = seed_points(read_seeds_file(args.train_seeds))
        rows = gamma_sweep(
            network, train, truth, gammas, args.iterations, threads=args.threads
        )
        inputs += [args.network, args.train_seeds]
        outputs[args.out_dir / "sweep.csv"] = lambda fh: write_sweep_csv(rows, fh)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_output(
        args, "eval",
        ("estimates", "truth", "cities", "min_pop", "sweep", "network", "train_seeds", "iterations"),
        inputs, outputs, args.out_dir / "eval",
    )
    print(
        f"eval: coverage {report.coverage:.4f}, median error "
        f"{report.median_error_km:.3f} km, mean error {report.mean_error_km:.3f} km",
        file=sys.stderr,
    )
    return 0


def _write_output(
    args: argparse.Namespace, command: str, parameters: Iterable[str],
    inputs: Iterable[str | Path | None], outputs: Mapping[Path | None, Callable[[TextIO], None]],
    anchor: Path | None = None,
) -> None:
    """The one path by which a command writes files. Hash the inputs (None is
    an absent one) before any output can replace one; write each output
    atomically, in order, the key None to stdout under --stdout; then, unless
    under --stdout, the manifest at anchor (default --out), which records
    each argument named in parameters."""
    stdout = None in outputs
    digests = {} if stdout else {str(p): _sha256(p) for p in inputs if p is not None}
    for path, write in outputs.items():
        if path is None:
            write(sys.stdout)
        else:
            with atomic_write(path) as fh:
                write(fh)
    if not stdout:
        values = {name: getattr(args, name) for name in parameters}
        _write_manifest(anchor or args.out, command, values, digests)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(
    anchor: Path, command: str, parameters: dict, digests: dict[str, str]
) -> Path:
    """Write ANCHOR.manifest.json, with the inputs' digests as they were
    read. Everything except created_at is a pure function of the command
    inputs, so manifests from identical runs differ only in that one field."""
    manifest = {
        "tool": "tvgeo",
        "version": __version__,
        "command": command,
        "parameters": {key: _jsonable(value) for key, value in parameters.items()},
        "inputs": digests,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(f"{anchor}.manifest.json")
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _jsonable(value):
    """A path is written as its text. JSON has no NaN or infinity: a
    non-finite float is written as its repr."""
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


if __name__ == "__main__":
    sys.exit(main())
