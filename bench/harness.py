"""The benchmark's stages, output checks, timed run and traced run.

Imported by run.py once the checkout's src/ is on the import path.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr
from pathlib import Path
from time import perf_counter

import tvgeo._tsv
import tvgeo.cli
import tvgeo.evaluation
import tvgeo.graph
import tvgeo.ground_truth
import tvgeo.robust_stats
import tvgeo.solver
import tvgeo.synth
from tvgeo.evaluation import city_accuracy
from tvgeo.geodesy import GeoPoint, geodesic_distance
from tvgeo.graph import iter_mention_file, read_network_file, total_variation
from tvgeo.ground_truth import (
    MAX_GPS_SPREAD_KM,
    Gazetteer,
    read_gps_events_file,
    read_profile_claims_file,
    read_seeds_file,
    seed_points,
)
from tvgeo.solver import EstimateState, LocationEstimate, SolverConfig, infer, read_estimates_file

import workloads as w
from probes import run_probes
from tracing import Agg, Tracer, is_wide, percentile, tail_percentile, union_length

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0  # keep timing set-up until this much is measured
ITERATIONS = 5
PLANTED_GAMMA_KM = 100.0
MIN_CITY_ACCURACY = 0.85

# Units of the printed metrics that BENCHMARK.json does not list: the stage
# times exist on some workloads only, and mean_error_km is dominated by a few
# outliers, so it spreads too widely across seeds to carry a bound.
EXTRA_UNITS = {
    "synth_s": "s", "infer_s": "s", "eval_s": "s", "ingest_s": "s", "seed_s": "s",
    "mean_error_km": "km", "node_rounds_per_s": "1/s", "records_per_s": "1/s",
    "error_rate": "frac",
}


class CheckFailed(Exception):
    """A stage's output is not what the workload's inputs determine."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def data_rows(path: Path) -> list[list[str]]:
    """Tab-separated data rows, skipping comments and blank lines (parsed
    here rather than with the package's readers, which are under test)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if line.strip() and not line.startswith("#"):
                rows.append(line.split("\t"))
    return rows


def check_manifest(out: Path, command: str, inputs: list[Path]) -> None:
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    require(manifest.get("command") == command, f"manifest command {manifest.get('command')!r}")
    for path in inputs:
        require(
            manifest["inputs"].get(str(path)) == sha256_file(path),
            f"manifest digest of {path.name} does not match the file",
        )


# --- stage runner -------------------------------------------------------------


class Runner:
    """Runs CLI stages in-process, times them and counts failed operations.

    An operation is one stage; it fails when it exits non-zero, raises, or
    its output check fails.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.after_stage = None  # if set, called untimed after each stage that passed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def stage(self, name: str, argv: list[str], check) -> float:
        self.attempted += 1
        region = self.tracer.region(f"cli.{name}") if self.tracer else nullcontext()
        stderr = io.StringIO()
        t0 = perf_counter()
        try:
            with region, redirect_stderr(stderr):
                code = tvgeo.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a stage that raises is a failed operation
            code = "raised"
            stderr.write(traceback.format_exc())
        seconds = perf_counter() - t0
        problem = None
        if code != 0:
            problem = f"exit {code}"
        else:
            try:
                check()
            except (CheckFailed, ValueError, OSError, KeyError) as exc:
                problem = f"check failed: {exc}"
        if problem is not None:
            self.fail(f"{name}: {problem}")
            print(f"FAILED {name}: {problem}\n{stderr.getvalue()}", file=sys.stderr)
        elif self.after_stage is not None:
            self.after_stage()
        return seconds


# --- workloads -------------------------------------------------------------------


class SolveWorkload:
    """infer -> eval on a network, seeds, held-out truth and city table.

    Subclasses set the network, seeds, heldout and cities paths.
    """

    gamma_km = PLANTED_GAMMA_KM
    radius_km = w.CITY_RADIUS_KM
    golden = False  # True when the acceptance goldens apply to these inputs

    def __init__(self, seed: int, work: Path, threads: int, scale: dict) -> None:
        self.seed = seed
        self.work = work
        self.threads = threads
        self.scale = scale
        self.estimates = work / "estimates.tsv"
        self.eval_dir = work / "eval"
        self.first_estimates: bytes | None = None
        self.quality: dict[str, float] = {}
        self.sizes: dict[str, int] = {}

    def infer_args(self, threads: int) -> list[str]:
        return [
            "infer", str(self.network), str(self.seeds),
            "--gamma", repr(self.gamma_km),
            "--iterations", str(ITERATIONS),
            "--threads", str(threads),
            "--out", str(self.estimates),
        ]

    def solve_stages(self, runner: Runner) -> dict[str, float]:
        eval_args = [
            "eval", str(self.estimates), str(self.heldout),
            "--out-dir", str(self.eval_dir), "--cities", str(self.cities),
        ]
        return {
            "infer": runner.stage("infer", self.infer_args(self.threads), self.check_infer),
            "eval": runner.stage("eval", eval_args, self.check_eval),
        }

    def record_sizes(self) -> None:
        edges = data_rows(self.network)
        nodes = {u for row in edges for u in row[:2]}
        seeds = {row[0] for row in data_rows(self.seeds)}
        self.sizes.update(
            nodes=len(nodes),
            edges=len(edges),
            seeds=len(seeds),
            heldout=len(data_rows(self.heldout)),
            networked_non_seed=len(nodes - seeds),
        )

    def output_bytes(self) -> bytes:
        return self.estimates.read_bytes()

    def setup(self) -> None:
        read_network_file(self.network)
        seed_points(read_seeds_file(self.seeds))

    def check_infer(self) -> None:
        text = self.estimates.read_bytes()
        if self.first_estimates is None:
            self.first_estimates = text
        require(text == self.first_estimates, "estimates differ between operations")
        if self.golden:
            digest = hashlib.sha256(text).hexdigest()
            require(digest == w.GOLDEN_DIGEST, f"estimates digest {digest} != GOLDEN_DIGEST")
        seeds = {row[0]: (row[1], row[2]) for row in data_rows(self.seeds)}
        network_nodes = {u for row in data_rows(self.network) for u in row[:2]}
        rows = data_rows(self.estimates)
        users = {row[0] for row in rows}
        require(len(users) == len(rows), "duplicate users in the estimates")
        require(set(seeds) <= users, "a seed is missing from the estimates")
        require(users <= network_nodes | set(seeds), "an estimate for an unknown user")
        for user, lat, lon, disp, source, first in rows:
            if user in seeds:
                require(
                    (lat, lon) == seeds[user] and source == "seed" and first == "0",
                    f"seed {user} moved or lost its source",
                )
            else:
                require(source == "inferred", f"user {user} has source {source!r}")
                require(1 <= int(first) <= ITERATIONS, f"user {user} first located in {first}")
                require(float(disp) <= self.gamma_km, f"user {user} dispersion {disp} > gamma")
        report = Path(f"{self.estimates}.report.csv").read_text(encoding="utf-8").splitlines()
        require(len(report) == ITERATIONS + 1, "report has the wrong number of rounds")
        require(int(report[-1].split(",")[2]) == len(rows), "report total != estimate rows")
        check_manifest(self.estimates, "infer", [self.network, self.seeds])

    def check_eval(self) -> None:
        header, values = (self.eval_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        quality = dict(zip(header.split(","), map(float, values.split(","))))
        located = {row[0] for row in data_rows(self.estimates)}
        heldout = [row[0] for row in data_rows(self.heldout)]
        expected_coverage = sum(1 for u in heldout if u in located) / len(heldout)
        require(quality["coverage"] == expected_coverage, "coverage disagrees with the estimates")
        self.check_quality(quality)
        check_manifest(self.eval_dir / "eval", "eval", [self.estimates, self.heldout, self.cities])
        self.quality = quality

    def check_quality(self, quality: dict[str, float]) -> None:
        if self.golden:
            goldens = {
                "coverage": w.GOLDEN_COVERAGE,
                "median_error_km": w.GOLDEN_MEDIAN_KM,
                "mean_error_km": w.GOLDEN_MEAN_KM,
                "city_accuracy": w.GOLDEN_CITY_ACCURACY,
            }
            for key, golden in goldens.items():
                require(
                    math.isclose(quality[key], golden, rel_tol=1e-6),
                    f"{key} {quality[key]!r} != golden {golden!r}",
                )
            return
        require(
            quality["city_accuracy"] >= MIN_CITY_ACCURACY,
            f"city accuracy {quality['city_accuracy']:.4f} < {MIN_CITY_ACCURACY}",
        )
        require(
            quality["median_error_km"] < self.radius_km,
            f"median error {quality['median_error_km']:.3f} km >= {self.radius_km} km",
        )

    def solver_inputs(self):
        cfg = SolverConfig(gamma_km=self.gamma_km, iterations=ITERATIONS)
        return read_network_file(self.network), seed_points(read_seeds_file(self.seeds)), cfg

    def node_rounds(self) -> int:
        return self.sizes["networked_non_seed"] * ITERATIONS


class PlantedLocal(SolveWorkload):
    """synth -> infer -> eval on the committed acceptance benchmark config."""

    name = "planted-local"

    def __init__(self, seed: int, work: Path, threads: int, scale: dict) -> None:
        super().__init__(seed, work, threads, scale)
        self.cfg = w.planted_config(seed, **scale)
        self.golden = self.cfg == w.planted_config(w.GOLDEN_SEED)
        self.synth_dir = work / "synth"
        self.network = self.synth_dir / "network.tsv"
        self.seeds = self.synth_dir / "seeds.tsv"
        self.cities = self.synth_dir / "cities.tsv"
        self.heldout = work / "heldout.tsv"
        self.first_synth: dict[str, bytes] = {}

    def prepare(self) -> None:
        """Nothing to do: the synth stage writes the inputs."""

    def run_op(self, runner: Runner) -> dict[str, float]:
        synth_s = runner.stage("synth", w.synth_args(self.cfg, self.synth_dir), self.check_synth)
        try:
            self.write_heldout()
        except OSError:
            pass  # synth failed and was counted; infer and eval fail with it
        return {"synth": synth_s, **self.solve_stages(runner)}

    def write_heldout(self) -> None:
        """Truth minus the seeds, by line filtering (untimed)."""
        seeds = {row[0] for row in data_rows(self.seeds)}
        truth = self.synth_dir / "truth.tsv"
        with open(truth, encoding="utf-8") as src, open(self.heldout, "w", encoding="utf-8") as dst:
            for line in src:
                if line.startswith("#") or line.split("\t", 1)[0] not in seeds:
                    dst.write(line)
        if not self.sizes:
            self.record_sizes()
            self.sizes["truth"] = len(data_rows(truth))

    def check_synth(self) -> None:
        cfg = self.cfg
        files = {n: (self.synth_dir / f"{n}.tsv").read_bytes()
                 for n in ("network", "truth", "seeds", "cities", "assignments")}
        if not self.first_synth:
            self.first_synth = files
        require(files == self.first_synth, "synth output differs between operations")
        users = cfg.num_cities * cfg.users_per_city
        edges = cfg.num_cities * round(cfg.users_per_city * cfg.intra_edge_mean_degree / 2)
        seeds = cfg.num_cities * round(cfg.seed_fraction * cfg.users_per_city)
        require(len(data_rows(self.synth_dir / "truth.tsv")) == users, "truth row count")
        require(len(data_rows(self.network)) == edges, "network edge count")
        require(len(data_rows(self.seeds)) == seeds, "seed count")
        require(len(data_rows(self.cities)) == cfg.num_cities, "city count")
        check_manifest(self.synth_dir / "synth", "synth", [])


class HubWorldwide(SolveWorkload):
    """infer --gamma inf --threads 1 -> eval on planted cities plus hubs."""

    name = "hub-worldwide"
    gamma_km = math.inf

    def __init__(self, seed: int, work: Path, threads: int, scale: dict) -> None:
        super().__init__(seed, work, 1, scale)
        self.network = work / "network.tsv"
        self.seeds = work / "seeds.tsv"
        self.heldout = work / "heldout.tsv"
        self.cities = work / "cities.tsv"

    def prepare(self) -> None:
        inputs = w.make_hub_worldwide(self.seed, **self.scale)
        w.write_hub_worldwide(inputs, self.work)
        self.record_sizes()
        self.sizes["hubs"] = len(inputs.hubs)
        self.sizes["hub_degree"] = min(len(m) for m in inputs.hubs.values())

    def run_op(self, runner: Runner) -> dict[str, float]:
        return self.solve_stages(runner)


class SeedIngest:
    """ingest -> seed on inputs whose outputs are known by construction."""

    name = "seed-ingest"

    def __init__(self, seed: int, work: Path, threads: int, scale: dict) -> None:
        self.seed = seed
        self.work = work
        self.threads = 1
        self.scale = scale
        self.network = work / "network.tsv"
        self.seeds = work / "seeds.tsv"
        self.homes: dict[int, GeoPoint] = {}
        self.sizes: dict[str, int] = {}

    def prepare(self) -> None:
        self.inputs = inputs = w.make_seed_ingest(self.seed, **self.scale)
        self.paths = w.write_seed_ingest(inputs, self.work)
        self.sizes.update(
            users=len(inputs.truth),
            nodes=inputs.network.num_nodes,
            edges=inputs.network.num_edges,
            mention_rows=len(inputs.mentions),
            gps_rows=len(inputs.gps),
            claim_rows=len(inputs.claims),
            gazetteer_rows=len(inputs.gazetteer),
            gps_users=inputs.users_with_gps,
            claim_users=inputs.users_with_claims,
            expected_seeds=len(inputs.expected_sources),
        )

    def run_op(self, runner: Runner) -> dict[str, float]:
        p = self.paths
        seed_args = [
            "seed", "--gps", str(p["gps"]), "--profiles", str(p["claims"]),
            "--gazetteer", str(p["gazetteer"]), "--now", repr(w.NOW), "--out", str(self.seeds),
        ]
        ingest_args = ["ingest", str(p["mentions"]), "--out", str(self.network)]
        return {
            "ingest": runner.stage("ingest", ingest_args, self.check_ingest),
            "seed": runner.stage("seed", seed_args, self.check_seed),
        }

    def input_rows(self) -> int:
        s = self.sizes
        return s["mention_rows"] + s["gps_rows"] + s["claim_rows"] + s["gazetteer_rows"]

    def output_bytes(self) -> bytes:
        return self.network.read_bytes() + self.seeds.read_bytes()

    def setup(self) -> None:
        list(iter_mention_file(self.paths["mentions"]))
        read_gps_events_file(self.paths["gps"])
        read_profile_claims_file(self.paths["claims"])
        Gazetteer.from_tsv(self.paths["gazetteer"])

    def check_ingest(self) -> None:
        got = {(int(u), int(v)): int(wt) for u, v, wt in data_rows(self.network)}
        want = {(e.u, e.v): e.weight for e in self.inputs.network.edges()}
        require(got == want, f"ingested {len(got)} edges, planted {len(want)} (or weights differ)")
        check_manifest(self.network, "ingest", [self.paths["mentions"]])

    def check_seed(self) -> None:
        inputs = self.inputs
        rows = {int(r[0]): r for r in data_rows(self.seeds)}
        got = {user: r[3] for user, r in rows.items()}
        require(got == inputs.expected_sources, "seed users or sources differ from the expected set")
        homes = {}
        for user, (_, lat, lon, source, spread) in rows.items():
            home = GeoPoint(float(lat), float(lon))
            if source == "gazetteer":
                require(home == inputs.expected_gazetteer[user], f"seed {user} not at its city")
            else:
                require(float(spread) <= MAX_GPS_SPREAD_KM, f"seed {user} spread {spread}")
                require(geodesic_distance(home, inputs.truth[user]) < 10.0,
                        f"seed {user} far from home")
            homes[user] = home
        check_manifest(
            self.seeds, "seed", [self.paths["gps"], self.paths["claims"], self.paths["gazetteer"]]
        )
        self.homes = homes

    @property
    def quality(self) -> dict[str, float]:
        """The seed set scored against the planted homes. Computed on demand,
        not in the check, so that a traced run does not count these calls."""
        if not self.homes:
            return {}
        homes = self.homes
        truth = self.inputs.truth
        errors = [geodesic_distance(homes[u], truth[u]) for u in sorted(homes)]
        state = EstimateState(
            {u: LocationEstimate(u, p, 0.0, "seed", 0) for u, p in homes.items()}, 0
        )
        return {
            "coverage": len(homes) / len(truth),
            "median_error_km": statistics.median(errors),
            "mean_error_km": statistics.fmean(errors),
            "city_accuracy": city_accuracy(state, truth, self.inputs.cities, 0),
        }


WORKLOAD_CLASSES = {cls.name: cls for cls in (PlantedLocal, HubWorldwide, SeedIngest)}


# --- environment ------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return "unknown"
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "threads": threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# --- the timed run ------------------------------------------------------------------


def timed_run(wl, runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    """Repeat the workload's stages while another pass fits in `seconds`
    (at least once). Loading the inputs is timed after every stage that
    passed, so the set-up samples spread over the run, and then again until
    SETUP_REPEATS times and SETUP_MIN_S seconds are reached."""
    setup_times: list[float] = []

    def time_setup() -> None:
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)

    runner.after_stage = time_setup
    ops: list[dict[str, float]] = []
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        ops.append(wl.run_op(runner))
        now = perf_counter()
        if (now - started) + (now - pass_started) > seconds:
            break
    runner.after_stage = None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        time_setup()

    stage_s = {name: statistics.median(op[name] for op in ops) for name in ops[0]}
    quality = wl.quality
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(sum(op.values()) for op in ops),
        "peak_rss_mb": peak_rss_mb(),
        **{key: quality.get(key, 0.0) for key in ("coverage", "median_error_km", "city_accuracy")},
    }
    extra = {f"{name}_s": value for name, value in stage_s.items()}
    extra["mean_error_km"] = quality.get("mean_error_km", 0.0)
    if "infer" in stage_s:
        extra["node_rounds_per_s"] = wl.node_rounds() / stage_s["infer"]
    if "ingest" in stage_s:
        extra["records_per_s"] = wl.input_rows() / (stage_s["ingest"] + stage_s["seed"])
    extra["error_rate"] = runner.failed / runner.attempted
    return metrics, extra, {"operations": ops, "setup_times_s": setup_times}


# --- the traced run --------------------------------------------------------------------

# tvgeo.cli names wrapped as spans, and the metric prefix of each.
CLI_SPANS = {
    "infer": "solver.infer",
    "read_network_file": "graph.read_network_file",
    "build_reciprocal_network": "graph.build_reciprocal_network",
    "write_network_file": "graph.write_network_file",
    "read_gps_events_file": "ground_truth.read_gps_events_file",
    "read_profile_claims_file": "ground_truth.read_profile_claims_file",
    "read_seeds_file": "ground_truth.read_seeds_file",
    "gps_homes": "ground_truth.gps_homes",
    "gazetteer_homes": "ground_truth.gazetteer_homes",
    "write_seeds_file": "ground_truth.write_seeds_file",
    "generate": "synth.generate",
    "write_synth_files": "synth.write_synth_files",
    "read_truth_file": "evaluation.read_truth_file",
    "evaluate": "evaluation.evaluate",
    "city_accuracy": "evaluation.city_accuracy",
    "read_estimates_file": "solver.read_estimates_file",
    "write_estimates_file": "solver.write_estimates_file",
}


def _accept_frac(agg: Agg, args, result) -> None:
    agg.extra["offered"] = agg.extra.get("offered", 0) + len({x.user for x in args[0]})
    agg.extra["accepted"] = agg.extra.get("accepted", 0) + len(result)


def install(tracer: Tracer) -> None:
    """Wrap each public function at the name its caller looks it up by."""
    solver, synth, ground_truth = tvgeo.solver, tvgeo.synth, tvgeo.ground_truth
    callers = {
        "solver": solver, "robust_stats": tvgeo.robust_stats, "graph": tvgeo.graph,
        "synth": synth, "evaluation": tvgeo.evaluation, "ground_truth": ground_truth,
    }
    for caller, module in callers.items():
        tracer.patch(module, "geodesic_distance",
                     tracer.leaf(f"geodesy.distance@{caller}", module.geodesic_distance))
    tracer.patch(synth, "destination", tracer.leaf("geodesy.destination", synth.destination))
    for module in (solver, ground_truth):
        tracer.patch(module, "geodesic_l1_median", tracer.hot(
            "robust_stats.median", module.geodesic_l1_median, samples=True, keep_args=True))
        tracer.patch(module, "dispersion",
                     tracer.hot("robust_stats.dispersion", module.dispersion))
    tracer.patch(solver, "node_update", tracer.hot(
        "solver.node_update", solver.node_update, intervals=True, count_none=True))
    tracer.patch(solver, "nodal_variation", tracer.hot(
        "solver.nodal_variation", solver.nodal_variation, intervals=True))
    tracer.patch(tvgeo._tsv, "iter_rows", tracer.iter_rows(tvgeo._tsv.iter_rows))
    tracer.patch(tvgeo._tsv, "write_header", tracer.write_header(tvgeo._tsv.write_header))
    for attr, name in CLI_SPANS.items():
        after = _accept_frac if attr in ("gps_homes", "gazetteer_homes") else None
        tracer.patch(tvgeo.cli, attr, tracer.span(name, getattr(tvgeo.cli, attr), after=after))
    # write_synth_files imports these two from their modules at call time.
    for module, attr in ((tvgeo.graph, "write_network_file"), (ground_truth, "write_seeds_file")):
        tracer.patch(module, attr, tracer.span(CLI_SPANS[attr], getattr(module, attr)))


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the tracer's aggregates, and the detail behind
    them for the result record."""
    aggs = tracer.aggregates()

    def get(name: str) -> Agg:
        return aggs.get(name) or Agg()

    distance = {n.split("@")[1]: a for n, a in aggs.items() if n.startswith("geodesy.distance@")}
    median = get("robust_stats.median")
    samples = sorted(median.samples or [])
    tail = tail_percentile(len(samples))
    wide = [dt for s, dt in (median.args or []) if is_wide(s.points, s.weights)]
    node_update = get("solver.node_update")
    variation = get("solver.nodal_variation")
    solve = get("solver.infer")
    # At threads > 1 per-call times overlap, so the round overhead is the
    # solve's wall time not covered by any node update or descent check.
    covered = union_length((node_update.intervals or []) + (variation.intervals or []))

    def accept_frac(agg: Agg) -> float:
        offered = agg.extra.get("offered", 0)
        return agg.extra.get("accepted", 0) / offered if offered else 0.0

    m = {
        "geodesy.distance.calls": sum(a.calls for a in distance.values()),
        "geodesy.distance.total_s": sum(a.total for a in distance.values()),
        "geodesy.destination.calls": get("geodesy.destination").calls,
        "geodesy.destination.total_s": get("geodesy.destination").total,
        "robust_stats.median.calls": median.calls,
        "robust_stats.median.self_s": median.self_time,
        "robust_stats.median.p50_us": 1e6 * percentile(samples, 50.0) if samples else 0.0,
        "robust_stats.median.p99_us": 1e6 * percentile(samples, tail) if tail else 0.0,
        "robust_stats.median.wide_calls": len(wide),
        "robust_stats.median.wide_s": sum(wide, 0.0),
        "robust_stats.dispersion.calls": get("robust_stats.dispersion").calls,
        "robust_stats.dispersion.total_s": get("robust_stats.dispersion").total,
        "solver.infer.s": solve.total,
        "solver.node_update.calls": node_update.calls,
        "solver.node_update.self_s": node_update.self_time,
        "solver.node_update.rejected_frac": (
            node_update.extra.get("none", 0) / node_update.calls if node_update.calls else 0.0
        ),
        "solver.nodal_variation.calls": variation.calls,
        "solver.nodal_variation.total_s": variation.total,
        "solver.round_overhead_s": solve.total - covered if solve.calls else 0.0,
        "tsv.iter_rows.rows": get("_tsv.iter_rows").calls,
        "tsv.iter_rows.s": get("_tsv.iter_rows").total,
        "tsv.bytes_in": tracer.bytes_in,
        "tsv.bytes_out": tracer.bytes_out(),
        "ground_truth.gps_homes.accept_frac": accept_frac(get("ground_truth.gps_homes")),
        "ground_truth.gazetteer_homes.accept_frac": accept_frac(get("ground_truth.gazetteer_homes")),
    }
    for name in CLI_SPANS.values():
        m.setdefault(f"{name}.s", get(name).total)
    for stage in ("synth", "infer", "eval", "ingest", "seed"):
        m[f"cli.{stage}.other_s"] = get(f"cli.{stage}").self_time
    detail = {
        "geodesy.distance.calls_by_caller": {c: a.calls for c, a in distance.items()},
        "robust_stats.median.tail_percentile": tail,
        "aggregates": {
            name: {"calls": a.calls, "total_s": a.total, "self_s": a.self_time,
                   "log2_hist": {str(k): v for k, v in sorted(a.hist.items())}}
            for name, a in sorted(aggs.items())
        },
        "spans": tracer.spans,
    }
    return m, detail


def traced_run(wl, seed: int) -> tuple[dict, dict, Runner]:
    """One traced pass over the stages, an untraced replay of the main stages
    (the overhead base and the check that tracing changed no output byte),
    the thread-scaling solve, the objective and the kernel probes."""
    tracer = Tracer()
    runner = Runner(tracer)
    install(tracer)
    try:
        traced_stages = wl.run_op(runner)
    finally:
        tracer.restore()
    metrics, detail = layer_metrics(tracer)
    clean = runner.failed == 0
    traced_output = wl.output_bytes() if clean else b""

    replay = Runner()
    solve_s: dict[int, float] = {}
    if isinstance(wl, SolveWorkload):
        timer = Tracer()  # times the one solve call, nothing else
        timer.patch(tvgeo.cli, "infer", timer.span("solver.infer", tvgeo.cli.infer))
        try:
            untraced = {"infer": replay.stage("infer", wl.infer_args(wl.threads), lambda: None)}
        finally:
            timer.restore()
        solve_s[wl.threads] = timer.aggregates().get("solver.infer", Agg()).total
    else:
        untraced = wl.run_op(replay)
    runner.attempted += replay.attempted + 1
    for failure in replay.failures:
        runner.fail(f"untraced {failure}")
    if clean and replay.failed == 0 and wl.output_bytes() != traced_output:
        runner.fail("trace: traced and untraced outputs differ")
    traced_main = sum(traced_stages[name] for name in untraced)
    metrics["trace.overhead_frac"] = traced_main / sum(untraced.values()) - 1.0

    metrics.update({"solver.parallel_speedup": 0.0, "solver.tv_km": 0.0,
                    "graph.total_variation.s": 0.0})
    if isinstance(wl, SolveWorkload) and runner.failed == 0:
        network, seeds, cfg = wl.solver_inputs()
        nproc = len(os.sched_getaffinity(0))
        other = 1 if wl.threads != 1 else nproc
        t0 = perf_counter()
        infer(network, seeds, cfg, threads=other)
        solve_s[other] = perf_counter() - t0
        metrics["solver.parallel_speedup"] = solve_s[1] / solve_s[nproc]
        locations = {u: e.point for u, e in read_estimates_file(wl.estimates).located.items()}
        t0 = perf_counter()
        metrics["solver.tv_km"], skipped = total_variation(network, locations)
        metrics["graph.total_variation.s"] = perf_counter() - t0
        detail["solve_s_by_threads"] = solve_s
        detail["total_variation_skipped_edges"] = skipped
    metrics.update(run_probes(seed))
    detail["traced_stage_s"] = traced_stages
    detail["untraced_stage_s"] = untraced
    return metrics, detail, runner


# --- one run ----------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if trace else "end_to_end"]
    work = WORK_ROOT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    wl = WORKLOAD_CLASSES[workload](seed, work, nproc, w.TINY[workload] if tiny else {})
    try:
        t0 = perf_counter()
        wl.prepare()
        generate_s = perf_counter() - t0
        if trace:
            metrics, detail, runner = traced_run(wl, seed)
            extra = {}
        else:
            runner = Runner()
            metrics, extra, detail = timed_run(wl, runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    env = environment(wl.threads)
    print(f"# {workload} seed {seed} trace {int(trace)}: {json.dumps(env)}")
    print(f"# input sizes: {json.dumps(wl.sizes)}")
    for m in listed:
        print(f"{m['name']} {metrics[m['name']]!r} {m['unit']}")
    for name, value in extra.items():
        print(f"{name} {value!r} {EXTRA_UNITS[name]}")
    if trace:
        print(f"# geodesy.distance.calls by caller: {detail['geodesy.distance.calls_by_caller']}")
    else:
        print(f"# medians over {len(detail['operations'])} passes and "
              f"{len(detail['setup_times_s'])} set-ups")
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "sizes": wl.sizes, "input_generation_s": generate_s,
        "metrics": metrics, "extra_metrics": extra, "attempted": runner.attempted,
        "failed": runner.failed, "failures": runner.failures, **detail,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0
