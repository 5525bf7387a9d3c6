"""Shared fixtures, including the committed synthetic benchmark.

The benchmark (50 cities x 400 users, 15 km radius, 10% seeds, pinned rng
seed) is generated once per session; the solver fixture runs it once under
the descent verifier (oracles.descent_checked) and both results are reused
across test modules.
"""

from __future__ import annotations

import io
import time

import pytest

from tvgeo import solver
from tvgeo.ground_truth import seed_points
from tvgeo.solver import SolverConfig, infer, write_estimates_file
from tvgeo.synth import SynthConfig, generate, write_synth_files

from oracles import descent_checked

BENCHMARK_CONFIG = SynthConfig(
    num_cities=50,
    users_per_city=400,
    city_radius_km=15.0,
    intra_edge_mean_degree=5.0,
    inter_edge_fraction=0.05,
    seed_fraction=0.10,
    rng_seed=17,
)

BENCHMARK_SOLVER = SolverConfig(gamma_km=100.0, iterations=5)


@pytest.fixture(scope="session")
def benchmark_result():
    return generate(BENCHMARK_CONFIG)


@pytest.fixture(scope="session")
def benchmark_files(tmp_path_factory, benchmark_result):
    out_dir = tmp_path_factory.mktemp("benchmark")
    return write_synth_files(benchmark_result, out_dir)


@pytest.fixture(scope="session")
def benchmark_run(benchmark_result):
    """One full solver run over the benchmark (threads=4), with every accepted
    re-update checked by descent_checked, in the workers too. Returns (state,
    stats, estimates_text, elapsed_seconds)."""
    seeds = seed_points(benchmark_result.seeds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "node_update", descent_checked(solver.node_update))
        started = time.perf_counter()
        state, stats = infer(benchmark_result.network, seeds, BENCHMARK_SOLVER, threads=4)
        elapsed = time.perf_counter() - started
    buffer = io.StringIO()
    write_estimates_file(state, buffer)
    return state, stats, buffer.getvalue(), elapsed


@pytest.fixture(scope="session")
def benchmark_test_points(benchmark_result):
    """Truth for every non-seed user: the leave-many-out test set."""
    return {
        user: point
        for user, point in benchmark_result.truth.items()
        if user not in benchmark_result.seeds
    }
