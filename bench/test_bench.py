"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tvgeo.geodesy import GeoPoint  # noqa: E402
from tvgeo.ground_truth import normalize_place  # noqa: E402

def test_goldens_match_the_acceptance_suite():
    text = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    for name in ("GOLDEN_DIGEST", "GOLDEN_COVERAGE", "GOLDEN_MEDIAN_KM", "GOLDEN_MEAN_KM",
                 "GOLDEN_CITY_ACCURACY"):
        value = re.search(rf"^{name} = (.+)$", text, re.M).group(1)
        assert eval(value) == getattr(workloads, name), name
    conftest = (ROOT / "tests" / "conftest.py").read_text(encoding="utf-8")
    for key, value in workloads.PLANTED_LOCAL.items():
        assert re.search(rf"{key}={value!r}", conftest), key
    assert f"rng_seed={workloads.GOLDEN_SEED}" in conftest


def test_hub_generator_is_deterministic_and_wide():
    tiny = workloads.TINY["hub-worldwide"]
    a = workloads.make_hub_worldwide(5, **tiny)
    b = workloads.make_hub_worldwide(5, **tiny)
    c = workloads.make_hub_worldwide(6, **tiny)
    assert a == b
    assert a.network != c.network
    for hub, members in a.hubs.items():
        assert len(members) == tiny["hub_degree"]
        assert set(members) <= set(a.seeds)
        weights = [w for _, w in a.network.neighbors(hub)]
        assert tracing.is_wide([a.truth[m] for m in members], weights)


def test_seed_ingest_generator_is_deterministic():
    tiny = workloads.TINY["seed-ingest"]
    a = workloads.make_seed_ingest(5, **tiny)
    b = workloads.make_seed_ingest(5, **tiny)
    c = workloads.make_seed_ingest(6, **tiny)
    assert a == b
    assert a.mentions != c.mentions


def test_seed_ingest_expectations_hold_through_the_library():
    from tvgeo.graph import build_reciprocal_network
    from tvgeo.ground_truth import (Gazetteer, GpsEvent, ProfileClaim, gazetteer_homes,
                                    gps_homes, merge_seeds)

    inputs = workloads.make_seed_ingest(3, **workloads.TINY["seed-ingest"])
    network, report = build_reciprocal_network(inputs.mentions)
    assert network == inputs.network
    assert report.dropped_self_mentions > 0
    events = [GpsEvent(u, GeoPoint(lat, lon), t) for u, lat, lon, t in inputs.gps]
    claims = [ProfileClaim(u, text, t) for u, t, text in inputs.claims]
    gazetteer = Gazetteer({n: GeoPoint(lat, lon) for n, lat, lon in inputs.gazetteer})
    seeds = merge_seeds(gps_homes(events).values(),
                        gazetteer_homes(claims, gazetteer, workloads.NOW).values())
    assert {u: r.source for u, r in seeds.items()} == inputs.expected_sources
    assert {u: r.home for u, r in seeds.items() if r.source == "gazetteer"} == \
        inputs.expected_gazetteer


def test_messy_names_still_match_and_multi_place_texts_never_do():
    import random

    rng = random.Random(0)
    names = {normalize_place(n) for n, _, _ in workloads.CURATED_CITIES}
    for name, _, _ in workloads.CURATED_CITIES:
        assert normalize_place(workloads._messy(rng, name)) == normalize_place(name)
    assert not names & {normalize_place(t) for t in workloads._MULTI_PLACE}


def test_tail_percentile_rule():
    # The highest of p99/p90/p50 with at least ten samples beyond it.
    assert tracing.tail_percentile(100_000) == 99.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(999) == 90.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(99) == 50.0
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(19) is None
    values = [float(i) for i in range(1, 1001)]
    assert tracing.percentile(values, 99.0) == 990.0  # 10 samples beyond
    assert tracing.percentile(values, 50.0) == 500.0


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracing.union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_arithmetic(monkeypatch):
    """outer (10 s) calls inner (4 s), which calls a leaf (1 s) twice:
    self times are 6, 2 and 2 s."""
    clock = [0.0]
    monkeypatch.setattr(tracing, "perf_counter", lambda: clock[0])

    def advance(seconds):
        clock[0] += seconds

    tracer = tracing.Tracer()
    leaf = tracer.leaf("leaf", lambda: advance(1.0))

    def inner_fn():
        advance(1.0)
        leaf()
        leaf()
        advance(1.0)

    inner = tracer.hot("inner", inner_fn, samples=True)

    def outer_fn():
        advance(3.0)
        inner()
        advance(3.0)

    outer = tracer.span("outer", outer_fn)
    outer()
    aggs = tracer.aggregates()
    assert (aggs["outer"].total, aggs["outer"].self_time) == (10.0, 6.0)
    assert (aggs["inner"].total, aggs["inner"].self_time) == (4.0, 2.0)
    assert (aggs["leaf"].calls, aggs["leaf"].total) == (2, 2.0)
    assert aggs["inner"].samples == [4.0]
    (span,) = tracer.spans
    assert span["name"] == "outer" and span["self_s"] == 6.0 and span["parent"] is None


def test_patch_restores_the_original():
    import tvgeo.solver

    original = tvgeo.solver.geodesic_distance
    tracer = tracing.Tracer()
    tracer.patch(tvgeo.solver, "geodesic_distance", tracer.leaf("d", original))
    assert tvgeo.solver.geodesic_distance is not original
    tracer.restore()
    assert tvgeo.solver.geodesic_distance is original


def test_is_wide_matches_the_median_fallback():
    from tvgeo.robust_stats import WeightedPointSet, _medoid, geodesic_l1_median

    local = [GeoPoint(10.0, 10.0), GeoPoint(10.1, 10.0), GeoPoint(10.0, 10.2)]
    assert not tracing.is_wide(local, [1.0, 1.0, 1.0])
    world = [GeoPoint(0.0, 0.0), GeoPoint(0.0, 120.0), GeoPoint(0.0, -120.0), GeoPoint(60.0, 0.0)]
    weights = [1.0, 1.0, 1.0, 1.0]
    assert tracing.is_wide(world, weights)
    s = WeightedPointSet(tuple(world), tuple(weights))
    assert geodesic_l1_median(s) == _medoid(s)


def _run(*args, root=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", ["planted-local", "hub-worldwide", "seed-ingest"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), m["name"]
        if trace == "0":
            assert got["value"] != 0, m["name"]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
    proc = _run("--workload", "seed-ingest", "--seed", "1", "--seconds", "1", "--trace", "0",
                root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_names_agree():
    import harness
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(run.WORKLOADS) == set(harness.WORKLOAD_CLASSES)
