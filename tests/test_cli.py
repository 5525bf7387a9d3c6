import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from tvgeo.cli import main
from tvgeo.geodesy import GeoPoint, destination
from tvgeo.graph import read_network_file
from tvgeo.ground_truth import read_seeds_file
from tvgeo import _workers, cli, solver
from tvgeo.solver import read_estimates_file

NOW = 1_700_000_000.0
DAY = 86400.0


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def mention_file(tmp_path):
    return write(tmp_path / "mentions.tsv", "1\t2\t5\n2\t1\t2\n1\t3\t9\n")


def seeds_line(user, point, source="gps", spread=0.0):
    return f"{user}\t{point.lat!r}\t{point.lon!r}\t{source}\t{spread!r}\n"


def _die_in_worker(node):
    os._exit(1)  # as an OOM-killed worker would


class TestIngest:
    def test_three_line_fixture_yields_one_edge(self, tmp_path, mention_file, capsys):
        out = tmp_path / "net.tsv"
        assert main(["ingest", str(mention_file), "--out", str(out)]) == 0
        net = read_network_file(out)
        assert net.num_edges == 1 and net.num_nodes == 2
        err = capsys.readouterr().err
        assert "1 reciprocated edges" in err

    def test_empty_file_succeeds_with_empty_network(self, tmp_path, capsys):
        mentions = write(tmp_path / "m.tsv", "")
        out = tmp_path / "net.tsv"
        assert main(["ingest", str(mentions), "--out", str(out)]) == 0
        assert read_network_file(out).num_edges == 0

    def test_self_mention_dropped_and_reported(self, tmp_path, capsys):
        mentions = write(tmp_path / "m.tsv", "4\t4\t2\n")
        out = tmp_path / "net.tsv"
        assert main(["ingest", str(mentions), "--out", str(out)]) == 0
        assert read_network_file(out).num_edges == 0
        assert "1 self-mentions" in capsys.readouterr().err

    def test_malformed_file_fails_with_line_number(self, tmp_path, capsys):
        mentions = write(tmp_path / "m.tsv", "1\t2\t5\nbad line\n")
        out = tmp_path / "net.tsv"
        assert main(["ingest", str(mentions), "--out", str(out)]) == 1
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize("stdout", [False, True])
    def test_weight_past_the_float_range_fails_naming_the_pair(self, tmp_path, capsys, stdout):
        # Both directions are past the float range, so their minimum is too.
        mentions = write(
            tmp_path / "m.tsv", f"1\t2\t5\n2\t1\t3\n9\t4\t{10**400}\n4\t9\t{10**309}\n"
        )
        out = tmp_path / "net.tsv"
        args = ["ingest", str(mentions)] + (["--stdout"] if stdout else ["--out", str(out)])
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: edge (4, 9) has a weight too large for a float\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv"]

    def test_stdout_mode_writes_data_to_stdout(self, mention_file, capsys):
        assert main(["ingest", str(mention_file), "--stdout"]) == 0
        out = capsys.readouterr().out
        assert "1\t2\t2" in out

    def test_no_data_on_stdout_without_flag(self, tmp_path, mention_file, capsys):
        out = tmp_path / "net.tsv"
        main(["ingest", str(mention_file), "--out", str(out)])
        assert capsys.readouterr().out == ""


class TestSeed:
    @pytest.fixture
    def inputs(self, tmp_path):
        home = GeoPoint(37.77, -122.42)
        gps_rows = []
        for user, point in ((1, home), (2, destination(home, 90.0, 3.0))):
            for k in range(3):
                gps_rows.append(f"{user}\t{point.lat!r}\t{point.lon!r}\t{1000 + 3600 * k}\n")
        gps = write(tmp_path / "gps.tsv", "".join(gps_rows))
        claims = write(
            tmp_path / "claims.tsv",
            f"2\t{NOW - DAY}\tMalibu, CA\n"
            f"3\t{NOW - DAY}\tMalibu, CA\n"
            f"4\t{NOW - 91 * DAY}\tMalibu, CA\n",
        )
        gazetteer = write(tmp_path / "gaz.tsv", "malibu, ca\t34.03\t-118.78\n")
        return gps, claims, gazetteer

    def test_gps_only(self, tmp_path, inputs, capsys):
        gps, _, _ = inputs
        out = tmp_path / "seeds.tsv"
        assert main(["seed", "--gps", str(gps), "--out", str(out)]) == 0
        seeds = read_seeds_file(out)
        assert set(seeds) == {1, 2}
        assert all(r.source == "gps" for r in seeds.values())

    def test_gps_wins_and_stale_claims_drop(self, tmp_path, inputs):
        gps, claims, gazetteer = inputs
        out = tmp_path / "seeds.tsv"
        code = main(
            [
                "seed",
                "--gps", str(gps),
                "--profiles", str(claims),
                "--gazetteer", str(gazetteer),
                "--now", str(NOW),
                "--out", str(out),
            ]
        )
        assert code == 0
        seeds = read_seeds_file(out)
        assert seeds[2].source == "gps"  # both sources: gps wins
        assert seeds[3].source == "gazetteer"
        assert 4 not in seeds  # stale claim

    def test_gap_that_underflows_to_zero_hours_rejects_the_user(self, tmp_path, inputs, capsys):
        gps, _, _ = inputs
        # User 5 moves 1 km in 5e-324 s, a positive gap of 0.0 hours.
        home = GeoPoint(37.77, -122.42)
        away = destination(home, 0.0, 1.0)
        rows = [(home, "0"), (away, "5e-324"), (away, "3600")]
        with open(gps, "a", encoding="utf-8") as fh:
            fh.writelines(f"5\t{p.lat!r}\t{p.lon!r}\t{t}\n" for p, t in rows)
        out = tmp_path / "seeds.tsv"
        assert main(["seed", "--gps", str(gps), "--out", str(out)]) == 0
        assert set(read_seeds_file(out)) == {1, 2}

    def test_output_is_the_same_at_any_worker_count(self, tmp_path, monkeypatch):
        rows = []
        for user in range(150):
            home = GeoPoint(-60.0 + 0.8 * user, -180.0 + 2.4 * user)
            for k in range(3 + user % 5):
                # Every seventh user strays 40 km a step, over the 30 km spread.
                km = (40.0 if user % 7 == 0 else 0.5) * k
                p = destination(home, 37.0 * k, km)
                rows.append(f"{user}\t{p.lat!r}\t{p.lon!r}\t{1000 + 7200 * k}\n")
        gps = write(tmp_path / "gps.tsv", "".join(reversed(rows)))
        written = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)
            out = tmp_path / f"seeds-{cpus}.tsv"
            assert main(["seed", "--gps", str(gps), "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]
        assert 100 < len(read_seeds_file(tmp_path / "seeds-1.tsv")) < 150

    def test_profiles_without_gazetteer_fail(self, tmp_path, inputs, capsys):
        _, claims, _ = inputs
        out = tmp_path / "seeds.tsv"
        code = main(
            ["seed", "--profiles", str(claims), "--now", str(NOW), "--out", str(out)]
        )
        assert code == 1
        assert "gazetteer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--now", str(NOW)], "--gazetteer is required when --profiles is given"),
            (["--gazetteer", "absent-gaz.tsv"], "--now is required when --profiles is given"),
        ],
        ids=["no-gazetteer", "no-now"],
    )
    def test_profile_companions_are_checked_before_any_input_is_read(
        self, tmp_path, capsys, flags, message
    ):
        absent = str(tmp_path / "absent.tsv")
        out = tmp_path / "seeds.tsv"
        code = main(["seed", "--gps", absent, "--profiles", absent, *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_finite_now_fails(self, tmp_path, inputs, capsys):
        _, claims, gazetteer = inputs
        out = tmp_path / "seeds.tsv"
        code = main(
            [
                "seed",
                "--profiles", str(claims),
                "--gazetteer", str(gazetteer),
                "--now", "nan",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "error: now must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_now_fails_without_claims(self, tmp_path, inputs, capsys):
        _, _, gazetteer = inputs
        claims = write(tmp_path / "comments.tsv", "# no claims\n")
        code = main(
            [
                "seed",
                "--profiles", str(claims),
                "--gazetteer", str(gazetteer),
                "--now", "nan",
                "--stdout",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: now must be finite, got nan" in captured.err

    def test_requires_some_input(self, tmp_path, capsys):
        assert main(["seed", "--out", str(tmp_path / "s.tsv")]) == 1

    def test_non_finite_parameters_keep_the_manifest_strict_json(self, tmp_path, inputs):
        gps, _, _ = inputs
        out = tmp_path / "seeds.tsv"
        assert main(["seed", "--gps", str(gps), "--now", "nan", "--out", str(out)]) == 0

        def reject(constant):
            raise AssertionError(f"manifest holds the non-JSON constant {constant}")

        text = (tmp_path / "seeds.tsv.manifest.json").read_text(encoding="utf-8")
        assert json.loads(text, parse_constant=reject)["parameters"]["now"] == "nan"


class TestInfer:
    @pytest.fixture
    def path_fixture(self, tmp_path):
        p = GeoPoint(40.0, -3.0)
        network = write(tmp_path / "net.tsv", "1\t2\t1\n2\t3\t1\n")
        seeds = write(tmp_path / "seeds.tsv", seeds_line(1, p) + seeds_line(3, p))
        return network, seeds, p

    def test_middle_node_locates_at_iteration_one(self, tmp_path, path_fixture):
        network, seeds, p = path_fixture
        out = tmp_path / "est.tsv"
        code = main(["infer", str(network), str(seeds), "--out", str(out), "--threads", "1"])
        assert code == 0
        state = read_estimates_file(out)
        middle = state.located[2]
        assert middle.point == p
        assert middle.first_located_iteration == 1
        report = (tmp_path / "est.tsv.report.csv").read_text(encoding="utf-8")
        assert report.splitlines()[0] == "iteration,newly_located,located_total,proposed"

    def test_gamma_inf_reproduces_label_propagation(self, tmp_path):
        p = GeoPoint(40.0, -3.0)
        q = destination(p, 90.0, 5000.0)
        network = write(tmp_path / "net.tsv", "1\t3\t1\n2\t3\t1\n")
        seeds = write(tmp_path / "seeds.tsv", seeds_line(1, p) + seeds_line(2, q))
        constrained = tmp_path / "constrained.tsv"
        unconstrained = tmp_path / "unconstrained.tsv"
        main(["infer", str(network), str(seeds), "--out", str(constrained), "--threads", "1"])
        main(
            [
                "infer", str(network), str(seeds),
                "--gamma", "inf",
                "--out", str(unconstrained),
                "--threads", "1",
            ]
        )
        assert 3 not in read_estimates_file(constrained).located
        assert 3 in read_estimates_file(unconstrained).located

    def test_seeds_missing_from_network_warn_but_pass_through(
        self, tmp_path, path_fixture, capsys
    ):
        network, _, p = path_fixture
        seeds = write(tmp_path / "extra.tsv", seeds_line(1, p) + seeds_line(99, p))
        out = tmp_path / "est.tsv"
        assert main(["infer", str(network), str(seeds), "--out", str(out), "--threads", "1"]) == 0
        assert "absent from the network" in capsys.readouterr().err
        assert 99 in read_estimates_file(out).located

    def test_reruns_are_byte_identical_and_manifests_differ_only_in_timestamp(
        self, tmp_path, path_fixture
    ):
        network, seeds, _ = path_fixture
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["infer", str(network), str(seeds), "--out", str(out1), "--threads", "1"])
        main(["infer", str(network), str(seeds), "--out", str(out2), "--threads", "4"])
        assert out1.read_bytes() == out2.read_bytes()
        m1 = json.loads((tmp_path / "a.tsv.manifest.json").read_text(encoding="utf-8"))
        m2 = json.loads((tmp_path / "b.tsv.manifest.json").read_text(encoding="utf-8"))
        m1.pop("created_at"), m2.pop("created_at")
        assert m1 == m2
        assert m1["inputs"]  # digests recorded

    def test_descent_violation_is_an_error_not_a_traceback(
        self, tmp_path, monkeypatch, capsys
    ):
        # Round 1 locates every leaf at the seed's point. Each leaf is also
        # tied to the next, so round 2 wakes every leaf, and each re-proposes
        # its own point: the candidate's variation (0) equals the previous
        # one. A negative median tolerance, set before the pool forks, makes
        # the allowed slack negative and the workers' guard fail.
        monkeypatch.setattr(solver, "TOL_KM", -0.01)
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)  # a pool on any host
        rows = "".join(f"1\t{u}\t1\n{u}\t{u + 1}\t1\n" for u in range(2, 99)) + "1\t99\t1\n"
        network = write(tmp_path / "net.tsv", rows)
        seeds = write(tmp_path / "seeds.tsv", seeds_line(1, GeoPoint(40.0, -3.0)))
        args = ["infer", str(network), str(seeds), "--out", str(tmp_path / "est.tsv")]
        assert main(args + ["--iterations", "2", "--check-descent", "--threads", "2"]) == 1
        assert (
            "error: node 2: variation rose from 0.000000 to 0.000000 km"
            " (allowed slack -0.020000 km)"
        ) in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert _workers._CONTEXT is None

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "rows",
        [
            # One weight past the float range.
            f"1\t2\t{10**400}\n2\t100\t1\n",
            # Two finite weights on node 2 whose sum is past the float range.
            # Node 3, located in round 1, gives node 2 a third point in round
            # 2: a set whose median sums the weights.
            f"1\t2\t{10**308}\n2\t100\t{10**308}\n2\t3\t1\n",
        ],
        ids=["weight", "weight-sum"],
    )
    def test_huge_weight_is_an_error_not_a_traceback(
        self, tmp_path, monkeypatch, capsys, rows, threads
    ):
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)  # a pool on any host
        p = GeoPoint(40.0, -3.0)
        star = "".join(f"1\t{u}\t1\n" for u in range(3, 100))
        network = write(tmp_path / "net.tsv", rows + star)
        seeds = write(
            tmp_path / "seeds.tsv", seeds_line(1, p) + seeds_line(100, destination(p, 90.0, 5.0))
        )
        out = tmp_path / "est.tsv"
        args = ["infer", str(network), str(seeds), "--out", str(out), "--threads", threads]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_weight_past_the_float_range_names_the_line(self, tmp_path, capsys):
        network = write(tmp_path / "net.tsv", f"1\t2\t1\n3\t2\t{10**400}\n")
        seeds = write(tmp_path / "seeds.tsv", seeds_line(1, GeoPoint(40.0, -3.0)))
        out = tmp_path / "est.tsv"
        assert main(["infer", str(network), str(seeds), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {network}:2: edge (2, 3) has a weight too large for a float\n"
        )
        assert not out.exists()

    def test_out_of_range_seed_latitude_names_the_line(self, tmp_path, path_fixture, capsys):
        network, _, p = path_fixture
        seeds = write(tmp_path / "bad.tsv", seeds_line(1, p) + "3\t91.0\t-3.0\tgps\t0.0\n")
        out = tmp_path / "est.tsv"
        assert main(["infer", str(network), str(seeds), "--out", str(out)]) == 1
        assert f"error: {seeds}:2: latitude 91.0 outside [-90, 90]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["infer", "seed"])
    def test_dead_worker_is_an_error_not_a_traceback(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(_workers, "_call", _die_in_worker)
        monkeypatch.setattr(_workers, "usable_cpus", lambda: 2)  # a pool on any host
        out = tmp_path / "out.tsv"
        if command == "infer":
            network = write(tmp_path / "net.tsv", "".join(f"1\t{u}\t1\n" for u in range(2, 100)))
            seeds = write(tmp_path / "seeds.tsv", seeds_line(1, GeoPoint(40.0, -3.0)))
            args = ["infer", str(network), str(seeds), "--threads", "2"]
        else:
            gps = write(tmp_path / "gps.tsv", "".join(f"{u}\t40.0\t-3.0\t0\n" for u in range(100)))
            args = ["seed", "--gps", str(gps)]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: a worker process terminated abruptly\n"
        assert multiprocessing.active_children() == []
        assert _workers._CONTEXT is None

    @pytest.mark.parametrize(
        "cpython_message",
        [
            # The worker died while the pool was still taking work.
            "A child process terminated abruptly, the process pool is not usable anymore",
            # The worker died after all work was handed out.
            "A process in the process pool was terminated abruptly while the future "
            "was running or pending.",
        ],
    )
    def test_dead_worker_message_is_fixed(
        self, tmp_path, path_fixture, monkeypatch, capsys, cpython_message
    ):
        def broken_infer(*args, **kwargs):
            raise BrokenProcessPool(cpython_message)

        monkeypatch.setattr(cli, "infer", broken_infer)
        network, seeds, _ = path_fixture
        out = tmp_path / "est.tsv"
        assert main(["infer", str(network), str(seeds), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: a worker process terminated abruptly\n"
        assert not out.exists()

    def test_failed_rerun_leaves_the_previous_outputs(
        self, tmp_path, path_fixture, monkeypatch, capsys
    ):
        network, seeds, _ = path_fixture
        out = tmp_path / "est.tsv"
        args = ["infer", str(network), str(seeds), "--out", str(out), "--threads", "1"]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_writer(state, fh):
            fh.write("# format: v1\n1\t40.0")
            raise ValueError("no space left on device")

        monkeypatch.setattr(cli, "write_estimates_file", failing_writer)
        assert main(args) == 1
        assert capsys.readouterr().err.endswith("error: no space left on device\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_stdout_run_writes_the_requested_report(self, tmp_path, path_fixture, capsys):
        network, seeds, _ = path_fixture
        report = tmp_path / "r.csv"
        args = ["infer", str(network), str(seeds), "--stdout", "--report", str(report)]
        assert main(args + ["--threads", "1", "--iterations", "1"]) == 0
        assert capsys.readouterr().out.startswith("# format:")
        assert report.read_text(encoding="utf-8").splitlines() == [
            "iteration,newly_located,located_total,proposed",
            "1,1,3,1",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.tsv", "r.csv", "seeds.tsv"]

    def test_manifest_records_an_input_that_out_replaces_as_it_was_read(
        self, tmp_path, path_fixture
    ):
        network, seeds, _ = path_fixture
        read = hashlib.sha256(network.read_bytes()).hexdigest()
        assert main(["infer", str(network), str(seeds), "--out", str(network), "--threads", "1"]) == 0
        assert read_estimates_file(network).located  # the estimates replaced the network
        manifest = json.loads((tmp_path / "net.tsv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"][str(network)] == read

    def test_manifest_records_only_the_solver_parameters(self, tmp_path, path_fixture):
        network, seeds, _ = path_fixture
        out = tmp_path / "est.tsv"
        args = ["infer", str(network), str(seeds), "--out", str(out), "--threads", "1"]
        assert main(args + ["--gamma", "inf", "--iterations", "3"]) == 0
        manifest = json.loads((tmp_path / "est.tsv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["parameters"] == {
            "network": str(network),
            "seeds": str(seeds),
            "gamma": "inf",
            "iterations": 3,
        }


class TestSynthCommand:
    def test_writes_all_files_with_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code = main(
            [
                "synth",
                "--out-dir", str(out_dir),
                "--num-cities", "2",
                "--users-per-city", "20",
                "--city-radius", "10",
                "--mean-degree", "4",
                "--seed-fraction", "0.5",
                "--rng-seed", "7",
            ]
        )
        assert code == 0
        for name in ("network.tsv", "truth.tsv", "seeds.tsv", "cities.tsv", "assignments.tsv"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "synth.manifest.json").read_text(encoding="utf-8"))
        assert manifest["parameters"]["rng_seed"] == 7

    def test_same_flags_reproduce_bytes(self, tmp_path):
        args = [
            "synth",
            "--num-cities", "2",
            "--users-per-city", "15",
            "--city-radius", "10",
            "--mean-degree", "4",
            "--seed-fraction", "0.4",
            "--rng-seed", "3",
        ]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        for name in ("network.tsv", "truth.tsv", "seeds.tsv", "cities.tsv", "assignments.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_infeasible_config_fails(self, tmp_path, capsys):
        code = main(
            [
                "synth",
                "--out-dir", str(tmp_path / "x"),
                "--num-cities", "150",
                "--users-per-city", "5",
                "--city-radius", "1000",
                "--mean-degree", "2",
                "--seed-fraction", "0.5",
                "--rng-seed", "1",
            ]
        )
        assert code == 1
        assert "cannot place" in capsys.readouterr().err

    def test_non_finite_mean_degree_fails(self, tmp_path, capsys):
        code = main(
            [
                "synth",
                "--out-dir", str(tmp_path / "x"),
                "--num-cities", "2",
                "--users-per-city", "5",
                "--city-radius", "10",
                "--mean-degree", "inf",
                "--seed-fraction", "0.5",
                "--rng-seed", "1",
            ]
        )
        assert code == 1
        assert "error: intra_edge_mean_degree must be" in capsys.readouterr().err


class TestEvalCommand:
    @pytest.fixture
    def exact_fixture(self, tmp_path):
        p = GeoPoint(40.0, -3.0)
        truth = write(tmp_path / "truth.tsv", f"1\t{p.lat!r}\t{p.lon!r}\n")
        estimates = write(
            tmp_path / "est.tsv", f"1\t{p.lat!r}\t{p.lon!r}\t0.5\tinferred\t1\n"
        )
        return estimates, truth

    def test_exact_estimates_zero_error_report(self, tmp_path, exact_fixture):
        estimates, truth = exact_fixture
        out_dir = tmp_path / "report"
        code = main(["eval", str(estimates), str(truth), "--out-dir", str(out_dir)])
        assert code == 0
        body = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert body[1].startswith("1.0,0.0,0.0")
        assert (out_dir / "per_iteration.csv").exists()

    def test_manifest_records_an_input_that_a_report_replaces_as_it_was_read(
        self, tmp_path, exact_fixture
    ):
        estimates, truth = exact_fixture
        truth = truth.replace(tmp_path / "report.csv")
        read = hashlib.sha256(truth.read_bytes()).hexdigest()
        assert main(["eval", str(estimates), str(truth), "--out-dir", str(tmp_path)]) == 0
        assert truth.read_text(encoding="utf-8").startswith("coverage")
        manifest = json.loads((tmp_path / "eval.manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"][str(truth)] == read

    def test_sweep_of_one_gamma_writes_one_row(self, tmp_path):
        p = GeoPoint(40.0, -3.0)
        network = write(tmp_path / "net.tsv", "1\t2\t1\n")
        train = write(tmp_path / "train.tsv", seeds_line(1, p))
        truth = write(tmp_path / "truth.tsv", f"2\t{p.lat!r}\t{p.lon!r}\n")
        estimates = tmp_path / "est.tsv"
        main(["infer", str(network), str(train), "--out", str(estimates), "--threads", "1"])
        out_dir = tmp_path / "report"
        code = main(
            [
                "eval", str(estimates), str(truth),
                "--out-dir", str(out_dir),
                "--sweep", "100",
                "--network", str(network),
                "--train-seeds", str(train),
                "--threads", "1",
            ]
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("100.0,1.0,")

    def test_sweep_requires_network_and_seeds(self, tmp_path, exact_fixture, capsys):
        estimates, truth = exact_fixture
        code = main(
            ["eval", str(estimates), str(truth), "--out-dir", str(tmp_path / "r"), "--sweep", "10"]
        )
        assert code == 1
        assert "--sweep requires" in capsys.readouterr().err
        assert not (tmp_path / "r" / "report.csv").exists()

    @pytest.mark.parametrize("flag", ["--network", "--train-seeds"])
    def test_sweep_inputs_without_sweep_fail_before_any_input_is_read(
        self, tmp_path, capsys, flag
    ):
        absent = str(tmp_path / "absent.tsv")
        out_dir = tmp_path / "r"
        code = main(["eval", absent, absent, "--out-dir", str(out_dir), flag, absent])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --network and --train-seeds are read only with --sweep\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value", [("--iterations", "7"), ("--threads", "1")])
    def test_solver_flags_without_sweep_fail_before_any_input_is_read(
        self, tmp_path, capsys, flag, value
    ):
        absent = str(tmp_path / "absent.tsv")
        out_dir = tmp_path / "r"
        code = main(["eval", absent, absent, "--out-dir", str(out_dir), flag, value])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --iterations and --threads are read only with --sweep\n"
        )
        assert not out_dir.exists()

    def test_bad_sweep_value_names_the_flag(self, tmp_path, exact_fixture, capsys):
        estimates, truth = exact_fixture
        out_dir = tmp_path / "r"
        code = main(
            [
                "eval", str(estimates), str(truth),
                "--out-dir", str(out_dir),
                "--sweep", "10,abc",
                "--network", str(tmp_path / "absent.tsv"),
                "--train-seeds", str(tmp_path / "absent.tsv"),
            ]
        )
        assert code == 1
        assert "error: --sweep: expected comma-separated gamma values, got '10,abc'" in (
            capsys.readouterr().err
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ("10,0", "--sweep: gamma must be positive, got 0.0"),
            (",", "--sweep: gamma list must not be empty"),
        ],
        ids=["zero-gamma", "no-gamma"],
    )
    def test_bad_sweep_gamma_fails_before_any_input_is_read(
        self, tmp_path, capsys, sweep, message
    ):
        absent = str(tmp_path / "absent.tsv")
        out_dir = tmp_path / "r"
        code = main(
            [
                "eval", absent, absent,
                "--out-dir", str(out_dir),
                "--sweep", sweep,
                "--network", absent,
                "--train-seeds", absent,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_negative_dispersion_fails_with_its_line(self, tmp_path, exact_fixture, capsys):
        _, truth = exact_fixture
        estimates = write(tmp_path / "est.tsv", "1\t40.0\t-3.0\t-5\tinferred\t1\n")
        out_dir = tmp_path / "report"
        code = main(["eval", str(estimates), str(truth), "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {estimates}:1: dispersion_km must be NaN or finite and >= 0, got -5.0\n"
        )
        assert not out_dir.exists()

    def test_city_accuracy_in_report(self, tmp_path, exact_fixture):
        estimates, truth = exact_fixture
        cities = write(tmp_path / "cities.tsv", "Madrid\t40.42\t-3.7\t3200000\n")
        out_dir = tmp_path / "report"
        code = main(
            [
                "eval", str(estimates), str(truth),
                "--out-dir", str(out_dir),
                "--cities", str(cities),
            ]
        )
        assert code == 0
        body = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()[1]
        assert body.endswith(",1.0")


def _manifest(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _failing_writer(*args):
    raise OSError("no space left on device")


class TestManifests:
    """Each command's manifest records each argument under its flag's name,
    and it is the last file a run writes."""

    @pytest.fixture
    def files(self, tmp_path):
        p = GeoPoint(40.0, -3.0)
        gps_rows = "".join(f"1\t{p.lat!r}\t{p.lon!r}\t{1000 + 3600 * k}\n" for k in range(3))
        return {
            "mentions": write(tmp_path / "mentions.tsv", "1\t2\t5\n2\t1\t2\n"),
            "gps": write(tmp_path / "gps.tsv", gps_rows),
            "network": write(tmp_path / "net.tsv", "1\t2\t1\n2\t3\t1\n"),
            "seeds": write(tmp_path / "seeds.tsv", seeds_line(1, p)),
            "estimates": write(tmp_path / "est.tsv", f"2\t{p.lat!r}\t{p.lon!r}\t0.5\tinferred\t1\n"),
            "truth": write(tmp_path / "truth.tsv", f"2\t{p.lat!r}\t{p.lon!r}\n"),
            "cities": write(tmp_path / "cities.tsv", "Madrid\t40.42\t-3.7\t3200000\n"),
        }

    def test_ingest_parameters(self, tmp_path, files):
        out = tmp_path / "out.tsv"
        assert main(["ingest", str(files["mentions"]), "--out", str(out)]) == 0
        assert _manifest(tmp_path / "out.tsv.manifest.json")["parameters"] == {
            "mentions": str(files["mentions"]),
        }

    def test_seed_parameters(self, tmp_path, files):
        out = tmp_path / "out.tsv"
        assert main(["seed", "--gps", str(files["gps"]), "--now", "nan", "--out", str(out)]) == 0
        assert _manifest(tmp_path / "out.tsv.manifest.json")["parameters"] == {
            "gps": str(files["gps"]),
            "profiles": None,
            "gazetteer": None,
            "now": "nan",
        }

    def test_infer_parameters(self, tmp_path, files):
        out = tmp_path / "out.tsv"
        args = ["infer", str(files["network"]), str(files["seeds"]), "--out", str(out)]
        assert main(args + ["--gamma", "25.5", "--threads", "1", "--check-descent"]) == 0
        assert _manifest(tmp_path / "out.tsv.manifest.json")["parameters"] == {
            "network": str(files["network"]),
            "seeds": str(files["seeds"]),
            "gamma": 25.5,
            "iterations": solver.DEFAULT_ITERATIONS,
        }

    def test_synth_parameters(self, tmp_path):
        out_dir = tmp_path / "bench"
        code = main(
            [
                "synth",
                "--out-dir", str(out_dir),
                "--num-cities", "2",
                "--users-per-city", "10",
                "--city-radius", "10",
                "--mean-degree", "3",
                "--seed-fraction", "0.5",
                "--rng-seed", "7",
            ]
        )
        assert code == 0
        assert _manifest(out_dir / "synth.manifest.json")["parameters"] == {
            "num_cities": 2,
            "users_per_city": 10,
            "city_radius_km": 10.0,
            "intra_edge_mean_degree": 3.0,
            "inter_edge_fraction": 0.0,
            "seed_fraction": 0.5,
            "rng_seed": 7,
        }

    def test_eval_parameters(self, tmp_path, files):
        out_dir = tmp_path / "report"
        assert main(["eval", str(files["estimates"]), str(files["truth"]), "--out-dir", str(out_dir)]) == 0
        manifest = _manifest(out_dir / "eval.manifest.json")
        assert manifest["parameters"] == {
            "estimates": str(files["estimates"]),
            "truth": str(files["truth"]),
            "cities": None,
            "min_pop": 5000,
            "sweep": None,
            "network": None,
            "train_seeds": None,
            "iterations": None,
        }
        assert set(manifest["inputs"]) == {str(files["estimates"]), str(files["truth"])}

    def test_eval_parameters_with_cities_and_sweep(self, tmp_path, files):
        out_dir = tmp_path / "report"
        code = main(
            [
                "eval", str(files["estimates"]), str(files["truth"]),
                "--out-dir", str(out_dir),
                "--cities", str(files["cities"]),
                "--min-pop", "100",
                "--sweep", "10,100,inf",
                "--network", str(files["network"]),
                "--train-seeds", str(files["seeds"]),
                "--iterations", "2",
                "--threads", "1",
            ]
        )
        assert code == 0
        manifest = _manifest(out_dir / "eval.manifest.json")
        assert manifest["parameters"] == {
            "estimates": str(files["estimates"]),
            "truth": str(files["truth"]),
            "cities": str(files["cities"]),
            "min_pop": 100,
            "sweep": "10,100,inf",
            "network": str(files["network"]),
            "train_seeds": str(files["seeds"]),
            "iterations": 2,
        }
        assert set(manifest["inputs"]) == {
            str(files[name]) for name in ("estimates", "truth", "cities", "network", "seeds")
        }

    def test_a_failed_infer_report_leaves_no_manifest(self, tmp_path, files, monkeypatch, capsys):
        monkeypatch.setattr(cli, "write_iteration_stats_csv", _failing_writer)
        out = tmp_path / "est.tsv"
        args = ["infer", str(files["network"]), str(files["seeds"]), "--out", str(out)]
        assert main(args + ["--threads", "1"]) == 1
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert not (tmp_path / "est.tsv.manifest.json").exists()
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_a_failed_eval_report_leaves_no_manifest(self, tmp_path, files, monkeypatch, capsys):
        monkeypatch.setattr(cli, "write_per_iteration_csv", _failing_writer)
        out_dir = tmp_path / "report"
        code = main(["eval", str(files["estimates"]), str(files["truth"]), "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert not (out_dir / "eval.manifest.json").exists()
        assert not [p.name for p in out_dir.iterdir() if p.name.endswith(".tmp")]


class TestArguments:
    @pytest.mark.parametrize("command", ["ingest", "seed", "infer", "synth", "eval"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: tvgeo {command}")

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    @pytest.mark.parametrize(
        "command",
        [
            ["infer", "net.tsv", "seeds.tsv", "--stdout"],
            ["eval", "est.tsv", "truth.tsv", "--out-dir", "ev"],
        ],
    )
    def test_threads_below_one_is_rejected(self, command, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + [f"--threads={threads}"])
        assert exc.value.code == 2
        assert f"--threads: expected an integer >= 1, got '{threads}'" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        # The child does not inherit pytest's `pythonpath`, so give it `src`.
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tvgeo.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert "tvgeo" in proc.stdout
