import json
import math
import multiprocessing
import os
import subprocess
import sys

import pytest

from tvgeo.cli import main
from tvgeo.geodesy import GeoPoint, destination
from tvgeo.graph import read_network_file
from tvgeo.ground_truth import read_seeds_file
from tvgeo import solver
from tvgeo.solver import DescentViolation, read_estimates_file

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


def _die_in_worker(start, stop):
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

    def test_profiles_without_gazetteer_fail(self, tmp_path, inputs, capsys):
        _, claims, _ = inputs
        out = tmp_path / "seeds.tsv"
        code = main(
            ["seed", "--profiles", str(claims), "--now", str(NOW), "--out", str(out)]
        )
        assert code == 1
        assert "gazetteer" in capsys.readouterr().err

    def test_requires_some_input(self, tmp_path, capsys):
        assert main(["seed", "--out", str(tmp_path / "s.tsv")]) == 1


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
        assert report.splitlines()[0] == "iteration,newly_located,located_total"

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
        self, tmp_path, path_fixture, monkeypatch, capsys
    ):
        def violated(user, *args):
            raise DescentViolation(f"node {user}: variation rose")

        monkeypatch.setattr(solver, "_assert_descent", violated)
        network, seeds, _ = path_fixture
        args = ["infer", str(network), str(seeds), "--out", str(tmp_path / "est.tsv")]
        assert main(args + ["--iterations", "2", "--check-descent", "--threads", "1"]) == 1
        assert "error: node 2: variation rose" in capsys.readouterr().err

    def test_dead_worker_is_an_error_not_a_traceback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(solver, "_round_chunk", _die_in_worker)
        p = GeoPoint(40.0, -3.0)
        network = write(tmp_path / "net.tsv", "".join(f"1\t{u}\t1\n" for u in range(2, 100)))
        seeds = write(tmp_path / "seeds.tsv", seeds_line(1, p))
        out = tmp_path / "est.tsv"
        assert main(["infer", str(network), str(seeds), "--out", str(out), "--threads", "2"]) == 1
        assert "error: A process in the process pool was terminated" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert solver._ROUND is None


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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tvgeo.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "tvgeo" in proc.stdout
