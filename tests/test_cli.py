"""Tests for the command-line front end.

Most tests call main() in-process and parse the JSON report from captured
stdout; one subprocess test confirms the installed console script works
end to end.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ginfluct import cli
from ginfluct._version import VERSION
from ginfluct.angular import (
    ArcWindow,
    angular_count_cov,
    angular_count_var,
    angular_cov_exact,
    read_fourier_file,
    write_fourier_file,
)
from ginfluct.dpp import cumulants_from_gram, gram_annulus
from ginfluct.mc import load_batch
from ginfluct.radial import radial_count_cov, radial_count_var, radial_cov_exact
from ginfluct.radial import RadialTestFunction

from oracles import quad4d_cov


def run_cli(capsys, *argv):
    """Run main() and return (exit_code, stdout, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


class TestReportEnvelope:
    def test_json_fields(self, capsys):
        doc = run_json(capsys, "cov", "radial", "--n", "10",
                       "--f", "poly:0,0,1", "--g", "poly:0,0,1")
        assert doc["version"] == VERSION
        assert doc["command"].startswith("ginfluct cov radial")
        assert doc["inputs"]["n"] == 10
        assert doc["timing_seconds"] >= 0.0

    def test_radial_cov_example(self, capsys):
        doc = run_json(capsys, "cov", "radial", "--n", "10",
                       "--f", "poly:0,0,1", "--g", "poly:0,0,1",
                       "--ensemble", "complex")
        assert doc["outputs"]["cov"] == pytest.approx(0.55, rel=1e-12, abs=0.0)
        assert doc["outputs"]["mean_f"] == pytest.approx(5.5, rel=1e-12, abs=0.0)

    def test_exact_rerun_is_bit_identical(self, capsys):
        argv = ("cov", "angular", "--n", "32", "--f", "cos:1,2", "--g", "cos:1,2")
        a = run_json(capsys, *argv)
        b = run_json(capsys, *argv)
        del a["timing_seconds"], b["timing_seconds"]
        assert a == b

    def test_out_writes_atomically(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "cov", "radial", "--n", "4",
                               "--f", "poly:1", "--g", "poly:1",
                               "--out", str(target))
        assert code == 0
        assert out == ""  # report went to the file, not stdout
        doc = json.loads(target.read_text())
        assert doc["outputs"]["cov"] == 0.0
        leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
        assert leftovers == []

    def test_out_overwrites_existing(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("stale")
        code, _, _ = run_cli(capsys, "cov", "radial", "--n", "4",
                             "--f", "poly:1", "--g", "poly:1",
                             "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["outputs"]["cov"] == 0.0

    def test_console_script_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ginfluct.cli", "cov", "radial", "--n", "10",
             "--f", "poly:0,0,1", "--g", "poly:0,0,1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["outputs"]["cov"] == pytest.approx(0.55)


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("cov", "radial", "--n", "10", "--f", "nope:1", "--g", "poly:1"),
        ("cov", "radial", "--n", "10", "--f", "poly:", "--g", "poly:1"),
        ("cov", "radial", "--n", "10", "--f", "ind-mod:0.5", "--g", "poly:1"),
        ("cov", "radial", "--n", "10", "--f", "cos:1", "--g", "cos:1"),
        ("cov", "angular", "--n", "10", "--f", "cos:1.5", "--g", "cos:1"),
        ("cov", "angular", "--n", "10", "--f", "cos:-1", "--g", "cos:1"),
        ("cov", "angular", "--n", "10", "--f", "fourier:file.txt", "--g", "cos:1"),
        ("cov", "angular", "--n", "10", "--f", "fourier:@/no/such/file",
         "--g", "cos:1"),
        ("count", "cov", "--kind", "angular", "--n", "8", "--arc", "0,1"),
        ("count", "var", "--kind", "angular", "--n", "8",
         "--arc", "0,1", "--arc-frac", "0.5"),
        ("count", "var", "--kind", "angular", "--n", "8", "--arc-frac", "1.5"),
        ("count", "var", "--kind", "radial", "--n", "8", "--window", "0.9,0.4"),
        ("count", "var", "--kind", "radial", "--n", "0", "--window", "0.4,0.9"),
        ("count", "var", "--kind", "angular", "--n", "8", "--arc", "0,1",
         "--ensemble", "quaternion"),
        ("count", "cov", "--kind", "angular", "--n", "8", "--arc", "0,1",
         "--arc2", "0.5,2", "--ensemble", "quaternion"),
        ("mc", "run", "--n", "8", "--samples", "100", "--statistic", "cos:1",
         "--sampler", "gamma"),
        ("mc", "run", "--n", "8", "--samples", "100", "--statistic", "cos:1",
         "--ensemble", "quaternion"),
        ("asymptotics", "table", "--function", "i-arg"),
        ("asymptotics", "table", "--kind", "radial", "--window", "0.4,0.8"),
        ("cumulants", "--mode", "annulus", "--n", "16", "--window", "0.4,0.8",
         "--n-max", "13"),
        ("kernel", "dump", "--ell", "-2"),
        ("kernel", "dump", "--ell", "two"),
        ("kernel", "dump", "--ell", "4", "--kmax", "-1"),
        ("kernel", "dump", "--ell", "4", "--kmax", "-3"),
        ("kernel", "dump", "--ell", "4", "--theta-count", "-4"),
        ("cov", "radial", "--n", "10", "--f", "poly:1", "--g", "poly:1",
         "--threads", "0"),
        # non-finite input; only a modulus window's upper edge may be inf
        ("cov", "radial", "--n", "4", "--f", "poly:nan", "--g", "poly:1"),
        ("cov", "radial", "--n", "4", "--f", "poly:inf", "--g", "poly:1"),
        ("cov", "radial", "--n", "4", "--f", "ind-mod:nan,0.8", "--g", "poly:1"),
        ("cov", "radial", "--n", "4", "--f", "ind-mod:0.4,nan", "--g", "poly:1"),
        ("cov", "angular", "--n", "8", "--f", "cos:1,inf", "--g", "cos:1"),
        ("count", "var", "--kind", "radial", "--n", "16", "--window", "inf,inf"),
        ("count", "var", "--kind", "angular", "--n", "16", "--arc", "0,nan"),
        ("asymptotics", "table", "--function", "i-arg", "--args", "nan"),
        ("asymptotics", "table", "--function", "i-arg", "--args", "inf"),
        ("asymptotics", "table", "--function", "i-mod", "--args", "1,nan"),
        ("cumulants", "--mode", "annulus", "--n", "16", "--window", "0.4,0.8",
         "--certify", "--tolerance", "nan"),
        ("cumulants", "--mode", "annulus", "--n", "16", "--window", "0.4,0.8",
         "--certify", "--tolerance", "-1"),
        ("cumulants", "--mode", "annulus", "--n", "16", "--window", "0.4,0.8",
         "--certify", "--tolerance", "inf"),
        ("clt", "test", "--n", "8", "--samples", "200", "--statistic", "poly:1"),
    ])
    def test_usage_errors_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("argv, flag", [
        (("count", "var", "--kind", "radial", "--n", "100"), "--window"),
        (("count", "cov", "--kind", "radial", "--n", "100", "--window", "0.4,0.8"),
         "--window2"),
        (("asymptotics", "table", "--kind", "radial", "--n-list", "64,128"), "--window"),
        (("cumulants", "--mode", "annulus", "--n", "16"), "--window"),
        (("asymptotics", "table", "--kind", "radial", "--n-list", "64.7",
          "--window", "0.4,0.8"), "--n-list"),
        (("kernel", "dump", "--ell", "4", "--kmax", "-1"), "--kmax"),
        (("kernel", "dump", "--ell", "4", "--kmax", "-3"), "--kmax"),
        (("kernel", "dump", "--ell", "4", "--theta-count", "-4"), "--theta-count"),
        # above the angular admission cap of N = 10^6: fails at once
        (("count", "var", "--kind", "angular", "--n", "1000001", "--arc-frac", "0.25"), "--n"),
        (("count", "cov", "--kind", "angular", "--n", "1000001", "--arc", "0,1",
          "--arc2", "0.5,2"), "--n"),
        (("cov", "angular", "--n", "1000001", "--f", "cos:1", "--g", "cos:1"), "--n"),
        (("count", "var", "--kind", "angular", "--n", "0", "--arc-frac", "0.25"), "--n"),
    ])
    def test_missing_or_malformed_flag_is_named(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err
        assert "Traceback" not in err

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("synthetic non-convergence")

        monkeypatch.setattr(cli, "cmd_cov", boom)
        code, out, err = run_cli(capsys, "cov", "radial", "--n", "4",
                                 "--f", "poly:1", "--g", "poly:1")
        assert code == 3
        assert "numerical failure" in err

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def too_big(args):
            raise MemoryError("synthetic allocation failure")

        monkeypatch.setattr(cli, "cmd_cov", too_big)
        code, out, err = run_cli(capsys, "cov", "radial", "--n", "4",
                                 "--f", "poly:1", "--g", "poly:1")
        assert code == 2
        assert out == ""
        assert "error: input too large: synthetic allocation failure" in err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_cov", interrupted)
        code, out, err = run_cli(capsys, "cov", "radial", "--n", "4",
                                 "--f", "poly:1", "--g", "poly:1")
        assert code == 130
        assert out == ""
        assert "error: interrupted" in err


class TestCount:
    def test_angular_var_with_prediction(self, capsys):
        doc = run_json(capsys, "count", "var", "--kind", "angular",
                       "--n", "4096", "--arc-frac", "0.25",
                       "--compare-asymptotic")
        out = doc["outputs"]
        assert out["var"] == pytest.approx(
            angular_count_var(4096, ArcWindow.symmetric(math.pi / 2.0)), rel=1e-12, abs=0.0)
        assert out["predicted"] == pytest.approx(
            math.sqrt(4096.0) / math.pi ** 1.5, rel=1e-12, abs=0.0)
        assert out["regime"] == "fixed"
        assert abs(out["ratio"] - 1.0) <= 0.05
        assert out["mean"] == pytest.approx(1024.0, rel=1e-12, abs=0.0)

    def test_radial_var_matches_library(self, capsys):
        doc = run_json(capsys, "count", "var", "--kind", "radial", "--n", "64",
                       "--window", "0.4,0.8")
        assert doc["outputs"]["var"] == radial_count_var(64, 0.4, 0.8)

    def test_window_upper_edge_may_be_infinite(self, capsys):
        # the one non-finite value the parser admits: an open modulus window
        doc = run_json(capsys, "count", "var", "--kind", "radial", "--n", "64",
                       "--window", "0.4,inf")
        assert doc["outputs"]["var"] == radial_count_var(64, 0.4, math.inf)
        doc = run_json(capsys, "cov", "radial", "--n", "16", "--f", "ind-mod:0.4,inf",
                       "--g", "ind-mod:0.4,inf")
        ind = RadialTestFunction.indicator(0.4, math.inf)
        assert doc["outputs"]["cov"] == radial_cov_exact(ind, ind, 16)

    def test_radial_cov(self, capsys):
        doc = run_json(capsys, "count", "cov", "--kind", "radial", "--n", "50",
                       "--window", "0.4,0.6", "--window2", "0.6,0.9")
        assert doc["outputs"]["cov"] == radial_count_cov(50, (0.4, 0.6), (0.6, 0.9))

    def test_angular_cov(self, capsys):
        doc = run_json(capsys, "count", "cov", "--kind", "angular", "--n", "32",
                       "--arc=-0.5,0.5", "--arc2", "1.0,2.0")
        ref = angular_count_cov(32, ArcWindow(-0.5, 0.5), ArcWindow(1.0, 2.0))
        assert doc["outputs"]["cov"] == ref


class TestCovAngular:
    def test_decompose_identity(self, capsys):
        doc = run_json(capsys, "cov", "angular", "--n", "16",
                       "--f", "cos:1,2", "--g", "cos:1,2", "--decompose")
        out = doc["outputs"]
        assert out["total"] == pytest.approx(out["main"] + out["correction"])
        assert out["identity_gap"] <= 1e-12 * max(1.0, abs(out["cov"]))

    def test_fourier_file_statistic(self, capsys, tmp_path):
        path = tmp_path / "coeffs.txt"
        from ginfluct.angular import FourierStatistic
        stat = FourierStatistic.from_dict(
            {0: 0.3, 1: 0.25 - 0.1j, -1: 0.25 + 0.1j, 2: 0.05, -2: 0.05},
            real=True)
        write_fourier_file(path, stat)
        doc = run_json(capsys, "cov", "angular", "--n", "12",
                       "--f", f"fourier:@{path}", "--g", "cos:1")
        ref = angular_cov_exact(read_fourier_file(path, real=True),
                                FourierStatistic.cosine(1), 12)
        assert doc["outputs"]["cov"] == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestAsymptotics:
    def test_function_table(self, capsys):
        doc = run_json(capsys, "asymptotics", "table", "--function", "i-mod",
                       "--args", "0.5,2,50")
        rows = doc["outputs"]["rows"]
        assert [r["argument"] for r in rows] == [0.5, 2.0, 50.0]
        assert rows[2]["value"] == pytest.approx(2.0, abs=1e-8)

    def test_n_table_csv_one_row_per_n(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "table", "--kind", "radial",
                               "--window", "0.5,0.9", "--n-list", "64,128,256",
                               "--format", "csv")
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "n,x,regime,predicted,exact,ratio"
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["64", "128", "256"]

    def test_angular_table_regimes(self, capsys):
        doc = run_json(capsys, "asymptotics", "table", "--kind", "angular",
                       "--arc-frac", "0.25", "--n-list", "256,1024")
        for row in doc["outputs"]["rows"]:
            assert row["regime"] == "fixed"
            assert row["ratio"] == pytest.approx(row["exact"] / row["predicted"])


class TestCumulants:
    def test_annulus_certify(self, capsys):
        doc = run_json(capsys, "cumulants", "--mode", "annulus", "--n", "64",
                       "--window", "0.4,0.8", "--n-max", "4", "--certify")
        out = doc["outputs"]
        cs = cumulants_from_gram(gram_annulus(64, 0.4, 0.8), 4)
        assert out["cumulants"] == pytest.approx(list(cs.c), rel=1e-14, abs=0.0)
        assert len(out["cluster"]) == 4
        assert out["cumulants"][1] == pytest.approx(
            radial_count_var(64, 0.4, 0.8), rel=1e-12, abs=0.0)
        assert isinstance(out["certified"], bool)
        assert out["tolerance"] == 0.1

    def test_sector_variance(self, capsys):
        doc = run_json(capsys, "cumulants", "--mode", "sector", "--n", "48",
                       "--arc=-0.7,0.7", "--n-max", "2")
        assert doc["outputs"]["cumulants"][1] == pytest.approx(
            angular_count_var(48, ArcWindow(-0.7, 0.7)), rel=1e-9, abs=0.0)

    def test_quaternion_annulus(self, capsys):
        from ginfluct.radial import Ensemble
        doc = run_json(capsys, "cumulants", "--mode", "quaternion-annulus",
                       "--n", "48", "--window", "0.4,0.8", "--n-max", "2")
        ref = radial_count_var(48, 0.4, 0.8, Ensemble.QUATERNION)
        assert doc["outputs"]["cumulants"][1] == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestMcRun:
    def test_check_exact_example(self, capsys):
        doc = run_json(capsys, "mc", "run", "--n", "64", "--samples", "20000",
                       "--seed", "7", "--statistic", "ind-mod:0.4,0.8",
                       "--check-exact")
        out = doc["outputs"]
        assert doc["inputs"]["sampler"] == "gamma"
        assert out["exact"] == pytest.approx(radial_count_var(64, 0.4, 0.8),
                                             rel=1e-12, abs=0.0)
        assert {"mean", "mean_se", "var", "var_se", "z_score"} <= out.keys()
        assert abs(out["z_score"]) <= 4.0

    def test_seed_determinism(self, capsys):
        argv = ("mc", "run", "--n", "32", "--samples", "500", "--seed", "11",
                "--statistic", "poly:0,0,1")
        a = run_json(capsys, *argv)
        b = run_json(capsys, *argv)
        del a["timing_seconds"], b["timing_seconds"]
        assert a == b

    def test_different_seed_changes_output(self, capsys):
        base = ("mc", "run", "--n", "32", "--samples", "500",
                "--statistic", "poly:0,0,1")
        a = run_json(capsys, *base, "--seed", "1")
        b = run_json(capsys, *base, "--seed", "2")
        assert a["outputs"]["mean"] != b["outputs"]["mean"]

    def test_two_statistics_cross_cov(self, capsys):
        doc = run_json(capsys, "mc", "run", "--n", "24", "--samples", "40000",
                       "--seed", "5", "--statistic", "poly:0,1",
                       "--statistic2", "poly:0,0,1", "--check-exact")
        out = doc["outputs"]
        exact = radial_cov_exact(RadialTestFunction.poly([0.0, 1.0]),
                                 RadialTestFunction.poly([0.0, 0.0, 1.0]), 24)
        assert out["exact"] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert abs(out["cov"] - exact) <= 4.0 * out["cov_se"]

    def test_matrix_sampler_arc_count(self, capsys):
        doc = run_json(capsys, "mc", "run", "--n", "8", "--samples", "2000",
                       "--seed", "3", "--statistic", "ind-arg:-0.5,0.5",
                       "--check-exact")
        out = doc["outputs"]
        assert doc["inputs"]["sampler"] == "matrix"
        arc = ArcWindow(-0.5, 0.5)
        assert out["exact"] == pytest.approx(angular_count_cov(8, arc, arc))
        assert abs(out["z_score"]) <= 4.0

    def test_arc_against_fourier_exact_reference(self, capsys):
        # arc x band-limited pair: the arc is truncated to the partner's band
        # before the exact Fourier sum; checked against the planar oracle
        t_nodes = 256
        h = 2.0 * math.pi / t_nodes
        arc = ArcWindow(-math.pi + 40.5 * h, -math.pi + 120.5 * h)
        doc = run_json(capsys, "mc", "run", "--n", "2", "--samples", "200",
                       "--seed", "6", "--statistic", f"ind-arg:{arc.alpha!r},{arc.beta!r}",
                       "--statistic2", "cos:1", "--check-exact")
        oracle = quad4d_cov(lambda t: ((t >= arc.alpha) & (t <= arc.beta)).astype(float),
                            np.cos, 2, t_nodes=t_nodes, r_nodes=100)
        assert doc["outputs"]["exact"] == pytest.approx(oracle, rel=5e-4, abs=1e-4)

    def test_matrix_sampler_logs_to_stderr_only(self, capsys):
        code, out, err = run_cli(capsys, "mc", "run", "--n", "8", "--samples",
                                 "200", "--seed", "4", "--statistic", "cos:1")
        assert code == 0
        json.loads(out)  # stdout is a clean report
        assert "sampling" in err

    def test_save_and_save_csv(self, capsys, tmp_path):
        bin_path = tmp_path / "batch.gfsb"
        csv_path = tmp_path / "batch.csv"
        doc = run_json(capsys, "mc", "run", "--n", "16", "--samples", "300",
                       "--seed", "9", "--statistic", "poly:0,0,1",
                       "--save", str(bin_path), "--save-csv", str(csv_path))
        batch = load_batch(bin_path)
        assert batch.size == 300
        assert batch.seed == 9
        assert float(np.mean(batch.values)) == pytest.approx(
            doc["outputs"]["mean"], rel=1e-12, abs=0.0)
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "index,value"
        assert len(lines) == 302


class TestCltSubcommand:
    def test_count_statistic_passes(self, capsys):
        doc = run_json(capsys, "clt", "test", "--n", "200", "--samples", "2000",
                       "--seed", "3", "--statistic", "ind-mod:0.5,0.9")
        out = doc["outputs"]
        assert out["passed"] is True
        assert out["normalization"] == "exact-moments+jitter"
        assert out["threshold"] == pytest.approx(1.63 / math.sqrt(2000.0))

    def test_no_jitter_flag(self, capsys):
        doc = run_json(capsys, "clt", "test", "--n", "200", "--samples", "500",
                       "--seed", "3", "--statistic", "ind-mod:0.5,0.9",
                       "--no-jitter")
        assert doc["outputs"]["normalization"] == "exact-moments"

    def test_smooth_statistic_studentized(self, capsys):
        doc = run_json(capsys, "clt", "test", "--n", "100", "--samples", "2000",
                       "--seed", "6", "--statistic", "poly:0,0,1")
        out = doc["outputs"]
        assert out["normalization"] == "studentized"
        assert out["passed"] is True

    def test_angular_statistic_rejected(self, capsys):
        code, _, err = run_cli(capsys, "clt", "test", "--n", "100",
                               "--samples", "500", "--statistic", "cos:1")
        assert code == 2


class TestKernelDump:
    def test_row_structure(self, capsys):
        doc = run_json(capsys, "kernel", "dump", "--ell", "0,3",
                       "--kmax", "4", "--theta-count", "5")
        rows = doc["outputs"]["rows"]
        theta = [r for r in rows if r["series"] == "theta"]
        fourier = [r for r in rows if r["series"] == "fourier"]
        assert len(theta) == 10  # 5 grid points per ell
        # band truncation: ell=0 emits k=0..1, ell=3 emits k=0..4
        assert len([r for r in fourier if r["ell"] == 0]) == 2
        assert len([r for r in fourier if r["ell"] == 3]) == 5
        k0 = [r for r in fourier if r["ell"] == 0 and r["index"] == 0]
        assert k0[0]["value"] == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "dump", "--ell", "1",
                               "--kmax", "2", "--format", "csv")
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "ell,series,index,argument,value"
        assert len(lines) == 4  # k = 0, 1, 2


class TestThreads:
    def test_threads_flag_does_not_change_output(self, capsys):
        argv = ("cov", "angular", "--n", "64", "--f", "cos:2", "--g", "cos:2")
        a = run_json(capsys, *argv)
        b = run_json(capsys, *argv, "--threads", "1")
        assert a["outputs"] == b["outputs"]

    def test_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("GINFLUCT_THREADS", "2")
        doc = run_json(capsys, "cov", "radial", "--n", "8",
                       "--f", "poly:0,1", "--g", "poly:0,1")
        assert "cov" in doc["outputs"]
