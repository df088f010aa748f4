"""The one table format: every writer's bytes pinned against literal text,
every reader's header check, and the CLI's report of a bad table."""

import math
import re

import numpy as np
import pytest

import exitspec as es
from exitspec.cli import main
from exitspec.csvtable import read_csv, write_csv

X17 = 0.1 + 0.2         # needs all 17 digits: 0.30000000000000004
F64 = np.float64(2.5)   # a numpy float64 is written as a float
THIRD = 1.0 / 3.0       # 17 digits put 0.33333333333333331 on the file


def written(write, tmp_path):
    path = tmp_path / "table.csv"
    write(path)
    return path.read_text()


class TestFormatPin:
    def test_write_csv(self, tmp_path):
        assert written(lambda p: write_csv(
            p, "a,b,c", [(X17, np.int64(3), "s"), (F64, 7, 1.0)]),
            tmp_path) == ("a,b,c\n"
                          "0.30000000000000004,3,s\n"
                          "2.5,7,1\n")

    def test_spectral_data(self, tmp_path):
        sd = es.SpectralData([(X17, 2, F64), (3.0, 1, 0.0)], "analytic")
        assert written(sd.to_csv, tmp_path) == (
            "lambda,multiplicity,a2\n"
            "0.30000000000000004,2,2.5\n"
            "3,1,0\n")

    def test_atomic_measure(self, tmp_path):
        am = es.AtomicMeasure([(F64, X17), (1.0, 2)])
        assert written(am.to_csv, tmp_path) == (
            "x,w\n"
            "2.5,0.30000000000000004\n"
            "1,2\n")

    def test_heat_content_curve(self, tmp_path):
        curve = es.HeatContentCurve([X17, F64], [1.5, 1], "timestep")
        assert written(curve.to_csv, tmp_path) == (
            "t,q\n"
            "0.30000000000000004,1.5\n"
            "2.5,1\n")

    def test_asymptotic_fit(self, tmp_path):
        fit = es.AsymptoticFit([X17, F64], [1e-3, 2], 0.0, (0.1, 0.2))
        assert written(fit.to_csv, tmp_path) == (
            "n,q_n,stderr\n"
            "0,0.30000000000000004,0.001\n"
            "1,2.5,2\n")

    def test_moment_sequence(self, tmp_path):
        ms = es.MomentSequence([1, X17, F64], "pde")
        assert written(ms.to_csv, tmp_path) == (
            "n,A_n,mu_n\n"
            "0,1,1\n"
            "1,0.30000000000000004,0.30000000000000004\n"
            "2,2.5,1.25\n")

    def test_exit_samples(self, tmp_path):
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 3, 1e-3, seed=1)
        samples = es.ExitSamples(cfg, [X17, F64, math.nan])
        assert written(samples.to_csv, tmp_path) == (
            "path_index,tau\n"
            "0,0.30000000000000004\n"
            "1,2.5\n"
            "2,nan\n")

    def test_grid_lattice(self, tmp_path):
        g = es.Grid(es.Rectangle(1, 1), 0.5, [[X17, F64], [0.5, 1.0]],
                    [[0, 1], [1, 0]], [F64, THIRD])
        assert written(g.dump_csv, tmp_path) == (
            "x,y,index,weight\n"
            "0.30000000000000004,2.5,0,2.5\n"
            "0.5,1,1,0.33333333333333331\n")

    def test_grid_flat(self, tmp_path):
        g = es.Grid(es.Interval(0, 1), 0.25, [X17, F64], [[1], [2]],
                    [0.25, THIRD])
        assert written(g.dump_csv, tmp_path) == (
            "x,y,index,weight\n"
            "0.30000000000000004,0,0,0.25\n"
            "2.5,0,1,0.33333333333333331\n")

    def test_perturbed_vertices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain.type = polygon\n"
                       "domain.vertices = 0,0; 1,0; 1,1; 0,1\n"
                       "grid.h = 0.25\n"
                       "spectrum.m = 1\n"
                       "perturb.eps = 0.07\n"
                       "perturb.f = -1,0.6,1,-0.2\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--pipeline", "perturb",
                     "--out", str(out)]) == 0
        assert (out / "perturbed_vertices.csv").read_text() == (
            "x,y\n"
            "0.049497474683058325,0.049497474683058325\n"
            "1.0296984848098349,-0.029698484809834995\n"
            "1.0494974746830583,1.0494974746830583\n"
            "0.0098994949366116667,0.99010050506338831\n")


READERS = {
    "lambda,multiplicity,a2": es.SpectralData.from_csv,
    "x,w": es.AtomicMeasure.from_csv,
    "t,q": es.HeatContentCurve.from_csv,
    "n,A_n,mu_n": es.MomentSequence.from_csv,
}


class TestReaders:
    # the last two passed the old per-reader tests of a header's start
    @pytest.mark.parametrize("header", sorted(READERS))
    @pytest.mark.parametrize("bad", ["", "lambda,mult,a2", "n,A_n"])
    def test_wrong_header_is_rejected(self, tmp_path, header, bad):
        path = tmp_path / "table.csv"
        path.write_text(bad + "\n1,1,1\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: expected header {header}")):
            READERS[header](path)

    def test_leading_columns_decide(self, tmp_path):
        """Columns past the header's are ignored: a moment table is read
        for n and A_n alone."""
        path = tmp_path / "moments.csv"
        path.write_text("n,A_n,mu_n,stderr\n0,1,9,0\n\n1,0.5,9,0\n")
        assert es.MomentSequence.from_csv(path).A == [1.0, 0.5]
        assert read_csv(path, "n,A_n") == [["0", "1"], ["1", "0.5"]]

    def test_compare_reports_a_bad_table(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        es.SpectralData([(9.87, 1, 0.81)], "analytic").to_csv(a)
        b.write_text("x,w\n0.2,0.8\n")
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"compare.a = {a}\ncompare.b = {b}\n")
        assert main(["--pipeline", "compare", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {b}: expected header lambda,multiplicity,a2"]

    @pytest.mark.parametrize("row, why", [
        ("12.5,1", "lambda,multiplicity,a2 needs 3 fields"),
        ("12.5,1,0.1x", "could not convert string to float: '0.1x'"),
        # a multiplicity is an integer, and 1.5 is none
        ("12.5,1.5,0.1", "invalid literal for int() with base 10: '1.5'"),
    ])
    def test_compare_reports_a_bad_row(self, tmp_path, capsys, row, why):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        es.SpectralData([(9.87, 1, 0.81)], "analytic").to_csv(a)
        b.write_text(f"lambda,multiplicity,a2\n\n9.87,1,0.81\n{row}\n")
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"compare.a = {a}\ncompare.b = {b}\n")
        assert main(["--pipeline", "compare", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {b}, line 4: {why}"]

    def test_compare_reports_a_missing_table(self, tmp_path, capsys):
        a, b = tmp_path / "missing.csv", tmp_path / "b.csv"
        es.SpectralData([(9.87, 1, 0.81)], "analytic").to_csv(b)
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"compare.a = {a}\ncompare.b = {b}\n")
        out = tmp_path / "out"
        assert main(["--pipeline", "compare", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(a) in err[0]
        assert (out / "manifest.json").exists()

    def test_compare_reports_a_non_finite_entry(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        es.SpectralData([(9.87, 1, 0.81)], "analytic").to_csv(a)
        b.write_text("lambda,multiplicity,a2\nnan,1,0.5\n")
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"compare.a = {a}\ncompare.b = {b}\n")
        out = tmp_path / "out"
        assert main(["--pipeline", "compare", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: bad entry lambda=nan, a2=0.5"]
        assert (out / "manifest.json").exists()
