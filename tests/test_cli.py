import filecmp
import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg as splinalg
from hypothesis import given, settings, strategies as st

import exitspec as es
from exitspec.cli import (
    ConfigError, SCHEMA, compare_spectra, default_config, emit_config,
    main, parse_config,
)


def run(args, tmp_path, config_text=None):
    argv = list(args)
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    return main(argv + ["--out", str(tmp_path / "out")])


ALL_INTERVAL = {
    "domain.type": "interval",
    "grid.h": "0.0078125",
    "moments.n_max": "9",
    "invert.p": "3",
    "heat.t_min": "0.001",
    "heat.t_max": "0.01",
    "heat.samples": "8",
    "mc.paths": "200",
    "mc.dt": "0.001",
    "mc.x0": "0.5",
    "verify.n_max": "4",
    "verify.tol": "0.01",
}

L_SHAPE = {
    "domain.type": "polygon",
    "domain.vertices": "0,0; 1,0; 1,0.5; 0.5,0.5; 0.5,1; 0,1",
    "grid.h": "0.0625",
    "spectrum.m": "4",
    "moments.n_max": "9",
    "invert.p": "3",
    "heat.t_min": "0.01",
    "heat.t_max": "0.2",
}


def config_text(keys):
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


FAST_MOMENTS = """\
run.pipeline = moments
domain.type = interval
grid.h = 0.0078125
moments.n_max = 4
"""


class TestConfig:
    def test_emit_parse_round_trip(self):
        text = emit_config(default_config())
        assert parse_config(text) == default_config()
        assert emit_config(parse_config(text)) == text

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2: unknown key"):
            parse_config("run.pipeline = moments\nbogus.key = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("grid.h = 0.1\ngrid.h = 0.2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("grid.h = tiny\n")

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="one of"):
            parse_config("domain.type = annulus\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nmc.paths = 7\n")
        assert cfg["mc.paths"] == 7

    @given(
        h=st.floats(1e-4, 0.5),
        paths=st.integers(1, 10 ** 7),
        t=st.floats(1e-6, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_values(self, h, paths, t):
        cfg = default_config()
        cfg["grid.h"] = h
        cfg["mc.paths"] = paths
        cfg["mc.t"] = t
        back = parse_config(emit_config(cfg))
        assert back == cfg

    def test_schema_defaults_are_self_consistent(self):
        cfg = default_config()
        assert set(cfg) == set(SCHEMA)
        assert cfg["moments.n_max"] == 10
        assert cfg["spectrum.m"] == 8


class TestPipelines:
    def test_moments_pipeline(self, tmp_path):
        rc = run(["--pipeline", "moments"], tmp_path,
                 config_text=FAST_MOMENTS)
        assert rc == 0
        out = tmp_path / "out"
        man = json.loads((out / "manifest.json").read_text())
        assert man["pipeline"] == "moments"
        assert (out / "config.txt").exists()
        for name in man["outputs"]:
            assert (out / name).exists()
        ms = es.MomentSequence.from_csv(out / "moments.csv")
        assert ms.A[1] == pytest.approx(1 / 6, rel=1e-3)

    def test_dump_operator(self, tmp_path):
        rc = run(["--pipeline", "moments", "--dump-operator"], tmp_path,
                 config_text=FAST_MOMENTS)
        assert rc == 0
        assert (tmp_path / "out" / "operator.txt").exists()
        # the manifest records the flag, so the dumped files replay too
        man = tmp_path / "out" / "manifest.json"
        assert {"operator.txt", "grid.csv"} <= set(
            json.loads(man.read_text())["outputs"])
        assert main(["--rerun", str(man),
                     "--out", str(tmp_path / "replay")]) == 0

    def test_spectrum_pipeline_analytic(self, tmp_path):
        rc = run(["--pipeline", "spectrum"], tmp_path, config_text=(
            "domain.type = interval\n"
            "spectrum.source = analytic\n"
            "spectrum.m = 5\n"))
        assert rc == 0
        sd = es.SpectralData.from_csv(tmp_path / "out" / "spectrum.csv")
        assert sd.lambdas()[0] == pytest.approx(math.pi ** 2, rel=1e-12)

    def test_invert_pipeline(self, tmp_path):
        rc = run(["--pipeline", "invert", "--precision", "extended"],
                 tmp_path, config_text=(
            "domain.type = interval\n"
            "moments.n_max = 9\n"
            "invert.source = analytic\n"
            "invert.p = 5\n"))
        assert rc == 0
        am = es.AtomicMeasure.from_csv(tmp_path / "out" / "atoms.csv")
        assert am.p == 5
        assert am.atoms[0][0] == pytest.approx(2 / math.pi ** 2, rel=1e-9)
        inv = json.loads((tmp_path / "out" / "inversion.json").read_text())
        assert inv["diagnostics"]["p_effective"] == 5
        assert inv["diagnostics"]["cap"]["floor"] == 1e-26
        assert len(inv["diagnostics"]["cap"]["sigma_min"]) == 5
        assert inv["psd"]["pass"]

    def test_heat_pipeline(self, tmp_path):
        rc = run(["--pipeline", "heat"], tmp_path, config_text=(
            "domain.type = interval\n"
            "grid.h = 0.015625\n"
            "heat.t_min = 0.001\n"
            "heat.t_max = 0.01\n"
            "heat.samples = 10\n"))
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "heat_timestep.csv").exists()
        # interval has an analytic spectrum, so the spectral curve comes too
        assert (out / "heat_spectral.csv").exists()
        fitfile = out / "fit.csv"
        assert fitfile.exists()

    def test_mc_pipeline_seed_override(self, tmp_path):
        cfg_text = ("domain.type = interval\n"
                    "mc.paths = 300\n"
                    "mc.dt = 0.001\n"
                    "mc.x0 = 0.5\n")
        rc = run(["--pipeline", "mc", "--seed", "99"], tmp_path,
                 config_text=cfg_text)
        assert rc == 0
        out = tmp_path / "out"
        man = json.loads((out / "manifest.json").read_text())
        assert man["seed"] == 99
        est = json.loads((out / "mc_estimates.json").read_text())
        assert "philox" in json.dumps(est)
        assert (out / "mc_samples.csv").exists()

    def test_verify_pipeline(self, tmp_path):
        rc = run(["--pipeline", "verify"], tmp_path, config_text=(
            "domain.type = interval\n"
            "grid.h = 0.0078125\n"
            "verify.n_max = 4\n"
            "verify.tol = 0.001\n"))
        assert rc == 0
        rep = json.loads(
            (tmp_path / "out" / "verify.json").read_text())
        assert rep["max_rel_err"] < 1e-3

    def test_perturb_pipeline(self, tmp_path):
        rc = run(["--pipeline", "perturb"], tmp_path, config_text=(
            "domain.type = polygon\n"
            "domain.vertices = 0,0;1,0;1,1;0,1\n"
            "grid.h = 0.03125\n"
            "spectrum.m = 4\n"
            "perturb.eps = 0.07\n"
            "perturb.f = -1,0.6,1,-0.2\n"))
        assert rc == 0
        rep = json.loads(
            (tmp_path / "out" / "perturb_report.json").read_text())
        # the asymmetric vertex move gives every cluster real weight
        assert rep["holds"]
        assert rep["violators"] == []
        assert rep["eps"] == 0.07
        assert rep["volume"] == pytest.approx(1.0, rel=0.1)
        assert (tmp_path / "out" / "perturbed_vertices.csv").exists()
        sd = es.SpectralData.from_csv(
            tmp_path / "out" / "perturbed_spectrum.csv")
        assert sd.m == 4

    def test_all_pipeline_summary(self, tmp_path):
        rc = run(["--pipeline", "all"], tmp_path,
                 config_text=config_text(ALL_INTERVAL))
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["moments"]["carleman_ok"]
        assert summary["invert"]["p_effective"] >= 1
        assert summary["invert"]["lambda_1"] == pytest.approx(
            math.pi ** 2, rel=1e-2)
        assert summary["compare"]["matched"] >= 1
        assert summary["heat"]["max_abs_dev_upper_half"] < 0.05
        heat = summary["heat"]
        assert heat["lanczos_steps"] >= 1
        assert heat["stop"] in ("converged", "stalled", "exact", "invariant")
        assert heat["last_rel_change"] is None or heat["last_rel_change"] >= 0
        assert summary["verify"]["ok"]
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["pipeline"] == "all"

    def test_all_matches_single_stages(self, tmp_path):
        """Every file `all` shares with a single-stage pipeline on the same
        config is byte-identical: each stage has one code path."""
        text = config_text({**ALL_INTERVAL, "invert.source": "pde"})
        required = {"moments": ["moments.csv"],
                    "invert": ["atoms.csv", "inverted_spectrum.csv"],
                    "heat": ["heat_timestep.csv"],
                    "verify": ["verify.json"]}
        for pipeline in ["all", *required]:
            (tmp_path / pipeline).mkdir()
            assert run(["--pipeline", pipeline], tmp_path / pipeline,
                       text) == 0
        all_out = tmp_path / "all" / "out"
        for stage, names in required.items():
            out = tmp_path / stage / "out"
            shared = sorted(p.name for p in out.iterdir()
                            if p.name not in ("config.txt", "manifest.json")
                            and (all_out / p.name).exists())
            assert set(names) <= set(shared)
            _, mismatch, errors = filecmp.cmpfiles(all_out, out, shared,
                                                   shallow=False)
            assert (mismatch, errors) == ([], []), stage

    def test_all_shares_one_operator(self, tmp_path, monkeypatch):
        """On a polygon, `all` factors the grid's operator once per shift:
        0 for the moments and the eigensolve, 2/dt for the heat steps."""
        calls = []
        splu = splinalg.splu

        def counting_splu(A, *args, **kwargs):
            calls.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(splinalg, "splu", counting_splu)
        rc = run(["--pipeline", "all"], tmp_path,
                 config_text=config_text(L_SHAPE))
        assert rc == 0
        assert len(calls) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "skipped" in summary["verify"]
        assert summary["compare"]["matched_ok"]
        g = es.build_grid(es.Rectangle(1, 1), 1 / 8)
        assert es.assemble_half_laplacian(g) is es.assemble_half_laplacian(g)

    @pytest.mark.parametrize("spec", [
        es.Rectangle(1, 1),
        es.perturb_polygon(es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                           [-1.0, 0.6, 1.0, -0.2], 0.07),
    ], ids=["square", "c8-polygon"])
    def test_all_factors_once_per_shift(self, tmp_path, monkeypatch, spec):
        """`all` takes exactly two sparse LUs, of S at shift 0 and at
        2/dt, each with the MMD ordering of A^T + A and small supernodes."""
        calls = []
        splu = splinalg.splu

        def spy(A, *args, **kwargs):
            calls.append((A.diagonal(), args, kwargs))
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(splinalg, "splu", spy)
        h, dt = 1 / 32, 2.5e-3
        if isinstance(spec, es.Rectangle):
            domain = {"domain.type": "rectangle", "domain.lx": "1",
                      "domain.ly": "1"}
        else:
            domain = {"domain.type": "polygon", "domain.vertices": "; ".join(
                f"{x!r},{y!r}" for x, y in spec.vertices)}
        keys = dict(domain, **{"grid.h": repr(h), "spectrum.m": "6",
                               "heat.t_min": "0.01", "heat.t_max": "1",
                               "heat.dt": repr(dt)})
        assert run(["--pipeline", "all"], tmp_path,
                   config_text=config_text(keys)) == 0
        diag = es.assemble_half_laplacian(es.build_grid(spec, h)).sym.diagonal()
        shifts = sorted(float(np.max(d - diag)) for d, _, _ in calls)
        assert shifts == pytest.approx([0.0, 2.0 / dt], rel=1e-12, abs=0.0)
        for _, args, kwargs in calls:
            assert args == ()
            assert kwargs == {"permc_spec": "MMD_AT_PLUS_A", "relax": 1,
                              "panel_size": 1}

    @pytest.mark.parametrize("pipeline, changes, rc, message", [
        ("invert", {"moments.n_max": "8", "invert.p": "5"}, 2,
         "invert.p = 5 needs moments.n_max >= 9, have 8"),
        ("all", {"moments.n_max": "8", "invert.p": "5"}, 2,
         "invert.p = 5 needs moments.n_max >= 9, have 8"),
        ("all", {"heat.t_min": "0"}, 2, "need 0 < heat.t_min < heat.t_max"),
        # verify takes its analytic moments to verify.n_max itself
        ("verify", {"verify.n_max": "12"}, 0, None),
        # typed library errors: McError, ValueError, GeometryError
        ("mc", {"mc.paths": "4", "mc.x0": ""}, 2, "relative standard error"),
        ("mc", {"mc.dt": "0"}, 2, "dt must be positive and finite, got 0.0"),
        ("moments", {"moments.n_max": "0"}, 2, "n_max must be >= 1"),
        ("moments", {"grid.h": "nan"}, 2,
         "h must be positive and finite, got nan"),
    ], ids=["invert-n_max", "all-n_max", "all-t_min", "verify-n_max",
            "mc-paths", "mc-dt", "moments-n_max", "grid-h-nan"])
    def test_stage_config_checks(self, tmp_path, capsys, pipeline, changes,
                                 rc, message):
        text = config_text({**ALL_INTERVAL, **changes})
        assert run(["--pipeline", pipeline], tmp_path, text) == rc
        assert (tmp_path / "out" / "manifest.json").exists()
        err = capsys.readouterr().err
        if message is None:
            assert err == ""
        else:
            assert f"error: {message}" in err

    def test_verify_beyond_moments_n_max(self, tmp_path):
        rc = run(["--pipeline", "verify"], tmp_path, config_text=(
            "domain.type = interval\n"
            "verify.n_max = 12\n"))
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert [row["N"] for row in rep["rows"]] == list(range(1, 13))
        assert rep["max_rel_err"] <= 1e-4

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = run([], tmp_path, config_text="bogus.key = 1\n")
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_emit_config_flag(self, capsys, tmp_path):
        rc = main(["--emit-config", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert parse_config(out) == default_config()


class TestRerun:
    def test_rerun_matches(self, tmp_path):
        rc = run(["--pipeline", "moments"], tmp_path,
                 config_text=FAST_MOMENTS)
        assert rc == 0
        man = tmp_path / "out" / "manifest.json"
        rc2 = main(["--rerun", str(man),
                    "--out", str(tmp_path / "replay")])
        assert rc2 == 0

    def test_rerun_detects_drift(self, tmp_path, capsys):
        rc = run(["--pipeline", "moments"], tmp_path,
                 config_text=FAST_MOMENTS)
        assert rc == 0
        man_path = tmp_path / "out" / "manifest.json"
        man = json.loads(man_path.read_text())
        name = next(iter(man["outputs"]))
        man["outputs"][name] = "0" * 64
        man_path.write_text(json.dumps(man))
        rc2 = main(["--rerun", str(man_path),
                    "--out", str(tmp_path / "replay")])
        assert rc2 == 2


class TestCompare:
    def _write_spectrum(self, path, entries, volume=None):
        es.SpectralData(entries, "analytic", volume=volume).to_csv(path)

    def test_agreement(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self._write_spectrum(a, [(9.87, 1, 0.81), (88.8, 1, 0.09)])
        self._write_spectrum(b, [(9.871, 1, 0.80), (88.9, 1, 0.10)])
        rc = main(["--pipeline", "compare", "--strict",
                   "--config", str(self._cfg(tmp_path, a, b, 0.01)),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "compare.json").read_text())
        assert rep["agree"]

    def test_disagreement_strict_exit(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self._write_spectrum(a, [(9.87, 1, 0.81)])
        self._write_spectrum(b, [(12.0, 1, 0.81)])
        rc = main(["--pipeline", "compare", "--strict",
                   "--config", str(self._cfg(tmp_path, a, b, 0.01)),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def _cfg(self, tmp_path, a, b, tol):
        p = tmp_path / "cmp.cfg"
        p.write_text(f"compare.a = {a}\ncompare.b = {b}\n"
                     f"compare.tol = {tol}\n")
        return p

    def test_compare_spectra_lambda_gate(self):
        sa = es.SpectralData([(10.0, 1, 0.8), (90.0, 1, 0.2)], "analytic",
                             volume=1.0)
        # same eigenvalues, very different last weight: still agrees,
        # because the final atom absorbs the truncated tail
        sb = es.SpectralData([(10.0, 1, 0.8), (90.0, 1, 0.05)], "analytic",
                             volume=1.0)
        rep = compare_spectra(sa, sb, tol=1e-2)
        assert rep["agree"]
        # an eigenvalue off by 3 percent does not
        sc = es.SpectralData([(10.3, 1, 0.8), (90.0, 1, 0.2)], "analytic",
                             volume=1.0)
        assert not compare_spectra(sa, sc, tol=1e-2)["agree"]
