import filecmp
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as splinalg
from hypothesis import given, settings, strategies as st

import exitspec as es
import exitspec.cli as cli
import exitspec.montecarlo as mcmod
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

C8_SQUARE = es.perturb_polygon(es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                               [-1.0, 0.6, 1.0, -0.2], 0.07)


def config_text(keys):
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def splu_log(monkeypatch, path):
    """Spy on splinalg.splu here and in every process forked from here
    (the heat stage of `all` factors on one): each call appends a line to
    path. Returns a function that reads the calls back as (diagonal of A,
    args, kwargs)."""
    splu = splinalg.splu

    def spy(A, *args, **kwargs):
        with open(path, "a") as fh:
            fh.write(json.dumps([A.diagonal().tolist(), args, kwargs]) + "\n")
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(splinalg, "splu", spy)

    def calls():
        lines = path.read_text().splitlines() if path.exists() else []
        return [(np.array(d), tuple(args), kwargs)
                for d, args, kwargs in map(json.loads, lines)]

    return calls


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

    def test_heat_pipeline_without_samples(self, tmp_path, capsys):
        rc = run(["--pipeline", "heat"], tmp_path, config_text=(
            "domain.type = interval\n"
            "grid.h = 0.015625\n"
            "heat.samples = 0\n"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: heat.samples must be >= 1"]
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["pipeline"] == "heat"

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
        calls = splu_log(monkeypatch, tmp_path / "splu.jsonl")
        rc = run(["--pipeline", "all"], tmp_path,
                 config_text=config_text(L_SHAPE))
        assert rc == 0
        assert len(calls()) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "skipped" in summary["verify"]
        assert summary["compare"]["matched_ok"]
        g = es.build_grid(es.Rectangle(1, 1), 1 / 8)
        assert es.assemble_half_laplacian(g) is es.assemble_half_laplacian(g)

    @pytest.mark.parametrize("spec", [es.Rectangle(1, 1), C8_SQUARE],
                             ids=["square", "c8-polygon"])
    def test_all_factors_once_per_shift(self, tmp_path, monkeypatch, spec):
        """`all` takes exactly two sparse LUs, of S at shift 0 and at
        2/dt, each with the MMD ordering of A^T + A and small supernodes."""
        calls = splu_log(monkeypatch, tmp_path / "splu.jsonl")
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
        shifts = sorted(float(np.max(d - diag)) for d, _, _ in calls())
        assert shifts == pytest.approx([0.0, 2.0 / dt], rel=1e-12, abs=0.0)
        for _, args, kwargs in calls():
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

    def test_mc_x0_of_the_wrong_length(self, tmp_path, capsys):
        rc = run(["--pipeline", "mc"], tmp_path, config_text({
            **ALL_INTERVAL, "domain.type": "rectangle",
            "mc.x0": "0.5, 0.5, 7"}))
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: x0=[0.5, 0.5, 7.0] needs spec.dim=2 coordinates"]
        assert (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("key, message", [
        ("mc.t", "t must be positive"), ("mc.s", "s must be >= 0")])
    def test_mc_nan_estimate_argument(self, tmp_path, capsys, key, message):
        """A NaN survival time or Laplace argument is an error, not a
        survival of 0 or a NaN estimate in mc_estimates.json."""
        rc = run(["--pipeline", "mc"], tmp_path,
                 config_text({**ALL_INTERVAL, key: "nan"}))
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert (tmp_path / "out" / "manifest.json").exists()

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


def two_cpus(monkeypatch):
    """Let `all` fork its heat stage even where this process is pinned to
    one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


SQUARE_32 = {"grid.h": "0.03125", "spectrum.m": "6", "heat.t_min": "0.01",
             "heat.t_max": "1", "heat.dt": "0.0025"}


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
class TestAllForked:
    """`all` computes its heat curve on a forked child beside the moment ->
    spectrum chain. With the fork check patched, the same run computes it
    in-process; nothing a run writes or prints may differ."""

    @staticmethod
    def run_side(tmp_path, monkeypatch, keys, forked, fail=None):
        """Runs `all` on keys; returns its status, its output directory and
        the pids that ran heat_content_timestep, which raises fail if one
        is given."""
        side = tmp_path / ("forked" if forked else "in-process")
        side.mkdir()
        heat_pids = side / "heat-pids"
        timestep = cli.heat_content_timestep

        def spy(*args):  # a closure, as perfbench's tracer installs
            with open(heat_pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if fail is not None:
                raise fail
            return timestep(*args)

        with monkeypatch.context() as m:
            m.setattr(cli, "heat_content_timestep", spy)
            if forked:
                two_cpus(m)
            else:
                m.setattr(multiprocessing, "get_all_start_methods",
                          lambda: ["spawn"])
            rc = run(["--pipeline", "all"], side, config_text(keys))
        pids = heat_pids.read_text().split() if heat_pids.exists() else []
        return rc, side / "out", [int(p) for p in pids]

    @pytest.mark.parametrize("keys, fail", [
        ({"domain.type": "rectangle", **SQUARE_32}, None),
        ({"domain.type": "polygon", "domain.vertices": "; ".join(
            f"{x!r},{y!r}" for x, y in C8_SQUARE.vertices), **SQUARE_32},
         None),
        (ALL_INTERVAL, None),
        ({**ALL_INTERVAL, "domain.type": "disk", "grid.h": "0.015625"},
         None),
        # heat_content_timestep raises on the child; the parent reports it
        (ALL_INTERVAL, es.SolverError("time stepper left [0, 1]")),
    ], ids=["square", "c8-polygon", "interval", "disk", "heat-error"])
    def test_forked_heat_stage_changes_no_output(self, tmp_path, monkeypatch,
                                                 capfd, keys, fail):
        rc_f, out_f, pids_f = self.run_side(tmp_path, monkeypatch, keys, True,
                                            fail)
        std_f = capfd.readouterr()
        rc_i, out_i, pids_i = self.run_side(tmp_path, monkeypatch, keys,
                                            False, fail)
        std_i = capfd.readouterr()
        assert len(pids_f) == 1 and pids_f[0] != os.getpid()
        assert pids_i == [os.getpid()]
        assert rc_f == rc_i == (0 if fail is None else 2)
        assert std_f == std_i
        if fail is not None:
            assert f"error: {fail}" in std_f.err
        names = sorted(p.name for p in out_i.iterdir())
        assert sorted(p.name for p in out_f.iterdir()) == names
        assert filecmp.cmpfiles(out_f, out_i, names, shallow=False)[0] == names

    def test_heat_error_is_reported_from_the_child(self, tmp_path,
                                                   monkeypatch, capfd):
        """A library error raised on the forked child is printed by the
        parent as one error line, and the manifest is still written."""
        two_cpus(monkeypatch)
        pids = tmp_path / "heat-pids"

        def spy(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise es.SolverError("time stepper left [0, 1]")

        monkeypatch.setattr(cli, "heat_content_timestep", spy)
        rc = run(["--pipeline", "all"], tmp_path, config_text(ALL_INTERVAL))
        err = capfd.readouterr().err
        assert rc == 2
        assert [int(p) for p in pids.read_text().split()] != [os.getpid()]
        assert err.splitlines() == ["error: time stepper left [0, 1]"]
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["pipeline"] == "all"

    @pytest.mark.parametrize("pipeline, module, name, work, changes", [
        ("all", cli, "heat_content_timestep", "heat_content_timestep", {}),
        ("mc", mcmod, "_run_chunk", "exit_time_chunks",
         {"mc.paths": "2048", "mc.workers": "2"}),
    ], ids=["all-heat", "mc-chunk"])
    def test_child_that_dies_is_an_error(self, tmp_path, monkeypatch, capfd,
                                         pipeline, module, name, work,
                                         changes):
        """A child that exits before sending its result is a
        ChildProcessError, an OSError: one error line naming the work and
        the exit code, status 2, and the manifest is written."""
        two_cpus(monkeypatch)

        def dies(*args):
            os._exit(3)

        dies.__name__ = name  # as the function it stands in for
        monkeypatch.setattr(module, name, dies)
        rc = run(["--pipeline", pipeline], tmp_path,
                 config_text({**ALL_INTERVAL, **changes}))
        err = capfd.readouterr().err
        assert rc == 2
        assert err.splitlines() == [
            f"error: {work} exited with code 3 on its forked process "
            f"before sending a result"]
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["pipeline"] == pipeline
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pipeline", ["all", "heat"])
    @pytest.mark.parametrize("changes, message", [
        ({"heat.samples": "0"}, "heat.samples must be >= 1"),
        ({"heat.t_min": "0.01", "heat.t_max": "0.001"},
         "need 0 < heat.t_min < heat.t_max < inf"),
        ({"heat.t_max": "inf"}, "need 0 < heat.t_min < heat.t_max < inf"),
        ({"heat.dt": "-1e-3"},
         "heat.dt must be finite and >= 0 (0 takes heat.t_min / 16)"),
        ({"heat.dt": "nan"},
         "heat.dt must be finite and >= 0 (0 takes heat.t_min / 16)"),
    ], ids=["samples", "t_max", "t_max-inf", "dt", "dt-nan"])
    def test_bad_heat_config_stops_the_run_first(self, tmp_path, monkeypatch,
                                                 capfd, pipeline, changes,
                                                 message):
        """The heat settings are checked in this process before any stage
        runs or a child is forked: no stage prints a line or writes a file,
        and heat_content_timestep is never called."""
        two_cpus(monkeypatch)
        monkeypatch.setattr(cli, "heat_content_timestep", None)
        rc = run(["--pipeline", pipeline], tmp_path,
                 config_text({**ALL_INTERVAL, **changes}))
        std = capfd.readouterr()
        assert rc == 2
        assert std.out == ""
        assert std.err.splitlines() == [f"error: {message}"]
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["config.txt",
                                                         "manifest.json"]

    @pytest.mark.parametrize("case", ["returns", "psd-fails",
                                      "moments-raise"])
    def test_no_child_outlives_the_run(self, tmp_path, monkeypatch, case):
        """The child is ended and joined on every way out of `all`: after
        the heat stage, at the PSD failure's early return, and when a
        stage before the heat stage raises, while the child still runs."""
        two_cpus(monkeypatch)
        assert mcmod._fork_context() is not None
        keys = dict(ALL_INTERVAL)
        if case != "returns":
            monkeypatch.setattr(cli, "heat_content_timestep",
                                lambda *args: time.sleep(60))
        if case == "psd-fails":
            monkeypatch.setattr(cli, "hankel_psd_check", lambda ms, p: {
                "pass": False, "H0_min_eig": -1.0, "H1_min_eig": -1.0})
        elif case == "moments-raise":
            keys["moments.n_max"] = "0"
        t = time.perf_counter()
        rc = run(["--pipeline", "all"], tmp_path, config_text(keys))
        assert time.perf_counter() - t < 30
        assert rc == (0 if case == "returns" else 2)
        assert multiprocessing.active_children() == []

    def test_stage_lines_print_once_to_a_file(self, tmp_path):
        """With stdout a file, a line still in its buffer at the fork is
        not printed again by the child, and the child adds none."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text(ALL_INTERVAL))
        script = ("import os, sys\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "from exitspec.cli import main\n"
                  "print('before the run')\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        path = [str(Path(es.__file__).parents[1]),
                os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        log = tmp_path / "stdout.txt"
        with open(log, "w") as fh:
            proc = subprocess.run(
                [sys.executable, "-c", script, "--config", str(cfg),
                 "--pipeline", "all", "--out", str(tmp_path / "out")],
                stdout=fh, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        heads = [line.split(":")[0] for line in log.read_text().splitlines()]
        assert heads == ["before the run", "moments", "invert", "spectrum",
                         "compare", "heat", "heat", "verify"]


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
