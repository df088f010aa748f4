"""Command-line pipelines over the library.

Config files are flat ``section.key = value`` lines with ``#`` comments.
Unknown keys are rejected with their line number, every run writes back the
fully defaulted config it executed under, and ``emit -> parse -> emit`` is
the identity, so archived configs rerun exactly. The manifest records input
config, package versions, seed, and sha256 of every output file; ``rerun``
replays a manifest and checks the hashes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (asymptotic_fit, fit_window,
                       heat_content_spectral, heat_content_timestep,
                       verify_identities)
from .csvtable import write_csv
from .discrete_ops import SolverError, assemble_half_laplacian
from .geometry import (Disk, Interval, Polygon, Rectangle, build_grid,
                       build_radial_grid, perturb_polygon)
from .moments import (analytic_moments, carleman_diagnostic,
                      exit_moment_fields, moment_sequence)
from .montecarlo import McError, SimConfig, _beside, \
    estimates_to_json, mc_laplace, mc_moments, mc_survival, \
    simulate_exit_times
from .spectral import (SpectralData, analytic_spectrum, numeric_spectrum,
                       property_m_report)
from .stieltjes import (InversionError, hankel_psd_check, invert_moments,
                        measure_to_spectrum, reconstruct_heat_content)

PIPELINES = ("moments", "spectrum", "invert", "heat", "mc", "verify",
             "perturb", "all", "compare")


class ConfigError(ValueError):
    pass


# key -> (type, default[, choices]); type in {"int", "float", "bool", "str"}
SCHEMA = {
    "run.pipeline": ("str", "all", PIPELINES),
    "domain.type": ("str", "interval",
                    ("interval", "rectangle", "disk", "polygon")),
    "domain.a": ("float", 0.0),
    "domain.b": ("float", 1.0),
    "domain.lx": ("float", 1.0),
    "domain.ly": ("float", 1.0),
    "domain.r": ("float", 1.0),
    "domain.vertices": ("str", "0,0; 1,0; 1,1; 0,1"),
    "grid.h": ("float", 1.0 / 128.0),
    "grid.radial": ("bool", True),
    "moments.n_max": ("int", 10),
    "moments.tol": ("float", 1e-11),
    "spectrum.m": ("int", 8),
    "spectrum.source": ("str", "analytic", ("analytic", "numeric")),
    "spectrum.zero_tol": ("float", 1e-6),
    "invert.p": ("int", 5),
    "invert.precision": ("str", "standard", ("standard", "extended")),
    "invert.source": ("str", "analytic", ("analytic", "pde")),
    "heat.t_min": ("float", 1e-4),
    "heat.t_max": ("float", 0.05),
    "heat.samples": ("int", 40),
    "heat.dt": ("float", 0.0),
    "heat.fit_terms": ("int", 3),
    "mc.paths": ("int", 20000),
    "mc.dt": ("float", 1e-4),
    "mc.seed": ("int", 1234),
    "mc.x0": ("str", ""),
    "mc.workers": ("int", 1),
    "mc.t": ("float", 0.5),
    "mc.s": ("float", 1.0),
    "perturb.eps": ("float", 0.05),
    "perturb.f": ("str", "1, 0, 0, 0"),
    "verify.n_max": ("int", 6),
    "verify.tol": ("float", 1e-4),
    "compare.a": ("str", ""),
    "compare.b": ("str", ""),
    "compare.tol": ("float", 1e-2),
}


def _coerce(key, val, ln):
    kind = SCHEMA[key][0]
    try:
        if kind == "int":
            out = int(val)
        elif kind == "float":
            out = float(val)
        elif kind == "bool":
            if val not in ("true", "false"):
                raise ValueError
            out = val == "true"
        else:
            out = val
    except ValueError:
        raise ConfigError(f"line {ln}: cannot parse '{val}' as {kind} "
                          f"for {key}") from None
    if len(SCHEMA[key]) > 2 and out not in SCHEMA[key][2]:
        raise ConfigError(f"line {ln}: {key} must be one of "
                          f"{', '.join(SCHEMA[key][2])}")
    return out


def default_config():
    return {k: v[1] for k, v in SCHEMA.items()}


def parse_config(text):
    cfg = default_config()
    seen = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'section.key = value'")
        key, val = line.split("=", 1)
        key, val = key.strip(), val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {ln}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {ln}: duplicate key '{key}' "
                              f"(already set on line {seen[key]})")
        seen[key] = ln
        cfg[key] = _coerce(key, val, ln)
    return cfg


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_config(cfg):
    lines = [f"{k} = {_fmt(cfg[k])}" for k in sorted(cfg)]
    return "\n".join(lines) + "\n"


def _parse_floats(text):
    return [float(t) for t in text.split(",") if t.strip()]


def build_spec(cfg):
    kind = cfg["domain.type"]
    if kind == "interval":
        return Interval(cfg["domain.a"], cfg["domain.b"])
    if kind == "rectangle":
        return Rectangle(cfg["domain.lx"], cfg["domain.ly"])
    if kind == "disk":
        return Disk(cfg["domain.r"])
    verts = []
    for part in cfg["domain.vertices"].split(";"):
        xy = _parse_floats(part)
        if len(xy) != 2:
            raise ConfigError(f"bad vertex '{part.strip()}' in domain.vertices")
        verts.append((xy[0], xy[1]))
    return Polygon(verts)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Owns the output directory and the run's domain and grid; tracks
    written files for the manifest."""

    def __init__(self, cfg, out_dir, strict=False, dump_operator=False):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.strict = strict
        self.dump_operator = dump_operator
        self.written = []

    @functools.cached_property
    def spec(self):
        return build_spec(self.cfg)

    @functools.cached_property
    def grid(self):
        if isinstance(self.spec, Disk) and self.cfg["grid.radial"]:
            return build_radial_grid(self.spec, self.cfg["grid.h"])
        return build_grid(self.spec, self.cfg["grid.h"])

    def path(self, name):
        self.written.append(name)
        return self.out / name

    def write_json(self, name, obj):
        with open(self.path(name), "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def finish(self, pipeline, status):
        with open(self.out / "config.txt", "w") as fh:
            fh.write(emit_config(self.cfg))
        manifest = {
            "pipeline": pipeline,
            "config": emit_config(self.cfg),
            "versions": {
                "exitspec": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
                "scipy": scipy.__version__,
            },
            "seed": self.cfg["mc.seed"],
            "dump_operator": self.dump_operator,
            "outputs": {n: _sha256(self.out / n)
                        for n in sorted(set(self.written + ["config.txt"]))},
        }
        self.write_json("manifest.json", manifest)
        return status


def _moments_stage(r: Runner):
    """PDE moments on the run's grid; returns them and Carleman's verdict."""
    fields = exit_moment_fields(r.grid, r.cfg["moments.n_max"],
                                r.cfg["moments.tol"])
    ms = moment_sequence(fields)
    ms.to_csv(r.path("moments.csv"))
    diag = carleman_diagnostic(ms)
    r.write_json("carleman.json", diag)
    if r.dump_operator:
        assemble_half_laplacian(r.grid).dump_coo(r.path("operator.txt"))
        r.grid.dump_csv(r.path("grid.csv"))
    print(f"moments: n_max={len(ms.A) - 1}, A_1={ms.A[1]:.9g}, "
          f"carleman {'ok' if diag['holds'] else 'VIOLATED'}")
    return ms, diag["holds"]


def _invert_stage(r: Runner, ms):
    """Atoms of ms and their spectrum, or None if the PSD check fails."""
    p = r.cfg["invert.p"]
    if ms.n_max < 2 * p - 1:
        raise ConfigError(f"invert.p = {p} needs moments.n_max >= "
                          f"{2 * p - 1}, have {ms.n_max}")
    psd = hankel_psd_check(ms, p)
    if not psd["pass"]:
        print(f"invert: Hankel PSD check failed "
              f"(min eig H0 {psd['H0_min_eig']:.3g}, "
              f"H1 {psd['H1_min_eig']:.3g}); refusing to invert")
        r.write_json("inversion.json", {"psd": psd, "status": "failed"})
        return None
    am = invert_moments(ms, p, r.cfg["invert.precision"])
    am.to_csv(r.path("atoms.csv"))
    sd = measure_to_spectrum(am)
    sd.to_csv(r.path("inverted_spectrum.csv"))
    r.write_json("inversion.json", {"psd": psd, "diagnostics": am.diagnostics})
    print(f"invert: p_eff={am.diagnostics['p_effective']}, "
          f"lambda_1={2.0 / am.atoms[0][0]:.9g}, "
          f"max moment residual {am.diagnostics['max_moment_residual']:.3g}")
    return am, sd


def _analytic(r: Runner, m, table=None):
    """First m analytic clusters of the run's domain: a prefix of table,
    which has the same bits, or of a table of their own."""
    sd = analytic_spectrum(r.spec, m) if table is None else table
    return SpectralData(sd.entries[:m], sd.source, sd.volume)


def _spectrum_stage(r: Runner, m, numeric, table=None):
    """First m clusters, numeric on the run's grid or analytic."""
    if numeric:
        sd = numeric_spectrum(r.grid, m)
    elif isinstance(r.spec, Polygon):
        raise ConfigError("no analytic spectrum for polygons; "
                          "set spectrum.source = numeric")
    else:
        sd = _analytic(r, m, table)
    sd.to_csv(r.path("spectrum.csv"))
    ess = sd.essential(r.cfg["spectrum.zero_tol"])
    ess.to_csv(r.path("essential.csv"))
    print(f"spectrum: {sd.m} clusters, {ess.m} essential, "
          f"lambda_1={sd.entries[0][0]:.9g}")
    return sd


def _heat_times(cfg):
    """Sample times and step of the time-stepped heat curve; raises
    ConfigError on heat settings it cannot run with."""
    t_min, t_max = cfg["heat.t_min"], cfg["heat.t_max"]
    if not 0 < t_min < t_max < math.inf:
        raise ConfigError("need 0 < heat.t_min < heat.t_max < inf")
    if cfg["heat.samples"] < 1:
        raise ConfigError("heat.samples must be >= 1")
    if not 0 <= cfg["heat.dt"] < math.inf:
        raise ConfigError("heat.dt must be finite and >= 0 "
                          "(0 takes heat.t_min / 16)")
    return (np.geomspace(t_min, t_max, cfg["heat.samples"]),
            cfg["heat.dt"] or t_min / 16.0)


def _heat_stage(r: Runner, curve, table=None):
    """Writes the time-stepped curve, plus spectral and fit."""
    t_min, t_max = r.cfg["heat.t_min"], r.cfg["heat.t_max"]
    times = curve.times
    curve.to_csv(r.path("heat_timestep.csv"))
    d = curve.diagnostics
    lines = [f"heat: q({t_min:g})={curve.q[0]:.9g} from {d['lanczos_steps']} "
             f"Lanczos steps ({d['stop']})"]
    if not isinstance(r.spec, Polygon):
        sd = _analytic(r, max(r.cfg["spectrum.m"], 32), table)
        heat_content_spectral(sd, times).to_csv(r.path("heat_spectral.csv"))
    lo, hi = fit_window(r.spec, r.grid.h)
    window = curve.restrict(max(lo, t_min), min(hi, t_max))
    if len(window.times) >= 8:
        fit = asymptotic_fit(window, r.cfg["heat.fit_terms"])
        fit.to_csv(r.path("fit.csv"))
        lines.append(f"fit: q_0={fit.coefficients[0]:.6g} "
                     f"(vol {r.spec.volume():.6g}), "
                     f"q_1={fit.coefficients[1]:.6g}")
    else:
        lines.append("fit: skipped, too few samples in asymptotic window")
    print("; ".join(lines))
    return curve


def _verify_stage(r: Runner, table=None):
    """Zeta identity to verify.n_max; returns the report and its verdict."""
    if isinstance(r.spec, Polygon):
        raise ConfigError("verify needs a domain with an analytic spectrum")
    n_max = r.cfg["verify.n_max"]
    sd = _analytic(r, max(r.cfg["spectrum.m"], 64), table)
    report = verify_identities(analytic_moments(r.spec, n_max), sd, n_max)
    r.write_json("verify.json", report)
    ok = report["max_rel_err"] <= r.cfg["verify.tol"]
    print(f"verify: max relative error {report['max_rel_err']:.3g} over "
          f"N=1..{n_max} ({'within' if ok else 'EXCEEDS'} "
          f"{r.cfg['verify.tol']:g})")
    return report, ok


def run_moments(r: Runner):
    _, holds = _moments_stage(r)
    return 0 if holds else 2


def run_spectrum(r: Runner):
    _spectrum_stage(r, r.cfg["spectrum.m"],
                    r.cfg["spectrum.source"] == "numeric")
    return 0


def run_invert(r: Runner):
    if r.cfg["invert.source"] == "pde":
        ms, _ = _moments_stage(r)
    elif isinstance(r.spec, Polygon):
        raise ConfigError("no analytic moments for polygons; "
                          "set invert.source = pde")
    else:
        ms = analytic_moments(r.spec, r.cfg["moments.n_max"])
    return 0 if _invert_stage(r, ms) else 2


def run_heat(r: Runner):
    _heat_stage(r, heat_content_timestep(r.grid, *_heat_times(r.cfg)))
    return 0


def run_mc(r: Runner):
    x0 = _parse_floats(r.cfg["mc.x0"]) or None
    sim = SimConfig(r.spec, x0, r.cfg["mc.paths"], r.cfg["mc.dt"],
                    r.cfg["mc.seed"])
    samples = simulate_exit_times(sim, workers=r.cfg["mc.workers"])
    samples.to_csv(r.path("mc_samples.csv"))
    ests = [mc_survival(sim, r.cfg["mc.t"], samples),
            mc_laplace(sim, r.cfg["mc.s"], samples)]
    if x0 is None:
        ms = mc_moments(samples, 2)
        ms.to_csv(r.path("mc_moments.csv"))
        print(f"mc: {sim.paths} paths, A_1 ~ {ms.A[1]:.6g} "
              f"+- {ms.stderr[1]:.2g}")
    else:
        taus = samples.finite()
        mean = math.fsum(taus) / len(taus)
        print(f"mc: {sim.paths} paths from x0={x0}, "
              f"E[tau] ~ {mean:.6g}")
    estimates_to_json(r.path("mc_estimates.json"), sim, ests)
    if samples.excluded:
        print(f"mc: WARNING {samples.excluded} paths hit the step cap")
    return 0


def run_verify(r: Runner):
    _, ok = _verify_stage(r)
    return 0 if ok else 2


def run_perturb(r: Runner):
    if not isinstance(r.spec, Polygon):
        raise ConfigError("perturb only applies to polygons")
    f = _parse_floats(r.cfg["perturb.f"])
    if len(f) != len(r.spec.vertices):
        raise ConfigError(f"perturb.f has {len(f)} entries for "
                          f"{len(r.spec.vertices)} vertices")
    moved = perturb_polygon(r.spec, f, r.cfg["perturb.eps"])
    write_csv(r.path("perturbed_vertices.csv"), "x,y", moved.vertices)
    grid = build_grid(moved, r.cfg["grid.h"])
    sd = numeric_spectrum(grid, r.cfg["spectrum.m"])
    sd.to_csv(r.path("perturbed_spectrum.csv"))
    report = property_m_report(sd, r.cfg["spectrum.zero_tol"])
    report["eps"] = r.cfg["perturb.eps"]
    report["volume"] = moved.volume()
    r.write_json("perturb_report.json", report)
    print(f"perturb: eps={r.cfg['perturb.eps']:g}, "
          f"vol={moved.volume():.9g}, "
          f"{len(sd.entries)} clusters, "
          f"all weights positive: {report['holds']}")
    return 0


def compare_spectra(sa: SpectralData, sb: SpectralData, tol):
    """Match rows of sa against sb by relative eigenvalue distance.

    Rows that either side's essential() drops go first (they carry no
    mass and a recovered measure cannot see them). Gate is on eigenvalue
    agreement; weight deviations are reported but do not unmatch a row,
    since a truncated measure lumps the spectral tail into its last atom.
    """
    rows_a = sa.essential().entries
    rows_b = sb.essential().entries
    matched, i, j = [], 0, 0
    while i < len(rows_a) and j < len(rows_b):
        la, ma, wa = rows_a[i]
        lb, mb, wb = rows_b[j]
        if abs(la - lb) <= tol * max(la, lb):
            matched.append({
                "lambda_a": la, "lambda_b": lb,
                "rel_dev_lambda": abs(la - lb) / max(la, lb),
                "a2_a": wa, "a2_b": wb,
                "rel_dev_a2": abs(wa - wb) / max(wa, wb)
                if max(wa, wb) > 0 else 0.0,
            })
            i += 1
            j += 1
        elif la < lb:
            i += 1
        else:
            j += 1
    unmatched_a = len(rows_a) - len(matched)
    agree = unmatched_a == 0 and all(
        m["rel_dev_lambda"] <= tol for m in matched)
    return {
        "tol": tol,
        "matched": matched,
        "unmatched_a": unmatched_a,
        "unmatched_b": len(rows_b) - len(matched),
        "max_rel_dev_lambda": max((m["rel_dev_lambda"] for m in matched),
                                  default=math.inf if rows_a else 0.0),
        "agree": agree,
    }


def run_compare(r: Runner):
    if not r.cfg["compare.a"] or not r.cfg["compare.b"]:
        raise ConfigError("compare needs compare.a and compare.b paths")
    sa = SpectralData.from_csv(r.cfg["compare.a"])
    sb = SpectralData.from_csv(r.cfg["compare.b"])
    report = compare_spectra(sa, sb, r.cfg["compare.tol"])
    r.write_json("compare.json", report)
    for m in report["matched"]:
        print(f"  lambda {m['lambda_a']:.6g} vs {m['lambda_b']:.6g} "
              f"(rel {m['rel_dev_lambda']:.2e}), "
              f"a2 {m['a2_a']:.6g} vs {m['a2_b']:.6g}")
    print(f"compare: {len(report['matched'])} matched, "
          f"{report['unmatched_a']}+{report['unmatched_b']} unmatched, "
          f"{'agree' if report['agree'] else 'DISAGREE'} "
          f"at tol {r.cfg['compare.tol']:g}")
    if not report["agree"] and r.strict:
        return 2
    return 0


def run_all(r: Runner):
    """Full chain on the run's grid: moments -> invert -> compare -> heat
    -> verify, summarized in summary.json.

    The heat curve needs only the grid, so montecarlo._beside, which also
    runs the Monte Carlo workers, computes it beside the moment -> spectrum
    chain: on a child forked as soon as the grid and its operator exist,
    where the platform can fork and the process may run on two CPUs or
    more, and otherwise in-process at the heat stage. A process, not a
    thread, because SuperLU's solve holds the GIL. Either way the heat
    stage writes its files and prints its lines where it always has, so
    every output is the same, and no child outlives the call; a child that
    dies first is an OSError, reported as any other.
    """
    times_dt = _heat_times(r.cfg)  # a bad heat config stops the run here
    polygon = isinstance(r.spec, Polygon)
    assemble_half_laplacian(r.grid)  # built once, before the fork
    with _beside(heat_content_timestep, r.grid, *times_dt) as heat_curve:
        ms, carleman_ok = _moments_stage(r)
        summary = {"moments": {"A_1": ms.A[1], "carleman_ok": carleman_ok}}
        inverted = _invert_stage(r, ms)
        if inverted is None:
            summary["invert"] = {"status": "psd check failed"}
            r.write_json("summary.json", summary)
            return 2
        am, inv_sd = inverted
        summary["invert"] = {"p_effective": am.diagnostics["p_effective"],
                             "lambda_1": 2.0 / am.atoms[0][0],
                             "vp_1": am.atoms[0][1]}

        # the reference spectrum: numeric on the run's grid for polygons,
        # analytic with at least 16 clusters otherwise, cut from the one
        # table the spectrum, heat and verify stages share
        m = r.cfg["spectrum.m"]
        table = None if polygon else analytic_spectrum(r.spec, max(m, 64))
        ref = _spectrum_stage(r, m if polygon else max(m, 16),
                              numeric=polygon, table=table)
        cmp_report = compare_spectra(inv_sd, ref, r.cfg["compare.tol"])
        r.write_json("compare.json", cmp_report)
        n_match = len(cmp_report["matched"])
        # the gate is on matched clusters only: the deepest atoms of a
        # truncated measure absorb the spectral tail and are not eigenvalue
        # claims, so going unmatched there is expected, not a failure
        spectra_ok = (n_match >= 1 and
                      cmp_report["max_rel_dev_lambda"] <= r.cfg["compare.tol"])
        summary["compare"] = {
            "matched": n_match,
            "unmatched_atoms": cmp_report["unmatched_a"],
            "max_rel_dev_lambda": cmp_report["max_rel_dev_lambda"],
            "matched_ok": spectra_ok,
        }
        tail = (f", {cmp_report['unmatched_a']} tail atoms unmatched"
                if cmp_report["unmatched_a"] else "")
        print(f"compare: {n_match} atoms matched reference clusters{tail}")

        curve = _heat_stage(r, heat_curve(), table)
    times = curve.times
    recon = reconstruct_heat_content(am, times)
    recon.to_csv(r.path("heat_reconstructed.csv"))
    upper = times >= times[len(times) // 2]
    dev = float(np.max(np.abs(curve.q[upper] - recon.q[upper])))
    # the Crank-Nicolson curve's Lanczos steps (= solves), stop reason and
    # last relative change between its Gauss rules
    summary["heat"] = {"max_abs_dev_upper_half": dev, **curve.diagnostics}
    print(f"heat: timestep vs reconstructed, "
          f"max |dq| = {dev:.3g} on t >= {times[len(times) // 2]:.3g}")

    if polygon:
        summary["verify"] = {"skipped": "no analytic reference for polygons"}
        ok = True
        print("verify: skipped (polygon)")
    else:
        report, ok = _verify_stage(r, table)
        summary["verify"] = {"max_rel_err": report["max_rel_err"], "ok": ok}

    r.write_json("summary.json", summary)
    if r.strict and not (ok and spectra_ok and carleman_ok):
        return 2
    return 0


RUNNERS = {
    "moments": run_moments,
    "spectrum": run_spectrum,
    "invert": run_invert,
    "heat": run_heat,
    "mc": run_mc,
    "verify": run_verify,
    "perturb": run_perturb,
    "all": run_all,
    "compare": run_compare,
}


def run_pipeline(cfg, out_dir, strict=False, dump_operator=False):
    name = cfg["run.pipeline"]
    r = Runner(cfg, out_dir, strict=strict, dump_operator=dump_operator)
    try:
        status = RUNNERS[name](r)
    # ValueError covers ConfigError, GeometryError and a malformed table
    except (ValueError, OSError, SolverError, InversionError, McError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return r.finish(name, 2)
    return r.finish(name, status)


def rerun_manifest(manifest_path, out_dir, strict=False):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    cfg = parse_config(manifest["config"])
    status = run_pipeline(cfg, out_dir, strict=strict,
                          dump_operator=manifest.get("dump_operator", False))
    if status != 0:
        return status
    out = Path(out_dir)
    bad = []
    for name, want in manifest["outputs"].items():
        got = _sha256(out / name) if (out / name).exists() else "missing"
        if got != want:
            bad.append(name)
    if bad:
        print(f"rerun: outputs differ from manifest: {', '.join(bad)}")
        return 2
    print(f"rerun: {len(manifest['outputs'])} outputs match the manifest")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="exitspec",
        description="exit-time moment invariants, spectral recovery, and "
                    "heat-content checks for Euclidean domains")
    parser.add_argument("--config", help="config file (section.key = value)")
    parser.add_argument("--out", default="exitspec-out",
                        help="output directory (default: exitspec-out)")
    parser.add_argument("--pipeline", choices=PIPELINES,
                        help="override run.pipeline from the config")
    parser.add_argument("--strict", action="store_true",
                        help="nonzero exit on tolerance disagreements")
    parser.add_argument("--seed", type=int, help="override mc.seed")
    parser.add_argument("--precision", choices=("standard", "extended"),
                        help="override invert.precision")
    parser.add_argument("--dump-operator", action="store_true",
                        help="also write the discrete operator in "
                             "'row col value' text form and the grid "
                             "(pipelines that run the moments stage)")
    parser.add_argument("--rerun", metavar="MANIFEST",
                        help="replay an archived manifest and check hashes")
    parser.add_argument("--emit-config", action="store_true",
                        help="print the fully defaulted config and exit")
    args = parser.parse_args(argv)

    if args.rerun:
        return rerun_manifest(args.rerun, args.out, strict=args.strict)

    if args.config:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"error: {args.config}: {exc}", file=sys.stderr)
            return 2
    else:
        cfg = default_config()

    if args.pipeline:
        cfg["run.pipeline"] = args.pipeline
    if args.seed is not None:
        cfg["mc.seed"] = args.seed
    if args.precision:
        cfg["invert.precision"] = args.precision

    if args.emit_config:
        sys.stdout.write(emit_config(cfg))
        return 0

    return run_pipeline(cfg, args.out, strict=args.strict,
                        dump_operator=args.dump_operator)


if __name__ == "__main__":
    sys.exit(main())
