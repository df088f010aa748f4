"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``install`` replaces
every binding of the listed public functions, in ``exitspec`` and all of its
submodules, with a wrapper that opens a span around the call. Functions that
one module imports by name from another (``cli`` imports ``build_grid``,
``moments`` imports ``solve_poisson``, ...) are therefore timed wherever they
are called from. ``uninstall`` puts the original objects back.

Each span has an id, a name, start and end (``perf_counter`` seconds), the id
of its parent, the run id, and attributes computed from the call's
arguments and result (counts such as grid nodes or normals drawn). Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time

import numpy as np

# module -> public functions whose calls become spans
TRACED = {
    "geometry": ("build_grid", "build_radial_grid"),
    "discrete_ops": ("assemble_half_laplacian", "solve_poisson",
                     "lowest_eigenpairs"),
    "moments": ("exit_moment_fields", "analytic_moments"),
    "spectral": ("numeric_spectrum",),
    "stieltjes": ("invert_moments", "atom_count_cap"),
    "analysis": ("heat_content_timestep", "verify_identities"),
    "montecarlo": ("simulate_exit_times", "mc_survival", "mc_laplace",
                   "mc_moments"),
    "cli": ("run_pipeline",),
}


def cn_step_count(times, dt):
    """Crank-Nicolson steps heat_content_timestep takes after its two
    implicit-Euler half steps, replaying its float time accumulation."""
    t_end = float(np.max(times))
    t, steps = dt / 2.0 + dt / 2.0, 0
    while t < t_end - 1e-12:
        t += dt
        steps += 1
    return steps


def normals_counts(samples, block_steps):
    """(drawn, useful) standard normals of one simulation, from its taus.

    A path that exits after s steps used dim * s normals, but the simulator
    draws whole blocks of block_steps per alive path, so it drew
    dim * block_steps * ceil(s / block_steps).
    """
    cfg = samples.cfg
    steps = np.rint(samples.finite() / cfg.dt).astype(np.int64)
    blocks = -(-steps // block_steps)
    dim = cfg.spec.dim
    return (int(dim * block_steps * blocks.sum()), int(dim * steps.sum()))


def _attrs(name, args, kwargs, result):
    """Counts recorded on a span, computed from the call and its result."""
    if name in ("geometry.build_grid", "geometry.build_radial_grid"):
        return {"nodes": result.n}
    if name == "discrete_ops.assemble_half_laplacian":
        return {"nnz": int(result.sym.nnz)}
    if name == "moments.exit_moment_fields":
        return {"levels": len(result)}
    if name == "analysis.heat_content_timestep":
        dt = args[2] if len(args) > 2 else kwargs["dt"]
        return {"cn_steps": cn_step_count(args[1], dt)}
    if name == "stieltjes.invert_moments":
        d = result.diagnostics
        return {"precision": d["precision"], "p_effective": d["p_effective"],
                "dropped_atoms": len(d["dropped_atoms"]),
                "max_moment_residual": d["max_moment_residual"]}
    if name == "montecarlo.simulate_exit_times":
        block = kwargs.get("block_steps", args[2] if len(args) > 2 else 4096)
        drawn, useful = normals_counts(result, block)
        return {"paths": result.cfg.paths, "normals_drawn": drawn,
                "normals_useful": useful, "step_cap_hits": result.excluded}
    return {}


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span = {"id": next(self._ids), "name": name, "run": self.run_id,
                "parent": stack[-1]["id"] if stack else None,
                "root": stack[0]["name"] if stack else name,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def call(self, name, fn):
        """Run fn() inside a top-level span owned by the benchmark."""
        span = self.begin(name)
        try:
            return fn()
        finally:
            self.end(span)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["attrs"] = {"error": type(exc).__name__}
                raise
            finally:
                tracer.end(span)
            # counts are derived after the span closes, outside its time
            span["attrs"] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every reference to a traced function inside exitspec."""
        wrappers = {}
        for mod, names in TRACED.items():
            module = sys.modules["exitspec." + mod]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "exitspec" and not mod_name.startswith("exitspec."):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, val))

    def uninstall(self):
        for module, attr, val in reversed(self._restore):
            setattr(module, attr, val)
        self._restore.clear()


def _self_time(span, children):
    """Duration minus the part of it that child spans cover."""
    covered, lo, hi = 0.0, None, None
    for c in sorted(children, key=lambda s: s["start"]):
        if hi is None or c["start"] > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = c["start"], c["end"]
        else:
            hi = max(hi, c["end"])
    if hi is not None:
        covered += hi - lo
    return (span["end"] - span["start"]) - covered


def per_layer_metrics(spans, rounds, scaling):
    """Per-layer metrics per round from the spans of the traced rounds.

    scaling maps a Monte Carlo leg to its 1->2 worker efficiency, measured by
    the workload outside the spans.
    """
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def sel(name, pred=lambda s: True):
        return [s for s in by_name.get(name, ()) if pred(s)]

    def secs(name, pred=lambda s: True):
        return math.fsum(s["end"] - s["start"] for s in sel(name, pred)) / rounds

    def total(name, key, pred=lambda s: True):
        return sum(s["attrs"].get(key, 0) for s in sel(name, pred)) / rounds

    inv = sel("stieltjes.invert_moments")
    m = {
        "geometry.build_grid_s": secs("geometry.build_grid")
        + secs("geometry.build_radial_grid"),
        "geometry.nodes": total("geometry.build_grid", "nodes")
        + total("geometry.build_radial_grid", "nodes"),
        "discrete_ops.assemble_s": secs("discrete_ops.assemble_half_laplacian"),
        "discrete_ops.assemble_calls":
            len(sel("discrete_ops.assemble_half_laplacian")) / rounds,
        "discrete_ops.nnz": total("discrete_ops.assemble_half_laplacian", "nnz"),
        "discrete_ops.solve_poisson_s": secs("discrete_ops.solve_poisson"),
        "discrete_ops.solve_poisson_calls":
            len(sel("discrete_ops.solve_poisson")) / rounds,
        "discrete_ops.eigenpairs_s": secs("discrete_ops.lowest_eigenpairs"),
        "discrete_ops.eigenpairs_calls":
            len(sel("discrete_ops.lowest_eigenpairs")) / rounds,
        "moments.exit_moment_fields_s": secs("moments.exit_moment_fields"),
        "moments.levels": total("moments.exit_moment_fields", "levels"),
        "moments.analytic_moments_s": secs("moments.analytic_moments"),
        "spectral.numeric_spectrum_s": secs("spectral.numeric_spectrum"),
        "stieltjes.invert_extended_s": secs(
            "stieltjes.invert_moments",
            lambda s: s["attrs"].get("precision") == "extended"),
        "stieltjes.invert_standard_s": secs(
            "stieltjes.invert_moments",
            lambda s: s["attrs"].get("precision") == "standard"),
        "stieltjes.cap_s": secs("stieltjes.atom_count_cap"),
        "stieltjes.p_effective": (
            sum(s["attrs"].get("p_effective", 0) for s in inv) / len(inv)
            if inv else 0.0),
        "stieltjes.dropped_atoms": total("stieltjes.invert_moments",
                                         "dropped_atoms"),
        "stieltjes.max_moment_residual": max(
            (s["attrs"].get("max_moment_residual", 0.0) for s in inv),
            default=0.0),
        "analysis.heat_timestep_s": secs("analysis.heat_content_timestep"),
        "analysis.cn_steps": total("analysis.heat_content_timestep",
                                   "cn_steps"),
        "analysis.verify_identities_s": secs("analysis.verify_identities"),
        "cli.self_s": math.fsum(
            _self_time(s, children.get(s["id"], ()))
            for s in sel("cli.run_pipeline")) / rounds,
    }
    for leg in ("leg1", "leg2"):
        root = "montecarlo." + leg

        def in_leg(s):
            return s["root"] == root

        sim = secs("montecarlo.simulate_exit_times", in_leg)
        drawn = total("montecarlo.simulate_exit_times", "normals_drawn", in_leg)
        useful = total("montecarlo.simulate_exit_times", "normals_useful",
                       in_leg)
        paths = total("montecarlo.simulate_exit_times", "paths", in_leg)
        p = f"montecarlo.{leg}."
        m[p + "simulate_s"] = sim
        m[p + "paths_per_s"] = paths / sim if sim else 0.0
        m[p + "normals_per_s"] = drawn / sim if sim else 0.0
        m[p + "normals_drawn"] = drawn
        m[p + "normals_useful_ratio"] = useful / drawn if drawn else 0.0
        m[p + "step_cap_hits"] = total("montecarlo.simulate_exit_times",
                                       "step_cap_hits", in_leg)
        m[p + "scaling_eff"] = scaling.get(leg, 0.0)
        m[p + "estimators_s"] = (secs("montecarlo.mc_survival", in_leg)
                                 + secs("montecarlo.mc_laplace", in_leg)
                                 + secs("montecarlo.mc_moments", in_leg))
    return m
