"""The three benchmark workloads: pipeline-2d, inversion-sweep, montecarlo.

Each workload is a closed loop run by ``run.py``: one process issues one task
after another, and a round is one pass over the workload's fixed task set.
``setup`` derives every input and reference value from the seed and may be
called repeatedly; ``run_round`` runs one round through ``call`` (which times
each task and, in a traced run, opens its top-level span); ``checks`` turns
the rounds' outputs into correctness gates. README.md in this directory says
why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import scipy.linalg as sla

import exitspec as es
from exitspec import cli
from tracing import cn_step_count

# C8's corner flow on the unit square. The seed picks one of its eight
# images under the square's symmetries: they give congruent lattice grids,
# so every seed poses the same problem in another node order. Other flows
# at this eps can trip the Crank-Nicolson blowup detector (see README.md).
SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
C8_FLOW = (-1.0, 0.6, 1.0, -0.2)
C8_EPS = 0.07


class Check:
    """One correctness gate. err, when set, is a relative error against a
    reference and feeds accuracy_digits. known marks the documented
    baseline failure: it still counts as failed."""

    def __init__(self, name, ok, err=None, known=False, note=""):
        self.name = name
        self.ok = bool(ok)
        self.err = err
        self.known = known
        self.note = note


def evaluate(name, fn):
    """Run one gate; a gate whose inputs are missing (the task raised) or
    malformed fails instead of stopping the benchmark."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - reported as a failed gate
        return Check(name, False, note=f"{type(exc).__name__}: {exc}")


def rel(a, b):
    return abs(a - b) / abs(b)


def square_image(rng):
    """C8_FLOW under a seeded symmetry of the square (rotation or mirror)."""
    k = int(rng.integers(8))
    f = list(C8_FLOW)
    if k >= 4:
        f = [f[0], f[3], f[2], f[1]]
    k %= 4
    return f[k:] + f[:k]


def perturbed_square(rng):
    return es.perturb_polygon(es.Polygon(SQUARE), square_image(rng), C8_EPS)


class Workload:
    """What the workloads share: seed, scratch directory, at least three
    rounds, no extra work after the timed rounds, plain output equality."""

    MIN_ROUNDS = 3

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = Path(out_dir)

    def after(self, rounds, traced):
        """(extra checks, Monte Carlo scaling) measured after the rounds."""
        return [], {}

    @staticmethod
    def same(a, b):
        """Whether two rounds' outputs are bit-identical."""
        return a == b


class PipelineTwoD(Workload):
    """`exitspec --pipeline all` in process on the unit square and on a
    perturbed square, lattice h = 1/64."""

    name = "pipeline-2d"
    H = 1.0 / 64.0
    HEAT = {"heat.t_min": 1e-2, "heat.t_max": 1.0, "heat.dt": 2.5e-3}
    # observed 2.0e-4 (lambda_1) and 7.7e-4 (A_1) at h = 1/64: O(h^2)
    TOL = 2e-3

    def setup(self):
        rng = np.random.default_rng(self.seed)
        poly = perturbed_square(rng)
        base = cli.default_config()
        base.update({"run.pipeline": "all", "grid.h": self.H,
                     "spectrum.m": 6, **self.HEAT})
        square = dict(base, **{"domain.type": "rectangle",
                               "domain.lx": 1.0, "domain.ly": 1.0})
        verts = "; ".join(f"{x!r},{y!r}" for x, y in poly.vertices)
        polygon = dict(base, **{"domain.type": "polygon",
                                "domain.vertices": verts})
        self.configs = {"square": square, "polygon": polygon}
        self.ref_lambda1 = 2.0 * math.pi ** 2
        self.ref_A1 = es.analytic_moments(es.Rectangle(1.0, 1.0), 1).A[1]
        self.counts = {}
        for key, spec in (("square", es.Rectangle(1.0, 1.0)),
                          ("polygon", poly)):
            grid = es.build_grid(spec, self.H)
            op = es.assemble_half_laplacian(grid)
            self.counts[key] = {
                "nodes": grid.n, "nnz": int(op.sym.nnz),
                "poisson_levels": base["moments.n_max"],
                "cn_steps": cn_step_count([base["heat.t_max"]],
                                          base["heat.dt"])}

    def _run(self, cfg, out):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_pipeline(cfg, out)

    def run_round(self, r, call):
        # one task is the whole pass: the two domains take 0.5 s and 1.5 s,
        # and a latency quantile over that mix would sit between them
        return call("pipeline", self._round) or {}

    def _round(self):
        out = {}
        for key, cfg in self.configs.items():
            d = self.out_dir / key
            status = self._run(cfg, d)
            with open(d / "manifest.json") as fh:
                hashes = json.load(fh)["outputs"]
            with open(d / "summary.json") as fh:
                summary = json.load(fh)
            verify = None
            if (d / "verify.json").exists():
                with open(d / "verify.json") as fh:
                    verify = json.load(fh)
            out[key] = {"status": status, "summary": summary,
                        "verify": verify, "hashes": hashes}
        return out

    def checks(self, rounds):
        first = rounds[0]

        def status(key):
            return Check(f"{key}.status", first[key]["status"] == 0)

        def verdict(key, section, field):
            def gate():
                s = first[key]["summary"][section]
                err = s.get("max_rel_dev_lambda") if section == "compare" \
                    else None
                return Check(f"{key}.{section}.{field}", s[field] is True, err)
            return gate

        def square_verify():
            v = first["square"]["verify"]
            ok = first["square"]["summary"]["verify"]["ok"]
            # the known baseline failure: every identity row misses
            # verify.tol but lies inside its own zeta-tail bound
            in_tail = all(
                row["rel_err"] <= math.gamma(row["N"]) * row["zeta_tail"]
                / row["A_over_N"] for row in v["rows"])
            return Check("square.verify.ok", ok, known=not ok and in_tail,
                         note=f"max_rel_err {v['max_rel_err']:.3g}")

        def square_ref(field, ref, name):
            def gate():
                err = rel(first["square"]["summary"][field[0]][field[1]], ref)
                return Check(name, err <= self.TOL, err)
            return gate

        gates = [
            ("square.status", lambda: status("square")),
            ("square.moments.carleman_ok",
             verdict("square", "moments", "carleman_ok")),
            ("square.compare.matched_ok",
             verdict("square", "compare", "matched_ok")),
            ("square.verify.ok", square_verify),
            ("square.lambda1", square_ref(("invert", "lambda_1"),
                                          self.ref_lambda1, "square.lambda1")),
            ("square.A1", square_ref(("moments", "A_1"), self.ref_A1,
                                     "square.A1")),
            ("polygon.status", lambda: status("polygon")),
            ("polygon.moments.carleman_ok",
             verdict("polygon", "moments", "carleman_ok")),
            ("polygon.compare.matched_ok",
             verdict("polygon", "compare", "matched_ok")),
            ("rounds.identical", lambda: Check(
                "rounds.identical", all(self.same(r, first) for r in rounds))),
        ]
        return [evaluate(name, fn) for name, fn in gates]

    @staticmethod
    def same(a, b):
        return ({k: v["hashes"] for k, v in a.items()}
                == {k: v["hashes"] for k, v in b.items()})


def radial_lambda1(grid):
    """Lowest eigenvalue of the radial finite-volume operator, assembled
    here from the grid alone and solved as a symmetric tridiagonal."""
    r, h, w = grid.nodes, grid.h, grid.weights
    face = (r + h / 2.0) * math.pi / h
    diag = face.copy()
    diag[1:] += face[:-1]
    s = 1.0 / np.sqrt(w)
    ev = sla.eigh_tridiagonal(diag * s * s, -face[:-1] * s[:-1] * s[1:],
                              eigvals_only=True, select="i",
                              select_range=(0, 0))
    return 2.0 * float(ev[0])


class InversionSweep(Workload):
    """Analytic and PDE moment sequences inverted at p = 1..8 in both
    precisions, across domain scales from 1e-3 to 1e3."""

    name = "inversion-sweep"
    N_MAX = 17
    P_MAX = 8
    PDE_CELLS = 2048
    TOL_IDENTITY = 1e-8    # observed <= 2e-15 on analytic moments
    TOL_LAMBDA1 = {"analytic": 1e-9, "pde": 1e-6}

    def setup(self):
        rng = np.random.default_rng(self.seed)

        def scale():
            return float(10.0 ** rng.uniform(-3.0, 3.0))

        fam = []
        for i in range(3):
            L = scale()
            fam.append((f"interval{i}", es.Interval(0.0, L), math.pi ** 2 / L ** 2))
        # one aspect ratio from each quarter of [1, 4]: atom_count_cap keeps
        # one atom more above a ratio of about 2.2, and a round's cost
        # follows how many rectangles lie above it
        for i in range(4):
            s, ratio = scale(), 1.0 + 0.75 * (i + float(rng.uniform()))
            lx, ly = (s, s * ratio) if rng.integers(2) else (s * ratio, s)
            fam.append((f"rectangle{i}", es.Rectangle(lx, ly),
                        math.pi ** 2 * (1.0 / lx ** 2 + 1.0 / ly ** 2)))
        j01 = 2.404825557695773
        for i in range(3):
            R = scale()
            fam.append((f"disk{i}", es.Disk(R), (j01 / R) ** 2))
        self.family = fam
        L, R = scale(), scale()
        n = self.PDE_CELLS
        self.pde = [
            ("pde-interval", es.Interval(0.0, L), L / n,
             (2.0 / (L / n) ** 2) * 2.0 * math.sin(math.pi / (2 * n)) ** 2),
            ("pde-disk", es.Disk(R), R / n,
             radial_lambda1(es.build_radial_grid(es.Disk(R), R / n))),
        ]
        self.counts = {"inversions_per_round":
                       (len(fam) + len(self.pde)) * 2 * self.P_MAX,
                       "pde_poisson_levels": 2 * self.N_MAX,
                       "pde_nodes": n - 1 + n}

    def _invert(self, ms, p, precision, ref_lambda1):
        am = es.invert_moments(ms, p, precision)
        sd = es.measure_to_spectrum(am)
        n = min(2 * am.diagnostics["p_effective"] - 1, ms.n_max)
        report = es.verify_identities(ms, sd, n)
        times = (2.0 / ref_lambda1) * np.array([0.1, 1.0, 10.0])
        q = es.reconstruct_heat_content(am, times)
        return {"atoms": tuple(am.atoms),
                "p_effective": am.diagnostics["p_effective"],
                "identity_err": report["max_rel_err"],
                "q": tuple(float(v) for v in q.q), "mu0": ms.mu[0]}

    def run_round(self, r, call):
        seqs = []
        for key, spec, ref in self.family:
            ms = call("moments." + key,
                      lambda: es.analytic_moments(spec, self.N_MAX), task=False)
            seqs.append((key, ms, ref))
        for key, spec, h, ref in self.pde:
            ms = call("moments." + key,
                      lambda: es.pde_moments(spec, h, self.N_MAX)[0],
                      task=False)
            seqs.append((key, ms, ref))
        out = {}
        for key, ms, ref in seqs:
            if ms is None:
                continue
            for precision in ("standard", "extended"):
                for p in range(1, self.P_MAX + 1):
                    out[(key, precision, p)] = call(
                        f"invert.{precision}",
                        lambda: self._invert(ms, p, precision, ref))
        return out

    def checks(self, rounds):
        first = rounds[0]
        gates = []
        refs = [(k, ref, "analytic") for k, _, ref in self.family]
        refs += [(k, ref, "pde") for k, _, _, ref in self.pde]
        for key, ref, kind in refs:
            for precision in ("standard", "extended"):
                for p in range(1, self.P_MAX + 1):
                    name = f"{key}.{precision}.p{p}.identity"

                    def gate(name=name, k=(key, precision, p)):
                        o = first[k]
                        q = o["q"]
                        ok = (o["identity_err"] <= self.TOL_IDENTITY
                              and all(a > b > 0 for a, b in zip(q, q[1:]))
                              and q[0] <= o["mu0"] * (1.0 + 1e-12))
                        return Check(name, ok)
                    gates.append((name, gate))
                name = f"{key}.{precision}.lambda1"

                def lam(name=name, k=(key, precision, self.P_MAX), ref=ref,
                        tol=self.TOL_LAMBDA1[kind]):
                    err = rel(2.0 / first[k]["atoms"][0][0], ref)
                    return Check(name, err <= tol, err)
                gates.append((name, lam))
        gates.append(("rounds.identical", lambda: Check(
            "rounds.identical", all(self.same(r, first) for r in rounds))))
        return [evaluate(name, fn) for name, fn in gates]


def leg_seed(base, leg, r):
    return int(np.random.SeedSequence([base, leg, r]).generate_state(1)[0])


class MonteCarlo(Workload):
    """simulate_exit_times in two legs per round, 2 worker threads."""

    name = "montecarlo"
    MIN_ROUNDS = 5       # the gates and accuracy_digits read 10240 leg-1 paths
    WORKERS = 2
    LEG1 = {"paths": 2048, "dt": 1e-5}       # x0 = 1/2 on (0, 1)
    LEG2 = {"paths": 2048, "dt": 1e-4}       # uniform starts, polygon
    PREFIX = 256                             # 1-worker replay of leg 1
    BATCH = 64                               # paths per accuracy batch
    LAPLACE_REF = 1.0 / math.cosh(math.sqrt(2.0) / 2.0)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.base = int(rng.integers(2 ** 31))
        self.poly = perturbed_square(rng)
        self.interval = es.Interval(0.0, 1.0)
        self.counts = {"leg1_paths_per_round": self.LEG1["paths"],
                       "leg2_paths_per_round": self.LEG2["paths"]}

    def configs(self, r):
        return (es.SimConfig(self.interval, [0.5], self.LEG1["paths"],
                             self.LEG1["dt"], leg_seed(self.base, 1, r)),
                es.SimConfig(self.poly, None, self.LEG2["paths"],
                             self.LEG2["dt"], leg_seed(self.base, 2, r)))

    def _leg1(self, cfg):
        samples = es.simulate_exit_times(cfg, workers=self.WORKERS)
        surv = es.mc_survival(cfg, 0.5, samples)
        lap = es.mc_laplace(cfg, 1.0, samples)
        return {"taus": samples.taus, "excluded": samples.excluded,
                "estimates": (surv.value, lap.value)}

    def _leg2(self, cfg):
        samples = es.simulate_exit_times(cfg, workers=self.WORKERS)
        ms = es.mc_moments(samples, 2)
        lap = es.mc_laplace(cfg, 1.0, samples)
        return {"taus": samples.taus, "excluded": samples.excluded,
                "estimates": (ms.A[1], ms.A[2], lap.value)}

    def run_round(self, r, call):
        cfg1, cfg2 = self.configs(r)
        return {"leg1": call("montecarlo.leg1", lambda: self._leg1(cfg1)),
                "leg2": call("montecarlo.leg2", lambda: self._leg2(cfg2))}

    def _leg1_taus(self, rounds):
        return np.concatenate([r["leg1"]["taus"]
                               for r in rounds[:self.MIN_ROUNDS]])

    def accuracy_errors(self, rounds):
        """RMS relative error of BATCH-path estimates of E[tau] and of the
        Laplace transform over the first rounds' leg-1 paths."""
        taus = self._leg1_taus(rounds)
        batches = taus[: len(taus) // self.BATCH * self.BATCH].reshape(
            -1, self.BATCH)
        e_mean = batches.mean(axis=1) / 0.25 - 1.0
        e_lap = np.exp(-batches).mean(axis=1) / self.LAPLACE_REF - 1.0
        return (math.sqrt(float(np.mean(e_mean ** 2))),
                math.sqrt(float(np.mean(e_lap ** 2))))

    def checks(self, rounds):
        def mean_gate():
            taus = self._leg1_taus(rounds)
            se = float(np.std(taus, ddof=1)) / math.sqrt(len(taus))
            err = rel(float(np.mean(taus)), 0.25)
            rms, _ = self.accuracy_errors(rounds)
            # first-step bias at dt = 1e-5 is about 0.7% (criterion 6)
            return Check("leg1.mean_tau", err <= 4.0 * se / 0.25 + 0.01, rms,
                         note=f"rel err {err:.3g}")

        def laplace_gate():
            vals = np.exp(-self._leg1_taus(rounds))
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            err = rel(float(np.mean(vals)), self.LAPLACE_REF)
            _, rms = self.accuracy_errors(rounds)
            return Check("leg1.laplace",
                         err <= 4.0 * se / self.LAPLACE_REF + 0.005, rms,
                         note=f"rel err {err:.3g}")

        def no_caps(leg):
            def gate():
                rs = rounds[:self.MIN_ROUNDS]
                ok = all(r[leg]["excluded"] == 0
                         and bool(np.all(np.isfinite(r[leg]["taus"])))
                         and bool(np.all(r[leg]["taus"] > 0)) for r in rs)
                return Check(f"{leg}.no_step_cap", ok)
            return gate

        gates = [("leg1.mean_tau", mean_gate), ("leg1.laplace", laplace_gate),
                 ("leg1.no_step_cap", no_caps("leg1")),
                 ("leg2.no_step_cap", no_caps("leg2"))]
        return [evaluate(name, fn) for name, fn in gates]

    def after(self, rounds, traced):
        """Replays of round 0 outside the timed region.

        Always: a 1-worker replay of the first PREFIX leg-1 paths must match
        bit for bit (path i depends only on (seed, i)). Traced runs also
        replay both legs whole on 1 and on 2 workers, which checks the full
        batches and gives the 1 -> 2 worker scaling efficiency.
        """
        cfg1, cfg2 = self.configs(0)
        checks = []

        def prefix():
            cfg = es.SimConfig(cfg1.spec, cfg1.x0, self.PREFIX, cfg1.dt,
                               cfg1.seed)
            taus = es.simulate_exit_times(cfg, workers=1).taus
            ref = rounds[0]["leg1"]["taus"][: self.PREFIX]
            return Check("leg1.prefix_replay", np.array_equal(taus, ref))

        checks.append(evaluate("leg1.prefix_replay", prefix))
        scaling = {}

        def replay(leg, cfg):
            t, taus = {}, {}
            for w in (2, 1):
                t0 = time.perf_counter()
                taus[w] = es.simulate_exit_times(cfg, workers=w).taus
                t[w] = time.perf_counter() - t0
            scaling[leg] = t[1] / (2.0 * t[2])
            ref = rounds[0][leg]["taus"]
            return Check(f"{leg}.replay_1_and_2_workers",
                         np.array_equal(taus[1], ref)
                         and np.array_equal(taus[2], ref))

        if traced:
            for leg, cfg in (("leg1", cfg1), ("leg2", cfg2)):
                checks.append(evaluate(f"{leg}.replay_1_and_2_workers",
                                       lambda: replay(leg, cfg)))
        return checks, scaling

    @staticmethod
    def same(a, b):
        return all(a[k] is not None and b[k] is not None
                   and np.array_equal(a[k]["taus"], b[k]["taus"])
                   and a[k]["estimates"] == b[k]["estimates"]
                   for k in ("leg1", "leg2"))


WORKLOADS = {w.name: w for w in (PipelineTwoD, InversionSweep, MonteCarlo)}
