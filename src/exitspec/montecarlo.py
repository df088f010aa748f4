"""Independent probabilistic oracle: Brownian paths, first exit times,
moment/survival/Laplace estimators.

Increments are sqrt(dt) * standard normal per coordinate, so the generator
is (1/2) Delta. A path terminates at the first step that lands outside the
domain and tau is recorded at that step; there is no sub-step interpolation,
which leaves a documented O(sqrt(dt)) positive bias on exit times.

Walk rule: x_j = fl(x_{j-1} + fl(sqrt(dt) * z_j)), one rounded addition per
step from the carried position, so where a walk is split into passes cannot
change a single bit of it. tau = j * dt at the first j with x_j outside D.

Passes: paths run in chunks of CHUNK_PATHS, the last one shorter. A
chunk's first pass walks its live paths FIRST_PASS steps, and each later
pass doubles that up to BLOCK_STEPS, cut to the steps left under STEP_CAP.
A pass works through the live paths in groups of at most PASS_NORMALS =
2^16 normals (paths x steps x dim), a 0.5 MB walk that stays in a core's
L2 cache. A path is NaN exactly when it has not left D within STEP_CAP
steps.

Workers: with workers > 1, chunk i goes to part i mod procs, procs =
min(workers, chunks), and each part runs on a process forked by _beside,
the package's one helper that starts a process (the CLI's `all` runs its
heat curve with it too); the parent walks no chunk itself. So no more
processes are forked than there are chunks, and a run of one chunk stays
in-process: 1000 interval paths at x0 = 1/2, dt = 1e-3 take about 37 ms
in-process and 53 ms cut in two forked halves (2 cores). Threads would
wait on one another (about 18 % of their time on 2 cores): np.cumsum, the
walk's running sum, holds the GIL for its whole call. Fork, not spawn: a spawned worker
re-imports numpy and this package, about 0.2 s, more than a small run
takes. In a caller that runs threads of its own, a fork can deadlock on a
lock another thread held at that moment, and Python >= 3.12 warns on such
a fork.

Reproducibility contract: path i draws from a Philox stream keyed
(base_seed mod 2^64, i), consumed in simulation order (start-point
rejection draws first for uniform starts, then dim normals per step);
estimator reductions run in fixed path-index order. Worker count, chunk and pass sizes cannot
change any estimate bit-for-bit.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections import Counter

import numpy as np

from .csvtable import write_csv
from .geometry import DomainSpec, GeometryError
from .moments import MomentSequence

STEP_CAP = 10 ** 8      # a path not out of D after this many steps is NaN
FIRST_PASS = 64         # steps in a chunk's first pass
BLOCK_STEPS = 4096      # steps in a chunk's longest pass
PASS_NORMALS = 2 ** 16  # normals per group of a pass (paths x steps x dim)
CHUNK_PATHS = 1024      # most paths in a chunk


class McError(RuntimeError):
    pass


def _fork_context():
    """multiprocessing's fork context, or None where a forked process
    cannot help: the platform has no fork, or this process may run on one
    CPU only. multiprocessing is imported here, on first use, so that
    importing the package does not load it."""
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        return None
    return multiprocessing.get_context("fork")


@contextlib.contextmanager
def _beside(fn, *args):
    """Compute fn(*args) beside the with-body, which receives a function
    that returns the result or raises what fn raised.

    Where _fork_context allows, fn runs on a child forked on entry. The
    child inherits fn and its arguments, so nothing is pickled but the
    result, and a closure serves as well as a module-level function. It
    writes no file and prints nothing: Process.start flushes stdout and
    stderr before the fork, so no buffered line is printed twice. If the
    child exits before sending its result, asking for it raises
    ChildProcessError naming fn. Leaving the block ends and joins the
    child, whether its result was taken or not. Otherwise fn runs
    in-process when the result is asked for.
    """
    ctx = _fork_context()
    if ctx is None:
        yield lambda: fn(*args)
        return
    recv, send = ctx.Pipe(duplex=False)

    def body():  # the child's: send (True, fn(*args)) or (False, its error)
        try:
            msg = (True, fn(*args))
        except Exception as exc:  # noqa: BLE001 - raised again in the parent
            msg = (False, exc)
        send.send(msg)

    child = ctx.Process(target=body)
    child.start()
    send.close()

    def result():
        try:
            ok, value = recv.recv()
        except EOFError:
            child.join()
            raise ChildProcessError(
                f"{fn.__name__} exited with code {child.exitcode} on its "
                f"forked process before sending a result") from None
        if not ok:
            raise value
        return value

    result.fileno = recv.fileno  # connection.wait can wait on the result
    try:
        yield result
    finally:
        recv.close()
        child.terminate()  # a child that has sent its result is exiting
        child.join()


class SimConfig:
    """Domain, start point (None for uniform starts), paths, dt, seed."""

    def __init__(self, spec: DomainSpec, x0, paths: int, dt: float, seed: int):
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if paths < 1:
            raise ValueError("need at least one path")
        self.x0 = None if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
        if self.x0 is not None and self.x0.shape != (spec.dim,):
            raise ValueError(f"x0={x0} needs spec.dim={spec.dim} coordinates")
        if self.x0 is not None and not (np.all(spec.contains(self.x0))
                                        and np.all(spec.distance(self.x0) > 0)):
            raise ValueError(f"x0={x0} is not strictly interior")
        self.spec = spec
        self.paths = int(paths)
        self.dt = float(dt)
        self.seed = int(seed)
        if not -2 ** 63 <= self.seed < 2 ** 64:
            raise ValueError(f"seed {seed} is outside [-2^63, 2^64)")

    def describe(self):
        return {
            "domain": repr(self.spec),
            "x0": None if self.x0 is None else list(map(float, self.x0)),
            "paths": self.paths,
            "dt": self.dt,
            "seed": self.seed,
            "stream_rule": "philox key=(seed, path_index)",
        }


class ExitSamples:
    """Per-path exit times; NaN marks paths cut by the step cap.

    stats records what the simulation did: normals_drawn, steps (walk steps
    taken over all paths, the cap for a capped path), passes (block passes
    over all chunks) and step_cap_hits.
    """

    def __init__(self, cfg: SimConfig, taus, stats=None):
        self.cfg = cfg
        self.taus = np.asarray(taus, dtype=float)
        self.stats = dict(stats or {})
        self.excluded = int(np.count_nonzero(np.isnan(self.taus)))

    def finite(self):
        return self.taus[~np.isnan(self.taus)]

    def to_csv(self, path):
        write_csv(path, "path_index,tau", enumerate(self.taus))


class McEstimate:
    def __init__(self, value, stderr, paths, dt, tag):
        self.value = float(value)
        self.stderr = float(stderr)
        self.paths = int(paths)
        self.dt = float(dt)
        self.tag = tag

    def to_dict(self, cfg=None):
        d = {"value": self.value, "stderr": self.stderr, "paths": self.paths,
             "dt": self.dt, "estimator": self.tag}
        if cfg is not None:
            d["config"] = cfg.describe()
        return d

    def __repr__(self):
        return f"McEstimate({self.tag}: {self.value:.6g} +- {self.stderr:.2g})"


def _start_points(spec, gens):
    """Uniform interior start points, row i from path i's own stream,
    rejected from spec.box() by spec.contains: every pending path draws one
    candidate, in path order, one vectorized contains call judges them all,
    and rejected paths draw again. Each path consumes the same draws in the
    same order as when it is sampled alone.
    """
    try:
        lo, hi = np.array(spec.box()).T
    except GeometryError as exc:
        raise McError(str(exc)) from None
    dim, side = spec.dim, hi - lo
    pts = np.empty((len(gens), dim))
    pending = np.arange(len(gens))
    for _ in range(10000):
        cand = lo + np.array([gens[i].random(dim) for i in pending]) * side
        ok = spec.contains(cand if dim > 1 else cand[:, 0])
        pts[pending[ok]] = cand[ok]
        pending = pending[~ok]
        if not len(pending):
            return pts
    raise McError("start-point rejection sampling failed")


def _advance(walk, sqdt):
    """In place: walk[:, 0] holds start points and walk[:, 1:] normals; after
    the call walk[:, j] = fl(walk[:, j-1] + fl(sqdt * z_j)), the walk rule."""
    walk[:, 1:] *= sqdt
    np.cumsum(walk, axis=1, out=walk)


def _walk_pass(spec, gens, pos, n, sqdt):
    """Walk path r n steps from pos[r] with normals from gens[r]. Returns the
    step (1..n) at which each path first left D, 0 if it did not, and the
    end positions."""
    walk = np.empty((len(gens), n + 1, spec.dim))
    walk[:, 0] = pos
    for g, row in zip(gens, walk[:, 1:]):
        g.standard_normal(out=row)
    _advance(walk, sqdt)
    inside = spec.contains(walk[..., 0] if spec.dim == 1 else walk)[:, 1:]
    first = np.where(inside.all(axis=1), 0, inside.argmin(axis=1) + 1)
    return first, walk[:, -1].copy()  # a view would keep walk alive


def _run_chunk(cfg, lo, hi):
    """Simulate paths [lo, hi); returns their taus and the chunk's stats.

    All live paths of a chunk have taken the same number of steps, so one
    counter carries the step cap. A pass walks every live path n steps, in
    groups of rows that hold at most PASS_NORMALS normals: 0.5 MB of walk,
    generated, scaled, summed and tested while it is in a core's L2 cache.
    """
    spec = cfg.spec
    dim = spec.dim
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    count = hi - lo
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = cfg.seed % 2 ** 64
    keys[:, 1] = np.arange(lo, hi)
    gens = [np.random.Generator(np.random.Philox(key=k)) for k in keys]
    if cfg.x0 is None:
        pos = _start_points(spec, gens)
    else:
        pos = np.tile(cfg.x0, (count, 1))
    alive = np.arange(count)  # live paths' indices, their generators, positions
    live = gens
    out = np.full(count, np.nan)
    done = steps = drawn = passes = 0
    L = min(FIRST_PASS, BLOCK_STEPS)
    while live and done < STEP_CAP:
        k = len(live)
        n = min(L, STEP_CAP - done)
        rows = max(1, PASS_NORMALS // (n * dim))
        parts = [_walk_pass(spec, live[i:i + rows], pos[i:i + rows], n, sqdt)
                 for i in range(0, k, rows)]
        first = np.concatenate([f for f, _ in parts])
        exited = first > 0
        exit_step = done + first[exited]
        out[alive[exited]] = exit_step * dt
        steps += int(exit_step.sum())
        stay = ~exited
        alive = alive[stay]
        live = [g for g, s in zip(live, stay) if s]
        pos = np.concatenate([p for _, p in parts])[stay]
        done += n
        drawn += k * n * dim
        passes += 1
        L = min(2 * L, BLOCK_STEPS)
    steps += len(live) * done
    stats = {"normals_drawn": drawn, "steps": steps, "passes": passes,
             "step_cap_hits": len(live)}
    return out, stats


def simulate_exit_times(cfg: SimConfig, workers: int = 1):
    """One exit time per path; workers only schedules the work. The
    returned samples' stats are summed over the chunks in path order, and
    neither they nor the taus depend on workers.

    Chunks of CHUNK_PATHS paths run in-process when workers is 1 or there
    is one chunk, and otherwise on the forked parts the module docstring
    describes, which see the module's state as it is at the call, or
    in-process where _fork_context gives none. The first part to report an
    error raises it here, and no child outlives the call.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    spans = [(lo, min(lo + CHUNK_PATHS, cfg.paths))
             for lo in range(0, cfg.paths, CHUNK_PATHS)]
    procs = min(workers, len(spans))

    def exit_time_chunks(part):  # the name a dead child's error gives
        return [_run_chunk(cfg, lo, hi) for lo, hi in part]

    if procs == 1 or _fork_context() is None:
        results = exit_time_chunks(spans)
    else:
        from multiprocessing.connection import wait
        done = [None] * procs
        with contextlib.ExitStack() as stack:
            parts = {stack.enter_context(
                _beside(exit_time_chunks, spans[i::procs])): i
                for i in range(procs)}
            while parts:  # take results as they come, so any error is prompt
                for part in wait(list(parts)):
                    done[parts.pop(part)] = part()
        results = [done[j % procs][j // procs] for j in range(len(spans))]
    stats = Counter()
    for _, chunk_stats in results:
        stats.update(chunk_stats)
    return ExitSamples(cfg, np.concatenate([t for t, _ in results]), stats)


def _mean_se(values):
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((values - mean) ** 2) / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


def mc_moments(samples: ExitSamples, n_max: int) -> MomentSequence:
    """Moment estimates from exit samples.

    Uniform-start samples estimate the invariants A_n = vol * E[tau^n];
    fixed-start samples estimate E^{x0}[tau^n] (A_0 is then 1, not the
    volume). Variance of tau^n explodes with n, so n_max <= 4.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > 4:
        raise McError("n_max > 4: tau^n variance is uninformative")
    taus = samples.finite()
    if samples.excluded:
        raise McError(f"{samples.excluded} paths hit the step cap")
    scale = samples.cfg.spec.volume() if samples.cfg.x0 is None else 1.0
    A = [scale]
    se = [0.0]
    for n in range(1, n_max + 1):
        mean, s = _mean_se(taus ** n)
        if mean > 0 and s / mean > 0.2:
            raise McError(f"relative standard error {s/mean:.2f} > 20% "
                          f"for n={n}; need more paths")
        A.append(scale * mean)
        se.append(scale * s)
    return MomentSequence(A, "montecarlo", stderr=se)


def mc_survival(cfg: SimConfig, t: float, samples: ExitSamples) -> McEstimate:
    """P^{x0}(tau > t) with binomial standard error. A path cut by the step
    cap has survived past t when t < STEP_CAP * dt and counts as a
    survivor; at a later t, capped paths raise McError."""
    if not t > 0:                       # a NaN fails it too
        raise ValueError("t must be positive")
    if samples.excluded and not t < STEP_CAP * cfg.dt:
        raise McError(f"{samples.excluded} paths hit the step cap before "
                      f"t={t:g}; their survival is unknown")
    n = len(samples.taus)
    phat = float(np.count_nonzero(samples.finite() > t) + samples.excluded) / n
    se = math.sqrt(max(phat * (1.0 - phat), 0.0) / n)
    return McEstimate(phat, se, n, cfg.dt, f"survival(t={t:g})")


def mc_laplace(cfg: SimConfig, s: float, samples: ExitSamples) -> McEstimate:
    """E^{x0}[exp(-s tau)], the Laplace transform at s. A path cut by the
    step cap counts as 0 when exp(-s * STEP_CAP * dt) underflows to 0.0;
    otherwise capped paths raise McError."""
    if not s >= 0:                      # a NaN fails it too
        raise ValueError("s must be >= 0")
    if samples.excluded and math.exp(-s * STEP_CAP * cfg.dt) != 0.0:
        raise McError(f"{samples.excluded} paths hit the step cap; "
                      f"exp(-s tau) at s={s:g} is not 0 for them")
    vals = np.exp(-s * samples.finite())
    if samples.excluded:
        vals = np.concatenate([vals, np.zeros(samples.excluded)])
    mean, se = _mean_se(vals)
    return McEstimate(mean, se, len(vals), cfg.dt, f"laplace(s={s:g})")


def estimates_to_json(path, cfg: SimConfig, estimates):
    with open(path, "w") as fh:
        json.dump([e.to_dict(cfg) for e in estimates], fh, indent=2)
        fh.write("\n")
