"""exitspec benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload pipeline-2d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Set-up (imports, seeded inputs, reference values) is timed first and
repeated, then rounds of the workload run back to back until ``--seconds``
have passed (at least MIN_ROUNDS rounds), then the correctness gates run on
the outputs. Set-up, round and task times are normalized to a reference
host speed (see ``HostSpeed``). The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
attempted and failed count correctness gates. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the package's public functions in
spans, reports the per-layer metrics, and writes the spans to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# Pin BLAS before numpy loads: the only parallelism is the Monte Carlo
# worker threads, so a run never uses more threads than cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402 - after the BLAS pin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("pipeline-2d", "inversion-sweep", "montecarlo")
# a fresh interpreter times its import of the package, then normalizes it
# by calibration samples of its own (HostSpeed, imported from this file)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import exitspec.cli; "
                "t = time.perf_counter() - t; from run import HostSpeed; "
                "h = HostSpeed(); print(t * h.factor(h.mark(5)))")
SETUP_REPEATS = 5


def environment():
    """Hardware and library versions recorded next to each result."""
    import numpy
    import scipy
    env = {"cpu": platform.processor() or platform.machine(),
           "nproc": os.cpu_count(), "llc": None,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS)}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for d in os.listdir(cache):
            if d.startswith("index"):
                with open(os.path.join(cache, d, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(cache, d, "size")) as fh:
                    levels.append((level, fh.read().strip()))
        env["llc"] = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    try:
        env["blas"] = numpy.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return env


class HostSpeed:
    """How fast the host runs this process, from a fixed calibration kernel.

    The benchmark's host shares its cores with other guests, and the same
    round runs up to half again as long for seconds or minutes at a time.
    The kernel below does a fixed amount of the two kinds of work the
    workloads do, Python float arithmetic and small dense numpy linear
    algebra, and uses nothing from exitspec. It is timed before and after
    each set-up and each round, and between the workload's calls at most
    every SAMPLE_EVERY_S, outside their timing. ``factor`` is REFERENCE_S
    over the kernel's median time since a mark; a time measured in that
    stretch, multiplied by it, reads as it would at the reference speed,
    while a change to exitspec moves it as it moves the raw time.
    """

    # the kernel's median time on a 2-core Intel Xeon KVM guest
    REFERENCE_S = 1.9e-3
    SAMPLE_EVERY_S = 0.02

    def __init__(self):
        self.samples = []
        self.spent = 0.0      # seconds spent in the kernel so far
        self._last = -math.inf
        self._matrix = np.random.default_rng(0).random((24, 24))

    def _kernel(self):
        s = 0.0
        for i in range(3000):
            s += (i * 1.000001) / (i + 1.5)
        for _ in range(20):
            np.linalg.svd(self._matrix, compute_uv=False)
        return s

    def sample(self, force=False):
        t = time.perf_counter()
        if force or t - self._last >= self.SAMPLE_EVERY_S:
            self._kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t)
            self.spent += self._last - t

    def mark(self, n=3):
        """Start a stretch to normalize: n samples, returns the mark."""
        start = len(self.samples)
        for _ in range(n):
            self.sample(force=True)
        return start

    def factor(self, mark):
        return self.REFERENCE_S / statistics.median(self.samples[mark:])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "exitspec", "__init__.py")):
        print(f"error: no exitspec sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import exitspec
    import workloads
    from tracing import Tracer, per_layer_metrics

    host = HostSpeed()
    imports = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE])))
        imports.append(float(probe.stdout.split()[-1]))

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=ROOT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        setups = []
        # each set-up normalized by calibration samples just before and after
        for _ in range(SETUP_REPEATS):
            mark = host.mark()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            host.mark()
            setups[-1] *= host.factor(mark)

        errors = (exitspec.SolverError, exitspec.InversionError,
                  exitspec.McError, exitspec.GeometryError)
        task_times = []
        task_errors = []

        def run_task(name, fn, task):
            t = time.perf_counter()
            try:
                return fn()
            except errors as exc:
                task_errors.append(f"{name}: {type(exc).__name__}: {exc}")
                return None
            finally:
                if task:
                    task_times.append(time.perf_counter() - t)

        tracer = None
        if args.trace:
            reference = wl.run_round(0, lambda n, fn, task=True: run_task(
                n, fn, False))
            tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")

            def call(name, fn, task=True):
                host.sample()
                return tracer.call(name, lambda: run_task(name, fn, task))
            tracer.install()
        else:
            def call(name, fn, task=True):
                host.sample()
                return run_task(name, fn, task)

        # raw round times, and each round's time and task times normalized
        # by the calibration samples taken before, in and after it
        rounds, raw_times, round_times, round_tasks = [], [], [], []
        start = time.perf_counter()
        while (len(rounds) < wl.MIN_ROUNDS
               or time.perf_counter() - start < args.seconds):
            gc.collect()
            mark = host.mark()
            first_task = len(task_times)
            spent, t = host.spent, time.perf_counter()
            rounds.append(wl.run_round(len(rounds), call))
            raw_times.append(time.perf_counter() - t - (host.spent - spent))
            host.mark()
            f = host.factor(mark)
            round_times.append(raw_times[-1] * f)
            round_tasks.append([x * f for x in task_times[first_task:]])
        if tracer:
            tracer.uninstall()

        checks = wl.checks(rounds)
        more, scaling = wl.after(rounds, bool(args.trace))
        checks += more
        if tracer:
            checks.append(workloads.Check("trace.outputs_identical",
                                          wl.same(reference, rounds[0])))

    # each task's median over the rounds, matched by its place in a round:
    # the latency quantiles are over the workload's tasks, not over the
    # host's moments
    task_medians = [statistics.median(ts) for ts in zip(*round_tasks)]
    failed = [c for c in checks if not c.ok]
    errs = [c.err for c in checks if c.err is not None]
    for msg in task_errors:
        print(f"task error: {msg}")
    for c in failed:
        tag = "known baseline failure" if c.known else "FAILED"
        print(f"check {tag}: {c.name} {c.note}".rstrip())
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print("computed counts " + json.dumps(wl.counts, sort_keys=True))
    print(f"host speed: calibration kernel median "
          f"{statistics.median(host.samples) * 1e3:.4g} ms over "
          f"{len(host.samples)} samples; median round "
          f"{statistics.median(raw_times):.4g} s raw, "
          f"{statistics.median(round_times):.4g} s reported")
    print(f"rounds {len(rounds)}, tasks per round {len(task_medians)}, "
          f"checks {len(checks)} ({len(failed)} failed, failed_frac "
          f"{len(failed) / len(checks):.4g})")

    if args.trace:
        metrics = per_layer_metrics(tracer.spans, len(rounds), scaling)
        top = [s for s in tracer.spans if s["parent"] is None]
        metrics["trace.wall_s"] = statistics.median(round_times)
        metrics["trace.coverage"] = math.fsum(
            s["end"] - s["start"] for s in top) / math.fsum(raw_times)
        out = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"run_id": tracer.run_id, "env": env,
                       "computed_counts": wl.counts, "spans": tracer.spans},
                      fh)
        print(f"spans: {len(tracer.spans)} written to {path}")
    else:
        p50, p90 = np.percentile(task_medians, [50, 90]) * 1e3
        metrics = {
            "wall_s": statistics.median(round_times),
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # no reference error at all (every task raised): no digits
            "accuracy_digits":
                -math.log10(max(max(errs), 1e-17)) if errs else 0.0,
            "task_p50_ms": float(p50),
            "task_p90_ms": float(p90),
        }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": all(c.ok or c.known for c in checks) and not task_errors,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    for k, v in result["metrics"].items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
