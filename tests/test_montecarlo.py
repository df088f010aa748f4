import contextlib
import hashlib
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import time
import tracemalloc

import numpy as np
import pytest

import exitspec as es
import exitspec.montecarlo as mcmod


# first-order barrier correction: discrete walks overshoot the boundary by
# ~0.5826 sqrt(dt) per face, so exit stats follow the enlarged domain
SHIFT = 0.5826


def enlarged(dt):
    return 1.0 + 2 * SHIFT * math.sqrt(dt)


def nudged_square():
    sq = es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    return es.perturb_polygon(sq, (-1.0, 0.6, 1.0, -0.2), 0.07)


class UnknownDomain(es.DomainSpec):
    """A domain _start_points cannot sample; module-level, so it pickles
    into worker processes."""

    dim = 2


def taus_sha256(cfg):
    return hashlib.sha256(es.simulate_exit_times(cfg).taus.tobytes()).hexdigest()


class TestConfig:
    def test_validation(self):
        iv = es.Interval(0, 1)
        with pytest.raises(ValueError):
            es.SimConfig(iv, [1.5], 10, 1e-3, seed=1)  # start outside
        with pytest.raises(ValueError):
            es.SimConfig(iv, [0.5], 0, 1e-3, seed=1)
        with pytest.raises(ValueError):
            es.SimConfig(iv, [0.5], 10, 0.0, seed=1)
        for seed in (2 ** 64, -2 ** 63 - 1):
            with pytest.raises(ValueError):
                es.SimConfig(iv, [0.5], 10, 1e-3, seed=seed)
        cfg = es.SimConfig(iv, [0.5], 10, 1e-3, seed=1)
        for workers in (0, -2):
            with pytest.raises(ValueError, match="must be positive"):
                es.simulate_exit_times(cfg, workers=workers)

    @pytest.mark.parametrize("spec, x0", [
        (es.Rectangle(1, 1), [0.5, 0.5, 7]),
        (es.Interval(0, 1), [0.5, 0.5]),
    ], ids=["rectangle-3", "interval-2"])
    def test_x0_needs_dim_coordinates(self, spec, x0):
        # the interior test reads only the coordinates it knows, so it
        # cannot catch a start point of the wrong length
        with pytest.raises(ValueError, match=(
                rf"x0=.* needs spec.dim={spec.dim} coordinates")):
            es.SimConfig(spec, x0, 10, 1e-3, seed=1)

    @pytest.mark.parametrize("spec, x0", [
        (es.Interval(0, 1), [0.0]), (es.Interval(0, 1), [1.0]),
        (es.Interval(-0.71, 0.4), [-0.71]),
        (es.Rectangle(1, 2.5), [0.5, 0.0]), (es.Rectangle(1, 2.5), [0.0, 1.0]),
        (es.Rectangle(1, 2.5), [1.0, 2.0]), (es.Rectangle(1, 2.5), [0.3, 2.5]),
        (es.Rectangle(1, 2.5), [0.0, 0.0]),
        (es.Disk(5), [3.0, 4.0]), (es.Disk(5), [-4.0, 3.0]),
        (es.Disk(5), [0.0, -5.0]), (es.Disk(5), [5.0, 0.0]),
        (es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), [0.5, 0.0]),
        (es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), [0.0, 0.5]),
        (es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), [1.0, 0.5]),
        (es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), [0.5, 1.0]),
        (es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), [0.0, 0.0]),
        (es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), [1.0, 1.0]),
        (es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
         [1.5, 1.0]),
        (es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
         [1.0, 1.5]),
        (es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
         [1.0, 1.0]),
        (es.Polygon([(0, 0), (4, 0), (0, 4)]), [2.0, 2.0]),
    ], ids=["interval-a", "interval-b", "interval-negative-a",
            "rectangle-bottom", "rectangle-left", "rectangle-right",
            "rectangle-top", "rectangle-corner",
            "circle-3-4", "circle-minus-4-3", "circle-bottom", "circle-right",
            "square-bottom", "square-left", "square-right", "square-top",
            "square-vertex-0-0", "square-vertex-1-1", "L-notch-bottom",
            "L-notch-side", "L-notch-vertex", "triangle-slanted-edge"])
    def test_x0_on_the_boundary_rejected(self, spec, x0):
        # the interior test alone may read a point of a polygon's edge
        # either way; a distance of 0 marks it
        with pytest.raises(ValueError, match="is not strictly interior"):
            es.SimConfig(spec, x0, 10, 1e-3, seed=1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_rejected(self, dt):
        # a NaN dt would walk every path to STEP_CAP, and sqrt(inf) makes
        # every first step land outside D
        with pytest.raises(ValueError, match="finite"):
            es.SimConfig(es.Interval(0, 1), [0.5], 4, dt, seed=1)

    def test_describe_names_the_stream_rule(self):
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 10, 1e-3, seed=9)
        text = json.dumps(cfg.describe())
        assert "philox" in text
        assert "path_index" in text


class TestDeterminism:
    def test_schedule_invariance(self, monkeypatch, mc_interval_small):
        """Identical draws no matter how the work is sliced: per-path
        streams make the estimate a pure function of (seed, paths, dt)."""
        cfg, base = mc_interval_small
        for workers, bs, cp in [(1, 128, 64), (3, 256, 37), (4, 977, 499)]:
            monkeypatch.setattr(mcmod, "BLOCK_STEPS", bs)
            monkeypatch.setattr(mcmod, "CHUNK_PATHS", cp)
            again = es.simulate_exit_times(cfg, workers=workers)
            assert np.array_equal(base.taus, again.taus)
        # uniform starts on a polygon: batched start-point rejection too
        monkeypatch.undo()
        cfg = es.SimConfig(nudged_square(), None, 64, 1e-3, seed=8)
        base = es.simulate_exit_times(cfg).taus
        assert np.isfinite(base).all()
        for workers in (1, 2, 3):
            for bs in (1, 64, 4096):
                for cp in (1, 37, 1024):
                    monkeypatch.setattr(mcmod, "BLOCK_STEPS", bs)
                    monkeypatch.setattr(mcmod, "CHUNK_PATHS", cp)
                    again = es.simulate_exit_times(cfg, workers=workers)
                    assert np.array_equal(base, again.taus), (workers, bs, cp)

    def test_without_fork_chunks_run_in_process(self, monkeypatch,
                                                mc_interval_small):
        """Where the platform cannot fork, workers > 1 opens no pool and
        gives the same bits."""
        import multiprocessing

        def no_pool(method):
            raise AssertionError(f"asked for a {method} context")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 64)
        cfg, base = mc_interval_small
        again = es.simulate_exit_times(cfg, workers=2)
        assert np.array_equal(base.taus, again.taus)

    def test_on_one_cpu_chunks_run_in_process(self, monkeypatch,
                                              mc_interval_small):
        """Where the process may run on one CPU only, workers > 1 opens no
        pool either, and gives the same bits."""
        import multiprocessing

        def no_pool(method):
            raise AssertionError(f"asked for a {method} context")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 64)
        cfg, base = mc_interval_small
        again = es.simulate_exit_times(cfg, workers=2)
        assert np.array_equal(base.taus, again.taus)

    def test_pinned_bits(self):
        """The exit times of two configurations, pinned by hash: the walk
        rule, the stream consumption and the start-point rejection may be
        rescheduled but never change a bit."""
        fixed = es.SimConfig(es.Interval(0, 1), [0.5], 300, 1e-3, seed=5)
        uniform = es.SimConfig(nudged_square(), None, 300, 1e-3, seed=5)
        assert taus_sha256(fixed) == (
            "82f6eafb45d82a1aee9de12cb328707b521fc329b02070840c4792a9fa59931f")
        assert taus_sha256(uniform) == (
            "bfd0af30f13fce19afe541cd63b0c84de057b1bb991173b845f1363e89a259e4")

    @pytest.mark.parametrize("spec, want", [
        (es.Interval(0.25, 1.5),
         "799825f549c45a44b69af018c2b3a931a2fa0e3b994c2d4c0cb1cdadeaa083e6"),
        (es.Rectangle(1, 2.5),
         "5ab9795c4f857fab95560bbf022db91a966afb6c0503c2f7041799906f398b64"),
        (es.Disk(0.7),
         "26a9931f942eec2268a13735c538f49df8dd095e535b239c0a3d9c7e5606dabd"),
    ])
    def test_pinned_bits_uniform_starts(self, spec, want):
        """Uniform-start exit times on the separable domains, pinned by
        hash: how the start points are drawn and judged may change, the
        draws each path consumes and the bits they give may not."""
        assert taus_sha256(es.SimConfig(spec, None, 300, 1e-3, seed=5)) == want

    def test_seed_key_is_taken_mod_2_64(self):
        """Seed -1 keys its streams with 2^64 - 1, so both seeds give the
        same taus, pinned by hash."""
        iv = es.Interval(0, 1)
        for seed in (-1, 2 ** 64 - 1):
            cfg = es.SimConfig(iv, [0.5], 50, 1e-3, seed=seed)
            assert taus_sha256(cfg) == (
                "ee3161e449cc48afb5d2c28c5bb6bc09709cda2feab7b7a8095dbf44f1974886")

    def test_walk_split_invariance(self):
        """A 1000-step walk advanced in pieces, carrying the last position,
        equals the walk advanced at once and the step-by-step rule
        x_j = x_{j-1} + sqrt(dt) z_j, bit for bit."""
        rng = np.random.default_rng(17)
        sqdt = math.sqrt(1e-4)
        z = rng.standard_normal((3, 1000, 2))
        x0 = rng.random((3, 2))
        whole = np.concatenate([x0[:, None], z], axis=1)
        mcmod._advance(whole, sqdt)
        ref = np.empty_like(whole)
        ref[:, 0] = x0
        for j in range(1000):
            ref[:, j + 1] = ref[:, j] + sqdt * z[:, j]
        assert np.array_equal(whole, ref)
        for cuts in ([1, 2, 999], [7, 500, 501, 993], [333, 666]):
            pos, pieces = x0, []
            for a, b in zip([0] + cuts, cuts + [1000]):
                walk = np.concatenate([pos[:, None], z[:, a:b]], axis=1)
                mcmod._advance(walk, sqdt)
                pieces.append(walk[:, 1:])
                pos = walk[:, -1]
            assert np.array_equal(np.concatenate(pieces, axis=1), whole[:, 1:])

    @pytest.mark.parametrize("fixed", [True, False],
                             ids=["interval_x0_half", "c8_square_uniform"])
    def test_pass_group_size_invariance(self, monkeypatch, mc_interval_small,
                                        fixed):
        """Groups of 1, 2^10, 2^16 and 2^19 normals per pass give the same
        taus and the same counts of normals, steps and passes; the smaller
        the groups, the more of them a run walks."""
        if fixed:
            cfg = mc_interval_small[0]
        else:
            cfg = es.SimConfig(nudged_square(), None, 300, 1e-4, seed=9)
        walk_pass = mcmod._walk_pass
        runs, calls = [], []
        for normals in (1, 2 ** 10, 2 ** 16, 2 ** 19):
            count = [0]

            def counted(*args):
                count[0] += 1
                return walk_pass(*args)

            monkeypatch.setattr(mcmod, "PASS_NORMALS", normals)
            monkeypatch.setattr(mcmod, "_walk_pass", counted)
            runs.append(es.simulate_exit_times(cfg))
            calls.append(count[0])
        assert np.isfinite(runs[0].taus).all()
        for s in runs[1:]:
            assert np.array_equal(s.taus, runs[0].taus)
            for key in ("normals_drawn", "steps", "passes"):
                assert s.stats[key] == runs[0].stats[key], key
        assert calls == sorted(calls, reverse=True)
        assert len(set(calls)) == len(calls), calls

    def test_seed_sensitivity(self, mc_interval_small):
        cfg, base = mc_interval_small
        other = es.SimConfig(cfg.spec, [0.5], cfg.paths, cfg.dt,
                             seed=cfg.seed + 1)
        assert not np.array_equal(base.taus,
                                  es.simulate_exit_times(other).taus)

    def test_prefix_property(self, mc_interval_small):
        # first k paths of a longer run equal a shorter run exactly
        cfg, base = mc_interval_small
        small = es.SimConfig(cfg.spec, [0.5], 100, cfg.dt, seed=cfg.seed)
        taus = es.simulate_exit_times(small).taus
        assert np.array_equal(taus, base.taus[:100])


def two_cpus(monkeypatch):
    """Let simulate_exit_times fork its parts even where this process is
    pinned to one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


RUN_CHUNK = mcmod._run_chunk


# stand-ins for _run_chunk on chunks of 4 paths; module-level, so that they
# serve a runner that pickles its tasks as well as one that forks them
def dies_at_chunk_1(cfg, lo, hi):
    if lo == 4:
        os._exit(3)
    return RUN_CHUNK(cfg, lo, hi)


def raises_at_0_sleeps_at_1(cfg, lo, hi):
    if lo == 0:
        raise es.McError("chunk 0 failed")
    time.sleep(60)


def sleeps_at_0_raises_at_1(cfg, lo, hi):
    if lo == 4:
        raise es.McError("chunk 1 failed")
    time.sleep(60)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
class TestForkedParts:
    """With workers > 1, chunk i runs on the child forked for part
    i mod procs; the parent walks none, and no child outlives the call."""

    def test_chunks_are_dealt_round_robin(self, tmp_path, monkeypatch,
                                          mc_interval_small):
        cfg, base = mc_interval_small
        two_cpus(monkeypatch)
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 64)
        log = tmp_path / "chunks"

        def spy(cfg, lo, hi):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {lo}\n")
            return RUN_CHUNK(cfg, lo, hi)

        monkeypatch.setattr(mcmod, "_run_chunk", spy)
        again = es.simulate_exit_times(cfg, workers=2)
        assert np.array_equal(base.taus, again.taus)
        assert multiprocessing.active_children() == []
        parts = {}
        for pid, lo in map(str.split, log.read_text().splitlines()):
            parts.setdefault(int(pid), []).append(int(lo))
        assert os.getpid() not in parts
        assert sorted(parts.values()) == [[0, 128, 256, 384],
                                          [64, 192, 320, 448]]

    def test_no_more_parts_than_chunks(self, monkeypatch):
        """However many workers are asked for, one part is made per chunk
        at most: 3000 paths on 64 workers make three parts, and 1000 paths
        one chunk, run in-process. A stand-in for _beside counts the parts
        and runs them in-process, so no process is started."""
        two_cpus(monkeypatch)
        made = []

        @contextlib.contextmanager
        def counting_beside(fn, *args):
            made.append(args[0])
            value = fn(*args)
            result = lambda: value  # noqa: E731
            result.fileno = lambda: 0
            yield result

        monkeypatch.setattr(mcmod, "_beside", counting_beside)
        monkeypatch.setattr(multiprocessing.connection, "wait",
                            lambda parts: parts)
        for paths, parts in ((3000, [[(0, 1024)], [(1024, 2048)],
                                     [(2048, 3000)]]), (1000, [])):
            made.clear()
            cfg = es.SimConfig(es.Interval(0, 1), [0.5], paths, 1e-3, seed=2)
            samples = es.simulate_exit_times(cfg, workers=64)
            assert made == parts
            assert np.array_equal(samples.taus,
                                  es.simulate_exit_times(cfg).taus)

    def test_child_that_dies_is_an_error(self, monkeypatch):
        """A part whose child exits before sending its chunks raises
        ChildProcessError, naming the work and the exit code."""
        two_cpus(monkeypatch)
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 4)
        monkeypatch.setattr(mcmod, "_run_chunk", dies_at_chunk_1)
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 8, 1e-3, seed=1)
        with pytest.raises(ChildProcessError, match=(
                r"^exit_time_chunks exited with code 3 on its forked "
                r"process before sending a result$")):
            es.simulate_exit_times(cfg, workers=2)
        assert multiprocessing.active_children() == []

    def test_error_ends_the_children_at_once(self, monkeypatch):
        """Chunk 0 raises while chunk 1 sleeps: the error is raised without
        waiting for chunk 1, whose child is ended."""
        two_cpus(monkeypatch)
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 4)
        monkeypatch.setattr(mcmod, "_run_chunk", raises_at_0_sleeps_at_1)
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 8, 1e-3, seed=1)
        t = time.perf_counter()
        with pytest.raises(es.McError, match="chunk 0 failed"):
            es.simulate_exit_times(cfg, workers=2)
        assert time.perf_counter() - t < 30
        assert multiprocessing.active_children() == []

    def test_error_in_a_later_part_ends_the_children_at_once(self,
                                                             monkeypatch):
        """Chunk 1 raises while chunk 0 sleeps: the parts' results are
        taken as they arrive, so the error does not wait for chunk 0,
        whose child is ended."""
        two_cpus(monkeypatch)
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 4)
        monkeypatch.setattr(mcmod, "_run_chunk", sleeps_at_0_raises_at_1)
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 8, 1e-3, seed=1)
        t = time.perf_counter()
        with pytest.raises(es.McError, match="chunk 1 failed"):
            es.simulate_exit_times(cfg, workers=2)
        assert time.perf_counter() - t < 30
        assert multiprocessing.active_children() == []


class TestSamples:
    def test_all_paths_exit(self, mc_interval_small):
        _, samples = mc_interval_small
        assert np.isfinite(samples.taus).all()
        assert len(samples.finite()) == 500
        assert samples.taus.min() > 0

    def test_step_cap_marks_nan(self, monkeypatch):
        monkeypatch.setattr(mcmod, "STEP_CAP", 16)
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 32, 1e-6, seed=3)
        s = es.simulate_exit_times(cfg)
        assert np.isnan(s.taus).any()
        with pytest.raises(es.McError):
            es.mc_moments(s, 1)

    def test_fully_capped_samples_raise_mc_error(self, monkeypatch):
        # no path exits, so no estimator has a sample to average over
        monkeypatch.setattr(mcmod, "STEP_CAP", 4)
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 8, 1e-6, seed=3)
        s = es.simulate_exit_times(cfg)
        assert s.excluded == 8
        for estimate in (lambda: es.mc_survival(cfg, 0.1, samples=s),
                         lambda: es.mc_laplace(cfg, 1.0, samples=s),
                         lambda: es.mc_moments(s, 1)):
            with pytest.raises(es.McError, match="8 paths hit the step cap"):
                estimate()

    def test_capped_paths_count_in_survival_and_laplace(self, monkeypatch):
        """A capped path has not exited after STEP_CAP * dt = 0.16: it is a
        survivor at t = 0.1 and exp(-s tau) is 0 for it once
        exp(-s * 0.16) underflows. Where its value is unknown, it raises.
        The patched cap reaches forked workers too."""
        monkeypatch.setattr(mcmod, "STEP_CAP", 16)
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 8)
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 32, 1e-2, seed=3)
        for workers in (1, 2):
            s = es.simulate_exit_times(cfg, workers=workers)
            assert s.excluded == 23
            est = es.mc_survival(cfg, 0.1, samples=s)
            assert est.paths == 32
            assert est.value == (np.count_nonzero(s.finite() > 0.1) + 23) / 32
            assert est.value == pytest.approx(0.906, abs=1e-3)
            with pytest.raises(es.McError, match="23 paths hit the step cap"):
                es.mc_survival(cfg, 0.16, samples=s)
            with pytest.raises(es.McError, match="23 paths hit the step cap"):
                es.mc_laplace(cfg, 1.0, samples=s)
            est = es.mc_laplace(cfg, 1e4, samples=s)
            assert est.paths == 32
            assert est.value == math.fsum(np.exp(-1e4 * s.finite())) / 32

    def test_step_cap_independent_of_blocks(self, monkeypatch):
        """A path is NaN exactly when it has not exited within STEP_CAP
        steps, however the passes are sized, on forked workers as well."""
        monkeypatch.setattr(mcmod, "STEP_CAP", 16)
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 32, 1e-2, seed=3)
        runs = []
        for workers, cp in ((1, 1024), (2, 8)):
            for bs in (8, 64, 4096):
                monkeypatch.setattr(mcmod, "BLOCK_STEPS", bs)
                monkeypatch.setattr(mcmod, "CHUNK_PATHS", cp)
                runs.append(es.simulate_exit_times(cfg, workers=workers))
        for s in runs:
            assert np.array_equal(s.taus, runs[0].taus, equal_nan=True)
            assert s.stats["step_cap_hits"] == s.excluded
        assert 0 < runs[0].excluded < 32
        assert np.all(runs[0].finite() <= 16 * cfg.dt)

    def test_stats_count_the_walk(self, monkeypatch):
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 128)
        cfg = es.SimConfig(nudged_square(), None, 300, 1e-3, seed=6)
        s = es.simulate_exit_times(cfg)
        st = s.stats
        assert set(st) == {"normals_drawn", "steps", "passes", "step_cap_hits"}
        assert st["step_cap_hits"] == s.excluded == 0
        assert st["steps"] == int(np.rint(s.finite() / cfg.dt).sum())
        assert st["normals_drawn"] >= cfg.spec.dim * st["steps"]
        assert st["passes"] >= 3  # at least one per chunk
        for workers in (2, 3):
            again = es.simulate_exit_times(cfg, workers=workers)
            assert again.stats == st

    def test_walk_memory_stays_in_cache_sized_groups(self):
        """An in-process walk of 256 paths from x0 = 1/2 at dt = 1e-5 holds
        one group of at most PASS_NORMALS normals at a time. After a first
        run has paid the one-time allocations, its traced allocations peak
        at 0.87 MiB, 0.5 of them one group's walk; groups of 2^19 normals
        (4 MB walks) peaked at 5.18 MiB."""
        es.simulate_exit_times(es.SimConfig(es.Interval(0, 1), [0.5], 4,
                                            1e-3, seed=1))
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 256, 1e-5, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            es.simulate_exit_times(cfg, workers=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"

    def test_worker_error_reaches_caller(self, monkeypatch):
        """A chunk that raises in a worker process raises the same McError,
        with its message, in the caller."""
        monkeypatch.setattr(mcmod, "CHUNK_PATHS", 4)
        cfg = es.SimConfig(UnknownDomain(), None, 64, 1e-3, seed=1)
        with pytest.raises(es.McError, match="unsupported domain"):
            es.simulate_exit_times(cfg, workers=2)

    def test_csv_round_trip(self, tmp_path, mc_interval_small):
        _, samples = mc_interval_small
        path = tmp_path / "taus.csv"
        samples.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "path_index,tau"
        assert len(rows) == 501
        got = [float(r.split(",")[1]) for r in rows[1:]]
        assert got == pytest.approx(samples.taus.tolist(), rel=1e-16)


class TestEstimates:
    def test_center_mean_matches_barrier_theory(self):
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 4000, 1e-3, seed=5)
        s = es.simulate_exit_times(cfg)
        ms = es.mc_moments(s, 2)
        L = enlarged(cfg.dt)
        predicted = (L / 2) ** 2  # x(L-x) at the enlarged midpoint
        assert ms.provenance == "montecarlo"
        assert ms.A[1] == pytest.approx(predicted, abs=5 * ms.stderr[1])
        # crude check that stderr is honest: exact mean inside 5 sigma + bias
        assert abs(ms.A[1] - 0.25) < 5 * ms.stderr[1] + (predicted - 0.25)

    def test_uniform_start_scales_by_volume(self):
        cfg = es.SimConfig(es.Interval(0, 1), None, 4000, 1e-3, seed=5)
        ms = es.mc_moments(es.simulate_exit_times(cfg), 1)
        predicted = enlarged(cfg.dt) ** 3 / 6  # A_1 of the enlarged interval
        assert ms.A[1] == pytest.approx(predicted, abs=5 * ms.stderr[1])

    def test_moment_order_capped(self, mc_interval_small):
        _, samples = mc_interval_small
        with pytest.raises(es.McError):
            es.mc_moments(samples, 5)

    def test_negative_moment_order_rejected(self, mc_interval_small):
        _, samples = mc_interval_small
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            es.mc_moments(samples, -1)
        assert list(es.mc_moments(samples, 0).A) == [1.0]

    def test_survival_and_laplace(self):
        cfg = es.SimConfig(es.Interval(0, 1), [0.5], 4000, 1e-3, seed=5)
        s = es.simulate_exit_times(cfg)
        L = enlarged(cfg.dt)

        t = 0.125
        surv = es.mc_survival(cfg, t, samples=s)
        want = sum(4 / (k * math.pi) * math.sin(k * math.pi / 2) *
                   math.exp(-(k * math.pi / L) ** 2 * t / 2)
                   for k in range(1, 99, 2))
        assert surv.value == pytest.approx(want, abs=5 * surv.stderr)
        assert 0 < surv.stderr < 0.02

        lap = es.mc_laplace(cfg, 1.0, samples=s)
        r = math.sqrt(2.0)
        assert lap.value == pytest.approx(1 / math.cosh(r * L / 2),
                                          abs=5 * lap.stderr)

    def test_estimate_reuses_samples(self, mc_interval_small):
        cfg, s = mc_interval_small
        a = es.mc_survival(cfg, 0.1, samples=s)
        b = es.mc_survival(cfg, 0.1, samples=s)
        assert a.value == b.value and a.stderr == b.stderr

    def test_disk_mean_exit_time(self):
        # E[tau] from the center is R^2 / 2 for the half-Laplacian generator
        cfg = es.SimConfig(es.Disk(1.0), [0.0, 0.0], 1500, 1e-3, seed=11)
        ms = es.mc_moments(es.simulate_exit_times(cfg), 1)
        # one boundary face, so the radius grows by a single shift
        predicted = ((1 + SHIFT * math.sqrt(cfg.dt)) ** 2) / 2
        assert ms.A[1] == pytest.approx(predicted, abs=5 * ms.stderr[1])

    def test_polygon_square_matches_rectangle(self):
        sq = es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        rect = es.Rectangle(1, 1)
        taus = []
        for spec in (sq, rect):
            cfg = es.SimConfig(spec, [0.5, 0.5], 400, 1e-3, seed=21)
            taus.append(es.simulate_exit_times(cfg).taus)
        # identical geometry and identical streams: identical walks
        assert np.array_equal(taus[0], taus[1])

    def test_estimates_to_json(self, tmp_path, mc_interval_small):
        cfg, s = mc_interval_small
        est = es.mc_survival(cfg, 0.1, samples=s)
        path = tmp_path / "est.json"
        mcmod.estimates_to_json(path, cfg, [est])
        data = json.loads(path.read_text())
        text = json.dumps(data)
        assert "philox" in text
        assert any(abs(float(e.get("value", 0)) - est.value) < 1e-15
                   for e in (data["estimates"] if isinstance(data, dict)
                             else data))
