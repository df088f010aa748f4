import math
import warnings

import numpy as np
import pytest

import exitspec as es

import oracles


@pytest.fixture(scope="module")
def interval_sd():
    return es.analytic_spectrum(es.Interval(0, 1), 60)


class TestZeta:
    def test_identity_against_exact_moments(self, interval_sd):
        # Gamma(N) zeta(N) = A_N / N with both sides from closed forms
        ms = es.analytic_moments(es.Interval(0, 1), 6)
        rep = es.verify_identities(ms, interval_sd, 6)
        assert rep["max_rel_err"] < 1e-5
        # deeper moments weight small x harder, so truncation bites less
        rels = [r["rel_err"] for r in rep["rows"]]
        assert rels[-1] < rels[0]

    def test_zeta_values(self, interval_sd):
        # zeta(1) = sum 8/(k pi)^2 * (2/(k pi)^2)^... collapses to A_1
        assert es.zeta(interval_sd, 1.0) == pytest.approx(1 / 6, rel=1e-4)

    def test_tail_bound_dominates_truncation(self, interval_sd):
        small = es.analytic_spectrum(es.Interval(0, 1), 10)
        for s in (1.0, 1.5, 2.0):
            tail = es.zeta_tail_bound(small, s)
            true_tail = es.zeta(interval_sd, s) - es.zeta(small, s)
            assert 0 <= true_tail <= tail

    def test_identity_requires_enough_moments(self, interval_sd):
        ms = es.analytic_moments(es.Interval(0, 1), 3)
        with pytest.raises(ValueError):
            es.verify_identities(ms, interval_sd, 6)


class TestHeatContent:
    @pytest.mark.parametrize("times", [[math.nan, 1.0], [0.5, math.nan],
                                       [0.5, math.inf]])
    def test_curve_rejects_non_finite_times(self, times):
        """A NaN time fails both ordering tests, so it is caught apart."""
        with pytest.raises(ValueError, match="times must be finite"):
            es.HeatContentCurve(times, [1.0, 0.5], "timestep")

    def test_spectral_sum_matches_series(self, interval_sd):
        # direct series for q(t) = sum a^2 exp(-lam t / 2)
        for t in (0.05, 0.2, 1.0):
            want = sum(8 / (k * math.pi) ** 2 *
                       math.exp(-(k * math.pi) ** 2 * t / 2)
                       for k in range(1, 199, 2))
            got = es.heat_content_spectral(interval_sd, [t]).q[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_short_time_recovers_volume(self, interval_sd):
        big = es.analytic_spectrum(es.Interval(0, 1), 1200)
        q0 = es.heat_content_spectral(big, [1e-6]).q[0]
        assert q0 == pytest.approx(1.0, abs=5e-3)

    def test_timestep_matches_spectral(self, interval_sd):
        g = es.build_grid(es.Interval(0, 1), 1 / 128)
        times = np.linspace(0.05, 0.8, 16)
        num = es.heat_content_timestep(g, times, dt=1e-3)
        ref = es.heat_content_spectral(interval_sd, times)
        assert np.abs(np.asarray(num.q) - np.asarray(ref.q)).max() < 2e-3

    def test_timestep_final_sample_recorded(self, interval_sd):
        # the stepper's accumulated time can stop a few ulp short of the
        # last sample; that sample must still be filled, not left at the
        # array's uninitialized value (this combination once triggered it)
        g = es.build_grid(es.Interval(0, 1), 1 / 64)
        times = np.geomspace(1e-4, 0.05, 40)
        num = es.heat_content_timestep(g, times, dt=1e-4 / 16)
        ref = es.heat_content_spectral(interval_sd, times)
        # early samples carry O(h) boundary-layer error at this h; the
        # regression target is the tail, where a missed sample shows up
        # as a wild value instead of ~q(t_max)
        assert np.all(np.asarray(num.q) > 0)
        tail = np.abs(np.asarray(num.q)[-5:] - np.asarray(ref.q)[-5:])
        assert tail.max() < 2e-3

    @pytest.mark.parametrize("shape", ["interval", "square"])
    def test_timestep_dilation_covariance(self, shape):
        # dilating by c = 2^k scales the grid, the times and dt exactly, so
        # q(t)/c^d must follow the unit-scale curve; an absolute time slack
        # ends the stepping hundreds of steps early at small c
        def curve(c):
            spec = es.Interval(0, c) if shape == "interval" else es.Rectangle(c, c)
            g = es.build_grid(spec, c / 64)
            times = c * c * np.linspace(0.01, 0.1, 5)
            q = es.heat_content_timestep(g, times, dt=c * c * 1e-3).q
            return np.asarray(q) / c ** spec.dim

        ref = curve(1.0)
        worst = max(np.abs(curve(2.0 ** k) / ref - 1.0).max()
                    for k in range(-20, 21))
        assert worst <= 1e-14

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_timestep_rejects_non_finite_dt(self, dt):
        # NaN would reach SuperLU as a singular factor, inf would step
        # silently with sigma = 0
        g = es.build_grid(es.Rectangle(1, 1), 1 / 16)
        with pytest.raises(ValueError, match="finite"):
            es.heat_content_timestep(g, [0.1, 0.2], dt=dt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_timestep_rejects_non_finite_times(self, bad):
        # a NaN or inf last time would end the stepping at once and leave
        # the other samples unset
        g = es.build_grid(es.Rectangle(1, 1), 1 / 16)
        with pytest.raises(ValueError, match="finite"):
            es.heat_content_timestep(g, [0.1, bad], dt=1e-3)

    def test_timestep_rejects_empty_times(self):
        g = es.build_grid(es.Rectangle(1, 1), 1 / 16)
        with pytest.raises(ValueError, match="times must not be empty"):
            es.heat_content_timestep(g, [], dt=1e-3)
        # a curve may still be empty: restrict returns one for a window
        # that holds no sample
        window = es.HeatContentCurve([0.1], [0.5], "timestep").restrict(1, 2)
        assert len(window) == 0

    def test_timestep_monotone_decay(self):
        g = es.build_grid(es.Rectangle(1, 1), 1 / 32)
        times = np.linspace(0.02, 0.4, 12)
        curve = es.heat_content_timestep(g, times, dt=1e-3)
        q = np.asarray(curve.q)
        assert np.all(np.diff(q) < 0)
        assert q[0] < math.fsum(g.weights)

    @pytest.mark.parametrize("case", ["interval", "square", "c8_square",
                                      "radial_disk", "final_sample"])
    def test_timestep_matches_step_by_step_oracle(self, case):
        # the half-length trajectory must give the numbers of the plain
        # step-by-step scheme, including which steps each sample sits between
        square = es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        grid, times, dt = {
            "interval": (es.build_grid(es.Interval(0, 1), 1 / 128),
                         np.linspace(0.05, 0.8, 16), 1e-3),
            "square": (es.build_grid(es.Rectangle(1, 1), 1 / 64),
                       np.geomspace(1e-3, 0.05, 40), 1e-4),
            "c8_square": (es.build_grid(es.perturb_polygon(
                square, [-1.0, 0.6, 1.0, -0.2], 0.07), 1 / 64),
                np.linspace(0.01, 1.0, 50), 2.5e-3),
            "radial_disk": (es.build_radial_grid(es.Disk(1), 1 / 200),
                            np.geomspace(1e-4, 0.3, 40), 1e-4),
            "final_sample": (es.build_grid(es.Interval(0, 1), 1 / 64),
                             np.geomspace(1e-4, 0.05, 40), 1e-4 / 16),
        }[case]
        op = es.assemble_half_laplacian(grid)
        want, _ = oracles.cn_heat_content_loop(op.sym, op.sqrtw, times, dt)
        got = np.asarray(es.heat_content_timestep(grid, times, dt).q)
        assert np.abs(got / want - 1.0).max() <= 1e-12

    @staticmethod
    def counting_solves(grid, dt):
        """Put a factor that counts its solves in the operator's cache."""
        op = es.assemble_half_laplacian(grid)
        lu = op.factor(2.0 / dt)
        calls = []

        class CountingFactor:
            def solve(self, b):
                calls.append(1)
                return lu.solve(b)

        op._factors[2.0 / dt] = CountingFactor()
        return op, calls

    @pytest.mark.parametrize("t_max", [0.05, 0.0505])
    def test_timestep_solve_count(self, t_max):
        # K CN steps take at most ceil(K/2) + 2 solves, one per Lanczos
        # step: the Gauss rule with m nodes is exact for degree k_max + 2
        # once 2m - 1 >= k_max + 2 (K odd at 0.05, even at 0.0505)
        grid = es.build_grid(es.Rectangle(1, 1), 1 / 32)
        dt = 1e-3
        op, calls = self.counting_solves(grid, dt)
        times = np.linspace(0.01, t_max, 7)
        curve = es.heat_content_timestep(grid, times, dt)
        _, steps = oracles.cn_heat_content_loop(op.sym, op.sqrtw, times, dt)
        assert steps == {0.05: 49, 0.0505: 50}[t_max]
        assert len(calls) <= math.ceil(steps / 2) + 2
        assert curve.diagnostics["lanczos_steps"] == len(calls)

    def test_timestep_solve_count_long_run(self):
        # the CLI's default dt = t_min/16 over [1e-4, 0.05]: K = 7999 CN
        # steps, where stepping takes ceil(K/2) + 1 = 4001 solves; the
        # rules agree long before the rule is exact
        grid = es.build_grid(es.Rectangle(1, 1), 1 / 32)
        times, dt = np.geomspace(1e-4, 0.05, 40), 1e-4 / 16
        op, calls = self.counting_solves(grid, dt)
        curve = es.heat_content_timestep(grid, times, dt)
        _, steps = oracles.cn_heat_content_loop(op.sym, op.sqrtw, times, dt)
        assert steps == 7999
        assert len(calls) < (math.ceil(steps / 2) + 1) / 20
        diag = curve.diagnostics
        assert diag["lanczos_steps"] == len(calls)
        assert diag["stop"] in ("converged", "stalled")
        assert diag["last_rel_change"] <= 1e-12

    @pytest.mark.parametrize("case", ["final_sample", "c5_interval"])
    def test_cn_against_exact_arithmetic(self, case):
        # CN on the unit interval's grid in 40-digit arithmetic, from the
        # grid operator's closed-form eigenpairs: the step-by-step oracle
        # must sit at rounding from it, and the Gauss rule within 1e-13
        # (C5's interval takes 32 941 steps)
        if case == "final_sample":
            N, times, dt = 64, np.geomspace(1e-4, 0.05, 40), 1e-4 / 16
        else:
            N = 512
            lo, hi = es.fit_window(es.Interval(0, 1), 1 / N)
            times, dt = np.geomspace(lo, hi, 40), lo / 16
        exact, steps = oracles.cn_heat_content_interval_exact(N, times, dt)
        grid = es.build_grid(es.Interval(0, 1), 1 / N)
        op = es.assemble_half_laplacian(grid)
        loop, loop_steps = oracles.cn_heat_content_loop(op.sym, op.sqrtw,
                                                        times, dt)
        got = np.asarray(es.heat_content_timestep(grid, times, dt).q)
        assert loop_steps == steps
        assert np.abs(loop / exact - 1.0).max() <= 1e-15
        assert np.abs(got / exact - 1.0).max() <= 1e-13

    def test_timestep_emits_no_warnings(self):
        # C8's square at dt = 2.5e-3 has Ritz values above 1/2, where
        # 1 - 2 phi < 0 and odd steps change sign
        square = es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        grid = es.build_grid(es.perturb_polygon(
            square, [-1.0, 0.6, 1.0, -0.2], 0.07), 1 / 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = es.heat_content_timestep(grid, np.linspace(0.01, 1.0, 50),
                                         2.5e-3).q
        assert np.all(np.diff(q) < 0)

    def test_timestep_energy_guard(self):
        # with S negated, (sigma - S)^{-1} amplifies every mode: the
        # trajectory's energy grows and the stepper must say where
        grid = es.build_grid(es.Rectangle(1, 1), 1 / 16)
        op = es.assemble_half_laplacian(grid)
        op.sym = -op.sym
        op._factors.clear()
        with pytest.raises(es.SolverError, match="step 0"):
            es.heat_content_timestep(grid, [0.01, 0.02], dt=1e-3)

    def test_timestep_ritz_guard(self):
        # S shifted below its lowest eigenvalue (pi^2 on the unit square)
        # gives F one negative eigenvalue; the mean, alpha_0, stays
        # positive, so only the Ritz values can show it
        import scipy.sparse as sparse
        grid = es.build_grid(es.Rectangle(1, 1), 1 / 16)
        op = es.assemble_half_laplacian(grid)
        op.sym = (op.sym - 10.5 * sparse.identity(op.n)).tocsr()
        op._factors.clear()
        with pytest.raises(es.SolverError, match="Ritz values"):
            es.heat_content_timestep(grid, [0.01, 0.02], dt=1e-3)

    def test_timestep_stops_when_rules_stall(self, monkeypatch):
        # past convergence, lost orthogonality keeps successive rules
        # apart by rounding; with agreement to CN_RTOL made impossible the
        # process must stop on the stall, long before the exact rule at
        # m = 401, and keep an accurate rule
        monkeypatch.setattr(es.analysis, "CN_RTOL", -1.0)
        grid = es.build_grid(es.Interval(0, 1), 1 / 128)
        times, dt = np.linspace(0.05, 0.8, 16), 1e-3
        op = es.assemble_half_laplacian(grid)
        want, _ = oracles.cn_heat_content_loop(op.sym, op.sqrtw, times, dt)
        curve = es.heat_content_timestep(grid, times, dt)
        assert curve.diagnostics["stop"] == "stalled"
        assert curve.diagnostics["lanczos_steps"] < 100
        assert np.abs(np.asarray(curve.q) / want - 1.0).max() <= 1e-12

    def test_timestep_perturbed_squares_complete(self):
        # these flows put stair-step corner nodes where the undamped stiff
        # modes push u below zero by ~1e-2; the scheme is still stable, so
        # each curve must decay and carry the square's dt error, not more
        square = es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        times = np.geomspace(0.01, 1.0, 30)
        dt = 2.5e-3

        def curve_and_dt_gap(spec):
            grid = es.build_grid(spec, 1 / 64)
            q = np.asarray(es.heat_content_timestep(grid, times, dt).q)
            fine = np.asarray(es.heat_content_timestep(grid, times, dt / 4).q)
            return q, np.abs(q - fine).max()

        _, square_gap = curve_and_dt_gap(square)
        for seed in (4, 8, 10, 15):
            flow = np.random.default_rng(seed).uniform(-1, 1, 4)
            q, gap = curve_and_dt_gap(es.perturb_polygon(square, flow, 0.07))
            assert np.all(np.diff(q) < 0), seed
            assert gap <= 1.5 * square_gap, seed

    def test_restrict_and_csv(self, tmp_path, interval_sd):
        curve = es.heat_content_spectral(interval_sd, np.linspace(0.01, 1, 25))
        sub = curve.restrict(0.1, 0.5)
        assert len(sub) < len(curve)
        assert min(sub.times) >= 0.1 and max(sub.times) <= 0.5
        path = tmp_path / "q.csv"
        curve.to_csv(path)
        back = es.HeatContentCurve.from_csv(path)
        assert back.q == pytest.approx(curve.q, rel=1e-16)
        assert back.times == pytest.approx(curve.times, rel=1e-16)


class TestAsymptotics:
    def test_fit_recovers_volume_and_perimeter_terms(self):
        """On an interval the q(t) expansion is exactly
        |D| - sqrt(2/pi) |bd D| sqrt(t) + O(exp): coefficients 2 and 3
        vanish, so the fit should nail the first two to rounding."""
        sd = es.analytic_spectrum(es.Interval(0, 1), 1400)
        curve = es.heat_content_spectral(sd, np.geomspace(1e-5, 1e-3, 60))
        fit = es.asymptotic_fit(curve, 3)
        c = fit.coefficients
        assert len(c) == 4
        assert c[0] == pytest.approx(1.0, rel=1e-9)
        assert c[1] == pytest.approx(-math.sqrt(2 / math.pi) * 2, rel=1e-7)
        assert abs(c[2]) < 1e-6 and abs(c[3]) < 1e-5
        assert fit.residual < 1e-10

    def test_fit_window_scales(self):
        lo1, hi1 = es.fit_window(es.Interval(0, 1), 1 / 64)
        lo2, hi2 = es.fit_window(es.Interval(0, 1), 1 / 128)
        assert lo1 == pytest.approx(4 * (1 / 64) ** 2)
        assert lo2 < lo1 and hi2 == hi1
        assert hi1 > lo1

    def test_fit_to_csv(self, tmp_path):
        sd = es.analytic_spectrum(es.Interval(0, 1), 300)
        curve = es.heat_content_spectral(sd, np.geomspace(1e-4, 1e-2, 30))
        fit = es.asymptotic_fit(curve, 2)
        path = tmp_path / "fit.csv"
        fit.to_csv(path)
        assert path.read_text().count("\n") >= 2


class TestMellin:
    def test_matches_gamma_zeta(self, interval_sd):
        ts = np.geomspace(1e-6, 25.0, 4000)
        curve = es.heat_content_spectral(interval_sd, ts)
        lam1 = interval_sd.lambdas()[0]
        for s, tol in ((1.0, 1e-4), (1.5, 1e-6), (2.0, 1e-6)):
            got = es.mellin_numeric(curve, s, lam1)
            want = math.gamma(s) * es.zeta(interval_sd, s)
            assert got == pytest.approx(want, rel=tol)

    def test_small_t_bound_shrinks(self, interval_sd):
        ts = np.geomspace(1e-6, 5.0, 500)
        curve = es.heat_content_spectral(interval_sd, ts)
        b1 = es.mellin_small_t_bound(curve, 1.5, 1.0)
        curve2 = curve.restrict(1e-4, 5.0)
        b2 = es.mellin_small_t_bound(curve2, 1.5, 1.0)
        assert 0 < b1 < b2
