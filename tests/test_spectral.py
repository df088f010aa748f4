import functools
import math

import pytest
from scipy.special import jn_zeros

import exitspec as es
from exitspec import spectral

import oracles


class TestAnalytic:
    def test_interval_atoms(self):
        sd = es.analytic_spectrum(es.Interval(0, 1), 8)
        assert sd.source == "analytic"
        want_odd = oracles.interval_true_atoms(4)
        lams, ws = es.essential_spectrum(sd)
        for (x, w), lam, got_w in zip(want_odd, lams, ws):
            assert lam == pytest.approx(2.0 / x, rel=1e-14)
            assert got_w == pytest.approx(w, rel=1e-14)
        # even modes are listed with zero weight
        zero = [a2 for _, _, a2 in sd.entries if a2 == 0.0]
        assert len(zero) == 4

    def test_interval_scaling(self):
        sd = es.analytic_spectrum(es.Interval(0, 2), 3)
        assert sd.lambdas()[0] == pytest.approx(math.pi ** 2 / 4, rel=1e-14)
        assert sd.weights()[0] == pytest.approx(16 / math.pi ** 2, rel=1e-14)

    def test_rectangle_tensor_structure(self):
        sd = es.analytic_spectrum(es.Rectangle(1, 1), 7)
        in_pi2 = [round(l / math.pi ** 2) for l in sd.lambdas()]
        assert in_pi2 == [2, 5, 8, 10, 13, 17, 18]
        mults = [m for _, m, _ in sd.entries]
        assert mults == [1, 2, 1, 2, 2, 2, 1]
        # weight only where both indices are odd: 2, 10, 18
        carriers = [round(l / math.pi ** 2)
                    for l, _, a2 in sd.entries if a2 > 0]
        assert carriers == [2, 10, 18]
        w11 = sd.entries[0][2]
        assert w11 == pytest.approx((8 / math.pi ** 2) ** 2, rel=1e-13)

    def test_disk_bessel_structure(self):
        R = 1.0
        sd = es.analytic_spectrum(es.Disk(R), 6)
        j0 = jn_zeros(0, 3)
        lams, ws = es.essential_spectrum(sd)
        for n, (lam, w) in enumerate(zip(lams, ws)):
            assert lam == pytest.approx(j0[n] ** 2, rel=1e-12)
            assert w == pytest.approx(4 * math.pi / j0[n] ** 2, rel=1e-12)
        # nonzero angular orders appear as weightless multiplicity-2 entries
        assert any(m == 2 and a2 == 0.0 for _, m, a2 in sd.entries)

    def test_volume_partition_sums_to_volume(self):
        # sum of a^2 over the full spectrum converges to |D|
        for spec, vol in [(es.Interval(0, 1), 1.0),
                          (es.Disk(1.0), math.pi)]:
            totals = [es.analytic_spectrum(spec, m).total_weight()
                      for m in (8, 16, 32)]
            assert totals[0] < totals[1] < totals[2] <= vol * (1 + 1e-12)
            # the disk interleaves weightless angular clusters, so the
            # radial tail is only ~1/sqrt(m) deep at m clusters
            assert totals[2] > 0.92 * vol

    @pytest.mark.parametrize("spec", [
        es.Interval(0, 1), es.Rectangle(1, 1), es.Rectangle(1, 30),
        es.Disk(1.0)], ids=["interval", "square", "1x30", "disk"])
    def test_first_m_clusters_are_a_prefix(self, spec):
        """The first m clusters do not depend on m: how far the table
        reaches moves no entry by a bit."""
        full = es.analytic_spectrum(spec, 256).entries
        for m in (1, 7, 64):
            assert es.analytic_spectrum(spec, m).entries == full[:m], m

    def test_interval_cap_starts_at_lattice_cell_bound(self, monkeypatch):
        """(pi (m+1)/L)^2 is the (m+1)-th eigenvalue itself, so the first
        table is complete: _cluster, called once per round, runs once."""
        cluster, rounds = spectral._cluster, []

        def spy(values, rel_tol):
            rounds.append(len(values))
            return cluster(values, rel_tol)

        monkeypatch.setattr(spectral, "_cluster", spy)
        assert es.analytic_spectrum(es.Interval(0, 1), 6).m == 6
        assert rounds == [7]


@functools.lru_cache(maxsize=None)
def box_clusters(sides):
    return oracles.box_clusters(sides)


class TestThinRectangles:
    """Long sides crowd many modes of the short side's first index below
    the second: the analytic table must still hold every one of them."""

    @pytest.mark.parametrize("m", [16, 64, 256])
    @pytest.mark.parametrize("sides", [(1, 10), (10, 1), (1, 30)],
                             ids=["1x10", "10x1", "1x30"])
    def test_clusters_match_enumeration(self, sides, m):
        sd = es.analytic_spectrum(es.Rectangle(*sides), m)
        want = box_clusters(sides)[:m]
        assert len(want) == m
        assert [e[1] for e in sd.entries] == [w[1] for w in want]
        assert sd.lambdas() == pytest.approx([w[0] for w in want], rel=1e-14)
        # weightless clusters must be exactly zero
        assert sd.weights() == pytest.approx([w[2] for w in want],
                                             rel=1e-13, abs=0.0)

    def test_verify_error_is_the_zeta_tail(self):
        """With exact moments, Gamma(N) zeta_D(N) falls short of A_N / N only
        by the clusters past the table, so every row's relative error is
        within Gamma(N) zeta_tail / (A_N / N)."""
        spec = es.Rectangle(1, 30)
        report = es.verify_identities(es.analytic_moments(spec, 6),
                                      es.analytic_spectrum(spec, 64), 6)
        for row in report["rows"]:
            bound = math.gamma(row["N"]) * row["zeta_tail"] / row["A_over_N"]
            assert row["rel_err"] <= bound, row


class TestNumeric:
    def test_square_clusters(self):
        g = es.build_grid(es.Rectangle(1, 1), 1 / 32)
        sd = es.numeric_spectrum(g, 4)
        assert sd.source == "numeric"
        in_pi2 = [l / math.pi ** 2 for l in sd.lambdas()]
        # discretization error grows with lambda; ~0.7 percent at the 4th
        assert in_pi2 == pytest.approx([2, 5, 8, 10], rel=1e-2)
        assert [m for _, m, _ in sd.entries] == [1, 2, 1, 2]
        # lattice parity makes the even-mode weights vanish identically
        assert sd.entries[1][2] < 1e-20
        assert sd.entries[2][2] < 1e-20
        assert sd.entries[0][2] == pytest.approx((8 / math.pi ** 2) ** 2,
                                                 rel=5e-3)

    def test_interval_matches_analytic(self):
        g = es.build_grid(es.Interval(0, 1), 1 / 256)
        sd = es.numeric_spectrum(g, 5)
        ref = es.analytic_spectrum(es.Interval(0, 1), 5)
        for got, want in zip(sd.lambdas(), ref.lambdas()):
            assert got == pytest.approx(want, rel=1e-3)
        for got, want in zip(sd.weights(), ref.weights()):
            assert got == pytest.approx(want, abs=1e-4, rel=2e-3)

    @pytest.mark.parametrize("m", [5, 8])
    def test_interval_up_to_n_minus_2_clusters(self, m):
        # 10 nodes: the first block asks for min(m + 4, n - 2) pairs
        g = es.build_grid(es.Interval(0, 1), 1 / 11)
        assert g.n == 10
        sd = es.numeric_spectrum(g, m)
        ref = es.analytic_spectrum(es.Interval(0, 1), m)
        assert [mult for _, mult, _ in sd.entries] == [1] * m
        assert sd.lambdas()[0] == pytest.approx(ref.lambdas()[0], rel=1e-2)

    def test_more_clusters_than_n_minus_2_rejected(self):
        g = es.build_grid(es.Interval(0, 1), 1 / 11)
        with pytest.raises(ValueError,
                           match="m=9 exceeds n - 2 for the n=10 grid nodes"):
            es.numeric_spectrum(g, 9)

    def test_disk_radial_matches_bessel(self):
        g = es.build_radial_grid(es.Disk(1), 1 / 512)
        sd = es.numeric_spectrum(g, 3)
        j0 = jn_zeros(0, 3)
        for n, (lam, _, a2) in enumerate(sd.entries):
            assert lam == pytest.approx(j0[n] ** 2, rel=1e-4)
            assert a2 == pytest.approx(4 * math.pi / j0[n] ** 2, rel=1e-3)

    @pytest.mark.parametrize("dilate", [
        lambda c: es.Rectangle(c, c),
        lambda c: es.perturb_polygon(
            es.Polygon([(0, 0), (c, 0), (c, c), (0, c)]),
            [-1.0, 0.6, 1.0, -0.2], 0.07 * c),
    ], ids=["square", "c8-polygon"])
    def test_residual_contract_is_scale_free(self, dilate):
        """S scales as c^-2 under a dilation by c, and so do its attainable
        eigenpair residuals: at the default tol every scale passes, and
        c^2 lambda is the unit domain's to rounding."""
        ref = es.numeric_spectrum(es.build_grid(dilate(1.0), 1 / 64), 6)
        for c in (1e-3, 1e-2, 1e2, 1e3):
            sd = es.numeric_spectrum(es.build_grid(dilate(c), c / 64), 6)
            scaled = [c * c * lam for lam in sd.lambdas()]
            assert scaled == pytest.approx(ref.lambdas(), rel=1e-10), c


class TestStructures:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            es.SpectralData([(2.0, 1, 0.1), (1.0, 1, 0.1)], "analytic")

    def test_negative_weight_rejected_tiny_clamped(self):
        with pytest.raises(ValueError):
            es.SpectralData([(1.0, 1, -0.1)], "analytic")
        sd = es.SpectralData([(1.0, 1, -1e-15)], "analytic")
        assert sd.weights() == [0.0]

    @pytest.mark.parametrize("row", ["nan,1,0.5", "1,1,nan", "inf,1,0.5",
                                     "1,1,inf", "-inf,1,0.5"])
    def test_non_finite_entry_rejected(self, tmp_path, row):
        # a one-row table has no order to check, and NaN passes lambda <= 0
        path = tmp_path / "spec.csv"
        path.write_text(f"lambda,multiplicity,a2\n{row}\n")
        with pytest.raises(ValueError, match="bad entry"):
            es.SpectralData.from_csv(path)

    @pytest.mark.parametrize("with_volume", [True, False])
    def test_weight_clamp_follows_dilations(self, with_volume):
        """Dust is relative to the spectrum's scale, c^2 for a planar domain
        dilated by c: its volume, or its largest weight without one."""
        for k in range(-6, 7):
            c = 10.0 ** (k / 2)
            vol = c * c if with_volume else None
            scale = c * c if with_volume else 0.8 * c * c

            def spectrum(a2):
                return es.SpectralData([(10.0 / c ** 2, 1, 0.8 * c * c),
                                        (90.0 / c ** 2, 1, a2)],
                                       "analytic", volume=vol)
            assert spectrum(-0.5e-14 * scale).weights() == [0.8 * c * c, 0.0]
            with pytest.raises(ValueError, match="bad entry"):
                spectrum(-1e-10 * scale)
        big = es.SpectralData([(10.0, 1, -2e-14)], "analytic", volume=1e6)
        assert big.weights() == [0.0]

    def test_csv_round_trip(self, tmp_path):
        sd = es.analytic_spectrum(es.Rectangle(1, 2), 5)
        path = tmp_path / "spec.csv"
        sd.to_csv(path)
        back = es.SpectralData.from_csv(path, source=sd.source)
        assert back.lambdas() == pytest.approx(sd.lambdas(), rel=1e-16)
        assert back.weights() == pytest.approx(sd.weights(), rel=1e-16, abs=0)
        assert [m for _, m, _ in back.entries] == [m for _, m, _ in
                                                   sd.entries]

    def test_essential_spectrum_threshold(self):
        sd = es.SpectralData([(1.0, 1, 0.5), (2.0, 1, 1e-9), (3.0, 1, 0.2)],
                             "analytic", volume=1.0)
        lams, ws = es.essential_spectrum(sd, zero_tol=1e-6)
        assert lams == [1.0, 3.0]
        assert ws == [0.5, 0.2]


class TestPropertyM:
    def test_interval_fails_on_even_modes(self):
        sd = es.analytic_spectrum(es.Interval(0, 1), 6)
        rep = es.property_m_report(sd)
        assert not rep["holds"]
        got = [round(v / math.pi ** 2) for v in rep["violators"]]
        assert got == [4, 16, 36]
        assert not rep["degenerate"]

    def test_disk_essential_part_holds(self):
        sd = es.analytic_spectrum(es.Disk(1), 6)
        lams, ws = es.essential_spectrum(sd)
        ess = es.SpectralData([(l, 1, w) for l, w in zip(lams, ws)],
                              "analytic", volume=math.pi)
        assert es.property_m_report(ess)["holds"]

    def test_degenerate_flag(self):
        sd = es.SpectralData([(1.0, 1, 0.0), (2.0, 1, 0.0)], "analytic",
                             volume=1.0)
        rep = es.property_m_report(sd)
        assert rep["degenerate"] and not rep["holds"]
