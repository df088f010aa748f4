import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exitspec as es
from exitspec.stieltjes import _recurrence

import oracles


def atomic_sequence(atoms, n_max, provenance="analytic"):
    """MomentSequence of a finite atomic measure, A_n = n! sum w x^n."""
    A = []
    fact = 1.0
    for n in range(n_max + 1):
        if n > 0:
            fact *= n
        A.append(fact * math.fsum(w * x ** n for x, w in atoms))
    return es.MomentSequence(A, provenance)


class TestHankel:
    def test_analytic_sequences_pass(self):
        for spec in (es.Interval(0, 1), es.Rectangle(1, 1), es.Disk(1)):
            ms = es.analytic_moments(spec, 9)
            rep = es.hankel_psd_check(ms, 5)
            assert rep["pass"]
            assert rep["H0_min_eig"] > 0 and rep["H1_min_eig"] > 0

    def test_detects_non_stieltjes(self):
        # moments of a signed measure: atom weights +1, -0.5
        ms = atomic_sequence([(1.0, 1.0), (2.0, -0.5)], 5)
        rep = es.hankel_psd_check(ms, 3)
        assert not rep["pass"]

    def test_cap_analytic_vs_pde(self, interval_pde_512):
        exact = es.analytic_moments(es.Interval(0, 1), 9)
        assert es.atom_count_cap(exact, 5) == 5
        # discretization noise at h=1/512 supports one atom fewer
        assert es.atom_count_cap(interval_pde_512[0], 5) == 4


class TestInvert:
    def test_argument_validation(self):
        ms = es.analytic_moments(es.Interval(0, 1), 5)
        with pytest.raises(ValueError):
            es.invert_moments(ms, 0)
        with pytest.raises(ValueError):
            es.invert_moments(ms, 4)  # needs mu_0..mu_7
        with pytest.raises(ValueError):
            es.invert_moments(ms, 2, precision="triple")

    def test_synthetic_two_atoms_exact(self):
        atoms = [(0.5, 1.25), (2.0, 0.75)]
        am = es.invert_moments(atomic_sequence(atoms, 3), 2)
        assert am.p == 2
        got = sorted(am.atoms)
        for (gx, gw), (x, w) in zip(got, atoms):
            assert gx == pytest.approx(x, rel=1e-10)
            assert gw == pytest.approx(w, rel=1e-10)

    @given(
        xs=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4,
                    unique=True),
        ws=st.lists(st.floats(0.2, 3.0), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_synthetic_round_trip(self, xs, ws):
        xs = sorted(xs)
        # keep the nodes well separated so the Hankel problem stays sane
        if any(b / a < 1.4 for a, b in zip(xs, xs[1:])):
            return
        atoms = [(x, w) for x, w in zip(xs, ws)]
        p = len(atoms)
        am = es.invert_moments(atomic_sequence(atoms, 2 * p - 1), p)
        got = sorted(am.atoms)
        for (gx, gw), (x, w) in zip(got, atoms):
            assert gx == pytest.approx(x, rel=1e-7)
            assert gw == pytest.approx(w, rel=1e-6)

    def test_interval_recovers_spectrum(self):
        ms = es.analytic_moments(es.Interval(0, 1), 9)
        am = es.invert_moments(ms, 3)
        true = oracles.interval_true_atoms(3)
        # atoms come out largest-x first; the leading one is sharp and the
        # deeper ones degrade gracefully (they absorb the truncated tail)
        assert am.atoms[0][0] == pytest.approx(true[0][0], rel=1e-5)
        assert am.atoms[0][1] == pytest.approx(true[0][1], rel=1e-5)
        assert am.atoms[1][0] == pytest.approx(true[1][0], rel=5e-2)

    def test_extended_beats_standard(self):
        """Exact rational moments let the exact recurrence plus a float64
        tridiagonal eigensolve go past the float64 Hankel atom cap, and
        every extra atom sharpens the recovered deep nodes by orders of
        magnitude."""
        ms = es.analytic_moments(es.Interval(0, 1), 11)
        std = es.invert_moments(ms, 6)
        ext = es.invert_moments(ms, 6, precision="extended")
        assert std.diagnostics["p_effective"] == 5
        assert ext.diagnostics["p_effective"] == 6
        x2_true = oracles.interval_true_atoms(2)[1][0]
        err_std = abs(std.atoms[1][0] - x2_true) / x2_true
        err_ext = abs(ext.atoms[1][0] - x2_true) / x2_true
        assert err_std > 1e-6          # float64 route is truncation-limited
        assert err_ext < 1e-7          # six atoms cut the truncation error
        assert err_ext < err_std / 50

    def test_recurrence_matches_hankel_determinants(self):
        mu = es.analytic_moments(es.Interval(0, 1), 17).mu_exact
        for p in range(1, 9):
            assert _recurrence(mu, p) == \
                oracles.recurrence_from_hankel_determinants(mu, p)

    def test_oracle_polynomial_vanishes_at_atoms(self):
        # p atoms: pi_p is the node polynomial prod (x - x_j)
        atoms = [(Fraction(1, 3), Fraction(2)),
                 (Fraction(3, 2), Fraction(1, 5)),
                 (Fraction(4), Fraction(7, 3))]
        mu = [sum(w * x ** n for x, w in atoms) for n in range(6)]
        alpha, beta = oracles.recurrence_from_hankel_determinants(mu, 3)
        assert beta[0] == sum(w for _, w in atoms)
        for x, _ in atoms:
            assert oracles.monic_orthogonal_value(alpha, beta, x) == 0
        assert oracles.monic_orthogonal_value(alpha, beta, Fraction(0)) == \
            -math.prod(x for x, _ in atoms)

    def test_recurrence_rejects_indefinite_hankel(self):
        # moments of a signed measure: the second pivot is negative; those
        # of one atom at 1/2 leave the second pivot exactly zero, in float
        # as well as in rationals
        ms = atomic_sequence([(1.0, 1.0), (2.0, -0.5)], 3)
        for num in (Fraction, float):
            for mu in (ms.mu, [1.0, 0.5, 0.25, 0.125]):
                with pytest.raises(es.InversionError, match="rank deficient"):
                    _recurrence(mu, 2, num)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_integer_rows_match_hankel_determinants_on_rational_atoms(
            self, data):
        m = data.draw(st.integers(1, 5), label="atoms")
        fracs = st.fractions(min_value=Fraction(1, 1000),
                             max_value=Fraction(1000), max_denominator=10 ** 6)
        xs = data.draw(st.lists(fracs, min_size=m, max_size=m, unique=True),
                       label="x")
        ws = data.draw(st.lists(fracs, min_size=m, max_size=m), label="w")
        p = data.draw(st.integers(1, m), label="p")
        mu = [sum(w * x ** n for x, w in zip(xs, ws)) for n in range(2 * p)]
        assert _recurrence(mu, p) == \
            oracles.recurrence_from_hankel_determinants(mu, p)

    @given(kind=st.sampled_from(["rectangle", "disk"]),
           scale=st.floats(-3.0, 3.0), aspect=st.floats(1.0, 4.0),
           p=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_integer_rows_match_hankel_determinants_on_float_moments(
            self, kind, scale, aspect, p):
        """Float moments are dyadic rationals, taken exactly. Where their
        Hankel section is not positive definite the recurrence raises, at
        the first nonpositive determinant ratio."""
        s = 10.0 ** scale
        spec = es.Rectangle(s, s * aspect) if kind == "rectangle" \
            else es.Disk(s)
        mu = es.analytic_moments(spec, 2 * p - 1).mu
        alpha, beta = oracles.recurrence_from_hankel_determinants(mu, p)
        bad = [k for k, b in enumerate(beta) if b <= 0]
        if bad:
            with pytest.raises(es.InversionError,
                               match=rf"\(pivot k={bad[0]}\)"):
                _recurrence(mu, p)
        else:
            assert _recurrence(mu, p) == (alpha, beta)

    @pytest.mark.parametrize("atoms", [
        [(1.0, 1.0), (2.0, -0.5)],
        [(1.0, 1.0), (2.0, 0.5), (3.0, -0.05)],
        [(0.5, 2.0), (1.5, 1.0), (2.5, 0.25), (4.0, -0.01)],
        [(1.0, -1.0), (2.0, 0.5)]])
    def test_signed_measure_fails_at_the_same_pivot_in_both_arithmetics(
            self, atoms):
        """Both arithmetics stop at the first nonpositive ratio of
        consecutive Hankel determinants, pivot k with beta_k <= 0; so do
        the exact moments over 3, which are not dyadic."""
        p = len(atoms)
        mu = [math.fsum(w * x ** n for x, w in atoms) for n in range(2 * p)]
        _, beta = oracles.recurrence_from_hankel_determinants(mu, p)
        k = next(k for k, b in enumerate(beta) if b <= 0)
        for moments, num in ((mu, Fraction), (mu, float),
                             ([Fraction(m) / 3 for m in mu], Fraction)):
            with pytest.raises(es.InversionError, match=rf"\(pivot k={k}\)"):
                _recurrence(moments, p, num)

    @pytest.mark.parametrize("precision", ["standard", "extended"])
    @pytest.mark.parametrize("spec, d", [(es.Interval(0, 1), 1),
                                         (es.Rectangle(1, 1.3), 2),
                                         (es.Disk(1), 2)],
                             ids=["interval", "rectangle", "disk"])
    def test_dilation_covariance(self, spec, d, precision):
        """Dilating the domain by c scales A_n by c^(2n+d), the atoms' nodes
        x = 2/lambda by c^2 and their weights by c^d. With c a power of two
        every float scaling is exact, so the inversion must commute with it
        to rounding."""
        A = es.analytic_moments(spec, 15).A
        base = es.invert_moments(es.MomentSequence(A, "analytic"), 8,
                                 precision)
        for k in range(-10, 11):
            ms = es.MomentSequence(
                [math.ldexp(a, k * (2 * n + d)) for n, a in enumerate(A)],
                "analytic")
            am = es.invert_moments(ms, 8, precision)
            assert am.diagnostics["p_effective"] == \
                base.diagnostics["p_effective"]
            assert am.p == base.p
            for (x, w), (x0, w0) in zip(am.atoms, base.atoms):
                assert x == pytest.approx(math.ldexp(x0, 2 * k), rel=1e-13)
                assert w == pytest.approx(math.ldexp(w0, d * k), rel=1e-13)

    @pytest.mark.parametrize("L", [1e-3, 1.0, 1e3])
    def test_extended_nodes_bracket_gauss_nodes(self, L):
        """Every extended node lies within a relative 1e-13 of a root of
        the exact degree-8 orthogonal polynomial of the interval moments:
        the polynomial changes sign across x (1 -+ 1e-13) in exact
        arithmetic."""
        ms = es.analytic_moments(es.Interval(0, L), 17)
        am = es.invert_moments(ms, 8, "extended")
        assert am.diagnostics["p_effective"] == 8 and am.p == 8
        alpha, beta = oracles.recurrence_from_hankel_determinants(
            ms.mu_exact, 8)
        for x, _ in am.atoms:
            lo, hi = (oracles.monic_orthogonal_value(
                alpha, beta, Fraction(x) * (1 + Fraction(s, 10 ** 13)))
                for s in (-1, 1))
            assert lo * hi < 0, x

    def test_moments_reproduced(self):
        ms = es.analytic_moments(es.Interval(0, 1), 9)
        am = es.invert_moments(ms, 4)
        for n in range(8):
            assert am.moment(n) == pytest.approx(ms.mu[n], rel=1e-9)

    def test_cap_engages_on_noisy_input(self, interval_pde_512):
        am = es.invert_moments(interval_pde_512[0], 5)
        assert am.diagnostics["p_effective"] == 4
        assert am.p == 4


class TestMeasure:
    def test_total_mass_and_moment(self):
        am = es.AtomicMeasure([(1.5, 2.0), (0.5, 1.0)])
        assert am.total_mass() == pytest.approx(3.0)
        assert am.moment(2) == pytest.approx(4.5 + 0.25)
        with pytest.raises(ValueError):
            es.AtomicMeasure([(0.5, 1.0), (1.5, 2.0)])  # must decrease in x
        with pytest.raises(ValueError):
            es.AtomicMeasure([(1.5, -2.0)])

    def test_csv_round_trip(self, tmp_path):
        am = es.invert_moments(es.analytic_moments(es.Interval(0, 1), 7), 3)
        path = tmp_path / "measure.csv"
        am.to_csv(path)
        back = es.AtomicMeasure.from_csv(path)
        assert back.atoms == pytest.approx(am.atoms, rel=1e-16)

    def test_measure_to_spectrum_mapping(self):
        am = es.AtomicMeasure([(2.0, 0.25), (0.5, 1.0)])
        sd = es.measure_to_spectrum(am)
        # decay rates lambda = 2/x, sorted increasing
        assert sd.lambdas() == pytest.approx([1.0, 4.0])
        assert sd.weights() == pytest.approx([0.25, 1.0])

    def test_reconstruct_heat_content_matches_spectral_sum(self):
        am = es.invert_moments(es.analytic_moments(es.Interval(0, 1), 9), 4)
        times = [0.05, 0.1, 0.5, 1.0]
        curve = es.reconstruct_heat_content(am, times)
        sd = es.measure_to_spectrum(am)
        ref = es.heat_content_spectral(sd, times)
        assert curve.q == pytest.approx(ref.q, rel=1e-13)
