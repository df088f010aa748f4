import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jn_zeros

import exitspec as es
import exitspec.stieltjes as stieltjes
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

    @pytest.mark.parametrize("p", [0, -1])
    def test_rejects_p_below_one(self, p):
        ms = es.analytic_moments(es.Interval(0, 1), 5)
        with pytest.raises(ValueError, match="p must be >= 1"):
            es.hankel_psd_check(ms, p)

    def test_p_past_the_moments_raises_one_message(self):
        ms = es.analytic_moments(es.Interval(0, 1), 5)
        for check in (es.hankel_psd_check, es.invert_moments):
            with pytest.raises(ValueError,
                               match=r"^p=4 needs n_max >= 7, have 5$"):
                check(ms, 4)

    def test_moments_near_float_max_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = es.hankel_psd_check(es.MomentSequence([1e308] * 3, "pde"),
                                      1)
        assert rep["pass"]
        assert rep["H0_min_eig"] == rep["H0_trace"] == 1e308

    @pytest.mark.parametrize("A, h1_psd", [
        ([1.5e308, 1.2e308, 1.6e308, 6e307, 1.44e308, 1e308], False),
        # mu_n = c x^n for n >= 1 and mu_0 < c: H1 is PSD of rank one and
        # only H0, whose trace overflows, can fail
        ([1.59e308] + [1.6e308 * 0.39 ** n * math.factorial(n)
                       for n in range(1, 6)], True)],
        ids=["both-indefinite", "H0-indefinite"])
    def test_trace_overflow_does_not_pass_h0(self, A, h1_psd):
        """The diagonal of H0 adds up past the float maximum on finite
        moments; the verdict is taken in units of its largest entry, so an
        indefinite H0 still fails, without an overflow warning."""
        ms = es.MomentSequence(A, "pde")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = es.hankel_psd_check(ms, 3)
        assert rep["H0_trace"] == math.inf
        assert rep["H0_min_eig"] < -1e-6 * max(ms.mu[0:5:2])
        assert not rep["pass"]
        assert (rep["H1_min_eig"] >= -1e-9 * rep["H1_trace"]) == h1_psd

    @pytest.mark.parametrize("atoms", [
        [(0.4, 5e6), (0.2, 3e6), (0.1, 1e6)],
        [(0.4, 8e6), (0.2, -1e6), (0.1, 2e6)]],
        ids=["positive", "signed"])
    def test_dilation_by_two_to_the_1000(self, atoms):
        """Scaling every moment by 2^1000 puts the largest Hankel entries
        within a factor 2 of the float maximum; the verdict and the
        scale-free min_eig / trace stay those of the unscaled sequence."""
        ms = atomic_sequence(atoms, 5)
        big = es.MomentSequence([math.ldexp(a, 1000) for a in ms.A], "pde")
        assert max(big.mu) > 2.0 ** 1023
        base = es.hankel_psd_check(ms, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = es.hankel_psd_check(big, 3)
        assert rep["pass"] == base["pass"] == (min(w for _, w in atoms) > 0)
        for name in ("H0", "H1"):
            assert rep[name + "_min_eig"] / rep[name + "_trace"] == \
                pytest.approx(base[name + "_min_eig"] / base[name + "_trace"],
                              rel=1e-12)

    def test_cap_analytic_vs_pde(self, interval_pde_512):
        exact = es.analytic_moments(es.Interval(0, 1), 9)
        assert es.atom_count_cap(exact, 5) == 5
        # discretization noise at h=1/512 supports one atom fewer
        assert es.atom_count_cap(interval_pde_512[0], 5) == 4


def cap_cases():
    """(sequence, floor of its noise model) across provenances, scales and
    stderr, plus a sequence with mu_0 alone."""
    for spec in (es.Interval(0, 1), es.Rectangle(1, 2.5), es.Disk(1)):
        A = es.analytic_moments(spec, 15).A
        for c in (1e-3, 1.0, 1e3):
            scaled = [a * c ** (2 * n + spec.dim) for n, a in enumerate(A)]
            yield es.MomentSequence(scaled, "analytic"), 2.3e-16
            yield es.MomentSequence(scaled, "pde"), 1e-11
            yield es.MomentSequence(scaled, "montecarlo"), 1e-3
            for rel in (1e-14, 1e-7):
                stderr = [rel * (n + 1) * a for n, a in enumerate(scaled)]
                yield (es.MomentSequence(scaled, "pde", stderr=stderr),
                       max(1e-11, *(s / a for s, a in zip(stderr, scaled))))
    yield es.MomentSequence([2.0], "analytic"), 2.3e-16


class TestCap:
    def test_one_build_matches_per_section_oracle(self, interval_pde_512):
        """The cap takes every balanced section as a leading block of the
        largest one; it must give what building each section on its own
        gives, under the provenance floor, a stderr floor and 1e-26."""
        cases = list(cap_cases()) + [(interval_pde_512[0], 1e-11)]
        for ms, floor in cases:
            for p_max in (0, 1, 3, 8, 12):
                assert es.atom_count_cap(ms, p_max) == \
                    oracles.atom_count_cap_per_section(ms.mu, p_max, floor)
                assert es.atom_count_cap(ms, p_max, floor=1e-26) == \
                    oracles.atom_count_cap_per_section(ms.mu, p_max, 1e-26)

    # mu_n with positive even orders, so that every balanced section exists;
    # signed odd orders make sections indefinite, and then sigma_min need not
    # fall with p. A few small values recur, so that some sections are
    # singular. Positive atomic measures give the definite case.
    _signed = st.lists(
        st.tuples(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(1e-3, 1e3),
                  st.sampled_from([-2.0, -1.0, 1.0, 2.0])
                  | st.floats(-1e3, 1e3)),
        min_size=1, max_size=9).map(
        lambda pairs: [m * math.factorial(n) for n, m in
                       enumerate(a for pair in pairs for a in pair)])
    _atomic = st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
                       min_size=1, max_size=6).map(
        lambda atoms: atomic_sequence(atoms, 15).A)

    @settings(max_examples=200, deadline=None)
    @given(_signed | _atomic, st.integers(0, 9),
           st.sampled_from([2.3e-16, 1e-11, 1e-3, 1e-26])
           | st.floats(1e-9, 1e-4))
    def test_top_down_scan_matches_per_section_oracle(self, A, p_max, floor):
        ms = es.MomentSequence(A, "pde")
        assert es.atom_count_cap(ms, p_max, floor=floor) == \
            oracles.atom_count_cap_per_section(ms.mu, p_max, floor)

    def test_cap_is_the_largest_passing_section(self):
        """mu = 1, 1, 1, -1, 1, 1: the 2 x 2 section is singular, the 3 x 3
        one is not, so the cap is 3 where stopping at the first failure
        would give 1."""
        ms = es.MomentSequence([1, 1, 2, -6, 24, 120], "pde")
        passes = [oracles.atom_count_cap_per_section(ms.mu, p, 1e-11) == p
                  for p in (1, 2, 3)]
        assert passes == [True, False, True]
        assert es.atom_count_cap(ms, 3, floor=1e-11) == 3

    @pytest.mark.parametrize("mu4", [-1.0, 0.0])
    def test_sections_past_a_nonpositive_even_moment_fail(self, mu4):
        """A nonpositive mu_4 leaves the 3 x 3 balanced section undefined:
        it never passes, whatever p_max the first call asks for, and the
        sections before it answer as they do on their own."""
        ms = es.MomentSequence([1, 1, 2, 6, 24 * mu4, 120], "pde")
        for p_max in (1, 3, 2):
            assert es.atom_count_cap(ms, p_max, floor=1e-11) == \
                oracles.atom_count_cap_per_section(ms.mu, min(p_max, 2),
                                                   1e-11)
        ms = es.MomentSequence([1, 0.5, 1, 6, 24 * mu4, 120], "pde")
        assert es.atom_count_cap(ms, 1, floor=0.0) == 1
        assert es.atom_count_cap(ms, 3, floor=0.0) == 2

    def test_no_atoms_from_mu_0_alone(self):
        ms = es.MomentSequence([2.0], "analytic")
        assert ms.n_max == 0
        assert es.atom_count_cap(ms, 4) == 0
        assert es.atom_count_cap(ms, 4, floor=1e-26) == 0


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
        assert err_std > 1e-6          # float moments cap at p = 5
        assert err_ext < 1e-7          # six atoms cut the truncation error
        assert err_ext < err_std / 50
        # the disk's exact moments keep all 8 atoms at every scale, and
        # lambda_1..lambda_3 sit within 1e-7 of j_{0,k}^2 / R^2
        j0 = jn_zeros(0, 3)
        for R in (1e-3, 1e-1, 1.0, 10.0, 1e3):
            ms = es.analytic_moments(es.Disk(R), 15)
            std = es.invert_moments(ms, 8)
            ext = es.invert_moments(ms, 8, precision="extended")
            assert std.diagnostics["p_effective"] == 5
            assert ext.diagnostics["p_effective"] == 8
            std_err, ext_err = ([abs(2.0 / x - (j / R) ** 2) / (j / R) ** 2
                                 for (x, _), j in zip(am.atoms, j0)]
                                for am in (std, ext))
            assert max(ext_err) <= 1e-7
            assert ext_err[2] < std_err[2] / 50

    @pytest.mark.parametrize("kind", ["rectangle", "interval-pde",
                                      "rectangle-pde"])
    def test_precisions_agree_without_exact_moments(self, kind):
        """Without mu_exact both precisions run the one exact recurrence on
        the float moments under the same cap, so they give the same atoms
        and residuals."""
        for c in (1e-3, 1e-1, 1.0, 10.0, 1e3):
            if kind == "rectangle":
                ms = es.analytic_moments(es.Rectangle(c, 2.5 * c), 15)
            elif kind == "interval-pde":
                ms = es.pde_moments(es.Interval(0, c), c / 128, 15)[0]
            else:
                ms = es.pde_moments(es.Rectangle(c, 1.3 * c), c / 16, 15)[0]
            assert ms.mu_exact is None
            for p in range(1, 9):
                std = es.invert_moments(ms, p, "standard")
                ext = es.invert_moments(ms, p, "extended")
                assert std.atoms == ext.atoms
                for key in ("p_effective", "dropped_atoms",
                            "moment_residuals"):
                    assert std.diagnostics[key] == ext.diagnostics[key]

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
        # float moments of a signed measure: the second pivot is negative;
        # those of one atom at 1/2 leave the second pivot exactly zero
        ms = atomic_sequence([(1.0, 1.0), (2.0, -0.5)], 3)
        for mu in (ms.mu, [1.0, 0.5, 0.25, 0.125]):
            with pytest.raises(es.InversionError, match="rank deficient"):
                _recurrence(mu, 2)

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
        """The float moments stop at the first nonpositive ratio of
        consecutive Hankel determinants, pivot k with beta_k <= 0; so do
        the exact moments over 3, which are not dyadic."""
        p = len(atoms)
        mu = [math.fsum(w * x ** n for x, w in atoms) for n in range(2 * p)]
        _, beta = oracles.recurrence_from_hankel_determinants(mu, p)
        k = next(k for k, b in enumerate(beta) if b <= 0)
        for moments in (mu, [Fraction(m) / 3 for m in mu]):
            with pytest.raises(es.InversionError, match=rf"\(pivot k={k}\)"):
                _recurrence(moments, p)

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


def fresh(ms, **changes):
    """A new sequence, with no table, holding the contents of ms, with the
    keyword arguments of MomentSequence in changes replaced."""
    args = dict(A=ms.A, provenance=ms.provenance, lambda1=ms.lambda1,
                mu_exact=ms.mu_exact, stderr=ms.stderr)
    return es.MomentSequence(**{**args, **changes})


def inversion(ms, p, precision):
    """(atoms, diagnostics) of one inversion, or the InversionError text."""
    try:
        am = es.invert_moments(ms, p, precision)
    except es.InversionError as exc:
        return str(exc)
    return am.atoms, am.diagnostics


def table_specs():
    return [es.Interval(0, 3.3), es.Rectangle(0.01, 0.025), es.Disk(7.0)]


class TestTable:
    """invert_moments and atom_count_cap read one table per sequence, built
    on first use; the sequence is read-only, so the table never goes stale.
    It keeps one Gauss rule per moment list and p_eff."""

    CASES = [(p, precision) for p in range(1, 9)
             for precision in ("standard", "extended")]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_shuffled_inversions_match_fresh_sequences(self, seed,
                                                       interval_pde_512):
        """Analytic sequences, with exact moments and without, and a PDE
        sequence, whose two precisions share every rule."""
        order = list(self.CASES)
        random.Random(seed).shuffle(order)
        seqs = [es.analytic_moments(spec, 17) for spec in table_specs()]
        for ms in seqs + [fresh(interval_pde_512[0])]:
            for p, precision in order:
                if 2 * p <= ms.n_max + 1:
                    assert inversion(ms, p, precision) == \
                        inversion(fresh(ms), p, precision)

    def test_one_gauss_rule_per_moment_list_and_atom_count(self, monkeypatch):
        """p = 1..8 in both precisions take one Golub-Welsch eigensolve per
        (moment list, p_eff): the standard cap's count without mu_exact,
        and the standard plus the extended cap's count with it."""
        calls = []
        golub_welsch = stieltjes._golub_welsch
        monkeypatch.setattr(stieltjes, "_golub_welsch",
                            lambda a, b: calls.append(len(a))
                            or golub_welsch(a, b))
        for spec, exact in ((es.Rectangle(1, 2.5), False),
                            (es.Interval(0, 3.3), True)):
            ms = es.analytic_moments(spec, 17)
            assert (ms.mu_exact is not None) == exact
            del calls[:]
            keys = set()
            for p, precision in self.CASES:
                d = es.invert_moments(ms, p, precision).diagnostics
                keys.add((precision == "extended" and exact,
                          d["p_effective"]))
            assert len(calls) == len(keys)
            want = es.atom_count_cap(ms, 8)
            if exact:
                want += es.atom_count_cap(ms, 8, 1e-26)
            assert len(calls) == want

    def test_results_do_not_share_the_table(self):
        """Mutating a result's atoms, dropped atoms and residuals leaves
        the next result for the same rule equal to a fresh sequence's."""
        ms = es.analytic_moments(es.Rectangle(1, 2.5), 17)
        for p, precision in self.CASES:
            am = es.invert_moments(ms, p, precision)
            am.atoms.append((1.0, 1.0))
            am.atoms[0] = (2.0, 2.0)
            am.diagnostics["dropped_atoms"].append((-1.0, 1.0))
            am.diagnostics["moment_residuals"][0] = 1.0
            am.diagnostics["moment_residuals"].append(1.0)
            assert inversion(ms, p, precision) == \
                inversion(fresh(ms), p, precision)

    def test_one_recurrence_run_per_moment_source(self, monkeypatch):
        """A sequence inverted at p = 1..8 in both precisions runs the
        Chebyshev algorithm once per moment list (twice with mu_exact, once
        without) and takes one SVD per balanced section."""
        runs, svds = [], []
        chebyshev, svd = stieltjes._chebyshev, stieltjes.np.linalg.svd
        monkeypatch.setattr(stieltjes, "_chebyshev",
                            lambda mu, p: runs.append(p) or chebyshev(mu, p))
        monkeypatch.setattr(stieltjes.np.linalg, "svd",
                            lambda *a, **k: svds.append(1) or svd(*a, **k))
        for spec in table_specs():
            ms = es.analytic_moments(spec, 17)
            del runs[:], svds[:]
            for p, precision in self.CASES:
                es.invert_moments(ms, p, precision)
            assert len(runs) == (1 if ms.mu_exact is None else 2)
            assert len(svds) == (ms.n_max + 1) // 2

    def test_sequences_keep_tables_of_their_own(self):
        """A sequence made from the A of an inverted one, with other exact
        moments or a doubled A_n, inverts and caps as a fresh sequence of
        its contents does, and leaves the first one's answers alone."""
        ms = es.analytic_moments(es.Interval(0, 1), 17)
        before = [inversion(ms, p, prec) for p, prec in self.CASES]
        exact = list(ms.mu_exact)
        exact[5] *= 1 + Fraction(1, 10 ** 6)
        near = fresh(ms, mu_exact=exact)
        after = [inversion(near, p, prec) for p, prec in self.CASES]
        assert after != before
        assert after == [inversion(fresh(near), p, prec)
                         for p, prec in self.CASES]
        for p_max in (8, 3):
            A = list(ms.A)
            A[2 * p_max - 2] *= 2
            doubled = fresh(ms, A=A)
            for floor in (None, 1e-26):
                assert es.atom_count_cap(doubled, p_max, floor) == \
                    es.atom_count_cap(fresh(doubled), p_max, floor)
        assert [inversion(ms, p, prec) for p, prec in self.CASES] == before

    def test_cached_inversion_error_matches_uncached(self):
        """Exact moments 2^n - 1/2 have a negative pivot at k = 1 under a
        cap of 3 from the float moments: every p above 1 raises the
        uncached message, and p = 1 still inverts."""
        ms = fresh(es.analytic_moments(es.Interval(0, 1), 9),
                   mu_exact=[Fraction(2) ** n - Fraction(1, 2)
                             for n in range(10)])
        assert es.atom_count_cap(ms, 3, 1e-26) == 3
        for p in (3, 2, 1, 3, 2):
            got = inversion(ms, p, "extended")
            assert got == inversion(fresh(ms), p, "extended")
            if p > 1:
                assert got == (f"H0 numerically rank deficient at p={p} "
                               f"(pivot k=1); reduce p")

    def test_repeated_caps_match_per_section_oracle(self, interval_pde_512):
        """Mixed p_max and floors on one sequence: the table holds every
        section from the first call, whatever its p_max, and answers every
        later call."""
        calls = [(p_max, floor) for p_max in range(0, 13)
                 for floor in (None, 2.3e-16, 1e-26, 1e-9, 1e-3)]
        random.Random(3).shuffle(calls)
        for ms in (es.analytic_moments(es.Rectangle(1, 2.5), 25),
                   interval_pde_512[0]):
            ms = fresh(ms)
            base = stieltjes._noise_floor(ms)
            for p_max, floor in calls:
                want = oracles.atom_count_cap_per_section(
                    ms.mu, p_max, base if floor is None else floor)
                assert es.atom_count_cap(ms, p_max, floor) == want

    def test_cap_diagnostics(self):
        """diagnostics["cap"] holds the decision: the floor, the threshold
        and sigma_min of sections 1..p, whose largest passing p is the
        effective one."""
        ms = es.analytic_moments(es.Rectangle(1, 2.5), 17)
        for p, precision in self.CASES:
            diagnostics = es.invert_moments(ms, p, precision).diagnostics
            cap = diagnostics["cap"]
            assert cap["floor"] == 2.3e-16
            assert cap["threshold"] == stieltjes.CAP_SAFETY * 2.3e-16
            assert len(cap["sigma_min"]) == p
            assert diagnostics["p_effective"] == max(
                q for q, s in enumerate(cap["sigma_min"], 1)
                if s >= cap["threshold"])
        ms = es.analytic_moments(es.Interval(0, 1), 17)
        cap = es.invert_moments(ms, 8, "extended").diagnostics["cap"]
        assert cap["floor"] == 1e-26


class TestMeasure:
    def test_total_mass_and_moment(self):
        am = es.AtomicMeasure([(1.5, 2.0), (0.5, 1.0)])
        assert am.total_mass() == pytest.approx(3.0)
        assert am.moment(2) == pytest.approx(4.5 + 0.25)
        with pytest.raises(ValueError):
            es.AtomicMeasure([(0.5, 1.0), (1.5, 2.0)])  # must decrease in x
        with pytest.raises(ValueError):
            es.AtomicMeasure([(1.5, -2.0)])

    @pytest.mark.parametrize("atom", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
        (-math.inf, 1.0), (1.0, -math.inf)],
        ids=["x-nan", "x-inf", "w-nan", "w-inf", "x-minus-inf", "w-minus-inf"])
    def test_non_finite_atom_raises_naming_it(self, atom):
        """A NaN or infinite atom would give a NaN mass and NaN heat
        content downstream; it fails at construction, ahead of the order
        check, so a NaN among others is named too."""
        message = rf"^atoms must be positive and finite, got \({atom[0]}, " \
                  rf"{atom[1]}\)$"
        with pytest.raises(ValueError, match=message):
            es.AtomicMeasure([atom])
        with pytest.raises(ValueError, match=message):
            es.AtomicMeasure([(4.0, 1.0), atom, (1e-3, 1.0)])

    def test_csv_row_with_nan_raises(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("x,w\n2,0.5\nnan,0.25\n0.5,0.125\n")
        with pytest.raises(ValueError, match=r"got \(nan, 0.25\)"):
            es.AtomicMeasure.from_csv(path)

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

    @pytest.mark.parametrize("p", [1, 8])
    @pytest.mark.parametrize("kind", [list, tuple, np.asarray])
    def test_reconstruct_heat_content_bits(self, p, kind):
        """q is bit-equal to a sum formed over numpy scalar times, whatever
        sequence carries the times."""
        ms = es.analytic_moments(es.Interval(0, 3.3), 17)
        am = es.invert_moments(ms, p, "extended")
        assert am.diagnostics["p_effective"] == p
        times = [t * am.atoms[0][0] for t in (1e-3, 0.1, 1.0, 3.0, 10.0)]
        curve = es.reconstruct_heat_content(am, kind(times))
        want = np.array([math.fsum(w * math.exp(-t / x) for x, w in am.atoms)
                         for t in np.asarray(times, dtype=float)])
        assert curve.provenance == "reconstructed"
        assert curve.times.tobytes() == np.array(times).tobytes()
        assert curve.q.dtype == np.float64
        assert curve.q.tobytes() == want.tobytes()
