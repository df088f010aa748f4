import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jn_zeros

import exitspec as es
from exitspec import moments

import oracles


class TestAnalytic:
    def test_interval_matches_rational_recursion(self):
        """Package closed form vs an independent exact integration of the
        hierarchy; both are exact rationals so equality is literal."""
        ms = es.analytic_moments(es.Interval(0, 1), 9)
        want = oracles.interval_exact_moments(9)
        assert ms.mu_exact is not None
        for k in range(10):
            assert Fraction(ms.mu_exact[k]) == want[k]
            assert ms.mu[k] == pytest.approx(float(want[k]), rel=1e-15)

    def test_interval_scaling(self):
        # tau scales like L^2, so mu_k scales like L^(2k) * L (the mass)
        base = es.analytic_moments(es.Interval(0, 1), 4)
        big = es.analytic_moments(es.Interval(2, 5), 4)
        L = 3.0
        for k in range(5):
            assert big.mu[k] == pytest.approx(base.mu[k] * L ** (2 * k + 1),
                                              rel=1e-13)

    def test_rectangle_first_moment_vs_series(self):
        # the package's closed form against the classical single-sum form,
        # summed in floats: agreement is limited by the oracle's rounding
        ms = es.analytic_moments(es.Rectangle(1.0, 1.0), 2)
        assert ms.A[1] == pytest.approx(oracles.rectangle_exact_moment1(1, 1),
                                        rel=1e-12)
        ms2 = es.analytic_moments(es.Rectangle(2.0, 0.7), 1)
        assert ms2.A[1] == pytest.approx(
            oracles.rectangle_exact_moment1(2.0, 0.7), rel=1e-12)

    def test_rectangle_sides_commute(self):
        """Rectangle(a, b) and Rectangle(b, a) are one domain: the same
        bits of every A_n, and the same lambda_1."""
        for a, b in ((1.0, 2.5), (0.37, 0.8), (1.0, 10.0), (3e-3, 1.7e-3),
                     (1e3, 4e3)):
            ab = es.analytic_moments(es.Rectangle(a, b), 25)
            ba = es.analytic_moments(es.Rectangle(b, a), 25)
            assert [x.hex() for x in ab.A] == [x.hex() for x in ba.A]
            assert ab.lambda1 == ba.lambda1

    def test_disk_closed_forms(self):
        """A_1 = pi R^4/4 and A_2 = pi R^6/6 to one ulp. R^4 and R^6 are
        exact at these radii, so the float formulas round only at the
        product with pi and the division."""
        for R in (1.0, 0.5, 3.0, 1.5 * 2.0 ** -10, 1.25 * 2.0 ** 10):
            ms = es.analytic_moments(es.Disk(R), 2)
            assert ms.A[0] == pytest.approx(math.pi * R ** 2, rel=1e-15)
            a1 = oracles.disk_exact_moment1(R)
            assert abs(ms.A[1] - a1) <= math.ulp(a1)
            # u2 = (R^2-r^2)(3R^2-r^2)/8 integrates to pi R^6/6
            a2 = math.pi * R ** 6 / 6
            assert abs(ms.A[2] - a2) <= math.ulp(a2)

    def test_lambda1_attached(self):
        ms = es.analytic_moments(es.Interval(0, 1), 3)
        assert ms.lambda1 == pytest.approx(math.pi ** 2, rel=1e-14)

    def test_negative_n_max_rejected(self):
        tables = dict(moments._BALL)
        for spec in (es.Interval(0, 1), es.Rectangle(1, 2), es.Disk(1)):
            with pytest.raises(ValueError, match="n_max"):
                es.analytic_moments(spec, -1)
        assert moments._BALL == tables
        assert es.analytic_moments(es.Interval(0, 1), 0).A == (1.0,)
        assert es.analytic_moments(es.Disk(1), 0).A == (math.pi,)


SPECS = [es.Interval(0, 1), es.Interval(2, 2.37), es.Disk(1), es.Disk(0.3)]


def fingerprint(spec, n_max):
    ms = es.analytic_moments(spec, n_max)
    return ms.A, ms.mu, ms.mu_exact, ms.lambda1


def test_tables_do_not_depend_on_call_history(monkeypatch):
    """The scale-free ball tables only grow, and a call reads a prefix: a
    small request after a large one gives what it gives on empty tables."""
    monkeypatch.setattr(moments, "_BALL", {})
    small = [fingerprint(spec, 4) for spec in SPECS]
    assert {d: len(t) for d, (_, t) in moments._BALL.items()} == {1: 5, 2: 5}
    for spec in SPECS:
        fingerprint(spec, 21)
    assert {d: len(t) for d, (_, t) in moments._BALL.items()} == {1: 22,
                                                                  2: 22}
    assert [fingerprint(spec, 4) for spec in SPECS] == small


def test_returned_moments_do_not_alias_the_tables():
    """The exact moments handed out are a tuple, so no caller can write
    through them into the ball tables."""
    for spec in (es.Interval(0, 1), es.Interval(0, 3), es.Disk(1),
                 es.Disk(0.3)):
        want = es.analytic_moments(spec, 6).mu_exact
        got = es.analytic_moments(spec, 6).mu_exact
        with pytest.raises(TypeError):
            got[0] = Fraction(-1)
        assert not hasattr(got, "append")
        assert es.analytic_moments(spec, 6).mu_exact == want


def test_tables_grow_safely_under_threads(monkeypatch):
    """Threads that grow the interval and disk tables at once each get
    their own full prefix, whichever of them stores its table last."""
    monkeypatch.setattr(moments, "_BALL", {})
    pi = Fraction(math.pi)
    want = [(es.Interval(0, 1), oracles.interval_exact_moments(24)),
            (es.Disk(1), [pi * m for m in oracles.disk_exact_moments(24)])]
    jobs = [(spec, 3 + (7 * i) % 22, mu) for i in range(24)
            for spec, mu in want]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda job: es.analytic_moments(
                job[0], job[1]).mu_exact, jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (_, n, mu), g in zip(jobs, got):
        assert g == tuple(mu[:n + 1])


@pytest.mark.parametrize("spec, d, dilate", [
    (es.Interval(0, 1), 1, lambda c: es.Interval(0, c)),
    (es.Rectangle(1, 1.3), 2, lambda c: es.Rectangle(c, 1.3 * c)),
    (es.Rectangle(1, 10), 2, lambda c: es.Rectangle(c, 10 * c)),
    (es.Disk(1), 2, lambda c: es.Disk(c))],
    ids=["interval", "rectangle", "thin-rectangle", "disk"])
def test_analytic_moments_follow_dilations(spec, d, dilate):
    """Dilating the domain by c = 2^k scales A_n by c^(2n+d) and lambda_1
    by c^-2: no table may carry a scale of its own."""
    base = es.analytic_moments(spec, 15)
    for k in range(-10, 11):
        c = 2.0 ** k
        ms = es.analytic_moments(dilate(c), 15)
        for n, (a, a0) in enumerate(zip(ms.A, base.A)):
            assert a == pytest.approx(a0 * c ** (2 * n + d), rel=1e-14)
        assert ms.lambda1 == pytest.approx(base.lambda1 / c ** 2, rel=1e-14)


@pytest.mark.parametrize("k", range(-3, 4))
def test_series_moments_match_fsum_oracle(k):
    """Rectangle moments against converged references: 40-digit closed
    forms summed over the other side's modes for n = 1 and 2, and for
    n >= 3 math.fsum over a table whose dropped tail is 16 times smaller
    than the package's. A_1 is within 1e-15 and A_2 within 4e-15; every
    later A_n is n! times the reference mu_n or a neighbouring float, as
    the package's correctly rounded sum is within one ulp of it. A longer
    sequence extends a shorter one."""
    c = 10.0 ** k
    for ar in (1.0, 1.7, 2.5, 4.0, 10.0):
        spec = es.Rectangle(c, ar * c)
        want = oracles.rectangle_moments(c, ar * c, 25)
        ms = es.analytic_moments(spec, 25)
        assert ms.A[0] == want[0] == spec.volume()
        assert ms.A[1] == pytest.approx(want[1], rel=1e-15, abs=0)
        assert ms.A[2] == pytest.approx(2 * want[2], rel=4e-15, abs=0)
        for n in range(3, 26):
            w = want[n]
            assert ms.A[n] in {m * math.factorial(n) for m in (
                math.nextafter(w, 0), w, math.nextafter(w, math.inf))}, \
                (spec, n)
        for n_max in (0, 1, 2, 3, 9, 17):
            assert es.analytic_moments(spec, n_max).A == ms.A[:n_max + 1]


@pytest.mark.parametrize("k", range(-3, 4))
def test_disk_moments_match_exact_oracle(k):
    """Disk moments are exact: mu_exact is Fraction(pi) R^(2n+2) times the
    oracle's integration of the radial hierarchy, literally, each A_n is
    that mu_n correctly rounded times n!, and lambda_1 is scipy's j_{0,1}
    squared over R^2."""
    R = 0.37 * 10.0 ** k
    pi, want = Fraction(math.pi), oracles.disk_exact_moments(25)
    j01 = float(jn_zeros(0, 1)[0])
    for n_max in (1, 9, 17, 25):
        ms = es.analytic_moments(es.Disk(R), n_max)
        exact = tuple(pi * Fraction(R) ** (2 * n + 2) * m
                      for n, m in enumerate(want[:n_max + 1]))
        assert ms.mu_exact == exact
        assert ms.A == tuple(float(m) * math.factorial(n)
                             for n, m in enumerate(exact))
        assert ms.lambda1 == j01 * j01 / R ** 2


def _umath():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                           # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath


def avx512_dispatch_groups():
    """The AVX-512 groups numpy dispatches to on this CPU, as
    NPY_DISABLE_CPU_FEATURES names them; empty without AVX-512."""
    umath = _umath()
    return [g for g in umath.__cpu_dispatch__
            if (g == "X86_V4" or g.startswith("AVX512"))
            and umath.__cpu_features__.get(g)]


def series_digest():
    """sha256 of the bits of rectangle moments, a thin one among them."""
    h = hashlib.sha256()
    for spec in (es.Rectangle(1.0, 2.5), es.Rectangle(0.37, 0.8),
                 es.Rectangle(1e3, 4e3), es.Rectangle(1.0, 10.0)):
        h.update(" ".join(a.hex() for a in es.analytic_moments(spec, 25).A)
                 .encode())
    return h.hexdigest()


# a fresh interpreter, the only place NPY_DISABLE_CPU_FEATURES acts
DISPATCH_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_moments import _umath, avx512_dispatch_groups, series_digest
print(json.dumps([series_digest(), avx512_dispatch_groups(),
                  sorted(_umath().__cpu_dispatch__)]))
"""


def test_series_moments_do_not_depend_on_simd_dispatch():
    """Rectangle moments hash the same with numpy's AVX-512 loops
    switched off: every table term comes from correctly rounded
    operations, which no SIMD kernel set changes, and the first two
    orders from scalar math.exp, which numpy does not dispatch."""
    groups = avx512_dispatch_groups()
    if not groups:
        pytest.skip("numpy dispatches no AVX-512 group on this CPU")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"),
               NPY_DISABLE_CPU_FEATURES=" ".join(groups))
    out = subprocess.run([sys.executable, "-c", DISPATCH_PROBE, str(tests)],
                         env=env, capture_output=True, text=True, check=True)
    digest, still_on, dispatch = json.loads(out.stdout)
    assert still_on == [] and set(groups) <= set(dispatch), out.stdout
    assert digest == series_digest()


class TestPde:
    def test_interval_convergence_order(self):
        errs = []
        for h in (1 / 64, 1 / 128, 1 / 256):
            ms = es.pde_moments(es.Interval(0, 1), h, 1)[0]
            errs.append(abs(ms.A[1] - 1 / 6))
        # second order in h
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_fields_are_positive_and_ordered(self, interval_pde_512):
        ms, fields, grid = interval_pde_512
        # fields[k] is u_{k+1}
        u1 = fields[0].values
        assert u1.min() > 0
        # mean exit time peaks at the midpoint: x(1-x) = 1/4
        assert u1.max() == pytest.approx(1 / 4, rel=1e-4)
        assert len(fields) == 9

    def test_moment_sequence_from_fields(self, interval_pde_512):
        ms, fields, grid = interval_pde_512
        rebuilt = es.moment_sequence(fields, lambda1=ms.lambda1)
        assert rebuilt.A[1:] == pytest.approx(ms.A[1:], rel=1e-15)
        assert rebuilt.provenance == "pde"

    def test_square_matches_analytic(self, square_pde):
        ms = square_pde[0]
        ref = es.analytic_moments(es.Rectangle(1, 1), 8)
        for k in range(1, 9):
            assert ms.A[k] == pytest.approx(ref.A[k], rel=2e-2)

    def test_disk_radial_matches_analytic(self, disk_pde):
        ms = disk_pde[0]
        ref = es.analytic_moments(es.Disk(1), 8)
        for k in range(1, 9):
            assert ms.A[k] == pytest.approx(ref.A[k], rel=1e-4)

    @pytest.mark.parametrize("spec, h", [
        (es.Interval(0, 1), 1 / 512),
        (es.Rectangle(1, 1), 1 / 64),
        (es.Rectangle(1, 2.5), 1 / 64),
        (es.Disk(1), 1 / 256),
        (es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), 1 / 64),
    ], ids=["interval", "square", "rectangle", "radial-disk", "l-polygon"])
    def test_recursion_is_the_lanczos_gauss_rule(self, spec, h):
        """mu_n = <s, S^-n s> with s = W^{1/2} 1, so 8 Lanczos steps on S^-1
        from s give a Gauss rule that integrates x^n, n <= 15, exactly. The
        recursion's moments must match it to rounding, not merely to the
        discretization error the criteria check (Golub & Meurant 2010)."""
        from exitspec.discrete_ops import lanczos
        from exitspec.stieltjes import _golub_welsch
        ms, _, grid = es.pde_moments(spec, h, 15)
        op = es.assemble_half_laplacian(grid)
        steps = list(itertools.islice(lanczos(op.factor(0.0).solve,
                                              op.sqrtw), 8))
        beta = [float(op.sqrtw @ op.sqrtw)] + [b * b for _, b in steps[:-1]]
        x, w = map(np.array, _golub_welsch([a for a, _ in steps], beta))
        for n in range(16):
            gauss = math.fsum(w * x ** n)
            assert abs(gauss - ms.mu[n]) <= 1e-13 * ms.mu[n], n


def test_validate_rejects_bad_sequences(capfd):
    """A non-finite A_n is rejected at construction, before any LAPACK
    call can complain on stderr; a nonpositive one is named by validate()
    and the inversion, and left to the PSD check's eigenvalue test."""
    with pytest.raises(ValueError):
        es.MomentSequence([1.0, -0.5], "pde").validate()
    A = list(es.analytic_moments(es.Interval(0, 1), 5).A)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="A_3 = .* is not finite"):
            es.MomentSequence(A[:3] + [bad] + A[4:], "pde")
    for bad in (0.0, -0.25):
        ms = es.MomentSequence(A[:3] + [bad] + A[4:], "pde")
        with pytest.raises(ValueError, match="A_3 = .* is not positive"):
            ms.validate()
        for precision in ("standard", "extended"):
            with pytest.raises(ValueError, match="A_3"):
                es.invert_moments(ms, 3, precision)
        assert not es.hankel_psd_check(ms, 3)["pass"]
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25, 0.0])
def test_checks_name_the_list_they_read(bad, capfd):
    """The checks name the list that holds the bad entry. A bad
    mu_exact_3 is rejected at construction when it is not finite; a
    nonpositive one is named by both inversions, since validate() covers
    every list, while the PSD check, which reads mu, passes."""
    ms = es.analytic_moments(es.Interval(0, 1), 9)
    exact = list(ms.mu_exact)
    exact[3] = bad
    args = (ms.A, "analytic", ms.lambda1)
    if not math.isfinite(bad):
        with pytest.raises(ValueError, match="mu_exact_3 = .* not finite"):
            es.MomentSequence(*args, mu_exact=exact)
    else:
        ms = es.MomentSequence(*args, mu_exact=exact)
        for precision in ("standard", "extended"):
            with pytest.raises(ValueError,
                               match="mu_exact_3 = .* not positive"):
                es.invert_moments(ms, 3, precision)
        assert es.hankel_psd_check(ms, 3)["pass"]
    assert capfd.readouterr().err == ""


class TestReadOnly:
    """A sequence is read-only and checked once, at construction."""

    def test_entries_cannot_be_assigned_or_rebound(self):
        ms = es.analytic_moments(es.Interval(0, 1), 5)
        mc = es.MomentSequence(ms.A, "montecarlo", stderr=[0.0] * 6)
        for seq, name in ((ms, "A"), (ms, "mu"), (ms, "mu_exact"),
                          (mc, "stderr")):
            value = getattr(seq, name)
            assert type(value) is tuple
            with pytest.raises(TypeError):
                value[1] = 0.5
            with pytest.raises(AttributeError, match="read-only"):
                setattr(seq, name, list(value))
        with pytest.raises(AttributeError, match="read-only"):
            ms.lambda1 = 1.0
        assert ms.A == es.analytic_moments(es.Interval(0, 1), 5).A

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_rejected_at_construction(self, bad):
        ms = es.analytic_moments(es.Interval(0, 1), 5)
        A = list(ms.A)
        A[2] = bad
        with pytest.raises(ValueError,
                           match=re.escape(f"A_2 = {bad} is not finite")):
            es.MomentSequence(A, "pde")
        exact = list(ms.mu_exact)
        exact[4] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"mu_exact_4 = {bad} is not finite")):
            es.MomentSequence(ms.A, "analytic", mu_exact=exact)

    @pytest.mark.parametrize("stderr, message", [
        ((0, 0.05, math.nan, 0.1), "stderr_2 = nan is not finite"),
        ((0, 0.05, 0.1, math.nan), "stderr_3 = nan is not finite"),
        ((0, 0.05, math.inf, 0.1), "stderr_2 = inf is not finite"),
        ((0, 0.05), "stderr has 2 entries, not 4"),
        ((0, -0.05, 0.1, 0.1), "stderr_1 = -0.05 is negative"),
    ])
    def test_bad_stderr_is_rejected_at_construction(self, stderr, message):
        """stderr needs one finite, nonnegative entry per order: the cap's
        noise floor is the largest stderr_n / A_n, and a max over a NaN
        ignores it or returns it by where it sits."""
        with pytest.raises(ValueError, match=re.escape(message)):
            es.MomentSequence((1, 0.5, 0.5, 0.75), "montecarlo",
                              stderr=stderr)

    def test_underflowing_mu_is_named(self):
        """A positive A_3 whose mu_3 = A_3/3! underflows to 0 passes the
        construction, and the checks that read mu name mu_3."""
        A = [1.0, 0.5, 0.25, 5e-324, 0.1, 0.05, 0.02, 0.01]
        ms = es.MomentSequence(A, "pde", lambda1=1.0)
        assert ms.A[3] > 0 and ms.mu[3] == 0.0
        for check in (lambda: es.invert_moments(ms, 2),
                      lambda: es.carleman_diagnostic(ms)):
            with pytest.raises(ValueError, match="mu_3 = 0.0 is not positive"):
                check()


def test_lambda1_estimated_from_tail():
    # without an explicit value, 2 n A_{n-1} / A_n estimates lambda_1
    ms = es.MomentSequence(es.analytic_moments(es.Interval(0, 1), 8).A,
                           "analytic")
    assert ms.lambda1 == pytest.approx(math.pi ** 2, rel=1e-4)


@pytest.mark.parametrize("a1", [0.0, -0.0, -0.5, math.nan, math.inf])
def test_bad_moment_is_named_not_divided_by(a1):
    """The lambda_1 estimate needs a positive tail; without one it stays
    None, and the checks name the bad moment. A non-finite one is named
    at construction."""
    if not math.isfinite(a1):
        with pytest.raises(ValueError, match="A_1 = .* not finite"):
            es.MomentSequence([1.0, a1], "pde")
        return
    ms = es.MomentSequence([1.0, a1], "pde")
    assert ms.lambda1 is None
    for check in (ms.validate, lambda: es.carleman_diagnostic(ms)):
        with pytest.raises(ValueError, match="A_1 = "):
            check()


def test_csv_round_trip(tmp_path, interval_pde_512):
    ms = interval_pde_512[0]
    path = tmp_path / "moments.csv"
    ms.to_csv(path)
    back = es.MomentSequence.from_csv(path, provenance=ms.provenance,
                                      lambda1=ms.lambda1)
    assert back.A == pytest.approx(ms.A, rel=1e-16)
    assert back.n_max == ms.n_max


def test_carleman_diagnostic():
    for spec in (es.Interval(0, 1), es.Disk(1.0)):
        ms = es.analytic_moments(spec, 8)
        rep = es.carleman_diagnostic(ms)
        assert rep["holds"]
        assert all(m >= -1e-9 for m in rep["margins"])
    bad = es.MomentSequence([1.0, 0.2, 0.1], "analytic", lambda1=-1.0)
    with pytest.raises(ValueError):
        es.carleman_diagnostic(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_carleman_diagnostic_checks_mu(bad):
    """A bad A_4 is named, at construction when it is not finite, and so
    is a positive A_4 whose mu_4 underflows to 0, not read into a NaN or
    -1 margin."""
    A = list(es.analytic_moments(es.Interval(0, 1), 8).A)
    A[4] = bad
    if not math.isfinite(bad):
        with pytest.raises(ValueError, match="A_4 = .* not finite"):
            es.MomentSequence(A, "analytic")
    else:
        with pytest.raises(ValueError, match="A_4 = .* not positive"):
            es.carleman_diagnostic(es.MomentSequence(A, "analytic"))
    A[4] = 5e-324
    with pytest.raises(ValueError, match="mu_4 = 0.0 is not positive"):
        es.carleman_diagnostic(es.MomentSequence(A, "analytic"))


def test_log_convexity_of_normalized_moments():
    # Stieltjes moment sequences are log-convex: mu_n^2 <= mu_{n-1} mu_{n+1}
    for spec in (es.Interval(0, 1), es.Rectangle(1, 2), es.Disk(1.0)):
        mu = es.analytic_moments(spec, 9).mu
        for n in range(1, 9):
            assert mu[n] ** 2 <= mu[n - 1] * mu[n + 1] * (1 + 1e-13)


def test_laplace_transform_nodal_values():
    g = es.build_grid(es.Interval(0, 1), 1 / 256)
    s = 1.0
    f = es.laplace_transform(g, s)
    x = np.asarray(g.nodes, dtype=float)
    r = math.sqrt(2 * s)
    exact = np.cosh(r * (x - 0.5)) / math.cosh(r / 2)
    assert np.abs(f.values - exact).max() < 1e-4
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="s must be >= 0"):
            es.laplace_transform(g, bad)


@given(n=st.integers(1, 12))
@settings(max_examples=12, deadline=None)
def test_rational_recursion_agrees_at_any_depth(n):
    got = es.analytic_moments(es.Interval(0, 1), n).mu_exact
    want = oracles.interval_exact_moments(n)
    assert [Fraction(g) for g in got] == want
