import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exitspec.ddouble import (
    DD, dd_back_solve, dd_cholesky, dd_dot, dd_forward_solve, dd_jacobi_eigh,
    dd_matrix, dd_sum, two_prod, two_sum,
)


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)


@given(a=finite_floats, b=finite_floats)
@settings(max_examples=200, deadline=None)
def test_two_sum_exact(a, b):
    hi, lo = two_sum(a, b)
    assert Fraction(hi) + Fraction(lo) == Fraction(a) + Fraction(b)


# keep magnitudes well clear of the subnormal range, where the error term
# of an exact product transformation itself rounds and exactness is lost:
# nonzero factors of at least 1e-100 keep |a*b| >= 1e-200, far above the
# 1.8e-276 below which two_prod's error term underflows
balanced = st.floats(-1e6, 1e6).map(lambda v: 0.0 if abs(v) < 1e-100 else v)


@given(a=balanced, b=balanced)
@settings(max_examples=200, deadline=None)
def test_two_prod_exact(a, b):
    hi, lo = two_prod(a, b)
    assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)


def frac(x: DD) -> Fraction:
    return Fraction(x.hi) + Fraction(x.lo)


def test_from_fraction_accuracy():
    fr = Fraction(1, 3)
    x = DD.from_fraction(fr)
    assert abs(frac(x) - fr) < Fraction(1, 2 ** 104)


@given(
    p=st.fractions(min_value=-100, max_value=100).filter(lambda f: f != 0),
    q=st.fractions(min_value=-100, max_value=100).filter(lambda f: f != 0),
)
@settings(max_examples=100, deadline=None)
def test_field_ops_track_rationals(p, q):
    x, y = DD.from_fraction(p), DD.from_fraction(q)
    for got, want in [
        (x + y, p + q), (x - y, p - q), (x * y, p * q), (x / y, p / q),
    ]:
        if want == 0:
            assert abs(frac(got)) < Fraction(1, 2 ** 90)
        else:
            assert abs(frac(got) / want - 1) < Fraction(1, 2 ** 90)


def test_pow():
    x = DD.from_fraction(Fraction(3, 7))
    assert frac(x ** 0) == 1
    want = Fraction(3, 7) ** 9
    assert abs(frac(x ** 9) / want - 1) < Fraction(1, 2 ** 90)
    with pytest.raises((ValueError, TypeError)):
        x ** -1


def test_sqrt_squares_back():
    for v in (2.0, 3.0, 1e-8, 12345.678):
        r = DD.from_float(v).sqrt()
        err = abs(frac(r * r) - Fraction(v))
        assert err < Fraction(v) * Fraction(1, 2 ** 95)


def test_comparisons_and_float():
    a, b = DD.from_float(1.5), DD.from_float(2.5)
    assert a < b and a <= b and not b < a
    assert float(b) == 2.5
    assert DD.from_float(1.5) == a
    assert abs(-a) == a


def test_dd_sum_beats_float_sum():
    xs = [1e16, 1.0, -1e16] * 200
    assert float(dd_sum(xs)) == 200.0


def test_dd_dot():
    xs = [DD.from_float(float(i)) for i in range(1, 6)]
    ys = [DD.from_float(2.0)] * 5
    assert float(dd_dot(xs, ys)) == 30.0


def hilbert(n):
    return [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]


def test_cholesky_reconstructs_hilbert():
    H = hilbert(5)
    A = [[DD.from_fraction(v) for v in row] for row in H]
    L = dd_cholesky(A)
    for i in range(5):
        for j in range(5):
            v = dd_sum([L[i][k] * L[j][k] for k in range(min(i, j) + 1)])
            assert abs(frac(v) - H[i][j]) < Fraction(1, 2 ** 80)


def test_triangular_solves():
    H = hilbert(4)
    A = [[DD.from_fraction(v) for v in row] for row in H]
    L = dd_cholesky(A)
    b = [DD.from_float(1.0)] * 4
    y = dd_forward_solve(L, b)
    x = dd_back_solve(L, y)
    # exact solution of H4 x = 1 is integral: (-4, 60, -180, 140)
    want = [-4.0, 60.0, -180.0, 140.0]
    for xi, wi in zip(x, want):
        assert float(xi) == pytest.approx(wi, rel=1e-25, abs=1e-22)


def test_jacobi_eigh_known_matrix():
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    A = dd_matrix([[2.0, 1.0], [1.0, 2.0]])
    eigs, V = dd_jacobi_eigh(A)
    vals = sorted(float(e) for e in eigs)
    assert vals[0] == pytest.approx(1.0, rel=1e-28, abs=1e-28)
    assert vals[1] == pytest.approx(3.0, rel=1e-28)


def test_jacobi_eigh_hilbert_residual():
    H = hilbert(5)
    A = [[DD.from_fraction(v) for v in row] for row in H]
    eigs, V = dd_jacobi_eigh(A)
    n = 5
    # columns of V orthonormal and A V = V diag(eigs), checked in rationals
    for j in range(n):
        col = [V[i][j] for i in range(n)]
        nrm = frac(dd_sum([c * c for c in col]))
        assert abs(nrm - 1) < Fraction(1, 2 ** 70)
        for i in range(n):
            av = frac(dd_sum([A[i][k] * V[k][j] for k in range(n)]))
            lv = frac(eigs[j] * V[i][j])
            assert abs(av - lv) < Fraction(1, 2 ** 70)
    # trace check against the exact rational trace
    tr = sum(H[i][i] for i in range(n))
    assert abs(sum(frac(e) for e in eigs) - tr) < Fraction(1, 2 ** 70)
