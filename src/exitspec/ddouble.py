"""Software double-double arithmetic (~31 significant digits).

Error-free transformations (two_sum, two_prod with a Dekker split, since
math.fma is unavailable on older interpreters) plus the small dense kernels
needed by the extended-precision Hankel path: Cholesky, forward/backward
substitution, and a cyclic Jacobi eigensolver. Matrices here are tiny
(p <= 8), so everything is plain Python over (hi, lo) pairs.
"""

from __future__ import annotations

import math

_SPLITTER = 134217729.0  # 2^27 + 1


def two_sum(a: float, b: float):
    """s, e with s = fl(a+b) and a+b = s+e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a: float, b: float):
    """Assumes |a| >= |b|. s, e with a+b = s+e exactly."""
    s = a + b
    e = b - (s - a)
    return s, e


def split(a: float):
    """Dekker split into high and low parts with 26 bits each."""
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a: float, b: float):
    """p, e with p = fl(a*b) and a*b = p+e exactly.

    Exact only while |a*b| stays clear of the subnormal range: the bits of
    the error term e reach down to about 2^-106 |a*b|, so e rounds once
    those fall below the smallest normal double 2^-1022, that is for
    |a*b| below about 2^-916 = 1.8e-276 (a = b = 3.08e-148 is such a case).
    Overflow of a*b or of the splitting is likewise excluded.
    """
    p = a * b
    ahi, alo = split(a)
    bhi, blo = split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


class DD:
    """Unevaluated sum hi + lo with |lo| <= ulp(hi)/2."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi=0.0, lo=0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    @staticmethod
    def from_float(x):
        return DD(float(x), 0.0)

    @staticmethod
    def from_fraction(fr):
        """Exact two-float decomposition of a rational (range permitting)."""
        hi = float(fr)
        from fractions import Fraction
        lo = float(fr - Fraction(hi))
        return DD(hi, lo)

    def __float__(self):
        return self.hi + self.lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __abs__(self):
        return -self if self.hi < 0 or (self.hi == 0 and self.lo < 0) else self

    def __add__(self, other):
        if not isinstance(other, DD):
            other = DD.from_float(other)
        s, e = two_sum(self.hi, other.hi)
        e += self.lo + other.lo
        s, e = quick_two_sum(s, e)
        return DD(s, e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, DD):
            other = DD.from_float(other)
        return self + (-other)

    def __rsub__(self, other):
        return DD.from_float(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, DD):
            other = DD.from_float(other)
        p, e = two_prod(self.hi, other.hi)
        e += self.hi * other.lo + self.lo * other.hi
        p, e = quick_two_sum(p, e)
        return DD(p, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DD):
            other = DD.from_float(other)
        # long division with two correction terms
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        q3 = r.hi / other.hi
        s, e = quick_two_sum(q1, q2)
        e += q3
        s, e = quick_two_sum(s, e)
        return DD(s, e)

    def __rtruediv__(self, other):
        return DD.from_float(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("DD ** only supports nonnegative int exponents")
        out = DD(1.0, 0.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __lt__(self, other):
        if not isinstance(other, DD):
            other = DD.from_float(other)
        return self.hi < other.hi or (self.hi == other.hi and self.lo < other.lo)

    def __le__(self, other):
        return self < other or self == other

    def __eq__(self, other):
        if not isinstance(other, DD):
            other = DD.from_float(other)
        return self.hi == other.hi and self.lo == other.lo

    def __hash__(self):
        return hash((self.hi, self.lo))

    def sqrt(self):
        if self.hi < 0:
            raise ValueError("sqrt of negative double-double")
        if self.hi == 0:
            return DD(0.0, 0.0)
        s0 = math.sqrt(self.hi)
        # one Newton step in dd: s = s0 + (x - s0^2) / (2 s0)
        s = DD.from_float(s0)
        return s + (self - s * s) / (2.0 * s0)


def dd_sum(values):
    acc = DD(0.0, 0.0)
    for v in values:
        acc = acc + (v if isinstance(v, DD) else DD.from_float(v))
    return acc


def dd_dot(xs, ys):
    acc = DD(0.0, 0.0)
    for x, y in zip(xs, ys):
        xd = x if isinstance(x, DD) else DD.from_float(x)
        acc = acc + xd * y
    return acc


def dd_matrix(rows):
    """Deep-copy a nested list into DD entries."""
    return [[v if isinstance(v, DD) else DD.from_float(v) for v in row] for row in rows]


def dd_cholesky(A):
    """Lower Cholesky factor of a symmetric positive definite DD matrix.

    Raises ArithmeticError when a pivot is nonpositive (numerically
    rank-deficient input).
    """
    n = len(A)
    L = [[DD(0.0, 0.0) for _ in range(n)] for _ in range(n)]
    for j in range(n):
        d = A[j][j] - dd_dot(L[j][:j], L[j][:j])
        if float(d) <= 0.0:
            raise ArithmeticError(f"cholesky pivot {j} nonpositive: {float(d):.3e}")
        L[j][j] = d.sqrt()
        for i in range(j + 1, n):
            L[i][j] = (A[i][j] - dd_dot(L[i][:j], L[j][:j])) / L[j][j]
    return L

def dd_forward_solve(L, b):
    """Solve L y = b, L lower triangular."""
    n = len(L)
    y = [DD(0.0, 0.0)] * n
    for i in range(n):
        y[i] = (b[i] - dd_dot(L[i][:i], y[:i])) / L[i][i]
    return y


def dd_back_solve(L, y):
    """Solve L^T x = y, L lower triangular."""
    n = len(L)
    x = [DD(0.0, 0.0)] * n
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s = s - L[k][i] * x[k]
        x[i] = s / L[i][i]
    return x


def dd_jacobi_eigh(A, max_sweeps=60, tol=1e-30):
    """Eigenvalues and eigenvectors of a symmetric DD matrix by cyclic Jacobi.

    Returns (eigenvalues list, V) with columns of V the eigenvectors,
    unsorted. tol is relative to the Frobenius norm of the diagonal.
    """
    n = len(A)
    A = [[DD(v.hi, v.lo) for v in row] for row in A]
    V = [[DD(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    if n == 1:
        return [A[0][0]], V

    def off_norm():
        return math.sqrt(sum(float(A[i][j]) ** 2
                             for i in range(n) for j in range(n) if i != j))

    scale = math.sqrt(sum(float(A[i][i]) ** 2 for i in range(n))) or 1.0
    for _ in range(max_sweeps):
        if off_norm() <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p][q]
                if float(abs(apq)) <= 1e-120:
                    continue
                # rotation angle from the 2x2 block, computed in dd
                theta = (A[q][q] - A[p][p]) / (apq * 2.0)
                # t = sign(theta) / (|theta| + sqrt(1 + theta^2))
                t = 1.0 / (abs(theta) + (DD(1.0) + theta * theta).sqrt())
                if float(theta) < 0:
                    t = -t
                c = 1.0 / (DD(1.0) + t * t).sqrt()
                s = t * c
                for k in range(n):
                    akp, akq = A[k][p], A[k][q]
                    A[k][p] = c * akp - s * akq
                    A[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = A[p][k], A[q][k]
                    A[p][k] = c * apk - s * aqk
                    A[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = V[k][p], V[k][q]
                    V[k][p] = c * vkp - s * vkq
                    V[k][q] = s * vkp + c * vkq
    return [A[i][i] for i in range(n)], V
