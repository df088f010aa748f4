"""Exit-time moment fields u_k = E^x[tau^k], the invariants A_n, normalized
moments mu_n = A_n/n!, the Carleman diagnostic, and the Laplace transform.

The recursion is the probabilist one: (1/2) Delta u_1 = -1 and
(1/2) Delta u_k = -k u_{k-1}, all with zero boundary values, so that
A_n = integral of u_n and mu_n = A_n / n! is a Stieltjes moment sequence
with atoms at 2/lambda.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .csvtable import read_csv, write_csv
from .geometry import (Interval, Rectangle, Disk, DomainSpec, Grid,
                       build_grid, build_radial_grid)
from .discrete_ops import (Field, SolverError, assemble_half_laplacian,
                           exact_sum, integrate, solve_poisson)


class MomentSequence:
    """Invariants A_0..A_{n_max} and normalized moments mu_n = A_n/n!.

    provenance is one of {"pde", "analytic", "montecarlo"}; lambda1 is the
    estimate of the principal eigenvalue used by diagnostics. mu_exact, when
    present, carries the same moments as exact fractions (the interval and
    disk closed forms) for the extended-precision inversion path.

    A sequence is read-only: A, mu, mu_exact and stderr are tuples, and
    rebinding an attribute raises AttributeError. Its entries are checked
    once, here: a non-finite A_n or mu_exact_n, or a stderr without one
    finite, nonnegative entry per order, raises ValueError, and validate()
    names the first entry of A, mu or mu_exact not positive.
    """

    def __init__(self, A, provenance, lambda1=None, mu_exact=None, stderr=None):
        A = tuple(float(a) for a in A)
        mu = tuple(a / math.factorial(n) for n, a in enumerate(A))
        mu_exact = None if mu_exact is None else tuple(mu_exact)
        bad = None
        for name, seq in (("A", A), ("mu", mu), ("mu_exact", mu_exact or ())):
            for n, a in enumerate(seq):
                if not abs(a) < math.inf:       # a NaN fails it too
                    raise ValueError(f"{name}_{n} = {a} is not finite")
                if bad is None and not a > 0:
                    bad = f"{name}_{n} = {a} is not positive"
        stderr = None if stderr is None else tuple(map(float, stderr))
        if stderr is not None and len(stderr) != len(A):
            raise ValueError(f"stderr has {len(stderr)} entries, not {len(A)}")
        for n, s in enumerate(stderr or ()):
            if not 0 <= s < math.inf:       # a NaN fails it too
                raise ValueError(f"stderr_{n} = {s} is "
                                 + ("negative" if s < 0 else "not finite"))
        n = len(A) - 1
        # A_{n+1}/((n+1) A_n) decreases to 2/lambda_1 from above; a
        # nonpositive tail leaves it None, for validate() to name
        if lambda1 is None and n >= 1 and A[n - 1] > 0 and A[n] > 0:
            lambda1 = 2.0 * n * A[n - 1] / A[n]
        vars(self).update(
            A=A, n_max=n, mu=mu, provenance=provenance, mu_exact=mu_exact,
            stderr=stderr, lambda1=lambda1, _bad=bad)

    def __setattr__(self, name, value):
        raise AttributeError(f"{name}: a MomentSequence is read-only")

    def validate(self):
        """Raise ValueError naming the first entry of A, mu or mu_exact that
        is not positive (mu_n can underflow to 0 where A_n does not)."""
        if self._bad:
            raise ValueError(self._bad)

    def to_csv(self, path):
        write_csv(path, "n,A_n,mu_n", zip(range(len(self.A)), self.A, self.mu))

    @staticmethod
    def from_csv(path, provenance="pde", lambda1=None):
        A = {n: a for n, a, _ in read_csv(path, "n,A_n,mu_n",
                                          (int, float, float))}
        if sorted(A) != list(range(len(A))):
            raise ValueError(f"{path}: moment orders must be 0..n_max contiguous")
        return MomentSequence([A[n] for n in sorted(A)], provenance, lambda1)


def exit_moment_fields(grid: Grid, n_max: int, tol: float = 1e-11):
    """Fields u_1..u_{n_max} by recursive Poisson solves.

    Per-level solver target is tol * max(1, ||rhs||), which keeps recursion
    error below the moment-inversion noise floor.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    op = assemble_half_laplacian(grid)
    fields = []
    prev = Field.ones(grid)
    for k in range(1, n_max + 1):
        rhs = Field(grid, k * prev.values)
        bnorm = math.sqrt(float(np.dot(rhs.values, rhs.values)))
        rel = tol * max(1.0, bnorm) / bnorm
        try:
            u = solve_poisson(op, rhs, tol=rel)
        except SolverError as e:
            raise SolverError(f"moment recursion failed at level {k}: {e}") from e
        lo = float(u.values.min())
        if lo < -1e-8 * max(1.0, float(np.abs(u.values).max())):
            raise SolverError(f"u_{k} has a significantly negative value {lo:g}")
        fields.append(u)
        prev = u
    return fields


def moment_sequence(fields, lambda1=None) -> MomentSequence:
    """A_n = integral of u_n with A_0 the discrete volume."""
    if not fields:
        raise ValueError("need at least u_1")
    grid = fields[0].grid
    A = [integrate(Field.ones(grid))]
    for u in fields:
        A.append(integrate(u))
    return MomentSequence(A, "pde", lambda1)


def carleman_diagnostic(ms: MomentSequence):
    """Check mu_{2n}^{-1/(2n)} >= (lambda1/2) * A_0^{-1/(2n)} for all 2n <= n_max.

    Returns {"holds": bool, "margins": list}; margins are relative,
    mu_{2n}^{-1/(2n)} * A_0^{1/(2n)} * (2/lambda1) - 1, nonnegative when the
    bound holds. This is the testable surrogate for the Carleman condition
    (the true sequence satisfies mu_n <= (2/lambda1)^n A_0).
    """
    ms.validate()
    if ms.lambda1 is None or ms.lambda1 <= 0:
        raise ValueError("carleman_diagnostic needs a positive lambda1 estimate")
    margins = []
    n = 1
    while 2 * n <= ms.n_max:
        lhs = ms.mu[2 * n] ** (-1.0 / (2 * n))
        rhs = (ms.lambda1 / 2.0) * ms.A[0] ** (-1.0 / (2 * n))
        margins.append(lhs / rhs - 1.0)
        n += 1
    return {"holds": all(m >= -1e-9 for m in margins), "margins": margins}


LAPLACE_TOL = 1e-11  # relative residual target of the transform's solve


def laplace_transform(grid: Grid, s: float) -> Field:
    """h(x, s) = E^x[exp(-s tau)]: solve (1/2) Delta h = s h, h = 1 on boundary.

    Implemented through w = 1 - h with zero boundary: (-(1/2)Delta + s) w = s,
    solved to LAPLACE_TOL.
    """
    if not s >= 0:                      # a NaN fails it too
        raise ValueError("s must be >= 0")
    if s == 0.0:
        return Field.ones(grid)
    op = assemble_half_laplacian(grid)
    w = solve_poisson(op, Field(grid, np.full(grid.n, float(s))),
                      tol=LAPLACE_TOL, shift=s).values
    return Field(grid, 1.0 - w)


# ---------------------------------------------------------------------------
# closed-form moment sequences for the separable domains


# the first zero of J_0 as scipy.special.jn_zeros(0, 1) returns it, one
# ulp below the correctly rounded value, so that the disk's lambda1 agrees
# with analytic_spectrum, whose disk zeros come from jn_zeros
_J01 = 2.4048255576957724

# per dimension d, the exact mu_n of the interval (0, 1) or the unit disk,
# with the coefficients of the last field to grow them by. Each table is
# prefix-stable, so it only ever grows, and a call takes a slice.
_BALL = {}


def _ball_c(d, n_max):
    """mu_0..mu_{n_max} of the d-ball of unit size, as a tuple of exact
    rationals: the interval (0, 1), radius 1/2, for d = 1, and the
    unit disk for d = 2, with omega = Fraction(pi) standing for pi.

    On a ball of radius rho, u_n is rho^(2n) sum_j e_j (r/rho)^(2j). With
    c_j the coefficients of u_{n-1}, (1/2) Delta u_n = -n u_{n-1} gives
    e_{j+1} = -n c_j / ((j+1)(2j+d)), and u_n(rho) = 0 gives e_0. Over the
    ball (r/rho)^(2j) integrates to omega rho^d 2/(2j+d) (omega = 1 for
    d = 1), and mu_n = A_n / n!.
    """
    u, table = _BALL.get(d) or ((Fraction(1),), ())
    if len(table) <= n_max:
        omega, rho = (1, Fraction(1, 2)) if d == 1 else (Fraction(math.pi), 1)
        out = list(table)
        for n in range(len(out), n_max + 1):
            if n:
                e = [-n * c / ((j + 1) * (2 * j + d))
                     for j, c in enumerate(u)]
                u = (-sum(e), *e)
            out.append(omega * rho ** (2 * n + d) / math.factorial(n)
                       * sum(2 * c / (2 * j + d) for j, c in enumerate(u)))
        table = tuple(out)
        _BALL[d] = u, table
    return table[:n_max + 1]


# 32 lambda(5) / pi^5, 32 / pi^5, 96 lambda(7) / pi^7, 96 / pi^7 and
# 16 / pi^6, correctly rounded; lambda(s) = (1 - 2^-s) zeta(s) is the sum
# of i^-s over the odd i
_C5, _P5 = 0.1050414793806445, 0.10456843657770834
_C7, _P7 = 0.03179998146780143, 0.03178499329704641
_P6 = 0.016642583572733637


def _rectangle_mu12(a, b):
    """mu_1 and mu_2 of the a x b rectangle, a <= b, with the long side's
    modes summed in closed form.

    Over the odd modes j of (0, b), sum_j w_j / (k + kappa_j) is
    (b - (2/s) tanh(s b/2)) / k with s = sqrt(2k); at k = kappa_i of (0, a),
    s b/2 = x_i/2 with x_i = i pi b/a. Weighting by w_i, and once with its
    derivative in k for mu_2:
      mu_1 = b mu_1(a) - (32 a^4/pi^5) [lambda(5) - S_5],
      mu_2 = b mu_2(a) - (96 a^6/pi^7) [lambda(7) - S_7]
             + (16 a^5 b/pi^6) sum_i sech^2(x_i/2)/i^6,
    with S_s = sum_i (1 - tanh(x_i/2))/i^s and mu_n(a) the interval's exact
    moments. The sums over i fall like e^-x_i with x_i >= i pi; they stop
    at x = 45, where e^-x < 2^-64. Only the constants and the three sums
    round; the rest is exact, and each result rounds once.
    """
    q = math.pi * (b / a)
    s5 = s7 = s6 = 0.0
    for i in range(1, int(45.0 / q) + 2, 2):
        e = math.exp(-i * q)
        t = 2.0 * e / (1.0 + e)                 # 1 - tanh(x_i/2)
        s5 += t / i ** 5
        s7 += t / i ** 7
        s6 += 2.0 * t / (1.0 + e) / i ** 6      # sech^2(x_i/2)
    A, B = Fraction(a), Fraction(b)
    _, m1, m2 = _ball_c(1, 2)
    mu1 = B * m1 * A ** 3 - A ** 4 * (Fraction(_C5) - Fraction(_P5 * s5))
    mu2 = (B * m2 * A ** 5 - A ** 6 * (Fraction(_C7) - Fraction(_P7 * s7))
           + A ** 5 * B * Fraction(_P6 * s6))
    return float(mu1), float(mu2)


def _rectangle_modes(n, q):
    """The least odd K with (pi^2/8) (1 + q)^n K^-(2n+1) / (4n+2) <= 2^-56.

    With q = a^2/b^2, it bounds the terms of order n with i > K of the
    a x b table relative to the (1, 1) term: each is at most
    (1 + q)^n i^-(2n+2) j^-2 of it, the j sum is pi^2/8, and the odd
    i > K sum below the integral of x^-(2n+2)/2 from K. Swapping the sides
    bounds the j > K part. The bound is taken in logarithms, where
    (1 + q)^n cannot overflow at any n.
    """
    p = 2 * n + 1
    c = (math.log(math.pi ** 2 / 8 / (4 * n + 2)) + n * math.log1p(q)
         + 56 * math.log(2.0))          # the bound holds iff p log K >= c
    k = 2 * math.ceil((math.exp(c / p) - 1) / 2) + 1
    while k > 1 and p * math.log(k - 2) >= c:
        k -= 2
    while p * math.log(k) < c:
        k += 2
    return k


def _rectangle_table(a, b, n_max):
    """mu_3..mu_{n_max} of the a x b rectangle, a <= b, from its odd tensor
    modes (i, j), each order's sum correctly rounded.

    Per side L and odd mode i, kappa_i = (pi i/L)^2 / 2 is the eigenvalue of
    -(1/2) d^2/dx^2 and w_i = 4 / (L kappa_i) = 8 L / (pi i)^2 the weight of
    sin(pi i x/L). Order n's terms are t_n = t_{n-1} r from t_0 = w_i w_j,
    r = 1/(kappa_i + kappa_j) = 2/lambda: one correctly rounded
    multiplication each. The table takes _rectangle_modes(3, .) modes per
    side, and each later order a leading block of the one before, sized by
    the same bound, which shrinks with n.
    """
    q = (a / b) ** 2

    def kappa(L, k):
        x = np.arange(1.0, k + 1, 2) * (np.pi / L)
        x *= x
        x *= 0.5
        return x

    ka = kappa(a, _rectangle_modes(3, q))
    kb = kappa(b, _rectangle_modes(3, 1.0 / q))
    t = np.multiply.outer(4.0 / (a * ka), 4.0 / (b * kb))
    r = np.add.outer(ka, kb)
    np.divide(1.0, r, out=r)
    t *= r
    t *= r                              # order 2's terms
    mu = []
    for n in range(3, n_max + 1):
        rows = (_rectangle_modes(n, q) + 1) // 2
        cols = (_rectangle_modes(n, 1.0 / q) + 1) // 2
        t, r = t[:rows, :cols], r[:rows, :cols]
        t *= r                          # now order n's terms
        mu.append(exact_sum(t))
    return mu


def analytic_moments(spec: DomainSpec, n_max: int) -> MomentSequence:
    """Closed-form moment sequence for interval, rectangle, or disk.

    The interval and the disk, balls of dimension d = 1 and 2, carry exact
    moments in mu_exact: their length L or radius R to the power 2n + d
    times those of the ball of unit size (see _ball_c), with Fraction(pi)
    for pi in the disk's. A_n is the correctly rounded mu_n times n!.

    The rectangle, a the shorter side and b the longer, has mu_0 the area.
    mu_1 and mu_2 sum the long side's modes in closed form (see
    _rectangle_mu12): b times the interval's exact moments of a, less
    correctly rounded constants times powers of a, plus sums of scalar
    math.exp terms that fall like e^(-i pi b/a), all rounded once. They are
    within a few ulp: against 40-digit closed forms at aspects 1 to 10 and
    scales 1e-3 to 1e3, mu_1 within 2.1e-16 and mu_2 within 5.6e-16
    relative (the unit square's mu_2 cancels about 2^3). mu_n with n >= 3
    sums the odd tensor modes (see _rectangle_table) over a table sized
    per order so that the dropped terms weigh at most 2^-56 of the sum per
    side; each sum is correctly rounded, so mu_n is within one ulp of the
    sum of the float terms formed here. That is not the exact mu_n: every
    term carries np.pi, 1.2e-16 below pi, to the power -(2n+4), and its
    kappa, w and 1/(kappa_i + kappa_j) each round, so against exact values
    A_n is off by up to 56 ulp (measured on 0.37 x 3.7 at n = 25, and up
    to 7 ulp on the unit square). The terms come from correctly rounded
    +, * and /, which every numpy SIMD dispatch gives alike, where numpy's
    vectorized pow does not, so no rectangle moment depends on numpy's
    dispatch. The sides enter sorted, so Rectangle(a, b) and
    Rectangle(b, a) give the same bits.

    A negative n_max raises ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if isinstance(spec, (Interval, Disk)):
        if isinstance(spec, Interval):
            d, size = 1, spec.b - spec.a
            lam1 = math.pi ** 2 / size ** 2
        else:
            d, size = 2, spec.R
            lam1 = _J01 * _J01 / size ** 2
        exact = _ball_c(d, n_max)
        if size != 1:
            scale = Fraction(size)
            exact = [m * scale ** (2 * n + d) for n, m in enumerate(exact)]
        A = [float(m) * math.factorial(n) for n, m in enumerate(exact)]
        return MomentSequence(A, "analytic", lambda1=lam1, mu_exact=exact)
    if isinstance(spec, Rectangle):
        a, b = sorted((spec.Lx, spec.Ly))
        mu = [spec.volume(), *_rectangle_mu12(a, b)][:n_max + 1]
        if n_max >= 3:
            mu += _rectangle_table(a, b, n_max)
        lam1 = np.pi ** 2 * (1.0 / spec.Lx ** 2 + 1.0 / spec.Ly ** 2)
        A = [m * math.factorial(n) for n, m in enumerate(mu)]
        return MomentSequence(A, "analytic", lambda1=lam1)
    raise ValueError(f"no closed-form moments for {spec!r}")


def pde_moments(spec: DomainSpec, h: float, n_max: int):
    """Convenience pipeline: grid + recursion + integration. Disks take the
    radial reduction (second order), other domains their lattice grid."""
    build = build_radial_grid if isinstance(spec, Disk) else build_grid
    fields = exit_moment_fields(build(spec, h), n_max)
    return moment_sequence(fields), fields, fields[0].grid
