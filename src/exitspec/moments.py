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

from .geometry import Interval, Rectangle, Disk, DomainSpec, Grid, build_radial_grid
from .discrete_ops import (Field, SolverError, assemble_half_laplacian,
                           exact_sum, integrate, solve_poisson)


class MomentSequence:
    """Invariants A_0..A_{n_max} and normalized moments mu_n = A_n/n!.

    provenance is one of {"pde", "analytic", "montecarlo"}; lambda1 is the
    estimate of the principal eigenvalue used by diagnostics. mu_exact, when
    present, carries the same moments as exact fractions (the interval and
    disk closed forms) for the extended-precision inversion path.
    """

    def __init__(self, A, provenance, lambda1=None, mu_exact=None, stderr=None):
        self.A = [float(a) for a in A]
        self.n_max = len(self.A) - 1
        self.mu = [a / math.factorial(n) for n, a in enumerate(self.A)]
        self.provenance = provenance
        self.mu_exact = mu_exact
        self.stderr = stderr
        if lambda1 is None and self.n_max >= 1:
            # A_{n+1}/((n+1) A_n) decreases to 2/lambda_1 from above; bad
            # moments leave it None, for validate() to name them
            n = self.n_max
            prev, last = self.A[n - 1], self.A[n]
            if 0 < prev < math.inf and 0 < last < math.inf:
                lambda1 = 2.0 * n * prev / last
        self.lambda1 = lambda1

    def validate(self, positive=True):
        """Raise ValueError naming the first A_n that is not finite or, when
        positive, not positive."""
        for n, a in enumerate(self.A):
            if not math.isfinite(a):
                raise ValueError(f"A_{n} = {a} is not finite")
            if positive and a <= 0:
                raise ValueError(f"A_{n} = {a} is not positive")

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("n,A_n,mu_n\n")
            for n, (a, m) in enumerate(zip(self.A, self.mu)):
                fh.write(f"{n},{a:.17g},{m:.17g}\n")

    @staticmethod
    def from_csv(path, provenance="pde", lambda1=None):
        A = {}
        with open(path) as fh:
            header = fh.readline().strip()
            if header.split(",")[:2] != ["n", "A_n"]:
                raise ValueError(f"{path}: expected header n,A_n,mu_n")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                A[int(parts[0])] = float(parts[1])
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


def carleman_diagnostic(ms: MomentSequence, eps_tol: float = 1e-9):
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
        mu2n = ms.mu[2 * n]
        if mu2n <= 0:
            raise ValueError(f"mu_{2*n} = {mu2n} is not positive")
        lhs = mu2n ** (-1.0 / (2 * n))
        rhs = (ms.lambda1 / 2.0) * ms.A[0] ** (-1.0 / (2 * n))
        margins.append(lhs / rhs - 1.0)
        n += 1
    return {"holds": all(m >= -eps_tol for m in margins), "margins": margins}


def laplace_transform(grid: Grid, s: float, tol: float = 1e-11) -> Field:
    """h(x, s) = E^x[exp(-s tau)]: solve (1/2) Delta h = s h, h = 1 on boundary.

    Implemented through w = 1 - h with zero boundary: (-(1/2)Delta + s) w = s.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0.0:
        return Field.ones(grid)
    op = assemble_half_laplacian(grid)
    w = solve_poisson(op, Field(grid, np.full(grid.n, float(s))), tol=tol,
                      shift=s).values
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
    """mu_0..mu_{n_max} of the d-ball of unit size, as a fresh list of
    exact rationals: the interval (0, 1), radius 1/2, for d = 1, and the
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
    return list(table[:n_max + 1])


def analytic_moments(spec: DomainSpec, n_max: int) -> MomentSequence:
    """Closed-form moment sequence for interval, rectangle, or disk.

    The interval and the disk, balls of dimension d = 1 and 2, carry exact
    moments in mu_exact: their length L or radius R to the power 2n + d
    times those of the ball of unit size (see _ball_c), with Fraction(pi)
    for pi in the disk's. A_n is the correctly rounded mu_n times n!.

    The rectangle sums its 200 x 200 odd tensor modes, with mu_0 pinned to
    the exact area (the n >= 1 sums converge rapidly, the mass sum does
    not). That table truncates A_1 by 1.2e-8 relative on the unit square
    and 2.5e-8 at 1 x 2.5 (against the tanh series of A_1 with 4000
    terms), A_2 by 1e-13, and A_n with n >= 3 not beyond rounding. Each
    order's terms are the previous order's times r = 2/lambda, from a^2 at
    order 0, and each sum is correctly rounded. IEEE multiplication is
    correctly rounded under every numpy SIMD dispatch, where numpy's
    vectorized pow is not, so the series moments do not depend on the CPU.

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
        K = 399
        i = np.arange(1, K + 1, 2, dtype=float)
        # r = 2/lambda and a^2 of the odd tensor modes, by the float
        # operations of the textbook expressions but in place: two
        # 200 x 200 arrays where the expressions build six
        r = i[:, None] ** 2 / spec.Lx ** 2 + i[None, :] ** 2 / spec.Ly ** 2
        r *= np.pi ** 2
        np.divide(2.0, r, out=r)
        a2 = i[:, None] ** 2 * i[None, :] ** 2
        a2 *= np.pi ** 4
        np.divide(64.0 * spec.Lx * spec.Ly, a2, out=a2)
        mu = [spec.volume()]
        for n in range(1, n_max + 1):
            a2 *= r                     # now order n's terms, a^2 r^n
            mu.append(exact_sum(a2))
        lam1 = np.pi ** 2 * (1.0 / spec.Lx ** 2 + 1.0 / spec.Ly ** 2)
        A = [m * math.factorial(n) for n, m in enumerate(mu)]
        return MomentSequence(A, "analytic", lambda1=lam1)
    raise ValueError(f"no closed-form moments for {spec!r}")


def pde_moments(spec: DomainSpec, h: float, n_max: int,
                tol: float = 1e-11, radial: bool = True):
    """Convenience pipeline: grid + recursion + integration.

    Disks route through the radial reduction by default (second order);
    pass radial=False to force the stair-step 2D grid.
    """
    from .geometry import build_grid
    if isinstance(spec, Disk) and radial:
        grid = build_radial_grid(spec, h)
    else:
        grid = build_grid(spec, h)
    fields = exit_moment_fields(grid, n_max, tol=tol)
    return moment_sequence(fields), fields, grid
