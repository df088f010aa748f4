"""Discrete generator -(1/2)Delta_h with Dirichlet conditions, direct solves
through one cached sparse LU per shift, low eigenpairs, quadrature, and a
Lanczos kernel whose Jacobi matrices give Gauss rules for quadratic forms
<s, f(A) s> of a map A the caller applies, with the Golub-Welsch solve
that turns a Jacobi matrix into its Gauss rule (the moment inversion uses
it too).

One exact-sum kernel, exact_sum, serves every sum over a grid- or
series-sized array: quadrature here, the heat curve's q_0 in analysis, the
closed-form series in moments and the grid volume in spectral. It returns
math.fsum's correctly rounded float, bit for bit.

Everything is built around a symmetrized representation. With W the diagonal
of quadrature weights and M the operator in node space, the matrix

    S = W^{1/2} M W^{-1/2}

is symmetric positive definite for both grid kinds (for lattice grids W is a
multiple of the identity and S equals M; for the radial finite-volume scheme
W M is symmetric by construction). Solves and eigensolves run on S in the
variable z = W^{1/2} u, where the quadrature inner product is the plain dot
product. Eigenvalues of S are lambda/2 under the probabilist convention.

Each grid keeps the one operator assemble_half_laplacian builds for it, so
the operator and the factors it caches live as long as the grid. Lattice
neighbours and Field.value_at both go through Grid.locate, so only geometry
knows how lattice points are keyed.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .geometry import Grid


class SolverError(RuntimeError):
    pass


class Field:
    """One real value per interior grid node."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"field length {values.shape} != node count {grid.n}")
        self.grid = grid
        self.values = values

    @staticmethod
    def ones(grid):
        return Field(grid, np.ones(grid.n))

    @staticmethod
    def zeros(grid):
        return Field(grid, np.zeros(grid.n))

    def value_at(self, coord):
        """Value at the node nearest to coord on the lattice h*Z^d (for
        radial grids, the ring nearest to radius coord); KeyError where
        that lattice point is not an interior node."""
        c = np.atleast_1d(np.asarray(coord, dtype=float))
        i = self.grid.locate(np.rint(c / self.grid.h))
        if i < 0:
            raise KeyError(f"{coord} is not an interior node")
        return float(self.values[i])


class DiscreteOperator:
    """Sparse symmetric form of -(1/2)Delta_h on a grid (Dirichlet eliminated)."""

    def __init__(self, grid, sym, weights):
        # weak, because the grid keeps its operator: a strong reference back
        # is a cycle that holds the LU factors until the cyclic gc runs
        self._grid = weakref.ref(grid)
        self.sym = sym.tocsr()
        self.w = np.asarray(weights, dtype=float)
        self.sqrtw = np.sqrt(self.w)
        self._factors = {}
        self._norm_inf = None

    def factor(self, shift=0.0):
        """Sparse LU of S + shift * I, built on first use and cached per shift.

        Every solve on this operator goes through one of these factors: the
        Poisson and Laplace solves, the Crank-Nicolson steps and the
        shift-invert eigensolve.

        SuperLU runs with the MMD ordering of A^T + A and small supernodes
        (relax = panel_size = 1). Its defaults (10, 20) suit large 3-D
        problems with multithreaded BLAS. On these 5-point lattices with one
        BLAS thread the small setting factors about 40 % faster at 4k nodes
        and 10-25 % faster at 200k, with the same ordering and so the same
        fill of L + U; solve times stay within measurement noise.
        """
        lu = self._factors.get(shift)
        if lu is None:
            import scipy.sparse as sparse
            import scipy.sparse.linalg as splinalg
            A = self.sym
            if shift != 0.0:
                A = A + shift * sparse.eye(self.n, format="csr")
            lu = splinalg.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                               relax=1, panel_size=1)
            self._factors[shift] = lu
        return lu

    @property
    def grid(self):
        return self._grid()

    @property
    def n(self):
        return self.sym.shape[0]

    def apply(self, u):
        """Node-space operator: M u = W^{-1/2} S W^{1/2} u."""
        return (self.sym @ (u * self.sqrtw)) / self.sqrtw

    def norm_inf(self):
        if self._norm_inf is None:
            self._norm_inf = float(np.max(np.abs(self.sym).sum(axis=1)))
        return self._norm_inf

    def dump_coo(self, path):
        """Node-space matrix in `row col value` coordinate text format."""
        coo = self.sym.tocoo()
        with open(path, "w") as fh:
            for r, c, v in zip(coo.row, coo.col, coo.data):
                m = v * self.sqrtw[c] / self.sqrtw[r]
                fh.write(f"{r} {c} {m:.17g}\n")


def assemble_half_laplacian(grid: Grid) -> DiscreteOperator:
    """Standard 3-point (1D) / 5-point (2D) stencil scaled by 1/(2 h^2).

    Neighbors come from grid.locate, axis 0 first and the -1 step before
    the +1 step; those outside the interior contribute zero (Dirichlet).
    Radial grids get the finite-volume flux form of (1/2)(u'' + u'/r) with
    the symmetric regularization u'(0) = 0; the returned matrix is the
    symmetrized S.
    Later calls for the same grid return the operator the first one built.
    """
    if grid._operator is not None:
        return grid._operator
    import scipy.sparse as sparse
    n, h = grid.n, grid.h
    if grid.kind == "radial":
        # flux through the face at r_{i+1/2}; the factor pi (not 2 pi)
        # carries the probabilist 1/2; the last node's outer face leads to the
        # Dirichlet ghost at r = R, so it enters the diagonal only
        face = (grid.nodes + h / 2.0) * math.pi / h
        inward = np.concatenate(([0.0], face[:-1]))
        WM = sparse.diags([-face[:-1], face + inward, -face[:-1]], [-1, 0, 1],
                          shape=(n, n), format="csr")
        inv_sqrt = 1.0 / np.sqrt(grid.weights)
        S = sparse.diags(inv_sqrt) @ WM @ sparse.diags(inv_sqrt)
    else:
        c = 1.0 / (2.0 * h * h)
        d = grid.lattice.shape[1]
        rows, cols = [np.arange(n)], [np.arange(n)]
        vals = [np.full(n, 2 * d * c)]
        for step in np.eye(d, dtype=np.int64):
            for nb in (grid.locate(grid.lattice - step),
                       grid.locate(grid.lattice + step)):
                hit = nb >= 0
                rows.append(np.flatnonzero(hit))
                cols.append(nb[hit])
                vals.append(np.full(int(hit.sum()), -c))
        S = sparse.coo_matrix((np.concatenate(vals),
                               (np.concatenate(rows), np.concatenate(cols))),
                              shape=(n, n))
    grid._operator = DiscreteOperator(grid, S, grid.weights)
    return grid._operator


def solve_poisson(op: DiscreteOperator, rhs: Field, tol: float = 1e-10,
                  shift: float = 0.0) -> Field:
    """Solve (M + shift) u = rhs with ||(M + shift) u - rhs|| <= tol * ||rhs||
    in node space, through the operator's cached factor of S + shift.

    The contract saturates at the backward-stable floor eps*||A||*||u||: for
    fine grids ||A|| ~ 1/h^2 makes very small relative tolerances physically
    meaningless in double precision, so residuals at that floor count as
    converged no matter what tol asks for. A solve that misses the contract
    gets one refinement step from the same factor before SolverError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if shift < 0:
        raise ValueError("shift must be >= 0")
    bnorm = math.sqrt(float(np.dot(rhs.values, rhs.values)))
    if bnorm == 0.0:
        return Field.zeros(op.grid)
    lu = op.factor(shift)
    z = lu.solve(rhs.values * op.sqrtw)    # z-space right-hand side W^{1/2} b
    eps = np.finfo(float).eps
    for refine in (True, False):
        u = z / op.sqrtw
        res = rhs.values - op.apply(u) - shift * u
        rnorm = math.sqrt(float(np.dot(res, res)))
        floor = (8.0 * eps * (op.norm_inf() + shift)
                 * math.sqrt(float(np.dot(u, u))))
        if rnorm <= max(tol * bnorm, floor):
            return Field(op.grid, u)
        if refine:
            z = z + lu.solve(res * op.sqrtw)
    raise SolverError(f"solve missed tol={tol:g} and the backward-stable "
                      f"floor after refinement (residual {rnorm:.3g})")


def lanczos(apply, start):
    """Lanczos recurrence of a symmetric map, started from start.

    Yields (alpha_j, beta_{j+1}) after step j, one apply per step, without
    reorthogonalization: alpha_0..alpha_{m-1} on the diagonal and
    beta_1..beta_{m-1} off it make the Jacobi matrix whose Gauss rule,
    with beta_0 = ||start||^2, integrates polynomials of degree up to
    2m - 1 against the spectral measure of start (Golub & Meurant 2010).
    A zero beta means the Krylov space is invariant and ends the recurrence.
    """
    q_prev = np.zeros_like(start)
    q = start / math.sqrt(float(start @ start))
    b = 0.0
    while True:
        w = apply(q) - b * q_prev
        a = float(q @ w)
        w -= a * q
        b = math.sqrt(float(w @ w))
        yield a, b
        if b == 0.0:
            return
        q_prev, q = q, w / b


def _golub_welsch(alpha, beta):
    """Nodes (decreasing) and weights of the Gauss rule of the Jacobi
    matrix with diagonal alpha and off-diagonal sqrt(beta_1..): its
    eigenvalues, and beta_0 times the squared first eigenvector
    components (Golub & Welsch 1969).

    One call of LAPACK's dstevd, the driver eigh_tridiagonal picks for all
    eigenpairs, without that wrapper's input checks: the entries are finite
    by construction. A 1 x 1 matrix is its own eigensolve, and a nonzero
    LAPACK info raises LinAlgError."""
    from scipy.linalg.lapack import dstevd
    d = np.array([float(a) for a in alpha])
    e = np.sqrt([float(b) for b in beta[1:]])
    if d.size == 1:
        nodes, V = d, np.ones((1, 1))
    else:
        nodes, V, info = dstevd(d, e, compute_v=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"LAPACK dstevd failed on the Jacobi matrix (info={info})")
    weights = float(beta[0]) * V[0] ** 2
    return list(nodes[::-1]), list(weights[::-1])


EXACT_SUM_SLICE = 1 << 26  # terms per bincount; keeps every bucket sum exact


def _fixed_point(m, k, buckets):
    """The exact sum of the terms m 2^(e0 + k), from frexp significands m
    and bucket indices k in [0, buckets), as an int in units of 2^(e0 - 53)."""
    total = 0
    for s in range(0, m.size, EXACT_SUM_SLICE):
        lo = m[s:s + EXACT_SUM_SLICE] * 2.0 ** 26
        hi = np.floor(lo)
        lo -= hi
        lo *= 2.0 ** 27
        ks = k[s:s + EXACT_SUM_SLICE].astype(np.intp)
        his = np.bincount(ks, weights=hi, minlength=buckets).tolist()
        los = np.bincount(ks, weights=lo, minlength=buckets).tolist()
        acc = 0
        for b in range(buckets - 1, -1, -1):
            acc = (acc << 1) + (int(his[b]) << 27) + int(los[b])
        total += acc
    return total


def _round(total, e0):
    """The float nearest total 2^(e0 - 53), ties to even, as fsum rounds."""
    # int / int and float(int) round once, half to even
    if e0 >= 53:
        return float(total << (e0 - 53))
    return total / (1 << (53 - e0))


def exact_sum(values) -> float:
    """Correctly rounded sum of a float array: math.fsum(values), bit for bit.

    Each term m 2^e (0.5 <= |m| < 1) splits into integers hi = floor(m 2^26)
    and lo = m 2^53 - hi 2^27 in [0, 2^27), so that the term is
    (hi 2^27 + lo) 2^(e - 53). One bincount per part adds them per exponent
    in float64, exactly while a slice holds at most 2^26 terms; the buckets
    then fold into one Python int, which is rounded once (Demmel & Hida 2003,
    Accurate and efficient floating point summation). Non-finite terms, and
    magnitudes where fsum could overflow midway, go to math.fsum itself, so
    NaN, inf, ValueError and OverflowError behave as there.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return 0.0
    top, bottom = float(x.max()), float(x.min())    # NaN propagates
    if not (math.isfinite(top) and math.isfinite(bottom)):
        return math.fsum(x)
    if math.frexp(max(top, -bottom))[1] + x.size.bit_length() > 1022:
        return math.fsum(x)
    m, e = np.frexp(x)
    e0 = int(e.min())
    return _round(_fixed_point(m, e - e0, int(e.max()) - e0 + 1), e0)


def integrate(f: Field) -> float:
    """Quadrature sum(f * weight), correctly rounded."""
    return exact_sum(f.values * f.grid.weights)


def inner(f: Field, g: Field) -> float:
    """Quadrature inner product of two fields on one grid."""
    return exact_sum(f.values * g.values * f.grid.weights)


def lowest_eigenpairs(op: DiscreteOperator, m: int, tol: float = 1e-7):
    """Lowest m eigenpairs of the generator by shift-invert Lanczos.

    ARPACK runs on S^{-1} through the operator's shift-0 factor, from a fixed
    seeded start vector, so repeated calls are bit-identical. Returned
    eigenvalues follow the positive-Laplacian convention: lambda = 2 *
    (matrix eigenvalue of S). Fields are orthonormal under grid quadrature.
    Residual contract, relative so that it holds at every scale (S scales as
    c^-2 under a dilation by c, and so does the attainable residual):
    ||(S - theta) z|| <= tol * theta per pair, theta = lambda/2, ||z|| = 1.
    """
    n = op.n
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > n - 2:
        raise SolverError(f"m={m} needs more than the {n} grid nodes")
    import scipy.sparse.linalg as splinalg
    lu = op.factor(0.0)
    OPinv = splinalg.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(7042).standard_normal(n)
    try:
        theta, Z = splinalg.eigsh(op.sym, k=m, sigma=0.0, OPinv=OPinv, v0=v0)
    except splinalg.ArpackError as e:
        raise SolverError(f"eigensolver failed for m={m}: {e}") from e
    idx = np.argsort(theta)
    theta, Z = theta[idx], Z[:, idx]
    rel = np.linalg.norm(op.sym @ Z - Z * theta, axis=0) / theta
    if not np.all(rel <= tol):
        raise SolverError(f"eigensolver residuals relative to theta {rel} "
                          f"above tol={tol}")
    pairs = []
    for i in range(m):
        phi = Z[:, i] / op.sqrtw
        # fix an overall sign so results are reproducible run to run
        k = int(np.argmax(np.abs(phi)))
        if phi[k] < 0:
            phi = -phi
        pairs.append((2.0 * float(theta[i]), Field(op.grid, phi)))
    return pairs
