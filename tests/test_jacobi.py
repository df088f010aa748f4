"""Kernels of the Stieltjes inversion on the Hilbert matrix, the Hankel
matrix of the Lebesgue measure on [0, 1] (mu_n = 1/(n+1)), whose
recurrence and Gauss rule are known in closed form: the Chebyshev-algorithm
recurrence in exact rationals, on exact and on float moments, and the
Golub-Welsch Jacobi-matrix eigensolve that turns it into nodes and weights,
which calls LAPACK's dstevd directly and is checked bit for bit against
scipy's eigh_tridiagonal on random Jacobi matrices. The recurrence is also
checked to be prefix-stable, which lets one run serve every smaller p.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import exitspec as es
from exitspec.stieltjes import InversionError, _golub_welsch, _recurrence


def hilbert_moments(n):
    return [Fraction(1, k + 1) for k in range(n)]


def hilbert(n):
    return [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]


def gauss_legendre_01(p):
    """Gauss-Legendre rule mapped to [0, 1], nodes decreasing."""
    t, w = np.polynomial.legendre.leggauss(p)
    return list((t[::-1] + 1.0) / 2.0), list(w[::-1] / 2.0)


def test_cholesky_reconstructs_hilbert():
    # the monic orthogonal polynomials of the recurrence are the rows of a
    # unit lower-triangular C with C H C^T = diag(beta_0 beta_1 ... beta_k),
    # i.e. H = C^{-1} D C^{-T} is the exact LDL^T (Cholesky) factorization
    n = 5
    H = hilbert(n)
    alpha, beta = _recurrence(hilbert_moments(2 * n), n)
    # shifted Legendre: alpha_k = 1/2, beta_k = k^2 / (4 (4k^2 - 1))
    assert alpha == [Fraction(1, 2)] * n
    assert beta == [Fraction(1)] + [Fraction(k * k, 4 * (4 * k * k - 1))
                                    for k in range(1, n)]
    C = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    prev = [Fraction(0)] * n
    for k in range(n - 1):
        cur = C[k]
        C.append([(cur[i - 1] if i else 0) - alpha[k] * cur[i]
                  - beta[k] * prev[i] for i in range(n)])
        prev = cur
    D = []
    norm = Fraction(1)
    for b in beta:
        norm *= b
        D.append(norm)
    for j in range(n):
        for k in range(n):
            v = sum(C[j][a] * H[a][b] * C[k][b]
                    for a in range(n) for b in range(n))
            assert v == (D[j] if j == k else 0)


def test_float_recurrence_gauss_legendre():
    # the rounded moments 1/(n+1), taken exactly by the recurrence, still
    # give the Gauss-Legendre rule on [0, 1] through Golub-Welsch
    p = 4
    mu = [float(m) for m in hilbert_moments(2 * p)]
    nodes, weights = _golub_welsch(*_recurrence(mu, p))
    want_x, want_w = gauss_legendre_01(p)
    assert nodes == pytest.approx(want_x, rel=1e-11)
    assert weights == pytest.approx(want_w, rel=1e-11)


def signed_moments(n):
    """Float moments of a signed measure; its Hankel sections turn
    indefinite at p = 4."""
    atoms = [(0.5, 2.0), (1.5, 1.0), (2.5, 0.25), (4.0, -0.01)]
    return [math.fsum(w * x ** k for x, w in atoms) for k in range(n)]


PREFIX_CASES = {
    "dyadic-floats": [float(m) for m in hilbert_moments(16)],
    "interval-exact": es.analytic_moments(es.Interval(0, 1), 17).mu_exact,
    # mu_0 and mu_1 are dyadic and mu_2 = 1/3 is not: p = 1 runs unscaled
    # and every larger p through the q-rescaling
    "non-dyadic": hilbert_moments(16),
    "indefinite": signed_moments(12),
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_recurrence_is_prefix_stable(case):
    """alpha_k and beta_k depend only on mu_0..mu_{2k+1}, so the run at the
    largest P holds every p < P as the same Fractions; an indefinite
    sequence fails at the same pivot k at every p above it."""
    mu = PREFIX_CASES[case]
    P = len(mu) // 2
    try:
        alpha, beta = _recurrence(mu, P)
        k = P
    except InversionError as exc:
        k = int(re.search(r"pivot k=(\d+)", str(exc)).group(1))
        alpha, beta = _recurrence(mu, k)
    assert (k < P) == (case == "indefinite")
    assert all(type(c) is Fraction for c in alpha + beta)
    for p in range(1, P + 1):
        if p <= k:
            assert _recurrence(mu, p) == (alpha[:p], beta[:p])
        else:
            with pytest.raises(InversionError,
                               match=rf"at p={p} \(pivot k={k}\)"):
                _recurrence(mu, p)


def test_jacobi_eigh_known_matrix():
    # the Jacobi matrix [[2,1],[1,2]] has eigenvalues 3 and 1 with
    # eigenvectors (1, +-1)/sqrt(2), so both weights are beta_0 / 2
    nodes, weights = _golub_welsch([Fraction(2), Fraction(2)],
                                   [Fraction(1), Fraction(1)])
    assert nodes == pytest.approx([3.0, 1.0], rel=1e-15)
    assert weights == pytest.approx([0.5, 0.5], rel=1e-14)


def test_jacobi_eigh_hilbert_residual():
    p = 5
    mu = hilbert_moments(2 * p)
    alpha, beta = _recurrence(mu, p)
    nodes, weights = _golub_welsch(alpha, beta)
    assert all(a > b for a, b in zip(nodes, nodes[1:]))
    want_x, want_w = gauss_legendre_01(p)
    assert nodes == pytest.approx(want_x, rel=1e-14)
    assert weights == pytest.approx(want_w, rel=1e-13)
    # the rule reproduces mu_0..mu_{2p-1}, checked in rationals
    for k in range(2 * p):
        got = sum(Fraction(w) * Fraction(x) ** k
                  for x, w in zip(nodes, weights))
        assert abs(got / mu[k] - 1) < Fraction(1, 10 ** 13)
    # trace of the Jacobi matrix against the exact rational trace
    assert abs(sum(Fraction(x) for x in nodes) - sum(alpha)) \
        < Fraction(1, 10 ** 14)


def eigh_tridiagonal_rule(alpha, beta):
    """The Gauss rule through scipy's checked wrapper, which picks the same
    LAPACK driver (stevd) for all eigenpairs."""
    import scipy.linalg as sla
    nodes, V = sla.eigh_tridiagonal(np.array([float(a) for a in alpha]),
                                    np.sqrt([float(b) for b in beta[1:]]))
    weights = float(beta[0]) * V[0] ** 2
    return list(nodes[::-1]), list(weights[::-1])


@pytest.mark.parametrize("seed", range(3))
def test_golub_welsch_bits_match_eigh_tridiagonal(seed):
    """dstevd called directly gives the wrapper's nodes and weights bit for
    bit, on random Jacobi matrices of every order up to 64."""
    rng = np.random.default_rng(seed)
    for n in range(1, 65):
        alpha = list(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3))
        beta = list(rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-6, 6))
        got, want = _golub_welsch(alpha, beta), eigh_tridiagonal_rule(alpha, beta)
        assert [[v.hex() for v in part] for part in got] == \
            [[float(v).hex() for v in part] for part in want], n


def test_golub_welsch_raises_on_lapack_failure(monkeypatch):
    # a NaN on the diagonal stops dstevd's iteration (info > 0)
    with pytest.raises(np.linalg.LinAlgError, match="info=2"):
        _golub_welsch([np.nan, 1.0, 2.0], [1.0, 1.0, 1.0])
    import scipy.linalg.lapack as lapack

    def failing(d, e, compute_v):
        return d, np.eye(d.size), -2
    monkeypatch.setattr(lapack, "dstevd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="info=-2"):
        _golub_welsch([1.0, 2.0], [1.0, 1.0])
