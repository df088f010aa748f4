"""Stieltjes moment inversion: recover the atomic measure psi with
moments mu_n, then eigenvalues lambda = 2/x and weights a^2 from the atoms.

The map is fixed as lambda = 2/x: mu_n = sum a^2 (2/lambda)^n places the
atoms of psi at 2/lambda, which the interval closed form mu_1 = 1/6 pins
down. Conditioning of Hankel sections degrades geometrically in p, so the
atom count is capped from the (diagonally balanced) singular values against
the moment noise floor. One back end recovers the atoms: Gautschi's
Chebyshev algorithm turns the moments into the recurrence coefficients of
the Jacobi matrix in exact rationals, and Golub-Welsch (one float64
tridiagonal eigensolve) gives nodes and weights. The precision only picks
the input moments and the cap's noise floor: "extended" takes the exact
moments where the sequence carries them, under a far lower floor.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .analysis import HeatContentCurve
from .moments import MomentSequence
from .spectral import SpectralData

# relative noise floor of a moment sequence by provenance; pde reflects the
# per-level solver tolerance, analytic the 64-bit rounding of closed forms
NOISE_FLOOR = {"pde": 1e-11, "analytic": 2.3e-16, "montecarlo": 1e-3}
CAP_SAFETY = 1e3
SPURIOUS_WEIGHT = 1e-10


class InversionError(RuntimeError):
    pass


class AtomicMeasure:
    """Atoms (x_j, w_j) with x strictly decreasing, plus recovery diagnostics."""

    def __init__(self, atoms, diagnostics=None):
        atoms = [(float(x), float(w)) for x, w in atoms]
        for (x1, _), (x2, _) in zip(atoms, atoms[1:]):
            if not x1 > x2:
                raise ValueError("atoms must be strictly decreasing in x")
        for x, w in atoms:
            if x <= 0 or w <= 0:
                raise ValueError(f"atoms must be positive, got ({x}, {w})")
        self.atoms = atoms
        self.diagnostics = diagnostics or {}

    @property
    def p(self):
        return len(self.atoms)

    def total_mass(self):
        return math.fsum(w for _, w in self.atoms)

    def moment(self, n):
        return math.fsum(w * x ** n for x, w in self.atoms)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("x,w\n")
            for x, w in self.atoms:
                fh.write(f"{x:.17g},{w:.17g}\n")

    @staticmethod
    def from_csv(path):
        atoms = []
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("x,"):
                raise ValueError(f"{path}: expected header x,w")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                x, w = line.split(",")
                atoms.append((float(x), float(w)))
        atoms.sort(key=lambda a: -a[0])
        return AtomicMeasure(atoms)


def _hankel(mu, p, shift):
    return np.array([[mu[i + j + shift] for j in range(p)] for i in range(p)])


def hankel_psd_check(ms: MomentSequence, p: int, eps_psd: float = 1e-9):
    """Positive semidefiniteness of H_p = [mu_{i+j}] and the shifted
    H'_p = [mu_{i+j+1}]: the solvability certificate for the Stieltjes
    problem. Pass iff both smallest eigenvalues >= -eps_psd * trace.
    Non-finite moments raise ValueError; nonpositive ones are left to the
    eigenvalue test."""
    ms.validate(positive=False)
    if p < 1:
        raise ValueError("p must be >= 1")
    if 2 * p > ms.n_max + 1:
        raise ValueError(f"p={p} needs moments up to 2p-1={2*p-1}, "
                         f"have n_max={ms.n_max}")
    report = {"p": p, "pass": True}
    for name, shift in (("H0", 0), ("H1", 1)):
        H = _hankel(ms.mu, p, shift)
        ev = np.linalg.eigvalsh(H)
        report[name + "_min_eig"] = float(ev[0])
        report[name + "_trace"] = float(np.trace(H))
        if ev[0] < -eps_psd * np.trace(H):
            report["pass"] = False
    return report


def atom_count_cap(ms: MomentSequence, p_max: int, floor: float = None) -> int:
    """Largest p <= p_max whose balanced Hankel section is numerically full
    rank: p-th singular value of D^{-1/2} H0 D^{-1/2} (D = diag of H0) above
    CAP_SAFETY times the moment noise floor. Balancing is essential: raw
    Hankel singular values decay with the moment scale itself and would veto
    sections that are perfectly recoverable.

    floor overrides the provenance noise model; pass the arithmetic epsilon
    of the downstream factorization when the moments themselves are exact.
    """
    if floor is None:
        floor = NOISE_FLOOR.get(ms.provenance, 1e-11)
        if ms.stderr is not None:
            rel = max(s / abs(a) for s, a in zip(ms.stderr, ms.A) if a != 0)
            floor = max(floor, rel)
    # D is the diagonal, so every balanced section is a leading block of
    # the largest one
    top = min(p_max, (ms.n_max + 1) // 2)
    if top < 1:
        return 0
    H = _hankel(ms.mu, top, 0)
    d = np.sqrt(np.diag(H))
    B = H / np.outer(d, d)
    best = 0
    for p in range(1, top + 1):
        sv = np.linalg.svd(B[:p, :p], compute_uv=False)
        if sv[-1] >= CAP_SAFETY * floor:
            best = p
    return best


def _recurrence(mu, p):
    """Three-term recurrence coefficients alpha_0..alpha_{p-1} and
    beta_0..beta_{p-1} of the monic orthogonal polynomials of the measure
    with moments mu_0..mu_{2p-1}, pi_{k+1} = (x - alpha_k) pi_k
    - beta_k pi_{k-1} with beta_0 = mu_0, by Gautschi's Chebyshev
    algorithm in exact rationals (float moments are taken as the dyadic
    rationals they are).

    sigma[l] = <pi_k, x^l> for l = k..2p-k-1. Its pivot sigma[k] =
    <pi_k, pi_k> is the ratio of consecutive Hankel determinants, so a
    nonpositive pivot means H0 is not positive definite. Each row is
    Python-int numerators s over one positive denominator d, sigma = s / d.

    alpha_k and beta_k are ratios within a row and across rows, so d only
    enters beta. With the previous row (r, e), the update
    sigma'[l] = sigma[l+1] - alpha_k sigma[l] - beta_k prev[l], multiplied
    through by s[k] r[k-1], is integer multiply and subtract:
    s'[l] = s[k] r[k-1] s[l+1] - (s[k+1] r[k-1] - r[k] s[k]) s[l]
    - s[k]^2 r[l] over d' = d s[k] r[k-1], reduced by one gcd per row.

    Moments that are not all dyadic (exact rationals, not floats) run as
    those of x q with q = mu_0 / mu_1, mu_l q^l, which give alpha_k q and
    beta_k q^2 for k > 0 and keep every pivot's sign. An interval's exact
    moments carry L^(2l+1) for its length L; the scaling cancels it, and
    the rows stay hundreds of bits long instead of thousands. Float
    moments would only grow by the digits of q.
    """
    n = 2 * p
    ratios = [m.as_integer_ratio() for m in mu[:n]]
    qn = qd = 1
    if (n > 1 and mu[0] > 0 and mu[1] > 0
            and any(b & (b - 1) for _, b in ratios)):
        q = Fraction(mu[0]) / Fraction(mu[1])
        qn, qd = q.as_integer_ratio()
        ratios = [(Fraction(m) * q ** l).as_integer_ratio()
                  for l, m in enumerate(mu[:n])]
    d = math.lcm(*(b for _, b in ratios))
    s = [a * (d // b) for a, b in ratios]
    # the row before the first is sigma_{-1} = 0, with r[-1] = e = 1
    r, e = [0] * n + [1], 1
    alpha, beta = [], []
    for k in range(p):
        sk, rk1 = s[k], r[k - 1]
        if sk <= 0:
            raise InversionError(f"H0 numerically rank deficient at p={p} "
                                 f"(pivot k={k}); reduce p")
        c = s[k + 1] * rk1 - r[k] * sk
        alpha.append(Fraction(c * qd, sk * rk1 * qn))
        beta.append(Fraction(sk * e * qd * qd, d * rk1 * qn * qn) if k
                    else Fraction(sk, d))
        if k == p - 1:
            break
        u, v = sk * rk1, sk * sk
        row = [u * s[l + 1] - c * s[l] - v * r[l]
               for l in range(k + 1, n - k - 1)]
        dn = d * u
        g = math.gcd(dn, *row)
        r, e = s, d
        s, d = [0] * (k + 1) + [x // g for x in row], dn // g
    return alpha, beta


def _golub_welsch(alpha, beta):
    """Nodes (decreasing) and weights of the Gauss rule of the Jacobi
    matrix with diagonal alpha and off-diagonal sqrt(beta_1..): its
    eigenvalues, and beta_0 times the squared first eigenvector
    components."""
    import scipy.linalg as sla
    d = np.array([float(a) for a in alpha])
    e = np.sqrt([float(b) for b in beta[1:]])
    nodes, V = sla.eigh_tridiagonal(d, e)
    weights = float(beta[0]) * V[0] ** 2
    return list(nodes[::-1]), list(weights[::-1])


def invert_moments(ms: MomentSequence, p: int,
                   precision: str = "standard") -> AtomicMeasure:
    """Solve the truncated Stieltjes moment problem for p atoms.

    The moments mu_0..mu_{2p-1} give the three-term recurrence coefficients
    of the Jacobi matrix in exact rationals, and the nodes and weights are
    its Gauss rule from one float64 tridiagonal eigensolve. precision picks
    the input moments and the cap's floor: "extended" takes the exact
    moments when the sequence carries them, against a floor of 1e-26;
    without them both precisions give the same atoms.

    The requested p is capped by atom_count_cap; the effective value is in
    diagnostics["p_effective"].
    """
    if precision not in ("standard", "extended"):
        raise ValueError(f"unknown precision {precision!r}")
    if p < 1:
        raise ValueError("p must be >= 1")
    if 2 * p > ms.n_max + 1:
        raise ValueError(f"p={p} needs n_max >= {2*p-1}, have {ms.n_max}")
    ms.validate()
    exact = precision == "extended" and ms.mu_exact is not None
    if exact:
        # exact rational moments: the recurrence is exact and only the
        # float64 tridiagonal eigensolve rounds, so cap against a floor far
        # below the provenance one (the balanced sigma_min is still
        # measured in doubles, which quietly limits p to sections it can
        # certify)
        cap = atom_count_cap(ms, p, floor=1e-26)
    else:
        cap = atom_count_cap(ms, p)
    if cap < 1:
        raise InversionError("moment noise floor leaves no recoverable atoms")
    p_eff = min(p, cap)
    mu = ms.mu_exact if exact else ms.mu
    nodes, weights = _golub_welsch(*_recurrence(mu, p_eff))

    atoms = []
    dropped = []
    for x, w in zip(nodes, weights):
        if x <= 0 or w < SPURIOUS_WEIGHT * ms.mu[0]:
            dropped.append((x, w))
            continue
        atoms.append((x, w))
    atoms.sort(key=lambda a: -a[0])
    residuals = []
    for n in range(2 * p_eff):
        rec = math.fsum(w * x ** n for x, w in atoms)
        residuals.append(abs(rec - ms.mu[n]) / abs(ms.mu[n]))
    diagnostics = {
        "p_requested": p,
        "p_effective": p_eff,
        "precision": precision,
        "dropped_atoms": dropped,
        "moment_residuals": residuals,
        "max_moment_residual": max(residuals),
    }
    return AtomicMeasure(atoms, diagnostics)


def measure_to_spectrum(am: AtomicMeasure) -> SpectralData:
    """Atoms to (lambda = 2/x, a2 = w); multiplicity 0 marks "unknown"
    (the moment data carries no multiplicity information)."""
    entries = [(2.0 / x, 0, w) for x, w in sorted(am.atoms, key=lambda a: -a[0])]
    return SpectralData(entries, "inverted")


def reconstruct_heat_content(am: AtomicMeasure, times) -> HeatContentCurve:
    """q(t) = sum w_j exp(-t / x_j), the heat content determined by mspec."""
    times = np.asarray(times, dtype=float)
    q = np.array([math.fsum(w * math.exp(-t / x) for x, w in am.atoms)
                  for t in times])
    return HeatContentCurve(times, q, "reconstructed")
