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
moments where the sequence carries them, under a far lower floor. Each
read-only sequence keeps a table of its own: its sections' singular values,
one recurrence run per moment list, which serves every p, and one Gauss
rule per moment list and p_eff, which both precisions share without mu_exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .analysis import HeatContentCurve
from .csvtable import read_csv, write_csv
from .discrete_ops import _golub_welsch
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
        write_csv(path, "x,w", self.atoms)

    @staticmethod
    def from_csv(path):
        atoms = read_csv(path, "x,w", (float, float))
        return AtomicMeasure(sorted(atoms, key=lambda a: -a[0]))


def _hankel(mu, p, shift):
    return np.array([[mu[i + j + shift] for j in range(p)] for i in range(p)])


def _check_p(ms: MomentSequence, p: int):
    """ValueError unless p >= 1 and ms holds mu_0..mu_{2p-1}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if 2 * p > ms.n_max + 1:
        raise ValueError(f"p={p} needs n_max >= {2*p-1}, have {ms.n_max}")


def hankel_psd_check(ms: MomentSequence, p: int):
    """Positive semidefiniteness of H_p = [mu_{i+j}] and the shifted
    H'_p = [mu_{i+j+1}]: the solvability certificate for the Stieltjes
    problem. Pass iff both smallest eigenvalues >= -1e-9 * trace, compared
    in units of the largest diagonal magnitude, so the verdict holds where
    the trace of finite moments overflows (the reported trace is then inf).
    The sequence's moments are finite; nonpositive ones are left to the
    eigenvalue test."""
    _check_p(ms, p)
    report = {"p": p, "pass": True}
    for name, shift in (("H0", 0), ("H1", 1)):
        H = _hankel(ms.mu, p, shift)
        ev = np.linalg.eigvalsh(H)
        diag = np.diag(H)
        m = float(np.abs(diag).max()) or 1.0
        report[name + "_min_eig"] = float(ev[0])
        with np.errstate(over="ignore"):
            report[name + "_trace"] = float(np.trace(H))
        if float(ev[0]) / m < -1e-9 * float(np.sum(diag / m)):
            report["pass"] = False
    return report


def _table(ms: MomentSequence) -> dict:
    """The inversion table of ms, made on first use and dropped with it.
    ms is read-only, so each part is built once and never goes stale."""
    return vars(ms).setdefault("_stieltjes", {})


def _noise_floor(ms: MomentSequence) -> float:
    """The provenance noise floor of ms, raised to its largest relative
    stderr when it carries one."""
    floor = NOISE_FLOOR.get(ms.provenance, 1e-11)
    if ms.stderr is not None:
        rel = max(s / abs(a) for s, a in zip(ms.stderr, ms.A) if a != 0)
        floor = max(floor, rel)
    return floor


def _sigma_mins(ms: MomentSequence) -> list:
    """sigma_min of every balanced section p = 1..(n_max+1)//2 of ms.mu,
    from the table. D is the diagonal, so every balanced section is a
    leading block of the largest one."""
    table = _table(ms)
    if "sigma" not in table:
        top = (ms.n_max + 1) // 2
        # past a nonpositive mu_2k no section balances: NaN, which never passes
        k = next((k for k in range(top) if not ms.mu[2 * k] > 0), top)
        H = _hankel(ms.mu, k, 0)
        d = np.sqrt(np.diag(H))
        B = H / np.outer(d, d)
        table["sigma"] = [float(np.linalg.svd(B[:p, :p], compute_uv=False)[-1])
                          for p in range(1, k + 1)] + [math.nan] * (top - k)
    return table["sigma"]


def atom_count_cap(ms: MomentSequence, p_max: int, floor: float = None) -> int:
    """Largest p <= p_max whose balanced Hankel section is numerically full
    rank: p-th singular value of D^{-1/2} H0 D^{-1/2} (D = diag of H0) above
    CAP_SAFETY times the moment noise floor. Balancing is essential: raw
    Hankel singular values decay with the moment scale itself and would veto
    sections that are perfectly recoverable.

    floor overrides the provenance noise model; pass the arithmetic epsilon
    of the downstream factorization when the moments themselves are exact.

    sigma_min does not depend on the floor, so every section's is computed
    on the first call and kept on the sequence: later calls take no SVD.
    The answer is the largest passing p whatever the pass pattern.
    """
    if floor is None:
        floor = _noise_floor(ms)
    sigma = _sigma_mins(ms)
    for p in range(min(p_max, len(sigma)), 0, -1):
        if sigma[p - 1] >= CAP_SAFETY * floor:
            return p
    return 0


def _chebyshev(mu, p):
    """Three-term recurrence coefficients alpha_0..alpha_{p-1} and
    beta_0..beta_{p-1} of the monic orthogonal polynomials of the measure
    with moments mu_0..mu_{2p-1}, pi_{k+1} = (x - alpha_k) pi_k
    - beta_k pi_{k-1} with beta_0 = mu_0, by Gautschi's Chebyshev
    algorithm in exact rationals (float moments are taken as the dyadic
    rationals they are). At the first nonpositive pivot k it stops and
    returns the k coefficients before it.

    The coefficients are prefix-stable: alpha_k and beta_k depend only on
    mu_0..mu_{2k+1}, and they are exact, so they are the same Fractions
    whatever p (the per-row gcd and the q-rescaling below only rescale
    rows). So invert_moments keeps one run per moment list in the
    sequence's table and reads every smaller p from it.

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
    beta_k q^2 for k > 0 and keep every pivot's sign. The exact moments
    of an interval of length L carry L^(2l+1), and those of a disk of
    radius R carry pi R^(2l+2) with pi the dyadic Fraction(pi); the
    scaling cancels the powers, and the rows stay hundreds of bits long
    instead of thousands. Float moments would only grow by the digits of
    q.
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
            break
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


def _leading(p, alpha, beta):
    """The first p coefficients of a _chebyshev run, or the InversionError
    of the nonpositive pivot it stopped at when that lies below p."""
    k = len(alpha)
    if k < p:
        raise InversionError(f"H0 numerically rank deficient at p={p} "
                             f"(pivot k={k}); reduce p")
    return alpha[:p], beta[:p]


def _recurrence(mu, p):
    """The p recurrence coefficients of mu_0..mu_{2p-1} (see _chebyshev),
    or InversionError at the first nonpositive pivot k < p."""
    return _leading(p, *_chebyshev(mu, p))


def _jacobi(ms: MomentSequence, source: str, p: int, floor: float):
    """The first p recurrence coefficients of ms.mu or ms.mu_exact (source),
    from the table: one _chebyshev run per list, up to its cap over every
    section under floor, which is the same for every call on source, kept
    as floats (float(Fraction) is correctly rounded). Without mu_exact both
    precisions read ms.mu and share it."""
    table = _table(ms)
    if source not in table:
        run = atom_count_cap(ms, (ms.n_max + 1) // 2, floor)
        table[source] = [[float(c) for c in coefs]
                         for coefs in _chebyshev(getattr(ms, source), run)]
    return _leading(p, *table[source])


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
    diagnostics["p_effective"], and the decision in diagnostics["cap"]: the
    floor, the threshold CAP_SAFETY * floor, and sigma_min of the balanced
    sections p = 1..p. The sigma_min, the recurrence coefficients and each
    Gauss rule come from the table on ms; a rule is kept under (moment list,
    p_eff), and a repeated request gets fresh copies of its atoms, dropped
    atoms and residuals. p_requested, precision and cap are each call's own.
    A nonpositive moment raises ValueError naming it (ms.validate()).
    """
    if precision not in ("standard", "extended"):
        raise ValueError(f"unknown precision {precision!r}")
    _check_p(ms, p)
    ms.validate()
    exact = precision == "extended" and ms.mu_exact is not None
    # exact rational moments: the recurrence is exact and only the float64
    # tridiagonal eigensolve rounds, so cap against a floor far below the
    # provenance one (the balanced sigma_min is still measured in doubles,
    # which quietly limits p to sections it can certify)
    floor = 1e-26 if exact else _noise_floor(ms)
    p_eff = atom_count_cap(ms, p, floor)
    if p_eff < 1:
        raise InversionError("moment noise floor leaves no recoverable atoms")
    source = "mu_exact" if exact else "mu"
    table, key = _table(ms), (source, p_eff)
    if key in table:
        atoms, dropped, residuals = table[key]
        am = AtomicMeasure(atoms)
    else:
        nodes, weights = _golub_welsch(*_jacobi(ms, source, p_eff, floor))
        atoms, dropped = [], []
        for x, w in zip(nodes, weights):
            spurious = x <= 0 or w < SPURIOUS_WEIGHT * ms.mu[0]
            (dropped if spurious else atoms).append((x, w))
        atoms.sort(key=lambda a: -a[0])
        am = AtomicMeasure(atoms)
        residuals = [abs(am.moment(n) - ms.mu[n]) / abs(ms.mu[n])
                     for n in range(2 * p_eff)]
        table[key] = tuple(am.atoms), tuple(dropped), tuple(residuals)
    am.diagnostics = {
        "p_requested": p,
        "p_effective": p_eff,
        "precision": precision,
        "dropped_atoms": list(dropped),
        "moment_residuals": list(residuals),
        "max_moment_residual": max(residuals),
        "cap": {"floor": floor, "threshold": CAP_SAFETY * floor,
                "sigma_min": _sigma_mins(ms)[:p]},
    }
    return am


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
