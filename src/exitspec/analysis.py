"""Heat content q(t) by spectral sum and by time stepping, the zeta function
zeta_D(s) = sum a^2 (2/lambda)^s, the Mellin identity Gamma(N) zeta_D(N) =
A_N / N, and extraction of the small-time asymptotics q(t) ~ sum q_n t^{n/2}.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Grid, DomainSpec
from .discrete_ops import SolverError, assemble_half_laplacian, exact_sum
from .moments import MomentSequence
from .spectral import SpectralData


class HeatContentCurve:
    """Sampled q(t): strictly positive, nonincreasing, q <= volume."""

    def __init__(self, times, q, provenance, tail_bound=0.0):
        times = np.asarray(times, dtype=float)
        q = np.asarray(q, dtype=float)
        if times.ndim != 1 or times.shape != q.shape:
            raise ValueError("times and q must be matching 1D arrays")
        if np.any(times <= 0) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing and positive")
        if provenance not in ("spectral_sum", "timestep", "reconstructed"):
            raise ValueError(f"unknown provenance {provenance!r}")
        self.times = times
        self.q = q
        self.provenance = provenance
        self.tail_bound = float(tail_bound)

    def __len__(self):
        return len(self.times)

    def restrict(self, t_min, t_max):
        mask = (self.times >= t_min) & (self.times <= t_max)
        return HeatContentCurve(self.times[mask], self.q[mask],
                                self.provenance, self.tail_bound)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,q\n")
            for t, v in zip(self.times, self.q):
                fh.write(f"{t:.17g},{v:.17g}\n")

    @staticmethod
    def from_csv(path, provenance="spectral_sum"):
        ts, qs = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("t,"):
                raise ValueError(f"{path}: expected header t,q")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                t, v = line.split(",")
                ts.append(float(t))
                qs.append(float(v))
        return HeatContentCurve(ts, qs, provenance)


class AsymptoticFit:
    """Coefficients q_0..q_N of powers t^{n/2} with least-squares stderr."""

    def __init__(self, coefficients, stderr, residual, window):
        self.coefficients = [float(c) for c in coefficients]
        self.stderr = [float(s) for s in stderr]
        self.residual = float(residual)
        self.window = (float(window[0]), float(window[1]))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("n,q_n,stderr\n")
            for n, (c, s) in enumerate(zip(self.coefficients, self.stderr)):
                fh.write(f"{n},{c:.17g},{s:.17g}\n")


def zeta(sd: SpectralData, s: float) -> float:
    """Truncated zeta_D(s) = sum over clusters of a^2 (2/lambda)^s."""
    if s <= 0:
        raise ValueError("s must be positive")
    if not sd.entries:
        raise ValueError("empty spectral data")
    return math.fsum(a2 * (2.0 / lam) ** s for lam, _, a2 in sd.entries)


def zeta_tail_bound(sd: SpectralData, s: float) -> float:
    """Bound on the dropped tail: (unassigned volume) * (2/lambda_max)^s."""
    vol = sd.volume if sd.volume is not None else sd.total_weight()
    deficit = max(vol - sd.total_weight(), 0.0)
    lam_max = sd.entries[-1][0]
    return deficit * (2.0 / lam_max) ** s


def heat_content_spectral(sd: SpectralData, times) -> HeatContentCurve:
    """q(t) = sum a^2 exp(-lambda t / 2) over the stored clusters.

    The truncation tail is bounded by the unassigned volume (each dropped
    mode contributes at most its weight) and reported on the curve.
    """
    times = np.asarray(times, dtype=float)
    lam = np.array([e[0] for e in sd.entries])
    a2 = np.array([e[2] for e in sd.entries])
    q = np.array([math.fsum(a2 * np.exp(-lam * t / 2.0)) for t in times])
    vol = sd.volume if sd.volume is not None else sd.total_weight()
    deficit = max(vol - sd.total_weight(), 0.0)
    return HeatContentCurve(times, q, "spectral_sum", tail_bound=deficit)


def heat_content_timestep(grid: Grid, times, dt: float) -> HeatContentCurve:
    """Crank-Nicolson on du/dt = (1/2) Delta u, u(0) = 1, Dirichlet zero.

    Startup is Rannacher's: two implicit-Euler half steps, which damp the
    incompatible-corner transients that plain CN propagates. q at requested
    times comes from linear interpolation between adjacent steps.

    Both step kinds solve with I + (dt/2) S = (dt/2) (S + sigma I), sigma =
    2/dt, so one factor serves the run: an Euler half step is
    z <- sigma (S + sigma)^{-1} z and a CN step is z <- 2 sigma (S +
    sigma)^{-1} z - z. Heat sums are formed only on steps that bracket a
    requested time; the maximum-principle check runs on every step.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    times = np.sort(np.asarray(times, dtype=float))
    if times[0] <= 0:
        raise ValueError("times must be positive")
    op = assemble_half_laplacian(grid)
    sigma = 2.0 / dt
    lu = op.factor(sigma)
    sqrtw = op.sqrtw
    z = sqrtw.copy()                               # u = 1
    t = 0.0
    qs = np.empty_like(times)
    zprev, tprev, qprev = z, 0.0, None             # qprev formed on demand

    def record_upto(limit):
        nonlocal zprev, tprev, qprev
        u = z / sqrtw
        # blowup detector, not a positivity assertion: CN is not monotone on
        # the discontinuous start and undershoots by ~1e-5 before Rannacher
        # damping wins, so the band is deliberately loose
        if float(u.max()) > 1.0 + 1e-3 or float(u.min()) < -1e-3:
            raise SolverError("time stepper left [0, 1]: maximum principle broken")
        due = np.where((times > tprev) & (times <= limit + 1e-9 * dt))[0]
        qnow = None
        if len(due):
            if qprev is None:
                qprev = exact_sum(sqrtw * zprev)
            qnow = exact_sum(sqrtw * z)
        for i in due:
            frac = (times[i] - tprev) / (t - tprev) if t > tprev else 1.0
            qs[i] = qprev + frac * (qnow - qprev)
        zprev, tprev, qprev = z, t, qnow

    # Rannacher startup
    for _ in range(2):
        z = sigma * lu.solve(z)
        t += dt / 2.0
    record_upto(t)
    t_end = float(times[-1])
    while t < t_end - 1e-6 * dt:
        z = 2.0 * sigma * lu.solve(z) - z
        t += dt
        record_upto(t)
    # accumulated t may stop a few ulp short of t_end, leaving the last
    # sample in the gap between the loop slack (1e-6 dt) and the record
    # slack (1e-9 dt); close it with the final state. Both slacks scale
    # with dt, so dilating the domain and the times leaves the steps as
    # they are
    if tprev < t_end:
        record_upto(t_end)
    return HeatContentCurve(times, qs, "timestep")


def fit_window(spec: DomainSpec, h: float):
    """Default small-t window for asymptotic fitting.

    Below 4 h^2 the discrete curve is discretization-dominated; above
    0.02 * (vol/|boundary|)^2 * 2 pi the higher-order terms contaminate q_1.
    """
    upper = 0.02 * (spec.volume() / spec.boundary_measure()) ** 2 * 2.0 * math.pi
    return 4.0 * h * h, upper


def asymptotic_fit(curve: HeatContentCurve, N: int = 3) -> AsymptoticFit:
    """Least squares of q(t) against {t^{n/2}}, n = 0..N, on the curve's range."""
    t = curve.times
    q = curve.q
    if len(t) < N + 2:
        raise ValueError(f"need at least {N + 2} samples to fit N={N}")
    B = np.stack([t ** (n / 2.0) for n in range(N + 1)], axis=1)
    scale = np.linalg.norm(B, axis=0)
    Bs = B / scale
    cond = np.linalg.cond(Bs)
    if cond > 1e10:
        raise ValueError(f"fit basis ill-conditioned (cond {cond:.2e}); "
                         "window too wide or too narrow")
    c, _, _, _ = np.linalg.lstsq(Bs, q, rcond=None)
    resid = q - Bs @ c
    rnorm = float(np.linalg.norm(resid))
    dof = max(len(t) - (N + 1), 1)
    sigma2 = rnorm ** 2 / dof
    cov = sigma2 * np.linalg.inv(Bs.T @ Bs)
    stderr = np.sqrt(np.diag(cov)) / scale
    coeff = c / scale
    return AsymptoticFit(coeff, stderr, rnorm, (t[0], t[-1]))


def mellin_numeric(curve: HeatContentCurve, s: float, lambda1: float) -> float:
    """Numeric Mellin transform int q(t) t^{s-1} dt over the sampled range,
    plus an analytic single-mode tail beyond it.

    The unsampled small-t piece is bounded by vol * t_min^s / s; the bound is
    exposed via mellin_small_t_bound for reporting. Requires enough coverage:
    the curve must reach past 1/lambda1.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    t = curve.times
    q = curve.q
    T = t[-1]
    if T < 1.0 / lambda1:
        raise ValueError("curve too short for the requested Mellin transform")
    # trapezoid in the log variable: int g dt = int g(e^y) e^y dy
    y = np.log(t)
    g = q * t ** (s - 1.0) * t
    main = float(np.trapezoid(g, y))
    # single-mode tail: q(t) ~ a1^2 exp(-lambda1 t/2) for t > T
    a1sq = q[-1] * math.exp(lambda1 * T / 2.0)
    x = lambda1 * T / 2.0
    import scipy.special as special
    tail = a1sq * (2.0 / lambda1) ** s * special.gammaincc(s, x) * math.gamma(s)
    return main + tail


def mellin_small_t_bound(curve: HeatContentCurve, s: float, vol: float) -> float:
    return vol * curve.times[0] ** s / s


def verify_identities(ms: MomentSequence, sd: SpectralData, n_max: int):
    """Check Gamma(N) zeta_D(N) = A_N / N for N = 1..n_max.

    Returns a report dict with per-N relative errors; the caller decides the
    tolerance (the identity holds up to moment discretization error plus
    zeta truncation tail).
    """
    if n_max > ms.n_max:
        raise ValueError(f"moment sequence stops at n={ms.n_max}, asked {n_max}")
    rows = []
    for N in range(1, n_max + 1):
        lhs = math.gamma(N) * zeta(sd, N)
        rhs = ms.A[N] / N
        rel = abs(lhs - rhs) / abs(rhs)
        rows.append({"N": N, "gamma_zeta": lhs, "A_over_N": rhs, "rel_err": rel,
                     "zeta_tail": zeta_tail_bound(sd, N)})
    return {"rows": rows, "max_rel_err": max(r["rel_err"] for r in rows)}
