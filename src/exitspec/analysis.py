"""Heat content q(t) by spectral sum and by time stepping, the zeta function
zeta_D(s) = sum a^2 (2/lambda)^s, the Mellin identity Gamma(N) zeta_D(N) =
A_N / N, and extraction of the small-time asymptotics q(t) ~ sum q_n t^{n/2}.

The time-stepped curve is Crank-Nicolson with a Rannacher start. Its q at
steps 2m and 2m + 1 are inner products of one half-length trajectory, so a
run takes about half the solves of stepping the full length; the guard on
that trajectory is CN's energy decay.
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

    In z = W^{1/2} u, with s = W^{1/2} 1 and sigma = 2/dt, the Euler half
    step is E = sigma (S + sigma)^{-1} and a CN step is R = 2 E - I, so one
    factor of S + sigma serves the run. E and R are symmetric functions of
    S, so q after the start and k CN steps, q_k = <s, R^k E^2 s>, is an inner
    product on the half-length trajectory y_0 = E s, y_{m+1} = R y_m:
    q_{2m} = <y_m, y_m> and q_{2m+1} = <y_m, y_{m+1}> (the semigroup identity
    q(2t) = ||u(t)||^2; Golub & Meurant 2010). K steps take ceil(K/2) + 1
    solves, where stepping u itself takes K + 2, and heat sums are formed
    only on steps that bracket a requested time.

    The guard is CN's own stability invariant: E and R are contractions, so
    ||y_m||^2 may not grow from ||s||^2 on. A rise beyond 1e-12 relative, or
    a non-finite energy, raises SolverError naming the step. y_m has had only
    one Euler half step and may dip below zero; the states u themselves are
    not checked pointwise.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    times = np.sort(np.asarray(times, dtype=float))
    if not np.isfinite(times).all() or times[0] <= 0:
        raise ValueError("times must be positive and finite")
    # step times in the float accumulation of a step-by-step run: ts[0] = 0
    # is u = 1, ts[1] = dt ends the Rannacher start (two exact half steps),
    # ts[k + 1] follows CN step k. The loop slack (1e-6 dt) scales with dt,
    # so dilating the domain and the times leaves the steps as they are
    t_end = float(times[-1])
    ts = [0.0, dt]
    while ts[-1] < t_end - 1e-6 * dt:
        ts.append(ts[-1] + dt)
    ts = np.array(ts)
    # each sample interpolates between the states bracketing it, ts[lo] < t
    # <= ts[hi]. A sample the loop slack leaves beyond the last step (a few
    # ulp short of t_end) takes the final state's q
    j = np.searchsorted(ts, times, side="left")
    inside = j < len(ts)
    lo, hi = j[inside] - 1, j[inside]
    need = np.zeros(len(ts), dtype=bool)
    need[lo] = need[hi] = True
    need[-1] |= not inside.all()

    op = assemble_half_laplacian(grid)
    sigma = 2.0 / dt
    lu = op.factor(sigma)
    s = op.sqrtw
    q = np.empty(len(ts))                          # q[k + 1] = q_k
    if need[0]:
        q[0] = exact_sum(s * s)
    n_steps = len(ts) - 2

    def guarded(y, energy, m):
        e = float(y @ y)
        if not e <= energy * (1.0 + 1e-12):        # also catches NaN and inf
            raise SolverError(
                f"time stepper unstable: Crank-Nicolson energy rose from "
                f"{energy:.6g} to {e:.6g} at half-trajectory step {m}")
        return e

    y = sigma * lu.solve(s)                        # y_0 = E s
    energy = guarded(y, float(s @ s), 0)
    for m in range(n_steps // 2 + 1):
        if need[2 * m + 1]:
            q[2 * m + 1] = exact_sum(y * y)
        if 2 * m + 1 > n_steps:
            break
        y_next = 2.0 * sigma * lu.solve(y) - y
        energy = guarded(y_next, energy, m + 1)
        if need[2 * m + 2]:
            q[2 * m + 2] = exact_sum(y * y_next)
        y = y_next

    qs = np.full_like(times, q[-1])
    frac = (times[inside] - ts[lo]) / (ts[hi] - ts[lo])
    qs[inside] = q[lo] + frac * (q[hi] - q[lo])
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
