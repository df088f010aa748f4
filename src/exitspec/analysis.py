"""Heat content q(t) by spectral sum and by time stepping, the zeta function
zeta_D(s) = sum a^2 (2/lambda)^s, the Mellin identity Gamma(N) zeta_D(N) =
A_N / N, and extraction of the small-time asymptotics q(t) ~ sum q_n t^{n/2}.

The time-stepped curve is Crank-Nicolson with a Rannacher start. Its q at
step k is a quadratic form in F = (S + 2/dt)^{-1} S, so it is read off the
Gauss rule of a short Lanczos process on F (one solve per Lanczos step)
instead of stepping; the guard is CN's contraction condition, F's spectrum
in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from .csvtable import read_csv, write_csv
from .geometry import Grid, DomainSpec
from .discrete_ops import (SolverError, _golub_welsch, assemble_half_laplacian,
                           exact_sum, lanczos)
from .moments import MomentSequence
from .spectral import SpectralData


class HeatContentCurve:
    """Sampled q(t): strictly positive, nonincreasing, q <= volume."""

    def __init__(self, times, q, provenance, tail_bound=0.0):
        times = np.asarray(times, dtype=float)
        q = np.asarray(q, dtype=float)
        if times.ndim != 1 or times.shape != q.shape:
            raise ValueError("times and q must be matching 1D arrays")
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        if np.any(times <= 0) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing and positive")
        if provenance not in ("spectral_sum", "timestep", "reconstructed"):
            raise ValueError(f"unknown provenance {provenance!r}")
        self.times = times
        self.q = q
        self.provenance = provenance
        self.tail_bound = float(tail_bound)
        self.diagnostics = {}

    def __len__(self):
        return len(self.times)

    def restrict(self, t_min, t_max):
        mask = (self.times >= t_min) & (self.times <= t_max)
        return HeatContentCurve(self.times[mask], self.q[mask],
                                self.provenance, self.tail_bound)

    def to_csv(self, path):
        write_csv(path, "t,q", zip(self.times, self.q))

    @staticmethod
    def from_csv(path, provenance="spectral_sum"):
        rows = read_csv(path, "t,q", (float, float))
        return HeatContentCurve([t for t, _ in rows], [q for _, q in rows],
                                provenance)


class AsymptoticFit:
    """Coefficients q_0..q_N of powers t^{n/2} with least-squares stderr."""

    def __init__(self, coefficients, stderr, residual, window):
        self.coefficients = [float(c) for c in coefficients]
        self.stderr = [float(s) for s in stderr]
        self.residual = float(residual)
        self.window = (float(window[0]), float(window[1]))

    def to_csv(self, path):
        write_csv(path, "n,q_n,stderr", zip(range(len(self.stderr)),
                                            self.coefficients, self.stderr))


def zeta(sd: SpectralData, s: float) -> float:
    """Truncated zeta_D(s) = sum over clusters of a^2 (2/lambda)^s."""
    if s <= 0:
        raise ValueError("s must be positive")
    if not sd.entries:
        raise ValueError("empty spectral data")
    return math.fsum(a2 * (2.0 / lam) ** s for lam, _, a2 in sd.entries)


def _unassigned_volume(sd: SpectralData) -> float:
    """Volume the stored clusters leave unassigned, 0 when sd carries no
    volume: the weight of every dropped mode together."""
    total = sd.total_weight()
    vol = sd.volume if sd.volume is not None else total
    return max(vol - total, 0.0)


def zeta_tail_bound(sd: SpectralData, s: float) -> float:
    """Bound on the dropped tail: (unassigned volume) * (2/lambda_max)^s."""
    return _unassigned_volume(sd) * (2.0 / sd.entries[-1][0]) ** s


def heat_content_spectral(sd: SpectralData, times) -> HeatContentCurve:
    """q(t) = sum a^2 exp(-lambda t / 2) over the stored clusters.

    The truncation tail is bounded by the unassigned volume (each dropped
    mode contributes at most its weight) and reported on the curve.
    """
    q = [math.fsum(a2 * math.exp(-lam * t / 2.0) for lam, _, a2 in sd.entries)
         for t in np.asarray(times, dtype=float).tolist()]
    return HeatContentCurve(times, q, "spectral_sum",
                            tail_bound=_unassigned_volume(sd))


def heat_content_timestep(grid: Grid, times, dt: float) -> HeatContentCurve:
    """Crank-Nicolson on du/dt = (1/2) Delta u, u(0) = 1, Dirichlet zero.

    Startup is Rannacher's: two implicit-Euler half steps, which damp the
    incompatible-corner transients that plain CN propagates. q at requested
    times comes from linear interpolation between adjacent steps.

    In z = W^{1/2} u, with s = W^{1/2} 1, sigma = 2/dt and
    F = (S + sigma)^{-1} S, the Euler half step is E = I - F and a CN step
    is R = I - 2 F, so one factor of S + sigma serves the run. q after the
    start and k CN steps is the quadratic form
    q_k = <s, (I - 2 F)^k (I - F)^2 s>, a polynomial of degree k + 2 in F
    integrated against the spectral measure of s. Lanczos on F from s (one
    solve per step) gives that measure's Gauss rule, nodes phi_j and
    weights w_j, and q_k = sum w_j (1 - phi_j)^2 (1 - 2 phi_j)^k (Golub &
    Meurant 2010). The sums are formed only for the steps that bracket a
    requested time, from a rule rebuilt every CN_CHECK_EVERY steps. The
    process stops when two successive rules agree to CN_RTOL relative on
    all of them ("converged"); when their agreement, already below the
    rounding floor max(CN_FLOOR, 2 k_max eps), gets worse ("stalled": the
    process runs without reorthogonalization, and past convergence the
    ghost copies of converged Ritz values only add noise, so the rule that
    agreed best is kept); when the rule is exact in exact arithmetic,
    2m - 1 >= k_max + 2 ("exact"); or on an invariant Krylov space
    ("invariant"). So K steps take at most ceil(K/2) + 2 solves, usually
    far fewer. The steps, the stop reason and the last relative change
    between rules are in the curve's diagnostics.

    The guard is CN's contraction condition: F's spectrum lies in [0, 1].
    A Lanczos alpha or a Ritz value outside it by more than 1e-12, or a
    non-finite one, raises SolverError naming the Lanczos step.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    times = np.sort(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("times must not be empty")
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
    s = op.sqrtw
    q = np.empty(len(ts))                          # q[k + 1] = q_k
    if need[0]:
        q[0] = exact_sum(s * s)
    ks = np.flatnonzero(need[1:])
    q[ks + 1], diagnostics = _cn_heat_sums(op, op.factor(2.0 / dt), ks)

    qs = np.full_like(times, q[-1])
    frac = (times[inside] - ts[lo]) / (ts[hi] - ts[lo])
    qs[inside] = q[lo] + frac * (q[hi] - q[lo])
    curve = HeatContentCurve(times, qs, "timestep")
    curve.diagnostics = diagnostics
    return curve


CN_CHECK_EVERY = 4    # Lanczos steps between Gauss rules, or m // 64 if more
CN_RTOL = 1e-14       # agreement of two successive rules that stops Lanczos
CN_FLOOR = 1e-12      # least rounding floor of that agreement
CN_RANGE_TOL = 1e-12  # slack on [0, 1] for alphas and Ritz values of F


def _cn_heat_sums(op, lu, ks):
    """(q_k for the sorted CN steps ks, diagnostics) from the Gauss rule of
    F = (S + sigma)^{-1} S, with lu the factor of S + sigma; see
    heat_content_timestep."""
    s, S = op.sqrtw, op.sym
    k_max = int(ks[-1])
    m_exact = (k_max + 4) // 2          # least m with 2m - 1 >= k_max + 2
    # a Ritz value is good to about eps absolute, which (1 - 2 phi)^k turns
    # into up to 2 k eps relative: the floor below which rules stop agreeing
    floor = max(CN_FLOOR, 2.0 * k_max * np.finfo(float).eps)
    k = ks[:, None].astype(float)
    negate = (ks % 2 == 1)[:, None]
    alpha, beta = [], [float(s @ s)]
    prev, change, check = None, None, CN_CHECK_EVERY

    def outside(x):                     # also true for NaN
        return not -CN_RANGE_TOL <= x <= 1.0 + CN_RANGE_TOL

    for step, (a, b) in enumerate(lanczos(lambda v: lu.solve(S @ v), s)):
        if outside(a) or not math.isfinite(b):
            raise SolverError(
                f"time stepper unstable: Crank-Nicolson is not a "
                f"contraction, Lanczos step {step} has alpha {a:.6g} "
                f"and beta {b:.6g}; alpha must lie in [0, 1]")
        alpha.append(a)
        m = step + 1
        last = m >= m_exact or b == 0.0
        if m < check and not last:
            beta.append(b * b)
            continue
        check = m + max(CN_CHECK_EVERY, m // 64)
        phi, w = map(np.array, _golub_welsch(alpha, beta))
        if outside(phi[-1]) or outside(phi[0]):
            raise SolverError(
                f"time stepper unstable: Crank-Nicolson is not a "
                f"contraction, Lanczos step {step} has Ritz values "
                f"[{phi[-1]:.6g}, {phi[0]:.6g}] outside [0, 1]")
        # (1 - 2 phi)^k as exp(k log|1 - 2 phi|): log1p keeps the small phi
        # of the slow modes accurate, and 1 - 2 phi is exact from phi = 1/4
        # on; an exact zero gives 0^k through log(tiny)
        small = phi < 0.25
        log_u = np.empty_like(phi)
        log_u[small] = np.log1p(-2.0 * phi[small])
        log_u[~small] = np.log(np.maximum(
            np.abs(1.0 - 2.0 * phi[~small]), np.finfo(float).tiny))
        power = np.exp(k * log_u)
        power = np.where(negate & (phi > 0.5), -power, power)
        cur = power @ (w * (1.0 - phi) ** 2)
        stop = None
        if prev is not None:
            before = change
            change = float(np.max(np.abs(cur - prev) / np.maximum(
                np.abs(cur), np.finfo(float).tiny)))
            if change <= CN_RTOL:
                stop = "converged"
            elif before is not None and before < change <= floor:
                # below the floor a rise is rounding, not convergence: the
                # rules have stopped improving; keep the one that agreed best
                stop, cur, change = "stalled", prev, before
        if stop is None and last:
            stop = "exact" if m >= m_exact else "invariant"
        if stop is not None:
            return cur, {"lanczos_steps": m, "stop": stop,
                         "last_rel_change": change}
        prev = cur
        beta.append(b * b)


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
    # zeta_tail_bound for every N, from one unassigned volume
    deficit = _unassigned_volume(sd)
    for N in range(1, n_max + 1):
        lhs = math.gamma(N) * zeta(sd, N)
        rhs = ms.A[N] / N
        rel = abs(lhs - rhs) / abs(rhs)
        rows.append({"N": N, "gamma_zeta": lhs, "A_over_N": rhs, "rel_err": rel,
                     "zeta_tail": deficit * (2.0 / sd.entries[-1][0]) ** N})
    return {"rows": rows, "max_rel_err": max(r["rel_err"] for r in rows)}
