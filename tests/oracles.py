"""Independent reference computations used by the test suite.

Everything here is derived from first principles with exact rational
arithmetic or scipy quadrature, deliberately avoiding the closed forms
and code paths inside the package so that agreement is evidence rather
than tautology.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import simpson


def interval_field_polys(n_max):
    """Coefficient lists (Fraction, ascending powers) of the exit-moment
    fields u_1..u_n on (0, 1), built by integrating the recursion
    u_k'' = -2 k u_{k-1} twice and fixing the boundary values.

    u_0 = 1.  Both integrations kill no information because u_k(0) = 0
    forces the constant term and u_k(1) = 0 forces the linear one.
    """
    polys = []
    prev = [Fraction(1)]
    for k in range(1, n_max + 1):
        rhs = [Fraction(-2 * k) * c for c in prev]
        once = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(rhs)]
        twice = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(once)]
        twice[1] -= sum(twice)
        polys.append(twice)
        prev = twice
    return polys


def interval_exact_moments(n_max):
    """mu_k = (integral of u_k) / k! as exact Fractions, k = 0..n_max."""
    mus = [Fraction(1)]
    fact = 1
    for k, poly in enumerate(interval_field_polys(n_max), start=1):
        fact *= k
        area = sum(c / (j + 1) for j, c in enumerate(poly))
        mus.append(area / fact)
    return mus


def poly_eval(poly, x):
    y = np.zeros_like(x)
    for c in reversed(poly):
        y = y * x + float(c)
    return y


def interval_pairing(k, j, nodes=2 ** 14 + 1):
    """Simpson value of <u_k, phi_j> with phi_j = sqrt(2) sin(j pi x)."""
    poly = interval_field_polys(k)[-1]
    x = np.linspace(0.0, 1.0, nodes)
    y = poly_eval(poly, x) * math.sqrt(2.0) * np.sin(j * math.pi * x)
    return float(simpson(y, x=x))


def interval_pairing_exact(k, j):
    """The same pairing predicted by the spectral decomposition:
    k! (2 / lam_j)^k * (integral of phi_j)."""
    lam = (j * math.pi) ** 2
    b = math.sqrt(2.0) * (1.0 - math.cos(j * math.pi)) / (j * math.pi)
    return math.factorial(k) * (2.0 / lam) ** k * b


def interval_true_atoms(m):
    """(x_i, w_i) of the exit-time spectral measure on (0, 1): odd sine
    modes only, x = 2 / (j pi)^2, w = 8 / (j pi)^2."""
    atoms = []
    for i in range(m):
        j = 2 * i + 1
        lam = (j * math.pi) ** 2
        atoms.append((2.0 / lam, 8.0 / lam))
    return atoms


def rectangle_exact_moment1(lx, ly, terms=4000):
    """A_1 = E-integral of the torsion function over an lx x ly rectangle,
    by the classical single-sum series over lx's modes (independent of the
    double sine series used elsewhere). The sum's tail past `terms` terms
    is below terms^-4/128, and math.fsum keeps the terms that fall below
    the running sum's last bit."""
    # torsion u with (1/2) u'' = -1: u = x(lx - x) corrected by a cosh
    # series in y; integrate termwise.
    total = lx ** 3 * ly / 6.0
    s = math.fsum(math.tanh((2 * n + 1) * math.pi / lx * ly / 2.0)
                  / (2 * n + 1) ** 5 for n in range(terms))
    return total - 32.0 * lx ** 4 / math.pi ** 5 * s


def box_clusters(sides, K=400):
    """Eigenvalue clusters (lambda, multiplicity, a2) of the Dirichlet
    Laplacian on a box with integer sides, in increasing order, from every
    index vector in 1..K per axis.

    lambda = pi^2 sum k_i^2 / L_i^2 = pi^2 key / prod L_i^2 with the integer
    key = sum k_i^2 prod_{j != i} L_j^2, so a cluster is a set of exactly
    equal keys. a2 = 8^d prod L / (pi^2d prod k_i^2) when every index is
    odd, summed exactly per cluster. A mode outside the enumerated block has
    some k_i > K, so its key is at least (K+1)^2 prod_{j != i} L_j^2; only
    clusters below the least such bound are returned, and they are complete.
    """
    d, vol2 = len(sides), math.prod(sides) ** 2
    others = [vol2 // (L * L) for L in sides]
    bound = (K + 1) ** 2 * min(others)
    clusters = {}
    for ks in itertools.product(range(1, K + 1), repeat=d):
        key = sum(k * k * o for k, o in zip(ks, others))
        if key >= bound:
            continue
        count, weight = clusters.get(key, (0, Fraction(0)))
        if all(k % 2 for k in ks):
            weight += Fraction(1, math.prod(k * k for k in ks))
        clusters[key] = (count + 1, weight)
    scale = 8 ** d * math.prod(sides) / math.pi ** (2 * d)
    return [(math.pi ** 2 * key / vol2, count, scale * float(weight))
            for key, (count, weight) in sorted(clusters.items())]


def disk_field_polys(n_max):
    """Coefficient lists (Fraction, ascending powers of r) of the radial
    exit-moment fields u_1..u_n on the unit disk, built by integrating
    (1/r)(r u_k')' = -2 k u_{k-1} twice and fixing u_k(1) = 0.

    u_0 = 1.  The first integration, r u_k' = integral_0^r -2k s u_{k-1}(s)
    ds, vanishes at r = 0, so u_k' is a polynomial with no 1/r term; the
    second integration's constant is the boundary value's."""
    polys = []
    prev = [Fraction(1)]
    for k in range(1, n_max + 1):
        rhs = [Fraction(0)] + [Fraction(-2 * k) * c for c in prev]  # times r
        r_du = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(rhs)]
        du = r_du[1:]
        u = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(du)]
        u[0] -= sum(u)
        polys.append(u)
        prev = u
    return polys


def disk_exact_moments(n_max):
    """mu_k / pi of the unit disk as exact Fractions, k = 0..n_max:
    (2 pi integral_0^1 u_k r dr) / (pi k!)."""
    mus = [Fraction(1)]
    fact = 1
    for k, poly in enumerate(disk_field_polys(n_max), start=1):
        fact *= k
        mus.append(2 * sum(c / (j + 2) for j, c in enumerate(poly)) / fact)
    return mus


def disk_exact_moment1(r):
    # u_1 = (r^2 - |x|^2)/2 for generator Delta/2, so A_1 = pi r^4 / 4
    return math.pi * r ** 4 / 4.0


def rectangle_moments(lx, ly, n_max, dps=40):
    """mu_0..mu_{n_max} of the lx x ly rectangle, as floats.

    mu_1 and mu_2 come from the one-axis closed forms in mpmath at dps
    digits, summed over the modes of the LONGER side, so that the series
    the package sums (over the shorter side's modes) is not the one
    checked. With a the longer side, b the shorter, x_i = i pi b/a and
    mu_n(a) the interval's exact moments:
      mu_1 = b mu_1(a) - (32 a^4/pi^5) sum_i tanh(x_i/2)/i^5,
      mu_2 = b mu_2(a) - (96 a^6/pi^7) sum_i tanh(x_i/2)/i^7
             + (16 a^5 b/pi^6) sum_i sech^2(x_i/2)/i^6,
    over odd i, the tanh sums as lambda(s) - sum_i (1 - tanh(x_i/2))/i^s
    with lambda(s) = (1 - 2^-s) zeta(s).

    n >= 3 sums the odd tensor modes by math.fsum over a table with the
    float terms the package forms (per side L, kappa = (pi i/L)^2/2 and
    w = 4/(L kappa); t_n = t_{n-1} r from t_0 = w_i w_j, r =
    1/(kappa_i + kappa_j)), as large as the package's tail bound gives at
    2^-60 instead of 2^-56 for each order on its own.
    """
    import mpmath

    s, l = sorted((float(lx), float(ly)))
    unit = interval_exact_moments(2)
    with mpmath.workdps(dps):
        a, b, pi = mpmath.mpf(l), mpmath.mpf(s), mpmath.pi
        lam = [(1 - mpmath.mpf(2) ** -k) * mpmath.zeta(k) for k in (5, 7)]
        t5 = t7 = h6 = mpmath.mpf(0)
        i = 1
        while i * pi * b / a < 2.5 * dps:       # e^-x below 10^-dps
            x = i * pi * b / a
            t5 += (1 - mpmath.tanh(x / 2)) / i ** 5
            t7 += (1 - mpmath.tanh(x / 2)) / i ** 7
            h6 += mpmath.sech(x / 2) ** 2 / i ** 6
            i += 2
        m1a, m2a = (mpmath.mpf(m.numerator) / m.denominator * a ** (2 * n + 1)
                    for n, m in ((1, unit[1]), (2, unit[2])))
        mu1 = b * m1a - 32 * a ** 4 / pi ** 5 * (lam[0] - t5)
        mu2 = (b * m2a - 96 * a ** 6 / pi ** 7 * (lam[1] - t7)
               + 16 * a ** 5 * b / pi ** 6 * h6)
        mu = [s * l, float(mu1), float(mu2)][:n_max + 1]
    for n in range(3, n_max + 1):
        ka, kb = (_odd_kappa(side, _tail_modes(n, (side / other) ** 2))
                  for side, other in ((s, l), (l, s)))
        t = np.multiply.outer(4.0 / (s * ka), 4.0 / (l * kb))
        r = 1.0 / np.add.outer(ka, kb)
        for _ in range(n):
            t = t * r
        mu.append(math.fsum(t.ravel()))
    return mu


def _tail_modes(n, q, tail=2.0 ** -60):
    """Least odd K with (pi^2/8)(1 + q)^n K^-(2n+1)/(4n+2) <= tail, by
    counting up."""
    k = 1
    while math.pi ** 2 / 8 * (1 + q) ** n * float(k) ** -(2 * n + 1) \
            / (4 * n + 2) > tail:
        k += 2
    return k


def _odd_kappa(L, k):
    """(pi i/L)^2/2 for odd i <= k, by the package's float operations."""
    x = np.arange(1.0, k + 1, 2) * (np.pi / L)
    x *= x
    x *= 0.5
    return x


def _det(rows):
    """Determinant of a square matrix of Fractions by exact elimination."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for j in range(c, len(a)):
                a[r][j] -= f * a[c][j]
    return det


def recurrence_from_hankel_determinants(mu, p):
    """alpha_0..alpha_{p-1}, beta_0..beta_{p-1} of the monic orthogonal
    polynomials of the moments mu, straight from Hankel determinants:
    beta_k = D_{k+1} D_{k-1} / D_k^2 with D_k = det[mu_{i+j}]_{i,j<k},
    D_0 = D_{-1} = 1, and alpha_k = E_{k+1}/D_{k+1} - E_k/D_k, where E_k
    is D_k with its last column shifted one moment up (E_0 = 0), so that
    -E_k/D_k is the x^{k-1} coefficient of pi_k."""
    mu = [Fraction(m) for m in mu]

    def hankel_det(k, last_shift):
        cols = list(range(k - 1)) + [k - 1 + last_shift] if k else []
        return _det([[mu[i + j] for j in cols] for i in range(k)])

    D = [Fraction(1)] + [hankel_det(k, 0) for k in range(1, p + 1)]
    E = [Fraction(0)] + [hankel_det(k, 1) for k in range(1, p + 1)]
    alpha = [E[k + 1] / D[k + 1] - E[k] / D[k] for k in range(p)]
    beta = [D[1]] + [D[k + 1] * D[k - 1] / D[k] ** 2 for k in range(1, p)]
    return alpha, beta


def atom_count_cap_per_section(mu, p_max, floor, safety=1e3):
    """Largest p <= p_max (and 2p <= len(mu)) whose balanced Hankel section
    D^{-1/2} [mu_{i+j}]_{i,j<p} D^{-1/2}, D its diagonal, built on its own
    for each p, has its p-th singular value >= safety * floor; 0 if none."""
    best = 0
    for p in range(1, p_max + 1):
        if 2 * p > len(mu):
            break
        H = np.array([[mu[i + j] for j in range(p)] for i in range(p)])
        d = np.sqrt(np.diag(H))
        sv = np.linalg.svd(H / np.outer(d, d), compute_uv=False)
        if sv[-1] >= safety * floor:
            best = p
    return best


def monic_orthogonal_value(alpha, beta, x):
    """pi_p(x) exactly, p = len(alpha), from the three-term recurrence."""
    prev, cur = Fraction(0), Fraction(1)
    for a, b in zip(alpha, beta):
        prev, cur = cur, (x - a) * cur - b * prev
    return cur


def loop_lattice_grid(spec, h):
    """(nodes, lattice, weights) of the stair-step grid on h*Z^d, built
    point by point: candidates over the padded bounding box in
    lexicographic order, kept when strictly inside (eps-guarded for the
    interval and the rectangle, spec.contains for polygons)."""
    if spec.kind == "interval":
        eps = 1e-12 * max(abs(spec.a), abs(spec.b))
        idx = [i for i in range(math.floor(spec.a / h) - 1,
                                math.ceil(spec.b / h) + 2)
               if spec.a + eps < i * h < spec.b - eps]
        return (np.array([i * h for i in idx]), [(i,) for i in idx],
                np.full(len(idx), h))
    if spec.kind == "rectangle":
        xlo, xhi, ylo, yhi = 0.0, spec.Lx, 0.0, spec.Ly
    elif spec.kind == "disk":
        xlo = ylo = -spec.R
        xhi = yhi = spec.R
    else:
        v = np.asarray(spec.vertices)
        xlo, xhi = v[:, 0].min(), v[:, 0].max()
        ylo, yhi = v[:, 1].min(), v[:, 1].max()
    cand = [(i, j)
            for i in range(math.floor(xlo / h) - 1, math.ceil(xhi / h) + 2)
            for j in range(math.floor(ylo / h) - 1, math.ceil(yhi / h) + 2)]
    pts = np.array([(i * h, j * h) for i, j in cand])
    if spec.kind == "rectangle":
        eps = 1e-12 * max(spec.Lx, spec.Ly)
        mask = ((pts[:, 0] > eps) & (pts[:, 0] < spec.Lx - eps) &
                (pts[:, 1] > eps) & (pts[:, 1] < spec.Ly - eps))
    elif spec.kind == "disk":
        mask = pts[:, 0] ** 2 + pts[:, 1] ** 2 < spec.R ** 2
    else:
        mask = spec.contains(pts)
    lattice = [c for c, m in zip(cand, mask) if m]
    return pts[mask], lattice, np.full(len(lattice), h * h)


def cn_heat_content_loop(S, sqrtw, times, dt):
    """(q at the sorted times, number of CN steps) of Crank-Nicolson with
    Rannacher's start for du/dt = -S u in z = W^{1/2} u, u(0) = 1, advanced
    one state at a time with a fresh sparse LU of S + (2/dt) I.

    Two implicit-Euler half steps, then one CN step per dt; a state's
    q = <sqrtw, z> is summed with fsum. A CN step is taken as
    z - 2 S (S + 2/dt)^{-1} z, which equals (2/dt - S)(S + 2/dt)^{-1} z but
    does not feed the factor's backward error, scaled by 4/dt, into every
    step (the form 4/dt (S + 2/dt)^{-1} z - z drifts from exact CN linearly
    in the step count). Samples are placed as in _cn_samples."""
    import scipy.sparse as sparse
    import scipy.sparse.linalg as splinalg

    sigma = 2.0 / dt
    A = (S + sigma * sparse.identity(S.shape[0], format="csr")).tocsc()
    solve = splinalg.splu(A, permc_spec="MMD_AT_PLUS_A").solve
    z, at = sqrtw.copy(), -1                  # z is the state after step at

    def q_at(k):
        nonlocal z, at
        while at < k:
            if at < 0:
                z = sigma * solve(sigma * solve(z))
            else:
                z = z - 2.0 * (S @ solve(z))
            at += 1
        return math.fsum(sqrtw * z)

    return _cn_samples(times, dt, q_at)


def cn_heat_content_interval_exact(N, times, dt, dps=40):
    """(q at the sorted times, number of CN steps) of the scheme of
    cn_heat_content_loop on the unit interval's 3-point grid, h = 1/N,
    evaluated in mpmath from the grid operator's closed-form eigenpairs:
    S = tridiag(-1, 2, -1) / (2 h^2) has theta_j = (2/h^2) sin^2(j pi h/2)
    and eigenvectors sqrt(2/N) sin(i j pi/N), so s = sqrt(h) 1 has squared
    components 2 h^2 cot^2(j pi h/2) for odd j and 0 for even j. With
    sigma = 2/dt (dt taken as its float value), q after the start and k CN
    steps is sum_j c_j^2 (sigma/(sigma + theta_j))^2
    ((sigma - theta_j)/(sigma + theta_j))^k."""
    import mpmath

    with mpmath.workdps(dps):
        h = mpmath.mpf(1) / N
        sigma = 2 / mpmath.mpf(dt)
        modes = []
        for j in range(1, N, 2):
            theta = 2 / h ** 2 * mpmath.sin(j * mpmath.pi * h / 2) ** 2
            c2 = 2 * h ** 2 * mpmath.cot(j * mpmath.pi * h / 2) ** 2
            modes.append((c2 * (sigma / (sigma + theta)) ** 2,
                          (sigma - theta) / (sigma + theta)))
        cache = {}

        def q_at(k):
            if k not in cache:
                cache[k] = float(mpmath.fsum(
                    w * r ** k for w, r in modes) if k >= 0
                    else (N - 1) * h)
            return cache[k]

        return _cn_samples(times, dt, q_at)


def _cn_samples(times, dt, q_at):
    """(q at the sorted times, number of CN steps) from q_at(k), the q of
    the state after the Rannacher start and k CN steps (k = -1 is u = 1),
    called with nondecreasing k.

    The start ends at dt/2 + dt/2, then one CN step per dt, the time
    accumulated in float, until the last time is reached within 1e-6 dt.
    After each step the samples in (previous t, t + 1e-9 dt] are linearly
    interpolated between the two states (later steps overwrite), and samples
    the loop slack leaves beyond the last step take its q."""
    times = np.sort(np.asarray(times, dtype=float))
    qs = np.empty_like(times)

    def record(k_prev, t_prev, k, t, upto):
        hit = np.flatnonzero((times > t_prev) & (times <= upto + 1e-9 * dt))
        if hit.size:
            q_prev, q_now = q_at(k_prev), q_at(k)
        for i in hit:
            frac = (times[i] - t_prev) / (t - t_prev) if t > t_prev else 1.0
            qs[i] = q_prev + frac * (q_now - q_prev)

    t = 0.0
    for _ in range(2):
        t += dt / 2.0
    t_prev, k_prev, steps = 0.0, -1, 0
    while True:
        record(k_prev, t_prev, steps, t, t)
        t_prev, k_prev = t, steps
        if not t < times[-1] - 1e-6 * dt:
            break
        t += dt
        steps += 1
    if t_prev < times[-1]:
        record(k_prev, t_prev, k_prev, t, times[-1])
    return qs, steps
