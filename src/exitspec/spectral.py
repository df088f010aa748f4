"""Eigenvalue clusters with volume-partition weights a_lambda^2, the
essential spectrum, and the Property M diagnostic.

a_lambda^2 is the squared projection of the constant function 1 onto the
lambda-eigenspace; summed over the spectrum it partitions vol(D). Clusters
within a relative threshold are merged and their a^2 summed, which is
basis-independent even for degenerate eigenspaces.
"""

from __future__ import annotations

import math

import numpy as np

from .csvtable import read_csv, write_csv
from .geometry import Interval, Rectangle, Disk, DomainSpec, Grid
from .discrete_ops import (Field, assemble_half_laplacian, exact_sum,
                           integrate, lowest_eigenpairs)

CLUSTER_REL_TOL = 1e-6
ZERO_TOL_DEFAULT = 1e-6


class SpectralData:
    """Entries (lambda, multiplicity, a2), lambda strictly increasing."""

    def __init__(self, entries, source, volume=None):
        entries = [(float(l), int(m), float(a)) for l, m, a in entries]
        for (l1, _, a1), (l2, _, _) in zip(entries, entries[1:]):
            if not l1 < l2:
                raise ValueError("eigenvalues must be strictly increasing")
        # quadrature dust from a squared projection is small against the
        # spectrum's scale: its volume, else its largest weight; with
        # neither, there is no scale to go by and the unit one stays
        scale = volume if volume is not None else max(
            (a for _, _, a in entries if a > 0), default=1.0)
        clamped = []
        for l, m, a in entries:
            if a < 0 and a > -1e-14 * scale:
                a = 0.0
            if not (0 < l < math.inf and 0 <= a < math.inf):
                raise ValueError(f"bad entry lambda={l}, a2={a}")
            clamped.append((l, m, a))
        self.entries = clamped
        self.source = source
        self.volume = volume

    @property
    def m(self):
        return len(self.entries)

    def lambdas(self):
        return [e[0] for e in self.entries]

    def weights(self):
        return [e[2] for e in self.entries]

    def total_weight(self):
        return math.fsum(e[2] for e in self.entries)

    def essential(self, zero_tol=ZERO_TOL_DEFAULT):
        """The clusters with a2 > zero_tol * volume (the total weight when
        there is no volume), the ones the constant function can see."""
        vol = self.volume if self.volume is not None else self.total_weight()
        return SpectralData([e for e in self.entries if e[2] > zero_tol * vol],
                            self.source, self.volume)

    def to_csv(self, path):
        write_csv(path, "lambda,multiplicity,a2", self.entries)

    @staticmethod
    def from_csv(path, source="analytic", volume=None):
        return SpectralData(read_csv(path, "lambda,multiplicity,a2",
                                     (float, int, float)), source, volume)


def _cluster(values, rel_tol):
    """Group a sorted list of values; returns list of index lists."""
    groups = []
    for i, v in enumerate(values):
        if groups and v - values[groups[-1][0]] <= rel_tol * abs(v):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def analytic_spectrum(spec: DomainSpec, m: int) -> SpectralData:
    """First m eigenvalue clusters with exact weights, separable domains only.

    Interval and rectangle: tensor modes over the d sides L, lambda =
    pi^2 sum k^2/L^2, a^2 = 8^d prod L / (prod k^2 pi^2d) if every k is odd,
    else 0. Disk: modes of order nu > 0 are double and carry no weight, the
    radial ones a_n^2 = 4 pi R^2 / j_{0,n}^2.

    The table lists every mode below a cap, which doubles until more than
    m clusters lie below it. No lower cap reaches m + 1 modes than the
    lattice-cell bound, (pi (m+1)/L)^2 in 1-D and 4 pi (m+1)/(Lx Ly) in 2-D
    (each mode's unit cell lies in the quarter ellipse lambda <= cap), so
    the tensor cap starts there or at the first eigenvalue, whichever is
    higher; the disk's at pi^2/R^2. An unlisted mode lies above the cap, so
    above the spare (m+1)-th cluster: the first m are complete, and the
    same wherever the cap stopped. Below the cap k <= L sqrt(cap)/pi; a
    zero j_{nu,k} <= R sqrt(cap) has nu < j_{nu,1}, (k - 1/4) pi < j_{0,k}
    <= j_{nu,k} and, zeros of order over 1/2 being more than pi apart,
    j_{nu,k} > nu + (k - 1) pi for nu >= 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if isinstance(spec, (Interval, Rectangle)):
        sides = tuple(hi - lo for lo, hi in spec.box())
        d = len(sides)

        def modes(cap):
            k = 1 + np.indices([int(L * math.sqrt(cap) / math.pi) + 1
                                for L in sides]).reshape(d, -1)
            a2 = 8.0 ** d * math.prod(sides) / (
                np.prod(k * k, 0) * math.pi ** (2 * d))
            return (math.pi ** 2 * (k * k / np.square(sides)[:, None]).sum(0),
                    np.ones(len(a2), int), np.where((k % 2).all(0), a2, 0.0))

        cap = max(math.pi ** 2 * sum(L ** -2 for L in sides),
                  math.pi ** 2 * ((m + 1) ** 2 / sides[0] ** 2) if d == 1
                  else 4 * math.pi * (m + 1) / math.prod(sides))
    elif isinstance(spec, Disk):
        from scipy.special import jn_zeros

        def modes(cap):
            x = spec.R * math.sqrt(cap)
            per = [int(min(x / math.pi + 0.25, (x - nu) / math.pi + 1))
                   for nu in range(int(x) + 1)]
            z = np.concatenate([jn_zeros(nu, n) for nu, n in enumerate(per)])
            radial = np.arange(z.size) < per[0]
            return ((z / spec.R) ** 2, np.where(radial, 1, 2),
                    np.where(radial, 4 * math.pi * spec.R ** 2 / z ** 2, 0.0))

        cap = (math.pi / spec.R) ** 2
    else:
        raise ValueError(f"no closed-form spectrum for {spec!r}")
    while True:
        lam, mult, a2 = modes(cap)
        keep = np.flatnonzero(lam <= cap)
        keep = keep[np.argsort(lam[keep], kind="stable")]
        lam, mult, a2 = (v[keep].tolist() for v in (lam, mult, a2))
        groups = _cluster(lam, 1e-12)
        if len(groups) > m:
            break
        cap *= 2.0
    # a cluster is a run of consecutive modes
    entries = [(lam[g[0]], sum(mult[g[0]:g[-1] + 1]),
                math.fsum(a2[g[0]:g[-1] + 1])) for g in groups[:m]]
    return SpectralData(entries, "analytic", volume=spec.volume())


def numeric_spectrum(grid: Grid, m: int, tol: float = 1e-8) -> SpectralData:
    """First m clusters of the discrete spectrum with quadrature weights.

    Eigenvalues within CLUSTER_REL_TOL (relative) are merged; per cluster
    a2 = sum of (integral of phi_i)^2 over orthonormal members, the
    basis-independent projection of 1 onto the cluster eigenspace. Reported
    multiplicity is grid multiplicity, not certified continuum multiplicity.
    Every eigenpair meets lowest_eigenpairs' relative residual contract,
    ||(S - lambda/2) z|| <= tol * lambda/2, so the same tol holds for a
    domain at any scale.
    """
    op = assemble_half_laplacian(grid)
    mm = m + 4
    while True:
        pairs = lowest_eigenpairs(op, mm, tol=tol)
        lams = [p[0] for p in pairs]
        groups = _cluster(lams, CLUSTER_REL_TOL)
        # the last cluster may be truncated by the block edge; require one spare
        if len(groups) > m or mm >= grid.n - 2:
            break
        mm = min(mm + max(4, m), grid.n - 2)
    if len(groups) < m:
        raise ValueError(f"could not resolve {m} clusters (got {len(groups)})")
    entries = []
    for grp in groups[:m]:
        lam = math.fsum(lams[i] for i in grp) / len(grp)
        a2 = math.fsum(integrate(pairs[i][1]) ** 2 for i in grp)
        entries.append((lam, len(grp), a2))
    vol = exact_sum(grid.weights)
    return SpectralData(entries, "numeric", volume=vol)


def essential_spectrum(sd: SpectralData, zero_tol: float = ZERO_TOL_DEFAULT):
    """Filter clusters with a2 > zero_tol * volume.

    Returns (spec_star, vp): the essential eigenvalues and their weights.
    """
    ess = sd.essential(zero_tol)
    return ess.lambdas(), ess.weights()


def property_m_report(sd: SpectralData, zero_tol: float = ZERO_TOL_DEFAULT):
    """Does every cluster carry weight?  Lists the violating eigenvalues."""
    kept = set(sd.essential(zero_tol).entries)
    violators = [e[0] for e in sd.entries if e not in kept]
    report = {
        "holds": not violators,
        "violators": violators,
        "clusters": sd.m,
        "zero_tol": zero_tol,
    }
    report["degenerate"] = len(violators) == sd.m and sd.m > 0
    return report
