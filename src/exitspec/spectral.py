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
            if l <= 0 or a < 0:
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

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("lambda,multiplicity,a2\n")
            for l, mult, a in self.entries:
                fh.write(f"{l:.17g},{mult},{a:.17g}\n")

    @staticmethod
    def from_csv(path, source="analytic", volume=None):
        entries = []
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("lambda"):
                raise ValueError(f"{path}: expected header lambda,multiplicity,a2")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                l, mult, a = line.split(",")
                entries.append((float(l), int(mult), float(a)))
        return SpectralData(entries, source, volume)


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

    Interval: lambda_k = (k pi / L)^2 with a^2 = 8L/(k pi)^2 for odd k, zero
    for even. Rectangle: tensor modes, a^2 the product of the 1D factors
    (nonzero only when both indices are odd). Disk: all angular orders are
    listed, but only the radial (order zero) clusters carry weight,
    a_n^2 = 4 pi R^2 / j_{0,n}^2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if isinstance(spec, Interval):
        L = spec.b - spec.a
        entries = []
        for k in range(1, m + 1):
            lam = (k * math.pi / L) ** 2
            a2 = 8.0 * L / (k * math.pi) ** 2 if k % 2 == 1 else 0.0
            entries.append((lam, 1, a2))
        return SpectralData(entries, "analytic", volume=spec.volume())

    if isinstance(spec, Rectangle):
        # enough tensor modes to cover the first m clusters
        K = int(math.isqrt(8 * m) + 4)
        modes = []
        for i in range(1, K + 1):
            for j in range(1, K + 1):
                lam = math.pi ** 2 * (i * i / spec.Lx ** 2 + j * j / spec.Ly ** 2)
                odd = (i % 2 == 1) and (j % 2 == 1)
                a2 = (64.0 * spec.Lx * spec.Ly
                      / (i * i * j * j * math.pi ** 4)) if odd else 0.0
                modes.append((lam, a2))
        modes.sort(key=lambda t: t[0])
        lams = [t[0] for t in modes]
        entries = []
        for grp in _cluster(lams, 1e-12):
            lam = lams[grp[0]]
            a2 = math.fsum(modes[i][1] for i in grp)
            entries.append((lam, len(grp), a2))
            if len(entries) == m:
                break
        if len(entries) < m:
            raise ValueError(f"internal mode table too small for m={m}")
        return SpectralData(entries, "analytic", volume=spec.volume())

    if isinstance(spec, Disk):
        import scipy.special as special
        # Bessel zeros j_{nu,k}; order-0 modes are simple, others double.
        # The first m clusters need zeros only up to roughly sqrt(8 m).
        nu_max = int(math.sqrt(8.0 * m)) + 4
        per = max(int(math.sqrt(8.0 * m) / math.pi) + 4, 3)
        modes = []
        for nu in range(nu_max + 1):
            for z in special.jn_zeros(nu, per):
                lam = (z / spec.R) ** 2
                mult = 1 if nu == 0 else 2
                a2 = 4.0 * math.pi * spec.R ** 2 / z ** 2 if nu == 0 else 0.0
                modes.append((lam, mult, a2))
        modes.sort(key=lambda t: t[0])
        entries = [(lam, mult, a2) for lam, mult, a2 in modes[:m]]
        if len(entries) < m:
            raise ValueError(f"internal zero table too small for m={m}")
        return SpectralData(entries, "analytic", volume=spec.volume())

    raise ValueError(f"no closed-form spectrum for {spec!r}")


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
    vol = sd.volume if sd.volume is not None else sd.total_weight()
    spec_star, vp = [], []
    for lam, _, a2 in sd.entries:
        if a2 > zero_tol * vol:
            spec_star.append(lam)
            vp.append(a2)
    return spec_star, vp


def property_m_report(sd: SpectralData, zero_tol: float = ZERO_TOL_DEFAULT):
    """Does every cluster carry weight?  Lists the violating eigenvalues."""
    vol = sd.volume if sd.volume is not None else sd.total_weight()
    violators = [lam for lam, _, a2 in sd.entries if a2 <= zero_tol * vol]
    report = {
        "holds": not violators,
        "violators": violators,
        "clusters": sd.m,
        "zero_tol": zero_tol,
    }
    report["degenerate"] = len(violators) == sd.m and sd.m > 0
    return report
