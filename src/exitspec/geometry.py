"""Domain descriptions, lattice grids, quadrature weights, and the boundary
normal-flow perturbation for polygons.

Domains are analytic objects (exact volume and boundary measure, an open-set
interior test and the distance to the boundary); grids are stair-step
lattices h*Z^d restricted to the strict interior, Dirichlet zero outside,
and build_grid alone decides how close to the boundary a node may sit.
Disks additionally get a 1D radial grid with finite-volume weights, which
restores second-order accuracy that the stair-step boundary lacks.
"""

from __future__ import annotations

import math

import numpy as np

from .csvtable import write_csv


class GeometryError(ValueError):
    pass


class DomainSpec:
    """Base class for analytic domain descriptions."""

    dim = None
    kind = None

    def volume(self):
        raise NotImplementedError

    def boundary_measure(self):
        raise NotImplementedError

    def contains(self, points):
        """Open-set interior test on points of shape (..., dim), (...) in
        1-D; the result has the leading shape. A point exactly on a
        polygon's edge may read either way; distance == 0 marks it."""
        raise NotImplementedError

    def distance(self, points):
        """Distance to the boundary, shaped as contains' result; defined
        for interior points only."""
        raise NotImplementedError

    def box(self):
        """The bounding box, one (lo, hi) pair per axis; none by default."""
        raise GeometryError(f"unsupported domain spec {self!r}")


class Interval(DomainSpec):
    dim = 1
    kind = "interval"

    def __init__(self, a, b):
        self.a, self.b = float(a), float(b)
        if not (math.isfinite(self.a) and math.isfinite(self.b)
                and self.a < self.b):
            raise GeometryError(f"interval needs finite a < b, got [{a}, {b}]")

    def volume(self):
        return self.b - self.a

    def boundary_measure(self):
        # counting measure on the two endpoints
        return 2.0

    def contains(self, points):
        x = np.asarray(points, dtype=float)
        return (x > self.a) & (x < self.b)

    def distance(self, points):
        x = np.asarray(points, dtype=float)
        return np.minimum(x - self.a, self.b - x)

    def box(self):
        return [(self.a, self.b)]

    def __repr__(self):
        return f"Interval({self.a}, {self.b})"


class Rectangle(DomainSpec):
    """(0, Lx) x (0, Ly)."""

    dim = 2
    kind = "rectangle"

    def __init__(self, Lx, Ly):
        self.Lx, self.Ly = float(Lx), float(Ly)
        if not all(math.isfinite(s) and s > 0 for s in (self.Lx, self.Ly)):
            raise GeometryError(f"rectangle needs positive finite sides, "
                                f"got {Lx} x {Ly}")

    def volume(self):
        return self.Lx * self.Ly

    def boundary_measure(self):
        return 2.0 * (self.Lx + self.Ly)

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        return ((p[..., 0] > 0) & (p[..., 0] < self.Lx) &
                (p[..., 1] > 0) & (p[..., 1] < self.Ly))

    def distance(self, points):
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return np.minimum(np.minimum(x, self.Lx - x),
                          np.minimum(y, self.Ly - y))

    def box(self):
        return [(0.0, self.Lx), (0.0, self.Ly)]

    def __repr__(self):
        return f"Rectangle({self.Lx}, {self.Ly})"


class Disk(DomainSpec):
    """Centered at the origin."""

    dim = 2
    kind = "disk"

    def __init__(self, R):
        self.R = float(R)
        if not (math.isfinite(self.R) and self.R > 0):
            raise GeometryError(f"disk needs a positive finite radius, got {R}")

    def volume(self):
        return math.pi * self.R ** 2

    def boundary_measure(self):
        return 2.0 * math.pi * self.R

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        return p[..., 0] ** 2 + p[..., 1] ** 2 < self.R ** 2

    def distance(self, points):
        p = np.asarray(points, dtype=float)
        return self.R - np.hypot(p[..., 0], p[..., 1])

    def box(self):
        return [(-self.R, self.R)] * 2

    def __repr__(self):
        return f"Disk({self.R})"


def shoelace_area(vertices):
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_intersect(p1, p2, q1, q2, scale):
    """Proper or improper intersection of closed segments; collinearity and
    touching are judged to 1e-14 relative to the length scale."""
    tol = 1e-14 * scale

    def orient(a, b, c):
        d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(d) < tol * scale:
            return 0
        return 1 if d > 0 else -1

    def on_seg(a, b, c):
        return (min(a[0], b[0]) - tol <= c[0] <= max(a[0], b[0]) + tol and
                min(a[1], b[1]) - tol <= c[1] <= max(a[1], b[1]) + tol)

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(p1, p2, q1):
        return True
    if o2 == 0 and on_seg(p1, p2, q2):
        return True
    if o3 == 0 and on_seg(q1, q2, p1):
        return True
    if o4 == 0 and on_seg(q1, q2, p2):
        return True
    return False


def _is_simple(vertices, scale):
    n = len(vertices)
    for i in range(n):
        a1, a2 = vertices[i], vertices[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # shared endpoint with a neighbor
            b1, b2 = vertices[j], vertices[(j + 1) % n]
            if _segments_intersect(a1, a2, b1, b2, scale):
                return False
    return True


class Polygon(DomainSpec):
    """Simple polygon; orientation is normalized to counterclockwise."""

    dim = 2
    kind = "polygon"

    def __init__(self, vertices):
        v = [tuple(map(float, p)) for p in vertices]
        if len(v) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        if not all(math.isfinite(c) for p in v for c in p):
            raise GeometryError(f"polygon vertices must be finite, got {v}")
        # tolerances scale with the coordinates' extent, so a dilated polygon
        # is judged as the original is
        scale = float(np.ptp(v))
        area = shoelace_area(v)
        if abs(area) <= 1e-14 * scale * scale:
            raise GeometryError("polygon has (near) zero area")
        if area < 0:
            v = v[::-1]
        if not _is_simple(v, scale):
            raise GeometryError("polygon is self-intersecting")
        self.vertices = tuple(v)

    def volume(self):
        return shoelace_area(self.vertices)

    def boundary_measure(self):
        v = np.asarray(self.vertices)
        d = np.roll(v, -1, axis=0) - v
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))

    def contains(self, points):
        """Even-odd ray casting. Per edge it computes, in place in one float
        buffer and two masks, the bits of
        ((y1 > y) != (y2 > y)) & (x < x1 + (y - y1) * (x2 - x1) / (y2 - y1))."""
        p = np.asarray(points, dtype=float)
        q = p.reshape(-1, 2)
        x, y = q[:, 0], q[:, 1]
        inside = np.zeros(len(q), dtype=bool)
        cross, mask = np.empty_like(inside), np.empty_like(inside)
        xc = np.empty(len(q))
        v = self.vertices
        for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1]):
            np.not_equal(np.less(y, y1, out=cross), np.less(y, y2, out=mask),
                         out=cross)
            np.subtract(y, y1, out=xc)
            with np.errstate(divide="ignore", invalid="ignore"):
                xc *= x2 - x1
                xc /= y2 - y1
                xc += x1
            cross &= np.less(x, xc, out=mask)
            inside ^= cross
        return inside.reshape(p.shape[:-1])

    def distance(self, points):
        """The least distance to an edge, by projection onto each."""
        p = np.asarray(points, dtype=float)
        q = p.reshape(-1, 2)
        v = np.asarray(self.vertices)
        d2 = np.full(len(q), np.inf)
        for a, b in zip(v, np.roll(v, -1, axis=0)):
            ab = b - a
            t = np.clip(((q - a) @ ab) / float(ab @ ab), 0.0, 1.0)
            np.minimum(d2, np.sum((q - (a + t[:, None] * ab)) ** 2, axis=1),
                       out=d2)
        return np.sqrt(d2).reshape(p.shape[:-1])

    def box(self):
        v = np.asarray(self.vertices)
        return list(zip(v.min(axis=0), v.max(axis=0)))

    def vertex_normals(self):
        """Outward unit normals at vertices (angle bisector of edge normals)."""
        v = np.asarray(self.vertices)
        n = len(v)
        edges = np.roll(v, -1, axis=0) - v
        lens = np.hypot(edges[:, 0], edges[:, 1])
        # CCW polygon: outward edge normal is (dy, -dx)
        en = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lens[:, None]
        normals = np.empty_like(v)
        for i in range(n):
            s = en[i - 1] + en[i]
            norm = math.hypot(s[0], s[1])
            if norm < 1e-12:
                raise GeometryError(f"degenerate corner at vertex {i}")
            normals[i] = s / norm
        return normals

    def __repr__(self):
        return f"Polygon({list(self.vertices)})"


def volume(spec: DomainSpec) -> float:
    return spec.volume()


def boundary_measure(spec: DomainSpec) -> float:
    return spec.boundary_measure()


def perturb_polygon(poly: Polygon, f, eps: float) -> Polygon:
    """Move each vertex along its outward normal: v -> v + eps * f_i * nu_i.

    eps = 0 returns a polygon with the identical vertex list. The result must
    stay simple; otherwise GeometryError.
    """
    if not isinstance(poly, Polygon):
        raise GeometryError("perturb_polygon needs a Polygon")
    f = [float(c) for c in f]
    if len(f) != len(poly.vertices):
        raise GeometryError(f"need one flow value per vertex "
                            f"({len(poly.vertices)}), got {len(f)}")
    if eps == 0.0:
        return Polygon(poly.vertices)
    nu = poly.vertex_normals()
    moved = [(vx + eps * fi * nx, vy + eps * fi * ny)
             for (vx, vy), fi, (nx, ny) in zip(poly.vertices, f, nu)]
    try:
        out = Polygon(moved)
    except GeometryError as e:
        raise GeometryError(f"perturbation eps={eps} breaks the polygon: {e}") from e
    return out


class Grid:
    """Interior nodes of a lattice (or radial) discretization.

    nodes: (n, dim) coordinates (flat for 1-D and radial grids); weights:
    per-node quadrature weight; lattice: (n, d) int64 lattice coordinates in
    lexicographic order, which is also the node ordering (radial grids:
    (n, 1) ring indices). locate is the one lookup from lattice points to
    nodes. kind: "lattice" or "radial".
    """

    def __init__(self, spec, h, nodes, lattice, weights, kind="lattice"):
        self.spec = spec
        self.h = float(h)
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.lattice = np.asarray(lattice, dtype=np.int64).reshape(self.n, -1)
        self.kind = kind
        self._operator = None      # kept by assemble_half_laplacian
        # row-major linear keys over the lattice's bounding box; the
        # lexicographic node order makes them strictly ascending
        self._lo = self.lattice.min(axis=0)
        self._hi = self.lattice.max(axis=0)
        span = self._hi - self._lo + 1
        self._stride = np.concatenate((np.cumprod(span[:0:-1])[::-1], [1]))
        self._keys = (self.lattice - self._lo) @ self._stride
        if np.any(np.diff(self._keys) <= 0):
            raise GeometryError("lattice must be in strictly lexicographic order")

    @property
    def n(self):
        return len(self.weights)

    @property
    def dim(self):
        return self.spec.dim

    def locate(self, points):
        """Node index of each lattice point ((..., d) integers), -1 where
        the point is not a node. Points outside the lattice's bounding box
        are rejected before any key is formed, so none aliases a node."""
        p = np.asarray(points)
        q = p.reshape(-1, self.lattice.shape[1])
        found = np.full(len(q), -1, dtype=np.int64)
        inside = np.all((q >= self._lo) & (q <= self._hi), axis=1)
        keys = (q[inside].astype(np.int64) - self._lo) @ self._stride
        pos = np.minimum(np.searchsorted(self._keys, keys), self.n - 1)
        found[inside] = np.where(self._keys[pos] == keys, pos, -1)
        return found.reshape(p.shape[:-1])[()]

    def dump_csv(self, path):
        # flat (1-D and radial) nodes are written with y = 0
        xy = np.column_stack([self.nodes, np.zeros(self.n)])
        write_csv(path, "x,y,index,weight",
                  zip(xy[:, 0], xy[:, 1], range(self.n), self.weights))


def build_grid(spec: DomainSpec, h: float) -> Grid:
    """Stair-step lattice grid: the points of h*Z^d strictly inside spec.

    The points of spec.box() padded by one node where spec.contains holds
    and spec.distance exceeds 1e-12 times the box's largest |coordinate|,
    in lexicographic order of lattice coordinates. The guard keeps a point
    rounded onto the boundary out, and it scales with the domain. Raises
    GeometryError when some axis has fewer than 3 interior nodes.
    """
    if not (math.isfinite(h) and h > 0):
        raise GeometryError(f"h must be positive and finite, got {h}")
    box = spec.box()
    axes = [np.arange(math.floor(lo / h) - 1, math.ceil(hi / h) + 2)
            for lo, hi in box]
    cand = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(box))
    pts = cand * h if len(box) > 1 else cand[:, 0] * h  # flat in 1-D
    mask = spec.contains(pts)
    eps = 1e-12 * max(abs(c) for lo_hi in box for c in lo_hi)
    mask[mask] = spec.distance(pts[mask]) > eps
    lattice = cand[mask]
    if any(len(np.unique(lattice[:, k])) < 3 for k in range(len(box))):
        raise GeometryError(f"h={h} leaves fewer than 3 interior nodes per axis")
    nodes = pts[mask]
    weights = np.full(len(lattice), math.prod([h] * len(box)))
    return Grid(spec, h, nodes, lattice, weights)


def build_radial_grid(spec: Disk, h: float) -> Grid:
    """1D radial reduction of the disk: nodes r_i = i*h', i = 0..M.

    h is snapped to h' = R/(M+1) so the Dirichlet ghost node lands exactly
    on r = R. Weights are finite-volume cell areas: pi h'^2/4 for the center
    cell, 2 pi r_i h' for the annuli; they make the radial operator exactly
    symmetrizable.
    """
    if not isinstance(spec, Disk):
        raise GeometryError("radial grids only apply to disks")
    if not 0 < h < spec.R:
        raise GeometryError(f"radial spacing h={h} incompatible with R={spec.R}")
    M = max(int(round(spec.R / h)) - 1, 2)
    hh = spec.R / (M + 1)
    r = np.arange(M + 1) * hh
    weights = np.empty(M + 1)
    weights[0] = math.pi * hh * hh / 4.0
    weights[1:] = 2.0 * math.pi * r[1:] * hh
    return Grid(spec, hh, r, np.arange(M + 1), weights, kind="radial")
