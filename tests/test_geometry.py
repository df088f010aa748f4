import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exitspec as es
import oracles
from exitspec.geometry import shoelace_area


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def out_of_place_parity(poly, p):
    """Even-odd ray casting as one expression per edge, with fresh
    temporaries: the reference the in-place Polygon.contains must match."""
    v = np.asarray(poly.vertices)
    x, y = p[:, 0], p[:, 1]
    inside = np.zeros(len(p), dtype=bool)
    n = len(v)
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        cond = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (x < xc)
    return inside


class TestSpecs:
    def test_interval_measures(self):
        iv = es.Interval(0.25, 1.75)
        assert iv.volume() == 1.5
        assert iv.boundary_measure() == 2.0

    def test_interval_rejects_empty(self):
        with pytest.raises(es.GeometryError):
            es.Interval(1.0, 1.0)

    def test_rectangle_measures(self):
        r = es.Rectangle(2.0, 0.5)
        assert r.volume() == 1.0
        assert r.boundary_measure() == 5.0

    def test_disk_measures(self):
        d = es.Disk(2.0)
        assert d.volume() == pytest.approx(4 * math.pi, rel=1e-15)
        assert d.boundary_measure() == pytest.approx(4 * math.pi, rel=1e-15)

    def test_polygon_square_measures(self):
        p = es.Polygon(UNIT_SQUARE)
        assert p.volume() == pytest.approx(1.0, abs=1e-15)
        assert p.boundary_measure() == pytest.approx(4.0, abs=1e-14)

    def test_contains(self):
        iv = es.Interval(0, 1)
        inside = iv.contains(np.array([0.5, 0.0, 1.0, -0.1]))
        # open domain: boundary points are out
        assert inside.tolist() == [True, False, False, False]

        d = es.Disk(1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.7, 0.7], [0.7, 0.75]])
        assert d.contains(pts).tolist() == [True, False, True, False]

    def test_polygon_contains_nonconvex(self):
        # L-shape: the notch corner region is outside
        ell = es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]])
        assert ell.contains(pts).tolist() == [True, True, False, True]
        assert ell.volume() == pytest.approx(3.0, abs=1e-14)

    def test_crossing_parity_matches_contains(self):
        # contains is crossing parity alone, on any leading shape
        ell = es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.2, 2.2, size=(200, 2))
        par = out_of_place_parity(ell, pts)
        assert np.array_equal(ell.contains(pts), par)
        blocks = ell.contains(pts.reshape(4, 5, 10, 2))
        assert blocks.shape == (4, 5, 10)
        assert np.array_equal(blocks.ravel(), par)
        assert ell.contains(pts[0]).shape == ()
        assert ell.contains(pts[0]) == par[0]
        assert ell.distance(pts.reshape(4, 50, 2)).shape == (4, 50)

    @pytest.mark.parametrize("name", ["L", "c8_square", "triangle"])
    def test_crossing_parity_bits_of_the_out_of_place_expression(self, name):
        """The in-place crossing test gives the mask of the expression
        written out of place, bit for bit: on random points (x/0 against a
        horizontal edge), on every vertex, exactly on the lines of
        horizontal edges (0/0) and of vertical edges, and on slanted edges
        at the crossing abscissa and one ulp either side of it."""
        poly = {"L": es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2),
                                 (0, 2)]),
                "c8_square": es.perturb_polygon(
                    es.Polygon(UNIT_SQUARE), (-1.0, 0.6, 1.0, -0.2), 0.07),
                "triangle": es.Polygon([(0, 0), (3, 1), (1, 2.5)])}[name]
        v = np.asarray(poly.vertices)
        w = np.roll(v, -1, axis=0)
        rng = np.random.default_rng(5)
        lo, hi = v.min(axis=0) - 0.2, v.max(axis=0) + 0.2

        def on_lines(axis, at):  # 50 points with coordinate axis = each at
            pts = rng.uniform(lo, hi, (50 * len(at), 2))
            pts[:, axis] = np.repeat(at, 50)
            return pts

        flat, upright = v[:, 1] == w[:, 1], v[:, 0] == w[:, 0]
        slanted = np.flatnonzero(~(flat | upright))
        i = rng.choice(slanted, 300) if len(slanted) else slanted
        a, b = v[i], w[i]
        y = a[:, 1] + rng.uniform(0, 1, len(i)) * (b[:, 1] - a[:, 1])
        xc = a[:, 0] + (y - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
        at_cross = [np.stack([np.nextafter(xc, side), y], axis=1)
                    for side in (-np.inf, xc, np.inf)]
        pts = np.concatenate([rng.uniform(lo, hi, (2000, 2)), v,
                              on_lines(1, v[flat, 1]),
                              on_lines(0, v[upright, 0]), *at_cross])
        assert np.array_equal(poly.contains(pts),
                              out_of_place_parity(poly, pts))

    @pytest.mark.parametrize("eps", [None, 0.0, 1e-12, 1e-3])
    def test_contains_measures_edges_on_odd_parity_only(self, eps):
        # build_grid measures edge distances only where contains (odd
        # parity) holds; that must keep exactly the candidates of odd
        # parity and distance > 1e-12 times the box's largest |coordinate|,
        # both judged over every candidate. eps moves the L's vertices off
        # the lattice (None: its integer vertices, 0.0: the same after a
        # float addition), so nodes sit on its edges and vertices, within
        # the guard of them, or past it
        verts = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        if eps is not None:
            verts = [(x + eps, y + eps) for x, y in verts]
        ell = es.Polygon(verts)
        h = 1 / 16
        box = ell.box()
        axes = [np.arange(math.floor(lo / h) - 1, math.ceil(hi / h) + 2)
                for lo, hi in box]
        ij = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
        pts = ij * h
        guard = 1e-12 * max(abs(c) for lo_hi in box for c in lo_hi)
        keep = out_of_place_parity(ell, pts) & (ell.distance(pts) > guard)
        assert es.build_grid(ell, h).lattice.tolist() == ij[keep].tolist()
        # nodes on the notch's vertical edge x = 1 + eps, above y = 1
        notch = (ij[:, 0] == 16) & (ij[:, 1] > 16) & (ij[:, 1] < 32)
        on_edge_kept = keep[notch]
        assert on_edge_kept.all() if eps == 1e-3 else not on_edge_kept.any()

    def test_polygon_tolerances_scale_with_the_polygon(self):
        # area, collinearity and touching tolerances are relative, so a
        # dilation by c = 2^k decides every case as at c = 1
        shapes = {"square": UNIT_SQUARE,
                  "L": [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                  # (3, 1) lies in the bounding box of the edge from (0, 0)
                  # to (4, 4): only orientation tells them apart
                  "dart": [(0, 0), (4, 4), (5, 4), (5, 0), (3, 1)]}
        bowtie = [(0, 0), (2, 1), (2, 0), (0, 2)]    # crossing, area 1
        for k in range(-40, 41):
            c = 2.0 ** k
            for name, verts in shapes.items():
                poly = es.Polygon([(c * x, c * y) for x, y in verts])
                unit = es.Polygon(verts)
                assert poly.volume() == c * c * unit.volume(), (name, k)
            with pytest.raises(es.GeometryError, match="self-intersecting"):
                es.Polygon([(c * x, c * y) for x, y in bowtie])

    def test_default_boundary_eps_scales_with_the_polygon(self):
        # the unit square dilated by c = 2^k keeps the nodes it has at
        # c = 1; an absolute floor on eps dropped every node below c ~ 1e-12
        for k in range(-40, 41):
            c = 2.0 ** k
            poly = es.Polygon([(c * x, c * y) for x, y in UNIT_SQUARE])
            assert es.build_grid(poly, c / 16).n == 15 * 15, k

    def test_default_boundary_eps_unchanged_from_extent_one(self):
        # build_grid's guard, 1e-12 times the box's largest |coordinate|,
        # keeps the nodes that the earlier polygon guard, 1e-12 times
        # max(extent, 1) of the vertices, kept: C8's perturbed square in its
        # eight images under the square's symmetries, and the suite's
        # polygons
        flow = [-1.0, 0.6, 1.0, -0.2]
        images = []
        for k in range(8):
            f = [flow[0], flow[3], flow[2], flow[1]] if k >= 4 else flow
            images.append(f[k % 4:] + f[:k % 4])
        polys = [es.perturb_polygon(es.Polygon(UNIT_SQUARE), f, 0.07)
                 for f in images]
        polys += [es.Polygon(v) for v in (
            UNIT_SQUARE,
            [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
            [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)],
            [(0.1, -0.2), (1.3, 0.05), (1.7, 0.9), (0.9, 1.4), (0.35, 1.1),
             (-0.4, 0.6)])]
        for poly in polys:
            extent = float(np.ptp(np.asarray(poly.vertices)))
            assert extent >= 1.0
            for h in (1 / 64, 0.03):
                g = es.build_grid(poly, h)
                lo = np.floor(np.min(poly.vertices, axis=0) / h) - 1
                hi = np.ceil(np.max(poly.vertices, axis=0) / h) + 2
                ij = np.stack(np.meshgrid(np.arange(lo[0], hi[0]),
                                          np.arange(lo[1], hi[1]),
                                          indexing="ij"), -1).reshape(-1, 2)
                old = (out_of_place_parity(poly, ij * h)
                       & (poly.distance(ij * h) > 1e-12 * max(extent, 1)))
                assert g.lattice.tolist() == ij[old].astype(int).tolist()

    def test_self_intersecting_rejected(self):
        with pytest.raises(es.GeometryError):
            es.Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_degenerate_rejected(self):
        with pytest.raises(es.GeometryError):
            es.Polygon([(0, 0), (1, 0)])

    @pytest.mark.parametrize("make, bad", [
        (lambda: es.Disk(math.nan), "nan"),
        (lambda: es.Disk(math.inf), "inf"),
        (lambda: es.Rectangle(math.inf, 1), "inf"),
        (lambda: es.Rectangle(1, math.nan), "nan"),
        (lambda: es.Interval(0, math.inf), "inf"),
        (lambda: es.Interval(math.nan, 1), "nan"),
        (lambda: es.Polygon([(0, 0), (1, math.nan), (1, 1)]), "nan"),
        (lambda: es.Polygon([(0, 0), (1, 0), (-math.inf, 1)]), "inf"),
    ])
    def test_non_finite_rejected(self, make, bad):
        with pytest.raises(es.GeometryError, match=bad):
            make()


def corners(spec):
    """A rectangle's or a polygon's vertices, counterclockwise, (n, 2)."""
    if spec.kind == "rectangle":
        return np.array([(0, 0), (spec.Lx, 0), (spec.Lx, spec.Ly),
                         (0, spec.Ly)], dtype=float)
    return np.array(spec.vertices)


def sampled_boundary(spec, k):
    """k points on each edge of spec's boundary (on its circle for a disk,
    its two ends for an interval), and their spacing along it."""
    if spec.kind == "interval":
        return np.array([spec.a, spec.b]), 0.0
    if spec.kind == "disk":
        theta = np.linspace(0.0, 2 * math.pi, k)
        return spec.R * np.stack([np.cos(theta), np.sin(theta)], 1), \
            2 * math.pi * spec.R / (k - 1)
    a = corners(spec)
    b = np.roll(a, -1, axis=0)
    t = np.linspace(0.0, 1.0, k)[:, None, None]
    return (a + t * (b - a)).reshape(-1, 2), \
        float(np.max(np.hypot(*(b - a).T))) / (k - 1)


def interior_probes(spec, rng):
    """Random interior points, and points 1e-3..1e-9 of the box's extent
    from every edge's midpoint and every vertex (every end on an interval,
    the circle's points at 16 angles on a disk) toward the random points'
    mean; those that land outside are dropped."""
    lo, hi = np.array(spec.box()).T
    pts = lo + rng.uniform(0, 1, (400, spec.dim)) * (hi - lo)
    pts = pts[spec.contains(pts if spec.dim > 1 else pts[:, 0])]
    extent = float(np.max(hi - lo))
    if spec.kind == "interval":
        marks = np.array([[spec.a], [spec.b]])
    elif spec.kind == "disk":
        theta = np.arange(16) * (math.pi / 8)
        marks = spec.R * np.stack([np.cos(theta), np.sin(theta)], 1)
    else:
        v = corners(spec)
        marks = np.concatenate([v, (v + np.roll(v, -1, axis=0)) / 2])
    center = pts.mean(axis=0)
    near = [m + f * extent * (center - m) / np.linalg.norm(center - m)
            for f in (1e-3, 1e-6, 1e-9) for m in marks]
    pts = np.concatenate([pts, near])
    inside = spec.contains(pts if spec.dim > 1 else pts[:, 0])
    return pts[inside]


DISTANCE_SPECS = {
    "interval": es.Interval(-0.71, 0.4),
    "rectangle": es.Rectangle(1, 2.5),
    "disk": es.Disk(0.8),
    "L": es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    "c8_square": es.perturb_polygon(es.Polygon(UNIT_SQUARE),
                                    (-1.0, 0.6, 1.0, -0.2), 0.07),
    "irregular": es.Polygon([(0.1, -0.2), (1.3, 0.05), (1.7, 0.9),
                             (0.9, 1.4), (0.35, 1.1), (-0.4, 0.6)]),
    "translated": es.Polygon([(x + 1000.0, y - 250.0) for x, y in
                              [(0, 0), (3, 1), (1, 2.5)]]),
}


class TestDistance:
    @pytest.mark.parametrize("name", list(DISTANCE_SPECS))
    def test_distance_against_a_densely_sampled_boundary(self, name):
        """No boundary sample lies nearer than distance says, and the
        nearest lies within half a sample spacing more; on the interval,
        whose boundary is its two ends, the two agree to rounding."""
        spec = DISTANCE_SPECS[name]
        pts = interior_probes(spec, np.random.default_rng(17))
        bnd, spacing = sampled_boundary(spec, 4001)
        got = spec.distance(pts if spec.dim > 1 else pts[:, 0])
        assert np.all(got > 0)
        # coordinates near 1000 round to 1.2e-13; the samples do too
        slack = 1e-15 * (1 + float(np.max(np.abs(bnd))))
        for rows in np.array_split(np.arange(len(pts)), 20):
            diff = pts[rows, None, :] - bnd.reshape(1, len(bnd), -1)
            near = np.sqrt(np.min(np.sum(diff ** 2, axis=2), axis=1))
            assert np.all(got[rows] <= near + slack), name
            assert np.all(near <= got[rows] + spacing / 2 + slack), name

    @pytest.mark.parametrize("name", list(DISTANCE_SPECS))
    def test_distance_of_points_near_edges_and_vertices(self, name):
        """A point d inside a side's midpoint along its inward normal (an
        interval's end, a point of the circle along its radius) lies d from
        the boundary, up to the rounding of its coordinates, for d from
        1e-3 to 1e-9 of the box's extent; one d inside a vertex, toward
        the interior, lies at most d from it."""
        spec = DISTANCE_SPECS[name]
        lo, hi = np.array(spec.box()).T
        extent = float(np.max(hi - lo))
        tol = 4e-16 * (1 + float(np.max(np.abs([lo, hi]))))
        for f in (1e-3, 1e-6, 1e-9):
            d = f * extent
            if spec.kind == "interval":
                pts = np.array([spec.a + d, spec.b - d])
            elif spec.kind == "disk":
                theta = np.arange(16) * (math.pi / 8)
                pts = (spec.R - d) * np.stack([np.cos(theta),
                                               np.sin(theta)], 1)
            else:
                v = corners(spec)
                e = np.roll(v, -1, axis=0) - v
                inward = np.stack([-e[:, 1], e[:, 0]], 1)  # counterclockwise
                inward /= np.hypot(*inward.T)[:, None]
                pts = v + e / 2 + d * inward
                ahead = inward + np.roll(inward, 1, axis=0)
                corner = v + d * ahead / np.hypot(*ahead.T)[:, None]
                at = spec.distance(corner[spec.contains(corner)])
                assert np.all((at > 0) & (at <= d + tol)), (name, f)
            assert np.all(spec.contains(pts)), (name, f)
            assert np.abs(spec.distance(pts) - d).max() <= tol, (name, f)

    @pytest.mark.parametrize("name", list(DISTANCE_SPECS))
    def test_distance_follows_dilations_exactly(self, name):
        # every operation scales by c = 2^k without rounding, so the
        # dilated domain's distance is c times the original's, bit for bit
        spec = DISTANCE_SPECS[name]
        pts = interior_probes(spec, np.random.default_rng(23))
        pts = pts if spec.dim > 1 else pts[:, 0]
        want = spec.distance(pts)
        for k in range(-20, 21, 5):
            c = 2.0 ** k
            if spec.kind == "interval":
                big = es.Interval(c * spec.a, c * spec.b)
            elif spec.kind == "rectangle":
                big = es.Rectangle(c * spec.Lx, c * spec.Ly)
            elif spec.kind == "disk":
                big = es.Disk(c * spec.R)
            else:
                big = es.Polygon([(c * x, c * y) for x, y in spec.vertices])
            assert np.array_equal(big.distance(c * pts), c * want), (name, k)

    def test_contains_is_the_open_set(self):
        # no guard in the interior test: a point a hair inside is in, with
        # a positive distance; points on the boundary are out
        tiny = 2.0 ** -500  # its square is a normal float
        iv = es.Interval(0, 1)
        assert iv.contains(np.array([tiny, 1 - 2 ** -53, 0.0, 1.0])).tolist() \
            == [True, True, False, False]
        assert iv.distance(tiny) == tiny
        r = es.Rectangle(1, 2.5)
        pts = np.array([[tiny, 1.0], [0.5, 2.5 - 2 ** -51], [0.0, 1.0],
                        [1.0, 1.0], [0.5, 0.0], [0.5, 2.5]])
        assert r.contains(pts).tolist() == [True, True] + [False] * 4
        assert r.distance(pts[:2]).tolist() == [tiny, 2 ** -51]
        sq = es.Polygon(UNIT_SQUARE)
        assert sq.contains([0.5, tiny]) and sq.distance([0.5, tiny]) == tiny
        # on an edge or a vertex, contains may read either way, and
        # distance marks the point with 0
        on = np.array([[0.5, 0.0], [0.0, 0.5], [1.0, 0.5], [0.5, 1.0],
                       [0.0, 0.0], [1.0, 1.0]])
        assert sq.distance(on).tolist() == [0.0] * 6
        d = es.Disk(5.0)
        assert d.distance(np.array([[3.0, 4.0], [0.0, 0.0]])).tolist() == [
            0.0, 5.0]


def test_shoelace_orientation_and_value():
    assert shoelace_area(UNIT_SQUARE) == pytest.approx(1.0)
    tri = [(0, 0), (1, 0), (0, 2)]
    assert shoelace_area(tri) == pytest.approx(1.0)


def test_vertex_normals_unit_and_outward():
    p = es.Polygon(UNIT_SQUARE)
    normals = p.vertex_normals()
    cx = sum(v[0] for v in p.vertices) / 4
    cy = sum(v[1] for v in p.vertices) / 4
    for (vx, vy), (nx, ny) in zip(p.vertices, normals):
        assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-12)
        # bisector normal points away from the centroid on a convex polygon
        assert (vx - cx) * nx + (vy - cy) * ny > 0


class TestPerturb:
    def test_eps_zero_is_identity(self):
        p = es.Polygon(UNIT_SQUARE)
        q = es.perturb_polygon(p, [1.0, -0.5, 0.3, 0.7], 0.0)
        assert q.vertices == p.vertices

    def test_moves_along_bisectors(self):
        p = es.Polygon(UNIT_SQUARE)
        q = es.perturb_polygon(p, [1.0, 0.0, 0.0, 0.0], 0.1)
        # only the first vertex moves, by eps along its outward bisector
        assert q.vertices[1:] == p.vertices[1:]
        dx = q.vertices[0][0] - p.vertices[0][0]
        dy = q.vertices[0][1] - p.vertices[0][1]
        assert math.hypot(dx, dy) == pytest.approx(0.1, rel=1e-12)
        assert dx == pytest.approx(-0.1 / math.sqrt(2), rel=1e-12)

    def test_f_length_mismatch(self):
        p = es.Polygon(UNIT_SQUARE)
        with pytest.raises(es.GeometryError):
            es.perturb_polygon(p, [1.0, 2.0], 0.1)

    @given(
        f=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
        eps=st.floats(0.0, 0.08),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_perturbations_stay_simple(self, f, eps):
        p = es.Polygon(UNIT_SQUARE)
        q = es.perturb_polygon(p, f, eps)
        # construction re-validates; area stays near 1 for small eps
        assert abs(q.volume() - 1.0) < 4 * eps + 1e-12


class TestGrids:
    def test_interval_lattice(self):
        g = es.build_grid(es.Interval(0, 1), 1 / 128)
        assert g.kind == "lattice"
        assert g.n == 127
        assert math.fsum(g.weights) == pytest.approx(1.0 - 1 / 128, rel=1e-14)
        assert np.all(g.spec.contains(np.asarray(g.nodes)))

    def test_lattice_weight_sum_converges_to_volume(self):
        errs = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            g = es.build_grid(es.Disk(1.0), h)
            errs.append(abs(math.fsum(g.weights) - math.pi))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.02

    def test_radial_grid_cell_sum(self):
        h = 1 / 256
        g = es.build_radial_grid(es.Disk(1.0), h)
        assert g.kind == "radial"
        # finite-volume cells tile the disk of radius R - h/2 exactly
        assert math.fsum(g.weights) == pytest.approx(
            math.pi * (1.0 - h / 2) ** 2, rel=1e-12)

    def test_radial_requires_disk(self):
        with pytest.raises((es.GeometryError, TypeError, AttributeError)):
            es.build_radial_grid(es.Rectangle(1, 1), 1 / 32)

    def test_neighbors_interior(self):
        g = es.build_grid(es.Rectangle(1, 1), 1 / 8)
        center = g.lattice[g.n // 2]
        assert g.locate(center) == g.n // 2
        steps = np.array([[-1, 0], [1, 0], [0, -1], [0, 1]])
        nbrs = g.locate(center + steps)
        assert np.all(nbrs >= 0)
        assert np.array_equal(g.lattice[nbrs], center + steps)

    def test_locate_rejects_points_outside_the_bounding_box(self):
        # lattice 1..7 on both axes: (1, 8) has the linear key of (2, 1)
        # and (2, 0) that of (1, 7); neither is a node
        g = es.build_grid(es.Rectangle(1, 1), 1 / 8)
        assert g.lattice.min() == 1 and g.lattice.max() == 7
        pts = np.array([[1, 8], [2, 0], [2, 1], [1, 7], [0, 4], [8, 4]])
        assert g.locate(pts).tolist() == [-1, -1, 7, 6, -1, -1]
        assert g.locate([[1, 1]]).tolist() == [0]
        with pytest.raises(ValueError):
            g.locate([1, 2, 3])
        # locate's keys rely on the lexicographic node order
        with pytest.raises(es.GeometryError, match="lexicographic"):
            es.Grid(g.spec, g.h, g.nodes[::-1], g.lattice[::-1], g.weights)

    @pytest.mark.parametrize("c", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_boundary_guard_scales_with_the_domain(self, c):
        # build_grid's guard is relative to the box for every domain type;
        # an absolute 1e-12 dropped the nodes within it of a side, so at
        # c = 2^-40 every axis had fewer than 3. The disk of radius 8 lattice
        # steps has nodes (0, +-8) and (+-8, 0) on its circle, which stay out
        h = c / 8
        ticks = list(range(1, 8))
        square = [(i, j) for i in ticks for j in ticks]
        poly = es.Polygon([(c * x, c * y) for x, y in UNIT_SQUARE])
        assert es.build_grid(es.Interval(0, c), h).lattice.tolist() == [
            [i] for i in ticks]
        for spec in (es.Rectangle(c, c), poly):
            assert es.build_grid(spec, h).lattice.tolist() == [
                list(ij) for ij in square]
        disk = [[i, j] for i in range(-8, 9) for j in range(-8, 9)
                if i * i + j * j < 64]
        assert es.build_grid(es.Disk(c), h).lattice.tolist() == disk

    def test_h_must_be_positive(self):
        for h in (0.0, -0.1, math.nan, math.inf):
            # the message names the bad value
            with pytest.raises(es.GeometryError, match=f"got {h}"):
                es.build_grid(es.Interval(0, 1), h)
            with pytest.raises(es.GeometryError, match=f"h={h}"):
                es.build_radial_grid(es.Disk(1.0), h)

    @pytest.mark.parametrize("spec", [
        es.Interval(0, 1), es.Interval(0.3, 1.55), es.Interval(-0.71, 0.4),
        es.Rectangle(1, 2.5), es.Disk(0.8),
        es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
        es.Polygon([(0.1, -0.2), (1.3, 0.05), (1.7, 0.9), (0.9, 1.4),
                    (0.35, 1.1), (-0.4, 0.6)]),
    ], ids=["interval", "shifted", "negative-a", "rectangle", "disk",
            "L-polygon", "irregular"])
    @pytest.mark.parametrize("h", [1 / 8, 1 / 37, 0.03, 1 / 64])
    def test_build_grid_matches_loop_oracle(self, spec, h):
        g = es.build_grid(spec, h)
        nodes, lattice, weights = oracles.loop_lattice_grid(spec, h)
        assert g.nodes.shape == nodes.shape
        assert np.array_equal(g.nodes, nodes)
        assert g.lattice.tolist() == [list(c) for c in lattice]
        assert np.array_equal(g.weights, weights)

    def test_dump_csv(self, tmp_path):
        g = es.build_grid(es.Interval(0, 1), 1 / 8)
        path = tmp_path / "grid.csv"
        g.dump_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == g.n + 1
