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
    temporaries: the reference the in-place crossing_parity must match."""
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
        ell = es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.2, 2.2, size=(200, 2))
        par = ell.crossing_parity(pts)
        assert np.array_equal(par, ell.contains(pts, boundary_eps=0.0))

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
        assert np.array_equal(poly.crossing_parity(pts),
                              out_of_place_parity(poly, pts))

    @pytest.mark.parametrize("eps", [None, 0.0, 1e-12, 1e-3])
    def test_contains_measures_edges_on_odd_parity_only(self, eps):
        # skipping the edge distances for even-parity points must not change
        # a single answer: compare with parity & ~near over every point
        ell = es.Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        v = np.asarray(ell.vertices)
        rng = np.random.default_rng(11)
        t = rng.uniform(0, 1, (500, 1))
        i = rng.integers(len(v), size=500)
        on_edges = v[i] + t * (np.roll(v, -1, axis=0)[i] - v[i])
        pts = np.concatenate([rng.uniform(-0.3, 2.3, (2000, 2)), on_edges,
                              on_edges + rng.normal(0, 1e-12, (500, 2)), v])
        e = 1e-12 * 2.0 if eps is None else eps
        want = ell.crossing_parity(pts) & ~ell._near_boundary(pts, e)
        got = ell.contains(pts) if eps is None else ell.contains(pts, eps)
        assert np.array_equal(got, want)

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
        # for polygons of extent >= 1 the relative default equals the
        # earlier 1e-12 * max(extent, 1): C8's perturbed square in its eight
        # images under the square's symmetries, and the suite's polygons
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
                old = poly.contains(ij * h, boundary_eps=1e-12 * max(extent, 1))
                assert np.array_equal(poly.contains(ij * h), old)
                assert g.n == int(old.sum())

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
        # the interval's and the rectangle's guard is relative, as the
        # polygon's is; an absolute 1e-12 dropped the nodes within it of a
        # side, so at c = 2^-40 every axis had fewer than 3
        h = c / 8
        ticks = list(range(1, 8))
        square = [(i, j) for i in ticks for j in ticks]
        poly = es.Polygon([(c * x, c * y) for x, y in UNIT_SQUARE])
        assert es.build_grid(es.Interval(0, c), h).lattice.tolist() == [
            [i] for i in ticks]
        for spec in (es.Rectangle(c, c), poly):
            assert es.build_grid(spec, h).lattice.tolist() == [
                list(ij) for ij in square]

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
