import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from hypothesis import given, settings, strategies as st

import exitspec as es
import exitspec.discrete_ops as dops
from exitspec.discrete_ops import exact_sum


def test_operator_symmetry_and_sign():
    g = es.build_grid(es.Rectangle(1, 1), 1 / 16)
    op = es.assemble_half_laplacian(g)
    d = (op.sym - op.sym.T).tocoo()
    assert d.nnz == 0 or np.abs(d.data).max() == 0.0
    # SPD: diagonal positive, off-diagonals nonpositive (M-matrix)
    dense = op.sym.toarray()
    assert np.all(np.diag(dense) > 0)
    off = dense - np.diag(np.diag(dense))
    assert np.all(off <= 0)


def test_interval_quadratic_is_solved_exactly():
    """The 3-point stencil differentiates quadratics without truncation
    error, so the discrete torsion field equals x(1-x) to rounding."""
    g = es.build_grid(es.Interval(0, 1), 1 / 64)
    op = es.assemble_half_laplacian(g)
    u = es.solve_poisson(op, es.Field.ones(g), tol=1e-12)
    x = np.asarray(g.nodes, dtype=float)
    assert np.abs(u.values - x * (1.0 - x)).max() < 1e-13


def test_2d_solve_residual_and_positivity():
    g = es.build_grid(es.Rectangle(1, 1), 1 / 32)
    op = es.assemble_half_laplacian(g)
    b = es.Field.ones(g)
    u = es.solve_poisson(op, b, tol=1e-11)
    r = op.sym @ u.values - b.values
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b.values)
    # discrete maximum principle: positive source, positive solution
    assert u.values.min() > 0


def test_2d_solve_contract_through_cached_factor():
    g = es.build_grid(es.Rectangle(1, 1), 1 / 32)
    op = es.assemble_half_laplacian(g)
    x, y = g.nodes[:, 0], g.nodes[:, 1]
    b = es.Field(g, np.sin(np.pi * x) * (1.0 + y))
    u = es.solve_poisson(op, b, tol=1e-11)
    lu = op.factor()
    # node-space residual contract, saturating at the backward-stable floor
    r = op.apply(u.values) - b.values
    floor = (8.0 * np.finfo(float).eps * op.norm_inf()
             * np.linalg.norm(u.values))
    assert np.linalg.norm(r) <= max(1e-11 * np.linalg.norm(b.values), floor)
    # the second solve reuses the factor and repeats the first bit for bit
    again = es.solve_poisson(op, b, tol=1e-11)
    assert op.factor() is lu
    assert np.array_equal(again.values, u.values)


def test_grid_and_operator_free_without_the_cycle_collector():
    """The grid keeps its operator and the operator refers back weakly, so
    dropping the grid frees both, LU factors included, by reference
    counting alone; a cycle would keep them until the cyclic gc runs."""
    g = es.build_grid(es.Rectangle(1, 1), 1 / 16)
    op = es.assemble_half_laplacian(g)
    op.factor()
    assert op.grid is g
    ref = weakref.ref(op)
    gc.disable()
    try:
        del g, op
        assert ref() is None
    finally:
        gc.enable()


C8_SQUARE = es.perturb_polygon(es.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
                               [-1.0, 0.6, 1.0, -0.2], 0.07)


@pytest.mark.parametrize("grid", [
    lambda: es.build_grid(es.Rectangle(1, 1), 1 / 64),
    lambda: es.build_grid(C8_SQUARE, 1 / 64),
    lambda: es.build_radial_grid(es.Disk(1), 1 / 256),
    lambda: es.build_grid(es.Interval(0, 1), 1 / 512),
], ids=["square", "c8-polygon", "radial-disk", "interval"])
@pytest.mark.parametrize("shift", [0.0, 800.0])
def test_factor_matches_scipy_default_supernodes(grid, shift):
    """The cached factor's small supernodes change neither the ordering nor
    the fill of SuperLU's default factor, and its solves agree to rounding."""
    g = grid()
    op = es.assemble_half_laplacian(g)
    A = (op.sym + shift * sparse.eye(g.n, format="csr")).tocsc()
    plain = splinalg.splu(A, permc_spec="MMD_AT_PLUS_A")
    lu = op.factor(shift)
    assert lu.L.nnz + lu.U.nnz == plain.L.nnz + plain.U.nnz
    rng = np.random.default_rng(5)
    for b in (op.sqrtw, rng.standard_normal(g.n)):
        want = plain.solve(b)
        got = lu.solve(b)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _loop_assembly(grid):
    """Entry-by-entry assembly of S, kept independent of the package's."""
    n = grid.n
    rows, cols, vals = [], [], []
    if grid.kind == "radial":
        h, r = grid.h, grid.nodes
        face = [(r[i] + h / 2.0) * math.pi / h for i in range(n)]
        for i in range(n):
            rows.append(i); cols.append(i)
            vals.append(face[i] + (face[i - 1] if i > 0 else 0.0))
            if i + 1 < n:
                rows += [i, i + 1]; cols += [i + 1, i]; vals += [-face[i]] * 2
        WM = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
        d = sparse.diags(1.0 / np.sqrt(grid.weights))
        return (d @ WM @ d).tocsr()
    c = 1.0 / (2.0 * grid.h ** 2)
    index = {tuple(coord): i for i, coord in enumerate(grid.lattice.tolist())}
    for i, coord in enumerate(grid.lattice.tolist()):
        rows.append(i); cols.append(i); vals.append(2 * len(coord) * c)
        for axis in range(len(coord)):
            for step in (-1, 1):
                nb = list(coord)
                nb[axis] += step
                if tuple(nb) in index:
                    rows.append(i); cols.append(index[tuple(nb)])
                    vals.append(-c)
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("grid", [
    es.build_grid(es.Interval(0, 1), 1 / 37),
    es.build_grid(es.Rectangle(1, 1), 1 / 24),
    es.build_grid(es.Polygon([(0, 0), (1, 0), (1, 0.5), (0.5, 0.5),
                              (0.5, 1), (0, 1)]), 1 / 20),
    es.build_radial_grid(es.Disk(1), 1 / 50),
], ids=["interval", "square", "L-polygon", "radial-disk"])
def test_vectorized_assembly_matches_loop(grid):
    got = es.assemble_half_laplacian(grid).sym.tocsr()
    want = _loop_assembly(grid)
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def test_laplace_transform_matches_discrete_closed_form():
    """On a lattice the 3-point stencil is solved exactly by
    cosh(k(x - 1/2)) / cosh(k/2) with cosh(k h) = 1 + s h^2."""
    s, h = 3.0, 1 / 128
    g = es.build_grid(es.Interval(0, 1), h)
    x = np.asarray(g.nodes, dtype=float)
    got = es.laplace_transform(g, s).values
    k = math.acosh(1.0 + s * h * h) / h
    want = np.cosh(k * (x - 0.5)) / math.cosh(k / 2.0)
    assert np.abs(got - want).max() <= 1e-12
    # and the continuum law E^{1/2}[exp(-s tau)] = 1/cosh(sqrt(2 s)/2)
    mid = es.Field(g, got).value_at(0.5)
    assert mid == pytest.approx(1.0 / math.cosh(math.sqrt(2 * s) / 2),
                                rel=1e-4)


def test_radial_operator_matches_lattice_torsion():
    # radial scheme and 2D lattice must agree on the disk torsion integral
    rad = es.build_radial_grid(es.Disk(1), 1 / 512)
    lat = es.build_grid(es.Disk(1), 1 / 64)
    vals = []
    for g in (rad, lat):
        u = es.solve_poisson(es.assemble_half_laplacian(g), es.Field.ones(g))
        vals.append(es.integrate(u))
    assert vals[0] == pytest.approx(math.pi / 4, rel=1e-5)
    # the staircase boundary costs the lattice scheme an order of accuracy
    assert vals[1] == pytest.approx(math.pi / 4, rel=3e-2)


def test_integrate_and_inner():
    g = es.build_grid(es.Interval(0, 1), 1 / 64)
    one = es.Field.ones(g)
    assert es.integrate(one) == pytest.approx(math.fsum(g.weights), rel=1e-15)
    x = es.Field(g, np.asarray(g.nodes, dtype=float))
    # open-lattice quadrature of x: h^2 (1 + ... + 63) = 63/128 exactly
    assert es.inner(one, x) == pytest.approx(63 / 128, rel=1e-15)


def _sum_outcome(fn, values):
    """The float's bits (hex keeps the sign of zero), or the error type."""
    try:
        return fn(np.asarray(values, dtype=float)).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def _same_as_fsum(values):
    assert _sum_outcome(exact_sum, values) == _sum_outcome(math.fsum, values)


# m 2^e with |m| < 1 and e over the whole exponent range, so terms run from
# subnormal to the edge of overflow
_spread = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023))
# exact ties: a 53-bit odd significand plus or minus half its last place
_tie = st.builds(lambda m, e, s: [math.ldexp(m, e), s * math.ldexp(1.0, e - 1)],
                 st.integers(2 ** 52, 2 ** 53 - 1).map(lambda m: m | 1),
                 st.integers(-1074, 960), st.sampled_from([-1.0, 1.0]))


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_spread | st.floats(allow_nan=False, allow_infinity=False),
                    max_size=300))
    def test_matches_fsum_across_the_float_range(self, values):
        _same_as_fsum(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2 ** 53, 2 ** 53).map(
               lambda i: math.ldexp(i, -1074)), max_size=200),
           st.lists(_tie, max_size=4), st.lists(st.floats(1e-3, 1e3), max_size=20))
    def test_matches_fsum_on_subnormals_ties_and_cancellation(self, subs, ties,
                                                             pairs):
        # pairs cancel exactly, leaving the ties and subnormals to round
        values = subs + [v for t in ties for v in t] + pairs + [-p for p in pairs]
        _same_as_fsum(values)
        _same_as_fsum([v for t in ties for v in t] + pairs + [-p for p in pairs])

    def test_empty_zeros_and_overflow(self):
        for values in ([], [0.0], [-0.0], [0.0] * 7, [-0.0, -0.0],
                       [5e-324, -5e-324], [2.0 ** -1074] * 3,
                       [1.7e308, 1.7e308, -1.7e308], [1.7e308, 1.7e308],
                       [1.7976931348623157e308, 1e292]):
            _same_as_fsum(values)
        assert exact_sum([]) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), max_size=30),
           st.lists(st.sampled_from([math.nan, math.inf, -math.inf]),
                    min_size=1, max_size=3))
    def test_non_finite_terms_behave_as_fsum(self, finite, special):
        _same_as_fsum(finite + special)
        _same_as_fsum(special + finite)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_spread, max_size=40), st.integers(1, 8))
    def test_slice_boundaries(self, values, size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dops, "EXACT_SUM_SLICE", size)
            _same_as_fsum(values)
            for n in (size - 1, size, size + 1, 2 * size, 2 * size + 1):
                _same_as_fsum(values[:max(n, 0)])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_spread, max_size=40),
           st.lists(st.floats(-1.0, 1.0), max_size=40))
    def test_small_guards(self, spread, near):
        """Terms near 1 beside copies 2^-60 smaller: the copies sit just
        below the terms' last bits and decide ties and cancellations."""
        _same_as_fsum(spread)
        _same_as_fsum(near + [math.ldexp(v, -60) for v in near])


class TestExactSumCut:
    """Dust many binades below the largest term: it breaks ties, survives
    cancellation of the large terms, or is all that is left of them."""

    def test_ties_decided_by_dropped_terms(self):
        for s in (1.0, -1.0):
            # 1 + 2^-53 is a tie; the dust far below breaks it
            for dust, want in ((2.0 ** -200, 1.0 + 2.0 ** -52),
                               (-2.0 ** -200, 1.0)):
                values = [s, s * 2.0 ** -53, s * dust]
                _same_as_fsum(values)
                assert exact_sum(values) == s * want

    def test_kept_part_cancels_with_dust_left(self):
        for dust in ([2.0 ** -200], [-2.0 ** -200], [2.0 ** -300, -2.0 ** -300],
                     [5e-324, 2.0 ** -250]):
            for s in (1.0, -1.0):
                _same_as_fsum([s, -s] + dust)
        assert exact_sum([1.0, -1.0, 2.0 ** -300, -2.0 ** -300]) == 0.0

    def test_subnormal_dust(self):
        dust = [5e-324] * 9 + [-2.0 ** -1060, 2.0 ** -1030]
        for big in (1.0, 2.0 ** -900, -3.0 ** 400):
            _same_as_fsum([big] + dust)
            assert exact_sum([big] + dust) == big
        _same_as_fsum([2.0 ** -1000 * (1 + 2.0 ** -52), 2.0 ** -1001] + dust)

    def test_every_term_dropped_but_one(self):
        for dust in ([2.0 ** -90] * 1000, [-(2.0 ** -90)] * 1000,
                     [math.ldexp(1 - 2.0 ** -53, -100)] * 4096):
            _same_as_fsum([1.5] + dust)
            assert exact_sum([1.5] + dust) == 1.5

    def test_dropped_terms_just_below_the_cut(self):
        """Three terms near 2^c, c = -63, cancel to 2^(c - 53) beside the
        tie 1 + 2^-53; that remainder alone rounds it up."""
        c = -63
        values = [1.0, 2.0 ** -53, -2.0 ** (c + 1),
                  math.ldexp(1 + 2.0 ** -52, c), math.ldexp(1 - 2.0 ** -53, c)]
        _same_as_fsum(values)
        assert exact_sum(values) == 1.0 + 2.0 ** -52

    def test_series_take_the_certified_path(self):
        """The 200 x 200 closed-form series of the 1 x 2.5 rectangle, whose
        terms span 121, 190 and 328 binades at n = 5, 9 and 17."""
        i = np.arange(1, 400, 2, dtype=float)
        lam = np.pi ** 2 * (i[:, None] ** 2 + i[None, :] ** 2 / 2.5 ** 2)
        a2 = 64.0 * 2.5 / (i[:, None] ** 2 * i[None, :] ** 2 * np.pi ** 4)
        for n in (5, 9, 17):
            _same_as_fsum((a2 * (2.0 / lam) ** n).ravel())


def test_field_value_at():
    ell = es.Polygon([(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)])
    # (grid, a point within rounding of no interior node)
    cases = [
        (es.build_grid(es.Interval(0, 1), 1 / 8), 0.9999),
        (es.build_grid(es.Rectangle(1, 1), 1 / 8), (0.5, 1.0)),
        (es.build_grid(ell, 1 / 8), (0.75, 0.75)),     # in the notch
        (es.build_radial_grid(es.Disk(1), 1 / 8), 1.01),
    ]
    for g, outside in cases:
        f = es.Field(g, np.arange(g.n, dtype=float))
        for i in (0, 3, g.n - 1):
            assert f.value_at(g.nodes[i]) == float(i)
            # rounding to the lattice forgives a small offset
            assert f.value_at(g.nodes[i] + 0.2 * g.h) == float(i)
        with pytest.raises(KeyError):
            f.value_at(outside)


class TestEigenpairs:
    def test_interval_matches_discrete_closed_form(self):
        """Tridiagonal eigenvalues are known exactly; the solver must hit
        them at rounding level, not just discretization level."""
        h = 1 / 64
        g = es.build_grid(es.Interval(0, 1), h)
        pairs = es.lowest_eigenpairs(es.assemble_half_laplacian(g), 4,
                                     tol=1e-9)
        for k, (lam, _) in enumerate(pairs, start=1):
            exact = (4.0 / h ** 2) * math.sin(k * math.pi * h / 2.0) ** 2
            assert lam == pytest.approx(exact, rel=1e-12)

    def test_orthonormal_and_weighted(self):
        g = es.build_grid(es.Interval(0, 1), 1 / 64)
        pairs = es.lowest_eigenpairs(es.assemble_half_laplacian(g), 3,
                                     tol=1e-9)
        for i, (_, vi) in enumerate(pairs):
            for j, (_, vj) in enumerate(pairs):
                want = 1.0 if i == j else 0.0
                assert es.inner(vi, vj) == pytest.approx(want, abs=1e-8)
        # first mode carries weight ~ 8/lam, even modes none
        lam1, v1 = pairs[0]
        assert es.integrate(v1) ** 2 == pytest.approx(8.0 / lam1, rel=1e-3)
        assert abs(es.integrate(pairs[1][1])) < 1e-9

    def test_residuals(self):
        g = es.build_grid(es.Rectangle(1, 1), 1 / 24)
        op = es.assemble_half_laplacian(g)
        pairs = es.lowest_eigenpairs(op, 5, tol=1e-8)
        for lam, v in pairs:
            # returned lam is twice the matrix eigenvalue of the
            # half-Laplacian, i.e. the Dirichlet eigenvalue
            r = op.sym @ v.values - 0.5 * lam * v.values
            assert np.linalg.norm(r) <= 1e-7 * abs(lam)

    def test_degenerate_pair_resolved(self):
        g = es.build_grid(es.Rectangle(1, 1), 1 / 24)
        pairs = es.lowest_eigenpairs(es.assemble_half_laplacian(g), 3,
                                     tol=1e-9)
        lams = [p[0] for p in pairs]
        # modes (1,2) and (2,1) are exactly degenerate on the square lattice
        assert abs(lams[1] - lams[2]) <= 1e-9 * lams[1]
        assert lams[1] > lams[0] * 2

    def test_many_pairs_match_discrete_closed_form(self):
        """m = 40 on the square lattice, beyond the reach of a fixed-size
        block solver; every value is known in closed form."""
        h = 1 / 24
        g = es.build_grid(es.Rectangle(1, 1), h)
        pairs = es.lowest_eigenpairs(es.assemble_half_laplacian(g), 40,
                                     tol=1e-8)
        s2 = np.sin(np.arange(1, 24) * math.pi * h / 2.0) ** 2
        exact = np.sort(((4.0 / h ** 2) * (s2[:, None] + s2[None, :])).ravel())
        lams = [lam for lam, _ in pairs]
        assert lams == pytest.approx(list(exact[:40]), rel=1e-10)

    def test_m_too_large(self):
        g = es.build_grid(es.Interval(0, 1), 1 / 8)
        with pytest.raises((ValueError, es.SolverError)):
            es.lowest_eigenpairs(es.assemble_half_laplacian(g), g.n + 1)


def test_dump_coo(tmp_path):
    g = es.build_grid(es.Interval(0, 1), 1 / 8)
    op = es.assemble_half_laplacian(g)
    path = tmp_path / "op.csv"
    op.dump_coo(path)
    body = path.read_text().strip().splitlines()
    assert len(body) == op.sym.nnz
    r, c, v = body[0].split()
    assert float(v) != 0.0
