import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cube_scenario, quick_scenario
from oracles import Simplex, contains, inside, scalar_hull_2d
from swarm_transport import geometry
from swarm_transport.errors import DegenerateInput, DegenerateSimplex
from swarm_transport.geometry import (
    barycentric,
    convex_hull,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
    scale_polygon,
)

UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestConvexHull:
    def test_square_with_interior_centroid(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = convex_hull(pts)
        assert sorted(hull) == [0, 1, 2, 3]
        assert 4 not in hull

    def test_counterclockwise_order_starting_at_min_index(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert convex_hull(pts) == [0, 1, 2, 3]

    def test_three_points(self):
        assert sorted(convex_hull([(0, 0), (2, 0), (1, 1)])) == [0, 1, 2]

    def test_sixteen_agents_on_circle(self):
        # matches the reference team size: 16 hull agents stay 16 hull vertices
        ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack([pts, np.zeros((5, 2))])
        assert len(convex_hull(pts)) == 16

    def test_collinear_point_on_edge_is_not_a_vertex(self):
        pts = [(0, 0), (2, 0), (1, 0), (1, 2)]
        assert sorted(convex_hull(pts)) == [0, 1, 3]

    def test_collinear_input_raises(self):
        with pytest.raises(DegenerateInput):
            convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_too_few_points_raises(self):
        with pytest.raises(DegenerateInput):
            convex_hull([(0, 0), (1, 0)])

    def test_idempotent_on_hull_vertices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.uniform(-5, 5, (12, 2))
            hull = convex_hull(pts)
            again = convex_hull(pts[hull])
            assert sorted(again) == list(range(len(hull)))

    def test_cube_hull_3d(self):
        corners = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
        )
        pts = np.vstack([corners, [[0.5, 0.5, 0.5]]])
        assert convex_hull(pts) == list(range(8))

    def test_coplanar_3d_raises(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.2, 0]])
        for offset in ((0, 0, 0), (5, -3, 7)):  # off the origin only the centred rank is 2
            with pytest.raises(DegenerateInput) as info:
                convex_hull(pts + offset)
            assert str(info.value) == "degenerate 3-d point set: no hull of 5 points, whose centred rank is 2"
            assert type(info.value.__cause__).__name__ == "QhullError"


@st.composite
def hull_point_sets(draw):
    """3 to 300 planar points at a scale of 1e-3 to 1e3: normal draws, or
    draws rounded onto a coarse grid, which makes collinear and duplicate points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(draw(st.integers(3, 300)), 2)) * draw(st.sampled_from([1.0, 3.0]))
    if draw(st.booleans()):
        pts = np.round(pts)
    return pts * 10.0 ** draw(st.floats(-3.0, 3.0))


def assert_hull_matches_scalar_oracle(pts):
    try:
        want = scalar_hull_2d(pts)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            convex_hull(pts)
    else:
        assert convex_hull(pts) == want


@settings(max_examples=200, deadline=None)
@given(hull_point_sets())
def test_float_hull_matches_scalar_oracle(pts):
    assert_hull_matches_scalar_oracle(pts)


@pytest.mark.parametrize("n, nb", [(40, 10), (600, 100)])  # the benchmark's pinned team shapes
def test_float_hull_matches_scalar_oracle_on_teams(n, nb):
    sc = quick_scenario(seed=1, n=n, nb=nb, uncoop=2)
    assert_hull_matches_scalar_oracle(sc.formation.positions)
    assert_hull_matches_scalar_oracle(sc.targets.samples)


def test_tolerances_are_relative_to_the_extent():
    # 1e7 from the origin each verdict is the one at the origin; tolerances
    # that grew with |x|^n called the triangle flat, dropped the square's
    # corners as collinear and gave the kite its vertex mean
    far = np.array([1e7, 0.0])
    assert geometry.degenerate(UNIT_TRIANGLE + far).tolist() is False
    square = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0), (1, 0.5)], dtype=float)
    assert convex_hull(square + far) == [0, 1, 2, 3]
    kite = np.array([(0, 0), (2, 0), (2, 1), (0, 3)], dtype=float)
    assert np.allclose(polygon_centroid(kite + far) - far, polygon_centroid(kite), rtol=0, atol=1e-6)
    assert not np.allclose(polygon_centroid(kite), kite.mean(axis=0))
    assert geometry.extent(np.empty((2, 0, 3))).tolist() == [0.0, 0.0]


class TestBarycentric:
    def test_centroid_gives_thirds(self):
        tri = np.array([(0, 0), (3, 0), (0, 6)], dtype=float)
        w = barycentric(tri.mean(axis=0), tri)
        assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_vertex_gives_indicator(self):
        w = barycentric([0.0, 1.0], UNIT_TRIANGLE)
        assert np.allclose(w, [0, 0, 1], atol=1e-12)

    def test_quarter_point(self):
        # solving the 3x3 augmented system by hand: w2 = x, w3 = y, w1 = 1-x-y
        w = barycentric([0.25, 0.25], UNIT_TRIANGLE)
        assert np.allclose(w, [0.5, 0.25, 0.25], atol=1e-12)

    def test_degenerate_raises(self):
        flat = np.array([(0, 0), (1, 1), (2, 2)], dtype=float)
        with pytest.raises(DegenerateSimplex):
            barycentric([0.5, 0.5], flat)

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            tri = rng.uniform(-10, 10, (3, 2))
            if geometry.degenerate(tri):
                continue
            w_true = rng.dirichlet(np.ones(3))
            p = w_true @ tri
            w = barycentric(p, tri)
            scale = max(1.0, float(np.max(np.abs(tri))))
            assert abs(w.sum() - 1.0) < 1e-9
            assert np.linalg.norm(w @ tri - p) < 1e-9 * scale

    def test_round_trip_tetrahedron(self):
        tet = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=float)
        p = np.array([0.2, 0.3, 0.1])
        w = barycentric(p, tet)
        assert np.allclose(w @ tet, p, atol=1e-12)
        assert np.isclose(w.sum(), 1.0)

    def test_many_matches_single(self):
        rng = np.random.default_rng(3)
        tri = rng.uniform(-2, 2, (3, 2))
        pts = rng.uniform(-2, 2, (40, 2))
        many = geometry.barycentric_many(pts, tri)
        for k in range(len(pts)):
            assert np.allclose(many[k], barycentric(pts[k], tri), atol=1e-12)


class TestBatchedNumerics:
    """The batched planner reproduces the one-cell-at-a-time plan bit for bit
    only because these hold for the installed numpy and BLAS; a change that
    breaks one must fail here rather than silently move plan bytes."""

    @staticmethod
    def _simplices(rng, count, n):
        return rng.uniform(-10.0, 10.0, (count, n + 1, n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_det_equals_each_det(self, n):
        verts = self._simplices(np.random.default_rng(n), 500, n)
        mats = geometry.augmented_matrix(verts)
        batched = np.linalg.det(mats)
        assert [d.tobytes() for d in batched] == [np.linalg.det(m).tobytes() for m in mats]
        assert geometry.degenerate(verts).tolist() == [geometry.degenerate(v) for v in verts]

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_inv_equals_each_inv(self, n):
        verts = self._simplices(np.random.default_rng(40 + n), 500, n)
        mats = geometry.augmented_matrix(verts)
        batched = np.linalg.inv(mats)
        assert [a.tobytes() for a in batched] == [np.linalg.inv(m).tobytes() for m in mats]
        assert geometry.simplex_inverse(verts).tobytes() == batched.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_coordinates_do_not_depend_on_the_batch(self, n, seed, count, scale):
        rng = np.random.default_rng(seed)
        verts = self._simplices(rng, 8, n) * scale
        verts = verts[~geometry.degenerate(verts)]
        if not len(verts):
            return
        pts = rng.uniform(-12.0, 12.0, (count, n)) * scale
        of = rng.integers(0, len(verts), count)
        batched = geometry.inverse_coordinates(geometry.simplex_inverse(verts)[of], pts)
        shuffle = rng.permutation(count)
        shuffled = geometry.inverse_coordinates(geometry.simplex_inverse(verts[of[shuffle]]), pts[shuffle])
        assert shuffled.tobytes() == batched[shuffle].tobytes()
        for k in range(count):
            alone = geometry.inverse_coordinates(geometry.simplex_inverse(verts[of[k]]), pts[k])
            assert alone.tobytes() == batched[k].tobytes()
            # one point against the whole stack, as a clamped agent is tested
            row = geometry.inverse_coordinates(geometry.simplex_inverse(verts), pts[k])[of[k]]
            assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_inverse_coordinates_match_the_solve(self, n):
        rng = np.random.default_rng(50 + n)
        verts = self._simplices(rng, 300, n)
        verts = verts[np.linalg.cond(geometry.augmented_matrix(verts)) < 1e3]
        pts = rng.uniform(-12.0, 12.0, (len(verts), n))
        got = geometry.inverse_coordinates(geometry.simplex_inverse(verts), pts)
        rhs = geometry.augmented_matrix(pts[:, None])  # each point as a column over a 1
        solved = np.linalg.solve(geometry.augmented_matrix(verts), rhs)[..., 0]
        assert len(verts) > 100 and np.allclose(got, solved, rtol=0.0, atol=1e-11)

    def test_degenerate_simplices_raise_typed(self):
        # every vertex at the origin has a zero threshold, and LAPACK finds it singular
        flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        for verts in (flat, np.zeros((3, 2)), np.zeros((4, 3)), np.stack([UNIT_TRIANGLE, flat])):
            with pytest.raises(DegenerateSimplex):
                geometry.simplex_inverse(verts)
            with pytest.raises(DegenerateSimplex):
                barycentric(np.zeros(verts.shape[-1]), verts)
        assert geometry.simplex_inverse(np.empty((0, 3, 2))).shape == (0, 3, 3)

    def test_index_keeps_points_just_outside_a_face(self):
        # within CONTAINMENT_TOL of a face counts as inside, also where that
        # is outside the simplex's bounding box
        for n in (2, 3):
            unit = np.vstack([np.zeros(n), np.eye(n)])
            near = np.append(np.full(n - 1, 0.2), 0.0)  # on the face x_n = 0
            pts = np.array([near - 5e-10 * np.eye(n)[-1], near - 2e-9 * np.eye(n)[-1], near])
            cell, idx, _ = inside(pts, unit[None])
            assert cell.tolist() == [0, 0] and idx.tolist() == [0, 2]

    def test_index_inverts_only_simplices_with_candidates(self):
        flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        for pts in (np.array([[5.0, 0.0]]), np.empty((0, 2))):
            cell, idx, score = inside(pts, np.stack([UNIT_TRIANGLE + 4.0, flat]))
            assert len(cell) == len(idx) == len(score) == 0
        with pytest.raises(DegenerateSimplex):
            inside(np.array([[5.0, 0.0], [1.0, 1.0]]), flat[None])

    def test_near_pairs_inverts_only_cells_with_a_pair(self):
        # a flat cell without a pair is never inverted: no LinAlgError, and
        # no RuntimeWarning (an error under the suite's filter)
        flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        verts = np.stack([flat, UNIT_TRIANGLE + 4.0, np.zeros((3, 2))])
        pts = np.array([[4.25, 4.25], [9.0, 9.0], [4.0, 4.0]])
        cell, idx, score = geometry.near_pairs(verts, np.array([1, 1, 1]), np.array([0, 1, 2]), pts)
        assert cell.tolist() == [1, 1] and idx.tolist() == [0, 2]
        want = geometry.inverse_coordinates(geometry.simplex_inverse(verts[1]), pts[[0, 2]]).min(axis=1)
        assert score.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("n_points", [1, 2, 400])
    def test_index_finds_what_testing_every_point_finds(self, n, n_points, monkeypatch):
        rng = np.random.default_rng(30 + n + n_points)
        # small and large cells, and points on a lattice that puts many of
        # them on faces and vertices; some coincide
        verts = np.round(rng.uniform(0.0, 8.0, (120, n + 1, n)) * 2.0) / 2.0
        verts[::3] = verts[::3] * 0.1 + 3.0
        verts = verts[~geometry.degenerate(verts)]
        pts = np.round(rng.uniform(0.0, 8.0, (n_points, n)) * 4.0) / 4.0
        want_cell, want_idx, want_score = [], [], []
        for c, v in enumerate(verts):
            lam = geometry.inverse_coordinates(geometry.simplex_inverse(v), pts).min(axis=1)
            hit = np.flatnonzero(lam >= -geometry.CONTAINMENT_TOL)
            want_cell += [c] * len(hit)
            want_idx += hit.tolist()
            want_score += lam[hit].tolist()
        # the sizes pick the direct test for 1 and 2 points and the columns
        # for 400; then each search runs on every size
        assert (len(verts) * n_points <= geometry._DIRECT_PAIRS) == (n_points < 400)
        for direct_pairs in (geometry._DIRECT_PAIRS, -1, 2**62):
            monkeypatch.setattr(geometry, "_DIRECT_PAIRS", direct_pairs)
            cell, idx, score = inside(pts, verts)
            assert cell.tolist() == want_cell and idx.tolist() == want_idx
            assert score.tobytes() == np.array(want_score).tobytes()
        if n_points == 400:
            assert len(cell) > 100 and (score == 0.0).any()  # face-sitting points were tested


def _orientation_contains(tri, p, tol=1e-9):
    """Sign-of-area oracle: p is inside iff every edge keeps it on the same
    side as the opposite vertex."""

    def cross(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    ref = cross(tri[0], tri[1], tri[2])
    sign = 1.0 if ref > 0 else -1.0
    area2 = abs(ref)
    for k in range(3):
        if sign * cross(tri[k], tri[(k + 1) % 3], p) < -tol * area2:
            return False
    return True


class TestContains:
    def test_centroid_inside(self):
        assert contains(UNIT_TRIANGLE, UNIT_TRIANGLE.mean(axis=0))

    def test_far_point_outside(self):
        assert not contains(UNIT_TRIANGLE, [5.0, 5.0])

    def test_edge_point_counts_inside(self):
        assert contains(UNIT_TRIANGLE, [0.5, 0.0], tol=1e-9)

    def test_agrees_with_orientation_oracle(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(1000):
            tri = rng.uniform(-1, 1, (3, 2))
            if geometry.degenerate(tri):
                continue
            p = rng.uniform(-1.5, 1.5, 2)
            w = barycentric(p, tri)
            if abs(float(w.min())) < 1e-6:
                continue  # borderline: the two tolerance conventions differ
            assert contains(tri, p) == _orientation_contains(tri, p)
            checked += 1
        assert checked > 900


class TestSimplex:
    def test_replace_vertex(self):
        s = Simplex((1, 2, 3), UNIT_TRIANGLE.copy())
        child = s.replace_vertex(1, 9, [0.2, 0.2])
        assert child.vertex_rows == (1, 9, 3)
        assert np.allclose(child.vertex_points[1], [0.2, 0.2])
        # parent untouched
        assert np.allclose(s.vertex_points[1], [1.0, 0.0])

    def test_degeneracy_scale_aware(self):
        tiny = 1e-3 * UNIT_TRIANGLE
        assert not Simplex((1, 2, 3), tiny).is_degenerate()


class TestPolygonUtils:
    def test_area_and_centroid_of_square(self):
        square = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float)
        assert np.isclose(polygon_area(square), 4.0)
        assert np.allclose(polygon_centroid(square), [1.0, 1.0])

    def test_area_sign_flips_with_orientation(self):
        square = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float)
        assert polygon_area(square[::-1]) == -polygon_area(square)

    def test_scale_polygon_about_centroid(self):
        square = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
        grown = scale_polygon(square, 1.5, about=polygon_centroid(square))
        assert np.allclose(np.abs(grown), 1.5)

    def test_point_in_polygon_boundary_counts(self):
        square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        assert point_in_polygon([0.5, 0.5], square)
        assert point_in_polygon([1.0, 0.5], square)
        assert not point_in_polygon([1.001, 0.5], square)


def point_in_polygon_oracle(point, polygon, tol=geometry.CONTAINMENT_TOL):
    """The edge-by-edge even-odd loop, with an edge-distance test: on a convex
    polygon it gives the facet test's verdicts."""
    p = np.asarray(point, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    m = len(poly)
    for k in range(m):
        a = poly[k]
        ab = poly[(k + 1) % m] - a
        denom = float(ab @ ab)
        s = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
        if float(np.linalg.norm(a + s * ab - p)) <= tol:
            return True
    inside = False
    x, y = float(p[0]), float(p[1])
    for k in range(m):
        x1, y1 = poly[k]
        x2, y2 = poly[(k + 1) % m]
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xc:
                inside = not inside
    return inside


@st.composite
def polygon_and_point(draw):
    """A convex polygon (equal radii at distinct angles), counter-clockwise
    and one that ``validate_scenario`` accepts as a zone, and a point that
    is free, on an edge or on a vertex."""
    m = draw(st.integers(3, 12))
    angles = draw(
        st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=m, max_size=m, unique=True)
    )
    radius = draw(st.floats(0.1, 5.0))
    center = np.array([draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))])
    theta = np.sort(angles)
    poly = center + radius * np.column_stack([np.cos(theta), np.sin(theta)])
    try:
        assume(convex_hull(poly - poly.mean(axis=0)) == list(range(m)))
    except DegenerateInput:
        assume(False)
    kind = draw(st.sampled_from(["free", "edge", "vertex"]))
    k = draw(st.integers(0, m - 1))
    if kind == "free":
        lo, hi = poly.min(axis=0) - 1.0, poly.max(axis=0) + 1.0
        u = np.array([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])
        point = lo + u * (hi - lo)
    elif kind == "edge":
        s = draw(st.floats(0.0, 1.0))
        point = poly[k] + s * (poly[(k + 1) % m] - poly[k])
    else:
        point = poly[k].copy()
    return poly, point, kind, k


@settings(max_examples=200, deadline=None)
@given(polygon_and_point())
def test_point_in_polygon_matches_edge_loop(case):
    poly, point, kind, k = case
    got = point_in_polygon(point, poly)
    assert got == point_in_polygon_oracle(point, poly)
    assert got == point_in_polygon(point, poly[::-1])
    if kind != "free":
        assert got
    # many points at once give the single-point verdicts, vertices and centroid included
    batch = np.vstack([point, poly, poly.mean(axis=0), point + 0.5])
    many = point_in_polygon(batch, poly)
    assert many.shape == (len(batch),) and many.dtype == bool
    assert many.tolist() == [point_in_polygon(p, poly) for p in batch]
    assert many[0] == got and many[1 : len(poly) + 1].all()
    assert point_in_polygon(batch[:0], poly).shape == (0,)
    # a repeated corner adds no facet, so it changes no verdict
    assert point_in_polygon(batch, np.insert(poly, k, poly[k], axis=0)).tolist() == many.tolist()
    # strictly inside: vertices and edge points are out, and the area centroid
    # is in, being at least area / (3 diameter) from every edge, unless the
    # polygon is a sliver whose centroid the shoelace sums cannot place
    strict = -1e-12 * max(1.0, float(np.abs(poly).max()))
    inner = point_in_polygon(batch, poly, tol=strict)
    assert not inner[1 : len(poly) + 1].any()
    if kind != "free":
        assert not inner[0]
    if abs(polygon_area(poly)) / (3 * np.hypot(*np.ptp(poly, axis=0))) > 1e-6:
        assert point_in_polygon(polygon_centroid(poly), poly, tol=strict)


def test_point_in_polygon_3d_matches_hull_equations():
    """On the cube team's hull, the facet test gives the verdicts of Qhull's
    facet equations, at the scoring tolerance and strictly inside."""
    form = cube_scenario().formation
    hull_pts = form.positions[form.boundary]
    eq = geometry.hull_3d(hull_pts).equations
    pts = np.vstack([form.positions, np.random.default_rng(7).uniform(-0.5, 4.5, (400, 3))])
    vals = pts @ eq[:, :-1].T + eq[:, -1]
    assert point_in_polygon(pts, hull_pts).tolist() == np.all(vals <= geometry.CONTAINMENT_TOL, axis=1).tolist()
    strict = geometry.DEGENERACY_COEFF * float(np.abs(hull_pts).max())
    inside = point_in_polygon(pts, hull_pts, tol=-strict)
    assert inside.tolist() == np.all(vals < -strict, axis=1).tolist()
    assert not inside[form.boundary].any() and inside.sum() > 100
    assert point_in_polygon(pts[0], hull_pts) is True
