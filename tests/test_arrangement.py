import collections
import json
import math
import pickle
import warnings

import numpy as np
import pytest

from linbilliards.arrangement import (
    MEMBERSHIP_TOL,
    Arrangement,
    Itinerary,
    Subspace,
    _perp,
    _rays_hit,
    _row_dot,
    _tube_approach,
    angle_between,
    intersection_dim,
    load_arrangement,
    principal_angle,
    save_arrangement,
)
from linbilliards.errors import InputError, PreconditionError
from linbilliards.solver import minimize

from conftest import (rays_hit_beyond_start, rays_hit_reference, row_dot_reference,
                      tube_approach_reference, tube_interval)


def test_project_x_axis():
    L = Subspace.from_spanning("L", [[1.0, 0.0]], 2)
    assert np.allclose(L.project([3.0, 4.0]), [3.0, 0.0])


def test_project_zero_subspace():
    Z = Subspace.from_spanning("Z", np.zeros((0, 2)), 2)
    assert np.allclose(Z.project([3.0, 4.0]), [0.0, 0.0])


def test_project_diagonal():
    L = Subspace.from_spanning("L", [[1.0, 1.0]], 2)
    assert np.allclose(L.project([1.0, 0.0]), [0.5, 0.5])


def test_project_idempotent_and_orthogonal():
    rng = np.random.default_rng(0)
    L = Subspace.from_spanning("L", rng.normal(size=(3, 6)), 6)
    for _ in range(50):
        x = rng.normal(size=6) * 10
        px = L.project(x)
        assert np.linalg.norm(L.project(px) - px) < 1e-12 * max(1, np.linalg.norm(x))
        for b in L.basis:
            assert abs(np.dot(x - px, b)) < 1e-10


def test_pythagoras():
    rng = np.random.default_rng(1)
    L = Subspace.from_spanning("L", rng.normal(size=(2, 5)), 5)
    for _ in range(100):
        x = rng.normal(size=5) * 5
        lhs = np.dot(x, x)
        rhs = np.dot(L.project(x), L.project(x)) + L.distance_to(x) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_distance_examples():
    L = Subspace.from_spanning("L", [[1.0, 0.0]], 2)
    assert L.distance_to([3.0, 4.0]) == pytest.approx(4.0, abs=1e-14)
    Z = Subspace.from_spanning("Z", np.zeros((0, 2)), 2)
    assert Z.distance_to([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)
    Lz = Subspace.from_spanning("Lz", [[0.0, 0.0, 1.0]], 3)
    assert Lz.distance_to([1.0, 1.0, 7.0]) == pytest.approx(math.sqrt(2), abs=1e-14)


def test_orthonormalization_stable():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(3, 7))
    a = Subspace.from_spanning("a", raw, 7)
    b = Subspace.from_spanning("b", a.basis, 7)
    Pa = a.basis.T @ a.basis
    Pb = b.basis.T @ b.basis
    assert np.linalg.norm(Pa - Pb, 2) < 1e-12


def test_spanning_set_redundancy():
    # three vectors spanning a plane: rank detected, codim right
    vecs = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
    S = Subspace.from_spanning("S", vecs, 3)
    assert S.subdim == 2 and S.codim == 1


def test_sigma_positive_required():
    with pytest.raises(InputError):
        Subspace.from_spanning("bad", [[1.0, 0.0]], 2, sigma=0.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_sigma_finite_required(sigma):
    with pytest.raises(InputError):
        Subspace.from_spanning("bad", [[1.0, 0.0]], 2, sigma=sigma)
    # json.loads reads a bare NaN or Infinity as a float
    data = json.loads('{"dim": 2, "subspaces": [{"name": "L", "basis": [[1.0, 0.0]], '
                      f'"sigma": {json.dumps(sigma)}}}]}}')
    with pytest.raises(InputError):
        Arrangement.from_json_dict(data)


def test_codim_zero_rejected():
    with pytest.raises(InputError):
        Subspace.from_spanning("full", np.eye(2), 2)


def test_dimension_mismatch():
    L = Subspace.from_spanning("L", [[1.0, 0.0]], 2)
    with pytest.raises(InputError):
        L.project([1.0, 2.0, 3.0])


def test_min_angle_examples():
    def lines(theta):
        return Arrangement(2, (
            Subspace.from_spanning("a", [[1.0, 0.0]], 2),
            Subspace.from_spanning("b", [[math.cos(theta), math.sin(theta)]], 2),
        ))
    assert lines(math.pi / 3).min_angle() == pytest.approx(math.pi / 3, abs=1e-12)
    assert lines(math.pi / 2).min_angle() == pytest.approx(math.pi / 2, abs=1e-12)
    assert lines(math.pi / 4).min_angle() == pytest.approx(math.pi / 4, abs=1e-12)


def test_min_angle_rejects_intersecting_pair():
    arr = Arrangement(3, (
        Subspace.from_spanning("P1", [[1, 0, 0], [0, 1, 0]], 3),
        Subspace.from_spanning("P2", [[1, 0, 0], [0, 0, 1]], 3),
    ))
    with pytest.raises(PreconditionError):
        arr.min_angle()


def test_mixed_codim_rejected():
    with pytest.raises(InputError):
        Arrangement(3, (
            Subspace.from_spanning("L", [[1, 0, 0]], 3),
            Subspace.from_spanning("P", [[1, 0, 0], [0, 1, 0]], 3),
        ))


def test_duplicate_subspace_rejected():
    with pytest.raises(InputError):
        Arrangement(2, (
            Subspace.from_spanning("a", [[1.0, 0.0]], 2),
            Subspace.from_spanning("b", [[2.0, 0.0]], 2),
        ))


def test_transversality_predicate(planes4d_arr):
    # two generic 2-planes in R^4 intersect only at 0: transversal
    assert intersection_dim(*planes4d_arr.subspaces[:2]) == 0
    arr = Arrangement(3, (
        Subspace.from_spanning("P1", [[1, 0, 0], [0, 1, 0]], 3),
        Subspace.from_spanning("P2", [[1, 0, 0], [0, 0, 1]], 3),
    ))
    # planes in R^3 always share a line; that is the generic dimension
    assert intersection_dim(arr.subspaces[0], arr.subspaces[1]) == 1


def test_angle_between_rejects_zero():
    with pytest.raises(InputError):
        angle_between([0.0, 0.0], [1.0, 0.0])


def test_json_round_trip(tmp_path, twolines_arr):
    path = tmp_path / "arr.json"
    save_arrangement(twolines_arr, path)
    loaded = load_arrangement(path)
    assert loaded.dim == twolines_arr.dim
    for a, b in zip(loaded.subspaces, twolines_arr.subspaces):
        assert a.name == b.name
        assert np.linalg.norm(a.basis.T @ a.basis - b.basis.T @ b.basis) < 1e-12


def test_json_loader_orthonormalizes(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "dim": 2,
        "subspaces": [{"name": "L", "basis": [[3.0, 4.0]], "sigma": 2.0}],
    }))
    arr = load_arrangement(path)
    assert np.linalg.norm(arr.subspaces[0].basis[0]) == pytest.approx(1.0, abs=1e-14)
    assert arr.subspaces[0].sigma == 2.0


def test_itinerary_invariants():
    # the empty itinerary is free motion
    empty = Itinerary(())
    assert len(empty) == 0 and list(empty) == []
    with pytest.raises(InputError):
        Itinerary((0, 0))
    it = Itinerary((0, 1, 0))
    assert len(it) == 3


def test_itinerary_labels(twolines_arr):
    it = Itinerary.from_labels(twolines_arr, ["L2", "L1"])
    assert it.indices == (1, 0)
    assert it.labels(twolines_arr) == ["L2", "L1"]
    with pytest.raises(InputError):
        Itinerary.from_labels(twolines_arr, ["L9"])


def test_principal_angle_diagonal():
    a = Subspace.from_spanning("a", [[1.0, 0.0]], 2)
    b = Subspace.from_spanning("b", [[1.0, 1.0]], 2)
    assert principal_angle(a, b) == pytest.approx(math.pi / 4, abs=1e-12)


def _ray_hits_by_loop(arr, start, direction, tol):
    """Ray test by one tube interval per subspace: the ray meets a tube
    beyond its start when the interval begins at t > 0 or never ends."""
    for sub in arr.subspaces:
        interval = tube_interval(sub, start, direction, tol)
        if interval is not None and interval[1] >= 0.0 and (
                interval[0] > 0.0 or math.isinf(interval[1])):
            return True
    return False


def _random_arrangement(rng, dim, m, n):
    while True:
        try:
            return Arrangement(dim, tuple(
                Subspace.from_spanning(f"S{i}", rng.normal(size=(m, dim)), dim)
                for i in range(n)))
        except InputError:
            continue


@pytest.mark.parametrize("table", ["twolines_arr", "lines3d_arr", "planes4d_arr",
                                   "planes3d_arr", "fourbody_arr"])
def test_locus_distances_match_distance_to_locus(table, request):
    """minimize measures both anchors in one stacked projection: each
    distance is, bit for bit, the one distance_to_locus gives alone, also
    for an anchor 1e-9 off a subspace, and so is each of (3, 4) stacked
    points."""
    arr = request.getfixturevalue(table)
    rng = np.random.default_rng(3)
    for scale in (1e-6, 1.0, 1e8):
        for _ in range(20):
            anchors = scale * rng.normal(size=(2, arr.dim))
            sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
            anchors[1] = sub.project(anchors[1]) + 1e-9 * scale * rng.normal(size=arr.dim)
            assert arr.locus_distances(anchors).tolist() == [
                arr.distance_to_locus(x) for x in anchors]
        points = scale * rng.normal(size=(3, 4, arr.dim))
        points[0, 0] = arr.subspaces[0].project(points[0, 0])
        assert arr.locus_distances(points).tolist() == [
            [arr.distance_to_locus(x) for x in row] for row in points]


@pytest.mark.parametrize("table", ["mirror_arr", "origin_arr", "twolines_arr", "lines3d_arr",
                                   "planes4d_arr", "threebody_arr", "fourbody_arr"])
def test_complements_are_stored_read_only_and_perp_parts_match_perp(table, request):
    """Each subspace stores I - B^T B (the identity for {0}) read-only, and
    Arrangement.complements stacks those arrays byte for byte as its
    read-only (n, dim, dim) blocks, as bases stacks the bases; perp_parts of
    a point is, row for row and bit for bit, every subspace's perp of it,
    which the event simulator and the benchmark's specular gate both rely
    on."""
    arr = request.getfixturevalue(table)
    dim = arr.dim
    assert arr.complements.shape == (len(arr.subspaces), dim, dim)
    for j, sub in enumerate(arr.subspaces):
        assert sub.complement.tobytes() == (np.eye(dim) - sub.basis.T @ sub.basis).tobytes()
        assert arr.complements[j].tobytes() == sub.complement.tobytes()
        assert arr.bases[j].tobytes() == sub.basis.tobytes()
        if sub.subdim == 0:
            assert np.array_equal(sub.complement, np.eye(dim))
    stored = (arr.bases, arr.complements, *(a for sub in arr.subspaces
                                             for a in (sub.basis, sub.complement)))
    for a in stored:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    rng = np.random.default_rng(len(table))
    for x in rng.normal(size=(2000, dim)) * 10.0 ** rng.uniform(-6, 6, size=(2000, 1)):
        parts = arr.perp_parts(x)
        assert parts.shape == (len(arr.subspaces), dim)
        for part, sub in zip(parts, arr.subspaces):
            assert part.tobytes() == sub.perp(x).tobytes()


@pytest.mark.parametrize("table", ["mirror_arr", "fourbody_arr"])
def test_unpickled_arrangements_keep_their_arrays_read_only(table, request):
    """An arrangement sent to a worker process comes back with read-only
    stored arrays of the same bytes (it is rebuilt through the
    constructor), and its subspaces likewise."""
    arr = request.getfixturevalue(table)
    copy = pickle.loads(pickle.dumps(arr))
    assert [(s.name, s.sigma) for s in copy.subspaces] == [
        (s.name, s.sigma) for s in arr.subspaces]
    pairs = [(copy.bases, arr.bases), (copy.complements, arr.complements)]
    for got, sub in zip(copy.subspaces, arr.subspaces):
        pairs += [(got.basis, sub.basis), (got.complement, sub.complement)]
    lone = pickle.loads(pickle.dumps(arr.subspaces[-1]))
    pairs += [(lone.basis, arr.subspaces[-1].basis),
              (lone.complement, arr.subspaces[-1].complement)]
    for got, want in pairs:
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_batched_locus_and_ray_queries_match_per_subspace_loops(dim):
    rng = np.random.default_rng(dim)
    hits = 0
    for m in range(dim):
        for _ in range(25):
            # the zero subspace is the only one of dimension 0
            arr = _random_arrangement(rng, dim, m, int(rng.integers(1, 5)) if m else 1)
            x = rng.normal(size=dim) * rng.uniform(0.1, 10.0)
            assert arr.distance_to_locus(x) == min(s.distance_to(x) for s in arr.subspaces)
            starts = rng.normal(size=(6, dim)) * 3.0
            directions = rng.normal(size=(6, dim))
            # one ray aimed through a point close to a subspace, one along it
            near = arr.subspaces[0].project(rng.normal(size=dim))
            directions[0] = near + 1e-3 * rng.normal(size=dim) - starts[0]
            directions[1] = arr.subspaces[0].project(directions[1])
            tol = 10.0 ** rng.uniform(-9, -1)
            expected = [_ray_hits_by_loop(arr, p, d, tol) for p, d in zip(starts, directions)]
            hits += sum(expected)
            assert rays_hit_beyond_start(arr, starts, directions, tol).tolist() == expected
    assert hits > 0


def _rays_hit_by_intervals(arr, starts, directions, tol):
    """The ray rule applied to one tube interval per ray and subspace."""
    return np.array([_ray_hits_by_loop(arr, p, d, tol) for p, d in zip(starts, directions)])


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_ray_decisions_match_tube_intervals(dim):
    """rays_hit_beyond_start decides from the tube arithmetic directly; on rays
    parallel to a subspace (inside and outside its tube), tangent to a tube
    and starting inside one, every decision is that of the tube intervals."""
    rng = np.random.default_rng(100 + dim)
    kinds = collections.Counter()
    for m in range(dim):
        for _ in range(20):
            arr = _random_arrangement(rng, dim, m, int(rng.integers(1, 5)) if m else 1)
            sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
            tol = 10.0 ** rng.uniform(-9, -1)
            starts = rng.normal(size=(8, dim)) * 3.0
            directions = rng.normal(size=(8, dim))
            normal = sub.perp(rng.normal(size=dim))
            normal /= np.linalg.norm(normal)
            along = sub.project(rng.normal(size=dim))
            # parallel inside and outside the tube (m > 0), or at rest (m = 0)
            starts[0] = sub.project(starts[0]) + 0.5 * tol * normal
            starts[1] = sub.project(starts[1]) + 2.0 * tol * normal
            directions[0] = directions[1] = along
            # tangent: closest approach at distance tol, ahead of or behind the start
            foot = sub.project(rng.normal(size=dim)) + tol * normal
            for row, t in ((2, 1.0), (3, -1.0)):
                run = sub.perp(rng.normal(size=dim))
                run -= (run @ normal) * normal
                run += along
                if not run.any():
                    run = along
                starts[row] = foot - t * run
                directions[row] = run
            # starting inside the tube, leaving it one way or the other
            starts[4] = starts[5] = sub.project(starts[4]) + 0.3 * tol * normal
            directions[5] = -directions[4]
            expected = _rays_hit_by_intervals(arr, starts, directions, tol)
            assert np.array_equal(rays_hit_beyond_start(arr, starts, directions, tol), expected)
            kinds.update(("hit" if e else "miss") for e in expected)
    assert kinds["hit"] > 0 and kinds["miss"] > 0


def test_ray_decisions_far_out_near_the_parallel_limit():
    """Starts about 1e150 from both axes, with |P⊥d|^2 just above the
    parallel limit 1e-30 |d|^2 against the x axis: t* is near 1e165, but t*
    + half stays finite (the bound in _rays_hit's docstring), so _rays_hit
    raises no warning and decides, ahead of the start and behind it, as the
    tube intervals and the reference with the overflow term do."""
    arr = Arrangement(2, (Subspace("X", np.array([[1.0, 0.0]]), 2),
                          Subspace("Y", np.array([[0.0, 1.0]]), 2)))
    rng = np.random.default_rng(150)
    kinds = collections.Counter()
    for _ in range(50):
        starts = np.abs(rng.normal(size=(4, 2))) * 10.0 ** rng.uniform(149.5, 150.5, size=(4, 1))
        slope = 1e-15 * (1.0 + 10.0 ** rng.uniform(-15, -6, size=4))
        directions = np.stack((np.ones(4), -slope), axis=1) * [[1.0], [-1.0], [1.0], [-1.0]]
        # above 1e135 the x axis's tube holds the closest approach, rounding and all
        tol = 10.0 ** (rng.uniform(-9, 0) if rng.integers(2) else rng.uniform(135, 137))
        perps = _perp(arr.complements, np.stack((starts, directions))[:, :, None, :])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _rays_hit(perps, directions, tol)
            assert (_row_dot(perps[1], perps[1])[:, 0] > 1e-30).all()
            assert np.array_equal(got, rays_hit_reference(perps, directions, tol))
            assert np.array_equal(got.any(axis=1),
                                  _rays_hit_by_intervals(arr, starts, directions, tol))
        kinds.update(("hit" if e else "miss") for e in got[:, 0])
    assert kinds["hit"] > 0 and kinds["miss"] > 0


def test_rays_parallel_to_a_subspace_inside_and_outside_its_tube(mirror_arr):
    tol = 1e-3
    starts = np.array([[0.0, 5e-4], [0.0, 2e-3], [0.0, -5e-4], [0.0, 2e-3]])
    directions = np.array([[1.0, 0.0], [1.0, 0.0], [-3.0, 0.0], [-1.0, 1e-20]])
    expected = [True, False, True, False]
    assert [_ray_hits_by_loop(mirror_arr, p, d, tol)
            for p, d in zip(starts, directions)] == expected
    assert rays_hit_beyond_start(mirror_arr, starts, directions, tol).tolist() == expected


def test_rays_starting_on_a_tube_boundary(mirror_arr):
    """A ray from the boundary of L1's tube whose interval begins exactly at
    t = 0 (t* = half, straight in or slanted) meets no tube beyond its
    start; one from a quarter further out does, as its tube interval says."""
    tol = 0.5
    starts = np.array([[0.0, 0.5], [0.0, 0.5], [0.0, 0.75]])
    directions = np.array([[0.0, -1.0], [1.0, -1.0], [0.0, -1.0]])
    assert [tube_interval(mirror_arr.subspaces[0], p, d, tol)[0]
            for p, d in zip(starts, directions)] == [0.0, 0.0, 0.25]
    expected = [False, False, True]
    assert _rays_hit_by_intervals(mirror_arr, starts, directions, tol).tolist() == expected
    assert rays_hit_beyond_start(mirror_arr, starts, directions, tol).tolist() == expected


def test_rays_starting_inside_a_tube(twolines_arr):
    tol = 1e-2
    # each start lies within tol of L1; leaving away from L2 is the allowed
    # initial collision, heading across L2 meets a tube beyond the start
    starts = np.array([[2.0, 5e-3], [2.0, 5e-3], [-2.0, -5e-3]])
    directions = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -0.1]])
    expected = [False, True, False]
    assert [_ray_hits_by_loop(twolines_arr, p, d, tol)
            for p, d in zip(starts, directions)] == expected
    assert rays_hit_beyond_start(twolines_arr, starts, directions, tol).tolist() == expected


def test_batched_queries_on_zero_dimensional_subspaces(origin_arr):
    x = np.array([3.0, -4.0])
    assert origin_arr.distance_to_locus(x) == origin_arr.subspaces[0].distance_to(x) == 5.0
    starts = np.array([[3.0, -4.0], [3.0, -4.0], [3.0, -4.0], [1e-12, 0.0]])
    directions = np.array([[-3.0, 4.0], [3.0, -4.0], [-3.0, 4.1], [1.0, 0.0]])
    expected = [True, False, False, False]
    assert [_ray_hits_by_loop(origin_arr, p, d, 1e-9)
            for p, d in zip(starts, directions)] == expected
    assert rays_hit_beyond_start(origin_arr, starts, directions, 1e-9).tolist() == expected


def _free_line_by_loop(arr, A, B, tol):
    return all(tube_interval(sub, A, B - A, tol) is None for sub in arr.subspaces)


def _assert_free_motion_matches_loop(arr, p, q):
    """The empty itinerary's solve from p to q is valid exactly where one
    tube interval per subspace misses the line through p and q at the radius
    of a point solve, MEMBERSHIP_TOL times max(|q - p|, d(p, L), d(q, L)); an
    anchor on the locus is refused.  Returns whether the line is free."""
    own = MEMBERSHIP_TOL * max(float(np.linalg.norm(q - p)), arr.distance_to_locus(p),
                               arr.distance_to_locus(q))
    free = _free_line_by_loop(arr, p, q, own)
    try:
        valid = minimize(arr, Itinerary(()), p, q).is_valid
    except PreconditionError:
        valid = False
    assert valid == free
    return free


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_segment_and_free_line_queries_match_per_subspace_loops(dim):
    rng = np.random.default_rng(100 + dim)
    hits = free = 0
    for m in range(dim):
        for _ in range(20):
            arr = _random_arrangement(rng, dim, m, int(rng.integers(1, 5)) if m else 1)
            for n in range(6):
                p = rng.normal(size=dim) * 3.0
                q = rng.normal(size=dim) * 3.0
                sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
                if n == 1:
                    # through a point close to a subspace, about the solve's
                    # membership radius away
                    q = p + 2.0 * (sub.project(rng.normal(size=dim))
                                   + 10.0 ** rng.uniform(-12, -6) * rng.normal(size=dim) - p)
                elif n == 2:
                    # along a subspace, inside or outside its tube
                    q = p + sub.project(q)
                    p = p * 10.0 ** rng.uniform(-12, 0)
                is_free = _assert_free_motion_matches_loop(arr, p, q)
                hits += not is_free
                free += is_free
    assert hits > 0 and free > 0


def test_segment_queries_on_parallel_lines_and_the_zero_subspace(mirror_arr, origin_arr):
    assert not _assert_free_motion_matches_loop(
        mirror_arr, np.array([0.0, 2e-9]), np.array([3.0, 2e-9]))
    assert _assert_free_motion_matches_loop(
        mirror_arr, np.array([0.0, 5e-9]), np.array([3.0, 5e-9]))
    assert not _assert_free_motion_matches_loop(
        origin_arr, np.array([-1.0, 3e-9]), np.array([3.0, 3e-9]))
    assert _assert_free_motion_matches_loop(
        origin_arr, np.array([-1.0, 5e-9]), np.array([3.0, 5e-9]))
    with pytest.raises(InputError):
        minimize(mirror_arr, Itinerary(()), [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("dim", [2, 4, 6, 9])
def test_row_dot_matches_the_matmul_form(dim):
    """_row_dot, one np.vecdot, gives the stacked matmul's bits on stacked
    rows of magnitudes 1e-5 to 1e5, also on strided and reversed slices and
    Fortran-ordered copies."""
    rng = np.random.default_rng(dim)
    for shape in [(), (1,), (5,), (3, 4), (2, 3, 2)]:
        for _ in range(10):
            u = rng.normal(size=shape + (dim,)) * 10.0 ** rng.uniform(-5, 5, size=shape + (dim,))
            wide = rng.normal(size=shape + (2 * dim,)) * 10.0 ** rng.uniform(-5, 5)
            for x, y in ((u, u), (u, wide[..., ::2]), (wide[..., 1::2], np.asfortranarray(u)),
                         (u[..., ::-1], wide[..., :dim])):
                assert np.array_equal(_row_dot(x, y), row_dot_reference(x, y))


@pytest.mark.parametrize("dim", [2, 4, 6, 9])
def test_tube_approach_and_ray_decisions_match_the_where_forms(dim):
    """_tube_approach and _rays_hit guard their divisions by adding a mask
    instead of np.where: the same bits and the same decisions, on rays
    parallel to a subspace (exactly and to rounding), starting inside a
    tube and aimed at one.  The exact case runs along an axis-aligned
    subspace, whose projector is exact: along a tilted one, the part
    perpendicular to it is rounding, not 0."""
    rng = np.random.default_rng(200 + dim)
    kinds = collections.Counter()
    for m in range(dim):
        for _ in range(10):
            arr = _random_arrangement(rng, dim, m, int(rng.integers(1, 5)) if m else 1)
            if m:
                axes = Subspace("E", np.eye(dim)[:m], dim)
                arr = Arrangement(dim, arr.subspaces + (axes,))
            sub = arr.subspaces[0]
            tol = 10.0 ** rng.uniform(-9, -1)
            starts = rng.normal(size=(6, dim)) * 3.0
            directions = rng.normal(size=(6, dim))
            if m:
                directions[0] = axes.basis[0]
                directions[1] = sub.project(directions[1])
            starts[2] = sub.project(starts[2]) + 0.3 * tol * sub.perp(rng.normal(size=dim))
            directions[3] = sub.project(rng.normal(size=dim)) - starts[3]
            perps = _perp(arr.complements, np.stack((starts, directions))[:, :, None, :])
            rho2 = 10.0 ** rng.uniform(-18, 0, size=len(arr.subspaces))
            for got, want in zip(_tube_approach(rho2, *perps),
                                 tube_approach_reference(rho2, *perps)):
                assert np.array_equal(got, want)
            got = _rays_hit(perps, directions, tol)
            assert np.array_equal(got, rays_hit_reference(perps, directions, tol))
            kinds.update(("hit" if e else "miss") for e in got.ravel())
            kinds["parallel"] += int((_row_dot(perps[1], perps[1]) == 0.0).sum())
    assert kinds["hit"] > 0 and kinds["miss"] > 0 and kinds["parallel"] > 0
