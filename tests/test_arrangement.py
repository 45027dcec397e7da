import json
import math

import numpy as np
import pytest

from linbilliards.arrangement import (
    Arrangement,
    Itinerary,
    Subspace,
    angle_between,
    intersection_dim,
    load_arrangement,
    principal_angle,
    save_arrangement,
)
from linbilliards.errors import InputError, PreconditionError
from linbilliards.scattering import free_motion_sample


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


def test_segment_collisions_crossing(mirror_arr):
    hits = mirror_arr.segment_collisions([0.0, 1.0], [2.0, -1.0], tol=1e-9)
    assert len(hits) == 1
    idx, t = hits[0]
    assert idx == 0 and t == pytest.approx(0.5, abs=1e-9)


def test_segment_collisions_parallel(mirror_arr):
    assert mirror_arr.segment_collisions([0.0, 1.0], [2.0, 1.0], tol=1e-9) == []


def test_segment_collisions_origin(origin_arr):
    hits = origin_arr.segment_collisions([-1.0, 0.0], [1.0, 0.0], tol=1e-9)
    assert len(hits) == 1
    assert hits[0][1] == pytest.approx(0.5, abs=1e-9)


def test_segment_collisions_symmetry(twolines_arr):
    rng = np.random.default_rng(3)
    for _ in range(50):
        p, q = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        fw = twolines_arr.segment_collisions(p, q, tol=1e-6)
        bw = twolines_arr.segment_collisions(q, p, tol=1e-6)
        assert len(fw) == len(bw)
        for (i, t), (j, s) in zip(fw, reversed(bw)):
            assert i == j
            assert t == pytest.approx(1.0 - s, abs=1e-9)


def test_segment_collisions_equal_endpoints(mirror_arr):
    with pytest.raises(InputError):
        mirror_arr.segment_collisions([1.0, 1.0], [1.0, 1.0], tol=1e-9)


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
    assert planes4d_arr.is_pairwise_transversal()
    arr = Arrangement(3, (
        Subspace.from_spanning("P1", [[1, 0, 0], [0, 1, 0]], 3),
        Subspace.from_spanning("P2", [[1, 0, 0], [0, 0, 1]], 3),
    ))
    # planes in R^3 always share a line; that is the generic dimension
    assert intersection_dim(arr.subspaces[0], arr.subspaces[1]) == 1
    assert arr.is_pairwise_transversal()


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
    with pytest.raises(InputError):
        Itinerary(())
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
        interval = sub.tube_interval(start, direction, tol)
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


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_batched_locus_and_ray_queries_match_per_subspace_loops(dim):
    rng = np.random.default_rng(dim)
    hits = 0
    for m in range(dim):
        for _ in range(25):
            # the zero subspace is the only one of dimension 0
            arr = _random_arrangement(rng, dim, m, int(rng.integers(1, 5)) if m else 1)
            x = rng.normal(size=dim) * rng.uniform(0.1, 10.0)
            assert arr.distance_to_locus(x) == pytest.approx(
                min(s.distance_to(x) for s in arr.subspaces), rel=1e-14, abs=0.0)
            starts = rng.normal(size=(6, dim)) * 3.0
            directions = rng.normal(size=(6, dim))
            # one ray aimed through a point close to a subspace, one along it
            near = arr.subspaces[0].project(rng.normal(size=dim))
            directions[0] = near + 1e-3 * rng.normal(size=dim) - starts[0]
            directions[1] = arr.subspaces[0].project(directions[1])
            tol = 10.0 ** rng.uniform(-9, -1)
            expected = [_ray_hits_by_loop(arr, p, d, tol) for p, d in zip(starts, directions)]
            hits += sum(expected)
            assert arr.rays_hit_beyond_start(starts, directions, tol).tolist() == expected
            assert [arr.ray_hits_beyond_start(p, d, tol)
                    for p, d in zip(starts, directions)] == expected
    assert hits > 0


def test_rays_parallel_to_a_subspace_inside_and_outside_its_tube(mirror_arr):
    tol = 1e-3
    starts = np.array([[0.0, 5e-4], [0.0, 2e-3], [0.0, -5e-4], [0.0, 2e-3]])
    directions = np.array([[1.0, 0.0], [1.0, 0.0], [-3.0, 0.0], [-1.0, 1e-20]])
    expected = [True, False, True, False]
    assert [_ray_hits_by_loop(mirror_arr, p, d, tol)
            for p, d in zip(starts, directions)] == expected
    assert mirror_arr.rays_hit_beyond_start(starts, directions, tol).tolist() == expected


def test_rays_starting_inside_a_tube(twolines_arr):
    tol = 1e-2
    # each start lies within tol of L1; leaving away from L2 is the allowed
    # initial collision, heading across L2 meets a tube beyond the start
    starts = np.array([[2.0, 5e-3], [2.0, 5e-3], [-2.0, -5e-3]])
    directions = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -0.1]])
    expected = [False, True, False]
    assert [_ray_hits_by_loop(twolines_arr, p, d, tol)
            for p, d in zip(starts, directions)] == expected
    assert twolines_arr.rays_hit_beyond_start(starts, directions, tol).tolist() == expected


def test_batched_queries_on_zero_dimensional_subspaces(origin_arr):
    x = np.array([3.0, -4.0])
    assert origin_arr.distance_to_locus(x) == origin_arr.subspaces[0].distance_to(x) == 5.0
    starts = np.array([[3.0, -4.0], [3.0, -4.0], [3.0, -4.0], [1e-12, 0.0]])
    directions = np.array([[-3.0, 4.0], [3.0, -4.0], [-3.0, 4.1], [1.0, 0.0]])
    expected = [True, False, False, False]
    assert [_ray_hits_by_loop(origin_arr, p, d, 1e-9)
            for p, d in zip(starts, directions)] == expected
    assert origin_arr.rays_hit_beyond_start(starts, directions, 1e-9).tolist() == expected


def _segment_collisions_by_loop(arr, p, q, tol):
    """segment_collisions by one tube interval per subspace, sorted by t."""
    hits = []
    for i, sub in enumerate(arr.subspaces):
        interval = sub.tube_interval(p, q - p, tol)
        if interval is None:
            continue
        lo, hi = max(interval[0], 0.0), min(interval[1], 1.0)
        if lo <= hi:
            hits.append((i, 0.5 * (lo + hi)))
    hits.sort(key=lambda h: h[1])
    return hits


def _free_line_by_loop(arr, A, B, tol):
    return all(sub.tube_interval(A, B - A, tol) is None for sub in arr.subspaces)


def _assert_segment_queries_match_loops(arr, p, q, tol):
    expected = _segment_collisions_by_loop(arr, p, q, tol)
    hits = arr.segment_collisions(p, q, tol)
    assert hits == expected
    assert [type(t) for _, t in hits] == [float] * len(hits)
    assert (free_motion_sample(arr, p, q, tol) is None) == (
        not _free_line_by_loop(arr, p, q, tol))
    return expected


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_segment_and_free_line_queries_match_per_subspace_loops(dim):
    rng = np.random.default_rng(100 + dim)
    hits = free = 0
    for m in range(dim):
        for _ in range(20):
            arr = _random_arrangement(rng, dim, m, int(rng.integers(1, 5)) if m else 1)
            tol = 10.0 ** rng.uniform(-9, 0)
            for n in range(6):
                p = rng.normal(size=dim) * 3.0
                q = rng.normal(size=dim) * 3.0
                sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
                if n == 1:
                    # through a point close to a subspace
                    q = p + 2.0 * (sub.project(rng.normal(size=dim))
                                   + tol * rng.normal(size=dim) - p)
                elif n == 2:
                    # along a subspace, inside or outside its tube
                    q = p + sub.project(q)
                    p = p * 10.0 ** rng.uniform(-12, 0)
                expected = _assert_segment_queries_match_loops(arr, p, q, tol)
                hits += len(expected)
                free += not expected
    assert hits > 0 and free > 0


def test_segment_queries_on_parallel_lines_and_the_zero_subspace(mirror_arr, origin_arr):
    tol = 1e-3
    inside = _assert_segment_queries_match_loops(
        mirror_arr, np.array([0.0, 5e-4]), np.array([3.0, 5e-4]), tol)
    assert inside == [(0, 0.5)]
    assert _assert_segment_queries_match_loops(
        mirror_arr, np.array([0.0, 2e-3]), np.array([3.0, 2e-3]), tol) == []
    assert _assert_segment_queries_match_loops(
        origin_arr, np.array([-1.0, 1e-4]), np.array([3.0, 1e-4]), tol)[0][0] == 0
    assert _assert_segment_queries_match_loops(
        origin_arr, np.array([-1.0, 2e-3]), np.array([3.0, 2e-3]), tol) == []
    with pytest.raises(InputError):
        free_motion_sample(mirror_arr, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])


def test_tied_segment_collisions_keep_index_order():
    # lines mirror-symmetric about the x-axis: the segment along it meets
    # both at the same parameter, and the line parallel to it at t = 0.5
    c = 1.0 / math.sqrt(2.0)
    arr = Arrangement(2, (Subspace("X", np.array([[1.0, 0.0]]), 2),
                          Subspace("D1", np.array([[c, c]]), 2),
                          Subspace("D2", np.array([[c, -c]]), 2)))
    hits = _assert_segment_queries_match_loops(arr, np.array([-1.0, 0.0]),
                                               np.array([3.0, 0.0]), 1e-6)
    assert [i for i, _ in hits] == [1, 2, 0]
    assert hits[0][1] == hits[1][1] == 0.25 and hits[2][1] == 0.5
