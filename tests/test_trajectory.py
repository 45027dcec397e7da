import collections
import math
import zlib

import numpy as np
import pytest

from linbilliards.action import _to_points
from linbilliards.arrangement import MEMBERSHIP_TOL, Arrangement, Itinerary, Subspace
from linbilliards.errors import InputError
from linbilliards.trajectory import (
    BilliardTrajectory,
    OrientedLine,
    _generic,
    boundary_lines,
    is_generic,
    is_transverse,
    max_reflection_residual,
    reflection_residual,
    trajectory_to_json,
)

from conftest import (chain_is_generic_reference, line_tube, lines_close, trajectory_from_json,
                      validate_trajectory)


def mirror_traj():
    arr = Arrangement(2, (Subspace.from_spanning("L1", [[1.0, 0.0]], 2),))
    traj = BilliardTrajectory(np.array([0.0, 1.0]), np.array([2.0, 1.0]),
                              np.array([[1.0, 0.0]]), Itinerary((0,)))
    return arr, traj


def test_mirror_momentum_residual():
    arr, traj = mirror_traj()
    # the speeds agree: both edge directions are unit vectors
    assert np.linalg.norm(traj.edge_velocities, axis=1) == pytest.approx([1.0, 1.0], abs=1e-15)
    assert reflection_residual(arr, traj, 1) < 1e-15
    # both tangential components equal 1/sqrt(2)
    assert traj.edge_velocities[0][0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_zaxis_residual():
    arr = Arrangement(3, (Subspace.from_spanning("Lz", [[0.0, 0.0, 1.0]], 3),))
    traj = BilliardTrajectory(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                              np.array([[0.0, 0.0, 0.0]]), Itinerary((0,)))
    assert reflection_residual(arr, traj, 1) < 1e-15


def test_corrupted_vertex_breaks_law():
    arr, _ = mirror_traj()
    traj = BilliardTrajectory(np.array([0.0, 1.0]), np.array([2.0, 1.0]),
                              np.array([[1.3, 0.0]]), Itinerary((0,)))
    assert reflection_residual(arr, traj, 1) > 1e-2
    assert any("momentum" in p for p in validate_trajectory(arr, traj))


@pytest.mark.parametrize("A, vertex, problem", [
    ([0.0, 1.0], [1.0, 0.5], "vertex 1 off L1 by 5.000e-01"),
    # from an anchor on the mirror, the first edge runs along it
    ([0.0, 0.0], [1.0, 0.0], "edge at vertex 1 lies inside L1"),
])
def test_validate_reports_a_corrupted_mirror_trajectory(A, vertex, problem):
    arr, _ = mirror_traj()
    traj = BilliardTrajectory(np.array(A), np.array([2.0, 1.0]), np.array([vertex]),
                              Itinerary((0,)))
    assert problem in validate_trajectory(arr, traj)


def test_residual_index_range():
    arr, traj = mirror_traj()
    with pytest.raises(InputError):
        reflection_residual(arr, traj, 0)
    with pytest.raises(InputError):
        reflection_residual(arr, traj, 2)


def test_transverse_mirror():
    _, traj = mirror_traj()
    assert is_transverse(traj)


def test_internal_vertex_not_transverse():
    # straight pass through the origin of a codim-2 subspace
    traj = BilliardTrajectory(np.array([-1.0, 0.0]), np.array([1.0, 0.0]),
                              np.array([[0.0, 0.0]]), Itinerary((0,)))
    assert not is_transverse(traj)


def test_three_body_style_transverse():
    traj = BilliardTrajectory(np.array([-2.0, 0.0]), np.array([2.0, 1.5]),
                              np.array([[0.0, 0.0]]), Itinerary((0,)))
    assert is_transverse(traj)


def test_generic_mirror():
    arr, traj = mirror_traj()
    assert is_generic(arr, traj.A, traj.chain, traj.B, traj.itinerary)


def test_generic_rejects_adjacent_membership(twolines_arr):
    # q1 = 0 lies on L2 as well
    chain = np.array([[0.0, 0.0], [0.5, 0.5 * math.sqrt(3)]])
    ok = is_generic(twolines_arr, np.array([-1.0, 2.0]), chain,
                    np.array([2.0, 3.0]), Itinerary((0, 1)))
    assert not ok


def test_generic_detects_ray_recross(twolines_arr):
    # outgoing ray from q1 through B crosses the second line, even beyond B
    arr = twolines_arr
    A = np.array([-3.0, 1.0])
    B = np.array([1.0, 2.0])
    chain = np.array([[-5.0 / 3.0, 0.0]])
    assert not is_generic(arr, A, chain, B, Itinerary((0,)))
    # an outgoing direction into the lower-left quadrant misses the second line
    B_clear = chain[0] + np.array([-1.0, -0.1])
    assert is_generic(arr, A, chain, B_clear, Itinerary((0,)))


def test_generic_rejects_anchor_on_locus(mirror_arr):
    chain = np.array([[1.0, 0.0]])
    assert not is_generic(mirror_arr, np.array([0.0, 0.0]), chain,
                          np.array([2.0, 1.0]), Itinerary((0,)))


def test_is_generic_tests_both_anchors_in_one_locus_query(twolines_arr, monkeypatch):
    """is_generic's anchor test is one locus_distances call on both anchors
    (Arrangement.anchor_scale's), on a generic configuration and on one
    whose second anchor lies on L1."""
    calls = collections.Counter()
    real = Arrangement.locus_distances

    def counted(self, *args, **kwargs):
        calls["locus_distances", np.shape(args[0])] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Arrangement, "locus_distances", counted)
    chain = np.array([[-5.0 / 3.0, 0.0]])
    A = np.array([-3.0, 1.0])
    assert is_generic(twolines_arr, A, chain, chain[0] + [-1.0, -0.1], Itinerary((0,)))
    assert not is_generic(twolines_arr, A, chain, np.array([4.0, 0.0]), Itinerary((0,)))
    assert calls == {("locus_distances", (2, 2)): 2}


def _generic_both_ways(arr, labels, A, chain, B, tol) -> bool:
    """_generic, the helper is_generic shares with the solver's
    classification, on the point list and each vertex's distances to its
    neighbours' subspaces, asserted equal to the reference (the basis form)
    at tol and returned; is_generic asserted equal to the two past the
    anchor test at its own tolerance, MEMBERSHIP_TOL times the solve's scale
    max(|B - A|, d(A, L), d(B, L))."""
    near = [arr.subspaces[labels[i + 1]].distance_to(chain[i]) for i in range(len(labels) - 1)]
    near += [arr.subspaces[labels[i]].distance_to(chain[i + 1]) for i in range(len(labels) - 1)]

    def both(tol):
        got = _generic(arr, np.array(near), np.vstack([A, chain, B]), tol)
        assert got == chain_is_generic_reference(arr, arr.bases[labels], A, chain, B, tol)
        return got

    near_A, near_B = arr.distance_to_locus(A), arr.distance_to_locus(B)
    own = MEMBERSHIP_TOL * max(float(np.linalg.norm(B - A)), near_A, near_B)
    assert is_generic(arr, A, chain, B, Itinerary(tuple(labels))) == (
        min(near_A, near_B) > own and both(own))
    return both(tol)


@pytest.mark.parametrize("fixture", ["mirror_arr", "origin_arr", "twolines_arr", "lines3d_arr",
                                     "planes4d_arr", "planes3d_arr", "fourbody_arr"])
def test_stacked_genericity_matches_the_reference(fixture, request):
    """The one stacked projection decides as the separate membership and
    ray projections did, on 1,000 random chains of lengths 1 to 5: free
    draws, boundary rays parallel to a subspace (A - q_1 inside one) and
    vertices at the origin (on every neighbour's subspace), at tolerances
    from 1e-9 to 3."""
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(zlib.crc32(fixture.encode()))
    n, m = arr.bases.shape[:2]
    seen = collections.Counter()
    for _ in range(1000):
        labels = [int(rng.integers(n))]
        while n > 1 and len(labels) < int(rng.integers(1, 6)):
            labels.append(int((labels[-1] + rng.integers(1, n)) % n))
        chain = _to_points(arr.bases[labels], rng.normal(size=(len(labels), m)) * 2.0)
        A, B = rng.normal(size=(2, arr.dim)) * 2.0
        draw = int(rng.integers(3))
        if draw == 1 and m > 0:
            A = chain[0] + arr.bases[int(rng.integers(n))].T @ rng.normal(size=m)
        elif draw == 2:
            chain[int(rng.integers(len(labels)))] = 0.0
        tol = 10.0 ** rng.uniform(-9.0, 0.5)
        seen[_generic_both_ways(arr, labels, A, chain, B, tol)] += 1
    # a ray from the origin leaves the subspace {0} at its start for good
    assert seen[True] > 0 and (seen[False] > 0) == (m > 0)


def test_stacked_genericity_on_constructed_rays():
    """Rays parallel to a subspace inside and outside its tube, a ray
    tangent to a tube (gap^2 exactly 0), rays that start inside a tube, and
    a vertex on its neighbour's subspace; k = 1 has no membership pair."""
    arr = Arrangement(3, (Subspace("X", np.array([[1.0, 0.0, 0.0]]), 3),
                          Subspace("Y", np.array([[0.0, 1.0, 0.0]]), 3)))
    on_y = [1]
    # from (0, 3, 0) along x: in X's tube of radius 4 for good, outside radius 2
    q = np.array([[0.0, 3.0, 0.0]])
    A, B = q[0] + [2.0, 0.0, 0.0], q[0] + [0.0, 0.0, 5.0]
    assert not _generic_both_ways(arr, on_y, A, q, B, 4.0)
    assert _generic_both_ways(arr, on_y, A, q, B, 2.0)
    # from (0, 0.25, 0), inside X's tube of radius 0.5, leaving it either way
    q = np.array([[0.0, 0.25, 0.0]])
    for step in ([0.0, 1.0, 1.0], [0.0, -1.0, -1.0]):
        assert _generic_both_ways(arr, on_y, q[0] + step, q, q[0] + [0.0, 0.0, 4.0], 0.5)
    # q_1 = 0 lies on Y as well
    chain = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert not _generic_both_ways(arr, [0, 1],
                                  np.array([-1.0, 2.0, 1.0]), chain,
                                  np.array([1.0, 3.0, 1.0]), 1e-9)
    # tangent: from (0, 3, 0.5) on W along -y the ray passes X at distance
    # 0.5, at t = 3
    arr = Arrangement(3, (Subspace("X", np.array([[1.0, 0.0, 0.0]]), 3),
                          Subspace.from_spanning("W", [[0.0, 6.0, 1.0]], 3)))
    on_w = [1]
    q = np.array([[0.0, 3.0, 0.5]])
    A, B = q[0] - [0.0, 1.0, 0.0], q[0] + [1.0, 1.0, 1.0]
    a, t_star, gap2 = line_tube(arr.complements[:1], 0.5, q[0], A - q[0])
    assert (a[0], t_star[0], gap2[0]) == (1.0, 3.0, 0.0)
    assert not _generic_both_ways(arr, on_w, A, q, B, 0.5)
    assert _generic_both_ways(arr, on_w, A, q, B, 0.4375)


def test_boundary_lines_total_collision():
    traj = BilliardTrajectory(np.array([3.0, 0.0]), np.array([0.0, 4.0]),
                              np.array([[0.0, 0.0]]), Itinerary((0,)))
    lm, lp = boundary_lines(traj)
    assert np.allclose(lm.v, [-1.0, 0.0], atol=1e-15)
    assert np.allclose(lm.Q, [0.0, 0.0], atol=1e-12)
    assert np.allclose(lp.v, [0.0, 1.0], atol=1e-15)
    assert np.allclose(lp.Q, [0.0, 0.0], atol=1e-12)


def test_boundary_lines_mirror():
    _, traj = mirror_traj()
    lm, _ = boundary_lines(traj)
    v = np.array([1.0, -1.0]) / math.sqrt(2)
    assert np.allclose(lm.v, v, atol=1e-15)
    A = np.array([0.0, 1.0])
    assert np.allclose(lm.Q, A - np.dot(A, v) * v, atol=1e-14)


def test_boundary_lines_representative_invariance():
    _, traj = mirror_traj()
    lm, lp = boundary_lines(traj)
    v_in = traj.edge_velocities[0]
    for s in (0.1, 0.5, 1.2):
        shifted = BilliardTrajectory(traj.A + s * v_in, traj.B,
                                     traj.chain, traj.itinerary)
        lm2, lp2 = boundary_lines(shifted)
        assert lines_close(lm2, lm, tol=1e-12)
        assert lines_close(lp2, lp, tol=1e-12)


def test_oriented_line_invariants():
    with pytest.raises(InputError):
        OrientedLine(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(InputError):
        OrientedLine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    line = OrientedLine.through(np.array([5.0, 1.0]), np.array([1.0, 0.0]))
    assert np.allclose(line.Q, [0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_oriented_line_refuses_non_finite_input(bad):
    """Every test is written so that NaN fails it, and an infinite foot
    point, whose tolerance 1e-12 |Q| would be infinite, fails too."""
    with pytest.raises(InputError):
        OrientedLine(np.array([bad, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(InputError):
        OrientedLine(np.array([0.6, 0.8]), np.array([bad, 1.0]))
    with pytest.raises(InputError):
        OrientedLine.through(np.array([0.0, 1.0]), np.array([bad, 0.0]))
    with pytest.raises(InputError):
        OrientedLine.through(np.array([bad, 1.0]), np.array([1.0, 0.0]))


def test_coincident_points_rejected():
    with pytest.raises(InputError):
        BilliardTrajectory(np.array([0.0, 1.0]), np.array([2.0, 1.0]),
                           np.array([[0.0, 1.0]]), Itinerary((0,)))


def test_edge_unit_norm():
    _, traj = mirror_traj()
    norms = np.linalg.norm(traj.edge_velocities, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-15


def test_json_round_trip(mirror_arr):
    _, traj = mirror_traj()
    text = trajectory_to_json(traj, mirror_arr)
    back = trajectory_from_json(text, mirror_arr)
    assert np.allclose(back.A, traj.A)
    assert np.allclose(back.chain, traj.chain)
    assert back.itinerary.indices == traj.itinerary.indices
    assert back.length == pytest.approx(traj.length, abs=1e-15)
    assert not validate_trajectory(mirror_arr, back)


def test_max_residual_on_free_motion(mirror_arr):
    traj = BilliardTrajectory(np.array([0.0, 1.0]), np.array([2.0, 3.0]),
                              np.zeros((0, 2)), Itinerary(()))
    assert max_reflection_residual(mirror_arr, traj) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_stored_edges_match_the_vertex_formulas(dim):
    """points, edge_velocities and length, measured once on construction,
    equal the per-access formulas bit for bit, for k = 0 as well."""
    rng = np.random.default_rng(dim)
    for k in (0, 1, 2, 5, 17):
        A, B = rng.normal(size=dim), rng.normal(size=dim)
        chain = rng.normal(size=(k, dim)) * 3
        traj = BilliardTrajectory(A, B, chain, Itinerary(tuple(i % 2 for i in range(k))))
        points = np.vstack([A[None, :], chain, B[None, :]])
        diffs = np.diff(points, axis=0)
        units = diffs / np.linalg.norm(diffs, axis=1, keepdims=True)
        length = float(np.sum(np.linalg.norm(diffs, axis=1)))
        assert traj.points.tobytes() == points.tobytes()
        assert traj.edge_velocities.tobytes() == units.tobytes()
        assert traj.length.hex() == length.hex()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_max_residual_is_the_max_of_the_vertex_residuals(dim):
    rng = np.random.default_rng(10 + dim)
    arr = Arrangement(dim, tuple(
        Subspace.from_spanning(f"S{i}", rng.normal(size=(1, dim)), dim) for i in range(3)))
    for k in (1, 2, 6):
        itin = Itinerary(tuple(i % 3 for i in range(k)))
        traj = BilliardTrajectory(rng.normal(size=dim), rng.normal(size=dim),
                                  rng.normal(size=(k, dim)), itin)
        per_vertex = [reflection_residual(arr, traj, i) for i in range(1, k + 1)]
        assert max_reflection_residual(arr, traj) == max(per_vertex)
