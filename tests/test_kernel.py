"""Finite-difference oracles for the shared path-length kernel: the smoothed
length in stacked chain coordinates (mu > 0) and the thickened wall problem
in ambient coordinates."""

import numpy as np
import pytest
import scipy.linalg

from linbilliards.action import gradient_stacked, hessian
from linbilliards.arrangement import Itinerary
from linbilliards.solver import _plan_of, _StackedProblem
from linbilliards.thickened import ThickenedTable, _WallProblem

from conftest import fd_jacobian, random_smooth_chain, stacked_problem

FIXTURES = ["twolines_arr", "lines3d_arr", "planes4d_arr", "fourbody_arr"]


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("mu2", [1e-2, 1e-4])
def test_smoothed_kernel_matches_finite_differences(request, name, mu2):
    arr = request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    itin = Itinerary((0, 1, 0))
    A, B = rng.normal(size=arr.dim) * 2, rng.normal(size=arr.dim) * 2
    problem = stacked_problem(arr, itin, A, B)
    x = rng.normal(size=problem.k * problem.m)
    value, grad, H = problem.derivatives(x, mu2)
    edges = np.diff(np.vstack([A, problem.points_of(x), B]), axis=0)
    assert value == pytest.approx(np.sum(np.sqrt(np.sum(edges ** 2, axis=1) + mu2)),
                                  rel=1e-14)
    assert np.allclose(grad, fd_jacobian(lambda y: problem.value(y, mu2), x, 1e-6),
                       atol=1e-7)
    fd_H = fd_jacobian(lambda y: problem.derivatives(y, mu2)[1], x, 1e-6)
    assert np.allclose(H, fd_H, atol=1e-5 * max(1.0, np.max(np.abs(H))))


@pytest.mark.parametrize("name", FIXTURES)
def test_smoothed_kernel_at_coincident_vertices(request, name):
    # both subspaces pass through the origin: q_1 = q_2 = 0 is a collision
    # where the exact length is not differentiable but the smoothed one is
    arr = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=arr.dim) * 2, rng.normal(size=arr.dim) * 2
    problem = stacked_problem(arr, Itinerary((0, 1)), A, B)
    x = np.zeros(problem.k * problem.m)
    mu2 = 1e-3
    value, grad, H = problem.derivatives(x, mu2)
    assert value == pytest.approx(np.sqrt(A @ A + mu2) + np.sqrt(mu2)
                                  + np.sqrt(B @ B + mu2), rel=1e-14)
    assert np.allclose(grad, fd_jacobian(lambda y: problem.value(y, mu2), x, 1e-7),
                       atol=1e-7)
    fd_H = fd_jacobian(lambda y: problem.derivatives(y, mu2)[1], x, 1e-7)
    assert np.allclose(H, fd_H, rtol=1e-5, atol=1e-5)
    # the coincident edge dominates the curvature: weight 1/mu on it
    assert np.max(np.linalg.eigvalsh(H)) > 0.5 / np.sqrt(mu2)


@pytest.mark.parametrize("name", FIXTURES)
def test_kernel_at_zero_smoothing_is_the_exact_model(request, name):
    arr = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    itin = Itinerary((1, 0, 1))
    A, B = rng.normal(size=arr.dim) * 2, rng.normal(size=arr.dim) * 2
    chain = random_smooth_chain(arr, itin, A, B, rng)
    bases = np.array([arr.subspaces[i].basis for i in itin])
    problem = _StackedProblem(_plan_of(bases), A, B, arr.anchor_scale(A, B)[0])
    value, grad, H = problem.derivatives(chain.coords.reshape(-1), 0.0)
    assert np.allclose(grad, gradient_stacked(arr, itin, A, chain, B),
                       rtol=1e-12, atol=1e-14)
    assert np.array_equal(H, hessian(arr, itin, A, chain, B).matrix)


def _wall_chain(table, itin, active, rng):
    """Points on the walls of the active cylinders, strictly inside the rest."""
    pts = []
    for idx, on_wall in zip(itin, active):
        sub = table.arrangement.subspaces[idx]
        rho = sub.sigma * table.r
        d = sub.perp(rng.normal(size=sub.dim))
        d /= np.linalg.norm(d)
        pts.append(sub.project(rng.normal(size=sub.dim)) + (rho if on_wall else 0.5 * rho) * d)
    return np.array(pts)


@pytest.mark.parametrize("name", ["twolines_arr", "lines3d_arr", "planes4d_arr"])
@pytest.mark.parametrize("r", [0.5, 0.05])
def test_wall_coordinate_hessian_matches_finite_differences(request, name, r):
    """In the ambient coordinates of the wall problem, P H P and the gradient
    are the derivatives of the length along the wall retraction the Newton
    polish steps with, for the tangent projector P; the normal block is the
    identity and does not couple to the tangent directions (codim 1:
    twolines; codim 2: lines3d, planes4d)."""
    arr = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    table = ThickenedTable(arr, r)
    itin = Itinerary((0, 1, 0))
    active = [True, True, False]
    A, B = rng.normal(size=arr.dim) * 3, rng.normal(size=arr.dim) * 3
    pts = _wall_chain(table, itin, active, rng)
    problem = _WallProblem(table, itin, A, B, active)
    value, grad, H = problem.derivatives(pts)
    assert value == pytest.approx(problem.value(pts), rel=1e-15)

    normal = []
    for idx, q, on_wall in zip(itin, pts, active):
        omega = arr.subspaces[idx].perp(q) if on_wall else np.zeros(arr.dim)
        normal.append(np.outer(omega, omega) / max(omega @ omega, 1e-300))
    N = scipy.linalg.block_diag(*normal)
    P = np.eye(len(grad)) - N

    def along(s):
        return problem.value(problem.retract(pts, P @ s, 1.0))

    zero = np.zeros(len(grad))
    assert np.allclose(grad, fd_jacobian(along, zero, 1e-6), atol=1e-8)
    fd_H = fd_jacobian(lambda s: fd_jacobian(along, s, 1e-4), zero, 1e-4)
    size = max(1.0, np.max(np.abs(H)))
    assert np.allclose(P @ H @ P, fd_H, atol=1e-5 * size)
    assert np.allclose(N @ H @ N, N, rtol=0.0, atol=1e-14 * size)
    assert np.allclose(P @ H @ N, 0.0, rtol=0.0, atol=1e-14 * size)
