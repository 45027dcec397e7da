import math

import numpy as np
import pytest

from linbilliards.arrangement import Arrangement, Subspace
from linbilliards.action import Chain, action, gradient


@pytest.fixture
def mirror_arr():
    """Single mirror line: the x-axis in the plane."""
    return Arrangement(2, (Subspace.from_spanning("L1", [[1.0, 0.0]], 2),))


@pytest.fixture
def origin_arr():
    """The zero subspace in the plane (total-collision example)."""
    return Arrangement(2, (Subspace.from_spanning("O", np.zeros((0, 2)), 2),))


@pytest.fixture
def twolines_arr():
    """Two lines through the origin at 60 degrees."""
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    return Arrangement(2, (
        Subspace.from_spanning("L1", [[1.0, 0.0]], 2),
        Subspace.from_spanning("L2", [[c, s]], 2),
    ))


@pytest.fixture
def lines3d_arr():
    """Two skew-angle lines through the origin in three dimensions."""
    return Arrangement(3, (
        Subspace.from_spanning("M1", [[1.0, 0.0, 0.0]], 3),
        Subspace.from_spanning("M2", [[0.2, 1.0, 0.4]], 3),
    ))


@pytest.fixture
def planes4d_arr():
    """Two random 2-planes in four dimensions (codimension 2)."""
    rng = np.random.default_rng(42)
    return Arrangement(4, (
        Subspace.from_spanning("P1", rng.normal(size=(2, 4)), 4),
        Subspace.from_spanning("P2", rng.normal(size=(2, 4)), 4),
    ))


# A two-line valid fixture found by scan and frozen; the solved trajectory is
# strongly transverse (direction jumps ~1) with well-separated vertices.
TWOLINE_A = np.array([1.98916641, -0.44632446])
TWOLINE_B = np.array([-0.44703404, -5.58316732])


def fd_gradient(arr, itinerary, A, chain, B, h=1e-6):
    """Central finite differences of the path length in chain coordinates."""
    x0 = chain.stacked()
    out = np.zeros_like(x0)
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (action(A, Chain.from_stacked(arr, itinerary, xp).points, B)
                  - action(A, Chain.from_stacked(arr, itinerary, xm).points, B)) / (2 * h)
    return out


def fd_hessian(arr, itinerary, A, chain, B, h=1e-5):
    """Central finite differences of the analytic gradient."""
    x0 = chain.stacked()
    n = len(x0)
    out = np.zeros((n, n))
    for i in range(n):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        gp = np.concatenate(gradient(arr, itinerary, A,
                                     Chain.from_stacked(arr, itinerary, xp), B))
        gm = np.concatenate(gradient(arr, itinerary, A,
                                     Chain.from_stacked(arr, itinerary, xm), B))
        out[:, i] = (gp - gm) / (2 * h)
    return out


def fd_jacobian(fun, x0, h):
    """Central finite differences of fun at x0: the gradient (n,) of a scalar
    function, or the Jacobian (m, n) of a vector function."""
    cols = []
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * h))
    return np.stack(cols, axis=-1)


def random_smooth_chain(arr, itinerary, A, B, rng, radius=3.0, min_gap=1e-2):
    """Random chain whose consecutive points stay apart (smooth region)."""
    from linbilliards.solver import random_chain
    while True:
        chain = random_chain(arr, itinerary, radius, rng)
        pts = np.vstack([np.asarray(A)[None, :], chain.points,
                         np.asarray(B)[None, :]])
        if np.min(np.linalg.norm(np.diff(pts, axis=0), axis=1)) > min_gap:
            return chain
