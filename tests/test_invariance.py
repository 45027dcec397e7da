"""Invariances of the point solver implied by the variational problem: an
orthogonal change of frame, reversal of the path (A <-> B with the itinerary
reversed) and scaling of the anchors."""

import numpy as np
import pytest

from linbilliards.arrangement import Arrangement, Itinerary, Subspace
from linbilliards.solver import minimize

FIXTURES = ["mirror_arr", "origin_arr", "twolines_arr", "lines3d_arr", "planes4d_arr"]
SEEDS = [0, 1, 2, 4]


def _case(arr, seed):
    """A seeded repeat-free itinerary of length 1-3 and anchors off the locus."""
    rng = np.random.default_rng(seed)
    n = len(arr.subspaces)
    labels = [int(rng.integers(n))]
    for _ in range(int(rng.integers(1, 4)) - 1):
        if n > 1:
            labels.append((labels[-1] + int(rng.integers(1, n))) % n)
    A, B = rng.normal(size=arr.dim) * 2, rng.normal(size=arr.dim) * 2
    return Itinerary(tuple(labels)), A, B


def _rotated(arr, Q):
    return Arrangement(arr.dim, tuple(
        Subspace.from_spanning(s.name, s.basis @ Q.T, arr.dim, s.sigma)
        for s in arr.subspaces))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_orthogonal_change_of_frame(request, name, seed):
    arr = request.getfixturevalue(name)
    itin, A, B = _case(arr, seed)
    Q, _ = np.linalg.qr(np.random.default_rng(100 + seed).normal(size=(arr.dim, arr.dim)))
    base = minimize(arr, itin, A, B)
    moved = minimize(_rotated(arr, Q), itin, Q @ A, Q @ B)
    assert moved.classification is base.classification
    assert moved.value == pytest.approx(base.value, rel=1e-10)
    assert np.allclose(moved.chain.points, base.chain.points @ Q.T, atol=1e-7)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_reversal(request, name, seed):
    arr = request.getfixturevalue(name)
    itin, A, B = _case(arr, seed)
    base = minimize(arr, itin, A, B)
    back = minimize(arr, Itinerary(tuple(reversed(itin.indices))), B, A)
    assert back.classification is base.classification
    assert back.value == pytest.approx(base.value, rel=1e-10)
    assert np.allclose(back.chain.points, base.chain.points[::-1], atol=1e-7)


@pytest.mark.parametrize("lam", [1e-3, 7.5])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_scaling(request, name, seed, lam):
    arr = request.getfixturevalue(name)
    itin, A, B = _case(arr, seed)
    base = minimize(arr, itin, A, B)
    scaled = minimize(arr, itin, lam * A, lam * B)
    assert scaled.classification is base.classification
    assert scaled.value == pytest.approx(lam * base.value, rel=1e-10)
    assert np.allclose(scaled.chain.points, lam * base.chain.points,
                       atol=1e-7 * lam)
