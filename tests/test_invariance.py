"""Invariances of the point solver implied by the variational problem: an
orthogonal change of frame, reversal of the path (A <-> B with the itinerary
reversed), scaling of the anchors and relabelling of the subspaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linbilliards.arrangement import Arrangement, Itinerary, Subspace
from linbilliards.errors import PACKAGE_ERRORS, MaxIterations
from linbilliards.solver import Classification, minimize

from conftest import (assert_lower_bound, fourbody, planes3d, random_start_solves,
                      validate_trajectory)

FIXTURES = ["mirror_arr", "origin_arr", "twolines_arr", "lines3d_arr", "planes4d_arr",
            "planes3d_arr"]
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


@st.composite
def _relabelled_cases(draw):
    """A table, a seeded repeat-free itinerary with anchors, and an order of
    its subspaces.  Random tables have 2-4 subspaces of one codimension in
    dimension 2-4."""
    table = draw(st.sampled_from(["random", "planes3d", "four_body"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if table == "planes3d":
        arr = planes3d()
    elif table == "four_body":
        arr = fourbody()
    else:
        dim = int(rng.integers(2, 5))
        sub = int(rng.integers(1, dim))
        arr = Arrangement(dim, tuple(
            Subspace.from_spanning(f"S{i}", rng.standard_normal((sub, dim)), dim)
            for i in range(int(rng.integers(2, 5)))))
    n = len(arr.subspaces)
    labels = [int(rng.integers(n))]
    for _ in range(int(rng.integers(0, 5))):
        labels.append((labels[-1] + int(rng.integers(1, n))) % n)
    A, B = rng.normal(size=arr.dim) * 2, rng.normal(size=arr.dim) * 2
    order = draw(st.permutations(range(n)))
    return arr, Itinerary(tuple(labels)), A, B, order


def _outcome(arr, itin, A, B):
    try:
        return minimize(arr, itin, A, B)
    except PACKAGE_ERRORS as exc:
        return type(exc)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_relabelled_cases())
def test_relabelling_subspaces(case):
    """Listing the subspaces in another order, with the itinerary renamed to
    match, changes no solve."""
    arr, itin, A, B, order = case
    moved = Arrangement(arr.dim, tuple(arr.subspaces[i] for i in order))
    rename = {old: new for new, old in enumerate(order)}
    base = _outcome(arr, itin, A, B)
    other = _outcome(moved, Itinerary(tuple(rename[i] for i in itin.indices)), A, B)
    if isinstance(base, type):
        assert other is base
        return
    scale = float(np.linalg.norm(B - A))
    assert other.classification is base.classification
    assert other.value == pytest.approx(base.value, rel=1e-12)
    assert np.abs(other.chain.points - base.chain.points).max() <= 1e-9 * scale


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_relabelled_cases())
def test_reversal_on_random_tables(case):
    """Reversal on the random codim tables, planes3d and the four-body table
    with itineraries of length 1-5.  Ghost chains need not be unique, so only
    valid chains are compared."""
    arr, itin, A, B, _ = case
    base = _outcome(arr, itin, A, B)
    back = _outcome(arr, Itinerary(tuple(reversed(itin.indices))), B, A)
    if isinstance(base, type):
        assert back is base
        return
    assert not isinstance(back, type)
    assert back.classification is base.classification
    assert back.value == pytest.approx(base.value, rel=1e-10)
    if base.is_valid:
        assert np.allclose(back.chain.points, base.chain.points[::-1], atol=1e-7)


@pytest.mark.parametrize("lam", [1e-3, 7.5])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(_relabelled_cases())
def test_scaling_on_random_tables(lam, case):
    """Scaling both anchors by lam on the random codim tables, planes3d and
    the four-body table scales the value and a valid chain by lam."""
    arr, itin, A, B, _ = case
    base = _outcome(arr, itin, A, B)
    scaled = _outcome(arr, itin, lam * A, lam * B)
    if isinstance(base, type):
        assert scaled is base
        return
    assert not isinstance(scaled, type)
    assert scaled.classification is base.classification
    assert scaled.value == pytest.approx(lam * base.value, rel=1e-10)
    if base.is_valid:
        assert np.allclose(scaled.chain.points, lam * base.chain.points, atol=1e-7 * lam)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_relabelled_cases())
def test_solves_agree_at_every_anchor_scale(case):
    """Scaling both anchors by lam = 10^j, j = -20 ... 12, on the random codim
    tables, planes3d and the four-body table keeps the classification; value
    / lam agrees to 1e-12 (relative) and a valid chain / lam to 1e-10 |B - A|,
    every valid result passes validate_trajectory, and every lower bound
    meets its value (assert_lower_bound).  The gradient of the length has no
    unit, so a stop test on it that grew with the value would accept worse
    chains at larger scales."""
    arr, itin, A, B, _ = case
    base = _outcome(arr, itin, A, B)
    scale = float(np.linalg.norm(B - A))
    for j in range(-20, 13):
        lam = 10.0 ** j
        scaled = _outcome(arr, itin, lam * A, lam * B)
        if isinstance(base, type):
            assert scaled is base
            continue
        assert not isinstance(scaled, type)
        assert scaled.classification is base.classification
        assert abs(scaled.value / lam - base.value) <= 1e-12 * base.value
        assert_lower_bound(scaled)
        if base.is_valid:
            assert np.abs(scaled.chain.points / lam - base.chain.points).max(initial=0.0) \
                <= 1e-10 * scale
            assert validate_trajectory(arr, scaled.trajectory) == []


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_relabelled_cases(), st.integers(0, 2**32 - 1))
def test_orthogonal_frame_on_random_tables(case, seed):
    """A random orthogonal change of frame of the random codim tables,
    planes3d and the four-body table moves a valid chain with the frame."""
    arr, itin, A, B, _ = case
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(arr.dim, arr.dim)))
    base = _outcome(arr, itin, A, B)
    moved = _outcome(_rotated(arr, Q), itin, Q @ A, Q @ B)
    if isinstance(base, type):
        assert moved is base
        return
    assert not isinstance(moved, type)
    assert moved.classification is base.classification
    assert moved.value == pytest.approx(base.value, rel=1e-10)
    if base.is_valid:
        assert np.allclose(moved.chain.points, base.chain.points @ Q.T, atol=1e-7)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_relabelled_cases())
def test_multistart_spread_on_random_tables(case):
    """Four random starts on the random codim tables, planes3d and the
    four-body table reach one minimum: a valid one within 1e-7 max(1, |B - A|)
    in the chain and 1e-10 in the value, and each proves itself
    (assert_lower_bound).  Ghost chains need not be unique, so only their
    values are compared."""
    arr, itin, A, B, _ = case
    try:
        results, chain_spread, value_spread = random_start_solves(arr, itin, A, B, n_starts=4)
    except PACKAGE_ERRORS as exc:
        assert _outcome(arr, itin, A, B) is type(exc)
        return
    classes = {r.classification for r in results}
    assert len(classes) == 1
    value = max(r.value for r in results)
    assert value_spread <= 1e-10 * value
    for r in results:
        assert_lower_bound(r)
    if classes == {Classification.VALID}:
        assert chain_spread <= 1e-7 * max(1.0, float(np.linalg.norm(B - A)))


def _degenerate_cases(twolines):
    """Degenerate inputs: nearly coincident lines (angles 1e-4 ... 1e-2),
    anchors 1e-8 ... 1e-5 off a line and long four-body itineraries (k = 8
    and 16), as (table, itinerary, A, B)."""
    rng = np.random.default_rng(12)
    cases = []
    for angle in (1e-4, 1e-3, 1e-2):
        arr = Arrangement(2, (Subspace.from_spanning("L1", [[1.0, 0.0]], 2),
                              Subspace.from_spanning("L2", [[np.cos(angle), np.sin(angle)]], 2)))
        for labels in ((0, 1), (1, 0, 1)):
            cases.append((arr, Itinerary(labels), np.array([-1.0, 0.5]), np.array([2.0, 0.7])))
    for off, labels in ((1e-8, (1, 0)), (1e-6, (1, 0)), (1e-6, (0, 1)), (1e-5, (0, 1))):
        cases.append((twolines, Itinerary(labels), np.array([1.3, off]), rng.normal(size=2) * 2))
    arr = fourbody()
    for k in (8, 8, 16, 16):
        labels = [int(rng.integers(6))]
        while len(labels) < k:
            labels.append((labels[-1] + int(rng.integers(1, 6))) % 6)
        cases.append((arr, Itinerary(tuple(labels)), rng.normal(size=arr.dim),
                      rng.normal(size=arr.dim)))
    return cases


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e4, 1e8])
def test_degenerate_inputs_keep_the_reflection_law(lam, twolines_arr):
    """Every degenerate solve at anchor scales 1e-6 ... 1e8 ends in a
    classification or a package error, and every VALID result passes
    validate_trajectory (the reflection law at every vertex)."""
    classes = set()
    for arr, itin, A, B in _degenerate_cases(twolines_arr):
        result = _outcome(arr, itin, lam * A, lam * B)
        if isinstance(result, type):
            classes.add(result)
            continue
        classes.add(result.classification)
        if result.is_valid:
            assert validate_trajectory(arr, result.trajectory) == []
    assert Classification.VALID in classes


def test_anchor_next_to_its_first_mirror_keeps_the_reflection_law(twolines_arr):
    """An anchor 3e-8 off the line its path reflects from first: the short
    first edge's direction is known only to about 1e-8, and the exact polish
    stops above GRAD_TOL.  The solve raises MaxIterations rather than report
    a VALID result with a momentum residual above 1e-9; a VALID result
    would have to pass validate_trajectory."""
    try:
        result = minimize(twolines_arr, Itinerary((0, 1)), np.array([1.3, 3e-8]),
                          np.array([-1.0, 3.0]))
    except MaxIterations:
        return
    assert result.is_valid
    assert validate_trajectory(twolines_arr, result.trajectory) == []
