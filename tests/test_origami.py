import math

import numpy as np
import pytest

from linbilliards.arrangement import Arrangement, Itinerary, Subspace
from linbilliards.errors import MaxIterations, PreconditionError
from linbilliards.origami import (
    angle_prefilter_passes,
    collinearity_residual,
    develop_planar,
    enumerate_itineraries,
    itinerary_bound,
    law_of_sines_residual,
    search_realizable,
    search_to_csv,
    unfold,
)
from linbilliards.solver import minimize
from linbilliards.trajectory import BilliardTrajectory

from conftest import TWOLINE_A, TWOLINE_B, sample_anchor_reference


def lines_at(theta):
    return Arrangement(2, (
        Subspace.from_spanning("L1", [[1.0, 0.0]], 2),
        Subspace.from_spanning("L2", [[math.cos(theta), math.sin(theta)]], 2),
    ))


def test_unfold_single_mirror(mirror_arr):
    result = minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 1.0])
    u = unfold(result.trajectory)
    assert u.beta == 0.0
    assert u.total == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.usefixtures("tight")
def test_unfold_two_lines_angle_sum(twolines_arr):
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    u = unfold(result.trajectory)
    assert u.total == pytest.approx(math.pi, abs=1e-10)
    assert u.beta < math.pi


def test_readme_origami_example_meets_the_unfolding_identities(twolines_arr):
    """The README's origami example on two lines, solved at the library's
    own GRAD_TOL, meets the angle sum, the planar development's
    collinearity and the law of sines to rounding (1e-14) at its own scale,
    and within 1e-13 with its anchors scaled by lam = 1e-20 ... 1e12: the
    unfolding's origin floor is relative to the anchors."""
    for lam in (10.0 ** e for e in range(-20, 13, 2)):
        result = minimize(twolines_arr, Itinerary((0, 1)), [2.0 * lam, 1.0 * lam],
                          [-1.0 * lam, -3.0 * lam])
        assert result.is_valid
        tol = 1e-14 if lam == 1.0 else 1e-13
        assert abs(unfold(result.trajectory).total - math.pi) <= tol
        assert collinearity_residual(develop_planar(result.trajectory)) <= tol
        assert law_of_sines_residual(result.trajectory) <= tol


def test_unfold_rejects_origin_vertex():
    traj = BilliardTrajectory(np.array([3.0, 0.0]), np.array([0.0, 4.0]),
                              np.array([[0.0, 0.0]]), Itinerary((0,)))
    with pytest.raises(PreconditionError):
        unfold(traj)


def test_angle_sum_bound_values():
    from linbilliards.origami import Unfolding
    assert Unfolding((0.1, math.pi / 2, 0.1)).beta < math.pi
    assert not Unfolding((0.1, math.pi, 0.1)).beta < math.pi


def test_itinerary_bound_values():
    assert itinerary_bound(lines_at(math.pi / 3)) == 4
    assert itinerary_bound(lines_at(math.pi / 2)) == 3
    assert itinerary_bound(lines_at(math.pi / 4)) == 5


def test_law_of_sines_k1(mirror_arr):
    result = minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 1.0])
    assert law_of_sines_residual(result.trajectory) < 1e-12


@pytest.mark.usefixtures("tight")
def test_law_of_sines_two_lines(twolines_arr):
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    assert law_of_sines_residual(result.trajectory) < 1e-9


@pytest.mark.usefixtures("tight")
def test_law_of_sines_perturbed_chain(twolines_arr):
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    pts = result.chain.points.copy()
    pts[0, 0] *= 1.2
    bad = BilliardTrajectory(np.asarray(TWOLINE_A), np.asarray(TWOLINE_B),
                             pts, Itinerary((0, 1)))
    assert law_of_sines_residual(bad) > 1e-3


@pytest.mark.usefixtures("tight")
def test_development_collinear(twolines_arr):
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    developed = develop_planar(result.trajectory)
    assert collinearity_residual(developed) < 1e-9
    # radii are preserved by the development
    assert np.linalg.norm(developed[0]) == pytest.approx(
        np.linalg.norm(TWOLINE_A), abs=1e-12)


@pytest.mark.usefixtures("tight")
def test_development_collinear_in_3d(lines3d_arr):
    rng = np.random.default_rng(5)
    itin = Itinerary((0, 1))
    for _ in range(200):
        A = rng.normal(size=3) * 2
        B = rng.normal(size=3) * 2
        try:
            result = minimize(lines3d_arr, itin, A, B)
        except Exception:
            continue
        if result.is_valid:
            developed = develop_planar(result.trajectory)
            assert collinearity_residual(developed) < 1e-9
            u = unfold(result.trajectory)
            assert u.total == pytest.approx(math.pi, abs=1e-10)
            return
    pytest.fail("no valid 3d fixture found")


@pytest.mark.usefixtures("tight")
def test_generalized_angle_sum_codim2(planes4d_arr):
    # equal-codimension arrangement that is not lines: the ray-based angles
    # still develop to a straight line
    rng = np.random.default_rng(6)
    itin = Itinerary((0, 1))
    checked = 0
    for _ in range(200):
        A = rng.normal(size=4) * 2
        B = rng.normal(size=4) * 2
        try:
            result = minimize(planes4d_arr, itin, A, B)
        except Exception:
            continue
        if not result.is_valid:
            continue
        u = unfold(result.trajectory)
        assert u.total == pytest.approx(math.pi, abs=1e-10)
        assert u.beta < math.pi
        assert collinearity_residual(develop_planar(result.trajectory)) < 1e-9
        checked += 1
        if checked >= 5:
            break
    assert checked >= 3


def test_enumerate_itineraries(twolines_arr):
    combos = list(enumerate_itineraries(twolines_arr, 3))
    assert (0,) in combos and (1,) in combos
    assert (0, 0) not in combos
    assert (0, 1, 0) in combos
    assert len(combos) == 2 + 2 + 2


def test_angle_prefilter(twolines_arr):
    assert angle_prefilter_passes(twolines_arr, (0, 1, 0))       # 2pi/3 < pi
    assert not angle_prefilter_passes(twolines_arr, (0, 1, 0, 1))  # pi
    assert not angle_prefilter_passes(twolines_arr, (0, 1, 0, 1, 0))


def test_search_single_mirror(mirror_arr):
    rows = search_realizable(mirror_arr, 1, 50, seed=0)
    assert rows[0].status == "realized"


def test_search_two_lines_respects_bound(twolines_arr):
    rows = search_realizable(twolines_arr, 5, 400, seed=0)
    realized = [len(r.labels) for r in rows if r.status == "realized"]
    assert max(realized) <= itinerary_bound(twolines_arr)
    assert 1 in realized and 2 in realized
    # lengths 4 and 5 are pre-filtered: every angle selection reaches pi
    for row in rows:
        if len(row.labels) >= 4:
            assert row.status == "not-found"
            assert "skipped" in row.note


def test_search_budget_cap(twolines_arr):
    with pytest.raises(PreconditionError):
        search_realizable(twolines_arr, 6, 10, seed=0)


@pytest.mark.parametrize("table, count", [("fourbody_arr", 36), ("planes3d_arr", 9)])
def test_search_on_tables_whose_subspaces_meet(table, count, request):
    """Where subspaces meet beyond the origin (the four-body table's D12 and
    D13, the planes of planes3d) the itinerary bound is not defined, and
    max_len is the caller's: every itinerary up to it gets its row."""
    arr = request.getfixturevalue(table)
    with pytest.raises(PreconditionError):
        itinerary_bound(arr)
    rows = search_realizable(arr, 2, 5)
    assert len(rows) == count
    assert any(r.status == "realized" for r in rows)


def test_search_deterministic(twolines_arr):
    rows1 = search_realizable(twolines_arr, 2, 60, seed=7)
    rows2 = search_realizable(twolines_arr, 2, 60, seed=7)
    for a, b in zip(rows1, rows2):
        assert a.labels == b.labels and a.status == b.status
        assert a.samples_used == b.samples_used
        if a.witness_A is not None:
            assert np.allclose(a.witness_A, b.witness_A)


@pytest.mark.parametrize("dim", [2, 3, 9])
def test_search_anchors_match_one_draw_per_anchor(dim, monkeypatch):
    """The search draws both anchors of a sample at once and normalizes them
    together; over 200 seeds they are, byte for byte, the anchors of one
    draw and one np.linalg.norm each (sample_anchor_reference) on the
    spheres of the four radius pairs in turn."""
    import types
    import linbilliards.origami as origami_module
    arr = Arrangement(dim, (Subspace.from_spanning("L1", np.eye(dim)[:1], dim),
                            Subspace.from_spanning("L2", np.eye(dim)[1:2], dim)))
    drawn = []
    missed = types.SimpleNamespace(is_valid=False)
    monkeypatch.setattr(origami_module, "minimize",
                        lambda arr, itinerary, A, B: drawn.append((A, B)) or missed)
    combo, radii = (0, 1), [(1.0, 1.0), (1.0, 10.0), (10.0, 1.0), (10.0, 10.0)]
    for seed in range(200):
        del drawn[:]
        origami_module._search_one((arr, combo, 8, seed, False))
        rng = np.random.default_rng((seed, len(combo)) + combo)
        assert len(drawn) == 8
        for (A, B), (rA, rB) in zip(drawn, radii * 2):
            assert A.tobytes() == sample_anchor_reference(rng, dim, rA).tobytes()
            assert B.tobytes() == sample_anchor_reference(rng, dim, rB).tobytes()


def test_a_solver_failure_is_not_a_miss(twolines_arr, monkeypatch):
    """MaxIterations propagates out of the search rather than count as a
    sample that realized nothing."""
    import linbilliards.origami as origami_module

    def failing(arr, itinerary, A, B, initial_chain=None):
        raise MaxIterations("continuation ended without a polished minimizer")

    monkeypatch.setattr(origami_module, "minimize", failing)
    with pytest.raises(MaxIterations):
        search_realizable(twolines_arr, 2, 60, seed=7)


def test_search_csv(tmp_path, twolines_arr):
    rows = search_realizable(twolines_arr, 2, 60, seed=7)
    out = tmp_path / "table.csv"
    search_to_csv(rows, out)
    text = out.read_text()
    assert text.startswith("itinerary,status")
    assert "realized" in text
