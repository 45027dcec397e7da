"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is fixed, none is calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest

from linbilliards.action import gradient, hessian, preconditioned_P
from linbilliards.arrangement import Arrangement, Itinerary, Subspace
from linbilliards.nbody import (
    MASSES_THIRD,
    NBodySystem,
    build_arrangement,
    cross_validate_slice,
    three_body_slice,
)
from linbilliards.origami import (
    develop_planar,
    collinearity_residual,
    itinerary_bound,
    law_of_sines_residual,
    search_realizable,
    unfold,
)
from linbilliards.scattering import AnchorGrid, lagrangian_residual, sample_relation
from linbilliards.solver import minimize
from linbilliards.symmetry import conservation_report
from linbilliards.thickened import (
    ThickenedTable,
    minimize_thickened,
    r_family,
    replay_honest,
)
from linbilliards.trajectory import reflection_residual

from conftest import (TWOLINE_A, TWOLINE_B, assert_lower_bound, curve_shorten, fd_gradient,
                      fd_hessian, grad_tol, random_smooth_chain, random_start_solves,
                      rotation_generator)
from test_solver import brute_force_minimum


def _report(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS  ({text})")


@pytest.fixture(scope="module")
def mirror():
    arr = Arrangement(2, (Subspace.from_spanning("L1", [[1.0, 0.0]], 2),))
    return arr, Itinerary((0,)), np.array([0.0, 1.0]), np.array([2.0, 1.0])


@pytest.fixture(scope="module")
def origin():
    arr = Arrangement(2, (Subspace.from_spanning("O", np.zeros((0, 2)), 2),))
    return arr, Itinerary((0,)), np.array([3.0, 0.0]), np.array([0.0, 4.0])


@pytest.fixture(scope="module")
def twolines():
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    arr = Arrangement(2, (
        Subspace.from_spanning("L1", [[1.0, 0.0]], 2),
        Subspace.from_spanning("L2", [[c, s]], 2),
    ))
    return arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B


def _test_arrangements():
    rng = np.random.default_rng(2024)
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    twolines = Arrangement(2, (
        Subspace.from_spanning("L1", [[1.0, 0.0]], 2),
        Subspace.from_spanning("L2", [[c, s]], 2)))
    lines3d = Arrangement(3, (
        Subspace.from_spanning("M1", [[1.0, 0.0, 0.0]], 3),
        Subspace.from_spanning("M2", [[0.2, 1.0, 0.4]], 3)))
    planes4d = Arrangement(4, (
        Subspace.from_spanning("P1", rng.normal(size=(2, 4)), 4),
        Subspace.from_spanning("P2", rng.normal(size=(2, 4)), 4)))
    spaces6d = Arrangement(6, (
        Subspace.from_spanning("Q1", rng.normal(size=(3, 6)), 6),
        Subspace.from_spanning("Q2", rng.normal(size=(3, 6)), 6)))
    return twolines, lines3d, planes4d, spaces6d


def _oracle_arrangements():
    """Derivative checks on random chains: dims 2-6, k up to 4."""
    twolines, lines3d, planes4d, spaces6d = _test_arrangements()
    return [(twolines, Itinerary((0, 1))),
            (lines3d, Itinerary((0, 1, 0))),
            (planes4d, Itinerary((0, 1, 0, 1))),
            (spaces6d, Itinerary((0, 1, 0)))]


def _solution_arrangements():
    """Arrangements with itineraries that random anchors actually realize."""
    twolines, lines3d, planes4d, spaces6d = _test_arrangements()
    return [(twolines, Itinerary((0, 1))),
            (lines3d, Itinerary((0, 1))),
            (planes4d, Itinerary((0, 1, 0, 1))),
            (spaces6d, Itinerary((0, 1, 0)))]


def _valid_fixture(arr, itinerary, seed, scale=3.0):
    """Deterministically scan anchors until the solver returns a valid
    billiard, solved with solver.GRAD_TOL = 1e-13."""
    rng = np.random.default_rng(seed)
    for _ in range(500):
        A = rng.normal(size=arr.dim) * scale
        B = rng.normal(size=arr.dim) * scale
        try:
            with grad_tol(1e-13):
                result = minimize(arr, itinerary, A, B)
        except Exception:
            continue
        if result.is_valid:
            return A, B, result
    raise RuntimeError("no valid fixture found")


def test_criterion_1_closed_forms(mirror, origin):
    arr, it, A, B = mirror
    result = minimize(arr, it, A, B)
    assert result.is_valid
    assert np.max(np.abs(result.chain.points - [[1.0, 0.0]])) < 1e-10
    assert abs(result.value - 2 * math.sqrt(2)) < 1e-10

    arr0, it0, A0, B0 = origin
    result0 = minimize(arr0, it0, A0, B0)
    assert result0.is_valid
    assert abs(result0.value - 7.0) < 1e-12
    from linbilliards.trajectory import boundary_lines
    lm, lp = boundary_lines(result0.trajectory)
    assert np.linalg.norm(lm.Q) < 1e-10
    assert np.linalg.norm(lp.Q) < 1e-10
    _report(1, "mirror chain (1,0) and 2*sqrt(2); total collision 7 with zero foot points")


def test_criterion_2_derivative_oracles():
    rng = np.random.default_rng(7)
    n_checked = 0
    worst_g, worst_h = 0.0, 0.0
    for arr, it in _oracle_arrangements():
        A = rng.normal(size=arr.dim) * 2
        B = rng.normal(size=arr.dim) * 2
        for _ in range(30):
            chain = random_smooth_chain(arr, it, A, B, rng)
            g = np.concatenate(gradient(arr, it, A, chain, B))
            gf = fd_gradient(arr, it, A, chain, B)
            rel_g = np.max(np.abs(g - gf)) / max(1.0, float(np.max(np.abs(gf))))
            H = hessian(arr, it, A, chain, B).matrix
            Hf = fd_hessian(arr, it, A, chain, B)
            rel_h = np.linalg.norm(H - Hf) / max(1.0, float(np.linalg.norm(Hf)))
            worst_g, worst_h = max(worst_g, rel_g), max(worst_h, rel_h)
            assert rel_g < 1e-6
            assert rel_h < 1e-5
            n_checked += 1
    assert n_checked >= 100
    _report(2, f"{n_checked} random chains, grad err {worst_g:.2e}, hess err {worst_h:.2e}")


@pytest.mark.usefixtures("tight")
def test_criterion_3_hessian_structure(twolines):
    arr, it, A, B = twolines
    solutions = [(arr, it, A, B, minimize(arr, it, A, B))]
    for seed, (arr_i, it_i) in enumerate(_solution_arrangements()):
        A_i, B_i, result = _valid_fixture(arr_i, it_i, seed=100 + seed)
        solutions.append((arr_i, it_i, A_i, B_i, result))
    for arr_i, it_i, A_i, B_i, result in solutions:
        model = hessian(arr_i, it_i, A_i, result.chain, B_i)
        assert model.symmetry_defect() < 1e-12
        assert model.min_eigenvalue() > 0.0
        pre = preconditioned_P(model)
        assert pre.spectral_radius() < 1.0
        if len(pre.weight_a):
            assert np.max(np.abs(pre.weight_a + pre.weight_b - 1.0)) < 1e-14
    _report(3, f"{len(solutions)} solutions: M SPD, spectral radius < 1, weights sum to 1")


def test_criterion_4_uniqueness(mirror, origin, twolines):
    fixtures = [mirror, origin, twolines]
    for seed, (arr_i, it_i) in enumerate(_solution_arrangements()[1:3]):
        A_i, B_i, _ = _valid_fixture(arr_i, it_i, seed=200 + seed)
        fixtures.append((arr_i, it_i, A_i, B_i))
    spreads = []
    for arr_i, it_i, A_i, B_i in fixtures:
        results, chain_spread, _ = random_start_solves(arr_i, it_i, A_i, B_i,
                                                       n_starts=100, seed=3)
        assert chain_spread < 1e-7
        spreads.append(chain_spread)
        for r in results:
            assert_lower_bound(r)
    # brute force on the small instances (k <= 2, subspace dimension <= 2)
    for arr_i, it_i, A_i, B_i in (mirror, twolines):
        with grad_tol(1e-13):
            result = minimize(arr_i, it_i, A_i, B_i)
        radius = 2.0 * float(np.linalg.norm(np.asarray(A_i) - np.asarray(B_i)))
        pts, fun = brute_force_minimum(arr_i, it_i, A_i, B_i, radius=radius)
        assert abs(fun - result.value) < 1e-6
        assert np.max(np.abs(pts - result.chain.points)) < 1e-6
    _report(4, f"{len(fixtures)} fixtures x 100 starts, max spread {max(spreads):.2e}; "
               "grid+refine agrees to 1e-6")


@pytest.mark.usefixtures("tight")
def test_criterion_5_conservation(twolines):
    worst_momentum = 0.0
    worst_linear = 0.0
    arr, it, A, B = twolines
    results = [(arr, it, minimize(arr, it, A, B))]
    for seed, (arr_i, it_i) in enumerate(_solution_arrangements()):
        A_i, B_i, result = _valid_fixture(arr_i, it_i, seed=300 + seed)
        results.append((arr_i, it_i, result))
    for arr_i, it_i, result in results:
        traj = result.trajectory
        for v in range(1, traj.k + 1):
            worst_momentum = max(worst_momentum,
                                 reflection_residual(arr_i, traj, v))
        report = conservation_report(arr_i, traj, [])
        worst_linear = max(worst_linear, report.max_linear_deviation)
    assert worst_momentum < 1e-9
    assert worst_linear < 1e-10

    # angular momentum on N-body trajectories with the diagonal rotation
    sys = NBodySystem(3, 2, MASSES_THIRD, reduce_cm=True)
    arr_n = build_arrangement(sys)
    gen = rotation_generator(sys)
    it_n = Itinerary.from_labels(arr_n, ["D12", "D13"])
    worst_J = 0.0
    checked = 0
    rng = np.random.default_rng(11)
    while checked < 5:
        A_i = rng.normal(size=4) * 2
        B_i = rng.normal(size=4) * 2
        try:
            result = minimize(arr_n, it_n, A_i, B_i)
        except Exception:
            continue
        if not result.is_valid:
            continue
        report = conservation_report(arr_n, result.trajectory, [gen])
        worst_J = max(worst_J, report.max_angular_jump)
        checked += 1
    assert worst_J < 1e-9
    _report(5, f"momentum {worst_momentum:.2e}, linear {worst_linear:.2e}, "
               f"angular {worst_J:.2e}")


def _rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.mark.usefixtures("tight")
def test_criterion_6_lagrangian_residual(mirror, origin):
    worst = {}
    for name, (arr, it, A, B) in (("mirror", mirror), ("total-collision", origin)):
        grid_A = AnchorGrid(A + [0.1, 0.07], _rot2(0.37), 2, 1e-3)
        grid_B = AnchorGrid(B + [0.05, -0.1], _rot2(-0.59), 2, 1e-3)
        patch = sample_relation(arr, it, grid_A, grid_B)
        res = lagrangian_residual(patch)
        assert res < 1e-6
        worst[name] = res
        # stencil halving on the coarser, truncation-dominated scale
        residuals = {}
        for h in (2e-2, 1e-2, 5e-3):
            ga = AnchorGrid(A + [0.1, 0.07], _rot2(0.37), 1, h)
            gb = AnchorGrid(B + [0.05, -0.1], _rot2(-0.59), 1, h)
            residuals[h] = lagrangian_residual(sample_relation(arr, it, ga, gb))
        hs = sorted(residuals, reverse=True)
        slope = np.polyfit(np.log(hs), np.log([residuals[h] for h in hs]), 1)[0]
        assert abs(slope - 2.0) < 0.3
    _report(6, f"5x5 patches: residuals {worst['mirror']:.2e} / "
               f"{worst['total-collision']:.2e}, decay slope 2 within 0.3")


def test_criterion_7_origami(twolines):
    arr, it, A, B = twolines
    # identities on every line-arrangement solution of a random sweep
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(300):
        A_i = rng.normal(size=2) * 3
        B_i = rng.normal(size=2) * 3
        try:
            with grad_tol(1e-13):
                result = minimize(arr, it, A_i, B_i)
        except Exception:
            continue
        if not result.is_valid:
            continue
        u = unfold(result.trajectory)
        assert abs(u.total - math.pi) < 1e-10
        assert u.beta < math.pi
        assert law_of_sines_residual(result.trajectory) < 1e-9
        assert collinearity_residual(develop_planar(result.trajectory)) < 1e-9
        checked += 1
    assert checked >= 20

    assert itinerary_bound(arr) == 4
    rows = search_realizable(arr, 5, 10_000, seed=4)
    realized = [len(r.labels) for r in rows if r.status == "realized"]
    assert realized and max(realized) <= 4
    # also sample the pre-filtered lengths without the angle filter, so the
    # bound is exercised by actual solving rather than by the filter alone
    rows_raw = search_realizable(arr, 5, 300, seed=8, use_angle_filter=False)
    for row in rows_raw:
        if len(row.labels) >= 4:
            assert row.status == "not-found"
    _report(7, f"angle sum pi to 1e-10 on {checked} solutions; "
               f"search realizes max length {max(realized)} <= 4")


@pytest.mark.usefixtures("tight")
def test_criterion_8_thickened_convergence(mirror, twolines):
    rs = [1e-1, 1e-2, 1e-3, 1e-4]
    slopes = {}
    for name, (arr, it, A, B) in (("mirror", mirror), ("twolines", twolines)):
        entries = r_family(arr, it, A, B, rs)
        assert all(e.result is not None for e in entries)
        small = [e for e in entries if e.r <= 1e-2]
        assert all(e.result.honest and e.itinerary_match for e in small)
        devs = [e.deviation for e in entries]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        slope = np.polyfit(np.log(rs), np.log(devs), 1)[0]
        assert abs(slope - 1.0) < 0.2
        slopes[name] = slope

        point = minimize(arr, it, A, B)
        table = ThickenedTable(arr, 1e-3)
        _, lengths = curve_shorten(table, it, A, point.chain.points, B)
        assert len(lengths) == len(it) + 1
        assert all(b < a for a, b in zip(lengths, lengths[1:]))
    _report(8, f"deviation slopes {slopes['mirror']:.3f} / {slopes['twolines']:.3f}; "
               "curve shortening strictly monotone")


@pytest.mark.usefixtures("tight")
def test_criterion_9_replay_agreement(mirror, twolines):
    worst = 0.0
    for arr, it, A, B in (mirror, twolines):
        for r in (1e-1, 1e-2, 1e-3):
            table = ThickenedTable(arr, r)
            result = minimize_thickened(table, it, A, B)
            if not result.honest:
                continue
            path = replay_honest(table, result, A, len(it))
            assert path.itinerary_labels == it.labels(arr)
            for event, vertex in zip(path.events, result.points):
                worst = max(worst, float(np.linalg.norm(event.point - vertex)))
    assert worst < 1e-8
    _report(9, f"event replay matches minimizer vertices to {worst:.2e}")


def test_criterion_10_three_body(tmp_path):
    phi = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    psi = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    s = three_body_slice(phi, psi)
    assert s.max_conservation_residual() < 1e-12
    report = cross_validate_slice(s, sample_budget=120, seed=6)
    assert report.checked >= 100
    assert report.max_reflection_residual < 1e-10
    assert report.max_chain_deviation < 1e-7
    # the pair-speed discrepancy lands in the run log
    from linbilliards.cli import main
    log = tmp_path / "run.log"
    code = main(["--log-file", str(log), "threebody", "--n-phi", "6",
                 "--n-psi", "6", "--out", str(tmp_path / "tb")])
    assert code == 0
    text = log.read_text()
    assert "sqrt(3)/2" in text and "3/2" in text
    payload = json.loads((tmp_path / "tb" / "threebody.json").read_text())
    assert payload["w_norm"] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    _report(10, f"conservation {s.max_conservation_residual():.2e}; "
                f"{report.checked} cross-validated to {report.max_chain_deviation:.2e}; "
                "speed discrepancy logged")
