import math
import zlib

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from linbilliards import solver
from linbilliards.action import Chain, action, hessian
from linbilliards.arrangement import MEMBERSHIP_TOL, Arrangement, Itinerary, Subspace
from linbilliards.errors import NonSmoothPoint, PreconditionError
from linbilliards.solver import (
    Classification,
    SolverOptions,
    envelope_gradients,
    minimize,
    multistart_minimize,
)
from linbilliards.trajectory import is_generic, max_reflection_residual

from conftest import TWOLINE_A, TWOLINE_B


def brute_force_minimum(arr, itinerary, A, B, radius, n_grid=21):
    """Derivative-free oracle: dense grid over the chain coordinates followed
    by Nelder-Mead refinement of the best cell (no analytic gradients)."""
    dims = [arr.subspaces[i].subdim for i in itinerary]
    total = sum(dims)

    def value(x):
        return action(A, Chain.from_stacked(arr, itinerary, x).points, B)

    grids = np.meshgrid(*[np.linspace(-radius, radius, n_grid)] * total)
    stacked = np.stack([g.ravel() for g in grids], axis=1)
    best = min(stacked, key=value)
    res = scipy.optimize.minimize(value, best, method="Nelder-Mead",
                                  options={"xatol": 1e-10, "fatol": 1e-14,
                                           "maxiter": 20000})
    return res.x, res.fun


def test_mirror_closed_form(mirror_arr):
    result = minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 1.0])
    assert result.classification is Classification.VALID
    assert np.allclose(result.chain.points, [[1.0, 0.0]], atol=1e-10)
    assert result.value == pytest.approx(2 * math.sqrt(2), abs=1e-10)
    assert result.hessian_min_eig > 0


def test_total_collision_example(origin_arr):
    result = minimize(origin_arr, Itinerary((0,)), [3.0, 0.0], [0.0, 4.0])
    assert result.classification is Classification.VALID
    assert result.value == pytest.approx(7.0, abs=1e-12)
    assert np.allclose(result.chain.points, [[0.0, 0.0]])


def test_anchor_on_locus_rejected(mirror_arr):
    with pytest.raises(PreconditionError):
        minimize(mirror_arr, Itinerary((0,)), [0.0, 0.0], [2.0, 1.0])
    with pytest.raises(PreconditionError):
        minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 0.0])


def test_valid_results_satisfy_invariants(twolines_arr):
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    assert result.is_valid
    traj = result.trajectory
    assert max_reflection_residual(twolines_arr, traj) < 1e-9
    assert is_generic(twolines_arr, traj.A, traj.chain, traj.B, traj.itinerary)
    assert result.hessian_min_eig > 0


def test_ghost_two_skew_lines():
    eps = 0.05
    arr = Arrangement(3, (
        Subspace.from_spanning("M1", [[1.0, 0.0, 0.0]], 3),
        Subspace.from_spanning("M2", [[math.cos(eps), math.sin(eps), 0.0]], 3),
    ))
    A = np.array([-1.0, -0.3, -1.0])
    B = np.array([1.0, 0.3, 1.0])
    result = minimize(arr, Itinerary((0, 1)), A, B)
    assert result.classification is Classification.GHOST
    # the collapsed minimizer sits at the intersection (the origin)
    assert np.linalg.norm(result.chain.points) < 1e-9
    assert result.value == pytest.approx(np.linalg.norm(A) + np.linalg.norm(B),
                                         abs=1e-12)
    # confirm against the derivative-free oracle: the true minimum collapses
    x, fun = brute_force_minimum(arr, Itinerary((0, 1)), A, B, radius=2.0)
    assert fun == pytest.approx(result.value, abs=1e-7)
    chain = Chain.from_stacked(arr, Itinerary((0, 1)), x).points
    assert np.linalg.norm(chain[0] - chain[1]) < 1e-4


def test_edge_in_subspace_classification():
    # anchors nearly on the z-axis make the solved edges nearly parallel to
    # it; with the edge tolerance above that parallelism the guard fires
    # (anchors must stay off the locus, so the tolerance is widened here)
    arr = Arrangement(3, (Subspace.from_spanning("Lz", [[0.0, 0.0, 1.0]], 3),))
    A = np.array([1e-4, 0.0, -2.0])
    B = np.array([0.0, 1e-4, 2.0])
    result = minimize(arr, Itinerary((0,)), A, B,
                      SolverOptions(edge_tol=1e-3))
    assert result.classification is Classification.EDGE_IN_SUBSPACE
    # at the spec default the same minimizer is a skinny but valid billiard
    result = minimize(arr, Itinerary((0,)), A, B)
    assert result.classification is Classification.VALID


def test_non_generic_ray_classification(twolines_arr):
    # anchors straddling both lines so the solved boundary rays recross
    A = np.array([0.96389078, -0.47710721])
    B = np.array([1.91551741, -0.39960426])
    result = minimize(twolines_arr, Itinerary((0, 1)), A, B)
    assert result.classification is Classification.NON_GENERIC_RAY


def test_multistart_uniqueness(twolines_arr):
    report = multistart_minimize(twolines_arr, Itinerary((0, 1)),
                                 TWOLINE_A, TWOLINE_B, n_starts=100, seed=2)
    assert report.chain_spread < 1e-7
    assert report.value_spread < 1e-9
    assert all(c is Classification.VALID for c in report.classifications)


def test_multistart_pinned_chain(origin_arr):
    report = multistart_minimize(origin_arr, Itinerary((0,)),
                                 np.array([3.0, 0.0]), np.array([0.0, 4.0]),
                                 n_starts=10, seed=0)
    assert report.chain_spread == 0.0
    assert report.value_spread == 0.0


def test_brute_force_agreement_mirror(mirror_arr):
    A, B = np.array([0.0, 1.0]), np.array([2.0, 1.0])
    x, fun = brute_force_minimum(mirror_arr, Itinerary((0,)), A, B, radius=4.0)
    result = minimize(mirror_arr, Itinerary((0,)), A, B)
    assert fun == pytest.approx(result.value, abs=1e-8)
    assert np.allclose(Chain.from_stacked(mirror_arr, Itinerary((0,)), x).points,
                       result.chain.points, atol=1e-6)


def test_brute_force_agreement_twolines(twolines_arr):
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    radius = 2.0 * float(np.linalg.norm(TWOLINE_A - TWOLINE_B))
    x, fun = brute_force_minimum(twolines_arr, Itinerary((0, 1)),
                                 TWOLINE_A, TWOLINE_B, radius=radius)
    assert fun == pytest.approx(result.value, abs=1e-8)
    assert np.allclose(Chain.from_stacked(twolines_arr, Itinerary((0, 1)), x).points,
                       result.chain.points, atol=1e-6)


def test_envelope_gradients_mirror(mirror_arr):
    result = minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 1.0])
    vA, vB = envelope_gradients(result, [0.0, 1.0], [2.0, 1.0])
    s = 1 / math.sqrt(2)
    assert np.allclose(vA, [s, -s], atol=1e-10)
    assert np.allclose(vB, [s, s], atol=1e-10)


def test_envelope_gradients_total_collision(origin_arr):
    A, B = np.array([3.0, 0.0]), np.array([0.0, 4.0])
    result = minimize(origin_arr, Itinerary((0,)), A, B)
    vA, vB = envelope_gradients(result, A, B)
    assert np.allclose(vA, -A / np.linalg.norm(A), atol=1e-14)
    assert np.allclose(vB, B / np.linalg.norm(B), atol=1e-14)


def test_envelope_matches_value_function_differences(twolines_arr):
    it = Itinerary((0, 1))
    A, B = TWOLINE_A, TWOLINE_B
    result = minimize(twolines_arr, it, A, B)
    vA, vB = envelope_gradients(result, A, B)
    h = 1e-6
    opts = SolverOptions(grad_tol=1e-13)
    gradA = np.zeros(2)
    gradB = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        gradA[i] = (minimize(twolines_arr, it, A + e, B, opts).value
                    - minimize(twolines_arr, it, A - e, B, opts).value) / (2 * h)
        gradB[i] = (minimize(twolines_arr, it, A, B + e, opts).value
                    - minimize(twolines_arr, it, A, B - e, opts).value) / (2 * h)
    assert np.linalg.norm(gradA + vA) < 1e-6
    assert np.linalg.norm(gradB - vB) < 1e-6


def test_initial_chain_override(twolines_arr):
    from linbilliards.solver import random_chain
    rng = np.random.default_rng(4)
    start = random_chain(twolines_arr, Itinerary((0, 1)), 20.0, rng)
    opts = SolverOptions(initial_chain=start)
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B, opts)
    reference = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    assert np.allclose(result.chain.points, reference.chain.points, atol=1e-8)


# -- ghost certificate by weak duality ----------------------------------------

FIXTURES = ["mirror_arr", "origin_arr", "twolines_arr", "lines3d_arr", "planes4d_arr"]


def _random_case(arr, rng, min_len, max_len):
    """Repeat-free itinerary and anchors on spheres of radius 1 or 10."""
    n = len(arr.subspaces)
    k = 1 if n == 1 else int(rng.integers(min_len, max_len + 1))
    seq = [int(rng.integers(n))]
    while len(seq) < k:
        nxt = int(rng.integers(n - 1))
        seq.append(nxt if nxt < seq[-1] else nxt + 1)
    anchors = []
    for _ in range(2):
        v = rng.standard_normal(arr.dim)
        anchors.append(v / np.linalg.norm(v) * (1.0, 10.0)[int(rng.integers(2))])
    return Itinerary(tuple(seq)), anchors[0], anchors[1]


@pytest.mark.parametrize("fixture", FIXTURES + ["planes3d_arr"])
def test_dual_lower_bound_below_every_chain(fixture, request):
    from linbilliards.solver import (_StackedProblem, _add_step, _damped_newton,
                                     _dual_lower_bound, random_chain)
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    for _ in range(6):
        it, A, B = _random_case(arr, rng, 1, 4)
        result = minimize(arr, it, A, B)
        scale = float(np.linalg.norm(B - A))
        problem = _StackedProblem(arr, it, A, B)
        # multipliers from a random point and from smoothed minimizers
        multipliers = [(rng.standard_normal(problem.k * problem.m), (1e-2 * scale) ** 2)]
        for exponent in (2, 6, 10):
            mu2 = (scale * 10.0 ** -exponent) ** 2
            x, *_ = _damped_newton(problem.coords_of(result.chain.points),
                                   lambda y, mu2=mu2: problem.derivatives(y, mu2),
                                   lambda y, mu2=mu2: problem.value(y, mu2),
                                   _add_step, 0.0, 1e-12, 20)
            multipliers.append((x, mu2))
        bounds = [_dual_lower_bound(problem, x, mu2, result.value)
                  for x, mu2 in multipliers]
        chains = [result.chain] + [random_chain(arr, it, 3.0 * scale, rng)
                                   for _ in range(20)]
        shortest = min(action(A, c.points, B) for c in chains)
        assert max(bounds) <= shortest + 1e-13 * max(1.0, shortest)
        # at mu = 1e-6 * scale the bound is already close to the minimum
        assert result.value - bounds[2] <= 1e-6 * max(1.0, result.value)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_certified_ghosts_match_full_continuation(fixture, request, monkeypatch):
    import linbilliards.solver as solver_module
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    cases = [_random_case(arr, rng, 2, 6) for _ in range(40)]
    early = [minimize(arr, it, A, B) for it, A, B in cases]
    monkeypatch.setattr(solver_module, "_certify_ghost", lambda *args: None)
    ghosts = 0
    for (it, A, B), fast in zip(cases, early):
        if fast.classification is not Classification.GHOST:
            continue
        ghosts += 1
        full = minimize(arr, it, A, B)
        assert full.classification is fast.classification
        assert full.value == fast.value
        assert full.chain.points.tobytes() == fast.chain.points.tobytes()
        assert fast.iterations <= full.iterations
    if len(arr.subspaces) == 1:
        # one subspace allows only length-1 itineraries, which cannot collapse
        assert ghosts == 0
    else:
        assert ghosts >= 5
        # the certificate must have cut some continuations short
        assert any(r.iterations < 7 for r in early
                   if r.classification is Classification.GHOST)


def test_valid_solve_never_reaches_certificate(twolines_arr, monkeypatch):
    import linbilliards.solver as solver_module

    def forbidden(*args):
        raise AssertionError("certificate ran on a valid solve")

    reference = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    monkeypatch.setattr(solver_module, "_certify_ghost", forbidden)
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    assert result.is_valid
    assert result.chain.points.tobytes() == reference.chain.points.tobytes()


def _four_body_table():
    from linbilliards import nbody
    return nbody.build_arrangement(nbody.NBodySystem(4, 3, (1.0,) * 4, reduce_cm=True))


@pytest.mark.parametrize("table", ["planes3d_arr", "four_body"])
def test_snapped_ghosts_match_full_continuation(table, request, monkeypatch):
    """Where collapsed vertices are free along their intersection, the early
    certificate and the full continuation snap at different mu, so their
    representatives differ; both must still be certified minima."""
    import linbilliards.solver as solver_module
    arr = _four_body_table() if table == "four_body" else request.getfixturevalue(table)
    rng = np.random.default_rng(5)
    cases = [_random_case(arr, rng, 2, 6) for _ in range(40 if table == "planes3d_arr" else 12)]
    snaps = []
    real_snapped = solver_module._snapped

    def recording(problem, points, runs):
        snaps.append((runs, *real_snapped(problem, points, runs)))
        return snaps[-1][1:]

    monkeypatch.setattr(solver_module, "_snapped", recording)

    def solve(it, A, B):
        del snaps[:]
        result = minimize(arr, it, A, B)
        scale = float(np.linalg.norm(B - A))
        for i, q in zip(it, result.chain.points):
            assert arr.subspaces[i].distance_to(q) <= 1e-12 * max(1.0, scale)
        if result.classification is Classification.GHOST:
            # the returned chain is the last snap, its runs exactly coincident
            runs, value, points = snaps[-1]
            assert result.value == value
            assert runs
            for start, stop in runs:
                assert np.all(points[start:stop] == points[start])
            assert np.allclose(result.chain.points, points, rtol=0,
                               atol=1e-14 * max(1.0, scale))
        return result

    early = [solve(*case) for case in cases]
    monkeypatch.setattr(solver_module, "_certify_ghost", lambda *args: None)
    ghosts = 0
    for case, fast in zip(cases, early):
        full = solve(*case)
        assert full.classification is fast.classification
        assert abs(full.value - fast.value) <= 1e-11 * max(1.0, full.value)
        if fast.classification is Classification.GHOST:
            ghosts += 1
            assert fast.iterations <= full.iterations
    assert ghosts >= 5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_four_body_ghosts_collapse_exactly(seed):
    """Repeat-free itineraries on four bodies in 3-D end in a total collision:
    every vertex at the origin, length |A| + |B|, certified before the last
    smoothing stage."""
    arr = _four_body_table()
    rng = np.random.default_rng(seed)
    ghosts = 0
    for k in (8, 16):
        it, A, B = _random_case(arr, rng, k, k)
        result = minimize(arr, it, A, B)
        if result.classification is not Classification.GHOST:
            continue
        ghosts += 1
        total = np.linalg.norm(A) + np.linalg.norm(B)
        assert not result.chain.points.any()
        assert abs(result.value - total) <= 1e-14 * result.value
        assert result.iterations < 7
    assert ghosts > 0


def test_snapped_projects_runs_onto_their_intersection(planes3d_arr):
    from linbilliards.solver import _StackedProblem, _collapsing_runs, _snapped
    # short edges at A and B join no two vertices
    gaps = np.array([1e-5, 1e-5, 1e-5, 1.0, 1e-5, 1e-5])
    assert _collapsing_runs(gaps, 1e-4) == [(0, 3), (3, 5)]
    assert _collapsing_runs(gaps[:4], 1e-4) == [(0, 3)]
    assert _collapsing_runs(np.ones(4), 1e-4) == []
    assert _collapsing_runs(np.ones(2), 1e-4) == []
    it = Itinerary((0, 1, 2, 0))
    A, B = np.array([1.0, 2.0, 3.0]), np.array([-2.0, 1.0, 0.5])
    rng = np.random.default_rng(7)
    points = np.array([planes3d_arr.subspaces[i].project(rng.standard_normal(3))
                       for i in it])
    problem = _StackedProblem(planes3d_arr, it, A, B)
    value, snapped = _snapped(problem, points, [(0, 2), (2, 4)])
    # P1 and P2 meet in the x-axis; P3 and P1 in a line through the origin
    assert np.array_equal(snapped[0], snapped[1])
    assert np.array_equal(snapped[2], snapped[3])
    assert np.allclose(snapped[0], [points[:2, 0].mean(), 0.0, 0.0], atol=1e-15)
    for i, q in zip(it, snapped):
        assert planes3d_arr.subspaces[i].distance_to(q) <= 1e-15
    assert np.linalg.norm(snapped[2]) > 0
    assert value == action(A, snapped, B)
    # three planes with no common line meet only at the origin
    _, origin = _snapped(problem, points, [(0, 3)])
    assert not origin[:3].any()
    assert np.array_equal(origin[3], points[3])


@pytest.mark.parametrize("grad_norm, raises", [(1.0, True), (1e-7, False)])
def test_polish_floor_is_checked_against_the_value(grad_norm, raises, twolines_arr,
                                                   monkeypatch):
    """A polish that stops on the rounding floor is accepted only when |grad|
    is within sqrt(grad_tol) * max(1, value), as at max_iters."""
    import linbilliards.solver as solver_module
    from linbilliards.errors import MaxIterations
    real = solver_module._damped_newton

    def floored(x, derivatives, value_of, retract, tol, step_tol, max_iters):
        x, value, norm, reason = real(x, derivatives, value_of, retract, tol,
                                      step_tol, max_iters)
        if max_iters == SolverOptions().max_iters:  # the exact polish
            return x, value, grad_norm, "floor"
        return x, value, norm, reason

    monkeypatch.setattr(solver_module, "_damped_newton", floored)
    if raises:
        with pytest.raises(MaxIterations, match="floor"):
            minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    else:
        assert minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B).is_valid


# -- warm start from a solved neighbour ---------------------------------------

@pytest.mark.parametrize("fixture", ["twolines_arr", "lines3d_arr", "planes4d_arr"])
def test_warm_start_from_neighbour_matches_cold_solve(fixture, request):
    """The solved chain of anchors 1e-4 * scale away gives the cold solve's
    minimizer.  Where every edge is at least a tenth of the anchor distance it
    passes the warm gate and runs no continuation; nearer the collision locus
    the gate may send it through the continuation instead."""
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(60):
        it, A, B = _random_case(arr, rng, 1, 3)
        base = minimize(arr, it, A, B)
        if not base.is_valid:
            continue
        scale = float(np.linalg.norm(B - A))
        shift = rng.standard_normal((2, arr.dim))
        shift *= 1e-4 * scale / np.linalg.norm(shift, axis=1)[:, None]
        A2, B2 = A + shift[0], B + shift[1]
        warm = minimize(arr, it, A2, B2, SolverOptions(initial_chain=base.chain))
        cold = minimize(arr, it, A2, B2)
        assert warm.classification is Classification.VALID
        assert cold.classification is warm.classification
        assert np.abs(warm.chain.points - cold.chain.points).max() <= 1e-8 * scale
        assert abs(warm.value - cold.value) <= 1e-12 * cold.value
        pts = np.vstack([A, base.chain.points, B])
        if np.linalg.norm(np.diff(pts, axis=0), axis=1).min() >= 0.1 * scale:
            assert warm.iterations == 0
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize("itinerary", [(0, 1), (0, 1, 0)])
def test_multistart_random_starts_fail_the_warm_gate(itinerary, twolines_arr):
    report = multistart_minimize(twolines_arr, Itinerary(itinerary), TWOLINE_A,
                                 TWOLINE_B, n_starts=100)
    assert len(report.results) == 100
    assert all(r.iterations > 0 for r in report.results)


def test_failed_warm_gate_runs_the_continuation_unchanged(twolines_arr, monkeypatch):
    """A start outside Newton's basin gives bit for bit what the continuation
    alone gives from the same chain."""
    import linbilliards.solver as solver_module
    from linbilliards.solver import random_chain
    it = Itinerary((0, 1))
    rng = np.random.default_rng(8)
    starts = [random_chain(twolines_arr, it, 10.0, rng) for _ in range(10)]
    gated = [minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B,
                      SolverOptions(initial_chain=c)) for c in starts]
    monkeypatch.setattr(solver_module, "_warm_polish", lambda *args: None)
    for start, result in zip(starts, gated):
        reference = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B,
                             SolverOptions(initial_chain=start))
        assert result.iterations == reference.iterations > 0
        assert result.classification is reference.classification
        assert result.value == reference.value
        assert result.chain.points.tobytes() == reference.chain.points.tobytes()


# -- Cholesky step ------------------------------------------------------------

def _reference_solve_spd(H, g):
    """The jittered Cholesky step through scipy's cho_factor / cho_solve."""
    jitter = 0.0
    base = float(np.trace(H)) / max(H.shape[0], 1)
    for _ in range(5):
        try:
            c, low = scipy.linalg.cho_factor(H + jitter * np.eye(H.shape[0]))
            step = scipy.linalg.cho_solve((c, low), -g)
            if np.dot(g, step) < 0:
                return step
        except np.linalg.LinAlgError:
            pass
        jitter = max(jitter * 100.0, 1e-14 * max(base, 1.0))
    return None


def test_solve_spd_matches_cho_factor_bitwise():
    from linbilliards.solver import _solve_spd
    rng = np.random.default_rng(3)
    cases = [(np.zeros((0, 0)), np.zeros(0))]
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            M = rng.standard_normal((n, n))
            g = rng.standard_normal(n)
            spd = M @ M.T + 1e-3 * np.eye(n)
            # rounding-level asymmetry: only the upper triangle is read
            cases.append((spd + 1e-15 * rng.standard_normal((n, n)), g))
            cases.append((M + M.T, g))                        # indefinite
            cases.append((-(M @ M.T), g))                     # negative definite
            cases.append((np.outer(M[0], M[0]), g))           # singular
    jittered = 0
    for H, g in cases:
        expected = _reference_solve_spd(H, g)
        got = _solve_spd(H, g)
        if expected is None:
            assert got is None
            continue
        assert got.tobytes() == expected.tobytes()
        jittered += not np.all(np.linalg.eigvalsh(H) > 0)
    assert jittered > 0


def test_solve_spd_rejects_non_finite_input():
    from linbilliards.solver import _solve_spd
    H = np.eye(2)
    with pytest.raises(ValueError):
        _solve_spd(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        _solve_spd(H, np.array([np.inf, 0.0]))


def _classify_by_model(arr, itinerary, A, chain, B, opts):
    """(classification, message, grad_norm, min eigenvalue) of a chain as
    built from the Hessian model, is_generic and the generalized symmetric
    eigenproblem H x = λ G x."""
    scale = float(np.linalg.norm(B - A))
    pts = np.vstack([A, chain.points, B])
    if np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1)
              <= opts.coincidence_tol * max(scale, 1e-30)):
        return (Classification.GHOST,
                "consecutive vertices collapse; minimizer leaves the trajectory space",
                math.nan, None)
    model = hessian(arr, itinerary, A, chain, B, coincidence_tol=opts.coincidence_tol)
    grad_norm = float(np.linalg.norm(model.gradient))
    units = model.unit_edges
    inside = np.minimum(np.linalg.norm(units[:-1] - model.a_in, axis=1),
                        np.linalg.norm(units[1:] - model.a_out, axis=1)) <= opts.edge_tol
    if inside.any():
        j = int(np.argmax(inside))
        return (Classification.EDGE_IN_SUBSPACE,
                f"an edge at vertex {j + 1} lies inside {arr.subspaces[itinerary[j]].name}",
                grad_norm, None)
    if not is_generic(arr, A, chain.points, B, itinerary,
                      tol=MEMBERSHIP_TOL * max(1.0, scale)):
        return (Classification.NON_GENERIC_RAY,
                "configuration violates genericity (adjacent membership or ray recrossing)",
                grad_norm, None)
    try:
        eig = (float(scipy.linalg.eigh(model.matrix, model.gram(), eigvals_only=True)[0])
               if model.matrix.size else math.inf)
    except NonSmoothPoint:
        eig = None
    return Classification.VALID, "", grad_norm, eig


def _classify_cases(arr, rng):
    """Random (itinerary, A, chain coordinates, B, forced class or None):
    free random chains, and chains forced into a valid billiard (anchors
    nearly radially out from q_1 and q_k), a ghost (two vertices at the
    origin), an edge inside its subspace (a vertex of L_j joined to the
    origin) and a non-generic ray (A halfway from q_1 to a point of another
    subspace, which the ray from q_1 through A then meets beyond A)."""
    n, m = len(arr.subspaces), arr.bases.shape[1]
    for _ in range(12):
        k = 1 if n == 1 else int(rng.integers(1, 5))
        labels = [int(rng.integers(n))]
        while len(labels) < k:
            labels.append(int((labels[-1] + rng.integers(1, n)) % n))
        itinerary = Itinerary(tuple(labels))
        A, B = rng.normal(size=arr.dim) * 2.0, rng.normal(size=arr.dim) * 2.0
        coords = rng.normal(size=(k, m))
        yield itinerary, A, coords, B, None
        if m > 0:
            # boundary rays leaving nearly radially: each subspace's distance
            # grows along them, so they meet no tube beyond their start
            q1, qk = Chain.from_coords(arr, itinerary, coords).points[[0, -1]]
            yield (itinerary, 2.0 * q1 + 0.1 * np.linalg.norm(q1) * rng.normal(size=arr.dim),
                   coords, 2.0 * qk + 0.1 * np.linalg.norm(qk) * rng.normal(size=arr.dim),
                   Classification.VALID)
        if n > 1:
            q1 = arr.bases[labels[0]].T @ coords[0]
            beyond = arr.bases[(labels[0] + 1) % n].T @ rng.normal(size=m)
            yield itinerary, 0.5 * (q1 + beyond), coords, B, Classification.NON_GENERIC_RAY
        if k >= 2:
            j = int(rng.integers(k - 1))
            ghost = coords.copy()
            ghost[j:j + 2] = 0.0
            yield itinerary, A, ghost, B, Classification.GHOST
            edge = coords.copy()
            edge[j + 1] = 0.0
            yield itinerary, A, edge, B, Classification.EDGE_IN_SUBSPACE


@pytest.mark.parametrize("fixture", ["mirror_arr", "origin_arr", "twolines_arr", "lines3d_arr",
                                     "planes4d_arr", "planes3d_arr", "fourbody_arr"])
def test_classify_matches_hessian_model_and_is_generic(fixture, request):
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(zlib.crc32(fixture.encode()))
    opts = SolverOptions()
    seen = set()
    for itinerary, A, coords, B, forced in _classify_cases(arr, rng):
        chain = Chain.from_coords(arr, itinerary, coords)
        cls, msg, grad_norm, eig = _classify_by_model(arr, itinerary, A, chain, B, opts)
        result = solver._classify(arr, itinerary, A, chain, B, opts, 1.0, 0)
        assert (result.classification, result.message) == (cls, msg)
        assert forced in (None, cls)
        seen.add(cls)
        if math.isnan(grad_norm):
            assert math.isnan(result.grad_norm)
        else:
            assert result.grad_norm == pytest.approx(grad_norm, rel=1e-12, abs=0.0)
        if eig is None or math.isinf(eig):
            assert result.hessian_min_eig == eig
        else:
            assert result.hessian_min_eig == pytest.approx(eig, rel=1e-12, abs=0.0)
    # with one subspace the itinerary has length 1 and a boundary ray leaves
    # the subspace at its start for good
    assert seen == (set(Classification) if len(arr.subspaces) > 1
                    else {Classification.VALID})
