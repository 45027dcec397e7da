import collections
import math
import pickle
import sys
import types
import zlib

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from linbilliards import solver
from linbilliards.action import (COINCIDENCE_TOL, Chain, HessianModel, _edge_lengths,
                                 _point_list, _to_points, action, gradient, hessian)
from linbilliards.arrangement import MEMBERSHIP_TOL, Arrangement, Itinerary, Subspace
from linbilliards.errors import InputError, NonSmoothPoint, PreconditionError
from linbilliards.solver import Classification, minimize
from linbilliards.trajectory import BilliardTrajectory, is_generic, max_reflection_residual

from conftest import (TWOLINE_A, TWOLINE_B, assert_lower_bound, barrier_step_reference,
                      chain_is_generic_reference, envelope_gradients, grad_tol, random_chain,
                      random_start_solves)


def brute_force_minimum(arr, itinerary, A, B, radius, n_grid=21):
    """Derivative-free oracle: dense grid over the chain coordinates followed
    by Nelder-Mead refinement of the best cell (no analytic gradients).
    Returns the minimizing chain's points and the minimum."""
    shape = arr.bases_of(itinerary).shape[:2]

    def points(x):
        return Chain.from_coords(arr, itinerary, x.reshape(shape)).points

    def value(x):
        return action(A, points(x), B)

    grids = np.meshgrid(*[np.linspace(-radius, radius, n_grid)] * (shape[0] * shape[1]))
    stacked = np.stack([g.ravel() for g in grids], axis=1)
    best = min(stacked, key=value)
    res = scipy.optimize.minimize(value, best, method="Nelder-Mead",
                                  options={"xatol": 1e-10, "fatol": 1e-14,
                                           "maxiter": 20000})
    return points(res.x), res.fun


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("A", [[np.nan, 1.0], [np.inf, 1.0], [1e308, 1.0]],
                         ids=["nan", "inf", "overflow"])
def test_non_finite_or_overflowing_anchor_is_an_input_error(twolines_arr, A):
    """An anchor that is not finite, or so far out that squared edge lengths
    overflow, is refused up front, with no arithmetic warning on the way."""
    for anchors in ((A, TWOLINE_B), (TWOLINE_A, A)):
        with pytest.raises(InputError, match="anchors must be finite"):
            minimize(twolines_arr, Itinerary((0, 1)), *anchors)


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
    chain, fun = brute_force_minimum(arr, Itinerary((0, 1)), A, B, radius=2.0)
    assert fun == pytest.approx(result.value, abs=1e-7)
    assert np.linalg.norm(chain[0] - chain[1]) < 1e-4


def test_edge_in_subspace_classification(monkeypatch):
    # anchors nearly on the z-axis make the solved edges nearly parallel to
    # it; with the edge tolerance above that parallelism the guard fires
    # (anchors must stay off the locus, so the tolerance is widened here)
    arr = Arrangement(3, (Subspace.from_spanning("Lz", [[0.0, 0.0, 1.0]], 3),))
    A = np.array([1e-4, 0.0, -2.0])
    B = np.array([0.0, 1e-4, 2.0])
    with monkeypatch.context() as m:
        m.setattr(solver, "EDGE_TOL", 1e-3)
        result = minimize(arr, Itinerary((0,)), A, B)
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
    results, chain_spread, value_spread = random_start_solves(
        twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B, n_starts=100, seed=2)
    assert chain_spread < 1e-7
    assert value_spread < 1e-9
    assert all(r.classification is Classification.VALID for r in results)
    for r in results:
        assert_lower_bound(r)


def test_multistart_pinned_chain(origin_arr):
    results, chain_spread, value_spread = random_start_solves(
        origin_arr, Itinerary((0,)), np.array([3.0, 0.0]), np.array([0.0, 4.0]),
        n_starts=10, seed=0)
    assert chain_spread == 0.0
    assert value_spread == 0.0
    # the chain is the origin: the bound is the length |A| + |B| itself
    assert all(r.lower_bound == r.value == 7.0 for r in results)


def test_brute_force_agreement_mirror(mirror_arr):
    A, B = np.array([0.0, 1.0]), np.array([2.0, 1.0])
    chain, fun = brute_force_minimum(mirror_arr, Itinerary((0,)), A, B, radius=4.0)
    result = minimize(mirror_arr, Itinerary((0,)), A, B)
    assert fun == pytest.approx(result.value, abs=1e-8)
    assert np.allclose(chain, result.chain.points, atol=1e-6)


def test_brute_force_agreement_twolines(twolines_arr):
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    radius = 2.0 * float(np.linalg.norm(TWOLINE_A - TWOLINE_B))
    chain, fun = brute_force_minimum(twolines_arr, Itinerary((0, 1)),
                                     TWOLINE_A, TWOLINE_B, radius=radius)
    assert fun == pytest.approx(result.value, abs=1e-8)
    assert np.allclose(chain, result.chain.points, atol=1e-6)


def test_envelope_gradients_mirror(mirror_arr):
    result = minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 1.0])
    vA, vB = envelope_gradients(result)
    s = 1 / math.sqrt(2)
    assert np.allclose(vA, [s, -s], atol=1e-10)
    assert np.allclose(vB, [s, s], atol=1e-10)


def test_envelope_gradients_total_collision(origin_arr):
    A, B = np.array([3.0, 0.0]), np.array([0.0, 4.0])
    result = minimize(origin_arr, Itinerary((0,)), A, B)
    vA, vB = envelope_gradients(result)
    assert np.allclose(vA, -A / np.linalg.norm(A), atol=1e-14)
    assert np.allclose(vB, B / np.linalg.norm(B), atol=1e-14)


def test_envelope_matches_value_function_differences(twolines_arr):
    it = Itinerary((0, 1))
    A, B = TWOLINE_A, TWOLINE_B
    result = minimize(twolines_arr, it, A, B)
    vA, vB = envelope_gradients(result)
    h = 1e-6
    gradA = np.zeros(2)
    gradB = np.zeros(2)
    with grad_tol(1e-13):
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            gradA[i] = (minimize(twolines_arr, it, A + e, B).value
                        - minimize(twolines_arr, it, A - e, B).value) / (2 * h)
            gradB[i] = (minimize(twolines_arr, it, A, B + e).value
                        - minimize(twolines_arr, it, A, B - e).value) / (2 * h)
    assert np.linalg.norm(gradA + vA) < 1e-6
    assert np.linalg.norm(gradB - vB) < 1e-6


def test_initial_chain_override(twolines_arr):
    rng = np.random.default_rng(4)
    start = random_chain(twolines_arr, Itinerary((0, 1)), 20.0, rng)
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B, initial_chain=start)
    reference = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    assert np.allclose(result.chain.points, reference.chain.points, atol=1e-8)


@pytest.mark.parametrize("itinerary, coords", [
    ((0, 1, 0), [[1.0], [1.0]]),         # two vertices for three entries
    ((0, 1), [[np.nan], [1.0]]),
    ((0, 1), [[1e308], [-1e308]]),       # squared edge lengths overflow
], ids=["wrong_length", "nan", "overflow"])
def test_bad_initial_chain_is_an_input_error(itinerary, coords, twolines_arr):
    """A start chain that does not fit the itinerary, is not finite or is so
    far out that its edge lengths overflow is refused up front, and a
    scatter row turns the refusal into an absent cell."""
    from linbilliards.scattering import _solve_row
    start = Chain.from_coords(twolines_arr, Itinerary((0, 1)), coords)
    with pytest.raises(InputError, match="initial chain"):
        minimize(twolines_arr, Itinerary(itinerary), TWOLINE_A, TWOLINE_B, initial_chain=start)
    assert _solve_row((twolines_arr, Itinerary(itinerary), TWOLINE_A, [TWOLINE_B],
                       start)) == [None]


# -- ghost certificate by weak duality ----------------------------------------

FIXTURES = ["mirror_arr", "origin_arr", "twolines_arr", "lines3d_arr", "planes4d_arr"]


def _certifies(problem, points, runs, start):
    """solver._multipliers_certify of the chain points under the run plan
    of runs, from the edges of its own point list."""
    plan = problem.plan.run_plans(tuple(runs))
    edges, lengths = _edge_lengths(_point_list(problem.A, points, problem.B))
    return solver._multipliers_certify(problem, plan, edges, lengths, start)


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
def test_certified_chains_are_never_longer_than_other_chains(fixture, request,
                                                             monkeypatch):
    """Soundness of the multiplier certificate: every chain it accepts, at
    any stage, is no longer than the chain of the full continuation or 20
    random chains, up to rounding."""
    import linbilliards.solver as solver_module
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    certified = []
    real = solver_module._certify_ghost

    def recording(*args):
        found = real(*args)
        if found is not None:
            certified.append(found[0])
        return found

    monkeypatch.setattr(solver_module, "_certify_ghost", recording)
    checked = 0
    for _ in range(16):
        it, A, B = _random_case(arr, rng, 2, 6)
        del certified[:]
        minimize(arr, it, A, B)
        with monkeypatch.context() as m:
            m.setattr(solver_module, "_certify_ghost", lambda *args: None)
            full = minimize(arr, it, A, B)
        scale = float(np.linalg.norm(B - A))
        chains = [action(A, random_chain(arr, it, 3.0 * scale, rng).points, B)
                  for _ in range(20)]
        shortest = min([full.value] + chains)
        for value in certified:
            assert value <= shortest + 1e-13 * max(1.0, shortest)
            checked += 1
    if len(arr.subspaces) > 1:
        assert checked >= 5


@pytest.mark.parametrize("fixture", FIXTURES)
def test_certified_ghosts_match_full_continuation(fixture, request, monkeypatch):
    """A ghost certified early is, bit for bit, the ghost that the
    certificate gives when it is allowed only after the last stage.  There
    some ghosts keep gaps of 12-22 mu, outside CERT_WINDOW * mu, so the
    reference widens the window to 1e-4 * scale at the last stage.  minimize
    makes the window test, so the widened CERT_WINDOW holds for the whole
    reference solve: every earlier stage is a ghost candidate, whose
    certificate is refused, and so none tries the exact polish."""
    import linbilliards.solver as solver_module
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    cases = [_random_case(arr, rng, 2, 6) for _ in range(40)]
    early = [minimize(arr, it, A, B) for it, A, B in cases]
    real_stages, real_certify = solver_module._stages, solver_module._certify_ghost
    last = []  # the last stage's mu^2

    def stages(scale):
        found = real_stages(scale)
        last[:] = [found[-1][0] * found[-1][0]]
        monkeypatch.setattr(solver_module, "CERT_WINDOW", 1e-4 * scale / math.sqrt(last[0]))
        return found

    def after_the_last_stage(problem, x, mu2, floor):
        return real_certify(problem, x, mu2, floor) if mu2 == last[0] else None

    monkeypatch.setattr(solver_module, "_stages", stages)
    monkeypatch.setattr(solver_module, "_certify_ghost", after_the_last_stage)
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


def _counting_spd_solves(monkeypatch):
    """Counter of solver._spd_solve calls made while _lowest_multipliers
    runs, one entry per search: ("found" | "none" | "projected", solves,
    kernel dimension, from scipy).  A point found without a solve is the
    projection of the start: the search's own points all follow a Newton
    step."""
    searches, inside = [], []
    real_spd, real_search = solver._spd_solve, solver._lowest_multipliers

    def spd(M, b):
        if inside:
            inside[-1] += 1
        return real_spd(M, b)

    def search(plan, fixed, start, bound):
        inside.append(0)
        try:
            got = real_search(plan, fixed, start, bound)
        finally:
            solves = inside.pop()
        outcome = "none" if got is None else "found" if solves else "projected"
        searches.append((outcome, solves, _kernel(plan).shape[2]))
        return got

    monkeypatch.setattr(solver, "_spd_solve", spd)
    monkeypatch.setattr(solver, "_lowest_multipliers", search)
    return searches


def test_valid_solve_certificate_ends_at_the_farkas_test(twolines_arr, monkeypatch):
    """The opening stage of the two-line valid solve tries the certificate
    once.  Its multiplier search ends before any Newton step, and the result
    is bit for bit that of a solve without the certificate."""
    it = Itinerary((0, 1))
    with monkeypatch.context() as m:
        m.setattr(solver, "_certify_ghost", lambda *args: None)
        reference = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    searches = _counting_spd_solves(monkeypatch)
    result = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    assert result.is_valid
    assert _result_bytes(result) == _result_bytes(reference)
    assert [(outcome, solves) for outcome, solves, _ in searches] == [("none", 0)]


def _four_body_table():
    from linbilliards import nbody
    return nbody.build_arrangement(nbody.NBodySystem(4, 3, (1.0,) * 4, reduce_cm=True))


@pytest.mark.parametrize("table", ["planes3d_arr", "four_body"])
def test_snapped_ghosts_match_full_continuation(table, request, monkeypatch):
    """Where collapsed vertices are free along their intersection, the early
    certificate and the full continuation snap at different mu, so their
    representatives may differ; both must be certified minima."""
    import linbilliards.solver as solver_module
    from linbilliards.solver import _StackedProblem, _collapsing_runs
    arr = _four_body_table() if table == "four_body" else request.getfixturevalue(table)
    rng = np.random.default_rng(5)
    cases = [_random_case(arr, rng, 2, 6) for _ in range(40 if table == "planes3d_arr" else 12)]

    def solve(it, A, B):
        result = minimize(arr, it, A, B)
        scale = float(np.linalg.norm(B - A))
        for i, q in zip(it, result.chain.points):
            assert arr.subspaces[i].distance_to(q) <= 1e-12 * max(1.0, scale)
        if result.classification is Classification.GHOST:
            # edge multipliers prove the returned chain the global minimum,
            # from a start that knows nothing of the solve
            gaps = np.linalg.norm(np.diff(np.vstack([A, result.chain.points, B]),
                                          axis=0), axis=1)
            runs = _collapsing_runs(gaps, 1e-12 * max(1.0, scale))
            assert runs
            assert _certifies(_StackedProblem(solver._plan_of(arr.bases_of(it)), A, B),
                              result.chain.points, runs, np.zeros((len(it) + 1, arr.dim)))
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


def test_certificate_needs_both_stationarity_and_unit_multipliers(planes3d_arr,
                                                                   twolines_arr):
    """A ghost of planes3d collapsed onto an intersection line is certified;
    slid along that line it still admits multipliers inside the unit balls
    but breaks stationarity.  Collapsing a valid two-line solve onto the
    origin meets stationarity only with a multiplier of norm above one."""
    from linbilliards.arrangement import intersection_basis
    from linbilliards.solver import _StackedProblem, _collapsing_runs
    rng = np.random.default_rng(5)
    for _ in range(40):
        it, A, B = _random_case(planes3d_arr, rng, 2, 4)
        result = minimize(planes3d_arr, it, A, B)
        if result.classification is not Classification.GHOST:
            continue
        pts = result.chain.points
        scale = float(np.linalg.norm(B - A))
        runs = _collapsing_runs(np.linalg.norm(np.diff(np.vstack([A, pts, B]), axis=0),
                                               axis=1), 1e-12 * max(1.0, scale))
        start, stop = runs[0]
        meet = intersection_basis(planes3d_arr.bases_of(it)[start:stop])
        if len(meet) == 1:
            break
    else:
        pytest.fail("no ghost collapsed onto a line")
    problem = _StackedProblem(solver._plan_of(planes3d_arr.bases_of(it)), A, B)
    unknown = np.zeros((len(it) + 1, 3))
    assert _certifies(problem, pts, runs, unknown)
    slid = pts.copy()
    slid[start:stop] += 1e-6 * scale * meet[0]
    assert not _certifies(problem, slid, runs, unknown)

    it = Itinerary((0, 1))
    assert minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B).is_valid
    problem = _StackedProblem(solver._plan_of(twolines_arr.bases_of(it)), TWOLINE_A,
                              TWOLINE_B)
    assert not _certifies(problem, np.zeros((2, 2)), [(0, 2)], np.zeros((3, 2)))


def _projected_start(p, start, kernel):
    """The start moved onto the affine set p + span(kernel): p + K K^T start."""
    K = kernel.reshape(p.size, -1)
    return p + (K @ (K.T @ start.reshape(-1))).reshape(p.shape)


def _reference_lowest_multipliers(p, start, kernel, bound):
    """The collapsed-multiplier search as a barrier method, as it was before
    the infeasible-start Newton search: min s subject to |w_e|^2 <= s over
    the affine set w + ker (Boyd & Vandenberghe, sec. 11.3), w the start
    projected onto it.  Each centering minimizes tau s - sum_e log(s -
    |w_e|^2) by the damped-Newton core in (z, s), z the coordinates along
    the kernel, and tau grows tenfold between centerings; a centred point
    is within C / tau of the optimum, so s - C / tau >= bound shows that
    the optimum misses the bound."""
    C = len(p)
    w = _projected_start(p, start, kernel)
    if (w * w).sum(axis=1).max() < bound:
        return w
    d = kernel.shape[2]

    def point(x):
        v = w + kernel @ x[:d]
        return v, x[d], x[d] - (v * v).sum(axis=1)

    def merit(x, tau):
        _, s, slack = point(x)
        return tau * s - np.log(slack).sum()

    def derivatives(x, tau):
        v, s, slack = point(x)
        inv = 1.0 / slack
        J = 2.0 * np.einsum("edk,ed->ek", kernel, v)
        H = np.empty((d + 1, d + 1))
        H[:d, :d] = 2.0 * np.einsum("edk,edl,e->kl", kernel, kernel, inv) \
            + (J.T * inv * inv) @ J
        H[:d, d] = H[d, :d] = -(J.T * inv * inv).sum(axis=1)
        H[d, d] = inv @ inv
        return merit(x, tau), np.append(J.T @ inv, tau - inv.sum()), H

    def retract(x, step, t):
        x = x + t * step
        return x if point(x)[2].min() > 0.0 else None

    x = np.append(np.zeros(d), (w * w).sum(axis=1).max() + 1.0)
    tau = float(C)
    for _ in range(12):
        x, *_ = solver._damped_newton(x, lambda y: derivatives(y, tau),
                                      lambda y: merit(y, tau), retract, 1e-8, 0.0,
                                      max_iters=40)
        v, s, _ = point(x)
        if (v * v).sum(axis=1).max() < bound:
            return v
        if s - C / tau >= bound:
            return None
        tau *= 10.0
    return None


def _kernel(plan):
    """An orthonormal basis (C, dim, d) of the null space of the plan's
    vertex equations, from scipy: the directions of the affine set that the
    collapsed multipliers search."""
    return scipy.linalg.null_space(_vertex_matrix(plan)).reshape(
        int(plan.shut.sum()), plan.bases.shape[2], -1)


def _least_norm(plan, fixed):
    """The least-norm least-squares solution (C, dim) of M v = -fixed, M the
    plan's vertex equations, from scipy's pseudo-inverse."""
    return -(scipy.linalg.pinv(_vertex_matrix(plan)) @ fixed).reshape(
        -1, plan.bases.shape[2])


def _vertex_matrix(plan):
    """The coefficients M (k m, C dim) of the collapsed edges' multipliers in
    the vertex equations B_i (u_{i-1} - u_i) = 0 of a run plan, built column
    by column from a unit multiplier on one collapsed edge."""
    k, _, dim = plan.bases.shape
    columns = []
    for e in np.flatnonzero(plan.shut):
        for a in range(dim):
            u = np.zeros((k + 1, dim))
            u[e, a] = 1.0
            columns.append(solver._to_coords(plan.bases, u[:-1] - u[1:]).reshape(-1))
    return np.array(columns).T


def _vertex_residual(plan, v, w):
    """Largest per-vertex norm of M (v - w), M the plan's vertex equations of
    the collapsed edges: the residual of v where w meets them."""
    return float(np.linalg.norm((_vertex_matrix(plan) @ (v - w).reshape(-1))
                                .reshape(len(plan.bases), -1), axis=1).max())


def test_multiplier_search_agrees_with_the_barrier(twolines_arr, monkeypatch):
    """Over the seed-0 unfiltered search and nbody rounds 0-3, the
    infeasible-start Newton search returns a point exactly when the barrier
    method does, and every point it returns meets the vertex equations to
    CERT_RESIDUAL with every norm below the bound.  The Farkas exit ends some
    of the failing searches before any Newton step."""
    searches = _counting_spd_solves(monkeypatch)
    real = solver._lowest_multipliers

    def compared(plan, fixed, start, bound):
        got = real(plan, fixed, start, bound)
        p, kernel = _least_norm(plan, fixed), _kernel(plan)
        expected = _reference_lowest_multipliers(p, start, kernel, bound)
        assert (got is None) == (expected is None)
        if got is not None:
            assert bound == (1.0 + solver.CERT_RESIDUAL) ** 2
            assert (got * got).sum(axis=1).max() < bound
            assert _vertex_residual(plan, got, _projected_start(p, start, kernel)) \
                <= solver.CERT_RESIDUAL
        return got

    monkeypatch.setattr(solver, "_lowest_multipliers", compared)
    _search_and_nbody_solves(twolines_arr, monkeypatch)
    searched = [outcome == "found" for outcome, _, _ in searches if outcome != "projected"]
    # the projection alone fails in a share of the calls (71 of 445), and the
    # search then both finds points and proves that none exists
    assert len(searched) > 50
    assert sum(searched) > 0 and not all(searched)
    # the Farkas exit: a failure without a Newton step where the kernel is
    # not empty
    assert any(outcome == "none" and solves == 0 and d > 0 for outcome, solves, d in searches)


def test_multiplier_search_fails_where_the_affine_set_misses_the_balls(twolines_arr,
                                                                          monkeypatch):
    """Collapsing the bounce L1, L2, L1 between far anchors onto the origin
    needs collapsed multipliers whose components along L2 differ by about
    1.15, while both must stay below 1 and match the anchors' unit
    directions (norm 0.995) along L1: the affine set of the vertex
    equations misses the balls, and the search returns None where the
    barrier proves the same.  The least-norm point of that line proves it
    too (the Farkas exit), so the search takes no Newton step."""
    from linbilliards.solver import _StackedProblem
    it = Itinerary((0, 1, 0))
    A, B = np.array([10.0, 1.0]), np.array([10.0, -1.0])
    problem = _StackedProblem(solver._plan_of(twolines_arr.bases_of(it)), A, B)
    plan = problem.plan.run_plans(((0, 3),))
    pinv = plan.equations[2]
    kernel = _kernel(plan)
    u = np.zeros((4, 2))
    u[0], u[-1] = -A / np.linalg.norm(A), B / np.linalg.norm(B)
    fixed = solver._to_coords(problem.bases, u[:-1] - u[1:]).reshape(-1)
    p = -(pinv @ fixed).reshape(-1, 2)
    # p meets the vertex equations, and the affine set is a line
    assert np.abs(_vertex_matrix(plan) @ p.reshape(-1) + fixed).max() <= solver.CERT_RESIDUAL
    assert kernel.shape[2] == 1
    bound = (1.0 + solver.CERT_RESIDUAL) ** 2
    assert (p * p).sum(axis=1).max() >= bound
    start = np.array([[-0.9, 0.0], [0.9, 0.0]])
    # the Farkas exit ends the search before any Newton step
    searches = _counting_spd_solves(monkeypatch)
    assert solver._lowest_multipliers(plan, fixed, start, bound) is None
    assert searches == [("none", 0, 1)]
    assert _reference_lowest_multipliers(p, start, kernel, bound) is None
    assert _certifies(problem, np.zeros((3, 2)), [(0, 3)], np.zeros((4, 2))) is None


def test_multiplier_search_scales_a_start_outside_the_balls(twolines_arr):
    """A start row with |v|^2 above INSIDE * bound is scaled to it, and the
    search still finds a point of the affine set inside every ball: here
    the line through v0 (norms 0.22 and 0.32) along the plan's kernel, whose
    least-norm point is p, from starts whose projections onto the line
    miss the balls, one of them with rows just inside their balls (norm
    1 - 1e-7, as a smoothed direction on a merged open edge can be)."""
    it = Itinerary((0, 1, 0))
    problem = solver._StackedProblem(solver._plan_of(twolines_arr.bases_of(it)),
                                     np.array([10.0, 1.0]), np.array([10.0, -1.0]))
    plan = problem.plan.run_plans(((0, 3),))
    kernel = _kernel(plan)
    v0 = np.array([[0.1, 0.2], [-0.1, 0.3]])
    fixed = -_vertex_matrix(plan) @ v0.reshape(-1)
    p = v0 - _projected_start(np.zeros_like(v0), v0, kernel)
    bound = (1.0 + solver.CERT_RESIDUAL) ** 2
    for start in (np.array([[3.0, 0.0], [0.0, -5.0]]), np.array([[0.0, 1.0], [0.0, 1.0]]),
                  np.array([[0.0, 1.0 - 1e-7], [0.0, 1.0 - 1e-7]])):
        w = _projected_start(p, start, kernel)
        assert (w * w).sum(axis=1).max() >= bound
        got = solver._lowest_multipliers(plan, fixed, start, bound)
        assert got is not None
        assert (got * got).sum(axis=1).max() < bound
        assert _vertex_residual(plan, got, w) <= solver.CERT_RESIDUAL


def test_pinned_run_sets_skip_the_reduced_problem(twolines_arr, monkeypatch):
    """When every kept vertex is pinned (each run meets only at the origin
    and no vertex is free), the certificate tests the snapped chain's
    reduced edges and builds no reduced problem: the total collapse of
    L1, L2, L1, L2 certifies that way, at the length of the chain of origins
    and with its lower bound.  In a cold solve _exact_polish runs after a
    stage without a ghost candidate and in the reduced polish of a run set
    that is not pinned; this solve certifies at a candidate stage, so it
    never runs."""
    it, A, B = Itinerary((0, 1, 0, 1)), np.array([1.0, 0.2]), np.array([1.0, -0.3])
    polished = []
    real = solver._exact_polish
    monkeypatch.setattr(solver, "_exact_polish",
                        lambda *args: polished.append(args) or real(*args))
    fast = minimize(twolines_arr, it, A, B)
    assert fast.classification is Classification.GHOST and not fast.chain.points.any()
    assert not polished
    plan = solver._plan_of(twolines_arr.bases_of(it)).run_plans(((0, 4),))
    assert plan.pinned
    assert fast.value == action(A, np.zeros((4, 2)), B)
    assert_lower_bound(fast)


def test_spring_chain_collapse_ends_at_the_projection(twolines_arr, monkeypatch):
    """The total collapse of L1, L2, L1, L2 from A = (-3, -3) to B = (-2, -2)
    is certified at the spring chain by the projection of the search's
    start, with no Newton step of the barrier (the start smoothed at mu
    itself took one), at the length |A| + |B| = 5 sqrt(2) of the chain of
    origins and with its lower bound."""
    it, A, B = Itinerary((0, 1, 0, 1)), np.array([-3.0, -3.0]), np.array([-2.0, -2.0])
    searches = _counting_spd_solves(monkeypatch)
    result = minimize(twolines_arr, it, A, B)
    assert [(outcome, solves) for outcome, solves, _ in searches] == [("projected", 0)]
    assert result.classification is Classification.GHOST and result.iterations == 0
    assert not result.chain.points.any()
    assert result.value == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-15)
    assert abs(result.value - result.lower_bound) <= 1e-12 * result.value
    assert_lower_bound(result)


def test_multiplier_searches_mostly_end_at_the_projection(twolines_arr, monkeypatch):
    """Work budget of the certificate's start, the stage's directions
    smoothed at mu / CERT_WINDOW: over the seed-0 search and nbody rounds
    0-3, at most 80 of the 445 multiplier searches take a Newton step (67
    measured; 132 from the directions smoothed at mu itself)."""
    searches = _counting_spd_solves(monkeypatch)
    _search_and_nbody_solves(twolines_arr, monkeypatch)
    assert len(searches) > 400
    assert sum(solves > 0 for _, solves, _ in searches) <= 80


def test_barrier_steps_match_the_einsum_form(twolines_arr, monkeypatch):
    """Every barrier step of the seed-0 search and nbody rounds 0-3 (M v per
    edge by np.vecdot, M D^-1 applied to lam as one matrix product) forms
    M D^-1 as the einsum form, barrier_step_reference, does, to 1e-13
    relative.  Where the KKT matrix M D^-1 M^T + null has a condition
    number below 1e4 (most steps) both find it definite and give the same
    step to 1e-13 relative; a nearly singular one (condition numbers reach
    1e17 here) amplifies the rounding of either form into its step alike."""
    steps, conditioned = [], []
    real = solver._barrier_step

    def compared(equations, p, v, bound):
        got = real(equations, p, v, bound)
        step, MD = barrier_step_reference(equations, p, v, bound)
        M, null, _ = equations
        if got is not None:
            assert got[1].shape == MD.shape
            assert np.abs(got[1] - MD).max() <= 1e-13 * np.abs(MD).max()
        if np.linalg.cond(MD @ M.T + null) < 1e4:
            assert (got is None) == (step is None)
            if step is not None:
                assert np.abs(got[0] - step).max() <= 1e-13 * np.abs(step).max()
            conditioned.append(step)
        steps.append(got)
        return got

    monkeypatch.setattr(solver, "_barrier_step", compared)
    _search_and_nbody_solves(twolines_arr, monkeypatch)
    assert len(conditioned) > 200 and len(steps) > len(conditioned)


def _pinned_snap_matches(reduced_minimum, problem, plan, pts):
    """Whether the pinned run plan's snap of the point list pts in
    reduced_minimum, solver._reduced_minimum (every vertex set to the
    origin), gives, byte for byte, the points of _snapped and the edges and
    lengths of its point list."""
    assert plan.pinned
    points, edges, lengths = reduced_minimum(problem, plan, pts, -math.inf, 0.0)
    snapped = solver._snapped(pts, plan.runs, plan.meets)
    snapped_edges, snapped_lengths = _edge_lengths(snapped)
    return (points.tobytes() == snapped[1:-1].tobytes()
            and edges.tobytes() == snapped_edges.tobytes()
            and lengths.tobytes() == snapped_lengths.tobytes())


def test_pinned_snap_matches_snapped(twolines_arr, planes3d_arr, monkeypatch):
    """A pinned run set is snapped by one assignment of the origin to every
    vertex: on every pinned run plan of the seed-0 search and nbody rounds
    0-3, and on a four-body total collapse, that is byte for byte the snap
    of _snapped.  An unpinned run set, the ghost of P1, P2 on planes3d
    whose run meets in a line, still goes through _snapped."""
    pinned = []
    real = solver._reduced_minimum

    def compared(problem, plan, pts, floor, mu2):
        if plan.pinned:
            assert _pinned_snap_matches(real, problem, plan, pts)
            pinned.append(plan)
        return real(problem, plan, pts, floor, mu2)

    with monkeypatch.context() as m:
        m.setattr(solver, "_reduced_minimum", compared)
        _search_and_nbody_solves(twolines_arr, monkeypatch)
    assert len(pinned) > 100

    arr = _four_body_table()
    rng = np.random.default_rng(3)
    it, A, B = _random_case(arr, rng, 8, 8)
    problem = solver._StackedProblem(solver._plan_of(arr.bases_of(it)), A, B)
    plan = problem.plan.run_plans(((0, 8),))
    pts = problem._point_list(rng.standard_normal(problem.k * problem.m))
    assert _pinned_snap_matches(real, problem, plan, pts.copy())

    snaps = []
    real_snapped = solver._snapped
    monkeypatch.setattr(solver, "_snapped", lambda *args: snaps.append(args) or real_snapped(*args))
    result = minimize(planes3d_arr, Itinerary((0, 1)), np.array([-2.0, -2.0, -2.0]),
                      np.array([-2.0, -1.0, 2.0]))
    assert result.classification is Classification.GHOST
    assert snaps and all(len(meet) == 1 for _, _, meets in snaps for meet in meets)


def _repeat_free(rng, n_labels, k):
    """The repeat-free itinerary draw of the nbody benchmark rounds."""
    seq = [int(rng.integers(n_labels))]
    while len(seq) < k:
        nxt = int(rng.integers(n_labels - 1))
        seq.append(nxt if nxt < seq[-1] else nxt + 1)
    return tuple(seq)


@pytest.mark.parametrize("r", [3, 7, 11])
def test_four_body_partial_collapses_are_certified_early(r, monkeypatch):
    """The k = 8 solves of nbody rounds 3, 7 and 11 at seed 0 collapse onto a
    triple-collision subspace, not the origin; the certificate must take
    them within two stages, at the full continuation's value."""
    import linbilliards.solver as solver_module
    arr = _four_body_table()
    rng = np.random.default_rng([0, r, 0])
    it = Itinerary(_repeat_free(rng, len(arr.subspaces), 8))
    A, B = rng.standard_normal(arr.dim), rng.standard_normal(arr.dim)
    fast = minimize(arr, it, A, B)
    assert fast.classification is Classification.GHOST
    assert fast.chain.points.any()
    assert fast.iterations <= 2
    monkeypatch.setattr(solver_module, "_certify_ghost", lambda *args: None)
    full = minimize(arr, it, A, B)
    assert full.classification is Classification.GHOST
    assert abs(fast.value - full.value) <= 1e-13 * full.value


def _chord(arr, itinerary, A, B):
    """Equally spaced points of the chord from A to B, projected onto the
    itinerary's subspaces."""
    s = np.arange(1, len(itinerary) + 1) / (len(itinerary) + 1)
    return Chain.from_points(arr, itinerary, (1 - s)[:, None] * A + s[:, None] * B)


@pytest.mark.parametrize("r", [3, 7, 11])
def test_four_body_partial_collapses_certify_independently_of_the_start(r):
    """The k = 8 ghosts of nbody rounds 3, 7 and 11 at seed 0, from the chord
    moved by eps * N(0, 1) in its coordinates, eps from 1e-11 to 1e-2: every
    start certifies at the same stage, with the same value, although a free
    vertex between two collapsed runs may sit anywhere on its flat segment."""
    arr = _four_body_table()
    rng = np.random.default_rng([0, r, 0])
    it = Itinerary(_repeat_free(rng, len(arr.subspaces), 8))
    A, B = rng.standard_normal(arr.dim), rng.standard_normal(arr.dim)
    chord = _chord(arr, it, A, B).coords
    draws = np.random.default_rng(r)
    stages, values = set(), set()
    for eps in np.logspace(-11, -2, 14):
        start = Chain.from_coords(arr, it, chord + eps * draws.standard_normal(chord.shape))
        result = minimize(arr, it, A, B, initial_chain=start)
        assert result.classification is Classification.GHOST
        stages.add(result.iterations)
        values.add(result.value)
    assert len(stages) == 1
    assert len(values) == 1


def test_unfiltered_search_kernel_passes(twolines_arr, kernel_passes):
    """The unfiltered realizability search of the realize benchmark at seed
    0 (lengths 1-5, 100 samples each) stays within its kernel passes: 539
    derivative and 450 value passes when a cold solve tries the certificate
    at the spring chain, before the opening stage's Newton; 1,508 and 957
    when the opening stage certifies its minimizer under CERT_WINDOW like
    every later stage; 2,302 and 2,249 under the old 0.1 mu
    opening window with the scale-free stop test, 2,160 and 2,104 before it;
    2,790 and 2,813 from the chord (all with the opening stage at mu =
    scale), 6,050 and 14,895 when every ghost backtracked from mu = 1e-2
    scale."""
    from linbilliards.origami import search_realizable
    rows = search_realizable(twolines_arr, 5, 100, seed=0, use_angle_filter=False)
    assert [row.status for row in rows[:6]] == ["realized"] * 6
    assert kernel_passes["derivatives"] <= 600
    assert kernel_passes["value"] <= 500


def _random_planes(seed, n=3):
    """n random 2-planes through the origin of R^3: any two meet in a line."""
    rng = np.random.default_rng(seed)
    return Arrangement(3, tuple(Subspace.from_spanning(f"P{i}", rng.standard_normal((2, 3)), 3)
                                for i in range(n)))


@pytest.mark.parametrize("table", ["planes3d_arr", 0, 1, 2])
def test_ghosts_reproduce_under_rounding_changes_of_the_start(table, request):
    """A ghost whose collapsed vertices are free along an intersection line
    comes out the same, to rounding, from a start chain moved by 1e-13."""
    arr = request.getfixturevalue(table) if isinstance(table, str) else _random_planes(table)
    rng = np.random.default_rng(17)
    ghosts = 0
    for _ in range(30):
        it, A, B = _random_case(arr, rng, 2, 6)
        cold = minimize(arr, it, A, B)
        if cold.classification is not Classification.GHOST:
            continue
        ghosts += 1
        scale = float(np.linalg.norm(B - A))
        start = _chord(arr, it, A, B).points
        nudged = start + 1e-13 * scale * rng.standard_normal(start.shape)
        again = minimize(arr, it, A, B,
                         initial_chain=Chain.from_points(arr, it, nudged))
        assert again.classification is Classification.GHOST
        assert abs(again.value - cold.value) <= 4e-15 * cold.value
        assert np.abs(again.chain.points - cold.chain.points).max() \
            <= 1e-9 * max(1.0, scale)
    assert ghosts >= 5


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
    problem = _StackedProblem(solver._plan_of(planes3d_arr.bases_of(it)), A, B)
    runs = [(0, 2), (2, 4)]
    snapped = _snapped(_point_list(A, points, B), runs,
                       problem.plan.run_plans(tuple(runs)).meets)[1:-1]
    # P1 and P2 meet in the x-axis; P3 and P1 in a line through the origin
    assert np.array_equal(snapped[0], snapped[1])
    assert np.array_equal(snapped[2], snapped[3])
    assert np.allclose(snapped[0], [points[:2, 0].mean(), 0.0, 0.0], atol=1e-15)
    for i, q in zip(it, snapped):
        assert planes3d_arr.subspaces[i].distance_to(q) <= 1e-15
    assert np.linalg.norm(snapped[2]) > 0
    # three planes with no common line meet only at the origin
    origin = _snapped(_point_list(A, points, B), [(0, 3)],
                      problem.plan.run_plans(((0, 3),)).meets)[1:-1]
    assert not origin[:3].any()
    assert np.array_equal(origin[3], points[3])


def _reference_runs(gaps, detect):
    """The runs of _collapsing_runs as NumPy finds them: the ends of the
    padded 0/1 sequence of short interior edges."""
    short = np.concatenate(([0], gaps[1:-1] <= detect, [0])).astype(np.int8)
    ends = np.flatnonzero(np.diff(short))
    return [(int(a), int(b) + 1) for a, b in zip(ends[::2], ends[1::2])]


def _reference_thresholds(gaps, mu2):
    """The thresholds of _certify_ghost, in the order it tries them, as
    np.unique and np.searchsorted give them; none without a gap in the
    certificate's window."""
    interior = np.unique(gaps[1:-1])
    first = np.searchsorted(interior, solver.CERT_WINDOW * math.sqrt(mu2), side="right") - 1
    if first < 0:
        return []
    order = [*range(first, len(interior)), *range(first - 1, -1, -1)][:solver.CERT_TRIES]
    return [float(interior[j]) for j in order]


def _threshold_recorder(monkeypatch):
    """A function of (gaps, mu2) that gives the thresholds _certify_ghost
    tries, in order, on a chain with these edge lengths: with
    _collapsing_runs recorded, and every attempt refused by a run plan that
    raises."""
    tried = []
    real = solver._collapsing_runs

    def runs(gap_list, detect):
        tried.append(detect)
        return real(gap_list, detect)

    def refused(*args):
        raise np.linalg.LinAlgError

    monkeypatch.setattr(solver, "_collapsing_runs", runs)

    def thresholds(gaps, mu2):
        del tried[:]
        problem = types.SimpleNamespace(
            plan=types.SimpleNamespace(run_plans=refused), _pts=None,
            edge_pass=lambda x, mu2: (np.ones((len(gaps), 2)), gaps))
        assert solver._certify_ghost(problem, None, mu2, 0.0) is None
        return tried[:]
    return thresholds


def _gap_vectors(rng):
    """About 1,000 edge-length vectors (k+1,), k = 1 ... 40: continuous draws,
    draws from a few levels with exact ties and zeros, and short edges
    forced at the first and the last interior edge."""
    for k in range(1, 41):
        for draw in range(25):
            if draw % 3 == 0:
                gaps = rng.exponential(size=k + 1)
            else:
                gaps = rng.integers(0, 4, size=k + 1) * 0.25
            if draw % 5 == 0 and k > 1:
                gaps[1] = gaps[-2] = 0.0
            yield gaps


def test_certificate_bookkeeping_matches_the_numpy_reference(monkeypatch):
    """_collapsing_runs scans a list, and _certify_ghost orders its
    thresholds with a sorted set and bisect: on about 1,000 gap vectors they
    give the runs, and the thresholds in the order tried, that the NumPy
    reference gives, with detect equal to a gap, the certificate window
    equal to a gap and duplicate gaps that meet the CERT_TRIES cut."""
    rng = np.random.default_rng(17)
    vectors = list(_gap_vectors(rng))
    assert len(vectors) == 1000
    # duplicates meet the cut: eight interior gaps, four distinct values
    vectors.append(np.array([9.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0]))
    touching = 0
    for gaps in vectors:
        for detect in (*gaps[1:-1].tolist(), 0.0, 0.5, -1.0, math.inf):
            expected = _reference_runs(gaps, detect)
            assert solver._collapsing_runs(gaps.tolist(), detect) == expected
            assert solver._collapsing_runs(gaps, detect) == expected
            touching += bool(expected) and expected[0][0] == 0 \
                and expected[-1][1] == len(gaps) - 1
    tried = _threshold_recorder(monkeypatch)
    thresholds = 0
    for gaps in vectors:
        for window in gaps[1:-1].tolist():
            # the certificate's window CERT_WINDOW * mu equal to a gap
            mu2 = (window / solver.CERT_WINDOW) ** 2
            if solver.CERT_WINDOW * math.sqrt(mu2) == window:
                assert tried(gaps, mu2) == _reference_thresholds(gaps, mu2)
                thresholds += 1
    assert tried(vectors[-1], 1e-2) == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("grad_norm, raises", [(1.0, True), (1e-7, True), (1e-11, False)])
def test_polish_floor_is_checked_against_the_value(grad_norm, raises, twolines_arr,
                                                   monkeypatch):
    """A polish that stops on the rounding floor is accepted only when |grad|
    is within GRAD_TOL (1e-10), as at max_iters: a solve never reports that
    it converged when it only stopped moving.  With every stage's polish
    refused, the continuation ends without a polished minimizer."""
    import linbilliards.solver as solver_module
    from linbilliards.errors import MaxIterations
    real = solver_module._damped_newton

    def floored(x, derivatives, value_of, retract, tol, step_tol, max_iters, **kw):
        x, value, norm, reason = real(x, derivatives, value_of, retract, tol,
                                      step_tol, max_iters, **kw)
        if max_iters == solver.POLISH_ITERS:  # the exact polish
            return x, value, grad_norm, "floor"
        return x, value, norm, reason

    monkeypatch.setattr(solver_module, "_damped_newton", floored)
    if raises:
        with pytest.raises(MaxIterations, match="without a polished minimizer"):
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
        warm = minimize(arr, it, A2, B2, initial_chain=base.chain)
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
    results, _, _ = random_start_solves(twolines_arr, Itinerary(itinerary), TWOLINE_A,
                                        TWOLINE_B, n_starts=100)
    assert len(results) == 100
    assert all(r.iterations > 0 for r in results)


def test_failed_warm_gate_runs_the_continuation_unchanged(twolines_arr, monkeypatch):
    """A start outside Newton's basin gives bit for bit what the continuation
    alone gives from the same chain: the reference refuses the start's
    polish, the first _exact_polish call of a solve, and no other."""
    import linbilliards.solver as solver_module
    it = Itinerary((0, 1))
    rng = np.random.default_rng(8)
    starts = [random_chain(twolines_arr, it, 10.0, rng) for _ in range(10)]
    gated = [minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B,
                      initial_chain=c) for c in starts]
    real, calls = solver_module._exact_polish, []
    monkeypatch.setattr(solver_module, "_exact_polish",
                        lambda *args: None if calls.append(args) or len(calls) == 1
                        else real(*args))
    for start, result in zip(starts, gated):
        del calls[:]
        reference = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B,
                             initial_chain=start)
        assert result.iterations == reference.iterations > 0
        assert result.classification is reference.classification
        assert result.value == reference.value
        assert result.chain.points.tobytes() == reference.chain.points.tobytes()


def _count_calls(monkeypatch, counts, real):
    """Count calls of the package function real under every module
    attribute that binds it (a module that imports it holds its own name)."""
    def call(*args, **kwargs):
        counts[real.__name__] += 1
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "linbilliards" and module is not None:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, call)


def test_a_warm_cell_measures_nothing_twice(twolines_arr, kernel_passes, monkeypatch):
    """The work budget of a warm scatter cell: on two lines at the TWOLINE
    anchors, started from the tangent prediction of a neighbouring cell,
    minimize looks the itinerary's bases up once (the model reads the
    plan's), builds no point list outside its problem (classification and
    the trajectory read the problem's), makes at most three projections
    (the anchors' locus distances, classification's one stacked pass of
    edge and membership rows, and the boundary rays') and the fewest kernel
    passes: the start's and the Newton step's derivatives and the step's
    value."""
    from linbilliards import scattering
    from linbilliards.arrangement import _perp
    it = Itinerary((0, 1))
    B0 = TWOLINE_B + np.array([1e-3, -2e-3])
    start = scattering._predicted_chain(minimize(twolines_arr, it, TWOLINE_A, B0),
                                        TWOLINE_A, B0, TWOLINE_A, TWOLINE_B)
    counts = collections.Counter()
    real_bases_of = Arrangement.bases_of

    def bases_of(self, itinerary):
        counts["bases_of"] += 1
        return real_bases_of(self, itinerary)

    monkeypatch.setattr(Arrangement, "bases_of", bases_of)
    for real in (_point_list, _perp):
        _count_calls(monkeypatch, counts, real)
    kernel_passes.clear()
    result = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B, initial_chain=start)
    assert result.is_valid and result.iterations == 0
    assert counts["bases_of"] == 1
    assert counts["_point_list"] == 0
    assert 0 < counts["_perp"] <= 3
    assert kernel_passes["derivatives"] == 2 and kernel_passes["value"] == 1


def test_a_start_at_zero_gradient_passes_the_warm_gate(mirror_arr):
    """The README mirror's solved chain has an exactly zero gradient, so its
    Newton step is the zero step: re-solved from it, the solve polishes it
    directly (iterations == 0) to the same value and chain."""
    it, A, B = Itinerary((0,)), np.array([0.0, 1.0]), np.array([2.0, 1.0])
    cold = minimize(mirror_arr, it, A, B)
    assert not np.any(gradient(mirror_arr, it, A, cold.chain, B))
    again = minimize(mirror_arr, it, A, B, initial_chain=cold.chain)
    assert again.iterations == 0 and again.is_valid
    assert again.value == cold.value
    assert again.chain.points.tobytes() == cold.chain.points.tobytes()


# -- Cholesky step ------------------------------------------------------------

def _reference_solve_spd(H, g):
    """The jittered Cholesky step through scipy's cho_factor / cho_solve, and
    the jitter it was taken at; (None, None) if five attempts give none."""
    jitter = 0.0
    base = float(np.trace(H)) / max(H.shape[0], 1)
    for _ in range(5):
        try:
            c, low = scipy.linalg.cho_factor(H + jitter * np.eye(H.shape[0]))
            step = scipy.linalg.cho_solve((c, low), -g)
            if np.dot(g, step) < 0:
                return step, jitter
        except np.linalg.LinAlgError:
            pass
        jitter = max(jitter * 100.0, 1e-14 * max(base, 1.0))
    return None, None


def test_solve_spd_matches_cho_factor_to_backward_error():
    """_solve_spd finds a step exactly where scipy's cho_factor / cho_solve
    do, and its step solves the jittered system that reference accepted to
    a backward error of 1e-12: |(H + jI) s + g| <= 1e-12 (|H + jI| |s| + |g|)."""
    from linbilliards.solver import _solve_spd
    rng = np.random.default_rng(3)
    cases = [(np.zeros((0, 0)), np.zeros(0))]
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            M = rng.standard_normal((n, n))
            g = rng.standard_normal(n)
            spd = M @ M.T + 1e-3 * np.eye(n)
            cases.append((spd + 1e-15 * rng.standard_normal((n, n)), g))  # rounding asymmetry
            cases.append((M + M.T, g))                        # indefinite
            cases.append((-(M @ M.T), g))                     # negative definite
            cases.append((np.outer(M[0], M[0]), g))           # singular
    jittered = 0
    for H, g in cases:
        expected, jitter = _reference_solve_spd(H, g)
        got = _solve_spd(H, g)
        if expected is None:
            assert got is None
            continue
        assert got is not None
        shifted = H + jitter * np.eye(len(g))
        residual = np.linalg.norm(shifted @ got + g)
        assert residual <= 1e-12 * (np.linalg.norm(shifted, 2) * np.linalg.norm(got)
                                    + np.linalg.norm(g))
        jittered += not np.all(np.linalg.eigvalsh(H) > 0)
    assert jittered > 0


def test_solve_spd_rejects_non_finite_input():
    from linbilliards.solver import _solve_spd
    H = np.eye(2)
    with pytest.raises(ValueError):
        _solve_spd(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        _solve_spd(H, np.array([np.inf, 0.0]))


# -- Newton core: trial points valued first ------------------------------------

def _reference_damped_newton(x, derivatives, value_of, retract, tol, step_tol, max_iters,
                             start=None, first_step=None):
    """The Newton core as it was before trial points were valued first: every
    full step is differentiated.  Its steps come from the library's
    _solve_spd: the core's control flow is what is checked here."""
    value, g, H = derivatives(x) if start is None else start
    grad_norm = math.sqrt(g @ g)
    for _ in range(max_iters):
        if grad_norm <= tol:
            return x, value, grad_norm, "converged"
        step = solver._solve_spd(H, g) if first_step is None else first_step
        first_step = None
        if step is None:
            return x, value, grad_norm, "no_descent"
        full = retract(x, step, 1.0)
        if full is not None:
            fval, fg, fH = derivatives(full)
            full_norm = math.sqrt(fg @ fg)
            if full_norm <= 0.5 * grad_norm and fval <= value + 1e-12 * max(1.0, value):
                x, value, g, H, grad_norm = full, fval, fg, fH, full_norm
                continue
        t = 1.0
        slope = float(np.dot(g, step))
        moved = False
        while t >= solver.STEP_FLOOR:
            trial = full if t == 1.0 else retract(x, step, t)
            if trial is not None:
                trial_value = fval if t == 1.0 else value_of(trial)
                if trial_value <= value + solver.ARMIJO * t * slope:
                    x, moved = trial, True
                    break
            t *= 0.5
        if not moved:
            return x, value, grad_norm, "floor"
        taken = t * step
        small = math.sqrt(taken @ taken) <= step_tol
        value, g, H = (fval, fg, fH) if t == 1.0 else derivatives(x)
        grad_norm = math.sqrt(g @ g)
        if small:
            return x, value, grad_norm, "floor"
    return x, value, grad_norm, "max_iters"


def _checked_core(seen):
    """Stand-in for solver._damped_newton that runs the reference core and
    the library core on the same callables and asserts that they return the
    same x bytes, value, grad_norm and reason.  The library core must value
    each full step before it differentiates it, and differentiate no point
    but its iterates and the full steps whose value is within rounding of
    their iterate's, which only the gradient can then reject.  Appends the
    retract and the start of every call, and the number of full steps
    rejected on their value alone, to seen."""
    core = solver._damped_newton

    def run(x, derivatives, value_of, retract, *args, **kwargs):
        expected = _reference_damped_newton(x, derivatives, value_of, retract,
                                            *args, **kwargs)
        start = kwargs.get("start")
        values = {} if start is None else {x.tobytes(): start}
        valued, differentiated, full_steps = {}, [], {}
        iterates = {x.tobytes()}

        def watched_derivatives(y):
            key = y.tobytes()
            differentiated.append(key)
            values[key] = derivatives(y)
            return values[key]

        def watched_value(y):
            valued[y.tobytes()] = value_of(y)
            return valued[y.tobytes()]

        def watched_retract(y, step, t):
            point = retract(y, step, t)
            if t == 1.0:
                # every iteration first tries the full step from its iterate
                iterates.add(y.tobytes())
                if point is not None:
                    full_steps[point.tobytes()] = y.tobytes()
            return point

        got = core(x, watched_derivatives, watched_value, watched_retract, *args, **kwargs)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1:] == expected[1:]
        iterates.add(got[0].tobytes())
        for key in differentiated:
            if key in iterates:
                continue
            value = values[full_steps[key]][0]
            assert valued[key] <= value + 1e-12 * max(1.0, value)
        seen.append((retract, start, len(set(full_steps) - set(differentiated))))
        return got

    return run


def test_value_first_core_matches_the_reference_core(twolines_arr, monkeypatch):
    """Every Newton core call of these solves returns bit for bit what the
    core that differentiates every full step returns: the continuation
    stages of twolines k = 4 and 5 ghosts from the chord, their certificates'
    reduced solves, the four-body k = 8 partial collapses of nbody rounds 3,
    7 and 11, a mu = 0 warm polish, and the barrier stages and the wall
    polish of a thickened two-line solve, whose steps go through the wall
    retraction rather than _add_step."""
    from linbilliards import thickened
    from linbilliards.thickened import ThickenedTable
    seen = []
    monkeypatch.setattr(solver, "_damped_newton", _checked_core(seen))
    monkeypatch.setattr(thickened, "_damped_newton", solver._damped_newton)
    thickened.minimize_thickened(ThickenedTable(twolines_arr, 1e-2), Itinerary((0, 1)),
                                 TWOLINE_A, TWOLINE_B)
    rng = np.random.default_rng(21)
    for k in (4, 5):
        for _ in range(8):
            it, A, B = _random_case(twolines_arr, rng, k, k)
            minimize(twolines_arr, it, A, B)
    four = _four_body_table()
    for r in (3, 7, 11):
        draw = np.random.default_rng([0, r, 0])
        it = Itinerary(_repeat_free(draw, len(four.subspaces), 8))
        A, B = draw.standard_normal(four.dim), draw.standard_normal(four.dim)
        assert minimize(four, it, A, B).classification is Classification.GHOST
    it = Itinerary((0, 1))
    base = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    warm = minimize(twolines_arr, it, TWOLINE_A + 1e-4, TWOLINE_B,
                    initial_chain=base.chain)
    assert warm.iterations == 0
    assert any(start is not None for _, start, _ in seen)
    assert any(retract is not solver._add_step for retract, _, _ in seen)
    assert sum(rejected for _, _, rejected in seen) > 0


@pytest.mark.parametrize("mu2", [1e-4, 0.0])
def test_derivatives_after_value_reuse_its_edge_pass(mu2, monkeypatch):
    """derivatives at the point value has just measured reads that edge pass
    and equals a fresh evaluation at a copy of the point bit for bit."""
    from linbilliards.solver import _StackedProblem
    arr = _four_body_table()
    rng = np.random.default_rng(9)
    it, A, B = _random_case(arr, rng, 6, 6)
    problem = _StackedProblem(solver._plan_of(arr.bases_of(it)), A, B)
    x = rng.standard_normal(problem.k * problem.m)
    value = problem.value(x, mu2)
    measured = []
    real = solver._edge_lengths

    def counted(*args):
        measured.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_edge_lengths", counted)
    got = problem.derivatives(x, mu2)
    assert not measured
    fresh = problem.derivatives(x.copy(), mu2)
    assert len(measured) == 1
    assert got[0] == fresh[0] == value
    assert got[1].tobytes() == fresh[1].tobytes()
    assert got[2].tobytes() == fresh[2].tobytes()
    # the same point at another smoothing is measured again
    problem.value(x, mu2)
    problem.derivatives(x, mu2 + 1e-6)
    assert len(measured) == 3


def _classify_by_model(arr, itinerary, A, chain, B):
    """(classification, message, grad_norm, min eigenvalue) of a chain as
    built from the Hessian model, is_generic's anchor test with the
    genericity reference of conftest (not the stacked pass that _classify
    shares with is_generic) and the generalized symmetric eigenproblem H x =
    λ G x."""
    scale = float(np.linalg.norm(B - A))
    pts = np.vstack([A, chain.points, B])
    if np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1)
              <= COINCIDENCE_TOL * max(scale, 1e-30)):
        return (Classification.GHOST,
                "consecutive vertices collapse; minimizer leaves the trajectory space",
                math.nan, None)
    model = hessian(arr, itinerary, A, chain, B)
    grad_norm = float(np.linalg.norm(model.gradient))
    units = model.unit_edges
    inside = np.minimum(np.linalg.norm(units[:-1] - model.a_in, axis=1),
                        np.linalg.norm(units[1:] - model.a_out, axis=1)) <= solver.EDGE_TOL
    if inside.any():
        j = int(np.argmax(inside))
        return (Classification.EDGE_IN_SUBSPACE,
                f"an edge at vertex {j + 1} lies inside {arr.subspaces[itinerary[j]].name}",
                grad_norm, None)
    tol = MEMBERSHIP_TOL * max(1.0, scale)
    if arr.on_locus(A, tol) or arr.on_locus(B, tol) or not chain_is_generic_reference(
            arr, arr.bases_of(itinerary), A, chain.points, B, tol):
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
    seen = set()
    for itinerary, A, coords, B, forced in _classify_cases(arr, rng):
        chain = Chain.from_coords(arr, itinerary, coords)
        cls, msg, grad_norm, eig = _classify_by_model(arr, itinerary, A, chain, B)
        result = solver._classify(arr, itinerary, A, chain, B, 1.0, 0)
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


# -- classification from the Newton core's final exact pass --------------------

def _min_eig_or_none(model):
    try:
        return model.min_eigenvalue()
    except NonSmoothPoint:
        return None


@pytest.mark.parametrize("table", FIXTURES + ["planes3d_arr", "fourbody_arr", 0, 1])
def test_results_are_classified_from_the_final_exact_pass(table, request, monkeypatch):
    """Cold solves and the warm solves of their neighbours 1e-4 * scale away
    return the Newton core's own iterate (no coordinate round trip), and a
    VALID one carries bit for bit what a fresh HessianModel and a fresh
    trajectory at its chain give; the classification is the one the
    measuring path gives at the round-tripped chain."""
    arr = request.getfixturevalue(table) if isinstance(table, str) else _random_planes(table)
    rng = np.random.default_rng(zlib.crc32(str(table).encode()))
    fed = []
    real = solver._classify

    def watched(*args):
        fed.append(len(args) > 7 and args[7] is not None and args[7][0] is not None)
        return real(*args)

    monkeypatch.setattr(solver, "_classify", watched)
    cases = [(Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)] if table == "twolines_arr" else []
    cases += [_random_case(arr, rng, 1, 3) for _ in range(32)]
    valid = 0
    for it, A, B in cases:
        solves = [(A, B, minimize(arr, it, A, B))]
        if solves[0][2].is_valid:
            scale = float(np.linalg.norm(B - A))
            shift = rng.standard_normal((2, arr.dim))
            shift *= 1e-4 * scale / np.linalg.norm(shift, axis=1)[:, None]
            A2, B2 = A + shift[0], B + shift[1]
            solves.append((A2, B2, minimize(arr, it, A2, B2,
                                            initial_chain=solves[0][2].chain)))
        for a, b, result in solves:
            chain = result.chain
            assert chain.points.tobytes() == _to_points(arr.bases_of(it), chain.coords).tobytes()
            parent = real(arr, it, a, Chain.from_points(arr, it, chain.points), b,
                          result.value, result.iterations)
            assert result.classification is parent.classification
            assert result.message == parent.message
            if not result.is_valid:
                assert result.hessian_min_eig is None
                continue
            valid += 1
            model = HessianModel(arr, it, a, chain, b)
            assert result.grad_norm == float(np.linalg.norm(model.gradient))
            assert result.hessian_min_eig == _min_eig_or_none(model)
            fresh = BilliardTrajectory(a, b, chain.points, it)
            for traj in (result.trajectory, fresh):
                assert traj.edge_velocities.tobytes() == model.unit_edges.tobytes()
                assert traj.length == float(model.edge_lengths.sum())
            assert result.trajectory.points.tobytes() == fresh.points.tobytes()
    # the planes of R^3 meet pairwise in lines, where most minimizers collapse
    assert valid >= 1
    # solves of a positive-dimensional chain space hand their pass on
    assert any(fed) or arr.bases.shape[1] == 0


def test_hessian_min_eig_is_computed_on_first_read(twolines_arr, monkeypatch):
    """A scatter patch computes no eigenvalue; a result computes its own
    once, on the first read of hessian_min_eig, and that is the value the
    model gives."""
    from linbilliards.scattering import AnchorGrid, sample_relation
    calls = []
    real = HessianModel.min_eigenvalue

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(HessianModel, "min_eigenvalue", counted)
    it = Itinerary((0, 1))
    patch = sample_relation(twolines_arr, it, AnchorGrid(TWOLINE_A, np.eye(2), 2, 1e-3),
                            AnchorGrid(TWOLINE_B, np.eye(2), 2, 1e-3))
    assert patch.valid_fraction() == 1.0
    assert not calls
    result = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    assert not calls
    eager = real(hessian(twolines_arr, it, TWOLINE_A, result.chain, TWOLINE_B))
    assert result.hessian_min_eig == eager > 0.0
    assert len(calls) == 1
    assert result.hessian_min_eig == eager
    assert len(calls) == 1


def test_degenerate_vertex_norm_reads_no_eigenvalue(twolines_arr, monkeypatch):
    """Where the per-vertex norm degenerates, min_eigenvalue raises
    NonSmoothPoint and a VALID result reads hessian_min_eig as None."""
    def degenerate(model):
        raise NonSmoothPoint("per-vertex norm degenerate: |a_i| >= 1")

    monkeypatch.setattr(HessianModel, "min_eigenvalue", degenerate)
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    assert result.is_valid
    assert result.hessian_min_eig is None


def _clear_solve_plans():
    solver._cached_plan.cache_clear()


def _result_bytes(result):
    """Every field of a result that a solve computes, as bytes."""
    return (str(result.classification), repr(result.value), repr(result.grad_norm),
            result.iterations, result.message, result.chain.coords.tobytes(),
            result.chain.points.tobytes())


def _measuring_certified(problem, x, mu2, floor):
    """The certificate as it was before it read the stage's pass: it measures
    the edges of x again, with the directions smoothed at mu / CERT_WINDOW
    as the search's start, and the accepted chain's length by action."""
    pts = problem._point_list(x)
    edges, soft = solver._edge_lengths(pts, mu2 / solver.CERT_WINDOW**2)
    start = edges / soft[:, None]
    gaps = np.linalg.norm(edges, axis=1)
    for threshold in _reference_thresholds(gaps, mu2):
        runs = _reference_runs(gaps, threshold)
        try:
            plan = problem.plan.run_plans(tuple(runs))
            found = solver._reduced_minimum(problem, plan, pts.copy(), floor, mu2)
            proof = None if found is None else _certifies(problem, found[0], runs, start)
            if proof is not None:
                return action(problem.A, found[0], problem.B), found[0], proof[1]
        except np.linalg.LinAlgError:
            pass
    return None


def _search_and_nbody_solves(twolines_arr, monkeypatch, seed=0):
    """(arr, itinerary, A, B, result) of every solve of the unfiltered search
    at the seed and of nbody rounds 0-3 at the seed."""
    from linbilliards import origami
    solves = []
    real = origami.minimize

    def recording(arr, it, A, B, initial_chain=None):
        result = real(arr, it, A, B, initial_chain)
        solves.append((arr, it, A, B, result))
        return result

    with monkeypatch.context() as m:
        m.setattr(origami, "minimize", recording)
        origami.search_realizable(twolines_arr, 5, 100, seed=seed, use_angle_filter=False)
    arr = _four_body_table()
    for r in range(4):
        rng = np.random.default_rng([seed, r, 0])
        for k in (8, 16, 32):
            it = Itinerary(_repeat_free(rng, len(arr.subspaces), k))
            A, B = rng.standard_normal(arr.dim), rng.standard_normal(arr.dim)
            solves.append((arr, it, A, B, minimize(arr, it, A, B)))
    return solves


def test_certified_ghosts_are_measured_once(twolines_arr, monkeypatch):
    """The certificate reads the stage's exact pass and its own pass at the
    accepted chain, and minimize returns that chain as GHOST without a
    HessianModel: over the seed-0 search and nbody rounds 0-3 every result
    equals, bit for bit, the one of a certificate that measures again and
    of classification through the HessianModel, and proves itself
    (assert_lower_bound)."""
    fast = _search_and_nbody_solves(twolines_arr, monkeypatch)
    for *_, result in fast:
        assert_lower_bound(result)
    monkeypatch.setattr(solver, "_certify_ghost", _measuring_certified)
    measured = _search_and_nbody_solves(twolines_arr, monkeypatch)
    assert len(fast) == len(measured) > 400
    ghosts = 0
    for (arr, it, A, B, result), other in zip(fast, measured):
        assert _result_bytes(result) == _result_bytes(other[4])
        if result.classification is Classification.GHOST:
            ghosts += 1
            classified = solver._classify(arr, it, A, result.chain, B, result.value,
                                          result.iterations)
            assert _result_bytes(classified) == _result_bytes(result)
            assert classified.trajectory is result.trajectory is None
    assert ghosts > 400


@pytest.mark.parametrize("seed", [123, 1729])
def test_lower_bounds_meet_their_values(seed, twolines_arr, monkeypatch):
    """Every solve of the unfiltered search and of nbody rounds 0-3 at the
    seed (seed 0 is test_certified_ghosts_are_measured_once's), and of a
    scatter patch, proves itself: every VALID and GHOST result has a lower
    bound within rounding above its value and within 1e-9 (VALID) or 1e-12
    (GHOST) of it below."""
    from linbilliards import scattering
    from linbilliards.scattering import AnchorGrid, sample_relation
    solves = _search_and_nbody_solves(twolines_arr, monkeypatch, seed)
    results = [result for *_, result in solves]
    assert {r.classification for r in results} >= {Classification.VALID, Classification.GHOST}
    real = scattering.minimize
    monkeypatch.setattr(scattering, "minimize",
                        lambda *args, **kw: results.append(real(*args, **kw)) or results[-1])
    rng = np.random.default_rng(seed)
    axes = [np.linalg.qr(rng.standard_normal((2, 2)))[0].T for _ in range(2)]
    patch = sample_relation(twolines_arr, Itinerary((0, 1)),
                            AnchorGrid(TWOLINE_A, axes[0], 2, 1e-3),
                            AnchorGrid(TWOLINE_B, axes[1], 2, 1e-3))
    assert patch.valid_fraction() == 1.0
    assert len(results) == len(solves) + 625
    for result in results:
        assert_lower_bound(result)


@pytest.mark.parametrize("fixture", ["twolines_arr", "lines3d_arr", "planes4d_arr"])
def test_cold_valid_results_meet_their_lower_bounds_to_rounding(fixture, request):
    """A cold VALID solve ends in the one exact polish, which aims at
    WARM_AIM * GRAD_TOL as a warm one does: its lower bound meets its value
    within 1e-13 (relative), where a polish that stopped at GRAD_TOL left
    gaps up to 1.3e-11."""
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    valid = 0
    for _ in range(100):
        it, A, B = _random_case(arr, rng, 2, 6)
        result = minimize(arr, it, A, B)
        if result.is_valid:
            valid += 1
            assert result.value - result.lower_bound <= 1e-13 * result.value
    assert valid >= 5


@pytest.mark.parametrize("offset, outcome", [
    (0.0, "certified"), (1e-12, "certified"), (1e-9, "certified"), (1e-2, "certified"),
    (-1e-10, "unproven"), (-1e-2, "valid")])
def test_ghosts_on_the_border_of_the_valid_anchors(offset, outcome, twolines_arr):
    """At A = (1, 1), B = (-1, 1) the minimizer of L1, L2 collapses onto the
    origin with a collapsed-edge multiplier of norm exactly 1, inside the
    balls |u_e| <= 1 of weak duality: the certificate takes it at the
    spring chain, before any stage (iterations == 0), as it takes the
    ghosts just off the border, and they prove themselves.  Just off it on
    the valid side, at offset -1e-10, the continuation ends within
    coincidence of a collapse that no certificate proves: a GHOST from the
    classification's fallback, with no lower bound.  Further off, the
    anchors give a valid billiard."""
    it = Itinerary((0, 1))
    result = minimize(twolines_arr, it, np.array([1.0, 1.0 + offset]), np.array([-1.0, 1.0]))
    if outcome == "valid":
        assert result.is_valid
    else:
        assert result.classification is Classification.GHOST
    if outcome == "unproven":
        assert result.lower_bound is None
    else:
        assert result.lower_bound is not None
        assert_lower_bound(result)
    if outcome == "certified":
        assert result.iterations == 0


@pytest.mark.parametrize("e", [4, 5, 6, 7, 8])
def test_valid_anchors_near_the_ghost_border_are_polished(e, twolines_arr):
    """From A = (1, 1 - t 10^-e) to B = (-1, 1), for 90 values of t in
    [1, 9.9], the minimizer of L1, L2 is a valid billiard whose interior
    edge is short, but far above the coincidence floor.  No stage's polish
    passes WARM_GATE on some of them; the ungated polish of the last chain
    still proves each one, and none raises MaxIterations."""
    it, B = Itinerary((0, 1)), np.array([-1.0, 1.0])
    for t in np.linspace(1.0, 9.9, 90):
        result = minimize(twolines_arr, it, np.array([1.0, 1.0 - t * 10.0 ** -e]), B)
        assert result.is_valid
        assert_lower_bound(result)


@pytest.mark.parametrize("table, itinerary, A, B", [
    ("twolines_arr", (0, 1, 0, 1), (2.0, 1.0), (-1.0, -3.0)),
    ("lines3d_arr", (0, 1, 0), (1.0, 2.0, 3.0), (-2.0, 1.0, 0.5)),
])
def test_cold_ghosts_certify_at_the_spring_chain(table, itinerary, A, B, request,
                                                 kernel_passes):
    """The certificate's proof does not depend on mu, so a cold solve tries
    it at the spring chain, before the opening stage's Newton.  On two lines
    that meet only at the origin the collapsed run is pinned there, so such
    a ghost is proved without a single kernel pass."""
    arr = request.getfixturevalue(table)
    result = minimize(arr, Itinerary(itinerary), np.array(A), np.array(B))
    assert result.classification is Classification.GHOST
    assert result.iterations == 0
    assert kernel_passes["derivatives"] == kernel_passes["value"] == 0
    assert_lower_bound(result)


@pytest.mark.parametrize("table, itinerary, A, B", [
    ("twolines_arr", (0, 1, 0, 1), (2.0, 1.0), (-1.0, -3.0)),
    ("lines3d_arr", (0, 1, 0), (1.0, 2.0, 3.0), (-2.0, 1.0, 0.5)),
    # the meetline ghost of the CI runtime job
    ("planes3d_arr", (0, 1), (-2.0, -2.0, -2.0), (-2.0, -1.0, 2.0)),
])
def test_the_ghost_exit_chain_is_that_of_its_points(table, itinerary, A, B, request,
                                                    monkeypatch):
    """minimize builds a certified ghost's chain over the problem's stacked
    bases: its coordinates and points are, bit for bit, those of
    Chain.from_points at the points the certificate accepted."""
    arr = request.getfixturevalue(table)
    real, accepted = solver._certify_ghost, []

    def capture(*args):
        found = real(*args)
        if found is not None:
            accepted.append(np.array(found[1]))
        return found

    monkeypatch.setattr(solver, "_certify_ghost", capture)
    it = Itinerary(itinerary)
    result = minimize(arr, it, np.array(A), np.array(B))
    assert result.classification is Classification.GHOST and len(accepted) == 1
    expected = Chain.from_points(arr, it, accepted[0])
    for got, want in ((result.chain.coords, expected.coords),
                      (result.chain.points, expected.points)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert_lower_bound(result)


def test_the_spring_chain_attempt_replaces_the_opening_one(twolines_arr, monkeypatch):
    """The cold TWOLINE solve's opening minimizer has a gap within
    CERT_WINDOW * mu; its certificate is tried once, at the spring chain,
    and not again after the opening stage.  A failed attempt leaves the
    chain untouched: the solve gives the same bytes with every attempt
    refused."""
    real, starts = solver._certify_ghost, []

    def counted(problem, x, *args):
        starts.append(np.array_equal(x, problem.plan.spring_coords(problem.A, problem.B)))
        return real(problem, x, *args)

    it = Itinerary((0, 1))
    monkeypatch.setattr(solver, "_certify_ghost", counted)
    result = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    assert result.is_valid and result.iterations == 2
    assert starts == [True]
    monkeypatch.setattr(solver, "_certify_ghost", lambda *args: None)
    refused = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    assert refused.chain.points.tobytes() == result.chain.points.tobytes()
    assert (refused.value, refused.iterations) == (result.value, result.iterations)


@pytest.mark.parametrize("fixture", ["twolines_arr", "planes3d_arr", "fourbody_arr"])
def test_dual_bound_holds_for_any_multipliers(fixture, request):
    """Weak duality: from any edge multipliers, however far from the vertex
    equations or the unit balls, _dual_bound is no more than the length of
    the minimizer or of any other chain of the itinerary.  Half the draws
    aim the end multipliers along -A and B, where the bound without its
    correction onto the vertex equations would be |A| + |B|."""
    arr = request.getfixturevalue(fixture)
    rng = np.random.default_rng(31)
    for _ in range(8):
        it, A, B = _random_case(arr, rng, 1, 6)
        scale = float(np.linalg.norm(B - A))
        lengths = [minimize(arr, it, A, B).value]
        lengths += [action(A, random_chain(arr, it, 3.0 * scale, rng).points, B)
                    for _ in range(20)]
        bases = arr.bases_of(it)
        for j in range(6):
            u = 3.0 * rng.standard_normal((len(it) + 1, arr.dim))
            if j % 2:
                u[0], u[-1] = -A / np.linalg.norm(A), B / np.linalg.norm(B)
                u[1:-1] *= 0.1
            bound = solver._dual_bound(bases, A, B, u)
            assert bound <= min(lengths) * (1.0 + 1e-14)


def test_lower_bound_is_computed_on_first_read(twolines_arr, monkeypatch):
    """No solve computes a lower bound that nobody reads: with _dual_bound
    made to raise, the seed-0 unfiltered search and a scatter patch run as
    before, and only a read of lower_bound raises."""
    from linbilliards.origami import search_realizable
    from linbilliards.scattering import AnchorGrid, sample_relation

    def refuse(*args):
        raise AssertionError("lower bound computed")

    monkeypatch.setattr(solver, "_dual_bound", refuse)
    rows = search_realizable(twolines_arr, 5, 100, seed=0, use_angle_filter=False)
    assert [row.status for row in rows[:6]] == ["realized"] * 6
    it = Itinerary((0, 1))
    patch = sample_relation(twolines_arr, it, AnchorGrid(TWOLINE_A, np.eye(2), 2, 1e-3),
                            AnchorGrid(TWOLINE_B, np.eye(2), 2, 1e-3))
    assert patch.valid_fraction() == 1.0
    result = minimize(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    with pytest.raises(AssertionError, match="lower bound computed"):
        result.lower_bound


def test_lower_bound_reads_the_anchors_of_its_solve(twolines_arr):
    """A caller that moves its anchor arrays in place after the solve does
    not move the bound that is computed later, on first read."""
    A, B = TWOLINE_A.copy(), TWOLINE_B.copy()
    result = minimize(twolines_arr, Itinerary((0, 1)), A, B)
    A += 1.0
    B *= 2.0
    assert_lower_bound(result)


def test_solves_with_cold_and_warm_solve_plans_agree(planes3d_arr, fourbody_arr):
    """The solve plans are transparent: a solve after the caches are cleared
    equals, byte for byte, the same solve with the caches warm."""
    rng = np.random.default_rng(29)
    classes, run_plan_hits = set(), 0
    for arr, lengths in ((planes3d_arr, (2, 6)), (fourbody_arr, (4, 12))):
        for _ in range(12):
            it, A, B = _random_case(arr, rng, *lengths)
            _clear_solve_plans()
            cold = minimize(arr, it, A, B)
            warm = minimize(arr, it, A, B)
            assert _result_bytes(cold) == _result_bytes(warm)
            classes.add(cold.classification)
            run_plan_hits += solver._plan_of(arr.bases_of(it)).run_plans.cache_info().hits
    assert Classification.GHOST in classes and len(classes) >= 2
    assert solver._cached_plan.cache_info().hits > 0
    assert run_plan_hits > 0


def test_solve_plan_arrays_are_read_only(planes3d_arr):
    """Every array a solve plan keeps is shared between solves, and is
    read-only: the plan's bases, their transposes, pad, spring columns and
    projector stack, and its run plans with their reduced plans."""
    bases = planes3d_arr.bases_of(Itinerary((0, 1, 2, 0)))
    itinerary_plan = solver._plan_of(bases)
    plan = itinerary_plan.run_plans(((0, 2), (2, 4)))
    M, null, pinv = plan.equations
    reduced = plan.reduced
    arrays = [itinerary_plan.bases, itinerary_plan.bases_t, itinerary_plan.pad,
              itinerary_plan.spring_columns, itinerary_plan.projectors, *plan.meets,
              plan.keep, plan.shut,
              reduced.bases, reduced.bases_t, reduced.pad, plan.bases, M, null, pinv]
    assert all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        plan.reduced.bases[0] = 0.0
    with pytest.raises(ValueError):
        itinerary_plan.bases_t[0] = 0.0
    # both runs meet in a line: one padded coordinate at each kept vertex
    assert reduced.pad.tolist() == [1, 3]
    assert solver._plan_of(bases.copy()) is itinerary_plan
    assert itinerary_plan.run_plans(((0, 2), (2, 4))) is plan


@pytest.mark.parametrize("table", ["mirror_arr", "origin_arr", "twolines_arr", "lines3d_arr",
                                   "planes4d_arr", "planes3d_arr", "fourbody_arr"])
def test_plan_projectors_are_the_itinerary_complements(table, request):
    """A plan's projector stack (4k - 2, dim, dim), the one _classify
    projects against, is read-only and byte for byte the arrangement's
    complements of its itinerary as _classify reads them: P_1..P_k twice,
    P_2..P_k, P_1..P_{k-1}.  The same holds for a plan built afresh, outside
    the LRU, from a pickled and loaded arrangement, as a --jobs worker
    receives it."""
    arr = request.getfixturevalue(table)
    rng = np.random.default_rng(len(table))
    n, dim = len(arr.subspaces), arr.dim
    for source in (arr, pickle.loads(pickle.dumps(arr))):
        for k in range(1, 6 if n > 1 else 2):
            labels = [int(rng.integers(n))]
            while len(labels) < k:
                labels.append(int((labels[-1] + rng.integers(1, n)) % n))
            bases = source.bases_of(Itinerary(labels))
            fresh = solver._cached_plan.__wrapped__(bases.shape, bases.tobytes())
            for plan in (solver._plan_of(bases), fresh):
                stack, c = plan.projectors, source.complements[labels]
                assert stack.shape == (4 * k - 2, dim, dim)
                assert stack.tobytes() == np.concatenate((c, c, c[1:], c[:-1])).tobytes()
                assert not stack.flags.writeable
                with pytest.raises(ValueError):
                    stack[0, 0, 0] = 1.0


def test_point_and_thickened_solves_share_one_plan(mirror_arr):
    """minimize and minimize_thickened on one itinerary take their spring
    start from one plan: a miss on the first solve, hits after it."""
    from linbilliards.thickened import ThickenedTable, minimize_thickened
    it, A, B = Itinerary((0,)), np.array([0.0, 1.0]), np.array([2.0, 1.0])
    _clear_solve_plans()
    assert minimize(mirror_arr, it, A, B).is_valid
    assert solver._cached_plan.cache_info()[:2] == (0, 1)
    minimize_thickened(ThickenedTable(mirror_arr, 0.1), it, A, B)
    assert solver._cached_plan.cache_info()[:2] == (1, 1)
    assert minimize(mirror_arr, it, B, A).is_valid
    assert solver._cached_plan.cache_info()[:2] == (2, 1)


def test_live_run_plans_stay_within_the_bound(twolines_arr):
    """At most PLANS^2 run plans are live: PLANS plans in the LRU, with
    PLANS run plans each, however many itineraries and run sets pass."""
    import gc
    _clear_solve_plans()
    for k in range(5, 5 + 2 * solver.PLANS):
        plan = solver._plan_of(twolines_arr.bases_of(Itinerary((0, 1) * k)))
        for start in range(2 * solver.PLANS):
            plan.run_plans(((start, start + 2),))
    del plan
    gc.collect()
    live = sum(isinstance(o, solver._RunPlan) for o in gc.get_objects())
    assert live == solver.PLANS ** 2


@pytest.mark.parametrize("table, itinerary, runs", [
    ("twolines_arr", (0, 1, 0), ((0, 3),)),             # wide
    ("twolines_arr", (0, 1), ((0, 2),)),                # square, empty kernel
    ("planes3d_arr", (0, 1, 2, 0), ((0, 2), (2, 4))),   # tall
    ("planes3d_arr", (0, 1, 0, 1), ((0, 4),)),          # wide, rank 7 of 8
    ("fourbody_arr", (0, 1, 2, 3), ((0, 2), (2, 4))),   # tall
    ("fourbody_arr", None, ((0, 16),)),                 # total collapse at k = 16
])
def test_vertex_equations_match_the_reference_factorization(table, itinerary, runs, request):
    """The run plan's vertex equations M, their left null projector and
    pseudo-inverse, built from the runs' meets without an SVD, give what
    scipy gives: the pseudo-inverse to 1e-12, and the projector onto the
    null space of M^T to 1e-12.  The projector's trace counts the solution
    set's dimension, that of scipy's null space of M.  The least-norm
    multipliers p = -pinv fixed equal, to rounding, the re-projection w - K
    K^T w of any solution w of M w = -fixed, K scipy's kernel."""
    arr = request.getfixturevalue(table)
    rng = np.random.default_rng(11)
    if itinerary is None:
        itinerary = _repeat_free(rng, len(arr.subspaces), 16)
    problem = solver._StackedProblem(solver._plan_of(arr.bases_of(Itinerary(itinerary))),
                                     rng.standard_normal(arr.dim), rng.standard_normal(arr.dim))
    plan = problem.plan.run_plans(runs)
    M, null, pinv = plan.equations
    C, dim = int(plan.shut.sum()), problem.dim
    assert M.shape == (problem.k * problem.m, C * dim)
    assert np.array_equal(M, _vertex_matrix(plan))
    reference = scipy.linalg.pinv(M)
    assert np.abs(pinv - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())
    left = scipy.linalg.null_space(M.T)
    assert np.abs(null - left @ left.T).max() <= 1e-12
    K = scipy.linalg.null_space(M)
    d = K.shape[1]
    assert C * dim - (len(M) - round(float(np.trace(null)))) == d
    w = rng.standard_normal(C * dim)
    fixed = -M @ w
    p = -pinv @ fixed
    assert np.abs(p - (w - K @ (K.T @ w))).max() <= 1e-13 * max(1.0, np.abs(w).max())


def test_certificate_factors_without_qr(twolines_arr, monkeypatch):
    """The seed-0 unfiltered search builds its run plans from cold and
    calls no QR, and its solves call no SVD but those of intersection_basis
    (dim columns): the vertex equations are factored from the runs' meets."""
    from linbilliards import origami
    calls, svds, solving = [], [], []
    real_qr, real_svd, real_minimize = np.linalg.qr, np.linalg.svd, origami.minimize

    def svd(a, *args, **kw):
        if solving:
            svds.append((sys._getframe(1).f_code.co_name, np.shape(a)))
        return real_svd(a, *args, **kw)

    def minimize(*args):
        solving.append(True)
        try:
            return real_minimize(*args)
        finally:
            solving.pop()

    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: calls.append(args) or real_qr(*args, **kw))
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(origami, "minimize", minimize)
    _clear_solve_plans()
    origami.search_realizable(twolines_arr, 5, 100, seed=0, use_angle_filter=False)
    assert solver._cached_plan.cache_info().misses > 0
    assert not calls
    assert svds
    assert all(caller == "intersection_basis" and shape[1] == twolines_arr.dim
               for caller, shape in svds)


@pytest.mark.parametrize("table", ["twolines_arr", "planes3d_arr", "fourbody_arr"])
def test_spring_start_solves_the_normal_equations(table, request):
    """The spring coordinates minimize sum_e |d_e|^2 over the chain: they
    match a dense solve of its normal equations, built here edge by edge."""
    arr = request.getfixturevalue(table)
    rng = np.random.default_rng(3)
    for k in (1, 2, 5, 16):
        it, A, B = _random_case(arr, rng, k, k)
        bases = arr.bases_of(it)
        k, m, dim = bases.shape
        # edges d_e = q_{e+1} - q_e = E x + f over the stacked coordinates x
        E = np.zeros((k + 1, dim, k, m))
        for i in range(k):
            E[i, :, i, :] = bases[i].T
            E[i + 1, :, i, :] = -bases[i].T
        E = E.reshape((k + 1) * dim, k * m)
        f = np.zeros((k + 1, dim))
        f[0], f[-1] = -A, B
        dense = np.linalg.solve(E.T @ E, -E.T @ f.reshape(-1))
        spring = solver._plan_of(bases).spring_coords(A, B)
        assert np.abs(spring - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max())
