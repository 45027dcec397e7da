"""Damped-Newton minimization of the polygonal path length over a chain.

The path length is convex on the product of subspaces and has a unique global
minimum for anchors off the collision locus, but it is non-smooth exactly
where consecutive vertices collide, and minimizers may sit there (ghosts).
The solver therefore minimizes the smoothed length sum(sqrt(r^2 + mu^2)) by
damped Newton and drives mu to zero; a minimizer whose gaps collapse along the
continuation is a ghost.  It is repaired by snapping each collapsed run of
consecutive vertices onto the intersection of the run's subspaces, a stratum
of the collision locus; the snapped chain is feasible, so its length bounds
the minimum from above.  Smooth minimizers get a final exact-Newton polish on
the true length.

A ghost need not run every stage.  The smoothed edge directions u_e at a
stage's minimizer are multipliers with |u_e| < 1, so weak duality gives a
rigorous lower bound on the true minimum (duality gap O(mu^2 / r)); once the
snapped chain's length meets that bound within the final merge test's
tolerance, the continuation stops and returns the snapped chain.

A smooth start needs no continuation at all.  When the caller's initial
chain already lies in Newton's quadratic basin -- its first exact (mu = 0)
Newton step is at most WARM_GATE of the chain's shortest edge, as for the
solved chain of a neighbouring anchor pair -- the solver polishes it by exact
Newton past grad_tol and, if no gap sinks to the merge threshold on the way,
classifies it directly (iterations == 0).  A smooth critical point of the
convex path length is its global minimizer, so this classifies as a cold
solve would.  Any other start, including the random chains of multistart,
fails the gate and runs the continuation from the given chain unchanged.

Every stage runs the one damped-Newton core here (full-step local phase,
Armijo backtracking, jittered Cholesky solve), which the thickened wall
polish reuses with its own coordinates and retraction onto the walls.

Classification order (coincidence, edge-in-subspace, non-generic rays, valid)
mirrors the exclusions that define membership in the trajectory space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.linalg

from .arrangement import MEMBERSHIP_TOL, Arrangement, Itinerary, intersection_basis
from .action import (Chain, _path_value, _stacked_derivatives, _to_coords, _to_points,
                     action, hessian)
from .errors import InputError, MaxIterations, NonSmoothPoint, PreconditionError
from .trajectory import BilliardTrajectory, is_generic


class Classification(enum.Enum):
    VALID = "ValidBilliard"
    GHOST = "Ghost"
    EDGE_IN_SUBSPACE = "EdgeInSubspace"
    NON_GENERIC_RAY = "NonGenericRay"

    def __str__(self):
        return self.value


STEP_TOL = 1e-12       # stagnation threshold on the step norm
ARMIJO = 1e-4          # sufficient-decrease constant of the backtracking
STEP_FLOOR = 1e-12     # smallest backtracking step fraction tried
MERGE_DETECT = 1e-4    # gap below this * scale marks a collapsing run
WARM_GATE = 1e-2       # warm start: first exact Newton step / shortest edge
WARM_AIM = 1e-4        # warm polish targets this * grad_tol, accepts grad_tol


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 400
    grad_tol: float = 1e-10          # on |grad| / max(1, S)
    coincidence_tol: float = 1e-9    # gap below this * scale is a ghost point
    edge_tol: float = 1e-9           # edge direction within this of a subspace
    initial_chain: Chain | None = None


@dataclass(frozen=True)
class MinimizeResult:
    chain: Chain
    value: float
    grad_norm: float
    classification: Classification
    trajectory: BilliardTrajectory | None
    hessian_min_eig: float | None
    iterations: int          # smoothing stages run (fewer for certified ghosts;
                             # 0 when a warm start was polished directly)
    message: str = ""

    @property
    def is_valid(self) -> bool:
        return self.classification is Classification.VALID


def initial_chain_chord(arr: Arrangement, itinerary: Itinerary, A, B) -> Chain:
    """Default start: project equally spaced chord points onto their subspaces."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    k = len(itinerary)
    pts = []
    for i in range(1, k + 1):
        s = i / (k + 1)
        pts.append(arr.subspaces[itinerary[i - 1]].project((1 - s) * A + s * B))
    return Chain.from_points(arr, itinerary, np.array(pts))


def _gaps(pts: np.ndarray) -> np.ndarray:
    """Edge lengths of the point list A, q_1..q_k, B."""
    return np.linalg.norm(pts[1:] - pts[:-1], axis=1)


def _collapsing_runs(gaps: np.ndarray, detect: float) -> list[tuple[int, int]]:
    """Maximal runs [start, stop) of chain vertices (0-based) joined by
    interior edges no longer than detect; empty if there are none."""
    # interior edge j joins vertices j and j + 1; pad so every run has both ends
    short = np.concatenate(([0], gaps[1:-1] <= detect, [0])).astype(np.int8)
    ends = np.flatnonzero(np.diff(short))
    return [(int(a), int(b) + 1) for a, b in zip(ends[::2], ends[1::2])]


class _StackedProblem:
    """Smoothed path length sum(sqrt(r_e^2 + mu^2)) in stacked chain coords.

    Each edge contributes the soft norm of its vector; at mu = 0 this is the
    exact path length (with its exact derivatives at smooth points).  Smooth
    and convex for mu > 0 regardless of vertex coincidences, which is what
    the continuation relies on.
    """

    def __init__(self, arr, itinerary, A, B):
        self.bases = arr.bases_of(itinerary)
        self.k, self.m, self.dim = self.bases.shape
        self.A = A
        self.B = B
        # A, q_1..q_k, B; the chain rows are overwritten on every call
        self._pts = np.empty((self.k + 2, self.dim))
        self._pts[0] = A
        self._pts[-1] = B

    def points_of(self, x: np.ndarray) -> np.ndarray:
        return _to_points(self.bases, x.reshape(self.k, self.m))

    def coords_of(self, points: np.ndarray) -> np.ndarray:
        return _to_coords(self.bases, points).reshape(-1)

    def _point_list(self, x: np.ndarray) -> np.ndarray:
        self._pts[1:-1] = self.points_of(x)
        return self._pts

    def value(self, x: np.ndarray, mu2: float) -> float:
        return _path_value(self._point_list(x), mu2)

    def derivatives(self, x: np.ndarray, mu2: float):
        return _stacked_derivatives(self.bases, self._point_list(x), mu2)


# the LAPACK routines behind scipy.linalg.cho_factor / cho_solve, called
# directly: at the block sizes here the wrappers cost more than the solve
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"),
                                               (np.zeros((1, 1)),))


def _solve_spd(H: np.ndarray, g: np.ndarray):
    """Newton step -H^{-1} g by Cholesky, adding growing diagonal jitter until
    it is a descent step; None if five attempts give none.

    Raises ValueError on non-finite input, as cho_factor / cho_solve do.
    """
    n = H.shape[0]
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise ValueError("array must not contain infs or NaNs")
    if n == 0:
        return None
    jitter = 0.0
    base = float(np.trace(H)) / n
    for _ in range(5):
        c, info = _POTRF(H + jitter * np.eye(n), lower=False, overwrite_a=True,
                         clean=False)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        if info == 0:
            step, info = _POTRS(c, -g, lower=False, overwrite_b=True)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of potrs")
            if np.dot(g, step) < 0:
                return step
        jitter = max(jitter * 100.0, 1e-14 * max(base, 1.0))
    return None


def _add_step(x, step, t):
    return x + t * step


def _damped_newton(x, derivatives, value_of, retract, tol, step_tol, max_iters,
                   start=None):
    """Damped Newton from x; returns (x, value, grad_norm, reason).

    derivatives(x) gives the value, gradient and Hessian in the coordinates
    of the step (start, if given, holds them at x already), value_of(x) the
    value alone, and retract(x, step, t) the point reached by the step scaled
    by t, or None where that is infeasible.
    Backtracks on the value while decreases are resolvable; once they sink
    below the rounding floor of the value, the full step is accepted as long
    as it keeps contracting the gradient norm, which drives the gradient to
    its own machine floor instead of stalling around sqrt(eps).  reason is
    "converged" (grad_norm <= tol * max(1, value)), "floor" (no resolvable
    progress left, or an accepted step no longer than step_tol),
    "no_descent" (no descent step) or "max_iters".
    """
    value, g, H = derivatives(x) if start is None else start
    grad_norm = math.sqrt(g @ g)
    for _ in range(max_iters):
        if grad_norm <= tol * max(1.0, value):
            return x, value, grad_norm, "converged"
        step = _solve_spd(H, g)
        if step is None:
            return x, value, grad_norm, "no_descent"
        # local phase: the full Newton step contracts the gradient near the
        # minimum, where value differences are already below rounding
        full = retract(x, step, 1.0)
        if full is not None:
            fval, fg, fH = derivatives(full)
            full_norm = math.sqrt(fg @ fg)
            if full_norm <= 0.5 * grad_norm and fval <= value + 1e-12 * max(1.0, value):
                x, value, g, H, grad_norm = full, fval, fg, fH, full_norm
                continue
        # global phase: backtracking on the value; at t = 1 the full step's
        # point, value and derivatives are already at hand
        t = 1.0
        slope = float(np.dot(g, step))
        moved = False
        while t >= STEP_FLOOR:
            trial = full if t == 1.0 else retract(x, step, t)
            if trial is not None:
                trial_value = fval if t == 1.0 else value_of(trial)
                if trial_value <= value + ARMIJO * t * slope:
                    x, moved = trial, True
                    break
            t *= 0.5
        if not moved:
            # neither rule makes progress: gradient floor of the arithmetic
            return x, value, grad_norm, "floor"
        taken = t * step
        small = math.sqrt(taken @ taken) <= step_tol
        value, g, H = (fval, fg, fH) if t == 1.0 else derivatives(x)
        grad_norm = math.sqrt(g @ g)
        if small:
            return x, value, grad_norm, "floor"
    return x, value, grad_norm, "max_iters"


def _warm_polish(problem, x, tol, detect, max_iters):
    """Coordinates of the exact-Newton polish of a warm start x, or None if
    x is not one.

    x is warm when every gap exceeds detect and its first exact (mu = 0)
    Newton step is at most WARM_GATE of the shortest gap.  The polish aims
    at WARM_AIM * tol, typically one quadratic step past tol: a warm chain's
    error depends on where its neighbour sat, so left at tol it would be
    noise that finite differences over a patch divide by the spacing.  It is
    accepted once the gradient meets tol, with every gap still above detect.
    """
    shortest = _gaps(problem._point_list(x)).min()
    if not shortest > detect:
        return None
    start = problem.derivatives(x, 0.0)
    step = _solve_spd(start[2], start[1])
    if step is None or math.sqrt(step @ step) > WARM_GATE * shortest:
        return None
    x, value, grad_norm, _ = _damped_newton(
        x, partial(problem.derivatives, mu2=0.0), partial(problem.value, mu2=0.0),
        _add_step, WARM_AIM * tol, STEP_TOL, max_iters, start=start)
    if grad_norm > tol * max(1.0, value) or \
            _gaps(problem._point_list(x)).min() <= detect:
        return None
    return x


def _snapped(problem, points: np.ndarray, runs):
    """(length, points) with the vertices of each run replaced by the
    projection of their mean onto the intersection of the run's subspaces
    (the origin when they meet only there).
    """
    points = points.copy()
    for start, stop in runs:
        meet = intersection_basis(problem.bases[start:stop])
        points[start:stop] = meet.T @ (meet @ points[start:stop].mean(axis=0))
    return action(problem.A, points, problem.B), points


def _dual_lower_bound(problem, x, mu2, upper) -> float:
    """Lower bound on the minimum L* of the exact path length, by weak
    duality with the smoothed edge directions at x as multipliers.

    u_e = d_e / sqrt(r_e^2 + mu2) has |u_e| < 1, so every chain q has
    L(q) >= sum_e <u_e, d_e(q)> = <u_k, B> - <u_0, A> + sum_i <g_i, c_i>,
    with g_i = B_i (u_{i-1} - u_i) the smoothed gradient block at x and c_i
    the coordinates of q_i.  A minimizer has |c_i| = |q_i| <= |A| + L*, and
    L* <= upper, the length of any chain.
    """
    pts = problem._point_list(x)
    edges = pts[1:] - pts[:-1]
    u = edges / np.sqrt((edges * edges).sum(axis=1) + mu2)[:, None]
    g = (problem.bases @ (u[:-1] - u[1:])[:, :, None])[:, :, 0]
    radius = math.sqrt(problem.A @ problem.A) + upper
    return float(u[-1] @ problem.B - u[0] @ problem.A
                 - radius * np.linalg.norm(g, axis=1).sum())


def _certify_ghost(problem, x, mu2, runs):
    """(length, points) of the chain snapped on the collapsed runs if the
    dual bound at this smoothing certifies it as the global minimum, else
    None.

    Up to four more Newton steps, on a copy of the stage's minimizer x, shrink
    the gradient term of the bound before the snap.  The snapped chain is
    feasible, so acceptance puts its length within 1e-11 * max(1, L*) of the
    true minimum L*, inside the tolerance of the final merge test.
    """
    x, *_ = _damped_newton(x, partial(problem.derivatives, mu2=mu2),
                           partial(problem.value, mu2=mu2), _add_step,
                           0.0, STEP_TOL, max_iters=4)
    value, points = _snapped(problem, problem.points_of(x), runs)
    lower = _dual_lower_bound(problem, x, mu2, value)
    return (value, points) if value - lower <= 1e-11 * max(1.0, lower) else None


def minimize(arr: Arrangement, itinerary: Itinerary, A, B,
             opts: SolverOptions = SolverOptions()) -> MinimizeResult:
    """Find the global minimizer of the path length over the chain space.

    Uniqueness of the minimum is a theorem for anchors off the collision
    locus; this routine verifies nothing global by itself (see multistart) but
    converges to the minimum by smoothed-Newton continuation from any start.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != (arr.dim,) or B.shape != (arr.dim,):
        raise InputError("anchors must match the arrangement dimension")
    itinerary.validate_against(arr)
    scale = float(np.linalg.norm(B - A))
    mtol = MEMBERSHIP_TOL * max(1.0, scale)
    if arr.on_locus(A, mtol) or arr.on_locus(B, mtol):
        raise PreconditionError("anchors must lie off the collision locus")
    scale = max(scale, arr.distance_to_locus(A), arr.distance_to_locus(B))

    chain = opts.initial_chain or initial_chain_chord(arr, itinerary, A, B)
    points = chain.points.copy()
    coincidence = opts.coincidence_tol * scale

    if arr.bases.shape[1] == 0:
        # chain is pinned (all subspaces zero-dimensional); nothing to minimize
        chain = Chain.from_points(arr, itinerary, points)
        return _classify(arr, itinerary, A, chain, B, opts,
                         action(A, points, B), 0)

    problem = _StackedProblem(arr, itinerary, A, B)
    x = problem.coords_of(points)
    detect = MERGE_DETECT * scale
    if opts.initial_chain is not None:
        # a caller's chain in Newton's basin (a solved neighbour) is polished
        # at mu = 0 directly; any other falls through to the continuation
        warm = _warm_polish(problem, x, opts.grad_tol, detect, opts.max_iters)
        if warm is not None:
            points = problem.points_of(warm)
            chain = Chain.from_points(arr, itinerary, points)
            return _classify(arr, itinerary, A, chain, B, opts,
                             action(A, points, B), 0)

    # continuation in the smoothing parameter; warm-started Newton each stage.
    # Once every gap dwarfs mu the smoothing is irrelevant and the exact
    # polish takes over.  Ghost candidates keep gaps ~ mu; each of their
    # stages tries to certify the snapped chain by weak duality, and stops
    # the continuation as soon as it does.
    iterations = 0
    certified = None
    for exponent in range(2, 15, 2):
        mu = scale * 10.0 ** (-exponent)
        mu2 = mu * mu
        x, *_ = _damped_newton(x, partial(problem.derivatives, mu2=mu2),
                               partial(problem.value, mu2=mu2), _add_step,
                               1e-9, STEP_TOL, max_iters=40)
        iterations += 1
        gaps = _gaps(problem._point_list(x))
        if gaps.min() > 1e4 * mu:
            break
        runs = _collapsing_runs(gaps, detect)
        if runs:
            certified = _certify_ghost(problem, x, mu2, runs)
            if certified is not None:
                break

    if certified is not None:
        value, points = certified
    else:
        points = problem.points_of(x)
        value = action(A, points, B)
        if gaps.min() > coincidence:
            x, value, grad_norm, reason = _damped_newton(
                x, partial(problem.derivatives, mu2=0.0),
                partial(problem.value, mu2=0.0), _add_step,
                opts.grad_tol, STEP_TOL, max_iters=opts.max_iters)
            stalled = reason == "no_descent" or (
                reason in ("floor", "max_iters")
                and grad_norm > math.sqrt(opts.grad_tol) * max(1.0, value))
            points = problem.points_of(x)
            value = action(A, points, B)
            gaps = _gaps(problem._point_list(x))
            if stalled:
                raise MaxIterations(
                    f"exact polish stalled ({reason}) with |grad| = {grad_norm:.3e}")
        # repair collapsed runs by snapping them onto their intersections:
        # the snapped chain is feasible, so a length no larger than the
        # continuation's confirms the ghost and gives it a coincident
        # representative
        runs = _collapsing_runs(gaps, detect)
        if runs:
            snapped_val, snapped_pts = _snapped(problem, points, runs)
            if snapped_val <= value + 1e-11 * max(1.0, value):
                points, value = snapped_pts, snapped_val

    chain = Chain.from_points(arr, itinerary, points)
    return _classify(arr, itinerary, A, chain, B, opts, value, iterations)


def _classify(arr, itinerary, A, chain, B, opts: SolverOptions,
              value: float, iterations: int) -> MinimizeResult:
    scale = float(np.linalg.norm(B - A))
    points = chain.points
    gaps = _gaps(np.vstack([A[None, :], points, B[None, :]]))

    def done(cls, grad_norm, traj=None, eig=None, msg=""):
        return MinimizeResult(chain, value, grad_norm, cls, traj, eig, iterations, msg)

    if np.any(gaps <= opts.coincidence_tol * max(scale, 1e-30)):
        return done(Classification.GHOST, math.nan,
                    msg="consecutive vertices collapse; minimizer leaves the trajectory space")

    # past the ghost test every edge is long enough for the exact model
    model = hessian(arr, itinerary, A, chain, B, coincidence_tol=opts.coincidence_tol)
    grad_norm = float(np.linalg.norm(model.gradient))
    # an edge lies inside its vertex's subspace when it equals its projection
    units = model.unit_edges
    inside = np.minimum(np.linalg.norm(units[:-1] - model.a_in, axis=1),
                        np.linalg.norm(units[1:] - model.a_out, axis=1)) <= opts.edge_tol
    if inside.any():
        j = int(np.argmax(inside))
        return done(Classification.EDGE_IN_SUBSPACE, grad_norm,
                    msg=f"an edge at vertex {j + 1} lies inside "
                        f"{arr.subspaces[itinerary[j]].name}")

    if not is_generic(arr, A, points, B, itinerary,
                      tol=MEMBERSHIP_TOL * max(1.0, scale)):
        return done(Classification.NON_GENERIC_RAY, grad_norm,
                    msg="configuration violates genericity (adjacent membership or ray recrossing)")

    traj = BilliardTrajectory(A, B, points, itinerary)
    eig = None
    try:
        eig = model.min_eigenvalue()
    except NonSmoothPoint:
        # |a_i| can round to 1 for an edge just outside edge_tol, where the
        # per-vertex norm degenerates
        pass
    return done(Classification.VALID, grad_norm, traj=traj, eig=eig)


def envelope_gradients(result: MinimizeResult, A, B):
    """Incoming/outgoing directions as endpoint gradients of the optimal value.

    vA equals minus the anchor-A gradient of the path length at the solved
    chain, and vB the anchor-B gradient; both coincide with the boundary edge
    directions of the trajectory.
    """
    if not result.is_valid:
        raise PreconditionError("envelope directions require a valid billiard result")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    q1, qk = result.chain.points[0], result.chain.points[-1]
    grad_A = (A - q1) / np.linalg.norm(A - q1)   # analytic anchor gradient n(A, q1)
    grad_B = (B - qk) / np.linalg.norm(B - qk)
    vA, vB = -grad_A, grad_B
    return vA, vB


@dataclass(frozen=True)
class MultistartReport:
    results: list
    chain_spread: float      # max vertex distance between any two runs
    value_spread: float

    @property
    def classifications(self):
        return [r.classification for r in self.results]


def random_chain(arr: Arrangement, itinerary: Itinerary, radius: float,
                 rng: np.random.Generator) -> Chain:
    """Chain with each coordinate block uniform in a ball of the given radius."""
    coords = []
    for idx in itinerary:
        m = arr.subspaces[idx].subdim
        if m == 0:
            coords.append(np.zeros(0))
            continue
        direction = rng.standard_normal(m)
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0 else np.zeros(m)
        coords.append(direction * radius * rng.uniform() ** (1.0 / m))
    return Chain.from_coords(arr, itinerary, coords)


def multistart_minimize(arr: Arrangement, itinerary: Itinerary, A, B,
                        n_starts: int = 100, seed: int = 0,
                        opts: SolverOptions = SolverOptions()) -> MultistartReport:
    """Run the solver from many random chains and report the spread.

    Uniqueness of the global minimum predicts all runs agree; the spread is
    the empirical check.
    """
    rng = np.random.default_rng(seed)
    radius = 10.0 * float(np.linalg.norm(np.asarray(B, float) - np.asarray(A, float)))
    results = []
    for _ in range(n_starts):
        start = random_chain(arr, itinerary, radius, rng)
        results.append(minimize(arr, itinerary, A, B, replace(opts, initial_chain=start)))
    spread = 0.0
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            d = np.max(np.linalg.norm(results[i].chain.points - results[j].chain.points,
                                      axis=1)) if results[i].chain.k else 0.0
            spread = max(spread, float(d))
    values = [r.value for r in results]
    return MultistartReport(results, spread, float(max(values) - min(values)))
