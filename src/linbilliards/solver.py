"""Damped-Newton minimization of the polygonal path length over a chain.

The path length is convex on the product of subspaces and has a unique global
minimum for anchors off the collision locus, but it is non-smooth exactly
where consecutive vertices collide, and minimizers may sit there (ghosts).
The solver therefore minimizes the smoothed length sum(sqrt(r^2 + mu^2)) by
damped Newton and drives mu to zero; a minimizer whose gaps collapse along the
continuation is a ghost, confirmed by solving the convex problem with the
collapsing pair fused onto the intersection of its subspaces.  Smooth
minimizers get a final exact-Newton polish on the true length.

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

from .arrangement import Arrangement, Itinerary, Subspace, orthonormalize
from .action import (Chain, _path_value, _stacked_derivatives, action,
                     gradient_stacked, hessian)
from .errors import InputError, MaxIterations, NonSmoothPoint, PreconditionError
from .trajectory import BilliardTrajectory, is_generic


class Classification(enum.Enum):
    VALID = "ValidBilliard"
    GHOST = "Ghost"
    EDGE_IN_SUBSPACE = "EdgeInSubspace"
    NON_GENERIC_RAY = "NonGenericRay"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 400
    grad_tol: float = 1e-10          # on |grad| / max(1, S)
    step_tol: float = 1e-12          # stagnation threshold on the step norm
    coincidence_tol: float = 1e-9    # gap below this * scale is a ghost point
    armijo: float = 1e-4
    step_floor: float = 1e-12
    membership_tol: float = 1e-9
    edge_tol: float = 1e-9           # edge direction within this of a subspace
    transverse_tol: float = 1e-8
    merge_detect: float = 1e-4       # gap below this * scale triggers the merge test
    initial_chain: Chain | None = None


@dataclass(frozen=True)
class MinimizeResult:
    chain: Chain
    value: float
    grad_norm: float
    classification: Classification
    trajectory: BilliardTrajectory | None
    hessian_min_eig: float | None
    iterations: int
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


def _vertex_two_leg_min(sub: Subspace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact minimizer of |a - q| + |q - b| over q in the subspace.

    Unfold the two legs into the plane spanned by the in-subspace chord and
    the perpendicular offsets; the optimum splits the chord in the ratio of
    the offsets (the classical mirror construction).  Valid at non-smooth
    configurations too.
    """
    a_par, b_par = sub.project(a), sub.project(b)
    alpha = float(np.linalg.norm(a - a_par))
    beta = float(np.linalg.norm(b - b_par))
    if alpha + beta <= 0.0:
        return 0.5 * (a_par + b_par)
    t = alpha / (alpha + beta)
    return a_par + t * (b_par - a_par)


def _min_gap(A, points, B) -> float:
    pts = np.vstack([A[None, :], points, B[None, :]])
    return float(np.min(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


class _StackedProblem:
    """Smoothed path length sum(sqrt(r_e^2 + mu^2)) in stacked chain coords.

    Each edge contributes the soft norm of its vector; at mu = 0 this is the
    exact path length (with its exact derivatives at smooth points).  Smooth
    and convex for mu > 0 regardless of vertex coincidences, which is what
    the continuation relies on.
    """

    def __init__(self, arr, itinerary, A, B):
        # one codimension per arrangement, so the bases stack as (k, m, dim)
        self.bases = np.array([arr.subspaces[i].basis for i in itinerary])
        self.k, m, self.dim = self.bases.shape
        self.A = A
        self.B = B
        # stacked coords -> flattened chain points, one matmul
        self.T = np.zeros((self.k * self.dim, self.k * m))
        for j, b in enumerate(self.bases):
            self.T[j * self.dim:(j + 1) * self.dim, j * m:(j + 1) * m] = b.T

    def points_of(self, x: np.ndarray) -> np.ndarray:
        return (self.T @ x).reshape(self.k, self.dim)

    def coords_of(self, points: np.ndarray) -> np.ndarray:
        return self.T.T @ points.reshape(-1)

    def _point_list(self, x: np.ndarray) -> np.ndarray:
        return np.vstack([self.A[None, :], self.points_of(x), self.B[None, :]])

    def value(self, x: np.ndarray, mu2: float) -> float:
        return _path_value(self._point_list(x), mu2)

    def derivatives(self, x: np.ndarray, mu2: float):
        return _stacked_derivatives(self.bases, self._point_list(x), mu2)


def _solve_spd(H: np.ndarray, g: np.ndarray):
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


def _add_step(x, step, t):
    return x + t * step


def _damped_newton(x, derivatives, value_of, retract, tol, step_tol, opts,
                   max_iters):
    """Damped Newton from x; returns (x, value, grad_norm, reason).

    derivatives(x) gives the value, gradient and Hessian in the coordinates
    of the step, value_of(x) the value alone, and retract(x, step, t) the
    point reached by the step scaled by t, or None where that is infeasible.
    Backtracks on the value while decreases are resolvable; once they sink
    below the rounding floor of the value, the full step is accepted as long
    as it keeps contracting the gradient norm, which drives the gradient to
    its own machine floor instead of stalling around sqrt(eps).  reason is
    "converged" (grad_norm <= tol * max(1, value)), "floor" (no resolvable
    progress left, or an accepted step no longer than step_tol),
    "no_descent" (no descent step) or "max_iters".
    """
    value, g, H = derivatives(x)
    grad_norm = float(np.linalg.norm(g))
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
            full_norm = float(np.linalg.norm(fg))
            if full_norm <= 0.5 * grad_norm and fval <= value + 1e-12 * max(1.0, value):
                x, value, g, H, grad_norm = full, fval, fg, fH, full_norm
                continue
        # global phase: backtracking on the value
        t = 1.0
        slope = float(np.dot(g, step))
        moved = False
        while t >= opts.step_floor:
            trial = retract(x, step, t)
            if trial is not None and value_of(trial) <= value + opts.armijo * t * slope:
                x, moved = trial, True
                break
            t *= 0.5
        if not moved:
            # neither rule makes progress: gradient floor of the arithmetic
            return x, value, grad_norm, "floor"
        small = float(np.linalg.norm(t * step)) <= step_tol
        value, g, H = derivatives(x)
        grad_norm = float(np.linalg.norm(g))
        if small:
            return x, value, grad_norm, "floor"
    return x, value, grad_norm, "max_iters"


def _intersection_subspace(a: Subspace, b: Subspace) -> Subspace:
    """Orthonormal basis of a ∩ b via the null space of the stacked projectors."""
    n = a.dim
    stacked = np.vstack([np.eye(n) - a.basis.T @ a.basis,
                         np.eye(n) - b.basis.T @ b.basis])
    _, s, vt = np.linalg.svd(stacked)
    return Subspace(f"{a.name}&{b.name}", orthonormalize(vt[s <= 1e-10], n), n)


def _merged_minimum(arr, itinerary, A, B, pair: int):
    """Global minimum of the path length when vertices pair, pair+1 are fused
    onto the intersection of their subspaces.

    Exact coordinate descent on the reduced convex problem; returns the value
    and the full-length chain with the fused vertex duplicated.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    subs = [arr.subspaces[i] for i in itinerary]
    fused = subs[:pair] + [_intersection_subspace(subs[pair], subs[pair + 1])] + subs[pair + 2:]
    pts = np.array([s.project(0.5 * (A + B)) for s in fused])
    val = action(A, pts, B)
    for _ in range(5000):
        for j, s in enumerate(fused):
            prev = A if j == 0 else pts[j - 1]
            nxt = B if j == len(fused) - 1 else pts[j + 1]
            pts[j] = _vertex_two_leg_min(s, prev, nxt)
        new_val = action(A, pts, B)
        if val - new_val <= 1e-15 * max(1.0, val):
            val = new_val
            break
        val = new_val
    expanded = np.vstack([pts[:pair + 1], pts[pair:pair + 1], pts[pair + 1:]])
    return val, expanded


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
    mtol = opts.membership_tol * max(1.0, scale)
    if arr.on_locus(A, mtol) or arr.on_locus(B, mtol):
        raise PreconditionError("anchors must lie off the collision locus")
    scale = max(scale, arr.distance_to_locus(A), arr.distance_to_locus(B))

    chain = opts.initial_chain or initial_chain_chord(arr, itinerary, A, B)
    points = chain.points.copy()
    k = len(itinerary)
    coincidence = opts.coincidence_tol * scale

    if sum(arr.subspaces[i].subdim for i in itinerary) == 0:
        # chain is pinned (all subspaces zero-dimensional); nothing to minimize
        chain = Chain.from_points(arr, itinerary, points)
        return _classify(arr, itinerary, A, chain, B, opts,
                         action(A, points, B), 0)

    # continuation in the smoothing parameter; warm-started Newton each stage.
    # Once every gap dwarfs mu the smoothing is irrelevant and the exact
    # polish takes over; ghost candidates keep gaps ~ mu and run all stages.
    problem = _StackedProblem(arr, itinerary, A, B)
    x = problem.coords_of(points)
    iterations = 0
    for exponent in range(2, 15, 2):
        mu = scale * 10.0 ** (-exponent)
        mu2 = mu * mu
        x, *_ = _damped_newton(x, partial(problem.derivatives, mu2=mu2),
                               partial(problem.value, mu2=mu2), _add_step,
                               1e-9, opts.step_tol, opts, max_iters=40)
        iterations += 1
        if _min_gap(A, problem.points_of(x), B) > 1e4 * mu:
            break

    points = problem.points_of(x)
    value = action(A, points, B)
    if _min_gap(A, points, B) > coincidence:
        x, value, grad_norm, reason = _damped_newton(
            x, partial(problem.derivatives, mu2=0.0),
            partial(problem.value, mu2=0.0), _add_step,
            opts.grad_tol, opts.step_tol, opts, max_iters=opts.max_iters)
        stalled = reason == "no_descent" or (
            reason == "max_iters"
            and grad_norm > math.sqrt(opts.grad_tol) * max(1.0, value))
        points = problem.points_of(x)
        value = action(A, points, B)
        if stalled:
            raise MaxIterations(
                f"exact polish stalled with |grad| = {grad_norm:.3e}")
    if k >= 2:
        # confirm/repair a collapsing pair via the fused convex problem: the
        # fused minimum is attainable in the chain space, so matching values
        # certify a ghost and give it an exactly coincident representative
        pts_all = np.vstack([A[None, :], points, B[None, :]])
        gaps = np.linalg.norm(np.diff(pts_all, axis=0), axis=1)
        pair = int(np.argmin(gaps[1:k]))
        if gaps[1 + pair] <= opts.merge_detect * scale:
            merged_val, merged_pts = _merged_minimum(arr, itinerary, A, B, pair)
            if merged_val <= value + 1e-11 * max(1.0, value):
                points, value = merged_pts, merged_val

    chain = Chain.from_points(arr, itinerary, points)
    return _classify(arr, itinerary, A, chain, B, opts, value, iterations)


def _classify(arr, itinerary, A, chain, B, opts: SolverOptions,
              value: float, iterations: int) -> MinimizeResult:
    scale = float(np.linalg.norm(B - A))
    points = chain.points
    pts_all = np.vstack([np.asarray(A)[None, :], points, np.asarray(B)[None, :]])
    gaps = np.linalg.norm(np.diff(pts_all, axis=0), axis=1)

    def done(cls, traj=None, eig=None, msg=""):
        g_norm = _safe_grad_norm(arr, itinerary, A, chain, B, opts)
        return MinimizeResult(chain, value, g_norm, cls, traj, eig, iterations, msg)

    if np.any(gaps <= opts.coincidence_tol * max(scale, 1e-30)):
        return done(Classification.GHOST,
                    msg="consecutive vertices collapse; minimizer leaves the trajectory space")

    units = np.diff(pts_all, axis=0) / gaps[:, None]
    for j, idx in enumerate(itinerary):
        sub = arr.subspaces[idx]
        for edge in (units[j], units[j + 1]):
            if np.linalg.norm(sub.perp(edge)) <= opts.edge_tol:
                return done(Classification.EDGE_IN_SUBSPACE,
                            msg=f"an edge at vertex {j + 1} lies inside {sub.name}")

    if not is_generic(arr, A, points, B, itinerary,
                      tol=opts.membership_tol * max(1.0, scale)):
        return done(Classification.NON_GENERIC_RAY,
                    msg="configuration violates genericity (adjacent membership or ray recrossing)")

    traj = BilliardTrajectory(np.asarray(A, float), np.asarray(B, float),
                              points, itinerary)
    eig = None
    try:
        model = hessian(arr, itinerary, A, chain, B, coincidence_tol=opts.coincidence_tol)
        eig = model.min_eigenvalue()
    except NonSmoothPoint:
        pass
    return done(Classification.VALID, traj=traj, eig=eig)


def _safe_grad_norm(arr, itinerary, A, chain, B, opts) -> float:
    try:
        g = gradient_stacked(arr, itinerary, A, chain, B,
                             coincidence_tol=opts.coincidence_tol)
        return float(np.linalg.norm(g))
    except NonSmoothPoint:
        return math.nan


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
