"""Damped-Newton minimization of the polygonal path length over a chain.

The path length is convex on the product of subspaces and has a unique global
minimum for anchors off the collision locus, but it is non-smooth exactly
where consecutive vertices collide, and minimizers may sit there (ghosts).
The solver therefore minimizes the smoothed length sum(sqrt(r^2 + mu^2)) by
damped Newton and drives mu to zero; a minimizer whose gaps collapse along the
continuation is a ghost.  Smooth minimizers get a final exact-Newton polish
on the true length.

A cold solve starts from the spring chain.  As mu grows the smoothed length
tends to sum(mu + r^2 / 2 mu), whose minimizer is the minimizer of sum
|d_e|^2 over the edges d_e: the chain Laplacian (the Hessian of 1/2 sum
|d_e|^2, SPD for every itinerary) inverted on the anchors' right-hand side,
which lives in the first and last vertex blocks alone.  The continuation
opens at mu = scale, solved loosely (|grad| <= OPEN_TOL).  There mu dwarfs
every gap and the smoothed length is close to that limit, so the spring
chain is already near the stage's minimizer (from the chord, Newton spent
three or four passes reaching it); a start at mu = 1e-2 scale backtracks
through about three value passes for every derivative pass instead.  The
later stages run mu = 1e-2 ... 1e-14 scale to tolerance 1e-9.

The gradient of the length is a sum of differences of unit vectors, so it
has no unit: every stop test compares |grad| with its tolerance alone, and a
solve stops at the same point of a table whatever the scale of its anchors.

A ghost is certified exactly, independently of mu, and need not run every
stage.  The length is convex, so a chain is its global minimum if and only
if 0 lies in the subdifferential: there are edge multipliers u_e with
u_e = d_e / |d_e| on every open edge, |u_e| <= 1 on every collapsed edge
and B_i (u_{i-1} - u_i) = 0 at every vertex, the conservation of momentum
at a collision in the subdifferential sense (Burago, Ferleger and
Kononenko).  After each stage with an interior gap within CERT_WINDOW * mu,
the opening stage at mu = scale included, and once more after the last
stage, the certificate joins the vertices of the shortest gaps into runs,
makes each run one point on the intersection of its subspaces (a stratum of
the collision locus), solves that reduced chain by exact Newton, and looks
for collapsed-edge multipliers inside the balls |u_e| <= 1 - CERT_MARGIN
that meet the vertex equations to rounding level.  A chain that passes is
returned; no tolerance on the length enters.  A Farkas test ends most
multiplier searches that must fail before any Newton step, so a failed
attempt is cheap.

A free vertex of the reduced chain between two collapsed runs sits on a
segment along which the exact length is flat.  The reduced exact Hessian
therefore has every eigenvalue up to LIFT times its largest raised to the
largest (_ReducedProblem): the polish then no longer slides that vertex to
an end of its segment on rounding noise (where a gap below the coincidence
floor failed the certificate); on the four-body partial collapses the tests
draw, the stage that certifies no longer depends on rounding in the start.
The lift changes only the steps of the reduced polish; _multipliers_certify
still checks every chain it accepts.

A smooth start needs no continuation at all.  When the caller's initial
chain already lies in Newton's quadratic basin -- its first exact (mu = 0)
Newton step is at most WARM_GATE of the chain's shortest edge, as for the
solved chain of a neighbouring anchor pair -- the solver polishes it by exact
Newton past grad_tol and, if no gap sinks to the merge threshold on the way,
classifies it directly (iterations == 0).  A smooth critical point of the
convex path length is its global minimizer, so this classifies as a cold
solve would.  Any other start, including the random chains of multistart,
fails the gate and runs the continuation from the given chain unchanged.

What depends on the itinerary alone is kept in solve plans: small LRU
caches keyed on the content of the itinerary's stacked bases, which hold
read-only arrays (the columns of the inverse chain Laplacian at the first
and last vertex blocks, and for each run set the certificate's
intersection bases, reduced bases and factored vertex equations), so a hit
returns exactly what recomputing would.

Every stage runs the one damped-Newton core here (full-step local phase,
Armijo backtracking, jittered Cholesky solve), which the certificate's
reduced polish and the thickened barrier stages and wall polish reuse with
their own coordinates and retractions.  The certificate's search for collapsed-edge
multipliers minimizes no value, and is a short Newton loop of its own.

Classification order (coincidence, edge-in-subspace, non-generic rays, valid)
mirrors the exclusions that define membership in the trajectory space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .arrangement import MEMBERSHIP_TOL, Arrangement, Itinerary, _project, intersection_basis
from .action import (Chain, HessianModel, _edge_lengths, _edge_terms, _point_list, _stacked,
                     _to_coords, action)
from .errors import InputError, MaxIterations, NonSmoothPoint, PreconditionError
from .trajectory import BilliardTrajectory, _chain_is_generic


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
OPEN_TOL = 1e-4        # the opening stage (mu = scale) stops at |grad| <= this
CERT_WINDOW = 10.0     # certify a stage once an interior gap is within this * mu
CERT_MARGIN = 1e-9     # certified collapsed-edge multipliers: |u_e| <= 1 - this
CERT_TRIES = 4         # thresholds tried per certificate
CERT_RESIDUAL = 1e-12  # stationarity residual accepted as rounding
MULTIPLIER_STEPS = 30  # Newton steps of the collapsed-multiplier search
INSIDE = 0.25          # a start row on or outside its ball is scaled to this * bound
WARM_GATE = 1e-2       # warm start: first exact Newton step / shortest edge
WARM_AIM = 1e-4        # warm polish targets this * grad_tol, accepts grad_tol
LIFT = 1e-8            # reduced exact Hessian: eigenvalues up to this * max are lifted
PLANS = 4              # entries of each solve-plan cache (itineraries, run sets)
GHOST_MESSAGE = "consecutive vertices collapse; minimizer leaves the trajectory space"


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 400
    grad_tol: float = 1e-10          # on |grad|, which has no unit
    coincidence_tol: float = 1e-9    # gap below this * scale is a ghost point
    edge_tol: float = 1e-9           # edge direction within this of a subspace
    initial_chain: Chain | None = None


@dataclass(frozen=True)
class MinimizeResult:
    """A solve's chain, value and classification.

    A smooth result is classified from the exact (mu = 0) kernel pass at
    which the Newton core stopped, read as a ``HessianModel``; the model of
    a VALID result is kept as ``model``, and ``hessian_min_eig``, the
    smallest eigenvalue of its normal-form operator, is computed from it on
    first read.
    """

    chain: Chain
    value: float
    grad_norm: float
    classification: Classification
    trajectory: BilliardTrajectory | None
    iterations: int          # smoothing stages run, the opening stage at mu =
                             # scale included (4 for a cold valid two-line
                             # solve, fewer for certified ghosts; 0 when a warm
                             # start was polished directly)
    message: str = ""
    model: HessianModel | None = field(default=None, repr=False, compare=False)

    @property
    def is_valid(self) -> bool:
        return self.classification is Classification.VALID

    @cached_property
    def hessian_min_eig(self) -> float | None:
        """``HessianModel.min_eigenvalue`` at a VALID chain, computed once, on
        first read; None for every other class and where the per-vertex norm
        degenerates (NonSmoothPoint)."""
        if self.model is None:
            return None
        try:
            return self.model.min_eigenvalue()
        except NonSmoothPoint:
            # |a_i| can round to 1 for an edge just outside edge_tol
            return None


def initial_chain_chord(arr: Arrangement, itinerary: Itinerary, A, B) -> Chain:
    """Default start: project equally spaced chord points onto their subspaces."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    s = np.arange(1, len(itinerary) + 1) / (len(itinerary) + 1)
    chord = (1 - s)[:, None] * A + s[:, None] * B
    return Chain.from_points(arr, itinerary, _project(arr.bases_of(itinerary), chord))


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

    The edges of a point are measured once: value and edge_pass keep the
    edge pass of the last point they measured, and derivatives and the gap
    tests at that same point (the same array, at the same mu^2) read it.
    derivatives also keeps its own pass, which exact_pass hands to the
    classification of the point the Newton core stopped at.
    """

    def __init__(self, bases, A, B):
        self.bases = bases
        self.bases_t = bases.transpose(0, 2, 1)
        self.k, self.m, self.dim = self.bases.shape
        # coordinates of zero basis rows, which pad a run's intersection in
        # a reduced chain; a unit diagonal there keeps Newton definite
        self.pad = np.flatnonzero(~bases.any(axis=2))
        self.A = A
        self.B = B
        # A, q_1..q_k, B; the chain rows are overwritten on every call
        self._pts = np.empty((self.k + 2, self.dim))
        self._pts[0] = A
        self._pts[-1] = B
        self._measured = None   # (x, mu2, edges, soft lengths) last measured
        self._derived = None    # (x, mu2, soft lengths, units, g, H) last derived

    @cached_property
    def key(self):
        """Content key of the bases, (shape, bytes), under which the solve
        plan caches keep what depends on the itinerary alone."""
        return self.bases.shape, self.bases.tobytes()

    def points_of(self, x: np.ndarray) -> np.ndarray:
        return (self.bases_t @ x.reshape(self.k, self.m)[:, :, None])[:, :, 0]

    def coords_of(self, points: np.ndarray) -> np.ndarray:
        return _to_coords(self.bases, points).reshape(-1)

    def _point_list(self, x: np.ndarray) -> np.ndarray:
        self._pts[1:-1] = self.points_of(x)
        return self._pts

    def edge_pass(self, x: np.ndarray, mu2: float):
        """Edge vectors and soft lengths at x, measured unless x is the point
        measured last."""
        last = self._measured
        if last is not None and last[0] is x and last[1] == mu2:
            return last[2:]
        edges, soft = _edge_lengths(self._point_list(x), mu2)
        self._measured = (x, mu2, edges, soft)
        return edges, soft

    def value(self, x: np.ndarray, mu2: float) -> float:
        # the Newton core values only points it has not measured yet
        edges, soft = _edge_lengths(self._point_list(x), mu2)
        self._measured = (x, mu2, edges, soft)
        return float(soft.sum())

    def derivatives(self, x: np.ndarray, mu2: float):
        edges, soft = self.edge_pass(x, mu2)
        value, units, grad, diag, off = _edge_terms(edges, soft)
        g, H = _stacked(self.bases, grad, diag, off)
        H[self.pad, self.pad] = 1.0
        self._derived = (x, mu2, soft, units, g, H)
        return value, g, H

    def exact_pass(self, x: np.ndarray):
        """HessianModel's edge_pass (lengths, unit edges, gradient, Hessian)
        from the last derivatives, if they were taken at x with mu = 0;
        None otherwise.  Only a problem without padded coordinates (every
        basis row nonzero, as for an itinerary's own bases) gives the
        model's Hessian there."""
        last = self._derived
        if last is None or last[0] is not x or last[1] != 0.0:
            return None
        return last[2:]


class _ReducedProblem(_StackedProblem):
    """The reduced chain of a certificate, whose exact (mu = 0) Hessian has
    every eigenvalue up to LIFT times its largest (rounding-level curvature,
    and the padded coordinates) raised to the largest.

    A free vertex between two collapsed runs leaves the exact length flat
    along the segment between them; Newton's step along that direction is
    rounding noise over a rounding-level curvature, and would slide the
    vertex to an end of the segment.  Lifted, the step stays put there.
    """

    def derivatives(self, x: np.ndarray, mu2: float):
        value, g, H = super().derivatives(x, mu2)
        if mu2 == 0.0:
            # the unit diagonal of the padded coordinates is no curvature, so
            # it does not set the scale; they are lifted with the flat ones
            H[self.pad, self.pad] = 0.0
            lam, V = np.linalg.eigh(H)
            flat = lam <= LIFT * lam[-1]
            H = H + (V[:, flat] * (lam[-1] - lam[flat])) @ V[:, flat].T
        return value, g, H


def _spd_solve(M: np.ndarray, b: np.ndarray):
    """Solution of M s = b, or None where Cholesky finds M not positive
    definite: the factor decides definiteness, and the solve gives s."""
    try:
        np.linalg.cholesky(M)
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        return None


def _solve_spd(H: np.ndarray, g: np.ndarray):
    """Newton step -H^{-1} g by Cholesky, adding growing diagonal jitter until
    it is a descent step; None if five attempts give none.

    The first attempt factors H itself; H + jitter I and the trace that
    scales the jitter are formed only once one is needed.
    Raises ValueError on non-finite input.
    """
    n = H.shape[0]
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise ValueError("array must not contain infs or NaNs")
    if n == 0:
        return None
    jitter = 0.0
    for _ in range(5):
        step = _spd_solve(H + jitter * np.eye(n) if jitter else H, -g)
        if step is not None and np.dot(g, step) < 0:
            return step
        jitter = jitter * 100.0 if jitter else 1e-14 * max(float(np.trace(H)) / n, 1.0)
    return None


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: a solve plan shares it between solves."""
    array.flags.writeable = False
    return array


# Solve plans: what a solve needs that depends only on its itinerary's
# stacked bases (and, for a certificate, on its run set) is kept in small LRU
# caches keyed on the content of the bases, (shape, bytes): a hit returns
# exactly what recomputing would, arrangements with equal bases share
# entries, and no entry can go stale.

@lru_cache(maxsize=PLANS)
def _spring_columns(shape, data) -> np.ndarray:
    """The (k m, 2m) columns of the inverse chain Laplacian at the first and
    last vertex blocks, over the stacked bases held in data.  The Laplacian
    is the Hessian of 1/2 sum_e |d_e|^2 (ambient diagonal blocks 2I,
    off-diagonal blocks -I) reduced by _stacked; the edges determine the
    chain, so it is SPD for every itinerary.  At k = 1 both column blocks
    are the one block."""
    bases = np.frombuffer(data).reshape(shape)
    k, m, dim = shape
    eye = np.eye(dim)
    _, H = _stacked(bases, np.zeros((k, dim)), np.broadcast_to(2.0 * eye, (k, dim, dim)),
                    np.broadcast_to(-eye, (k - 1, dim, dim)))
    ends = np.zeros((k * m, 2 * m))
    ends[:m, :m] = np.eye(m)
    ends[-m:, m:] = np.eye(m)
    return _frozen(np.linalg.solve(H, ends))


def _spring_coords(problem) -> np.ndarray:
    """Stacked coordinates of the spring chain, the minimizer of sum_e
    |d_e|^2, to which the smoothed length's minimizers tend as mu grows:
    the cached end columns of the inverse chain Laplacian applied to the
    right-hand side, B_1 A at the first vertex and B_k B at the last."""
    return _spring_columns(*problem.key) @ np.concatenate(
        (problem.bases[0] @ problem.A, problem.bases[-1] @ problem.B))


class _RunPlan:
    """The certificate's structure for one run set of an itinerary, all of
    it read-only: the intersection basis of each run (meets), the vertices
    the reduced chain keeps (keep, the first of each run), the reduced
    chain's bases (reduced, each run's meet padded by zero rows) and the
    collapsed edges (shut, (k+1,)); pinned when no kept vertex has a free
    coordinate.  The vertex equations of the collapsed edges' multipliers
    and the kernel basis of their affine set, in whose coordinates
    _lowest_multipliers takes its Newton steps, are factored on first use."""

    def __init__(self, bases, runs):
        self.bases = bases
        self.meets = tuple(_frozen(intersection_basis(bases[a:b])) for a, b in runs)
        keep = np.ones(len(bases), dtype=bool)
        shut = np.zeros(len(bases) + 1, dtype=bool)
        reduced = bases.copy()
        for (start, stop), meet in zip(runs, self.meets):
            keep[start + 1:stop] = False
            shut[start + 1:stop] = True
            reduced[start] = 0.0
            reduced[start, :len(meet)] = meet
        self.keep, self.shut, self.reduced = map(_frozen, (keep, shut, reduced[keep]))
        self.pinned = not self.reduced.any()

    @cached_property
    def equations(self):
        """(cols, rows, left, s): the collapsed edges cols, and the SVD
        left.T diag(s) rows of their coefficients in the vertex equations
        (edge e enters vertex e and leaves vertex e - 1), cut at rank."""
        k, m, dim = self.bases.shape
        cols = np.flatnonzero(self.shut)
        M = np.zeros((k, m, len(cols), dim))
        j = np.arange(len(cols))
        M[cols, :, j, :] = self.bases[cols]
        M[cols - 1, :, j, :] = -self.bases[cols - 1]
        U, s, rows = map(_frozen, np.linalg.svd(M.reshape(k * m, -1), full_matrices=False))
        rank = int(np.sum(s > 1e-10 * s[0]))
        return _frozen(cols), rows[:rank], U[:, :rank].T, s[:rank]

    @cached_property
    def kernel(self) -> np.ndarray:
        """Orthonormal basis (C, dim, d) of the null space of the rows of
        the vertex equations, over the C collapsed edges."""
        cols, rows, _, _ = self.equations
        q = np.linalg.qr(rows.T, mode="complete")[0]
        return _frozen(q[:, len(rows):].reshape(len(cols), self.bases.shape[2], -1))


@lru_cache(maxsize=PLANS)
def _run_plan(shape, data, runs) -> _RunPlan:
    return _RunPlan(np.frombuffer(data).reshape(shape), runs)


def _add_step(x, step, t):
    return x + t * step


def _stages(scale: float) -> list[tuple[float, float]]:
    """(mu, tol) of each stage: mu = scale to OPEN_TOL, then 1e-2 ... 1e-14 scale to 1e-9."""
    return [(scale, OPEN_TOL)] + [(scale * 10.0 ** -e, 1e-9) for e in range(2, 15, 2)]


def _damped_newton(x, derivatives, value_of, retract, tol, step_tol, max_iters,
                   start=None, first_step=None):
    """Damped Newton from x; returns (x, value, grad_norm, reason).

    derivatives(x) gives the value, gradient and Hessian in the coordinates
    of the step (start, if given, holds them at x already, and first_step
    the Newton step they give), value_of(x) the same value alone, and
    retract(x, step, t) the point reached by the step scaled by t, or None
    where that is infeasible.
    Backtracks on the value while decreases are resolvable; once they sink
    below the rounding floor of the value, the full step is accepted as long
    as it keeps contracting the gradient norm, which drives the gradient to
    its own machine floor instead of stalling around sqrt(eps).  The full
    step's point is valued first and differentiated only when that value
    can let it be kept (within rounding of the current value, where only
    its gradient can still reject it); _StackedProblem's derivatives then
    read the edge pass of that value.  reason is
    "converged" (grad_norm <= tol), "floor" (no resolvable
    progress left, or an accepted step no longer than step_tol),
    "no_descent" (no descent step) or "max_iters".
    """
    value, g, H = derivatives(x) if start is None else start
    grad_norm = math.sqrt(g @ g)
    for _ in range(max_iters):
        if grad_norm <= tol:
            return x, value, grad_norm, "converged"
        step = _solve_spd(H, g) if first_step is None else first_step
        first_step = None
        if step is None:
            return x, value, grad_norm, "no_descent"
        # local phase: the full Newton step contracts the gradient near the
        # minimum, where value differences are already below rounding.  A
        # value above that rounding bound fails Armijo at t = 1 as well (the
        # slope is negative), so the full step is valued first and
        # differentiated only below it
        full = retract(x, step, 1.0)
        kept = None
        if full is not None:
            fval = value_of(full)
            if fval <= value + 1e-12 * max(1.0, value):
                kept = derivatives(full)
                full_norm = math.sqrt(kept[1] @ kept[1])
                if full_norm <= 0.5 * grad_norm:
                    x, (value, g, H), grad_norm = full, kept, full_norm
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
        value, g, H = kept if t == 1.0 else derivatives(x)
        grad_norm = math.sqrt(g @ g)
        if small:
            return x, value, grad_norm, "floor"
    return x, value, grad_norm, "max_iters"


def _warm_polish(problem, x, tol, detect, max_iters):
    """(coordinates, length) of the exact-Newton polish of a warm start x, or
    None if x is not one.

    x is warm when every gap exceeds detect and its first exact (mu = 0)
    Newton step is at most WARM_GATE of the shortest gap.  The polish aims
    at WARM_AIM * tol, typically one quadratic step past tol: a warm chain's
    error depends on where its neighbour sat, so left at tol it would be
    noise that finite differences over a patch divide by the spacing.  It is
    accepted once the gradient meets tol, with every gap still above detect.
    """
    shortest = problem.edge_pass(x, 0.0)[1].min()
    if not shortest > detect:
        return None
    start = problem.derivatives(x, 0.0)
    step = _solve_spd(start[2], start[1])
    if step is None or math.sqrt(step @ step) > WARM_GATE * shortest:
        return None
    x, value, grad_norm, _ = _damped_newton(
        x, partial(problem.derivatives, mu2=0.0), partial(problem.value, mu2=0.0),
        _add_step, WARM_AIM * tol, STEP_TOL, max_iters, start=start, first_step=step)
    if grad_norm > tol or problem.edge_pass(x, 0.0)[1].min() <= detect:
        return None
    return x, value


def _snapped(problem, points: np.ndarray, runs, meets=None):
    """Points with the vertices of each run replaced by the projection of
    their mean onto the intersection of the run's subspaces (the origin when
    they meet only there); meets, if given, holds the runs' intersection
    bases.
    """
    if meets is None:
        meets = [intersection_basis(problem.bases[start:stop]) for start, stop in runs]
    points = points.copy()
    for (start, stop), meet in zip(runs, meets):
        points[start:stop] = meet.T @ (meet @ points[start:stop].mean(axis=0))
    return points


def _reduced_minimum(problem, points, runs, floor, mu2):
    """Points of the exact (mu = 0) minimum over chains whose runs are each
    one point on the intersection of the run's subspaces, from the snap of
    points; None if it is not found with every reduced edge above floor.

    The reduced chain keeps the first vertex of each run, with the run's
    intersection basis padded by zero rows to the common m.  Its free
    vertices are solved at the next stage's smoothing, which carries them
    past the kinks of the exact length, then polished by exact Newton if
    that is then in its quadratic basin (_warm_polish); a run set missing a
    collapsed edge fails that gate.  A pinned run set (plan.pinned) has no
    free coordinate to solve: its snapped chain is tested against floor on
    the reduced edges alone.
    """
    plan = _run_plan(*problem.key, tuple(runs))
    points = _snapped(problem, points, runs, plan.meets)
    if plan.pinned:
        # every run meets only at the origin and no vertex is free: the
        # snapped chain is the only one, and only its edges are left to test
        _, lengths = _edge_lengths(_point_list(problem.A, points[plan.keep], problem.B))
        return points if lengths.min() > floor else None
    reduced = _ReducedProblem(plan.reduced, problem.A, problem.B)
    y = reduced.coords_of(points[plan.keep])
    if reduced.pad.size < y.size:
        mu2 *= 1e-4
        y, *_ = _damped_newton(y, partial(reduced.derivatives, mu2=mu2),
                               partial(reduced.value, mu2=mu2), _add_step,
                               1e-9, STEP_TOL, max_iters=40)
        polished = _warm_polish(reduced, y, CERT_RESIDUAL, floor, 40)
        if polished is None:
            return None
        y = polished[0]
    elif reduced.edge_pass(y, 0.0)[1].min() <= floor:
        return None
    return reduced.points_of(y)[np.cumsum(plan.keep) - 1]


def _lowest_multipliers(w, start, plan, bound):
    """Point of the affine set w + ker(rows) of the run plan's vertex
    equations whose squared norms |v_e|^2 are all below bound, or None if
    none is found; w (C, dim) is a point of that set, start (C, dim) the
    stage's smoothed directions on the collapsed edges.

    w itself is tried first.  Then a Farkas test (theorem of alternatives;
    Boyd & Vandenberghe, sec. 5.8) ends most searches that must fail before
    any Newton step: a = w - K K^T w, the least-norm point of the set, lies
    in the row space, so <a, v> = |a|^2 at every point v of the set, which
    |v_e| < r = sqrt(bound) on every edge would keep below r sum_e |a_e|.
    Otherwise infeasible-start Newton on the barrier -sum_e log(bound -
    |v_e|^2) over the affine set (Boyd & Vandenberghe, sec. 10.3) runs from
    start, whose rows on or outside their ball are first scaled into it.  A
    point is w + K z + y, K the plan's kernel and y the residual off the
    affine set: each Newton step removes y and moves z by the solve of the
    d x d reduced system, and is halved only while a norm would reach the
    bound (y then shrinks by the untaken fraction).  The first full step
    lands on the affine set inside every ball, which ends the search; a
    step below STEP_FLOOR, or MULTIPLIER_STEPS steps, give None.
    """
    if (w * w).sum(axis=1).max() < bound:
        return w
    kernel = plan.kernel
    C, dim = w.shape
    K = kernel.reshape(C * dim, -1)
    # the Farkas exit, with a margin of 1e-12 for rounding
    a = w.reshape(-1) - K @ (K.T @ w.reshape(-1))
    reach = math.sqrt(bound) * np.linalg.norm(a.reshape(C, dim), axis=1).sum()
    if kernel.shape[2] == 0 or a @ a > (1.0 + 1e-12) * reach:
        return None
    norms2 = (start * start).sum(axis=1)
    outside = norms2 >= bound
    v = start.copy()
    v[outside] *= np.sqrt(INSIDE * bound / norms2[outside])[:, None]
    w = w.reshape(-1)
    z = K.T @ (v.reshape(-1) - w)
    y = v.reshape(-1) - w - K @ z
    for _ in range(MULTIPLIER_STEPS):
        # barrier terms 1 / (bound - |v_e|^2); per edge, the Hessian block is
        # 2 inv I + 4 inv^2 v v^T and the gradient 2 inv v
        inv = 1.0 / (bound - (v * v).sum(axis=1))
        each = np.repeat(inv, dim)
        J = (kernel * v[:, :, None]).sum(axis=1)
        JI = J.T * (inv * inv)
        H = 2.0 * (K.T * each) @ K + 4.0 * JI @ J
        # the Newton step is -y + K dz, where K^T H K dz = -K^T (g - H y)
        vy = (v * y.reshape(C, dim)).sum(axis=1)
        dz = _spd_solve(H, 4.0 * JI @ vy - 2.0 * K.T @ (each * (v.reshape(-1) - y)))
        if dz is None:
            return None
        t = 1.0
        while True:
            trial = (w + K @ (z + t * dz) + (1.0 - t) * y).reshape(C, dim)
            if (trial * trial).sum(axis=1).max() < bound:
                break
            t *= 0.5
            if t < STEP_FLOOR:
                return None
        if t == 1.0:
            return trial
        v, z, y = trial, z + t * dz, (1.0 - t) * y
    return None


def _multipliers_certify(problem, points, runs, start):
    """The length of points if edge multipliers u_e prove them a global
    minimum, None otherwise: u_e = d_e / |d_e| on every open edge, |u_e| <=
    1 - CERT_MARGIN on the collapsed edges inside the runs, and B_i (u_{i-1}
    - u_i) = 0 at every vertex to rounding level.

    The collapsed u_e are first the stage's smoothed directions start,
    projected onto the affine set of the vertex equations.  Where a norm of
    the projection exceeds the bound, _lowest_multipliers searches the
    affine set by infeasible-start Newton from the directions themselves,
    which lie inside the balls up to rounding.  Every point it returns is
    checked here against CERT_RESIDUAL like the projection.
    """
    plan = _run_plan(*problem.key, tuple(runs))
    edges, lengths = _edge_lengths(_point_list(problem.A, points, problem.B))
    open_ = ~plan.shut
    u = np.zeros_like(edges)
    u[open_] = edges[open_] / lengths[open_][:, None]
    # residual of the vertex equations without the collapsed edges
    fixed = _to_coords(problem.bases, u[:-1] - u[1:]).reshape(-1)
    cols, rows, left, s = plan.equations
    # the start moved onto the solutions of M w = -fixed
    w = start[cols].reshape(-1)
    w = w - rows.T @ (rows @ w + (left @ fixed) / s)
    w = _lowest_multipliers(w.reshape(-1, problem.dim), start[cols], plan,
                            (1.0 - CERT_MARGIN) ** 2)
    if w is None:
        return None
    u[cols] = w
    residual = np.linalg.norm(_to_coords(problem.bases, u[:-1] - u[1:]), axis=1)
    return float(lengths.sum()) if residual.max() <= CERT_RESIDUAL else None


def _certified(problem, x, mu2, floor, limit):
    """(length, points) of a chain certified as the global minimum by edge
    multipliers, or None.

    Runs are joined by the interior gaps of x up to a threshold: first the
    largest gap within limit, then each larger gap in turn (collapsed edges
    whose multiplier is near unit norm stay open longest), then each smaller
    one.  The edges are those of the stage's exact pass at x, and the length
    that of the certificate's own pass at the accepted chain.
    """
    edges, gaps = problem.edge_pass(x, 0.0)
    start = edges / np.sqrt((edges * edges).sum(axis=1) + mu2)[:, None]
    interior = np.unique(gaps[1:-1])
    first = np.searchsorted(interior, limit, side="right") - 1
    if first < 0:
        return None
    chain = problem.points_of(x)
    for j in [*range(first, len(interior)), *range(first - 1, -1, -1)][:CERT_TRIES]:
        runs = _collapsing_runs(gaps, interior[j])
        try:
            points = _reduced_minimum(problem, chain, runs, floor, mu2)
            if points is not None:
                length = _multipliers_certify(problem, points, runs, start)
                if length is not None:
                    return length, points
        except np.linalg.LinAlgError:
            pass
    return None


def _certify_ghost(problem, x, mu2, floor):
    """(length, points) of the ghost certified exactly after the smoothing
    stage mu2 whose minimizer is x, or None.

    The seam of the continuation: the runs are tried from the largest gap
    within CERT_WINDOW * mu, and an accepted chain is the global minimum up
    to rounding, so minimize returns it and skips the remaining stages.
    """
    return _certified(problem, x, mu2, floor, CERT_WINDOW * math.sqrt(mu2))


def minimize(arr: Arrangement, itinerary: Itinerary, A, B,
             opts: SolverOptions = SolverOptions()) -> MinimizeResult:
    """Find the global minimizer of the path length over the chain space.

    Uniqueness of the minimum is a theorem for anchors off the collision
    locus; this routine verifies nothing global by itself (see multistart) but
    converges to the minimum by smoothed-Newton continuation from any start.
    Without opts.initial_chain it starts from the spring chain, the minimizer
    of the sum of squared edge lengths; a certified ghost is returned as
    GHOST at once, since its collapsed runs give it a zero-length edge.

    A ghost's classification and value are reproducible, but its chain need
    not be: when a free vertex sits between two collapsed runs inside its own
    subspace, it slides along the segment between them at constant length,
    and the returned chain is one point of that minimizing segment, which
    may depend on the start.  The certificate's reduced polish holds that
    vertex in place rather than sliding it on rounding noise: on the
    four-body ghosts of this kind that the tests draw, starts moved by up
    to 1e-2 all certify at one stage with one value.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != (arr.dim,) or B.shape != (arr.dim,):
        raise InputError("anchors must match the arrangement dimension")
    _check_size(np.array([A, B]), arr.dim, "anchors")
    itinerary.validate_against(arr)
    scale = float(np.linalg.norm(B - A))
    # the anchors' locus test here is the one genericity asks for, at the
    # same tolerance, so classification does not repeat it
    near_A, near_B = arr.distance_to_locus(A), arr.distance_to_locus(B)
    if min(near_A, near_B) <= MEMBERSHIP_TOL * max(1.0, scale):
        raise PreconditionError("anchors must lie off the collision locus")
    scale = max(scale, near_A, near_B)

    if opts.initial_chain is not None:
        _check_start(arr, itinerary, opts.initial_chain)
    coincidence = opts.coincidence_tol * scale

    if arr.bases.shape[1] == 0:
        # chain is pinned (all subspaces zero-dimensional); nothing to minimize
        chain = Chain.from_coords(arr, itinerary, np.zeros((len(itinerary), 0)))
        return _classify(arr, itinerary, A, chain, B, opts,
                         action(A, chain.points, B), 0)

    problem = _StackedProblem(arr.bases_of(itinerary), A, B)
    detect = MERGE_DETECT * scale
    if opts.initial_chain is None:
        # the minimizer of the smoothed length's limit as mu grows
        x = _spring_coords(problem)
    else:
        x = problem.coords_of(opts.initial_chain.points)
        # a caller's chain in Newton's basin (a solved neighbour) is polished
        # at mu = 0 directly; any other falls through to the continuation
        warm = _warm_polish(problem, x, opts.grad_tol, detect, opts.max_iters)
        if warm is not None:
            x, value = warm
            return _classify(arr, itinerary, A, _iterate_chain(problem, x), B, opts,
                             value, 0, problem.exact_pass(x))

    # continuation in the smoothing parameter; warm-started Newton each stage,
    # opened loosely at mu = scale.  Once every gap dwarfs mu the smoothing
    # is irrelevant and the exact polish takes over.  Ghost candidates keep
    # gaps ~ mu; each of their stages tries the multiplier certificate, and
    # stops the continuation as soon as it holds.
    iterations = 0
    certified = None
    for mu, tol in _stages(scale):
        mu2 = mu * mu
        x, *_ = _damped_newton(x, partial(problem.derivatives, mu2=mu2),
                               partial(problem.value, mu2=mu2), _add_step,
                               tol, STEP_TOL, max_iters=40)
        iterations += 1
        gaps = problem.edge_pass(x, 0.0)[1]
        if gaps.min() > 1e4 * mu:
            break
        if gaps[1:-1].min(initial=math.inf) <= CERT_WINDOW * mu:
            certified = _certify_ghost(problem, x, mu2, coincidence)
            if certified is not None:
                break

    if certified is None:
        if gaps.min() > coincidence:
            x, value, grad_norm, reason = _damped_newton(
                x, partial(problem.derivatives, mu2=0.0),
                partial(problem.value, mu2=0.0), _add_step,
                opts.grad_tol, STEP_TOL, max_iters=opts.max_iters)
            stalled = reason == "no_descent" or (
                reason in ("floor", "max_iters")
                and grad_norm > math.sqrt(opts.grad_tol))
            if stalled:
                raise MaxIterations(
                    f"exact polish stalled ({reason}) with |grad| = {grad_norm:.3e}")
        # collapsed runs get the same certificate: a chain it accepts is the
        # minimum and has coincident runs
        certified = _certified(problem, x, mu2, coincidence, detect)
    if certified is not None:
        # every run of a certified chain is one point, so the chain has a
        # zero-length edge and leaves the trajectory space: no HessianModel
        # is needed to classify it
        value, points = certified
        return MinimizeResult(Chain.from_points(arr, itinerary, points), value, math.nan,
                              Classification.GHOST, None, iterations, GHOST_MESSAGE)
    chain = _iterate_chain(problem, x)
    return _classify(arr, itinerary, A, chain, B, opts, action(A, chain.points, B),
                     iterations, problem.exact_pass(x))


def _check_size(points: np.ndarray, dim: int, what: str) -> None:
    """Raise InputError unless the points are finite, with coordinates small
    enough that squared distances between points of that size stay finite
    in dimension dim.  The Newton core would otherwise fail in its Cholesky
    solve or by overflow."""
    limit = math.sqrt(np.finfo(float).max / (4.0 * dim))
    # NaN fails the comparison too
    if not float(np.abs(points).max(initial=0.0)) <= limit:
        raise InputError(f"{what} must be finite, with coordinates of "
                         f"magnitude at most {limit:.3g}")


def _check_start(arr: Arrangement, itinerary: Itinerary, chain: Chain) -> None:
    """Raise InputError unless a caller's start chain has one point per
    itinerary entry and passes _check_size; a wrong shape would otherwise
    fail on a broadcast in the Newton core."""
    points = np.asarray(chain.points, dtype=float)
    if points.shape != (len(itinerary), arr.dim):
        raise InputError(f"initial chain points have shape {points.shape}, "
                         f"expected {(len(itinerary), arr.dim)}")
    _check_size(points, arr.dim, "initial chain")


def _iterate_chain(problem: _StackedProblem, x: np.ndarray) -> Chain:
    """The chain of the Newton core's iterate x itself, with no coordinate
    round trip, so that its exact pass describes the returned chain."""
    return Chain(x.reshape(problem.k, problem.m), problem.points_of(x))


def _classify(arr, itinerary, A, chain, B, opts: SolverOptions,
              value: float, iterations: int, edge_pass=None) -> MinimizeResult:
    """Classify the solved chain from one HessianModel, the exact kernel pass
    at the chain: its coincidence test is the ghost test, and its unit edges,
    tangential projections a_in / a_out and gradient give the rest.  A VALID
    chain's trajectory is built from the same unit edges and lengths, and
    its normal-form eigenvalue is left to MinimizeResult.hessian_min_eig,
    which computes it when read.  edge_pass is the exact (mu = 0) pass at
    which the Newton core stopped, when it stopped at this chain; without
    it (a "floor" stop, a certified ghost) the chain is measured.  The
    anchors' locus test of genericity is minimize's precondition and is not
    repeated."""
    scale = float(np.linalg.norm(B - A))
    points = chain.points

    def done(cls, grad_norm, traj=None, model=None, msg=""):
        return MinimizeResult(chain, value, grad_norm, cls, traj, iterations, msg, model)

    try:
        model = HessianModel(arr, itinerary, A, chain, B, opts.coincidence_tol, edge_pass)
    except NonSmoothPoint:
        return done(Classification.GHOST, math.nan, msg=GHOST_MESSAGE)

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

    if not _chain_is_generic(arr, model.bases, A, points, B,
                             MEMBERSHIP_TOL * max(1.0, scale)):
        return done(Classification.NON_GENERIC_RAY, grad_norm,
                    msg="configuration violates genericity (adjacent membership or ray recrossing)")

    traj = BilliardTrajectory(A, B, points, itinerary,
                              edge_pass=(model.unit_edges, model.edge_lengths))
    return done(Classification.VALID, grad_norm, traj=traj, model=model)


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
