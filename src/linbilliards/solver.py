"""Damped-Newton minimization of the polygonal path length over a chain.

The path length is convex on the product of subspaces and has a unique global
minimum for anchors off the collision locus, but it is non-smooth exactly
where consecutive vertices collide, and minimizers may sit there (ghosts).
The solver therefore minimizes the smoothed length sum(sqrt(r^2 + mu^2)) by
damped Newton and drives mu to zero; a minimizer whose gaps collapse along the
continuation is a ghost.  Smooth minimizers end in an exact-Newton polish on
the true length.

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
later stages run mu = 1e-2 ... 1e-14 scale to tolerance 1e-9.  A stage with
an interior gap within CERT_WINDOW * mu tries the ghost certificate below;
any other tries the exact polish (_exact_polish), the one place where a
smooth solve decides that it has converged.  The first to hold ends the
solve.  A continuation that ends with no polished chain and every gap above
the coincidence floor COINCIDENCE_TOL * scale polishes its last chain once
more without the WARM_GATE test, which only saves work (the accept test
proves the result), and raises MaxIterations if that fails too.  The
certificate does not need the opening stage's minimizer: a cold solve
whose spring chain passes the same window at mu = scale tries it there,
before the opening stage's Newton and in place of the attempt after it.  A
ghost proved there returns with iterations == 0 and no Newton pass of the
full chain; a failed attempt leaves the spring chain as it was, and the
opening stage then runs with no certificate attempt after it (a minimizer
outside the window still tries the exact polish).

The gradient of the length is a sum of differences of unit vectors, so it
has no unit: every stop test compares |grad| with its tolerance alone, and a
solve stops at the same point of a table whatever the scale of its anchors.

A ghost is certified exactly, independently of mu, and need not run every
stage.  The length is convex, so a chain is its global minimum if and only
if 0 lies in the subdifferential: there are edge multipliers u_e with
u_e = d_e / |d_e| on every open edge, |u_e| <= 1 on every collapsed edge
and B_i (u_{i-1} - u_i) = 0 at every vertex, the conservation of momentum
at a collision in the subdifferential sense (Burago, Ferleger and
Kononenko).  At a chain with an interior gap within CERT_WINDOW * mu (a
stage's minimizer, or a cold solve's spring chain at mu = scale in place of
the opening stage's), the certificate joins the vertices of the shortest
gaps into runs, makes each run one point on the intersection of its
subspaces (a stratum of the collision locus), solves that reduced chain by
exact Newton, and looks for collapsed-edge multipliers inside the balls
|u_e| <= 1 that meet the vertex equations, both to the rounding level
CERT_RESIDUAL.  A chain that passes is returned; no
tolerance on the length enters, and no other exit proves a ghost.  The
runs' meets span the null space of the vertex equations' transpose, so one
SPD solve gives their pseudo-inverse, with no SVD or rank cut.  The search
starts from the chain's edge directions smoothed at mu / CERT_WINDOW, whose
projection onto the vertex equations lies inside the balls for most ghosts
certified at the spring chain, so most proofs take no Newton step (at
the spring chain mu is the anchors' scale, and the directions smoothed at
mu itself, shorter, left about a third of them to the barrier); a Farkas test
on the least-norm solution ends most searches that must fail before any
Newton step, so a failed attempt is cheap.  A pinned run set (every vertex
at the origin) is snapped in one assignment.  Each attempt
does each piece of work once: its thresholds and runs are chosen on the
gaps as Python floats, its run plan is looked up once for the reduced
chain and the multipliers, and the accepted chain's edges are measured
once, for the floor test, the multipliers and the length.

A smooth start needs no continuation at all.  A caller's initial chain
goes through the same polish, at the same floor, before any stage.  In
Newton's quadratic basin -- its first exact (mu = 0) Newton step at most
WARM_GATE of its shortest edge, as for the solved chain of a neighbouring
anchor pair -- it is polished past GRAD_TOL and classified directly
(iterations == 0), as a cold solve would be: a smooth critical point of the
convex length is its global minimizer.  Any other start fails the gate and
runs the continuation from the given chain unchanged.

The same weak duality proves every VALID and certified GHOST result: from
its multipliers (its unit edges, or the certificate's) _dual_bound gives
MinimizeResult.lower_bound, on first read only, which meets the value.

Every stage runs the one damped-Newton core here (full-step local phase,
Armijo backtracking, jittered Cholesky solve) on one problem class,
_StackedProblem over an itinerary's solve plan (_ItineraryPlan), which the
certificate's reduced polish also builds over a run plan's reduced plan;
the thickened barrier stages and wall polish reuse the core with their own
coordinates and retractions.  The certificate's
search for collapsed-edge multipliers minimizes no value, and is a short
Newton loop of its own.

Classification order (coincidence, edge-in-subspace, non-generic rays, valid)
mirrors the exclusions that define membership in the trajectory space.  A
smooth result is classified from its polish's own arrays and solve plan, by
one stacked projection of its edge and membership rows and one of its rays.
"""

from __future__ import annotations

import bisect
import enum
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .arrangement import (MEMBERSHIP_TOL, Arrangement, Itinerary, _complement, _frozen, _perp,
                          _row_dot, intersection_basis)
from .action import (COINCIDENCE_TOL, Chain, HessianModel, _edge_lengths, _edge_terms,
                     _point_list, _stacked, _to_coords, _to_points, action)
from .errors import InputError, MaxIterations, NonSmoothPoint, PreconditionError
from .trajectory import BilliardTrajectory, _generic


class Classification(enum.Enum):
    VALID = "ValidBilliard"
    GHOST = "Ghost"
    EDGE_IN_SUBSPACE = "EdgeInSubspace"
    NON_GENERIC_RAY = "NonGenericRay"

    def __str__(self):
        return self.value


GRAD_TOL = 1e-10       # a smooth solve stops at |grad| <= this; |grad| has no unit
STEP_TOL = 1e-12       # stagnation threshold on the step norm
ARMIJO = 1e-4          # sufficient-decrease constant of the backtracking
STEP_FLOOR = 1e-12     # smallest backtracking step fraction tried
OPEN_TOL = 1e-4        # the opening stage (mu = scale) stops at |grad| <= this
CERT_WINDOW = 10.0     # certify a stage once an interior gap is within this * mu
CERT_TRIES = 4         # thresholds tried per certificate
CERT_RESIDUAL = 1e-12  # stationarity residual accepted as rounding
MULTIPLIER_STEPS = 30  # Newton steps of the collapsed-multiplier search
INSIDE = 0.25          # a start row with |v|^2 above this * bound is scaled to it
WARM_GATE = 1e-2       # exact polish: first exact Newton step / shortest edge
WARM_AIM = 1e-4        # exact polish targets this * tol, accepts tol
POLISH_ITERS = 400     # Newton steps of the exact polish, cold or warm
EDGE_TOL = 1e-9        # edge direction within this of a subspace lies inside it
PLANS = 4              # entries of each solve-plan LRU: plans, and a plan's run plans
GHOST_MESSAGE = "consecutive vertices collapse; minimizer leaves the trajectory space"


@dataclass(frozen=True)
class MinimizeResult:
    """A solve's chain, value and classification.

    A smooth result is classified from the exact (mu = 0) kernel pass at
    which the Newton core stopped, read as a ``HessianModel``; the model of
    a VALID result is kept as ``model``, and ``hessian_min_eig``, the
    smallest eigenvalue of its normal-form operator, is computed from it on
    first read; so is ``lower_bound``, from the ``multipliers`` (stacked
    bases, anchors and edge multipliers) of a VALID or certified GHOST result.
    A GHOST without a certificate, a chain that ended within COINCIDENCE_TOL
    * scale of a collapse, has no multipliers and no lower bound.
    """

    chain: Chain
    value: float
    grad_norm: float
    classification: Classification
    trajectory: BilliardTrajectory | None
    iterations: int          # smoothing stages run, the opening stage at mu =
                             # scale included (2 for the tests' cold TWOLINE
                             # solve, 1 for the README mirror; 0 when a
                             # caller's start was polished directly or a
                             # cold ghost was certified at the spring chain)
    message: str = ""
    model: HessianModel | None = field(default=None, repr=False, compare=False)
    multipliers: tuple | None = field(default=None, repr=False, compare=False)

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
            # |a_i| can round to 1 for an edge just outside EDGE_TOL
            return None

    @cached_property
    def lower_bound(self) -> float | None:
        """_dual_bound of the multipliers on first read; None without them."""
        return None if self.multipliers is None else _dual_bound(*self.multipliers)


def _collapsing_runs(gaps, detect: float) -> list[tuple[int, int]]:
    """Maximal runs [start, stop) of chain vertices (0-based) joined by
    interior edges no longer than detect; empty if there are none.  One
    scan of the edge lengths gaps (k+1,), a list or an array."""
    runs = []
    for j, gap in enumerate(gaps[1:-1]):
        # interior edge j joins vertices j and j + 1, extending a run that ends at j
        if gap <= detect:
            start = runs.pop()[0] if runs and runs[-1][1] == j + 1 else j
            runs.append((start, j + 2))
    return runs


class _StackedProblem:
    """Smoothed path length sum(sqrt(r_e^2 + mu^2)) in stacked chain coords.

    Each edge contributes the soft norm of its vector; at mu = 0 this is the
    exact path length (with its exact derivatives at smooth points).  Smooth
    and convex for mu > 0 regardless of vertex coincidences, which is what
    the continuation relies on.

    The edges of a point are measured once: value and edge_pass keep the
    edge pass of the last point they measured, and derivatives and the gap
    tests at that same point (the same array, at the same mu^2) read it;
    _pts holds that pass's point list (A, the points of x, B).
    derivatives also keeps its own pass, which exact_pass hands to the
    classification of the point the Newton core stopped at.
    """

    def __init__(self, plan, A, B):
        self.plan, self.bases, self.bases_t = plan, plan.bases, plan.bases_t
        self.k, self.m, self.dim = plan.bases.shape
        self.A = A
        self.B = B
        # A, q_1..q_k, B; the chain rows are overwritten on every call
        self._pts = np.empty((self.k + 2, self.dim))
        self._pts[0] = A
        self._pts[-1] = B
        self._measured = None   # (x, mu2, edges, soft lengths) last measured
        self._derived = None    # (x, mu2, soft lengths, units, g, H) last derived

    def points_of(self, x: np.ndarray) -> np.ndarray:
        return (self.bases_t @ x.reshape(self.k, self.m)[:, :, None])[:, :, 0]

    def coords_of(self, points: np.ndarray) -> np.ndarray:
        return _to_coords(self.bases, points).reshape(-1)

    def _point_list(self, x: np.ndarray) -> np.ndarray:
        np.matmul(self.bases_t, x.reshape(self.k, self.m)[:, :, None], out=self._pts[1:-1, :, None])
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
        g, H = _stacked(self.bases, grad, diag, off, self.bases_t)
        if len(self.plan.pad):
            H[self.plan.pad, self.plan.pad] = 1.0
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


def _chain_laplacian(bases: np.ndarray) -> np.ndarray:
    """The Hessian of 1/2 sum_e |d_e|^2 over stacked bases (k, m, dim),
    reduced by _stacked: diagonal blocks 2I, off-diagonal blocks -B_i
    B_{i+1}^T.  It is M M^T for the vertex equations M u = (B_i (u_{i-1} -
    u_i))_i of edge vectors u, and SPD (the edges determine the chain)."""
    k, _, dim = bases.shape
    eye = np.eye(dim)
    return _stacked(bases, np.zeros((k, dim)), np.broadcast_to(2.0 * eye, (k, dim, dim)),
                    np.broadcast_to(-eye, (k - 1, dim, dim)))[1]


class _ItineraryPlan:
    """A solve plan: what a solve needs that depends on its itinerary's
    stacked bases (k, m, dim) alone, all read-only: the bases and their
    transposes; pad, the coordinates of zero basis rows, which pad a run's
    meet in a reduced chain (a unit diagonal there keeps Newton definite);
    and, built on first use, the spring columns, the projector stack and an
    LRU of the PLANS run plans last used (run_plans).

    _plan_of keeps one plan per itinerary content in an LRU of PLANS, keyed
    on the bases' (shape, bytes): a hit returns exactly what recomputing
    would, and no entry can go stale.  So at most PLANS^2 run plans are
    live, not PLANS for all itineraries together: one itinerary's run sets
    recur across the anchors of a search row, and stay together.  At k =
    128 on the four-body table a run plan holds about 19 MB once its
    equations are built.  Reduced plans and the thickened wall polish
    build plans outside the LRU.
    """

    def __init__(self, bases):
        self.bases = _frozen(bases)
        self.bases_t = bases.transpose(0, 2, 1)
        self.k, self.m = bases.shape[:2]
        self.pad = _frozen(np.flatnonzero(~bases.any(axis=2)))

    @cached_property
    def spring_columns(self) -> np.ndarray:
        """The (k m, 2m) columns of the inverse chain Laplacian at the first
        and last vertex blocks.  At k = 1 both column blocks are the one
        block."""
        k, m = self.k, self.m
        ends = np.zeros((k * m, 2 * m))
        ends[:m, :m] = np.eye(m)
        ends[-m:, m:] = np.eye(m)
        return _frozen(np.linalg.solve(_chain_laplacian(self.bases), ends))

    def spring_coords(self, A, B) -> np.ndarray:
        """Stacked coordinates of the spring chain from A to B, the minimizer
        of sum_e |d_e|^2 (the smoothed length's limit as mu grows): the
        spring columns applied to B_1 A at the first vertex, B_k B at the last."""
        return self.spring_columns @ np.concatenate((self.bases[0] @ A, self.bases[-1] @ B))

    @cached_property
    def projectors(self) -> np.ndarray:
        """_classify's projector stack (4k - 2, dim, dim), each the vertex's
        Subspace.complement byte for byte: P_1..P_k for the incoming and the
        outgoing unit edges, P_2..P_k for q_1..q_{k-1}, P_1..P_{k-1} for q_2..q_k."""
        p = np.array([_complement(basis) for basis in self.bases])
        return _frozen(np.concatenate((p, p, p[1:], p[:-1])))

    @cached_property
    def run_plans(self):
        """The _RunPlan of a run set (a tuple of runs), from an LRU of PLANS."""
        return lru_cache(maxsize=PLANS)(partial(_RunPlan, self.bases))


@lru_cache(maxsize=PLANS)
def _cached_plan(shape, data) -> _ItineraryPlan:
    return _ItineraryPlan(np.frombuffer(data).reshape(shape))


def _plan_of(bases) -> _ItineraryPlan:
    """The solve plan of these stacked bases, from the LRU of plans."""
    return _cached_plan(bases.shape, bases.tobytes())


class _RunPlan:
    """The certificate's structure for one run set of an itinerary, all of
    it read-only: the intersection basis of each run (meets), the vertices
    the reduced chain keeps (keep, the first of each run), the reduced
    chain's plan (reduced, over bases that are each run's meet padded by
    zero rows), the collapsed edges (shut, (k+1,)) and the others (open);
    pinned when no kept vertex has a free coordinate.  The vertex equations
    of the collapsed edges' multipliers are built on first use, once, with
    their pseudo-inverse (equations)."""

    def __init__(self, bases, runs):
        self.bases, self.runs = bases, runs
        self.meets = tuple(_frozen(intersection_basis(bases[a:b])) for a, b in runs)
        keep = np.ones(len(bases), dtype=bool)
        shut = np.zeros(len(bases) + 1, dtype=bool)
        reduced = bases.copy()
        for (start, stop), meet in zip(runs, self.meets):
            keep[start + 1:stop] = False
            shut[start + 1:stop] = True
            reduced[start] = 0.0
            reduced[start, :len(meet)] = meet
        self.keep, self.shut, self.open = _frozen(keep), _frozen(shut), _frozen(~shut)
        self.reduced = _ItineraryPlan(reduced[keep])
        self.pinned = not self.reduced.bases.any()

    @cached_property
    def equations(self):
        """(M, null, pinv): the coefficients M (k m, C dim) of the collapsed
        edges in the vertex equations (edge e enters vertex e and leaves
        vertex e - 1), the projector null onto the null space of M^T, and
        M's pseudo-inverse.  M^T y = 0 asks B_i^T y_i to be one w in a run's
        meet, y_i = B_i w: null holds per run (a, b) and unit w of its meet
        the column B_i w / sqrt(b - a) on the run's vertices, and the
        identity outside the runs.  So M M^T + null is SPD, and pinv = M^T
        (M M^T + null)^{-1}."""
        k, m, dim = self.bases.shape
        cols = np.flatnonzero(self.shut)
        M = np.zeros((k, m, len(cols), dim))
        j = np.arange(len(cols))
        M[cols, :, j, :] = self.bases[cols]
        M[cols - 1, :, j, :] = -self.bases[cols - 1]
        M = M.reshape(k * m, -1)
        null = np.eye(k * m)
        for (a, b), meet in zip(self.runs, self.meets):
            y = (self.bases[a:b] @ meet.T).reshape((b - a) * m, -1)
            null[a * m:b * m, a * m:b * m] = y @ y.T / (b - a)
        return tuple(map(_frozen, (M, null, np.linalg.solve(M @ M.T + null, M).T)))


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


def _exact_polish(problem, x, tol, floor, max_iters, gate=WARM_GATE):
    """(coordinates, length, gradient norm) of the exact (mu = 0) Newton
    polish of x, or None: the one convergence test of a smooth solve, cold,
    warm or reduced.

    x is in Newton's basin when every gap exceeds floor and its first exact
    Newton step is at most gate of the shortest gap; the gate only saves
    work.  The polish aims at WARM_AIM * tol, typically one quadratic step
    past tol, so that a result's error does not depend on where its start
    sat (finite differences over a patch divide it by the spacing).  It is
    accepted once the gradient meets tol, with every gap still above
    floor.
    """
    shortest = problem.edge_pass(x, 0.0)[1].min()
    if not shortest > floor:
        return None
    start = problem.derivatives(x, 0.0)
    # at zero gradient no step is a descent step, and the zero step is taken
    step = _solve_spd(start[2], start[1]) if start[1].any() else np.zeros_like(x)
    if step is None or math.sqrt(step @ step) > gate * shortest:
        return None
    x, value, grad_norm, _ = _damped_newton(
        x, partial(problem.derivatives, mu2=0.0), partial(problem.value, mu2=0.0),
        _add_step, WARM_AIM * tol, STEP_TOL, max_iters, start=start, first_step=step)
    if grad_norm > tol or problem.edge_pass(x, 0.0)[1].min() <= floor:
        return None
    return x, value, grad_norm


def _snapped(pts: np.ndarray, runs, meets):
    """A copy of the point list pts (A, q_1, ..., q_k, B) with the vertices
    of each run (of the chain's 0-based vertices, so rows start + 1 to stop)
    replaced by the projection of their mean onto the intersection of the
    run's subspaces (the origin when they meet only there); meets holds the
    runs' intersection bases, a run plan's meets."""
    pts = pts.copy()
    for (start, stop), meet in zip(runs, meets):
        mean = pts[start + 1:stop + 1].sum(axis=0) / (stop - start)   # as ndarray.mean
        pts[start + 1:stop + 1] = meet.T @ (meet @ mean)
    return pts


def _reduced_minimum(problem, plan, pts, floor, mu2):
    """(points, edges, lengths) of the exact (mu = 0) minimum over chains
    whose runs, a run plan's, are each one point on the intersection of the
    run's subspaces, from the snap of the point list pts: its points and the
    edges of its point list, measured once; None if it is not found with
    every open edge above floor.

    The reduced chain keeps the first vertex of each run, with the run's
    intersection basis padded by zero rows to the common m.  Its free
    vertices are solved at the next stage's smoothing, which carries them
    past the kinks of the exact length, then polished by exact Newton if
    that is then in its quadratic basin (_exact_polish); a run set missing a
    collapsed edge fails that gate.  A pinned run set (plan.pinned) has no
    free coordinate to solve: its snapped chain, every vertex at the origin
    (_snapped's to the byte when every vertex is in a run), is the only
    one, and only its open edges are left to test.
    """
    if plan.pinned:
        pts = pts.copy()
        pts[1:-1] = 0.0
    else:
        pts = _snapped(pts, plan.runs, plan.meets)
        reduced = _StackedProblem(plan.reduced, problem.A, problem.B)
        y = reduced.coords_of(pts[1:-1][plan.keep])
        mu2 *= 1e-4
        y, *_ = _damped_newton(y, partial(reduced.derivatives, mu2=mu2),
                               partial(reduced.value, mu2=mu2), _add_step,
                               1e-9, STEP_TOL, max_iters=40)
        polished = _exact_polish(reduced, y, CERT_RESIDUAL, floor, 40)
        if polished is None:
            return None
        pts[1:-1] = reduced.points_of(polished[0])[np.cumsum(plan.keep) - 1]
    edges, lengths = _edge_lengths(pts)
    # the collapsed edges are exact zeros; the open ones are the reduced edges
    if not lengths[plan.open].min() > floor:
        return None
    return pts[1:-1], edges, lengths


def _onto(equations, p, x):
    """x (C, dim) moved onto the least-squares solutions p + ker M of a run
    plan's vertex equations (M, null, pinv): p + x - pinv M x."""
    M, _, pinv = equations
    flat = x.reshape(-1)
    return (p + flat - pinv @ (M @ flat)).reshape(x.shape)


def _barrier_step(equations, p, v, bound):
    """(step, MD) of _lowest_multipliers' barrier at v (C, dim): the KKT
    step and M D^-1 (k m, C dim) that gives it, or None where the solve
    finds its matrix not positive definite.

    Per edge, a = (bound - |v|^2) / 2: the Hessian block (I + v v^T / a) / a
    has the inverse a (I - v v^T / (a + |v|^2)) (Sherman-Morrison), which
    maps the gradient v / a to D_inv_g, and M D^-1 = a M - (M v) D_inv_g^T,
    with M v per edge one np.vecdot of M's column blocks with v.
    """
    M, null, _ = equations
    C, dim = v.shape
    edges = M.reshape(len(M), C, dim)
    norms2 = (v * v).sum(axis=1)
    a = 0.5 * (bound - norms2)
    D_inv_g = (a / (a + norms2))[:, None] * v
    MD = (a[:, None] * edges - np.vecdot(edges, v)[:, :, None] * D_inv_g).reshape(len(M), -1)
    lam = _spd_solve(MD @ M.T + null, M @ ((v - D_inv_g).reshape(-1) - p))
    if lam is None:
        return None
    # the solve loses accuracy as a norm nears the bound; the full step
    # stays on the affine set through the pseudo-inverse alone
    return _onto(equations, p, v - D_inv_g - (lam @ MD).reshape(C, dim)) - v, MD


def _lowest_multipliers(plan, fixed, start, bound):
    """Point v of the least-squares solutions of M v = -fixed, M a run
    plan's vertex equations, with every |v_e|^2 below bound, or None if none
    is found; start (C, dim), the stage's directions on the collapsed edges
    smoothed at mu / CERT_WINDOW, is projected onto that affine set first.

    Then a Farkas test (theorem of alternatives; Boyd & Vandenberghe, sec.
    5.8) ends most searches that must fail before any Newton step: the
    least-norm point p = -pinv fixed lies in the row space, so <p, v> =
    |p|^2 at every point v of the set, which |v_e| < r = sqrt(bound) would
    keep below r sum_e |p_e|.  Otherwise infeasible-start Newton on the
    barrier -sum_e log(bound - |v_e|^2) over the set (Boyd & Vandenberghe,
    sec. 10.3) runs from start, rows with |v_e|^2 above INSIDE * bound
    scaled to it.  A step (_barrier_step) is the KKT step -D^-1 (g + M^T
    lam), D and g the barrier's Hessian and gradient and (M D^-1 M^T +
    null) lam = M (v - D^-1 g - p), halved only while a norm would reach
    the bound (the residual M (v - p) shrinks by the untaken fraction).
    The first full step lands on the set inside every ball, which ends the
    search; a step below STEP_FLOOR, or MULTIPLIER_STEPS steps, give None.
    """
    equations = plan.equations
    p = -(equations[2] @ fixed)
    w = _onto(equations, p, start)
    if (w * w).sum(axis=1).max() < bound:
        return w
    # the Farkas exit, with a margin of 1e-12 for rounding
    reach = math.sqrt(bound) * np.linalg.norm(p.reshape(start.shape), axis=1).sum()
    if p @ p > (1.0 + 1e-12) * reach:
        return None
    norms2 = (start * start).sum(axis=1)
    # from a row near the surface the barrier's steps stay too short
    outside = norms2 > INSIDE * bound
    v = start.copy()
    v[outside] *= np.sqrt(INSIDE * bound / norms2[outside])[:, None]
    for _ in range(MULTIPLIER_STEPS):
        found = _barrier_step(equations, p, v, bound)
        if found is None:
            return None
        step = found[0]
        t = 1.0
        while True:
            trial = v + t * step
            if (trial * trial).sum(axis=1).max() < bound:
                break
            t *= 0.5
            if t < STEP_FLOOR:
                return None
        if t == 1.0:
            return trial
        v = trial
    return None


def _multipliers_certify(problem, plan, edges, lengths, start):
    """(length, u) of the chain with these edge vectors and lengths (k+1,)
    if edge multipliers u (k+1, dim) prove it a global minimum, None
    otherwise: u_e = d_e / |d_e| on every open edge, |u_e| <= 1 on the
    collapsed edges inside the run plan's runs (the balls of weak duality,
    into which _dual_bound scales u) and B_i (u_{i-1} - u_i) = 0 at every
    vertex, both up to the rounding CERT_RESIDUAL.

    The collapsed u_e solve M u = -fixed, M the run plan's vertex equations
    and fixed the open edges' residual in them, inside the balls: the search
    of _lowest_multipliers, from the stage's smoothed directions start.
    Every point it returns is checked here against CERT_RESIDUAL.  The
    length sums all k+1 edges, the collapsed zeros included.
    """
    shut = plan.shut
    u = np.zeros(edges.shape)
    np.divide(edges, lengths[:, None], out=u, where=plan.open[:, None])
    # residual of the vertex equations without the collapsed edges
    fixed = _to_coords(problem.bases, u[:-1] - u[1:]).reshape(-1)
    w = _lowest_multipliers(plan, fixed, start[shut], (1.0 + CERT_RESIDUAL) ** 2)
    if w is None:
        return None
    u[shut] = w
    residual = _to_coords(problem.bases, u[:-1] - u[1:])
    # the largest row norm, the square root of the largest squared one
    if not math.sqrt((residual * residual).sum(axis=1).max()) <= CERT_RESIDUAL:
        return None
    return float(lengths.sum()), u


def _ghost_candidate(gaps, mu2) -> bool:
    """Whether a chain with these edge lengths (k+1,) has an interior gap
    within CERT_WINDOW * mu: the test after which a stage tries the ghost
    certificate, and which _certify_ghost asks of its chain."""
    return bool((gaps[1:-1] <= CERT_WINDOW * math.sqrt(mu2)).any())


def _certify_ghost(problem, x, mu2, floor):
    """(length, points, u) of the ghost certified exactly by edge
    multipliers u at x, the minimizer of the smoothing stage mu2 or, for a
    cold solve's opening stage, its start (the spring chain), or None: the
    seam of the continuation, which returns an accepted chain as the global
    minimum and skips the remaining stages.  x must pass _ghost_candidate.

    Runs are joined by the interior gaps of x up to a threshold: first the
    largest gap within that window, then each larger gap in turn
    (collapsed edges whose multiplier is near unit norm stay open longest),
    then each smaller one.  The edges are those of the stage's exact pass at
    x, and the length that of the certificate's own pass at the accepted
    chain.  The multiplier search starts from those edges' directions
    smoothed at mu / CERT_WINDOW, sharper than the stage's own.
    """
    edges, gaps = problem.edge_pass(x, 0.0)
    gaps = gaps.tolist()
    interior = sorted(set(gaps[1:-1]))
    first = bisect.bisect_right(interior, CERT_WINDOW * math.sqrt(mu2)) - 1
    start = edges / np.sqrt((edges * edges).sum(axis=1) + mu2 / CERT_WINDOW**2)[:, None]
    for j in [*range(first, len(interior)), *range(first - 1, -1, -1)][:CERT_TRIES]:
        try:
            plan = problem.plan.run_plans(tuple(_collapsing_runs(gaps, interior[j])))
            found = _reduced_minimum(problem, plan, problem._pts, floor, mu2)
            if found is not None:
                proof = _multipliers_certify(problem, plan, *found[1:], start)
                if proof is not None:
                    return proof[0], found[0], proof[1]
        except np.linalg.LinAlgError:
            pass
    return None


def minimize(arr: Arrangement, itinerary: Itinerary, A, B,
             initial_chain: Chain | None = None) -> MinimizeResult:
    """Find the global minimizer of the path length over the chain space.

    Uniqueness of the minimum is a theorem for anchors off the collision
    locus; the routine converges to the minimum by smoothed-Newton
    continuation from any start, and a VALID or certified GHOST result
    proves itself: its lower_bound bounds the length of every chain from
    below and meets its value up to rounding.
    Without initial_chain it starts from the spring chain, the minimizer
    of the sum of squared edge lengths; a certified ghost is returned as
    GHOST at once, since its collapsed runs give it a zero-length edge.

    A ghost's classification and value are reproducible, but its chain need
    not be: when a free vertex sits between two collapsed runs inside its own
    subspace, it slides along the segment between them at constant length,
    and the returned chain is one point of that minimizing segment, which
    may depend on the start.
    """
    # copies: a result's multipliers keep the anchors for its lower bound
    A = np.array(A, dtype=float)
    B = np.array(B, dtype=float)
    if A.shape != (arr.dim,) or B.shape != (arr.dim,):
        raise InputError("anchors must match the arrangement dimension")
    anchors = np.array([A, B])
    _check_size(anchors, arr.dim, "anchors")
    itinerary.validate_against(arr)
    delta = B - A
    chord = math.sqrt(delta.dot(delta))   # |B - A| as np.linalg.norm rounds it
    # the anchors' locus test here is the one genericity asks for, at the
    # same tolerance, so classification does not repeat it
    near_A, near_B = arr.locus_distances(anchors).tolist()
    if min(near_A, near_B) <= MEMBERSHIP_TOL * max(1.0, chord):
        raise PreconditionError("anchors must lie off the collision locus")
    scale = max(chord, near_A, near_B)

    if initial_chain is not None:
        _check_start(arr, itinerary, initial_chain)
    coincidence = COINCIDENCE_TOL * scale

    if arr.bases.shape[1] == 0:
        # chain is pinned (all subspaces zero-dimensional); nothing to minimize
        chain = Chain.from_coords(arr, itinerary, np.zeros((len(itinerary), 0)))
        return _classify(arr, itinerary, A, chain, B, action(A, chain.points, B), 0)

    problem = _StackedProblem(_plan_of(arr.bases_of(itinerary)), A, B)
    polished = certified = None
    spring_tried = False   # the opening stage's certificate, tried at its start
    if initial_chain is None:
        stages = _stages(scale)
        # the minimizer of the smoothed length's limit as mu grows.  The
        # certificate's proof does not depend on mu, so the opening stage
        # tries it here, at its start, in place of its minimizer
        x = problem.plan.spring_coords(A, B)
        mu2 = stages[0][0] * stages[0][0]
        spring_tried = _ghost_candidate(problem.edge_pass(x, 0.0)[1], mu2)
        if spring_tried:
            certified = _certify_ghost(problem, x, mu2, coincidence)
    else:
        x = problem.coords_of(initial_chain.points)
        # a caller's chain in Newton's basin (a solved neighbour) is polished
        # at mu = 0 directly; any other falls through to the continuation
        polished = _exact_polish(problem, x, GRAD_TOL, coincidence, POLISH_ITERS)
        stages = [] if polished is not None else _stages(scale)

    # continuation in the smoothing parameter; warm-started Newton each stage,
    # opened loosely at mu = scale.  A stage with an interior gap within
    # CERT_WINDOW * mu is a ghost candidate and tries the multiplier
    # certificate, unless it was tried at the spring chain for this stage;
    # any other tries the exact polish.  The first that holds ends the
    # continuation.
    iterations = 0
    for mu, tol in stages:
        if polished is not None or certified is not None:
            break
        mu2 = mu * mu
        x, *_ = _damped_newton(x, partial(problem.derivatives, mu2=mu2),
                               partial(problem.value, mu2=mu2), _add_step,
                               tol, STEP_TOL, max_iters=40)
        iterations += 1
        gaps = problem.edge_pass(x, 0.0)[1]
        if not _ghost_candidate(gaps, mu2):
            polished = _exact_polish(problem, x, GRAD_TOL, coincidence, POLISH_ITERS)
        elif iterations > 1 or not spring_tried:
            certified = _certify_ghost(problem, x, mu2, coincidence)

    if certified is not None:
        # every run of a certified chain is one point, so the chain has a
        # zero-length edge and leaves the trajectory space: no HessianModel
        # is needed to classify it
        value, points, u = certified
        coords = _to_coords(problem.bases, points)
        return MinimizeResult(Chain(coords, _to_points(problem.bases, coords)), value,
                              math.nan, Classification.GHOST, None, iterations,
                              GHOST_MESSAGE, multipliers=(problem.bases, A, B, u))
    if polished is None and gaps.min() > coincidence:
        # no gate let the last chain through; the accept test alone proves it
        polished = _exact_polish(problem, x, GRAD_TOL, coincidence, POLISH_ITERS, math.inf)
    if polished is not None:
        x, value, grad_norm = polished
    elif gaps.min() > coincidence:
        raise MaxIterations("continuation ended without a polished minimizer")
    else:
        # within the coincidence floor of a collapse, uncertified
        value, grad_norm = action(A, problem.points_of(x), B), None
    chain = _iterate_chain(problem, x)
    return _classify(arr, itinerary, A, chain, B, value, iterations,
                     (problem.exact_pass(x), grad_norm, problem.plan, problem._pts, chord))


def _check_size(points: np.ndarray, dim: int, what: str) -> None:
    """Raise InputError unless the points are finite, with coordinates small
    enough that squared distances between points of that size stay finite
    in dimension dim.  The Newton core would otherwise fail in its Cholesky
    solve or by overflow."""
    limit = math.sqrt(sys.float_info.max / (4.0 * dim))
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
    round trip, so that its exact pass describes the returned chain; its
    points are copied from the point list measured at x."""
    problem.edge_pass(x, 0.0)
    return Chain(x.reshape(problem.k, problem.m), problem._pts[1:-1].copy())


def _classify(arr, itinerary, A, chain, B, value: float, iterations: int,
              polish=None) -> MinimizeResult:
    """Classify the solved chain from one HessianModel, the exact pass at
    the chain: its coincidence test is the ghost test; one projection on
    plan.projectors and one _row_dot give |P⊥_i u_{i-1}|, |P⊥_i u_i| (the
    edge-in-subspace test) and the membership distances _generic reads; a
    VALID trajectory reuses the point list, unit edges and lengths.  polish,
    from minimize: (edge_pass, grad_norm, plan, pts, chord), the exact pass
    and gradient norm where the Newton core stopped (None elsewhere), the
    solve plan, the point list (A, chain, B) and |B - A|; what it lacks is
    measured.  The anchors' locus test is minimize's precondition."""
    if polish is None:
        polish = (None, None, _plan_of(arr.bases_of(itinerary)),
                  _point_list(A, chain.points, B), float(np.linalg.norm(B - A)))
    edge_pass, grad_norm, plan, pts, chord = polish

    def done(cls, grad_norm, msg=""):
        return MinimizeResult(chain, value, grad_norm, cls, None, iterations, msg)

    try:
        model = HessianModel(arr, itinerary, A, chain, B, edge_pass, plan.bases, chord)
    except NonSmoothPoint:
        return done(Classification.GHOST, math.nan, msg=GHOST_MESSAGE)

    if grad_norm is None:
        grad_norm = float(np.linalg.norm(model.gradient))
    units, k = model.unit_edges, plan.k
    w = _perp(plan.projectors, np.concatenate((units[:-1], units[1:], pts[1:-2], pts[2:-1])))
    off = np.sqrt(_row_dot(w, w))
    # an edge lies inside its vertex's subspace when its perpendicular part vanishes
    inside = np.minimum(off[:k], off[k:2 * k]) <= EDGE_TOL
    if inside.any():
        j = int(np.argmax(inside))
        return done(Classification.EDGE_IN_SUBSPACE, grad_norm,
                    msg=f"an edge at vertex {j + 1} lies inside "
                        f"{arr.subspaces[itinerary[j]].name}")

    if not _generic(arr, off[2 * k:], pts, MEMBERSHIP_TOL * max(1.0, chord)):
        return done(Classification.NON_GENERIC_RAY, grad_norm,
                    msg="configuration violates genericity (adjacent membership or ray recrossing)")

    traj = BilliardTrajectory(A, B, chain.points, itinerary,
                              edge_pass=(pts, model.unit_edges, model.edge_lengths))
    return MinimizeResult(chain, value, grad_norm, Classification.VALID, traj, iterations, "",
                          model, (model.bases, A, B, model.unit_edges))


def _dual_bound(bases, A, B, u) -> float:
    """<u_k, B> - <u_0, A> <= sum_e |d_e| for every chain over the stacked
    bases (k, m, dim), by weak duality, once the edge multipliers u (k+1,
    dim) meet the vertex equations M u = (B_i (u_{i-1} - u_i))_i and every
    |u_e| <= 1.  The least-norm correction u - M^T L^{-1} M u (L = M M^T,
    the chain Laplacian) makes u exact on M, and u / max(1, max_e |u_e|)
    puts it in the balls; M u is a VALID result's gradient, or a ghost's
    certificate residual, so u moves by rounding only."""
    y = np.linalg.solve(_chain_laplacian(bases),
                        _to_coords(bases, u[:-1] - u[1:]).reshape(-1))
    # (M^T y)_e = B_e^T y_e - B_{e-1}^T y_{e-1}, with y_{-1} = y_k = 0
    u = u - np.diff(_to_points(bases, y.reshape(bases.shape[:2])), axis=0,
                    prepend=0.0, append=0.0)
    u = u / max(1.0, float(np.sqrt((u * u).sum(axis=1)).max()))
    return float(u[-1] @ B - u[0] @ A)

