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
has no unit: every stop test compares |grad| with its tolerance alone.  Every
other tolerance is a constant times the one scale of Arrangement.anchor_scale,
so a solve decides alike whatever the scale of its anchors.

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
ends in a proof either way, multipliers in the balls or a Farkas vector
that rules them out.  It starts from the chain's edge directions smoothed
at mu / CERT_WINDOW, whose
projection onto the vertex equations lies inside the balls for most ghosts
certified at the spring chain, so most proofs take no Newton step (at
the spring chain mu is the anchors' scale, and the directions smoothed at
mu itself, shorter, left about a third of them to Newton steps); the Farkas
test at that projection ends most searches that must fail, so a failed
attempt is cheap.  A pinned run set (every vertex
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
convex length is its global minimizer.  The gate bounds the Newton core's
first step: any other start stops there, unmoved, after one derivative pass,
and runs the continuation from the given chain unchanged.

The same weak duality bounds every smooth and certified GHOST result: from
its multipliers and their vertex residual rows _dual_bound gives, in closed
form and on first read only, MinimizeResult.lower_bound, never above the value.

Every stage runs the one damped-Newton core here (full-step local phase,
Armijo backtracking, jittered Cholesky solve) on one problem class,
_StackedProblem over an itinerary's solve plan (_ItineraryPlan), which the
certificate's reduced polish also builds over a run plan's reduced plan;
the thickened barrier stages and wall polish reuse the core with their own
coordinates and retractions.  The certificate's
search for collapsed-edge multipliers is a short Newton loop of its own,
on a squared hinge over the solutions of the vertex equations.

Classification order (coincidence, edge-in-subspace, non-generic rays, valid)
mirrors the exclusions that define membership in the trajectory space.  Every
solved chain, a one-point chain space's too, is classified from its problem's
plan, point list and final exact pass, by one stacked projection of its edge
and membership rows and one of its rays.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .arrangement import (MEMBERSHIP_TOL, Arrangement, Itinerary, _check_size, _complement,
                          _frozen, _perp, _row_dot, intersection_basis)
from .action import (COINCIDENCE_TOL, Chain, HessianModel, _edge_lengths, _edge_terms,
                     _stacked, _to_coords, _to_points)
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
STEP_TOL = 1e-12       # stagnation threshold on the step norm, times the solve's scale
ARMIJO = 1e-4          # sufficient-decrease constant of the backtracking
STEP_FLOOR = 1e-12     # smallest backtracking step fraction tried
OPEN_TOL = 1e-4        # the opening stage (mu = scale) stops at |grad| <= this
CERT_WINDOW = 10.0     # certify a stage once an interior gap is within this * mu
CERT_TRIES = 4         # thresholds tried per certificate
CERT_RESIDUAL = 1e-12  # stationarity residual accepted as rounding
MULTIPLIER_STEPS = 30  # cap on the Newton steps of the collapsed-multiplier search
SHIFT = 1e-6           # the multiplier search's Hessian blocks are shifted by this * I
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
    first read; so is ``lower_bound``, from the ``multipliers`` (anchors,
    edge multipliers and their vertex residual rows) of a smooth or certified
    GHOST result.  A GHOST without a certificate, a chain that ended within
    COINCIDENCE_TOL * scale of a collapse, has no multipliers and no bound.
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
        """_dual_bound of the multipliers and value, on first read, or None."""
        return None if self.multipliers is None else _dual_bound(*self.multipliers, self.value)


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
    the continuation relies on.  scale, the solve's (anchor_scale), is
    inherited by a reduced problem.

    The edges of a point are measured once: value and edge_pass keep the
    edge pass of the last point they measured, and derivatives and the gap
    tests at that same point (the same array, at the same mu^2) read it;
    _pts holds that pass's point list (A, the points of x, B).
    derivatives also keeps its own pass, which exact_pass hands to the
    classification of the point the Newton core stopped at.
    """

    def __init__(self, plan, A, B, scale):
        self.plan, self.bases, self.bases_t = plan, plan.bases, plan.bases_t
        self.k, self.m, self.dim = plan.bases.shape
        self.A, self.B, self.scale = A, B, scale
        # A, q_1..q_k, B; the chain rows are overwritten on every call
        self._pts = np.empty((self.k + 2, self.dim))
        self._pts[0], self._pts[-1] = A, B
        self._measured = None   # (x, mu2, edges, soft lengths) last measured
        self._derived = None    # (x, mu2, soft lengths, units, g, H) last derived

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


def _solve_spd(H: np.ndarray, g: np.ndarray):
    """Newton step -H^{-1} g, adding growing diagonal jitter until it is a
    descent step; None if five attempts give none.  Cholesky decides
    definiteness and np.linalg.solve gives the step.  The first jitter is
    1e-14 times the mean diagonal, so the step does not depend on the scale
    of H (a trace that is not positive gives None).  Raises ValueError on
    non-finite input.
    """
    n = H.shape[0]
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise ValueError("array must not contain infs or NaNs")
    if n == 0:
        return None
    jitter = 0.0
    for _ in range(5):
        shifted = H + jitter * np.eye(n) if jitter else H
        try:
            np.linalg.cholesky(shifted)
            step = np.linalg.solve(shifted, -g)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.dot(g, step) < 0:
            return step
        jitter = jitter * 100.0 if jitter else 1e-14 * float(np.trace(H)) / n
    return None


def _chain_laplacian(bases: np.ndarray) -> np.ndarray:
    """The Hessian of 1/2 sum_e |d_e|^2 over stacked bases (k, m, dim),
    reduced by _stacked: diagonal blocks 2I, off-diagonal blocks -B_i
    B_{i+1}^T; SPD, since the edges determine the chain."""
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
        self.k, self.m, self.dim = bases.shape
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
        p = np.array([_complement(basis) for basis in self.bases]).reshape(-1, self.dim, self.dim)
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
                   first_bound=math.inf):
    """Damped Newton from x; returns (x, value, grad_norm, reason).

    derivatives(x) gives the value, gradient and Hessian in the coordinates
    of the step, value_of(x) the same value alone, and retract(x, step, t)
    the point reached by the step scaled by t, or None where that is
    infeasible.
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
    "no_descent" (no descent step), "first_step" (the first Newton step is
    longer than first_bound; x is returned unmoved) or "max_iters".
    """
    value, g, H = derivatives(x)
    grad_norm = math.sqrt(g @ g)
    for i in range(max_iters):
        if grad_norm <= tol:
            return x, value, grad_norm, "converged"
        step = _solve_spd(H, g)
        if step is None:
            return x, value, grad_norm, "no_descent"
        if i == 0 and math.sqrt(step @ step) > first_bound:
            return x, value, grad_norm, "first_step"
        # local phase: the full Newton step contracts the gradient near the
        # minimum, where value differences are already below rounding.  A
        # value above that rounding bound, 1e-12 |value|, fails Armijo at t =
        # 1 as well (the slope is negative), so the full step is valued first
        # and differentiated only below it
        full = retract(x, step, 1.0)
        kept = None
        if full is not None:
            fval = value_of(full)
            if fval <= value + 1e-12 * abs(value):
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


def _exact_polish(problem, x, tol, max_iters, gate=WARM_GATE):
    """(coordinates, length, gradient norm) of the exact (mu = 0) Newton
    polish of x, or None: the one convergence test of a smooth solve, cold,
    warm or reduced.

    x is in Newton's basin when every gap exceeds the floor COINCIDENCE_TOL
    * problem.scale and its first exact Newton step is at most gate of the
    shortest gap: the Newton core stops at a longer first step, unmoved,
    and the polish is refused.  The polish aims at WARM_AIM * tol, typically
    one quadratic step past tol, so that a result's error does not depend
    on where its start sat (finite differences over a patch divide it by
    the spacing); a start refused by the gate would skip that aim.  It is
    accepted once the gradient meets tol, with every gap still above the
    floor.
    """
    floor = COINCIDENCE_TOL * problem.scale
    shortest = problem.edge_pass(x, 0.0)[1].min()
    if not shortest > floor:
        return None
    x, value, grad_norm, reason = _damped_newton(
        x, partial(problem.derivatives, mu2=0.0), partial(problem.value, mu2=0.0), _add_step,
        WARM_AIM * tol, STEP_TOL * problem.scale, max_iters, first_bound=gate * shortest)
    if reason == "first_step" or grad_norm > tol or problem.edge_pass(x, 0.0)[1].min() <= floor:
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


def _reduced_minimum(problem, plan, pts, mu2):
    """(points, edges, lengths) of the exact (mu = 0) minimum over chains
    whose runs, a run plan's, are each one point on the intersection of the
    run's subspaces, from the snap of the point list pts: its points and the
    edges of its point list, measured once; None if it is not found with
    every open edge above the floor COINCIDENCE_TOL * problem.scale.

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
        reduced = _StackedProblem(plan.reduced, problem.A, problem.B, problem.scale)
        y = _to_coords(reduced.bases, pts[1:-1][plan.keep]).reshape(-1)
        mu2 *= 1e-4
        y, *_ = _damped_newton(y, partial(reduced.derivatives, mu2=mu2),
                               partial(reduced.value, mu2=mu2), _add_step,
                               1e-9, STEP_TOL * problem.scale, max_iters=40)
        polished = _exact_polish(reduced, y, CERT_RESIDUAL, 40)
        if polished is None:
            return None
        coords = _to_points(reduced.bases, polished[0].reshape(reduced.k, reduced.m))
        pts[1:-1] = coords[np.cumsum(plan.keep) - 1]
    edges, lengths = _edge_lengths(pts)
    # the collapsed edges are exact zeros; the open ones are the reduced edges
    if not lengths[plan.open].min() > COINCIDENCE_TOL * problem.scale:
        return None
    return pts[1:-1], edges, lengths


def _onto(equations, p, x):
    """x (C, dim) moved onto the least-squares solutions p + ker M of a run
    plan's vertex equations (M, null, pinv): p + x - pinv M x."""
    M, _, pinv = equations
    flat = x.reshape(-1)
    return (p + flat - pinv @ (M @ flat)).reshape(x.shape)


def _hinge_step(equations, p, v, hinge):
    """KKT step of _lowest_multipliers' squared hinge at v (C, dim), with the
    hinges h (C,): the Newton step of F within the set, put back on it.

    Per edge, g_e = h_e v_e, and the Hessian block D_e = a I + b v v^T (a =
    h_e + SHIFT, b = 2 where h_e > 0, else 0) has the inverse (I - b v v^T /
    (a + b |v|^2)) / a (Sherman-Morrison): D^-1 g = g / (a + b |v|^2), and M
    D^-1 takes from each column block of M its part along v, that block's
    np.vecdot with v.  (M D^-1 M^T + null) lam = M (v - D^-1 g - p) gives the
    step -D^-1 (g + M^T lam), which moves v onto M v = M p.
    """
    M, null, _ = equations
    C, dim = v.shape
    edges = M.reshape(len(M), C, dim)
    a, b = hinge + SHIFT, 2.0 * (hinge > 0.0)
    denom = a + b * (v * v).sum(axis=1)
    D_inv_g = (hinge / denom)[:, None] * v
    along = (b / denom)[:, None] * v
    MD = ((edges - np.vecdot(edges, v)[:, :, None] * along) / a[:, None]).reshape(len(M), -1)
    lam = np.linalg.solve(MD @ M.T + null, M @ ((v - D_inv_g).reshape(-1) - p))
    return _onto(equations, p, v - D_inv_g - (lam @ MD).reshape(C, dim)) - v


def _lowest_multipliers(plan, fixed, start, bound):
    """Point v of the least-squares solutions of M v = -fixed, M a run
    plan's vertex equations, with every |v_e|^2 below bound, or None where a
    Farkas vector proves that there is none (or, never seen, after
    MULTIPLIER_STEPS steps).

    Newton's method minimizes the squared hinge F(v) = 1/4 sum_e h_e^2, h_e
    = (|v_e|^2 - aim)_+, over the set, from start (C, dim), the stage's
    directions on the collapsed edges smoothed at mu / CERT_WINDOW,
    projected onto it.  An iterate inside every ball is returned; None, if
    y = pinv M grad F, the gradient's part in the row space of M, is a
    Farkas vector (Boyd & Vandenberghe, sec. 5.8): <y, v> = <y, p> on the
    set, p = -pinv fixed, which |v_e| < r = sqrt(bound) would keep below r
    sum_e |y_e|.  bound, (1 + CERT_RESIDUAL)^2, allows for rounding, so the
    two tests meet at r.  At a minimizer of F with F > 0, y = grad F, and
    <y, p> = sum_e h_e |v_e|^2 exceeds r sum_e h_e |v_e| once the hinged
    rows lie beyond r on average, as when aim nears 1 and the set misses
    the balls.  Otherwise the KKT step (_hinge_step) is taken with Armijo
    backtracking on F; aim starts at 0 and moves halfway to 1 after each
    step that does not cut F to a quarter.
    """
    equations = M, _, pinv = plan.equations
    p = -(pinv @ fixed)
    reach = math.sqrt(bound)
    v = _onto(equations, p, start)
    aim = 0.0
    for _ in range(MULTIPLIER_STEPS):
        norms2 = (v * v).sum(axis=1)
        if norms2.max() < bound:
            return v
        hinge = np.maximum(norms2 - aim, 0.0)
        grad = (hinge[:, None] * v).reshape(-1)
        y = (pinv @ (M @ grad)).reshape(v.shape)
        if y.reshape(-1) @ p > reach * np.sqrt(_row_dot(y, y)).sum():
            return None
        value = 0.25 * (hinge @ hinge)
        step = _hinge_step(equations, p, v, hinge)
        slope = float(grad @ step.reshape(-1))
        t, cut = 1.0, False
        while t >= STEP_FLOOR:
            trial = v + t * step
            h = np.maximum((trial * trial).sum(axis=1) - aim, 0.0)
            trial_value = 0.25 * (h @ h)
            if trial_value <= value + ARMIJO * t * slope:
                v, cut = trial, trial_value <= 0.25 * value
                break
            t *= 0.5
        if not cut:
            aim += 0.5 * (1.0 - aim)
    return None


def _multipliers_certify(problem, plan, edges, lengths, start):
    """(length, u, residual) of the chain with these edge vectors and lengths
    (k+1,) if edge multipliers u (k+1, dim) prove it a global minimum, None
    otherwise: u_e = d_e / |d_e| on every open edge, |u_e| <= 1 on the
    collapsed edges inside the run plan's runs (the balls of weak duality)
    and the residual rows B_i (u_{i-1} - u_i) (k, m) vanish at every vertex,
    both up to the rounding CERT_RESIDUAL; _dual_bound reads u and the rows.

    The collapsed u_e solve M u = -fixed, M the run plan's vertex equations
    and fixed the open edges' residual in them, inside the balls: the search
    of _lowest_multipliers, from the stage's smoothed directions start,
    which ends with such u or with a Farkas vector that rules them out.
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
    return float(lengths.sum()), u, residual


def _ghost_candidate(gaps, mu2) -> bool:
    """Whether a chain with these edge lengths (k+1,) has an interior gap
    within CERT_WINDOW * mu: the test after which a stage tries the ghost
    certificate, and which _certify_ghost asks of its chain."""
    return bool((gaps[1:-1] <= CERT_WINDOW * math.sqrt(mu2)).any())


def _certify_ghost(problem, x, mu2):
    """(length, points, u, residual) of the ghost certified exactly by edge
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
            found = _reduced_minimum(problem, plan, problem._pts, mu2)
            if found is not None:
                proof = _multipliers_certify(problem, plan, *found[1:], start)
                if proof is not None:
                    return proof[0], found[0], *proof[1:]
        except np.linalg.LinAlgError:
            pass
    return None


def minimize(arr: Arrangement, itinerary: Itinerary, A, B,
             initial_chain: Chain | None = None) -> MinimizeResult:
    """Find the global minimizer of the path length over the chain space.

    Uniqueness of the minimum is a theorem for anchors off the collision
    locus; the routine converges to the minimum by smoothed-Newton
    continuation from any start, and a VALID or certified GHOST result
    proves itself: its lower_bound, at most its value, bounds the length of
    every chain from below and meets its value up to rounding.
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
    # the anchors' locus test here is the one genericity asks for, at the
    # same tolerance, so classification does not repeat it
    scale, off_locus = arr.anchor_scale(A, B)
    itinerary.validate_against(arr)
    if not off_locus:
        raise PreconditionError("anchors must lie off the collision locus")

    if initial_chain is not None:
        _check_start(arr, itinerary, initial_chain)

    problem = _StackedProblem(_plan_of(arr.bases_of(itinerary)), A, B, scale)
    if problem.bases.size == 0:
        # one chain (the empty itinerary, or every subspace {0}): nothing to minimize
        return _classify(arr, itinerary, problem, np.zeros(0), None, None, 0)

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
            certified = _certify_ghost(problem, x, mu2)
    else:
        x = _to_coords(problem.bases, initial_chain.points).reshape(-1)
        # a caller's chain in Newton's basin (a solved neighbour) is polished
        # at mu = 0 directly; any other falls through to the continuation
        polished = _exact_polish(problem, x, GRAD_TOL, POLISH_ITERS)
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
                               tol, STEP_TOL * scale, max_iters=40)
        iterations += 1
        gaps = problem.edge_pass(x, 0.0)[1]
        if not _ghost_candidate(gaps, mu2):
            polished = _exact_polish(problem, x, GRAD_TOL, POLISH_ITERS)
        elif iterations > 1 or not spring_tried:
            certified = _certify_ghost(problem, x, mu2)

    if certified is not None:
        # every run of a certified chain is one point, so the chain has a
        # zero-length edge and leaves the trajectory space: no HessianModel
        # is needed to classify it
        value, points, u, residual = certified
        coords = _to_coords(problem.bases, points)
        return MinimizeResult(Chain(coords, _to_points(problem.bases, coords)), value,
                              math.nan, Classification.GHOST, None, iterations,
                              GHOST_MESSAGE, multipliers=(A, B, u, residual))
    if polished is None and gaps.min() > COINCIDENCE_TOL * scale:
        # no gate let the last chain through; the accept test alone proves it
        polished = _exact_polish(problem, x, GRAD_TOL, POLISH_ITERS, math.inf)
        if polished is None:
            raise MaxIterations("continuation ended without a polished minimizer")
    # unpolished: within the coincidence floor of a collapse, uncertified
    return _classify(arr, itinerary, problem, *(polished or (x, None, None)), iterations)


def _check_start(arr: Arrangement, itinerary: Itinerary, chain: Chain) -> None:
    """Raise InputError unless a caller's start chain has one point per
    itinerary entry and passes _check_size; a wrong shape would otherwise
    fail on a broadcast in the Newton core."""
    points = np.asarray(chain.points, dtype=float)
    if points.shape != (len(itinerary), arr.dim):
        raise InputError(f"initial chain points have shape {points.shape}, "
                         f"expected {(len(itinerary), arr.dim)}")
    _check_size(points, arr.dim, "initial chain")


def _classify(arr, itinerary, problem, x, value: float | None, grad_norm: float | None,
              iterations: int) -> MinimizeResult:
    """Classify the chain x itself (no coordinate round trip) from one
    HessianModel, the exact pass at the chain: its coincidence test is the
    ghost test; one projection on plan.projectors and one _row_dot give
    |P⊥_i u_{i-1}|, |P⊥_i u_i| (the edge-in-subspace test) and the
    membership distances _generic reads; a VALID trajectory reuses the point
    list, unit edges and lengths.  The solve's problem (_StackedProblem)
    gives the plan, the point list (A, chain, B) measured at x, the scale
    and the exact pass where the Newton core stopped (a fresh problem has
    none, and the model measures it); a value or grad_norm of None is
    measured.  The anchors' locus test is minimize's precondition."""
    plan, A, B, scale = problem.plan, problem.A, problem.B, problem.scale
    lengths, pts = problem.edge_pass(x, 0.0)[1], problem._pts
    chain = Chain(x.reshape(plan.k, plan.m), pts[1:-1].copy())
    value = float(lengths.sum()) if value is None else value
    try:
        model = HessianModel(arr, itinerary, A, chain, B, problem.exact_pass(x), plan.bases,
                             scale)
    except NonSmoothPoint:
        return MinimizeResult(chain, value, math.nan, Classification.GHOST, None, iterations,
                              GHOST_MESSAGE)
    if grad_norm is None:
        grad_norm = float(np.linalg.norm(model.gradient))
    units, k = model.unit_edges, plan.k
    done = partial(MinimizeResult, chain, value, grad_norm, iterations=iterations,
                   multipliers=(A, B, units, model.gradient.reshape(k, plan.m)))
    w = _perp(plan.projectors, np.concatenate((units[:-1], units[1:], pts[1:-2], pts[2:-1])))
    off = np.sqrt(_row_dot(w, w))
    # an edge lies inside its vertex's subspace when its perpendicular part vanishes
    inside = np.minimum(off[:k], off[k:2 * k]) <= EDGE_TOL
    if inside.any():
        j = int(np.argmax(inside))
        return done(Classification.EDGE_IN_SUBSPACE, None,
                    message=f"an edge at vertex {j + 1} lies inside "
                            f"{arr.subspaces[itinerary[j]].name}")

    if not _generic(arr, off[2 * k:], pts, MEMBERSHIP_TOL * scale):
        return done(Classification.NON_GENERIC_RAY, None, message="configuration violates "
                    "genericity (adjacent membership or ray recrossing)")

    traj = BilliardTrajectory(A, B, chain.points, itinerary,
                              edge_pass=(pts, model.unit_edges, model.edge_lengths))
    return done(Classification.VALID, traj, model=model)


def _dual_bound(A, B, u, residual, value) -> float:
    """Weak-duality lower bound on the length of every chain from A to B, from
    any edge multipliers u (k+1, dim), their vertex residual rows r_i = B_i
    (u_{i-1} - u_i) (k, m) and a value V at least the minimum length.

    For a chain q_i = B_i^T c_i, sum_e <u_e, d_e> = <u_k, B> - <u_0, A> +
    sum_i <r_i, c_i> is at most s = max(1, max_e |u_e|) times its length, and
    a minimizer has |c_i| = |q_i| <= |A| + V: the minimum is at least
    (<u_k, B> - <u_0, A> - R) / s, R = (|A| + V) sum_i |r_i|.  Taking the
    data and the chain as exact, the pieces here and the value's own sum
    round by at most 5 gamma_n (|A| + |B| + V + R) in all, gamma_n = n u /
    (1 - n u) for the unit roundoff u and n = k + dim + 2 (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 3.1); 4 gamma_n at u = eps
    = 2u is subtracted, so the bound is at most the value."""
    n = (len(u) + len(A) + 1) * np.finfo(float).eps
    size_A = math.sqrt(A @ A)
    R = (size_A + value) * float(np.sqrt(_row_dot(residual, residual)).sum())
    s = max(1.0, math.sqrt(float(_row_dot(u, u).max())))
    allowance = 4.0 * n / (1.0 - n) * (size_A + math.sqrt(B @ B) + value + R)
    return (float(u[-1] @ B - u[0] @ A) - R) / s - allowance
