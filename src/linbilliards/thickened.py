"""Deterministic billiards on the thickened table and its minimization problem.

Thickening replaces each collision subspace by a solid cylinder of radius
sigma_L * r.  The dynamics on the complement is ordinary specular billiards
off the cylinder walls (away from corners, which are refused rather than
modelled).  The simulator takes two perpendicular parts an event, each one
row-dot call with the arrangement's stacked complement projectors: the
direction's, and the hit point's, which serve its corner test and then the
next ray; the time horizon is tested before the corner test, so a corner
past it ends no path.  Every threshold is relative to the cylinder or to
|p|, so a table and its rays scaled together keep their events; a hit
point clear of the corner margin is clear of every other wall by more
than the next ray's re-entry guard, so no ray enters a cylinder unseen.  The
variational side constrains the chain vertices to the solid cylinders: a
log-barrier continuation on the point solver's stages and Newton core, then
a Newton polish on the walls of the pressed vertices, with minimizers
classified as honest reflections, ghosts or corner ghosts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .arrangement import (_PARALLEL, Arrangement, Itinerary, _as_vector, _check_size, _perp,
                          _row_dot, _tube_approach)
from .errors import CornerCollision, InputError, MaxIterations, PreconditionError
from . import solver
from .action import COINCIDENCE_TOL, _edge_terms, _identity, _stacked, _to_points, action
from .solver import _damped_newton, _ItineraryPlan, _plan_of, _stages, _StackedProblem, minimize
from .trajectory import TRANSVERSE_TOL, is_transverse

REENTRY_TOL = 1e-12      # an entry within this times |p| of a ray's start is the wall it leaves
CORNER_TOL = 1e-9        # corner margin, relative to the other cylinder's radius
# plus this times |p| + t >= |x|: a hit point clearing the margin clears every
# other wall by more than the next ray's guard REENTRY_TOL |x|
CORNER_ROUNDING = REENTRY_TOL
GRAZING_DISC = 1e-14
SPLIT = 100.0  # slack and barrier force this far apart mark a vertex pressed or free


@dataclass(frozen=True)
class ThickenedTable:
    """The complement of solid cylinders around the subspaces, with radii
    sigma_L * r stacked once as one (n,) array, next to the event thresholds
    on them: rho^2, the grazing bound GRAZING_DISC rho^2, the strictly-inside
    bound rho - 1e-9 rho and the corner bound rho + CORNER_TOL rho, all of
    which scale with the cylinder (a hit adds its rounding to the last)."""

    arrangement: Arrangement
    r: float
    radii: np.ndarray = field(init=False, repr=False, compare=False)
    rho2: np.ndarray = field(init=False, repr=False, compare=False)
    grazing_below: np.ndarray = field(init=False, repr=False, compare=False)
    inside_below: np.ndarray = field(init=False, repr=False, compare=False)
    corner_below: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise InputError("thickening radius must be positive and finite")
        radii = np.array([s.sigma for s in self.arrangement.subspaces]) * self.r
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "rho2", radii * radii)
        object.__setattr__(self, "grazing_below", GRAZING_DISC * self.rho2)
        object.__setattr__(self, "inside_below", radii - 1e-9 * radii)
        object.__setattr__(self, "corner_below", radii + CORNER_TOL * radii)

    def distance_to_wall(self, x) -> float:
        """Signed clearance: min over cylinders of dist(x, L) - rho_L."""
        w = self.arrangement.perp_parts(_as_vector(x, self.arrangement.dim))
        return float(np.min(np.sqrt(_row_dot(w, w)) - self.radii))


@dataclass(frozen=True)
class Event:
    time: float
    label: str
    point: np.ndarray
    v_before: np.ndarray
    v_after: np.ndarray


@dataclass
class ThickenedPath:
    start_point: np.ndarray
    start_velocity: np.ndarray
    events: list[Event] = field(default_factory=list)
    end_time: float = 0.0
    end_point: np.ndarray | None = None
    end_velocity: np.ndarray | None = None
    status: str = "escaped"

    @property
    def itinerary_labels(self) -> list[str]:
        return [e.label for e in self.events]


def _hit(table: ThickenedTable, p, v, w, norm, t_now: float = 0.0, t_max: float = math.inf):
    """The entering hit of the ray p + t v from the start's perpendicular parts
    w = P⊥p (n, dim) and their norms (n,), projecting only v (one row-dot
    call, Arrangement.perp_parts).  The callers refuse a start inside a
    cylinder; a hit point carried into the next ray is on its wall up to
    rounding and clears the others by the corner test.  An entry no later
    than REENTRY_TOL |p| is the start's own wall, left up to rounding; a
    hit point closer than rho (1 + CORNER_TOL) + CORNER_ROUNDING (|p| + t)
    to another axis is a corner, for a unit v.  As CORNER_ROUNDING (|p| + t)
    >= REENTRY_TOL |x|, any other wall the next ray from x enters, it enters
    beyond that ray's guard, so it is an event or a corner, never skipped.

    Returns None when the ray escapes; else (t, i, x, w_x, norm_x) with the
    hit point x and its parts P⊥x and norms, which the next ray from x takes
    as its w.  A hit with t_now + t > t_max returns x, w_x and norm_x as None
    before the corner test, so a corner past the horizon is no event.
    """
    arr = table.arrangement
    # a <= _PARALLEL, the ray rule's parallel limit for a unit v: constant
    # clearance along the ray
    a, t_star, gap2, half = _tube_approach(table.rho2, w, arr.perp_parts(v), _PARALLEL)
    size = math.sqrt(p @ p)   # > 0: every subspace meets the origin, which no start clears
    t_eps = REENTRY_TOL * size
    enters = (a > _PARALLEL) & (gap2 * a >= table.grazing_below)
    t_enter = t_star - half
    t_enter = np.where(enters & (t_enter > t_eps), t_enter, math.inf)
    i = int(t_enter.argmin())  # the lowest index on ties
    t = float(t_enter[i])
    if t == math.inf:
        return None
    if t_now + t > t_max:
        return t, i, None, None, None
    x = p + t * v
    w_x = arr.perp_parts(x)
    norm_x = np.sqrt(_row_dot(w_x, w_x))
    # the other walls' clearances, beyond x's rounding of order eps (|p| + t)
    corner = norm_x < table.corner_below + CORNER_ROUNDING * (size + t)
    corner[i] = False
    if corner.any():
        raise CornerCollision(f"hit on {arr.subspaces[i].name} lies in the corner margin "
                              f"of {arr.subspaces[int(np.argmax(corner))].name}")
    return t, i, x, w_x, norm_x


def _start(table: ThickenedTable, p, v):
    """The start test of first_hit and simulate: (p, v, w, norm), copies of p
    and v, p's parts w = P⊥p (n, dim) and their norms (n,).  InputError
    unless p is a finite point and v a unit vector of the table's space,
    PreconditionError for a p closer than rho - 1e-9 rho to an axis."""
    arr = table.arrangement
    p = np.array(p, dtype=float)
    v = np.array(v, dtype=float)
    if p.shape != (arr.dim,) or v.shape != (arr.dim,):
        raise InputError("point/velocity dimension mismatch")
    # written so that a NaN fails each test
    if not math.isfinite(p @ p):
        raise InputError("ray start must be finite")
    if not abs(math.sqrt(v @ v) - 1.0) <= 1e-9:
        raise InputError("ray velocity must be finite and unit")
    w = arr.perp_parts(p)
    norm = np.sqrt(_row_dot(w, w))
    inside = norm < table.inside_below
    if inside.any():
        raise PreconditionError(f"start point lies strictly inside cylinder around "
                                f"{arr.subspaces[int(np.argmax(inside))].name}")
    return p, v, w, norm


def first_hit(table: ThickenedTable, p, v):
    """Earliest entering intersection of the ray p + t v with a cylinder wall.

    Returns (t, subspace index, hit point, outward normal) or None when the
    ray escapes.  Grazing rays (discriminant below 1e-14 rho^2) do not count
    as hits; the start test is simulate's (_start), and a table and ray
    scaled together keep their hits.  A hit point inside another cylinder's
    corner margin (CORNER_TOL rho plus CORNER_ROUNDING (|p| + t)) raises
    CornerCollision, since the dynamics there is deliberately undefined.
    This is one event of simulate with no time horizon; simulate carries
    the hit point's projections into its next ray instead of projecting
    that point again, as stepping first_hit from each hit would.
    """
    hit = _hit(table, *_start(table, p, v))
    if hit is None:
        return None
    t, i, x, w_x, norm_x = hit
    return t, i, x, w_x[i] / norm_x[i]


def simulate(table: ThickenedTable, p, v, max_events: int = 100,
             t_max: float = math.inf) -> ThickenedPath:
    """Event-driven specular billiard on the thickened table.

    Terminates on escape, the time horizon, or the event budget; a corner hit
    within the horizon raises CornerCollision carrying the partial path (the
    horizon is tested first, so a corner past it ends the path at t_max).
    A negative or NaN t_max and a negative max_events raise InputError;
    hits and the start test (_start) are first_hit's.
    The start's perpendicular parts are taken once, by one row-dot call
    with the stacked complement projectors, for the inside test and the
    first ray; each hit point's, taken for its corner test, are the next
    ray's, so an event takes two such calls (v and the hit point).  Its
    normal is, bit for bit, the hit wall's Subspace.perp of the point,
    normalized.  An event's v_after is read-only: the next's v_before.
    """
    arr = table.arrangement
    if not t_max >= 0.0:   # written so that a NaN fails it
        raise InputError(f"simulation horizon must be at least 0, got {t_max}")
    if max_events < 0:
        raise InputError(f"simulation event budget must be at least 0, got {max_events}")
    p, v, w, norm = _start(table, p, v)   # v: the first event's v_before, its own copy
    path = ThickenedPath(p.copy(), v.copy())
    t_now = 0.0
    for _ in range(max_events):
        try:
            hit = _hit(table, p, v, w, norm, t_now, t_max)
        except CornerCollision as exc:
            path.end_time = t_now
            path.end_point, path.end_velocity = p.copy(), v.copy()
            path.status = "corner"
            exc.path = path
            raise
        if hit is None:
            path.status = "escaped"
            break
        t, i, x, w, norm = hit
        if x is None:
            path.status = "t_max"
            p = p + (t_max - t_now) * v
            t_now = t_max
            break
        t_now += t
        nu = w[i] / norm[i]
        v_after = v - 2.0 * float(v @ nu) * nu
        v_after.flags.writeable = False   # also the next event's v_before
        path.events.append(Event(t_now, arr.subspaces[i].name, x, v, v_after))
        p, v = x, v_after
    else:
        path.status = "max_events"
    path.end_time = t_now
    path.end_point, path.end_velocity = p.copy(), v.copy()
    return path


def events_to_csv(path: ThickenedPath, out) -> None:
    dim = path.start_point.shape[0]
    header = (["time", "label"] + [f"x_{i}" for i in range(dim)]
              + [f"v_before_{i}" for i in range(dim)]
              + [f"v_after_{i}" for i in range(dim)])
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for e in path.events:
            writer.writerow([f"{e.time:.17g}", e.label]
                            + [f"{x:.17g}" for x in e.point]
                            + [f"{x:.17g}" for x in e.v_before]
                            + [f"{x:.17g}" for x in e.v_after])


# -- constrained minimization over the product of solid cylinders -----------


@dataclass(frozen=True)
class ThickenedMinimizeResult:
    """A thickened minimizer; a corner ghost has kkt_residual NaN and zero multipliers."""

    points: np.ndarray          # (k, dim) vertices
    value: float
    honest: bool                # on-wall, direction-changing minimizer
    active: list[bool]          # vertex on its cylinder wall
    kkt_residual: float         # tangential gradient of the polished chain
    multipliers: list[float]    # outward-normal force at active vertices
    message: str = ""


def minimize_thickened(table: ThickenedTable, itinerary: Itinerary,
                       A, B) -> ThickenedMinimizeResult:
    """Minimize the path length with each vertex confined to its solid cylinder.

    An interior-point continuation (Boyd & Vandenberghe, sec. 11.3): each of
    the point solver's stages mu minimizes the smoothed length plus the
    barrier -mu sum log(rho^2 - |P⊥ q|^2), from the spring chain on the axes.
    On the central path relative slack s / rho^2 times barrier force 2 mu |w|
    / s is about 2 mu / rho, so the force is small at a free vertex and the
    slack at a pressed one.  Once they differ by SPLIT at every vertex and no
    interior gap is within SPLIT mu, the pressed vertices are polished on
    their walls at mu = 0; a polish within GRAD_TOL and with no wall force
    below -1e-10 is the minimizer: honest when every vertex is on its wall
    and the direction jumps there, a ghost otherwise.  Unpolished after the
    last stage, a chain with a collapsed interior edge is a corner ghost
    (vertices meet where cylinders cross) valued at its exact length;
    anything else raises MaxIterations.  A ghost's points need not be
    reproducible: a free vertex can slide along a straight segment.  An
    anchor not 1e-12 max(|B - A|, r) clear of every wall is refused, and so
    is the empty itinerary (InputError).
    """
    arr = table.arrangement
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if len(itinerary) == 0:
        raise InputError("free motion has no vertex to confine to a cylinder")
    itinerary.validate_against(arr)
    for x, name in ((A, "A"), (B, "B")):
        _check_size(x, arr.dim, f"anchor {name}")
    problem = _WallProblem(table, itinerary, A, B, np.zeros(len(itinerary), dtype=bool))
    for x, name in ((A, "A"), (B, "B")):
        if table.distance_to_wall(x) <= 1e-12 * problem.scale:
            raise PreconditionError(f"anchor {name} must lie in the table interior")
    plan = _plan_of(arr.bases_of(itinerary))
    points = _to_points(plan.bases, plan.spring_coords(A, B).reshape(plan.k, plan.m))
    for mu, tol in _stages(problem.scale):
        # no small-step stop: the barrier's steps shrink with mu, below STEP_TOL * scale
        points, *_ = _damped_newton(points, partial(problem.derivatives, mu2=mu * mu),
                                    partial(problem.value, mu2=mu * mu), problem.retract,
                                    tol, 0.0, max_iters=40)
        w, s = problem.slack(points)
        slack, force = s / problem.radii ** 2, 2.0 * mu * np.sqrt(_row_dot(w, w)) / s
        gap = problem.edge_pass(points, 0.0)[1][1:-1].min(initial=math.inf)
        split = np.all(np.maximum(slack, force) >= SPLIT * np.minimum(slack, force))
        if split and gap > SPLIT * mu:
            result = _polished(table, itinerary, A, B, points, force > slack)
            if result is not None:
                return result
    if gap > COINCIDENCE_TOL * problem.scale:
        raise MaxIterations("thickened continuation ended without a polished minimizer")
    return ThickenedMinimizeResult(points, action(A, points, B), False, (force > slack).tolist(),
                                   math.nan, [0.0] * len(points), "ghost: collapsed at a corner")


def _polished(table, itinerary, A, B, points, pressed):
    """The chain polished from points at mu = 0 with the pressed vertices on
    their walls; None unless it meets solver.GRAD_TOL with every wall force
    >= -1e-10."""
    problem = _WallProblem(table, itinerary, A, B, pressed)
    points, value, kkt, _ = _damped_newton(
        problem.retract(points, np.zeros(points.size), 0.0), problem.lifted, problem.value,
        problem.retract, solver.GRAD_TOL, 0.0, max_iters=60)
    grad = _edge_terms(*problem.edge_pass(points, 0.0))[2]
    forces = np.where(pressed, -_row_dot(grad, problem.normals(points)), 0.0)
    if not (kkt <= solver.GRAD_TOL and forces.min() >= -1e-10):
        return None
    # the ambient gradient n_in - n_out at a vertex is its direction jump
    honest = bool(pressed.all() and (forces > 0).all()
                  and (np.linalg.norm(grad, axis=1) > TRANSVERSE_TOL).all())
    msg = "" if honest else "ghost: vertex off the wall or no direction change"
    return ThickenedMinimizeResult(points, value, honest, pressed.tolist(), kkt,
                                   forces.tolist(), msg)


class _WallProblem(_StackedProblem):
    """Path length in ambient (k, dim) coordinates, a _StackedProblem over
    an uncached plan of identity bases (so the Newton core measures a
    point's edges once), with the active vertices on their walls and, at
    mu > 0, the barrier -mu sum log(rho^2 - |P⊥ q|^2) over the free ones.
    An active vertex's blocks are reduced through its wall's tangent
    projector P = I - omega omega^T by ``action._stacked``, plus omega
    omega^T (a unit diagonal that keeps Newton definite and its step
    tangent) and the perp-sphere curvature (force / rho)(I - B^T B - omega
    omega^T).  The gradient P g has no unit; the scale is max(|B - A|, r)."""

    def __init__(self, table, itinerary, A, B, active):
        arr, k = table.arrangement, len(itinerary)
        super().__init__(_ItineraryPlan(np.broadcast_to(np.eye(arr.dim), (k, arr.dim, arr.dim))),
                         A, B, max(float(np.linalg.norm(B - A)), table.r))
        self.radii = table.radii[list(itinerary)]
        self.active = np.asarray(active)
        # I - B^T B: each vertex's stored complement projector (k, dim, dim)
        self.perps = arr.complements[list(itinerary)]
        self._slacks = (None,)  # (pts, w, s) last measured

    def slack(self, pts):
        """Offsets w = P⊥ q (k, dim) and slacks rho^2 - |w|^2 (k,) at pts,
        measured unless pts is the point measured last; each w is its
        wall's Subspace.perp(q), bit for bit (one row dot per entry)."""
        if self._slacks[0] is not pts:
            w = _perp(self.perps, pts)
            self._slacks = (pts, w, self.radii ** 2 - _row_dot(w, w))
        return self._slacks[1:]

    def normals(self, pts):
        """Outward unit wall normals (k, dim) at pts, zero rows at free vertices."""
        w = self.slack(pts)[0]
        norms = np.where(self.active, np.sqrt(_row_dot(w, w)), 1.0)
        return np.where(self.active[:, None], w / norms[:, None], 0.0)

    def value(self, pts, mu2: float = 0.0) -> float:
        s = self.slack(pts)[1][~self.active] if mu2 > 0.0 else 1.0
        return super().value(pts, mu2) - math.sqrt(mu2) * float(np.log(s).sum())

    def derivatives(self, pts, mu2: float = 0.0):
        value, _, grad, diag, off = _edge_terms(*self.edge_pass(pts, mu2))
        # zero normals at the free vertices: with no active vertex this is
        # the reduction over the identity bases
        normals = self.normals(pts)
        normal = normals[:, :, None] * normals[:, None, :]
        g, H = _stacked(_identity(self.dim) - normal, grad, diag, off)
        # a writable view of the diagonal blocks (k, dim, dim)
        blocks = np.einsum("ijik->ijk", H.reshape(self.k, self.dim, self.k, self.dim))
        if self.active.any():
            forces = -_row_dot(grad, normals)   # outward-normal force, 0 at free vertices
            blocks += normal + (forces / self.radii)[:, None, None] * (self.perps - normal)
        if mu2 > 0.0:
            # -mu log s: gradient 2 mu w / s, Hessian 2 mu P⊥ / s + 4 mu w w^T / s^2
            mu, (w, s), free = math.sqrt(mu2), self.slack(pts), ~self.active
            pull = np.where(free, 2.0 * mu / np.where(free, s, 1.0), 0.0)
            value -= mu * float(np.log(s[free]).sum())
            g = g + (pull[:, None] * w).reshape(-1)
            blocks += pull[:, None, None] * self.perps \
                + (pull * pull / mu)[:, None, None] * w[:, :, None] * w[:, None, :]
        return value, g, H

    def lifted(self, pts):
        """derivatives at mu = 0 plus (1/f_in + 1/f_out) nbar nbar^T at each free
        vertex: along its unit mean edge direction nbar the length is flat, and
        exact Newton steps would leave the cylinder.  Only the steps change."""
        value, g, H = self.derivatives(pts)
        edges, lengths = self.edge_pass(pts, 0.0)
        along = edges[:-1] / lengths[:-1, None] + edges[1:] / lengths[1:, None]
        nbar = along / np.sqrt(np.maximum(_row_dot(along, along), 1e-300))[:, None]
        weight = np.where(self.active, 0.0, 1.0 / lengths[:-1] + 1.0 / lengths[1:])
        np.einsum("ijik->ijk", H.reshape(self.k, self.dim, self.k, self.dim))[...] += \
            weight[:, None, None] * nbar[:, :, None] * nbar[:, None, :]
        return value, g, H

    def retract(self, pts, step, t):
        """Move by t * step and project each active vertex radially back onto
        its wall; None unless every free vertex stays strictly inside."""
        cand = pts + t * step.reshape(pts.shape)
        if not np.all(self.active | (self.slack(cand)[1] > 0.0)):
            return None
        if not self.active.any():
            return cand
        on_wall = cand - self.slack(cand)[0] + self.radii[:, None] * self.normals(cand)
        return np.where(self.active[:, None], on_wall, cand)


@dataclass(frozen=True)
class RFamilyEntry:
    """One radius of an r-family; an honest result keeps its replay_honest
    path, and itinerary_match says whether it hits the itinerary in order."""

    r: float
    result: ThickenedMinimizeResult | None
    deviation: float
    itinerary_match: bool
    error: str = ""
    replay: ThickenedPath | None = None


def r_family(arr: Arrangement, itinerary: Itinerary, A, B, r_list) -> list[RFamilyEntry]:
    """Thickened minimizers for a shrinking family of radii, compared against
    the transverse point billiard they converge to.

    The point problem must solve to a valid transverse trajectory; per-radius
    failures are recorded, not raised.
    """
    point_result = minimize(arr, itinerary, A, B)
    if not point_result.is_valid:
        raise PreconditionError(
            f"point billiard solve is {point_result.classification}, not valid")
    if not is_transverse(point_result.trajectory):
        raise PreconditionError("point billiard trajectory is not transverse")
    reference = point_result.chain.points
    labels = itinerary.labels(arr)
    entries = []
    for r in r_list:
        table = ThickenedTable(arr, float(r))
        try:
            result = minimize_thickened(table, itinerary, A, B)
            deviation = float(np.max(np.linalg.norm(result.points - reference, axis=1)))
            replay = replay_honest(table, result, A, len(itinerary)) if result.honest else None
            match = replay is not None and replay.itinerary_labels == labels
            entries.append(RFamilyEntry(float(r), result, deviation, match, replay=replay))
        except (PreconditionError, MaxIterations, CornerCollision) as exc:
            entries.append(RFamilyEntry(float(r), None, math.nan, False, str(exc)))
    return entries


def replay_honest(table: ThickenedTable, result: ThickenedMinimizeResult,
                  A, n_events: int) -> ThickenedPath:
    """Re-run an honest thickened minimizer through the event simulator from
    its incoming ray (the converse clause of the minimization lemma)."""
    A = np.asarray(A, dtype=float)
    v0 = result.points[0] - A
    v0 = v0 / np.linalg.norm(v0)
    return simulate(table, A, v0, max_events=n_events)
