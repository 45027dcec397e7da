"""Deterministic billiards on the thickened table and its minimization problem.

Thickening replaces each collision subspace by a solid cylinder of radius
sigma_L * r.  The dynamics on the complement is ordinary specular billiards
off the cylinder walls (away from corners, which are refused rather than
modelled).  The variational side constrains the chain vertices to the solid
cylinders: a log-barrier continuation on the point solver's stages and
Newton core, then a Newton polish on the walls of the pressed vertices, with
minimizers classified as honest reflections, ghosts or corner ghosts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .arrangement import Arrangement, Itinerary, _as_vector, _line_tube, _perp, _row_dot
from .errors import CornerCollision, InputError, MaxIterations, PreconditionError
from .action import _edge_terms, _stacked, action
from .solver import (SolverOptions, _check_size, _damped_newton, _spring_coords, _stages,
                     _StackedProblem, minimize)
from .trajectory import TRANSVERSE_TOL, BilliardTrajectory, is_transverse

CORNER_TOL = 1e-9
GRAZING_DISC = 1e-14
SPLIT = 100.0  # slack and barrier force this far apart mark a vertex pressed or free


@dataclass(frozen=True)
class ThickenedTable:
    """The complement of solid cylinders around the subspaces, with radii
    sigma_L * r stacked once as one (n,) array."""

    arrangement: Arrangement
    r: float
    radii: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise InputError("thickening radius must be positive and finite")
        sigmas = np.array([s.sigma for s in self.arrangement.subspaces])
        object.__setattr__(self, "radii", sigmas * self.r)

    def distance_to_wall(self, x) -> float:
        """Signed clearance: min over cylinders of dist(x, L) - rho_L."""
        w = _perp(self.arrangement.bases, _as_vector(x, self.arrangement.dim))
        return float(np.min(np.sqrt(_row_dot(w, w)) - self.radii))

    def in_table(self, x, tol: float = 1e-9) -> bool:
        return self.distance_to_wall(x) >= -tol


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


def first_hit(table: ThickenedTable, p, v):
    """Earliest entering intersection of the ray p + t v with a cylinder wall.

    Returns (t, subspace index, hit point, outward normal) or None when the
    ray escapes.  Grazing rays (discriminant below 1e-14) do not count as
    hits; a hit point inside another cylinder's corner margin raises
    CornerCollision, since the dynamics there is deliberately undefined.
    """
    arr = table.arrangement
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.shape != (arr.dim,) or v.shape != (arr.dim,):
        raise InputError("point/velocity dimension mismatch")
    radii = table.radii
    a, t_star, gap2, w2 = _line_tube(arr.bases, radii, p, v)
    inside = np.sqrt(w2) < radii - 1e-9 * np.maximum(1.0, radii)
    if inside.any():
        raise PreconditionError(f"start point lies strictly inside cylinder around "
                                f"{arr.subspaces[int(np.argmax(inside))].name}")
    t_eps = 1e-12 * max(1.0, float(np.linalg.norm(p)))
    # a <= 1e-30: constant clearance along the ray
    enters = (a > 1e-30) & (gap2 * a >= GRAZING_DISC)
    t_enter = t_star - np.sqrt(np.maximum(gap2, 0.0) / np.where(enters, a, 1.0))
    t_enter = np.where(enters & (t_enter > t_eps), t_enter, math.inf)
    i = int(np.argmin(t_enter))  # the lowest index on ties
    if t_enter[i] == math.inf:
        return None
    t = float(t_enter[i])
    x = p + t * v
    perp = _perp(arr.bases, x)
    dist = np.sqrt(_row_dot(perp, perp))
    corner = dist < radii + CORNER_TOL
    corner[i] = False
    if corner.any():
        raise CornerCollision(f"hit on {arr.subspaces[i].name} lies in the corner margin "
                              f"of {arr.subspaces[int(np.argmax(corner))].name}")
    return t, i, x, perp[i] / dist[i]


def simulate(table: ThickenedTable, p, v, max_events: int = 100,
             t_max: float = math.inf) -> ThickenedPath:
    """Event-driven specular billiard on the thickened table.

    Terminates on escape, the time horizon, or the event budget; a corner hit
    raises CornerCollision carrying the partial path.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    # written so that a NaN fails each test
    if not math.isfinite(p @ p):
        raise InputError("simulation start must be finite")
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
        raise InputError("simulation velocity must be finite and unit")
    if not table.in_table(p):
        raise PreconditionError("start point lies inside a cylinder")
    path = ThickenedPath(p.copy(), v.copy())
    t_now = 0.0
    for _ in range(max_events):
        try:
            hit = first_hit(table, p, v)
        except CornerCollision as exc:
            path.end_time = t_now
            path.end_point, path.end_velocity = p.copy(), v.copy()
            path.status = "corner"
            exc.path = path
            raise
        if hit is None:
            path.status = "escaped"
            break
        t, i, x, nu = hit
        if t_now + t > t_max:
            path.status = "t_max"
            p = p + (t_max - t_now) * v
            t_now = t_max
            break
        t_now += t
        v_after = v - 2.0 * float(np.dot(v, nu)) * nu
        path.events.append(Event(t_now, table.arrangement.subspaces[i].name,
                                 x.copy(), v.copy(), v_after.copy()))
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


def minimize_thickened(table: ThickenedTable, itinerary: Itinerary, A, B,
                       opts: SolverOptions = SolverOptions()) -> ThickenedMinimizeResult:
    """Minimize the path length with each vertex confined to its solid cylinder.

    An interior-point continuation (Boyd & Vandenberghe, sec. 11.3): each of
    the point solver's stages mu minimizes the smoothed length plus the
    barrier -mu sum log(rho^2 - |P⊥ q|^2), from the spring chain on the axes.
    On the central path relative slack s / rho^2 times barrier force 2 mu |w|
    / s is about 2 mu / rho, so the force is small at a free vertex and the
    slack at a pressed one.  Once they differ by SPLIT at every vertex and no
    interior gap is within SPLIT mu, the pressed vertices are polished on
    their walls at mu = 0; a polish within grad_tol and with no wall force
    below -1e-10 is the minimizer: honest when every vertex is on its wall
    and the direction jumps there, a ghost otherwise.  Unpolished after the
    last stage, a chain with a collapsed interior edge is a corner ghost
    (vertices meet where cylinders cross) valued at its exact length;
    anything else raises MaxIterations.  A ghost's points need not be
    reproducible: a free vertex can slide along a straight segment.
    """
    arr = table.arrangement
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    itinerary.validate_against(arr)
    for x, name in ((A, "A"), (B, "B")):
        _check_size(x, arr.dim, f"anchor {name}")
        if table.distance_to_wall(x) <= 1e-12:
            raise PreconditionError(f"anchor {name} must lie in the table interior")
    scale = max(float(np.linalg.norm(B - A)), table.r)
    spring = _StackedProblem(arr.bases_of(itinerary), A, B)
    points = spring.points_of(_spring_coords(spring))
    problem = _WallProblem(table, itinerary, A, B, np.zeros(len(itinerary), dtype=bool))
    for mu, tol in _stages(scale):
        # no small-step stop: STEP_TOL is absolute, and the barrier's steps shrink with mu
        points, *_ = _damped_newton(points, partial(problem.derivatives, mu2=mu * mu),
                                    partial(problem.value, mu2=mu * mu), problem.retract,
                                    tol, 0.0, max_iters=40)
        w, s = problem.slack(points)
        slack, force = s / problem.radii ** 2, 2.0 * mu * np.sqrt(_row_dot(w, w)) / s
        gap = problem.edge_pass(points, 0.0)[1][1:-1].min(initial=math.inf)
        split = np.all(np.maximum(slack, force) >= SPLIT * np.minimum(slack, force))
        if split and gap > SPLIT * mu:
            result = _polished(table, itinerary, A, B, points, force > slack, opts)
            if result is not None:
                return result
    if gap > opts.coincidence_tol * scale:
        raise MaxIterations("thickened continuation ended without a polished minimizer")
    return ThickenedMinimizeResult(points, action(A, points, B), False, (force > slack).tolist(),
                                   math.nan, [0.0] * len(points), "ghost: collapsed at a corner")


def _polished(table, itinerary, A, B, points, pressed, opts):
    """The chain polished from points at mu = 0 with the pressed vertices on
    their walls; None unless it meets grad_tol with every wall force >= -1e-10."""
    problem = _WallProblem(table, itinerary, A, B, pressed)
    points, value, kkt, _ = _damped_newton(
        problem.retract(points, np.zeros(points.size), 0.0), problem.lifted, problem.value,
        problem.retract, max(opts.grad_tol, 1e-13), 0.0, max_iters=60)
    grad = _edge_terms(*problem.edge_pass(points, 0.0))[2]
    forces = np.where(pressed, -_row_dot(grad, problem.normals(points)), 0.0)
    if not (kkt <= max(opts.grad_tol, 1e-12) and forces.min() >= -1e-10):
        return None
    # the ambient gradient n_in - n_out at a vertex is its direction jump
    honest = bool(pressed.all() and (forces > 0).all()
                  and (np.linalg.norm(grad, axis=1) > TRANSVERSE_TOL).all())
    msg = "" if honest else "ghost: vertex off the wall or no direction change"
    return ThickenedMinimizeResult(points, value, honest, pressed.tolist(), kkt,
                                   forces.tolist(), msg)


class _WallProblem(_StackedProblem):
    """Path length in ambient (k, dim) coordinates, a _StackedProblem over
    identity bases (so the Newton core measures a point's edges once), with
    the active vertices on their walls and, at mu > 0, the barrier -mu sum
    log(rho^2 - |P⊥ q|^2) over the free ones.  An active vertex's blocks are
    reduced through its wall's tangent projector P = I - omega omega^T by
    ``action._stacked``, plus omega omega^T (a unit diagonal that keeps Newton
    definite and its step tangent) and the perp-sphere curvature (force /
    rho)(I - B^T B - omega omega^T).  The gradient P g has no unit."""

    def __init__(self, table, itinerary, A, B, active):
        walls = table.arrangement.bases_of(itinerary)
        k, _, dim = walls.shape
        super().__init__(np.broadcast_to(np.eye(dim), (k, dim, dim)), A, B)
        self.walls = walls
        self.radii = table.radii[list(itinerary)]
        self.active = np.asarray(active)
        # I - B^T B: the projector onto each vertex's subspace complement
        self.perps = np.eye(dim) - walls.transpose(0, 2, 1) @ walls
        self._slacks = (None,)  # (pts, w, s) last measured

    def points_of(self, pts):
        return pts.reshape(self.k, self.dim)

    def slack(self, pts):
        """Offsets w = P⊥ q (k, dim) and slacks rho^2 - |w|^2 (k,) at pts,
        measured unless pts is the point measured last."""
        if self._slacks[0] is not pts:
            w = _perp(self.walls, pts)
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
        if not self.active.any():
            value, g, H = super().derivatives(pts, mu2)
        else:
            value, _, grad, diag, off = _edge_terms(*self.edge_pass(pts, mu2))
            normals = self.normals(pts)
            normal = normals[:, :, None] * normals[:, None, :]
            g, H = _stacked(np.eye(self.dim) - normal, grad, diag, off)
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


def curve_shorten(table: ThickenedTable, itinerary: Itinerary, A, chain_points, B):
    """Slide each vertex of a transverse chain outward onto its cylinder wall,
    strictly shortening the path at every replacement.

    Works in the plane of the vertex triangle: both incident edges exit the
    cylinder (their far endpoints must lie outside it), and the replacement
    point is taken on the wall along the bisecting chord, inside the triangle.
    Vertex j must lie on the subspace itinerary[j], and consecutive points
    must differ (InputError otherwise).  Returns (new chain, list of path
    lengths after each replacement).
    """
    arr = table.arrangement
    itinerary.validate_against(arr)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    chain_points = np.asarray(chain_points, dtype=float)
    if chain_points.shape != (len(itinerary), arr.dim):
        raise InputError("one chain point per itinerary entry required")
    radii = table.radii
    traj = BilliardTrajectory(A, B, chain_points, itinerary)
    if not is_transverse(traj):
        raise PreconditionError("internal vertex; chain must be transverse")

    current = traj.points.copy()
    lengths = [traj.length]
    for j, idx in enumerate(itinerary):
        sub = arr.subspaces[idx]
        rho = radii[idx]
        q = current[j + 1]
        if sub.distance_to(q) > 1e-9 * max(1.0, float(np.linalg.norm(q))):
            raise PreconditionError(f"vertex {j + 1} lies off {sub.name}")
        prev_pt, next_pt = current[j], current[j + 2]
        for neighbor in (prev_pt, next_pt):
            if sub.distance_to(neighbor) <= rho:
                raise PreconditionError(
                    "thickening too large: a neighbor vertex lies inside the cylinder")
        exits = []
        for target in (prev_pt, next_pt):
            leg = target - q
            perp_speed = float(np.linalg.norm(sub.perp(leg)))
            exits.append(q + (rho / perp_speed) * leg)
        mid = 0.5 * (exits[0] + exits[1])
        direction = mid - q
        perp_dir = float(np.linalg.norm(sub.perp(direction)))
        if perp_dir <= 1e-15:
            raise PreconditionError("degenerate triangle in the shortening step")
        replacement = q + (rho / perp_dir) * direction
        before = (np.linalg.norm(prev_pt - q) + np.linalg.norm(q - next_pt))
        after = (np.linalg.norm(prev_pt - replacement)
                 + np.linalg.norm(replacement - next_pt))
        if not after < before:
            raise PreconditionError(
                "thickening too large: replacement does not shorten the path")
        current[j + 1] = replacement
        lengths.append(action(A, current[1:-1], B))
    return current[1:-1], lengths


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


def r_family(arr: Arrangement, itinerary: Itinerary, A, B, r_list,
             opts: SolverOptions = SolverOptions()) -> list[RFamilyEntry]:
    """Thickened minimizers for a shrinking family of radii, compared against
    the transverse point billiard they converge to.

    The point problem must solve to a valid transverse trajectory; per-radius
    failures are recorded, not raised.
    """
    point_result = minimize(arr, itinerary, A, B, opts)
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
            result = minimize_thickened(table, itinerary, A, B, opts)
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
