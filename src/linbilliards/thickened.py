"""Deterministic billiards on the thickened table and its minimization problem.

Thickening replaces each collision subspace by a solid cylinder of radius
sigma_L * r.  The dynamics on the complement is ordinary specular billiards
off the cylinder walls (away from corners, which are refused rather than
modelled).  The variational side constrains the chain vertices to the solid
cylinders: projected gradient plus projected Newton on the active cylinder
walls in ambient coordinates, with minimizers classified as honest
reflections or ghosts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .arrangement import (Arrangement, Itinerary, _as_vector, _line_tube, _perp, _project,
                          _row_dot)
from .errors import CornerCollision, InputError, MaxIterations, PreconditionError
from .action import _path_kernel, _point_list, _stacked, action
from .solver import SolverOptions, _check_size, _damped_newton, minimize
from .trajectory import TRANSVERSE_TOL, BilliardTrajectory, is_transverse

CORNER_TOL = 1e-9
GRAZING_DISC = 1e-14
# projected-gradient/Newton rounds of minimize_thickened before it gives up
MAX_PHASES = 40


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
    points: np.ndarray          # (k, dim) vertices
    value: float
    honest: bool                # on-wall, direction-changing minimizer
    active: list[bool]          # vertex on its cylinder wall
    kkt_residual: float
    multipliers: list[float]    # outward-normal force at active vertices
    message: str = ""


def minimize_thickened(table: ThickenedTable, itinerary: Itinerary, A, B,
                       opts: SolverOptions = SolverOptions()) -> ThickenedMinimizeResult:
    """Minimize the path length with each vertex confined to its solid cylinder.

    Projected gradient with backtracking makes global progress on the convex
    problem; once the active set (vertices pressed onto their cylinder walls)
    stabilizes, projected Newton on the wall manifold polishes to full
    accuracy.  The minimizer is honest when every vertex sits on its wall and
    the direction jumps there; otherwise it is a ghost (straight-through or
    tangential passage).  A ghost's value is reproducible but its points need
    not be: a free vertex inside its cylinder can slide along a straight
    segment at constant length.
    """
    arr = table.arrangement
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    itinerary.validate_against(arr)
    for x, name in ((A, "A"), (B, "B")):
        _check_size(x, arr.dim, f"anchor {name}")
        if table.distance_to_wall(x) <= 1e-12:
            raise PreconditionError(f"anchor {name} must lie in the table interior")
    k = len(itinerary)
    bases = arr.bases_of(itinerary)
    radii = table.radii[list(itinerary)]
    scale = max(float(np.linalg.norm(B - A)), table.r)

    def on_walls(pts):
        w = _perp(bases, pts)
        return (np.abs(np.sqrt(_row_dot(w, w)) - radii) <= 1e-6 * radii).tolist()

    def project(pts):
        """Exact convex projection of each vertex onto its solid cylinder."""
        par = _project(bases, pts)
        perp = pts - par
        norm = np.sqrt(_row_dot(perp, perp))
        inside = norm <= radii
        shrink = radii / np.where(inside, 1.0, norm)
        return np.where(inside[:, None], pts, par + perp * shrink[:, None])

    # start from the projection of the straight chord into the cylinders
    points = project(A + (np.arange(1, k + 1) / (k + 1))[:, None] * (B - A))
    value = action(A, points, B)
    step = 1.0
    kkt = math.inf
    prev_kkt = math.inf
    for phase in range(MAX_PHASES):
        # -- projected gradient phase
        for _ in range(200):
            _, grad, _, _ = _path_kernel(_point_list(A, points, B))
            trial_step = step
            moved = False
            for _ in range(60):
                cand = project(points - trial_step * grad)
                cand_val = action(A, cand, B)
                decrease = value - cand_val
                move2 = float(np.sum((cand - points) ** 2))
                if decrease >= 1e-4 * move2 / max(trial_step, 1e-300):
                    if move2 > 0:
                        points, value, moved = cand, cand_val, True
                    break
                trial_step *= 0.5
            step = min(trial_step * 2.0, 1e3)
            mapping = float(np.sqrt(float(np.sum((project(points - grad) - points) ** 2))))
            if mapping <= 1e-8 * scale or not moved:
                break

        # -- active-set Newton phase
        points, value, kkt, clean = _newton_on_walls(
            table, itinerary, A, points, B, on_walls(points), opts)
        if clean and kkt <= max(opts.grad_tol, 1e-12) * max(1.0, value):
            break
        if clean and kkt >= prev_kkt * 0.99:
            break  # residual floor: successive phases no longer improve
        prev_kkt = kkt
    else:
        raise MaxIterations(f"thickened minimization stalled (kkt = {kkt:.3e})")

    _, grad, _, _ = _path_kernel(_point_list(A, points, B))
    active = on_walls(points)
    multipliers = _wall_forces(bases, active, points, grad)[1].tolist()
    # the ambient gradient n_in - n_out at a vertex is its direction jump
    jump = np.linalg.norm(grad, axis=1)
    honest = all(active) and all(j > TRANSVERSE_TOL for j in jump) \
        and all(m > 0 for m in multipliers)
    msg = "" if honest else "ghost: vertex off the wall or no direction change"
    return ThickenedMinimizeResult(points, value, honest, active, kkt,
                                   multipliers, msg)


def _wall_forces(bases, active, points, grad):
    """Outward unit wall normals (k, dim) of the active vertices, zero rows
    at free ones, and the outward-normal forces -<g_j, omega_j> (k,), 0 at
    free vertices; vertex j's subspace has the basis bases[j]."""
    active = np.asarray(active)
    perp = _perp(bases, points)
    norms = np.sqrt(_row_dot(perp, perp))
    normals = np.where(active[:, None], perp / np.where(active, norms, 1.0)[:, None], 0.0)
    return normals, np.where(active, -_row_dot(grad, normals), 0.0)


class _WallProblem:
    """Path length with the active vertices held on their cylinder walls, in
    ambient (k, dim) coordinates.

    The kernel blocks are reduced through the tangent projectors
    P_j = I - omega_j omega_j^T of the active walls (I at free vertices) by
    ``action._stacked``, which the solver uses with the chain bases.  Each
    active vertex adds omega omega^T, a unit diagonal in its normal direction
    that keeps Newton definite and its step tangent, and the exact
    perp-sphere curvature (force / rho)(I - B^T B - omega omega^T).  The
    gradient is the tangential gradient P g, so the Newton core's stopping
    norm, the reported kkt residual, does not depend on the radius.  Newton
    steps do not depend on the tangent coordinates, so they are those of any
    parameterization of the walls.
    """

    def __init__(self, table, itinerary, A, B, active):
        self.bases = table.arrangement.bases_of(itinerary)
        self.radii = table.radii[list(itinerary)]
        self.A = A
        self.B = B
        self.active = np.asarray(active)
        dim = table.arrangement.dim
        # I - B^T B: the projector onto each vertex's subspace complement
        self.perps = np.eye(dim) - self.bases.transpose(0, 2, 1) @ self.bases

    def value(self, pts) -> float:
        return action(self.A, pts, self.B)

    def derivatives(self, pts):
        value, grad, diag, off = _path_kernel(_point_list(self.A, pts, self.B))
        normals, forces = _wall_forces(self.bases, self.active, pts, grad)
        normal = normals[:, :, None] * normals[:, None, :]
        g, H = _stacked(np.eye(pts.shape[1]) - normal, grad, diag, off)
        k, dim = pts.shape
        curvature = (forces / self.radii)[:, None, None]
        idx = np.arange(k)
        # the diagonal blocks, through a (k, dim, k, dim) view of H
        H.reshape(k, dim, k, dim)[idx, :, idx, :] += normal + curvature * (self.perps - normal)
        return value, g, H

    def retract(self, pts, step, t):
        """Move by t * step and project each active vertex radially back onto
        its wall; None if a free vertex leaves its solid cylinder."""
        cand = pts + t * step.reshape(pts.shape)
        par = _project(self.bases, cand)
        perp = cand - par
        norms = np.sqrt(_row_dot(perp, perp))
        if np.any(~self.active & (norms > self.radii)):
            return None
        on_wall = par + perp * (self.radii / np.where(self.active, norms, 1.0))[:, None]
        return np.where(self.active[:, None], on_wall, cand)


def _newton_on_walls(table, itinerary, A, points, B, active, opts):
    """Newton polish of the wall problem with the solver's damped-Newton core.

    Returns (points, value, kkt residual, active-set-clean flag).
    """
    problem = _WallProblem(table, itinerary, A, B, active)
    # no small-step stop (step_tol 0): the phase loop of minimize_thickened
    # reads a "floor" return as a clean residual floor
    points, value, kkt, reason = _damped_newton(
        points.copy(), problem.derivatives, problem.value, problem.retract,
        max(opts.grad_tol, 1e-13), 0.0, max_iters=60)
    if reason == "converged":
        _, grad, _, _ = _path_kernel(_point_list(A, points, B))
        # a negative multiplier wants to release its vertex from the wall
        forces = _wall_forces(problem.bases, active, points, grad)[1]
        clean = forces.min() >= -1e-10
    else:
        clean = reason == "floor"
    return points, value, kkt, clean


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
    r: float
    result: ThickenedMinimizeResult | None
    deviation: float
    itinerary_match: bool
    error: str = ""


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
            match = False
            if result.honest:
                replay = replay_honest(table, result, A, len(itinerary))
                match = replay.itinerary_labels == labels
            entries.append(RFamilyEntry(float(r), result, deviation, match))
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
