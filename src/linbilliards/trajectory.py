"""Billiard trajectory segments, reflection-law residuals, and boundary lines."""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .action import _edge_lengths, _point_list
from .arrangement import (Arrangement, Itinerary, MEMBERSHIP_TOL, _as_vector, _perp, _rays_hit,
                          _row_dot)
from .errors import InputError

# |v_+ - v_-| below this means the vertex is internal (no direction change).
TRANSVERSE_TOL = 1e-8


@dataclass(frozen=True)
class OrientedLine:
    """Oriented line encoded as (unit direction v, foot point Q) with Q ⊥ v."""

    v: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "Q", Q)
        # written so that NaN fails the tests, and an infinite |Q| the second
        if not abs(math.sqrt(v @ v) - 1.0) <= 1e-12:
            raise InputError("oriented line direction must be unit")
        if not abs(float(np.dot(Q, v))) <= 1e-12 * max(1.0, math.sqrt(Q @ Q)) < math.inf:
            raise InputError("foot point must be finite and orthogonal to the direction")

    @classmethod
    def through(cls, point, direction) -> "OrientedLine":
        """The oriented line through ``point`` with unit ``direction``."""
        point = np.asarray(point, dtype=float)
        direction = np.asarray(direction, dtype=float)
        norm = math.sqrt(direction @ direction)
        if not abs(norm - 1.0) <= 1e-9:
            raise InputError("direction must be a unit vector")
        if not np.isfinite(point).all():
            raise InputError("point must be finite")
        direction = direction / norm
        Q = point - np.dot(point, direction) * direction
        # clean the residual component along v so the invariant holds exactly
        Q = Q - np.dot(Q, direction) * direction
        return cls(direction, Q)


@dataclass(frozen=True)
class BilliardTrajectory:
    """A finite billiard segment A -> q_1 -> ... -> q_k -> B.

    ``chain`` holds the collision vertices (k, dim); consecutive points must
    differ so edge directions are defined.  k = 0 encodes free straight motion.
    The edges are measured once, on construction, by the path-length kernel's
    own edge pass (``action._edge_lengths``): ``points`` holds every vertex
    q_0 = A, ..., q_{k+1} = B, ``edge_velocities`` the unit edge directions
    n_{i,i+1} (k+1, dim) and ``length`` the total length.  A caller that
    holds that pass already, such as the solver's classification, passes its
    point list, unit edges and lengths as ``edge_pass`` and nothing is
    measured again.
    """

    A: np.ndarray
    B: np.ndarray
    chain: np.ndarray
    itinerary: Itinerary | None
    points: np.ndarray = field(init=False, repr=False, compare=False)
    edge_velocities: np.ndarray = field(init=False, repr=False, compare=False)
    length: float = field(init=False, repr=False, compare=False)
    edge_pass: InitVar[tuple | None] = None

    def __post_init__(self, edge_pass):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        chain = np.asarray(self.chain, dtype=float).reshape(-1, A.shape[0])
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "chain", chain)
        if self.itinerary is not None and len(self.itinerary) != len(chain):
            raise InputError("chain length does not match itinerary length")
        if edge_pass is None:
            pts = _point_list(A, chain, B)
            edges, lengths = _edge_lengths(pts)
            if np.any(lengths == 0.0):
                raise InputError("consecutive trajectory points coincide")
            edge_pass = pts, edges / lengths[:, None], lengths
        pts, units, lengths = edge_pass
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edge_velocities", units)
        object.__setattr__(self, "length", float(lengths.sum()))

    @property
    def k(self) -> int:
        return self.chain.shape[0]

    def to_json_dict(self, arr: Arrangement) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "chain": self.chain.tolist(),
            "itinerary": self.itinerary.labels(arr) if self.itinerary else [],
            "length": self.length,
        }


def reflection_residual(arr: Arrangement, traj: BilliardTrajectory, i: int) -> float:
    """Reflection-law residual at vertex i (1-based).

    The norm of the jump of the velocity component tangent to the labelled
    subspace.  The speeds agree by construction: both edge directions are
    unit vectors.
    """
    if not 1 <= i <= traj.k:
        raise InputError(f"vertex index {i} out of range 1..{traj.k}")
    if traj.itinerary is None:
        raise InputError("trajectory has no itinerary")
    edges = traj.edge_velocities
    v_minus, v_plus = edges[i - 1], edges[i]
    sub = arr.subspaces[traj.itinerary[i - 1]]
    return float(np.linalg.norm(sub.project(v_plus) - sub.project(v_minus)))


def max_reflection_residual(arr: Arrangement, traj: BilliardTrajectory) -> float:
    if traj.k == 0:
        return 0.0
    return max(reflection_residual(arr, traj, i) for i in range(1, traj.k + 1))


def is_transverse(traj: BilliardTrajectory) -> bool:
    """No internal vertices: the direction jumps at every collision."""
    jumps = np.diff(traj.edge_velocities, axis=0)
    return bool(np.all(np.sqrt(_row_dot(jumps, jumps)) > TRANSVERSE_TOL))


def is_generic(arr: Arrangement, A, chain, B, itinerary: Itinerary,
               tol: float = MEMBERSHIP_TOL) -> bool:
    """Genericity of the configuration (A, chain, B) for the given itinerary:
    both anchors off the collision locus (one locus_distances call), every
    vertex off its neighbours' subspaces, and neither boundary ray (from q_1
    through A, from q_k through B) meets a subspace beyond its start."""
    A = _as_vector(A, arr.dim, "anchor A")
    B = _as_vector(B, arr.dim, "anchor B")
    chain = np.asarray(chain, dtype=float).reshape(len(itinerary), arr.dim)
    if (arr.locus_distances(np.array((A, B))) <= tol).any():
        return False
    pts, comp = _point_list(A, chain, B), arr.complements[list(itinerary)]
    w = _perp(np.concatenate((comp[1:], comp[:-1])), np.concatenate((pts[1:-2], pts[2:-1])))
    return _generic(arr, np.sqrt(_row_dot(w, w)), pts, tol)


def _generic(arr: Arrangement, near: np.ndarray, pts: np.ndarray, tol: float) -> bool:
    """is_generic past its anchor test, shared with the solver's classifier:
    pts is (A, q_1, ..., q_k, B), near (2k - 2,) the distances of q_1..q_{k-1}
    to L_2..L_k and q_2..q_k to L_1..L_{k-1}; one broadcast _perp projects
    both boundary rays' starts and directions onto every subspace."""
    if (near <= tol).any():
        return False
    rays = np.array((pts[1], pts[-2], pts[0] - pts[1], pts[-1] - pts[-2]))
    return not _rays_hit(_perp(arr.complements, rays.reshape(2, 2, 1, -1)), rays[2:], tol).any()


def boundary_lines(traj: BilliardTrajectory):
    """Incoming and outgoing oriented lines of the trajectory.

    The result is independent of where the anchors sit along their rays.
    """
    edges = traj.edge_velocities
    ell_minus = OrientedLine.through(traj.A, edges[0])
    ell_plus = OrientedLine.through(traj.B, edges[-1])
    return ell_minus, ell_plus


def trajectory_to_json(traj: BilliardTrajectory, arr: Arrangement) -> str:
    return json.dumps(traj.to_json_dict(arr), indent=2, sort_keys=True, allow_nan=False)
