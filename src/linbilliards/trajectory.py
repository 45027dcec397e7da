"""Billiard trajectory segments, reflection-law residuals, and boundary lines."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, Itinerary, MEMBERSHIP_TOL, _as_vector, _perp, _row_dot
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
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise InputError("oriented line direction must be unit")
        if abs(float(np.dot(Q, v))) > 1e-12 * max(1.0, float(np.linalg.norm(Q))):
            raise InputError("foot point must be orthogonal to the direction")

    @classmethod
    def through(cls, point, direction) -> "OrientedLine":
        """The oriented line through ``point`` with unit ``direction``."""
        point = np.asarray(point, dtype=float)
        direction = np.asarray(direction, dtype=float)
        if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
            raise InputError("direction must be a unit vector")
        direction = direction / np.linalg.norm(direction)
        Q = point - np.dot(point, direction) * direction
        # clean the residual component along v so the invariant holds exactly
        Q = Q - np.dot(Q, direction) * direction
        return cls(direction, Q)

    def close_to(self, other: "OrientedLine", tol: float = 1e-9) -> bool:
        return (np.linalg.norm(self.v - other.v) <= tol
                and np.linalg.norm(self.Q - other.Q) <= tol)


@dataclass(frozen=True)
class BilliardTrajectory:
    """A finite billiard segment A -> q_1 -> ... -> q_k -> B.

    ``chain`` holds the collision vertices (k, dim); consecutive points must
    differ so edge directions are defined.  k = 0 encodes free straight motion.
    """

    A: np.ndarray
    B: np.ndarray
    chain: np.ndarray
    itinerary: Itinerary | None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        chain = np.asarray(self.chain, dtype=float).reshape(-1, A.shape[0])
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "chain", chain)
        if self.itinerary is not None and len(self.itinerary) != len(chain):
            raise InputError("chain length does not match itinerary length")
        pts = self.points
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(gaps == 0.0):
            raise InputError("consecutive trajectory points coincide")

    @property
    def k(self) -> int:
        return self.chain.shape[0]

    @property
    def points(self) -> np.ndarray:
        """All vertices including anchors: q_0 = A, ..., q_{k+1} = B."""
        return np.vstack([self.A[None, :], self.chain, self.B[None, :]])

    @property
    def edge_velocities(self) -> np.ndarray:
        """Unit edge directions n_{i,i+1}, shape (k+1, dim)."""
        diffs = np.diff(self.points, axis=0)
        return diffs / np.linalg.norm(diffs, axis=1, keepdims=True)

    @property
    def length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))

    def to_json_dict(self, arr: Arrangement) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "chain": self.chain.tolist(),
            "itinerary": self.itinerary.labels(arr) if self.itinerary else [],
            "length": self.length,
        }

    @classmethod
    def from_json_dict(cls, data: dict, arr: Arrangement) -> "BilliardTrajectory":
        labels = data.get("itinerary", [])
        itin = Itinerary.from_labels(arr, labels) if labels else None
        return cls(np.asarray(data["A"], float), np.asarray(data["B"], float),
                   np.asarray(data["chain"], float), itin)


def reflection_residual(arr: Arrangement, traj: BilliardTrajectory, i: int):
    """Reflection-law residuals at vertex i (1-based).

    Returns (energy_res, momentum_res): the speed jump |‖v_-‖ - ‖v_+‖| (zero
    by construction for unit edge directions) and the norm of the jump of the
    velocity component tangent to the labelled subspace.
    """
    if not 1 <= i <= traj.k:
        raise InputError(f"vertex index {i} out of range 1..{traj.k}")
    if traj.itinerary is None:
        raise InputError("trajectory has no itinerary")
    edges = traj.edge_velocities
    v_minus, v_plus = edges[i - 1], edges[i]
    sub = arr.subspaces[traj.itinerary[i - 1]]
    energy = abs(float(np.linalg.norm(v_minus)) - float(np.linalg.norm(v_plus)))
    momentum = float(np.linalg.norm(sub.project(v_plus) - sub.project(v_minus)))
    return energy, momentum


def max_reflection_residual(arr: Arrangement, traj: BilliardTrajectory) -> float:
    if traj.k == 0:
        return 0.0
    return max(reflection_residual(arr, traj, i)[1] for i in range(1, traj.k + 1))


def is_transverse(traj: BilliardTrajectory, tol: float = TRANSVERSE_TOL) -> bool:
    """No internal vertices: the direction jumps at every collision."""
    edges = traj.edge_velocities
    for i in range(traj.k):
        if np.linalg.norm(edges[i + 1] - edges[i]) <= tol:
            return False
    return True


def is_generic(arr: Arrangement, A, chain, B, itinerary: Itinerary,
               tol: float = MEMBERSHIP_TOL) -> bool:
    """Genericity of the configuration (A, chain, B) for the given itinerary.

    Checks vertex membership away from the adjacent subspaces, anchors off the
    collision locus, and that the boundary rays (from q_1 through A and from
    q_k through B, extended to infinity) meet no subspace beyond their initial
    points.
    """
    A = _as_vector(A, arr.dim, "anchor A")
    B = _as_vector(B, arr.dim, "anchor B")
    chain = np.asarray(chain, dtype=float).reshape(len(itinerary), arr.dim)
    if arr.on_locus(A, tol) or arr.on_locus(B, tol):
        return False
    return _chain_is_generic(arr, arr.bases_of(itinerary), A, chain, B, tol)


def _chain_is_generic(arr: Arrangement, bases: np.ndarray, A, chain, B, tol: float) -> bool:
    """is_generic past the anchors' locus test, for a chain (k, dim) over the
    itinerary's stacked bases (k, m, dim): one batched membership test of
    every vertex against its neighbours' subspaces, and one batched tube test
    of both boundary rays against every subspace."""
    off = _perp(np.concatenate((bases[1:], bases[:-1])),
                np.concatenate((chain[:-1], chain[1:])))
    if np.any(np.sqrt(_row_dot(off, off)) <= tol):
        return False
    rays = arr.rays_hit_beyond_start(chain[[0, -1]], np.stack((A - chain[0], B - chain[-1])), tol)
    return not rays.any()


def boundary_lines(traj: BilliardTrajectory):
    """Incoming and outgoing oriented lines of the trajectory.

    The result is independent of where the anchors sit along their rays.
    """
    edges = traj.edge_velocities
    ell_minus = OrientedLine.through(traj.A, edges[0])
    ell_plus = OrientedLine.through(traj.B, edges[-1])
    return ell_minus, ell_plus


def validate_trajectory(arr: Arrangement, traj: BilliardTrajectory,
                        membership_tol: float = MEMBERSHIP_TOL,
                        residual_tol: float = 1e-9) -> list[str]:
    """All violated trajectory invariants, as human-readable strings."""
    problems = []
    if traj.itinerary is None:
        return ["trajectory carries no itinerary"]
    scale = max(1.0, float(np.linalg.norm(traj.A - traj.B)))
    edges = traj.edge_velocities
    for j, idx in enumerate(traj.itinerary):
        sub = arr.subspaces[idx]
        d = sub.distance_to(traj.chain[j])
        if d > membership_tol * scale:
            problems.append(f"vertex {j + 1} off {sub.name} by {d:.3e}")
        for edge in (edges[j], edges[j + 1]):
            if np.linalg.norm(sub.perp(edge)) <= membership_tol:
                problems.append(f"edge at vertex {j + 1} lies inside {sub.name}")
        _, mom = reflection_residual(arr, traj, j + 1)
        if mom > residual_tol:
            problems.append(f"momentum residual {mom:.3e} at vertex {j + 1}")
    return problems


def trajectory_to_json(traj: BilliardTrajectory, arr: Arrangement) -> str:
    return json.dumps(traj.to_json_dict(arr), indent=2, sort_keys=True)


def trajectory_from_json(text: str, arr: Arrangement) -> BilliardTrajectory:
    return BilliardTrajectory.from_json_dict(json.loads(text), arr)
