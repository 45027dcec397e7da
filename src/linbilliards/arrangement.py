"""Euclidean space with a finite collection of linear collision subspaces.

All geometry primitives the rest of the package consumes live here:
orthogonal projection onto a subspace, point-to-subspace distance,
segment/ray proximity queries, and principal angles between subspaces.
Subspaces are linear (through the origin) and carried as orthonormal bases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PreconditionError

# Absolute membership tolerance on unit-scale data; callers pass an explicit
# tol wherever the geometry is scale dependent.
MEMBERSHIP_TOL = 1e-9

_ORTHO_TOL = 1e-12


def _as_vector(x, dim: int, what: str = "point") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise InputError(f"{what} has shape {v.shape}, expected ({dim},)")
    return v


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner products of matching rows of u and v (..., dim) -> (...).

    A stacked matmul of (1, dim) rows by (dim, 1) columns, which rounds as
    one BLAS dot per row does (np.dot and the norm of a 1-D array), unlike a
    pairwise-summed reduction over the last axis.
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _project(bases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Projections B^T(B x) of x (..., dim) onto the subspaces with
    orthonormal bases (..., m, dim); leading axes broadcast, so
    x[..., None, :] against (n, m, dim) gives every subspace."""
    return (np.swapaxes(bases, -1, -2) @ (bases @ x[..., :, None]))[..., 0]


def _perp(bases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Components x - B^T(B x) of x orthogonal to the subspaces, as in _project."""
    return x - _project(bases, x)


def _line_tube(bases: np.ndarray, radii, p: np.ndarray, d: np.ndarray):
    """Closest approach of lines p + t d (..., dim) to the tubes of radii
    rho (n,) around the subspaces with bases (n, m, dim): (a, t_star, gap2,
    w2), each (..., n), with a = |P⊥d|^2 raw, t_star = -<P⊥p, P⊥d> / a (0 at
    a = 0), gap2 = rho^2 - |P⊥(p + t_star d)|^2 and w2 = |P⊥p|^2.  A line
    with gap2 >= 0 is in the tube for t_star -+ sqrt(gap2 / a).  The residual
    is formed before its norm: b^2 - ac would cancel when rho << |p|.
    """
    w = _perp(bases, p[..., None, :])
    u = _perp(bases, d[..., None, :])
    a = _row_dot(u, u)
    t_star = -_row_dot(w, u) / np.where(a == 0.0, 1.0, a)
    res = w + t_star[..., None] * u
    return a, t_star, radii * radii - _row_dot(res, res), _row_dot(w, w)


def orthonormalize(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Near-dependent input rows are dropped, so any spanning set is accepted.
    Returns an array of shape (m, dim) with orthonormal rows, m = rank.
    """
    rows = np.asarray(vectors, dtype=float).reshape(-1, dim)
    basis: list[np.ndarray] = []
    for row in rows:
        v = row.copy()
        for _ in range(2):  # second pass restores orthogonality lost to cancellation
            for b in basis:
                v -= np.dot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10 * max(1.0, np.linalg.norm(row)):
            basis.append(v / norm)
    if not basis:
        return np.zeros((0, dim))
    return np.array(basis)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace stored via an orthonormal basis (rows of ``basis``).

    ``sigma`` is the per-subspace thickening scale factor used by the
    deterministic thickened dynamics; the default 1 means the cylinder radius
    equals the thickening parameter.
    """

    name: str
    basis: np.ndarray  # (m, dim), orthonormal rows; m == 0 encodes {0}
    dim: int
    sigma: float = 1.0

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float).reshape(-1, self.dim)
        object.__setattr__(self, "basis", basis)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InputError(f"subspace {self.name!r}: sigma must be positive and finite")
        if self.codim < 1:
            raise InputError(f"subspace {self.name!r}: codimension must be >= 1")
        gram = basis @ basis.T
        if gram.size and np.max(np.abs(gram - np.eye(len(basis)))) > _ORTHO_TOL:
            raise InputError(f"subspace {self.name!r}: basis rows not orthonormal")

    @classmethod
    def from_spanning(cls, name: str, vectors, dim: int, sigma: float = 1.0) -> "Subspace":
        """Build from a raw (possibly non-orthonormal, possibly redundant) spanning set."""
        return cls(name, orthonormalize(np.asarray(vectors, dtype=float), dim), dim, sigma)

    @property
    def subdim(self) -> int:
        return self.basis.shape[0]

    @property
    def codim(self) -> int:
        return self.dim - self.basis.shape[0]

    def project(self, x) -> np.ndarray:
        """Orthogonal projection onto the subspace, applied as B^T(Bx)."""
        x = _as_vector(x, self.dim)
        if self.subdim == 0:
            return np.zeros(self.dim)
        return self.basis.T @ (self.basis @ x)

    def perp(self, x) -> np.ndarray:
        """Component of x orthogonal to the subspace."""
        x = _as_vector(x, self.dim)
        return x - self.project(x)

    def distance_to(self, x) -> float:
        """Euclidean distance from x to the subspace; zero iff x lies on it."""
        return float(np.linalg.norm(self.perp(x)))

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.distance_to(x) <= tol

    def tube_interval(self, p, d, tol: float):
        """Parameter interval {t : dist(p + t*d, L) <= tol} along a full line.

        Returns (t_lo, t_hi), possibly infinite for directions inside the
        subspace, or None when the line stays farther than tol everywhere.
        The scalar, one-subspace reference for Arrangement.tube_intervals,
        which the package's line-tube queries use.
        """
        p = _as_vector(p, self.dim)
        d = _as_vector(d, self.dim, "direction")
        w = self.perp(p)
        u = self.perp(d)
        a = float(np.dot(u, u))
        scale = max(float(np.dot(d, d)), 1.0)
        if a <= 1e-30 * scale:
            # perpendicular distance is constant along the line
            return (-math.inf, math.inf) if np.dot(w, w) <= tol * tol else None
        t_star = -float(np.dot(w, u)) / a
        dmin2 = float(np.dot(w + t_star * u, w + t_star * u))
        gap2 = tol * tol - dmin2
        if gap2 < 0.0:
            return None
        half = math.sqrt(gap2 / a)
        return (t_star - half, t_star + half)


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors, arccos clamped."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InputError("angle undefined for zero vector")
    return math.acos(min(1.0, max(-1.0, float(np.dot(u, v)) / (nu * nv))))


def principal_angle(a: Subspace, b: Subspace) -> float:
    """Smallest principal angle between two subspaces (via singular values)."""
    if a.subdim == 0 or b.subdim == 0:
        raise InputError("principal angle undefined against the zero subspace")
    s = np.linalg.svd(a.basis @ b.basis.T, compute_uv=False)
    return math.acos(min(1.0, max(-1.0, float(s[0]))))


def intersection_dim(a: Subspace, b: Subspace, tol: float = 1e-10) -> int:
    """Dimension of a ∩ b, counted as the number of unit singular values."""
    if a.subdim == 0 or b.subdim == 0:
        return 0
    s = np.linalg.svd(a.basis @ b.basis.T, compute_uv=False)
    return int(np.sum(s >= 1.0 - tol))


def intersection_basis(bases: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the intersection of the subspaces whose bases
    are stacked as (r, m, dim), r >= 1; no rows when they meet only at 0.

    The intersection is the joint null space of the projectors I - B^T B.
    """
    dim = bases.shape[2]
    stacked = (np.eye(dim) - bases.transpose(0, 2, 1) @ bases).reshape(-1, dim)
    _, s, vt = np.linalg.svd(stacked)
    return vt[s <= 1e-10]


@dataclass(frozen=True)
class Arrangement:
    """A finite collection of collision subspaces of a common codimension.

    Every subspace thus has the same dimension m, and ``bases`` stacks their
    orthonormal bases once, at construction, as one (n, m, dim) array.
    """

    dim: int
    subspaces: tuple[Subspace, ...]
    bases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        if self.dim < 2:
            raise InputError("ambient dimension must be >= 2")
        if not self.subspaces:
            raise InputError("arrangement needs at least one subspace")
        codims = {s.codim for s in self.subspaces}
        if len(codims) > 1:
            raise InputError(f"subspaces have mixed codimensions {sorted(codims)}")
        for s in self.subspaces:
            if s.dim != self.dim:
                raise InputError(f"subspace {s.name!r} lives in dimension {s.dim}, not {self.dim}")
        names = [s.name for s in self.subspaces]
        if len(set(names)) != len(names):
            raise InputError("subspace names must be distinct")
        for i, a in enumerate(self.subspaces):
            for b in self.subspaces[i + 1:]:
                if a.subdim == b.subdim and intersection_dim(a, b) == a.subdim:
                    raise InputError(f"subspaces {a.name!r} and {b.name!r} coincide")
        object.__setattr__(self, "bases", np.array([s.basis for s in self.subspaces]))

    def bases_of(self, itinerary) -> np.ndarray:
        """The bases B_i of the itinerary's subspaces, stacked as (k, m, dim)."""
        return self.bases[list(itinerary)]

    def index_of(self, name: str) -> int:
        for i, s in enumerate(self.subspaces):
            if s.name == name:
                return i
        raise InputError(f"no subspace named {name!r}")

    def distance_to_locus(self, x) -> float:
        """Distance to the union of all collision subspaces."""
        x = _as_vector(x, self.dim)
        w = _perp(self.bases, x[None, :])
        return math.sqrt(float(_row_dot(w, w).min()))

    def on_locus(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.distance_to_locus(x) <= tol

    def tube_intervals(self, starts, directions, tol: float):
        """Subspace.tube_interval of lines p + t d, p and d (..., dim), against
        every subspace at once: (lo, hi), each (..., n).  A direction parallel
        to L (|P⊥d|^2 <= 1e-30 max(|d|^2, 1)) gives (-inf, inf) inside the
        tube; a line farther than tol everywhere the empty (inf, -inf).
        """
        starts = np.asarray(starts, dtype=float)
        directions = np.asarray(directions, dtype=float)
        if starts.shape[-1:] != (self.dim,) or directions.shape != starts.shape:
            raise InputError(f"lines need starts and directions of one shape (..., {self.dim})")
        a, t_star, gap2, w2 = _line_tube(self.bases, tol, starts, directions)
        parallel = a <= 1e-30 * np.maximum(_row_dot(directions, directions), 1.0)[..., None]
        half = np.where(parallel, math.inf,
                        np.sqrt(np.maximum(gap2, 0.0) / np.where(parallel, 1.0, a)))
        meets = np.where(parallel, w2 <= tol * tol, gap2 >= 0.0)
        return np.where(meets, t_star - half, math.inf), np.where(meets, t_star + half, -math.inf)

    def segment_collisions(self, p, q, tol: float = MEMBERSHIP_TOL):
        """Proximity events of the segment p->q with the arrangement.

        For each subspace whose tol-tube the segment enters, reports one
        (subspace index, t) pair with t the midpoint of the within-tolerance
        parameter range clamped to [0, 1]; for a transversal crossing this is
        the crossing parameter itself.  Sorted by t, ties by index.
        """
        p = _as_vector(p, self.dim)
        q = _as_vector(q, self.dim)
        d = q - p
        if np.linalg.norm(d) == 0.0:
            raise InputError("segment endpoints coincide")
        lo, hi = self.tube_intervals(p, d, tol)
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 1.0)
        hits = np.flatnonzero(lo <= hi)
        t = 0.5 * (lo[hits] + hi[hits])
        order = np.argsort(t, kind="stable")
        return [(int(i), float(ti)) for i, ti in zip(hits[order], t[order])]

    def ray_hits_beyond_start(self, start, direction, tol: float = MEMBERSHIP_TOL) -> bool:
        """True when the ray start + t*direction (t >= 0) meets some subspace
        tube beyond its initial point."""
        start = _as_vector(start, self.dim)
        direction = _as_vector(direction, self.dim, "direction")
        return bool(self.rays_hit_beyond_start(start[None], direction[None], tol)[0])

    def rays_hit_beyond_start(self, starts, directions, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """For rays (r, dim) of starts and directions, whether each meets some
        subspace tube beyond its initial point, tested against every subspace
        at once; (r,) booleans.

        Along a line the distance to a subspace is convex, so each tube is
        one parameter interval (see tube_intervals).  An interval containing
        t = 0 is the allowed initial collision; a ray meets a tube beyond its
        start when the interval begins at t > 0, or when the ray runs
        parallel to the subspace inside the tube forever.
        """
        starts = np.asarray(starts, dtype=float).reshape(-1, self.dim)
        directions = np.asarray(directions, dtype=float).reshape(starts.shape)
        lo, hi = self.tube_intervals(starts, directions, tol)
        return ((lo <= hi) & ((lo > 0.0) | (hi == math.inf))).any(axis=1)

    def min_angle(self) -> float:
        """Smallest principal angle over all subspace pairs, in (0, pi/2].

        Requires every pair to intersect only at the origin; otherwise the
        angle bound this feeds does not apply and we refuse.
        """
        if len(self.subspaces) < 2:
            raise PreconditionError("min_angle needs at least two subspaces")
        best = math.pi / 2
        for i, a in enumerate(self.subspaces):
            for b in self.subspaces[i + 1:]:
                if intersection_dim(a, b) > 0:
                    raise PreconditionError(
                        f"subspaces {a.name!r} and {b.name!r} intersect nontrivially")
                best = min(best, principal_angle(a, b))
        return best

    def is_pairwise_transversal(self, tol: float = 1e-10) -> bool:
        """Whether every pair intersects in the generic (minimal) dimension.

        Exposed as a predicate only; no behavior in this package depends on it.
        """
        for i, a in enumerate(self.subspaces):
            for b in self.subspaces[i + 1:]:
                generic = max(a.subdim + b.subdim - self.dim, 0)
                if intersection_dim(a, b, tol) != generic:
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "subspaces": [
                {"name": s.name, "basis": s.basis.tolist(), "sigma": s.sigma}
                for s in self.subspaces
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Arrangement":
        try:
            dim = int(data["dim"])
            subs = [
                Subspace.from_spanning(
                    str(entry["name"]), entry["basis"], dim,
                    float(entry.get("sigma", 1.0)))
                for entry in data["subspaces"]
            ]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed arrangement JSON: {exc}") from exc
        return cls(dim, tuple(subs))


def load_arrangement(path) -> Arrangement:
    with open(path) as fh:
        return Arrangement.from_json_dict(json.load(fh))


def save_arrangement(arr: Arrangement, path) -> None:
    with open(path, "w") as fh:
        json.dump(arr.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class Itinerary:
    """Ordered list of subspace indices a trajectory must hit.

    Consecutive repeats are forbidden: a vertex cannot be followed by another
    vertex on the same subspace without an intervening edge off it.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) < 1:
            raise InputError("itinerary must have length >= 1")
        for a, b in zip(self.indices, self.indices[1:]):
            if a == b:
                raise InputError("itinerary has a repeated consecutive label")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, i):
        return self.indices[i]

    @classmethod
    def from_labels(cls, arr: Arrangement, labels) -> "Itinerary":
        return cls(tuple(arr.index_of(str(name)) for name in labels))

    def labels(self, arr: Arrangement) -> list[str]:
        return [arr.subspaces[i].name for i in self.indices]

    def validate_against(self, arr: Arrangement) -> None:
        for i in self.indices:
            if not 0 <= i < len(arr.subspaces):
                raise InputError(f"itinerary index {i} out of range")
