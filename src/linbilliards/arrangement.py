"""Euclidean space with a finite collection of linear collision subspaces.

All geometry primitives the rest of the package consumes live here:
orthogonal projection onto a subspace, point-to-subspace distance,
segment/ray proximity queries, and principal angles between subspaces.
Subspaces are linear (through the origin), carried as orthonormal bases B
(chain coordinates) and as complement projectors I - B^T B, the one form
every perpendicular part is taken from (``_perp``, one BLAS dot per entry).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PreconditionError

# Absolute membership tolerance on unit-scale data; callers pass an explicit
# tol wherever the geometry is scale dependent.
MEMBERSHIP_TOL = 1e-9

_ORTHO_TOL = 1e-12
_CLAMP_LOG_TOL = 1e-12

logger = logging.getLogger(__name__)


def _as_vector(x, dim: int, what: str = "point") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise InputError(f"{what} has shape {v.shape}, expected ({dim},)")
    return v


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: an arrangement, cache or solve plan shares it."""
    array.flags.writeable = False
    return array


def _complement(basis: np.ndarray) -> np.ndarray:
    """The read-only projector I - B^T B (dim, dim) of a basis B (m, dim)."""
    return _frozen(np.eye(basis.shape[1]) - basis.T @ basis)


# 0-d operands of the ray rule: a Python float is converted on every ufunc call
_ZERO, _ONE, _PARALLEL = (_frozen(np.array(c)) for c in (0.0, 1.0, 1e-30))


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner products of matching rows of u and v (..., dim) -> (...): one
    np.vecdot call, which rounds as one BLAS dot per row does (np.dot, a
    stacked matmul of (1, dim) rows by (dim, 1) columns and the norm of a 1-D
    array), unlike a pairwise-summed reduction over the last axis."""
    return np.vecdot(u, v)


def _perp(complements: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Components P⊥x of x (..., dim) orthogonal to the subspaces with
    complement projectors (..., dim, dim), each entry one BLAS dot of a
    projector row with x, so each is Subspace.perp(x) bit for bit; leading
    axes broadcast, so x[..., None, :] against (n, dim, dim) gives every
    subspace."""
    return _row_dot(complements, x[..., None, :])


def _tube_approach(rho2, w, u):
    """Closest approach of lines p + t d to tubes of squared radii rho2, from
    the parts w = P⊥p, u = P⊥d (..., n, dim): (a, t_star, gap2), each (...,
    n), a = |u|^2, t_star = -<w, u> / (a + (a == 0.0)), gap2 = rho2 - |w +
    t_star u|^2, the residual formed before its norm (b^2 - ac would cancel
    when rho << |p|); gap2 >= 0 puts t_star -+ sqrt(gap2 / a) in the tube."""
    a = _row_dot(u, u)
    t_star = -_row_dot(w, u) / (a + (a == 0.0))
    res = w + t_star[..., None] * u
    return a, t_star, rho2 - _row_dot(res, res)


def _rays_hit(perps, directions, tol: float) -> np.ndarray:
    """Whether each of r rays meets each subspace's tube of radius tol beyond
    its start, (r, n), from the perpendicular parts perps (2, r, n, dim) of
    the rays' starts and directions (r, dim): a tube_intervals interval that
    begins at t > 0, or a parallel ray inside the tube, decided as the
    intervals are.  One divisor, max(a, limit), serves t* and the half width
    (a parallel pair's are not read); t* - half > 0 is t* > half in IEEE
    arithmetic.  An end t* + half never overflows to inf: off the parallel
    limit |u| > 1e-15 max(|d|, 1), |t*| <= |w| / |u| and half <= tol / |u|,
    finite wherever |w|^2, <w, u> and tol^2 are (else np.vecdot warned)."""
    w, u, tol2 = perps[0], perps[1], np.array(tol * tol)
    dots = _row_dot(perps[:, None], perps)   # <w, w>, <w, u>; <u, w>, <u, u>
    a, limit = dots[1, 1], _PARALLEL * np.maximum(_row_dot(directions, directions), _ONE)[:, None]
    d = np.maximum(a, limit)
    t = dots[0, 1] / d                       # -t*, so w + t* u is w - t u
    res = w - t[..., None] * u
    gap2 = tol2 - _row_dot(res, res)
    half = np.sqrt(np.maximum(gap2, _ZERO) / d)
    return np.where(a <= limit, dots[0, 0] <= tol2, (gap2 >= _ZERO) & (t < -half))


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
    equals the thickening parameter.  ``complement`` is the projector
    I - B^T B onto the orthogonal complement (the identity for {0}), built
    once, so a perpendicular part is one row dot per projector row
    (``_row_dot``).  ``basis`` and ``complement`` are read-only, also in an
    unpickled copy, which is rebuilt through the constructor.
    """

    name: str
    basis: np.ndarray  # (m, dim), orthonormal rows; m == 0 encodes {0}
    dim: int
    sigma: float = 1.0
    complement: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = _frozen(np.asarray(self.basis, dtype=float).reshape(-1, self.dim))
        object.__setattr__(self, "basis", basis)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InputError(f"subspace {self.name!r}: sigma must be positive and finite")
        if self.codim < 1:
            raise InputError(f"subspace {self.name!r}: codimension must be >= 1")
        gram = basis @ basis.T
        if gram.size and np.max(np.abs(gram - np.eye(len(basis)))) > _ORTHO_TOL:
            raise InputError(f"subspace {self.name!r}: basis rows not orthonormal")
        object.__setattr__(self, "complement", _complement(basis))

    def __reduce__(self):
        return type(self), (self.name, self.basis, self.dim, self.sigma)

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
        """Orthogonal projection onto the subspace, applied as B^T(Bx) (zeros
        for the subspace {0}, whose basis has no rows)."""
        return self.basis.T @ (self.basis @ _as_vector(x, self.dim))

    def perp(self, x) -> np.ndarray:
        """Component of x orthogonal to the subspace: each entry one BLAS dot
        of a complement row with x, so every stacked part (_perp) has its bits."""
        return _row_dot(self.complement, _as_vector(x, self.dim))

    def distance_to(self, x) -> float:
        """Euclidean distance from x to the subspace; zero iff x lies on it."""
        w = self.perp(x)
        return math.sqrt(w @ w)

def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors, arccos clamped (with a
    warning when the cosine is off the unit range by more than rounding)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InputError("angle undefined for zero vector")
    c = float(np.dot(u, v)) / (nu * nv)
    if abs(c) > 1.0 + _CLAMP_LOG_TOL:
        logger.warning("angle cosine %.17g clamped to unit range", c)
    return math.acos(min(1.0, max(-1.0, c)))


def principal_angle(a: Subspace, b: Subspace) -> float:
    """Smallest principal angle between two subspaces (via singular values)."""
    if a.subdim == 0 or b.subdim == 0:
        raise InputError("principal angle undefined against the zero subspace")
    s = np.linalg.svd(a.basis @ b.basis.T, compute_uv=False)
    return math.acos(min(1.0, max(-1.0, float(s[0]))))


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """Dimension of a ∩ b, counted as the number of unit singular values."""
    if a.subdim == 0 or b.subdim == 0:
        return 0
    s = np.linalg.svd(a.basis @ b.basis.T, compute_uv=False)
    return int(np.sum(s >= 1.0 - 1e-10))


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

    Every subspace thus has the same dimension m.  Stacked once, read-only:
    ``bases`` (n, m, dim), for chain coordinates and points, and
    ``complements`` (n, dim, dim), each subspace's ``complement``, from which
    every perpendicular part (perp_parts, the locus distances, the line-tube
    queries) is taken by ``_perp`` with the bits of Subspace.perp.  An
    unpickled copy is rebuilt through the constructor.
    """

    dim: int
    subspaces: tuple[Subspace, ...]
    bases: np.ndarray = field(init=False, repr=False, compare=False)
    complements: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "bases", _frozen(np.array([s.basis for s in self.subspaces])))
        object.__setattr__(self, "complements",
                           _frozen(np.array([s.complement for s in self.subspaces])))

    def __reduce__(self):
        return type(self), (self.dim, self.subspaces)

    def bases_of(self, itinerary) -> np.ndarray:
        """The bases B_i of the itinerary's subspaces, stacked as (k, m, dim)."""
        return self.bases[list(itinerary)]

    def perp_parts(self, x: np.ndarray) -> np.ndarray:
        """The parts P⊥x (n, dim) of one point x (dim,) orthogonal to every
        subspace, from one _row_dot call, each row that subspace's perp(x)
        bit for bit (a matvec would round by the BLAS kernel's blocking)."""
        return _row_dot(self.complements, x)

    def index_of(self, name: str) -> int:
        for i, s in enumerate(self.subspaces):
            if s.name == name:
                return i
        raise InputError(f"no subspace named {name!r}")

    def distance_to_locus(self, x) -> float:
        """Distance to the union of all collision subspaces."""
        return float(self.locus_distances(_as_vector(x, self.dim)))

    def locus_distances(self, points: np.ndarray) -> np.ndarray:
        """distance_to_locus of each of the points (..., dim), (...), from
        one stacked projection onto every subspace."""
        w = _perp(self.complements, points[..., None, :])
        return np.sqrt(_row_dot(w, w).min(axis=-1))

    def on_locus(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.distance_to_locus(x) <= tol

    def tube_intervals(self, starts, directions, tol: float):
        """Parameter intervals {t : dist(p + t d, L) <= tol} of lines p + t d,
        p and d (..., dim), along the full line, against every subspace L at
        once: (lo, hi), each (..., n).  A direction parallel
        to L (|P⊥d|^2 <= 1e-30 max(|d|^2, 1)) gives (-inf, inf) inside the
        tube; a line farther than tol everywhere the empty (inf, -inf).
        """
        starts = np.asarray(starts, dtype=float)
        directions = np.asarray(directions, dtype=float)
        if starts.shape[-1:] != (self.dim,) or directions.shape != starts.shape:
            raise InputError(f"lines need starts and directions of one shape (..., {self.dim})")
        w, u = _perp(self.complements, np.stack((starts, directions))[..., None, :])
        a, t_star, gap2 = _tube_approach(tol * tol, w, u)
        parallel = a <= _PARALLEL * np.maximum(_row_dot(directions, directions), _ONE)[..., None]
        half = np.where(parallel, math.inf, np.sqrt(np.maximum(gap2, 0.0) / (a + parallel)))
        meets = np.where(parallel, _row_dot(w, w) <= tol * tol, gap2 >= 0.0)
        return np.where(meets, t_star - half, math.inf), np.where(meets, t_star + half, -math.inf)

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
        except (KeyError, TypeError, ValueError) as exc:
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
