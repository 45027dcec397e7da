"""Polygonal path length over a product of subspaces: value, gradient, Hessian.

The variable is a chain (q_1, ..., q_k) with q_i constrained to the i-th
itinerary subspace; the constraint is enforced exactly by working in intrinsic
coordinates c_i with q_i = B_i^T c_i for the orthonormal basis B_i.

One private kernel holds the per-edge math for a smoothing mu^2 >= 0: an edge
of soft length f = sqrt(r^2 + mu^2) and direction n contributes the quadratic
form |η - <η, n> n|^2 / f in the difference η of its endpoint variations, so
the ambient Hessian is block-tridiagonal with weights (I - n n^T) / f.  The
solver, the Hessian model and the thickened wall polish reduce it to their own
coordinates.  At a critical point (mu = 0) this reproduces the normal form with
diagonal weights β_i = 1/r_{i-1,i} + 1/r_{i,i+1} and contraction factors that
make the preconditioned matrix I minus a sub-unit-norm coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .arrangement import Arrangement, Itinerary, _as_vector
from .errors import InputError, NonSmoothPoint

# consecutive points closer than this (times the problem scale) make the
# path length non-smooth; derivative code refuses to evaluate there
COINCIDENCE_TOL = 1e-9


@dataclass(frozen=True)
class Chain:
    """Intrinsic coordinates of the collision vertices, one block per subspace."""

    coords: tuple[np.ndarray, ...]
    points: np.ndarray  # (k, dim), cached q_i = B_i^T c_i

    @classmethod
    def from_coords(cls, arr: Arrangement, itinerary: Itinerary, coords) -> "Chain":
        coords = tuple(np.asarray(c, dtype=float) for c in coords)
        if len(coords) != len(itinerary):
            raise InputError("one coordinate block per itinerary entry required")
        pts = np.array([
            arr.subspaces[idx].from_coords(c)
            for idx, c in zip(itinerary, coords)
        ])
        return cls(coords, pts)

    @classmethod
    def from_points(cls, arr: Arrangement, itinerary: Itinerary, points) -> "Chain":
        """Project the given points onto their subspaces and take coordinates."""
        points = np.asarray(points, dtype=float).reshape(len(itinerary), arr.dim)
        coords = tuple(arr.subspaces[idx].coords(p) for idx, p in zip(itinerary, points))
        return cls.from_coords(arr, itinerary, coords)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    def block_dims(self) -> list[int]:
        return [c.shape[0] for c in self.coords]

    def stacked(self) -> np.ndarray:
        if not self.coords:
            return np.zeros(0)
        return np.concatenate(self.coords)

    @classmethod
    def from_stacked(cls, arr: Arrangement, itinerary: Itinerary, x: np.ndarray) -> "Chain":
        # one codimension per arrangement: every block has the same size
        coords = np.asarray(x, dtype=float).reshape(len(itinerary), arr.subspaces[0].subdim)
        return cls.from_coords(arr, itinerary, coords)


def _point_list(A, chain_points, B) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    chain_points = np.asarray(chain_points, dtype=float).reshape(-1, A.shape[0])
    return np.vstack([A[None, :], chain_points, B[None, :]])


def action(A, chain_points, B) -> float:
    """Total length of the polygonal path A -> q_1 -> ... -> q_k -> B.

    Defined everywhere, including at coincident vertices where it is
    non-smooth; equals the travel time at unit speed.
    """
    return _path_value(_point_list(A, chain_points, B))


def _edges(pts: np.ndarray, scale: float, coincidence_tol: float):
    diffs = np.diff(pts, axis=0)
    lengths = np.linalg.norm(diffs, axis=1)
    if np.any(lengths <= coincidence_tol * scale):
        raise NonSmoothPoint("consecutive path points coincide")
    return diffs / lengths[:, None], lengths


def _path_value(pts: np.ndarray, mu2: float = 0.0) -> float:
    """Smoothed length sum_e sqrt(r_e^2 + mu2) of the point list."""
    edges = np.diff(pts, axis=0)
    return float(np.sum(np.sqrt(np.sum(edges * edges, axis=1) + mu2)))


def _path_kernel(pts: np.ndarray, mu2: float = 0.0):
    """Value and ambient derivatives of the smoothed length of A, q_1..q_k, B.

    With W_e = (I - n_e n_e^T) / f_e per edge, returns the value, the vertex
    gradients n_in - n_out (k, dim), the diagonal Hessian blocks W_j + W_{j+1}
    (k, dim, dim) and the blocks -W_{j+1} coupling vertices j, j+1 (k-1, dim,
    dim).  At mu2 = 0 the caller must keep consecutive points apart.
    """
    edges = np.diff(pts, axis=0)
    f = np.sqrt(np.sum(edges * edges, axis=1) + mu2)
    n = edges / f[:, None]
    W = (np.eye(pts.shape[1]) - n[:, :, None] * n[:, None, :]) / f[:, None, None]
    return float(np.sum(f)), n[:-1] - n[1:], W[:-1] + W[1:], -W[1:-1]


def _stacked_derivatives(bases: np.ndarray, pts: np.ndarray, mu2: float = 0.0):
    """The kernel in stacked chain coordinates for bases stacked as (k, m, dim).

    Returns the value, the gradient (k*m,) and the dense Hessian (k*m, k*m).
    """
    value, grad, diag, off = _path_kernel(pts, mu2)
    k, m, _ = bases.shape
    bases_t = bases.transpose(0, 2, 1)
    H = np.zeros((k, m, k, m))
    idx = np.arange(k)
    H[idx, :, idx, :] = bases @ diag @ bases_t
    cross = bases[:-1] @ off @ bases_t[1:]
    H[idx[:-1], :, idx[1:], :] = cross
    H[idx[1:], :, idx[:-1], :] = cross.transpose(0, 2, 1)
    grad = (bases @ grad[:, :, None]).reshape(k * m)
    return value, grad, H.reshape(k * m, k * m)


def gradient(arr: Arrangement, itinerary: Itinerary, A, chain: Chain, B,
             coincidence_tol: float = COINCIDENCE_TOL) -> list[np.ndarray]:
    """Per-block intrinsic gradient of the path length at the chain.

    Block i is B_i (n(q_i, q_{i-1}) - n(q_{i+1}, q_i)); all blocks vanish
    exactly when the tangential-momentum law holds at every vertex.
    """
    A = _as_vector(A, arr.dim, "anchor A")
    B = _as_vector(B, arr.dim, "anchor B")
    pts = _point_list(A, chain.points, B)
    scale = max(float(np.linalg.norm(B - A)), 1e-300)
    units, _ = _edges(pts, scale, coincidence_tol)
    # units[j] is the incoming edge direction at vertex j+1, units[j+1]
    # the outgoing one; their difference is the ambient derivative
    ambient = units[:-1] - units[1:]
    return [arr.subspaces[idx].basis @ ambient[j] for j, idx in enumerate(itinerary)]


def gradient_stacked(arr, itinerary, A, chain, B, **kw) -> np.ndarray:
    blocks = gradient(arr, itinerary, A, chain, B, **kw)
    return np.concatenate(blocks) if blocks else np.zeros(0)


class HessianModel:
    """Exact second derivative of the path length in chain coordinates.

    ``matrix`` is the symmetric quadratic form.  The structured pieces of the
    critical-point normal form (betas, per-vertex norms, coupling operators,
    the tridiagonal operator matrix M and its preconditioning) are exposed as
    methods; they are meaningful where the per-vertex tangential direction
    a_i has norm < 1, which holds at generic chains.
    """

    def __init__(self, arr: Arrangement, itinerary: Itinerary, A, chain: Chain, B,
                 coincidence_tol: float = COINCIDENCE_TOL):
        self.arr = arr
        self.itinerary = itinerary
        self.chain = chain
        pts = _point_list(A, chain.points, B)
        scale = max(float(np.linalg.norm(pts[-1] - pts[0])), 1e-300)
        units, lengths = _edges(pts, scale, coincidence_tol)
        self.unit_edges = units            # (k+1, dim)
        self.edge_lengths = lengths        # (k+1,)
        k = chain.k
        self._offsets = np.concatenate([[0], np.cumsum(chain.block_dims())]).astype(int)
        bases = np.array([arr.subspaces[idx].basis for idx in itinerary])
        _, _, self.matrix = _stacked_derivatives(bases, pts)

        # β_i = 1/r_{i-1,i} + 1/r_{i,i+1}
        self.betas = np.array([1.0 / lengths[j] + 1.0 / lengths[j + 1] for j in range(k)])
        # tangential components a_i of the incoming/outgoing edge directions
        self.a_in = np.array([arr.subspaces[itinerary[j]].project(units[j]) for j in range(k)])
        self.a_out = np.array([arr.subspaces[itinerary[j]].project(units[j + 1]) for j in range(k)])

    # -- structured critical-point form ------------------------------------

    def block(self, H: np.ndarray, i: int, j: int) -> np.ndarray:
        o = self._offsets
        return H[o[i]:o[i + 1], o[j]:o[j + 1]]

    def a_consistency(self) -> float:
        """Max mismatch between the two tangential projections at the vertices
        (zero exactly at critical points)."""
        if self.chain.k == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.a_in - self.a_out, axis=1)))

    def norm_grams(self) -> list[np.ndarray]:
        """Gram matrices of the per-vertex inner products |ξ|^2 - <ξ, a_i>^2."""
        grams = []
        for j, idx in enumerate(self.itinerary):
            sub = self.arr.subspaces[idx]
            alpha = sub.coords(self.a_in[j])
            if np.linalg.norm(alpha) >= 1.0:
                raise NonSmoothPoint("per-vertex norm degenerate: |a_i| >= 1")
            grams.append(np.eye(sub.subdim) - np.outer(alpha, alpha))
        return grams

    def gram(self) -> np.ndarray:
        grams = self.norm_grams()
        return scipy.linalg.block_diag(*grams) if grams else np.zeros((0, 0))

    def coupling(self, i: int, j: int) -> np.ndarray:
        """Coordinate matrix of the operator S_{ij}: L_j -> L_i, |i-j| = 1."""
        if abs(i - j) != 1:
            raise InputError("coupling defined only for adjacent blocks")
        # the Hessian block is -B_i (I - n n^T) B_j^T / r on the joining edge
        Q = -self.edge_lengths[min(i, j) + 1] * self.block(self.matrix, i, j)
        G = self.norm_grams()[i]
        return np.linalg.solve(G, Q)

    def coupling_opnorm(self, i: int, j: int) -> float:
        """Operator norm of S_{ij} relative to the per-vertex norms."""
        grams = self.norm_grams()
        Gi, Gj = grams[i], grams[j]
        S = self.coupling(i, j)
        gi = scipy.linalg.sqrtm(Gi).real
        gj = scipy.linalg.sqrtm(Gj).real
        return float(np.linalg.norm(gi @ S @ np.linalg.inv(gj), 2))

    def tridiagonal(self) -> np.ndarray:
        """The operator matrix M with d2S(ξ, ζ) = <ξ, M ζ>_* in chain coordinates.

        Block-tridiagonal; at a critical point the diagonal blocks are β_i I
        and the off-diagonal blocks are -S_{i,i±1}/r_{i,i±1}.
        """
        G = self.gram()
        if G.size == 0:
            return np.zeros((0, 0))
        return np.linalg.solve(G, self.matrix)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of M (generalized problem H x = μ G x)."""
        if self.matrix.size == 0:
            return math.inf
        return float(scipy.linalg.eigh(self.matrix, self.gram(),
                                       eigvals_only=True)[0])

    def symmetry_defect(self) -> float:
        H = self.matrix
        return float(np.max(np.abs(H - H.T))) if H.size else 0.0


def hessian(arr: Arrangement, itinerary: Itinerary, A, chain: Chain, B,
            coincidence_tol: float = COINCIDENCE_TOL) -> HessianModel:
    """Exact Hessian of the path length at a smooth chain."""
    A = _as_vector(A, arr.dim, "anchor A")
    B = _as_vector(B, arr.dim, "anchor B")
    return HessianModel(arr, itinerary, A, chain, B, coincidence_tol)


@dataclass(frozen=True)
class Preconditioned:
    """P = D M with D the block-diagonal inverse of the β weights.

    P = I - A where A couples only adjacent blocks; its row weights
    a_i = r_{i,i+1} / (r_{i,i-1} + r_{i,i+1}) and b_i = 1 - a_i contract the
    coupling enough that 1 is never an eigenvalue of A at generic chains.
    """

    P: np.ndarray
    A: np.ndarray
    weight_a: np.ndarray
    weight_b: np.ndarray

    def spectral_radius(self) -> float:
        if self.A.size == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


def preconditioned_P(model: HessianModel) -> Preconditioned:
    """Precondition the tridiagonal operator matrix by the inverse β weights."""
    M = model.tridiagonal()
    k = model.chain.k
    dims = model.chain.block_dims()
    if k == 0 or M.size == 0:
        eye = np.eye(sum(dims))
        return Preconditioned(eye, np.zeros_like(eye), np.zeros(0), np.zeros(0))
    scale = np.concatenate([np.full(dims[j], 1.0 / model.betas[j]) for j in range(k)])
    P = scale[:, None] * M
    A = np.eye(P.shape[0]) - P
    r = model.edge_lengths
    weight_a = np.array([r[j + 1] / (r[j] + r[j + 1]) for j in range(k)])
    weight_b = np.array([r[j] / (r[j] + r[j + 1]) for j in range(k)])
    return Preconditioned(P, A, weight_a, weight_b)
