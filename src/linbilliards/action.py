"""Polygonal path length over a product of subspaces: value, gradient, Hessian.

The variable is a chain (q_1, ..., q_k) with q_i constrained to the i-th
itinerary subspace; the constraint is enforced exactly by working in intrinsic
coordinates c_i with q_i = B_i^T c_i for the orthonormal basis B_i.

One private kernel holds the per-edge math for a smoothing mu^2 >= 0: an edge
of soft length f = sqrt(r^2 + mu^2) and direction n contributes the quadratic
form |η - <η, n> n|^2 / f in the difference η of its endpoint variations, so
the ambient Hessian is block-tridiagonal with weights (I - n n^T) / f.  The
solver, the Hessian model and (through its walls' tangent projectors) the
thickened wall polish reduce it to stacked chain coordinates with
``_stacked``, which writes H at one block layout per (k, m).
``HessianModel`` is one exact (mu = 0) pass of it at a chain:
the edge lengths, the coincidence test, the edge terms and their reduction to
stacked coordinates; ``gradient``, ``hessian`` and the solver's classification
all read that one model, which the solver builds from the exact pass its
Newton core stopped at.  At a critical point this reproduces the normal
form with diagonal weights β_i = 1/r_{i-1,i} + 1/r_{i,i+1} and contraction
factors that make the preconditioned matrix I minus a sub-unit-norm coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arrangement import Arrangement, Itinerary, _frozen
from .errors import InputError, NonSmoothPoint

# consecutive points closer than this times the solve's scale (anchor_scale)
# make the path length non-smooth; derivative code refuses to evaluate there
COINCIDENCE_TOL = 1e-9


@dataclass(frozen=True)
class Chain:
    """A chain of collision vertices: coordinates c_i over the itinerary's
    stacked bases (one (k, m) array) and the points q_i = B_i^T c_i."""

    coords: np.ndarray  # (k, m)
    points: np.ndarray  # (k, dim)

    @classmethod
    def from_coords(cls, arr: Arrangement, itinerary: Itinerary, coords) -> "Chain":
        bases = arr.bases_of(itinerary)
        coords = np.asarray(coords, dtype=float)
        if coords.shape != bases.shape[:2]:
            raise InputError(f"coords have shape {coords.shape}, expected {bases.shape[:2]}")
        return cls(coords, _to_points(bases, coords))

    @classmethod
    def from_points(cls, arr: Arrangement, itinerary: Itinerary, points) -> "Chain":
        """Project the given points onto their subspaces and take coordinates."""
        points = np.asarray(points, dtype=float).reshape(len(itinerary), arr.dim)
        return cls.from_coords(arr, itinerary, _to_coords(arr.bases_of(itinerary), points))

    @property
    def k(self) -> int:
        return self.points.shape[0]


def _to_points(bases: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Points B_i^T c_i (k, dim) of coordinates (k, m) over bases (k, m, dim)."""
    return (bases.transpose(0, 2, 1) @ coords[:, :, None])[:, :, 0]


def _to_coords(bases: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Coordinates B_i v_i (k, m) of the projections of vectors (k, dim)."""
    return (bases @ vectors[:, :, None])[:, :, 0]


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
    return float(_edge_lengths(_point_list(A, chain_points, B))[1].sum())


def _edge_lengths(pts: np.ndarray, mu2: float = 0.0):
    """Edge vectors of the point list and their soft lengths sqrt(r^2 + mu2)."""
    edges = pts[1:] - pts[:-1]
    r2 = (edges * edges).sum(axis=1)   # >= +0, so r2 + 0.0 is r2
    return edges, np.sqrt(r2 + mu2 if mu2 else r2)


def _edge_terms(edges: np.ndarray, f: np.ndarray):
    """Kernel terms of edges of soft length f (all f > 0): the value, the unit
    directions n (k+1, dim), the vertex gradients n_in - n_out (k, dim), the
    diagonal Hessian blocks W_j + W_{j+1} (k, dim, dim) and the blocks
    -W_{j+1} coupling vertices j, j+1 (k-1, dim, dim), W_e = (I - n_e n_e^T)
    / f_e."""
    n = edges / f[:, None]
    W = (_identity(edges.shape[1]) - n[:, :, None] * n[:, None, :]) / f[:, None, None]
    return float(f.sum()), n, n[:-1] - n[1:], W[:-1] + W[1:], -W[1:-1]


@lru_cache(maxsize=8)
def _identity(dim: int) -> np.ndarray:
    return _frozen(np.eye(dim))


@lru_cache(maxsize=16)
def _block_layout(k: int, m: int):
    """Flat positions in a (k*m, k*m) matrix of the entries [a, b] of its k
    diagonal (m, m) blocks (k, m, m), and of the entries [a, b] of its k-1
    super-diagonal blocks and [b, a] of its k-1 sub-diagonal ones (2, k-1,
    m, m), so that one (k-1, m, m) array written there fills both."""
    i, a, b = np.ogrid[:k, :m, :m]
    diag = (i * m + a) * (k * m) + i * m + b
    sub = ((i[:-1] + 1) * m + b) * (k * m) + i[:-1] * m + a
    return _frozen(diag), _frozen(np.stack((diag[:-1] + m, sub)))


def _stacked(bases: np.ndarray, grad, diag, off, bases_t=None):
    """Ambient kernel derivatives reduced to stacked chain coordinates over
    bases (k, m, dim): the gradient (k*m,) and the dense Hessian (k*m, k*m).
    The rows of each basis may be any linear map of a vertex's variation,
    such as the wall polish's tangent projectors (k, dim, dim); bases_t, if
    given, is bases.transpose(0, 2, 1).  H is written at _block_layout(k, m)."""
    k, m, _ = bases.shape
    bases_t = bases.transpose(0, 2, 1) if bases_t is None else bases_t
    diag_at, off_at = _block_layout(k, m)
    H = np.zeros(k * m * k * m)
    H[diag_at] = bases @ diag @ bases_t
    H[off_at] = bases[:-1] @ off @ bases_t[1:]
    grad = (bases @ grad[:, :, None]).reshape(k * m)
    return grad, H.reshape(k * m, k * m)


def gradient(arr: Arrangement, itinerary: Itinerary, A, chain: Chain, B) -> np.ndarray:
    """Intrinsic gradient (k, m) of the path length at the chain.

    Row i is B_i (n(q_i, q_{i-1}) - n(q_{i+1}, q_i)); all rows vanish
    exactly when the tangential-momentum law holds at every vertex.
    """
    model = hessian(arr, itinerary, A, chain, B)
    return model.gradient.reshape(model.bases.shape[:2])


def gradient_stacked(arr, itinerary, A, chain, B) -> np.ndarray:
    return gradient(arr, itinerary, A, chain, B).reshape(-1)


class HessianModel:
    """Exact second derivative of the path length in chain coordinates.

    ``matrix`` is the symmetric quadratic form and ``gradient`` the stacked
    first derivative, both over the itinerary's stacked bases ``bases``
    (k, m, dim).  The structured pieces of the critical-point normal form
    (betas, per-vertex norms, coupling operators, the tridiagonal operator
    matrix M and its preconditioning) are exposed as methods; they are
    meaningful where the per-vertex tangential direction a_i has norm < 1,
    which holds at generic chains.

    The model is built from one exact (mu = 0) kernel pass at the chain.  It
    measures that pass itself unless the caller passes the one it holds
    already as ``edge_pass``: the edge lengths (k+1,), unit edges (k+1, dim),
    stacked gradient (k*m,) and Hessian (k*m, k*m) of ``_edge_terms`` and
    ``_stacked`` at exactly these points, as the solver's Newton core
    computes them, and may pass the stacked ``bases`` and the solve's
    ``scale`` (Arrangement.anchor_scale) it holds too.  Either way the
    coincidence test (an edge within COINCIDENCE_TOL * scale) and, on first
    read, the structured pieces below are built here from the same arrays.
    """

    def __init__(self, arr: Arrangement, itinerary: Itinerary, A, chain: Chain, B,
                 edge_pass=None, bases=None, scale=None):
        self.chain = chain
        self.bases = arr.bases_of(itinerary) if bases is None else bases   # (k, m, dim)
        scale = arr.anchor_scale(A, B)[0] if scale is None else scale
        if edge_pass is None:
            edges, lengths = _edge_lengths(_point_list(A, chain.points, B))
        else:
            lengths = edge_pass[0]
        if (lengths <= COINCIDENCE_TOL * scale).any():
            raise NonSmoothPoint("consecutive path points coincide")
        if edge_pass is None:
            _, units, grad, diag, off = _edge_terms(edges, lengths)
            edge_pass = (lengths, units, *_stacked(self.bases, grad, diag, off))
        lengths, units, self.gradient, self.matrix = edge_pass
        self.unit_edges = units            # (k+1, dim)
        self.edge_lengths = lengths        # (k+1,)

    # on first read: β_i = 1/r_{i-1,i} + 1/r_{i,i+1}, and the tangential
    # components a_i = B_i^T (B_i n) of the incoming/outgoing edge directions
    betas = cached_property(lambda self: 1.0 / self.edge_lengths[:-1] + 1.0 / self.edge_lengths[1:])
    a_in = cached_property(
        lambda self: _to_points(self.bases, _to_coords(self.bases, self.unit_edges[:-1])))
    a_out = cached_property(
        lambda self: _to_points(self.bases, _to_coords(self.bases, self.unit_edges[1:])))

    # -- structured critical-point form ------------------------------------

    def a_consistency(self) -> float:
        """Max mismatch between the two tangential projections at the vertices
        (zero exactly at critical points)."""
        if self.chain.k == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.a_in - self.a_out, axis=1)))

    def _alphas(self) -> np.ndarray:
        """Coordinates α_i (k, m) of the a_i; NonSmoothPoint if some |α_i| >= 1."""
        alpha = _to_coords(self.bases, self.a_in)
        if np.any(np.linalg.norm(alpha, axis=1) >= 1.0):
            raise NonSmoothPoint("per-vertex norm degenerate: |a_i| >= 1")
        return alpha

    def norm_grams(self) -> np.ndarray:
        """Gram matrices (k, m, m) of the per-vertex inner products
        |ξ|^2 - <ξ, a_i>^2."""
        alpha = self._alphas()
        return np.eye(alpha.shape[1]) - alpha[:, :, None] * alpha[:, None, :]

    def _inverse_roots(self) -> np.ndarray:
        """Closed-form G_i^{-1/2} = I + c_i α_i α_i^T (k, m, m), c_i = ((1 -
        |α_i|^2)^{-1/2} - 1) / |α_i|^2 = 1 / (s_i (1 + s_i)) for s_i = sqrt(1 -
        |α_i|^2), which needs no division by |α_i|."""
        alpha = self._alphas()
        s = np.sqrt(1.0 - (alpha * alpha).sum(axis=1))
        return np.eye(alpha.shape[1]) + (1.0 / (s * (1.0 + s)))[:, None, None] \
            * alpha[:, :, None] * alpha[:, None, :]

    def gram(self) -> np.ndarray:
        grams = self.norm_grams()
        k, m, _ = grams.shape
        G = np.zeros((k, m, k, m))
        G[np.arange(k), :, np.arange(k), :] = grams
        return G.reshape(k * m, k * m)

    def _joining_block(self, i: int, j: int) -> np.ndarray:
        """Q_{ij} = B_i (I - n n^T) B_j^T, |i-j| = 1: the Hessian block times -r."""
        if abs(i - j) != 1:
            raise InputError("coupling defined only for adjacent blocks")
        m = self.bases.shape[1]
        return -self.edge_lengths[min(i, j) + 1] * self.matrix[i * m:(i + 1) * m,
                                                               j * m:(j + 1) * m]

    def coupling(self, i: int, j: int) -> np.ndarray:
        """Coordinate matrix of the operator S_{ij} = G_i^{-1} Q_{ij}: L_j -> L_i."""
        return np.linalg.solve(self.norm_grams()[i], self._joining_block(i, j))

    def coupling_opnorm(self, i: int, j: int) -> float:
        """Operator norm of S_{ij} relative to the per-vertex norms:
        |G_i^{1/2} S_{ij} G_j^{-1/2}| = |G_i^{-1/2} Q_{ij} G_j^{-1/2}|."""
        Q = self._joining_block(i, j)
        roots = self._inverse_roots()
        return float(np.linalg.norm(roots[i] @ Q @ roots[j], 2))

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
        """Smallest eigenvalue of M: the generalized problem H x = μ G x for
        G = ``gram()``, with the vertex Grams G_i = I - α_i α_i^T over the
        coordinates α_i of a_i; inf for an empty chain space.

        Taken as eigvalsh(G^{-1/2} H G^{-1/2}) over ``_inverse_roots``; raises
        NonSmoothPoint where some |α_i| >= 1.
        """
        H = self.matrix
        if H.size == 0:
            return math.inf
        root = self._inverse_roots()
        k, m, _ = root.shape
        blocks = H.reshape(k, m, k, m).transpose(0, 2, 1, 3)
        scaled = (root[:, None] @ blocks @ root[None, :]).transpose(0, 2, 1, 3)
        return float(np.linalg.eigvalsh(scaled.reshape(k * m, k * m))[0])

    def symmetry_defect(self) -> float:
        H = self.matrix
        return float(np.max(np.abs(H - H.T))) if H.size else 0.0


def hessian(arr: Arrangement, itinerary: Itinerary, A, chain: Chain, B) -> HessianModel:
    """Exact Hessian of the path length at a smooth chain."""
    return HessianModel(arr, itinerary, A, chain, B)


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
    if M.size == 0:
        return Preconditioned(M, M, np.zeros(0), np.zeros(0))
    P = np.repeat(1.0 / model.betas, model.bases.shape[1])[:, None] * M
    A = np.eye(P.shape[0]) - P
    r = model.edge_lengths
    weight_a = r[1:] / (r[:-1] + r[1:])
    weight_b = r[:-1] / (r[:-1] + r[1:])
    return Preconditioned(P, A, weight_a, weight_b)
