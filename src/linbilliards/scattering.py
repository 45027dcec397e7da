"""Sampling the scattering relation and verifying its symplectic structure.

A sample is a solved trajectory recorded through its boundary data: anchors,
unit directions, and the reduced oriented lines.  Patches are grids of samples
over anchor rectangles; the Lagrangian/Legendrian residuals contract
finite-difference tangents of the patch with the relevant two-form/one-form
and should vanish to truncation order.

A patch is solved by predictor-corrector continuation along each row of its
grid (Allgower and Georg, Introduction to Numerical Continuation Methods,
ch. 2): at a solved cell the relation's tangent dq/dx = -H_qq^{-1} H_qx is
explicit, so the next cell starts from a second-order prediction, which the
solver's warm path corrects by exact Newton.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .action import Chain, _to_points
from .arrangement import Arrangement, Itinerary
from .errors import InputError, PreconditionError
from .solver import MinimizeResult, minimize
from .trajectory import OrientedLine, boundary_lines


def reduce_line(A, vA) -> OrientedLine:
    """Quotient a pointed ray (A, vA) to its oriented line (v, Q), Q ⊥ v."""
    return OrientedLine.through(A, vA)


@dataclass(frozen=True)
class RelationSample:
    A: np.ndarray
    B: np.ndarray
    vA: np.ndarray
    vB: np.ndarray
    ell_minus: OrientedLine
    ell_plus: OrientedLine
    chain_points: np.ndarray
    value: float

    @classmethod
    def from_result(cls, result: MinimizeResult, A, B) -> "RelationSample":
        traj = result.trajectory
        edges = traj.edge_velocities
        return cls(np.asarray(A, float), np.asarray(B, float), edges[0], edges[-1],
                   *boundary_lines(traj), traj.chain.copy(), result.value)


@dataclass(frozen=True)
class AnchorGrid:
    """Regular grid of anchor points: base + sum_j (i_j * spacing) * axes[j],
    with each index i_j running over -half..half."""

    base: np.ndarray
    axes: np.ndarray      # (m, dim) directions
    half: int
    spacing: float

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        axes = np.asarray(self.axes, dtype=float)
        object.__setattr__(self, "axes", axes.reshape(-1, self.base.shape[0]))
        # written so that a NaN spacing fails it
        if not (self.half >= 0 and 0 < self.spacing < math.inf):
            raise InputError("grid needs half >= 0 and a finite, positive spacing")
        if not (np.isfinite(self.base).all() and np.isfinite(self.axes).all()):
            raise InputError("grid needs a finite base and finite axes")

    def indices(self):
        rng = range(-self.half, self.half + 1)
        return itertools.product(*([rng] * self.axes.shape[0]))

    def point(self, idx) -> np.ndarray:
        out = self.base.copy()
        for i, axis in zip(idx, self.axes):
            out = out + (i * self.spacing) * axis
        return out

    def is_interior(self, idx) -> bool:
        return all(abs(i) < self.half for i in idx)


@dataclass
class RelationPatch:
    """Samples over the product of an A-grid and a B-grid.

    Cells where the solver does not return a valid billiard are stored as
    None: the relation only projects onto an open subset of anchor pairs, and
    the absences chart its complement.
    """

    arr: Arrangement
    itinerary: Itinerary
    grid_A: AnchorGrid
    grid_B: AnchorGrid
    samples: dict

    def sample(self, ia, ib):
        return self.samples.get((tuple(ia), tuple(ib)))

    def valid_fraction(self) -> float:
        total = len(self.samples)
        good = sum(1 for s in self.samples.values() if s is not None)
        return good / total if total else 0.0


def _predicted_chain(result: MinimizeResult, A0, B0, A1, B1) -> Chain:
    """The chain at anchors (A1, B1) predicted from a VALID result at (A0,
    B0) along the relation's tangent dq/dx = -H_qq^{-1} H_qx.

    The anchors enter the gradient only through the first and last edges,
    so the right-hand side r is zero but for B_1 W_1 dA in the first block
    and B_k W_{k+1} dB in the last, W_e = (I - n_e n_e^T) / f_e; the
    prediction is coords + H^{-1} r, second order in (dA, dB).  It reads
    the exact kernel pass the result's model holds and makes one solve; a
    singular or non-finite solve, or an empty chain space, gives the
    result's own chain.
    """
    model, chain = result.model, result.chain
    k, m = chain.coords.shape
    if k * m == 0:
        return chain
    n, f = model.unit_edges, model.edge_lengths
    r = np.zeros((k, m))
    # vertex 1 ends edge 0, vertex k starts edge k (index -1 of both)
    for i, d in ((0, np.subtract(A1, A0)), (-1, np.subtract(B1, B0))):
        r[i] += model.bases[i] @ ((d - n[i] * (n[i] @ d)) / f[i])
    try:
        step = np.linalg.solve(model.matrix, r.reshape(-1))
    except np.linalg.LinAlgError:
        return chain
    coords = chain.coords + step.reshape(k, m)
    if not np.isfinite(coords).all():
        return chain
    return Chain(coords, _to_points(model.bases, coords))


def _solve_cell(arr, itinerary, A, B, start):
    """One cell's result from the start chain (None: a cold solve), or None
    where the cell's input is refused (InputError, PreconditionError); a
    solver failure propagates."""
    try:
        return minimize(arr, itinerary, A, B, initial_chain=start)
    except (InputError, PreconditionError):
        return None


def _solve_row(task):
    """Samples of the cells (A, B) for B in Bs, in order.  task is (arr,
    itinerary, A, Bs, start): the first cell starts from the chain start
    (None: a cold solve), each cell after a valid one from the tangent
    prediction made at that valid cell, and each cell after an absent one
    cold."""
    arr, itinerary, A, Bs, start = task
    samples = []
    for n, B in enumerate(Bs):
        result = _solve_cell(arr, itinerary, A, B, start)
        valid = result is not None and result.is_valid
        samples.append(RelationSample.from_result(result, A, B) if valid else None)
        start = (_predicted_chain(result, A, B, A, Bs[n + 1])
                 if valid and n + 1 < len(Bs) else None)
    return samples


def sample_relation(arr: Arrangement, itinerary: Itinerary,
                    grid_A: AnchorGrid, grid_B: AnchorGrid,
                    jobs: int = 1) -> RelationPatch:
    """Solve the billiard problem on every (A, B) grid cell.

    The empty itinerary samples free motion (the identity relation).  Each
    A-row (one A anchor, every B anchor) is walked in B-grid order, and
    every cell after a valid one starts from the chain that the relation's
    tangent at that cell predicts (``_predicted_chain``), which the solver
    polishes directly at the grid spacings used here (see
    ``solver.minimize``); a cell after an absent one is solved cold.  The
    first cell of the first row, the base, is solved cold, here, before any
    fan-out; every other row's first cell starts from the base's prediction
    at its A (B unchanged).  Rows are independent after that; with jobs > 1
    they fan out over a process pool and are merged back by grid index, so
    the result does not depend on the worker count.  A cell whose input the
    solver refuses is absent; a solver failure (MaxIterations) propagates.
    """
    b_indices = list(grid_B.indices())
    Bs = [grid_B.point(ib) for ib in b_indices]
    a_indices = list(grid_A.indices())
    As = [grid_A.point(ia) for ia in a_indices]
    row_Bs, starts = [Bs] * len(As), [None] * len(As)
    base = _solve_cell(arr, itinerary, As[0], Bs[0], None)
    valid = base is not None and base.is_valid
    head = [RelationSample.from_result(base, As[0], Bs[0]) if valid else None]
    # the first row goes on at its second cell
    row_Bs[0] = Bs[1:]
    if valid:
        starts = [_predicted_chain(base, As[0], Bs[0], A, row[0]) if row else None
                  for A, row in zip(As, row_Bs)]
    tasks = [(arr, itinerary, A, row, start)
             for A, row, start in zip(As, row_Bs, starts)]
    if jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_solve_row, tasks,
                                 chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        rows = [_solve_row(t) for t in tasks]
    rows[0] = head + rows[0]
    samples = {(ia, ib): sample
               for ia, row in zip(a_indices, rows)
               for ib, sample in zip(b_indices, row)}
    return RelationPatch(arr, itinerary, grid_A, grid_B, samples)


def _patch_tangents(patch: RelationPatch, ia, ib, fields):
    """Central-difference tangent vectors of the sample fields at a node.

    ``fields`` maps a RelationSample to a tuple of vectors; returns one
    tangent tuple per grid axis, the A-axes first (plus the exact anchor
    variations), or None if any needed neighbor is absent.
    """
    tangents = []
    for side, grid in enumerate((patch.grid_A, patch.grid_B)):
        for j, direction in enumerate(grid.axes):
            stencil = []
            for delta in (+1, -1):
                node = [ia, ib]
                node[side] = tuple(v + (delta if t == j else 0) for t, v in enumerate(node[side]))
                stencil.append(patch.sample(*node))
            plus, minus = stencil
            if plus is None or minus is None:
                return None
            zero = np.zeros_like(direction)
            diffs = tuple((fp - fm) / (2.0 * grid.spacing)
                          for fp, fm in zip(fields(plus), fields(minus)))
            tangents.append(((direction, zero) if side == 0 else (zero, direction)) + diffs)
    return tangents


def _interior_stencils(patch: RelationPatch, fields):
    """(sample, tangents) at every interior node of the patch whose sample
    and central-difference stencil (``_patch_tangents`` of ``fields``) are
    all present; raises InputError once the walk has found none."""
    found = False
    for ia in patch.grid_A.indices():
        if not patch.grid_A.is_interior(ia):
            continue
        for ib in patch.grid_B.indices():
            if not patch.grid_B.is_interior(ib):
                continue
            node = patch.sample(ia, ib)
            if node is None:
                continue
            tangents = _patch_tangents(patch, ia, ib, fields)
            if tangents is None:
                continue
            found = True
            yield node, tangents
    if not found:
        raise InputError("patch has no interior node with a full stencil")


def lagrangian_residual(patch: RelationPatch) -> float:
    """Max of the product symplectic form on finite-difference tangent pairs.

    The form is omega_B - omega_A with
    omega((dq, dv), (dq', dv')) = <dq, dv'> - <dq', dv>; it vanishes on the
    relation swept out by the solved trajectories, so the sampled residual is
    pure truncation: O(spacing^2) for central differences.
    """
    worst = 0.0
    for _, tangents in _interior_stencils(patch, lambda s: (s.vA, s.vB)):
        for t1, t2 in itertools.combinations(tangents, 2):
            dA1, dB1, dvA1, dvB1 = t1
            dA2, dB2, dvA2, dvB2 = t2
            omega_A = np.dot(dA1, dvA2) - np.dot(dA2, dvA1)
            omega_B = np.dot(dB1, dvB2) - np.dot(dB2, dvB1)
            worst = max(worst, abs(omega_B - omega_A))
    return worst


def legendrian_theta_residual(patch: RelationPatch) -> float:
    """Max of Theta = Q_- . dv_-  -  Q_+ . dv_+ on finite-difference tangents.

    The scaling orbit is tangent to the relation and Theta contracts it to
    zero, so on a Legendrian quotient every patch tangent annihilates Theta.
    The underlying statement assumes itineraries of length > 1; a patch of
    the empty itinerary (free motion, the identity relation, on which Theta
    vanishes identically) is evaluated as well.
    """
    if len(patch.itinerary) == 1:
        raise PreconditionError("Legendrian statement needs itinerary length > 1 or 0")
    worst = 0.0
    for node, tangents in _interior_stencils(patch, lambda s: (s.ell_minus.v, s.ell_plus.v)):
        for _, _, dv_minus, dv_plus in tangents:
            theta = (np.dot(node.ell_minus.Q, dv_minus)
                     - np.dot(node.ell_plus.Q, dv_plus))
            worst = max(worst, abs(theta))
    return worst


def patch_to_csv(patch: RelationPatch, path) -> None:
    """One row per cell: anchors, status, directions, foot points, length."""
    dim = patch.arr.dim
    header = (["status"]
              + [f"A_{i}" for i in range(dim)] + [f"B_{i}" for i in range(dim)]
              + [f"vA_{i}" for i in range(dim)] + [f"vB_{i}" for i in range(dim)]
              + [f"Qm_{i}" for i in range(dim)] + [f"Qp_{i}" for i in range(dim)]
              + ["S"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ia in patch.grid_A.indices():
            for ib in patch.grid_B.indices():
                A = patch.grid_A.point(ia)
                B = patch.grid_B.point(ib)
                s = patch.sample(ia, ib)
                if s is None:
                    row = (["absent"] + [f"{x:.17g}" for x in A]
                           + [f"{x:.17g}" for x in B]
                           + [""] * (4 * dim) + [""])
                else:
                    row = (["valid"]
                           + [f"{x:.17g}" for x in s.A] + [f"{x:.17g}" for x in s.B]
                           + [f"{x:.17g}" for x in s.vA] + [f"{x:.17g}" for x in s.vB]
                           + [f"{x:.17g}" for x in s.ell_minus.Q]
                           + [f"{x:.17g}" for x in s.ell_plus.Q]
                           + [f"{s.value:.17g}"])
                writer.writerow(row)
