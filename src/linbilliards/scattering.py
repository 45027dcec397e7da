"""Sampling the scattering relation and verifying its symplectic structure.

A sample is a solved trajectory recorded through its boundary data: anchors,
unit directions, and the reduced oriented lines.  Patches are grids of samples
over anchor rectangles; the Lagrangian/Legendrian residuals contract
finite-difference tangents of the patch with the relevant two-form/one-form
and should vanish to truncation order.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .arrangement import Arrangement, Itinerary
from .errors import PACKAGE_ERRORS, InputError, PreconditionError
from .solver import MinimizeResult, SolverOptions, minimize
from .trajectory import BilliardTrajectory, OrientedLine


def reduce_line(A, vA) -> OrientedLine:
    """Quotient a pointed ray (A, vA) to its oriented line (v, Q), Q ⊥ v."""
    vA = np.asarray(vA, dtype=float)
    if abs(np.linalg.norm(vA) - 1.0) > 1e-9:
        raise InputError("direction must be a unit vector")
    return OrientedLine.through(np.asarray(A, dtype=float), vA)


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
        vA, vB = edges[0], edges[-1]
        # the boundary lines of the trajectory, from the same edge directions
        lm, lp = OrientedLine.through(traj.A, vA), OrientedLine.through(traj.B, vB)
        return cls(np.asarray(A, float), np.asarray(B, float), vA, vB,
                   lm, lp, traj.chain.copy(), result.value)


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
        if self.half < 0 or self.spacing <= 0:
            raise InputError("grid needs half >= 0 and positive spacing")

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.half + 1,) * self.axes.shape[0]

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
    itinerary: Itinerary | None
    grid_A: AnchorGrid
    grid_B: AnchorGrid
    samples: dict

    def sample(self, ia, ib):
        return self.samples.get((tuple(ia), tuple(ib)))

    def valid_fraction(self) -> float:
        total = len(self.samples)
        good = sum(1 for s in self.samples.values() if s is not None)
        return good / total if total else 0.0


def free_motion_sample(arr: Arrangement, A, B,
                       tol: float = 1e-9) -> RelationSample | None:
    """Identity-relation sample: straight motion from A through B.

    Returns None when the full line through A and B meets the arrangement
    (the itinerary would then not be empty).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    d = B - A
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise InputError("anchors coincide")
    lo, hi = arr.tube_intervals(A, d, tol)
    if np.any(lo <= hi):
        return None
    v = d / norm
    line = OrientedLine.through(A, v)
    return RelationSample(A, B, v, v, line, line, np.zeros((0, arr.dim)), float(norm))


def _solve_row(task):
    """Samples of one A-row, in B-grid order: each cell starts from the
    chain of the row's previous valid cell, the first cell and any cell
    after an absent one from ``opts`` as given."""
    arr, itinerary, A, Bs, opts = task
    if itinerary is None:
        return [free_motion_sample(arr, A, B) for B in Bs]
    samples = []
    warm = None
    for B in Bs:
        try:
            result = minimize(arr, itinerary, A, B,
                              opts if warm is None else replace(opts, initial_chain=warm))
        except PACKAGE_ERRORS:
            result = None
        valid = result is not None and result.is_valid
        samples.append(RelationSample.from_result(result, A, B) if valid else None)
        warm = result.chain if valid else None
    return samples


def sample_relation(arr: Arrangement, itinerary: Itinerary | None,
                    grid_A: AnchorGrid, grid_B: AnchorGrid,
                    opts: SolverOptions = SolverOptions(),
                    jobs: int = 1) -> RelationPatch:
    """Solve the billiard problem on every (A, B) grid cell.

    ``itinerary=None`` samples free straight motion (the identity relation).
    Each A-row (one A anchor, every B anchor) is walked in B-grid order: its
    first cell is solved from ``opts`` as given, each later cell from the
    solved chain of the previous valid cell, which the solver polishes
    directly at the grid spacings used here (see ``solver.minimize``).  Rows
    are independent; with jobs > 1 they fan out over a process pool and are
    merged back by grid index, so the result does not depend on the worker
    count.
    """
    b_indices = list(grid_B.indices())
    Bs = [grid_B.point(ib) for ib in b_indices]
    a_indices = list(grid_A.indices())
    tasks = [(arr, itinerary, grid_A.point(ia), Bs, opts) for ia in a_indices]
    if jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_solve_row, tasks,
                                 chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        rows = [_solve_row(t) for t in tasks]
    samples = {(ia, ib): sample
               for ia, row in zip(a_indices, rows)
               for ib, sample in zip(b_indices, row)}
    return RelationPatch(arr, itinerary, grid_A, grid_B, samples)


def _axis_list(patch: RelationPatch):
    """All grid axes of the combined (A, B) parameter space as
    (side, axis index, spacing, ambient direction)."""
    axes = []
    for j in range(patch.grid_A.axes.shape[0]):
        axes.append(("A", j, patch.grid_A.spacing, patch.grid_A.axes[j]))
    for j in range(patch.grid_B.axes.shape[0]):
        axes.append(("B", j, patch.grid_B.spacing, patch.grid_B.axes[j]))
    return axes


def _shift(ia, ib, side, j, delta):
    if side == "A":
        ia = tuple(v + (delta if t == j else 0) for t, v in enumerate(ia))
    else:
        ib = tuple(v + (delta if t == j else 0) for t, v in enumerate(ib))
    return ia, ib


def _patch_tangents(patch: RelationPatch, ia, ib, fields):
    """Central-difference tangent vectors of the sample fields at a node.

    ``fields`` maps a RelationSample to a tuple of vectors; returns one
    tangent tuple per grid axis (plus the exact anchor variations), or None
    if any needed neighbor is absent.
    """
    tangents = []
    for side, j, spacing, direction in _axis_list(patch):
        plus = patch.sample(*_shift(ia, ib, side, j, +1))
        minus = patch.sample(*_shift(ia, ib, side, j, -1))
        if plus is None or minus is None:
            return None
        dA = direction if side == "A" else np.zeros_like(direction)
        dB = direction if side == "B" else np.zeros_like(direction)
        diffs = tuple((fp - fm) / (2.0 * spacing)
                      for fp, fm in zip(fields(plus), fields(minus)))
        tangents.append((dA, dB) + diffs)
    return tangents


def lagrangian_residual(patch: RelationPatch) -> float:
    """Max of the product symplectic form on finite-difference tangent pairs.

    The form is omega_B - omega_A with
    omega((dq, dv), (dq', dv')) = <dq, dv'> - <dq', dv>; it vanishes on the
    relation swept out by the solved trajectories, so the sampled residual is
    pure truncation: O(spacing^2) for central differences.
    """
    got_interior = False
    worst = 0.0

    def fields(s: RelationSample):
        return (s.vA, s.vB)

    for ia in patch.grid_A.indices():
        if not patch.grid_A.is_interior(ia):
            continue
        for ib in patch.grid_B.indices():
            if not patch.grid_B.is_interior(ib):
                continue
            if patch.sample(ia, ib) is None:
                continue
            tangents = _patch_tangents(patch, ia, ib, fields)
            if tangents is None:
                continue
            got_interior = True
            for t1, t2 in itertools.combinations(tangents, 2):
                dA1, dB1, dvA1, dvB1 = t1
                dA2, dB2, dvA2, dvB2 = t2
                omega_A = np.dot(dA1, dvA2) - np.dot(dA2, dvA1)
                omega_B = np.dot(dB1, dvB2) - np.dot(dB2, dvB1)
                worst = max(worst, abs(omega_B - omega_A))
    if not got_interior:
        raise InputError("patch has no interior node with a full stencil")
    return worst


def legendrian_theta_residual(patch: RelationPatch, allow_short: bool = False) -> float:
    """Max of Theta = Q_- . dv_-  -  Q_+ . dv_+ on finite-difference tangents.

    The scaling orbit is tangent to the relation and Theta contracts it to
    zero, so on a Legendrian quotient every patch tangent annihilates Theta.
    The underlying statement assumes itineraries of length > 1; pass
    ``allow_short`` to evaluate anyway (e.g. for the identity relation).
    """
    if patch.itinerary is not None and len(patch.itinerary) <= 1 and not allow_short:
        raise PreconditionError(
            "Legendrian statement needs itinerary length > 1 (allow_short to override)")
    got_interior = False
    worst = 0.0

    def fields(s: RelationSample):
        return (s.ell_minus.v, s.ell_plus.v)

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
            got_interior = True
            for _, _, dv_minus, dv_plus in tangents:
                theta = (np.dot(node.ell_minus.Q, dv_minus)
                         - np.dot(node.ell_plus.Q, dv_plus))
                worst = max(worst, abs(theta))
    if not got_interior:
        raise InputError("patch has no interior node with a full stencil")
    return worst


def scale_action(sample: RelationSample, lam: float) -> RelationSample:
    """Scale a sample by lam > 0: positions and foot points scale, directions
    do not; the scaled data is re-validated, not assumed."""
    if lam <= 0:
        raise InputError("scale factor must be positive")
    scaled = RelationSample(
        lam * sample.A, lam * sample.B, sample.vA, sample.vB,
        OrientedLine(sample.ell_minus.v, lam * sample.ell_minus.Q),
        OrientedLine(sample.ell_plus.v, lam * sample.ell_plus.Q),
        lam * sample.chain_points, lam * sample.value)
    return scaled


def verify_scaled_sample(arr: Arrangement, itinerary: Itinerary,
                         sample: RelationSample,
                         residual_tol: float = 1e-9) -> bool:
    """Check that a (possibly scaled) sample still satisfies the reflection
    laws and genericity: used to confirm the scaling symmetry on data."""
    from .trajectory import is_generic, max_reflection_residual
    traj = BilliardTrajectory(sample.A, sample.B, sample.chain_points, itinerary)
    if max_reflection_residual(arr, traj) > residual_tol:
        return False
    scale = max(1.0, float(np.linalg.norm(sample.A - sample.B)))
    return is_generic(arr, sample.A, sample.chain_points, sample.B, itinerary,
                      tol=1e-9 * scale)


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
