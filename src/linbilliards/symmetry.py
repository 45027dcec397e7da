"""Conservation laws from the symmetries that preserve the arrangement.

Translations along the common intersection of all subspaces conserve the
projected velocity; rotations preserving every subspace conserve the scalar
angular momenta <xi(v), x>, one per generator xi of the stabilizer algebra.
Generators are supplied and validated, never discovered.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, Subspace, intersection_basis, orthonormalize
from .errors import InputError, PreconditionError
from .trajectory import BilliardTrajectory

SKEW_TOL = 1e-12
PRESERVE_TOL = 1e-10


@dataclass(frozen=True)
class RotationGenerator:
    """A skew-symmetric map of the ambient space, given as a dense matrix."""

    name: str
    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "xi", xi)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
            raise InputError("generator must be a square matrix")
        if not np.isfinite(xi).all():
            raise InputError("generator must be finite")

    def skew_defect(self) -> float:
        return float(np.max(np.abs(self.xi + self.xi.T)))

    def preservation_defect(self, arr: Arrangement) -> float:
        """Max component of xi(basis vector) sticking out of its subspace."""
        worst = 0.0
        for sub in arr.subspaces:
            for b in sub.basis:
                worst = max(worst, float(np.linalg.norm(sub.perp(self.xi @ b))))
        return worst

    def validate(self, arr: Arrangement) -> None:
        if self.xi.shape != (arr.dim, arr.dim):
            raise PreconditionError(f"generator {self.name!r} is not {arr.dim} x {arr.dim}")
        if self.skew_defect() > SKEW_TOL:
            raise PreconditionError(f"generator {self.name!r} is not skew-symmetric")
        if self.preservation_defect(arr) > PRESERVE_TOL:
            raise PreconditionError(
                f"generator {self.name!r} does not preserve every subspace")


def translation_core(arr: Arrangement) -> Subspace:
    """The intersection of all collision subspaces (may be the zero subspace)."""
    return Subspace("L_tr", orthonormalize(intersection_basis(arr.bases), arr.dim), arr.dim)


def angular_momentum(gen: RotationGenerator, x, v) -> float:
    """J = <xi(v), x>, the generator's component of the angular momentum.

    This is the pairing of the position-velocity bivector with the generator,
    evaluated without materializing any bivector.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if gen.xi.shape[0] != x.shape[0]:
        raise PreconditionError("generator dimension does not match the point")
    return float(np.dot(gen.xi @ v, x))


@dataclass(frozen=True)
class ConservationReport:
    linear_momenta: np.ndarray        # (k+1, dim): core projection per edge
    angular_jumps: np.ndarray         # (n_gens, k): per-vertex jump of J
    angular_values: np.ndarray        # (n_gens, k+1): J on each edge (at its start vertex)
    max_linear_deviation: float
    max_angular_jump: float


def conservation_report(arr: Arrangement, traj: BilliardTrajectory,
                        gens: list[RotationGenerator]) -> ConservationReport:
    """Evaluate all conserved quantities along a trajectory.

    Linear momentum is compared across edges; each generator's angular
    momentum is compared across every collision (evaluated at the vertex with
    the incoming and outgoing edge velocities).
    """
    for gen in gens:
        gen.validate(arr)
    core = translation_core(arr)
    edges = traj.edge_velocities
    lin = np.array([core.project(v) for v in edges])
    lin_dev = float(np.max(np.linalg.norm(lin - lin[0], axis=1))) if len(lin) else 0.0
    k = traj.k
    jumps = np.zeros((len(gens), k))
    values = np.zeros((len(gens), k + 1))
    pts = traj.points
    for g, gen in enumerate(gens):
        for e in range(k + 1):
            values[g, e] = angular_momentum(gen, pts[e], edges[e])
        # J on the edge leaving vertex j + 1 minus J on the edge entering it
        for j in range(k):
            jumps[g, j] = values[g, j + 1] - angular_momentum(gen, traj.chain[j], edges[j])
    max_jump = float(np.max(np.abs(jumps))) if jumps.size else 0.0
    return ConservationReport(lin, jumps, values, lin_dev, max_jump)


def report_to_csv(report: ConservationReport, gens: list[RotationGenerator],
                  path) -> None:
    dim = report.linear_momenta.shape[1]
    header = (["edge"] + [f"p_{i}" for i in range(dim)]
              + [f"J[{g.name}]" for g in gens])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for e in range(report.linear_momenta.shape[0]):
            row = [str(e)] + [f"{x:.17g}" for x in report.linear_momenta[e]]
            row += [f"{report.angular_values[g, e]:.17g}" for g in range(len(gens))]
            writer.writerow(row)
        writer.writerow([])
        writer.writerow(["max_linear_deviation", f"{report.max_linear_deviation:.17g}"])
        writer.writerow(["max_angular_jump", f"{report.max_angular_jump:.17g}"])


def generators_from_json(data) -> list[RotationGenerator]:
    """Generators from a JSON list of {"name": ..., "xi": [[...], ...]};
    InputError on anything but a list of objects with a numeric xi."""
    if not isinstance(data, list):
        raise InputError("generator JSON must be a list of objects")
    out = []
    for entry in data:
        # entry["xi"] is a KeyError or TypeError on anything but an object with an xi
        try:
            xi = np.asarray(entry["xi"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed generator JSON: {exc}") from exc
        out.append(RotationGenerator(str(entry.get("name", f"g{len(out)}")), xi))
    return out
