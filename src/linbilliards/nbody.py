"""N-body billiards: mass-metric embedding, collision subspaces, and the
planar three-body scattering slice.

The embedding (q_1, ..., q_N) -> (sqrt(m_1) q_1, ..., sqrt(m_N) q_N) turns the
mass metric into the standard one, so the generic machinery applies verbatim
in embedded coordinates.  Pair-collision subspaces carry the scale factor
sigma_ab = sqrt((m_a + m_b) / (m_a m_b)) that converts inter-body distance to
embedded distance from the subspace ( |q_a - q_b| = sigma_ab * dist ), making
the thickened dynamics a hard-ball gas.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, Itinerary, Subspace, orthonormalize
from .errors import InputError, PreconditionError
from .solver import minimize
from .trajectory import BilliardTrajectory, max_reflection_residual


@dataclass(frozen=True)
class NBodySystem:
    """N point masses in d dimensions with the isometric mass-metric embedding.

    With ``reduce_cm`` all work happens in an orthonormal frame of the
    orthogonal complement of the translation directions; this removes the
    center-of-mass zero modes and matches zero-total-momentum scattering.
    """

    N: int
    d: int
    masses: tuple[float, ...]
    reduce_cm: bool = False

    def __post_init__(self):
        masses = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "masses", masses)
        if self.N < 2:
            raise InputError("need at least two bodies")
        if len(masses) != self.N:
            raise InputError("one mass per body required")
        if any(m <= 0 for m in masses):
            raise InputError("masses must be positive")
        object.__setattr__(self, "_sqrt_m", np.sqrt(np.asarray(masses)))
        if self.reduce_cm:
            frame = self._reduction_frame()
            object.__setattr__(self, "_frame", frame)

    def _reduction_frame(self) -> np.ndarray:
        """Orthonormal rows spanning the complement of embedded translations."""
        nd = self.N * self.d
        trans = np.zeros((self.d, nd))
        for j in range(self.d):
            for a in range(self.N):
                trans[j, a * self.d + j] = self._sqrt_m[a]
        _, sv, vt = np.linalg.svd(trans)
        return orthonormalize(vt[self.d:], nd)

    @property
    def dim(self) -> int:
        return self.N * self.d - (self.d if self.reduce_cm else 0)

    def embed(self, config) -> np.ndarray:
        """Working coordinates of an (N, d) configuration or velocity."""
        config = np.asarray(config, dtype=float).reshape(self.N, self.d)
        flat = (config * self._sqrt_m[:, None]).reshape(-1)
        if self.reduce_cm:
            return self._frame @ flat
        return flat

    def pair_sigma(self, a: int, b: int) -> float:
        ma, mb = self.masses[a], self.masses[b]
        return math.sqrt((ma + mb) / (ma * mb))

    def pair_name(self, a: int, b: int) -> str:
        return f"D{a + 1}{b + 1}"


def build_arrangement(sys: NBodySystem) -> Arrangement:
    """All pair-collision subspaces in working coordinates, each carrying its
    mass scale factor sigma_ab."""
    nd = sys.N * sys.d
    subs = []
    for a, b in itertools.combinations(range(sys.N), 2):
        normals = np.zeros((sys.d, nd))
        for j in range(sys.d):
            normals[j, a * sys.d + j] = 1.0 / sys._sqrt_m[a]
            normals[j, b * sys.d + j] = -1.0 / sys._sqrt_m[b]
        if sys.reduce_cm:
            normals = normals @ sys._frame.T
            dim = sys.dim
        else:
            dim = nd
        _, sv, vt = np.linalg.svd(normals)
        basis = orthonormalize(vt[len(sv[sv > 1e-12]):], dim)
        subs.append(Subspace(sys.pair_name(a, b), basis, dim,
                             sigma=sys.pair_sigma(a, b)))
    return Arrangement(dim, tuple(subs))


# -- the planar three-body scattering slice ----------------------------------

W_NORM = 0.5 * abs(1 - np.exp(2j * math.pi / 3))  # = sqrt(3)/2


@dataclass(frozen=True)
class ScatterSlice:
    """Outgoing-velocity surface for equal masses coming in along the cube
    roots of unity, swept by the two free post-collision directions.

    ``v_plus[i, j]`` holds the three outgoing velocities (complex) for the
    first-collision angle phi_grid[i] and second-collision angle psi_grid[j];
    ``internal[i, j]`` flags grid points where one of the collisions leaves
    the velocities unchanged (an internal, non-transverse vertex).
    """

    phi_grid: np.ndarray
    psi_grid: np.ndarray
    v_mid: np.ndarray        # (n_phi, 3) complex, after the 1-2 collision
    v_plus: np.ndarray       # (n_phi, n_psi, 3) complex
    momentum_residual: np.ndarray
    energy_residual: np.ndarray
    internal: np.ndarray

    @property
    def arguments(self) -> np.ndarray:
        return np.angle(self.v_plus)

    def max_conservation_residual(self) -> float:
        return float(max(np.max(self.momentum_residual),
                         np.max(self.energy_residual)))


V_MINUS = np.array([1.0, np.exp(2j * math.pi / 3), np.exp(4j * math.pi / 3)])
MASSES_THIRD = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def three_body_slice(phi_grid, psi_grid) -> ScatterSlice:
    """Sweep the two-parameter family of outgoing velocities for the
    itinerary (1-2 collision, then 1-3 collision).

    The first collision keeps body 3 untouched and replaces v_1, v_2 by their
    mean plus/minus a vector w of fixed length |w| = |v_1 - v_2| / 2 and free
    direction phi; the second does the same to bodies 1, 3 with u of length
    |u| = |v_3^m - v_1^m| / 2 and free direction psi.  Elastic pair exchange
    of this form is exactly what conserves momentum and mass-metric energy.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    psi_grid = np.asarray(psi_grid, dtype=float)
    v1, v2, v3 = V_MINUS
    center12 = 0.5 * (v1 + v2)
    n_phi, n_psi = len(phi_grid), len(psi_grid)
    v_mid = np.zeros((n_phi, 3), dtype=complex)
    v_plus = np.zeros((n_phi, n_psi, 3), dtype=complex)
    mom = np.zeros((n_phi, n_psi))
    ene = np.zeros((n_phi, n_psi))
    internal = np.zeros((n_phi, n_psi), dtype=bool)
    for i, phi in enumerate(phi_grid):
        w = W_NORM * np.exp(1j * phi)
        m1, m2, m3 = center12 + w, center12 - w, v3
        v_mid[i] = (m1, m2, m3)
        first_internal = abs(w - 0.5 * (v1 - v2)) < 1e-12
        center13 = 0.5 * (m1 + m3)
        u_norm = 0.5 * abs(m3 - m1)
        # consistency with the zero-momentum rewrite |u| = |1.5 v3 - w| / 2
        if not abs(u_norm - 0.5 * abs(1.5 * v3 - w)) < 1e-12:
            raise PreconditionError(
                "incoming velocities break the zero-momentum rewrite |u| = |1.5 v3 - w| / 2")
        for j, psi in enumerate(psi_grid):
            u = u_norm * np.exp(1j * psi)
            p1, p3 = center13 + u, center13 - u
            v_plus[i, j] = (p1, m2, p3)
            mom[i, j] = abs(p1 + m2 + p3) / 3.0
            ene[i, j] = abs((abs(p1) ** 2 + abs(m2) ** 2 + abs(p3) ** 2) / 3.0 - 1.0)
            internal[i, j] = first_internal or abs(u - 0.5 * (m1 - m3)) < 1e-12
    return ScatterSlice(phi_grid, psi_grid, v_mid, v_plus, mom, ene, internal)


def slice_to_csv(s: ScatterSlice, path) -> None:
    """phi, psi, branch, outgoing arguments, conservation residuals, flag."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi", "psi", "branch", "arg_v1", "arg_v2", "arg_v3",
                         "momentum_residual", "energy_residual", "internal"])
        args = s.arguments
        for i, phi in enumerate(s.phi_grid):
            for j, psi in enumerate(s.psi_grid):
                writer.writerow([f"{phi:.17g}", f"{psi:.17g}", "0",
                                 f"{args[i, j, 0]:.17g}", f"{args[i, j, 1]:.17g}",
                                 f"{args[i, j, 2]:.17g}",
                                 f"{s.momentum_residual[i, j]:.17g}",
                                 f"{s.energy_residual[i, j]:.17g}",
                                 "1" if s.internal[i, j] else "0"])


def _complex_to_config(values) -> np.ndarray:
    """Rows (Re z, Im z) of complex values, filled in place: on the three
    velocities of a slice point np.stack costs more than a Python list."""
    z = np.asarray(values)
    out = np.empty(z.shape + (2,))
    out[..., 0], out[..., 1] = z.real, z.imag
    return out


@dataclass(frozen=True)
class SliceValidation:
    checked: int
    skipped_internal: int
    solver_misses: int
    max_reflection_residual: float
    max_chain_deviation: float


def cross_validate_slice(s: ScatterSlice, sample_budget: int = 100,
                         seed: int = 0) -> SliceValidation:
    """Realize sampled slice points as explicit embedded trajectories and
    check them against the generic solver.

    For each sampled (phi, psi) an explicit two-collision path is built: the
    1-2 collision at configuration (p, p, -2p) one time unit after leaving the
    anchor, the 1-3 collision one time unit later (positions are our
    construction; the slice prescribes only velocities).  The reflection
    residuals vanish by construction; the solver must recover the same chain
    from the anchors alone, which is the uniqueness cross-check.  A refused
    or non-valid solve is a solver miss; a solver failure (MaxIterations)
    propagates.
    """
    sys = NBodySystem(3, 2, MASSES_THIRD, reduce_cm=True)
    arr = build_arrangement(sys)
    itin = Itinerary.from_labels(arr, ["D12", "D13"])
    rng = np.random.default_rng(seed)
    n_phi, n_psi = len(s.phi_grid), len(s.psi_grid)
    checked = skipped = misses = 0
    worst_residual = 0.0
    worst_chain = 0.0
    for _ in range(sample_budget):
        i = int(rng.integers(n_phi))
        j = int(rng.integers(n_psi))
        if s.internal[i, j]:
            skipped += 1
            continue
        v_minus = _complex_to_config(V_MINUS)
        v_mid = _complex_to_config(s.v_mid[i])
        v_plus = _complex_to_config(s.v_plus[i, j])
        tau = 1.0
        p = -(tau / 3.0) * (v_mid[0] - v_mid[2])
        x1 = np.array([p, p, -2.0 * p])
        x2 = x1 + tau * v_mid
        A_cfg = x1 - v_minus
        B_cfg = x2 + v_plus
        A = sys.embed(A_cfg)
        B = sys.embed(B_cfg)
        chain = np.array([sys.embed(x1), sys.embed(x2)])
        traj = BilliardTrajectory(A, B, chain, itin)
        worst_residual = max(worst_residual, max_reflection_residual(arr, traj))
        try:
            result = minimize(arr, itin, A, B)
        except (InputError, PreconditionError):
            misses += 1
            continue
        if not result.is_valid:
            misses += 1
            continue
        dev = float(np.max(np.linalg.norm(result.chain.points - chain, axis=1)))
        worst_chain = max(worst_chain, dev)
        checked += 1
    return SliceValidation(checked, skipped, misses, worst_residual, worst_chain)
