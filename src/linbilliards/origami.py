"""Unfolding trajectories over line arrangements into the plane.

The cone spanned by consecutive collision rays develops isometrically onto a
planar fan of sectors; a billiard trajectory develops onto a straight line.
This yields the angle-sum identity, the beta < pi existence bound, the
itinerary-length cap from the minimal pairwise angle, the law of sines
between the first and last collision radii, and an angle pre-filter for the
best-effort realizability search.  Everything here applies verbatim to
arbitrary equal-codimension arrangements by replacing the lines with the rays
through the collision points.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .arrangement import Arrangement, Itinerary, angle_between, principal_angle
from .errors import InputError, PreconditionError
from .solver import minimize
from .trajectory import BilliardTrajectory


@dataclass(frozen=True)
class Unfolding:
    """Sector angles of a developed trajectory.

    ``theta[0]`` is the angle between the first collision ray and the reversed
    incoming direction, ``theta[k]`` between the last collision ray and the
    outgoing direction, and the interior entries are the angles at the origin
    between consecutive collision rays.  ``beta`` sums the interior entries.
    """

    theta: tuple[float, ...]

    @property
    def beta(self) -> float:
        return float(sum(self.theta[1:-1]))

    @property
    def total(self) -> float:
        return float(sum(self.theta))


def unfold(traj: BilliardTrajectory) -> Unfolding:
    """Measure the sector angles of a trajectory's cone of collision rays.

    Needs every collision point away from the origin (the rays are undefined
    otherwise); no line-arrangement assumption is used, so this is the
    generalized form valid for any equal-codimension arrangement.
    """
    chain = traj.chain
    k = traj.k
    if k < 1:
        raise PreconditionError("unfolding needs at least one collision")
    norms = np.linalg.norm(chain, axis=1)
    if np.any(norms <= 1e-12):
        raise PreconditionError("collision point at the origin: rays undefined")
    edges = traj.edge_velocities
    theta = [angle_between(chain[0], -edges[0])]
    for i in range(k - 1):
        theta.append(angle_between(chain[i], chain[i + 1]))
    theta.append(angle_between(chain[-1], edges[-1]))
    return Unfolding(tuple(theta))


def itinerary_bound(arr: Arrangement) -> int:
    """Upper bound 1 + floor(pi / min pairwise angle) on itinerary length."""
    theta_min = arr.min_angle()
    # nudge before flooring: arccos-derived angles can land epsilon below an
    # exact divisor of pi
    return 1 + math.floor(math.pi / theta_min * (1.0 + 1e-12))


def defined_bound(arr: Arrangement) -> int | None:
    """itinerary_bound, 1 on one subspace (length 1 alone), or None where
    subspaces meet beyond the origin and the bound is not defined."""
    if len(arr.subspaces) < 2:
        return 1
    try:
        return itinerary_bound(arr)
    except PreconditionError:
        return None


def law_of_sines_residual(traj: BilliardTrajectory) -> float:
    """Mismatch of |q_1| sin(theta_0) = |q_k| sin(theta_k), scaled by the
    larger radius; zero on exact solutions."""
    u = unfold(traj)
    theta0, thetak = u.theta[0], u.theta[-1]
    for th in (theta0, thetak):
        if min(th, math.pi - th) <= 1e-12:
            raise PreconditionError("degenerate end angle in the law of sines")
    q1 = float(np.linalg.norm(traj.chain[0]))
    qk = float(np.linalg.norm(traj.chain[-1]))
    return abs(q1 * math.sin(theta0) - qk * math.sin(thetak)) / max(q1, qk)


def develop_planar(traj: BilliardTrajectory) -> np.ndarray:
    """Isometric development of anchors and collision points into the plane.

    Lays the fan of sectors (A, 0, q_1), (q_i, 0, q_{i+1}), (q_k, 0, B) flat
    around the origin, preserving radii and opening angles.  For a billiard
    trajectory the developed points are collinear; that collinearity is the
    sharpest test of the whole construction.
    """
    chain = traj.chain
    k = traj.k
    if k < 1:
        raise PreconditionError("development needs at least one collision")
    radii = [float(np.linalg.norm(traj.A))]
    angles = [0.0]
    seq = [traj.A] + [chain[i] for i in range(k)] + [traj.B]
    phi = 0.0
    for prev, cur in zip(seq, seq[1:]):
        phi += angle_between(prev, cur)
        angles.append(phi)
        radii.append(float(np.linalg.norm(cur)))
    return np.array([[r * math.cos(a), r * math.sin(a)]
                     for r, a in zip(radii, angles)])


def collinearity_residual(developed: np.ndarray) -> float:
    """Max distance of the developed points from the line through the
    endpoints, scaled by the endpoint separation."""
    a, b = developed[0], developed[-1]
    d = b - a
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise InputError("developed endpoints coincide")
    d = d / norm
    worst = 0.0
    for p in developed[1:-1]:
        offset = p - a
        worst = max(worst, float(np.linalg.norm(offset - np.dot(offset, d) * d)))
    return worst / norm


# -- best-effort realizability search ---------------------------------------


@dataclass(frozen=True)
class SearchRow:
    labels: tuple[str, ...]
    status: str               # "realized" | "not-found"
    note: str = ""
    witness_A: np.ndarray | None = None
    witness_B: np.ndarray | None = None
    witness_chain: np.ndarray | None = None
    samples_used: int = 0


def angle_prefilter_passes(arr: Arrangement, indices: tuple[int, ...]) -> bool:
    """False when every choice of sector angles already sums to >= pi.

    Consecutive subspaces meet at their minimal angle b_i <= pi/2; each
    developed sector angle is b_i or pi - b_i, so the smallest possible
    interior opening is sum(b_i).  If even that reaches pi the itinerary is
    unrealizable and no sampling is spent on it.
    """
    if len(indices) < 2:
        return True
    total = 0.0
    for a, b in zip(indices, indices[1:]):
        total += principal_angle(arr.subspaces[a], arr.subspaces[b])
    return total < math.pi


def enumerate_itineraries(arr: Arrangement, max_len: int):
    """All repeat-free label sequences of length 1..max_len."""
    n = len(arr.subspaces)
    for length in range(1, max_len + 1):
        for combo in itertools.product(range(n), repeat=length):
            if all(a != b for a, b in zip(combo, combo[1:])):
                yield combo


# (|A|, |B|) of each sample, stratified over the four combinations, as columns
_SAMPLE_RADII = np.array([(1.0, 1.0), (1.0, 10.0), (10.0, 1.0), (10.0, 10.0)])[:, :, None]


def _search_one(task) -> SearchRow:
    arr, combo, sample_budget, seed, use_angle_filter = task
    labels = tuple(arr.subspaces[i].name for i in combo)
    if use_angle_filter and not angle_prefilter_passes(arr, combo):
        return SearchRow(labels, "not-found",
                         note="skipped: every angle selection reaches pi")
    rng = np.random.default_rng((seed, len(combo)) + combo)
    itinerary = Itinerary(combo)
    used = 0
    for s in range(sample_budget):
        # both anchors from one draw, each row normalized and scaled to its
        # sphere: the same numbers as one draw and one norm per anchor
        v = rng.standard_normal((2, arr.dim))
        A, B = v / np.sqrt(np.vecdot(v, v))[:, None] * _SAMPLE_RADII[s % 4]
        used = s + 1
        try:
            result = minimize(arr, itinerary, A, B)
        except (InputError, PreconditionError):
            continue
        if result.is_valid:
            return SearchRow(labels, "realized", witness_A=A, witness_B=B,
                             witness_chain=result.chain.points,
                             samples_used=used)
    return SearchRow(labels, "not-found", samples_used=used)


def search_realizable(arr: Arrangement, max_len: int, sample_budget: int,
                      seed: int = 0, use_angle_filter: bool = True,
                      jobs: int = 1) -> list[SearchRow]:
    """Try to realize every repeat-free itinerary up to max_len.

    Anchors are sampled on spheres of radius 1 and 10, stratified over the
    four radius combinations.  The solver's stop tests have no scale and its
    other tolerances are relative to the anchors' scale, so by the scaling
    symmetry the radius is immaterial; direction coverage is what matters.
    "realized" comes with a witness; "not-found" is inconclusive by design.  Itineraries are independent and
    fan out over a process pool when jobs > 1; the row order (and content,
    seeds being per-itinerary) never depends on the worker count.  A solver
    failure (MaxIterations) propagates rather than count as a miss.
    """
    # where the bound is not defined, max_len is the caller's
    bound = defined_bound(arr)
    if bound is not None and max_len > bound + 1:
        raise PreconditionError(
            f"max_len {max_len} exceeds the itinerary bound {bound} plus one")
    tasks = [(arr, combo, sample_budget, seed, use_angle_filter)
             for combo in enumerate_itineraries(arr, max_len)]
    if jobs > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_search_one, tasks))
    return [_search_one(t) for t in tasks]


def search_to_csv(rows: list[SearchRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["itinerary", "status", "samples", "note", "witness"])
        for row in rows:
            witness = ""
            if row.witness_A is not None:
                witness = json.dumps({
                    "A": row.witness_A.tolist(),
                    "B": row.witness_B.tolist(),
                    "chain": row.witness_chain.tolist(),
                })
            writer.writerow(["|".join(row.labels), row.status,
                             str(row.samples_used), row.note, witness])
