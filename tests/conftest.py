import collections
import contextlib
import json
import math
import os

# one BLAS thread, set before numpy loads its BLAS: the solver's matrices are
# small, and a thread pool per process only contends on a shared machine
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest

from linbilliards import nbody, solver
from linbilliards.arrangement import (MEMBERSHIP_TOL, Arrangement, Itinerary, Subspace,
                                      _as_vector, _perp, _rays_hit, _row_dot, _tube_approach)
from linbilliards.action import Chain, action, gradient
from linbilliards.errors import InputError, PreconditionError
from linbilliards.scattering import RelationSample
from linbilliards.symmetry import RotationGenerator, translation_core
from linbilliards.trajectory import (BilliardTrajectory, OrientedLine, is_transverse,
                                    reflection_residual)


@contextlib.contextmanager
def grad_tol(value):
    """solver.GRAD_TOL set to value inside the block, in this process only:
    a worker of a jobs > 1 pool would not see it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "GRAD_TOL", value)
        yield


@pytest.fixture
def tight():
    """The whole test solves with solver.GRAD_TOL = 1e-13, for checks that
    need a polish past the library's 1e-10."""
    with grad_tol(1e-13):
        yield


@pytest.fixture
def kernel_passes(monkeypatch):
    """Counter of the solver's kernel passes: calls of
    _StackedProblem.derivatives ("derivatives") and _StackedProblem.value
    ("value"), patched as class attributes, so that every problem counts,
    the certificate's reduced chains included."""
    from linbilliards.solver import _StackedProblem
    counts = collections.Counter()

    def counted(name):
        real = getattr(_StackedProblem, name)

        def call(self, *args, **kwargs):
            counts[name] += 1
            return real(self, *args, **kwargs)
        return call

    for name in ("derivatives", "value"):
        monkeypatch.setattr(_StackedProblem, name, counted(name))
    return counts


@pytest.fixture
def mirror_arr():
    """Single mirror line: the x-axis in the plane."""
    return Arrangement(2, (Subspace.from_spanning("L1", [[1.0, 0.0]], 2),))


@pytest.fixture
def origin_arr():
    """The zero subspace in the plane (total-collision example)."""
    return Arrangement(2, (Subspace.from_spanning("O", np.zeros((0, 2)), 2),))


@pytest.fixture
def twolines_arr():
    """Two lines through the origin at 60 degrees."""
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    return Arrangement(2, (
        Subspace.from_spanning("L1", [[1.0, 0.0]], 2),
        Subspace.from_spanning("L2", [[c, s]], 2),
    ))


@pytest.fixture
def lines3d_arr():
    """Two skew-angle lines through the origin in three dimensions."""
    return Arrangement(3, (
        Subspace.from_spanning("M1", [[1.0, 0.0, 0.0]], 3),
        Subspace.from_spanning("M2", [[0.2, 1.0, 0.4]], 3),
    ))


@pytest.fixture
def planes4d_arr():
    """Two random 2-planes in four dimensions (codimension 2)."""
    rng = np.random.default_rng(42)
    return Arrangement(4, (
        Subspace.from_spanning("P1", rng.normal(size=(2, 4)), 4),
        Subspace.from_spanning("P2", rng.normal(size=(2, 4)), 4),
    ))


def planes3d():
    """Three 2-planes in three dimensions that meet pairwise in lines, so a
    collapsed pair of vertices is still free along its line."""
    return Arrangement(3, (
        Subspace.from_spanning("P1", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 3),
        Subspace.from_spanning("P2", [[1.0, 0.0, 0.0], [0.0, 0.3, 1.0]], 3),
        Subspace.from_spanning("P3", [[0.2, 1.0, 0.5], [0.0, 0.6, -1.0]], 3),
    ))


def unembed(system, x):
    """Configuration (N, d) of an nbody.NBodySystem from working coordinates."""
    x = np.asarray(x, dtype=float)
    flat = system._frame.T @ x if system.reduce_cm else x
    return flat.reshape(system.N, system.d) / system._sqrt_m[:, None]


def mass_norm(system, config):
    """The mass-metric norm of an (N, d) configuration or velocity."""
    config = np.asarray(config, dtype=float).reshape(system.N, system.d)
    return math.sqrt(float(np.sum(np.asarray(system.masses)[:, None] * config ** 2)))


def total_momentum(system, velocities):
    """The total momentum (d,) of the bodies' (N, d) velocities."""
    velocities = np.asarray(velocities, dtype=float).reshape(system.N, system.d)
    return np.sum(np.asarray(system.masses)[:, None] * velocities, axis=0)


def rotation_generator(system, i=0, j=1):
    """Diagonal so(d) generator rotating the (i, j) plane of every body, in
    the system's working coordinates."""
    if not (0 <= i < system.d and 0 <= j < system.d and i != j):
        raise InputError("rotation plane indices out of range")
    block = np.zeros((system.d, system.d))
    block[i, j] = 1.0
    block[j, i] = -1.0
    xi = np.kron(np.eye(system.N), block)
    if system.reduce_cm:
        xi = system._frame @ xi @ system._frame.T
    return RotationGenerator(f"rot{i}{j}", xi)


def linear_momentum(arr, v) -> np.ndarray:
    """Component of a velocity along the translation core; conserved at every
    collision because the core sits inside each reflecting subspace."""
    return translation_core(arr).project(v)


def tube_interval(sub, p, d, tol: float):
    """Parameter interval {t : dist(p + t*d, L) <= tol} along a full line,
    L the subspace sub.

    Returns (t_lo, t_hi), possibly infinite for directions inside the
    subspace, or None when the line stays farther than tol everywhere.
    The scalar, one-subspace reference for the ray rule (_rays_hit) and
    free motion's line test.
    """
    p = _as_vector(p, sub.dim)
    d = _as_vector(d, sub.dim, "direction")
    w = sub.perp(p)
    u = sub.perp(d)
    a = float(np.dot(u, u))
    if a <= 1e-30 * float(np.dot(d, d)):
        # perpendicular distance is constant along the line
        return (-math.inf, math.inf) if np.dot(w, w) <= tol * tol else None
    t_star = -float(np.dot(w, u)) / a
    dmin2 = float(np.dot(w + t_star * u, w + t_star * u))
    gap2 = tol * tol - dmin2
    if gap2 < 0.0:
        return None
    half = math.sqrt(gap2 / a)
    return (t_star - half, t_star + half)


def stacked_problem(arr, itinerary, A, B):
    """The solver's _StackedProblem over the itinerary's solve plan, at the
    scale of a solve from A to B (Arrangement.anchor_scale)."""
    return solver._StackedProblem(solver._plan_of(arr.bases_of(itinerary)), A, B,
                                  arr.anchor_scale(A, B)[0])


def perp_by_basis(bases, x):
    """Components x - B^T(B x) of x (..., dim) orthogonal to the subspaces
    with orthonormal bases (..., m, dim), leading axes broadcast: the basis
    form, which rounds apart from the library's complement projectors."""
    return x - (bases.swapaxes(-1, -2) @ (bases @ x[..., :, None]))[..., 0]


def line_tube(complements, radius, p, d):
    """(a, t_star, gap2) of arrangement._tube_approach for the line p + t d
    (dim,) against the subspaces with complement projectors (n, dim, dim),
    as Arrangement.perp_parts projects it."""
    return _tube_approach(radius * radius, *_perp(complements, np.stack((p, d))[:, None, :]))


def rays_hit_beyond_start(arr, starts, directions, tol: float):
    """For rays (r, dim) of starts and directions, whether each meets some
    subspace tube beyond its initial point, against every subspace at once;
    (r,) booleans: arrangement._rays_hit's per-pair mask on the rays' stacked
    perpendicular parts, reduced over the subspaces, the reference of the
    ray tests."""
    starts = np.asarray(starts, dtype=float).reshape(-1, arr.dim)
    directions = np.asarray(directions, dtype=float).reshape(starts.shape)
    perps = _perp(arr.complements, np.stack((starts, directions))[:, :, None, :])
    return _rays_hit(perps, directions, tol).any(axis=1)


def chain_is_generic_reference(arr, bases, A, chain, B, tol: float) -> bool:
    """trajectory._generic, is_generic past its anchor test, in the basis
    form with separate projections, the reference for it: the
    perpendicular part of each vertex against its neighbours' subspaces,
    then the ray test of the rays from q_1 along A - q_1 and from q_k along
    B - q_k, with their starts and directions projected separately and
    _tube_approach's arithmetic written out."""
    off = perp_by_basis(np.concatenate((bases[1:], bases[:-1])),
                        np.concatenate((chain[:-1], chain[1:])))
    if np.any(np.sqrt(_row_dot(off, off)) <= tol):
        return False
    starts, directions = chain[[0, -1]], np.stack((A - chain[0], B - chain[-1]))
    w = perp_by_basis(arr.bases, starts[:, None, :])
    u = perp_by_basis(arr.bases, directions[:, None, :])
    a = _row_dot(u, u)
    t_star = -_row_dot(w, u) / np.where(a == 0.0, 1.0, a)
    res = w + t_star[..., None] * u
    gap2 = tol * tol - _row_dot(res, res)
    parallel = a <= 1e-30 * _row_dot(directions, directions)[:, None]
    half = np.sqrt(np.maximum(gap2, 0.0) / np.where(parallel, 1.0, a))
    beyond = (gap2 >= 0.0) & ((t_star > half) | (t_star + half == math.inf))
    return not np.where(parallel, _row_dot(w, w) <= tol * tol, beyond).any()


# The kernels' forms before they were cut to fewer NumPy calls, kept as the
# references the library's forms must reproduce bit for bit.

def row_dot_reference(u, v):
    """arrangement._row_dot as a stacked matmul of (1, dim) rows by (dim, 1)
    columns."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def tube_approach_reference(rho2, w, u):
    """arrangement._tube_approach with the division guarded by np.where."""
    a = row_dot_reference(u, u)
    t_star = -row_dot_reference(w, u) / np.where(a == 0.0, 1.0, a)
    res = w + t_star[..., None] * u
    return a, t_star, rho2 - row_dot_reference(res, res)


def rays_hit_reference(perps, directions, tol):
    """arrangement._rays_hit's per-pair mask (r, n) with the parallel pairs'
    division guarded by np.where, the divisor a + (a == 0) of t*, and the
    overflow term t* + half == inf that _rays_hit drops."""
    w, u = perps
    a, t_star, gap2 = tube_approach_reference(tol * tol, w, u)
    parallel = a <= 1e-30 * row_dot_reference(directions, directions)[:, None]
    half = np.sqrt(np.maximum(gap2, 0.0) / np.where(parallel, 1.0, a))
    beyond = (gap2 >= 0.0) & ((t_star > half) | (t_star + half == math.inf))
    return np.where(parallel, row_dot_reference(w, w) <= tol * tol, beyond)


def hit_reference(table, p, v, w, norm, t_now=0.0, t_max=math.inf):
    """thickened._hit with the division guarded by np.where and np.argmin,
    on the table's own thresholds and perpendicular parts
    (Arrangement.perp_parts)."""
    from linbilliards.errors import CornerCollision
    from linbilliards.thickened import CORNER_ROUNDING, REENTRY_TOL
    arr = table.arrangement
    a, t_star, gap2 = tube_approach_reference(table.rho2, w, arr.perp_parts(v))
    size = math.sqrt(p @ p)
    t_eps = REENTRY_TOL * size
    enters = (a > 1e-30) & (gap2 * a >= table.grazing_below)
    t_enter = t_star - np.sqrt(np.maximum(gap2, 0.0) / np.where(enters, a, 1.0))
    t_enter = np.where(enters & (t_enter > t_eps), t_enter, math.inf)
    i = int(np.argmin(t_enter))
    if t_enter[i] == math.inf:
        return None
    t = float(t_enter[i])
    if t_now + t > t_max:
        return t, i, None, None, None
    x = p + t * v
    w_x = arr.perp_parts(x)
    norm_x = np.sqrt(row_dot_reference(w_x, w_x))
    corner = norm_x < table.corner_below + CORNER_ROUNDING * (size + t)
    corner[i] = False
    if corner.any():
        raise CornerCollision(f"hit on {arr.subspaces[i].name} lies in the corner margin "
                              f"of {arr.subspaces[int(np.argmax(corner))].name}")
    return t, i, x, w_x, norm_x


def stacked_reference(bases, grad, diag, off, bases_t=None):
    """action._stacked writing the Hessian's blocks by three fancy-index
    assignments into a (k, m, k, m) array."""
    k, m, _ = bases.shape
    bases_t = bases.transpose(0, 2, 1) if bases_t is None else bases_t
    H = np.zeros((k, m, k, m))
    idx = np.arange(k)
    H[idx, :, idx, :] = bases @ diag @ bases_t
    cross = bases[:-1] @ off @ bases_t[1:]
    H[idx[:-1], :, idx[1:], :] = cross
    H[idx[1:], :, idx[:-1], :] = cross.transpose(0, 2, 1)
    grad = (bases @ grad[:, :, None]).reshape(k * m)
    return grad, H.reshape(k * m, k * m)


def sample_anchor_reference(rng, dim, radius):
    """An anchor of origami's realizability search drawn on its own: dim
    standard normals, normalized by np.linalg.norm and scaled to radius."""
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v) * radius


def validate_trajectory(arr, traj) -> list[str]:
    """All violated trajectory invariants, as human-readable strings."""
    problems = []
    scale = max(1.0, float(np.linalg.norm(traj.A - traj.B)))
    edges = traj.edge_velocities
    for j, idx in enumerate(traj.itinerary):
        sub = arr.subspaces[idx]
        d = sub.distance_to(traj.chain[j])
        if d > MEMBERSHIP_TOL * scale:
            problems.append(f"vertex {j + 1} off {sub.name} by {d:.3e}")
        for edge in (edges[j], edges[j + 1]):
            if np.linalg.norm(sub.perp(edge)) <= MEMBERSHIP_TOL:
                problems.append(f"edge at vertex {j + 1} lies inside {sub.name}")
        mom = reflection_residual(arr, traj, j + 1)
        if mom > 1e-9:
            problems.append(f"momentum residual {mom:.3e} at vertex {j + 1}")
    return problems

def fourbody():
    """Pair collisions of four unit masses in 3-D with the centre of mass
    removed: six 6-dimensional subspaces in dimension 9 (m = 6)."""
    return nbody.build_arrangement(nbody.NBodySystem(4, 3, (1, 1, 1, 1), reduce_cm=True))


@pytest.fixture
def planes3d_arr():
    return planes3d()


@pytest.fixture
def fourbody_arr():
    return fourbody()


@pytest.fixture
def threebody_arr():
    """The paper's planar equal-mass three-body table with the centre of
    mass removed: three 2-dimensional subspaces in dimension 4."""
    return nbody.build_arrangement(nbody.NBodySystem(3, 2, nbody.MASSES_THIRD, reduce_cm=True))


# A two-line valid fixture found by scan and frozen; the solved trajectory is
# strongly transverse (direction jumps ~1) with well-separated vertices.
TWOLINE_A = np.array([1.98916641, -0.44632446])
TWOLINE_B = np.array([-0.44703404, -5.58316732])


def fd_gradient(arr, itinerary, A, chain, B, h=1e-6):
    """Central finite differences of the path length in chain coordinates."""
    x0 = chain.coords
    out = np.zeros(x0.size)
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        out[i] = (action(A, Chain.from_coords(arr, itinerary, xp).points, B)
                  - action(A, Chain.from_coords(arr, itinerary, xm).points, B)) / (2 * h)
    return out


def fd_hessian(arr, itinerary, A, chain, B, h=1e-5):
    """Central finite differences of the analytic gradient."""
    x0 = chain.coords
    n = x0.size
    out = np.zeros((n, n))
    for i in range(n):
        xp, xm = x0.copy(), x0.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        gp = np.concatenate(gradient(arr, itinerary, A,
                                     Chain.from_coords(arr, itinerary, xp), B))
        gm = np.concatenate(gradient(arr, itinerary, A,
                                     Chain.from_coords(arr, itinerary, xm), B))
        out[:, i] = (gp - gm) / (2 * h)
    return out


def fd_jacobian(fun, x0, h):
    """Central finite differences of fun at x0: the gradient (n,) of a scalar
    function, or the Jacobian (m, n) of a vector function."""
    cols = []
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * h))
    return np.stack(cols, axis=-1)


def random_chain(arr, itinerary, radius, rng):
    """Chain with each coordinate block uniform in a ball of the given radius."""
    coords = []
    for idx in itinerary:
        m = arr.subspaces[idx].subdim
        if m == 0:
            coords.append(np.zeros(0))
            continue
        direction = rng.standard_normal(m)
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0 else np.zeros(m)
        coords.append(direction * radius * rng.uniform() ** (1.0 / m))
    return Chain.from_coords(arr, itinerary, coords)


def random_start_solves(arr, itinerary, A, B, n_starts, seed=0):
    """Solves from n_starts random chains in the ball of radius 10 |B - A|:
    (results, chain_spread, value_spread), the largest vertex distance and
    the largest value difference between any two of them.  Uniqueness of
    the global minimum predicts that they all agree."""
    from linbilliards.solver import minimize
    rng = np.random.default_rng(seed)
    radius = 10.0 * float(np.linalg.norm(np.asarray(B, float) - np.asarray(A, float)))
    results = [minimize(arr, itinerary, A, B,
                        initial_chain=random_chain(arr, itinerary, radius, rng))
               for _ in range(n_starts)]
    points = np.array([r.chain.points for r in results])
    chain_spread = np.linalg.norm(points[:, None] - points[None], axis=-1).max(initial=0.0)
    values = [r.value for r in results]
    return results, float(chain_spread), float(max(values) - min(values))


def lines_close(line, other, tol=1e-9):
    """Two oriented lines agree: directions and foot points within tol."""
    return (np.linalg.norm(line.v - other.v) <= tol
            and np.linalg.norm(line.Q - other.Q) <= tol)


def trajectory_from_json(text, arr):
    """The BilliardTrajectory that trajectory_to_json wrote as text."""
    data = json.loads(text)
    labels = data.get("itinerary", [])
    return BilliardTrajectory(np.asarray(data["A"], float), np.asarray(data["B"], float),
                              np.asarray(data["chain"], float),
                              Itinerary.from_labels(arr, labels) if labels else None)


def envelope_gradients(result):
    """Incoming/outgoing directions as endpoint gradients of the optimal value.

    vA equals minus the anchor-A gradient of the path length at the solved
    chain, and vB the anchor-B gradient: the trajectory's first and last unit
    edge directions.
    """
    if not result.is_valid:
        raise PreconditionError("envelope directions require a valid billiard result")
    edges = result.trajectory.edge_velocities
    return edges[0], edges[-1]


def scale_action(sample, lam):
    """Scale a RelationSample by lam > 0: positions and foot points scale,
    directions do not; the scaled data is re-validated, not assumed."""
    if lam <= 0:
        raise InputError("scale factor must be positive")
    return RelationSample(
        lam * sample.A, lam * sample.B, sample.vA, sample.vB,
        OrientedLine(sample.ell_minus.v, lam * sample.ell_minus.Q),
        OrientedLine(sample.ell_plus.v, lam * sample.ell_plus.Q),
        lam * sample.chain_points, lam * sample.value)


def assert_lower_bound(result):
    """A smooth (VALID, EDGE_IN_SUBSPACE or NON_GENERIC_RAY) or certified
    GHOST result bounds itself: its lower bound is at most its value in
    floating point, and below it by at most 1e-12 of the value for a GHOST
    and 1e-9 for a smooth result."""
    from linbilliards.solver import Classification
    bound, value = result.lower_bound, result.value
    assert bound <= value
    ghost = result.classification is Classification.GHOST
    assert value - bound <= (1e-12 if ghost else 1e-9) * value


def rounding_allowance(k, dim, A, B, value):
    """What _dual_bound subtracts from a bound whose residual rows vanish:
    4 gamma_n (|A| + |B| + value), gamma_n = n eps / (1 - n eps) for n = k +
    dim + 2."""
    n = (k + dim + 2) * np.finfo(float).eps
    return 4.0 * n / (1.0 - n) * (np.linalg.norm(A) + np.linalg.norm(B) + value)


def random_smooth_chain(arr, itinerary, A, B, rng, radius=3.0, min_gap=1e-2):
    """Random chain whose consecutive points stay apart (smooth region)."""
    while True:
        chain = random_chain(arr, itinerary, radius, rng)
        pts = np.vstack([np.asarray(A)[None, :], chain.points,
                         np.asarray(B)[None, :]])
        if np.min(np.linalg.norm(np.diff(pts, axis=0), axis=1)) > min_gap:
            return chain


def curve_shorten(table, itinerary, A, chain_points, B):
    """Slide each vertex of a transverse chain outward onto its cylinder wall,
    strictly shortening the path at every replacement.

    Works in the plane of the vertex triangle: both incident edges exit the
    cylinder (their far endpoints must lie outside it), and the replacement
    point is taken on the wall along the bisecting chord, inside the triangle.
    Vertex j must lie on the subspace itinerary[j], and consecutive points
    must differ (InputError otherwise).  Returns (new chain, list of path
    lengths after each replacement).
    """
    arr = table.arrangement
    itinerary.validate_against(arr)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    chain_points = np.asarray(chain_points, dtype=float)
    if chain_points.shape != (len(itinerary), arr.dim):
        raise InputError("one chain point per itinerary entry required")
    radii = table.radii
    traj = BilliardTrajectory(A, B, chain_points, itinerary)
    if not is_transverse(traj):
        raise PreconditionError("internal vertex; chain must be transverse")

    current = traj.points.copy()
    lengths = [traj.length]
    for j, idx in enumerate(itinerary):
        sub = arr.subspaces[idx]
        rho = radii[idx]
        q = current[j + 1]
        if sub.distance_to(q) > 1e-9 * max(1.0, float(np.linalg.norm(q))):
            raise PreconditionError(f"vertex {j + 1} lies off {sub.name}")
        prev_pt, next_pt = current[j], current[j + 2]
        for neighbor in (prev_pt, next_pt):
            if sub.distance_to(neighbor) <= rho:
                raise PreconditionError(
                    "thickening too large: a neighbor vertex lies inside the cylinder")
        exits = []
        for target in (prev_pt, next_pt):
            leg = target - q
            perp_speed = float(np.linalg.norm(sub.perp(leg)))
            exits.append(q + (rho / perp_speed) * leg)
        mid = 0.5 * (exits[0] + exits[1])
        direction = mid - q
        perp_dir = float(np.linalg.norm(sub.perp(direction)))
        if perp_dir <= 1e-15:
            raise PreconditionError("degenerate triangle in the shortening step")
        replacement = q + (rho / perp_dir) * direction
        before = (np.linalg.norm(prev_pt - q) + np.linalg.norm(q - next_pt))
        after = (np.linalg.norm(prev_pt - replacement)
                 + np.linalg.norm(replacement - next_pt))
        if not after < before:
            raise PreconditionError(
                "thickening too large: replacement does not shorten the path")
        current[j + 1] = replacement
        lengths.append(action(A, current[1:-1], B))
    return current[1:-1], lengths
