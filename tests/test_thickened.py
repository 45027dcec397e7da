import math

import numpy as np
import pytest

from linbilliards import nbody
from linbilliards.arrangement import Arrangement, Itinerary, Subspace, _line_tube
from linbilliards.errors import CornerCollision, InputError, PreconditionError
from linbilliards.thickened import (
    CORNER_TOL,
    GRAZING_DISC,
    ThickenedTable,
    curve_shorten,
    events_to_csv,
    first_hit,
    minimize_thickened,
    r_family,
    replay_honest,
    simulate,
)
from linbilliards.solver import SolverOptions, minimize

from conftest import TWOLINE_A, TWOLINE_B

A_MIRROR = np.array([0.0, 1.0])
B_MIRROR = np.array([2.0, 1.0])


@pytest.fixture
def mirror_table(mirror_arr):
    return ThickenedTable(mirror_arr, 0.1)


def test_first_hit_example(mirror_table):
    p = np.array([0.0, 1.0])
    v = np.array([1.0, -1.0]) / math.sqrt(2)
    t, idx, x, nu = first_hit(mirror_table, p, v)
    assert t == pytest.approx(0.9 * math.sqrt(2), abs=1e-12)
    assert np.allclose(x, [0.9, 0.1], atol=1e-12)
    assert np.allclose(nu, [0.0, 1.0], atol=1e-14)
    assert idx == 0


def test_first_hit_parallel_none(mirror_table):
    assert first_hit(mirror_table, [0.0, 1.0], [1.0, 0.0]) is None


def test_first_hit_tangent_none(mirror_table):
    assert first_hit(mirror_table, [-1.0, 0.1], [1.0, 0.0]) is None


def test_first_hit_inside_rejected(mirror_table):
    with pytest.raises(PreconditionError):
        first_hit(mirror_table, [0.0, 0.05], [1.0, 0.0])


def test_event_exactness_and_reflection_laws(mirror_table, mirror_arr):
    rng = np.random.default_rng(0)
    sub = mirror_arr.subspaces[0]
    rho = 0.1
    for _ in range(50):
        p = rng.normal(size=2) * 2
        p[1] = rng.uniform(0.2, 3.0)
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        hit = first_hit(mirror_table, p, v)
        if hit is None:
            continue
        _, _, x, nu = hit
        # hit point sits on the cylinder to 1e-10
        assert abs(np.linalg.norm(sub.perp(x)) - rho) < 1e-10
        v_after = v - 2 * np.dot(v, nu) * nu
        # unit speed preserved to 1e-12
        assert abs(np.linalg.norm(v_after) - 1.0) < 1e-12
        # tangential component preserved exactly (normal lies in L-perp)
        assert np.linalg.norm(sub.project(v_after) - sub.project(v)) < 1e-12


def test_simulate_single_bounce(mirror_table):
    v = np.array([1.0, -1.0]) / math.sqrt(2)
    path = simulate(mirror_table, [0.0, 1.0], v, max_events=10)
    assert len(path.events) == 1
    assert path.status == "escaped"
    e = path.events[0]
    # angle of incidence equals angle of reflection
    assert e.v_after[0] == pytest.approx(e.v_before[0], abs=1e-14)
    assert e.v_after[1] == pytest.approx(-e.v_before[1], abs=1e-14)


@pytest.mark.parametrize("p, v", [([0.0, 1.0], [math.nan, 1.0]),
                                  ([math.inf, 1.0], [1.0, 0.0])])
def test_simulate_rejects_a_non_finite_start(mirror_table, p, v):
    with pytest.raises(InputError, match="finite"):
        simulate(mirror_table, p, v)


def test_simulate_two_lines_bounce_bound(twolines_arr):
    # small thickening of two lines at pi/3: at most 4 bounces
    table = ThickenedTable(twolines_arr, 1e-3)
    rng = np.random.default_rng(1)
    worst = 0
    for _ in range(200):
        p = rng.normal(size=2) * 3
        if not table.in_table(p, tol=-1e-6):
            continue
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        try:
            path = simulate(table, p, v, max_events=12)
        except CornerCollision:
            continue
        worst = max(worst, len(path.events))
        assert len(path.events) <= 4
    assert worst >= 2  # the sweep really exercised multi-bounce orbits


def test_simulate_corner_collision(twolines_arr):
    # approach the origin along the wedge bisector: both walls are reached
    # simultaneously, so the hit point sits in the other cylinder's margin
    table = ThickenedTable(twolines_arr, 0.05)
    bis = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
    with pytest.raises(CornerCollision) as info:
        simulate(table, 2.0 * bis, -bis, max_events=10)
    assert info.value.path is not None


def test_minimize_thickened_mirror(mirror_table):
    result = minimize_thickened(mirror_table, Itinerary((0,)), A_MIRROR, B_MIRROR)
    assert result.honest
    assert np.allclose(result.points, [[1.0, 0.1]], atol=1e-9)
    # closed form: reflect B across y = rho
    image = np.array([2.0, 2 * 0.1 - 1.0])
    assert result.value == pytest.approx(np.linalg.norm(A_MIRROR - image), abs=1e-10)


def test_minimize_thickened_ghost_chord(mirror_table):
    A = np.array([-1.0, 0.15])
    B = np.array([1.0, -0.15])
    result = minimize_thickened(mirror_table, Itinerary((0,)), A, B)
    assert not result.honest
    assert result.value == pytest.approx(np.linalg.norm(A - B), abs=1e-10)
    # the ghost vertex sits on the chord
    t = (result.points[0][0] - A[0]) / (B[0] - A[0])
    assert np.allclose(result.points[0], A + t * (B - A), atol=1e-8)


def test_minimize_thickened_anchor_inside_rejected(mirror_table):
    with pytest.raises(PreconditionError):
        minimize_thickened(mirror_table, Itinerary((0,)),
                           np.array([-1.0, 0.05]), np.array([1.0, 0.5]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("A", [[np.nan, 1.0], [np.inf, 1.0], [1e308, 1.0]],
                         ids=["nan", "inf", "overflow"])
def test_minimize_thickened_rejects_a_non_finite_or_overflowing_anchor(mirror_table, A):
    for (A_, B_), name in (((A, B_MIRROR), "A"), ((A_MIRROR, A), "B")):
        with pytest.raises(InputError, match=f"anchor {name} must be finite"):
            minimize_thickened(mirror_table, Itinerary((0,)), A_, B_)


def test_kkt_residual_is_the_ambient_tangential_gradient():
    """On the three-body table at a small radius the reported residual is the
    gradient of the length along the walls, |P_T grad L| with P_T = I -
    omega omega^T at wall vertices, measured at the returned points."""
    system = nbody.NBodySystem(3, 2, nbody.MASSES_THIRD, reduce_cm=True)
    arr = nbody.build_arrangement(system)
    itin = Itinerary.from_labels(arr, ["D12", "D13"])
    s = nbody.three_body_slice([1.9], [2.6])
    to_config = nbody._complex_to_config
    v_mid = to_config(s.v_mid[0])
    p = -(1.0 / 3.0) * (v_mid[0] - v_mid[2])
    x1 = np.array([p, p, -2.0 * p])
    A = system.embed(x1 - to_config(nbody.V_MINUS))
    B = system.embed(x1 + v_mid + to_config(s.v_plus[0, 0]))
    result = minimize_thickened(ThickenedTable(arr, 1e-4), itin, A, B)
    assert result.honest
    points = np.vstack([A, result.points, B])
    units = np.diff(points, axis=0)
    units /= np.linalg.norm(units, axis=1)[:, None]
    tangential = []
    for idx, q, g in zip(itin, result.points, units[:-1] - units[1:]):
        omega = arr.subspaces[idx].perp(q)
        omega /= np.linalg.norm(omega)
        tangential.append(g - np.dot(g, omega) * omega)
    measured = np.linalg.norm(tangential)
    assert measured > 1e-14
    assert result.kkt_residual == pytest.approx(measured, rel=0.0, abs=1e-15)


def test_minimize_thickened_multistart_value(mirror_table):
    # the thickened problem is solved from a deterministic start; perturbing
    # the anchors slightly and re-solving confirms stability of the minimum
    base = minimize_thickened(mirror_table, Itinerary((0,)), A_MIRROR, B_MIRROR)
    rng = np.random.default_rng(3)
    for _ in range(10):
        dA = rng.normal(size=2) * 1e-9
        res = minimize_thickened(mirror_table, Itinerary((0,)),
                                 A_MIRROR + dA, B_MIRROR)
        assert abs(res.value - base.value) < 1e-7
        assert np.max(np.abs(res.points - base.points)) < 1e-6


def test_replay_reproduces_minimizer(mirror_table):
    result = minimize_thickened(mirror_table, Itinerary((0,)), A_MIRROR, B_MIRROR)
    path = replay_honest(mirror_table, result, A_MIRROR, 1)
    assert path.itinerary_labels == ["L1"]
    assert np.linalg.norm(path.events[0].point - result.points[0]) < 1e-8


def test_replay_two_lines(twolines_arr):
    itin = Itinerary((0, 1))
    table = ThickenedTable(twolines_arr, 1e-3)
    result = minimize_thickened(table, itin, TWOLINE_A, TWOLINE_B)
    assert result.honest
    path = replay_honest(table, result, TWOLINE_A, 2)
    assert path.itinerary_labels == ["L1", "L2"]
    for event, vertex in zip(path.events, result.points):
        assert np.linalg.norm(event.point - vertex) < 1e-8


def test_curve_shorten_mirror(mirror_table):
    new_chain, lengths = curve_shorten(mirror_table, Itinerary((0,)), A_MIRROR,
                                       np.array([[1.0, 0.0]]), B_MIRROR)
    assert np.allclose(new_chain, [[1.0, 0.1]], atol=1e-12)
    assert lengths[1] < lengths[0]


def test_curve_shorten_strict_decrease(twolines_arr):
    itin = Itinerary((0, 1))
    result = minimize(twolines_arr, itin, TWOLINE_A, TWOLINE_B)
    table = ThickenedTable(twolines_arr, 1e-3)
    _, lengths = curve_shorten(table, itin, TWOLINE_A, result.chain.points, TWOLINE_B)
    assert len(lengths) == 3
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def test_curve_shorten_rejects_internal_vertex(mirror_table):
    chain = np.array([[0.0, 0.0]])
    A = np.array([-1.0, 0.0]) * 2
    B = np.array([1.0, 0.0]) * 2
    # A and B lie on the line through the vertex: internal vertex
    with pytest.raises(PreconditionError):
        curve_shorten(mirror_table, Itinerary((0,)), A + [0, 1e-12], chain, B + [0, -1e-12])


def test_curve_shorten_rejects_large_radius(mirror_arr):
    table = ThickenedTable(mirror_arr, 5.0)  # neighbors end up inside
    with pytest.raises(PreconditionError):
        curve_shorten(table, Itinerary((0,)), A_MIRROR, np.array([[1.0, 0.0]]), B_MIRROR)


def test_curve_shorten_follows_the_itinerary_at_an_intersection(planes3d_arr):
    """A vertex on the line P1 ∩ P2 is as near to P1 as to P2; its itinerary
    label, not the nearest subspace, names the wall it slides onto."""
    table = ThickenedTable(planes3d_arr, 0.05)
    P1, P2 = planes3d_arr.subspaces[:2]
    A = np.array([0.0, 2.0, 1.5])
    vertex = np.array([[1.0, 0.0, 0.0]])
    # A and this B lie on one side of P1 and on opposite sides of P2
    B = np.array([2.0, -1.5, 2.0])
    new, _ = curve_shorten(table, Itinerary((0,)), A, vertex, B)
    assert P1.distance_to(new[0]) == pytest.approx(0.05, rel=1e-12)
    # the path passes through P2 at the vertex: no reflection to shorten
    with pytest.raises(PreconditionError):
        curve_shorten(table, Itinerary((1,)), A, vertex, B)
    # with y and z negated, B is on the side of A for P2 instead
    B = np.array([2.0, 1.5, -2.0])
    new, lengths = curve_shorten(table, Itinerary((1,)), A, vertex, B)
    assert P2.distance_to(new[0]) == pytest.approx(0.05, rel=1e-12)
    assert lengths[1] < lengths[0]


def test_r_family_mirror_slope(mirror_arr):
    rs = [1e-1, 1e-2, 1e-3, 1e-4]
    entries = r_family(mirror_arr, Itinerary((0,)), A_MIRROR, B_MIRROR, rs)
    devs = [e.deviation for e in entries]
    assert all(e.result is not None and e.result.honest for e in entries)
    assert all(e.itinerary_match for e in entries)
    assert all(b < a for a, b in zip(devs, devs[1:]))
    slope = np.polyfit(np.log(rs), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.2)


def _path_bits(path):
    """Every field of a thickened path, with arrays as their bytes."""
    arrays = (path.start_point, path.start_velocity, path.end_point, path.end_velocity)
    return ([a.tobytes() for a in arrays], path.end_time, path.status,
            [(e.time, e.label, e.point.tobytes(), e.v_before.tobytes(), e.v_after.tobytes())
             for e in path.events])


def test_r_family_keeps_the_replay_of_each_honest_radius(twolines_arr):
    itin = Itinerary((0, 1))
    entries = r_family(twolines_arr, itin, TWOLINE_A, TWOLINE_B, [1e-1, 1e-2, 1e-3])
    assert all(e.result is not None and e.result.honest for e in entries)
    for e in entries:
        fresh = replay_honest(ThickenedTable(twolines_arr, e.r), e.result, TWOLINE_A, 2)
        assert _path_bits(e.replay) == _path_bits(fresh)
        assert e.itinerary_match == (fresh.itinerary_labels == ["L1", "L2"])


@pytest.mark.parametrize("itin, A, B, honest", [
    ((0, 1), [1.98916641, -0.44632446], [-0.44703404, -5.58316732], True),
    ((0,), [-1.0, 1.0], [1.0, 1.0], True),
    ((1, 0), [2.0, 1.0], [3.0, -1.0], False),
    ((0, 1, 0), TWOLINE_A, TWOLINE_B, False),
    ((1, 0), TWOLINE_A, TWOLINE_B, False),
])
def test_thickened_solves_agree_at_every_anchor_scale(twolines_arr, itin, A, B, honest):
    """Scaling the anchors and the radius together by lam = 10^j, j = -3 ...
    8, on the two-line table keeps every result of r = 1e-1, 1e-2, 1e-3 at
    the same point / lam: honest or ghost and itinerary_match are the same,
    value / lam agrees to 1e-12 (relative) and an honest chain / lam to 1e-10
    |B - A| (a ghost's points may slide at constant length).  The KKT
    residual is a tangential gradient and has no unit, so an accept test on
    it that grew with the value would accept worse chains at larger scales.
    The honest cases run through r_family; the chord of the ghost case
    passes both cylinders straight, so it has no valid point solve."""
    itin, A, B = Itinerary(itin), np.array(A), np.array(B)
    radii = np.array([1e-1, 1e-2, 1e-3])
    scale = float(np.linalg.norm(B - A))

    def solves(lam):
        if honest:
            return [(e.result, e.itinerary_match)
                    for e in r_family(twolines_arr, itin, lam * A, lam * B, lam * radii)]
        return [(minimize_thickened(ThickenedTable(twolines_arr, lam * r), itin,
                                    lam * A, lam * B), False) for r in radii]

    base = solves(1.0)
    assert [result.honest for result, _ in base] == [honest] * len(radii)
    for j in range(-3, 9):
        lam = 10.0 ** j
        for (result, match), (ref, ref_match) in zip(solves(lam), base):
            assert result.honest == ref.honest
            assert match == ref_match
            assert abs(result.value / lam - ref.value) <= 1e-12 * ref.value
            if honest:
                assert np.abs(result.points / lam - ref.points).max() <= 1e-10 * scale


def _thickened_case(arr, rng):
    """A repeat-free itinerary of length 1-4, a radius 10^U(-4, -1) and
    anchors in the table interior."""
    n = len(arr.subspaces)
    labels = [int(rng.integers(n))]
    for _ in range(int(rng.integers(0, 4))):
        labels.append((labels[-1] + int(rng.integers(1, n))) % n)
    table = ThickenedTable(arr, 10.0 ** rng.uniform(-4.0, -1.0))
    while True:
        A, B = rng.normal(size=arr.dim) * 2, rng.normal(size=arr.dim) * 2
        if min(table.distance_to_wall(A), table.distance_to_wall(B)) > 0.1 * table.r:
            return table, Itinerary(tuple(labels)), A, B


def _check_minimizer(table, itin, A, B, result):
    """result is polished (kkt within grad_tol, no wall pulling its vertex)
    or a corner ghost (a collapsed interior edge), with every vertex in its
    solid cylinder to 1e-9 rho."""
    arr = table.arrangement
    scale = max(float(np.linalg.norm(B - A)), table.r)
    for idx, q in zip(itin, result.points):
        rho = arr.subspaces[idx].sigma * table.r
        assert arr.subspaces[idx].distance_to(q) <= rho * (1.0 + 1e-9)
    if math.isnan(result.kkt_residual):
        gaps = np.linalg.norm(np.diff(np.vstack([A, result.points, B]), axis=0), axis=1)
        assert not result.honest
        assert gaps[1:-1].min() <= SolverOptions().coincidence_tol * scale
    else:
        assert result.kkt_residual <= SolverOptions().grad_tol
        assert min(result.multipliers) >= -1e-10


@pytest.mark.parametrize("name", ["twolines", "lines3d", "planes3d", "planes4d", "fourbody"])
def test_every_thickened_result_is_a_minimizer(name, request):
    """On seeded random thickened solves every result is a KKT point of the
    convex problem or a corner ghost, no solve raises, and the reversed
    itinerary from B to A gives the same classification and value."""
    arr = request.getfixturevalue(f"{name}_arr")
    rng = np.random.default_rng([23, len(name)])
    for _ in range(8):
        table, itin, A, B = _thickened_case(arr, rng)
        result = minimize_thickened(table, itin, A, B)
        _check_minimizer(table, itin, A, B, result)
        back = minimize_thickened(table, Itinerary(tuple(reversed(itin.indices))), B, A)
        _check_minimizer(table, Itinerary(tuple(reversed(itin.indices))), B, A, back)
        assert back.honest == result.honest
        assert math.isnan(back.kkt_residual) == math.isnan(result.kkt_residual)
        assert abs(back.value - result.value) <= 1e-12 * result.value


def test_r_family_refuses_nontransverse(origin_arr):
    # the straight pass through the origin is an internal vertex
    with pytest.raises(PreconditionError):
        r_family(origin_arr, Itinerary((0,)),
                 np.array([-1.0, 1e-10]), np.array([1.0, -1e-10]), [1e-2])


def test_events_csv(tmp_path, mirror_table):
    v = np.array([1.0, -1.0]) / math.sqrt(2)
    path = simulate(mirror_table, [0.0, 1.0], v)
    out = tmp_path / "events.csv"
    events_to_csv(path, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("time,label")
    assert len(lines) == 2


def _first_hit_by_loop(table, p, v):
    """first_hit written as one closed form per subspace in turn: the
    reference the stacked first_hit must reproduce bit for bit."""
    arr = table.arrangement
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    radii = [s.sigma * table.r for s in arr.subspaces]
    for sub, rho in zip(arr.subspaces, radii):
        if sub.distance_to(p) < rho - 1e-9 * max(1.0, rho):
            raise PreconditionError(
                f"start point lies strictly inside cylinder around {sub.name}")
    t_eps = 1e-12 * max(1.0, float(np.linalg.norm(p)))
    best = None
    for i, (sub, rho) in enumerate(zip(arr.subspaces, radii)):
        w = sub.perp(p)
        u = sub.perp(v)
        a = float(np.dot(u, u))
        if a <= 1e-30:
            continue
        t_star = -float(np.dot(w, u)) / a
        res = w + t_star * u
        gap2 = rho * rho - float(np.dot(res, res))
        if gap2 * a < GRAZING_DISC:
            continue
        t_enter = t_star - math.sqrt(gap2 / a)
        if t_enter <= t_eps:
            continue
        if best is None or t_enter < best[0]:
            best = (t_enter, i)
    if best is None:
        return None
    t, i = best
    x = p + t * v
    sub = arr.subspaces[i]
    perp = sub.perp(x)
    nu = perp / np.linalg.norm(perp)
    for j, (other, rho_j) in enumerate(zip(arr.subspaces, radii)):
        if j != i and other.distance_to(x) < rho_j + CORNER_TOL:
            raise CornerCollision(
                f"hit on {sub.name} lies in the corner margin of {other.name}")
    return t, i, x, nu


def _outcome(fn, table, p, v):
    """A first_hit result as bytes, or the class and message it raised."""
    try:
        hit = fn(table, p, v)
    except (PreconditionError, CornerCollision) as exc:
        return type(exc).__name__, str(exc)
    if hit is None:
        return None
    t, i, x, nu = hit
    return type(t), np.float64(t).tobytes(), type(i), i, x.tobytes(), nu.tobytes()


def _assert_first_hit_matches_loop(table, p, v):
    expected = _outcome(_first_hit_by_loop, table, p, v)
    assert _outcome(first_hit, table, p, v) == expected
    return expected


def _three_body_arr():
    return nbody.build_arrangement(
        nbody.NBodySystem(3, 2, nbody.MASSES_THIRD, reduce_cm=True))


@pytest.mark.parametrize("name", ["threebody", "fourbody", "twolines", "lines3d", "planes4d"])
def test_first_hit_matches_the_per_subspace_loop(name, request):
    arr = _three_body_arr() if name == "threebody" else request.getfixturevalue(f"{name}_arr")
    rng = np.random.default_rng(sum(map(ord, name)))
    kinds = set()
    for r in (1e-1, 1e-2, 1e-3, 1e-4):
        table = ThickenedTable(arr, r)
        for n in range(60):
            p = rng.normal(size=arr.dim) * 3.0
            sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
            if n % 3 == 0:
                v = rng.normal(size=arr.dim)
            elif n % 3 == 1:
                # aimed inside a random cylinder, so most of these hit
                offset = sub.perp(rng.normal(size=arr.dim))
                target = sub.project(rng.normal(size=arr.dim)) \
                    + rng.uniform(0.0, 1.5) * sub.sigma * r * offset / np.linalg.norm(offset)
                v = target - p
            else:
                # aimed at the origin, where every cylinder meets
                v = rng.normal(size=arr.dim) * 1e-3 * r - p
            v /= np.linalg.norm(v)
            expected = _assert_first_hit_matches_loop(table, p, v)
            kinds.add("none" if expected is None else expected[0])
            if expected is not None and expected[0] is float:
                # from the hit point on the wall, into it and away from it:
                # the entry at t ~ 0 lies within t_eps
                _, _, x, nu = first_hit(table, p, v)
                _assert_first_hit_matches_loop(table, x, v)
                _assert_first_hit_matches_loop(table, x, v - 2.0 * np.dot(v, nu) * nu)
    assert {"none", float} <= kinds


def test_first_hit_matches_the_loop_on_forced_cases(mirror_arr, twolines_arr, lines3d_arr):
    # parallel rays: along a line exactly (a = 0) and along a line whose
    # perpendicular part is rounding error (0 < a <= 1e-30)
    table = ThickenedTable(twolines_arr, 0.1)
    assert _assert_first_hit_matches_loop(table, [0.0, -1.0], [1.0, 0.0]) is None
    table3 = ThickenedTable(lines3d_arr, 0.1)
    along = lines3d_arr.subspaces[1].basis[0]
    u = lines3d_arr.subspaces[1].perp(along)
    assert 0.0 < np.dot(u, u) <= 1e-30
    assert _assert_first_hit_matches_loop(table3, [0.0, 0.0, 1.0], along) is None

    # grazing: the ray passes the line M1 at depth gap2 with a = 1, on both
    # sides of the discriminant cut-off
    p = np.array([0.5, 0.0, -1.0])
    v = np.array([0.0, 0.0, 1.0])
    outcomes = []
    for disc in (0.5 * GRAZING_DISC, 2.0 * GRAZING_DISC):
        p[1] = math.sqrt(0.1 * 0.1 - disc)
        a, _, gap2, _ = _line_tube(lines3d_arr.bases[:1], 0.1, p, v)
        assert (gap2[0] * a[0] < GRAZING_DISC) == (disc < GRAZING_DISC)
        outcomes.append(_assert_first_hit_matches_loop(table3, p, v))
    assert outcomes[0] is None and outcomes[1][3] == 0

    # an exact tie: lines mirror-symmetric about the ray, which meets both
    # walls at one point, in the corner margin of the line not picked
    c = 1.0 / math.sqrt(2.0)
    cross = Arrangement(2, (Subspace("D1", np.array([[c, c]]), 2),
                            Subspace("D2", np.array([[c, -c]]), 2)))
    tie = ThickenedTable(cross, 0.1)
    a, t_star, gap2, _ = _line_tube(cross.bases, 0.1, np.array([5.0, 0.0]),
                                    np.array([-1.0, 0.0]))
    assert a[0] == a[1] and t_star[0] == t_star[1] and gap2[0] == gap2[1]
    assert _assert_first_hit_matches_loop(tie, [5.0, 0.0], [-1.0, 0.0]) == (
        "CornerCollision", "hit on D1 lies in the corner margin of D2")

    # a hit in a corner margin, and a start strictly inside a cylinder
    bis = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
    assert _assert_first_hit_matches_loop(
        ThickenedTable(twolines_arr, 0.05), 2.0 * bis, -bis)[0] == "CornerCollision"
    assert _assert_first_hit_matches_loop(
        ThickenedTable(mirror_arr, 0.1), [0.0, 0.05], [1.0, 0.0])[0] == "PreconditionError"


@pytest.mark.parametrize("name", ["threebody", "fourbody", "origin", "lines3d", "planes4d"])
def test_distance_to_wall_is_the_per_subspace_minimum(name, request):
    # unequal masses give the three-body cylinders unequal radii
    arr = nbody.build_arrangement(nbody.NBodySystem(3, 2, (1.0, 2.0, 5.0), reduce_cm=True)) \
        if name == "threebody" else request.getfixturevalue(f"{name}_arr")
    assert name != "threebody" or len({s.sigma for s in arr.subspaces}) == 3
    rng = np.random.default_rng(len(name))
    for r in (1e-1, 1e-4):
        table = ThickenedTable(arr, r)
        for _ in range(40):
            x = rng.normal(size=arr.dim) * rng.uniform(1e-3, 3.0)
            assert table.distance_to_wall(x) == min(
                s.distance_to(x) - s.sigma * r for s in arr.subspaces)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_thickening_radius_must_be_positive_and_finite(mirror_arr, r):
    with pytest.raises(InputError):
        ThickenedTable(mirror_arr, r)


def test_curve_shorten_rejects_coincident_points(mirror_table):
    """A vertex equal to its neighbour has no edge direction: a usage error,
    not a division by zero."""
    with pytest.raises(InputError, match="consecutive trajectory points coincide"):
        curve_shorten(mirror_table, Itinerary((0,)), np.array([0.0, 1.0]),
                      np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
