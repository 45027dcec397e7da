import collections
import math

import numpy as np
import pytest

from linbilliards import nbody
from linbilliards.arrangement import Arrangement, Itinerary, Subspace, _row_dot
from linbilliards.errors import CornerCollision, InputError, PreconditionError
from linbilliards.thickened import (
    CORNER_ROUNDING,
    CORNER_TOL,
    GRAZING_DISC,
    REENTRY_TOL,
    Event,
    ThickenedPath,
    ThickenedTable,
    _WallProblem,
    _hit,
    events_to_csv,
    first_hit,
    minimize_thickened,
    r_family,
    replay_honest,
    simulate,
)
from linbilliards.action import COINCIDENCE_TOL
from linbilliards.solver import GRAD_TOL, minimize

from conftest import TWOLINE_A, TWOLINE_B, curve_shorten, hit_reference, line_tube

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


def test_simulate_stops_at_the_time_horizon(mirror_table):
    """The first hit is at t = 0.9 sqrt(2); a horizon of 0.5 ends the path
    on the ray, before any event."""
    p, v = np.array([0.0, 1.0]), np.array([1.0, -1.0]) / math.sqrt(2)
    path = simulate(mirror_table, p, v, t_max=0.5)
    assert path.status == "t_max"
    assert path.end_time == 0.5
    assert np.array_equal(path.end_point, p + 0.5 * v)
    assert np.array_equal(path.end_velocity, v)
    assert path.events == []


@pytest.mark.parametrize("p, v", [([0.0, 1.0], [math.nan, 1.0]),
                                  ([math.inf, 1.0], [1.0, 0.0])])
def test_simulate_rejects_a_non_finite_start(mirror_table, p, v):
    with pytest.raises(InputError, match="finite"):
        simulate(mirror_table, p, v)


@pytest.mark.parametrize("p, kwargs", [
    ([0.0, 1.0], {"t_max": -1.0}), ([0.0, 1.0], {"t_max": math.nan}),
    ([0.0, 1.0], {"max_events": -3}), ([[0.0, 1.0], [0.0, 1.0]], {}), (1.0, {})])
def test_simulate_refuses_a_negative_horizon_budget_or_a_misshapen_start(mirror_table,
                                                                        p, kwargs):
    """A horizon below 0 or NaN (which ran the path backward, or acted as no
    horizon), a negative event budget and a start that is not a point of
    the plane are refused before anything is simulated."""
    v = np.array([1.0, -1.0]) / math.sqrt(2)
    with pytest.raises(InputError):
        simulate(mirror_table, p, v, **kwargs)


def test_simulate_with_no_event_budget_stays_at_the_start(mirror_table):
    """max_events = 0 and t_max = 0 are the smallest budget and horizon: the
    path ends where it starts, with no event."""
    p, v = np.array([0.0, 1.0]), np.array([1.0, -1.0]) / math.sqrt(2)
    for kwargs, status in (({"max_events": 0}, "max_events"), ({"t_max": 0.0}, "t_max")):
        path = simulate(mirror_table, p, v, **kwargs)
        assert (path.status, path.end_time, path.events) == (status, 0.0, [])
        assert np.array_equal(path.end_point, p)


def test_simulate_two_lines_bounce_bound(twolines_arr):
    # small thickening of two lines at pi/3: at most 4 bounces
    table = ThickenedTable(twolines_arr, 1e-3)
    rng = np.random.default_rng(1)
    worst = 0
    for _ in range(200):
        p = rng.normal(size=2) * 3
        if not table.distance_to_wall(p) >= 1e-6:
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


def test_r_family_records_a_refused_radius(mirror_arr):
    """A radius whose cylinder holds an anchor is an entry with its error,
    and the radii after it are still solved."""
    refused, kept = r_family(mirror_arr, Itinerary((0,)), A_MIRROR, B_MIRROR, [2.0, 1e-2])
    assert refused.result is None and refused.replay is None
    assert math.isnan(refused.deviation)
    assert refused.itinerary_match is False
    assert refused.error == "anchor A must lie in the table interior"
    assert kept.result is not None and kept.result.honest and kept.itinerary_match


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
    """result is polished (kkt within GRAD_TOL, no wall pulling its vertex)
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
        assert gaps[1:-1].min() <= COINCIDENCE_TOL * scale
    else:
        assert result.kkt_residual <= GRAD_TOL
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
        if sub.distance_to(p) < rho - 1e-9 * rho:
            raise PreconditionError(
                f"start point lies strictly inside cylinder around {sub.name}")
    size = float(np.linalg.norm(p))
    t_eps = REENTRY_TOL * size
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
        if gap2 * a < GRAZING_DISC * (rho * rho):
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
        margin = CORNER_TOL * rho_j + CORNER_ROUNDING * (size + t)
        if j != i and other.distance_to(x) < rho_j + margin:
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


@pytest.mark.parametrize("name", ["threebody", "fourbody", "twolines", "lines3d", "planes4d"])
def test_first_hit_matches_the_per_subspace_loop(name, request):
    arr = request.getfixturevalue(f"{name}_arr")
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
    # sides of the discriminant cut-off GRAZING_DISC rho^2
    p = np.array([0.5, 0.0, -1.0])
    v = np.array([0.0, 0.0, 1.0])
    cut = GRAZING_DISC * 0.1 * 0.1
    outcomes = []
    for disc in (0.5 * cut, 2.0 * cut):
        p[1] = math.sqrt(0.1 * 0.1 - disc)
        a, _, gap2 = line_tube(lines3d_arr.complements[:1], 0.1, p, v)
        assert (gap2[0] * a[0] < cut) == (disc < cut)
        outcomes.append(_assert_first_hit_matches_loop(table3, p, v))
    assert outcomes[0] is None and outcomes[1][3] == 0

    # an exact tie: lines mirror-symmetric about the ray, which meets both
    # walls at one point, in the corner margin of the line not picked
    c = 1.0 / math.sqrt(2.0)
    cross = Arrangement(2, (Subspace("D1", np.array([[c, c]]), 2),
                            Subspace("D2", np.array([[c, -c]]), 2)))
    tie = ThickenedTable(cross, 0.1)
    a, t_star, gap2 = line_tube(cross.complements, 0.1, np.array([5.0, 0.0]),
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


def _simulate_by_first_hit(table, p, v, max_events=50, t_max=math.inf):
    """simulate as a loop over the public first_hit from each reflected state
    (x, v - 2<v, nu> nu), each event projecting its start afresh: the
    reference that simulate, which carries each hit point's projections into
    the next ray, must reproduce bit for bit.  first_hit has no horizon, so
    this reference is only asked for horizons before a corner."""
    p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
    for sub, rho in zip(table.arrangement.subspaces, table.radii):
        if sub.distance_to(p) < rho - 1e-9 * rho:
            raise PreconditionError("start point lies inside a cylinder")
    path = ThickenedPath(p.copy(), v.copy())
    t_now = 0.0
    for _ in range(max_events):
        try:
            hit = first_hit(table, p, v)
        except CornerCollision as exc:
            path.end_time, path.status = t_now, "corner"
            path.end_point, path.end_velocity = p.copy(), v.copy()
            exc.path = path
            raise
        if hit is None:
            path.status = "escaped"
            break
        t, i, x, nu = hit
        if t_now + t > t_max:
            path.status, p, t_now = "t_max", p + (t_max - t_now) * v, t_max
            break
        t_now += t
        v_after = v - 2.0 * float(np.dot(v, nu)) * nu
        path.events.append(Event(t_now, table.arrangement.subspaces[i].name, x, v, v_after))
        p, v = x, v_after
    else:
        path.status = "max_events"
    path.end_time = t_now
    path.end_point, path.end_velocity = p.copy(), v.copy()
    return path


def _path_bytes(path):
    return ([(e.time.hex(), e.label, e.point.tobytes(), e.v_before.tobytes(),
              e.v_after.tobytes()) for e in path.events],
            path.end_time.hex(), path.end_point.tobytes(), path.end_velocity.tobytes(),
            path.status)


def _simulation(fn, table, p, v, **kwargs):
    """A path as bytes; a CornerCollision as its message and partial path."""
    try:
        return _path_bytes(fn(table, p, v, **kwargs)), None
    except CornerCollision as exc:
        return _path_bytes(exc.path), str(exc)
    except PreconditionError as exc:
        return None, str(exc)


@pytest.mark.parametrize("name", ["threebody", "fourbody", "twolines", "lines3d", "planes4d"])
def test_simulate_matches_stepping_first_hit(name, request):
    """simulate's carried projections change no bit: every event, end state,
    status and corner message is that of first_hit stepped from each
    reflected state, on the rays of the per-subspace first_hit test, each
    also cut by an event budget and by a horizon between two of its events."""
    arr = request.getfixturevalue(f"{name}_arr")
    rng = np.random.default_rng(sum(map(ord, name)))
    ends = collections.Counter()
    for r in (1e-1, 1e-2, 1e-3, 1e-4):
        table = ThickenedTable(arr, r)
        for n in range(60):
            p = rng.normal(size=arr.dim) * 3.0
            sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
            if n % 3 == 0:
                v = rng.normal(size=arr.dim)
            elif n % 3 == 1:
                offset = sub.perp(rng.normal(size=arr.dim))
                v = sub.project(rng.normal(size=arr.dim)) - p \
                    + rng.uniform(0.0, 1.5) * sub.sigma * r * offset / np.linalg.norm(offset)
            else:
                v = rng.normal(size=arr.dim) * 1e-3 * r - p
            v /= np.linalg.norm(v)
            full = _simulation(simulate, table, p, v, max_events=50)
            assert full == _simulation(_simulate_by_first_hit, table, p, v)
            if full[0] is None:
                continue
            ends[full[0][-1]] += 1
            events = full[0][0]
            cuts = [{"t_max": 0.5 * float.fromhex(events[0][0])}] if events else []
            if len(events) >= 2:
                k = int(rng.integers(1, len(events)))
                times = [float.fromhex(events[j][0]) for j in (k - 1, k)]
                cuts += [{"max_events": len(events) - 1}, {"t_max": 0.5 * sum(times)}]
            for cut in cuts:
                got = _simulation(simulate, table, p, v, **cut)
                assert got == _simulation(_simulate_by_first_hit, table, p, v, **cut)
                ends[got[0][-1]] += 1
    assert {"escaped", "max_events", "t_max"} <= set(ends)


def _cross(*extra):
    """The diagonal cross D1 = span(1, 1), D2 = span(1, -1) at r = 0.1, whose
    walls meet on the axes, at distance 0.1 sqrt(2) from the origin."""
    c = 1.0 / math.sqrt(2.0)
    return ThickenedTable(Arrangement(2, (Subspace("D1", np.array([[c, c]]), 2),
                                          Subspace("D2", np.array([[c, -c]]), 2), *extra)), 0.1)


def test_a_corner_past_the_time_horizon_is_no_event():
    """The ray from (-3, 0) along e1 first meets both walls of the cross at
    once, at t = 2.86, in a corner: within the horizon that is a
    CornerCollision, past it the path ends at t_max on the ray."""
    table = _cross()
    p, v = np.array([-3.0, 0.0]), np.array([1.0, 0.0])
    with pytest.raises(CornerCollision, match="hit on D1 lies in the corner margin of D2"):
        first_hit(table, p, v)
    for t_max in (math.inf, 3.0):
        with pytest.raises(CornerCollision) as info:
            simulate(table, p, v, t_max=t_max)
        path = info.value.path
        assert (path.status, path.end_time, path.events) == ("corner", 0.0, [])
    path = simulate(table, p, v, t_max=0.5)
    assert (path.status, path.end_time, path.events) == ("t_max", 0.5, [])
    assert np.array_equal(path.end_point, p + 0.5 * v)
    assert np.array_equal(path.end_velocity, v)


def test_a_corner_after_an_event_matches_stepping_first_hit():
    """A thin line L3 at 10 degrees inside the cross's left wedge reflects the
    ray at t = 1 straight into the wedge's vertex (-0.1 sqrt(2), 0), where
    both walls of the cross meet: the CornerCollision's partial path, and the
    paths cut before the corner by the event budget or a horizon, are those
    of first_hit stepped from the reflected state."""
    th = math.radians(10.0)
    axis, normal = np.array([math.cos(th), math.sin(th)]), np.array([-math.sin(th), math.cos(th)])
    table = _cross(Subspace("L3", axis[None, :], 2, sigma=0.1))
    hit = -2.0 * axis + 0.01 * normal        # on the upper wall of L3
    out = np.array([-0.1 * math.sqrt(2.0), 0.0]) - hit
    out /= np.linalg.norm(out)
    v = out - 2.0 * np.dot(out, normal) * normal
    p = hit - v
    full = _simulation(simulate, table, p, v)
    assert full == _simulation(_simulate_by_first_hit, table, p, v)
    assert [e[1] for e in full[0][0]] == ["L3"] and full[0][-1] == "corner"
    assert full[1] == "hit on D2 lies in the corner margin of D1"
    for cut in ({"max_events": 1}, {"t_max": 0.5}):
        got = _simulation(simulate, table, p, v, **cut)
        assert got == _simulation(_simulate_by_first_hit, table, p, v, **cut)
        assert got[1] is None and got[0][-1] == next(iter(cut))
    # the corner lies at t = 2.86; a horizon before it keeps the one event
    path = simulate(table, p, v, t_max=2.5)
    assert path.status == "t_max" and path.itinerary_labels == ["L3"]


@pytest.mark.parametrize("delta", [1e-13, 1e-12, 3e-12, 1e-11, 1e-10])
@pytest.mark.parametrize("height", [6.0, 1e3])
def test_a_hit_just_off_another_wall_is_a_corner_or_an_event(delta, height):
    """Two planes through the z axis at 60 degrees, thickened to r = 1e-4:
    a ray meets P1's wall at height z, delta off P2's cylinder, and is
    reflected into it.  The next ray drops every entry within REENTRY_TOL
    |x| of x, so a hit that cleared the corner test by less than that
    would cross P2's cylinder unseen; the hit must instead be a corner or
    be followed by the hit on P2 (itself a corner when it lies within the
    margin of P1's wall)."""
    c, s = 0.5, math.sqrt(3.0) / 2.0
    arr = Arrangement(3, (Subspace.from_spanning("P1", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], 3),
                          Subspace.from_spanning("P2", [[c, s, 0.0], [0.0, 0.0, 1.0]], 3)))
    rho = 1e-4
    # on P1's wall y = rho, at distance rho + delta from P2 (normal (-s, c, 0))
    hit = np.array([(3.0 * rho + 2.0 * delta) / math.sqrt(3.0), rho, height])
    back = np.array([1.0, 0.1, 0.0]) / math.hypot(1.0, 0.1)
    table = ThickenedTable(arr, rho)
    try:
        path = simulate(table, hit + back, -back)
    except CornerCollision as exc:
        labels = exc.path.itinerary_labels
        assert labels == [] or (labels == ["P1"] and str(exc).startswith("hit on P2"))
    else:
        assert path.itinerary_labels[:2] == ["P1", "P2"]
        assert _segment_clearances(arr, table, path).min() >= -1e-13 * height


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


def _hit_outcome(fn, table, p, v, w, norm, t_now, t_max):
    """A _hit result with its arrays as bytes, or the class and message it raised."""
    try:
        hit = fn(table, p, v, w, norm, t_now, t_max)
    except CornerCollision as exc:
        return type(exc).__name__, str(exc)
    if hit is None:
        return None
    t, i, *arrays = hit
    return (type(t), np.float64(t).tobytes(), i,
            *(None if a is None else a.tobytes() for a in arrays))


@pytest.mark.parametrize("name", ["threebody", "fourbody"])
def test_hit_matches_the_where_form_on_the_nbody_tables(name, request):
    """_hit guards its division by adding a mask instead of np.where and
    takes argmin as a method: along whole paths on the N-body tables at the
    CLI's four radii, every event, horizon cut, corner and escape is the
    np.where form's, bit for bit."""
    arr = request.getfixturevalue(f"{name}_arr")
    rng = np.random.default_rng(sum(map(ord, name)) + 7)
    kinds = collections.Counter()
    for r in (1e-1, 1e-2, 1e-3, 1e-4):
        table = ThickenedTable(arr, r)
        for n in range(40):
            p = rng.normal(size=arr.dim) * 3.0
            sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
            offset = sub.perp(rng.normal(size=arr.dim))
            target = sub.project(rng.normal(size=arr.dim)) \
                + rng.uniform(0.0, 1.5) * sub.sigma * r * offset / np.linalg.norm(offset)
            v = (target - p) if n % 2 else rng.normal(size=arr.dim)
            v /= np.linalg.norm(v)
            w = arr.perp_parts(p)
            norm = np.sqrt(_row_dot(w, w))
            if (norm < table.inside_below).any():
                continue
            t_now, t_max = 0.0, (rng.uniform(0.0, 12.0) if n % 4 == 1 else math.inf)
            for _ in range(20):
                got = _hit_outcome(_hit, table, p, v, w, norm, t_now, t_max)
                assert got == _hit_outcome(hit_reference, table, p, v, w, norm, t_now, t_max)
                kind = ("end" if got is None else "corner" if got[0] is not float
                        else "horizon" if got[3] is None else "event")
                kinds[kind] += 1
                if kind != "event":
                    break
                t, i, x, w, norm = _hit(table, p, v, w, norm, t_now, t_max)
                nu = w[i] / norm[i]
                p, v, t_now = x, v - 2.0 * float(v @ nu) * nu, t_now + t
    assert kinds["event"] > 0 and kinds["end"] > 0 and kinds["horizon"] > 0


@pytest.mark.parametrize("r", [10.0 ** -e for e in range(2, 11)])
def test_events_scale_with_the_table(mirror_arr, r):
    """The grazing and inside tests are relative to the cylinder: on the
    mirror table thickened to lam r, rays from lam p meet the same walls at
    lam times the lam = 1 times, a head-on ray included, and a start on
    the axis is refused, for every r down to 1e-10."""
    rays = [([0.0, 1.0], [0.0, -1.0]), ([0.0, 1.0], [1.0, -1.0]),
            ([3.0, -2.0], [-0.6, 0.8]), ([-1.0, 0.5], [1.0, -0.25])]
    for p, v in rays:
        v = np.asarray(v) / np.linalg.norm(v)
        paths = {lam: simulate(ThickenedTable(mirror_arr, lam * r), lam * np.asarray(p), v)
                 for lam in (1e-6, 1.0, 1e6)}
        assert paths[1.0].itinerary_labels == ["L1"]
        for lam, path in paths.items():
            assert path.itinerary_labels == paths[1.0].itinerary_labels
            for e, ref in zip(path.events, paths[1.0].events):
                assert e.time == pytest.approx(lam * ref.time, rel=1e-12, abs=0.0)
    for lam in (1e-6, 1.0, 1e6):
        table = ThickenedTable(mirror_arr, lam * r)
        with pytest.raises(PreconditionError):
            simulate(table, [5.0 * lam, 0.0], [0.0, -1.0])
        with pytest.raises(PreconditionError):
            first_hit(table, [5.0 * lam, 0.0], [0.0, -1.0])


def _scaled_runs(arr, r, p, v):
    """simulate on the table thickened to lam r from lam p at lam = 1e-12,
    1e-9, ..., 1e12: {lam: (labels, status, times / lam)}, or the class of
    the error raised."""
    runs = {}
    for lam in (10.0 ** e for e in range(-12, 13, 3)):
        try:
            path = simulate(ThickenedTable(arr, lam * r), lam * np.asarray(p), v, max_events=20)
        except (CornerCollision, PreconditionError) as exc:
            runs[lam] = type(exc).__name__
        else:
            runs[lam] = (path.itinerary_labels, path.status, [e.time / lam for e in path.events])
    return runs


def _aimed_ray(rng, arr, r, depth):
    """A seeded start 3 N(0, I) and unit direction at a point depth sigma r
    off a random subspace, inside its cylinder for depth < 1."""
    p = rng.normal(size=arr.dim) * 3.0
    sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
    offset = sub.perp(rng.normal(size=arr.dim))
    target = sub.project(rng.normal(size=arr.dim)) \
        + depth * sub.sigma * r * offset / np.linalg.norm(offset)
    return p, (target - p) / np.linalg.norm(target - p)


def _assert_runs_agree(runs):
    ref = runs[1.0]
    for lam, run in runs.items():
        assert type(run) is type(ref) and run[:2] == ref[:2], lam
        if isinstance(ref, tuple):
            assert run[2] == pytest.approx(ref[2], rel=1e-12, abs=0.0), lam
    return ref


def test_corner_margin_commutes_with_scaling(twolines_arr):
    """The corner margin is relative to the cylinder, plus the hit point's
    rounding in |p| + t, and the re-entry guard t_eps is relative to |p|:
    the three-bounce ray on two lines meets L2, L1, L2 at lam times the
    lam = 1 times for every lam from 1e-12 to 1e12, and rays into a corner
    (the bisector, the exact tie on the cross) raise at every lam."""
    v = np.array([-1.0, -0.1]) / math.hypot(1.0, 0.1)
    assert _assert_runs_agree(_scaled_runs(twolines_arr, 0.1, [4.0, 1.0], v))[:2] == (
        ["L2", "L1", "L2"], "escaped")
    bis = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
    assert _assert_runs_agree(_scaled_runs(twolines_arr, 0.05, 2.0 * bis, -bis)) \
        == "CornerCollision"
    c = 1.0 / math.sqrt(2.0)
    cross = Arrangement(2, (Subspace("D1", np.array([[c, c]]), 2),
                            Subspace("D2", np.array([[c, -c]]), 2)))
    assert _assert_runs_agree(_scaled_runs(cross, 0.1, [5.0, 0.0], np.array([-1.0, 0.0]))) \
        == "CornerCollision"


def test_events_on_the_three_body_table_commute_with_scaling(threebody_arr):
    """Seeded rays aimed into the cylinders of the three-body table at the
    CLI's four radii: at every lam from 1e-12 to 1e12 the same walls are
    met, at lam times the lam = 1 times (to 1e-12 relative)."""
    arr = threebody_arr
    rng = np.random.default_rng(3)
    events = 0
    for r in (1e-1, 1e-2, 1e-3, 1e-4):
        for _ in range(10):
            p, v = _aimed_ray(rng, arr, r, rng.uniform(0.0, 1.5))
            ref = _assert_runs_agree(_scaled_runs(arr, r, p, v))
            events += len(ref[0]) if isinstance(ref, tuple) else 0
    assert events >= 30


@pytest.mark.parametrize("name", ["threebody", "fourbody"])
def test_reflections_are_the_mirror_about_subspace_perp_bit_for_bit(name, request):
    """The benchmark's specular gate mirrors v_before about
    Subspace.perp(point) normalized and compares at 1e-12, below the
    normal's own rounding at r = 1e-4 (about 2e-12 against exact
    arithmetic on the four-body table); it holds because the simulator's
    normal is those bits.  Over seeded rays at the CLI's four radii every
    event's v_after is that mirror, bit for bit."""
    arr = request.getfixturevalue(f"{name}_arr")
    rng = np.random.default_rng(sum(map(ord, name)))
    events = 0
    for r in (1e-1, 1e-2, 1e-3, 1e-4):
        table = ThickenedTable(arr, r)
        for _ in range(15):
            p, v = _aimed_ray(rng, arr, r, 0.5)
            if table.distance_to_wall(p) <= 0.0:
                continue
            for e in simulate(table, p, v, max_events=50).events:
                nu = arr.subspaces[arr.index_of(e.label)].perp(e.point)
                nu = nu / np.linalg.norm(nu)
                mirror = e.v_before - 2.0 * float(np.dot(e.v_before, nu)) * nu
                assert e.v_after.tobytes() == mirror.tobytes()
                events += 1
    assert events >= 60


@pytest.mark.parametrize("name", ["threebody", "fourbody", "planes4d"])
def test_wall_offsets_are_subspace_perp_bit_for_bit(name, request):
    """The wall polish measures each vertex's offset P⊥ q with the
    itinerary's stored complement projectors, by the row dots of
    Subspace.perp, so its wall normals are the simulator's bits."""
    arr = request.getfixturevalue(f"{name}_arr")
    rng = np.random.default_rng(len(name))
    itin = Itinerary((0, 1, 0, 1))
    table = ThickenedTable(arr, 1e-2)
    problem = _WallProblem(table, itin, np.zeros(arr.dim), np.zeros(arr.dim),
                           np.zeros(4, dtype=bool))
    for _ in range(20):
        pts = rng.normal(size=(4, arr.dim)) * 10.0 ** rng.uniform(-3, 3)
        w, s = problem.slack(pts)
        for idx, q, got, slack in zip(itin, pts, w, s):
            assert got.tobytes() == arr.subspaces[idx].perp(q).tobytes()
            assert slack == table.rho2[idx] - float(np.dot(got, got))


def _segment_clearances(arr, table, path):
    """The least distance to each axis (n,) over every straight piece of
    the path, less that cylinder's radius; the last piece runs to its end
    point, or on forever after an escape."""
    starts = [path.start_point] + [e.point for e in path.events]
    velocities = [path.start_velocity] + [e.v_after for e in path.events]
    ends = [e.point for e in path.events] + [None if path.status == "escaped" else path.end_point]
    least = np.full(len(arr.subspaces), math.inf)
    for p, v, q in zip(starts, velocities, ends):
        length = math.inf if q is None else float(np.linalg.norm(q - p))
        for j, sub in enumerate(arr.subspaces):
            w, u = sub.perp(p), sub.perp(v)
            a = float(np.dot(u, u))
            t = 0.0 if a == 0.0 else min(max(-float(np.dot(w, u)) / a, 0.0), length)
            least[j] = min(least[j], float(np.linalg.norm(w + t * u)) - table.radii[j])
    return least


@pytest.mark.parametrize("name", ["threebody", "fourbody"])
def test_paths_stay_outside_every_cylinder(name, request):
    """No piece of a simulated path enters a solid cylinder: over seeded
    rays aimed at the N-body tables' cylinders at the CLI's four radii,
    every piece keeps within rounding of a wall or beyond it, so the
    re-entry guard never skips a wall that a reflected ray enters."""
    arr = request.getfixturevalue(f"{name}_arr")
    rng = np.random.default_rng(7 + len(name))
    events = 0
    for r in (1e-1, 1e-2, 1e-3, 1e-4):
        table = ThickenedTable(arr, r)
        for _ in range(15):
            p, v = _aimed_ray(rng, arr, r, 0.5)
            if table.distance_to_wall(p) <= 0.0:
                continue
            try:
                path = simulate(table, p, v, max_events=50)
            except CornerCollision as exc:
                path = exc.path
            scale = max(float(np.linalg.norm(e.point)) for e in [path, *path.events]
                        if isinstance(e, Event)) if path.events else 1.0
            assert _segment_clearances(arr, table, path).min() >= -1e-13 * max(scale, 1.0)
            events += len(path.events)
    assert events >= 60


def test_events_share_no_writable_array(twolines_arr):
    """Each event holds its own hit point; a v_after is read-only, and is
    the next event's v_before; no array of a path is the caller's."""
    p, v = np.array([4.0, 1.0]), np.array([-1.0, -0.1]) / math.hypot(1.0, 0.1)
    path = simulate(ThickenedTable(twolines_arr, 0.1), p, v)
    assert path.itinerary_labels == ["L2", "L1", "L2"]
    arrays = [path.start_point, path.start_velocity, path.end_point, path.end_velocity]
    arrays += [a for e in path.events for a in (e.point, e.v_before, e.v_after)]
    for j, a in enumerate(arrays):
        assert not np.shares_memory(a, p) and not np.shares_memory(a, v)
        for b in arrays[j + 1:]:
            assert not np.shares_memory(a, b) or not (a.flags.writeable or b.flags.writeable)
    assert not any(e.v_after.flags.writeable for e in path.events)
    assert all(e.v_before is prev.v_after for prev, e in zip(path.events, path.events[1:]))
