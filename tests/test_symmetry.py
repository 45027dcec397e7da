import math

import numpy as np
import pytest
import scipy.linalg

from linbilliards.arrangement import Arrangement, Itinerary, Subspace
from linbilliards.errors import PreconditionError
from linbilliards.nbody import NBodySystem, build_arrangement
from linbilliards.solver import minimize
from linbilliards.symmetry import (
    RotationGenerator,
    angular_momentum,
    conservation_report,
    generators_from_json,
    report_to_csv,
    translation_core,
)
from linbilliards.trajectory import BilliardTrajectory

from conftest import (TWOLINE_A, TWOLINE_B, linear_momentum, rotation_generator,
                      total_momentum)

ROT2 = RotationGenerator("rot", np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_translation_core_two_lines(twolines_arr):
    core = translation_core(twolines_arr)
    assert core.subdim == 0


def test_translation_core_single_subspace(mirror_arr):
    core = translation_core(mirror_arr)
    assert core.subdim == 1
    assert np.allclose(np.abs(core.basis[0]), [1.0, 0.0], atol=1e-12)


def test_translation_core_three_bodies_on_line():
    sys = NBodySystem(3, 1, (1.0, 1.0, 1.0))
    arr = build_arrangement(sys)
    core = translation_core(arr)
    assert core.subdim == 1
    assert np.allclose(np.abs(core.basis[0]),
                       np.ones(3) / math.sqrt(3), atol=1e-12)


def test_linear_momentum_zero_core(twolines_arr):
    assert np.allclose(linear_momentum(twolines_arr, [3.0, 4.0]), 0.0)


def test_linear_momentum_matches_body_momentum():
    # equal masses on the line: the core projection recovers total momentum
    sys = NBodySystem(3, 1, (1.0, 1.0, 1.0))
    arr = build_arrangement(sys)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=(3, 1))
        p_core = linear_momentum(arr, sys.embed(v))
        total = total_momentum(sys, v)[0]
        # the embedded core direction is (1,1,1)/sqrt(3); its coefficient is
        # total momentum / sqrt(total mass)
        assert np.linalg.norm(p_core) == pytest.approx(
            abs(total) / math.sqrt(3.0), abs=1e-12)


def test_angular_momentum_standard():
    assert angular_momentum(ROT2, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert angular_momentum(ROT2, [2.0, 0.0], [3.0, 0.0]) == pytest.approx(0.0)


def test_angular_momentum_jump_vanishes_on_preserved_subspace(mirror_arr):
    # generator must preserve the subspace for the jump to vanish; the mirror
    # line is not rotation invariant, so build the compatible 4D example
    rng = np.random.default_rng(1)
    sys = NBodySystem(3, 2, (1 / 3, 1 / 3, 1 / 3), reduce_cm=True)
    arr = build_arrangement(sys)
    gen = rotation_generator(sys)
    gen.validate(arr)
    sub = arr.subspaces[0]
    for _ in range(20):
        q = sub.project(rng.normal(size=4))
        v_perp = rng.normal(size=4)
        v_perp -= sub.project(v_perp)
        # jump of J across a reflection is <xi(q), v_+ - v_-> with the
        # difference normal to the subspace
        assert abs(np.dot(gen.xi @ q, v_perp)) < 1e-12


def test_generator_validation():
    bad = RotationGenerator("notskew", np.array([[0.0, 1.0], [1.0, 0.0]]))
    arr = Arrangement(2, (Subspace.from_spanning("L", [[1.0, 0.0]], 2),))
    with pytest.raises(PreconditionError):
        bad.validate(arr)
    # a genuine rotation does not preserve a single line
    with pytest.raises(PreconditionError):
        ROT2.validate(arr)


def test_generator_exponential_preserves_subspaces():
    sys = NBodySystem(3, 2, (1 / 3, 1 / 3, 1 / 3), reduce_cm=True)
    arr = build_arrangement(sys)
    gen = rotation_generator(sys)
    rng = np.random.default_rng(2)
    for t in (1e-3, 1e-2):
        g = scipy.linalg.expm(t * gen.xi)
        for sub in arr.subspaces:
            for _ in range(5):
                q = sub.project(rng.normal(size=4))
                moved = g @ q
                assert sub.distance_to(moved) < 10 * t * t * max(
                    1.0, float(np.linalg.norm(q)))


def test_conservation_on_solver_output(twolines_arr):
    result = minimize(twolines_arr, Itinerary((0, 1)), TWOLINE_A, TWOLINE_B)
    report = conservation_report(twolines_arr, result.trajectory, [])
    # L_tr = {0} here so linear momentum is trivially constant (zero)
    assert report.max_linear_deviation < 1e-12


def test_conservation_mirror_tangential(mirror_arr):
    result = minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 1.0])
    report = conservation_report(mirror_arr, result.trajectory, [])
    # the core is the mirror line itself: tangential momentum is conserved
    assert report.max_linear_deviation < 1e-10


def test_conservation_nbody_with_rotation():
    sys = NBodySystem(3, 2, (1 / 3, 1 / 3, 1 / 3), reduce_cm=True)
    arr = build_arrangement(sys)
    gen = rotation_generator(sys)
    itin = Itinerary.from_labels(arr, ["D12", "D13"])
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        A = rng.normal(size=4) * 2
        B = rng.normal(size=4) * 2
        try:
            result = minimize(arr, itin, A, B)
        except Exception:
            continue
        if not result.is_valid:
            continue
        report = conservation_report(arr, result.trajectory, [gen])
        scale = max(float(np.linalg.norm(result.chain.points)), 1.0)
        assert report.max_angular_jump < 1e-9 * scale
        assert report.max_linear_deviation < 1e-10
        checked += 1
        if checked >= 5:
            break
    assert checked >= 3


def test_corrupted_trajectory_flagged():
    sys = NBodySystem(3, 2, (1 / 3, 1 / 3, 1 / 3), reduce_cm=True)
    arr = build_arrangement(sys)
    gen = rotation_generator(sys)
    itin = Itinerary.from_labels(arr, ["D12", "D13"])
    rng = np.random.default_rng(4)
    while True:
        A = rng.normal(size=4) * 2
        B = rng.normal(size=4) * 2
        try:
            result = minimize(arr, itin, A, B)
        except Exception:
            continue
        if result.is_valid:
            break
    pts = result.chain.points.copy()
    pts[0] = arr.subspaces[itin[0]].project(pts[0] + 0.3 * arr.subspaces[itin[0]].basis[0])
    bad = BilliardTrajectory(A, B, pts, itin)
    report = conservation_report(arr, bad, [gen])
    assert report.max_angular_jump > 1e-6


def test_report_csv(tmp_path, mirror_arr):
    result = minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 1.0])
    report = conservation_report(mirror_arr, result.trajectory, [])
    out = tmp_path / "report.csv"
    report_to_csv(report, [], out)
    text = out.read_text()
    assert "max_linear_deviation" in text


def test_generators_json():
    gens = generators_from_json([{"name": "r", "xi": [[0.0, 1.0], [-1.0, 0.0]]}])
    assert gens[0].name == "r"
    assert gens[0].skew_defect() == 0.0
