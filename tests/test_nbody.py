import math

import numpy as np
import pytest

from linbilliards.arrangement import Itinerary
import linbilliards.nbody as nbody
from linbilliards.errors import InputError, PreconditionError
from linbilliards.nbody import (
    MASSES_THIRD,
    NBodySystem,
    V_MINUS,
    W_NORM,
    build_arrangement,
    cross_validate_slice,
    slice_to_csv,
    three_body_slice,
)
from linbilliards.symmetry import conservation_report


def test_two_bodies_on_line():
    sys = NBodySystem(2, 1, (1.0, 1.0))
    arr = build_arrangement(sys)
    sub = arr.subspaces[0]
    assert np.allclose(np.abs(sub.basis), [[1, 1]] / np.sqrt(2), atol=1e-12)
    assert sub.sigma == pytest.approx(math.sqrt(2), abs=1e-14)


def test_three_bodies_reduced_dimensions():
    sys = NBodySystem(3, 2, MASSES_THIRD, reduce_cm=True)
    arr = build_arrangement(sys)
    assert arr.dim == 4
    assert len(arr.subspaces) == 3
    assert all(s.codim == 2 for s in arr.subspaces)


def test_bad_masses_rejected():
    with pytest.raises(InputError):
        NBodySystem(2, 1, (1.0, -1.0))
    with pytest.raises(InputError):
        NBodySystem(1, 1, (1.0,))


def test_embedding_isometry():
    rng = np.random.default_rng(0)
    sys = NBodySystem(4, 3, (0.3, 1.0, 2.5, 0.7))
    for _ in range(1000):
        v = rng.normal(size=(4, 3))
        assert abs(sys.mass_norm(v) ** 2
                   - float(np.dot(sys.embed(v), sys.embed(v)))) < 1e-12 * max(
                       1.0, sys.mass_norm(v) ** 2)


def test_embedding_round_trip():
    rng = np.random.default_rng(1)
    sys = NBodySystem(3, 2, (0.5, 1.5, 2.0))
    for _ in range(20):
        q = rng.normal(size=(3, 2))
        assert np.allclose(sys.unembed(sys.embed(q)), q, atol=1e-12)


def test_reduced_round_trip_zero_momentum():
    rng = np.random.default_rng(2)
    sys = NBodySystem(3, 2, MASSES_THIRD, reduce_cm=True)
    for _ in range(20):
        q = rng.normal(size=(3, 2))
        q -= np.mean(q, axis=0)  # equal masses: zero CM
        back = sys.unembed(sys.embed(q))
        assert np.allclose(back, q, atol=1e-12)


def test_sigma_distance_identity():
    rng = np.random.default_rng(3)
    sys = NBodySystem(3, 2, (0.5, 1.5, 2.0))
    arr = build_arrangement(sys)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for _ in range(1000):
        q = rng.normal(size=(3, 2)) * 3
        x = sys.embed(q)
        for (a, b), sub in zip(pairs, arr.subspaces):
            r_ab = float(np.linalg.norm(q[a] - q[b]))
            assert abs(r_ab - sys.pair_sigma(a, b) * sub.distance_to(x)) < 1e-12 * max(
                1.0, r_ab)


def test_incoming_velocities_unit_energy():
    v = np.array([[z.real, z.imag] for z in V_MINUS])
    sys = NBodySystem(3, 2, MASSES_THIRD)
    assert sys.mass_norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(sys.total_momentum(v), 0.0, atol=1e-14)


def test_w_norm_value():
    # |v1 - v2| / 2 with the equally spaced unit-energy velocities
    assert W_NORM == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


def test_slice_conservation():
    phi = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    psi = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    s = three_body_slice(phi, psi)
    assert s.max_conservation_residual() < 1e-12


def test_slice_internal_flags():
    # aim w exactly along (v1 - v2)/2: the first collision is a pass-through
    v1, v2 = V_MINUS[0], V_MINUS[1]
    phi_internal = float(np.angle(v1 - v2))
    s = three_body_slice([phi_internal], [0.3])
    assert bool(s.internal[0, 0])
    s2 = three_body_slice([phi_internal + 0.5], [0.3])
    assert not bool(s2.internal[0, 0])


def test_slice_csv(tmp_path):
    s = three_body_slice(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    out = tmp_path / "slice.csv"
    slice_to_csv(s, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("phi,psi,branch")
    assert len(lines) == 10


def test_cross_validation_against_solver():
    phi = np.linspace(0, 2 * math.pi, 17, endpoint=False)
    psi = np.linspace(0, 2 * math.pi, 17, endpoint=False)
    s = three_body_slice(phi, psi)
    report = cross_validate_slice(s, sample_budget=40, seed=5)
    assert report.checked >= 30
    assert report.max_reflection_residual < 1e-10
    assert report.max_chain_deviation < 1e-7


def test_diagonal_rotation_conserved_on_slice_trajectories():
    sys = NBodySystem(3, 2, MASSES_THIRD, reduce_cm=True)
    arr = build_arrangement(sys)
    gen = sys.rotation_generator()
    gen.validate(arr)
    itin = Itinerary.from_labels(arr, ["D12", "D13"])
    s = three_body_slice([0.4, 1.9], [0.7, 2.6])
    from linbilliards.nbody import _complex_to_config
    from linbilliards.trajectory import BilliardTrajectory
    for i in range(2):
        for j in range(2):
            v_minus = _complex_to_config(V_MINUS)
            v_mid = _complex_to_config(s.v_mid[i])
            v_plus = _complex_to_config(s.v_plus[i, j])
            p = -(1.0 / 3.0) * (v_mid[0] - v_mid[2])
            x1 = np.array([p, p, -2.0 * p])
            x2 = x1 + v_mid
            traj = BilliardTrajectory(sys.embed(x1 - v_minus),
                                      sys.embed(x2 + v_plus),
                                      np.array([sys.embed(x1), sys.embed(x2)]),
                                      itin)
            report = conservation_report(arr, traj, [gen])
            assert report.max_angular_jump < 1e-9


def test_slice_rejects_velocities_with_momentum(monkeypatch):
    # the slice relies on zero total incoming momentum; the check must raise
    # a package error rather than an assert that python -O strips
    monkeypatch.setattr(nbody, "V_MINUS", V_MINUS + 0.1)
    with pytest.raises(PreconditionError):
        three_body_slice([0.3], [0.7])
