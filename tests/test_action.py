import math
import zlib

import numpy as np
import pytest
import scipy.linalg

from linbilliards.action import (Chain, _edge_lengths, _edge_terms, _stacked, action, gradient,
                                 hessian, preconditioned_P)
from linbilliards.arrangement import Arrangement, Itinerary, Subspace
from linbilliards.errors import NonSmoothPoint

from conftest import fd_gradient, fd_hessian, grad_tol, random_smooth_chain, stacked_reference


def test_action_total_collision(origin_arr):
    ch = Chain.from_points(origin_arr, Itinerary((0,)), [[0.0, 0.0]])
    assert action([3.0, 0.0], ch.points, [0.0, 4.0]) == pytest.approx(7.0, abs=1e-15)


def test_action_mirror(mirror_arr):
    ch = Chain.from_points(mirror_arr, Itinerary((0,)), [[1.0, 0.0]])
    assert action([0.0, 1.0], ch.points, [2.0, 1.0]) == pytest.approx(
        2 * math.sqrt(2), abs=1e-15)


def test_action_zaxis():
    arr = Arrangement(3, (Subspace.from_spanning("Lz", [[0, 0, 1.0]], 3),))
    ch = Chain.from_points(arr, Itinerary((0,)), [[0.0, 0.0, 0.0]])
    assert action([1.0, 0, 0], ch.points, [0, 1.0, 0]) == pytest.approx(2.0, abs=1e-15)


def test_action_triangle_inequality(twolines_arr):
    rng = np.random.default_rng(5)
    it = Itinerary((0, 1))
    for _ in range(50):
        A, B = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        ch = random_smooth_chain(twolines_arr, it, A, B, rng)
        assert action(A, ch.points, B) >= np.linalg.norm(A - B) - 1e-12


def test_gradient_zero_at_mirror_minimizer(mirror_arr):
    it = Itinerary((0,))
    ch = Chain.from_points(mirror_arr, it, [[1.0, 0.0]])
    blocks = gradient(mirror_arr, it, [0.0, 1.0], ch, [2.0, 1.0])
    assert abs(blocks[0][0]) < 1e-15


def test_gradient_value_off_minimizer(mirror_arr):
    it = Itinerary((0,))
    ch = Chain.from_points(mirror_arr, it, [[0.0, 0.0]])
    # steepest ascent along the axis: <(0,-1) - (2,1)/sqrt(5), e1>
    blocks = gradient(mirror_arr, it, [0.0, 1.0], ch, [2.0, 1.0])
    assert blocks[0][0] == pytest.approx(-2 / math.sqrt(5), abs=1e-14)
    # with B = (1,1) the same formula gives -1/sqrt(2)
    blocks = gradient(mirror_arr, it, [0.0, 1.0], ch, [1.0, 1.0])
    assert blocks[0][0] == pytest.approx(-1 / math.sqrt(2), abs=1e-14)


def test_gradient_nonsmooth_raises(twolines_arr):
    it = Itinerary((0, 1))
    ch = Chain.from_points(twolines_arr, it, [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NonSmoothPoint):
        gradient(twolines_arr, it, [1.0, 2.0], ch, [2.0, 1.0])


@pytest.mark.parametrize("fixture_name,itinerary", [
    ("twolines_arr", (0, 1)),
    ("lines3d_arr", (0, 1, 0)),
    ("planes4d_arr", (0, 1, 0, 1)),
    ("fourbody_arr", (0, 1, 2)),
])
def test_gradient_matches_finite_differences(request, fixture_name, itinerary):
    arr = request.getfixturevalue(fixture_name)
    it = Itinerary(itinerary)
    rng = np.random.default_rng(zlib.crc32(fixture_name.encode()))
    A = rng.normal(size=arr.dim) * 2
    B = rng.normal(size=arr.dim) * 2
    for _ in range(40):
        ch = random_smooth_chain(arr, it, A, B, rng)
        g = np.concatenate(gradient(arr, it, A, ch, B))
        gf = fd_gradient(arr, it, A, ch, B)
        denom = max(1.0, float(np.max(np.abs(gf))))
        assert np.max(np.abs(g - gf)) / denom < 1e-6


@pytest.mark.parametrize("fixture_name,itinerary", [
    ("twolines_arr", (0, 1)),
    ("lines3d_arr", (0, 1)),
    ("planes4d_arr", (0, 1, 0)),
    ("fourbody_arr", (0, 1)),
])
def test_hessian_matches_finite_differences(request, fixture_name, itinerary):
    arr = request.getfixturevalue(fixture_name)
    it = Itinerary(itinerary)
    rng = np.random.default_rng(zlib.crc32(fixture_name.encode()))
    A = rng.normal(size=arr.dim) * 2
    B = rng.normal(size=arr.dim) * 2
    for _ in range(20):
        ch = random_smooth_chain(arr, it, A, B, rng)
        H = hessian(arr, it, A, ch, B).matrix
        Hf = fd_hessian(arr, it, A, ch, B)
        assert np.linalg.norm(H - Hf) / max(1.0, np.linalg.norm(Hf)) < 1e-5


@pytest.mark.parametrize("fixture_name", ["planes4d_arr", "fourbody_arr"])
def test_gram_is_the_block_diagonal_of_the_vertex_grams(request, fixture_name):
    arr = request.getfixturevalue(fixture_name)
    it = Itinerary((0, 1, 0))
    rng = np.random.default_rng(5)
    A = rng.normal(size=arr.dim) * 2
    B = rng.normal(size=arr.dim) * 2
    model = hessian(arr, it, A, random_smooth_chain(arr, it, A, B, rng), B)
    assert np.array_equal(model.gram(), scipy.linalg.block_diag(*model.norm_grams()))


def test_hessian_mirror_value(mirror_arr):
    it = Itinerary((0,))
    ch = Chain.from_points(mirror_arr, it, [[1.0, 0.0]])
    model = hessian(mirror_arr, it, [0.0, 1.0], ch, [2.0, 1.0])
    # d2 of sqrt(x^2+1) + sqrt((2-x)^2+1) at x = 1
    assert model.matrix[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert model.betas[0] == pytest.approx(math.sqrt(2), abs=1e-14)
    # both tangential projections give (1/sqrt(2)) e1
    assert np.allclose(model.a_in[0], [1 / math.sqrt(2), 0.0], atol=1e-14)
    assert model.a_consistency() < 1e-14
    assert model.min_eigenvalue() == pytest.approx(math.sqrt(2), abs=1e-12)


def test_hessian_symmetric(planes4d_arr):
    rng = np.random.default_rng(9)
    it = Itinerary((0, 1, 0))
    A = rng.normal(size=4) * 2
    B = rng.normal(size=4) * 2
    ch = random_smooth_chain(planes4d_arr, it, A, B, rng)
    model = hessian(planes4d_arr, it, A, ch, B)
    assert model.symmetry_defect() < 1e-14


def _solved_model(arr, itinerary, A, B):
    from linbilliards.solver import minimize
    with grad_tol(1e-14):
        result = minimize(arr, itinerary, A, B)
    assert result.is_valid
    return hessian(arr, itinerary, A, result.chain, B), result


def test_structured_form_at_solution(twolines_arr):
    from conftest import TWOLINE_A, TWOLINE_B
    it = Itinerary((0, 1))
    model, _ = _solved_model(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    # tangential projections agree at critical points
    assert model.a_consistency() < 1e-9
    # |a_i| < 1 at generic critical points
    assert all(np.linalg.norm(a) < 1.0 for a in model.a_in)
    # M is block-tridiagonal with beta_i identity diagonal blocks
    M = model.tridiagonal()
    assert M[0, 0] == pytest.approx(model.betas[0], rel=1e-9)
    assert M[1, 1] == pytest.approx(model.betas[1], rel=1e-9)
    # coupling operators are contractions in the vertex norms
    assert model.coupling_opnorm(0, 1) <= 1.0 + 1e-9
    assert model.coupling_opnorm(1, 0) <= 1.0 + 1e-9
    # positive definite
    assert model.min_eigenvalue() > 0.0


def _sqrtm_coupling_opnorm(model, i, j):
    """Reference |G_i^{1/2} S_ij G_j^{-1/2}| through scipy's matrix square root
    and an explicit inverse."""
    grams = model.norm_grams()
    root_i = scipy.linalg.sqrtm(grams[i]).real
    root_j = scipy.linalg.sqrtm(grams[j]).real
    return float(np.linalg.norm(root_i @ model.coupling(i, j) @ np.linalg.inv(root_j), 2))


@pytest.mark.parametrize("fixture_name,itinerary", [
    ("twolines_arr", (0, 1)),
    ("lines3d_arr", (0, 1, 0)),
    ("planes4d_arr", (0, 1, 0, 1)),
    ("fourbody_arr", (0, 1, 2)),
])
def test_coupling_opnorm_matches_the_matrix_square_root(request, fixture_name, itinerary):
    """The closed-form G^{-1/2} gives the coupling norms of the sqrtm route,
    at solved chains and at random smooth ones."""
    from conftest import TWOLINE_A, TWOLINE_B
    arr = request.getfixturevalue(fixture_name)
    it = Itinerary(itinerary)
    rng = np.random.default_rng(zlib.crc32(fixture_name.encode()))
    models = []
    for _ in range(5):
        A = rng.normal(size=arr.dim) * 3
        B = rng.normal(size=arr.dim) * 3
        models.append(hessian(arr, it, A, random_smooth_chain(arr, it, A, B, rng), B))
    if fixture_name == "twolines_arr":
        models.append(_solved_model(arr, it, TWOLINE_A, TWOLINE_B)[0])
    for model in models:
        for i in range(len(it) - 1):
            for a, b in ((i, i + 1), (i + 1, i)):
                assert model.coupling_opnorm(a, b) == pytest.approx(
                    _sqrtm_coupling_opnorm(model, a, b), rel=1e-14, abs=0.0)


def test_preconditioned_weights_and_spectrum(twolines_arr):
    from conftest import TWOLINE_A, TWOLINE_B
    it = Itinerary((0, 1))
    model, _ = _solved_model(twolines_arr, it, TWOLINE_A, TWOLINE_B)
    pre = preconditioned_P(model)
    assert np.max(np.abs(pre.weight_a + pre.weight_b - 1.0)) < 1e-14
    assert pre.spectral_radius() < 1.0
    # structural form of the coupling matrix at the (numerically) critical
    # point: zero diagonal blocks, weighted contraction operators off them
    assert abs(pre.A[0, 0]) < 1e-12 and abs(pre.A[1, 1]) < 1e-12
    assert pre.A[0, 1] == pytest.approx(
        float(pre.weight_b[0] * model.coupling(0, 1)[0, 0]), abs=1e-11)
    assert pre.A[1, 0] == pytest.approx(
        float(pre.weight_a[1] * model.coupling(1, 0)[0, 0]), abs=1e-11)


def test_preconditioned_k1_identity(mirror_arr):
    it = Itinerary((0,))
    ch = Chain.from_points(mirror_arr, it, [[1.0, 0.0]])
    model = hessian(mirror_arr, it, [0.0, 1.0], ch, [2.0, 1.0])
    pre = preconditioned_P(model)
    assert np.allclose(pre.P, np.eye(1), atol=1e-12)
    assert np.allclose(pre.A, 0.0, atol=1e-12)


def test_spectral_radius_random_solutions(planes4d_arr):
    from linbilliards.solver import minimize
    rng = np.random.default_rng(33)
    it = Itinerary((0, 1))
    found = 0
    for _ in range(60):
        A = rng.normal(size=4) * 2
        B = rng.normal(size=4) * 2
        try:
            result = minimize(planes4d_arr, it, A, B)
        except Exception:
            continue
        if not result.is_valid:
            continue
        model = hessian(planes4d_arr, it, A, result.chain, B)
        pre = preconditioned_P(model)
        assert pre.spectral_radius() < 1.0
        assert model.min_eigenvalue() > 0.0
        found += 1
        if found >= 10:
            break
    assert found >= 5


@pytest.mark.parametrize("dim", [2, 4, 6, 9])
def test_stacked_matches_the_fancy_index_form(dim):
    """_stacked writes its blocks at the flat positions of one layout per
    (k, m): the same gradient and Hessian bits as three fancy-index block
    assignments, over chain bases of every m (0 included), over the wall
    polish's tangent projectors, from the kernel's own edge terms and with a
    given, non-contiguous bases_t."""
    rng = np.random.default_rng(300 + dim)
    for k in range(1, 7):
        for m in list(range(dim)) + [dim]:
            bases = rng.normal(size=(k, m, dim))
            if m == dim:
                # tangent projectors I - n n^T of unit normals n
                n = rng.normal(size=(k, dim))
                n /= np.linalg.norm(n, axis=1)[:, None]
                bases = np.eye(dim) - n[:, :, None] * n[:, None, :]
            pts = rng.normal(size=(k + 2, dim)) * 10.0 ** rng.uniform(-3, 3)
            _, _, grad, diag, off = _edge_terms(*_edge_lengths(pts, rng.uniform() ** 4))
            for bases_t in (None, np.ascontiguousarray(bases.transpose(0, 2, 1))):
                got = _stacked(bases, grad, diag, off, bases_t)
                want = stacked_reference(bases, grad, diag, off, bases_t)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            sliced = rng.normal(size=(2 * k, m, dim))[::2]
            got = _stacked(sliced, grad, diag, off, sliced.transpose(0, 2, 1))
            assert all(np.array_equal(a, b) for a, b in
                       zip(got, stacked_reference(sliced, grad, diag, off)))
