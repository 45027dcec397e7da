import copy
import dataclasses
import math

import numpy as np
import pytest

from linbilliards.arrangement import Itinerary
from linbilliards.errors import InputError, MaxIterations, PreconditionError
from linbilliards.scattering import (
    AnchorGrid,
    RelationSample,
    _predicted_chain,
    lagrangian_residual,
    legendrian_theta_residual,
    patch_to_csv,
    reduce_line,
    sample_relation,
)
from linbilliards.solver import Classification, minimize
from linbilliards.trajectory import BilliardTrajectory, is_generic, max_reflection_residual

from conftest import TWOLINE_A, TWOLINE_B, fourbody, lines_close, planes3d, scale_action


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_reduce_examples():
    line = reduce_line([0.0, 1.0], [1.0, 0.0])
    assert np.allclose(line.Q, [0.0, 1.0], atol=1e-14)
    same = reduce_line([5.0, 1.0], [1.0, 0.0])
    assert lines_close(same, line, tol=1e-12)
    zero = reduce_line([3.0, 0.0], [-1.0, 0.0])
    assert np.allclose(zero.Q, [0.0, 0.0], atol=1e-14)
    with pytest.raises(InputError):
        reduce_line([0.0, 1.0], [2.0, 0.0])


@pytest.mark.usefixtures("tight")
def test_total_collision_patch_zero_sections(origin_arr):
    grid_A = AnchorGrid(np.array([3.0, 0.0]), np.eye(2), 1, 1e-2)
    grid_B = AnchorGrid(np.array([0.0, 4.0]), np.eye(2), 1, 1e-2)
    patch = sample_relation(origin_arr, Itinerary((0,)), grid_A, grid_B)
    assert patch.valid_fraction() == 1.0
    for s in patch.samples.values():
        assert np.linalg.norm(s.ell_minus.Q) < 1e-10
        assert np.linalg.norm(s.ell_plus.Q) < 1e-10


@pytest.mark.usefixtures("tight")
def test_mirror_patch_dense(mirror_arr):
    grid_A = AnchorGrid(np.array([0.0, 1.0]), np.eye(2), 1, 1e-3)
    grid_B = AnchorGrid(np.array([2.0, 1.0]), np.eye(2), 1, 1e-3)
    patch = sample_relation(mirror_arr, Itinerary((0,)), grid_A, grid_B)
    assert patch.valid_fraction() == 1.0


@pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -1e-3])
def test_anchor_grid_needs_a_finite_positive_spacing(spacing):
    with pytest.raises(InputError):
        AnchorGrid(np.array([0.0, 1.0]), np.eye(2), 1, spacing)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_anchor_grid_needs_a_finite_base_and_axes(bad):
    with pytest.raises(InputError):
        AnchorGrid(np.array([bad, 1.0]), np.eye(2), 1, 1e-3)
    with pytest.raises(InputError):
        AnchorGrid(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, bad]]), 1, 1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_free_motion_refuses_non_finite_anchors(mirror_arr, bad):
    """A non-finite anchor of free motion, the empty itinerary, is refused
    as every solve refuses it, not solved as a valid line of NaNs."""
    for A, B in (([bad, 1.0], [2.0, 1.0]), ([0.0, 1.0], [2.0, bad])):
        with pytest.raises(InputError):
            minimize(mirror_arr, Itinerary(()), A, B)


def test_unrealizable_selection_gives_empty_patch(twolines_arr):
    # a four-collision itinerary over lines at pi/3 has interior angle sum pi
    itin = Itinerary((0, 1, 0, 1))
    grid_A = AnchorGrid(np.array([3.0, 1.0]), np.eye(2), 1, 1e-2)
    grid_B = AnchorGrid(np.array([1.0, 3.0]), np.eye(2), 1, 1e-2)
    patch = sample_relation(twolines_arr, itin, grid_A, grid_B)
    assert patch.valid_fraction() == 0.0
    with pytest.raises(InputError):
        lagrangian_residual(patch)
    with pytest.raises(InputError):
        legendrian_theta_residual(patch)


@pytest.mark.usefixtures("tight")
def test_lagrangian_residual_mirror_small(mirror_arr):
    grid_A = AnchorGrid(np.array([0.3, 1.1]), rot2(0.37), 2, 1e-3)
    grid_B = AnchorGrid(np.array([2.1, 0.9]), rot2(-0.59), 2, 1e-3)
    patch = sample_relation(mirror_arr, Itinerary((0,)), grid_A, grid_B)
    assert lagrangian_residual(patch) < 1e-6


@pytest.mark.usefixtures("tight")
def test_lagrangian_residual_second_order(mirror_arr):
    residuals = {}
    for h in (2e-2, 1e-2, 5e-3):
        grid_A = AnchorGrid(np.array([0.3, 1.1]), rot2(0.37), 1, h)
        grid_B = AnchorGrid(np.array([2.1, 0.9]), rot2(-0.59), 1, h)
        patch = sample_relation(mirror_arr, Itinerary((0,)), grid_A, grid_B)
        residuals[h] = lagrangian_residual(patch)
    hs = sorted(residuals, reverse=True)
    slope = np.polyfit(np.log(hs), np.log([residuals[h] for h in hs]), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


@pytest.mark.usefixtures("tight")
def test_lagrangian_residual_total_collision(origin_arr):
    grid_A = AnchorGrid(np.array([3.0, 0.2]), rot2(0.2), 1, 1e-3)
    grid_B = AnchorGrid(np.array([0.1, 4.0]), rot2(0.9), 1, 1e-3)
    patch = sample_relation(origin_arr, Itinerary((0,)), grid_A, grid_B)
    assert lagrangian_residual(patch) < 1e-6


def test_free_motion_identity_relation(origin_arr):
    grid_A = AnchorGrid(np.array([0.0, 1.0]), rot2(0.3), 1, 1e-3)
    grid_B = AnchorGrid(np.array([2.0, 3.0]), rot2(-0.2), 1, 1e-3)
    patch = sample_relation(origin_arr, Itinerary(()), grid_A, grid_B)
    assert patch.valid_fraction() == 1.0
    assert lagrangian_residual(patch) < 1e-6
    assert legendrian_theta_residual(patch) < 1e-6
    # axis-aligned symmetric stencils make the truncation cancel entirely
    aligned = sample_relation(origin_arr, Itinerary(()),
                              AnchorGrid(np.array([0.0, 1.0]), np.eye(2), 1, 1e-3),
                              AnchorGrid(np.array([2.0, 3.0]), np.eye(2), 1, 1e-3))
    assert lagrangian_residual(aligned) < 1e-12


def test_free_motion_patch_marks_refused_cells_absent(mirror_arr):
    """In a free-motion patch a cell with A = B (one edge of length zero, a
    ghost) and a cell with an anchor on the mirror (refused by the solve)
    are absent; the rest of the grid is sampled."""
    grid = AnchorGrid(np.array([0.0, 1.0]), np.eye(2), 1, 1.0)
    patch = sample_relation(mirror_arr, Itinerary(()), grid, grid)
    assert patch.sample((0, 0), (0, 0)) is None
    assert patch.sample((0, -1), (1, 0)) is None
    assert patch.sample((0, 0), (1, 0)) is not None


def test_free_motion_rejects_lines_through_locus(mirror_arr):
    """Free motion, the empty itinerary, is NonGenericRay where the full line
    through its anchors meets the mirror (here behind A) and valid where it
    misses it.  The ray rule is relative to the anchors' scale, as every
    membership test of a solve is, so this holds for the lines scaled by lam
    = 1e-150 ... 1e150."""
    for lam in (10.0 ** e for e in range(-150, 151, 10)):
        crossing = minimize(mirror_arr, Itinerary(()), [0.0, lam], [2.0 * lam, 3.0 * lam])
        assert crossing.classification is Classification.NON_GENERIC_RAY
        parallel = minimize(mirror_arr, Itinerary(()), [0.0, lam], [2.0 * lam, lam])
        assert parallel.is_valid and parallel.value == 2.0 * lam
        assert parallel.trajectory.k == 0 and parallel.iterations == 0


@pytest.mark.usefixtures("tight")
def test_legendrian_residual_two_lines(twolines_arr):
    itin = Itinerary((0, 1))
    grid_A = AnchorGrid(TWOLINE_A, rot2(0.21), 2, 5e-4)
    grid_B = AnchorGrid(TWOLINE_B, rot2(-0.43), 2, 5e-4)
    patch = sample_relation(twolines_arr, itin, grid_A, grid_B)
    assert patch.valid_fraction() > 0.9
    assert legendrian_theta_residual(patch) < 1e-5


def test_legendrian_requires_long_itinerary(mirror_arr):
    grid_A = AnchorGrid(np.array([0.0, 1.0]), np.eye(2), 1, 1e-3)
    grid_B = AnchorGrid(np.array([2.0, 1.0]), np.eye(2), 1, 1e-3)
    patch = sample_relation(mirror_arr, Itinerary((0,)), grid_A, grid_B)
    with pytest.raises(PreconditionError):
        legendrian_theta_residual(patch)


def test_scale_action_mirror(mirror_arr):
    result = minimize(mirror_arr, Itinerary((0,)), [0.0, 1.0], [2.0, 1.0])
    sample = RelationSample.from_result(result, [0.0, 1.0], [2.0, 1.0])
    scaled = scale_action(sample, 2.0)
    assert np.allclose(scaled.chain_points, [[2.0, 0.0]], atol=1e-10)
    assert scaled.value == pytest.approx(4 * math.sqrt(2), abs=1e-10)
    assert np.allclose(scaled.vA, sample.vA)
    traj = BilliardTrajectory(scaled.A, scaled.B, scaled.chain_points, Itinerary((0,)))
    assert max_reflection_residual(mirror_arr, traj) <= 1e-9
    assert is_generic(mirror_arr, scaled.A, scaled.chain_points, scaled.B, Itinerary((0,)))
    with pytest.raises(InputError):
        scale_action(sample, 0.0)


@pytest.mark.usefixtures("tight")
def test_scale_action_resolve_cross_check(twolines_arr):
    itin = Itinerary((0, 1))
    result = minimize(twolines_arr, itin, TWOLINE_A, TWOLINE_B)
    sample = RelationSample.from_result(result, TWOLINE_A, TWOLINE_B)
    for lam in (0.5, 2.0, 7.0):
        scaled = scale_action(sample, lam)
        re_solved = minimize(twolines_arr, itin, scaled.A, scaled.B)
        assert re_solved.is_valid
        tol = 1e-9 * max(1.0, lam * float(np.linalg.norm(TWOLINE_A - TWOLINE_B)))
        assert np.max(np.abs(re_solved.chain.points - scaled.chain_points)) < tol


def test_scaling_limit_shrinks_chain(twolines_arr):
    itin = Itinerary((0, 1))
    result = minimize(twolines_arr, itin, TWOLINE_A, TWOLINE_B)
    sample = RelationSample.from_result(result, TWOLINE_A, TWOLINE_B)
    norms = [float(np.max(np.linalg.norm(scale_action(sample, lam).chain_points, axis=1)))
             for lam in (1.0, 0.1, 0.01, 0.001)]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-2


@pytest.mark.usefixtures("tight")
def test_graph_property_ray_representatives(twolines_arr):
    # anchors sliding along their rays yield the same chain
    itin = Itinerary((0, 1))
    result = minimize(twolines_arr, itin, TWOLINE_A, TWOLINE_B)
    sample = RelationSample.from_result(result, TWOLINE_A, TWOLINE_B)
    A2 = sample.A + 0.3 * sample.vA
    B2 = sample.B + 0.4 * sample.vB
    again = minimize(twolines_arr, itin, A2, B2)
    assert again.is_valid
    assert np.max(np.abs(again.chain.points - result.chain.points)) < 1e-9
    s2 = RelationSample.from_result(again, A2, B2)
    assert lines_close(s2.ell_minus, sample.ell_minus, tol=1e-9)
    assert lines_close(s2.ell_plus, sample.ell_plus, tol=1e-9)


def test_sampled_directions_unit(twolines_arr):
    grid_A = AnchorGrid(TWOLINE_A, np.eye(2), 1, 1e-3)
    grid_B = AnchorGrid(TWOLINE_B, np.eye(2), 1, 1e-3)
    patch = sample_relation(twolines_arr, Itinerary((0, 1)), grid_A, grid_B)
    for s in patch.samples.values():
        if s is None:
            continue
        assert abs(np.linalg.norm(s.vA) - 1.0) < 1e-12
        assert abs(np.linalg.norm(s.vB) - 1.0) < 1e-12


def test_patch_csv(tmp_path, mirror_arr):
    grid_A = AnchorGrid(np.array([0.0, 1.0]), np.eye(2), 1, 1e-2)
    grid_B = AnchorGrid(np.array([2.0, 1.0]), np.eye(2), 1, 1e-2)
    patch = sample_relation(mirror_arr, Itinerary((0,)), grid_A, grid_B)
    out = tmp_path / "patch.csv"
    patch_to_csv(patch, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 81  # header + 9 * 9 cells
    assert lines[0].startswith("status,A_0")


def test_patch_csv_writes_an_absent_row(tmp_path, mirror_arr):
    """An absent cell is a row of its status and anchors, with every
    direction, foot point and length field empty."""
    grid_A = AnchorGrid(np.array([0.0, 1.0]), np.eye(2), 0, 1e-2)
    grid_B = AnchorGrid(np.array([2.0, 1.0]), np.eye(2), 0, 1e-2)
    patch = sample_relation(mirror_arr, Itinerary((0,)), grid_A, grid_B)
    patch.samples[((0, 0), (0, 0))] = None
    out = tmp_path / "patch.csv"
    patch_to_csv(patch, out)
    lines = out.read_text().splitlines()
    assert lines[1] == "absent,0,1,2,1" + "," * (4 * 2 + 1)



def _cold_cells(arr, itinerary, grid_A, grid_B):
    """Reference patch: every cell solved on its own from the chord start."""
    cells = {}
    for ia in grid_A.indices():
        for ib in grid_B.indices():
            A, B = grid_A.point(ia), grid_B.point(ib)
            try:
                result = minimize(arr, itinerary, A, B)
            except (InputError, PreconditionError):
                result = None
            cells[(ia, ib)] = (RelationSample.from_result(result, A, B)
                               if result is not None and result.is_valid else None)
    return cells


def _assert_samples_close(got, ref, tol):
    for field in ("vA", "vB", "chain_points"):
        assert np.abs(getattr(got, field) - getattr(ref, field)).max() <= tol
    for line in ("ell_minus", "ell_plus"):
        assert np.abs(getattr(got, line).Q - getattr(ref, line).Q).max() <= tol
    assert abs(got.value - ref.value) <= tol


# B beyond TWOLINE_B + (2.2, 0) gives ghosts at TWOLINE_A; this grid's inner
# B axis runs along x across that edge, so each row leaves the valid region
# and re-enters it
GHOST_EDGE_B = TWOLINE_B + np.array([2.18, 0.0])

ROW_WALK_GRIDS = {
    # inside the valid region: after its first cell every row is warm
    "interior": (AnchorGrid(TWOLINE_A, rot2(0.21), 1, 5e-4),
                 AnchorGrid(TWOLINE_B, rot2(-0.43), 1, 5e-4)),
    # B walks along y = 1 onto the line L2 (x = 1/sqrt(3)), beyond which the
    # path is non-generic; the gate passes far from L2 and fails near it
    "line_crossing": (AnchorGrid(TWOLINE_A, [[math.cos(0.3), math.sin(0.3)]], 1, 2e-4),
                      AnchorGrid(np.array([1 / math.sqrt(3) - 0.0101, 1.0]),
                                 [[1.0, 0.0]], 60, 2e-4)),
    "ghost_edge": (AnchorGrid(TWOLINE_A, rot2(0.3), 1, 2e-2),
                   AnchorGrid(GHOST_EDGE_B, [[0.0, 1.0], [1.0, 0.0]], 2, 2e-2)),
}


@pytest.mark.parametrize("name", ROW_WALK_GRIDS)
def test_row_walk_matches_cold_cells(twolines_arr, name, monkeypatch):
    """Each cell after a valid one starts from the tangent prediction made
    at that cell of its A-row, each row's first cell from the prediction
    made at the base (the first row's first cell, solved cold), and each
    cell after an absent one cold; the patch matches cell-by-cell cold
    solves."""
    import linbilliards.scattering as scattering_module
    grid_A, grid_B = ROW_WALK_GRIDS[name]
    itin = Itinerary((0, 1))
    calls = []
    real = scattering_module.minimize

    def recording(arr, itinerary, A, B, initial_chain=None):
        calls.append((A, B, initial_chain, None))
        result = real(arr, itinerary, A, B, initial_chain)
        calls[-1] = (A, B, initial_chain, result)
        return result

    monkeypatch.setattr(scattering_module, "minimize", recording)
    patch = sample_relation(twolines_arr, itin, grid_A, grid_B)
    monkeypatch.undo()
    reference = _cold_cells(twolines_arr, itin, grid_A, grid_B)
    keys = list(reference)
    assert list(patch.samples) == keys
    n_b = len(list(grid_B.indices()))
    warm = 0
    for n, key in enumerate(keys):
        got, ref = patch.samples[key], reference[key]
        assert (got is None) == (ref is None), key
        if ref is not None:
            _assert_samples_close(got, ref, 1e-8)
        A, B, start, result = calls[n]
        assert np.array_equal(A, grid_A.point(key[0]))
        assert np.array_equal(B, grid_B.point(key[1]))
        # the cell the start is predicted from: the previous one in the row,
        # the base for a later row's first cell, none for the base itself
        source = None if n == 0 else n - 1 if n % n_b else 0
        before = None if source is None else calls[source]
        if before is None or patch.samples[keys[source]] is None:
            assert start is None
        else:
            predicted = _predicted_chain(before[3], before[0], before[1], A, B)
            assert not np.array_equal(predicted.points, before[3].chain.points)
            assert np.array_equal(start.points, predicted.points)
        warm += result is not None and result.iterations == 0
    assert len(calls) == len(reference)
    if name == "interior":
        assert patch.valid_fraction() == 1.0
        assert warm == len(calls) - 1
    elif name == "line_crossing":
        assert 0.0 < patch.valid_fraction() < 1.0
        assert 0 < warm < len(calls)
    else:
        assert 0.0 < patch.valid_fraction() < 1.0


def test_row_walk_does_not_depend_on_jobs(twolines_arr):
    itin = Itinerary((0, 1))
    grid_A, grid_B = ROW_WALK_GRIDS["ghost_edge"]
    one = sample_relation(twolines_arr, itin, grid_A, grid_B, jobs=1)
    two = sample_relation(twolines_arr, itin, grid_A, grid_B, jobs=2)
    assert list(one.samples) == list(two.samples)
    for key, s1 in one.samples.items():
        s2 = two.samples[key]
        assert (s1 is None) == (s2 is None)
        if s1 is not None:
            for field in ("vA", "vB", "chain_points"):
                assert getattr(s1, field).tobytes() == getattr(s2, field).tobytes()
            assert s1.value == s2.value


@pytest.mark.parametrize("fail_at", [0, 1, 7])
def test_a_solver_failure_is_not_an_absent_cell(twolines_arr, monkeypatch, fail_at):
    """MaxIterations in any cell, the cold base or a warm one, propagates out
    of sample_relation; only a refused input makes a cell absent."""
    import linbilliards.scattering as scattering_module
    real = scattering_module.minimize
    calls = []

    def failing(arr, itinerary, A, B, initial_chain=None):
        calls.append(A)
        if len(calls) > fail_at:
            raise MaxIterations("continuation ended without a polished minimizer")
        return real(arr, itinerary, A, B, initial_chain)

    monkeypatch.setattr(scattering_module, "minimize", failing)
    grid_A, grid_B = ROW_WALK_GRIDS["interior"]
    with pytest.raises(MaxIterations):
        sample_relation(twolines_arr, Itinerary((0, 1)), grid_A, grid_B)
    assert len(calls) == fail_at + 1


# valid solves on which the tangent predictor is checked: the two lines (k = 2
# and k = 1, where both anchor terms land on the one block), planes3d and the
# four-body table
PREDICTOR_CASES = {
    "twolines": ("twolines", (0, 1), TWOLINE_A, TWOLINE_B),
    "twolines_k1": ("twolines", (0,), TWOLINE_A, TWOLINE_B),
    "planes3d": ("planes3d", (0, 2, 1, 0), np.array([0.211, -1.861, -0.059]),
                 np.array([1.391, -2.688, -0.915])),
    "four_body": ("four_body", (0, 5, 1),
                  np.array([-0.378, 1.366, -0.133, 1.334, 2.877, -1.351, 0.406, -0.927, 0.255]),
                  np.array([-2.374, -1.159, -0.392, 1.798, 2.29, -2.647, -1.589, 1.294, -3.985])),
}


def _predictor_case(name, twolines_arr):
    """The case's table, itinerary, anchors and base solve; its callers run
    under the tight fixture."""
    table, itinerary, A, B = PREDICTOR_CASES[name]
    arr = {"twolines": twolines_arr, "planes3d": planes3d(), "four_body": fourbody()}[table]
    base = minimize(arr, Itinerary(itinerary), A, B)
    assert base.is_valid
    return arr, Itinerary(itinerary), A, B, base


@pytest.mark.parametrize("name", PREDICTOR_CASES)
@pytest.mark.usefixtures("tight")
def test_predicted_chain_is_second_order(twolines_arr, name):
    """The tangent prediction misses the solved chain by O(h^2) along a
    direction of anchor pairs (the unpredicted chain by O(h)), and the
    tangent dq/dx = -H_qq^{-1} H_qx matches central differences of solved
    chains to O(h^2): both errors fall about 4x per halving of h."""
    arr, itin, A, B, base = _predictor_case(name, twolines_arr)
    rng = np.random.default_rng(1)
    dA, dB = rng.normal(size=arr.dim), rng.normal(size=arr.dim)
    predicted, unpredicted, central = [], [], []
    for h in (4e-3, 2e-3, 1e-3, 5e-4):
        plus, minus = (minimize(arr, itin, A + s * h * dA, B + s * h * dB)
                       for s in (1.0, -1.0))
        chain = _predicted_chain(base, A, B, A + h * dA, B + h * dB)
        predicted.append(np.abs(chain.points - plus.chain.points).max())
        unpredicted.append(np.abs(base.chain.points - plus.chain.points).max())
        tangent = (chain.coords - base.chain.coords) / h
        central.append(np.abs((plus.chain.coords - minus.chain.coords) / (2 * h)
                              - tangent).max())
    for errors, order in ((predicted, 2), (unpredicted, 1), (central, 2)):
        for coarse, fine in zip(errors, errors[1:]):
            assert 0.9 * 2**order < coarse / fine < 1.1 * 2**order, (errors, order)


@pytest.mark.usefixtures("tight")
def test_predicted_chain_falls_back_to_the_solved_chain(twolines_arr):
    """A singular Hessian (LinAlgError) or a prediction that overflows gives
    the result's own chain."""
    arr, itin, A, B, base = _predictor_case("twolines", twolines_arr)
    for matrix in (np.zeros((2, 2)), 1e-310 * np.eye(2)):
        model = copy.copy(base.model)
        model.matrix = matrix
        broken = dataclasses.replace(base, model=model)
        assert _predicted_chain(broken, A, B, A + 1.0, B) is broken.chain


def test_patch_pass_budget(twolines_arr, kernel_passes, monkeypatch):
    """The bench patch grid (half 2, spacing 1e-4 |B - A| and half of it, at
    the TWOLINE anchors): one cold solve per sample_relation call, and about
    two derivative passes and one value pass per warm cell; the bounds sit
    just above the 1,268-1,383 derivative and 639-754 value passes counted
    per call on such grids."""
    import linbilliards.scattering as scattering_module
    real = scattering_module.minimize
    cold = []

    def counting(arr, itinerary, A, B, initial_chain=None):
        cold.append(initial_chain is None)
        return real(arr, itinerary, A, B, initial_chain)

    monkeypatch.setattr(scattering_module, "minimize", counting)
    spacing = 1e-4 * float(np.linalg.norm(TWOLINE_B - TWOLINE_A))
    for h in (spacing, spacing / 2):
        kernel_passes.clear()
        cold.clear()
        patch = sample_relation(twolines_arr, Itinerary((0, 1)),
                                AnchorGrid(TWOLINE_A, rot2(0.7), 2, h),
                                AnchorGrid(TWOLINE_B, rot2(-1.1), 2, h))
        assert patch.valid_fraction() == 1.0
        assert len(cold) == 625 and sum(cold) == 1
        assert kernel_passes["derivatives"] <= 1400, kernel_passes
        assert kernel_passes["value"] <= 775, kernel_passes
