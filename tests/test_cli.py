import json
import math

import pytest

from linbilliards import cli
from linbilliards.cli import EXIT_CORNER, main
from linbilliards.errors import (PACKAGE_ERRORS, CornerCollision, InputError, MaxIterations,
                                 NonSmoothPoint, PreconditionError)
from linbilliards.arrangement import load_arrangement
from linbilliards.trajectory import trajectory_from_json, validate_trajectory


@pytest.fixture
def mirror_json(tmp_path):
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps({
        "dim": 2,
        "subspaces": [{"name": "L1", "basis": [[1.0, 0.0]], "sigma": 1.0}],
    }))
    return path


@pytest.fixture
def origin_json(tmp_path):
    path = tmp_path / "origin.json"
    path.write_text(json.dumps({
        "dim": 2,
        "subspaces": [{"name": "O", "basis": [], "sigma": 1.0}],
    }))
    return path


@pytest.fixture
def twolines_json(tmp_path):
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    path = tmp_path / "twolines.json"
    path.write_text(json.dumps({
        "dim": 2,
        "subspaces": [{"name": "L1", "basis": [[1.0, 0.0]], "sigma": 1.0},
                      {"name": "L2", "basis": [[c, s]], "sigma": 1.0}],
    }))
    return path


def test_solve_mirror(tmp_path, mirror_json):
    out = tmp_path / "run"
    code = main(["solve", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--A", "0,1", "--B", "2,1", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["classification"] == "ValidBilliard"
    assert payload["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-10)
    # trajectory JSON round-trips and passes all invariants
    arr = load_arrangement(mirror_json)
    traj = trajectory_from_json((out / "trajectory.json").read_text(), arr)
    assert not validate_trajectory(arr, traj)
    assert (out / "conservation.csv").exists()


def test_solve_total_collision(tmp_path, origin_json):
    out = tmp_path / "run"
    code = main(["solve", "--arrangement", str(origin_json), "--itinerary", "O",
                 "--A", "3,0", "--B", "0,4", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["value"] == pytest.approx(7.0, abs=1e-12)


def test_solve_repeated_label_usage_error(tmp_path, mirror_json):
    code = main(["solve", "--arrangement", str(mirror_json),
                 "--itinerary", "L1,L1", "--A", "0,1", "--B", "2,1",
                 "--out", str(tmp_path / "x")])
    assert code == 64


def test_solve_ghost_exit_code(tmp_path):
    eps = 0.05
    arr_path = tmp_path / "skew.json"
    arr_path.write_text(json.dumps({
        "dim": 3,
        "subspaces": [
            {"name": "M1", "basis": [[1.0, 0.0, 0.0]], "sigma": 1.0},
            {"name": "M2", "basis": [[math.cos(eps), math.sin(eps), 0.0]],
             "sigma": 1.0},
        ],
    }))
    code = main(["solve", "--arrangement", str(arr_path), "--itinerary", "M1,M2",
                 "--A=-1,-0.3,-1", "--B=1,0.3,1",
                 "--out", str(tmp_path / "g")])
    assert code == 3


def test_solve_anchor_on_locus_usage(tmp_path, mirror_json):
    code = main(["solve", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--A", "0,0", "--B", "2,1", "--out", str(tmp_path / "x")])
    assert code == 64


@pytest.mark.parametrize("command", ["solve", "thicken"])
def test_non_finite_anchor_is_a_usage_error(tmp_path, mirror_json, command):
    out = tmp_path / "x"
    code = main([command, "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--A", "nan,1", "--B", "2,1", "--out", str(out)])
    assert code == 64
    assert not any(out.iterdir())


def test_scatter_command(tmp_path, mirror_json):
    out = tmp_path / "sc"
    code = main(["scatter", "--arrangement", str(mirror_json),
                 "--itinerary", "L1", "--A", "0,1", "--B", "2,1",
                 "--half", "1", "--spacing", "1e-2", "--levels", "2",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "residuals.json").read_text())
    assert payload["valid_fraction"] == 1.0
    assert payload["residual_slope"] == pytest.approx(2.0, abs=0.3)
    assert all(v < 1e-4 for v in payload["lagrangian_residuals"].values())
    assert (out / "patch.csv").exists()
    assert (out / "plot_patch.py").exists()


def test_thicken_command_monotone(tmp_path, mirror_json):
    out = tmp_path / "th"
    code = main(["thicken", "--arrangement", str(mirror_json),
                 "--itinerary", "L1", "--A", "0,1", "--B", "2,1",
                 "--r-list", "1e-1,1e-2,1e-3", "--out", str(out)])
    assert code == 0
    rows = (out / "rfamily.csv").read_text().splitlines()[1:]
    devs = [float(r.split(",")[1]) for r in rows]
    assert devs == sorted(devs, reverse=True)
    assert all(r.split(",")[3] == "true" for r in rows)


def test_thicken_simulate_mode(tmp_path, mirror_json):
    out = tmp_path / "sim"
    code = main(["thicken", "--arrangement", str(mirror_json),
                 "--itinerary", "L1", "--simulate", "0,1;1,-1", "--r", "0.1",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "events.csv").read_text().splitlines()
    assert len(lines) == 2


@pytest.mark.parametrize("argv", [
    ["--A", "0,1", "--B", "2,1", "--r-list", "1e-1,nan"],
    ["--simulate", "0,1;1,-1", "--r", "inf"],
])
def test_thicken_rejects_a_non_finite_radius(tmp_path, mirror_json, argv):
    out = tmp_path / "th"
    code = main(["thicken", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 *argv, "--out", str(out)])
    assert code == 64
    assert not any(out.iterdir())


def test_non_finite_sigma_is_a_usage_error(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"dim": 2, "subspaces": [{"name": "L1", "basis": [[1.0, 0.0]], '
                    '"sigma": NaN}]}')
    code = main(["thicken", "--arrangement", str(path), "--itinerary", "L1",
                 "--simulate", "0,1;1,-1", "--r", "0.1", "--out", str(tmp_path / "th")])
    assert code == 64


@pytest.mark.parametrize("entry", [
    '{"name": "L1", "basis": [[1.0, 0.0]], "sigma": "abc"}',
    '{"name": "L1", "basis": [["x", 0.0]]}',
])
def test_non_numeric_arrangement_values_are_a_usage_error(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "subspaces": [%s]}' % entry)
    code = main(["thicken", "--arrangement", str(path), "--itinerary", "L1",
                 "--simulate", "0,1;1,-1", "--r", "0.1", "--out", str(tmp_path / "th")])
    assert code == 64


@pytest.mark.parametrize("simulate", ["0,1;nan,1", "nan,1;1,-1", "0,1;0,0", "0,1",
                                      "0,1;1,-1;3"])
def test_thicken_rejects_a_non_finite_or_zero_start(tmp_path, mirror_json, simulate):
    out = tmp_path / "sim"
    code = main(["thicken", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--simulate", simulate, "--r", "0.1", "--out", str(out)])
    assert code == 64
    assert not (out / "events.csv").exists()


def test_origami_command(tmp_path, twolines_json):
    out = tmp_path / "ori"
    code = main(["origami", "--arrangement", str(twolines_json),
                 "--itinerary", "L1,L2",
                 "--A=1.98916641,-0.44632446", "--B=-0.44703404,-5.58316732",
                 "--max-len", "4", "--budget", "150", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "origami.json").read_text())
    assert payload["itinerary_bound"] == 4
    assert payload["max_realized_length"] <= 4
    assert abs(payload["unfolding"]["angle_sum_minus_pi"]) < 1e-9
    assert payload["unfolding"]["law_of_sines_residual"] < 1e-9


def test_threebody_command(tmp_path):
    out = tmp_path / "tb"
    log = tmp_path / "run.log"
    code = main(["--log-file", str(log), "threebody", "--n-phi", "8",
                 "--n-psi", "8", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "threebody.json").read_text())
    assert payload["max_conservation_residual"] < 1e-12
    assert payload["w_norm"] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    # the speed discrepancy is reported in the run log
    assert "3/2" in log.read_text()
    rows = (out / "slice.csv").read_text().splitlines()
    assert len(rows) == 1 + 64


def test_enumerate_command(tmp_path, twolines_json):
    out = tmp_path / "en"
    code = main(["enumerate", "--arrangement", str(twolines_json),
                 "--max-len", "4", "--out", str(out)])
    assert code == 0
    text = (out / "itineraries.csv").read_text()
    assert "L1|L2|L1|L2,4,reject" in text


def test_deterministic_outputs(tmp_path, twolines_json):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["origami", "--arrangement", str(twolines_json),
                     "--itinerary", "L1,L2", "--max-len", "3", "--budget", "60",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        outs.append((out / "realizability.csv").read_bytes())
    assert outs[0] == outs[1]
    # the artifacts written from a solved trajectory's edges
    problem = ["--arrangement", str(twolines_json), "--itinerary", "L1,L2",
               "--A=1.98916641,-0.44632446", "--B=-0.44703404,-5.58316732"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", *problem, "--out", str(out / "solve")]) == 0
        assert main(["thicken", *problem, "--r-list", "1e-1,1e-2,1e-3",
                     "--out", str(out / "thicken")]) == 0
        files = [out / "solve" / f for f in ("result.json", "trajectory.json",
                                              "conservation.csv")]
        files += [out / "thicken" / "rfamily.csv",
                  *sorted((out / "thicken").glob("events_*.csv"))]
        outs.append([(f.name, f.read_bytes()) for f in files])
    assert len(outs[0]) == 7
    assert outs[0] == outs[1]


def test_usage_error_missing_file(tmp_path):
    code = main(["solve", "--arrangement", str(tmp_path / "nope.json"),
                 "--itinerary", "L1", "--A", "0,1", "--B", "2,1",
                 "--out", str(tmp_path / "x")])
    assert code == 64


def test_scatter_jobs_do_not_change_outputs(tmp_path, twolines_json):
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        code = main(["scatter", "--arrangement", str(twolines_json),
                     "--itinerary", "L1,L2", "--A=1.98916641,-0.44632446",
                     "--B=-0.44703404,-5.58316732", "--half", "1",
                     "--jobs", str(jobs), "--out", str(out)])
        assert code == 0
        outs.append([(out / name).read_bytes() for name in ("patch.csv", "residuals.json")])
    assert outs[0] == outs[1]
    assert json.loads(outs[0][1])["valid_fraction"] == 1.0


def test_scatter_readme_example_decays_at_second_order(tmp_path, mirror_json):
    """The README scatter example resolves the O(h^2) decay of the Lagrangian
    residual: warm-started cells are polished well below the spacing noise."""
    out = tmp_path / "sc"
    code = main(["scatter", "--arrangement", str(mirror_json),
                 "--itinerary", "L1", "--A", "0,1", "--B", "2,1",
                 "--half", "2", "--spacing", "1e-3", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "residuals.json").read_text())
    assert "residual_slope_note" not in payload
    assert payload["residual_slope"] == pytest.approx(2.0, abs=0.1)


def test_thicken_simulate_corner_hit_keeps_partial_path(tmp_path, twolines_json):
    # straight down the bisector of the two lines, into their corner
    out = tmp_path / "corner"
    code = main(["thicken", "--arrangement", str(twolines_json), "--itinerary", "L1",
                 "--r", "0.1", "--simulate",
                 "4.330127018922193,2.5;-0.8660254037844386,-0.5", "--out", str(out)])
    assert code == EXIT_CORNER == 6
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0].startswith("time,label,")


@pytest.mark.parametrize("error", PACKAGE_ERRORS)
def test_every_package_error_maps_to_its_documented_exit_code(error, monkeypatch, tmp_path):
    def fail(args):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "cmd_threebody", fail)
    expected = {InputError: 64, PreconditionError: 64, MaxIterations: 70,
                NonSmoothPoint: 70, CornerCollision: 6}[error]
    assert main(["threebody", "--out", str(tmp_path)]) == expected
    assert f" {expected} " in cli.__doc__.replace("\n", " ")
