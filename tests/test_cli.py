import json
import math
import os
import subprocess
import sys

import pytest

import linbilliards
from linbilliards import cli
from linbilliards.cli import EXIT_CORNER, main
from linbilliards.errors import (PACKAGE_ERRORS, CornerCollision, InputError, MaxIterations,
                                 NonSmoothPoint, PreconditionError)
from linbilliards.arrangement import load_arrangement, save_arrangement

from conftest import fourbody, rounding_allowance, trajectory_from_json, validate_trajectory


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
    assert 0.0 <= payload["value"] - payload["lower_bound"] <= 1e-9 * payload["value"]
    # trajectory JSON round-trips and passes all invariants
    arr = load_arrangement(mirror_json)
    traj = trajectory_from_json((out / "trajectory.json").read_text(), arr)
    assert not validate_trajectory(arr, traj)
    assert (out / "conservation.csv").exists()


ROTATION_Z = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]


def test_solve_generators_add_an_angular_momentum_column(tmp_path):
    """The rotation about the line Z = span(e3) in R^3 preserves it, so
    conservation.csv gains its column J[rz], conserved at the collision."""
    table, gens = tmp_path / "zline.json", tmp_path / "rz.json"
    table.write_text(json.dumps({
        "dim": 3, "subspaces": [{"name": "Z", "basis": [[0.0, 0.0, 1.0]], "sigma": 1.0}]}))
    gens.write_text(json.dumps([{"name": "rz", "xi": ROTATION_Z}]))
    out = tmp_path / "run"
    code = main(["solve", "--arrangement", str(table), "--itinerary", "Z",
                 "--A=1,0,1", "--B=0,1,-1", "--generators", str(gens), "--out", str(out)])
    assert code == 0
    lines = (out / "conservation.csv").read_text().splitlines()
    assert lines[0] == "edge,p_0,p_1,p_2,J[rz]"
    assert lines[-1].startswith("max_angular_jump,")
    assert abs(float(lines[-1].split(",")[1])) <= 1e-12


@pytest.mark.parametrize("content", [
    '{"name": "r", "xi": [[0.0, 1.0], [-1.0, 0.0]]}',  # an object, not a list
    '["r"]',                                            # a list of strings
    '[{"name": "r", "xi": "abc"}]',                     # xi is not numeric
    '[{"name": "r", "xi": [[NaN, 0.0], [0.0, 0.0]]}]',  # xi is not finite
    json.dumps([{"name": "rz", "xi": ROTATION_Z}]),     # 3 x 3 on the plane
    '[{"name": "r", "xi": [[0.0, 1.0], [-1.0, 0.0]]}]',  # turns the mirror
    None,                                               # no such file
], ids=["object", "strings", "text-xi", "nan-xi", "3x3", "turns-mirror", "missing"])
def test_solve_refuses_a_bad_generator_file_before_writing(tmp_path, mirror_json, content):
    """A generator file that is malformed, does not fit the table or does not
    preserve its subspaces is a usage error found before the solve, so no
    output directory is made."""
    gens = tmp_path / "gens.json"
    if content is not None:
        gens.write_text(content)
    out = tmp_path / "run"
    code = main(["solve", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--A", "0,1", "--B", "2,1", "--generators", str(gens), "--out", str(out)])
    assert code == 64
    assert not out.exists()


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
    assert not out.exists()


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


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_scatter_without_a_level_is_a_usage_error(tmp_path, mirror_json, levels):
    out = tmp_path / "sc"
    code = main(["scatter", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--A", "0,1", "--B", "2,1", "--levels", levels, "--out", str(out)])
    assert code == 64
    assert not out.exists()


@pytest.mark.parametrize("spacing", ["nan", "inf"])
def test_scatter_rejects_a_non_finite_spacing(tmp_path, mirror_json, spacing, monkeypatch):
    """The grid refuses the spacing before any cell is solved."""
    def solve(*args, **kwargs):
        pytest.fail("a cell was solved")
    monkeypatch.setattr(cli, "sample_relation", solve)
    out = tmp_path / "sc"
    code = main(["scatter", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--A", "0,1", "--B", "2,1", f"--spacing={spacing}", "--out", str(out)])
    assert code == 64
    assert not out.exists()


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


def test_thicken_records_a_refused_radius(tmp_path, mirror_json):
    """At r = 2 the anchors lie inside the mirror's cylinder: the radius is
    a row with its error, and only the honest radius has an event log."""
    out = tmp_path / "th"
    code = main(["thicken", "--arrangement", str(mirror_json),
                 "--itinerary", "L1", "--A", "0,1", "--B", "2,1",
                 "--r-list", "2,1e-2", "--out", str(out)])
    assert code == 0
    rows = (out / "rfamily.csv").read_text().splitlines()
    assert rows[1] == "2,nan,,false,,anchor A must lie in the table interior"
    assert rows[2].startswith("0.01,")
    assert sorted(p.name for p in out.glob("events_r*.csv")) == ["events_r1e-02.csv"]


@pytest.mark.parametrize("anchor", ["--A", "--B"])
def test_thicken_without_an_anchor_is_a_usage_error(tmp_path, mirror_json, anchor):
    """Without --simulate, thicken solves an r-family and needs both anchors."""
    anchors = {"--A": "0,1", "--B": "2,1"}
    del anchors[anchor]
    out = tmp_path / "th"
    code = main(["thicken", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 *[x for item in anchors.items() for x in item], "--out", str(out)])
    assert code == 64
    assert not out.exists()


def test_thicken_simulates_each_honest_radius_once(tmp_path, mirror_json, monkeypatch):
    """The event logs are written from the replays r_family already ran."""
    from linbilliards import thickened
    radii = []
    simulate = thickened.simulate

    def counting(table, *args, **kwargs):
        radii.append(table.r)
        return simulate(table, *args, **kwargs)

    monkeypatch.setattr(thickened, "simulate", counting)
    out = tmp_path / "th"
    code = main(["thicken", "--arrangement", str(mirror_json),
                 "--itinerary", "L1", "--A", "0,1", "--B", "2,1",
                 "--r-list", "1e-1,1e-2,1e-3", "--out", str(out)])
    assert code == 0
    rows = [r.split(",") for r in (out / "rfamily.csv").read_text().splitlines()[1:]]
    honest = [float(r[0]) for r in rows if r[2] == "true"]
    assert len(honest) == 3
    assert radii == honest
    assert len(list(out.glob("events_r*.csv"))) == 3


@pytest.mark.parametrize("command, flag", [
    ("solve", "--jobs"), ("solve", "--multistart"), ("solve", "--seed"),
    ("thicken", "--seed"), ("thicken", "--jobs"), ("solve", "--max-iters"),
    ("solve", "--grad-tol"), ("scatter", "--coincidence-tol"), ("thicken", "--grad-tol"),
    ("origami", "--coincidence-tol")])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, mirror_json, capsys,
                                                        command, flag):
    code = main([command, "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--A", "0,1", "--B", "2,1", flag, "2", "--out", str(tmp_path / "x")])
    assert code == 64
    # refused by the parser, not by a later usage error of the run
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


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
    assert not out.exists()


@pytest.mark.parametrize("r_list", ["x", "", "1e-1,,1e-2"])
def test_thicken_rejects_an_unparsable_radius_list(tmp_path, mirror_json, r_list):
    out = tmp_path / "th"
    code = main(["thicken", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--A", "0,1", "--B", "2,1", "--r-list", r_list, "--out", str(out)])
    assert code == 64
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--simulate", "0,1;1,-1", "--A", "garbage"],
    ["--simulate", "0,1;1,-1", "--B", "2,1"],
    ["--simulate", "0,1;1,-1", "--r-list", "x"],
    ["--A", "0,1", "--B", "2,1", "--r", "0.1"],
    ["--A", "0,1", "--B", "2,1", "--max-events", "5"],
    ["--A", "0,1", "--B", "2,1", "--t-max", "1"],
])
def test_thicken_refuses_the_options_of_the_other_mode(tmp_path, mirror_json, argv):
    """--A, --B and --r-list belong to the r-family, --r, --max-events and
    --t-max to --simulate; neither mode ignores the other's options."""
    out = tmp_path / "th"
    code = main(["thicken", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 *argv, "--out", str(out)])
    assert code == 64
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_thicken_simulate_without_an_event_budget_is_a_usage_error(tmp_path, mirror_json,
                                                                   count):
    """--max-events below 1 is a count below 1: refused before the output
    directory is made, rather than writing an empty events.csv."""
    out = tmp_path / "sim"
    code = main(["thicken", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--simulate", "0,1;1,-1", "--r", "0.1", "--max-events", count,
                 "--out", str(out)])
    assert code == 64
    assert not out.exists()


@pytest.mark.parametrize("t_max", ["-1", "nan"])
def test_thicken_simulate_refuses_a_negative_horizon(tmp_path, mirror_json, t_max):
    """A --t-max below 0 ran the path backward, and NaN acted as no horizon:
    both are usage errors, and no events.csv is written."""
    out = tmp_path / "sim"
    code = main(["thicken", "--arrangement", str(mirror_json), "--itinerary", "L1",
                 "--simulate", "0,1;1,-1", "--r", "0.1", f"--t-max={t_max}",
                 "--out", str(out)])
    assert code == 64
    assert not (out / "events.csv").exists()


def test_thicken_modes_apply_their_documented_defaults(tmp_path, mirror_json,
                                                        monkeypatch):
    from linbilliards import thickened
    seen = {}

    def family(arr, itinerary, A, B, r_list):
        seen["r_list"] = r_list
        return []

    def simulate(table, p, v, max_events, t_max):
        seen.update(r=table.r, max_events=max_events, t_max=t_max)
        return thickened.simulate(table, p, v, max_events=max_events, t_max=t_max)

    monkeypatch.setattr(cli, "r_family", family)
    monkeypatch.setattr(cli, "simulate", simulate)
    problem = ["--arrangement", str(mirror_json), "--itinerary", "L1"]
    assert main(["thicken", *problem, "--A", "0,1", "--B", "2,1",
                 "--out", str(tmp_path / "fam")]) == 0
    assert main(["thicken", *problem, "--simulate", "0,1;1,-1",
                 "--out", str(tmp_path / "sim")]) == 0
    assert seen == {"r_list": [1e-1, 1e-2, 1e-3, 1e-4], "r": 1e-2, "max_events": 100,
                    "t_max": math.inf}


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


@pytest.mark.parametrize("argv", [
    ["thicken", "--itinerary", "L1", "--simulate", "0,1;1,-1", "--r", "0.1", "--t-max", "-1"],
    ["thicken", "--itinerary", "L1", "--simulate", "0,1;1,-1", "--r", "-0.1"],
    ["thicken", "--itinerary", "L1", "--simulate", "0,1;0,0", "--r", "0.1"],
    ["scatter", "--itinerary", "L1", "--A", "0,1", "--B", "2,1", "--spacing", "nan"],
    ["scatter", "--itinerary", "L1", "--A", "0,1", "--B", "2,1", "--half", "-1"],
    ["scatter", "--A=nan,1", "--B=2,1", "--half", "2", "--spacing", "1e-3"],
    ["scatter", "--itinerary", "L1", "--A=nan,1", "--B=2,1", "--half", "2", "--spacing", "1e-3"],
    ["scatter", "--itinerary", "L1", "--A=1,2,3", "--B=1,2"],
    ["scatter", "--itinerary", "L1", "--A=1,2,3", "--B=1,2", "--spacing", "1e-3"],
], ids=["t-max", "radius", "direction", "spacing", "half", "nan-free-motion", "nan-anchor",
        "anchor-dim", "anchor-dim-spacing"])
def test_a_refused_input_leaves_no_output_directory(tmp_path, mirror_json, argv):
    """Every command computes before it makes --out: an input refused by
    the simulation or the grid exits 64 and leaves no directory behind.  A
    non-finite anchor is refused by the grid, with or without an itinerary
    (free motion would otherwise report a valid patch of NaNs), and an
    anchor of another dimension than the table's before the default
    spacing reads B - A."""
    out = tmp_path / "out"
    code = main([argv[0], "--arrangement", str(mirror_json), *argv[1:], "--out", str(out)])
    assert code == 64
    assert not out.exists()


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


@pytest.mark.parametrize("counts", [("0", "8"), ("8", "-2"), ("0", "0")])
def test_threebody_counts_below_one_are_usage_errors(tmp_path, counts):
    out = tmp_path / "tb"
    code = main(["threebody", "--n-phi", counts[0], "--n-psi", counts[1],
                 "--out", str(out)])
    assert code == 64
    assert not out.exists()


@pytest.mark.parametrize("command, flag, count", [
    ("enumerate", "--max-len", "0"), ("enumerate", "--max-len", "-1"),
    ("origami", "--max-len", "0"), ("origami", "--budget", "0"),
    ("origami", "--jobs", "0"), ("scatter", "--jobs", "0"), ("scatter", "--jobs", "-2")])
def test_counts_below_one_are_usage_errors(tmp_path, twolines_json, command, flag, count):
    """A count below 1 is refused before the output directory is made, rather
    than giving an empty or header-only artifact or a serial run."""
    out = tmp_path / "x"
    argv = [command, "--arrangement", str(twolines_json), flag, count, "--out", str(out)]
    if command != "enumerate":
        argv += ["--itinerary", "L1,L2", "--A=2,1", "--B=-1,-3"]
    assert main(argv) == 64
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["origami", "--itinerary", "D12", "--max-len", "2", "--budget", "5"],
    ["enumerate", "--max-len", "2"]])
def test_origami_and_enumerate_run_where_subspaces_meet(tmp_path, argv):
    """The pair subspaces of the four-body table meet beyond the origin, so
    the itinerary bound is not defined there: origami and enumerate exit 0,
    and origami writes the bound as null."""
    table = tmp_path / "fourbody.json"
    save_arrangement(fourbody(), table)
    out = tmp_path / "out"
    assert main([argv[0], "--arrangement", str(table), *argv[1:], "--out", str(out)]) == 0
    if argv[0] == "origami":
        assert json.loads((out / "origami.json").read_text())["itinerary_bound"] is None
    else:
        assert "D12|D13,2,pass" in (out / "itineraries.csv").read_text()


@pytest.mark.parametrize("argv", [
    ["origami", "--itinerary", "L1,L2", "--max-len", "6", "--budget", "5"],
    ["enumerate", "--max-len", "2"],
    ["origami", "--itinerary", "L1,L2", "--A=2,1", "--max-len", "2", "--budget", "5"],
    ["origami", "--itinerary", "L1,L2", "--B=-1,-3", "--max-len", "2", "--budget", "5"]],
    ids=["beyond-the-bound", "bad-arrangement", "A-alone", "B-alone"])
def test_origami_and_enumerate_refusals_leave_no_directory(tmp_path, twolines_json, argv):
    """A max_len beyond the two-line bound plus one, an arrangement with a
    non-numeric basis, and origami with one anchor (it unfolds a solve from
    both) exit 64 and leave no --out directory behind."""
    table = twolines_json
    if argv[0] == "enumerate":
        table = tmp_path / "bad.json"
        table.write_text('{"dim": 2, "subspaces": [{"name": "L1", "basis": [["x", 0.0]]}]}')
    out = tmp_path / "out"
    assert main([argv[0], "--arrangement", str(table), *argv[1:], "--out", str(out)]) == 64
    assert not out.exists()


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


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None   # any import of scipy now raises ImportError
from linbilliards.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(name for name, module in sys.modules.items()
                                  if name.startswith("scipy") and module is not None)}))
"""


def test_the_cli_runs_without_scipy(tmp_path, twolines_json):
    """numpy is the only runtime dependency: with every import of scipy made
    to fail, solve, scatter, origami and thicken on two lines, threebody and
    enumerate exit normally, and no scipy module is loaded."""
    problem = ["--arrangement", str(twolines_json), "--itinerary", "L1,L2",
               "--A=1.98916641,-0.44632446", "--B=-0.44703404,-5.58316732"]
    runs = [["solve", *problem, "--out", str(tmp_path / "solve")],
            ["scatter", *problem, "--half", "1", "--levels", "1",
             "--out", str(tmp_path / "scatter")],
            ["origami", *problem, "--max-len", "3", "--budget", "20",
             "--out", str(tmp_path / "origami")],
            ["thicken", *problem, "--r-list", "1e-1,1e-2", "--out", str(tmp_path / "thicken")],
            ["threebody", "--n-phi", "4", "--n-psi", "4", "--out", str(tmp_path / "threebody")],
            ["enumerate", "--arrangement", str(twolines_json), "--max-len", "3",
             "--out", str(tmp_path / "enumerate")]]
    src = os.path.dirname(os.path.dirname(linbilliards.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0, 0, 0], "scipy": []}


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


def _strict_json(text):
    """Parse JSON as the standard defines it: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_ghost_result_json_is_strict_json(tmp_path, twolines_json):
    """A ghost has no gradient norm; result.json writes null for it (as for
    hessian_min_eig), never NaN, which strict JSON parsers reject."""
    out = tmp_path / "ghost"
    code = main(["solve", "--arrangement", str(twolines_json), "--itinerary", "L1,L2,L1,L2",
                 "--A", "2,1", "--B=-1,-3", "--out", str(out)])
    assert code == 3
    payload = _strict_json((out / "result.json").read_text())
    assert payload["classification"] == "Ghost"
    assert payload["grad_norm"] is None
    assert payload["hessian_min_eig"] is None
    # the certificate's multipliers prove the ghost
    assert 0.0 <= payload["value"] - payload["lower_bound"] <= 1e-12 * payload["value"]


def test_empty_chain_space_result_json_is_strict_json(tmp_path, origin_json):
    """A pinned chain (zero-dimensional subspaces) has no eigenvalue to
    report: null, not Infinity."""
    out = tmp_path / "run"
    assert main(["solve", "--arrangement", str(origin_json), "--itinerary", "O",
                 "--A", "3,0", "--B", "0,4", "--out", str(out)]) == 0
    payload = _strict_json((out / "result.json").read_text())
    assert payload["hessian_min_eig"] is None
    assert payload["grad_norm"] == 0.0
    # the bound is the length |A| + |B| of the chain at the origin, less its
    # rounding allowance
    allowance = rounding_allowance(1, 2, [3.0, 0.0], [0.0, 4.0], 7.0)
    assert payload["value"] == 7.0
    assert 0.0 <= payload["value"] - payload["lower_bound"] <= allowance


def test_origami_jobs_do_not_change_outputs(tmp_path, twolines_json):
    """Worker processes start with cold solve-plan caches (they are cleared
    before the pool forks), the serial runs with cold and warm ones: the
    artifacts are identical, so the caches are transparent."""
    from linbilliards import solver
    outs = []
    for name, jobs in (("pool", 2), ("serial", 1), ("warm", 1)):
        if name != "warm":
            solver._cached_plan.cache_clear()
        out = tmp_path / name
        code = main(["origami", "--arrangement", str(twolines_json), "--itinerary", "L1,L2",
                     "--max-len", "5", "--budget", "40", "--seed", "3",
                     "--jobs", str(jobs), "--out", str(out)])
        assert code == 0
        outs.append([(out / f).read_bytes() for f in ("realizability.csv", "origami.json")])
    assert outs[0] == outs[1] == outs[2]
    assert b"not-found" in outs[0][0] and b",realized," in outs[0][0]
