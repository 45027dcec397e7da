"""Command-line front end: solve itineraries, sample relations, run the
thickened dynamics, search realizability, and emit the three-body slice.

All commands write deterministic artifacts (CSV/JSON plus a generic
matplotlib plot script where a figure makes sense) into --out.  Exit codes:
0 valid billiard / success, 3 ghost, 4 edge-in-subspace, 5 non-generic ray,
6 corner collision in the thickened simulation (the events before it are
still written), 64 usage error (InputError, PreconditionError, a missing or
malformed input file), 70 solver failure (MaxIterations, NonSmoothPoint).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .arrangement import Itinerary, load_arrangement
from .errors import (PACKAGE_ERRORS, CornerCollision, InputError, MaxIterations,
                     NonSmoothPoint, PreconditionError)
from .origami import (
    collinearity_residual,
    develop_planar,
    enumerate_itineraries,
    angle_prefilter_passes,
    itinerary_bound,
    law_of_sines_residual,
    search_realizable,
    search_to_csv,
    unfold,
)
from .scattering import (
    AnchorGrid,
    lagrangian_residual,
    legendrian_theta_residual,
    patch_to_csv,
    sample_relation,
)
from .solver import Classification, SolverOptions, minimize, multistart_minimize
from .symmetry import conservation_report, generators_from_json, report_to_csv
from .thickened import (
    ThickenedTable,
    events_to_csv,
    r_family,
    replay_honest,
    simulate,
)
from .nbody import slice_to_csv, three_body_slice
from .trajectory import trajectory_to_json

EXIT_OK = 0
EXIT_GHOST = 3
EXIT_EDGE = 4
EXIT_NONGENERIC = 5
EXIT_CORNER = 6
EXIT_USAGE = 64
EXIT_SOLVER = 70

CLASS_EXIT = {
    Classification.VALID: EXIT_OK,
    Classification.GHOST: EXIT_GHOST,
    Classification.EDGE_IN_SUBSPACE: EXIT_EDGE,
    Classification.NON_GENERIC_RAY: EXIT_NONGENERIC,
}

# every error the package raises on purpose, with its exit code and log label
ERROR_EXIT = {
    InputError: (EXIT_USAGE, "usage error"),
    PreconditionError: (EXIT_USAGE, "usage error"),
    MaxIterations: (EXIT_SOLVER, "solver failure"),
    NonSmoothPoint: (EXIT_SOLVER, "solver failure"),
    CornerCollision: (EXIT_CORNER, "corner collision"),
}

logger = logging.getLogger("linbilliards")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InputError(f"cannot parse vector {text!r}") from exc


def _solver_options(args) -> SolverOptions:
    return SolverOptions(max_iters=args.max_iters, grad_tol=args.grad_tol,
                         coincidence_tol=args.coincidence_tol)


def _load_problem(args):
    arr = load_arrangement(args.arrangement)
    itinerary = Itinerary.from_labels(arr, args.itinerary.split(","))
    return arr, itinerary


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    arr, itinerary = _load_problem(args)
    A = _parse_vector(args.A)
    B = _parse_vector(args.B)
    opts = _solver_options(args)
    out = _out_dir(args)
    result = minimize(arr, itinerary, A, B, opts)
    payload = {
        "classification": str(result.classification),
        "value": result.value,
        "grad_norm": result.grad_norm,
        "hessian_min_eig": result.hessian_min_eig,
        "iterations": result.iterations,
        "chain": result.chain.points.tolist(),
        "message": result.message,
    }
    if args.multistart > 0:
        report = multistart_minimize(arr, itinerary, A, B,
                                     n_starts=args.multistart,
                                     seed=args.seed, opts=opts)
        payload["multistart"] = {
            "n": args.multistart,
            "chain_spread": report.chain_spread,
            "value_spread": report.value_spread,
        }
    (out / "result.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if result.trajectory is not None:
        (out / "trajectory.json").write_text(
            trajectory_to_json(result.trajectory, arr) + "\n")
        gens = []
        if args.generators:
            gens = generators_from_json(json.loads(Path(args.generators).read_text()))
        report = conservation_report(arr, result.trajectory, gens)
        report_to_csv(report, gens, out / "conservation.csv")
    logger.info("solve: %s, length %.12g", result.classification, result.value)
    return CLASS_EXIT[result.classification]


def cmd_scatter(args) -> int:
    arr = load_arrangement(args.arrangement)
    itinerary = (Itinerary.from_labels(arr, args.itinerary.split(","))
                 if args.itinerary else None)
    A = _parse_vector(args.A)
    B = _parse_vector(args.B)
    out = _out_dir(args)
    opts = _solver_options(args)
    rng = np.random.default_rng(args.seed)
    # generic rotation of the grid axes avoids symmetry-degenerate stencils
    axes_A = np.linalg.qr(rng.standard_normal((arr.dim, arr.dim)))[0].T
    axes_B = np.linalg.qr(rng.standard_normal((arr.dim, arr.dim)))[0].T
    base_spacing = (args.spacing if args.spacing is not None
                    else 1e-4 * float(np.linalg.norm(B - A)))
    residuals = {}
    patch = None
    for level, spacing in enumerate(base_spacing * 0.5 ** np.arange(args.levels)):
        grid_A = AnchorGrid(A, axes_A, args.half, float(spacing))
        grid_B = AnchorGrid(B, axes_B, args.half, float(spacing))
        patch_l = sample_relation(arr, itinerary, grid_A, grid_B, opts,
                                  jobs=args.jobs)
        residuals[float(spacing)] = lagrangian_residual(patch_l)
        if patch is None:
            patch = patch_l
    patch_to_csv(patch, out / "patch.csv")
    payload = {"lagrangian_residuals": {f"{h:.9g}": v for h, v in residuals.items()},
               "valid_fraction": patch.valid_fraction()}
    if len(residuals) >= 2:
        hs = sorted(residuals, reverse=True)
        slope = np.polyfit(np.log(hs), np.log([max(residuals[h], 1e-300) for h in hs]), 1)[0]
        payload["residual_slope"] = float(slope)
        if max(residuals.values()) < 3.0 * min(residuals.values()):
            # residuals sit at the solver-accuracy floor, not in the
            # truncation regime: the fitted slope carries no information
            payload["residual_slope_note"] = \
                "noise-limited; increase --spacing to see the decay order"
    if itinerary is not None and len(itinerary) > 1:
        payload["legendrian_theta_residual"] = legendrian_theta_residual(patch)
    (out / "residuals.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_patch_plot_script(out)
    logger.info("scatter: %d cells, valid fraction %.3f",
                len(patch.samples), patch.valid_fraction())
    return EXIT_OK


def cmd_thicken(args) -> int:
    arr, itinerary = _load_problem(args)
    out = _out_dir(args)
    opts = _solver_options(args)
    if args.simulate:
        p = _parse_vector(args.simulate.split(";")[0])
        v = _parse_vector(args.simulate.split(";")[1])
        v = v / np.linalg.norm(v)
        table = ThickenedTable(arr, args.r)
        try:
            path = simulate(table, p, v, max_events=args.max_events, t_max=args.t_max)
        except CornerCollision as exc:
            # the dynamics is undefined in a corner; keep the events before it
            events_to_csv(exc.path, out / "events.csv")
            logger.error("simulate: corner collision after %d events at t = %.17g: %s",
                         len(exc.path.events), exc.path.end_time, exc)
            return EXIT_CORNER
        events_to_csv(path, out / "events.csv")
        logger.info("simulate: %d events, status %s", len(path.events), path.status)
        return EXIT_OK
    A = _parse_vector(args.A)
    B = _parse_vector(args.B)
    r_list = [float(x) for x in args.r_list.split(",")]
    entries = r_family(arr, itinerary, A, B, r_list, opts)
    with open(out / "rfamily.csv", "w") as fh:
        fh.write("r,deviation,honest,itinerary_match,value,error\n")
        for e in entries:
            honest = "" if e.result is None else str(e.result.honest).lower()
            value = "" if e.result is None else f"{e.result.value:.17g}"
            fh.write(f"{e.r:.17g},{e.deviation:.17g},{honest},"
                     f"{str(e.itinerary_match).lower()},{value},{e.error}\n")
    for e in entries:
        if e.result is not None and e.result.honest:
            table = ThickenedTable(arr, e.r)
            path = replay_honest(table, e.result, A, len(itinerary))
            events_to_csv(path, out / f"events_r{e.r:.0e}.csv")
    logger.info("thicken: %d radii, deviations %s", len(entries),
                ["%.3g" % e.deviation for e in entries])
    return EXIT_OK


def cmd_origami(args) -> int:
    arr, itinerary = _load_problem(args)
    out = _out_dir(args)
    opts = _solver_options(args)
    payload = {"itinerary_bound": itinerary_bound(arr)}
    if args.A and args.B:
        result = minimize(arr, itinerary, _parse_vector(args.A),
                          _parse_vector(args.B), opts)
        if result.is_valid:
            u = unfold(result.trajectory)
            developed = develop_planar(result.trajectory)
            payload["unfolding"] = {
                "theta": list(u.theta),
                "beta": u.beta,
                "angle_sum": u.total,
                "angle_sum_minus_pi": u.total - math.pi,
                "law_of_sines_residual": law_of_sines_residual(result.trajectory),
                "collinearity_residual": collinearity_residual(developed),
            }
        else:
            payload["unfolding"] = {"classification": str(result.classification)}
    rows = search_realizable(arr, args.max_len, args.budget, seed=args.seed,
                             opts=opts, jobs=args.jobs)
    search_to_csv(rows, out / "realizability.csv")
    realized = [len(r.labels) for r in rows if r.status == "realized"]
    payload["max_realized_length"] = max(realized) if realized else 0
    (out / "origami.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    logger.info("origami: bound %d, max realized length %d",
                payload["itinerary_bound"], payload["max_realized_length"])
    return EXIT_OK


def cmd_threebody(args) -> int:
    out = _out_dir(args)
    phi = np.linspace(0.0, 2.0 * math.pi, args.n_phi, endpoint=False)
    psi = np.linspace(0.0, 2.0 * math.pi, args.n_psi, endpoint=False)
    s = three_body_slice(phi, psi)
    slice_to_csv(s, out / "slice.csv")
    logger.info("threebody: pair-exchange speed |w| = sqrt(3)/2 = %.12g from "
                "|v1 - v2|/2 with the equally spaced unit-energy incoming "
                "velocities; the stated value 3/2 is inconsistent with those "
                "velocities and is not used.", math.sqrt(3.0) / 2.0)
    logger.info("threebody: max conservation residual %.3g",
                s.max_conservation_residual())
    _write_slice_plot_script(out)
    payload = {
        "w_norm": math.sqrt(3.0) / 2.0,
        "w_norm_note": "formula value sqrt(3)/2; the alternative stated value "
                       "3/2 contradicts the incoming velocities",
        "max_conservation_residual": s.max_conservation_residual(),
        "internal_points": int(np.sum(s.internal)),
    }
    (out / "threebody.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    arr = load_arrangement(args.arrangement)
    out = _out_dir(args)
    bound = itinerary_bound(arr)
    with open(out / "itineraries.csv", "w") as fh:
        fh.write("itinerary,length,angle_filter\n")
        for combo in enumerate_itineraries(arr, args.max_len):
            labels = "|".join(arr.subspaces[i].name for i in combo)
            passes = angle_prefilter_passes(arr, combo)
            fh.write(f"{labels},{len(combo)},{'pass' if passes else 'reject'}\n")
    logger.info("enumerate: itinerary bound %d", bound)
    return EXIT_OK


def _write_patch_plot_script(out: Path) -> None:
    (out / "plot_patch.py").write_text('''\
"""Plot the sampled scattering patch (first two coordinates of each anchor)."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
rows = list(csv.DictReader(open(here / "patch.csv")))
ok = [r for r in rows if r["status"] == "valid"]
absent = [r for r in rows if r["status"] != "valid"]
fig, ax = plt.subplots()
ax.scatter([float(r["A_0"]) for r in ok], [float(r["A_1"]) for r in ok],
           s=8, label="valid")
ax.scatter([float(r["A_0"]) for r in absent], [float(r["A_1"]) for r in absent],
           s=8, marker="x", label="absent")
ax.set_xlabel("A_0"); ax.set_ylabel("A_1"); ax.legend()
fig.savefig(here / "patch.png", dpi=150)
''')


def _write_slice_plot_script(out: Path) -> None:
    (out / "plot_slice.py").write_text('''\
"""Plot the outgoing-argument surface of the three-body slice."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
rows = list(csv.DictReader(open(here / "slice.csv")))
fig = plt.figure()
ax = fig.add_subplot(projection="3d")
ax.scatter([float(r["arg_v1"]) for r in rows],
           [float(r["arg_v2"]) for r in rows],
           [float(r["arg_v3"]) for r in rows], s=4)
ax.set_xlabel("arg v1+"); ax.set_ylabel("arg v2+"); ax.set_zlabel("arg v3+")
fig.savefig(here / "slice.png", dpi=150)
''')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linbilliards",
        description="Billiards on arrangements of linear subspaces")
    parser.add_argument("--log-file", default=None,
                        help="also write the run log to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_itinerary=True):
        p.add_argument("--arrangement", required=True)
        if needs_itinerary:
            p.add_argument("--itinerary", required=True,
                           help="comma-separated subspace names")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--max-iters", type=int, default=400)
        p.add_argument("--grad-tol", type=float, default=1e-10)
        p.add_argument("--coincidence-tol", type=float, default=1e-9)

    p = sub.add_parser("solve", help="solve one itinerary between two anchors")
    common(p)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--multistart", type=int, default=0)
    p.add_argument("--generators", default=None,
                   help="JSON file of rotation generators for the conservation report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("scatter", help="sample a relation patch around two anchors")
    common(p, needs_itinerary=False)
    p.add_argument("--itinerary", default=None,
                   help="comma-separated names; omit for free motion")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--half", type=int, default=2)
    p.add_argument("--spacing", type=float, default=None,
                   help="grid spacing (default: 1e-4 times the anchor separation)")
    p.add_argument("--levels", type=int, default=2,
                   help="number of spacing halvings for the decay check")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("thicken", help="r-family minimization or event simulation")
    common(p)
    p.add_argument("--A")
    p.add_argument("--B")
    p.add_argument("--r", type=float, default=1e-2)
    p.add_argument("--r-list", default="1e-1,1e-2,1e-3,1e-4")
    p.add_argument("--max-events", type=int, default=100)
    p.add_argument("--t-max", type=float, default=math.inf)
    p.add_argument("--simulate", default=None,
                   help="'p;v' start point and direction for raw simulation")
    p.set_defaults(func=cmd_thicken)

    p = sub.add_parser("origami", help="unfolding identities and realizability search")
    common(p)
    p.add_argument("--A", default=None)
    p.add_argument("--B", default=None)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--budget", type=int, default=1000)
    p.set_defaults(func=cmd_origami)

    p = sub.add_parser("threebody", help="three-body scattering slice")
    p.add_argument("--out", required=True)
    p.add_argument("--n-phi", type=int, default=60)
    p.add_argument("--n-psi", type=int, default=60)
    p.set_defaults(func=cmd_threebody)

    p = sub.add_parser("enumerate", help="list repeat-free itineraries with the angle filter")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-len", type=int, default=4)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    handlers = [logging.StreamHandler(sys.stderr)]
    args_peek = argv if argv is not None else sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(args_peek)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.log_file:
        handlers.append(logging.FileHandler(args.log_file, mode="w"))
    logging.basicConfig(level=logging.INFO, handlers=handlers, force=True,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        logger.error("usage error: %s", exc)
        return EXIT_USAGE
    except PACKAGE_ERRORS as exc:
        code, label = next(v for cls, v in ERROR_EXIT.items() if isinstance(exc, cls))
        logger.error("%s: %s", label, exc)
        return code


if __name__ == "__main__":
    sys.exit(main())
