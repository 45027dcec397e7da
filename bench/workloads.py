"""The benchmark's workloads: inputs from a seed, one round of work, gates.

A run executes a fixed number of rounds of its workload; ``round_s`` is a
round's nominal time on the reference machine (see NOTES.md).  Round ``r``
draws its inputs from ``numpy.random.default_rng([seed, r, stream])``, so the
content of a round depends only on the seed and the round index.
``run_round`` holds the timed library calls; ``check`` applies the
correctness gates afterwards, outside the timed region, and returns
(items lost without a library call, one message per rejected result, the
round's content).

See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import collections
import json
import math

import numpy as np

from linbilliards import cli, nbody, origami, scattering, solver, thickened
from linbilliards.arrangement import Arrangement, Itinerary, Subspace, save_arrangement
from linbilliards.errors import (CornerCollision, InputError, MaxIterations, NonSmoothPoint,
                                 PreconditionError)
from linbilliards.trajectory import BilliardTrajectory, max_reflection_residual

from tracing import solver_outcome, thickened_outcome


LIBRARY_ERRORS = (CornerCollision, InputError, MaxIterations, NonSmoothPoint,
                  PreconditionError)


def attempt(fn, *args, **kwargs):
    """One item the benchmark hands the library itself: a library error makes
    it a failed item (the item timer records it) rather than ending the run."""
    try:
        return fn(*args, **kwargs)
    except LIBRARY_ERRORS:
        return None


def twolines() -> Arrangement:
    """Two lines through the origin at 60 degrees (``twolines_arr`` in the tests)."""
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    return Arrangement(2, (
        Subspace.from_spanning("L1", [[1.0, 0.0]], 2),
        Subspace.from_spanning("L2", [[c, s]], 2),
    ))


def _round_rng(seed: int, r: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, r, stream])


def _repeat_free(rng, n_labels: int, k: int) -> tuple[int, ...]:
    seq = [int(rng.integers(n_labels))]
    while len(seq) < k:
        nxt = int(rng.integers(n_labels - 1))
        seq.append(nxt if nxt < seq[-1] else nxt + 1)
    return tuple(seq)


class Realize:
    """Unfiltered realizability search on two lines at 60 degrees."""

    name = "realize"
    item = "solve"
    round_s = 8.0
    max_len = 5
    # per-itinerary sample budget: lengths 1 and 3 need a mean of ~9 samples
    # (about 0.5% of searches need more than 60), so 100 keeps "lengths 1-3
    # realized" a correctness gate rather than a coin toss
    budget = 100

    def timer_target(self):
        return origami, "minimize", solver_outcome

    def setup(self, seed, rounds, workdir):
        arr = twolines()
        seeds = [int(_round_rng(seed, r).integers(2**31 - 1)) for r in range(rounds)]
        return {"arr": arr, "seeds": seeds}

    def run_round(self, state, r):
        return origami.search_realizable(state["arr"], self.max_len, self.budget,
                                         seed=state["seeds"][r], use_angle_filter=False,
                                         jobs=1)

    def check(self, state, r, rows):
        arr, rejects = state["arr"], []
        status = {}
        for row in rows:
            label = "|".join(row.labels)
            status[label] = row.status
            if len(row.labels) >= 4:
                if row.status != "not-found":
                    rejects.append(f"{label}: length >= 4 reported {row.status}")
                continue
            if row.status != "realized":
                rejects.append(f"{label}: not realized within {self.budget} samples")
                continue
            traj = BilliardTrajectory(row.witness_A, row.witness_B, row.witness_chain,
                                      Itinerary.from_labels(arr, row.labels))
            res = max_reflection_residual(arr, traj)
            if not res <= 1e-9 * max(1.0, traj.length):
                rejects.append(f"{label}: witness reflection residual {res:.3e}")
        return 0, rejects, {"seed": state["seeds"][r], "rows": status}


class Patch:
    """In-process ``linbilliards scatter`` on two lines at the frozen anchors."""

    name = "patch"
    item = "cell"
    round_s = 2.4
    # TWOLINE_A / TWOLINE_B of tests/conftest.py: a strongly transverse,
    # well-separated valid two-line solve
    A = "1.98916641,-0.44632446"
    B = "-0.44703404,-5.58316732"

    def timer_target(self):
        return scattering, "minimize", solver_outcome

    def setup(self, seed, rounds, workdir):
        path = workdir / "twolines.json"
        save_arrangement(twolines(), path)
        seeds = [int(_round_rng(seed, r).integers(2**31 - 1)) for r in range(rounds)]
        return {"arrangement": path, "seeds": seeds, "workdir": workdir}

    def run_round(self, state, r):
        out = state["workdir"] / f"patch-r{r}"
        argv = ["scatter", "--arrangement", str(state["arrangement"]),
                "--itinerary", "L1,L2", f"--A={self.A}", f"--B={self.B}",
                "--half", "2", "--levels", "2", "--jobs", "1",
                "--seed", str(state["seeds"][r]), "--out", str(out)]
        return cli.main(argv), out

    def check(self, state, r, output):
        code, out = output
        if code != 0:
            return 0, [f"scatter exited with {code}"], {"seed": state["seeds"][r]}
        payload = json.loads((out / "residuals.json").read_text())
        rejects = []
        if payload["valid_fraction"] != 1.0:
            rejects.append(f"valid_fraction {payload['valid_fraction']}")
        for h, res in payload["lagrangian_residuals"].items():
            if not res < 1e-6:
                rejects.append(f"Lagrangian residual {res:.3e} at spacing {h}")
        content = {"seed": state["seeds"][r], "valid_fraction": payload["valid_fraction"],
                   "lagrangian_residuals": payload["lagrangian_residuals"]}
        return 0, rejects, content


def slice_problem(system, sl, i, j):
    """Anchors one time unit before the 1-2 and after the 1-3 collision, and
    the 1-2 collision configuration, built as in
    ``nbody.cross_validate_slice``; all in working coordinates."""
    to_config = nbody._complex_to_config
    v_minus = to_config(nbody.V_MINUS)
    v_mid = to_config(sl.v_mid[i])
    v_plus = to_config(sl.v_plus[i, j])
    p = -(1.0 / 3.0) * (v_mid[0] - v_mid[2])  # its arithmetic (tau = 1): stalls hinge on rounding
    x1 = np.array([p, p, -2.0 * p])
    x2 = x1 + v_mid
    return system.embed(x1 - v_minus), system.embed(x2 + v_plus), system.embed(x1)


def slice_points(sl, seed, rounds, per_round, make):
    """Per round, ``per_round`` seeded non-internal grid points (i, j) of the
    three-body slice for which ``make(i, j)`` builds an input, as
    (i, j, input); ``make`` returns None to draw another point."""
    n_phi, n_psi = sl.internal.shape
    out = []
    for r in range(rounds):
        rng = _round_rng(seed, r)
        pts = []
        while len(pts) < per_round:
            i, j = int(rng.integers(n_phi)), int(rng.integers(n_psi))
            made = None if sl.internal[i, j] else make(i, j)
            if made is not None:
                pts.append((i, j, made))
        out.append(pts)
    return out


def three_body_table():
    """The paper's planar equal-mass three-body table and its slice, on the
    CLI's default 60 x 60 grid."""
    system = nbody.NBodySystem(3, 2, nbody.MASSES_THIRD, reduce_cm=True)
    arr = nbody.build_arrangement(system)
    grid = np.linspace(0.0, 2.0 * math.pi, 60, endpoint=False)
    return system, arr, nbody.three_body_slice(grid, grid)


def four_body_table():
    """Four equal masses in 3D: dimension 9, six pair-collision subspaces."""
    return nbody.build_arrangement(nbody.NBodySystem(4, 3, (1.0,) * 4, reduce_cm=True))


def aimed_ray(rng, arr, clear, aim):
    """Start point outside every cylinder of radius factor ``clear``, aimed
    inside a random cylinder of radius factor ``aim``, so the ray hits a wall
    on every table thickened to a radius between the two."""
    while True:
        p = 3.0 * rng.standard_normal(arr.dim)
        if clears(arr, p, clear):
            break
    sub = arr.subspaces[int(rng.integers(len(arr.subspaces)))]
    offset = sub.perp(rng.standard_normal(arr.dim))
    target = sub.project(rng.standard_normal(arr.dim)) \
        + 0.5 * sub.sigma * aim * offset / np.linalg.norm(offset)
    v = target - p
    return p, v / np.linalg.norm(v)


def clears(arr, x, r) -> bool:
    """x lies outside every cylinder of radius factor 2 r."""
    return all(s.distance_to(x) > 2.0 * s.sigma * r for s in arr.subspaces)


def check_paths(table, paths, tag):
    """Gates on simulated paths: at least one event, increasing times, hits
    on the labelled wall, unit speed, and the specular law at every hit."""
    arr = table.arrangement
    rejects = []
    for path in filter(None, paths):
        if not path.events or path.status not in ("escaped", "max_events"):
            rejects.append(f"{tag}: {len(path.events)} events, status {path.status}")
        times = [e.time for e in path.events]
        if any(b <= a for a, b in zip(times, times[1:])):
            rejects.append(f"{tag}: event times not increasing")
        for e in path.events:
            sub = arr.subspaces[arr.index_of(e.label)]
            rho = sub.sigma * table.r
            off = abs(sub.distance_to(e.point) - rho)
            if not off <= 1e-9 * max(1.0, rho):
                rejects.append(f"{tag}: hit {off:.3e} off the {e.label} wall")
            nu = sub.perp(e.point)
            nu = nu / np.linalg.norm(nu)
            mirror = e.v_before - 2.0 * float(np.dot(e.v_before, nu)) * nu
            if not np.linalg.norm(e.v_after - mirror) <= 1e-12 \
                    or not abs(np.linalg.norm(e.v_after) - 1.0) <= 1e-12:
                rejects.append(f"{tag}: reflection at a {e.label} hit is not specular")
    return rejects


class HardBall:
    """Event-driven simulation on the hard-ball tables of the N-body layer:
    each seeded ray is run on the table thickened to every radius of the
    CLI's default --r-list."""

    name = "hardball"
    item = "simulation"
    round_s = 0.09
    rays = 60               # rays per table per round
    radii = (1e-1, 1e-2, 1e-3, 1e-4)

    def timer_target(self):
        return thickened, "simulate", lambda path: path.status

    def setup(self, seed, rounds, workdir):
        system3, arr3, sl = three_body_table()
        arr4 = four_body_table()
        tables = [(thickened.ThickenedTable(arr3, r), thickened.ThickenedTable(arr4, r))
                  for r in self.radii]
        big, small = max(self.radii), min(self.radii)

        def ray3(i, j):
            # from the incoming anchor straight at the 1-2 collision
            A, _, x1 = slice_problem(system3, sl, i, j)
            return (A, (x1 - A) / np.linalg.norm(x1 - A)) if clears(arr3, A, big) else None

        points = slice_points(sl, seed, rounds, self.rays, ray3)
        inputs = []
        for r, pts in enumerate(points):
            rng = _round_rng(seed, r, stream=1)
            inputs.append(([ray for _, _, ray in pts],
                           [aimed_ray(rng, arr4, big, small) for _ in range(self.rays)]))
        return {"tables": tables, "inputs": inputs, "points": points}

    def run_round(self, state, r):
        rays3, rays4 = state["inputs"][r]
        return [([attempt(thickened.simulate, table3, p, v, max_events=50) for p, v in rays3],
                 [attempt(thickened.simulate, table4, p, v, max_events=50) for p, v in rays4])
                for table3, table4 in state["tables"]]

    def check(self, state, r, output):
        rejects = []
        events = {}
        for (table3, table4), (paths3, paths4) in zip(state["tables"], output):
            rejects += check_paths(table3, paths3, f"three-body r={table3.r:g}")
            rejects += check_paths(table4, paths4, f"four-body r={table4.r:g}")
            events[f"{table3.r:g}"] = [sum(len(p.events) for p in paths if p)
                                       for paths in (paths3, paths4)]
        content = {"slice_points": [[i, j] for i, j, _ in state["points"][r][:5]],
                   "events": events}
        return 0, rejects, content


class NBody:
    """Long itineraries on four equal masses in 3D (not in BENCHMARK.json:
    see NOTES.md)."""

    name = "nbody"
    item = "solve"
    round_s = 1.0
    ks = (8, 16, 32)

    def timer_target(self):
        return solver, "minimize", solver_outcome

    def setup(self, seed, rounds, workdir):
        arr = four_body_table()
        n = len(arr.subspaces)
        inputs = []
        for r in range(rounds):
            rng = _round_rng(seed, r)
            inputs.append([(Itinerary(_repeat_free(rng, n, k)),
                            rng.standard_normal(arr.dim), rng.standard_normal(arr.dim))
                           for k in self.ks])
        return {"arr": arr, "inputs": inputs}

    def run_round(self, state, r):
        return [attempt(solver.minimize, state["arr"], it, A, B)
                for it, A, B in state["inputs"][r]]

    def check(self, state, r, results):
        arr = state["arr"]
        rejects = []
        for (it, A, B), res in zip(state["inputs"][r], results):
            if res is None:
                continue
            chord = float(np.linalg.norm(B - A))
            tag = f"k={len(it)}"
            pts = res.chain.points
            off = max(arr.subspaces[i].distance_to(p) for i, p in zip(it, pts))
            if not off <= 1e-9 * chord:
                rejects.append(f"{tag}: vertex {off:.3e} off its subspace")
            if not res.value >= chord * (1.0 - 1e-12):
                rejects.append(f"{tag}: value {res.value!r} below the chord {chord!r}")
            gaps = np.linalg.norm(np.diff(np.vstack([A, pts, B]), axis=0), axis=1)
            if not abs(res.value - gaps.sum()) <= 1e-9 * res.value:
                rejects.append(f"{tag}: value does not match the chain length")
            if res.classification is solver.Classification.GHOST \
                    and not np.min(gaps[1:-1]) <= 1e-9 * chord:
                rejects.append(f"{tag}: ghost without a collapsed consecutive pair")
        content = {"k": [len(it) for it, _, _ in state["inputs"][r]],
                   "outcomes": [solver_outcome(res) if res else "error" for res in results]}
        return 0, rejects, content


class Thicken:
    """r-families on the planar equal-mass three-body table (not in
    BENCHMARK.json: see NOTES.md)."""

    name = "thicken"
    item = "radius solve"
    round_s = 10.0
    radii = (1e-1, 1e-2, 1e-3, 1e-4)   # the CLI's default --r-list

    def timer_target(self):
        return thickened, "minimize_thickened", thickened_outcome

    def setup(self, seed, rounds, workdir):
        system, arr, sl = three_body_table()
        itinerary = Itinerary.from_labels(arr, ["D12", "D13"])
        big = max(self.radii)

        def anchors(i, j):
            A, B = slice_problem(system, sl, i, j)[:2]
            return (A, B) if clears(arr, A, big) and clears(arr, B, big) else None

        points = [pts[0] for pts in slice_points(sl, seed, rounds, 1, anchors)]
        return {"arr": arr, "itinerary": itinerary, "points": points}

    def run_round(self, state, r):
        _, _, (A, B) = state["points"][r]
        try:
            return thickened.r_family(state["arr"], state["itinerary"], A, B,
                                      list(self.radii))
        except LIBRARY_ERRORS as exc:
            return exc

    def check(self, state, r, entries):
        i, j = state["points"][r][:2]
        content = {"slice_point": [i, j]}
        if isinstance(entries, Exception):
            # the point solve itself failed: every radius solve is lost
            content["error"] = str(entries)
            return len(self.radii), [], content
        arr, itinerary = state["arr"], state["itinerary"]
        labels = itinerary.labels(arr)
        rejects = []
        outcome = []
        for e in entries:
            if e.result is None:
                outcome.append(f"error: {e.error.split(' (')[0]}")
                continue
            outcome.append("honest" if e.result.honest else "ghost")
            if not e.result.honest:
                continue
            if not e.itinerary_match:
                rejects.append(f"r={e.r:g}: replay does not follow {labels}")
            for idx, q in zip(itinerary, e.result.points):
                sub = arr.subspaces[idx]
                rho = sub.sigma * e.r
                if not abs(sub.distance_to(q) - rho) <= 1e-9 * rho:
                    rejects.append(f"r={e.r:g}: vertex off its cylinder wall")
        content["radii"] = dict(zip((f"{r:g}" for r in self.radii), outcome))
        return 0, rejects, content


WORKLOADS = {w.name: w for w in (Realize(), Patch(), HardBall(), NBody(), Thicken())}


def outcome_mix(items) -> dict:
    return dict(sorted(collections.Counter(o for *_, o in items).items()))
