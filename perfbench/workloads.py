"""The three workloads: seeded scenario files, CLI commands and their checks.

Each workload is a closed loop of one client that runs CLI commands back to
back in-process.  ``prepare`` writes the scenario files of a seed and
returns a schedule: ``command(k)`` is the k-th command, and scenarios are
reused cyclically so any number of commands can run.  Every command carries
the check that scores its outputs against the unitary the scenario was
built from; checks run outside the timed phase.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import scenarios as sc


@dataclass
class Score:
    """Oracle outcome of one command: failed units and why they failed."""

    failed: int
    kinds: Counter = field(default_factory=Counter)
    out_bytes: int = 0
    samples: int = 0
    bad_tokens: int = 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``check`` takes the exit code (None when main
    raised) and scores the files in ``outputs``, which are removed before
    the command runs so a stale report is never scored."""

    argv: list[str]
    units: int
    check: Callable[[int | None], Score]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Schedule:
    """``command(k)`` is the k-th command of a run."""

    command: Callable[[int], Command]
    scenario_paths: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str
    build: Callable[["Workload", np.random.Generator, str], Schedule]
    n: int
    d: int
    scenarios: int
    # Commands per schedule block; a run stops only at a block boundary, so
    # every run holds the same mix (scan-n64 pairs a gap arc with an atom arc).
    block: int = 1
    # Leading commands of a traced run whose counts are reported: a fixed
    # prefix of the seeded schedule, so every count repeats exactly.
    counted: int = 2
    arcs_per_kind: int = 4
    setup_children: int = 5

    def prepare(self, seed: int, workdir: str) -> Schedule:
        """Write the scenario files of ``seed`` into ``workdir``."""
        return self.build(self, np.random.default_rng(seed), workdir)


def _read_report(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# ------------------------------------------------------------------ grid


def _grid_points(count: int = 4) -> list[complex]:
    """The points of ``resolvent --grid count``: the CLI's documented disk
    grid (radii 0.9 (k+1)/(count+1) on angles 2 pi k/count) and mirrors."""
    inner = [cmath.rect(0.9 * (k + 1) / (count + 1), 2 * math.pi * k / count) for k in range(count)]
    return inner + [1.0 / z.conjugate() for z in inner]


# The CLI formats CSV values with repr(), which under numpy >= 2 writes
# "np.float64(x)" instead of "x".  Such tokens are unwrapped so their values
# are still checked, and counted in Score.bad_tokens.
_NP_FLOAT = "np.float64("


def _read_csv(path: str) -> tuple[np.ndarray, int]:
    try:
        with open(path) as fh:
            text = fh.read()
        bad = text.count(_NP_FLOAT)
        if bad:
            text = text.replace(_NP_FLOAT, "").replace(")", "")
        rows = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return np.zeros((0, 6)), 0
    return rows, bad


def _check_grid(u: np.ndarray, out: str, code: int | None, eps_eq: float) -> Score:
    """Every grid value in the JSON report and in the CSV must equal
    (E - zeta u)^{-1} within eps_eq; a point missing or off counts as failed."""
    points = _grid_points()
    size = _size(out) + _size(out + ".csv")
    report = _read_report(out)
    if code != 0 or report is None:
        return Score(len(points), Counter({"no_report" if code == 0 else "bad_exit": len(points)}), size)
    by_zeta = {}
    for entry in report.get("points", ()):
        m = np.asarray(entry["matrix"], dtype=float)
        by_zeta[complex(*entry["zeta"])] = m[..., 0] + 1j * m[..., 1]
    rows, bad = _read_csv(out + ".csv")
    n = u.shape[0]
    kinds = Counter()
    for z in points:
        want = sc.resolvent_oracle(u, z)
        got = next((m for key, m in by_zeta.items() if abs(key - z) <= 1e-12), None)
        if got is None or got.shape != want.shape or np.max(np.abs(got - want)) > eps_eq:
            kinds["json_value"] += 1
            continue
        sel = rows[(np.abs(rows[:, 0] - z.real) <= 1e-12) & (np.abs(rows[:, 1] - z.imag) <= 1e-12)]
        csv = np.full((n, n), np.nan, dtype=complex)
        csv[sel[:, 2].astype(int), sel[:, 3].astype(int)] = sel[:, 4] + 1j * sel[:, 5]
        if len(sel) != n * n or not np.max(np.abs(csv - want)) <= eps_eq:
            kinds["csv_value"] += 1
    return Score(sum(kinds.values()), kinds, size, bad_tokens=bad)


def _prepare_grid(w: Workload, rng: np.random.Generator, workdir: str) -> Schedule:
    out = os.path.join(workdir, "report.json")
    paths, unitaries = [], []
    for i in range(w.scenarios):
        u = sc.haar_unitary(rng, w.n)
        z0 = cmath.rect(rng.uniform(0.2, 0.5), rng.uniform(0, 2 * math.pi))
        path = os.path.join(workdir, f"grid-{i}.json")
        sc.write_json(path, sc.restriction_scenario(u, w.d, z0))
        paths.append(path)
        unitaries.append(u)

    def make(k: int) -> Command:
        i = k % len(paths)
        return Command(
            [paths[i], "resolvent", "--grid", "4", "--out", out],
            len(_grid_points()),
            lambda code: _check_grid(unitaries[i], out, code, sc.TOLER["eps_eq"]),
            (out, out + ".csv"),
        )

    return Schedule(make, paths)


# ------------------------------------------------------------------ scan


def _check_scan(angles: np.ndarray, arc, out: str, code: int | None) -> Score:
    verdict = sc.score_gap_scan(code, _read_report(out), sc.atoms_inside(angles, arc))
    failed = int(verdict.kind != "ok")
    return Score(failed, Counter({verdict.kind: failed}), _size(out), verdict.samples)


def _prepare_scan(w: Workload, rng: np.random.Generator, workdir: str) -> Schedule:
    """Per scenario, gap arcs and single-atom arcs alternate in the schedule."""
    out = os.path.join(workdir, "report.json")
    paths, jobs = [], []
    for i in range(w.scenarios):
        u = sc.haar_unitary(rng, w.n)
        angles = sc.obstruction_angles(u)
        path = os.path.join(workdir, f"scan-{i}.json")
        sc.write_json(path, sc.restriction_scenario(u, w.d, 0j))
        paths.append(path)
        gaps = sc.gap_arcs(angles, rng, w.arcs_per_kind)
        atoms = sc.atom_arcs(angles, rng, w.arcs_per_kind)
        for gap, atom in zip(gaps, atoms):
            jobs += [(path, angles, gap), (path, angles, atom)]

    def make(k: int) -> Command:
        path, angles, arc = jobs[k % len(jobs)]
        argv = [path, "gap-scan", "--arc", repr(arc[0]), repr(arc[1]), "--samples", "16", "--out", out]
        return Command(argv, 1, lambda code: _check_scan(angles, arc, out, code), (out,))

    return Schedule(make, paths)


# ---------------------------------------------------------------- verify


def _check_verify(out: str, code: int | None) -> Score:
    report = _read_report(out)
    ok = code == 0 and report is not None and report.get("all_passed") is True
    return Score(int(not ok), Counter() if ok else Counter({"suite_failed": 1}), _size(out))


def _prepare_verify(w: Workload, rng: np.random.Generator, workdir: str) -> Schedule:
    """Command k runs the suite with seed k.  The suites' work varies with
    their seed, so every run takes the same seed sequence and only the
    scenario comes from the benchmark seed; with a random sequence per run
    the median command time spread about 1.5 times as wide."""
    out = os.path.join(workdir, "report.json")
    path = os.path.join(workdir, "verify.json")
    sc.write_json(path, sc.restriction_scenario(sc.haar_unitary(rng, w.n), w.d, 0j))

    def make(k: int) -> Command:
        argv = [path, "verify", "--seed", str(k), "--out", out]
        return Command(argv, 1, lambda code: _check_verify(out, code), (out,))

    return Schedule(make, [path])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-n128",
            "resolvent --grid at n=128, 0.2<=|z0|<=0.5: general-base-point resolvent path and n^2-entry JSON/CSV output",
            "value", _prepare_grid, n=128, d=124, scenarios=3, counted=2,
        ),
        Workload(
            "scan-n64",
            "gap-scan, 16 samples at n=64: defect geometry and SVDs per arc sample; half the arcs hold one atom",
            "arc", _prepare_scan, n=64, d=60, scenarios=4, block=2, counted=8,
        ),
        Workload(
            "verify-n8",
            "verify suites at n=8 with a new seed per command: interpreter-bound, ~600 tiny random operators each",
            "suite", _prepare_verify, n=8, d=6, scenarios=1, counted=6,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """A seconds-long version of ``w`` for the benchmark's own tests."""
    small = {"grid-n128": dict(n=16, d=12), "scan-n64": dict(n=16, d=12, arcs_per_kind=2)}
    return replace(w, counted=w.block, setup_children=2, **small.get(w.name, {}))
