"""Seeded scenario files and the oracles that score the CLI's outputs.

Every scenario is built from a unitary U that the benchmark draws itself:
V is U restricted to the first d coordinates and the constant parameter is
read off U in the package's canonical defect bases, so the orthogonal
extension the CLI assembles is U again.  The oracles then need nothing but
U: resolvent values are (E - zeta U)^{-1} on both branches, and an arc of
the circle holds an obstruction exactly where lambda = conj(mu) for an
eigenvalue mu of U.  No oracle calls a formula of the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Written into every scenario so the CLI and the oracle read one policy.
TOLER = {"eps_rank": 1e-9, "eps_eq": 1e-8, "eps_unit": 1e-8}


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Ginibre matrix, R's diagonal phases absorbed."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _cx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _columns(m: np.ndarray) -> list:
    return [[_cx(m[i, j]) for i in range(m.shape[0])] for j in range(m.shape[1])]


def _rows(m: np.ndarray) -> list:
    return [[_cx(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]


def canonical_defect_bases(domain: np.ndarray, image: np.ndarray, z0: complex):
    """Bases of N_{z0} and N_{1/conj z0} as the package computes them.

    The scenario's parameter matrix is only meaningful in these bases, so
    they are the one thing taken from the package; the oracle never uses
    them.
    """
    from isoresolvent.isometry import IsometricOperator, defect_spaces, reflected_point
    from isoresolvent.numerics import TolerancePolicy

    tol = TolerancePolicy(**TOLER)
    v = IsometricOperator(domain.shape[0], domain, image)
    src = defect_spaces(v, z0, tol).n.basis
    dst = defect_spaces(v, reflected_point(z0), tol).n.basis
    return src, dst


def scenario_doc(domain: np.ndarray, image: np.ndarray, z0: complex, c: np.ndarray) -> dict:
    return {
        "ambient_dim": int(domain.shape[0]),
        "domain_basis": _columns(domain),
        "image_basis": _columns(image),
        "z0": _cx(z0),
        "family": {"kind": "constant", "matrix": _rows(c)},
        "toler": dict(TOLER),
    }


def restriction_scenario(u: np.ndarray, d: int, z0: complex) -> dict:
    """Scenario whose orthogonal extension at z0 is the unitary ``u``.

    V = u on span(e_1..e_d).  The parameter is the compression of the
    Cayley image W = (u - conj(z0) E)(E - z0 u)^{-1} (W = u at z0 = 0) to
    N_{z0} -> N_{1/conj z0}; W maps one defect space onto the other, so the
    parameter is unitary and the extension it defines is u itself.
    """
    n = u.shape[0]
    eye = np.eye(n, dtype=complex)
    domain, image = eye[:, :d], u[:, :d]
    src, dst = canonical_defect_bases(domain, image, z0)
    w = u if z0 == 0 else (u - z0.conjugate() * eye) @ np.linalg.inv(eye - z0 * u)
    return scenario_doc(domain, image, z0, dst.conj().T @ w @ src)


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------- oracles


def resolvent_oracle(u: np.ndarray, zeta: complex) -> np.ndarray:
    """(E - zeta u)^{-1}: the resolvent of a unitary extension on both branches."""
    eye = np.eye(u.shape[0], dtype=complex)
    return np.linalg.solve(eye - zeta * u, eye)


def obstruction_angles(u: np.ndarray) -> np.ndarray:
    """Sorted angles in [0, 2 pi) of the boundary points lambda = conj(mu)."""
    mu = np.linalg.eigvals(u)
    return np.sort(np.mod(-np.angle(mu), TWO_PI))


def atoms_inside(angles: np.ndarray, arc: tuple[float, float]) -> int:
    return int(np.count_nonzero((angles > arc[0]) & (angles < arc[1])))


@dataclass(frozen=True)
class ArcVerdict:
    """Oracle score of one gap-scan command: ``kind`` is ``ok`` or the failure."""

    kind: str
    verdict: str
    samples: int


def score_gap_scan(exit_code: int, report: dict | None, atoms: int) -> ArcVerdict:
    """Compare a gap-scan report with the number of atoms inside its arc.

    An arc with no atom must come back GAP_CERTIFIED with exit 0; an arc
    holding an atom must come back NOT_CERTIFIED with exit 2.  A
    certificate on an arc with an atom is a false certificate; a refusal on
    an atom-free arc is a false rejection.
    """
    if report is None:
        return ArcVerdict("no_report", "", 0)
    verdict = report.get("verdict", "")
    samples = len(report.get("samples", ()))
    if verdict == "PRECONDITION_VIOLATED":
        return ArcVerdict("precondition", verdict, samples)
    if atoms == 0:
        if verdict == "GAP_CERTIFIED":
            return ArcVerdict("ok" if exit_code == 0 else "bad_exit", verdict, samples)
        return ArcVerdict("false_rejection", verdict, samples)
    if verdict == "GAP_CERTIFIED":
        return ArcVerdict("false_certificate", verdict, samples)
    if verdict == "NOT_CERTIFIED":
        return ArcVerdict("ok" if exit_code == 2 else "bad_exit", verdict, samples)
    return ArcVerdict("bad_verdict", verdict, samples)


def gap_arcs(angles: np.ndarray, rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    """Arcs between neighbouring obstructions, a fifth of the gap kept free at each end."""
    gaps = np.diff(angles)
    candidates = np.flatnonzero(gaps >= 0.05)
    picks = rng.choice(candidates, size=count, replace=False)
    out = []
    for k in sorted(picks):
        margin = 0.2 * gaps[k]
        out.append((float(angles[k] + margin), float(angles[k + 1] - margin)))
    return out


def atom_arcs(
    angles: np.ndarray, rng: np.random.Generator, count: int, width: float = 0.2, margin: float = 0.005
) -> list[tuple[float, float]]:
    """Arcs ``width`` wide holding exactly one obstruction at a seeded offset.

    The atom sits at a fraction f of the arc, f drawn inside [0.1, 0.9] and
    inside the range that keeps both neighbours ``margin`` outside the arc.
    Atoms next to the 0 / 2 pi seam are skipped so arcs never wrap.
    """
    out = []
    for k in rng.permutation(np.arange(1, len(angles) - 1)):
        left = angles[k] - angles[k - 1] - margin
        right = angles[k + 1] - angles[k] - margin
        lo, hi = max(0.1, 1.0 - right / width), min(0.9, left / width)
        if lo >= hi:
            continue
        f = rng.uniform(lo, hi)
        t1, t2 = angles[k] - f * width, angles[k] + (1.0 - f) * width
        if t1 <= 0.0 or t2 >= TWO_PI:
            continue
        out.append((float(t1), float(t2)))
        if len(out) == count:
            return out
    raise ValueError(f"only {len(out)} isolated atoms for {count} arcs")
