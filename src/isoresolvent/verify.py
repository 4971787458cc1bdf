"""Property suite behind the CLI ``verify`` command.

Runs the library's cross-checking identities on the scenario operator plus a
seeded batch of random instances and reports pass/fail per property.  Counts
are sized so the whole suite stays interactive; the pytest acceptance module
runs the same checks at full volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .extensions import (
    DefectFrame,
    ParameterFamily,
    constant_family,
    orthogonal_extension,
    validate_family,
)
from .gap import eigen_criterion, surjectivity_criterion
from .isometry import (
    IsometricOperator,
    decompositions,
    projection_identity_residual,
    regular_type,
)
from .numerics import DEFAULT_TOL, TolerancePolicy, identity, max_abs
from .resolvents import ResolventFn, exterior_value, herglotz_check, inin, verify_inversion
from .transforms import regular_type_correspondence, relate_resolvents

__all__ = ["PropertyResult", "run_property_suite"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> PropertyResult:
    return PropertyResult(name, bool(passed), detail)


def run_property_suite(
    v: IsometricOperator,
    fam: ParameterFamily,
    seed: int = 0,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[PropertyResult]:
    """Run every property on ``v`` and ``fam`` (at the family's base point)
    and on random instances drawn from ``seed``, all under ``tol``."""
    rng = np.random.default_rng(seed)
    results: list[PropertyResult] = []
    n = v.ambient_dim

    # Scenario family sanity.
    grid = sampling.disk_grid(12)
    report = validate_family(fam, v, grid, tol)
    results.append(
        _result(
            "scenario_family_contractive",
            report.ok,
            "; ".join(report.violations) if report.violations else "all sampled values contractive",
        )
    )

    # Resolvent at the origin is the identity for every parameter value (a
    # table has none at 0, so its first value stands in).
    try:
        fam0 = constant_family(fam.table[0][1], fam.z0) if fam.kind == "table" else fam
        r0 = inin(v, fam0, 0.0, tol)
        dev = max_abs(r0 - identity(n))
        results.append(_result("resolvent_at_origin_is_identity", dev <= tol.eps_eq, f"max deviation {dev:.2e}"))
    except Exception as exc:
        results.append(_result("resolvent_at_origin_is_identity", False, repr(exc)))

    # Rebase equivalence: the general-base formula agrees with the base-0
    # formula once the constant parameter is translated.
    worst = 0.0
    count = 0
    for _ in range(10):
        vv = sampling.random_isometry(rng, n_max=6)
        zz = sampling.random_disk_point(rng, 0.0, 0.6)
        c = sampling.random_parameter(rng, vv, zz, tol)
        r_z = ResolventFn(vv, constant_family(c, zz), tol=tol)
        frame_0 = DefectFrame.of(vv, 0j, tol)
        f0 = frame_0.recover_parameter(r_z.frame.extension(c))
        r_0 = ResolventFn(vv, constant_family(f0, 0.0), tol=tol)
        for zeta in sampling.disk_grid(6):
            a = r_z.interior(zeta)
            b = r_0.interior(zeta)
            worst = max(worst, max_abs(a - b))
            count += 1
    results.append(
        _result("rebase_equivalence", worst <= 10 * tol.eps_eq, f"{count} grid points, max deviation {worst:.2e}")
    )

    # Resolvent relation between V and its Cayley transform.
    worst = 0.0
    for _ in range(10):
        vv = sampling.random_isometry(rng, n_max=6)
        zz = sampling.random_disk_point(rng, 0.15, 0.6)
        c = sampling.random_parameter(rng, vv, zz, tol)
        famz = constant_family(c, zz)
        w = DefectFrame.of(vv, zz, tol).transform
        fam_inner = constant_family(c, 0.0)
        r_outer = ResolventFn(vv, famz, tol=tol)
        r_inner = ResolventFn(w, fam_inner, tol=tol)
        for _ in range(4):
            u = sampling.random_disk_point(rng, 0.0, 0.85)
            if min(abs(u), abs(u - zz)) < 0.05:
                continue
            t = (u - zz) / (1.0 - zz.conjugate() * u)
            got = relate_resolvents(r_inner.at(t), zz, u, tol)
            want = r_outer.at(u)
            worst = max(worst, max_abs(got - want))
    results.append(_result("resolvent_rebase_relation", worst <= 10 * tol.eps_eq, f"max deviation {worst:.2e}"))

    # Regular-type correspondence through the Cayley transform.
    mismatches = 0
    for _ in range(100):
        vv = sampling.random_isometry(rng, n_max=6)
        zz = sampling.random_disk_point(rng, 0.05, 0.8)
        zeta = sampling.random_disk_point(rng, 0.1, 2.5)
        if abs(abs(zeta) - 1.0) < 0.02 or abs(zeta) < 0.05 or abs(zeta - zz) < 0.05:
            continue
        check = regular_type_correspondence(vv, zz, zeta, tol)
        if check.cond_i != check.cond_ii:
            mismatches += 1
    results.append(_result("regular_type_correspondence", mismatches == 0, f"{mismatches} mismatches"))

    # Boundary decompositions of H.
    failures = 0
    for _ in range(40):
        vv = sampling.random_isometry(rng, n_max=6)
        lam = sampling.regular_boundary_point(rng, vv)
        rep = decompositions(vv, lam, tol)
        if not rep.all_direct_and_spanning:
            failures += 1
    results.append(_result("boundary_decompositions", failures == 0, f"{failures} failing draws"))

    # Defect projection identity on the boundary.
    worst = 0.0
    for _ in range(40):
        vv = sampling.random_isometry(rng, n_max=6)
        lam = sampling.random_boundary_point(rng)
        worst = max(worst, projection_identity_residual(vv, lam, tol))
    results.append(_result("defect_projection_identity", worst <= tol.eps_eq, f"max residual {worst:.2e}"))

    # Eigenvalue criterion against a direct eigensolve.
    disagreements = 0
    for _ in range(25):
        vv = sampling.random_isometry(rng, n_max=6)
        frame0 = DefectFrame.of(vv, 0j, tol)
        if frame0.src.dim == 0:
            continue
        c = sampling.random_unitary_parameter(rng, vv, tol=tol)
        t = frame0.plus_extension(c)
        eigs = np.linalg.eigvals(t.matrix)
        for mu in eigs:
            lam = complex(mu).conjugate()
            if regular_type(vv, complex(mu), tol).sigma_min <= sampling.REGULAR_MARGIN:
                continue
            if not eigen_criterion(vv, c, lam, tol).is_eigenvalue:
                disagreements += 1
        for _ in range(5):
            lam = sampling.random_boundary_point(rng)
            mu = lam.conjugate()
            if regular_type(vv, mu, tol).sigma_min <= sampling.REGULAR_MARGIN:
                continue
            if min(abs(np.angle(np.asarray(eigs) / mu))) < sampling.REGULAR_MARGIN:
                continue
            if eigen_criterion(vv, c, lam, tol).is_eigenvalue:
                disagreements += 1
    results.append(_result("eigenvalue_criterion_agreement", disagreements == 0, f"{disagreements} disagreements"))

    # Surjectivity criterion routes agree.
    disagreements = 0
    for _ in range(25):
        vv = sampling.random_isometry(rng, n_max=6)
        c = sampling.random_parameter(rng, vv, tol=tol)
        lam = sampling.regular_boundary_point(rng, vv)
        rep = surjectivity_criterion(vv, c, lam, tol)
        if rep.surjective != rep.crosscheck_rank:
            disagreements += 1
    results.append(_result("surjectivity_routes_agree", disagreements == 0, f"{disagreements} disagreements"))

    # Inversion formula for in-space unitary extensions.
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        u = sampling.random_unitary(rng, dim)
        samples = []
        for _ in range(8):
            z = sampling.random_disk_point(rng, 0.0, 0.9)
            h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            samples.append((z, h, g))
        worst = max(worst, verify_inversion(u, samples, tol))
    results.append(_result("inversion_formula", worst <= 10 * tol.eps_eq, f"max residual {worst:.2e}"))

    # Exterior branch against direct inversion of a unitary extension.
    worst = 0.0
    for _ in range(15):
        vv = sampling.random_isometry(rng, n_max=6)
        frame = DefectFrame.of(vv, 0j, tol)
        if frame.src.dim != frame.dst.dim:
            continue
        c = sampling.random_unitary_parameter(rng, vv, tol=tol)
        famu = constant_family(c, 0.0)
        r = ResolventFn(vv, famu, tol=tol)
        u = r.frame.extension(c).matrix
        for _ in range(3):
            z = (1.2 + rng.uniform(0.0, 1.5)) * sampling.random_boundary_point(rng)
            direct = np.linalg.solve(identity(vv.ambient_dim) - z * u, identity(vv.ambient_dim))
            worst = max(worst, max_abs(exterior_value(r, z) - direct))
    results.append(_result("exterior_branch", worst <= 10 * tol.eps_eq, f"max deviation {worst:.2e}"))

    # Herglotz positivity of the sampled disk function.
    minimum = math.inf
    for _ in range(40):
        vv = sampling.random_isometry(rng, n_max=6)
        c = sampling.random_parameter(rng, vv, tol=tol)
        r = ResolventFn(vv, constant_family(c, 0.0), tol=tol)
        zs = [sampling.random_disk_point(rng, 0.0, 0.9) for _ in range(3)]
        hs = [rng.standard_normal(vv.ambient_dim) + 1j * rng.standard_normal(vv.ambient_dim)]
        minimum = min(minimum, herglotz_check(r, zs, hs))
    results.append(_result("herglotz_positivity", minimum >= -tol.eps_eq, f"min real part {minimum:.2e}"))

    # Base-point independence of the orthogonal extension.
    worst = 0.0
    for _ in range(15):
        vv = sampling.random_isometry(rng, n_max=6)
        za = sampling.random_disk_point(rng, 0.05, 0.6)
        c = sampling.random_parameter(rng, vv, za, tol)
        ext_a = orthogonal_extension(vv, za, c, tol)
        for zb in (0.3 + 0j, -0.2 + 0.4j, 0.5j):
            frame_b = DefectFrame.of(vv, zb, tol)
            cb = frame_b.recover_parameter(ext_a)
            ext_b = frame_b.extension(cb)
            worst = max(worst, max_abs(ext_b.matrix - ext_a.matrix))
    results.append(_result("base_point_independence", worst <= 10 * tol.eps_eq, f"max deviation {worst:.2e}"))

    # Parameter roundtrip through extension and recovery.
    worst = 0.0
    for _ in range(25):
        vv = sampling.random_isometry(rng, n_max=6)
        zz = sampling.random_disk_point(rng, 0.0, 0.6)
        c = sampling.random_parameter(rng, vv, zz, tol)
        frame_z = DefectFrame.of(vv, zz, tol)
        back = frame_z.recover_parameter(frame_z.extension(c))
        worst = max(worst, max_abs(back.matrix - c.matrix))
    results.append(_result("parameter_roundtrip", worst <= 10 * tol.eps_eq, f"max deviation {worst:.2e}"))

    return results
