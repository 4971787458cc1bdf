"""Acceptance suite: every criterion at its stated tolerance.

Each test evaluates one criterion, prints a single pass/fail line (visible
with ``pytest -s`` or in captured output on failure), and asserts it.  The
randomized criteria run at their full stated volumes with fixed seeds.
"""

import json
import math

import numpy as np

from isoresolvent import (
    IsometricOperator,
    ResolventFn,
    chumakin,
    constant_family,
    continuation_consistency,
    decompositions,
    defect_parameter,
    eigen_criterion,
    extend_full,
    exterior_value,
    herglotz_check,
    inin,
    max_abs,
    orthogonal_extension,
    projection_identity_residual,
    recover_parameter,
    regular_type,
    regular_type_correspondence,
    relate_resolvents,
    surjectivity_criterion,
    verify_inversion,
)
from isoresolvent.cli import main
from isoresolvent.sampling import (
    disk_grid,
    random_boundary_point,
    random_disk_point,
    random_isometry,
    random_parameter,
    random_unitary,
    random_unitary_parameter,
    regular_boundary_point,
)
from isoresolvent.transforms import cayley


def check(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def e1() -> IsometricOperator:
    return IsometricOperator(2, [[1], [0]], [[0], [1]])


def e1_scenario_doc(c: float = 1.0) -> str:
    return json.dumps(
        {
            "ambient_dim": 2,
            "domain_basis": [[[1, 0], [0, 0]]],
            "image_basis": [[[0, 0], [1, 0]]],
            "z0": [0, 0],
            "family": {"kind": "constant", "matrix": [[[c, 0]]]},
        }
    )


def test_01_chumakin_closed_form():
    v = e1()
    fam = constant_family(defect_parameter(v, 0.0, [[1.0]]), 0.0)
    got = chumakin(v, fam, 0.5)
    expect = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]], dtype=complex)
    dev = max_abs(got - expect)
    check("01 chumakin closed form", dev <= 1e-9, f"max deviation {dev:.2e}")


def test_02_inin_equals_chumakin():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(50):
        v = random_isometry(rng, n_max=8)
        z0 = random_disk_point(rng, 0.0, 0.6)
        c = random_parameter(rng, v, z0)
        fixed = orthogonal_extension(v, z0, c)
        fam_z0 = constant_family(c, z0)
        fam_0 = constant_family(recover_parameter(fixed, v, 0.0), 0.0)
        for zeta in disk_grid(20):
            dev = max_abs(inin(v, fam_z0, zeta) - chumakin(v, fam_0, zeta))
            worst = max(worst, dev)
    check("02 inin equals chumakin", worst <= 1e-8, f"max deviation {worst:.2e} over 50x20")


def test_03_resolvent_relation():
    rng = np.random.default_rng(1003)
    worst = 0.0
    instances = 0
    while instances < 50:
        v = random_isometry(rng, n_max=8)
        z0 = random_disk_point(rng, 0.15, 0.6)
        c = random_parameter(rng, v, z0)
        outer = ResolventFn(v, constant_family(c, z0))
        inner = ResolventFn(cayley(v, z0), constant_family(c, 0.0))
        interior = []
        while len(interior) < 10:
            u = random_disk_point(rng, 0.0, 0.85)
            if min(abs(u), abs(u - z0)) > 0.05:
                interior.append(u)
        exterior = []
        while len(exterior) < 5:
            u = rng.uniform(1.15, 3.0) * random_boundary_point(rng)
            if abs(u - 1.0 / z0.conjugate()) > 0.1:
                exterior.append(u)
        for u in interior + exterior:
            t = (u - z0) / (1.0 - z0.conjugate() * u)
            got = relate_resolvents(inner.at(t), z0, u)
            worst = max(worst, max_abs(got - outer.at(u)))
        instances += 1
    check("03 resolvent relation", worst <= 1e-8, f"max deviation {worst:.2e} over 50x15")


def test_04_inversion_formula():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        u = random_unitary(rng, n)
        samples = []
        for _ in range(30):
            z = random_disk_point(rng, 0.0, 0.9)
            h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            samples.append((z, h, g))
        worst = max(worst, verify_inversion(u, samples))
    check("04 inversion formula", worst <= 1e-8, f"max residual {worst:.2e} over 100x30")


def test_05_exterior_branch():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(10):
        v = random_isometry(rng, n_max=8)
        c = random_unitary_parameter(rng, v)
        r = ResolventFn(v, constant_family(c, 0.0))
        u = extend_full(v, 0.0, c).matrix
        for _ in range(10):
            z = rng.uniform(1.05, 2.95) * random_boundary_point(rng)
            direct = np.linalg.solve(np.eye(v.ambient_dim) - z * u, np.eye(v.ambient_dim))
            worst = max(worst, max_abs(exterior_value(r, z) - direct))
    check("05 exterior branch", worst <= 1e-8, f"max deviation {worst:.2e} at 10x10 points")


def test_06_regular_type_correspondence():
    rng = np.random.default_rng(1006)
    mismatches = 0
    draws = 0
    while draws < 500:
        v = random_isometry(rng, n_max=8)
        z0 = random_disk_point(rng, 0.05, 0.8)
        zeta = random_disk_point(rng, 0.1, 2.5)
        if abs(abs(zeta) - 1.0) < 0.02 or abs(zeta) < 0.05 or abs(zeta - z0) < 0.05:
            continue
        result = regular_type_correspondence(v, z0, zeta)
        if result.cond_i != result.cond_ii:
            mismatches += 1
        draws += 1
    check("06 regular type correspondence", mismatches == 0, f"{mismatches} mismatches in 500")


def test_07_boundary_decompositions():
    rng = np.random.default_rng(1007)
    failures = 0
    min_measure = math.inf
    for _ in range(200):
        v = random_isometry(rng, n_max=8)
        lam = regular_boundary_point(rng, v)
        report = decompositions(v, lam)
        if not report.all_direct_and_spanning:
            failures += 1
        min_measure = min(
            min_measure, min(c.directness_measure for c in report.entries.values())
        )
    check(
        "07 boundary decompositions",
        failures == 0 and min_measure > 1e-9,
        f"{failures} failures, min directness {min_measure:.2e}",
    )


def test_08_projection_identity_and_eigen_witnesses():
    rng = np.random.default_rng(1008)
    worst_identity = 0.0
    for _ in range(200):
        v = random_isometry(rng, n_max=8)
        lam = random_boundary_point(rng)
        worst_identity = max(worst_identity, projection_identity_residual(v, lam))
    worst_witness = 0.0
    witness_count = 0
    while witness_count < 60:
        v = random_isometry(rng, n_max=8, allow_full=False)
        c = random_unitary_parameter(rng, v)
        t = extend_full(v, 0.0, c).matrix
        for mu in np.linalg.eigvals(t):
            mu = complex(mu)
            if regular_type(v, mu).sigma_min <= 1e-3:
                continue
            res = eigen_criterion(v, c, mu.conjugate())
            if not res.is_eigenvalue:
                continue
            f = res.witness
            from isoresolvent import defect_spaces

            n_lam = defect_spaces(v, mu.conjugate()).n
            inside = n_lam.basis @ (n_lam.basis.conj().T @ f)
            worst_witness = max(worst_witness, float(np.linalg.norm(f - inside)))
            worst_witness = max(worst_witness, max_abs(t @ f - mu * f))
            witness_count += 1
    check(
        "08 projection identity and eigen witnesses",
        worst_identity <= 1e-8 and worst_witness <= 1e-7,
        f"identity {worst_identity:.2e} over 200, witnesses {worst_witness:.2e} over {witness_count}",
    )


def test_09_eigen_criterion_agreement():
    rng = np.random.default_rng(1009)
    detected = rejected = 0
    failures = 0
    for _ in range(300):
        v = random_isometry(rng, n_max=8)
        c = random_unitary_parameter(rng, v)
        t = extend_full(v, 0.0, c).matrix
        eigs = np.linalg.eigvals(t)
        for mu in eigs:
            mu = complex(mu)
            if regular_type(v, mu).sigma_min <= 1e-3:
                continue
            if not eigen_criterion(v, c, mu.conjugate()).is_eigenvalue:
                failures += 1
            detected += 1
        trials = 0
        while trials < 50:
            lam = random_boundary_point(rng)
            mu = lam.conjugate()
            trials += 1
            if regular_type(v, mu).sigma_min <= 1e-3:
                continue
            if float(np.min(np.abs(np.angle(eigs / mu)))) < 1e-3:
                continue
            if eigen_criterion(v, c, lam).is_eigenvalue:
                failures += 1
            rejected += 1
    check(
        "09 eigen criterion agreement",
        failures == 0,
        f"{failures} disagreements ({detected} eigenvalues, {rejected} rejections, 300 instances)",
    )


def test_10_surjectivity_routes_agree():
    rng = np.random.default_rng(1010)
    disagreements = 0
    for _ in range(300):
        v = random_isometry(rng, n_max=8)
        c = random_parameter(rng, v)
        lam = regular_boundary_point(rng, v)
        report = surjectivity_criterion(v, c, lam)
        if (report.cond_cw_onto and report.cond_pm) != report.crosscheck_rank:
            disagreements += 1
    check("10 surjectivity routes agree", disagreements == 0, f"{disagreements} of 300 disagree")


def test_11_gap_scan_end_to_end(tmp_path, capsys):
    v = e1()
    fam_unit = constant_family(defect_parameter(v, 0.0, [[1.0]]), 0.0)
    arc = (math.pi / 4, 3 * math.pi / 4)

    path = tmp_path / "e1.json"
    path.write_text(e1_scenario_doc(1.0))
    code = main([str(path), "gap-scan", "--arc", str(arc[0]), str(arc[1]), "--samples", "9"])
    out = json.loads(capsys.readouterr().out)
    certified = code == 0 and out["verdict"] == "GAP_CERTIFIED"

    r = ResolventFn(v, fam_unit)
    worst_cont = 0.0
    for j in range(9):
        t = arc[0] + (j + 1) * (arc[1] - arc[0]) / 10
        worst_cont = max(worst_cont, continuation_consistency(r, np.exp(1j * t)))

    path_half = tmp_path / "e1_half.json"
    path_half.write_text(e1_scenario_doc(0.5))
    code_half = main([str(path_half), "gap-scan", "--arc", str(arc[0]), str(arc[1]), "--samples", "9"])
    out_half = json.loads(capsys.readouterr().out)
    half_bad = (
        code_half == 2
        and out_half["verdict"] == "NOT_CERTIFIED"
        and all(not s["cond2"] for s in out_half["samples"])
    )

    # An arc whose samples land on a spectral atom of the extension (the
    # representable stand-in for an arc through an eigenvalue angle; angle 0
    # is never interior to a non-wrapping arc).
    code_atom = main(
        [str(path), "gap-scan", "--arc", str(math.pi / 2), str(3 * math.pi / 2), "--samples", "9"]
    )
    out_atom = json.loads(capsys.readouterr().out)
    atom_bad = (
        code_atom == 2
        and out_atom["verdict"] == "NOT_CERTIFIED"
        and any(s["failures"] == ["condition-3"] for s in out_atom["samples"])
    )
    check(
        "11 gap scan end to end",
        certified and worst_cont <= 1e-8 and half_bad and atom_bad,
        f"certified={certified}, continuation {worst_cont:.2e}, "
        f"contraction scan fails cond2={half_bad}, atom arc cond3 witness={atom_bad}",
    )


def test_12_base_point_independence():
    rng = np.random.default_rng(1012)
    worst = 0.0
    bases = (0.3 + 0j, -0.2 + 0.4j, 0.5j)
    for _ in range(50):
        v = random_isometry(rng, n_max=8)
        z_a = random_disk_point(rng, 0.05, 0.6)
        c = random_parameter(rng, v, z_a)
        ext = orthogonal_extension(v, z_a, c)
        for z_b in bases:
            c_b = recover_parameter(ext, v, z_b)
            ext_b = orthogonal_extension(v, z_b, c_b)
            worst = max(worst, max_abs(ext_b.matrix - ext.matrix))
    check("12 base point independence", worst <= 1e-8, f"max deviation {worst:.2e} over 50x3")


def test_13_herglotz_positivity():
    rng = np.random.default_rng(1013)
    minimum = math.inf
    samples = 0
    while samples < 500:
        v = random_isometry(rng, n_max=8)
        c = random_parameter(rng, v)
        r = ResolventFn(v, constant_family(c, 0.0))
        grid = [random_disk_point(rng, 0.0, 0.9) for _ in range(5)]
        vecs = [rng.standard_normal(v.ambient_dim) + 1j * rng.standard_normal(v.ambient_dim)]
        minimum = min(minimum, herglotz_check(r, grid, vecs))
        samples += 5
    check("13 herglotz positivity", minimum >= -1e-8, f"min real part {minimum:.2e} over 500")


def test_14_verify_determinism(tmp_path, capsys):
    path = tmp_path / "e1.json"
    path.write_text(e1_scenario_doc(1.0))
    code_a = main([str(path), "verify", "--seed", "7"])
    first = capsys.readouterr().out
    code_b = main([str(path), "verify", "--seed", "7"])
    second = capsys.readouterr().out
    report = json.loads(first)
    check(
        "14 verify determinism",
        code_a == 0 and code_b == 0 and first == second and report["all_passed"],
        f"identical={first == second}, exit codes ({code_a}, {code_b})",
    )
