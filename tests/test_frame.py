"""DefectFrame: geometry computed once per (V, z0), agreement with direct formulas."""

import json
import sys
from collections import Counter

import numpy as np
import pytest

import isoresolvent.isometry
import isoresolvent.numerics
import isoresolvent.transforms
from isoresolvent import (
    DEFAULT_TOL,
    ContractionOp,
    DefectFrame,
    IsometricOperator,
    ResolventFn,
    TolerancePolicy,
    arc_scan,
    blaschke_family,
    constant_family,
    continuation_consistency,
    defect_spaces,
    extend_full,
    herglotz_check,
    orthogonal_extension,
    reflected_point,
)
from isoresolvent.cli import main, parse_scenario
from isoresolvent.numerics import operator_norm
from isoresolvent.sampling import random_parameter, random_unitary

Z0_CASES = [0j, 0.3 - 0.2j]


def restriction(rng, n, d, z0):
    """(V, C, U): V = U on span(e_1..e_d), C read off U in the canonical
    defect bases at z0, so the orthogonal extension defined by C is U."""
    u = random_unitary(rng, n)
    eye = np.eye(n, dtype=complex)
    v = IsometricOperator(n, eye[:, :d], u[:, :d])
    src = defect_spaces(v, z0).n
    dst = defect_spaces(v, reflected_point(z0)).n
    w = u if z0 == 0 else (u - np.conj(z0) * eye) @ np.linalg.inv(eye - z0 * u)
    return v, ContractionOp(src, dst, dst.basis.conj().T @ w @ src.basis), u


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace ``fn`` at every module binding of the package."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isoresolvent":
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, replacement)


def count_calls(monkeypatch, *functions):
    """Count calls of each function, keyed by its name."""
    counts = Counter()
    for fn in functions:

        def wrapped(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        patch_everywhere(monkeypatch, fn, wrapped)
    return counts


class TestCallCounts:
    @pytest.mark.parametrize("z0", Z0_CASES)
    @pytest.mark.parametrize("k", [1, 16])
    def test_arc_scan_constant_family(self, monkeypatch, rng, z0, k):
        v, c, _ = restriction(rng, 10, 7, z0)
        fam = constant_family(c, z0)
        counts = count_calls(
            monkeypatch, isoresolvent.isometry.defect_spaces, isoresolvent.transforms.cayley
        )
        report = arc_scan(v, fam, (0.1, 1.3), n_samples=k)
        assert len(report.samples) == k
        assert counts["defect_spaces"] <= k + 4
        assert counts["cayley"] <= 1

    @pytest.mark.parametrize("z0", Z0_CASES)
    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_resolvent_evaluations(self, monkeypatch, rng, z0, m):
        v, c, _ = restriction(rng, 8, 5, z0)
        fam = constant_family(c, z0)
        counts = count_calls(monkeypatch, isoresolvent.isometry.defect_spaces)
        r = ResolventFn(v, fam)
        for j in range(m):
            zeta = 0.7 * np.exp(0.4j * j)
            r.at(zeta if j % 2 else 1.0 / np.conj(zeta))
        assert counts["defect_spaces"] <= 2


class TestSharedFrame:
    def test_of_keeps_the_last_frame_on_the_operator(self, rng):
        v, _, _ = restriction(rng, 6, 4, 0j)
        frame = DefectFrame.of(v, 0.2j)
        assert DefectFrame.of(v, 0.2j) is frame
        assert DefectFrame.of(v, 0.2j, TolerancePolicy()) is frame  # equal policy
        finer = TolerancePolicy(eps_rank=1e-10)
        by_tol = DefectFrame.of(v, 0.2j, finer)
        assert by_tol is not frame and by_tol.tol == finer
        assert DefectFrame.of(v, 0.2j, finer) is by_tol
        by_z0 = DefectFrame.of(v, 0.3, finer)
        assert by_z0 is not by_tol and by_z0.z0 == 0.3
        assert v._frame == [by_z0]  # one kept frame: the earlier ones are gone
        assert DefectFrame.of(v, 0.2j) is not frame
        twin = IsometricOperator(6, v.domain_basis, v.image_basis)
        assert DefectFrame.of(twin, 0.2j) is not DefectFrame.of(v, 0.2j)

    @pytest.mark.parametrize("z0", Z0_CASES)
    def test_parameter_and_resolvent_share_the_geometry(self, monkeypatch, rng, z0):
        u = random_unitary(rng, 7)
        v = IsometricOperator(7, np.eye(7, dtype=complex)[:, :4], u[:, :4])
        counts = count_calls(
            monkeypatch, isoresolvent.isometry.defect_spaces, isoresolvent.numerics.subspace_gap
        )
        c = random_parameter(rng, v, z0)
        r = ResolventFn(v, constant_family(c, z0))
        r.at(0.4 - 0.3j)
        r.at(2.0 + 0.5j)
        assert counts == {"defect_spaces": 2}

    @pytest.mark.parametrize("z0", Z0_CASES)
    def test_unitary_resolvent_values_take_no_svd(self, monkeypatch, rng, z0):
        """1 - |zeta| ||T|| >= 0.1 clears the rank cutoff, on either branch."""
        v, c, _ = restriction(rng, 8, 5, z0)
        r = ResolventFn(v, constant_family(c, z0))
        r.at(0.0)  # assembles the extension
        counts = count_calls(monkeypatch, isoresolvent.numerics.singular_values)
        for j in range(12):
            zeta = 0.9 * (j + 1) / 12 * np.exp(0.5j * j)
            r.at(zeta)
            r.at(1.0 / np.conj(zeta))
        assert counts["singular_values"] == 0

    @pytest.mark.parametrize("z0, svds", [(0j, 1), (0.3 - 0.2j, 3)])
    def test_extension_norms(self, monkeypatch, rng, z0, svds):
        """At z0 = 0 the plus extension's norm is the orthogonal extension's;
        otherwise the norms of the plus extension, the inverse and the result."""
        v, c, _ = restriction(rng, 8, 5, z0)
        frame = DefectFrame(v, z0)
        c = ContractionOp(frame.src, frame.dst, c.matrix)
        frame.transform_matrix
        counts = count_calls(
            monkeypatch, isoresolvent.numerics.operator_norm, isoresolvent.numerics.singular_values
        )
        ext = frame.extension(c)
        assert counts == {"operator_norm": svds, "singular_values": svds}
        assert ext.norm == operator_norm(ext.matrix)


class TestAgreement:
    @pytest.mark.parametrize("z0", Z0_CASES)
    def test_resolvent_equals_unitary_resolvent(self, rng, z0):
        v, c, u = restriction(rng, 12, 9, z0)
        r = ResolventFn(v, constant_family(c, z0))
        eye = np.eye(12, dtype=complex)
        for zeta in (0.0, 0.5j, -0.8 + 0.1j, 1.3, -0.4 - 2.0j):
            want = np.linalg.inv(eye - zeta * u)
            assert np.max(np.abs(r.at(zeta) - want)) <= DEFAULT_TOL.eps_eq

    @pytest.mark.parametrize("z0", Z0_CASES)
    def test_blaschke_scan_sigma_direct(self, rng, z0):
        n, d, a = 10, 7, 0.4 + 0.3j
        v, c, _ = restriction(rng, n, d, z0)
        fam = blaschke_family(a, c, z0)
        report = arc_scan(v, fam, (0.2, 2.9), n_samples=12)
        # T(lam) from its defining formulas, with no frame: the Cayley
        # transform W = (V - conj(z0)) (E - z0 V)^{-1} on M_{z0}, plus the
        # parameter in the canonical bases, then the inverse Cayley step.
        eye = np.eye(n, dtype=complex)
        dom, img = v.domain_basis, v.image_basis
        w = (img - np.conj(z0) * dom) @ np.linalg.pinv(dom - z0 * img)
        src, dst = defect_spaces(v, z0).n.basis, defect_spaces(v, reflected_point(z0)).n.basis
        for s in report.samples:
            lam = s.point
            b = (lam - a) / (1.0 - np.conj(a) * lam)
            plus = w + dst @ (b * c.matrix) @ src.conj().T
            if z0 == 0:
                t = plus
            else:
                t = eye / z0 + ((abs(z0) ** 2 - 1.0) / z0) * np.linalg.inv(eye + z0 * plus)
            want = np.linalg.svd(eye - lam * t, compute_uv=False)[-1]
            assert abs(s.sigma_direct - want) <= 1e-10


class TestFrame:
    def test_geometry_is_computed_once(self, monkeypatch, rng):
        """N_{z0} and the Cayley transform share one factorization of
        (domain - z0 * image); the reflected pair takes the other."""
        for z0 in (0.2j, 0j):
            v, c, _ = restriction(rng, 6, 4, z0)
            counts = count_calls(
                monkeypatch,
                isoresolvent.isometry.defect_spaces,
                isoresolvent.transforms.cayley,
                isoresolvent.numerics._mgs,
            )
            frame = DefectFrame(v, z0)
            assert not counts  # lazy
            for _ in range(3):
                frame.src, frame.dst, frame.reflected.m, frame.transform_matrix
            assert counts == {"defect_spaces": 2, "_mgs": 2}
            monkeypatch.undo()
            w = isoresolvent.transforms.cayley(v, z0)
            assert np.array_equal(frame.transform.domain_basis, w.domain_basis)
            assert np.array_equal(frame.transform.image_basis, w.image_basis)

    def test_constant_extension_is_assembled_once(self, rng):
        v, c, _ = restriction(rng, 6, 4, 0.2j)
        frame = DefectFrame(v, 0.2j)
        ext = frame.extension(c)
        assert frame.extension(c) is ext
        direct = orthogonal_extension(v, 0.2j, c)
        assert np.array_equal(ext.matrix, direct.matrix)

    def test_resolvent_policy_serves_every_evaluation(self, monkeypatch, rng):
        """One policy per resolvent: values, both branches, Herglotz samples and
        the boundary gluing all run on the resolvent's own frame."""
        policy = TolerancePolicy(eps_rank=1e-10, eps_eq=1e-9, eps_unit=1e-9)
        v, c, _ = restriction(rng, 6, 4, 0.2j)
        seen = []
        original = isoresolvent.isometry.defect_spaces

        def spy(v, zeta, tol=DEFAULT_TOL):
            seen.append(tol)
            return original(v, zeta, tol)

        patch_everywhere(monkeypatch, original, spy)
        r = ResolventFn(v, constant_family(c, 0.2j), tol=policy)
        calls = len(seen)
        r.at(0.5)
        r.at(-2.0j)
        herglotz_check(r, [0.1, 0.6j], [np.ones(6)])
        continuation_consistency(r, np.exp(0.7j))
        assert len(seen) == calls <= 2
        assert all(tol == policy for tol in seen)

    def test_one_space_check_for_parameters_and_families(self, rng):
        z0 = 0.2j
        v, c, _ = restriction(rng, 6, 4, z0)
        other, _, _ = restriction(rng, 6, 4, z0)
        frame = DefectFrame(other, z0)
        assert frame.space_violations(c) == [
            "parameter source does not match the defect space at z0",
            "parameter target does not match the reflected defect space",
        ]
        assert frame.space_violations(constant_family(c, z0), "family")[0].startswith("family source")
        assert DefectFrame(v, z0).space_violations(c) == []
        with pytest.raises(ValueError, match="family source"):
            ResolventFn(other, constant_family(c, z0))
        with pytest.raises(ValueError, match="parameter source"):
            extend_full(other, z0, c)


def test_scenario_tolerance_reaches_every_defect_computation(monkeypatch, tmp_path, capsys):
    """The scenario's policy, not DEFAULT_TOL, governs the resolvent command."""
    toler = {"eps_rank": 1e-10, "eps_eq": 1e-9, "eps_unit": 1e-9}
    doc = {
        "ambient_dim": 2,
        "domain_basis": [[[1, 0], [0, 0]]],
        "image_basis": [[[0, 0], [1, 0]]],
        "z0": [0.2, 0.1],
        "family": {"kind": "constant", "matrix": [[[0.5, 0]]]},
        "toler": toler,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    policy = TolerancePolicy(**toler)
    assert parse_scenario(path.read_text()).tol == policy

    seen = []
    original = isoresolvent.isometry.defect_spaces

    def spy(v, zeta, tol=DEFAULT_TOL):
        seen.append(tol)
        return original(v, zeta, tol)

    patch_everywhere(monkeypatch, original, spy)
    assert main([str(path), "resolvent", "--zeta", "0.5", "0.25"]) == 0
    capsys.readouterr()
    assert seen and all(tol == policy for tol in seen)
