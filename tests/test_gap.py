import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isoresolvent import (
    DEFAULT_TOL,
    GAP_CERTIFIED,
    NOT_CERTIFIED,
    IsometricOperator,
    PreconditionViolated,
    arc_scan,
    build_gap_operators,
    constant_family,
    defect_parameter,
    defect_spaces,
    eigen_criterion,
    extend_full,
    max_abs,
    orthogonal_extension,
    recover_parameter,
    surjectivity_criterion,
)
from isoresolvent.sampling import (
    random_isometry,
    random_boundary_point,
    random_parameter,
    random_unitary_parameter,
    regular_boundary_point,
)


class TestGapOperators:
    def test_e1_link_at_one(self, e1):
        ops = build_gap_operators(e1, 1.0)
        assert_allclose(ops.link.matrix, [[1.0]], atol=1e-12)
        assert_allclose(ops.link.src.basis, [[0], [1]], atol=1e-12)
        assert_allclose(ops.link.dst.basis, [[1], [0]], atol=1e-12)

    def test_e1_link_at_i(self, e1):
        # The link carries e2 to conj(lam)^2 e1 on this family of examples.
        ops = build_gap_operators(e1, 1j)
        assert_allclose(ops.link.matrix, [[-1.0]], atol=1e-12)

    def test_link_is_isometric_onto(self, rng):
        for _ in range(40):
            v = random_isometry(rng, n_max=8)
            lam = regular_boundary_point(rng, v)
            ops = build_gap_operators(v, lam)
            k = ops.link.src.dim
            assert ops.link.dst.dim == k
            if k:
                eye = np.eye(k)
                m = ops.link.matrix
                assert max_abs(m.conj().T @ m - eye) <= DEFAULT_TOL.eps_unit
                assert max_abs(m @ m.conj().T - eye) <= DEFAULT_TOL.eps_unit

    def test_defining_property_on_boundary_defect_basis(self, rng):
        # link * P_src f = scalar * P_dst f for every f in the boundary
        # defect space, for base point 0 and a general one.
        for z0 in (0j, 0.3 - 0.25j):
            for _ in range(15):
                v = random_isometry(rng, n_max=6)
                try:
                    lam = regular_boundary_point(rng, v)
                    ops = build_gap_operators(v, lam, z0)
                except PreconditionViolated:
                    continue
                f = ops.boundary_defect.basis
                lhs = ops.link.matrix @ (ops.link.src.basis.conj().T @ f)
                rhs = ops.scalar * (ops.link.dst.basis.conj().T @ f)
                assert max_abs(lhs - rhs) <= 1e-8

    def test_scalar_at_base_zero_is_conjugate(self, e1):
        lam = np.exp(0.43j)
        ops = build_gap_operators(e1, lam)
        assert ops.scalar == complex(lam).conjugate()

    def test_precondition_violated(self):
        v = IsometricOperator(1, [[1]], [[1]])
        with pytest.raises(PreconditionViolated):
            build_gap_operators(v, 1.0)

    def test_rejects_interior_lam(self, e1):
        with pytest.raises(ValueError):
            build_gap_operators(e1, 0.5)


class TestEigenCriterion:
    def test_hit_with_witness(self, e1):
        res = eigen_criterion(e1, defect_parameter(e1, 0.0, [[-1.0]]), 1j)
        assert res.is_eigenvalue
        t = np.array([[0, -1], [1, 0]], dtype=complex)
        f = res.witness
        assert max_abs(t @ f - (-1j) * f) <= 10 * DEFAULT_TOL.eps_eq
        n_lam = defect_spaces(e1, 1j).n
        inside = n_lam.basis @ (n_lam.basis.conj().T @ f)
        assert np.linalg.norm(f - inside) <= 1e-10

    def test_miss(self, e1):
        res = eigen_criterion(e1, defect_parameter(e1, 0.0, [[1.0]]), 1j)
        assert not res.is_eigenvalue

    def test_parameter_of_another_operator_rejected(self, e1):
        # A 1 x 1 parameter of e1 against the 2-dimensional defect spaces of
        # V e1 = e2 in C^3: both criteria name the mismatch.
        v = IsometricOperator(3, [[1], [0], [0]], [[0], [1], [0]])
        c = defect_parameter(e1, 0.0, [[-1.0]])
        for criterion in (eigen_criterion, surjectivity_criterion):
            with pytest.raises(ValueError, match="parameter source"):
                criterion(v, c, 1j)

    def test_agreement_with_direct_eigensolve(self, rng):
        for _ in range(40):
            v = random_isometry(rng, n_max=7)
            c = random_unitary_parameter(rng, v)
            t = extend_full(v, 0.0, c).matrix
            eigs = np.linalg.eigvals(t)
            for mu in eigs:
                mu = complex(mu)
                from isoresolvent import regular_type

                if regular_type(v, mu).sigma_min <= 1e-3:
                    continue
                assert eigen_criterion(v, c, mu.conjugate()).is_eigenvalue
            for _ in range(8):
                lam = random_boundary_point(rng)
                from isoresolvent import regular_type

                if regular_type(v, lam.conjugate()).sigma_min <= 1e-3:
                    continue
                if float(np.min(np.abs(np.angle(eigs / lam.conjugate())))) < 1e-3:
                    continue
                assert not eigen_criterion(v, c, lam).is_eigenvalue


class TestSurjectivityCriterion:
    def test_onto_case(self, e1):
        rep = surjectivity_criterion(e1, defect_parameter(e1, 0.0, [[1.0]]), 1j)
        assert rep.cond_cw_onto and rep.cond_pm and rep.crosscheck_rank and rep.surjective
        assert not rep.eigen

    def test_kernel_case(self, e1):
        rep = surjectivity_criterion(e1, defect_parameter(e1, 0.0, [[-1.0]]), 1j)
        assert not rep.cond_cw_onto and not rep.crosscheck_rank and not rep.surjective
        assert rep.eigen and rep.eigen_witness is not None

    def test_routes_agree_randomized(self, rng):
        for _ in range(60):
            v = random_isometry(rng, n_max=7)
            c = random_parameter(rng, v)
            lam = regular_boundary_point(rng, v)
            rep = surjectivity_criterion(v, c, lam)
            assert rep.surjective == rep.crosscheck_rank
            assert rep.cond_pm  # automatic in finite dimension


class TestArcScan:
    def certified_setup(self, e1):
        return constant_family(defect_parameter(e1, 0.0, [[1.0]]), 0.0)

    def test_gap_certified(self, e1):
        fam = self.certified_setup(e1)
        report = arc_scan(e1, fam, (math.pi / 4, 3 * math.pi / 4), 0.0, 9)
        assert report.verdict == GAP_CERTIFIED
        assert all(s.passed for s in report.samples)
        assert report.continuity_certification == "structural"

    def test_atom_hit_fails_condition_three(self, e1):
        # The middle sample of this arc lands exactly on the spectral atom at
        # angle pi, where the extension minus 1/lam is singular.
        fam = self.certified_setup(e1)
        report = arc_scan(e1, fam, (math.pi / 2, 3 * math.pi / 2), 0.0, 9)
        assert report.verdict == NOT_CERTIFIED
        bad = report.witnesses()
        assert len(bad) == 1 and bad[0].index == 4
        assert bad[0].failures() == ["condition-3"]
        assert bad[0].sigma_direct <= DEFAULT_TOL.eps_rank
        assert not bad[0].cond3_link and not bad[0].cond3_direct

    def test_strict_contraction_fails_condition_two_everywhere(self, e1):
        fam = constant_family(defect_parameter(e1, 0.0, [[0.5]]), 0.0)
        report = arc_scan(e1, fam, (math.pi / 4, 3 * math.pi / 4), 0.0, 9)
        assert report.verdict == NOT_CERTIFIED
        assert all(not s.cond2 for s in report.samples)

    def test_link_and_direct_routes_agree(self, e1, rng):
        fam = self.certified_setup(e1)
        for arc in ((0.3, 1.1), (math.pi / 2, 3 * math.pi / 2), (4.0, 6.0)):
            report = arc_scan(e1, fam, arc, 0.0, 7)
            for s in report.samples:
                assert s.cond3_link == s.cond3_direct

    def test_base_point_invariance_of_verdicts(self, e1):
        c0 = defect_parameter(e1, 0.0, [[1.0]])
        fixed = orthogonal_extension(e1, 0.0, c0)
        z0 = 0.3 + 0.2j
        fam_z0 = constant_family(recover_parameter(fixed, e1, z0), z0)
        fam_0 = constant_family(c0, 0.0)
        for arc in ((math.pi / 4, 3 * math.pi / 4), (math.pi / 2, 3 * math.pi / 2)):
            rep_0 = arc_scan(e1, fam_0, arc, 0.0, 9)
            rep_z = arc_scan(e1, fam_z0, arc, z0, 9)
            assert rep_0.verdict == rep_z.verdict
            for a, b in zip(rep_0.samples, rep_z.samples):
                assert a.passed == b.passed

    def test_precondition_violation_reports_sample_index(self):
        # V = -identity on C^1 has its eigenvalue at angle pi, which the
        # middle sample hits: the regular-type hypothesis fails there.
        v = IsometricOperator(1, [[1]], [[-1]])
        fam = constant_family(defect_parameter(v, 0.0, np.zeros((0, 0))), 0.0)
        with pytest.raises(PreconditionViolated, match="sample 4"):
            arc_scan(v, fam, (math.pi / 2, 3 * math.pi / 2), 0.0, 9)

    def test_unitary_operator_scan_certifies_off_spectrum(self):
        v = IsometricOperator(1, [[1]], [[-1]])
        fam = constant_family(defect_parameter(v, 0.0, np.zeros((0, 0))), 0.0)
        report = arc_scan(v, fam, (0.5, 2.0), 0.0, 9)
        assert report.verdict == GAP_CERTIFIED

    def test_table_family_needs_bound_and_samples(self, e1):
        from isoresolvent import table_family
        from isoresolvent.extensions import FamilyEvaluationError

        c = defect_parameter(e1, 0.0, [[1.0]])
        arc = (math.pi / 4, 3 * math.pi / 4)
        angles = [arc[0] + (j + 1) * (arc[1] - arc[0]) / 10 for j in range(9)]
        fam = table_family([(np.exp(1j * t), c) for t in angles], 0.0)
        with pytest.raises(ValueError, match="continuity bound"):
            arc_scan(e1, fam, arc, 0.0, 9)
        report = arc_scan(e1, fam, arc, 0.0, 9, continuity_bound=0.5)
        assert report.verdict == GAP_CERTIFIED
        assert report.continuity_certification == "sampled-modulus"
        sparse = table_family([(np.exp(1j * angles[0]), c)], 0.0)
        with pytest.raises(FamilyEvaluationError):
            arc_scan(e1, sparse, arc, 0.0, 9, continuity_bound=0.5)

    def test_samples_equal_the_standalone_criterion(self):
        # Each sample carries exactly the verdicts and singular values that
        # surjectivity_criterion reports at its point.
        rng = np.random.default_rng(5)
        compared = 0
        for _ in range(30):
            v = random_isometry(rng, n_max=6)
            c = random_unitary_parameter(rng, v)
            try:
                report = arc_scan(v, constant_family(c, 0.0), (0.3, 2.9), 0.0, 8)
            except PreconditionViolated:
                continue
            for s in report.samples:
                rep = surjectivity_criterion(v, c, s.point)
                assert (s.cond3_link, s.cond3_direct, s.cond_pm, s.sigma_cw, s.sigma_direct) == (
                    rep.surjective, rep.crosscheck_rank, rep.cond_pm, rep.sigma_cw, rep.sigma_direct
                )
                compared += 1
        assert compared >= 200

    def test_spectral_crosscheck_for_constant_unitary(self, e1, rng):
        # For constant unitary parameters the scan verdict must match the
        # spectral picture: certified exactly when no atom of the extension
        # lies in the reflected arc, granted the samples can see the atoms.
        from isoresolvent import Subspace, gap_on_arc, spectral_data

        fam = self.certified_setup(e1)
        u = extend_full(e1, 0.0, fam.constant).matrix
        sd = spectral_data(u)
        arc_clear = (math.pi / 4, 3 * math.pi / 4)
        arc_hit = (math.pi / 2, 3 * math.pi / 2)
        for arc, expected in ((arc_clear, True), (arc_hit, False)):
            reflected = (2 * math.pi - arc[1], 2 * math.pi - arc[0])
            spectral_gap = gap_on_arc(sd, Subspace.full(2), reflected)[0]
            assert spectral_gap == expected
            scan = arc_scan(e1, fam, arc, 0.0, 9)
            assert scan.certified == expected
