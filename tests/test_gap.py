import cmath
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
        report = arc_scan(e1, fam, (math.pi / 4, 3 * math.pi / 4), n_samples=9)
        assert report.verdict == GAP_CERTIFIED
        assert all(s.passed for s in report.samples)
        assert report.continuity_certification == "structural"

    def test_atom_hit_fails_condition_three(self, e1):
        # The middle sample of this arc lands exactly on the spectral atom at
        # angle pi, where the extension minus 1/lam is singular.
        fam = self.certified_setup(e1)
        report = arc_scan(e1, fam, (math.pi / 2, 3 * math.pi / 2), n_samples=9)
        assert report.verdict == NOT_CERTIFIED
        bad = report.witnesses()
        assert len(bad) == 1 and bad[0].index == 4
        assert bad[0].failures() == ["condition-3"]
        assert bad[0].sigma_direct <= DEFAULT_TOL.eps_rank
        assert not bad[0].cond3_link and not bad[0].cond3_direct

    def test_strict_contraction_fails_condition_two_everywhere(self, e1):
        fam = constant_family(defect_parameter(e1, 0.0, [[0.5]]), 0.0)
        report = arc_scan(e1, fam, (math.pi / 4, 3 * math.pi / 4), n_samples=9)
        assert report.verdict == NOT_CERTIFIED
        assert all(not s.cond2 for s in report.samples)

    def test_link_and_direct_routes_agree(self, e1, rng):
        fam = self.certified_setup(e1)
        for arc in ((0.3, 1.1), (math.pi / 2, 3 * math.pi / 2), (4.0, 6.0)):
            report = arc_scan(e1, fam, arc, n_samples=7)
            for s in report.samples:
                assert s.cond3_link == s.cond3_direct

    def test_base_point_invariance_of_verdicts(self, e1):
        c0 = defect_parameter(e1, 0.0, [[1.0]])
        fixed = orthogonal_extension(e1, 0.0, c0)
        z0 = 0.3 + 0.2j
        fam_z0 = constant_family(recover_parameter(fixed, e1, z0), z0)
        fam_0 = constant_family(c0, 0.0)
        for arc in ((math.pi / 4, 3 * math.pi / 4), (math.pi / 2, 3 * math.pi / 2)):
            rep_0 = arc_scan(e1, fam_0, arc, n_samples=9)
            rep_z = arc_scan(e1, fam_z0, arc, n_samples=9)
            assert rep_0.verdict == rep_z.verdict
            for a, b in zip(rep_0.samples, rep_z.samples):
                assert a.passed == b.passed

    def test_base_point_from_family_and_options_by_keyword(self, e1):
        """The report carries the family's base point; a stale positional z0
        in the place of the keyword-only sample count is a TypeError."""
        z0 = 0.3 + 0.2j
        fam = constant_family(defect_parameter(e1, z0, [[0.5]]), z0)
        assert arc_scan(e1, fam, (0.5, 1.0), n_samples=3).z0 == z0
        with pytest.raises(TypeError):
            arc_scan(e1, self.certified_setup(e1), (0.5, 1.0), 0.0, 9)

    def test_precondition_violation_reports_sample_index(self):
        # V = -identity on C^1 has its eigenvalue at angle pi, which the
        # middle sample hits: the regular-type hypothesis fails there.
        v = IsometricOperator(1, [[1]], [[-1]])
        fam = constant_family(defect_parameter(v, 0.0, np.zeros((0, 0))), 0.0)
        with pytest.raises(PreconditionViolated, match="sample 4"):
            arc_scan(v, fam, (math.pi / 2, 3 * math.pi / 2), n_samples=9)

    def test_unitary_operator_scan_certifies_off_spectrum(self):
        v = IsometricOperator(1, [[1]], [[-1]])
        fam = constant_family(defect_parameter(v, 0.0, np.zeros((0, 0))), 0.0)
        report = arc_scan(v, fam, (0.5, 2.0), n_samples=9)
        assert report.verdict == GAP_CERTIFIED

    def test_table_family_needs_bound_and_samples(self, e1):
        from isoresolvent import table_family
        from isoresolvent.extensions import FamilyEvaluationError

        c = defect_parameter(e1, 0.0, [[1.0]])
        arc = (math.pi / 4, 3 * math.pi / 4)
        angles = [arc[0] + (j + 1) * (arc[1] - arc[0]) / 10 for j in range(9)]
        fam = table_family([(np.exp(1j * t), c) for t in angles], 0.0)
        with pytest.raises(ValueError, match="continuity bound"):
            arc_scan(e1, fam, arc, n_samples=9)
        report = arc_scan(e1, fam, arc, n_samples=9, continuity_bound=0.5)
        assert report.verdict == GAP_CERTIFIED
        assert report.continuity_certification == "sampled-modulus"
        sparse = table_family([(np.exp(1j * angles[0]), c)], 0.0)
        with pytest.raises(FamilyEvaluationError):
            arc_scan(e1, sparse, arc, n_samples=9, continuity_bound=0.5)

    @pytest.mark.parametrize("bound", [-1.0, -1e-300, math.nan])
    def test_continuity_bound_must_be_nonnegative(self, e1, bound):
        from isoresolvent import table_family

        c = defect_parameter(e1, 0.0, [[1.0]])
        table = table_family([(np.exp(1j * (0.5 + k / 3)), c) for k in range(4)], 0.0)
        for fam in (table, constant_family(c, 0.0)):
            with pytest.raises(ValueError, match="continuity bound must be nonnegative"):
                arc_scan(e1, fam, (0.5, 1.5), n_samples=2, continuity_bound=bound)
        # A bound of 0 is a bound: the table's equal values meet it.
        assert arc_scan(e1, table, (0.5, 1.5), n_samples=2, continuity_bound=0.0).verdict == GAP_CERTIFIED

    def test_samples_equal_the_standalone_criterion(self):
        # Each sample carries exactly the verdicts and sigma_cw that
        # surjectivity_criterion reports at its point.  Its sigma_direct is
        # read off the spectrum of the constant unitary T: within the proven
        # bound delta of the exact sigma_min, so within delta plus roundoff
        # (the spectrum's band) of the criterion's SVD.
        from isoresolvent import DefectFrame
        from isoresolvent.gap import _ArcSpectrum

        rng = np.random.default_rng(5)
        compared = 0
        for _ in range(30):
            v = random_isometry(rng, n_max=6)
            c = random_unitary_parameter(rng, v)
            fam = constant_family(c, 0.0)
            try:
                report = arc_scan(v, fam, (0.3, 2.9), n_samples=8)
            except PreconditionViolated:
                continue
            band = _ArcSpectrum.of(DefectFrame.of(v, 0.0), fam).band
            for s in report.samples:
                rep = surjectivity_criterion(v, c, s.point)
                assert (s.cond3_link, s.cond3_direct, s.cond_pm, s.sigma_cw) == (
                    rep.surjective, rep.crosscheck_rank, rep.cond_pm, rep.sigma_cw
                )
                assert abs(s.sigma_direct - rep.sigma_direct) <= band
                compared += 1
        assert compared >= 200

    def test_spectral_crosscheck_for_constant_unitary(self, e1, rng):
        # For constant unitary parameters the scan verdict must match the
        # spectral picture: certified exactly when no atom of the extension
        # lies in the reflected arc, granted the samples can see the atoms.
        from isoresolvent import Subspace, gap_on_arc, unitary_eig

        fam = self.certified_setup(e1)
        u = extend_full(e1, 0.0, fam.constant).matrix
        sd = unitary_eig(u)
        arc_clear = (math.pi / 4, 3 * math.pi / 4)
        arc_hit = (math.pi / 2, 3 * math.pi / 2)
        for arc, expected in ((arc_clear, True), (arc_hit, False)):
            reflected = (2 * math.pi - arc[1], 2 * math.pi - arc[0])
            spectral_gap = gap_on_arc(sd, Subspace.full(2), reflected)[0]
            assert spectral_gap == expected
            scan = arc_scan(e1, fam, arc, n_samples=9)
            assert scan.certified == expected


def pm_reference(frame, lam):
    """The M-space projection condition's singular value as an explicit SVD:
    P onto M at the reflected base point, restricted to M_lambda."""
    from isoresolvent.numerics import sigma_min

    m_lam = defect_spaces(frame.v, lam, frame.tol).m
    return sigma_min(frame.reflected.m.basis.conj().T @ m_lam.basis)


class TestMSpaceCondition:
    """sigma_pm is read off q_min; an SVD of the M spaces agrees."""

    @staticmethod
    def operators(rng):
        from isoresolvent.sampling import random_unitary

        for _ in range(80):
            yield random_isometry(rng, n_max=9)
        for n in (1, 4, 9):  # d = 0 and d = n
            yield IsometricOperator(n, np.zeros((n, 0)), np.zeros((n, 0)))
            yield IsometricOperator(n, np.eye(n), random_unitary(rng, n))

    @pytest.mark.parametrize("z0", [0j, 0.35 - 0.2j])
    def test_agrees_with_the_svd_of_the_m_spaces(self, rng, z0):
        from isoresolvent import DefectFrame
        from isoresolvent.gap import _boundary_criteria

        compared = {"empty domain": 0, "full domain": 0, "partial": 0}
        for v in self.operators(rng):
            frame = DefectFrame.of(v, z0)
            c = random_parameter(rng, v, z0)
            for _ in range(3):
                lam = regular_boundary_point(rng, v)
                try:
                    rep = _boundary_criteria(frame, c, lam)
                except PreconditionViolated:
                    continue
                ref = pm_reference(frame, lam)
                if v.domain_dim == 0:
                    assert rep.sigma_pm == ref == math.inf
                    compared["empty domain"] += 1
                    continue
                assert abs(rep.sigma_pm - ref) <= 1e-13
                assert rep.cond_pm == (ref > DEFAULT_TOL.eps_rank)
                if v.domain_dim == v.ambient_dim:
                    assert rep.sigma_pm == 1.0
                    compared["full domain"] += 1
                else:
                    compared["partial"] += 1
        assert compared["empty domain"] >= 9 and compared["full domain"] >= 9
        assert compared["partial"] >= 100


class TestRegularFloor:
    """arc_scan carries the regular-type lower bound from sample to sample."""

    N, D, K, SAMPLES = 16, 12, 4, 16

    @classmethod
    def operator(cls):
        """V = U on span(e_1..e_12) in C^16."""
        from isoresolvent.sampling import random_unitary

        u = random_unitary(np.random.default_rng(3), cls.N)
        return IsometricOperator(cls.N, np.eye(cls.N)[:, : cls.D], u[:, : cls.D])

    @classmethod
    def counted_scan(cls, v, fam, svd_matrices, eigh_shapes):
        """Scan (0.4, 1.6) with the frame's geometry and T (for a constant
        family) built beforehand; the SVD and eigh counts are the scan's."""
        from isoresolvent import DefectFrame

        frame = DefectFrame.of(v, fam.z0)
        if fam.kind == "constant":
            frame.extension(fam.constant)
        frame.transform
        svd_matrices.clear()
        eigh_shapes.clear()
        report = arc_scan(v, fam, (0.4, 1.6), n_samples=cls.SAMPLES)
        assert len(report.samples) == cls.SAMPLES
        return report

    @pytest.mark.parametrize("z0", [0j, 0.3 - 0.2j])
    def test_one_direct_svd_per_sample(self, z0, svd_matrices, eigh_shapes):
        # A constant unitary parameter: sigma_direct is read off one n x n
        # eigensolve of T per scan, so no n x n SVD is left.  n x d is the
        # regular-type map, d x d the M-space projection and k x k the link
        # work (S, Q, C - link), counted matrix by matrix inside the stacks
        # the samples share.
        n, d, k, samples = self.N, self.D, self.K, self.SAMPLES
        v = self.operator()
        fam = constant_family(random_unitary_parameter(np.random.default_rng(4), v, z0), z0)
        self.counted_scan(v, fam, svd_matrices, eigh_shapes)
        assert eigh_shapes == {(n, n): 1}
        assert svd_matrices[(n, n)] == 0
        assert 1 <= svd_matrices[(n, d)] <= 3
        assert svd_matrices[(d, d)] == 0
        assert svd_matrices[(k, k)] == 3 * samples
        assert sum(svd_matrices.values()) == svd_matrices[(n, d)] + 3 * samples

    @pytest.mark.parametrize("z0", [0j, 0.3 - 0.2j])
    @pytest.mark.parametrize("kind", ["blaschke", "non-unitary"])
    def test_other_families_keep_the_direct_svd(self, z0, kind, monkeypatch, svd_matrices, eigh_shapes):
        # Blaschke values and non-unitary constants take no eigensolve and
        # one n x n SVD per sample for sigma_direct.  (A Blaschke value's T
        # is assembled per sample, and the assembly measures norms by n x n
        # SVDs of its own, so sigma_min is counted where gap calls it; the
        # count of every n x n matrix factored, inside stacks or not, is at
        # least that.)
        from collections import Counter

        from isoresolvent import blaschke_family, gap

        n, samples = self.N, self.SAMPLES
        v = self.operator()
        c = random_unitary_parameter(np.random.default_rng(4), v, z0)
        if kind == "blaschke":
            fam = blaschke_family(0.3 - 0.4j, c, z0)
        else:
            fam = constant_family(defect_parameter(v, z0, 0.5 * c.matrix), z0)
        direct = Counter()
        original = gap.sigma_min

        def counted(m):
            direct[np.shape(m)] += 1
            return original(m)

        monkeypatch.setattr(gap, "sigma_min", counted)
        report = self.counted_scan(v, fam, svd_matrices, eigh_shapes)
        assert not eigh_shapes
        assert direct[(n, n)] == samples
        assert svd_matrices[(n, n)] >= samples
        assert all(s.cond2 == (kind == "blaschke") for s in report.samples)

    @staticmethod
    def eigenvector_operator(theta=1.0):
        """V e1 = e^{i theta} e1 in C^6, isometric on span(e1..e4): the
        regular-type hypothesis fails at lam = e^{-i theta}."""
        n, d = 6, 4
        rng = np.random.default_rng(2)
        img = np.zeros((n, d), dtype=complex)
        img[0, 0] = np.exp(1j * theta)
        img[1:, 1:] = np.linalg.qr(rng.standard_normal((n - 1, d - 1)) + 1j * rng.standard_normal((n - 1, d - 1)))[0]
        return IsometricOperator(n, np.eye(n)[:, :d], img)

    @pytest.mark.parametrize("z0", [0j, -0.25 + 0.1j])
    def test_dip_mid_arc_raises_the_measured_message(self, monkeypatch, z0):
        from isoresolvent import gap

        v = self.eigenvector_operator()
        eig = 2 * math.pi - 1.0
        fam = constant_family(defect_parameter(v, z0, np.zeros((2, 2))), z0)
        arc = (eig - 0.5, eig + 0.5)  # the middle of nine samples is the eigenvalue
        calls = {"regular_type": 0}
        original = gap.regular_type

        def counted(*args):
            calls["regular_type"] += 1
            return original(*args)

        monkeypatch.setattr(gap, "regular_type", counted)
        with pytest.raises(PreconditionViolated) as carried:
            arc_scan(v, fam, arc, n_samples=9)
        assert calls["regular_type"] < 5  # samples 1-3 cleared by the floor
        monkeypatch.setattr(gap._RegularFloor, "clears", lambda self, s, tol: False)
        with pytest.raises(PreconditionViolated) as measured:
            arc_scan(v, fam, arc, n_samples=9)
        assert str(carried.value) == str(measured.value)
        assert str(carried.value).startswith("sample 4 at angle 5.283185: regular-type hypothesis fails")

    def test_floor_slope_bounds_a_loose_domain_basis(self):
        # A domain basis orthonormal only to 1e-4 has ||domain|| above 1; the
        # floor's slope covers it, and the floor stays below the measurement.
        from isoresolvent import regular_type
        from isoresolvent.gap import _RegularFloor

        d = 3
        dom = np.eye(5)[:, :d] * (1 + 5e-5)
        v = IsometricOperator(5, dom, np.eye(5)[:, 1 : d + 1])
        floor = _RegularFloor()
        floor.anchor(v, 1.0, regular_type(v, 1.0).sigma_min)
        assert floor.slope >= np.linalg.norm(dom, 2)
        for t in np.linspace(-3.0, 3.0, 61):
            s = np.exp(1j * t)
            assert regular_type(v, s).sigma_min >= floor.sigma - floor.slope * abs(s - 1.0) - floor.slack


class TestArcSpectrum:
    """For a constant unitary parameter arc_scan reads sigma_direct off one
    eigensolve of T: within the spectrum's band (its proven bound delta plus
    roundoff) of an SVD, with every verdict that of the SVD route."""

    @staticmethod
    def scan_both(monkeypatch, v, fam, arc, n_samples):
        """The scan as shipped and with the spectrum turned off (an SVD per
        sample); a PreconditionViolated stands in for a report."""
        from isoresolvent import gap

        def scan():
            try:
                return arc_scan(v, fam, arc, n_samples=n_samples)
            except PreconditionViolated as exc:
                return str(exc)

        shipped = scan()
        with monkeypatch.context() as m:
            m.setattr(gap._ArcSpectrum, "of", classmethod(lambda cls, frame, fam: None))
            off = scan()
        return shipped, off

    @staticmethod
    def assert_same_verdicts(shipped, off, band):
        if isinstance(off, str):
            assert shipped == off
            return
        assert shipped.verdict == off.verdict
        for a, b in zip(shipped.samples, off.samples, strict=True):
            assert a.failures() == b.failures()
            assert (a.point, a.cond1, a.cond2, a.cond3_link, a.cond3_direct, a.cond_pm, a.sigma_cw) == (
                b.point, b.cond1, b.cond2, b.cond3_link, b.cond3_direct, b.cond_pm, b.sigma_cw
            )
            assert a.sigma_direct == b.sigma_direct or abs(a.sigma_direct - b.sigma_direct) <= band

    @staticmethod
    def setup(rng, n, d, z0):
        from isoresolvent import DefectFrame
        from isoresolvent.gap import _ArcSpectrum
        from isoresolvent.sampling import random_unitary

        v = IsometricOperator(n, random_unitary(rng, n)[:, :d], random_unitary(rng, n)[:, :d])
        fam = constant_family(random_unitary_parameter(rng, v, z0), z0)
        frame = DefectFrame.of(v, z0)
        spectrum = _ArcSpectrum.of(frame, fam)
        assert spectrum is not None and spectrum.delta <= DEFAULT_TOL.eps_rank
        return v, fam, frame.extension(fam.constant).matrix, spectrum

    @pytest.mark.parametrize("z0", [0j, 0.3 - 0.2j])
    def test_random_families_agree_with_the_svd(self, monkeypatch, z0):
        rng = np.random.default_rng(12)
        scanned = 0
        for n, d in [(2, 1), (5, 3), (9, 6), (16, 12), (33, 30), (64, 60)] * 2:
            v, fam, t, spectrum = self.setup(rng, n, d, z0)
            t1 = rng.uniform(0.0, 5.0)
            arc = (t1, t1 + rng.uniform(0.2, 1.2))
            shipped, off = self.scan_both(monkeypatch, v, fam, arc, 11)
            self.assert_same_verdicts(shipped, off, spectrum.band)
            if isinstance(shipped, str):
                continue
            for s in shipped.samples:
                exact = np.linalg.svd(np.eye(n) - s.point * t, compute_uv=False)[-1]
                assert abs(s.sigma_direct - exact) <= spectrum.band
            scanned += 1
        assert scanned >= 10

    @pytest.mark.parametrize("z0", [0j, 0.3 - 0.2j])
    def test_sample_at_an_eigenvalue(self, monkeypatch, z0):
        # The middle of nine samples is conj(mu) for an eigenvalue mu of T:
        # E - lam T is singular there, read off the spectrum, and both routes
        # reject the sample as the SVD route does.
        v, fam, t, spectrum = self.setup(np.random.default_rng(8), 16, 12, z0)
        theta = float(np.mod(-np.angle(spectrum.mu[5]), 2 * math.pi))
        arc = (theta - 0.05, theta + 0.05)
        shipped, off = self.scan_both(monkeypatch, v, fam, arc, 9)
        self.assert_same_verdicts(shipped, off, spectrum.band)
        hit = shipped.samples[4]
        assert spectrum.sigma(hit.point) is not None
        assert hit.sigma_direct <= 1e-14
        assert hit.failures() == ["condition-3"] and not hit.cond3_link
        assert shipped.verdict == NOT_CERTIFIED

    @pytest.mark.parametrize("case", ["e1", "n16-z0"])
    def test_sample_in_the_band_takes_the_svd(self, monkeypatch, svd_matrices, e1, case):
        # The middle of nine samples lies eps_rank in angle from conj(mu), so
        # its s = |1 - lam mu| is eps_rank to roundoff: the spectrum cannot
        # decide the rank verdict there, and that one sample takes the SVD;
        # no other n x n matrix is factored, inside a stack or not.
        from isoresolvent import DefectFrame
        from isoresolvent.gap import _ArcSpectrum

        if case == "e1":
            # C = 1 makes T the swap of e1 and e2, with eigenvalues +-1.
            v = e1
            fam = constant_family(defect_parameter(v, 0.0, [[1.0]]), 0.0)
            spectrum = _ArcSpectrum.of(DefectFrame.of(v, 0.0), fam)
            mu = -1.0
        else:
            v, fam, _, spectrum = self.setup(np.random.default_rng(8), 16, 12, 0.3 - 0.2j)
            mu = spectrum.mu[3]
        n = v.ambient_dim
        theta = float(np.mod(-np.angle(mu), 2 * math.pi)) + DEFAULT_TOL.eps_rank
        arc = (theta - 0.5, theta + 0.5)
        svd_matrices.clear()
        shipped = arc_scan(v, fam, arc, n_samples=9)
        assert svd_matrices[(n, n)] == 1
        band = [s for s in shipped.samples if spectrum.sigma(s.point) is None]
        assert [s.index for s in band] == [4]
        assert abs(band[0].sigma_direct - DEFAULT_TOL.eps_rank) <= spectrum.band
        _, off = self.scan_both(monkeypatch, v, fam, arc, 9)
        self.assert_same_verdicts(shipped, off, spectrum.band)
        assert shipped.samples[4].sigma_direct == off.samples[4].sigma_direct

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("count", [1, 2, 33])
    def test_spectrum_at_many_points_is_the_spectrum_at_each(self, n, count):
        """sigma_direct off the spectrum for a block of points is, bit for
        bit, |1 - lam mu| minimized point by point (one point and one
        eigenvalue included)."""
        from isoresolvent import DefectFrame
        from isoresolvent.gap import _ArcSpectrum
        from isoresolvent.sampling import random_unitary

        rng = np.random.default_rng(n + count)
        v = IsometricOperator(n, np.eye(n)[:, : n - 1], random_unitary(rng, n)[:, : n - 1])
        fam = constant_family(random_unitary_parameter(rng, v), 0.0)
        spectrum = _ArcSpectrum.of(DefectFrame.of(v, 0.0), fam)
        for _ in range(20):
            lams = np.exp(1j * rng.uniform(0.0, 2 * math.pi, count))
            each = [float(np.abs(1.0 - complex(lam) * spectrum.mu).min(initial=math.inf)) for lam in lams]
            assert spectrum.sigmas(lams).tolist() == each

    def test_empty_space(self, monkeypatch):
        v = IsometricOperator(0, np.zeros((0, 0)), np.zeros((0, 0)))
        fam = constant_family(defect_parameter(v, 0.0, np.zeros((0, 0))), 0.0)
        shipped, off = self.scan_both(monkeypatch, v, fam, (0.5, 1.0), 2)
        self.assert_same_verdicts(shipped, off, 0.0)
        assert shipped.certified and shipped.samples[0].sigma_direct == math.inf

    def test_non_unitary_and_loose_spectra_are_not_used(self, e1):
        from isoresolvent import DefectFrame, TolerancePolicy, blaschke_family
        from isoresolvent.gap import _ArcSpectrum

        frame = DefectFrame.of(e1, 0.0)
        assert _ArcSpectrum.of(frame, constant_family(defect_parameter(e1, 0.0, [[0.5]]), 0.0)) is None
        u0 = defect_parameter(e1, 0.0, [[1.0]])
        assert _ArcSpectrum.of(frame, blaschke_family(0.2, u0, 0.0)) is None
        # A parameter unitary within eps_unit = 1e-8 but not to roundoff
        # makes T non-normal: delta is about 3e-9, so its spectrum serves
        # under eps_rank = 1e-8 and not under eps_rank = 1e-12.
        for eps_rank, used in ((1e-8, True), (1e-12, False)):
            tol = TolerancePolicy(eps_rank=eps_rank)
            v = IsometricOperator(2, [[1], [0]], [[0], [1]])
            loose = constant_family(defect_parameter(v, 0.0, [[1.0 + 4e-9]], tol), 0.0)
            spectrum = _ArcSpectrum.of(DefectFrame.of(v, 0.0, tol), loose)
            assert (spectrum is not None) == used
            if used:
                assert 1e-9 <= spectrum.delta <= eps_rank
                t = DefectFrame.of(v, 0.0, tol).extension(loose.constant).matrix
                for lam in np.exp(1j * np.linspace(0.0, 2 * math.pi, 73)):
                    s = float(np.abs(1.0 - lam * spectrum.mu).min())
                    assert abs(s - np.linalg.svd(np.eye(2) - lam * t, compute_uv=False)[-1]) <= spectrum.band


def scan_outcome(v, fam, arc, n_samples, tol=DEFAULT_TOL, continuity_bound=None):
    """arc_scan's report, or the exception it raises as "Type: message"."""
    try:
        return arc_scan(v, fam, arc, n_samples=n_samples, tol=tol, continuity_bound=continuity_bound)
    except (ValueError, PreconditionViolated) as exc:
        return f"{type(exc).__name__}: {exc}"


def one_point_scan(v, fam, arc, n_samples, tol=DEFAULT_TOL):
    """The samples of an arc scan taken one point at a time: (lam, value,
    one-point criteria) per sample, or the first failure tagged as arc_scan
    tags it."""
    from isoresolvent import DefectFrame, FamilyEvaluationError
    from isoresolvent.gap import _boundary_criteria

    frame = DefectFrame.of(v, fam.z0, tol)
    step = (arc[1] - arc[0]) / (n_samples + 1)
    out = []
    for j in range(n_samples):
        angle = arc[0] + (j + 1) * step
        lam = cmath.exp(1j * angle)
        try:
            value = fam.value_at(lam, tol)
        except FamilyEvaluationError as exc:
            return f"FamilyEvaluationError: sample {j}: {exc}"
        try:
            out.append((lam, value, _boundary_criteria(frame, value, lam)))
        except PreconditionViolated as exc:
            return f"PreconditionViolated: sample {j} at angle {angle:.6f}: {exc}"
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"
    return out


class TestStackedScan:
    """arc_scan evaluates its samples together, _BLOCK at a time, by the code
    of the one-point criteria: every sample is the one-point criteria at its
    point, and the first failure in (sample, step) order is the one raised."""

    @staticmethod
    def family(rng, v, z0, kind, arc, n_samples):
        from isoresolvent import blaschke_family, table_family

        if kind == "constant":
            return constant_family(random_unitary_parameter(rng, v, z0), z0)
        if kind == "non-unitary":
            return constant_family(random_parameter(rng, v, z0), z0)
        if kind == "blaschke":
            return blaschke_family(complex(*rng.uniform(-0.6, 0.6, 2)), random_unitary_parameter(rng, v, z0), z0)
        step = (arc[1] - arc[0]) / (n_samples + 1)
        values = [random_unitary_parameter(rng, v, z0), random_parameter(rng, v, z0)]
        points = [cmath.exp(1j * (arc[0] + (j + 1) * step)) for j in range(n_samples)]
        return table_family([(p, values[int(rng.integers(0, 2))]) for p in points], z0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        z0=st.sampled_from([0j, 0.3 - 0.2j]),
        kind=st.sampled_from(["constant", "non-unitary", "blaschke", "table"]),
        n_samples=st.integers(1, 12),
        block=st.sampled_from([1, 2, 5, 32]),
    )
    @settings(max_examples=60, deadline=None)
    def test_samples_are_the_one_point_criteria(self, seed, z0, kind, n_samples, block):
        from isoresolvent import DefectFrame, gap
        from isoresolvent.gap import _ArcSpectrum, _boundary_isometry_onto, _evaluate

        rng = np.random.default_rng(seed)
        v = random_isometry(rng, n_max=9, allow_full=False)
        t1 = float(rng.uniform(0.0, 5.0))
        arc = (t1, t1 + float(rng.uniform(0.1, 1.2)))
        fam = self.family(rng, v, z0, kind, arc, n_samples)
        bound = 0.3 if kind == "table" else None
        with patch.object(gap, "_BLOCK", block):
            shipped = scan_outcome(v, fam, arc, n_samples, continuity_bound=bound)
        reference = one_point_scan(v, fam, arc, n_samples)
        if isinstance(reference, str):
            assert shipped == reference
            return
        frame = DefectFrame.of(v, z0)
        spectrum = _ArcSpectrum.of(frame, fam)
        assert (spectrum is not None) == (kind == "constant")
        previous = None
        for j, (s, (lam, value, rep)) in enumerate(zip(shipped.samples, reference, strict=True)):
            assert (s.index, s.point) == (j, lam)
            assert s.cond1 == (previous is None or kind != "table" or max_abs(value.matrix - previous) <= bound)
            previous = value.matrix
            assert s.cond2 == _boundary_isometry_onto(value, DEFAULT_TOL)
            assert (s.cond3_link, s.cond_pm, s.sigma_cw) == (rep.surjective, rep.cond_pm, rep.sigma_cw)
            assert s.cond3_direct == rep.crosscheck_rank
            if spectrum is None:
                assert s.sigma_direct == rep.sigma_direct
            else:
                assert abs(s.sigma_direct - rep.sigma_direct) <= spectrum.band
        lams = [s.point for s in shipped.samples]
        block_of = _evaluate(frame, lams)[0]
        for j, lam in enumerate(lams):
            assert np.array_equal(block_of.boundary[j], defect_spaces(v, lam).n.basis)
            assert np.array_equal(block_of.link[j], build_gap_operators(v, lam, z0).link.matrix)

    EIG = 2 * math.pi - 1.0
    ARC = (EIG - 0.5, EIG + 0.5)  # the middle of nine samples fails regular type

    @classmethod
    def overridden(cls, monkeypatch, overrides):
        """Replace N_lambda at the given samples of ARC: ``overrides`` maps a
        sample index to columns whose complement is the N_lambda wanted."""
        from isoresolvent import gap

        original = gap._defect_columns
        points = {cmath.exp(1j * (cls.ARC[0] + (j + 1) * 0.1)): j for j in range(9)}

        def columns(v, lam):
            j = points.get(complex(lam))
            return (overrides[j], 1.0) if j in overrides else original(v, lam)

        monkeypatch.setattr(gap, "_defect_columns", columns)

    # Complements of span(e1, e2), inside D(V), so S = 0 exactly; and of a
    # subspace tilted between D(V) and N_0, so the link is not isometric.
    INSIDE = np.eye(6, dtype=complex)[:, 2:]
    TILTED = np.linalg.qr(np.eye(6, dtype=complex)[:, [2, 3, 0, 1]] + np.eye(6)[:, [2, 3, 4, 5]])[0]

    @pytest.mark.parametrize("block", [2, 32])
    @pytest.mark.parametrize(
        "overrides, expected",
        [
            ({}, "sample 4 at angle 5.283185: regular-type hypothesis fails"),
            ({2: "inside"}, "sample 2 at angle 5.083185: restricted defect projection degenerates (sigma 0.000e+00)"),
            ({1: "tilted", 2: "inside", 3: "inside"}, "sample 1 at angle 4.983185: link operator failed"),
            ({1: "inside", 3: "tilted"}, "sample 1 at angle 4.983185: restricted defect projection degenerates"),
            ({3: "tilted", 5: "inside"}, "sample 3 at angle 5.183185: link operator failed"),
        ],
        ids=["regular-type", "degenerate", "link-then-singular", "degenerate-then-link", "link-then-regular-type"],
    )
    def test_first_failure_in_sample_order(self, monkeypatch, block, overrides, expected):
        """Failures at several samples and steps: the scan raises the one a
        point-by-point evaluation meets first, and an exactly singular S
        after it never reaches numpy's inverse."""
        from isoresolvent import gap

        v = TestRegularFloor.eigenvector_operator()
        fam = constant_family(defect_parameter(v, 0.0, np.zeros((2, 2))), 0.0)
        self.overridden(monkeypatch, {j: {"inside": self.INSIDE, "tilted": self.TILTED}[c] for j, c in overrides.items()})
        monkeypatch.setattr(gap, "_BLOCK", block)
        shipped = scan_outcome(v, fam, self.ARC, 9)
        assert shipped == one_point_scan(v, fam, self.ARC, 9)
        assert shipped.startswith("PreconditionViolated: " + expected)

    def test_tight_policy_link_failure_before_regular_type(self):
        """Under an eps_unit at roundoff the link check fails at some sample
        before the regular-type failure at sample 4, unpatched."""
        from isoresolvent import TolerancePolicy

        v = TestRegularFloor.eigenvector_operator()
        tol = TolerancePolicy(eps_unit=5e-16)
        fam = constant_family(defect_parameter(v, 0.0, np.zeros((2, 2)), tol), 0.0)
        shipped = scan_outcome(v, fam, self.ARC, 9, tol)
        assert shipped == one_point_scan(v, fam, self.ARC, 9, tol)
        assert "link operator failed" in shipped or "contraction bound" in shipped

    @pytest.mark.parametrize("block", [3, 32])
    @pytest.mark.parametrize("degenerate", [None, 2, 7])
    def test_table_missing_a_value_mid_arc(self, monkeypatch, e1, block, degenerate):
        from isoresolvent import gap, table_family

        arc, n = (0.5, 2.5), 9
        c = defect_parameter(e1, 0.0, [[1.0]])
        step = (arc[1] - arc[0]) / (n + 1)
        fam = table_family([(cmath.exp(1j * (arc[0] + (j + 1) * step)), c) for j in range(n) if j != 5], 0.0)
        if degenerate is not None:
            original = gap._defect_columns
            bad = cmath.exp(1j * (arc[0] + (degenerate + 1) * step))
            # N_lambda = span(e1) = D(V), orthogonal to N_0 = span(e2).
            monkeypatch.setattr(
                gap, "_defect_columns",
                lambda v, lam: (np.array([[0], [1]], dtype=complex), 1.0) if complex(lam) == bad else original(v, lam),
            )
        monkeypatch.setattr(gap, "_BLOCK", block)
        shipped = scan_outcome(e1, fam, arc, n, continuity_bound=0.5)
        assert shipped == one_point_scan(e1, fam, arc, n)
        if degenerate == 2:
            assert shipped.startswith("PreconditionViolated: sample 2 at angle")
        else:
            assert shipped.startswith("FamilyEvaluationError: sample 5: tabulated family has no value")

    def test_memory_of_a_long_arc(self, tracemalloc_peak):
        """4 096 samples at n = 64 stay within a few blocks' stacks: a stack
        of the whole arc would take hundreds of MB."""
        from isoresolvent.sampling import random_unitary

        rng = np.random.default_rng(7)
        n, d = 64, 60
        v = IsometricOperator(n, np.eye(n)[:, :d], random_unitary(rng, n)[:, :d])
        fam = constant_family(random_unitary_parameter(rng, v), 0.0)
        peak = tracemalloc_peak(lambda: arc_scan(v, fam, (0.3, 2.9), n_samples=4096))
        assert peak < 4.0
