import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isoresolvent import (
    DEFAULT_TOL,
    ContractionOp,
    DefectFrame,
    FamilyEvaluationError,
    IsometricOperator,
    ReconstructionMismatch,
    blaschke_family,
    constant_family,
    defect_parameter,
    defect_spaces,
    extend_full,
    inverse_cayley,
    max_abs,
    operator_norm,
    orthogonal_extension,
    recover_parameter,
    subspace_gap,
    table_family,
    validate_family,
)
from isoresolvent.extensions import ExtensionOp
from isoresolvent.sampling import (
    disk_grid,
    random_disk_point,
    random_isometry,
    random_parameter,
    random_unitary_parameter,
)


class TestExtendFull:
    @pytest.mark.parametrize("gamma", [1.0, -1.0, np.exp(0.7j)])
    def test_block_assembly(self, e1, gamma):
        c = defect_parameter(e1, 0.0, [[gamma]])
        ext = extend_full(e1, 0.0, c)
        assert_allclose(ext.matrix, [[0, gamma], [1, 0]], atol=1e-14)

    def test_zero_parameter_partial_isometry(self, e1):
        c = defect_parameter(e1, 0.0, [[0.0]])
        ext = extend_full(e1, 0.0, c)
        assert_allclose(ext.matrix, [[0, 0], [1, 0]], atol=1e-14)

    def test_unitary_parameter_gives_unitary(self, rng):
        for _ in range(10):
            v = random_isometry(rng, n_max=6)
            c = random_unitary_parameter(rng, v)
            ext = extend_full(v, 0.0, c)
            n = v.ambient_dim
            assert max_abs(ext.matrix.conj().T @ ext.matrix - np.eye(n)) <= DEFAULT_TOL.eps_unit

    def test_subspace_mismatch_rejected(self, e1):
        wrong = defect_parameter(e1, 0.3, [[0.5]])
        with pytest.raises(ValueError, match="does not match"):
            extend_full(e1, 0.0, wrong)

    def test_isometric_part_agrees_with_transform(self, rng):
        from isoresolvent import cayley

        v = random_isometry(rng, n_max=5)
        z0 = 0.2 + 0.3j
        c = random_parameter(rng, v, z0)
        ext = extend_full(v, z0, c)
        w = cayley(v, z0)
        assert max_abs(ext.matrix @ w.domain_basis - w.image_basis) <= 1e-10


class TestOrthogonalExtension:
    def test_coincides_with_plus_at_zero(self, e1, rng):
        c = random_parameter(rng, e1, 0.0)
        assert_allclose(
            orthogonal_extension(e1, 0.0, c).matrix, extend_full(e1, 0.0, c).matrix, atol=1e-14
        )

    def test_e1_at_half_with_unitary_scalar(self, e1):
        c = defect_parameter(e1, 0.5, [[1.0]])
        ext = orthogonal_extension(e1, 0.5, c)
        assert_allclose(ext.matrix @ np.array([1, 0]), [0, 1], atol=1e-12)
        assert max_abs(ext.matrix.conj().T @ ext.matrix - np.eye(2)) <= DEFAULT_TOL.eps_unit

    def test_contraction_bound_over_draws(self, rng):
        for _ in range(200):
            v = random_isometry(rng, n_max=6)
            z0 = random_disk_point(rng, 0.0, 0.7)
            c = random_parameter(rng, v, z0)
            ext = orthogonal_extension(v, z0, c)
            assert operator_norm(ext.matrix) <= 1.0 + DEFAULT_TOL.eps_unit
            assert max_abs(ext.matrix @ v.domain_basis - v.image_basis) <= 10 * DEFAULT_TOL.eps_eq

    def test_plus_resolvent_bound(self, rng):
        from isoresolvent import guarded_inverse

        for _ in range(50):
            v = random_isometry(rng, n_max=6)
            z0 = random_disk_point(rng, 0.05, 0.7)
            c = random_parameter(rng, v, z0)
            plus = extend_full(v, z0, c)
            inv = guarded_inverse(np.eye(v.ambient_dim) + z0 * plus.matrix)
            assert operator_norm(inv) <= 1.0 / (1.0 - abs(z0)) + DEFAULT_TOL.eps_eq

    def test_maps_defect_into_reflected_defect(self, rng):
        # Contraction + isometry on the transform domain force the defect
        # part to land inside the reflected defect space; verified, not
        # assumed, for both flavors.
        from isoresolvent import reflected_point

        for _ in range(30):
            v = random_isometry(rng, n_max=6)
            z0 = random_disk_point(rng, 0.0, 0.7)
            c = random_parameter(rng, v, z0)
            n_src = defect_spaces(v, z0).n
            m_dst = defect_spaces(v, reflected_point(z0)).m
            for ext in (extend_full(v, z0, c), orthogonal_extension(v, z0, c)):
                if ext.flavor == "orthogonal" and complex(z0) != 0:
                    continue
                leak = operator_norm(m_dst.basis.conj().T @ ext.matrix @ n_src.basis)
                assert leak <= DEFAULT_TOL.eps_eq


class TestRecoverParameter:
    def test_roundtrip_at_zero(self, e1, rng):
        c = random_parameter(rng, e1, 0.0)
        back = recover_parameter(orthogonal_extension(e1, 0.0, c), e1, 0.0)
        assert max_abs(back.matrix - c.matrix) <= 10 * DEFAULT_TOL.eps_eq

    def test_roundtrip_at_half(self, e1):
        c = defect_parameter(e1, 0.5, [[1.0]])
        back = recover_parameter(orthogonal_extension(e1, 0.5, c), e1, 0.5)
        assert max_abs(back.matrix - c.matrix) <= 10 * DEFAULT_TOL.eps_eq

    def test_roundtrip_randomized(self, rng):
        for _ in range(100):
            v = random_isometry(rng, n_max=7)
            z0 = random_disk_point(rng, 0.0, 0.7)
            c = random_parameter(rng, v, z0)
            back = recover_parameter(orthogonal_extension(v, z0, c), v, z0)
            assert max_abs(back.matrix - c.matrix) <= 10 * DEFAULT_TOL.eps_eq

    def test_recover_at_other_base_point_same_extension(self, rng):
        for _ in range(30):
            v = random_isometry(rng, n_max=6)
            z_a = random_disk_point(rng, 0.05, 0.6)
            c = random_parameter(rng, v, z_a)
            ext_a = orthogonal_extension(v, z_a, c)
            z_b = random_disk_point(rng, 0.05, 0.6)
            c_b = recover_parameter(ext_a, v, z_b)
            ext_b = orthogonal_extension(v, z_b, c_b)
            assert max_abs(ext_b.matrix - ext_a.matrix) <= 10 * DEFAULT_TOL.eps_eq

    @pytest.mark.parametrize("z0", [1e-12, 1e-15j, -3e-300])
    def test_roundtrip_at_tiny_base_point(self, rng, z0):
        # The forms (E + z0 T)^{-1} (T + conj(z0) E) and its inverse at -z0
        # do not divide by z0, so they keep full accuracy as z0 -> 0 and
        # agree with the z0 = 0 formulas to O(|z0|).
        for _ in range(20):
            v = random_isometry(rng, n_max=7)
            c = random_parameter(rng, v, z0)
            ext = orthogonal_extension(v, z0, c)
            assert max_abs(recover_parameter(ext, v, z0).matrix - c.matrix) <= 10 * DEFAULT_TOL.eps_eq
            at_zero = orthogonal_extension(v, 0.0, ContractionOp(c.src, c.dst, c.matrix))
            assert max_abs(ext.matrix - at_zero.matrix) <= 10 * DEFAULT_TOL.eps_eq

    def test_mismatch_rejected(self, e1):
        # A unitary that does not extend V cannot be decoded at any base point.
        stranger = ExtensionOp(
            np.array([[1, 0], [0, 1]], dtype=complex),
            0j,
            defect_parameter(e1, 0.0, [[0.0]]),
            "orthogonal",
        )
        with pytest.raises(ReconstructionMismatch):
            recover_parameter(stranger, e1, 0.0)


class TestCayleyPreimageRelation:
    def test_plus_flavor_inverse_transform_is_orthogonal_flavor(self, rng):
        # With a unitary parameter the plus extension is unitary; taking its
        # inverse Cayley transform as a full-domain isometry must reproduce
        # the orthogonal extension matrix.
        for _ in range(20):
            v = random_isometry(rng, n_max=6)
            z0 = random_disk_point(rng, 0.05, 0.6)
            c = random_unitary_parameter(rng, v, z0)
            plus = extend_full(v, z0, c)
            orth = orthogonal_extension(v, z0, c)
            as_iso = IsometricOperator(v.ambient_dim, np.eye(v.ambient_dim), plus.matrix)
            back = inverse_cayley(as_iso, z0)
            assert max_abs(back.partial_matrix() - orth.matrix) <= 10 * DEFAULT_TOL.eps_eq


class TestFamilies:
    def test_constant_norm_violation_reported(self, e1):
        # Mild violations (above eps_unit, below the constructor cap) must be
        # reported, not raised.
        c = defect_parameter(e1, 0.0, [[1.0 + 5e-4]])
        fam = constant_family(c, 0.0)
        report = validate_family(fam, e1, disk_grid(8))
        assert not report.ok
        assert any("norm" in v for v in report.violations)

    def test_gross_violation_rejected_at_construction(self, e1):
        with pytest.raises(ValueError, match="contraction"):
            defect_parameter(e1, 0.0, [[1.2]])

    def test_blaschke_values(self, e1):
        u0 = defect_parameter(e1, 0.0, [[1.0]])
        fam = blaschke_family(0.5, u0, 0.0)
        assert abs(abs(fam.value_at(0.0).matrix[0, 0]) - 0.5) <= 1e-12
        boundary = fam.value_at(np.exp(1j * math.pi / 3))
        assert abs(abs(boundary.matrix[0, 0]) - 1.0) <= 1e-12
        report = validate_family(fam, e1, disk_grid(8))
        assert report.ok

    def test_constant_unitary_passes(self, e1):
        fam = constant_family(defect_parameter(e1, 0.0, [[1.0]]), 0.0)
        assert validate_family(fam, e1, disk_grid(8)).ok

    def test_table_family_off_grid_rejected(self, e1):
        c = defect_parameter(e1, 0.0, [[0.5]])
        fam = table_family([(0.25, c), (0.5j, c)], 0.0)
        assert max_abs(fam.value_at(0.25).matrix - c.matrix) == 0
        with pytest.raises(FamilyEvaluationError):
            fam.value_at(0.3)

    def test_values_are_judged_by_their_norm_bound(self, rng, svd_shapes):
        # A constant family's value is one object whose norm was measured
        # when it was built: validating it takes no SVD.
        v = random_isometry(rng, n_max=7, n_min=5, allow_full=False)
        fam = constant_family(random_parameter(rng, v, 0.3j), 0.3j)
        validate_family(fam, v, disk_grid(12))  # the frame's QRs are not under test
        svd_shapes.clear()
        assert validate_family(fam, v, disk_grid(12)).ok
        assert not svd_shapes

    def test_family_base_mismatch_reported(self, e1):
        fam = constant_family(defect_parameter(e1, 0.3, [[0.5]]), 0.0)
        report = validate_family(fam, e1, disk_grid(4))
        assert not report.ok


class TestNormBound:
    """A proven norm bound spares ContractionOp its contraction SVD."""

    def test_bound_below_the_cap_skips_the_svd(self, e1, svd_shapes):
        src, dst = defect_spaces(e1, 0.0).n, defect_spaces(e1, math.inf).n
        c = ContractionOp(src, dst, [[0.5]], 0.5)
        assert not svd_shapes and c.norm_bound == 0.5
        plain = ContractionOp(src, dst, [[0.5]])
        assert svd_shapes == {(1, 1): 1} and plain.norm_bound == 0.5

    @pytest.mark.parametrize("bound", [1.5, math.nan, math.inf])
    def test_bound_that_does_not_clear_measures(self, e1, bound):
        src, dst = defect_spaces(e1, 0.0).n, defect_spaces(e1, math.inf).n
        assert ContractionOp(src, dst, [[0.5]], bound).norm_bound == 0.5
        with pytest.raises(ValueError, match="not a contraction"):
            ContractionOp(src, dst, [[1.2]], bound)
        with pytest.raises(ValueError, match="does not match"):
            ContractionOp(src, dst, [[0.5, 0.5]], bound)

    def test_random_parameter_takes_one_svd(self, rng, monkeypatch, svd_shapes):
        # The sampler's SVD scales the draw; the contraction check takes none.
        operators = [random_isometry(rng, n_max=6) for _ in range(20)]
        svd_shapes.clear()
        params = [random_parameter(rng, v, 0.2j) for v in operators]
        assert sum(svd_shapes.values()) == sum(0 not in c.matrix.shape for c in params)
        monkeypatch.undo()
        for c in params:
            assert c.norm_bound == pytest.approx(operator_norm(c.matrix), rel=1e-12)

    def test_blaschke_values_take_no_svd(self, rng, monkeypatch, svd_shapes):
        v = random_isometry(rng, n_max=7, n_min=5, allow_full=False)
        fam = blaschke_family(0.4 - 0.3j, random_unitary_parameter(rng, v), 0.0)
        svd_shapes.clear()
        values = [fam.value_at(zeta) for zeta in (0.0, 0.5j, np.exp(0.4j), 0.9 * np.exp(2.0j))]
        assert not svd_shapes
        monkeypatch.undo()
        for value in values:
            assert value.norm_bound == pytest.approx(operator_norm(value.matrix), rel=1e-12)
        with pytest.raises(ValueError, match="not a contraction"):
            fam.value_at(3.0)  # |b| > 1 off the disk: measured, as without a bound


class TestSpaceGap:
    """Spaces a user built pass the space check within a 1e-6 subspace gap."""

    @pytest.mark.parametrize("angle, accepted", [(1e-7, True), (1e-5, False)])
    def test_rotated_basis(self, rng, angle, accepted):
        from isoresolvent import Subspace, orthogonal_complement

        v = random_isometry(rng, n_max=7, n_min=6, allow_full=False, allow_empty=False)
        frame = DefectFrame.of(v, 0.0)
        src = frame.src.basis.copy()
        w = orthogonal_complement(frame.src).basis[:, 0]
        src[:, 0] = math.cos(angle) * src[:, 0] + math.sin(angle) * w
        rotated = Subspace(v.ambient_dim, src)
        assert abs(subspace_gap(rotated, frame.src) - math.sin(angle)) <= 1e-9
        c = ContractionOp(rotated, frame.dst, np.zeros((frame.dst.dim, frame.src.dim)))
        if accepted:
            assert frame.space_violations(c) == []
            orthogonal_extension(v, 0.0, c)
        else:
            assert frame.space_violations(c) == ["parameter source does not match the defect space at z0"]
            with pytest.raises(ValueError, match="parameter source"):
                orthogonal_extension(v, 0.0, c)
