import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isoresolvent import (
    DEFAULT_TOL,
    IsometricOperator,
    ResolventFn,
    Subspace,
    cayley,
    constant_family,
    defect_spaces,
    disk_bound,
    exterior_value,
    inin,
    inverse_cayley,
    max_abs,
    reflected_point,
    regular_type_correspondence,
    relate_resolvents,
    scalar_maps,
    subspace_gap,
)
from isoresolvent.sampling import (
    random_disk_point,
    random_isometry,
    random_parameter,
    random_unitary,
)


def as_subspace(v: IsometricOperator, which: str) -> Subspace:
    basis = v.domain_basis if which == "domain" else v.image_basis
    return Subspace(v.ambient_dim, basis)


class TestCayley:
    def test_at_zero_is_identity_transform(self, e1):
        w = cayley(e1, 0)
        assert_allclose(w.domain_basis, e1.domain_basis, atol=1e-14)
        assert_allclose(w.image_basis, e1.image_basis, atol=1e-14)

    def test_e1_at_half(self, e1):
        w = cayley(e1, 0.5)
        expect_dom = np.array([[2], [-1]]) / math.sqrt(5)
        expect_img = np.array([[-1], [2]]) / math.sqrt(5)
        assert_allclose(w.domain_basis, expect_dom, atol=1e-14)
        assert_allclose(w.image_basis, expect_img, atol=1e-14)

    def test_unitary_stays_unitary(self, rng):
        u = random_unitary(rng, 4)
        v = IsometricOperator(4, np.eye(4), u)
        w = cayley(v, 0.3 - 0.4j)
        assert w.domain_dim == 4
        full = w.image_basis @ w.domain_basis.conj().T
        assert max_abs(full.conj().T @ full - np.eye(4)) <= DEFAULT_TOL.eps_unit

    def test_domain_and_range_are_defect_spaces(self, rng):
        for _ in range(10):
            v = random_isometry(rng, n_max=6)
            z = random_disk_point(rng, 0.0, 0.8)
            w = cayley(v, z)
            m_z = defect_spaces(v, z).m
            m_refl = defect_spaces(v, reflected_point(z)).m if z != 0 else defect_spaces(v, float("inf")).m
            assert subspace_gap(as_subspace(w, "domain"), m_z) <= 1e-10
            assert subspace_gap(as_subspace(w, "image"), m_refl) <= 1e-10

    def test_rejects_boundary_point(self, e1):
        with pytest.raises(ValueError):
            cayley(e1, 1.0)


class TestInverseCayley:
    def test_at_zero(self, e1):
        w = inverse_cayley(e1, 0)
        assert_allclose(w.domain_basis, e1.domain_basis, atol=1e-14)

    def test_roundtrip_on_e1(self, e1):
        back = inverse_cayley(cayley(e1, 0.5), 0.5)
        assert subspace_gap(as_subspace(back, "domain"), as_subspace(e1, "domain")) <= 1e-12
        assert max_abs(back.partial_matrix() - e1.partial_matrix()) <= 1e-12

    def test_roundtrip_randomized(self, rng):
        worst = 0.0
        for _ in range(200):
            v = random_isometry(rng, n_max=8)
            z = random_disk_point(rng, 0.0, 0.85)
            back = inverse_cayley(cayley(v, z), z)
            worst = max(worst, max_abs(back.partial_matrix() - v.partial_matrix()))
            assert subspace_gap(as_subspace(back, "domain"), as_subspace(v, "domain")) <= 1e-8
        assert worst <= 10 * DEFAULT_TOL.eps_eq


class TestScalarMaps:
    def test_zero_at_conjugate_base(self):
        m = scalar_maps(0.4 - 0.3j)
        assert abs(m.forward((0.4 - 0.3j).conjugate())) <= 1e-15

    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi])
    def test_circle_to_circle(self, theta):
        m = scalar_maps(0.5)
        assert abs(abs(m.forward(np.exp(1j * theta))) - 1.0) <= 1e-12

    def test_inverse_roundtrip(self):
        m = scalar_maps(0.3 + 0.2j)
        for u in (0.2, 0.5j, np.exp(0.7j), 2.0 - 1.0j):
            assert abs(m.inverse(m.forward(u)) - complex(u)) <= 1e-12

    def test_pole_rejected(self):
        m = scalar_maps(0.5)
        with pytest.raises(ZeroDivisionError):
            m.forward(2.0)

    def test_disk_bound_value(self):
        got = disk_bound(0.5, -0.5j)
        assert abs(got - 0.6859943405700353) <= 1e-12
        assert got < 1.0

    def test_disk_bound_randomized(self, rng):
        for _ in range(50):
            assert disk_bound(random_disk_point(rng, 0, 0.95), random_disk_point(rng, 0, 0.95)) < 1.0

    def test_base_point_must_be_interior(self):
        with pytest.raises(ValueError):
            scalar_maps(1.0)
        assert scalar_maps(1 - 1e-9).z0 == 1 - 1e-9


class TestRegularTypeCorrespondence:
    def test_e1_exterior_point(self, e1):
        check = regular_type_correspondence(e1, 0.5, 2.0)
        assert check.cond_i and check.cond_ii

    def test_identity_on_c1_at_excluded_eigenvalue(self):
        v = IsometricOperator(1, [[1]], [[1]])
        check = regular_type_correspondence(v, 0.5, 1.0)
        assert check.cond_i == check.cond_ii == False  # noqa: E712

    def test_excluded_points_raise(self, e1):
        with pytest.raises(ValueError):
            regular_type_correspondence(e1, 0.5, 0.5)
        with pytest.raises(ValueError):
            regular_type_correspondence(e1, 0.5, 0.0)

    def test_equivalence_randomized(self, rng):
        checked = 0
        for _ in range(200):
            v = random_isometry(rng, n_max=7)
            z0 = random_disk_point(rng, 0.05, 0.8)
            zeta = random_disk_point(rng, 0.1, 2.5)
            if abs(abs(zeta) - 1.0) < 0.02 or abs(zeta) < 0.05 or abs(zeta - z0) < 0.05:
                continue
            check = regular_type_correspondence(v, z0, zeta)
            assert check.cond_i == check.cond_ii
            checked += 1
        assert checked > 100


class TestRelateResolvents:
    def _setup(self, rng, v=None, z0=0.5):
        v = v if v is not None else random_isometry(rng, n_max=6)
        z0 = complex(z0)
        c = random_parameter(rng, v, z0)
        fam_outer = constant_family(c, z0)
        w = cayley(v, z0)
        fam_inner = constant_family(c, 0.0)
        return v, z0, ResolventFn(v, fam_outer), ResolventFn(w, fam_inner)

    def test_matches_direct_formula_interior(self, e1, rng):
        v, z0, outer, inner = self._setup(rng, v=e1, z0=0.5)
        u = 0.3
        t = (u - z0) / (1 - z0.conjugate() * u)
        got = relate_resolvents(inner.at(t), z0, u)
        want = inin(v, outer.fam, u)
        assert max_abs(got - want) <= 10 * DEFAULT_TOL.eps_eq

    def test_matches_exterior_branch(self, e1, rng):
        v, z0, outer, inner = self._setup(rng, v=e1, z0=0.5)
        u = 2.0 + 0.5j
        t = (u - z0) / (1 - z0.conjugate() * u)
        got = relate_resolvents(inner.at(t), z0, u)
        want = exterior_value(outer, u)
        assert max_abs(got - want) <= 10 * DEFAULT_TOL.eps_eq

    def test_excluded_points(self, rng):
        m = np.eye(2, dtype=complex)
        for bad in (0.0, 0.5, 2.0):
            with pytest.raises(ValueError):
                relate_resolvents(m, 0.5, bad)
        with pytest.raises(ValueError):
            relate_resolvents(m, 0.0, 0.3)

    def test_self_inverse_under_swapped_roles(self, rng):
        # The transform of V at z0, transformed again at -z0, is V; applying
        # the relation with base -z0 to the outer resolvent must therefore
        # recover the inner one.
        for _ in range(20):
            v, z0, outer, inner = self._setup(rng, z0=random_disk_point(rng, 0.15, 0.6))
            t = random_disk_point(rng, 0.0, 0.85)
            if min(abs(t), abs(t + z0)) < 0.05:
                continue
            u = (t + z0) / (1 + z0.conjugate() * t)
            direct = inner.at(t)
            outer_val = relate_resolvents(direct, z0, u)
            back = relate_resolvents(outer_val, -z0, t)
            assert max_abs(back - direct) <= 10 * DEFAULT_TOL.eps_eq
