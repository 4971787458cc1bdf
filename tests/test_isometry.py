import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isoresolvent import (
    DEFAULT_TOL,
    INF,
    IsometricOperator,
    PreconditionViolated,
    decompositions,
    defect_spaces,
    orthonormalize,
    projection_identity_residual,
    reflected_point,
    regular_type,
    subspace_gap,
)
from isoresolvent.numerics import singular_values
from isoresolvent.sampling import random_isometry, regular_boundary_point


def identity_on_c1() -> IsometricOperator:
    return IsometricOperator(1, [[1]], [[1]])


class TestConstruction:
    def test_rejects_non_orthonormal_domain(self):
        with pytest.raises(ValueError):
            IsometricOperator(2, [[1, 1], [0, 0]], [[0, 0], [1, 1]])

    def test_rejects_non_isometric_images(self):
        with pytest.raises(ValueError):
            IsometricOperator(2, [[1], [0]], [[0.5], [0]])

    def test_apply_outside_domain_rejected(self, e1):
        with pytest.raises(ValueError):
            e1.apply([0, 1])

    def test_apply_inside_domain(self, e1):
        assert_allclose(e1.apply([2, 0]), [0, 2], atol=1e-14)


class TestDefectSpaces:
    def test_at_zero(self, e1):
        pair = defect_spaces(e1, 0)
        assert subspace_gap(pair.m, orthonormalize([[1, 0]])) <= 1e-12
        assert subspace_gap(pair.n, orthonormalize([[0, 1]])) <= 1e-12

    def test_at_i(self, e1):
        pair = defect_spaces(e1, 1j)
        expect_m = orthonormalize([np.array([1, -1j]) / math.sqrt(2)])
        expect_n = orthonormalize([np.array([-1j, 1]) / math.sqrt(2)])
        assert subspace_gap(pair.m, expect_m) <= 1e-12
        assert subspace_gap(pair.n, expect_n) <= 1e-12

    def test_at_inf(self, e1):
        pair = defect_spaces(e1, INF)
        assert subspace_gap(pair.m, orthonormalize([[0, 1]])) <= 1e-12
        assert subspace_gap(pair.n, orthonormalize([[1, 0]])) <= 1e-12

    def test_dims_sum_to_ambient(self, rng):
        for _ in range(30):
            v = random_isometry(rng, n_max=7)
            for zeta in (0, 0.3 - 0.2j, 1j, 2.0, INF):
                pair = defect_spaces(v, zeta)
                assert pair.m.dim + pair.n.dim == v.ambient_dim
                cross = pair.m.basis.conj().T @ pair.n.basis
                worst = float(np.max(np.abs(cross))) if cross.size else 0.0
                assert worst <= DEFAULT_TOL.eps_eq

    def test_defect_dim_equals_domain_dim_when_injective(self, rng):
        for _ in range(20):
            v = random_isometry(rng, n_max=7)
            z = 0.4 * np.exp(1j * rng.uniform(0, 2 * math.pi))
            pair = defect_spaces(v, z)
            assert pair.m.dim == v.domain_dim

    def test_deterministic_bases(self, e1):
        a = defect_spaces(e1, 0.3 + 0.1j)
        b = defect_spaces(e1, 0.3 + 0.1j)
        assert np.array_equal(a.m.basis, b.m.basis)
        assert np.array_equal(a.n.basis, b.n.basis)


class TestRegularType:
    def test_e1_at_i(self, e1):
        rt = regular_type(e1, 1j)
        assert rt.is_regular
        assert abs(rt.sigma_min - math.sqrt(2)) <= 1e-12

    def test_identity_at_its_eigenvalue(self):
        rt = regular_type(identity_on_c1(), 1.0)
        assert not rt.is_regular
        assert rt.sigma_min <= 1e-14

    def test_identity_off_spectrum(self):
        rt = regular_type(identity_on_c1(), 2.0)
        assert rt.is_regular
        assert abs(rt.sigma_min - 1.0) <= 1e-12

    def test_empty_domain_is_regular_everywhere(self):
        v = IsometricOperator(2, np.zeros((2, 0)), np.zeros((2, 0)))
        rt = regular_type(v, 1.0)
        assert rt.is_regular and rt.sigma_min == math.inf


class TestDecompositions:
    def test_e1_at_one_against_svd_oracle(self, e1):
        report = decompositions(e1, 1.0)
        assert report.all_direct_and_spanning
        # Oracle: sigma_min of [e1 | (1,1)/sqrt(2)] computed directly.
        concat = np.column_stack([[1, 0], np.array([1, 1]) / math.sqrt(2)])
        oracle = float(singular_values(concat)[-1])
        got = report.entries["domain_defect"].directness_measure
        assert abs(got - oracle) <= 1e-12
        assert abs(got - 0.5411961001461969) <= 1e-9

    def test_e1_at_i(self, e1):
        report = decompositions(e1, 1j)
        assert report.all_direct_and_spanning

    def test_precondition_violated(self):
        with pytest.raises(PreconditionViolated):
            decompositions(identity_on_c1(), 1.0)

    def test_rejects_interior_point(self, e1):
        with pytest.raises(ValueError):
            decompositions(e1, 0.5)

    def test_randomized_all_four_direct_and_spanning(self, rng):
        for _ in range(50):
            v = random_isometry(rng, n_max=8)
            lam = regular_boundary_point(rng, v)
            report = decompositions(v, lam)
            assert report.all_direct_and_spanning, (v.ambient_dim, v.domain_dim, lam)
            for check in report.entries.values():
                assert check.directness_measure > DEFAULT_TOL.eps_rank


class TestProjectionIdentity:
    def test_e1_at_one_by_hand(self, e1):
        # f = (1,1)/sqrt(2); V P_{M0} f = e2/sqrt(2) = conj(1) * P_{Minf} f.
        assert projection_identity_residual(e1, 1.0) <= 1e-14

    def test_e1_at_i_by_hand(self, e1):
        # f = (-i,1)/sqrt(2); both sides equal -i e2 / sqrt(2).
        assert projection_identity_residual(e1, 1j) <= 1e-14

    def test_vacuous_for_unitary(self, rng):
        from isoresolvent.sampling import random_unitary

        u = random_unitary(rng, 3)
        v = IsometricOperator(3, np.eye(3), u)
        assert projection_identity_residual(v, 1j) == 0.0

    def test_randomized(self, rng):
        for _ in range(50):
            v = random_isometry(rng, n_max=8)
            lam = np.exp(1j * rng.uniform(0, 2 * math.pi))
            assert projection_identity_residual(v, lam) <= DEFAULT_TOL.eps_eq


class TestRangeProjectionOntoProperty:
    def test_projection_of_m_onto_m_inf_is_onto(self, rng):
        # Any counterexample here is a hard failure to investigate.
        for _ in range(60):
            v = random_isometry(rng, n_max=8)
            lam = regular_boundary_point(rng, v)
            m_lam = defect_spaces(v, lam).m
            m_inf = defect_spaces(v, INF).m
            if m_inf.dim == 0:
                continue
            mat = m_inf.basis.conj().T @ m_lam.basis
            s = singular_values(mat)
            assert s.size >= m_inf.dim
            assert float(s[m_inf.dim - 1]) > DEFAULT_TOL.eps_rank


class TestReflectedPoint:
    def test_zero_and_inf_swap(self):
        assert reflected_point(0) == INF
        assert reflected_point(INF) == 0

    def test_circle_inverse(self):
        assert abs(reflected_point(0.5j) - 2j) <= 1e-15
        assert abs(reflected_point(0.5) - 2.0) <= 1e-15


# V e1 = (mu e1 + mu e2 + e3 + i e4) / 2 and V e2 = (mu e1 + mu e2 - e3 - i e4) / 2
# with mu = exp(i pi / 3), so V (e1 + e2) = mu (e1 + e2) and E - conj(mu) V
# loses rank on D(V).  Scenario parameter matrices are written in the
# canonical defect bases, so their entries are pinned here, not only their
# spans.
_MU = complex(0.5, math.sqrt(3) / 2)
_PINNED_V = IsometricOperator(
    4,
    np.eye(4, dtype=complex)[:, :2],
    [[_MU / 2, _MU / 2], [_MU / 2, _MU / 2], [0.5, -0.5], [0.5j, -0.5j]],
)
_R3 = math.sqrt(3) / 4
_PINNED_BASES = {
    "zero": (
        0j,
        [[1, 0], [0, 1], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0], [0, 1]],
    ),
    "interior": (
        0.3 + 0.1j,
        [
            [0.9510522276120577 - 0.15214439827925216j, 0.02708193608330601 - 0.16175217374063836j],
            [-0.031134057681368094 - 0.15214439827925216j, 0.9509281998974319 - 0.16175217374063836j],
            [-0.14732794279401384 - 0.049109314264671286j, 0.1385769395721189 + 0.0461923131907063j],
            [0.049109314264671286 - 0.14732794279401384j, -0.0461923131907063 + 0.1385769395721189j],
        ],
        [
            [0.15075567228888181, 0.15075567228888181],
            [-0.15075567228888181, -0.15075567228888181],
            [0.9266089500056036 + 0.30886870295364416j, -0.02207491627231278 - 0.007357358375880591j],
            [0.007357358375880589 - 0.022074916272312776j, -0.3088687029536441 + 0.9266089500056036j],
        ],
    ),
    "inf": (
        INF,
        [[_MU / 2, _MU / 2], [_MU / 2, _MU / 2], [0.5, -0.5], [0.5j, -0.5j]],
        [[0.5, 0.5], [-0.5, -0.5], [-0.5, 0.5], [0.5j, -0.5j]],
    ),
    "boundary": (
        _MU.conjugate(),
        [[0.5], [-0.5], [-0.25 + _R3 * 1j], [-_R3 - 0.25j]],
        [
            [0.5, 0.5, 0.5],
            [0.8333333333333334, -0.16666666666666666, -0.16666666666666666],
            [-0.08333333333333336 + 0.14433756729740643j, 0.41666666666666674 - 0.721687836487032j,
             -0.08333333333333333 + 0.14433756729740646j],
            [-0.14433756729740643 - 0.08333333333333336j, -0.14433756729740643 - 0.08333333333333334j,
             0.721687836487032 + 0.4166666666666668j],
        ],
    ),
}


class TestPinnedCanonicalBases:
    @pytest.mark.parametrize("point", sorted(_PINNED_BASES))
    def test_entries(self, point):
        zeta, m_basis, n_basis = _PINNED_BASES[point]
        pair = defect_spaces(_PINNED_V, zeta)
        assert pair.m.basis.shape == np.shape(m_basis)
        assert pair.n.basis.shape == np.shape(n_basis)
        assert_allclose(pair.m.basis, m_basis, rtol=0, atol=1e-12)
        assert_allclose(pair.n.basis, n_basis, rtol=0, atol=1e-12)
