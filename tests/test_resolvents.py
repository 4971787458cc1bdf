import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isoresolvent import (
    DEFAULT_TOL,
    IsometricOperator,
    ResolventFn,
    SingularOperator,
    Subspace,
    chumakin,
    constant_family,
    continuation_consistency,
    defect_parameter,
    exterior_value,
    extend_full,
    gap_on_arc,
    herglotz_check,
    herglotz_samples,
    inin,
    max_abs,
    operator_norm,
    orthogonal_extension,
    recover_parameter,
    unitary_eig,
    verify_inversion,
)
from isoresolvent.sampling import (
    disk_grid,
    random_disk_point,
    random_isometry,
    random_parameter,
    random_unitary,
    random_unitary_parameter,
)


def scalar_model(c: float) -> tuple[IsometricOperator, ResolventFn]:
    """Empty-domain operator on C^1; the resolvent is 1/(1 - c zeta)."""
    v = IsometricOperator(1, np.zeros((1, 0)), np.zeros((1, 0)))
    fam = constant_family(defect_parameter(v, 0.0, [[c]]), 0.0)
    return v, ResolventFn(v, fam)


def unit_family(e1):
    return constant_family(defect_parameter(e1, 0.0, [[1.0]]), 0.0)


class TestChumakin:
    def test_closed_form(self, e1):
        r = chumakin(e1, unit_family(e1), 0.5)
        assert_allclose(r, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-9)

    def test_identity_at_origin(self, rng):
        for _ in range(5):
            v = random_isometry(rng, n_max=6)
            fam = constant_family(random_parameter(rng, v), 0.0)
            assert max_abs(chumakin(v, fam, 0.0) - np.eye(v.ambient_dim)) <= 1e-14

    def test_analytic_derivative_probe(self, e1):
        # Oracle: for a constant parameter, dR/dzeta = R T R with T the
        # extended operator; compare with a central finite difference.
        fam = unit_family(e1)
        t = extend_full(e1, 0.0, fam.constant).matrix
        zeta, h = 0.3, 1e-4
        r = chumakin(e1, fam, zeta)
        analytic = r @ t @ r
        numeric = (chumakin(e1, fam, zeta + h) - chumakin(e1, fam, zeta - h)) / (2 * h)
        assert max_abs(numeric - analytic) <= 1e-5

    def test_rejects_boundary(self, e1):
        with pytest.raises(ValueError):
            chumakin(e1, unit_family(e1), 1.0)


class TestInin:
    def test_coincides_with_chumakin_at_base_zero(self, rng):
        worst = 0.0
        for _ in range(5):
            v = random_isometry(rng, n_max=6)
            fam = constant_family(random_parameter(rng, v), 0.0)
            for zeta in disk_grid(20):
                worst = max(worst, max_abs(inin(v, fam, zeta) - chumakin(v, fam, zeta)))
        assert worst <= 10 * DEFAULT_TOL.eps_eq

    def test_constant_parameter_rebase_equivalence(self, e1):
        # Oracle: the fixed orthogonal extension decoded at base 0 feeds the
        # base-0 formula; both routes must produce the same resolvent.
        c = defect_parameter(e1, 0.5, [[1.0]])
        fam_half = constant_family(c, 0.5)
        fixed = orthogonal_extension(e1, 0.5, c)
        f0 = recover_parameter(fixed, e1, 0.0)
        fam_zero = constant_family(f0, 0.0)
        worst = 0.0
        for zeta in disk_grid(20):
            worst = max(worst, max_abs(inin(e1, fam_half, zeta) - chumakin(e1, fam_zero, zeta)))
        assert worst <= 10 * DEFAULT_TOL.eps_eq

    def test_identity_at_origin(self, e1):
        fam = constant_family(defect_parameter(e1, 0.3, [[0.4]]), 0.3)
        assert max_abs(inin(e1, fam, 0.0) - np.eye(2)) <= 1e-14


class TestResolventFn:
    def test_base_point_from_family_and_policy_by_keyword(self, e1):
        """The frame sits at the family's base point; a stale positional z0
        in the place of the keyword-only policy is a TypeError."""
        fam = constant_family(defect_parameter(e1, 0.3, [[0.4]]), 0.3)
        assert ResolventFn(e1, fam).frame.z0 == 0.3
        with pytest.raises(TypeError):
            ResolventFn(e1, unit_family(e1), 0.0)


class TestExteriorBranch:
    def test_e1_value(self, e1):
        r = ResolventFn(e1, unit_family(e1))
        assert_allclose(
            exterior_value(r, 2.0), [[-1 / 3, -2 / 3], [-2 / 3, -1 / 3]], atol=1e-9
        )

    def test_matches_direct_inverse_of_unitary_extension(self, e1):
        r = ResolventFn(e1, unit_family(e1))
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        direct = np.linalg.inv(np.eye(2) - 2.0 * u)
        assert max_abs(exterior_value(r, 2.0) - direct) <= 10 * DEFAULT_TOL.eps_eq

    def test_reflection_involution(self, e1):
        r = ResolventFn(e1, unit_family(e1))
        z = 1.7 - 0.4j
        back = np.eye(2) - exterior_value(r, z).conj().T
        assert max_abs(back - r.interior(1.0 / z.conjugate())) <= 1e-12

    def test_in_space_unitary_extensions_randomized(self, rng):
        for _ in range(10):
            v = random_isometry(rng, n_max=6)
            c = random_unitary_parameter(rng, v)
            r = ResolventFn(v, constant_family(c, 0.0))
            u = extend_full(v, 0.0, c).matrix
            for _ in range(3):
                z = rng.uniform(1.1, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                direct = np.linalg.solve(np.eye(v.ambient_dim) - z * u, np.eye(v.ambient_dim))
                assert max_abs(exterior_value(r, z) - direct) <= 10 * DEFAULT_TOL.eps_eq

    def test_rejects_interior(self, e1):
        r = ResolventFn(e1, unit_family(e1))
        with pytest.raises(ValueError):
            exterior_value(r, 0.5)
        with pytest.raises(ValueError):
            r.at(np.exp(0.3j))


class TestSpectralData:
    def test_examples(self):
        data = unitary_eig(np.diag([1.0, -1.0]).astype(complex))
        assert [round(a.angle, 12) for a in data.atoms] == [0.0, round(math.pi, 12)]
        data = unitary_eig(np.eye(3, dtype=complex))
        assert len(data.atoms) == 1
        swap = unitary_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert_allclose(swap.atoms[0].projector, 0.5 * np.ones((2, 2)), atol=1e-12)


class TestVerifyInversion:
    def test_swap_matrix_partial_fractions(self):
        # Hand oracle: 1/2/(1-z) + 1/2/(1+z) = 1/(1-z^2); at z = 1/2 -> 4/3.
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        e1_vec = np.array([1.0, 0.0])
        residual = verify_inversion(u, [(0.5, e1_vec, e1_vec)])
        assert residual <= 1e-12
        lhs = np.vdot(e1_vec, np.linalg.solve(np.eye(2) - 0.5 * u, e1_vec))
        assert abs(lhs - 4 / 3) <= 1e-12

    def test_identity_extension(self, rng):
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = 0.37 - 0.11j
        residual = verify_inversion(np.eye(3, dtype=complex), [(z, h, h)])
        assert residual <= 1e-12
        value = np.vdot(h, np.linalg.solve(np.eye(3) - z * np.eye(3), h))
        assert abs(value - np.vdot(h, h) / (1 - z)) <= 1e-10

    def test_random_unitary_samples(self, rng):
        u = random_unitary(rng, 6)
        samples = []
        for _ in range(30):
            z = random_disk_point(rng, 0.0, 0.9)
            h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            samples.append((z, h, g))
        assert verify_inversion(u, samples) <= 10 * DEFAULT_TOL.eps_eq


class TestHerglotz:
    def test_origin_value(self, e1, rng):
        r = ResolventFn(e1, unit_family(e1))
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        samples = herglotz_samples(r, [0.0], [h])
        expect = 0.5 * float(np.vdot(h, h).real)
        assert abs(samples[0].value - expect) <= 1e-12

    def test_scalar_model_value(self):
        _, r = scalar_model(0.9)
        samples = herglotz_samples(r, [0.9], [np.array([1.0])])
        assert abs(samples[0].value.real - (1 / (1 - 0.81) - 0.5)) <= 1e-12
        assert samples[0].value.real == pytest.approx(4.763157894736842)

    def test_positivity_randomized(self, rng):
        minimum = math.inf
        for _ in range(40):
            v = random_isometry(rng, n_max=6)
            r = ResolventFn(v, constant_family(random_parameter(rng, v), 0.0))
            grid = [random_disk_point(rng, 0.0, 0.9) for _ in range(4)]
            vecs = [rng.standard_normal(v.ambient_dim) + 1j * rng.standard_normal(v.ambient_dim)]
            minimum = min(minimum, herglotz_check(r, grid, vecs))
        assert minimum >= -DEFAULT_TOL.eps_eq


class TestGapOnArc:
    def test_swap_matrix_arcs(self):
        sd = unitary_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        full = Subspace.full(2)
        assert gap_on_arc(sd, full, (math.pi / 4, 3 * math.pi / 4))[0]
        assert gap_on_arc(sd, full, (0.0001, math.pi / 2))[0]
        ok, witnesses = gap_on_arc(sd, full, (2.9, 3.3))
        assert not ok
        assert witnesses and abs(witnesses[0][1] - math.pi) <= 1e-9

    def test_empty_arc_interior(self):
        sd = unitary_eig(np.eye(2, dtype=complex))
        assert gap_on_arc(sd, Subspace.full(2), (1.0, 2.0))[0]

    def test_bad_arc_rejected(self):
        sd = unitary_eig(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            gap_on_arc(sd, Subspace.full(2), (2.0, 1.0))

    @pytest.mark.parametrize("arc", [(1.0, 2.0), (3.0, 3.3)])
    def test_embed_of_another_dimension_rejected(self, arc):
        # The arc (1, 2) holds no atom of -E, and (3, 3.3) holds its one atom.
        sd = unitary_eig(-np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match=r"dimension 2, the spectral data in 3"):
            gap_on_arc(sd, Subspace.full(2), arc)

    def test_weights_equal_the_dense_compression(self, rng):
        # Oracle: ||P_E P_k P_E|| from the n x n projectors, for embeds of
        # every codimension and unitaries with multiple atoms.
        for _ in range(40):
            n = int(rng.integers(2, 9))
            q = random_unitary(rng, n)
            angles = rng.uniform(0.1, 6.0, n)
            angles[: n // 3] = angles[0]
            sd = unitary_eig((q * np.exp(1j * angles)) @ q.conj().T)
            embed = Subspace(n, random_unitary(rng, n)[:, : int(rng.integers(1, n + 1))])
            p_embed = embed.basis @ embed.basis.conj().T
            _, witnesses = gap_on_arc(sd, embed, (0.0, 2 * math.pi))
            dense = [operator_norm(p_embed @ a.projector @ p_embed) for a in sd.atoms]
            assert [w[0] for w in witnesses] == [k for k, d in enumerate(dense) if d > DEFAULT_TOL.eps_eq]
            for index, _, weight in witnesses:
                assert abs(weight - dense[index]) <= 1e-12

    def test_whole_circle_takes_no_square_svd(self, rng, svd_shapes):
        n = 64
        sd = unitary_eig(random_unitary(rng, n))
        embed = Subspace(n, random_unitary(rng, n)[:, : n - 4])
        ok, witnesses = gap_on_arc(sd, embed, (0.0, 2 * math.pi))
        assert not ok and len(witnesses) == n
        assert svd_shapes[(n, n)] == 0
        assert sum(svd_shapes.values()) == n


class TestContinuationConsistency:
    def test_unitary_parameter_glues(self, e1):
        r = ResolventFn(e1, unit_family(e1))
        assert continuation_consistency(r, 1j) <= DEFAULT_TOL.eps_eq

    def test_scalar_model_gap_value(self):
        # Hand oracle on the empty-domain scalar model with c = 0.5 at
        # lam = i: |2 Re(1/(1 - 0.5 i)) - 1| = |1.6 - 1| = 0.6.
        _, r = scalar_model(0.5)
        residual = continuation_consistency(r, 1j)
        assert abs(residual - 0.6) <= 1e-12

    def test_e1_strict_contraction_does_not_glue(self, e1):
        fam = constant_family(defect_parameter(e1, 0.0, [[0.5]]), 0.0)
        r = ResolventFn(e1, fam)
        assert continuation_consistency(r, 1j) > 0.1

    def test_singular_at_spectral_atom(self, e1):
        r = ResolventFn(e1, unit_family(e1))
        with pytest.raises(SingularOperator):
            continuation_consistency(r, 1.0)


class TestBoundaryEquivalence:
    """Gap on an arc versus gluing of the branches, both directions, for
    in-space unitary extensions."""

    def test_gap_implies_gluing_on_reflected_samples(self, e1):
        r = ResolventFn(e1, unit_family(e1))
        u = extend_full(e1, 0.0, r.fam.constant).matrix
        sd = unitary_eig(u)
        arc = (math.pi / 4, 3 * math.pi / 4)
        assert gap_on_arc(sd, Subspace.full(2), arc)[0]
        # The resolvent continues across the conjugated arc.
        for j in range(1, 10):
            t = arc[0] + j * (arc[1] - arc[0]) / 10
            lam = np.exp(-1j * t)
            assert continuation_consistency(r, lam) <= DEFAULT_TOL.eps_eq

    def test_atom_inside_arc_blocks_gluing_at_hit_sample(self, e1):
        r = ResolventFn(e1, unit_family(e1))
        u = extend_full(e1, 0.0, r.fam.constant).matrix
        sd = unitary_eig(u)
        arc = (math.pi / 2, 3 * math.pi / 2)
        assert not gap_on_arc(sd, Subspace.full(2), arc)[0]
        hit = False
        for j in range(1, 10):
            t = arc[0] + j * (arc[1] - arc[0]) / 10
            lam = np.exp(-1j * t)
            try:
                continuation_consistency(r, lam)
            except SingularOperator:
                hit = True
        assert hit
