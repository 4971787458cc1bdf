import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from isoresolvent import (
    DEFAULT_TOL,
    NonUnitaryOperator,
    SingularOperator,
    Subspace,
    guarded_inverse,
    max_abs,
    orthogonal_complement,
    orthonormalize,
    projector,
    subspace_gap,
    unitary_eig,
)
from isoresolvent.numerics import TolerancePolicy, sigma_min


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_TOL.eps_rank == 1e-9
        assert DEFAULT_TOL.eps_eq == 1e-8
        assert DEFAULT_TOL.eps_unit == 1e-8

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-3, 0.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            TolerancePolicy(eps_rank=bad)


def gram_schmidt(columns: np.ndarray, eps_rank: float = DEFAULT_TOL.eps_rank) -> np.ndarray:
    """Reference basis: Gram-Schmidt in input order, each column orthogonalized
    twice, dropped when its residual is at most eps_rank times its norm."""
    basis = []
    for col in columns.T:
        w = col.copy()
        for _ in range(2):
            for q in basis:
                w = w - np.vdot(q, w) * q
        if np.linalg.norm(w) > eps_rank * np.linalg.norm(col):
            basis.append(w / np.linalg.norm(w))
    return np.column_stack(basis) if basis else np.zeros((columns.shape[0], 0), dtype=complex)


@st.composite
def column_sets(draw):
    """(columns, rank): well-conditioned Gaussian columns and, at drawn
    places, random combinations of the columns before them."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, independent = [], []
    for dependent in draw(st.lists(st.booleans(), min_size=1, max_size=10)):
        if columns and (dependent or len(independent) == n):
            weights = rng.standard_normal(len(columns)) + 1j * rng.standard_normal(len(columns))
            columns.append(np.column_stack(columns) @ weights)
        else:
            independent.append(len(columns))
            columns.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    mat = np.column_stack(columns)
    assume(np.linalg.cond(mat[:, independent]) < 1e3)
    return mat, len(independent)


class TestOrthonormalize:
    def test_already_orthonormal(self):
        s = orthonormalize([[1, 0], [0, 1]])
        assert_allclose(s.basis, np.eye(2), atol=1e-14)

    def test_single_vector_normalized(self):
        s = orthonormalize([[1, -0.5]])
        expect = np.array([[2], [-1]]) / math.sqrt(5)
        assert_allclose(s.basis, expect, atol=1e-14)

    def test_dependent_vector_dropped(self):
        s = orthonormalize([[1, 0], [2, 0]])
        assert s.dim == 1
        assert_allclose(s.basis, [[1], [0]], atol=1e-14)

    @pytest.mark.parametrize("size", [6.756904881675528e-161, 1e-200, 5e-324])
    def test_tiny_vector_normalized(self, size):
        # Squares of these entries underflow below the normal range.
        s = orthonormalize([[0, 0, size], [0, size, size]])
        assert_allclose(s.basis, [[0, 0], [0, 1], [1, 0]], atol=1e-14)

    @pytest.mark.parametrize("size", [1.4e154, 1e200, 1.7e308])
    def test_huge_vector_normalized(self, size):
        # Squares of these entries overflow the float range.
        s = orthonormalize([[0, 0, size], [0, size, size]])
        assert_allclose(s.basis, [[0, 0], [0, 1], [1, 0]], atol=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(column_sets())
    def test_matches_reference_gram_schmidt(self, drawn):
        columns, rank = drawn
        s = orthonormalize([columns[:, j] for j in range(columns.shape[1])])
        ref = gram_schmidt(columns)
        assert s.dim == ref.shape[1] == rank
        assert max_abs(s.basis - ref) <= 1e-12

    def test_non_adjacent_dependent_column_dropped(self, rng):
        a, b, c = (rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3))
        s = orthonormalize([a, b, a + b, c])
        assert s.dim == 3
        assert max_abs(s.basis - orthonormalize([a, b, c]).basis) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            orthonormalize([[1, 0], [1, 0, 0]])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize([])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_idempotent_on_own_output(self, vectors):
        first = orthonormalize(np.asarray(vectors, dtype=complex))
        if first.dim == 0:
            return
        again = orthonormalize([first.basis[:, j] for j in range(first.dim)])
        assert again.dim == first.dim
        assert subspace_gap(first, again) <= DEFAULT_TOL.eps_eq


class TestComplementAndProjector:
    def test_coordinate_complement(self):
        s = orthonormalize([[1, 0]])
        comp = orthogonal_complement(s)
        assert comp.dim == 1
        assert subspace_gap(comp, orthonormalize([[0, 1]])) <= 1e-12

    def test_complement_against_nullspace_oracle(self):
        # Oracle: the complement of span{v} is the nullspace of v^H.
        v = np.array([1, -1j]) / math.sqrt(2)
        s = orthonormalize([v])
        comp = orthogonal_complement(s)
        assert comp.dim == 1
        assert abs(np.vdot(v, comp.basis[:, 0])) <= 1e-14
        _, _, vh = np.linalg.svd(v.conj().reshape(1, -1))
        oracle = Subspace(2, vh[1:].conj().T)
        assert subspace_gap(comp, oracle) <= 1e-12

    def test_full_space_has_zero_complement(self):
        comp = orthogonal_complement(Subspace.full(2))
        assert comp.dim == 0

    def test_projector_values(self):
        assert_allclose(projector(Subspace.full(3)), np.eye(3), atol=1e-14)
        assert_allclose(projector(orthonormalize([[1, 0]])), np.diag([1.0, 0.0]), atol=1e-14)
        p = projector(orthonormalize([[1, 1]]))
        assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_projector_idempotent_hermitian(self):
        p = projector(orthonormalize([[1, 2j, -1], [0, 1, 1]]))
        assert max_abs(p @ p - p) <= DEFAULT_TOL.eps_eq
        assert max_abs(p - p.conj().T) <= DEFAULT_TOL.eps_eq

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_projectors_resolve_identity(self, vectors):
        s = orthonormalize(np.asarray(vectors, dtype=complex))
        comp = orthogonal_complement(s)
        assert s.dim + comp.dim == 4
        assert max_abs(projector(s) + projector(comp) - np.eye(4)) <= DEFAULT_TOL.eps_eq


class TestUnitaryEig:
    def test_diagonal(self):
        data = unitary_eig(np.diag([1.0, -1.0]).astype(complex))
        assert len(data.atoms) == 2
        assert_allclose([a.angle for a in data.atoms], [0.0, math.pi], atol=1e-12)
        assert_allclose(data.atoms[0].projector, np.diag([1.0, 0.0]), atol=1e-12)
        assert_allclose(data.atoms[1].projector, np.diag([0.0, 1.0]), atol=1e-12)

    def test_swap_matrix_against_hand_eigensolve(self):
        # Oracle: 2x2 eigensolve by hand gives lambda = +-1 with projectors
        # onto (1, +-1)/sqrt(2).
        data = unitary_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert_allclose([a.value for a in data.atoms], [1.0, -1.0], atol=1e-12)
        p_plus = 0.5 * np.array([[1, 1], [1, 1]])
        p_minus = 0.5 * np.array([[1, -1], [-1, 1]])
        assert_allclose(data.atoms[0].projector, p_plus, atol=1e-12)
        assert_allclose(data.atoms[1].projector, p_minus, atol=1e-12)

    def test_identity_merges_to_single_atom(self):
        data = unitary_eig(np.eye(3, dtype=complex))
        assert len(data.atoms) == 1
        assert_allclose(data.atoms[0].projector, np.eye(3), atol=1e-12)

    def test_nearly_equal_angles_merge(self):
        u = np.diag([1.0, np.exp(1j * 5e-10)])
        data = unitary_eig(u)
        assert len(data.atoms) == 1

    def test_wraparound_merge(self):
        u = np.diag([np.exp(1j * 2e-10), np.exp(-1j * 2e-10)])
        data = unitary_eig(u)
        assert len(data.atoms) == 1

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryOperator):
            unitary_eig(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_reconstruction_on_random_unitaries(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(g)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            data = unitary_eig(u)
            assert max_abs(data.reconstruct() - u) <= 10 * DEFAULT_TOL.eps_eq
            assert max_abs(data.projector_sum() - np.eye(n)) <= 10 * DEFAULT_TOL.eps_eq
            for atom in data.atoms:
                assert abs(abs(atom.value) - 1.0) <= DEFAULT_TOL.eps_unit
            for i, a in enumerate(data.atoms):
                for b in data.atoms[i + 1 :]:
                    assert max_abs(a.projector @ b.projector) <= 10 * DEFAULT_TOL.eps_eq


class TestGuardedInverse:
    def test_identity(self):
        assert_allclose(guarded_inverse(np.eye(2, dtype=complex)), np.eye(2), atol=1e-14)

    def test_two_by_two_adjugate_oracle(self):
        m = np.array([[1.0, -0.5], [-0.5, 1.0]], dtype=complex)
        expect = (4.0 / 3.0) * np.array([[1.0, 0.5], [0.5, 1.0]])
        assert_allclose(guarded_inverse(m), expect, atol=1e-12)

    def test_singular_raises_with_sigma(self):
        with pytest.raises(SingularOperator) as err:
            guarded_inverse(np.ones((2, 2), dtype=complex))
        assert err.value.sigma_min <= DEFAULT_TOL.eps_rank

    def test_double_inverse_returns_original(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if sigma_min(m) <= 1e-3:
                continue
            back = guarded_inverse(guarded_inverse(m))
            assert max_abs(back - m) <= 10 * DEFAULT_TOL.eps_eq

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            guarded_inverse(np.zeros((2, 3), dtype=complex))
