import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import isoresolvent
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
from isoresolvent.numerics import _SPLIT, TolerancePolicy, _mgs, _trailing, sigma_min
from isoresolvent.sampling import random_unitary


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

    @pytest.mark.parametrize("size", [1e154, 1.4e154, 1e200, 1.7e308])
    def test_huge_vector_normalized(self, size):
        # Squares of these entries overflow the float range, or their sums
        # do (1e154 is below sqrt(huge), and 2e308 above the largest float).
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


class TestTrailing:
    """The arc scan takes N_lambda from _trailing: the phase-fixed trailing
    columns of _mgs without R or the leading phases, bit for bit, also for
    columns whose squares leave the normal range."""

    @settings(max_examples=80, deadline=None)
    @given(
        column_sets(),
        st.lists(st.sampled_from([1.0, 1e-200, 1e-310, 6.756904881675528e-161, 1e154, 1e300]), min_size=1, max_size=10),
        st.sampled_from([0.0, 1.0, 1e200]),
    )
    def test_equals_the_trailing_columns_of_mgs(self, drawn, sizes, scale):
        columns, _ = drawn
        columns = columns * np.resize(sizes, columns.shape[1])
        q, _, kept = _mgs(columns, DEFAULT_TOL.eps_rank, scale)
        assert np.array_equal(_trailing(columns, DEFAULT_TOL.eps_rank, scale), q[:, len(kept) :])

    def test_empty_and_zero_columns(self):
        assert np.array_equal(_trailing(np.zeros((3, 0), dtype=complex), 1e-9), np.eye(3))
        assert np.array_equal(_trailing(np.zeros((3, 2), dtype=complex), 1e-9), np.eye(3))


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


def sequential_clusters(angles: np.ndarray, eps_rank: float) -> list[list[int]]:
    """Reference clustering: walk the sorted angles, start a new cluster at
    each step above eps_rank, then join the last cluster to the first when
    they meet across the 0 / 2*pi seam."""
    clusters: list[list[int]] = []
    for idx in np.argsort(angles, kind="stable"):
        if clusters and angles[idx] - angles[clusters[-1][-1]] <= eps_rank:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1 and angles[clusters[0][0]] + 2 * math.pi - angles[clusters[-1][-1]] <= eps_rank:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


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

    def test_collision_under_first_alpha_and_seam_cluster(self, rng):
        # Angles t1 + t2 = 2 atan(alpha) meet in the Hermitian matrix of the
        # first alpha, so the eigensolve must move on to the next one; the
        # pair at +-1e-13 is one atom across the seam, 2.5 a double atom.
        t2 = 1.0
        t1 = 2.0 * math.atan(_SPLIT[0]) - t2
        angles = np.array([t1, t2, 1e-13, -1e-13, 2.5, 2.5])
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(g)
        u = (q * np.exp(1j * angles)) @ q.conj().T
        w = (1.0 - 1j * _SPLIT[0]) * u
        _, z = np.linalg.eigh(w + w.conj().T)
        assert max_abs(u @ z - z * np.diag(z.conj().T @ u @ z)) > DEFAULT_TOL.eps_unit
        data = unitary_eig(u)
        assert len(data.atoms) == 4
        for angle, mult in ((t1, 1), (t2, 1), (0.0, 2), (2.5, 2)):
            (atom,) = [a for a in data.atoms if abs(a.value - np.exp(1j * angle)) <= 1e-12]
            assert abs(np.trace(atom.projector) - mult) <= 1e-12
        assert max_abs(data.reconstruct() - u) <= 1e-12
        assert max_abs(data.projector_sum() - np.eye(6)) <= 1e-12

    def test_raises_when_every_alpha_meets_a_pair(self, rng):
        # One pair of angles meets under each alpha, so no eigenbasis is accepted.
        pairs = [[t, 2.0 * math.atan(alpha) - t] for t, alpha in zip((1.0, 2.0, 4.0), _SPLIT)]
        angles = np.concatenate(pairs)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(g)
        with pytest.raises(np.linalg.LinAlgError):
            unitary_eig((q * np.exp(1j * angles)) @ q.conj().T)

    def test_clusters_match_sequential_reference(self, rng):
        # Diagonal unitaries: the eigenbasis is the coordinate basis, so each
        # atom's members are the nonzero diagonal entries of its projector.
        for _ in range(200):
            centers = rng.uniform(0.0, 2 * math.pi, int(rng.integers(1, 5)))
            centers[0] = 0.0
            angles = centers[rng.integers(0, centers.size, 8)]
            angles = angles + rng.choice([0.0, 4e-10, -4e-10, 2e-9], 8)
            u = np.diag(np.exp(1j * angles))
            data = unitary_eig(u)
            got = sorted(np.flatnonzero(np.diag(a.projector).real > 0.5).tolist() for a in data.atoms)
            eigs = np.mod(np.angle(np.diag(u)), 2 * math.pi)
            want = sorted(sorted(c) for c in sequential_clusters(eigs, DEFAULT_TOL.eps_rank))
            assert got == want

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_seam_atom_listed_first_for_either_sign_of_roundoff(self, rng, sign):
        # np.mod of an angle just below 0 rounds to exactly 2*pi; the atom at
        # the seam must still read angle 0 and come first.  Diagonal
        # unitaries keep the angle +-1e-17 exact; rotated ones carry roundoff
        # of either sign.
        angles = np.array([sign * 1e-17, 1.0, 2.5, 4.0])
        unitaries = [np.diag(np.exp(1j * angles))]
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(g)
            unitaries.append((q * np.exp(1j * angles)) @ q.conj().T)
        for u in unitaries:
            atoms = unitary_eig(u).atoms
            assert len(atoms) == 4
            assert all(0.0 <= a.angle < 2 * math.pi for a in atoms)
            assert abs(atoms[0].value - 1.0) <= 1e-12 and atoms[0].angle <= 1e-12
            assert [a.angle for a in atoms] == sorted(a.angle for a in atoms)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryOperator):
            unitary_eig(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_overflowing_gram_is_rejected_without_warning(self):
        # U^H U overflows to inf: the residual reads +inf, and RuntimeWarnings
        # are errors in this suite.
        with pytest.raises(NonUnitaryOperator):
            unitary_eig(1e200 * np.eye(2, dtype=complex))

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
        # U = Q diag(exp(i angles)) Q^H with cluster centers at least
        # 2*pi/32 apart, so each cluster's projector Q_c Q_c^H is known to
        # roundoff.  A third of the draws are simple, a third hold clusters
        # spread by up to 6e-10 (one atom under eps_rank), and a third put a
        # cluster on the 0 / 2*pi seam, straddling it by 1e-17 or 3e-10.
        for draw in range(1200):
            n = int(rng.integers(1, 9))
            kind = draw % 3
            k = n if kind == 0 else int(rng.integers(1, n + 1))
            centers = (rng.permutation(16)[:k] + rng.uniform(-0.25, 0.25, k)) * 2 * math.pi / 16
            if kind == 2:
                centers[0] = 0.0
            labels = np.arange(n) if kind == 0 else rng.integers(0, k, n)
            angles = centers[labels] + (0.0 if kind == 0 else rng.choice([0.0, 1e-17, -1e-17, 3e-10, -3e-10], n))
            q = random_unitary(rng, n)
            u = (q * np.exp(1j * angles)) @ q.conj().T
            data = unitary_eig(u)
            clusters = sequential_clusters(np.mod(angles, 2 * math.pi), DEFAULT_TOL.eps_rank)
            assert len(data.atoms) == len(clusters)
            # Each block orthonormal, blocks mutually orthogonal: together unitary.
            blocks = np.hstack([a.vectors for a in data.atoms])
            assert blocks.shape == (n, n)
            assert max_abs(blocks.conj().T @ blocks - np.eye(n)) <= 1e-12
            # A merged atom's value is its members' mean, up to 6e-10 off theirs.
            assert max_abs(data.reconstruct() - u) <= 1e-9
            assert max_abs(data.projector_sum() - np.eye(n)) <= 1e-12
            for atom in data.atoms:
                (cluster,) = [c for c in clusters if abs(np.exp(1j * angles[c[0]]) - atom.value) <= 1e-9]
                assert atom.vectors.shape == (n, len(cluster))
                reference = q[:, cluster] @ q[:, cluster].conj().T
                assert max_abs(atom.projector - reference) <= 1e-12

    def test_peak_memory_is_linear_in_the_blocks(self, rng, tracemalloc_peak):
        # The atoms hold n x n numbers in all; n x n projectors per atom
        # would take 256 MB here.
        assert tracemalloc_peak(unitary_eig, random_unitary(rng, 256)) < 32.0


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

    @staticmethod
    def count_svds(monkeypatch):
        calls = []
        original = isoresolvent.numerics.singular_values

        def counted(m):
            calls.append(np.shape(m))
            return original(m)

        monkeypatch.setattr(isoresolvent.numerics, "singular_values", counted)
        return calls

    def test_floor_above_twice_eps_rank_spares_the_svd(self, monkeypatch, rng):
        u = random_unitary(rng, 5)
        m = np.eye(5) - 0.6 * u  # sigma_min >= 1 - 0.6
        want = guarded_inverse(m)
        calls = self.count_svds(monkeypatch)
        got = guarded_inverse(m, floor=0.4)
        assert calls == []
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("factor", [0.0, 1.0, 2.0])
    def test_floor_at_or_below_twice_eps_rank_takes_the_svd(self, monkeypatch, factor):
        calls = self.count_svds(monkeypatch)
        guarded_inverse(np.eye(3, dtype=complex), floor=factor * DEFAULT_TOL.eps_rank)
        assert len(calls) == 1
        with pytest.raises(SingularOperator) as err:
            guarded_inverse(np.ones((2, 2), dtype=complex), floor=factor * DEFAULT_TOL.eps_rank)
        assert err.value.sigma_min <= DEFAULT_TOL.eps_rank

    def test_residual_failure_under_a_floor_still_carries_sigma_min(self, monkeypatch):
        tight = TolerancePolicy(eps_eq=1e-300)
        m = np.array([[1.0, -0.5], [-0.3, 1.0]], dtype=complex) * (1 + 1j) / 3
        with pytest.raises(SingularOperator) as first:
            guarded_inverse(m, tight, "ctx")
        calls = self.count_svds(monkeypatch)
        with pytest.raises(SingularOperator) as floored:
            guarded_inverse(m, tight, "ctx", floor=0.1)
        assert len(calls) == 1  # taken after the residual test failed
        assert str(floored.value) == str(first.value)
        assert "inverse residual" in str(floored.value)
        assert floored.value.sigma_min == first.value.sigma_min == sigma_min(m)


class TestNumpyOnly:
    def test_cli_import_loads_no_scipy(self):
        # numpy is the only LAPACK the package loads.
        src = os.path.dirname(os.path.dirname(isoresolvent.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, isoresolvent.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_lapack_lite_has_the_qr_routines(self):
        # The orthonormalizer calls these private numpy bindings directly.
        from numpy.linalg import lapack_lite

        assert callable(lapack_lite.zgeqrf)
        assert callable(lapack_lite.zungqr)
