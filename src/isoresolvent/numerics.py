"""Dense complex linear algebra substrate.

Operators are plain numpy ``complex128`` arrays throughout the package.
Two notions of equality are used everywhere and never mixed: operators are
compared entrywise (max-abs), subspaces through principal angles.  The rank,
equality and unitarity cutoffs live in a single :class:`TolerancePolicy`
that callers thread through explicitly; there is no hidden global state.

Basis construction is deliberately deterministic: modified Gram-Schmidt with
the input order as pivot order, so that every derived basis (defect spaces,
Cayley domains, complements) is reproducible bit-for-bit for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "SingularOperator",
    "NonUnitaryOperator",
    "Subspace",
    "SpectralAtom",
    "UnitarySpectralData",
    "as_matrix",
    "max_abs",
    "operator_norm",
    "sigma_min",
    "singular_values",
    "identity",
    "orthonormalize",
    "orthogonal_complement",
    "projector",
    "subspace_gap",
    "unitary_eig",
    "guarded_inverse",
]

TWO_PI = 2.0 * math.pi

# Upper bound any TolerancePolicy field may take; type constructors use it as
# a last-resort sanity cap when no policy is in scope.
_TOL_CAP = 1e-3


class SingularOperator(Exception):
    """Inversion was requested for a numerically singular operator.

    Carries the offending smallest singular value so callers can report how
    far below the rank cutoff the operator sits.  ``reason`` replaces the
    rank-cutoff text when the inverse failed on another test, such as its
    residual; ``context`` names the caller's operator in front of either.
    """

    def __init__(self, sigma: float, context: str = "", reason: str = ""):
        self.sigma_min = float(sigma)
        msg = reason or f"smallest singular value {self.sigma_min:.3e} is below the rank cutoff"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class NonUnitaryOperator(ValueError):
    """A unitary matrix was required."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Single tolerance policy shared by every operation.

    eps_rank: singular values at or below this count as zero.
    eps_eq:   max entrywise deviation for operator equality.
    eps_unit: allowed defect from isometry / unitarity.
    """

    eps_rank: float = 1e-9
    eps_eq: float = 1e-8
    eps_unit: float = 1e-8

    def __post_init__(self):
        for name in ("eps_rank", "eps_eq", "eps_unit"):
            value = getattr(self, name)
            if not 0.0 < value < _TOL_CAP:
                raise ValueError(f"{name} must lie in (0, {_TOL_CAP}), got {value!r}")


DEFAULT_TOL = TolerancePolicy()


def as_matrix(entries) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/Inf entries."""
    m = np.array(entries, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def max_abs(m) -> float:
    """Entrywise max-abs; the operator-equality metric of the policy."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def singular_values(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if min(m.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def operator_norm(m) -> float:
    s = singular_values(m)
    return float(s[0]) if s.size else 0.0


def sigma_min(m) -> float:
    """Smallest singular value; +inf for a matrix with an empty side."""
    s = singular_values(m)
    return float(s[-1]) if s.size else math.inf


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
_SQRT_HUGE = math.sqrt(np.finfo(float).max)
_LIFT = 2.0**600


def _mgs(columns: np.ndarray, eps_rank: float):
    """Modified Gram-Schmidt over ``columns`` in input order.

    Returns ``(q, coeffs, kept)`` with ``columns[:, kept] = q @ coeffs[:, kept]``
    up to roundoff; columns whose residual drops below ``eps_rank`` relative
    to their norm are dropped.  A second orthogonalization pass keeps the
    output orthonormal to machine precision.
    """
    columns = np.asarray(columns, dtype=complex)
    n, m = columns.shape
    buf = np.zeros((n, m), dtype=complex)
    coeffs = np.zeros((m, m), dtype=complex)
    kept: list[int] = []
    k = 0
    for j in range(m):
        w = columns[:, j].astype(complex, copy=True)
        scale = math.sqrt(np.vdot(w, w).real)
        lift = 1.0
        # The squares of such a column leave the normal range, losing their
        # digits or overflowing: work on an exact power-of-two multiple.
        if scale < _SQRT_TINY:
            lift = _LIFT
        elif not scale < _SQRT_HUGE:
            lift = 1.0 / _LIFT
        if lift != 1.0:
            w *= lift
            scale = math.sqrt(np.vdot(w, w).real)
        for _ in range(2):
            if k:
                r = buf[:, :k].conj().T @ w
                coeffs[:k, j] += r
                w -= buf[:, :k] @ r
        nrm = math.sqrt(np.vdot(w, w).real)
        if lift != 1.0:
            coeffs[:k, j] /= lift
        if scale == 0.0 or nrm <= eps_rank * scale:
            continue
        coeffs[k, j] = nrm / lift
        kept.append(j)
        buf[:, k] = w / nrm
        k += 1
    return buf[:, :k].copy(), coeffs[:k, :], kept


def _mgs_qr(columns: np.ndarray, eps_rank: float):
    """Gram-Schmidt QR for full-column-rank input; raises on rank loss."""
    q, r, kept = _mgs(columns, eps_rank)
    if len(kept) != columns.shape[1]:
        raise SingularOperator(0.0, "rank-deficient columns in QR step")
    return q, r


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^n held as an orthonormal column basis.

    ``basis`` has shape ``ambient_dim x k`` with ``k`` possibly zero.  The
    constructor enforces orthonormality only up to the policy cap; the
    factories in this module produce machine-orthonormal bases, and callers
    that accept external data validate against their active policy first.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2:
            basis = basis.reshape(self.ambient_dim, -1)
        if basis.size and not np.all(np.isfinite(basis)):
            raise ValueError("basis entries must be finite")
        object.__setattr__(self, "basis", basis)
        if basis.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis rows {basis.shape[0]} do not match ambient_dim {self.ambient_dim}"
            )
        if basis.shape[1] > self.ambient_dim:
            raise ValueError("subspace dimension exceeds ambient dimension")
        k = basis.shape[1]
        if k:
            gram = basis.conj().T @ basis
            if max_abs(gram - np.eye(k)) > _TOL_CAP:
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, identity(n))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0), dtype=complex))


def orthonormalize(vectors, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Span of the given ambient vectors as a Subspace.

    Deterministic for a fixed input order (modified Gram-Schmidt, input
    order is pivot order); linearly dependent inputs are dropped.
    """
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not cols:
        raise ValueError("at least one vector is required to fix the ambient dimension")
    n = cols[0].shape[0]
    for v in cols:
        if v.shape[0] != n:
            raise ValueError(f"dimension mismatch among inputs: {v.shape[0]} != {n}")
    mat = np.column_stack(cols)
    if mat.size and not np.all(np.isfinite(mat)):
        raise ValueError("vector entries must be finite")
    q, _, _ = _mgs(mat, tol.eps_rank)
    return Subspace(n, q)


def _phase_fix(columns: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive.

    Strips the arbitrary unitary phases a QR completion carries, making
    canonical bases predictable (and parameter matrices human-readable)."""
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = mags.max() if mags.size else 0.0
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > 1e-8 * top))
        phase = col[lead] / abs(col[lead])
        out[:, j] = col / phase
    return out


def orthogonal_complement(s: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement, dim = ambient_dim - dim(s).

    Built from the unitary completion of the basis (one complete QR, then a
    deterministic phase normalization), so the result is canonical for a
    fixed basis matrix.
    """
    n = s.ambient_dim
    if s.dim == 0:
        return Subspace.full(n)
    if s.dim == n:
        return Subspace.zero(n)
    q, _ = np.linalg.qr(s.basis, mode="complete")
    comp = q[:, s.dim :]
    # The completion is orthogonal to the raw QR factor; re-project once so
    # it is orthogonal to the stored basis itself at machine precision.
    comp = comp - s.basis @ (s.basis.conj().T @ comp)
    if comp.shape[1] != n - s.dim:
        raise ArithmeticError(
            f"complement construction produced dim {comp.shape[1]}, expected {n - s.dim}"
        )
    return Subspace(n, _phase_fix(comp))


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projection onto the subspace, P = B B^H."""
    return s.basis @ s.basis.conj().T


def subspace_gap(s1: Subspace, s2: Subspace) -> float:
    """Gap metric ||P1 - P2||; equals sin of the largest principal angle
    when dimensions agree and 1.0 when they differ."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return operator_norm(projector(s1) - projector(s2))


@dataclass(frozen=True)
class SpectralAtom:
    """One point of a finite unitary spectral measure."""

    value: complex
    angle: float
    projector: np.ndarray


@dataclass(frozen=True)
class UnitarySpectralData:
    """Eigen-structure of a unitary matrix: unimodular atoms with mutually
    orthogonal projectors resolving the identity, ordered by angle."""

    dim: int
    atoms: tuple[SpectralAtom, ...]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for atom in self.atoms:
            out += atom.value * atom.projector
        return out

    def projector_sum(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for atom in self.atoms:
            out += atom.projector
        return out


def unitary_eig(u, tol: TolerancePolicy = DEFAULT_TOL) -> UnitarySpectralData:
    """Spectral measure of a unitary matrix.

    Uses a complex Schur decomposition so the spectral projectors are built
    from exactly orthonormal columns.  Eigenvalues closer than ``eps_rank``
    in angle (including across the 0 / 2*pi seam) are merged into one atom.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if u.shape[0] != u.shape[1]:
        raise ValueError("unitary_eig requires a square matrix")
    if n == 0:
        return UnitarySpectralData(0, ())
    if max_abs(u.conj().T @ u - identity(n)) > tol.eps_unit:
        raise NonUnitaryOperator("input is not unitary within eps_unit")
    t, z = scipy.linalg.schur(u, output="complex")
    eigs = np.diag(t)
    angles = np.mod(np.angle(eigs), TWO_PI)
    order = np.argsort(angles, kind="stable")

    clusters: list[list[int]] = []
    for idx in order:
        if clusters and angles[idx] - angles[clusters[-1][-1]] <= tol.eps_rank:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1:
        first, last = clusters[0], clusters[-1]
        if angles[first[0]] + TWO_PI - angles[last[-1]] <= tol.eps_rank:
            clusters[0] = last + first
            clusters.pop()

    atoms = []
    for members in clusters:
        cols = z[:, members]
        proj = cols @ cols.conj().T
        mean = complex(np.sum(eigs[members]))
        value = mean / abs(mean)
        angle = float(np.mod(np.angle(value), TWO_PI))
        atoms.append(SpectralAtom(value, angle, proj))
    atoms.sort(key=lambda a: a.angle)
    return UnitarySpectralData(n, tuple(atoms))


def guarded_inverse(m, tol: TolerancePolicy = DEFAULT_TOL, context: str = "") -> np.ndarray:
    """Matrix inverse guarded by the rank cutoff.

    Raises :class:`SingularOperator` (carrying sigma_min) when the smallest
    singular value is at or below ``eps_rank``, or when the achieved residual
    ||m @ inv - I||_max exceeds ``eps_eq``: either way the inverse demanded
    by a formula does not exist at policy scale.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("guarded_inverse requires a square matrix")
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    smin = sigma_min(m)
    if smin <= tol.eps_rank:
        raise SingularOperator(smin, context)
    inv = np.linalg.solve(m, identity(n))
    residual = max_abs(m @ inv - identity(n))
    if residual > tol.eps_eq:
        raise SingularOperator(
            smin, context, f"inverse residual {residual:.3e} exceeds eps_eq {tol.eps_eq:.3e}"
        )
    return inv
