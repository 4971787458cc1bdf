"""Dense complex linear algebra substrate.

Operators are plain numpy ``complex128`` arrays throughout the package.
Two notions of equality are used everywhere and never mixed: operators are
compared entrywise (max-abs), subspaces through principal angles.  The rank,
equality and unitarity cutoffs live in a single :class:`TolerancePolicy`
that callers thread through explicitly; there is no hidden global state.

Basis construction is deliberately deterministic: every basis (defect
spaces, Cayley domains, complements) comes from one Householder QR,
:func:`_mgs`.  Input order is pivot order; a column is dropped when its
residual against the kept columns before it is at most ``eps_rank`` times its
norm; the leading columns are the Gram-Schmidt basis of the kept ones, the
trailing ones the complement, each rotated so its first significant entry is
real positive.
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

# A complement column's first entry above this fraction of its largest is made
# real positive.  This fixes the phase of every complement basis, in which
# scenario matrices are written, so it is a convention, not a policy cutoff.
_PHASE_LEAD = 1e-8


def _scaled(a: np.ndarray, exps) -> np.ndarray:
    """C-ordered ``a`` with column j times 2**exps[j]: exact, part by part."""
    return np.ldexp(a.view(float), np.repeat(exps, 2)).view(complex)


def _mgs(columns: np.ndarray, eps_rank: float):
    """Householder QR of ``columns`` in input order, completed to a unitary.

    Returns ``(q, r, kept)`` with ``columns[:, kept] = q[:, :k] @ r``,
    k = len(kept) and ``r`` upper triangular with a positive diagonal, so
    ``q[:, :k]`` is the Gram-Schmidt basis of the kept columns; ``q[:, k:]``
    is the complement after :func:`_phase_fix`.  A column is dropped when its
    residual against the kept columns before it is at most ``eps_rank``
    times its own norm.
    """
    a = np.ascontiguousarray(columns, dtype=complex)
    n, m = a.shape
    if not m:
        return identity(n), np.zeros((0, 0), dtype=complex), []
    # Largest real or imaginary part of each column (|z| itself may overflow).
    big = np.maximum.reduce(np.abs(a.view(float)), axis=0, initial=0.0).reshape(m, 2).max(axis=1)
    lift = None
    if np.minimum.reduce(big) < _SQRT_TINY or np.maximum.reduce(big) >= _SQRT_HUGE:
        # The squares of a column whose largest part lies outside
        # [sqrt(tiny), sqrt(huge)] leave the normal range, losing their
        # digits or overflowing: factor it times an exact power of two.
        lift = np.where((big < _SQRT_TINY) | (big >= _SQRT_HUGE), -np.frexp(big)[1], 0)
        a = _scaled(a, lift)
    # Column norms by hypot, which neither overflows nor underflows.
    norms = np.hypot.reduce(a.view(float).reshape(n, m, 2), axis=0, initial=0.0)
    norms = np.hypot(norms[:, 0], norms[:, 1])
    keep = norms.nonzero()[0]
    while keep.size:
        qr, tau, _, _ = scipy.linalg.lapack.zgeqrf(a if keep.size == m else a[:, keep])
        k = min(n, keep.size)
        resid = np.abs(qr.diagonal()[:k])
        low = resid <= eps_rank * norms[keep[:k]]
        if not low.any():
            break
        # Rank-deficient input: factor again without the first dependent column.
        keep = np.delete(keep, low.argmax())
    # Past n kept columns the rest lie in their span.
    keep = keep[:n]
    k = keep.size
    if not k:
        return identity(n), np.zeros((0, 0), dtype=complex), []
    phase = qr.diagonal()[:k] / resid
    upper = np.arange(k)[:, None] <= np.arange(k)
    r = qr[:k, :k] * (upper * phase.conj()[:, None])
    if lift is not None:
        # The R of a column whose norm exceeds the float range reads inf.
        with np.errstate(over="ignore"):
            r = _scaled(r, -lift[keep])
    h = np.zeros((n, n), dtype=complex, order="F")
    h[:, :k] = qr[:, :k]
    q, _, _ = scipy.linalg.lapack.zungqr(h, tau[:k], overwrite_a=True)
    q[:, :k] *= phase
    q[:, k:] = _phase_fix(q[:, k:])
    return q, r, keep.tolist()


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


def orthonormalize(vectors, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Span of the given ambient vectors as a Subspace.

    The leading part of :func:`_mgs`: the Gram-Schmidt basis of the inputs in
    input order, with those dependent on the ones before them dropped.
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
    q, _, kept = _mgs(mat, tol.eps_rank)
    return Subspace(n, q[:, : len(kept)])


def _phase_fix(columns: np.ndarray) -> np.ndarray:
    """Rotate each (nonzero) column so its first significant entry is real positive.

    Strips the arbitrary unitary phases a QR completion carries, making
    canonical bases predictable (and parameter matrices human-readable)."""
    mags = np.abs(columns)
    lead = (mags > _PHASE_LEAD * np.maximum.reduce(mags, axis=0)).argmax(axis=0)
    pick = lead, np.arange(columns.shape[1])
    return columns / (columns[pick] / mags[pick])


def orthogonal_complement(s: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement, dim = ambient_dim - dim(s).

    The trailing part of :func:`_mgs` of the basis: its unitary completion
    with phases normalized, canonical for a fixed basis matrix.
    """
    q, _, _ = _mgs(s.basis, tol.eps_rank)
    return Subspace(s.ambient_dim, q[:, s.dim :])


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
