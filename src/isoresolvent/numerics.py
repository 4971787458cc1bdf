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
norm (or a larger reference scale its caller passes); the leading columns
are the Gram-Schmidt basis of the kept ones, the trailing ones the
complement, each rotated so its first significant entry is real positive.
:func:`_trailing` is the trailing part alone, from the same factorization
(:func:`_householder`), for a caller that needs only the complement.

numpy is the only dependency: the QR runs LAPACK's ``zgeqrf``/``zungqr``
through ``numpy.linalg.lapack_lite``, and the spectra of unitary matrices
come from one Hermitian eigensolve (:func:`_split_eigh`), for
:func:`unitary_eig` and for the arc scan of a constant unitary parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

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

# Largest subspace gap ||P1 - P2|| at which a parameter's stored spaces count
# as the defect spaces of a frame.  A structural cap, not a policy cutoff:
# every parameter the package builds (scenario parameters included) holds
# the frame's own Subspace objects and passes by identity, so the gap is
# measured only for spaces a library user built.  Those are another
# orthonormal basis of the same span, equal to roundoff amplified by the
# conditioning of the defect columns; 1e-6 admits that under any policy and
# rejects a basis tilted off the defect space by a visible angle.
_SPACE_GAP = 1e-6


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
    return float(np.abs(m).max()) if m.size else 0.0


def _gram_residual(basis: np.ndarray) -> float:
    """max |B^H B - I|, how far the columns of B are from orthonormal.

    Finite entries can still overflow the Gram matrix (to inf, or NaN where
    infinities cancel): that reads +inf, without a floating-point warning.
    """
    k = basis.shape[1]
    if not k:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        gram = basis.conj().T @ basis
        gram.ravel()[:: k + 1] -= 1  # the diagonal, in place: the product is a fresh contiguous array
        residual = max_abs(gram)
    return residual if residual == residual else math.inf


def _gram_residuals(stack: np.ndarray) -> np.ndarray:
    """:func:`_gram_residual` of each matrix in a (b, n, k) stack, k >= 1, by
    one product of the stack: the same values bit for bit."""
    k = stack.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(stack.conj(), -1, -2) @ stack
        gram.reshape(-1, k * k)[:, :: k + 1] -= 1
        residual = np.abs(gram).max(axis=(-2, -1), initial=0.0)
    return np.where(residual == residual, residual, math.inf)


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

# Workspace per column for zgeqrf/zungqr.  Their optimum is LAPACK's block
# size (32) per column; twice that spares a workspace query per call.
_LWORK_PER_COL = 64

# A complement column's first entry above this fraction of its largest is made
# real positive.  This fixes the phase of every complement basis, in which
# scenario matrices are written, so it is a convention, not a policy cutoff.
_PHASE_LEAD = 1e-8


def _scaled(a: np.ndarray, exps) -> np.ndarray:
    """C-ordered ``a`` with column j times 2**exps[j]: exact, part by part."""
    return np.ldexp(a.view(float), np.repeat(exps, 2)).view(complex)


def _householder(a: np.ndarray, eps_rank: float, scale: float):
    """The factorization behind :func:`_mgs` and :func:`_trailing`: LAPACK's
    Householder QR of the kept columns of the C-ordered ``a`` (n x m, m >= 1)
    in input order, with the drop rule of :func:`_mgs`.

    Returns ``(f, tau, keep, lift, work)``: row j of ``f`` holds column
    ``keep[j]`` as ``zgeqrf`` left it (R on and above the diagonal of
    ``f.T``, the reflectors below), ``tau`` the reflectors' scalars,
    ``lift`` the exponents the columns were scaled by (None when none was)
    and ``work`` a workspace large enough for ``zungqr``.  ``keep`` is empty
    when no column is kept.
    """
    n, m = a.shape
    # Largest real or imaginary part of each column (|z| itself may overflow).
    big = np.maximum.reduce(np.abs(a.view(float)), axis=0, initial=0.0).reshape(m, 2).max(axis=1)
    exps = np.frexp(big)[1]
    lift = None
    if np.minimum.reduce(big) < _SQRT_TINY or np.maximum.reduce(big) >= _SQRT_HUGE:
        # The squares of a column whose largest part lies outside
        # [sqrt(tiny), sqrt(huge)] leave the normal range, losing their
        # digits or overflowing: factor it times an exact power of two.
        lift = np.where((big < _SQRT_TINY) | (big >= _SQRT_HUGE), -exps, 0)
        a = _scaled(a, lift)
        exps = exps + lift
    # Column norms as sums of squares of each column times 2**-exps, whose
    # largest part then lies in [1/2, 1): no square overflows, and the ones
    # that underflow are below 2**-1000 of the sum.  Only the drop rule
    # reads them.
    parts = _scaled(a, -exps).view(float)
    squares = np.einsum("ij,ij->j", parts, parts)
    norms = np.ldexp(np.sqrt(squares[0::2] + squares[1::2]), exps)
    ref = norms
    if scale:
        # The scale of a lifted column is lifted with it; past the float
        # range it reads inf, and the column is roundoff at that scale.
        with np.errstate(over="ignore"):
            ref = np.maximum(norms, scale if lift is None else np.ldexp(scale, lift))
    work = np.empty(_LWORK_PER_COL * max(n, m), dtype=complex)
    keep = norms.nonzero()[0]
    f = tau = None
    while keep.size:
        # LAPACK reads this C-ordered transpose as the Fortran-ordered columns.
        f = a.T[keep]
        k = min(n, keep.size)
        tau = np.empty(k, dtype=complex)
        lapack_lite.zgeqrf(n, keep.size, f, n, tau, work, work.size, 0)
        low = np.abs(f.T.diagonal()[:k]) <= eps_rank * ref[keep[:k]]
        if not low.any():
            break
        # Rank-deficient input: factor again without the first dependent column.
        keep = np.delete(keep, low.argmax())
    # Past n kept columns the rest lie in their span.
    return f, tau, keep[:n], lift, work


def _unitary_q(f: np.ndarray, tau: np.ndarray, k: int, work: np.ndarray) -> np.ndarray:
    """The complete n x n unitary of the first k reflectors in ``f``, as the
    C-ordered transpose that ``zungqr`` fills."""
    n = f.shape[1]
    h = np.zeros((n, n), dtype=complex)
    h[:k] = f[:k]
    lapack_lite.zungqr(n, n, k, h, n, tau, work, work.size, 0)
    return h.T


def _mgs(columns: np.ndarray, eps_rank: float, scale: float = 0.0):
    """Householder QR of ``columns`` in input order, completed to a unitary.

    Returns ``(q, r, kept)`` with ``columns[:, kept] = q[:, :k] @ r``,
    k = len(kept) and ``r`` upper triangular with a positive diagonal, so
    ``q[:, :k]`` is the Gram-Schmidt basis of the kept columns; ``q[:, k:]``
    is the complement after :func:`_phase_fix`.  A column is dropped when its
    residual against the kept columns before it is at most ``eps_rank``
    times the larger of its own norm and ``scale``, the magnitude the caller
    measures roundoff against (0: the column's own norm alone).
    """
    a = np.ascontiguousarray(columns, dtype=complex)
    n, m = a.shape
    if not m:
        return identity(n), np.zeros((0, 0), dtype=complex), []
    f, tau, keep, lift, work = _householder(a, eps_rank, scale)
    k = keep.size
    if not k:
        return identity(n), np.zeros((0, 0), dtype=complex), []
    qr = f.T
    diagonal = qr.diagonal()[:k]
    phase = diagonal / np.abs(diagonal)
    upper = np.arange(k)[:, None] <= np.arange(k)
    r = qr[:k, :k] * (upper * phase.conj()[:, None])
    if lift is not None:
        # The R of a column whose norm exceeds the float range reads inf.
        with np.errstate(over="ignore"):
            r = _scaled(r, -lift[keep])
    q = _unitary_q(f, tau, k, work)
    q[:, :k] *= phase
    q[:, k:] = _phase_fix(q[:, k:])
    return q, r, keep.tolist()


def _trailing(columns: np.ndarray, eps_rank: float, scale: float = 0.0) -> np.ndarray:
    """``q[:, len(kept):]`` of :func:`_mgs` alone, bit for bit: the phase-fixed
    complement of the kept columns, with no R and no leading phases."""
    a = np.ascontiguousarray(columns, dtype=complex)
    n, m = a.shape
    if not m:
        return identity(n)
    f, tau, keep, _, work = _householder(a, eps_rank, scale)
    if not keep.size:
        return identity(n)
    return _phase_fix(_unitary_q(f, tau, keep.size, work)[:, keep.size :])


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
        if _gram_residual(basis) > _TOL_CAP:
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


# The alphas of :func:`_split_eigh`.  They are transcendental, so no two
# eigenvalue angles that are rational multiples of pi ever meet.
_SPLIT = (1.0 / math.pi, math.e / 2.0, 1.0 / math.e)


@dataclass(frozen=True)
class SpectralAtom:
    """One point of a finite unitary spectral measure; ``vectors`` is an orthonormal basis of its eigenspace."""

    value: complex
    angle: float
    vectors: np.ndarray

    @property
    def projector(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T


@dataclass(frozen=True)
class UnitarySpectralData:
    """Eigen-structure of a unitary matrix: unimodular atoms ordered by angle,
    whose orthonormal blocks side by side form one unitary matrix Z."""

    dim: int
    atoms: tuple[SpectralAtom, ...]

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Z, the atoms' blocks side by side, and the value of each column."""
        z = np.hstack([np.zeros((self.dim, 0), dtype=complex), *(a.vectors for a in self.atoms)])
        return z, np.repeat([a.value for a in self.atoms], [a.vectors.shape[1] for a in self.atoms])

    def reconstruct(self) -> np.ndarray:
        z, values = self._columns()
        return (z * values) @ z.conj().T

    def projector_sum(self) -> np.ndarray:
        z, _ = self._columns()
        return z @ z.conj().T


def _seam_angle(theta):
    """Angles in [0, 2*pi): np.mod sends an angle within half an ulp of 2*pi
    below 0 to exactly 2*pi, which is folded to 0."""
    angle = np.mod(theta, TWO_PI)
    return np.where(angle >= TWO_PI, 0.0, angle)


def _split_eigh(u: np.ndarray, tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a (numerically) unitary square ``u``
    from one Hermitian eigensolve.

    A = (U + U^H)/2 and B = (U - U^H)/(2i) commute, so the exactly
    orthonormal eigenbasis Z of A + alpha*B, the Hermitian part of
    (1 - i alpha) U times two, is one of U unless two angles meet there
    (t1 + t2 = 2 atan(alpha)); then the residual R = U Z - Z diag(mu) of the
    Rayleigh quotients mu_k = z_k^H U z_k exceeds ``eps_unit`` entrywise and
    the next alpha is tried.  Returns ``(mu, Z, R)``; raises LinAlgError when
    no alpha separates the eigenvalues.
    """
    for alpha in _SPLIT:
        w = (1.0 - 1j * alpha) * u
        _, z = np.linalg.eigh(w + w.conj().T)
        uz = u @ z
        eigs = np.einsum("ij,ij->j", z.conj(), uz)
        residual = uz - z * eigs
        if max_abs(residual) <= tol.eps_unit:
            return eigs, z, residual
    raise np.linalg.LinAlgError("no splitting constant separates the eigenvalues of the unitary")


def unitary_eig(u, tol: TolerancePolicy = DEFAULT_TOL) -> UnitarySpectralData:
    """Spectral measure of a unitary matrix.

    The eigenvectors come from :func:`_split_eigh`, one Hermitian
    eigensolve with a residual check.  Eigenvalues closer than
    ``eps_rank`` in angle (including across the 0 / 2*pi seam) are merged
    into one atom, which keeps their eigenvector columns.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if u.shape[0] != u.shape[1]:
        raise ValueError("unitary_eig requires a square matrix")
    if n == 0:
        return UnitarySpectralData(0, ())
    if _gram_residual(u) > tol.eps_unit:
        raise NonUnitaryOperator("input is not unitary within eps_unit")
    eigs, z, _ = _split_eigh(u, tol)
    angles = _seam_angle(np.angle(eigs))
    order = np.argsort(angles, kind="stable")
    # Gaps to the next angle, the last one across the seam; a cluster ends at
    # each gap above eps_rank, and one cluster may run over the seam.
    gaps = np.diff(angles[order], append=angles[order[0]] + TWO_PI)
    ends = np.flatnonzero(gaps > tol.eps_rank)
    start = ends[-1] + 1 if ends.size else n
    atoms = []
    for members in np.split(np.roll(order, -start), ends[:-1] + 1 + n - start):
        mean = complex(np.sum(eigs[members]))
        value = mean / abs(mean)
        angle = float(_seam_angle(np.angle(value)))
        atoms.append(SpectralAtom(value, angle, z[:, members]))
    atoms.sort(key=lambda a: a.angle)
    return UnitarySpectralData(n, tuple(atoms))


def guarded_inverse(
    m, tol: TolerancePolicy = DEFAULT_TOL, context: str = "", floor: float = 0.0
) -> np.ndarray:
    """Matrix inverse guarded by the rank cutoff.

    Raises :class:`SingularOperator` (carrying sigma_min) when the smallest
    singular value is at or below ``eps_rank``, or when the achieved residual
    ||m @ inv - I||_max exceeds ``eps_eq``: either way the inverse demanded
    by a formula does not exist at policy scale.

    ``floor`` is a proven lower bound on sigma_min that the caller knows from
    structure, such as 1 - |zeta| ||T|| for E - zeta T.  Above twice
    ``eps_rank`` (a margin for the roundoff in forming m and the bound) it
    clears the rank cutoff, and the SVD is taken only if the inverse then
    fails its residual test, for the sigma_min the error carries; the
    verdict and its message are those of the SVD-first order.  A floor that
    is not a proven bound lets a numerically singular m through.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("guarded_inverse requires a square matrix")
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    smin = sigma_min(m) if floor <= 2.0 * tol.eps_rank else None
    if smin is not None and smin <= tol.eps_rank:
        raise SingularOperator(smin, context)
    inv = np.linalg.solve(m, identity(n))
    residual = max_abs(m @ inv - identity(n))
    if residual > tol.eps_eq:
        raise SingularOperator(
            sigma_min(m) if smin is None else smin,
            context,
            f"inverse residual {residual:.3e} exceeds eps_eq {tol.eps_eq:.3e}",
        )
    return inv
