"""Generalized resolvents of an isometric operator and their boundary behavior.

The resolvent is defined on the open disk by the parametrized formulas
(base point 0: Chumakin, general base point: Inin through the orthogonal
extension) and on the exterior by the reflection identity
R_z^* = E - R_{1/conj(z)}.  It is never the rational continuation of the
interior formula: for non-unitary parameters those differ, and the object of
interest is the pair of branches.

Spectral measures are extracted only for in-space unitary extensions (equal
defect dimensions and a unitary parameter); in finite dimension they are
finite lists of unimodular atoms whose projector weights Z_k Z_k^H are held
as their eigenvector blocks Z_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extensions import DefectFrame, FamilyEvaluationError, ParameterFamily
from .isometry import IsometricOperator
from .numerics import (
    DEFAULT_TOL,
    Subspace,
    TolerancePolicy,
    UnitarySpectralData,
    as_matrix,
    guarded_inverse,
    identity,
    max_abs,
    operator_norm,
    unitary_eig,
)

__all__ = [
    "ResolventFn",
    "HerglotzSample",
    "chumakin",
    "inin",
    "exterior_value",
    "reflect",
    "verify_inversion",
    "herglotz_samples",
    "herglotz_check",
    "gap_on_arc",
    "continuation_consistency",
]

TWO_PI = 2.0 * math.pi


def _interior(frame: DefectFrame, fam: ParameterFamily, zeta: complex) -> np.ndarray:
    """[E - zeta T(zeta)]^{-1} for the orthogonal extension T(zeta) at the frame.

    sigma_min(E - zeta T) >= 1 - |zeta| ||T||, the floor that spares the
    inverse its SVD away from the circle.
    """
    if abs(zeta) >= 1.0:
        raise ValueError("interior formula requires |zeta| < 1")
    ext = frame.extension(fam.value_at(zeta, frame.tol))
    n = frame.v.ambient_dim
    return guarded_inverse(
        identity(n) - zeta * ext.matrix, frame.tol, "interior resolvent", floor=1.0 - abs(zeta) * ext.norm
    )


def chumakin(
    v: IsometricOperator, fam: ParameterFamily, zeta, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """Resolvent by the base-point-0 formula: [E - zeta (V + F(zeta))]^{-1}.

    Always nonsingular for |zeta| < 1 because the extended operator is a
    contraction.  The family must be based at 0.
    """
    if fam.z0 != 0:
        raise ValueError("family must be based at 0")
    return _interior(DefectFrame.of(v, 0j, tol), fam, complex(zeta))


def inin(
    v: IsometricOperator, fam: ParameterFamily, zeta, tol: TolerancePolicy = DEFAULT_TOL
) -> np.ndarray:
    """Resolvent by the general-base-point formula through the orthogonal
    extension at the family's base point.

    Coincides with :func:`chumakin` for a family based at 0.
    """
    return _interior(DefectFrame.of(v, fam.z0, tol), fam, complex(zeta))


@dataclass(frozen=True)
class ResolventFn:
    """A generalized resolvent: operator and parameter family, based at the
    family's base point ``fam.z0``.

    Every evaluation runs under ``tol``, which is keyword-only.  ``frame``,
    the defect frame of (v, fam.z0) under that policy from
    :meth:`DefectFrame.of`, is taken once and serves every value, so a
    constant family's extension is assembled once and each value costs one
    inversion.
    """

    v: IsometricOperator
    fam: ParameterFamily
    tol: TolerancePolicy = field(default=DEFAULT_TOL, kw_only=True)
    frame: DefectFrame = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frame = DefectFrame.of(self.v, self.fam.z0, self.tol)
        object.__setattr__(self, "frame", frame)
        violations = frame.space_violations(self.fam, "family")
        if violations:
            raise ValueError(violations[0])

    def interior(self, zeta) -> np.ndarray:
        """Value at |zeta| < 1 by the orthogonal-extension formula (:func:`inin`)."""
        return _interior(self.frame, self.fam, complex(zeta))

    def at(self, z) -> np.ndarray:
        """Value on either branch; points of the unit circle are rejected."""
        z = complex(z)
        if abs(z) < 1.0:
            return self.interior(z)
        if abs(z) > 1.0:
            return exterior_value(self, z)
        raise ValueError("the two branches meet the circle only through the gap criteria")


def reflect(inner: np.ndarray) -> np.ndarray:
    """The reflection identity: E - inner^H, the exterior value at 1/conj(z)
    when ``inner`` is the interior value at z."""
    return identity(inner.shape[0]) - inner.conj().T


def exterior_value(r: ResolventFn, z) -> np.ndarray:
    """Exterior branch: :func:`reflect` of the interior value at 1/conj(z)."""
    z = complex(z)
    if abs(z) <= 1.0:
        raise ValueError("exterior branch requires |z| > 1")
    w = 1.0 / z.conjugate()
    try:
        inner = r.interior(w)
    except FamilyEvaluationError as exc:
        raise FamilyEvaluationError(f"no exterior value at {z!r}, reflected to {w!r}: {exc}") from exc
    return reflect(inner)


def verify_inversion(u, samples, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Residual of the inversion formula linking resolvent and spectral measure.

    For a unitary U with atoms (lambda_k, P_k = Z_k Z_k^H) the identity
    ((E - zU)^{-1} h, g) = sum_k (P_k h, g) / (1 - z lambda_k) must hold at
    every interior z.  ``samples`` is a list of (z, h, g) triples; returns
    the max absolute deviation (caller asserts it below 10 * eps_eq).
    """
    u = as_matrix(u)
    n = u.shape[0]
    blocks, values = unitary_eig(u, tol)._columns()
    adjoint = blocks.conj().T
    worst = 0.0
    for z, h, g in samples:
        z = complex(z)
        h = np.asarray(h, dtype=complex).reshape(-1)
        g = np.asarray(g, dtype=complex).reshape(-1)
        lhs = complex(np.vdot(g, np.linalg.solve(identity(n) - z * u, h)))
        rhs = complex(np.vdot(adjoint @ g, (adjoint @ h) / (1.0 - z * values)))
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class HerglotzSample:
    """One positivity sample of the disk function attached to the resolvent."""

    z: complex
    h: np.ndarray
    value: complex


def herglotz_samples(r: ResolventFn, grid, vectors) -> list[HerglotzSample]:
    """Evaluate f_h(z) = (R_z h, h) - ||h||^2 / 2 over a grid of interior
    points and probe vectors; its real part must be nonnegative on the disk."""
    out = []
    for z in grid:
        z = complex(z)
        rz = r.interior(z)
        for h in vectors:
            h = np.asarray(h, dtype=complex).reshape(-1)
            value = complex(np.vdot(h, rz @ h)) - 0.5 * float(np.vdot(h, h).real)
            out.append(HerglotzSample(z, h, value))
    return out


def herglotz_check(r: ResolventFn, grid, vectors) -> float:
    """Minimum real part over the sampled disk function (>= -eps_eq expected)."""
    samples = herglotz_samples(r, grid, vectors)
    if not samples:
        raise ValueError("empty sample set")
    return min(s.value.real for s in samples)


def gap_on_arc(
    sd: UnitarySpectralData,
    embed: Subspace,
    arc: tuple[float, float],
    tol: TolerancePolicy = DEFAULT_TOL,
):
    """Whether the compressed spectral measure vanishes on an open arc.

    The arc is the angle interval (t1, t2) within [0, 2*pi]; wrapping arcs
    are supplied as two arcs.  ``embed`` is the subspace playing H inside the
    extension space (the full space for in-space extensions).  Returns
    (gap, witnesses) where witnesses lists the offending atoms as (atom
    index, angle, compressed weight ||P_E P_k P_E|| = ||embed^H Z_k||^2).
    """
    t1, t2 = float(arc[0]), float(arc[1])
    if not (0.0 <= t1 < t2 <= TWO_PI):
        raise ValueError("arc must satisfy 0 <= t1 < t2 <= 2*pi")
    if embed.ambient_dim != sd.dim:
        raise ValueError(f"embed lives in dimension {embed.ambient_dim}, the spectral data in {sd.dim}")
    witnesses = []
    for index, atom in enumerate(sd.atoms):
        if t1 < atom.angle < t2:
            weight = operator_norm(atom.vectors.conj().T @ embed.basis) ** 2
            if weight > tol.eps_eq:
                witnesses.append((index, atom.angle, weight))
    return not witnesses, witnesses


def continuation_consistency(r: ResolventFn, lam) -> float:
    """Boundary gluing residual of the two resolvent branches at |lam| = 1.

    Freezes the orthogonal extension T at the boundary point (the parameter
    family must be evaluable there) and measures

        || (E - conj(lam) T^H)^{-1} + (E - lam T)^{-1} - E ||_max.

    A residual within eps_eq certifies that the interior and the reflected
    exterior values glue at lam; a singular E - lam T (conj(lam) an
    eigenvalue of T) raises SingularOperator, signalling no continuation.
    """
    lam, tol = complex(lam), r.tol
    if abs(abs(lam) - 1.0) > tol.eps_unit:
        raise ValueError("gluing point must lie on the unit circle")
    ext = r.frame.extension(r.fam.value_at(lam, tol))
    n = r.v.ambient_dim
    forward = guarded_inverse(identity(n) - lam * ext.matrix, tol, "boundary continuation")
    backward = guarded_inverse(
        identity(n) - lam.conjugate() * ext.matrix.conj().T, tol, "boundary continuation"
    )
    return max_abs(forward + backward - identity(n))
