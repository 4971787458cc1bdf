"""Contraction parameters and the extensions of V they generate.

A contraction parameter C maps the defect space N_{z0} into N_{1/conj(z0)}.
Two extension flavors are built from it:

* the "plus" extension, the direct sum of the Cayley transform of V at z0
  with C, acting on all of H;
* the orthogonal extension, the inverse Cayley image of the plus extension,
  which extends V itself and is again a contraction.

At z0 = 0 the two coincide.  Parameter families come in three kinds that can
actually be certified numerically: constants, scalar Blaschke factors times
a fixed unitary, and finite tables (valid only at their own points, never
interpolated).

Everything in these formulas except the parameter depends on (V, z0) alone.
A :class:`DefectFrame` holds that geometry and computes each piece at most
once; a caller working at one (V, z0) uses the frame's methods and pays for
the geometry once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .isometry import DefectPair, IsometricOperator, defect_spaces, reflected_point
from .numerics import (
    DEFAULT_TOL,
    SingularOperator,
    Subspace,
    TolerancePolicy,
    _TOL_CAP,
    as_matrix,
    guarded_inverse,
    identity,
    max_abs,
    operator_norm,
    subspace_gap,
)
from .transforms import cayley

__all__ = [
    "DefectFrame",
    "ReconstructionMismatch",
    "FamilyEvaluationError",
    "ContractionOp",
    "ParameterFamily",
    "constant_family",
    "blaschke_family",
    "table_family",
    "ExtensionOp",
    "defect_parameter",
    "extend_full",
    "orthogonal_extension",
    "recover_parameter",
    "validate_family",
    "FamilyValidation",
]


class ReconstructionMismatch(Exception):
    """The operator being decoded is not an orthogonal extension of V at z0."""


class FamilyEvaluationError(ValueError):
    """The parameter family cannot be evaluated at the requested point."""


@dataclass(frozen=True)
class ContractionOp:
    """A linear contraction between two stored subspaces.

    ``matrix`` is dim(dst) x dim(src) in the stored bases; the ambient
    action on C^n is dst.basis @ matrix @ src.basis^H.
    """

    src: Subspace
    dst: Subspace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            m = m.reshape(self.dst.dim, self.src.dim)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dst.dim, self.src.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match (dst {self.dst.dim}, src {self.src.dim})"
            )
        if operator_norm(m) > 1.0 + _TOL_CAP:
            raise ValueError("matrix is not a contraction")

    def ambient(self) -> np.ndarray:
        return self.dst.basis @ self.matrix @ self.src.basis.conj().T

    def norm(self) -> float:
        return operator_norm(self.matrix)


def defect_parameter(
    v: IsometricOperator, z0, matrix, tol: TolerancePolicy = DEFAULT_TOL
) -> ContractionOp:
    """Contraction N_{z0} -> N_{1/conj(z0)} in the canonical defect bases."""
    src = defect_spaces(v, z0, tol).n
    dst = defect_spaces(v, reflected_point(z0), tol).n
    return ContractionOp(src, dst, as_matrix(matrix) if np.size(matrix) else np.zeros((dst.dim, src.dim), dtype=complex))


@dataclass(frozen=True)
class ParameterFamily:
    """An analytic family zeta -> C(zeta) of contractions N_{z0} -> N_{1/conj(z0)}.

    kind "constant": the fixed contraction ``constant`` at every point.
    kind "blaschke": b(zeta) * U0 with b(zeta) = (zeta - a)/(1 - conj(a) zeta);
                     |b| <= 1 on the closed disk and |b| = 1 on the circle.
    kind "table":    tabulated values, evaluable only at their own points.
    """

    kind: str
    z0: complex
    constant: ContractionOp | None = None
    blaschke_a: complex | None = None
    blaschke_u0: ContractionOp | None = None
    table: tuple[tuple[complex, ContractionOp], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        if self.kind not in ("constant", "blaschke", "table"):
            raise ValueError(f"unknown family kind {self.kind!r}")

    @property
    def src(self) -> Subspace:
        return self._any_value().src

    @property
    def dst(self) -> Subspace:
        return self._any_value().dst

    def _any_value(self) -> ContractionOp:
        if self.kind == "constant":
            return self.constant
        if self.kind == "blaschke":
            return self.blaschke_u0
        return self.table[0][1]

    def value_at(self, zeta, tol: TolerancePolicy = DEFAULT_TOL) -> ContractionOp:
        zeta = complex(zeta)
        if self.kind == "constant":
            return self.constant
        if self.kind == "blaschke":
            a = self.blaschke_a
            b = (zeta - a) / (1.0 - a.conjugate() * zeta)
            return ContractionOp(self.blaschke_u0.src, self.blaschke_u0.dst, b * self.blaschke_u0.matrix)
        for point, value in self.table:
            if abs(point - zeta) <= tol.eps_rank:
                return value
        raise FamilyEvaluationError(f"tabulated family has no value at {zeta!r}")


def constant_family(c: ContractionOp, z0) -> ParameterFamily:
    return ParameterFamily("constant", complex(z0), constant=c)


def blaschke_family(a, u0: ContractionOp, z0, tol: TolerancePolicy = DEFAULT_TOL) -> ParameterFamily:
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError("Blaschke zero must lie inside the unit disk")
    k = u0.matrix.shape
    if k[0] != k[1]:
        raise ValueError("Blaschke carrier must be square (unitary)")
    if k[0] and max_abs(u0.matrix.conj().T @ u0.matrix - np.eye(k[1])) > tol.eps_unit:
        raise ValueError("Blaschke carrier must be unitary")
    return ParameterFamily("blaschke", complex(z0), blaschke_a=a, blaschke_u0=u0)


def table_family(points, z0) -> ParameterFamily:
    table = tuple((complex(z), c) for z, c in points)
    if not table:
        raise ValueError("tabulated family needs at least one point")
    src, dst = table[0][1].src, table[0][1].dst
    for _, c in table:
        if c.src.dim != src.dim or c.dst.dim != dst.dim:
            raise ValueError("tabulated values act between inconsistent spaces")
    return ParameterFamily("table", complex(z0), table=table)


@dataclass(frozen=True)
class ExtensionOp:
    """An n x n contraction extension assembled from (V, z0, C).

    flavor "plus": the direct sum of the Cayley transform at z0 with C.
    flavor "orthogonal": its inverse Cayley image, an extension of V itself.
    """

    matrix: np.ndarray
    z0: complex
    parameter: ContractionOp
    flavor: str

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix))
        object.__setattr__(self, "z0", complex(self.z0))
        if self.flavor not in ("plus", "orthogonal"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if operator_norm(self.matrix) > 1.0 + _TOL_CAP:
            raise ValueError("extension is not a contraction")


# Largest subspace gap at which a parameter's stored spaces count as the
# defect spaces of the frame.
_SPACE_GAP = 1e-6


def _space_mismatch(stored: Subspace, expected: Subspace) -> bool:
    if stored is expected:
        return False
    return stored.dim != expected.dim or subspace_gap(stored, expected) > _SPACE_GAP


@dataclass(frozen=True, eq=False)
class DefectFrame:
    """The geometry of V at a base point z0, each piece computed at most once.

    ``src`` is N_{z0}, ``reflected`` the defect pair at 1/conj(z0) (its
    ``n`` is ``dst``), ``transform`` the Cayley transform W = V_{z0} and
    ``transform_matrix`` its ambient partial matrix W P_{D(W)}.  All are
    computed on first use under the frame's policy and kept on the frame.

    The methods do the work of :func:`extend_full`,
    :func:`orthogonal_extension` and :func:`recover_parameter` on the
    frame's geometry; those functions build a frame per call.
    :meth:`extension` keeps the orthogonal extension of the last parameter
    it assembled, so a constant family is assembled once per frame.
    """

    v: IsometricOperator
    z0: complex = 0j
    tol: TolerancePolicy = DEFAULT_TOL
    _last: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        if abs(self.z0) >= 1.0:
            raise ValueError("base point must lie inside the unit disk")

    @classmethod
    def ensure(cls, frame, v: IsometricOperator, z0, tol: TolerancePolicy) -> "DefectFrame":
        """``frame`` after checking it was built for (v, z0, tol), or a new frame."""
        if frame is None:
            return cls(v, z0, tol)
        if frame.v is not v or frame.z0 != complex(z0) or frame.tol != tol:
            raise ValueError("defect frame was built for another operator, base point or policy")
        return frame

    @cached_property
    def src(self) -> Subspace:
        return defect_spaces(self.v, self.z0, self.tol).n

    @cached_property
    def reflected(self) -> DefectPair:
        return defect_spaces(self.v, reflected_point(self.z0), self.tol)

    @property
    def dst(self) -> Subspace:
        return self.reflected.n

    @cached_property
    def transform(self) -> IsometricOperator:
        return cayley(self.v, self.z0, self.tol)

    @cached_property
    def transform_matrix(self) -> np.ndarray:
        w = self.transform
        return w.image_basis @ w.domain_basis.conj().T

    def space_violations(self, op, what: str = "parameter") -> list[str]:
        """Why ``op`` (a ContractionOp or ParameterFamily) does not act from
        N_{z0} into N_{1/conj(z0)}; empty when it does."""
        violations = []
        if _space_mismatch(op.src, self.src):
            violations.append(f"{what} source does not match the defect space at z0")
        if _space_mismatch(op.dst, self.dst):
            violations.append(f"{what} target does not match the reflected defect space")
        return violations

    def plus_extension(self, c: ContractionOp) -> ExtensionOp:
        """:func:`extend_full` of c."""
        violations = self.space_violations(c)
        if violations:
            raise ValueError(violations[0])
        matrix = self.transform_matrix + c.ambient()
        if operator_norm(matrix) > 1.0 + self.tol.eps_unit:
            raise ValueError("assembled plus extension exceeds the contraction bound")
        return ExtensionOp(matrix, self.z0, c, "plus")

    def extension(self, c: ContractionOp) -> ExtensionOp:
        """:func:`orthogonal_extension` of c, reused while c is the last parameter seen."""
        if self._last and self._last[0] is c:
            return self._last[1]
        z0, tol, n = self.z0, self.tol, self.v.ambient_dim
        plus = self.plus_extension(c)
        if z0 == 0:
            matrix = plus.matrix
        else:
            # ||T|| <= 1 and |z0| < 1 make E + z0 T invertible with norm of
            # the inverse at most 1/(1 - |z0|).  T is a contraction only
            # within eps_unit and the arithmetic is exact only to roundoff, so
            # these checks and the residual below fail only under a policy
            # whose eps_eq lies below those: an input error (ValueError).
            try:
                inv = guarded_inverse(identity(n) + z0 * plus.matrix, tol, "orthogonal extension")
            except SingularOperator as exc:
                raise ValueError(str(exc)) from exc
            if operator_norm(inv) > 1.0 / (1.0 - abs(z0)) + tol.eps_eq:
                raise ValueError("resolvent bound of the plus extension violated")
            matrix = identity(n) / z0 + ((abs(z0) ** 2 - 1.0) / z0) * inv
        ext = ExtensionOp(matrix, z0, c, "orthogonal")
        residual = max_abs(matrix @ self.v.domain_basis - self.v.image_basis)
        if residual > 10 * tol.eps_eq:
            raise ValueError(f"extension does not extend V within 10 * eps_eq (residual {residual:.3e})")
        self._last[:] = (c, ext)
        return ext

    def recover_parameter(self, t: ExtensionOp) -> ContractionOp:
        """:func:`recover_parameter` of t."""
        z0, tol, n = self.z0, self.tol, self.v.ambient_dim
        if z0 == 0:
            plus_matrix = t.matrix
        else:
            inv = guarded_inverse(identity(n) - z0 * t.matrix, tol, "parameter recovery")
            plus_matrix = -identity(n) / z0 + ((1.0 - abs(z0) ** 2) / z0) * inv
        w = self.transform
        iso_residual = max_abs(plus_matrix @ w.domain_basis - w.image_basis)
        src, dst = self.src, self.dst
        leak = operator_norm(self.reflected.m.basis.conj().T @ plus_matrix @ src.basis)
        if iso_residual > 10 * tol.eps_eq or leak > 10 * tol.eps_eq:
            raise ReconstructionMismatch(
                f"not an orthogonal extension of V at z0 (isometric part residual "
                f"{iso_residual:.3e}, defect leak {leak:.3e})"
            )
        matrix = dst.basis.conj().T @ plus_matrix @ src.basis
        return ContractionOp(src, dst, matrix)


def extend_full(
    v: IsometricOperator, z0, c: ContractionOp, tol: TolerancePolicy = DEFAULT_TOL
) -> ExtensionOp:
    """The plus extension: Cayley transform of V at z0, extended by C to all of H."""
    return DefectFrame(v, z0, tol).plus_extension(c)


def orthogonal_extension(
    v: IsometricOperator, z0, c: ContractionOp, tol: TolerancePolicy = DEFAULT_TOL
) -> ExtensionOp:
    """The orthogonal extension of V defined by the parameter C at z0.

    For z0 = 0 it coincides with the plus extension.  Otherwise it is
    (1/z0) E + (|z0|^2 - 1)/z0 * (E + z0 T)^{-1} for the plus extension T;
    the inverse always exists since ||T|| <= 1 and |z0| < 1, with norm at
    most 1/(1 - |z0|).  Both that and that the result extends V within
    10 * eps_eq are checked; a policy too tight for them raises ValueError.
    """
    return DefectFrame(v, z0, tol).extension(c)


def recover_parameter(
    t: ExtensionOp, v: IsometricOperator, z0, tol: TolerancePolicy = DEFAULT_TOL
) -> ContractionOp:
    """Decode the contraction parameter of an orthogonal extension at z0.

    Rebuilds the plus extension from t (for z0 = 0 it is t itself, otherwise
    -(1/z0) E + (1 - |z0|^2)/z0 * (E - z0 t)^{-1}) and reads C off as the
    compression to the defect pair at z0.  Raises ReconstructionMismatch when
    the isometric part of the rebuilt operator does not agree with the Cayley
    transform of V at z0, i.e. t is not an orthogonal extension of v there.
    """
    return DefectFrame(v, z0, tol).recover_parameter(t)


@dataclass(frozen=True)
class FamilyValidation:
    ok: bool
    violations: tuple[str, ...]


def validate_family(
    fam: ParameterFamily,
    v: IsometricOperator,
    grid,
    tol: TolerancePolicy = DEFAULT_TOL,
    frame: DefectFrame | None = None,
) -> FamilyValidation:
    """Check a parameter family against an operator over a sample grid.

    Verifies the family acts between the defect spaces of v at its base
    point and that every sampled value is a contraction.  A tabulated family
    is sampled at its own points instead of ``grid``, the only points where
    it has values.  Blaschke families additionally get their factor checked
    to be unimodular on the circle, which the boundary isometry condition of
    the gap criteria relies on.  Violations are reported, never raised.
    """
    violations = DefectFrame.ensure(frame, v, fam.z0, tol).space_violations(fam, "family")
    if fam.kind == "table":
        grid = [point for point, _ in fam.table]
    for zeta in grid:
        try:
            value = fam.value_at(zeta, tol)
        except FamilyEvaluationError as exc:
            violations.append(str(exc))
            continue
        nrm = value.norm()
        if nrm > 1.0 + tol.eps_unit:
            violations.append(f"value at {complex(zeta)!r} has norm {nrm:.6f} > 1")
    if fam.kind == "blaschke":
        a = fam.blaschke_a
        for k in range(8):
            u = np.exp(2j * np.pi * k / 8)
            b = abs((u - a) / (1.0 - a.conjugate() * u))
            if abs(b - 1.0) > tol.eps_unit:
                violations.append(f"Blaschke factor not unimodular at {u!r}")
    return FamilyValidation(not violations, tuple(violations))
