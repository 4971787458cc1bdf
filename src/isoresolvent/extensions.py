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
once, and :meth:`DefectFrame.of` keeps the last frame on the operator, so
every caller at one (V, z0) shares it and pays for the geometry once.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .isometry import DefectPair, IsometricOperator, defect_spaces, reflected_point
from .numerics import (
    DEFAULT_TOL,
    SingularOperator,
    Subspace,
    TolerancePolicy,
    _SPACE_GAP,
    _TOL_CAP,
    _gram_residual,
    as_matrix,
    guarded_inverse,
    identity,
    max_abs,
    operator_norm,
    subspace_gap,
)
from .transforms import _cayley_from

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

    ``norm_bound`` is an upper bound on the operator norm of ``matrix``.  A
    caller that knows one from structure passes it, like
    :class:`ExtensionOp`'s ``norm``; when it clears the contraction cap the
    norm is not measured.  Otherwise (not given, above the cap, or NaN) the
    norm is measured as before, checked, and kept as the bound.  A bound
    that is not proven lets a non-contraction through.
    """

    src: Subspace
    dst: Subspace
    matrix: np.ndarray
    norm_bound: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            m = m.reshape(self.dst.dim, self.src.dim)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dst.dim, self.src.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match (dst {self.dst.dim}, src {self.src.dim})"
            )
        if not (self.norm_bound is not None and self.norm_bound <= 1.0 + _TOL_CAP):
            norm = operator_norm(m)
            if norm > 1.0 + _TOL_CAP:
                raise ValueError("matrix is not a contraction")
            object.__setattr__(self, "norm_bound", norm)

    def ambient(self) -> np.ndarray:
        return self.dst.basis @ self.matrix @ self.src.basis.conj().T


def defect_parameter(
    v: IsometricOperator, z0, matrix, tol: TolerancePolicy = DEFAULT_TOL
) -> ContractionOp:
    """Contraction N_{z0} -> N_{1/conj(z0)} in the canonical defect bases."""
    frame = DefectFrame.of(v, z0, tol)
    src, dst = frame.src, frame.dst
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
            u0 = self.blaschke_u0
            return ContractionOp(u0.src, u0.dst, b * u0.matrix, abs(b) * u0.norm_bound)
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
    if _gram_residual(u0.matrix) > tol.eps_unit:
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

    ``norm`` is the operator norm of ``matrix``, taken once on construction
    unless given; only :class:`DefectFrame` passes it, for a matrix whose
    norm it has just taken.  Callers bound sigma_min(E - zeta T) below by
    1 - |zeta| * norm instead of measuring it.
    """

    matrix: np.ndarray
    z0: complex
    parameter: ContractionOp
    flavor: str
    norm: float | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix))
        object.__setattr__(self, "z0", complex(self.z0))
        if self.flavor not in ("plus", "orthogonal"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.norm is None:
            object.__setattr__(self, "norm", operator_norm(self.matrix))
        if self.norm > 1.0 + _TOL_CAP:
            raise ValueError("extension is not a contraction")


def _space_mismatch(stored: Subspace, expected: Subspace) -> bool:
    if stored is expected:
        return False
    return stored.dim != expected.dim or subspace_gap(stored, expected) > _SPACE_GAP


@dataclass(frozen=True, eq=False)
class DefectFrame:
    """The geometry of V at a base point z0, each piece computed at most once.

    ``_base`` is the defect pair at z0 (its ``n`` is ``src``, N_{z0}),
    ``reflected`` the defect pair at 1/conj(z0) (its ``n`` is ``dst``),
    ``transform`` the Cayley transform W = V_{z0} and ``transform_matrix``
    its ambient partial matrix W P_{D(W)}.  All are computed on first use
    under the frame's policy and kept on the frame.  ``src`` and
    ``transform`` share one factorization of (domain - z0 * image): W's
    domain is the pair's M_{z0}.  Where that factorization drops a column,
    which needs 1 - |z0| <= 2 eps_rank to roundoff, ``transform`` raises the
    ``SingularOperator`` of :func:`cayley`.

    The methods do the work of :func:`extend_full`,
    :func:`orthogonal_extension` and :func:`recover_parameter` on the
    frame's geometry; those functions take the frame from :meth:`of`.
    :meth:`extension` keeps the orthogonal extension of the last parameter
    it assembled, so a constant family is assembled once per frame.

    Package code obtains frames through :meth:`of`, never the constructor,
    so a parameter drawn at (V, z0) and the resolvent built from it hold the
    very same ``src``/``dst`` objects, and the space check between them is
    an identity test.
    """

    v: IsometricOperator
    z0: complex = 0j
    tol: TolerancePolicy = DEFAULT_TOL
    _last: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        if abs(self.z0) >= 1.0:
            raise ValueError("base point must lie inside the unit disk")
        if self.z0 and not cmath.isfinite(1.0 / self.z0):
            # The reflected point 1/conj(z0) of the defect pair must be a
            # float; the extension formulas themselves do not divide by z0.
            raise ValueError("base point is so small that 1/conj(z0) leaves the float range")

    @classmethod
    def of(cls, v: IsometricOperator, z0=0j, tol: TolerancePolicy = DEFAULT_TOL) -> "DefectFrame":
        """The frame of (v, z0, tol): the one kept on ``v`` when it was built
        for the same base point and policy, else a new one, which replaces it.

        One kept frame per operator holds memory at O(1) per operator when a
        caller sweeps z0, and still serves every caller at a fixed (v, z0).
        """
        z0 = complex(z0)
        kept = v._frame
        if kept and kept[0].z0 == z0 and kept[0].tol == tol:
            return kept[0]
        frame = cls(v, z0, tol)
        kept[:] = [frame]
        return frame

    @cached_property
    def _base(self) -> DefectPair:
        return defect_spaces(self.v, self.z0, self.tol)

    @property
    def src(self) -> Subspace:
        return self._base.n

    @cached_property
    def reflected(self) -> DefectPair:
        return defect_spaces(self.v, reflected_point(self.z0), self.tol)

    @property
    def dst(self) -> Subspace:
        return self.reflected.n

    @cached_property
    def transform(self) -> IsometricOperator:
        return _cayley_from(self.v, self.z0, self._base.q, self._base.r, self._base.kept)

    @cached_property
    def transform_matrix(self) -> np.ndarray:
        return self.transform.partial_matrix()

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
        norm = operator_norm(matrix)
        if norm > 1.0 + self.tol.eps_unit:
            raise ValueError("assembled plus extension exceeds the contraction bound")
        return ExtensionOp(matrix, self.z0, c, "plus", norm)

    def extension(self, c: ContractionOp) -> ExtensionOp:
        """:func:`orthogonal_extension` of c, reused while c is the last parameter seen."""
        if self._last and self._last[0] is c:
            return self._last[1]
        z0, tol, n = self.z0, self.tol, self.v.ambient_dim
        plus = self.plus_extension(c)
        if z0 == 0:
            ext = ExtensionOp(plus.matrix, z0, c, "orthogonal", plus.norm)
        else:
            # ||T|| <= 1 and |z0| < 1 make E + z0 T invertible with norm of
            # the inverse at most 1/(1 - |z0|).  T is a contraction only
            # within eps_unit and the arithmetic is exact only to roundoff, so
            # these checks and the residual below fail only under a policy
            # whose eps_eq lies below those: an input error (ValueError).
            try:
                inv = guarded_inverse(
                    identity(n) + z0 * plus.matrix,
                    tol,
                    "orthogonal extension",
                    floor=1.0 - abs(z0) * plus.norm,
                )
            except SingularOperator as exc:
                raise ValueError(str(exc)) from exc
            if operator_norm(inv) > 1.0 / (1.0 - abs(z0)) + tol.eps_eq:
                raise ValueError("resolvent bound of the plus extension violated")
            ext = ExtensionOp(inv @ (plus.matrix + z0.conjugate() * identity(n)), z0, c, "orthogonal")
        residual = max_abs(ext.matrix @ self.v.domain_basis - self.v.image_basis)
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
            inv = guarded_inverse(
                identity(n) - z0 * t.matrix, tol, "parameter recovery", floor=1.0 - abs(z0) * t.norm
            )
            plus_matrix = inv @ (t.matrix - z0.conjugate() * identity(n))
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
    return DefectFrame.of(v, z0, tol).plus_extension(c)


def orthogonal_extension(
    v: IsometricOperator, z0, c: ContractionOp, tol: TolerancePolicy = DEFAULT_TOL
) -> ExtensionOp:
    """The orthogonal extension of V defined by the parameter C at z0.

    For z0 = 0 it coincides with the plus extension.  Otherwise it is
    (E + z0 T)^{-1} (T + conj(z0) E) for the plus extension T, which equals
    (1/z0) E + (|z0|^2 - 1)/z0 * (E + z0 T)^{-1} but does not divide by z0,
    so it keeps its accuracy as z0 -> 0.  The inverse always exists since
    ||T|| <= 1 and |z0| < 1, with norm at most 1/(1 - |z0|).  Both that and
    that the result extends V within 10 * eps_eq are checked; a policy too
    tight for them raises ValueError.
    """
    return DefectFrame.of(v, z0, tol).extension(c)


def recover_parameter(
    t: ExtensionOp, v: IsometricOperator, z0, tol: TolerancePolicy = DEFAULT_TOL
) -> ContractionOp:
    """Decode the contraction parameter of an orthogonal extension at z0.

    Rebuilds the plus extension from t (for z0 = 0 it is t itself, otherwise
    (E - z0 t)^{-1} (t - conj(z0) E), the inverse transform taken at -z0)
    and reads C off as the compression to the defect pair at z0.  Raises
    ReconstructionMismatch when the isometric part of the rebuilt operator
    does not agree with the Cayley transform of V at z0, i.e. t is not an
    orthogonal extension of v there.
    """
    return DefectFrame.of(v, z0, tol).recover_parameter(t)


@dataclass(frozen=True)
class FamilyValidation:
    ok: bool
    violations: tuple[str, ...]


def validate_family(
    fam: ParameterFamily,
    v: IsometricOperator,
    grid,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> FamilyValidation:
    """Check a parameter family against an operator over a sample grid.

    Verifies the family acts between the defect spaces of v at its base
    point and that every sampled value is a contraction, by the
    ``norm_bound`` the value carries (its measured norm unless its maker
    proved one), so a constant family takes no SVD here.  A tabulated family
    is sampled at its own points instead of ``grid``, the only points where
    it has values.  Blaschke families additionally get their factor checked
    to be unimodular on the circle, which the boundary isometry condition of
    the gap criteria relies on.  Violations are reported, never raised.
    """
    violations = DefectFrame.of(v, fam.z0, tol).space_violations(fam, "family")
    if fam.kind == "table":
        grid = [point for point, _ in fam.table]
    for zeta in grid:
        try:
            value = fam.value_at(zeta, tol)
        except FamilyEvaluationError as exc:
            violations.append(str(exc))
            continue
        if value.norm_bound > 1.0 + tol.eps_unit:
            violations.append(f"value at {complex(zeta)!r} has norm {value.norm_bound:.6f} > 1")
    if fam.kind == "blaschke":
        a = fam.blaschke_a
        for k in range(8):
            u = np.exp(2j * np.pi * k / 8)
            b = abs((u - a) / (1.0 - a.conjugate() * u))
            if abs(b - 1.0) > tol.eps_unit:
                violations.append(f"Blaschke factor not unimodular at {u!r}")
    return FamilyValidation(not violations, tuple(violations))
