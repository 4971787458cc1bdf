"""Closed isometric operators on C^n and their defect geometry.

An isometric operator V is stored extensionally: an orthonormal basis of its
domain D(V) together with the images of those basis vectors.  V is a partial
operator; keeping the domain explicit prevents silently applying it outside
D(V).  The ambient contraction V P_{D(V)} is available as a matrix when the
formulas need one.

The distinguished point ``INF`` selects the range pair: M_inf = R(V) and
N_inf = its orthogonal complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Subspace,
    TolerancePolicy,
    _LIFT,
    _SQRT_HUGE,
    _TOL_CAP,
    _gram_residual,
    _mgs,
    orthogonal_complement,
    sigma_min,
    singular_values,
)

__all__ = [
    "INF",
    "is_inf_point",
    "reflected_point",
    "PreconditionViolated",
    "IsometricOperator",
    "DefectPair",
    "DecompositionCheck",
    "DecompositionReport",
    "RegularType",
    "defect_spaces",
    "regular_type",
    "decompositions",
    "projection_identity_residual",
]

INF = float("inf")


class PreconditionViolated(Exception):
    """A hypothesis of a criterion (typically a regular-type condition) fails."""


def is_inf_point(z) -> bool:
    if isinstance(z, complex):
        return math.isinf(z.real) or math.isinf(z.imag)
    if isinstance(z, (int, float)):
        return math.isinf(z)
    return False


def reflected_point(z):
    """Reflection through the unit circle: z -> 1/conj(z), with 0 <-> INF."""
    if is_inf_point(z):
        return 0j
    z = complex(z)
    if z == 0:
        return INF
    return 1.0 / z.conjugate()


@dataclass(frozen=True)
class IsometricOperator:
    """A closed isometric operator V on C^n.

    ``domain_basis`` (n x d) has orthonormal columns spanning D(V);
    ``image_basis`` column j is V applied to domain column j.  Isometry of V
    makes the image columns orthonormal as well, which the constructor
    verifies.  ``_frame`` holds the operator's last defect frame, kept there
    by :meth:`isoresolvent.extensions.DefectFrame.of`.
    """

    ambient_dim: int
    domain_basis: np.ndarray
    image_basis: np.ndarray
    _frame: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        dom = np.asarray(self.domain_basis, dtype=complex)
        img = np.asarray(self.image_basis, dtype=complex)
        if dom.ndim != 2:
            dom = dom.reshape(self.ambient_dim, -1)
        if img.ndim != 2:
            img = img.reshape(self.ambient_dim, -1)
        for mat in (dom, img):
            if mat.size and not np.all(np.isfinite(mat)):
                raise ValueError("basis entries must be finite")
        object.__setattr__(self, "domain_basis", dom)
        object.__setattr__(self, "image_basis", img)
        n = self.ambient_dim
        if dom.shape[0] != n or img.shape[0] != n:
            raise ValueError("basis rows must equal ambient_dim")
        if dom.shape[1] != img.shape[1]:
            raise ValueError("domain and image bases must have the same number of columns")
        d = dom.shape[1]
        if d > n:
            raise ValueError("domain dimension exceeds ambient dimension")
        if _gram_residual(dom) > _TOL_CAP:
            raise ValueError("domain basis is not orthonormal")
        if _gram_residual(img) > _TOL_CAP:
            raise ValueError("images are not isometric (Gram defect)")

    @property
    def domain_dim(self) -> int:
        return self.domain_basis.shape[1]

    def partial_matrix(self) -> np.ndarray:
        """The ambient contraction V P_{D(V)} as an n x n matrix."""
        return self.image_basis @ self.domain_basis.conj().T

    def apply(self, vec, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
        """V f for f in D(V); rejects vectors farther than eps_eq (relative to
        max(1, ||f||)) from the domain."""
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        coeffs = self.domain_basis.conj().T @ vec
        inside = self.domain_basis @ coeffs
        if np.linalg.norm(vec - inside) > tol.eps_eq * max(1.0, np.linalg.norm(vec)):
            raise ValueError("vector is not in the domain of the operator")
        return self.image_basis @ coeffs


@dataclass(frozen=True)
class DefectPair:
    """The defect geometry at a point: m = (E - zeta V) D(V) (or R(V) at INF)
    and n = its orthogonal complement.

    Both are held as one factorization by the orthonormalizer: the unitary
    ``q``, whose leading ``len(kept)`` columns span m, and the triangular
    ``r`` of the kept columns, which the Cayley transform at zeta reuses.
    Each Subspace is formed, and its basis checked, when it is first read.
    """

    q: np.ndarray
    r: np.ndarray
    kept: list

    @cached_property
    def m(self) -> Subspace:
        return Subspace(self.q.shape[0], self.q[:, : len(self.kept)])

    @cached_property
    def n(self) -> Subspace:
        return Subspace(self.q.shape[0], self.q[:, len(self.kept) :])


class RegularType(NamedTuple):
    is_regular: bool
    sigma_min: float


def defect_spaces(v: IsometricOperator, zeta, tol: TolerancePolicy = DEFAULT_TOL) -> DefectPair:
    """Defect pair of V at zeta (any complex point, or INF for the range pair).

    One factorization of the columns (domain - zeta * image) by the
    deterministic orthonormalizer gives both bases, canonical per (v, zeta).
    A column is judged against the size of its two terms, max(1, |zeta|)
    (taken part by part, which cannot overflow), so one that cancels to
    roundoff is dropped even when no kept column precedes it.
    """
    cols, scale = _defect_columns(v, zeta)
    return DefectPair(*_mgs(cols, tol.eps_rank, scale))


def _defect_columns(v: IsometricOperator, zeta) -> tuple[np.ndarray, float]:
    """The columns whose span is M_zeta, and the scale their roundoff is
    judged against (see :func:`defect_spaces`)."""
    if is_inf_point(zeta):
        return v.image_basis, 1.0
    z = complex(zeta)
    return v.domain_basis - z * v.image_basis, max(1.0, abs(z.real), abs(z.imag))


def regular_type(v: IsometricOperator, z, tol: TolerancePolicy = DEFAULT_TOL) -> RegularType:
    """Whether z is of regular type for V: (V - z E) bounded below on D(V).

    Returns the lower bound as the smallest singular value of the column map
    (image - z * domain); an empty domain is regular with bound +inf.
    """
    if v.domain_dim == 0:
        return RegularType(True, math.inf)
    z = complex(z)
    if max(abs(z.real), abs(z.imag)) < _SQRT_HUGE:
        s = sigma_min(v.image_basis - z * v.domain_basis)
    else:
        # The singular values may overflow: take them of an exact
        # power-of-two fraction of the map.
        s = sigma_min(v.image_basis / _LIFT - (z / _LIFT) * v.domain_basis) * _LIFT
    return RegularType(s > tol.eps_rank, s)


@dataclass(frozen=True)
class DecompositionCheck:
    direct: bool
    spanning: bool
    directness_measure: float


@dataclass(frozen=True)
class DecompositionReport:
    """Directness / spanning verdicts for the four defect decompositions of H.

    Keys: ``domain_defect``  D(V) + N_zeta,
          ``range_defect``   R(V) + N_zeta,
          ``domain_complement_m``  (H - D(V)) + M_zeta,
          ``range_complement_m``   (H - R(V)) + M_zeta.
    """

    entries: dict[str, DecompositionCheck]

    @property
    def all_direct_and_spanning(self) -> bool:
        return all(c.direct and c.spanning for c in self.entries.values())


def _direct_sum_check(a: np.ndarray, b: np.ndarray, n: int, tol: TolerancePolicy) -> DecompositionCheck:
    concat = np.hstack([a, b]) if a.size or b.size else np.zeros((n, 0), dtype=complex)
    cols = concat.shape[1]
    s = singular_values(concat)
    smin = float(s[-1]) if s.size else math.inf
    rank = int(np.count_nonzero(s > tol.eps_rank))
    direct = cols <= n and rank == cols
    spanning = rank == n
    return DecompositionCheck(direct, spanning, smin)


def decompositions(v: IsometricOperator, zeta, tol: TolerancePolicy = DEFAULT_TOL) -> DecompositionReport:
    """Check the four direct decompositions of H induced by a boundary point.

    Requires |zeta| = 1 with 1/zeta of regular type for V; in that case all
    four must come back direct and spanning (finite dimension makes the
    closures vacuous).
    """
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > tol.eps_unit:
        raise ValueError("zeta must be unimodular")
    rt = regular_type(v, zeta.conjugate(), tol)
    if not rt.is_regular:
        raise PreconditionViolated(
            f"1/zeta is not of regular type (sigma_min = {rt.sigma_min:.3e})"
        )
    n = v.ambient_dim
    pair = defect_spaces(v, zeta, tol)
    domain = Subspace(n, v.domain_basis)
    rng = Subspace(n, v.image_basis)
    domain_perp = orthogonal_complement(domain, tol)
    range_perp = orthogonal_complement(rng, tol)
    entries = {
        "domain_defect": _direct_sum_check(v.domain_basis, pair.n.basis, n, tol),
        "range_defect": _direct_sum_check(v.image_basis, pair.n.basis, n, tol),
        "domain_complement_m": _direct_sum_check(domain_perp.basis, pair.m.basis, n, tol),
        "range_complement_m": _direct_sum_check(range_perp.basis, pair.m.basis, n, tol),
    }
    return DecompositionReport(entries)


def projection_identity_residual(v: IsometricOperator, zeta, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Residual of the boundary projection identity on the defect space N_zeta.

    For every f in N_zeta (|zeta| = 1) the isometry satisfies
    V P_{M_0} f = conj(zeta) P_{M_inf} f, and consequently the projections of
    f onto M_0 / M_inf and onto N_0 / N_inf have equal norms.  Returns the
    max deviation over an orthonormal basis of N_zeta (0 when N_zeta = {0});
    callers assert it stays below eps_eq.
    """
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > tol.eps_unit:
        raise ValueError("zeta must be unimodular")
    n_zeta = defect_spaces(v, zeta, tol).n
    if n_zeta.dim == 0:
        return 0.0
    pair0 = defect_spaces(v, 0.0, tol)
    pair_inf = defect_spaces(v, INF, tol)
    worst = 0.0
    for j in range(n_zeta.dim):
        f = n_zeta.basis[:, j]
        dom_coeffs = v.domain_basis.conj().T @ f
        v_pm0 = v.image_basis @ dom_coeffs
        pminf = pair_inf.m.basis @ (pair_inf.m.basis.conj().T @ f)
        worst = max(worst, float(np.linalg.norm(v_pm0 - zeta.conjugate() * pminf)))
        norm_m0 = float(np.linalg.norm(dom_coeffs))
        norm_minf = float(np.linalg.norm(pair_inf.m.basis.conj().T @ f))
        worst = max(worst, abs(norm_m0 - norm_minf))
        norm_n0 = float(np.linalg.norm(pair0.n.basis.conj().T @ f))
        norm_ninf = float(np.linalg.norm(pair_inf.n.basis.conj().T @ f))
        worst = max(worst, abs(norm_n0 - norm_ninf))
    return worst
