"""Cayley-type transforms of isometric operators and the scalar Moebius maps.

The transform at z in the open disk sends V to the isometric operator
V_z = (V - conj(z) E)(E - z V)^{-1} with domain M_z and range M_{1/conj(z)};
at z = 0 it is V itself.  Its inverse is the same transform taken at -z.
The scalar map t(u) = (u - conj(z0)) / (1 - z0 u) carries the unit circle
onto itself and the disk onto the disk; it is the point correspondence that
matches regular-type points of V with those of V_{z0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .isometry import IsometricOperator, regular_type
from .numerics import DEFAULT_TOL, SingularOperator, TolerancePolicy, _mgs, as_matrix, identity

__all__ = [
    "MoebiusMap",
    "scalar_maps",
    "disk_bound",
    "cayley",
    "inverse_cayley",
    "regular_type_correspondence",
    "relate_resolvents",
]


@dataclass(frozen=True)
class MoebiusMap:
    """The circle automorphism u -> (u - conj(z0)) / (1 - z0 u)."""

    z0: complex

    def __post_init__(self):
        object.__setattr__(self, "z0", complex(self.z0))
        if abs(self.z0) >= 1.0 - DEFAULT_TOL.eps_unit:
            raise ValueError("base point must lie strictly inside the unit disk")

    def forward(self, u) -> complex:
        u = complex(u)
        den = 1.0 - self.z0 * u
        if den == 0:
            raise ZeroDivisionError("evaluation at the pole u = 1/z0")
        return (u - self.z0.conjugate()) / den

    def inverse(self, t) -> complex:
        t = complex(t)
        den = 1.0 + self.z0 * t
        if den == 0:
            raise ZeroDivisionError("evaluation at the pole t = -1/z0")
        return (t + self.z0.conjugate()) / den


def scalar_maps(z0) -> MoebiusMap:
    return MoebiusMap(complex(z0))


def disk_bound(z0, z0p) -> float:
    """|(z0 - z0') / (1 - z0' conj(z0))|, strictly below 1 inside the disk."""
    z0, z0p = complex(z0), complex(z0p)
    if abs(z0) >= 1 or abs(z0p) >= 1:
        raise ValueError("both points must lie inside the unit disk")
    value = abs((z0 - z0p) / (1.0 - z0p * z0.conjugate()))
    if value >= 1.0:
        raise ArithmeticError(f"disk bound violated: {value!r}")
    return value


def cayley(v: IsometricOperator, z, tol: TolerancePolicy = DEFAULT_TOL) -> IsometricOperator:
    """Cayley-type transform of V at a point of the open disk.

    Maps (E - zV)f to (V - conj(z)E)f for f in D(V); the result is isometric
    with domain M_z and range M_{1/conj(z)}.  Since |z| < 1 and V is
    isometric, E - zV is injective on D(V) and the domain basis is obtained
    from the deterministic orthonormalizer.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("transform point must lie inside the unit disk")
    a = v.domain_basis - z * v.image_basis
    b = v.image_basis - z.conjugate() * v.domain_basis
    q, r, kept = _mgs(a, tol.eps_rank)
    if len(kept) != v.domain_dim:
        raise SingularOperator(0.0, "rank-deficient columns in QR step")
    images = b @ np.linalg.inv(r)
    return IsometricOperator(v.ambient_dim, q[:, : v.domain_dim], images)


def inverse_cayley(w: IsometricOperator, z, tol: TolerancePolicy = DEFAULT_TOL) -> IsometricOperator:
    """Inverse of the Cayley-type transform: the same transform taken at -z."""
    return cayley(w, -complex(z), tol)


class CorrespondenceCheck(NamedTuple):
    cond_i: bool
    cond_ii: bool


def regular_type_correspondence(
    v: IsometricOperator, z0, zeta, tol: TolerancePolicy = DEFAULT_TOL
) -> CorrespondenceCheck:
    """Regular-type correspondence between V and its transform at z0.

    cond_i:  1/zeta is of regular type for V;
    cond_ii: (1 - zeta conj(z0)) / (zeta - z0) is of regular type for the
             transform of V at z0.
    The two are equivalent; the caller owns the equality assertion so that a
    mismatch surfaces as a test failure with full context.
    """
    z0, zeta = complex(z0), complex(zeta)
    if abs(z0) >= 1:
        raise ValueError("base point must lie inside the unit disk")
    if zeta == 0 or zeta == z0:
        raise ValueError("zeta = 0 and zeta = z0 are excluded")
    cond_i = regular_type(v, 1.0 / zeta, tol).is_regular
    w = cayley(v, z0, tol)
    image_point = (1.0 - zeta * z0.conjugate()) / (zeta - z0)
    cond_ii = regular_type(w, image_point, tol).is_regular
    return CorrespondenceCheck(cond_i, cond_ii)


def relate_resolvents(r_inner, z0, u_tilde, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Rebase a generalized resolvent of the transform back to the original.

    Given r_inner = R_t(V_{z0}) evaluated at t = (u - z0)/(1 - conj(z0) u),
    returns R_u(V) via

        -z0/(u - z0) * E + u (1 - |z0|^2) / ((u - z0)(1 - conj(z0) u)) * r_inner.

    The points u in {0, z0, 1/conj(z0)} are excluded rather than patched by
    limits; the resolvent is analytic there and callers may sample around
    them.  Defined only for z0 != 0 (at z0 = 0 the two resolvents coincide).
    """
    r_inner = as_matrix(r_inner)
    z0, u = complex(z0), complex(u_tilde)
    if z0 == 0 or abs(z0) >= 1:
        raise ValueError("base point must lie in the punctured open unit disk")
    for excluded in (0j, z0, 1.0 / z0.conjugate()):
        if abs(u - excluded) <= tol.eps_rank:
            raise ValueError(f"evaluation point {u!r} is excluded")
    n = r_inner.shape[0]
    lead = -z0 / (u - z0)
    gain = u * (1.0 - abs(z0) ** 2) / ((u - z0) * (1.0 - z0.conjugate() * u))
    return lead * identity(n) + gain * r_inner
