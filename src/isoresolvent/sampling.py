"""Instance generators and deterministic grids for the randomized suites.

Random isometric operators are Haar-like unitaries restricted to a random
coordinate subspace, which exercises every defect-index combination
(n - d, n - d) as the dimensions vary.  Everything is driven by an explicit
numpy Generator so suites are reproducible from a seed.
"""

from __future__ import annotations

import math

import numpy as np

from .extensions import ContractionOp, DefectFrame
from .isometry import IsometricOperator, regular_type
from .numerics import DEFAULT_TOL, TolerancePolicy, operator_norm

__all__ = [
    "random_unitary",
    "random_isometry",
    "random_parameter",
    "random_unitary_parameter",
    "random_disk_point",
    "random_boundary_point",
    "regular_boundary_point",
    "disk_grid",
    "REGULAR_MARGIN",
]

# How far a drawn boundary point is kept from where a criterion flips: the
# lower bound of the regular-type map at its circle-inverse, or its angle to
# an eigenvalue.  Far above any policy's eps_rank, so the cutoffs downstream
# decide points that are clearly on one side.
REGULAR_MARGIN = 1e-3


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-like random unitary: QR of a complex Ginibre matrix with the
    phases of the R diagonal absorbed."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_isometry(
    rng: np.random.Generator,
    n_max: int = 8,
    n_min: int = 1,
    allow_full: bool = True,
    allow_empty: bool = True,
) -> IsometricOperator:
    """Random closed isometric operator: a Haar-like unitary restricted to a
    random coordinate subspace of the domain."""
    n = int(rng.integers(n_min, n_max + 1))
    d_lo = 0 if allow_empty else 1
    d_hi = n if allow_full else n - 1
    d = int(rng.integers(d_lo, d_hi + 1))
    u = random_unitary(rng, n)
    idx = np.sort(rng.choice(n, size=d, replace=False))
    domain = np.eye(n, dtype=complex)[:, idx]
    image = u[:, idx]
    return IsometricOperator(n, domain, image)


# The operator norms random_parameter draws from: strict contractions, away
# from 0 so the parameter matters.
_NORM_RANGE = (0.2, 0.95)


def random_parameter(
    rng: np.random.Generator, v: IsometricOperator, z0=0j, tol: TolerancePolicy = DEFAULT_TOL
) -> ContractionOp:
    """Random strict contraction between the canonical defect spaces of v,
    a Ginibre matrix scaled to a norm drawn from ``_NORM_RANGE``.

    The draw passes the norm it was just scaled to as its bound, so the
    contraction check takes no second SVD.
    """
    frame = DefectFrame.of(v, z0, tol)
    src, dst = frame.src, frame.dst
    if src.dim == 0 or dst.dim == 0:
        return ContractionOp(src, dst, np.zeros((dst.dim, src.dim), dtype=complex), 0.0)
    g = rng.standard_normal((dst.dim, src.dim)) + 1j * rng.standard_normal((dst.dim, src.dim))
    target = rng.uniform(*_NORM_RANGE)
    return ContractionOp(src, dst, g * (target / operator_norm(g)), target)


def random_unitary_parameter(
    rng: np.random.Generator, v: IsometricOperator, z0=0j, tol: TolerancePolicy = DEFAULT_TOL
) -> ContractionOp:
    """Random unitary parameter; the defect spaces of v must have equal dimensions."""
    frame = DefectFrame.of(v, z0, tol)
    src, dst = frame.src, frame.dst
    if src.dim != dst.dim:
        raise ValueError("unitary parameter needs equal defect dimensions")
    return ContractionOp(src, dst, random_unitary(rng, src.dim))


def random_disk_point(rng: np.random.Generator, r_min: float = 0.0, r_max: float = 0.9) -> complex:
    radius = rng.uniform(r_min, r_max)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * complex(math.cos(angle), math.sin(angle))


def random_boundary_point(rng: np.random.Generator) -> complex:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(angle), math.sin(angle))


def regular_boundary_point(rng: np.random.Generator, v: IsometricOperator) -> complex:
    """Boundary point whose circle-inverse is of regular type for v with the
    margin ``REGULAR_MARGIN``, so the eps_rank cutoffs downstream are
    meaningful; gives up after 200 draws."""
    for _ in range(200):
        lam = random_boundary_point(rng)
        if regular_type(v, lam.conjugate()).sigma_min > REGULAR_MARGIN:
            return lam
    raise RuntimeError("could not draw a regular boundary point")


def disk_grid(count: int) -> list[complex]:
    """Deterministic interior grid: increasing radii, up to 0.9, on a
    sweeping angle."""
    out = []
    for k in range(count):
        r = 0.9 * (k + 1) / (count + 1)
        theta = 2.0 * math.pi * k / count
        out.append(r * complex(math.cos(theta), math.sin(theta)))
    return out
