"""Spectral gap machinery on the unit circle.

The pivot is the isometry of N_{z0} onto N_{1/conj(z0)} obtained by
projecting the boundary defect space N_lambda onto the pair: with
S = P_{N_{z0}} and Q = P_{N_{1/conj(z0)}} restricted to N_lambda (both
invertible whenever the matching regular-type hypothesis holds), the link is
scalar * Q S^{-1}, where the scalar is conj(lambda) at base point 0 and
(1 - conj(z0) lambda)/(lambda - z0) in general.

Against that link, a contraction parameter C decides everything about the
boundary point: C - link has a kernel exactly when 1/lambda is an eigenvalue
of the extended operator, and maps onto the target defect space (together
with a projection condition between the M spaces) exactly when the extension
minus 1/lambda is surjective.  The arc scan samples an open arc and checks
the continuity / boundary-isometry / invertibility conditions per sample,
computing invertibility both through the link criteria and directly so their
agreement is itself testable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .extensions import ContractionOp, DefectFrame, FamilyEvaluationError, ParameterFamily
from .isometry import (
    IsometricOperator,
    PreconditionViolated,
    defect_spaces,
    regular_type,
)
from .numerics import (
    DEFAULT_TOL,
    Subspace,
    TolerancePolicy,
    identity,
    max_abs,
    sigma_min,
)

__all__ = [
    "GAP_CERTIFIED",
    "NOT_CERTIFIED",
    "GapOperators",
    "EigenResult",
    "CriteriaReport",
    "ArcSample",
    "GapReport",
    "build_gap_operators",
    "eigen_criterion",
    "surjectivity_criterion",
    "arc_scan",
]

GAP_CERTIFIED = "GAP_CERTIFIED"
NOT_CERTIFIED = "NOT_CERTIFIED"

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GapOperators:
    """The two defect projections restricted to N_lambda and the induced link.

    ``src_projection`` / ``dst_projection`` are the matrices of
    P_{N_{z0}}|_{N_lambda} and P_{N_{1/conj(z0)}}|_{N_lambda} in the fixed
    canonical bases; both are invertible under the regular-type hypothesis.
    ``link`` is the resulting isometry of N_{z0} onto N_{1/conj(z0)};
    ``boundary_defect`` is N_lambda itself and ``boundary_m`` its partner
    M_lambda, which the M-space projection condition reads.
    """

    src_projection: np.ndarray
    dst_projection: np.ndarray
    link: ContractionOp
    boundary_defect: Subspace
    scalar: complex
    boundary_m: Subspace


def build_gap_operators(
    v: IsometricOperator, lam, z0=0j, tol: TolerancePolicy = DEFAULT_TOL
) -> GapOperators:
    """Construct the boundary link operator at |lam| = 1 for base point z0.

    Requires the regular-type hypothesis: at z0 = 0 that 1/lam = conj(lam)
    is of regular type for V, in general that the transformed point
    (1 - conj(z0) lam)/(lam - z0) is of regular type for the Cayley transform
    of V at z0 (the two are equivalent).  Raises PreconditionViolated when it
    fails, or when either restricted projection degenerates.

    The work splits between the defect frame of (V, z0) and the point: the
    frame holds N_{z0}, N_{1/conj(z0)} and the Cayley transform, which a
    caller scanning many boundary points at one frame computes once.  Per
    point: the regular-type test, the boundary pair N_lambda / M_lambda, the
    two restricted projections with their SVDs, and the link with its
    isometry check.
    """
    return _gap_operators(DefectFrame.of(v, z0, tol), lam)


def _gap_operators(frame: DefectFrame, lam) -> GapOperators:
    """:func:`build_gap_operators` at the frame's operator, base point and policy."""
    v, z0, tol = frame.v, frame.z0, frame.tol
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > tol.eps_unit:
        raise ValueError("boundary point must lie on the unit circle")
    if z0 == 0:
        scalar = lam.conjugate()
        rt = regular_type(v, lam.conjugate(), tol)
    else:
        scalar = (1.0 - z0.conjugate() * lam) / (lam - z0)
        rt = regular_type(frame.transform, scalar, tol)
    if not rt.is_regular:
        raise PreconditionViolated(
            f"regular-type hypothesis fails at lam={lam!r} (sigma_min={rt.sigma_min:.3e})"
        )
    boundary = defect_spaces(v, lam, tol)
    n_lam = boundary.n
    n_src, n_dst = frame.src, frame.dst
    s_mat = n_src.basis.conj().T @ n_lam.basis
    q_mat = n_dst.basis.conj().T @ n_lam.basis
    if s_mat.shape[0] != s_mat.shape[1] or q_mat.shape[0] != q_mat.shape[1]:
        raise PreconditionViolated(
            f"defect dimensions differ: N_lam {n_lam.dim}, src {n_src.dim}, dst {n_dst.dim}"
        )
    if n_lam.dim:
        s_min, q_min = sigma_min(s_mat), sigma_min(q_mat)
        if s_min <= tol.eps_rank or q_min <= tol.eps_rank:
            raise PreconditionViolated(
                f"restricted defect projection degenerates (sigma {min(s_min, q_min):.3e})"
            )
        link_matrix = scalar * (q_mat @ np.linalg.inv(s_mat))
    else:
        link_matrix = np.zeros((0, 0), dtype=complex)
    link = ContractionOp(n_src, n_dst, link_matrix)
    if n_lam.dim and max_abs(link_matrix.conj().T @ link_matrix - np.eye(n_src.dim)) > tol.eps_unit:
        raise PreconditionViolated("link operator failed the isometry check")
    return GapOperators(s_mat, q_mat, link, n_lam, scalar, boundary.m)


@dataclass(frozen=True)
class EigenResult:
    is_eigenvalue: bool
    witness: np.ndarray | None
    sigma_min: float


def eigen_criterion(
    v: IsometricOperator, c: ContractionOp, lam, tol: TolerancePolicy = DEFAULT_TOL
) -> EigenResult:
    """Whether 1/lam is an eigenvalue of the extension V + C (base point 0).

    Equivalent to C - link having a kernel.  On a hit, the witness is the
    kernel vector pulled back through the restricted projection: it lies in
    N_lambda and satisfies (V + C) f = conj(lam) f, which the test suite
    asserts at 10 * eps_eq.
    """
    report = _boundary_criteria(DefectFrame.of(v, 0j, tol), c, lam)
    return EigenResult(report.eigen, report.eigen_witness, report.sigma_cw)


@dataclass(frozen=True)
class CriteriaReport:
    """Joint eigenvalue / surjectivity verdicts at one boundary point.

    ``surjective`` is the link-route verdict (cond_cw_onto and cond_pm);
    ``crosscheck_rank`` is the direct full-rank check of E - lam T for the
    orthogonal extension T, the matrix the arc scan tests.  The two routes
    must agree, which the property suite asserts.
    """

    eigen: bool
    eigen_witness: np.ndarray | None
    surjective: bool
    cond_cw_onto: bool
    cond_pm: bool
    crosscheck_rank: bool
    sigma_cw: float = math.inf
    sigma_pm: float = math.inf
    sigma_direct: float = math.inf


def _pm_condition(frame: DefectFrame, m_lam: Subspace) -> tuple[bool, float]:
    """Projection condition between the M spaces: P onto M at the reflected
    base point maps M_lambda onto the whole of it."""
    smin = sigma_min(frame.reflected.m.basis.conj().T @ m_lam.basis)
    return smin > frame.tol.eps_rank, smin


def surjectivity_criterion(
    v: IsometricOperator, c: ContractionOp, lam, tol: TolerancePolicy = DEFAULT_TOL
) -> CriteriaReport:
    """Surjectivity of (V + C) - (1/lam) E, decided two independent ways.

    Link route: C - link maps the source defect space onto the target one
    (full row rank) together with the M-space projection condition.  Direct
    route: full rank of E - lam T for the extension T (square, so range = H
    exactly when the rank is full).  Both are reported.
    """
    return _boundary_criteria(DefectFrame.of(v, 0j, tol), c, lam)


def _boundary_criteria(frame: DefectFrame, c: ContractionOp, lam) -> CriteriaReport:
    """Both criteria at one boundary point for the frame's operator, base
    point and policy.

    :func:`_gap_operators` makes N_lambda, N_{z0} and N_{1/conj(z0)} equally
    dimensional, so C - link is square and its smallest singular value
    decides both the kernel and the range; the M spaces are then equally
    dimensional as well.  The vectors of C - link are computed only on a
    hit, for the witness.
    """
    tol = frame.tol
    ext = frame.extension(c)
    lam = complex(lam)
    ops = _gap_operators(frame, lam)
    diff = c.matrix - ops.link.matrix
    sigma_cw = sigma_min(diff)
    eigen = sigma_cw <= tol.eps_rank
    cond_pm, sigma_pm = _pm_condition(frame, ops.boundary_m)
    sigma_direct = sigma_min(identity(frame.v.ambient_dim) - lam * ext.matrix)
    witness = None
    if eigen:
        _, _, vh = np.linalg.svd(diff)
        witness = ops.boundary_defect.basis @ np.linalg.solve(ops.src_projection, vh[-1].conj())
        witness = witness / np.linalg.norm(witness)
    return CriteriaReport(
        eigen=eigen,
        eigen_witness=witness,
        surjective=not eigen and cond_pm,
        cond_cw_onto=not eigen,
        cond_pm=cond_pm,
        crosscheck_rank=sigma_direct > tol.eps_rank,
        sigma_cw=sigma_cw,
        sigma_pm=sigma_pm,
        sigma_direct=sigma_direct,
    )


@dataclass(frozen=True)
class ArcSample:
    """Per-sample verdicts of the arc scan."""

    index: int
    angle: float
    point: complex
    cond1: bool
    cond1_label: str
    cond2: bool
    cond3_link: bool
    cond3_direct: bool
    sigma_cw: float
    sigma_direct: float
    cond_pm: bool

    @property
    def passed(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3_link and self.cond3_direct

    def failures(self) -> list[str]:
        out = []
        if not self.cond1:
            out.append("condition-1")
        if not self.cond2:
            out.append("condition-2")
        if not (self.cond3_link and self.cond3_direct):
            out.append("condition-3")
        return out


@dataclass(frozen=True)
class GapReport:
    """Arc scan outcome: verdict plus the per-sample evidence."""

    verdict: str
    arc: tuple[float, float]
    z0: complex
    n_samples: int
    samples: tuple[ArcSample, ...]
    continuity_certification: str

    @property
    def certified(self) -> bool:
        return self.verdict == GAP_CERTIFIED

    def witnesses(self) -> list[ArcSample]:
        return [s for s in self.samples if not s.passed]


def _boundary_isometry_onto(c: ContractionOp, tol: TolerancePolicy) -> bool:
    m = c.matrix
    p, q = m.shape
    if p != q:
        return False
    if p == 0:
        return True
    eye = np.eye(p)
    return (
        max_abs(m.conj().T @ m - eye) <= tol.eps_unit
        and max_abs(m @ m.conj().T - eye) <= tol.eps_unit
    )


def arc_scan(
    v: IsometricOperator,
    fam: ParameterFamily,
    arc: tuple[float, float],
    z0=0j,
    n_samples: int = 9,
    tol: TolerancePolicy = DEFAULT_TOL,
    continuity_bound: float | None = None,
    frame: DefectFrame | None = None,
) -> GapReport:
    """Certify a spectral gap across an open arc by sampling its conditions.

    ``n_samples`` points are placed equispaced strictly inside the arc
    (endpoints excluded; the arc is open).  Per sample:

    1. continuity of the extended family: structural for the constant and
       blaschke kinds, successive-sample deviation <= ``continuity_bound``
       for tabulated kinds (the bound is then required);
    2. the boundary value maps the source defect space isometrically onto
       the target one, within eps_unit;
    3. invertibility of E - lam * (orthogonal extension at lam), computed
       both through the link criteria (C - link invertible and onto, plus the
       M-space projection condition) and directly; the verdict requires both
       routes so their agreement is itself under test.

    Raises PreconditionViolated (tagged with the sample index) when the
    regular-type hypothesis breaks at a sample.

    Per frame (``frame``, or one built for (v, z0, tol)), shared by all
    samples: N_{z0}, the reflected pair, the Cayley transform and, for a
    constant family, the orthogonal extension T with all of its checks.  Per
    sample: the family value, the operators of :func:`build_gap_operators`
    (regular type, N_lambda / M_lambda, link), the SVDs of C - link and of
    the M-space projection, and sigma_min of E - lam T; Blaschke and
    tabulated values get T assembled per sample from the frame's cached
    parts.
    """
    t1, t2 = float(arc[0]), float(arc[1])
    if not (0.0 <= t1 < t2 <= TWO_PI):
        raise ValueError("arc must satisfy 0 <= t1 < t2 <= 2*pi")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    z0 = complex(z0)
    if fam.z0 != z0:
        raise ValueError("family base point does not match z0")
    if fam.kind == "table" and continuity_bound is None:
        raise ValueError("tabulated families need an explicit continuity bound")
    cont_label = "structural" if fam.kind in ("constant", "blaschke") else "sampled-modulus"
    frame = DefectFrame.ensure(frame, v, z0, tol)

    step = (t2 - t1) / (n_samples + 1)
    samples: list[ArcSample] = []
    previous_value: np.ndarray | None = None
    for j in range(n_samples):
        angle = t1 + (j + 1) * step
        lam = cmath.exp(1j * angle)
        try:
            value = fam.value_at(lam, tol)
        except FamilyEvaluationError as exc:
            raise FamilyEvaluationError(f"sample {j}: {exc}") from exc

        if fam.kind in ("constant", "blaschke"):
            cond1 = True
        else:
            cond1 = previous_value is None or (
                max_abs(value.matrix - previous_value) <= continuity_bound
            )
        previous_value = value.matrix

        cond2 = _boundary_isometry_onto(value, tol)

        try:
            report = _boundary_criteria(frame, value, lam)
        except PreconditionViolated as exc:
            raise PreconditionViolated(f"sample {j} at angle {angle:.6f}: {exc}") from exc

        samples.append(
            ArcSample(
                index=j,
                angle=angle,
                point=lam,
                cond1=cond1,
                cond1_label=cont_label,
                cond2=cond2,
                cond3_link=report.surjective,
                cond3_direct=report.crosscheck_rank,
                sigma_cw=report.sigma_cw,
                sigma_direct=report.sigma_direct,
                cond_pm=report.cond_pm,
            )
        )

    verdict = GAP_CERTIFIED if all(s.passed for s in samples) else NOT_CERTIFIED
    return GapReport(
        verdict=verdict,
        arc=(t1, t2),
        z0=z0,
        n_samples=n_samples,
        samples=tuple(samples),
        continuity_certification=cont_label,
    )
