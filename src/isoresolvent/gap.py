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

Two facts of the finite-dimensional setting spare SVDs without changing a
verdict.  The M spaces are the complements of equally dimensional N spaces,
so their projection condition has the singular value q_min of the N-space
projection Q, which the link already measures.  And the regular-type lower
bound moves by at most ||domain|| |s - s'| between points s and s' (Weyl),
so the arc scan measures it only where the bound carried from the last
measurement no longer proves the hypothesis.

A third fact spares the n x n SVD of the direct route for a constant
unitary parameter, whose extension T is one unitary matrix along the arc:
sigma_min(E - lambda T) = min_k |1 - lambda mu_k| over the eigenvalues mu_k
of T, the distance from conj(lambda) to the nearest one.  One eigensolve of
T per arc gives it at every sample, within a proven bound delta, and the
SVD is still taken at a sample where delta could put the value on the
other side of eps_rank, so every verdict is that of the SVD.

Per arc: the defect frame (N_{z0}, the reflected pair, the Cayley
transform), and for a constant family T with its checks, plus the
eigensolve of T when the parameter is unitary.  Per sample: the QR of the
boundary defect pair, the k x k work on the defect spaces and
sigma_min(E - lambda T), read off the eigenvalues or, for Blaschke, table
and non-unitary values, by an SVD.
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
    _gram_residual,
    _split_eigh,
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
    M_lambda.  ``q_min`` is sigma_min of ``dst_projection`` (+inf when
    N_lambda = {0}), the cosine of the largest principal angle between
    N_lambda and N_{1/conj(z0)}, which also decides the M-space projection
    condition.
    """

    src_projection: np.ndarray
    dst_projection: np.ndarray
    link: ContractionOp
    boundary_defect: Subspace
    scalar: complex
    boundary_m: Subspace
    q_min: float = math.inf


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
    isometry check, whose residual also bounds its norm.
    """
    return _gap_operators(DefectFrame.of(v, z0, tol), lam)


# Allowance for the roundoff of a measured sigma_min(A(s)), A(s) = image -
# s * domain, per ambient dimension: LAPACK's singular values are exact for
# a matrix within a small multiple of n * eps * ||A|| (||A|| <= 2 on the
# circle), taken here generously.
_SIGMA_ROUNDOFF = 64 * np.finfo(float).eps


class _RegularFloor:
    """A proven lower bound on sigma_min(A(s)) along an arc, where A(s) =
    image - s * domain is the map :func:`regular_type` tests.

    It is anchored at the last measurement, sigma' at s'.  By Weyl's
    inequality sigma_min(A(s)) >= sigma' - ||domain|| |s - s'|, and
    ||domain|| <= ``slope`` = sqrt(1 + d * r) for the Gram residual r of the
    domain basis (1 to roundoff for the bases the package builds).  Less
    ``slack`` for the roundoff of sigma', a floor above twice eps_rank (the
    margin of :func:`guarded_inverse`'s floor) proves the hypothesis.
    """

    def __init__(self):
        self.point, self.sigma, self.slope, self.slack = 0j, -math.inf, 0.0, 0.0

    def clears(self, s: complex, tol: TolerancePolicy) -> bool:
        return self.sigma - self.slope * abs(s - self.point) - self.slack > 2.0 * tol.eps_rank

    def anchor(self, a: IsometricOperator, s: complex, sigma: float) -> None:
        if not self.slope:
            self.slope = math.sqrt(1.0 + a.domain_dim * _gram_residual(a.domain_basis))
            self.slack = _SIGMA_ROUNDOFF * a.ambient_dim
        self.point, self.sigma = s, sigma


class _ArcSpectrum:
    """sigma_min(E - lam T) along an arc for one unitary T, read off its
    eigenvalues: the orthogonal extension of a constant unitary parameter.

    For a normal T with eigenvalues mu_k, sigma_min(E - lam T) is
    s(lam) = min_k |1 - lam mu_k|, the distance from conj(lam) to the nearest
    mu_k.  The eigenvalues are computed ones, so the bound is proven from
    what :func:`_split_eigh` returns: the Rayleigh quotients mu_k, the
    vectors Z and the residual R = T Z - Z L, L = diag(mu).  Exactly,

        E - lam T = (Z (E - lam L) - lam R) Z^{-1}.

    Let g = n * gram_residual(Z) >= ||Z^H Z - E||, a = sqrt(1 - g) and
    b = sqrt(1 + g), so the singular values of Z lie in [a, b] and those of
    Z^{-1} in [1/b, 1/a].  Then sigma_min(Z (E - lam L)) lies in [a s, b s];
    by Weyl's inequality the term lam R moves it by at most ||R|| <= ||R||_F
    (|lam| = 1); and the factor Z^{-1} scales it into

        (a s - ||R||_F) / b  <=  sigma_min(E - lam T)  <=  (b s + ||R||_F) / a.

    Both ends lie within delta = (b/a - 1)(1 + max_k |mu_k|) + ||R||_F / a
    of s, as s <= 1 + max_k |mu_k|.  :meth:`sigma` returns s where it
    decides the rank verdict as an SVD of E - lam T does, that is where
    |s - eps_rank| exceeds delta plus ``_SIGMA_ROUNDOFF`` * n, the roundoff
    allowed the SVD and the forming of s; elsewhere it returns None and the
    caller measures.  A spectrum whose delta exceeds eps_rank is not used,
    so a reported sigma_direct is within eps_rank of the exact value, the
    resolution the policy asks of singular values.  On C^0, s is +inf, as
    sigma_min of the empty matrix.
    """

    def __init__(self, mu: np.ndarray, delta: float, tol: TolerancePolicy):
        self.mu, self.delta, self.eps_rank = mu, delta, tol.eps_rank
        self.band = delta + _SIGMA_ROUNDOFF * mu.size

    @classmethod
    def of(cls, frame: DefectFrame, fam: ParameterFamily) -> "_ArcSpectrum | None":
        """The spectrum for ``fam`` at the frame: for a constant family whose
        value passes condition 2 (unitary within eps_unit) and whose bound
        delta is proven within eps_rank, else None."""
        tol = frame.tol
        if fam.kind != "constant" or not _boundary_isometry_onto(fam.constant, tol):
            return None
        t = frame.extension(fam.constant).matrix
        try:
            mu, z, residual = _split_eigh(t, tol)
        except np.linalg.LinAlgError:
            return None
        g = t.shape[0] * _gram_residual(z)
        if g >= 1.0:
            return None
        a, b = math.sqrt(1.0 - g), math.sqrt(1.0 + g)
        delta = (b / a - 1.0) * (1.0 + float(np.abs(mu).max(initial=0.0))) + float(np.linalg.norm(residual)) / a
        return cls(mu, delta, tol) if delta <= tol.eps_rank else None

    def sigma(self, lam: complex) -> float | None:
        s = float(np.abs(1.0 - lam * self.mu).min(initial=math.inf))
        return None if abs(s - self.eps_rank) <= self.band else s


def _gap_operators(frame: DefectFrame, lam, floor: _RegularFloor | None = None) -> GapOperators:
    """:func:`build_gap_operators` at the frame's operator, base point and policy.

    ``floor``, which :func:`arc_scan` carries from sample to sample, skips
    the regular-type SVD where it proves the hypothesis; a point it does
    not clear is measured as without it and re-anchors it.
    """
    v, z0, tol = frame.v, frame.z0, frame.tol
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > tol.eps_unit:
        raise ValueError("boundary point must lie on the unit circle")
    if z0 == 0:
        scalar, tested = lam.conjugate(), v
    else:
        scalar, tested = (1.0 - z0.conjugate() * lam) / (lam - z0), frame.transform
    if floor is None or not floor.clears(scalar, tol):
        rt = regular_type(tested, scalar, tol)
        if not rt.is_regular:
            raise PreconditionViolated(
                f"regular-type hypothesis fails at lam={lam!r} (sigma_min={rt.sigma_min:.3e})"
            )
        if floor is not None:
            floor.anchor(tested, scalar, rt.sigma_min)
    boundary = defect_spaces(v, lam, tol)
    n_lam = boundary.n
    n_src, n_dst = frame.src, frame.dst
    s_mat = n_src.basis.conj().T @ n_lam.basis
    q_mat = n_dst.basis.conj().T @ n_lam.basis
    if s_mat.shape[0] != s_mat.shape[1] or q_mat.shape[0] != q_mat.shape[1]:
        raise PreconditionViolated(
            f"defect dimensions differ: N_lam {n_lam.dim}, src {n_src.dim}, dst {n_dst.dim}"
        )
    q_min = math.inf
    if n_lam.dim:
        s_min, q_min = sigma_min(s_mat), sigma_min(q_mat)
        if s_min <= tol.eps_rank or q_min <= tol.eps_rank:
            raise PreconditionViolated(
                f"restricted defect projection degenerates (sigma {min(s_min, q_min):.3e})"
            )
        link_matrix = scalar * (q_mat @ np.linalg.inv(s_mat))
    else:
        link_matrix = np.zeros((0, 0), dtype=complex)
    residual = _gram_residual(link_matrix)
    # ||L||^2 = ||L^H L|| <= 1 + ||L^H L - I|| <= 1 + k * residual.
    link = ContractionOp(n_src, n_dst, link_matrix, math.sqrt(1.0 + n_src.dim * residual))
    if residual > tol.eps_unit:
        raise PreconditionViolated("link operator failed the isometry check")
    return GapOperators(s_mat, q_mat, link, n_lam, scalar, boundary.m, q_min)


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
    must agree, which the property suite asserts.  ``sigma_pm``, the
    singular value behind cond_pm, equals the link's q_min by the principal
    angles of complements (see :func:`_sigma_pm`), so cond_pm holds whenever
    the link exists: the condition is automatic in finite dimension.
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


def _sigma_pm(frame: DefectFrame, ops: GapOperators) -> float:
    """sigma_min of P_{M_{1/conj(z0)}} restricted to M_lambda, the singular
    value of the M-space projection condition, read off ``ops.q_min``.

    :func:`_gap_operators` has made N_lambda and N_{1/conj(z0)} equally
    dimensional, and the M spaces are their orthogonal complements.  Such
    complements share the principal angles of the N spaces (Knyazev and
    Argentati, SIAM J. Sci. Comput. 23, 2002): the angles in (0, pi/2) carry
    over, and right angles come in pairs, since dim(X & Y^perp) =
    dim(X^perp & Y) for equally dimensional X and Y.  So the largest angle,
    and with it sigma_min = q_min, is the same.  The edge values are those
    of the SVD: +inf when the M spaces are {0} (an empty domain) and 1.0
    when they are all of C^n (N_lambda = {0}).
    """
    if frame.v.domain_dim == 0:
        return math.inf
    return ops.q_min if ops.boundary_defect.dim else 1.0


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


def _boundary_criteria(
    frame: DefectFrame,
    c: ContractionOp,
    lam,
    floor: _RegularFloor | None = None,
    spectrum: _ArcSpectrum | None = None,
) -> CriteriaReport:
    """Both criteria at one boundary point for the frame's operator, base
    point and policy.

    :func:`_gap_operators` makes N_lambda, N_{z0} and N_{1/conj(z0)} equally
    dimensional, so C - link is square and its smallest singular value
    decides both the kernel and the range; the M spaces are then equally
    dimensional as well, and their projection condition is read off q_min
    without an SVD (:func:`_sigma_pm`).  The vectors of C - link are
    computed only on a hit, for the witness.  ``floor`` is the regular-type
    bound :func:`arc_scan` carries along its samples, and ``spectrum`` the
    eigenvalues of a constant unitary T, off which sigma_direct is read
    wherever that decides the rank verdict as the SVD does; the standalone
    criteria and ``verify`` pass neither and measure every point.
    """
    tol = frame.tol
    ext = frame.extension(c)
    lam = complex(lam)
    ops = _gap_operators(frame, lam, floor)
    diff = c.matrix - ops.link.matrix
    sigma_cw = sigma_min(diff)
    eigen = sigma_cw <= tol.eps_rank
    sigma_pm = _sigma_pm(frame, ops)
    cond_pm = sigma_pm > tol.eps_rank
    sigma_direct = None if spectrum is None else spectrum.sigma(lam)
    if sigma_direct is None:
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
    """Whether C is unitary: both C^H C and C C^H are the identity within eps_unit."""
    m = c.matrix
    return (
        m.shape[0] == m.shape[1]
        and _gram_residual(m) <= tol.eps_unit
        and _gram_residual(m.conj().T) <= tol.eps_unit
    )


def arc_scan(
    v: IsometricOperator,
    fam: ParameterFamily,
    arc: tuple[float, float],
    *,
    n_samples: int = 9,
    tol: TolerancePolicy = DEFAULT_TOL,
    continuity_bound: float | None = None,
) -> GapReport:
    """Certify a spectral gap across an open arc by sampling its conditions.

    The base point is the family's, ``fam.z0``.  ``n_samples`` points are
    placed equispaced strictly inside the arc (endpoints excluded; the arc
    is open).  Per sample:

    1. continuity of the extended family: structural for the constant and
       blaschke kinds, successive-sample deviation <= ``continuity_bound``
       for tabulated kinds (then required; a negative or NaN one is refused);
    2. the boundary value maps the source defect space isometrically onto
       the target one, within eps_unit;
    3. invertibility of E - lam * (orthogonal extension at lam), computed
       both through the link criteria (C - link invertible and onto, plus the
       M-space projection condition) and directly; the verdict requires both
       routes so their agreement is itself under test.

    Raises PreconditionViolated (tagged with the sample index) when the
    regular-type hypothesis breaks at a sample.

    Per arc, shared by all samples: the frame (:meth:`DefectFrame.of` at
    (v, fam.z0, tol)) with N_{z0}, the reflected pair, the Cayley transform
    and, for a constant family, the orthogonal extension T with all of its
    checks; for a constant unitary parameter also one eigensolve of T
    (:class:`_ArcSpectrum`).  Per sample: the family value, the operators of
    :func:`build_gap_operators` (N_lambda / M_lambda by one QR, the SVDs of
    S and Q, the link), the SVD of C - link, and sigma_min of E - lam T.
    That last is read off the eigenvalues of a constant unitary T, within
    the proven bound delta, except where delta could move it across
    eps_rank; there, and for Blaschke, tabulated and non-unitary values, it
    is an SVD, so every verdict is the SVD's.  Blaschke and tabulated values
    get T assembled per sample from the frame's cached parts.  The M-space
    condition takes no SVD (it is q_min), and the regular-type hypothesis is
    measured only where the bound carried from the last measurement,
    sigma' - ||domain|| |s - s'|, does not clear twice eps_rank (in practice
    once or twice per arc).  A point the bound does not clear is measured,
    so a failure raises the message it would raise without the bound.
    """
    t1, t2 = float(arc[0]), float(arc[1])
    if not (0.0 <= t1 < t2 <= TWO_PI):
        raise ValueError("arc must satisfy 0 <= t1 < t2 <= 2*pi")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if fam.kind == "table" and continuity_bound is None:
        raise ValueError("tabulated families need an explicit continuity bound")
    if continuity_bound is not None and not continuity_bound >= 0.0:
        raise ValueError(f"the continuity bound must be nonnegative, got {continuity_bound!r}")
    cont_label = "structural" if fam.kind in ("constant", "blaschke") else "sampled-modulus"
    frame = DefectFrame.of(v, fam.z0, tol)

    step = (t2 - t1) / (n_samples + 1)
    floor = _RegularFloor()
    spectrum = _ArcSpectrum.of(frame, fam)
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
            report = _boundary_criteria(frame, value, lam, floor, spectrum)
        except PreconditionViolated as exc:
            raise PreconditionViolated(f"sample {j} at angle {angle:.6f}: {exc}") from exc

        samples.append(
            ArcSample(
                index=j,
                angle=angle,
                point=lam,
                cond1=cond1,
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
        z0=fam.z0,
        n_samples=n_samples,
        samples=tuple(samples),
        continuity_certification=cont_label,
    )
