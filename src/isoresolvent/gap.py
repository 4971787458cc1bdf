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

One implementation, :func:`_evaluate`, serves every boundary point: the arc
scan hands it its samples in blocks of ``_BLOCK``, the standalone criteria
and :func:`build_gap_operators` one point.

Per arc: the defect frame (N_{z0}, the reflected pair, the Cayley
transform), and for a constant family T with its checks and condition 2,
plus the eigensolve of T when the parameter is unitary.  Per sample, one at
a time: the family value (and for Blaschke and table values T(lambda)),
the regular-type floor, and N_lambda alone, from one Householder QR of
(domain - lambda * image) with no M_lambda; for Blaschke, table and
non-unitary values also sigma_min(E - lambda T) by an SVD.  Per block, one
batched numpy call each: S and Q, their sigma_min, S^{-1}, the link, its
Gram residual, C - link and its sigma_min, and sigma_direct read off the
eigenvalues of T.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .extensions import ContractionOp, DefectFrame, FamilyEvaluationError, ParameterFamily
from .isometry import (
    IsometricOperator,
    PreconditionViolated,
    _defect_columns,
    regular_type,
)
from .numerics import (
    _TOL_CAP,
    DEFAULT_TOL,
    SingularOperator,
    Subspace,
    TolerancePolicy,
    _gram_residual,
    _gram_residuals,
    _split_eigh,
    _trailing,
    identity,
    max_abs,
    operator_norm,
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

# Samples that arc_scan evaluates together.  A block's stacks hold
# O(_BLOCK * n * k) numbers, so memory does not grow with the arc.
_BLOCK = 32


@dataclass(frozen=True)
class GapOperators:
    """The two defect projections restricted to N_lambda and the induced link.

    ``src_projection`` / ``dst_projection`` are the matrices of
    P_{N_{z0}}|_{N_lambda} and P_{N_{1/conj(z0)}}|_{N_lambda} in the fixed
    canonical bases; both are invertible under the regular-type hypothesis.
    ``link`` is the resulting isometry of N_{z0} onto N_{1/conj(z0)};
    ``boundary_defect`` is N_lambda itself.  ``q_min`` is sigma_min of
    ``dst_projection`` (+inf when N_lambda = {0}), the cosine of the largest
    principal angle between N_lambda and N_{1/conj(z0)}, which also decides
    the M-space projection condition.
    """

    src_projection: np.ndarray
    dst_projection: np.ndarray
    link: ContractionOp
    boundary_defect: Subspace
    scalar: complex
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
    point (:func:`_evaluate` of one point): the regular-type test, the
    boundary defect space N_lambda, the two restricted projections with
    their SVDs, and the link with its isometry check, whose residual also
    bounds its norm.
    """
    frame = DefectFrame.of(v, z0, tol)
    block = _raise_first(_evaluate(frame, [lam]))
    link = ContractionOp(frame.src, frame.dst, block.link[0], float(block.norm_bound[0]))
    return GapOperators(
        block.src_projection[0],
        block.dst_projection[0],
        link,
        Subspace(v.ambient_dim, block.boundary[0]),
        complex(block.scalars[0]),
        float(block.q_min[0]),
    )


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
    of s, as s <= 1 + max_k |mu_k|.  :meth:`sigmas` returns s where it
    decides the rank verdict as an SVD of E - lam T does, that is where
    |s - eps_rank| exceeds delta plus ``_SIGMA_ROUNDOFF`` * n, the roundoff
    allowed the SVD and the forming of s; elsewhere it returns NaN and the
    caller measures, with ``t``.  A spectrum whose delta exceeds eps_rank is
    not used, so a reported sigma_direct is within eps_rank of the exact
    value, the resolution the policy asks of singular values.  On C^0, s is
    +inf, as sigma_min of the empty matrix.
    """

    def __init__(self, t: np.ndarray, mu: np.ndarray, delta: float, tol: TolerancePolicy):
        self.t, self.mu, self.delta, self.eps_rank = t, mu, delta, tol.eps_rank
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
        return cls(t, mu, delta, tol) if delta <= tol.eps_rank else None

    def sigmas(self, lams: np.ndarray) -> np.ndarray:
        """s at each point of ``lams``, NaN where it cannot decide the verdict.

        Both factors of the product are 2-d: numpy then rounds each entry as
        it rounds ``lam * mu`` for one point, also for one point and one
        eigenvalue, where a 1-d ``mu`` would take another kernel."""
        s = np.abs(1.0 - lams[:, None] * self.mu[None, :]).min(axis=1, initial=math.inf)
        return np.where(np.abs(s - self.eps_rank) <= self.band, math.nan, s)

    def sigma(self, lam: complex) -> float | None:
        """:meth:`sigmas` at one point, None in place of NaN."""
        s = float(self.sigmas(np.array([complex(lam)]))[0])
        return None if math.isnan(s) else s


class _Block(NamedTuple):
    """The boundary points of one :func:`_evaluate` call, stacked: entry j of
    each array belongs to the j-th point.  The criteria fields are None when
    no parameter was given."""

    scalars: np.ndarray
    boundary: np.ndarray
    src_projection: np.ndarray
    dst_projection: np.ndarray
    q_min: np.ndarray
    link: np.ndarray
    norm_bound: np.ndarray
    values: list | None = None
    diff: np.ndarray | None = None
    sigma_cw: np.ndarray | None = None
    sigma_pm: np.ndarray | None = None
    sigma_direct: np.ndarray | None = None


def _raise_first(result: tuple[_Block, tuple[int, Exception] | None]) -> _Block:
    """The block of an :func:`_evaluate` result, or its failure raised."""
    block, failure = result
    if failure is not None:
        raise failure[1]
    return block


def _evaluate(
    frame: DefectFrame,
    points,
    parameter=None,
    floor: _RegularFloor | None = None,
    spectrum: _ArcSpectrum | None = None,
) -> tuple[_Block | None, tuple[int, Exception] | None]:
    """The link, and with ``parameter`` both criteria, at each boundary point
    of ``points`` for the frame's operator, base point and policy.

    ``parameter(j)`` is the contraction at ``points[j]``; ``floor`` is the
    regular-type bound :func:`arc_scan` carries along its samples, and
    ``spectrum`` the eigenvalues of a constant unitary T, off which
    sigma_direct is read wherever that decides the rank verdict as the SVD
    does.  The standalone criteria and ``verify`` pass neither and measure
    every point.

    Returns ``(block, failure)``.  ``failure`` is ``(j, exc)`` for the first
    exception in (point, step) order, with the message a point-by-point
    evaluation raises, and then ``block`` is None.  The steps of a point are:
    its parameter, the extension T, the regular-type hypothesis, the
    dimension of N_lambda (all taken point by point), then the degenerate
    projections, the link's contraction bound and its isometry check (taken
    on the stack).  A stacked step runs only on the points before the first
    failure of the steps before it, so a degenerate S is never inverted.

    Past the dimension step N_lambda, N_{z0} and N_{1/conj(z0)} are equally
    dimensional, so C - link is square and its smallest singular value
    decides both the kernel and the range; the M spaces are then equally
    dimensional as well, and their projection condition is read off q_min
    without an SVD (:func:`_sigma_pm`).
    """
    v, z0, tol = frame.v, frame.z0, frame.tol
    src, dst = frame.src, frame.dst
    k = src.dim
    scalars, bases, values, direct = [], [], [], []
    failure = None
    for j, lam in enumerate(points):
        try:
            if parameter is not None:
                c = parameter(j)
                ext = frame.extension(c)
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
            cols, scale = _defect_columns(v, lam)
            basis = _trailing(cols, tol.eps_rank, scale)
            if basis.shape[1] != k or dst.dim != k:
                raise PreconditionViolated(
                    f"defect dimensions differ: N_lam {basis.shape[1]}, src {k}, dst {dst.dim}"
                )
        except (ValueError, PreconditionViolated, SingularOperator) as exc:
            # Raised once the points before this one have passed their
            # stacked steps, which come first in (point, step) order.
            failure = (j, exc)
            break
        scalars.append(scalar)
        bases.append(basis.T)
        if parameter is not None:
            values.append(c)
            if spectrum is None:
                direct.append(sigma_min(identity(v.ambient_dim) - lam * ext.matrix))

    b = len(bases)
    if not b:
        return None, failure
    # Each N_lambda keeps the column-major layout of its QR.
    boundary = np.array(bases).swapaxes(1, 2)
    s_mat = src.basis.conj().T @ boundary
    q_mat = dst.basis.conj().T @ boundary
    if k:
        sv = np.linalg.svd(np.concatenate([s_mat, q_mat]), compute_uv=False)[:, -1]
        s_min, q_min = sv[:b], sv[b:]
        degenerate = np.flatnonzero((s_min <= tol.eps_rank) | (q_min <= tol.eps_rank)).tolist()
        ok = degenerate[0] if degenerate else b
        link = np.array(scalars[:ok])[:, None, None] * (q_mat[:ok] @ np.linalg.inv(s_mat[:ok]))
        residual = _gram_residuals(link)
    else:
        ok, q_min = b, np.full(b, math.inf)
        link, residual = np.zeros((b, 0, 0), dtype=complex), np.zeros(b)
    # ||L||^2 = ||L^H L|| <= 1 + ||L^H L - I|| <= 1 + k * residual; a bound
    # above the contraction cap is replaced by the measured norm, as
    # ContractionOp does.
    norm_bound = np.sqrt(1.0 + k * residual)
    loose = ~(norm_bound <= 1.0 + _TOL_CAP)
    for j in np.flatnonzero(loose | (residual > tol.eps_unit)).tolist():
        if loose[j] and operator_norm(link[j]) > 1.0 + _TOL_CAP:
            return None, (j, ValueError("matrix is not a contraction"))
        if residual[j] > tol.eps_unit:
            return None, (j, PreconditionViolated("link operator failed the isometry check"))
    if ok < b:
        sigma = min(s_min[ok], q_min[ok])
        return None, (ok, PreconditionViolated(f"restricted defect projection degenerates (sigma {sigma:.3e})"))
    if failure is not None:
        return None, failure

    links = (np.array(scalars), boundary, s_mat, q_mat, q_min, link, norm_bound)
    if parameter is None:
        return _Block(*links), None
    # A constant family's one value is broadcast, not stacked.
    c_mat = values[0].matrix if all(c is values[0] for c in values) else np.stack([c.matrix for c in values])
    diff = c_mat - link
    sigma_cw = np.linalg.svd(diff, compute_uv=False)[:, -1] if k else np.full(b, math.inf)
    if spectrum is None:
        sigma_direct = np.array(direct, dtype=float)
    else:
        lams = np.array(points, dtype=complex)
        sigma_direct = spectrum.sigmas(lams)
        for j in np.flatnonzero(np.isnan(sigma_direct)).tolist():
            sigma_direct[j] = sigma_min(identity(v.ambient_dim) - complex(lams[j]) * spectrum.t)
    return _Block(*links, values, diff, sigma_cw, _sigma_pm(frame, points, q_min), sigma_direct), None


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


def _sigma_pm(frame: DefectFrame, points, q_min: np.ndarray) -> np.ndarray:
    """sigma_min of P_{M_{1/conj(z0)}} restricted to M_lambda at each of
    ``points``, the singular value of the M-space projection condition, read
    off the link's ``q_min`` there.

    :func:`_evaluate` has made N_lambda and N_{1/conj(z0)} equally
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
        return np.full(q_min.shape, math.inf)
    return q_min if frame.src.dim else np.ones(q_min.shape)


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
    point and policy: :func:`_evaluate` of that point.  The vectors of
    C - link are computed only on a hit, for the witness."""
    tol = frame.tol
    block = _raise_first(_evaluate(frame, [lam], lambda j: c))
    sigma_cw, sigma_pm, sigma_direct = (float(x[0]) for x in (block.sigma_cw, block.sigma_pm, block.sigma_direct))
    eigen = sigma_cw <= tol.eps_rank
    cond_pm = sigma_pm > tol.eps_rank
    witness = None
    if eigen:
        _, _, vh = np.linalg.svd(block.diff[0])
        witness = block.boundary[0] @ np.linalg.solve(block.src_projection[0], vh[-1].conj())
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
    return _isometries_onto([c], tol)[0]


def _isometries_onto(values: list, tol: TolerancePolicy) -> list[bool]:
    """:func:`_boundary_isometry_onto` of each value (all of one shape), on
    their stack."""
    m = np.stack([c.matrix for c in values])
    if m.shape[1] != m.shape[2]:
        return [False] * len(values)
    if not m.shape[1]:
        return [True] * len(values)
    both = (_gram_residuals(m) <= tol.eps_unit) & (_gram_residuals(np.swapaxes(m.conj(), 1, 2)) <= tol.eps_unit)
    return both.tolist()


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
    checks and condition 2; for a constant unitary parameter also one
    eigensolve of T (:class:`_ArcSpectrum`).  The samples are evaluated
    together, ``_BLOCK`` at a time, by :func:`_evaluate`, the code of the
    standalone criteria.  Per sample it takes the family value (and for
    Blaschke and tabulated values T, assembled from the frame's cached
    parts), N_lambda alone by one QR, and for Blaschke, tabulated and
    non-unitary values sigma_min(E - lam T) by an SVD.  Per block, each in
    one batched call: S and Q with their SVDs, the link and its isometry
    check, the SVD of C - link, and sigma_direct of a constant unitary T,
    read off its eigenvalues within the proven bound delta except where
    delta could move it across eps_rank; there it is an SVD, so every
    verdict is the SVD's.  The M-space condition takes no SVD (it is
    q_min), and the regular-type hypothesis is measured only where the
    bound carried from the last measurement, sigma' - ||domain|| |s - s'|,
    does not clear twice eps_rank (in practice once or twice per arc).  A
    point the bound does not clear is measured, so a failure raises the
    message it would raise without the bound, and the first failure in
    (sample, step) order is the one raised.
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
    # Condition 2 of a constant family's one value, which the spectrum has
    # checked where it serves.
    constant_cond2 = fam.kind == "constant" and (spectrum is not None or _boundary_isometry_onto(fam.constant, tol))
    samples: list[ArcSample] = []
    previous_value: np.ndarray | None = None
    for start in range(0, n_samples, _BLOCK):
        angles = [t1 + (j + 1) * step for j in range(start, min(start + _BLOCK, n_samples))]
        lams = [cmath.exp(1j * angle) for angle in angles]
        block, failure = _evaluate(frame, lams, lambda j: fam.value_at(lams[j], tol), floor, spectrum)
        if failure is not None:
            j, exc = failure
            if isinstance(exc, FamilyEvaluationError):
                raise FamilyEvaluationError(f"sample {start + j}: {exc}") from exc
            if isinstance(exc, PreconditionViolated):
                raise PreconditionViolated(f"sample {start + j} at angle {angles[j]:.6f}: {exc}") from exc
            raise exc

        cond2 = [constant_cond2] * len(lams) if fam.kind == "constant" else _isometries_onto(block.values, tol)
        cond1 = [True] * len(lams)
        if fam.kind == "table":
            for j, value in enumerate(block.values):
                cond1[j] = previous_value is None or max_abs(value.matrix - previous_value) <= continuity_bound
                previous_value = value.matrix

        eigen = (block.sigma_cw <= tol.eps_rank).tolist()
        cond_pm = (block.sigma_pm > tol.eps_rank).tolist()
        direct = (block.sigma_direct > tol.eps_rank).tolist()
        for j, (sigma_cw, sigma_direct) in enumerate(zip(block.sigma_cw.tolist(), block.sigma_direct.tolist())):
            samples.append(
                ArcSample(
                    index=start + j,
                    angle=angles[j],
                    point=lams[j],
                    cond1=cond1[j],
                    cond2=cond2[j],
                    cond3_link=not eigen[j] and cond_pm[j],
                    cond3_direct=direct[j],
                    sigma_cw=sigma_cw,
                    sigma_direct=sigma_direct,
                    cond_pm=cond_pm[j],
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
