"""Scenario ingestion and command dispatch.

Scenario files are JSON; complex numbers are 2-element ``[re, im]`` arrays,
basis fields list column vectors, operator matrices list rows.  Commands
stream a strict JSON report (to ``--out`` or stdout), laid out as
``json.dumps(report, indent=2)``, and exit with 0 on success or a certified
gap, 1 on input errors and library failures, and 2 when a property is
violated or a scan is not certified.  Reports are byte-identical for
identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .extensions import (
    ContractionOp,
    DefectFrame,
    ParameterFamily,
    blaschke_family,
    constant_family,
    table_family,
    validate_family,
)
from .gap import arc_scan
from .isometry import (
    INF,
    IsometricOperator,
    PreconditionViolated,
    defect_spaces,
    is_inf_point,
    regular_type,
)
from .numerics import DEFAULT_TOL, SingularOperator, TolerancePolicy, max_abs
from .resolvents import ResolventFn
from .sampling import disk_grid
from .verify import run_property_suite

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "run_command", "main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


class ScenarioError(ValueError):
    """Scenario document violates the schema or its own invariants."""


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; ``frame`` holds the defect geometry of
    (operator, z0) under ``tol`` that every command reuses."""

    operator: IsometricOperator
    family: ParameterFamily
    z0: complex
    tol: TolerancePolicy
    frame: DefectFrame


def _complex_from(doc, where: str) -> complex:
    if not (isinstance(doc, (list, tuple)) and len(doc) == 2):
        raise ScenarioError(f"{where}: complex numbers are 2-element [re, im] arrays")
    re, im = doc
    if not all(isinstance(x, (int, float)) for x in (re, im)):
        raise ScenarioError(f"{where}: complex parts must be numbers")
    try:
        z = complex(re, im)
    except OverflowError:  # an integer beyond the float range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ScenarioError(f"{where}: complex parts must be finite numbers")
    return z


def _complex_array(doc, where: str) -> np.ndarray | None:
    """Decode a uniform array of numeric [re, im] pairs in one pass.

    Returns None when ``doc`` is not such an array, so the caller's entry
    loop can name the malformed part; non-finite parts are rejected here.
    """
    try:
        pairs = np.array(doc)
    except ValueError:  # ragged nesting
        return None
    if pairs.ndim < 2 or pairs.shape[-1] != 2 or pairs.dtype.kind not in "biuf":
        return None
    pairs = np.ascontiguousarray(pairs, dtype=float)
    if not np.isfinite(pairs).all():
        raise ScenarioError(f"{where}: complex parts must be finite numbers")
    return pairs.view(complex)[..., 0]


def _matrix_from_rows(doc, where: str) -> np.ndarray:
    matrix = _complex_array(doc, where)
    if matrix is not None and matrix.ndim == 2:
        return matrix
    if not isinstance(doc, list):
        raise ScenarioError(f"{where}: expected an array of row arrays")
    rows = []
    for i, row in enumerate(doc):
        if not isinstance(row, list):
            raise ScenarioError(f"{where}: row {i} is not an array")
        rows.append([_complex_from(entry, f"{where}[{i}]") for entry in row])
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ScenarioError(f"{where}: ragged rows")
    return np.asarray(rows, dtype=complex) if rows else np.zeros((0, 0), dtype=complex)


def _basis_from_columns(doc, n: int, where: str) -> np.ndarray:
    columns = _complex_array(doc, where)
    if columns is not None and columns.ndim == 2 and columns.shape[1] == n:
        return columns.T
    if not isinstance(doc, list):
        raise ScenarioError(f"{where}: expected an array of column vectors")
    cols = []
    for j, col in enumerate(doc):
        if not isinstance(col, list) or len(col) != n:
            raise ScenarioError(f"{where}: column {j} must be a vector of length {n}")
        cols.append([_complex_from(entry, f"{where}[{j}]") for entry in col])
    if not cols:
        return np.zeros((n, 0), dtype=complex)
    return np.asarray(cols, dtype=complex).T


def parse_scenario(text: str | bytes, tol_override: TolerancePolicy | None = None) -> Scenario:
    """Parse and fully validate a scenario document.

    The domain basis must already be orthonormal; it is rejected, not
    repaired, since re-orthonormalizing would silently change the operator
    under test.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("top-level document must be an object")
    for key in ("ambient_dim", "domain_basis", "image_basis", "z0", "family"):
        if key not in doc:
            raise ScenarioError(f"missing required field {key!r}")

    toler = doc.get("toler")
    if tol_override is not None:
        tol = tol_override
    elif toler is not None:
        if not isinstance(toler, dict):
            raise ScenarioError("toler must be an object")
        try:
            tol = TolerancePolicy(
                eps_rank=float(toler.get("eps_rank", DEFAULT_TOL.eps_rank)),
                eps_eq=float(toler.get("eps_eq", DEFAULT_TOL.eps_eq)),
                eps_unit=float(toler.get("eps_unit", DEFAULT_TOL.eps_unit)),
            )
        except ValueError as exc:
            raise ScenarioError(f"bad tolerance policy: {exc}") from exc
    else:
        tol = DEFAULT_TOL

    n = doc["ambient_dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ScenarioError("ambient_dim must be a positive integer")
    domain = _basis_from_columns(doc["domain_basis"], n, "domain_basis")
    image = _basis_from_columns(doc["image_basis"], n, "image_basis")
    if domain.shape[1] != image.shape[1]:
        raise ScenarioError("domain_basis and image_basis must list the same number of columns")
    d = domain.shape[1]
    if d:
        gram_residual = max_abs(domain.conj().T @ domain - np.eye(d))
        if gram_residual > tol.eps_unit:
            raise ScenarioError(
                f"domain basis is not orthonormal (Gram residual {gram_residual:.3e})"
            )
        iso_residual = max_abs(image.conj().T @ image - np.eye(d))
        if iso_residual > tol.eps_unit:
            raise ScenarioError(
                f"images are not isometric (Gram residual {iso_residual:.3e})"
            )
    operator = IsometricOperator(n, domain, image)

    z0 = _complex_from(doc["z0"], "z0")
    if abs(z0) >= 1.0:
        raise ScenarioError("z0 must lie strictly inside the unit disk")

    frame = DefectFrame(operator, z0, tol)
    family = _parse_family(doc["family"], frame)

    report = validate_family(family, operator, disk_grid(12), tol, frame)
    if not report.ok:
        raise ScenarioError("family validation failed: " + "; ".join(report.violations))
    return Scenario(operator, family, z0, tol, frame)


def _contraction(frame: DefectFrame, matrix: np.ndarray) -> ContractionOp:
    src, dst = frame.src, frame.dst
    if matrix.shape != (dst.dim, src.dim):
        raise ScenarioError(
            f"family matrix shape {matrix.shape} does not match defect dimensions "
            f"({dst.dim}, {src.dim})"
        )
    try:
        return ContractionOp(src, dst, matrix)
    except ValueError as exc:
        raise ScenarioError(f"family matrix: {exc}") from exc


def _parse_family(doc, frame: DefectFrame) -> ParameterFamily:
    z0, tol = frame.z0, frame.tol
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ScenarioError("family must be an object with a 'kind'")
    kind = doc["kind"]
    if kind == "constant":
        if "matrix" not in doc:
            raise ScenarioError("constant family needs a 'matrix'")
        c = _contraction(frame, _matrix_from_rows(doc["matrix"], "family.matrix"))
        return constant_family(c, z0)
    if kind == "blaschke":
        if "matrix" not in doc or "a" not in doc:
            raise ScenarioError("blaschke family needs 'matrix' and 'a'")
        u0 = _contraction(frame, _matrix_from_rows(doc["matrix"], "family.matrix"))
        a = _complex_from(doc["a"], "family.a")
        try:
            return blaschke_family(a, u0, z0, tol)
        except ValueError as exc:
            raise ScenarioError(f"family: {exc}") from exc
    if kind == "table":
        points = doc.get("points")
        if not isinstance(points, list) or not points:
            raise ScenarioError("table family needs a non-empty 'points' array")
        table = []
        for i, entry in enumerate(points):
            if not isinstance(entry, dict) or "zeta" not in entry or "matrix" not in entry:
                raise ScenarioError(f"family.points[{i}] must carry 'zeta' and 'matrix'")
            zeta = _complex_from(entry["zeta"], f"family.points[{i}].zeta")
            matrix = _matrix_from_rows(entry["matrix"], f"family.points[{i}].matrix")
            table.append((zeta, _contraction(frame, matrix)))
        return table_family(table, z0)
    raise ScenarioError(f"unknown family kind {kind!r}")


def _jsonify_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_point(re: float, im: float):
    if math.isnan(re) or math.isnan(im):
        raise ScenarioError("--zeta takes numbers (use --zeta inf 0 for the range pair)")
    if math.isinf(re) or math.isinf(im):
        return INF
    return complex(re, im)


def _require_finite(flag: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ScenarioError(f"{flag} must be finite")


def _cmd_defect(scenario: Scenario, args) -> tuple[dict, int]:
    zeta = _parse_point(args.zeta[0], args.zeta[1]) if args.zeta else 0j
    pair = defect_spaces(scenario.operator, zeta, scenario.tol)
    report = {
        "zeta": "INF" if is_inf_point(zeta) else _jsonify_complex(complex(zeta)),
        "dim_m": pair.m.dim,
        "dim_n": pair.n.dim,
        "m_basis": pair.m.basis,
        "n_basis": pair.n.basis,
    }
    if not is_inf_point(zeta):
        rt = regular_type(scenario.operator, complex(zeta), scenario.tol)
        report["regular_type_at_point"] = {
            "is_regular": rt.is_regular,
            "sigma_min": rt.sigma_min if math.isfinite(rt.sigma_min) else "inf",
        }
        if complex(zeta) != 0:
            inv = 1.0 / complex(zeta).conjugate()
            if not (math.isfinite(inv.real) and math.isfinite(inv.imag)):
                raise ScenarioError("--zeta is so small that 1/conj(zeta) leaves the float range")
            rt_inv = regular_type(scenario.operator, inv, scenario.tol)
            report["regular_type_at_circle_inverse"] = {
                "point": _jsonify_complex(inv),
                "is_regular": rt_inv.is_regular,
                "sigma_min": rt_inv.sigma_min if math.isfinite(rt_inv.sigma_min) else "inf",
            }
    return report, EXIT_OK


def _cmd_resolvent(scenario: Scenario, args) -> tuple[dict, int, list[complex] | None]:
    r = ResolventFn(scenario.operator, scenario.family, scenario.z0, scenario.tol, scenario.frame)
    if args.grid is not None:
        points = disk_grid(args.grid)
        points = points + [1.0 / z.conjugate() for z in points if z != 0]
        values = [{"zeta": _jsonify_complex(z), "matrix": r.at(z)} for z in points]
        return {"points": values}, EXIT_OK, points
    if not args.zeta:
        raise ScenarioError("resolvent needs --zeta or --grid")
    _require_finite("--zeta", math.hypot(*args.zeta))  # a modulus beyond float range is inf
    z = complex(args.zeta[0], args.zeta[1])
    if abs(abs(z) - 1.0) <= scenario.tol.eps_unit:
        raise ScenarioError("resolvent is evaluated off the unit circle only")
    m = r.at(z)
    branch = "interior" if abs(z) < 1 else "exterior"
    return {"zeta": _jsonify_complex(z), "branch": branch, "matrix": m}, EXIT_OK, None


def _cmd_gap_scan(scenario: Scenario, args) -> tuple[dict, int]:
    if not args.arc:
        raise ScenarioError("gap-scan needs --arc t1 t2")
    _require_finite("--arc", *args.arc)
    if args.continuity_bound is not None:
        _require_finite("--continuity-bound", args.continuity_bound)
    try:
        report = arc_scan(
            scenario.operator,
            scenario.family,
            (args.arc[0], args.arc[1]),
            scenario.z0,
            n_samples=args.samples,
            tol=scenario.tol,
            continuity_bound=args.continuity_bound,
            frame=scenario.frame,
        )
    except PreconditionViolated as exc:
        return {"verdict": "PRECONDITION_VIOLATED", "error": str(exc)}, EXIT_VIOLATION
    doc = {
        "verdict": report.verdict,
        "arc": [report.arc[0], report.arc[1]],
        "z0": _jsonify_complex(report.z0),
        "n_samples": report.n_samples,
        "continuity_certification": report.continuity_certification,
        "samples": [
            {
                "index": s.index,
                "angle": s.angle,
                "point": _jsonify_complex(s.point),
                "cond1": s.cond1,
                "cond2": s.cond2,
                "cond3_link": s.cond3_link,
                "cond3_direct": s.cond3_direct,
                "cond_pm": s.cond_pm,
                "sigma_cw": s.sigma_cw if math.isfinite(s.sigma_cw) else "inf",
                "sigma_direct": s.sigma_direct,
                "failures": s.failures(),
            }
            for s in report.samples
        ],
    }
    return doc, EXIT_OK if report.certified else EXIT_VIOLATION


def _cmd_verify(scenario: Scenario, args) -> tuple[dict, int]:
    results = run_property_suite(
        scenario.operator, scenario.family, scenario.z0, seed=args.seed, tol=scenario.tol
    )
    doc = {
        "properties": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return doc, EXIT_OK if doc["all_passed"] else EXIT_VIOLATION


def run_command(scenario: Scenario, command: str, args) -> tuple[dict, int, list[complex] | None]:
    """Dispatch one CLI command; returns (report, exit_code, grid).

    Matrices in the report are complex numpy arrays, which :func:`_write_report`
    writes as rows of ``[re, im]`` pairs.  ``grid`` lists the points of a
    ``resolvent --grid`` run, in the order of ``report["points"]``, else None.
    """
    grid = None
    if command == "defect":
        report, code = _cmd_defect(scenario, args)
    elif command == "resolvent":
        report, code, grid = _cmd_resolvent(scenario, args)
    elif command == "gap-scan":
        report, code = _cmd_gap_scan(scenario, args)
    elif command == "verify":
        report, code = _cmd_verify(scenario, args)
    else:
        raise ScenarioError(f"unknown command {command!r}")
    report = {"command": command, "seed": args.seed, **report}
    return report, code, grid


_SCALAR = json.JSONEncoder(allow_nan=False).encode


def _matrix_text(m: np.ndarray, level: int, on_matrix) -> str:
    """``m`` as ``json.dumps`` writes its rows of [re, im] pairs at nesting
    ``level`` with indent 2.  Each part is formatted once, by ``repr``, and
    the strings are also handed to ``on_matrix(shape, real, imag)``."""
    real = list(map(repr, m.real.ravel().tolist()))
    imag = list(map(repr, m.imag.ravel().tolist()))
    if on_matrix is not None:
        on_matrix(m.shape, real, imag)
    n_rows, n_cols = m.shape
    if not n_rows:
        return "[]"
    i0, i1, i2, i3 = ("\n" + "  " * (level + k) for k in range(4))
    if n_cols:
        pairs = list(map(("," + i3).join, zip(real, imag)))
        between = i2 + "]," + i2 + "[" + i3
        rows = [
            f"[{i2}[{i3}{between.join(pairs[r * n_cols:(r + 1) * n_cols])}{i2}]{i1}]"
            for r in range(n_rows)
        ]
    else:
        rows = ["[]"] * n_rows
    return "[" + i1 + ("," + i1).join(rows) + i0 + "]"


def _chunks(obj, level: int, on_matrix):
    """Yield the text of ``json.dumps(obj, indent=2)`` piece by piece: one
    piece per scalar, per container bracket and per matrix."""
    if isinstance(obj, np.ndarray):
        yield _matrix_text(obj, level, on_matrix)
    elif isinstance(obj, dict) and obj:
        inner = "\n" + "  " * (level + 1)
        opening = "{" + inner
        for key, value in obj.items():
            yield opening + _SCALAR(key) + ": "
            yield from _chunks(value, level + 1, on_matrix)
            opening = "," + inner
        yield "\n" + "  " * level + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        inner = "\n" + "  " * (level + 1)
        opening = "[" + inner
        for value in obj:
            yield opening
            yield from _chunks(value, level + 1, on_matrix)
            opening = "," + inner
        yield "\n" + "  " * level + "]"
    else:
        yield _SCALAR(obj)


def _finite(obj) -> bool:
    """True when ``obj`` holds no NaN or infinity, which strict JSON cannot carry."""
    if isinstance(obj, np.ndarray):
        return bool(np.isfinite(obj).all())
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    if isinstance(obj, (list, tuple)):
        return all(map(_finite, obj))
    return not isinstance(obj, float) or math.isfinite(obj)


def _write_report(report: dict, write, on_matrix=None) -> None:
    r"""Stream ``json.dumps(report, indent=2) + "\n"`` through ``write``,
    matrices (complex numpy arrays) as rows of ``[re, im]`` pairs.

    Callers check the report with :func:`_finite` first, so no partial
    report is written; scalars are encoded without NaN or Infinity tokens.
    """
    for chunk in _chunks(report, 0, on_matrix):
        write(chunk)
    write("\n")


def _csv_rows(write, grid: list[complex]):
    """Write the CSV header and return an ``on_matrix`` hook that writes the
    rows of the k-th matrix it receives as the value at ``grid[k]``."""
    points = iter(grid)
    indices = {}
    write("zeta_re,zeta_im,entry_row,entry_col,value_re,value_im\n")

    def rows(shape, real, imag):
        z = next(points)
        if shape not in indices:
            indices[shape] = [f"{i},{j}," for i in range(shape[0]) for j in range(shape[1])]
        head = f"{z.real!r},{z.imag!r},"
        lines = zip(repeat(head), indices[shape], real, repeat(","), imag, repeat("\n"))
        write("".join(map("".join, lines)))

    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoresolvent",
        description="Defect subspaces, generalized resolvents and spectral gap scans "
        "for closed isometric operators on C^n.",
    )
    parser.add_argument("scenario", help="path to the scenario JSON document")
    parser.add_argument(
        "command", choices=["defect", "resolvent", "gap-scan", "verify"], help="what to run"
    )
    parser.add_argument("--arc", nargs=2, type=float, metavar=("T1", "T2"), help="open arc in radians")
    parser.add_argument("--samples", type=int, default=9, help="arc samples (default 9)")
    parser.add_argument(
        "--continuity-bound",
        type=float,
        default=None,
        help="modulus bound for tabulated families in gap-scan",
    )
    parser.add_argument("--zeta", nargs=2, type=float, metavar=("RE", "IM"), help="evaluation point")
    parser.add_argument("--grid", type=int, default=None, help="emit the resolvent on an N-point grid (+ mirrors)")
    parser.add_argument("--seed", type=int, default=0, help="seed for the randomized suites (default 0)")
    parser.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.scenario, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        scenario = parse_scenario(text)
        if args.command == "resolvent" and args.grid is not None and args.out is None:
            raise ScenarioError("resolvent --grid needs --out (the CSV is written next to it)")
        report, code, grid = run_command(scenario, args.command, args)
        if not _finite(report):
            raise ValueError("the report holds a non-finite number, which JSON cannot carry")
    except (ValueError, SingularOperator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if not args.out:
        _write_report(report, sys.stdout.write)
        return code
    try:
        with open(args.out, "w") as fh:
            if grid is None:
                _write_report(report, fh.write)
            else:
                with open(args.out + ".csv", "w") as csv:
                    _write_report(report, fh.write, _csv_rows(csv.write, grid))
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
