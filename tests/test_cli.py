import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isoresolvent import DEFAULT_TOL, DefectFrame, cli, extensions, gap, numerics, resolvents
from isoresolvent.cli import ScenarioError, main, parse_scenario
from isoresolvent.isometry import defect_spaces
from isoresolvent.numerics import sigma_min
from isoresolvent.verify import run_property_suite


def e1_scenario(c=1.0, z0=(0.0, 0.0), **extra):
    doc = {
        "ambient_dim": 2,
        "domain_basis": [[[1, 0], [0, 0]]],
        "image_basis": [[[0, 0], [1, 0]]],
        "z0": list(z0),
        "family": {"kind": "constant", "matrix": [[[c.real, c.imag]]] if isinstance(c, complex) else [[[c, 0]]]},
    }
    doc.update(extra)
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def random_scenario(n, d, z0=(0.0, 0.0), seed=5, **extra):
    """V maps d random orthonormal columns onto d others; the parameter is 0,
    a contraction between the defect spaces at any z0."""
    rng = np.random.default_rng(seed)
    dom, img = (
        np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0][:, :d]
        for _ in range(2)
    )
    columns = lambda b: [[[x.real, x.imag] for x in col] for col in b.T]
    doc = {
        "ambient_dim": n,
        "domain_basis": columns(dom),
        "image_basis": columns(img),
        "z0": list(z0),
        "family": {"kind": "constant", "matrix": [[[0.0, 0.0]] * (n - d)] * (n - d)},
    }
    doc.update(extra)
    return doc


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_loads(text, **kwargs):
    return json.loads(text, parse_constant=_reject_constant, **kwargs)


def assert_csv_matches_json(report_text, csv_text):
    """Every CSV row carries, byte for byte, the float tokens of its JSON entry."""
    report = strict_loads(report_text, parse_float=str)
    lines = csv_text.split("\n")
    assert lines[0] == "zeta_re,zeta_im,entry_row,entry_col,value_re,value_im"
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    expected = [
        [*point["zeta"], str(i), str(j), *entry]
        for point in report["points"]
        for i, row in enumerate(point["matrix"])
        for j, entry in enumerate(row)
    ]
    assert rows == expected


class TestParseScenario:
    def test_minimal_e1(self):
        scenario = parse_scenario(json.dumps(e1_scenario()))
        assert scenario.operator.ambient_dim == 2
        assert scenario.operator.domain_dim == 1
        assert scenario.family.kind == "constant"

    def test_rank_deficient_domain_rejected(self):
        doc = e1_scenario()
        doc["domain_basis"] = [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]
        doc["image_basis"] = [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(ScenarioError, match="Gram residual"):
            parse_scenario(json.dumps(doc))

    def test_excessive_parameter_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(e1_scenario(c=1.2)))

    def test_bad_json_rejected(self):
        with pytest.raises(ScenarioError, match="JSON"):
            parse_scenario(b"{not json")

    def test_missing_field_rejected(self):
        doc = e1_scenario()
        del doc["family"]
        with pytest.raises(ScenarioError, match="family"):
            parse_scenario(json.dumps(doc))

    def test_tolerance_override(self):
        doc = e1_scenario(toler={"eps_rank": 1e-10, "eps_eq": 1e-9, "eps_unit": 1e-9})
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.tol.eps_rank == 1e-10

    def test_blaschke_scenario(self):
        doc = e1_scenario()
        doc["family"] = {"kind": "blaschke", "a": [0.5, 0.0], "matrix": [[[1, 0]]]}
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.family.kind == "blaschke"


class TestCommands:
    def test_defect(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        code = main([path, "defect", "--zeta", "0", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["command"] == "defect"
        assert out["dim_m"] == 1 and out["dim_n"] == 1
        assert out["regular_type_at_point"]["is_regular"] is True

    def test_defect_at_inf(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        code = main([path, "defect", "--zeta", "inf", "0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["zeta"] == "INF"

    @pytest.mark.parametrize("zeta", [["1e200", "0"], ["1e200", "1e200"], ["1.7e308", "1.7e308"]])
    def test_defect_at_huge_zeta(self, tmp_path, capsys, zeta):
        """M_zeta is one-dimensional for every |zeta| != 1, also where the
        squares of the spanning column overflow."""
        path = write_scenario(tmp_path, e1_scenario())
        assert main([path, "defect", "--zeta", *zeta]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["dim_m"] == 1 and out["dim_n"] == 1
        assert out["regular_type_at_point"]["is_regular"] is True
        assert captured.err == ""

    def test_resolvent_point(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        code = main([path, "resolvent", "--zeta", "0.5", "0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        top_left = out["matrix"][0][0]
        assert abs(top_left[0] - 4 / 3) <= 1e-9 and abs(top_left[1]) <= 1e-12
        assert abs(out["matrix"][0][1][0] - 2 / 3) <= 1e-9

    def test_resolvent_on_circle_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        assert main([path, "resolvent", "--zeta", "1", "0"]) == 1

    def test_resolvent_grid_needs_out(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        assert main([path, "resolvent", "--grid", "4"]) == 1

    @pytest.mark.parametrize("grid", ["-3", "0"])
    def test_resolvent_grid_must_be_positive(self, tmp_path, capsys, grid):
        path = write_scenario(tmp_path, e1_scenario())
        out_path = tmp_path / "report.json"
        assert main([path, "resolvent", "--grid", grid, "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == "error: --grid must be a positive integer\n"
        assert not list(tmp_path.glob("report.json*"))

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_gap_scan_samples_must_be_positive(self, tmp_path, capsys, samples):
        path = write_scenario(tmp_path, e1_scenario())
        assert main([path, "gap-scan", "--arc", "0.5", "2.5", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --samples must be a positive integer\n"
        assert captured.out == ""

    @pytest.mark.parametrize("bound", ["-1", "-1e-300", "nan", "inf"])
    def test_gap_scan_continuity_bound_must_be_nonnegative(self, tmp_path, capsys, bound):
        # Table points at 0.5 + k/3: samples 2 on (0.5, 1.5) fall on two of them.
        points = [
            {"zeta": [math.cos(0.5 + k / 3), math.sin(0.5 + k / 3)], "matrix": [[[math.cos(0.05 * k), math.sin(0.05 * k)]]]}
            for k in range(4)
        ]
        path = write_scenario(tmp_path, e1_scenario(family={"kind": "table", "points": points}))
        argv = [path, "gap-scan", "--arc", "0.5", "1.5", "--samples", "2"]
        assert main([*argv, f"--continuity-bound={bound}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --continuity-bound must be a finite nonnegative number\n"
        assert captured.out == ""
        assert main([*argv, "--continuity-bound=0.1"]) == 0

    def test_resolvent_grid_csv(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        out_path = tmp_path / "report.json"
        code = main([path, "resolvent", "--grid", "4", "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert len(report["points"]) == 8  # interior grid plus exterior mirrors
        csv_text = (tmp_path / "report.json.csv").read_text().splitlines()
        assert csv_text[0] == "zeta_re,zeta_im,entry_row,entry_col,value_re,value_im"
        assert len(csv_text) == 1 + 8 * 4
        rows = [line.split(",") for line in csv_text[1:]]
        for k, row in enumerate(rows):
            point = report["points"][k // 4]
            zeta_re, zeta_im, i, j, value_re, value_im = row
            assert [float(zeta_re), float(zeta_im)] == point["zeta"]
            assert [float(value_re), float(value_im)] == point["matrix"][int(i)][int(j)]
        assert_csv_matches_json(out_path.read_text(), (tmp_path / "report.json.csv").read_text())

    def test_exterior_error_names_the_requested_point(self, tmp_path, capsys):
        """A table has no value at the reflection of an exterior point; the
        error names the requested point as well as its reflection."""
        lam = np.exp(0.25j * math.pi)
        points = [{"zeta": [lam.real, lam.imag], "matrix": [[[1.0, 0.0]]]}]
        path = write_scenario(tmp_path, e1_scenario(family={"kind": "table", "points": points}))
        assert main([path, "resolvent", "--zeta", "1.5", "-0.7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(complex(1.5, -0.7)) in err and repr(1 / complex(1.5, 0.7)) in err

    def test_gap_scan_certified(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        code = main(
            [path, "gap-scan", "--arc", str(math.pi / 4), str(3 * math.pi / 4), "--samples", "9"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "GAP_CERTIFIED"
        assert len(out["samples"]) == 9

    def test_gap_scan_not_certified(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        code = main(
            [path, "gap-scan", "--arc", str(math.pi / 2), str(3 * math.pi / 2), "--samples", "9"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["verdict"] == "NOT_CERTIFIED"
        bad = [s for s in out["samples"] if s["failures"]]
        assert bad and bad[0]["failures"] == ["condition-3"]

    def test_gap_scan_table_family(self, tmp_path, capsys):
        """A table whose points are exactly the scan's samples parses and is
        certified with --continuity-bound; without the bound it is an input
        error."""
        arc, samples = (math.pi / 4, 3 * math.pi / 4), 9
        step = (arc[1] - arc[0]) / (samples + 1)
        points = []
        for j in range(samples):
            lam = np.exp(1j * (arc[0] + (j + 1) * step))
            value = np.exp(0.05j * j)
            points.append({"zeta": [lam.real, lam.imag], "matrix": [[[value.real, value.imag]]]})
        path = write_scenario(tmp_path, e1_scenario(family={"kind": "table", "points": points}))
        argv = [path, "gap-scan", "--arc", str(arc[0]), str(arc[1]), "--samples", str(samples)]
        assert main([*argv, "--continuity-bound", "0.1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "GAP_CERTIFIED"
        assert out["continuity_certification"] == "sampled-modulus"
        assert main(argv) == 1
        assert "continuity bound" in capsys.readouterr().err

    def test_verify_passes_and_is_deterministic(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        code = main([path, "verify", "--seed", "7"])
        first = capsys.readouterr().out
        assert code == 0
        report = json.loads(first)
        assert report["all_passed"] is True
        assert report["seed"] == 7
        assert all(p["passed"] for p in report["properties"])
        code = main([path, "verify", "--seed", "7"])
        second = capsys.readouterr().out
        assert code == 0
        assert first == second

    def test_verify_table_family(self, tmp_path, capsys):
        """A table has no value at 0, where the resolvent is E for every
        parameter value; verify still passes on it."""
        lam = np.exp(0.25j * math.pi)
        points = [{"zeta": [lam.real, lam.imag], "matrix": [[[1.0, 0.0]]]}]
        path = write_scenario(tmp_path, e1_scenario(family={"kind": "table", "points": points}))
        assert main([path, "verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True

    def test_verify_rejects_bad_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario(c=1.2))
        assert main([path, "verify"]) == 1

    @pytest.mark.parametrize("z0", [[0.0, 0.0], [0.3, 0.1]])
    @pytest.mark.parametrize(
        "command", [["resolvent", "--zeta", "0.5", "0.1"], ["gap-scan", "--arc", "0.5", "1.5"]]
    )
    def test_policy_below_roundoff_is_an_input_error(self, tmp_path, capsys, command, z0):
        """With eps_eq far below eps_unit and roundoff the orthogonal extension
        fails its checks (at z0 = 0 the extends-V residual): exit 1 with a
        message, no traceback."""
        doc = random_scenario(6, 3, z0, toler={"eps_eq": 1e-300})
        path = write_scenario(tmp_path, doc)
        assert main([path, *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if z0 == [0.0, 0.0]:
            assert "does not extend V" in err

    @pytest.mark.parametrize("eps_unit, seed", [(1e-14, "0"), (1e-15, "1")])
    def test_policy_below_roundoff_in_verify_is_an_input_error(self, tmp_path, capsys, eps_unit, seed):
        """An eps_unit below roundoff makes a random draw of the property
        suite fail the link's isometry check (PreconditionViolated): exit 1
        with one line, no traceback and no report."""
        path = write_scenario(tmp_path, e1_scenario(toler={"eps_unit": eps_unit}))
        assert main([path, "verify", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: link operator failed the isometry check\n"

    def test_inverse_residual_failure_is_an_input_error(self, tmp_path, capsys):
        """eps_eq below roundoff fails the interior inverse on its residual:
        exit 1 with one line that names the residual, not the rank cutoff."""
        path = write_scenario(tmp_path, e1_scenario(0.5, toler={"eps_eq": 1e-300}))
        assert main([path, "resolvent", "--zeta", "0.3", "0.2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "inverse residual" in captured.err
        assert "below the rank cutoff" not in captured.err

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["resolvent", "--zeta", "inf", "0"], "--zeta"),
            (["resolvent", "--zeta", "0.5", "nan"], "--zeta"),
            (["resolvent", "--zeta", "1e308", "1.7976931348623157e308"], "--zeta"),
            (["defect", "--zeta", "nan", "0"], "--zeta"),
            (["gap-scan", "--arc", "nan", "1"], "--arc"),
            (["gap-scan", "--arc", "0.5", "inf"], "--arc"),
            (["gap-scan", "--arc", "0.5", "1", "--continuity-bound", "nan"], "--continuity-bound"),
            (["gap-scan", "--arc", "0.5", "1", "--continuity-bound", "inf"], "--continuity-bound"),
            (["defect", "--zeta", "5e-324", "5e-324"], "--zeta"),
        ],
    )
    def test_non_finite_argument_is_an_input_error(self, tmp_path, capsys, command, flag):
        path = write_scenario(tmp_path, e1_scenario())
        out_path = tmp_path / "report.json"
        assert main([path, *command, "--out", str(out_path)]) == 1
        assert flag in capsys.readouterr().err
        assert not out_path.exists()

    def test_non_finite_report_is_not_written(self, tmp_path, capsys, monkeypatch):
        """A non-finite value is caught before the first byte: no report file."""
        matrix = np.array([[1.0, np.nan]], dtype=complex)
        monkeypatch.setattr(cli, "run_command", lambda *a: ({"matrix": matrix}, 0, None))
        path = write_scenario(tmp_path, e1_scenario())
        out_path = tmp_path / "report.json"
        assert main([path, "defect", "--out", str(out_path)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, out, taken",
        [
            (["defect"], "missing/report.json", None),
            (["resolvent", "--grid", "2"], "missing/report.json", None),
            (["resolvent", "--grid", "2"], "report.json", "report.json.csv"),
        ],
    )
    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, command, out, taken):
        """--out into a missing directory, or a --grid CSV path taken by a
        directory: exit 1 with one error line."""
        path = write_scenario(tmp_path, e1_scenario())
        if taken:
            (tmp_path / taken).mkdir()
        assert main([path, *command, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/scenario.json", "defect"]) == 1

    def test_report_written_to_out(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        out_path = tmp_path / "defect.json"
        code = main([path, "defect", "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["command"] == "defect"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("z0", [1e-12, 1e-15])
    def test_tiny_base_point_matches_zero(self, tmp_path, capsys, z0):
        """The orthogonal extension at a tiny nonzero z0 keeps its accuracy
        (its formula does not divide by z0): the resolvent exists and agrees
        with the one at z0 = 0 to O(|z0|)."""
        values = []
        for base in (z0, 0.0):
            path = write_scenario(tmp_path, random_scenario(16, 12, (base, 0.0), seed=11))
            assert main([path, "resolvent", "--zeta", "0.5", "0.1"]) == 0
            values.append(np.array(strict_loads(capsys.readouterr().out)["matrix"]))
        assert np.max(np.abs(values[0] - values[1])) <= 1e-10

    def test_verify_builds_frames_only_under_the_suite_policy(self, monkeypatch):
        """Under a scenario policy every parameter the suite draws shares the
        frame of the resolvent built from it: no frame under another policy."""
        doc = random_scenario(8, 5, (0.2, 0.1), seed=3, toler={"eps_rank": 1e-10})
        scenario = parse_scenario(json.dumps(doc))
        seen = []
        original = DefectFrame.__post_init__

        def spy(frame):
            seen.append(frame.tol)
            original(frame)

        monkeypatch.setattr(DefectFrame, "__post_init__", spy)
        results = run_property_suite(scenario.operator, scenario.family, seed=1, tol=scenario.tol)
        assert all(r.passed for r in results)
        assert seen and all(tol == scenario.tol for tol in seen)


class TestScenarioArrays:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("domain_basis", [[[float("nan"), 0], [0, 0]]]),
            ("image_basis", [[[0, 0], [float("inf"), 0]]]),
            ("z0", [0.0, float("-inf")]),
        ],
    )
    def test_non_finite_rejected_with_field(self, field, value):
        doc = e1_scenario()
        doc[field] = value
        with pytest.raises(ScenarioError, match=f"^{field}.*finite"):
            parse_scenario(json.dumps(doc))

    def test_non_finite_family_matrix_rejected(self):
        doc = e1_scenario()
        doc["family"]["matrix"] = [[[float("nan"), 0]]]
        with pytest.raises(ScenarioError, match="^family.matrix.*finite"):
            parse_scenario(json.dumps(doc))

    def test_integer_beyond_float_range_rejected(self):
        text = json.dumps(e1_scenario()).replace('"z0": [0.0, 0.0]', '"z0": [1' + "0" * 400 + ", 0]")
        with pytest.raises(ScenarioError, match="^z0.*finite"):
            parse_scenario(text)

    def test_boolean_ambient_dim_rejected(self):
        doc = e1_scenario()
        doc["ambient_dim"] = True
        with pytest.raises(ScenarioError, match="ambient_dim must be a positive integer"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("domain_basis", [[[1, 0]]], r"domain_basis: column 0 must be a vector of length 2"),
            ("domain_basis", [[[1, 0], [0, 0, 0]]], r"domain_basis\[0\]: complex numbers are 2-element"),
            ("domain_basis", [[[1, 0], ["0", 0]]], r"domain_basis\[0\]: complex parts must be numbers"),
            ("domain_basis", {"a": 1}, r"domain_basis: expected an array of column vectors"),
            ("image_basis", [[[0, 0], [1, None]]], r"image_basis\[0\]: complex parts must be numbers"),
        ],
    )
    def test_malformed_basis_messages(self, field, value, message):
        doc = e1_scenario()
        doc[field] = value
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "value, message",
        [
            ([[[1, 0]], [[1, 0], [0, 0]]], "family.matrix: ragged rows"),
            ([[[1, 0]], 5], r"family.matrix: row 1 is not an array"),
            ([[[1, 0, 2]]], r"family.matrix\[0\]: complex numbers are 2-element"),
            ("x", "family.matrix: expected an array of row arrays"),
        ],
    )
    def test_malformed_matrix_messages(self, value, message):
        doc = e1_scenario()
        doc["family"]["matrix"] = value
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(json.dumps(doc))

    @given(
        st.integers(1, 4).flatmap(
            lambda rows: st.integers(1, 4).flatmap(
                lambda cols: st.lists(
                    st.lists(
                        st.lists(
                            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**62), 2**62), st.booleans()),
                            min_size=2,
                            max_size=2,
                        ),
                        min_size=cols,
                        max_size=cols,
                    ),
                    min_size=rows,
                    max_size=rows,
                )
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_decode_equals_entry_loop(self, doc):
        """The one-pass decode gives bit for bit what complex(re, im) per entry gives."""
        want = np.array([[complex(*e) for e in row] for row in doc], dtype=complex)
        got = cli._matrix_from_rows(doc, "m")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        cols = cli._basis_from_columns(doc, len(doc[0]), "b")
        assert cols.shape == want.T.shape and cols.copy().tobytes() == want.T.copy().tobytes()


def unitary_c2_scenario():
    """V swaps e1 and e2 on all of C^2, so both defect spaces are 0-dimensional."""
    doc = e1_scenario()
    doc["domain_basis"] = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    doc["image_basis"] = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    doc["family"]["matrix"] = []
    return doc


def _lists(obj):
    """``obj`` with its matrices as the nested [re, im] lists they stand for."""
    if isinstance(obj, np.ndarray):
        return [[[z.real, z.imag] for z in row] for row in obj.tolist()]
    if isinstance(obj, dict):
        return {key: _lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_lists(value) for value in obj]
    return obj


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_matrices = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda shape: st.lists(
        st.builds(complex, _finite_floats, _finite_floats), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda values: np.array(values, dtype=complex).reshape(shape))
)
_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]), _finite_floats)
_square_lists = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.builds(complex, _parts, _parts), min_size=n * n, max_size=n * n).map(
            lambda values: np.array(values, dtype=complex).reshape(n, n)
        ),
        min_size=1,
        max_size=3,
    )
)
_reports = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _finite_floats, st.text(), _matrices),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)


class TestReportBytes:
    """The streamed report is the text ``json.dumps(report, indent=2) + "\\n"``."""

    @given(_reports)
    @settings(max_examples=100, deadline=None)
    def test_writer_matches_json_dumps(self, report):
        chunks = []
        cli._write_report(report, chunks.append)
        assert "".join(chunks) == json.dumps(_lists(report), indent=2) + "\n"

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(e1_scenario(), id="e1"),
            pytest.param(e1_scenario(0.5, z0=(0.3, 0.1)), id="e1-z0"),
            pytest.param(random_scenario(16, 12, (0.2, -0.1)), id="n16-z0"),
            pytest.param(random_scenario(18, 13), id="n18"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["defect", "--zeta", "0.3", "0.2"],
            ["defect", "--zeta", "inf", "0"],
            ["resolvent", "--zeta", "0.5", "0.1"],
            ["resolvent", "--zeta", "-1.5", "2.0"],
            ["resolvent", "--grid", "4"],
            ["gap-scan", "--arc", "0.5", "2.5", "--samples", "5"],
            ["verify", "--seed", "3"],
        ],
        ids=lambda c: "-".join(c[:2]) + ("-inf" if "inf" in c else "") + ("-ext" if "-1.5" in c else ""),
    )
    def test_report_bytes(self, tmp_path, capsys, scenario, command):
        path = write_scenario(tmp_path, scenario)
        out_path = tmp_path / "report.json"
        code = main([path, *command, "--out", str(out_path)])
        assert code in (0, 2)
        written = out_path.read_text()
        assert written == json.dumps(strict_loads(written), indent=2) + "\n"
        if "--grid" in command:
            assert_csv_matches_json(written, (tmp_path / "report.json.csv").read_text())

    def test_zero_column_basis_and_negative_zero(self, tmp_path, capsys):
        """V unitary on C^2: the defect space N is 0-dimensional, an n x 0 block."""
        path = write_scenario(tmp_path, unitary_c2_scenario())
        assert main([path, "defect", "--zeta", "0.3", "0.2"]) == 0
        written = capsys.readouterr().out
        assert written == json.dumps(strict_loads(written), indent=2) + "\n"
        report = strict_loads(written)
        assert report["dim_n"] == 0 and report["n_basis"] == [[], []]
        assert main([write_scenario(tmp_path, e1_scenario()), "defect", "--zeta", "inf", "0"]) == 0
        written = capsys.readouterr().out
        assert "-0.0" in written
        assert written == json.dumps(strict_loads(written), indent=2) + "\n"


EIGEN_ANGLE = 2 * math.pi - 1.0


def eigenvector_scenario():
    """V e1 = e^{i} e1 in C^6, isometric on span(e1..e4): the regular-type
    hypothesis fails at lam = e^{-i}, angle EIGEN_ANGLE."""
    rng = np.random.default_rng(2)
    image = np.zeros((6, 4), dtype=complex)
    image[0, 0] = np.exp(1j)
    image[1:, 1:] = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
    columns = lambda b: [[[x.real, x.imag] for x in col] for col in b.T]
    return {
        "ambient_dim": 6,
        "domain_basis": columns(np.eye(6)[:, :4]),
        "image_basis": columns(image),
        "z0": [0.0, 0.0],
        "family": {"kind": "constant", "matrix": [[[0.0, 0.0]] * 2] * 2},
    }


def blaschke_scenario():
    """random_scenario(9, 6) at z0 = 0.25 - 0.1i with the Blaschke family
    b(zeta) U0, a = -0.2 + 0.4i, for a fixed 3 x 3 unitary U0."""
    doc = random_scenario(9, 6, (0.25, -0.1), seed=7)
    rng = np.random.default_rng(9)
    u0 = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    doc["family"] = {"kind": "blaschke", "a": [-0.2, 0.4], "matrix": [[[x.real, x.imag] for x in row] for row in u0]}
    return doc


class TestShortcutsKeepBytes:
    """The structural shortcuts change no byte: every command writes the same
    files with the same exit code as with all of them defeated, that is a
    fresh frame per request, an SVD per inverse, a regular-type SVD per arc
    sample (the floor carried along the arc ignored), the M-space projection
    condition taken from an explicit SVD instead of q_min, and sigma_direct
    from an SVD per arc sample instead of the spectrum of a constant
    unitary T.

    :meth:`DefectFrame.of` is the only route to a frame, so "a fresh frame
    per request" covers every consumer: parsing, ``arc_scan``,
    ``ResolventFn``, ``validate_family`` and the property suite.

    The spectrum of a constant unitary T is the one shortcut that moves
    digits: it moves sigma_direct within its proven band and nothing else
    (:class:`TestArcSpectrumBytes`).  No parameter below is unitary, so it
    stays unused here."""

    @staticmethod
    def run(tmp_path, capsys, path, command):
        out = tmp_path / "report.json"
        code = main([path, *command, "--out", str(out)])
        captured = capsys.readouterr()
        written = {}
        for f in sorted(tmp_path.glob("report.json*")):
            written[f.name] = f.read_bytes()
            f.unlink()
        return code, captured.out, captured.err, written

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(e1_scenario(0.5, z0=(0.3, 0.1)), id="e1-z0"),
            pytest.param(random_scenario(16, 12, seed=11), id="n16"),
            pytest.param(random_scenario(9, 6, (-0.2, 0.35), seed=4), id="n9-z0"),
            pytest.param(eigenvector_scenario(), id="eig-mid"),
            pytest.param(random_scenario(8, 5, (0.2, 0.1), seed=3, toler={"eps_rank": 1e-10}), id="toler-z0"),
            pytest.param(blaschke_scenario(), id="blaschke-z0"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["resolvent", "--grid", "3"],
            ["resolvent", "--zeta", "0.5", "0.1"],
            ["resolvent", "--zeta", "-1.5", "2.0"],
            ["gap-scan", "--arc", "0.5", "2.5", "--samples", "5"],
            ["gap-scan", "--arc", repr(EIGEN_ANGLE - 0.5), repr(EIGEN_ANGLE + 0.5), "--samples", "9"],
            ["verify", "--seed", "3"],
        ],
        ids=lambda c: "-".join(c[:2]) + ("-ext" if "-1.5" in c else "") + ("-dip" if "9" in c else ""),
    )
    def test_same_bytes_without_shortcuts(self, tmp_path, capsys, monkeypatch, scenario, command):
        path = write_scenario(tmp_path, scenario, "scenario.in")
        shipped = self.run(tmp_path, capsys, path, command)
        assert shipped[3]

        used = {"fresh frames": 0, "inverses": 0, "M-space SVDs": 0}

        def fresh(cls, v, z0=0j, tol=DEFAULT_TOL):
            used["fresh frames"] += 1
            return cls(v, z0, tol)

        original = numerics.guarded_inverse

        def no_floor(m, tol=DEFAULT_TOL, context="", floor=0.0):
            used["inverses"] += 1
            return original(m, tol, context)

        def svd_pm(frame, points, q_min):
            used["M-space SVDs"] += len(points)
            m_dst = frame.reflected.m.basis.conj().T
            return np.array([sigma_min(m_dst @ defect_spaces(frame.v, lam, frame.tol).m.basis) for lam in points])

        monkeypatch.setattr(DefectFrame, "of", classmethod(fresh))
        for module in (numerics, extensions, resolvents):
            monkeypatch.setattr(module, "guarded_inverse", no_floor)
        monkeypatch.setattr(gap._RegularFloor, "clears", lambda self, s, tol: False)
        monkeypatch.setattr(gap, "_sigma_pm", svd_pm)
        monkeypatch.setattr(gap._ArcSpectrum, "of", classmethod(lambda cls, frame, fam: None))
        defeated = self.run(tmp_path, capsys, path, command)
        assert used["fresh frames"]
        assert used["inverses"] or command[0] == "gap-scan"  # no inverse in a scan at z0 = 0
        assert used["M-space SVDs"] or command[0] == "resolvent" or defeated[0] == 2
        assert defeated == shipped


def unitary_scenario(doc, seed=0):
    """``doc`` with its constant parameter replaced by a random unitary one."""
    k = len(doc["family"]["matrix"])
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    doc["family"]["matrix"] = [[[x.real, x.imag] for x in row] for row in u]
    return doc


class TestArcSpectrumBytes:
    """gap-scan of a constant unitary parameter reads sigma_direct off one
    eigensolve of T.  With that shortcut defeated (an SVD per sample) every
    file, exit code and stderr byte is the same, except the sigma_direct
    values, which agree within the spectrum's band: its proven bound delta
    plus roundoff."""

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(e1_scenario(), id="e1"),
            pytest.param(e1_scenario(-1j, z0=(0.3, 0.1)), id="e1-z0"),
            pytest.param(unitary_scenario(random_scenario(9, 6, seed=4), 1), id="n9"),
            pytest.param(unitary_scenario(random_scenario(16, 12, (-0.2, 0.35), seed=11), 2), id="n16-z0"),
            pytest.param(unitary_scenario(random_scenario(64, 60, seed=6), 3), id="n64"),
            pytest.param(unitary_scenario(eigenvector_scenario(), 4), id="eig"),
            pytest.param(
                unitary_scenario(random_scenario(8, 5, (0.2, 0.1), seed=3, toler={"eps_rank": 1e-10}), 5),
                id="toler-z0",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "arc",
        [(0.5, 2.5, 5), (EIGEN_ANGLE - 0.5, EIGEN_ANGLE + 0.5, 9), (0.0, 2 * math.pi, 40)],
        ids=["arc", "dip", "circle"],
    )
    def test_same_bytes_but_sigma_direct(self, tmp_path, capsys, monkeypatch, scenario, arc):
        path = write_scenario(tmp_path, scenario, "scenario.in")
        command = ["gap-scan", "--arc", repr(arc[0]), repr(arc[1]), "--samples", str(arc[2])]
        shipped = TestShortcutsKeepBytes.run(tmp_path, capsys, path, command)
        with monkeypatch.context() as m:
            m.setattr(gap._ArcSpectrum, "of", classmethod(lambda cls, frame, fam: None))
            defeated = TestShortcutsKeepBytes.run(tmp_path, capsys, path, command)
        assert shipped[:3] == defeated[:3]
        parsed = parse_scenario(json.dumps(scenario))
        fam = parsed.family
        spectrum = gap._ArcSpectrum.of(DefectFrame.of(parsed.operator, fam.z0, parsed.tol), fam)
        assert spectrum is not None
        report, reference = (strict_loads(run[3]["report.json"].decode()) for run in (shipped, defeated))
        for sample, ref in zip(report.get("samples", []), reference.get("samples", []), strict=True):
            assert abs(sample["sigma_direct"] - ref["sigma_direct"]) <= spectrum.band
            ref["sigma_direct"] = sample["sigma_direct"]
        assert shipped[3]["report.json"] == (json.dumps(reference, indent=2) + "\n").encode()


class TestGridMirrors:
    """``resolvent --grid`` writes at each mirror 1/conj(z) the value
    E - R(z)^H of the interior value R(z), token for token."""

    @staticmethod
    def grid_report(tmp_path, doc, count):
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "report.json"
        assert main([path, "resolvent", "--grid", str(count), "--out", str(out)]) == 0
        return out.read_text(), (tmp_path / "report.json.csv").read_text()

    @staticmethod
    def value(matrix):
        return np.array([[complex(float(re), float(im)) for re, im in row] for row in matrix])

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param(e1_scenario(), id="e1"),
            pytest.param(unitary_c2_scenario(), id="unitary-c2"),
            pytest.param(random_scenario(16, 12, (0.2, -0.1)), id="n16-z0"),
            pytest.param(blaschke_scenario(), id="blaschke-z0"),
            pytest.param(random_scenario(3, 0, (0.2, -0.1)), id="empty-domain-z0"),  # +-0.0 parts
        ],
    )
    @pytest.mark.parametrize("count", [3, 4])
    def test_mirrors_are_exact(self, tmp_path, capsys, scenario, count):
        written, csv_text = self.grid_report(tmp_path, scenario, count)
        assert written == json.dumps(strict_loads(written), indent=2) + "\n"
        assert_csv_matches_json(written, csv_text)
        points = strict_loads(written, parse_float=str)["points"]
        assert len(points) == 2 * count
        for inner, mirror in zip(points[:count], points[count:]):
            z = complex(*map(float, inner["zeta"]))
            assert list(map(float, mirror["zeta"])) == [(1 / z.conjugate()).real, (1 / z.conjugate()).imag]
            r = self.value(inner["matrix"])
            want = np.eye(len(r), dtype=complex) - r.conj().T
            assert mirror["matrix"] == [[[repr(x.real), repr(x.imag)] for x in row] for row in want.tolist()]

    @given(_square_lists)
    @settings(max_examples=100, deadline=None)
    def test_writer_mirrors_match_json_dumps(self, inner):
        """Mirrors of values with +-0.0, subnormal and huge parts, which no
        solve need produce, through the grid writer."""
        grid = [complex(0.2 * (k + 1), -0.1) for k in range(len(inner))]
        grid += [1 / z.conjugate() for z in grid]
        values = inner + [resolvents.reflect(m) for m in inner]
        report = {"points": [{"zeta": [z.real, z.imag], "matrix": m} for z, m in zip(grid, values)]}
        chunks, rows = [], []
        cli._write_report(report, chunks.append, cli._csv_rows(rows.append, grid))
        assert "".join(chunks) == json.dumps(_lists(report), indent=2) + "\n"
        assert_csv_matches_json("".join(chunks), "".join(rows))

    def test_mirror_formats_only_its_diagonal_and_zero_parts(self, tmp_path, capsys, monkeypatch):
        n = 16
        sizes = []
        original = cli._tokens

        def counted(values):
            sizes.append(values.size)
            return original(values)

        monkeypatch.setattr(cli, "_tokens", counted)
        written, _ = self.grid_report(tmp_path, random_scenario(n, 12, (0.2, -0.1)), 2)
        fresh = []
        for point in strict_loads(written)["points"][2:]:
            m = self.value(point["matrix"])
            fresh += [n + int(np.sum((m.real == 0) & ~np.eye(n, dtype=bool))), int(np.sum(m.imag == 0))]
        assert sizes == [n * n] * 4 + fresh


# A leading space keeps argparse from reading a negative number such as
# "-1e-05" as an option; float() ignores it.
_flag_floats = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324, math.nan, math.inf, -math.inf]
    ),
).map(lambda x: f" {x!r}")


class TestCommandLine:
    """Every argument list ends in a documented exit code: a float in any
    spelling is a value that reaches its flag's check, and a usage error is
    an input error (exit 1) with one ``error:`` line."""

    @staticmethod
    def run(tmp_path, capsys, *argv):
        code = main([write_scenario(tmp_path, e1_scenario(0.5)), *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_negative_exponent_zeta_is_a_value(self, tmp_path, capsys):
        code, out, err = self.run(tmp_path, capsys, "resolvent", "--zeta", "-1e-3", "0.5")
        assert (code, err) == (0, "")
        assert strict_loads(out)["zeta"] == [-0.001, 0.5]

    def test_negative_infinity_is_the_range_pair_or_an_input_error(self, tmp_path, capsys):
        code, out, _ = self.run(tmp_path, capsys, "defect", "--zeta", "-inf", "0")
        assert code == 0 and strict_loads(out)["zeta"] == "INF"
        assert self.run(tmp_path, capsys, "resolvent", "--zeta", "-inf", "0") == (1, "", "error: --zeta must be finite\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gap-scan", "--arc", "-1e-3", "1"], "arc must satisfy 0 <= t1 < t2 <= 2*pi"),
            (["gap-scan", "--arc", "0.5", "1", "--continuity-bound", "-1e-300"], "--continuity-bound must be a finite nonnegative number"),
            (["defect", "--zeta", "-nan", "0"], "--zeta takes numbers"),
            (["resolvent", "--zeta", "0.1"], "argument --zeta: expected 2 arguments"),
            (["gap-scan", "--arc", "0.5", "1", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
            (["defect", "--bogus"], "unrecognized arguments: --bogus"),
            (["bogus"], "argument command: invalid choice"),
            ([], "the following arguments are required: command"),
        ],
        ids=["arc", "bound", "nan", "missing-value", "bad-int", "unknown-flag", "bad-command", "no-command"],
    )
    def test_input_errors_exit_one_with_one_line(self, tmp_path, capsys, argv, message):
        code, out, err = self.run(tmp_path, capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: isoresolvent")


class TestArgumentFuzz:
    @given(
        command=st.sampled_from(["defect", "resolvent", "gap-scan", "bound"]),
        a=_flag_floats,
        b=_flag_floats,
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_exit_codes(self, tmp_path, capsys, command, a, b):
        path = write_scenario(tmp_path, e1_scenario(0.5))
        argv = {
            "defect": [path, "defect", "--zeta", a, b],
            "resolvent": [path, "resolvent", "--zeta", a, b],
            "gap-scan": [path, "gap-scan", "--arc", a, b, "--samples", "5"],
            "bound": [path, "gap-scan", "--arc", "0.5", "2.5", "--samples", "5", "--continuity-bound", a],
        }[command]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if captured.out:
            strict_loads(captured.out)
        if code == 1:
            assert captured.err.splitlines()[-1].startswith("error: ")


# Scenario documents: a valid base with some fields replaced by arbitrary
# JSON, by well-shaped numeric arrays of the wrong size or value, or deleted.
_DELETE = object()
_json_numbers = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.floats(),
    st.sampled_from([0.5, -0.5, 1e308, -1e308, 5e-324, 1e-300, 1e-12, 2.0**-1074]),
)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _json_numbers, st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=16,
)
_pairs = st.lists(_json_numbers, min_size=2, max_size=2)
_pair_arrays = st.lists(st.lists(_pairs, max_size=4), max_size=4)
_FIELDS = (
    "ambient_dim", "domain_basis", "image_basis", "z0", "family", "toler",
    "family.kind", "family.matrix", "family.a", "family.points", "family.points.0.zeta",
    "family.points.0.matrix", "toler.eps_rank", "toler.eps_eq", "toler.eps_unit",
)


def _fuzz_bases():
    blaschke = e1_scenario(z0=(0.2, -0.1))
    blaschke["family"] = {"kind": "blaschke", "a": [0.3, 0.1], "matrix": [[[0.0, 1.0]]]}
    table = e1_scenario()
    table["family"] = {
        "kind": "table",
        "points": [{"zeta": [math.cos(t), math.sin(t)], "matrix": [[[1.0, 0.0]]]} for t in (0.5 + k / 3 for k in range(1, 4))],
    }
    return [e1_scenario(0.5), e1_scenario(1.0, z0=(0.3, 0.1), toler={"eps_rank": 1e-12}), blaschke, table,
            random_scenario(4, 2, (0.1, 0.2), seed=1)]


_FUZZ_BASES = _fuzz_bases()


def _mutate(doc, path, value):
    """Set (or with _DELETE remove) the field at a dotted path, when it exists."""
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        if isinstance(node, list) and key.isdigit() and int(key) < len(node):
            node = node[int(key)]
        elif isinstance(node, dict) and key in node:
            node = node[key]
        else:
            return
    if not isinstance(node, dict):
        return
    if value is _DELETE:
        node.pop(last, None)
    else:
        node[last] = value


@st.composite
def _scenario_texts(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(st.binary(max_size=12), _json_values.map(json.dumps)))
    doc = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        value = draw(st.one_of(_json_values, _pairs, _pair_arrays, st.just(_DELETE)))
        _mutate(doc, draw(st.sampled_from(_FIELDS)), value)
    return json.dumps(doc)


class TestScenarioFuzz:
    """Any scenario file ends in a documented exit code with at most one
    ``error:`` line on stderr and strict JSON on stdout, never a traceback."""

    @given(
        text=_scenario_texts(),
        command=st.sampled_from(
            [
                ["defect", "--zeta", "0.3", "0.2"],
                ["resolvent", "--zeta", "0.5", "-0.1"],
                ["resolvent", "--zeta", "-1.5", "2.0"],
                ["resolvent", "--grid", "2", "--out"],
                ["gap-scan", "--arc", "0.5", "2.5", "--samples", "3", "--continuity-bound", "1.0"],
            ]
        ),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_on_arbitrary_scenarios(self, tmp_path, capsys, text, command):
        path = tmp_path / "fuzz.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "fuzz-report.json"
        argv = [str(path), *command] + ([str(out)] if command[-1] == "--out" else [])
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
        if captured.out:
            strict_loads(captured.out)
        if out.exists():
            strict_loads(out.read_text())
        if code == 1:
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        else:
            assert captured.err == ""

    @pytest.mark.parametrize("z0", [(5e-324, 5e-324), (0.0, 3e-309)])
    @pytest.mark.parametrize("command", [["resolvent", "--zeta", "0.5", "-0.1"], ["verify"]])
    def test_base_point_with_overflowing_reflection(self, tmp_path, capsys, z0, command):
        # 1/conj(z0) is not a float: an input error with one line on stderr,
        # no numpy overflow warnings from the formulas that divide by z0.
        code = main([write_scenario(tmp_path, e1_scenario(0.5, z0=z0)), *command])
        assert code == 1
        assert capsys.readouterr().err == "error: base point is so small that 1/conj(z0) leaves the float range\n"

    @pytest.mark.parametrize(
        "column",
        [
            [[1.5086297419420916e294, -879.0], [0, 0]],  # Gram entry inf
            [[1e200, 1e200], [1e200, -1e200]],  # Gram entry NaN: inf - inf
        ],
    )
    def test_basis_whose_gram_matrix_overflows(self, tmp_path, capsys, column):
        # The Gram matrix overflows: no numpy warning may reach stderr, and a
        # NaN residual (the second basis) must not pass as "not above eps_unit".
        doc = e1_scenario(0.5)
        doc["domain_basis"] = [column]
        assert main([write_scenario(tmp_path, doc), "defect"]) == 1
        assert capsys.readouterr().err == "error: domain basis is not orthonormal (Gram residual inf)\n"
