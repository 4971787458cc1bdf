import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isoresolvent import cli
from isoresolvent.cli import ScenarioError, main, parse_scenario


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
        doc = e1_scenario()
        doc["domain_basis"] = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        doc["image_basis"] = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        doc["family"]["matrix"] = []
        path = write_scenario(tmp_path, doc)
        assert main([path, "defect", "--zeta", "0.3", "0.2"]) == 0
        written = capsys.readouterr().out
        assert written == json.dumps(strict_loads(written), indent=2) + "\n"
        report = strict_loads(written)
        assert report["dim_n"] == 0 and report["n_basis"] == [[], []]
        assert main([write_scenario(tmp_path, e1_scenario()), "defect", "--zeta", "inf", "0"]) == 0
        written = capsys.readouterr().out
        assert "-0.0" in written
        assert written == json.dumps(strict_loads(written), indent=2) + "\n"


# A leading space keeps argparse from reading a negative number such as
# "-1e-05" as an option; float() ignores it.
_flag_floats = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324, math.nan, math.inf, -math.inf]
    ),
).map(lambda x: f" {x!r}")


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
