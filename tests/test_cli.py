import json
import math

import numpy as np
import pytest

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
        rng = np.random.default_rng(5)
        n, d = 6, 3
        dom, img = (
            np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0][:, :d]
            for _ in range(2)
        )
        columns = lambda b: [[[x.real, x.imag] for x in col] for col in b.T]
        doc = {
            "ambient_dim": n,
            "domain_basis": columns(dom),
            "image_basis": columns(img),
            "z0": z0,
            "family": {"kind": "constant", "matrix": [[[0.0, 0.0]] * (n - d)] * (n - d)},
            "toler": {"eps_eq": 1e-300},
        }
        path = write_scenario(tmp_path, doc)
        assert main([path, *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if z0 == [0.0, 0.0]:
            assert "does not extend V" in err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/scenario.json", "defect"]) == 1

    def test_report_written_to_out(self, tmp_path, capsys):
        path = write_scenario(tmp_path, e1_scenario())
        out_path = tmp_path / "defect.json"
        code = main([path, "defect", "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["command"] == "defect"
        assert capsys.readouterr().out == ""
