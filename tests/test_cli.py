"""Command-line interface: subcommands, exit codes, and report stability."""

import json

import numpy as np
import pytest

from quadineq import __version__
from quadineq.cli import main

SQUARE_JSON = '{"points": [[0,0],[1,0],[1,1],[0,1]]}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_square_reports_residual_two(capsys):
    code, out, _ = run(capsys, ["eval", "--points", SQUARE_JSON])
    assert code == 0
    doc = json.loads(out)
    for path in ("edge", "expanded", "lemma"):
        assert abs(doc["residual"][path] - 2.0) <= 1e-12
    assert doc["sign_resolution"] == "plus"
    assert doc["version"]
    assert doc["audit"]["pass"] is True


def test_eval_accepts_frame_input(capsys):
    frame = '{"frame": {"p": [0.25, 0.25, 0.25, 0.25], "w": 1.5707963267948966}}'
    code, out, _ = run(capsys, ["eval", "--frame", frame])
    assert code == 0
    doc = json.loads(out)
    # the unit square scaled by sqrt(2)/4, so the residual is 2 * (sqrt2/4)^6
    assert abs(doc["residual"]["edge"] - 1.0 / 256.0) < 1e-12


def test_eval_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, ["eval"])
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, ["eval", "--points", SQUARE_JSON,
                                "--frame", "{}"])
    assert code == 2


def test_eval_reports_malformed_json_with_location(capsys):
    code, _, err = run(capsys, ["eval", "--points", '{"points": [[0,0],'])
    assert code == 2
    assert "line" in err and "column" in err


def test_eval_rejects_nonconvex_input(capsys):
    bad = '{"points": [[0,0],[1,1],[2,2],[0,1]]}'
    code, _, err = run(capsys, ["eval", "--points", bad])
    assert code == 2 and "invalid configuration" in err


def test_eval_file_input(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(SQUARE_JSON)
    code, out, _ = run(capsys, ["eval", "--points", f"@{path}"])
    assert code == 0


def test_audit_exit_zero_and_byte_identical(capsys):
    argv = ["audit", "--samples", "500", "--seed", "1", "--tol", "1e-9"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["audit"]["pass"] is True
    assert doc["config"]["samples"] == 500
    assert doc["sign_resolution"] == "plus"


def test_audit_csv_format(capsys):
    code, out, _ = run(capsys, ["audit", "--samples", "200", "--seed", "2",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("check,kind,")
    assert any("mult2-sign-resolution" in line for line in lines)


def test_certify_and_check_cert_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, ["certify", "--margin", "0.18", "--target", "0",
                                "--max-boxes", "100000",
                                "--out", str(cert_path)])
    assert code == 0
    summary = json.loads(out)
    assert summary["complete"] is True and summary["c_star"] > 0.0

    code, out, _ = run(capsys, ["check-cert", str(cert_path)])
    assert code == 0
    assert json.loads(out)["verified"] is True

    doc = json.loads(cert_path.read_text())
    doc["leaves"][0]["lower_bound"] += 1.0
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["check-cert", str(bad_path)])
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_check_cert_rejects_nan_target(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["certify", "--margin", "0.2", "--out", str(cert_path)])
    assert code == 0
    doc = json.loads(cert_path.read_text())
    doc["target"] = float("nan")
    bad_path = tmp_path / "nan_target.json"
    bad_path.write_text(json.dumps(doc))  # writes the bare literal NaN
    assert "NaN" in bad_path.read_text()
    code, _, err = run(capsys, ["check-cert", str(bad_path)])
    assert code == 2 and "malformed certificate" in err


def test_check_cert_rejects_old_version(tmp_path, capsys):
    from quadineq import __version__
    # the 0.1.0 format listed every leaf box instead of the tree
    box = {dim: [0.2, 0.4] for dim in ("p1", "p2", "p3", "p4")}
    box["w"] = [0.6283185307179586, 2.5132741228718345]
    doc = {"version": "0.1.0", "margin": 0.2, "gauge": "psum1", "target": 0.0,
           "complete": False, "c_star": -0.5, "box_count": 1,
           "split_rule": "bisect-widest:p1,p2,p3,p4,w",
           "leaves": [{"box": box, "lower_bound": -0.5}]}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and "'0.1.0'" in err and f"'{__version__}'" in err


def test_check_cert_rejects_an_unknown_symmetry(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["certify", "--margin", "0.2", "--out", str(cert_path)])
    assert code == 0
    doc = json.loads(cert_path.read_text())
    assert doc["symmetry"] == "dihedral-8:cut p1>=p2,p1>=p3,p1>=p4,p2>=p4"
    doc["symmetry"] = "none"  # the same tree claimed over the whole domain
    bad_path = tmp_path / "no_cut.json"
    bad_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["check-cert", str(bad_path)])
    assert code == 2 and "malformed certificate" in err and "symmetry" in err


def test_check_cert_missing_file(capsys):
    code, _, err = run(capsys, ["check-cert", "/nonexistent/cert.json"])
    assert code == 2 and "cannot read" in err


def test_check_cert_rejects_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"hello": 1}')
    code, _, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and "malformed certificate" in err


def test_certify_refuses_csv(capsys):
    code, _, err = run(capsys, ["certify", "--format", "csv"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--target", "inf"], ["--target", "nan"], ["--target", "-1"],
    ["--margin", "0.3"], ["--margin", "nan"], ["--max-boxes", "0"],
], ids=["target-inf", "target-nan", "target-negative", "margin-too-wide",
        "margin-nan", "no-boxes"])
def test_certify_rejects_bad_arguments(tmp_path, capsys, argv):
    # a small budget keeps a run that wrongly accepts its arguments short
    cert_path = tmp_path / "cert.json"
    argv = ["certify", "--margin", "0.2", "--max-boxes", "10",
            "--out", str(cert_path)] + argv
    code, out, err = run(capsys, argv)
    assert code == 2 and err.startswith("error: ") and out == ""
    assert not cert_path.exists()


def test_certify_reports_a_margin_too_fine_for_the_enclosures(capsys):
    # at margin 1e-8 the root box's lengths touch zero, so no enclosure forms
    code, out, err = run(capsys, ["certify", "--margin", "1e-8", "--max-boxes", "10"])
    assert code == 2 and out == ""
    assert err.startswith("error: margin 1e-08 ") and "touches zero" in err


def test_check_cert_rejects_a_leaf_without_an_enclosure(tmp_path, capsys):
    doc = {"version": __version__, "margin": 1e-8, "gauge": "psum1",
           "target": 0.0, "complete": False, "c_star": -1.0, "box_count": 1,
           "split_rule": "bisect-widest:p1,p2,p3,p4,w", "tree": "L",
           "leaves": [{"lower_bound": -1.0}]}
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["check-cert", str(path)])
    assert code == 1 and json.loads(out)["verified"] is False


@pytest.mark.parametrize("argv", [
    ["search", "--margin", "0.5"], ["search", "--starts", "0"],
    ["search", "--budget", "-1"], ["audit", "--margin", "0.5"],
    ["audit", "--samples", "0"], ["audit", "--samples", "-5"],
    ["audit", "--tol", "nan"], ["eval", "--tol", "nan", "--points", SQUARE_JSON],
], ids=["search-margin-too-wide", "search-no-starts", "search-negative-budget",
        "audit-margin-too-wide", "audit-no-samples", "audit-negative-samples",
        "audit-tol-nan", "eval-tol-nan"])
def test_audit_search_and_eval_reject_bad_arguments(tmp_path, capsys, argv):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, argv + ["--out", str(out_path)])
    assert code == 2 and err.startswith("error: ") and out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["--margin", "0.05", "0.5"], ["--margin", "0.05", "nan"],
    ["--margin", "0.05", "0.005", "--budget", "-1"],
], ids=["later-margin-too-wide", "later-margin-nan", "negative-budget"])
def test_search_checks_every_argument_before_the_first_descent(capsys, monkeypatch, argv):
    from quadineq import search

    calls = []
    real = search.metrics_from_frames

    def counting(p, w):
        calls.append(len(w))
        return real(p, w)

    monkeypatch.setattr(search, "metrics_from_frames", counting)
    code, out, err = run(capsys, ["search", "--starts", "256"] + argv)
    assert code == 2 and err.startswith("error: ") and out == ""
    assert calls == []


def test_search_exit_zero_and_trend(capsys):
    code, out, _ = run(capsys, ["search", "--seed", "7", "--starts", "8",
                                "--budget", "400",
                                "--margin", "0.05", "0.01"])
    assert code == 0
    doc = json.loads(out)
    assert doc["best_values"][1] < doc["best_values"][0]
    assert doc["genuine_counterexamples"] == 0


def test_search_csv_trajectories(capsys):
    code, out, _ = run(capsys, ["search", "--seed", "3", "--starts", "4",
                                "--budget", "200", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("margin,start,")
    assert len(lines) == 5


def test_usage_error_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_report_written_to_out_path(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["audit", "--samples", "100", "--seed", "3",
                                "--out", str(out_path)])
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["command"] == "audit"


def test_audit_with_a_nan_row_reports_failure_with_exit_one(capsys, monkeypatch):
    from quadineq import kernel

    real = kernel.metrics_from_frames

    def one_nan_row(p, w):
        w = w.copy()
        w[0] = float("nan")
        return real(p, w)

    monkeypatch.setattr(kernel, "metrics_from_frames", one_nan_row)
    with np.errstate(invalid="ignore"):
        code, out, _ = run(capsys, ["audit", "--samples", "300", "--seed", "4"])
    assert code == 1
    doc = json.loads(out)
    assert doc["audit"]["pass"] is False
    check = doc["audit"]["checks"][0]
    assert check["nonfinite"] == 1 and check["max_err"] < 1e-9
