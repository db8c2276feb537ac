"""Command-line interface: subcommands, exit codes, and report stability."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from packings import BAD_PACKINGS
from quadineq import __version__, cli
from quadineq.certifier import MalformedCertificate, _pack, verify_certificate
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


def test_package_version_matches_pyproject():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', text, re.M).group(1) == __version__


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


SQUARE_FRAME = '{"p": [0.25, 0.25, 0.25, 0.25], "w": 1.5707963267948966}'


@pytest.mark.parametrize("option, bare, wrapped", [
    ("--points", "[[0,0],[1,0],[1,1],[0,1]]", SQUARE_JSON),
    ("--frame", SQUARE_FRAME, '{"frame": %s}' % SQUARE_FRAME),
], ids=["points", "frame"])
def test_eval_reads_the_bare_and_the_wrapped_form_alike(capsys, option, bare, wrapped):
    # the reports differ only in the config, which records the text given
    reports, tables = [], []
    for text in (bare, wrapped):
        code, out, _ = run(capsys, ["eval", option, text])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"][option[2:]] == text
        del doc["config"]
        reports.append(doc)
        code, out, _ = run(capsys, ["eval", option, text, "--format", "csv"])
        assert code == 0
        tables.append(out)
    assert reports[0] == reports[1]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("option, text", [
    *[(option, text) for option in ("--points", "--frame")
      for text in ("", "5", "null", "true")],
    ("--frame", SQUARE_JSON),
    ("--points", '{"frame": %s}' % SQUARE_FRAME),
], ids=["points-empty", "points-number", "points-null", "points-boolean",
        "frame-empty", "frame-number", "frame-null", "frame-boolean",
        "frame-given-points", "points-given-frame"])
def test_eval_reads_only_the_configuration_its_flag_names(capsys, option, text):
    code, out, err = run(capsys, ["eval", option, text])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


BIG = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("points", [
    "[[0,0],[1,0],[1,1],5]", '[["a",0],[1,0],[1,1],[0,1]]', "[[0,0],[1,0],[1,1],[0]]",
    "[[0,0],[1,0],[1,1],[0,1,2]]", "[[0,0],[1,0],[1,1],[true,1]]",
    '[[0,0],[1,0],[1,1],"01"]', "[[0,0],[1,0],[1,1],[null,1]]",
    "[[0,0],[1,0],[1,1],[0,%s]]" % BIG,
], ids=["number", "string-coordinate", "one-coordinate", "three-coordinates",
        "boolean-coordinate", "string-vertex", "null-coordinate", "too-large-coordinate"])
def test_eval_rejects_a_vertex_that_is_not_two_numbers(capsys, points):
    code, out, err = run(capsys, ["eval", "--points", points])
    assert code == 2 and out == ""
    assert "invalid configuration" in err and "not a pair of numbers" in err


@pytest.mark.parametrize("option, text", [
    ("--frame", '{"frame": {"p": ["0.25", "0.25", "0.25", true], "w": true}}'),
    ("--frame", '{"frame": {"p": [0.25, 0.25, 0.25, %s], "w": 1}}' % BIG),
    ("--frame", '{"frame": {"p": [0.25, 0.25, 0.25, 0.25], "w": %s}}' % BIG),
    ("--frame", '{"frame": {"p": "1234", "w": 1}}'),
    ("--points", "[[0,0],[1,0],[1,1],[0,1%s]]" % ("0" * 5000)),
], ids=["frame-strings-and-booleans", "frame-p-too-large", "frame-w-too-large",
        "frame-p-string", "more-digits-than-python-reads"])
def test_eval_rejects_a_number_that_is_not_a_finite_float(capsys, option, text):
    code, out, err = run(capsys, ["eval", option, text])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_eval_rejects_coordinates_whose_squared_diameter_overflows(capsys):
    points = "[[0,0],[1e300,0],[1e300,1e300],[0,1e300]]"
    code, out, err = run(capsys, ["eval", "--points", points])
    assert code == 2 and out == ""
    assert "invalid configuration" in err and "diameter" in err


@pytest.mark.parametrize("scale", ["1e100", "1e150", "1e-53", "1e-60", "1e-150"])
def test_eval_rejects_coordinates_whose_degree_six_terms_overflow(capsys, scale):
    # the squared diameter fits a float, the edge terms do not; at the small
    # scales abcdef underflows below the smallest normal float
    points = "[[0,0],[{0},0],[{0},{0}],[0,{0}]]".format(scale)
    code, out, err = run(capsys, ["eval", "--points", points, "--format", "csv"])
    assert code == 2 and out == ""
    first = "e12 is inf " if float(scale) > 1.0 else "abcdef is "
    assert err.startswith("error: " + first) and "do not fit a float" in err
    assert "Warning" not in err


def test_eval_accepts_a_small_square_whose_degree_six_terms_are_normal(capsys):
    code, out, _ = run(capsys, ["eval", "--points", "[[0,0],[1e-50,0],[1e-50,1e-50],[0,1e-50]]"])
    assert code == 0
    assert json.loads(out)["audit"]["pass"] is True


def test_eval_csv_cell_is_the_json_float(capsys):
    code, out, _ = run(capsys, ["eval", "--points", SQUARE_JSON])
    assert code == 0
    edge = json.loads(out)["residual"]["edge"]
    code, out, _ = run(capsys, ["eval", "--points", SQUARE_JSON, "--format", "csv"])
    assert code == 0
    cells = dict(row for row in csv.reader(io.StringIO(out)))
    assert float(cells["residual.edge"]) == edge


# eval's metrics in report order: the lengths and areas, then the angles
METRIC_ORDER = ["a", "b", "c", "d", "e", "f", "A123", "A124", "A134", "A234",
                "alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3",
                "beta4", "gamma1", "gamma2", "gamma3", "gamma4", "X", "Y", "W", "Wp"]


def test_eval_reports_lengths_and_areas_then_the_angles(capsys):
    code, out, _ = run(capsys, ["eval", "--points", SQUARE_JSON])
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert len(metrics) == len(METRIC_ORDER) and set(metrics) == set(METRIC_ORDER)
    code, out, _ = run(capsys, ["eval", "--points", SQUARE_JSON, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["quantity", "value"]
    assert [row[0] for row in rows[1:len(METRIC_ORDER) + 1]] == METRIC_ORDER
    assert rows[len(METRIC_ORDER) + 1][0] == "edge_terms.e12"
    assert all(float(row[1]) == metrics[row[0]] for row in rows[1:len(METRIC_ORDER) + 1])


# each command's arguments, its config keys and its other report fields
ENVELOPE_CASES = {
    "eval": (["--points", SQUARE_JSON], {"points", "frame", "tol", "format"},
             {"input", "frame", "metrics", "edge_terms", "residual", "audit"}),
    "audit": (["--samples", "20"], {"samples", "seed", "tol", "margin", "strategy", "format"},
              {"audit"}),
    "certify": (["--margin", "0.2"], {"margin", "target", "max_boxes", "out"},
                {"complete", "c_star", "box_count", "leaves", "certificate"}),
    "check-cert": ([], {"certificate"},
                   {"verified", "margin", "c_star", "complete", "leaves"}),
    "search": (["--starts", "2", "--budget", "20"], {"seed", "starts", "budget", "format"},
               {"margins", "runs", "best_values", "counterexample_candidates",
                "genuine_counterexamples"}),
}


@pytest.mark.parametrize("command", list(ENVELOPE_CASES))
def test_every_report_carries_the_shared_envelope(tmp_path, capsys, command):
    argv, config, body = ENVELOPE_CASES[command]
    if command == "check-cert":
        cert_path = tmp_path / "cert.json"
        assert run(capsys, ["certify", "--margin", "0.2", "--out", str(cert_path)])[0] == 0
        argv = [str(cert_path)]
    code, out, _ = run(capsys, [command, *argv])
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == __version__ and doc["command"] == command
    assert set(doc["config"]) == config
    assert doc["sign_resolution"] == "plus"
    assert set(doc) == {"version", "command", "config", "sign_resolution"} | body


def test_certify_check_cert_and_search_report_the_sign_without_an_audit(tmp_path, capsys,
                                                                       monkeypatch):
    # the sign is proved (tests/test_trig_identities.py), not sampled per report
    from quadineq import search

    def no_audit(*args, **kwargs):
        raise AssertionError("an audit ran")

    monkeypatch.setattr(cli, "audit_samples", no_audit)
    monkeypatch.setattr(search, "audit", no_audit)
    cert_path = tmp_path / "cert.json"
    for argv in (["certify", "--margin", "0.2", "--out", str(cert_path)],
                 ["check-cert", str(cert_path)],
                 ["search", "--starts", "2", "--budget", "20"]):
        code, out, _ = run(capsys, argv)
        assert code == 0, argv
        assert json.loads(out)["sign_resolution"] == "plus", argv


def test_eval_report_is_json_when_the_input_holds_a_newline(capsys):
    code, out, _ = run(capsys, ["eval", "--points", "[[0,0],\n[1,0],[1,1],[0,1]]"])
    assert code == 0
    assert json.loads(out)["config"]["points"] == "[[0,0],\n[1,0],[1,1],[0,1]]"


def test_check_cert_rejects_an_integer_longer_than_python_reads(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"margin": 1%s}' % ("0" * 5000))
    code, out, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and out == ""
    assert "malformed JSON" in err


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


def test_audit_point_rejection_passes(capsys):
    code, out, _ = run(capsys, ["audit", "--samples", "50", "--strategy", "point-rejection"])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["pass"] is True and doc["audit"]["samples"] == 50


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
    doc["c_star"] = 10.0 * doc["c_star"] + 1.0
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["check-cert", str(bad_path)])
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_certify_without_out_embeds_the_certificate_it_would_write(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["certify", "--margin", "0.2", "--out", str(cert_path)])
    assert code == 0
    code, out, _ = run(capsys, ["certify", "--margin", "0.2"])
    assert code == 0
    embedded = json.loads(out)["certificate"]
    assert embedded == json.loads(cert_path.read_text())
    assert verify_certificate(embedded) is True


def test_certify_help_says_out_takes_the_certificate(capsys):
    # `certify --out` writes the certificate; the summary stays on stdout
    code, out, _ = run(capsys, ["certify", "--help"])
    assert code == 0
    help_text = " ".join(out.split())
    assert "--out OUT write the certificate to this path; the summary goes to stdout" \
        in help_text
    assert "report" not in help_text
    code, out, _ = run(capsys, ["check-cert", "--help"])
    assert "--out OUT write the report to this path" in " ".join(out.split())


def _check_edited_cert(tmp_path, capsys, edit, max_boxes="1000000"):
    """check-cert of a margin-0.2 certificate with some fields replaced."""
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["certify", "--margin", "0.2", "--max-boxes", max_boxes,
                              "--out", str(cert_path)])
    assert code == (1 if max_boxes == "1" else 0)  # one box is an incomplete run
    doc = {**json.loads(cert_path.read_text()), **edit}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    return run(capsys, ["check-cert", str(bad_path)])


_BAD_MARGIN = "error: malformed certificate: margin must lie in (0, 0.2]\n"


@pytest.mark.parametrize("edit, message", [
    ({"margin": 0.3}, _BAD_MARGIN), ({"margin": 0.0}, _BAD_MARGIN),
    ({"margin": -0.1}, _BAD_MARGIN),
    ({"tree": _pack(".")}, "error: malformed certificate: empty leaf set\n"),
], ids=["margin-too-wide", "margin-zero", "margin-negative", "no-leaves"])
def test_check_cert_rejects_a_bad_margin_or_an_empty_leaf_set(tmp_path, capsys, edit,
                                                              message):
    code, out, err = _check_edited_cert(tmp_path, capsys, edit)
    assert code == 2 and out == "" and err == message


@pytest.mark.parametrize("case", BAD_PACKINGS)
def test_check_cert_refuses_a_tree_that_is_not_one_packed_stream(tmp_path, capsys, case):
    packed, reason = BAD_PACKINGS[case]
    code, out, err = _check_edited_cert(tmp_path, capsys, {"tree": packed})
    assert code == 2 and out == ""
    assert err.startswith("error: malformed certificate: ") and reason in err


@pytest.mark.parametrize("max_boxes, edit", [
    ("1000000", {"target": -5.0}), ("1000000", {"target": -1e-300}),
    # one leaf whose bound lies below zero but clears the claimed target
    ("1", {"target": -2.0}),
], ids=["target-negative", "target-negative-tiny", "one-leaf-complete-at-negative-target"])
def test_check_cert_rejects_a_target_that_certify_refuses(tmp_path, capsys, max_boxes,
                                                          edit):
    code, out, err = _check_edited_cert(tmp_path, capsys, edit, max_boxes)
    assert code == 2 and out == ""
    assert err == "error: malformed certificate: target must be finite and nonnegative\n"
    code, _, err = run(capsys, ["certify", "--margin", "0.2", f"--target={edit['target']}"])
    assert code == 2 and err == "error: target must be finite and nonnegative\n"


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


def test_check_cert_rejects_a_format_060_document(tmp_path, capsys):
    # 0.6.0 tiled the gauge plane p1+p2+p3+p4 = 1 in five coordinates and
    # recorded every leaf's bound
    doc = {"version": "0.6.0", "margin": 0.2, "gauge": "psum1", "target": 0.0,
           "complete": True, "c_star": 1e-6, "box_count": 3, "tree": "4LL",
           "leaves": [{"lower_bound": 1e-6}, {"lower_bound": 2e-6}]}
    path = tmp_path / "format_060.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and out == ""
    assert "malformed certificate" in err and "'0.6.0'" in err and f"'{__version__}'" in err


def test_check_cert_rejects_a_format_070_document(tmp_path, capsys):
    # 0.7.0 wrote the margin-0.2 tree of today with a gauge, a box count and
    # a completeness flag, which the tree and the claim now give
    code, out, _ = run(capsys, ["certify", "--margin", "0.2"])
    assert code == 0
    doc = {**json.loads(out)["certificate"], "version": "0.7.0", "gauge": "p1=1",
           "complete": True, "box_count": 75}
    path = tmp_path / "format_070.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and out == ""
    assert "malformed certificate" in err and "'0.7.0'" in err and f"'{__version__}'" in err


# the margin-0.2 document that format 0.9.0 wrote, 151 B with its newline;
# its split digits name dimensions, where later formats' name width ranks
FORMAT_090_DOCUMENT = (
    '{"c_star":5.409768255835374e-06,"margin":0.2,"target":0.0,"tree":'
    '"eJw1yoEJADAIA8GZjD/G7z9PK7YXhEAE6gobiOge5i62o8q0wWfb/x0Hl7sSnw==",'
    '"version":"0.9.0"}\n')


def test_check_cert_refuses_a_format_090_document_and_never_misreads_it(tmp_path, capsys):
    assert len(FORMAT_090_DOCUMENT.encode()) == 151
    path = tmp_path / "format_090.json"
    path.write_text(FORMAT_090_DOCUMENT)
    code, out, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and out == ""
    assert "malformed certificate" in err and "'0.9.0'" in err and f"'{__version__}'" in err
    # read as planes, its codes claim more nodes than they hold
    doc = {**json.loads(FORMAT_090_DOCUMENT), "version": __version__}
    with pytest.raises(MalformedCertificate, match="nodes need more bits"):
        verify_certificate(doc)


# the margin-0.2 document that format 0.10.0 wrote, 128 B with its newline:
# its tree deflates one byte per code, where format 0.11.0's packs bit planes
FORMAT_0100_DOCUMENT = (
    '{"c_star":5.409768255835374e-06,"margin":0.2,"target":0.0,"tree":'
    '"eJwzNEQHPoY+PhAMZML4UB4IQQGEBVMLAgCLLRJe","version":"0.10.0"}\n')


def test_check_cert_refuses_a_format_0100_document_and_never_misreads_it(tmp_path, capsys):
    assert len(FORMAT_0100_DOCUMENT.encode()) == 128
    path = tmp_path / "format_0100.json"
    path.write_text(FORMAT_0100_DOCUMENT)
    code, out, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and out == ""
    assert "malformed certificate" in err and "'0.10.0'" in err and "'0.11.0'" in err
    # read as planes, its codes claim more nodes than they hold
    doc = {**json.loads(FORMAT_0100_DOCUMENT), "version": __version__}
    with pytest.raises(MalformedCertificate, match="nodes need more bits"):
        verify_certificate(doc)


def test_check_cert_rejects_an_unknown_symmetry(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["certify", "--margin", "0.2", "--out", str(cert_path)])
    assert code == 0
    doc = json.loads(cert_path.read_text())
    assert "symmetry" not in doc  # the version names the cut
    doc["symmetry"] = "none"  # the same tree claimed over the whole domain
    bad_path = tmp_path / "no_cut.json"
    bad_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["check-cert", str(bad_path)])
    assert code == 2 and "malformed certificate" in err and "symmetry" in err


def test_check_cert_rejects_a_format_030_document(tmp_path, capsys):
    # 0.3.0 coded every split 'S' and bisected the unclipped box by a rule
    # its header named
    doc = {"version": "0.3.0", "margin": 0.2, "gauge": "psum1", "target": 0.0,
           "complete": True, "c_star": 1e-6, "box_count": 3,
           "split_rule": "bisect-widest:p1,p2,p3,p4,w",
           "symmetry": "dihedral-8:cut p1>=p2,p1>=p3,p1>=p4,p2>=p4", "tree": "SLL",
           "leaves": [{"lower_bound": 1e-6}, {"lower_bound": 2e-6}]}
    path = tmp_path / "format_030.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and out == ""
    assert "malformed certificate" in err and "'0.3.0'" in err and f"'{__version__}'" in err


def test_certify_out_is_byte_identical_across_processes(tmp_path):
    # two interpreters, so no state shared within one process can hide a
    # run-to-run difference
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    digests = []
    for run_id in range(2):
        path = tmp_path / f"cert{run_id}.json"
        done = subprocess.run(
            [sys.executable, "-m", "quadineq.cli", "certify", "--margin", "0.18",
             "--out", str(path)], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_check_cert_missing_file(capsys):
    code, _, err = run(capsys, ["check-cert", "/nonexistent/cert.json"])
    assert code == 2 and "cannot read" in err


def test_check_cert_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff\xfe{"version": "0.3.0"}')
    code, out, err = run(capsys, ["check-cert", str(path)])
    assert code == 2 and out == "" and err.startswith(f"error: cannot read {path}")


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
    doc = {"version": __version__, "margin": 1e-8, "target": 0.0, "c_star": -1.0,
           "tree": _pack("L")}
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["check-cert", str(path)])
    assert code == 1 and json.loads(out)["verified"] is False


@pytest.mark.parametrize("argv", [
    ["search", "--margin", "0.5"], ["search", "--starts", "0"],
    ["search", "--budget", "-1"], ["audit", "--margin", "0.5"],
    ["audit", "--samples", "0"], ["audit", "--samples", "-5"],
    ["audit", "--tol", "nan"], ["eval", "--tol", "nan", "--points", SQUARE_JSON],
    ["audit", "--samples", "100", "--tol", "-1"],
    ["eval", "--tol", "-1", "--points", SQUARE_JSON],
    *[["audit", "--strategy", "point-rejection", "--margin", margin]
      for margin in ("nan", "-3", "0.5")],
], ids=["search-margin-too-wide", "search-no-starts", "search-negative-budget",
        "audit-margin-too-wide", "audit-no-samples", "audit-negative-samples",
        "audit-tol-nan", "eval-tol-nan", "audit-tol-negative", "eval-tol-negative",
        "point-rejection-margin-nan",
        "point-rejection-margin-negative", "point-rejection-margin-too-wide"])
def test_audit_search_and_eval_reject_bad_arguments(tmp_path, capsys, argv):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, argv + ["--out", str(out_path)])
    assert code == 2 and err.startswith("error: ") and out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["audit", "search"])
def test_a_negative_seed_is_refused_by_name(capsys, command):
    code, out, err = run(capsys, [command, "--seed", "-1"])
    assert code == 2 and err.startswith("error: ") and "seed" in err and out == ""


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


@pytest.mark.parametrize("argv", [
    ["eval", "--points", SQUARE_JSON],
    ["audit", "--samples", "10"],
    ["certify", "--margin", "0.2"],
    ["check-cert", "CERT"],
    ["search", "--starts", "1", "--budget", "10"],
], ids=["eval", "audit", "certify", "check-cert", "search"])
def test_out_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 means a violation or an incomplete result, so an unwritable
    # --out exits 2 like every other bad argument
    cert_path = tmp_path / "cert.json"
    assert main(["certify", "--margin", "0.2", "--out", str(cert_path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "missing" / "report.json"
    argv = [str(cert_path) if arg == "CERT" else arg for arg in argv]
    code, out, err = run(capsys, argv + ["--out", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {bad}: ")


def test_certify_refuses_an_unwritable_out_before_it_runs(tmp_path, capsys, monkeypatch):
    # the branch-and-bound is never started for a certificate it cannot write
    def never(**kwargs):
        raise AssertionError("certify ran")

    monkeypatch.setattr(cli, "certify", never)
    bad = tmp_path / "missing" / "cert.json"
    code, out, err = run(capsys, ["certify", "--margin", "0.1", "--out", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {bad}: ")


def test_out_check_keeps_an_existing_file(tmp_path, capsys):
    # a refused run leaves a file it did not write as it found it
    path = tmp_path / "cert.json"
    path.write_text("keep")
    code, _, _ = run(capsys, ["certify", "--margin", "0.3", "--out", str(path)])
    assert code == 2 and path.read_text() == "keep"


@pytest.mark.parametrize("argv", [["check-cert", "FILE"], ["eval", "--points", "@FILE"]],
                         ids=["check-cert", "eval"])
def test_json_nested_deeper_than_the_parser_reaches_is_malformed(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, [arg.replace("FILE", str(path)) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed JSON in {path}: ")


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
