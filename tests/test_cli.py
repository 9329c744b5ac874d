"""End-to-end CLI behavior: outputs, reports, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from evenfactor.graphs import to_graph6
from evenfactor.theorems import ExtremalParams, extremal_graph


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "evenfactor.cli", *args],
        input=stdin, capture_output=True, text=True,
    )
    return proc


def extremal_line(n=8, delta=2):
    return to_graph6(extremal_graph(ExtremalParams(n, delta)))


def test_spectra_via_subprocess(tmp_path):
    report_path = tmp_path / "spectra.json"
    proc = run_cli(["spectra", "--json", str(report_path)], stdin="C~\nCh\n")
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == "2"
    rows = report["rows"]
    assert rows[0]["n"] == 4 and rows[0]["rho_q"] == pytest.approx(6, abs=1e-9)
    assert rows[0]["rho_d"] == pytest.approx(3, abs=1e-9)
    assert rows[1]["wiener"] == 10
    assert report["violations"] == []


def test_spectra_disconnected_emits_null():
    proc = run_cli(["spectra"], stdin="A?\n")  # two isolated vertices
    assert proc.returncode == 0
    assert "-" in proc.stdout


def test_spectra_empty_input_success():
    proc = run_cli(["spectra"], stdin="")
    assert proc.returncode == 0
    assert "(no rows)" in proc.stdout


def test_malformed_line_reported_with_line_number(tmp_path):
    report_path = tmp_path / "bad.json"
    proc = run_cli(["spectra", "--json", str(report_path)], stdin="C~\nhello world\n")
    assert proc.returncode == 1
    report = json.loads(report_path.read_text())
    assert len(report["rows"]) == 1
    assert report["violations"][0]["line"] == 2


def test_non_ascii_line_is_a_per_line_violation(tmp_path):
    data = b"C~\nD\xc3\xa9\n"
    graph_file = tmp_path / "bad.g6"
    graph_file.write_bytes(data)
    for source, stdin in ((str(graph_file), b""), ("-", data)):
        report_path = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "evenfactor.cli", "certify", source,
             "--json", str(report_path)],
            input=stdin, capture_output=True,
        )
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        report = json.loads(report_path.read_text())
        assert [r["line"] for r in report["rows"]] == [1]
        [violation] = report["violations"]
        assert violation["line"] == 2
        assert "non-ASCII" in violation["error"]


def test_certify_extremal_row(tmp_path):
    report_path = tmp_path / "c.json"
    proc = run_cli(
        ["certify", "--theorem", "1", "--oracle", "on", "--json", str(report_path)],
        stdin=extremal_line() + "\n",
    )
    assert proc.returncode == 0
    row = json.loads(report_path.read_text())["rows"][0]
    assert row["conclusion"] == "extremal-exception"
    assert row["oracle_status"] == "found"
    assert row["borderline"] is True


def test_certify_inconclusive_and_not_applicable():
    # C_8 (inconclusive) and K_8 (hypothesis failure)
    proc = run_cli(["certify", "--theorem", "1"], stdin="GhCGKC\nG~~~~{\n")
    assert proc.returncode == 0
    assert "inconclusive" in proc.stdout and "not-applicable" in proc.stdout


def test_certify_delta_override_diagnostic(tmp_path):
    report_path = tmp_path / "d.json"
    proc = run_cli(
        ["certify", "--theorem", "1", "--delta-override", "2",
         "--json", str(report_path)],
        stdin="G~~~~{\n",  # K_8
    )
    assert proc.returncode == 0
    assert "diagnostic mode" in proc.stdout
    row = json.loads(report_path.read_text())["rows"][0]
    assert row["mode"] == "diagnostic-delta-override"
    assert row["condition_met"] is True  # rho_Q(K_8) = 14 >= threshold(8, 2)
    assert row.get("conclusion") is None


def test_scan_bundled_corpus_small(tmp_path):
    report_path = tmp_path / "scan.json"
    proc = run_cli(
        ["scan", "-n", "6", "--theorem", "1", "--oracle", "on",
         "--json", str(report_path), "--no-timing"],
    )
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    row = report["rows"][0]
    assert row["inputs"] == 112
    assert row["violations"] == 0


def test_scan_sampler_zero_size(tmp_path):
    report_path = tmp_path / "zero.json"
    proc = run_cli(
        ["scan", "-n", "10", "--sample-size", "0", "--theorem", "2",
         "--json", str(report_path)],
    )
    assert proc.returncode == 0
    row = json.loads(report_path.read_text())["rows"][0]
    assert row["inputs"] == 0


def test_scan_sampler_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["scan", "-n", "8", "--sample-size", "50", "--seed", "7",
            "--theorem", "2", "--no-timing"]
    assert run_cli(args + ["--json", str(a)]).returncode == 0
    assert run_cli(args + ["--json", str(b)]).returncode == 0
    assert a.read_text() == b.read_text()


def test_scan_requires_source():
    proc = run_cli(["scan", "--theorem", "1"])
    assert proc.returncode != 0


def test_lemmas_command(tmp_path):
    report_path = tmp_path / "lemmas.json"
    proc = run_cli(
        ["lemmas", "--trials", "10", "--n-max", "20", "--corpus-max-n", "4",
         "--oracle-max-n", "4", "--check", "q-monotone-edge-add",
         "--check", "q-threshold-bracket", "--json", str(report_path),
         "--no-timing"],
    )
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    checks = {r["check"] for r in report["rows"]}
    assert checks == {"q-monotone-edge-add", "q-threshold-bracket"}
    assert report["violations"] == []


def test_extremal_command(tmp_path):
    report_path = tmp_path / "ext.json"
    proc = run_cli(
        ["extremal", "--delta-min", "2", "--delta-max", "3", "--n-max", "18",
         "--json", str(report_path), "--no-timing"],
    )
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    assert all(r["bracket_ok"] for r in report["rows"])
    assert all(r["even_factor"] == "found" for r in report["rows"])
    assert "extremal graph itself" in report["config"]["note"]


def test_oracle_command(tmp_path):
    report_path = tmp_path / "oracle.json"
    proc = run_cli(
        ["oracle", "--json", str(report_path)],
        stdin="C~\nBw\n",
    )
    assert proc.returncode == 0
    rows = json.loads(report_path.read_text())["rows"]
    assert rows[0]["status"] == "found"
    assert rows[1]["status"] == "found"  # triangle
    assert rows[0]["edges"]


def test_csv_output(tmp_path):
    csv_path = tmp_path / "rows.csv"
    proc = run_cli(["spectra", "--csv", str(csv_path)], stdin="C~\n")
    assert proc.returncode == 0
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("line,graph6,n,m")
    assert len(text) == 2


def test_version_flag():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
