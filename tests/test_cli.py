"""End-to-end CLI behavior: outputs, reports, determinism, exit codes."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from evenfactor import cli, spectral
from evenfactor.cli import build_parser, main
from evenfactor.corpus import bundled_corpus_lines
from evenfactor.graphs import from_graph6, to_graph6
from evenfactor.oracle import NODE_CAP, find_even_factor
from evenfactor.sampling import sample_connected_graphs, sample_graph
from evenfactor.spectral import rho_q
from evenfactor.theorems import (
    TheoremKind,
    check_even_factor,
    extremal_graph,
)

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def run_cli(args, stdin=""):
    # the checkout's package, also when pytest alone put src on its path
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "evenfactor.cli", *args],
        input=stdin, capture_output=True, text=isinstance(stdin, str),
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


def extremal_line(n=8, delta=2):
    return to_graph6(extremal_graph(n, delta))


def test_spectra_via_subprocess(tmp_path):
    report_path = tmp_path / "spectra.json"
    proc = run_cli(["spectra", "--json", str(report_path)], stdin="C~\nCh\n")
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == "9"
    rows = report["rows"]
    assert rows[0]["n"] == 4 and rows[0]["rho_q"] == pytest.approx(6, abs=1e-9)
    assert rows[0]["rho_d"] == pytest.approx(3, abs=1e-9)
    assert rows[1]["wiener"] == 10
    assert report["violations"] == []


def test_spectra_builds_one_distance_matrix_per_connected_graph(tmp_path, monkeypatch):
    build = spectral._distance_stack
    builds = []

    def counting(graphs):
        builds.append(len(graphs))
        return build(graphs)

    monkeypatch.setattr(spectral, "_distance_stack", counting)
    source = tmp_path / "graphs.g6"
    source.write_text("C~\nCh\nA?\nD~{\nGhCGKC\n")  # A? has two isolated vertices
    _, rows, _ = cli.cmd_spectra(build_parser().parse_args(["spectra", str(source)]))
    assert [r["wiener"] for r in rows] == [6, 10, None, 10, 64]
    assert builds == [1] * 4


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


def test_blank_lines_skipped_and_line_numbers_kept(tmp_path):
    report_path = tmp_path / "blank.json"
    proc = run_cli(["spectra", "--json", str(report_path)],
                   stdin="\nC~\n   \n?\n\nhello\n")
    assert proc.returncode == 1
    report = json.loads(report_path.read_text())
    assert [(r["line"], r["n"]) for r in report["rows"]] == [(2, 4), (4, 0)]
    assert [v["line"] for v in report["violations"]] == [6]


def test_non_ascii_line_is_a_per_line_violation(tmp_path):
    data = b"C~\nD\xc3\xa9\n"
    graph_file = tmp_path / "bad.g6"
    graph_file.write_bytes(data)
    for source, stdin in ((str(graph_file), b""), ("-", data)):
        report_path = tmp_path / "report.json"
        proc = run_cli(["certify", source, "--json", str(report_path)], stdin=stdin)
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
        ["certify", "--theorem", "1", "--json", str(report_path)],
        stdin=extremal_line() + "\n" + extremal_line(14, 3) + "\n",
    )
    assert proc.returncode == 0
    for row in json.loads(report_path.read_text())["rows"]:
        assert row["conclusion"] == "extremal-exception"
        assert row["oracle_status"] == "found"
        assert row["borderline"] is True and row["rung"] is None
    # no bound separates the extremal graph from its own threshold; at
    # delta = 2 the sandwich lemma recognizes it with no eigen-solve, at
    # delta = 3 every rung runs, the eigen-solve last
    delta2, delta3 = json.loads(report_path.read_text())["rows"]
    assert delta2["spectral_bound"] is None and delta2["spectral_value"] is None
    assert delta3["spectral_bound"] is None and delta3["spectral_value"] is not None


def test_certify_checks_every_claim_with_the_oracle_by_default(tmp_path, capsys):
    # the extremal graph at (16, 2) plus the edge (2, 15) has delta = 3 and
    # rho_Q 28.24 against the threshold 26.55: a guarantee, which the oracle
    # confirms with no flag given, and which its Collatz-Wielandt bracket
    # settles with no eigen-solve, by a lower bound a hair below rho_Q; C_8
    # misses its threshold, as the sandwich lemma shows with no bound, and
    # the 7-prism misses the (14, 3) one by far, as its bound
    # rho_Q <= 2 Delta = 6 shows with no eigen-solve; no oracle runs on
    # either
    report_path = tmp_path / "c.json"
    proc = run_cli(["certify", "--json", str(report_path), "--no-timing"],
                   stdin="O~~~~~~~~~~~~~~~~~~??\nGhCGKC\nMhCKK@@GG_`@@@?o_\n")
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    guaranteed, cycle, prism = report["rows"]
    assert (guaranteed["min_degree"], guaranteed["conclusion"], guaranteed["oracle_status"],
            guaranteed["oracle_agrees"], guaranteed["rung"]) == (
        3, "even-factor-guaranteed", "found", True, "power")
    for row in (cycle, prism):
        assert (row["conclusion"], row["oracle_status"], row["oracle_agrees"]) == (
            "inconclusive", None, None)
    assert (cycle["spectral_value"], cycle["spectral_bound"], cycle["borderline"],
            cycle["rung"]) == (None, None, False, "sandwich")
    assert (prism["min_degree"], prism["spectral_value"], prism["spectral_bound"],
            prism["borderline"], prism["rung"]) == (3, None, 6, False, "row-sums")
    assert guaranteed["spectral_value"] is None
    assert (guaranteed["threshold"] < guaranteed["spectral_bound"]
            <= rho_q(from_graph6("O~~~~~~~~~~~~~~~~~~??")))
    assert guaranteed["spectral_bound"] == pytest.approx(28.2377381, abs=1e-6)
    config = report["config"]
    assert "oracle" not in config and config["oracle_cap"] == NODE_CAP
    # no verdict reads the lemmas' comparison_epsilon, so only lemmas names it
    assert sorted(config["tolerances"]) == ["eigen_residual_tol", "root_tol"]
    assert "comparison_epsilon" not in config
    # there is no switch to turn the oracle off
    for argv in (["certify", "--oracle", "on"], ["scan", "-n", "6", "--oracle", "off"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_certify_row_settled_by_the_eigenvector_bracket(tmp_path):
    # the extremal graph at (14, 3) with the edges (7, 12) and (10, 12) added
    # from the big clique to a singleton and the big-clique edge (8, 11)
    # deleted: rho_Q lies 0.00089 below
    # the threshold, too near for the M^3 1 bracket, so the eigen-solve
    # runs, and the bracket from its eigenvector settles the verdict
    line = "M~~~~~~~~~~zwQw??"
    path = tmp_path / "c.json"
    proc = run_cli(["certify", "--theorem", "1", "--json", str(path), "--no-timing"],
                   stdin=line + "\n")
    assert proc.returncode == 0
    [row] = json.loads(path.read_text())["rows"]
    assert (row["min_degree"], row["conclusion"], row["borderline"], row["oracle_status"],
            row["rung"]) == (3, "inconclusive", False, None, "eigenvector")
    assert row["spectral_value"] is not None and row["spectral_bound"] is not None
    assert row["spectral_value"] <= row["spectral_bound"] < row["threshold"]
    # bound_decided counts only the verdicts settled with no eigen-solve
    corpus = tmp_path / "in.g6"
    corpus.write_text(line + "\n")
    assert main(["scan", "--corpus", str(corpus), "--theorem", "1",
                 "--json", str(path), "--no-timing"]) == 0
    [row] = json.loads(path.read_text())["rows"]
    assert (row["inconclusive"], row["borderline"], row["bound_decided"]) == (1, 0, 0)


def test_certify_inconclusive_and_not_applicable():
    # C_8 (inconclusive) and K_8 (hypothesis failure)
    proc = run_cli(["certify", "--theorem", "1"], stdin="GhCGKC\nG~~~~{\n")
    assert proc.returncode == 0
    assert "inconclusive" in proc.stdout and "not-applicable" in proc.stdout


def test_scan_bundled_corpus_small(tmp_path):
    report_path = tmp_path / "scan.json"
    proc = run_cli(
        ["scan", "-n", "6", "--theorem", "1", "--json", str(report_path), "--no-timing"],
    )
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    row = report["rows"][0]
    assert row["inputs"] == 112
    assert row["violations"] == 0
    # no graph on 6 vertices reaches the order bound 8 at delta = 2
    assert row["not-applicable"] == 112 and row["bound_decided"] == 0


def test_scan_counts_the_verdicts_the_bound_decided(tmp_path, capsys):
    # every applicable seed-1 sample at n = 10 has delta = 2, so the
    # sandwich lemma settles it with no bound; the 9-prism, at delta = 3, is
    # settled by rho_D >= 2(n(n - 1) - m)/n, and the extremal graph by
    # neither
    path = tmp_path / "s.json"
    assert main(["scan", "-n", "10", "--sample-size", "3000", "--seed", "1",
                 "--theorem", "2", "--json", str(path), "--no-timing"]) == 0
    [row] = json.loads(path.read_text())["rows"]
    assert (row["inconclusive"], row["not-applicable"], row["sandwich"],
            row["bound_decided"], row["borderline"]) == (984, 2016, 984, 0, 0)
    corpus = tmp_path / "in.g6"
    corpus.write_text(extremal_line(10, 2) + "\nQhCGGE@_A?c@C@A?__GC@?OC?oG\n")
    assert main(["scan", "--corpus", str(corpus), "--theorem", "2",
                 "--json", str(path), "--no-timing"]) == 0
    [row] = json.loads(path.read_text())["rows"]
    assert (row["extremal-exception"], row["inconclusive"], row["sandwich"],
            row["bound_decided"], row["borderline"]) == (1, 1, 0, 1, 1)
    capsys.readouterr()


def test_scan_tally_matches_certify_rows(tmp_path):
    # scan counts the verdicts that a cell alone determines per shared
    # object, and every other verdict per graph; its row must be what
    # certify's per-graph rows add up to
    lines = [*bundled_corpus_lines(6), "O~~~~~~~~~~~~~~~~~~??", "M~~~~~~~~~~zwQw??", "A~"]
    corpus = tmp_path / "in.g6"
    corpus.write_text("\n".join(lines) + "\n")
    path = tmp_path / "r.json"
    assert main(["certify", str(corpus), "--json", str(path), "--no-timing"]) == 1
    report = json.loads(path.read_text())
    rows = report["rows"]
    expected = {"inputs": len(rows)}
    for conclusion in ("even-factor-guaranteed", "extremal-exception", "inconclusive",
                       "not-applicable"):
        expected[conclusion] = sum(r["conclusion"] == conclusion for r in rows)
    expected.update(
        borderline=sum(r["borderline"] for r in rows),
        sandwich=sum(r["rung"] == "sandwich" for r in rows),
        bound_decided=sum(r["rung"] in ("row-sums", "power") for r in rows),
        oracle_runs=sum(r["oracle_status"] is not None for r in rows),
        oracle_cap_exceeded=sum(r["oracle_status"] == "cap-exceeded" for r in rows),
        violations=len(report["violations"]),
    )
    assert expected["inputs"] == len(lines) - 1 and expected["violations"] == 1
    # the oracle confirms the guarantee O~~~~~~~~~~~~~~~~~~??; the
    # eigenvector bracket settles M~~~~~~~~~~zwQw?? as inconclusive
    assert (expected["even-factor-guaranteed"], expected["oracle_runs"]) == (1, 1)
    assert main(["scan", "--corpus", str(corpus), "--json", str(path), "--no-timing"]) == 1
    [row] = json.loads(path.read_text())["rows"]
    assert row == {"source": f"corpus:{corpus}", **expected}


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


def test_scan_sampler_beyond_one_character_graph6_size(tmp_path):
    report_path = tmp_path / "n64.json"
    proc = run_cli(["scan", "-n", "64", "--sample-size", "1", "--json", str(report_path)])
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(report_path.read_text())["rows"][0]["inputs"] == 1


def test_impossible_arguments_are_usage_errors(capsys, tmp_path):
    # minimum degree 2 needs three vertices; the extremal family needs delta >= 2;
    # a scan needs a source; the bundled corpora stop at n = 8; a negative
    # trial count, an empty delta range or an --n-max below some delta's
    # first grid order would drop checks or rows silently; a missing or
    # directory path would fail with a traceback, a report path only after
    # the whole run; a corpus scan would ignore -n and --sample-size
    corpus = tmp_path / "in.g6"
    corpus.write_text("C~\n")
    missing = str(tmp_path / "missing.g6")
    for argv in (["spectra", missing],
                 ["certify", missing],
                 ["oracle", missing],
                 ["scan", "--corpus", missing],
                 ["spectra", str(tmp_path)],
                 ["oracle", str(tmp_path)],
                 ["scan", "--corpus", str(tmp_path)],
                 ["spectra", str(corpus), "--json", str(tmp_path / "no" / "r.json")],
                 ["scan", "-n", "4", "--csv", str(tmp_path / "no" / "r.csv")],
                 ["scan", "-n", "4", "--json", str(tmp_path)],
                 ["scan", "--corpus", str(corpus), "--sample-size", "50", "-n", "10"],
                 ["scan", "--corpus", str(corpus), "-n", "10"],
                 ["scan", "--corpus", str(corpus), "--sample-size", "50"],
                 ["extremal", "--n-max", "3"],
                 ["extremal", "--n-min", "30", "--n-max", "20"],
                 ["extremal", "--delta-max", "6", "--n-max", "20"],
                 ["lemmas", "--n-max", "9"],
                 ["lemmas", "--n-max", "2"],
                 ["lemmas", "--delta-max", "6", "--n-max", "20"],
                 ["scan", "-n", "0", "--sample-size", "5"],
                 ["scan", "-n", "1", "--sample-size", "5"],
                 ["scan", "-n", "2", "--sample-size", "5"],
                 ["scan", "-n", "10", "--sample-size", "-3"],
                 ["scan", "--sample-size", "3"],
                 ["scan"],
                 ["scan", "-n", "9"],
                 ["lemmas", "--oracle-max-n", "12"],
                 ["lemmas", "--corpus-max-n", "10"],
                 ["lemmas", "--corpus-max-n", "-1"],
                 ["lemmas", "--trials", "-5"],
                 ["lemmas", "--delta-max", "1"],
                 ["extremal", "--delta-min", "1"],
                 ["extremal", "--delta-max", "1"],
                 ["extremal", "--delta-min", "5", "--delta-max", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("evenfactor: error: "), err
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            next(sample_connected_graphs(Random(0), n, 1))


def test_scan_requires_source():
    proc = run_cli(["scan", "--theorem", "1"])
    assert proc.returncode != 0


def test_lemmas_command(tmp_path):
    report_path = tmp_path / "lemmas.json"
    proc = run_cli(
        ["lemmas", "--trials", "10", "--delta-max", "3", "--n-max", "20",
         "--corpus-max-n", "4", "--oracle-max-n", "4", "--check", "q-monotone-edge-add",
         "--check", "q-threshold-bracket", "--json", str(report_path),
         "--no-timing"],
    )
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    checks = {r["check"] for r in report["rows"]}
    assert checks == {"q-monotone-edge-add", "q-threshold-bracket"}
    assert report["violations"] == []
    # the float tolerance of the checks, which only lemmas reports name
    assert report["config"]["comparison_epsilon"] == 1e-8


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


def test_extremal_config_states_the_default_n_max(tmp_path):
    # delta = 8 and 9 first reach the order bound at n = 50 and 56, above 40,
    # so without --n-max each delta's one row lies there
    report_path = tmp_path / "ext.json"
    proc = run_cli(
        ["extremal", "--delta-min", "8", "--delta-max", "9",
         "--json", str(report_path), "--no-timing"],
    )
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    assert [(r["n"], r["delta"]) for r in report["rows"]] == [(50, 8), (56, 9)]
    assert report["config"]["n_min"] == "per-delta bound"
    assert report["config"]["n_max"] == "max(40, first order)"


# every valid cell with delta <= 11 at which n + delta - 3 lies above rho_D
# of the extremal graph, so a bracket starting there finds no root
LOW_ORDER_CELLS = [(8, 4), (10, 5), (12, 6), (14, 7), (16, 7), (16, 8), (18, 8),
                   (18, 9), (20, 9), (20, 10), (22, 10), (22, 11), (24, 11), (26, 11)]


def test_extremal_command_below_the_order_bound(tmp_path):
    for n, delta in LOW_ORDER_CELLS:
        report_path = tmp_path / f"ext_{n}_{delta}.json"
        code = main(["extremal", "--delta-min", str(delta), "--delta-max", str(delta),
                     "--n-min", str(n), "--n-max", str(n),
                     "--json", str(report_path), "--no-timing"])
        (row,) = json.loads(report_path.read_text())["rows"]
        assert (row["n"], row["delta"]) == (n, delta)
        assert row["threshold_d"] < n + delta - 3
        assert row["even_factor"] == "found"
        # so far below the order bound rho_Q of the extremal graph reaches
        # 2n - delta except at (16, 7); the paper claims the bracket only
        # from the order bound on, so it is data here, not a violation
        assert row["bracket_ok"] == ((n, delta) == (16, 7))
        assert code == 0


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


def test_oracle_table_stdout_is_pinned():
    # each column as wide as its widest cell or header, every cell padded,
    # the last one too; a row a triangle flip repairs (D]w), one that only
    # the search settles (EhdW), a none-exists row (two K_4 through a
    # degree-2 vertex) and two malformed lines, which leave gaps in the
    # line numbers
    k20_bad = "S" + "~" * 60 + "w"
    proc = run_cli(["oracle", "--no-timing"],
                   stdin=f"C~\nBw\nA~\nD]w\nH~_GGKF\nE?~w\nEhdW\n{k20_bad}\n")
    assert proc.returncode == 1
    assert proc.stdout == (
        "line  graph6   n  m   status       nodes_explored\n"
        "1     C~       4  6   found        0             \n"
        "2     Bw       3  3   found        0             \n"
        "4     D]w      5  7   found        0             \n"
        "5     H~_GGKF  9  14  none-exists  0             \n"
        "6     E?~w     6  9   found        0             \n"
        "7     EhdW     6  8   found        12            \n"
        "\n"
        "2 violation(s):\n"
        '  {"error": "nonzero padding bits", "graph6": "A~", "line": 3}\n'
        '  {"error": "expected 32 data characters for n=20, got 61", '
        f'"graph6": "{k20_bad}", "line": 8}}\n'
    )


# malformed lines of a mixed-order input, by line number, with their errors
MIXED_BAD = {
    3: (b"A~", "nonzero padding bits"),
    6: (b"C\xc3\xa9", "non-ASCII byte 0xc3 at column 2"),
    9: (b"~??", "truncated four-character graph6 size"),
    10: (b"C", "expected 1 data characters for n=4, got 0"),
    14: (b"C~~", "expected 1 data characters for n=4, got 2"),
    15: (b"E>??", "data character '>' out of range 63..126"),
    19: (b"~~??????", "graph6 sizes above 258047 are not supported"),
    20: (b">>graph6<<", "empty graph6 line"),
    23: (b"~???", "size 0 written in four characters, not one"),
    24: (b"\x01Bw", "size character '\\x01' out of range 63..126"),
    27: (b"H~~~~~~~~~~", "expected 6 data characters for n=9, got 10"),
    28: (b"F?~v~", "nonzero padding bits"),
}


def _mixed_input(tmp_path):
    """A file of orders 2..9, twice over, with malformed and blank lines;
    returns its path and its well-formed lines by line number."""
    rng = Random(29)
    graphs = [to_graph6(sample_graph(rng, n, rng.uniform(0.3, 0.9))).encode()
              for n in list(range(2, 10)) * 2]
    fill = iter(graphs[:8] + [b"  ", b" Bw "] + graphs[8:] + [b">>graph6<<C~", b""])
    lines = [MIXED_BAD[i][0] if i in MIXED_BAD else next(fill) for i in range(1, 33)]
    path = tmp_path / "mixed.g6"
    path.write_bytes(b"\n".join(lines) + b"\n")
    good = {i: raw.decode().strip() for i, raw in enumerate(lines, 1)
            if i not in MIXED_BAD and raw.strip()}
    return path, good


def test_mixed_orders_and_malformed_lines(tmp_path, capsys):
    path, good = _mixed_input(tmp_path)
    assert {from_graph6(text).n for text in good.values()} == set(range(2, 10))
    # in line order, as each line decoded alone reports it
    expected_violations = [{"line": i, "graph6": raw.decode("ascii", "backslashreplace"),
                            "error": error} for i, (raw, error) in sorted(MIXED_BAD.items())]

    report_path = tmp_path / "oracle.json"
    assert main(["oracle", str(path), "--json", str(report_path), "--no-timing"]) == 1
    report = json.loads(report_path.read_text())
    assert report["violations"] == expected_violations
    rows = []
    for line_no, text in good.items():
        g = from_graph6(text)
        cert = find_even_factor(g)
        rows.append({"line": line_no, "graph6": text, "n": g.n, "m": g.edge_count,
                     "status": cert.status.value, "nodes_explored": cert.nodes_explored,
                     "edges": None if cert.edges is None else [list(e) for e in cert.edges]})
    assert report["rows"] == rows

    for theorem, kind in (("1", TheoremKind.SIGNLESS_LAPLACIAN), ("2", TheoremKind.DISTANCE)):
        report_path = tmp_path / f"scan{theorem}.json"
        assert main(["scan", "--corpus", str(path), "--theorem", theorem,
                     "--json", str(report_path), "--no-timing"]) == 1
        report = json.loads(report_path.read_text())
        assert report["violations"] == expected_violations
        [row] = report["rows"]
        verdicts = [check_even_factor(from_graph6(text), kind).conclusion.value
                    for text in good.values()]
        assert row["inputs"] == len(good)
        assert {c: row[c] for c in set(verdicts)} == {c: verdicts.count(c) for c in verdicts}
    capsys.readouterr()


def test_scan_corpus_malformed_lines_mid_corpus(tmp_path, monkeypatch):
    # the 11117 graphs of order 8 span 17 decode batches; malformed lines sit
    # in the middle, behind a mix of "\n", "\r\n" and "\r" line ends
    lines = [line.encode() for line in bundled_corpus_lines(8)]
    bad = {3000: b"G??", 6000: b"G\xff?????", 9000: b"A~"}
    for line_no, raw in bad.items():
        lines.insert(line_no - 1, raw)
    text = (b"\n".join(lines[:4000]) + b"\r\n" + b"\r\n".join(lines[4000:8000])
            + b"\r" + b"\r".join(lines[8000:]) + b"\n")
    corpus = tmp_path / "mixed8.g6"
    corpus.write_bytes(text)
    scanned, bundled = tmp_path / "corpus.json", tmp_path / "bundled.json"
    assert main(["scan", "--corpus", str(corpus), "--json", str(scanned), "--no-timing"]) == 1
    assert main(["scan", "-n", "8", "--json", str(bundled), "--no-timing"]) == 0
    report = json.loads(scanned.read_text())
    assert report["violations"] == [
        {"line": 3000, "graph6": "G??", "error": "expected 5 data characters for n=8, got 2"},
        {"line": 6000, "graph6": "G\\xff?????", "error": "non-ASCII byte 0xff at column 2"},
        {"line": 9000, "graph6": "A~", "error": "nonzero padding bits"},
    ]
    [row], [reference] = report["rows"], json.loads(bundled.read_text())["rows"]
    assert {**row, "source": None} == {**reference, "source": None, "violations": 3}

    # lines are read as they are decoded: the first graph comes after one batch
    served = []

    def stdin_lines():
        for raw in text.splitlines(keepends=True):
            served.append(raw)
            yield raw

    monkeypatch.setattr(sys, "stdin", argparse.Namespace(buffer=stdin_lines()))
    violations = []
    first = next(cli._parse_graphs("-", violations))
    assert first[:2] == (1, lines[0].decode())
    assert len(served) < 1000 and not violations


def test_csv_output(tmp_path):
    csv_path = tmp_path / "rows.csv"
    proc = run_cli(["spectra", "--csv", str(csv_path)], stdin="C~\n")
    assert proc.returncode == 0
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("line,graph6,n,m")
    assert len(text) == 2
    # list cells carry the JSON report's encoding of the same value
    json_path = tmp_path / "rows.json"
    proc = run_cli(["oracle", "--csv", str(csv_path), "--json", str(json_path)],
                   stdin="C~\nCF\n")
    assert proc.returncode == 0
    with open(csv_path, newline="") as fh:
        found, none = list(csv.DictReader(fh))
    assert found["edges"] == "[[0, 2], [0, 3], [1, 2], [1, 3]]"
    assert json.loads(found["edges"]) == json.loads(json_path.read_text())["rows"][0]["edges"]
    assert none["status"] == "none-exists" and none["edges"] == ""


def _small_reports(tmp_path):
    """argv for a small --no-timing JSON report of each of the six commands."""
    graphs = tmp_path / "in.g6"
    graphs.write_text("C~\nBw\nCF\n" + extremal_line() + "\nhello\n")
    return [
        ["spectra", str(graphs)],
        ["certify", "--theorem", "1", str(graphs)],
        ["scan", "-n", "5", "--theorem", "2"],
        ["lemmas", "--trials", "10", "--delta-max", "3", "--n-max", "20",
         "--corpus-max-n", "4", "--oracle-max-n", "4"],
        ["extremal", "--delta-max", "3", "--n-max", "16"],
        ["oracle", str(graphs)],
    ]


def test_json_report_layout_and_content(tmp_path, monkeypatch):
    handed = []
    emit = cli._emit_report

    def spy(args, config, rows, violations, started):
        handed.append((config, rows, violations))
        return emit(args, config, rows, violations, started)

    monkeypatch.setattr(cli, "_emit_report", spy)
    for argv in _small_reports(tmp_path):
        path = tmp_path / f"{argv[0]}.json"
        main(argv + ["--json", str(path), "--no-timing"])
        config, rows, violations = handed.pop()
        # parsed content equals what json.dump(..., indent=2) wrote before
        indented = json.dumps({
            "schema_version": cli.SCHEMA_VERSION,
            "command": argv[0],
            "config": {**config, "oracle_cap": NODE_CAP, "tolerances": cli.TOLERANCES},
            "rows": rows,
            "violations": violations,
            "timing_seconds": 0.0,
        }, indent=2, sort_keys=True, default=str)
        text = path.read_text()
        report = json.loads(text)
        assert report == json.loads(indented)
        # one top-level key per line, sorted; one row or violation per line
        assert text.endswith("}\n")
        lines = text.splitlines()
        keys = [ln.split('"')[1] for ln in lines if ln.startswith('  "')]
        assert keys == sorted(report)
        items = [json.loads(ln.strip().rstrip(",")) for ln in lines if ln.startswith("    ")]
        assert items == report["rows"] + report["violations"]
        assert report["rows"] and len(lines) == 2 + len(keys) + len(items) + sum(
            1 for k in ("rows", "violations") if report[k])


def test_no_timing_per_graph_reports_are_byte_identical(tmp_path):
    for argv in _small_reports(tmp_path):
        if argv[0] not in ("oracle", "certify"):
            continue
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(argv + ["--json", str(a), "--no-timing"]).returncode == 1
        assert run_cli(argv + ["--json", str(b), "--no-timing"]).returncode == 1
        assert a.read_bytes() == b.read_bytes()


def test_readme_names_only_defined_options():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defined = set(parser._option_string_actions)
    for command in sub.choices.values():
        defined |= set(command._option_string_actions)
    named = set()
    for line in README.read_text(encoding="utf-8").splitlines():
        # command lines of other programs (pip, pytest) name their own options
        if re.match(r"\s*(pip|pytest|python)\s", line):
            continue
        named |= set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line))
    assert named and named <= defined, sorted(named - defined)


def test_version_flag():
    proc = run_cli(["--version"])
    assert proc.returncode == 0


def test_certify_and_scan_report_a_refuted_guarantee_alike(tmp_path, monkeypatch):
    # K_3 v (K_10 u K_1) lies above the extremal graph at (14, 3), so its
    # verdict is a guarantee; an oracle that finds no even factor refutes it
    from evenfactor import theorems
    from evenfactor.graphs import clique_join
    from evenfactor.oracle import CertificateStatus

    monkeypatch.setattr(theorems, "even_factor_status", lambda g: CertificateStatus.NONE_EXISTS)
    line = to_graph6(clique_join(3, (10, 1)))
    corpus = tmp_path / "in.g6"
    corpus.write_text(f"C~\n{line}\n")
    found = []
    for argv in (["certify", str(corpus)], ["scan", "--corpus", str(corpus)]):
        path = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--theorem", "1", "--json", str(path), "--no-timing"]) == 1
        found.append(json.loads(path.read_text())["violations"])
    (row,) = found[0]
    assert found[1] == found[0]
    assert (row["line"], row["graph6"], row["oracle_status"]) == (2, line, "none-exists")
    # the bracket settled the guarantee, so the violation keeps its bound
    assert row["spectral_value"] is None
    assert row["threshold"] < row["spectral_bound"] <= rho_q(clique_join(3, (10, 1)))
    assert row["reason"] == "guaranteed conclusion contradicted by the oracle"
