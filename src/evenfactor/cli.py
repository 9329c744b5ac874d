"""Command-line front end: spectra, certify, scan, lemmas, extremal, oracle.

Input is newline-separated graph6 (file argument or stdin); a leading
">>graph6<<" header is stripped. Reports go to stdout as a table, and with
--json/--csv also to machine-readable files. Reports are deterministic for
fixed inputs, seed, and config; pass --no-timing to zero the timing field
when byte-identical output is needed. Exit status is nonzero iff any
violation was found or any input line was malformed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from random import Random
from typing import Iterable, Optional

from . import __version__
from .corpus import BUNDLED_COUNTS, load_bundled_corpus
from .graphs import Graph, Graph6Error, from_graph6, to_graph6
from .oracle import CertificateStatus, find_even_factor
from .sampling import DEFAULT_P_RANGE, sample_connected_graph
from .spectral import (
    RESIDUAL_TOL,
    DisconnectedGraphError,
    rho_d,
    rho_q,
    wiener_index,
)
from .theorems import (
    BORDERLINE_MARGIN,
    COMPARISON_EPSILON,
    EXTREMAL_TABLE_NOTE,
    SUITE_CHECK_NAMES,
    THRESHOLD_AGREEMENT,
    Conclusion,
    ExtremalParams,
    TheoremKind,
    TheoremVerdict,
    _spectral_condition_met,
    check_even_factor_many,
    extremal_table,
    run_property_suite,
    threshold_rho_d,
    threshold_rho_q,
)

SCHEMA_VERSION = "2"

_THEOREM_KINDS = {"1": TheoremKind.SIGNLESS_LAPLACIAN, "2": TheoremKind.DISTANCE}


def _tolerances(args) -> dict:
    return {
        "comparison_epsilon": args.tolerance,
        "borderline_margin": BORDERLINE_MARGIN,
        "eigen_residual_tol": RESIDUAL_TOL,
        "root_tol": 1e-10,
        "threshold_agreement": THRESHOLD_AGREEMENT,
    }


def _read_lines(source: Optional[str]) -> list[bytes]:
    """Raw input lines; each is decoded on its own by _parse_graphs."""
    if source is None or source == "-":
        return sys.stdin.buffer.read().splitlines()
    with open(source, "rb") as fh:
        return fh.read().splitlines()


def _parse_graphs(lines: Iterable[bytes]) -> tuple[list[tuple[int, str, Graph]], list[dict]]:
    """(line_no, graph6, graph) triples plus parse violations."""
    good = []
    bad = []
    for line_no, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            bad.append({
                "line": line_no,
                "graph6": raw.decode("ascii", "backslashreplace").strip(),
                "error": f"non-ASCII byte 0x{raw[exc.start]:02x} at column {exc.start + 1}",
            })
            continue
        if not text:
            continue
        try:
            good.append((line_no, text, from_graph6(text)))
        except Graph6Error as exc:
            bad.append({"line": line_no, "graph6": text, "error": str(exc)})
    return good, bad


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _print_table(rows: list[dict], columns: Optional[list[str]] = None) -> None:
    if not rows:
        print("(no rows)")
        return
    cols = columns or list(rows[0].keys())
    widths = {c: len(c) for c in cols}
    rendered = []
    for row in rows:
        cells = {c: _fmt(row.get(c)) for c in cols}
        rendered.append(cells)
        for c in cols:
            widths[c] = max(widths[c], len(cells[c]))
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for cells in rendered:
        print("  ".join(cells[c].ljust(widths[c]) for c in cols))


def _emit_report(args, command: str, config: dict, rows: list[dict],
                 violations: list[dict], started: float,
                 columns: Optional[list[str]] = None) -> int:
    timing = 0.0 if args.no_timing else time.perf_counter() - started
    _print_table(rows, columns)
    if violations:
        print(f"\n{len(violations)} violation(s):")
        for v in violations:
            print("  " + json.dumps(v, sort_keys=True, default=str))
    else:
        print("\nno violations")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "rows": rows,
        "violations": violations,
        "timing_seconds": timing,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                for row in rows:
                    writer.writerow(row)
    return 1 if violations else 0


# -- spectra ------------------------------------------------------------------


def cmd_spectra(args) -> int:
    started = time.perf_counter()
    graphs, bad = _parse_graphs(_read_lines(args.input))
    rows = []
    for line_no, text, g in graphs:
        connected = g.is_connected() and g.n >= 1
        rows.append({
            "line": line_no,
            "graph6": text,
            "n": g.n,
            "m": g.edge_count,
            "min_degree": g.min_degree(),
            "rho_q": rho_q(g) if g.n >= 1 else None,
            "wiener": wiener_index(g) if connected and g.n >= 1 else None,
            "rho_d": rho_d(g) if connected and g.n >= 1 else None,
        })
    config = {"input": args.input or "-", "tolerances": _tolerances(args)}
    return _emit_report(args, "spectra", config, rows, bad, started)


# -- certify ------------------------------------------------------------------


def _judge(items: Iterable[tuple[int, str, Graph]], kind: TheoremKind,
           args) -> Iterable[tuple[int, str, TheoremVerdict]]:
    """(line_no, graph6, verdict) per parsed input, in input order."""
    items, graphs = itertools.tee(items)
    verdicts = check_even_factor_many(
        (g for _, _, g in graphs), kind, run_oracle=args.oracle == "on",
        node_cap=args.oracle_cap, epsilon=args.tolerance,
    )
    for (line_no, text, _), v in zip(items, verdicts):
        yield line_no, text, v


def _verdict_row(line_no: int, text: str, v: TheoremVerdict) -> dict:
    return {
        "line": line_no,
        "graph6": text,
        "n": v.n,
        "min_degree": v.min_degree,
        "spectral_value": v.spectral_value,
        "threshold": v.threshold,
        "borderline": v.borderline,
        "conclusion": v.conclusion.value,
        "oracle_status": v.oracle_status.value if v.oracle_status else None,
        "oracle_agrees": v.oracle_agrees,
    }


def _diagnostic_row(line_no: int, text: str, g: Graph, kind: TheoremKind,
                    delta: int, args) -> dict:
    """Non-theorem mode: threshold evaluated at a caller-chosen delta."""
    value = None
    threshold = None
    met = None
    error = None
    try:
        params = ExtremalParams(g.n, delta)
        if kind is TheoremKind.SIGNLESS_LAPLACIAN:
            value = rho_q(g)
            threshold = threshold_rho_q(params)
        else:
            value = rho_d(g)
            threshold = threshold_rho_d(params)
        met = _spectral_condition_met(kind, value, threshold, args.tolerance)
    except (ValueError, DisconnectedGraphError) as exc:
        error = str(exc)
    return {
        "line": line_no,
        "graph6": text,
        "mode": "diagnostic-delta-override",
        "delta_override": delta,
        "spectral_value": value,
        "threshold": threshold,
        "condition_met": met,
        "error": error,
    }


def cmd_certify(args) -> int:
    started = time.perf_counter()
    kind = _THEOREM_KINDS[args.theorem]
    graphs, bad = _parse_graphs(_read_lines(args.input))
    rows = []
    violations = list(bad)
    if args.delta_override is not None:
        print(f"diagnostic mode: thresholds at delta={args.delta_override}, "
              "not the graphs' minimum degree; no even-factor conclusions")
        for line_no, text, g in graphs:
            rows.append(_diagnostic_row(line_no, text, g, kind,
                                        args.delta_override, args))
    else:
        for line_no, text, v in _judge(graphs, kind, args):
            row = _verdict_row(line_no, text, v)
            rows.append(row)
            if row["oracle_agrees"] is False:
                violations.append({
                    "line": line_no,
                    "graph6": text,
                    "spectral_value": row["spectral_value"],
                    "threshold": row["threshold"],
                    "oracle_status": row["oracle_status"],
                    "reason": "guaranteed conclusion contradicted by the oracle",
                })
    config = {
        "input": args.input or "-",
        "theorem": args.theorem,
        "oracle": args.oracle,
        "oracle_cap": args.oracle_cap,
        "delta_override": args.delta_override,
        "tolerances": _tolerances(args),
    }
    return _emit_report(args, "certify", config, rows, violations, started)


# -- scan ---------------------------------------------------------------------


def _scan_source(args) -> tuple[str, Iterable[tuple[int, str, Graph]], list[dict]]:
    if args.corpus:
        graphs, bad = _parse_graphs(_read_lines(args.corpus))
        return f"corpus:{args.corpus}", graphs, bad
    if args.sample_size is not None:
        if args.n is None:
            raise SystemExit("scan: --sample-size needs -n")
        rng = Random(args.seed)
        p_range = (args.p_lo, args.p_hi)

        def gen():
            for i in range(args.sample_size):
                g = sample_connected_graph(rng, args.n, p_range=p_range,
                                           min_degree=2)
                yield i + 1, to_graph6(g), g

        return f"sampler:n={args.n},size={args.sample_size},seed={args.seed}", gen(), []
    if args.n is not None and args.n in BUNDLED_COUNTS:
        graphs = load_bundled_corpus(args.n)
        return (
            f"bundled:n={args.n}",
            [(i + 1, to_graph6(g), g) for i, g in enumerate(graphs)],
            [],
        )
    raise SystemExit("scan: need --corpus, or --sample-size, or -n in 1..8 "
                     "for a bundled corpus")


def cmd_scan(args) -> int:
    started = time.perf_counter()
    kind = _THEOREM_KINDS[args.theorem]
    source, graphs, bad = _scan_source(args)
    counts = {c.value: 0 for c in Conclusion}
    total = 0
    borderline = 0
    oracle_runs = 0
    cap_exceeded = 0
    violations = list(bad)
    for line_no, text, v in _judge(graphs, kind, args):
        total += 1
        counts[v.conclusion.value] += 1
        borderline += v.borderline
        if v.oracle_status is not None:
            oracle_runs += 1
            if v.oracle_status is CertificateStatus.SEARCH_CAP_EXCEEDED:
                cap_exceeded += 1
        if v.oracle_agrees is False:
            violations.append({
                "line": line_no,
                "graph6": text,
                "spectral_value": v.spectral_value,
                "threshold": v.threshold,
                "oracle_status": v.oracle_status.value,
                "reason": "guaranteed conclusion contradicted by the oracle",
            })
    rows = [{
        "source": source,
        "inputs": total,
        **counts,
        "borderline": borderline,
        "oracle_runs": oracle_runs,
        "oracle_cap_exceeded": cap_exceeded,
        "violations": len(violations),
    }]
    config = {
        "source": source,
        "theorem": args.theorem,
        "oracle": args.oracle,
        "oracle_cap": args.oracle_cap,
        "seed": args.seed,
        "p_range": [args.p_lo, args.p_hi],
        "tolerances": _tolerances(args),
    }
    return _emit_report(args, "scan", config, rows, violations, started)


# -- lemmas ---------------------------------------------------------------------


def cmd_lemmas(args) -> int:
    started = time.perf_counter()
    corpus_graphs = []
    for n in range(1, args.corpus_max_n + 1):
        if n in BUNDLED_COUNTS:
            corpus_graphs.extend(load_bundled_corpus(n))
    # even orders feed the implication check, odd ones the observation
    oracle_graphs = []
    for n in range(3, args.oracle_max_n + 1):
        if n in BUNDLED_COUNTS:
            oracle_graphs.extend(load_bundled_corpus(n))
    checks = set(args.check) if args.check else None
    report = run_property_suite(
        seed=args.seed,
        trials=args.trials,
        delta_range=(2, args.delta_max),
        n_max=args.n_max,
        corpus_graphs=corpus_graphs,
        oracle_graphs=oracle_graphs,
        node_cap=args.oracle_cap,
        tolerance=args.tolerance,
        checks=checks,
    )
    per_check: dict[str, dict] = {}
    for o in report.outcomes:
        agg = per_check.setdefault(o.check, {
            "check": o.check, "points": 0, "failed": 0, "min_margin": None,
        })
        agg["points"] += 1
        agg["failed"] += 0 if o.passed else 1
        if agg["min_margin"] is None or o.margin < agg["min_margin"]:
            agg["min_margin"] = o.margin
    rows = [per_check[k] for k in sorted(per_check)]
    violations = [
        {"check": o.check, "point": o.point, "margin": o.margin, "note": o.note}
        for o in report.failures
    ]
    config = {
        "seed": args.seed,
        "trials": args.trials,
        "delta_max": args.delta_max,
        "n_max": args.n_max,
        "corpus_max_n": args.corpus_max_n,
        "oracle_max_n": args.oracle_max_n,
        "checks": sorted(checks) if checks else "all",
        "tolerances": _tolerances(args),
    }
    return _emit_report(args, "lemmas", config, rows, violations, started)


# -- extremal --------------------------------------------------------------------


def cmd_extremal(args) -> int:
    started = time.perf_counter()
    table = extremal_table(
        (args.delta_min, args.delta_max), args.n_min, args.n_max,
        node_cap=args.oracle_cap,
    )
    rows = [{
        "n": r.n,
        "delta": r.delta,
        "threshold_q": r.threshold_q,
        "threshold_d": r.threshold_d,
        "bracket_ok": r.bracket_ok,
        "bracket_margin": r.bracket_margin,
        "even_factor": r.even_factor.value,
        "settled_by": r.settled_by,
    } for r in table]
    violations = [
        {"n": r["n"], "delta": r["delta"], "reason": "bracket violated"}
        for r in rows if not r["bracket_ok"]
    ]
    print(EXTREMAL_TABLE_NOTE)
    config = {
        "delta_range": [args.delta_min, args.delta_max],
        "n_min": args.n_min if args.n_min is not None else "per-delta bound",
        "n_max": args.n_max if args.n_max is not None else 40,
        "oracle_cap": args.oracle_cap,
        "note": EXTREMAL_TABLE_NOTE,
        "tolerances": _tolerances(args),
    }
    return _emit_report(args, "extremal", config, rows, violations, started)


# -- oracle ----------------------------------------------------------------------


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    graphs, bad = _parse_graphs(_read_lines(args.input))
    rows = []
    for line_no, text, g in graphs:
        cert = find_even_factor(g, node_cap=args.oracle_cap)
        rows.append({
            "line": line_no,
            "graph6": text,
            "n": g.n,
            "m": g.edge_count,
            "status": cert.status.value,
            "nodes_explored": cert.nodes_explored,
            "edges": list(cert.edges) if cert.edges is not None else None,
        })
    config = {
        "input": args.input or "-",
        "oracle_cap": args.oracle_cap,
        "tolerances": _tolerances(args),
    }
    columns = ["line", "graph6", "n", "m", "status", "nodes_explored"]
    return _emit_report(args, "oracle", config, rows, bad, started, columns)


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evenfactor",
        description="Spectral even-factor conditions: thresholds, verdicts, "
                    "exact oracle, and verification sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write a JSON report")
    common.add_argument("--csv", metavar="PATH", help="write rows as CSV")
    common.add_argument("--no-timing", action="store_true",
                        help="zero the timing field for byte-identical reports")
    common.add_argument("--tolerance", type=float, default=COMPARISON_EPSILON,
                        help="epsilon for spectral comparisons (default 1e-8)")
    common.add_argument("--oracle-cap", type=int, default=100_000_000,
                        help="search node budget before cap-exceeded")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectra", parents=[common],
                       help="n, m, min degree, rho_Q, Wiener, rho_D per graph")
    p.add_argument("input", nargs="?", help="graph6 file (default stdin)")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("certify", parents=[common],
                       help="per-graph even-factor verdicts for one condition")
    p.add_argument("input", nargs="?", help="graph6 file (default stdin)")
    p.add_argument("--theorem", choices=["1", "2"], default="1",
                   help="1: signless-Laplacian lower bound; 2: distance upper bound")
    p.add_argument("--oracle", choices=["on", "off"], default="off",
                   help="cross-check claims with the exact search")
    p.add_argument("--delta-override", type=int, default=None,
                   help="diagnostic only: evaluate thresholds at this delta "
                        "(non-theorem mode, no conclusions)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", parents=[common],
                       help="batch sweep over a corpus or seeded samples")
    p.add_argument("-n", type=int, default=None, help="vertex count")
    p.add_argument("--corpus", metavar="PATH", help="graph6 corpus file")
    p.add_argument("--sample-size", type=int, default=None,
                   help="number of seeded random samples")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--p-lo", type=float, default=DEFAULT_P_RANGE[0],
                   help="sampler edge-probability range, low end")
    p.add_argument("--p-hi", type=float, default=DEFAULT_P_RANGE[1],
                   help="sampler edge-probability range, high end")
    p.add_argument("--theorem", choices=["1", "2"], default="1")
    p.add_argument("--oracle", choices=["on", "off"], default="on")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("lemmas", parents=[common],
                       help="property-check suite over grids and seeded samples")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--delta-max", type=int, default=5)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--corpus-max-n", type=int, default=7,
                   help="exhaustive corpora up to this order feed the "
                        "Wiener lower-bound check")
    p.add_argument("--oracle-max-n", type=int, default=6,
                   help="even orders up to this feed the odd-component "
                        "implication check")
    p.add_argument("--check", action="append", choices=SUITE_CHECK_NAMES,
                   help="run only the named checks (repeatable)")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("extremal", parents=[common],
                       help="threshold table and even-factor status of the "
                            "extremal family")
    p.add_argument("--delta-min", type=int, default=2)
    p.add_argument("--delta-max", type=int, default=4)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("oracle", parents=[common],
                       help="run the exact even-factor search per input graph")
    p.add_argument("input", nargs="?", help="graph6 file (default stdin)")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
