"""Command-line front end: spectra, certify, scan, lemmas, extremal, oracle.

Input is newline-separated graph6 (file argument or stdin); a leading
">>graph6<<" header is stripped. Reports go to stdout as a table, and with
--json/--csv also to machine-readable files. Reports are deterministic for
fixed inputs, seed, and config; pass --no-timing to zero the timing field
when byte-identical output is needed. Exit status is 1 iff any violation
was found or any input line was malformed, and 2 for an argument error.

There is one verdict mode: certify and scan run the exact oracle on every
guarantee and every borderline verdict (one that no rung settles, the
extremal exception among them), and every report's config names the
oracle's node cap and the verdicts' tolerances. No verdict rests on a
float. A row's ``rung`` names what settled it: ``sandwich``, the lemma that
at delta = 2 only the extremal graph meets either condition, with no bound
at all; or an exact bound on rho (``row-sums``, ``power``, ``eigenvector``),
which is the row's ``spectral_bound``. Its ``spectral_value`` is the
eigen-solve's rho when one ran.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
import time
from contextlib import nullcontext
from random import Random
from typing import Iterable, Iterator, Optional

from . import __version__
from .corpus import BUNDLED_COUNTS, iter_bundled_corpus
from .graphs import Graph, Graph6Error, read_graph6, to_graph6
from .lemmas import COMPARISON_EPSILON, SUITE_CHECK_NAMES, run_property_suite
from .oracle import NODE_CAP, CertificateStatus, find_even_factor
from .quotient import ROOT_TOL
from .sampling import MIN_DEGREE, P_RANGE, sample_connected_graphs
from .spectral import RESIDUAL_TOL, distance_matrix, perron, rho_q
from .theorems import (
    EXTREMAL_TABLE_NOTE,
    Conclusion,
    TheoremKind,
    TheoremVerdict,
    check_even_factor_many,
    extremal_table,
    min_order,
    order_bound_grid,
)

SCHEMA_VERSION = "9"

_THEOREM_KINDS = {"1": TheoremKind.SIGNLESS_LAPLACIAN, "2": TheoremKind.DISTANCE}

# the tolerances the verdicts read; lemmas reports also name its own
# comparison_epsilon
TOLERANCES = {
    "eigen_residual_tol": RESIDUAL_TOL,
    "root_tol": ROOT_TOL,
}

# the oracle table leaves out the edge lists, which --json and --csv carry
_TABLE_COLUMNS = {"oracle": ["line", "graph6", "n", "m", "status", "nodes_explored"]}

# what each command hands to _emit_report: config, rows, violations
Report = tuple[dict, list[dict], list[dict]]


def _parse_graphs(source: Optional[str], bad: list[dict]) -> Iterator[tuple[int, str, Graph]]:
    """(line_no, graph6, graph) per well-formed line of the file source, or
    of stdin for None or "-", read and decoded lazily by read_graph6.

    Each malformed line's violation is appended to bad as it is found; once
    the items are exhausted, bad holds them all, in line order.
    """
    with (nullcontext(sys.stdin.buffer) if source in (None, "-")
          else open(source, "rb")) as fh:
        # splitting each newline-ended line again splits on the line breaks
        # of bytes.splitlines, "\r" and "\r\n" as well as "\n"
        lines = itertools.chain.from_iterable(map(bytes.splitlines, fh))

        def texts():
            for line_no, raw in enumerate(lines, start=1):
                try:
                    text = raw.decode("ascii").strip()
                except UnicodeDecodeError as exc:
                    bad.append({
                        "line": line_no,
                        "graph6": raw.decode("ascii", "backslashreplace").strip(),
                        "error": f"non-ASCII byte 0x{raw[exc.start]:02x} "
                                 f"at column {exc.start + 1}",
                    })
                    continue
                if text:
                    yield line_no, text

        # read_graph6 reads a batch ahead of what it yields; tee holds the
        # line numbers of that batch
        numbered, decode = itertools.tee(texts())
        for (line_no, text), g in zip(numbered, read_graph6(text for _, text in decode)):
            if isinstance(g, Graph6Error):
                bad.append({"line": line_no, "graph6": text, "error": str(g)})
            else:
                yield line_no, text, g
    bad.sort(key=lambda v: v["line"])


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
    cells = [[_fmt(row.get(c)) for row in rows] for c in cols]
    widths = [max(len(c), *map(len, column)) for c, column in zip(cols, cells)]
    print("\n".join("  ".join(s.ljust(w) for s, w in zip(line, widths))
                    for line in (cols, *zip(*cells))))


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def _emit_report(args, config: dict, rows: list[dict], violations: list[dict],
                 started: float) -> int:
    """Print the table and violations, write --json/--csv; the exit status.

    Every report's config carries the oracle's node cap and the verdicts'
    tolerances next to the command's own settings. The JSON report has one
    top-level key per line, in sorted order, and one row or violation per
    line, each written as it is encoded. ``json.dumps`` without ``indent`` runs the C
    encoder; with ``indent`` (or through ``json.dump``) CPython falls back
    to its pure-Python encoder, which cost more than the oracle itself on
    per-graph reports.
    """
    timing = 0.0 if args.no_timing else time.perf_counter() - started
    _print_table(rows, _TABLE_COLUMNS.get(args.command))
    if violations:
        print(f"\n{len(violations)} violation(s):")
        for v in violations:
            print("  " + _dumps(v))
    else:
        print("\nno violations")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": {**config, "oracle_cap": NODE_CAP, "tolerances": TOLERANCES},
        "rows": rows,
        "violations": violations,
        "timing_seconds": timing,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write("{")
            for i, key in enumerate(sorted(report)):
                value = report[key]
                fh.write(f'{"," if i else ""}\n  {_dumps(key)}: ')
                if key in ("rows", "violations") and value:
                    for j, item in enumerate(value):
                        fh.write(f'{"," if j else "["}\n    {_dumps(item)}')
                    fh.write("\n  ]")
                else:
                    fh.write(_dumps(value))
            fh.write("\n}\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                for row in rows:
                    writer.writerow({k: _dumps(v) if isinstance(v, list) else v
                                     for k, v in row.items()})
    return 1 if violations else 0


# -- spectra ------------------------------------------------------------------


def cmd_spectra(args) -> Report:
    bad: list[dict] = []
    rows = []
    for line_no, text, g in _parse_graphs(args.input, bad):
        # one distance matrix gives both W and rho_D
        dist = distance_matrix(g) if g.n >= 1 and g.is_connected() else None
        rows.append({
            "line": line_no,
            "graph6": text,
            "n": g.n,
            "m": g.edge_count,
            "min_degree": g.min_degree(),
            "rho_q": rho_q(g) if g.n >= 1 else None,
            "wiener": int(dist.sum()) // 2 if dist is not None else None,
            "rho_d": float(perron(dist)[0]) if dist is not None else None,
        })
    return {"input": args.input or "-"}, rows, bad


# -- certify ------------------------------------------------------------------


def _judge(items: Iterable[tuple[int, Optional[str], Graph]], kind: TheoremKind
           ) -> Iterable[tuple[int, Optional[str], Graph, TheoremVerdict]]:
    """(line_no, graph6, graph, verdict) per input, in input order."""
    items, graphs = itertools.tee(items)
    verdicts = check_even_factor_many((g for _, _, g in graphs), kind)
    for (line_no, text, g), v in zip(items, verdicts):
        yield line_no, text, g, v


def _spectral_bound(v: TheoremVerdict) -> Optional[float]:
    """The exact bound that settled v, correctly rounded to a float."""
    return v.bound[0] / v.bound[1] if v.bound is not None else None


def _verdict_row(line_no: int, text: str, v: TheoremVerdict) -> dict:
    return {
        "line": line_no,
        "graph6": text,
        "n": v.n,
        "min_degree": v.min_degree,
        "spectral_value": v.spectral_value,
        "spectral_bound": _spectral_bound(v),
        "threshold": v.threshold,
        "borderline": v.borderline,
        "rung": v.rung,
        "conclusion": v.conclusion.value,
        "oracle_status": v.oracle_status.value if v.oracle_status else None,
        "oracle_agrees": v.oracle_agrees,
    }


def _contradiction(line_no: int, text: str, v: TheoremVerdict) -> dict:
    """The violation row of a guarantee that the oracle refutes."""
    return {
        "line": line_no,
        "graph6": text,
        "spectral_value": v.spectral_value,
        "spectral_bound": _spectral_bound(v),
        "threshold": v.threshold,
        "oracle_status": v.oracle_status.value,
        "reason": "guaranteed conclusion contradicted by the oracle",
    }


def cmd_certify(args) -> Report:
    kind = _THEOREM_KINDS[args.theorem]
    bad: list[dict] = []
    rows = []
    contradicted = []
    for line_no, text, _, v in _judge(_parse_graphs(args.input, bad), kind):
        row = _verdict_row(line_no, text, v)
        rows.append(row)
        if v.oracle_agrees is False:
            contradicted.append(_contradiction(line_no, text, v))
    config = {"input": args.input or "-", "theorem": args.theorem}
    return config, rows, bad + contradicted


# -- scan ---------------------------------------------------------------------


def _scan_source(args, bad: list[dict]) -> tuple[str, Iterable[tuple[int, Optional[str], Graph]]]:
    """The scan's label and (line_no, graph6, graph) items; a corpus's parse
    violations go to bad as _parse_graphs finds them.

    Sampled graphs carry no graph6 text; a row that needs one encodes it.
    """
    if args.corpus:
        return f"corpus:{args.corpus}", _parse_graphs(args.corpus, bad)
    if args.sample_size is not None:
        graphs = sample_connected_graphs(Random(args.seed), args.n, args.sample_size)
        return (f"sampler:n={args.n},size={args.sample_size},seed={args.seed}",
                ((i, None, g) for i, g in enumerate(graphs, 1)))
    return (
        f"bundled:n={args.n}",
        ((i, line, g) for i, (line, g) in enumerate(iter_bundled_corpus(args.n), 1)),
    )


def cmd_scan(args) -> Report:
    kind = _THEOREM_KINDS[args.theorem]
    bad: list[dict] = []
    source, graphs = _scan_source(args, bad)
    contradicted = []
    # a verdict with no bound and no oracle answer holds nothing of its own
    # graph: its cell alone determines it, and one object serves the whole
    # cell. Those are counted by identity and their fields read once, at the
    # end; every other verdict is one graph's own, counted as it comes and
    # then dropped, and only those can be contradicted.
    shared: dict[int, list] = {}

    def tally() -> Iterator[tuple[TheoremVerdict, int]]:
        """(verdict, graphs) pairs: each own verdict with 1, then each shared
        verdict with the number of graphs given it."""
        for line_no, text, g, v in _judge(graphs, kind):
            if v.bound is None and v.oracle_status is None:
                entry = shared.get(id(v))
                if entry is None:
                    entry = shared[id(v)] = [v, 0]
                entry[1] += 1
                continue
            if v.oracle_agrees is False:
                text = text if text is not None else to_graph6(g)
                contradicted.append(_contradiction(line_no, text, v))
            yield v, 1
        yield from shared.values()

    counts = {c.value: 0 for c in Conclusion}
    total = borderline = sandwich = bound_decided = oracle_runs = cap_exceeded = 0
    for v, k in tally():
        total += k
        counts[v.conclusion.value] += k
        if v.borderline:
            borderline += k
        if v.rung == "sandwich":
            sandwich += k
        elif v.rung in ("row-sums", "power"):
            bound_decided += k
        if v.oracle_status is not None:
            oracle_runs += k
            if v.oracle_status is CertificateStatus.SEARCH_CAP_EXCEEDED:
                cap_exceeded += k
    violations = bad + contradicted
    rows = [{
        "source": source,
        "inputs": total,
        **counts,
        "borderline": borderline,
        "sandwich": sandwich,
        "bound_decided": bound_decided,
        "oracle_runs": oracle_runs,
        "oracle_cap_exceeded": cap_exceeded,
        "violations": len(violations),
    }]
    config = {
        "source": source,
        "theorem": args.theorem,
        "seed": args.seed,
        "p_range": list(P_RANGE),
    }
    return config, rows, violations


# -- lemmas ---------------------------------------------------------------------


def cmd_lemmas(args) -> Report:
    outcomes = run_property_suite(
        seed=args.seed,
        trials=args.trials,
        delta_range=(2, args.delta_max),
        n_max=args.n_max,
        corpus_max_n=args.corpus_max_n,
        oracle_max_n=args.oracle_max_n,
        checks=args.check,
    )
    per_check: dict[str, dict] = {}
    for o in outcomes:
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
        for o in outcomes if not o.passed
    ]
    config = {
        "seed": args.seed,
        "trials": args.trials,
        "delta_max": args.delta_max,
        "n_max": args.n_max,
        "corpus_max_n": args.corpus_max_n,
        "oracle_max_n": args.oracle_max_n,
        "checks": sorted(set(args.check)) if args.check else "all",
        "comparison_epsilon": COMPARISON_EPSILON,
    }
    return config, rows, violations


# -- extremal --------------------------------------------------------------------


def cmd_extremal(args) -> Report:
    table = extremal_table((args.delta_min, args.delta_max), n_min=args.n_min, n_max=args.n_max)
    rows = [{**dataclasses.asdict(r), "even_factor": r.even_factor.value} for r in table]
    # the paper claims the bracket only from the order bound on; below it
    # bracket_ok is data
    violations = [
        {"n": r.n, "delta": r.delta, "reason": "bracket violated"}
        for r in table
        if not r.bracket_ok
        and r.n >= min_order(TheoremKind.SIGNLESS_LAPLACIAN, r.delta)
    ]
    print(EXTREMAL_TABLE_NOTE)
    config = {
        "delta_range": [args.delta_min, args.delta_max],
        "n_min": args.n_min if args.n_min is not None else "per-delta bound",
        "n_max": args.n_max if args.n_max is not None else "max(40, first order)",
        "note": EXTREMAL_TABLE_NOTE,
    }
    return config, rows, violations


# -- oracle ----------------------------------------------------------------------


def cmd_oracle(args) -> Report:
    bad: list[dict] = []
    rows = []
    for line_no, text, g in _parse_graphs(args.input, bad):
        cert = find_even_factor(g)
        rows.append({
            "line": line_no,
            "graph6": text,
            "n": g.n,
            "m": g.edge_count,
            "status": cert.status.value,
            "nodes_explored": cert.nodes_explored,
            "edges": list(cert.edges) if cert.edges is not None else None,
        })
    return {"input": args.input or "-"}, rows, bad


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
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", parents=[common],
                       help="batch sweep over a corpus or seeded samples")
    p.add_argument("-n", type=int, default=None, help="vertex count")
    p.add_argument("--corpus", metavar="PATH", help="graph6 corpus file")
    p.add_argument("--sample-size", type=int, default=None,
                   help="number of seeded random samples")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--theorem", choices=["1", "2"], default="1")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("lemmas", parents=[common],
                       help="property-check suite over grids and seeded samples")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--delta-max", type=int, default=5)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--corpus-max-n", type=int, default=7,
                   help="bundled corpora up to this order (at most 8) feed "
                        "the Wiener lower-bound, rho_Q <= 2 Delta and "
                        "delta = 2 sandwich checks")
    p.add_argument("--oracle-max-n", type=int, default=6,
                   help="bundled corpora up to this order (at most 8) feed "
                        "the odd-component implication (even orders) and "
                        "the odd-order observation")
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


def _unusable_paths(args) -> Iterable[str]:
    """Why each input or report path named in args cannot work, if it cannot."""
    source = args.corpus if args.command == "scan" else getattr(args, "input", None)
    if source not in (None, "-"):
        try:
            open(source, "rb").close()
        except OSError as exc:
            yield f"{args.command}: cannot read {source}: {exc.strerror}"
    for flag, path in (("--json", args.json), ("--csv", args.csv)):
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            yield f"{args.command}: {flag} {path}: no directory {folder}"
        elif os.path.isdir(path):
            yield f"{args.command}: {flag} {path}: is a directory"


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for problem in _unusable_paths(args):
        parser.error(problem)
    if args.command == "scan" and args.corpus:
        if args.n is not None or args.sample_size is not None:
            parser.error("scan: --corpus reads its graphs from the file; "
                         "it takes neither -n nor --sample-size")
    if args.command == "scan" and not args.corpus:
        if args.sample_size is None:
            if args.n not in BUNDLED_COUNTS:
                parser.error("scan: need --corpus, or --sample-size, or -n in 1..8 "
                             "for a bundled corpus")
        elif args.n is None:
            parser.error("scan: --sample-size needs -n")
        elif args.sample_size < 0:
            parser.error(f"scan: --sample-size must be >= 0, got {args.sample_size}")
        elif args.n <= MIN_DEGREE:
            parser.error(f"scan: the sampler needs -n >= {MIN_DEGREE + 1}: no connected "
                         f"graph on {args.n} vertices has minimum degree {MIN_DEGREE}")
    if args.command == "lemmas":
        top = max(BUNDLED_COUNTS)
        for flag, value in (("--corpus-max-n", args.corpus_max_n),
                            ("--oracle-max-n", args.oracle_max_n)):
            if not 0 <= value <= top:
                parser.error(f"lemmas: {flag} must be in 0..{top}, the orders of "
                             f"the bundled corpora, got {value}")
        if args.trials < 0:
            parser.error(f"lemmas: --trials must be >= 0, got {args.trials}")
        if args.delta_max < 2:
            parser.error(f"lemmas: --delta-max must be >= 2, the smallest delta "
                         f"of the grid checks, got {args.delta_max}")
    if args.command == "extremal":
        if args.delta_min < 2:
            parser.error(f"extremal: --delta-min must be >= 2, got {args.delta_min}")
        if args.delta_max < args.delta_min:
            parser.error(f"extremal: --delta-max must be >= --delta-min "
                         f"({args.delta_min}), got {args.delta_max}")
    if args.command in ("lemmas", "extremal") and args.n_max is not None:
        # the distance bound is at least the signless-Laplacian one at every
        # delta >= 2, so the distance grid names every delta a lemma grid loses
        if args.command == "lemmas":
            kind, deltas, n_min = TheoremKind.DISTANCE, (2, args.delta_max), None
        else:
            kind, deltas, n_min = (TheoremKind.SIGNLESS_LAPLACIAN,
                                   (args.delta_min, args.delta_max), args.n_min)
        lost = []
        for delta in range(deltas[0], deltas[1] + 1):
            first, _ = next(order_bound_grid(kind, (delta, delta), n_min=n_min))
            if first > args.n_max:
                lost.append(f"{delta} (first order {first})")
        if lost:
            parser.error(f"{args.command}: --n-max {args.n_max} lies below the grid of "
                         f"delta = {', '.join(lost)}")
    started = time.perf_counter()
    config, rows, violations = args.func(args)
    return _emit_report(args, config, rows, violations, started)


if __name__ == "__main__":
    sys.exit(main())
