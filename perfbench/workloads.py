"""The four benchmark workloads: seeded inputs, CLI commands, output checks.

A workload is prepared once per run (inputs written before any timing) and
then executed as repeated passes. A pass runs the workload's CLI commands in
order; its check reads the JSON reports those commands wrote and counts
failed inputs. Every failure kind named by the benchmark counts: an oracle
violation, a malformed line, an oracle cap-exceeded, an invalid
certificate, and a count that differs from the reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

VERDICTS = ("even-factor-guaranteed", "extremal-exception", "inconclusive", "not-applicable")
# reference verdict counts for `scan -n 8 --theorem 1` over the bundled corpus
EXHAUSTIVE_N8_COUNTS = {
    "even-factor-guaranteed": 0,
    "extremal-exception": 1,
    "inconclusive": 4852,
    "not-applicable": 6264,
}
EXHAUSTIVE_N8_GRAPHS = 11117
# the odd-component check reads the bundled corpora of even order 4..8
ODD_COMPONENT_GRAPHS = 6 + 112 + 11117
ODD_COMPONENT_POINTS = 2206   # of those, graphs on which the condition holds

SAMPLED_SIZE = 3000
NEAR_EXTREMAL_PER_CELL = 200
ORACLE_DENSE_COUNT = 400
ORACLE_DENSE_ORDER = 15


@dataclass
class PassCheck:
    """Outcome of checking one pass: inputs carried, inputs failed, and why."""

    graphs: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: list[int] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def report(self, path: Path, code: int, graphs: int) -> dict:
        """Load a command's JSON report; a missing one fails all its inputs."""
        try:
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
        except (OSError, ValueError) as exc:
            self.fail(graphs, f"{path.name}: no readable report ({exc})")
            return {"rows": [], "violations": []}
        if code != 0 and not rep.get("violations"):
            self.fail(1, f"{path.name}: exit status {code} without violations")
        if rep.get("violations"):
            self.fail(len(rep["violations"]), f"{path.name}: {len(rep['violations'])} violation(s)")
        # a hash, so that keeping every pass's rows does not grow peak_rss_mb;
        # str hashes are stable within the process, which is all passes need
        self.fingerprint.append(hash(json.dumps(rep.get("rows"), sort_keys=True)))
        return rep

    def scan_row(self, rep: dict, path: Path, graphs: int) -> dict:
        rows = rep.get("rows") or [{}]
        row = rows[0]
        if row.get("inputs") != graphs:
            self.fail(abs(graphs - (row.get("inputs") or 0)) or 1,
                      f"{path.name}: {row.get('inputs')} inputs, expected {graphs}")
        if row.get("oracle_cap_exceeded"):
            self.fail(row["oracle_cap_exceeded"],
                      f"{path.name}: {row['oracle_cap_exceeded']} oracle cap-exceeded")
        return row


@dataclass
class Workload:
    commands: list[list[str]]
    graphs_per_pass: int
    check: Callable[[list[int]], PassCheck]


def exhaustive_n8(seed: int, work: Path) -> Workload:
    """Acceptance criteria 4 and 3 over the bundled corpora; the seed is unused."""
    scan_json = work / "exhaustive_scan.json"
    lemma_json = work / "exhaustive_lemmas.json"
    commands = [
        ["scan", "-n", "8", "--theorem", "1", "--json", str(scan_json)],
        ["lemmas", "--check", "odd-component-implication", "--oracle-max-n", "8",
         "--corpus-max-n", "0", "--json", str(lemma_json)],
    ]
    graphs = EXHAUSTIVE_N8_GRAPHS + ODD_COMPONENT_GRAPHS

    def check(codes: list[int]) -> PassCheck:
        c = PassCheck(graphs)
        row = c.scan_row(c.report(scan_json, codes[0], EXHAUSTIVE_N8_GRAPHS),
                         scan_json, EXHAUSTIVE_N8_GRAPHS)
        off = sum(abs(row.get(k, 0) - v) for k, v in EXHAUSTIVE_N8_COUNTS.items())
        if off:
            c.fail((off + 1) // 2, f"scan -n 8 verdict counts differ from the reference: {row}")
        rows = c.report(lemma_json, codes[1], ODD_COMPONENT_GRAPHS)["rows"]
        lemma = next((r for r in rows if r.get("check") == "odd-component-implication"), {})
        if lemma.get("failed", 1) or lemma.get("points") != ODD_COMPONENT_POINTS:
            c.fail(max(lemma.get("failed", 1), abs((lemma.get("points") or 0) - ODD_COMPONENT_POINTS)),
                   f"odd-component implication: {lemma}, expected "
                   f"{ODD_COMPONENT_POINTS} points and 0 failed")
        return c

    return Workload(commands, graphs, check)


def sampled_d_n10(seed: int, work: Path) -> Workload:
    """Acceptance criterion 5 at a fixed sample size; the sampler gets the seed."""
    scan_json = work / "sampled_scan.json"
    commands = [["scan", "-n", "10", "--sample-size", str(SAMPLED_SIZE), "--seed", str(seed),
                 "--theorem", "2", "--json", str(scan_json)]]

    def check(codes: list[int]) -> PassCheck:
        c = PassCheck(SAMPLED_SIZE)
        row = c.scan_row(c.report(scan_json, codes[0], SAMPLED_SIZE), scan_json, SAMPLED_SIZE)
        verdicts = sum(row.get(k, 0) for k in VERDICTS)
        if verdicts != SAMPLED_SIZE:
            c.fail(abs(SAMPLED_SIZE - verdicts) or 1,
                   f"verdict counts sum to {verdicts}, expected {SAMPLED_SIZE}")
        return c

    return Workload(commands, SAMPLED_SIZE, check)


def near_extremal(seed: int, work: Path) -> Workload:
    """Seeded graphs near the extremal graph at the four order-bound cells."""
    inputs = gen.near_extremal_inputs(seed, NEAR_EXTREMAL_PER_CELL)
    commands = []
    files = []
    for theorem, graphs in sorted(inputs.items()):
        g6 = work / f"near_extremal_{theorem}.g6"
        gen.write_graph6(g6, graphs)
        out = work / f"near_extremal_{theorem}.json"
        commands.append(["scan", "--corpus", str(g6), "--theorem", theorem, "--json", str(out)])
        files.append((out, len(graphs)))
    total = sum(k for _, k in files)

    def check(codes: list[int]) -> PassCheck:
        c = PassCheck(total)
        confirmed = 0
        for (out, k), code in zip(files, codes):
            row = c.scan_row(c.report(out, code, k), out, k)
            if row.get("not-applicable"):
                c.fail(row["not-applicable"],
                       f"{out.name}: {row['not-applicable']} generated graphs judged not-applicable")
            # with --oracle on every guarantee is searched; a guarantee is
            # confirmed unless it was reported as a violation or hit the cap
            confirmed += (row.get("even-factor-guaranteed", 0) - row.get("violations", 0)
                          - row.get("oracle_cap_exceeded", 0))
        if confirmed <= 0:
            c.fail(total, "no oracle-confirmed guarantee: the sweep verified nothing")
        return c

    return Workload(commands, total, check)


def oracle_dense(seed: int, work: Path) -> Workload:
    """Seeded dense graphs, half with a planted even factor, half with none."""
    inputs = gen.oracle_dense_inputs(seed, ORACLE_DENSE_COUNT, ORACLE_DENSE_ORDER)
    g6 = work / "oracle_dense.g6"
    gen.write_graph6(g6, [(n, edges) for n, edges, _ in inputs])
    out = work / "oracle_dense.json"
    commands = [["oracle", str(g6), "--json", str(out)]]

    def check(codes: list[int]) -> PassCheck:
        c = PassCheck(len(inputs))
        rows = c.report(out, codes[0], len(inputs))["rows"]
        if len(rows) != len(inputs):
            c.fail(abs(len(inputs) - len(rows)), f"{len(rows)} rows for {len(inputs)} graphs")
        bad = {}
        for (n, edges, has_factor), row in zip(inputs, rows):
            status = row.get("status")
            if status == "found":
                ok = has_factor and gen.is_even_factor(n, edges, row.get("edges") or [])
            else:
                ok = status == "none-exists" and not has_factor
            if not ok:
                key = f"{status} ({'with' if has_factor else 'without'} factor)"
                bad[key] = bad.get(key, 0) + 1
        for key, count in sorted(bad.items()):
            c.fail(count, f"oracle: {count} wrong or unchecked result(s): {key}")
        return c

    return Workload(commands, len(inputs), check)


WORKLOADS = {
    "exhaustive-n8": exhaustive_n8,
    "sampled-d-n10": sampled_d_n10,
    "near-extremal": near_extremal,
    "oracle-dense": oracle_dense,
}
