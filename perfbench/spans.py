"""Span tracing around the evenfactor layers, from outside the program.

The tracer replaces each public function of the layer modules with a
wrapper at every name that binds it inside the package (so
``theorems.rho_q`` and ``cli.rho_q`` are both traced), and restores the
originals on ``remove``. A span is (name, start, end, parent), kept in flat
in-memory arrays and written out once at the end. Some wrappers also read
counts off arguments and results (search nodes, eigen residuals), so the
ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "evenfactor"
LAYERS = ("corpus", "graphs", "sampling", "spectral", "quotient", "theorems", "oracle")
ROOT = "cli.main"


def _eigen_residual(args, result, counts):
    m = np.asarray(args[0], dtype=float)
    r = float(np.max(np.abs(m @ result.vector - result.value * result.vector)))
    counts["spectral.eigen_max_residual"] = max(counts["spectral.eigen_max_residual"], r)


def _search(args, result, counts):
    counts["oracle.nodes"] += result.nodes_explored
    counts["oracle.cap_exceeded"] += result.status.value == "cap-exceeded"


def _oddcomp(args, result, counts):
    counts["oracle.oddcomp_subsets"] += result.subsets_checked


def _verdict(args, result, counts):
    counts["theorems.guarantees_confirmed"] += (
        result.conclusion.value == "even-factor-guaranteed" and result.oracle_agrees is True)


PROBES = {
    "spectral.largest_eigenvalue": _eigen_residual,
    "oracle.find_even_factor": _search,
    "oracle.odd_component_condition": _oddcomp,
    "theorems.check_even_factor": _verdict,
}


class Tracer:
    """Spans and probe counts of the wrapped functions, for one run."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.origin = time.perf_counter()

    def _wrap(self, qualname: str, fn):
        sid = len(self.names)
        self.names.append(qualname)
        probe = PROBES.get(qualname)
        name, parent, start, end, stack, counts = (
            self.name, self.parent, self.start, self.end, self._stack, self.counts)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if probe is not None:
                probe(args, result, counts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions and cli.main at every binding in the package."""
        if not self._wrappers:
            targets = [(ROOT, sys.modules[f"{PACKAGE}.cli"].main)]
            for layer in LAYERS:
                mod = sys.modules[f"{PACKAGE}.{layer}"]
                for attr, fn in sorted(vars(mod).items()):
                    if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                            and not attr.startswith("_") and not inspect.isgeneratorfunction(fn)):
                        targets.append((f"{layer}.{attr}", fn))
            self._wrappers = {id(fn): self._wrap(q, fn) for q, fn in targets}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - covered

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics; a layer never called reads 0."""
        name, dur, self_time = self._arrays()
        ids = {q: i for i, q in enumerate(self.names)}

        def select(*qualnames):
            wanted = [ids[q] for q in qualnames if q in ids]
            return np.isin(name, wanted)

        def total(*qualnames):
            return float(dur[select(*qualnames)].sum()) / passes

        def calls(*qualnames):
            return int(select(*qualnames).sum()) // passes

        def self_of(*qualnames):
            return float(self_time[select(*qualnames)].sum()) / passes

        search = np.sort(dur[select("oracle.find_even_factor")]) * 1e3
        layer_self = {
            layer: self_of(*[q for q in self.names if q.startswith(layer + ".")])
            for layer in LAYERS
        }
        draws = calls("sampling.sample_graph")
        out = {
            "spectral.eigen_s": total("spectral.largest_eigenvalue"),
            "spectral.eigen_calls": calls("spectral.largest_eigenvalue"),
            "spectral.eigen_max_residual": self.counts["spectral.eigen_max_residual"],
            "spectral.q_matrix_s": total("spectral.signless_laplacian"),
            "spectral.d_matrix_s": total("spectral.distance_matrix"),
            "sampling.sample_s": total("sampling.sample_connected_graph"),
            "sampling.accept_ratio": calls("sampling.sample_connected_graph") / draws if draws else 0.0,
            "graphs.decode_s": total("graphs.from_graph6"),
            "graphs.decode_calls": calls("graphs.from_graph6"),
            "graphs.encode_s": total("graphs.to_graph6"),
            "corpus.load_s": total("corpus.load_bundled_corpus"),
            "quotient.root_s": total("quotient.largest_root"),
            "quotient.root_calls": calls("quotient.largest_root"),
            "theorems.threshold_s": total("theorems.threshold_rho_q", "theorems.threshold_rho_d"),
            "theorems.threshold_calls": calls("theorems.threshold_rho_q", "theorems.threshold_rho_d"),
            "theorems.recognize_s": total("theorems.recognize_extremal"),
            "theorems.verdict_self_s": self_of("theorems.check_even_factor"),
            "theorems.guarantees_confirmed": self.counts["theorems.guarantees_confirmed"] // passes,
            "oracle.search_s": total("oracle.find_even_factor"),
            "oracle.search_calls": calls("oracle.find_even_factor"),
            "oracle.nodes": self.counts["oracle.nodes"] // passes,
            "oracle.search_p50_ms": float(np.percentile(search, 50)) if search.size else 0.0,
            "oracle.search_p99_ms": float(np.percentile(search, 99)) if search.size else 0.0,
            "oracle.cap_exceeded": self.counts["oracle.cap_exceeded"] // passes,
            "oracle.oddcomp_s": total("oracle.odd_component_condition"),
            "oracle.oddcomp_subsets": self.counts["oracle.oddcomp_subsets"] // passes,
            "cli.self_s": self_of(ROOT),
        }
        out.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
        return out

    def save(self, path) -> None:
        """Write every span: name index, parent span index, start and end
        in seconds since the tracer was created."""
        origin = self.origin
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float) - origin,
            end=np.frombuffer(self.end, dtype=float) - origin,
        )
