"""In-memory spans around calls into the coxtwist layers.

The benchmark opens spans around the calls it makes itself (set-up, one
query, one verify pass, the CLI).  For the calls the layers make to each
other, a traced run replaces the functions listed in ``INSTRUMENTED`` by
wrappers for its duration; the package looks those names up through its
modules at call time, so calls from verify into its suites, from verify
into cosets or from cosets into core are recorded too, with the span that
caused them as parent.  Spans stay in flat arrays until the run writes
them out at exit.
"""
from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from collections import defaultdict

from coxtwist import core, cosets, descriptions, twisted, verify

# Suite name -> the public check function that verify.run_suite calls for it.
VERIFY_CHECKS = {
    "fixed-subgroup-equality": "check_fixed_subgroup_equality",
    "generator-parity": "check_generator_parity",
    "length-additivity": "check_prop_additivity",
    "coset-partition": "check_coset_partition",
    "bruhat-minimal-equality": "check_bruhat_minimal_equality",
    "minimal-chains": "check_minimal_chains",
    "step-dichotomy": "check_step_dichotomy",
    "dominated-minimal-search": "check_dominated_search",
    "ascent-implies-bruhat": "check_lemma_long_gen",
    "equal-length-transfer": "check_lemma_corr",
    "commuting-reflection-inversions": "check_lemma_commuting_reflections",
    "bruhat-oracle-agreement": "check_oracle_agreement",
}

# (span name, owner, attribute): cosets imports twisted_reduced_word by
# name, so that binding is replaced as well.  verify builds its Bruhat
# oracle masks in one private function, cached on the system; the span of
# its first call on a system is the build.
INSTRUMENTED = [
    ("descriptions.build", descriptions.GroupDescription, "build"),
    ("core.build_system", core, "build_system"),
    ("core.bruhat_leq", core, "bruhat_leq"),
    ("core.reflections", core, "reflections"),
    ("twisted.enumerate_fixed_subgroup", twisted, "enumerate_fixed_subgroup"),
    ("twisted.twisted_reduced_word", twisted, "twisted_reduced_word"),
    ("twisted.twisted_reduced_word", cosets, "twisted_reduced_word"),
    ("cosets.all_cosets", cosets, "all_cosets"),
    ("cosets.coset", cosets, "coset"),
    ("cosets.dominate", cosets, "dominate"),
    ("verify.oracle_masks", verify, "_below_masks"),
    *((f"verify.{suite}", verify, fn) for suite, fn in VERIFY_CHECKS.items()),
]

LAYERS = ("bench", "rings", "descriptions", "core", "twisted", "cosets", "verify", "cli")


class Tracer:
    """Spans as parallel arrays: name id, start and end (ns), parent span
    (-1 for a root) and the query id the benchmark set when it opened."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self._stack: list[int] = []
        self.query_id = -1

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Record a span around every call of an INSTRUMENTED function."""
        saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in INSTRUMENTED]
        try:
            for (name, owner, attr), (_, _, fn) in zip(INSTRUMENTED, saved):
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # -- summaries --------------------------------------------------------

    def durations(self, query=lambda q: True) -> dict[str, list[float]]:
        """Span durations in seconds grouped by span name, over the spans
        whose query id satisfies ``query``."""
        out = defaultdict(list)
        for i, nid in enumerate(self.name):
            if query(self.query[i]):
                out[self.names[nid]].append((self.end[i] - self.start[i]) / 1e9)
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i, nid in enumerate(self.name):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (self.end[i] - self.start[i] - child[i]) / 1e9
        return out

    def write(self, path) -> None:
        """Write the spans as gzip CSV: id,name,start_ns,end_ns,parent,query."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_ns,end_ns,parent,query\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.query[i]}\n"
                )


class NullTracer:
    """Stand-in for untraced runs: spans record nothing."""

    query_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        yield
