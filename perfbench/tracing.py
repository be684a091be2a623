"""Spans around the package's public functions, installed from outside the package.

A traced function is replaced by a wrapper in every ``sparsecert`` module
that holds it, so calls made through a module attribute
(``geometry.xi``) and through a name imported elsewhere
(``experiment.build_certificate``) are both seen. A function that no longer
exists is skipped and reports zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict


def _kernel_counts(args, result):
    yield "submatrices", len(args["edges"])


def _glp_counts(args, result):
    vectors = args["vectors"]
    count = vectors.shape[1] if getattr(vectors, "ndim", 1) == 2 else 1
    k = args["k"]
    if count < k:
        return
    n_subsets = math.comb(count, k)
    if n_subsets <= args["subset_cap"]:
        yield "subsets", n_subsets
    else:
        yield "subsets", args["samples"]
        yield "sampled_calls", 1


def _complete_counts(args, result):
    yield "edges", math.comb(args["m"], args["k"])


def _lemma4_counts(args, result):
    yield "admissible", result.admissible


# (home module, attribute, span name, counter over (bound arguments, result))
TARGETS = [
    ("sparsecert._kernels", "edge_min_singular_values",
     "kernels.edge_min_singular_values", _kernel_counts),
    ("sparsecert.hypergraph", "build_complete", "hypergraph.build_complete",
     _complete_counts),
    ("sparsecert.hypergraph", "pairwise_unions", "hypergraph.pairwise_unions", None),
    ("sparsecert.geometry", "xi", "geometry.xi", None),
    ("sparsecert.geometry", "intersect", "geometry.intersect", None),
    ("sparsecert.geometry", "friedrichs_angle", "geometry.friedrichs_angle", None),
    ("sparsecert.geometry", "column_span", "geometry.column_span", None),
    ("sparsecert.geometry", "restricted_lower_bound",
     "geometry.restricted_lower_bound", None),
    ("sparsecert.geometry", "spark_condition", "geometry.spark_condition", None),
    ("sparsecert.codes", "general_linear_position",
     "codes.general_linear_position", _glp_counts),
    ("sparsecert.codes", "generate_instance", "codes.generate_instance", None),
    ("sparsecert.constants", "compute_C2", "constants.compute_C2", None),
    ("sparsecert.constants", "compute_C1", "constants.compute_C1", None),
    ("sparsecert.constants", "build_certificate", "constants.build_certificate", None),
    ("sparsecert.alignment", "align_dictionaries", "alignment.align_dictionaries", None),
    ("sparsecert.alignment", "linear_sum_assignment", "alignment.matching_oracle", None),
    ("sparsecert.alignment", "verify_theorem1", "alignment.verify_theorem1", None),
    ("sparsecert.experiment", "perturb_instance", "experiment.perturb_instance", None),
    ("sparsecert.experiment", "run_experiment", "experiment.run_experiment", None),
    ("sparsecert.lemmas", "check_lemma3", "lemmas.check_lemma3", None),
    ("sparsecert.lemmas", "check_lemma4", "lemmas.check_lemma4", _lemma4_counts),
    ("sparsecert.cli", "cmd_certify", "cli.cmd_certify", None),
    ("sparsecert.cli", "cmd_check_lemmas", "cli.cmd_check_lemmas", None),
]


def _serialize_targets():
    """Every public function of ``sparsecert.serialize``, one span name each."""
    module = sys.modules.get("sparsecert.serialize")
    if module is None:
        return []
    return [
        ("sparsecert.serialize", name, f"serialize.{name}", None)
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


class Tracer:
    """Spans kept in memory as [op, name, start, end, parent index]; counts by name."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block; yields its index for child spans."""
        parent = self._stack[-1] if self._stack else -1
        record = [self.op, name, time.perf_counter(), None, parent]
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append(record)
        try:
            yield index
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        """``fn`` recording a span per call; the span code is inlined for speed."""
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [self.op, name, None, None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result):
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def adopt(self, spans, counts, parent):
        """Append spans recorded by a child process under the given parent span."""
        offset = len(self.spans)
        for op, name, start, end, child_parent in spans:
            self.spans.append([op, name, start, end,
                               parent if child_parent < 0 else child_parent + offset])
        self.counts.update(counts)

    def totals(self):
        """Calls and self seconds per span name; self time excludes child spans."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for index, (_, name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
        return calls, self_s


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced function in every sparsecert module; restore on exit."""
    modules = [module for name, module in list(sys.modules.items())
               if module is not None
               and (name == "sparsecert" or name.startswith("sparsecert."))]
    patched = []
    try:
        for home, attr, name, counter in TARGETS + _serialize_targets():
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)
