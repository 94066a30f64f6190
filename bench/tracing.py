"""Spans and counters around the qhsa layers, installed from outside the package.

The qhsa modules import each other's names directly (``from .algebra import
tensor_multiply``), so ``Tracer.install`` rebinds every wrapped function in
every qhsa module that holds it, and ``uninstall`` puts the originals back.

Each span records its id, name, start, end, parent span and job id.  Spans
stay in memory until ``write_spans``.  A name's self time is its spans'
duration minus the part their child spans cover.  Scalar arithmetic and
``TensorElement`` constructions are only counted: they are too frequent for
a span each.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function, span name).  Several functions may share a span name;
# they then count as one layer.
SPANS = (
    ("qhsa.cli", "main", "cli.main"),
    ("qhsa.documents", "parse_structure_document", "documents.parse"),
    ("qhsa.documents", "parse_twistor_document", "documents.parse"),
    ("qhsa.documents", "document_to_structure", "documents.parse"),
    ("qhsa.documents", "document_to_twistor", "documents.parse"),
    ("qhsa.documents", "serialize_structure", "documents.serialize"),
    ("qhsa.documents", "serialize_twistor_document", "documents.serialize"),
    ("qhsa.documents", "serialize_report", "documents.serialize"),
    ("qhsa.documents", "report_document", "documents.serialize"),
    ("qhsa.documents", "twistor_to_document", "documents.serialize"),
    ("qhsa.documents", "format_report_text", "documents.serialize"),
    ("qhsa.structure", "run_suites", "structure.run_suites"),
    ("qhsa.drinfeld", "drinfeld_report", "drinfeld.report"),
    ("qhsa.drinfeld", "compute_drinfeld_twist", "drinfeld.construct"),
    ("qhsa.drinfeld", "verify_lemma13", "drinfeld.lemma13"),
    ("qhsa.drinfeld", "verify_thm2", "drinfeld.thm2"),
    ("qhsa.drinfeld", "check_alt_expressions", "drinfeld.altexpr"),
    ("qhsa.drinfeld", "verify_thm3", "drinfeld.thm3"),
    ("qhsa.drinfeld", "verify_thm5", "drinfeld.thm5"),
    ("qhsa.drinfeld", "verify_prime_equivalence", "drinfeld.prime_equivalence"),
    ("qhsa.transforms", "check_twistor", "transforms.check_twistor"),
    ("qhsa.transforms", "twist_structure", "transforms.twist_structure"),
    ("qhsa.transforms", "opposite_structure", "transforms.opposite_structure"),
    ("qhsa.transforms", "prime_structure", "transforms.prime_structure"),
    ("qhsa.transforms", "tensor_product_structure", "transforms.tensor_product_structure"),
    ("qhsa.algebra", "tensor_multiply", "algebra.tensor_multiply"),
    ("qhsa.algebra", "apply_map_legs", "algebra.apply_map_legs"),
    ("qhsa.algebra", "permute_legs", "algebra.permute_legs"),
    ("qhsa.algebra", "embed_legs", "algebra.embed_legs"),
    ("qhsa.algebra", "invert_structure_map", "algebra.invert_structure_map"),
    ("qhsa.algebra", "invert_tensor_element", "algebra.invert_tensor_element"),
    ("qhsa.algebra", "solve_linear_system", "algebra.dense_solve"),
)


class Tracer:
    """Per-pass span aggregates and counters, plus every span recorded."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent id or -1, job id)
        self.job = None
        self._next_id = 0
        self._stack = []  # open spans as [id, child ns]
        self._restore = []  # (owner, attribute, original)
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)  # sums: counts, and suite seconds
        self.maxima = defaultdict(int)

    def reset(self):
        """Start a new pass: zero the aggregates, keep the recorded spans."""
        for table in (self.calls, self.total_ns, self.self_ns, self.counts, self.maxima):
            table.clear()

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, name, after=None):
        perf = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                self.spans.append(
                    (sid, name, start, end, parent[0] if parent else -1, self.job)
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed_count(self, fn, name):
        """Count and time without a span: for hot scalar helpers."""
        perf = time.perf_counter_ns

        def timed(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_ns[name] += perf() - start
                self.calls[name] += 1

        return timed

    # -- counters at span boundaries --------------------------------------------

    def _after_multiply(self, args, result):
        x, y = args[0], args[1]
        self.counts["algebra.tensor_multiply.pairs"] += len(x.terms) * len(y.terms)
        self.counts["algebra.tensor_multiply.terms_out"] += len(result.terms)

    def _after_invert(self, args, result):
        x = args[0]
        size = x.algebra.dimension ** x.arity
        if size > self.maxima["algebra.invert_tensor_element.max_system"]:
            self.maxima["algebra.invert_tensor_element.max_system"] = size

    def _after_run_suites(self, args, results):
        for suite, _report, seconds in results:
            self.counts[f"structure.suite.{suite}.s"] += seconds

    def _after_expect(self, args, ok):
        self.counts["reporting.expect_equal.calls"] += 1
        if not ok:
            self.counts["reporting.expect_equal.fails"] += 1

    def _after_witness(self, args, witness):
        self.counts["reporting.witness_terms"] += len(witness["difference"])

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace ``original`` under every name any qhsa module binds it to."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qhsa" or module_name.startswith("qhsa.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import qhsa.algebra
        import qhsa.cli  # noqa: F401  (loads every module the CLI uses)
        import qhsa.reporting
        import qhsa.scalars

        after = {
            "algebra.tensor_multiply": self._after_multiply,
            "algebra.invert_tensor_element": self._after_invert,
            "structure.run_suites": self._after_run_suites,
        }
        for module_name, function, name in SPANS:
            original = getattr(sys.modules[module_name], function)
            self._rebind(original, self._span(original, name, after.get(name)))

        reporting = qhsa.reporting
        for function in ("expect_equal", "expect_equal_per_basis"):
            original = getattr(reporting, function)
            self._rebind(original, _with_after(original, self._after_expect))
        original = reporting.difference_witness
        self._rebind(original, _with_after(original, self._after_witness))

        scalars = qhsa.scalars
        original = scalars.reduce_mod_cyclotomic
        self._rebind(original, self._timed_count(original, "scalars.reduce_mod_cyclotomic"))
        mul = self._counted(scalars.Cyclotomic.__mul__, "scalars.cyclotomic_mul.calls")
        self._patch(scalars.Cyclotomic, "__mul__", mul)
        self._patch(scalars.Cyclotomic, "__rmul__", mul)
        self._patch(
            scalars.FieldSpec,
            "invert",
            self._counted(scalars.FieldSpec.invert, "scalars.field_invert.calls"),
        )
        element = qhsa.algebra.TensorElement
        self._patch(
            element, "__init__", self._counted(element.__init__, "algebra.TensorElement.new")
        )

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def pass_metrics(self) -> dict:
        """This pass's per-layer numbers, keyed by metric name."""
        out = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self.total_ns[name] / 1e9
        for name, ns in self.self_ns.items():
            out[f"{name}.self_s"] = ns / 1e9
        out.update(self.counts)
        out.update(self.maxima)
        return out

    def write_spans(self, path):
        """One tab-separated line per span: id, name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


def _with_after(fn, after):
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    return wrapped
