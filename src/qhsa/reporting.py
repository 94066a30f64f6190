"""Pass/fail records for axiom and theorem checks, kept as the JSON rows a
report writes.

A check records its verdict with one ``CheckReport.add``: a pass, or a
failure carrying its witness, the first offending basis element and/or the
difference element LHS - RHS, which is the most useful thing to stare at
when a sign is wrong.  A difference lists at most WITNESS_TERMS terms, so a
witness stays a few kilobytes whatever the dimension.
"""

from __future__ import annotations

# Above the longest difference that the bundled fixtures, their corruptions
# and the benchmark jobs produce (25 terms), so those reports are unchanged.
WITNESS_TERMS = 64


class CheckReport:
    """A suite's verdicts in order, each the row a report writes without its
    suite: ``check_id`` and ``status``, then ``witness`` or ``detail`` when
    given."""

    def __init__(self):
        self.entries = []

    def __eq__(self, other):
        if type(other) is not CheckReport:
            return NotImplemented
        return self.entries == other.entries

    @property
    def ok(self) -> bool:
        return all(e["status"] != "fail" for e in self.entries)

    def add(self, check_id, witness=None, detail=None):
        """A failure carrying ``witness`` when there is one, else a pass."""
        row = {"check_id": check_id, "status": "pass" if witness is None else "fail"}
        if witness is not None:
            row["witness"] = witness
        if detail is not None:
            row["detail"] = detail
        self.entries.append(row)

    def add_skip(self, check_id, reason):
        self.entries.append(
            {"check_id": check_id, "status": "skipped", "detail": {"reason": reason}}
        )

    def extend(self, other: "CheckReport"):
        self.entries.extend(other.entries)
        return self

    def failed_ids(self) -> list:
        return [e["check_id"] for e in self.entries if e["status"] == "fail"]


def element_terms_json(element) -> list:
    """Deterministic JSON form of a sparse element: sorted [word, coeff] rows."""
    fmt = element.algebra.field.format
    return [[list(w), fmt(c)] for w, c in sorted(element.terms.items())]


def difference_witness(lhs, rhs, basis=None) -> dict:
    """The sorted terms of lhs - rhs, cut to the first WITNESS_TERMS; a cut
    difference records its full length under ``difference_terms``.  Only the
    terms kept are formatted, in the rows of ``element_terms_json``."""
    difference = lhs - rhs
    terms, fmt = difference.terms, difference.algebra.field.format
    words = sorted(terms)
    witness = {"difference": [[list(w), fmt(terms[w])] for w in words[:WITNESS_TERMS]]}
    if len(words) > WITNESS_TERMS:
        witness["difference_terms"] = len(words)
    if basis is not None:
        witness["basis"] = basis
    return witness


def expect_equal(report: CheckReport, check_id: str, lhs, rhs) -> bool:
    """Record an exact element equality; on failure store the difference."""
    if lhs == rhs:
        report.add(check_id)
        return True
    report.add(check_id, difference_witness(lhs, rhs))
    return False


def expect_equal_per_basis(report: CheckReport, check_id: str, cases) -> bool:
    """Record an identity quantified over basis elements.

    ``cases`` yields ``(basis, lhs, rhs)`` and is consumed lazily: the first
    case with ``lhs != rhs`` is witnessed with its ``basis`` label and no later
    case is built.  The label is whatever indexes the case, such as ``a``,
    ``[i, j]`` or ``[i, j, k]``.
    """
    for basis, lhs, rhs in cases:
        if lhs != rhs:
            report.add(check_id, difference_witness(lhs, rhs, basis=basis))
            return False
    report.add(check_id)
    return True
