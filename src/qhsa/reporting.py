"""Machine-readable pass/fail records for axiom and theorem checks.

Every failing entry carries a witness: the first offending basis element
and/or the difference element LHS - RHS, which is the most useful thing to
stare at when a sign is wrong.  A difference lists at most WITNESS_TERMS
terms, so a witness stays a few kilobytes whatever the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Above the longest difference that the bundled fixtures, their corruptions
# and the benchmark jobs produce (25 terms), so those reports are unchanged.
WITNESS_TERMS = 64


@dataclass
class CheckEntry:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    witness: dict | None = None
    detail: dict | None = None

    def to_json(self) -> dict:
        data = {"check_id": self.check_id, "status": self.status}
        if self.witness is not None:
            data["witness"] = self.witness
        if self.detail is not None:
            data["detail"] = self.detail
        return data


@dataclass
class CheckReport:
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def add_pass(self, check_id, detail=None):
        self.entries.append(CheckEntry(check_id, "pass", detail=detail))

    def add_fail(self, check_id, witness):
        self.entries.append(CheckEntry(check_id, "fail", witness=witness))

    def add_skip(self, check_id, reason):
        self.entries.append(CheckEntry(check_id, "skipped", detail={"reason": reason}))

    def extend(self, other: "CheckReport"):
        self.entries.extend(other.entries)
        return self

    def entry(self, check_id) -> CheckEntry | None:
        for e in self.entries:
            if e.check_id == check_id:
                return e
        return None

    def failed_ids(self) -> list:
        return [e.check_id for e in self.entries if e.status == "fail"]

    def passed_ids(self) -> list:
        return [e.check_id for e in self.entries if e.status == "pass"]


def element_terms_json(element) -> list:
    """Deterministic JSON form of a sparse element: sorted [word, coeff] rows."""
    fmt = element.algebra.field.format
    return [[list(w), fmt(c)] for w, c in sorted(element.terms.items())]


def difference_witness(lhs, rhs, basis=None) -> dict:
    """The sorted terms of lhs - rhs, cut to the first WITNESS_TERMS; a cut
    difference records its full length under ``difference_terms``."""
    difference = element_terms_json(lhs - rhs)
    witness = {"difference": difference[:WITNESS_TERMS]}
    if len(difference) > WITNESS_TERMS:
        witness["difference_terms"] = len(difference)
    if basis is not None:
        witness["basis"] = basis
    return witness


def expect_equal(report: CheckReport, check_id: str, lhs, rhs) -> bool:
    """Record an exact element equality; on failure store the difference."""
    if lhs == rhs:
        report.add_pass(check_id)
        return True
    report.add_fail(check_id, difference_witness(lhs, rhs))
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
            report.add_fail(check_id, difference_witness(lhs, rhs, basis=basis))
            return False
    report.add_pass(check_id)
    return True
