import importlib
import itertools
import importlib.util
import sys
from pathlib import Path

from qhsa.reporting import WITNESS_TERMS, CheckReport, difference_witness, expect_equal_per_basis
from qhsa.scalars import FieldSpec

from conftest import elem, entry


def test_per_basis_passes_on_no_cases():
    report = CheckReport()
    assert expect_equal_per_basis(report, "empty", iter(())) is True
    assert report.entries == [{"check_id": "empty", "status": "pass"}]


def test_per_basis_witnesses_the_first_failing_label(ext):
    one, theta = ext.basis(0), ext.basis(1)
    cases = [([0, 0], one, one), ([0, 1], one, theta), ([1, 1], theta, one)]
    report = CheckReport()
    assert expect_equal_per_basis(report, "pairs", cases) is False
    row = entry(report, "pairs")
    assert row["status"] == "fail"
    assert row["witness"] == {"difference": [[[0], "1"], [[1], "-1"]], "basis": [0, 1]}


def test_per_basis_builds_no_case_after_the_first_failure(ext):
    def cases():
        yield 0, ext.basis(0), ext.basis(0)
        yield 1, ext.basis(1), elem(ext, 1, {(1,): 2})
        raise AssertionError("a case after the first failure was built")

    report = CheckReport()
    assert expect_equal_per_basis(report, "lazy", cases()) is False
    assert entry(report, "lazy")["witness"]["basis"] == 1


def test_per_basis_returns_a_bool(ext):
    report = CheckReport()
    ok = expect_equal_per_basis(report, "same", ((a, ext.basis(a), ext.basis(a)) for a in range(2)))
    assert ok is True
    bad = expect_equal_per_basis(report, "diff", [(0, ext.basis(0), ext.basis(1))])
    assert bad is False


def test_a_long_difference_is_cut_with_its_full_count(h2ext):
    # 100 words of arity 4; the witness keeps the first 64 in sorted order
    words = sorted(itertools.product(range(4), repeat=4))[:100]
    lhs = elem(h2ext, 4, {w: 1 for w in words})
    zero = elem(h2ext, 4, {})
    report = CheckReport()
    assert expect_equal_per_basis(report, "long", [([0, 1], lhs, zero)]) is False
    witness = entry(report, "long")["witness"]
    assert WITNESS_TERMS == 64
    assert list(witness) == ["difference", "difference_terms", "basis"]
    assert witness["difference"] == [[list(w), "1"] for w in words[:64]]
    assert witness["difference_terms"] == 100
    assert witness["basis"] == [0, 1]
    # at the cap nothing is cut and no count is added
    exact = elem(h2ext, 4, {w: 1 for w in words[:64]})
    report = CheckReport()
    expect_equal_per_basis(report, "exact", [(0, exact, zero)])
    assert list(entry(report, "exact")["witness"]) == ["difference", "basis"]


def test_a_cut_difference_formats_only_the_terms_it_keeps(monkeypatch, h2ext):
    formatted = []
    original = FieldSpec.format

    def counting(self, value):
        formatted.append(value)
        return original(self, value)

    monkeypatch.setattr(FieldSpec, "format", counting)
    words = sorted(itertools.product(range(4), repeat=4))[:100]
    witness = difference_witness(elem(h2ext, 4, {w: 1 for w in words}), elem(h2ext, 4, {}))
    assert witness["difference_terms"] == 100
    assert len(formatted) == WITNESS_TERMS


def test_every_traced_name_resolves(monkeypatch):
    """The benchmark tracer binds these by name; a rename must fail here."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, function) for module, function, _ in tracing.SPANS]
    names += [
        ("qhsa.reporting", "expect_equal"),
        ("qhsa.reporting", "expect_equal_per_basis"),
        ("qhsa.reporting", "difference_witness"),
        ("qhsa.scalars", "reduce_mod_cyclotomic"),
    ]
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    # and the methods it patches in place, each defined on its own class
    methods = [
        ("qhsa.scalars", "Cyclotomic", "__mul__"),
        ("qhsa.scalars", "Cyclotomic", "__rmul__"),
        ("qhsa.scalars", "FieldSpec", "invert"),
        ("qhsa.algebra", "TensorElement", "__init__"),
    ]
    for module, owner, attr in methods:
        cls = getattr(importlib.import_module(module), owner, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{module}.{owner}.{attr}")
    assert not missing
