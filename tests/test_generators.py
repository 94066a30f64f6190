"""Quantifying over algebra generators: the generating set, Light's
associativity test and the reduced "for all a in H" checks, against the full
enumeration of the basis."""

import json
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import qhsa.structure
from qhsa.algebra import StructureMap
from qhsa.documents import load_structure, report_document, serialize_structure
from qhsa.drinfeld import (
    compute_drinfeld_twist,
    drinfeld_construction,
    drinfeld_report,
    verify_thm2,
)
from qhsa.fixtures import build_structure
from qhsa.structure import DEFAULT_SUITE_NAMES, DRINFELD_PREMISES, run_suites, validate_algebra
from qhsa.transforms import Twistor, tensor_product_structure, twist_structure

from conftest import elem, ks3_structure, kz2_structure, product


def _ext_ext_graded():
    """ext (x) ext with the graded antipode S_A (x) S_B (see conftest)."""
    T = tensor_product_structure(build_structure("ext"), build_structure("ext"))
    images = [elem(T, 1, {(k,): c}) for k, c in enumerate((1, -1, -1, 1))]
    return replace(T, antipode=StructureMap(T.algebra, 1, images))


STRUCTURES = {
    "trivial": lambda: build_structure("trivial"),
    "ext": lambda: build_structure("ext"),
    "h2": lambda: build_structure("h2"),
    "h2r": lambda: build_structure("h2r"),
    "h2ext": lambda: build_structure("h2ext"),
    "ks3": ks3_structure,
    "ext-ext": _ext_ext_graded,
    "h2ext-ext": lambda: tensor_product_structure(
        build_structure("h2ext"), build_structure("ext")
    ),
    "h2ext-kz2": lambda: tensor_product_structure(build_structure("h2ext"), kz2_structure()),
}
# the tables one entry of which an example changes; "alpha" and "beta" move a
# canonical element off the centre, which the eta lemma and lemma 11 see, and
# "mult-term" sets a product coefficient that may be zero, which can keep
# the unit and break associativity
TABLES = ("mult", "mult-term", "delta", "antipode", "phi", "alpha", "beta")


@lru_cache(maxsize=None)
def _document(name):
    return json.loads(serialize_structure(name, STRUCTURES[name]()))


def _rank(vectors, field) -> int:
    """The rank of dense vectors over ``field``, by plain elimination."""
    vectors, r = [list(v) for v in vectors], 0
    for col in range(len(vectors[0]) if vectors else 0):
        pivot = next((i for i in range(r, len(vectors)) if vectors[i][col] != 0), None)
        if pivot is None:
            continue
        vectors[r], vectors[pivot] = vectors[pivot], vectors[r]
        inv = field.invert(vectors[r][col])
        for i in range(len(vectors)):
            if i != r and vectors[i][col] != 0:
                f = vectors[i][col] * inv
                vectors[i] = [a - f * b for a, b in zip(vectors[i], vectors[r])]
        r += 1
    return r


def _right_span(algebra, generators) -> list:
    """Independent dense vectors spanning the unit and its products on the
    right by the e_g, g in ``generators``: an oracle independent of the
    library's sparse echelon."""
    d, field = algebra.dimension, algebra.field

    def times(v, g):
        out = [field.zero()] * d
        for k, c in enumerate(v):
            for m, cm in product(algebra, k, g).items():
                out[m] = out[m] + c * cm
        return out

    span, pending = [], [list(algebra.unit)]
    while pending:
        v = pending.pop()
        if _rank(span + [v], field) > len(span):
            span.append(v)
            pending += [times(v, g) for g in generators]
    return span


def _spans_the_algebra(algebra, generators) -> bool:
    return len(_right_span(algebra, generators)) == algebra.dimension


def _greedy_generators(algebra) -> tuple:
    """Each e_i, lowest index first, that lies outside the right span of the
    unit and the generators before it."""
    d, field = algebra.dimension, algebra.field
    generators = []
    for i in range(d):
        span = _right_span(algebra, generators)
        e = [field.one() if k == i else field.zero() for k in range(d)]
        if _rank(span + [e], field) > len(span):
            generators.append(i)
    return tuple(generators)


class _Forgetful(set):
    """A ``passed`` record that keeps nothing, so no check ever reduces."""

    def add(self, name):
        pass


def _full_enumeration(H):
    """H, freshly loaded, with every quantifier over the whole basis: Light's
    test over every middle factor is the full associativity check, and no
    suite is ever recorded as passed, so no check reduces, the eta lemma's
    reduction over eta included: its reports are the d^3 enumeration's."""
    H.algebra.__dict__["generators"] = tuple(range(H.algebra.dimension))
    H.__dict__["passed"] = _Forgetful()
    return H


def _reports(H) -> list:
    """The JSON reports of ``check``, of plain ``drinfeld`` when its premises
    pass and of ``drinfeld --verify`` when every suite passes, without their
    timings."""

    def text(results):
        doc = report_document("x", results, "0")
        del doc["wall_time_seconds"]
        return json.dumps(doc)

    results = run_suites(H)
    out = [text(results)]
    if all(report.ok for name, report, _ in results if name in DRINFELD_PREMISES):
        out.append(text([("drinfeld", drinfeld_construction(H)[1], 0)]))
    if all(report.ok for _, report, _ in results):
        out.append(text([("drinfeld", drinfeld_report(H)[1], 0)]))
    return out


def _edited(name, table, index, value):
    """The document of ``name`` with entry ``index`` of ``table`` set to
    ``value``; a row of a sparse table is dropped when ``value`` is None."""
    doc = json.loads(json.dumps(_document(name)))
    if doc["field"]["kind"] != "rational" and value is not None:
        value = f"[{value}]"
    if table == "mult-term":  # the coefficient of e_k in e_i e_j
        d = doc["dimension"]
        word = [index % d, index // d % d, index // d**2 % d]
        doc["mult"] = [row for row in doc["mult"] if row[:3] != word]
        doc["mult"].append(word + [value or "1"])
        return json.dumps(doc)
    entries = doc[table]
    index %= len(entries)
    if table in ("alpha", "beta"):
        entries[index] = value or "0"
    elif value is None:
        del entries[index]
    else:
        entries[index][-1] = value
    return json.dumps(doc)


@seed(20261018)
@settings(max_examples=80, deadline=None)
# e_2 e_3 = e_5 in h2ext (x) k[Z2] keeps the unit but not associativity, and
# closing under left products would pick other generators than the right ones
@example(name="h2ext-kz2", table="mult-term", index=2 + 3 * 8 + 5 * 64, value=None)
# k[S3] without one product row: Light's test first fails at [3, 2, 1], the
# full enumeration at [1, 3, 1]
@example(name="ks3", table="mult", index=19831, value=None)
@given(
    name=st.sampled_from(sorted(STRUCTURES)),
    table=st.sampled_from(TABLES + (None,)),
    index=st.integers(0, 10**6),
    value=st.sampled_from([None, "2", "-1", "1/2", "3"]),
)
def test_reduced_reports_equal_the_full_enumeration(name, table, index, value):
    """Every report of a structure near a fixture, with one entry of one
    table changed (or none, when ``table`` is None), is the same whether the
    checks reduce to the generators or enumerate the basis."""
    text = json.dumps(_document(name)) if table is None else _edited(name, table, index, value)
    _, H = load_structure(text)
    if validate_algebra(H.algebra).entry("algebra.unit").status == "pass":
        assert H.algebra.generators == _greedy_generators(H.algebra)
        assert _spans_the_algebra(H.algebra, H.algebra.generators)
    _, fresh = load_structure(text)
    assert _reports(H) == _reports(_full_enumeration(fresh))


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_generators_and_the_unit_generate_the_algebra(name):
    H = STRUCTURES[name]()
    G = H.algebra.generators
    assert G == _greedy_generators(H.algebra)
    assert _spans_the_algebra(H.algebra, G)


def test_generators_are_pinned():
    """Greedy lowest-index picks: e0 (x) 1, e0 (x) theta and e1 (x) theta
    for h2ext (1 = (e0 + e1) (x) 1), two transpositions for k[S3], and 9 of
    32 basis elements for h2ext (x) k[Z2]^3."""
    H = build_structure("h2ext")
    assert H.algebra.generators == (0, 1, 3)
    assert build_structure("trivial").algebra.generators == ()
    assert ks3_structure().algebra.generators == (1, 2)
    for _ in range(3):
        H = tensor_product_structure(H, kz2_structure())
    assert len(H.algebra.generators) == 9


def test_light_test_on_a_nonassociative_table_keeps_the_full_witness():
    """h2ext with (e1 (x) theta)^2 = e0 (x) 1 keeps its unit but is not
    associative; Light's test over the generators finds that, and the
    witness is the first failing basis triple of the full enumeration."""
    doc = json.loads(json.dumps(_document("h2ext")))
    doc["mult"].append([3, 3, 0, "1"])
    reduced, full = (load_structure(json.dumps(doc))[1] for _ in range(2))
    report = validate_algebra(reduced.algebra)
    assert report.failed_ids() == ["algebra.assoc"]
    assert report == validate_algebra(_full_enumeration(full).algebra)


def test_conjugation_compares_every_basis_element_with_the_twist_of_its_data():
    """On ext (G = theta) after every suite passed, data whose F_D^{-1} is off
    by theta (x) theta, which Delta(theta) annihilates, conjugates Delta(theta)
    to Delta'(theta) but not Delta(1): with the twist of that data,
    ``verify_thm2`` fails thm2.conjugation at a = 1, exactly as on a fresh
    structure.  The construction leaves ``H.passed`` holding suite names only."""

    def off(H, D):
        return replace(D, f_d_inverse=D.f_d_inverse + H.basis(1, 1))

    def thm2(H, D):
        return verify_thm2(H, D, twist_structure(H, Twistor(D.f_d, D.f_d_inverse)))

    H = build_structure("ext")
    assert all(report.ok for _, report, _ in run_suites(H))
    D, report = drinfeld_construction(H)
    assert report.ok and H.algebra.generators == (1,)
    assert H.passed == set(DEFAULT_SUITE_NAMES)
    E = off(H, D)
    assert H.delta_prime.images[1] == E.f_d * H.delta.images[1] * E.f_d_inverse

    report = thm2(H, E)
    assert report.entry("thm2.conjugation").status == "fail"
    assert report.entry("thm2.conjugation").witness["basis"] == 0
    fresh = build_structure("ext")
    assert report == thm2(fresh, off(fresh, compute_drinfeld_twist(fresh)))
    assert thm2(H, D).ok


def test_reduced_checks_evaluate_generator_many_cases(monkeypatch):
    """On h2ext (x) k[Z2]^3 (d = 32, |G| = 9), with every premise passed:
    Light's test visits d^2 |G| basis triples, the (anti)homomorphism
    checks d |G| pairs, the eta lemma d |G| cases, and every other reduced
    check one case per generator (two for the two counit legs of eq.fiii).
    A count, not a timing."""
    H = build_structure("h2ext")
    for _ in range(3):
        H = tensor_product_structure(H, kz2_structure())
    d, G = H.algebra.dimension, H.algebra.generators
    g = len(G)
    cases, combinations = Counter(), []
    reduce_then_fall_back = qhsa.structure._expect_reduced
    row_combination = qhsa.structure._row_combination

    def counting(report, check_id, reduced, full):
        if reduced is not None:
            reduced = list(reduced)
            cases[check_id] = len(reduced)
        return reduce_then_fall_back(report, check_id, reduced, full)

    def combination(pairs):
        combinations.append(1)
        return row_combination(pairs)

    monkeypatch.setattr(qhsa.structure, "_expect_reduced", counting)
    monkeypatch.setattr(qhsa.structure, "_row_combination", combination)
    assert all(report.ok for _, report, _ in run_suites(H))
    assert drinfeld_report(H)[1].ok

    # two row combinations per unit case and per triple that is not zero on
    # both sides; the zero triples are skipped unbuilt
    alg = H.algebra
    nonzero = sum(
        1 for i in range(d) for j in G for k in range(d) if product(alg, i, j) or product(alg, j, k)
    )
    assert len(combinations) == 2 * d + 2 * nonzero
    assert nonzero <= d * d * g < d**3
    per_generator = {
        "eq.fi": g,
        "eq.fiii": 2 * g,
        "eq.5i1": g,
        "eq.5i": g,
        "eq.eps-s": g,
        "eq.11i": g,
        "eq.11ii": g,
        "eq.11iii": g,
        "eq.11iv": g,
        "eq.8.1": g,
        "eq.8.7": g,
        "eq.8.6a": g,
        "eq.8.8a": g,
    }
    homomorphisms = ("structure.delta-hom", "structure.epsilon-hom", "structure.antipode-antihom")
    assert cases == {
        "algebra.assoc": 0,  # compared as rows above: its cases yield only a failure
        **{check_id: d * g for check_id in homomorphisms},
        "eq.lem5i": d * g,
        "eq.lem5ii": d * g,
        **per_generator,
    }
