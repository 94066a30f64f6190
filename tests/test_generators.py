"""Quantifying over algebra generators: the generating set, Light's
associativity test and the reduced "for all a in H" checks, against the
printed forms of ``printed.py``, which enumerate the whole basis."""

import json
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import qhsa.structure
from qhsa.documents import load_structure, serialize_structure
from qhsa.drinfeld import (
    DrinfeldData,
    check_alt_expressions,
    compute_drinfeld_twist,
    drinfeld_construction,
    drinfeld_report,
    verify_thm2,
)
from qhsa.fixtures import build_structure, build_twistor
from qhsa.reporting import CheckReport
from qhsa.structure import (
    DEFAULT_SUITE_NAMES,
    DRINFELD_PREMISES,
    SUITES,
    VALIDATION_SUITES,
    run_suites,
    validate_algebra,
)
from qhsa.transforms import (
    Twistor,
    check_cocycle,
    check_prop6,
    check_twistor,
    random_twistor,
    tensor_product_structure,
    twist_structure,
    verify_twist_by_r,
)

from conftest import (
    entry,
    ext_ext_graded_structure,
    ks3_structure,
    ks3_twist,
    kz2_structure,
    product,
    signed_odd_product,
    twist_composition_check,
    twisted_ks3,
)
from printed import CHECKS, Printed, agree

STRUCTURES = {
    "trivial": lambda: build_structure("trivial"),
    "ext": lambda: build_structure("ext"),
    "h2": lambda: build_structure("h2"),
    "h2r": lambda: build_structure("h2r"),
    "h2ext": lambda: build_structure("h2ext"),
    "ks3": ks3_structure,
    "ext-ext": ext_ext_graded_structure,
    # S(a (x) b) = (-1)^{|a||b|} S(a) (x) S(b) fails structure.antipode-antihom
    "h2ext-ext": lambda: signed_odd_product(build_structure("h2ext"), build_structure("ext")),
    "h2ext-kz2": lambda: tensor_product_structure(build_structure("h2ext"), kz2_structure()),
}


def _h2_ext_ext():
    return tensor_product_structure(build_structure("h2"), ext_ext_graded_structure())


def _twist(H, F):
    return twist_structure(H, F), (H, F)


def _seeded_twist(build):
    def make(n):
        H = build()
        return _twist(H, random_twistor(H, random.Random(n)))

    return make


def _bundled_twistor(name):
    return lambda n: _twist(build_structure(build_twistor(name)[0]), build_twistor(name)[1])


def _bad_inverse(n):
    """1 (x) 1 + theta (x) theta on ext, declared its own inverse."""
    F = build_twistor("f-theta")[1]
    return _twist(build_structure("ext"), Twistor(F.element, F.element))


def _ks3_twist(s, t):
    return lambda n: (twisted_ks3(s, t), ks3_twist(s, t))


# name -> n -> (example, (H, F) or None): a structure, or H twisted by F,
# and then the transform checks run on H and F as well
EXAMPLES = {
    **{name: (lambda n, build=build: (build(), None)) for name, build in STRUCTURES.items()},
    **{
        name: (lambda n, name=name: (build_structure(name), None))
        for name in ("h2-broken-pentagon", "h2-broken-antipode")
    },
    "kz2": lambda n: (kz2_structure(), None),
    "h2ext-twist": _seeded_twist(lambda: build_structure("h2ext")),
    "h2-ext-ext-twist": _seeded_twist(_h2_ext_ext),
    **{
        name: _bundled_twistor(name)
        for name in ("f-one", "f-e11", "f-e11-zeta4", "f-theta", "f-u11")
    },
    "f-theta-bad-inverse": _bad_inverse,  # fails twistor.invertible
    # not supercommutative, with a nontrivial Phi and R: the order of Phi, R,
    # F_D and Delta(a) in a product shows
    "ks3-twist-1-2": _ks3_twist(1, 2),
    "ks3-twist-2-5": _ks3_twist(2, 5),
}
# dimension 6 and 8 with a dense Phi or Phi^{-1}: one run of each costs as
# much as a dozen others, so they run only as explicit examples (n = 3)
HEAVY = ("h2-ext-ext-twist", "ks3-twist-1-2", "ks3-twist-2-5")
# the tables one entry of which an example changes; "alpha" and "beta" move a
# canonical element off the centre, which the eta lemma and lemma 11 see, and
# "mult-term" sets a product coefficient that may be zero, which can keep
# the unit and break associativity
TABLES = ("mult", "mult-term", "delta", "antipode", "phi", "alpha", "beta")


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


def _edited(H, table, index, value):
    """The document of H with entry ``index`` of ``table`` set to ``value``;
    a row of a sparse table is dropped when ``value`` is None."""
    doc = json.loads(serialize_structure("x", H))
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


@lru_cache(maxsize=None)
def _library_reports(H) -> tuple:
    """The reports of the ten suites on H, then of ``drinfeld_report`` when
    every default suite passes, of ``drinfeld_construction`` when only its
    premises do, and of ``check_alt_expressions`` when they do not but Phi
    and S are invertible; with the Drinfeld data, or None.  Kept per
    structure: the twisted k[S3] are built once each, and the property
    reads the run that their pinned test made."""
    results = run_suites(H, tuple(SUITES))

    def passed(names):
        return all(report.ok for name, report, _ in results if name in names)

    D, report = None, CheckReport()
    if passed(DRINFELD_PREMISES):
        D, report = (drinfeld_report if passed(DEFAULT_SUITE_NAMES) else drinfeld_construction)(H)
    elif passed(VALIDATION_SUITES):
        D = compute_drinfeld_twist(H)
        report = check_alt_expressions(H, D)
    return [report for _, report, _ in results] + [report], D


def _assert_printed(H):
    """Every report of H agrees with the printed forms, and gamma, gamma-bar,
    F_D and F_D^{-1} are the printed sums."""
    printed = Printed(H)
    reports, D = _library_reports(H)
    for report in reports:
        agree(report, printed)
    if D is not None:
        sums = (printed.gamma, printed.gamma_bar, printed.f_d, printed.f_d_inverse)
        assert (D.gamma, D.gamma_bar, D.f_d, D.f_d_inverse) == sums


def test_k_s3_twisted_by_a_non_cocycle_passes_everything():
    """F = 1 (x) 1 + (g_s - 1) (x) (g_t - 1) is a twistor and not a cocycle
    for the transpositions g_1, g_2 and g_2, g_5; k[S3] twisted by it has a
    Phi of 20 terms and passes all ten suites and the Drinfeld battery."""
    for s, t in ((1, 2), (2, 5)):
        H, F = ks3_twist(s, t)
        assert check_twistor(H, F).ok
        assert check_cocycle(H, F).failed_ids() == ["eq.ccc"]
        T = twisted_ks3(s, t)
        assert len(T.phi.terms) == 20
        reports, D = _library_reports(T)
        assert D is not None and all(report.ok for report in reports)


def _explicit_examples(test):
    for name in EXAMPLES:
        test = example(name=name, n=3, table=None, value=None)(test)
    return test


@seed(20261018)
@settings(max_examples=80, deadline=None)
@_explicit_examples
# e_2 e_3 = e_5 in h2ext (x) k[Z2] keeps the unit but not associativity, and
# closing under left products would pick other generators than the right ones
@example(name="h2ext-kz2", n=2 + 3 * 8 + 5 * 64, table="mult-term", value=None)
# k[S3] without one product row: Light's test first fails at [3, 2, 1], the
# full enumeration at [1, 3, 1]
@example(name="ks3", n=19831, table="mult", value=None)
@given(
    name=st.sampled_from(sorted(set(EXAMPLES) - set(HEAVY))),
    n=st.integers(0, 10**6),
    table=st.sampled_from(TABLES + (None,)),
    value=st.sampled_from([None, "2", "-1", "1/2", "3"]),
)
def test_reduced_reports_equal_the_full_enumeration(name, n, table, value):
    """On an example, or on it with one entry of one table changed (``table``
    not None), every check the library runs, reduced to the generators where
    its premises pass, has the status, label and difference of its printed
    form, which enumerates the basis; with a twistor, so does every transform
    check.  Where the unit passes, the generators are the greedy ones."""
    X, twist = EXAMPLES[name](n)
    if table is not None:
        X = load_structure(_edited(X, table, n, value))[1]
    if entry(validate_algebra(X.algebra), "algebra.unit")["status"] == "pass":
        assert X.algebra.generators == _greedy_generators(X.algebra)
        assert _spans_the_algebra(X.algebra, X.algebra.generators)
    _assert_printed(X)
    if twist is not None and table is None:
        H, F = twist
        G = F.transpose()
        printed = Printed(H, F, G)
        for report in (
            check_twistor(H, F),
            check_cocycle(H, F),
            twist_composition_check(H, F, G),
            check_prop6(H, F),
            verify_twist_by_r(H),
        ):
            agree(report, printed)


def test_the_printed_forms_are_the_library_check_ids():
    """The ids of h2r's ten suites, its Drinfeld battery and the transform
    checks with a twistor are those of the printed forms, each once;
    twistor.invertible is reported only when it fails."""
    H, F = build_structure("h2r"), build_twistor("f-e11-zeta4")[1]
    reports = [report for _, report, _ in run_suites(H, tuple(SUITES))]
    reports += [drinfeld_report(H)[1], check_twistor(H, F), check_cocycle(H, F)]
    reports += [twist_composition_check(H, F, F), check_prop6(H, F), verify_twist_by_r(H)]
    emitted = [e["check_id"] for report in reports for e in report.entries]
    assert sorted(emitted + ["twistor.invertible"]) == sorted(CHECKS)


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
    doc = json.loads(serialize_structure("h2ext", build_structure("h2ext")))
    doc["mult"].append([3, 3, 0, "1"])
    H = load_structure(json.dumps(doc))[1]
    report = validate_algebra(H.algebra)
    assert report.failed_ids() == ["algebra.assoc"]
    assert agree(report, Printed(H)) == ["algebra.grading", "algebra.unit", "algebra.assoc"]


def test_conjugation_compares_every_basis_element_with_the_twist_of_its_data():
    """On ext (G = theta) after every suite passed, data whose F_D^{-1} is off
    by theta (x) theta, which Delta(theta) annihilates, conjugates Delta(theta)
    to Delta'(theta) but not Delta(1): with the twist of that data,
    ``verify_thm2`` fails thm2.conjugation at a = 1, exactly as on a fresh
    structure.  The construction leaves ``H.passed`` holding suite names only."""

    def off(H, D):
        return DrinfeldData(D.gamma, D.gamma_bar, D.f_d, D.f_d_inverse + H.basis(1, 1))

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
    assert entry(report, "thm2.conjugation")["status"] == "fail"
    assert entry(report, "thm2.conjugation")["witness"]["basis"] == 0
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
