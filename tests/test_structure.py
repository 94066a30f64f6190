import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhsa.algebra
import qhsa.structure
from qhsa.algebra import GradedAlgebra, StructureMap, TensorElement
from qhsa.drinfeld import _gamma_bar_post, _gamma_post, drinfeld_report
from qhsa.fixtures import (
    POSITIVE_FIXTURES,
    build_structure,
    h2_broken_antipode,
    h2_broken_pentagon,
)
from qhsa.structure import (
    DEFAULT_SUITE_NAMES,
    DRINFELD_PREMISES,
    LEMMA11_FORMS,
    SUITES,
    VALIDATION_SUITES,
    QhsaStructure,
    check_antipode_axioms,
    check_eta_lemma,
    check_lemma11,
    check_pentagon_consequences,
    check_qqybe,
    check_quasi_bialgebra,
    check_quasi_triangular,
    check_triangular,
    lemma11_sides,
    m_alpha_s,
    m_beta_s,
    run_suites,
    validate_algebra,
    validate_structure,
)
from qhsa.transforms import (
    random_twistor,
    tensor_product_structure,
    twist_structure,
    verify_twist_by_r,
)

from conftest import (
    elem,
    entry,
    ext_broken_grading,
    ks3_structure,
    ks3_twist,
    kz2_structure,
    multiplications,
    signed_odd_product,
)
from printed import Printed, agree


# -- validate_structure ------------------------------------------------------


def test_validate_structure_passes_on_fixtures(fixture_structure):
    report = validate_structure(fixture_structure)
    assert report.ok, report.failed_ids()


def test_odd_to_even_coproduct_fails_parity(ext):
    bad_delta = StructureMap(
        ext.algebra,
        2,
        [ext.delta.images[0], elem(ext, 2, {(1, 1): 1})],  # Delta(theta) := theta (x) theta
    )
    report = validate_structure(ext.replace(delta=bad_delta))
    row = entry(report, "structure.delta-parity")
    assert row["status"] == "fail"
    assert row["witness"]["basis"] == 1


def test_antipode_antihomomorphism_sign(ext_ext_graded):
    # on ext (x) ext, theta_1 theta_2 != 0, so the graded sign is visible:
    # S(a (x) b) = S(a) (x) S(b) is an antihomomorphism, and the variant with
    # an extra (-1)^{[a][b]} on theta (x) theta (flat index 3) is not
    graded = ext_ext_graded
    assert all(report.ok for _, report, _ in run_suites(graded))
    images = list(graded.antipode.images)
    images[3] = -images[3]
    ungraded = validate_structure(
        graded.replace(antipode=StructureMap(graded.algebra, 1, images))
    )
    assert ungraded.failed_ids() == ["structure.antipode-antihom"]
    assert entry(ungraded, "structure.antipode-antihom")["witness"]["basis"] == [1, 2]


def test_h2ext_ungraded_antipode_is_an_automorphism_twist(h2ext):
    # dropping the sign on e1 (x) theta composes S with an algebra
    # automorphism: every product of two odd h2ext elements is 0, so the
    # structure layer cannot see it and only eq.5i1 and eq.5i fail
    images = list(h2ext.antipode.images)
    images[3] = elem(h2ext, 1, {(3,): 1})
    bad = h2ext.replace(antipode=StructureMap(h2ext.algebra, 1, images))
    assert validate_structure(bad).ok
    assert check_antipode_axioms(bad).failed_ids() == ["eq.5i1", "eq.5i"]


# -- quasi-bialgebra ----------------------------------------------------------


def test_quasi_bialgebra_passes_on_fixtures(fixture_structure):
    report = check_quasi_bialgebra(fixture_structure)
    assert report.ok, report.failed_ids()


def test_pentagon_fails_with_witness_on_corrupted_phi():
    report = check_quasi_bialgebra(h2_broken_pentagon())
    row = entry(report, "eq.fii")
    assert row["status"] == "fail"
    assert row["witness"]["difference"]


def test_broken_pentagon_forced_co_failures():
    """Moving the phi sign off the diagonal necessarily drags the third
    counit leg and both closed antipode identities with it; nothing else in
    the axiom suites may fail."""
    H = h2_broken_pentagon()
    results = run_suites(H, ["algebra", "structure", "quasi-bialgebra", "antipode"])
    failures = {name: rep.failed_ids() for name, rep, _ in results}
    assert failures == {
        "algebra": [],
        "structure": [],
        "quasi-bialgebra": ["eq.fii", "eq.phi-counit-right"],
        "antipode": ["eq.5ii1", "eq.5ii"],
    }


# -- antipode axioms -------------------------------------------------------------


def test_antipode_axioms_pass_on_fixtures(fixture_structure):
    report = check_antipode_axioms(fixture_structure)
    assert report.ok, report.failed_ids()


def test_h2_phi_inverse_contraction_value(h2):
    # sum Xbar beta S(Ybar) alpha Zbar over the diagonal words gives 1
    z = m_beta_s(h2, h2.unit(2))  # sanity: beta-side contraction of the unit
    assert z == h2.beta
    report = check_antipode_axioms(h2)
    assert entry(report, "eq.5ii")["status"] == "pass"


def test_alpha_flattened_fails_5ii_with_value():
    H = h2_broken_antipode()
    report = check_antipode_axioms(H)
    row = entry(report, "eq.5ii")
    assert row["status"] == "fail"
    # result is e0 - e1, so the difference from 1 is -2 e1
    assert row["witness"]["difference"] == [[[1], "-2"]]
    # its mirror identity necessarily fails with it, everything else holds
    assert report.failed_ids() == ["eq.5ii1", "eq.5ii"]
    results = run_suites(H, ["algebra", "structure", "quasi-bialgebra"])
    assert all(rep.ok for _, rep, _ in results)


# -- quasi-triangular / triangular / QQYBE ------------------------------------------


def test_ext_r_matrix_is_quasi_triangular_and_triangular(ext):
    assert check_quasi_triangular(ext).ok
    assert check_triangular(ext).ok
    assert check_qqybe(ext).ok


def test_trivial_r_matrix(trivial):
    H = trivial.replace(r_matrix=trivial.unit(2))
    assert check_quasi_triangular(H).ok
    assert check_triangular(H).ok
    assert check_qqybe(H).ok


def test_h2r_is_quasi_triangular_but_not_triangular(h2r):
    assert check_quasi_triangular(h2r).ok
    assert check_qqybe(h2r).ok
    report = check_triangular(h2r)
    assert entry(report, "eq.triangular")["status"] == "fail"


def test_h2_with_unit_r_fails_hexagon(h2):
    H = h2.replace(r_matrix=h2.unit(2))
    report = check_quasi_triangular(H)
    row = entry(report, "eq.6ii")
    assert row["status"] == "fail"
    # the three-fold phi product leaves coefficient -1 at e1 (x) e1 (x) e1
    assert [[1, 1, 1], "2"] in row["witness"]["difference"]


def test_r_counit_witnesses_each_leg(ext):
    # both legs are 2 (x) 1, so their difference would be an empty witness
    report = check_quasi_triangular(ext.replace(r_matrix=ext.r_matrix.scaled(2)))
    row = entry(report, "eq.r-counit")
    assert row["status"] == "fail"
    assert row["witness"] == {"eps-left": [[[0], "2"]], "eps-right": [[[0], "2"]]}


# each check that needs R, with the ids it reports as skipped without one
R_CHECKS = {
    "validate_structure": (
        validate_structure,
        ["structure.r-even", "structure.r-invertible"],
    ),
    "check_quasi_triangular": (
        check_quasi_triangular,
        ["eq.6i", "eq.6ii", "eq.6iii", "eq.r-counit"],
    ),
    "check_triangular": (check_triangular, ["eq.triangular"]),
    "check_qqybe": (check_qqybe, ["eq.7"]),
    "verify_twist_by_r": (
        verify_twist_by_r,
        ["twist-by-r.delta", "twist-by-r.phi", "twist-by-r.r", "twist-by-r.alpha-beta"],
    ),
    "drinfeld_report": (
        lambda H: drinfeld_report(H)[1],
        ["thm5.r", "eq.lem8", "prop8.quasi-triangular", "drinfeld.prime-equivalence.r"],
    ),
}


@pytest.mark.parametrize("check", sorted(R_CHECKS))
@pytest.mark.parametrize("name", ["ext", "h2r"])
def test_each_r_check_reports_the_same_ids_with_and_without_r(name, check):
    # each id is written twice, once where the check skips it and once where
    # it records its result, so the two must name the same ids in one order
    fn, skipped = R_CHECKS[check]
    H = build_structure(name)
    with_r = fn(H).entries
    without_r = fn(H.replace(r_matrix=None)).entries
    assert [e["check_id"] for e in without_r] == [e["check_id"] for e in with_r]
    no_r = [e["check_id"] for e in without_r if e.get("detail") == {"reason": "no R-matrix"}]
    assert no_r == skipped
    assert all(e["status"] != "skipped" for e in with_r if e["check_id"] in skipped)
    assert all(e["status"] == "skipped" for e in without_r if e["check_id"] in skipped)


def _r_corruptions(name):
    """The bundled ``name`` with each term of its R negated, doubled or
    dropped, labelled by the word and the corruption."""
    H = build_structure(name)
    cases = {}
    for word, c in H.r_matrix.terms.items():
        for how, new in (("negated", -c), ("doubled", c + c), ("dropped", None)):
            terms = {w: new if w == word else v for w, v in H.r_matrix.terms.items()}
            terms = {w: v for w, v in terms.items() if v is not None}
            r = TensorElement(H.algebra, 2, terms)
            cases[f"{name}-{''.join(map(str, word))}-{how}"] = H.replace(r_matrix=r)
    return cases


HEXAGON_CASES = {
    "h2r": build_structure("h2r"),
    "ext": build_structure("ext"),
    **_r_corruptions("h2r"),
    **_r_corruptions("ext"),
    "h2-unit-r": build_structure("h2").replace(r_matrix=build_structure("h2").unit(2)),
    # R on a non-commutative algebra: eq.7 fails, so its witness is compared
    "ks3-r": ks3_structure().replace(r_matrix=elem(ks3_structure(), 2, {(0, 0): 2, (1, 2): 1})),
}


@pytest.mark.parametrize("name", sorted(HEXAGON_CASES))
def test_hexagon_products_match_the_printed_chains(name):
    H = HEXAGON_CASES[name]
    printed = Printed(H)
    compared = agree(check_quasi_triangular(H), printed) + agree(check_qqybe(H), printed)
    assert compared == ["eq.6i", "eq.6ii", "eq.6iii", "eq.r-counit", "eq.7"]


def test_hexagon_suites_make_nineteen_products_on_h2r(monkeypatch):
    H = build_structure("h2r")  # fresh, so nothing is cached yet
    run_suites(H, VALIDATION_SUITES)
    calls = multiplications(monkeypatch)
    assert all(report.ok for _, report, _ in run_suites(H, ["quasi-triangular", "qqybe"]))
    # the printed left-to-right chains make 4 arity-3 products for eq.6ii,
    # 4 for eq.6iii and 10 for eq.7, 18 of 26 calls; the shared chains make
    # 11, and eq.6i's arity-2 products stay
    assert calls.count(3) == 11
    assert len(calls) == 19


# -- pentagon consequences ----------------------------------------------------------


def test_pentagon_consequences_pass(fixture_structure):
    report = check_pentagon_consequences(fixture_structure)
    assert report.ok, report.failed_ids()


def test_pentagon_consequences_fail_on_corruption():
    report = check_pentagon_consequences(h2_broken_pentagon())
    assert set(report.failed_ids()) == {"eq.6.1i", "eq.6.1ii", "eq.6.1iii", "eq.6.1iv"}


PENTAGON_CASES = {
    **{name: (lambda fx, name=name: fx(name)) for name in POSITIVE_FIXTURES},
    "h2-broken-pentagon": lambda fx: h2_broken_pentagon(),
    "h2-broken-antipode": lambda fx: h2_broken_antipode(),
    # h2 brings a nontrivial Phi and ext (x) ext odd products; the twist mixes them
    "h2-ext-ext-twist": lambda fx: _twisted_odd_product(fx("h2"), fx("ext_ext_graded"), 3),
}


def _twisted_odd_product(h2, ext_ext_graded, seed):
    P = tensor_product_structure(h2, ext_ext_graded)
    return twist_structure(P, random_twistor(P, random.Random(seed)))


@pytest.mark.parametrize("name", sorted(PENTAGON_CASES))
def test_pentagon_products_match_the_printed_chains(request, name):
    H = PENTAGON_CASES[name](request.getfixturevalue)
    printed = Printed(H)
    assert "eq.fii" in agree(check_quasi_bialgebra(H), printed)
    assert agree(check_pentagon_consequences(H), printed) == [
        "eq.6.1i",
        "eq.6.1ii",
        "eq.6.1iii",
        "eq.6.1iv",
    ]


def test_pentagon_makes_eleven_arity4_products(monkeypatch):
    H = build_structure("h2ext")  # fresh, so nothing is cached yet
    calls = multiplications(monkeypatch)
    assert check_quasi_bialgebra(H).ok and check_pentagon_consequences(H).ok
    # the printed left-to-right chains make 3 products for eq.fii and 3 for
    # each of eq.6.1i-iv: 15
    assert calls.count(4) == 11


# -- lemma 11 -------------------------------------------------------------------------


def test_lemma11_passes(fixture_structure):
    report = check_lemma11(fixture_structure)
    assert report.ok, report.failed_ids()


def test_lemma11_unit_reduction(fixture_structure):
    # with a = 1 both sides collapse to the same contraction of phi
    H = fixture_structure
    for which in ("11i", "11ii", "11iii", "11iv"):
        lhs, rhs = lemma11_sides(H, which, H.unit(1))
        assert lhs == rhs


def test_lemma11_exercises_odd_legs(h2ext):
    # odd basis elements bring the Koszul signs of the products into play
    for a in (1, 3):
        for which in ("11i", "11ii", "11iii", "11iv"):
            lhs, rhs = lemma11_sides(h2ext, which, h2ext.basis(a))
            assert lhs == rhs, (which, a)


def _assert_lemma11_sides_match_the_reference(H):
    """The sides of each exchange identity at every e_a are the printed
    ones, and at the unit their combination."""
    printed = Printed(H)
    for which in LEMMA11_FORMS:
        sides = [printed.lemma11_sides(which, a) for a in range(H.algebra.dimension)]
        for a, printed_sides in enumerate(sides):
            assert lemma11_sides(H, which, H.basis(a)) == printed_sides, (which, a)
        units = H.algebra.unit_support
        at_unit = tuple(printed.total(2, ((sides[k][n], u) for k, u in units)) for n in (0, 1))
        assert lemma11_sides(H, which, H.unit(1)) == at_unit, (which, "1")


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lemma11_sides_match_the_reference_on_twists_of_h2ext(h2ext, seed):
    _assert_lemma11_sides_match_the_reference(
        twist_structure(h2ext, random_twistor(h2ext, random.Random(seed)))
    )


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lemma11_sides_match_the_reference_on_twists_of_an_odd_product(
    h2, ext_ext_graded, seed
):
    P = tensor_product_structure(h2, ext_ext_graded)
    _assert_lemma11_sides_match_the_reference(
        twist_structure(P, random_twistor(P, random.Random(seed)))
    )


def test_lemma11_sides_match_the_reference_on_a_failing_product(h2ext, ext, ks3):
    # with the antipode (-1)^{|a||b|} S(a) (x) S(b), h2ext (x) ext fails all
    # four identities; the product sides must fail the same way
    H = signed_odd_product(h2ext, ext)
    assert check_lemma11(H).failed_ids() == ["eq.11i", "eq.11ii", "eq.11iii", "eq.11iv"]
    _assert_lemma11_sides_match_the_reference(H)
    # k[S3] is not commutative, so with alpha or beta a transposition the
    # sides fail on the order of the factors inside one leg, which no
    # supercommutative input tests
    transposition = elem(ks3, 1, {(1,): 1})
    for name, failed in (("alpha", ["eq.11ii", "eq.11iii"]), ("beta", ["eq.11i", "eq.11iv"])):
        H = ks3.replace(**{name: transposition})
        assert check_lemma11(H).failed_ids() == failed, name
        _assert_lemma11_sides_match_the_reference(H)


# Structures whose algebra or structure suite fails: the product form of
# lemma 11 needs both, so run_suites reports the failed premise and skips
# lemma 11 rather than report sides that are not the printed ones.  In the
# one-sided products e_i e_j != 0 but e_j e_i = 0, and the table loses its
# unit and associativity.
LEMMA11_FAILED_PREMISES = {
    "one-sided-2-1": (lambda fx: _with_product(fx("h2ext"), (2, 1), {3: 1}), "algebra"),
    "one-sided-1-2": (lambda fx: _with_product(fx("h2ext"), (1, 2), {3: 1}), "algebra"),
    "one-sided-3-0": (lambda fx: _with_product(fx("h2ext"), (3, 0), {1: 1}), "algebra"),
    "h2ext-odd-beta": (lambda fx: ETA_AGREEMENT_CASES["h2ext-odd-beta"](fx), "structure"),
}


@pytest.mark.parametrize("name", sorted(LEMMA11_FAILED_PREMISES))
def test_lemma11_is_skipped_when_a_premise_fails(request, name):
    build, premise = LEMMA11_FAILED_PREMISES[name]
    results = run_suites(build(request.getfixturevalue), ["lemma11"])
    [(failed_suite, failed, _), (suite, skipped, _)] = results
    assert (failed_suite, suite) == (premise, "lemma11") and not failed.ok
    assert [e["status"] for e in skipped.entries] == ["skipped"]


def test_lemma11_signs_on_a_twisted_odd_product(h2, ext_ext_graded):
    # h2 brings a nontrivial Phi and ext (x) ext nonzero odd products; a
    # random twist mixes the two, so the Koszul signs of the lemma-11
    # products decide terms that do not vanish
    P = tensor_product_structure(h2, ext_ext_graded)
    H = twist_structure(P, random_twistor(P, random.Random(3)))
    assert H.algebra.dimension == 8 and len(H.phi.terms) == 109
    report = check_lemma11(H)
    assert report.ok, report.failed_ids()


# -- eta lemma -------------------------------------------------------------------------


def test_eta_lemma_passes(fixture_structure):
    report = check_eta_lemma(fixture_structure)
    assert report.ok, report.failed_ids()


def test_eta_lemma_examples(h2, ext):
    # eta the unit word reduces to the plain antipode axiom
    for a in range(2):
        lhs = m_alpha_s(h2, h2.coproduct(h2.basis(a)) * h2.basis(0, 0))
        rhs = m_alpha_s(h2, h2.basis(0, 0)).scaled(h2.eps_of(h2.basis(a)))
        assert lhs == rhs
    # on the exterior algebra with eta = theta (x) theta and a = theta both
    # sides vanish because eps(theta) = 0
    eta = elem(ext, 2, {(1, 1): 1})
    theta = elem(ext, 1, {(1,): 1})
    da = ext.coproduct(theta)
    assert m_alpha_s(ext, da * eta).is_zero()


def test_alpha_and_beta_maps_are_built_once_per_structure(monkeypatch):
    """A(e_p) = S(e_p) alpha and B(e_p) = e_p beta take d products each,
    once per structure, however many suites and constructions read them."""
    H = build_structure("h2ext")  # fresh, so nothing is cached yet
    built = []
    original = qhsa.algebra.tensor_multiply

    def counting(x, y):
        # alpha beta itself is eq.eps-alpha-beta's product, not an image of B
        if x is not H.alpha and (y is H.alpha or y is H.beta):
            built.append("A" if y is H.alpha else "B")
        return original(x, y)

    monkeypatch.setattr(qhsa.algebra, "tensor_multiply", counting)
    d = H.algebra.dimension
    for _ in range(2):
        assert all(report.ok for _, report, _ in run_suites(H))
        data, report = drinfeld_report(H)
        assert data is not None and report.ok
        assert sorted(built) == ["A"] * d + ["B"] * d


# 1 1 = -1 makes the unit a unit on neither side of 1, so a contraction that
# pads alpha or beta with the unit and multiplies differs from the printed sum.
CONTRACTION_CASES = {
    "h2ext": lambda: build_structure("h2ext"),
    "ext-unit-squared-negated": lambda: _with_product(build_structure("ext"), (0, 0), {0: -1}),
    "trivial-unit-squared-negated": lambda: _with_product(
        build_structure("trivial"), (0, 0), {0: -1}
    ),
}


@pytest.mark.parametrize("name", CONTRACTION_CASES)
def test_contractions_are_the_printed_sums_on_any_table(name):
    """m_alpha_s, m_beta_s and the post-processing of gamma and gamma-bar
    against their printed sums over seeded elements (``printed.py``), built
    from arity-1 products, which carry no sign, in the printed bracketing."""
    H = CONTRACTION_CASES[name]()
    printed, rng = Printed(H), random.Random(5)

    def seeded(arity):
        words = itertools.product(range(H.algebra.dimension), repeat=arity)
        return elem(H, arity, {w: rng.randint(-3, 3) for w in words})

    x, w4 = seeded(2), seeded(4)
    assert m_alpha_s(H, x) == printed.m_alpha(x)
    assert m_beta_s(H, x) == printed.m_beta(x)
    assert _gamma_post(H, w4) == printed.gamma_post(w4)
    assert _gamma_bar_post(H, w4) == printed.gamma_bar_post(w4)


def _entries(report):
    return [(e["check_id"], e["status"], e.get("witness")) for e in report.entries]


# Structures on which the reduced eta check must agree with its printed
# form, the d^3 enumeration, each built from the conftest fixtures: the
# bundled positive fixtures and both negative documents, both ladder rung
# shapes, and corruptions in alpha, beta, Delta, S and in the product table
# (the last makes the algebra report fail, so the d^3 cases run).
ETA_AGREEMENT_CASES = {
    **{name: (lambda fx, name=name: fx(name)) for name in POSITIVE_FIXTURES},
    "h2-broken-antipode": lambda fx: h2_broken_antipode(),
    "h2-broken-pentagon": lambda fx: h2_broken_pentagon(),
    "h2ext-kz2": lambda fx: tensor_product_structure(fx("h2ext"), fx("kz2")),
    "h2ext-twist": lambda fx: twist_structure(
        fx("h2ext"), random_twistor(fx("h2ext"), random.Random(11))
    ),
    "h2ext-delta": lambda fx: _with_image(
        fx("h2ext"), "delta", 1, {(1, 0): 1, (0, 1): 1, (3, 2): -1, (2, 3): 1}
    ),
    "h2ext-antipode": lambda fx: _with_image(fx("h2ext"), "antipode", 3, {(3,): 2}),
    # beta with an odd part: eq.lem5ii takes the d^3 cases
    "h2ext-odd-beta": lambda fx: fx("h2ext").replace(
        beta=fx("h2ext").beta + elem(fx("h2ext"), 1, {(1,): 1})
    ),
    # alpha or beta a transposition: k[S3] is not commutative, so eta fails
    "ks3-alpha": lambda fx: fx("ks3").replace(alpha=elem(fx("ks3"), 1, {(1,): 1})),
    "ks3-beta": lambda fx: fx("ks3").replace(beta=elem(fx("ks3"), 1, {(1,): 1})),
    "h2-non-associative": lambda fx: _with_product(fx("h2"), (1, 1), {0: 1}),
    "h2ext-non-associative": lambda fx: _with_product(fx("h2ext"), (1, 2), {3: 1}),
}


# The cases whose algebra or structure suite fails: selected alone, eta
# runs that premise first, reports its failure and is skipped.
ETA_FAILED_PREMISES = {
    "h2-non-associative": "algebra",
    "h2ext-non-associative": "algebra",
    "h2ext-odd-beta": "structure",
}


@pytest.mark.parametrize("name", sorted(ETA_AGREEMENT_CASES))
def test_reduced_eta_agrees_with_the_full_enumeration(request, name):
    H = ETA_AGREEMENT_CASES[name](request.getfixturevalue)
    printed = Printed(H)
    assert agree(check_eta_lemma(H), printed) == ["eq.lem5i", "eq.lem5ii"]
    results = run_suites(H, ["eta"])
    if name not in ETA_FAILED_PREMISES:
        [(suite, report, _)] = results
        assert suite == "eta" and agree(report, printed) == ["eq.lem5i", "eq.lem5ii"]
        return
    [(premise, failed, _), (suite, skipped, _)] = results
    assert (premise, suite) == (ETA_FAILED_PREMISES[name], "eta") and not failed.ok
    assert [e["status"] for e in skipped.entries] == ["skipped"]


def test_lemma11_and_eta_multiplication_counts_are_pinned(monkeypatch):
    """Exact tensor_multiply counts on a fresh h2ext, and on another once
    the validation suites have passed.  The first lemma-11 call also inverts
    Phi and builds the cached W per identity; the second reuses both.  On the fresh
    structure both checks enumerate the whole basis, d^3 eta cases; after
    validation they run over the generators, d |G| eta cases."""
    calls = multiplications(monkeypatch)

    def counts(H):
        out = []
        for check in (check_lemma11, check_lemma11, check_eta_lemma, check_eta_lemma):
            calls.clear()
            assert check(H).ok
            out.append(len(calls))
        return out

    # the term-by-term lemma 11 made 3459 and 3456 calls; the grouped lemma
    # 11 with every basis product multiplied made 827 and 800; the middles
    # built e_p beta and S(e_p) alpha once per identity, 283 then 256; one
    # (lone leg, Sweedler term) product per pair, 279 then 256.  As Koszul
    # products each side is one product per identity and basis a, 4 * 4 * 2
    # = 32 (4 * 3 * 2 = 24 over the 3 generators); the first call adds 20
    # for the middles and, on the fresh structure, 3 for Phi^{-1}.  W built
    # from the maps B(e_p) = e_p beta and A(e_p) = S(e_p) alpha on the legs
    # of Phi takes 2 d = 8 calls for the middles, not 20: 43 and 32.  The
    # eta contractions apply A or B to a leg and contract, with no
    # unit-padded alpha or beta to multiply: one product per case, the
    # stacked Delta(a) eta, and none for the base contraction, so 2 d^3 =
    # 128 and 2 d |G| = 24
    assert counts(build_structure("h2ext")) == [43, 32, 128, 128]
    H = build_structure("h2ext")
    run_suites(H, VALIDATION_SUITES)
    assert counts(H) == [32, 24, 24, 24]


def test_no_check_runs_a_premise_itself(monkeypatch):
    """Every suite with premises, called directly on a fresh h2ext, reads
    ``H.passed`` alone: it neither validates the algebra nor builds its
    generators, so it enumerates the whole basis."""

    def no_validation(algebra):
        raise AssertionError("validate_algebra called")

    monkeypatch.setattr(qhsa.structure, "validate_algebra", no_validation)
    H = build_structure("h2ext")
    for check, premises in SUITES.values():
        if premises:
            check(H)
    assert "generators" not in vars(H.algebra)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_structure("h2ext"),
        lambda: tensor_product_structure(build_structure("h2ext"), kz2_structure()),
        ks3_structure,
    ],
    ids=["h2ext", "h2ext-kz2", "ks3"],
)
def test_algebra_report_makes_no_product(monkeypatch, build):
    H = build()  # fresh, so nothing is cached yet

    def no_product(x, y):
        raise AssertionError("tensor_multiply called")

    monkeypatch.setattr(qhsa.algebra, "tensor_multiply", no_product)
    assert validate_algebra(H.algebra).ok


def test_homomorphism_checks_build_fewer_than_d_squared_elements(monkeypatch):
    """After the algebra suite, the homomorphism checks of h2ext (x) k[Z2]^3
    (d = 32, |G| = 9) read e_i e_j off the table rows: they build no
    element per pair (i, j), so fewer than d^2 arity-1 elements in all."""
    H = build_structure("h2ext")
    for _ in range(3):
        H = tensor_product_structure(H, kz2_structure())
    d = H.algebra.dimension
    run_suites(H, ["algebra"])
    assert (d, len(H.algebra.generators)) == (32, 9)

    built = []
    init, from_terms = TensorElement.__init__, TensorElement._from_terms

    def counting_init(self, algebra, arity, terms):
        built.append(arity)
        init(self, algebra, arity, terms)

    def counting_from_terms(algebra, arity, terms):
        built.append(arity)
        return from_terms(algebra, arity, terms)

    monkeypatch.setattr(TensorElement, "__init__", counting_init)
    monkeypatch.setattr(TensorElement, "_from_terms", staticmethod(counting_from_terms))
    assert validate_structure(H).ok
    assert built.count(1) < d * d


# -- metatheorems ------------------------------------------------------------------------


def test_derived_counit_identities_follow(fixture_structure):
    """Once the bialgebra and antipode suites pass, the derived identities
    eps(alpha) eps(beta) = 1 and eps(S(a)) = eps(a) must also pass."""
    H = fixture_structure
    assert check_quasi_bialgebra(H).ok
    report = check_antipode_axioms(H)
    assert entry(report, "eq.eps-alpha-beta")["status"] == "pass"
    assert entry(report, "eq.eps-s")["status"] == "pass"


def test_quasi_triangular_implies_qqybe(ext, h2r):
    for H in (ext, h2r):
        assert check_quasi_triangular(H).ok
        assert check_qqybe(H).ok


def test_run_suites_skips_after_validation_failure():
    results = run_suites(ext_broken_grading(), ["algebra", "quasi-bialgebra"])
    assert results[0][1].failed_ids() == ["algebra.grading"]
    assert results[1][1].entries[0]["status"] == "skipped"


def test_every_premise_is_a_suite_listed_earlier():
    names = list(SUITES)
    for position, (name, (_, premises)) in enumerate(SUITES.items()):
        assert all(p in names[:position] for p in premises), name
    assert DEFAULT_SUITE_NAMES == tuple(n for n in names if n != "triangular")
    assert DRINFELD_PREMISES == DEFAULT_SUITE_NAMES[:4]


def test_each_premise_tuple_is_transitively_closed():
    # run_suites runs a suite's premises in the order of its tuple, with no
    # recursion, so every premise of a premise must come earlier in it
    names = list(SUITES)
    for position, (name, (_, premises)) in enumerate(SUITES.items()):
        assert set(premises) <= set(names[:position]), name
        for index, premise in enumerate(premises):
            assert set(SUITES[premise][1]) <= set(premises[:index]), (name, premise)


def test_each_suite_runs_once_after_its_premises(monkeypatch, h2):
    calls = []

    def counted(name, fn):
        def run(H):
            calls.append(name)
            return fn(H)

        return run

    for name, (fn, premises) in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, (counted(name, fn), premises))
    results = run_suites(h2, ["eta", "structure", "eta", "lemma11", "structure"])
    assert calls == ["algebra", "structure", "eta", "lemma11"]
    # passing premises are reported only where they are selected, repeats once
    assert [name for name, _, _ in results] == ["eta", "structure", "lemma11"]
    assert all(report.ok for _, report, _ in results)


# -- witnesses of the basis-quantified checks ------------------------------------------


def _with_image(H, component, index, terms):
    """H with one basis image of a structure map replaced."""
    f = getattr(H, component)
    images = list(f.images)
    images[index] = elem(H, f.out_arity, terms)
    return H.replace(**{component: StructureMap(H.algebra, f.out_arity, images)})


def _with_product(H, pair, row):
    """H over an algebra whose product of the basis pair is replaced, every
    other component copied over to it."""
    alg = H.algebra
    field = alg.field
    mult = dict(alg.mult)
    mult[pair] = row
    bad = GradedAlgebra(alg.dimension, alg.parity, alg.unit, mult, field)

    def moved(x):
        return TensorElement(bad, x.arity, x.terms)

    def moved_map(f):
        return StructureMap(bad, f.out_arity, [moved(img) for img in f.images])

    return QhsaStructure(
        bad,
        moved_map(H.delta),
        moved_map(H.epsilon),
        moved_map(H.antipode),
        moved(H.phi),
        moved(H.alpha),
        moved(H.beta),
        H.r_matrix and moved(H.r_matrix),
    )


# (suite, fixture, corruption, check id, exact witness).  The basis label has
# the shape the check is quantified over: one index, [i, j], [i, j, k],
# [a, i, j] or the flat pair index i*d + j.
WITNESS_CASES = [
    (
        "algebra",
        "ext",
        lambda H: _with_product(H, (1, 0), {}),  # theta * 1 = 0: a left unit only
        "algebra.unit",
        {"difference": [[[1], "-1"]], "basis": 1},
    ),
    (
        "algebra",
        "h2",
        lambda H: _with_product(H, (1, 1), {0: 1}),  # e1 * e1 = e0
        "algebra.assoc",
        {"difference": [[[0], "-1"]], "basis": [0, 1, 1]},
    ),
    (
        "structure",
        "h2ext",
        lambda H: _with_image(H, "antipode", 0, {(0,): 1, (2,): 1}),  # S(e0 (x) 1) = 1
        "structure.antipode-antihom",
        {"difference": [[[2], "-1"]], "basis": [0, 2]},
    ),
    (
        "structure",
        "h2",
        lambda H: _with_image(H, "delta", 1, {(0, 1): 2, (1, 0): 2}),
        "structure.delta-hom",
        {"difference": [[[0, 1], "-2"], [[1, 0], "-2"]], "basis": 3},
    ),
    (
        "structure",
        "h2",
        lambda H: _with_image(H, "epsilon", 1, {(): 1}),  # eps(e1) raised from 0 to 1
        "structure.epsilon-hom",
        {"difference": [[[], "-1"]], "basis": 1},
    ),
    (
        "quasi-bialgebra",
        "ext",
        # both counit legs fail at theta; the left leg is checked first
        lambda H: _with_image(H, "delta", 1, {(1, 0): 3, (0, 1): 2}),
        "eq.fiii",
        {"difference": [[[1], "1"]], "basis": 1},
    ),
    (
        "eta",
        "h2ext",
        lambda H: _with_image(H, "antipode", 3, {(3,): 2}),
        "eq.lem5i",
        {"difference": [[[3], "-3"]], "basis": [1, 2, 2]},
    ),
    (
        "eta",
        "h2ext",
        lambda H: _with_image(H, "antipode", 3, {(3,): 2}),
        "eq.lem5ii",
        {"difference": [[[3], "3"]], "basis": [1, 2, 2]},
    ),
    (
        "lemma11",
        "h2ext",
        lambda H: _with_image(H, "antipode", 3, {(3,): 2}),
        "eq.11i",
        {"difference": [[[0, 3], "-3"]], "basis": 1},
    ),
    (
        "lemma11",
        "h2ext",
        # Delta(e0 (x) theta) with its (e1 (x) theta) (x) (e1 (x) 1) term negated
        lambda H: _with_image(H, "delta", 1, {(1, 0): 1, (0, 1): 1, (3, 2): -1, (2, 3): 1}),
        "eq.11ii",
        {"difference": [[[3, 0], "2"]], "basis": 1},
    ),
    (
        "lemma11",
        "h2ext",
        lambda H: _with_image(H, "delta", 1, {(1, 0): 1, (0, 1): 1, (3, 2): -1, (2, 3): 1}),
        "eq.11iii",
        {"difference": [[[0, 3], "2"], [[1, 2], "-2"]], "basis": 1},
    ),
    (
        "lemma11",
        "h2ext",
        lambda H: _with_image(H, "antipode", 3, {(3,): 2}),
        "eq.11iv",
        {"difference": [[[3, 0], "-3"]], "basis": 1},
    ),
    (
        "structure",
        "ext",
        lambda H: _with_image(H, "antipode", 1, {(0,): 1}),  # S(theta) = 1
        "structure.antipode-parity",
        {"basis": 1, "reason": "image not homogeneous of the right parity"},
    ),
    (
        "structure",
        "ext",
        lambda H: _with_image(H, "epsilon", 1, {(): 1}),  # eps(theta) = 1
        "structure.epsilon-parity",
        {"basis": 1, "reason": "odd element with nonzero scalar image"},
    ),
]


# The eta witnesses under corruptions of Delta, alpha and beta (S is above),
# pinned before the reduced eta check; each row starts with its test id.
ETA_WITNESS_CASES = [
    (
        "eq.lem5i-delta",
        "eta",
        "h2ext",
        # Delta(e0 (x) theta) with its (e1 (x) theta) (x) (e1 (x) 1) term negated
        lambda H: _with_image(H, "delta", 1, {(1, 0): 1, (0, 1): 1, (3, 2): -1, (2, 3): 1}),
        "eq.lem5i",
        {"difference": [[[3], "-2"]], "basis": [1, 2, 2]},
    ),
    (
        "eq.lem5ii-delta",
        "eta",
        "h2ext",
        lambda H: _with_image(H, "delta", 1, {(1, 0): 1, (0, 1): 1, (3, 2): -1, (2, 3): 1}),
        "eq.lem5ii",
        {"difference": [[[3], "-2"]], "basis": [1, 2, 2]},
    ),
    (
        "eq.lem5i-alpha",
        "eta",
        "ks3",
        lambda H: H.replace(alpha=elem(H, 1, {(1,): 1})),  # alpha a transposition
        "eq.lem5i",
        {"difference": [[[1], "-1"], [[5], "1"]], "basis": [2, 0, 0]},
    ),
    (
        "eq.lem5ii-beta",
        "eta",
        "ks3",
        lambda H: H.replace(beta=elem(H, 1, {(1,): 1})),
        "eq.lem5ii",
        {"difference": [[[1], "-1"], [[5], "1"]], "basis": [2, 0, 0]},
    ),
]


# Whole algebra reports of corrupted tables, pinned before the table-level
# unit and associativity checks: a monomial and a two-term non-associative
# table, and a table with coefficient 2 whose unit fails on the right.
ALGEBRA_REPORT_CASES = {
    "h2ext-non-associative": (
        lambda fx: _with_product(fx("h2ext"), (3, 3), {0: 1}),  # (e1 (x) theta)^2 = e0 (x) 1
        [
            ("algebra.grading", "pass", None),
            ("algebra.unit", "pass", None),
            ("algebra.assoc", "fail", {"difference": [[[0], "-1"]], "basis": [0, 3, 3]}),
        ],
    ),
    "ks3-non-associative": (
        lambda fx: _with_product(fx("ks3"), (1, 2), {3: 1, 4: -1}),
        [
            ("algebra.grading", "pass", None),
            ("algebra.unit", "pass", None),
            (
                "algebra.assoc",
                "fail",
                {"difference": [[[2], "2"], [[5], "-1"]], "basis": [1, 1, 2]},
            ),
        ],
    ),
    # e_i e_j != 0 and e_j e_k = 0 at the first failing triple, so a loop
    # over only the k with e_j e_k != 0 would miss it: the reduced route
    # here, the full one (the unit fails) in the h2 case
    "h2ext-zero-right-factor": (
        lambda fx: _with_product(fx("h2ext"), (1, 3), {0: 1}),
        [
            ("algebra.grading", "pass", None),
            ("algebra.unit", "pass", None),
            ("algebra.assoc", "fail", {"difference": [[[0], "1"]], "basis": [1, 0, 3]}),
        ],
    ),
    "h2-zero-right-factor": (
        lambda fx: _with_product(fx("h2"), (0, 1), {0: 1}),
        [
            ("algebra.grading", "pass", None),
            ("algebra.unit", "fail", {"difference": [[[0], "1"]], "basis": 0}),
            ("algebra.assoc", "fail", {"difference": [[[0], "1"]], "basis": [0, 1, 0]}),
        ],
    ),
    # e_i e_j = 0 and e_j e_k != 0 at the first failing triple, so a loop
    # that skipped every j with e_i e_j = 0 would miss it (the unit fails)
    "h2-zero-left-factor": (
        lambda fx: _with_product(fx("h2"), (1, 0), {0: 1}),
        [
            ("algebra.grading", "pass", None),
            ("algebra.unit", "fail", {"difference": [[[0], "1"]], "basis": 0}),
            ("algebra.assoc", "fail", {"difference": [[[0], "-1"]], "basis": [0, 1, 0]}),
        ],
    ),
    "ks3-right-unit": (
        lambda fx: _with_product(fx("ks3"), (3, 0), {3: 2}),  # g 1 = 2 g
        [
            ("algebra.grading", "pass", None),
            ("algebra.unit", "fail", {"difference": [[[3], "1"]], "basis": 3}),
            ("algebra.assoc", "fail", {"difference": [[[5], "-1"]], "basis": [1, 3, 0]}),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(ALGEBRA_REPORT_CASES))
def test_algebra_report_witnesses_are_pinned(request, name):
    corrupt, expected = ALGEBRA_REPORT_CASES[name]
    H = corrupt(request.getfixturevalue)
    assert _entries(validate_algebra(H.algebra)) == expected
    [(suite, report, _)] = run_suites(H, ["algebra"])
    assert suite == "algebra" and _entries(report) == expected


@pytest.mark.parametrize(
    "suite, fixture, corrupt, check_id, witness",
    WITNESS_CASES + [case[1:] for case in ETA_WITNESS_CASES],
    ids=[case[3] for case in WITNESS_CASES] + [case[0] for case in ETA_WITNESS_CASES],
)
def test_basis_check_witness_is_pinned(request, suite, fixture, corrupt, check_id, witness):
    report = SUITES[suite][0](corrupt(request.getfixturevalue(fixture)))
    assert check_id in report.failed_ids()
    assert entry(report, check_id)["witness"] == witness


# -- singular elements --------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture, terms",
    [
        ("h2", {(0, i, j): 1 for i in (0, 1) for j in (0, 1)}),  # e0 (x) 1 (x) 1, idempotent
        ("ext", {(1, 1, 0): 1}),  # theta (x) theta (x) 1, nilpotent
    ],
    ids=["idempotent", "nilpotent"],
)
def test_singular_phi_witness_is_pinned(fixture, terms):
    H = build_structure(fixture)
    report = validate_structure(H.replace(phi=elem(H, 3, terms)))
    assert report.failed_ids() == ["structure.phi-invertible"]
    assert entry(report, "structure.phi-invertible")["witness"] == {
        "reason": "element has no left inverse"
    }


# -- replace ------------------------------------------------------------------


def _scaled_images(f: StructureMap, c) -> StructureMap:
    return StructureMap(f.algebra, f.out_arity, [img.scaled(c) for img in f.images])


@pytest.mark.parametrize("name", ["h2", "twisted-ks3"])
@pytest.mark.parametrize("component", ["phi", "delta"])
def test_replace_carries_no_derived_data(name, component):
    """``replace`` builds a new structure: Phi^{-1}, Delta' and the suites
    known to have passed are those of a structure built from the same
    components, never the original's, and the original keeps its own."""
    H = build_structure("h2") if name == "h2" else twist_structure(*ks3_twist(1, 2))
    run_suites(H, VALIDATION_SUITES)
    phi_inv, delta_prime, passed = H.phi_inv, H.delta_prime, set(H.passed)
    assert passed == set(VALIDATION_SUITES)
    new = H.phi.scaled(2) if component == "phi" else _scaled_images(H.delta, 2)
    changed = H.replace(**{component: new})
    fresh = QhsaStructure(
        *(new if c == component else getattr(H, c) for c in QhsaStructure.COMPONENTS)
    )
    assert getattr(changed, component) is new
    assert changed.phi_inv == fresh.phi_inv
    assert changed.delta_prime.images == fresh.delta_prime.images
    assert changed.passed == set()
    if component == "phi":
        assert changed.phi_inv != phi_inv
    else:
        assert changed.delta_prime.images != delta_prime.images
    assert (H.phi_inv, H.delta_prime, H.passed) == (phi_inv, delta_prime, passed)
    with pytest.raises(AttributeError):
        H.phi = new
    with pytest.raises(AttributeError):
        del H.delta
    assert getattr(H, component) is not new
