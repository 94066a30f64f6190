import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhsa.algebra
import qhsa.structure
from qhsa.algebra import (
    AlgebraError,
    GradedAlgebra,
    StructureMap,
    TensorElement,
    apply_map_legs,
    linear_combination,
    outer,
)
from qhsa.fixtures import (
    build_structure,
    h2_broken_antipode,
    h2_broken_pentagon,
)
from qhsa.reporting import CheckReport, expect_equal, expect_equal_per_basis
from qhsa.structure import (
    DEFAULT_SUITE_NAMES,
    DRINFELD_PREMISES,
    SUITES,
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
    mul_chain,
    run_suites,
    validate_algebra,
    validate_structure,
)
from qhsa.transforms import random_twistor, tensor_product_structure, twist_structure

from conftest import elem, ks3_structure, kz2_structure

ALL_FIXTURES = ("trivial", "ext", "h2", "h2r", "h2ext")


@pytest.fixture(scope="module", params=ALL_FIXTURES)
def fixture_structure(request):
    return build_structure(request.param)


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
    report = validate_structure(replace(ext, delta=bad_delta))
    entry = report.entry("structure.delta-parity")
    assert entry.status == "fail"
    assert entry.witness["basis"] == 1


def test_antipode_antihomomorphism_sign(ext_ext_graded):
    # on ext (x) ext, theta_1 theta_2 != 0, so the graded sign is visible:
    # S(a (x) b) = S(a) (x) S(b) is an antihomomorphism, and the variant with
    # an extra (-1)^{[a][b]} on theta (x) theta (flat index 3) is not
    graded = ext_ext_graded
    assert all(report.ok for _, report, _ in run_suites(graded))
    images = list(graded.antipode.images)
    images[3] = -images[3]
    ungraded = validate_structure(
        replace(graded, antipode=StructureMap(graded.algebra, 1, images))
    )
    assert ungraded.failed_ids() == ["structure.antipode-antihom"]
    assert ungraded.entry("structure.antipode-antihom").witness["basis"] == [1, 2]


def test_h2ext_ungraded_antipode_is_an_automorphism_twist(h2ext):
    # dropping the sign on e1 (x) theta composes S with an algebra
    # automorphism: every product of two odd h2ext elements is 0, so the
    # structure layer cannot see it and only eq.5i1 and eq.5i fail
    images = list(h2ext.antipode.images)
    images[3] = elem(h2ext, 1, {(3,): 1})
    bad = replace(h2ext, antipode=StructureMap(h2ext.algebra, 1, images))
    assert validate_structure(bad).ok
    assert check_antipode_axioms(bad).failed_ids() == ["eq.5i1", "eq.5i"]


# -- quasi-bialgebra ----------------------------------------------------------


def test_quasi_bialgebra_passes_on_fixtures(fixture_structure):
    report = check_quasi_bialgebra(fixture_structure)
    assert report.ok, report.failed_ids()


def test_pentagon_fails_with_witness_on_corrupted_phi():
    report = check_quasi_bialgebra(h2_broken_pentagon())
    entry = report.entry("eq.fii")
    assert entry.status == "fail"
    assert entry.witness["difference"]


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
    assert report.entry("eq.5ii").status == "pass"


def test_alpha_flattened_fails_5ii_with_value():
    H = h2_broken_antipode()
    report = check_antipode_axioms(H)
    entry = report.entry("eq.5ii")
    assert entry.status == "fail"
    # result is e0 - e1, so the difference from 1 is -2 e1
    assert entry.witness["difference"] == [[[1], "-2"]]
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
    H = replace(trivial, r_matrix=trivial.unit(2))
    assert check_quasi_triangular(H).ok
    assert check_triangular(H).ok
    assert check_qqybe(H).ok


def test_h2r_is_quasi_triangular_but_not_triangular(h2r):
    assert check_quasi_triangular(h2r).ok
    assert check_qqybe(h2r).ok
    report = check_triangular(h2r)
    assert report.entry("eq.triangular").status == "fail"


def test_h2_with_unit_r_fails_hexagon(h2):
    H = replace(h2, r_matrix=h2.unit(2))
    report = check_quasi_triangular(H)
    entry = report.entry("eq.6ii")
    assert entry.status == "fail"
    # the three-fold phi product leaves coefficient -1 at e1 (x) e1 (x) e1
    assert [[1, 1, 1], "2"] in entry.witness["difference"]


def test_r_counit_witnesses_each_leg(ext):
    # both legs are 2 (x) 1, so their difference would be an empty witness
    report = check_quasi_triangular(replace(ext, r_matrix=ext.r_matrix.scaled(2)))
    entry = report.entry("eq.r-counit")
    assert entry.status == "fail"
    assert entry.witness == {"eps-left": [[[0], "2"]], "eps-right": [[[0], "2"]]}


def test_suites_skip_without_r(h2):
    report = check_quasi_triangular(h2)
    assert all(e.status == "skipped" for e in report.entries)
    assert check_qqybe(h2).entries[0].status == "skipped"
    assert check_triangular(h2).entries[0].status == "skipped"


# -- pentagon consequences ----------------------------------------------------------


def test_pentagon_consequences_pass(fixture_structure):
    report = check_pentagon_consequences(fixture_structure)
    assert report.ok, report.failed_ids()


def test_pentagon_consequences_fail_on_corruption():
    report = check_pentagon_consequences(h2_broken_pentagon())
    assert set(report.failed_ids()) == {"eq.6.1i", "eq.6.1ii", "eq.6.1iii", "eq.6.1iv"}


def reference_pentagon_report(H):
    """eq.fii and eq.6.1i-iv with every product taken left to right as
    printed: the reference that the suites, which share the products P, Q
    and N, are compared against."""
    phi0, phi1, phi2, phi_x1, one_x_phi = H.phi_factors
    inv0, inv1, inv2, inv_x1, one_x_inv = H.phi_inv_factors
    report = CheckReport()
    expect_equal(report, "eq.fii", mul_chain(phi0, phi2), mul_chain(phi_x1, phi1, one_x_phi))
    expect_equal(report, "eq.6.1i", phi_x1, mul_chain(phi0, phi2, one_x_inv, inv1))
    expect_equal(report, "eq.6.1ii", one_x_phi, mul_chain(inv1, inv_x1, phi0, phi2))
    expect_equal(report, "eq.6.1iii", inv_x1, mul_chain(phi1, one_x_phi, inv2, inv0))
    expect_equal(report, "eq.6.1iv", one_x_inv, mul_chain(inv2, inv0, phi_x1, phi1))
    return report


PENTAGON_CASES = {
    **{name: (lambda fx, name=name: fx(name)) for name in ALL_FIXTURES},
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
    expected = _entries(reference_pentagon_report(H))
    fii = [entry for entry in _entries(check_quasi_bialgebra(H)) if entry[0] == "eq.fii"]
    assert fii + _entries(check_pentagon_consequences(H)) == expected


def test_pentagon_makes_eleven_arity4_products(monkeypatch):
    H = build_structure("h2ext")  # fresh, so nothing is cached yet
    calls = []
    original = qhsa.algebra.tensor_multiply

    def counting(x, y):
        calls.append(x.arity)
        return original(x, y)

    monkeypatch.setattr(qhsa.algebra, "tensor_multiply", counting)
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
    # odd basis elements bring the printed sign factors into play
    for a in (1, 3):
        for which in ("11i", "11ii", "11iii", "11iv"):
            lhs, rhs = lemma11_sides(h2ext, which, h2ext.basis(a))
            assert lhs == rhs, (which, a)


def reference_lemma11_sides(H, which, a):
    """Both sides of one exchange identity, term by term over every word of
    Phi (Phi^{-1}) exactly as printed: the reference that the grouped
    ``lemma11_sides`` is compared against."""
    alg = H.algebra
    par = alg.parity
    e = [H.basis(i) for i in range(alg.dimension)]
    s = H.antipode.images

    words = (H.phi if which in ("11i", "11ii") else H.phi_inv).terms
    iterated = H.delta_left3 if which in ("11i", "11iii") else H.delta_right3
    sweedler = apply_map_legs(a, 0, iterated)

    lhs = []
    rhs = []
    for (x, y, z), c in words.items():
        if which == "11i":
            ybsz = e[y] * H.beta * s[z]
            for (w,), ca in a.terms.items():
                sign = -1 if par[w] and par[x] else 1
                lhs.append((outer(e[x] * e[w], ybsz), c * ca * sign))
            for (u1, u2, u3), cu in sweedler.terms.items():
                sign = -1 if par[x] and par[u2] else 1
                term = outer(e[u1] * e[x], e[u2] * ybsz * s[u3])
                rhs.append((term, c * cu * sign))
        elif which == "11ii":
            sxay = s[x] * H.alpha * e[y]
            for (w,), ca in a.terms.items():
                sign = -1 if par[w] and par[z] else 1
                lhs.append((outer(sxay, e[w] * e[z]), c * ca * sign))
            for (u1, u2, u3), cu in sweedler.terms.items():
                sign = -1 if par[z] and par[u2] else 1
                term = outer(s[u1] * sxay * e[u2], e[z] * e[u3])
                rhs.append((term, c * cu * sign))
        elif which == "11iii":
            syaz = s[y] * H.alpha * e[z]
            for (w,), ca in a.terms.items():
                lhs.append((outer(e[w] * e[x], syaz), c * ca))
            for (u1, u2, u3), cu in sweedler.terms.items():
                sign = -1 if par[x] and (par[u1] + par[u2]) % 2 else 1
                term = outer(e[x] * e[u1], s[u2] * syaz * e[u3])
                rhs.append((term, c * cu * sign))
        elif which == "11iv":
            xbsy = e[x] * H.beta * s[y]
            for (w,), ca in a.terms.items():
                lhs.append((outer(xbsy, e[z] * e[w]), c * ca))
            for (u1, u2, u3), cu in sweedler.terms.items():
                sign = -1 if par[z] and (par[u2] + par[u3]) % 2 else 1
                term = outer(e[u1] * xbsy * s[u2], e[u3] * e[z])
                rhs.append((term, c * cu * sign))
        else:
            raise AlgebraError(f"unknown identity {which!r}")
    return linear_combination(alg, 2, lhs), linear_combination(alg, 2, rhs)


def _assert_lemma11_sides_match_the_reference(H):
    d = H.algebra.dimension
    for which in ("11i", "11ii", "11iii", "11iv"):
        for label, a in [("1", H.unit(1))] + [(i, H.basis(i)) for i in range(d)]:
            sides = lemma11_sides(H, which, a)
            assert sides == reference_lemma11_sides(H, which, a), (which, label)


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


def test_lemma11_sides_match_the_reference_on_a_failing_product(h2ext, ext):
    # h2ext (x) ext fails all four identities through the odd (x) odd
    # antipode sign (ROADMAP item 1); the grouped sides must fail the same way
    H = tensor_product_structure(h2ext, ext)
    assert check_lemma11(H).failed_ids() == ["eq.11i", "eq.11ii", "eq.11iii", "eq.11iv"]
    _assert_lemma11_sides_match_the_reference(H)


@pytest.mark.parametrize("pair, row", [((2, 1), {3: 1}), ((1, 2), {3: 1}), ((3, 0), {1: 1})])
def test_lemma11_sides_match_the_reference_on_one_sided_products(h2ext, pair, row):
    # e_i e_j != 0 but e_j e_i = 0, with the lone leg of Phi (0 or 2) on
    # either side: a zero-product skip that reads its factor in the wrong
    # order drops terms that do not vanish
    _assert_lemma11_sides_match_the_reference(_with_product(h2ext, pair, row))


def test_lemma11_signs_on_a_twisted_odd_product(h2, ext_ext_graded):
    # h2 brings a nontrivial Phi and ext (x) ext nonzero odd products; a
    # random twist mixes the two, so every explicit sign factor of
    # lemma11_sides decides terms that do not vanish
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


def test_eta_builds_its_constants_once_per_structure(monkeypatch):
    H = build_structure("h2ext")  # fresh, so nothing is cached yet
    calls = []
    original = qhsa.structure.outer

    def counting(*elements):
        calls.append(len(elements))
        return original(*elements)

    monkeypatch.setattr(qhsa.structure, "outer", counting)
    assert check_eta_lemma(H).ok
    # 1 (x) alpha and 1 (x) beta, not one of each for every (a, i, j): 2 d^3 = 128
    assert calls == [2, 2]
    assert check_eta_lemma(H).ok
    assert calls == [2, 2]


def reference_eta_report(H):
    """eq.lem5i and eq.lem5ii over all d^3 cases (a, i, j) with
    eta = e_i (x) e_j: the reference that the reduced check is compared
    against."""
    report = CheckReport()
    d = range(H.algebra.dimension)
    for check_id, contract, from_left in (
        ("eq.lem5i", m_alpha_s, True),
        ("eq.lem5ii", m_beta_s, False),
    ):

        def cases():
            for i in d:
                for j in d:
                    eta = H.basis(i, j)
                    base = contract(H, eta)
                    for a, da in enumerate(H.delta.images):
                        stacked = da * eta if from_left else eta * da
                        rhs = base.scaled(H.epsilon.images[a].scalar_value())
                        yield [a, i, j], contract(H, stacked), rhs

        expect_equal_per_basis(report, check_id, cases())
    return report


def _entries(report):
    return [(e.check_id, e.status, e.witness) for e in report.entries]


# Structures on which the reduced eta check must agree with the d^3
# enumeration, each built from the conftest fixtures: the bundled positive
# fixtures and both negative documents, both ladder rung shapes, and
# corruptions in alpha, beta, Delta, S and in the product table (the last
# makes the algebra report fail, so the d^3 cases run).
ETA_AGREEMENT_CASES = {
    **{name: (lambda fx, name=name: fx(name)) for name in ALL_FIXTURES},
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
    "h2ext-odd-beta": lambda fx: replace(
        fx("h2ext"), beta=fx("h2ext").beta + elem(fx("h2ext"), 1, {(1,): 1})
    ),
    # alpha or beta a transposition: k[S3] is not commutative, so eta fails
    "ks3-alpha": lambda fx: replace(fx("ks3"), alpha=elem(fx("ks3"), 1, {(1,): 1})),
    "ks3-beta": lambda fx: replace(fx("ks3"), beta=elem(fx("ks3"), 1, {(1,): 1})),
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
    expected = _entries(reference_eta_report(H))
    assert _entries(check_eta_lemma(H)) == expected
    results = run_suites(H, ["eta"])
    if name not in ETA_FAILED_PREMISES:
        [(suite, report, _)] = results
        assert suite == "eta" and _entries(report) == expected
        return
    [(premise, failed, _), (suite, skipped, _)] = results
    assert (premise, suite) == (ETA_FAILED_PREMISES[name], "eta") and not failed.ok
    assert [e.status for e in skipped.entries] == ["skipped"]


def test_lemma11_and_eta_multiplication_counts_are_pinned(monkeypatch):
    """Exact tensor_multiply counts on a fresh h2ext.  The first lemma-11
    call also inverts Phi and builds the cached middles, and the first eta
    call builds the algebra report; second calls reuse all three."""
    H = build_structure("h2ext")
    calls = []
    original = qhsa.algebra.tensor_multiply

    def counting(x, y):
        calls.append(x.arity)
        return original(x, y)

    monkeypatch.setattr(qhsa.algebra, "tensor_multiply", counting)
    counts = []
    for check in (check_lemma11, check_lemma11, check_eta_lemma, check_eta_lemma):
        calls.clear()
        assert check(H).ok
        counts.append(len(calls))
    # the term-by-term lemma 11 made 3459 and 3456 calls, the d^3 eta 288 each
    # time; the grouped lemma 11 with every basis product multiplied made 827
    # and 800, and the eta lemma 288 then 72 while the algebra report was
    # built from elements
    assert counts == [283, 256, 72, 72]


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
    assert H.algebra_report.ok


# -- metatheorems ------------------------------------------------------------------------


def test_derived_counit_identities_follow(fixture_structure):
    """Once the bialgebra and antipode suites pass, the derived identities
    eps(alpha) eps(beta) = 1 and eps(S(a)) = eps(a) must also pass."""
    H = fixture_structure
    assert check_quasi_bialgebra(H).ok
    report = check_antipode_axioms(H)
    assert report.entry("eq.eps-alpha-beta").status == "pass"
    assert report.entry("eq.eps-s").status == "pass"


def test_quasi_triangular_implies_qqybe(ext, h2r):
    for H in (ext, h2r):
        assert check_quasi_triangular(H).ok
        assert check_qqybe(H).ok


def test_run_suites_skips_after_validation_failure():
    from qhsa.fixtures import ext_broken_grading, ext_structure

    H = ext_structure()
    bad = replace(H, algebra=ext_broken_grading())
    # keep maps pointing at the old algebra: rebuild structure over the bad
    # algebra directly to get a loadable but invalid object
    results = run_suites(bad, ["algebra", "quasi-bialgebra"])
    assert results[0][1].failed_ids() == ["algebra.grading"]
    assert results[1][1].entries[0].status == "skipped"


def test_every_premise_is_a_suite_listed_earlier():
    names = list(SUITES)
    for position, (name, (_, premises)) in enumerate(SUITES.items()):
        assert all(p in names[:position] for p in premises), name
    assert DEFAULT_SUITE_NAMES == tuple(n for n in names if n != "triangular")
    assert DRINFELD_PREMISES == DEFAULT_SUITE_NAMES[:4]


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
    return replace(H, **{component: StructureMap(H.algebra, f.out_arity, images)})


def _with_product(H, pair, row):
    """H over an algebra whose product of the basis pair is replaced, every
    other component copied over to it."""
    alg = H.algebra
    field = alg.field
    mult = dict(alg.mult)
    mult[pair] = {k: field.from_int(c) for k, c in row.items()}
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
        lambda H: replace(H, alpha=elem(H, 1, {(1,): 1})),  # alpha a transposition
        "eq.lem5i",
        {"difference": [[[1], "-1"], [[5], "1"]], "basis": [2, 0, 0]},
    ),
    (
        "eq.lem5ii-beta",
        "eta",
        "ks3",
        lambda H: replace(H, beta=elem(H, 1, {(1,): 1})),
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
    assert _entries(H.algebra_report) == expected


@pytest.mark.parametrize(
    "suite, fixture, corrupt, check_id, witness",
    WITNESS_CASES + [case[1:] for case in ETA_WITNESS_CASES],
    ids=[case[3] for case in WITNESS_CASES] + [case[0] for case in ETA_WITNESS_CASES],
)
def test_basis_check_witness_is_pinned(request, suite, fixture, corrupt, check_id, witness):
    report = SUITES[suite][0](corrupt(request.getfixturevalue(fixture)))
    assert check_id in report.failed_ids()
    assert report.entry(check_id).witness == witness


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
    report = validate_structure(replace(H, phi=elem(H, 3, terms)))
    assert report.failed_ids() == ["structure.phi-invertible"]
    assert report.entry("structure.phi-invertible").witness == {
        "reason": "element has no left inverse"
    }
