import random
from dataclasses import replace

import pytest

import qhsa.structure
from qhsa.algebra import GradedAlgebra, StructureMap
from qhsa.fixtures import (
    build_structure,
    h2_broken_antipode,
    h2_broken_pentagon,
)
from qhsa.structure import (
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
    suite_function,
    validate_structure,
)
from qhsa.transforms import random_twistor, tensor_product_structure, twist_structure

from conftest import elem

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


# -- witnesses of the basis-quantified checks ------------------------------------------


def _with_image(H, component, index, terms):
    """H with one basis image of a structure map replaced."""
    f = getattr(H, component)
    images = list(f.images)
    images[index] = elem(H, f.out_arity, terms)
    return replace(H, **{component: StructureMap(H.algebra, f.out_arity, images)})


def _with_product(H, pair, row):
    """H over an algebra whose product of the basis pair is replaced."""
    alg = H.algebra
    field = alg.field
    mult = dict(alg.mult)
    mult[pair] = {k: field.from_int(c) for k, c in row.items()}
    bad = GradedAlgebra(alg.dimension, alg.parity, alg.unit, mult, field)
    return replace(H, algebra=bad)


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


@pytest.mark.parametrize(
    "suite, fixture, corrupt, check_id, witness",
    WITNESS_CASES,
    ids=[case[3] for case in WITNESS_CASES],
)
def test_basis_check_witness_is_pinned(suite, fixture, corrupt, check_id, witness):
    report = suite_function(suite)(corrupt(build_structure(fixture)))
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
