import random
from fractions import Fraction

import pytest

from qhsa.algebra import AlgebraError, SingularError, TensorElement, interleave
from qhsa.fixtures import (
    POSITIVE_FIXTURES,
    build_structure,
    build_twistor,
    ext_structure,
    h2_structure,
    trivial_structure,
    twistor_e11,
    twistor_one,
    twistor_theta,
    twistor_u11,
)
from qhsa.scalars import FieldSpec
from qhsa.structure import check_quasi_bialgebra, validate_algebra, validate_structure
from qhsa.transforms import (
    Twistor,
    check_cocycle,
    check_prop6,
    check_twistor,
    opposite_structure,
    prime_structure,
    random_twistor,
    tensor_product_structure,
    twist_structure,
    verify_twist_by_r,
)

from conftest import elem, entry, structures_equal, suites_ok, twist_composition_check


# -- twistor validation ------------------------------------------------------


def test_theta_twistor_is_valid(ext):
    assert check_twistor(ext, twistor_theta()).ok


def test_theta_squared_fails_counit_legs(ext):
    theta2 = elem(ext, 2, {(1, 1): 1})
    report = check_twistor(ext, Twistor(theta2))
    assert report.failed_ids() == ["twistor.invertible"]
    assert "not invertible" in entry(report, "twistor.invertible")["witness"]["reason"]
    # 2 (x) 1 + theta (x) theta is invertible, and its counit legs are 2
    report = check_twistor(ext, Twistor(elem(ext, 2, {(0, 0): 2, (1, 1): 1})))
    row = entry(report, "eq.cup")
    assert row["status"] == "fail"
    assert row["witness"] == {"eps-left": [[[0], "2"]], "eps-right": [[[0], "2"]]}


def test_e11_twistor_and_its_inverse(h2):
    F = twistor_e11()
    assert check_twistor(h2, F).ok
    assert F.inverse == h2.unit(2) + elem(h2, 2, {(1, 1): Fraction(-1, 2)})


# -- cocycle -------------------------------------------------------------------


def test_cocycle_holds_for_theta_twistor(ext):
    F = twistor_theta()
    report = check_cocycle(ext, F)
    assert report.ok
    # frozen expansion: both sides equal this four-term element
    lhs = elem(ext, 3, {(0, 0, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 0): 1})
    from qhsa.algebra import apply_map_legs, embed_legs

    built = embed_legs(F.element, (0, 1), 3) * apply_map_legs(F.element, 0, ext.delta)
    assert built == lhs


def test_cocycle_holds_for_unit_twistor(h2):
    assert check_cocycle(h2, twistor_one(h2)).ok


def test_every_h2_twistor_is_a_cocycle(h2):
    """On this fixture any even element with unit counit legs is diagonal in
    the idempotent basis, and diagonal twistors satisfy the cocycle identity
    automatically; so there is no non-cocycle twistor to bundle here."""
    assert check_cocycle(h2, twistor_e11()).ok
    rng = random.Random(7)
    for _ in range(5):
        assert check_cocycle(h2, random_twistor(h2, rng)).ok


def test_u11_twistor_breaks_the_cocycle(h2ext):
    F = twistor_u11()
    assert check_twistor(h2ext, F).ok
    report = check_cocycle(h2ext, F)
    row = entry(report, "eq.ccc")
    assert row["status"] == "fail"
    assert row["witness"]["difference"]


# -- twisting ----------------------------------------------------------------------


def test_twisting_ext_by_its_r_twistor(ext):
    HF = twist_structure(ext, twistor_theta())
    assert HF.delta == ext.delta
    assert HF.phi == ext.unit(3)
    assert HF.alpha == ext.unit(1)
    assert HF.beta == ext.unit(1)
    assert HF.r_matrix == elem(ext, 2, {(0, 0): 1, (1, 1): -1})
    assert suites_ok(HF)


def test_twisting_h2_by_e11(h2):
    HF = twist_structure(h2, twistor_e11())
    # this twistor is diagonal, so Delta and Phi survive; alpha and beta move
    assert HF.delta == h2.delta
    assert HF.phi == h2.phi
    assert HF.alpha == elem(h2, 1, {(0,): 1, (1,): Fraction(-1, 2)})
    assert HF.beta == elem(h2, 1, {(0,): 1, (1,): 2})
    assert suites_ok(HF)


def test_twisting_by_unit_is_identity(h2, ext, h2ext):
    for H in (h2, ext, h2ext):
        assert structures_equal(twist_structure(H, twistor_one(H)), H)


@pytest.mark.parametrize("tname", ["f-one", "f-e11", "f-e11-zeta4", "f-theta", "f-u11"])
def test_twisted_structures_pass_all_suites(tname):
    target, F = build_twistor(tname)
    H = build_structure(target)
    assert suites_ok(twist_structure(H, F))


def test_random_twists_pass_all_suites():
    rng = random.Random(2024)
    for name in ("ext", "h2", "h2ext"):
        H = build_structure(name)
        for _ in range(3):
            F = random_twistor(H, rng)
            assert suites_ok(twist_structure(H, F)), name


def test_twist_composition_law(h2):
    F = twistor_e11()
    G = Twistor(h2.unit(2) + elem(h2, 2, {(1, 1): Fraction(-1, 3)}))
    assert twist_composition_check(h2, F, G).ok


def test_twist_by_inverse_returns_original(h2):
    F = twistor_e11()
    Finv = Twistor(F.inverse, F.element)
    assert structures_equal(twist_structure(twist_structure(h2, F), Finv), h2)
    assert twist_composition_check(h2, F, Finv).ok


def test_twist_composition_with_unit(h2ext):
    F = twistor_u11()
    I = twistor_one(h2ext)
    HF = twist_structure(h2ext, F)
    assert structures_equal(twist_structure(HF, I), HF)


def test_scalar_rescaling_covariance(h2ext):
    F = twistor_u11()
    c = Fraction(5, 3)
    field = h2ext.algebra.field
    cF = Twistor(F.element.scaled(field.from_fraction(c)), F.inverse.scaled(field.from_fraction(1 / c)))
    A = twist_structure(h2ext, F)
    B = twist_structure(h2ext, cF)
    assert B.phi == A.phi
    assert B.delta == A.delta
    assert B.alpha == A.alpha.scaled(h2ext.algebra.field.from_fraction(1 / c))
    assert B.beta == A.beta.scaled(h2ext.algebra.field.from_fraction(c))


def test_singular_twistor_rejected(ext):
    F = Twistor(elem(ext, 2, {(1, 1): 1}))
    assert not check_twistor(ext, F).ok
    with pytest.raises(SingularError):
        F.inverse


@pytest.mark.parametrize(
    "fixture, terms",
    [
        ("h2", {(0, 0): 1, (0, 1): 1}),  # e0 (x) 1, idempotent
        ("ext", {(1, 1): 1}),  # theta (x) theta, nilpotent
    ],
    ids=["idempotent", "nilpotent"],
)
def test_singular_twistor_witness_is_pinned(fixture, terms):
    H = build_structure(fixture)
    report = check_twistor(H, Twistor(elem(H, 2, terms)))
    # reported alone: evenness and the counit legs of a non-twistor say nothing
    assert report.entries == [
        {
            "check_id": "twistor.invertible",
            "status": "fail",
            "witness": {"reason": "twistor is not invertible: element has no left inverse"},
        }
    ]


# -- opposite structure ----------------------------------------------------------------


@pytest.mark.parametrize("name", POSITIVE_FIXTURES)
def test_opposite_passes_all_suites(name):
    H = build_structure(name)
    assert suites_ok(opposite_structure(H))


def test_h2_is_self_opposite(h2):
    assert structures_equal(opposite_structure(h2), h2)


def test_ext_opposite_flips_r(ext):
    O = opposite_structure(ext)
    assert O.delta == ext.delta  # supercocommutative
    assert O.phi == ext.phi
    assert O.antipode == ext.antipode  # S^2 = id here
    assert O.r_matrix == elem(ext, 2, {(0, 0): 1, (1, 1): -1})


@pytest.mark.parametrize("name", POSITIVE_FIXTURES)
def test_double_opposite_is_identity(name):
    H = build_structure(name)
    assert structures_equal(opposite_structure(opposite_structure(H)), H)


# -- twist by R ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ext", "h2r"])
def test_twist_by_r_matches_opposite(name):
    H = build_structure(name)
    report = verify_twist_by_r(H)
    assert report.ok, report.failed_ids()
    info = entry(report, "twist-by-r.alpha-beta")
    assert info["detail"]["alpha_r"]


def test_twist_by_r_on_trivial(trivial):
    H = trivial.replace(r_matrix=trivial.unit(2))
    assert verify_twist_by_r(H).ok


def test_twist_by_r_skips_without_r(h2):
    report = verify_twist_by_r(h2)
    assert all(e["status"] == "skipped" for e in report.entries)


# -- primed structure ------------------------------------------------------------------------


@pytest.mark.parametrize("name", POSITIVE_FIXTURES)
def test_prime_passes_all_suites(name):
    H = build_structure(name)
    assert suites_ok(prime_structure(H))


def test_prime_of_ext_is_identity_transform(ext):
    assert structures_equal(prime_structure(ext), ext)


def test_prime_of_h2_values(h2):
    P = prime_structure(h2)
    assert P.delta == h2.delta
    assert P.phi == h2.phi
    assert P.alpha == h2.unit(1)  # S(beta) = 1
    assert P.beta == elem(h2, 1, {(0,): 1, (1,): -1})  # S(alpha)


def test_prime_of_trivial(trivial):
    assert structures_equal(prime_structure(trivial), trivial)


# -- opposite vs twist interchange ---------------------------------------------------------------


def test_prop6_h2_with_e11(h2):
    assert check_prop6(h2, twistor_e11()).ok


def test_prop6_ext_with_r_twistor(ext):
    report = check_prop6(ext, twistor_theta())
    assert report.ok
    assert entry(report, "prop6.r")["status"] == "pass"


def test_prop6_h2ext_with_noncocycle_twistor(h2ext):
    assert check_prop6(h2ext, twistor_u11()).ok


def test_prop6_unit_twistor_reduces_to_opposite(h2):
    assert check_prop6(h2, twistor_one(h2)).ok


# -- graded tensor product --------------------------------------------------------------------------


def test_h2ext_construction_passes_everything(h2ext):
    assert suites_ok(h2ext)
    assert h2ext.algebra.parity == (0, 1, 0, 1)
    assert not h2ext.has_r  # R lives on the trivial factor and is dropped


def test_ext_tensor_ext_signs_without_the_antipode(ext):
    # flat basis: 0 = 1(x)1, 1 = 1(x)theta, 2 = theta(x)1, 3 = theta(x)theta;
    # both factors odd, so the Koszul signs of the product and Delta bite
    T = tensor_product_structure(ext, ext)
    assert T.basis(1) * T.basis(2) == elem(T, 1, {(3,): -1})
    assert T.basis(2) * T.basis(1) == elem(T, 1, {(3,): 1})
    assert T.delta.images[3] == elem(T, 2, {(3, 0): 1, (2, 1): 1, (1, 2): -1, (0, 3): 1})
    assert validate_algebra(T.algebra).ok
    report = validate_structure(T)
    assert entry(report, "structure.delta-hom")["status"] == "pass"
    assert entry(report, "structure.epsilon-hom")["status"] == "pass"
    assert check_quasi_bialgebra(T).ok


def test_tensor_builds_two_arity_3_units(monkeypatch, h2, ext):
    # one for each factor whose Phi has |support(1)|^3 terms, h2's 8 and
    # ext's 1, to test it for triviality; the product's Phi interleaves the
    # two factors' Phi and builds no unit
    arities = []
    unit = TensorElement.unit

    def counted(algebra, arity):
        arities.append(arity)
        return unit(algebra, arity)

    monkeypatch.setattr(TensorElement, "unit", staticmethod(counted))
    tensor_product_structure(h2, ext)
    assert arities.count(3) == 2


def _lift(x, hopf, algebra, hopf_first):
    """The product's element as first built: x interleaved with the Hopf
    factor's unit of the same arity, on the Hopf factor's side."""
    unit = hopf.unit(x.arity)
    return interleave(unit, x, algebra) if hopf_first else interleave(x, unit, algebra)


@pytest.mark.parametrize("with_r", [False, True])
def test_a_hopf_factor_with_a_two_term_unit_lifts_the_other_factor(with_r):
    # k^{Z2}: h2 with Phi = 1 (x) 1 (x) 1 and alpha = beta = 1; its unit
    # e0 + e1 has two terms, so its trivial Phi has 8
    field = FieldSpec.cyclotomic(4) if with_r else None
    h2 = h2_structure(field, with_r=with_r)
    kz2 = h2.replace(phi=h2.unit(3), alpha=h2.unit(1), beta=h2.unit(1), r_matrix=None)
    assert len(kz2.phi.terms) == len(kz2.algebra.unit_support) ** 3 == 8
    for hopf_first in (True, False):
        T = tensor_product_structure(*((kz2, h2) if hopf_first else (h2, kz2)))
        lifted = (_lift(x, kz2, T.algebra, hopf_first) for x in (h2.phi, h2.alpha, h2.beta))
        assert (T.phi, T.alpha, T.beta) == tuple(lifted)
        assert T.r_matrix == (_lift(h2.r_matrix, kz2, T.algebra, hopf_first) if with_r else None)
        assert suites_ok(T)


def test_tensor_with_trivial_is_identity():
    h2 = h2_structure()
    assert structures_equal(tensor_product_structure(h2, trivial_structure()), h2)
    assert structures_equal(tensor_product_structure(trivial_structure(), h2), h2)


def test_tensor_parity_is_additive(h2ext):
    # e1 (x) theta sits at flat index 3 and is odd
    assert h2ext.algebra.parity[3] == 1


def test_tensor_field_mismatch():
    with pytest.raises(AlgebraError):
        tensor_product_structure(h2_structure(), ext_structure(field=FieldSpec.cyclotomic(4)))


def test_tensor_rejects_two_nontrivial_coassociators():
    with pytest.raises(AlgebraError):
        tensor_product_structure(h2_structure(), h2_structure())


def test_tensor_rejects_non_hopf_other_factor(h2):
    twisted = twist_structure(h2, twistor_e11())  # trivial-phi? no: phi nontrivial
    # build a trivial-phi structure with alpha != 1 by twisting ext
    ext = ext_structure()
    F = Twistor(ext.unit(2).scaled(Fraction(2)))
    stretched = twist_structure(ext, F)  # alpha = 1/2, beta = 2, phi trivial
    with pytest.raises(AlgebraError):
        tensor_product_structure(h2, stretched)


def test_tensor_carries_r_from_the_nontrivial_factor():
    # h2r (x) trivial keeps its R-matrix and still passes everything
    h2r = build_structure("h2r")
    triv = trivial_structure(FieldSpec.cyclotomic(4))
    T = tensor_product_structure(h2r, triv)
    assert T.has_r
    assert suites_ok(T)
