"""Structure-to-structure transforms: twisting, opposite, primed structure,
twist-by-R comparison, and graded tensor products of structures.

A twistor is an even invertible F in H (x) H whose two counit legs are both 1.
Twisting transports one valid structure to another; the opposite structure
flips the coproduct and replaces the antipode by its inverse; the primed
structure conjugates everything through the antipode.  Callers verify the
outputs with the usual check suites rather than trusting these formulas.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

from .algebra import (
    AlgebraError,
    GradedAlgebra,
    SingularError,
    StructureMap,
    TensorElement,
    apply_map_legs,
    embed_legs,
    interleave,
    interleave_sign,
    invert_tensor_element,
    permute_legs,
)
from .reporting import CheckReport, element_terms_json, expect_equal, expect_equal_per_basis
from .structure import (
    QhsaStructure,
    _counit_legs_entry,
    _even_entry,
    _inverse_witness,
    _require_r,
    m_alpha_s,
    m_beta_s,
    mul_chain,
)


class Twistor:
    """An element of H (x) H meant to be even and invertible with both counit
    legs equal to 1, as ``check_twistor`` verifies.  ``inverse`` is the
    declared one, or is computed on first use (SingularError if there is none)."""

    def __init__(self, element: TensorElement, inverse: TensorElement | None = None):
        if element.arity != 2:
            raise AlgebraError("a twistor has arity 2")
        self.element = element
        self.declared_inverse = inverse

    @cached_property
    def inverse(self) -> TensorElement:
        if self.declared_inverse is not None:
            return self.declared_inverse
        return invert_tensor_element(self.element)

    def transpose(self) -> "Twistor":
        return Twistor(
            permute_legs(self.element, (1, 0)), permute_legs(self.inverse, (1, 0))
        )


def check_twistor(H: QhsaStructure, F: Twistor) -> CheckReport:
    """Invertibility, evenness and both counit legs equal to 1.

    ``twistor.invertible`` is reported only when it fails, and then alone:
    the element is singular, or its declared inverse is not a two-sided
    inverse in H's algebra.  A computed inverse is not multiplied again.
    """
    report = CheckReport()
    try:
        inverse = F.inverse
    except SingularError as exc:
        witness = {"reason": f"twistor is not invertible: {exc}"}
    else:
        declared = F.declared_inverse is not None
        witness = _inverse_witness(H, F.element, inverse) if declared else None
    if witness is not None:
        report.add_fail("twistor.invertible", witness)
        return report
    _even_entry(report, "twistor.even", F.element)
    _counit_legs_entry(report, "eq.cup", H, F.element)
    return report


def check_cocycle(H: QhsaStructure, F: Twistor) -> CheckReport:
    """(F (x) 1)(Delta (x) 1)F = (1 (x) F)(1 (x) Delta)F, one arity-3 equality."""
    report = CheckReport()
    lhs = embed_legs(F.element, (0, 1), 3) * apply_map_legs(F.element, 0, H.delta)
    rhs = embed_legs(F.element, (1, 2), 3) * apply_map_legs(F.element, 1, H.delta)
    expect_equal(report, "eq.ccc", lhs, rhs)
    return report


def twisted_coassociator(H: QhsaStructure, f: TensorElement, f_inv: TensorElement):
    return mul_chain(
        embed_legs(f, (0, 1), 3),
        apply_map_legs(f, 0, H.delta),
        H.phi,
        apply_map_legs(f_inv, 1, H.delta),
        embed_legs(f_inv, (1, 2), 3),
    )


def twist_structure(H: QhsaStructure, F: Twistor) -> QhsaStructure:
    """The twisted structure (Delta_F, epsilon, Phi_F, S, alpha_F, beta_F [, R_F]).

    The output is expected to pass the full check suites; tests and the CLI
    verify that instead of assuming it.
    """
    f, f_inv = F.element, F.inverse
    delta_f = StructureMap(H.algebra, 2, [f * img * f_inv for img in H.delta.images])
    phi_f = twisted_coassociator(H, f, f_inv)
    alpha_f = m_alpha_s(H, f_inv)
    beta_f = m_beta_s(H, f)
    r_f = None
    if H.has_r:
        r_f = permute_legs(f, (1, 0)) * H.r_matrix * f_inv
    return replace(H, delta=delta_f, phi=phi_f, alpha=alpha_f, beta=beta_f, r_matrix=r_f)


def _compare_structures(report, prefix, A: QhsaStructure, B: QhsaStructure):
    expect_equal_per_basis(
        report,
        f"{prefix}.delta",
        ((a, A.delta.images[a], B.delta.images[a]) for a in range(A.algebra.dimension)),
    )
    expect_equal(report, f"{prefix}.phi", A.phi, B.phi)
    expect_equal(report, f"{prefix}.alpha", A.alpha, B.alpha)
    expect_equal(report, f"{prefix}.beta", A.beta, B.beta)
    if A.has_r and B.has_r:
        expect_equal(report, f"{prefix}.r", A.r_matrix, B.r_matrix)
    elif A.has_r != B.has_r:
        report.add_fail(f"{prefix}.r", {"reason": "one side lacks an R-matrix"})
    else:
        report.add_skip(f"{prefix}.r", "no R-matrix")


def twist_composition_check(H: QhsaStructure, F: Twistor, G: Twistor) -> CheckReport:
    """Twisting by F then by G equals twisting once by G*F, componentwise."""
    report = CheckReport()
    twice = twist_structure(twist_structure(H, F), G)
    combined = Twistor(G.element * F.element)
    once = twist_structure(H, combined)
    _compare_structures(report, "twist-composition", twice, once)
    return report


def opposite_structure(H: QhsaStructure) -> QhsaStructure:
    """(Delta^T, epsilon, Phi^T, S^{-1}, S^{-1}(alpha), S^{-1}(beta) [, R^T])."""
    sinv = H.antipode_inv  # raises SingularError for a singular antipode
    phi_t = permute_legs(H.phi_inv, (2, 1, 0))
    alpha_t = apply_map_legs(H.alpha, 0, sinv)
    beta_t = apply_map_legs(H.beta, 0, sinv)
    r_t = permute_legs(H.r_matrix, (1, 0)) if H.has_r else None
    return replace(
        H,
        delta=H.delta_t,
        phi=phi_t,
        antipode=sinv,
        alpha=alpha_t,
        beta=beta_t,
        r_matrix=r_t,
    )


def prime_structure(H: QhsaStructure) -> QhsaStructure:
    """(Delta', epsilon, Phi', S, S(beta), S(alpha) [, (S (x) S)R])."""
    H.antipode_inv  # fail early on a singular antipode
    phi_p = permute_legs(H.phi, (2, 1, 0))
    phi_p = apply_map_legs(phi_p, 0, H.antipode)
    phi_p = apply_map_legs(phi_p, 1, H.antipode)
    phi_p = apply_map_legs(phi_p, 2, H.antipode)
    alpha_p = H.s_of(H.beta)
    beta_p = H.s_of(H.alpha)
    r_p = None
    if H.has_r:
        r_p = apply_map_legs(apply_map_legs(H.r_matrix, 0, H.antipode), 1, H.antipode)
    return replace(H, delta=H.delta_prime, phi=phi_p, alpha=alpha_p, beta=beta_p, r_matrix=r_p)


def verify_twist_by_r(H: QhsaStructure) -> CheckReport:
    """Twisting a quasi-triangular structure by its own R-matrix lands on the
    opposite coproduct, coassociator and R-matrix.  The induced alpha_R and
    beta_R are reported informationally and compared to nothing: they are
    built with S, not with the opposite antipode."""
    report = CheckReport()
    ids = ("twist-by-r.delta", "twist-by-r.phi", "twist-by-r.r", "twist-by-r.alpha-beta")
    if not _require_r(H, report, ids):
        return report
    R = Twistor(H.r_matrix, H.r_inv)
    twisted = twist_structure(H, R)
    expect_equal_per_basis(
        report,
        "twist-by-r.delta",
        (
            (a, twisted.delta.images[a], H.delta_t.images[a])
            for a in range(H.algebra.dimension)
        ),
    )
    expect_equal(report, "twist-by-r.phi", twisted.phi, permute_legs(H.phi_inv, (2, 1, 0)))
    expect_equal(report, "twist-by-r.r", twisted.r_matrix, permute_legs(H.r_matrix, (1, 0)))
    report.add_pass(
        "twist-by-r.alpha-beta",
        detail={
            "alpha_r": element_terms_json(twisted.alpha),
            "beta_r": element_terms_json(twisted.beta),
        },
    )
    return report


def check_prop6(H: QhsaStructure, F: Twistor) -> CheckReport:
    """Opposite of the twisted structure equals the opposite structure twisted
    by F^T: coproduct, coassociator, alpha, beta, and R when present."""
    report = CheckReport()
    lhs = opposite_structure(twist_structure(H, F))
    rhs = twist_structure(opposite_structure(H), F.transpose())
    _compare_structures(report, "prop6", lhs, rhs)
    return report


def tensor_product_structure(A: QhsaStructure, B: QhsaStructure) -> QhsaStructure:
    """Graded tensor product of two structures, with basis index (i, j) at
    flat position i*dim(B) + j.

    Every sign comes from the one interleave rule of ``qhsa.algebra``: the
    product table, Delta, epsilon and S are interleaved image by image, and
    Phi, alpha, beta and R are those of the factor with the nontrivial
    coassociator, interleaved with the other factor's unit.  S carries one
    extra sign, (-1)^{[a][b]}, which is wrong for odd a and odd b (ROADMAP
    Open item 1).

    The other factor must be an honest Hopf superalgebra (trivial Phi,
    alpha = beta = 1), otherwise the output provably fails the antipode
    axioms.  The general two-sided formula is out of reach of the
    structure-constant data model, and this restricted product is all the
    graded fixtures need.
    """
    if A.algebra.field != B.algebra.field:
        raise AlgebraError("tensor product needs a common scalar field")

    a_trivial = A.phi == A.unit(3)
    b_trivial = B.phi == B.unit(3)
    if not a_trivial and not b_trivial:
        raise AlgebraError("tensor product needs at least one trivial coassociator")
    main, other, main_is_a = (A, B, True) if not a_trivial or b_trivial else (B, A, False)
    if not (
        other.phi == other.unit(3)
        and other.alpha == other.unit(1)
        and other.beta == other.unit(1)
    ):
        raise AlgebraError(
            "the trivial-coassociator factor must have alpha = beta = 1"
        )

    alg_a, alg_b = A.algebra, B.algebra
    db = alg_b.dimension
    pairs = [(i, j) for i in range(alg_a.dimension) for j in range(db)]
    parity = tuple((alg_a.parity[i] + alg_b.parity[j]) % 2 for i, j in pairs)
    unit = tuple(alg_a.unit[i] * alg_b.unit[j] for i, j in pairs)
    mult = {}
    for (i, j), row_a in alg_a.mult.items():
        for (p, q), row_b in alg_b.mult.items():
            sign = interleave_sign((i, j), (p, q), alg_a.parity, alg_b.parity)
            mult[(i * db + p, j * db + q)] = {
                k * db + r: -(ca * cb) if sign else ca * cb
                for k, ca in row_a.items()
                for r, cb in row_b.items()
            }
    algebra = GradedAlgebra(len(pairs), parity, unit, mult, alg_a.field)

    def images(f: StructureMap, g: StructureMap) -> list:
        return [interleave(f.images[i], g.images[j], algebra) for i, j in pairs]

    # S(a (x) b) = (-1)^{[a][b]} S_A(a) (x) S_B(b).  The extra sign fails the
    # antihomomorphism check for odd a and odd b (ROADMAP Open item 1).
    s_images = [
        -s if alg_a.parity[i] and alg_b.parity[j] else s
        for (i, j), s in zip(pairs, images(A.antipode, B.antipode))
    ]

    def lift(x: TensorElement) -> TensorElement:
        unit_n = other.unit(x.arity)
        return interleave(x, unit_n, algebra) if main_is_a else interleave(unit_n, x, algebra)

    return QhsaStructure(
        algebra,
        StructureMap(algebra, 2, images(A.delta, B.delta)),
        StructureMap(algebra, 0, images(A.epsilon, B.epsilon)),
        StructureMap(algebra, 1, s_images),
        lift(main.phi),
        lift(main.alpha),
        lift(main.beta),
        lift(main.r_matrix) if main.has_r else None,
    )


RANDOM_TWISTOR_TRIES = 50


def random_twistor(H: QhsaStructure, rng) -> Twistor:
    """1 (x) 1 plus a random even perturbation with both counit legs zero,
    rejection-sampled until invertible.  Used by the property tests."""
    alg = H.algebra
    d = alg.dimension
    eps = [img.scalar_value() for img in H.epsilon.images]
    candidates = [
        (i, j)
        for i in range(d)
        for j in range(d)
        if eps[i] == 0 and eps[j] == 0 and (alg.parity[i] + alg.parity[j]) % 2 == 0
    ]
    for _ in range(RANDOM_TWISTOR_TRIES):
        terms = {}
        for w in candidates:
            k = rng.randint(-2, 2)
            if k:
                terms[w] = alg.field.from_int(k)
        twistor = Twistor(H.unit(2) + TensorElement(alg, 2, terms))
        try:
            twistor.inverse
        except SingularError:
            continue
        return twistor
    raise AlgebraError("could not sample an invertible twistor")
