"""Structure-to-structure transforms: twisting, opposite, primed structure,
twist-by-R comparison, and graded tensor products of structures.

A twistor is an even invertible F in H (x) H whose two counit legs are both 1.
Twisting transports one valid structure to another; the opposite structure
flips the coproduct and replaces the antipode by its inverse; the primed
structure conjugates everything through the antipode.  Callers verify the
outputs with the usual check suites rather than trusting these formulas.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    AlgebraError,
    GradedAlgebra,
    SingularError,
    StructureMap,
    TensorElement,
    apply_map_legs,
    contract_legs,
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
)


class Twistor:
    """An element of H (x) H meant to be even and invertible with both counit
    legs equal to 1, as ``check_twistor`` verifies.  ``inverse`` is the
    declared one, or is computed on first use (SingularError if there is
    none)."""

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
        report.add("twistor.invertible", witness)
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


def twist_structure(H: QhsaStructure, F: Twistor) -> QhsaStructure:
    """The twisted structure (Delta_F, epsilon, Phi_F, S, alpha_F, beta_F [, R_F]).

    The output is expected to pass the full check suites; tests and the CLI
    verify that instead of assuming it.
    """
    f, f_inv = F.element, F.inverse
    delta_f = StructureMap(H.algebra, 2, [f * img * f_inv for img in H.delta.images])
    phi_f = (
        embed_legs(f, (0, 1), 3)
        * apply_map_legs(f, 0, H.delta)
        * H.phi
        * apply_map_legs(f_inv, 1, H.delta)
        * embed_legs(f_inv, (1, 2), 3)
    )
    alpha_f = m_alpha_s(H, f_inv)
    beta_f = m_beta_s(H, f)
    r_f = None
    if H.has_r:
        r_f = permute_legs(f, (1, 0)) * H.r_matrix * f_inv
    return H.replace(delta=delta_f, phi=phi_f, alpha=alpha_f, beta=beta_f, r_matrix=r_f)


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
        report.add(f"{prefix}.r", {"reason": "one side lacks an R-matrix"})
    else:
        report.add_skip(f"{prefix}.r", "no R-matrix")


def opposite_structure(H: QhsaStructure) -> QhsaStructure:
    """(Delta^T, epsilon, Phi^T, S^{-1}, S^{-1}(alpha), S^{-1}(beta) [, R^T])."""
    sinv = H.antipode_inv  # raises SingularError for a singular antipode
    phi_t = permute_legs(H.phi_inv, (2, 1, 0))
    alpha_t = apply_map_legs(H.alpha, 0, sinv)
    beta_t = apply_map_legs(H.beta, 0, sinv)
    r_t = permute_legs(H.r_matrix, (1, 0)) if H.has_r else None
    return H.replace(
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
    s = H.antipode
    phi_p = contract_legs(permute_legs(H.phi, (2, 1, 0)), {0: s, 1: s, 2: s})
    alpha_p = H.s_of(H.beta)
    beta_p = H.s_of(H.alpha)
    r_p = contract_legs(H.r_matrix, {0: s, 1: s}) if H.has_r else None
    return H.replace(delta=H.delta_prime, phi=phi_p, alpha=alpha_p, beta=beta_p, r_matrix=r_p)


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
    report.add(
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
    Phi, alpha and beta are ``interleave(A.x, B.x)``, the factors' elements
    leg by leg.  S carries one extra sign, (-1)^{[a][b]}, which is wrong for
    odd a and odd b (ROADMAP Open item 1).

    One factor must be an honest Hopf superalgebra (trivial Phi, alpha =
    beta = 1), so the product's Phi, alpha and beta are the other factor's,
    lifted by the Hopf factor's unit.  A Phi is trivial only when it has
    |support(1)|^3 terms and equals the arity-3 unit, which is built only
    when the counts agree.  R is the other factor's (A's when both are
    Hopf), interleaved with the Hopf factor's arity-2 unit.

    The restriction is a choice, not a limit of the data model: with Phi,
    alpha, beta and R (when both have one) from both factors, h2 (x) h2,
    h2r (x) h2r, h2 (x) h2ext and h2ext (x) h2 pass every default suite and
    the Drinfeld battery.  It is kept because taking R from both factors
    changes products whose Hopf factor has an R-matrix: h2r (x) ext's R
    would have twice its 4 terms, and every R identity multiplies them.
    """
    if A.algebra.field != B.algebra.field:
        raise AlgebraError("tensor product needs a common scalar field")

    a_trivial, b_trivial = (
        len(H.phi.terms) == len(H.algebra.unit_support) ** 3 and H.phi == H.unit(3)
        for H in (A, B)
    )
    if not a_trivial and not b_trivial:
        raise AlgebraError("tensor product needs at least one trivial coassociator")
    hopf = B if b_trivial else A
    if not (hopf.alpha == hopf.unit(1) and hopf.beta == hopf.unit(1)):
        raise AlgebraError("the trivial-coassociator factor must have alpha = beta = 1")

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

    r_matrix = None
    if (A if b_trivial else B).has_r:
        r_pair = (A.r_matrix, B.unit(2)) if b_trivial else (A.unit(2), B.r_matrix)
        r_matrix = interleave(*r_pair, algebra)
    return QhsaStructure(
        algebra,
        StructureMap(algebra, 2, images(A.delta, B.delta)),
        StructureMap(algebra, 0, images(A.epsilon, B.epsilon)),
        StructureMap(algebra, 1, s_images),
        interleave(A.phi, B.phi, algebra),
        interleave(A.alpha, B.alpha, algebra),
        interleave(A.beta, B.beta, algebra),
        r_matrix,
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
