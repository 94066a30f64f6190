"""Construction and verification of the Drinfeld twist.

The pipeline builds gamma and gamma-bar from the coassociator, assembles the
twist F_D and its explicit inverse, and then machine-checks the whole circle
of identities connecting the primed structure (S-conjugated coproduct,
coassociator, canonical elements, R-matrix) with twisting by F_D.  Each
element is computed term by term over the sparse words of Phi with the
Sweedler legs expanded through the stored coproduct images; there is no
symbolic simplification anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    TensorElement,
    apply_map_legs,
    embed_legs,
    linear_combination,
    multiply_adjacent_legs,
    outer,
    permute_legs,
)
from .reporting import CheckReport, expect_equal, expect_equal_per_basis
from .structure import (
    QhsaStructure,
    _require_r,
    check_quasi_triangular,
    m_alpha_s,
    m_beta_s,
    mul_chain,
)
from .transforms import (
    Twistor,
    _compare_structures,
    prime_structure,
    twist_structure,
    twisted_coassociator,
)


class DrinfeldError(ValueError):
    """A constructed element failed one of its defining identities, which
    points at a sign bug or an invalid input structure."""


@dataclass
class DrinfeldData:
    gamma: TensorElement
    gamma_bar: TensorElement
    f_d: TensorElement
    f_d_inverse: TensorElement
    eps_alpha: object
    eps_beta: object

    @property
    def f_d_bar(self) -> TensorElement:
        """The strictly normalized twistor eps(beta) * F_D."""
        return self.f_d.scaled(self.eps_beta)

    @property
    def f_d_bar_inverse(self) -> TensorElement:
        return self.f_d_inverse.scaled(self.eps_alpha)


def _gamma_post(H: QhsaStructure, w4: TensorElement) -> TensorElement:
    """(m (x) m)(1 (x) alpha (x) 1 (x) alpha)(S (x) 1 (x) S (x) 1)
    (1 (x) T (x) 1)(T (x) 1 (x) 1) applied to an arity-4 element."""
    z = permute_legs(w4, (1, 2, 0, 3))
    z = apply_map_legs(z, 0, H.antipode)
    z = apply_map_legs(z, 2, H.antipode)
    z = outer(H.unit(1), H.alpha, H.unit(1), H.alpha) * z
    return multiply_adjacent_legs(multiply_adjacent_legs(z, 0), 1)


def _gamma_bar_post(H: QhsaStructure, w4: TensorElement) -> TensorElement:
    """(m (x) m)(1 (x) beta S (x) 1 (x) beta S)(1 (x) T (x) 1)(1 (x) 1 (x) T)."""
    z = permute_legs(w4, (0, 3, 1, 2))
    z = apply_map_legs(z, 1, H.antipode)
    z = apply_map_legs(z, 3, H.antipode)
    z = outer(H.unit(1), H.beta, H.unit(1), H.beta) * z
    return multiply_adjacent_legs(multiply_adjacent_legs(z, 0), 1)


def compute_gamma(H: QhsaStructure) -> TensorElement:
    """gamma from (Phi^{-1} (x) 1)(Delta (x) 1 (x) 1)Phi, cross-checked against
    the second expression and against its absorption identity for every basis
    element.  A mismatch signals a sign-engine bug, so it raises."""
    phi0, _, _, _, one_x_phi = H.phi_factors
    _, _, inv2, inv_x1, _ = H.phi_inv_factors
    gamma = _gamma_post(H, inv_x1 * phi0)
    alt = _gamma_post(H, one_x_phi * inv2)
    if gamma != alt:
        raise DrinfeldError("the two printed expressions for gamma disagree")
    for a, eps in enumerate(H.epsilon.images):
        if _absorb_gamma(H, gamma, a) != gamma.scaled(eps.scalar_value()):
            raise DrinfeldError(f"gamma fails its absorption identity at basis {a}")
    return gamma


def compute_gamma_bar(H: QhsaStructure) -> TensorElement:
    _, _, phi2, phi_x1, _ = H.phi_factors
    inv0, _, _, _, one_x_inv = H.phi_inv_factors
    gamma_bar = _gamma_bar_post(H, inv0 * phi_x1)
    alt = _gamma_bar_post(H, phi2 * one_x_inv)
    if gamma_bar != alt:
        raise DrinfeldError("the two printed expressions for gamma-bar disagree")
    for a, eps in enumerate(H.epsilon.images):
        if _absorb_gamma_bar(H, gamma_bar, a) != gamma_bar.scaled(eps.scalar_value()):
            raise DrinfeldError(f"gamma-bar fails its absorption identity at basis {a}")
    return gamma_bar


def _absorb_gamma(H, gamma, a):
    """sum over Delta(a): (S (x) S)Delta^T(a_1) * gamma * Delta(a_2)."""
    return linear_combination(
        H.algebra,
        2,
        (
            (H.ss_delta_t.images[j] * gamma * H.delta.images[k], c)
            for (j, k), c in H.delta.images[a].terms.items()
        ),
    )


def _absorb_gamma_bar(H, gamma_bar, a):
    """sum over Delta(a): Delta(a_1) * gamma-bar * (S (x) S)Delta^T(a_2)."""
    return linear_combination(
        H.algebra,
        2,
        (
            (H.delta.images[j] * gamma_bar * H.ss_delta_t.images[k], c)
            for (j, k), c in H.delta.images[a].terms.items()
        ),
    )


def _f_d_element(H: QhsaStructure, gamma: TensorElement) -> TensorElement:
    """F_D = sum over Phi of (S (x) S)Delta^T(X) * gamma * Delta(Y beta S(Z))."""
    s = H.antipode.images

    def terms():
        for (x, y, z), c in H.phi.terms.items():
            h = H.basis(y) * H.beta * s[z]
            yield H.ss_delta_t.images[x] * gamma * H.coproduct(h), c

    return linear_combination(H.algebra, 2, terms())


def _f_d_inverse_element(H: QhsaStructure, gamma_bar: TensorElement) -> TensorElement:
    """F_D^{-1} = sum over Phi^{-1} of Delta(Xbar) * gamma-bar * Delta'(S(Ybar) alpha Zbar)."""
    s = H.antipode.images

    def terms():
        for (x, y, z), c in H.phi_inv.terms.items():
            h = s[y] * H.alpha * H.basis(z)
            yield H.delta.images[x] * gamma_bar * apply_map_legs(h, 0, H.delta_prime), c

    return linear_combination(H.algebra, 2, terms())


def compute_drinfeld_twist(H: QhsaStructure) -> DrinfeldData:
    """gamma, gamma-bar, F_D and F_D^{-1}, with the inverse property and the
    counit legs verified on the spot."""
    gamma = compute_gamma(H)
    gamma_bar = compute_gamma_bar(H)
    f_d = _f_d_element(H, gamma)
    f_d_inv = _f_d_inverse_element(H, gamma_bar)
    unit2 = H.unit(2)
    if f_d_inv * f_d != unit2 or f_d * f_d_inv != unit2:
        raise DrinfeldError("constructed F_D^{-1} is not a two-sided inverse of F_D")
    expected = H.unit(1).scaled(H.eps_alpha)
    if (
        apply_map_legs(f_d, 0, H.epsilon) != expected
        or apply_map_legs(f_d, 1, H.epsilon) != expected
    ):
        raise DrinfeldError("counit legs of F_D do not equal eps(alpha)")
    return DrinfeldData(gamma, gamma_bar, f_d, f_d_inv, H.eps_alpha, H.eps_beta)


# -- theorem battery -----------------------------------------------------------


def check_alt_expressions(H: QhsaStructure, D: DrinfeldData) -> CheckReport:
    """The alternative closed forms for F_D and F_D^{-1}."""
    report = CheckReport()
    s = H.antipode.images

    def fd_terms():
        for (x, y, z), c in H.phi_inv.terms.items():
            h = H.basis(x) * H.beta * s[y]
            yield apply_map_legs(h, 0, H.delta_prime) * D.gamma * H.delta.images[z], c

    def fd_inverse_terms():
        for (x, y, z), c in H.phi.terms.items():
            h = s[x] * H.alpha * H.basis(y)
            yield H.coproduct(h) * D.gamma_bar * H.ss_delta_t.images[z], c

    expect_equal(report, "altexpr.fd", linear_combination(H.algebra, 2, fd_terms()), D.f_d)
    expect_equal(
        report,
        "altexpr.fd-inverse",
        linear_combination(H.algebra, 2, fd_inverse_terms()),
        D.f_d_inverse,
    )
    return report


def verify_thm2(H: QhsaStructure, D: DrinfeldData) -> CheckReport:
    """Delta' is conjugation of Delta by F_D, plus both intertwining forms."""
    report = CheckReport()
    d = H.algebra.dimension
    delta, delta_prime = H.delta.images, H.delta_prime.images
    expect_equal_per_basis(
        report,
        "eq.8.6a",
        ((a, delta_prime[a] * D.f_d, D.f_d * delta[a]) for a in range(d)),
    )
    expect_equal_per_basis(
        report,
        "eq.8.8a",
        ((a, D.f_d_inverse * delta_prime[a], delta[a] * D.f_d_inverse) for a in range(d)),
    )
    expect_equal_per_basis(
        report,
        "thm2.conjugation",
        ((a, delta_prime[a], D.f_d * delta[a] * D.f_d_inverse) for a in range(d)),
    )
    return report


def verify_lemma13(H: QhsaStructure, D: DrinfeldData) -> CheckReport:
    report = CheckReport()
    expect_equal(report, "eq.lem13.gamma", D.f_d * H.coproduct(H.alpha), D.gamma)
    expect_equal(report, "eq.lem13.gamma-bar", H.coproduct(H.beta) * D.f_d_inverse, D.gamma_bar)
    return report


def verify_thm3(H: QhsaStructure, D: DrinfeldData, primed: QhsaStructure) -> CheckReport:
    """The primed structure equals the F_D-twisted one: coassociator and both
    canonical elements, plus the two product forms of the coassociator identity."""
    report = CheckReport()

    phi_fd = twisted_coassociator(H, D.f_d, D.f_d_inverse)
    expect_equal(report, "thm3.phi", primed.phi, phi_fd)

    expect_equal(
        report,
        "thm3.alpha",
        m_alpha_s(H, D.f_d_inverse),
        H.s_of(H.beta).scaled(H.eps_alpha),
    )
    expect_equal(
        report,
        "thm3.beta",
        m_beta_s(H, D.f_d),
        H.s_of(H.alpha).scaled(H.eps_beta),
    )

    lhs = mul_chain(
        primed.phi,
        embed_legs(D.f_d, (1, 2), 3),
        apply_map_legs(D.f_d, 1, H.delta),
    )
    rhs = mul_chain(
        embed_legs(D.f_d, (0, 1), 3),
        apply_map_legs(D.f_d, 0, H.delta),
        H.phi,
    )
    expect_equal(report, "eq.star", lhs, rhs)

    lhs = mul_chain(
        primed.phi_inv,
        embed_legs(D.f_d, (0, 1), 3),
        apply_map_legs(D.gamma, 0, H.delta),
    )
    rhs = mul_chain(
        embed_legs(D.f_d, (1, 2), 3),
        apply_map_legs(D.gamma, 1, H.delta),
        H.phi_inv,
    )
    expect_equal(report, "eq.sstar", lhs, rhs)
    return report


def verify_thm5(H: QhsaStructure, D: DrinfeldData, primed: QhsaStructure) -> CheckReport:
    """(S (x) S)R equals the F_D-twisted R-matrix; the exchange identity for
    gamma; and quasi-triangularity of the full primed structure."""
    report = CheckReport()
    if not _require_r(H, report, ("thm5.r", "eq.lem8", "prop8.quasi-triangular")):
        return report
    r_prime = primed.r_matrix
    expect_equal(
        report,
        "thm5.r",
        r_prime,
        permute_legs(D.f_d, (1, 0)) * H.r_matrix * D.f_d_inverse,
    )
    expect_equal(
        report,
        "eq.lem8",
        r_prime * D.gamma,
        permute_legs(D.gamma, (1, 0)) * H.r_matrix,
    )
    sub = check_quasi_triangular(primed)
    if sub.ok:
        report.add_pass("prop8.quasi-triangular")
    else:
        report.add_fail(
            "prop8.quasi-triangular",
            {"failed": sub.failed_ids()},
        )
    return report


def verify_prime_equivalence(
    H: QhsaStructure, D: DrinfeldData, primed: QhsaStructure
) -> CheckReport:
    """Componentwise: the primed structure is exactly the structure twisted by
    the normalized twistor eps(beta) F_D, including the R-matrix."""
    report = CheckReport()
    twisted = twist_structure(H, Twistor(D.f_d_bar, D.f_d_bar_inverse))
    _compare_structures(report, "drinfeld.prime-equivalence", primed, twisted)
    return report


def drinfeld_construction(H: QhsaStructure) -> tuple:
    """Build the Drinfeld twist; returns (DrinfeldData | None, CheckReport).

    The report holds the construction entries only.  Construction failures
    (expression mismatch, absorption violations, inverse failures) become a
    failing entry rather than an exception, so corrupted fixtures produce a
    readable report.
    """
    report = CheckReport()
    try:
        D = compute_drinfeld_twist(H)
    except DrinfeldError as exc:
        report.add_fail("drinfeld.construction", {"reason": str(exc)})
        return None, report
    report.add_pass("drinfeld.gamma-alt")
    report.add_pass("eq.8.1")
    report.add_pass("drinfeld.gamma-bar-alt")
    report.add_pass("eq.8.7")
    report.add_pass("drinfeld.fd-inverse")
    report.add_pass("drinfeld.fd-counit")
    return D, report


def drinfeld_report(H: QhsaStructure) -> tuple:
    """The construction followed by the full theorem battery; returns
    (DrinfeldData | None, CheckReport)."""
    D, report = drinfeld_construction(H)
    if D is None:
        return None, report
    primed = prime_structure(H)
    report.extend(verify_lemma13(H, D))
    report.extend(verify_thm2(H, D))
    report.extend(check_alt_expressions(H, D))
    report.extend(verify_thm3(H, D, primed))
    report.extend(verify_thm5(H, D, primed))
    report.extend(verify_prime_equivalence(H, D, primed))
    return D, report
