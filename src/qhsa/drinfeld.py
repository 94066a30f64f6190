"""Construction and verification of the Drinfeld twist.

The pipeline builds gamma and gamma-bar from the coassociator, assembles the
twist F_D and its explicit inverse, and then machine-checks the whole circle
of identities connecting the primed structure (S-conjugated coproduct,
coassociator, canonical elements, R-matrix) with twisting by F_D.  F_D,
F_D^{-1} and their two alternative closed forms are sums over the words of
Phi or Phi^{-1} in which two legs only meet inside one arity-1 factor; each
is summed over the lone third leg through the lemma-11 middles cached on the
structure (``QhsaStructure.lemma11_middles``), with the Sweedler legs
expanded through the stored coproduct images.  There is no symbolic
simplification anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    SingularError,
    TensorElement,
    apply_map_legs,
    embed_legs,
    linear_combination,
    multiply_adjacent_legs,
    outer,
    permute_legs,
)
from .reporting import CheckReport, expect_equal
from .structure import (
    QhsaStructure,
    VALIDATION_SUITES,
    _counit_legs_entry,
    _expect_over,
    _known_domain,
    _inverse_witness,
    _require_r,
    _witness_entry,
    check_quasi_triangular,
    m_alpha_s,
    m_beta_s,
    mul_chain,
    validate_structure,
)
from .transforms import (
    Twistor,
    _compare_structures,
    prime_structure,
    twist_structure,
    twisted_coassociator,
)


@dataclass(frozen=True, eq=False)
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
    """gamma from (Phi^{-1} (x) 1)(Delta (x) 1 (x) 1)Phi."""
    return _gamma_post(H, H.phi_inv_factors[3] * H.phi_factors[0])


def compute_gamma_bar(H: QhsaStructure) -> TensorElement:
    """gamma-bar from (Delta (x) 1 (x) 1)Phi^{-1} (Phi (x) 1)."""
    return _gamma_bar_post(H, H.phi_inv_factors[0] * H.phi_factors[3])


def _absorb(H, g, left, right):
    """eq.8.1 (left (S (x) S)Delta^T, right Delta, g = gamma) and eq.8.7
    (left Delta, right (S (x) S)Delta^T, g = gamma-bar), as a function of A
    for ``_expect_over``: for each basis a in A, the sum over Delta(a) of
    left(a_1) * g * right(a_2), against eps(a) g.

    Its solution set is a subalgebra once ``algebra`` and ``structure``
    pass.  Unit case: Delta(1) = 1 (x) 1 and eps(1) = 1.  Products: Delta is
    a homomorphism and (S (x) S)Delta^T an antihomomorphism, so the eq.8.1
    sum for ab is the sum of (-1)^{|a||b_1|} (S (x) S)Delta^T(b_1)
    (sum over a) Delta(b_2), whose inner sum is eps(a) g; eps(a) = 0 unless
    a is even, and the outer sum is then eps(b) g.  eq.8.7 nests the same
    way with b inside.
    """

    def cases(A):
        for a in A:
            terms = ((left[j] * g * right[k], c) for (j, k), c in H.delta.images[a].terms.items())
            eps = H.epsilon.images[a].scalar_value()
            yield a, linear_combination(H.algebra, 2, terms), g.scaled(eps)

    return cases


def _middle_sum(H: QhsaStructure, which: str, term) -> TensorElement:
    """The sum over the lone leg v of term(v, M_v), where M_v is the cached
    lemma-11 middle of identity ``which``: the Phi-sums below move their two
    inner legs into M_v by linearity of Delta and Delta' and distributivity
    of the product, exactly and over any table."""
    one = H.algebra.field.one()
    pairs = ((term(v, m), one) for v, m in H.lemma11_middles[which].items())
    return linear_combination(H.algebra, 2, pairs)


def compute_drinfeld_twist(H: QhsaStructure) -> DrinfeldData:
    """gamma, gamma-bar, F_D and F_D^{-1}, built and not checked;
    ``drinfeld_construction`` checks them."""
    gamma = compute_gamma(H)
    gamma_bar = compute_gamma_bar(H)
    ss_delta_t, delta = H.ss_delta_t.images, H.delta.images
    # F_D = sum over Phi of (S (x) S)Delta^T(X) * gamma * Delta(Y beta S(Z))
    f_d = _middle_sum(H, "11i", lambda v, m: ss_delta_t[v] * gamma * H.coproduct(m))
    # F_D^{-1} = sum over Phi^{-1} of Delta(Xbar) * gamma-bar * Delta'(S(Ybar) alpha Zbar)
    f_d_inv = _middle_sum(
        H, "11iii", lambda v, m: delta[v] * gamma_bar * apply_map_legs(m, 0, H.delta_prime)
    )
    return DrinfeldData(gamma, gamma_bar, f_d, f_d_inv, H.eps_alpha, H.eps_beta)


# -- theorem battery -----------------------------------------------------------


def check_alt_expressions(H: QhsaStructure, D: DrinfeldData) -> CheckReport:
    """The alternative closed forms for F_D and F_D^{-1}."""
    report = CheckReport()
    ss_delta_t, delta = H.ss_delta_t.images, H.delta.images
    # sum over Phi^{-1} of Delta'(Xbar beta S(Ybar)) * gamma * Delta(Zbar)
    fd = _middle_sum(
        H, "11iv", lambda v, m: apply_map_legs(m, 0, H.delta_prime) * D.gamma * delta[v]
    )
    # sum over Phi of Delta(S(X) alpha Y) * gamma-bar * (S (x) S)Delta^T(Z)
    fd_inverse = _middle_sum(H, "11ii", lambda v, m: H.coproduct(m) * D.gamma_bar * ss_delta_t[v])
    expect_equal(report, "altexpr.fd", fd, D.f_d)
    expect_equal(report, "altexpr.fd-inverse", fd_inverse, D.f_d_inverse)
    return report


def verify_thm2(H: QhsaStructure, D: DrinfeldData) -> CheckReport:
    """Delta' is conjugation of Delta by F_D, plus both intertwining forms.

    Each runs a over the generators once its premises are known to pass:
    ``algebra`` and ``structure`` for the intertwiners, and for the
    conjugation also D itself, which ``drinfeld_construction`` records in
    ``H.passed`` when its checks, F_D^{-1} F_D = 1 among them, pass.  Unit case:
    Delta'(1) = 1 (x) 1 = Delta(1), as S(1) = 1, and F_D F_D^{-1} = 1.
    Products: Delta' = (S (x) S) T Delta S^{-1} is a homomorphism, so
    Delta'(ab) F = Delta'(a) F Delta(b) = F Delta(ab), likewise with
    F^{-1} on the other side, and F Delta(a) F^{-1} F Delta(b) F^{-1} =
    F Delta(ab) F^{-1} as F^{-1} F = 1.
    """
    report = CheckReport()
    domain = _known_domain(H, VALIDATION_SUITES)
    delta, delta_prime = H.delta.images, H.delta_prime.images
    _expect_over(
        report,
        "eq.8.6a",
        lambda A: ((a, delta_prime[a] * D.f_d, D.f_d * delta[a]) for a in A),
        domain,
    )
    _expect_over(
        report,
        "eq.8.8a",
        lambda A: ((a, D.f_d_inverse * delta_prime[a], delta[a] * D.f_d_inverse) for a in A),
        domain,
    )
    _expect_over(
        report,
        "thm2.conjugation",
        lambda A: ((a, delta_prime[a], D.f_d * delta[a] * D.f_d_inverse) for a in A),
        _known_domain(H, VALIDATION_SUITES + (D,)),
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
    """Build the Drinfeld twist and check it; returns (DrinfeldData | None,
    CheckReport).  The report holds the construction checks in order: gamma
    and then gamma-bar against its second printed expression and its
    absorption identity, F_D^{-1} as a two-sided inverse of F_D, and the
    counit legs of F_D against eps(alpha).  The data comes back only when
    every check passes, and then it joins ``H.passed``, the premise of the
    reduced ``thm2.conjugation`` over this data.  A singular Phi or S leaves nothing
    to build; the report is then ``validate_structure``'s, which says
    which."""
    try:
        D = compute_drinfeld_twist(H)
    except SingularError:
        return None, validate_structure(H)
    report = CheckReport()
    phi, inv = H.phi_factors, H.phi_inv_factors
    ss_delta_t, delta = H.ss_delta_t.images, H.delta.images
    # (1 (x) Phi)(1 (x) 1 (x) Delta)Phi^{-1} and (1 (x) 1 (x) Delta)Phi (1 (x) Phi^{-1})
    expect_equal(report, "drinfeld.gamma-alt", D.gamma, _gamma_post(H, phi[4] * inv[2]))
    domain = _known_domain(H, VALIDATION_SUITES)
    _expect_over(report, "eq.8.1", _absorb(H, D.gamma, ss_delta_t, delta), domain)
    gamma_bar_alt = _gamma_bar_post(H, phi[2] * inv[4])
    expect_equal(report, "drinfeld.gamma-bar-alt", D.gamma_bar, gamma_bar_alt)
    _expect_over(report, "eq.8.7", _absorb(H, D.gamma_bar, delta, ss_delta_t), domain)
    _witness_entry(report, "drinfeld.fd-inverse", _inverse_witness(H, D.f_d, D.f_d_inverse))
    _counit_legs_entry(report, "drinfeld.fd-counit", H, D.f_d, H.unit(1).scaled(D.eps_alpha))
    if not report.ok:
        return None, report
    H.passed.add(D)
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
