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

from typing import NamedTuple

from .algebra import (
    SingularError,
    TensorElement,
    apply_map_legs,
    contract_legs,
    embed_legs,
    linear_combination,
    permute_legs,
)
from .reporting import CheckReport, expect_equal, expect_equal_per_basis
from .structure import (
    QhsaStructure,
    _counit_legs_entry,
    _expect_over,
    _inverse_witness,
    _require_r,
    check_quasi_triangular,
    validate_structure,
)
from .transforms import Twistor, _compare_structures, prime_structure, twist_structure


class DrinfeldData(NamedTuple):
    """gamma, gamma-bar, F_D and F_D^{-1}."""

    gamma: TensorElement
    gamma_bar: TensorElement
    f_d: TensorElement
    f_d_inverse: TensorElement


def _gamma_post(H: QhsaStructure, w4: TensorElement) -> TensorElement:
    """(m (x) m)(A (x) 1 (x) A (x) 1)(1 (x) T (x) 1)(T (x) 1 (x) 1), A =
    ``H.alpha_map``: the sum of S(w_1) alpha w_2 (x) S(w_0) alpha w_3 over
    the words of the arity-4 w4, signed by the permutation alone."""
    a = H.alpha_map
    return contract_legs(permute_legs(w4, (1, 2, 0, 3)), {0: a, 2: a}, 0, 1)


def _gamma_bar_post(H: QhsaStructure, w4: TensorElement) -> TensorElement:
    """(m (x) m)(B (x) S (x) B (x) S)(1 (x) T (x) 1)(1 (x) 1 (x) T), B =
    ``H.beta_map``: the sum of w_0 beta S(w_3) (x) w_1 beta S(w_2) over
    the words of w4, signed by the permutation alone."""
    b, s = H.beta_map, H.antipode
    return contract_legs(permute_legs(w4, (0, 3, 1, 2)), {0: b, 1: s, 2: b, 3: s}, 0, 1)


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
        left_g = {}  # j -> left(e_j) * g, read by every a whose Delta(a) has j
        for a in A:
            terms = []
            for (j, k), c in H.delta.images[a].terms.items():
                if j not in left_g:
                    left_g[j] = left[j] * g
                terms.append((left_g[j] * right[k], c))
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
    # gamma from (Phi^{-1} (x) 1)(Delta (x) 1 (x) 1)Phi
    gamma = _gamma_post(H, H.phi_inv_factors[3] * H.phi_factors[0])
    # gamma-bar from (Delta (x) 1 (x) 1)Phi^{-1} (Phi (x) 1)
    gamma_bar = _gamma_bar_post(H, H.phi_inv_factors[0] * H.phi_factors[3])
    ss_delta_t, delta = H.ss_delta_t.images, H.delta.images
    # F_D = sum over Phi of (S (x) S)Delta^T(X) * gamma * Delta(Y beta S(Z))
    f_d = _middle_sum(H, "11i", lambda v, m: ss_delta_t[v] * gamma * H.coproduct(m))
    # F_D^{-1} = sum over Phi^{-1} of Delta(Xbar) * gamma-bar * Delta'(S(Ybar) alpha Zbar)
    f_d_inv = _middle_sum(
        H, "11iii", lambda v, m: delta[v] * gamma_bar * apply_map_legs(m, 0, H.delta_prime)
    )
    return DrinfeldData(gamma, gamma_bar, f_d, f_d_inv)


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


def verify_thm2(H: QhsaStructure, D: DrinfeldData, twisted: QhsaStructure) -> CheckReport:
    """Delta' is conjugation of Delta by F_D, read from the F_D-twisted
    structure ``twisted`` over the whole basis, plus both intertwining forms.

    The intertwiners run a over the generators once ``algebra`` and
    ``structure`` are known to pass.  Unit case: Delta'(1) = 1 (x) 1 =
    Delta(1), as S(1) = 1.  Products: Delta' = (S (x) S) T Delta S^{-1} is a
    homomorphism, so Delta'(ab) F = Delta'(a) F Delta(b) = F Delta(ab),
    likewise with F^{-1} on the other side.
    """
    report = CheckReport()
    delta, delta_prime = H.delta.images, H.delta_prime.images
    _expect_over(
        report,
        "eq.8.6a",
        lambda A: ((a, delta_prime[a] * D.f_d, D.f_d * delta[a]) for a in A),
        H,
    )
    _expect_over(
        report,
        "eq.8.8a",
        lambda A: ((a, D.f_d_inverse * delta_prime[a], delta[a] * D.f_d_inverse) for a in A),
        H,
    )
    expect_equal_per_basis(
        report,
        "thm2.conjugation",
        ((a, delta_prime[a], twisted.delta.images[a]) for a in range(H.algebra.dimension)),
    )
    return report


def verify_lemma13(H: QhsaStructure, D: DrinfeldData) -> CheckReport:
    report = CheckReport()
    expect_equal(report, "eq.lem13.gamma", D.f_d * H.coproduct(H.alpha), D.gamma)
    expect_equal(report, "eq.lem13.gamma-bar", H.coproduct(H.beta) * D.f_d_inverse, D.gamma_bar)
    return report


def verify_thm3(
    H: QhsaStructure, D: DrinfeldData, primed: QhsaStructure, twisted: QhsaStructure
) -> CheckReport:
    """The primed structure equals the F_D-twisted one: coassociator and both
    canonical elements, plus the two product forms of the coassociator identity."""
    report = CheckReport()
    expect_equal(report, "thm3.phi", primed.phi, twisted.phi)
    expect_equal(report, "thm3.alpha", twisted.alpha, primed.alpha.scaled(H.eps_alpha))
    expect_equal(report, "thm3.beta", twisted.beta, primed.beta.scaled(H.eps_beta))

    lhs = primed.phi * embed_legs(D.f_d, (1, 2), 3) * apply_map_legs(D.f_d, 1, H.delta)
    rhs = embed_legs(D.f_d, (0, 1), 3) * apply_map_legs(D.f_d, 0, H.delta) * H.phi
    expect_equal(report, "eq.star", lhs, rhs)

    lhs = primed.phi_inv * embed_legs(D.f_d, (0, 1), 3) * apply_map_legs(D.gamma, 0, H.delta)
    rhs = embed_legs(D.f_d, (1, 2), 3) * apply_map_legs(D.gamma, 1, H.delta) * H.phi_inv
    expect_equal(report, "eq.sstar", lhs, rhs)
    return report


def verify_thm5(
    H: QhsaStructure, D: DrinfeldData, primed: QhsaStructure, twisted: QhsaStructure
) -> CheckReport:
    """(S (x) S)R equals the F_D-twisted R-matrix; the exchange identity for
    gamma; and quasi-triangularity of the full primed structure."""
    report = CheckReport()
    if not _require_r(H, report, ("thm5.r", "eq.lem8", "prop8.quasi-triangular")):
        return report
    expect_equal(report, "thm5.r", primed.r_matrix, twisted.r_matrix)
    expect_equal(
        report,
        "eq.lem8",
        primed.r_matrix * D.gamma,
        permute_legs(D.gamma, (1, 0)) * H.r_matrix,
    )
    sub = check_quasi_triangular(primed)
    witness = None if sub.ok else {"failed": sub.failed_ids()}
    report.add("prop8.quasi-triangular", witness)
    return report


def verify_prime_equivalence(
    H: QhsaStructure, primed: QhsaStructure, twisted: QhsaStructure
) -> CheckReport:
    """Componentwise: the primed structure is exactly the structure twisted by
    eps(alpha) F_D, including the R-matrix.

    ``twisted`` is the twist by F_D, with canonical elements alpha_F and
    beta_F.  Scaling a twistor by c leaves Delta, Phi and R alone and sends
    (alpha_F, beta_F) to (alpha_F / c, c beta_F); with c = eps(alpha) and
    eps(alpha) eps(beta) = 1 that is (eps(beta) alpha_F, eps(alpha) beta_F).
    This c is forced: by theorem 3, alpha_F = eps(alpha) S(beta) and
    beta_F = eps(beta) S(alpha).  The twistor ``--emit-twist`` writes,
    eps(beta) F_D, agrees with it only when eps(alpha)^2 = 1."""
    report = CheckReport()
    scaled = twisted.replace(
        alpha=twisted.alpha.scaled(H.eps_beta),
        beta=twisted.beta.scaled(H.eps_alpha),
    )
    _compare_structures(report, "drinfeld.prime-equivalence", primed, scaled)
    return report


def drinfeld_construction(H: QhsaStructure) -> tuple:
    """Build the Drinfeld twist and check it; returns (DrinfeldData | None,
    CheckReport).  The report holds the construction checks in order: gamma
    and then gamma-bar against its second printed expression and its
    absorption identity, F_D^{-1} as a two-sided inverse of F_D, and the
    counit legs of F_D against eps(alpha).  The data comes back only when
    every check passes.  H is left as it was: nothing joins ``H.passed``.
    A singular Phi or S leaves nothing to build; the report is then
    ``validate_structure``'s, which says which."""
    try:
        D = compute_drinfeld_twist(H)
    except SingularError:
        return None, validate_structure(H)
    report = CheckReport()
    phi, inv = H.phi_factors, H.phi_inv_factors
    ss_delta_t, delta = H.ss_delta_t.images, H.delta.images
    # (1 (x) Phi)(1 (x) 1 (x) Delta)Phi^{-1} and (1 (x) 1 (x) Delta)Phi (1 (x) Phi^{-1})
    expect_equal(report, "drinfeld.gamma-alt", D.gamma, _gamma_post(H, phi[4] * inv[2]))
    _expect_over(report, "eq.8.1", _absorb(H, D.gamma, ss_delta_t, delta), H)
    gamma_bar_alt = _gamma_bar_post(H, phi[2] * inv[4])
    expect_equal(report, "drinfeld.gamma-bar-alt", D.gamma_bar, gamma_bar_alt)
    _expect_over(report, "eq.8.7", _absorb(H, D.gamma_bar, delta, ss_delta_t), H)
    report.add("drinfeld.fd-inverse", _inverse_witness(H, D.f_d, D.f_d_inverse))
    _counit_legs_entry(report, "drinfeld.fd-counit", H, D.f_d, H.unit(1).scaled(H.eps_alpha))
    if not report.ok:
        return None, report
    return D, report


def drinfeld_report(H: QhsaStructure) -> tuple:
    """The construction followed by the full theorem battery; returns
    (DrinfeldData | None, CheckReport).  The primed structure and the
    F_D-twisted one are each built once, and every comparison between them
    reads these two."""
    D, report = drinfeld_construction(H)
    if D is None:
        return None, report
    primed = prime_structure(H)
    twisted = twist_structure(H, Twistor(D.f_d, D.f_d_inverse))
    report.extend(verify_lemma13(H, D))
    report.extend(verify_thm2(H, D, twisted))
    report.extend(check_alt_expressions(H, D))
    report.extend(verify_thm3(H, D, primed, twisted))
    report.extend(verify_thm5(H, D, primed, twisted))
    report.extend(verify_prime_equivalence(H, primed, twisted))
    return D, report
