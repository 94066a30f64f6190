"""Quasi-Hopf superalgebra structures and exact checkers for their axioms.

A structure bundles the algebra with the coproduct Delta, counit epsilon,
antipode S, coassociator Phi (arity 3), canonical elements alpha and beta
(arity 1) and an optional R-matrix (arity 2).  An identity quantified over
all of H is linear in its variable, so checking it on basis elements is
complete.  For most of them the elements that satisfy the identity form a
subalgebra once its premises pass; those are checked on the basis generators
(``GradedAlgebra.generators``) when the premises are known to have passed,
and the docstring of each proves the subalgebra property.  A reduced check
that fails runs the full basis, so its witness is the enumeration's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, partial

from .algebra import (
    AlgebraError,
    GradedAlgebra,
    SingularError,
    StructureMap,
    TensorElement,
    _row_combination,
    apply_map_legs,
    embed_legs,
    invert_structure_map,
    invert_tensor_element,
    linear_combination,
    multiply_adjacent_legs,
    outer,
    permute_legs,
)
from .reporting import (
    CheckReport,
    difference_witness,
    element_terms_json,
    expect_equal,
    expect_equal_per_basis,
)


@dataclass(frozen=True, eq=False)
class QhsaStructure:
    """The full tuple (algebra, Delta, epsilon, S, Phi, alpha, beta [, R]).

    Immutable; change a component with ``dataclasses.replace``.  Derived data
    (inverses, transposed and primed coproducts) is computed on first use and
    cached.  Equality is identity: ``StructureMap`` is unhashable.
    """

    algebra: GradedAlgebra
    delta: StructureMap
    epsilon: StructureMap
    antipode: StructureMap
    phi: TensorElement
    alpha: TensorElement
    beta: TensorElement
    r_matrix: TensorElement | None = None

    # -- conveniences --------------------------------------------------------

    def unit(self, arity: int) -> TensorElement:
        return TensorElement.unit(self.algebra, arity)

    def basis(self, *word) -> TensorElement:
        return TensorElement.basis(self.algebra, word)

    def eps_of(self, x: TensorElement):
        """epsilon applied to an arity-1 element, as a field scalar."""
        return apply_map_legs(x, 0, self.epsilon).scalar_value()

    @property
    def has_r(self) -> bool:
        return self.r_matrix is not None

    @cached_property
    def phi_inv(self) -> TensorElement:
        return invert_tensor_element(self.phi)

    @cached_property
    def r_inv(self) -> TensorElement:
        if self.r_matrix is None:
            raise AlgebraError("structure has no R-matrix")
        return invert_tensor_element(self.r_matrix)

    @cached_property
    def antipode_inv(self) -> StructureMap:
        return invert_structure_map(self.antipode)

    @cached_property
    def delta_t(self) -> StructureMap:
        """Opposite coproduct: T composed with Delta."""
        return StructureMap(
            self.algebra,
            2,
            [permute_legs(img, (1, 0)) for img in self.delta.images],
        )

    @cached_property
    def ss_delta_t(self) -> StructureMap:
        """(S (x) S) applied to the opposite coproduct."""
        images = []
        for img in self.delta_t.images:
            y = apply_map_legs(img, 0, self.antipode)
            y = apply_map_legs(y, 1, self.antipode)
            images.append(y)
        return StructureMap(self.algebra, 2, images)

    @cached_property
    def delta_prime(self) -> StructureMap:
        """The coproduct (S (x) S) . T . Delta . S^{-1}."""
        sinv = self.antipode_inv
        images = []
        for i in range(self.algebra.dimension):
            y = apply_map_legs(sinv.images[i], 0, self.delta)
            y = permute_legs(y, (1, 0))
            y = apply_map_legs(y, 0, self.antipode)
            y = apply_map_legs(y, 1, self.antipode)
            images.append(y)
        return StructureMap(self.algebra, 2, images)

    @cached_property
    def delta_left3(self) -> StructureMap:
        """(Delta (x) 1)Delta, stored image by image."""
        return StructureMap(
            self.algebra, 3, [apply_map_legs(img, 0, self.delta) for img in self.delta.images]
        )

    @cached_property
    def delta_right3(self) -> StructureMap:
        """(1 (x) Delta)Delta, stored image by image."""
        return StructureMap(
            self.algebra, 3, [apply_map_legs(img, 1, self.delta) for img in self.delta.images]
        )

    @cached_property
    def phi_factors(self) -> tuple:
        """The five arity-4 factors of the pentagon built from Phi; see
        ``arity4_factors``."""
        return arity4_factors(self.phi, self.delta)

    @cached_property
    def phi_inv_factors(self) -> tuple:
        """The five arity-4 factors of the pentagon built from Phi^{-1}."""
        return arity4_factors(self.phi_inv, self.delta)

    @cached_property
    def pentagon_lhs(self) -> TensorElement:
        """P = (Delta (x) 1 (x) 1)Phi . (1 (x) 1 (x) Delta)Phi: the left side
        of eq.fii, the first two factors of eq.6.1i and the last two of
        eq.6.1ii."""
        phi0, _, phi2, _, _ = self.phi_factors
        return phi0 * phi2

    @cached_property
    def pentagon_head(self) -> TensorElement:
        """Q = (Phi (x) 1) . (1 (x) Delta (x) 1)Phi: the first two factors of
        the right side of eq.fii and the last two of eq.6.1iv."""
        _, phi1, _, phi_x1, _ = self.phi_factors
        return phi_x1 * phi1

    @cached_property
    def basis_products(self) -> tuple:
        """e_i e_j as arity-1 elements indexed [i][j], read off the product
        table (an arity-1 product has no Koszul sign); zero products are
        zero elements."""
        alg = self.algebra
        return tuple(
            tuple(TensorElement._from_terms(alg, 1, {(k,): c for k, c in row}) for row in r)
            for r in alg.product_rows
        )

    @cached_property
    def lemma11_middles(self) -> dict:
        """Phi (Phi^{-1}) grouped by the lone leg of each exchange identity;
        see ``lemma11_middles``.  Read by lemma 11 and by the Drinfeld sums
        for F_D, F_D^{-1} and their alternative forms."""
        return lemma11_middles(self)

    @cached_property
    def passed(self) -> set:
        """The suites known to have passed on this structure: ``run_suites``
        adds each suite that runs and passes, and ``drinfeld_construction``
        adds the ``DrinfeldData`` it built when every construction check
        passes.  A check
        reduces its quantifier to the generators of the algebra only when its
        premises are here, so a direct call on a fresh structure enumerates the basis."""
        return set()

    @cached_property
    def algebra_report(self) -> CheckReport:
        """Grading, unit and associativity of the algebra; the ``algebra``
        suite reports it and the eta suite's reduction is gated on it."""
        return validate_algebra(self.algebra)

    @cached_property
    def one_alpha(self) -> TensorElement:
        """1 (x) alpha, the left factor of m_alpha_s."""
        return outer(self.unit(1), self.alpha)

    @cached_property
    def one_beta(self) -> TensorElement:
        """1 (x) beta, the left factor of m_beta_s."""
        return outer(self.unit(1), self.beta)

    @cached_property
    def eps_alpha(self):
        return self.eps_of(self.alpha)

    @cached_property
    def eps_beta(self):
        return self.eps_of(self.beta)

    def coproduct(self, x: TensorElement) -> TensorElement:
        return apply_map_legs(x, 0, self.delta)

    def s_of(self, x: TensorElement) -> TensorElement:
        return apply_map_legs(x, 0, self.antipode)


# -- recurring contraction patterns ------------------------------------------


def arity4_factors(x: TensorElement, delta: StructureMap) -> tuple:
    """(Delta (x) 1 (x) 1)x, (1 (x) Delta (x) 1)x, (1 (x) 1 (x) Delta)x,
    x (x) 1 and 1 (x) x for an arity-3 element x, in that order."""
    return (
        apply_map_legs(x, 0, delta),
        apply_map_legs(x, 1, delta),
        apply_map_legs(x, 2, delta),
        embed_legs(x, (0, 1, 2), 4),
        embed_legs(x, (1, 2, 3), 4),
    )


def m_alpha_s(H: QhsaStructure, x: TensorElement) -> TensorElement:
    """m . (1 (x) alpha)(S (x) 1) applied to an arity-2 element."""
    z = apply_map_legs(x, 0, H.antipode)
    z = H.one_alpha * z
    return multiply_adjacent_legs(z, 0)


def m_beta_s(H: QhsaStructure, x: TensorElement) -> TensorElement:
    """m . (1 (x) beta)(1 (x) S) applied to an arity-2 element."""
    z = apply_map_legs(x, 1, H.antipode)
    z = H.one_beta * z
    return multiply_adjacent_legs(z, 0)


def mul_chain(first, *rest):
    acc = first
    for el in rest:
        acc = acc * el
    return acc


# -- validation ---------------------------------------------------------------


def validate_algebra(algebra: GradedAlgebra) -> CheckReport:
    """Grading additivity, two-sided unit, associativity.

    The unit and associativity are compared on ``product_rows`` as sparse
    dicts, with no element per case: an arity-1 product has no Koszul sign,
    so e_i e_j is row [i][j].  Only the first case that fails there is built
    from elements, so its witness is the difference of the elements, labelled
    i (``algebra.unit``) or [i, j, k] (``algebra.assoc``).

    Associativity is Light's test (A. H. Clifford and G. B. Preston, *The
    Algebraic Theory of Semigroups* I, 1961): (e_i g) e_k = e_i (g e_k) for
    every i, k and every g of ``algebra.generators``, d^2 |G| cases where
    all basis triples take d^3.  It needs only that the unit passes, and the
    generators are built only then:

    - unit case: (a 1) c = a c = a (1 c);
    - products: N = {b : (ab)c = a(bc) for all a, c} is a subspace of any
      bilinear table, and for b, b' in N, (a(bb'))c = ((ab)b')c =
      (ab)(b'c) = a(b(b'c)) = a((bb')c).

    So N holds 1 and G and every word 1 g_1 ... g_k, which span H: the table
    is associative.  Otherwise the d^3 cases run, so a failure keeps the
    label of the full enumeration.
    """
    report = CheckReport()
    par = algebra.parity
    grading = next(
        (
            {"pair": [i, j], "target": k}
            for (i, j), row in algebra.mult.items()
            for k in row
            if par[k] != (par[i] + par[j]) % 2
        ),
        None,
    )
    _witness_entry(report, "algebra.grading", grading)

    rows = algebra.product_rows
    dim = range(algebra.dimension)
    one = algebra.field.one()
    unit_terms = [(u, k) for k, u in enumerate(algebra.unit) if u]

    def unit_cases():
        for i in dim:
            for left in (True, False):
                pairs = ((u, rows[k][i] if left else rows[i][k]) for u, k in unit_terms)
                if _row_combination(pairs) != {i: one}:
                    unit = TensorElement.unit(algebra, 1)
                    e = TensorElement.basis(algebra, (i,))
                    yield i, unit * e if left else e * unit, e
                    return

    def assoc_cases(middle):
        for i in dim:
            row_i = rows[i]
            for j in middle:
                left = row_i[j]
                row_j = rows[j]
                for k in dim:
                    right = row_j[k]
                    if not (left or right):
                        continue
                    lhs = _row_combination((c, rows[m][k]) for m, c in left)
                    if lhs != _row_combination((c, row_i[m]) for m, c in right):
                        ei, ej, ek = (TensorElement.basis(algebra, (t,)) for t in (i, j, k))
                        yield [i, j, k], ei * ej * ek, ei * (ej * ek)
                        return

    unit_ok = expect_equal_per_basis(report, "algebra.unit", unit_cases())
    _expect_over(report, "algebra.assoc", assoc_cases, _domain(algebra, unit_ok))
    return report


def validate_structure(H: QhsaStructure) -> CheckReport:
    """Delta, epsilon graded homomorphisms; S a graded antihomomorphism;
    parity preservation; evenness and invertibility of Phi, alpha, beta, R.

    Once ``algebra`` is known to pass and the map's unit check has passed,
    each (anti)homomorphism check runs its right factor b over the
    generators only, d |G| cases (``_expect_over``):

    - unit case: f(a 1) = f(a) = f(a) f(1), as f(1) = 1 was just checked;
    - products: {b : f(ab) = f(a) f(b) for all a} is a subspace, and for b,
      b' in it f(a(bb')) = f((ab)b') = f(ab) f(b') = f(a) f(b) f(b') =
      f(a) f(bb'), by associativity of H and of H (x) H.  For S, over
      homogeneous b and b', the sign of S(ab) = (-1)^{|a||b|} S(b) S(a)
      adds up the same way: |ab||b'| + |a||b| = |a||bb'| + |b||b'|.  Words
      in G are homogeneous (the unit of a graded algebra is even), and a
      basis element is a combination of words of its own parity.
    """
    report = CheckReport()
    alg = H.algebra
    known = "algebra" in H.passed

    ok = expect_equal(report, "structure.delta-unit", H.coproduct(H.unit(1)), H.unit(2))
    cases = partial(_hom_cases, H, H.delta)
    _expect_over(report, "structure.delta-hom", cases, _domain(alg, known and ok))
    _witness_entry(report, "structure.delta-parity", H.delta.parity_violation())

    eps_unit = apply_map_legs(H.unit(1), 0, H.epsilon)
    one = TensorElement.from_scalar(alg, alg.field.one())
    ok = expect_equal(report, "structure.epsilon-unit", eps_unit, one)
    cases = partial(_hom_cases, H, H.epsilon)
    _expect_over(report, "structure.epsilon-hom", cases, _domain(alg, known and ok))
    _witness_entry(report, "structure.epsilon-parity", H.epsilon.parity_violation())

    ok = expect_equal(report, "structure.antipode-unit", H.s_of(H.unit(1)), H.unit(1))
    cases = partial(_antihom_cases, H)
    _expect_over(report, "structure.antipode-antihom", cases, _domain(alg, known and ok))
    _witness_entry(report, "structure.antipode-parity", H.antipode.parity_violation())
    try:
        H.antipode_inv
        report.add_pass("structure.antipode-bijective")
    except SingularError:
        report.add_fail("structure.antipode-bijective", {"reason": "singular antipode"})

    _even_entry(report, "structure.phi-even", H.phi)
    _invertible_entry(report, "structure.phi-invertible", H, "phi_inv")
    _even_entry(report, "structure.alpha-even", H.alpha)
    _even_entry(report, "structure.beta-even", H.beta)
    if H.has_r:
        _even_entry(report, "structure.r-even", H.r_matrix)
        _invertible_entry(report, "structure.r-invertible", H, "r_inv")
    else:
        report.add_skip("structure.r-even", "no R-matrix")
        report.add_skip("structure.r-invertible", "no R-matrix")
    return report


def _hom_cases(H, f, js):
    """f(e_i e_j) against f(e_i) f(e_j) for j in js, labelled by the flat
    index i*d + j."""
    d = H.algebra.dimension
    products = H.basis_products
    for i in range(d):
        for j in js:
            lhs = apply_map_legs(products[i][j], 0, f)
            yield i * d + j, lhs, f.images[i] * f.images[j]


def _antihom_cases(H, js):
    """S(e_i e_j) against (-1)^{[i][j]} S(e_j) S(e_i) for j in js, labelled
    [i, j]."""
    par = H.algebra.parity
    s = H.antipode.images
    products = H.basis_products
    for i in range(H.algebra.dimension):
        for j in js:
            rhs = s[j] * s[i]
            yield [i, j], H.s_of(products[i][j]), -rhs if par[i] and par[j] else rhs


def _expect_reduced(report, check_id, reduced, full) -> bool:
    """Record an identity quantified over H from its ``reduced`` cases when
    they settle it: a pass when every one holds.  When ``reduced`` is None
    or one of its cases fails, the ``full`` cases run through
    ``expect_equal_per_basis``, so a failure is witnessed with the first
    failing label of the full enumeration and its difference."""
    if reduced is not None and all(lhs == rhs for _, lhs, rhs in reduced):
        report.add_pass(check_id)
        return True
    return expect_equal_per_basis(report, check_id, full)


def _expect_over(report, check_id, cases, domain) -> bool:
    """``_expect_reduced`` for an identity whose ``cases(indices)`` yields
    its cases for the basis elements a in ``indices``, over a ``domain``
    from ``_domain``: reduced to a in its generators unless they are None,
    else, or on a failure, over its whole basis."""
    generators, basis = domain
    reduced = None if generators is None else cases(generators)
    return _expect_reduced(report, check_id, reduced, cases(basis))


def _domain(algebra, reduce):
    """The pair (the generators of ``algebra`` when ``reduce``, else None;
    the indices of its whole basis)."""
    return (algebra.generators if reduce else None), range(algebra.dimension)


def _known_domain(H, premises):
    """``_domain`` of H's algebra, reduced when every premise in
    ``premises`` is known to have passed on H (``H.passed``): the checks
    that quantify over generators are sound only over a structure that
    passes their premises, and none of them runs a premise itself."""
    return _domain(H.algebra, H.passed.issuperset(premises))


def _witness_entry(report, check_id, witness):
    """A pass when there is no witness, else a failure carrying it."""
    if witness is None:
        report.add_pass(check_id)
    else:
        report.add_fail(check_id, witness)


def _even_entry(report, check_id, element):
    if element.is_even():
        report.add_pass(check_id)
    else:
        report.add_fail(check_id, {"reason": "element not homogeneous even"})


def _invertible_entry(report, check_id, H, attr):
    try:
        getattr(H, attr)
        report.add_pass(check_id)
    except SingularError as exc:
        report.add_fail(check_id, {"reason": str(exc)})


def _counit_legs_entry(report, check_id, H, x, expected=None):
    """Both counit legs (eps (x) 1)x and (1 (x) eps)x of an arity-2 element
    equal to ``expected``, by default 1; a failure witnesses each leg."""
    expected = H.unit(1) if expected is None else expected
    left = apply_map_legs(x, 0, H.epsilon)
    right = apply_map_legs(x, 1, H.epsilon)
    if left == expected and right == expected:
        report.add_pass(check_id)
    else:
        report.add_fail(
            check_id,
            {"eps-left": element_terms_json(left), "eps-right": element_terms_json(right)},
        )


def _inverse_witness(H, x, x_inv):
    """None when x_inv x = 1 and x x_inv = 1 in H's algebra, else the
    difference of the first side that fails, labelled "left" or "right"."""
    one = H.unit(x.arity)
    left = x_inv * x
    if left != one:
        return difference_witness(left, one, basis="left")
    right = x * x_inv
    return None if right == one else difference_witness(right, one, basis="right")


# -- quasi-bialgebra axioms ----------------------------------------------------


def check_quasi_bialgebra(H: QhsaStructure) -> CheckReport:
    """The quasi-bialgebra axioms.  Once ``algebra`` and ``structure`` are
    known to pass, ``eq.fi`` and ``eq.fiii`` run a over the generators only:

    - unit case: Delta(1) = 1 (x) 1 and eps(1) = 1, and Phi^{-1} Phi = 1;
    - products: (Delta (x) 1)Delta, (1 (x) Delta)Delta and (eps (x) 1)Delta,
      (1 (x) eps)Delta are homomorphisms (eps kills odd elements, so moving
      a leg past it costs no sign), and Phi Phi^{-1} = 1 joins the two
      conjugates: Phi^{-1} X Phi Phi^{-1} Y Phi = Phi^{-1} XY Phi.
    """
    report = CheckReport()
    domain = _known_domain(H, VALIDATION_SUITES)
    left3, right3 = H.delta_left3.images, H.delta_right3.images
    _expect_over(
        report,
        "eq.fi",
        lambda A: ((a, right3[a], H.phi_inv * left3[a] * H.phi) for a in A),
        domain,
    )
    one_x_phi = H.phi_factors[4]
    expect_equal(report, "eq.fii", H.pentagon_lhs, H.pentagon_head * one_x_phi)

    delta = H.delta.images
    _expect_over(
        report,
        "eq.fiii",
        lambda A: (
            (a, apply_map_legs(delta[a], leg, H.epsilon), H.basis(a)) for a in A for leg in (0, 1)
        ),
        domain,
    )

    expect_equal(report, "eq.fiv", apply_map_legs(H.phi, 1, H.epsilon), H.unit(2))
    expect_equal(
        report, "eq.phi-counit-left", apply_map_legs(H.phi, 0, H.epsilon), H.unit(2)
    )
    expect_equal(
        report, "eq.phi-counit-right", apply_map_legs(H.phi, 2, H.epsilon), H.unit(2)
    )
    return report


# -- antipode axioms ------------------------------------------------------------


def check_antipode_axioms(H: QhsaStructure) -> CheckReport:
    """The antipode axioms.  Once ``algebra`` and ``structure`` are known to
    pass, ``eq.5i1``, ``eq.5i`` and ``eq.eps-s`` run a over the generators
    only:

    - unit case: S(1) alpha 1 = alpha, 1 beta S(1) = beta, eps(S(1)) = 1;
    - products: for homogeneous a, b with Delta(ab) = sum +- a_1 b_1 (x)
      a_2 b_2, S(a_1 b_1) alpha a_2 b_2 collects the sign (-1)^{|a||b_1|}
      around the inner sum over a, S(b_1) (S(a_1) alpha a_2) b_2 =
      eps(a) S(b_1) alpha b_2, and eps(a) = 0 unless a is even; the beta
      form has b inside, a_1 (b_1 beta S(b_2)) S(a_2).  eps(S(ab)) =
      +-eps(S(b)) eps(S(a)), with sign + wherever eps(a) eps(b) != 0.
    """
    report = CheckReport()
    alg = H.algebra
    domain = _known_domain(H, VALIDATION_SUITES)
    eps = H.epsilon.images
    delta = H.delta.images

    _expect_over(
        report,
        "eq.5i1",
        lambda A: ((a, m_alpha_s(H, delta[a]), H.alpha.scaled(eps[a].scalar_value())) for a in A),
        domain,
    )
    _expect_over(
        report,
        "eq.5i",
        lambda A: ((a, m_beta_s(H, delta[a]), H.beta.scaled(eps[a].scalar_value())) for a in A),
        domain,
    )

    # sum S(X) alpha Y beta S(Z) over Phi
    z = apply_map_legs(H.phi, 2, H.antipode)
    z = outer(H.unit(1), H.alpha, H.beta) * z
    z = apply_map_legs(z, 0, H.antipode)
    z = multiply_adjacent_legs(multiply_adjacent_legs(z, 0), 0)
    expect_equal(report, "eq.5ii1", z, H.unit(1))

    # sum Xbar beta S(Ybar) alpha Zbar over Phi^{-1}
    z = apply_map_legs(H.phi_inv, 1, H.antipode)
    z = outer(H.unit(1), H.beta, H.alpha) * z
    z = multiply_adjacent_legs(multiply_adjacent_legs(z, 0), 0)
    expect_equal(report, "eq.5ii", z, H.unit(1))

    one = alg.field.one()
    ok = H.eps_alpha * H.eps_beta == one and H.eps_of(H.alpha * H.beta) == one
    if ok:
        report.add_pass("eq.eps-alpha-beta")
    else:
        report.add_fail(
            "eq.eps-alpha-beta",
            {
                "eps_alpha": alg.field.format(H.eps_alpha),
                "eps_beta": alg.field.format(H.eps_beta),
            },
        )

    s = H.antipode.images
    _expect_over(
        report,
        "eq.eps-s",
        lambda A: ((a, apply_map_legs(s[a], 0, H.epsilon), eps[a]) for a in A),
        domain,
    )
    return report


# -- quasi-triangularity ---------------------------------------------------------


def _require_r(H, report, ids):
    if H.has_r:
        return True
    for check_id in ids:
        report.add_skip(check_id, "no R-matrix")
    return False


def check_quasi_triangular(H: QhsaStructure) -> CheckReport:
    """The quasi-triangular axioms.  Once ``algebra`` and ``structure`` are
    known to pass, ``eq.6i`` runs a over the generators only: Delta(1) =
    1 (x) 1, and Delta^T(ab) R = Delta^T(a) Delta^T(b) R = Delta^T(a) R
    Delta(b) = R Delta(a) Delta(b) = R Delta(ab), T being an automorphism of
    H (x) H."""
    report = CheckReport()
    if not _require_r(H, report, ["eq.6i", "eq.6ii", "eq.6iii", "eq.r-counit"]):
        return report
    R = H.r_matrix
    delta, delta_t = H.delta.images, H.delta_t.images
    _expect_over(
        report,
        "eq.6i",
        lambda A: ((a, delta_t[a] * R, R * delta[a]) for a in A),
        _known_domain(H, VALIDATION_SUITES),
    )

    lhs = apply_map_legs(R, 0, H.delta)
    rhs = mul_chain(
        permute_legs(H.phi_inv, (1, 2, 0)),
        embed_legs(R, (0, 2), 3),
        permute_legs(H.phi, (0, 2, 1)),
        embed_legs(R, (1, 2), 3),
        H.phi_inv,
    )
    expect_equal(report, "eq.6ii", lhs, rhs)

    lhs = apply_map_legs(R, 1, H.delta)
    rhs = mul_chain(
        permute_legs(H.phi, (2, 0, 1)),
        embed_legs(R, (0, 2), 3),
        permute_legs(H.phi_inv, (1, 0, 2)),
        embed_legs(R, (0, 1), 3),
        H.phi,
    )
    expect_equal(report, "eq.6iii", lhs, rhs)

    _counit_legs_entry(report, "eq.r-counit", H, R)
    return report


def check_triangular(H: QhsaStructure) -> CheckReport:
    report = CheckReport()
    if not _require_r(H, report, ["eq.triangular"]):
        return report
    expect_equal(report, "eq.triangular", H.r_inv, permute_legs(H.r_matrix, (1, 0)))
    return report


def check_qqybe(H: QhsaStructure) -> CheckReport:
    """Graded quasi-quantum Yang-Baxter equation in arity 3."""
    report = CheckReport()
    if not _require_r(H, report, ["eq.7"]):
        return report
    R = H.r_matrix
    lhs = mul_chain(
        embed_legs(R, (0, 1), 3),
        permute_legs(H.phi_inv, (1, 2, 0)),
        embed_legs(R, (0, 2), 3),
        permute_legs(H.phi, (0, 2, 1)),
        embed_legs(R, (1, 2), 3),
        H.phi_inv,
    )
    rhs = mul_chain(
        permute_legs(H.phi_inv, (2, 1, 0)),
        embed_legs(R, (1, 2), 3),
        permute_legs(H.phi, (2, 0, 1)),
        embed_legs(R, (0, 2), 3),
        permute_legs(H.phi_inv, (1, 0, 2)),
        embed_legs(R, (0, 1), 3),
    )
    expect_equal(report, "eq.7", lhs, rhs)
    return report


# -- derived identities -----------------------------------------------------------


def check_pentagon_consequences(H: QhsaStructure) -> CheckReport:
    """Four rearrangements of the pentagon; the sharpest routine exercise of
    the sign engine because every product mixes split and unsplit legs.

    Every factor stands in its printed order; only the bracketing differs
    from left to right, so that P = (Delta (x) 1 (x) 1)Phi (1 (x) 1 (x)
    Delta)Phi, Q = (Phi (x) 1)(1 (x) Delta (x) 1)Phi (both cached on the
    structure and shared with eq.fii) and N = (1 (x) 1 (x) Delta)Phi^{-1}
    (Delta (x) 1 (x) 1)Phi^{-1} are each multiplied once.  Over an
    associative algebra, which the validation suites establish before this
    one runs, the bracketing does not change a product.
    """
    report = CheckReport()
    _, phi1, _, phi_x1, one_x_phi = H.phi_factors
    inv0, inv1, inv2, inv_x1, one_x_inv = H.phi_inv_factors
    p, q, n = H.pentagon_lhs, H.pentagon_head, inv2 * inv0
    expect_equal(report, "eq.6.1i", phi_x1, p * one_x_inv * inv1)
    expect_equal(report, "eq.6.1ii", one_x_phi, inv1 * inv_x1 * p)
    expect_equal(report, "eq.6.1iii", inv_x1, phi1 * one_x_phi * n)
    expect_equal(report, "eq.6.1iv", one_x_inv, n * q)
    return report


def lemma11_middles(H: QhsaStructure) -> dict:
    """The arity-1 middles of the four exchange identities, per identity a
    dict {v: M_v} over the values v of the lone leg.

    In each identity one leg of Phi (Phi^{-1} for 11iii and 11iv) stands
    alone on one tensor side and carries the explicit sign: x in 11i and
    11iii, z in 11ii and 11iv.  The other two legs p, q only ever appear
    inside one factor (f(e_p) k) g(e_q), so their sum is taken once:

        11i    M_x = sum c_xyz (e_y beta) S(e_z)       over Phi
        11ii   M_z = sum c_xyz (S(e_x) alpha) e_y      over Phi
        11iii  M_x = sum c_xyz (S(e_y) alpha) e_z      over Phi^{-1}
        11iv   M_z = sum c_xyz (e_x beta) S(e_y)       over Phi^{-1}

    The sum over q moves into the right factor and the sum over p into M_v;
    that is bilinearity of the product and holds for any table.  Zero
    middles are left out.
    """
    alg = H.algebra
    one = alg.field.one()
    e = [H.basis(i) for i in range(alg.dimension)]
    s = H.antipode.images
    specs = {
        "11i": (H.phi, 0, e, H.beta, s),
        "11ii": (H.phi, 2, s, H.alpha, e),
        "11iii": (H.phi_inv, 0, s, H.alpha, e),
        "11iv": (H.phi_inv, 2, e, H.beta, s),
    }
    middles = {}
    for which, (coassociator, lone, left, const, right) in specs.items():
        grouped = {}  # v -> p -> [(g(e_q), c)]
        for word, c in coassociator.terms.items():
            p, q = word[1:] if lone == 0 else word[:2]
            grouped.setdefault(word[lone], {}).setdefault(p, []).append((right[q], c))
        left_const = {}
        middles[which] = {}
        for v, by_p in grouped.items():
            pairs = []
            for p, qs in by_p.items():
                if p not in left_const:
                    left_const[p] = left[p] * const
                pairs.append((left_const[p] * linear_combination(alg, 1, qs), one))
            m = linear_combination(alg, 1, pairs)
            if m.terms:
                middles[which][v] = m
    return middles


def lemma11_sides(H: QhsaStructure, which: str, a: TensorElement):
    """Both sides of one of the four exchange identities, with every factor
    order, bracketing and explicit sign factor as printed.  The sum over the
    two legs of Phi that stay inside one factor is the stored middle M_v of
    ``lemma11_middles``, so the sides run over (lone leg v, term of a) and
    (v, Sweedler term) pairs; s[i] is the stored image S(e_i), and the
    Sweedler legs of ``a`` come from the stored iterated coproduct.

    Each term is outer(f, g) with one factor a product of two basis
    elements, read from ``basis_products``.  When that product is zero the
    term is skipped before the other factor is built: outer(0, g) = 0.
    """
    if which not in ("11i", "11ii", "11iii", "11iv"):
        raise AlgebraError(f"unknown identity {which!r}")
    alg = H.algebra
    par = alg.parity
    e = [H.basis(i) for i in range(alg.dimension)]
    ee = H.basis_products
    s = H.antipode.images

    iterated = H.delta_left3 if which in ("11i", "11iii") else H.delta_right3
    sweedler = apply_map_legs(a, 0, iterated).terms
    lhs = []  # (term, coefficient) pairs of each side
    rhs = []
    for v, m in H.lemma11_middles[which].items():
        if which == "11i":
            for (w,), ca in a.terms.items():
                if ee[v][w].terms:
                    sign = -1 if par[w] and par[v] else 1
                    lhs.append((outer(ee[v][w], m), ca * sign))
            for (u1, u2, u3), cu in sweedler.items():
                if ee[u1][v].terms:
                    sign = -1 if par[v] and par[u2] else 1
                    rhs.append((outer(ee[u1][v], e[u2] * m * s[u3]), cu * sign))
        elif which == "11ii":
            for (w,), ca in a.terms.items():
                if ee[w][v].terms:
                    sign = -1 if par[w] and par[v] else 1
                    lhs.append((outer(m, ee[w][v]), ca * sign))
            for (u1, u2, u3), cu in sweedler.items():
                if ee[v][u3].terms:
                    sign = -1 if par[v] and par[u2] else 1
                    rhs.append((outer(s[u1] * m * e[u2], ee[v][u3]), cu * sign))
        elif which == "11iii":
            for (w,), ca in a.terms.items():
                if ee[w][v].terms:
                    lhs.append((outer(ee[w][v], m), ca))
            for (u1, u2, u3), cu in sweedler.items():
                if ee[v][u1].terms:
                    sign = -1 if par[v] and (par[u1] + par[u2]) % 2 else 1
                    rhs.append((outer(ee[v][u1], s[u2] * m * e[u3]), cu * sign))
        else:  # 11iv
            for (w,), ca in a.terms.items():
                if ee[v][w].terms:
                    lhs.append((outer(m, ee[v][w]), ca))
            for (u1, u2, u3), cu in sweedler.items():
                if ee[u3][v].terms:
                    sign = -1 if par[v] and (par[u2] + par[u3]) % 2 else 1
                    rhs.append((outer(e[u1] * m * s[u2], ee[u3][v]), cu * sign))
    return linear_combination(alg, 2, lhs), linear_combination(alg, 2, rhs)


def check_lemma11(H: QhsaStructure) -> CheckReport:
    """The four exchange identities, for every basis a (``lemma11_sides``).
    Once ``algebra`` and ``structure`` are known to pass, a runs over the
    generators only.  In 11i, with W = sum X (x) Y beta S(Z) over Phi (even),
    the sides are L(a) = W (a (x) 1) and R(a) = sum (a_1 (x) a_2) W
    (1 (x) S(a_3)) over (Delta (x) 1)Delta(a), with exactly the printed signs:

    - unit case: R(1) = W = L(1), as Delta(1) = 1 (x) 1 and S(1) = 1;
    - products: Delta is a homomorphism and S an antihomomorphism, so R(ab) =
      sum (-1)^{|a_3||b|} (a_1 (x) a_2) R(b) (1 (x) S(a_3)).  If R(b) =
      W (b (x) 1), moving b (x) 1 past 1 (x) S(a_3) costs that same sign,
      so R(ab) = R(a) (b (x) 1) = W (a (x) 1)(b (x) 1) = L(ab).

    11ii, 11iii and 11iv mirror this, with W the sum of (middle (x) lone leg)
    or (lone leg (x) middle) over Phi or Phi^{-1}: L(a) is (1 (x) a) W,
    (a (x) 1) W and W (1 (x) a), and in R(ab) the Sweedler legs of one
    factor act around R of the other, past which the plain factor moves
    with exactly the sign the action carries.
    """
    report = CheckReport()
    domain = _known_domain(H, VALIDATION_SUITES)
    for which in ("11i", "11ii", "11iii", "11iv"):
        _expect_over(
            report,
            f"eq.{which}",
            lambda A, which=which: ((a, *lemma11_sides(H, which, H.basis(a))) for a in A),
            domain,
        )
    return report


def _absorption_cases(H, contract, from_left, etas, A):
    """contract(Delta(a) eta) against eps(a) contract(eta) (eta Delta(a) when
    absorbing from the right) for each (label, eta) of ``etas``, then each
    basis a in A; labelled [a, *label]."""
    delta, eps = H.delta.images, H.epsilon.images
    for label, eta in etas:
        base = contract(H, eta)
        for a in A:
            stacked = delta[a] * eta if from_left else eta * delta[a]
            yield [a, *label], contract(H, stacked), base.scaled(eps[a].scalar_value())


def _absorption_entry(report, check_id, H, contract, from_left, reducible):
    """One absorption identity, quantified over a and eta = e_i (x) e_j.

    e_i (x) e_j = (e_i (x) 1)(1 (x) e_j) with no sign, and the contractions
    absorb the outer factor: m(1(x)alpha)(S(x)1)(X (1 (x) y)) =
    m(1(x)alpha)(S(x)1)(X) y and m(1(x)beta)(1(x)S)((x (x) 1) Y) =
    x m(1(x)beta)(1(x)S)(Y).  So for each a the identity holds for every
    eta exactly when it holds for eta = e_i (x) 1 (from the left) or
    eta = 1 (x) e_j (from the right): d^2 cases, not d^3, when
    ``reducible``.  Once ``algebra`` and ``structure`` are known to pass, a
    runs over the generators too, d |G| cases:

    - unit case: Delta(1) = 1 (x) 1 and eps(1) = 1;
    - products: if the identity holds for a and b and every eta,
      contract(Delta(ab) eta) = contract(Delta(a) (Delta(b) eta)) =
      eps(a) eps(b) contract(eta), and from the right eta Delta(ab) =
      (eta Delta(a)) Delta(b).

    When ``reducible`` is false, or a reduced case fails, the d^3 cases run,
    so the witness is the first failing [a, i, j].
    """
    G, d = _known_domain(H, VALIDATION_SUITES)
    reduced = None
    if reducible:
        leg = (0,) if from_left else (1,)
        etas = (((i,), embed_legs(H.basis(i), leg, 2)) for i in d)
        reduced = _absorption_cases(H, contract, from_left, etas, d if G is None else G)
    etas = (((i, j), H.basis(i, j)) for i in d for j in d)
    _expect_reduced(report, check_id, reduced, _absorption_cases(H, contract, from_left, etas, d))


def check_eta_lemma(H: QhsaStructure) -> CheckReport:
    """Absorption of Delta(a) by the alpha/beta contractions, for every basis
    word eta of H (x) H and every basis a.

    The reduction over eta in ``_absorption_entry`` needs the unit, an even
    unit and associativity of H (and of H (x) H, which follows with the
    grading), so it is taken only when the algebra's report passes; a graded
    two-sided unit is even.  From the right it also moves x past beta with
    no sign, so eq.lem5ii needs beta even as well.
    """
    report = CheckReport()
    algebra_ok = H.algebra_report.ok
    _absorption_entry(report, "eq.lem5i", H, m_alpha_s, True, algebra_ok)
    _absorption_entry(
        report, "eq.lem5ii", H, m_beta_s, False, algebra_ok and H.beta.is_even()
    )
    return report


# -- suite orchestration -----------------------------------------------------------

# A valid structure: what ``validate`` runs, what explains a structure that
# cannot be transformed, and what every identity suite needs.  ``structure``
# needs ``algebra``: inverses and homomorphisms mean nothing over an algebra
# whose unit is not a unit.
VALIDATION_SUITES = ("algebra", "structure")

# The Drinfeld twist needs only the quasi-Hopf axioms (Drinfeld 1990).
DRINFELD_PREMISES = VALIDATION_SUITES + ("quasi-bialgebra", "antipode")

# Each suite, in report order, with the suites that must pass before it is
# well posed.  The premises also license the reductions: a check that
# quantifies over the generators (``GradedAlgebra.generators``) does so only
# when its premises are in ``QhsaStructure.passed``, which ``run_suites``
# fills by running the premises first.
SUITES = {
    "algebra": (lambda H: CheckReport(list(H.algebra_report.entries)), ()),
    "structure": (validate_structure, ("algebra",)),
    "quasi-bialgebra": (check_quasi_bialgebra, VALIDATION_SUITES),
    "antipode": (check_antipode_axioms, VALIDATION_SUITES),
    "pentagon-consequences": (check_pentagon_consequences, VALIDATION_SUITES),
    "lemma11": (check_lemma11, VALIDATION_SUITES),
    "eta": (check_eta_lemma, VALIDATION_SUITES),
    "quasi-triangular": (check_quasi_triangular, VALIDATION_SUITES),
    "qqybe": (check_qqybe, VALIDATION_SUITES),
    "triangular": (check_triangular, VALIDATION_SUITES),
}

# triangular is opt-in: a quasi-triangular structure need not be triangular.
DEFAULT_SUITE_NAMES = tuple(name for name in SUITES if name != "triangular")


def run_suites(H: QhsaStructure, names=DEFAULT_SUITE_NAMES):
    """Run the named suites; returns [(name, CheckReport, seconds)].

    Each suite runs at most once, after its premises in ``SUITES``.  A suite
    with a premise that did not pass is not run: it reports ``skipped:
    validation failed earlier``.  A failed suite is reported where it ran,
    whether it was selected or ran as a premise; any other selected suite
    is reported where it is first named.  So a run whose premises pass
    reports exactly the selected suites, each once.
    """
    runs = {}  # name -> (report, seconds, ran and passed)
    results = []

    def run(name):
        if name not in runs:
            fn, premises = SUITES[name]
            well_posed = all(run(p)[2] for p in premises)
            start = time.perf_counter()
            if well_posed:
                report = fn(H)
            else:
                report = CheckReport()
                report.add_skip(name, "validation failed earlier")
            runs[name] = (report, time.perf_counter() - start, well_posed and report.ok)
            if runs[name][2]:
                H.passed.add(name)
            if not report.ok:
                results.append((name, report, runs[name][1]))
        return runs[name]

    for name in names:
        report, seconds, _ = run(name)
        if report.ok and name not in (n for n, _, _ in results):
            results.append((name, report, seconds))
    return results
