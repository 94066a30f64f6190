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
from functools import cached_property, partial

from .algebra import (
    AlgebraError,
    GradedAlgebra,
    SingularError,
    StructureMap,
    TensorElement,
    _row_combination,
    apply_map_legs,
    contract_legs,
    embed_legs,
    invert_structure_map,
    invert_tensor_element,
    linear_combination,
    multiply_adjacent_legs,
    permute_legs,
)
from .reporting import (
    CheckReport,
    difference_witness,
    element_terms_json,
    expect_equal,
    expect_equal_per_basis,
)


class QhsaStructure:
    """The full tuple (algebra, Delta, epsilon, S, Phi, alpha, beta [, R]).

    Immutable: setting or deleting an attribute raises ``AttributeError``.
    ``replace`` builds a new structure with some components changed.  Derived
    data (inverses, transposed and primed coproducts) is computed on first
    use and cached in the instance ``__dict__`` by ``cached_property``, so a
    new structure starts with none of it.  Equality is identity:
    ``StructureMap`` is unhashable.
    """

    COMPONENTS = ("algebra", "delta", "epsilon", "antipode", "phi", "alpha", "beta", "r_matrix")

    def __init__(
        self,
        algebra: GradedAlgebra,
        delta: StructureMap,
        epsilon: StructureMap,
        antipode: StructureMap,
        phi: TensorElement,
        alpha: TensorElement,
        beta: TensorElement,
        r_matrix: TensorElement | None = None,
    ):
        vars(self).update(
            algebra=algebra,
            delta=delta,
            epsilon=epsilon,
            antipode=antipode,
            phi=phi,
            alpha=alpha,
            beta=beta,
            r_matrix=r_matrix,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: QhsaStructure is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: QhsaStructure is immutable")

    def replace(self, **changes) -> "QhsaStructure":
        """A new structure with the components named in ``changes`` replaced
        and the rest shared; no derived data is carried over."""
        components = {name: getattr(self, name) for name in self.COMPONENTS}
        return QhsaStructure(**{**components, **changes})

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
        """Phi^{-1}, built and checked by ``invert_tensor_element``.  When
        it equals Phi, as on trivial, ext, h2, h2r and h2ext, it is Phi's
        own object, so ``phi_inv is phi`` tells every reader that Phi is its
        own inverse and what is built from Phi serves for Phi^{-1} too."""
        inverse = invert_tensor_element(self.phi)
        return self.phi if inverse == self.phi else inverse

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
        s = self.antipode
        return StructureMap(
            self.algebra, 2, [contract_legs(img, {0: s, 1: s}) for img in self.delta_t.images]
        )

    @cached_property
    def delta_prime(self) -> StructureMap:
        """The coproduct (S (x) S) . T . Delta . S^{-1}: the cached
        (S (x) S) Delta^T applied to each image of S^{-1}."""
        return StructureMap(
            self.algebra,
            2,
            [apply_map_legs(x, 0, self.ss_delta_t) for x in self.antipode_inv.images],
        )

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
        """The five arity-4 factors of the pentagon built from Phi^{-1}:
        ``phi_factors`` itself when ``phi_inv`` is Phi's object."""
        if self.phi_inv is self.phi:
            return self.phi_factors
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
    def hexagon_left(self) -> TensorElement:
        """Phi^{-1}_(1,2,0) R_02 Phi_(0,2,1) R_12 Phi^{-1}, multiplied left to
        right, where x_w is ``permute_legs(x, w)`` and R_pq is R on legs p, q
        of three: the right side of eq.6ii, and eq.7's left side after R_01."""
        R = self.r_matrix
        return (
            permute_legs(self.phi_inv, (1, 2, 0))
            * embed_legs(R, (0, 2), 3)
            * permute_legs(self.phi, (0, 2, 1))
            * embed_legs(R, (1, 2), 3)
            * self.phi_inv
        )

    @cached_property
    def hexagon_right(self) -> TensorElement:
        """Phi_(2,0,1) R_02 Phi^{-1}_(1,0,2) R_01, multiplied left to right as
        in ``hexagon_left``: the right side of eq.6iii without its last Phi,
        and eq.7's right side after Phi^{-1}_(2,1,0) R_12."""
        R = self.r_matrix
        return (
            permute_legs(self.phi, (2, 0, 1))
            * embed_legs(R, (0, 2), 3)
            * permute_legs(self.phi_inv, (1, 0, 2))
            * embed_legs(R, (0, 1), 3)
        )

    @cached_property
    def alpha_map(self) -> StructureMap:
        """A(e_p) = S(e_p) alpha, the map of every alpha sum."""
        return StructureMap(self.algebra, 1, [img * self.alpha for img in self.antipode.images])

    @cached_property
    def beta_map(self) -> StructureMap:
        """B(e_p) = e_p beta, the map of every beta sum."""
        basis = (self.basis(p) for p in range(self.algebra.dimension))
        return StructureMap(self.algebra, 1, [e * self.beta for e in basis])

    @cached_property
    def lemma11_factors(self) -> dict:
        """Per exchange identity, W: Phi (Phi^{-1} for 11iii and 11iv) with a
        structure map on each inner leg and one adjacent contraction
        (``contract_legs``, with A = ``alpha_map`` and B = ``beta_map``):

            11i    m_1 (1 (x) B (x) S) Phi        11iii  m_1 (1 (x) A (x) 1) Phi^{-1}
            11ii   m_0 (A (x) 1 (x) 1) Phi        11iv   m_0 (B (x) S (x) 1) Phi^{-1}

        A map on a leg and an adjacent contraction make no sign, so by
        linearity alone W is the printed sum over Phi (Phi^{-1}) on any
        table, e.g. sum X (x) (Y beta) S(Z) for 11i.  Read by lemma 11 and
        split by ``lemma11_middles``."""
        a, b, s = self.alpha_map, self.beta_map, self.antipode
        maps = {
            "11i": (self.phi, {1: b, 2: s}),
            "11ii": (self.phi, {0: a}),
            "11iii": (self.phi_inv, {1: a}),
            "11iv": (self.phi_inv, {0: b, 1: s}),
        }
        return {
            which: contract_legs(w, on_legs, 1 - LEMMA11_FORMS[which][0])
            for which, (w, on_legs) in maps.items()
        }

    @cached_property
    def lemma11_embedded(self) -> dict:
        """Each identity's W embedded at its legs in arity 3
        (``LEMMA11_FORMS``); read by ``lemma11_sides`` alone."""
        return {k: embed_legs(w, LEMMA11_FORMS[k][3], 3) for k, w in self.lemma11_factors.items()}

    @cached_property
    def basis_on_legs(self) -> tuple:
        """e_a (x) 1 and 1 (x) e_a for each basis a, indexed [leg][a]: the
        embedded basis elements that lemma 11 and the eta lemma multiply
        by, built once for both."""
        basis = [self.basis(a) for a in range(self.algebra.dimension)]
        return tuple(tuple(embed_legs(e, (leg,), 2) for e in basis) for leg in (0, 1))

    @cached_property
    def lemma11_middles(self) -> dict:
        """Each identity's W split at its lone leg: {v: M_v} with W =
        sum_v e_v (x) M_v (lone leg 0: 11i, 11iii) or sum_v M_v (x) e_v
        (lone leg 1: 11ii, 11iv), where

            11i    M_x = sum c_xyz (e_y beta) S(e_z)       over Phi
            11ii   M_z = sum c_xyz (S(e_x) alpha) e_y      over Phi
            11iii  M_x = sum c_xyz (S(e_y) alpha) e_z      over Phi^{-1}
            11iv   M_z = sum c_xyz (e_x beta) S(e_y)       over Phi^{-1}

        Zero middles are left out.  Read by the Drinfeld sums for F_D,
        F_D^{-1} and their alternative forms."""
        middles = {}
        for which, (lone, _, _, _) in LEMMA11_FORMS.items():
            split = {}  # v -> {(k,): c}
            for word, c in self.lemma11_factors[which].terms.items():
                split.setdefault(word[lone], {})[(word[1 - lone],)] = c
            middles[which] = {
                v: TensorElement._from_terms(self.algebra, 1, terms) for v, terms in split.items()
            }
        return middles

    @cached_property
    def passed(self) -> set:
        """The names of the suites known to have passed on this structure:
        ``run_suites`` adds each suite that runs and passes, and nothing else
        adds to it.  It is the only premise record: a check reduces its
        quantifier only when ``algebra`` and ``structure`` are here
        (``_known``), and no check runs a premise itself, so a direct call
        on a fresh structure enumerates the basis."""
        return set()

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
    """m (A (x) 1) applied to an arity-2 element, A = ``H.alpha_map``: the
    printed sum of c S(x_1) alpha x_2 on any table."""
    return contract_legs(x, {0: H.alpha_map}, 0)


def m_beta_s(H: QhsaStructure, x: TensorElement) -> TensorElement:
    """m (B (x) S) applied to an arity-2 element, B = ``H.beta_map``: the
    printed sum of c x_1 beta S(x_2) on any table."""
    return contract_legs(x, {0: H.beta_map, 1: H.antipode}, 0)


# -- validation ---------------------------------------------------------------


def validate_algebra(algebra: GradedAlgebra) -> CheckReport:
    """Grading additivity, two-sided unit, associativity.

    The unit and associativity are compared on the sparse ``product_rows``,
    with no element per case: an arity-1 product has no Koszul sign, so
    e_i e_j is ``rows[i].get(j, ())``.  An i with an empty row is skipped,
    and k runs only over the indices where a side can be nonzero: (e_i e_j)
    e_k = 0 unless k is in ``partners[m]`` for some m in the support of
    e_i e_j, and e_i (e_j e_k) = 0 unless k is in ``partners[j]``.  So k
    runs over the sorted union of those lists, and a triple whose two
    sides are both zero is never visited; the skipped triples pass, so the
    first failing label is the full enumeration's.
    Only the first case that fails there is built from elements, so its
    witness is the difference of the elements, labelled i (``algebra.unit``)
    or [i, j, k] (``algebra.assoc``).

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
    report.add("algebra.grading", grading)

    rows, partners = algebra.product_rows, algebra.partners
    dim = range(algebra.dimension)
    one = algebra.field.one()
    units = algebra.unit_support

    def unit_cases():
        for i in dim:
            for left in (True, False):
                pairs = ((u, rows[k].get(i, ()) if left else rows[i].get(k, ())) for k, u in units)
                if _row_combination(pairs) != {i: one}:
                    unit = TensorElement.unit(algebra, 1)
                    e = TensorElement.basis(algebra, (i,))
                    yield i, unit * e if left else e * unit, e
                    return

    def assoc_cases(middle):
        for i in dim:
            row_i = rows[i]
            if not row_i:
                continue  # e_i x = 0 for every x, so both sides are 0
            for j in middle:
                left = row_i.get(j, ())
                row_j = rows[j]
                ks = partners[j]
                if left:
                    ks = sorted(set(ks).union(*(partners[m] for m, _ in left)))
                for k in ks:
                    right = row_j.get(k, ())
                    lhs = _row_combination((c, rows[m].get(k, ())) for m, c in left)
                    if lhs != _row_combination((c, row_i.get(m, ())) for m, c in right):
                        ei, ej, ek = (TensorElement.basis(algebra, (t,)) for t in (i, j, k))
                        yield [i, j, k], ei * ej * ek, ei * (ej * ek)
                        return

    unit_ok = expect_equal_per_basis(report, "algebra.unit", unit_cases())
    reduced = assoc_cases(algebra.generators) if unit_ok else None
    _expect_reduced(report, "algebra.assoc", reduced, assoc_cases(dim))
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

    def expect_hom(check_id, cases, unit_ok):
        reduced = cases(alg.generators) if known and unit_ok else None
        _expect_reduced(report, check_id, reduced, cases(range(alg.dimension)))

    ok = expect_equal(report, "structure.delta-unit", H.coproduct(H.unit(1)), H.unit(2))
    expect_hom("structure.delta-hom", partial(_hom_cases, H, H.delta), ok)
    report.add("structure.delta-parity", H.delta.parity_violation())

    eps_unit = apply_map_legs(H.unit(1), 0, H.epsilon)
    one = TensorElement.from_scalar(alg, alg.field.one())
    ok = expect_equal(report, "structure.epsilon-unit", eps_unit, one)
    expect_hom("structure.epsilon-hom", partial(_hom_cases, H, H.epsilon), ok)
    report.add("structure.epsilon-parity", H.epsilon.parity_violation())

    ok = expect_equal(report, "structure.antipode-unit", H.s_of(H.unit(1)), H.unit(1))
    expect_hom("structure.antipode-antihom", partial(_antihom_cases, H), ok)
    report.add("structure.antipode-parity", H.antipode.parity_violation())
    _invertible_entry(
        report, "structure.antipode-bijective", H, "antipode_inv", "singular antipode"
    )

    _even_entry(report, "structure.phi-even", H.phi)
    _invertible_entry(report, "structure.phi-invertible", H, "phi_inv")
    _even_entry(report, "structure.alpha-even", H.alpha)
    _even_entry(report, "structure.beta-even", H.beta)
    if _require_r(H, report, ("structure.r-even", "structure.r-invertible")):
        _even_entry(report, "structure.r-even", H.r_matrix)
        _invertible_entry(report, "structure.r-invertible", H, "r_inv")
    return report


def _hom_cases(H, f, js):
    """f(e_i e_j) against f(e_i) f(e_j) for j in js, labelled by the flat
    index i*d + j.  f(e_i e_j) is read off the sparse table (an arity-1
    product has no Koszul sign) as the sum of c f(e_k) over its terms."""
    alg = H.algebra
    d, rows = alg.dimension, alg.product_rows
    for i in range(d):
        for j in js:
            row = rows[i].get(j, ())
            lhs = linear_combination(alg, f.out_arity, ((f.images[k], c) for k, c in row))
            yield i * d + j, lhs, f.images[i] * f.images[j]


def _antihom_cases(H, js):
    """S(e_i e_j) against (-1)^{[i][j]} S(e_j) S(e_i) for j in js, labelled
    [i, j]; S(e_i e_j) is read off the sparse table as in
    ``_hom_cases``."""
    alg = H.algebra
    par, rows = alg.parity, alg.product_rows
    s = H.antipode.images
    for i in range(alg.dimension):
        for j in js:
            rhs = s[j] * s[i]
            lhs = linear_combination(alg, 1, ((s[k], c) for k, c in rows[i].get(j, ())))
            yield [i, j], lhs, -rhs if par[i] and par[j] else rhs


def _expect_reduced(report, check_id, reduced, full) -> bool:
    """Record an identity quantified over H from its ``reduced`` cases when
    they settle it: a pass when every one holds.  When ``reduced`` is None
    or one of its cases fails, the ``full`` cases run through
    ``expect_equal_per_basis``, so a failure is witnessed with the first
    failing label of the full enumeration and its difference."""
    if reduced is not None and all(lhs == rhs for _, lhs, rhs in reduced):
        report.add(check_id)
        return True
    return expect_equal_per_basis(report, check_id, full)


def _known(H) -> bool:
    """Whether ``algebra`` and ``structure`` are known to have passed on H
    (``H.passed``): a check outside those two suites reduces its quantifier
    only then, as its reduction is sound only over a valid structure, and
    none of them runs a premise itself."""
    return H.passed.issuperset(VALIDATION_SUITES)


def _expect_over(report, check_id, cases, H) -> bool:
    """``_expect_reduced`` for an identity whose ``cases(indices)`` yields
    its cases for the basis elements a in ``indices``: reduced to a in the
    generators of H's algebra when ``_known(H)``, else, or on a failure,
    over its whole basis."""
    reduced = cases(H.algebra.generators) if _known(H) else None
    return _expect_reduced(report, check_id, reduced, cases(range(H.algebra.dimension)))


def _require_r(H, report, ids):
    """Whether H has an R-matrix; without one, each of ``ids`` is skipped."""
    if H.has_r:
        return True
    for check_id in ids:
        report.add_skip(check_id, "no R-matrix")
    return False


def _even_entry(report, check_id, element):
    odd = not element.is_even()
    report.add(check_id, {"reason": "element not homogeneous even"} if odd else None)


def _invertible_entry(report, check_id, H, attr, reason=None):
    """A pass when the cached inverse ``H.<attr>`` builds, else a failure
    giving ``reason``, by default the SingularError's message."""
    witness = None
    try:
        getattr(H, attr)
    except SingularError as exc:
        witness = {"reason": reason or str(exc)}
    report.add(check_id, witness)


def _counit_legs_entry(report, check_id, H, x, expected=None):
    """Both counit legs (eps (x) 1)x and (1 (x) eps)x of an arity-2 element
    equal to ``expected``, by default 1; a failure witnesses each leg."""
    expected = H.unit(1) if expected is None else expected
    left = apply_map_legs(x, 0, H.epsilon)
    right = apply_map_legs(x, 1, H.epsilon)
    witness = None
    if left != expected or right != expected:
        witness = {"eps-left": element_terms_json(left), "eps-right": element_terms_json(right)}
    report.add(check_id, witness)


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
    left3, right3 = H.delta_left3.images, H.delta_right3.images
    _expect_over(
        report,
        "eq.fi",
        lambda A: ((a, right3[a], H.phi_inv * left3[a] * H.phi) for a in A),
        H,
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
        H,
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
    eps = H.epsilon.images
    delta = H.delta.images

    _expect_over(
        report,
        "eq.5i1",
        lambda A: ((a, m_alpha_s(H, delta[a]), H.alpha.scaled(eps[a].scalar_value())) for a in A),
        H,
    )
    _expect_over(
        report,
        "eq.5i",
        lambda A: ((a, m_beta_s(H, delta[a]), H.beta.scaled(eps[a].scalar_value())) for a in A),
        H,
    )

    # sum S(X) alpha Y beta S(Z) over Phi, sum Xbar beta S(Ybar) alpha Zbar over Phi^{-1}
    maps = {0: H.alpha_map, 1: H.beta_map, 2: H.antipode}
    expect_equal(report, "eq.5ii1", contract_legs(H.phi, maps, 0, 0), H.unit(1))
    maps = {0: H.beta_map, 1: H.alpha_map}
    expect_equal(report, "eq.5ii", contract_legs(H.phi_inv, maps, 0, 0), H.unit(1))

    one, fmt = alg.field.one(), alg.field.format
    witness = None
    if H.eps_alpha * H.eps_beta != one or H.eps_of(H.alpha * H.beta) != one:
        witness = {"eps_alpha": fmt(H.eps_alpha), "eps_beta": fmt(H.eps_beta)}
    report.add("eq.eps-alpha-beta", witness)

    s = H.antipode.images
    _expect_over(
        report,
        "eq.eps-s",
        lambda A: ((a, apply_map_legs(s[a], 0, H.epsilon), eps[a]) for a in A),
        H,
    )
    return report


# -- quasi-triangularity ---------------------------------------------------------


def check_quasi_triangular(H: QhsaStructure) -> CheckReport:
    """The quasi-triangular axioms.  Once ``algebra`` and ``structure`` are
    known to pass, ``eq.6i`` runs a over the generators only: Delta(1) =
    1 (x) 1, and Delta^T(ab) R = Delta^T(a) Delta^T(b) R = Delta^T(a) R
    Delta(b) = R Delta(a) Delta(b) = R Delta(ab), T being an automorphism of
    H (x) H.  The right sides of ``eq.6ii`` and ``eq.6iii`` are the cached
    ``hexagon_left`` and ``hexagon_right`` times Phi, multiplied left to
    right as printed; ``check_qqybe`` shares both chains."""
    report = CheckReport()
    if not _require_r(H, report, ["eq.6i", "eq.6ii", "eq.6iii", "eq.r-counit"]):
        return report
    R = H.r_matrix
    delta, delta_t = H.delta.images, H.delta_t.images
    _expect_over(
        report,
        "eq.6i",
        lambda A: ((a, delta_t[a] * R, R * delta[a]) for a in A),
        H,
    )

    expect_equal(report, "eq.6ii", apply_map_legs(R, 0, H.delta), H.hexagon_left)
    expect_equal(report, "eq.6iii", apply_map_legs(R, 1, H.delta), H.hexagon_right * H.phi)

    _counit_legs_entry(report, "eq.r-counit", H, R)
    return report


def check_triangular(H: QhsaStructure) -> CheckReport:
    report = CheckReport()
    if not _require_r(H, report, ["eq.triangular"]):
        return report
    expect_equal(report, "eq.triangular", H.r_inv, permute_legs(H.r_matrix, (1, 0)))
    return report


def check_qqybe(H: QhsaStructure) -> CheckReport:
    """Graded quasi-quantum Yang-Baxter equation in arity 3 (Drinfeld,
    "Quasi-Hopf algebras", 1990): R_01 times the eq.6ii chain against
    Phi^{-1}_(2,1,0) R_12 times the eq.6iii chain without its last Phi, the
    cached ``hexagon_left`` and ``hexagon_right`` that eq.6ii and eq.6iii
    read, so the two suites make 11 arity-3 products where the printed
    chains take 18.  Only the bracketing differs from the printed order, and
    over an associative algebra, which the validation suites establish
    before this one runs, the bracketing does not change a product."""
    report = CheckReport()
    if not _require_r(H, report, ["eq.7"]):
        return report
    R = H.r_matrix
    lhs = embed_legs(R, (0, 1), 3) * H.hexagon_left
    rhs = permute_legs(H.phi_inv, (2, 1, 0)) * embed_legs(R, (1, 2), 3) * H.hexagon_right
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


# Per exchange identity: the leg of W holding the lone leg, which is also
# the leg of a on the left side; whether W stands left of a there (and left
# of x on the right side); the leg of x that S acts on; W's legs in arity 3.
LEMMA11_FORMS = {
    "11i": (0, True, 2, (0, 1)),
    "11ii": (1, False, 0, (1, 2)),
    "11iii": (0, False, 1, (0, 2)),
    "11iv": (1, True, 1, (0, 2)),
}


def lemma11_sides(H: QhsaStructure, which: str, a: TensorElement):
    """Both sides of one of the four exchange identities as Koszul products
    (``tensor_multiply``), so every sign is the product's.  W and its
    embedding W_pq are the cached ``lemma11_factors`` and ``lemma11_embedded``,
    x is the iterated coproduct of a with S on one leg, m_k contracts legs
    k, k+1:

        11i    W (a (x) 1)    x = (Delta (x) 1)Delta(a), S on leg 2    m_1(x W_01)
        11ii   (1 (x) a) W    x = (1 (x) Delta)Delta(a), S on leg 0    m_0(W_12 x)
        11iii  (a (x) 1) W    x = (Delta (x) 1)Delta(a), S on leg 1    m_1(W_02 x)
        11iv   W (1 (x) a)    x = (1 (x) Delta)Delta(a), S on leg 1    m_0(x W_02)

    These are the printed sides, with their factor order and explicit signs,
    when the table is unital and associative (the products multiply by the
    unit and rebracket) and Phi, alpha and beta are even with S
    parity-preserving (so M_v has the parity of e_v): the premises
    ``algebra`` and ``structure``, which ``run_suites`` runs first.
    """
    if which not in LEMMA11_FORMS:
        raise AlgebraError(f"unknown identity {which!r}")
    lone = LEMMA11_FORMS[which][0]
    iterated = H.delta_left3 if lone == 0 else H.delta_right3
    return _lemma11_sides(H, which, embed_legs(a, (lone,), 2), apply_map_legs(a, 0, iterated))


def _lemma11_sides(H: QhsaStructure, which: str, a2: TensorElement, a3: TensorElement):
    """``lemma11_sides`` from a2, a on the lone leg of two, and a3, the
    iterated coproduct of a: for a basis a, ``check_lemma11`` reads both
    from the structure, the cached ``basis_on_legs`` entry and the stored
    image of ``delta_left3`` or ``delta_right3``."""
    lone, w_left, s_leg, _ = LEMMA11_FORMS[which]
    w, w3 = H.lemma11_factors[which], H.lemma11_embedded[which]
    x = apply_map_legs(a3, s_leg, H.antipode)
    if w_left:
        return w * a2, multiply_adjacent_legs(x * w3, 1 - lone)
    return a2 * w, multiply_adjacent_legs(w3 * x, 1 - lone)


def check_lemma11(H: QhsaStructure) -> CheckReport:
    """The four exchange identities, for every basis a (``lemma11_sides``).
    Its Koszul products are the printed sides over a unital associative
    table with Phi, alpha and beta even and S parity-preserving, which is
    why ``run_suites`` runs it only after ``algebra`` and ``structure``
    have passed.  Once they are known to pass, a runs over the
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
    for which, (lone, _, _, _) in LEMMA11_FORMS.items():
        on_leg = H.basis_on_legs[lone]
        iterated = (H.delta_left3 if lone == 0 else H.delta_right3).images

        def cases(A, which=which, on_leg=on_leg, iterated=iterated):
            return ((a, *_lemma11_sides(H, which, on_leg[a], iterated[a])) for a in A)

        _expect_over(report, f"eq.{which}", cases, H)
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


def _absorption_entry(report, check_id, H, contract, from_left):
    """One absorption identity, quantified over a and eta = e_i (x) e_j.

    Once ``algebra`` and ``structure`` are known to pass (``_known``), two
    reductions take it from d^3 cases to d |G|.  Over eta: e_i (x) e_j =
    (e_i (x) 1)(1 (x) e_j) with no sign, and the contractions absorb the
    outer factor: m(A (x) 1)(X (1 (x) y)) = m(A (x) 1)(X) y and
    m(B (x) S)((x (x) 1) Y) = x m(B (x) S)(Y), with A and B the maps of
    ``m_alpha_s`` and ``m_beta_s``.  So for
    each a the identity holds for every eta exactly when it holds for
    eta = e_i (x) 1 (from the left) or eta = 1 (x) e_j (from the right).
    Over a, which then runs over the generators:

    - unit case: Delta(1) = 1 (x) 1 and eps(1) = 1;
    - products: if the identity holds for a and b and every eta,
      contract(Delta(ab) eta) = contract(Delta(a) (Delta(b) eta)) =
      eps(a) eps(b) contract(eta), and from the right eta Delta(ab) =
      (eta Delta(a)) Delta(b).

    Otherwise, or when a reduced case fails, the d^3 cases run, so the
    witness is the first failing [a, i, j].
    """
    d = range(H.algebra.dimension)
    reduced = None
    if _known(H):
        on_leg = H.basis_on_legs[0 if from_left else 1]
        etas = (((i,), on_leg[i]) for i in d)
        reduced = _absorption_cases(H, contract, from_left, etas, H.algebra.generators)
    etas = (((i, j), H.basis(i, j)) for i in d for j in d)
    _expect_reduced(report, check_id, reduced, _absorption_cases(H, contract, from_left, etas, d))


def check_eta_lemma(H: QhsaStructure) -> CheckReport:
    """Absorption of Delta(a) by the alpha/beta contractions, for every basis
    word eta of H (x) H and every basis a: d^3 cases per identity, or d |G|
    once ``algebra`` and ``structure`` are in ``H.passed``
    (``_absorption_entry``).

    The reduction over eta needs the unit, an even unit and associativity
    of H (and of H (x) H, which follows with the grading), which ``algebra``
    establishes; a graded two-sided unit is even.  The contractions move
    nothing past anything, so no parity of alpha or beta enters it.
    """
    report = CheckReport()
    _absorption_entry(report, "eq.lem5i", H, m_alpha_s, True)
    _absorption_entry(report, "eq.lem5ii", H, m_beta_s, False)
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
# well posed: every premise, transitively, each after its own premises and
# each listed in ``SUITES`` before the suite.  The premises also license
# the reductions: outside the two validation suites, a check that
# quantifies over the generators (``GradedAlgebra.generators``) does so
# only when ``algebra`` and ``structure`` are in ``QhsaStructure.passed``
# (``_known``), which ``run_suites`` fills by running the premises first.
SUITES = {
    "algebra": (lambda H: validate_algebra(H.algebra), ()),
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

    Each suite runs at most once, after its premises in ``SUITES``, which
    list every premise transitively, each after its own premises; so one
    loop over a suite's premises and then the suite runs them in order.  A
    suite with a premise that did not pass is not run: it reports
    ``skipped: validation failed earlier``.  A failed suite is reported
    where it ran, whether it was selected or ran as a premise; any other
    selected suite is reported where it is first named.  So a run whose
    premises pass reports exactly the selected suites, each once.  The run
    keeps no reference to H once it returns.
    """
    runs = {}  # name -> (report, seconds, ran and passed)
    results = []
    for selected in names:
        for name in (*SUITES[selected][1], selected):
            if name in runs:
                continue
            fn, premises = SUITES[name]
            well_posed = all(runs[p][2] for p in premises)
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
        report, seconds, _ = runs[selected]
        if report.ok and selected not in (n for n, _, _ in results):
            results.append((selected, report, seconds))
    return results
