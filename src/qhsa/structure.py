"""Quasi-Hopf superalgebra structures and exact checkers for their axioms.

A structure bundles the algebra with the coproduct Delta, counit epsilon,
antipode S, coassociator Phi (arity 3), canonical elements alpha and beta
(arity 1) and an optional R-matrix (arity 2).  Identities quantified over all
of H are checked on basis elements; linearity makes that complete.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    AlgebraError,
    GradedAlgebra,
    SingularError,
    StructureMap,
    TensorElement,
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
    """Grading additivity, two-sided unit, associativity on all basis triples."""
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

    unit = TensorElement.unit(algebra, 1)
    basis = [TensorElement.basis(algebra, (i,)) for i in range(algebra.dimension)]

    def unit_cases():
        for i, e in enumerate(basis):
            yield i, unit * e, e
            yield i, e * unit, e

    def assoc_cases():
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                left = ei * ej
                for k, ek in enumerate(basis):
                    yield [i, j, k], left * ek, ei * (ej * ek)

    expect_equal_per_basis(report, "algebra.unit", unit_cases())
    expect_equal_per_basis(report, "algebra.assoc", assoc_cases())
    return report


def validate_structure(H: QhsaStructure) -> CheckReport:
    """Delta, epsilon graded homomorphisms; S a graded antihomomorphism;
    parity preservation; evenness and invertibility of Phi, alpha, beta, R."""
    report = CheckReport()
    alg = H.algebra

    expect_equal(report, "structure.delta-unit", H.coproduct(H.unit(1)), H.unit(2))
    expect_equal_per_basis(report, "structure.delta-hom", _hom_cases(H, H.delta))
    _witness_entry(report, "structure.delta-parity", H.delta.parity_violation())

    eps_unit = apply_map_legs(H.unit(1), 0, H.epsilon)
    expect_equal(
        report,
        "structure.epsilon-unit",
        eps_unit,
        TensorElement.from_scalar(alg, alg.field.one()),
    )
    expect_equal_per_basis(report, "structure.epsilon-hom", _hom_cases(H, H.epsilon))
    _witness_entry(report, "structure.epsilon-parity", H.epsilon.parity_violation())

    expect_equal(report, "structure.antipode-unit", H.s_of(H.unit(1)), H.unit(1))
    expect_equal_per_basis(report, "structure.antipode-antihom", _antihom_cases(H))
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


def _hom_cases(H, f):
    """f(e_i e_j) against f(e_i) f(e_j), labelled by the flat index i*d + j."""
    d = H.algebra.dimension
    for i in range(d):
        for j in range(d):
            lhs = apply_map_legs(H.basis(i) * H.basis(j), 0, f)
            yield i * d + j, lhs, f.images[i] * f.images[j]


def _antihom_cases(H):
    """S(e_i e_j) against (-1)^{[i][j]} S(e_j) S(e_i), labelled [i, j]."""
    par = H.algebra.parity
    s = H.antipode.images
    d = H.algebra.dimension
    for i in range(d):
        for j in range(d):
            rhs = s[j] * s[i]
            yield [i, j], H.s_of(H.basis(i) * H.basis(j)), -rhs if par[i] and par[j] else rhs


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


def _counit_legs_entry(report, check_id, H, x):
    """Both counit legs (eps (x) 1)x and (1 (x) eps)x of an arity-2 element
    equal to 1; a failure witnesses each leg."""
    left = apply_map_legs(x, 0, H.epsilon)
    right = apply_map_legs(x, 1, H.epsilon)
    if left == H.unit(1) and right == H.unit(1):
        report.add_pass(check_id)
    else:
        report.add_fail(
            check_id,
            {"eps-left": element_terms_json(left), "eps-right": element_terms_json(right)},
        )


# -- quasi-bialgebra axioms ----------------------------------------------------


def check_quasi_bialgebra(H: QhsaStructure) -> CheckReport:
    report = CheckReport()
    left3, right3 = H.delta_left3.images, H.delta_right3.images
    expect_equal_per_basis(
        report,
        "eq.fi",
        ((a, right3[a], H.phi_inv * left3[a] * H.phi) for a in range(H.algebra.dimension)),
    )

    phi0, phi1, phi2, phi_x1, one_x_phi = H.phi_factors
    expect_equal(report, "eq.fii", phi0 * phi2, phi_x1 * phi1 * one_x_phi)

    expect_equal_per_basis(
        report,
        "eq.fiii",
        (
            (a, apply_map_legs(da, leg, H.epsilon), H.basis(a))
            for a, da in enumerate(H.delta.images)
            for leg in (0, 1)
        ),
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
    report = CheckReport()
    alg = H.algebra
    eps = H.epsilon.images

    expect_equal_per_basis(
        report,
        "eq.5i1",
        (
            (a, m_alpha_s(H, da), H.alpha.scaled(eps[a].scalar_value()))
            for a, da in enumerate(H.delta.images)
        ),
    )
    expect_equal_per_basis(
        report,
        "eq.5i",
        (
            (a, m_beta_s(H, da), H.beta.scaled(eps[a].scalar_value()))
            for a, da in enumerate(H.delta.images)
        ),
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

    expect_equal_per_basis(
        report,
        "eq.eps-s",
        (
            (a, apply_map_legs(s, 0, H.epsilon), eps[a])
            for a, s in enumerate(H.antipode.images)
        ),
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
    report = CheckReport()
    if not _require_r(H, report, ["eq.6i", "eq.6ii", "eq.6iii", "eq.r-counit"]):
        return report
    R = H.r_matrix

    expect_equal_per_basis(
        report,
        "eq.6i",
        (
            (a, H.delta_t.images[a] * R, R * da)
            for a, da in enumerate(H.delta.images)
        ),
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
    the sign engine because every product mixes split and unsplit legs."""
    report = CheckReport()
    phi0, phi1, phi2, phi_x1, one_x_phi = H.phi_factors
    inv0, inv1, inv2, inv_x1, one_x_inv = H.phi_inv_factors
    expect_equal(report, "eq.6.1i", phi_x1, phi0 * phi2 * one_x_inv * inv1)
    expect_equal(report, "eq.6.1ii", one_x_phi, inv1 * inv_x1 * phi0 * phi2)
    expect_equal(report, "eq.6.1iii", inv_x1, phi1 * one_x_phi * inv2 * inv0)
    expect_equal(report, "eq.6.1iv", one_x_inv, inv2 * inv0 * phi_x1 * phi1)
    return report


def lemma11_sides(H: QhsaStructure, which: str, a: TensorElement):
    """Both sides of one of the four exchange identities, evaluated term by
    term exactly as printed, explicit sign factors included.  Each side is
    one linear_combination of its terms; s[i] is the stored image S(e_i),
    and the Sweedler legs of ``a`` come from the stored iterated coproduct."""
    alg = H.algebra
    par = alg.parity
    e = [H.basis(i) for i in range(alg.dimension)]
    s = H.antipode.images

    words = (H.phi if which in ("11i", "11ii") else H.phi_inv).terms
    iterated = H.delta_left3 if which in ("11i", "11iii") else H.delta_right3
    sweedler = apply_map_legs(a, 0, iterated)

    lhs = []  # (term, coefficient) pairs of each side
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


def check_lemma11(H: QhsaStructure) -> CheckReport:
    report = CheckReport()
    d = H.algebra.dimension
    for which in ("11i", "11ii", "11iii", "11iv"):
        expect_equal_per_basis(
            report,
            f"eq.{which}",
            ((a, *lemma11_sides(H, which, H.basis(a))) for a in range(d)),
        )
    return report


def _absorption_cases(H, contract, from_left):
    """contract(Delta(a) eta) against eps(a) contract(eta) (eta Delta(a) when
    absorbing from the right), labelled [a, i, j]; iterates i, then j, then a."""
    d = H.algebra.dimension
    for i in range(d):
        for j in range(d):
            eta = H.basis(i, j)
            base = contract(H, eta)
            for a, da in enumerate(H.delta.images):
                stacked = da * eta if from_left else eta * da
                rhs = base.scaled(H.epsilon.images[a].scalar_value())
                yield [a, i, j], contract(H, stacked), rhs


def check_eta_lemma(H: QhsaStructure) -> CheckReport:
    """Absorption of Delta(a) by the alpha/beta contractions, checked for
    every basis word eta of H (x) H and every basis a."""
    report = CheckReport()
    expect_equal_per_basis(report, "eq.lem5i", _absorption_cases(H, m_alpha_s, True))
    expect_equal_per_basis(report, "eq.lem5ii", _absorption_cases(H, m_beta_s, False))
    return report


# -- suite orchestration -----------------------------------------------------------

SUITES = (
    ("algebra", lambda H: validate_algebra(H.algebra)),
    ("structure", validate_structure),
    ("quasi-bialgebra", check_quasi_bialgebra),
    ("antipode", check_antipode_axioms),
    ("pentagon-consequences", check_pentagon_consequences),
    ("lemma11", check_lemma11),
    ("eta", check_eta_lemma),
    ("quasi-triangular", check_quasi_triangular),
    ("qqybe", check_qqybe),
)

OPTIONAL_SUITES = (("triangular", check_triangular),)

DEFAULT_SUITE_NAMES = tuple(name for name, _ in SUITES)

# Once one of these fails, the later identities are not well posed.
VALIDATION_SUITES = ("algebra", "structure")


def suite_function(name):
    for n, fn in SUITES + OPTIONAL_SUITES:
        if n == name:
            return fn
    raise AlgebraError(f"unknown suite {name!r}")


def run_suites(H: QhsaStructure, names=None):
    """Run the named suites in order; returns [(name, CheckReport, seconds)].

    Validation failures short-circuit: once the algebra or structure layer is
    broken the later suites are not well posed, so they are skipped.  That
    includes ``structure`` after a failed ``algebra``: inverses and
    homomorphisms mean nothing over an algebra whose unit is not a unit.
    """
    if names is None:
        names = DEFAULT_SUITE_NAMES
    results = []
    validation_broken = False
    for name in names:
        fn = suite_function(name)
        start = time.perf_counter()
        if validation_broken:
            report = CheckReport()
            report.add_skip(name, "validation failed earlier")
        else:
            report = fn(H)
        elapsed = time.perf_counter() - start
        results.append((name, report, elapsed))
        if name in VALIDATION_SUITES and not report.ok:
            validation_broken = True
    return results
