import itertools
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhsa import algebra
from qhsa.algebra import (
    AlgebraError,
    GradedAlgebra,
    SingularError,
    StructureMap,
    TensorElement,
    apply_map_legs,
    embed_legs,
    identity_map,
    interleave,
    invert_structure_map,
    invert_tensor_element,
    linear_combination,
    multiply_adjacent_legs,
    outer,
    permute_legs,
)
from qhsa.documents import document_to_twistor, load_structure, parse_twistor_document
from qhsa.drinfeld import compute_drinfeld_twist
from qhsa.fixtures import (
    ALL_TWISTOR_NAMES,
    NEGATIVE_FIXTURES,
    build_structure,
    build_twistor,
    ext_broken_grading,
    h2_structure,
)
from qhsa.reporting import element_terms_json
from qhsa.scalars import Cyclotomic, FieldSpec
from qhsa.structure import validate_algebra
from qhsa.transforms import (
    Twistor,
    opposite_structure,
    prime_structure,
    tensor_product_structure,
    twist_structure,
)

from conftest import elem, ks3_structure, kz2_structure, product


# -- validate_algebra ---------------------------------------------------------


def test_validate_trivial_algebra(trivial):
    assert validate_algebra(trivial.algebra).ok


def test_validate_exterior_algebra(ext):
    # eight triples for the 2-dimensional algebra, all associative
    report = validate_algebra(ext.algebra)
    assert report.passed_ids() == ["algebra.grading", "algebra.unit", "algebra.assoc"]


def test_corrupted_parity_fails_grading_with_witness():
    report = validate_algebra(ext_broken_grading())
    entry = report.entry("algebra.grading")
    assert entry.status == "fail"
    assert entry.witness == {"pair": [1, 1], "target": 1}


# -- tensor multiplication ------------------------------------------------------


def test_single_transposition_sign(ext):
    # (1 (x) theta)(theta (x) 1) = -(theta (x) theta)
    lhs = elem(ext, 2, {(0, 1): 1}) * elem(ext, 2, {(1, 0): 1})
    assert lhs == elem(ext, 2, {(1, 1): -1})


def test_unit_word_is_left_identity(ext, h2, h2ext):
    for H in (ext, h2, h2ext):
        x = H.phi
        assert H.unit(3) * x == x and x * H.unit(3) == x


def test_odd_squares_vanish(ext):
    theta2 = elem(ext, 2, {(1, 1): 1})
    assert (theta2 * theta2).is_zero()


def test_multiply_shape_errors(ext, h2):
    with pytest.raises(AlgebraError):
        ext.unit(2) * ext.unit(3)
    with pytest.raises(AlgebraError):
        ext.unit(2) * h2.unit(2)


def oracle_multiply(x, y):
    """Reference kernel, the product as first written: every pair of words
    expands alg.product leg by leg, whatever the table looks like."""
    alg = x.algebra
    par = alg.parity
    n = x.arity
    out = {}
    for wy, cy in y.terms.items():
        # prefix[j] = number of odd y-legs strictly left of j, mod 2
        prefix = []
        acc = 0
        for i in range(n):
            prefix.append(acc)
            acc ^= par[wy[i]]
        for wx, cx in x.terms.items():
            sign = 0
            for j in range(n):
                if par[wx[j]]:
                    sign ^= prefix[j]
            coeff = -cx * cy if sign else cx * cy
            partial = [((), coeff)]
            for i in range(n):
                row = product(alg, wx[i], wy[i])
                if not row:
                    partial = []
                    break
                partial = [
                    (w + (k,), c * ck) for (w, c) in partial for k, ck in row.items()
                ]
            for w, c in partial:
                out[w] = out[w] + c if w in out else c
    return TensorElement(alg, n, out)


def _rational_algebra(parity, unit, table):
    field = FieldSpec.rational()
    mult = {pair: {k: field.from_int(c) for k, c in row.items()} for pair, row in table.items()}
    unit = [field.from_fraction(Fraction(u)) for u in unit]
    return GradedAlgebra(len(parity), parity, unit, mult, field)


SMALL_ALGEBRAS = {
    # k[Z2] in the basis {1, g}
    "kz2": ((0, 0), (1, 0), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}),
    # k[Z2] in the basis {1, 2g}: (2g)(2g) = 4 * 1
    "kz2-2g": ((0, 0), (1, 0), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 4}}),
    # k[Z2] in the basis {g, 1 + g}: g g = (1 + g) - g, a row with two terms
    "kz2-g-1g": (
        (0, 0),
        (-1, 1),
        {(0, 0): {1: 1, 0: -1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 2}},
    ),
    # the Clifford superalgebra Cl_1: theta odd, theta theta = 2 * 1
    "cl1": ((0, 1), (1, 0), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 2}}),
    # Cl_1 with theta theta = -1: monomial, with a -1 entry
    "cl1-minus": (
        (0, 1),
        (1, 0),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}},
    ),
    # h2 in the basis {e0, 2 e1}: (2 e1)(2 e1) = 2 (2 e1), zero cross products
    "h2-2e1": ((0, 0), (1, Fraction(1, 2)), {(0, 0): {0: 1}, (1, 1): {1: 2}}),
}
# Product tables given as the algebra of a structure
STRUCTURE_ALGEBRAS = {
    "ext-ext": lambda: tensor_product_structure(_structure("ext"), _structure("ext")),
    # zero-heavy: 3/4 of the pairs of basis elements multiply to zero
    "h2-h2": lambda: tensor_product_structure(_structure("h2"), _hopf(_structure("h2"))),
    "h2ext-kz2": lambda: tensor_product_structure(_structure("h2ext"), kz2_structure()),
    # a group algebra: no zero product, so the joined route has nothing to skip
    "kz2-kz2": lambda: tensor_product_structure(kz2_structure(), kz2_structure()),
    # not commutative, and no zero product
    "ks3": ks3_structure,
}
MONOMIAL_ALGEBRAS = (
    "h2",
    "ext",
    "kz2",
    "h2ext",
    "ext-ext",
    "cl1-minus",
    "h2-h2",
    "h2ext-kz2",
    "ks3",
    "kz2-kz2",
)
# (1 (x) theta)(theta (x) 1) = -(theta (x) theta) puts a -1 into ext (x) ext
SIGNED_ALGEBRAS = ("ext-ext", "cl1-minus")
GENERAL_ALGEBRAS = ("kz2-2g", "kz2-g-1g", "cl1", "h2-2e1")
# every e_i e_j is nonzero
NO_ZERO_PRODUCT = ("kz2", "kz2-2g", "kz2-g-1g", "cl1", "cl1-minus", "ks3", "kz2-kz2")


def _hopf(H):
    """H with Phi, alpha and beta made trivial, so that it may be the second
    factor of a product structure; only its product table is used."""
    return replace(H, phi=H.unit(3), alpha=H.unit(1), beta=H.unit(1))


@cache
def kernel_algebra(name):
    if name in SMALL_ALGEBRAS:
        return _rational_algebra(*SMALL_ALGEBRAS[name])
    if name in STRUCTURE_ALGEBRAS:
        return STRUCTURE_ALGEBRAS[name]().algebra
    return _structure(name).algebra


def unit_oracle(alg, n) -> dict:
    """1^(tensor n) word by word: every word over the basis elements with a
    nonzero unit coefficient, with the product of its legs' coefficients."""
    support = [k for k, u in enumerate(alg.unit) if u != 0]
    terms = {}
    for word in itertools.product(support, repeat=n):
        c = alg.field.one()
        for k in word:
            c = c * alg.unit[k]
        terms[word] = c
    return terms


# a unit with three coefficients other than 1, and a zero one
SCALED_UNIT = _rational_algebra((0, 0, 0, 0), (2, Fraction(-1, 3), 0, 5), {})


@pytest.mark.parametrize("name", MONOMIAL_ALGEBRAS + GENERAL_ALGEBRAS + ("scaled-unit",))
def test_unit_powers_match_the_itertools_oracle(name):
    alg = SCALED_UNIT if name == "scaled-unit" else kernel_algebra(name)
    for n in range(5):
        unit = TensorElement.unit(alg, n)
        assert unit.arity == n and unit.terms == unit_oracle(alg, n)
        assert len(unit.terms) == len(alg.unit_support) ** n
        assert TensorElement.unit(alg, n) is unit  # built once per arity


@pytest.mark.parametrize("name", MONOMIAL_ALGEBRAS + GENERAL_ALGEBRAS)
def test_kernel_path_follows_the_table(name):
    alg = kernel_algebra(name)
    assert validate_algebra(alg).ok
    assert (alg.monomial_targets is not None) == (name in MONOMIAL_ALGEBRAS)
    assert (alg.monomial_signs is not None) == (name in SIGNED_ALGEBRAS)


def assert_tables_match_the_dense_oracle(alg):
    """Every table the kernel reads equals the one read off the d x d grid
    of products ``conftest.product``, in increasing j: the rows hold only
    the nonzero e_i e_j, and over a monomial table the targets and signs
    have the same keys."""
    d = range(alg.dimension)
    grid = [[product(alg, i, j) for j in d] for i in d]
    nonzero = [[(j, p) for j, p in enumerate(row) if p] for row in grid]
    assert [list(r.items()) for r in alg.product_rows] == [
        [(j, tuple(p.items())) for j, p in row] for row in nonzero
    ]
    assert alg.partners == tuple(tuple(j for j, _ in row) for row in nonzero)
    assert alg.partner_counts == tuple(map(len, nonzero))
    assert alg.has_zero_products == any(not p for row in grid for p in row)
    one = alg.field.one()
    products = [p for row in nonzero for _, p in row]
    if not all(len(p) == 1 and set(p.values()) <= {one, -one} for p in products):
        assert alg.monomial_targets is None and alg.monomial_signs is None
        return
    targets = [[(j, k) for j, p in row for k in p] for row in nonzero]
    signs = [[(j, int(c == -one)) for j, p in row for c in p.values()] for row in nonzero]
    assert [list(r.items()) for r in alg.monomial_targets] == targets
    if any(-one in p.values() for p in products):
        assert [list(r.items()) for r in alg.monomial_signs] == signs
    else:
        assert alg.monomial_signs is None


@pytest.mark.parametrize("name", MONOMIAL_ALGEBRAS + GENERAL_ALGEBRAS)
def test_partners_are_the_nonzero_products(name):
    # every sparse table of a kernel algebra against the dense oracle
    assert_tables_match_the_dense_oracle(kernel_algebra(name))


@st.composite
def random_tables(draw):
    """A table of dimension at most 12 with random nonzero pairs, entered in
    a random order, each product one basis element with coefficient 1 or -1
    when ``monomial`` is drawn, else up to three terms with any small
    coefficient; a zero coefficient, which the algebra drops, may appear."""
    d = draw(st.integers(1, 12))
    index = st.integers(0, d - 1)
    monomial = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(index, index), unique=True, max_size=d * d))
    coefficient = st.sampled_from([1, -1] if monomial else [1, -1, 2, -3, Fraction(1, 2), 0])
    size = st.integers(1, 1 if monomial else 3)
    mult = {
        pair: {k: draw(coefficient) for k in draw(st.lists(index, min_size=1, max_size=draw(size)))}
        for pair in pairs
    }
    field = FieldSpec.rational()
    parity = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    unit = [field.one()] + [field.zero()] * (d - 1)
    return GradedAlgebra(d, parity, unit, mult, field)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alg=random_tables())
def test_random_tables_match_the_dense_oracle(alg):
    assert_tables_match_the_dense_oracle(alg)


@st.composite
def kernel_operands(draw, alg):
    """Two elements of one arity with up to 40 terms each, so that products
    take both routes of tensor_multiply: up to JOIN_CUTOFF word pairs and
    beyond it."""
    n = draw(st.integers(1, 4))
    word = st.tuples(*[st.integers(0, alg.dimension - 1)] * n)
    field = alg.field
    operands = []
    for _ in range(2):
        size = draw(st.integers(0, 40))
        words = draw(st.lists(word, min_size=size, max_size=size))
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        terms = {w: field.from_int(c) for w, c in zip(words, coefficients)}
        operands.append(TensorElement(alg, n, terms))
    return tuple(operands)


@pytest.mark.parametrize("name", MONOMIAL_ALGEBRAS + GENERAL_ALGEBRAS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_reference_product(name, data):
    alg = kernel_algebra(name)
    x, y = data.draw(kernel_operands(alg))
    product = x * y
    assert product == oracle_multiply(x, y)
    assert all(c != 0 for c in product.terms.values())
    assert TensorElement(alg, x.arity, product.terms) == product


@pytest.mark.parametrize("name", MONOMIAL_ALGEBRAS + GENERAL_ALGEBRAS)
def test_joined_route_matches_the_reference_product(name):
    # seeded operands of up to 40 terms in arity 3 and 4, taken where their
    # product has more than JOIN_CUTOFF word pairs and so the joined route
    alg = kernel_algebra(name)
    rng = random.Random(name)
    for n in (3, 4):
        words = list(itertools.product(range(alg.dimension), repeat=n))
        size = min(40, len(words))
        if size * size <= algebra.JOIN_CUTOFF:
            continue  # arity 3 over a 2-dimensional algebra has 8 words
        for _ in range(3):
            x, y = (
                TensorElement(
                    alg, n, {w: alg.field.from_int(rng.choice((-2, -1, 1, 3))) for w in pair}
                )
                for pair in (rng.sample(words, size), rng.sample(words, size))
            )
            assert x * y == oracle_multiply(x, y)


def _partner_words(alg, wx):
    return set(itertools.product(*(alg.partners[i] for i in wx)))


def fresh_algebra(alg):
    """A copy of alg whose memos are empty: no word has been visited,
    probed or planned yet, whatever products other tests made over alg."""
    return GradedAlgebra(alg.dimension, alg.parity, alg.unit, alg.mult, alg.field)


def _expected_route(alg, wx, x, y):
    """The route tensor_multiply must take for the x word wx, read off the
    algebra's memos before the product."""
    if wx in alg.probe_plans:
        return "plan"
    if len(_partner_words(alg, wx)) <= min(len(y.terms), algebra.PROBE_CUTOFF):
        return "probe"
    if alg.has_zero_products and len(x.terms) * len(y.terms) > algebra.JOIN_CUTOFF:
        return "trie"
    return "every"


def _route_cases(alg):
    """Operand pairs of arity 4 with 9 x 9 word pairs, above JOIN_CUTOFF,
    and 2 x 2, below it, and one whose y has as many words as the first
    word's partner words, up to PROBE_CUTOFF, which is where the probe
    stops.  The first and last words have the most and the fewest partner
    words."""
    words = list(itertools.product(range(alg.dimension), repeat=4))
    one = alg.field.one()
    edge = min(len(_partner_words(alg, words[0])), algebra.PROBE_CUTOFF)
    for x_words, y_words in (
        (words[:5] + words[-4:], words[:9]),
        (words[:1] + words[-1:], words[:2]),
        (words[:1] + words[-1:], words[:edge]),
    ):
        yield tuple(TensorElement(alg, 4, dict.fromkeys(w, one)) for w in (x_words, y_words))


class _LoggedTerms(dict):
    """An operand's terms that log what the kernel reads of them into
    ``log``: each x word as the kernel reaches it, each y word it looks up
    (``in`` or ``get``), and a walk over all of y."""

    def __init__(self, terms, log):
        super().__init__(terms)
        self.log = log

    def items(self):
        for wx, cx in super().items():
            self.log.append(("x", wx))
            yield wx, cx

    def __contains__(self, wy):
        self.log.append(("look", wy))
        return super().__contains__(wy)

    def get(self, wy, default=None):
        self.log.append(("look", wy))
        return super().get(wy, default)

    def __iter__(self):
        self.log.append(("all", None))
        return super().__iter__()


def _routes_taken(monkeypatch, x, y):
    """The product x * y, {x word: the route tensor_multiply takes for it,
    the y words it looks up and the y words it meets} and the tries it
    builds.  Both operands log the kernel's reads (``_LoggedTerms``), and
    ``algebra._joined`` is wrapped to record each trie and the y words
    each x word meets in it.  A plan and a probe meet the partner words
    they look up that y holds; the full route walks all of y, and the
    trie meets the words it yields."""
    alg = x.algebra
    planned = set(alg.probe_plans)
    log, visited, tries = [], {}, []
    join = algebra._joined

    def recorded_join(words, partners):
        tries.append(words)
        visit = join(list(dict.keys(words)), partners)  # unlogged

        def recorded_visit(wx):
            visited[wx] = visit(wx)
            return visited[wx]

        return recorded_visit

    logged = [object.__new__(TensorElement) for _ in (x, y)]
    for el, source in zip(logged, (x, y)):
        el.algebra, el.arity, el.terms = alg, source.arity, _LoggedTerms(source.terms, log)
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_joined", recorded_join)
        product = logged[0] * logged[1]
    reads = {}
    for kind, word in log:
        if kind == "x":
            reads[word] = current = []
        else:
            current.append((kind, word))
    taken = {}
    for wx, events in reads.items():
        looked = {wy for kind, wy in events if kind == "look"}
        if ("all", None) in events:
            route, met = "every", set(y.terms)
        elif wx in visited:
            route, met = "trie", set(visited[wx])
        else:
            route, met = "plan" if wx in planned else "probe", looked & set(y.terms)
        taken[wx] = route, looked, met
    return product, taken, len(tries)


@pytest.mark.parametrize("name", MONOMIAL_ALGEBRAS + GENERAL_ALGEBRAS)
def test_joined_route_only_over_a_table_with_zero_products(monkeypatch, name):
    """Each x word takes the route its memos, partner words and the operand
    sizes pick, and each route meets exactly the y words it should: a plan,
    a probe and the trie their partner words that y holds, the full route
    every y word.  A plan and a probe look up each of their partner words,
    the trie and the full route only words they meet.  The cases run twice on a
    fresh algebra, so the second round reads the plans the first kept, and
    a probe keeps its plan when it is not the word's first.  The trie is
    built at most once per product, and only when a word takes it; over a
    table with no zero product no word does, while words with few partner
    words still probe and plan."""
    alg = fresh_algebra(kernel_algebra(name))
    assert alg.has_zero_products == (name not in NO_ZERO_PRODUCT)
    assert alg.partner_counts == tuple(map(len, alg.partners))
    routes = set()
    for x, y in [*_route_cases(alg), *_route_cases(alg)]:
        expected = {wx: _expected_route(alg, wx, x, y) for wx in x.terms}
        seen = set(alg.partner_word_counts)
        product, taken, tries = _routes_taken(monkeypatch, x, y)
        assert taken.keys() == x.terms.keys()
        for wx, (route, looked, met) in taken.items():
            partner_words = _partner_words(alg, wx)
            assert route == expected[wx]
            assert met == (set(y.terms) if route == "every" else set(y.terms) & partner_words)
            if route in ("plan", "probe"):
                assert looked == partner_words
            else:
                assert looked <= met
            if route == "probe":
                assert (wx in alg.probe_plans) == (wx in seen)
            routes.add(route)
        assert tries == ("trie" in {route for route, _, _ in taken.values()})
        assert product == oracle_multiply(x, y)
    assert alg.has_zero_products or "trie" not in routes


def test_each_route_is_taken(monkeypatch):
    """Over two rounds of the route cases on a fresh algebra, h2 only
    probes and plans (each leg has one partner), ext takes all four routes,
    and k[Z2] (no zero product) visits every y word, except where y holds
    all 16 partner words of an arity-4 word: there it probes and plans."""
    seen = {}
    for name in ("h2", "ext", "kz2"):
        alg = fresh_algebra(kernel_algebra(name))
        seen[name] = {
            route
            for x, y in [*_route_cases(alg), *_route_cases(alg)]
            for route, _, _ in _routes_taken(monkeypatch, x, y)[1].values()
        }
    assert seen == {
        "h2": {"probe", "plan"},
        "ext": {"probe", "plan", "trie", "every"},
        "kz2": {"probe", "plan", "every"},
    }


def assert_plans_follow_their_lifecycle(x, y):
    """x * y twice over an algebra with empty memos: the first product
    keeps no plan, the second plans exactly the x words with at most
    min(|y|, PROBE_CUTOFF) partner words, both equal the reference, and
    each plan lists every partner word of its word, in itertools.product
    order, with the signed product of the two basis words."""
    alg = x.algebra
    assert not alg.probe_plans and not alg.partner_word_counts
    first = x * y
    assert alg.probe_plans == {}
    second = x * y
    probe = min(len(y.terms), algebra.PROBE_CUTOFF)
    assert set(alg.probe_plans) == {w for w in x.terms if len(_partner_words(alg, w)) <= probe}
    assert first == second == oracle_multiply(x, y)
    one = alg.field.one()
    for wx, plan in alg.probe_plans.items():
        assert [wy for wy, _ in plan] == list(itertools.product(*(alg.partners[i] for i in wx)))
        for wy, product in plan:
            if alg.monomial_rows is not None:
                w, negate = product
                product = ((w, -one if negate else one),)
            basis = (TensorElement.basis(alg, w) for w in (wx, wy))
            assert TensorElement(alg, len(wx), dict(product)) == oracle_multiply(*basis)


@pytest.mark.parametrize("name", MONOMIAL_ALGEBRAS + GENERAL_ALGEBRAS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_plans_follow_their_lifecycle(name, data):
    alg = fresh_algebra(kernel_algebra(name))
    assert_plans_follow_their_lifecycle(*data.draw(kernel_operands(alg)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_plans_follow_their_lifecycle_on_random_tables(data):
    # odd parities, -1 entries and rows of several terms
    alg = data.draw(random_tables())
    assert_plans_follow_their_lifecycle(*data.draw(kernel_operands(alg)))


def test_a_unit_times_a_one_term_coassociator_plans_nothing():
    """The arity-3 unit of a diagonal algebra (e_i e_i = e_i, unit the sum
    of the e_i) times a one-term Phi: each of the d^3 unit words has one
    partner word and probes once, so no plan is kept."""
    d = 20
    alg = _rational_algebra((0,) * d, (1,) * d, {(i, i): {i: 1} for i in range(d)})
    phi = TensorElement(alg, 3, {(0, 0, 0): alg.field.one()})
    assert TensorElement.unit(alg, 3) * phi == phi
    assert len(alg.partner_word_counts) == d**3 and alg.probe_plans == {}


@st.composite
def chained_operands(draw, alg):
    """Three elements a, b, c of one arity from 0 to 4, for the products
    a * b, b * c and c * a: the words of each are y words in one product and
    x words in the next.  b is drawn around the partner-word count of a word
    of a, so that |y| falls on both sides of it, and holds that word's
    partner words first, so that probes hit."""
    n = draw(st.integers(0, 4))
    word = st.tuples(*[st.integers(0, alg.dimension - 1)] * n)
    coefficient = st.integers(-3, 3).filter(bool).map(alg.field.from_int)
    pool = draw(st.lists(word, min_size=1, max_size=24, unique=True))
    anchor = pool[0]
    partners = sorted(itertools.product(*(alg.partners[i] for i in anchor)))
    size = max(0, min(len(partners), 40) + draw(st.integers(-2, 2)))
    b_words = list(dict.fromkeys(partners[:size] + pool))[:size]

    def element(words):
        return TensorElement(alg, n, {w: draw(coefficient) for w in words})

    a = element(draw(st.lists(st.sampled_from(pool), max_size=12, unique=True)) + [anchor])
    c = element(draw(st.lists(st.sampled_from(pool + b_words), max_size=24, unique=True)))
    return a, element(b_words), c


@pytest.mark.parametrize("name", MONOMIAL_ALGEBRAS + GENERAL_ALGEBRAS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_chained_products_match_the_reference(name, data):
    # the kernel's memos of masks, rows and plans live on the algebra, which
    # every example shares, so a wrong entry from one product shows in a
    # later one
    alg = kernel_algebra(name)
    a, b, c = data.draw(chained_operands(alg))
    assert a * b == oracle_multiply(a, b)
    assert b * c == oracle_multiply(b, c)
    assert c * a == oracle_multiply(c, a)


def test_cancelled_words_leave_the_product(ext):
    # (1 (x) theta)(theta (x) 1) = -(theta (x) theta) cancels (theta (x) 1)(1 (x) theta)
    x = elem(ext, 2, {(0, 1): 1, (1, 0): 1})
    assert (x * x).terms == {}


def test_linear_combination_sums_in_one_dict(h2ext):
    x = elem(h2ext, 2, {(0, 1): 1, (1, 3): 2})
    y = elem(h2ext, 2, {(0, 1): 3, (2, 2): -1})
    total = linear_combination(h2ext.algebra, 2, [(x, 2), (y, -1), (x, -2)])
    assert total == -y and total == x.scaled(2) - y - x.scaled(2)
    assert linear_combination(h2ext.algebra, 2, [(x, 1), (x, -1)]).terms == {}
    assert linear_combination(h2ext.algebra, 3, []) == TensorElement.zero(h2ext.algebra, 3)


# -- leg permutation ---------------------------------------------------------------


def test_twist_map_on_two_odd_legs(ext):
    theta2 = elem(ext, 2, {(1, 1): 1})
    assert permute_legs(theta2, (1, 0)) == elem(ext, 2, {(1, 1): -1})


def test_identity_permutation(h2ext):
    x = h2ext.phi
    assert permute_legs(x, (0, 1, 2)) == x


def test_h2_coassociator_is_permutation_symmetric(h2):
    assert permute_legs(h2.phi, (2, 1, 0)) == h2.phi


def test_twist_map_squares_to_identity(h2ext):
    for word in [(1, 3), (3, 3), (0, 1), (2, 3)]:
        x = elem(h2ext, 2, {word: 1})
        assert permute_legs(permute_legs(x, (1, 0)), (1, 0)) == x


def _oracle_permute(x, word):
    """Independent oracle: realize the permutation as adjacent transpositions,
    each applying the twist map with its Koszul sign."""
    current = list(range(x.arity))
    out = x
    par = x.algebra.parity
    for target_pos in range(x.arity):
        src = current.index(word[target_pos])
        while src > target_pos:
            # swap positions (src-1, src)
            terms = {}
            for w, c in out.terms.items():
                sign = -1 if par[w[src - 1]] and par[w[src]] else 1
                new_w = w[: src - 1] + (w[src], w[src - 1]) + w[src + 1 :]
                terms[new_w] = terms.get(new_w, 0) + sign * c
            out = TensorElement(out.algebra, out.arity, terms)
            current[src - 1], current[src] = current[src], current[src - 1]
            src -= 1
    return out


@settings(max_examples=50, deadline=None)
@given(
    st.permutations(range(4)),
    st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * 4), st.integers(-3, 3)),
        min_size=1,
        max_size=4,
    ),
)
def test_permutation_matches_adjacent_transposition_oracle(h2ext, word, raw_terms):
    terms = {}
    for w, c in raw_terms:
        terms[w] = terms.get(w, 0) + c
    x = elem(h2ext, 4, terms)
    assert permute_legs(x, tuple(word)) == _oracle_permute(x, tuple(word))


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(3)), st.permutations(range(3)))
def test_permutation_composition(h2ext, sigma, tau):
    x = h2ext.phi + elem(h2ext, 3, {(1, 3, 2): 1, (3, 3, 1): -2})
    once = permute_legs(permute_legs(x, tuple(tau)), tuple(sigma))
    # position i of the composite holds tau[sigma[i]]
    composite = tuple(tau[sigma[i]] for i in range(3))
    assert once == permute_legs(x, composite)


def test_invalid_permutation_rejected(ext):
    with pytest.raises(AlgebraError):
        permute_legs(ext.unit(2), (0, 0))


# -- leg embedding -----------------------------------------------------------------


def test_embed_r_matrix_at_outer_legs(ext):
    # R embedded at legs (0, 2) of arity 3 puts the unit in the middle
    embedded = embed_legs(ext.r_matrix, (0, 2), 3)
    assert embedded == elem(ext, 3, {(0, 0, 0): 1, (1, 0, 1): 1})


def test_embed_scalar_gives_scaled_unit(h2):
    two = TensorElement.from_scalar(h2.algebra, Fraction(2))
    assert embed_legs(two, (), 2) == h2.unit(2).scaled(Fraction(2))


def test_embed_positions_validated(ext):
    with pytest.raises(AlgebraError):
        embed_legs(ext.r_matrix, (2, 0), 3)
    with pytest.raises(AlgebraError):
        embed_legs(ext.r_matrix, (0, 3), 3)


def test_subscript_convention_matches_transposition_composition(h2ext):
    # placing legs at (1, 2, 5) of six equals moving the last leg outward
    # through two unit legs with the twist map: units are even, no sign.
    phi_inv = h2ext.phi_inv
    direct = embed_legs(phi_inv, (1, 2, 5), 6)
    stepwise = embed_legs(phi_inv, (1, 2, 3), 6)
    for src in (3, 4):
        word = list(range(6))
        word[src], word[src + 1] = word[src + 1], word[src]
        stepwise = permute_legs(stepwise, tuple(word))
    assert direct == stepwise


# -- applying structure maps ----------------------------------------------------------


def test_coproduct_on_first_leg(ext):
    x = elem(ext, 2, {(1, 0): 1})  # theta (x) 1
    out = apply_map_legs(x, 0, ext.delta)
    assert out == elem(ext, 3, {(1, 0, 0): 1, (0, 1, 0): 1})


def test_counit_contraction_on_twistor(ext):
    f = elem(ext, 2, {(0, 0): 1, (1, 1): 1})  # 1 (x) 1 + theta (x) theta
    assert apply_map_legs(f, 0, ext.epsilon) == ext.unit(1)
    assert apply_map_legs(f, 1, ext.epsilon) == ext.unit(1)


def test_antipode_on_one_leg(ext):
    theta2 = elem(ext, 2, {(1, 1): 1})
    assert apply_map_legs(theta2, 0, ext.antipode) == elem(ext, 2, {(1, 1): -1})
    assert apply_map_legs(theta2, 1, ext.antipode) == elem(ext, 2, {(1, 1): -1})


def test_map_applications_commute_on_disjoint_legs(h2ext):
    x = h2ext.phi + elem(h2ext, 3, {(3, 1, 2): 2})
    # Delta at leg 2 then antipode at leg 0, and in the other order
    a = apply_map_legs(apply_map_legs(x, 2, h2ext.delta), 0, h2ext.antipode)
    b = apply_map_legs(apply_map_legs(x, 0, h2ext.antipode), 2, h2ext.delta)
    assert a == b


def test_leg_out_of_range(ext):
    with pytest.raises(AlgebraError):
        apply_map_legs(ext.unit(2), 2, ext.delta)


def test_multiply_adjacent_legs(ext):
    x = elem(ext, 2, {(1, 0): 2, (0, 1): 3})
    assert multiply_adjacent_legs(x, 0) == elem(ext, 1, {(1,): 5})


@pytest.mark.parametrize("arity, leg", [(2, 1), (3, 2), (2, -1)])
def test_multiply_adjacent_legs_names_the_legs_out_of_range(ext, arity, leg):
    with pytest.raises(AlgebraError, match=rf"^cannot contract legs \({leg}, {leg + 1}\)$"):
        multiply_adjacent_legs(ext.unit(arity), leg)


# -- inversion ---------------------------------------------------------------------


def test_invert_unipotent(ext):
    f = ext.unit(2) + elem(ext, 2, {(1, 1): 1})
    assert invert_tensor_element(f) == ext.unit(2) - elem(ext, 2, {(1, 1): 1})


def test_invert_unit(h2ext):
    assert invert_tensor_element(h2ext.unit(3)) == h2ext.unit(3)


def test_h2_coassociator_is_an_involution(h2):
    assert invert_tensor_element(h2.phi) == h2.phi


def test_invert_singular(ext):
    with pytest.raises(SingularError):
        invert_tensor_element(elem(ext, 2, {(1, 1): 1}))


@settings(max_examples=25, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_inverse_is_two_sided(h2, a, b, c):
    terms = {(0, 0): 1 + 0 * a, (0, 1): a, (1, 0): b, (1, 1): c}
    x = h2.unit(2) + elem(h2, 2, terms)
    try:
        inv = invert_tensor_element(x)
    except SingularError:
        return
    assert x * inv == h2.unit(2)
    assert inv * x == h2.unit(2)


def gauss_jordan(matrix, rhs_columns, field):
    """Oracle: solve matrix * X = B by dense Gauss-Jordan over the exact
    field.  matrix is a list of row lists and rhs_columns lists the columns
    of B.  Returns X as a list of rows, or raises SingularError.  Pivoting
    takes the first nonzero entry; there is no rounding to worry about."""
    n = len(matrix)
    rows = [list(row) + [col[i] for col in rhs_columns] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            raise SingularError("singular linear system")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        inv = field.invert(rows[col][col])
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def dense_inverse(x):
    """Oracle: the d^n x d^n system Y x = 1 solved by Gauss-Jordan.  Raises
    SingularError when the system is singular."""
    alg, n = x.algebra, x.arity
    words = list(itertools.product(range(alg.dimension), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    zero = alg.field.zero()
    matrix = [[zero] * len(words) for _ in words]
    for col, v in enumerate(words):
        for w, c in (TensorElement.basis(alg, v) * x).terms.items():
            matrix[index[w]][col] = c
    unit = TensorElement.unit(alg, n)
    rhs = [unit.terms.get(w, zero) for w in words]
    solution = gauss_jordan(matrix, [rhs], alg.field)
    return TensorElement(alg, n, {w: row[0] for w, row in zip(words, solution)})


# (structure, arity, basis index of a zero divisor in its algebra)
INVERSION_CASES = [
    ("ext", 2, 1),  # theta
    ("ext", 3, 1),
    ("h2ext", 2, 0),  # e0 (x) 1
    ("h2ext", 3, 0),
    ("h2r", 2, 0),  # e0, over Q(zeta_4)
]

_structure = cache(build_structure)


@st.composite
def inversion_inputs(draw, name, arity, zero_divisor):
    """A random element of H^(tensor arity): c*1 + N, 1 + N with N in the
    nilpotent ideal spanned by words with an odd leg (unipotent), or z * y
    with z a zero divisor on the first leg (singular)."""
    H = _structure(name)
    alg = H.algebra
    field = alg.field
    zeta = Cyclotomic.zeta(field.order) if field.kind == "cyclotomic" else None

    def scalar():
        value = field.from_int(draw(st.integers(-2, 2)))
        if zeta is None:
            return value
        return value + field.from_int(draw(st.integers(-2, 2))) * zeta

    kind = draw(st.sampled_from(["random", "unipotent", "zero divisor"]))
    words = list(itertools.product(range(alg.dimension), repeat=arity))
    if kind == "unipotent":
        words = [w for w in words if any(alg.parity[i] for i in w)]
    chosen = draw(st.lists(st.sampled_from(words), max_size=4, unique=True)) if words else []
    x = TensorElement(alg, arity, {w: scalar() for w in chosen})
    if kind == "random":
        return x + H.unit(arity).scaled(scalar())
    if kind == "unipotent":
        return x + H.unit(arity)
    z = embed_legs(TensorElement.basis(alg, (zero_divisor,)), (0,), arity)
    return z * (x + H.unit(arity).scaled(scalar()))


@pytest.mark.parametrize("name, arity, zero_divisor", INVERSION_CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_inverse_matches_the_dense_system(name, arity, zero_divisor, data):
    x = data.draw(inversion_inputs(name, arity, zero_divisor))
    try:
        expected = dense_inverse(x)
    except SingularError:
        with pytest.raises(SingularError, match="element has no left inverse"):
            invert_tensor_element(x)
        return
    assert invert_tensor_element(x) == expected


def test_inversion_builds_no_dense_system(monkeypatch, h2ext, kz2):
    dim8 = tensor_product_structure(h2ext, kz2)
    dim16 = tensor_product_structure(dim8, kz2)

    def no_dense_system(*args):
        raise AssertionError("solve_linear_system called")

    multiply = algebra.tensor_multiply
    calls = []

    def counted(x, y):
        calls.append(1)
        return multiply(x, y)

    monkeypatch.setattr(algebra, "solve_linear_system", no_dense_system)
    monkeypatch.setattr(algebra, "tensor_multiply", counted)
    for H in (dim8, dim16):
        calls.clear()
        phi_inv = invert_tensor_element(H.phi)
        # P_1 = 1 * phi, P_2 = P_1 * phi (phi is an involution), then phi * inverse;
        # the dense system took d^n = 512 products at dimension 8
        assert len(calls) == 3
        assert multiply(H.phi, phi_inv) == H.unit(3)


def test_invert_structure_map(ext):
    s_inv = invert_structure_map(ext.antipode)
    assert s_inv == ext.antipode  # S has order two here
    ident = identity_map(ext.algebra)
    assert invert_structure_map(ident) == ident
    with pytest.raises(AlgebraError):
        invert_structure_map(ext.epsilon)


def test_invert_singular_map(ext):
    crush = StructureMap(
        ext.algebra, 1, [ext.unit(1), TensorElement.zero(ext.algebra, 1)]
    )
    with pytest.raises(SingularError):
        invert_structure_map(crush)


@st.composite
def structure_maps(draw):
    """A random d x d map, d = 1..6, over Q or Q(zeta_8), and its dense
    matrix.  Entries are small, a + b zeta, and a third of the maps have one
    column set to a combination of the others, so singular maps are drawn
    often."""
    field = draw(st.sampled_from([FieldSpec.rational(), FieldSpec.cyclotomic(8)]))
    zeta = Cyclotomic.zeta(8) if field.kind == "cyclotomic" else 0
    d = draw(st.integers(1, 6))
    small = st.integers(-2, 2)
    entry = st.builds(lambda a, b: a + b * zeta, small, small)
    columns = [[draw(entry) for _ in range(d)] for _ in range(d)]
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, d - 1))
        weights = [draw(entry) if i != k else 0 for i in range(d)]
        columns[k] = [sum(w * col[j] for w, col in zip(weights, columns)) for j in range(d)]
    alg = GradedAlgebra(d, (0,) * d, (1,) + (0,) * (d - 1), {}, field)
    images = [TensorElement(alg, 1, {(j,): c for j, c in enumerate(col)}) for col in columns]
    matrix = [[col[j] for col in columns] for j in range(d)]
    return StructureMap(alg, 1, images), matrix


def compose(f, g):
    """f . g for maps H -> H."""
    return StructureMap(f.algebra, 1, [apply_map_legs(img, 0, f) for img in g.images])


@settings(max_examples=150, deadline=None)
@given(structure_maps())
def test_structure_map_inverse_matches_gauss_jordan(case):
    f, matrix = case
    alg, field = f.algebra, f.algebra.field
    d = alg.dimension
    identity = [[field.one() if i == j else field.zero() for i in range(d)] for j in range(d)]
    try:
        expected = gauss_jordan(matrix, identity, field)
    except SingularError:
        with pytest.raises(SingularError, match="structure map is singular"):
            invert_structure_map(f)
        return
    inverse = invert_structure_map(f)
    assert inverse.images == tuple(
        TensorElement(alg, 1, {(j,): expected[j][i] for j in range(d)}) for i in range(d)
    )
    assert compose(f, inverse) == identity_map(alg) == compose(inverse, f)


# -- grading ------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_homogeneous_product_parity_is_additive(h2ext, wa, wb):
    x = elem(h2ext, 2, {wa: 1})
    y = elem(h2ext, 2, {wb: 1})
    prod = x * y
    if prod.is_zero():
        return
    assert prod.homogeneous_parity() == (
        x.homogeneous_parity() + y.homogeneous_parity()
    ) % 2


@pytest.mark.parametrize("arity", range(4))
def test_the_zero_element_is_even(h2ext, arity):
    zero = TensorElement.zero(h2ext.algebra, arity)
    assert zero.homogeneous_parity() == 0
    assert zero.is_even()


small_words3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
small_elements3 = st.dictionaries(small_words3, st.integers(-2, 2), max_size=3)


@settings(max_examples=40, deadline=None)
@given(small_elements3, small_elements3, small_elements3)
def test_tensor_multiplication_is_associative(h2ext, ta, tb, tc):
    x, y, z = (elem(h2ext, 3, t) for t in (ta, tb, tc))
    assert (x * y) * z == x * (y * z)


ext_elements3 = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    st.integers(-2, 2),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(ext_elements3, ext_elements3)
def test_interleave_sign_matches_tensor_multiply(ext, tx, ty):
    # (x (x) 1)(1 (x) y) = x (x) y legwise in (ext (x) ext)^(tensor 3); the
    # product table adds no sign there, so tensor_multiply alone supplies it
    product = tensor_product_structure(ext, ext).algebra
    x, y, one = elem(ext, 3, tx), elem(ext, 3, ty), ext.unit(3)
    assert interleave(x, one, product) * interleave(one, y, product) == interleave(x, y, product)


def test_interleave_sign_is_the_koszul_sum():
    # sum over i < j of |y_i||x_j|, for every pair of words up to length 4
    x_parity, y_parity = (0, 1, 1), (1, 0)
    for n in range(5):
        for wx in itertools.product(range(3), repeat=n):
            for wy in itertools.product(range(2), repeat=n):
                total = sum(
                    y_parity[wy[i]] * x_parity[wx[j]] for j in range(n) for i in range(j)
                )
                assert algebra.interleave_sign(wx, wy, x_parity, y_parity) == total % 2


def test_outer_is_plain_placement(ext):
    theta = elem(ext, 1, {(1,): 1})
    assert outer(theta, theta) == elem(ext, 2, {(1, 1): 1})
    # multiplying embedded factors in the other order picks up the sign
    right = embed_legs(theta, (1,), 2)
    left = embed_legs(theta, (0,), 2)
    assert right * left == elem(ext, 2, {(1, 1): -1})


# -- the canonical rational form ------------------------------------------------------

FIXTURE_DIR = Path(algebra.__file__).parent / "fixtures"


def _assert_canonical(x):
    # over either field a rational is an int (never a bool or float) when
    # integral, else a Fraction; any other value is a Cyclotomic with a
    # nonzero zeta part
    for w, c in x.terms.items():
        if type(c) is Cyclotomic:
            assert x.algebra.field.kind == "cyclotomic" and any(c.num[1:]), (w, c)
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (w, c)


def _elements(H):
    maps = (H.delta, H.epsilon, H.antipode)
    elements = [img for f in maps for img in f.images]
    elements += [H.phi, H.alpha, H.beta, H.phi_inv]
    return elements + ([H.r_matrix, H.r_inv] if H.has_r else [])


@pytest.mark.parametrize("name", sorted(path.stem for path in FIXTURE_DIR.glob("*.qhsa")))
def test_coefficients_are_canonical(name, ext):
    _, H = load_structure((FIXTURE_DIR / f"{name}.qhsa").read_text())
    structures = [H, opposite_structure(H), prime_structure(H)]
    if H.algebra.field == ext.algebra.field:
        structures.append(tensor_product_structure(H, ext))
    for twistor in ALL_TWISTOR_NAMES:
        if build_twistor(twistor)[0] == name:
            doc = parse_twistor_document((FIXTURE_DIR / f"{twistor}.twist").read_text())
            structures.append(twist_structure(H, document_to_twistor(doc, H)))
    for T in structures:
        for x in _elements(T):
            _assert_canonical(x)
    if name in NEGATIVE_FIXTURES:
        return  # the Drinfeld construction refuses a broken structure
    D = compute_drinfeld_twist(H)
    for x in (D.f_d, D.f_d_inverse, D.gamma, D.gamma_bar):
        _assert_canonical(x)


def test_constructors_store_integral_fractions_as_ints(h2ext):
    terms = {(0,): Fraction(4, 2), (1,): Fraction(1, 2), (2,): Fraction(0)}
    alg = h2ext.algebra
    for x in (TensorElement(alg, 1, terms), TensorElement._from_terms(alg, 1, terms)):
        assert x.terms == {(0,): 2, (1,): Fraction(1, 2)}
        assert type(x.terms[(0,)]) is int and type(x.scaled(2).terms[(1,)]) is int


def test_the_dimension_8_rung_stays_on_ints(h2ext, kz2):
    H = tensor_product_structure(h2ext, kz2)
    cached = [H.phi_inv, *H.phi_factors, H.pentagon_lhs, H.pentagon_head]
    for x in cached:
        assert x.terms and all(type(c) is int for c in x.terms.values())


def test_rational_coefficients_over_cyclotomic_fields_stay_on_ints():
    # h2r over Q(zeta_4), and h2 with R over Q(zeta_8) twisted by
    # 1(x)1 + c e1(x)e1, c = zeta + zeta^2 - 1: only the words whose
    # coefficient has a zeta part hold a Cyclotomic
    h2 = h2_structure(FieldSpec.cyclotomic(8), with_r=True)
    z = Cyclotomic.zeta(8)
    twistor = Twistor(h2.unit(2) + TensorElement(h2.algebra, 2, {(1, 1): z + z * z - 1}))
    twisted = twist_structure(h2, twistor)
    for H, f_d_zeta_words in ((build_structure("h2r"), set()), (twisted, {(1, 1)})):
        cases = [(x, set()) for x in (*H.delta.images, H.phi_inv)]
        cases += [(H.r_inv, {(1, 1)}), (compute_drinfeld_twist(H).f_d, f_d_zeta_words)]
        for x, zeta_words in cases:
            _assert_canonical(x)
            assert x.terms
            assert {w for w, c in x.terms.items() if type(c) is not int} == zeta_words


def _stored_as_fractions(x):
    """x with every coefficient a Fraction, integral ones included: set
    past both constructors, which would turn the integral ones into ints."""
    y = object.__new__(TensorElement)
    y.algebra, y.arity = x.algebra, x.arity
    y.terms = {w: Fraction(c) for w, c in x.terms.items()}
    return y


@st.composite
def h2ext_operands(draw):
    H = _structure("h2ext")
    n = draw(st.integers(1, 3))
    word = st.tuples(*[st.integers(0, 3)] * n)
    scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    x, y = (
        TensorElement(H.algebra, n, draw(st.dictionaries(word, scalar, max_size=5)))
        for _ in range(2)
    )
    return x + H.unit(n).scaled(draw(scalar)), y


@settings(max_examples=40, deadline=None)
@given(h2ext_operands())
def test_the_stored_form_is_never_observable(operands):
    x, y = operands
    xf, yf = _stored_as_fractions(x), _stored_as_fractions(y)
    pairs = [(x * y, xf * yf), (x * y, x * yf), (x + y, xf + yf), (x - y, xf - y)]
    try:
        pairs.append((invert_tensor_element(x), invert_tensor_element(xf)))
    except SingularError:
        with pytest.raises(SingularError):
            invert_tensor_element(xf)
    for canonical, stored in pairs:
        _assert_canonical(canonical)
        _assert_canonical(stored)
        assert canonical.terms == stored.terms
        assert element_terms_json(canonical) == element_terms_json(stored)
