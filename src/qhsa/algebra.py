"""Finite-dimensional Z2-graded algebras and sparse elements of H^(tensor n).

Sign conventions, fixed once here and relied on everywhere else:

- multiplying basis words x = x_1 (x) ... (x) x_n and y = y_1 (x) ... (x) y_n
  costs the Koszul sign (-1)^E with E = sum over i < j of parity(y_i)*parity(x_j),
  the unique bilinear extension of (a(x)b)(c(x)d) = (-1)^{[b][c]} ac (x) bd;
- ``interleave(x, y, algebra)`` moves x over A and y over B to the element
  (x_1 (x) y_1) ... (x_n (x) y_n) over A (x) B with that same exponent; the
  graded tensor product of structures takes all its signs from it;
- ``permute_legs(x, word)`` places original leg word[i] at position i, realized
  by adjacent transpositions each costing (-1)^{[a][b]}; the transposition
  (1, 0) is the twist map T;
- structure maps (coproduct, counit, antipode and friends) are even operators,
  so applying one to a leg never creates a sign.

Everything is exact: scalars are rationals or cyclotomic field elements, and
all comparisons are equalities of canonical forms.  An element holds a
rational coefficient as an ``int`` when it is integral, else as a
``Fraction``, over Q and over Q(zeta_n) alike, and a ``Cyclotomic`` only when
its zeta part is nonzero: both constructors put every coefficient in that
form (``scalars.canonical``) as they drop the zeros, so products of the
common integral coefficients, the +-1 of a group-like table above all, stay
on ``int`` arithmetic.  Scalar arithmetic between two ``Cyclotomic`` values
still returns a ``Cyclotomic``; only the constructors demote.

Every engine result goes through ``TensorElement._from_terms``, which owns
the dict it is given: it puts that dict in canonical form and drops its
zeros in place, and the dict becomes the element's ``terms``.  So each
operation builds its result in one dict, which it hands over and does not
touch again, and never hands over another element's ``terms``.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, partial
from math import prod
from operator import getitem, itemgetter

from .scalars import FieldSpec, canonical


class AlgebraError(ValueError):
    """Structural misuse: mismatched algebras, arities, fields, bad indices."""


class SingularError(AlgebraError):
    """An element or map that was required to be invertible is not."""


class GradedAlgebra:
    """Associative superalgebra given by a basis, parity vector, unit vector
    and sparse multiplication table (i, j) -> {k: coefficient}.

    Only nonzero products are stored, so building costs O(d + their number).
    ``product_rows[i]`` maps each j with e_i e_j != 0, in increasing j, to
    e_i e_j as a tuple of (k, coefficient) pairs; a missing j is a zero
    product.  When every nonzero product is one basis element with
    coefficient 1 or -1, the table is monomial: ``monomial_targets[i]`` maps
    the same j to that k, and tensor_multiply builds words by lookup.
    ``monomial_signs[i]`` maps them to 1 where the coefficient is -1, and is
    None when no coefficient is; graded products of odd-carrying algebras
    have such signs.  Both are None for any other table.  ``partners[i]``
    holds the keys of ``product_rows[i]`` and ``partner_counts[i]`` their
    number: the partner words of a word w, the only words it has a nonzero
    product with, are the product of the tuples ``partners[i]`` over its
    legs i.  ``has_odd`` is True when some basis
    element is odd; without one no product has a Koszul sign and no parity
    mask is built.  ``unit_support`` holds the (k, u_k) with u_k != 0, in
    increasing k: the one scan of ``unit`` for its support, read by
    ``basis_generators`` and ``validate_algebra``, and in canonical form the
    terms of 1^(tensor 1).

    Dicts on the algebra memoize what tensor_multiply reads per word, and
    are dropped with it: ``odd_legs`` and ``odd_prefix``, its parity masks,
    filled on the first lookup of a word; ``partner_word_counts``, the
    number of its partner words, filled on its first visit as an x word;
    and ``probe_plans``, its product with each of its partner words
    (``_plan``), filled on its second probe.  ``unit_powers`` holds the
    terms of 1^(tensor n).
    """

    def __init__(self, dimension, parity, unit, mult, field: FieldSpec):
        if dimension < 1:
            raise AlgebraError("dimension must be >= 1")
        parity = tuple(int(p) for p in parity)
        if len(parity) != dimension or any(p not in (0, 1) for p in parity):
            raise AlgebraError("parity must be a 0/1 vector of length dimension")
        unit = tuple(unit)
        if len(unit) != dimension:
            raise AlgebraError("unit vector has wrong length")
        table = {}
        for (i, j), row in mult.items():
            if not (0 <= i < dimension and 0 <= j < dimension):
                raise AlgebraError(f"mult index ({i}, {j}) out of range")
            cleaned = {}
            for k, c in row.items():
                if not 0 <= k < dimension:
                    raise AlgebraError(f"mult target {k} out of range")
                if c != 0:
                    cleaned[k] = c
            if cleaned:
                table[(i, j)] = cleaned
        self.dimension = dimension
        self.parity = parity
        self.unit = unit
        self.unit_support = tuple((k, u) for k, u in enumerate(unit) if u != 0)
        self.mult = table
        self.field = field
        self.product_rows = rows = tuple({} for _ in range(dimension))
        for i, j in sorted(table):
            rows[i][j] = tuple(table[i, j].items())
        self.partners = tuple(map(tuple, rows))
        self.partner_counts = tuple(map(len, self.partners))
        self.has_odd = any(parity)
        self.odd_legs = _WordMemo(partial(_odd_legs, parity=parity))
        self.odd_prefix = _WordMemo(partial(_odd_prefix, parity=parity))
        self.partner_word_counts, self.probe_plans = {}, {}
        one = field.one()
        self.unit_powers = {0: {(): one}, 1: {(k,): canonical(u) for k, u in self.unit_support}}
        self.monomial_targets = self.monomial_signs = None
        if all(len(row) == 1 and row[0][1] in (one, -one) for r in rows for row in r.values()):
            self.monomial_targets = tuple({j: row[0][0] for j, row in r.items()} for r in rows)
            signs = tuple({j: int(row[0][1] != one) for j, row in r.items()} for r in rows)
            if any(any(r.values()) for r in signs):
                self.monomial_signs = signs

    @cached_property
    def generators(self) -> tuple:
        """Basis indices that, with 1, generate the algebra, picked greedily
        by lowest index (``basis_generators``), built on first use.  Checks
        of the form "for all a in H" whose solutions form a subalgebra run
        over these once their premises have passed."""
        return basis_generators(self)

    def __eq__(self, other):
        return (
            isinstance(other, GradedAlgebra)
            and self.dimension == other.dimension
            and self.parity == other.parity
            and self.unit == other.unit
            and self.mult == other.mult
            and self.field == other.field
        )

    def __repr__(self):
        return f"GradedAlgebra(dim={self.dimension}, parity={self.parity})"


class TensorElement:
    """Sparse element of H^(tensor n): a map from basis words to nonzero scalars.

    Values are immutable by convention; operations always build new elements.
    Arity 0 elements are scalars (the empty word).
    """

    __slots__ = ("algebra", "arity", "terms")

    def __init__(self, algebra: GradedAlgebra, arity: int, terms: dict):
        if arity < 0:
            raise AlgebraError("arity must be >= 0")
        d = algebra.dimension
        cleaned = {}
        for word, coeff in terms.items():
            if len(word) != arity or any(not 0 <= i < d for i in word):
                raise AlgebraError(f"bad word {word} for arity {arity}")
            if coeff != 0:
                cleaned[tuple(word)] = coeff if type(coeff) is int else canonical(coeff)
        self.algebra = algebra
        self.arity = arity
        self.terms = cleaned

    @staticmethod
    def _from_terms(algebra, arity, terms):
        """Engine results, whose words have the right length and range by
        construction; input from outside the engine goes through
        ``__init__``, which validates every word.

        The element takes ownership of ``terms``: in place, each value is
        put in canonical form (an int passes with one type test) and each
        zero is deleted, and the dict becomes the element's ``terms``.  So
        a caller hands over a dict it has just built and does not use
        again, never the ``terms`` of another element."""
        zeros = []
        for w, c in terms.items():
            if type(c) is not int:
                c = terms[w] = canonical(c)
            if not c:
                zeros.append(w)
        for w in zeros:
            del terms[w]
        x = object.__new__(TensorElement)
        x.algebra = algebra
        x.arity = arity
        x.terms = terms
        return x

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(algebra, arity):
        return TensorElement._from_terms(algebra, arity, {})

    @staticmethod
    def unit(algebra, arity):
        """1^(tensor arity) on the algebra's one copy of its terms: 1^(tensor
        arity - 1) with the unit on one more leg, by ``embed_legs``."""
        powers = algebra.unit_powers
        if arity not in powers:
            below = TensorElement.unit(algebra, arity - 1)
            powers[arity] = embed_legs(below, range(arity - 1), arity).terms
        x = object.__new__(TensorElement)
        x.algebra, x.arity, x.terms = algebra, arity, powers[arity]
        return x

    @staticmethod
    def basis(algebra, word):
        word = tuple(word)
        return TensorElement(algebra, len(word), {word: algebra.field.one()})

    @staticmethod
    def from_scalar(algebra, value):
        return TensorElement(algebra, 0, {(): value})

    # -- linear structure --------------------------------------------------

    def _require_same_shape(self, other):
        if not isinstance(other, TensorElement):
            raise AlgebraError(f"expected TensorElement, got {other!r}")
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("elements live over different algebras")
        if self.arity != other.arity:
            raise AlgebraError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._require_same_shape(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms[w] + c if w in terms else c
        return TensorElement._from_terms(self.algebra, self.arity, terms)

    def __sub__(self, other):
        self._require_same_shape(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms[w] - c if w in terms else -c
        return TensorElement._from_terms(self.algebra, self.arity, terms)

    def __neg__(self):
        return TensorElement._from_terms(
            self.algebra, self.arity, {w: -c for w, c in self.terms.items()}
        )

    def scaled(self, scalar):
        if scalar == 0:
            return TensorElement.zero(self.algebra, self.arity)
        return TensorElement._from_terms(
            self.algebra, self.arity, {w: c * scalar for w, c in self.terms.items()}
        )

    def __mul__(self, other):
        return tensor_multiply(self, other)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.terms == other.terms
            and (self.algebra is other.algebra or self.algebra == other.algebra)
        )

    def __repr__(self):
        if not self.terms:
            return f"TensorElement(arity={self.arity}, 0)"
        items = ", ".join(f"{w}: {c}" for w, c in sorted(self.terms.items()))
        return f"TensorElement(arity={self.arity}, {{{items}}})"

    # -- grading -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def homogeneous_parity(self):
        """Parity if homogeneous, else None; the zero element counts as even."""
        par = self.algebra.parity
        parities = {sum(par[i] for i in w) % 2 for w in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            return None
        return parities.pop()

    def is_even(self):
        return self.homogeneous_parity() == 0

    def scalar_value(self):
        if self.arity != 0:
            raise AlgebraError("scalar_value needs an arity-0 element")
        return self.terms.get((), self.algebra.field.zero())


def _odd_legs(word, parity) -> int:
    """Bit j set when leg j of word is odd."""
    mask = 0
    for j, i in enumerate(word):
        if parity[i]:
            mask |= 1 << j
    return mask


def _odd_prefix(word, parity) -> int:
    """Bit j set when an odd number of the legs left of leg j are odd."""
    mask = odd = 0
    for j, i in enumerate(word):
        if odd:
            mask |= 1 << j
        odd ^= parity[i]
    return mask


class _WordMemo(dict):
    """key -> function(key), computed on the first lookup of the key."""

    __slots__ = ("function",)

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


# Each x word meets the y words of one route, chosen per x word by
# tensor_multiply from the algebra's memos and the operands alone.  A word
# with a probe plan (``_plan``) looks each of its partner words up in y.
# Any other word with at most min(|y|, PROBE_CUTOFF) partner words probes:
# it walks the partner words y holds, so it costs no more lookups than a
# walk of y would.  Its second probe plans all of them, and the algebra
# keeps that plan.  The first keeps nothing, because a unit of many terms
# times a small element probes each of its words once.  On ``check`` of a
# dimension-60 diagonal document, keeping those plans took 1.6 times as
# long and 163 MB at the peak against 91 MB, and building plans for them
# without keeping any made the kernel 1.25 times as slow as the walk.  A
# probe pays for each partner word that y lacks, the trie only for the
# prefixes y has.  On the products of a dimension-8 structure with a
# 180-term coassociator, probing up to |y| partner words took the kernel
# 1.02-1.06 times as long as the trie alone, and probing up to 16 took
# 0.99-1.04 times, and on its suites and battery the unbounded probe kept
# 20 times as many plan entries and took 2.6 times the peak memory.  Any
# other word walks the trie of y (``_trie``) leg by leg, from each node
# only into the branches that are partners of its own leg, so it meets only
# prefixes y holds and never a pair with a zero leg product (the trie join
# of Veldhuizen, "Leapfrog Triejoin", ICDT 2014, over basis words).  It
# keeps nothing: such words meet about one nonzero pair each on
# ``transform tensor`` of h2ext and k[Z2], where planning them too made the
# kernel 1.17 times as slow.  The kernel walks the trie with plain loops:
# most tries hold a few words, and a function call per word and a list
# comprehension per leg made the ``ladder`` workload about 3% slower.
PROBE_CUTOFF = 16


def _trie(words) -> dict:
    """The words indexed by their legs: nested dicts, one level per leg,
    whose last level maps the last leg to the word itself."""
    trie = {}
    for word in words:
        node = trie
        for j in word[:-1]:
            node = node.setdefault(j, {})
        node[word[-1]] = word
    return trie


def _plan(alg, wx, words) -> tuple:
    """(wy, product) for each of ``words``, partner words of the x word wx,
    in their order, with both signs folded in: the Koszul flip and, over a
    monomial table, the table's -1 entries.  Over a monomial table the
    product is (w, negate), the one word of the pair and whether its sign
    is -1; over any other table it is a tuple of (w, signed coefficient)
    pairs, the sparse rows expanded leg by leg."""
    odd = alg.odd_legs[wx] if alg.has_odd else 0
    prefixes = alg.odd_prefix
    plan = []
    if alg.monomial_targets is not None:
        rows = tuple(map(alg.monomial_targets.__getitem__, wx))
        signs = alg.monomial_signs
        negated = signs and tuple(map(signs.__getitem__, wx))
        for wy in words:
            w = tuple(map(getitem, rows, wy))
            flips = odd and (odd & prefixes[wy]).bit_count()
            if negated:
                flips += sum(map(getitem, negated, wy))
            plan.append((wy, (w, flips & 1)))
    else:
        rows = alg.product_rows
        for wy in words:
            product = [((), -1 if odd and (odd & prefixes[wy]).bit_count() & 1 else 1)]
            for i, j in zip(wx, wy):
                product = [(w + (k,), c * ck) for w, c in product for k, ck in rows[i][j]]
            plan.append((wy, tuple(product)))
    return tuple(plan)


def tensor_multiply(x: TensorElement, y: TensorElement) -> TensorElement:
    """Graded product in H^(tensor n); see the module docstring for the sign.

    The exponent for words x and y is the number of legs j where x_j is odd
    and an odd number of y-legs lie left of j: the common bits of
    ``_odd_legs(x)`` and ``_odd_prefix(y)``, read from the algebra's memos;
    over a purely even algebra no mask is built at all.  An empty y gives
    zero at once.  Otherwise each x word takes one route, by the rule in the
    comment above ``PROBE_CUTOFF``: its probe plan if it has one; else a
    probe of y for its partner words when it has at most min(|y|,
    PROBE_CUTOFF) of them; else the trie of y, built once per product on
    first need.  A plan costs one lookup in y
    per partner word and one scalar product per word y holds.  A word's
    second probe builds its plan (``_plan``) and the algebra keeps it; its
    first probe and the trie walk y, meeting only partner words.  Over a
    monomial table a walk gives each pair of words one word by lookup, and
    over any other table it goes through ``_plan`` and keeps nothing.  Every
    route gives the same terms.
    """
    x._require_same_shape(y)
    alg = x.algebra
    terms = y.terms
    if not terms:
        return TensorElement._from_terms(alg, x.arity, {})
    get = terms.get
    probe = min(len(terms), PROBE_CUTOFF)
    plans, counts = alg.probe_plans, alg.partner_word_counts
    partners, partner_counts = alg.partners, alg.partner_counts
    has_odd, legs, prefixes = alg.has_odd, alg.odd_legs, alg.odd_prefix
    targets, signs = alg.monomial_targets, alg.monomial_signs
    rows_of, trie = alg.product_rows, None
    out = {}
    for wx, cx in x.terms.items():
        plan = plans.get(wx)
        if plan is None:
            n = seen = counts.get(wx)
            if n is None:
                n = counts[wx] = prod(map(partner_counts.__getitem__, wx))
            if n > probe:
                trie = trie or _trie(terms)
                walk = [trie]
                for i in wx:
                    row, nodes, walk = rows_of[i], walk, []
                    for node in nodes:
                        for j in node:
                            if j in row:
                                walk.append(node[j])
            else:
                words = itertools.product(*map(partners.__getitem__, wx))
                if seen is None:
                    walk = filter(terms.__contains__, words)
                else:
                    plan = plans[wx] = _plan(alg, wx, words)
            if plan is None and targets is None:
                plan = _plan(alg, wx, walk)
        if plan is None:
            # a walk over a monomial table
            rows = tuple(map(targets.__getitem__, wx))
            negated = signs and tuple(map(signs.__getitem__, wx))
            odd = legs[wx] if has_odd else 0
            for wy in walk:
                w = tuple(map(getitem, rows, wy))
                flips = odd and (odd & prefixes[wy]).bit_count()
                if negated:
                    flips += sum(map(getitem, negated, wy))
                cy = terms[wy]
                c = -(cx * cy) if flips & 1 else cx * cy
                out[w] = out[w] + c if w in out else c
        elif targets is not None:
            for wy, (w, negate) in plan:
                cy = get(wy)
                if cy is not None:
                    c = -(cx * cy) if negate else cx * cy
                    out[w] = out[w] + c if w in out else c
        else:
            for wy, product in plan:
                cy = get(wy)
                if cy is not None:
                    c = cx * cy
                    for w, ck in product:
                        v = c * ck
                        out[w] = out[w] + v if w in out else v
    return TensorElement._from_terms(alg, x.arity, out)


def linear_combination(algebra: GradedAlgebra, arity: int, pairs) -> TensorElement:
    """The sum of scalar * x over the (x, scalar) pairs, added term by term
    into one dict rather than through a new element per partial sum."""
    out = {}
    for x, scalar in pairs:
        for w, c in x.terms.items():
            v = c * scalar
            out[w] = out[w] + v if w in out else v
    return TensorElement._from_terms(algebra, arity, out)


def _koszul_sign(odd, word) -> int:
    """The parity of the pairs of legs in the mask ``odd`` that ``word`` swaps."""
    legs = [leg for leg in word if odd >> leg & 1]
    return sum(a > b for i, a in enumerate(legs) for b in legs[i + 1 :]) & 1


@lru_cache(maxsize=None)
def _permutation(word) -> tuple:
    """The getter of the new word (``itemgetter`` of one index would return
    it bare) and the ``_koszul_sign`` table by odd-leg mask, made once per
    word: neither depends on the algebra."""
    if sorted(word) != list(range(len(word))):
        raise AlgebraError(f"{word} is not a permutation of 0..{len(word) - 1}")
    signs = _WordMemo(partial(_koszul_sign, word=word))
    return (itemgetter(*word) if len(word) > 1 else tuple), signs


def permute_legs(x: TensorElement, word) -> TensorElement:
    """Rearrange legs so position i holds original leg word[i] (0-based).

    The Koszul sign counts pairs of odd legs whose order flips; it equals the
    product of transposition signs along any adjacent-swap decomposition.
    Its table (``_permutation``) reads the word's ``odd_legs`` mask where
    some element is odd.
    """
    n = x.arity
    word = tuple(word)
    if len(word) != n:
        raise AlgebraError(f"{word} is not a permutation of 0..{n - 1}")
    alg = x.algebra
    place, signs = _permutation(word)
    odd, legs = alg.has_odd, alg.odd_legs
    out = {place(w): -c if odd and signs[legs[w]] else c for w, c in x.terms.items()}
    return TensorElement._from_terms(alg, n, out)


def interleave_sign(x_word, y_word, x_parity, y_parity) -> int:
    """Koszul exponent, mod 2, of (x_1...x_n) (x) (y_1...y_n) -> (x_1 y_1)...(x_n y_n).

    Each y_i moves right past x_j for every j > i, so the exponent is the sum
    over i < j of parity(y_i)*parity(x_j), the same one tensor_multiply uses.
    """
    return (_odd_legs(x_word, x_parity) & _odd_prefix(y_word, y_parity)).bit_count() & 1


def interleave(x: TensorElement, y: TensorElement, algebra: GradedAlgebra) -> TensorElement:
    """x over A and y over B, both of arity n, as the element
    (x_1 (x) y_1) ... (x_n (x) y_n) of (A (x) B)^(tensor n), signed by
    interleave_sign.  algebra is A (x) B with a_i (x) b_j at index i*dim(B) + j."""
    if x.arity != y.arity:
        raise AlgebraError(f"arity mismatch: {x.arity} vs {y.arity}")
    par_a, par_b = x.algebra.parity, y.algebra.parity
    db = y.algebra.dimension
    out = {}
    for wx, cx in x.terms.items():
        for wy, cy in y.terms.items():
            c = cx * cy
            if interleave_sign(wx, wy, par_a, par_b):
                c = -c
            key = tuple(i * db + j for i, j in zip(wx, wy))
            out[key] = out[key] + c if key in out else c
    return TensorElement._from_terms(algebra, x.arity, out)


@lru_cache(maxsize=None)
def _placement(positions, arity):
    """The getter of the embedded word from ``word + fill`` (``tuple`` if it
    is that), made once per (positions, arity): it does not depend on the
    algebra."""
    if list(positions) != sorted(set(positions)):
        raise AlgebraError("positions must be strictly increasing")
    if arity < len(positions) or positions and not (0 <= positions[0] and positions[-1] < arity):
        raise AlgebraError("positions out of range")
    order = positions + tuple(p for p in range(arity) if p not in positions)
    indices = sorted(range(arity), key=order.__getitem__)
    return tuple if indices == list(range(arity)) else itemgetter(*indices)


def embed_legs(x: TensorElement, positions, arity: int) -> TensorElement:
    """Place legs of x at the given strictly increasing 0-based positions and
    the terms of 1^(tensor k) on the k others: the unit is even, so no sign."""
    positions = tuple(positions)
    if len(positions) != x.arity:
        raise AlgebraError("positions must match the arity of x")
    alg = x.algebra
    place = _placement(positions, arity)
    fills = TensorElement.unit(alg, arity - x.arity).terms.items()
    out = {place(w + u): c if f == 1 else c * f for w, c in x.terms.items() for u, f in fills}
    return TensorElement._from_terms(alg, arity, out)


class StructureMap:
    """A linear map H -> H^(tensor out_arity), stored by basis images.

    out_arity 0 encodes scalar-valued maps (the counit), 1 endomorphisms
    (the antipode), 2 coproducts.  Maps are assumed parity-preserving; that
    is validated when a structure is loaded, not on every application.
    """

    def __init__(self, algebra: GradedAlgebra, out_arity: int, images):
        images = tuple(images)
        if len(images) != algebra.dimension:
            raise AlgebraError("need one image per basis element")
        for img in images:
            if img.arity != out_arity:
                raise AlgebraError("image arity disagrees with out_arity")
            if img.algebra is not algebra and img.algebra != algebra:
                raise AlgebraError("image over a different algebra")
        self.algebra = algebra
        self.out_arity = out_arity
        self.images = images

    def parity_violation(self) -> dict | None:
        """Witness of the first basis image that breaks parity, else None."""
        par = self.algebra.parity
        for i, img in enumerate(self.images):
            if self.out_arity == 0:
                if par[i] == 1 and not img.is_zero():
                    return {"basis": i, "reason": "odd element with nonzero scalar image"}
            else:
                p = img.homogeneous_parity()
                if p is None or (img.terms and p != par[i]):
                    return {"basis": i, "reason": "image not homogeneous of the right parity"}
        return None

    def __eq__(self, other):
        return (
            isinstance(other, StructureMap)
            and self.out_arity == other.out_arity
            and self.images == other.images
        )

    def __repr__(self):
        return f"StructureMap(out_arity={self.out_arity}, dim={self.algebra.dimension})"


def apply_map_legs(x: TensorElement, leg: int, f: StructureMap) -> TensorElement:
    """Apply f to one leg of every word, linearly.  Structure maps are even,
    so no Koszul sign appears regardless of what they pass over."""
    if not 0 <= leg < x.arity:
        raise AlgebraError(f"leg {leg} out of range for arity {x.arity}")
    if f.algebra is not x.algebra and f.algebra != x.algebra:
        raise AlgebraError("map belongs to a different algebra")
    out = {}
    for w, c in x.terms.items():
        img = f.images[w[leg]]
        for iw, ic in img.terms.items():
            key = w[:leg] + iw + w[leg + 1 :]
            coeff = c * ic
            out[key] = out[key] + coeff if key in out else coeff
    return TensorElement._from_terms(x.algebra, x.arity - 1 + f.out_arity, out)


def multiply_adjacent_legs(x: TensorElement, leg: int) -> TensorElement:
    """Contract legs (leg, leg+1) with the algebra product; adjacency means
    nothing moves past anything, so there is no sign."""
    if not 0 <= leg < x.arity - 1:
        raise AlgebraError(f"cannot contract legs ({leg}, {leg + 1})")
    alg = x.algebra
    rows = alg.product_rows
    out = {}
    for w, c in x.terms.items():
        for k, ck in rows[w[leg]].get(w[leg + 1], ()):
            key = w[:leg] + (k,) + w[leg + 2 :]
            coeff = c * ck
            out[key] = out[key] + coeff if key in out else coeff
    return TensorElement._from_terms(alg, x.arity - 1, out)


def contract_legs(x: TensorElement, maps: dict, *legs: int) -> TensorElement:
    """Apply the endomorphism maps[k] to leg k, then contract (l, l+1) for
    each l in ``legs``, in order.  Neither step makes a sign, so this is the
    printed sum over x on any table: e.g. with A(e_p) = S(e_p) alpha,
    contract_legs(x, {0: A}, 0) is sum c S(x_1) alpha x_2."""
    for leg, f in maps.items():
        x = apply_map_legs(x, leg, f)
    for leg in legs:
        x = multiply_adjacent_legs(x, leg)
    return x


# -- exact linear algebra ---------------------------------------------------
# One sparse elimination routine, ``_echelon_insert``, serves every exact
# solve: structure maps (``solve_linear_system``), elements of H^(tensor n)
# (``invert_tensor_element``) and ``basis_generators``.


def _echelon_insert(echelon, vector, field, combination=None) -> bool:
    """Reduce the sparse ``vector`` (a dict, changed in place) against
    ``echelon`` and append what is left, scaled to a leading 1; returns
    False when nothing is left.

    Each echelon row is (pivot, row, row combination): a 1 at its pivot and
    a 0 at the pivots of the rows before it, so one pass in order clears
    every pivot.  A ``combination`` list, when given, is reduced alongside
    (changed in place) and stored scaled with the row.
    """
    for pivot, row, row_combination in echelon:
        if not vector:
            return False
        f = vector.get(pivot)
        if f is None:
            continue
        for w, c in row.items():
            v = vector[w] - f * c if w in vector else -(f * c)
            if v == 0:
                del vector[w]
            else:
                vector[w] = v
        if combination is not None:
            for k, c in enumerate(row_combination):
                combination[k] -= f * c
    if not vector:
        return False
    pivot, lead = next(iter(vector.items()))
    scale = field.invert(lead)
    scaled = None if combination is None else [c * scale for c in combination]
    echelon.append((pivot, {w: c * scale for w, c in vector.items()}, scaled))
    return True


def solve_linear_system(columns, targets, field: FieldSpec) -> list:
    """For each target t, the list x with sum_i x_i columns[i] = t.

    Precondition: n independent columns in an n-dimensional space, given
    like the targets as sparse {index: coefficient} vectors; a dependent
    column raises SingularError.  Column i enters the echelon with the i-th
    unit vector as its combination, so each target reduces to zero against
    it, and the combination it gathers, negated, is x.
    """
    n = len(columns)
    zero = field.zero()
    echelon = []
    for i, column in enumerate(columns):
        combination = [zero] * n
        combination[i] = field.one()
        if not _echelon_insert(echelon, dict(column), field, combination):
            raise SingularError("singular linear system")
    solutions = []
    for target in targets:
        combination = [zero] * n
        _echelon_insert(echelon, dict(target), field, combination)
        solutions.append([-c for c in combination])
    return solutions


def _row_combination(pairs) -> dict:
    """The sum of c * row over (c, row) pairs, each row a product e_i e_j
    read off ``product_rows``, as {k: coefficient} with zeros dropped."""
    out = {}
    for c, row in pairs:
        for k, ck in row:
            v = c * ck
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v}


def basis_generators(algebra: GradedAlgebra) -> tuple:
    """Basis indices G, chosen greedily by lowest index, such that the unit
    and its products on the right by the e_g span the algebra.

    V, the span of the unit, is kept in exact echelon form and closed under
    right multiplication by every e_g, g in G: each echelon row times each
    generator, read off ``product_rows``.  While V is not the whole algebra,
    the lowest e_i outside V joins G and V.  Over a two-sided unit e_i = 1 e_i
    lies in the closure anyway, so V is spanned by the words 1 g_1 ... g_k,
    and G together with 1 generates the algebra.  Over a table without a
    unit G means nothing, and no check reads it.
    """
    field = algebra.field
    rows = algebra.product_rows
    d = algebra.dimension
    echelon, generators = [], []

    def times(row, g):  # a vector of V times e_g
        return _row_combination((c, rows[k].get(g, ())) for k, c in row.items())

    def close(pending):
        while pending:
            if _echelon_insert(echelon, pending.pop(), field):
                row = echelon[-1][1]
                pending += [times(row, g) for g in generators]

    close([dict(algebra.unit_support)])
    for i in range(d):
        if len(echelon) == d:
            break
        if _echelon_insert(echelon, {i: field.one()}, field):
            generators.append(i)
            new = echelon[-1][1]
            pending = [times(row, i) for _, row, _ in echelon[:-1]]
            close(pending + [times(new, g) for g in generators])
    return tuple(generators)


def invert_tensor_element(x: TensorElement) -> TensorElement:
    """Two-sided inverse in the algebra H^(tensor n), from the minimal
    polynomial of x; no d^n x d^n system is formed.

    The powers P_0 = 1, P_k = P_{k-1} x are reduced one by one against the
    earlier ones in a sparse echelon form over the exact field
    (``_echelon_insert``), each reduced vector keeping its combination of
    powers.  The first power that reduces to zero gives p(x) = sum c_k x^k =
    0, with deg p <= d^n (the Krylov sequence of Wiedemann, "Solving sparse
    linear equations over finite fields", 1986).  c_0 = 0 makes x a zero
    divisor; otherwise Y = -c_0^{-1} sum_{k>=1} c_k P_{k-1} solves Y x = 1.
    P_1 is 1 x rather than x, so that this follows from p alone, by
    bilinearity.  x Y = 1 is checked exactly; SingularError is raised if
    either side fails.
    """
    alg = x.algebra
    n = x.arity
    field = alg.field
    if n == 0:
        return TensorElement.from_scalar(alg, field.invert(x.scalar_value()))
    zero, one = field.zero(), field.one()
    unit = TensorElement.unit(alg, n)
    powers = []
    echelon = []
    power = unit
    while True:
        powers.append(power)
        combination = [zero] * (len(powers) - 1) + [one]
        if not _echelon_insert(echelon, dict(power.terms), field, combination):
            break
        power = tensor_multiply(power, x)
    if combination[0] == 0:
        raise SingularError("element has no left inverse")
    scale = -field.invert(combination[0])
    inverse = linear_combination(
        alg, n, ((p, c * scale) for c, p in zip(combination[1:], powers) if c)
    )
    if tensor_multiply(x, inverse) != unit:
        raise SingularError("element has a left inverse but no right inverse")
    return inverse


def invert_structure_map(f: StructureMap) -> StructureMap:
    """Inverse of a bijective H -> H map; f must have out_arity 1.  The
    images f(e_i) are the columns, and the solution for e_j is f^{-1}(e_j)."""
    if f.out_arity != 1:
        raise AlgebraError("only out_arity 1 maps can be inverted")
    alg = f.algebra
    d = alg.dimension
    columns = [{j: c for (j,), c in img.terms.items()} for img in f.images]
    one = alg.field.one()
    try:
        inv = solve_linear_system(columns, ({j: one} for j in range(d)), alg.field)
    except SingularError:
        raise SingularError("structure map is singular")
    images = [
        TensorElement._from_terms(alg, 1, {(i,): c for i, c in enumerate(x)}) for x in inv
    ]
    return StructureMap(alg, 1, images)
