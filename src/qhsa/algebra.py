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
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import getitem

from .scalars import FieldSpec, canonical


class AlgebraError(ValueError):
    """Structural misuse: mismatched algebras, arities, fields, bad indices."""


class SingularError(AlgebraError):
    """An element or map that was required to be invertible is not."""


class GradedAlgebra:
    """Associative superalgebra given by a basis, parity vector, unit vector
    and sparse multiplication table (i, j) -> {k: coefficient}.

    ``product_rows[i][j]`` is e_i e_j as a tuple of (k, coefficient) pairs,
    built once from the cleaned table.  When every nonzero product is one
    basis element with coefficient 1 or -1, the table is monomial:
    ``monomial_targets[i][j]`` is that k (None for a zero product) and
    tensor_multiply builds words by lookup.  ``monomial_signs[i][j]`` is 1
    where the coefficient is -1, and is None when no coefficient is; graded
    products of odd-carrying algebras have such signs.  Both are None for any
    other table.  ``partners[i]`` lists the j with e_i e_j != 0, in order: the
    legs the joined route of tensor_multiply walks from a leg e_i.
    ``has_zero_products`` is True when some e_i e_j is 0; without one the
    joined route would skip nothing, and tensor_multiply never takes it.
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
        self.mult = table
        self.field = field
        self.product_rows = rows = tuple(
            tuple(tuple(table.get((i, j), {}).items()) for j in range(dimension))
            for i in range(dimension)
        )
        self.partners = tuple(tuple(j for j, row in enumerate(r) if row) for r in rows)
        self.has_zero_products = any(len(legs) < dimension for legs in self.partners)
        one = field.one()
        self.monomial_targets = self.monomial_signs = None
        if all(len(row) == 1 and row[0][1] in (one, -one) for r in rows for row in r if row):
            self.monomial_targets = tuple(
                tuple(row[0][0] if row else None for row in r) for r in rows
            )
            signs = tuple(tuple(int(bool(row) and row[0][1] != one) for row in r) for r in rows)
            if any(map(any, signs)):
                self.monomial_signs = signs

    def product(self, i: int, j: int) -> dict:
        return self.mult.get((i, j), {})

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
        construction: only zero coefficients are dropped, and the others are
        put in canonical form, an int passing with one type test.  Input from
        outside the engine goes through ``__init__``, which validates every
        word."""
        x = object.__new__(TensorElement)
        x.algebra = algebra
        x.arity = arity
        x.terms = {
            w: c if type(c) is int else canonical(c) for w, c in terms.items() if c
        }
        return x

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(algebra, arity):
        return TensorElement._from_terms(algebra, arity, {})

    @staticmethod
    def unit(algebra, arity):
        support = [(k, c) for k, c in enumerate(algebra.unit) if c != 0]
        terms = {}
        for combo in itertools.product(support, repeat=arity):
            coeff = algebra.field.one()
            for _, c in combo:
                coeff = coeff * c
            terms[tuple(k for k, _ in combo)] = coeff
        return TensorElement._from_terms(algebra, arity, terms)

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

    def word_parity(self, word):
        par = self.algebra.parity
        return sum(par[i] for i in word) % 2

    def homogeneous_parity(self):
        """Parity if homogeneous, else None; the zero element counts as even."""
        parities = {self.word_parity(w) for w in self.terms}
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


# Above this many word pairs, and only over a table with a zero product,
# tensor_multiply joins x with a trie of y instead of visiting every pair.
# A small product has few zero pairs to skip.  Over a table with no zero
# product (any group algebra) the trie would skip nothing and cost 5-15%
# more, so ``GradedAlgebra.has_zero_products`` keeps such tables on the pair
# loop at every size.  On the benchmark workloads a cutoff of 16 or 64 did
# equally well, and 256 or 1024 a little worse.
JOIN_CUTOFF = 64


def _joined(ys, partners):
    """The y entries each x word meets with no zero leg product, as a
    function of the x word.  y is indexed in a trie by its legs, and an x
    word walks from each leg e_i only into ``partners[i]``, so pairs with a
    zero leg are never visited (the trie join of Veldhuizen, "Leapfrog
    Triejoin", ICDT 2014, over basis words)."""
    trie = {}
    for entry in ys:
        *head, last = entry[0]
        node = trie
        for j in head:
            node = node.setdefault(j, {})
        node[last] = entry

    def visit(wx):
        nodes = [trie]
        for i in wx:
            legs = partners[i]
            nodes = [n[j] for n in nodes for j in legs if j in n]
        return nodes

    return visit


def tensor_multiply(x: TensorElement, y: TensorElement) -> TensorElement:
    """Graded product in H^(tensor n); see the module docstring for the sign.

    The exponent for words x and y is the number of legs j where x_j is odd
    and an odd number of y-legs lie left of j: the common bits of
    ``_odd_legs(x)`` and ``_odd_prefix(y)``.  Each x word visits the y words
    of one of two routes.  Up to JOIN_CUTOFF pairs, or over a table with no
    zero product, it visits every y word; otherwise it visits only those
    whose every leg is a partner of its own (``_joined``), so no pair with a
    zero leg product is visited.  Both routes give the same terms.  Over a
    monomial table a pair of words gives one word by lookup and costs one
    scalar product, its sign adding the table's -1 entries; any other table
    expands the precomputed rows leg by leg.
    """
    x._require_same_shape(y)
    alg = x.algebra
    par = alg.parity
    ys = [(wy, _odd_prefix(wy, par), cy) for wy, cy in y.terms.items()]
    if alg.has_zero_products and len(x.terms) * len(ys) > JOIN_CUTOFF:
        visit = _joined(ys, alg.partners)
    else:

        def visit(wx):
            return ys

    targets = alg.monomial_targets
    out = {}
    if targets is not None:
        signs = alg.monomial_signs
        for wx, cx in x.terms.items():
            rows = tuple(map(targets.__getitem__, wx))
            negated = signs and tuple(map(signs.__getitem__, wx))
            odd = _odd_legs(wx, par)
            for wy, prefix, cy in visit(wx):
                w = tuple(map(getitem, rows, wy))
                if None in w:
                    continue
                flips = (odd & prefix).bit_count()
                if negated:
                    flips += sum(map(getitem, negated, wy))
                c = -(cx * cy) if flips & 1 else cx * cy
                out[w] = out[w] + c if w in out else c
    else:
        rows = alg.product_rows
        for wx, cx in x.terms.items():
            odd = _odd_legs(wx, par)
            for wy, prefix, cy in visit(wx):
                partial = [((), -(cx * cy) if (odd & prefix).bit_count() & 1 else cx * cy)]
                for i, j in zip(wx, wy):
                    partial = [(w + (k,), c * ck) for w, c in partial for k, ck in rows[i][j]]
                for w, c in partial:
                    out[w] = out[w] + c if w in out else c
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


def permute_legs(x: TensorElement, word) -> TensorElement:
    """Rearrange legs so position i holds original leg word[i] (0-based).

    The Koszul sign counts pairs of odd legs whose order flips; it equals the
    product of transposition signs along any adjacent-swap decomposition.
    """
    n = x.arity
    word = tuple(word)
    if sorted(word) != list(range(n)):
        raise AlgebraError(f"{word} is not a permutation of 0..{n - 1}")
    pos = [0] * n
    for p, leg in enumerate(word):
        pos[leg] = p
    par = x.algebra.parity
    out = {}
    for w, c in x.terms.items():
        odd = [i for i in range(n) if par[w[i]]]
        sign = 0
        for a in range(len(odd)):
            for b in range(a + 1, len(odd)):
                if pos[odd[a]] > pos[odd[b]]:
                    sign ^= 1
        new_word = tuple(w[word[p]] for p in range(n))
        out[new_word] = -c if sign else c
    return TensorElement._from_terms(x.algebra, n, out)


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


def embed_legs(x: TensorElement, positions, arity: int) -> TensorElement:
    """Place legs of x at the given strictly increasing 0-based positions,
    filling the rest with the unit.  The unit is even, so no sign arises."""
    positions = tuple(positions)
    if len(positions) != x.arity:
        raise AlgebraError("positions must match the arity of x")
    if list(positions) != sorted(set(positions)):
        raise AlgebraError("positions must be strictly increasing")
    if positions and not (0 <= positions[0] and positions[-1] < arity):
        raise AlgebraError("positions out of range")
    alg = x.algebra
    free = [p for p in range(arity) if p not in positions]
    support = [(k, c) for k, c in enumerate(alg.unit) if c != 0]
    out = {}
    for w, c in x.terms.items():
        for combo in itertools.product(support, repeat=len(free)):
            new_word = [0] * arity
            coeff = c
            for p, leg in zip(positions, w):
                new_word[p] = leg
            for p, (k, ck) in zip(free, combo):
                new_word[p] = k
                coeff = coeff * ck
            key = tuple(new_word)
            out[key] = out[key] + coeff if key in out else coeff
    return TensorElement._from_terms(alg, arity, out)


def outer(*elements) -> TensorElement:
    """Concatenate legs: (p, q) -> p (x) q.  Pure placement, no sign."""
    if not elements:
        raise AlgebraError("outer needs at least one element")
    alg = elements[0].algebra
    terms = {(): alg.field.one()}
    arity = 0
    for el in elements:
        if el.algebra is not alg and el.algebra != alg:
            raise AlgebraError("outer across different algebras")
        terms = {
            w + w2: c * c2 for w, c in terms.items() for w2, c2 in el.terms.items()
        }
        arity += el.arity
    return TensorElement._from_terms(alg, arity, terms)


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


def identity_map(algebra: GradedAlgebra) -> StructureMap:
    return StructureMap(
        algebra, 1, [TensorElement.basis(algebra, (i,)) for i in range(algebra.dimension)]
    )


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
        for k, ck in rows[w[leg]][w[leg + 1]]:
            key = w[:leg] + (k,) + w[leg + 2 :]
            coeff = c * ck
            out[key] = out[key] + coeff if key in out else coeff
    return TensorElement._from_terms(alg, x.arity - 1, out)


# -- exact linear algebra ---------------------------------------------------


def solve_linear_system(matrix, rhs_columns, field: FieldSpec):
    """Gauss-Jordan over the exact field: solve matrix * X = B.

    matrix is a list of row lists and rhs_columns lists the columns of B.
    Returns X as a list of rows, or raises SingularError.  Pivoting just
    takes the first nonzero entry; there is no rounding to worry about.
    """
    n = len(matrix)
    rows = [list(row) + [col[i] for col in rhs_columns] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if rows[r][col] != 0:
                pivot_row = r
                break
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


def _row_combination(pairs) -> dict:
    """The sum of c * e_i e_j over (c, product_rows[i][j]) pairs, as
    {k: coefficient} with zeros dropped."""
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
        return _row_combination((c, rows[k][g]) for k, c in row.items())

    def close(pending):
        while pending:
            if _echelon_insert(echelon, pending.pop(), field):
                row = echelon[-1][1]
                pending += [times(row, g) for g in generators]

    close([{k: u for k, u in enumerate(algebra.unit) if u}])
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
    terms = {}
    for c, p in zip(combination[1:], powers):
        if c == 0:
            continue
        f = c * scale
        for w, v in p.terms.items():
            terms[w] = terms[w] + f * v if w in terms else f * v
    inverse = TensorElement._from_terms(alg, n, terms)
    if tensor_multiply(x, inverse) != unit:
        raise SingularError("element has a left inverse but no right inverse")
    return inverse


def invert_structure_map(f: StructureMap) -> StructureMap:
    """Inverse of a bijective H -> H map; f must have out_arity 1."""
    if f.out_arity != 1:
        raise AlgebraError("only out_arity 1 maps can be inverted")
    alg = f.algebra
    d = alg.dimension
    zero = alg.field.zero()
    matrix = [[zero] * d for _ in range(d)]
    for i in range(d):
        for (j,), c in f.images[i].terms.items():
            matrix[j][i] = c
    one = alg.field.one()
    identity = [[one if i == j else zero for i in range(d)] for j in range(d)]
    try:
        inv = solve_linear_system(matrix, identity, alg.field)
    except SingularError:
        raise SingularError("structure map is singular")
    images = [
        TensorElement._from_terms(alg, 1, {(j,): inv[j][i] for j in range(d)})
        for i in range(d)
    ]
    return StructureMap(alg, 1, images)
