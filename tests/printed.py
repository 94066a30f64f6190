"""The printed form of every check id: the tests' one reference.

``Printed(H)[check_id]`` evaluates one identity as the paper prints it, left
to right in its factor order, over the whole basis in the library's label
order: [i, j, k] for associativity, i*d + j for the homomorphisms, [i, j] for
the antihomomorphism, [a, i, j] for the eta lemma and a elsewhere.  It reads
only the fields of the structure: no cached property of ``QhsaStructure``, no
``GradedAlgebra.generators``, no premise, and no product rebracketed to be
shared between identities.  Elements are built with ``TensorElement``
arithmetic, ``permute_legs``, ``embed_legs`` and ``outer``, ``apply_map_legs``
and the two inverses.  Three liberties change no value: a sum over the words
of Phi with a lone leg is grouped by that leg (distributivity), a term of a
printed sum is computed once per structure, and ``chain`` clears
denominators before it multiplies.

A ``Verdict`` is the status and, for a failing equality, the first failing
label and both sides, whose difference is the library's witness.  The
transform ids need twistors: ``Printed(H, F, G)`` for ``check_twistor``,
``check_cocycle`` and ``check_prop6`` (F) and conftest's
``twist_composition_check`` (F, then G).  ``agree`` holds a library report against the printed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul
from typing import NamedTuple

from qhsa.algebra import (
    SingularError,
    StructureMap,
    TensorElement,
    apply_map_legs,
    embed_legs,
    invert_structure_map,
    invert_tensor_element,
    outer,
    permute_legs,
)
from qhsa.reporting import difference_witness
from qhsa.structure import SUITES


class Verdict(NamedTuple):
    status: str
    label: object = None
    lhs: TensorElement | None = None
    rhs: TensorElement | None = None


def chain(*factors):
    """The product of the factors, left to right.  A factor with rational
    coefficients is first scaled to integral ones and the product scaled
    back, so that the kernel multiplies ints: the same element, several
    times faster over Q than on Fractions."""
    scales = [
        math.lcm(*(c.denominator for c in x.terms.values()))
        if x.terms and all(type(c) in (int, Fraction) for c in x.terms.values())
        else 1
        for x in factors
    ]
    product = reduce(mul, (x.scaled(s) if s > 1 else x for x, s in zip(factors, scales)))
    scale = math.prod(scales)
    return product.scaled(Fraction(1, scale)) if scale > 1 else product


def agree(report, printed) -> list:
    """Assert that each entry of ``report`` has the printed status, and a
    difference witness the printed label and difference; returns the ids
    compared.  A suite skipped whole after a failed premise is left out."""
    compared = []
    for entry in report.entries:
        if entry["check_id"] in SUITES:
            continue
        verdict = printed[entry["check_id"]]
        assert entry["status"] == verdict.status, entry["check_id"]
        if "difference" in entry.get("witness", ()):
            expected = difference_witness(verdict.lhs, verdict.rhs, basis=verdict.label)
            assert entry["witness"] == expected, entry["check_id"]
        compared.append(entry["check_id"])
    return compared


def _sign(odd):
    return -1 if odd else 1


def _inverse(twistor):
    """A twistor's declared inverse, else the computed one."""
    if twistor.declared_inverse is not None:
        return twistor.declared_inverse
    return invert_tensor_element(twistor.element)


class Printed:
    """The printed forms over one structure H, with the twistors F and G of
    the transform ids; derived elements are computed once per instance."""

    def __init__(self, H, F=None, G=None):
        self.H, self.F, self.G = H, F, G
        self.alg, self.phi, self.R = H.algebra, H.phi, H.r_matrix
        self.par, self.dim = self.alg.parity, range(self.alg.dimension)
        self.b = [TensorElement.basis(self.alg, (i,)) for i in self.dim]
        self.S = H.antipode.images
        self.memo = {}

    def __getitem__(self, check_id) -> Verdict:
        form = CHECKS[check_id](self)
        if form is None:
            return Verdict("skipped")
        if isinstance(form, bool):
            return Verdict("pass" if form else "fail")
        for label, lhs, rhs in form:
            if lhs != rhs:
                return Verdict("fail", label, lhs, rhs)
        return Verdict("pass")

    # -- elements, maps and sums -----------------------------------------------

    def one(self, arity):
        return TensorElement.unit(self.alg, arity)

    def dl(self, x, leg=0):
        return apply_map_legs(x, leg, self.H.delta)

    def eps(self, x, leg=0):
        return apply_map_legs(x, leg, self.H.epsilon)

    def scalar(self, x):
        return self.eps(x).scalar_value()

    def total(self, arity, pairs):
        """The sum of c x over the (x, c) pairs."""
        terms = {}
        for x, c in pairs:
            for w, v in x.terms.items():
                terms[w] = terms[w] + v * c if w in terms else v * c
        return TensorElement(self.alg, arity, terms)

    def kept(self, key, *factors):
        """``chain(*factors)``, computed once per structure under ``key``."""
        if key not in self.memo:
            self.memo[key] = chain(*factors)
        return self.memo[key]

    def middles(self, x, lone, middle):
        """{v: the sum of c middle(*rest) over the words of x with leg
        ``lone`` equal to v}, rest being the other two legs in order."""
        split = {}
        for w, c in x.terms.items():
            split.setdefault(w[lone], []).append((middle(*w[:lone], *w[lone + 1 :]), c))
        return {v: self.total(1, pairs) for v, pairs in split.items()}

    def s_alpha(self, p, q):
        """S(e_p) alpha e_q."""
        return self.kept(("A", p, q), self.S[p], self.H.alpha, self.b[q])

    def beta_s(self, p, q):
        """e_p beta S(e_q)."""
        return self.kept(("B", p, q), self.b[p], self.H.beta, self.S[q])

    def m_alpha(self, x):
        """The sum of c S(x_1) alpha x_2 over the words of x."""
        return self.total(1, ((self.s_alpha(*w), c) for w, c in x.terms.items()))

    def m_beta(self, x):
        """The sum of c x_1 beta S(x_2) over the words of x."""
        return self.total(1, ((self.beta_s(*w), c) for w, c in x.terms.items()))

    def ss_delta_t(self, x):
        """(S (x) S) T Delta(x)."""
        s = self.H.antipode
        return apply_map_legs(apply_map_legs(permute_legs(self.dl(x), (1, 0)), 0, s), 1, s)

    def delta_prime(self, x):
        """Delta'(x) = (S (x) S) T Delta S^{-1}(x)."""
        return self.ss_delta_t(apply_map_legs(x, 0, self.s_inv))

    def parity(self, word):
        return sum(self.par[k] for k in word) % 2

    def even(self, x):
        return all(self.parity(w) == 0 for w in x.terms)

    def invertible(self, inverse):
        """Whether ``inverse()`` builds."""
        try:
            inverse()
        except SingularError:
            return False
        return True

    def counit_legs(self, x, expected):
        return self.eps(x, 0) == expected and self.eps(x, 1) == expected

    def inverse_sides(self, x, x_inv):
        one = self.one(x.arity)
        return [("left", x_inv * x, one), ("right", x * x_inv, one)]

    def each_a(self, sides):
        return ((a, *sides(a, da)) for a, da in enumerate(self.coproducts))

    def with_r(self, form):
        return None if self.R is None else form()

    @cached_property
    def inv(self):
        return invert_tensor_element(self.phi)

    @cached_property
    def r_inv(self):
        return invert_tensor_element(self.R)

    @cached_property
    def s_inv(self):
        return invert_structure_map(self.H.antipode)

    @cached_property
    def coproducts(self):
        return [self.dl(e) for e in self.b]

    @cached_property
    def ss_delta_ts(self):
        return [self.ss_delta_t(e) for e in self.b]

    @cached_property
    def delta_primes(self):
        return [self.delta_prime(e) for e in self.b]

    # -- the suites -------------------------------------------------------------

    def graded(self):
        b, par = self.b, self.par
        products = ((i, j, b[i] * b[j]) for i in self.dim for j in self.dim)
        return all(
            self.parity(w) == (par[i] + par[j]) % 2 for i, j, x in products for w in x.terms
        )

    def hom(self, f):
        b, d = self.b, len(self.b)

        def on(x):
            return apply_map_legs(x, 0, f)

        cases = ((i, j) for i in self.dim for j in self.dim)
        return ((i * d + j, on(b[i] * b[j]), on(b[i]) * on(b[j])) for i, j in cases)

    def antihom(self):
        b, S, par, s = self.b, self.S, self.par, self.H.antipode
        cases = ((i, j) for i in self.dim for j in self.dim)
        return (
            (
                [i, j],
                apply_map_legs(b[i] * b[j], 0, s),
                (S[j] * S[i]).scaled(_sign(par[i] * par[j])),
            )
            for i, j in cases
        )

    def lemma11_sides(self, which, a):
        """Both sides of one exchange identity for a = e_a, with the printed
        signs, over the words of Phi (11i, 11ii) or Phi^{-1} (11iii, 11iv)
        grouped by the lone leg v with middle M_v; a_1 (x) a_2 (x) a_3 is
        (Delta (x) 1)Delta(a) in 11i and 11iii, (1 (x) Delta)Delta(a) else:

            11i    sum (-1)^{|a||v|} e_v a (x) M_v
                   = sum (-1)^{|v||a_2|} a_1 e_v (x) a_2 M_v S(a_3),   M = Y beta S(Z)
            11ii   sum (-1)^{|a||v|} M_v (x) a e_v
                   = sum (-1)^{|v||a_2|} S(a_1) M_v a_2 (x) e_v a_3,   M = S(X) alpha Y
            11iii  sum a e_v (x) M_v
                   = sum (-1)^{|v||a_1 a_2|} e_v a_1 (x) S(a_2) M_v a_3,   M = S(Y) alpha Z
            11iv   sum M_v (x) e_v a
                   = sum (-1)^{|v||a_2 a_3|} a_1 M_v S(a_2) (x) a_3 e_v,   M = X beta S(Y)
        """
        b, S, p, k = self.b, self.S, self.par, self.kept

        def ee(i, j):
            return k((i, j), b[i], b[j])

        # per identity: Phi or Phi^{-1}, the lone leg, M from the other two
        # legs, the lhs term and its sign, the rhs term and its sign
        x, lone, middle, lhs, rhs = {
            "11i": (
                self.phi, 0, self.beta_s,
                lambda v, m: (outer(ee(v, a), m), p[a] and p[v]),
                lambda v, m, u, w, t: (
                    outer(ee(u, v), k((w, "i", v, t), b[w], m, S[t])), p[v] and p[w]
                ),
            ),
            "11ii": (
                self.phi, 2, self.s_alpha,
                lambda v, m: (outer(m, ee(a, v)), p[a] and p[v]),
                lambda v, m, u, w, t: (
                    outer(k((u, "ii", v, w), S[u], m, b[w]), ee(v, t)), p[v] and p[w]
                ),
            ),
            "11iii": (
                self.inv, 0, self.s_alpha,
                lambda v, m: (outer(ee(a, v), m), 0),
                lambda v, m, u, w, t: (
                    outer(ee(v, u), k((w, "iii", v, t), S[w], m, b[t])), p[v] and p[u] ^ p[w]
                ),
            ),
            "11iv": (
                self.inv, 2, self.beta_s,
                lambda v, m: (outer(m, ee(v, a)), 0),
                lambda v, m, u, w, t: (
                    outer(k((u, "iv", v, w), b[u], m, S[w]), ee(t, v)), p[v] and p[w] ^ p[t]
                ),
            ),
        }[which]
        if which not in self.memo:
            self.memo[which] = self.middles(x, lone, middle)
        M = self.memo[which]
        sweedler = self.dl(self.coproducts[a], 0 if lone == 0 else 1).terms.items()
        left = (lhs(v, m) for v, m in M.items())
        right = (rhs(v, m, *word) + (c,) for v, m in M.items() for word, c in sweedler)
        return (
            self.total(2, ((y, _sign(odd)) for y, odd in left)),
            self.total(2, ((y, c * _sign(odd)) for y, odd, c in right)),
        )

    def eta_absorption(self, contract, from_left):
        """contract(Delta(a) eta) (eta Delta(a) from the right) against
        eps(a) contract(eta), eta = e_i (x) e_j, labelled [a, i, j], a fastest."""
        for i in self.dim:
            for j in self.dim:
                eta = TensorElement.basis(self.alg, (i, j))
                base = contract(eta)
                for a, da in enumerate(self.coproducts):
                    stacked = da * eta if from_left else eta * da
                    yield [a, i, j], contract(stacked), base.scaled(self.scalar(self.b[a]))

    def five(self, which):
        """eq.5i1 and eq.5i per a; eq.5ii1, the sum of S(X) alpha Y beta
        S(Z) over Phi, and eq.5ii, of Xbar beta S(Ybar) alpha Zbar over Phi^{-1}."""
        S, b, al, be = self.S, self.b, self.H.alpha, self.H.beta
        if which in ("5i1", "5i"):
            contract, g = (self.m_alpha, al) if which == "5i1" else (self.m_beta, be)
            return self.each_a(lambda a, da: (contract(da), g.scaled(self.scalar(b[a]))))
        if which == "5ii1":
            words = self.phi.terms.items()
            pairs = ((chain(S[x], al, b[y], be, S[z]), c) for (x, y, z), c in words)
        else:
            words = self.inv.terms.items()
            pairs = ((chain(b[x], be, S[y], al, b[z]), c) for (x, y, z), c in words)
        return [(None, self.total(1, pairs), self.one(1))]

    def pentagon(self, n):
        """eq.6.1i-iv: a factor against its printed chain of four."""
        phi, inv, dl = self.phi, self.inv, self.dl

        def left(x):
            return embed_legs(x, (0, 1, 2), 4)

        def right(x):
            return embed_legs(x, (1, 2, 3), 4)

        lhs, factors = (
            (left(phi), (dl(phi, 0), dl(phi, 2), right(inv), dl(inv, 1))),
            (right(phi), (dl(inv, 1), left(inv), dl(phi, 0), dl(phi, 2))),
            (left(inv), (dl(phi, 1), right(phi), dl(inv, 2), dl(inv, 0))),
            (right(inv), (dl(inv, 2), dl(inv, 0), left(phi), dl(phi, 1))),
        )[n]
        return [(None, lhs, chain(*factors))]

    def hexagon(self, which):
        """eq.6ii, eq.6iii and eq.7, with x_w = permute_legs(x, w) and R_pq
        = R on legs p, q of three."""
        R, phi, inv, w = self.R, self.phi, self.inv, permute_legs
        r01, r02, r12 = (embed_legs(R, legs, 3) for legs in ((0, 1), (0, 2), (1, 2)))
        if which == "6ii":
            rhs = chain(w(inv, (1, 2, 0)), r02, w(phi, (0, 2, 1)), r12, inv)
            return [(None, self.dl(R, 0), rhs)]
        if which == "6iii":
            rhs = chain(w(phi, (2, 0, 1)), r02, w(inv, (1, 0, 2)), r01, phi)
            return [(None, self.dl(R, 1), rhs)]
        lhs = chain(r01, w(inv, (1, 2, 0)), r02, w(phi, (0, 2, 1)), r12, inv)
        rhs = chain(w(inv, (2, 1, 0)), r12, w(phi, (2, 0, 1)), r02, w(inv, (1, 0, 2)), r01)
        return [(None, lhs, rhs)]

    # -- transforms -----------------------------------------------------------------

    def twisted(self, f, f_inv):
        """(F Delta F^{-1}, eps, (F (x) 1)(Delta (x) 1)F Phi (1 (x) Delta)F^{-1}
        (1 (x) F^{-1}), S, sum S(fbar_1) alpha fbar_2, sum f_1 beta S(f_2),
        F_21 R F^{-1})."""
        f01, f_inv12 = embed_legs(f, (0, 1), 3), embed_legs(f_inv, (1, 2), 3)
        return self.H.replace(
            delta=StructureMap(self.alg, 2, [chain(f, da, f_inv) for da in self.coproducts]),
            phi=chain(f01, self.dl(f, 0), self.phi, self.dl(f_inv, 1), f_inv12),
            alpha=self.m_alpha(f_inv),
            beta=self.m_beta(f),
            r_matrix=None if self.R is None else chain(permute_legs(f, (1, 0)), self.R, f_inv),
        )

    def opposite(self):
        """(T Delta, eps, Phi^{-1}_321, S^{-1}, S^{-1}(alpha), S^{-1}(beta), R_21)."""
        H, s_inv = self.H, self.s_inv
        return H.replace(
            delta=StructureMap(self.alg, 2, [permute_legs(da, (1, 0)) for da in self.coproducts]),
            phi=permute_legs(self.inv, (2, 1, 0)),
            antipode=s_inv,
            alpha=apply_map_legs(H.alpha, 0, s_inv),
            beta=apply_map_legs(H.beta, 0, s_inv),
            r_matrix=None if self.R is None else permute_legs(self.R, (1, 0)),
        )

    @cached_property
    def primed(self):
        """(Delta', eps, (S (x) S (x) S)Phi_321, S, S(beta), S(alpha), (S (x) S)R)."""
        H = self.H

        def on_each_leg(x):
            return reduce(lambda y, leg: apply_map_legs(y, leg, H.antipode), range(x.arity), x)

        return H.replace(
            delta=StructureMap(self.alg, 2, self.delta_primes),
            phi=on_each_leg(permute_legs(self.phi, (2, 1, 0))),
            alpha=on_each_leg(H.beta),
            beta=on_each_leg(H.alpha),
            r_matrix=None if self.R is None else on_each_leg(self.R),
        )

    @cached_property
    def prime_pair(self):
        """The primed structure and the twist by eps(alpha) F_D: the twist
        by F_D with alpha scaled by eps(beta) and beta by eps(alpha)."""
        tw, H = self.f_d_twisted, self.H
        alpha, beta = tw.alpha.scaled(self.scalar(H.beta)), tw.beta.scaled(self.scalar(H.alpha))
        return self.primed, tw.replace(alpha=alpha, beta=beta)

    @cached_property
    def twist_pairs(self):
        """Twisting by F then G against twisting by GF; the opposite of the
        twist by F against the twist of the opposite by F_21."""
        F, G = self.F, self.G
        f, f_inv, gf = F.element, _inverse(F), chain(G.element, F.element)
        once = self.twisted(gf, invert_tensor_element(gf))
        tf = Printed(self.twisted(f, f_inv))
        twice = tf.twisted(G.element, _inverse(G))
        f21, f21_inv = permute_legs(f, (1, 0)), permute_legs(f_inv, (1, 0))
        flipped = Printed(self.opposite()).twisted(f21, f21_inv)
        return {"twist-composition": (twice, once), "prop6": (tf.opposite(), flipped)}

    def compared(self, prefix, part):
        """One component of two structures: the coproduct per basis a, or
        one element; R is skipped when both lack one and fails when one does."""
        prime = prefix == "drinfeld.prime-equivalence"
        A, B = self.prime_pair if prime else self.twist_pairs[prefix]
        if part == "delta":
            return ((a, A.delta.images[a], B.delta.images[a]) for a in self.dim)
        if part == "r" and (A.r_matrix is None or B.r_matrix is None):
            return None if A.r_matrix is B.r_matrix else False
        name = "r_matrix" if part == "r" else part
        return [(None, getattr(A, name), getattr(B, name))]

    @cached_property
    def r_twisted(self):
        return self.twisted(self.R, self.r_inv)

    # -- the Drinfeld twist ---------------------------------------------------------

    def gamma_post(self, w4):
        """The sum of S(w_1) alpha w_2 (x) S(w_0) alpha w_3 over the words of
        w4, each signed by the permutation that orders its legs so."""
        words = permute_legs(w4, (1, 2, 0, 3)).terms.items()
        pairs = ((outer(self.s_alpha(i, j), self.s_alpha(k, m)), c) for (i, j, k, m), c in words)
        return self.total(2, pairs)

    def gamma_bar_post(self, w4):
        """The sum of w_0 beta S(w_3) (x) w_1 beta S(w_2) over the words of w4."""
        words = permute_legs(w4, (0, 3, 1, 2)).terms.items()
        pairs = ((outer(self.beta_s(i, j), self.beta_s(k, m)), c) for (i, j, k, m), c in words)
        return self.total(2, pairs)

    @cached_property
    def gamma(self):
        """From (Phi^{-1} (x) 1)(Delta (x) 1 (x) 1)Phi."""
        return self.gamma_post(chain(embed_legs(self.inv, (0, 1, 2), 4), self.dl(self.phi, 0)))

    @cached_property
    def gamma_bar(self):
        """From (Delta (x) 1 (x) 1)Phi^{-1} (Phi (x) 1)."""
        return self.gamma_bar_post(chain(self.dl(self.inv, 0), embed_legs(self.phi, (0, 1, 2), 4)))

    def phi_sum(self, x, lone, middle, term):
        """The sum over the words of x of term(lone leg, middle of the other two)."""
        return self.total(2, ((term(v, m), 1) for v, m in self.middles(x, lone, middle).items()))

    @cached_property
    def f_d(self):
        """The sum over Phi of (S (x) S)Delta^T(X) gamma Delta(Y beta S(Z))."""
        return self.phi_sum(
            self.phi,
            0,
            self.beta_s,
            lambda v, m: chain(self.ss_delta_ts[v], self.gamma, self.dl(m)),
        )

    @cached_property
    def f_d_inverse(self):
        """The sum over Phi^{-1} of Delta(Xbar) gamma-bar Delta'(S(Ybar) alpha Zbar)."""
        return self.phi_sum(
            self.inv,
            0,
            self.s_alpha,
            lambda v, m: chain(self.coproducts[v], self.gamma_bar, self.delta_prime(m)),
        )

    def alt(self, which):
        """altexpr.fd, the sum over Phi^{-1} of Delta'(Xbar beta S(Ybar))
        gamma Delta(Zbar); altexpr.fd-inverse, the sum over Phi of
        Delta(S(X) alpha Y) gamma-bar (S (x) S)Delta^T(Z)."""
        if which == "fd":
            alt = self.phi_sum(
                self.inv,
                2,
                self.beta_s,
                lambda v, m: chain(self.delta_prime(m), self.gamma, self.coproducts[v]),
            )
            return [(None, alt, self.f_d)]
        alt = self.phi_sum(
            self.phi,
            2,
            self.s_alpha,
            lambda v, m: chain(self.dl(m), self.gamma_bar, self.ss_delta_ts[v]),
        )
        return [(None, alt, self.f_d_inverse)]

    def gamma_absorption(self, g, left, right):
        """For each a, the sum over Delta(a) of left(a_1) g right(a_2),
        grouped by a_1, against eps(a) g; left and right hold the images of
        the basis."""
        for a, da in enumerate(self.coproducts):
            grouped = {}
            for (j, k), c in da.terms.items():
                grouped.setdefault(j, []).append((right[k], c))
            pairs = ((chain(left[j], g, self.total(2, r)), 1) for j, r in grouped.items())
            yield a, self.total(2, pairs), g.scaled(self.scalar(self.b[a]))

    @cached_property
    def f_d_twisted(self):
        return self.twisted(self.f_d, self.f_d_inverse)

    def star(self, which):
        """eq.star and eq.sstar, with the primed Phi'."""
        F, g, dl, phi_p = self.f_d, self.gamma, self.dl, self.primed.phi
        f01, f12 = embed_legs(F, (0, 1), 3), embed_legs(F, (1, 2), 3)
        if which == "star":
            return [(None, chain(phi_p, f12, dl(F, 1)), chain(f01, dl(F, 0), self.phi))]
        lhs = chain(invert_tensor_element(phi_p), f01, dl(g, 0))
        return [(None, lhs, chain(f12, dl(g, 1), self.inv))]


QUASI_TRIANGULAR = ("eq.6i", "eq.6ii", "eq.6iii", "eq.r-counit")


def _table():
    def one_scalar(p):
        return TensorElement.from_scalar(p.alg, p.alg.field.one())

    def eps_alpha_beta(p):
        one, al, be = p.alg.field.one(), p.H.alpha, p.H.beta
        return p.scalar(al) * p.scalar(be) == one and p.scalar(al * be) == one

    checks = {
        # algebra, structure
        "algebra.grading": lambda p: p.graded(),
        "algebra.unit": lambda p: (
            (i, y, e) for i, e in enumerate(p.b) for y in (p.one(1) * e, e * p.one(1))
        ),
        "algebra.assoc": lambda p: (
            ([i, j, k], chain(p.b[i], p.b[j], p.b[k]), p.b[i] * (p.b[j] * p.b[k]))
            for i in p.dim
            for j in p.dim
            for k in p.dim
        ),
        "structure.delta-unit": lambda p: [(None, p.dl(p.one(1)), p.one(2))],
        "structure.epsilon-unit": lambda p: [(None, p.eps(p.one(1)), one_scalar(p))],
        "structure.antipode-unit": lambda p: [
            (None, apply_map_legs(p.one(1), 0, p.H.antipode), p.one(1))
        ],
        "structure.antipode-antihom": lambda p: p.antihom(),
        "structure.antipode-bijective": lambda p: p.invertible(lambda: p.s_inv),
        "structure.phi-invertible": lambda p: p.invertible(lambda: p.inv),
        "structure.r-even": lambda p: p.with_r(lambda: p.even(p.R)),
        "structure.r-invertible": lambda p: p.with_r(lambda: p.invertible(lambda: p.r_inv)),
        # quasi-bialgebra, antipode
        "eq.fi": lambda p: p.each_a(
            lambda a, da: (p.dl(da, 1), chain(p.inv, p.dl(da, 0), p.phi))
        ),
        "eq.fii": lambda p: [
            (
                None,
                chain(p.dl(p.phi, 0), p.dl(p.phi, 2)),
                chain(
                    embed_legs(p.phi, (0, 1, 2), 4), p.dl(p.phi, 1), embed_legs(p.phi, (1, 2, 3), 4)
                ),
            )
        ],
        "eq.fiii": lambda p: (
            (a, p.eps(da, leg), p.b[a]) for a, da in enumerate(p.coproducts) for leg in (0, 1)
        ),
        "eq.eps-alpha-beta": eps_alpha_beta,
        "eq.eps-s": lambda p: ((a, p.eps(p.S[a]), p.eps(e)) for a, e in enumerate(p.b)),
        # eta, quasi-triangular, triangular
        "eq.lem5i": lambda p: p.eta_absorption(p.m_alpha, True),
        "eq.lem5ii": lambda p: p.eta_absorption(p.m_beta, False),
        "eq.6i": lambda p: p.with_r(
            lambda: p.each_a(lambda a, da: (permute_legs(da, (1, 0)) * p.R, p.R * da))
        ),
        "eq.r-counit": lambda p: p.with_r(lambda: p.counit_legs(p.R, p.one(1))),
        "eq.triangular": lambda p: p.with_r(lambda: [(None, p.r_inv, permute_legs(p.R, (1, 0)))]),
        # drinfeld_construction: gamma and gamma-bar against their second forms
        "drinfeld.gamma-alt": lambda p: [
            (None, p.gamma, p.gamma_post(chain(embed_legs(p.phi, (1, 2, 3), 4), p.dl(p.inv, 2))))
        ],
        "eq.8.1": lambda p: p.gamma_absorption(p.gamma, p.ss_delta_ts, p.coproducts),
        "drinfeld.gamma-bar-alt": lambda p: [
            (
                None,
                p.gamma_bar,
                p.gamma_bar_post(chain(p.dl(p.phi, 2), embed_legs(p.inv, (1, 2, 3), 4))),
            )
        ],
        "eq.8.7": lambda p: p.gamma_absorption(p.gamma_bar, p.coproducts, p.ss_delta_ts),
        "drinfeld.fd-inverse": lambda p: p.inverse_sides(p.f_d, p.f_d_inverse),
        "drinfeld.fd-counit": lambda p: p.counit_legs(p.f_d, p.one(1).scaled(p.scalar(p.H.alpha))),
        # the theorem battery
        "eq.lem13.gamma": lambda p: [(None, p.f_d * p.dl(p.H.alpha), p.gamma)],
        "eq.lem13.gamma-bar": lambda p: [(None, p.dl(p.H.beta) * p.f_d_inverse, p.gamma_bar)],
        "eq.8.6a": lambda p: p.each_a(lambda a, da: (p.delta_primes[a] * p.f_d, p.f_d * da)),
        "eq.8.8a": lambda p: p.each_a(
            lambda a, da: (p.f_d_inverse * p.delta_primes[a], da * p.f_d_inverse)
        ),
        "thm2.conjugation": lambda p: p.each_a(
            lambda a, da: (p.delta_primes[a], chain(p.f_d, da, p.f_d_inverse))
        ),
        "altexpr.fd": lambda p: p.alt("fd"),
        "altexpr.fd-inverse": lambda p: p.alt("fd-inverse"),
        "thm3.phi": lambda p: [(None, p.primed.phi, p.f_d_twisted.phi)],
        "thm3.alpha": lambda p: [
            (None, p.f_d_twisted.alpha, p.primed.alpha.scaled(p.scalar(p.H.alpha)))
        ],
        "thm3.beta": lambda p: [
            (None, p.f_d_twisted.beta, p.primed.beta.scaled(p.scalar(p.H.beta)))
        ],
        "eq.star": lambda p: p.star("star"),
        "eq.sstar": lambda p: p.star("sstar"),
        "thm5.r": lambda p: p.with_r(lambda: [(None, p.primed.r_matrix, p.f_d_twisted.r_matrix)]),
        "eq.lem8": lambda p: p.with_r(
            lambda: [(None, p.primed.r_matrix * p.gamma, permute_legs(p.gamma, (1, 0)) * p.R)]
        ),
        "prop8.quasi-triangular": lambda p: p.with_r(
            lambda: all(Printed(p.primed)[i].status == "pass" for i in QUASI_TRIANGULAR)
        ),
        # check_twistor, check_cocycle, verify_twist_by_r
        "twistor.invertible": lambda p: (
            p.invertible(lambda: invert_tensor_element(p.F.element))
            if p.F.declared_inverse is None
            else p.inverse_sides(p.F.element, p.F.declared_inverse)
        ),
        "twistor.even": lambda p: p.even(p.F.element),
        "eq.cup": lambda p: p.counit_legs(p.F.element, p.one(1)),
        "eq.ccc": lambda p: [
            (
                None,
                embed_legs(p.F.element, (0, 1), 3) * p.dl(p.F.element, 0),
                embed_legs(p.F.element, (1, 2), 3) * p.dl(p.F.element, 1),
            )
        ],
        "twist-by-r.delta": lambda p: p.with_r(
            lambda: p.each_a(lambda a, da: (p.r_twisted.delta.images[a], permute_legs(da, (1, 0))))
        ),
        "twist-by-r.phi": lambda p: p.with_r(
            lambda: [(None, p.r_twisted.phi, permute_legs(p.inv, (2, 1, 0)))]
        ),
        "twist-by-r.r": lambda p: p.with_r(
            lambda: [(None, p.r_twisted.r_matrix, permute_legs(p.R, (1, 0)))]
        ),
        "twist-by-r.alpha-beta": lambda p: p.with_r(lambda: True),
    }
    for name in ("delta", "epsilon"):
        checks[f"structure.{name}-hom"] = lambda p, name=name: p.hom(getattr(p.H, name))
    for name in ("delta", "epsilon", "antipode"):
        checks[f"structure.{name}-parity"] = lambda p, name=name: all(
            p.parity(w) == p.par[i]
            for i, x in enumerate(getattr(p.H, name).images)
            for w in x.terms
        )
    for name in ("phi", "alpha", "beta"):
        checks[f"structure.{name}-even"] = lambda p, name=name: p.even(getattr(p.H, name))
    for name, leg in (("eq.phi-counit-left", 0), ("eq.fiv", 1), ("eq.phi-counit-right", 2)):
        checks[name] = lambda p, leg=leg: [(None, p.eps(p.phi, leg), p.one(2))]
    for which in ("5i1", "5i", "5ii1", "5ii"):
        checks[f"eq.{which}"] = lambda p, which=which: p.five(which)
    for n, which in enumerate(("i", "ii", "iii", "iv")):
        checks[f"eq.6.1{which}"] = lambda p, n=n: p.pentagon(n)
    for which in ("11i", "11ii", "11iii", "11iv"):
        checks[f"eq.{which}"] = lambda p, which=which: (
            (a, *p.lemma11_sides(which, a)) for a in p.dim
        )
    for which in ("6ii", "6iii", "7"):
        checks[f"eq.{which}"] = lambda p, which=which: p.with_r(lambda: p.hexagon(which))
    for prefix in ("drinfeld.prime-equivalence", "twist-composition", "prop6"):
        for part in ("delta", "phi", "alpha", "beta", "r"):
            checks[f"{prefix}.{part}"] = lambda p, key=(prefix, part): p.compared(*key)
    return checks


# check id -> its printed form: a function of a ``Printed`` that returns the
# cases (label, lhs, rhs) in label order, a bool, or None when it is skipped
CHECKS = _table()
