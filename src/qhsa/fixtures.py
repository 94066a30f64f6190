"""Programmatic builders for the bundled fixtures and twistors.

A builder writes its structure's document as the dict that
``qhsa.documents.parse_structure_document`` returns, with rows of ``(i, j, k,
scalar)`` tuples, and builds the structure with ``document_to_structure``,
the same path that reads a ``.qhsa`` file.
The data files under ``qhsa/fixtures/`` are generated from these builders and
kept byte-identical to them (there is a test for that).  Positive fixtures,
in increasing order of spice:

- trivial: the one-dimensional structure, everything is the identity;
- ext: the exterior algebra on one odd generator theta (a Hopf superalgebra),
  with the triangular R-matrix 1 (x) 1 + theta (x) theta;
- h2: two even orthogonal idempotents with the sign three-cocycle
  coassociator 1 - 2 e1 (x) e1 (x) e1 and alpha = e0 - e1;
- h2r: h2 over Q(zeta_4) with the quasi-triangular R-matrix whose (1,1)
  coefficient is zeta_4;
- h2ext: the graded tensor product h2 (x) ext, which has both a nontrivial
  coassociator and odd basis elements, so Koszul signs really bite.

Negatives are labeled with the single check they are built to violate.
"""

from __future__ import annotations

from itertools import product

from .algebra import TensorElement
from .documents import document_to_structure
from .scalars import Cyclotomic, FieldSpec
from .structure import QhsaStructure
from .transforms import Twistor, tensor_product_structure


def trivial_structure(field=None) -> QhsaStructure:
    return document_to_structure(
        {
            "name": "trivial",
            "field": field or FieldSpec.rational(),
            "dimension": 1,
            "parity": (0,),
            "unit": (1,),
            "mult": ((0, 0, 0, 1),),
            "delta": ((0, 0, 0, 1),),
            "epsilon": (1,),
            "antipode": ((0, 0, 1),),
            "phi": ((0, 0, 0, 1),),
            "alpha": (1,),
            "beta": (1,),
        }
    )


def ext_structure(field=None) -> QhsaStructure:
    """Exterior algebra on one odd theta: basis (1, theta), theta^2 = 0, with
    the R-matrix 1 (x) 1 + theta (x) theta."""
    return document_to_structure(
        {
            "name": "ext",
            "field": field or FieldSpec.rational(),
            "dimension": 2,
            "parity": (0, 1),
            "unit": (1, 0),
            "mult": ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)),
            "delta": ((0, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 1)),
            "epsilon": (1, 0),
            "antipode": ((0, 0, 1), (1, 1, -1)),
            "phi": ((0, 0, 0, 1),),
            "alpha": (1, 0),
            "beta": (1, 0),
            "r": ((0, 0, 1), (1, 1, 1)),
        }
    )


def h2_structure(field=None, with_r=False) -> QhsaStructure:
    """Two orthogonal idempotents e0, e1 (both even) with the sign-cocycle
    coassociator.  The R-matrix needs zeta_4, so it only exists over a
    cyclotomic field of order divisible by 4."""
    field = field or FieldSpec.rational()
    doc = {
        "name": "h2r" if with_r else "h2",
        "field": field,
        "dimension": 2,
        "parity": (0, 0),
        "unit": (1, 1),
        "mult": ((0, 0, 0, 1), (1, 1, 1, 1)),
        "delta": ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)),
        "epsilon": (1, 0),
        "antipode": ((0, 0, 1), (1, 1, 1)),
        "phi": tuple(w + (-1 if w == (1, 1, 1) else 1,) for w in product((0, 1), repeat=3)),
        "alpha": (1, -1),
        "beta": (1, 1),
    }
    if with_r:
        if field.kind != "cyclotomic" or field.order % 4 != 0:
            raise ValueError("the h2 R-matrix needs zeta_4 in the field")
        z4 = Cyclotomic(field.order, [0] * (field.order // 4) + [1])
        doc["r"] = ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, z4))
    return document_to_structure(doc)


def h2r_structure() -> QhsaStructure:
    return h2_structure(FieldSpec.cyclotomic(4), with_r=True)


def h2ext_structure() -> QhsaStructure:
    """Graded tensor product h2 (x) ext; the ext R-matrix plays no role
    because every canonical element comes from the nontrivial factor."""
    return tensor_product_structure(h2_structure(), ext_structure())


def h2_broken_pentagon() -> QhsaStructure:
    """h2 with the coassociator support moved off the diagonal: the pentagon
    breaks, and with it everything the sign of phi(1,1,1) feeds."""
    H = h2_structure()
    phi = {w: -1 if w == (1, 1, 0) else 1 for w in product((0, 1), repeat=3)}
    return H.replace(phi=TensorElement(H.algebra, 3, phi))


def h2_broken_antipode() -> QhsaStructure:
    """h2 with alpha flattened to 1; the canonical-element axioms fail."""
    H = h2_structure()
    return H.replace(alpha=TensorElement(H.algebra, 1, {(0,): 1, (1,): 1}))


# -- bundled twistors -----------------------------------------------------------


def twistor_e11(field=None) -> Twistor:
    """1 (x) 1 + e1 (x) e1 on h2 (or h2r when built over Q(zeta_4))."""
    H = h2_structure(field)
    return Twistor(H.unit(2) + TensorElement(H.algebra, 2, {(1, 1): 1}))


def twistor_theta() -> Twistor:
    """1 (x) 1 + theta (x) theta on ext; coincides with the R-matrix."""
    H = ext_structure()
    return Twistor(H.unit(2) + TensorElement(H.algebra, 2, {(1, 1): 1}))


def twistor_u11() -> Twistor:
    """1 (x) 1 + u1 (x) u1 on h2ext, u1 = e1 (x) theta (flat index 3).

    A valid twistor that violates the cocycle identity, unlike every twistor
    on h2 itself (there any even element with unit counit legs is diagonal in
    the idempotent basis, and diagonal twistors are automatically cocycles).
    """
    H = h2ext_structure()
    return Twistor(H.unit(2) + TensorElement(H.algebra, 2, {(3, 3): 1}))


def twistor_one(H: QhsaStructure) -> Twistor:
    return Twistor(H.unit(2), H.unit(2))


# structure name -> builder: the positive fixtures, then the negatives
STRUCTURE_BUILDERS = {
    "trivial": trivial_structure,
    "ext": ext_structure,
    "h2": h2_structure,
    "h2r": h2r_structure,
    "h2ext": h2ext_structure,
    "h2-broken-pentagon": h2_broken_pentagon,
    "h2-broken-antipode": h2_broken_antipode,
}

# negative name -> (suite of the labeled check, labeled check id)
NEGATIVE_FIXTURES = {
    "h2-broken-pentagon": ("quasi-bialgebra", "eq.fii"),
    "h2-broken-antipode": ("antipode", "eq.5ii"),
}

POSITIVE_FIXTURES = tuple(name for name in STRUCTURE_BUILDERS if name not in NEGATIVE_FIXTURES)

# twistor name -> (structure fixture it applies to, builder)
TWISTOR_BUILDERS = {
    "f-one": ("trivial", lambda: twistor_one(trivial_structure())),
    "f-e11": ("h2", twistor_e11),
    "f-e11-zeta4": ("h2r", lambda: twistor_e11(FieldSpec.cyclotomic(4))),
    "f-theta": ("ext", twistor_theta),
    "f-u11": ("h2ext", twistor_u11),
}


def build_structure(name: str) -> QhsaStructure:
    return STRUCTURE_BUILDERS[name]()


def build_twistor(name: str):
    """name -> (structure fixture it applies to, Twistor)."""
    target, fn = TWISTOR_BUILDERS[name]
    return target, fn()
