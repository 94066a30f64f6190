import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from qhsa.algebra import GradedAlgebra, StructureMap, TensorElement
from qhsa.fixtures import build_structure
from qhsa.scalars import FieldSpec
from qhsa.structure import QhsaStructure
from qhsa.transforms import tensor_product_structure


@pytest.fixture(scope="session")
def trivial():
    return build_structure("trivial")


@pytest.fixture(scope="session")
def ext():
    return build_structure("ext")


@pytest.fixture(scope="session")
def h2():
    return build_structure("h2")


@pytest.fixture(scope="session")
def h2r():
    return build_structure("h2r")


@pytest.fixture(scope="session")
def h2ext():
    return build_structure("h2ext")


@pytest.fixture(scope="session")
def ext_ext_graded(ext):
    """ext (x) ext with the graded antipode S_A (x) S_B built by hand: -1 on
    theta (x) 1 and 1 (x) theta, +1 on theta (x) theta (flat index 3)."""
    T = tensor_product_structure(ext, ext)
    images = [elem(T, 1, {(k,): c}) for k, c in enumerate((1, -1, -1, 1))]
    return replace(T, antipode=StructureMap(T.algebra, 1, images))


@pytest.fixture(scope="session")
def kz2():
    """k[Z2] in the basis {1, g}: g^2 = 1, Delta g = g (x) g, S g = g,
    eps g = 1, trivial coassociator and alpha = beta = 1.  Purely even."""
    field = FieldSpec.rational()
    one = field.one()
    alg = GradedAlgebra(
        2,
        (0, 0),
        (one, field.zero()),
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: one}},
        field,
    )

    def element(arity, word):
        return TensorElement(alg, arity, {word: one})

    return QhsaStructure(
        alg,
        StructureMap(alg, 2, [element(2, (0, 0)), element(2, (1, 1))]),
        StructureMap(alg, 0, [element(0, ()), element(0, ())]),
        StructureMap(alg, 1, [element(1, (0,)), element(1, (1,))]),
        element(3, (0, 0, 0)),
        element(1, (0,)),
        element(1, (0,)),
    )


@pytest.fixture(scope="session")
def ks3():
    """k[S3] in the basis of permutations of (0, 1, 2), in itertools order
    (the identity first): Delta g = g (x) g, S g = g^{-1}, eps g = 1,
    trivial coassociator and alpha = beta = 1.  Purely even, and not
    commutative, so alpha or beta off the centre breaks the eta lemma."""
    field = FieldSpec.rational()
    one = field.one()
    perms = list(itertools.permutations(range(3)))
    index = {g: k for k, g in enumerate(perms)}
    mult = {
        (index[g], index[h]): {index[tuple(g[i] for i in h)]: one} for g in perms for h in perms
    }
    alg = GradedAlgebra(6, (0,) * 6, (one,) + (field.zero(),) * 5, mult, field)
    inverse = [index[tuple(sorted(range(3), key=g.__getitem__))] for g in perms]

    def element(arity, word):
        return TensorElement(alg, arity, {word: one})

    return QhsaStructure(
        alg,
        StructureMap(alg, 2, [element(2, (k, k)) for k in range(6)]),
        StructureMap(alg, 0, [element(0, ()) for _ in range(6)]),
        StructureMap(alg, 1, [element(1, (inverse[k],)) for k in range(6)]),
        element(3, (0, 0, 0)),
        element(1, (0,)),
        element(1, (0,)),
    )


def elem(H, arity, terms):
    """Expected-value helper: words -> int/Fraction coefficients."""
    field = H.algebra.field
    return TensorElement(
        H.algebra,
        arity,
        {tuple(w): field.from_fraction(Fraction(c)) for w, c in terms.items()},
    )


def structures_equal(A, B):
    return (
        A.algebra == B.algebra
        and A.delta == B.delta
        and A.epsilon == B.epsilon
        and A.antipode == B.antipode
        and A.phi == B.phi
        and A.alpha == B.alpha
        and A.beta == B.beta
        and A.r_matrix == B.r_matrix
    )


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for key in ("passed", "failed"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", None) == "call":
                rows.append((nodeid.split("::")[-1], key == "passed"))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, ok in sorted(rows):
            terminalreporter.write_line(f"{name}: {'PASS' if ok else 'FAIL'}")
