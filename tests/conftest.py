import importlib.util
import itertools
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import qhsa.algebra
from qhsa.algebra import StructureMap, TensorElement, interleave
from qhsa.cli import BUNDLED_DIR
from qhsa.documents import document_to_structure, parse_structure_document
from qhsa.fixtures import POSITIVE_FIXTURES, build_structure
from qhsa.scalars import FieldSpec
from qhsa.structure import run_suites
from qhsa.reporting import CheckReport
from qhsa.transforms import Twistor, _compare_structures, tensor_product_structure, twist_structure

from printed import outer

# tools/sweep.py, the byte-identity sweep, whose generated documents the CLI tests share
_spec = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).parent.parent / "tools" / "sweep.py"
)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


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


@pytest.fixture(scope="module", params=POSITIVE_FIXTURES)
def fixture_structure(request):
    return build_structure(request.param)


def fx(name):
    """The path of the bundled fixture file ``name``."""
    return str(BUNDLED_DIR / name)


def entry(report, check_id):
    """The first row of ``report`` for ``check_id``, or None."""
    return next((e for e in report.entries if e["check_id"] == check_id), None)


def twist_composition_check(H, F, G):
    """Twisting by F then by G equals twisting once by G*F, componentwise."""
    report = CheckReport()
    twice = twist_structure(twist_structure(H, F), G)
    once = twist_structure(H, Twistor(G.element * F.element))
    _compare_structures(report, "twist-composition", twice, once)
    return report


def suites_ok(H):
    return all(rep.ok for _, rep, _ in run_suites(H))


def multiplications(monkeypatch):
    """The arity of each ``tensor_multiply`` call from now on, in call order."""
    calls = []
    original = qhsa.algebra.tensor_multiply

    def counting(x, y):
        calls.append(x.arity)
        return original(x, y)

    monkeypatch.setattr(qhsa.algebra, "tensor_multiply", counting)
    return calls


def _odd_product(A, B, signed):
    """A (x) B with its antipode rebuilt here from interleave(S_A(a), S_B(b)),
    times (-1)^{|a||b|} when ``signed``."""
    T = tensor_product_structure(A, B)
    par_a, par_b = A.algebra.parity, B.algebra.parity
    images = [
        -s if signed and par_a[i] and par_b[j] else s
        for i, sa in enumerate(A.antipode.images)
        for j, sb in enumerate(B.antipode.images)
        for s in (interleave(sa, sb, T.algebra),)
    ]
    return T.replace(antipode=StructureMap(T.algebra, 1, images))


def ext_ext_graded_structure():
    """ext (x) ext with the graded antipode S_A (x) S_B: -1 on theta (x) 1
    and 1 (x) theta, +1 on theta (x) theta (flat index 3)."""
    return _odd_product(build_structure("ext"), build_structure("ext"), signed=False)


def signed_odd_product(A, B):
    """A (x) B with the antipode (-1)^{|a||b|} S_A(a) (x) S_B(b), which is
    not an antihomomorphism once both factors have an odd element: a
    failing structure whatever ``tensor_product_structure`` builds."""
    return _odd_product(A, B, signed=True)


@pytest.fixture(scope="session")
def ext_ext_graded():
    return ext_ext_graded_structure()


def ext_broken_grading():
    """ext with theta^2 = theta: grading additivity fails at (theta, theta),
    and every map is over that algebra."""
    doc = parse_structure_document((BUNDLED_DIR / "ext.qhsa").read_text())
    return document_to_structure({**doc, "mult": doc["mult"] + ((1, 1, 1, 1),)})


def kz2_structure():
    """k[Z2] in the basis {1, g}: g^2 = 1, Delta g = g (x) g, S g = g,
    eps g = 1, trivial coassociator and alpha = beta = 1.  Purely even."""
    return document_to_structure(
        {
            "name": "kz2",
            "field": FieldSpec.rational(),
            "dimension": 2,
            "parity": (0, 0),
            "unit": (1, 0),
            "mult": ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)),
            "delta": ((0, 0, 0, 1), (1, 1, 1, 1)),
            "epsilon": (1, 1),
            "antipode": ((0, 0, 1), (1, 1, 1)),
            "phi": ((0, 0, 0, 1),),
            "alpha": (1, 0),
            "beta": (1, 0),
        }
    )


def ks3_structure():
    """k[S3] in the basis of permutations of (0, 1, 2), in itertools order
    (the identity first): Delta g = g (x) g, S g = g^{-1}, eps g = 1,
    trivial coassociator and alpha = beta = 1.  Purely even, and not
    commutative, so alpha or beta off the centre breaks the eta lemma."""
    perms = list(itertools.permutations(range(3)))
    index = {g: k for k, g in enumerate(perms)}
    inverse = [index[tuple(sorted(range(3), key=g.__getitem__))] for g in perms]
    identity = (1,) + (0,) * 5
    return document_to_structure(
        {
            "name": "ks3",
            "field": FieldSpec.rational(),
            "dimension": 6,
            "parity": (0,) * 6,
            "unit": identity,
            "mult": tuple(
                (index[g], index[h], index[tuple(g[i] for i in h)], 1) for g in perms for h in perms
            ),
            "delta": tuple((k, k, k, 1) for k in range(6)),
            "epsilon": (1,) * 6,
            "antipode": tuple((k, inverse[k], 1) for k in range(6)),
            "phi": ((0, 0, 0, 1),),
            "alpha": identity,
            "beta": identity,
        }
    )


@lru_cache(maxsize=None)
def ks3_twist(s, t):
    """k[S3] with the R-matrix 1 (x) 1 (it is cocommutative), and F = 1 (x) 1
    + (g_s - 1) (x) (g_t - 1) (Drinfeld, "Quasi-Hopf algebras", 1990): even,
    with both counit legs 1, and no cocycle when g_s and g_t do not commute.
    Built once per (s, t)."""
    H = ks3_structure()
    one = H.unit(1)
    H = H.replace(r_matrix=H.unit(2))
    return H, Twistor(H.unit(2) + outer(H.basis(s) - one, H.basis(t) - one))


@lru_cache(maxsize=None)
def twisted_ks3(s, t):
    """k[S3] twisted by the F of ``ks3_twist(s, t)``: not supercommutative,
    with a Phi of 20 terms and R = F_21 F^{-1}, so the order of Phi, R, F_D
    and Delta(a) in a product shows.  Built once per (s, t), so that the
    reports of its checks can be kept with it."""
    return twist_structure(*ks3_twist(s, t))


@pytest.fixture(scope="session")
def kz2():
    return kz2_structure()


@pytest.fixture(scope="session")
def ks3():
    return ks3_structure()


def elem(H, arity, terms):
    """Expected-value helper: words -> int/Fraction coefficients."""
    return TensorElement(H.algebra, arity, {tuple(w): Fraction(c) for w, c in terms.items()})


def product(alg, i, j):
    """e_i e_j as {k: coefficient}, read from the cleaned table: the oracles'
    view of the product, independent of the kernel's ``product_rows``."""
    return alg.mult.get((i, j), {})


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
