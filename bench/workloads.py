"""The benchmark's three workloads: fixed job lists of ``qhsa`` CLI calls.

Each workload is a closed loop of one client: a pass runs its jobs one after
another, in-process, through ``qhsa.cli.main``.  Generated inputs are built
from the library's public constructors, written with ``serialize_structure``
and then handed to the CLI, so they are verified like any other input.

- ``bundled``: every shipped fixture and twistor, the traffic the CLI sees
  today.  Dimension <= 4, so time spreads over parsing, reporting and small
  kernel calls; about a third of it is Q(zeta_4) arithmetic from h2r.
- ``cyclotomic``: h2 over Q(zeta_n), n in {8, 20}, twisted by a seeded
  diagonal twistor with a non-unit coefficient, and its graded product with
  ext.  Scalar arithmetic in Q(zeta_n) dominates.
- ``ladder``: over Q only.  The dimension-8 rung h2ext (x) k[Z2], whose dense
  512 x 512 inversion dominates, and two seeded random twists of h2ext, which
  are bound by ``tensor_multiply``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from qhsa.algebra import GradedAlgebra, StructureMap, TensorElement
from qhsa.documents import serialize_structure
from qhsa.fixtures import NEGATIVE_FIXTURES, ext_structure, h2_structure
from qhsa.scalars import Cyclotomic, FieldSpec
from qhsa.structure import QhsaStructure
from qhsa.transforms import Twistor, random_twistor, tensor_product_structure, twist_structure

EXIT_PASS = 0
EXIT_FAIL = 1

BUNDLED_STRUCTURES = (
    "trivial",
    "ext",
    "h2",
    "h2r",
    "h2ext",
    "h2-broken-pentagon",
    "h2-broken-antipode",
)
# twistor file -> structure it applies to
BUNDLED_TWISTORS = {
    "f-one": "trivial",
    "f-e11": "h2",
    "f-e11-zeta4": "h2r",
    "f-theta": "ext",
    "f-u11": "h2ext",
}
CYCLOTOMIC_ORDERS = (8, 20)
# A random twist of h2ext is drawn until its coassociator has exactly this
# many terms, so that seeds change the coefficients but not the amount of work.
LADDER_TWIST_PHI_TERMS = 18
LADDER_TWISTS = 2


@dataclass(frozen=True)
class Job:
    """One CLI call with the verdict the mathematics predicts for it."""

    command: str  # "check" | "drinfeld" | "transform": the metric it counts toward
    argv: tuple
    expect_exit: int
    output: str | None = None  # document the job writes, compared across passes
    expect_failing: str | None = None  # check id a labelled negative must fail
    # The program misses the verdict because of a known defect.  The job keeps
    # its verdict and still counts as failed; only other failures make a run
    # incorrect.
    known_defect: bool = False

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a not in ("--format", "json"))


def _check(path, expect_exit=EXIT_PASS, expect_failing=None):
    return Job("check", ("check", path, "--format", "json"), expect_exit, None, expect_failing)


def _drinfeld(path, verify=True, expect_exit=EXIT_PASS):
    argv = ("drinfeld", path) + (("--verify",) if verify else ()) + ("--format", "json")
    return Job("drinfeld", argv, expect_exit)


def _transform(path, kind, output, extra=(), expect_exit=EXIT_PASS, known_defect=False):
    argv = ("transform", path, kind) + tuple(extra) + ("--output", output, "--format", "json")
    return Job("transform", argv, expect_exit, output, known_defect=known_defect)


def bundled_jobs(work: Path, seed: int) -> list:
    """42 jobs over the shipped fixtures; ``seed`` is unused (nothing is drawn).

    The two labelled negatives exit 1 in every job, because each transform of
    a broken structure is broken too and ``drinfeld`` refuses a structure
    that fails its base suites.  Every other job exits 0.  That includes
    ext (x) ext, a valid graded tensor product of two Hopf superalgebras,
    which exits 1 today: ``tensor_product_structure`` puts a spurious sign
    (-1)^{|a||b|} on the antipode of odd (x) odd basis elements.
    """
    jobs = []
    for name in BUNDLED_STRUCTURES:
        path = f"{name}.qhsa"
        negative = NEGATIVE_FIXTURES.get(name)
        verdict = EXIT_FAIL if negative else EXIT_PASS
        jobs.append(_check(path, verdict, negative[1] if negative else None))
        jobs.append(_drinfeld(path, verify=True, expect_exit=verdict))
        jobs.append(_drinfeld(path, verify=False, expect_exit=verdict))
        for kind in ("opposite", "prime"):
            out = str(work / f"{name}-{kind}.qhsa")
            jobs.append(_transform(path, kind, out, expect_exit=verdict))
    for twistor, target in BUNDLED_TWISTORS.items():
        out = str(work / f"{target}-{twistor}.qhsa")
        jobs.append(_transform(f"{target}.qhsa", "twist", out, ("--twistor", f"{twistor}.twist")))
    for left, right, defect in (("h2", "ext", False), ("ext", "ext", True)):
        out = str(work / f"{left}-{right}.qhsa")
        extra = ("--other", f"{right}.qhsa")
        jobs.append(_transform(f"{left}.qhsa", "tensor", out, extra, known_defect=defect))
    return jobs


def _write(work: Path, name: str, H: QhsaStructure) -> str:
    path = work / f"{name}.qhsa"
    path.write_text(serialize_structure(name, H), encoding="utf-8")
    return str(path)


def _twist_coefficient(rng: random.Random, order: int) -> Cyclotomic:
    """c = zeta^a + zeta^b - 1 for seeded exponents a != b, so 1 + c =
    zeta^a (1 + zeta^(b-a)) is a small algebraic integer whose inverse stays
    small too: seeds change the coefficients, not the amount of work.  c is
    never rational, so never -1 and never a unit coefficient."""
    while True:
        a, b = rng.sample(range(1, order), 2)
        c = Cyclotomic(order, [0] * a + [1]) + Cyclotomic(order, [0] * b + [1]) - 1
        if any(c.coeffs[1:]) and c + 1:
            return c


def cyclotomic_jobs(work: Path, seed: int) -> list:
    """Per order n: h2 over Q(zeta_n) with R, twisted by 1(x)1 + c e1(x)e1,
    and its graded product with ext, which the pass builds with ``transform
    tensor``.  ``check`` and ``drinfeld --verify`` run on both; 10 jobs."""
    rng = random.Random(seed)
    jobs = []
    for n in CYCLOTOMIC_ORDERS:
        field = FieldSpec.cyclotomic(n)
        h2 = h2_structure(field, with_r=True)
        c = _twist_coefficient(rng, n)
        twistor = Twistor(h2.unit(2) + TensorElement(h2.algebra, 2, {(1, 1): c}))
        twisted = _write(work, f"h2-zeta{n}-twisted", twist_structure(h2, twistor))
        ext = _write(work, f"ext-zeta{n}", ext_structure(field=field))
        product = str(work / f"h2-zeta{n}-twisted-ext.qhsa")
        jobs += [
            _transform(twisted, "tensor", product, ("--other", ext)),
            _check(twisted),
            _drinfeld(twisted),
            _check(product),
            _drinfeld(product),
        ]
    return jobs


def group_algebra_z2() -> QhsaStructure:
    """k[Z2] in the basis {1, g}: g^2 = 1, Delta g = g(x)g, S g = g, eps g = 1,
    trivial coassociator and alpha = beta = 1.  Purely even."""
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


def _sized_random_twist(H: QhsaStructure, rng: random.Random, tries: int = 200) -> QhsaStructure:
    for _ in range(tries):
        twisted = twist_structure(H, random_twistor(H, rng))
        if len(twisted.phi.terms) == LADDER_TWIST_PHI_TERMS:
            return twisted
    raise RuntimeError(f"no random twist with {LADDER_TWIST_PHI_TERMS} coassociator terms")


def ladder_jobs(work: Path, seed: int) -> list:
    """The dimension-8 rung h2ext (x) k[Z2], built by ``transform tensor`` and
    then checked and verified, plus two seeded random twists of h2ext."""
    rng = random.Random(seed)
    h2ext = tensor_product_structure(h2_structure(), ext_structure())
    base = _write(work, "h2ext", h2ext)
    kz2 = _write(work, "kz2", group_algebra_z2())
    rung = str(work / "h2ext-kz2.qhsa")
    jobs = [
        _transform(base, "tensor", rung, ("--other", kz2)),
        _check(rung),
        _drinfeld(rung),
    ]
    for k in range(LADDER_TWISTS):
        twisted = _write(work, f"h2ext-twist{k}", _sized_random_twist(h2ext, rng))
        jobs += [_check(twisted), _drinfeld(twisted)]
    return jobs


WORKLOADS = {
    "bundled": bundled_jobs,
    "cyclotomic": cyclotomic_jobs,
    "ladder": ladder_jobs,
}
