"""The Drinfeld twist pipeline and its theorem battery.

The h2 values are frozen twice over: once as literal elements, and once
recomputed by a tiny independent oracle that works purely with the diagonal
coefficient functions of the idempotent basis (no tensor engine involved).
"""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhsa.drinfeld
import qhsa.structure
import qhsa.transforms
from qhsa.algebra import (
    SingularError,
    apply_map_legs,
    embed_legs,
    invert_tensor_element,
)
from qhsa.drinfeld import (
    check_alt_expressions,
    compute_drinfeld_twist,
    drinfeld_construction,
    drinfeld_report,
    verify_prime_equivalence,
)
from qhsa.fixtures import STRUCTURE_BUILDERS, build_structure, h2_broken_pentagon, h2_structure
from qhsa.scalars import FieldSpec
from qhsa.structure import DEFAULT_SUITE_NAMES, DRINFELD_PREMISES, run_suites
from qhsa.transforms import (
    Twistor,
    prime_structure,
    random_twistor,
    tensor_product_structure,
    twist_structure,
)
from conftest import elem, entry, multiplications
from printed import Printed, agree


# -- independent oracle for the h2 values -----------------------------------------


def _h2_oracle():
    """Everything in h2 is diagonal in the idempotent basis, so gamma and F_D
    reduce to finite sums over index bits; this recomputes them that way."""
    phi = {(a, b, c): (-1) ** (a * b * c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    alpha = {0: 1, 1: -1}

    # gamma[b, c] = sum over diagonal constraints of
    #   phi(c,b,b) * phi(c+b,b,c) * alpha_b * alpha_c
    gamma = {}
    for b in (0, 1):
        for c in (0, 1):
            gamma[(b, c)] = phi[(c, b, b)] * phi[((c + b) % 2, b, c)] * alpha[b] * alpha[c]

    # F_D[j, k] = sum_a phi(a,a,a) * gamma[j, a+j] with k = a+j
    f_d = {}
    for j in (0, 1):
        for a in (0, 1):
            k = (a + j) % 2
            f_d[(j, k)] = phi[(a, a, a)] * gamma[(j, k)]
    return gamma, f_d


def test_h2_gamma_matches_oracle_and_frozen_value(h2):
    gamma = compute_drinfeld_twist(h2).gamma
    oracle_gamma, _ = _h2_oracle()
    assert gamma == elem(h2, 2, oracle_gamma)
    assert gamma == elem(h2, 2, {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): -1})


def test_h2_drinfeld_twist_matches_oracle_and_frozen_value(h2):
    D = compute_drinfeld_twist(h2)
    _, oracle_fd = _h2_oracle()
    assert D.f_d == elem(h2, 2, oracle_fd)
    assert D.f_d == elem(h2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
    assert D.f_d * D.f_d == h2.unit(2)  # involution
    assert D.f_d_inverse == D.f_d


def test_trivial_and_hopf_degenerations(trivial, ext):
    for H in (trivial, ext):
        D = compute_drinfeld_twist(H)
        assert D.gamma == H.unit(2)
        assert D.gamma_bar == H.unit(2)
        assert D.f_d == H.unit(2)
        assert D.f_d_inverse == H.unit(2)
    # Hopf degeneration: the primed coproduct is the original one
    assert ext.delta_prime == ext.delta


CONSTRUCTION_IDS = [
    "drinfeld.gamma-alt",
    "eq.8.1",
    "drinfeld.gamma-bar-alt",
    "eq.8.7",
    "drinfeld.fd-inverse",
    "drinfeld.fd-counit",
]


def test_gamma_expressions_agree(fixture_structure):
    # the construction report compares the two printed expressions for gamma
    # and gamma-bar, and their absorption identities for every basis element
    data, report = drinfeld_construction(fixture_structure)
    assert data is not None
    assert report.entries[:4] == [{"check_id": i, "status": "pass"} for i in CONSTRUCTION_IDS[:4]]


def test_construction_reports_its_checks_in_order(fixture_structure):
    data, report = drinfeld_construction(fixture_structure)
    assert data is not None
    assert [(e["check_id"], e["status"]) for e in report.entries] == [
        (check_id, "pass") for check_id in CONSTRUCTION_IDS
    ]


def test_fd_inverse_and_counit_legs(fixture_structure):
    H = fixture_structure
    D = compute_drinfeld_twist(H)
    assert D.f_d_inverse * D.f_d == H.unit(2)
    assert D.f_d * D.f_d_inverse == H.unit(2)
    from qhsa.algebra import apply_map_legs

    expected = H.unit(1).scaled(H.eps_alpha)
    assert apply_map_legs(D.f_d, 0, H.epsilon) == expected
    assert apply_map_legs(D.f_d, 1, H.epsilon) == expected
    assert H.eps_alpha * H.eps_beta == H.algebra.field.one()


def test_fd_counit_legs_are_checked_against_eps_alpha(h2):
    # twisting by 2 (1 (x) 1) halves alpha, so the counit legs of F_D are 1/2
    half = Fraction(1, 2)
    H = twist_structure(h2, Twistor(h2.unit(2).scaled(2), h2.unit(2).scaled(half)))
    assert H.eps_alpha == half
    data, report = drinfeld_construction(H)
    assert entry(report, "drinfeld.fd-counit")["status"] == "pass"
    assert apply_map_legs(data.f_d, 0, H.epsilon) == H.unit(1).scaled(half)
    # the primed structure is the twist by eps(alpha) F_D, not by eps(beta) F_D
    assert drinfeld_report(H)[1].ok


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-3, 5)])
def test_every_normalization_of_alpha_and_beta_passes(fixture_structure, c):
    """(c alpha, beta / c) is a valid structure whenever (alpha, beta) is,
    with eps(alpha) scaled by c; the suites and the whole battery pass."""
    H = fixture_structure.replace(
        alpha=fixture_structure.alpha.scaled(c),
        beta=fixture_structure.beta.scaled(1 / c),
    )
    assert all(report.ok for _, report, _ in run_suites(H))
    data, report = drinfeld_report(H)
    assert data is not None
    assert report.ok, report.failed_ids()


def test_full_battery_passes(fixture_structure):
    data, report = drinfeld_report(fixture_structure)
    assert data is not None
    assert report.ok, report.failed_ids()


def test_battery_covers_every_identity(h2r):
    _, report = drinfeld_report(h2r)
    ids = [e["check_id"] for e in report.entries]
    for expected in (
        "drinfeld.gamma-alt",
        "eq.8.1",
        "drinfeld.gamma-bar-alt",
        "eq.8.7",
        "drinfeld.fd-inverse",
        "drinfeld.fd-counit",
        "eq.lem13.gamma",
        "eq.lem13.gamma-bar",
        "eq.8.6a",
        "eq.8.8a",
        "thm2.conjugation",
        "altexpr.fd",
        "altexpr.fd-inverse",
        "thm3.phi",
        "thm3.alpha",
        "thm3.beta",
        "eq.star",
        "eq.sstar",
        "thm5.r",
        "eq.lem8",
        "prop8.quasi-triangular",
        "drinfeld.prime-equivalence.delta",
        "drinfeld.prime-equivalence.r",
    ):
        assert expected in ids, expected


def test_prime_equivalence_componentwise(fixture_structure):
    D = compute_drinfeld_twist(fixture_structure)
    primed = prime_structure(fixture_structure)
    twisted = twist_structure(fixture_structure, Twistor(D.f_d, D.f_d_inverse))
    assert verify_prime_equivalence(fixture_structure, primed, twisted).ok


def test_battery_builds_the_primed_structure_and_its_phi_inverse_once(
    fixture_structure, monkeypatch
):
    H = fixture_structure
    run_suites(H)  # caches H.phi_inv and the other derived data of H
    calls = {"prime_structure": 0, "invert_tensor_element": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(qhsa.drinfeld, "prime_structure", counted(prime_structure))
    invert = counted(invert_tensor_element)
    for module in (qhsa.structure, qhsa.drinfeld, qhsa.transforms):
        monkeypatch.setattr(module, "invert_tensor_element", invert, raising=False)
    data, report = drinfeld_report(H)
    assert data is not None and report.ok
    assert calls == {"prime_structure": 1, "invert_tensor_element": 1}


def _fresh_h2ext(kind):
    """A fresh h2ext, whose Phi is its own inverse, or a fresh seeded twist
    of it, whose Phi^{-1} differs from Phi; nothing is cached on either."""
    H = build_structure("h2ext")
    if kind == "twisted":
        H = twist_structure(H, random_twistor(H, random.Random(3)))
    return H


@pytest.mark.parametrize("kind", ["h2ext", "twisted"])
def test_pentagon_factors_are_built_once_per_structure(kind, monkeypatch):
    H = _fresh_h2ext(kind)
    delta_legs, embeddings = [], []

    def apply_counting(x, leg, f):
        if x.arity == 3 and f is H.delta:
            delta_legs.append(leg)
        return apply_map_legs(x, leg, f)

    def embed_counting(x, positions, arity):
        if arity == 4:
            embeddings.append(tuple(positions))
        return embed_legs(x, positions, arity)

    for module in (qhsa.structure, qhsa.drinfeld, qhsa.transforms):
        monkeypatch.setattr(module, "apply_map_legs", apply_counting)
        monkeypatch.setattr(module, "embed_legs", embed_counting)
    for _ in range(2):
        assert all(report.ok for _, report, _ in run_suites(H))
        compute_drinfeld_twist(H)
    # Delta on each leg of Phi and of Phi^{-1}, then Phi^{+-1} (x) 1 and
    # 1 (x) Phi^{+-1}, however many identities and constructions read them;
    # a Phi that is its own inverse is Phi^{-1}'s object, so once in all
    copies = 1 if kind == "h2ext" else 2
    assert (H.phi_inv is H.phi) == (copies == 1)
    assert sorted(delta_legs) == sorted([0, 1, 2] * copies)
    assert sorted(embeddings) == sorted([(0, 1, 2), (1, 2, 3)] * copies)


@pytest.mark.parametrize("kind", ["h2ext", "twisted"])
def test_the_construction_builds_no_lemma11_embedding(kind, monkeypatch):
    """The Drinfeld sums read the lemma-11 middles, which split W; W's
    arity-3 embeddings are read by lemma 11 alone, so the construction after
    its premises, without the lemma11 suite, embeds nothing in arity 3.  On
    the twist, Phi^{-1}'s pentagon factors are first built here, so the
    counter sees the construction's arity-4 embeddings."""
    H = _fresh_h2ext(kind)
    run_suites(H, DRINFELD_PREMISES)
    arities = []

    def embed_counting(x, positions, arity):
        arities.append(arity)
        return embed_legs(x, positions, arity)

    for module in (qhsa.structure, qhsa.drinfeld, qhsa.transforms):
        monkeypatch.setattr(module, "embed_legs", embed_counting)
    data, report = drinfeld_construction(H)
    assert data is not None and report.ok
    assert 3 not in arities
    assert bool(arities) == (kind == "twisted")


def test_thm5_conjugates_the_zeta_coefficient(h2r):
    # F_D is the plus/minus-1 diagonal, so conjugation fixes R entry by entry
    D = compute_drinfeld_twist(h2r)
    from qhsa.algebra import apply_map_legs, permute_legs

    r_prime = apply_map_legs(
        apply_map_legs(h2r.r_matrix, 0, h2r.antipode), 1, h2r.antipode
    )
    assert r_prime == h2r.r_matrix  # S = id
    assert permute_legs(D.f_d, (1, 0)) * h2r.r_matrix * D.f_d_inverse == r_prime


def test_corrupted_structure_raises_or_reports():
    # the two printed expressions for gamma disagree, and the report says where
    bad = h2_broken_pentagon()
    data, report = drinfeld_construction(bad)
    assert data is None
    assert entry(report, "drinfeld.gamma-alt")["status"] == "fail"
    assert entry(report, "drinfeld.gamma-alt")["witness"] == {"difference": [[[1, 1], "2"]]}
    data, battery = drinfeld_report(bad)
    assert data is None
    assert battery.entries == report.entries


def test_twisted_structure_has_its_own_drinfeld_twist(h2ext):
    """The battery also holds on a twisted structure whose coassociator has
    genuinely odd legs, the hardest sign regime in the artifact."""
    from qhsa.fixtures import twistor_u11
    from qhsa.transforms import twist_structure

    HF = twist_structure(h2ext, twistor_u11())
    data, report = drinfeld_report(HF)
    assert data is not None
    assert report.ok, report.failed_ids()


# -- the Phi-sums against their printed forms -----------------------------------------


def _assert_drinfeld_sums_match_the_reference(H):
    """F_D, F_D^{-1} and their alternative forms are the printed sums."""
    printed = Printed(H)
    D = compute_drinfeld_twist(H)
    assert (D.f_d, D.f_d_inverse) == (printed.f_d, printed.f_d_inverse)
    assert agree(check_alt_expressions(H, D), printed) == ["altexpr.fd", "altexpr.fd-inverse"]


@pytest.mark.parametrize("name", tuple(STRUCTURE_BUILDERS))
def test_drinfeld_sums_match_the_reference_on_bundled_fixtures(name):
    _assert_drinfeld_sums_match_the_reference(build_structure(name))


@pytest.mark.parametrize("order", [8, 20])
def test_drinfeld_sums_match_the_reference_over_cyclotomic_fields(order):
    H = h2_structure(FieldSpec.cyclotomic(order), with_r=True)
    _assert_drinfeld_sums_match_the_reference(H)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_drinfeld_sums_match_the_reference_on_twists_of_h2ext(h2ext, seed):
    H = twist_structure(h2ext, random_twistor(h2ext, random.Random(seed)))
    _assert_drinfeld_sums_match_the_reference(H)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_drinfeld_sums_match_the_reference_on_twists_of_an_odd_product(
    h2, ext_ext_graded, seed
):
    P = tensor_product_structure(h2, ext_ext_graded)
    H = twist_structure(P, random_twistor(P, random.Random(seed)))
    _assert_drinfeld_sums_match_the_reference(H)


def _ks3_with_random_parts(seed, fixture):
    """k[S3] with two random terms added to Phi and one each to alpha and
    beta, redrawn until Phi is invertible."""
    ks3 = fixture("ks3")
    rng = random.Random(seed)
    d = ks3.algebra.dimension

    def perturbation(arity, count):
        words = [tuple(rng.randrange(d) for _ in range(arity)) for _ in range(count)]
        return elem(ks3, arity, {w: rng.choice((-2, -1, 1, 2)) for w in words})

    while True:
        H = ks3.replace(
            phi=ks3.phi + perturbation(3, 2),
            alpha=ks3.alpha + perturbation(1, 1),
            beta=ks3.beta + perturbation(1, 1),
        )
        try:
            H.phi_inv
        except SingularError:
            continue
        return H


def _ext_ext_with_odd_parts(fixture):
    """ext (x) ext with an odd term added to each of Phi, alpha and beta:
    Phi + e_0 (x) e_0 (x) e_2, alpha + e_1 and beta + e_1, where e_1 =
    1 (x) theta and e_2 = theta (x) 1.  In every identity an odd constant
    then meets the odd leg e_2 of Phi or Phi^{-1} in a product that is not
    zero (e_1 e_2 is not, e_2 e_2 is), so a sign that only an odd constant
    makes changes the sums: W built as a Koszul product, such as
    m_1((1 (x) 1 (x) S)Phi (1 (x) beta (x) 1)) for 11i, in place of its
    map form fails here, for each of the four identities."""
    T = fixture("ext_ext_graded")
    return T.replace(
        phi=T.phi + elem(T, 3, {(0, 0, 2): 1}),
        alpha=T.alpha + elem(T, 1, {(1,): 1}),
        beta=T.beta + elem(T, 1, {(1,): 1}),
    )


RANDOM_PHI_CASES = {str(seed): partial(_ks3_with_random_parts, seed) for seed in range(4)}
RANDOM_PHI_CASES["ext-ext-odd"] = _ext_ext_with_odd_parts


@pytest.mark.parametrize("case", sorted(RANDOM_PHI_CASES))
def test_drinfeld_sums_match_the_reference_over_a_random_phi(request, case):
    # The sums are linear algebra, so they must match for any invertible Phi
    # and any alpha, beta, quasi-Hopf or not.  On h2, ext and their graded
    # products, which are supercommutative, the middles of two identities
    # can be swapped without changing F_D; over k[S3], which is not, and
    # with a Phi that has no symmetry, they cannot.
    _assert_drinfeld_sums_match_the_reference(RANDOM_PHI_CASES[case](request.getfixturevalue))


def test_drinfeld_multiplication_counts_are_pinned(monkeypatch):
    """Exact tensor_multiply counts on a fresh h2ext once the gate has run.
    The construction after DRINFELD_PREMISES also builds the lemma-11
    middles; after every default suite they are cached."""
    calls = multiplications(monkeypatch)
    counts = []
    stages = ((DRINFELD_PREMISES, drinfeld_construction), (DEFAULT_SUITE_NAMES, drinfeld_report))
    for gate, run in stages:
        H = build_structure("h2ext")
        run_suites(H, gate)
        calls.clear()
        data, report = run(H)
        assert data is not None and report.ok
        counts.append(len(calls))
    # summed word by word over Phi and Phi^{-1}, F_D, F_D^{-1} and the two
    # alternative forms made 122 calls in the construction and 243 in the
    # construction and battery together; summed over the lemma-11 middles
    # with every basis a in eq.8.1, eq.8.7 and theorem 2, 90 and 131.  The
    # gates pass, so those checks run over the 3 generators of h2ext: 82
    # and 117.  The battery then built the F_D twist in pieces in theorems
    # 2, 3 and 5 and again whole for the prime equivalence; built once and
    # read by all four, it makes 105.  The middles built e_p beta and
    # S(e_p) alpha once per identity, not once per structure: 82.  Built
    # once per structure as the maps B(e_p) = e_p beta and A(e_p) = S(e_p)
    # alpha on the legs of Phi, d = 4 products each, the middles take 8
    # calls where the grouped sums took 20: 66.  gamma, gamma-bar and their
    # second forms contract maps on the legs, with no unit-padded alpha or
    # beta to multiply, and so do alpha_F and beta_F of the F_D twist: one
    # call fewer each.  The antipode suite of the gate already built A and
    # B, so the construction no longer does: 54 and 99.  eq.8.1 and eq.8.7
    # multiply left(e_j) g once per j of the coproducts they sum over, not
    # once per term: 42 and 87.
    assert counts == [42, 87]
