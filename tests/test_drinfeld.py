"""The Drinfeld twist pipeline and its theorem battery.

The h2 values are frozen twice over: once as literal elements, and once
recomputed by a tiny independent oracle that works purely with the diagonal
coefficient functions of the idempotent basis (no tensor engine involved).
"""

import pytest

import qhsa.drinfeld
import qhsa.structure
import qhsa.transforms
from qhsa.algebra import apply_map_legs, embed_legs, invert_tensor_element
from qhsa.drinfeld import (
    DrinfeldError,
    compute_drinfeld_twist,
    compute_gamma,
    compute_gamma_bar,
    drinfeld_report,
    verify_prime_equivalence,
)
from qhsa.fixtures import build_structure, h2_broken_pentagon
from qhsa.structure import run_suites
from qhsa.transforms import prime_structure
from conftest import elem

ALL_FIXTURES = ("trivial", "ext", "h2", "h2r", "h2ext")


@pytest.fixture(scope="module", params=ALL_FIXTURES)
def fixture_structure(request):
    return build_structure(request.param)


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
    gamma = compute_gamma(h2)
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


def test_gamma_expressions_agree(fixture_structure):
    # compute_gamma raises if the two printed expressions disagree or the
    # absorption identity fails for any basis element
    compute_gamma(fixture_structure)
    compute_gamma_bar(fixture_structure)


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


def test_full_battery_passes(fixture_structure):
    data, report = drinfeld_report(fixture_structure)
    assert data is not None
    assert report.ok, report.failed_ids()


def test_battery_covers_every_identity(h2r):
    _, report = drinfeld_report(h2r)
    ids = [e.check_id for e in report.entries]
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


def test_r_identities_skip_without_r(h2):
    _, report = drinfeld_report(h2)
    assert report.entry("thm5.r").status == "skipped"
    assert report.entry("eq.lem8").status == "skipped"
    assert report.entry("prop8.quasi-triangular").status == "skipped"


def test_prime_equivalence_componentwise(fixture_structure):
    D = compute_drinfeld_twist(fixture_structure)
    primed = prime_structure(fixture_structure)
    assert verify_prime_equivalence(fixture_structure, D, primed).ok


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


def test_pentagon_factors_are_built_once_per_structure(monkeypatch):
    H = build_structure("h2ext")  # fresh, so nothing is cached yet
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
    # 1 (x) Phi^{+-1}, however many identities and constructions read them
    assert sorted(delta_legs) == [0, 0, 1, 1, 2, 2]
    assert sorted(embeddings) == [(0, 1, 2), (0, 1, 2), (1, 2, 3), (1, 2, 3)]


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
    bad = h2_broken_pentagon()
    with pytest.raises(DrinfeldError):
        compute_gamma(bad)
    data, report = drinfeld_report(bad)
    assert data is None
    assert report.entry("drinfeld.construction").status == "fail"


def test_twisted_structure_has_its_own_drinfeld_twist(h2ext):
    """The battery also holds on a twisted structure whose coassociator has
    genuinely odd legs, the hardest sign regime in the artifact."""
    from qhsa.fixtures import twistor_u11
    from qhsa.transforms import twist_structure

    HF = twist_structure(h2ext, twistor_u11())
    data, report = drinfeld_report(HF)
    assert data is not None
    assert report.ok, report.failed_ids()
