"""Acceptance battery: one test per criterion, all equalities exact.

Criterion 2 carries its own independent oracle: the first pentagon
rearrangement is expanded by hand as a seven-deep sum over sparse words with
explicitly written Koszul exponents, touching nothing of the tensor engine
beyond raw multiplication-table lookups.  It is run both on the graded
tensor-product fixture and on a twisted version of it whose coassociator has
genuinely odd legs.
"""

import json
import time
from fractions import Fraction

from qhsa.algebra import apply_map_legs, embed_legs
from qhsa.cli import BUNDLED_DIR, main
from qhsa.documents import load_structure, serialize_structure
from qhsa.drinfeld import compute_drinfeld_twist, drinfeld_report
from qhsa.fixtures import (
    POSITIVE_FIXTURES,
    TWISTOR_BUILDERS,
    build_structure,
    build_twistor,
    twistor_e11,
    twistor_one,
    twistor_theta,
    twistor_u11,
)
from qhsa.structure import (
    check_antipode_axioms,
    check_pentagon_consequences,
    check_qqybe,
    check_quasi_bialgebra,
    check_quasi_triangular,
    check_triangular,
    run_suites,
    validate_algebra,
    validate_structure,
)
from qhsa.transforms import (
    Twistor,
    check_cocycle,
    check_prop6,
    check_twistor,
    opposite_structure,
    tensor_product_structure,
    twist_structure,
    verify_twist_by_r,
)

from conftest import (
    elem,
    entry,
    fx,
    kz2_structure,
    product,
    structures_equal,
    suites_ok,
    twist_composition_check,
)

AXIOM_SUITES = ("algebra", "structure", "quasi-bialgebra", "antipode")


def test_criterion_1_axiom_suites():
    for name in POSITIVE_FIXTURES:
        H = build_structure(name)
        assert validate_algebra(H.algebra).ok, name
        assert validate_structure(H).ok, name
        assert check_quasi_bialgebra(H).ok, name
        assert check_antipode_axioms(H).ok, name
    for name in ("ext", "h2r"):
        H = build_structure(name)
        assert check_quasi_triangular(H).ok, name
        assert check_qqybe(H).ok, name
    assert check_triangular(build_structure("ext")).ok

    # labeled negatives: the labeled check fails exactly, with a witness, and
    # nothing outside the mathematically forced co-failure set fails with it
    expected = {
        "h2-broken-pentagon": (
            "quasi-bialgebra",
            "eq.fii",
            {"eq.fii", "eq.phi-counit-right", "eq.5ii1", "eq.5ii"},
        ),
        "h2-broken-antipode": ("antipode", "eq.5ii", {"eq.5ii1", "eq.5ii"}),
    }
    for name, (suite, labeled, forced) in expected.items():
        H = build_structure(name)
        results = run_suites(H, AXIOM_SUITES)
        failed = {cid for _, rep, _ in results for cid in rep.failed_ids()}
        assert failed == forced, (name, failed)
        labeled_entry = next(
            entry(rep, labeled) for s, rep, _ in results if s == suite
        )
        assert labeled_entry["status"] == "fail"
        assert labeled_entry["witness"]  # a concrete difference element

    # the labeled cocycle negative: a valid twistor violating only eq.ccc
    h2ext = build_structure("h2ext")
    F = twistor_u11()
    assert check_twistor(h2ext, F).ok
    report = check_cocycle(h2ext, F)
    assert entry(report, "eq.ccc")["status"] == "fail"
    assert entry(report, "eq.ccc")["witness"]["difference"]


# -- criterion 2: the sign-engine oracle -----------------------------------------


def _hand_expanded_pentagon_product(H):
    """Expand (Delta x 1 x 1)Phi . (1 x 1 x Delta)Phi . (1 x Phi^-1) .
    (1 x Delta x 1)Phi^-1 by hand.

    Sum over words of Phi (nu, mu) and Phi^-1 (sigma, rho) with the coproduct
    splittings of the nu first leg, the mu third leg and the rho second leg;
    position products are raw multiplication-table walks and the Koszul
    exponent is written out termwise below.  Independent of the tensor
    engine's sign machinery by construction.
    """
    alg = H.algebra
    par = alg.parity
    phi = H.phi.terms
    phi_inv = H.phi_inv.terms
    delta = [H.delta.images[i].terms for i in range(alg.dimension)]

    def times(vec, idx):
        out = {}
        for k, c in vec.items():
            for r, cr in product(alg, k, idx).items():
                out[r] = out.get(r, 0) + c * cr
        return {k: v for k, v in out.items() if v != 0}

    def start(idx):
        return {idx: 1}

    result = {}
    for (X, Y, Z), c_nu in phi.items():
        pX, pZ = par[X], par[Z]
        for (x1, x2), d_nu in delta[X].items():
            for (Xm, Ym, Zm), c_mu in phi.items():
                L1a = times(start(x1), Xm)
                if not L1a:
                    continue
                L2a = times(start(x2), Ym)
                if not L2a:
                    continue
                pZm = par[Zm]
                for (z1, z2), d_mu in delta[Zm].items():
                    L3a = times(start(Y), z1)
                    if not L3a:
                        continue
                    L4a = times(start(Z), z2)
                    if not L4a:
                        continue
                    for (xs, ys, zs), c_sig in phi_inv.items():
                        L2b = times(L2a, xs)
                        if not L2b:
                            continue
                        L3b = times(L3a, ys)
                        if not L3b:
                            continue
                        L4b = times(L4a, zs)
                        if not L4b:
                            continue
                        for (xr, yr, zr), c_rho in phi_inv.items():
                            L1 = times(L1a, xr)
                            if not L1:
                                continue
                            L4 = times(L4b, zr)
                            if not L4:
                                continue
                            for (y1, y2), d_rho in delta[yr].items():
                                L2 = times(L2b, y1)
                                if not L2:
                                    continue
                                L3 = times(L3b, y2)
                                if not L3:
                                    continue
                                exponent = (
                                    par[xr] * (par[x2] + par[Xm] + pX)
                                    + (par[xs] + par[y1]) * (pX + pZm)
                                    + pZm * pX
                                    + par[Xm] * par[x2]
                                    + pZ * par[z1]
                                    + par[y1] * par[xs]
                                    + par[y2] * par[zs]
                                    + (par[ys] + par[y2]) * (pZ + par[z2])
                                ) % 2
                                coeff = c_nu * d_nu * c_mu * d_mu * c_sig * c_rho * d_rho
                                if exponent:
                                    coeff = -coeff
                                for w1, c1 in L1.items():
                                    for w2, c2 in L2.items():
                                        for w3, c3 in L3.items():
                                            for w4, c4 in L4.items():
                                                word = (w1, w2, w3, w4)
                                                add = coeff * c1 * c2 * c3 * c4
                                                result[word] = result.get(word, 0) + add
    return {w: c for w, c in result.items() if c != 0}


def _engine_pentagon_product(H):
    lhs = apply_map_legs(H.phi, 0, H.delta) * apply_map_legs(H.phi, 2, H.delta)
    return lhs * embed_legs(H.phi_inv, (1, 2, 3), 4) * apply_map_legs(H.phi_inv, 1, H.delta)


def test_criterion_2_sign_engine_oracle():
    for name in ("h2", "h2ext"):
        report = check_pentagon_consequences(build_structure(name))
        assert report.ok, (name, report.failed_ids())

    h2ext = build_structure("h2ext")
    hand = _hand_expanded_pentagon_product(h2ext)
    engine = _engine_pentagon_product(h2ext)
    target = embed_legs(h2ext.phi, (0, 1, 2), 4)
    assert hand == dict(engine.terms)
    assert hand == dict(target.terms)
    # at least one word pinned explicitly: the all-idempotent corner
    assert hand[(2, 2, 2, 2)] == -1

    # same expansion where the coassociator has odd legs, so the written
    # Koszul exponents are genuinely exercised
    twisted = twist_structure(h2ext, twistor_u11())
    assert check_pentagon_consequences(twisted).ok
    hand = _hand_expanded_pentagon_product(twisted)
    assert hand == dict(_engine_pentagon_product(twisted).terms)
    assert hand == dict(embed_legs(twisted.phi, (0, 1, 2), 4).terms)
    par = twisted.algebra.parity
    assert any(par[i] for w in twisted.phi.terms for i in w)


def test_criterion_3_twisting_theorem():
    pairs = [(build_twistor(t)[0], t) for t in TWISTOR_BUILDERS]
    for target, tname in pairs:
        H = build_structure(target)
        _, F = build_twistor(tname)
        twisted = twist_structure(H, F)
        assert suites_ok(twisted), (target, tname)

    # composition law, including the inverse and unit special cases
    h2 = build_structure("h2")
    F = twistor_e11()
    G = Twistor(h2.unit(2) + elem(h2, 2, {(1, 1): Fraction(-1, 3)}))
    assert twist_composition_check(h2, F, G).ok
    Finv = Twistor(F.inverse, F.element)
    assert structures_equal(twist_structure(twist_structure(h2, F), Finv), h2)
    for name in POSITIVE_FIXTURES:
        H = build_structure(name)
        assert structures_equal(twist_structure(H, twistor_one(H)), H)


def test_criterion_4_opposite_structures():
    for name in POSITIVE_FIXTURES:
        H = build_structure(name)
        O = opposite_structure(H)
        assert suites_ok(O), name
        assert structures_equal(opposite_structure(O), H), name

    # all five interchange equalities, R included where present
    ext = build_structure("ext")
    report = check_prop6(ext, twistor_theta())
    assert report.ok
    assert entry(report, "prop6.r")["status"] == "pass"
    assert check_prop6(build_structure("h2"), twistor_e11()).ok


def test_criterion_5_twist_by_r():
    for name in ("ext", "h2r"):
        report = verify_twist_by_r(build_structure(name))
        assert report.ok, (name, report.failed_ids())


def test_criterion_6_drinfeld_battery():
    for name in POSITIVE_FIXTURES:
        H = build_structure(name)
        data, report = drinfeld_report(H)
        assert data is not None, name
        assert report.ok, (name, report.failed_ids())
        statuses = {e["check_id"]: e["status"] for e in report.entries}
        for cid in ("thm5.r", "eq.lem8", "prop8.quasi-triangular"):
            assert statuses[cid] == ("pass" if H.has_r else "skipped")


def test_criterion_7_value_reproduction():
    h2 = build_structure("h2")
    D = compute_drinfeld_twist(h2)
    assert D.f_d == elem(h2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
    assert D.f_d * D.f_d == h2.unit(2)
    assert D.gamma == elem(h2, 2, {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): -1})

    ext = build_structure("ext")
    De = compute_drinfeld_twist(ext)
    assert De.f_d == ext.unit(2)
    assert ext.delta_prime == ext.delta


def test_criterion_8_io_contract(tmp_path):
    # byte-stable round trip on every bundled document
    for name in POSITIVE_FIXTURES:
        text = (BUNDLED_DIR / f"{name}.qhsa").read_text(encoding="utf-8")
        fixture_name, H = load_structure(text)
        assert serialize_structure(fixture_name, H) == text

    # exit-code contract: 0 pass, 1 verified failure, 2 malformed input
    assert main(["check", fx("h2ext.qhsa")]) == 0
    assert main(["check", fx("h2-broken-pentagon.qhsa")]) == 1
    assert main(["check", fx("h2-broken-antipode.qhsa")]) == 1
    missing = tmp_path / "missing.qhsa"
    assert main(["check", str(missing)]) == 2
    malformed = tmp_path / "malformed.qhsa"
    malformed.write_text("{", encoding="utf-8")
    assert main(["check", str(malformed)]) == 2
    truncated = json.loads((BUNDLED_DIR / "h2.qhsa").read_text())
    truncated["mult"][0][3] = "1/0"
    bad_scalar = tmp_path / "bad-scalar.qhsa"
    bad_scalar.write_text(json.dumps(truncated), encoding="utf-8")
    assert main(["check", str(bad_scalar)]) == 2


def test_runtime_budget_for_the_full_battery():
    """Everything the other criteria run, timed: all suites plus the Drinfeld
    battery over every bundled fixture must finish within ten seconds."""
    start = time.perf_counter()
    for name in POSITIVE_FIXTURES:
        H = build_structure(name)
        for _, report, _ in run_suites(H):
            assert report.ok
        _, report = drinfeld_report(H)
        assert report.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"battery took {elapsed:.2f}s"


def test_runtime_budget_for_the_sparse_scale_rung():
    """h2ext (x) k[Z2]^3 (d = 32, Phi with 8 terms) passes every default
    suite and the Drinfeld battery within a generous five seconds: a guard
    against a product kernel that visits every pair of words, or an algebra
    check that builds an element for every basis triple."""
    H = build_structure("h2ext")
    for _ in range(3):
        H = tensor_product_structure(H, kz2_structure())
    assert H.algebra.dimension == 32
    start = time.perf_counter()
    for _, report, _ in run_suites(H):
        assert report.ok
    _, report = drinfeld_report(H)
    assert report.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"d = 32 battery took {elapsed:.2f}s"
