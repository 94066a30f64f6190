import json
import subprocess
import sys
from pathlib import Path

import pytest

import qhsa.algebra
import qhsa.drinfeld
import qhsa.structure
import qhsa.transforms
from qhsa.cli import main
from qhsa.scalars import MAX_CYCLOTOMIC_ORDER
from qhsa.structure import DRINFELD_PREMISES, SUITES

FIXTURE_DIR = Path(__file__).parent.parent / "src" / "qhsa" / "fixtures"


def fx(name):
    return str(FIXTURE_DIR / name)


def run_json(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--format", "json", "--output", str(out)])
    return code, json.loads(out.read_text())


def edited(tmp_path, fixture, **fields):
    """The bundled ``fixture`` with ``fields`` replaced, written to tmp_path."""
    doc = json.loads(Path(fx(fixture)).read_text())
    doc.update(fields)
    path = tmp_path / f"edited-{fixture}"
    path.write_text(json.dumps(doc))
    return str(path)


# -- check ---------------------------------------------------------------------


def test_check_passes_on_every_positive_fixture(tmp_path):
    for name in ("trivial", "ext", "h2", "h2r", "h2ext"):
        code, doc = run_json(tmp_path, "check", fx(f"{name}.qhsa"))
        assert code == 0
        assert doc["overall"] == "pass"
        assert doc["fixture"] == name


def test_check_fails_with_witness_on_broken_pentagon(tmp_path):
    code, doc = run_json(tmp_path, "check", fx("h2-broken-pentagon.qhsa"))
    assert code == 1
    assert doc["overall"] == "fail"
    entries = {e["check_id"]: e for e in doc["entries"]}
    assert entries["eq.fii"]["status"] == "fail"
    assert entries["eq.fii"]["witness"]["difference"]


def test_check_exit_codes_cover_the_contract(tmp_path):
    assert main(["check", fx("h2.qhsa")]) == 0
    assert main(["check", fx("h2-broken-antipode.qhsa")]) == 1
    assert main(["check", str(tmp_path / "missing.qhsa")]) == 2
    bad = tmp_path / "bad.qhsa"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2


def test_suite_selection(tmp_path):
    code, doc = run_json(
        tmp_path, "check", fx("h2-broken-antipode.qhsa"), "--suites", "algebra,structure"
    )
    assert code == 0  # the damage is invisible to the validation layers
    suites = {e["suite"] for e in doc["entries"]}
    assert suites == {"algebra", "structure"}
    assert main(["check", fx("h2.qhsa"), "--suites", "nonsense"]) == 2


UNIT_ONLY_EXT_REPORT = """\
fixture: ext
PASS    algebra: algebra.grading
FAIL    algebra: algebra.unit
        witness: {"difference": [[[1], "-1"]], "basis": 1}
PASS    algebra: algebra.assoc
SKIPPED structure: structure
SKIPPED quasi-bialgebra: quasi-bialgebra
SKIPPED antipode: antipode
SKIPPED pentagon-consequences: pentagon-consequences
SKIPPED lemma11: lemma11
SKIPPED eta: eta
SKIPPED quasi-triangular: quasi-triangular
SKIPPED qqybe: qqybe
overall: FAIL (2 passed, 1 failed, 8 skipped)
"""


def test_check_after_a_failed_algebra_suite_is_pinned(tmp_path, capsys):
    doc = json.loads(Path(fx("ext.qhsa")).read_text())
    doc["mult"] = [[0, 0, 0, "1"]]  # theta * 1 = 1 * theta = 0: the unit is not a unit
    path = tmp_path / "unit-only.qhsa"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == UNIT_ONLY_EXT_REPORT


@pytest.mark.parametrize(
    "suite, edit, premise",
    [
        # Phi = theta (x) theta (x) 1 squares to zero, so it has no inverse
        ("lemma11", {"phi": [[1, 1, 0, "1"]]}, "structure.phi-invertible"),
        # 1 * 1 = 0: the unit is not a unit
        ("eta", {"mult": [[0, 1, 1, "1"], [1, 0, 1, "1"]]}, "algebra.unit"),
    ],
)
def test_a_selected_suite_reports_its_failed_premise(tmp_path, capsys, suite, edit, premise):
    doc = json.loads(Path(fx("ext.qhsa")).read_text())
    doc.update(edit)
    path = tmp_path / "edited.qhsa"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(path), "--suites", suite]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert f"FAIL    {premise.split('.')[0]}: {premise}\n" in out
    assert f"SKIPPED {suite}: {suite}\n" in out
    assert out.splitlines()[-1].startswith("overall: FAIL")
    # selected after the suite it is a premise of, it is reported once, where it ran
    assert main(["check", str(path), "--suites", f"{suite},{premise.split('.')[0]}"]) == 1
    assert capsys.readouterr().out == out
    # premises that pass add nothing to the report
    code, report = run_json(tmp_path, "check", fx("ext.qhsa"), "--suites", suite)
    assert code == 0 and {e["suite"] for e in report["entries"]} == {suite}


def test_a_repeated_suite_runs_and_is_reported_once(capsys, monkeypatch):
    calls = []
    fn, premises = SUITES["eta"]
    monkeypatch.setitem(SUITES, "eta", (lambda H: calls.append(1) or fn(H), premises))
    assert main(["check", fx("h2.qhsa"), "--suites", "eta,eta,algebra,algebra"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "fixture: h2\n"
        "PASS    eta: eq.lem5i\n"
        "PASS    eta: eq.lem5ii\n"
        "PASS    algebra: algebra.grading\n"
        "PASS    algebra: algebra.unit\n"
        "PASS    algebra: algebra.assoc\n"
        "overall: PASS (5 passed, 0 failed, 0 skipped)\n"
    )


@pytest.mark.parametrize("selection", ["", " , ", ",,"])
def test_an_empty_suite_selection_is_an_input_error(capsys, selection):
    assert main(["check", fx("h2.qhsa"), "--suites", selection]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --suites names no suite\n"


def test_an_unknown_suite_is_echoed_short(capsys):
    assert main(["check", fx("h2.qhsa"), "--suites", "algebra," + "x" * 100_000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown suite '" + "x" * 59 + "...\n"


def test_triangular_suite_is_opt_in(tmp_path):
    code, doc = run_json(tmp_path, "check", fx("h2r.qhsa"), "--suites", "triangular")
    assert code == 1  # h2r is quasi-triangular but not triangular
    code, doc = run_json(tmp_path, "check", fx("ext.qhsa"), "--suites", "triangular")
    assert code == 0


def test_quasi_triangular_suites_skip_without_r(tmp_path):
    code, doc = run_json(tmp_path, "check", fx("h2.qhsa"))
    assert code == 0
    skipped = {e["check_id"] for e in doc["entries"] if e["status"] == "skipped"}
    assert "eq.7" in skipped and "eq.6i" in skipped


def test_text_format(capsys):
    assert main(["check", fx("ext.qhsa")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "overall: PASS" in out


def test_validate_subcommand(tmp_path):
    code, doc = run_json(tmp_path, "validate", fx("h2ext.qhsa"))
    assert code == 0
    assert {e["suite"] for e in doc["entries"]} == {"algebra", "structure"}


def test_report_determinism(tmp_path):
    _, first = run_json(tmp_path, "check", fx("h2ext.qhsa"))
    _, second = run_json(tmp_path, "check", fx("h2ext.qhsa"))
    first.pop("wall_time_seconds")
    second.pop("wall_time_seconds")
    assert json.dumps(first) == json.dumps(second)


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    custom = tmp_path / "fixtures"
    custom.mkdir()
    (custom / "mine.qhsa").write_text(Path(fx("h2.qhsa")).read_text())
    monkeypatch.setenv("QHSA_FIXTURE_DIR", str(custom))
    assert main(["check", "mine.qhsa"]) == 0


def test_bundled_fixture_resolution(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "h2.qhsa"]) == 0


# -- transform --------------------------------------------------------------------


def test_opposite_of_h2_reproduces_the_document(tmp_path):
    out = tmp_path / "h2-op.qhsa"
    code = main(["transform", fx("h2.qhsa"), "opposite", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == Path(fx("h2.qhsa")).read_bytes()


def test_prime_of_ext_reproduces_the_document(tmp_path):
    out = tmp_path / "ext-prime.qhsa"
    code = main(["transform", fx("ext.qhsa"), "prime", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == Path(fx("ext.qhsa")).read_bytes()


def test_twist_h2_with_bundled_twistor(tmp_path):
    out = tmp_path / "h2-twisted.qhsa"
    code = main(
        ["transform", fx("h2.qhsa"), "twist", "--twistor", fx("f-e11.twist"), "--output", str(out)]
    )
    assert code == 0
    assert main(["check", str(out)]) == 0


def test_twist_rejects_invalid_twistor(tmp_path):
    bad = tmp_path / "bad.twist"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "field": {"kind": "rational"},
                "dimension": 2,
                "element": [[1, 1, "1"]],
            }
        )
    )
    out = tmp_path / "out.qhsa"
    code = main(["transform", fx("h2.qhsa"), "twist", "--twistor", str(bad), "--output", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_invalid_twistor_reports_its_witness(tmp_path, capsys, fmt):
    # 2 (1 (x) 1) + theta (x) theta is invertible and even, but both counit
    # legs are 2, so eq.cup fails; its report reaches stdout in either format
    bad = tmp_path / "bad.twist"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "field": {"kind": "rational"},
                "dimension": 2,
                "element": [[0, 0, "2"], [1, 1, "1"]],
            }
        )
    )
    out = tmp_path / "out.qhsa"
    argv = ["transform", fx("ext.qhsa"), "twist", "--twistor", str(bad), "--output", str(out)]
    assert main([*argv, "--format", fmt]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err == "invalid twistor: eq.cup\n"
    legs = {"eps-left": [[[0], "2"]], "eps-right": [[[0], "2"]]}
    if fmt == "json":
        doc = json.loads(captured.out)
        assert doc["fixture"] == "ext" and doc["overall"] == "fail"
        assert doc["entries"] == [
            {"suite": "twistor", "check_id": "twistor.even", "status": "pass"},
            {"suite": "twistor", "check_id": "eq.cup", "status": "fail", "witness": legs},
        ]
    else:
        assert captured.out == (
            "fixture: ext\n"
            "PASS    twistor: twistor.even\n"
            "FAIL    twistor: eq.cup\n"
            f"        witness: {json.dumps(legs)}\n"
            "overall: FAIL (1 passed, 1 failed, 0 skipped)\n"
        )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_singular_twistor_reports_twistor_invertible(tmp_path, capsys, fmt):
    # e0 (x) e0 is an idempotent other than 1 (x) 1, so it has no inverse
    bad = tmp_path / "singular.twist"
    bad.write_text(
        json.dumps(
            {
                "name": "singular",
                "field": {"kind": "rational"},
                "dimension": 2,
                "element": [[0, 0, "1"]],
            }
        )
    )
    out = tmp_path / "out.qhsa"
    argv = ["transform", fx("h2.qhsa"), "twist", "--twistor", str(bad), "--output", str(out)]
    assert main([*argv, "--format", fmt]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err == "invalid twistor: twistor.invertible\n"
    witness = {"reason": "twistor is not invertible: element has no left inverse"}
    if fmt == "json":
        [entry] = json.loads(captured.out)["entries"]
        assert entry == {
            "suite": "twistor",
            "check_id": "twistor.invertible",
            "status": "fail",
            "witness": witness,
        }
    else:
        assert captured.out == (
            "fixture: h2\n"
            "FAIL    twistor: twistor.invertible\n"
            f"        witness: {json.dumps(witness)}\n"
            "overall: FAIL (0 passed, 1 failed, 0 skipped)\n"
        )


@pytest.mark.parametrize(
    "fixture, edit, kinds, failed",
    [
        # S e1 = 0: the antipode is singular
        (
            "h2.qhsa",
            {"antipode": [[0, 0, "1"]]},
            ("opposite", "prime"),
            "structure.antipode-unit, structure.antipode-bijective",
        ),
        # Phi = theta (x) theta (x) 1 squares to zero; only the opposite inverts Phi
        ("ext.qhsa", {"phi": [[1, 1, 0, "1"]]}, ("opposite",), "structure.phi-invertible"),
        # 1 * 1 = 0 as well: the algebra fails and structure is skipped
        (
            "ext.qhsa",
            {"phi": [[1, 1, 0, "1"]], "mult": [[0, 1, 1, "1"], [1, 0, 1, "1"]]},
            ("opposite",),
            "algebra.unit, algebra.assoc",
        ),
    ],
)
def test_transform_of_a_singular_structure_reports_its_validation(
    tmp_path, capsys, fixture, edit, kinds, failed
):
    path = edited(tmp_path, fixture, **edit)
    capsys.readouterr()
    assert main(["validate", path]) == 1
    validation = capsys.readouterr().out
    for kind in kinds:
        out = tmp_path / f"{kind}.qhsa"
        assert main(["transform", path, kind, "--output", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.err == f"invalid structure: {failed}\n"
        assert captured.out == validation


def test_twist_inverts_only_the_twisted_coassociator(tmp_path, monkeypatch):
    """The twistor document declares its inverse and ``check_twistor`` reuses
    it, so the one inversion left is Phi of the twisted structure."""
    original = qhsa.algebra.invert_tensor_element
    arities = []

    def counting(x):
        arities.append(x.arity)
        return original(x)

    for module in (qhsa.algebra, qhsa.structure, qhsa.transforms):
        monkeypatch.setattr(module, "invert_tensor_element", counting)
    out = tmp_path / "h2ext-twisted.qhsa"
    argv = ["transform", fx("h2ext.qhsa"), "twist", "--twistor", fx("f-u11.twist")]
    assert main([*argv, "--output", str(out)]) == 0
    assert arities == [3]


def test_tensor_transform_reproduces_h2ext(tmp_path):
    out = tmp_path / "product.qhsa"
    code = main(
        ["transform", fx("h2.qhsa"), "tensor", "--other", fx("ext.qhsa"), "--output", str(out)]
    )
    assert code == 0
    ours = json.loads(out.read_text())
    bundled = json.loads(Path(fx("h2ext.qhsa")).read_text())
    ours.pop("name")
    bundled.pop("name")
    assert ours == bundled


def test_tensor_field_mismatch_is_an_input_error(tmp_path):
    out = tmp_path / "nope.qhsa"
    code = main(
        ["transform", fx("h2.qhsa"), "tensor", "--other", fx("h2r.qhsa"), "--output", str(out)]
    )
    assert code == 2


# -- hostile input -----------------------------------------------------------------

RATIONAL_FIELD = '"field": {"kind": "rational"}'


def cyclotomic_field(order):
    return '"field": {"kind": "cyclotomic", "order": %s}' % order


# fixture, its text to replace, replacement.  h2 scalars are bare rationals,
# which a cyclotomic document accepts, so only the field or the scalar is
# hostile there.  A bool dimension needs a one-dimensional document: on h2 the
# parity list of length 2 would reject it anyway.  A JSON bool loads as a
# Python int, so each bool row is a document the parser once accepted.  The
# nested rows are about 200 KB of JSON nested past the interpreter's recursion
# limit.
HOSTILE_EDITS = {
    "bool-order": ("h2.qhsa", RATIONAL_FIELD, cyclotomic_field("true")),
    "order-over-cap": ("h2.qhsa", RATIONAL_FIELD, cyclotomic_field(MAX_CYCLOTOMIC_ORDER + 1)),
    "order-beyond-int-digit-limit": (
        "h2.qhsa",
        RATIONAL_FIELD,
        cyclotomic_field("1" + "0" * 5000),
    ),
    "5000-digit-scalar": ("h2.qhsa", '"unit": ["1",', '"unit": ["1' + "0" * 4999 + '",'),
    "bool-dimension": ("trivial.qhsa", '"dimension": 1,', '"dimension": true,'),
    "bool-twistor-dimension": ("f-one.twist", '"dimension": 1,', '"dimension": true,'),
    "bool-index": ("h2.qhsa", '[1, 1, 1, "1"]', '[true, true, 1, "1"]'),
    "bool-parity": ("h2.qhsa", '"parity": [0, 0],', '"parity": [0, false],'),
    "bool-twistor-index": ("f-one.twist", '[0, 0, "1"]', '[false, 0, "1"]'),
    "nested-arrays": ("h2.qhsa", '"name": "h2",', '"name": ' + "[" * 100_000 + "]" * 100_000 + ","),
    "nested-twistor-objects": (
        "f-one.twist",
        '"name": "f-one",',
        '"name": ' + '{"a": ' * 30_000 + "0" + "}" * 30_000 + ",",
    ),
    "4000-digit-index": ("h2.qhsa", '[1, 1, 1, "1"]', "[1" + "0" * 3999 + ', 1, 1, "1"]'),
    "long-unknown-key": ("h2.qhsa", '"name": "h2",', '"name": "h2", "' + "k" * 10_000 + '": 0,'),
    "long-field-kind": ("h2.qhsa", RATIONAL_FIELD, '"field": {"kind": "' + "q" * 10_000 + '"}'),
    "twistor-name-not-a-string": ("f-one.twist", '"name": "f-one",', '"name": 5,'),
    "empty-twistor-name": ("f-one.twist", '"name": "f-one",', '"name": "",'),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_EDITS))
def test_hostile_input_is_a_one_line_input_error(tmp_path, capsys, case):
    fixture, old, new = HOSTILE_EDITS[case]
    text = Path(fx(fixture)).read_text()
    assert old in text
    path = tmp_path / fixture
    path.write_text(text.replace(old, new, 1))
    if fixture.endswith(".twist"):
        out = str(tmp_path / "twisted.qhsa")
        argv = ["transform", fx("trivial.qhsa"), "twist", "--twistor", str(path), "--output", out]
    else:
        argv = ["check", str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 300
    assert "Traceback" not in captured.err


# -- drinfeld ----------------------------------------------------------------------


def test_drinfeld_verify_and_emit(tmp_path):
    twist_out = tmp_path / "h2-fd.twist"
    report_out = tmp_path / "report.json"
    code = main(
        [
            "drinfeld",
            fx("h2.qhsa"),
            "--verify",
            "--emit-twist",
            str(twist_out),
            "--format",
            "json",
            "--output",
            str(report_out),
        ]
    )
    assert code == 0
    doc = json.loads(report_out.read_text())
    assert doc["overall"] == "pass"
    twist = json.loads(twist_out.read_text())
    assert twist["element"] == [
        [0, 0, "1"],
        [0, 1, "1"],
        [1, 0, "1"],
        [1, 1, "-1"],
    ]
    assert twist["normalization"] == {"eps_alpha": "1", "eps_beta": "1"}


def test_drinfeld_on_hopf_fixture_is_trivial(tmp_path):
    twist_out = tmp_path / "ext-fd.twist"
    code = main(["drinfeld", fx("ext.qhsa"), "--verify", "--emit-twist", str(twist_out)])
    assert code == 0
    twist = json.loads(twist_out.read_text())
    assert twist["element"] == [[0, 0, "1"]]


def test_drinfeld_without_verify_reports_construction_only(tmp_path):
    code, doc = run_json(tmp_path, "drinfeld", fx("trivial.qhsa"))
    assert code == 0
    ids = {e["check_id"] for e in doc["entries"]}
    assert "drinfeld.fd-inverse" in ids
    assert "thm3.phi" not in ids


def test_drinfeld_without_verify_runs_no_battery(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the theorem battery ran without --verify")

    for name in (
        "verify_lemma13",
        "verify_thm2",
        "check_alt_expressions",
        "verify_thm3",
        "verify_thm5",
        "verify_prime_equivalence",
    ):
        monkeypatch.setattr(qhsa.drinfeld, name, refuse)
    code, doc = run_json(tmp_path, "drinfeld", fx("h2r.qhsa"))
    assert code == 0
    assert [e["check_id"] for e in doc["entries"]] == [
        "drinfeld.gamma-alt",
        "eq.8.1",
        "drinfeld.gamma-bar-alt",
        "eq.8.7",
        "drinfeld.fd-inverse",
        "drinfeld.fd-counit",
    ]


@pytest.mark.parametrize("name", ["trivial", "ext", "h2", "h2r", "h2ext"])
def test_drinfeld_report_is_a_prefix_of_the_verified_one(tmp_path, name):
    code, doc = run_json(tmp_path, "drinfeld", fx(f"{name}.qhsa"))
    verify_code, verified = run_json(tmp_path, "drinfeld", fx(f"{name}.qhsa"), "--verify")
    assert code == verify_code == 0
    assert doc["entries"] == verified["entries"][: len(doc["entries"])]
    assert len(verified["entries"]) > len(doc["entries"])


def test_drinfeld_refuses_broken_structures(tmp_path, capsys):
    code = main(["drinfeld", fx("h2-broken-pentagon.qhsa"), "--output", str(tmp_path / "r.txt")])
    assert code == 1
    assert capsys.readouterr().err == "structure fails its base suites; not computing the twist\n"
    # plain drinfeld reports its premises; --verify reports the whole battery
    code, plain = run_json(tmp_path, "drinfeld", fx("h2-broken-pentagon.qhsa"))
    verify_code, battery = run_json(tmp_path, "drinfeld", fx("h2-broken-pentagon.qhsa"), "--verify")
    assert code == verify_code == 1
    premises = [e for e in battery["entries"] if e["suite"] in DRINFELD_PREMISES]
    assert plain["entries"] == premises == battery["entries"][: len(premises)]
    assert {e["check_id"] for e in premises if e["status"] == "fail"} == {
        "eq.fii",
        "eq.phi-counit-right",
        "eq.5ii1",
        "eq.5ii",
    }


@pytest.mark.parametrize(
    "name, code",
    [(n, 0) for n in ("trivial", "ext", "h2", "h2r", "h2ext")]
    + [("h2-broken-pentagon", 1), ("h2-broken-antipode", 1)],
)
def test_drinfeld_without_verify_runs_only_its_premises(tmp_path, monkeypatch, name, code):
    def refuse(H):
        raise AssertionError("plain drinfeld ran a suite outside its premises")

    for suite in ("pentagon-consequences", "lemma11", "eta", "quasi-triangular", "qqybe"):
        monkeypatch.setitem(SUITES, suite, (refuse, SUITES[suite][1]))
    assert run_json(tmp_path, "drinfeld", fx(f"{name}.qhsa"))[0] == code


def test_drinfeld_without_verify_needs_no_quasi_triangular_r(tmp_path):
    # -R is even and invertible, but (Delta (x) 1)(-R) != (-R)_13 (-R)_23
    doc = json.loads(Path(fx("h2r.qhsa")).read_text())
    r = [[i, j, json.dumps([-c for c in json.loads(v)])] for i, j, v in doc["r"]]
    path = edited(tmp_path, "h2r.qhsa", r=r)
    assert main(["check", path, "--suites", "structure"]) == 0
    assert main(["check", path, "--suites", "quasi-triangular"]) == 1
    assert main(["drinfeld", path]) == 0
    assert main(["drinfeld", path, "--verify"]) == 1


# -- entry point --------------------------------------------------------------------


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qhsa.cli", "check", fx("h2.qhsa")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "overall: PASS" in result.stdout


# The modules loaded at start-up (site .pth files may load third-party ones)
# are left out: only what running the CLI adds is checked.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
from qhsa.cli import main
for argv in sys.argv[1:]:
    main(json.loads(argv))
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(added - set(sys.stdlib_module_names) - {"qhsa"}))
"""


def test_the_cli_imports_only_the_stdlib(tmp_path):
    runs = [
        ["check", fx("h2r.qhsa")],
        ["drinfeld", fx("h2ext.qhsa"), "--verify", "--emit-twist", str(tmp_path / "f.twist")],
        ["transform", fx("ext.qhsa"), "twist", "--twistor", fx("f-theta.twist"),
         "--output", str(tmp_path / "out.qhsa")],
    ]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *map(json.dumps, runs)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
