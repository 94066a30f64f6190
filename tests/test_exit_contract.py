"""The CLI's exit contract on valid and corrupted documents: every run ends in
exit 0, 1 or 2 without a traceback, and a verdict always comes with a report
whose last line states it."""

import json
from pathlib import Path

import pytest

from qhsa.cli import BUNDLED_DIR, main
from qhsa.documents import load_structure
from qhsa.drinfeld import drinfeld_construction
from qhsa.fixtures import ALL_TWISTOR_NAMES, build_twistor
from qhsa.structure import SUITES

BUNDLED = sorted(p.stem for p in BUNDLED_DIR.glob("*.qhsa"))


CORRUPTIONS = (
    "coefficient-dropped",
    "unit-row-dropped",
    "parity-flipped",
    "singular-phi",
    "singular-antipode",
)


def _corrupt(doc, corruption):
    """Apply ``corruption`` to a bundled h2 or ext document, in place."""
    if corruption == "coefficient-dropped":
        doc["delta"].pop()
    elif corruption == "unit-row-dropped":
        # e0 e0 = e0: the row 1 * 1 = 1 of ext, an idempotent row of h2
        doc["mult"] = [row for row in doc["mult"] if row[:3] != [0, 0, 0]]
    elif corruption == "parity-flipped":
        doc["parity"][1] ^= 1
    elif corruption == "singular-phi":
        # theta (x) theta (x) 1 squares to zero; e0 (x) e0 (x) e0 is an idempotent
        doc["phi"] = [[1, 1, 0, "1"]] if doc["name"] == "ext" else [[0, 0, 0, "1"]]
    else:  # singular-antipode: S e1 = 0
        doc["antipode"] = [row for row in doc["antipode"] if row[0] != 1]


DOCUMENTS = BUNDLED + [f"{base}~{c}" for base in ("h2", "ext") for c in CORRUPTIONS]


def _document(tmp_path, name):
    base, _, corruption = name.partition("~")
    path = BUNDLED_DIR / f"{base}.qhsa"
    if not corruption:
        return str(path)
    doc = json.loads(path.read_text())
    _corrupt(doc, corruption)
    path = tmp_path / f"{base}-{corruption}.qhsa"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv) -> int:
    """Run the CLI once and check the contract; returns the exit code."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err, argv
    if code == 1:
        assert captured.out.splitlines()[-1].startswith("overall: FAIL"), argv
    elif code == 0:
        assert captured.out.splitlines()[-1].startswith("overall: PASS"), argv
    return code


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_command_keeps_the_exit_contract(tmp_path, capsys, name):
    path = _document(tmp_path, name)
    out = str(tmp_path / "out.qhsa")
    runs = [["check", path], ["validate", path], ["drinfeld", path], ["drinfeld", path, "--verify"]]
    runs += [["check", path, "--suites", suite] for suite in SUITES]
    runs += [["transform", path, kind, "--output", out] for kind in ("opposite", "prime")]
    for argv in runs:
        _run(capsys, argv)


# each bundled twistor on its target, and two of them on the corrupted targets
TWISTS = [(build_twistor(t)[0], t) for t in ALL_TWISTOR_NAMES] + [
    (f"{base}~{c}", twistor)
    for base, twistor in (("h2", "f-e11"), ("ext", "f-theta"))
    for c in CORRUPTIONS
]


@pytest.mark.parametrize("name, twistor", TWISTS, ids=[f"{n}+{t}" for n, t in TWISTS])
def test_transform_twist_keeps_the_exit_contract(tmp_path, capsys, name, twistor):
    """A well-formed twistor document whose field and dimension match the
    structure's is never an input error, whatever is wrong with either:
    a failed check exits 1 with its report."""
    path = _document(tmp_path, name)
    twist = str(BUNDLED_DIR / f"{twistor}.twist")
    argv = ["transform", path, "twist", "--twistor", twist, "--output", str(tmp_path / "out.qhsa")]
    assert _run(capsys, argv) != 2, argv


@pytest.mark.parametrize("name", DOCUMENTS)
def test_drinfeld_construction_reports_and_never_raises(tmp_path, name):
    """The library call reports what the CLI's premises would refuse: a
    corrupted structure gives a failing report and no data, never an
    exception."""
    _, H = load_structure(Path(_document(tmp_path, name)).read_text())
    data, report = drinfeld_construction(H)
    assert (data is not None) == report.ok
    assert data is not None or report.failed_ids()


# an index that is not an integer, as JSON text: each is echoed into the error
LONG_INDICES = {
    "list-nested-900-deep": "[" * 900 + "]" * 900,
    "100000-character-string": json.dumps("1" * 100_000),
}


@pytest.mark.parametrize("case", sorted(LONG_INDICES))
def test_a_long_index_is_echoed_in_one_short_line(tmp_path, capsys, case):
    text = (BUNDLED_DIR / "h2.qhsa").read_text()
    assert '[1, 1, 1, "1"]' in text
    path = tmp_path / "h2.qhsa"
    path.write_text(text.replace('[1, 1, 1, "1"]', f'[{LONG_INDICES[case]}, 1, 1, "1"]', 1))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not an integer" in err
    assert err.count("\n") == 1 and len(err.encode()) < 300


@pytest.mark.parametrize("spec", [{}, []], ids=["empty-object", "empty-list"])
@pytest.mark.parametrize("kind", ["structure", "twistor"])
def test_an_empty_field_spec_is_one_input_error(tmp_path, capsys, kind, spec):
    """A field spec without a ``kind`` is refused as input, exit 2 with one
    line, whether it is an object or not."""
    source = BUNDLED_DIR / ("h2.qhsa" if kind == "structure" else "f-e11.twist")
    doc = json.loads(source.read_text())
    doc["field"] = spec
    path = tmp_path / source.name
    path.write_text(json.dumps(doc))
    if kind == "structure":
        argv = ["check", str(path)]
    else:
        h2 = str(BUNDLED_DIR / "h2.qhsa")
        argv = ["transform", h2, "twist", "--twistor", str(path), "--output", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: field: invalid field spec {json.dumps(spec)}\n"
