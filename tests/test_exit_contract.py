"""The CLI's exit contract on valid and corrupted documents: every run ends in
exit 0, 1 or 2 without a traceback, and a verdict always comes with a report
whose last line states it."""

import json
from pathlib import Path

import pytest

from qhsa.cli import main
from qhsa.structure import SUITES

FIXTURE_DIR = Path(__file__).parent.parent / "src" / "qhsa" / "fixtures"
BUNDLED = sorted(p.stem for p in FIXTURE_DIR.glob("*.qhsa"))


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
    path = FIXTURE_DIR / f"{base}.qhsa"
    if not corruption:
        return str(path)
    doc = json.loads(path.read_text())
    _corrupt(doc, corruption)
    path = tmp_path / f"{base}-{corruption}.qhsa"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_command_keeps_the_exit_contract(tmp_path, capsys, name):
    path = _document(tmp_path, name)
    out = str(tmp_path / "out.qhsa")
    runs = [["check", path], ["validate", path], ["drinfeld", path], ["drinfeld", path, "--verify"]]
    runs += [["check", path, "--suites", suite] for suite in SUITES]
    runs += [["transform", path, kind, "--output", out] for kind in ("opposite", "prime")]
    capsys.readouterr()
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.err, argv
        if code == 1:
            assert captured.out.splitlines()[-1].startswith("overall: FAIL"), argv
        elif code == 0:
            assert captured.out.splitlines()[-1].startswith("overall: PASS"), argv
