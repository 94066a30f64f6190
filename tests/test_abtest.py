"""``tools/abtest.py``, the interleaved A/B harness, against its own checkout."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_a_checkout_compared_with_itself_differs_in_no_job():
    argv = [sys.executable, str(ROOT / "tools" / "abtest.py"), str(ROOT), "--workload", "bundled"]
    proc = subprocess.run(argv + ["--passes", "1"], capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload bundled: 1 passes of 42 jobs"
    assert lines[-1] == "  0 of 42 jobs differ"
    assert "ratio this/other per pass: median" in lines[3]
    assert re.fullmatch(r"  this faster in [01] of 1 passes", lines[4])


def test_spawn_mode_against_its_own_checkout_states_its_regime_and_differs_in_nothing():
    argv = [sys.executable, str(ROOT / "tools" / "abtest.py"), str(ROOT), "--spawns", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "spawns: 1 rounds of 4 commands, a fresh interpreter per run"
    assert lines[1].startswith("  bytecode: PYTHONDONTWRITEBYTECODE=")
    assert "__pycache__: this " in lines[1]
    labels = [line.split(":")[0].strip() for line in lines[2:6]]
    assert labels == [
        "import qhsa.cli",
        "check h2.qhsa",
        "drinfeld h2r.qhsa --verify",
        "transform h2.qhsa tensor --other ext.qhsa",
    ]
    assert all("ratio this/other median" in line for line in lines[2:6])
    assert all(re.search(r", this faster in [01] of 1 rounds$", line) for line in lines[2:6])
    assert lines[-1] == "  0 of 4 commands differ"
