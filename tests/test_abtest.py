"""``tools/abtest.py``, the interleaved A/B harness, against its own checkout."""

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
