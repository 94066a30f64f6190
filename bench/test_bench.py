"""Self-checks of the benchmark harness.  Run from the repository root:

    python3 -m pytest bench/test_bench.py

They take about a minute: the determinism check makes two short traced runs
of two workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.locate_source()

from workloads import WORKLOADS  # noqa: E402  (needs the path set above)

BENCH = Path(__file__).resolve().parent


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(*args):
    done = _bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(workload, tmp_path):
    def generate(seed, name):
        work = tmp_path / name
        work.mkdir()
        jobs = WORKLOADS[workload](work, seed)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        return [job.argv[0] for job in jobs], files

    first = generate(3, "first")
    assert generate(3, "again") == first
    if workload != "bundled":
        assert generate(4, "other")[1] != first[1]


@pytest.mark.parametrize("workload", ["bundled", "ladder"])
def test_traced_counts_repeat_for_a_seed(workload):
    first = _result("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    second = _result("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    counts = {
        name for name, metric in first["metrics"].items() if metric["unit"] == "count"
    }
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"]
    # Only ext (x) ext fails on bundled, once per pass; nothing fails elsewhere.
    passes = first["attempted"] // {"bundled": 42, "ladder": 7}[workload]
    assert first["failed"] == (passes if workload == "bundled" else 0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
