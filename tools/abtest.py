"""Interleaved A/B timing of this checkout's ``qhsa`` against another
checkout's, in one process, on the ``bench`` workloads.

Run from anywhere:

    python3 tools/abtest.py ../parent                       # every workload, 30 passes
    python3 tools/abtest.py ../parent --workload cyclotomic --passes 50 --seed 7

This checkout builds each workload's inputs from ``bench/workloads.py``
(imported read-only, as is ``quartiles`` from ``bench/run.py``).  The other
checkout's ``src/qhsa`` is copied into a temporary directory under the
package name ``OTHER_PACKAGE`` and imported beside this checkout's ``qhsa``;
the package uses only relative imports, so the copy runs as it is.  A pass runs every job of the workload through
``cli.main`` of both checkouts, one right after the other, the checkout that
goes first alternating from pass to pass, with ``gc.collect()`` before each
call and outside its timing.  Running both sides interleaved in one process
puts them on the same machine state, so a ratio is far steadier than two
separate ``bench`` runs.

After each job the two runs must agree on the exit code, on stdout up to the
report's ``wall_time_seconds`` block (the last key of a report), on stderr
and on the file the job writes.  The summary gives, per workload, the median
pass time of each side and the median of the per-pass ratio this / other
with its quartiles.

``--spawns N`` times fresh interpreters instead: ``import qhsa.cli`` and
the commands of ``SPAWNS``, each run as the ``qhsa`` console script runs
it, with each checkout's ``src`` on ``PYTHONPATH``, in N rounds.  Within a
round every command runs once per side, one right after the other, the side
that goes first alternating from command to command and from round to
round.  The two runs of a command must agree on the exit code, stdout,
stderr and the file written (text reports hold no timings).  The summary
states the bytecode regime (``PYTHONDONTWRITEBYTECODE`` and whether each
package has a ``__pycache__``) and gives, per command, each side's median
wall time and the median of the per-round ratio this / other.

    python3 tools/abtest.py ../parent --spawns 21

Exit status: 0, or 1 when some job's runs differ.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import qhsa.cli  # noqa: E402
from run import quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OTHER_PACKAGE = "qhsa_abtest_other"
TIMINGS = '\n  "wall_time_seconds": '  # where the timings of a JSON report begin

WRITTEN = "out.qhsa"  # the one file a spawned command writes

# --spawns: (label, interpreter arguments).  Bare fixture names resolve to
# each side's bundled fixtures; the spawns run in an empty directory.
CONSOLE = ["-c", "import sys; from qhsa.cli import main; sys.exit(main())"]
SPAWNS = (
    ("import qhsa.cli", ["-c", "import qhsa.cli"]),
    ("check h2.qhsa", CONSOLE + ["check", "h2.qhsa"]),
    ("drinfeld h2r.qhsa --verify", CONSOLE + ["drinfeld", "h2r.qhsa", "--verify"]),
    (
        "transform h2.qhsa tensor --other ext.qhsa",
        CONSOLE
        + ["transform", "h2.qhsa", "tensor", "--other", "ext.qhsa", "--output", WRITTEN],
    ),
)


def load_other(src: Path, into: Path):
    """``cli`` of the ``qhsa`` package under ``src``, imported from a copy in
    ``into`` named ``OTHER_PACKAGE``."""
    shutil.copytree(src / "qhsa", into / OTHER_PACKAGE, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    return importlib.import_module(f"{OTHER_PACKAGE}.cli")


def run_job(cli, job) -> tuple:
    """(seconds, outcome) of one job through ``cli.main``; the outcome holds
    what both checkouts must agree on."""
    if job.output:
        Path(job.output).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:  # a job that raises is compared like any other
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
    stdout = out.getvalue()
    if TIMINGS in stdout:
        stdout = stdout[: stdout.rindex(TIMINGS)]
    written = Path(job.output).read_bytes() if job.output and Path(job.output).exists() else None
    return seconds, (code, stdout, err.getvalue(), written)


def compare(workload: str, jobs, this, other, passes: int) -> tuple:
    """(summary lines, labels of the jobs whose runs differ)."""
    totals = {"this": [], "other": []}
    differ = []
    for k in range(passes):
        sides = [("this", this), ("other", other)]
        if k % 2:
            sides.reverse()
        seconds = {"this": 0.0, "other": 0.0}
        for job in jobs:
            outcome = {}
            for name, cli in sides:
                t, outcome[name] = run_job(cli, job)
                seconds[name] += t
            if outcome["this"] != outcome["other"] and job.label not in differ:
                differ.append(job.label)
        for name in totals:
            totals[name].append(seconds[name])
    ratios = [a / b for a, b in zip(totals["this"], totals["other"])]
    lines = [f"workload {workload}: {passes} passes of {len(jobs)} jobs"]
    for name, values in totals.items():
        q1, median, q3 = quartiles(values)
        lines.append(f"  {name:5s} pass median {median:.4f} s (q1 {q1:.4f}, q3 {q3:.4f})")
    q1, median, q3 = quartiles(ratios)
    lines.append(f"  ratio this/other per pass: median {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f})")
    lines.append(f"  {len(differ)} of {len(jobs)} jobs differ")
    lines += [f"    differs: {label}" for label in differ]
    return lines, differ


def spawn(src: Path, args: list, cwd: Path) -> tuple:
    """(seconds, outcome) of one fresh interpreter running ``args`` with
    ``src`` first on its path; the outcome holds what both sides must agree on."""
    written = cwd / WRITTEN
    written.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("QHSA_FIXTURE_DIR", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)
    seconds = time.perf_counter() - start
    document = written.read_bytes() if written.exists() else None
    return seconds, (proc.returncode, proc.stdout, proc.stderr, document)


def bytecode_regime(sources: dict) -> str:
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    caches = ", ".join(
        f"{name} {'present' if (src / 'qhsa' / '__pycache__').is_dir() else 'absent'}"
        for name, src in sources.items()
    )
    return f"  bytecode: PYTHONDONTWRITEBYTECODE={flag or '(unset)'}; __pycache__: {caches}"


def compare_spawns(sources: dict, rounds: int, cwd: Path) -> tuple:
    """(summary lines, labels of the commands whose runs differ) of
    ``rounds`` rounds of ``SPAWNS``, each side from its ``src`` in ``sources``."""
    times = {label: {"this": [], "other": []} for label, _ in SPAWNS}
    differ = []
    lines = [f"spawns: {rounds} rounds of {len(SPAWNS)} commands, a fresh interpreter per run"]
    lines.append(bytecode_regime(sources))
    for k in range(rounds):
        for c, (label, args) in enumerate(SPAWNS):
            sides = ["this", "other"] if (k + c) % 2 == 0 else ["other", "this"]
            outcome = {}
            for name in sides:
                t, outcome[name] = spawn(sources[name], args, cwd)
                times[label][name].append(t)
            if outcome["this"] != outcome["other"] and label not in differ:
                differ.append(label)
    for label, sides in times.items():
        this, other = (quartiles(sides[name])[1] * 1e3 for name in ("this", "other"))
        q1, median, q3 = quartiles([a / b for a, b in zip(sides["this"], sides["other"])])
        lines.append(
            f"  {label}: this {this:.1f} ms, other {other:.1f} ms,"
            f" ratio this/other median {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f})"
        )
    lines.append(f"  {len(differ)} of {len(SPAWNS)} commands differ")
    lines += [f"    differs: {label}" for label in differ]
    return lines, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="the checkout to compare against")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all)")
    parser.add_argument("--passes", type=int, default=30)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument(
        "--spawns", type=int, metavar="N", help="time N rounds of fresh interpreters instead"
    )
    args = parser.parse_args(argv)
    src = Path(args.other).resolve() / "src"
    if not (src / "qhsa" / "cli.py").is_file():
        parser.error(f"no qhsa sources under {src}")
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.spawns is not None and args.spawns < 1:
        parser.error("--spawns must be at least 1")
    failed = False
    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="qhsa-abtest-") as tmp:
        if args.spawns is not None:
            sources = {"this": ROOT / "src", "other": src}
            lines, differ = compare_spawns(sources, args.spawns, Path(tmp))
            print("\n".join(lines), flush=True)
            return 1 if differ else 0
        other = load_other(src, Path(tmp))
        for workload in [args.workload] if args.workload else list(WORKLOADS):
            work = Path(tmp) / "work" / workload
            work.mkdir(parents=True)
            jobs = WORKLOADS[workload](work, args.seed)
            os.chdir(work)  # bundled fixtures are named bare; each side finds its own
            try:
                lines, differ = compare(workload, jobs, qhsa.cli, other, args.passes)
            finally:
                os.chdir(home)
            print("\n".join(lines), flush=True)
            failed = failed or bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
