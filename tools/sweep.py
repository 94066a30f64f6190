"""Byte-identity sweep: run a fixed list of ``qhsa`` CLI jobs, one fresh
process each, and print one digest line per job.

Run from anywhere:

    python3 tools/sweep.py                      # digest of this checkout
    python3 tools/sweep.py --compare ../parent  # and diff against another checkout

The job list is deterministic:

- every job of the ``bench`` workloads (``bench/workloads.py``, imported
  read-only) at the seeds in ``SEEDS``;
- ``check``, ``validate``, ``drinfeld``, ``drinfeld --verify
  --emit-twist``, ``check --suites <suite>`` for each suite in ``SUITES``,
  the opt-in ``triangular`` included, and ``transform opposite|prime`` on
  each bundled fixture and on generated
  one-product documents (e0 e0 = e0, every other datum on e0 alone) of the
  dimensions in ``ONE_PRODUCT_DIMENSIONS``;
- ``transform A tensor --other B`` for every ordered pair of bundled
  fixtures, and for a generated diagonal document (unit e_0 + ... + e_(d-1),
  e_i e_i = e_i, a one-term Phi) of dimension ``DIAGONAL_DIMENSION`` on
  each side of h2 and of ext;
- ``check`` on the diagonal document of dimension ``DIAGONAL_DIMENSION``,
  where each word of the arity-3 unit meets the one-term Phi once;
- ``transform D twist --twistor T`` for every bundled fixture D and bundled
  twistor T that declare the same field and dimension;
- ``check`` and ``drinfeld --verify --emit-twist`` on copies of the
  ``ESCAPED_FIXTURES`` whose ``name`` needs escaping in JSON (``ESCAPED_NAME``);
- each of them once with ``--format json`` and once with ``--format text``;
- ``check``, ``drinfeld --verify --emit-twist`` and ``transform prime``,
  with ``--format json``, on every one-entry corruption of each bundled
  fixture (``corruptions``).

Inputs are generated once, by this checkout's ``qhsa``, into a temporary
directory; with ``--compare`` the other checkout's CLI runs the same jobs on
the same inputs.  A job's digest line holds its exit code and hashes of its
stdout (a JSON report without ``wall_time_seconds``), its stderr and each
file it writes (``--output``, ``--emit-twist``; ``-`` when it wrote none).
A report that ``json.dumps(report, indent=2)`` would not write byte for byte
hashes apart from one that it would.
The temporary directory reads ``{work}`` in job ids, stdout and stderr, so
digests from separate runs compare.

Exit status: 0, or 1 when ``--compare`` finds a job whose digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qhsa.cli import BUNDLED_DIR  # noqa: E402
from qhsa.documents import SPARSE_KEYS, STRUCTURE_KEYS  # noqa: E402
from qhsa.scalars import FieldSpec  # noqa: E402
from qhsa.structure import SUITES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (41, 7)
ONE_PRODUCT_DIMENSIONS = (50, 200)
DIAGONAL_DIMENSION = 50
TRANSFORMS = ("opposite", "prime")
FORMATS = ("json", "text")
WRITTEN = ("--output", "--emit-twist")  # options that name a file the job writes
ESCAPED_FIXTURES = ("h2r", "ext")
ESCAPED_NAME = 'caf\u00e9 "quoted" back\\slash'  # non-ASCII, a quote and a backslash


class SweepJob(NamedTuple):
    group: str  # the job's working directory under the sweep's directory
    argv: tuple


def _with_format(argv, fmt):
    """``argv`` with its ``--format`` option, if any, moved to the end and set to ``fmt``."""
    argv = list(argv)
    if "--format" in argv:
        del argv[argv.index("--format") : argv.index("--format") + 2]
    return tuple(argv) + ("--format", fmt)


def _emit_argv(directory: Path, stem: str) -> tuple:
    """``drinfeld --verify`` on ``<stem>.qhsa``, writing its twistor into ``directory``."""
    emit = str(directory / f"{stem}-drinfeld.twist")
    return ("drinfeld", f"{stem}.qhsa", "--verify", "--emit-twist", emit)


def _transform_argv(directory: Path, stem: str, kind: str) -> tuple:
    output = str(directory / f"{stem}-{kind}.qhsa")
    return ("transform", f"{stem}.qhsa", kind, "--output", output)


def document_jobs(work: Path, group: str, stems) -> list:
    """check, validate, drinfeld, drinfeld --verify --emit-twist, check
    --suites <suite> for each suite, triangular included, and transform
    opposite|prime on each document ``<stem>.qhsa``, run from
    ``work/group``, in both formats."""
    directory = work / group
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for stem in stems:
        path = f"{stem}.qhsa"
        argvs = [
            ("check", path),
            ("validate", path),
            ("drinfeld", path),
            _emit_argv(directory, stem),
            *(("check", path, "--suites", suite) for suite in SUITES),
            *(_transform_argv(directory, stem, kind) for kind in TRANSFORMS),
        ]
        jobs += [SweepJob(group, _with_format(argv, fmt)) for argv in argvs for fmt in FORMATS]
    return jobs


def fixture_names() -> list:
    """The bundled structure fixtures, which the CLI finds by bare file name."""
    return sorted(p.stem for p in BUNDLED_DIR.glob("*.qhsa"))


def fixture_jobs(work: Path, names=None) -> list:
    """``document_jobs`` on each bundled fixture (all of them when ``names``
    is None)."""
    return document_jobs(work, "fixtures", names or fixture_names())


def one_product_document(d: int) -> dict:
    """A structure document of dimension d with the one product e0 e0 = e0
    and every other datum on e0 alone, so its unit fails."""
    zeros = ["0"] * (d - 1)
    return {
        "name": f"sparse-{d}",
        "field": {"kind": "rational"},
        "dimension": d,
        "parity": [0] * d,
        "unit": ["1", *zeros],
        "mult": [[0, 0, 0, "1"]],
        "delta": [[0, 0, 0, "1"]],
        "epsilon": ["1", *zeros],
        "antipode": [[0, 0, "1"]],
        "phi": [[0, 0, 0, "1"]],
        "alpha": ["1", *zeros],
        "beta": ["1", *zeros],
    }


def generated_jobs(work: Path, dimensions=ONE_PRODUCT_DIMENSIONS) -> list:
    """``document_jobs`` on a one-product document of each dimension."""
    directory = work / "generated"
    directory.mkdir(parents=True, exist_ok=True)
    for d in dimensions:
        (directory / f"sparse-{d}.qhsa").write_text(json.dumps(one_product_document(d)))
    return document_jobs(work, "generated", [f"sparse-{d}" for d in dimensions])


def diagonal_document(d: int) -> dict:
    """A structure document of dimension d with unit e_0 + ... + e_(d-1),
    e_i e_i = e_i, Delta(e_i) = e_i (x) e_i, S = 1 and the one-term Phi
    e0 (x) e0 (x) e0, so its arity-3 unit has d^3 terms and its Phi is not
    trivial."""
    ones = ["1"] * d
    diagonal = [[i, i, i, "1"] for i in range(d)]
    return {
        "name": f"diagonal-{d}",
        "field": {"kind": "rational"},
        "dimension": d,
        "parity": [0] * d,
        "unit": ones,
        "mult": diagonal,
        "delta": diagonal,
        "epsilon": ones,
        "antipode": [[i, i, "1"] for i in range(d)],
        "phi": [[0, 0, 0, "1"]],
        "alpha": ones,
        "beta": ones,
    }


def tensor_jobs(work: Path, names=None, dimension=DIAGONAL_DIMENSION) -> list:
    """``transform A tensor --other B`` for every ordered pair (A, B) of the
    bundled fixtures ``names`` (all of them when None), then for a diagonal
    document of ``dimension`` before and after h2 and ext, in both formats."""
    directory = work / "tensor"
    directory.mkdir(parents=True, exist_ok=True)
    diagonal = f"diagonal-{dimension}"
    (directory / f"{diagonal}.qhsa").write_text(json.dumps(diagonal_document(dimension)))
    names = names or fixture_names()
    pairs = [(a, b) for a in names for b in names]
    pairs += [pair for name in ("h2", "ext") for pair in ((diagonal, name), (name, diagonal))]
    jobs = []
    for a, b in pairs:
        output = str(directory / f"{a}-{b}.qhsa")
        argv = ("transform", f"{a}.qhsa", "tensor", "--other", f"{b}.qhsa", "--output", output)
        jobs += [SweepJob("tensor", _with_format(argv, fmt)) for fmt in FORMATS]
    return jobs


def diagonal_jobs(work: Path, dimension=DIAGONAL_DIMENSION) -> list:
    """``check`` on a diagonal document of ``dimension``, in both formats."""
    directory = work / "diagonal"
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"diagonal-{dimension}"
    (directory / f"{stem}.qhsa").write_text(json.dumps(diagonal_document(dimension)))
    return [SweepJob("diagonal", ("check", f"{stem}.qhsa", "--format", fmt)) for fmt in FORMATS]


def _header(path: Path) -> tuple:
    data = json.loads(path.read_text(encoding="utf-8"))
    return data["field"], data["dimension"]


def twist_pairs(names=None) -> list:
    """(D, T) for each bundled fixture D in ``names`` (all of them when None)
    and each bundled twistor T that declares the same field and dimension."""
    twistors = sorted(p.stem for p in BUNDLED_DIR.glob("*.twist"))
    return [
        (d, t)
        for d in names or fixture_names()
        for t in twistors
        if _header(BUNDLED_DIR / f"{d}.qhsa") == _header(BUNDLED_DIR / f"{t}.twist")
    ]


def twist_jobs(work: Path, names=None) -> list:
    """``transform D twist --twistor T`` for each of ``twist_pairs(names)``,
    in both formats."""
    directory = work / "twist"
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for d, t in twist_pairs(names):
        output = str(directory / f"{d}-{t}.qhsa")
        argv = ("transform", f"{d}.qhsa", "twist", "--twistor", f"{t}.twist", "--output", output)
        jobs += [SweepJob("twist", _with_format(argv, fmt)) for fmt in FORMATS]
    return jobs


def escaped_jobs(work: Path, names=ESCAPED_FIXTURES) -> list:
    """``check`` and ``drinfeld --verify --emit-twist`` on a copy of each
    bundled fixture in ``names`` named ``<fixture> ESCAPED_NAME``, in both
    formats: reports, twistors and text all write the name."""
    directory = work / "escaped"
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name in names:
        doc = json.loads((BUNDLED_DIR / f"{name}.qhsa").read_text(encoding="utf-8"))
        stem = f"{name}-escaped"
        (directory / f"{stem}.qhsa").write_text(json.dumps({**doc, "name": f"{name} {ESCAPED_NAME}"}))
        argvs = (("check", f"{stem}.qhsa"), _emit_argv(directory, stem))
        jobs += [SweepJob("escaped", _with_format(argv, fmt)) for argv in argvs for fmt in FORMATS]
    return jobs


def _ends(entries) -> list:
    """(stem label, index) of the first of ``entries`` and, when there is
    more than one, of the last."""
    return [("", 0)] + ([("-last", len(entries) - 1)] if len(entries) > 1 else [])


def corruptions(doc: dict) -> dict:
    """stem suffix -> a copy of the structure document ``doc`` with one entry
    changed: the scalar of the first row of each sparse key negated, then
    doubled, then that row dropped; entry 0 of each vector key raised by 1;
    ``parity[0]`` flipped.  Each is also made on the last row or entry where
    there is more than one, its suffix marked ``-last``.  Keys are taken in
    ``STRUCTURE_KEYS`` order, sparse ones (``SPARSE_KEYS``) first.  Scalars
    are read and written by the field's own ``parse`` and ``format``."""
    field = FieldSpec.from_json(doc["field"])
    body = [key for key in STRUCTURE_KEYS[4:] if key in doc]
    out = {}
    for key in [k for k in body if k in SPARSE_KEYS]:
        rows = doc[key]
        for label, i in _ends(rows):
            row, before, after = rows[i], rows[:i], rows[i + 1 :]
            value = field.parse(row[-1])
            for kind, changed in (("negated", -value), ("doubled", 2 * value)):
                changed_row = row[:-1] + [field.format(changed)]
                out[f"{key}{label}-{kind}"] = {**doc, key: [*before, changed_row, *after]}
            out[f"{key}{label}-dropped"] = {**doc, key: before + after}
    for key in [k for k in body if k not in SPARSE_KEYS]:
        vector = doc[key]
        for label, i in _ends(vector):
            raised = field.format(field.parse(vector[i]) + 1)
            out[f"{key}{label}-raised"] = {**doc, key: [*vector[:i], raised, *vector[i + 1 :]]}
    parity = doc["parity"]
    for label, i in _ends(parity):
        flipped = [*parity[:i], 1 - parity[i], *parity[i + 1 :]]
        out[f"parity{label}-flipped"] = {**doc, "parity": flipped}
    return out


def corruption_jobs(work: Path, names=None) -> list:
    """``check``, ``drinfeld --verify --emit-twist`` and ``transform prime``
    on each of the ``corruptions`` of each bundled fixture in ``names`` (all
    of them when None), written as ``<fixture>-<suffix>.qhsa``, in json."""
    directory = work / "corrupted"
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name in names or fixture_names():
        doc = json.loads((BUNDLED_DIR / f"{name}.qhsa").read_text(encoding="utf-8"))
        for suffix, corrupted in corruptions(doc).items():
            stem = f"{name}-{suffix}"
            (directory / f"{stem}.qhsa").write_text(json.dumps(corrupted))
            argvs = (
                ("check", f"{stem}.qhsa"),
                _emit_argv(directory, stem),
                _transform_argv(directory, stem, "prime"),
            )
            jobs += [SweepJob("corrupted", _with_format(argv, "json")) for argv in argvs]
    return jobs


def bench_jobs(work: Path, seeds=SEEDS) -> list:
    """Every job of every ``bench`` workload at each seed, in both formats,
    in the workload's order: a later job may read what an earlier one wrote."""
    jobs = []
    for seed in seeds:
        for name, build in WORKLOADS.items():
            group = f"{name}-{seed}"
            (work / group).mkdir(parents=True, exist_ok=True)
            for job in build(work / group, seed):
                jobs += [SweepJob(group, _with_format(job.argv, fmt)) for fmt in FORMATS]
    return jobs


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _stable_stdout(text: str) -> str:
    """A JSON report without ``wall_time_seconds``, marked when its text is
    not what ``json.dumps(report, indent=2)`` writes, so that a change in how
    a report is written (an escape, say) changes the digest; any other text
    as it is."""
    try:
        report = json.loads(text)
    except ValueError:
        return text
    written = json.dumps(report, indent=2) + "\n" == text
    if isinstance(report, dict):
        report.pop("wall_time_seconds", None)
    return json.dumps(report) if written else "not indent-2: " + json.dumps(report)


def job_id(job: SweepJob, work: Path) -> str:
    return f"{job.group}: " + " ".join(job.argv).replace(str(work), "{work}")


def run_job(job: SweepJob, src: Path, work: Path) -> str:
    """Run ``job`` with the ``qhsa`` package under ``src`` in a fresh
    interpreter and return its digest line."""
    cwd = work / job.group
    written = [cwd / job.argv[i + 1] for i, a in enumerate(job.argv) if a in WRITTEN]
    for path in written:
        path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "QHSA_FIXTURE_DIR"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-m", "qhsa.cli", *job.argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    prefix = str(work)
    stdout = _stable_stdout(proc.stdout.replace(prefix, "{work}"))
    fields = [
        job_id(job, work),
        f"exit={proc.returncode}",
        f"stdout={_hash(stdout.encode())}",
        f"stderr={_hash(proc.stderr.replace(prefix, '{work}').encode())}",
    ]
    for path in written:
        digest = _hash(path.read_bytes()) if path.exists() else "-"
        fields.append(f"{path.name}={digest}")
    return "\t".join(fields)


def sweep(jobs, src: Path, work: Path) -> list:
    return [run_job(job, src, work) for job in jobs]


def differences(mine: list, theirs: list) -> list:
    """The (mine, theirs) pairs of digest lines that differ, in job order."""
    return [(a, b) for a, b in zip(mine, theirs) if a != b]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="DIR", help="another checkout to diff against")
    args = parser.parse_args(argv)
    other = args.compare and Path(args.compare).resolve() / "src"
    if other and not (other / "qhsa" / "cli.py").is_file():
        parser.error(f"no qhsa sources under {other}")
    with tempfile.TemporaryDirectory(prefix="qhsa-sweep-") as tmp:
        work = Path(tmp)
        jobs = [
            *bench_jobs(work),
            *fixture_jobs(work),
            *generated_jobs(work),
            *tensor_jobs(work),
            *diagonal_jobs(work),
            *twist_jobs(work),
            *escaped_jobs(work),
            *corruption_jobs(work),
        ]
        mine = sweep(jobs, ROOT / "src", work)
        sys.stdout.write("".join(line + "\n" for line in mine))
        if not args.compare:
            return 0
        theirs = sweep(jobs, other, work)
    diff = differences(mine, theirs)
    for a, b in diff:
        sys.stdout.write(f"differs:\n  this:  {a}\n  other: {b}\n")
    sys.stdout.write(f"{len(diff)} of {len(jobs)} jobs differ from {args.compare}\n")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
