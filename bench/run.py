"""Benchmark of the qhsa verifier, driven through its command-line entry point.

Run from the repository root:

    python3 bench/run.py --workload bundled --seed 1 --seconds 25 --trace 0

A run builds the workload's inputs from ``--seed``, then repeats passes over
the workload's fixed job list for ``--seconds`` (at least ``MIN_PASSES``).
A pass calls ``qhsa.cli.main(argv)`` once per job, in this process and
thread, and times every call from outside.  Every job is checked against
the verdict the mathematics predicts and against the first pass's report
and written document.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then traced passes, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

MIN_PASSES = 3
TAIL_PASSES = 3  # job_tail_s: the highest percentile with TAIL_BEYOND jobs beyond it
TAIL_BEYOND = 10  # in TAIL_PASSES passes, applied to all passes of the run
SETUP_SPAWNS = 15
COMMANDS = ("check", "drinfeld", "transform")

# Machine-speed calibration.  The shared machines this runs on switch between
# speed states that differ by up to 1.7x for tens of seconds at a time, which
# no number of passes averages out.  So the harness times a fixed calibration
# kernel between every two jobs and at both ends of a pass, and scales each
# job's wall time by CAL_REFERENCE over the mean of the kernel times just
# before and just after it.  Reported times are therefore seconds at the speed where the
# kernel takes CAL_REFERENCE seconds (the fast state of the 2-core x86
# sandbox the baseline was measured on); the summary also prints raw medians.
CAL_REFERENCE = 0.008

# name -> unit.  End-to-end metrics come from untraced passes only.
END_TO_END = {
    "pass_s": "s",
    "job_tail_s": "s",
    "check_s": "s",
    "drinfeld_s": "s",
    "transform_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SUITES = (
    "algebra",
    "structure",
    "quasi-bialgebra",
    "antipode",
    "pentagon-consequences",
    "lemma11",
    "eta",
    "quasi-triangular",
    "qqybe",
)
DRINFELD_STAGES = ("construct", "lemma13", "thm2", "altexpr", "thm3", "thm5", "prime_equivalence")
TRANSFORMS = ("twist_structure", "opposite_structure", "tensor_product_structure")
KERNELS = ("apply_map_legs", "permute_legs", "embed_legs", "invert_structure_map")

PER_LAYER = {
    "algebra.invert_tensor_element.calls": "count",
    "algebra.invert_tensor_element.s": "s",
    "algebra.invert_tensor_element.max_system": "count",
    "algebra.dense_solve.s": "s",
    "algebra.tensor_multiply.calls": "count",
    "algebra.tensor_multiply.s": "s",
    "algebra.tensor_multiply.pairs": "count",
    "algebra.tensor_multiply.terms_out": "count",
    **{f"algebra.{k}.{m}": u for k in KERNELS for m, u in (("calls", "count"), ("s", "s"))},
    "algebra.TensorElement.new": "count",
    "scalars.cyclotomic_mul.calls": "count",
    "scalars.reduce_mod_cyclotomic.calls": "count",
    "scalars.reduce_mod_cyclotomic.s": "s",
    "scalars.field_invert.calls": "count",
    **{f"structure.suite.{name}.s": "s" for name in SUITES},
    **{f"drinfeld.{stage}.s": "s" for stage in DRINFELD_STAGES},
    "transforms.prime_structure.calls": "count",
    **{f"transforms.{t}.{m}": u for t in TRANSFORMS for m, u in (("calls", "count"), ("s", "s"))},
    "documents.parse.calls": "count",
    "documents.parse.s": "s",
    "documents.serialize.calls": "count",
    "documents.serialize.s": "s",
    "reporting.expect_equal.calls": "count",
    "reporting.expect_equal.fails": "count",
    "reporting.witness_terms": "count",
    "cli.main.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def locate_source():
    """Put the checkout's ``src`` first on the path and import qhsa from it."""
    if not (SRC / "qhsa" / "cli.py").is_file():
        raise SystemExit(f"error: no qhsa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qhsa

    if Path(qhsa.__file__).resolve().parent != (SRC / "qhsa").resolve():
        raise SystemExit(f"error: imported qhsa from {qhsa.__file__}, not from {SRC}")


def calibration_kernel() -> float:
    """Seconds taken by fixed work shaped like the verifier's: products of
    sparse Fraction-valued maps keyed by tuples, as in the tensor kernel, then
    filling a tuple-keyed dict and round-tripping part of it as JSON text, as
    documents and reports do.  It uses no qhsa code, so program changes do not
    move it."""
    start = time.perf_counter()
    x = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    products = {}
    for (a, b), c in x.items():
        for (d, e), f in x.items():
            key = (a * d % 7, b + e)
            v = c * f
            products[key] = products[key] + v if key in products else v
    table = {}
    for i in range(6000):
        table[(i, i % 7)] = [i, str(i)]
    json.loads(json.dumps({str(k): v for k, v in list(table.items())[:2000]}))
    return time.perf_counter() - start


@dataclass
class JobRun:
    job: object
    wall: float  # measured wall time
    failure: str | None  # None when the job met every expectation
    scale: float = 1.0  # CAL_REFERENCE over the kernel time around this job

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


def calibrated(timed_calls):
    """Run each callable, which returns a JobRun, with the calibration kernel
    before it and after it, and set the run's scale from the two."""
    before = calibration_kernel()
    for call in timed_calls:
        run = call()
        after = calibration_kernel()
        run.scale = CAL_REFERENCE / ((before + after) / 2)
        before = after
        yield run


class Runner:
    """Runs passes over one job list and checks every job's outcome."""

    def __init__(self, jobs):
        import qhsa.cli

        self.cli = qhsa.cli
        self.jobs = jobs
        self.reference = {}  # job index -> (report without timings, document bytes)

    def run_pass(self, tracer=None) -> list:
        return list(
            calibrated(partial(self._run, i, job, tracer) for i, job in enumerate(self.jobs))
        )

    def _run(self, index, job, tracer):
        if job.output:
            Path(job.output).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = index
        gc.collect()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(job.argv))  # looked up per call: tracing rebinds it
            except (Exception, SystemExit) as exc:  # a job that raises is a failed job
                code, error = None, f"raised {exc!r}"
            wall = time.perf_counter() - start
        return JobRun(job, wall, error or self._check(index, job, code, out.getvalue()))

    def _check(self, index, job, code, stdout):
        if code != job.expect_exit:
            return f"exit {code}, expected {job.expect_exit}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "report is not JSON"
        if not isinstance(report, dict):
            return "report is not a JSON object"
        report.pop("wall_time_seconds", None)
        if (report.get("overall") == "pass") != (code == 0):
            return f"overall {report.get('overall')!r} disagrees with exit {code}"
        if job.expect_failing:
            failing = {e.get("check_id") for e in report.get("entries", []) if e.get("status") == "fail"}
            if job.expect_failing not in failing:
                return f"{job.expect_failing} did not fail"
        document = Path(job.output).read_bytes() if job.output else None
        seen = self.reference.setdefault(index, (report, document))
        if seen != (report, document):
            return "report or document differs from the first pass"
        return None


def time_setup(spawns: int) -> list:
    """Calibrated wall times of fresh interpreters importing ``qhsa.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def spawn():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qhsa.cli"], cwd=ROOT, env=env, check=True)
        return JobRun(None, time.perf_counter() - start, None)

    return list(calibrated(spawn for _ in range(spawns)))


def run_passes(runner, deadline, min_passes, tracer=None) -> tuple:
    """Passes until the ``perf_counter`` deadline; returns (passes, per-layer rows)."""
    passes, layers = [], []
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        passes.append(runner.run_pass(tracer))
        if tracer is not None:
            layers.append(tracer.pass_metrics())
    return passes, layers


def pass_seconds(runs, command=None, raw=False) -> float:
    return sum(
        r.wall if raw else r.seconds for r in runs if command is None or r.job.command == command
    )


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def job_tail(passes) -> tuple:
    """(latency, percentile, n) over every job of the run.  The percentile is
    the highest with TAIL_BEYOND jobs beyond it in TAIL_PASSES passes, so it
    depends on the job list only, not on how many passes fit in the run."""
    latencies = sorted(r.seconds for runs in passes for r in runs)
    fraction = 1 - TAIL_BEYOND / (TAIL_PASSES * len(passes[0]))
    rank = max(math.ceil(fraction * len(latencies)) - 1, 0)
    return latencies[rank], 100 * fraction, len(latencies)


def end_to_end(passes, setup_runs) -> tuple:
    """(metrics, summary lines) from untraced passes."""
    metrics, lines = {}, []

    def timing(name, values, raw, how):
        q1, median, q3 = quartiles(values)
        metrics[name] = median
        lines.append(
            f"{name:12s} {median:10.4f} s   {how}, q1 {q1:.4f} q3 {q3:.4f}, "
            f"raw median {statistics.median(raw):.4f}"
        )

    totals = [pass_seconds(runs) for runs in passes]
    raw = [pass_seconds(runs, raw=True) for runs in passes]
    timing("pass_s", totals, raw, f"median of {len(totals)} passes")
    tail, percentile, n = job_tail(passes)
    metrics["job_tail_s"] = tail
    lines.append(f"{'job_tail_s':12s} {tail:10.4f} s   p{percentile:.1f} of n={n} jobs")
    for command in COMMANDS:
        values = [pass_seconds(runs, command) for runs in passes]
        raw = [pass_seconds(runs, command, raw=True) for runs in passes]
        timing(f"{command}_s", values, raw, f"summed per pass, median of {len(values)}")
    timing(
        "setup_s",
        [r.seconds for r in setup_runs],
        [r.wall for r in setup_runs],
        f"median of {len(setup_runs)} spawns",
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"{'peak_rss_mb':12s} {metrics['peak_rss_mb']:10.1f} MB  maximum RSS")
    return metrics, lines


def per_layer(layers, untraced, traced) -> tuple:
    """(metrics, summary lines, counts agree) from the traced passes."""
    metrics, lines = {}, []
    counts_agree = True
    # span times are wall times; scale them like the pass they belong to
    scales = [pass_seconds(runs) / pass_seconds(runs, raw=True) for runs in traced]
    for name, unit in PER_LAYER.items():
        if name.startswith("trace."):
            continue
        values = [row.get(name, 0) for row in layers]
        if unit == "count":
            counts_agree = counts_agree and len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(v * scale for v, scale in zip(values, scales))
    untraced_s = statistics.median(pass_seconds(runs) for runs in untraced)
    metrics["trace.pass_s"] = statistics.median(pass_seconds(runs) for runs in traced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced_s
    for name, unit in PER_LAYER.items():
        value = metrics[name]
        shown = f"{value:.4f}" if unit == "s" else f"{value}"
        lines.append(f"{name:48s} {shown:>14s} {unit}")
    lines.append(
        f"tracing overhead: traced pass_s {metrics['trace.pass_s']:.4f} s minus untraced "
        f"pass_s {untraced_s:.4f} s = {metrics['trace.overhead_s']:.4f} s "
        f"({len(traced)} traced, {len(untraced)} untraced passes)"
    )
    return metrics, lines, counts_agree


def measure(args, work: Path) -> tuple:
    """Run one workload; returns (result object, summary lines)."""
    from workloads import WORKLOADS

    jobs = WORKLOADS[args.workload](work, args.seed)
    runner = Runner(jobs)
    lines = [f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs per pass"]
    if args.trace:
        from tracing import Tracer

        start = time.perf_counter()
        untraced, _ = run_passes(runner, start + args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced, layers = run_passes(runner, start + args.seconds, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(WORK_ROOT / f"spans-{args.workload}.tsv")
        metrics, more, counts_agree = per_layer(layers, untraced, traced)
        passes, units = untraced + traced, PER_LAYER
    else:
        setup_runs = time_setup(SETUP_SPAWNS)
        passes, _ = run_passes(runner, time.perf_counter() + args.seconds, MIN_PASSES)
        metrics, more = end_to_end(passes, setup_runs)
        counts_agree, units = True, END_TO_END
    lines += more

    runs = [r for runs in passes for r in runs]
    failures = [r for r in runs if r.failure]
    unexpected = sorted({f"{r.job.label}: {r.failure}" for r in failures if not r.job.known_defect})
    known = sorted({f"{r.job.label}: {r.failure}" for r in failures if r.job.known_defect})
    lines.append(f"failed_ratio {len(failures) / len(runs):.4f} ({len(failures)} of {len(runs)} jobs)")
    lines += [f"  known defect: {text}" for text in known]
    lines += [f"  FAILED: {text}" for text in unexpected]
    if not counts_agree:
        lines.append("  FAILED: operation counts differ between traced passes")
    result = {
        "correct": not unexpected and counts_agree,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bundled", "cyclotomic", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_source()
    os.chdir(ROOT)  # bundled fixtures are named bare and resolved by the CLI
    work = WORK_ROOT.relative_to(ROOT) / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, lines = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
