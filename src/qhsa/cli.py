"""Command-line interface.

Subcommands: ``validate`` (``check --suites algebra,structure``), ``check``
(validation plus the identity suites), ``transform`` (twist / opposite /
prime / tensor, writing the result and verifying it), ``drinfeld`` (build
gamma, gamma-bar, F_D, F_D^{-1}, optionally run the theorem battery and emit
the twistor).

Exit codes: 0 all checks passed, 1 a verified failure, 2 input or parse error.
Input paths are resolved against the working directory, then the directory
named by QHSA_FIXTURE_DIR, then the bundled fixtures.

Importing this module loads what every command needs: ``scalars``,
``algebra``, ``reporting``, ``structure`` and ``documents``.  ``transform``
and ``drinfeld`` import ``qhsa.transforms`` and ``qhsa.drinfeld`` at the top
of their own functions, so ``check`` and ``validate`` load neither, and
``transform`` never loads ``qhsa.drinfeld``.

``main(argv)`` may be called any number of times in one process: the parser
is built once, as ``PARSER`` when this module is imported, and ``--help``
still reads the terminal width when it prints, since argparse builds a new
formatter for each help text.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import __version__
from .algebra import AlgebraError, SingularError
from .documents import (
    DocumentError,
    document_to_twistor,
    format_report_text,
    load_structure,
    parse_twistor_document,
    report_document,
    serialize_report,
    serialize_structure,
    serialize_twistor_document,
    twistor_to_document,
)
from .scalars import echo
from .structure import (
    DEFAULT_SUITE_NAMES,
    DRINFELD_PREMISES,
    SUITES,
    VALIDATION_SUITES,
    run_suites,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

BUNDLED_DIR = Path(__file__).parent / "fixtures"


def resolve_input(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    if not candidate.is_absolute():
        override = os.environ.get("QHSA_FIXTURE_DIR")
        if override:
            alt = Path(override) / path
            if alt.exists():
                return alt
        alt = BUNDLED_DIR / path
        if alt.exists():
            return alt
    raise FileNotFoundError(f"no such file: {path}")


def _read(path: str) -> str:
    return resolve_input(path).read_text(encoding="utf-8")


def _emit_report(args, name, suite_results, output) -> int:
    """Write the report to the file ``output``, or to stdout when it is None."""
    doc = report_document(name, suite_results, __version__)
    text = serialize_report(doc) if args.format == "json" else format_report_text(doc)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK if doc["overall"] == "pass" else EXIT_CHECK_FAILED


def _refuse(args, name, what, results) -> int:
    """No document is written: the failing report goes to stdout and its
    failed check ids to stderr."""
    failed = [check_id for _, report, _ in results for check_id in report.failed_ids()]
    sys.stderr.write(f"invalid {what}: " + ", ".join(failed) + "\n")
    return _emit_report(args, name, results, None)


def _parse_suites(value):
    names = [s.strip() for s in value.split(",") if s.strip()]
    if not names:
        raise DocumentError("--suites names no suite")
    for n in names:
        if n not in SUITES:
            raise DocumentError(f"unknown suite {echo(repr(n))}")
    return names


def cmd_check(args) -> int:
    name, H = load_structure(_read(args.path))
    names = DEFAULT_SUITE_NAMES if args.suites is None else _parse_suites(args.suites)
    results = run_suites(H, names)
    return _emit_report(args, name, results, args.output)


def cmd_transform(args) -> int:
    from .transforms import (
        check_twistor,
        opposite_structure,
        prime_structure,
        tensor_product_structure,
        twist_structure,
    )

    name, H = load_structure(_read(args.path))
    if args.kind == "twist":
        if not args.twistor:
            raise DocumentError("transform twist needs --twistor")
        tdoc = parse_twistor_document(_read(args.twistor))
        twistor = document_to_twistor(tdoc, H)
        start = time.perf_counter()
        twistor_report = check_twistor(H, twistor)
        elapsed = time.perf_counter() - start
        if not twistor_report.ok:
            return _refuse(args, name, "twistor", [("twistor", twistor_report, elapsed)])
        out = twist_structure(H, twistor)
    elif args.kind in ("opposite", "prime"):
        try:
            out = (opposite_structure if args.kind == "opposite" else prime_structure)(H)
        except SingularError:  # a singular antipode or Phi fails the input's validation
            results = run_suites(H, VALIDATION_SUITES)
            if all(report.ok for _, report, _ in results):
                raise
            return _refuse(args, name, "structure", results)
    else:  # tensor: argparse restricts the kind to these four
        if not args.other:
            raise DocumentError("transform tensor needs --other")
        _, B = load_structure(_read(args.other))
        out = tensor_product_structure(H, B)

    text = serialize_structure(name, out)
    Path(args.output).write_text(text, encoding="utf-8")
    # --output names the transformed document, so the report goes to stdout
    return _emit_report(args, name, run_suites(out), None)


def cmd_drinfeld(args) -> int:
    from .drinfeld import drinfeld_construction, drinfeld_report
    from .transforms import Twistor

    name, H = load_structure(_read(args.path))
    base = run_suites(H, DEFAULT_SUITE_NAMES if args.verify else DRINFELD_PREMISES)
    if not all(report.ok for _, report, _ in base):
        sys.stderr.write("structure fails its base suites; not computing the twist\n")
        return _emit_report(args, name, base, args.output)

    start = time.perf_counter()
    data, report = (drinfeld_report if args.verify else drinfeld_construction)(H)
    elapsed = time.perf_counter() - start

    if data is not None and args.emit_twist:
        # the strictly normalized twistor eps(beta) F_D, with counit legs 1
        twistor = Twistor(data.f_d.scaled(H.eps_beta), data.f_d_inverse.scaled(H.eps_alpha))
        tdoc = twistor_to_document(
            f"{name}-drinfeld", H, twistor, normalization=(H.eps_alpha, H.eps_beta)
        )
        Path(args.emit_twist).write_text(serialize_twistor_document(tdoc), encoding="utf-8")

    results = [("drinfeld", report, elapsed)]
    return _emit_report(args, name, results, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhsa",
        description="Exact checks for Z2-graded quasi-Hopf superalgebra structures.",
    )
    parser.add_argument("--version", action="version", version=f"qhsa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", parents=[common], help="algebra and structure layers only")
    p.add_argument("path")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_check, suites=",".join(VALIDATION_SUITES))

    p = sub.add_parser("check", parents=[common], help="run check suites")
    p.add_argument("path")
    p.add_argument("--suites", help="comma-separated suite names (default: all applicable)")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("transform", parents=[common], help="write a transformed structure")
    p.add_argument("path")
    p.add_argument("kind", choices=("twist", "opposite", "prime", "tensor"))
    p.add_argument("--twistor", help="twistor document (for twist)")
    p.add_argument("--other", help="second structure document (for tensor)")
    p.add_argument("--output", required=True, help="where to write the transformed document")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("drinfeld", parents=[common], help="construct and verify the Drinfeld twist")
    p.add_argument("path")
    p.add_argument("--verify", action="store_true", help="run the full theorem battery")
    p.add_argument("--emit-twist", help="write the normalized twistor document here")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_drinfeld)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, DocumentError, AlgebraError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
