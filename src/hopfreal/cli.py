"""Command-line front end.

Subcommands select stage sets of the verification pipeline:

    hopfreal verify    --input doc.hra     # coalgebra/bialgebra/lift axioms
    hopfreal relations --input doc.hra     # relation kernels + coideal check
    hopfreal antipode  --input doc.hra     # antipode solve + its laws
    hopfreal closure   --input doc.hra     # S^r closure iteration
    hopfreal report    --input doc.hra     # everything (or --stages a,b,c)

Exit codes: 0 all executed stages passed, 1 a stage failed, 2 input error
(an unreadable or non-UTF-8 file included), a window past the preflight's
size limits, or an unwritable --emit path (in each case nothing goes to
stdout).
Reports are deterministic; --emit writes computed bases and antipode
expressions in a machine-readable block format.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import InputError, InvalidAlgebraError, ResourceLimitError
from .inputdoc import parse_input
from .pipeline import STAGE_ORDER, _run, stage_artifacts_text

_SUBCOMMAND_STAGES = {
    "verify": ("verify-coalgebras", "verify-free-bialgebra", "verify-lift"),
    "relations": ("relations", "coideal-check"),
    "antipode": ("antipode",),
    "closure": ("closure",),
    "report": STAGE_ORDER,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfreal",
        description="bialgebra realizations, relation ideals, antipodes and "
                    "Hopf closures over exact rationals")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage set")
        p.add_argument("--input", required=True, help="realization description file")
        p.add_argument("--truncation", type=int, default=None, metavar="N",
                       help="override the truncation degree of T(F)")
        p.add_argument("--max-degree", type=int, default=None, metavar="D",
                       help="override the relation degree bound")
        p.add_argument("--max-stages", type=int, default=None, metavar="K",
                       help="override the closure stage limit")
        p.add_argument("--emit", default=None, metavar="PATH",
                       help="write machine-readable stage outputs to PATH")
        if name == "report":
            p.add_argument("--stages", default=None,
                           help="comma-separated subset of: " + ", ".join(STAGE_ORDER))
    return parser


def main(argv=None) -> int:
    # What exists before the run, above all the package's modules,
    # functions and classes, lives as long as the process; frozen, it is
    # not traversed by each collection during the report.  A report makes
    # almost no cyclic garbage (argparse's few hundred objects), so the
    # collector is paused for the run and restored for in-process callers.
    gc.freeze()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read input: {err}", file=sys.stderr)
        return 2

    stages = list(_SUBCOMMAND_STAGES[args.command])
    if getattr(args, "stages", None) is not None:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
        if not stages:
            print("error: --stages names no stage", file=sys.stderr)
            return 2
        unknown = [s for s in stages if s not in STAGE_ORDER]
        if unknown:
            print(f"error: unknown stages: {', '.join(unknown)}", file=sys.stderr)
            return 2

    try:
        doc = parse_input(text)
        if args.truncation is not None:
            doc.truncation = args.truncation
        if args.max_degree is not None:
            doc.max_degree = args.max_degree
        if args.max_stages is not None:
            doc.max_stages = args.max_stages
        report, pipe = _run(doc, stages, os.path.basename(args.input))
    except (InputError, InvalidAlgebraError, ResourceLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as handle:
                handle.write(stage_artifacts_text(pipe, stages))
        except OSError as err:
            print(f"error: cannot write --emit output: {err}", file=sys.stderr)
            return 2
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
