"""The package ships what the CLI runs and what the README shows.

Reference implementations that only tests call live in ``tests/oracles.py``;
the reachability check below keeps them from growing back into
``src/hopfreal``.
"""

import ast
import contextlib
import io
import re
import sys
from pathlib import Path

import hopfreal
from hopfreal.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(hopfreal.__file__).resolve().parent

# Library constructors that build inputs for tests and the README example;
# a report reads its input from a document, so it never calls them.
ENTRY_POINTS = {"ground_field", "dual_numbers", "diagonal_algebra", "triangular_units",
                "upper_triangular_algebra", "context_from_algebra", "run_pipeline"}


def module_functions() -> dict:
    """(file, first line) -> name of every module-level function of the
    package; the first line is the code object's, decorators included."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first)] = node.name
    return out


def test_report_enters_every_module_function(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runs = [[], ["--emit", str(tmp_path / "out.hra")]]
    sys.setprofile(profile)
    try:
        for doc in sorted((ROOT / "fixtures").glob("*.hra")):
            for extra in runs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main(["report", "--input", str(doc), *extra])
    finally:
        sys.setprofile(None)
    reached = {(str(Path(name).resolve()), line) for name, line in entered}
    defined = module_functions()
    unreached = {f"{Path(path).name}:{name}" for (path, line), name in defined.items()
                 if (path, line) not in reached and name not in ENTRY_POINTS}
    assert not unreached, "functions no report enters: " + ", ".join(sorted(unreached))
    assert ENTRY_POINTS <= set(defined.values())


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_no_true_division_in_the_package():
    # coefficients are ints when integral, and int / int is a float: a `/`
    # anywhere would silently end exactness.  The one true division, the
    # pivot inverse of SpanBasis.add, is written Fraction(1, pivot).
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Div):
                hits.append(path.name)
    assert not hits, "true division in: " + ", ".join(hits)
