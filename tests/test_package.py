"""The package ships what the CLI runs and what the README shows.

Reference implementations that only tests call live in ``tests/oracles.py``;
the reachability check below keeps them from growing back into
``src/hopfreal``.
"""

import ast
import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hopfreal
from hopfreal.cli import main
from hopfreal.coalgebra import BasisId, triangular_coalgebra
from hopfreal.free_tensor import TensorContext
from hopfreal.inputdoc import InputDocument, RealizationInput
from hopfreal.invariant import RIOp
from hopfreal.lifting import RealizationSpec
from hopfreal.pipeline import StageResult
from hopfreal.reportkit import CheckReport

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(hopfreal.__file__).resolve().parent

# Library constructors that build inputs for tests and the README example;
# a report reads its input from a document, so it never calls them.
# make_spec is the README example's constructor of a realization.
ENTRY_POINTS = {"ground_field", "dual_numbers", "diagonal_algebra", "triangular_units",
                "upper_triangular_algebra", "context_from_algebra", "run_pipeline",
                "make_spec"}

# Methods no fixture report enters, each with the reason it stays.  Dunder
# methods are exempt as a rule: the interpreter calls them, for equality,
# repr, pickling and the like, not a report.
METHODS_KEPT = {
    "RIOp.identity": "input constructor of the README example",
    "RIOp.from_form": "input constructor of the README example",
    "RIOp.from_eval": "input constructor of the README example",
    "RIOp.zero": "input constructor of the README example",
    "_Parser.error": "input-error path, covered by test_cli",
}


def exempt(name: str) -> bool:
    method = name.rpartition(".")[2]
    return (name in ENTRY_POINTS or name in METHODS_KEPT
            or (method.startswith("__") and method.endswith("__")))


def _functions(body, prefix=""):
    """(first line, name) of every function defined directly in body; the
    first line is the code object's, decorators included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield min([node.lineno] + [d.lineno for d in node.decorator_list]), prefix + node.name


def module_functions() -> dict:
    """(file, first line) -> name of every module-level function of the
    package, and ``Class.method`` of every method of its module-level
    classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for first, name in _functions(body):
            out[(str(path), first)] = name
        for node in body:
            if isinstance(node, ast.ClassDef):
                for first, name in _functions(node.body, node.name + "."):
                    out[(str(path), first)] = name
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
                 if (path, line) not in reached and not exempt(name)}
    assert not unreached, "functions no report enters: " + ", ".join(sorted(unreached))
    assert ENTRY_POINTS | METHODS_KEPT.keys() <= set(defined.values())


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


def test_package_loads_no_code_generator():
    # the package's classes are plain: importing the CLI compiles no
    # generated methods, so it loads neither dataclasses nor inspect
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import hopfreal.cli; print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout.split()
    assert "hopfreal.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)


L1 = triangular_coalgebra(1)

# Constructors called with defaults, and the attributes that must be fresh
# mutable objects in every instance.
FRESH = {
    "TensorContext": (lambda: TensorContext(L1, 1), ("_cache",)),
    "RealizationSpec": (lambda: RealizationSpec(L1, TensorContext(L1, 1), {}), ("_cache",)),
    "InputDocument": (InputDocument, ("algebras", "coalgebras", "coalgebra_defs", "labels")),
    "RealizationInput": (RealizationInput, ("x_table",)),
    "CheckReport": (lambda: CheckReport("checks"), ("failed",)),
    "StageResult": (lambda: StageResult("stage", "pass"), ("lines",)),
}


@pytest.mark.parametrize("cls", FRESH)
def test_instances_share_no_mutable_default(cls):
    make, names = FRESH[cls]
    a, b = make(), make()
    for name in names:
        assert getattr(a, name) is not getattr(b, name), name
        assert not getattr(a, name), name


def test_constructors_check_and_clean_their_arguments():
    with pytest.raises(ValueError, match="truncation degree must be >= 1"):
        TensorContext(L1, 0)
    assert RIOp(0, {BasisId(0, 1, 1): 0}).form == {}
    assert RIOp().form == {} and RIOp().id_coeff == 0
    x_map, pairs = {L1.basis[0]: RIOp.identity()}, [(L1.basis[0], L1.basis[0])]
    spec = RealizationSpec(L1, TensorContext(L1, 1), x_map, pairs)
    assert spec.x_map == x_map and spec.x_map is not x_map
    assert spec.diag_pairs == tuple(pairs)
    assert RealizationSpec(L1, TensorContext(L1, 1), x_map).diag_pairs is None


# Attributes a class stores for readers outside the package, each with the
# reason it stays although no code in src/hopfreal reads it by name.
ATTRIBUTES_KEPT = {}


def stored_and_read():
    """({Class.attr} assigned on self inside a package class, {attr} read
    anywhere in the package)."""
    stored, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    stored.add(f"{cls.name}.{node.attr}")
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return stored, read


def test_every_stored_attribute_is_read():
    stored, read = stored_and_read()
    unread = {name for name in stored if name.partition(".")[2] not in read}
    assert unread <= ATTRIBUTES_KEPT.keys(), "attributes no code reads: " + ", ".join(
        sorted(unread - ATTRIBUTES_KEPT.keys()))
    assert ATTRIBUTES_KEPT.keys() <= stored
