import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import hopfreal
from conftest import canonical
from hopfreal import inputdoc
from hopfreal.cli import main
from hopfreal.coalgebra import BasisId
from hopfreal.errors import (
    InputError, InvalidAlgebraError, ParseError, ResolutionError, ResourceLimitError, ValidationError)
from hopfreal.inputdoc import build_spec, parse_input, preflight
from hopfreal.pipeline import run_pipeline

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REALIZATIONS = sorted(p.stem for p in FIXTURES.glob("*.hra") if not p.name.startswith("bad_"))


def _load_script(name):
    path = FIXTURES.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the exit code of each shipped fixture's report
EXPECTED = _load_script("run_all_fixtures").EXPECTED

MINIMAL = """
algebra M2 {
  basis e11 e12 e22
  unit e11 1, e22 1
  mul e11 e11 = e11 1
  mul e11 e12 = e12 1
  mul e12 e22 = e12 1
  mul e22 e22 = e22 1
}
coalgebra F = dual M2
coalgebra L = triangular 2
realization {
  l L
  f F
  x l[1,1] = id 1
  x l[2,1] = form e12 1
  x l[2,2] = id 1
  diag l[1,1] l[1,1]
  diag l[2,2] l[2,2]
}
params {
  truncation 3
  max-degree 3
  max-stages 4
}
"""


def tri(i, j):
    return BasisId.tri(i, j)


def test_parse_minimal_document():
    doc = parse_input(MINIMAL)
    assert doc.truncation == 3 and doc.max_degree == 3 and doc.max_stages == 4
    assert set(doc.coalgebras) == {"F", "L"}
    assert doc.realization.l_name == "L"
    spec = build_spec(doc)
    assert spec.max_degree == 3
    assert spec.x_map[tri(2, 1)].form == {BasisId.plain(1): F(1)}
    assert spec.diag_pairs == ((tri(1, 1), tri(1, 1)), (tri(2, 2), tri(2, 2)))


def test_rational_literals_canonicalize():
    text = MINIMAL.replace("x l[2,1] = form e12 1", "x l[2,1] = form e12 2/4")
    doc = parse_input(text)
    assert doc.realization.x_table[tri(2, 1)].form == {BasisId.plain(1): F(1, 2)}


def test_parsed_coefficients_are_canonical():
    # every x coefficient of a fixture, and sums of halves that make 1 or 0
    parsed = 0
    for path in sorted(FIXTURES.glob("*.hra")):
        try:
            doc = parse_input(path.read_text(encoding="utf-8"))
        except (InputError, InvalidAlgebraError):
            continue
        parsed += 1
        for op in doc.realization.x_table.values():
            assert all(canonical(v) for v in (op.id_coeff, *op.form.values())), path.name
    assert parsed >= 8
    text = MINIMAL.replace("x l[2,1] = form e12 1",
                           "x l[2,1] = id 1/2, id 1/2, form e12 1/2, form e12 1/2")
    op = parse_input(text).realization.x_table[tri(2, 1)]
    assert type(op.id_coeff) is int and op.id_coeff == 1
    assert [type(v) for v in op.form.values()] == [int]


def test_missing_x_entry_names_the_basis_id():
    text = MINIMAL.replace("x l[2,1] = form e12 1\n", "")
    with pytest.raises(ValidationError) as err:
        build_spec(parse_input(text))
    assert any("l[2,1]" in f for f in err.value.failures)


def test_missing_x_in_a_sum_names_the_element_of_its_block(capsys):
    # P's l[1,1] prints inside Q's 1:l[1,1]; the failure names Q.l[1,1]
    # and no element of P
    code = main(["report", "--input", str(FIXTURES / "bad_sum_missing_x.hra")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "x is not defined on basis element Q.l[1,1]" in captured.err
    assert "P." not in captured.err


def test_missing_x_on_a_large_coalgebra_fails_quickly(tmp_path, capsys):
    # 5050 failures, each naming its element: the relabelling is linear in
    # their number, not quadratic
    doc = tmp_path / "large.hra"
    doc.write_text("coalgebra F = triangular 2\ncoalgebra L = triangular 100\n"
                   "realization {\n  l L\n  f F\n}\nparams {\n  max-degree 1\n}\n")
    start = time.process_time()
    code = main(["report", "--input", str(doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "x is not defined on basis element l[100,100]" in captured.err
    assert time.process_time() - start < 5


def test_dangling_name_is_resolution_error():
    text = MINIMAL.replace("coalgebra F = dual M2", "coalgebra F2 = dual M2")
    with pytest.raises(ResolutionError):
        parse_input(text)


def test_syntax_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_input("algebra A {\n  basis e\n  unit e 1\n  mul e e ? e\n}\n")
    assert err.value.line == 4
    assert err.value.col > 0


def test_dotted_labels_resolve_in_sums():
    text = """
coalgebra P = triangular 1
coalgebra Q = triangular 2
coalgebra L = sum P Q
coalgebra F = triangular 2
realization {
  l L
  f F
  x P.l[1,1] = id 1
  x Q.l[1,1] = id 1
  x Q.l[2,1] = 0
  x Q.l[2,2] = id 1
}
"""
    doc = parse_input(text)
    assert doc.realization.x_table[BasisId.tri(1, 1, 0)].id_coeff == 1
    assert doc.realization.x_table[BasisId.tri(2, 1, 1)] is not None
    build_spec(doc)


def test_nested_sum_labels_follow_the_block_renumbering():
    # S = sum P Q has blocks 0 (P) and 1 (Q); inside L = sum R S Q they
    # become blocks 1 and 2, after R's block 0 and before Q's block 3
    doc = parse_input("""
coalgebra P = triangular 1
coalgebra Q = triangular 2
coalgebra R = triangular 3
coalgebra S = sum P Q
coalgebra L = sum R S Q
realization {
  l L
  f Q
}
""")
    labels = doc.labels["L"]
    assert labels["S.Q.l[2,1]"] == BasisId(2, 2, 1)
    assert labels["S.P.l[1,1]"] == BasisId(1, 1, 1)
    assert labels["R.l[3,1]"] == BasisId(0, 3, 1)
    assert labels["Q.l[2,2]"] == BasisId(3, 2, 2)
    assert sorted(labels.values()) == list(doc.coalgebras["L"].basis)


def test_diag_pair_failures_in_a_sum_name_the_summand_labels():
    text = """
coalgebra F = triangular 2
coalgebra P = triangular 1
coalgebra Q = triangular 2
coalgebra L = sum P Q
realization {
  l L
  f F
  x P.l[1,1] = id 2
  x Q.l[1,1] = id 1
  x Q.l[2,1] = 0
  x Q.l[2,2] = id 1
  diag P.l[1,1] P.l[1,1]
  diag Q.l[2,1] Q.l[1,1]
}
"""
    with pytest.raises(ValidationError) as err:
        build_spec(parse_input(text))
    assert err.value.failures == [
        "x(P.l[1,1]) o x(P.l[1,1]) is not the identity on F",
        "diag pair element Q.l[2,1] is not grouplike",
    ]


def test_run_pipeline_stage_filtering():
    doc = parse_input(MINIMAL)
    report = run_pipeline(doc, ["verify-coalgebras"], "minimal")
    assert len(report.results) == 1
    assert report.results[0].name == "verify-coalgebras"
    assert len(report.skipped) == 7
    assert report.ok


def test_cli_exit_codes(capsys):
    matrix = {
        "example_w.hra": 0,
        "trivial.hra": 0,
        "three_block.hra": 0,
        "projection.hra": 1,
        "bad_syntax.hra": 2,
        "bad_dangling.hra": 2,
        "bad_algebra.hra": 2,
        "bad_missing_x.hra": 2,
        "bad_diag.hra": 2,
    }
    for name, expected in matrix.items():
        code = main(["report", "--input", str(FIXTURES / name)])
        capsys.readouterr()
        assert code == expected, f"{name}: expected exit {expected}, got {code}"


@pytest.mark.parametrize("was_enabled", [True, False])
def test_cli_pauses_the_collector_and_restores_it(capsys, monkeypatch, was_enabled):
    # the run itself goes without the cycle collector; the caller's state
    # comes back on every exit code, and when argparse exits
    import gc

    import hopfreal.cli

    seen = []
    run = hopfreal.cli._run

    def watched(*args):
        seen.append(gc.isenabled())
        return run(*args)

    monkeypatch.setattr(hopfreal.cli, "_run", watched)
    prior = gc.isenabled()
    try:
        (gc.enable if was_enabled else gc.disable)()
        for name, expected in (("example_w.hra", 0), ("projection.hra", 1),
                               ("bad_syntax.hra", 2), ("no_such_file.hra", 2)):
            assert main(["report", "--input", str(FIXTURES / name)]) == expected
            assert gc.isenabled() is was_enabled, name
        with pytest.raises(SystemExit):
            main(["report"])
        assert gc.isenabled() is was_enabled
    finally:
        (gc.enable if prior else gc.disable)()
        capsys.readouterr()
    assert seen == [False, False]  # bad_syntax stops in the parser


def test_cli_report_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = main(["report", "--input", str(FIXTURES / "example_w.hra")])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1]
    assert "Y(l[2,1]) = -l[2,1]" in outputs[0]


def test_cli_relations_subcommand(capsys):
    code = main(["relations", "--input", str(FIXTURES / "trivial.hra")])
    out = capsys.readouterr().out
    assert code == 0
    assert "degree 1 kernel: dim 2" in out
    assert "[relations]" in out and "[coideal-check]" in out
    assert "[antipode]" not in out


def test_cli_parameter_overrides(capsys):
    code = main(["relations", "--input", str(FIXTURES / "trivial.hra"),
                 "--truncation", "2", "--max-degree", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[N=2]" in out and "degree 2 kernel" not in out


def test_cli_emit_writes_machine_readable_file(tmp_path, capsys):
    emit = tmp_path / "out.hra"
    code = main(["report", "--input", str(FIXTURES / "example_w.hra"),
                 "--emit", str(emit)])
    capsys.readouterr()
    assert code == 0
    text = emit.read_text()
    assert "relations {" in text
    assert "antipode {" in text
    assert "y l[2,1] = l[2,1] -1" in text
    assert "closure {" in text and "stabilized true" in text


def test_cli_projection_reports_no_antipode(capsys):
    code = main(["report", "--input", str(FIXTURES / "projection.hra")])
    out = capsys.readouterr().out
    assert code == 1
    assert "no antipode found at degree bound" in out
    assert "[closure] FAILED-PRECONDITION" in out
    assert "[hopf-check] FAILED-PRECONDITION" in out


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, expected", [
    ("example_w", 0),
    ("trivial", 0),
    ("projection", 1),
    ("three_block", 0),
    ("general_w", 0),
    ("general_w_d2", 0),
    ("comatrix", 1),
    ("h4_regular", 1),
])
def test_cli_report_matches_golden(name, expected, capsys):
    code = main(["report", "--input", str(FIXTURES / f"{name}.hra")])
    out = capsys.readouterr().out
    assert code == expected
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def stage_blocks(text):
    """Stage name -> the lines of its block in a report."""
    blocks = {}
    name = None
    for line in text.splitlines():
        if line.startswith("[") and "] " in line:
            name = line[1:line.index("]")]
            blocks[name] = [line]
        elif name and line.startswith("  "):
            blocks[name].append(line)
        else:
            name = None
    return blocks


@pytest.mark.parametrize("stages", ["antipode", "closure,hopf-check"])
@pytest.mark.parametrize("name", REALIZATIONS)
def test_cli_stage_subsets_reproduce_golden_blocks(name, stages, capsys):
    # the image walk is shared across stages and grown on demand, so a stage
    # run without the relations stage before it reads the same classes
    main(["report", "--input", str(FIXTURES / f"{name}.hra"), "--stages", stages])
    got = stage_blocks(capsys.readouterr().out)
    want = stage_blocks((GOLDEN / f"{name}.out").read_text(encoding="utf-8"))
    assert list(got) == stages.split(",")
    no_table = any(line.startswith("  no antipode found") for line in want["antipode"])
    if no_table and stages != "antipode":
        # no antipode: the closure names the missing table, not a failed stage
        assert got["closure"] == ["[closure] FAILED-PRECONDITION",
                                  "  antipode stage produced no table"]
        return
    for stage, lines in got.items():
        assert lines == want[stage]


def test_python_m_hopfreal_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(hopfreal.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfreal", "report", "--input", str(FIXTURES / "trivial.hra")],
        capture_output=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "trivial.out").read_bytes()


def _cli_on_text(tmp_path, capsys, text, *extra):
    doc = tmp_path / "doc.hra"
    doc.write_text(text)
    code = main(["report", "--input", str(doc), *extra])
    return code, capsys.readouterr().err


def test_cli_zero_denominator_is_input_error(tmp_path, capsys):
    text = MINIMAL.replace("x l[2,1] = form e12 1", "x l[2,1] = form e12 1/0")
    code, err = _cli_on_text(tmp_path, capsys, text)
    assert code == 2
    assert "error:" in err and "zero denominator" in err and "line 16, col 23" in err


def test_cli_fractional_parameter_is_input_error(tmp_path, capsys):
    text = MINIMAL.replace("truncation 3", "truncation 1/0")
    code, err = _cli_on_text(tmp_path, capsys, text)
    assert code == 2
    assert "error:" in err and "expected an integer" in err and "line 22" in err


@pytest.mark.parametrize("edit, extra, failure", [
    (None, ("--truncation", "0"), "parameter truncation must be positive, got 0"),
    (None, ("--max-stages", "-1"), "parameter max-stages must be >= 0, got -1"),
    ("truncation 0", (), "parameter truncation must be positive, got 0"),
])
def test_window_parameters_out_of_range_are_input_errors(tmp_path, capsys, edit, extra, failure):
    # checked once, after the overrides, with one failure per parameter
    text = MINIMAL if edit is None else MINIMAL.replace("truncation 3", edit)
    code, err = _cli_on_text(tmp_path, capsys, text, *extra)
    assert code == 2 and err == f"error: validation failed: {failure}\n"


@pytest.mark.parametrize("name", ["example_w.hra", "general_w.hra", "projection.hra"])
def test_report_leaves_no_package_object_in_cyclic_garbage(name, capsys):
    # a report's objects are freed by reference counting alone: whatever
    # the collector finds unreachable is no object of the package
    import gc

    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        main(["report", "--input", str(FIXTURES / name)])
        gc.collect()
        leaked = {type(o).__qualname__ for o in gc.garbage
                  if type(o).__module__.startswith("hopfreal")}
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        capsys.readouterr()
    assert not leaked


def test_cli_non_utf8_input_is_input_error(tmp_path, capsys):
    doc = tmp_path / "doc.hra"
    doc.write_bytes(b"\xff\xfe\x00")
    code = main(["report", "--input", str(doc)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read input:") and "Traceback" not in err


def test_cli_unwritable_emit_path_is_error(tmp_path, capsys):
    emit = tmp_path / "missing" / "out.hra"
    code = main(["report", "--input", str(FIXTURES / "trivial.hra"),
                 "--stages", "verify-coalgebras", "--emit", str(emit)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and not emit.exists()


def test_cli_unwritable_emit_path_prints_no_report(tmp_path, capsys):
    emit = tmp_path / "missing" / "out.hra"
    code = main(["report", "--input", str(FIXTURES / "trivial.hra"), "--emit", str(emit)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --emit output")


@pytest.mark.parametrize("value", ["", " , "])
def test_cli_stages_naming_no_stage_is_input_error(value, capsys):
    code = main(["report", "--input", str(FIXTURES / "trivial.hra"), "--stages", value])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# --- the benchmark's documents --------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_workloads()


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_documents_reproduce_recorded_digests(workload, tmp_path, capsys):
    # every recorded variant; the report prints the input's file name, so
    # the document keeps the name the benchmark gives it
    digests = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))[workload]
    assert sorted(digests, key=int) == [str(v) for v in range(WORKLOADS.VARIANTS)]
    doc = tmp_path / f"{workload}.hra"
    for seed in range(WORKLOADS.VARIANTS):
        doc.write_text(WORKLOADS.generate(workload, seed), encoding="utf-8")
        code = main(["report", "--input", str(doc)])
        out = capsys.readouterr().out
        assert code == 0, seed
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[str(seed)], seed


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_reports_do_not_depend_on_string_hashing(hashseed, tmp_path):
    # fresh processes under two PYTHONHASHSEED values give the golden reports
    # and the recorded digests of the benchmark documents at seed 1
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    src = str(Path(hopfreal.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    runs = [(FIXTURES / f"{name}.hra", EXPECTED[f"{name}.hra"],
             (GOLDEN / f"{name}.out").read_bytes(), None) for name in REALIZATIONS]
    for workload in sorted(WORKLOADS.WORKLOADS):
        doc = tmp_path / f"{workload}.hra"
        doc.write_text(WORKLOADS.generate(workload, 1), encoding="utf-8")
        runs.append((doc, 0, None, digests[workload]["1"]))
    for path, code, golden, digest in runs:
        proc = subprocess.run([sys.executable, "-m", "hopfreal", "report", "--input", str(path)],
                              capture_output=True, env=env, check=False)
        assert proc.returncode == code, (path.name, proc.stderr)
        if golden is not None:
            assert proc.stdout == golden, path.name
        else:
            assert hashlib.sha256(proc.stdout).hexdigest() == digest, path.name


# --- the window preflight ---------------------------------------------------------


def test_preflight_refuses_a_huge_truncation_quickly(tmp_path, capsys):
    doc = tmp_path / "trivial.hra"
    doc.write_text((FIXTURES / "trivial.hra").read_text().replace("truncation 3", "truncation 25"))
    start = time.process_time()
    code = main(["report", "--input", str(doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "MAX_WINDOW_WORDS" in captured.err
    assert time.process_time() - start < 5


def test_preflight_limits_are_inclusive_and_read_at_call_time(monkeypatch, capsys):
    # example_w: dim F = dim L = 3 at N = d = 3, so 40 words and 40 monomials
    doc = parse_input((FIXTURES / "example_w.hra").read_text())
    monkeypatch.setattr(inputdoc, "MAX_WINDOW_WORDS", 40)
    monkeypatch.setattr(inputdoc, "MAX_WINDOW_MONOMIALS", 40)
    preflight(doc)
    monkeypatch.setattr(inputdoc, "MAX_WINDOW_MONOMIALS", 39)
    with pytest.raises(ResourceLimitError, match="MAX_WINDOW_MONOMIALS = 39"):
        build_spec(doc)
    code = main(["report", "--input", str(FIXTURES / "example_w.hra")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: window too large: T(L) up to degree 3")
    monkeypatch.setattr(inputdoc, "MAX_WINDOW_WORDS", 39)
    with pytest.raises(ResourceLimitError, match="MAX_WINDOW_WORDS = 39"):
        preflight(doc)
    assert main(["report", "--input", str(FIXTURES / "example_w.hra"),
                 "--truncation", "2", "--max-degree", "2"]) == 0


FIXTURE_TEXTS = {p.name: p.read_text() for p in sorted(FIXTURES.glob("*.hra"))}
# Tokens of the fixtures plus malformed ones.  No number above 3, so no
# mutation can ask for a large coalgebra or window.
TOKENS = sorted({tok for text in FIXTURE_TEXTS.values() for tok in text.split()
                 if not tok.lstrip("-").isdigit() or abs(int(tok)) <= 3}
                | {"0", "-1", "1/0", "1/2", "-2/3", "{", "}", "=", ",", "#", "l[3,3]",
                   "l[0,1]", "l[1,2]", "P.l[1,1]", "Q.l[9,9]", "e33", "dual", "sum"})
EDITS = st.lists(st.tuples(st.sampled_from(["replace", "delete", "insert"]),
                           st.integers(0, 10 ** 6), st.sampled_from(TOKENS)),
                 min_size=1, max_size=3)


def mutate(text, edits):
    """Apply token edits; a position counts the tokens of the whole text,
    and line breaks are kept."""
    lines = [line.split() for line in text.splitlines()]
    for op, pos, token in edits:
        slots = [(i, j) for i, line in enumerate(lines) for j in range(len(line) + 1)]
        i, j = slots[pos % len(slots)]
        if op == "insert":
            lines[i].insert(j, token)
        elif j < len(lines[i]):
            if op == "replace":
                lines[i][j] = token
            else:
                del lines[i][j]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(FIXTURE_TEXTS)), edits=EDITS)
def test_cli_mutated_fixtures_never_raise(name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / name
        doc.write_text(mutate(FIXTURE_TEXTS[name], edits))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["report", "--input", str(doc), "--truncation", "2", "--max-degree", "2"])
    assert code in (0, 1, 2)
