#!/usr/bin/env python3
"""Compare the CLI of this checkout with that of another source tree.

Runs each of the five subcommands, with and without --emit, on every
shipped fixture, and `report` on every benchmark document (each workload of
perfbench/workloads.py at each of its seed variants), once with this
checkout's src/ and once with OTHER_SRC on PYTHONPATH.  Prints every
difference in stdout, stderr, exit code or emitted file, as a unified diff
where the outputs are text, and exits 1 if there is one.

    python3 scripts/parity.py OTHER_SRC

OTHER_SRC is the src/ directory of the other tree, such as a checkout of
the parent commit made with `git archive`.
"""

import difflib
import importlib.util
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("verify", "relations", "antipode", "closure", "report")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(src: pathlib.Path, args: list, emit: pathlib.Path = None) -> dict:
    """Exit code, stdout, stderr and emitted text (None if not written)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    if emit is not None:
        emit.unlink(missing_ok=True)
        args = args + ["--emit", str(emit)]
    proc = subprocess.run([sys.executable, "-m", "hopfreal.cli", *args],
                          capture_output=True, env=env)
    emitted = emit.read_bytes() if emit is not None and emit.exists() else None
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "emitted file": emitted}


def differences(label: str, ours: dict, theirs: dict) -> list:
    out = []
    for part, mine in ours.items():
        other = theirs[part]
        if mine == other:
            continue
        if isinstance(mine, int) or mine is None or other is None:
            out.append(f"{label}: {part}: {other!r} (other) != {mine!r} (this)")
            continue
        diff = difflib.unified_diff(
            other.decode("utf-8", "replace").splitlines(),
            mine.decode("utf-8", "replace").splitlines(),
            "other", "this", lineterm="")
        out.append(f"{label}: {part} differs\n" + "\n".join(diff))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (pathlib.Path(argv[0]) / "hopfreal").is_dir():
        sys.stderr.write("usage: scripts/parity.py OTHER_SRC "
                         "(a directory holding the hopfreal package)\n")
        return 2
    trees = (ROOT / "src", pathlib.Path(argv[0]).resolve())
    workloads = load_workloads()
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cases = []
        for doc in sorted((ROOT / "fixtures").glob("*.hra")):
            for command in SUBCOMMANDS:
                for emit in (False, True):
                    label = f"{doc.name} {command}" + (" --emit" if emit else "")
                    cases.append((label, [command, "--input", str(doc)], emit))
        for name in sorted(workloads.WORKLOADS):
            for seed in range(workloads.VARIANTS):
                # the report prints the input's file name, so each document
                # keeps the name the benchmark gives it
                doc = tmp / "docs" / str(seed) / f"{name}.hra"
                doc.parent.mkdir(parents=True, exist_ok=True)
                doc.write_text(workloads.generate(name, seed), encoding="utf-8")
                cases.append((f"{name} seed {seed} report", ["report", "--input", str(doc)],
                              False))
        for label, args, emit in cases:
            ours, theirs = [run(src, args, tmp / f"emit{k}.hra" if emit else None)
                            for k, src in enumerate(trees)]
            found += differences(label, ours, theirs)
    for line in found:
        print(line)
    print(f"{len(cases)} runs, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
