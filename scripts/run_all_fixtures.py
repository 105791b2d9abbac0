#!/usr/bin/env python3
"""Run the full pipeline over every shipped fixture and summarize outcomes.

The bad_* fixtures and the projection fixture are supposed to fail (input
errors and a stage failure respectively); this script checks each exit code
against the expected value, and stdout against tests/golden/<name>.out
wherever that file exists, and reports the matrix.

    python3 scripts/run_all_fixtures.py

The package is run from the src/ directory of this checkout.
"""

import os
import pathlib
import subprocess
import sys
import time

EXPECTED = {
    "example_w.hra": 0,
    "trivial.hra": 0,
    "three_block.hra": 0,
    "general_w.hra": 0,
    "general_w_d2.hra": 0,
    "projection.hra": 1,
    "bad_syntax.hra": 2,
    "bad_dangling.hra": 2,
    "bad_algebra.hra": 2,
    "bad_missing_x.hra": 2,
    "bad_diag.hra": 2,
    "bad_sum_missing_x.hra": 2,
}


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    fixtures = root / "fixtures"
    golden = root / "tests" / "golden"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    failures = 0
    print(f"{'fixture':22} {'expected':>8} {'got':>4} {'time':>7}  status")
    for name, expected in EXPECTED.items():
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hopfreal.cli", "report",
             "--input", str(fixtures / name)],
            capture_output=True, env=env)
        elapsed = time.perf_counter() - start
        expected_out = golden / (pathlib.Path(name).stem + ".out")
        ok = proc.returncode == expected and (
            not expected_out.exists() or proc.stdout == expected_out.read_bytes())
        failures += 0 if ok else 1
        print(f"{name:22} {expected:>8} {proc.returncode:>4} {elapsed:6.2f}s  "
              f"{'ok' if ok else 'MISMATCH'}")
        if not ok:
            sys.stderr.write((proc.stdout + proc.stderr).decode("utf-8", "replace"))
    print(f"\n{len(EXPECTED) - failures}/{len(EXPECTED)} fixtures behave as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
