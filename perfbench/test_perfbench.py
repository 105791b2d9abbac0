"""Checks on the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench

A per-layer metric that reads zero on every workload means a wrapped
function was never reached, usually a namespace the tracer failed to
rebind.  The tracer must also leave every binding as it found it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

from run import ROOT, WORK, main as run_main
from workloads import DEFAULT_SEED, WORKLOADS, generate

PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run_main(argv)
    assert rc == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _run(["--workload", w, "--seed", str(DEFAULT_SEED), "--seconds", "1",
                     "--trace", "1"])
            for w in sorted(WORKLOADS)}


def test_traced_runs_are_correct(traced):
    # The traced sample reproduces the untraced digest and restores bindings,
    # otherwise it counts as failed.
    for workload, result in traced.items():
        assert result["correct"], workload
        assert result["failed"] == 0, workload


def test_no_per_layer_metric_is_zero_everywhere(traced):
    dead = [name for name in PER_LAYER
            if all(r["metrics"][name]["value"] == 0 for r in traced.values())]
    assert not dead, f"never reached on any workload: {dead}"


def test_tracer_restores_every_binding(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from hopfreal import cli, exactlin, realization
        import tracer as tracing

        original = realization.kernel_basis
        before = tracing.bindings()
        t = tracing.Tracer("restore-check")
        t.install()
        try:
            assert realization.kernel_basis is not original
            assert realization.kernel_basis is exactlin.kernel_basis
            doc = tmp_path / "w.hra"
            doc.write_text(generate("window-heavy", DEFAULT_SEED), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["report", "--input", str(doc), "--truncation", "2",
                                 "--max-degree", "2"]) == 0
        finally:
            t.uninstall()
        assert tracing.same_bindings(before, tracing.bindings())
        assert realization.kernel_basis is original
        assert t.metrics()["exactlin.kernel_basis.calls"] > 0
        assert t.metrics()["coalgebra.basisid_hash.calls"] > 0
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_spans_are_written(traced):
    for workload in traced:
        lines = (WORK / f"{workload}.spans.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t") == ["run_id", "span_id", "parent_id", "name",
                                        "start_ns", "end_ns"]
        assert len(lines) > 1000
