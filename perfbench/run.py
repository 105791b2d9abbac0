"""hopfreal benchmark: the ``report`` stage set on seeded workloads.

Each sample is one fresh process (``sample.py``) that runs ``hopfreal
report`` on the workload's generated document; samples run one at a time.
A run measures for ``--seconds`` and reports medians over its samples.

Times are in reference seconds: the sample's CPU seconds, each scaled by the
speed a pace process (``pace.py``) measured on the same CPU over the window
the time was spent in, relative to ``PACE_REF``.  On a shared host the wall
time of one sample moves by more than 1.5x with other tenants' load; a
reference second does not, because the pace slows down with the sample.

Every sample is checked: CLI exit code 0, all 8 stages PASS, and the
report's SHA-256 equal to the digest recorded in ``digests.json`` for the
seed.  ``failed`` counts the samples that fail a check (``ops_failed`` is
``failed / attempted``).

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1`` untraced and traced samples alternate.  The traced ones
give the per-layer metrics.  They are held to the same recorded digest as
the untraced ones, so the tracer cannot change results, and must leave every
patched binding restored.  ``trace.overhead_s`` is traced minus untraced
``report_s``.

    python3 perfbench/run.py --workload closure-heavy --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The last stdout line is the JSON result; the lines before it name each
metric with its value and unit.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, generate, variant  # noqa: E402

STAGES = 8
RUN_LIMIT_S = 170  # a run must end within 180 s
# Pace chunks per CPU second that define the reference speed; a time of 1 s
# is the CPU time the work takes when the pace runs at this rate.
PACE_REF = 480.0
PACE_MIN_CHUNKS = 20  # shortest pace stretch a speed is read from

# Stage groups reported as end-to-end metrics.
STAGE_GROUPS = {
    "verify_s": ("verify-coalgebras", "verify-free-bialgebra", "verify-lift"),
    "relations_s": ("relations", "coideal-check"),
    "antipode_s": ("antipode",),
    "closure_s": ("closure", "hopf-check"),
}


def _sample(doc: Path, deadline: float, spans: Path = None):
    """Run one sample process beside a pace process on one CPU; the sample's
    JSON result with its times scaled to the reference speed, or None if it
    failed to run."""
    cpu = max(os.sched_getaffinity(0))
    cmd = [sys.executable, str(HERE / "sample.py"), "--input", doc.name, "--cpu", str(cpu)]
    if spans is not None:
        cmd += ["--spans", str(spans), "--run-id", spans.stem]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pace = subprocess.Popen([sys.executable, str(HERE / "pace.py"), str(cpu)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        proc = subprocess.run(cmd, cwd=doc.parent, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        log = json.loads(pace.communicate("stop\n", timeout=30)[0])
    except subprocess.TimeoutExpired:
        print("sample timed out", file=sys.stderr)
        return None
    finally:
        if pace.poll() is None:
            pace.kill()
            pace.wait()
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _scale(result, log)
    return result


def _speed(log: dict, window) -> float:
    """Pace chunks per CPU second over a monotonic-clock window, widened to
    at least PACE_MIN_CHUNKS chunks, relative to PACE_REF."""
    t, cpu = log["t"], log["cpu"]
    lo = bisect.bisect_left(t, window[0])
    hi = bisect.bisect_right(t, window[1]) - 1
    while hi - lo < PACE_MIN_CHUNKS and (lo > 0 or hi < len(t) - 1):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(t) - 1)
    return (hi - lo) / ((cpu[hi] - cpu[lo]) / 1e9) / PACE_REF


def _scale(result: dict, log: dict):
    """CPU seconds at the measured speed -> seconds at the reference speed,
    each time scaled by the speed over the window it ran in."""
    speed = {name: _speed(log, window) for name, window in result.pop("windows").items()}
    for name in ("setup_s", "report_s"):
        result[name] *= speed[name]
    stage_s = result.pop("stage_s")
    for group, names in STAGE_GROUPS.items():
        result[group] = sum(stage_s[n] * speed[n] for n in names if n in stage_s)
    factor = speed["report_s"]
    for name in result.get("layers", {}):
        if name.endswith((".s", "_s")):
            result["layers"][name] *= factor
    for name in result.get("layer_self_s", {}):
        result["layer_self_s"][name] *= factor


def passing(result) -> bool:
    """The sample ran, the CLI exited 0 and all 8 stages passed."""
    return (result is not None and result["rc"] == 0
            and len(result["status"]) == STAGES
            and all(s == "pass" for s in result["status"].values()))


def write_doc(workload: str, seed: int) -> Path:
    WORK.mkdir(exist_ok=True)
    doc = WORK / f"{workload}.hra"
    doc.write_text(generate(workload, seed), encoding="utf-8")
    return doc


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Samples for one workload; returns (attempted, failed, metrics dict)."""
    doc = write_doc(workload, seed)
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = digests.get(workload, {}).get(str(variant(seed)))
    spans = WORK / f"{workload}.spans.tsv"

    # Compile bytecode before timing; users pay that once, not per run.
    subprocess.run([sys.executable, "-c", "import hopfreal.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
                   timeout=60)
    plain, traced, attempted, failed = [], [], 0, 0
    durations = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        batch = [(plain, None)] + ([(traced, spans)] if trace else [])
        for bucket, span_path in batch:
            result = _sample(doc, deadline, span_path)
            attempted += 1
            if (passing(result) and result["digest"] == expected
                    and result.get("restored", True)):
                bucket.append(result)
            else:
                failed += 1
        durations.append(time.monotonic() - t0)
        # Stop when the next batch would end past the measuring window.
        elapsed = time.monotonic() - start
        if failed or elapsed + statistics.median(durations) > seconds:
            break

    metrics = {}
    if plain:
        for name in ("report_s", "setup_s", *STAGE_GROUPS, "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in plain)
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        if plain:
            metrics["trace.overhead_s"] = (
                statistics.median(r["report_s"] for r in traced) - metrics["report_s"])
    metrics["ops_failed"] = failed / attempted
    metrics["samples"] = len(plain) + len(traced)
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hopfreal report benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "hopfreal" / "cli.py").is_file():
        print(f"error: no hopfreal source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out = {}
    for workload in workloads:
        if args.workload == "all":
            deadline = time.monotonic() + RUN_LIMIT_S
        a, f, metrics = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace), deadline)
        attempted += a
        failed += f
        print(f"{workload} seed {args.seed}: {metrics['samples']} samples, "
              f"ops_failed {metrics['ops_failed']:.6g} share")
        for name, unit in units.items():
            if name not in metrics and "trace.spans" not in metrics:
                print(f"error: metric {name} not measured", file=sys.stderr)
                return 1
            # A traced function the program no longer has was called 0 times.
            value = metrics.get(name, 0)
            print(f"{workload} {name} {value:.6g} {unit}")
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            out[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
