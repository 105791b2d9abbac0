"""Record the benchmark's reference data from the current program.

    python3 perfbench/record.py digests    # digests.json: report SHA-256 per workload and seed variant
    python3 perfbench/record.py baseline   # baseline.json: per-layer shares from one traced sample each

A digest is recorded only from a report whose stages all pass.  Baseline
shares are self (``self_s``) or inclusive (``s``) seconds over the traced
sample's ``report_s``, so they include the tracer's own cost; counts are
given as they are.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, WORK, _sample, passing, write_doc
from workloads import DEFAULT_SEED, VARIANTS, WORKLOADS

# Which end-to-end metric each layer's metrics should move, and on which
# workloads; perf changes cite these with the shares below.
LAYER_MAP = {
    "exactlin.span_add": "closure_s on closure-heavy; new/calls is the useful-work ratio",
    "exactlin.span_reduce": "closure_s on closure-heavy",
    "exactlin.rref": "relations_s on window-heavy and general-solver",
    "exactlin.kernel_basis": "relations_s",
    "exactlin.solve": "antipode_s on general-solver",
    "exactlin.mat_mul": "relations_s and antipode_s on window-heavy",
    "coalgebra.basisid_hash": "report_s on all three workloads",
    "coalgebra.verify_coalgebra": "verify_s",
    "free_tensor.verify_free_bialgebra": "verify_s",
    "free_tensor.word_coproduct": "closure_s on closure-heavy",
    "free_tensor.concat_product": "closure_s on closure-heavy",
    "invariant.op_apply": "verify_s on window-heavy, antipode_s on closure-heavy",
    "invariant.op_compose": "relations_s",
    "invariant.op_vector": "relations_s",
    "lifting.lift_basis_block": "verify_s and relations_s on window-heavy",
    "lifting.with_truncation": "relations_s (each call is a full rebuild at N+1)",
    "lifting.verify_lift": "verify_s",
    "lifting.spec_cache": "peak_rss_mb on window-heavy",
    "realization.ideal_span": "closure_s on closure-heavy, near zero on window-heavy; "
                              "dim_out/adds is the useful-work ratio",
    "realization.kernel_persistence": "relations_s on all three, largest on general-solver",
    "realization.relation_kernel": "relations_s on all three, largest on general-solver",
    "realization.represent_word": "relations_s on all three, largest on general-solver",
    "realization.pair_reduce": "relations_s (coideal-check) and closure_s",
    "hopf.verify_uniqueness_perturbations": "antipode_s on window-heavy and closure-heavy; "
                                            "absent on general-solver",
    "hopf.triangular_systems_ok": "antipode_s on window-heavy and closure-heavy; "
                                  "absent on general-solver",
    "hopf.antipode_triangular": "antipode_s on the triangular workloads",
    "hopf.reduce_expression": "antipode_s on the triangular workloads",
    "hopf.verify_Y_coproduct": "antipode_s on the triangular workloads",
    "hopf.antipode_general": "antipode_s on general-solver only",
    "hopf.operator_algebra_basis": "antipode_s on general-solver only",
    "hopf.extend_antihom": "closure_s on closure-heavy",
    "hopf.closure_iterate": "closure_s on closure-heavy",
    "hopf.verify_hopf_quotient": "closure_s on closure-heavy",
    "inputdoc.parse_input": "setup_s",
    "inputdoc.build_spec": "setup_s",
}

REASONS = {
    "closure-heavy": "ideal_span and SpanBasis take about 43% of the run and BasisId "
                     "hashing is heaviest: the workload for incremental ideal spans "
                     "and interning",
    "window-heavy": "kernel_persistence, mat_mul, the perturbation check and op_apply "
                    "dominate while ideal spans take under 1%: the bypass workload for "
                    "span work, the mechanism workload for incremental windows and the "
                    "Kronecker splitting check",
    "general-solver": "the only passing antipode_general run (joint solve and "
                      "operator_algebra_basis), no perturbation check, 81 degree-4 "
                      "kernel columns: the bypass workload for triangular-only changes",
}


def record_digests() -> int:
    out = {}
    for workload in sorted(WORKLOADS):
        out[workload] = {}
        for v in range(VARIANTS):
            result = _sample(write_doc(workload, v), time.monotonic() + 300)
            if not passing(result):
                print(f"error: {workload} variant {v} does not pass", file=sys.stderr)
                return 1
            out[workload][str(v)] = result["digest"]
            print(workload, v, result["digest"], flush=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


def record_baseline() -> int:
    shares = {}
    for workload in sorted(WORKLOADS):
        spans = WORK / f"{workload}.spans.tsv"
        result = _sample(write_doc(workload, DEFAULT_SEED), time.monotonic() + 300, spans)
        if not passing(result):
            print(f"error: {workload} does not pass", file=sys.stderr)
            return 1
        total = result["report_s"]
        layers = result["layers"]
        entry = {"traced_report_s": round(total, 3)}
        entry["layer_self"] = {k: round(v / total, 4)
                               for k, v in sorted(result["layer_self_s"].items())}
        entry["layer_self"]["other"] = round(1 - sum(result["layer_self_s"].values()) / total, 4)
        entry["function"] = {}
        for name, value in sorted(layers.items()):
            prefix, _, field = name.rpartition(".")
            if prefix in LAYER_MAP:
                row = entry["function"].setdefault(prefix, {})
                row[field] = round(value / total, 4) if field in ("s", "self_s") else value
        shares[workload] = entry
        print(workload, json.dumps(entry["layer_self"]), flush=True)
    baseline = {
        "default_seed": DEFAULT_SEED,
        "workload_reasons": REASONS,
        "layer_to_end_to_end": LAYER_MAP,
        "traced_shares_of_report_s": shares,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what not in ("digests", "baseline"):
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(record_digests() if what == "digests" else record_baseline())
