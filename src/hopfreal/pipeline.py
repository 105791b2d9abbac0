"""Stage engine: run the verification pipeline on a parsed document.

Stages run in a fixed order, each consuming the artifacts of earlier ones
(computed on demand, so partial stage sets work).  A stage whose
prerequisite artifact is unavailable is marked failed-precondition and its
dependents are skipped.  Reports are deterministic: identical input gives
byte-identical text, and every quantitative claim carries the (N, d) bounds
it was certified under.
"""

from __future__ import annotations

from .coalgebra import is_cotriangular, verify_coalgebra
from .errors import PreconditionError
from .fmt import format_element, format_id, format_word
from .free_tensor import graded_key, verify_free_bialgebra
from .hopf import (
    antipode_general,
    antipode_triangular,
    closure_iterate,
    verify_hopf_quotient,
    verify_uniqueness_perturbations,
    verify_Y_coproduct,
)
from .inputdoc import InputDocument, build_spec
from .lifting import verify_lift
from .realization import (
    kernel_persistence,
    relation_kernel_upto,
    verify_coideal,
)

STAGE_ORDER = (
    "verify-coalgebras",
    "verify-free-bialgebra",
    "verify-lift",
    "relations",
    "coideal-check",
    "antipode",
    "closure",
    "hopf-check",
)


class StageResult:
    def __init__(self, name: str, status: str, lines: list = None):
        self.name = name
        self.status = status  # "pass" | "fail" | "failed-precondition"
        self.lines = [] if lines is None else lines

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class Report:
    def __init__(self, header: list, results: list, skipped: list):
        self.header = header
        self.results = results
        self.skipped = skipped

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        out = list(self.header)
        for r in self.results:
            out.append("")
            out.append(f"[{r.name}] {r.status.upper()}")
            out.extend("  " + line for line in r.lines)
        out.append("")
        if self.skipped:
            out.append("stages not requested: " + ", ".join(self.skipped))
        out.append(f"overall: {'PASS' if self.ok else 'FAIL'} "
                   f"({sum(1 for r in self.results if r.ok)}/{len(self.results)} stages)")
        return "\n".join(out) + "\n"


def _check_lines(report, head: str = "", bounds: str = "") -> list:
    """A check report's summary line, between head and bounds, then each
    failed check indented under it."""
    return [f"{head}{report.summary()}{bounds}"] + ["  " + f for f in report.failures()]


class _Pipeline:
    def __init__(self, doc: InputDocument):
        self.doc = doc
        self.spec = build_spec(doc)
        self.labels = doc.display_labels(doc.realization.l_name)
        self.f_labels = doc.display_labels(doc.realization.f_name)
        self.artifacts = {}

    # ----- shared artifacts ---------------------------------------------------

    def kernels(self):
        if "kernels" not in self.artifacts:
            out = []
            for d in range(1, self.doc.max_degree + 1):
                out.append((d,) + kernel_persistence(self.spec, d))
            self.artifacts["kernels"] = out
        return self.artifacts["kernels"]

    def r0(self):
        return relation_kernel_upto(self.spec, self.doc.max_degree)

    def table(self):
        """(table or None, mode) for the antipode artifact."""
        if "table" not in self.artifacts:
            if is_cotriangular(self.spec.l_coalg) and self.spec.diag_pairs:
                table = antipode_triangular(self.spec)
                mode = "triangular"
            else:
                mode = "general"
                table = antipode_general(self.spec, self.doc.max_degree, self.labels)
            self.artifacts["table"] = (table, mode)
        return self.artifacts["table"]

    def closure(self):
        if "closure" not in self.artifacts:
            table, _ = self.table()
            if table is None:
                raise PreconditionError("antipode stage produced no table")
            self.artifacts["closure"] = closure_iterate(
                self.spec, table, self.r0(), self.doc.max_stages, self.doc.max_degree)
        return self.artifacts["closure"]

    # ----- stages --------------------------------------------------------------

    def stage_verify_coalgebras(self):
        lines = []
        ok = True
        for name in sorted(self.doc.coalgebras):
            c = self.doc.coalgebras[name]
            report = verify_coalgebra(c)
            ok = ok and report.ok
            lines.extend(_check_lines(
                report, f"coalgebra {name} ({self.doc.coalgebra_defs[name]}): dim {c.dim}, "))
        return StageResult("verify-coalgebras", "pass" if ok else "fail", lines)

    def stage_verify_free_bialgebra(self):
        report = verify_free_bialgebra(self.spec.f_ctx, self.f_labels)
        lines = _check_lines(report, f"free bialgebra over F at N={self.doc.truncation}: ")
        return StageResult("verify-free-bialgebra",
                           "pass" if report.ok else "fail", lines)

    def stage_verify_lift(self):
        lines = []
        ok = True
        for b in self.spec.l_coalg.basis:
            report = verify_lift(self.spec, b, self.labels, self.f_labels)
            ok = ok and report.ok
            lines.extend(_check_lines(report, f"X({format_id(b, self.labels)}): ",
                                      f" [N={self.doc.truncation}]"))
        return StageResult("verify-lift", "pass" if ok else "fail", lines)

    def stage_relations(self):
        lines = []
        n = self.doc.truncation
        for (d, kern, wider_dim, flagged) in self.kernels():
            lines.append(
                f"degree {d} kernel: dim {len(kern)} [N={n}], dim {wider_dim} "
                f"[N={n + 1}], truncation-flagged candidates: {flagged}")
            for k, rel in enumerate(kern):
                lines.append(f"  r{k + 1}: {format_element(rel, self.labels)}")
        lines.append(f"mixed-degree kernel (degree <= {self.doc.max_degree}): "
                     f"dim {len(self.r0())} [N={n}]")
        return StageResult("relations", "pass", lines)

    def stage_coideal_check(self):
        lines = []
        ok = True
        d = self.doc.max_degree
        for (dd, kern, _, _) in self.kernels():
            report = verify_coideal(self.spec, kern, d, self.labels)
            ok = ok and report.ok
            lines.extend(_check_lines(report, f"degree {dd} kernel: ", f" [d={d}]"))
        return StageResult("coideal-check", "pass" if ok else "fail", lines)

    def stage_antipode(self):
        table, mode = self.table()
        n, d = self.doc.truncation, self.doc.max_degree
        lines = [f"solver: {mode}"]
        if table is None:
            lines.append(f"no antipode found at degree bound {d} [N={n}] "
                         "(not a nonexistence proof)")
            return StageResult("antipode", "fail", lines)
        labels = self.labels
        for b in sorted(table.entries):
            lines.append(f"Y({format_id(b, labels)}) = "
                         f"{format_element(table.entries[b], labels)} [N={n}]")
        if mode == "triangular":
            lines.append("determination (diagonal inverse letters): " + ", ".join(
                f"{format_id(k, labels)} -> {format_id(v, labels)}"
                for k, v in sorted(table.determination.items())))
            for b in sorted(table.raw_entries):
                lines.append(f"raw determination Y({format_id(b, labels)}) = "
                             f"{format_element(table.raw_entries[b], labels)}")
            cop = verify_Y_coproduct(self.spec, table, d, labels)
            lines.extend(_check_lines(cop, bounds=f" [d={d}]"))
            uniq = verify_uniqueness_perturbations(self.spec, table, bound=d, labels=labels)
            lines.extend(_check_lines(uniq, bounds=f" [N={n}]"))
            ok = cop.ok and uniq.ok
        else:
            lines.append(f"solution unique in the bounded operator algebra: "
                         f"{'yes' if table.unique else 'no'} [d={d}]")
            lines.extend(_check_lines(table.report, bounds=f" [N={n}, d={d}]"))
            ok = table.report.ok
        return StageResult("antipode", "pass" if ok else "fail", lines)

    def stage_closure(self):
        closure = self.closure()
        n, d = self.doc.truncation, self.doc.max_degree
        lines = [
            f"starting relations: dim {len(self.r0())} [N={n}, d={d}]",
            f"starting space is a coideal: {'yes' if closure.r0_coideal_ok else 'NO'}",
        ]
        for stage in closure.stages:
            lines.append(
                f"stage {stage.index}: space dim {stage.space_dim}, ideal dim "
                f"{stage.ideal_dim} [d={d}], new directions {stage.new_directions}, "
                f"coideal defect contained: {'yes' if stage.coideal_ok else 'NO'}")
        if closure.overflow:
            lines.append(f"antipode images escaped degree bound {d}: "
                         "stabilization not certifiable at this bound")
        if closure.stabilized:
            lines.append(f"stabilized at stage {closure.stable_at} [N={n}, d={d}]")
        else:
            lines.append(f"not stabilized within {self.doc.max_stages} stages "
                         f"[N={n}, d={d}]")
        lines.append("quotient dimensions by degree: " + ", ".join(
            f"{k}: {v}" for k, v in sorted(closure.quotient_dims.items())))
        ok = (closure.stabilized and closure.r0_coideal_ok and not closure.overflow
              and all(s.coideal_ok for s in closure.stages))
        return StageResult("closure", "pass" if ok else "fail", lines)

    def stage_hopf_check(self):
        closure = self.closure()
        if not closure.stabilized:
            raise PreconditionError("closure did not stabilize")
        table, _ = self.table()
        n, d = self.doc.truncation, self.doc.max_degree
        report = verify_hopf_quotient(self.spec, table, closure, d, self.labels)
        lines = _check_lines(report, bounds=f" [N={n}, d={d}]")
        return StageResult("hopf-check", "pass" if report.ok else "fail", lines)

    STAGES = {
        "verify-coalgebras": stage_verify_coalgebras,
        "verify-free-bialgebra": stage_verify_free_bialgebra,
        "verify-lift": stage_verify_lift,
        "relations": stage_relations,
        "coideal-check": stage_coideal_check,
        "antipode": stage_antipode,
        "closure": stage_closure,
        "hopf-check": stage_hopf_check,
    }


def run_pipeline(doc: InputDocument, stages, input_name: str = "<input>") -> Report:
    return _run(doc, stages, input_name)[0]


def _run(doc: InputDocument, stages, input_name: str = "<input>"):
    unknown = [s for s in stages if s not in STAGE_ORDER]
    if unknown:
        raise PreconditionError(f"unknown stages: {', '.join(unknown)}")
    pipe = _Pipeline(doc)
    header = [
        "== hopfreal pipeline report ==",
        f"input: {input_name}",
        f"parameters: truncation N={doc.truncation}, relation degree d={doc.max_degree}, "
        f"closure max stages {doc.max_stages}",
        f"realization: L={doc.realization.l_name} "
        f"(dim {doc.coalgebras[doc.realization.l_name].dim}), "
        f"F={doc.realization.f_name} "
        f"(dim {doc.coalgebras[doc.realization.f_name].dim})",
    ]
    requested = [s for s in STAGE_ORDER if s in stages]
    skipped = [s for s in STAGE_ORDER if s not in stages]
    results = []
    failed = set()
    for name in requested:
        deps_failed = _failed_dependency(name, failed)
        if deps_failed:
            results.append(StageResult(
                name, "failed-precondition",
                [f"skipped: dependent stage {deps_failed!r} did not pass"]))
            failed.add(name)
            continue
        try:
            result = _Pipeline.STAGES[name](pipe)
        except PreconditionError as err:
            result = StageResult(name, "failed-precondition", [str(err)])
        results.append(result)
        if not result.ok:
            failed.add(name)
    return Report(header, results, skipped), pipe


_DEPS = {
    "closure": ("antipode",),
    "hopf-check": ("antipode", "closure"),
}


def _failed_dependency(name, failed):
    for dep in _DEPS.get(name, ()):
        if dep in failed:
            return dep
    return None


def stage_artifacts_text(pipe: "_Pipeline", pipe_stages) -> str:
    """Machine-readable re-emission of computed stage outputs, in the same
    block syntax as the input format."""
    doc = pipe.doc
    labels = pipe.labels
    out = []

    def element_terms(elem):
        parts = []
        for w in sorted(elem, key=graded_key):
            parts.append(f"{format_word(w, labels)} {elem[w]}")
        return ", ".join(parts)

    if "relations" in pipe_stages:
        for (d, kern, _, flagged) in pipe.kernels():
            out.append("relations {")
            out.append(f"  degree {d}")
            out.append(f"  truncation {doc.truncation}")
            out.append(f"  flagged {flagged}")
            for rel in kern:
                out.append(f"  rel {element_terms(rel)}")
            out.append("}")
    if "antipode" in pipe_stages:
        table, mode = pipe.table()
        out.append("antipode {")
        out.append(f"  mode {mode}")
        if table is None:
            out.append("  none true")
        else:
            for b in sorted(table.entries):
                out.append(f"  y {format_id(b, labels)} = "
                           f"{element_terms(table.entries[b]) or '0 0'}")
        out.append("}")
    if "closure" in pipe_stages:
        try:
            closure = pipe.closure()
        except PreconditionError:
            closure = None
        out.append("closure {")
        if closure is None:
            out.append("  unavailable true")
        else:
            out.append(f"  stabilized {'true' if closure.stabilized else 'false'}")
            if closure.stable_at is not None:
                out.append(f"  stable-at {closure.stable_at}")
            for rel in closure.final_basis:
                out.append(f"  gen {element_terms(rel)}")
        out.append("}")
    return "\n".join(out) + "\n" if out else ""
