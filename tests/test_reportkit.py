"""Check reports: the text of a failed check, and no text for a passed one.

Each planted case below breaks one input so that every ``record`` site of
one ``verify_*`` operation fails at least once; the summary and failure
lines are pinned byte for byte.  The passing fixtures then run every
``verify_*`` operation with the formatters patched to raise, so a passed
check can build no text.
"""

from pathlib import Path

import pytest

from conftest import example_w_spec, primitive_spec, tri
from hopfreal import fmt, free_tensor, hopf, pipeline
from hopfreal.coalgebra import (
    BasisId,
    is_cotriangular,
    make_coalgebra,
    triangular_coalgebra,
    verify_coalgebra,
)
from hopfreal.errors import InternalInconsistencyError
from hopfreal.exactlin import Matrix
from hopfreal.free_tensor import TensorContext, verify_free_bialgebra
from hopfreal.hopf import (
    AntipodeTable,
    ClosureResult,
    antipode_general,
    antipode_triangular,
    closure_iterate,
    verify_hopf_quotient,
    verify_uniqueness_perturbations,
    verify_Y_coproduct,
)
from hopfreal.inputdoc import build_spec, parse_input
from hopfreal.lifting import RealizationSpec, verify_lift
from hopfreal.realization import (
    ideal_span,
    l_context,
    relation_kernel,
    relation_kernel_upto,
    verify_coideal,
)
from hopfreal.cli import main
from hopfreal.reportkit import CheckReport

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
A, Z, D = tri(1, 1), tri(2, 1), tri(2, 2)


def broken_coalgebra():
    # delta(l[2,1]) = l[2,1] (x) l[2,2] + l[1,1] (x) l[1,1]: neither
    # coassociative nor counital at l[2,1]
    c = triangular_coalgebra(2)
    delta = {b: list(t) for b, t in c.delta.items()}
    delta[Z] = [(Z, D, 1), (A, A, 1)]
    return make_coalgebra(c.basis, delta, c.epsilon)


def coalgebra_case(monkeypatch):
    return verify_coalgebra(broken_coalgebra())


def free_bialgebra_case(monkeypatch):
    # the word l[2,1] gains the term 1 (x) 1: ungraded, not counital, not
    # coassociative, and not multiplicative in products with a letter
    ctx = TensorContext(triangular_coalgebra(2), 2)
    honest = free_tensor.word_coproduct

    def corrupted(c, w):
        pairs = honest(c, w)
        return {**pairs, ((), ()): 1} if w == (Z,) else pairs

    monkeypatch.setattr(free_tensor, "word_coproduct", corrupted)
    return verify_free_bialgebra(ctx)


def lift_case(monkeypatch):
    # X(l[2,1]) over the broken coalgebra, reading a non-square x(l[1,1])
    # and a non-invariant x(l[2,2]) through delta(l[2,1])
    ctx = example_w_spec(2).f_ctx
    spec = RealizationSpec(broken_coalgebra(), ctx, {
        A: Matrix(2, 3), Z: Matrix.identity(3), D: Matrix(3, 3, {(1, 0): 1})})
    return verify_lift(spec, Z)


def coideal_case(monkeypatch):
    # the degree-2 kernel passes; l[1,1]*l[2,1] - l[2,1] is no coideal element
    spec = example_w_spec()
    planted = {(A, Z): 1, (Z,): -1}
    return verify_coideal(spec, relation_kernel(spec, 2) + [planted], 2)


def y_coproduct_case(monkeypatch):
    spec = example_w_spec()
    entries = dict(antipode_triangular(spec).entries)
    entries[Z] = {**entries[Z], (Z, Z): 1}
    return verify_Y_coproduct(spec, AntipodeTable(entries, entries), 2)


def uniqueness_case(monkeypatch):
    # a system check that accepts everything: no perturbation breaks it
    spec = example_w_spec()
    table = antipode_triangular(spec)
    monkeypatch.setattr(hopf, "triangular_systems_ok", lambda s, e: True)
    return verify_uniqueness_perturbations(spec, table, bound=2)


def general_case(monkeypatch):
    # every reversed coproduct law fails, and so does the right system at
    # the last basis element: the solver's report is kept past its raise
    kept = []

    class Kept(CheckReport):
        def __init__(self, title):
            super().__init__(title)
            kept.append(self)

    honest = hopf._system_checks

    def planted(spec, entries):
        basis = spec.l_coalg.basis
        for b, side, ok in honest(spec, entries):
            yield b, side, ok and (b, side) != (basis[-1], "right")

    monkeypatch.setattr(hopf, "CheckReport", Kept)
    monkeypatch.setattr(hopf, "_splits", lambda *args: False)
    monkeypatch.setattr(hopf, "_system_checks", planted)
    with pytest.raises(InternalInconsistencyError):
        antipode_general(primitive_spec(), 2)
    return kept[0]


def hopf_quotient_case(monkeypatch):
    # a closure whose basis is the planted non-coideal element alone
    spec = example_w_spec()
    table = antipode_triangular(spec)
    g = {(A, Z): 1, (Z,): -1}
    closure = ClosureResult([], 0, [g], {}, ideal_span(l_context(spec), [g], 2))
    return verify_hopf_quotient(spec, table, closure, 2)


CASES = {
    "coalgebra": coalgebra_case,
    "free-bialgebra": free_bialgebra_case,
    "lift": lift_case,
    "coideal": coideal_case,
    "y-coproduct": y_coproduct_case,
    "uniqueness": uniqueness_case,
    "general": general_case,
    "hopf-quotient": hopf_quotient_case,
}

PINNED = {
    'coalgebra': (
        'coalgebra axioms: FAIL (9 checks, 3 failed)',
        [
            'coassociativity on l[2,1]',
            'left counit law on l[2,1]',
            'right counit law on l[2,1]',
        ]),
    'free-bialgebra': (
        'free bialgebra structure: FAIL (73 checks, 8 failed)',
        [
            'coproduct grading on (BasisId(block=0, i=2, j=1),)',
            'coassociativity on (BasisId(block=0, i=2, j=1),)',
            'counit laws on (BasisId(block=0, i=2, j=1),)',
            'coproduct multiplicative on (BasisId(block=0, i=1, j=1),)*'
            '(BasisId(block=0, i=2, j=1),)',
            'coproduct multiplicative on (BasisId(block=0, i=2, j=1),)*'
            '(BasisId(block=0, i=1, j=1),)',
            'coproduct multiplicative on (BasisId(block=0, i=2, j=1),)*'
            '(BasisId(block=0, i=2, j=1),)',
            'coproduct multiplicative on (BasisId(block=0, i=2, j=1),)*'
            '(BasisId(block=0, i=2, j=2),)',
            'coproduct multiplicative on (BasisId(block=0, i=2, j=2),)*'
            '(BasisId(block=0, i=2, j=1),)',
        ]),
    'lift': (
        'lifted operator properties: FAIL (5 checks, 3 failed)',
        [
            'splitting rule on word pairs (coassociativity fails on l[2,1])',
            'grade preservation (square block per degree)',
            'right-invariance on T(F) (witness (BasisId(block=0, i=0, j=0),) of x(l[2,2]))',
        ]),
    'coideal': (
        'coideal property at degree bound 2: FAIL (7 checks, 1 failed)',
        [
            'delta(-l[2,1] + l[1,1]*l[2,1]) decomposes (residue nonzero)',
        ]),
    'y-coproduct': (
        'antipode coproduct law at degree bound 2: FAIL (6 checks, 3 failed)',
        [
            'splitting of Y at l[2,1]',
            'splitting of composite Y at (l[1,1],l[2,1])',
            'splitting of composite Y at (l[2,1],l[1,1])',
        ]),
    'uniqueness': (
        'uniqueness under perturbation (10 trials): FAIL (10 checks, 10 failed)',
        [
            'trial 0: perturbing Y at l[2,2] breaks a system',
            'trial 1: perturbing Y at l[1,1] breaks a system',
            'trial 2: perturbing Y at l[2,2] breaks a system',
            'trial 3: perturbing Y at l[2,1] breaks a system',
            'trial 4: perturbing Y at l[2,1] breaks a system',
            'trial 5: perturbing Y at l[1,1] breaks a system',
            'trial 6: perturbing Y at l[2,2] breaks a system',
            'trial 7: perturbing Y at l[1,1] breaks a system',
            'trial 8: perturbing Y at l[2,1] breaks a system',
            'trial 9: perturbing Y at l[2,1] breaks a system',
        ]),
    'general': (
        'general antipode verification at bound 2: FAIL (6 checks, 3 failed)',
        [
            'reversed coproduct law at f[0]',
            'right system at f[1]',
            'reversed coproduct law at f[1]',
        ]),
    'hopf-quotient': (
        'hopf quotient axioms at degree bound 2: FAIL (27 checks, 25 failed)',
        [
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[1,1] [ideal bound 2]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[1,1] [ideal bound 2]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[2,1] [ideal bound 2]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[2,1] [ideal bound 2]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[2,2] [ideal bound 2]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[2,2] [ideal bound 2]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[1,1]*l[1,1] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[1,1]*l[1,1] [ideal bound 4]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[1,1]*l[2,1] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[1,1]*l[2,1] [ideal bound 4]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[1,1]*l[2,2] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[1,1]*l[2,2] [ideal bound 4]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[2,1]*l[1,1] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[2,1]*l[1,1] [ideal bound 4]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[2,1]*l[2,1] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[2,1]*l[2,1] [ideal bound 4]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[2,1]*l[2,2] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[2,1]*l[2,2] [ideal bound 4]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[2,2]*l[1,1] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[2,2]*l[1,1] [ideal bound 4]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[2,2]*l[2,1] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[2,2]*l[2,1] [ideal bound 4]",
            "sum S(w')w'' = eps(w)1 mod ideal for w=l[2,2]*l[2,2] [ideal bound 4]",
            "sum w'S(w'') = eps(w)1 mod ideal for w=l[2,2]*l[2,2] [ideal bound 4]",
            'closure ideal coideal property on generator [bound 2]',
        ]),
}


@pytest.mark.parametrize("case", CASES)
def test_failed_checks_keep_their_text(monkeypatch, case):
    report = CASES[case](monkeypatch)
    summary, failures = PINNED[case]
    assert report.summary() == summary
    assert report.failures() == failures
    assert not report.ok


def refuse(*args, **kwargs):
    raise AssertionError("a passed check built its text")


@pytest.mark.parametrize("name", ["example_w", "general_w", "three_block", "trivial"])
def test_passed_checks_build_no_text(monkeypatch, name):
    doc = parse_input((FIXTURES / f"{name}.hra").read_text(encoding="utf-8"))
    spec = build_spec(doc)
    d = doc.max_degree
    for target, attr in ((fmt, "format_element"), (fmt, "format_word"),
                         (BasisId, "__str__"), (BasisId, "__repr__")):
        monkeypatch.setattr(target, attr, refuse)
    reports = [verify_coalgebra(c) for c in doc.coalgebras.values()]
    reports.append(verify_free_bialgebra(spec.f_ctx))
    reports.extend(verify_lift(spec, b) for b in spec.l_coalg.basis)
    reports.extend(verify_coideal(spec, relation_kernel(spec, k), k) for k in range(1, d + 1))
    if is_cotriangular(spec.l_coalg) and spec.diag_pairs:
        table = antipode_triangular(spec)
        reports.append(verify_Y_coproduct(spec, table, d))
        reports.append(verify_uniqueness_perturbations(spec, table, bound=d))
    else:
        table = antipode_general(spec, d)
        reports.append(table.report)
    closure = closure_iterate(spec, table, relation_kernel_upto(spec, d), doc.max_stages, d)
    reports.append(verify_hopf_quotient(spec, table, closure, d))
    assert all(report.ok for report in reports)


def test_failure_lines_use_the_document_labels(monkeypatch, capsys):
    # three_block names its letters P.l[1,1], Q.l[2,1], ...; a relation
    # planted into the degree-2 kernel is no coideal element, and the
    # coideal-check and hopf-check failure lines name it by those labels
    doc = parse_input((FIXTURES / "three_block.hra").read_text(encoding="utf-8"))
    spec = build_spec(doc)
    labels = doc.display_labels(doc.realization.l_name)
    a, z = tri(1, 1, 1), tri(2, 1, 1)
    planted = {(a, z): 1, (z,): -1}
    assert verify_coideal(spec, [planted], 2).failures() == [
        "delta(-1:l[2,1] + 1:l[1,1]*1:l[2,1]) decomposes (residue nonzero)"]
    labelled = "delta(-Q.l[2,1] + Q.l[1,1]*Q.l[2,1]) decomposes (residue nonzero)"
    assert verify_coideal(spec, [planted], 2, labels).failures() == [labelled]

    table = antipode_triangular(spec)
    closure = ClosureResult([], 0, [planted], {}, ideal_span(l_context(spec), [planted], 2))
    texts = verify_hopf_quotient(spec, table, closure, 2, labels).failures()
    assert "sum S(w')w'' = eps(w)1 mod ideal for w=Q.l[1,1]*Q.l[2,1] [ideal bound 4]" in texts
    assert not any(":l[" in t for t in texts)

    honest = pipeline.kernel_persistence

    def with_planted(spec, d):
        kern, wider, flagged = honest(spec, d)
        return (kern + [planted] if d == 2 else kern), wider, flagged

    monkeypatch.setattr(pipeline, "kernel_persistence", with_planted)
    code = main(["report", "--input", str(FIXTURES / "three_block.hra"),
                 "--stages", "coideal-check"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "    " + labelled in lines
