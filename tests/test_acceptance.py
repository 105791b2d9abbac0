"""Acceptance suite: one test per criterion, exact checks, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Every comparison is exact rational equality; the only
tolerances are the per-criterion wall-clock budgets, asserted at the end of
each test.
"""

import itertools
import time
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import example_w_spec, projection_spec, tri, trivial_spec
from hopfreal.cli import main
from hopfreal.coalgebra import (
    dual_coalgebra,
    dual_numbers,
    triangular_coalgebra,
    upper_triangular_algebra,
    verify_coalgebra,
)
from hopfreal.exactlin import SpanBasis, mat_mul
from hopfreal.free_tensor import (
    TensorContext,
    context_from_algebra,
    graded_key,
    verify_free_bialgebra,
    word_coproduct,
)
from hopfreal.hopf import (
    antipode_general,
    antipode_triangular,
    closure_iterate,
    triangular_systems_ok,
    verify_hopf_quotient,
    verify_uniqueness_perturbations,
    verify_Y_coproduct,
)
from hopfreal.inputdoc import build_spec, parse_input
from hopfreal.invariant import RIOp, op_from_form
from hopfreal.lifting import (
    lift_operator,
    verify_lift,
)
from hopfreal.realization import (
    relation_kernel,
    relation_kernel_upto,
    verify_coideal,
)
from oracles import (
    convolution,
    dual_triangular_relabeling,
    lift_operator_iterated,
    lift_operator_recursive,
    op_combination,
    relabel,
    represent,
    verify_pairing,
    with_truncation,
)
from test_realization import SPECS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ONE = F(1)


class _Timer:
    def __init__(self, number, title, limit):
        self.number = number
        self.title = title
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"criterion {self.number} ({self.title}): {verdict} "
              f"[{elapsed:.2f}s / limit {self.limit:.0f}s]")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget")
        return False


def span_of(elems):
    sb = SpanBasis(graded_key)
    for e in elems:
        sb.add(e)
    return sb


def test_criterion_01_coalgebra_axioms():
    with _Timer(1, "coalgebra axioms", 1.0):
        for n in (1, 2, 3, 4):
            assert verify_coalgebra(triangular_coalgebra(n)).ok
        for n in (2, 3):
            dual = dual_coalgebra(upper_triangular_algebra(n))
            assert verify_coalgebra(dual).ok
            assert relabel(dual, dual_triangular_relabeling(n)) == triangular_coalgebra(n)


def test_criterion_02_free_bialgebra():
    with _Timer(2, "free bialgebra", 5.0):
        contexts = [
            TensorContext(triangular_coalgebra(2), 3),
            TensorContext(triangular_coalgebra(3), 3),
            context_from_algebra(dual_numbers(), 3),
        ]
        for ctx in contexts:
            assert verify_free_bialgebra(ctx).ok
            for n in range(4):
                for w in ctx.word_basis(n):
                    for (w1, w2) in word_coproduct(ctx, w):
                        assert len(w1) == n and len(w2) == n


def test_criterion_03_anti_isomorphism():
    with _Timer(3, "anti-isomorphism", 1.0):
        f = dual_coalgebra(upper_triangular_algebra(3))
        ops = {b: op_from_form(f, RIOp.from_eval(b)) for b in f.basis}
        count = 0
        for a, b in itertools.product(f.basis, repeat=2):
            conv = convolution(f, {b: ONE}, {a: ONE})
            assert mat_mul(ops[a], ops[b]) == op_from_form(f, RIOp.from_form(conv))
            count += 1
        assert count == 36


def test_criterion_04_duality_pairing():
    with _Timer(4, "duality pairing", 1.0):
        alg = upper_triangular_algebra(2)
        report = verify_pairing(context_from_algebra(alg, 3), alg)
        assert report.ok, report.failures()


def assert_lift_matches_oracles(spec):
    for b in spec.l_coalg.basis:
        direct = lift_operator(spec, b)
        # bit-exact block agreement with both independent constructions
        assert direct == lift_operator_recursive(spec, b) == lift_operator_iterated(spec, b)


@settings(max_examples=30, deadline=None)
@given(make=SPECS, truncation=st.integers(1, 4))
def lift_matches_oracles_on_specs(make, truncation):
    assert_lift_matches_oracles(make(truncation))


def test_criterion_05_lifting_oracle_equivalence():
    with _Timer(5, "lifting oracle equivalence", 5.0):
        spec = example_w_spec(truncation=3)
        assert_lift_matches_oracles(spec)
        for b in spec.l_coalg.basis:
            report = verify_lift(spec, b)
            assert report.ok, report.failures()
        # every fixture that builds a realization, at its own truncation
        for path in sorted(FIXTURES.glob("*.hra")):
            if not path.name.startswith("bad_"):
                assert_lift_matches_oracles(build_spec(parse_input(path.read_text(encoding="utf-8"))))
        lift_matches_oracles_on_specs()


def test_criterion_06_relation_kernels():
    with _Timer(6, "relation kernels", 10.0):
        trivial = trivial_spec(truncation=3)
        space = relation_kernel(trivial, 1)
        assert len(space) == 2
        assert span_of(space).basis() == span_of([
            {(tri(2, 1),): ONE},
            {(tri(1, 1),): ONE, (tri(2, 2),): F(-1)},
        ]).basis()

        w = example_w_spec(truncation=3)
        w_space = relation_kernel(w, 1)
        assert len(w_space) == 1
        assert span_of(w_space).basis() == span_of([
            {(tri(1, 1),): ONE, (tri(2, 2),): F(-1)},
        ]).basis()

        for spec, kern in ((trivial, space), (w, w_space)):
            wider = relation_kernel(with_truncation(spec, 4), 1)
            assert span_of(kern).basis() == span_of(wider).basis()

        for spec in (trivial, w):
            for d in (1, 2):
                report = verify_coideal(spec, relation_kernel(spec, d), 2)
                assert report.ok, report.failures()


def test_criterion_07_triangular_antipode():
    with _Timer(7, "triangular antipode", 5.0):
        spec = example_w_spec(truncation=3)
        table = antipode_triangular(spec)
        z = tri(2, 1)
        negated = op_combination(spec.f_ctx, [(lift_operator(spec, z), F(-1))])
        assert represent(spec, table.entries[z]) == negated
        assert triangular_systems_ok(spec, table.entries)
        cop = verify_Y_coproduct(spec, table, 3)
        assert cop.ok, cop.failures()
        uniq = verify_uniqueness_perturbations(spec, table)
        assert uniq.ok, uniq.failures()


def test_criterion_08_closure_and_hopf_quotient():
    with _Timer(8, "closure and hopf quotient", 10.0):
        spec = example_w_spec(truncation=3)
        table = antipode_triangular(spec)
        r0 = relation_kernel_upto(spec, 3)
        closure = closure_iterate(spec, table, r0, 4, 3)
        assert closure.stabilized and closure.stable_at <= 3
        report = verify_hopf_quotient(spec, table, closure, 3)
        assert report.ok, report.failures()


def test_criterion_09_general_solver_consistency():
    with _Timer(9, "general solver consistency", 10.0):
        spec = example_w_spec(truncation=3)
        triangular = antipode_triangular(spec)
        general = antipode_general(spec, 3)
        assert general is not None and general.unique
        for b in spec.l_coalg.basis:
            assert represent(spec, general.entries[b]) == represent(spec, triangular.entries[b])

        trivial = trivial_spec(truncation=3)
        table = antipode_general(trivial, 3)
        assert table is not None
        for b in trivial.l_coalg.basis:
            eps = trivial.l_coalg.eps(b)
            expect = {(): eps} if eps else {}
            assert table.entries[b] == expect

        assert antipode_general(projection_spec(), 3) is None


def test_criterion_10_cli_determinism(capsys):
    with _Timer(10, "cli determinism", 30.0):
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
            runs = []
            for _ in range(2):
                code = main(["report", "--input", str(FIXTURES / name)])
                captured = capsys.readouterr()
                assert code == expected, f"{name}: exit {code}, expected {expected}"
                runs.append(captured.out)
            assert runs[0] == runs[1], f"{name}: report not byte-identical"
