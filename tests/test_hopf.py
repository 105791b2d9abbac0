import re
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    example_w_spec,
    primitive_spec,
    projection_spec,
    three_block_spec,
    tri,
    trivial_spec,
)
from hopfreal.coalgebra import BasisId, dual_numbers, make_coalgebra, triangular_blocks, verify_coalgebra
from hopfreal.errors import InternalInconsistencyError, PreconditionError, UnsupportedStructureError
from hopfreal.exactlin import Matrix, SpanBasis, solve, vec_add_scaled
from hopfreal import exactlin, hopf
from hopfreal.hopf import (
    _composite_split_ok,
    AntipodeTable,
    _splits,
    _system_checks,
    antipode_general,
    antipode_triangular,
    closure_iterate,
    extend_antihom,
    operator_algebra_basis,
    reduce_expression,
    triangular_systems_ok,
    verify_hopf_quotient,
    verify_uniqueness_perturbations,
    verify_Y_coproduct,
)
from hopfreal.free_tensor import concat_product, context_from_algebra, graded_key
from hopfreal.inputdoc import build_spec, parse_input
from hopfreal.invariant import RIOp
from hopfreal.lifting import make_spec, verify_lift
from hopfreal.realization import (
    BoundedIdeal,
    ideal_span,
    image_walk,
    l_context,
    monomials_upto,
    relation_kernel_upto,
)
from hopfreal.reportkit import CheckReport
from oracles import (
    convolution_inverse, lift_operator_recursive, op_combination, op_compose, op_identity,
    op_is_zero, op_vector, represent, represent_word, span_contains, split_witness)

ONE = F(1)
GENERAL_W = Path(__file__).resolve().parent.parent / "fixtures" / "general_w.hra"
THREE_BLOCK = GENERAL_W.with_name("three_block.hra")


def logged_checks(monkeypatch):
    """Every check recorded from here on, as (text, ok): the text a failed
    check carries, built here for the passed ones too."""
    log = []
    record = CheckReport.record

    def logged(report, ok, describe, *args):
        log.append((describe(*args), bool(ok)))
        record(report, ok, describe, *args)

    monkeypatch.setattr(CheckReport, "record", logged)
    return log


def table_ops(spec, entries):
    """The operator pi(y) of each expression y of a table."""
    return {b: represent(spec, expr) for b, expr in entries.items()}


def back_substituted_ops(spec):
    """Reference: the triangular back substitution on operators, which the
    expressions' classes replaced: Y_i^i = X(inverse letter) and
    Y_i^j = -Y_j^j o sum_{j < k <= i} X(l[k,j]) o Y_i^k."""
    inverse = dict(spec.diag_pairs)
    ops = {}
    for block, n in sorted(triangular_blocks(spec.l_coalg).items()):
        for i in range(1, n + 1):
            ops[tri(i, i, block)] = lift_operator_recursive(spec, inverse[tri(i, i, block)])
            for j in range(i - 1, 0, -1):
                acc = op_combination(spec.f_ctx, [
                    (op_compose(lift_operator_recursive(spec, tri(k, j, block)),
                                ops[tri(i, k, block)]), -ONE)
                    for k in range(j + 1, i + 1)])
                ops[tri(i, j, block)] = op_compose(ops[tri(j, j, block)], acc)
    return ops


@pytest.fixture
def w_table(example_w):
    return antipode_triangular(example_w)


def test_diagonal_entries_are_inverse_words(example_w, w_table):
    for b in (tri(1, 1), tri(2, 2)):
        assert represent(example_w, w_table.entries[b]) == op_identity(example_w.f_ctx)
        assert w_table.entries[b] == {(b,): ONE}


def test_off_diagonal_entry_example_w(example_w, w_table):
    z = tri(2, 1)
    negated = op_combination(example_w.f_ctx, [(lift_operator_recursive(example_w, z), F(-1))])
    assert represent(example_w, w_table.entries[z]) == negated
    assert w_table.entries[z] == {(z,): F(-1)}
    assert w_table.raw_entries[z] == {(tri(1, 1), z, tri(2, 2)): F(-1)}


def test_both_systems_hold(example_w, w_table):
    assert triangular_systems_ok(example_w, w_table.entries)


def test_second_system_cancellation(example_w, w_table):
    # Y_1^1 o X(l[2,1]) + Y_2^1 o X(l[2,2]) = X(l[2,1]) - X(l[2,1]) = 0
    z = tri(2, 1)
    ops = table_ops(example_w, w_table.entries)
    lhs = op_combination(example_w.f_ctx, [
        (op_compose(ops[tri(1, 1)], lift_operator_recursive(example_w, z)), F(1)),
        (op_compose(ops[z], lift_operator_recursive(example_w, tri(2, 2))), F(1)),
    ])
    assert op_is_zero(lhs)


def test_trivial_realization_off_diagonal_is_zero(trivial):
    table = antipode_triangular(trivial)
    assert op_is_zero(represent(trivial, table.entries[tri(2, 1)]))
    assert table.entries[tri(2, 1)] == {}


def test_antipode_requires_diag_pairs():
    spec = example_w_spec()
    spec.diag_pairs = None
    with pytest.raises(PreconditionError):
        antipode_triangular(spec)


def test_antipode_requires_cotriangular():
    with pytest.raises(UnsupportedStructureError):
        antipode_triangular(primitive_spec())


def test_expressions_represent_their_operators():
    # both the reduced and the raw expression represent the operator that
    # back substitution on operators gives
    for spec in (example_w_spec(), three_block_spec(), trivial_spec()):
        table = antipode_triangular(spec)
        want = back_substituted_ops(spec)
        assert table_ops(spec, table.entries) == want
        assert table_ops(spec, table.raw_entries) == want


def test_verify_y_coproduct(example_w, w_table):
    report = verify_Y_coproduct(example_w, w_table, 3)
    assert report.ok, report.failures()
    # the report samples composite pairs; every ordered pair splits
    basis = example_w.l_coalg.basis
    assert all(_composite_split_ok(example_w, w_table, u, v, 3) for u in basis for v in basis)


def test_verify_y_coproduct_on_a_non_cotriangular_l(monkeypatch):
    # dual numbers: f[0] is grouplike, delta f[1] = f[0] (x) f[1] + f[1] (x) f[0];
    # the general solver's table passes every check, each one the operator
    # oracle's, at every bound
    spec = primitive_spec()
    assert triangular_blocks(spec.l_coalg) is None
    table = antipode_general(spec, spec.max_degree)
    ops = table_ops(spec, table.entries)
    log = logged_checks(monkeypatch)
    for bound in range(spec.max_degree + 1):
        del log[:]
        report = verify_Y_coproduct(spec, table, bound)
        assert report.ok, report.failures()
        assert log == y_coproduct_checks(spec, ops, bound), bound
        assert [text for text, _ in log[-3:]] == [
            f"splitting of composite Y at ({u},{v})" for u, v in ((P1, P1), (P0, P1), (P1, P0))]


def test_extend_antihom_unit(example_w, w_table):
    out, truncated = extend_antihom({}, w_table, ())
    assert out == {(): ONE} and not truncated


def test_extend_antihom_single_letters(example_w, w_table):
    for b in example_w.l_coalg.basis:
        out, _ = extend_antihom({}, w_table, (b,))
        assert out == w_table.entries[b]


def test_extend_antihom_signs_cancel(example_w, w_table):
    z = tri(2, 1)
    out, truncated = extend_antihom({}, w_table, (z, z))
    assert out == {(z, z): ONE} and not truncated


def test_extend_antihom_is_anti_homomorphism(example_w, w_table):
    from hopfreal.free_tensor import concat_product

    words = monomials_upto(example_w.l_coalg, 2)
    for w1 in words[:8]:
        for w2 in words[:8]:
            lhs, _ = extend_antihom({}, w_table, w1 + w2)
            s2, _ = extend_antihom({}, w_table, w2)
            s1, _ = extend_antihom({}, w_table, w1)
            assert lhs == concat_product(s2, s1)


def test_extend_antihom_truncation_flag(example_w, w_table):
    z = tri(2, 1)
    out, truncated = extend_antihom({}, w_table, (z, z, z), cap=2)
    assert truncated and out == {}


def antihom_oracle(table, w, cap=None):
    """Reference: S^r monomial by monomial with no memo, the coefficient
    carried from the start and the flag set whenever a cap drops a word."""
    out, truncated = {}, False
    for mono, coeff in w.items():
        acc = {(): coeff}
        for letter in reversed(mono):
            acc = concat_product(acc, table.entries[letter])
            if cap is not None:
                pruned = {u: c for u, c in acc.items() if len(u) <= cap}
                truncated = truncated or len(pruned) != len(acc)
                acc = pruned
        vec_add_scaled(out, acc, ONE)
    return out, truncated


ANTIHOM_TABLES = {"example_w": example_w_spec, "three_block": three_block_spec}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ANTIHOM_TABLES)), data=st.data())
def test_extend_antihom_memo_matches_per_monomial_oracle(name, data):
    # one memo serves every element and every cap, as in one closure run,
    # and the flag is the OR over the element's monomials
    table = antipode_triangular(ANTIHOM_TABLES[name]())
    letters = sorted(table.entries)
    words = st.lists(st.sampled_from(letters), max_size=4).map(tuple)
    elements = data.draw(st.lists(st.dictionaries(words, st.sampled_from([ONE, F(-2), F(1, 3)]),
                                                  max_size=3), min_size=1, max_size=4))
    # example_w's (z, z, z) at cap 2 is test_extend_antihom_truncation_flag
    z = tri(2, 1) if name == "example_w" else letters[-1]
    elements += [{(z, z, z): ONE}, {(z, z, z): ONE, (z,): F(5)}]
    memo = {}
    for cap in (None, 3, 2, 1, 0, None, 2):
        for vec in elements:
            assert extend_antihom(memo, table, vec, cap) == antihom_oracle(table, vec, cap)


def test_closure_images_follow_the_table(example_w, w_table):
    # two tables that differ in one entry, run in one process, give
    # different closures: no S^r image outlives its closure_iterate call
    a, z = tri(1, 1), tri(2, 1)
    planted = [{(a, z): ONE, (z,): F(-1)}]
    other = AntipodeTable(dict(w_table.entries), w_table.raw_entries)
    other.entries[a] = {(tri(2, 2),): ONE}
    first = closure_iterate(example_w, w_table, planted, 4, 3)
    changed = closure_iterate(example_w, other, planted, 4, 3)
    again = closure_iterate(example_w, w_table, planted, 4, 3)
    assert first.final_basis == again.final_basis != changed.final_basis
    for table, closure in ((w_table, first), (other, changed)):
        span = SpanBasis(graded_key)
        for rel in closure.final_basis:
            span.add(rel)
        assert span_contains(span, antihom_oracle(table, planted[0], 3)[0])


def test_closure_stabilizes_immediately_on_full_kernel(example_w, w_table):
    r0 = relation_kernel_upto(example_w, 3)
    assert len(r0) == 36
    closure = closure_iterate(example_w, w_table, r0, 4, 3)
    assert closure.stabilized and closure.stable_at == 0
    assert closure.r0_coideal_ok
    assert not closure.overflow
    assert all(stage.coideal_ok for stage in closure.stages)
    assert closure.quotient_dims == {0: 1, 1: 1, 2: 1, 3: 1}


def test_closure_grows_on_planted_generator(example_w, w_table):
    # span{l[1,1] l[2,1] - l[2,1]}: its S^r image l[2,1] l[1,1] - l[2,1] is a
    # genuinely new direction, so the record shows strict growth then stability
    a, z = tri(1, 1), tri(2, 1)
    planted = [{(a, z): ONE, (z,): F(-1)}]
    closure = closure_iterate(example_w, w_table, planted, 4, 3)
    assert closure.stabilized and closure.stable_at == 1
    assert [s.space_dim for s in closure.stages] == [1, 2]
    assert closure.stages[0].new_directions == 1


def test_closure_monotone_dims(example_w, w_table):
    r0 = relation_kernel_upto(example_w, 2)
    closure = closure_iterate(example_w, w_table, r0, 4, 2)
    dims = [s.space_dim for s in closure.stages]
    assert dims == sorted(dims)


def test_hopf_quotient_example_w(example_w, w_table):
    r0 = relation_kernel_upto(example_w, 3)
    closure = closure_iterate(example_w, w_table, r0, 4, 3)
    report = verify_hopf_quotient(example_w, w_table, closure, 3)
    assert report.ok, report.failures()


@pytest.mark.parametrize("closure_bound, bound", [(3, 3), (2, 3), (3, 2), (2, 2), (4, 3)])
@pytest.mark.parametrize("planted", [False, True])
def test_hopf_quotient_reads_every_bound_off_one_basis(monkeypatch, example_w, w_table,
                                                       closure_bound, bound, planted):
    # at most one Groebner basis is built (none when the closure's own covers
    # every bound), and its views give the checks of a fresh basis per bound
    a, z = tri(1, 1), tri(2, 1)
    r0 = [{(a, z): ONE, (z,): F(-1)}] if planted else relation_kernel_upto(example_w, closure_bound)
    closure = closure_iterate(example_w, w_table, r0, 4, closure_bound)
    built = []

    def counted(ctx, gens, b):
        built.append(b)
        return ideal_span(ctx, gens, b)

    monkeypatch.setattr(hopf, "ideal_span", counted)
    log = logged_checks(monkeypatch)
    verify_hopf_quotient(example_w, w_table, closure, bound)
    checks = log[:]
    top = max(int(m.group(1)) for m in (re.search(r"\[ideal bound (\d+)\]", desc)
                                        for desc, _ in checks) if m)
    assert top >= bound and built == ([] if closure_bound >= top else [top])
    monkeypatch.setattr(BoundedIdeal, "view",
                        lambda own, b: ideal_span(l_context(example_w), closure.final_basis, b))
    del log[:]
    verify_hopf_quotient(example_w, w_table, closure, bound)
    assert log == checks


def test_antipode_general_rejects_a_wrong_solution(trivial, monkeypatch):
    # the zero table solves neither system (eps(l[1,1]) = 1), so a solve
    # that returned it fails the re-verification
    monkeypatch.setattr(hopf, "solve", lambda matrix, rhs: ({}, True))
    with pytest.raises(InternalInconsistencyError, match="re-verification: left system at"):
        antipode_general(trivial, 3)


def test_hopf_quotient_needs_stabilized_closure(example_w, w_table):
    closure = closure_iterate(example_w, w_table, [], 0, 2)
    closure.stable_at = None
    with pytest.raises(PreconditionError):
        verify_hopf_quotient(example_w, w_table, closure, 2)


def test_general_solver_trivial_realization(trivial):
    table = antipode_general(trivial, 3)
    assert table is not None and table.unique
    # Y(l) = eps(l) . id
    assert table.entries[tri(1, 1)] == {(): ONE}
    assert table.entries[tri(2, 2)] == {(): ONE}
    assert table.entries[tri(2, 1)] == {}
    assert table.report.ok


def test_general_solver_recovers_triangular_table(example_w, w_table):
    table = antipode_general(example_w, 3)
    assert table is not None and table.unique and table.report.ok
    assert table_ops(example_w, table.entries) == table_ops(example_w, w_table.entries)


def test_general_solver_none_for_projection():
    assert antipode_general(projection_spec(), 3) is None


def test_general_solver_non_cotriangular_primitive():
    spec = primitive_spec()
    table = antipode_general(spec, 3)
    assert table is not None and table.unique and table.report.ok
    t_hat = BasisId.plain(1)
    negated = op_combination(spec.f_ctx, [(lift_operator_recursive(spec, t_hat), F(-1))])
    assert represent(spec, table.entries[t_hat]) == negated


def general_solve_on_operators(spec, bound):
    """Reference: the joint solve of both convolution systems on the
    operators' vectors, rows keyed ("L" | "R", b, operator key) in order of
    first appearance over the columns, then the right-hand side; (entries,
    unique), or None when the system is inconsistent."""
    alg = [w for w, _ in spanned_operator_basis(spec, bound)]
    basis_l = list(spec.l_coalg.basis)
    columns = {(b, s): {} for b in basis_l for s in range(len(alg))}
    rhs = {}
    ident = op_vector(op_identity(spec.f_ctx))
    for b in basis_l:
        for p, q, c in spec.l_coalg.delta_terms(b):
            for s, mono in enumerate(alg):
                for key, v in op_vector(represent_word(spec, (p,) + mono)).items():
                    col = columns[(q, s)]
                    col[("L", b, key)] = col.get(("L", b, key), 0) + c * v
                for key, v in op_vector(represent_word(spec, mono + (q,))).items():
                    col = columns[(p, s)]
                    col[("R", b, key)] = col.get(("R", b, key), 0) + c * v
        eps = spec.l_coalg.eps(b)
        if eps:
            for key, v in ident.items():
                rhs[("L", b, key)] = rhs[("R", b, key)] = eps * v
    row_keys = {}
    for vec in columns.values():
        for key in vec:
            row_keys.setdefault(key, len(row_keys))
    if any(key not in row_keys for key in rhs):
        return None
    m = Matrix(len(row_keys), len(columns), {(row_keys[key], col): v
                                             for col, vec in enumerate(columns.values())
                                             for key, v in vec.items()})
    solved = solve(m, {row_keys[key]: v for key, v in rhs.items()})
    if solved is None:
        return None
    sol, unique = solved
    r = len(alg)
    entries = {b: {alg[s]: sol[bi * r + s] for s in range(r) if bi * r + s in sol}
               for bi, b in enumerate(basis_l)}
    return entries, unique


@pytest.mark.parametrize("make", [trivial_spec, example_w_spec, primitive_spec,
                                  lambda: build_spec(parse_input(GENERAL_W.read_text()))],
                         ids=["trivial", "example_w", "primitive", "general_w"])
def test_general_solver_matches_joint_solve_on_operators(make):
    # below N the bounded algebra may miss the antipode (None on both sides)
    # and p . m_s may reach a standard word longer than every m_s
    spec = make()
    for bound in range(1, spec.max_degree + 1):
        table = antipode_general(spec, bound)
        oracle = general_solve_on_operators(spec, bound)
        assert (table is None) == (oracle is None), bound
        if table is not None:
            entries, unique = oracle
            assert table.entries == entries and table.unique == unique, bound
            for b in entries:
                assert list(table.entries[b].items()) == list(entries[b].items())
    assert table is not None


def test_general_solver_eliminates_once_per_call(monkeypatch):
    # the solution and its uniqueness come from one rref, of [m | rhs]: one
    # column per unknown, the coefficient of y_b on a basis monomial, and rhs;
    # one row per basis element of L and basis word of A (the left system)
    spec = build_spec(parse_input(GENERAL_W.read_text()))
    first = antipode_general(spec, spec.max_degree)
    calls = []
    rref = exactlin.rref
    monkeypatch.setattr(exactlin, "rref", lambda m: calls.append(m) or rref(m))
    again = antipode_general(spec, spec.max_degree)
    unknowns = spec.l_coalg.dim * len(hopf.operator_algebra_basis(spec, spec.max_degree))
    dim = len(image_walk(spec).basis(spec.max_degree, spec.max_degree + 1))
    assert [(m.rows, m.cols) for m in calls] == [(spec.l_coalg.dim * dim, unknowns + 1)]
    assert again.unique and first.entries == again.entries


def test_uniqueness_perturbations(example_w, w_table):
    report = verify_uniqueness_perturbations(example_w, w_table)
    assert report.ok, report.failures()


def test_relation_space_elements_are_zero_operators(example_w):
    for rel in relation_kernel_upto(example_w, 2):
        assert op_is_zero(represent(example_w, rel))


def test_projection_failure_mirrors_convolution_inverse():
    # the degree-1 obstruction is the same: the projection form has no
    # convolution inverse, and the general solver finds no antipode
    spec = projection_spec()
    form = spec.x_map[tri(1, 1)].form
    assert convolution_inverse(spec.f_ctx.f, form) is None
    assert antipode_general(spec, 3) is None


def test_closure_minimality_spot_check(example_w, w_table):
    # dropping a generator of the final stage either shrinks the bounded
    # ideal (it no longer contains the dropped relation) or leaves a space
    # that is not S^r-stable; every generator is doing work
    from hopfreal.realization import ideal_span

    r0 = relation_kernel_upto(example_w, 2)
    closure = closure_iterate(example_w, w_table, r0, 4, 2)
    assert closure.stabilized
    basis = closure.final_basis
    for drop in (0, len(basis) // 2, len(basis) - 1):
        rest = [r for k, r in enumerate(basis) if k != drop]
        ideal = ideal_span(l_context(example_w), rest, 2)
        if ideal.contains(basis[drop]):
            continue  # regenerated by cofactors: not an independent generator
        images = [extend_antihom({}, w_table, r, cap=2)[0] for r in rest]
        stable = all(ideal.contains(img) for img in images)
        assert not ideal.contains(basis[drop]) or not stable


def test_planted_closure_generators_all_forced(example_w, w_table):
    # in the planted run, removing the stage-1 generator leaves a set whose
    # S^r image escapes: the closure really was minimal
    from hopfreal.realization import ideal_span

    a, z = tri(1, 1), tri(2, 1)
    planted = [{(a, z): ONE, (z,): F(-1)}]
    closure = closure_iterate(example_w, w_table, planted, 4, 3)
    assert closure.stabilized and len(closure.final_basis) == 2
    ideal = ideal_span(l_context(example_w), planted, 3)
    image = extend_antihom({}, w_table, planted[0], cap=3)[0]
    assert not ideal.contains(image)


def test_three_block_antipode():
    spec = three_block_spec()
    table = antipode_triangular(spec)
    # Y_3^1 equals the lift of the 3-block's corner generator: the lift of the
    # zero form is the divided square of the Leibniz operator, which is
    # exactly what back-substitution produces
    corner = tri(3, 1, 2)
    assert represent(spec, table.entries[corner]) == lift_operator_recursive(spec, corner)
    assert table.entries[corner] == {(corner,): ONE}
    assert triangular_systems_ok(spec, table.entries)
    assert verify_Y_coproduct(spec, table, 2).ok


def test_three_block_letters_are_the_basis_objects():
    # the parsed labels and the antipode table reuse the coalgebra's own
    # BasisId objects: one object per letter, and word lookups short-cut on
    # identity before comparing
    spec = build_spec(parse_input(THREE_BLOCK.read_text()))
    table = antipode_triangular(spec)
    basis = {id(b) for b in spec.l_coalg.basis}
    letters = list(spec.x_map) + [l for pair in spec.diag_pairs for l in pair]
    for expressions in (table.entries, table.raw_entries):
        letters += list(expressions)
        letters += [l for expr in expressions.values() for w in expr for l in w]
    assert len(letters) > len(basis)
    assert all(id(l) in basis for l in letters)


def test_y_coproduct_lookups_are_identity_hits(monkeypatch):
    # the splitting checks read table entries through the basis's own
    # objects, so no lookup in them (or in their comprehensions) compares
    # two distinct ids; such a compare runs in C (tuple equality), and the
    # patched __eq__ below makes any one visible
    spec = build_spec(parse_input(THREE_BLOCK.read_text()))
    table = antipode_triangular(spec)
    checked = [hopf.verify_Y_coproduct.__code__, hopf._composite_split_ok.__code__]
    for code in checked:
        checked += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    eq, callers = BasisId.__eq__, []

    def counting_eq(self, other):
        callers.append(sys._getframe(1).f_code)
        return eq(self, other)

    monkeypatch.setattr(BasisId, "__eq__", counting_eq)
    assert {BasisId(0, 1, 1): ONE}[BasisId(0, 1, 1)] == ONE  # the counter sees a fresh key
    assert len(callers) == 1
    assert verify_Y_coproduct(spec, table, 3).ok
    assert len(checked) > 2 and not [c for c in callers if c in checked]


def spanned_operator_basis(spec, bound):
    """Reference: keep each monomial whose pi-image enlarges the span of the
    images kept so far (the construction the kernel columns replace)."""
    span = SpanBasis()
    basis = []
    for w in monomials_upto(spec.l_coalg, bound):
        op = represent_word(spec, w)
        if span.add(op_vector(op)):
            basis.append((w, op))
    return basis


@pytest.mark.parametrize("make", [example_w_spec, three_block_spec, primitive_spec])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_operator_algebra_basis_matches_span_of_images(make, bound):
    spec = make()
    assert operator_algebra_basis(spec, bound) == [w for w, _ in spanned_operator_basis(spec, bound)]


def triangular_system_flags(spec, ops):
    """The block/i/j loops the system generator replaced, as flags
    (b, side) -> ok over the triangular systems of the module docstring."""
    ident = op_identity(spec.f_ctx)
    zero = op_combination(spec.f_ctx, [])
    flags = {}
    for block, n in sorted(triangular_blocks(spec.l_coalg).items()):
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                want = ident if i == j else zero
                ks = range(j, i + 1)
                left = op_combination(spec.f_ctx, [
                    (op_compose(lift_operator_recursive(spec, tri(k, j, block)),
                                ops[tri(i, k, block)]), ONE)
                    for k in ks])
                right = op_combination(spec.f_ctx, [
                    (op_compose(ops[tri(k, j, block)],
                                lift_operator_recursive(spec, tri(i, k, block))), ONE)
                    for k in ks])
                flags[(tri(i, j, block), "left")] = left == want
                flags[(tri(i, j, block), "right")] = right == want
    return flags


def perturbed(entries, target, extra, coeff):
    """The entries with coeff * extra added to the expression at target."""
    out = dict(entries)
    out[target] = dict(entries[target])
    for w, c in extra.items():
        out[target][w] = out[target].get(w, 0) + coeff * c
        if not out[target][w]:
            del out[target][w]
    return out


@pytest.mark.parametrize("make", [example_w_spec, three_block_spec])
def test_system_flags_match_triangular_loops_on_planted_defects(make):
    # perturb one off-diagonal Y entry at a time by half of a letter or of
    # 1; the classes' flags must be the old loops' flags on the operators
    spec = make()
    table = antipode_triangular(spec)
    assert all(triangular_system_flags(spec, table_ops(spec, table.entries)).values())
    for target in (b for b in spec.l_coalg.basis if b.i != b.j):
        for extra in [()] + [(b,) for b in spec.l_coalg.basis]:
            entries = perturbed(table.entries, target, {extra: ONE}, F(1, 2))
            flags = {(b, side): ok for b, side, ok in _system_checks(spec, entries)}
            assert flags == triangular_system_flags(spec, table_ops(spec, entries))
            assert not all(flags.values())
            assert not triangular_systems_ok(spec, entries)


def test_a_right_system_failure_alone_at_its_b_fails_the_check():
    # three_block, Y(l[2,1]) of the 3-block plus l[2,1]: at l[3,1] the left
    # system does not involve Y(l[2,1]) and still holds, the right one
    # (through Y(l[2,1]) . l[3,2]) breaks
    spec = three_block_spec()
    z = tri(2, 1, 2)
    entries = perturbed(antipode_triangular(spec).entries, z, {(z,): ONE}, ONE)
    flags = {(b, side): ok for b, side, ok in _system_checks(spec, entries)}
    assert flags[(tri(3, 1, 2), "left")] and not flags[(tri(3, 1, 2), "right")]
    assert not triangular_systems_ok(spec, entries)


def reduce_expression_loop(spec, op, max_degree):
    """Reference: the row-keyed system build that the shared column builder
    replaced, rows in order of first appearance over the columns, then the
    target."""
    target = op_vector(op)
    for k in range(max_degree + 1):
        mons = monomials_upto(spec.l_coalg, k)
        row_keys = dict()
        columns = []
        for w in mons:
            vec = op_vector(represent_word(spec, w))
            columns.append(vec)
            for key in vec:
                if key not in row_keys:
                    row_keys[key] = len(row_keys)
        for key in target:
            if key not in row_keys:
                row_keys[key] = len(row_keys)
        entries = {}
        for col, vec in enumerate(columns):
            for key, v in vec.items():
                entries[(row_keys[key], col)] = v
        m = Matrix(len(row_keys), len(columns), entries)
        rhs = {row_keys[key]: v for key, v in target.items()}
        solved = solve(m, rhs)
        if solved is not None:
            return {mons[i]: c for i, c in solved[0].items()}
    return None


@pytest.mark.parametrize("make", [example_w_spec, three_block_spec, trivial_spec])
def test_reduce_expression_matches_old_loop(make):
    # the raw back-substitution expressions are the targets antipode_triangular
    # reduces; the loop reduces their operators
    spec = make()
    for b, raw in sorted(antipode_triangular(spec).raw_entries.items()):
        got = reduce_expression(spec, raw, spec.max_degree)
        assert got == reduce_expression_loop(spec, represent(spec, raw), spec.max_degree), b
        assert got is not None


def test_reduce_expression_none_paths(example_w, trivial):
    # on trivial every pi(w) is 0 or the identity
    ident = op_identity(trivial.f_ctx)
    for planted in ({(0, 1): ONE}, {(0, 0): F(2)}):
        op = dict(ident)
        op[1] = Matrix(op[1].rows, op[1].cols, {**op[1].entries, **planted})
        # an off-diagonal key that no pi(w) has, or only diagonal keys with an
        # inconsistent system
        assert reduce_expression_loop(trivial, op, 3) is None
    # on example_w, pi(z^k) is not a combination of images of shorter words
    z = tri(2, 1)
    for expr, bound in (({(z,): ONE}, 0), ({(z, z): ONE, (z,): F(-1)}, 1), ({(z,) * 3: F(2)}, 2)):
        assert reduce_expression(example_w, expr, bound) is None
        assert reduce_expression_loop(example_w, represent(example_w, expr), bound) is None


def test_reduce_expression_grows_the_walk_only_to_the_expression(example_w):
    # coordinates lie on standard words no longer than the word, so a bound
    # past the expression's longest word grows nothing
    z = tri(2, 1)
    assert reduce_expression(example_w, {(z, z): ONE}, 3) == {(z, z): ONE}
    assert image_walk(example_w).layers[example_w.max_degree].length == 2


def system_flags(spec, ops):
    """Reference: both antipode systems on operators, (b, side) -> ok over
    delta(b), for any L: sum c X(p) o Y(q) = eps(b) id = sum c Y(p) o X(q)."""
    ident = op_identity(spec.f_ctx)
    flags = {}
    for b in spec.l_coalg.basis:
        terms = spec.l_coalg.delta_terms(b)
        unit = [(ident, -spec.l_coalg.eps(b))]
        left = [(op_compose(lift_operator_recursive(spec, p), ops[q]), c) for p, q, c in terms]
        right = [(op_compose(ops[p], lift_operator_recursive(spec, q)), c) for p, q, c in terms]
        flags[(b, "left")] = op_is_zero(op_combination(spec.f_ctx, left + unit))
        flags[(b, "right")] = op_is_zero(op_combination(spec.f_ctx, right + unit))
    return flags


def y_coproduct_checks(spec, ops, bound):
    """Reference: the checks of verify_Y_coproduct on operators, each one
    split_witness identity on composed T(F) blocks, for any L: the parts of
    Y(b) are (Y(q), Y(p), c) over delta(b), those of Y(u v) = Y(v) o Y(u)
    the products of the parts of Y(v) and Y(u), and the composite pairs are
    the ordered pairs of letters that are not grouplike, plus the mixed
    pairs of the first of each kind."""
    ids = list(spec.l_coalg.basis)

    def parts(b):
        return [(ops[q], ops[p], c) for p, q, c in spec.l_coalg.delta_terms(b)]

    checks = []
    for b in ids:
        checks.append((f"splitting of Y at {b}",
                       split_witness(spec.f_ctx, ops[b], parts(b), bound) is None))
    glike = [spec.l_coalg.delta_terms(b) == ((b, b, 1),) and spec.l_coalg.eps(b) == 1
             for b in ids]
    off = [b for b, g in zip(ids, glike) if not g]
    diag = [b for b, g in zip(ids, glike) if g]
    pairs = [(u, v) for u in off for v in off] + [(diag[0], off[0]), (off[0], diag[0])]
    for u, v in pairs:
        composite = [(op_compose(a2, a1), op_compose(b2, b1), c1 * c2)
                     for a1, b1, c1 in parts(u) for a2, b2, c2 in parts(v)]
        ok = split_witness(spec.f_ctx, op_compose(ops[v], ops[u]), composite, bound) is None
        checks.append((f"splitting of composite Y at ({u},{v})", ok))
    return checks


def reversed_law_flags(spec, ops, bound):
    """Reference: delta Y(b) = sum c Y(q) (x) Y(p) over delta(b), by split_witness."""
    return {b: split_witness(spec.f_ctx, ops[b], [(ops[q], ops[p], c)
                                                  for p, q, c in spec.l_coalg.delta_terms(b)],
                             bound) is None
            for b in spec.l_coalg.basis}


P0, P1 = BasisId.plain(0), BasisId.plain(1)

# (spec, entry, word w, c): the entry's expression plus c * w, for c * w of
# nonzero image: half of 1, half of a letter, or minus a product a . b
PLANTED_DEFECTS = [
    (example_w_spec, tri(2, 1), (), F(1, 2)),
    (example_w_spec, tri(2, 1), (tri(2, 1),), F(1, 2)),
    (example_w_spec, tri(1, 1), (tri(2, 1),), F(1, 2)),
    (example_w_spec, tri(2, 2), (tri(2, 1), tri(2, 1)), F(-1)),
    (example_w_spec, tri(2, 1), (tri(1, 1), tri(2, 1)), F(-1)),
    (three_block_spec, tri(2, 1, 1), (), F(1, 2)),
    (three_block_spec, tri(3, 1, 2), (tri(3, 2, 2),), F(1, 2)),
    (three_block_spec, tri(3, 2, 2), (tri(2, 1, 1),), F(1, 2)),
    (three_block_spec, tri(1, 1, 0), (tri(2, 1, 1), tri(3, 2, 2)), F(-1)),
    (three_block_spec, tri(3, 1, 2), (tri(2, 1, 2), tri(3, 2, 2)), F(-1)),
    (primitive_spec, P1, (), F(1, 2)),
    (primitive_spec, P0, (P1,), F(1, 2)),
    (primitive_spec, P1, (P1, P0), F(-1)),
]


@pytest.mark.parametrize("make, target, word, coeff", PLANTED_DEFECTS,
                         ids=[f"{m.__name__}-{t}-{len(w)}" for m, t, w, _ in PLANTED_DEFECTS])
def test_planted_defects_match_operator_oracle(monkeypatch, make, target, word, coeff):
    # the class-based system flags, Y-coproduct checks and reversed-law flags
    # of a perturbed table equal the flags of the composed T(F) blocks; the
    # splitting checks at every bound 0 .. N, since below N the rectangles
    # W_t (x) W_{B-t} of _splits cover a smaller triangle than the window
    spec = make()
    assert not op_is_zero(represent(spec, {word: coeff}))
    triangular = triangular_blocks(spec.l_coalg) is not None
    table = antipode_triangular(spec) if triangular else antipode_general(spec, spec.max_degree)
    entries = perturbed(table.entries, target, {word: ONE}, coeff)
    ops = table_ops(spec, entries)
    flags = {(b, side): ok for b, side, ok in _system_checks(spec, entries)}
    assert flags == system_flags(spec, ops)
    assert not all(flags.values())
    if triangular:
        assert flags == triangular_system_flags(spec, ops)
    log = logged_checks(monkeypatch)
    for bound in range(spec.max_degree + 1):
        reversed_law = {b: _splits(spec, entries[b], [(entries[q], entries[p], c)
                                                      for p, q, c in spec.l_coalg.delta_terms(b)],
                                   bound)
                        for b in spec.l_coalg.basis}
        assert reversed_law == reversed_law_flags(spec, ops, bound), bound
        del log[:]
        verify_Y_coproduct(spec, AntipodeTable(entries, entries), bound)
        assert log == y_coproduct_checks(spec, ops, bound), bound


def test_antipode_entry_points_refuse_non_coassociative_l():
    # delta(b) = a (x) b + b (x) b is not coassociative (the b (x) a (x) b
    # term); no .hra file can write such an L, the API can
    l_coalg = make_coalgebra([P0, P1], {P0: [(P0, P0, 1)], P1: [(P0, P1, 1), (P1, P1, 1)]},
                             {P0: 1})
    assert not verify_coalgebra(l_coalg).ok
    spec = make_spec(l_coalg, context_from_algebra(dual_numbers(), 3),
                     {P0: RIOp.identity(), P1: RIOp.from_eval(P1)})
    # verify-lift decides splitting from the coalgebra axioms, and names the
    # element where coassociativity fails
    assert verify_lift(spec, P1).failures() == [
        f"splitting rule on word pairs (coassociativity fails on {P1})"]
    with pytest.raises(InternalInconsistencyError, match="coassociativity on"):
        antipode_general(spec, 2)
    with pytest.raises(InternalInconsistencyError, match="coassociativity on"):
        antipode_triangular(spec)
