import itertools
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from conftest import mat_vec
from test_exactlin import MIXED, assert_clean, fraction_combination, mixed_matrices

from hopfreal.coalgebra import (
    BasisId,
    Coalgebra,
    dual_coalgebra,
    dual_numbers,
    direct_sum,
    make_coalgebra,
    triangular_coalgebra,
    upper_triangular_algebra,
    verify_coalgebra,
)
from hopfreal.exactlin import Matrix, kron_combination, mat_mul, vec_add_scaled, vec_clean
from hopfreal.free_tensor import TensorContext, coproduct, word_coproduct
from hopfreal.inputdoc import build_spec, parse_input
from hopfreal.invariant import (
    _coproduct_blocks,
    RIOp,
    op_from_form,
    verify_right_invariance,
)
from hopfreal.lifting import lift_operator
from oracles import (
    InvarianceError,
    convolution,
    convolution_inverse,
    delta_vect,
    form_of_op,
    op_combination,
    op_is_zero,
    right_invariance_on_f,
    transpose_left_mult,
)

ONE = F(1)


def tri(i, j):
    return BasisId.tri(i, j)


def eval_form(b):
    return {b: ONE}


def test_counit_form_gives_identity():
    f = triangular_coalgebra(2)
    m = op_from_form(f, RIOp.from_form(vec_clean(f.epsilon)))
    assert m == Matrix.identity(3)


def test_identity_riop():
    f = dual_coalgebra(dual_numbers())
    assert op_from_form(f, RIOp.identity()) == Matrix.identity(2)


def test_op_from_form_dual_numbers():
    # t-evaluation: f_t -> f_1, f_1 -> 0
    f = dual_coalgebra(dual_numbers())
    m = op_from_form(f, RIOp.from_eval(BasisId.plain(1)))
    assert m.entries == {(0, 1): ONE}


def test_op_from_form_l2():
    # evaluation at l[2,1]: l[2,1] -> l[2,2], others -> 0
    f = triangular_coalgebra(2)
    m = op_from_form(f, RIOp.from_eval(tri(2, 1)))
    basis = list(f.basis)  # sorted: l[1,1], l[2,1], l[2,2]
    assert basis == [tri(1, 1), tri(2, 1), tri(2, 2)]
    assert m.entries == {(2, 1): ONE}


def test_form_of_op_round_trip():
    f = triangular_coalgebra(2)
    for b in f.basis:
        m = op_from_form(f, RIOp.from_eval(b))
        assert form_of_op(f, m) == eval_form(b)
    assert form_of_op(f, Matrix.identity(3)) == vec_clean(f.epsilon)


def test_form_of_op_rejects_non_invariant():
    f = triangular_coalgebra(2)
    # l[1,1] -> l[2,1] is not right-invariant
    bad = Matrix(3, 3, {(1, 0): ONE})
    with pytest.raises(InvarianceError) as err:
        form_of_op(f, bad)
    assert err.value.witness in f.basis


def test_op_from_form_outputs_are_invariant():
    f = triangular_coalgebra(3)
    for b in f.basis:
        ok, witness = right_invariance_on_f(f, op_from_form(f, RIOp.from_eval(b)))
        assert ok and witness is None


def test_convolution_unit():
    f = triangular_coalgebra(2)
    eps = vec_clean(f.epsilon)
    a = {tri(2, 1): F(3), tri(1, 1): F(-1, 2)}
    assert convolution(f, eps, a) == a
    assert convolution(f, a, eps) == a


def test_convolution_nilpotent_dual_numbers():
    f = dual_coalgebra(dual_numbers())
    n = eval_form(BasisId.plain(1))
    assert convolution(f, n, n) == {}


def test_convolution_l2_examples():
    f = triangular_coalgebra(2)
    z = eval_form(tri(2, 1))
    a = eval_form(tri(1, 1))
    assert convolution(f, z, z) == {}
    assert convolution(f, a, z) == z


def test_anti_isomorphism_on_m3_dual():
    # op_from_form(a) o op_from_form(b) == op_from_form(b * a), all 36 pairs
    f = dual_coalgebra(upper_triangular_algebra(3))
    ops = {b: op_from_form(f, RIOp.from_eval(b)) for b in f.basis}
    for a, b in itertools.product(f.basis, repeat=2):
        composed = mat_mul(ops[a], ops[b])
        conv = convolution(f, eval_form(b), eval_form(a))
        assert composed == op_from_form(f, RIOp.from_form(conv))


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def forms_on(c: Coalgebra):
    return st.lists(small_fracs, min_size=c.dim, max_size=c.dim).map(
        lambda cs: {b: v for b, v in zip(c.basis, cs) if v}
    )


L3 = triangular_coalgebra(3)


@given(forms_on(L3), forms_on(L3))
@settings(max_examples=40, deadline=None)
def test_anti_isomorphism_random_forms(a, b):
    composed = mat_mul(op_from_form(L3, RIOp.from_form(a)), op_from_form(L3, RIOp.from_form(b)))
    assert composed == op_from_form(L3, RIOp.from_form(convolution(L3, b, a)))


@given(forms_on(L3), forms_on(L3), forms_on(L3))
@settings(max_examples=40, deadline=None)
def test_convolution_associative(a, b, c):
    left = convolution(L3, convolution(L3, a, b), c)
    right = convolution(L3, a, convolution(L3, b, c))
    assert left == right


def test_convolution_inverse_of_unit():
    f = triangular_coalgebra(2)
    eps = vec_clean(f.epsilon)
    assert convolution_inverse(f, eps) == eps


def test_convolution_inverse_unipotent():
    f = dual_coalgebra(dual_numbers())
    eps = vec_clean(f.epsilon)
    n = eval_form(BasisId.plain(1))
    a = dict(eps)
    a[BasisId.plain(1)] = ONE
    inv = convolution_inverse(f, a)
    assert inv == {BasisId.plain(0): ONE, BasisId.plain(1): F(-1)}
    assert convolution(f, a, inv) == eps
    assert convolution(f, inv, a) == eps


def test_convolution_inverse_nilpotent_has_none():
    f = dual_coalgebra(dual_numbers())
    assert convolution_inverse(f, eval_form(BasisId.plain(1))) is None


def test_convolution_inverse_subalgebra_pattern():
    # u + (eps - eps_B) with u = 2*e1 invertible in B = span{e1}: inverse is
    # u^{-1} + (eps - eps_B) = (1/2) e1 + e2
    f = direct_sum([triangular_coalgebra(1), triangular_coalgebra(1)])
    g1, g2 = f.basis
    a = {g1: F(2), g2: ONE}
    assert convolution_inverse(f, a) == {g1: F(1, 2), g2: ONE}


def test_transpose_left_mult_unit_is_identity():
    e = upper_triangular_algebra(2)
    assert transpose_left_mult(e, dict(e.unit)) == Matrix.identity(3)


def test_transpose_left_mult_dual_numbers():
    e = dual_numbers()
    m = transpose_left_mult(e, {1: ONE})  # elem = t
    assert m.entries == {(0, 1): ONE}


def test_transpose_left_mult_matches_form_operator():
    # elem = e[1,2] in M_2+: same matrix as the l[2,1]-evaluation operator
    e = upper_triangular_algebra(2)
    m = transpose_left_mult(e, {1: ONE})
    f = dual_coalgebra(e)
    assert m == op_from_form(f, RIOp.from_eval(BasisId.plain(1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transpose_left_mult_all_basis_elements(n):
    e = upper_triangular_algebra(n)
    f = dual_coalgebra(e)
    for i in range(e.dim):
        m = transpose_left_mult(e, {i: ONE})
        assert m == op_from_form(f, RIOp.from_eval(BasisId.plain(i)))
        assert right_invariance_on_f(f, m)[0]


def test_verify_right_invariance_false_with_witness():
    f = triangular_coalgebra(2)
    bad = Matrix(3, 3, {(1, 0): ONE})
    ok, witness = right_invariance_on_f(f, bad)
    assert not ok and witness is not None


# --- operator sums ---------------------------------------------------------------

CTX = TensorContext(triangular_coalgebra(2), 2)  # blocks of size 1, 3 and 9


def fraction_op_combination(ctx, terms):
    """The Fraction loop op_combination replaced, block by block."""
    sizes = {n: len(ctx.word_basis(n)) for n in range(ctx.max_degree + 1)}
    return {n: fraction_combination(k, k, [(op[n], c) for op, c in terms])
            for n, k in sizes.items()}


def linops(ctx):
    sizes = [len(ctx.word_basis(n)) for n in range(ctx.max_degree + 1)]
    return st.tuples(*(mixed_matrices(k, k) for k in sizes)).map(
        lambda blocks: dict(enumerate(blocks)))


@st.composite
def op_terms(draw):
    """Terms with mixed denominators and zero coefficients; a negated copy of
    an earlier term cancels it block by block."""
    terms = draw(st.lists(st.tuples(linops(CTX), MIXED | st.just(F(0))), max_size=4))
    if terms and draw(st.booleans()):
        op, coeff = draw(st.sampled_from(terms))
        terms.insert(draw(st.integers(0, len(terms))), (op, -coeff))
    return terms


@given(op_terms())
@settings(max_examples=60, deadline=None)
def test_op_combination_matches_fraction_loop(terms):
    total = op_combination(CTX, iter(terms))
    assert total == fraction_op_combination(CTX, terms)
    for m in total.values():
        assert_clean(m)
    assert op_is_zero(op_combination(CTX, []))


# --- right-invariance as one block identity per degree ---------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SHIPPED = ["example_w", "general_w", "projection", "three_block", "trivial"]


def word_apply(ctx, op, t):
    """op applied to a tensor element, one block column per word."""
    out = {}
    for w, coeff in t.items():
        col = ctx.word_index(len(w))[w]
        words = ctx.word_basis(len(w))
        vec_add_scaled(out, {words[r]: v for (r, c), v in op[len(w)].entries.items()
                             if c == col}, coeff)
    return out


def per_word_invariance(ctx, x):
    """The per-word loop the block identity replaced: delta(X w) against
    (X (x) id) delta(w) on every word, in (degree, index) order."""
    for n in range(ctx.max_degree + 1):
        for w in ctx.word_basis(n):
            lhs = coproduct(ctx, word_apply(ctx, x, {w: ONE}))
            rhs = {}
            for (w1, w2), coeff in word_coproduct(ctx, w).items():
                image = word_apply(ctx, x, {w1: ONE})
                vec_add_scaled(rhs, {(u, w2): v for u, v in image.items()}, coeff)
            if lhs != rhs:
                return False, w
    return True, None


def per_basis_invariance(f, m):
    """The degree-1 loop the block identity replaced, over the basis of F."""
    basis = list(f.basis)
    index = {b: k for k, b in enumerate(basis)}
    for b in basis:
        image = mat_vec(m, {index[b]: ONE})
        lhs = delta_vect(f, {basis[r]: coeff for r, coeff in image.items()})
        rhs = {}
        for (p, q, c) in f.delta_terms(b):
            column = mat_vec(m, {index[p]: ONE})
            vec_add_scaled(rhs, {(basis[r], q): v for r, v in column.items()}, c)
        if lhs != rhs:
            return False, b
    return True, None


def planted(m, r, c, delta):
    """m with delta added at (r, c): a single-entry perturbation."""
    entries = dict(m.entries)
    entries[(r, c)] = entries.get((r, c), F(0)) + delta
    return Matrix(m.rows, m.cols, entries)


def fixture_spec(name):
    return build_spec(parse_input((FIXTURES / f"{name}.hra").read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", SHIPPED)
def test_block_identity_matches_per_word_loop_on_planted_defects(name):
    # single-entry perturbations of every lifted X(b) at every degree, degree
    # 0 included, on positions inside and outside the support: (ok, witness)
    # must equal the per-word loop's, and both outcomes must occur
    spec = fixture_spec(name)
    ctx = spec.f_ctx
    rng = random.Random(name)
    outcomes = set()
    for b in spec.l_coalg.basis:
        x = lift_operator(spec, b)
        assert verify_right_invariance(ctx, x) == per_word_invariance(ctx, x) == (True, None)
        for n, m in x.items():
            # zero the first stored entry (add 1 in an empty block), then add
            # 1/2 and -3 at two random positions
            positions = sorted(m.entries)[:1] + [
                (rng.randrange(m.rows), rng.randrange(m.cols)) for _ in range(2)]
            first = -m.get(*positions[0]) or ONE
            for (r, c), delta in zip(positions, (first, F(1, 2), F(-3))):
                bad = {**x, n: planted(m, r, c, delta)}
                got = verify_right_invariance(ctx, bad)
                assert got == per_word_invariance(ctx, bad), (b, n, r, c)
                outcomes.add(got[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", SHIPPED)
def test_degree_one_check_matches_per_basis_loop_on_planted_defects(name):
    spec = fixture_spec(name)
    f = spec.f_ctx.f
    outcomes = set()
    for b in spec.l_coalg.basis:
        m = spec.x_matrix(b)
        assert right_invariance_on_f(f, m) == per_basis_invariance(f, m) == (True, None)
        for r, c in itertools.product(range(f.dim), repeat=2):
            bad = planted(m, r, c, F(2, 3))
            got = right_invariance_on_f(f, bad)
            assert got == per_basis_invariance(f, bad), (b, r, c)
            outcomes.add(got[0])
    assert False in outcomes


def per_word_coproduct_block(ctx, n):
    """D_n built word by word from word_coproduct, the construction the
    D_{n-1}, D_1 recursion replaced."""
    words = ctx.word_basis(n)
    index = ctx.word_index(n)
    s = len(words)
    return Matrix(s * s, s, {(index[u] * s + index[v], col): c for col, w in enumerate(words)
                             for (u, v), c in word_coproduct(ctx, w).items()})


def scaled_coalgebra():
    """Non-unit, non-cocommutative coefficients: g = 2 e11 and y = e21 of
    the upper-triangular 2x2 dual, beside the divided powers 1, x/2, x^2/3
    of k[x]/(x^3) with h = e22 as their unit:
    delta(y) = h (x) y + 1/2 y (x) g and delta(x^2/3) has 8/3 (x/2) (x) (x/2)."""
    g, h, y, half, third = (BasisId.plain(i) for i in range(5))
    return make_coalgebra([g, h, y, half, third], {
        g: [(g, g, F(1, 2))],
        h: [(h, h, ONE)],
        y: [(h, y, ONE), (y, g, F(1, 2))],
        half: [(h, half, ONE), (half, h, ONE)],
        third: [(h, third, ONE), (half, half, F(8, 3)), (third, h, ONE)],
    }, {g: F(2), h: ONE})


@pytest.mark.parametrize("name", SHIPPED + ["scaled"])
def test_coproduct_blocks_match_per_word_construction(name):
    # every coefficient of the M2 dual is 1, so the scaled coalgebra is
    # what shows a dropped or misplaced coefficient
    if name == "scaled":
        ctx = TensorContext(scaled_coalgebra(), 3)
        assert verify_coalgebra(ctx.f).ok
    else:
        f_ctx = fixture_spec(name).f_ctx
        ctx = TensorContext(f_ctx.f, f_ctx.max_degree)
    for n in range(ctx.max_degree + 1):
        den, nums = _coproduct_blocks(ctx, n)
        assert all(type(v) is int and v for v in nums.values())
        s = len(ctx.word_basis(n))
        d = Matrix(s * s, s, {key: F(v, den) for key, v in nums.items()})
        assert d == per_word_coproduct_block(ctx, n), n


def tensor_powers(ctx, x):
    """x^(x)n in every degree n: the lift of a grouplike that acts by x,
    right-invariant on T(F) whenever x is on F."""
    return {n: kron_combination(ctx.f.dim ** n, ctx.f.dim ** n, [([x] * n, ONE)])
            if n else Matrix.identity(1) for n in range(ctx.max_degree + 1)}


SCALED_FORMS = [
    RIOp(F(1, 3), {BasisId.plain(0): F(2, 5), BasisId.plain(2): F(-3, 2)}),
    RIOp(F(0), {BasisId.plain(3): F(5, 7), BasisId.plain(4): F(2)}),
    RIOp(F(-4, 9), {BasisId.plain(1): F(1, 2), BasisId.plain(3): F(3)}),
]


def test_block_identity_carries_non_unit_coproduct_coefficients():
    # the scaled coalgebra's D_n has entries 1/2, 8/3 and their products, so
    # a check that dropped den(D_n) or misplaced a coefficient would disagree
    # with the per-word loop; defects carry denominators 2, 3 and 7
    ctx = TensorContext(scaled_coalgebra(), 3)
    rng = random.Random("scaled")
    outcomes = []
    for form in SCALED_FORMS:
        x = tensor_powers(ctx, op_from_form(ctx.f, form))
        assert verify_right_invariance(ctx, x) == per_word_invariance(ctx, x) == (True, None)
        for n, m in x.items():
            for delta in (F(1, 2), F(-2, 3), F(5, 7)):
                positions = sorted(m.entries)[:1] + [
                    (rng.randrange(m.rows), rng.randrange(m.cols)) for _ in range(2)]
                for r, c in positions:
                    bad = {**x, n: planted(m, r, c, delta)}
                    got = verify_right_invariance(ctx, bad)
                    assert got == per_word_invariance(ctx, bad), (form, n, r, c, delta)
                    outcomes.append(got[0])
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 60


def test_passing_right_invariance_builds_no_fraction():
    # a check that holds runs on integer numerators only: the one fractions
    # method it may call is as_integer_ratio (an int entry is its own
    # numerator), so it builds no Fraction, and it multiplies no matrices
    spec = fixture_spec("three_block")
    ops = [lift_operator(spec, b) for b in spec.l_coalg.basis]
    assert verify_right_invariance(spec.f_ctx, ops[0]) == (True, None)  # D_n memoized
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((Path(frame.f_code.co_filename).name, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        results = [verify_right_invariance(spec.f_ctx, x) for x in ops]
    finally:
        sys.setprofile(None)
    assert results == [(True, None)] * len(ops)
    assert {name for file, name in calls if file == "fractions.py"} <= {"as_integer_ratio"}
    assert "mat_mul" not in {name for _, name in calls}
