from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import (
    apply_to_word,
    example_w_spec,
    primitive_spec,
    projection_spec,
    three_block_spec,
    tri,
    trivial_spec,
)
from hopfreal import realization
from hopfreal.coalgebra import BasisId
from hopfreal.errors import InputError, InvalidAlgebraError
from hopfreal.exactlin import Matrix, SpanBasis, kernel_basis, vec_add_scaled
from hopfreal.free_tensor import TensorContext, coproduct, counit, graded_key
from hopfreal.inputdoc import build_spec, parse_input
from hopfreal.invariant import RIOp
from hopfreal.lifting import make_spec
from hopfreal.pipeline import STAGE_ORDER, _run
from hopfreal.realization import (
    computed_relation_ideal,
    l_context,
    ideal_span,
    kernel_persistence,
    monomials,
    monomials_upto,
    pair_reduce,
    relation_kernel,
    relation_kernel_upto,
    verify_coideal,
)
from oracles import (
    counit_check,
    ideal_basis,
    ideal_pivots,
    matrix_is_zero,
    op_is_zero,
    op_identity,
    op_vector,
    represent,
    represent_word,
    span_contains,
    verify_splitting,
    window_kernel,
    with_truncation,
)
from test_cli import WORKLOADS
from test_free_tensor import NO_ANTIPODE

ONE = F(1)


def f(i):
    return BasisId.plain(i)


def span_of(elems):
    sb = SpanBasis(graded_key)
    for e in elems:
        sb.add(e)
    return sb


def test_represent_empty_word_is_identity(example_w):
    assert represent_word(example_w, ()) == op_identity(example_w.f_ctx)


def test_represent_diagonal_difference_vanishes(example_w):
    op = represent(example_w, {(tri(1, 1),): ONE, (tri(2, 2),): F(-1)})
    assert op_is_zero(op)


def test_represent_square_of_off_diagonal(example_w):
    # pi(l[2,1} (x) l[2,1]) sends f[1] (x) f[1] to 2 f[2] (x) f[2]
    op = represent_word(example_w, (tri(2, 1), tri(2, 1)))
    assert not op_is_zero(op)
    out = apply_to_word(example_w.f_ctx, op, (f(1), f(1)))
    assert out == {(f(2), f(2)): F(2)}


def test_verify_splitting(example_w):
    assert verify_splitting(example_w, (), 3)
    assert verify_splitting(example_w, (tri(2, 1),), 3)
    assert verify_splitting(example_w, (tri(2, 1), tri(2, 1)), 3)


def test_relation_kernel_trivial_degree_one(trivial):
    space = relation_kernel(trivial, 1)
    assert len(space) == 2
    expected = span_of([
        {(tri(2, 1),): ONE},
        {(tri(1, 1),): ONE, (tri(2, 2),): F(-1)},
    ])
    got = span_of(space)
    assert got.basis() == expected.basis()


def test_relation_kernel_example_w_degree_one(example_w):
    space = relation_kernel(example_w, 1)
    assert len(space) == 1
    assert span_of(space).basis() == span_of(
        [{(tri(1, 1),): ONE, (tri(2, 2),): F(-1)}]).basis()


def test_relation_kernel_example_w_degree_two_contains_products(example_w):
    space = relation_kernel(example_w, 2)
    got = span_of(space)
    z = tri(2, 1)
    d = {(tri(1, 1),): ONE, (tri(2, 2),): F(-1)}
    left = {(z,) + w: c for w, c in d.items()}
    right = {w + (z,): c for w, c in d.items()}
    assert span_contains(got, left)
    assert span_contains(got, right)


def test_relation_kernel_stable_under_truncation_growth(example_w, trivial):
    for spec in (trivial, example_w):
        for d in (1, 2):
            kern, wider, flagged = kernel_persistence(spec, d)
            assert flagged == 0
            assert wider == len(kern)
            assert span_of(kern).basis() == span_of(
                window_kernel(spec, d, spec.max_degree + 1)).basis()


def test_relation_kernel_flags_truncation_sensitive_candidates():
    # at N=1 the square of the off-diagonal operator is invisible, so the
    # degree-2 kernel is too big and the persistence check flags the excess
    spec = example_w_spec(truncation=1)
    kern, wider, flagged = kernel_persistence(spec, 2)
    assert flagged > 0
    assert wider < len(kern)


def test_relation_kernel_upto_contains_unit_relations(example_w):
    space = relation_kernel_upto(example_w, 2)
    got = span_of(space)
    # X(l[1,1]) = id:  l[1,1] - 1 is a relation
    assert span_contains(got, {(tri(1, 1),): ONE, (): F(-1)})
    # diagonal inverse words: l[1,1] l[1,1] - 1
    assert span_contains(got, {(tri(1, 1), tri(1, 1)): ONE, (): F(-1)})


def test_verify_coideal_passes_on_computed_kernels(example_w, trivial):
    for spec in (trivial, example_w):
        for d in (1, 2):
            report = verify_coideal(spec, relation_kernel(spec, d), 2)
            assert report.ok, report.failures()


def test_verify_coideal_fails_on_planted_subspace(trivial):
    planted = [{(tri(1, 1),): ONE}]
    report = verify_coideal(trivial, planted, 2)
    assert not report.ok


def test_ideal_stability_of_kernel_elements(example_w):
    # pi(r) = 0 implies pi(a . r . b) = 0 for monomial cofactors
    space = relation_kernel(example_w, 1)
    rel = space[0]
    for a in ((), (tri(2, 1),), (tri(2, 2),)):
        for b in ((), (tri(2, 1),)):
            if len(a) + 1 + len(b) > example_w.max_degree:
                continue
            padded = {a + w + b: c for w, c in rel.items()}
            assert op_is_zero(represent(example_w, padded))


def test_counit_check_values(example_w):
    assert counit_check(example_w, ()) == 1
    assert counit_check(example_w, (tri(2, 1),)) == 0
    assert counit_check(example_w, (tri(1, 1), tri(1, 1))) == 1


def test_counit_check_is_multiplicative(example_w):
    words = [(), (tri(1, 1),), (tri(2, 1),), (tri(2, 2), tri(1, 1))]
    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) > example_w.max_degree:
                continue
            assert counit_check(example_w, w1 + w2) == \
                counit_check(example_w, w1) * counit_check(example_w, w2)


def test_counit_check_matches_eps_extension(example_w):
    for w in [(), (tri(1, 1),), (tri(2, 1),), (tri(2, 2), tri(2, 2))]:
        assert counit_check(example_w, w) == counit(l_context(example_w), {w: ONE})


def test_ideal_span_respects_bound(trivial):
    gens = relation_kernel(trivial, 1)
    span = ideal_span(l_context(trivial), gens, 2)
    for row in ideal_basis(span):
        assert max(len(w) for w in row) <= 2
    # the span contains padded copies of the generators
    z = {(tri(2, 1),): ONE}
    assert span.contains({(tri(1, 1), tri(2, 1)): ONE})
    assert span.contains(z)


def enumerated_ideal_span(l_coalg, gens, bound):
    """Reference: a . g . b for every cofactor pair with deg a + top g +
    deg b <= bound, added one by one: the oracle for the normal forms."""
    span = SpanBasis(graded_key)
    for g in gens:
        if not g:
            continue
        room = bound - max(len(w) for w in g)
        if room < 0:
            continue
        for da in range(room + 1):
            for a in monomials(l_coalg, da):
                for db in range(room - da + 1):
                    for b in monomials(l_coalg, db):
                        span.add({a + w + b: c for w, c in g.items()})
    return span


def assert_same_ideal_span(l_coalg, gens, bound):
    got = ideal_span(TensorContext(l_coalg, 1), gens, bound)
    want = enumerated_ideal_span(l_coalg, gens, bound)
    assert ideal_pivots(got) == want.pivots()
    assert ideal_basis(got) == want.basis()


LETTERS = example_w_spec().l_coalg.basis
COEFFS = st.builds(F, st.integers(-3, 3).filter(bool), st.sampled_from([1, 1, 2, 3]))
WORDS = st.lists(st.sampled_from(LETTERS), max_size=5).map(tuple)
GENERATORS = st.lists(st.dictionaries(WORDS, COEFFS, max_size=3), max_size=4)


@settings(max_examples=60, deadline=None)
@given(gens=GENERATORS, bound=st.integers(0, 4), which=st.sampled_from([example_w_spec, trivial_spec]))
def test_ideal_span_sweep_matches_enumeration(gens, bound, which):
    assert_same_ideal_span(which(truncation=2).l_coalg, gens, bound)


def assert_same_normal_forms(l_coalg, gens, bound):
    """The Groebner normal forms against the enumerated span: dim, pivots,
    quotient counts, contains on the generators, and reduce on every word
    up to one letter past the bound."""
    got = ideal_span(TensorContext(l_coalg, 1), gens, bound)
    want = enumerated_ideal_span(l_coalg, gens, bound)
    assert got.dim == want.dim
    pivots = want.pivots()
    assert ideal_pivots(got) == pivots
    for k in range(bound + 1):
        assert len(got.standard_words(k)) == len(l_coalg.basis) ** k - sum(len(p) == k for p in pivots)
    for g in gens:
        assert got.contains(g) == span_contains(want, g)
    for k in range(bound + 2):
        for w in monomials(l_coalg, k):
            assert got.reduce({w: F(3)}) == want.reduce({w: F(3)})


@settings(max_examples=60, deadline=None)
@given(gens=GENERATORS, bound=st.integers(0, 4), which=st.sampled_from([example_w_spec, trivial_spec]))
def test_ideal_span_normal_forms_match_enumeration(gens, bound, which):
    assert_same_normal_forms(which(truncation=2).l_coalg, gens, bound)


Z, D1, D2 = tri(2, 1), tri(1, 1), tri(2, 2)


SHAPED = pytest.mark.parametrize("gens, bound", [
    # zz - d1 and zz - d2 give d2 - d1 of sugar 2 above its top degree 1: it
    # may act on the word d2 but not on z.d2 inside degree 2
    ([{(Z, Z): ONE, (D1,): F(-1)}, {(Z, Z): ONE, (D2,): F(-1)}], 2),
    # the self-overlap d2.d2.d2 of d2.d2 - d1 gives d2.d1 - d1.d2
    ([{(D2, D2): ONE, (D1,): F(-1)}], 3),
    # the overlap d1.d2.d2 gives d2 of sugar 3; its inclusion in d1.d2 - 1
    # gives the constant 1 at sugar 4, so S_4 is everything
    ([{(D1, D2): ONE, (): F(-1)}, {(D2, D2): F(-1)}], 4),
], ids=["sugar-rule", "overlap", "inclusion"])


@SHAPED
def test_ideal_span_groebner_shaped_cases(example_w, gens, bound):
    for b in range(bound + 1):
        assert_same_normal_forms(example_w.l_coalg, gens, b)


def legwise_pair_reduce(ideal, ctx, vec):
    """Reference: (NF (x) NF) applied to the whole coproduct of vec, the
    composition ``pair_reduce(ideal, coproduct(ctx, vec))`` that the word
    residues replaced."""
    out = {}
    for (w1, w2), coeff in coproduct(ctx, vec).items():
        left, right = ideal.normal_form(w1), ideal.normal_form(w2)
        for u1, c1 in left.items():
            vec_add_scaled(out, {(u1, u2): c2 for u2, c2 in right.items()}, coeff * c1)
    return out


def assert_residues_match(ideal, ctx, elements):
    for vec in elements:
        assert pair_reduce(ideal, vec) == legwise_pair_reduce(ideal, ctx, vec)


@SHAPED
def test_pair_reduce_matches_legwise_at_every_view(example_w, gens, bound):
    # residues are filled at the top bound first; a memo shared with the
    # views would then serve them at every lower bound, where the normal
    # forms differ
    ctx = l_context(example_w)
    full = ideal_span(ctx, gens, bound)
    elements = gens + [{w: F(2)} for w in monomials_upto(example_w.l_coalg, bound + 1)]
    for b in range(bound, -1, -1):
        view = full.view(b)
        assert_residues_match(view, ctx, elements)
        own = ideal_span(ctx, gens, b)
        assert [pair_reduce(own, v) for v in elements] == [pair_reduce(view, v) for v in elements]
    assert_residues_match(full, ctx, elements)


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.hra")))
def test_ideal_span_matches_enumeration_on_fixture_closures(name):
    # every ideal the report builds from a fixture: the relation kernels, the
    # starting relations and the final closure basis, at bounds up to d + 1
    # (three_block up to 3; its bound-4 memberships are in the golden report)
    try:
        doc = parse_input((FIXTURE_DIR / f"{name}.hra").read_text(encoding="utf-8"))
        report, pipe = _run(doc, ("relations", "antipode", "closure"))
    except (InputError, InvalidAlgebraError):
        assert name.startswith("bad_")
        return
    if not report.ok:
        assert name in NO_ANTIPODE, report.render()
        return
    spec, d = pipe.spec, doc.max_degree
    kernels = [r for k in range(1, d + 1) for r in relation_kernel(spec, k)]
    generator_sets = (kernels, pipe.r0(), pipe.closure().final_basis)
    for bound in range((3 if name == "three_block" else d + 1) + 1):
        for gens in generator_sets:
            assert_same_normal_forms(spec.l_coalg, gens, bound)


@pytest.mark.parametrize("bound", range(5))
def test_ideal_span_sweep_matches_enumeration_on_shaped_generators(example_w, trivial, bound):
    z, d1, d2 = tri(2, 1), tri(1, 1), tri(2, 2)
    homogeneous = [{(z,): ONE}, {(d1, z): ONE, (z, d2): F(-1)}]
    mixed = [{(d1,): ONE, (): F(-1)}, {(z, z): F(1, 2), (d2,): F(3)}]
    empty = [{}, {(z,): ONE}, {}]
    above = [{(z,) * 5: ONE}, {(d1,) * 3: ONE, (d2,): F(-1)}]
    kernels = relation_kernel(trivial, 1) + relation_kernel(example_w, 2)
    for spec in (example_w, trivial):
        for gens in (homogeneous, mixed, empty, above, kernels, []):
            assert_same_ideal_span(spec.l_coalg, gens, bound)


def test_relation_kernel_is_memoized(example_w):
    assert relation_kernel(example_w, 2) is relation_kernel(example_w, 2)
    assert relation_kernel(example_w, 1) is not relation_kernel(example_w, 2)


def test_relation_kernel_upto_is_memoized(example_w):
    assert relation_kernel_upto(example_w, 2) is relation_kernel_upto(example_w, 2)
    assert relation_kernel_upto(example_w, 2) is not relation_kernel_upto(example_w, 3)
    assert relation_kernel_upto(example_w, 1) is not relation_kernel(example_w, 1)


def operator_column_kernel(spec, mons):
    """Reference: the kernel of the matrix whose column w is pi(w) flattened
    over every block of the window (the construction the recursion replaces)."""
    columns = [op_vector(represent_word(spec, w)) for w in mons]
    rows = {}
    entries = {}
    for col, vec in enumerate(columns):
        for key, v in vec.items():
            entries[(rows.setdefault(key, len(rows)), col)] = v
    vectors = kernel_basis(Matrix(len(rows), len(columns), entries))
    return [{mons[i]: c for i, c in vec.items()} for vec in vectors]


SMALL = st.sampled_from([0, 0, 1, -1, 2, F(1, 2)])
FORMS = st.builds(lambda c, f0, f1, f2: RIOp(c, {f(0): f0, f(1): f1, f(2): f2}),
                  SMALL, SMALL, SMALL, SMALL)


def random_x_spec(truncation, x11, x21, x22):
    w = example_w_spec(truncation)
    return make_spec(w.l_coalg, w.f_ctx, {tri(1, 1): x11, tri(2, 1): x21, tri(2, 2): x22})


SPECS = st.one_of(
    st.builds(lambda forms: lambda n: random_x_spec(n, *forms), st.tuples(FORMS, FORMS, FORMS)),
    st.sampled_from([trivial_spec, primitive_spec, projection_spec]),
)


@settings(max_examples=40, deadline=None)
@given(make=SPECS, truncation=st.integers(1, 4), degree=st.integers(1, 3))
def test_relation_kernel_recursion_matches_operator_columns(make, truncation, degree):
    spec = make(truncation)
    l_coalg = spec.l_coalg
    assert relation_kernel(spec, degree) == operator_column_kernel(
        spec, monomials(l_coalg, degree))
    assert relation_kernel_upto(spec, degree) == operator_column_kernel(
        spec, monomials_upto(l_coalg, degree))


def test_relation_kernel_recursion_keeps_counit_and_truncation_cases():
    # x(l[2,1]) = x(l[1,1]) = id: l[2,1] - l[1,1] dies on F but not on the
    # unit word, so the degree-0 block must stay in the window kernel; at N=1
    # the degree-2 kernel of example_w holds truncation-sensitive candidates
    same = random_x_spec(1, RIOp.identity(), RIOp.identity(), RIOp.identity())
    w = example_w_spec(truncation=1)
    for spec, d in ((same, 1), (same, 2), (w, 2), (with_truncation(w, 2), 2)):
        assert relation_kernel(spec, d) == operator_column_kernel(
            spec, monomials(spec.l_coalg, d))
        assert relation_kernel_upto(spec, d) == operator_column_kernel(
            spec, monomials_upto(spec.l_coalg, d))


def wider_spec_persistence(spec, degree):
    """Reference: the N + 1 kernel on a fresh spec at truncation N + 1 (the
    construction the shared class layers replace)."""
    kern = relation_kernel(spec, degree)
    wider = relation_kernel(with_truncation(spec, spec.max_degree + 1), degree)
    span = span_of(wider)
    return kern, wider, sum(1 for r in kern if not span_contains(span, r))


def same_spec(truncation):
    # x(l[2,1]) = x(l[1,1]) = id: only the degree-0 block tells them apart
    return random_x_spec(truncation, RIOp.identity(), RIOp.identity(), RIOp.identity())


@settings(max_examples=40, deadline=None)
@given(make=SPECS, truncation=st.integers(1, 4), degree=st.integers(1, 3))
@example(make=example_w_spec, truncation=1, degree=2)
@example(make=same_spec, truncation=1, degree=1)
@example(make=same_spec, truncation=2, degree=2)
def test_kernel_persistence_matches_wider_spec(make, truncation, degree):
    spec = make(truncation)
    kern, wider, flagged = kernel_persistence(spec, degree)
    old_kern, old_wider, old_flagged = wider_spec_persistence(make(truncation), degree)
    assert kern == old_kern
    assert wider == len(old_wider) == len(operator_column_kernel(
        with_truncation(spec, truncation + 1), monomials(spec.l_coalg, degree)))
    assert flagged == old_flagged


def test_report_runs_one_image_walk_per_spec(monkeypatch):
    # the relations stage, the coideal check, the N + 1 window and the
    # antipode stage all read the classes of one walk, grown on demand
    walks = []

    class Counted(realization.ImageWalk):
        def __init__(self, spec):
            walks.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(realization, "ImageWalk", Counted)
    path = FIXTURE_DIR / "example_w.hra"
    doc = parse_input(path.read_text(encoding="utf-8"))
    report, pipe = _run(doc, STAGE_ORDER, path.name)
    assert report.ok
    assert walks == [pipe.spec]
    assert isinstance(realization.image_walk(pipe.spec), Counted)


def document_text(name):
    """A shipped fixture, or a benchmark workload's document at seed 1."""
    if name in WORKLOADS.WORKLOADS:
        return WORKLOADS.generate(name, 1)
    return (FIXTURE_DIR / f"{name}.hra").read_text(encoding="utf-8")


def fixture_spec(name):
    """(spec, d) of a :func:`document_text`, built once per test session."""
    if name not in _FIXTURE_SPECS:
        doc = parse_input(document_text(name))
        _FIXTURE_SPECS[name] = build_spec(doc), doc.max_degree
    return _FIXTURE_SPECS[name]


_FIXTURE_SPECS = {}
DOCUMENTS = ["example_w", "general_w", "projection", "three_block", "trivial",
             *sorted(WORKLOADS.WORKLOADS)]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_mixed_kernel_read_off_the_walk_matches_elimination(name):
    # w minus its coordinates, for each word w that is not standard, is the
    # canonical kernel basis of the coordinate columns: same elements, same
    # order, and the same terms in the same order
    spec, d = fixture_spec(name)
    got = relation_kernel_upto(spec, d)
    want = window_kernel(spec, d, spec.max_degree, upto=True)
    assert [list(r.items()) for r in got] == [list(r.items()) for r in want]


@settings(max_examples=40, deadline=None)
@given(make=SPECS, truncation=st.integers(1, 3), degree=st.integers(1, 3))
def test_mixed_kernel_keeps_the_term_order_of_elimination(make, truncation, degree):
    # random x tables give relations with several standard words
    spec = make(truncation)
    got = relation_kernel_upto(spec, degree)
    want = window_kernel(spec, degree, truncation, upto=True)
    assert [list(r.items()) for r in got] == [list(r.items()) for r in want]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_relations_stage_eliminates_once_per_degree(name, monkeypatch):
    # one kernel_basis per homogeneous degree; the mixed kernel and the
    # N + 1 dimensions are read off the walk
    calls = []

    def counted(m):
        calls.append(m)
        return kernel_basis(m)

    monkeypatch.setattr(realization, "kernel_basis", counted)
    doc = parse_input(document_text(name))
    report, _ = _run(doc, ("relations",))
    assert report.ok
    assert len(calls) == doc.max_degree


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["example_w", "three_block", "general_w"]), data=st.data())
def test_class_is_zero_exactly_when_pi_is_zero(name, data):
    # y is a sum of a . r . c over relations r of degree <= d, which pi kills,
    # plus random words; every word has length <= 2d + 1, past the degree
    # bound, so the walk grows beyond the lengths the kernels ask for
    spec, d = fixture_spec(name)
    letters = spec.l_coalg.basis
    cofactors = st.lists(st.sampled_from(letters), max_size=(d + 1) // 2).map(tuple)
    words = st.lists(st.sampled_from(letters), max_size=2 * d + 1).map(tuple)
    relations = relation_kernel_upto(spec, d)
    y = {}
    for a, rel, c in data.draw(st.lists(st.tuples(cofactors, st.sampled_from(relations), cofactors),
                                        max_size=3)):
        vec_add_scaled(y, {a + w + c: v for w, v in rel.items()}, ONE)
    for w, v in data.draw(st.dictionaries(words, COEFFS, max_size=2)).items():
        vec_add_scaled(y, {w: ONE}, v)
    walk_zero = not realization.image_walk(spec).classes(y, spec.max_degree)
    assert walk_zero == op_is_zero(represent(spec, y))


_LAYER_SPECS = {}


def layer_specs(make):
    """(spec, spec at N + 1, relations) of a conftest builder, built once per
    session.  relations[t] lists the relations of degree <= 2 on blocks
    0 .. t (read off the walk) that pi does not kill on block t + 1 (by the
    oracle), or, where there are none, all of them."""
    if make not in _LAYER_SPECS:
        spec = make()
        wider = with_truncation(spec, spec.max_degree + 1)
        relations = []
        for t in range(spec.max_degree + 2):
            kernel = window_kernel(spec, 2, t, upto=True)
            edge = [r for r in kernel
                    if t <= spec.max_degree and not matrix_is_zero(represent(wider, r)[t + 1])]
            relations.append(edge or kernel)
        _LAYER_SPECS[make] = spec, wider, relations
    return _LAYER_SPECS[make]


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from([example_w_spec, trivial_spec, projection_spec, primitive_spec,
                             three_block_spec]),
       data=st.data())
def test_window_layers_match_blocks_of_pi(make, data):
    # W_t is the window on blocks 0 .. t: the class of y there is zero iff
    # pi(y) vanishes on every block n <= t, also at t = N + 1, past the
    # spec's own truncation.  y mixes relations that vanish on blocks 0 .. s
    # but not on block s + 1 with random words of length <= 3
    spec, wider, relations = layer_specs(make)
    top = spec.max_degree
    y = {}
    pool = relations[data.draw(st.integers(0, top + 1))]
    if pool:
        for rel in data.draw(st.lists(st.sampled_from(pool), max_size=2)):
            vec_add_scaled(y, rel, data.draw(COEFFS))
    words = st.lists(st.sampled_from(spec.l_coalg.basis), max_size=3).map(tuple)
    for w, v in data.draw(st.dictionaries(words, COEFFS, max_size=2)).items():
        vec_add_scaled(y, {w: ONE}, v)
    walk = realization.image_walk(spec)
    blocks = represent(spec, y)
    for t in range(top + 1):
        assert (not walk.classes(y, t)) == all(matrix_is_zero(blocks[n]) for n in range(t + 1)), t
    assert (not walk.classes(y, top + 1)) == op_is_zero(represent(wider, y))


def assert_views_match(l_coalg, gens, top):
    """S_b read off one basis built at top equals the basis built at b, for
    every b <= top: normal forms of every word of length <= b, dim, pivots."""
    full = ideal_span(TensorContext(l_coalg, 1), gens, top)
    for b in range(top + 1):
        view, own = full.view(b), ideal_span(TensorContext(l_coalg, 1), gens, b)
        assert view.dim == own.dim
        assert ideal_pivots(view) == ideal_pivots(own)
        for w in monomials_upto(l_coalg, b):
            assert view.normal_form(w) == own.normal_form(w)
    with pytest.raises(ValueError):
        full.view(top + 1)


def kernels_upto(spec, d):
    """The homogeneous relation kernels of degree 1..d and the mixed one."""
    homogeneous = [r for k in range(1, d + 1) for r in relation_kernel(spec, k)]
    return homogeneous + relation_kernel_upto(spec, d)


@settings(max_examples=40, deadline=None)
@given(make=SPECS, truncation=st.integers(1, 3), degree=st.integers(1, 2), extra=st.integers(0, 2))
def test_groebner_view_matches_basis_built_at_its_bound(make, truncation, degree, extra):
    spec = make(truncation)
    assert_views_match(spec.l_coalg, kernels_upto(spec, degree), degree + extra)


@settings(max_examples=60, deadline=None)
@given(gens=GENERATORS, top=st.integers(0, 4), which=st.sampled_from([example_w_spec, trivial_spec]))
def test_groebner_view_matches_on_random_generators(gens, top, which):
    assert_views_match(which(truncation=2).l_coalg, gens, top)


@pytest.mark.parametrize("name", ["example_w", "general_w", "three_block", "trivial"])
def test_groebner_view_matches_on_fixture_relation_kernels(name):
    spec, d = fixture_spec(name)
    assert_views_match(spec.l_coalg, kernels_upto(spec, d), d + 1)


@settings(max_examples=30, deadline=None)
@given(make=SPECS, truncation=st.integers(1, 3), degree=st.integers(1, 3), data=st.data())
def test_pair_reduce_matches_legwise_on_random_specs(make, truncation, degree, data):
    spec = make(truncation)
    ideal = computed_relation_ideal(spec, degree)
    words = st.lists(st.sampled_from(spec.l_coalg.basis), max_size=degree + 1).map(tuple)
    extra = data.draw(st.lists(st.dictionaries(words, COEFFS, max_size=3), max_size=3))
    elements = relation_kernel_upto(spec, degree) + extra
    assert_residues_match(ideal, l_context(spec), elements)


@pytest.mark.parametrize("name", ["example_w", "general_w", "projection", "three_block", "trivial"])
def test_pair_reduce_matches_legwise_on_fixture_kernels(name):
    spec, d = fixture_spec(name)
    ideal = computed_relation_ideal(spec, d)
    kernels = [r for k in range(1, d + 1) for r in relation_kernel(spec, k)]
    assert_residues_match(ideal, l_context(spec), kernels + relation_kernel_upto(spec, d))


def test_pair_reduce_matches_legwise_on_planted_non_coideal(trivial):
    # l[1,1] is no relation of trivial and delta(l[1,1]) = l[1,1] (x) l[1,1],
    # so its residue is nonzero, and must still match term for term
    planted = {(tri(1, 1),): ONE}
    ideal = computed_relation_ideal(trivial, 2)
    assert pair_reduce(ideal, planted)
    assert_residues_match(ideal, l_context(trivial), [planted, {(tri(1, 1), tri(2, 1)): F(-3)}])
