from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    BROKEN_COALGEBRAS, example_w_spec, non_coassociative_coalgebra, scaled_coalgebra)
from hopfreal.coalgebra import (
    BasisId,
    dual_numbers,
    make_coalgebra,
    triangular_coalgebra,
    upper_triangular_algebra,
    verify_coalgebra,
)
from hopfreal.errors import InputError, InvalidAlgebraError, UnsupportedStructureError
from hopfreal.exactlin import vec_add_scaled
from hopfreal.free_tensor import (
    TensorContext,
    concat_product,
    context_from_algebra,
    coproduct,
    counit,
    verify_free_bialgebra,
    word_coproduct,
)
from hopfreal.fmt import format_word
from hopfreal.inputdoc import parse_input
from hopfreal.pipeline import STAGE_ORDER, _run
from hopfreal.realization import l_context
from oracles import duality_pairing, free_bialgebra_checks, verify_pairing

ONE = F(1)


def tri(i, j):
    return BasisId.tri(i, j)


@pytest.fixture
def l2_ctx():
    return TensorContext(triangular_coalgebra(2), 3)


def truncated_product(ctx, a, b):
    """The product in T(F) truncated at N: concat_product with the words
    longer than N dropped, and whether any were."""
    prod = concat_product(a, b)
    kept = {w: c for w, c in prod.items() if len(w) <= ctx.max_degree}
    return kept, len(kept) < len(prod)


def test_unit_law(l2_ctx):
    w = {(tri(2, 1), tri(1, 1)): ONE}
    prod, truncated = truncated_product(l2_ctx, {(): ONE}, w)
    assert prod == w and not truncated


def test_concatenation(l2_ctx):
    a = {(tri(1, 1),): ONE}
    b = {(tri(2, 1),): ONE}
    prod, truncated = truncated_product(l2_ctx, a, b)
    assert prod == {(tri(1, 1), tri(2, 1)): ONE} and not truncated


def test_truncation_flag():
    ctx = TensorContext(triangular_coalgebra(2), 2)
    a = {(tri(1, 1), tri(2, 1)): ONE}
    b = {(tri(1, 1),): ONE}
    prod, truncated = truncated_product(ctx, a, b)
    assert prod == {} and truncated


def test_coproduct_of_unit(l2_ctx):
    assert coproduct(l2_ctx, {(): ONE}) == {((), ()): ONE}


def test_coproduct_degree_one_word(l2_ctx):
    z = tri(2, 1)
    assert word_coproduct(l2_ctx, (z,)) == {
        ((tri(1, 1),), (z,)): ONE,
        ((z,), (tri(2, 2),)): ONE,
    }


def test_coproduct_degree_two_word_four_terms(l2_ctx):
    a, z, b = tri(1, 1), tri(2, 1), tri(2, 2)
    assert word_coproduct(l2_ctx, (z, z)) == {
        ((a, a), (z, z)): ONE,
        ((a, z), (z, b)): ONE,
        ((z, a), (b, z)): ONE,
        ((z, z), (b, b)): ONE,
    }


def test_counit_values(l2_ctx):
    assert counit(l2_ctx, {(): ONE}) == 1
    assert counit(l2_ctx, {(tri(2, 1),): ONE}) == 0
    assert counit(l2_ctx, {(tri(1, 1), tri(2, 2)): ONE}) == 1


@pytest.mark.parametrize(
    "ctx",
    [
        TensorContext(triangular_coalgebra(2), 3),
        TensorContext(triangular_coalgebra(3), 3),
        context_from_algebra(dual_numbers(), 3),
    ],
)
def test_verify_free_bialgebra_passes(ctx):
    assert verify_free_bialgebra(ctx).ok


def test_verify_free_bialgebra_fails_on_broken_coalgebra():
    from hopfreal.coalgebra import make_coalgebra

    c = triangular_coalgebra(2)
    delta = dict(c.delta)
    delta[tri(2, 1)] = ((tri(2, 1), tri(2, 2), ONE), (tri(1, 1), tri(1, 1), ONE))
    bad = make_coalgebra(c.basis, {b: list(t) for b, t in delta.items()}, c.epsilon)
    report = verify_free_bialgebra(TensorContext(bad, 3))
    assert not report.ok
    assert any("coassociativity" in f for f in report.failures())


def test_grading_invariant_all_words_degree_up_to_three():
    ctx = TensorContext(triangular_coalgebra(2), 3)
    for n in range(4):
        for w in ctx.word_basis(n):
            for (w1, w2) in word_coproduct(ctx, w):
                assert len(w1) == n and len(w2) == n


def test_pairing_empty_word():
    assert duality_pairing(upper_triangular_algebra(2), (), ()) == 1


def test_pairing_dual_bases():
    alg = upper_triangular_algebra(2)
    for i in range(3):
        for j in range(3):
            value = duality_pairing(alg, (BasisId.plain(i),), (j,))
            assert value == (1 if i == j else 0)


def test_pairing_rank_mismatch():
    with pytest.raises(ValueError):
        duality_pairing(upper_triangular_algebra(2), (BasisId.plain(0),), (0, 1))


def test_pairing_requires_algebra():
    # a letter of the triangular coalgebra is no basis element of the dual
    # of the algebra
    with pytest.raises(UnsupportedStructureError):
        duality_pairing(upper_triangular_algebra(2), (triangular_coalgebra(2).basis[0],), (0,))


def test_pairing_intertwines_product():
    alg = upper_triangular_algebra(2)
    assert verify_pairing(context_from_algebra(alg, 3), alg).ok


def test_pairing_intertwines_product_small_algebras():
    for alg in (dual_numbers(), upper_triangular_algebra(2)):
        assert verify_pairing(context_from_algebra(alg, 2), alg).ok


def test_concat_product_with_zero_first_term_stores_no_zero():
    b = BasisId.plain(0)
    assert concat_product({(): F(0)}, {(b,): F(1)}) == {}
    assert concat_product({(): F(1)}, {(b,): F(0)}) == {}


# the F of example_w has only unit coproduct coefficients; the second
# (not coassociative, which word_coproduct does not need) has others
_A, _B = BasisId.plain(0), BasisId.plain(1)
_CTXS = (
    example_w_spec().f_ctx,
    TensorContext(make_coalgebra([_A, _B], {_A: [(_A, _A, 2), (_B, _A, F(-1, 2))],
                                            _B: [(_B, _B, 3)]}, {_A: 1}), 4),
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_word_coproduct_matches_accumulated_sum(data):
    # the comprehension in word_coproduct needs no accumulator: compare it
    # with a letter-by-letter sum through vec_add_scaled
    ctx = data.draw(st.sampled_from(_CTXS))
    w = tuple(data.draw(st.lists(st.sampled_from(ctx.f.basis), max_size=4)))
    ref = {((), ()): ONE}
    for letter in w:
        nxt = {}
        for (w1, w2), coeff in ref.items():
            for (p, q, c) in ctx.f.delta_terms(letter):
                vec_add_scaled(nxt, {(w1 + (p,), w2 + (q,)): c}, coeff)
        ref = nxt
    pairs = word_coproduct(ctx, w)
    assert pairs == ref
    assert all(pairs.values())


def letterwise_coproduct(f, w):
    """The unmemoized letter-by-letter product defining word_coproduct."""
    pairs = {((), ()): ONE}
    for letter in w:
        pairs = {(w1 + (p,), w2 + (q,)): coeff * c
                 for (w1, w2), coeff in pairs.items() for (p, q, c) in f.delta_terms(letter)}
    return pairs


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
REALIZATIONS = sorted(p.stem for p in FIXTURE_DIR.glob("*.hra") if not p.name.startswith("bad_"))
# the fixtures whose report fails its antipode stage (no antipode at their window)
NO_ANTIPODE = ("comatrix", "h4_regular", "projection")


def full_report(name):
    """(report, pipeline) of a report with every stage on a fixture."""
    doc = parse_input((FIXTURE_DIR / f"{name}.hra").read_text(encoding="utf-8"))
    return _run(doc, STAGE_ORDER, name)


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.hra")))
def test_memoized_word_coproducts_survive_a_report(name):
    # word_coproduct hands every caller the same dict: after a full report,
    # each entry memoized on T(L) must still be the letterwise product (a
    # caller that wrote into one would show here), in the same order.  The
    # reports that find no antipode stop before any stage that forms one
    try:
        report, pipe = full_report(name)
    except (InputError, InvalidAlgebraError):
        assert name.startswith("bad_")
        return
    assert report.ok or name in NO_ANTIPODE
    ctx = l_context(pipe.spec)
    checked = 0
    for key, pairs in ctx._cache.items():
        if key[0] == "delta":
            assert list(pairs.items()) == list(letterwise_coproduct(ctx.f, key[1]).items())
            checked += 1
    assert checked or name in NO_ANTIPODE


@pytest.mark.parametrize("name", REALIZATIONS)
def test_report_forms_no_word_coproduct_over_f(name):
    # the verify stages decide T(F)'s laws from F's letters, and no other
    # stage reads a coproduct on T(F): a full report memoizes none
    _, pipe = full_report(name)
    assert not [key for key in pipe.spec.f_ctx._cache if key[0] == "delta"]


# --- verify-free-bialgebra against the word-level checks --------------------------


def fixture_f(name):
    doc = parse_input((FIXTURE_DIR / f"{name}.hra").read_text(encoding="utf-8"))
    return doc.coalgebras[doc.realization.f_name], doc.display_labels(doc.realization.f_name)


def assert_same_records(ctx, labels=None):
    """verify_free_bialgebra and the word-level oracle agree record by
    record: every record has its own text, and both keep the failed texts in
    record order."""
    got, want = verify_free_bialgebra(ctx, labels), free_bialgebra_checks(ctx, labels)
    assert got.summary() == want.summary()
    assert got.failures() == want.failures()
    return got


@pytest.mark.parametrize("name", REALIZATIONS)
def test_free_bialgebra_matches_word_level_checks_on_fixtures(name):
    f, labels = fixture_f(name)
    for n in (1, 2, 3):
        assert assert_same_records(TensorContext(f, n), labels).ok


def test_free_bialgebra_matches_word_level_checks_on_scaled_coalgebra():
    # coproduct coefficients 1/2 and 8/3, and a counit value 2
    for n in (1, 2, 3):
        assert assert_same_records(TensorContext(scaled_coalgebra(), n)).ok


@pytest.mark.parametrize("name", sorted(BROKEN_COALGEBRAS))
def test_free_bialgebra_matches_word_level_checks_on_broken_coalgebras(name):
    # one law broken at one letter: each word holding that letter fails that
    # law's record, at the word level too, since every other letter's two
    # sides agree and are nonzero
    c = BROKEN_COALGEBRAS[name]()
    (broken,) = verify_coalgebra(c).failures()
    law = "coassociativity" if broken.startswith("coassociativity") else "counit laws"
    letter = next(b for b in c.basis if broken.endswith(f" on {b}"))
    for n in (1, 2, 3):
        ctx = TensorContext(c, n)
        words = [w for k in range(1, n + 1) for w in ctx.word_basis(k) if letter in w]
        assert assert_same_records(ctx).failures() == [f"{law} on {format_word(w)}" for w in words]


def cancelling_counits():
    """Grouplike g and h with eps(g) = 2 and eps(h) = 1/2: coassociative,
    and neither counit law holds at either letter."""
    g, h = BasisId.plain(0), BasisId.plain(1)
    return make_coalgebra([g, h], {g: [(g, g, ONE)], h: [(h, h, ONE)]}, {g: 2, h: F(1, 2)})


def test_free_bialgebra_fails_where_counit_defects_cancel():
    # (eps (x) id) delta(gh) = eps(g) eps(h) gh = gh, and likewise on the
    # right and at hg, so the word-level counit laws hold at gh and hg.  The
    # check fails them: the theorem that lifts the laws from letters to words
    # needs a coalgebra, and F is none at g or h.  Every other record agrees
    ctx = TensorContext(cancelling_counits(), 2)
    g, h = ctx.f.basis
    got, want = verify_free_bialgebra(ctx), free_bialgebra_checks(ctx)
    extra = ["counit laws on f[0]*f[1]", "counit laws on f[1]*f[0]"]
    assert [t for t in got.failures() if t not in extra] == want.failures()
    assert [t for t in got.failures() if t in extra] == extra
    assert "counit laws on f[0]*f[0]" in want.failures()
    assert counit(ctx, {(g, h): ONE}) == 1


def test_free_bialgebra_fails_where_a_zero_coproduct_hides_a_defect():
    # z has delta(z) = 0, so delta(w) = 0 for every word w holding z, and the
    # word-level coassociativity holds at such a w whatever its other
    # letters.  The check fails it at the words that also hold the
    # non-coassociative a: the theorem needs coassociativity at each letter
    base = non_coassociative_coalgebra()
    g, q, a = base.basis
    z = BasisId.plain(3)
    c = make_coalgebra(base.basis + (z,), {**base.delta}, base.epsilon)
    assert c.delta_terms(z) == ()
    ctx = TensorContext(c, 2)
    got, want = verify_free_bialgebra(ctx), free_bialgebra_checks(ctx)
    extra = [f"coassociativity on {format_word(w)}" for w in ((a, z), (z, a))]
    assert [t for t in got.failures() if t not in extra] == want.failures()
    assert [t for t in got.failures() if t in extra] == extra
    assert "coassociativity on f[2]*f[2]" in want.failures()
