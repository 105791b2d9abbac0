import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from hopfreal.coalgebra import (
    AlgebraPresentation,
    BasisId,
    dual_coalgebra,
    dual_numbers,
    diagonal_algebra,
    direct_sum,
    ground_field,
    grouplikes,
    is_cotriangular,
    make_coalgebra,
    triangular_coalgebra,
    upper_triangular_algebra,
    verify_coalgebra,
)
from hopfreal.errors import InvalidAlgebraError
from oracles import dual_triangular_relabeling, relabel

ONE = F(1)


def tri(i, j, block=0):
    return BasisId.tri(i, j, block)


def test_dual_of_ground_field_is_grouplike_point():
    c = dual_coalgebra(ground_field())
    b = BasisId.plain(0)
    assert c.basis == (b,)
    assert c.delta_terms(b) == ((b, b, ONE),)
    assert c.eps(b) == 1


def test_dual_of_dual_numbers():
    c = dual_coalgebra(dual_numbers())
    f1, ft = BasisId.plain(0), BasisId.plain(1)
    assert c.delta_terms(ft) == ((f1, ft, ONE), (ft, f1, ONE))
    assert c.delta_terms(f1) == ((f1, f1, ONE),)
    assert c.eps(ft) == 0
    assert c.eps(f1) == 1


def test_triangular_point():
    c = triangular_coalgebra(1)
    b = tri(1, 1)
    assert c.basis == (b,)
    assert c.delta_terms(b) == ((b, b, ONE),)
    assert c.eps(b) == 1


def test_triangular_two_off_diagonal():
    c = triangular_coalgebra(2)
    assert c.delta_terms(tri(2, 1)) == (
        (tri(1, 1), tri(2, 1), ONE),
        (tri(2, 1), tri(2, 2), ONE),
    )


def test_triangular_three_off_diagonal():
    c = triangular_coalgebra(3)
    assert c.delta_terms(tri(3, 1)) == (
        (tri(1, 1), tri(3, 1), ONE),
        (tri(2, 1), tri(3, 2), ONE),
        (tri(3, 1), tri(3, 3), ONE),
    )


def test_triangular_counit_is_diagonal_indicator():
    c = triangular_coalgebra(4)
    for b in c.basis:
        assert c.eps(b) == (1 if b.i == b.j else 0)


def test_triangular_rejects_zero():
    with pytest.raises(ValueError):
        triangular_coalgebra(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_of_triangular_algebra_matches_triangular_coalgebra(n):
    dual = dual_coalgebra(upper_triangular_algebra(n))
    assert relabel(dual, dual_triangular_relabeling(n)) == triangular_coalgebra(n)


@pytest.mark.parametrize(
    "c",
    [
        triangular_coalgebra(1),
        triangular_coalgebra(2),
        triangular_coalgebra(3),
        dual_coalgebra(dual_numbers()),
        dual_coalgebra(upper_triangular_algebra(3)),
        dual_coalgebra(diagonal_algebra(3)),
        direct_sum([triangular_coalgebra(2), triangular_coalgebra(3)]),
    ],
)
def test_verify_coalgebra_passes_on_constructions(c):
    assert verify_coalgebra(c).ok


def test_verify_coalgebra_counit_failure_with_witness():
    # mutated L_2+ keeping only the first coproduct term of l[2,1]
    c = triangular_coalgebra(2)
    delta = dict(c.delta)
    delta[tri(2, 1)] = ((tri(1, 1), tri(2, 1), ONE),)
    bad = make_coalgebra(c.basis, {b: list(t) for b, t in delta.items()}, c.epsilon)
    report = verify_coalgebra(bad)
    assert not report.ok
    assert any("counit law on l[2,1]" in f for f in report.failures())


def test_verify_coalgebra_coassociativity_failure():
    # delta(l[2,1]) = l[2,1] (x) l[2,2] + l[1,1] (x) l[1,1]: the two expansions of
    # (delta (x) id) and (id (x) delta) differ by l[1,1] (x) l[1,1] (x) l[2,2]
    c = triangular_coalgebra(2)
    delta = dict(c.delta)
    delta[tri(2, 1)] = ((tri(2, 1), tri(2, 2), ONE), (tri(1, 1), tri(1, 1), ONE))
    bad = make_coalgebra(c.basis, {b: list(t) for b, t in delta.items()}, c.epsilon)
    report = verify_coalgebra(bad)
    assert any("coassociativity on l[2,1]" in f for f in report.failures())


def test_invalid_algebra_rejected():
    alg = upper_triangular_algebra(2)
    structure = dict(alg.structure)
    structure[(1, 1)] = {0: ONE}  # e[1,2].e[1,2] = e[1,1] breaks associativity
    bad = AlgebraLike = alg.__class__(alg.dim, structure, alg.unit, alg.names)
    with pytest.raises(InvalidAlgebraError):
        dual_coalgebra(bad)


def test_grouplikes_triangular():
    assert grouplikes(triangular_coalgebra(2)) == [tri(1, 1), tri(2, 2)]


def test_grouplikes_dual_numbers():
    assert grouplikes(dual_coalgebra(dual_numbers())) == [BasisId.plain(0)]


def test_direct_sum_counts():
    s = direct_sum([triangular_coalgebra(2), triangular_coalgebra(3)])
    assert s.dim == 3 + 6
    assert len(grouplikes(s)) == 2 + 3


def test_direct_sum_singleton_unchanged():
    c = triangular_coalgebra(2)
    assert direct_sum([c]) == c


def test_direct_sum_no_cross_terms():
    s = direct_sum([triangular_coalgebra(1), triangular_coalgebra(1)])
    assert len(grouplikes(s)) == 2
    for b in s.basis:
        for (p, q, _) in s.delta_terms(b):
            assert p.block == q.block == b.block


def test_direct_sum_grouplikes_are_blockwise_union():
    a = triangular_coalgebra(2)
    b = triangular_coalgebra(2)
    s = direct_sum([a, b])
    assert len(grouplikes(s)) == 4


def test_is_cotriangular():
    assert is_cotriangular(triangular_coalgebra(3))
    assert is_cotriangular(direct_sum([triangular_coalgebra(1), triangular_coalgebra(2)]))
    assert not is_cotriangular(dual_coalgebra(dual_numbers()))


def test_algebra_product_with_zero_first_term_stores_no_zero():
    e = AlgebraPresentation(1, {(0, 0): {0: F(0)}}, {0: F(1)})
    assert e.product({0: F(1)}, {0: F(1)}) == {}


def test_make_coalgebra_drops_zero_coproduct_term():
    b = BasisId.plain(0)
    c = make_coalgebra([b], {b: [(b, b, 0)]}, {b: 1})
    assert c.delta_terms(b) == ()
    assert c.delta_vect({b: F(1)}) == {}


def test_basis_id_hash_is_computed_once_and_unchanged():
    a, b = BasisId.tri(2, 1, block=1), BasisId(1, 2, 1)
    assert a == b and a is not b
    # the generated dataclass hash's value, so set and dict orders stay put
    assert hash(a) == hash(b) == hash((1, 2, 1))
    assert {a: 1}[b] == 1 and {(a, b): 2}[(b, a)] == 2
    assert repr(a) == "BasisId(block=1, i=2, j=1)"
    # the benchmark tracer patches the hash on the class
    assert "__hash__" in BasisId.__dict__
    for other in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert other == a and hash(other) == hash(a)
    moved = dataclasses.replace(a, i=3)
    assert moved == BasisId(1, 3, 1) and hash(moved) == hash(BasisId(1, 3, 1))
    ids = [BasisId(k, i, j) for k in range(2) for i in range(3) for j in range(i + 1)]
    assert sorted(reversed(ids)) == sorted(ids, key=lambda x: (x.block, x.i, x.j)) == ids


@pytest.mark.parametrize("make", [
    lambda: triangular_coalgebra(3),
    lambda: direct_sum([triangular_coalgebra(1), triangular_coalgebra(2), triangular_coalgebra(3)]),
    lambda: dual_coalgebra(upper_triangular_algebra(2)),
    lambda: relabel(dual_coalgebra(upper_triangular_algebra(2)), dual_triangular_relabeling(2)),
], ids=["triangular", "sum", "dual", "relabelled"])
def test_coproduct_terms_and_counit_keys_are_the_basis_objects(make):
    # fresh but equal ids in the coproduct would make every dict lookup of a
    # word built from them fall back to BasisId.__eq__
    c = make()
    own = {id(b) for b in c.basis}
    assert {id(b) for b in c.delta} <= own and {id(b) for b in c.epsilon} <= own
    for b in c.basis:
        assert c.delta_terms(b)
        for p, q, _ in c.delta_terms(b):
            assert id(p) in own and id(q) in own
