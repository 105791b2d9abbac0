"""Shared realization builders for the test suite.

`example_w` is the worked Leibniz realization: F the dual of the 2x2
upper-triangular algebra, L the triangular coalgebra of size 2, diagonal
generators acting as the identity and the off-diagonal generator acting as
the evaluation operator D with D(f[1]) = f[2] and D = 0 elsewhere.
"""

from fractions import Fraction as F
from math import gcd

import pytest

from hopfreal.coalgebra import (
    BasisId,
    diagonal_algebra,
    direct_sum,
    dual_coalgebra,
    dual_numbers,
    make_coalgebra,
    triangular_coalgebra,
    upper_triangular_algebra,
)
from hopfreal.exactlin import vec_add_scaled
from hopfreal.free_tensor import TensorContext, context_from_algebra
from hopfreal.invariant import RIOp
from hopfreal.lifting import make_spec

ONE = F(1)


def tri(i, j, block=0):
    return BasisId.tri(i, j, block)


def canonical(v):
    """The package's scalar rule: an int iff v is integral, else a
    lowest-terms Fraction with denominator > 1 (so never a float)."""
    if type(v) is int:
        return True
    return type(v) is F and v.denominator > 1 and gcd(v.numerator, v.denominator) == 1


def mat_vec(a, v):
    """a applied to a sparse coordinate vector (col -> value)."""
    out = {}
    for (r, c), w in a.entries.items():
        if c in v:
            vec_add_scaled(out, {r: w}, v[c])
    return out


def example_w_spec(truncation=3):
    ctx = context_from_algebra(upper_triangular_algebra(2), truncation)
    l_coalg = triangular_coalgebra(2)
    x_map = {
        tri(1, 1): RIOp.identity(),
        tri(2, 2): RIOp.identity(),
        tri(2, 1): RIOp.from_eval(BasisId.plain(1)),
    }
    pairs = [(tri(1, 1), tri(1, 1)), (tri(2, 2), tri(2, 2))]
    return make_spec(l_coalg, ctx, x_map, pairs)


def trivial_spec(truncation=3):
    l_coalg = triangular_coalgebra(2)
    ctx = TensorContext(triangular_coalgebra(2), truncation)
    x_map = {
        tri(1, 1): RIOp.identity(),
        tri(2, 2): RIOp.identity(),
        tri(2, 1): RIOp.zero(),
    }
    pairs = [(tri(1, 1), tri(1, 1)), (tri(2, 2), tri(2, 2))]
    return make_spec(l_coalg, ctx, x_map, pairs)


def projection_spec(truncation=2):
    """A diagonal generator realized as a non-invertible projection."""
    l_coalg = triangular_coalgebra(1)
    ctx = context_from_algebra(diagonal_algebra(2), truncation)
    x_map = {tri(1, 1): RIOp.from_eval(BasisId.plain(0))}
    return make_spec(l_coalg, ctx, x_map)


def primitive_spec(truncation=3):
    """Non-cotriangular L: the dual of C[t]/(t^2) acting on itself."""
    l_coalg = dual_coalgebra(dual_numbers())
    ctx = context_from_algebra(dual_numbers(), truncation)
    x_map = {
        BasisId.plain(0): RIOp.identity(),
        BasisId.plain(1): RIOp.from_eval(BasisId.plain(1)),
    }
    return make_spec(l_coalg, ctx, x_map)


def three_block_spec(truncation=3):
    l_coalg = direct_sum([
        triangular_coalgebra(1),
        triangular_coalgebra(2),
        triangular_coalgebra(3),
    ])
    ctx = context_from_algebra(upper_triangular_algebra(2), truncation)
    d = RIOp.from_eval(BasisId.plain(1))
    x_map = {}
    for b in l_coalg.basis:
        if b.i == b.j:
            x_map[b] = RIOp.identity()
        elif (b.i, b.j) in ((2, 1), (3, 2)):
            x_map[b] = d
        else:
            x_map[b] = RIOp.zero()
    pairs = [(b, b) for b in l_coalg.basis if b.i == b.j]
    return make_spec(l_coalg, ctx, x_map, pairs)


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


def non_coassociative_coalgebra():
    """g grouplike, q primitive, and a with delta(a) = g(x)a + a(x)g + a(x)q:
    counital everywhere, coassociative except at a, where
    (delta (x) id) delta(a) has a (x) q (x) q and (id (x) delta) delta(a) has not."""
    g, q, a = (BasisId.plain(k) for k in range(3))
    return make_coalgebra([g, q, a], {
        g: [(g, g, ONE)],
        q: [(g, q, ONE), (q, g, ONE)],
        a: [(g, a, ONE), (a, g, ONE), (a, q, ONE)],
    }, {g: ONE})


def one_sided_counit_coalgebra(side):
    """e grouplike, c primitive, and b with delta(b) = b (x) e (side
    "left") or e (x) b (side "right"), eps(b) = 0: coassociative
    everywhere, and counital except for that one law at b."""
    e, b, c = (BasisId.plain(k) for k in range(3))
    terms = {"left": [(b, e, ONE)], "right": [(e, b, ONE)]}[side]
    return make_coalgebra([e, b, c], {
        e: [(e, e, ONE)], b: terms, c: [(e, c, ONE), (c, e, ONE)]}, {e: ONE})


BROKEN_COALGEBRAS = {
    "non-coassociative": non_coassociative_coalgebra,
    "left-counit": lambda: one_sided_counit_coalgebra("left"),
    "right-counit": lambda: one_sided_counit_coalgebra("right"),
}


@pytest.fixture
def example_w():
    return example_w_spec()


@pytest.fixture
def trivial():
    return trivial_spec()
