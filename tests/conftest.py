"""Shared realization builders for the test suite.

`example_w` is the worked Leibniz realization: F the dual of the 2x2
upper-triangular algebra, L the triangular coalgebra of size 2, diagonal
generators acting as the identity and the off-diagonal generator acting as
the evaluation operator D with D(f[1]) = f[2] and D = 0 elsewhere.
"""

from fractions import Fraction as F

import pytest

from hopfreal.coalgebra import (
    BasisId,
    diagonal_algebra,
    direct_sum,
    dual_coalgebra,
    dual_numbers,
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


def mat_vec(a, v):
    """a applied to a sparse coordinate vector (col -> value)."""
    out = {}
    for (r, c), w in a.entries.items():
        if c in v:
            vec_add_scaled(out, {r: w}, v[c])
    return out


def apply_to_word(ctx, op, w):
    """op(w) for a LinOp and a word: column idx(w) of the block of degree len(w)."""
    words = ctx.word_basis(len(w))
    column = mat_vec(op.blocks[len(w)], {ctx.word_index(len(w))[w]: ONE})
    return {words[r]: v for r, v in column.items()}


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


@pytest.fixture
def example_w():
    return example_w_spec()


@pytest.fixture
def trivial():
    return trivial_spec()
