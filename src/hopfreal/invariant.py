"""Finite-support forms on a coalgebra and the operators they induce.

A linear form omega on F induces the operator X_omega = (omega (x) id) o delta,
which is right-invariant: delta o X = (X (x) id) o delta.  Composition with the
counit recovers the form, eps o X_omega = omega, and under this bijection
composition of operators corresponds to the *opposite* convolution product

    (a * b)(v) = sum a(v') b(v''),      X_a o X_b = X_{b*a},

pinned by the tests rather than by convention; the form convolution
algebra is a test oracle (``tests/oracles.py``).  Regular operators are
spans of such X_omega together with the identity; :class:`RIOp` keeps the
identity coefficient split off explicitly.

Grade-preserving operators on the truncated tensor algebra are stored
block-per-degree (:class:`LinOp`), one exact sparse matrix on the word basis
of each degree up to the truncation.  Right-invariance of such an operator
is one block identity per degree, D_n X_n = (X_n (x) I) D_n with D_n the
letterwise coproduct matrix of degree-n words, decided on integer
numerators (:func:`verify_right_invariance`); a degree-1 operator on F is
the same check at n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coalgebra import BasisId, Coalgebra
from .exactlin import (
    Matrix,
    ONE,
    ZERO,
    integer_view,
    intertwiner_defect,
    vec_add_scaled,
    vec_clean,
)
from .free_tensor import TensorContext, word_coproduct

# A form is a sparse dict BasisId -> Fraction (finite support by nature).
Form = dict


@dataclass(frozen=True)
class RIOp:
    """A regular right-invariant operator: id_coeff * id + X_{form}."""

    id_coeff: Fraction = ZERO
    form: Form = None

    def __post_init__(self):
        object.__setattr__(self, "id_coeff", Fraction(self.id_coeff))
        object.__setattr__(self, "form", vec_clean(self.form or {}))

    @staticmethod
    def identity() -> "RIOp":
        return RIOp(ONE, {})

    @staticmethod
    def from_form(form: Form) -> "RIOp":
        return RIOp(ZERO, form)

    @staticmethod
    def from_eval(b: BasisId) -> "RIOp":
        """The operator of the evaluation form at a basis element."""
        return RIOp(ZERO, {b: ONE})

    @staticmethod
    def zero() -> "RIOp":
        return RIOp(ZERO, {})


@dataclass(frozen=True)
class LinOp:
    """Grade-preserving operator on T(F) truncated at degree N: one square
    matrix per degree, on the lexicographic word basis of that degree."""

    blocks: dict  # degree -> Matrix

    def __eq__(self, other):
        return isinstance(other, LinOp) and self.blocks == other.blocks


def op_from_form(f: Coalgebra, x: RIOp) -> Matrix:
    """Degree-1 matrix of id_coeff * id + (omega (x) id) o delta on F."""
    basis = list(f.basis)
    index = {b: k for k, b in enumerate(basis)}
    entries = {}
    for col, b in enumerate(basis):
        for (p, q, c) in f.delta_terms(b):
            vec_add_scaled(entries, {(index[q], col): c}, x.form.get(p, ZERO))
        vec_add_scaled(entries, {(col, col): ONE}, x.id_coeff)
    return Matrix(len(basis), len(basis), entries)


def _coproduct_blocks(ctx: TensorContext, n: int):
    """The letterwise coproduct of degree-n words as an s^2 x s matrix D_n
    (s = dim F^n), with D_n[idx(u) * s + idx(v), idx(w)] the coefficient of
    u (x) v in delta(w), as (den, nums): integer numerators nums[(row, col)]
    over the common denominator den.  Memoized per context.  Word bases are
    lex-ordered products, so past D_0 and D_1 (from :func:`word_coproduct`)
    D_n[(u'p, v'q), w'l] = D_{n-1}[(u', v'), w'] * D_1[(p, q), l], over
    den_{n-1} * den_1."""
    key = ("coproduct", n)
    if key not in ctx._cache:
        k, s = ctx.f.dim, ctx.f.dim ** n
        if n <= 1:
            index = ctx.word_index(n)
            d = {(index[u] * s + index[v], col): c for col, w in enumerate(ctx.word_basis(n))
                 for (u, v), c in word_coproduct(ctx, w).items()}
            den, nums = integer_view(d)
            ctx._cache[key] = den, dict(zip(d, nums))
        else:
            (den, prev), (den1, one) = _coproduct_blocks(ctx, n - 1), _coproduct_blocks(ctx, 1)
            t = s // k
            ctx._cache[key] = den * den1, {
                ((r // t * k + pq // k) * s + r % t * k + pq % k, col * k + l): c * c1
                for (r, col), c in prev.items() for (pq, l), c1 in one.items()}
    return ctx._cache[key]


def verify_right_invariance(ctx: TensorContext, x: LinOp):
    """Exact check of delta o X = (X (x) id) o delta on every block of x;
    returns (ok, witness or None).

    Each degree is one exact identity D_n X_n = (X_n (x) I) D_n; its column w
    is the equation at the word w, and the witness is the first failing word
    in (degree, index) order.  Both sides have the denominator
    den(D_n) den(X_n), so the identity is decided on integer numerators by
    :func:`~hopfreal.exactlin.intertwiner_defect`, and a degree that holds
    builds no Fraction.
    """
    for n, m in sorted(x.blocks.items()):
        col = intertwiner_defect(ctx.f.dim ** n, _coproduct_blocks(ctx, n)[1], m)
        if col is not None:
            return False, ctx.word_basis(n)[col]
    return True, None
