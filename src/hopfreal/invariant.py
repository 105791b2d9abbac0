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

An operator X on F is right-invariant when delta(X w) = (X (x) id) delta(w)
for every w in F.  :func:`verify_right_invariance` decides that identity
letter by letter over the basis of F; a lift to T(F) is right-invariant
in every degree once each x(l) it reads is (``lifting``).
"""

from __future__ import annotations

from .coalgebra import BasisId, Coalgebra
from .exactlin import Matrix, ONE, ZERO, Scalar, vec_add_scaled, vec_clean

# A form is a sparse dict BasisId -> Scalar (finite support by nature).
Form = dict


class RIOp:
    """A regular right-invariant operator: id_coeff * id + X_{form}."""

    def __init__(self, id_coeff: Scalar = ZERO, form: Form = None):
        self.id_coeff = id_coeff
        self.form = vec_clean(form or {})

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


def verify_right_invariance(f: Coalgebra, m: Matrix):
    """Exact check of delta(m w) = (m (x) id) delta(w) at each letter w of
    F, for m a dim F x dim F matrix on the sorted basis of F; returns
    (ok, witness or None), the witness the first failing letter.

    Both sides are sparse sums over coproduct terms of F: the coproducts of
    the letters in column w of m, and the images under m of the first legs
    of delta(w)."""
    basis = f.basis
    index = {b: k for k, b in enumerate(basis)}
    cols = [[] for _ in basis]
    for (r, c), v in m.entries.items():
        cols[c].append((basis[r], v))
    for k, w in enumerate(basis):
        lhs = {}
        for u, v in cols[k]:
            vec_add_scaled(lhs, {(p, q): c for p, q, c in f.delta_terms(u)}, v)
        rhs = {}
        for p, q, c in f.delta_terms(w):
            vec_add_scaled(rhs, {(u, q): v for u, v in cols[index[p]]}, c)
        if lhs != rhs:
            return False, w
    return True, None
