"""The truncated free tensor bialgebra T(F) over a coalgebra F.

Elements are sparse linear combinations of words (tuples of basis ids); the
product is concatenation, and a context truncates at a maximal degree N.  The
coproduct extends the coalgebra coproduct of F multiplicatively: on a word
it expands letter by letter,

    delta(f_1 ... f_n) = sum (f'_1 ... f'_n) (x) (f''_1 ... f''_n)

over all choices of coproduct terms delta(f_k) = sum f'_k (x) f''_k, so both
output legs of a degree-n word again have degree n.  The counit is the
product of the letterwise counits.  Everything of interest downstream is
grade-preserving, which is why computations truncated at degree N are exact
on that range.

When F is the dual of an algebra E, the degreewise duality pairing
<f_{i1} ... f_{in}, e^{j1} (x) ... (x) e^{jn}> = prod delta(i_k, j_k)
identifies the coproduct with multiplication in the tensor powers of E; the
tests check that identity (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .coalgebra import AlgebraPresentation, Coalgebra
from .exactlin import ONE, ZERO, Scalar, vec_add_scaled
from .reportkit import CheckReport

# A word is a tuple of BasisId; a tensor element maps words to Scalars;
# a pair element maps (word, word) to Scalars (an element of T(F) (x) T(F)).
Word = tuple
TensorElement = dict
PairElement = dict

EMPTY_WORD: Word = ()


def graded_key(w: Word):
    """Degree-graded word order key: by length, then lexicographic."""
    return (len(w), w)


@dataclass(frozen=True)
class TensorContext:
    """A coalgebra F together with the truncation degree N."""

    f: Coalgebra
    max_degree: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.max_degree < 1:
            raise ValueError("truncation degree must be >= 1")

    def word_basis(self, n: int) -> tuple:
        """All words of length n over the sorted basis of F, in lex order."""
        key = ("words", n)
        if key not in self._cache:
            self._cache[key] = tuple(itertools.product(self.f.basis, repeat=n))
        return self._cache[key]

    def word_index(self, n: int) -> dict:
        key = ("index", n)
        if key not in self._cache:
            self._cache[key] = {w: k for k, w in enumerate(self.word_basis(n))}
        return self._cache[key]


def context_from_algebra(e: AlgebraPresentation, max_degree: int) -> TensorContext:
    from .coalgebra import dual_coalgebra

    return TensorContext(dual_coalgebra(e), max_degree)


def concat_product(a: TensorElement, b: TensorElement) -> TensorElement:
    """Bilinear concatenation with no truncation (free product in T)."""
    out = {}
    for w1, c1 in a.items():
        vec_add_scaled(out, {w1 + w2: c2 for w2, c2 in b.items()}, c1)
    return out


def word_coproduct(ctx: TensorContext, w: Word) -> PairElement:
    """Letterwise coproduct of a single word; both legs keep the word's length.

    Memoized per context as ``ctx._cache[("delta", w)]``, each word's from
    its longest memoized prefix letter by letter, so the result is shared:
    callers never write into it.  No accumulator is needed: the coproduct
    terms of a letter have distinct (p, q) and nonzero coefficients, so
    every extended key is new and every product is nonzero.
    """
    cache = ctx._cache
    pairs = cache.get(("delta", w))
    if pairs is None:
        k = len(w)
        while k and ("delta", w[:k]) not in cache:
            k -= 1
        pairs = cache.setdefault(("delta", w[:k]), {(EMPTY_WORD, EMPTY_WORD): ONE})
        for n in range(k, len(w)):
            terms = ctx.f.delta_terms(w[n])
            pairs = {(w1 + (p,), w2 + (q,)): coeff * c
                     for (w1, w2), coeff in pairs.items() for (p, q, c) in terms}
            cache[("delta", w[:n + 1])] = pairs
    return pairs


def coproduct(ctx: TensorContext, t: TensorElement) -> PairElement:
    out = {}
    for w, coeff in t.items():
        vec_add_scaled(out, word_coproduct(ctx, w), coeff)
    return out


def counit(ctx: TensorContext, t: TensorElement) -> Scalar:
    total = ZERO
    for w, coeff in t.items():
        value = coeff
        for letter in w:
            value *= ctx.f.eps(letter)
            if not value:
                break
        total += value
    return total


def pair_product(a: PairElement, b: PairElement) -> PairElement:
    """Componentwise product in T(F) (x) T(F) (no truncation)."""
    out = {}
    for (a1, a2), c1 in a.items():
        vec_add_scaled(out, {(a1 + b1, a2 + b2): c2 for (b1, b2), c2 in b.items()}, c1)
    return out


def verify_free_bialgebra(ctx: TensorContext) -> CheckReport:
    """Exhaustive exact check of the bialgebra identities on low-degree words.

    On all words of degree <= min(N, 3): coassociativity, both
    counit laws, the grading of the coproduct, and multiplicativity
    delta(w1 w2) = delta(w1) delta(w2) for all pairs within the bound.
    """
    report = CheckReport("free bialgebra structure")
    bound = min(ctx.max_degree, 3)
    words = [w for n in range(bound + 1) for w in ctx.word_basis(n)]

    for w in words:
        pairs = word_coproduct(ctx, w)
        n = len(w)
        graded = all(len(w1) == n and len(w2) == n for (w1, w2) in pairs)
        report.record(f"coproduct grading on {w}", graded)

        left = {}
        right = {}
        lcounit = {}
        rcounit = {}
        for (w1, w2), coeff in pairs.items():
            vec_add_scaled(left, {(u1, u2, w2): c2
                                  for (u1, u2), c2 in word_coproduct(ctx, w1).items()}, coeff)
            vec_add_scaled(right, {(w1, u1, u2): c2
                                   for (u1, u2), c2 in word_coproduct(ctx, w2).items()}, coeff)
            vec_add_scaled(lcounit, {w2: coeff}, counit(ctx, {w1: ONE}))
            vec_add_scaled(rcounit, {w1: coeff}, counit(ctx, {w2: ONE}))
        report.record(f"coassociativity on {w}", left == right)
        ok = lcounit == {w: ONE} and rcounit == {w: ONE}
        report.record(f"counit laws on {w}", ok)

    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) > bound:
                continue
            lhs = word_coproduct(ctx, w1 + w2)
            rhs = pair_product(word_coproduct(ctx, w1), word_coproduct(ctx, w2))
            report.record(f"coproduct multiplicative on {w1}*{w2}", lhs == rhs)
    return report

