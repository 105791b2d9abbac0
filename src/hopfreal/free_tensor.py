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

from .coalgebra import AlgebraPresentation, Coalgebra, axioms_at
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


class TensorContext:
    """A coalgebra F together with the truncation degree N."""

    def __init__(self, f: Coalgebra, max_degree: int):
        if max_degree < 1:
            raise ValueError("truncation degree must be >= 1")
        self.f = f
        self.max_degree = max_degree
        self._cache = {}

    def word_basis(self, n: int) -> tuple:
        """All words of length n over the sorted basis of F, in lex order."""
        key = ("words", n)
        if key not in self._cache:
            self._cache[key] = tuple(itertools.product(self.f.basis, repeat=n))
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


def verify_free_bialgebra(ctx: TensorContext, labels: dict = None) -> CheckReport:
    """The bialgebra identities of T(F) on the words of degree <= min(N, 3),
    decided from the coalgebra laws at their letters.

    Per word w: the grading of delta(w), coassociativity and both counit
    laws; then multiplicativity delta(w1 w2) = delta(w1) delta(w2) for each
    pair within the bound.  The coproduct is extended letter by letter, so
    by its definition both legs of each term of delta(w) have the length of
    w, and delta(w1 w2) = delta(w1) delta(w2): those records hold.

    The laws rest on F.  delta is an algebra map by that definition, so
    both sides of each law are algebra maps: (delta (x) id) delta and
    (id (x) delta) delta from T(F) to its third tensor power, and
    (eps (x) id) delta, (id (x) eps) delta and the identity from T(F) to
    itself.  By induction on the length of w = u f, with f a letter: the two
    sides of a law agree on u by hypothesis, and on f where the law holds
    at f, so they agree on the product u f.  The empty word holds each law.
    So coassociativity holds at w once it holds at each letter of w, and the
    counit laws likewise.  The check asks that of every letter
    (``coalgebra.axioms_at``).  An F that is not a coalgebra at a letter of
    w fails at w even where the identity on w happens to hold, as when the
    letters' counit defects cancel (eps(g) = 2 and eps(h) = 1/2 at grouplike
    g and h make (eps (x) id) delta(gh) = gh): the theorem needs a
    coalgebra.  No word coproduct is formed.  A failure names w by the
    labels of F, where labels has one.
    """
    from .fmt import format_word

    def describe(law, *words):
        return f"{law} on " + "*".join(format_word(w, labels) for w in words)

    report = CheckReport("free bialgebra structure")
    bound = min(ctx.max_degree, 3)
    words = [w for n in range(bound + 1) for w in ctx.word_basis(n)]
    laws = {f: axioms_at(ctx.f, f) for f in ctx.f.basis}

    for w in words:
        report.record(True, describe, "coproduct grading", w)
        report.record(all(laws[f][0] for f in w), describe, "coassociativity", w)
        report.record(all(laws[f][1] and laws[f][2] for f in w), describe, "counit laws", w)

    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) <= bound:
                report.record(True, describe, "coproduct multiplicative", w1, w2)
    return report
