"""The operator bialgebra generated by a realization and its ideal of relations.

The representation pi sends a monomial l_1 (x) ... (x) l_n over L to the
ordered composition X(l_1) o ... o X(l_n) of lifted operators on the
truncated T(F); the empty monomial goes to the identity.  Its image on
blocks 0 .. N is the operator algebra A = pi_N(T(L)), and its kernel is the
ideal of relations.  Both are read off one :class:`ImageWalk` per spec,
without forming a block of pi(w): the walk's standard words on the window
W_N of blocks 0 .. N, in graded-lex order, are a basis of A, and the
coordinates of an element of T(L) on that basis are its class, zero exactly
when pi kills it.  The homogeneous degree-d kernel is the nullspace of the
coordinate columns of the degree-d monomials (in the global lexicographic
order over the sorted basis of L), a matrix with dim A rows: one
elimination per degree.  The degree-mixing kernel on the monomials of
degree <= d needs none, since the standard words are the pivots of its
matrix (:func:`relation_kernel_upto`).  The tests compose the T(F) blocks
of pi(w) as an oracle for the walk (``tests/oracles.py``).  A kernel
element is certified *relative to the truncation N*:
:func:`kernel_persistence` takes the classes of the kernel's basis on the
next window W_{N + 1} of blocks 0 .. N + 1, flags the candidates whose
class is not zero, and reads the N + 1 kernel's dimension off their rank.

The degree-bounded span S_b of the two-sided ideal generated by a set of
relations (every a . g . c with deg a + top g + deg c <= b) is never built
as a span: membership is decided by normal forms modulo a degree-truncated
Groebner basis of the generators homogenized by a central variable t, whose
degree-b part is S_b once t = 1 (see :func:`ideal_span`).  A basis element
of sugar degree s and leading word m may reduce a word a . m . c only while
s + |a| + |c| <= b, and the normal form is the unique representative of a
vector modulo S_b supported on standard words.

Coideal verification works in T(L) (x) T(L) modulo the degree-bounded ideal
span: delta(r) is in I (x) T + T (x) I iff its residue (NF (x) NF)(delta r)
is zero, since (V (x) V)/(I (x) V + V (x) I) is (V/I) (x) (V/I); it is the
sum of c_w R(w) over the words of r, R(w) memoized on the ideal object.
"""

from __future__ import annotations

import itertools

from .coalgebra import Coalgebra
from .exactlin import Matrix, ONE, SpanBasis, kernel_basis, mat_mul, vec_add_scaled
from .free_tensor import TensorContext, graded_key, word_coproduct
from .lifting import RealizationSpec
from .reportkit import CheckReport

# Monomials over L and sparse combinations of them reuse the word machinery
# of free_tensor: an LWord is a tuple of BasisId over the basis of L.


def l_context(spec: RealizationSpec) -> TensorContext:
    """T(L) context used for coproducts of monomials over L."""
    key = ("lctx",)
    if key not in spec._cache:
        spec._cache[key] = TensorContext(spec.l_coalg, max(spec.max_degree, 1))
    return spec._cache[key]


def monomials(l_coalg: Coalgebra, degree: int) -> tuple:
    return tuple(itertools.product(l_coalg.basis, repeat=degree))


def monomials_upto(l_coalg: Coalgebra, degree: int) -> tuple:
    return tuple(w for n in range(degree + 1) for w in monomials(l_coalg, n))


class _Layer:
    """One layer of the image walk: block 1 of pi, or the window W_t on
    blocks 0 .. t.  Basis vector k is the ambient class of the standard
    word ``words[k]``; ``span`` holds it tagged by the key (-1, k), below
    every ambient key, so reducing a vector of the span leaves minus its
    coordinates on the tags, valid however far the walk grows.
    ``rho[l][k]`` are the coordinates of (word k) . l for the standard words
    shorter than ``length``; ``frontier`` lists those of length ``length``."""

    def __init__(self, unit: dict):
        self.span, self.ambient, self.words, self.rho, self.length = SpanBasis(), [], [], {}, 0
        self.memo = {(): self.place(unit, ())}
        self.frontier = list(range(len(self.ambient)))

    def place(self, vec: dict, w: tuple) -> dict:
        """Coordinates of the ambient class vec of word w; an independent
        one makes w standard."""
        red = self.span.reduce(vec)
        if all(key[0] == -1 for key in red):
            return {key[1]: -c for key, c in red.items()}
        red[(-1, len(self.ambient))] = ONE  # a tag is never a pivot: red stays reduced
        self.span.insert(red)
        self.ambient.append(vec)
        self.words.append(w)
        return {len(self.ambient) - 1: ONE}

    def extend(self, letters, act) -> None:
        """Walk the words s . l of the next length in graded-lex order."""
        fresh = []
        for k in self.frontier:
            for l in letters:
                known = len(self.ambient)
                self.rho.setdefault(l, {})[k] = self.place(act(self.ambient[k], l),
                                                           self.words[k] + (l,))
                fresh.extend(range(known, len(self.ambient)))
        self.frontier = fresh
        self.length += 1

    def coords(self, w: tuple) -> dict:
        """Coordinates of a word no longer than ``length`` (shared)."""
        if w not in self.memo:
            rho, out = self.rho[w[-1]], {}
            for k, c in self.coords(w[:-1]).items():
                vec_add_scaled(out, rho[k], c)
            self.memo[w] = out
        return self.memo[w]


class ImageWalk:
    """Coordinates on the image algebra A = pi_top(T(L)) by a length-ordered
    standard-word walk (Moeller-Buchberger; Faugere-Gianni-Lazard-Mora).

    The walk runs on one base layer, block 1 of pi, where the ambient class
    of a word is the product x(l_1) ... x(l_k) on F, and on a chain of
    windows W_t, keyed t.  The ambient class of a word in W_0 is its counit
    (block 0); in W_t for t >= 1 it is the counit beside the pair
    coordinates (class_1 (x) class_{W_{t-1}})(delta w).  The lift gives
    B_{n+1}(r) = (B_1 (x) B_n)(delta r), so (B_1 (x) B_{<= t-1}) o delta is
    exactly blocks 1 .. t; a Kronecker product of injective maps is
    injective, so r has class 0 in W_t iff B_n(r) = 0 for every n <= t.
    delta is an algebra map, so l acts by eps(l) on the counit and by
    sum c rho_1(l') (x) rho_{t-1}(l'') on the pairs.

    A word is standard when its class is independent of the classes of the
    words before it in graded-lex order; only standard words are extended,
    and a layer grows only to the longest word asked for, or until a length
    adds no standard word.  The standard words of W_top are a basis of A,
    and a word's coordinates on it are its class: a combination of words
    has class zero iff pi kills it on blocks 0 .. top."""

    _BASE = "block 1"  # the base layer's key; the windows W_t are keyed t

    def __init__(self, spec: RealizationSpec):
        self.spec, self.layers = spec, {}

    def _unit(self, key) -> dict:
        if key == self._BASE:
            return {(i, i): ONE for i in range(self.spec.f_ctx.f.dim)}
        unit = {(0,): ONE}
        if key:
            below = self._grown(key - 1, 0).coords(())
            for k1, c1 in self._grown(self._BASE, 0).coords(()).items():
                unit.update({(k1, k2): c1 * c2 for k2, c2 in below.items()})
        return unit

    def _act(self, key, v: dict, l) -> dict:
        spec = self.spec
        if key == self._BASE:
            dim = spec.f_ctx.f.dim
            return mat_mul(Matrix.trusted(dim, dim, v), spec.x_matrix(l)).entries
        eps, out = spec.l_coalg.eps(l), {}
        for pair, cv in v.items():
            if len(pair) == 1:
                if eps:
                    out[pair] = cv * eps
                continue
            for p, q, c in spec.l_coalg.delta_terms(l):
                rho2 = self.layers[key - 1].rho[q][pair[1]]
                for k1, c1 in self.layers[self._BASE].rho[p][pair[0]].items():
                    vec_add_scaled(out, {(k1, k2): c2 for k2, c2 in rho2.items()}, c * cv * c1)
        return out

    def _grown(self, key, length: int) -> _Layer:
        layer = self.layers.get(key)
        if layer is None:
            layer = self.layers[key] = _Layer(self._unit(key))
        while layer.length < length and layer.frontier:
            if key != self._BASE and key:
                self._grown(self._BASE, layer.length + 1)
                self._grown(key - 1, layer.length + 1)
            layer.extend(self.spec.l_coalg.basis, lambda v, l: self._act(key, v, l))
        layer.length = max(layer.length, length)
        return layer

    def coordinates(self, w: tuple, top: int) -> dict:
        """Coordinates of a monomial on the basis of pi_top(T(L)), keyed by
        the index of the standard word (shared)."""
        return self._grown(top, len(w)).coords(w)

    def basis(self, top: int, length: int) -> list:
        """The standard words of length <= length over blocks 0 .. top, in
        graded-lex order: a basis of pi_top(T(L)_{<= length}), whose k-th
        word is coordinate k."""
        return [w for w in self._grown(top, length).words if len(w) <= length]

    def classes(self, y: dict, top: int) -> dict:
        """Coordinates of y in T(L) on the basis of pi_top(T(L)): zero iff
        pi(y) is zero on blocks 0 .. top."""
        out = {}
        for w, c in y.items():
            vec_add_scaled(out, self.coordinates(w, top), c)
        return out

    def pair_class(self, z: dict, t1: int, t2: int) -> dict:
        """(class_{W_t1} (x) class_{W_t2})(z) for z in T(L) (x) T(L): zero
        iff (B_n1 (x) B_n2)(z) = 0 for every n1 <= t1 and n2 <= t2."""
        return _legwise(z, lambda w: self.coordinates(w, t1), lambda w: self.coordinates(w, t2))


def image_walk(spec: RealizationSpec) -> ImageWalk:
    """The spec's one image walk, shared by every stage and grown on demand."""
    if ("walk",) not in spec._cache:
        spec._cache[("walk",)] = ImageWalk(spec)
    return spec._cache[("walk",)]


def relation_kernel(spec: RealizationSpec, degree: int) -> list:
    """Canonical basis of ker pi restricted to homogeneous degree-d monomials,
    a list of sparse elements of T(L) (cached per spec and degree; callers
    never write into the result): the
    kernel of the matrix whose columns are the coordinates of the monomials
    on the basis of pi_N(T(L)), one row per basis word.  Coordinates have
    the same relations as the blocks."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    key = ("relker", degree)
    if key not in spec._cache:
        walk, top = image_walk(spec), spec.max_degree
        mons = monomials(spec.l_coalg, degree)
        entries = {(k, j): c for j, w in enumerate(mons) for k, c in walk.coordinates(w, top).items()}
        matrix = Matrix.trusted(len(walk.basis(top, degree)), len(mons), entries)
        spec._cache[key] = [{mons[j]: c for j, c in vec.items()}
                            for vec in kernel_basis(matrix)]
    return spec._cache[key]


def relation_kernel_upto(spec: RealizationSpec, degree: int) -> list:
    """Canonical basis of ker pi on all monomials of degree <= d (empty word
    included), so degree-mixing relations such as unit relations appear
    (cached per spec and degree).  Read off the walk with no elimination: in
    ``monomials_upto`` order, one element w - sum c_k s_k per word w that is
    not standard, where c_k are its coordinates on the standard words s_k.

    This is the canonical kernel basis of the coordinate matrix with one
    column per monomial of degree <= d, in graded-lex order, and one row per
    standard word of length <= d.  The column of s_k is the unit vector e_k,
    and every other word's class depends on the classes of the words before
    it, so its coordinates lie on standard words before it.  The matrix is
    thus its own reduced row echelon form, with the standard words as
    pivots, and the kernel vector of a free column w is w minus that
    column."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    key = ("relker_upto", degree)
    if key not in spec._cache:
        walk, top = image_walk(spec), spec.max_degree
        standard = walk.basis(top, degree)
        known = set(standard)
        spec._cache[key] = [
            {w: ONE, **{standard[k]: -c for k, c in sorted(walk.coordinates(w, top).items())}}
            for w in monomials_upto(spec.l_coalg, degree) if w not in known]
    return spec._cache[key]


def kernel_persistence(spec: RealizationSpec, degree: int):
    """(kernel basis at N, its dimension at N + 1, flagged): flagged counts the
    basis elements of the N kernel whose class on blocks 0 .. N + 1 is not
    zero (not relations at N + 1).

    A relation at N + 1 vanishes on blocks 0 .. N too, so the N + 1 kernel
    is K_N with class_{N + 1} = 0, and its dimension is dim K_N minus the
    rank of the classes of the basis of K_N: no second kernel is formed."""
    kern, walk = relation_kernel(spec, degree), image_walk(spec)
    classes = [walk.classes(r, spec.max_degree + 1) for r in kern]
    rank = sum(map(SpanBasis().add, classes))
    return kern, len(kern) - rank, sum(1 for c in classes if c)


class BoundedIdeal:
    """The bounded ideal span S_b of :func:`ideal_span`, decided by normal
    forms modulo a degree-truncated Groebner basis.

    ``lead`` maps each leading word m to (sugar s, m, monic element).  Reads
    like a ``SpanBasis(graded_key)`` holding S_b, with the same values:
    ``reduce`` gives the unique representative supported on standard words,
    and ``dim`` counts the words of length <= b that are not standard (the
    leading words of S_b).  Word normal forms and residues (over the T(L)
    context ctx) are memoized; ``dim`` is computed on first use.
    """

    def __init__(self, ctx: TensorContext, lead: dict, bound: int):
        self.bound = bound
        self._ctx = ctx
        self._letters = tuple(sorted(ctx.f.basis))
        self._lead = lead
        self._longest = max((len(m) for m in lead), default=0)
        self._nf = {}
        self._residue = {}
        self._dim = None

    def _reducer(self, u: tuple):
        """(a, lm, g, c) with u = a . lm . c for a basis element g with
        leading word lm and sugar(g) + |a| + |c| <= b; None when u is
        standard."""
        slack = self.bound - len(u)
        if slack < 0:
            return None
        hit = self._lead.get(())
        if hit is not None and hit[0] <= slack:
            return u, (), hit[2], ()
        n = len(u)
        for i in range(n):
            for j in range(i + 1, min(n, i + self._longest) + 1):
                hit = self._lead.get(u[i:j])
                if hit is not None and hit[0] - (j - i) <= slack:
                    return u[:i], u[i:j], hit[2], u[j:]
        return None

    def normal_form(self, word: tuple) -> dict:
        """Memoized normal form of a word (shared; do not write to it).
        Iterative, since a chain of reductions can be long; every step
        replaces a word by smaller ones."""
        memo = self._nf
        stack = [word]
        tails = {}
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            if u not in tails:
                found = self._reducer(u)
                if found is None:
                    memo[u] = {u: ONE}
                    stack.pop()
                    continue
                a, lm, g, c = found
                tails[u] = [(a + w + c, coeff) for w, coeff in g.items() if w != lm]
            todo = [v for v, _ in tails[u] if v not in memo]
            if todo:
                stack.extend(todo)
                continue
            out = {}
            for v, coeff in tails.pop(u):
                vec_add_scaled(out, memo[v], -coeff)
            memo[u] = out
            stack.pop()
        return memo[word]

    def residue(self, word: tuple) -> dict:
        """Memoized (NF (x) NF)(delta word) (shared; do not write to it)."""
        if word not in self._residue:
            self._residue[word] = _legwise(word_coproduct(self._ctx, word),
                                           self.normal_form, self.normal_form)
        return self._residue[word]

    def reduce(self, vec: dict) -> dict:
        """Canonical representative of vec modulo S_b."""
        out = {}
        for w, coeff in vec.items():
            vec_add_scaled(out, self.normal_form(w), coeff)
        return out

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def standard_words(self, length: int) -> list:
        """Words of the given length over the letters that no basis element
        reduces, in lexicographic order.  A leading word m of sugar s occurs
        in a reducible word of this length iff s - |m| <= b - length, so
        these are the words avoiding that set of leading words, grown letter
        by letter."""
        slack = self.bound - length
        banned = {m for m, (s, _, _) in self._lead.items() if s - len(m) <= slack}
        words = [] if () in banned else [()]
        for _ in range(length):
            words = [w + (x,) for w in words for x in self._letters
                     if not any((w + (x,))[i:] in banned
                                for i in range(max(0, len(w) + 1 - self._longest), len(w) + 1))]
        return words

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = sum(len(self._letters) ** k - len(self.standard_words(k))
                            for k in range(self.bound + 1))
        return self._dim

    def view(self, bound: int) -> "BoundedIdeal":
        """S_b at a bound b <= this one, read off the same Groebner basis
        (see :func:`ideal_span`); fresh normal-form and residue memos."""
        if bound > self.bound:
            raise ValueError(f"a view at bound {bound} of an ideal built to {self.bound}")
        return BoundedIdeal(self._ctx, self._lead, bound)

    def __repr__(self):
        return f"BoundedIdeal(bound={self.bound}, {len(self._lead)} basis elements)"


def _critical_pairs(f: tuple, g: tuple):
    """Overlaps and inclusions of the leading words of f and g, each as
    (sugar, c1, a2, c2) for the S-polynomial f . c1 - a2 . g . c2
    (f and g are (sugar, leading word, monic element))."""
    s1, m1, _ = f
    s2, m2, _ = g
    for k in range(1, min(len(m1), len(m2))):
        if m1[-k:] == m2[:k]:
            x, y = m1[:-k], m2[k:]
            yield max(s1 + len(y), s2 + len(x)), y, x, ()
    if f is not g and len(m2) <= len(m1):
        for i in range(len(m1) - len(m2) + 1):
            if m1[i:i + len(m2)] == m2:
                x, y = m1[:i], m1[i + len(m2):]
                yield max(s1, s2 + len(x) + len(y)), (), x, y


def ideal_span(ctx: TensorContext, gens, bound: int) -> BoundedIdeal:
    """S_b in T(L) of ctx: the span of a . g . c over monomial cofactors with
    |a| + top(g) + |c| <= bound, where top(g) is the longest word of g.
    Cofactor degrees are limited by the top degree of each generator, so
    every spanned element honestly lies in the two-sided ideal.

    Decided by normal forms, not built as a span.  With a central variable t,
    homogenize g to the sum of c t^(top(g) - |w|) w over its terms; then
    t^j a g^h c has degree j + |a| + top(g) + |c|, so setting t = 1 maps the
    degree-b part of the ideal generated by the g^h one to one onto S_b (a
    monomial t^(b - |u|) u of degree b is the word u).  In degree b, order
    t^j u by (|u|, u), i.e. by ``graded_key`` on u; the degree-truncated
    Groebner basis of the homogenized ideal (Buchberger on word overlaps and
    inclusions, each S-polynomial of sugar degree above b dropped) then has
    leading monomials t^(s - |m|) m for an element of sugar s and leading
    word m.  That monomial divides t^(b - |u|) u iff u = a . m . c with
    s + |a| + |c| <= b: the sugar rule for reducers.  The normal form of a
    word has kernel exactly S_b and is the unique representative supported
    on standard words, the value ``SpanBasis.reduce`` gives.

    The basis is built degree by degree.  The generators of top degree D
    and the S-polynomials of sugar D are reduced by the elements of lower
    degree (in degree D), and the canonical reduced basis of their span
    gives the new elements of degree D: two elements of one degree act on
    each other only linearly.  Their critical pairs with every element are
    queued at their sugar degree, or dropped above the bound.

    One basis serves every smaller bound (:meth:`BoundedIdeal.view`).  For
    b <= B, the elements of sugar <= b are the same whether the basis is
    built to b or to B: degree D <= b reduces the same generators and
    S-polynomials (those of sugar D, from elements of lower degree) by the
    same elements, and an S-polynomial's sugar exceeds the degree of both
    its elements (a new leading word is standard for the elements below
    it), so the elements of sugar in (b, B] never feed back into degree
    <= b.  Also, ``_reducer`` and ``standard_words`` never use an
    element whose sugar exceeds the view's bound (s + |a| + |c| <= b), so
    the extra elements change no normal form, pivot or dimension at b.
    """
    pending = {}
    for g in gens:
        if g:
            top = max(len(w) for w in g)
            if top <= bound:
                pending.setdefault(top, []).append(g)
    lead = {}
    for degree in range(bound + 1):
        items = pending.pop(degree, ())
        if not items:
            continue
        below = BoundedIdeal(ctx, dict(lead), degree)
        span = SpanBasis(graded_key)
        for vec in items:
            span.add(below.reduce(vec))
        fresh = [(degree, lm, row) for lm, row in zip(span.pivots(), span.basis())]
        for elem in fresh:
            lead[elem[1]] = elem
        for f in fresh:
            for g in list(lead.values()):
                pairs = [(f, g)] if g[0] == degree else [(f, g), (g, f)]
                for first, second in pairs:
                    for sugar, c1, a2, c2 in _critical_pairs(first, second):
                        if sugar <= bound:
                            s_poly = {w + c1: v for w, v in first[2].items()}
                            vec_add_scaled(s_poly, {a2 + w + c2: v for w, v in second[2].items()},
                                           -ONE)
                            pending.setdefault(sugar, []).append(s_poly)
    return BoundedIdeal(ctx, lead, bound)


def _legwise(pairs: dict, left, right) -> dict:
    """(left (x) right)(pairs) for linear maps given on words as sparse
    vectors, over an element of T(L) (x) T(L)."""
    out = {}
    for (w1, w2), coeff in pairs.items():
        lv = left(w1)
        if lv:
            rv = right(w2)
            for u1, c1 in lv.items():
                vec_add_scaled(out, {(u1, u2): c2 for u2, c2 in rv.items()}, coeff * c1)
    return out


def pair_reduce(ideal: BoundedIdeal, vec: dict) -> dict:
    """(NF (x) NF)(delta vec) for vec in T(L), the sum of its words' residues:
    zero iff delta(vec) lies in I (x) T + T (x) I."""
    out = {}
    for w, coeff in vec.items():
        vec_add_scaled(out, ideal.residue(w), coeff)
    return out


def computed_relation_ideal(spec: RealizationSpec, degree_bound: int) -> BoundedIdeal:
    """Bounded span of the ideal generated by the computed homogeneous
    relation kernels of degree 1..d (cached per bound)."""
    key = ("relideal", degree_bound)
    if key not in spec._cache:
        gens = []
        for d in range(1, degree_bound + 1):
            gens.extend(relation_kernel(spec, d))
        spec._cache[key] = ideal_span(l_context(spec), gens, degree_bound)
    return spec._cache[key]


def verify_coideal(spec: RealizationSpec, r: list, degree_bound: int) -> CheckReport:
    """Check delta(r_i) in I (x) T(L) + T(L) (x) I for each basis relation,
    where I is the bounded ideal span of the *computed* relation kernels up
    to the degree bound (never of the candidate space itself).  Word residues
    are memoized on that ideal, shared by every relation and degree."""
    from .fmt import format_element

    def describe(rel):
        return f"delta({format_element(rel)}) decomposes (residue nonzero)"

    report = CheckReport(f"coideal property at degree bound {degree_bound}")
    ideal = computed_relation_ideal(spec, degree_bound)
    for rel in r:
        report.record(not pair_reduce(ideal, rel), describe, rel)
    return report
