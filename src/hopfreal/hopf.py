"""Antipode construction and the Hopf closure of the relation ideal.

For a cotriangular L whose diagonal generators act invertibly (with supplied
inverse pairs), the operators Y_i^j solving

    sum over j <= k <= i of  X(l_k^j) o Y_i^k  =  delta(i,j) . id
    sum over j <= k <= i of  Y_k^j o X(l_i^k)  =  delta(i,j) . id

are found by back substitution: the diagonal Y_i^i is the lifted inverse
pair, and for j < i each equation involves only already-known Y_i^k with
k > j.  Each Y_i^j is recorded as the raw back substitution expression y
(built from the supplied diagonal inverse letters) and as the canonical
minimal-degree w with pi(w) = pi(y), used by the anti-homomorphism S^r (the
short section keeps S^r inside the closure's degree window).  Every identity
among such operators is decided as "an element of T(L) has class zero" on
the spec's ``realization.ImageWalk``; no T(F) block is composed.

S^r extends the letterwise table by anti-homomorphism; iterating
R_{n+1} = R_n + S^r(R_n) inside the bounded monomial space and testing
S^r(R_n) against the bounded ideal span of R_n yields the minimal S^r-stable
coideal-ideal containing the relations, whose quotient is then checked
against both antipode identities (everything modulo degree-bounded ideal
spans, with the bound recorded on every claim).  Membership in a bounded
ideal span is a normal form modulo a degree-truncated Groebner basis of the
generators (see ``realization.ideal_span``), and the quotient dimensions
are the numbers of standard words of each length.  S^r and the coideal
residue (NF (x) NF)(delta r) are linear, so both are summed from values on
words, memoized per ideal object (the residue) or per call of
:func:`closure_iterate` or :func:`verify_hopf_quotient` (S^r).

The general solver drops cotriangularity: it looks for Y(l) inside the
span of pi-images of bounded monomials by one exact linear solve of the
left system X * Y = eps 1 alone, where (X * Y)(b) = sum c X(p) Y(q) over
delta(b).  The right system Y * X = eps 1 needs no rows of its own:

  * Hom(L, A_N), A_N = pi_N(T(L)), is a finite-dimensional algebra under
    convolution, with unit eps 1.  So a right inverse there is two-sided
    (Sweedler, *Hopf Algebras*, 1969, ch. IV): X * Y = eps 1 makes
    Z -> X * Z onto, hence one-to-one, and X * (Y * X - eps 1) = 0.
  * An invertible X makes Y -> X * Y injective.  So the left system has at
    most one solution, the inverse, which solves the right system too, and
    its matrix has no free column (the basis monomials' classes are
    independent).  The solution and the uniqueness flag are those of the
    joint solve of both systems.

Both systems are still re-checked exactly on the solution.  Infeasibility
at the bound is reported as "none found at this bound", never as a
nonexistence proof.
"""

from __future__ import annotations

import random

from .coalgebra import BasisId, grouplikes, triangular_blocks, verify_coalgebra
from .errors import (
    InternalInconsistencyError,
    PreconditionError,
    UnsupportedStructureError,
)
from .exactlin import ONE, Matrix, SpanBasis, solve, vec_add_scaled
from .free_tensor import concat_product, coproduct, counit, graded_key, word_coproduct
from .lifting import RealizationSpec
from .realization import (
    BoundedIdeal,
    ideal_span,
    image_walk,
    l_context,
    monomials_upto,
    pair_reduce,
)
from .reportkit import CheckReport


class AntipodeTable:
    """Solved antipode data: per generator the canonical word expression y
    with pi(y) = Y (a section of pi), and the raw determination record."""

    def __init__(self, entries: dict, raw_entries: dict, determination: dict = None,
                 unique: bool = True, report: CheckReport = None):
        self.entries = entries            # BasisId -> expression (sparse dict of L-monomials)
        self.raw_entries = raw_entries    # BasisId -> back-substitution expression
        self.determination = determination  # diagonal id -> chosen inverse id
        self.unique = unique
        self.report = report


def _splits(spec: RealizationSpec, y: dict, parts, bound: int) -> bool:
    """pi(y)(w1 . w2) = sum c pi(a)(w1) . pi(b)(w2) over the parts (a, b, c)
    for deg w1 + deg w2 <= B = min(bound, N): z = delta y - sum c a (x) b has
    (B_{n1} (x) B_{n2})(z) = 0 for every n1 + n2 <= B, since
    B_{n1+n2} = (B_{n1} (x) B_{n2}) o delta for coassociative L.  Its class on
    W_t (x) W_{B-t} is zero iff that holds on the rectangle n1 <= t,
    n2 <= B - t, and the rectangles t = 0 .. B cover exactly the triangle:
    n1 + n2 <= t + (B - t) = B in rectangle t, and (n1, n2) lies in t = n1."""
    z = coproduct(l_context(spec), y)
    for a, b, c in parts:
        for w1, c1 in a.items():
            vec_add_scaled(z, {(w1, w2): c2 for w2, c2 in b.items()}, -c * c1)
    walk, bound = image_walk(spec), min(bound, spec.max_degree)
    return not any(walk.pair_class(z, t, bound - t) for t in range(bound + 1))


def _require_coassociative(spec: RealizationSpec) -> None:
    """InternalInconsistencyError, naming the failed checks, unless L passes
    ``verify_coalgebra`` (the coproduct laws rest on its coassociativity)."""
    report = verify_coalgebra(spec.l_coalg)
    if not report.ok:
        raise InternalInconsistencyError(
            "L is not a coalgebra: " + "; ".join(report.failures()))


def reduce_expression(spec: RealizationSpec, expr: dict, max_degree: int):
    """Canonical minimal-degree w with pi(w) = pi(expr), or None within the
    bound: the coordinates of expr's class on the image walk's basis of
    pi_N(T(L)), in graded-lex order, or None when one of their words is
    longer than the bound.  Coordinates on a basis are unique, so this is
    the echelon particular solution on the classes of the monomials of any
    degree that reaches the class, and no lower degree reaches it.  A word's
    coordinates lie on standard words no longer than it, so the walk grows
    only to expr's longest word, not to the bound."""
    walk, top = image_walk(spec), spec.max_degree
    coords = walk.classes(expr, top)
    words = walk.basis(top, max(map(len, expr), default=0))
    if any(len(words[k]) > max_degree for k in coords):
        return None
    return {words[k]: c for k, c in sorted(coords.items())}


def _diagonal_inverses(spec: RealizationSpec, sizes: dict, ids: dict) -> dict:
    if spec.diag_pairs is None:
        raise PreconditionError("triangular antipode needs diagonal inverse pairs")
    failures = spec.validate()
    if failures:
        raise PreconditionError("; ".join(failures))
    inverse = {ids[l.block, l.i, l.j]: ids[lp.block, lp.i, lp.j] for l, lp in spec.diag_pairs}
    for block, n in sorted(sizes.items()):
        for i in range(1, n + 1):
            if ids[block, i, i] not in inverse:
                raise PreconditionError(f"no diagonal inverse pair supplied for {ids[block, i, i]}")
    return inverse


def _system_checks(spec: RealizationSpec, entries: dict):
    """Yield (b, side, ok) for both antipode systems at each basis element b
    of L, left side first, for the expressions y of a candidate table:

        sum c p . y_q  =  eps(b) 1  =  sum c y_p . q   over delta(b),

    each decided as the class of the difference in T(L) being zero.  A side
    is built only when it is asked for, so a caller that stops at the first
    failing side skips the rest.  For triangular L,
    delta(l[i,j]) = sum_k l[k,j] (x) l[i,k], and these are the two systems
    of the module docstring.
    """
    for b in spec.l_coalg.basis:
        terms = spec.l_coalg.delta_terms(b)
        for side in ("left", "right"):
            diff = {(): -spec.l_coalg.eps(b)}
            for p, q, c in terms:
                prod = concat_product({(p,): ONE}, entries[q]) if side == "left" \
                    else concat_product(entries[p], {(q,): ONE})
                vec_add_scaled(diff, prod, c)
            yield b, side, not image_walk(spec).classes(diff, spec.max_degree)


def triangular_systems_ok(spec: RealizationSpec, entries: dict) -> bool:
    """Exact check of both antipode systems for a candidate table."""
    return all(ok for _, _, ok in _system_checks(spec, entries))


def _tri_ids(spec: RealizationSpec) -> dict:
    """The basis of L by (block, i, j): the ids the antipode table is keyed
    and built with, so its words share the basis's own objects."""
    return {(b.block, b.i, b.j): b for b in spec.l_coalg.basis}


def antipode_triangular(spec: RealizationSpec) -> AntipodeTable:
    """Back-substitute the triangular antipode systems (decreasing j per i)."""
    _require_coassociative(spec)
    sizes = triangular_blocks(spec.l_coalg)
    if sizes is None:
        raise UnsupportedStructureError("triangular antipode needs a cotriangular coalgebra L")
    ids = _tri_ids(spec)
    inverse = _diagonal_inverses(spec, sizes, ids)
    raw = {}
    entries = {}
    for block, n in sorted(sizes.items()):
        for i in range(1, n + 1):
            diag = ids[block, i, i]
            raw[diag] = {(inverse[diag],): ONE}
            entries[diag] = {(inverse[diag],): ONE}
            for j in range(i - 1, 0, -1):
                target = ids[block, i, j]
                acc = {}
                for k in range(j + 1, i + 1):
                    vec_add_scaled(acc, concat_product({(ids[block, k, j],): ONE},
                                                       raw[ids[block, i, k]]), -ONE)
                raw[target] = concat_product(raw[ids[block, j, j]], acc)
                reduced = reduce_expression(spec, raw[target], spec.max_degree)
                # fall back to the raw determination (always a section)
                entries[target] = raw[target] if reduced is None else reduced

    if not triangular_systems_ok(spec, entries):
        raise InternalInconsistencyError("triangular antipode systems failed to verify")
    return AntipodeTable(entries, raw, determination=dict(inverse))


def _reversed_parts(spec: RealizationSpec, y: dict, b: BasisId) -> list:
    """The parts (y_q, y_p, c) over delta(b) = sum c p (x) q: the right side
    of the reversed coproduct law delta y_b = sum c y_q (x) y_p."""
    return [(y[q], y[p], c) for p, q, c in spec.l_coalg.delta_terms(b)]


def _composite_split_ok(spec: RealizationSpec, table: AntipodeTable, u: BasisId,
                       v: BasisId, bound: int) -> bool:
    """Y(u v) = Y(v) o Y(u) splits products by the product rule: its parts
    are the products of the parts of Y(v) and Y(u), pair by pair."""
    y = table.entries
    parts = [(concat_product(a2, a1), concat_product(b2, b1), c1 * c2)
             for a1, b1, c1 in _reversed_parts(spec, y, u)
             for a2, b2, c2 in _reversed_parts(spec, y, v)]
    return _splits(spec, concat_product(y[v], y[u]), parts, bound)


def verify_Y_coproduct(spec: RealizationSpec, table: AntipodeTable, bound: int) -> CheckReport:
    """Operational form of the reversed coproduct law delta y_b = sum c
    y_q (x) y_p over delta(b) (for triangular L, delta(Y_i^j) = sum
    Y_i^k (x) Y_k^j): the antipode operators split products the way it says.

    Also checks composite indices (:func:`_composite_split_ok`) on all ordered
    pairs of letters that are not grouplike and the mixed pairs (g[0], off[0])
    and (off[0], g[0]) with the first grouplike g[0], where the content is;
    on all pairs if every letter is grouplike or none is.
    """
    report = CheckReport(f"antipode coproduct law at degree bound {bound}")
    basis, y = spec.l_coalg.basis, table.entries
    for b in basis:
        report.record(_splits(spec, y[b], _reversed_parts(spec, y, b), bound),
                      "splitting of Y at {}".format, b)

    glikes = set(grouplikes(spec.l_coalg))
    off = [b for b in basis if b not in glikes]
    diag = [b for b in basis if b in glikes]
    pairs = [(u, v) for u in off for v in off]
    if off and diag:
        pairs += [(diag[0], off[0]), (off[0], diag[0])]
    if not pairs:
        pairs = [(u, v) for u in basis for v in basis]
    for (u, v) in pairs:
        report.record(_composite_split_ok(spec, table, u, v, bound),
                      "splitting of composite Y at ({},{})".format, u, v)
    return report


def extend_antihom(memo: dict, table: AntipodeTable, w, cap: int = None):
    """S^r: reverse the word, substitute the letterwise table, multiply out.

    Returns (element, truncated): with a degree cap, overlong product words
    are dropped and flagged.  S^r is linear, so this sums the words' images
    and ORs their flags.  Word images are kept in ``memo`` by (word, cap);
    the caller owns it for one computation with one table.
    """
    if isinstance(w, tuple):
        w = {w: ONE}
    out = {}
    truncated = False
    for mono, coeff in w.items():
        if (mono, cap) not in memo:
            acc, cut = {(): ONE}, False
            for letter in reversed(mono):
                if letter not in table.entries:
                    raise PreconditionError(f"no antipode table entry for letter {letter}")
                acc = concat_product(acc, table.entries[letter])
                if cap is not None:
                    pruned = {u: c for u, c in acc.items() if len(u) <= cap}
                    cut = cut or len(pruned) != len(acc)
                    acc = pruned
            memo[mono, cap] = acc, cut
        acc, cut = memo[mono, cap]
        truncated = truncated or cut
        vec_add_scaled(out, acc, coeff)
    return out, truncated


class ClosureStage:
    def __init__(self, index: int, space_dim: int, ideal_dim: int, new_directions: int,
                 coideal_ok: bool):
        self.index = index
        self.space_dim = space_dim
        self.ideal_dim = ideal_dim
        self.new_directions = new_directions
        self.coideal_ok = coideal_ok


class ClosureResult:
    """Record of the S^r-closure iteration R_{n+1} = R_n + S^r(R_n)."""

    def __init__(self, stages: list, stable_at: int, final_basis: list, quotient_dims: dict,
                 ideal: BoundedIdeal, r0_coideal_ok: bool = True, overflow: bool = False):
        self.stages = stages
        self.stable_at = stable_at  # None when not stabilized
        self.final_basis = final_basis
        self.quotient_dims = quotient_dims
        self.ideal = ideal  # the bounded ideal span of final_basis at the degree bound
        self.r0_coideal_ok = r0_coideal_ok
        self.overflow = overflow

    @property
    def stabilized(self) -> bool:
        return self.stable_at is not None


def closure_iterate(spec: RealizationSpec, table: AntipodeTable, r0: list,
                    max_stages: int, degree_bound: int) -> ClosureResult:
    """Iterate R_{n+1} = R_n + S^r(R_n) in the bounded monomial space.

    Stabilization is declared when every S^r image of the current basis lies
    in the bounded ideal span of R_n; each stage also verifies that the
    coideal defect of S^r(R_n) falls inside the next stage's ideal.  S^r
    images escaping the degree bound make the result non-certifiable
    (overflow flag, no stabilization claim).  One space grows in place.
    Word residues stay on each stage's ideal object, word images of S^r in
    a memo owned by this call.
    """
    ctx, images_of = l_context(spec), {}
    current = SpanBasis(graded_key)
    for rel in r0:
        current.add(rel)
    ideal = ideal_span(ctx, current.basis(), degree_bound)
    r0_coideal_ok = all(not pair_reduce(ideal, rel) for rel in current.basis())

    stages = []
    stable_at = None
    overflow = False
    for stage in range(max_stages + 1):
        basis = current.basis()
        images = []
        stage_overflow = False
        for rel in basis:
            img, truncated = extend_antihom(images_of, table, rel, cap=degree_bound)
            stage_overflow = stage_overflow or truncated
            images.append(img)
        overflow = overflow or stage_overflow
        contained = (not stage_overflow) and all(ideal.contains(img) for img in images)

        space_dim = current.dim
        new_directions = sum(map(current.add, images))
        ideal_next = ideal if new_directions == 0 else ideal_span(ctx, current.basis(), degree_bound)
        coideal_ok = all(not pair_reduce(ideal_next, img) for img in images)
        stages.append(ClosureStage(stage, space_dim, ideal.dim,
                                   new_directions, coideal_ok))
        if contained:
            stable_at = stage
            final_basis = basis
            break
        ideal = ideal_next
    else:
        final_basis = current.basis()

    quotient = {k: len(ideal.standard_words(k)) for k in range(degree_bound + 1)}
    return ClosureResult(stages, stable_at, final_basis, quotient, ideal,
                         r0_coideal_ok=r0_coideal_ok, overflow=overflow)


def verify_hopf_quotient(spec: RealizationSpec, table: AntipodeTable,
                         closure: ClosureResult, degree_bound: int,
                         labels: dict = None) -> CheckReport:
    """Both antipode identities modulo the closure ideal, on all monomials of
    degree <= min(2, degree_bound), plus a re-check that the ideal is a coideal.

    Test vectors may exceed the closure bound (S^r stretches words); each
    membership uses the ideal span at the vector's own degree and the
    report line carries that bound.  Every such span is a view of one
    Groebner basis built at the largest bound needed (see
    ``realization.ideal_span``), the closure's own where the bounds agree.
    The generator lines reuse the word residues memoized on that ideal;
    S^r images sit in a memo owned by this call.  A failure names the
    letters of L by their labels, where labels has one.
    """
    if not closure.stabilized:
        raise PreconditionError("hopf quotient check needs a stabilized closure")
    from .fmt import format_word

    def describe(tag, w, bound):
        return f"{tag} = eps(w)1 mod ideal for w={format_word(w, labels)} [ideal bound {bound}]"

    report = CheckReport(f"hopf quotient axioms at degree bound {degree_bound}")
    gens = closure.final_basis
    ctx = l_context(spec)
    tests, images_of = [], {}
    for w in monomials_upto(spec.l_coalg, min(2, degree_bound)):
        pairs = word_coproduct(ctx, w)
        left = {}
        right = {}
        for (w1, w2), coeff in pairs.items():
            s1 = extend_antihom(images_of, table, w1)[0]
            s2 = extend_antihom(images_of, table, w2)[0]
            vec_add_scaled(left, concat_product(s1, {w2: ONE}), coeff)
            vec_add_scaled(right, concat_product({w1: ONE}, s2), coeff)
        eps = counit(ctx, {w: ONE})
        for vec, tag in ((left, "sum S(w')w''"), (right, "sum w'S(w'')")):
            test = vec_add_scaled(dict(vec), {(): ONE}, -eps)
            bound = max(degree_bound, max((len(u) for u in test), default=0))
            tests.append((tag, w, test, bound))

    top = max(bound for *_, bound in tests)
    built = closure.ideal if closure.ideal.bound >= top else ideal_span(ctx, gens, top)
    views = {closure.ideal.bound: closure.ideal, built.bound: built}

    def bounded_ideal(bound):
        if bound not in views:
            views[bound] = built.view(bound)
        return views[bound]

    for tag, w, test, bound in tests:
        report.record(bounded_ideal(bound).contains(test), describe, tag, w, bound)

    ideal_d = bounded_ideal(degree_bound)
    for g in gens:
        report.record(not pair_reduce(ideal_d, g),
                      "closure ideal coideal property on generator [bound {}]".format,
                      degree_bound)
    return report


def operator_algebra_basis(spec: RealizationSpec, bound: int) -> list:
    """Monomials (graded-lex order) whose pi-images form a basis of the span
    of pi(monomials of degree <= bound).

    These are the image walk's standard words of length <= bound over
    blocks 0 .. N: each monomial whose class is independent of the classes
    of the monomials before it.
    """
    return image_walk(spec).basis(spec.max_degree, bound)


def antipode_general(spec: RealizationSpec, bound: int):
    """Exact solve of the system X * Y = eps 1 inside the bounded operator
    algebra; None when infeasible at this bound.

    The unknowns are the coefficients of y_b on the basis monomials m_s,
    and the columns are the classes of p . m_s, as coordinates on the basis
    of pi_N(T(L)): one block of dim A rows per basis element b.  A solution
    is the two-sided inverse (module docstring), so the other system
    Y * X = eps 1 is a check, not part of the solve.  On success the table
    records the expressions in the monomial basis, a uniqueness flag (no
    free column, read off the same elimination that finds the solution),
    and a verification report of both systems and of the reversed-coproduct
    law delta y_b = sum c y_q (x) y_p, split on classes.
    """
    _require_coassociative(spec)
    alg = operator_algebra_basis(spec, bound)
    basis_l = list(spec.l_coalg.basis)
    index = {b: bi for bi, b in enumerate(basis_l)}
    r = len(alg)

    walk, top = image_walk(spec), spec.max_degree
    dim = len(walk.basis(top, bound + 1))
    entries = {}  # row bi * dim + k, column bi * r + s
    rhs = {}
    for bi, b in enumerate(basis_l):
        for (p, q, c) in spec.l_coalg.delta_terms(b):
            for s, mono in enumerate(alg):
                vec_add_scaled(entries, {(bi * dim + k, index[q] * r + s): v for k, v in
                                         walk.coordinates((p,) + mono, top).items()}, c)
        for k, v in walk.coordinates((), top).items():
            vec_add_scaled(rhs, {bi * dim + k: v}, spec.l_coalg.eps(b))

    matrix = Matrix.trusted(len(basis_l) * dim, len(basis_l) * r, entries)
    solved = solve(matrix, rhs)
    if solved is None:
        return None
    sol, unique = solved

    y = {b: {alg[s]: sol[bi * r + s] for s in range(r) if bi * r + s in sol}
         for bi, b in enumerate(basis_l)}

    report = CheckReport(f"general antipode verification at bound {bound}")
    systems_ok = True
    for b, side, ok in _system_checks(spec, y):
        report.record(ok, "{} system at {}".format, side, b)
        systems_ok = systems_ok and ok
        if side == "right":
            report.record(_splits(spec, y[b], _reversed_parts(spec, y, b), bound),
                          "reversed coproduct law at {}".format, b)
    if not systems_ok:
        raise InternalInconsistencyError("general antipode solve failed re-verification: "
                                         + "; ".join(report.failures()))

    return AntipodeTable(y, dict(y), unique=unique, report=report)


def verify_uniqueness_perturbations(spec: RealizationSpec, table: AntipodeTable,
                                    bound: int = None) -> CheckReport:
    """Randomized uniqueness witness: adding a nonzero combination of the
    bounded operator algebra's basis monomials to some Y expression must
    break one of the systems, in each of 10 trials.

    Seeded, so reports stay byte-identical run to run.
    """
    bound = bound if bound is not None else spec.max_degree
    alg = operator_algebra_basis(spec, bound)
    rng = random.Random(7919)
    ids = sorted(table.entries)
    report = CheckReport("uniqueness under perturbation (10 trials)")
    for t in range(10):
        target = ids[rng.randrange(len(ids))]
        coeffs = [rng.randint(-2, 2) for _ in alg]
        coeffs[rng.randrange(len(alg))] = rng.choice([1, -1, 2])
        perturbed = dict(table.entries)
        perturbed[target] = vec_add_scaled(dict(perturbed[target]), dict(zip(alg, coeffs)), ONE)
        broke = not triangular_systems_ok(spec, perturbed)
        report.record(broke, "trial {}: perturbing Y at {} breaks a system".format, t, target)
    return report
