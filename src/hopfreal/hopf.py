"""Antipode construction and the Hopf closure of the relation ideal.

For a cotriangular L whose diagonal generators act invertibly (with supplied
inverse pairs), the operators Y_i^j solving

    sum over j <= k <= i of  X(l_k^j) o Y_i^k  =  delta(i,j) . id
    sum over j <= k <= i of  Y_k^j o X(l_i^k)  =  delta(i,j) . id

are found by back substitution: the diagonal Y_i^i is the lifted inverse
pair, and for j < i each equation involves only already-known Y_i^k with
k > j.  Each Y_i^j is recorded three ways: as the operator, as the raw back
substitution word (the reproducible determination built from the supplied
diagonal inverse letters), and as the canonical minimal-degree expression
w with pi(w) = Y_i^j used by the anti-homomorphism S^r (any section of pi
is a valid determination, and the short one keeps S^r inside the degree
window of the closure).

S^r extends the letterwise table by anti-homomorphism; iterating
R_{n+1} = R_n + S^r(R_n) inside the bounded monomial space and testing
S^r(R_n) against the bounded ideal span of R_n yields the minimal S^r-stable
coideal-ideal containing the relations, whose quotient is then checked
against both antipode identities (everything modulo degree-bounded ideal
spans, with the bound recorded on every claim).  Membership in a bounded
ideal span is a normal form modulo a degree-truncated Groebner basis of the
generators (see ``realization.ideal_span``), and the quotient dimensions
are the numbers of standard words of each length.

The general solver drops cotriangularity: it looks for Y(l) inside the span
of pi-images of bounded monomials satisfying the two convolution systems,
by one exact joint linear solve; infeasibility at the bound is reported as
"none found at this bound", never as a nonexistence proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .coalgebra import BasisId, triangular_blocks
from .errors import (
    InternalInconsistencyError,
    PreconditionError,
    UnsupportedStructureError,
)
from .exactlin import ONE, SpanBasis, ZERO, kernel_basis, solve, vec_add_scaled
from .free_tensor import concat_product, graded_key, word_coproduct
from .invariant import (
    LinOp,
    op_combination,
    op_compose,
    op_identity,
    op_vector,
)
from .lifting import RealizationSpec, lift_operator, split_witness
from .realization import (
    RelationSpace,
    _column_matrix,
    delta_on_l_element,
    eps_extension,
    ideal_span,
    l_context,
    monomials_upto,
    pair_reduce,
    relation_kernel_upto,
    represent,
    represent_word,
)
from .reportkit import CheckReport


@dataclass
class AntipodeTable:
    """Solved antipode data: per generator the operator Y, the canonical
    word expression (a section of pi), and the raw determination record."""

    entries: dict          # BasisId -> expression (sparse dict of L-monomials)
    raw_entries: dict      # BasisId -> back-substitution expression
    ops: dict              # BasisId -> LinOp
    mode: str              # "triangular" | "general"
    determination: dict = None   # diagonal id -> chosen inverse id
    unique: bool = True
    report: CheckReport = None


def reduce_expression(spec: RealizationSpec, op: LinOp, max_degree: int):
    """Canonical minimal-degree w with pi(w) = op, or None within the bound.

    Tries monomial spaces of increasing degree; within a space the solution
    is the deterministic echelon particular solution, so the expression is
    reproducible.
    """
    target = op_vector(op)
    for k in range(max_degree + 1):
        mons = monomials_upto(spec.l_coalg, k)
        system = _column_matrix([op_vector(represent_word(spec, w)) for w in mons], target)
        sol = solve(*system) if system is not None else None
        if sol is not None:
            return {mons[i]: c for i, c in sol.items()}
    return None


def _triangular_ids_by_block(spec: RealizationSpec) -> dict:
    sizes = triangular_blocks(spec.l_coalg)
    if sizes is None:
        raise UnsupportedStructureError(
            "triangular antipode needs a cotriangular coalgebra L")
    return sizes


def _diagonal_inverses(spec: RealizationSpec, sizes: dict) -> dict:
    if spec.diag_pairs is None:
        raise PreconditionError("triangular antipode needs diagonal inverse pairs")
    failures = spec.validate()
    if failures:
        raise PreconditionError("; ".join(failures))
    inverse = dict(spec.diag_pairs)
    for block, n in sorted(sizes.items()):
        for i in range(1, n + 1):
            if BasisId.tri(i, i, block) not in inverse:
                raise PreconditionError(
                    f"no diagonal inverse pair supplied for {BasisId.tri(i, i, block)}")
    return inverse


def _system_checks(spec: RealizationSpec, ops: dict):
    """Yield (b, side, ok) for both antipode systems at each basis element b
    of L, left side first:

        sum c X(p) o Y(q)  =  eps(b) id  =  sum c Y(p) o X(q)   over delta(b).

    A side is composed only when it is asked for, so a caller that stops at
    the first failing side skips the rest.  For triangular L,
    delta(l[i,j]) = sum_k l[k,j] (x) l[i,k], and these are the two systems
    of the module docstring.
    """
    ident = op_identity(spec.f_ctx)
    for b in spec.l_coalg.basis:
        terms = spec.l_coalg.delta_terms(b)
        unit = [(ident, -spec.l_coalg.eps(b))]
        left = [(op_compose(lift_operator(spec, p), ops[q]), c) for p, q, c in terms]
        yield b, "left", op_combination(spec.f_ctx, left + unit).is_zero()
        right = [(op_compose(ops[p], lift_operator(spec, q)), c) for p, q, c in terms]
        yield b, "right", op_combination(spec.f_ctx, right + unit).is_zero()


def triangular_systems_ok(spec: RealizationSpec, ops: dict) -> bool:
    """Exact check of both antipode systems for a candidate table."""
    return all(ok for _, _, ok in _system_checks(spec, ops))


def antipode_triangular(spec: RealizationSpec) -> AntipodeTable:
    """Back-substitute the triangular antipode systems (decreasing j per i)."""
    sizes = _triangular_ids_by_block(spec)
    inverse = _diagonal_inverses(spec, sizes)
    ops = {}
    raw = {}
    entries = {}
    for block, n in sorted(sizes.items()):
        for i in range(1, n + 1):
            diag = BasisId.tri(i, i, block)
            ops[diag] = lift_operator(spec, inverse[diag])
            raw[diag] = {(inverse[diag],): ONE}
            entries[diag] = {(inverse[diag],): ONE}
            for j in range(i - 1, 0, -1):
                target = BasisId.tri(i, j, block)
                steps = [(BasisId.tri(k, j, block), BasisId.tri(i, k, block))
                         for k in range(j + 1, i + 1)]
                acc = op_combination(spec.f_ctx, [
                    (op_compose(lift_operator(spec, step), ops[rest]), -ONE)
                    for step, rest in steps
                ])
                acc_expr = {}
                for step, rest in steps:
                    vec_add_scaled(acc_expr, concat_product({(step,): ONE}, raw[rest]), ONE)
                diag_j = BasisId.tri(j, j, block)
                ops[target] = op_compose(ops[diag_j], acc)
                raw[target] = {
                    k: -c for k, c in concat_product(raw[diag_j], acc_expr).items()
                }
                reduced = reduce_expression(spec, ops[target], spec.max_degree)
                if reduced is None:
                    # fall back to the raw determination (always a section)
                    reduced = raw[target]
                entries[target] = reduced

    for b, expr in entries.items():
        if represent(spec, expr) != ops[b]:
            raise InternalInconsistencyError(f"expression for Y at {b} does not represent it")
    for b, expr in raw.items():
        if represent(spec, expr) != ops[b]:
            raise InternalInconsistencyError(f"raw expression for Y at {b} does not represent it")
    if not triangular_systems_ok(spec, ops):
        raise InternalInconsistencyError("triangular antipode systems failed to verify")
    return AntipodeTable(entries, raw, ops, "triangular", determination=dict(inverse))


def _composite_split_ok(spec: RealizationSpec, table: AntipodeTable, u: BasisId,
                       v: BasisId, bound: int) -> bool:
    """Y(u v) = Y(v) o Y(u) splits products by the product rule, summing
    over both intermediate indices."""
    outer = op_compose(table.ops[v], table.ops[u])
    parts = []
    for k1 in range(u.j, u.i + 1):
        for k2 in range(v.j, v.i + 1):
            left = op_compose(table.ops[BasisId.tri(v.i, k2, v.block)],
                              table.ops[BasisId.tri(u.i, k1, u.block)])
            right = op_compose(table.ops[BasisId.tri(k2, v.j, v.block)],
                               table.ops[BasisId.tri(k1, u.j, u.block)])
            parts.append((left, right, ONE))
    return split_witness(spec.f_ctx, outer, parts, bound) is None


def verify_Y_coproduct(spec: RealizationSpec, table: AntipodeTable, bound: int) -> CheckReport:
    """Operational form of delta(Y_i^j) = sum Y_i^k (x) Y_k^j: the antipode
    operators split products the way the coproduct formula says.

    Also checks composite indices (:func:`_composite_split_ok`) on all ordered
    pairs of off-diagonal ids and the mixed pairs (diag[0], off[0]) and
    (off[0], diag[0]), where the content is; on all pairs if none is off-diagonal.
    """
    report = CheckReport(f"antipode coproduct law at degree bound {bound}")
    sizes = triangular_blocks(spec.l_coalg)
    if sizes is None:
        raise UnsupportedStructureError("Y-coproduct law is for cotriangular L")
    ids = [b for b in spec.l_coalg.basis]
    for b in ids:
        parts = [
            (table.ops[BasisId.tri(b.i, k, b.block)],
             table.ops[BasisId.tri(k, b.j, b.block)], ONE)
            for k in range(b.j, b.i + 1)
        ]
        ok = split_witness(spec.f_ctx, table.ops[b], parts, bound) is None
        report.record(f"splitting of Y at {b}", ok)

    off = [b for b in ids if b.i != b.j]
    diag = [b for b in ids if b.i == b.j]
    pairs = [(u, v) for u in off for v in off]
    if off and diag:
        pairs.append((diag[0], off[0]))
        pairs.append((off[0], diag[0]))
    if not pairs:
        pairs = [(u, v) for u in ids for v in ids]
    for (u, v) in pairs:
        ok = _composite_split_ok(spec, table, u, v, bound)
        report.record(f"splitting of composite Y at ({u},{v})", ok)
    return report


def extend_antihom(spec: RealizationSpec, table: AntipodeTable, w, cap: int = None):
    """S^r: reverse the word, substitute the letterwise table, multiply out.

    Returns (element, truncated): with a degree cap, overlong product words
    are dropped and flagged.
    """
    if isinstance(w, tuple):
        w = {w: ONE}
    out = {}
    truncated = False
    for mono, coeff in w.items():
        acc = {(): coeff}
        for letter in reversed(mono):
            if letter not in table.entries:
                raise PreconditionError(f"no antipode table entry for letter {letter}")
            acc = concat_product(acc, table.entries[letter])
            if cap is not None:
                pruned = {u: c for u, c in acc.items() if len(u) <= cap}
                if len(pruned) != len(acc):
                    truncated = True
                    acc = pruned
        vec_add_scaled(out, acc, ONE)
    return out, truncated


@dataclass
class ClosureStage:
    index: int
    space_dim: int
    ideal_dim: int
    new_directions: int
    coideal_ok: bool


@dataclass
class ClosureResult:
    """Record of the S^r-closure iteration R_{n+1} = R_n + S^r(R_n)."""

    stages: list
    stabilized: bool
    stable_at: int
    degree_bound: int
    truncation: int
    final_basis: list
    quotient_dims: dict
    r0_coideal_ok: bool = True
    overflow: bool = False


def _span_from(elements) -> SpanBasis:
    span = SpanBasis(graded_key)
    for e in elements:
        span.add(e)
    return span


def closure_iterate(spec: RealizationSpec, table: AntipodeTable, r0,
                    max_stages: int, degree_bound: int) -> ClosureResult:
    """Iterate R_{n+1} = R_n + S^r(R_n) in the bounded monomial space.

    Stabilization is declared when every S^r image of the current basis lies
    in the bounded ideal span of R_n; each stage also verifies that the
    coideal defect of S^r(R_n) falls inside the next stage's ideal.  S^r
    images escaping the degree bound make the result non-certifiable
    (overflow flag, no stabilization claim).
    """
    if isinstance(r0, RelationSpace):
        r0 = r0.basis
    current = _span_from(r0)
    ideal = ideal_span(spec.l_coalg, current.basis(), degree_bound)
    r0_coideal_ok = all(
        not pair_reduce(ideal, delta_on_l_element(spec, rel))
        for rel in current.basis()
    )

    stages = []
    stabilized = False
    stable_at = None
    overflow = False
    for stage in range(max_stages + 1):
        basis = current.basis()
        images = []
        stage_overflow = False
        for rel in basis:
            img, truncated = extend_antihom(spec, table, rel, cap=degree_bound)
            stage_overflow = stage_overflow or truncated
            images.append(img)
        overflow = overflow or stage_overflow
        contained = (not stage_overflow) and all(ideal.contains(img) for img in images)

        nxt = _span_from(basis)
        new_directions = 0
        for img in images:
            if nxt.add(img):
                new_directions += 1
        ideal_next = ideal if new_directions == 0 else ideal_span(
            spec.l_coalg, nxt.basis(), degree_bound)
        coideal_ok = all(
            not pair_reduce(ideal_next, delta_on_l_element(spec, img))
            for img in images
        )
        stages.append(ClosureStage(stage, current.dim, ideal.dim,
                                   new_directions, coideal_ok))
        if contained:
            stabilized = True
            stable_at = stage
            break
        current = nxt
        ideal = ideal_next

    final_basis = current.basis()
    quotient = {k: len(ideal.standard_words(k)) for k in range(degree_bound + 1)}
    return ClosureResult(stages, stabilized, stable_at, degree_bound,
                         spec.max_degree, final_basis, quotient,
                         r0_coideal_ok=r0_coideal_ok, overflow=overflow)


def verify_hopf_quotient(spec: RealizationSpec, table: AntipodeTable,
                         closure: ClosureResult, degree_bound: int) -> CheckReport:
    """Both antipode identities modulo the closure ideal, on all monomials of
    degree <= min(2, degree_bound), plus a re-check that the ideal is a coideal.

    Test vectors may exceed the closure bound (S^r stretches words); each
    membership uses an ideal span computed at the vector's own degree and
    the report line carries that bound.
    """
    if not closure.stabilized:
        raise PreconditionError("hopf quotient check needs a stabilized closure")
    from .fmt import format_word

    report = CheckReport(f"hopf quotient axioms at degree bound {degree_bound}")
    gens = closure.final_basis
    ctx = l_context(spec)
    span_cache = {}

    def bounded_ideal(bound):
        if bound not in span_cache:
            span_cache[bound] = ideal_span(spec.l_coalg, gens, bound)
        return span_cache[bound]

    for w in monomials_upto(spec.l_coalg, min(2, degree_bound)):
        pairs = word_coproduct(ctx, w)
        left = {}
        right = {}
        for (w1, w2), coeff in pairs.items():
            s1, t1 = extend_antihom(spec, table, w1)
            s2, t2 = extend_antihom(spec, table, w2)
            if t1 or t2:
                raise InternalInconsistencyError("uncapped S^r truncated")
            vec_add_scaled(left, concat_product(s1, {w2: ONE}), coeff)
            vec_add_scaled(right, concat_product({w1: ONE}, s2), coeff)
        eps = eps_extension(spec.l_coalg, w)
        for vec, tag in ((left, "sum S(w')w''"), (right, "sum w'S(w'')")):
            test = vec_add_scaled(dict(vec), {(): ONE}, -eps)
            bound = max(degree_bound, max((len(u) for u in test), default=0))
            ok = bounded_ideal(bound).contains(test)
            report.record(
                f"{tag} = eps(w)1 mod ideal for w={format_word(w)} [ideal bound {bound}]",
                ok)

    ideal_d = bounded_ideal(degree_bound)
    for g in gens:
        ok = not pair_reduce(ideal_d, delta_on_l_element(spec, g))
        report.record(
            f"closure ideal coideal property on generator [bound {degree_bound}]", ok)
    return report


def operator_algebra_basis(spec: RealizationSpec, bound: int) -> list:
    """Monomials (graded-lex order) whose pi-images form a basis of the span
    of pi(monomials of degree <= bound), with those images; cached on the spec.

    A monomial belongs to the basis iff its image is independent of the
    images of the monomials before it, i.e. iff it is not the free (last)
    column of a vector of the canonical kernel basis of pi on the same
    monomials, so only the basis monomials are composed.
    """
    key = ("opalg", bound)
    if key in spec._cache:
        return spec._cache[key]
    mons = monomials_upto(spec.l_coalg, bound)
    order = {w: i for i, w in enumerate(mons)}
    free = {max(rel, key=order.__getitem__)
            for rel in relation_kernel_upto(spec, bound).basis}
    basis = [(w, represent_word(spec, w)) for w in mons if w not in free]
    spec._cache[key] = basis
    return basis


def antipode_general(spec: RealizationSpec, bound: int):
    """Joint exact solve of both convolution systems inside the bounded
    operator algebra; None when infeasible at this bound.

    On success the table records the expressions in the monomial basis, a
    uniqueness flag (trivial solution space), and a verification report
    including the reversed-coproduct law in operational form.
    """
    alg = operator_algebra_basis(spec, bound)
    basis_l = list(spec.l_coalg.basis)
    r = len(alg)

    lifts = {b: lift_operator(spec, b) for b in basis_l}
    xa = {}
    ax = {}
    for b in basis_l:
        for s, (_, a_op) in enumerate(alg):
            xa[(b, s)] = op_vector(op_compose(lifts[b], a_op))
            ax[(b, s)] = op_vector(op_compose(a_op, lifts[b]))

    ident_vec = op_vector(op_identity(spec.f_ctx))
    columns = {(b, s): {} for b in basis_l for s in range(r)}  # column bi * r + s
    rhs = {}
    for b in basis_l:
        for (p, q, c) in spec.l_coalg.delta_terms(b):
            for s in range(r):
                vec_add_scaled(columns[(q, s)],
                               {("L", b, key): v for key, v in xa[(p, s)].items()}, c)
                vec_add_scaled(columns[(p, s)],
                               {("R", b, key): v for key, v in ax[(q, s)].items()}, c)
        eps = spec.l_coalg.eps(b)
        if eps:
            for key, v in ident_vec.items():
                rhs[("L", b, key)] = eps * v
                rhs[("R", b, key)] = eps * v

    system = _column_matrix(list(columns.values()), rhs)
    sol = solve(*system) if system is not None else None
    if sol is None:
        return None
    unique = not kernel_basis(system[0])

    entries_out = {}
    ops_out = {}
    for bi, b in enumerate(basis_l):
        expr = {}
        parts = []
        for s in range(r):
            c = sol.get(bi * r + s, ZERO)
            if c:
                mono, a_op = alg[s]
                expr[mono] = c
                parts.append((a_op, c))
        entries_out[b] = expr
        ops_out[b] = op_combination(spec.f_ctx, parts)

    report = CheckReport(f"general antipode verification at bound {bound}")
    for b, side, ok in _system_checks(spec, ops_out):
        report.record(f"{side} system at {b}", ok)
        if side == "right":
            parts = [(ops_out[q], ops_out[p], c) for (p, q, c) in spec.l_coalg.delta_terms(b)]
            law_ok = split_witness(spec.f_ctx, ops_out[b], parts, bound) is None
            report.record(f"reversed coproduct law at {b}", law_ok)
    if not all(ok for d, ok in report.checks if "system" in d):
        raise InternalInconsistencyError("general antipode solve failed re-verification")

    return AntipodeTable(entries_out, dict(entries_out), ops_out, "general",
                         unique=unique, report=report)


def verify_uniqueness_perturbations(spec: RealizationSpec, table: AntipodeTable,
                                    bound: int = None) -> CheckReport:
    """Randomized uniqueness witness: adding a nonzero element of the bounded
    operator algebra to some Y entry must break one of the systems, in each
    of 10 trials.

    Seeded, so reports stay byte-identical run to run.
    """
    bound = bound if bound is not None else spec.max_degree
    alg = operator_algebra_basis(spec, bound)
    rng = random.Random(7919)
    ids = sorted(table.ops)
    report = CheckReport("uniqueness under perturbation (10 trials)")
    for t in range(10):
        target = ids[rng.randrange(len(ids))]
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in alg]
        coeffs[rng.randrange(len(alg))] = Fraction(rng.choice([1, -1, 2]))
        perturbed = dict(table.ops)
        perturbed[target] = op_combination(spec.f_ctx, [(table.ops[target], ONE)] + [
            (op, c) for (_, op), c in zip(alg, coeffs)])
        broke = not triangular_systems_ok(spec, perturbed)
        report.record(f"trial {t}: perturbing Y at {target} breaks a system", broke)
    return report
