"""Parser for realization description files.

The format is line-based with brace-delimited sections; ``#`` starts a
comment.  Rational literals are exact ``p/q`` strings.  A document declares
named algebras, named coalgebras built from them (``dual``, ``triangular n``
or ``sum`` of earlier names), one realization (the coalgebras L and F, the
table x, optional diagonal inverse pairs) and parameters::

    algebra M2 {
      basis e11 e12 e22
      unit e11 1, e22 1
      mul e11 e11 = e11 1
      mul e11 e12 = e12 1
      mul e12 e22 = e12 1
      mul e22 e22 = e22 1
    }
    coalgebra F = dual M2
    coalgebra L = triangular 2
    realization {
      l L
      f F
      x l[1,1] = id 1
      x l[2,1] = form e12 1
      x l[2,2] = id 1
      diag l[1,1] l[1,1]
      diag l[2,2] l[2,2]
    }
    params {
      truncation 3
      max-degree 3
      max-stages 4
    }

The format is strictly line-based: a block header ends with ``{``, one
statement per line, ``}`` alone closes the block.
Unlisted products are zero; ``x ID = 0`` is the zero operator.  Basis
elements of a direct sum are addressed as ``SUMMAND.LABEL``.  Syntax
problems raise :class:`ParseError` with line and column, dangling names
raise :class:`ResolutionError`, and structural problems raise
:class:`ValidationError` listing every failure.
"""

from __future__ import annotations

import re

from .coalgebra import (
    AlgebraPresentation,
    direct_sum,
    dual_coalgebra,
    triangular_coalgebra,
)
from .errors import ParseError, ResolutionError, ResourceLimitError, ValidationError
from .exactlin import scalar
from .free_tensor import TensorContext
from .invariant import RIOp
from .lifting import RealizationSpec

_TOKEN = re.compile(
    r"(?P<id>[A-Za-z_][A-Za-z0-9_.-]*(\[\d+,\d+\])?)"
    r"|(?P<rat>-?\d+(/\d+)?)"
    r"|(?P<punct>[{}=,])"
    r"|(?P<ws>\s+)"
)


class _Tok:
    def __init__(self, line: int, col: int, text: str, kind: str):
        self.line = line
        self.col = col
        self.text = text
        self.kind = kind  # "id" | "rat" | "punct"


def _tokenize(text: str) -> list:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = []
        pos = 0
        while pos < len(body):
            m = _TOKEN.match(body, pos)
            if m is None:
                raise ParseError(lineno, pos + 1, f"unexpected character {body[pos]!r}")
            pos = m.end()
            kind = m.lastgroup
            if kind == "ws":
                continue
            toks.append(_Tok(lineno, m.start() + 1, m.group(), kind))
        if toks:
            lines.append(toks)
    return lines


class RealizationInput:
    def __init__(self, l_name: str = None, f_name: str = None, x_table: dict = None,
                 diag_pairs: list = None):
        self.l_name = l_name
        self.f_name = f_name
        self.x_table = {} if x_table is None else x_table   # BasisId -> RIOp
        self.diag_pairs = diag_pairs


class InputDocument:
    def __init__(self, algebras: dict = None, coalgebras: dict = None,
                 coalgebra_defs: dict = None, labels: dict = None,
                 realization: RealizationInput = None, truncation: int = 3,
                 max_degree: int = 3, max_stages: int = 4):
        self.algebras = {} if algebras is None else algebras
        self.coalgebras = {} if coalgebras is None else coalgebras
        self.coalgebra_defs = {} if coalgebra_defs is None else coalgebra_defs  # name -> description
        self.labels = {} if labels is None else labels   # name -> {label: BasisId}
        self.realization = realization
        self.truncation = truncation
        self.max_degree = max_degree
        self.max_stages = max_stages

    def display_labels(self, name: str) -> dict:
        return {b: lab for lab, b in self.labels.get(name, {}).items()}


class _Parser:
    def __init__(self, text):
        self.lines = _tokenize(text)
        self.idx = 0
        self.doc = InputDocument()

    def error(self, tok, message):
        raise ParseError(tok.line, tok.col, message)

    def line_error(self, toks, message):
        raise ParseError(toks[0].line, toks[0].col, message)

    def number(self, tok, kind=scalar):
        """A numeric token as a canonical exact scalar, or as an int for counts."""
        try:
            return kind(tok.text)
        except ZeroDivisionError:
            self.error(tok, f"zero denominator in {tok.text!r}")
        except ValueError:
            self.error(tok, f"expected an integer, got {tok.text!r}")

    def next_line(self):
        if self.idx >= len(self.lines):
            return None
        toks = self.lines[self.idx]
        self.idx += 1
        return toks

    # --- terms: NAME COEFF[, NAME COEFF]* ------------------------------------

    def parse_terms(self, toks, start, resolve):
        """Parse name/coefficient pairs; resolve maps a token to a key."""
        out = {}
        i = start
        while i < len(toks):
            name = toks[i]
            if name.kind != "id":
                self.error(name, f"expected a basis name, got {name.text!r}")
            if i + 1 >= len(toks) or toks[i + 1].kind != "rat":
                self.error(name, f"expected a rational coefficient after {name.text!r}")
            key = resolve(name)
            coeff = self.number(toks[i + 1])
            if coeff:
                out[key] = scalar(out.get(key, 0) + coeff)
            i += 2
            if i < len(toks):
                if toks[i].text != ",":
                    self.error(toks[i], "expected ',' between terms")
                i += 1
        return {k: v for k, v in out.items() if v}

    # --- algebra blocks -------------------------------------------------------

    def parse_algebra(self, header):
        if len(header) != 3 or header[1].kind != "id" or header[2].text != "{":
            self.line_error(header, "expected: algebra NAME {")
        name = header[1].text
        if name in self.doc.algebras:
            self.error(header[1], f"algebra {name!r} already defined")
        basis = None
        unit = None
        products = {}

        def resolve(tok):
            if basis is None:
                self.error(tok, "basis must be declared before use")
            if tok.text not in basis_index:
                self.error(tok, f"unknown basis name {tok.text!r}")
            return basis_index[tok.text]

        while True:
            toks = self.next_line()
            if toks is None:
                raise ParseError(header[0].line, header[0].col,
                                 f"algebra {name!r} is never closed")
            if toks[0].text == "}":
                break
            stmt = toks[0].text
            if stmt == "basis":
                basis = [t.text for t in toks[1:]]
                if not basis or any(t.kind != "id" for t in toks[1:]):
                    self.line_error(toks, "expected: basis NAME...")
                if len(set(basis)) != len(basis):
                    self.line_error(toks, "duplicate basis name")
                basis_index = {n: k for k, n in enumerate(basis)}
            elif stmt == "unit":
                unit = self.parse_terms(toks, 1, resolve)
            elif stmt == "mul":
                if len(toks) < 4 or toks[3].text != "=":
                    self.line_error(toks, "expected: mul A B = TERMS")
                a = resolve(toks[1])
                b = resolve(toks[2])
                if len(toks) == 5 and toks[4].text == "0":
                    expansion = {}
                else:
                    expansion = self.parse_terms(toks, 4, resolve)
                if expansion:
                    products[(a, b)] = expansion
            else:
                self.error(toks[0], f"unknown algebra statement {stmt!r}")
        if basis is None:
            raise ParseError(header[0].line, header[0].col,
                             f"algebra {name!r} has no basis")
        if unit is None:
            raise ParseError(header[0].line, header[0].col,
                             f"algebra {name!r} has no unit")
        self.doc.algebras[name] = AlgebraPresentation(
            len(basis), products, unit, tuple(basis))

    # --- coalgebra definitions ------------------------------------------------

    def parse_coalgebra(self, toks):
        if len(toks) < 4 or toks[1].kind != "id" or toks[2].text != "=":
            self.line_error(toks, "expected: coalgebra NAME = dual A | triangular N | sum A B...")
        name = toks[1].text
        if name in self.doc.coalgebras:
            self.error(toks[1], f"coalgebra {name!r} already defined")
        kind = toks[3].text
        if kind == "dual":
            if len(toks) != 5:
                self.line_error(toks, "expected: coalgebra NAME = dual ALGEBRA")
            alg_name = toks[4].text
            if alg_name not in self.doc.algebras:
                raise ResolutionError(alg_name, f"unknown algebra {alg_name!r}")
            alg = self.doc.algebras[alg_name]
            coalg = dual_coalgebra(alg)
            labels = {alg.name_of(b.i): b for b in coalg.basis}
            self.doc.coalgebra_defs[name] = f"dual of algebra {alg_name}"
        elif kind == "triangular":
            if len(toks) != 5 or toks[4].kind != "rat":
                self.line_error(toks, "expected: coalgebra NAME = triangular N")
            n = self.number(toks[4], int)
            if n < 1:
                raise ValidationError([f"triangular size must be >= 1, got {n}"])
            coalg = triangular_coalgebra(n)
            labels = {str(b): b for b in coalg.basis}
            self.doc.coalgebra_defs[name] = f"triangular coalgebra of size {n}"
        elif kind == "sum":
            parts = [t.text for t in toks[4:]]
            if not parts:
                self.line_error(toks, "expected: coalgebra NAME = sum A B...")
            if len(set(parts)) != len(parts):
                self.line_error(toks, "direct sum summands must be distinct names")
            summands = []
            for p in parts:
                if p not in self.doc.coalgebras:
                    raise ResolutionError(p, f"unknown coalgebra {p!r}")
                summands.append(self.doc.coalgebras[p])
            coalg = direct_sum(summands)
            # direct_sum renumbers the blocks consecutively and in increasing
            # order, summand after summand, so the sorted basis of the sum is
            # each summand's sorted basis, retagged, one after another.
            labels = {}
            start = 0
            for pname, c in zip(parts, summands):
                retagged = dict(zip(c.basis, coalg.basis[start:start + c.dim]))
                start += c.dim
                for lab, b in self.doc.labels[pname].items():
                    labels[f"{pname}.{lab}"] = retagged[b]
            self.doc.coalgebra_defs[name] = "direct sum of " + ", ".join(parts)
        else:
            self.error(toks[3], f"unknown coalgebra construction {kind!r}")
        self.doc.coalgebras[name] = coalg
        self.doc.labels[name] = labels

    # --- realization and params ----------------------------------------------

    def collect_block(self, header, opener):
        if header[-1].text != "{":
            self.line_error(header, f"expected: {opener} {{")
        body = []
        while True:
            toks = self.next_line()
            if toks is None:
                raise ParseError(header[0].line, header[0].col,
                                 f"{opener} block is never closed")
            if toks[0].text == "}":
                return body
            body.append(toks)

    def parse_params(self, body):
        for toks in body:
            stmt = toks[0].text
            if len(toks) != 2 or toks[1].kind != "rat":
                self.line_error(toks, f"expected: {stmt} N")
            value = self.number(toks[1], int)
            if stmt == "truncation":
                self.doc.truncation = value
            elif stmt == "max-degree":
                self.doc.max_degree = value
            elif stmt == "max-stages":
                self.doc.max_stages = value
            else:
                self.error(toks[0], f"unknown parameter {stmt!r}")

    def resolve_label(self, coalg_name, tok):
        labels = self.doc.labels[coalg_name]
        if tok.text not in labels:
            raise ResolutionError(
                tok.text, f"unknown basis label {tok.text!r} in coalgebra {coalg_name!r}")
        return labels[tok.text]

    def parse_realization(self, body):
        real = RealizationInput()
        x_lines = []
        diag_lines = []
        for toks in body:
            stmt = toks[0].text
            if stmt == "l":
                if len(toks) != 2:
                    self.line_error(toks, "expected: l NAME")
                real.l_name = toks[1].text
            elif stmt == "f":
                if len(toks) != 2:
                    self.line_error(toks, "expected: f NAME")
                real.f_name = toks[1].text
            elif stmt == "x":
                x_lines.append(toks)
            elif stmt == "diag":
                diag_lines.append(toks)
            else:
                self.error(toks[0], f"unknown realization statement {stmt!r}")
        if real.l_name is None or real.f_name is None:
            raise ValidationError(["realization must name both l and f"])
        for name in (real.l_name, real.f_name):
            if name not in self.doc.coalgebras:
                raise ResolutionError(name, f"unknown coalgebra {name!r}")

        for toks in x_lines:
            if len(toks) < 4 or toks[2].text != "=":
                self.line_error(toks, "expected: x LID = 0 | id C | form FID C, ...")
            lid = self.resolve_label(real.l_name, toks[1])
            if lid in real.x_table:
                self.error(toks[1], f"duplicate x entry for {toks[1].text!r}")
            id_coeff = 0
            form = {}
            i = 3
            if len(toks) == 4 and toks[3].text == "0":
                i = 4
            while i < len(toks):
                part = toks[i].text
                if part == "id":
                    if i + 1 >= len(toks) or toks[i + 1].kind != "rat":
                        self.error(toks[i], "expected: id C")
                    id_coeff = scalar(id_coeff + self.number(toks[i + 1]))
                    i += 2
                elif part == "form":
                    if i + 2 >= len(toks) or toks[i + 2].kind != "rat":
                        self.error(toks[i], "expected: form FID C")
                    fid = self.resolve_label(real.f_name, toks[i + 1])
                    form[fid] = scalar(form.get(fid, 0) + self.number(toks[i + 2]))
                    i += 3
                else:
                    self.error(toks[i], f"expected 'id' or 'form', got {part!r}")
                if i < len(toks):
                    if toks[i].text != ",":
                        self.error(toks[i], "expected ',' between operator parts")
                    i += 1
            real.x_table[lid] = RIOp(id_coeff, form)

        if diag_lines:
            real.diag_pairs = []
            for toks in diag_lines:
                if len(toks) != 3:
                    self.line_error(toks, "expected: diag LID LID")
                real.diag_pairs.append((
                    self.resolve_label(real.l_name, toks[1]),
                    self.resolve_label(real.l_name, toks[2]),
                ))
        self.doc.realization = real

    def parse(self) -> InputDocument:
        realization_body = None
        while True:
            toks = self.next_line()
            if toks is None:
                break
            head = toks[0].text
            if head == "algebra":
                self.parse_algebra(toks)
            elif head == "coalgebra":
                self.parse_coalgebra(toks)
            elif head == "realization":
                if realization_body is not None:
                    self.line_error(toks, "duplicate realization block")
                realization_body = self.collect_block(toks, "realization")
            elif head == "params":
                self.parse_params(self.collect_block(toks, "params"))
            else:
                self.error(toks[0], f"unknown top-level statement {head!r}")
        if realization_body is None:
            raise ValidationError(["document has no realization block"])
        self.parse_realization(realization_body)
        return self.doc


def parse_input(text: str) -> InputDocument:
    return _Parser(text).parse()


# Size limits of a window: the words of T(F) up to the truncation N, and the
# monomials of T(L) up to the degree bound d.  The shipped fixtures and the
# benchmark workloads stay under 400 words and 130 monomials.  No stage builds
# a word of degree N + 1 (the N + 1 kernel is one more layer of the image walk),
# and no stage forms a block on T(F): the verify stages decide T(F)'s laws from
# F's letters.  The word limit stays until the image walk's own cost is capped.
MAX_WINDOW_WORDS = 50_000
MAX_WINDOW_MONOMIALS = 50_000


def _graded_count(dim: int, degree: int, limit: int) -> int:
    """sum of dim**n over n <= degree, or the first partial sum past limit
    (at most limit + 1 terms are needed: each is at least 1 once dim >= 1)."""
    total, term = 0, 1
    for _ in range(min(degree, limit) + 1):
        total += term
        if total > limit:
            break
        term *= dim
    return total


def preflight(doc: InputDocument) -> None:
    """Refuse window parameters out of range (ValidationError, one failure
    per parameter) and a window past MAX_WINDOW_WORDS or
    MAX_WINDOW_MONOMIALS (ResourceLimitError), before any word basis or
    monomial list exists.  Every run passes here after its overrides."""
    failures = [f"parameter {name} must be {rule}, got {value}"
                for name, value, low, rule in (("truncation", doc.truncation, 1, "positive"),
                                               ("max-degree", doc.max_degree, 1, "positive"),
                                               ("max-stages", doc.max_stages, 0, ">= 0"))
                if value < low]
    if failures:
        raise ValidationError(failures)
    real = doc.realization
    for space, name, degree, unit, limit_name, limit in (
            ("T(F)", real.f_name, doc.truncation, "words",
             "MAX_WINDOW_WORDS", MAX_WINDOW_WORDS),
            ("T(L)", real.l_name, doc.max_degree, "monomials",
             "MAX_WINDOW_MONOMIALS", MAX_WINDOW_MONOMIALS)):
        dim = doc.coalgebras[name].dim
        if _graded_count(dim, degree, limit) > limit:
            raise ResourceLimitError(
                f"window too large: {space} up to degree {degree} has more than {limit} "
                f"{unit} (dim {name} = {dim}); the limit is {limit_name} = {limit}")


def build_spec(doc: InputDocument) -> RealizationSpec:
    """Realize the document: checks x covers the basis of L and the diagonal
    pairs are genuine inverses (ValidationError lists every failure, each
    element named by its document label), after the window preflight."""
    preflight(doc)
    real = doc.realization
    ctx = TensorContext(doc.coalgebras[real.f_name], doc.truncation)
    spec = RealizationSpec(doc.coalgebras[real.l_name], ctx, real.x_table, real.diag_pairs)
    failures = spec.validate(doc.display_labels(real.l_name))
    if failures:
        raise ValidationError(failures)
    return spec
