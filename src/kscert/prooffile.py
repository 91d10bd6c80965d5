"""Plain-text proof files and derivation records.

Input files are line-oriented, hand-editable and diff-able:

    dim 4
    mode auto
    ray  r1  0 0 0 1
    pauli a11 +XI
    matrix m1 spectrum 0,1
    row 1 0
    row 0 0
    context a11 a12 a13
    poly c=4 a11*a12*a13 - 1

Scalar tokens are exact: rationals (`-3/2`), the imaginary unit (`i`,
`2i`), and sqrt2 written `r2` (`-r2`, `1/2r2`), combinable as `1+i` or
`(1+i)` inside polynomial expressions.  There, a bare `i`, `r2` or `r2i`
that labels an observable is that observable.

Exports append a `=== derived ===` section with the complete set, F, the
presented score, bounds and a content hash; the parser reads only the
input section, so a record round-trips through parse -> re-derive ->
export byte-identically.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .compat import validate_context
from .errors import KSCertError, ParseError
from .exact import _FR0, ExactMatrix, Scalar
from .model import ObservableSet, make_observable, pauli_observable
from .poly import Poly, make_context_polynomial, render

DERIVED_MARKER = "=== derived ==="

MODES = ("ray", "bases-only", "parity", "general", "auto")

_SCALAR_TERM = re.compile(r"^(\d+(?:/\d+)?)?(r2)?(i)?$")


def _rational(text: str, line: Optional[int]) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}", line) from None


def _positive_int(text: str, line: Optional[int], message: str) -> int:
    """A positive decimal integer; ParseError(message) otherwise, also when
    int() refuses the digits (more than sys.get_int_max_str_digits())."""
    try:
        value = int(text) if text.isdigit() else 0
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(message, line)
    return value


def parse_scalar(token: str, line: Optional[int] = None) -> Scalar:
    """Parse an exact scalar token like `-3/2`, `i`, `r2`, `1+i`, `2r2i`;
    ParseError, with the line number, on a bad one.  parse reads each
    distinct ray or row token once per call and shares the immutable
    Scalar."""
    s = token.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s:
        raise ParseError("empty scalar", line)
    # split into signed terms; a term adds to the component its tags name
    parts = [_FR0] * 4  # a + b sqrt2 + (c + d sqrt2) i
    for t in re.findall(r"[+-]?[^+-]+", s.replace(" ", "")):
        negative = t[0] == "-"
        if t[0] in "+-":
            t = t[1:]
        m = _SCALAR_TERM.match(t)
        if not m or (not m.group(1) and not m.group(2) and not m.group(3)):
            raise ParseError(f"bad scalar term {t!r} in {token!r}", line)
        q = _rational(m.group(1), line) if m.group(1) else Fraction(1)
        k = bool(m.group(2)) + 2 * bool(m.group(3))
        parts[k] += -q if negative else q
    return Scalar._make(*parts)


@dataclass
class ObsDecl:
    kind: str  # "ray" | "pauli" | "matrix"
    label: str
    vector: Optional[tuple] = None  # ray
    pauli: Optional[str] = None  # signed word
    rows: Optional[list] = None  # matrix rows of Scalar
    spectrum: Optional[tuple] = None
    line: Optional[int] = None  # in its file; None in proof_file_from_set's


@dataclass
class ContextDecl:
    labels: list
    line: Optional[int] = None  # as ObsDecl's


@dataclass
class PolyDecl:
    c: Optional[Fraction]  # None when the file declares no c=
    terms: list  # [(Scalar coef, [(label, exp), ...]), ...]
    source: str
    line: Optional[int] = None  # as ObsDecl's


@dataclass
class ProofFile:
    dim: int
    mode: str = "auto"
    observables: List[ObsDecl] = field(default_factory=list)
    contexts: List[ContextDecl] = field(default_factory=list)
    polynomials: List[PolyDecl] = field(default_factory=list)

    def to_observable_set(self) -> ObservableSet:
        # a file with no observables has nothing to prove, and a constant
        # member would be evaluated as a dim x dim matrix
        if not self.observables:
            raise ParseError("the file declares no observables")
        oset = ObservableSet(dim=self.dim)
        try:
            for d in self.observables:  # add checks each one's dimension
                if d.kind == "ray":
                    oset.add_ray(d.vector, d.label)
                elif d.kind == "pauli":
                    oset.add(pauli_observable(d.pauli, d.label))
                else:
                    oset.add(make_observable(ExactMatrix(d.rows), spectrum=d.spectrum, label=d.label))
            for d in self.contexts:
                ids = [oset.by_label(l) for l in d.labels]
                oset.declared_contexts.append(validate_context(oset, ids))
        except KSCertError as ex:  # the error of declaration d, at its line
            raise ParseError(str(ex), d.line) from None
        return oset

    def to_polynomials(self, oset: ObservableSet) -> list:
        out = []
        labels = set(oset.labels)
        try:
            for decl in self.polynomials:
                p = Poly()
                for coef, factors in decl.terms:
                    mono = {}
                    for label, exp in factors:
                        if label not in labels and _SCALAR_TERM.match(label):  # i, r2, r2i
                            if exp != 1:  # a scalar takes no exponent
                                raise KSCertError("unexpected token '^' after term")
                            coef = coef * parse_scalar(label)
                            continue
                        i = oset.by_label(label)
                        mono[i] = mono.get(i, 0) + exp
                    p = p + Poly({tuple(sorted(mono.items())): coef})
                validate_context(oset, p.variables())
                out.append(make_context_polynomial(p, oset, c=decl.c))
        except KSCertError as ex:  # the error of declaration decl, at its line
            raise ParseError(str(ex), decl.line) from None
        return out


# -- polynomial expression parsing -------------------------------------------

_TOKEN = re.compile(
    r"\s*(\(|\)|\*|\^|\+|-|[A-Za-z_][A-Za-z_0-9]*|\d+(?:/\d+)?(?:r2)?i?)"
)


def _tokenize_expr(s: str, line):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"cannot tokenize polynomial near {s[pos:pos+12]!r}", line)
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_poly_expr(s: str, line: Optional[int] = None) -> list:
    """Parse `2*a*b^2 - (1+i)*c + 1` into [(Scalar, [(label, exp), ...]), ...].
    Every word is a factor, i, r2 and r2i too: ProofFile.to_polynomials
    reads such a word as that scalar unless an observable has it as label."""
    toks = _tokenize_expr(s, line)
    terms = []
    idx = 0

    def peek():
        return toks[idx] if idx < len(toks) else None

    while idx < len(toks):
        sign = 1
        while peek() in ("+", "-"):
            if toks[idx] == "-":
                sign = -sign
            idx += 1
        if peek() is None:
            raise ParseError("dangling sign in polynomial", line)
        coef = Scalar(sign)
        factors = []
        while True:
            tok = peek()
            if tok == "(":
                # parenthesized exact scalar
                if ")" not in toks[idx:]:
                    raise ParseError("unclosed parenthesis in polynomial", line)
                depth_end = toks.index(")", idx)
                coef = coef * parse_scalar("".join(toks[idx + 1 : depth_end]), line)
                idx = depth_end + 1
            elif tok is not None and re.match(r"^[A-Za-z_]", tok):
                label = tok
                idx += 1
                exp = 1
                if peek() == "^":
                    idx += 1
                    exp = _positive_int(peek() or "", line, "exponent must be a positive integer")
                    idx += 1
                factors.append((label, exp))
            elif tok is not None and _SCALAR_TERM.match(tok):
                coef = coef * parse_scalar(tok, line)
                idx += 1
            elif tok is None:
                raise ParseError("unexpected end of polynomial", line)
            else:
                raise ParseError(f"unexpected token {tok!r} in polynomial", line)
            if peek() == "*":
                idx += 1
                continue
            break
        terms.append((coef, factors))
        if peek() not in (None, "+", "-"):
            raise ParseError(f"unexpected token {peek()!r} after term", line)
    if not terms:
        raise ParseError("empty polynomial expression", line)
    return terms


# -- file parsing -------------------------------------------------------------


def _check_rows(matrix: ObsDecl, dim: int, line: int) -> None:
    """ParseError at line, where the matrix declaration ended, unless it has
    dim rows."""
    if len(matrix.rows) != dim:
        raise ParseError(
            f"matrix {matrix.label} has {len(matrix.rows)} rows, expected {dim}", line
        )


def parse(text: str) -> ProofFile:
    dim = None
    mode = "auto"
    observables: List[ObsDecl] = []
    contexts: List[ContextDecl] = []
    polynomials: List[PolyDecl] = []
    pending_matrix: Optional[ObsDecl] = None
    scalars = {}  # token -> Scalar, for the tokens parsed without error

    def scalar(token: str, lineno: int) -> Scalar:
        s = scalars.get(token)
        if s is None:
            s = scalars[token] = parse_scalar(token, lineno)
        return s

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == DERIVED_MARKER:
            break
        parts = line.split()
        head = parts[0]
        if pending_matrix is not None and head != "row":
            _check_rows(pending_matrix, dim, lineno)
            pending_matrix = None
        if head in ("ray", "pauli", "matrix") and dim is None:
            raise ParseError("dim must come before observables", lineno)
        if head == "dim":
            dim = _positive_int(
                parts[1] if len(parts) == 2 else "", lineno, "dim takes one positive integer"
            )
        elif head == "mode":
            if len(parts) != 2 or parts[1] not in MODES:
                raise ParseError("mode must be " + " | ".join(MODES), lineno)
            mode = parts[1]
        elif head == "ray":
            if len(parts) < 3:
                raise ParseError("ray takes a label and components", lineno)
            vec = tuple(scalar(t, lineno) for t in parts[2:])
            observables.append(ObsDecl(kind="ray", label=parts[1], vector=vec, line=lineno))
        elif head == "pauli":
            if len(parts) != 3 or not re.match(r"^[+-]?[IXYZ]+$", parts[2]):
                raise ParseError(
                    "pauli takes a label and a signed word over I, X, Y, Z", lineno
                )
            observables.append(ObsDecl(kind="pauli", label=parts[1], pauli=parts[2], line=lineno))
        elif head == "matrix":
            if len(parts) < 2:
                raise ParseError("matrix takes a label", lineno)
            spectrum = None
            if len(parts) == 4 and parts[2] == "spectrum":
                spectrum = tuple(_rational(x, lineno) for x in parts[3].split(","))
            elif len(parts) != 2:
                raise ParseError("matrix syntax: matrix LABEL [spectrum a,b,...]", lineno)
            pending_matrix = ObsDecl(
                kind="matrix", label=parts[1], rows=[], spectrum=spectrum, line=lineno
            )
            observables.append(pending_matrix)
        elif head == "row":
            if pending_matrix is None:
                raise ParseError("row outside a matrix declaration", lineno)
            row = [scalar(t, lineno) for t in parts[1:]]
            if len(row) != dim:
                raise ParseError(f"row has {len(row)} entries, expected {dim}", lineno)
            pending_matrix.rows.append(row)
        elif head == "context":
            if len(parts) < 2:
                raise ParseError("context takes observable labels", lineno)
            contexts.append(ContextDecl(parts[1:], lineno))
        elif head == "poly":
            rest = line[len("poly") :].strip()
            c = None
            if rest.startswith("c="):  # a first word c=... declares c
                text, rest = re.match(r"c=(\S*)\s*(.*)", rest).groups()
                if not re.fullmatch(r"-?\d+(?:/\d+)?", text):
                    raise ParseError(
                        f"c must be an integer or a fraction N/M, not {text!r}", lineno)
                c = _rational(text, lineno)
                if c <= 0:
                    raise ParseError("c must be positive", lineno)
            terms = parse_poly_expr(rest, lineno)
            polynomials.append(PolyDecl(c=c, terms=terms, source=rest, line=lineno))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if pending_matrix is not None:  # the file ends at its last row or the derived marker
        _check_rows(pending_matrix, dim, lineno)
    if dim is None:
        raise ParseError("file does not declare dim")
    seen = set()
    for d in observables:
        if d.label in seen:
            raise ParseError(f"duplicate observable label {d.label}", d.line)
        seen.add(d.label)
    return ProofFile(
        dim=dim,
        mode=mode,
        observables=observables,
        contexts=contexts,
        polynomials=polynomials,
    )


def parse_file(path: str) -> ProofFile:
    """parse the file's text; a file that is not UTF-8 raises ParseError
    naming the offset of its first invalid byte.  parse splits lines at
    \r\n and \r as well as \n, so the bytes are decoded as they are."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as ex:
        raise ParseError(f"not UTF-8 text: invalid byte at offset {ex.start}") from None
    return parse(text)


# -- rendering ----------------------------------------------------------------


def render_input_section(pf: ProofFile) -> str:
    lines = [f"dim {pf.dim}", f"mode {pf.mode}"]
    text = {}  # by id, as a catalog Pauli matrix repeats 0 and two phase objects
    for d in pf.observables:
        if d.kind == "ray":
            lines.append("ray " + d.label + " " + " ".join(str(x) for x in d.vector))
        elif d.kind == "pauli":
            lines.append(f"pauli {d.label} {d.pauli}")
        else:
            spec = ",".join(str(a) for a in d.spectrum) if d.spectrum else None
            lines.append(
                f"matrix {d.label}" + (f" spectrum {spec}" if spec else "")
            )
            for row in d.rows:
                lines.append("row " + " ".join(
                    text.get(id(x)) or text.setdefault(id(x), str(x)) for x in row))
    for ctx in pf.contexts:
        lines.append("context " + " ".join(ctx.labels))
    for p in pf.polynomials:
        prefix = f"c={p.c} " if p.c not in (None, 1) else ""
        lines.append(f"poly {prefix}{p.source}")
    return "\n".join(lines) + "\n"


def proof_file_from_set(oset: ObservableSet, mode: str) -> ProofFile:
    """Reconstruct a ProofFile from a live observable set (catalog export)."""
    decls = []
    for obs in oset.observables:
        if obs.is_projector:
            decls.append(
                ObsDecl(kind="ray", label=obs.label, vector=obs.ray.vector)
            )
        else:
            decls.append(
                ObsDecl(
                    kind="matrix",
                    label=obs.label,
                    rows=[list(r) for r in obs.matrix.entries],
                    spectrum=obs.spectrum,
                )
            )
    labels = oset.labels
    contexts = [ContextDecl([labels[i] for i in ids]) for ids in oset.declared_contexts]
    return ProofFile(dim=oset.dim, mode=mode, observables=decls, contexts=contexts)


def render_record(pf: ProofFile, ineq, presented) -> str:
    """Full derivation record: input section + derived section + hash."""
    cs = ineq.complete_set
    labels = dict(enumerate(cs.oset.labels))
    plabels = dict(enumerate(presented.labels))
    lines = [render_input_section(pf).rstrip("\n"), DERIVED_MARKER]
    lines.append(f"provenance {cs.provenance}")
    lines.append(f"complete_set {len(cs)}")
    for cp in cs.polynomials:
        lines.append(f"cpoly c={cp.c} :: {render(cp.poly, labels)}")
    lines.append(f"F :: {render(ineq.F, labels)}")
    lines.append(f"form {presented.form}")
    lines.append(f"score :: {render(presented.score, plabels)}")
    lines.append(f"scale {presented.scale}")
    lines.append(f"offset {presented.offset}")
    lines.append(f"classical_bound {presented.classical_bound}")
    lines.append(f"bound_kind {presented.bound_kind}")
    lines.append(f"quantum_value {presented.quantum_value}")
    lines.append("verdict KSProof")
    body = "\n".join(lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"\nsha256 {digest}\n"
