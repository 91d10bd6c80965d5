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

`dim` is declared once, before the observables, and `mode` at most once
(`auto` if it is not).  An observable's label is a word: a letter or `_`,
then letters, digits or `_`.  Scalar tokens are exact: rationals (`-3/2`), the
imaginary unit (`i`, `2i`), and sqrt2 written `r2` (`-r2`, `1/2r2`),
combinable as `1+i` or `(1+i)` inside polynomial expressions.  There, a
bare `i`, `r2` or `r2i` that labels an observable is that observable.

Exports append a `=== derived ===` section with the complete set, F, the
presented score, bounds and a content hash; the parser reads only the
input section, so a record round-trips through parse -> re-derive ->
export byte-identically.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .compat import validate_context
from .errors import KSCertError
from .exact import _FR0, ZERO, ExactMatrix, Scalar
from .model import ObservableSet, make_observable, pauli_observable
from .poly import Poly, make_context_polynomial, render

DERIVED_MARKER = "=== derived ==="

MODES = ("ray", "bases-only", "parity", "general", "auto")

# the number grammar of every site, in a file and on the command line: ASCII
# digits and an optional denominator, with a leading - where a sign is not a
# token of its own.  int(), Fraction() and \d would also read other scripts'
# digits, and Fraction() decimals, exponents and underscores.
_NUMBER = r"[0-9]+(?:/[0-9]+)?"

_SCALAR_TERM = re.compile(rf"^({_NUMBER})?(r2)?(i)?$")

# the separator rule: only space and tab separate tokens, and only \n, \r\n
# and \r end a line.  These are the other characters that str.split,
# str.strip, str.splitlines or \s take as whitespace; a file holds none, in a
# comment neither, so that parse may split with them.
_OTHER_SPACE = re.compile(r"[\x0b\x0c\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")

# a word of the polynomial grammar; an observable's label must be one, so
# that a record's F reads back: `1` or `a-1` would read as numbers and signs
_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _rational(text: str) -> Fraction:
    try:
        if re.fullmatch(f"-?{_NUMBER}", text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise KSCertError(f"bad rational {text!r}")


def _positive_int(text: str, message: str) -> int:
    """A positive integer in ASCII digits; KSCertError(message) otherwise, also
    when int() refuses the digits (more than sys.get_int_max_str_digits())."""
    try:
        value = int(text) if re.fullmatch("[0-9]+", text) else 0
    except ValueError:
        value = 0
    if value < 1:
        raise KSCertError(message)
    return value


def parse_scalar(token: str) -> Scalar:
    """Parse an exact scalar token like `-3/2`, `i`, `r2`, `1+i`, `2r2i`;
    KSCertError on a bad one.  parse reads each distinct ray or row token
    once per call and shares the immutable Scalar."""
    s = token.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s:
        raise KSCertError("empty scalar")
    # split into signed terms, which cover s, so a sign with no term after
    # it is an empty term; a term adds to the component its tags name
    parts = [_FR0] * 4  # a + b sqrt2 + (c + d sqrt2) i
    for term in re.findall(r"[+-][^+-]*|[^+-]+", s.replace(" ", "")):
        t = term.lstrip("+-")
        m = _SCALAR_TERM.match(t)
        if not m or not any(m.groups()):
            raise KSCertError(f"bad scalar term {t!r} in {token!r}")
        q = _rational(m.group(1)) if m.group(1) else Fraction(1)
        k = bool(m.group(2)) + 2 * bool(m.group(3))
        parts[k] += -q if term[0] == "-" else q
    return Scalar._make(*parts)


# kind is "ray", "pauli" or "matrix"; a ray has its vector, a Pauli word
# its signed word, pauli, and a matrix its rows of Scalar and its spectrum,
# if declared.  line is the declaration's in its file, and None in
# proof_file_from_set's; ContextDecl's and PolyDecl's line are as ObsDecl's
ObsDecl = namedtuple("ObsDecl", "kind label vector pauli rows spectrum line",
                     defaults=(None,) * 5)
ContextDecl = namedtuple("ContextDecl", "labels line", defaults=(None,))
# c is None when the file declares no c=; terms are
# [(Scalar coef, [(label, exp), ...]), ...] and source their text
PolyDecl = namedtuple("PolyDecl", "c terms source line")


class ProofFile(namedtuple("ProofFile", "dim mode observables contexts polynomials")):
    """A proof file's declarations: lists of ObsDecl, ContextDecl and
    PolyDecl."""

    __slots__ = ()

    def load(self) -> tuple:
        """The file's observable set, with its declared contexts, and its
        polynomials as members over it.  The error of a declaration names its
        line: observables are read first, then contexts, then polynomials."""
        # a file with no observables has nothing to prove, and a constant
        # member would be evaluated as a dim x dim matrix
        if not self.observables:
            raise KSCertError("the file declares no observables")
        oset = ObservableSet(dim=self.dim)
        polys = []
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
            labels = set(oset.labels)
            for d in self.polynomials:
                terms = {}  # summed in one dict, and made one Poly, which drops the zeros
                for coef, factors in d.terms:
                    mono = {}
                    for label, exp in factors:
                        if label not in labels and _SCALAR_TERM.match(label):  # i, r2, r2i
                            if exp != 1:  # a scalar takes no exponent
                                raise KSCertError("unexpected token '^' after term")
                            coef = coef * parse_scalar(label)
                            continue
                        i = oset.by_label(label)
                        mono[i] = mono.get(i, 0) + exp
                    mono = tuple(sorted(mono.items()))
                    terms[mono] = terms.get(mono, ZERO) + coef
                p = Poly(terms)
                validate_context(oset, p.variables())
                polys.append(make_context_polynomial(p, oset, c=d.c))
        except KSCertError as ex:  # the error of declaration d, at its line
            raise KSCertError(f"line {d.line}: {ex}") from None
        return oset, polys


# -- polynomial expression parsing -------------------------------------------

_TOKEN = re.compile(rf"\s*(\(|\)|\*|\^|\+|-|{_WORD.pattern}|{_NUMBER}(?:r2)?i?)")


def _tokenize_expr(s: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise KSCertError(f"cannot tokenize polynomial near {s[pos:pos+12]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_poly_expr(s: str) -> list:
    """Parse `2*a*b^2 - (1+i)*c + 1` into [(Scalar, [(label, exp), ...]), ...].
    Every word is a factor, i, r2 and r2i too: ProofFile.load reads such a
    word as that scalar unless an observable has it as label."""
    toks = _tokenize_expr(s)
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
            raise KSCertError("dangling sign in polynomial")
        coef = Scalar(sign)
        factors = []
        while True:
            tok = peek()
            if tok == "(":
                # parenthesized exact scalar
                if ")" not in toks[idx:]:
                    raise KSCertError("unclosed parenthesis in polynomial")
                depth_end = toks.index(")", idx)
                coef = coef * parse_scalar("".join(toks[idx + 1 : depth_end]))
                idx = depth_end + 1
            elif tok is not None and _WORD.match(tok):
                label = tok
                idx += 1
                exp = 1
                if peek() == "^":
                    idx += 1
                    exp = _positive_int(peek() or "", "exponent must be a positive integer")
                    idx += 1
                factors.append((label, exp))
            elif tok is not None and _SCALAR_TERM.match(tok):
                coef = coef * parse_scalar(tok)
                idx += 1
            elif tok is None:
                raise KSCertError("unexpected end of polynomial")
            else:
                raise KSCertError(f"unexpected token {tok!r} in polynomial")
            if peek() == "*":
                idx += 1
                continue
            break
        terms.append((coef, factors))
        if peek() not in (None, "+", "-"):
            raise KSCertError(f"unexpected token {peek()!r} after term")
    if not terms:
        raise KSCertError("empty polynomial expression")
    return terms


# -- file parsing -------------------------------------------------------------


def _check_rows(matrix: ObsDecl, dim: int) -> None:
    """KSCertError unless the matrix has dim rows; parse calls it where the
    declaration ends."""
    if len(matrix.rows) != dim:
        raise KSCertError(f"matrix {matrix.label} has {len(matrix.rows)} rows, expected {dim}")


def _label(token: str) -> str:
    """token, if it is a word of the polynomial grammar, so that the
    records written with it read back."""
    if not _WORD.fullmatch(token):
        raise KSCertError(f"label {token!r} must be a letter or _ followed by "
                          "letters, digits or _")
    return token


def parse(text: str) -> ProofFile:
    dim = mode = None
    observables: list[ObsDecl] = []
    contexts: list[ContextDecl] = []
    declared = set()  # each context's labels, sorted
    polynomials: list[PolyDecl] = []
    pending_matrix: ObsDecl | None = None
    scalars = {}  # token -> Scalar, for the tokens parsed without error

    def scalar(token: str) -> Scalar:
        s = scalars.get(token)
        if s is None:
            s = scalars[token] = parse_scalar(token)
        return s

    lineno = 0  # the last line read that is not blank or a comment
    try:
        if other := _OTHER_SPACE.search(text):  # its line: the last of those up to it
            lineno = len(text[: other.end()].splitlines())
            raise KSCertError(f"whitespace U+{ord(other[0]):04X} is not a space or a tab")
        for n, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            lineno = n
            if line == DERIVED_MARKER:
                break
            parts = line.split()
            head = parts[0]
            if pending_matrix is not None and head != "row":
                _check_rows(pending_matrix, dim)
                pending_matrix = None
            if head in ("ray", "pauli", "matrix") and dim is None:
                raise KSCertError("dim must come before observables")
            if (head == "dim" and dim is not None) or (head == "mode" and mode is not None):
                raise KSCertError(f"{head} is declared twice")
            if head == "dim":
                dim = _positive_int(line[len("dim") :].strip(), "dim takes one positive integer")
            elif head == "mode":
                if len(parts) != 2 or parts[1] not in MODES:
                    raise KSCertError("mode must be " + " | ".join(MODES))
                mode = parts[1]
            elif head == "ray":
                if len(parts) < 3:
                    raise KSCertError("ray takes a label and components")
                vec = tuple(scalar(t) for t in parts[2:])
                observables.append(ObsDecl(kind="ray", label=_label(parts[1]), vector=vec,
                                           line=lineno))
            elif head == "pauli":
                if len(parts) != 3 or not re.match(r"^[+-]?[IXYZ]+$", parts[2]):
                    raise KSCertError("pauli takes a label and a signed word over I, X, Y, Z")
                observables.append(ObsDecl(kind="pauli", label=_label(parts[1]), pauli=parts[2],
                                           line=lineno))
            elif head == "matrix":
                if len(parts) < 2:
                    raise KSCertError("matrix takes a label")
                spectrum = None
                if len(parts) == 4 and parts[2] == "spectrum":
                    spectrum = tuple(_rational(x) for x in parts[3].split(","))
                elif len(parts) != 2:
                    raise KSCertError("matrix syntax: matrix LABEL [spectrum a,b,...]")
                pending_matrix = ObsDecl(kind="matrix", label=_label(parts[1]), rows=[],
                                         spectrum=spectrum, line=lineno)
                observables.append(pending_matrix)
            elif head == "row":
                if pending_matrix is None:
                    raise KSCertError("row outside a matrix declaration")
                row = [scalar(t) for t in parts[1:]]
                if len(row) != dim:
                    raise KSCertError(f"row has {len(row)} entries, expected {dim}")
                pending_matrix.rows.append(row)
            elif head == "context":
                if len(parts) < 2:
                    raise KSCertError("context takes observable labels")
                members = tuple(sorted(parts[1:]))
                if members in declared:  # the same set of labels, in any order
                    raise KSCertError(f"context {' '.join(parts[1:])} is declared twice")
                declared.add(members)
                contexts.append(ContextDecl(parts[1:], lineno))
            elif head == "poly":
                rest = line[len("poly") :].strip()
                c = None
                if rest.startswith("c="):  # a first word c=... declares c
                    text, rest = re.match(r"c=(\S*)\s*(.*)", rest).groups()
                    if not re.fullmatch(f"-?{_NUMBER}", text):
                        raise KSCertError(f"c must be an integer or a fraction N/M, not {text!r}")
                    c = _rational(text)
                    if c <= 0:
                        raise KSCertError("c must be positive")
                terms = parse_poly_expr(rest)
                polynomials.append(PolyDecl(c=c, terms=terms, source=rest, line=lineno))
            else:
                raise KSCertError(f"unknown directive {head!r}")
        if pending_matrix is not None:  # the file ends at its last row or the derived marker
            _check_rows(pending_matrix, dim)
    except KSCertError as ex:  # the error of the line read last, or of other's line
        raise KSCertError(f"line {lineno}: {ex}") from None
    if dim is None:
        raise KSCertError("file does not declare dim")
    seen = set()
    for d in observables:
        if d.label in seen:
            raise KSCertError(f"line {d.line}: duplicate observable label {d.label}")
        seen.add(d.label)
    return ProofFile(
        dim=dim,
        mode=mode or "auto",
        observables=observables,
        contexts=contexts,
        polynomials=polynomials,
    )


def parse_file(path: str) -> ProofFile:
    """parse the file's text, less a byte-order mark at its start; a file
    that is not UTF-8 raises KSCertError naming the offset of its first
    invalid byte, counted from the file's start (utf-8-sig would count from
    after a mark).  parse splits lines at \r\n and \r as well as \n, so
    the bytes are decoded as they are."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as ex:
        raise KSCertError(f"not UTF-8 text: invalid byte at offset {ex.start}") from None
    return parse(text.removeprefix("\ufeff"))


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
    return ProofFile(dim=oset.dim, mode=mode, observables=decls, contexts=contexts,
                     polynomials=[])


def render_record(pf: ProofFile, ineq, presented) -> str:
    """Full derivation record: input section + derived section + hash."""
    import hashlib  # only a record is hashed, so no other command imports it

    cs = ineq.complete_set
    labels = cs.oset.labels
    lines = [render_input_section(pf).rstrip("\n"), DERIVED_MARKER]
    lines.append(f"provenance {cs.provenance}")
    lines.append(f"complete_set {len(cs)}")
    for cp in cs.polynomials:
        lines.append(f"cpoly c={cp.c} :: {render(cp.poly, labels)}")
    lines.append(f"F :: {render(ineq.F, labels)}")
    lines.append(f"form {presented.form}")
    lines.append(f"score :: {render(presented.score, presented.labels)}")
    lines.append(f"scale {presented.scale}")
    lines.append(f"offset {presented.offset}")
    lines.append(f"classical_bound {presented.classical_bound}")
    lines.append(f"bound_kind {ineq.classical.kind}")
    lines.append(f"quantum_value {presented.quantum_value}")
    lines.append("verdict KSProof")
    body = "\n".join(lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"\nsha256 {digest}\n"
