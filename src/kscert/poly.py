"""Commuting-variable polynomial algebra over Q(i, sqrt2).

A polynomial is a map from monomials to exact coefficients; a monomial is a
sorted tuple of (observable id, exponent) pairs.  Polynomials are kept in
reduced form with respect to each variable's minimal polynomial: the
exponent of variable i never reaches the size of its spectrum.

Every monomial that ever arises here is built from observables of a single
context, so operator evaluation (substituting matrices for variables) is
well defined regardless of factor order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import product
from math import lcm, prod

from .errors import KSCertError
from .exact import ZERO, ExactMatrix, Scalar, integral, mat_mul, squared_modulus
from .model import ObservableSet

Monomial = tuple  # tuple[(var_id, exponent), ...], ids strictly increasing


class Poly(namedtuple("Poly", "terms")):
    """Immutable multivariate polynomial with Scalar coefficients."""

    __slots__ = ()

    def __new__(cls, terms: Mapping[Monomial, Scalar] | None = None):
        clean = {}
        if terms:
            for mono, coef in terms.items():
                coef = Scalar.of(coef)
                if not coef.is_zero:
                    clean[tuple(mono)] = coef
        return tuple.__new__(cls, (clean,))

    # -- constructors ---------------------------------------------------

    @classmethod
    def _make(cls, terms: dict) -> "Poly":
        """Internal fast constructor, in place of namedtuple's
        _make(iterable); terms must already be clean: tuple monomials mapped
        to nonzero Scalars, as __new__ would leave them.  The dict is kept,
        not copied."""
        return tuple.__new__(cls, (terms,))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({(): Scalar.of(c)})

    @classmethod
    def var(cls, i: int) -> "Poly":
        return cls({((i, 1),): Scalar(1)})

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        return {i for mono in self.terms for i, _ in mono}

    def max_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, ZERO) + coef
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({m: c * Scalar.of(other) for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                out[mono] = out.get(mono, ZERO) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def conjugate(self) -> "Poly":
        """Conjugate coefficients; variables are Hermitian, monomials stay."""
        return Poly({m: c.conjugate() for m, c in self.terms.items()})

    def __hash__(self):  # equality is the tuple's, on the terms dicts, which are unhashable
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({render(self)})"


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials."""
    exps = dict(m1)
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


# reduce refuses to compute a^e exactly for a not 0 or +-1 beyond this many
# bits: e times the larger bit length of a's numerator and denominator
MAX_POWER_BITS = 1 << 22


def _power_rule(spectrum, e: int) -> list:
    """Coefficients q_0..q_{d-1} of the remainder of x^e modulo prod (x - a)
    over the d-point spectrum: the interpolant of a -> a^e (Lagrange form).
    Raises KSCertError before computing a power beyond MAX_POWER_BITS."""
    for a in map(Fraction, spectrum):
        bits = e * max(a.numerator.bit_length(), a.denominator.bit_length())
        if abs(a) not in (0, 1) and bits > MAX_POWER_BITS:
            raise KSCertError(f"x^{e} at {a} needs {bits} bits, over the limit {MAX_POWER_BITS}")
    q = [Fraction(0)] * len(spectrum)
    for a in spectrum:
        basis, weight = [Fraction(1)], Fraction(a) ** e
        for b in spectrum:
            if b != a:  # basis *= (x - b) / (a - b)
                basis = [x - b * y for x, y in zip([0] + basis, basis + [0])]
                weight /= a - b
        for k, c in enumerate(basis):
            q[k] += weight * c
    return q


def reduce(p: Poly, spectra: Mapping[int, Sequence]) -> Poly:
    """Bring every exponent of variable i below the size of its spectrum, in
    one step per factor: x^e becomes its remainder modulo the spectrum's
    minimal polynomial (_power_rule).  Each monomial expands to terms
    (monomial, q), q the product of its remainder coefficients; rules keeps
    the nonzero coefficients once per (spectrum, e) that variables share,
    and a coefficient is multiplied only by a q other than 1."""
    rules = {}
    out = {}
    for mono, coef in p.terms.items():
        terms = [((), 1)]
        for i, e in mono:
            if e < len(spectra[i]):
                terms = [(m + ((i, e),), q) for m, q in terms]
                continue
            key = (tuple(spectra[i]), e)
            if key not in rules:
                rules[key] = [(k, r) for k, r in enumerate(_power_rule(spectra[i], e)) if r]
            terms = [(m + ((i, k),) if k else m, q * r) for m, q in terms for k, r in rules[key]]
        for m, q in terms:
            out[m] = out.get(m, ZERO) + (coef if q == 1 else coef * Scalar.of(q))
    return Poly(out)


def eval_assignment(p: Poly, assignment: Mapping[int, Fraction]) -> Scalar:
    """Exact value of p at a value assignment (normalization ignored)."""
    ta = tb = tc = td = Fraction(0)
    for mono, coef in p.terms.items():
        x = Fraction(1)
        for i, e in mono:
            if i not in assignment:
                raise KSCertError(f"variable {i} is unassigned")
            x *= Fraction(assignment[i]) ** e
        ta += coef.a * x
        tb += coef.b * x
        tc += coef.c * x
        td += coef.d * x
    return Scalar._make(ta, tb, tc, td)


def integral_evaluator(p: Poly, spectra: Mapping[int, Sequence]) -> tuple:
    """(scale, value): value(assignment) is scale * p(assignment) as an int
    (a, b, c, d) tuple over Z[i, sqrt2], for any assignment from the spectra.

    scale = den * prod s_i^E_i is a positive int fixed by p and the spectra:
    den clears p's coefficients (exact.integral), s_i is the least common
    denominator of variable i's spectrum and E_i its largest exponent in p.
    A value a_i = n_i / s_i enters as the int n_i, and a monomial missing
    s_i^(E_i - e) has it folded into its cleared coefficient, so fractional
    spectra stay exact.  eval_assignment is the Fraction oracle."""
    den, ints = integral(p.terms.values())
    top = {}  # variable -> largest exponent
    for mono in p.terms:
        for i, e in mono:
            top[i] = max(top.get(i, 0), e)
    s = {i: lcm(*(x.denominator for x in spectra[i])) for i in top}
    terms = []
    for mono, t in zip(p.terms, ints):
        exps = dict(mono)
        w = prod(s[i] ** (E - exps.get(i, 0)) for i, E in top.items())
        terms.append((mono, tuple(w * x for x in t)))

    def value(assignment) -> tuple:
        n = {}
        for i, si in s.items():
            q = assignment[i]
            n[i] = q.numerator * (si // q.denominator)
        ta = tb = tc = td = 0
        for mono, (a, b, c, d) in terms:
            x = 1
            for i, e in mono:
                x *= n[i] ** e
            ta += a * x
            tb += b * x
            tc += c * x
            td += d * x
        return ta, tb, tc, td

    return den * prod(s[i] ** E for i, E in top.items()), value


def eval_operator(p: Poly, oset: ObservableSet) -> ExactMatrix:
    """Substitute operators for variables; factors within a monomial commute."""
    n = oset.dim
    total = ExactMatrix.zero(n)
    for mono, coef in p.terms.items():
        m = None
        for i, e in mono:
            if not 0 <= i < len(oset):
                raise KSCertError(f"variable {i} not in observable set")
            for _ in range(e):
                m = oset[i].matrix if m is None else mat_mul(m, oset[i].matrix)
        if m is None:
            m = ExactMatrix.identity(n)
        total = total + m.scale(coef)
    return total


# -- context-bound polynomials -------------------------------------------


class ContextPolynomial(namedtuple("ContextPolynomial", "poly c")):
    """A complete-set member: a reduced polynomial and its c, None until
    assemble_F computes it.  Its variables pairwise commute, which is
    validated where the member is built (the builders in derive,
    prooffile's validate_context)."""

    __slots__ = ()

    def __new__(cls, poly: Poly, c: Fraction | None = Fraction(1)):
        if c is not None and c <= 0:
            raise ValueError("normalization constant must be positive")
        return tuple.__new__(cls, (poly, c))


def make_context_polynomial(
    p: Poly, oset: ObservableSet, c: Fraction | None = Fraction(1)
) -> ContextPolynomial:
    """The member of p reduced over oset's spectra.  The caller has validated
    that p's variables pairwise commute."""
    return ContextPolynomial(poly=reduce(p, oset.spectra()), c=c)


def spectral_assignments(oset: ObservableSet, ids: Sequence[int]):
    """Iterate all assignments of the given observables over their spectra,
    the first id varying fastest."""
    ids = list(ids)[::-1]
    for values in product(*(oset[i].spectrum for i in ids)):
        yield dict(zip(ids, values))


def normalization_constant(cp: ContextPolynomial, oset: ObservableSet) -> Fraction:
    """Minimum nonzero squared modulus of the polynomial over all assignments
    of its variables, in ints: integral_evaluator reads t*r(a) for an int
    scale t, |t*r(a)|^2 = x + y sqrt2, and the minimum is x_min / t^2.  The
    first nonzero value with y != 0 raises KSCertError, its modulus being
    irrational, and so does a polynomial zero at every assignment."""
    scale, value = integral_evaluator(cp.poly, oset.spectra())
    best = None
    for v in spectral_assignments(oset, sorted(cp.poly.variables())):
        x, y = squared_modulus(value(v))
        if not x:  # a sum of squares, 0 exactly when r(a) = 0
            continue
        if y:
            raise KSCertError("squared modulus is irrational; cannot normalize")
        if best is None or x < best:
            best = x
    if best is None:
        raise KSCertError("polynomial vanishes at every spectral assignment")
    return Fraction(best, scale * scale)


def normalized_square(cp: ContextPolynomial, oset: ObservableSet) -> ContextPolynomial:
    """The reduced polynomial (p^dagger p) / c; sqrt(c) is never materialized."""
    return make_context_polynomial(cp.poly.conjugate() * cp.poly * (Fraction(1) / cp.c), oset)


# -- canonical rendering ---------------------------------------------------


def _coef_str(coef: Scalar) -> str:
    """A rational coefficient as its Fraction prints; any other as
    Scalar.__str__ prints it, in parentheses when it has several parts."""
    if not (coef.b or coef.c or coef.d):
        return str(coef.a)
    s = str(coef)
    if ("+" in s[1:]) or ("-" in s[1:]):
        return f"({s})"
    return s


def render(p: Poly, labels: Sequence[str] | None = None) -> str:
    """Deterministic text form: graded order, lowest degree first.  A
    rational coefficient is printed from its Fraction, which reads as
    Scalar.__str__ would print it; only an irrational or complex one goes
    through Scalar.__str__, in parentheses where, less its sign, that text
    spells one of labels, as `(i)*a` beside a label i.  Terms share a
    handful of coefficient objects and factors, so each is formatted once;
    the terms are then sorted as (degree, monomial, ...) tuples, the
    monomials being distinct."""
    if p.is_zero:
        return "0"
    names = {}  # factor (i, e) -> its text
    coefs = {}  # id(coefficient) -> (joining sign, its text before a body, alone)
    order = []
    for mono, coef in p.terms.items():
        degree = 0
        texts = []
        for f in mono:
            text = names.get(f)
            if text is None:
                i, e = f
                name = labels[i] if labels else f"A{i}"
                text = names[f] = name if e == 1 else f"{name}^{e}"
            degree += f[1]
            texts.append(text)
        c = coefs.get(id(coef))
        if c is None:
            cs = _coef_str(coef)
            sign, cs = (" - ", cs[1:]) if cs.startswith("-") else (" + ", cs)
            if not coef.is_rational and labels and cs in labels:
                cs = f"({cs})"  # a bare i, r2 or r2i would read back as that label
            c = coefs[id(coef)] = (sign, "" if cs == "1" else f"{cs}*", cs)
        sign, before, alone = c
        order.append((degree, mono, sign, before + "*".join(texts) if texts else alone))
    order.sort()
    _, _, sign, term = order[0]
    parts = [term if sign == " + " else f"-{term}"]
    parts += [sign + term for _, _, sign, term in order[1:]]
    return "".join(parts)
