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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .compat import Context
from .errors import (
    IdenticallyZeroOnAssignments,
    KSCertError,
    UnassignedVariable,
    UnknownVariable,
    VariableOutsideContext,
)
from .exact import ExactMatrix, Scalar, mat_mul
from .model import ObservableSet

Monomial = tuple  # tuple[(var_id, exponent), ...], ids strictly increasing


class Poly:
    """Immutable multivariate polynomial with Scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Scalar]] = None):
        clean = {}
        if terms:
            for mono, coef in terms.items():
                coef = Scalar.of(coef)
                if not coef.is_zero:
                    clean[tuple(mono)] = coef
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------

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
            out[mono] = out.get(mono, Scalar(0)) + coef
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
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, Scalar(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def conjugate(self) -> "Poly":
        """Conjugate coefficients; variables are Hermitian, monomials stay."""
        return Poly({m: c.conjugate() for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({render(self)})"


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
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
    minimal polynomial (_power_rule)."""
    rules = {}
    out = {}
    for mono, coef in p.terms.items():
        terms = [((), coef)]
        for i, e in mono:
            if e < len(spectra[i]):
                terms = [(m + ((i, e),), c) for m, c in terms]
                continue
            if (i, e) not in rules:
                rule = _power_rule(spectra[i], e)
                rules[i, e] = [(k, Scalar.of(q)) for k, q in enumerate(rule) if q]
            terms = [
                (m + ((i, k),) if k else m, c * q) for m, c in terms for k, q in rules[i, e]
            ]
        for m, c in terms:
            out[m] = out.get(m, Scalar(0)) + c
    return Poly(out)


def eval_assignment(p: Poly, assignment: Mapping[int, Fraction]) -> Scalar:
    """Exact value of p at a value assignment (normalization ignored)."""
    ta = tb = tc = td = Fraction(0)
    for mono, coef in p.terms.items():
        x = Fraction(1)
        for i, e in mono:
            if i not in assignment:
                raise UnassignedVariable(f"variable {i} is unassigned")
            x *= Fraction(assignment[i]) ** e
        ta += coef.a * x
        tb += coef.b * x
        tc += coef.c * x
        td += coef.d * x
    return Scalar._make(ta, tb, tc, td)


def eval_operator(p: Poly, oset: ObservableSet) -> ExactMatrix:
    """Substitute operators for variables; factors within a monomial commute."""
    n = oset.dim
    total = ExactMatrix.zero(n)
    for mono, coef in p.terms.items():
        m = None
        for i, e in mono:
            if not 0 <= i < len(oset):
                raise UnknownVariable(f"variable {i} not in observable set")
            for _ in range(e):
                m = oset[i].matrix if m is None else mat_mul(m, oset[i].matrix)
        if m is None:
            m = ExactMatrix.identity(n)
        total = total + m.scale(coef)
    return total


# -- context-bound polynomials -------------------------------------------


@dataclass(frozen=True)
class ContextPolynomial:
    """A reduced polynomial in the observables of one context."""

    poly: Poly
    context: Context
    c: Optional[Fraction] = Fraction(1)  # None until assemble_F computes it

    def __post_init__(self):
        if self.c is not None and self.c <= 0:
            raise ValueError("normalization constant must be positive")


def make_context_polynomial(
    p: Poly, context: Context, oset: ObservableSet, c: Optional[Fraction] = Fraction(1)
) -> ContextPolynomial:
    extra = p.variables() - set(context.ids)
    if extra:
        raise VariableOutsideContext(
            f"variables {sorted(extra)} outside context {context.ids}"
        )
    return ContextPolynomial(poly=reduce(p, oset.spectra()), context=context, c=c)


def spectral_assignments(oset: ObservableSet, ids: Sequence[int]):
    """Iterate all assignments of the given observables over their spectra."""
    ids = list(ids)
    if not ids:
        yield {}
        return
    head, tail = ids[0], ids[1:]
    for rest in spectral_assignments(oset, tail):
        for a in oset[head].spectrum:
            out = dict(rest)
            out[head] = a
            yield out


def normalization_constant(cp: ContextPolynomial, oset: ObservableSet) -> Fraction:
    """Minimum nonzero squared modulus of the polynomial over all assignments."""
    best = None
    for v in spectral_assignments(oset, cp.context.ids):
        val = eval_assignment(cp.poly, v)
        if val.is_zero:
            continue
        sq = val.norm_squared()
        if not sq.is_rational:
            raise IdenticallyZeroOnAssignments(
                "squared modulus is irrational; cannot normalize"
            )
        q = sq.rational()
        if best is None or q < best:
            best = q
    if best is None:
        raise IdenticallyZeroOnAssignments(
            "polynomial vanishes at every spectral assignment"
        )
    return best


def normalized_square(cp: ContextPolynomial, oset: ObservableSet) -> ContextPolynomial:
    """The reduced polynomial (p^dagger p) / c; sqrt(c) is never materialized."""
    sq = cp.poly.conjugate() * cp.poly
    sq = reduce(sq, oset.spectra())
    scaled = sq * Scalar.of(Fraction(1, 1) / cp.c)
    return make_context_polynomial(scaled, cp.context, oset)


# -- canonical rendering ---------------------------------------------------


def _mono_key(mono: Monomial):
    return (sum(e for _, e in mono), mono)


def _coef_str(coef: Scalar) -> str:
    s = str(coef)
    if ("+" in s[1:]) or ("-" in s[1:]):
        return f"({s})"
    return s


def render(p: Poly, labels: Optional[Mapping[int, str]] = None) -> str:
    """Deterministic text form: graded order, lowest degree first."""
    if p.is_zero:
        return "0"
    parts = []
    for mono in sorted(p.terms, key=_mono_key):
        coef = p.terms[mono]
        factors = []
        for i, e in mono:
            name = labels[i] if labels else f"A{i}"
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        cs = _coef_str(coef)
        if body:
            if cs == "1":
                term = body
            elif cs == "-1":
                term = f"-{body}"
            else:
                term = f"{cs}*{body}"
        else:
            term = cs
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f" - {term[1:]}")
        else:
            parts.append(f" + {term}")
    return "".join(parts)
