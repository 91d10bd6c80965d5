"""Exact scalar and dense matrix arithmetic.

Scalars live in the field Q(i, sqrt2): every value is

    (a + b*sqrt2) + (c + d*sqrt2)*i

with a, b, c, d arbitrary-precision rationals.  All arithmetic is exact;
there is no floating point anywhere in the package.  The sqrt2 component
exists only because a few classic ray sets (Peres' 33 rays) need it --
rational inputs simply carry b = d = 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import KSCertError


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Scalar:
    """An element a + b*sqrt2 + (c + d*sqrt2)*i of Q(i, sqrt2)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return cls(_frac(x))

    @classmethod
    def _make(cls, a, b, c, d) -> "Scalar":
        """Internal fast constructor; components must already be exact."""
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        return self

    # -- predicates / projections -------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    @property
    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"not a rational number: {self}")
        return self.a

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = Scalar.of(other)
        if not (self.b or self.c or self.d or o.b or o.c or o.d):  # both purely rational
            return Scalar._make(self.a + o.a, _FR0, _FR0, _FR0)
        return Scalar._make(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._make(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) + (-self)

    def __mul__(self, other):
        o = Scalar.of(other)
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = o.a, o.b, o.c, o.d
        if not (b or d or f or h):  # both in Q(i)
            if not (c or g):  # both purely rational
                return Scalar._make(a * e, _FR0, _FR0, _FR0)
            return Scalar._make(a * e - c * g, _FR0, a * g + c * e, _FR0)
        return Scalar._make(*_mul_integral((a, b, c, d), (e, f, g, h)))

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        return Scalar._make(self.a, self.b, -self.c, -self.d)

    def norm_squared(self) -> "Scalar":
        """|z|^2, a real (possibly sqrt2-bearing) scalar."""
        return Scalar._make(*squared_modulus((self.a, self.b, self.c, self.d)), _FR0, _FR0)

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise ZeroDivisionError("division by exact zero")
        # rationalize in two stages: kill i, then kill sqrt2
        num = self.conjugate()
        n = self.norm_squared()  # x + y*sqrt2, real
        x, y = n.a, n.b
        denom = x * x - 2 * y * y  # (x + y s)(x - y s), rational
        # num * (x - y*sqrt2) / denom
        return num * Scalar(x, -y) * Scalar(Fraction(1, 1) / denom)

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.of(other) * self.inverse()

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            o = Scalar.of(other)
            return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        parts = []
        for coef, tag in ((self.a, ""), (self.b, "r2"), (self.c, "i"), (self.d, "r2i")):
            if coef == 0:
                continue
            sign = "-" if coef < 0 else ("+" if parts else "")
            mag = abs(coef)
            if tag and mag == 1:
                parts.append(f"{sign}{tag}")
            elif tag:
                parts.append(f"{sign}{mag}{tag}")
            else:
                parts.append(f"{sign}{mag}")
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return f"Scalar({self})"


_FR0 = Fraction(0)

ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I_UNIT = Scalar(0, 0, 1, 0)
SQRT2 = Scalar(0, 1, 0, 0)


def inner(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Hermitian inner product <u, v> = sum conj(u_k) v_k."""
    if len(u) != len(v):
        raise KSCertError(f"vector lengths {len(u)} != {len(v)}")
    acc = ZERO
    for x, y in zip(u, v):
        acc = acc + x.conjugate() * y
    return acc


def _mul_integral(s: tuple, t: tuple) -> tuple:
    """The product of two (a, b, c, d) tuples, each standing for
    a + b sqrt2 + i (c + d sqrt2): ints for elements of Z[i, sqrt2], and
    Fractions for Scalar.__mul__'s."""
    a, b, c, d = s
    e, f, g, h = t
    return (
        a * e + 2 * b * f - c * g - 2 * d * h,
        a * f + b * e - c * h - d * g,
        a * g + 2 * b * h + c * e + 2 * d * f,
        a * h + b * g + c * f + d * e,
    )


def squared_modulus(v: tuple) -> tuple:
    """|v|^2 = x + y sqrt2 as (x, y), for v = (a, b, c, d) as in
    _mul_integral: ints for an int tuple (an integral or
    poly.integral_evaluator value), Fractions for Scalar.norm_squared's."""
    a, b, c, d = v
    return a * a + 2 * b * b + c * c + 2 * d * d, 2 * (a * b + c * d)


def integral(v: Iterable[Scalar]) -> tuple:
    """(den, w): the least positive int den that clears every denominator of
    the scalars v, and the (a, b, c, d) int tuples of den * v, one per scalar.
    Each component's denominator is read once."""
    parts = [p for x in v for p in (x.a, x.b, x.c, x.d)]
    dens = [p.denominator for p in parts]
    den = lcm(*dens)
    nums = [p.numerator * (den // q) for p, q in zip(parts, dens)]
    return den, list(zip(*[iter(nums)] * 4))


def primitive_integral(v: Sequence[Scalar], memo: dict | None = None) -> tuple | None:
    """The canonical vector of the line through v over Z[i, sqrt2], or None
    when v is the zero vector: the positive rational multiple of
    v / (first nonzero component) whose (a, b, c, d) int tuples, one per
    component, have no common factor.  Two nonzero vectors span the same
    line, and so have the same projector, exactly when their primitive
    integral vectors are equal.

    It is computed in ints.  Each component x is read once, as integral((x,)):
    its own denominator and int tuple.  memo, a dict the caller keeps for one
    load, maps id(x) to (x, den, tuple), so a component object that many
    vectors share is read once per load; it holds x, so no id is reused
    while it lives.  The tuples are brought to the lcm of their denominators
    and multiplied by m = conj(lead) * (x - y sqrt2), where lead * conj(lead)
    = x + y sqrt2, which turns the lead into x^2 - 2y^2, the product of
    |lead|^2 and its sqrt2 conjugate, both positive.  For a rational lead a
    or an imaginary lead ci, m is a positive multiple of the unit sign(a) or
    -i sign(c), which is used instead.  Last, they are divided by their gcd."""
    if memo is None:
        memo = {}
    parts = []
    den = 1
    for x in v:
        entry = memo.get(id(x))
        if entry is None:
            q, (t,) = integral((x,))
            entry = memo[id(x)] = (x, q, t)
        parts.append(entry)
        if entry[1] != den:
            den = lcm(den, entry[1])
    w = [t if q == den or not any(t) else tuple(p * (den // q) for p in t) for _, q, t in parts]
    lead = next(filter(any, w), None)
    if lead is None:
        return None
    a, b, c, d = lead
    if b or d or (a and c):
        x, y = squared_modulus(lead)
        m = _mul_integral((a, b, -c, -d), (x, -y, 0, 0))
        w = [_mul_integral(t, m) if any(t) else t for t in w]
    elif c:  # lead = ci; m is a positive multiple of -i sign(c)
        w = [(r, s, -p, -q) if c > 0 else (-r, -s, p, q) for p, q, r, s in w]
    elif a < 0:
        w = [(-p, -q, -r, -s) for p, q, r, s in w]
    g = gcd(*chain.from_iterable(w))
    if g != 1:
        w = [tuple(p // g for p in t) for t in w]
    return tuple(w)


class ExactMatrix:
    """A dense square matrix over Q(i, sqrt2); immutable value semantics."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(Scalar.of(x) for x in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise KSCertError("matrix must be square and nonempty")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "ExactMatrix":
        return cls([[ZERO] * n for _ in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def _check_dim(self, other: "ExactMatrix"):
        if self.dim != other.dim:
            raise KSCertError(f"dimensions {self.dim} != {other.dim}")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        return ExactMatrix(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + -other

    def __neg__(self):
        return self.scale(MINUS_ONE)

    def scale(self, s) -> "ExactMatrix":
        s = Scalar.of(s)
        return ExactMatrix([[s * x for x in row] for row in self.entries])

    def dagger(self) -> "ExactMatrix":
        n = self.dim
        return ExactMatrix(
            [[self.entries[j][i].conjugate() for j in range(n)] for i in range(n)]
        )

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for row in self.entries for x in row)

    @property
    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def apply(self, v: Sequence[Scalar]) -> tuple:
        if len(v) != self.dim:
            raise KSCertError("vector length does not match matrix dimension")
        out = []
        for row in self.entries:
            acc = ZERO
            for x, y in zip(row, v):
                acc = acc + x * y
            out.append(acc)
        return tuple(out)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"ExactMatrix[{body}]"


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product: row i is the sum of a[i][k] times b's row k,
    over the nonzero a[i][k] and the nonzero entries of that row."""
    a._check_dim(b)
    b_rows = [[(j, y) for j, y in enumerate(row) if not y.is_zero] for row in b.entries]
    out = []
    for row in a.entries:
        acc = [ZERO] * a.dim
        for x, b_row in zip(row, b_rows):
            if not x.is_zero:
                for j, y in b_row:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return ExactMatrix(out)


def commutes(a: ExactMatrix, b: ExactMatrix) -> bool:
    """True iff ab = ba exactly."""
    return mat_mul(a, b) == mat_mul(b, a)


def projector_from_vector(v: Sequence[Scalar]) -> ExactMatrix:
    """Rank-1 projector v v^dagger / (v^dagger v) from an unnormalized vector."""
    v = tuple(Scalar.of(x) for x in v)
    nrm = inner(v, v)
    if nrm.is_zero:
        raise KSCertError("cannot project along the zero vector")
    inv = nrm.inverse()
    n = len(v)
    return ExactMatrix(
        [[v[i] * v[j].conjugate() * inv for j in range(n)] for i in range(n)]
    )


def scalar_multiple_of_identity(m: ExactMatrix):
    """Return s if m == s*I exactly, else None; s can only be m's entry (0, 0)."""
    s = m.entries[0][0]
    return s if m == ExactMatrix.identity(m.dim).scale(s) else None


# i^k for k in Z_4: the phases of products of Pauli words.
PHASES = (ONE, I_UNIT, MINUS_ONE, -I_UNIT)


def pauli_masks(word: str, sign: int = 1) -> tuple:
    """(n, k, x, z) with the signed word sign * word on n qubits equal to
    i^k X^x Z^z, e.g. "XY" -> X (x) Y.  As Y = iXZ, X and Y set x bits, Y
    and Z set z bits, the first letter is the highest bit, and k counts the
    Y's, a sign -1 adding 2."""
    if not word or any(ch not in "IXYZ" for ch in word):
        raise ValueError(f"bad Pauli word: {word!r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = z = 0
    for ch in word:
        x = x << 1 | (ch in "XY")
        z = z << 1 | (ch in "YZ")
    return len(word), (word.count("Y") + 1 - sign) % 4, x, z


def mask_matrix(n: int, k: int, x: int, z: int) -> ExactMatrix:
    """The matrix of i^k X^x Z^z on n qubits, written directly rather than
    as a tensor product: it has one nonzero entry per row r, in column
    c = r ^ x, equal to i^k * (-1)^popcount(c & z)."""
    even = PHASES[k]
    odd = -even
    size = 1 << n
    rows = []
    for r in range(size):
        row = [ZERO] * size
        c = r ^ x
        row[c] = odd if (c & z).bit_count() % 2 else even
        rows.append(row)
    return ExactMatrix(rows)

