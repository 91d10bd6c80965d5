"""Scalar field and exact matrix arithmetic."""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kscert.errors import KSCertError
from kscert.exact import (
    I_UNIT,
    MINUS_ONE,
    ONE,
    SQRT2,
    ZERO,
    ExactMatrix,
    Scalar,
    commutes,
    inner,
    mat_mul,
    pauli_masks,
    projector_from_vector,
    scalar_multiple_of_identity,
    _frac,
)

from oracles import PAULI, kron, pauli_matrix, ring_add, ring_mul, ring_sub

small_fracs = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 9)
)
scalars = st.builds(Scalar, small_fracs, small_fracs, small_fracs, small_fracs)
gaussian_rationals = st.builds(lambda a, c: Scalar(a, 0, c, 0), small_fracs, small_fracs)


class TestScalar:
    def test_frac_reads_exact_rationals_only(self):
        assert _frac(Fraction(1, 2)) == Fraction(1, 2)
        assert _frac(3) == Fraction(3)
        with pytest.raises(TypeError, match="not an exact rational: 0.5"):
            _frac(0.5)
        # text is read by the proof-file grammar alone; Fraction() would also
        # take '0.5', '1e3', '1_0', ' 1 ' and other scripts' digits
        for text in ("1/2", "\u0663", "0.5", "1e3", "1_0", " 1 "):
            with pytest.raises(TypeError, match="not an exact rational"):
                _frac(text)

    @given(scalars, scalars, scalars)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(gaussian_rationals, gaussian_rationals)
    def test_product_in_q_i(self, x, y):
        """The product of two elements of Q(i) against the general product."""
        assert x * y == (x + SQRT2) * y - SQRT2 * y

    @given(scalars)
    def test_inverse(self, x):
        if x.is_zero:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == Scalar(1)

    @given(scalars, scalars)
    def test_conjugation_multiplicative(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(scalars)
    def test_norm_squared_real_nonneg(self, x):
        n = x.norm_squared()
        assert n == x * x.conjugate()
        assert n.c == n.d == 0
        # a + b*sqrt2 >= 0, decided exactly by sign cases
        a, b = n.a, n.b
        if a >= 0 and b >= 0:
            nonneg = True
        elif a >= 0:  # b < 0
            nonneg = a * a >= 2 * b * b
        elif b >= 0:  # a < 0
            nonneg = 2 * b * b >= a * a
        else:
            nonneg = False
        assert nonneg

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == Scalar(2)

    def test_rendering_roundtrip_values(self):
        assert str(Scalar(Fraction(1, 2))) == "1/2"
        assert str(Scalar(0, 0, 1, 0)) == "i"
        assert str(Scalar(1, 0, 1, 0)) == "1+i"
        assert str(Scalar(0, -1)) == "-r2"
        assert str(Scalar(0)) == "0"

    def test_rational_projection(self):
        assert Scalar(Fraction(3, 4)).rational() == Fraction(3, 4)
        with pytest.raises(ValueError):
            SQRT2.rational()


# the operands a zero short-circuit sees: the shared constants, zeros that are
# not ZERO, and the plain values that Scalar.of maps to ZERO, ONE or MINUS_ONE
SHARED = (ZERO, ONE, MINUS_ONE, I_UNIT, SQRT2)
special_operands = st.one_of(
    st.sampled_from(SHARED),
    st.sampled_from([0, 1, -1]),
    st.builds(lambda: Scalar(0)),
    st.builds(lambda: Scalar(Fraction(0))),
    st.builds(lambda: Scalar._make(Fraction(0), Fraction(0), Fraction(0), Fraction(0))),
    st.builds(lambda: Fraction(0)),
)
# at least half the operands are special ones
operands = st.one_of(special_operands, st.one_of(scalars, st.integers(-3, 3), small_fracs))


def _components(x) -> tuple:
    if isinstance(x, Scalar):
        return (x.a, x.b, x.c, x.d)
    return (Fraction(x), Fraction(0), Fraction(0), Fraction(0))


def _is_zero_value(x) -> bool:
    return not any(_components(x))


class TestRingOracle:
    """Scalar's +, - and * against tests/oracles.py's ring on plain
    (a, b, c, d) Fraction tuples, in both operand orders, so that int and
    Fraction left operands reach the r-variants."""

    def _check(self, x, y):
        for op, oracle in ((lambda u, v: u + v, ring_add), (lambda u, v: u - v, ring_sub),
                           (lambda u, v: u * v, ring_mul)):
            for u, v in ((x, y), (y, x)):
                got = op(u, v)
                assert type(got) is Scalar
                assert all(type(p) is Fraction for p in _components(got))
                assert _components(got) == oracle(_components(u), _components(v))
        # the identity contract: a zero factor gives ZERO itself, and a sum
        # or difference with ZERO is the other operand
        if _is_zero_value(x) or _is_zero_value(y):
            assert x * y is ZERO and y * x is ZERO
        for u in (x, y):
            if isinstance(u, Scalar):
                assert u + ZERO is u and ZERO + u is u and u - ZERO is u

    @given(operands, operands)
    @settings(max_examples=300)
    def test_against_oracle(self, x, y):
        assume(isinstance(x, Scalar) or isinstance(y, Scalar))
        self._check(x, y)

    @pytest.mark.parametrize("x", SHARED + (Scalar(0), 0, 1, -1, Fraction(0)), ids=[
        "ZERO", "ONE", "MINUS_ONE", "I_UNIT", "SQRT2", "Scalar(0)", "0", "1", "-1", "Fraction(0)"])
    @pytest.mark.parametrize("y", SHARED, ids=["ZERO", "ONE", "MINUS_ONE", "I_UNIT", "SQRT2"])
    def test_shared_constants_against_oracle(self, x, y):
        self._check(x, y)

    def test_of_and_frac_share_the_units(self):
        for n, s in ((0, ZERO), (1, ONE), (-1, MINUS_ONE)):
            assert Scalar.of(n) is s
            assert _frac(n) is s.a
        assert -ZERO is ZERO
        assert Scalar.of(2) == Scalar(2) and Scalar.of(2) is not Scalar.of(2)


hash_values = st.one_of(operands, st.sampled_from([Fraction(1, 2), Scalar(Fraction(1, 2)),
                                                   Scalar(2), 2, Fraction(-3)]))


class TestHash:
    """x == y implies hash(x) == hash(y) over Scalars, ints and Fractions,
    so an equal key finds a dict entry whichever type it is."""

    @given(hash_values, hash_values)
    @settings(max_examples=300)
    def test_equal_values_hash_equal(self, x, y):
        if x == y:
            assert hash(x) == hash(y)
            assert {x: "x"}.get(y) == "x" and {y: "y"}.get(x) == "y"

    def test_dict_lookup_both_ways(self):
        assert {1: "x"}.get(Scalar(1)) == "x"
        assert {Scalar(1): "x"}.get(1) == "x"
        assert {Fraction(1, 2): "x"}.get(Scalar(Fraction(1, 2))) == "x"
        assert {Scalar(Fraction(1, 2)): "x"}.get(Fraction(1, 2)) == "x"
        assert {0: "x"}.get(Scalar(0)) == "x"
        assert hash(SQRT2) == hash((Fraction(0), Fraction(1), Fraction(0), Fraction(0)))


@pytest.fixture
def fraction_calls(monkeypatch):
    """A Counter of the calls made to Fraction's arithmetic and __bool__."""
    calls = collections.Counter()
    for name in ("__bool__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(*args, _name=name, _method=getattr(Fraction, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


class TestZeroCostsNothing:
    """What a zero no longer costs, counted on Fraction's methods."""

    def test_counter_sees_fraction_work(self, fraction_calls):
        x = Scalar(Fraction(1, 2), 3, Fraction(-1, 3), 1)
        fraction_calls.clear()
        x * x
        assert fraction_calls["__mul__"] > 0 and fraction_calls["__bool__"] > 0

    def test_zero_operand_reads_no_fraction(self, fraction_calls):
        x = Scalar(Fraction(1, 2), 3, Fraction(-1, 3), 1)
        fraction_calls.clear()
        got = (x * ZERO, ZERO * x, x + ZERO, ZERO + x, x - ZERO, -ZERO)
        assert dict(fraction_calls) == {}
        assert got == (ZERO, ZERO, x, x, x, ZERO)

    def test_zero_matrix_is_zero_reads_no_fraction(self, fraction_calls):
        m = ExactMatrix.zero(256)
        fraction_calls.clear()
        assert m.is_zero
        assert fraction_calls["__bool__"] == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_zero_matrix_shares_one_row(self, n):
        m = ExactMatrix.zero(n)
        assert len({id(row) for row in m.entries}) == 1
        assert m.dim == n and m.entries == ((ZERO,) * n,) * n
        assert m == ExactMatrix([[0] * n for _ in range(n)])

    def test_is_zero_reads_every_distinct_row(self):
        shared = (ZERO,) * 3
        assert ExactMatrix([[Scalar(0)] * 3] * 3).is_zero
        assert not ExactMatrix._make((shared, shared, (ZERO, ZERO, ONE))).is_zero
        assert not ExactMatrix._make((shared, (ZERO, Scalar(0, 0, 0, 1), ZERO), shared)).is_zero

    def test_identity(self):
        assert ExactMatrix.identity(3) == ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        for build in (ExactMatrix.identity, ExactMatrix.zero):
            for n in (0, -1):
                with pytest.raises(KSCertError, match="^matrix must be square and nonempty$"):
                    build(n)


def _to_complex(m: ExactMatrix):
    import math

    return [
        [
            complex(
                float(x.a) + float(x.b) * math.sqrt(2),
                float(x.c) + float(x.d) * math.sqrt(2),
            )
            for x in row
        ]
        for row in m.entries
    ]


def _naive_mul(a, b):
    """Independent entrywise multiplication oracle over Python complex."""
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def _close(a, b):
    return all(
        abs(x - y) < 1e-12 for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


# pairs of n x n matrices, n = 1-4, half their entries zero
exact_entries = st.sampled_from([Scalar(0)] * 7 + [
    Scalar(1), Scalar(-2), Scalar(Fraction(1, 2)), Scalar(0, 1), Scalar(0, 0, 1),
    Scalar(1, 0, -1), Scalar(0, Fraction(-1, 3), 0, 1)])
exact_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(*[
    st.lists(st.lists(exact_entries, min_size=n, max_size=n), min_size=n, max_size=n)] * 2))


class TestMatrix:
    def test_identity_product(self):
        i2 = ExactMatrix.identity(2)
        assert mat_mul(i2, i2) == i2

    def test_pauli_xz(self):
        assert mat_mul(PAULI["X"], PAULI["Z"]) == ExactMatrix(
            [[0, -1], [1, 0]]
        )

    def test_two_qubit_product_oracle(self):
        a = kron(PAULI["X"], PAULI["I"])
        b = kron(PAULI["I"], PAULI["X"])
        got = mat_mul(a, b)
        assert got == kron(PAULI["X"], PAULI["X"])
        assert _close(_to_complex(got), _naive_mul(_to_complex(a), _to_complex(b)))

    def test_dimension_mismatch(self):
        with pytest.raises(KSCertError, match="^dimensions 2 != 3$"):
            mat_mul(ExactMatrix.identity(2), ExactMatrix.identity(3))
        with pytest.raises(KSCertError, match="^dimensions 2 != 4$"):
            commutes(ExactMatrix.identity(2), ExactMatrix.identity(4))
        i2, i3 = ExactMatrix.identity(2), ExactMatrix.identity(3)
        for a, b in ((i2, i3), (i3, i2)):
            with pytest.raises(KSCertError, match=f"^dimensions {a.dim} != {b.dim}$"):
                a + b
            with pytest.raises(KSCertError, match=f"^dimensions {a.dim} != {b.dim}$"):
                a - b

    def test_is_hermitian(self):
        i = Scalar(0, 0, 1, 0)
        assert not ExactMatrix([[0, i], [i, 0]]).is_hermitian  # symmetric only
        assert ExactMatrix([[0, i], [-i, 0]]).is_hermitian
        assert not ExactMatrix([[i, 0], [0, 1]]).is_hermitian  # a complex diagonal
        assert ExactMatrix([[1, SQRT2 + i], [SQRT2 - i, 0]]).is_hermitian

    def test_commutes(self):
        x, z = PAULI["X"], PAULI["Z"]
        assert commutes(x, x)
        assert not commutes(x, z)
        assert commutes(kron(x, PAULI["I"]), kron(PAULI["I"], PAULI["Y"]))

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_commutes_symmetric(self, i, j):
        names = list(PAULI)
        a, b = PAULI[names[i]], PAULI[names[j]]
        assert commutes(a, b) == commutes(b, a)

    @given(exact_pairs)
    @settings(max_examples=80, deadline=None)
    def test_mat_mul_oracle(self, pair):
        a, b = (ExactMatrix(e) for e in pair)
        n = a.dim
        want = [[sum((a[i, k] * b[k, j] for k in range(n)), Scalar(0)) for j in range(n)]
                for i in range(n)]
        assert mat_mul(a, b) == ExactMatrix(want)
        assert commutes(a, b) == (mat_mul(a, b) - mat_mul(b, a)).is_zero

    @given(exact_pairs, exact_pairs)
    @settings(max_examples=60, deadline=None)
    def test_kron_oracle(self, p, q):
        """kron against its entrywise definition,
        (a (x) b)[i m + k][j m + l] = a[i, j] b[k, l] with m = b.dim."""
        a, b = ExactMatrix(p[0]), ExactMatrix(q[1])
        m = b.dim
        size = a.dim * m
        want = [[a[r // m, s // m] * b[r % m, s % m] for s in range(size)] for r in range(size)]
        assert kron(a, b) == ExactMatrix(want)

    def test_kron_examples(self):
        i2 = ExactMatrix.identity(2)
        assert kron(i2, i2) == ExactMatrix.identity(4)
        xi = kron(PAULI["X"], i2)
        assert xi == ExactMatrix(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )
        zz = kron(PAULI["Z"], PAULI["Z"])
        expect = ExactMatrix.zero(4).entries
        diag = [1, -1, -1, 1]
        assert zz == ExactMatrix(
            [
                [diag[i] if i == j else 0 for j in range(4)]
                for i in range(4)
            ]
        )

    small_entries = st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2
    )

    @given(small_entries, small_entries, small_entries)
    @settings(max_examples=60)
    def test_mat_mul_associative(self, ea, eb, ec):
        a, b, c = ExactMatrix(ea), ExactMatrix(eb), ExactMatrix(ec)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    @given(small_entries, small_entries, small_entries, small_entries)
    @settings(max_examples=40)
    def test_kron_mixed_product(self, ea, eb, ec, ed):
        a, b, c, d = (ExactMatrix(e) for e in (ea, eb, ec, ed))
        assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))

    def test_projector_from_vector(self):
        p = projector_from_vector((1, 1, 0))
        h = Fraction(1, 2)
        assert p == ExactMatrix([[h, h, 0], [h, h, 0], [0, 0, 0]])
        assert mat_mul(p, p) == p
        with pytest.raises(KSCertError, match="^cannot project along the zero vector$"):
            projector_from_vector((0, 0))

    def test_scalar_multiple_of_identity(self):
        assert scalar_multiple_of_identity(ExactMatrix.identity(3).scale(-2)) == Scalar(-2)
        assert scalar_multiple_of_identity(PAULI["X"]) is None
        assert scalar_multiple_of_identity(PAULI["Z"]) is None  # diag(1, -1)
        s = Scalar(1, 0, 0, 1)  # 1 + sqrt2 i
        assert scalar_multiple_of_identity(ExactMatrix.identity(2).scale(s)) == s
        assert scalar_multiple_of_identity(ExactMatrix([[s, 0], [1, s]])) is None

    def test_pauli_word(self):
        assert pauli_matrix("XY") == kron(PAULI["X"], PAULI["Y"])
        assert pauli_matrix("Z", -1) == -PAULI["Z"]
        with pytest.raises(ValueError, match="^bad Pauli word: 'XQ'$"):
            pauli_masks("XQ")
        with pytest.raises(ValueError, match="^bad Pauli word: ''$"):
            pauli_masks("")

    def test_inner_product(self):
        v = (Scalar(1), Scalar(0, 0, 1, 0))  # (1, i)
        assert inner(v, v) == Scalar(2)


SIGNED_WORDS = [(sign, "".join(letters))
                for n in (1, 2, 3)
                for letters in itertools.product("IXYZ", repeat=n)
                for sign in ("", "+", "-")]


def _kron_fold(word, sign):
    m = PAULI[word[0]]
    for ch in word[1:]:
        m = kron(m, PAULI[ch])
    return -m if sign == -1 else m


class TestPauliMatrix:
    """pauli_matrix writes each row's one nonzero entry directly; the kron
    fold is the oracle."""

    @pytest.mark.parametrize("prefix,word", SIGNED_WORDS)
    def test_kron_fold_oracle(self, prefix, word):
        sign = -1 if prefix == "-" else 1
        m = _kron_fold(word, sign)
        assert pauli_matrix(word, sign) == m

    def test_bad_sign(self):
        with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
            pauli_masks("X", 2)
