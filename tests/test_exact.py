"""Scalar field and exact matrix arithmetic."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscert.errors import DimensionMismatch, ZeroVector
from kscert.exact import (
    I_UNIT,
    PAULI,
    SQRT2,
    ExactMatrix,
    Scalar,
    commutes,
    inner,
    kron,
    mat_mul,
    pauli_masks,
    pauli_matrix,
    pauli_word,
    projector_from_vector,
    scalar_multiple_of_identity,
    _frac,
)

small_fracs = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 9)
)
scalars = st.builds(Scalar, small_fracs, small_fracs, small_fracs, small_fracs)
gaussian_rationals = st.builds(lambda a, c: Scalar(a, 0, c, 0), small_fracs, small_fracs)


class TestScalar:
    def test_frac_reads_exact_rationals_only(self):
        assert _frac("1/2") == Fraction(1, 2)
        with pytest.raises(TypeError, match="not an exact rational: 0.5"):
            _frac(0.5)

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
        assert n.is_real
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
        with pytest.raises(DimensionMismatch):
            mat_mul(ExactMatrix.identity(2), ExactMatrix.identity(3))
        with pytest.raises(DimensionMismatch):
            commutes(ExactMatrix.identity(2), ExactMatrix.identity(4))

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
        with pytest.raises(ZeroVector):
            projector_from_vector((0, 0))

    def test_scalar_multiple_of_identity(self):
        assert scalar_multiple_of_identity(ExactMatrix.identity(3).scale(-2)) == Scalar(-2)
        assert scalar_multiple_of_identity(PAULI["X"]) is None

    def test_pauli_word(self):
        assert pauli_matrix("XY") == kron(PAULI["X"], PAULI["Y"])
        assert pauli_matrix("Z", -1) == -PAULI["Z"]
        with pytest.raises(ValueError):
            pauli_matrix("XQ")

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
    fold is the oracle, and pauli_word reads the word back."""

    @pytest.mark.parametrize("prefix,word", SIGNED_WORDS)
    def test_kron_fold_oracle(self, prefix, word):
        sign = -1 if prefix == "-" else 1
        m = _kron_fold(word, sign)
        assert pauli_matrix(word, sign) == m
        assert pauli_word(m) == pauli_masks(word, sign)
        assert pauli_word(m.scale(I_UNIT)) is None

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            pauli_matrix("X", 2)

    @pytest.mark.parametrize("rows", [
        pytest.param([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], id="swap"),
        pytest.param([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], id="permutation"),
        pytest.param([[0, 0], [0, 0]], id="zero"),
        pytest.param([[1, 0, 0], [0, -1, 0], [0, 0, 1]], id="dim-3"),
        pytest.param([[0, 1], [1, 1]], id="pauli-like-row-0"),
    ])
    def test_not_a_word(self, rows):
        assert pauli_word(ExactMatrix(rows)) is None
