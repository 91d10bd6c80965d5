"""Direct constructions that the tests check kscert's shortcuts against.
No command needs them: the package builds a Pauli word's matrix from its
masks (exact.mask_matrix), and these build it from 2x2 blocks; Scalar's
ring operations short-circuit on zeros, and ring_add, ring_sub and
ring_mul work on plain (a, b, c, d) Fraction tuples."""

from fractions import Fraction

from kscert.exact import I_UNIT, MINUS_ONE, ONE, ZERO, ExactMatrix, mask_matrix, pauli_masks


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Tensor product; result dimension a.dim * b.dim: entry (i m + k, j m + l)
    is a[i][j] * b[k][l], for m = b.dim."""
    return ExactMatrix([[x * y for x in r for y in s] for r in a.entries for s in b.entries])


# 2x2 Pauli matrices, the blocks of kron's tensor-product observables.
PAULI = {
    "I": ExactMatrix.identity(2),
    "X": ExactMatrix([[ZERO, ONE], [ONE, ZERO]]),
    "Y": ExactMatrix([[ZERO, -I_UNIT], [I_UNIT, ZERO]]),
    "Z": ExactMatrix([[ONE, ZERO], [ZERO, MINUS_ONE]]),
}


def pauli_matrix(word: str, sign: int = 1) -> ExactMatrix:
    """Tensor product of single-qubit Paulis, e.g. "XY" -> X (x) Y, times sign,
    through the package's masks."""
    return mask_matrix(*pauli_masks(word, sign))


def ring_add(s: tuple, t: tuple) -> tuple:
    """The sum of two (a, b, c, d) tuples, each a + b r + (c + d r) i with r = sqrt2."""
    return tuple(x + y for x, y in zip(s, t))


def ring_sub(s: tuple, t: tuple) -> tuple:
    return tuple(x - y for x, y in zip(s, t))


def ring_mul(s: tuple, t: tuple) -> tuple:
    """The product of two (a, b, c, d) tuples, expanded over the basis
    (1, r, i, ri), r = sqrt2: basis element k holds r^(k & 1) i^(k >> 1), so
    e_j e_k is e_(j ^ k) times 2 when both hold r and -1 when both hold i."""
    out = [Fraction(0)] * 4
    for j, x in enumerate(s):
        for k, y in enumerate(t):
            factor = (2 if j & k & 1 else 1) * (-1 if j & k & 2 else 1)
            out[j ^ k] += factor * x * y
    return tuple(out)
