"""Direct constructions that the tests check kscert's shortcuts against.
No command needs them: the package builds a Pauli word's matrix from its
masks (exact.mask_matrix), and these build it from 2x2 blocks."""

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
