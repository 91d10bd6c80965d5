"""Observable-set data model: observables, rays, spectra, proof-set container.

Every observable carries its finite spectrum.  Matrix input is verified on
construction: the product of (A - a_j I) over the declared eigenvalues must
be exactly zero, and a value is kept exactly when it is an eigenvalue.
Rays and Pauli words have their spectra stated, for the reasons their
constructors give.  A ray keeps its nonzero vector and that vector's
primitive integral form over Z[i, sqrt2], which decides orthogonality.
That key is computed in ints (exact.primitive_integral), and a set's
add_ray reads each distinct component object once, so loading rays makes
no Scalar product.  A Pauli observable keeps its word as bit masks,
which decide commutation and context products.  Both forms also key
duplicates (ObservableSet).  The projector or the Pauli matrix is built
only when a matrix is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import KSCertError
from .exact import (
    ExactMatrix,
    Scalar,
    mat_mul,
    mask_matrix,
    pauli_masks,
    primitive_integral,
    projector_from_vector,
)


@dataclass(frozen=True)
class Ray:
    """An unnormalized nonzero vector, the primitive integral vector of its
    line, and its exact rank-1 projector, built when first read."""

    vector: tuple
    key: tuple  # primitive_integral(vector)

    @property
    def dim(self) -> int:
        return len(self.vector)

    @cached_property
    def projector(self) -> ExactMatrix:
        return projector_from_vector(self.vector)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix with a verified annihilating spectrum.  A ray
    observable holds its ray instead, and its matrix is the ray's projector.
    A Pauli observable holds its word i^k X^x Z^z on n qubits instead, as
    (n, k, x, z), and its matrix is built from those masks when first read."""

    spectrum: tuple  # distinct Fractions, ascending
    label: str = ""
    ray: Optional[Ray] = None  # set when the observable is a rank-1 projector
    own_matrix: Optional[ExactMatrix] = field(default=None, repr=False)  # unless ray or word
    pauli: Optional[tuple] = None  # (n, k, x, z), see exact.pauli_masks

    @cached_property
    def matrix(self) -> ExactMatrix:
        if self.ray is not None:
            return self.ray.projector
        if self.pauli is not None:
            return mask_matrix(*self.pauli)
        return self.own_matrix

    @property
    def dim(self) -> int:
        if self.ray is not None:
            return self.ray.dim
        if self.pauli is not None:
            return 1 << self.pauli[0]
        return self.own_matrix.dim

    @property
    def is_projector(self) -> bool:
        return self.ray is not None

    @property
    def is_dichotomic(self) -> bool:
        return self.spectrum == _SPECTRUM_PM1  # spectra are sorted


def _annihilates(matrix: ExactMatrix, spectrum, factors: Optional[dict] = None) -> bool:
    """True iff the product of (matrix - aI) over spectrum is 0; over no
    value the product is I, which is not.  factors, a dict the caller keeps
    for one matrix, maps each value a to matrix - aI, so that a factor is
    built once however many products it enters."""
    if factors is None:
        factors = {}
    prod = None
    for a in spectrum:
        factor = factors.get(a)
        if factor is None:
            factor = factors[a] = matrix - ExactMatrix.identity(matrix.dim).scale(Scalar.of(a))
        prod = factor if prod is None else mat_mul(prod, factor)
        if prod.is_zero:
            return True
    return False


def make_observable(
    matrix: ExactMatrix, spectrum: Optional[Sequence] = None, label: str = ""
) -> Observable:
    """Build an Observable, verifying Hermiticity and annihilation exactly;
    an omitted spectrum is (0, 1) if m^2 = m and (-1, 1) if m^2 = I, which
    is that spectrum's annihilation check.  For a Hermitian A annihilated by
    the product of (A - bI) over the values, a is an eigenvalue exactly when
    the product over the other values is not 0."""
    if not matrix.is_hermitian:
        raise KSCertError(f"observable {label or '?'} is not Hermitian")
    factors = {}
    if spectrum is None:
        m2 = mat_mul(matrix, matrix)
        if m2 != matrix and m2 != ExactMatrix.identity(matrix.dim):
            raise KSCertError("spectrum omitted and matrix is neither idempotent nor involutory")
        spec = _SPECTRUM_01 if m2 == matrix else _SPECTRUM_PM1
    else:
        spec = tuple(sorted(Fraction(a) for a in spectrum))
        if len(set(spec)) != len(spec):
            raise KSCertError("spectrum values must be pairwise distinct")
        if not _annihilates(matrix, spec, factors):
            raise KSCertError(
                f"declared spectrum {list(map(str, spec))} does not annihilate "
                f"observable {label or '?'}"
            )
    spec = tuple(a for a in spec if not _annihilates(matrix, [b for b in spec if b != a], factors))
    return Observable(spectrum=spec, label=label, own_matrix=matrix)


def make_ray(vector: Sequence, label: str = "", memo: Optional[dict] = None) -> Ray:
    """A ray from an unnormalized nonzero vector; memo as in
    exact.primitive_integral, which also finds the zero vector."""
    v = tuple(map(Scalar.of, vector))
    key = primitive_integral(v, memo)
    if key is None:
        raise KSCertError(f"ray {label or '?'} is the zero vector")
    return Ray(vector=v, key=key)


# spectra shared by the observables that have them, as a load makes one per ray or word
_SPECTRUM_1 = (Fraction(1),)
_SPECTRUM_01 = (Fraction(0), Fraction(1))
_SPECTRUM_PM1 = (Fraction(-1), Fraction(1))


def ray_observable(ray: Ray, label: str = "") -> Observable:
    """P = vv*/(v*v) is idempotent, and for d >= 2 neither 0 nor I, so its
    minimal spectrum is (0, 1); for d = 1, P = I and the spectrum is (1,)."""
    return Observable(spectrum=_SPECTRUM_1 if ray.dim == 1 else _SPECTRUM_01, label=label, ray=ray)


def pauli_observable(word: str, label: str = "") -> Observable:
    """A signed Pauli word such as -XYZ.  I, X, Y and Z are Hermitian and
    square to I, so a signed tensor product M of them is too: (M - I)(M + I)
    = 0.  One factor alone is 0 only if M = +-I, i.e. for a word of I's (any
    other letter makes the trace 0); the spectrum is (sign,) there, else (-1, 1)."""
    sign = -1 if word.startswith("-") else 1
    n, k, x, z = pauli_masks(word[1:] if word[:1] in ("+", "-") else word, sign)
    spec = _SPECTRUM_PM1 if x or z else (Fraction(sign),)
    return Observable(spectrum=spec, label=label, pauli=(n, k, x, z))


def dichotomize(ray: Ray, label: str = "") -> Observable:
    """The {-1,1}-valued observable I - 2P associated with a ray."""
    n = ray.dim
    matrix = ExactMatrix.identity(n) - ray.projector.scale(2)
    spec = (Fraction(-1),) if n == 1 else _SPECTRUM_PM1
    return Observable(spectrum=spec, label=label, own_matrix=matrix)


@dataclass
class ObservableSet:
    """The proof-set container: a fixed-dimension list of observables.

    Observable ids are positions in `observables`.  add rejects an
    observable whose matrix equals an earlier one's.  Its index keys a ray
    by its primitive integral vector and a Pauli word by its masks, both
    canonical, so a set of rays and words builds no matrix.  From the first
    `matrix` declaration on, every observable is keyed by its matrix; the
    rebuilt keys cannot collide, as in d >= 2 a ray's projector has the
    eigenvalue 0 and a word's eigenvalues are +-1.  add also indexes each
    label at its first observable, for by_label, and add_ray keys its rays
    with one memo (exact.primitive_integral), which lives as long as the set.
    """

    dim: int
    observables: list = field(default_factory=list)
    declared_contexts: list = field(default_factory=list)  # list[tuple[int,...]]
    _ids: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _by_matrix: bool = field(default=False, init=False, repr=False, compare=False)
    _by_label: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def add(self, obs: Observable) -> int:
        if obs.dim != self.dim:
            raise KSCertError(f"observable {obs.label or '?'} has dimension {obs.dim}, "
                              f"set has {self.dim}")
        if obs.own_matrix is not None and not self._by_matrix:
            self._by_matrix = True
            self._ids = {o.matrix: i for i, o in enumerate(self.observables)}
        if self._by_matrix:
            key = obs.matrix
        else:
            key = obs.ray.key if obs.ray is not None else obs.pauli
        if key in self._ids:
            existing = self.observables[self._ids[key]]
            raise KSCertError(f"observable {obs.label or '?'} duplicates {existing.label or '?'}")
        i = self._ids[key] = len(self.observables)
        self._by_label.setdefault(obs.label, i)
        self.observables.append(obs)
        return i

    def add_ray(self, vector: Sequence, label: str = "") -> int:
        ray = make_ray(vector, label, self._memo)
        return self.add(ray_observable(ray, label))

    def __len__(self):
        return len(self.observables)

    def __getitem__(self, i: int) -> Observable:
        return self.observables[i]

    @property
    def labels(self) -> list:
        return [
            o.label if o.label else f"A{i}" for i, o in enumerate(self.observables)
        ]

    @property
    def all_rays(self) -> bool:
        return bool(self.observables) and all(o.is_projector for o in self.observables)

    @property
    def all_dichotomic(self) -> bool:
        return bool(self.observables) and all(o.is_dichotomic for o in self.observables)

    def spectra(self) -> dict:
        return {i: o.spectrum for i, o in enumerate(self.observables)}

    def by_label(self, label: str) -> int:
        i = self._by_label.get(label)
        if i is None:
            raise KSCertError(f"unknown observable label {label}")
        return i
