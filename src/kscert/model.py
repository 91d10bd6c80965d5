"""Observable-set data model: observables, rays, spectra, proof-set container.

Every observable carries its finite spectrum.  Pauli and matrix input is
re-verified on construction: the product of (A - a_j I) over the declared
eigenvalues must be exactly zero.  Rays are the exception: each projector
is built here from a nonzero vector, so its spectrum is known.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    AnnihilationFailure,
    DimensionMismatch,
    DuplicateObservable,
    NonHermitian,
    ZeroVector,
)
from .exact import ExactMatrix, Scalar, mat_mul, projector_from_vector


@dataclass(frozen=True)
class Ray:
    """An unnormalized vector together with its exact rank-1 projector."""

    vector: tuple
    projector: ExactMatrix

    @property
    def dim(self) -> int:
        return len(self.vector)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix with a verified annihilating spectrum."""

    matrix: ExactMatrix
    spectrum: tuple  # distinct Fractions, ascending
    label: str = ""
    ray: Optional[Ray] = None  # set when the observable is a rank-1 projector

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def is_projector(self) -> bool:
        return self.ray is not None

    @property
    def is_dichotomic(self) -> bool:
        return set(self.spectrum) == {Fraction(-1), Fraction(1)}


def _annihilates(matrix: ExactMatrix, spectrum) -> bool:
    n = matrix.dim
    prod = ExactMatrix.identity(n)
    for a in spectrum:
        prod = mat_mul(prod, matrix - ExactMatrix.identity(n).scale(Scalar.of(a)))
        if prod.is_zero:
            return True
    return prod.is_zero


def _minimal_spectrum(matrix: ExactMatrix, spectrum) -> tuple:
    """Greedily drop eigenvalues whose factor is not needed to annihilate."""
    spec = list(spectrum)
    for a in list(spec):
        if len(spec) == 1:
            break
        trial = [x for x in spec if x != a]
        if _annihilates(matrix, trial):
            spec = trial
    return tuple(sorted(spec))


def _detect_spectrum(matrix: ExactMatrix) -> tuple:
    m2 = mat_mul(matrix, matrix)
    n = matrix.dim
    if m2 == matrix:  # idempotent
        return _minimal_spectrum(matrix, (Fraction(0), Fraction(1)))
    if m2 == ExactMatrix.identity(n):  # involutory
        return _minimal_spectrum(matrix, (Fraction(-1), Fraction(1)))
    raise AnnihilationFailure(
        "spectrum omitted and matrix is neither idempotent nor involutory"
    )


def make_observable(
    matrix: ExactMatrix,
    spectrum: Optional[Sequence] = None,
    label: str = "",
    ray: Optional[Ray] = None,
) -> Observable:
    """Build an Observable, verifying Hermiticity and annihilation exactly."""
    if not matrix.is_hermitian:
        raise NonHermitian(f"observable {label or '?'} is not Hermitian")
    if spectrum is None:
        spec = _detect_spectrum(matrix)
    else:
        spec = tuple(sorted(Fraction(a) for a in spectrum))
        if len(set(spec)) != len(spec):
            raise AnnihilationFailure("spectrum values must be pairwise distinct")
        if not _annihilates(matrix, spec):
            raise AnnihilationFailure(
                f"declared spectrum {list(map(str, spec))} does not annihilate "
                f"observable {label or '?'}"
            )
        spec = _minimal_spectrum(matrix, spec)
    return Observable(matrix=matrix, spectrum=spec, label=label, ray=ray)


def make_ray(vector: Sequence, label: str = "") -> Ray:
    """Exact rank-1 projector from an unnormalized nonzero vector."""
    v = tuple(Scalar.of(x) for x in vector)
    if all(x.is_zero for x in v):
        raise ZeroVector(f"ray {label or '?'} is the zero vector")
    return Ray(vector=v, projector=projector_from_vector(v))


def ray_observable(ray: Ray, label: str = "") -> Observable:
    """P = vv*/(v*v) is idempotent, and for d >= 2 neither 0 nor I, so its
    minimal spectrum is (0, 1); for d = 1, P = I and the spectrum is (1,)."""
    spec = (Fraction(1),) if ray.dim == 1 else (Fraction(0), Fraction(1))
    return Observable(matrix=ray.projector, spectrum=spec, label=label, ray=ray)


def dichotomize(ray: Ray, label: str = "") -> Observable:
    """The {-1,1}-valued observable I - 2P associated with a ray."""
    n = ray.projector.dim
    matrix = ExactMatrix.identity(n) - ray.projector.scale(2)
    spec = (Fraction(-1),) if n == 1 else (Fraction(-1), Fraction(1))
    return Observable(matrix=matrix, spectrum=spec, label=label)


@dataclass
class ObservableSet:
    """The proof-set container: a fixed-dimension list of observables.

    Observable ids are positions in `observables`.  Duplicate matrices are
    rejected; for rays this makes scalar multiples of an existing vector
    duplicates, since both yield the same projector.  Observables enter
    through add, which keeps the matrix -> id index that finds duplicates.
    """

    dim: int
    observables: list = field(default_factory=list)
    declared_contexts: list = field(default_factory=list)  # list[tuple[int,...]]
    _ids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def add(self, obs: Observable) -> int:
        if obs.dim != self.dim:
            raise DimensionMismatch(
                f"observable {obs.label or '?'} has dimension {obs.dim}, set has {self.dim}"
            )
        if obs.matrix in self._ids:
            existing = self.observables[self._ids[obs.matrix]]
            raise DuplicateObservable(
                f"observable {obs.label or '?'} duplicates {existing.label or '?'}"
            )
        self._ids[obs.matrix] = len(self.observables)
        self.observables.append(obs)
        return len(self.observables) - 1

    def add_ray(self, vector: Sequence, label: str = "") -> int:
        ray = make_ray(vector, label)
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
        for i, o in enumerate(self.observables):
            if o.label == label:
                return i
        raise KeyError(label)
