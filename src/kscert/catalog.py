"""Built-in proof catalog.

Four classic observable sets, stored as construction code rather than
trusted data: each entry builds the declarations a proof file would make
(Pauli observables as their signed words, each labelled by its word, rays
as their vectors, and contexts by label), and loads them as a file's are,
through ProofFile.load, which re-verifies the commutation of every declared
context.  Loading builds no matrix: words are deduplicated by their masks
(exact.pauli_masks), and their commutation is read off the same masks.  An
entry states no mode: the CLI infers it from the set, as for a file's
`mode auto` (parity for the Pauli entries, ray for the ray entries).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import KSCertError
from .exact import MINUS_ONE, ONE, SQRT2, ZERO
from .model import ObservableSet
from .prooffile import ContextDecl, ObsDecl, ProofFile


class CatalogEntry(namedtuple("CatalogEntry", "description build")):
    """build() makes the entry's ProofFile; description is its line of the
    catalog listing."""

    __slots__ = ()

    def load(self) -> ObservableSet:
        """The entry's observable set, with its declared contexts."""
        return self.build().load()[0]


def _pauli_file(dim: int, words: list, contexts: list) -> ProofFile:
    """The words, each labelled by itself, and the contexts, by label."""
    return ProofFile(dim, "auto", [ObsDecl("pauli", w, pauli=w) for w in words],
                     [ContextDecl(list(c)) for c in contexts], [])


def _mermin_peres() -> ProofFile:
    rows = [("XI", "IX", "XX"), ("IZ", "ZI", "ZZ"), ("XZ", "ZX", "YY")]
    return _pauli_file(4, [w for row in rows for w in row], rows + list(zip(*rows)))


def _mermin_pentagram() -> ProofFile:
    words = [
        "XXX", "XYY", "YXY", "YYX",
        "XII", "IXI", "IIX",
        "YII", "IYI", "IIY",
    ]
    lines = [
        ("XXX", "XII", "IXI", "IIX"),
        ("XYY", "XII", "IYI", "IIY"),
        ("YXY", "IXI", "YII", "IIY"),
        ("YYX", "IIX", "YII", "IYI"),
        ("XXX", "XYY", "YXY", "YYX"),  # the all-product line, delta = -1
    ]
    return _pauli_file(8, words, lines)


CABELLO_18_VECTORS = [
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (1, 1, 0, 0),
    (1, -1, 0, 0),
    (0, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, -1, 0),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
    (0, 0, 1, 1),
    (1, 1, 1, 1),
    (0, 1, 0, -1),
    (1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, -1, 0),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
    (-1, 1, 1, 1),
]


# each catalog ray component is one of these shared objects, so loading a
# set reads each distinct component once and makes no Scalar product
_UNITS = {0: ZERO, 1: ONE, -1: MINUS_ONE}
_MINUS_SQRT2 = -SQRT2


def _ray_file(dim: int, vectors) -> ProofFile:
    """The vectors as rays r1, r2, ..., with no context."""
    return ProofFile(dim, "auto", [ObsDecl("ray", f"r{k + 1}", v) for k, v in enumerate(vectors)],
                     [], [])


def _cabello_18() -> ProofFile:
    return _ray_file(4, [tuple(_UNITS[x] for x in v) for v in CABELLO_18_VECTORS])


def _peres_33() -> ProofFile:
    """Peres' 33 rays: all components in {0, +-1, +-sqrt2}, up to sign."""
    vecs = []
    # axes
    for p in range(3):
        v = [ZERO, ZERO, ZERO]
        v[p] = ONE
        vecs.append(tuple(v))
    # one zero, the others +-1
    for z in range(3):
        rest = [p for p in range(3) if p != z]
        for s in (ONE, MINUS_ONE):
            v = [ZERO, ZERO, ZERO]
            v[rest[0]] = ONE
            v[rest[1]] = s
            vecs.append(tuple(v))
    # one zero, a 1 and a +-sqrt2
    for z in range(3):
        rest = [p for p in range(3) if p != z]
        for a, b in (rest, rest[::-1]):
            for s in (SQRT2, _MINUS_SQRT2):
                v = [ZERO, ZERO, ZERO]
                v[a] = ONE
                v[b] = s
                vecs.append(tuple(v))
    # a sqrt2 and two +-1
    for p in range(3):
        rest = [q for q in range(3) if q != p]
        for s1 in (ONE, MINUS_ONE):
            for s2 in (ONE, MINUS_ONE):
                v = [ZERO, ZERO, ZERO]
                v[p] = SQRT2
                v[rest[0]] = s1
                v[rest[1]] = s2
                vecs.append(tuple(v))
    assert len(vecs) == 33
    return _ray_file(3, vecs)


ENTRIES = {
    "mermin-peres": CatalogEntry(
        description="3x3 square of two-qubit Pauli observables, 6 contexts, dim 4",
        build=_mermin_peres,
    ),
    "mermin-pentagram": CatalogEntry(
        description="10 three-qubit Pauli observables on 5 lines, dim 8",
        build=_mermin_pentagram,
    ),
    "cabello-18": CatalogEntry(
        description="18 rays in dim 4 forming 9 bases, each ray in two bases",
        build=_cabello_18,
    ),
    "peres-33": CatalogEntry(
        description="Peres' 33 rays in dim 3 (components 0, +-1, +-sqrt2)",
        build=_peres_33,
    ),
}


def get(name: str) -> CatalogEntry:
    if name not in ENTRIES:
        raise KSCertError(f"unknown catalog entry {name}; have {', '.join(names())}")
    return ENTRIES[name]


def names() -> list:
    return sorted(ENTRIES)
