"""Built-in proof catalog.

Four classic observable sets, stored as construction code rather than
trusted data: every entry is rebuilt on load (Pauli observables as their
signed words, rays from their vectors), and the commutation of its
declared contexts is re-verified.  Loading builds no matrix: words are
deduplicated by their masks (exact.pauli_masks), and their commutation is
read off the same masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .compat import validate_context
from .errors import KSCertError
from .exact import SQRT2, Scalar
from .model import ObservableSet, pauli_observable


@dataclass
class CatalogEntry:
    description: str
    mode: str  # "parity" | "ray"
    build: Callable[[], ObservableSet]

    def load(self) -> ObservableSet:
        oset = self.build()
        # re-verify declared contexts rather than trusting stored ids
        oset.declared_contexts = [validate_context(oset, ids) for ids in oset.declared_contexts]
        return oset


def _pauli_set(dim: int, words, contexts) -> ObservableSet:
    oset = ObservableSet(dim=dim)
    for word in words:
        oset.add(pauli_observable(word, label=word))
    oset.declared_contexts = [tuple(ids) for ids in contexts]
    return oset


def _mermin_peres() -> ObservableSet:
    words = ["XI", "IX", "XX", "IZ", "ZI", "ZZ", "XZ", "ZX", "YY"]
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return _pauli_set(4, words, rows + cols)


def _mermin_pentagram() -> ObservableSet:
    words = [
        "XXX", "XYY", "YXY", "YYX",  # 0-3
        "XII", "IXI", "IIX",  # 4-6
        "YII", "IYI", "IIY",  # 7-9
    ]
    lines = [
        (0, 4, 5, 6),  # XXX with the three single X's
        (1, 4, 8, 9),  # XYY with X1, Y2, Y3
        (2, 5, 7, 9),  # YXY with X2, Y1, Y3
        (3, 6, 7, 8),  # YYX with X3, Y1, Y2
        (0, 1, 2, 3),  # the all-product line, delta = -1
    ]
    return _pauli_set(8, words, lines)


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


def _cabello_18() -> ObservableSet:
    oset = ObservableSet(dim=4)
    for k, v in enumerate(CABELLO_18_VECTORS):
        oset.add_ray(v, label=f"r{k + 1}")
    return oset


def _peres_33_vectors():
    """Peres' 33 rays: all components in {0, +-1, +-sqrt2}, up to sign."""
    one = Scalar(1)
    zero = Scalar(0)
    vecs = []
    # axes
    for p in range(3):
        v = [zero, zero, zero]
        v[p] = one
        vecs.append(tuple(v))
    # one zero, the others +-1
    for z in range(3):
        rest = [p for p in range(3) if p != z]
        for s in (1, -1):
            v = [zero, zero, zero]
            v[rest[0]] = one
            v[rest[1]] = Scalar(s)
            vecs.append(tuple(v))
    # one zero, a 1 and a +-sqrt2
    for z in range(3):
        rest = [p for p in range(3) if p != z]
        for a, b in (rest, rest[::-1]):
            for s in (1, -1):
                v = [zero, zero, zero]
                v[a] = one
                v[b] = SQRT2 * Scalar(s)
                vecs.append(tuple(v))
    # a sqrt2 and two +-1
    for p in range(3):
        rest = [q for q in range(3) if q != p]
        for s1 in (1, -1):
            for s2 in (1, -1):
                v = [zero, zero, zero]
                v[p] = SQRT2
                v[rest[0]] = Scalar(s1)
                v[rest[1]] = Scalar(s2)
                vecs.append(tuple(v))
    assert len(vecs) == 33
    return vecs


def _peres_33() -> ObservableSet:
    oset = ObservableSet(dim=3)
    for k, v in enumerate(_peres_33_vectors()):
        oset.add_ray(v, label=f"r{k + 1}")
    return oset


ENTRIES = {
    "mermin-peres": CatalogEntry(
        description="3x3 square of two-qubit Pauli observables, 6 contexts, dim 4",
        mode="parity",
        build=_mermin_peres,
    ),
    "mermin-pentagram": CatalogEntry(
        description="10 three-qubit Pauli observables on 5 lines, dim 8",
        mode="parity",
        build=_mermin_pentagram,
    ),
    "cabello-18": CatalogEntry(
        description="18 rays in dim 4 forming 9 bases, each ray in two bases",
        mode="ray",
        build=_cabello_18,
    ),
    "peres-33": CatalogEntry(
        description="Peres' 33 rays in dim 3 (components 0, +-1, +-sqrt2)",
        mode="ray",
        build=_peres_33,
    ),
}


def get(name: str) -> CatalogEntry:
    if name not in ENTRIES:
        raise KSCertError(f"unknown catalog entry {name}; have {', '.join(names())}")
    return ENTRIES[name]


def names() -> list:
    return sorted(ENTRIES)
