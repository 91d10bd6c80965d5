"""Built-in proof catalog.

Four classic observable sets, stored as construction code rather than
trusted data: every entry is rebuilt on load (Pauli observables as their
signed words, rays from their vectors), and the commutation of its
declared contexts is re-verified.  Loading builds no matrix: words are
deduplicated by their masks (exact.pauli_masks), and their commutation is
read off the same masks.  An entry states no mode: the CLI infers it from
the set, as for a file's `mode auto` (parity for the Pauli entries, ray
for the ray entries).
"""

from __future__ import annotations

from collections import namedtuple

from .compat import validate_context
from .errors import KSCertError
from .exact import MINUS_ONE, ONE, SQRT2, ZERO
from .model import ObservableSet, pauli_observable


class CatalogEntry(namedtuple("CatalogEntry", "description build")):
    """build() makes the entry's ObservableSet; description is its line of
    the catalog listing."""

    __slots__ = ()

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


# each catalog ray component is one of these shared objects, so loading a
# set reads each distinct component once and makes no Scalar product
_UNITS = {0: ZERO, 1: ONE, -1: MINUS_ONE}
_MINUS_SQRT2 = -SQRT2


def _cabello_18() -> ObservableSet:
    oset = ObservableSet(dim=4)
    for k, v in enumerate(CABELLO_18_VECTORS):
        oset.add_ray(tuple(_UNITS[x] for x in v), label=f"r{k + 1}")
    return oset


def _peres_33_vectors():
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
    return vecs


def _peres_33() -> ObservableSet:
    oset = ObservableSet(dim=3)
    for k, v in enumerate(_peres_33_vectors()):
        oset.add_ray(v, label=f"r{k + 1}")
    return oset


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
