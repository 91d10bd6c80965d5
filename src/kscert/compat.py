"""Compatibility structure: contexts, orthogonality graph, basis enumeration.

A context is a plain strictly increasing tuple of observable ids whose
operators pairwise commute (verified exactly, for Pauli words from their
letters).  Every producer returns it sorted: validate_context (declared
contexts and each user polynomial's variables), OrthogonalityGraph.edges
(pairs i < j) and enumerate_bases (sorted cliques); consumers take it as is.
A context of Pauli words is multiplied as words, with a phase in Z_4; a
context with any other member is multiplied out.
For ray sets the orthogonality graph has one vertex per ray and an edge
whenever the inner product of the underlying vectors vanishes, computed in
integers on their primitive integral vectors; bases are its n-vertex
cliques.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import KSCertError, NonRayMember, NotCommuting
from .exact import (
    PHASES,
    ExactMatrix,
    commutes,
    mat_mul,
    orthogonal_integral,
    scalar_multiple_of_identity,
)
from .model import Observable, ObservableSet


def validate_context(oset: ObservableSet, ids: Iterable[int]) -> tuple:
    """The sorted context of ids: they are distinct, in range and pairwise
    commuting; raises NotCommuting on the first bad pair."""
    ids = sorted(ids)
    if len(set(ids)) != len(ids):
        raise KSCertError("context ids must be distinct")
    for i in ids:
        if not 0 <= i < len(oset):
            raise KSCertError(f"observable id {i} out of range")
    for a_pos, i in enumerate(ids):
        for j in ids[a_pos + 1 :]:
            if not _commute(oset[i], oset[j]):
                raise NotCommuting(i, j)
    return tuple(ids)


def _commute(x: Observable, y: Observable) -> bool:
    """Two Pauli words commute exactly when an even number of positions hold
    two different letters other than I, as such a pair of letters
    anticommutes and any other pair commutes; signs do not matter.  Any
    other pair of observables is multiplied out."""
    if x.pauli is not None and y.pauli is not None:
        return sum(p != q and "I" not in (p, q) for p, q in zip(x.pauli, y.pauli)) % 2 == 0
    return commutes(x.matrix, y.matrix)


@dataclass
class OrthogonalityGraph:
    """Vertices are ray ids; edges join rays with vanishing inner product."""

    oset: ObservableSet
    adjacency: dict = field(default_factory=dict)  # id -> frozenset of ids

    @property
    def n_vertices(self) -> int:
        return len(self.oset)

    @property
    def edges(self) -> list:
        out = []
        for i in sorted(self.adjacency):
            for j in sorted(self.adjacency[i]):
                if i < j:
                    out.append((i, j))
        return out


def build_orthogonality_graph(oset: ObservableSet) -> OrthogonalityGraph:
    if not oset.all_rays:
        raise NonRayMember("orthogonality graph requires a pure ray set")
    n = len(oset)
    keys = [obs.ray.key for obs in oset.observables]
    adj = {i: set() for i in range(n)}
    for i in range(n):
        ki = keys[i]
        for j in range(i + 1, n):
            if orthogonal_integral(ki, keys[j]):
                adj[i].add(j)
                adj[j].add(i)
    return OrthogonalityGraph(
        oset=oset, adjacency={i: frozenset(s) for i, s in adj.items()}
    )


def _bron_kerbosch(adj, r, p, x, out):
    # pivot on the vertex of p|x with the most neighbors in p
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out)
        p = p - {v}
        x = x | {v}


def enumerate_bases(graph: OrthogonalityGraph) -> list:
    """All n-cliques of the orthogonality graph, as sorted id tuples.

    In dimension n at most n rays are mutually orthogonal, so every n-clique
    is maximal and the pivoted maximal-clique search finds them all.  Each is
    an orthogonal basis of C^n, so its projectors sum to I: the basis half of
    Condition 1 for ray sets (sum P_i - 1 = 0).
    """
    cliques = []
    vertices = set(range(graph.n_vertices))
    _bron_kerbosch(graph.adjacency, set(), vertices, set(), cliques)
    return sorted(c for c in cliques if len(c) == graph.oset.dim)


def context_product(oset: ObservableSet, ctx: tuple):
    """Exact product of the member matrices and, when scalar, its delta.

    Returns (matrix, delta) with delta a Scalar when the product is a scalar
    multiple of the identity, else (matrix, None).
    """
    prod = ExactMatrix.identity(oset.dim)
    for i in ctx:
        prod = mat_mul(prod, oset[i].matrix)
    return prod, scalar_multiple_of_identity(prod)


def _letter_products() -> dict:
    """(p, q) -> (k, r) with p * q = i^k * r for single-qubit Paulis."""
    table = {}
    for p in "IXYZ":
        table["I", p] = table[p, "I"] = (0, p)
        table[p, p] = (0, "I")
    for p, q, r in ("XYZ", "YZX", "ZXY"):
        table[p, q], table[q, p] = (1, r), (3, r)
    return table


_LETTER_PRODUCT = _letter_products()


def word_product(words) -> tuple:
    """(k, letters) with the product of the signed words (sign, letters), in
    order, equal to i^k * letters: letters multiply position by position
    (XY = iZ, YX = -iZ, PP = I, ...) and the phases add in Z_4, a sign -1
    adding 2."""
    k, out = 0, None
    for sign, letters in words:
        k += 1 - sign
        if out is None:
            out = letters
            continue
        prods = [_LETTER_PRODUCT[p, q] for p, q in zip(out, letters)]
        k += sum(j for j, _ in prods)
        out = "".join(r for _, r in prods)
    return k % 4, out


def context_delta(oset: ObservableSet, ctx: tuple):
    """delta with the product of ctx's members equal to delta*I, or None
    when that product is not a scalar.  Pauli words are multiplied as words
    (word_product): the product is scalar exactly when every letter reduces
    to I, and delta is then i^k.  A context with any other member is
    multiplied out (context_product)."""
    members = [oset[i] for i in ctx]
    if members and all(o.pauli is not None for o in members):
        k, letters = word_product((o.sign, o.pauli) for o in members)
        return PHASES[k] if set(letters) == {"I"} else None
    return context_product(oset, ctx)[1]
