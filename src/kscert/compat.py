"""Compatibility structure: contexts, orthogonality graph, basis enumeration.

A context is a plain strictly increasing tuple of observable ids whose
operators pairwise commute (verified exactly, for Pauli words from their
bit masks).  Every producer returns it sorted: validate_context (declared
contexts and each user polynomial's variables), OrthogonalityGraph.edges
(pairs i < j) and enumerate_bases (sorted cliques); consumers take it as is.
A Pauli word is i^k X^x Z^z, kept as the masks (n, k, x, z); a context of
Pauli words is multiplied as masks, with a phase in Z_4, and a context with
any other member is multiplied out.
For ray sets the orthogonality graph has one vertex per ray and an edge
whenever the inner product of the underlying vectors vanishes, computed in
integers on their primitive integral vectors.  Each ray's neighbours are one
int bit mask, bit j set for ray j; bases are the graph's n-vertex cliques,
grown from an explicit stack by intersecting masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
                raise NotCommuting((i, j), (oset.labels[i], oset.labels[j]))
    return tuple(ids)


def _commute(a: Observable, b: Observable) -> bool:
    """Two Pauli words X^x1 Z^z1 and X^x2 Z^z2 commute exactly when
    popcount(x1 & z2 ^ z1 & x2) is even, as moving each Z past an X on the
    same qubit changes the sign; phases do not matter.  Any other pair of
    observables is multiplied out."""
    if a.pauli is not None and b.pauli is not None:
        _, _, x1, z1 = a.pauli
        _, _, x2, z2 = b.pauli
        return (x1 & z2 ^ z1 & x2).bit_count() % 2 == 0
    return commutes(a.matrix, b.matrix)


@dataclass
class OrthogonalityGraph:
    """Vertices are ray ids; edges join rays with vanishing inner product.

    masks[i] is an int with bit j set exactly when rays i and j are
    orthogonal (never bit i itself)."""

    oset: ObservableSet
    masks: list

    @cached_property
    def edges(self) -> list:
        """The pairs (i, j), i < j, in order; computed on first read."""
        out = []
        for i, m in enumerate(self.masks):
            m = m >> (i + 1) << (i + 1)
            while m:
                low = m & -m
                out.append((i, low.bit_length() - 1))
                m ^= low
        return out


def build_orthogonality_graph(oset: ObservableSet) -> OrthogonalityGraph:
    if not oset.all_rays:
        raise NonRayMember("orthogonality graph requires a pure ray set")
    n = len(oset)
    keys = [obs.ray.key for obs in oset.observables]
    masks = [0] * n
    for i in range(n):
        ki = keys[i]
        for j in range(i + 1, n):
            if orthogonal_integral(ki, keys[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return OrthogonalityGraph(oset=oset, masks=masks)


def enumerate_bases(graph: OrthogonalityGraph) -> list:
    """All n-cliques of the orthogonality graph, as sorted id tuples.

    Each sorted clique on the stack keeps its candidates, the later
    vertices adjacent to all its members, as an int bit mask.  It is
    extended by each candidate in turn, lowest first, which keeps the
    later candidates in its own mask; a branch stops as soon as its clique
    and remaining candidates together fall short of n.  Each n-clique is an orthogonal basis of C^n,
    so its projectors sum to I: the basis half of Condition 1 for ray sets
    (sum P_i - 1 = 0).
    """
    n, masks = graph.oset.dim, graph.masks
    bases = []
    stack = [((), (1 << len(masks)) - 1)]
    while stack:
        clique, cands = stack.pop()
        need = n - len(clique)
        if not need:
            bases.append(clique)
            continue
        while cands.bit_count() >= need:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            stack.append((clique + (v,), cands & masks[v]))
    return sorted(bases)


def context_product(oset: ObservableSet, ctx: tuple):
    """Exact product of the member matrices and, when scalar, its delta.

    Returns (matrix, delta) with delta a Scalar when the product is a scalar
    multiple of the identity, else (matrix, None).
    """
    prod = ExactMatrix.identity(oset.dim)
    for i in ctx:
        prod = mat_mul(prod, oset[i].matrix)
    return prod, scalar_multiple_of_identity(prod)


def word_product(words) -> tuple:
    """The masks (n, k, x, z) of the product, in order, of one or more Pauli
    words given as masks: as Z^z X^x2 = (-1)^popcount(z & x2) X^x2 Z^z,
    i^k X^x Z^z times i^k2 X^x2 Z^z2 is
    i^(k + k2 + 2 popcount(z & x2)) X^(x ^ x2) Z^(z ^ z2)."""
    k = x = z = 0
    for n, k2, x2, z2 in words:
        k += k2 + 2 * (z & x2).bit_count()
        x ^= x2
        z ^= z2
    return n, k % 4, x, z


def context_delta(oset: ObservableSet, ctx: tuple):
    """delta with the product of ctx's members equal to delta*I, or None
    when that product is not a scalar.  Pauli words are multiplied as masks
    (word_product): the product i^k X^x Z^z is scalar exactly when
    x = z = 0, and delta is then i^k.  A context with any other member is
    multiplied out (context_product)."""
    members = [oset[i] for i in ctx]
    if members and all(o.pauli is not None for o in members):
        _, k, x, z = word_product(o.pauli for o in members)
        return None if x or z else PHASES[k]
    return context_product(oset, ctx)[1]
