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
integers on their primitive integral vectors: the four integer sums of the
inner product are packed into one integer with a radix fixed from the
largest key part, so each pair is one integer dot product
(build_orthogonality_graph says why that is exact).  Each ray's neighbours
are one int bit mask, bit j set for ray j; bases are the graph's n-vertex
cliques, grown from an explicit stack by intersecting masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, mul
from typing import Iterable

from .errors import KSCertError, NonRayMember, NotCommuting
from .exact import (
    PHASES,
    ExactMatrix,
    commutes,
    mat_mul,
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
    """The graph of the rays' orthogonality, tested exactly in integers on
    their keys, the primitive integral vectors (exact.primitive_integral).

    For keys u and v, with components a + b sqrt2 + i (c + d sqrt2) and
    e + f sqrt2 + i (g + h sqrt2), <u, v> = sum conj(u_k) v_k is
    ra + rb sqrt2 + i (ia + ib sqrt2), with
        ra = sum a e + 2 b f + c g + 2 d h    rb = sum a f + b e + c h + d g
        ia = sum a g + 2 b h - c e - 2 d f    ib = sum a h + b g - c f - d e,
    and it is 0 exactly when all four are.  With A the largest |part| of
    any key and n the dimension, each sum is at most 6 n A^2 in size, less
    than M / 2 for the radix M, the power of two above 12 n A^2.  So
    Z = ra + M rb + M^2 ia + M^3 ib is 0 exactly when all four are: balanced
    base-M digits are unique (Z mod M is ra, which is then 0; divide by M
    and repeat).  Z is linear in u's parts, Z = sum_p u_p W_v[p], so each
    pair is one integer dot product over u's nonzero parts; W_v is built
    once per ray, from the weights of each distinct component.
    """
    if not oset.all_rays:
        raise NonRayMember("orthogonality graph requires a pure ray set")
    n = len(oset)
    keys = [obs.ray.key for obs in oset.observables]
    comps = {t for key in keys for t in key}  # KP-40's 320 take 5 values
    big = max((abs(p) for t in comps for p in t), default=0)
    m1 = 1 << (12 * oset.dim * big * big).bit_length()
    m2, m3 = m1 * m1, m1 * m1 * m1
    weight = {
        (e, f, g, h): (
            e + m1 * f + m2 * g + m3 * h,
            2 * f + m1 * e + 2 * m2 * h + m3 * g,
            g + m1 * h - m2 * e - m3 * f,
            2 * h + m1 * g - 2 * m2 * f - m3 * e,
        )
        for e, f, g, h in comps
    }
    weights = [[w for t in key for w in weight[t]] for key in keys]
    masks = [0] * n
    for i, key in enumerate(keys):
        ps = [p for t in key for p in t]
        nonzero = [k for k, p in enumerate(ps) if p]
        vals = [ps[k] for k in nonzero]
        get = itemgetter(*nonzero)
        if len(nonzero) == 1:  # itemgetter of one position gives a bare value
            get = itemgetter(slice(nonzero[0], nonzero[0] + 1))
        for j in range(i + 1, n):
            if not sum(map(mul, vals, get(weights[j]))):
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
