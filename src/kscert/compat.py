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
largest key part, and each ray's packed products with every ray are the
digits of one int, its row, summed per key position rather than per pair
(build_orthogonality_graph says why that is exact).  Each ray's neighbours
are one int bit mask, bit j set for ray j, read off the row's zero digits;
bases are the graph's n-vertex cliques, grown from an explicit stack by
intersecting masks.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from operator import mul

from .errors import KSCertError
from .exact import (
    PHASES,
    ExactMatrix,
    commutes,
    mat_mul,
    scalar_multiple_of_identity,
)
from .model import Observable, ObservableSet


def validate_context(oset: ObservableSet, ids: Iterable[int]) -> tuple:
    """The sorted context of ids: they are in range, distinct and pairwise
    commuting; raises KSCertError on the first bad id or pair."""
    ids = sorted(ids)
    for i in ids:
        if not 0 <= i < len(oset):
            raise KSCertError(f"observable id {i} out of range")
    for i, j in zip(ids, ids[1:]):  # sorted, so a repeated id is next to itself
        if i == j:
            raise KSCertError(f"context repeats observable {oset.labels[i]}")
    for a_pos, i in enumerate(ids):
        for j in ids[a_pos + 1 :]:
            if not _commute(oset[i], oset[j]):
                raise KSCertError(
                    f"observables {oset.labels[i]} and {oset.labels[j]} do not commute")
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


class OrthogonalityGraph(namedtuple("OrthogonalityGraph", "oset masks")):
    """Vertices are ray ids; edges join rays with vanishing inner product.

    masks[i] is an int with bit j set exactly when rays i and j are
    orthogonal (never bit i itself).  No __slots__, so that edges is kept
    in the instance's __dict__, as Ray.projector is."""

    @property
    def edge_count(self) -> int:
        """len(edges), counted on the masks, where each edge sets two bits."""
        return sum(m.bit_count() for m in self.masks) // 2

    @cached_property
    def edges(self) -> list:
        """The pairs (i, j), i < j, in order; listed on first read, which
        only a member's or F's terms need."""
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
    and repeat).  Z is linear in u's parts, Z = sum_p u_p W_v[p], with W_v
    the weights of v's components.

    Ray i's row is one int, whose base-R digit j is Z_ij + R/2, for R the
    power of two of a whole number of bytes at least M^4.  As each sum is
    at most M/2 - 1 in size, |Z| <= (M/2 - 1)(1 + M + M^2 + M^3) < M^4/2,
    so every digit lies in (0, R): none borrows from or carries into the
    next, and the row is exactly H + sum_j Z_ij R^j for H = sum_j (R/2) R^j.
    Being linear in v, that sum is built per key position q, not per pair:
    with ind[q][t] = sum R^j over the rays j whose key has component t at
    q, row i = H + sum_q piece(q, u_q) for piece(q, s) =
    sum_t Z(s, t) ind[q][t], one int per (position, component) pair (KP-40:
    8 positions, 5 components).  XORed with H, a digit is 0 exactly when
    Z_ij = 0.  Adding R/2 - 1 to a digit's lower bits sets its top bit
    exactly when they are not all 0, and carries no further; OR-ed with the
    digit's own top bit, the top bits left clear mark the zero digits.  Each
    such bit is 0x80 in the digit's top byte, and the top bytes, read in
    big-endian order from digit n - 1 down, are the bits of masks[i].
    Z_ii = |u_i|^2 is not 0, so no row has its own bit, and Z_ij = 0 exactly
    when Z_ji = 0, so the rows come out symmetric.
    """
    if not oset.all_rays:
        raise KSCertError("orthogonality graph requires a pure ray set")
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
    width = -(-4 * (m1.bit_length() - 1) // 8)  # bytes per digit
    low = int.from_bytes(b"\x01".rjust(width, b"\0") * n, "big")  # sum_j R^j
    high = low << (8 * width - 1)  # H
    rest = high - low  # each digit's bits below its top bit
    ind = [{} for _ in range(oset.dim)]
    for j, key in enumerate(keys):
        for q, t in enumerate(key):
            ind[q][t] = ind[q].get(t, 0) | 1 << (8 * width * j)
    pieces = {}
    top = bytes.maketrans(b"\0\x80", b"01")  # a digit's top byte, unmarked or marked
    masks = []
    for key in keys:
        row = high
        for q, s in enumerate(key):
            piece = pieces.get((q, s))
            if piece is None:
                piece = pieces[q, s] = sum(
                    sum(map(mul, s, weight[t])) * x for t, x in ind[q].items())
            row += piece
        row ^= high
        zero = high & ~((row & rest) + rest | row)
        masks.append(int(zero.to_bytes(n * width, "big")[::width].translate(top), 2))
    return OrthogonalityGraph(oset=oset, masks=masks)


def enumerate_bases(graph: OrthogonalityGraph) -> list:
    """All n-cliques of the orthogonality graph, as sorted id tuples.

    Each sorted clique on the stack keeps its candidates, the later
    vertices adjacent to all its members, as an int bit mask.  It is
    extended by each candidate v in turn, lowest first, while the
    candidates left can still fill it; v's child keeps the later
    candidates in masks[v], and is pushed only when they can fill it too.
    A clique one vertex short of n takes each candidate as a basis at once,
    in a loop of its own: as a branch inside the candidate loop it measured
    about 20% slower on 48 rays in C^24.  Each n-clique is an orthogonal
    basis of C^n, so its projectors sum to I: the basis half of Condition 1
    for ray sets (sum P_i - 1 = 0).
    """
    n, masks = graph.oset.dim, graph.masks
    bases = []
    stack = [((), (1 << len(masks)) - 1)]
    while stack:
        clique, cands = stack.pop()
        need = n - len(clique) - 1  # vertices still needed after the next one
        if not need:
            while cands:
                low = cands & -cands
                cands ^= low
                bases.append(clique + (low.bit_length() - 1,))
            continue
        while cands.bit_count() > need:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            if (sub := cands & masks[v]).bit_count() >= need:
                stack.append((clique + (v,), sub))
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
