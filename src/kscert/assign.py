"""Value-assignment searches.

* ks_colorability -- {0,1} colorings of a ray set under the orthogonality
  and basis rules, with unit propagation; derive.decide's engine for rays;
* parity_certify -- the Condition 1 certificate of a parity set: each
  context product is +-I; a direct check, not a search;
* branch_and_bound -- the one engine for everything else: it maximises a
  sum of context-local factors with forward checking (weighted-CSP branch
  and bound, Freuder & Wallace, Artif. Intell. 58, 1992).  general_unsat
  (Condition 2), max_F (the exact bound on F) and classical_max (the exact
  maximum of a score) differ only in their factors and seed.

All searches are deterministic: fixed variable and value orders, so
identical inputs yield identical certificates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Optional, Sequence

from .compat import Context, OrthogonalityGraph, context_product
from .errors import NotDichotomic, NotScalarMultiple, SearchBudgetExceeded
from .model import ObservableSet
from .poly import ContextPolynomial, Poly, eval_assignment

DEFAULT_NODE_CAP = 10**8

KS_PROOF = "KSProof"
NOT_KS_PROOF = "NotKSProof"


@dataclass
class SearchStats:
    nodes: int = 0
    propagations: int = 0


@dataclass
class ProofCertificate:
    verdict: str  # KS_PROOF or NOT_KS_PROOF
    method: str  # RayColoring | GeneralCSP
    witness: Optional[dict] = None  # id -> Fraction, when NOT_KS_PROOF
    stats: Optional[SearchStats] = None

    @property
    def is_proof(self) -> bool:
        return self.verdict == KS_PROOF


@dataclass
class BoundResult:
    kind: str  # "exact" | "certified"
    value: Fraction  # exact maximum, or the certified upper bound
    witness: Optional[dict] = None
    stats: Optional[SearchStats] = None

    @property
    def statement(self) -> str:
        rel = "=" if self.kind == "exact" else "<="
        return f"max {rel} {self.value}"


def value_order(spectrum) -> list:
    """Deterministic value order: 0 before 1 for rays, +1 before -1 for
    dichotomic observables, ascending otherwise."""
    s = set(spectrum)
    if s == {Fraction(0), Fraction(1)}:
        return [Fraction(0), Fraction(1)]
    if s == {Fraction(-1), Fraction(1)}:
        return [Fraction(1), Fraction(-1)]
    return sorted(spectrum)


# -- KS colorability for ray sets -------------------------------------------


def ks_colorability(
    oset: ObservableSet,
    graph: OrthogonalityGraph,
    bases: Sequence[Context],
    node_cap: int = DEFAULT_NODE_CAP,
) -> ProofCertificate:
    """Complete backtracking search for a {0,1} coloring of the rays.

    Rules: orthogonal rays cannot both be 1; every basis carries exactly
    one 1.  Assigning 1 propagates 0 to all neighbors; a basis whose
    members are all 0 is an immediate conflict.  A ray's domain is a bit
    mask (ZERO, ONE, or both), and an explicit stack of domain copies
    visits the nodes depth first, 0 before 1, so no input reaches the
    recursion limit.
    """
    ZERO, ONE, BOTH = 1, 2, 3
    mu = len(oset)
    basis_ids = [b.ids for b in bases]
    stats = SearchStats()
    # static branching order: rays in the most bases first, then degree
    in_bases = Counter(i for b in basis_ids for i in b)
    order_key = [(-in_bases[i], -len(graph.adjacency[i]), i) for i in range(mu)]

    def propagate(dom):
        changed = True
        while changed:
            changed = False
            for i, d in enumerate(dom):
                if d == ONE:
                    for j in graph.adjacency[i]:
                        if dom[j] & ONE:
                            if dom[j] == ONE:
                                return False
                            dom[j] = ZERO
                            stats.propagations += 1
                            changed = True
            for b in basis_ids:
                can_be_one = [i for i in b if dom[i] & ONE]
                if not can_be_one:
                    return False
                if len(can_be_one) == 1 and dom[can_be_one[0]] == BOTH:
                    dom[can_be_one[0]] = ONE
                    stats.propagations += 1
                    changed = True
        return True

    witness = None
    stack = [bytearray([BOTH]) * mu]
    while stack:
        dom = stack.pop()
        stats.nodes += 1
        if stats.nodes > node_cap:
            raise SearchBudgetExceeded(f"node cap {node_cap} exceeded")
        if not propagate(dom):
            continue
        free = [i for i, d in enumerate(dom) if d == BOTH]
        if not free:
            # propagate leaves no adjacent pair of 1s and a 1 in every basis;
            # a basis is a clique, so that 1 is its only one
            witness = {i: Fraction(int(dom[i] == ONE)) for i in range(mu)}
            break
        var = min(free, key=order_key.__getitem__)
        for x in (ONE, ZERO):  # pushed so that 0 is tried first
            nxt = bytearray(dom)
            nxt[var] = x
            stack.append(nxt)
    if witness is None:
        return ProofCertificate(KS_PROOF, "RayColoring", stats=stats)
    return ProofCertificate(NOT_KS_PROOF, "RayColoring", witness=witness, stats=stats)


# -- parity certification ----------------------------------------------------


def parity_certify(oset: ObservableSet, contexts: Sequence[Context]) -> list:
    """The deltas of a parity set: every observable is dichotomic and each
    context product is delta*I with delta = +-1 (raises otherwise)."""
    for i, obs in enumerate(oset.observables):
        if not obs.is_dichotomic:
            raise NotDichotomic(i)
    deltas = []
    for ctx in contexts:
        _, delta = context_product(oset, ctx)
        if delta is None or not delta.is_rational or delta.rational() not in (1, -1):
            raise NotScalarMultiple(
                f"context {ctx.ids} product is not +-identity"
            )
        deltas.append(int(delta.rational()))
    return deltas


# -- branch and bound over context-local factors -------------------------------


def branch_and_bound(
    oset: ObservableSet,
    factors: Sequence[tuple],
    seed: Optional[Fraction] = None,
    node_cap: int = DEFAULT_NODE_CAP,
):
    """Maximise a sum of non-positive factors over the value assignments of
    their variables: weighted-CSP branch and bound with forward checking.

    Each factor is (ids, value), where value maps an assignment {id: value}
    of its ids to a Fraction <= 0, memoised per local assignment.  At every
    node a fully assigned factor adds its value, a factor with one free
    variable adds its value at each candidate of that variable, and any
    other factor adds its upper bound 0.  A value is pruned when that
    optimistic total cannot beat the incumbent, which starts at seed.  An
    explicit stack and undo trail keep the depth free of the recursion limit.

    Returns (best, witness, stats); witness is None when nothing beat seed.
    """
    ids = sorted({i for f_ids, _ in factors for i in f_ids})
    local = {i: v for v, i in enumerate(ids)}
    spec = [value_order(oset[i].spectrum) for i in ids]
    fvars = [tuple(local[i] for i in f_ids) for f_ids, _ in factors]
    watch = [[] for _ in ids]
    for k, vs in enumerate(fvars):
        for v in vs:
            watch[v].append(k)
    memo = {}
    val = [None] * len(ids)  # assigned value index, None while free
    free = set(range(len(ids)))
    nfree = [len(vs) for vs in fvars]
    dom = [tuple(range(len(s))) for s in spec]  # candidate value indices
    gain = [{} for _ in ids]  # value index -> sum of the one-free factors
    top = [0] * len(ids)  # max of gain over dom
    trail = []  # (var,) per assignment, (var, dom, gain, top) per update
    stats = SearchStats()
    A = T = 0  # sum of the assigned factors; sum of top over free variables
    best = float("-inf") if seed is None else seed
    witness = None
    stack = []

    def value(k):
        key = (k, tuple(val[w] for w in fvars[k]))
        if key not in memo:
            memo[key] = factors[k][1]({ids[w]: spec[w][val[w]] for w in fvars[k]})
        return memo[key]

    def settle(touched) -> bool:
        """Recompute the gains of the touched variables and prune their
        values that cannot beat the incumbent; False on a dead end."""
        nonlocal T
        touched = list(dict.fromkeys(touched))
        for u in touched:
            unary = [k for k in watch[u] if nfree[k] == 1]
            g = {}
            for x in dom[u]:
                val[u] = x
                g[x] = sum(value(k) for k in unary)
            val[u] = None
            t = max(g.values())
            trail.append((u, dom[u], gain[u], top[u]))
            T += t - top[u]
            gain[u], top[u] = g, t
            stats.propagations += 1
        if A + T <= best:
            return False
        # the value at top always survives, so no domain empties here
        for u in touched:
            dom[u] = tuple(x for x in dom[u] if A + T - top[u] + gain[u][x] > best)
        return True

    def assign(var, x) -> bool:
        nonlocal A, T
        val[var] = x
        free.discard(var)
        trail.append((var,))
        T -= top[var]
        touched = []
        for k in watch[var]:
            nfree[k] -= 1
            if nfree[k] == 0:
                A += value(k)
            elif nfree[k] == 1:
                touched.extend(w for w in fvars[k] if val[w] is None)
        return settle(touched)

    def undo(mark, saved):
        nonlocal A, T
        while len(trail) > mark:
            entry = trail.pop()
            if len(entry) == 1:
                var = entry[0]
                val[var] = None
                free.add(var)
                for k in watch[var]:
                    nfree[k] += 1
            else:
                u, dom[u], gain[u], top[u] = entry
        A, T = saved

    def expand():
        """At a leaf, record the new incumbent (settle let it through, so it
        beats the old one).  Otherwise push the values of the free variable
        with the fewest candidates, the highest optimistic total on top."""
        nonlocal best, witness
        if not free:
            best, witness = A, {i: spec[v][val[v]] for v, i in enumerate(ids)}
            return
        var = min(free, key=lambda v: (len(dom[v]), -len(watch[v]), ids[v]))
        bounds = [(A + T - top[var] + gain[var].get(x, 0), x) for x in dom[var]]
        for bound, x in reversed(sorted(bounds, key=lambda b: -b[0])):
            stack.append((len(trail), (A, T), var, x, bound))

    A = sum(value(k) for k, vs in enumerate(fvars) if not vs)
    if settle(v for vs in fvars if len(vs) == 1 for v in vs):
        expand()
    while stack:
        mark, saved, var, x, bound = stack.pop()
        undo(mark, saved)
        if bound <= best:
            continue
        stats.nodes += 1
        if stats.nodes > node_cap:
            raise SearchBudgetExceeded(f"node cap {node_cap} exceeded")
        if assign(var, x):
            expand()
    return best, witness, stats


def general_unsat(
    oset: ObservableSet,
    complete_set: Sequence[ContextPolynomial],
    node_cap: int = DEFAULT_NODE_CAP,
) -> ProofCertificate:
    """Condition 2: complete search for an assignment zeroing every polynomial.

    Each violated polynomial counts -1 and the incumbent starts at -1, so
    only an assignment violating nothing beats it, and the pruning is plain
    forward checking.  KSProof iff there is none; no c_i is needed.
    """
    def violation(p):
        return lambda a: 0 if eval_assignment(p, a).is_zero else -1

    factors = [(cp.poly.variables(), violation(cp.poly)) for cp in complete_set]
    _, witness, stats = branch_and_bound(oset, factors, seed=Fraction(-1), node_cap=node_cap)
    if witness is None:
        return ProofCertificate(KS_PROOF, "GeneralCSP", stats=stats)
    return ProofCertificate(NOT_KS_PROOF, "GeneralCSP", witness=witness, stats=stats)


def max_F(
    oset: ObservableSet,
    complete_set: Sequence[ContextPolynomial],
    constants: Sequence[Fraction],
    node_cap: int = DEFAULT_NODE_CAP,
) -> BoundResult:
    """Exact maximum of F = -sum |r_i|^2 / c_i over value assignments, one
    factor per r_i, so F itself is never evaluated.  It is 0 exactly when
    some assignment zeroes every r_i, that is when there is no KS proof."""
    def weight(p, c):
        return lambda a: -eval_assignment(p, a).norm_squared().rational() / c

    factors = [(cp.poly.variables(), weight(cp.poly, c)) for cp, c in zip(complete_set, constants)]
    best, witness, stats = branch_and_bound(oset, factors, node_cap=node_cap)
    return BoundResult(kind="exact", value=Fraction(best), witness=witness, stats=stats)


def classical_max(
    oset: ObservableSet, score: Poly, node_cap: int = DEFAULT_NODE_CAP
) -> BoundResult:
    """Exact maximum of a rational-coefficient score over all value
    assignments: each monomial, less its maximum over the spectra, is one
    factor, and the maxima are added back."""
    spectra = oset.spectra()
    factors, offset = [], 0
    for mono, coef in score.terms.items():
        if not coef.is_rational:
            raise ValueError("classical_max requires a rational-coefficient score")
        ids = [i for i, _ in mono]

        def term(a, mono=mono, c=coef.rational()):
            return c * prod(a[i] ** e for i, e in mono)

        top = max(term(dict(zip(ids, xs))) for xs in product(*(spectra[i] for i in ids)))
        factors.append((ids, lambda a, term=term, top=top: term(a) - top))
        offset += top
    best, witness, stats = branch_and_bound(oset, factors, node_cap=node_cap)
    return BoundResult(kind="exact", value=Fraction(best + offset), witness=witness, stats=stats)
