"""Value-assignment searches.

* ks_colorability -- {0,1} colorings of a ray set under the orthogonality
  and basis rules, with unit propagation; RaySet.decide's engine.
  Its domains are int bit masks over the ray ids, (ones, zeros), and it
  visits neighbours and bases in ascending order, so its propagations
  count is fixed by the input;
* parity_certify -- the Condition 1 certificate of a parity set: each
  context product is +-I (compat.context_delta, from the words when every
  member is a Pauli word); a direct check, not a search;
* parity_elimination -- ParitySet.decide's engine: with
  v_i = (-1)^x_i, Condition 2 is one linear equation over GF(2) per
  context, solved by Gaussian elimination over int bit masks (Mermin, PRL
  65, 3373, 1990; XOR clauses as in CryptoMiniSat, Soos, Nohl and
  Castelluccia, SAT 2009), so no parity set is searched;
* parity_min_violations -- ParitySet.exact_bound's engine: max F = -m on
  a parity set, for the least number m of contexts that any assignment
  violates, at an assignment that violates m, read off a Gray-code walk
  of a GF(2) coset; no member is built and nothing is searched;
* branch_and_bound -- the one engine for everything else: it maximises a
  sum of context-local factors with forward checking (weighted-CSP branch
  and bound, Freuder & Wallace, Artif. Intell. 58, 1992).  general_unsat
  (Condition 2 of a general set), max_F (the exact bound on F) and
  classical_max (the exact maximum of a score) differ only in their
  factors and seed.

The search's scores are Python ints.  Each caller fixes one positive common
denominator L before the search, so that L times every factor value is an
int, evaluates its factors in ints over Z[i, sqrt2]
(poly.integral_evaluator), and returns Fraction(best, L).  Scaling every
score by L > 0 keeps every comparison of the search, so its nodes,
witnesses and bounds are those of the same search over the rationals.

All engines are deterministic: fixed variable and value orders (row
order and pivots for the elimination), so identical inputs yield identical
certificates.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import floor, lcm
from operator import itemgetter

from .compat import OrthogonalityGraph, context_delta
from .errors import KSCertError, SearchBudgetExceeded
from .exact import Scalar, squared_modulus
from .model import _SPECTRUM_01, _SPECTRUM_PM1, ObservableSet
from .poly import ContextPolynomial, Poly, integral_evaluator, spectral_assignments

DEFAULT_NODE_CAP = 10**8
MAX_COSET_RANK = 16  # parity_min_violations walks at most 2^16 coset elements

KS_PROOF = "KSProof"
NOT_KS_PROOF = "NotKSProof"


# a search's counts, which its engine states when it is done
SearchStats = namedtuple("SearchStats", "nodes propagations", defaults=(0, 0))


class ProofCertificate(namedtuple("ProofCertificate", "method witness stats contexts",
                                  defaults=(None,))):
    """method is RayColoring, ParityElimination or GeneralCSP.  witness maps
    id -> Fraction for every observable, or is None for a proof.  contexts
    is a parity proof's contradiction, the indices of the contexts whose
    equations sum to 0 = 1, and None for every other certificate."""

    __slots__ = ()

    @property
    def is_proof(self) -> bool:
        return self.witness is None

    @property
    def verdict(self) -> str:
        return KS_PROOF if self.is_proof else NOT_KS_PROOF


class BoundResult(namedtuple("BoundResult", "kind value witness stats", defaults=(None, None))):
    """kind is "exact" or "certified"; value is the exact maximum, or the
    certified upper bound."""

    __slots__ = ()

    @property
    def statement(self) -> str:
        rel = "=" if self.kind == "exact" else "<="
        return f"max {rel} {self.value}"


def value_order(spectrum) -> list:
    """Deterministic value order: +1 before -1 for dichotomic observables,
    ascending otherwise (so 0 before 1 for rays)."""
    order = sorted(spectrum)
    return order[::-1] if tuple(order) == _SPECTRUM_PM1 else order


# -- KS colorability for ray sets -------------------------------------------


def ks_colorability(
    oset: ObservableSet,
    graph: OrthogonalityGraph,
    bases: Sequence[tuple],
    node_cap: int = DEFAULT_NODE_CAP,
) -> ProofCertificate:
    """Complete backtracking search for a {0,1} coloring of the rays.

    Rules: orthogonal rays cannot both be 1; every basis carries exactly
    one 1.  A node's domains are two int bit masks over the ray ids, ones
    and zeros; a ray in neither is free.  Unit propagation sweeps until
    nothing changes: each sweep zeroes the free neighbours of the rays that
    became 1 since the last sweep, in ascending id order, then scans the
    bases in order, setting a ray to 1 when it is the only one left that
    can be 1 in its basis.  A 1 next to a 1, or a basis of 0s, is a
    conflict.  propagations counts the rays so zeroed or set, up to the
    conflict: a 1 meeting a 1 among its neighbours first zeroes the free
    ones below it.  An explicit stack of (ones, zeros, new ones, position)
    visits the nodes depth first, 0 before 1, so no input reaches the
    recursion limit.  A node branches on its first free ray in a static
    order, found from the position its parent branched at: both children
    fix that ray, and free rays only shrink along a path, so no earlier
    one is free.
    """
    mu = len(oset)
    masks = graph.masks
    bmasks = [sum(1 << i for i in b) for b in bases]
    # static branching order: rays in the most bases first, then degree
    in_bases = Counter(i for b in bases for i in b)
    order = sorted(range(mu), key=lambda i: (-in_bases[i], -masks[i].bit_count(), i))
    every = (1 << mu) - 1
    nodes = props = 0

    def propagate(ones, zeros, new):
        """The node's (ones, zeros, free) after propagation, or None on a
        conflict."""
        nonlocal props
        free = every ^ ones ^ zeros
        while True:
            while new:
                low = new & -new
                new ^= low
                nb = masks[low.bit_length() - 1]
                hit = nb & ones
                if hit:
                    props += (nb & free & ((hit & -hit) - 1)).bit_count()
                    return None
                nb &= free
                props += nb.bit_count()
                zeros |= nb
                free ^= nb
            alive = every ^ zeros
            for b in bmasks:
                live = b & alive
                if not live:
                    return None
                if not live & (live - 1) and live & free:
                    ones |= live
                    free ^= live
                    new |= live
                    props += 1
            if not new:
                return ones, zeros, free

    witness = None
    stack = [(0, 0, 0, 0)]
    while stack:
        ones, zeros, new, k = stack.pop()
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(f"node cap {node_cap} exceeded")
        node = propagate(ones, zeros, new)
        if node is None:
            continue
        ones, zeros, free = node
        if not free:
            # propagate leaves no adjacent pair of 1s and a 1 in every basis;
            # a basis is a clique, so that 1 is its only one
            witness = {i: _SPECTRUM_01[ones >> i & 1] for i in range(mu)}
            break
        while not free >> order[k] & 1:
            k += 1
        bit = 1 << order[k]
        stack.append((ones | bit, zeros, bit, k + 1))
        stack.append((ones, zeros | bit, 0, k + 1))  # pushed last so that 0 is tried first
    return ProofCertificate("RayColoring", witness, SearchStats(nodes, props))


# -- parity certification ----------------------------------------------------


def parity_certify(oset: ObservableSet, contexts: Sequence[tuple]) -> list:
    """The deltas of a parity set: every observable is dichotomic and each
    context product is delta*I with delta = +-1 (raises otherwise)."""
    for i, obs in enumerate(oset.observables):
        if not obs.is_dichotomic:
            raise KSCertError(f"observable {oset.labels[i]} is not {{-1,1}}-dichotomic")
    deltas = []
    for ctx in contexts:
        delta = context_delta(oset, ctx)
        if delta is None or not delta.is_rational or delta.rational() not in (1, -1):
            names = ", ".join(oset.labels[i] for i in ctx)
            raise KSCertError(f"context ({names}) product is not +-identity")
        deltas.append(int(delta.rational()))
    return deltas


# -- parity sets by GF(2) elimination ---------------------------------------------


def parity_elimination(oset: ObservableSet, rows: Sequence[tuple]) -> ProofCertificate:
    """Condition 2 of a parity set, each row a context and its delta (see
    parity_certify).  With v_i = (-1)^x_i the member prod_C v_i - delta_C
    vanishes exactly when sum_{i in C} x_i = [delta_C = -1] over GF(2), so
    the set is a proof exactly when that system has no solution.

    Each equation is one int bit mask over the ids, its right-hand side,
    and one int mask of the rows summed into it.  The rows are reduced in
    order against the pivots so far, each pivot at its row's highest set
    bit; propagations counts the row additions, and there are no nodes.  A
    row that reduces to 0 = 1 ends the elimination: its combination is a
    set of contexts that holds every observable an even number of times
    and has an odd number with delta = -1 (Mermin's parity argument), so no
    assignment zeroes them all.  Those contexts are the certificate.
    Otherwise back-substitution in ascending pivot order, every free
    variable at x = 0, gives the lexicographically first solution in id
    order, +1 before -1 as in value_order: the witness, which assigns
    every observable."""
    props = 0
    pivots = {}  # highest bit -> (mask, rhs, combination)
    for k, (ctx, delta) in enumerate(rows):
        mask, rhs, comb = sum(1 << i for i in ctx), int(delta == -1), 1 << k
        while mask:
            top = mask.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = mask, rhs, comb
                break
            mask, rhs, comb = mask ^ pivot[0], rhs ^ pivot[1], comb ^ pivot[2]
            props += 1
        if not mask and rhs:
            contexts = tuple(j for j in range(k + 1) if comb >> j & 1)
            return ProofCertificate("ParityElimination", None, SearchStats(0, props), contexts)
    x = 0
    for top in sorted(pivots):
        mask, rhs, _ = pivots[top]
        x |= (rhs ^ (mask & x).bit_count() & 1) << top
    return ProofCertificate("ParityElimination", signs(x, len(oset)), SearchStats(0, props))


def signs(x: int, n: int) -> dict:
    """The assignment v_i = (-1)^x_i of the ids 0 to n - 1, x_i being bit
    i of x (higher bits are ignored): the witness form of
    parity_elimination and parity_min_violations."""
    return {i: _SPECTRUM_PM1[~x >> i & 1] for i in range(n)}  # the shared -1 and 1


def parity_min_violations(rows: Sequence[tuple], n: int) -> BoundResult | None:
    """The exact maximum of F on a parity set over the ids 0 to n - 1, one
    (context, delta) row per member: -m for the least number m of rows that
    a value assignment violates, each violated member costing exactly 1
    (c = 4, |Pi - delta|^2 = 4), at the first assignment met that violates
    m; None when the walk would be long.  With x as in parity_elimination,
    the rows an assignment violates are the set bits of Ax + b over GF(2),
    where column i of A is the mask of the rows that hold observable i and
    b the mask of the delta = -1 rows; m is the least weight in the coset
    b + Im(A) (Mermin, PRL 65, 3373, 1990).

    Each int below holds a row mask above bit n and, in bits 0 to n - 1,
    the mask of the columns summed into it, so column i starts with bit i.
    The columns are eliminated to a basis of Im(A), each vector at the
    highest set bit of its row mask.  When the rank r is at most
    MAX_COSET_RANK, the 2^r coset elements are walked in Gray-code order
    from b (x = 0), one XOR per step, and the low bits of the first element
    of least weight are x, so signs(x, n) is the witness; nothing is
    searched.  A larger r returns None."""
    columns, b = {}, 0
    for k, (ctx, delta) in enumerate(rows):
        for i in ctx:
            columns[i] = columns.get(i, 1 << i) | 1 << (k + n)
        b |= int(delta == -1) << (k + n)
    basis = {}  # highest bit -> vector
    for col in columns.values():
        while col >> n:
            top = col.bit_length() - 1
            if top not in basis:
                basis[top] = col
                break
            col ^= basis[top]
    if len(basis) > MAX_COSET_RANK:
        return None
    vectors = list(basis.values())
    least, best = b.bit_count(), b
    for step in range(1, 1 << len(vectors)):
        b ^= vectors[(step & -step).bit_length() - 1]
        weight = (b >> n).bit_count()
        if weight < least:
            least, best = weight, b
    return BoundResult("exact", Fraction(-least), signs(best, n), SearchStats())


# -- branch and bound over context-local factors -------------------------------


def branch_and_bound(
    oset: ObservableSet,
    factors: Sequence[tuple],
    seed: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    ceiling: int = 0,
):
    """Maximise a sum of non-positive factors over the value assignments of
    their variables: weighted-CSP branch and bound with forward checking.

    Each factor is (ids, value), where value maps an assignment {id: value}
    of its ids to an int <= 0, memoised per local assignment; the seed is an
    int too.  A caller with rational factors multiplies them all by one
    common denominator L and divides best by L (see the module docstring),
    so the sums and comparisons below are int arithmetic.  At every
    node a fully assigned factor adds its value, a factor with one free
    variable adds its value at each candidate of that variable, and any
    other factor adds its upper bound 0.  A value is pruned when that
    optimistic total cannot beat the incumbent, which starts at seed.  An
    explicit stack and undo trail keep the depth free of the recursion limit.

    The search stops once the incumbent reaches ceiling, an upper bound on
    the maximum that the caller has proven.  A later leaf is recorded only
    when it strictly beats the incumbent, which none can do then, so best
    and witness are those of the full search; only stats shrink.  The
    default 0 bounds every sum of non-positive factors and moves no count:
    once the incumbent is 0, every stacked value is pruned uncounted.

    Returns (best, witness, stats); witness is None when nothing beat seed.
    Without a seed the incumbent starts at -inf, below every int.  The
    witness assigns every observable: one that no factor reads takes its
    first value_order value, as an unconstrained ray does in ks_colorability.
    """
    ids = sorted({i for f_ids, _ in factors for i in f_ids})
    local = {i: v for v, i in enumerate(ids)}
    orders = [value_order(obs.spectrum) for obs in oset.observables]
    spec = [orders[i] for i in ids]
    first = {i: order[0] for i, order in enumerate(orders)}
    fvars = [tuple(local[i] for i in f_ids) for f_ids, _ in factors]
    watch = [[] for _ in ids]
    for k, vs in enumerate(fvars):
        for v in vs:
            watch[v].append(k)
    memo = [{} for _ in fvars]  # per factor: its value indices -> value
    keys = [itemgetter(*vs) if vs else (lambda _: ()) for vs in fvars]
    val = [None] * len(ids)  # assigned value index, None while free
    free = set(range(len(ids)))
    nfree = [len(vs) for vs in fvars]
    dom = [tuple(range(len(s))) for s in spec]  # candidate value indices
    gain = [{} for _ in ids]  # value index -> sum of the one-free factors
    top = [0] * len(ids)  # max of gain over dom
    trail = []  # (var,) per assignment, (var, dom, gain, top) per update
    nodes = props = 0
    A = T = 0  # sum of the assigned factors; sum of top over free variables
    best = float("-inf") if seed is None else seed
    witness = None
    stack = []

    def value(k):
        key = keys[k](val)
        try:
            return memo[k][key]
        except KeyError:
            memo[k][key] = x = factors[k][1]({ids[w]: spec[w][val[w]] for w in fvars[k]})
            return x

    def settle(touched) -> bool:
        """Recompute the gains of the touched variables and prune their
        values that cannot beat the incumbent; False on a dead end."""
        nonlocal T, props
        touched = list(dict.fromkeys(touched))
        for u in touched:
            unary = [k for k in watch[u] if nfree[k] == 1]
            g = {}
            for x in dom[u]:
                val[u] = x
                g[x] = sum(map(value, unary))
            val[u] = None
            t = max(g.values())
            trail.append((u, dom[u], gain[u], top[u]))
            T += t - top[u]
            gain[u], top[u] = g, t
            props += 1
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
            best, witness = A, first | {i: spec[v][val[v]] for v, i in enumerate(ids)}
            return
        var = min(free, key=lambda v: (len(dom[v]), -len(watch[v]), ids[v]))
        bounds = [(A + T - top[var] + gain[var].get(x, 0), x) for x in dom[var]]
        for bound, x in reversed(sorted(bounds, key=lambda b: -b[0])):
            stack.append((len(trail), (A, T), var, x, bound))

    A = sum(value(k) for k, vs in enumerate(fvars) if not vs)
    if settle(v for vs in fvars if len(vs) == 1 for v in vs):
        expand()
    while stack and best < ceiling:
        mark, saved, var, x, bound = stack.pop()
        undo(mark, saved)
        if bound <= best:
            continue
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(f"node cap {node_cap} exceeded")
        if assign(var, x):
            expand()
    return best, witness, SearchStats(nodes, props)


def general_unsat(
    oset: ObservableSet,
    complete_set: Sequence[ContextPolynomial],
    node_cap: int = DEFAULT_NODE_CAP,
) -> ProofCertificate:
    """Condition 2 of a general set: complete search for an assignment
    zeroing every polynomial; the tests' oracle for parity_elimination.

    Each violated polynomial counts -1 and the incumbent starts at -1, so
    only an assignment violating nothing beats it, and the pruning is plain
    forward checking.  KSProof iff there is none; no c_i is needed.  Whether
    a member vanishes is read off its integral_evaluator value, so L = 1.
    """
    spectra = oset.spectra()

    def violation(p):
        value = integral_evaluator(p, spectra)[1]
        return lambda a: -1 if any(value(a)) else 0

    factors = [(cp.poly.variables(), violation(cp.poly)) for cp in complete_set]
    _, witness, stats = branch_and_bound(oset, factors, seed=-1, node_cap=node_cap)
    return ProofCertificate("GeneralCSP", witness, stats)


def max_F(
    oset: ObservableSet,
    members: Sequence[ContextPolynomial],
    node_cap: int = DEFAULT_NODE_CAP,
    ceiling: Fraction = Fraction(0),
) -> BoundResult:
    """Exact maximum of F = -sum |r_i|^2 / c_i over value assignments, one
    factor per member r_i, read with its c_i, so F itself is never
    evaluated.  It is 0 exactly when some assignment zeroes every r_i, that
    is when there is no KS proof.

    integral_evaluator gives v_i = t_i r_i as ints for an int scale t_i, so
    with c_i = p_i/q_i the factor -|r_i|^2 / c_i is -|v_i|^2 q_i / (t_i^2 p_i),
    and L is the lcm of the t_i^2 p_i.  An irrational |r_i|^2 raises
    ValueError.

    ceiling is a proven upper bound on the maximum, 0 by default; the
    search stops at floor(ceiling L) in its int units (see
    branch_and_bound), which changes no value or witness.
    """
    spectra = oset.spectra()
    cleared = []
    for cp in members:
        scale, value = integral_evaluator(cp.poly, spectra)
        cleared.append((cp.poly.variables(), value, scale * scale, cp.c))
    L = lcm(*(t2 * c.numerator for _, _, t2, c in cleared))

    def weight(value, t2, k):
        def f(a):
            x, y = squared_modulus(value(a))
            if y:  # |r|^2 = (x + y sqrt2) / t2 is irrational: raise as .rational() does
                Scalar(Fraction(x, t2), Fraction(y, t2)).rational()
            return -k * x
        return f

    factors = [(ids, weight(value, t2, c.denominator * (L // (t2 * c.numerator))))
               for ids, value, t2, c in cleared]
    best, witness, stats = branch_and_bound(oset, factors, node_cap=node_cap,
                                            ceiling=floor(ceiling * L))
    return BoundResult(kind="exact", value=Fraction(best, L), witness=witness, stats=stats)


def classical_max(
    oset: ObservableSet, score: Poly, node_cap: int = DEFAULT_NODE_CAP
) -> BoundResult:
    """Exact maximum of a rational-coefficient score over all value
    assignments: each monomial, less its maximum over the spectra, is one
    factor, and the maxima are added back.  A monomial's integral_evaluator
    clears its coefficient and spectrum powers with a scale s_m, so L is the
    lcm of the s_m and each factor is L / s_m times the cleared value."""
    spectra = oset.spectra()
    monomials = []
    for mono, coef in score.terms.items():
        if not coef.is_rational:
            raise ValueError("classical_max requires a rational-coefficient score")
        monomials.append(([i for i, _ in mono], *integral_evaluator(Poly({mono: coef}), spectra)))
    L = lcm(*(scale for _, scale, _ in monomials))
    factors, offset = [], 0
    for ids, scale, value in monomials:

        def term(a, value=value, k=L // scale):
            return k * value(a)[0]

        top = max(term(a) for a in spectral_assignments(oset, ids))
        factors.append((ids, lambda a, term=term, top=top: term(a) - top))
        offset += top
    best, witness, stats = branch_and_bound(oset, factors, node_cap=node_cap)
    return BoundResult(kind="exact", value=Fraction(best + offset, L), witness=witness, stats=stats)
