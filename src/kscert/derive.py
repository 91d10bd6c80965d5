"""The derivation pipeline: complete sets, the witness polynomial F, and
canonical inequality presentations.

The pipeline mirrors three steps: build a complete set of normalized
polynomials from the proof structure, assemble F as minus the sum of their
normalized squares (certifying that each member, and hence F, vanishes as
an operator and that no assignment keeps F above -1), and rearrange F into
an integer-coefficient score with explicit classical bound and quantum value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .assign import (
    BoundResult,
    DEFAULT_NODE_CAP,
    ProofCertificate,
    general_unsat,
    ks_colorability,
    max_F,
    parity_certify,
    parity_elimination,
    parity_min_violations,
)
from .compat import OrthogonalityGraph
from .errors import (
    Condition1Violated,
    EdgeOutsideBases,
    IdenticallyZeroOnAssignments,
    NormalizationMismatch,
    NotKSProofError,
    PresentationUnavailable,
    ZeroState,
)
from .exact import _FR0, ONE, MINUS_ONE, ZERO, Scalar, inner, integral
from .model import ObservableSet
from .poly import (
    ContextPolynomial,
    Poly,
    eval_operator,
    make_context_polynomial,
    normalization_constant,
    reduce,
)

RAY_EDGES_BASES = "RayEdgesBases"
RAY_BASES_ONLY = "RayBasesOnly"
PARITY = "Parity"
USER_SUPPLIED = "UserSupplied"


@dataclass
class CompleteSet:
    oset: ObservableSet
    members: Optional[list]  # list[ContextPolynomial]; None on a ray set
    provenance: str
    graph: Optional[OrthogonalityGraph] = None  # with bases and edges, set by the ray builders
    bases: Optional[list] = None
    edges: Optional[list] = None  # the graph's edges that are members
    parity: Optional[list] = None  # (context, delta) per member, set by the parity builder

    @cached_property
    def polynomials(self) -> list:
        """The members, a ray set's built from its edges and bases when read."""
        if self.members is not None:
            return self.members
        polys = [_ray_member({((i, 1), (j, 1)): ONE}, self.oset) for i, j in self.edges]
        return polys + [_basis_poly(self.oset, b) for b in self.bases]

    def __len__(self):
        if self.members is None:
            return len(self.edges) + len(self.bases)
        return len(self.members)


def _ray_member(terms: dict, oset: ObservableSet) -> ContextPolynomial:
    # terms are clean: ONE or MINUS_ONE on tuple monomials.  A ray's
    # spectrum is (0, 1) for d >= 2, so exponents of 1 are reduced
    p = Poly._make(terms)
    if oset.dim == 1:
        return make_context_polynomial(p, oset)
    return ContextPolynomial(p)


def _basis_poly(oset, basis: tuple) -> ContextPolynomial:
    return _ray_member({((i, 1),): ONE for i in basis} | {(): MINUS_ONE}, oset)


def build_complete_set_rays(
    oset: ObservableSet, graph: OrthogonalityGraph, bases: Sequence[tuple]
) -> CompleteSet:
    """One P_i*P_j polynomial per orthogonality edge plus one sum-minus-one
    polynomial per basis, each with c = 1 (edge products take the values 0
    and 1, basis sums the integers -1 to n - 1).  Condition 1 holds by
    construction: edges join exactly orthogonal rays (P_i P_j = 0), and
    bases sum to I (see enumerate_bases).  The set records graph, bases and
    member edges, whose coloring rules are exactly its members (see decide),
    and from which ray_F sums its F; it builds no member."""
    return CompleteSet(oset, None, RAY_EDGES_BASES, graph, list(bases), graph.edges)


def build_complete_set_bases_only(
    oset: ObservableSet, graph: OrthogonalityGraph, bases: Sequence[tuple]
) -> CompleteSet:
    """Basis polynomials only; valid when every orthogonality edge lies in
    some supplied basis (raises EdgeOutsideBases otherwise).  c = 1 and
    Condition 1 hold as for build_complete_set_rays, and the set records its
    graph and bases as that one does, with no member edge (see decide)."""
    covered = [0] * len(graph.masks)  # bit j of covered[i]: i and j share a basis
    for b in bases:
        mask = sum(1 << i for i in b)
        for i in b:
            covered[i] |= mask
    for i, j in graph.edges:
        if not covered[i] >> j & 1:
            raise EdgeOutsideBases((i, j), (oset.labels[i], oset.labels[j]))
    return CompleteSet(oset, None, RAY_BASES_ONLY, graph, list(bases), [])


def build_complete_set_parity(oset: ObservableSet, contexts: Sequence[tuple]) -> CompleteSet:
    """Product-minus-delta polynomials, each with c = 4 (values are 0 or +-2).
    Condition 1 holds as parity_certify found each context product delta*I;
    whether the set is a proof is decide's question, which it answers from
    the (context, delta) rows the set records, and parity_F reads F from
    them too.  Dichotomic spectra have two values, so the products are
    reduced as written."""
    rows = list(zip(contexts, parity_certify(oset, contexts)))
    four = Fraction(4)
    polys = [ContextPolynomial(Poly._make({tuple((i, 1) for i in ctx): ONE,
                                           (): MINUS_ONE if d == 1 else ONE}), four)
             for ctx, d in rows]
    return CompleteSet(oset=oset, members=polys, provenance=PARITY, parity=rows)


def build_complete_set_general(oset: ObservableSet, polynomials: Sequence) -> CompleteSet:
    """User-supplied polynomials: Condition 1 is checked member by member, and
    Condition1Violated names the first that is not zero as an operator."""
    for idx, cp in enumerate(polynomials):
        m = eval_operator(cp.poly, oset)
        if not m.is_zero:
            raise Condition1Violated(idx, m)
    return CompleteSet(oset=oset, members=list(polynomials), provenance=USER_SUPPLIED)


def with_constants(cs: CompleteSet) -> CompleteSet:
    """cs with every member's c_i fixed; no other code fixes a c_i.  A
    builder's stated c_i is kept, and cs itself is returned when every c_i
    is a builder's, unread on a set that records a graph.  A member with no
    c, and every user-supplied member, gets normalization_constant's, which
    raises IdenticallyZeroOnAssignments where there is none.  A declared c
    that differs raises NormalizationMismatch.  Either names the faulty member.
    It runs once per command, after a KSProof verdict: in assemble_F before
    either bound route, and in verify."""
    user = cs.provenance == USER_SUPPLIED
    if cs.graph is not None or (not user and all(cp.c is not None for cp in cs.polynomials)):
        return cs
    polys = []
    for idx, cp in enumerate(cs.polynomials):
        if cp.c is None or user:
            try:
                c = normalization_constant(cp, cs.oset)
            except IdenticallyZeroOnAssignments as ex:
                raise IdenticallyZeroOnAssignments(f"polynomial {idx}: {ex}") from None
            if cp.c not in (None, c):
                raise NormalizationMismatch(idx, cp.c, c)
            cp = replace(cp, c=c)
        polys.append(cp)
    return replace(cs, members=polys)


def decide(cs: CompleteSet, node_cap: int = DEFAULT_NODE_CAP) -> ProofCertificate:
    """Condition 2, the verdict of verify and of every derivation: KSProof
    iff no value assignment zeroes every member, else a witness that does.
    A set with a recorded graph is decided by ks_colorability, which is far
    faster there.  Its rules are a ray set's members; in bases-only mode
    every edge lies in a basis, whose one 1 leaves no edge at 1, so they
    have the same zeroes.  A parity set is decided by parity_elimination
    from its recorded rows: its members are zero exactly where the GF(2)
    equations hold, so it is never searched and node_cap cannot be
    reached.  A general set is decided by general_unsat.  The c_i are
    with_constants' question."""
    if cs.graph is not None:
        return ks_colorability(cs.oset, cs.graph, cs.bases, node_cap=node_cap)
    if cs.parity is not None:
        return parity_elimination(cs.oset, cs.parity)
    return general_unsat(cs.oset, cs.polynomials, node_cap=node_cap)


@dataclass
class Inequality:
    complete_set: CompleteSet
    F: Poly  # fully reduced, across all contexts
    classical: BoundResult  # bound on max F|_v


@dataclass
class PresentedInequality:
    form: str  # "projector" | "dichotomic"
    score: Poly  # integer-coefficient score G with F = scale*G + offset
    scale: Fraction
    offset: Fraction
    classical_bound: Fraction
    bound_kind: str  # "exact" | "certified"
    quantum_value: Fraction
    labels: list  # the score's variable labels, by id
    substituted: bool = False  # True when P -> (1-A)/2 was applied
    witness: Optional[dict] = None  # the exact bound's maximiser in the score's variables


def assemble_F(
    cs: CompleteSet,
    exact_bound: bool = False,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Inequality:
    """F = -sum of normalized squares, with quantum and classical certificates.

    Condition 1 is the quantum certificate, certified where cs was built:
    RayEdgesBases and RayBasesOnly from exact orthogonality and bases that
    sum to I, Parity from context products delta*I, UserSupplied by
    evaluating each member.  Nothing is evaluated as an operator here.
    Within a context the variables are commuting Hermitian operators, each
    annihilated by its spectrum (validate_context, orthogonality and
    make_observable verify this; ray and Pauli spectra are stated), so
    evaluating the reduced -sum r_i^dagger r_i / c_i gives
    -sum r_i(A)^dagger r_i(A) / c_i, which is 0 once every r_i(A) = 0.

    decide settles Condition 2 first on either route, and a non-proof
    raises NotKSProofError with decide's witness.  On a proof the certified
    bound -1 comes with decide's UNSAT certificate (each violated r_i costs
    at least 1 once divided by c_i), and the exact bound maximises
    F = -sum |r_i|^2 / c_i with max_F, which therefore never runs on a set
    whose maximum is 0.  That -1 is max_F's ceiling: the search stops when
    it reaches it.  On a parity set each violated member costs exactly 1
    (c = 4, |Pi - delta|^2 = 4), so max F is -m for the least number m of
    violated contexts, and -m, from parity_min_violations where its walk is
    short, is the ceiling instead.

    with_constants fixes the c_i once, after the verdict and before either
    route, and raises the normalization error for a member without a
    rational c_i or with a wrong declared one.  The returned complete set
    carries the c_i used.

    On either route F is taken in decide's order: a set that records a
    graph (a ray set, in either mode, each member with c = 1) takes ray_F's
    sum of counts, one that records parity rows parity_F's closed form, and
    any other, a user-supplied set, F's definition, sum_of_squares.
    """
    oset = cs.oset
    cert = decide(cs, node_cap=node_cap)
    if cert.witness is not None:
        raise NotKSProofError(
            f"not a KS proof; satisfying assignment {witness_str(cert.witness, oset.labels)}"
        )
    cs = with_constants(cs)
    if exact_bound:
        m = parity_min_violations(cs.parity) if cs.parity is not None else None
        ceiling = Fraction(-1 if m is None else -m)
        classical = max_F(oset, cs.polynomials, node_cap=node_cap, ceiling=ceiling)
    else:
        classical = BoundResult(kind="certified", value=Fraction(-1), stats=cert.stats)
    if cs.graph is not None:
        F = ray_F(cs.edges, cs.bases)
    elif cs.parity is not None:
        F = parity_F(cs.parity)
    else:
        F = sum_of_squares(cs.polynomials, oset.spectra())
    return Inequality(complete_set=cs, F=F, classical=classical)


def ray_F(edges: Sequence[tuple], bases: Sequence[tuple]) -> Poly:
    """F of the ray set with member edges `edges` (all, or in bases-only mode
    none, of its graph's) and bases `bases`, from counts alone;
    sum_of_squares is its oracle.

    Each member has c = 1, and P^2 = P on a ray's spectrum (0, 1).  So the
    edge member P_i P_j gives -P_i P_j, and the basis member sum P_i - 1
    gives -1 + sum P_i - 2 sum_{i<j} P_i P_j.  Hence
    F = -B + sum_i m_i P_i - sum_pairs (e_ij + 2 m_ij) P_i P_j, with B the
    number of bases, m_i the number that hold ray i, m_ij the number that
    hold pair ij and e_ij 1 on a member edge, else 0 (Cabello, Severini and
    Winter's weighted graph).  The counts are ints, over denominator 1.

    P^2 = P needs d >= 2.  In d = 1, P = I and every member is 0, but
    assemble_F never reaches F there: a ray set in d <= 2 is colourable.
    """
    pairs = dict.fromkeys(edges, 1)
    for b in bases:
        for e in combinations(b, 2):  # bases are sorted, as edges are
            pairs[e] = pairs.get(e, 0) + 2
    nums = {(): (-len(bases), 0)}
    nums.update((((i, 1),), (m, 0)) for i, m in Counter(i for b in bases for i in b).items())
    nums.update((((i, 1), (j, 1)), (-w, 0)) for (i, j), w in pairs.items())
    return _int_poly(nums, 1)


def parity_F(rows: Sequence[tuple]) -> Poly:
    """F of the parity set with (context, delta) rows `rows`, from the rows
    alone; sum_of_squares is its oracle.

    Each member Pi_C - delta_C has c = 4, and every variable is dichotomic,
    so A_i^2 = 1 on its spectrum (-1, 1) and, the ids of a context being
    distinct, Pi_C^2 = 1; with delta^2 = 1 the member's normalized square
    is (2 - 2 delta_C Pi_C) / 4.  Hence F = -N/2 + sum_C delta_C Pi_C / 2
    for N rows (Mermin, PRL 65, 3373 (1990)), in ints over denominator 2.
    """
    deltas = Counter()  # a caller may pass a context twice; a proof file cannot
    for ctx, delta in rows:
        deltas[tuple((i, 1) for i in ctx)] += delta
    nums = {(): (-len(rows), 0)}
    nums.update((m, (x, 0)) for m, x in deltas.items())
    return _int_poly(nums, 2)


def sum_of_squares(members: Sequence[ContextPolynomial], spectra) -> Poly:
    """F's definition: the reduced -sum r_i^dagger r_i / c_i.

    Each member's square is added, scaled by -1/c_i, into one term dict,
    and reduce, being linear, lowers the sum once.  This is assemble_F's
    route for a set whose builder knows no closed form, a user-supplied
    one, and the test oracle of ray_F and parity_F.
    """
    acc = {}
    for cp in members:
        w = Scalar.of(-1 / cp.c)
        for m, c in (cp.poly.conjugate() * cp.poly).terms.items():
            acc[m] = acc.get(m, ZERO) + c * w
    return reduce(Poly(acc), spectra)


def _int_poly(nums: dict, den: int) -> Poly:
    """The Poly with coefficient (x + y sqrt2) / den at each monomial m whose
    int pair nums[m] = (x, y) is not (0, 0); one Scalar per distinct pair."""
    scalars, terms = {}, {}  # coefficients take few distinct values
    for m, xy in nums.items():
        if xy != (0, 0):
            s = scalars.get(xy)
            if s is None:
                x, y = xy
                s = scalars[xy] = Scalar._make(Fraction(x, den), Fraction(y, den) if y else _FR0,
                                               _FR0, _FR0)
            terms[m] = s
    return Poly._make(terms)


def witness_str(witness: dict, labels: Sequence[str]) -> str:
    return ", ".join(f"{labels[i]}={witness[i]}" for i in sorted(witness))


def _substitute_dichotomic(nums: dict, deg: int) -> dict:
    """Replace every projector variable P_i by (1 - A_i)/2 in F, keeping
    ids: F's coefficients are the int numerators nums over a denominator D,
    and the result's are int numerators over D 2^deg, where deg is at least
    the size of every monomial's variable set.

    F is reduced over the rays' spectrum (0, 1), where P^e = P, so a
    monomial depends only on its variable set S, and
    prod_{i in S} (1 - A_i)/2 = 2^-|S| sum_{T subset S} (-1)^|T| A_T: its
    numerator n adds +-n 2^(deg - |S|) to each T.  Each A_i occurs at most
    once per monomial, so no A^2 arises and the result needs no reduction
    over A's spectrum (-1, 1)."""
    out = {}
    for mono, n in nums.items():
        ids = [i for i, _ in mono]
        w = n << (deg - len(ids))
        for k in range(len(ids) + 1):
            for sub in combinations(ids, k):  # ids ascend, so sub is sorted
                m = tuple((i, 1) for i in sub)
                out[m] = out.get(m, 0) + (-w if k % 2 else w)
    return {m: n for m, n in out.items() if n}


def check_form(cs: CompleteSet, form: str) -> bool:
    """Whether presenting the F of cs in `form` substitutes P = (1 - A)/2;
    raises PresentationUnavailable when the form cannot present it.

    F's variables are among the members' variables, so this runs before the
    search.  The projector form keeps projector variables and needs a ray
    set.  The dichotomic form keeps the variables when those the members
    use are all dichotomic, and otherwise substitutes, which needs a ray set.
    """
    oset = cs.oset
    if form == "projector":
        if not oset.all_rays:
            raise PresentationUnavailable("projector form requires a ray observable set")
        return False
    if form == "dichotomic":
        if cs.graph is not None:  # members use rays, none dichotomic, exactly
            return bool(cs.graph.edges)  # when there is an edge; in d = 1 each is constant
        used = {i for cp in cs.polynomials for i in cp.poly.variables()}
        if all(oset[i].is_dichotomic for i in used):
            return False
        if not oset.all_rays:
            raise PresentationUnavailable("dichotomic substitution requires projector variables")
        return True
    raise PresentationUnavailable(f"unknown form {form!r}")


def present(ineq: Inequality, form: str) -> PresentedInequality:
    """Rearrange F into an integer-coefficient score with explicit bounds.

    F's coefficients are read as int numerators over one denominator D
    (exact.integral), after one test that their irrational and imaginary
    parts are zero (PresentationUnavailable otherwise).  projector form
    requires projector variables and keeps them; dichotomic form substitutes
    P = (1 - A)/2 when needed (check_form), in ints over D 2^deg.  The
    scale is one int g over that final denominator, and each score
    coefficient is a numerator divided by g, one Scalar per distinct value.
    The affine bookkeeping F = scale*G + offset transforms both the
    classical bound and the quantum value exactly; scale > 0, so the exact
    bound's witness maximises G too, at A = 1 - 2P where P is substituted.
    """
    oset = ineq.complete_set.oset
    substituted = check_form(ineq.complete_set, form)
    witness = ineq.classical.witness
    # a closed form's F shares few Scalar objects (4 over KP-40's 501
    # terms), a user-supplied set's none: read each once
    coefs = {id(c): c for c in ineq.F.terms.values()}
    D, ints = integral(coefs.values())
    if any(b or c or d for _, b, c, d in ints):
        raise PresentationUnavailable("presentation requires rational coefficients")
    by_id = {k: a for k, (a, _, _, _) in zip(coefs, ints)}
    nums = {m: by_id[id(c)] for m, c in ineq.F.terms.items()}
    if substituted:
        deg = ineq.F.max_degree()
        nums, den = _substitute_dichotomic(nums, deg), D << deg
        labels = ["d" + label for label in oset.labels]
        if witness is not None:
            witness = {i: 1 - 2 * p for i, p in witness.items()}
    else:
        den, labels = D, oset.labels

    offset = Fraction(nums.pop((), 0), den)
    if substituted and not any(n % D for n in nums.values()):
        # substitution introduces denominators up to 2^deg; where that exact
        # power still gives integers it keeps pair-correlation coefficients
        # even, matching the customary dichotomic presentation
        g = D
    else:
        # the primitive scale, or 1 when F is constant
        g = gcd(*nums.values()) or den
    scale = Fraction(g, den)
    return PresentedInequality(
        form=form,
        score=_int_poly({m: (n // g, 0) for m, n in nums.items()}, 1),
        scale=scale,
        offset=offset,
        # a certified BoundResult carries the bound -1 on F
        classical_bound=(ineq.classical.value - offset) / scale,
        bound_kind=ineq.classical.kind,
        quantum_value=-offset / scale,
        labels=labels,
        substituted=substituted,
        witness=witness,
    )


def expectation(p: Poly, oset: ObservableSet, state: Sequence) -> Scalar:
    """Exact <psi| p(A) |psi> / <psi|psi> for an unnormalized state vector."""
    psi = tuple(Scalar.of(x) for x in state)
    if all(x.is_zero for x in psi):
        raise ZeroState("state vector is zero")
    m = eval_operator(p, oset)
    return inner(psi, m.apply(psi)) / inner(psi, psi)
