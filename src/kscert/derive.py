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
from .errors import KSCertError, NotKSProofError
from .exact import _FR0, ONE, MINUS_ONE, ZERO, Scalar, integral
from .model import ObservableSet
from .poly import (
    ContextPolynomial,
    Poly,
    eval_operator,
    make_context_polynomial,
    normalization_constant,
    reduce,
)


@dataclass
class CompleteSet:
    """A complete set of polynomials over oset.  Each kind below holds what
    its builder recorded and answers from it: len, polynomials, decide,
    with_constants, F, exact_bound, dichotomic_substitutes and the size text
    of verify's method line.  Each default here, with_constants,
    exact_bound and size_text, is the answer of two kinds of the three."""

    oset: ObservableSet

    def exact_bound(self, node_cap: int = DEFAULT_NODE_CAP) -> BoundResult:
        """The exact maximum of F on a proof, by max_F on the members, which
        stops at -1, a proven ceiling: each violated member costs at least 1
        once divided by its c_i."""
        return max_F(self.oset, self.polynomials, node_cap=node_cap, ceiling=Fraction(-1))

    def with_constants(self) -> CompleteSet:
        """The set with every c_i fixed, computed where UserSet overrides
        this."""
        return self  # a closed-form builder states every c_i: 1 on rays, 4 on parity

    def size_text(self) -> str:
        return f"{len(self)} polynomials"


@dataclass
class RaySet(CompleteSet):
    """One P_i*P_j member per member edge and one sum-minus-one member per
    basis, each with c = 1 (edge products take the values 0 and 1, basis
    sums the integers -1 to n - 1).  The member edges are all of the graph's
    in ray mode, RayEdgesBases, and none in bases-only mode, RayBasesOnly.
    Every answer reads graph, bases and member edges alone; the members are
    built when first read, which only export and the exact bound do."""

    graph: OrthogonalityGraph
    bases: list
    edges: list  # the graph's edges that are members
    provenance: str

    @cached_property
    def polynomials(self) -> list:
        # terms are clean: ONE or MINUS_ONE on tuple monomials.  A ray's
        # spectrum is (0, 1) for d >= 2, so exponents of 1 are reduced
        terms = [{((i, 1), (j, 1)): ONE} for i, j in self.edges]
        terms += [{((i, 1),): ONE for i in b} | {(): MINUS_ONE} for b in self.bases]
        if self.oset.dim == 1:
            return [make_context_polynomial(Poly._make(t), self.oset) for t in terms]
        return [ContextPolynomial(Poly._make(t)) for t in terms]

    def __len__(self):
        return len(self.edges) + len(self.bases)

    def decide(self, node_cap: int = DEFAULT_NODE_CAP) -> ProofCertificate:
        """ks_colorability on the graph and bases, far faster here than
        general_unsat.  Its rules are the ray mode's members; in bases-only
        mode every edge lies in a basis, whose one 1 leaves no edge at 1,
        so they have the same zeroes."""
        return ks_colorability(self.oset, self.graph, self.bases, node_cap=node_cap)

    def F(self) -> Poly:
        """F from the member edges and bases alone; sum_of_squares is its
        oracle.

        Each member has c = 1, and P^2 = P on a ray's spectrum (0, 1).  So the
        edge member P_i P_j gives -P_i P_j, and the basis member sum P_i - 1
        gives -1 + sum P_i - 2 sum_{i<j} P_i P_j.  Hence
        F = -B + sum_i m_i P_i - sum_pairs (e_ij + 2 m_ij) P_i P_j, with B the
        number of bases, m_i the number that hold ray i, m_ij the number that
        hold pair ij and e_ij 1 on a member edge, else 0 (Cabello, Severini
        and Winter's weighted graph).  The counts are ints, over denominator 1.

        P^2 = P needs d >= 2.  In d = 1, P = I and every member is 0, but
        assemble_F never reaches F there: a ray set in d <= 2 is colourable.
        """
        pairs = dict.fromkeys(self.edges, 1)
        for b in self.bases:
            for e in combinations(b, 2):  # bases are sorted, as edges are
                pairs[e] = pairs.get(e, 0) + 2
        nums = {(): -len(self.bases)}
        nums.update((((i, 1),), m) for i, m in Counter(i for b in self.bases for i in b).items())
        nums.update((((i, 1), (j, 1)), -w) for (i, j), w in pairs.items())
        return _int_poly(nums, 1)

    def dichotomic_substitutes(self) -> bool:
        # members use rays, none dichotomic, exactly when there is an edge;
        # in d = 1 each is constant
        return bool(self.graph.edges)

    def size_text(self) -> str:
        return f"{len(self.bases)} bases, {len(self.graph.edges)} edges"


@dataclass
class ParitySet(CompleteSet):
    """One product-minus-delta member per (context, delta) row, each with
    c = 4 (values are 0 or +-2), built when first read, as a ray set's are.
    Every other answer reads the rows."""

    rows: list  # (context, delta) per member
    provenance = "Parity"

    @cached_property
    def polynomials(self) -> list:
        # dichotomic spectra have two values, so the products are reduced as written
        return [ContextPolynomial(Poly._make({tuple((i, 1) for i in ctx): ONE,
                                              (): MINUS_ONE if delta == 1 else ONE}), Fraction(4))
                for ctx, delta in self.rows]

    def __len__(self):
        return len(self.rows)

    def decide(self, node_cap: int = DEFAULT_NODE_CAP) -> ProofCertificate:
        """parity_elimination on the rows: the members are zero exactly
        where the GF(2) equations hold, so the set is never searched and
        node_cap cannot be reached."""
        return parity_elimination(self.oset, self.rows)

    def exact_bound(self, node_cap: int = DEFAULT_NODE_CAP) -> BoundResult:
        """parity_min_violations on the rows: -m for the least number m of
        violated contexts, with no member built and no search.  Past
        MAX_COSET_RANK the walk returns None, and max_F searches."""
        return parity_min_violations(self.rows, len(self.oset)) or super().exact_bound(node_cap)

    def F(self) -> Poly:
        """F from the rows alone; sum_of_squares is its oracle.

        Each member Pi_C - delta_C has c = 4, and every variable is
        dichotomic, so A_i^2 = 1 on its spectrum (-1, 1) and, the ids of a
        context being distinct, Pi_C^2 = 1; with delta^2 = 1 the member's
        normalized square is (2 - 2 delta_C Pi_C) / 4.  Hence
        F = -N/2 + sum_C delta_C Pi_C / 2 for N rows (Mermin, PRL 65, 3373
        (1990)), in ints over denominator 2.
        """
        nums = Counter({(): -len(self.rows)})  # a caller may pass a context twice; a proof file cannot
        for ctx, delta in self.rows:
            nums[tuple((i, 1) for i in ctx)] += delta
        return _int_poly(nums, 2)

    def dichotomic_substitutes(self) -> bool:
        return False  # parity_certify found every observable dichotomic


@dataclass
class UserSet(CompleteSet):
    """User-supplied members, each checked for Condition 1 by
    build_complete_set_general; F is its definition, sum_of_squares."""

    polynomials: list  # list[ContextPolynomial]
    provenance = "UserSupplied"

    def __len__(self):
        return len(self.polynomials)

    def decide(self, node_cap: int = DEFAULT_NODE_CAP) -> ProofCertificate:
        return general_unsat(self.oset, self.polynomials, node_cap=node_cap)

    def with_constants(self) -> UserSet:
        """The set with every member's c_i computed, a declared one too, by
        normalization_constant, which raises where there is none; a
        declared c that differs raises too.  Either error names the faulty
        member.  It runs once per command, after a KSProof verdict: in
        assemble_F before either bound route, and in verify."""
        polys = []
        for idx, cp in enumerate(self.polynomials):
            try:
                c = normalization_constant(cp, self.oset)
            except KSCertError as ex:
                raise KSCertError(f"polynomial {idx}: {ex}") from None
            if cp.c not in (None, c):
                raise KSCertError(f"polynomial {idx} declares c={cp.c}, but its "
                                  f"normalization constant is {c}")
            polys.append(replace(cp, c=c))
        return UserSet(self.oset, polys)

    def F(self) -> Poly:
        return sum_of_squares(self.polynomials, self.oset.spectra())

    def dichotomic_substitutes(self) -> bool:
        """The variables stay when those the members use are all
        dichotomic; otherwise they are substituted, which needs rays."""
        used = {i for cp in self.polynomials for i in cp.poly.variables()}
        if all(self.oset[i].is_dichotomic for i in used):
            return False
        if not self.oset.all_rays:
            raise KSCertError("dichotomic substitution requires projector variables")
        return True


def build_complete_set_rays(
    oset: ObservableSet, graph: OrthogonalityGraph, bases: Sequence[tuple]
) -> RaySet:
    """The ray set with every edge of graph a member.  Condition 1 holds by
    construction: edges join exactly orthogonal rays (P_i P_j = 0), and
    bases sum to I (see enumerate_bases)."""
    return RaySet(oset, graph, list(bases), graph.edges, "RayEdgesBases")


def build_complete_set_bases_only(
    oset: ObservableSet, graph: OrthogonalityGraph, bases: Sequence[tuple]
) -> RaySet:
    """The ray set of basis members only; valid when every orthogonality
    edge lies in some supplied basis (raises KSCertError otherwise).
    Condition 1 holds as for build_complete_set_rays."""
    covered = [0] * len(graph.masks)  # bit j of covered[i]: i and j share a basis
    for b in bases:
        mask = sum(1 << i for i in b)
        for i in b:
            covered[i] |= mask
    for i, j in graph.edges:
        if not covered[i] >> j & 1:
            raise KSCertError(f"orthogonal pair ({oset.labels[i]}, {oset.labels[j]}) "
                              "lies in no supplied basis")
    return RaySet(oset, graph, list(bases), [], "RayBasesOnly")


def build_complete_set_parity(oset: ObservableSet, contexts: Sequence[tuple]) -> ParitySet:
    """The parity set of contexts.  Condition 1 holds as parity_certify
    found each context product delta*I; whether the set is a proof is
    ParitySet.decide's question."""
    return ParitySet(oset, list(zip(contexts, parity_certify(oset, contexts))))


def build_complete_set_general(oset: ObservableSet, polynomials: Sequence) -> UserSet:
    """User-supplied polynomials: Condition 1 is checked member by member, and
    KSCertError names the first that is not zero as an operator."""
    for idx, cp in enumerate(polynomials):
        if not eval_operator(cp.poly, oset).is_zero:
            raise KSCertError(f"polynomial {idx} does not vanish as an operator")
    return UserSet(oset, list(polynomials))


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
    quantum_value: Fraction
    labels: list  # the score's variable labels, by id
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

    The set's decide settles Condition 2 first on either route, and a
    non-proof raises NotKSProofError with decide's witness.  On a proof the
    certified bound -1 comes with decide's UNSAT certificate (each violated
    r_i costs at least 1 once divided by c_i), and the exact bound is the
    set's exact_bound, the maximum of F = -sum |r_i|^2 / c_i, which
    therefore never runs on a set whose maximum is 0.

    The set's with_constants fixes the c_i once, after the verdict and
    before either route; the returned complete set carries the c_i used.
    F is the set's own: a closed form, or F's definition.
    """
    cert = cs.decide(node_cap)
    if cert.witness is not None:
        raise NotKSProofError(
            f"not a KS proof; satisfying assignment {witness_str(cert.witness, cs.oset.labels)}"
        )
    cs = cs.with_constants()
    if exact_bound:
        classical = cs.exact_bound(node_cap)
    else:
        classical = BoundResult(kind="certified", value=Fraction(-1), stats=cert.stats)
    return Inequality(complete_set=cs, F=cs.F(), classical=classical)


def sum_of_squares(members: Sequence[ContextPolynomial], spectra) -> Poly:
    """F's definition: the reduced -sum r_i^dagger r_i / c_i.

    Each member's square is added, scaled by -1/c_i, into one term dict,
    and reduce, being linear, lowers the sum once.  This is the F of a set
    whose builder knows no closed form, a UserSet, and the test oracle of
    RaySet.F and ParitySet.F.
    """
    acc = {}
    for cp in members:
        w = Scalar.of(-1 / cp.c)
        for m, c in (cp.poly.conjugate() * cp.poly).terms.items():
            acc[m] = acc.get(m, ZERO) + c * w
    return reduce(Poly(acc), spectra)


def _int_poly(nums: dict, den: int) -> Poly:
    """The Poly with the rational coefficient n / den at each monomial m
    whose int numerator nums[m] = n is not 0; one Scalar per distinct n."""
    scalars, terms = {}, {}  # coefficients take few distinct values
    for m, n in nums.items():
        if n:
            s = scalars.get(n)
            if s is None:
                s = scalars[n] = Scalar._make(Fraction(n, den), _FR0, _FR0, _FR0)
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
    raises KSCertError when the form cannot present it.

    F's variables are among the members' variables, so this runs before the
    search.  The projector form keeps projector variables and needs a ray
    set; the dichotomic form substitutes where the set says so.
    """
    if form == "projector":
        if not cs.oset.all_rays:
            raise KSCertError("projector form requires a ray observable set")
        return False
    if form == "dichotomic":
        return cs.dichotomic_substitutes()
    raise KSCertError(f"unknown form {form!r}")


def present(ineq: Inequality, form: str) -> PresentedInequality:
    """Rearrange F into an integer-coefficient score with explicit bounds.

    F's coefficients are read as int numerators over one denominator D
    (exact.integral), after one test that their irrational and imaginary
    parts are zero (KSCertError otherwise).  projector form requires
    projector variables and keeps them; dichotomic form substitutes
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
        raise KSCertError("presentation requires rational coefficients")
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
        score=_int_poly({m: n // g for m, n in nums.items()}, 1),
        scale=scale,
        offset=offset,
        # a certified BoundResult carries the bound -1 on F
        classical_bound=(ineq.classical.value - offset) / scale,
        quantum_value=-offset / scale,
        labels=labels,
        witness=witness,
    )
