"""The derivation pipeline: complete sets, the witness polynomial F, and
canonical inequality presentations.

The pipeline mirrors three steps: build a complete set of normalized
polynomials from the proof structure, assemble F as minus the sum of their
normalized squares (certifying that each member, and hence F, vanishes as
an operator and that no assignment keeps F above -1), and rearrange F into
an integer-coefficient score with explicit classical bound and quantum value.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional, Sequence

from .assign import (
    BoundResult,
    DEFAULT_NODE_CAP,
    ProofCertificate,
    full_witness,
    general_unsat,
    ks_colorability,
    max_F,
    parity_certify,
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
from .exact import _FR0, ONE, MINUS_ONE, Scalar, _mul_integral, inner, integral
from .model import ObservableSet
from .poly import (
    ContextPolynomial,
    Poly,
    eval_operator,
    lowering,
    make_context_polynomial,
    mono_mul,
    normalization_constant,
)

RAY_EDGES_BASES = "RayEdgesBases"
RAY_BASES_ONLY = "RayBasesOnly"
PARITY = "Parity"
USER_SUPPLIED = "UserSupplied"


@dataclass
class CompleteSet:
    oset: ObservableSet
    polynomials: list  # list[ContextPolynomial]
    provenance: str
    graph: Optional[OrthogonalityGraph] = None  # with bases, set by build_complete_set_rays
    bases: Optional[list] = None

    def __len__(self):
        return len(self.polynomials)


def _ray_member(terms: dict, oset: ObservableSet) -> ContextPolynomial:
    # a ray's spectrum is (0, 1) for d >= 2, so exponents of 1 are reduced
    if oset.dim == 1:
        return make_context_polynomial(Poly(terms), oset)
    return ContextPolynomial(Poly(terms))


def _basis_poly(oset, basis: tuple) -> ContextPolynomial:
    return _ray_member({((i, 1),): ONE for i in basis} | {(): MINUS_ONE}, oset)


def build_complete_set_rays(
    oset: ObservableSet, graph: OrthogonalityGraph, bases: Sequence[tuple]
) -> CompleteSet:
    """One P_i*P_j polynomial per orthogonality edge plus one sum-minus-one
    polynomial per basis, each with c = 1 (edge products take the values 0
    and 1, basis sums the integers -1 to n - 1).  Condition 1 holds by
    construction: edges join exactly orthogonal rays (P_i P_j = 0), and
    bases sum to I (see enumerate_bases).  The set records graph and bases,
    whose coloring rules are exactly its members (see decide)."""
    polys = [_ray_member({((i, 1), (j, 1)): ONE}, oset) for i, j in graph.edges]
    polys += [_basis_poly(oset, b) for b in bases]
    return CompleteSet(oset, polys, RAY_EDGES_BASES, graph=graph, bases=list(bases))


def build_complete_set_bases_only(
    oset: ObservableSet, graph: OrthogonalityGraph, bases: Sequence[tuple]
) -> CompleteSet:
    """Basis polynomials only; valid when every orthogonality edge lies in
    some supplied basis (raises EdgeOutsideBases otherwise).  c = 1 and
    Condition 1 hold as for build_complete_set_rays."""
    basis_sets = [set(b) for b in bases]
    for i, j in graph.edges:
        if not any({i, j} <= b for b in basis_sets):
            raise EdgeOutsideBases(i, j)
    polys = [_basis_poly(oset, b) for b in bases]
    return CompleteSet(oset=oset, polynomials=polys, provenance=RAY_BASES_ONLY)


def build_complete_set_parity(oset: ObservableSet, contexts: Sequence[tuple]) -> CompleteSet:
    """Product-minus-delta polynomials, each with c = 4 (values are 0 or +-2).
    Condition 1 holds as parity_certify found each context product delta*I;
    whether the set is a proof is decide's question.  Dichotomic spectra
    have two values, so the products are reduced as written."""
    polys = [ContextPolynomial(Poly({tuple((i, 1) for i in ctx): ONE}) - d, Fraction(4))
             for ctx, d in zip(contexts, parity_certify(oset, contexts))]
    return CompleteSet(oset=oset, polynomials=polys, provenance=PARITY)


def build_complete_set_general(oset: ObservableSet, polynomials: Sequence) -> CompleteSet:
    """User-supplied polynomials: Condition 1 is checked member by member, and
    Condition1Violated names the first that is not zero as an operator."""
    for idx, cp in enumerate(polynomials):
        m = eval_operator(cp.poly, oset)
        if not m.is_zero:
            raise Condition1Violated(idx, m)
    return CompleteSet(oset=oset, polynomials=list(polynomials), provenance=USER_SUPPLIED)


def member_constants(cs: CompleteSet) -> list:
    """The c_i of every member, in member order; no other code fixes a c_i.
    A builder's stated c_i is kept; a member with no c, and every
    user-supplied member, gets normalization_constant's, which raises
    IdenticallyZeroOnAssignments where there is none.  A declared c that
    differs raises NormalizationMismatch.  Either error names the first
    faulty member."""
    user = cs.provenance == USER_SUPPLIED
    constants = []
    for idx, cp in enumerate(cs.polynomials):
        c = cp.c
        if c is None or user:
            try:
                c = normalization_constant(cp, cs.oset)
            except IdenticallyZeroOnAssignments as ex:
                raise IdenticallyZeroOnAssignments(f"polynomial {idx}: {ex}") from None
            if cp.c not in (None, c):
                raise NormalizationMismatch(idx, cp.c, c)
        constants.append(c)
    return constants


def decide(cs: CompleteSet, node_cap: int = DEFAULT_NODE_CAP) -> ProofCertificate:
    """Condition 2, the verdict of verify and of derive's certified route:
    KSProof iff no value assignment zeroes every member, else a witness that
    does.  A set with a recorded graph is decided by ks_colorability, whose
    rules are exactly its members and which is far faster there; any other
    by general_unsat, whose witness full_witness extends to the observables
    in no member, as max_F's.  The c_i are member_constants' question."""
    if cs.graph is not None:
        return ks_colorability(cs.oset, cs.graph, cs.bases, node_cap=node_cap)
    cert = general_unsat(cs.oset, cs.polynomials, node_cap=node_cap)
    if cert.witness is not None:
        cert.witness = full_witness(cs.oset, cert.witness)
    return cert


@dataclass
class Inequality:
    oset: ObservableSet
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

    One search decides Condition 2 and the classical bound together: the
    certified bound -1 comes with decide's UNSAT certificate (each violated
    r_i costs at least 1 once divided by c_i), and the exact bound maximises
    F = -sum |r_i|^2 / c_i, where a maximum of 0 means not a proof.

    The c_i come from member_constants, after the verdict on the certified
    route.  The exact route needs them before max_F; a member without a
    rational c_i, or with a wrong declared one, sends it to the certified
    route, so not-a-proof is still reported before the normalization error.
    The returned complete set carries the c_i used.
    """
    oset = cs.oset
    constants = None
    if exact_bound:
        with suppress(IdenticallyZeroOnAssignments, NormalizationMismatch):
            constants = member_constants(cs)
    if constants is None:
        cert = decide(cs, node_cap=node_cap)
        witness = cert.witness
        classical = BoundResult(kind="certified", value=Fraction(-1), stats=cert.stats)
    else:
        classical = max_F(oset, cs.polynomials, constants, node_cap=node_cap)
        witness = classical.witness if classical.value == 0 else None
    if witness is not None:
        raise NotKSProofError(
            f"not a KS proof; satisfying assignment {witness_str(witness, oset.labels)}"
        )
    if constants is None:
        constants = member_constants(cs)
    used = [replace(cp, c=c) for cp, c in zip(cs.polynomials, constants)]
    return Inequality(
        oset=oset,
        complete_set=replace(cs, polynomials=used),
        F=sum_of_squares(used, oset.spectra()),
        classical=classical,
    )


def sum_of_squares(members: Sequence[ContextPolynomial], spectra) -> Poly:
    """The reduced F = -sum r_i^dagger r_i / c_i, summed in integers over
    Z[i, sqrt2]; one Scalar is built per monomial of F.

    Each member's coefficients are cleared to int (a, b, c, d) tuples with
    one denominator den (exact.integral), so its term is the weight
    -1 / (den^2 c_i) times a sum of products conj(t1) t2, added up per
    distinct weight, which is kept as the int pair (den^2 p, q) for
    c_i = p/q.  The pairs (m1, m2) and (m2, m1) give one monomial and
    conjugate products, whose sum is twice the real part, so each unordered
    pair is formed once and F's coefficients are real: ints (x, y) stand for
    x + y sqrt2.  reduce is linear, so the sum is lowered once, each distinct
    monomial once (poly.lowering), and the remainder's rational coefficients
    are brought to one denominator, which joins the weight.  Last, the
    weights are brought to one denominator L and F's coefficients are the
    summed ints over -L.  The member-by-member sum of normalized_square is
    the test oracle.
    """
    squares = {}  # (den^2 p, q) -> {monomial: (x, y)}
    for cp in members:
        den, ints = integral(cp.poly.terms.values())
        acc = squares.setdefault((den * den * cp.c.numerator, cp.c.denominator), {})
        items = list(zip(cp.poly.terms, ints))
        for k, (m1, (a, b, c, d)) in enumerate(items):
            conj = (a, b, -c, -d)
            for j, (m2, t2) in enumerate(items[k:]):
                x, y, _, _ = _mul_integral(conj, t2)
                if j:
                    x, y = 2 * x, 2 * y
                mono = mono_mul(m1, m2)
                s = acc.get(mono)
                acc[mono] = (x, y) if s is None else (s[0] + x, s[1] + y)
    rules, lowered, sums = {}, {}, {}
    for (p, q), acc in squares.items():
        for mono, (x, y) in acc.items():
            if mono not in lowered:
                terms = lowering(mono, spectra, rules)
                den = lcm(*(r.denominator for _, r in terms))
                lowered[mono] = den, [(m, r.numerator * (den // r.denominator)) for m, r in terms]
            den, terms = lowered[mono]
            out = sums.setdefault((p * den, q), {})
            for m, n in terms:
                s = out.get(m, (0, 0))
                out[m] = (s[0] + n * x, s[1] + n * y)
    L = lcm(*(p for p, _ in sums))
    numerators = {}
    for (p, q), out in sums.items():
        k = q * (L // p)
        for m, (x, y) in out.items():
            s = numerators.get(m, (0, 0))
            numerators[m] = (s[0] + k * x, s[1] + k * y)
    return Poly({m: Scalar._make(Fraction(-x, L), Fraction(-y, L), _FR0, _FR0)
                 for m, (x, y) in numerators.items() if x or y})


def witness_str(witness: dict, labels: Sequence[str]) -> str:
    return ", ".join(f"{labels[i]}={witness[i]}" for i in sorted(witness))


def _rational_coeffs(p: Poly) -> dict:
    out = {}
    for mono, coef in p.terms.items():
        if not coef.is_rational:
            raise PresentationUnavailable("presentation requires rational coefficients")
        out[mono] = coef.rational()
    return out


def _primitive_scale(coeffs: dict) -> Fraction:
    """Positive s with coeffs/s integers of gcd 1: the gcd of the numerators
    over the lcm of the denominators, or 1 when there is no coefficient."""
    return Fraction(gcd(*(c.numerator for c in coeffs.values())) or 1,
                    lcm(*(c.denominator for c in coeffs.values())))


def _substitute_dichotomic(coeffs: dict) -> dict:
    """Replace every projector variable P_i by (1 - A_i)/2 in F's rational
    coefficients, keeping ids.

    F is reduced over the rays' spectrum (0, 1), where P^e = P, so a
    monomial depends only on its variable set S, and
    prod_{i in S} (1 - A_i)/2 = 2^-|S| sum_{T subset S} (-1)^|T| A_T.
    Each A_i occurs at most once per monomial, so no A^2 arises and the
    result needs no reduction over A's spectrum (-1, 1)."""
    out = {}
    for mono, coef in coeffs.items():
        ids = [i for i, _ in mono]
        w = coef / 2 ** len(ids)
        for k in range(len(ids) + 1):
            for sub in combinations(ids, k):  # ids ascend, so sub is sorted
                m = tuple((i, 1) for i in sub)
                out[m] = out.get(m, 0) + (-w if k % 2 else w)
    return {m: c for m, c in out.items() if c}


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
        used = {i for cp in cs.polynomials for i in cp.poly.variables()}
        if all(oset[i].is_dichotomic for i in used):
            return False
        if not oset.all_rays:
            raise PresentationUnavailable("dichotomic substitution requires projector variables")
        return True
    raise PresentationUnavailable(f"unknown form {form!r}")


def present(ineq: Inequality, form: str) -> PresentedInequality:
    """Rearrange F into an integer-coefficient score with explicit bounds.

    projector form requires projector variables and keeps them; dichotomic
    form substitutes P = (1 - A)/2 when needed (check_form), on F's
    rational coefficients.  The affine bookkeeping F = scale*G + offset
    transforms both the classical bound and the quantum value exactly.
    """
    oset = ineq.oset
    substituted = check_form(ineq.complete_set, form)
    coeffs = _rational_coeffs(ineq.F)
    if substituted:
        coeffs = _substitute_dichotomic(coeffs)
        labels = [f"d{obs.label or i}" for i, obs in enumerate(oset.observables)]
    else:
        labels = oset.labels

    offset = coeffs.get((), Fraction(0))
    noncon = {m: c for m, c in coeffs.items() if m != ()}
    scale = _primitive_scale(noncon)
    if substituted:
        # substitution introduces denominators up to 2^maxdeg; where that
        # exact power still gives integers it keeps pair-correlation
        # coefficients even, matching the customary dichotomic presentation
        power = Fraction(1, 2 ** ineq.F.max_degree())
        if all((c / power).denominator == 1 for c in noncon.values()):
            scale = power
    score = Poly({m: Scalar.of(c / scale) for m, c in noncon.items()})
    return PresentedInequality(
        form=form,
        score=score,
        scale=scale,
        offset=offset,
        # a certified BoundResult carries the bound -1 on F
        classical_bound=(ineq.classical.value - offset) / scale,
        bound_kind=ineq.classical.kind,
        quantum_value=-offset / scale,
        labels=labels,
        substituted=substituted,
    )


def expectation(p: Poly, oset: ObservableSet, state: Sequence) -> Scalar:
    """Exact <psi| p(A) |psi> / <psi|psi> for an unnormalized state vector."""
    psi = tuple(Scalar.of(x) for x in state)
    if all(x.is_zero for x in psi):
        raise ZeroState("state vector is zero")
    m = eval_operator(p, oset)
    return inner(psi, m.apply(psi)) / inner(psi, psi)
