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
)
from .compat import Context, OrthogonalityGraph
from .errors import (
    Condition1Violated,
    EdgeOutsideBases,
    IdenticallyZeroOnAssignments,
    NormalizationMismatch,
    NotKSProofError,
    PresentationUnavailable,
    ZeroState,
)
from .exact import Scalar, inner
from .model import ObservableSet, dichotomize
from .poly import (
    ContextPolynomial,
    Poly,
    eval_operator,
    make_context_polynomial,
    normalization_constant,
    normalized_square,
    reduce,
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


def _ray_member(terms: dict, ctx: Context, oset: ObservableSet) -> ContextPolynomial:
    # a ray's spectrum is (0, 1) for d >= 2, so exponents of 1 are reduced
    if oset.dim == 1:
        return make_context_polynomial(Poly(terms), ctx, oset)
    return ContextPolynomial(Poly(terms), ctx)


def _basis_poly(oset, ctx: Context) -> ContextPolynomial:
    return _ray_member({((i, 1),): 1 for i in ctx.ids} | {(): -1}, ctx, oset)


def build_complete_set_rays(
    oset: ObservableSet, graph: OrthogonalityGraph, bases: Sequence[Context]
) -> CompleteSet:
    """One P_i*P_j polynomial per orthogonality edge plus one sum-minus-one
    polynomial per basis, each with c = 1 (edge products take the values 0
    and 1, basis sums the integers -1 to n - 1).  Condition 1 holds by
    construction: edges join exactly orthogonal rays (P_i P_j = 0), and
    bases sum to I (see enumerate_bases).  The set records graph and bases,
    whose coloring rules are exactly its members (see decide)."""
    polys = [_ray_member({((i, 1), (j, 1)): 1}, Context((i, j)), oset) for i, j in graph.edges]
    polys += [_basis_poly(oset, b) for b in bases]
    return CompleteSet(oset, polys, RAY_EDGES_BASES, graph=graph, bases=list(bases))


def build_complete_set_bases_only(
    oset: ObservableSet, graph: OrthogonalityGraph, bases: Sequence[Context]
) -> CompleteSet:
    """Basis polynomials only; valid when every orthogonality edge lies in
    some supplied basis (raises EdgeOutsideBases otherwise).  c = 1 and
    Condition 1 hold as for build_complete_set_rays."""
    basis_sets = [set(b.ids) for b in bases]
    for i, j in graph.edges:
        if not any({i, j} <= b for b in basis_sets):
            raise EdgeOutsideBases(i, j)
    polys = [_basis_poly(oset, b) for b in bases]
    return CompleteSet(oset=oset, polynomials=polys, provenance=RAY_BASES_ONLY)


def build_complete_set_parity(
    oset: ObservableSet, contexts: Sequence[Context]
) -> CompleteSet:
    """Product-minus-delta polynomials, each with c = 4 (values are 0 or +-2).
    Condition 1 holds as parity_certify found each context product delta*I;
    whether the set is a proof is decide's question.  Dichotomic spectra
    have two values, so the products are reduced as written."""
    polys = [ContextPolynomial(Poly({tuple((i, 1) for i in ctx.ids): 1}) - d, ctx, Fraction(4))
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


def check_declared_constants(cs: CompleteSet, constants: Optional[Sequence] = None) -> None:
    """Raise NormalizationMismatch on the first member whose declared c
    differs from its normalization constant, taken from `constants` when
    given and otherwise computed for the declared members only."""
    for idx, cp in enumerate(cs.polynomials):
        if cp.c is None:
            continue
        c = normalization_constant(cp, cs.oset) if constants is None else constants[idx]
        if cp.c != c:
            raise NormalizationMismatch(idx, cp.c, c)


def decide(cs: CompleteSet, node_cap: int = DEFAULT_NODE_CAP) -> ProofCertificate:
    """Condition 2, the verdict of verify and of derive's certified route:
    KSProof iff no value assignment zeroes every member, else a witness that
    does.  A set with a recorded graph is decided by ks_colorability, whose
    rules are exactly its members and which is far faster there; any other
    by general_unsat.  A user-supplied proof then has its declared c checked."""
    if cs.graph is not None:
        cert = ks_colorability(cs.oset, cs.graph, cs.bases, node_cap=node_cap)
    else:
        cert = general_unsat(cs.oset, cs.polynomials, node_cap=node_cap)
    if cert.is_proof and cs.provenance == USER_SUPPLIED:
        check_declared_constants(cs)
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
    presented_set: ObservableSet  # observables matching the score's variables
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
    annihilated by its declared spectrum (make_observable/ray_observable,
    validate_context and orthogonality verify this), so evaluating the
    reduced -sum r_i^dagger r_i / c_i gives -sum r_i(A)^dagger r_i(A) / c_i,
    which is 0 once every r_i(A) = 0.

    One search decides Condition 2 and the classical bound together: the
    certified bound -1 comes with decide's UNSAT certificate (each violated
    r_i costs at least 1 once divided by c_i), and the exact bound maximises
    F = -sum |r_i|^2 / c_i, where a maximum of 0 means not a proof.

    Builders set their members' c_i (see their docstrings); the others are
    computed, and a declared c_i that differs raises NormalizationMismatch.
    The returned complete set carries the c_i used.
    """
    oset = cs.oset
    user = cs.provenance == USER_SUPPLIED

    def c_of(cp):  # decide has checked a declared c, max_F has not
        return normalization_constant(cp, oset) if cp.c is None or user and exact_bound else cp.c

    constants = None
    if exact_bound:
        # a member without a rational c falls back to the certified route,
        # so not-a-proof is still reported before the normalization error
        with suppress(IdenticallyZeroOnAssignments):
            constants = [c_of(cp) for cp in cs.polynomials]
    if constants is None:
        cert = decide(cs, node_cap=node_cap)
        witness = cert.witness
        classical = BoundResult(kind="certified", value=Fraction(-1), stats=cert.stats)
    else:
        classical = max_F(oset, cs.polynomials, constants, node_cap=node_cap)
        witness = classical.witness if classical.value == 0 else None
    if witness is not None:
        raise NotKSProofError(
            f"not a KS proof; satisfying assignment {witness_str(witness, oset)}"
        )
    if constants is None:
        constants = [c_of(cp) for cp in cs.polynomials]
    elif user:
        check_declared_constants(cs, constants)
    used = [replace(cp, c=c) for cp, c in zip(cs.polynomials, constants)]
    F = Poly()
    for cp in used:
        F = F - normalized_square(cp, oset).poly
    return Inequality(
        oset=oset,
        complete_set=replace(cs, polynomials=used),
        F=reduce(F, oset.spectra()),
        classical=classical,
    )


def witness_str(witness: dict, oset: ObservableSet) -> str:
    labels = oset.labels
    return ", ".join(f"{labels[i]}={witness[i]}" for i in sorted(witness))


def _rational_coeffs(p: Poly) -> dict:
    out = {}
    for mono, coef in p.terms.items():
        if not coef.is_rational:
            raise PresentationUnavailable("presentation requires rational coefficients")
        out[mono] = coef.rational()
    return out


def _primitive_scale(coeffs: dict) -> Fraction:
    """Positive s with coeffs/s integers of gcd 1."""
    nums = [c for c in coeffs.values() if c != 0]
    if not nums:
        return Fraction(1)
    # gcd of fractions = gcd(numerators) / lcm(denominators)
    num_g = 0
    den_l = 1
    for c in nums:
        num_g = gcd(num_g, abs(c.numerator))
        den_l = den_l * c.denominator // gcd(den_l, c.denominator)
    return Fraction(num_g, den_l)


def _substitute_dichotomic(F: Poly) -> Poly:
    """Replace every projector variable P_i by (1 - A_i)/2, keeping ids."""
    out = Poly.const(0)
    half = Scalar.of(Fraction(1, 2))
    for mono, coef in F.terms.items():
        term = Poly.const(coef)
        for i, e in mono:
            factor = (Poly.const(1) - Poly.var(i)) * half
            for _ in range(e):
                term = term * factor
        out = out + term
    return out


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
    form substitutes P = (1 - A)/2 when needed (check_form) and re-reduces
    with A^2 = 1.  The affine bookkeeping F = scale*G + offset transforms
    both the classical bound and the quantum value exactly.
    """
    oset = ineq.oset
    substituted = check_form(ineq.complete_set, form)
    if substituted:
        presented_set = ObservableSet(dim=oset.dim)
        for i, obs in enumerate(oset.observables):
            presented_set.add(dichotomize(obs.ray, label=f"d{obs.label or i}"))
        F_form = reduce(_substitute_dichotomic(ineq.F), presented_set.spectra())
    else:
        F_form, presented_set = ineq.F, oset

    coeffs = _rational_coeffs(F_form)
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
    quantum_value = -offset / scale
    if ineq.classical.kind == "exact":
        classical_bound = (ineq.classical.value - offset) / scale
        bound_kind = "exact"
    else:
        classical_bound = (Fraction(-1) - offset) / scale
        bound_kind = "certified"
    return PresentedInequality(
        form=form,
        score=score,
        scale=scale,
        offset=offset,
        classical_bound=classical_bound,
        bound_kind=bound_kind,
        quantum_value=quantum_value,
        presented_set=presented_set,
        substituted=substituted,
    )


def expectation(p: Poly, oset: ObservableSet, state: Sequence) -> Scalar:
    """Exact <psi| p(A) |psi> / <psi|psi> for an unnormalized state vector."""
    psi = tuple(Scalar.of(x) for x in state)
    if all(x.is_zero for x in psi):
        raise ZeroState("state vector is zero")
    m = eval_operator(p, oset)
    return inner(psi, m.apply(psi)) / inner(psi, psi)
