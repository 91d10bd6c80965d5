"""Derivation pipeline: complete sets, F assembly, presentation, expectations."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from kscert import catalog, derive
from kscert.assign import BoundResult, classical_max, general_unsat, parity_certify
from kscert.compat import Context, build_orthogonality_graph, enumerate_bases
from kscert.derive import (
    CompleteSet,
    Inequality,
    PARITY,
    RAY_BASES_ONLY,
    RAY_EDGES_BASES,
    assemble_F,
    build_complete_set_bases_only,
    build_complete_set_general,
    build_complete_set_parity,
    build_complete_set_rays,
    expectation,
    present,
)
from kscert.errors import (
    Condition1Violated,
    EdgeOutsideBases,
    NotKSProofError,
    ZeroState,
)
from kscert.exact import Scalar
from kscert.model import ObservableSet
from kscert.poly import (
    ContextPolynomial,
    Poly,
    eval_assignment,
    eval_operator,
    make_context_polynomial,
    normalization_constant,
    spectral_assignments,
)
from kscert.prooffile import parse

from conftest import two_bases_set
from test_cli import GENERAL_MP


def ray_witness_polynomial(edges, bases):
    """Independent construction of the ray-set witness polynomial:
    minus the edge products, minus (2*sum_{i<j} P_i P_j - sum P_i + 1)
    for every basis."""
    F = Poly()
    for i, j in edges:
        F = F - Poly.var(i) * Poly.var(j)
    for b in bases:
        F = F - Poly.const(1)
        for i in b:
            F = F + Poly.var(i)
        for i, j in itertools.combinations(b, 2):
            F = F - Poly.var(i) * Poly.var(j) * Scalar(2)
    return F


def bases_only_witness_polynomial(bases):
    """Bases-only variant: drop the extra edge products."""
    return ray_witness_polynomial([], bases)


def parity_witness_polynomial(contexts, deltas):
    """Parity witness polynomial: -N/2 + (1/2) * sum delta * product."""
    h = Scalar(Fraction(1, 2))
    F = Poly.const(Scalar(Fraction(-len(contexts), 2)))
    for ctx, delta in zip(contexts, deltas):
        term = Poly.const(delta)
        for i in ctx.ids:
            term = term * Poly.var(i)
        F = F + term * h
    return F


class TestCompleteSets:
    def test_ray_counts(self, cabello):
        oset, graph, bases = cabello
        cs = build_complete_set_rays(oset, graph, bases)
        assert len(cs) == len(graph.edges) + len(bases) == 72
        assert cs.provenance == RAY_EDGES_BASES
        assert all(cp.c == 1 for cp in cs.polynomials)

    def test_bases_only_covered(self, two_bases):
        g = build_orthogonality_graph(two_bases)
        bases = enumerate_bases(g)
        cs = build_complete_set_bases_only(two_bases, g, bases)
        assert len(cs) == 2
        assert cs.provenance == RAY_BASES_ONLY

    def test_bases_only_uncovered_edge(self, cabello):
        oset, graph, bases = cabello
        with pytest.raises(EdgeOutsideBases) as exc:
            build_complete_set_bases_only(oset, graph, bases)
        i, j = exc.value.pair
        assert (i, j) in graph.edges
        assert not any({i, j} <= set(b.ids) for b in bases)

    def test_parity_set(self, mermin_peres):
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs)
        assert len(cs) == 6
        assert cs.provenance == PARITY
        assert all(cp.c == 4 for cp in cs.polynomials)

    def test_parity_rejects_broken_set(self, mermin_peres):
        # the set builds; the search then finds an assignment zeroing it
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs[:-1])
        with pytest.raises(NotKSProofError, match="satisfying assignment"):
            assemble_F(cs)


class TestVerifyCompleteSet:
    def test_condition1_violated(self):
        # two orthogonal rays declared as a full "basis" do not resolve identity
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0))
        oset.add_ray((0, 1, 0))
        p = Poly.var(0) + Poly.var(1) - Poly.const(1)
        cp = make_context_polynomial(p, Context((0, 1)), oset)
        with pytest.raises(Condition1Violated) as exc:
            build_complete_set_general(oset, [cp])
        assert exc.value.index == 0

    def test_cabello_passes(self, cabello):
        oset, graph, bases = cabello
        cs = build_complete_set_rays(oset, graph, bases)
        assert general_unsat(cs.oset, cs.polynomials).is_proof

    def test_colorable_set_sat(self, two_bases):
        g = build_orthogonality_graph(two_bases)
        cs = build_complete_set_bases_only(two_bases, g, enumerate_bases(g))
        cert = general_unsat(cs.oset, cs.polynomials)
        assert not cert.is_proof
        for cp in cs.polynomials:
            assert eval_assignment(cp.poly, cert.witness).is_zero


class TestAssembleF:
    def test_mermin_peres_matches_parity_formula(self, mermin_peres):
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs)
        ineq = assemble_F(cs)
        assert ineq.F == parity_witness_polynomial(ctxs, [1, 1, 1, 1, 1, -1])
        assert eval_operator(ineq.F, oset).is_zero
        assert ineq.classical.kind == "certified" and ineq.classical.value == -1

    def test_pentagram_matches_parity_formula(self, pentagram):
        oset, ctxs = pentagram
        cs = build_complete_set_parity(oset, ctxs)
        ineq = assemble_F(cs)
        deltas = parity_certify(oset, ctxs)
        assert ineq.F == parity_witness_polynomial(ctxs, deltas)
        assert eval_operator(ineq.F, oset).is_zero

    def test_cabello_matches_ray_formula(self, cabello):
        oset, graph, bases = cabello
        cs = build_complete_set_rays(oset, graph, bases)
        ineq = assemble_F(cs)
        assert ineq.F == ray_witness_polynomial(graph.edges, [b.ids for b in bases])
        assert eval_operator(ineq.F, oset).is_zero
        assert ineq.classical.kind == "certified"
        assert ineq.classical.value == -1

    def test_exact_bound_mermin_peres(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs), exact_bound=True)
        assert ineq.classical.kind == "exact"
        assert ineq.classical.value == -1
        assert eval_assignment(ineq.F, ineq.classical.witness) == Scalar(-1)

    def test_not_ks_proof_raises_with_witness(self, basis3):
        g = build_orthogonality_graph(basis3)
        cs = build_complete_set_rays(basis3, g, enumerate_bases(g))
        with pytest.raises(NotKSProofError) as exc:
            assemble_F(cs)
        assert "e1=" in str(exc.value)

    @pytest.mark.parametrize("exact_bound", [False, True])
    def test_one_operator_evaluation_per_member(
        self, mermin_peres, cabello, two_bases, monkeypatch, exact_bound
    ):
        # Condition 1 is evaluated once per user-supplied member, in
        # build_complete_set_general; the builders of ray, bases-only and
        # parity sets certify it without operators, and assemble_F
        # evaluates nothing
        calls = []

        def counted(p, oset):
            calls.append(p)
            return eval_operator(p, oset)

        monkeypatch.setattr(derive, "eval_operator", counted)
        oset, ctxs = mermin_peres
        parity = build_complete_set_parity(oset, ctxs)
        ray = build_complete_set_rays(*cabello)
        g = build_orthogonality_graph(two_bases)
        bases_only = build_complete_set_bases_only(two_bases, g, enumerate_bases(g))
        assert calls == []
        assemble_F(parity, exact_bound=exact_bound)
        assemble_F(ray, exact_bound=exact_bound)
        with pytest.raises(NotKSProofError):  # two bases are colourable
            assemble_F(bases_only, exact_bound=exact_bound)
        assert calls == []

        pf = parse(GENERAL_MP)
        goset = pf.to_observable_set()
        polys = pf.to_polynomials(goset)
        general = build_complete_set_general(goset, polys)
        assert calls == [cp.poly for cp in polys]
        assemble_F(general, exact_bound=exact_bound)
        assert len(calls) == len(polys)

    @pytest.mark.parametrize("exact_bound", [False, True])
    def test_builder_constants_are_not_recomputed(
        self, mermin_peres, cabello, two_bases, monkeypatch, exact_bound
    ):
        # the ray, bases-only and parity builders set each c_i, so
        # assemble_F computes none; user-supplied members are computed
        # once each, on either route
        calls = []

        def counted(cp, oset):
            calls.append(cp)
            return normalization_constant(cp, oset)

        monkeypatch.setattr(derive, "normalization_constant", counted)
        oset, ctxs = mermin_peres
        assemble_F(build_complete_set_parity(oset, ctxs), exact_bound=exact_bound)
        assemble_F(build_complete_set_rays(*cabello), exact_bound=exact_bound)
        g = build_orthogonality_graph(two_bases)
        bases_only = build_complete_set_bases_only(two_bases, g, enumerate_bases(g))
        with pytest.raises(NotKSProofError):  # two bases are colourable
            assemble_F(bases_only, exact_bound=exact_bound)
        assert calls == []

        pf = parse(GENERAL_MP)
        goset = pf.to_observable_set()
        general = build_complete_set_general(goset, pf.to_polynomials(goset))
        assemble_F(general, exact_bound=exact_bound)
        assert calls == general.polynomials

    @pytest.mark.parametrize("exact_bound", [False, True])
    def test_complete_set_carries_computed_c(self, mermin_peres, exact_bound):
        # members declared without c get the computed one (4 for parity)
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs)
        undeclared = CompleteSet(
            oset=oset,
            polynomials=[ContextPolynomial(cp.poly, cp.context, None) for cp in cs.polynomials],
            provenance=cs.provenance,
        )
        ineq = assemble_F(undeclared, exact_bound=exact_bound)
        assert [cp.c for cp in ineq.complete_set.polynomials] == [4] * 6
        assert ineq.F == assemble_F(cs).F


def _catalog_inequality(name):
    return assemble_F(_catalog_complete_set(name))


def _general_mp_inequality():
    pf = parse(GENERAL_MP)
    oset = pf.to_observable_set()
    return assemble_F(build_complete_set_general(oset, pf.to_polynomials(oset)))


def _catalog_complete_set(name):
    oset = catalog.get(name).load()
    if oset.all_rays:
        graph = build_orthogonality_graph(oset)
        return build_complete_set_rays(oset, graph, enumerate_bases(graph))
    return build_complete_set_parity(oset, [Context(ids) for ids in oset.declared_contexts])


def _two_bases_complete_set():
    oset = two_bases_set()
    g = build_orthogonality_graph(oset)
    return build_complete_set_bases_only(oset, g, enumerate_bases(g))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda name=name: _catalog_complete_set(name), id=name)
        for name in ("mermin-peres", "mermin-pentagram", "cabello-18", "peres-33")
    ]
    + [pytest.param(_two_bases_complete_set, id="two-bases")],
)
def test_builders_certify_condition_1_oracle(build):
    """The direct check that the builders' own certificates stand in for:
    every member evaluates to the zero matrix."""
    cs = build()
    assert cs.polynomials
    for cp in cs.polynomials:
        assert eval_operator(cp.poly, cs.oset).is_zero


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda name=name: _catalog_complete_set(name), id=name)
        for name in ("mermin-peres", "mermin-pentagram", "cabello-18", "peres-33")
    ]
    + [pytest.param(_two_bases_complete_set, id="two-bases")],
)
def test_builder_constants_oracle(build):
    """The direct computation that the builders' c_i stand in for: each is
    the least nonzero |r_i|^2 over value assignments."""
    cs = build()
    assert cs.polynomials
    for cp in cs.polynomials:
        assert normalization_constant(cp, cs.oset) == cp.c


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda name=name: _catalog_inequality(name), id=name)
        for name in ("mermin-peres", "mermin-pentagram", "cabello-18", "peres-33")
    ]
    + [
        # colourable, so assemble_F refuses it; the bases-only F stands in
        pytest.param(lambda: colorable_inequality(two_bases_set()), id="two-bases"),
        pytest.param(_general_mp_inequality, id="general-mermin-peres"),
    ],
)
def test_F_operator_zero_oracle(build):
    """The direct check that Condition 1 stands in for: F evaluates to 0."""
    ineq = build()
    assert eval_operator(ineq.F, ineq.oset).is_zero


def colorable_inequality(oset, certified=True):
    """An Inequality built around the bases-only formula for a colorable ray
    set, used to exercise the presentation bookkeeping in isolation."""
    g = build_orthogonality_graph(oset)
    bases = enumerate_bases(g)
    cs = build_complete_set_bases_only(oset, g, bases)
    F = bases_only_witness_polynomial([b.ids for b in bases])
    if certified:
        classical = BoundResult(kind="certified", value=Fraction(-1))
    else:
        classical = classical_max(oset, F)
    return Inequality(oset=oset, complete_set=cs, F=F, classical=classical)


class TestPresent:
    def test_projector_bound_formula(self, two_bases):
        # N bases: quantum value N, certified classical bound N - 1
        pres = present(colorable_inequality(two_bases), "projector")
        assert pres.form == "projector" and not pres.substituted
        assert pres.scale == 1
        assert pres.offset == -2
        assert pres.quantum_value == 2
        assert pres.classical_bound == 1
        assert pres.bound_kind == "certified"

    def test_projector_reconstructs_F(self, two_bases):
        ineq = colorable_inequality(two_bases)
        pres = present(ineq, "projector")
        recon = Poly(
            {m: c * Scalar.of(pres.scale) for m, c in pres.score.terms.items()}
        ) + Poly.const(Scalar.of(pres.offset))
        assert recon == ineq.F

    def test_dichotomic_bound_formula(self, two_bases):
        # d=3 bases-only: quantum 4N, classical bound 4N - 4 (N = 2)
        pres = present(colorable_inequality(two_bases), "dichotomic")
        assert pres.substituted
        assert pres.scale == Fraction(1, 4)
        assert pres.quantum_value == 8
        assert pres.classical_bound == 4
        assert pres.presented_set.all_dichotomic
        assert pres.presented_set.labels == ["de1", "de2", "de3", "df1", "df2"]

    def test_dichotomic_integer_even_pair_coefficients(self, two_bases):
        pres = present(colorable_inequality(two_bases), "dichotomic")
        for mono, coef in pres.score.terms.items():
            c = coef.rational()
            assert c.denominator == 1
            if len(mono) == 2:
                assert c.numerator % 2 == 0

    def test_dichotomic_primitive_scale_when_power_of_two_fractional(self, cabello):
        # 2(sum P - 1) + P0*P1 on basis 0 gives F = scale*G + offset with
        # 69/2 and -21/2 in G at scale 1/8; the primitive scale keeps G integral
        oset, graph, bases = cabello
        cs = build_complete_set_rays(oset, graph, bases)
        P = [Poly.var(i) for i in bases[0].ids]
        p = 2 * (P[0] + P[1] + P[2] + P[3] - 1) + P[0] * P[1]
        polys = list(cs.polynomials)
        polys[len(graph.edges)] = make_context_polynomial(p, bases[0], oset, c=None)
        ineq = assemble_F(CompleteSet(oset, polys, cs.provenance))
        assert ineq.F.max_degree() == 3
        pres = present(ineq, "dichotomic")
        coeffs = [c.rational() for c in pres.score.terms.values()]
        assert all(c.denominator == 1 for c in coeffs)
        assert functools.reduce(math.gcd, (c.numerator for c in coeffs)) == 1
        assert {69, -21} <= set(coeffs)
        assert pres.scale == Fraction(1, 16)
        assert pres.quantum_value == -pres.offset / pres.scale
        rng = random.Random(5)
        for _ in range(40):
            proj_vals = {i: rng.randint(0, 1) for i in range(len(oset))}
            dich_vals = {i: 1 - 2 * v for i, v in proj_vals.items()}
            f = eval_assignment(ineq.F, proj_vals).rational()
            g = eval_assignment(pres.score, dich_vals).rational()
            assert f == pres.scale * g + pres.offset

    def test_substitution_agrees_pointwise(self, two_bases):
        ineq = colorable_inequality(two_bases)
        pres = present(ineq, "dichotomic")
        n = len(two_bases)
        for proj_vals in spectral_assignments(two_bases, range(n)):
            dich_vals = {i: 1 - 2 * v for i, v in proj_vals.items()}
            f = eval_assignment(ineq.F, proj_vals).rational()
            g = eval_assignment(pres.score, dich_vals).rational()
            assert f == pres.scale * g + pres.offset

    def test_exact_bound_passthrough(self, two_bases):
        # the colorable set attains F = 0, so the exact presented bound
        # coincides with the quantum value (zero gap for a non-proof)
        pres = present(colorable_inequality(two_bases, certified=False), "projector")
        assert pres.bound_kind == "exact"
        assert pres.classical_bound == pres.quantum_value == 2

    def test_mermin_peres_native_dichotomic(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs), exact_bound=True)
        pres = present(ineq, "dichotomic")
        assert not pres.substituted
        assert pres.presented_set is oset
        assert pres.scale == Fraction(1, 2)
        assert pres.offset == -3
        assert pres.classical_bound == 4
        assert pres.bound_kind == "exact"
        assert pres.quantum_value == 6
        assert pres.quantum_value - pres.classical_bound == 2
        # F = scale * G + offset holds exactly at the polynomial level
        recon = Poly(
            {m: c * Scalar.of(pres.scale) for m, c in pres.score.terms.items()}
        ) + Poly.const(Scalar.of(pres.offset))
        assert recon == ineq.F

    def test_mermin_peres_projector_rejected(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs))
        with pytest.raises(ValueError):
            present(ineq, "projector")

    def test_cabello_projector(self, cabello):
        oset, graph, bases = cabello
        ineq = assemble_F(build_complete_set_rays(oset, graph, bases))
        pres = present(ineq, "projector")
        assert pres.quantum_value == 9
        assert pres.classical_bound == 8
        assert pres.bound_kind == "certified"
        assert pres.scale == 1 and pres.offset == -9

    def test_unknown_form(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs))
        with pytest.raises(ValueError):
            present(ineq, "cglmp")


class TestExpectation:
    def test_F_operator_zero_any_state(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs))
        for state in [(1, 0, 0, 0), (1, 1, 1, 1), (2, 0, Scalar(0, 0, 1, 0), 1)]:
            assert expectation(ineq.F, oset, state).is_zero

    def test_mermin_peres_score_saturates(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs))
        pres = present(ineq, "dichotomic")
        val = expectation(pres.score, oset, (1, 0, 0, 0))
        assert val == Scalar(6)

    def test_cabello_score_state_independent(self, cabello):
        oset, graph, bases = cabello
        ineq = assemble_F(build_complete_set_rays(oset, graph, bases))
        pres = present(ineq, "projector")
        for state in [(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 3, 4)]:
            assert expectation(pres.score, oset, state) == Scalar(9)

    def test_zero_state(self, mermin_peres):
        oset, ctxs = mermin_peres
        with pytest.raises(ZeroState):
            expectation(Poly.var(0), oset, (0, 0, 0, 0))
