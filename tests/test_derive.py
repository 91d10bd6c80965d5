"""Derivation pipeline: complete sets, F assembly, presentation, operator checks."""

import functools
import inspect
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kscert import assign as assign_mod
from kscert import catalog, cli, derive
from kscert import poly as poly_mod
from kscert.assign import BoundResult, classical_max, general_unsat, max_F, parity_certify
from kscert.compat import OrthogonalityGraph, build_orthogonality_graph, enumerate_bases
from kscert.derive import (
    Inequality,
    ParitySet,
    PresentedInequality,
    RaySet,
    UserSet,
    assemble_F,
    build_complete_set_bases_only,
    build_complete_set_general,
    build_complete_set_parity,
    build_complete_set_rays,
    check_form,
    present,
    sum_of_squares,
)
from kscert.errors import KSCertError, NotKSProofError
from kscert.exact import Scalar, scalar_multiple_of_identity
from kscert.model import ObservableSet, dichotomize
from kscert.poly import (
    ContextPolynomial,
    Poly,
    eval_assignment,
    eval_operator,
    make_context_polynomial,
    normalization_constant,
    normalized_square,
    reduce,
    render,
    spectral_assignments,
)
from kscert.prooffile import DERIVED_MARKER, parse, parse_poly_expr, parse_scalar

from conftest import eigenray_set, pauli_parity_text, single_basis_set, two_bases_set
from test_cli import GENERAL_MP, _eigenray_file, _parity_set, _violated
from test_compat import graphs


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
        for i in ctx:
            term = term * Poly.var(i)
        F = F + term * h
    return F


class TestCompleteSets:
    def test_ray_counts(self, cabello):
        oset, graph, bases = cabello
        cs = build_complete_set_rays(oset, graph, bases)
        assert len(cs) == len(graph.edges) + len(bases) == 72
        assert cs.provenance == "RayEdgesBases"
        assert all(cp.c == 1 for cp in cs.polynomials)

    def test_bases_only_covered(self, two_bases):
        g = build_orthogonality_graph(two_bases)
        bases = enumerate_bases(g)
        cs = build_complete_set_bases_only(two_bases, g, bases)
        assert len(cs) == 2
        assert cs.provenance == "RayBasesOnly"

    def test_bases_only_uncovered_edge(self, cabello):
        oset, graph, bases = cabello
        with pytest.raises(KSCertError) as exc:
            build_complete_set_bases_only(oset, graph, bases)
        assert _first_edge_outside_bases(graph, bases) == (0, 14)
        assert oset.labels[0] == "r1" and oset.labels[14] == "r15"
        assert str(exc.value) == "orthogonal pair (r1, r15) lies in no supplied basis"

    def test_d1_ray_members_are_reduced(self):
        # a ray's spectrum in d = 1 is (1,), so its one basis member a - 1
        # is 0 once reduced; a member kept as written would be a - 1
        oset, _ = parse("dim 1\nray a 1\n").load()
        graph = build_orthogonality_graph(oset)
        cs = build_complete_set_rays(oset, graph, enumerate_bases(graph))
        assert cs.polynomials == [ContextPolynomial(Poly())]

    def test_parity_set(self, mermin_peres):
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs)
        assert len(cs) == 6
        assert cs.provenance == "Parity"
        assert all(cp.c == 4 for cp in cs.polynomials)

    def test_parity_rejects_broken_set(self, mermin_peres):
        # the set builds; the search then finds an assignment zeroing it
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs[:-1])
        with pytest.raises(NotKSProofError, match="satisfying assignment"):
            assemble_F(cs)


def test_kinds_hold_only_what_their_builder_records():
    """Each kind of complete set holds its own facts: no parameter of its
    constructor is Optional or has a default, and no module-level decide or
    with_constants asks a set which kind it is."""
    for kind in (RaySet, ParitySet, UserSet):
        params = list(inspect.signature(kind).parameters.values())
        assert params[0].name == "oset", kind
        for p in params:
            assert p.annotation is not p.empty, (kind, p.name)
            assert "Optional" not in str(p.annotation), (kind, p.name)
            assert p.default is p.empty, (kind, p.name)
    assert not hasattr(derive, "decide") and not hasattr(derive, "with_constants")


class TestVerifyCompleteSet:
    def test_condition1_violated(self):
        # two orthogonal rays declared as a full "basis" do not resolve identity
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0))
        oset.add_ray((0, 1, 0))
        p = Poly.var(0) + Poly.var(1) - Poly.const(1)
        cp = make_context_polynomial(p, oset)
        with pytest.raises(KSCertError, match="^polynomial 0 does not vanish as an operator$"):
            build_complete_set_general(oset, [cp])

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
        assert ineq.F == ray_witness_polynomial(graph.edges, bases)
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
        goset, polys = pf.load()
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
        general = build_complete_set_general(*pf.load())
        assemble_F(general, exact_bound=exact_bound)
        assert calls == general.polynomials

    @pytest.mark.parametrize("exact_bound", [False, True])
    def test_complete_set_carries_computed_c(self, mermin_peres, exact_bound):
        # members declared without c get the computed one (4 for parity)
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs)
        undeclared = UserSet(oset, [ContextPolynomial(cp.poly, None) for cp in cs.polynomials])
        ineq = assemble_F(undeclared, exact_bound=exact_bound)
        assert [cp.c for cp in ineq.complete_set.polynomials] == [4] * 6
        assert ineq.F == assemble_F(cs).F


def _catalog_inequality(name):
    return assemble_F(_catalog_complete_set(name))


def _general_mp_inequality(text=GENERAL_MP):
    return assemble_F(_general_mp_complete_set(text))


def _eigenray_complete_set(name):
    oset = eigenray_set(name)
    graph = build_orthogonality_graph(oset)
    return build_complete_set_rays(oset, graph, enumerate_bases(graph))


def _general_mp_complete_set(text):
    return build_complete_set_general(*parse(text).load())


def _catalog_complete_set(name):
    oset = catalog.get(name).load()
    if oset.all_rays:
        graph = build_orthogonality_graph(oset)
        return build_complete_set_rays(oset, graph, enumerate_bases(graph))
    return build_complete_set_parity(oset, list(oset.declared_contexts))


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
    assert eval_operator(ineq.F, ineq.complete_set.oset).is_zero


def _random_proof_ray_set(seed):
    """A catalog ray proof with its rays shuffled and scaled, plus 1-3
    random rays: still a proof, as adding rays keeps a set uncolourable."""
    rng = random.Random(seed)
    base = catalog.get(rng.choice(["cabello-18", "peres-33"])).load()
    entries = [Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Scalar(0, 0, 1), Scalar(0, 1)]
    vectors = [obs.ray.vector for obs in base.observables]
    vectors += [[rng.choice(entries) for _ in range(base.dim)] for _ in range(rng.randint(1, 3))]
    rng.shuffle(vectors)
    scalars = [Scalar(1), Scalar(-2), Scalar(0, 0, 1), Scalar(1, 1), Scalar(Fraction(1, 3), 0, -1)]
    oset = ObservableSet(dim=base.dim)
    for v in vectors:
        if any(not x.is_zero for x in v):
            s = rng.choice(scalars)
            try:
                oset.add_ray([x * s for x in v])
            except KSCertError as ex:  # a duplicate ray
                assert " duplicates " in str(ex)
    graph = build_orthogonality_graph(oset)
    return assemble_F(build_complete_set_rays(oset, graph, enumerate_bases(graph)))


def _eigenray_inequality(name):
    return assemble_F(_eigenray_complete_set(name))


# parity sets from conftest.pauli_parity_text: the two- and three-qubit
# lines (the doily and W(5,2)) are proofs, the three-qubit maximal sets,
# with + signs or seeded ones, are colourable
PARITY_TEXTS = {
    "doily": lambda: pauli_parity_text(2, "lines"),
    "w52": lambda: pauli_parity_text(3, "lines"),
    "three-qubit-maximal": lambda: pauli_parity_text(3, "maximal"),
    "three-qubit-maximal-signed": lambda: pauli_parity_text(3, "maximal", seed=1),
}


def _parity_inequality(text):
    """ParitySet.F on the set of text, proof or not, with the certified bound."""
    cs = _parity_set(text)
    return Inequality(cs, cs.F(), BoundResult(kind="certified", value=Fraction(-1)))


# GENERAL_MP with a = 5/4 + 3/4 XI, spectrum (1/2, 2), in place of XI =
# (4a - 5)/3: a^2 is lowered to 5/2 a - 1, whose coefficients have two
# different denominators
AFFINE_A_MP = GENERAL_MP.replace("pauli a +XI\n", """\
matrix a spectrum 1/2,2
row 5/4 0 3/4 0
row 0 5/4 0 3/4
row 3/4 0 5/4 0
row 0 3/4 0 5/4
""").replace("a*b*c - 1", "4/3*a*b*c - 5/3*b*c - 1").replace("a*d*g - 1", "4/3*a*d*g - 5/3*d*g - 1")

# general-mode Mermin-Peres proofs whose members take complex, sqrt2 and
# fractional values, with a fractional c and a fractional spectrum
GENERAL_MP_VARIANTS = {
    "general-mermin-peres": GENERAL_MP,
    "complex-coefficients": GENERAL_MP.replace(
        "poly c=4 a*b*c - 1", "poly c=8 (1+i)*a*b*c - 1 - i"),
    "sqrt2-coefficients": GENERAL_MP.replace(
        "poly c=4 a*b*c - 1", "poly c=16 (r2+r2i)*a*b*c - r2 - r2i"),
    "fractional-c": GENERAL_MP.replace("poly c=4 d*e*f - 1", "poly c=1/4 1/4*d*e*f - 1/4"),
    "fractional-spectrum": AFFINE_A_MP,
}


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda name=name: _catalog_inequality(name), id=name)
        for name in ("mermin-peres", "mermin-pentagram", "cabello-18", "peres-33")
    ]
    + [pytest.param(lambda text=text: _general_mp_inequality(text), id=name)
       for name, text in GENERAL_MP_VARIANTS.items()]
    + [pytest.param(lambda name=name: _eigenray_inequality(name), id=ray_name)
       for name, ray_name in (("mermin-peres", "peres-24"), ("mermin-pentagram", "kp-40"))]
    + [pytest.param(lambda seed=seed: _random_proof_ray_set(seed), id=f"random-rays-{seed}")
       for seed in range(10)]
    + [pytest.param(lambda text=text: _parity_inequality(text()), id=name)
       for name, text in PARITY_TEXTS.items()],
)
def test_F_one_pass_oracle(build):
    """The member-by-member sum that RaySet.F, ParitySet.F and
    sum_of_squares' one reduction stand in for: the reduced -sum of each member's
    normalized_square, which sum_of_squares, F's definition, equals too."""
    ineq = build()
    cs = ineq.complete_set
    oset = cs.oset
    F = Poly()
    for cp in cs.polynomials:
        F = F - normalized_square(cp, oset).poly
    assert ineq.F == reduce(F, oset.spectra()) == sum_of_squares(cs.polynomials, oset.spectra())
    _assert_clean(ineq.F)


@pytest.mark.parametrize("exact_bound", [False, True], ids=["certified", "exact-bound"])
@pytest.mark.parametrize("name", ["mermin-peres", "mermin-pentagram", "cabello-18", "peres-33"])
def test_assemble_F_makes_no_scalar_sums_or_products(monkeypatch, name, exact_bound):
    """F is summed in ints, and neither route's search adds or multiplies
    Scalars on the catalog entries."""
    cs = _catalog_complete_set(name)
    calls = Counter()
    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, op=op, original=getattr(Scalar, op)):
            calls[op] += 1
            return original(self, other)
        monkeypatch.setattr(Scalar, op, counted)
    assemble_F(cs, exact_bound=exact_bound)
    assert calls == Counter()


@st.composite
def graphs_with_bases(draw):
    """A graph shaped like test_compat.graphs, with a set of its cliques of
    any size as bases: rays and edges may lie in no basis or in several."""
    graph = draw(graphs())
    n, masks = len(graph.masks), graph.masks
    cliques = [c for k in range(1, n + 1) for c in itertools.combinations(range(n), k)
               if all(masks[i] >> j & 1 for i, j in itertools.combinations(c, 2))]
    bases = draw(st.lists(st.sampled_from(cliques), unique=True)) if cliques else []
    return graph, sorted(bases)


def _ray_members(edges, bases):
    """build_complete_set_rays' members on these edges and bases, each
    variable with the spectrum (0, 1): P_i P_j and sum P_i - 1, c = 1."""
    members = [ContextPolynomial(Poly({((i, 1), (j, 1)): 1})) for i, j in edges]
    members += [ContextPolynomial(Poly({((i, 1),): 1 for i in b} | {(): -1})) for b in bases]
    return members


def _ray_set(graph, edges, bases):
    """The ray set on graph, its rays axis rays, with member edges `edges`
    (all of the graph's, some or none) and bases `bases`."""
    return RaySet(_axis_rays(len(graph.masks)), graph, list(bases), list(edges), "RayEdgesBases")


class TestRayF:
    """RaySet.F's closed form against sum_of_squares, its oracle."""

    @given(graphs_with_bases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_sum_of_squares_oracle(self, structure, data):
        """Any subset of the graph's edges as member edges: all of them in
        ray mode, none in bases-only mode, where a basis pair is no member."""
        graph, bases = structure
        keep = data.draw(st.lists(st.booleans(), min_size=len(graph.edges),
                                  max_size=len(graph.edges)))
        spectra = [(Fraction(0), Fraction(1))] * len(graph.masks)
        for edges in ([e for e, k in zip(graph.edges, keep) if k], []):
            F = _ray_set(graph, edges, bases).F()
            assert F == sum_of_squares(_ray_members(edges, bases), spectra)
            assert F == ray_witness_polynomial(edges, bases)
            _assert_clean(F)

    def test_counts(self):
        # a triangle 0-1-2 and the edges 0-3, 1-3 and 3-4; ray 5 is isolated
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]
        bases = [(0, 1, 2), (0, 1, 3)]
        masks = [0] * 6
        for i, j in edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        graph = OrthogonalityGraph(oset=_axis_rays(6), masks=masks)
        F = _ray_set(graph, edges, bases).F()
        assert F == sum_of_squares(_ray_members(edges, bases), [(Fraction(0), Fraction(1))] * 6)
        coefs = {tuple(i for i, _ in m): c.rational() for m, c in F.terms.items()}
        assert coefs == {
            (): -2,  # B = 2
            (0,): 2, (1,): 2, (2,): 1, (3,): 1,  # m_i; rays 4 and 5 lie in no basis
            (0, 1): -5,  # in both bases
            (0, 2): -3, (0, 3): -3, (1, 2): -3, (1, 3): -3,  # in one
            (3, 4): -1,  # in none
        }
        assert _ray_set(graph, edges, []).F() == Poly({((i, 1), (j, 1)): -1 for i, j in edges})
        assert _ray_set(graph, [], []).F() == Poly()


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_ray_set_counts_edges_on_masks(graph):
    """len, size_text and dichotomic_substitutes count and test the edges
    on the graph's masks, and agree with its edge list, in ray mode and
    with no member edge."""
    bases = enumerate_bases(graph)
    rays = build_complete_set_rays(graph.oset, graph, bases)
    none = RaySet(graph.oset, graph, bases, [], "RayBasesOnly")
    answers = (len(rays), rays.size_text(), len(none), none.size_text(),
               rays.dichotomic_substitutes(), none.dichotomic_substitutes())
    counts = f"{len(bases)} bases, {len(graph.edges)} edges"
    assert answers == (len(graph.edges) + len(bases), counts, len(bases), counts,
                       bool(graph.edges), bool(graph.edges))


def _axis_rays(n):
    """n axis rays r0, r1, ..., in dimension n but at least 2, so each has
    the spectrum (0, 1)."""
    oset = ObservableSet(dim=max(n, 2))
    for k in range(n):
        oset.add_ray([int(i == k) for i in range(oset.dim)], label=f"r{k}")
    return oset


def _first_edge_outside_bases(graph, bases):
    """The oracle of build_complete_set_bases_only's check, on Python sets:
    the first edge, in graph.edges order, that lies in no basis, or None."""
    basis_sets = [set(b) for b in bases]
    return next((e for e in graph.edges if not any(set(e) <= b for b in basis_sets)), None)


@given(graphs_with_bases())
@settings(max_examples=150, deadline=None)
def test_bases_only_admission_oracle(structure):
    """build_complete_set_bases_only admits a set exactly when every edge
    lies in a basis, and otherwise names the oracle's first such edge."""
    graph, bases = structure
    oset = _axis_rays(len(graph.masks))
    first = _first_edge_outside_bases(graph, bases)
    if first is None:
        assert build_complete_set_bases_only(oset, graph, bases).edges == []
    else:
        with pytest.raises(KSCertError) as exc:
            build_complete_set_bases_only(oset, graph, bases)
        i, j = first
        assert str(exc.value) == f"orthogonal pair (r{i}, r{j}) lies in no supplied basis"


@given(graphs_with_bases())
@settings(max_examples=150, deadline=None)
def test_bases_only_coloring_oracle(structure):
    """A bases-only set, every edge of its graph in some basis, is decided
    by the ray coloring of its graph and bases; general_unsat on its basis
    members, the oracle, gives the same verdict, and a witness zeroes
    every member."""
    graph, bases = structure
    n = len(graph.masks)
    oset = _axis_rays(n)
    masks = [0] * n
    for b in bases:
        for i, j in itertools.combinations(b, 2):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    covered = OrthogonalityGraph(oset=oset, masks=masks)
    cs = build_complete_set_bases_only(oset, covered, bases)
    cert = cs.decide()
    oracle = general_unsat(oset, cs.polynomials)
    assert cert.method == "RayColoring"
    assert cert.is_proof == oracle.is_proof
    for witness in (cert.witness, oracle.witness):
        if witness is not None:
            assert all(eval_assignment(cp.poly, witness).is_zero for cp in cs.polynomials)


def _route_calls(monkeypatch, cs, exact_bound):
    """The calls that assemble_F on cs makes to each F route and to reduce
    and integral; its F is checked against sum_of_squares, F's definition,
    computed before the count.  The closed forms are counted as
    RaySet.F and ParitySet.F."""
    F = sum_of_squares(cs.with_constants().polynomials, cs.oset.spectra())
    calls = Counter()
    routes = [(RaySet, "F"), (ParitySet, "F")]
    routes += [(derive, fn) for fn in ("sum_of_squares", "reduce", "integral")]
    for owner, fn in routes:
        name = f"{owner.__name__}.F" if owner is not derive else fn
        def counted(*args, name=name, original=getattr(owner, fn)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, fn, counted)
    assert assemble_F(cs, exact_bound=exact_bound).F == F
    return calls


@pytest.mark.parametrize("exact_bound", [False, True], ids=["certified", "exact-bound"])
@pytest.mark.parametrize("name", ["peres-24", "kp-40"])
def test_assemble_F_takes_ray_F_on_ray_sets(monkeypatch, name, exact_bound):
    """On a set that records a graph, neither route squares a member:
    assemble_F calls RaySet.F and none of ParitySet.F, sum_of_squares,
    reduce or integral."""
    cs = _eigenray_complete_set({"peres-24": "mermin-peres", "kp-40": "mermin-pentagram"}[name])
    assert _route_calls(monkeypatch, cs, exact_bound) == Counter({"RaySet.F": 1})


@pytest.mark.parametrize("exact_bound", [False, True], ids=["certified", "exact-bound"])
@pytest.mark.parametrize("name", ["mermin-peres", "mermin-pentagram", "doily"])
def test_assemble_F_takes_parity_F_on_parity_sets(monkeypatch, name, exact_bound):
    """On a set that records parity rows, assemble_F calls ParitySet.F once
    and never sum_of_squares."""
    if name == "doily":
        cs = _parity_set(PARITY_TEXTS[name]())
    else:
        cs = _catalog_complete_set(name)
    assert _route_calls(monkeypatch, cs, exact_bound) == Counter({"ParitySet.F": 1})


@pytest.mark.parametrize("exact_bound", [False, True], ids=["certified", "exact-bound"])
@pytest.mark.parametrize("name", list(GENERAL_MP_VARIANTS))
def test_assemble_F_takes_sum_of_squares_on_user_sets(monkeypatch, name, exact_bound):
    """On a user-supplied set, assemble_F takes F's definition: one call to
    sum_of_squares, which reduces once."""
    cs = _general_mp_complete_set(GENERAL_MP_VARIANTS[name])
    assert _route_calls(monkeypatch, cs, exact_bound) == Counter(sum_of_squares=1, reduce=1)


# every exact-bound input with the nodes of its exact bound: max_F's under
# the ceiling -1 on a ray or user set (160, 667, 1780 and 4213 on the ray
# sets and 76 on each user set in the full search), none on a parity set,
# whose bound is its coset walk's (max_F's full search takes 76, 231 and
# 1970)
_CEILING_INPUTS = {
    "mermin-peres": (lambda: _catalog_complete_set("mermin-peres"), 0),
    "mermin-pentagram": (lambda: _catalog_complete_set("mermin-pentagram"), 0),
    "cabello-18": (lambda: _catalog_complete_set("cabello-18"), 18),
    "peres-33": (lambda: _catalog_complete_set("peres-33"), 224),
    "peres-24": (lambda: _eigenray_complete_set("mermin-peres"), 1780),
    "kp-40": (lambda: _eigenray_complete_set("mermin-pentagram"), 4213),
    "doily": (lambda: _parity_set(PARITY_TEXTS["doily"]()), 0),
    **{name: (lambda text=text: _general_mp_complete_set(text), 9)
       for name, text in GENERAL_MP_VARIANTS.items()},
}


@pytest.mark.parametrize("name", list(_CEILING_INPUTS))
def test_exact_bound_ceiling_matches_full_search(name):
    """The set's exact_bound has the value of max_F's full search, ceiling
    0.  On a ray or user set it is max_F stopped at the ceiling -1, with the
    full search's witness.  On a parity set it is the coset walk's -m, at a
    witness over every observable that violates exactly m contexts."""
    build, nodes = _CEILING_INPUTS[name]
    cs = build()
    got = assemble_F(cs, exact_bound=True).classical
    full = max_F(cs.oset, cs.with_constants().polynomials)
    assert got.value == full.value
    assert got.stats.nodes == nodes
    if isinstance(cs, ParitySet):
        assert sorted(got.witness) == list(range(len(cs.oset)))
        assert _violated(cs.rows, got.witness) == -got.value
    else:
        assert got.witness == full.witness


def test_ray_set_without_graph_sums_squares(monkeypatch, cabello):
    """RaySet.F is the ray set's own F, not the members': a ray set's members
    handed over without its graph, as a user set, go through
    sum_of_squares, to the same F."""
    oset, graph, bases = cabello
    cs = UserSet(oset, build_complete_set_rays(oset, graph, bases).polynomials)
    calls = []

    def counted(*args, original=derive.sum_of_squares):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(derive, "sum_of_squares", counted)
    ineq = assemble_F(cs)
    assert cs.provenance == "UserSupplied"
    assert len(calls) == 1
    assert ineq.F == build_complete_set_rays(oset, graph, bases).F()


# present's refusals of a form that cannot present F
_PRESENTATION_REFUSALS = ("dichotomic substitution requires projector variables",
                          "projector form requires a ray observable set",
                          "presentation requires rational coefficients")


def _assert_clean(p: Poly):
    """p is as Poly.__init__ would leave its terms: tuple monomials mapped
    to nonzero Scalars."""
    assert p == Poly(p.terms)
    assert all(type(m) is tuple and type(c) is Scalar and not c.is_zero
               for m, c in p.terms.items())


def _one_ray_complete_set():
    oset = single_basis_set(1)  # d = 1: the ray's spectrum is (1,)
    graph = build_orthogonality_graph(oset)
    return build_complete_set_rays(oset, graph, enumerate_bases(graph))


_BACK_HALF_SETS = (
    [pytest.param(lambda name=name: _catalog_complete_set(name), id=name)
     for name in ("mermin-peres", "mermin-pentagram", "cabello-18", "peres-33")]
    + [pytest.param(lambda: _eigenray_complete_set("mermin-pentagram"), id="kp-40"),
       pytest.param(_two_bases_complete_set, id="two-bases"),
       pytest.param(_one_ray_complete_set, id="one-ray")]
    + [pytest.param(lambda text=text: _general_mp_complete_set(text), id=name)
       for name, text in GENERAL_MP_VARIANTS.items()]
)


@pytest.mark.parametrize("build", _BACK_HALF_SETS)
def test_trusted_polys_are_clean(build):
    """The builders' members, F and the presented scores, which are built
    without Poly.__init__, are exactly what it would build."""
    cs = build()
    for cp in cs.polynomials:
        _assert_clean(cp.poly)
    F = sum_of_squares(cs.with_constants().polynomials, cs.oset.spectra())
    _assert_clean(F)
    # present needs no verdict, so sets that are not proofs are presented too
    ineq = Inequality(cs, F, BoundResult(kind="certified", value=Fraction(-1)))
    for form in ("projector", "dichotomic"):
        try:
            _assert_clean(present(ineq, form).score)
        except KSCertError as ex:  # a form that cannot present F
            assert str(ex) in _PRESENTATION_REFUSALS


@pytest.mark.parametrize("build", _BACK_HALF_SETS)
def test_graph_answers_as_members_do(build):
    """A ray or parity set is counted, given its c_i and checked for a form
    from what its builder recorded, without its members being read; the
    same members handed over as a user set, the oracle, give the same
    answers, with every c_i computed."""
    cs = build()
    answers = _set_answers(cs)
    if not isinstance(cs, UserSet):  # its builder states every c_i
        assert cs.with_constants() is cs
        assert "polynomials" not in vars(cs)
    oracle = UserSet(cs.oset, list(cs.polynomials))
    assert _set_answers(oracle) == answers
    if not isinstance(cs, UserSet) and all(cp.poly.terms for cp in cs.polynomials):
        # one ray in d = 1 has the member 0, whose c no computation fixes
        assert oracle.with_constants().polynomials == cs.polynomials


def _set_answers(cs) -> list:
    """len(cs), and check_form's answer or error in either form."""
    answers = [len(cs)]
    for form in ("projector", "dichotomic"):
        try:
            answers.append(check_form(cs, form))
        except KSCertError as ex:
            answers.append(str(ex))
    return answers


@pytest.mark.parametrize("name", ["peres-24", "kp-40"])
def test_back_half_builds_no_poly_or_scalar(monkeypatch, name):
    """On an eigenray set, assemble_F keeps the builder's members, and it,
    present in both forms and render call neither the validating
    Poly.__init__ nor Scalar.__init__."""
    cs = _eigenray_complete_set({"peres-24": "mermin-peres", "kp-40": "mermin-pentagram"}[name])
    calls = Counter()
    for cls in (Poly, Scalar):
        def counted(self, *args, cls=cls, original=cls.__init__, **kwargs):
            calls[cls.__name__] += 1
            original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    ineq = assemble_F(cs)
    labels = dict(enumerate(cs.oset.labels))
    render(ineq.F, labels)
    for form in ("projector", "dichotomic"):
        pres = present(ineq, form)
        render(pres.score, dict(enumerate(pres.labels)))
    assert calls == Counter()
    assert ineq.complete_set is cs


@pytest.mark.parametrize("name", ["mermin-peres", "mermin-pentagram", "cabello-18", "peres-33"])
def test_search_makes_no_fraction_evaluation(monkeypatch, name):
    """general_unsat and max_F evaluate their factors in ints
    (poly.integral_evaluator): neither calls the Fraction eval_assignment."""
    cs = _catalog_complete_set(name)
    calls = Counter()

    def counted(*args, original=poly_mod.eval_assignment):
        calls["eval_assignment"] += 1
        return original(*args)

    monkeypatch.setattr(poly_mod, "eval_assignment", counted)
    monkeypatch.setattr(assign_mod, "eval_assignment", counted, raising=False)
    assert general_unsat(cs.oset, cs.polynomials).is_proof
    assert max_F(cs.oset, cs.polynomials).value == -1
    assert calls == Counter()


def colorable_inequality(oset, certified=True):
    """An Inequality built around the bases-only formula for a colorable ray
    set, used to exercise the presentation bookkeeping in isolation."""
    g = build_orthogonality_graph(oset)
    bases = enumerate_bases(g)
    cs = build_complete_set_bases_only(oset, g, bases)
    F = bases_only_witness_polynomial(bases)
    if certified:
        classical = BoundResult(kind="certified", value=Fraction(-1))
    else:
        classical = classical_max(oset, F)
    return Inequality(complete_set=cs, F=F, classical=classical)


def substitute_dichotomic_oracle(F: Poly) -> Poly:
    """P_i -> (1 - A_i)/2 through Poly arithmetic, one term at a time."""
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


def assert_score_is_quantum_value(pres, oset):
    """Under the rays' observables A_i = 1 - 2P_i the score is the quantum
    value times I, so every state has that expectation."""
    dich = ObservableSet(dim=oset.dim)
    for obs in oset.observables:
        dich.add(dichotomize(obs.ray))
    assert scalar_multiple_of_identity(eval_operator(pres.score, dich)) == pres.quantum_value


def _scaled(ineq: Inequality, k: Fraction) -> Inequality:
    return Inequality(ineq.complete_set, ineq.F * Scalar(k), ineq.classical)


def primitive_scale_oracle(coeffs: dict) -> Fraction:
    """Positive s with coeffs/s integers of gcd 1: the gcd of the numerators
    over the lcm of the denominators, or 1 when there is no coefficient."""
    return Fraction(math.gcd(*(c.numerator for c in coeffs.values())) or 1,
                    math.lcm(*(c.denominator for c in coeffs.values())))


def fraction_substitution_oracle(coeffs: dict) -> dict:
    """P_i -> (1 - A_i)/2 on F's Fraction coefficients, one Fraction per
    term of each monomial's expansion over the subsets of its variables."""
    out = {}
    for mono, coef in coeffs.items():
        ids = [i for i, _ in mono]
        w = coef / 2 ** len(ids)
        for k in range(len(ids) + 1):
            for sub in itertools.combinations(ids, k):
                m = tuple((i, 1) for i in sub)
                out[m] = out.get(m, 0) + (-w if k % 2 else w)
    return {m: c for m, c in out.items() if c}


def _constant_inequality() -> Inequality:
    """cabello-18's Inequality with F = 1, on a ray set."""
    ineq = _catalog_inequality("cabello-18")
    return Inequality(ineq.complete_set, Poly.const(1), ineq.classical)


def present_oracle(ineq: Inequality, form: str) -> PresentedInequality:
    """present as it was before it read F's coefficients as ints: each
    through Scalar.is_rational and Scalar.rational, substituted and scaled
    in Fractions, each score coefficient a Fraction quotient through
    Scalar.of and Poly.__init__."""
    oset = ineq.complete_set.oset
    substituted = check_form(ineq.complete_set, form)
    coeffs = {}
    for mono, coef in ineq.F.terms.items():
        if not coef.is_rational:
            raise KSCertError("presentation requires rational coefficients")
        coeffs[mono] = coef.rational()
    if substituted:
        coeffs = fraction_substitution_oracle(coeffs)
        labels = ["d" + label for label in oset.labels]
    else:
        labels = oset.labels
    offset = coeffs.get((), Fraction(0))
    noncon = {m: c for m, c in coeffs.items() if m != ()}
    scale = primitive_scale_oracle(noncon)
    if substituted:
        power = Fraction(1, 2 ** ineq.F.max_degree())
        if all((c / power).denominator == 1 for c in noncon.values()):
            scale = power
    return PresentedInequality(
        form=form,
        score=Poly({m: Scalar.of(c / scale) for m, c in noncon.items()}),
        scale=scale,
        offset=offset,
        classical_bound=(ineq.classical.value - offset) / scale,
        quantum_value=-offset / scale,
        labels=labels,
    )


@pytest.mark.parametrize("form", ["projector", "dichotomic"])
@pytest.mark.parametrize(
    "build",
    [pytest.param(lambda name=name: _catalog_inequality(name), id=name)
     for name in ("mermin-peres", "mermin-pentagram", "cabello-18", "peres-33")]
    + [pytest.param(lambda name=name: _eigenray_inequality(name), id=ray_name)
       for name, ray_name in (("mermin-peres", "peres-24"), ("mermin-pentagram", "kp-40"))]
    + [pytest.param(lambda: colorable_inequality(two_bases_set()), id="two-bases")]
    # F scaled so that the primitive scale's numerator is not 1
    + [pytest.param(lambda k=k: _scaled(_catalog_inequality(name), k), id=f"{name}-times-{k}")
       for name, k in (("mermin-peres", Fraction(3, 2)), ("cabello-18", Fraction(6)))]
    # a constant or zero F: no non-constant coefficient, so no gcd to scale by
    + [pytest.param(lambda k=k: _scaled(_constant_inequality(), k), id=f"constant-{k}")
       for k in (Fraction(-3, 2), Fraction(0))],
)
def test_present_oracle(build, form):
    """present agrees with the Scalar-based presentation field by field, and
    refuses exactly where it does."""
    ineq = build()
    try:
        expected = present_oracle(ineq, form)
    except KSCertError as ex:
        with pytest.raises(KSCertError, match=f"^{ex}$"):
            present(ineq, form)
    else:
        assert present(ineq, form) == expected


@pytest.mark.parametrize("form", ["projector", "dichotomic"])
def test_present_makes_few_fraction_operations(monkeypatch, form):
    """present works in ints over one denominator: on KP-40 it adds,
    subtracts, multiplies or divides Fractions only for the two bounds."""
    ineq = _eigenray_inequality("mermin-pentagram")
    calls = Counter()
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__"):
        def counted(*args, op=op, original=getattr(Fraction, op)):
            calls[op] += 1
            return original(*args)
        monkeypatch.setattr(Fraction, op, counted)
    present(ineq, form)
    assert sum(calls.values()) <= 5


class TestPresent:
    def test_projector_bound_formula(self, two_bases):
        # N bases: quantum value N, certified classical bound N - 1
        ineq = colorable_inequality(two_bases)
        pres = present(ineq, "projector")
        assert pres.form == "projector" and pres.labels == two_bases.labels
        assert pres.scale == 1
        assert pres.offset == -2
        assert pres.quantum_value == 2
        assert pres.classical_bound == 1
        assert ineq.classical.kind == "certified"

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
        assert pres.scale == Fraction(1, 4)
        assert pres.quantum_value == 8
        assert pres.classical_bound == 4
        assert pres.labels == ["de1", "de2", "de3", "df1", "df2"]
        assert_score_is_quantum_value(pres, two_bases)

    def test_dichotomic_score_operator_cabello(self, cabello):
        oset, graph, bases = cabello
        pres = present(assemble_F(build_complete_set_rays(oset, graph, bases)), "dichotomic")
        assert pres.labels == [f"d{label}" for label in oset.labels]
        assert_score_is_quantum_value(pres, oset)

    def test_unlabeled_dichotomic_labels(self):
        """An unlabeled ray is A0 in projector form and dA0 in dichotomic form."""
        oset = ObservableSet(dim=4)
        for v in catalog.CABELLO_18_VECTORS:
            oset.add_ray(v)
        graph = build_orthogonality_graph(oset)
        ineq = assemble_F(build_complete_set_rays(oset, graph, enumerate_bases(graph)))
        names = [f"A{i}" for i in range(18)]
        assert present(ineq, "projector").labels == names
        assert present(ineq, "dichotomic").labels == ["d" + name for name in names]
        assert present_oracle(ineq, "dichotomic").labels == ["d" + name for name in names]

    def test_substitution_matches_poly_algebra(self, cabello):
        # P^e = P on the rays' spectrum (0, 1) and ((1 - A)/2)^2 = (1 - A)/2
        # once A^2 = 1, so exponents above 1 substitute as 1 does
        oset, graph, bases = cabello
        F = assemble_F(build_complete_set_rays(oset, graph, bases)).F
        rng = random.Random(11)
        cubic = Poly({tuple((i, rng.randint(1, 3)) for i in sorted(rng.sample(range(18), 3))):
                      Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(20)})
        spectra = dict.fromkeys(range(18), (Fraction(-1), Fraction(1)))
        for p in (F, cubic, Poly.const(5), Poly()):
            expected = reduce(substitute_dichotomic_oracle(p), spectra)
            # F's coefficients as int numerators over D, the result's over D 2^deg
            D = math.lcm(*(c.rational().denominator for c in p.terms.values()))
            nums = {m: int(c.rational() * D) for m, c in p.terms.items()}
            for deg in (p.max_degree(), p.max_degree() + 2):
                assert derive._substitute_dichotomic(nums, deg) == {
                    m: c.rational() * (D << deg) for m, c in expected.terms.items()}

    @pytest.mark.parametrize("form", ["projector", "dichotomic"])
    def test_refuses_irrational_coefficients(self, two_bases, form):
        # the builders always give a rational F; only library input reaches this
        ineq = colorable_inequality(two_bases)
        ineq = Inequality(ineq.complete_set,
                          ineq.F + Poly({((0, 1), (1, 1)): Scalar(0, 1)}), ineq.classical)
        with pytest.raises(KSCertError, match=r"^presentation requires rational coefficients$"):
            present(ineq, form)

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
        P = [Poly.var(i) for i in bases[0]]
        p = 2 * (P[0] + P[1] + P[2] + P[3] - 1) + P[0] * P[1]
        polys = list(cs.polynomials)
        polys[len(graph.edges)] = make_context_polynomial(p, oset, c=None)
        ineq = assemble_F(UserSet(oset, polys))
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
        ineq = colorable_inequality(two_bases, certified=False)
        pres = present(ineq, "projector")
        assert ineq.classical.kind == "exact"
        assert pres.classical_bound == pres.quantum_value == 2

    def test_mermin_peres_native_dichotomic(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs), exact_bound=True)
        pres = present(ineq, "dichotomic")
        assert pres.labels == oset.labels  # the variables stay
        assert pres.scale == Fraction(1, 2)
        assert pres.offset == -3
        assert pres.classical_bound == 4
        assert ineq.classical.kind == "exact"
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
        with pytest.raises(KSCertError, match="^projector form requires a ray observable set$"):
            present(ineq, "projector")

    def test_cabello_projector(self, cabello):
        oset, graph, bases = cabello
        ineq = assemble_F(build_complete_set_rays(oset, graph, bases))
        pres = present(ineq, "projector")
        assert pres.quantum_value == 9
        assert pres.classical_bound == 8
        assert ineq.classical.kind == "certified"
        assert pres.scale == 1 and pres.offset == -9

    def test_unknown_form(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs))
        with pytest.raises(KSCertError, match="^unknown form 'cglmp'$"):
            present(ineq, "cglmp")

    @pytest.mark.parametrize("form", ["projector", "dichotomic"])
    def test_certified_route_has_no_witness(self, form):
        assert present(_catalog_inequality("cabello-18"), form).witness is None

    def test_exact_witness_in_score_variables(self, cabello):
        """The exact bound's maximiser is max_F's witness, at A = 1 - 2P
        where the dichotomic form substitutes."""
        oset, graph, bases = cabello
        ineq = assemble_F(build_complete_set_rays(oset, graph, bases), exact_bound=True)
        witness = max_F(oset, ineq.complete_set.polynomials).witness
        assert present(ineq, "projector").witness == witness
        pres = present(ineq, "dichotomic")
        assert pres.labels == [f"d{label}" for label in oset.labels]
        assert pres.witness == {i: 1 - 2 * p for i, p in witness.items()}


def _read_back(text, labels):
    """The Poly of a rendered polynomial, read with the proof-file grammar
    (parse_poly_expr): each word is resolved by its index in labels, the
    list render was given, and a word that no label spells is a scalar
    word, i, r2 or r2i, as ProofFile.load reads it."""
    index = {label: i for i, label in enumerate(labels)}
    p = Poly()
    for coef, factors in parse_poly_expr(text):
        mono = []
        for word, e in factors:
            if word in index:
                mono.append((index[word], e))
            else:
                coef = coef * parse_scalar(word)
        p = p + Poly({tuple(sorted(mono)): coef})
    return p


_READ_BACK_INPUTS = (
    [pytest.param(["--catalog", name], form, id=f"{name}-{form}")
     for name, forms in (("mermin-peres", ["dichotomic"]), ("mermin-pentagram", ["dichotomic"]),
                         ("cabello-18", ["projector", "dichotomic"]),
                         ("peres-33", ["projector", "dichotomic"]))
     for form in forms]
    + [pytest.param(_eigenray_file("peres-24"), form, id=f"peres-24-{form}")
       for form in ("projector", "dichotomic")]
    + [pytest.param(text, "dichotomic", id=name)
       for name, text in GENERAL_MP_VARIANTS.items() if name != "fractional-spectrum"]
)


@pytest.mark.parametrize("source,form", _READ_BACK_INPUTS)
def test_record_polynomials_read_back(monkeypatch, capsys, tmp_path, source, form):
    """Every cpoly, F and score line of an export record reads back, with
    the proof-file grammar, as the Poly that render wrote: the members and
    F over the observable labels, the score over the presented labels."""
    if isinstance(source, str):  # a proof file's text
        (tmp_path / "proof.txt").write_text(source)
        source = ["--input", str(tmp_path / "proof.txt")]
    rendered = []

    def recorded(pf, ineq, pres, original=cli.render_record):
        rendered.append((ineq, pres))
        return original(pf, ineq, pres)

    monkeypatch.setattr(cli, "render_record", recorded)
    assert cli.main(["export", *source, "--form", form]) == 0
    record = capsys.readouterr().out
    [(ineq, pres)] = rendered
    labels = ineq.complete_set.oset.labels
    lines = record.split(DERIVED_MARKER + "\n")[1].splitlines()
    cpolys = [line.split(" :: ")[1] for line in lines if line.startswith("cpoly ")]
    assert [_read_back(text, labels) for text in cpolys] == [
        cp.poly for cp in ineq.complete_set.polynomials]
    body = {line.split(" :: ")[0]: line.split(" :: ")[1] for line in lines if " :: " in line}
    assert _read_back(body["F"], labels) == ineq.F
    assert _read_back(body["score"], pres.labels) == pres.score


_PART = st.one_of(st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=6))
_LABEL = st.one_of(st.sampled_from(["i", "r2", "r2i"]),
                   st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,3}", fullmatch=True))


@st.composite
def _labeled_polys(draw):
    labels = draw(st.lists(_LABEL, min_size=1, max_size=5, unique=True))
    monomial = st.dictionaries(st.integers(0, len(labels) - 1), st.integers(1, 3), max_size=3)
    terms = draw(st.lists(st.tuples(monomial, st.tuples(_PART, _PART, _PART, _PART)), max_size=6))
    p = Poly()
    for mono, parts in terms:
        p = p + Poly({tuple(sorted(mono.items())): Scalar(*parts)})
    return p, labels


@given(_labeled_polys())
@example((Poly({((0, 2), (1, 1)): Scalar(2), ((2, 1),): Scalar(-1)}), ["a1", "_", "b_2"]))
@settings(max_examples=200, deadline=None)
def test_rendered_polynomials_read_back(labeled):
    """render's text reads back, with the proof-file grammar, as the Poly it
    was rendered from, for coefficients with rational, sqrt2 and i parts,
    over labels that parse accepts, with digits and underscores, and also
    over those spelled like a scalar word, i, r2 or r2i, beside which render
    parenthesizes the coefficient of that spelling."""
    p, labels = labeled
    assert _read_back(render(p, labels), labels) == p


class TestExpectation:
    """Each operator is a multiple of I, so every state has that multiple as
    its expectation."""

    def test_F_operator_zero_any_state(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs))
        assert eval_operator(ineq.F, oset).is_zero

    def test_mermin_peres_score_saturates(self, mermin_peres):
        oset, ctxs = mermin_peres
        ineq = assemble_F(build_complete_set_parity(oset, ctxs))
        pres = present(ineq, "dichotomic")
        assert pres.quantum_value == 6
        assert scalar_multiple_of_identity(eval_operator(pres.score, oset)) == Scalar(6)

    def test_cabello_score_state_independent(self, cabello):
        oset, graph, bases = cabello
        ineq = assemble_F(build_complete_set_rays(oset, graph, bases))
        pres = present(ineq, "projector")
        assert pres.quantum_value == 9
        assert scalar_multiple_of_identity(eval_operator(pres.score, oset)) == Scalar(9)
