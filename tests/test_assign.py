"""Search engines: ray coloring, parity certification, general CSP, bounds."""

import collections
import functools
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kscert import catalog
from kscert.assign import (
    KS_PROOF,
    MAX_COSET_RANK,
    NOT_KS_PROOF,
    SearchStats,
    branch_and_bound,
    classical_max,
    general_unsat,
    ks_colorability,
    max_F,
    parity_certify,
    parity_elimination,
    parity_min_violations,
    signs,
    value_order,
)
from kscert.compat import OrthogonalityGraph, build_orthogonality_graph, enumerate_bases
from kscert.derive import build_complete_set_parity, build_complete_set_rays
from kscert.errors import KSCertError, SearchBudgetExceeded
from kscert.exact import ExactMatrix, Scalar
from kscert.model import (
    _SPECTRUM_01,
    _SPECTRUM_PM1,
    ObservableSet,
    make_observable,
    make_ray,
    pauli_observable,
    ray_observable,
)
from kscert.poly import (
    ContextPolynomial,
    Poly,
    eval_assignment,
    make_context_polynomial,
    normalization_constant,
    spectral_assignments,
)
from kscert.prooffile import parse

from conftest import single_basis_set, two_bases_set
from oracles import PAULI, kron
from test_cli import PARITY_INPUTS, _parity_set, _violated
from test_derive import GENERAL_MP_VARIANTS


def brute_force_coloring(n, edges, bases):
    """Independent oracle: enumerate all 2^n colorings."""
    sols = []
    for bits in itertools.product((0, 1), repeat=n):
        if any(bits[i] and bits[j] for i, j in edges):
            continue
        if any(sum(bits[i] for i in b) != 1 for b in bases):
            continue
        sols.append(bits)
    return sols


def ks_colorability_oracle(mu, adjacency, bases, node_cap):
    """The oracle: the sweep ks_colorability ran before its domains were bit
    masks, one bytearray of domains per node, its neighbours visited in
    sorted order.  Every sweep runs over all 1s and all bases, until one
    changes nothing.  Returns (witness, nodes, propagations), the witness a
    tuple of 0s and 1s or None."""
    ZERO, ONE, BOTH = 1, 2, 3
    in_bases = collections.Counter(i for b in bases for i in b)
    order_key = [(-in_bases[i], -len(adjacency[i]), i) for i in range(mu)]
    nodes = propagations = 0

    def propagate(dom):
        nonlocal propagations
        changed = True
        while changed:
            changed = False
            for i, d in enumerate(dom):
                if d == ONE:
                    for j in sorted(adjacency[i]):
                        if dom[j] & ONE:
                            if dom[j] == ONE:
                                return False
                            dom[j] = ZERO
                            propagations += 1
                            changed = True
            for b in bases:
                can_be_one = [i for i in b if dom[i] & ONE]
                if not can_be_one:
                    return False
                if len(can_be_one) == 1 and dom[can_be_one[0]] == BOTH:
                    dom[can_be_one[0]] = ONE
                    propagations += 1
                    changed = True
        return True

    stack = [bytearray([BOTH]) * mu]
    while stack:
        dom = stack.pop()
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(f"node cap {node_cap} exceeded")
        if not propagate(dom):
            continue
        free = [i for i, d in enumerate(dom) if d == BOTH]
        if not free:
            return tuple(int(d == ONE) for d in dom), nodes, propagations
        var = min(free, key=order_key.__getitem__)
        for x in (ONE, ZERO):
            nxt = bytearray(dom)
            nxt[var] = x
            stack.append(nxt)
    return None, nodes, propagations


@functools.cache
def _ray_set(mu):
    """mu rays for a search that reads only how many there are."""
    oset = ObservableSet(dim=2)
    oset.observables += [ray_observable(make_ray((1, k))) for k in range(mu)]
    return oset


@st.composite
def colouring_instances(draw):
    """A graph on 4 to 90 vertices with bases: each basis a set of 2 to 5
    vertices made a clique, in the order drawn, plus edges drawn apart
    from the bases."""
    mu = draw(st.integers(4, 90))
    d = draw(st.integers(2, min(5, mu)))
    vertex = st.integers(0, mu - 1)
    bases = draw(st.lists(st.lists(vertex, min_size=d, max_size=d, unique=True).map(
        lambda b: tuple(sorted(b))), max_size=mu))
    pairs = {p for b in bases for p in itertools.combinations(b, 2)}
    pairs |= {(min(p), max(p)) for p in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * mu))
              if p[0] != p[1]}
    return mu, sorted(pairs), bases


class TestKSColorability:
    def test_single_basis_colorable(self, basis3):
        g = build_orthogonality_graph(basis3)
        bases = enumerate_bases(g)
        cert = ks_colorability(basis3, g, bases)
        assert cert.verdict == NOT_KS_PROOF
        assert sum(cert.witness.values()) == 1

    def test_two_bases_colorable(self, two_bases):
        g = build_orthogonality_graph(two_bases)
        bases = enumerate_bases(g)
        cert = ks_colorability(two_bases, g, bases)
        assert not cert.is_proof
        w = cert.witness
        for i, j in g.edges:
            assert not (w[i] == 1 and w[j] == 1)
        for b in bases:
            assert sum(w[i] for i in b) == 1

    def test_cabello_uncolorable(self, cabello):
        oset, graph, bases = cabello
        cert = ks_colorability(oset, graph, bases)
        assert cert.is_proof
        assert cert.method == "RayColoring"
        assert cert.witness is None
        assert cert.stats.nodes < 10_000

    def test_peres_uncolorable(self, peres33):
        oset, graph, bases = peres33
        cert = ks_colorability(oset, graph, bases)
        assert cert.is_proof
        assert cert.stats.nodes < 100_000

    def test_budget(self, cabello):
        oset, graph, bases = cabello
        with pytest.raises(SearchBudgetExceeded):
            ks_colorability(oset, graph, bases, node_cap=2)

    def test_search_deeper_than_recursion_limit(self):
        # d = 2: rays (1, k) and (-k, 1) are the only orthogonal pairs, a
        # perfect matching of 2,000 rays as 1,000 two-ray bases.  Each node
        # sets one ray to 0 and forces its partner, so the search path has
        # 1,001 nodes, more than the default recursion limit.  The set and
        # its graph are built directly, skipping the O(n^2) duplicate checks
        # of ObservableSet.add and inner products of build_orthogonality_graph
        n = 1000
        assert sys.getrecursionlimit() <= n
        oset = ObservableSet(dim=2)
        for k in range(1, n + 1):
            oset.observables += [ray_observable(make_ray(v)) for v in ((1, k), (-k, 1))]
        graph = OrthogonalityGraph(oset=oset, masks=[1 << (i ^ 1) for i in range(2 * n)])
        bases = [(2 * k, 2 * k + 1) for k in range(n)]
        cert = ks_colorability(oset, graph, bases)
        assert not cert.is_proof
        assert cert.stats.nodes == n + 1
        for k in range(n):
            assert cert.witness[2 * k] + cert.witness[2 * k + 1] == 1

    @given(
        st.lists(
            st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)),
            min_size=3,
            max_size=7,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, vectors):
        oset = ObservableSet(dim=3)
        for v in vectors:
            if not any(v):
                continue
            try:
                oset.add_ray(v)
            except Exception:
                pass
        assume(len(oset) >= 3)
        g = build_orthogonality_graph(oset)
        bases = enumerate_bases(g)
        cert = ks_colorability(oset, g, bases)
        sols = brute_force_coloring(len(oset), g.edges, bases)
        assert cert.is_proof == (not sols)
        if not cert.is_proof:
            assert tuple(cert.witness[i] for i in range(len(oset))) in sols


    @given(colouring_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_sorted_sweep_oracle(self, instance):
        """Verdict, witness, nodes and propagations all agree with the
        oracle, whose neighbours are visited in ascending id order."""
        mu, edges, bases = instance
        masks, adjacency = [0] * mu, [set() for _ in range(mu)]
        for i, j in edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
            adjacency[i].add(j)
            adjacency[j].add(i)
        oset = _ray_set(mu)
        graph = OrthogonalityGraph(oset=oset, masks=masks)
        assert graph.edges == edges
        try:
            want = ks_colorability_oracle(mu, adjacency, bases, node_cap=2000)
        except SearchBudgetExceeded:
            with pytest.raises(SearchBudgetExceeded):
                ks_colorability(oset, graph, bases, node_cap=2000)
            return
        cert = ks_colorability(oset, graph, bases, node_cap=2000)
        witness = None if cert.witness is None else tuple(cert.witness[i] for i in range(mu))
        assert (witness, cert.stats.nodes, cert.stats.propagations) == want
        assert cert.is_proof == (witness is None)


class TestParityCertify:
    def test_mermin_peres(self, mermin_peres):
        oset, ctxs = mermin_peres
        assert parity_certify(oset, ctxs) == [1, 1, 1, 1, 1, -1]

    def test_pentagram(self, pentagram):
        oset, ctxs = pentagram
        assert sorted(parity_certify(oset, ctxs)) == [-1, 1, 1, 1, 1]

    def test_dropped_context_fails(self, mermin_peres):
        # without the minus column the elimination finds an assignment that
        # zeroes every remaining member
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs[:-1])
        cert = cs.decide()
        assert not cert.is_proof
        assert cert.method == "ParityElimination"
        for cp in cs.polynomials:
            assert eval_assignment(cp.poly, cert.witness).is_zero

    def test_requires_dichotomic(self, basis3):
        with pytest.raises(KSCertError, match=r"^observable e1 is not \{-1,1\}-dichotomic$"):
            parity_certify(basis3, [(0, 1, 2)])

    def test_requires_scalar_product(self):
        oset = ObservableSet(dim=4)
        oset.add(make_observable(kron(PAULI["X"], PAULI["I"]), label="XI"))
        oset.add(make_observable(kron(PAULI["I"], PAULI["X"]), label="IX"))
        with pytest.raises(KSCertError, match=r"^context \(XI, IX\) product is not \+-identity$"):
            parity_certify(oset, [(0, 1)])

    @pytest.mark.parametrize("words", [("XI", "IX"), ("X", "Y", "Z")], ids=["XI-IX", "XYZ=iI"])
    def test_requires_scalar_product_of_words(self, words):
        oset = ObservableSet(dim=2 ** len(words[0]))
        for word in words:
            oset.add(pauli_observable(word, label=word))
        with pytest.raises(KSCertError, match=rf"^context \({', '.join(words)}\) "
                                              r"product is not \+-identity$"):
            parity_certify(oset, [tuple(range(len(words)))])


class TestGeneralUnsat:
    def test_empty_set_is_not_proof(self, basis3):
        cert = general_unsat(basis3, [])
        assert cert.verdict == NOT_KS_PROOF
        assert cert.witness == {0: 0, 1: 0, 2: 0}

    def test_single_basis_sat(self, basis3):
        g = build_orthogonality_graph(basis3)
        cs = build_complete_set_rays(basis3, g, enumerate_bases(g))
        cert = general_unsat(basis3, cs.polynomials)
        assert not cert.is_proof
        for cp in cs.polynomials:
            assert eval_assignment(cp.poly, cert.witness).is_zero

    def test_cabello_unsat_agrees_with_coloring(self, cabello):
        oset, graph, bases = cabello
        cs = build_complete_set_rays(oset, graph, bases)
        cert = general_unsat(oset, cs.polynomials)
        assert cert.is_proof
        assert cert.method == "GeneralCSP"
        assert ks_colorability(oset, graph, bases).is_proof

    def test_parity_set_unsat(self, mermin_peres):
        oset, ctxs = mermin_peres
        cs = build_complete_set_parity(oset, ctxs)
        assert general_unsat(oset, cs.polynomials).is_proof

    def test_budget(self, cabello):
        oset, graph, bases = cabello
        cs = build_complete_set_rays(oset, graph, bases)
        with pytest.raises(SearchBudgetExceeded):
            general_unsat(oset, cs.polynomials, node_cap=3)

    @given(
        st.lists(
            st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)),
            min_size=3,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_coloring_on_ray_sets(self, vectors):
        oset = ObservableSet(dim=3)
        for v in vectors:
            if not any(v):
                continue
            try:
                oset.add_ray(v)
            except Exception:
                pass
        assume(len(oset) >= 3)
        g = build_orthogonality_graph(oset)
        cs = build_complete_set_rays(oset, g, enumerate_bases(g))
        assert_ray_shortcut_matches_oracle(cs)

    @pytest.mark.parametrize("name", ["cabello-18", "peres-33"])
    @pytest.mark.parametrize("drop", [None, 0, 7])
    def test_matches_coloring_on_catalog_ray_sets(self, name, drop):
        oset = catalog.get(name).load()
        if drop is not None:
            less = ObservableSet(dim=oset.dim)
            for i, obs in enumerate(oset.observables):
                if i != drop:
                    less.add(obs)
            oset = less
        g = build_orthogonality_graph(oset)
        cs = build_complete_set_rays(oset, g, enumerate_bases(g))
        assert_ray_shortcut_matches_oracle(cs)


def assert_ray_shortcut_matches_oracle(cs):
    """RaySet.decide's shortcut (ks_colorability on the recorded graph and
    bases) against general_unsat over the members: the same verdict, and a
    coloring witness that zeroes every member."""
    cert = cs.decide()
    assert cert.method == "RayColoring"
    assert cert.is_proof == general_unsat(cs.oset, cs.polynomials).is_proof
    if not cert.is_proof:
        for cp in cs.polynomials:
            assert eval_assignment(cp.poly, cert.witness).is_zero


def _with_unread_ray(oset, vector):
    """oset and one more ray, orthogonal to none of its rays, so that no
    member of its complete set reads it."""
    out = ObservableSet(dim=oset.dim)
    for obs in oset.observables:
        out.add(obs)
    out.add_ray(vector, label="u")
    return out


class TestWitnessContract:
    """Every search returns a witness that assigns every observable, the one
    that no member reads included, or None; the verdict is read off it."""

    @pytest.fixture(params=["basis3", "cabello-18"])
    def unread(self, request):
        """(complete set, whether it is a proof)."""
        if request.param == "basis3":
            oset = _with_unread_ray(single_basis_set(3), (1, 1, 1))
        else:  # (1, 2, 4, 8) is orthogonal to no vector of 0s and +-1s
            oset = _with_unread_ray(catalog.get("cabello-18").load(), (1, 2, 4, 8))
        graph = build_orthogonality_graph(oset)
        cs = build_complete_set_rays(oset, graph, enumerate_bases(graph))
        u = len(oset) - 1
        assert not any(u in cp.poly.variables() for cp in cs.polynomials)
        return cs, request.param == "cabello-18"

    @staticmethod
    def assert_full(witness, oset):
        if witness is not None:
            assert sorted(witness) == list(range(len(oset)))
            assert witness[len(oset) - 1] == 0  # the first of the ray's value_order

    def test_proof_certificates(self, unread):
        cs, is_proof = unread
        colouring = ks_colorability(cs.oset, cs.graph, cs.bases)
        csp = general_unsat(cs.oset, cs.polynomials)
        for cert in (colouring, csp, cs.decide()):
            self.assert_full(cert.witness, cs.oset)
            assert cert.is_proof == (cert.witness is None) == is_proof
            assert cert.verdict == (KS_PROOF if is_proof else NOT_KS_PROOF)

    def test_bounds(self, unread):
        cs, _ = unread
        oset = cs.oset
        bound = max_F(oset, cs.polynomials)
        score = classical_max(oset, Poly({((0, 1),): Scalar(1)}))
        _, witness, _ = branch_and_bound(oset, [((0, 1), lambda a: -int(a[0] * a[1]))])
        for w in (bound.witness, score.witness, witness):
            assert w is not None
            self.assert_full(w, oset)

    def test_values_are_the_shared_spectrum_objects(self, two_bases):
        """A ray coloring's witness holds the objects of _SPECTRUM_01, and
        the GF(2) engines' witnesses those of _SPECTRUM_PM1: no witness
        builds a Fraction per observable."""
        graph = build_orthogonality_graph(two_bases)
        rays = ks_colorability(two_bases, graph, enumerate_bases(graph)).witness
        mp = catalog.get("mermin-peres").load()
        rows = build_complete_set_parity(mp, mp.declared_contexts).rows
        parity = [parity_elimination(mp, rows[:-1]).witness,  # a column short: colourable
                  parity_min_violations(rows, len(mp)).witness, signs(0b101, 3)]
        for witness, shared in ((rays, _SPECTRUM_01), *((w, _SPECTRUM_PM1) for w in parity)):
            assert witness is not None
            assert all(any(v is s for s in shared) for v in witness.values())
        assert set(rays.values()) == {0, 1}
        assert parity[2] == {0: -1, 1: 1, 2: -1}


def mixed_spectra_set():
    """Six diagonal observables in d = 3 with spectra of two and three values."""
    oset = ObservableSet(dim=3)
    for diag in [(0, 1, 2), (1, -1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 2), (-1, 1, 1)]:
        rows = [[d if r == c else 0 for c in range(3)] for r, d in enumerate(diag)]
        oset.add(make_observable(ExactMatrix(rows), spectrum=set(diag)))
    return oset


def fractional_spectra_set():
    """Five diagonal observables in d = 3 whose spectra hold fractions, one
    of them (1/2, 2)."""
    oset = ObservableSet(dim=3)
    for diag in [(Fraction(1, 2), 2, 2), (Fraction(-1, 3), 1, 1), (0, Fraction(3, 2), Fraction(-2, 5)),
                 (1, -1, Fraction(1, 4)), (Fraction(5, 6), Fraction(5, 6), 0)]:
        rows = [[d if r == c else 0 for c in range(3)] for r, d in enumerate(diag)]
        oset.add(make_observable(ExactMatrix(rows), spectrum=set(diag)))
    return oset


class TestBranchAndBound:
    def test_matches_brute_force_on_random_tables(self):
        # arbitrary non-positive tables, so that several factors with one
        # free variable often leave every value of it below 0
        oset = mixed_spectra_set()
        spectra = oset.spectra()
        rng = random.Random(5)
        for _ in range(60):
            factors = []
            for _ in range(rng.randint(1, 8)):
                ids = rng.sample(range(len(oset)), rng.randint(0, 3))
                table = {
                    xs: -rng.randint(0, 4)
                    for xs in itertools.product(*(spectra[i] for i in ids))
                }
                factors.append((ids, lambda a, ids=ids, t=table: t[tuple(a[i] for i in ids)]))
            variables = sorted({i for ids, _ in factors for i in ids})

            def total(a):
                return sum(f(a) for _, f in factors)

            expect = max(
                total(dict(zip(variables, xs)))
                for xs in itertools.product(*(spectra[i] for i in variables))
            )
            best, witness, _ = branch_and_bound(oset, factors)
            assert best == expect == total(witness)
            seed = -rng.randint(0, 6)
            best, witness, _ = branch_and_bound(oset, factors, seed=seed)
            if expect > seed:
                assert best == expect == total(witness)
            else:
                assert witness is None
            for kw in ({}, {"seed": seed}):
                # ceiling inf never stops the search: the full search
                full = branch_and_bound(oset, factors, ceiling=math.inf, **kw)
                # the default 0 moves no count
                best, witness, stats = branch_and_bound(oset, factors, **kw)
                assert (best, witness, stats) == full
                # a ceiling at the true maximum keeps the result, in no more nodes
                best, witness, stats = branch_and_bound(oset, factors, ceiling=expect, **kw)
                assert (best, witness) == full[:2]
                assert stats.nodes <= full[2].nodes

    def test_budget(self, basis3):
        factors = [([i], lambda a, i=i: -a[i]) for i in range(3)]
        with pytest.raises(SearchBudgetExceeded):
            branch_and_bound(basis3, factors, node_cap=2)


@st.composite
def parity_rows(draw):
    """A random parity row system over at most MAX_COSET_RANK observables,
    so that its rank is within the coset walk's: contexts as sorted id
    tuples, each with a delta of +-1; proofs and non-proofs."""
    n = draw(st.integers(1, MAX_COSET_RANK))
    contexts = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=20))
    return n, [(tuple(sorted(c)), draw(st.sampled_from((1, -1)))) for c in contexts]


class TestParityMinViolations:
    """The walk's answer: the exact bound -m, for the least number m of
    violated rows, at a witness over every id that violates exactly m, with
    no search."""

    def _check(self, rows, n, least):
        res = parity_min_violations(rows, n)
        assert (res.kind, res.value, res.stats) == ("exact", -least, SearchStats())
        assert sorted(res.witness) == list(range(n))
        assert set(res.witness.values()) <= {1, -1}
        assert _violated(rows, res.witness) == least

    @given(parity_rows())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, system):
        n, rows = system
        masks = [(sum(1 << i for i in ctx), int(delta == -1)) for ctx, delta in rows]
        least = min(sum((x & mask).bit_count() & 1 ^ rhs for mask, rhs in masks)
                    for x in range(1 << n))
        self._check(rows, n, least)

    @pytest.mark.parametrize("name,least", [
        ("mermin-peres", 1), ("mermin-pentagram", 1), ("doily", 3),
        ("w52", None),  # rank 56: no walk
    ])
    def test_pauli_sets(self, name, least):
        cs = _parity_set(PARITY_INPUTS[name]())
        if least is None:
            assert parity_min_violations(cs.rows, len(cs.oset)) is None
        else:
            self._check(cs.rows, len(cs.oset), least)


def brute_force_F(oset, polys):
    """Independent oracle: the maximum of -sum |r_i|^2 / c_i over every
    assignment, from a table of each r_i's values on its own variables."""
    tables = []
    for cp in polys:
        ids = sorted(cp.poly.variables())
        c = normalization_constant(cp, oset)
        table = {
            tuple(a[i] for i in ids): -eval_assignment(cp.poly, a).norm_squared().rational() / c
            for a in spectral_assignments(oset, ids)
        }
        tables.append((ids, table))
    return max(
        sum(table[tuple(a[i] for i in ids)] for ids, table in tables)
        for a in spectral_assignments(oset, range(len(oset)))
    )


# normalization_constant's two refusals
_NO_NORMALIZATION = ("squared modulus is irrational; cannot normalize",
                     "polynomial vanishes at every spectral assignment")


def check_max_F(oset, polys):
    polys = [ContextPolynomial(cp.poly, normalization_constant(cp, oset)) for cp in polys]
    res = max_F(oset, polys)
    assert res.kind == "exact"
    assert brute_force_F(oset, polys) == res.value
    attained = sum(
        -eval_assignment(cp.poly, res.witness).norm_squared().rational() / cp.c
        for cp in polys
    )
    assert attained == res.value
    return res


class TestMaxF:
    @given(
        st.lists(
            st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)),
            min_size=3,
            max_size=7,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_random_ray_sets(self, vectors):
        oset = ObservableSet(dim=3)
        for v in vectors:
            if not any(v):
                continue
            try:
                oset.add_ray(v)
            except Exception:
                pass
        assume(len(oset) >= 3)
        g = build_orthogonality_graph(oset)
        bases = enumerate_bases(g)
        res = check_max_F(oset, build_complete_set_rays(oset, g, bases).polynomials)
        assert (res.value == 0) == (not ks_colorability(oset, g, bases).is_proof)

    def test_matches_brute_force_on_parity_proofs(self, mermin_peres, pentagram):
        for oset, ctxs in (mermin_peres, pentagram):
            polys = build_complete_set_parity(oset, ctxs).polynomials
            assert check_max_F(oset, polys).value == -1

    @pytest.mark.parametrize("name", list(GENERAL_MP_VARIANTS))
    def test_matches_brute_force_on_general_mode_sets(self, name):
        # members with complex and sqrt2 coefficients, c = 1/4 and a
        # variable of spectrum (1/2, 2): the common denominator L of the
        # int scores against Fraction arithmetic
        pf = parse(GENERAL_MP_VARIANTS[name])
        oset, polys = pf.load()
        assert check_max_F(oset, polys).value == -1
        assert check_max_F(oset, polys[:-1]).value == 0

    def test_matches_brute_force_on_fractional_spectra(self):
        oset = fractional_spectra_set()
        rng = random.Random(17)
        for _ in range(30):
            polys = []
            for _ in range(rng.randint(1, 4)):
                ids = sorted(rng.sample(range(len(oset)), rng.randint(1, 3)))
                p = Poly()
                for _ in range(rng.randint(1, 3)):
                    coef = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), 0,
                                  Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                    term = Poly.const(coef)
                    for i in rng.sample(ids, rng.randint(0, len(ids))):
                        term = term * Poly.var(i) * (Poly.var(i) if rng.random() < 0.3 else 1)
                    p = p + term
                cp = make_context_polynomial(p, oset)
                try:
                    normalization_constant(cp, oset)
                except KSCertError as ex:  # no c for a zero member
                    assert str(ex) in _NO_NORMALIZATION
                    continue
                polys.append(cp)
            if polys:
                check_max_F(oset, polys)

    def test_irrational_square_raises(self, basis3):
        # |P0 + sqrt2|^2 is 3 + 2 sqrt2 at P0 = 1, as the Fraction oracle says
        cp = ContextPolynomial(Poly.var(0) + Scalar(0, 1))
        with pytest.raises(ValueError, match=re.escape("not a rational number: 3+2r2")):
            max_F(basis3, [cp])
        with pytest.raises(ValueError, match=re.escape("not a rational number: 3+2r2")):
            eval_assignment(cp.poly, {0: Fraction(1)}).norm_squared().rational()


def brute_force_max(oset, score):
    variables = sorted(score.variables())
    spectra = oset.spectra()
    best = None
    arg = None
    for vals in itertools.product(*(spectra[v] for v in variables)):
        assignment = dict(zip(variables, vals))
        x = eval_assignment(score, assignment).rational()
        if best is None or x > best:
            best, arg = x, assignment
    return best, arg


class TestClassicalMax:
    def test_constant(self, basis3):
        res = classical_max(basis3, Poly.const(Fraction(5, 2)))
        assert res.kind == "exact" and res.value == Fraction(5, 2)

    def test_irrational_coefficient_rejected(self, basis3):
        score = Poly.var(0) + Poly({((1, 1),): Scalar(0, 1)})  # P0 + sqrt2 P1
        with pytest.raises(ValueError, match="^classical_max requires a rational-coefficient score$"):
            classical_max(basis3, score)

    def test_linear_projectors(self, basis3):
        score = Poly.var(0) + Poly.var(1) - Poly.var(2)
        res = classical_max(basis3, score)
        assert res.value == 2
        assert eval_assignment(score, res.witness).rational() == 2

    def test_oracle_mermin_peres_row(self, mermin_peres):
        oset, ctxs = mermin_peres
        ids = ctxs[0]
        score = Poly.var(ids[0]) * Poly.var(ids[1]) + Poly.var(ids[2])
        res = classical_max(oset, score)
        expect, _ = brute_force_max(oset, score)
        assert res.value == expect == 2

    def test_oracle_full_parity_score(self, mermin_peres):
        # sum of the six context products with the minus column negated
        oset, ctxs = mermin_peres
        score = Poly()
        for ctx, delta in zip(ctxs, [1, 1, 1, 1, 1, -1]):
            term = Poly.const(delta)
            for i in ctx:
                term = term * Poly.var(i)
            score = score + term
        res = classical_max(oset, score)
        expect, _ = brute_force_max(oset, score)
        assert res.value == expect == 4
        assert eval_assignment(score, res.witness).rational() == 4

    def test_budget(self, peres33):
        oset, graph, bases = peres33
        score = Poly()
        for i in range(len(oset)):
            score = score + Poly.var(i)
        with pytest.raises(SearchBudgetExceeded):
            classical_max(oset, score, node_cap=5)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 2), min_size=0, max_size=2),
                st.integers(-3, 3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_oracle_random_scores(self, terms):
        from kscert.exact import Scalar

        oset = single_basis_set(3)
        score = Poly()
        for varlist, coef in terms:
            term = Poly.const(coef)
            for i in varlist:
                term = term * Poly.var(i)
            score = score + term
        assume(score.variables())
        res = classical_max(oset, score)
        expect, _ = brute_force_max(oset, score)
        assert res.value == expect
        assert eval_assignment(score, res.witness).rational() == expect


    def test_oracle_random_scores_many_variables(self, mermin_peres):
        # several monomials share each variable, so the forward-checked
        # gain of a variable is a sum whose maximum is often below 0
        oset, _ = mermin_peres
        rng = random.Random(11)
        for _ in range(30):
            score = Poly()
            for _ in range(rng.randint(4, 12)):
                term = Poly.const(rng.randint(-3, 3))
                for i in rng.sample(range(7), rng.randint(1, 3)):
                    term = term * Poly.var(i)
                score = score + term
            res = classical_max(oset, score)
            expect, _ = brute_force_max(oset, score)
            assert res.value == expect
            assert eval_assignment(score, res.witness).rational() == expect

    def test_oracle_fractional_coefficients_and_spectra(self):
        # the common denominator of coefficients and spectrum powers
        oset = fractional_spectra_set()
        rng = random.Random(13)
        for _ in range(30):
            score = Poly()
            for _ in range(rng.randint(1, 6)):
                term = Poly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                for i in rng.sample(range(len(oset)), rng.randint(0, 3)):
                    term = term * Poly.var(i) * (Poly.var(i) if rng.random() < 0.3 else 1)
                score = score + term
            res = classical_max(oset, score)
            expect, _ = brute_force_max(oset, score)
            assert res.value == expect
            assert eval_assignment(score, res.witness).rational() == expect


class TestValueOrder:
    def test_orders(self):
        assert value_order((Fraction(0), Fraction(1))) == [Fraction(0), Fraction(1)]
        assert value_order((Fraction(-1), Fraction(1))) == [Fraction(1), Fraction(-1)]
        assert value_order((Fraction(2), Fraction(0), Fraction(1))) == [
            Fraction(0),
            Fraction(1),
            Fraction(2),
        ]
