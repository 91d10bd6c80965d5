"""Orthogonality graph, basis enumeration, context validation."""

import functools
import itertools
import random
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kscert import compat
from kscert.compat import (
    OrthogonalityGraph,
    build_orthogonality_graph,
    context_delta,
    context_product,
    enumerate_bases,
    validate_context,
    word_product,
)
from kscert import catalog
from kscert.errors import KSCertError
from kscert.exact import Scalar, commutes, inner, mask_matrix, mat_mul, pauli_masks
from kscert.model import ObservableSet, make_observable, pauli_observable

from conftest import eigenray_set, single_basis_set, stabilizer_ray_set
from oracles import PAULI, pauli_matrix
from test_acceptance import _random_ray_set
from test_cli import run
from test_model import ray_vector_lists


class TestGraph:
    def test_standard_basis_triangle(self, basis3):
        g = build_orthogonality_graph(basis3)
        assert g.edges == [(0, 1), (0, 2), (1, 2)]

    def test_edges_computed_once(self, basis3):
        g = build_orthogonality_graph(basis3)
        assert g.edges is g.edges
        built = OrthogonalityGraph(oset=basis3, masks=list(g.masks))
        assert built.edges == g.edges

    def test_non_orthogonal_no_edge(self):
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0))
        oset.add_ray((1, 1, 0))
        g = build_orthogonality_graph(oset)
        assert g.edges == []

    def test_requires_rays(self):
        oset = ObservableSet(dim=2)
        oset.add(make_observable(PAULI["Z"]))
        with pytest.raises(KSCertError, match="^orthogonality graph requires a pure ray set$"):
            build_orthogonality_graph(oset)

    def test_cabello_graph(self, cabello):
        oset, graph, bases = cabello
        assert len(graph.edges) == 63
        assert len(bases) == 9
        # the 9 known bases all appear among the enumerated 4-cliques
        known = [
            ("r1", "r2", "r3", "r4"),
            ("r1", "r5", "r6", "r7"),
            ("r8", "r9", "r3", "r10"),
            ("r8", "r11", "r7", "r12"),
            ("r2", "r5", "r13", "r14"),
            ("r9", "r11", "r14", "r15"),
            ("r16", "r17", "r4", "r10"),
            ("r16", "r18", "r6", "r12"),
            ("r17", "r18", "r13", "r15"),
        ]
        found = set(bases)
        for labels in known:
            ids = tuple(sorted(oset.by_label(l) for l in labels))
            assert ids in found


big_parts = st.integers(-(2**40), 2**40)
big_scalars = st.tuples(big_parts, big_parts, big_parts, big_parts).map(lambda t: Scalar(*t))


def _assert_symmetric_rows(graph):
    """Each row is computed on its own, so check what setting both bits of a
    pair at once used to give: bit j of row i exactly when bit i of row j,
    no row with its own bit, and no bit beyond the last ray."""
    masks = graph.masks
    for i, m in enumerate(masks):
        assert not m >> i & 1 and m >> len(masks) == 0, i
        assert all(m >> j & 1 == masks[j] >> i & 1 for j in range(len(masks))), i


def _inner_edges(oset):
    """The oracle for the integer test: edges where exact.inner of the
    vectors as given, over Q(i, sqrt2), is 0."""
    vs = [obs.ray.vector for obs in oset.observables]
    return [(i, j) for i, j in itertools.combinations(range(len(vs)), 2)
            if inner(vs[i], vs[j]).is_zero]


class TestIntegerGraphOracle:
    """build_orthogonality_graph tests orthogonality in integers on the
    rays' primitive integral vectors; exact.inner is the oracle."""

    @pytest.mark.parametrize("name,counts", [
        ("cabello-18", (18, 63)), ("peres-33", (33, 72)),
        ("mermin-peres", (24, 108)), ("mermin-pentagram", (40, 460)),
    ])
    def test_catalog_entries(self, name, counts):
        oset = catalog.get(name).load()
        if not oset.all_rays:
            oset = eigenray_set(name)
        edges = build_orthogonality_graph(oset).edges
        assert (len(oset), len(edges)) == counts
        assert edges == _inner_edges(oset)

    def test_random_ray_sets(self):
        rng = random.Random(7)
        for _ in range(30):
            oset = _random_ray_set(rng, max_rays=10)
            assert build_orthogonality_graph(oset).edges == _inner_edges(oset)

    @given(ray_vector_lists(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_random_vectors(self, vectors):
        oset = ObservableSet(dim=len(vectors[0]))
        for v in vectors:
            try:
                oset.add_ray(v)
            except KSCertError as ex:  # a duplicate ray
                assert " duplicates " in str(ex)
        graph = build_orthogonality_graph(oset)
        assert graph.edges == _inner_edges(oset)
        _assert_symmetric_rows(graph)

    @given(st.integers(2, 4).flatmap(lambda d: st.lists(
        big_scalars, min_size=d, max_size=d)).filter(lambda u: not (u[0].is_zero and u[1].is_zero)))
    @settings(max_examples=150, deadline=None)
    def test_large_parts(self, u):
        """Parts up to 2^40 in size, far above INTEGRAL_ENTRIES': u, a vector
        v orthogonal to it, and the copies of v with one part moved by 1."""
        v = [u[1].conjugate(), -u[0].conjugate()] + [Scalar(0)] * (len(u) - 2)
        near = []
        for k, x in enumerate(v):
            for p in range(4):
                parts = [x.a, x.b, x.c, x.d]
                parts[p] += 1
                near.append(v[:k] + [Scalar(*parts)] + v[k + 1 :])
        oset = ObservableSet(dim=len(u))
        for w in [u, v, *near]:
            if any(not x.is_zero for x in w):
                try:
                    oset.add_ray(w)
                except KSCertError as ex:  # a duplicate ray
                    assert " duplicates " in str(ex)
        graph = build_orthogonality_graph(oset)
        assert (0, 1) in graph.edges
        assert graph.edges == _inner_edges(oset)
        _assert_symmetric_rows(graph)

    def test_radix_carries(self):
        """<u, w> = 2^s r_k - r_(k+1), for r the units 1, sqrt2, i, i sqrt2:
        its four integer sums, 2^s and -1 in adjacent places, cancel when
        packed with a radix of 2^s, so a radix fixed that low joins u and w.
        u = (1, 1) and w = (1, <u, w> - 1) are their own keys."""
        units = [Scalar(1), Scalar(0, 1), Scalar(0, 0, 1), Scalar(0, 0, 0, 1)]
        for s in range(64):
            for k in range(3):
                oset = ObservableSet(dim=2)
                oset.add_ray((1, 1))
                oset.add_ray((1, units[k] * 2**s - units[k + 1] - 1))
                assert build_orthogonality_graph(oset).edges == [], (s, k)

    @given(st.lists(big_scalars.filter(lambda z: not z.is_zero), min_size=1, max_size=6))
    @example([Scalar(sign * 2**s) * unit for s in (0, 1, 40) for sign in (1, -1)
              for unit in (Scalar(1), Scalar(0, 1), Scalar(0, 0, 1), Scalar(0, 0, 0, 1))])
    @settings(max_examples=100, deadline=None)
    def test_row_digits_do_not_carry(self, products):
        """The row twin of test_radix_carries: in u's row, digits with Z = 0
        lie between digits with large |Z|, of either sign in each of the
        four sums, so a carry or borrow across a digit boundary would move
        a neighbour's bit.  u = (1, 1, 0); the rays (1, -1, k) are
        orthogonal to it, and (1, z - 1, k) has <u, w> = z, each its own key."""
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 1, 0))
        for k, z in enumerate(products, start=1):  # ray ids 2k - 1 and 2k
            oset.add_ray((1, -1, 2 * k - 1))
            oset.add_ray((1, z - 1, 2 * k))
        graph = build_orthogonality_graph(oset)
        assert graph.masks[0] == sum(1 << j for j in range(1, len(oset), 2))
        assert graph.edges == _inner_edges(oset)
        _assert_symmetric_rows(graph)

    def test_large_parts_file(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("dim 2\n"
                        "ray a 10000000000000000000000000000 1/3\n"
                        "ray b -1/3 10000000000000000000000000000\n")
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert "method: RayColoring (1 bases, 1 edges)" in out


@st.composite
def graphs(draw):
    """A graph on up to 9 vertices, each pair an edge or not, with an
    empty observable set of dimension 1 to 4."""
    vertices = range(draw(st.integers(0, 9)))
    pairs = list(itertools.combinations(vertices, 2))
    edges = [p for p, edge in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if edge]
    masks = [0 for _ in vertices]
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return OrthogonalityGraph(oset=ObservableSet(dim=draw(st.integers(1, 4))), masks=masks)


def _nx_cliques(graph, n):
    """The oracle: networkx's cliques of the graph with n vertices."""
    g = nx.Graph()
    g.add_nodes_from(range(len(graph.masks)))
    g.add_edges_from(graph.edges)
    return sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(g) if len(c) == n)


class TestEnumerateBases:
    def test_single_basis(self, basis3):
        g = build_orthogonality_graph(basis3)
        bases = enumerate_bases(g)
        assert bases == [(0, 1, 2)]

    def test_networkx_oracle(self, cabello):
        oset, graph, bases = cabello
        g = nx.Graph()
        g.add_nodes_from(range(len(oset)))
        g.add_edges_from(graph.edges)
        oracle = sorted(
            tuple(sorted(c)) for c in nx.find_cliques(g) if len(c) == 4
        )
        assert bases == oracle

    @pytest.mark.parametrize("oset", [
        pytest.param(catalog.get("peres-33").load(), id="peres-33"),
        pytest.param(eigenray_set("mermin-peres"), id="peres-24"),
        pytest.param(eigenray_set("mermin-pentagram"), id="kp-40"),
    ])
    def test_networkx_oracle_ray_sets(self, oset):
        graph = build_orthogonality_graph(oset)
        assert enumerate_bases(graph) == _nx_cliques(graph, oset.dim)

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_networkx_oracle_random_graphs(self, graph):
        """Any graph, orthogonality graph or not: the n-cliques are not
        assumed maximal."""
        assert enumerate_bases(graph) == _nx_cliques(graph, graph.oset.dim)

    def test_basis_larger_than_recursion_limit(self):
        n = sys.getrecursionlimit() + 100
        everything = (1 << n) - 1
        graph = OrthogonalityGraph(oset=ObservableSet(dim=n),
                                   masks=[everything ^ 1 << i for i in range(n)])
        assert enumerate_bases(graph) == [tuple(range(n))]

    def test_order_independence(self, cabello):
        oset, graph, bases = cabello
        # rebuild with reversed ray order; bases must map back under the permutation
        from kscert.catalog import CABELLO_18_VECTORS

        rev = ObservableSet(dim=4)
        for k, v in enumerate(reversed(CABELLO_18_VECTORS)):
            rev.add_ray(v, label=f"s{k}")
        rbases = enumerate_bases(build_orthogonality_graph(rev))
        n = len(oset)
        mapped = sorted(
            tuple(sorted(n - 1 - i for i in b)) for b in rbases
        )
        assert mapped == bases

    def test_two_disjoint_bases(self, two_bases):
        g = build_orthogonality_graph(two_bases)
        bases = enumerate_bases(g)
        assert bases == [(0, 1, 2), (0, 3, 4)]


class TestStabilizerRays:
    """The 60 two-qubit stabilizer states: their graph against exact.inner
    and their bases against networkx."""

    def test_rays_edges_bases(self):
        oset = stabilizer_ray_set()
        graph = build_orthogonality_graph(oset)
        assert len(oset) == 60
        assert len(graph.edges) == 450
        assert graph.edges == _inner_edges(oset)
        _assert_symmetric_rows(graph)
        bases = enumerate_bases(graph)
        assert len(bases) == 105
        assert bases == _nx_cliques(graph, 4)


class TestValidateContext:
    def test_mermin_peres_row(self, mermin_peres):
        oset, _ = mermin_peres
        ctx = validate_context(oset, [0, 1, 2])
        assert ctx == (0, 1, 2)

    def test_not_commuting(self):
        oset = ObservableSet(dim=2)
        oset.add(make_observable(PAULI["X"], label="x"))
        oset.add(make_observable(PAULI["Z"], label="z"))
        with pytest.raises(KSCertError, match="^observables x and z do not commute$"):
            validate_context(oset, [0, 1])

    def test_not_commuting_pauli_word_and_matrix(self):
        oset = ObservableSet(dim=2)
        oset.add(pauli_observable("X", label="x"))
        oset.add(make_observable(PAULI["Z"], label="z"))
        with pytest.raises(KSCertError, match="^observables x and z do not commute$"):
            validate_context(oset, [0, 1])

    def test_singleton(self, basis3):
        assert validate_context(basis3, [1]) == (1,)

    def test_duplicates_rejected(self, basis3):
        with pytest.raises(KSCertError):
            validate_context(basis3, [0, 0])

    def test_out_of_range_rejected(self, basis3):
        with pytest.raises(KSCertError, match="observable id 3 out of range"):
            validate_context(basis3, [0, len(basis3)])


def _first_anticommuting_pair(oset, ids):
    """The oracle: the first pair, in validate_context's order, whose
    matrices do not commute, or None."""
    return next(((i, j) for i, j in itertools.combinations(sorted(ids), 2)
                 if not commutes(oset[i].matrix, oset[j].matrix)), None)


def _pair_message(oset, pair):
    """validate_context's message naming pair, or None for no pair."""
    if pair is None:
        return None
    i, j = pair
    return f"observables {oset.labels[i]} and {oset.labels[j]} do not commute"


def _context_error(oset, ids):
    """validate_context's error message on ids, or None if it accepts them."""
    try:
        validate_context(oset, ids)
    except KSCertError as exc:
        return str(exc)
    return None


class TestPauliWordCommutation:
    """validate_context decides two Pauli words from their letters;
    commutes on their matrices is the oracle."""

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_every_pair_of_signed_words(self, length):
        oset = ObservableSet(dim=2 ** length)
        for sign in "+-":
            for letters in itertools.product("IXYZ", repeat=length):
                word = sign + "".join(letters)
                oset.add(pauli_observable(word, label=word))
        for pair in itertools.combinations(range(len(oset)), 2):
            assert _context_error(oset, pair) == _pair_message(
                oset, _first_anticommuting_pair(oset, pair))

    def test_names_the_same_pair(self, mermin_peres):
        """On every three words of the square, validate_context names the first
        pair that the matrices fail on."""
        oset, _ = mermin_peres
        for ids in itertools.combinations(range(len(oset)), 3):
            assert _context_error(oset, ids) == _pair_message(
                oset, _first_anticommuting_pair(oset, ids))


class TestContextProduct:
    def test_mermin_peres_rows_and_columns(self, mermin_peres):
        oset, ctxs = mermin_peres
        deltas = []
        for ctx in ctxs:
            _, delta = context_product(oset, ctx)
            deltas.append(delta)
        assert deltas == [Scalar(1)] * 5 + [Scalar(-1)]

    def test_singleton_identity(self):
        oset = ObservableSet(dim=2)
        from kscert.exact import ExactMatrix

        oset.add(make_observable(ExactMatrix.identity(2), spectrum=(1,)))
        _, delta = context_product(oset, (0,))
        assert delta == Scalar(1)

    def test_non_scalar_product(self, basis3):
        # product of two projectors of one basis is the zero matrix (0*I)
        m, delta = context_product(basis3, (0, 1))
        assert m.is_zero and delta == Scalar(0)
        # a genuinely non-scalar product
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0))
        _, delta = context_product(oset, (0,))
        assert delta is None

    def test_ray_contexts_resolve_identity(self, cabello, peres33):
        # the direct check behind enumerate_bases: every basis sums to I
        from kscert.exact import ExactMatrix

        for oset, graph, bases in (cabello, peres33):
            assert bases
            for b in bases:
                total = ExactMatrix.zero(oset.dim)
                for i in b:
                    total = total + oset[i].matrix
                assert total == ExactMatrix.identity(oset.dim)


def _word_set(words):
    """An observable set of signed words such as "-XZ", and the context of
    them all."""
    oset = ObservableSet(dim=2 ** len(words[0].lstrip("+-")))
    for word in words:
        oset.add(pauli_observable(word))
    return oset, tuple(range(len(words)))


def _letters(x, z, n):
    """The letters of X^x Z^z on n qubits, up to its phase."""
    return "".join("IXZY"[(x >> q & 1) + 2 * (z >> q & 1)] for q in reversed(range(n)))


class TestWordProduct:
    """context_delta multiplies Pauli words as bit masks; context_product's
    delta on their matrices is the oracle, and mat_mul the product's."""

    def test_letter_table(self):
        for p, q in itertools.product("IXYZ", repeat=2):
            product = word_product([pauli_masks(p), pauli_masks(q)])
            assert mask_matrix(*product) == mat_mul(pauli_matrix(p), pauli_matrix(q))

    @pytest.mark.parametrize("name", ["mermin-peres", "mermin-pentagram"])
    def test_catalog_contexts(self, monkeypatch, name):
        oset = catalog.get(name).load()
        for ctx in oset.declared_contexts:
            want = context_product(oset, ctx)[1]
            assert want in (Scalar(1), Scalar(-1))
            with monkeypatch.context() as m:
                m.setattr(compat, "context_product", None)  # the words decide alone
                assert context_delta(oset, ctx) == want

    def test_random_commuting_words(self):
        """Commuting tuples, closed by +- their product so that it is +-I, and
        left open so that it is not a scalar."""
        rng = random.Random(11)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 3)
            words = ["".join(rng.choice("IXYZ") for _ in range(n))]
            for _ in range(rng.randint(0, 3)):
                w = "".join(rng.choice("IXYZ") for _ in range(n))
                if all(sum(p != q and "I" not in (p, q) for p, q in zip(w, v)) % 2 == 0
                       for v in words):
                    words.append(w)
            signed = [rng.choice("+-") + w for w in words]
            masks = [pauli_masks(w[1:], -1 if w[0] == "-" else 1) for w in signed]
            _, k, x, z = product = word_product(masks)
            assert mask_matrix(*product) == functools.reduce(
                mat_mul, (mask_matrix(*m) for m in masks))
            # commuting Hermitian words multiply to a Hermitian word
            assert (k - (x & z).bit_count()) % 2 == 0
            closing = rng.choice("+-") + _letters(x, z, n)
            for ws in (signed, signed + [closing]):
                try:
                    oset, ctx = _word_set(ws)
                except KSCertError as ex:  # a repeated word
                    assert " duplicates " in str(ex)
                    continue
                delta = context_delta(oset, ctx)
                assert delta == context_product(oset, ctx)[1]
                seen.add(None if delta is None else str(delta))
        assert seen == {None, "1", "-1"}

    def test_anticommuting_words(self):
        # XYZ = iI is a scalar other than +-1, and XZ = -iY is no scalar
        oset, ctx = _word_set(["X", "Y", "Z"])
        assert context_delta(oset, ctx) == context_product(oset, ctx)[1] == Scalar(0, 0, 1, 0)
        oset, ctx = _word_set(["X", "Z"])
        assert context_delta(oset, ctx) is None is context_product(oset, ctx)[1]

    def test_mixed_context_is_multiplied_out(self, monkeypatch):
        oset = ObservableSet(dim=2)
        oset.add(pauli_observable("X", label="x"))
        oset.add(make_observable(PAULI["X"].scale(-1), label="m"))
        calls = []
        original = compat.context_product

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(compat, "context_product", counted)
        assert context_delta(oset, (0, 1)) == Scalar(-1)
        assert len(calls) == 1
