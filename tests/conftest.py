import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest

from kscert import catalog
from kscert.compat import build_orthogonality_graph, enumerate_bases
from kscert.exact import ExactMatrix, commutes, mat_mul
from kscert.model import ObservableSet

from oracles import pauli_matrix


@pytest.fixture(scope="session")
def mermin_peres():
    oset = catalog.get("mermin-peres").load()
    return oset, list(oset.declared_contexts)


@pytest.fixture(scope="session")
def pentagram():
    oset = catalog.get("mermin-pentagram").load()
    return oset, list(oset.declared_contexts)


@pytest.fixture(scope="session")
def cabello():
    oset = catalog.get("cabello-18").load()
    graph = build_orthogonality_graph(oset)
    bases = enumerate_bases(graph)
    return oset, graph, bases


@pytest.fixture(scope="session")
def peres33():
    oset = catalog.get("peres-33").load()
    graph = build_orthogonality_graph(oset)
    bases = enumerate_bases(graph)
    return oset, graph, bases


def single_basis_set(dim=3):
    oset = ObservableSet(dim=dim)
    for k in range(dim):
        v = [0] * dim
        v[k] = 1
        oset.add_ray(v, label=f"e{k + 1}")
    return oset


def two_bases_set():
    """Two d=3 bases sharing one ray; every orthogonality edge lies in a basis."""
    oset = ObservableSet(dim=3)
    oset.add_ray((1, 0, 0), label="e1")
    oset.add_ray((0, 1, 0), label="e2")
    oset.add_ray((0, 0, 1), label="e3")
    oset.add_ray((0, 1, 1), label="f1")
    oset.add_ray((0, 1, -1), label="f2")
    return oset


def eigenray_set(name, prefix="r"):
    """The rays of the joint eigenbases of a parity entry's contexts: per
    context and sign pattern s, the first nonzero column of
    prod_k (I + s_k A_k)/2 over all members but the last, labelled prefix1,
    prefix2, ...  Peres' 24 rays from mermin-peres, Kernaghan and Peres' 40
    from mermin-pentagram."""
    source = catalog.get(name).load()
    return _eigenray_set(source.dim, [[source[i].matrix for i in ids]
                                      for ids in source.declared_contexts], prefix)


def stabilizer_ray_set(prefix="s"):
    """The 60 two-qubit stabilizer states, as eigenray_set builds its rays:
    the contexts are the 15 maximal commuting sets of two-qubit Pauli
    words, each three pairwise commuting words taken in lexicographic order
    of the letters IXYZ."""
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=2)][1:]
    contexts = [ctx for ctx in itertools.combinations(words, 3)
                if all(commutes(pauli_matrix(a), pauli_matrix(b))
                       for a, b in itertools.combinations(ctx, 2))]
    assert len(contexts) == 15
    return _eigenray_set(4, [[pauli_matrix(w) for w in ctx] for ctx in contexts], prefix)


def _eigenray_set(n, contexts, prefix):
    """eigenray_set's rays from each context's n x n matrices."""
    one = ExactMatrix.identity(n)
    oset = ObservableSet(dim=n)
    for members in contexts:
        gens = members[:-1]
        for signs in itertools.product((1, -1), repeat=len(gens)):
            proj = one
            for g, sign in zip(gens, signs):
                proj = mat_mul(proj, (one + g.scale(sign)).scale(Fraction(1, 2)))
            oset.add_ray(next(c for c in zip(*proj.entries) if any(not x.is_zero for x in c)),
                         label=f"{prefix}{len(oset) + 1}")
    return oset


@functools.lru_cache(maxsize=None)
def pauli_contexts(n, kind):
    """The 4^n - 1 non-identity n-qubit Pauli words, and the contexts of
    kind "lines" (the triples {a, b, ab} of pairwise commuting words) or
    "maximal" (the maximal sets of pairwise commuting words), each a sorted
    tuple of words.  A word is the int x << n | z for X^x Z^z, the product
    of two words is their XOR up to a phase, and a and b commute exactly
    when popcount(x_a & z_b ^ z_a & x_b) is even.  A maximal set is an
    n-dimensional subspace less its 0, grown one word at a time from
    {0}, each time by a word above the largest that commutes with all."""
    words = tuple(range(1, 4 ** n))
    commuting = [sum(1 << b for b in words if not ((a >> n & b ^ a & b >> n).bit_count() & 1))
                 for a in range(4 ** n)]  # bit b of commuting[a]: a and b commute
    if kind == "lines":
        return words, tuple((a, b, a ^ b) for a in words for b in words
                            if a < b < a ^ b and commuting[a] >> b & 1)
    level = {(0,)}  # subspaces of pairwise commuting words, 0 included
    for _ in range(n):
        grown = set()
        for space in level:
            common = functools.reduce(operator.and_, (commuting[g] for g in space))
            common = common >> (space[-1] + 1) << (space[-1] + 1)
            while common:
                w = common.bit_length() - 1
                common ^= 1 << w
                grown.add(tuple(sorted(space + tuple(g ^ w for g in space))))
        level = grown
    return words, tuple(sorted(space[1:] for space in level))


def pauli_word(word, n):
    """The letters of the word x << n | z, qubit 1 first."""
    return "".join("IZXY"[(word >> (2 * n - 1 - q) & 1) << 1 | word >> (n - 1 - q) & 1]
                   for q in range(n))


def pauli_parity_text(n, kind, seed=None):
    """A parity proof file of pauli_contexts(n, kind): every word is an
    observable labelled by its letters, with sign + or, given a seed, a
    random sign each."""
    words, contexts = pauli_contexts(n, kind)
    rng = random.Random(seed)
    lines = [f"dim {2 ** n}", "mode parity"]
    for w in words:
        sign = "+" if seed is None else rng.choice("+-")
        lines.append(f"pauli {pauli_word(w, n)} {sign}{pauli_word(w, n)}")
    lines += ["context " + " ".join(pauli_word(w, n) for w in ctx) for ctx in contexts]
    return "\n".join(lines) + "\n"


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "criterion" in nodeid:
                name = nodeid.split("::")[-1]
                lines[name] = "PASS" if outcome == "passed" else "FAIL"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines, key=lambda n: n.split("_")[2]):
            terminalreporter.write_line(f"{lines[name]}  {name}")


@pytest.fixture
def basis3():
    return single_basis_set(3)


@pytest.fixture
def two_bases():
    return two_bases_set()
