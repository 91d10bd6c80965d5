import itertools
from fractions import Fraction

import pytest

from kscert import (
    ObservableSet,
    build_orthogonality_graph,
    enumerate_bases,
)
from kscert import catalog
from kscert.exact import ExactMatrix, commutes, mat_mul, pauli_matrix


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
