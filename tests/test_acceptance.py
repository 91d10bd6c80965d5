"""End-to-end acceptance suite.

One test per criterion; the conftest terminal-summary hook prints one
PASS/FAIL line per criterion at the end of the run.
"""

import itertools
import random
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from kscert.assign import (
    BoundResult,
    classical_max,
    general_unsat,
    ks_colorability,
    parity_certify,
)
from kscert.cli import main
from kscert.compat import build_orthogonality_graph, enumerate_bases
from kscert.derive import (
    Inequality,
    assemble_F,
    build_complete_set_bases_only,
    build_complete_set_parity,
    build_complete_set_rays,
    decide,
    present,
)
from kscert.errors import EdgeOutsideBases
from kscert.model import ObservableSet
from kscert.poly import (
    ContextPolynomial,
    Poly,
    eval_assignment,
    eval_operator,
    normalization_constant,
    normalized_square,
    reduce,
    spectral_assignments,
)

from test_cli import MP_PARITY

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return (FIXTURES / name).read_text()


def render_labeled(p, oset, prefix=""):
    from kscert.poly import render

    return render(p, {i: prefix + l for i, l in enumerate(oset.labels)})


def parity_pipeline(oset, ctxs, exact_bound=True):
    cs = build_complete_set_parity(oset, ctxs)
    ineq = assemble_F(cs, exact_bound=exact_bound)
    return ineq, present(ineq, "dichotomic")


def brute_force_max(oset, score):
    variables = sorted(score.variables())
    spectra = oset.spectra()
    best = None
    for vals in itertools.product(*(spectra[v] for v in variables)):
        x = eval_assignment(score, dict(zip(variables, vals))).rational()
        best = x if best is None or x > best else best
    return best


def test_criterion_1_mermin_peres_square(mermin_peres):
    start = time.monotonic()
    oset, ctxs = mermin_peres
    assert parity_certify(oset, ctxs).count(-1) == 1
    assert decide(build_complete_set_parity(oset, ctxs)).is_proof
    ineq, pres = parity_pipeline(oset, ctxs)
    assert eval_operator(ineq.F, oset).is_zero
    assert pres.classical_bound == 4 and pres.bound_kind == "exact"
    assert pres.quantum_value == 6
    exact = classical_max(oset, pres.score)
    assert exact.value == 4
    assert brute_force_max(oset, pres.score) == 4  # all 512 assignments
    assert time.monotonic() - start < 1.0


def test_criterion_2_mermin_pentagram(pentagram):
    start = time.monotonic()
    oset, ctxs = pentagram
    assert decide(build_complete_set_parity(oset, ctxs)).is_proof
    ineq, pres = parity_pipeline(oset, ctxs)
    assert eval_operator(ineq.F, oset).is_zero
    assert pres.classical_bound == 3 and pres.bound_kind == "exact"
    assert pres.quantum_value == 5
    assert brute_force_max(oset, pres.score) == 3  # all 1024 assignments
    assert time.monotonic() - start < 1.0


def test_criterion_3_cabello_18(cabello):
    oset, graph, bases = cabello
    start = time.monotonic()
    cert = ks_colorability(oset, graph, bases)
    assert cert.is_proof
    assert time.monotonic() - start < 5.0
    assert len(bases) == 9
    # the edge-coverage precondition for the bases-only route fails here,
    # so the full edge+basis pipeline applies
    with pytest.raises(EdgeOutsideBases):
        build_complete_set_bases_only(oset, graph, bases)
    ineq = assemble_F(build_complete_set_rays(oset, graph, bases))
    assert eval_operator(ineq.F, oset).is_zero
    assert ineq.classical.kind == "certified" and ineq.classical.value == -1
    pres = present(ineq, "projector")
    assert pres.classical_bound == 8 and pres.quantum_value == 9


def test_criterion_4_peres_33(peres33):
    start = time.monotonic()
    oset, graph, bases = peres33
    cert = ks_colorability(oset, graph, bases)
    assert cert.is_proof
    assert cert.stats.propagations > 0
    ineq = assemble_F(build_complete_set_rays(oset, graph, bases))
    assert eval_operator(ineq.F, oset).is_zero
    assert ineq.classical.kind == "certified" and ineq.classical.value == -1
    assert time.monotonic() - start < 60.0


def _two_bases_inequality(two_bases):
    g = build_orthogonality_graph(two_bases)
    bases = enumerate_bases(g)
    cs = build_complete_set_bases_only(two_bases, g, bases)
    F = Poly()
    for cp in cs.polynomials:
        c = normalization_constant(cp, two_bases)
        F = F - normalized_square(
            ContextPolynomial(cp.poly, c), two_bases
        ).poly
    F = reduce(F, two_bases.spectra())
    return Inequality(
        complete_set=cs,
        F=F,
        classical=BoundResult(kind="certified", value=Fraction(-1)),
    )


def _presented_block(pres, oset, prefix=""):
    return (
        "score :: " + render_labeled(pres.score, oset, prefix) + "\n"
        + f"classical_bound {pres.classical_bound}\n"
        + f"bound_kind {pres.bound_kind}\n"
        + f"quantum_value {pres.quantum_value}\n"
    )


def test_criterion_5_symbolic_fidelity(cabello, mermin_peres, pentagram, two_bases):
    # edge+basis witness polynomial, term for term
    oset, graph, bases = cabello
    ineq_ray = assemble_F(build_complete_set_rays(oset, graph, bases))
    assert render_labeled(ineq_ray.F, oset) + "\n" == fixture("ray_cabello18_F.txt")
    assert _presented_block(present(ineq_ray, "projector"), oset) == fixture(
        "projector_cabello18.txt"
    )

    # bases-only witness polynomial and both of its presentations
    ineq_bases = _two_bases_inequality(two_bases)
    assert eval_operator(ineq_bases.F, two_bases).is_zero
    assert render_labeled(ineq_bases.F, two_bases) + "\n" == fixture("bases_only_twobases_F.txt")
    assert _presented_block(present(ineq_bases, "projector"), two_bases) == fixture(
        "projector_twobases.txt"
    )
    pres_dich = present(ineq_bases, "dichotomic")
    assert _presented_block(pres_dich, two_bases, prefix="d") == fixture(
        "dichotomic_twobases.txt"
    )

    # parity witness polynomial and its presentation
    for fx, (po, pctxs) in [("mermin_peres", mermin_peres), ("pentagram", pentagram)]:
        ineq_par, pres_par = parity_pipeline(po, pctxs)
        assert render_labeled(ineq_par.F, po) + "\n" == fixture(f"parity_{fx}_F.txt")
        assert _presented_block(pres_par, po) == fixture(f"parity_score_{fx}.txt")


def _random_ray_set(rng, max_rays=6):
    oset = ObservableSet(dim=3)
    for _ in range(rng.randint(3, max_rays)):
        v = tuple(rng.randint(-1, 1) for _ in range(3))
        if not any(v):
            continue
        try:
            oset.add_ray(v)
        except Exception:
            pass
    return oset


def test_criterion_6_property_suite(mermin_peres, pentagram, cabello, peres33, two_bases):
    rng = random.Random(20260823)

    # reduce preserves evaluation at every spectral assignment (120 inputs)
    proj = ObservableSet(dim=3)
    for k in range(3):
        proj.add_ray(tuple(1 if j == k else 0 for j in range(3)))
    spectra = proj.spectra()
    for _ in range(120):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = tuple(
                sorted(
                    {
                        rng.randint(0, 2): rng.randint(1, 3)
                        for _ in range(rng.randint(0, 3))
                    }.items()
                )
            )
            from kscert.exact import Scalar

            terms[mono] = terms.get(mono, Scalar(0)) + Scalar(rng.randint(-4, 4))
        p = Poly(terms)
        q = reduce(p, spectra)
        for v in spectral_assignments(proj, range(3)):
            assert eval_assignment(p, v) == eval_assignment(q, v)

    # normalized squares: >= 1 off the zero set, and = 1 somewhere
    oset, ctxs = mermin_peres
    for ctx, cp in zip(ctxs, build_complete_set_parity(oset, ctxs).polynomials):
        sq = normalized_square(cp, oset)
        values = []
        for v in spectral_assignments(oset, ctx):
            if eval_assignment(cp.poly, v).is_zero:
                assert eval_assignment(sq.poly, v).is_zero
            else:
                values.append(eval_assignment(sq.poly, v).rational())
        assert values and min(values) == 1

    # random ray sets: witnesses re-verify, classical_max(F) = 0 iff SAT,
    # and the two search engines agree (40 inputs)
    for _ in range(40):
        rset = _random_ray_set(rng)
        if len(rset) < 3:
            continue
        g = build_orthogonality_graph(rset)
        bases = enumerate_bases(g)
        coloring = ks_colorability(rset, g, bases)
        cs = build_complete_set_rays(rset, g, bases)
        csp = general_unsat(rset, cs.polynomials)
        assert coloring.is_proof == csp.is_proof
        F = Poly()
        for cp in cs.polynomials:
            c = normalization_constant(cp, rset)
            F = F - normalized_square(
                ContextPolynomial(cp.poly, c), rset
            ).poly
        F = reduce(F, rset.spectra())
        fmax = classical_max(rset, F) if F.variables() else None
        if csp.is_proof:
            assert fmax is None or fmax.value <= -1
        else:
            for cp in cs.polynomials:
                assert eval_assignment(cp.poly, csp.witness).is_zero
            if fmax is not None:
                assert fmax.value == 0
        if not coloring.is_proof:
            w = coloring.witness
            assert all(not (w[i] == 1 and w[j] == 1) for i, j in g.edges)
            assert all(sum(w[i] for i in b) == 1 for b in bases)

    # cross-method verdict agreement on every catalog entry; the parity
    # count (deltas multiplying to -1, every observable in an even number
    # of contexts) is sufficient for a proof, so the search must agree
    for po, pctxs in (mermin_peres, pentagram):
        assert prod(parity_certify(po, pctxs)) == -1
        assert all(sum(i in c for c in pctxs) % 2 == 0 for i in range(len(po)))
        assert decide(build_complete_set_parity(po, pctxs)).is_proof
    for entry in (cabello, peres33):
        eo, eg, eb = entry
        cs = build_complete_set_rays(eo, eg, eb)
        assert ks_colorability(eo, eg, eb).is_proof == general_unsat(eo, cs.polynomials).is_proof


def test_criterion_7_negative_controls(tmp_path, capsys, mermin_peres):
    path = tmp_path / "basis.txt"
    path.write_text(
        "dim 3\nray e1 1 0 0\nray e2 0 1 0\nray e3 0 0 1\n"
    )
    code = main(["verify", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict: NotKSProof" in out
    assert "witness: e1=" in out

    # a parity set that is not a KS proof is decided by the elimination,
    # and its witness zeroes every member
    oset, ctxs = mermin_peres
    cs = build_complete_set_parity(oset, ctxs[:-1])
    cert = decide(cs)
    assert not cert.is_proof
    assert all(eval_assignment(cp.poly, cert.witness).is_zero for cp in cs.polynomials)
    path.write_text(MP_PARITY.replace("context c f k\n", ""))
    code = main(["verify", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "method: ParityElimination (5 polynomials)" in out
    assert "witness: a=" in out
