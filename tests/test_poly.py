"""Polynomial algebra: reduction, evaluation, normalization."""

import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kscert.errors import KSCertError
from kscert.exact import ExactMatrix, Scalar
from kscert.model import ObservableSet, make_observable
from kscert.poly import (
    MAX_POWER_BITS,
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

from conftest import single_basis_set


def basis_poly(ids):
    p = Poly.const(-1)
    for i in ids:
        p = p + Poly.var(i)
    return p


class TestArithmetic:
    def test_add_cancel(self, basis3):
        p1 = make_context_polynomial(Poly.var(0) + Poly.var(1), basis3)
        p2 = make_context_polynomial(-Poly.var(1), basis3)
        assert make_context_polynomial(p1.poly + p2.poly, basis3).poly == Poly.var(0)

    def test_minimal_poly_kills_product(self, mermin_peres):
        oset, _ = mermin_peres
        a = Poly.var(0)
        prod = (a - Poly.const(1)) * (a + Poly.const(1))
        assert make_context_polynomial(prod, oset).poly.is_zero

    def test_conjugate_coefficients(self, basis3):
        p = make_context_polynomial(Poly.var(0) * Scalar(0, 0, 1, 0), basis3)
        assert p.poly.conjugate() == Poly.var(0) * Scalar(0, 0, -1, 0)


class TestContextPolynomial:
    @pytest.mark.parametrize("c", [0, -1])
    def test_nonpositive_c_rejected(self, c):
        with pytest.raises(ValueError, match="normalization constant must be positive"):
            ContextPolynomial(Poly.var(0), c=c)


class TestReduce:
    def test_projector_square(self, basis3):
        spectra = basis3.spectra()
        assert reduce(Poly.var(0) * Poly.var(0), spectra) == Poly.var(0)

    def test_dichotomic_cube(self, mermin_peres):
        oset, _ = mermin_peres
        p = Poly.var(0) * Poly.var(0) * Poly.var(0)
        assert reduce(p, oset.spectra()) == Poly.var(0)

    def test_basis_square_expansion(self, basis3):
        # (sum P - 1)^2 -> 2*sum_{i<j} P_i P_j - sum P + 1
        spectra = basis3.spectra()
        p = basis_poly((0, 1, 2))
        got = reduce(p * p, spectra)
        expect = Poly.const(1)
        for i in range(3):
            expect = expect - Poly.var(i)
        for i in range(3):
            for j in range(i + 1, 3):
                expect = expect + Poly.var(i) * Poly.var(j) * Scalar(2)
        assert got == expect

    def test_idempotent(self, basis3):
        spectra = basis3.spectra()
        p = (Poly.var(0) + Poly.var(1)) * (Poly.var(0) + Poly.var(1))
        once = reduce(p, spectra)
        assert reduce(once, spectra) == once

    def test_general_spectrum(self):
        # spectrum {0,1,2}: x^3 = 3x^2 - 2x
        spectra = {0: (Fraction(0), Fraction(1), Fraction(2))}
        got = reduce(Poly({((0, 3),): Scalar(1)}), spectra)
        assert got == Poly({((0, 2),): Scalar(3), ((0, 1),): Scalar(-2)})


    def test_large_exponent(self):
        # x^e is replaced by the interpolant of a -> a^e over the spectrum
        spec = (Fraction(-1), Fraction(0), Fraction(2))
        got = reduce(Poly({((0, 10**6),): Scalar(1)}), {0: spec})
        assert got.max_degree() < 3
        for a in spec:
            assert eval_assignment(got, {0: a}) == Scalar(a ** 10**6)

    def test_power_limit(self):
        # powers of 0 and +-1 are free; any other a^e beyond the limit is
        # refused before it is computed
        x = Poly({((0, 10**12),): Scalar(1)})
        got = reduce(x, {0: (Fraction(-1), Fraction(0), Fraction(1))})
        assert got == Poly({((0, 2),): Scalar(1)})
        with pytest.raises(KSCertError, match=f"over the limit {MAX_POWER_BITS}"):
            reduce(x, {0: (Fraction(0), Fraction(1), Fraction(1, 2))})

    @pytest.mark.parametrize("spec", [(0, 1), (-1, 1), (0, 1, 2), (-1, 0, Fraction(1, 2))])
    def test_matches_stepwise_reduction(self, spec):
        # the oracle lowers x^e one step at a time with x^d = sum q_k x^k
        spec = tuple(Fraction(a) for a in spec)
        d = len(spec)
        minimal = Poly.const(1)
        for a in spec:
            minimal = minimal * (Poly.var(0) - Poly.const(a))
        rule = {k: -minimal.terms.get(((0, k),) if k else (), Scalar(0)) for k in range(d)}
        for e in range(1, 13):
            expect = {e: Scalar(1)}
            while max(expect) >= d:
                top = max(expect)
                coef = expect.pop(top)
                for k, q in rule.items():
                    expect[top - d + k] = expect.get(top - d + k, Scalar(0)) + coef * q
            want = Poly({(((0, k),) if k else ()): c for k, c in expect.items()})
            assert reduce(Poly({((0, e),): Scalar(1)}), {0: spec}) == want


small_coef = st.integers(-4, 4)


def random_poly_strategy(n_vars, max_exp):
    mono = st.lists(
        st.tuples(st.integers(0, n_vars - 1), st.integers(1, max_exp)),
        min_size=0,
        max_size=3,
    )
    term = st.tuples(mono, small_coef)
    return st.lists(term, min_size=1, max_size=5).map(
        lambda ts: sum(
            (
                Poly({tuple(sorted({i: e for i, e in m}.items())): Scalar(c)})
                for m, c in ts
            ),
            Poly(),
        )
    )


class TestReducePreservation:
    @given(random_poly_strategy(3, 4))
    @settings(max_examples=120, deadline=None)
    def test_preserves_spectral_evaluation(self, p):
        oset = single_basis_set(3)
        spectra = oset.spectra()
        q = reduce(p, spectra)
        for v in spectral_assignments(oset, range(3)):
            assert eval_assignment(p, v) == eval_assignment(q, v)

    @given(random_poly_strategy(3, 5))
    @example(Poly({((0, 5), (1, 5), (2, 5)): Scalar(1)}))
    @settings(max_examples=120, deadline=None)
    def test_preserves_mixed_spectra(self, p):
        """Variables 0 and 1 share each remainder of x^e; variable 2, over a
        three-point spectrum, must not take theirs."""
        spectra = {0: (Fraction(0), Fraction(1)), 1: (Fraction(0), Fraction(1)),
                   2: (Fraction(-1), Fraction(0), Fraction(1, 2))}
        q = reduce(p, spectra)
        assert all(e < len(spectra[i]) for mono in q.terms for i, e in mono)
        for values in product(*spectra.values()):
            v = dict(enumerate(values))
            assert eval_assignment(p, v) == eval_assignment(q, v)

    @given(random_poly_strategy(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_preserves_operator_evaluation(self, p):
        oset = single_basis_set(3)
        q = reduce(p, oset.spectra())
        assert eval_operator(p, oset) == eval_operator(q, oset)


class TestEvalOperator:
    def test_completeness_relation(self, basis3):
        p = basis_poly((0, 1, 2))
        assert eval_operator(p, basis3).is_zero

    def test_pauli_triple_product(self, mermin_peres):
        oset, _ = mermin_peres
        xx, zz, yy = oset.by_label("XX"), oset.by_label("ZZ"), oset.by_label("YY")
        p = Poly.var(xx) * Poly.var(zz) * Poly.var(yy) + Poly.const(1)
        got = eval_operator(p, oset)
        # independent oracle: entrywise complex product of the 4x4 matrices
        import math

        def toc(m):
            return [
                [
                    complex(float(x.a) + math.sqrt(2) * float(x.b),
                            float(x.c) + math.sqrt(2) * float(x.d))
                    for x in row
                ]
                for row in m.entries
            ]

        a, b, c = (toc(oset[i].matrix) for i in (xx, zz, yy))
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        prod = [
            [sum(prod[i][k] * c[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        for i in range(4):
            for j in range(4):
                expect = prod[i][j] + (1 if i == j else 0)
                assert abs(expect) < 1e-12
        assert got.is_zero

    def test_nonorthogonal_pair_nonzero(self):
        from kscert.model import ObservableSet

        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0))
        oset.add_ray((1, 1, 0))
        p = Poly.var(0) * Poly.var(1)
        assert not eval_operator(p, oset).is_zero

    def test_unknown_variable(self, basis3):
        # without the range check, id -1 would read the last observable
        for i in (-1, len(basis3)):
            with pytest.raises(KSCertError, match=f"^variable {i} not in observable set$"):
                eval_operator(Poly.var(0) * Poly.var(i) + Poly.const(1), basis3)


class TestEvalAssignment:
    def test_basis_sum(self, basis3):
        p = basis_poly((0, 1, 2))
        one = {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)}
        assert eval_assignment(p, one) == Scalar(0)
        zero = {i: Fraction(0) for i in range(3)}
        assert eval_assignment(p, zero) == Scalar(-1)

    def test_parity_gap(self, mermin_peres):
        oset, ctxs = mermin_peres
        ids = ctxs[5]
        p = Poly.const(1)
        for i in ids:
            p = p * Poly.var(i)
        p = p - Poly.const(-1)  # delta = -1 context
        v = {i: Fraction(1) for i in ids}
        assert eval_assignment(p, v) == Scalar(2)

    def test_unassigned(self, basis3):
        with pytest.raises(KSCertError, match="^variable 0 is unassigned$"):
            eval_assignment(Poly.var(0), {})


class TestNormalization:
    def test_edge_polynomial(self, basis3):
        cp = make_context_polynomial(Poly.var(0) * Poly.var(1), basis3)
        assert normalization_constant(cp, basis3) == 1

    def test_basis_polynomial(self, basis3):
        cp = make_context_polynomial(basis_poly((0, 1, 2)), basis3)
        assert normalization_constant(cp, basis3) == 1

    def test_parity_polynomial(self, mermin_peres):
        oset, ctxs = mermin_peres
        ids = ctxs[0]
        p = Poly.const(-1)
        for i in ids:
            p = p * Poly.var(i) if i != ids[0] else Poly.var(i)
        p = Poly.var(ids[0]) * Poly.var(ids[1]) * Poly.var(ids[2]) - Poly.const(1)
        cp = make_context_polynomial(p, oset)
        assert normalization_constant(cp, oset) == 4

    def test_identically_zero(self, basis3):
        cp = make_context_polynomial(Poly.var(0) * (Poly.var(0) - Poly.const(1)), basis3)
        with pytest.raises(KSCertError,
                           match="^polynomial vanishes at every spectral assignment$"):
            normalization_constant(cp, basis3)

    @given(st.lists(st.tuples(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2)), max_size=3),
                              st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 4)),
                    min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, terms):
        """normalization_constant in ints against the Fraction evaluator, on
        coefficients in Q(i, sqrt2) and fractional spectra: the same c, or
        the same error."""
        oset = ObservableSet(dim=2)
        for diag in [(Fraction(1, 2), 2), (Fraction(-1, 3), 1), (0, Fraction(3, 2))]:
            oset.add(make_observable(ExactMatrix([[diag[0], 0], [0, diag[1]]]), spectrum=set(diag)))
        p = sum((Poly({tuple(sorted(dict(m).items())): Scalar(*c)}) for m, c in terms), Poly())
        cp = make_context_polynomial(p, oset)
        try:
            expected = normalization_constant_oracle(cp, oset)
        except KSCertError as ex:
            with pytest.raises(KSCertError, match=f"^{re.escape(str(ex))}$"):
                normalization_constant(cp, oset)
        else:
            assert normalization_constant(cp, oset) == expected


def normalization_constant_oracle(cp, oset):
    """The minimum nonzero |r(a)|^2 through eval_assignment in Fractions, in
    normalization_constant's assignment order and with its errors."""
    best = None
    for v in spectral_assignments(oset, sorted(cp.poly.variables())):
        val = eval_assignment(cp.poly, v)
        if val.is_zero:
            continue
        sq = val.norm_squared()
        if not sq.is_rational:
            raise KSCertError("squared modulus is irrational; cannot normalize")
        best = sq.rational() if best is None else min(best, sq.rational())
    if best is None:
        raise KSCertError("polynomial vanishes at every spectral assignment")
    return best


class TestNormalizedSquare:
    def test_parity_shape(self, mermin_peres):
        oset, ctxs = mermin_peres
        ids = ctxs[5]  # delta = -1 context
        p = Poly.var(ids[0]) * Poly.var(ids[1]) * Poly.var(ids[2]) - Poly.const(-1)
        cp = make_context_polynomial(p, oset, c=Fraction(4))
        got = normalized_square(cp, oset)
        h = Scalar(Fraction(1, 2))
        expect = Poly.const(h) + Poly.var(ids[0]) * Poly.var(ids[1]) * Poly.var(ids[2]) * h
        assert got.poly == expect

    def test_edge_fixed_point(self, basis3):
        cp = make_context_polynomial(Poly.var(0) * Poly.var(1), basis3)
        assert normalized_square(cp, basis3).poly == cp.poly

    def test_basis_shape(self, basis3):
        cp = make_context_polynomial(basis_poly((0, 1, 2)), basis3)
        got = normalized_square(cp, basis3).poly
        expect = Poly.const(1)
        for i in range(3):
            expect = expect - Poly.var(i)
        for i in range(3):
            for j in range(i + 1, 3):
                expect = expect + Poly.var(i) * Poly.var(j) * Scalar(2)
        assert got == expect

    def test_zero_or_at_least_one(self, mermin_peres):
        oset, ctxs = mermin_peres
        for ctx, delta in zip(ctxs, [1, 1, 1, 1, 1, -1]):
            p = Poly.const(1)
            for i in ctx:
                p = p * Poly.var(i)
            p = p - Poly.const(delta)
            cp = make_context_polynomial(p, oset, c=Fraction(4))
            sq = normalized_square(cp, oset)
            for v in spectral_assignments(oset, ctx):
                base = eval_assignment(cp.poly, v)
                val = eval_assignment(sq.poly, v)
                assert val.is_rational
                if base.is_zero:
                    assert val == Scalar(0)
                else:
                    assert val.rational() >= 1

    def test_conjugation_operator_adjoint(self, mermin_peres):
        oset, ctxs = mermin_peres
        ctx = ctxs[0]
        p = Poly.var(ctx[0]) * Scalar(0, 0, 1, 0) + Poly.var(ctx[1])
        assert eval_operator(p.conjugate(), oset) == eval_operator(p, oset).dagger()


class TestRender:
    def test_canonical_order_and_signs(self, basis3):
        p = Poly.var(2) * Poly.var(0) * Scalar(-2) + Poly.var(1) + Poly.const(3)
        assert render(p) == "3 + A1 - 2*A0*A2"

    def test_labels_and_exponents(self):
        p = Poly({((0, 2),): Scalar(1)}) + Poly.const(Scalar(0, 0, 1, 0))
        assert render(p, {0: "Q"}) == "i + Q^2"

    def test_zero(self):
        assert render(Poly()) == "0"


def render_oracle(p, labels=None):
    """render as it was before its rational fast path and its memos: every
    coefficient printed through Scalar.__str__, term by term, in graded
    order."""
    if p.is_zero:
        return "0"
    parts = []
    for mono in sorted(p.terms, key=lambda m: (sum(e for _, e in m), m)):
        s = str(p.terms[mono])
        cs = f"({s})" if ("+" in s[1:]) or ("-" in s[1:]) else s
        body = "*".join((labels[i] if labels else f"A{i}") + ("" if e == 1 else f"^{e}")
                        for i, e in mono)
        if body:
            term = body if cs == "1" else f"-{body}" if cs == "-1" else f"{cs}*{body}"
        else:
            term = cs
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f" - {term[1:]}")
        else:
            parts.append(f" + {term}")
    return "".join(parts)


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_parts = st.one_of(st.just(Fraction(0)), _fractions)
# rational coefficients, and any mix of sqrt2, i and sqrt2*i parts
_coefficients = st.one_of(
    st.builds(Scalar, _fractions),
    st.builds(Scalar, _parts, _parts, _parts, _parts),
)
_monomials = st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=3).map(
    lambda m: tuple(sorted(m.items())))


class TestRenderOracle:
    @given(st.dictionaries(_monomials, _coefficients, max_size=8).map(Poly), st.booleans())
    @example(Poly({(): Scalar(Fraction(-3, 2)), ((0, 2), (3, 1)): Scalar(-1),
                   ((1, 3),): Scalar(Fraction(5, 4), 1), ((2, 1),): Scalar(0, 0, -1)}), True)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_str_renderer(self, p, labelled):
        labels = {i: f"x{i}" for i in range(5)} if labelled else None
        assert render(p, labels) == render_oracle(p, labels)

    @given(st.lists(_coefficients.filter(lambda c: not c.is_zero), min_size=1, max_size=3),
           st.dictionaries(_monomials, st.integers(0, 2), max_size=12), st.booleans())
    @example([Scalar(Fraction(-1, 2)), Scalar(1)],
             {(): 0, ((0, 2),): 0, ((1, 3), (4, 2)): 1, ((2, 2), (3, 3)): 0, ((0, 1), (2, 2)): 1},
             False)
    @settings(max_examples=200, deadline=None)
    def test_shared_coefficient_objects(self, coefs, picks, labelled):
        """Many terms holding one Scalar object, as derive's _int_poly
        builds them through Poly._make: render, which formats each object
        once, prints every term as the oracle does."""
        p = Poly._make({m: coefs[k % len(coefs)] for m, k in picks.items()})
        labels = {i: f"x{i}" for i in range(5)} if labelled else None
        assert render(p, labels) == render_oracle(p, labels)
