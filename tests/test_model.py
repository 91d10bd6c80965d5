"""Observables, rays, spectra, duplicate detection."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscert.errors import KSCertError
from kscert import catalog, exact, model
from kscert.exact import ExactMatrix, Scalar, mat_mul, primitive_integral, projector_from_vector
from kscert.model import (
    ObservableSet,
    _annihilates,
    dichotomize,
    make_observable,
    make_ray,
    pauli_observable,
    ray_observable,
)
from kscert.catalog import CABELLO_18_VECTORS
from kscert.prooffile import parse_scalar

from oracles import PAULI, kron, pauli_matrix


class TestMakeObservable:
    def test_zz_spectrum(self):
        zz = kron(PAULI["Z"], PAULI["Z"])
        obs = make_observable(zz, spectrum=(-1, 1))
        assert obs.spectrum == (Fraction(-1), Fraction(1))

    def test_identity_minimal_degree(self):
        obs = make_observable(ExactMatrix.identity(3), spectrum=(1,))
        assert obs.spectrum == (Fraction(1),)
        # declaring a larger spectrum still shrinks to the minimal one
        obs2 = make_observable(ExactMatrix.identity(3), spectrum=(-1, 1))
        assert obs2.spectrum == (Fraction(1),)

    def test_annihilation_failure(self):
        with pytest.raises(KSCertError, match=r"^declared spectrum \['0', '1'\] "
                                              r"does not annihilate observable \?$"):
            make_observable(PAULI["X"], spectrum=(0, 1))

    def test_non_hermitian(self):
        i = Scalar(0, 0, 1, 0)
        # [[0, i], [i, 0]] is symmetric, not Hermitian
        for rows in ([[0, 1], [2, 0]], [[0, i], [i, 0]]):
            with pytest.raises(KSCertError, match=r"^observable \? is not Hermitian$"):
                make_observable(ExactMatrix(rows))
        assert make_observable(ExactMatrix([[0, i], [-i, 0]])).spectrum == (-1, 1)

    def test_autodetect_involutory(self):
        obs = make_observable(PAULI["X"])
        assert obs.spectrum == (Fraction(-1), Fraction(1))

    def test_autodetect_idempotent(self):
        p = make_ray((1, 1, 0)).projector
        obs = make_observable(p)
        assert obs.spectrum == (Fraction(0), Fraction(1))

    def test_autodetect_rejects_general(self):
        with pytest.raises(KSCertError, match="^spectrum omitted and matrix is neither "
                                              "idempotent nor involutory$"):
            make_observable(PAULI["Z"].scale(2))

    def test_distinct_spectrum_required(self):
        with pytest.raises(KSCertError, match="^spectrum values must be pairwise distinct$"):
            make_observable(PAULI["X"], spectrum=(1, 1, -1))

    @pytest.mark.parametrize("matrix,spectrum,products", [
        pytest.param(pauli_matrix("XYZ"), (-1, 0, 1), 5, id="XYZ-declared"),
        pytest.param(pauli_matrix("XYZ"), None, 1, id="XYZ-undeclared"),
        pytest.param(ExactMatrix([[1, 0], [0, 0]]), (0, 1), 1, id="diag-1-0"),
    ])
    def test_no_product_by_identity(self, monkeypatch, matrix, spectrum, products):
        """A product starts from its first factor, and m^2 = m or m^2 = I
        is the annihilation check of an undeclared spectrum."""
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return mat_mul(a, b)

        monkeypatch.setattr(model, "mat_mul", counted)
        make_observable(matrix, spectrum)
        assert len(calls) == products
        assert not any(ExactMatrix.identity(matrix.dim) in pair for pair in calls)

    def test_each_factor_built_once(self, monkeypatch):
        """A - aI is built once per value, however many of the products
        over the declared values take it."""
        built = []

        def counted(a, b, original=ExactMatrix.__sub__):
            built.append(b)
            return original(a, b)

        monkeypatch.setattr(ExactMatrix, "__sub__", counted)
        obs = make_observable(pauli_matrix("XYZ"), spectrum=(-2, -1, 0, 1, 2))
        assert obs.spectrum == (Fraction(-1), Fraction(1))
        assert len(built) == 5


HADAMARD = ExactMatrix([[1, 1], [1, -1]]).scale(Scalar(0, Fraction(1, 2)))  # entries +-1/sqrt2
SMALL_FRACTIONS = st.fractions(-3, 3, max_denominator=4)


@st.composite
def diagonalized(draw, values=SMALL_FRACTIONS):
    """(A, D's entries) for A = U D U^dagger in d = 2 or 4, D diagonal with
    entries drawn from values, and U a permutation or a sqrt2 Hadamard (H,
    H x H or H x I)."""
    d = draw(st.sampled_from([2, 4]))
    diag = draw(st.lists(values, min_size=d, max_size=d))
    D = ExactMatrix([[diag[i] if i == j else 0 for j in range(d)] for i in range(d)])
    if draw(st.booleans()):
        perm = draw(st.permutations(range(d)))
        U = ExactMatrix([[int(perm[i] == j) for j in range(d)] for i in range(d)])
    elif d == 2:
        U = HADAMARD
    else:
        U = kron(HADAMARD, draw(st.sampled_from([HADAMARD, ExactMatrix.identity(2)])))
    return mat_mul(mat_mul(U, D), U.dagger()), diag


class TestSpectrumRule:
    """make_observable keeps a declared value exactly when it is an
    eigenvalue: the product over the other values then no longer
    annihilates the matrix."""

    @given(diagonalized(), st.lists(SMALL_FRACTIONS, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_declared_values_reduce_to_eigenvalues(self, case, extra):
        matrix, diag = case
        spec = make_observable(matrix, list(set(diag) | set(extra))).spectrum
        assert spec == tuple(sorted(set(diag)))
        assert _annihilates(matrix, spec)
        for a in spec:
            assert not _annihilates(matrix, [b for b in spec if b != a])

    @given(diagonalized(st.sampled_from([Fraction(0), Fraction(1)])))
    @settings(max_examples=30, deadline=None)
    def test_undeclared_idempotent(self, case):
        matrix, diag = case
        assert make_observable(matrix).spectrum == tuple(sorted(set(diag)))

    @given(diagonalized(st.sampled_from([Fraction(-1), Fraction(1)])))
    @settings(max_examples=30, deadline=None)
    def test_undeclared_involutory(self, case):
        matrix, diag = case
        assert make_observable(matrix).spectrum == tuple(sorted(set(diag)))


class TestMakeRay:
    def test_axis(self):
        r = make_ray((1, 0, 0))
        assert r.projector == ExactMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])

    def test_diagonal_block(self):
        r = make_ray((1, 1, 0))
        h = Fraction(1, 2)
        assert r.projector == ExactMatrix([[h, h, 0], [h, h, 0], [0, 0, 0]])

    def test_scale_invariance(self):
        assert make_ray((2, 0, 0)).projector == make_ray((1, 0, 0)).projector

    def test_zero_vector(self):
        with pytest.raises(KSCertError, match=r"^ray \? is the zero vector$"):
            make_ray((0, 0, 0))

    def test_projector_laws(self):
        r = make_ray((1, Scalar(0, 0, 1, 0), 2))  # (1, i, 2)
        p = r.projector
        assert mat_mul(p, p) == p
        assert p.dagger() == p


ray_vectors = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(
    lambda v: any(v)
)


class TestDichotomize:
    def test_axis(self):
        a = dichotomize(make_ray((1, 0, 0)))
        assert a.matrix == ExactMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert a.spectrum == (Fraction(-1), Fraction(1))

    @given(ray_vectors)
    def test_squares_to_identity(self, v):
        a = dichotomize(make_ray(v))
        assert mat_mul(a.matrix, a.matrix) == ExactMatrix.identity(3)

    @given(ray_vectors)
    def test_involution_at_projector_level(self, v):
        ray = make_ray(v)
        a = dichotomize(ray).matrix
        assert (ExactMatrix.identity(3) - a).scale(Fraction(1, 2)) == ray.projector

    def test_cabello_first_ray(self):
        ray = make_ray(CABELLO_18_VECTORS[0])
        a = dichotomize(ray)
        assert a.matrix == ExactMatrix.identity(4) - ray.projector.scale(2)


class TestObservableSet:
    def test_dimension_check(self):
        oset = ObservableSet(dim=3)
        with pytest.raises(KSCertError, match=r"^observable \? has dimension 2, set has 3$"):
            oset.add(make_observable(PAULI["X"]))

    def test_duplicate_matrix_rejected(self):
        oset = ObservableSet(dim=2)
        oset.add(make_observable(PAULI["X"], label="x"))
        with pytest.raises(KSCertError, match="^observable x2 duplicates x$"):
            oset.add(make_observable(PAULI["X"], label="x2"))

    def test_duplicate_names_both_labels(self):
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0), label="e1")
        oset.add_ray((0, 1, 0), label="e2")
        with pytest.raises(KSCertError) as exc:
            oset.add_ray((0, 2, 0), label="f2")
        assert str(exc.value) == "observable f2 duplicates e2"

    def test_many_rays_add_fast(self):
        # duplicates are found by an index keyed by each ray's primitive
        # integral vector, not by a scan, and no projector is built
        oset = ObservableSet(dim=2)
        start = time.perf_counter()
        for k in range(2000):
            oset.add_ray((1, k), label=f"r{k}")
        assert time.perf_counter() - start < 2
        assert len(oset) == 2000
        with pytest.raises(KSCertError, match=r"^observable \? duplicates r1999$"):
            oset.add_ray((-2, -2 * 1999))

    def test_scalar_multiple_ray_is_duplicate(self):
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0))
        with pytest.raises(KSCertError, match=r"^observable \? duplicates \?$"):
            oset.add_ray((-3, 0, 0))

    def test_labels_and_lookup(self):
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0), label="e1")
        assert oset.by_label("e1") == 0
        assert oset.labels == ["e1"]

    def test_flags(self):
        rays = ObservableSet(dim=3)
        rays.add_ray((1, 0, 0))
        assert rays.all_rays and not rays.all_dichotomic
        dich = ObservableSet(dim=2)
        dich.add(make_observable(PAULI["Z"]))
        assert dich.all_dichotomic and not dich.all_rays

    def test_trace_one_matrix_on_a_ray_line_is_no_duplicate(self):
        # diag(1, 1, -1) has trace 1 and first column e1, but it is no
        # projector, so it is keyed by itself; diag(1, 0, 0) is e1's
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0), label="e1")
        oset.add(make_observable(ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), label="m"))
        with pytest.raises(KSCertError) as exc:
            oset.add(make_observable(ExactMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), label="p"))
        assert str(exc.value) == "observable p duplicates e1"

    def test_stored_observables_reverified(self):
        # ray_observable states the projector's spectrum without a product;
        # TestRaySpectra checks it against the annihilation check
        obs = ray_observable(make_ray((1, 2, 2)), label="r")
        assert obs.spectrum == (Fraction(0), Fraction(1))
        assert obs.is_projector


RAY_ENTRIES = [Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Scalar(-2), Scalar(0, 0, 1), Scalar(0, 1)]


ray_vectors_any_dim = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.sampled_from(RAY_ENTRIES), min_size=d, max_size=d)
).filter(lambda v: any(not x.is_zero for x in v))


class TestRaySpectra:
    """ray_observable and dichotomize state their spectra; the direct
    annihilation check is the oracle."""

    def test_no_matrix_product(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return mat_mul(a, b)

        monkeypatch.setattr(model, "mat_mul", counted)
        for v in ((1,), (1, 1), (1, 0, 2), (0, 1, -1, 2)):
            ray = make_ray(v)
            ray_observable(ray)
            dichotomize(ray)
        assert calls == []

    @given(ray_vectors_any_dim)
    def test_spectra_oracle(self, v):
        ray = make_ray(v)
        for obs, candidates in (
            (ray_observable(ray), (Fraction(0), Fraction(1))),
            (dichotomize(ray), (Fraction(-1), Fraction(1))),
        ):
            assert obs.spectrum == make_observable(obs.matrix, candidates).spectrum
            assert _annihilates(obs.matrix, obs.spectrum)


SIGNED_PAULI_WORDS = [sign + "".join(letters)
                      for n in (1, 2, 3)
                      for letters in itertools.product("IXYZ", repeat=n)
                      for sign in ("", "+", "-")]


class TestPauliObservable:
    """pauli_observable states its spectrum; the annihilation check and
    make_observable are the oracles."""

    def test_no_matrix_product(self, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "mat_mul", lambda a, b: calls.append((a, b)))
        monkeypatch.setattr(model, "mask_matrix", lambda *args: calls.append(args))
        for word in SIGNED_PAULI_WORDS:
            obs = pauli_observable(word)
            assert obs.dim == 2 ** len(word.lstrip("+-"))
        assert calls == []

    def test_bad_word(self):
        with pytest.raises(ValueError):
            pauli_observable("XQ")
        with pytest.raises(ValueError):
            pauli_observable("-")

    def test_different_words_differ(self):
        assert pauli_observable("+Z") == pauli_observable("Z")
        assert pauli_observable("Z") != pauli_observable("-Z")
        assert pauli_observable("XI") != pauli_observable("IX")

    @pytest.mark.parametrize("word", SIGNED_PAULI_WORDS)
    def test_spectrum_oracle(self, word):
        obs = pauli_observable(word, label="a")
        sign = -1 if word.startswith("-") else 1
        matrix = pauli_matrix(word.lstrip("+-"), sign)
        assert obs.matrix == matrix and obs.label == "a"
        assert matrix.is_hermitian
        assert obs.spectrum == make_observable(matrix, spectrum=(-1, 1)).spectrum
        assert _annihilates(matrix, obs.spectrum)

    def test_equal_matrix_is_duplicate(self):
        oset = ObservableSet(dim=2)
        oset.add(make_observable(ExactMatrix([[1, 0], [0, -1]]), label="m"))
        with pytest.raises(KSCertError, match="^observable a duplicates m$"):
            oset.add(pauli_observable("+Z", label="a"))

    @pytest.mark.parametrize("word", ["Z", "-Y", "XZ", "-YY", "IIX", "-XYZ"])
    @pytest.mark.parametrize("matrix_first", [True, False], ids=["matrix-first", "word-first"])
    def test_matrix_equal_to_word_is_duplicate(self, word, matrix_first):
        """In d = 2, 4 and 8, keyed without the word's matrix."""
        sign = -1 if word.startswith("-") else 1
        letters = word.lstrip("-")
        obs = [make_observable(pauli_matrix(letters, sign), label="m"),
               pauli_observable(word, label="a")]
        first, second = obs if matrix_first else obs[::-1]
        oset = ObservableSet(dim=2 ** len(letters))
        oset.add(first)
        with pytest.raises(KSCertError,
                           match=f"^observable {second.label} duplicates {first.label}$"):
            oset.add(second)

    @pytest.mark.parametrize("rows", [
        pytest.param([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], id="swap"),
        pytest.param([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], id="permutation"),
    ])
    def test_word_like_matrix_is_no_word(self, rows):
        """Hermitian, spectrum (-1, 1) and one nonzero per row, yet no signed
        Pauli word: it sits beside all 32 signed two-qubit words."""
        oset = ObservableSet(dim=4)
        oset.add(make_observable(ExactMatrix(rows), spectrum=(-1, 1), label="m"))
        for sign in "+-":
            for letters in itertools.product("IXYZ", repeat=2):
                oset.add(pauli_observable(sign + "".join(letters)))
        assert len(oset) == 33


def _pool(rays, words, matrices):
    """Observable constructors taking a label: rays, signed words and
    matrices, some of them equal to a ray's projector or to a word."""
    return ([lambda label, v=v: ray_observable(make_ray(v), label) for v in rays]
            + [lambda label, w=w: pauli_observable(w, label) for w in words]
            + [lambda label, m=m: make_observable(m, label=label) for m in matrices])


def _word(word):
    return pauli_matrix(word.lstrip("-"), -1 if word.startswith("-") else 1)


IU, R2 = Scalar(0, 0, 1), Scalar(0, 1)
SWAP = ExactMatrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
CZ = ExactMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
INDEX_POOLS = {
    2: _pool(
        [(1, 0), (0, 1), (1, 1), (-2, -2), (1, IU), (1, -IU)],
        ["Z", "-Z", "X", "-Y", "I", "-I"],
        [projector_from_vector((1, 0)), projector_from_vector((IU, -1)), _word("Z"), _word("-Y"),
         ExactMatrix.identity(2), HADAMARD],
    ),
    4: _pool(
        [(1, 0, 0, 0), (1, 1, 0, 0), (IU, IU, 0, 0), (1, 0, 0, 1), (1, R2, 0, 0)],
        ["ZZ", "-ZZ", "XI", "IX", "-XY", "II"],
        [projector_from_vector((1, 1, 0, 0)), projector_from_vector((2, 0, 0, 2)), _word("ZZ"),
         _word("-XY"), ExactMatrix.identity(4), SWAP, CZ],
    ),
}


class TestDuplicateIndex:
    """ObservableSet.add rejects an observable exactly when an earlier one
    has an equal matrix, whatever the kinds and the order."""

    @given(st.sampled_from([2, 4]).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.integers(0, len(INDEX_POOLS[d]) - 1), max_size=10))))
    @settings(max_examples=150, deadline=None)
    def test_duplicate_iff_equal_matrix(self, case):
        d, picks = case
        oset, kept = ObservableSet(dim=d), []
        for n, k in enumerate(picks):
            obs = INDEX_POOLS[d][k](f"o{n}")
            earlier = next((o for o in kept if o.matrix == obs.matrix), None)
            if earlier is None:
                oset.add(obs)
                kept.append(obs)
            else:
                with pytest.raises(KSCertError,
                                   match=f"^observable o{n} duplicates {earlier.label}$"):
                    oset.add(obs)
        assert oset.observables == kept


def scanned_label(oset, label):
    """The oracle of ObservableSet.by_label: the first observable with the
    label, by a scan, or None."""
    return next((i for i, o in enumerate(oset.observables) if o.label == label), None)


class TestLabelIndex:
    """by_label reads the index add keeps; unlabeled observables (label "")
    and a label repeated in a library-built set resolve as a scan does."""

    @given(st.lists(st.tuples(st.integers(0, len(INDEX_POOLS[4]) - 1),
                              st.sampled_from(["", "a", "b", "c"])), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_index_matches_scan(self, picks):
        oset = ObservableSet(dim=4)
        for k, label in picks:
            try:
                oset.add(INDEX_POOLS[4][k](label))
            except KSCertError as ex:
                assert " duplicates " in str(ex)
        for label in ("", "a", "b", "c", "d"):
            want = scanned_label(oset, label)
            if want is None:
                with pytest.raises(KSCertError, match=f"^unknown observable label {label}$"):
                    oset.by_label(label)
            else:
                assert oset.by_label(label) == want

    def test_repeated_label_first_wins(self):
        oset = ObservableSet(dim=3)
        oset.add_ray((1, 0, 0), label="e")
        oset.add_ray((0, 1, 0))
        oset.add_ray((0, 0, 1), label="e")
        assert (oset.by_label("e"), oset.by_label("")) == (0, 1)


# entries of the integer-geometry oracle tests, sqrt2 and 1/2 included
INTEGRAL_ENTRIES = [Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Scalar(-2), Scalar(0, 0, 1),
                    Scalar(0, 0, -1), Scalar(0, 1), Scalar(Fraction(1, 2))]


def ray_vector_lists(min_size, max_size):
    """Lists of nonzero vectors of one dimension d = 1-4."""
    return st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(st.sampled_from(INTEGRAL_ENTRIES), min_size=d, max_size=d).filter(
            lambda v: any(not x.is_zero for x in v)),
        min_size=min_size, max_size=max_size))


UNIT_PHASES = [Scalar(1), Scalar(-1), Scalar(0, 0, 1), Scalar(0, 0, -1)]
nonzero_scalars = st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 4).map(
    lambda t: Scalar(*t)).filter(lambda s: not s.is_zero)


# component objects shared by many vectors, two of them zero
SHARED_COMPONENTS = [Scalar(0), Scalar(0), Scalar(1), Scalar(Fraction(1, 2)),
                     Scalar(0, Fraction(-1, 3)), Scalar(Fraction(2, 5), 0, Fraction(-1, 4)),
                     Scalar(0, 0, Fraction(1, 6), 1), Scalar(0, 0, -1), Scalar(Fraction(-3, 7))]


def primitive_integral_oracle(v):
    """v divided by its lead in Q(i, sqrt2), then cleared of denominators."""
    inv = next(x for x in v if not x.is_zero).inverse()
    parts = [p for y in (x * inv for x in v) for p in (y.a, y.b, y.c, y.d)]
    den = math.lcm(*(p.denominator for p in parts))
    ints = [p.numerator * (den // p.denominator) for p in parts]
    return tuple(tuple(ints[k : k + 4]) for k in range(0, len(ints), 4))


class TestPrimitiveIntegral:
    """A ray's key, its primitive integral vector over Z[i, sqrt2], against
    the projector it stands in for."""

    @given(ray_vector_lists(1, 1), nonzero_scalars)
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_oracle(self, vectors, s):
        for v in (vectors[0], [x * s for x in vectors[0]]):
            assert primitive_integral(v) == primitive_integral_oracle(v)

    @pytest.mark.parametrize("vector,key", [
        ((0, 2, 0), ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0))),
        ((Scalar(0, 1), 2), ((1, 0, 0, 0), (0, 1, 0, 0))),  # (r2, 2) ~ (1, r2)
        ((Fraction(1, 2), Scalar(0, 0, Fraction(1, 3))), ((3, 0, 0, 0), (0, 0, 2, 0))),
        ((Scalar(0, 0, 1), 1), ((1, 0, 0, 0), (0, 0, -1, 0))),  # (i, 1) ~ (1, -i)
    ])
    def test_examples(self, vector, key):
        assert make_ray(vector).key == key

    @given(ray_vector_lists(2, 2), st.booleans(), nonzero_scalars)
    @settings(max_examples=150, deadline=None)
    def test_equal_keys_iff_equal_projectors(self, pair, scaled, s):
        u, v = pair
        if scaled:
            v = [x * s for x in u]
        same_key = make_ray(u).key == make_ray(v).key
        assert same_key == (projector_from_vector(u) == projector_from_vector(v))

    @given(ray_vector_lists(1, 1), st.sampled_from(UNIT_PHASES), nonzero_scalars)
    @settings(max_examples=150, deadline=None)
    def test_key_invariant_under_scaling(self, vectors, phase, s):
        v = vectors[0]
        key = make_ray(v).key
        assert math.gcd(*(n for c in key for n in c)) == 1
        assert make_ray([x * phase for x in v]).key == key
        assert make_ray([x * s for x in v]).key == key

    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(st.integers(0, len(SHARED_COMPONENTS) - 1), min_size=d, max_size=d),
        min_size=1, max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_shared_components_one_memo(self, picks):
        """Vectors of one load share component objects, with denominators
        that differ between vectors: each object is read once, every key is
        the oracle's, and a vector of zero objects is the zero vector."""
        read = []

        def counted(v, original=exact.integral):
            read.extend(id(x) for x in v)
            return original(v)

        memo = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "integral", counted)
            for n, pick in enumerate(picks):
                v = [SHARED_COMPONENTS[k] for k in pick]
                if all(x.is_zero for x in v):
                    with pytest.raises(KSCertError, match=f"^ray o{n} is the zero vector$"):
                        make_ray(v, f"o{n}", memo)
                else:
                    assert make_ray(v, f"o{n}", memo).key == primitive_integral_oracle(v)
        assert sorted(read) == sorted({id(SHARED_COMPONENTS[k]) for pick in picks for k in pick})

    def test_projector_built_once_on_first_read(self, monkeypatch):
        built = []

        def counted(v):
            built.append(v)
            return projector_from_vector(v)

        monkeypatch.setattr(model, "projector_from_vector", counted)
        obs = ray_observable(make_ray((1, 2, 2)))
        assert built == [] and obs.dim == 3
        assert obs.matrix == projector_from_vector((1, 2, 2))
        assert obs.matrix is obs.ray.projector
        assert len(built) == 1


# peres-33 as the catalog built it with Scalar products (SQRT2 * Scalar(-1))
PERES_33_TEXT = [
    "1 0 0", "0 1 0", "0 0 1", "0 1 1", "0 1 -1", "1 0 1", "1 0 -1", "1 1 0", "1 -1 0",
    "0 1 r2", "0 1 -r2", "0 r2 1", "0 -r2 1", "1 0 r2", "1 0 -r2", "r2 0 1", "-r2 0 1",
    "1 r2 0", "1 -r2 0", "r2 1 0", "-r2 1 0", "r2 1 1", "r2 1 -1", "r2 -1 1", "r2 -1 -1",
    "1 r2 1", "1 r2 -1", "-1 r2 1", "-1 r2 -1", "1 1 r2", "1 -1 r2", "-1 1 r2", "-1 -1 r2",
]


class TestCatalogRayVectors:
    """The catalog builds its rays from shared constants; their vectors are
    the values it built before, component by component."""

    def test_cabello_18(self):
        oset = catalog.get("cabello-18").load()
        assert [o.ray.vector for o in oset.observables] == [
            tuple(Scalar(x) for x in v) for v in CABELLO_18_VECTORS]

    def test_peres_33(self):
        oset = catalog.get("peres-33").load()
        vectors = [o.ray.vector for o in oset.observables]
        assert vectors == [tuple(parse_scalar(t) for t in v.split()) for v in PERES_33_TEXT]
        assert [" ".join(map(str, v)) for v in vectors] == PERES_33_TEXT
        assert all(type(p) is Fraction for v in vectors for x in v for p in (x.a, x.b, x.c, x.d))
