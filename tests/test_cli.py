"""Proof-file parsing and the command-line workflow."""

import contextlib
import io
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kscert import assign, catalog, derive
from kscert.cli import main
from kscert.compat import build_orthogonality_graph, enumerate_bases
from kscert.derive import assemble_F, build_complete_set_rays, present
from kscert.errors import ParseError
from kscert.exact import Scalar
from kscert.poly import MAX_POWER_BITS, eval_assignment
from kscert.prooffile import (
    parse,
    parse_poly_expr,
    parse_scalar,
    proof_file_from_set,
    render_input_section,
)


class TestParseScalar:
    @pytest.mark.parametrize(
        "token,expect",
        [
            ("1/2", Scalar(Fraction(1, 2))),
            ("-3", Scalar(-3)),
            ("i", Scalar(0, 0, 1, 0)),
            ("-i", Scalar(0, 0, -1, 0)),
            ("r2", Scalar(0, 1)),
            ("-r2", Scalar(0, -1)),
            ("2r2i", Scalar(0, 0, 0, 2)),
            ("1+i", Scalar(1, 0, 1, 0)),
            ("(1-i)", Scalar(1, 0, -1, 0)),
            ("1/2+1/2r2", Scalar(Fraction(1, 2), Fraction(1, 2))),
        ],
    )
    def test_examples(self, token, expect):
        assert parse_scalar(token) == expect

    def test_str_roundtrip(self):
        samples = [
            Scalar(Fraction(3, 4)),
            Scalar(0, 0, 1, 0),
            Scalar(1, 0, 1, 0),
            Scalar(0, -1),
            Scalar(Fraction(1, 2), 0, Fraction(-1, 2), 0),
            Scalar(0, Fraction(1, 2), 0, -2),
            Scalar(0),
        ]
        for x in samples:
            assert parse_scalar(str(x)) == x

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_scalar("sqrt3")


class TestParsePolyExpr:
    def test_terms(self):
        terms = parse_poly_expr("2*a*b^2 - (1+i)*c + 1")
        assert terms == [
            (Scalar(2), [("a", 1), ("b", 2)]),
            (Scalar(-1, 0, -1, 0), [("c", 1)]),
            (Scalar(1), []),
        ]

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse_poly_expr("a^b")
        with pytest.raises(ParseError):
            parse_poly_expr("a^0")


SINGLE_BASIS = """\
dim 3
ray e1 1 0 0
ray e2 0 1 0
ray e3 0 0 1
"""

MP_PARITY = """\
dim 4
pauli a +XI
pauli b +IX
pauli c +XX
pauli d +IZ
pauli e +ZI
pauli f +ZZ
pauli g +XZ
pauli h +ZX
pauli k +YY
context a b c
context d e f
context g h k
context a d g
context b e h
context c f k
"""

# k, p and q multiply to I, so k now occurs three times and p and q once:
# the parity count fails, yet the square's six contexts remain a proof
MP_EXTRA = """\
pauli p +YI
pauli q +IY
context k p q
"""

GENERAL_MP = MP_PARITY + """\
poly c=4 a*b*c - 1
poly c=4 d*e*f - 1
poly c=4 g*h*k - 1
poly c=4 a*d*g - 1
poly c=4 b*e*h - 1
poly c=4 c*f*k + 1
"""


class TestParseErrors:
    def test_missing_dim(self):
        with pytest.raises(ParseError):
            parse("ray e1 1 0 0\n")

    def test_line_number_in_error(self):
        with pytest.raises(ParseError) as exc:
            parse("dim 3\nray e1 1 0 q\n")
        assert exc.value.line == 2

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse("dim 3\nvector e1 1 0 0\n")

    def test_row_length(self):
        with pytest.raises(ParseError):
            parse("dim 2\nmatrix m\nrow 1 0 0\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse("dim 2\nmatrix m\nrow 1 0\n")

    def test_duplicate_labels(self):
        with pytest.raises(ParseError):
            parse("dim 3\nray e1 1 0 0\nray e1 0 1 0\n")

    def test_ray_dimension_mismatch(self):
        pf = parse("dim 4\nray e1 1 0 0\n")
        with pytest.raises(ParseError):
            pf.to_observable_set()

    def test_derived_section_ignored(self):
        pf = parse(SINGLE_BASIS + "=== derived ===\nnot even a directive\n")
        assert len(pf.observables) == 3


class TestParseRoundTrip:
    def test_input_section_stable(self):
        pf = parse(SINGLE_BASIS)
        text = render_input_section(pf)
        assert render_input_section(parse(text)) == text

    def test_catalog_reconstruction(self, peres33):
        oset, _, _ = peres33
        pf = proof_file_from_set(oset, "ray")
        oset2 = parse(render_input_section(pf)).to_observable_set()
        assert len(oset2) == 33
        for a, b in zip(oset.observables, oset2.observables):
            assert a.matrix == b.matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyCommand:
    def test_catalog_proof(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "cabello-18")
        assert code == 0
        assert "method: RayColoring" in out
        assert "verdict: KSProof" in out

    def test_parity_catalog(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "mermin-peres")
        assert code == 0
        assert "method: GeneralCSP (6 polynomials)" in out
        assert "verdict: KSProof" in out

    def test_colorable_file(self, capsys, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text(SINGLE_BASIS)
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert "verdict: NotKSProof" in out
        assert "witness: " in out

    def test_general_mode_file(self, capsys, tmp_path):
        path = tmp_path / "mp.txt"
        path.write_text(GENERAL_MP)
        code, out, _ = run(capsys, "verify", "--input", str(path), "--mode", "general")
        assert code == 0
        assert "method: GeneralCSP (6 polynomials)" in out

    def test_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys, "verify", "--catalog", "cabello-18", "--node-cap", "2"
        )
        assert code == 4
        assert "budget-exceeded" in err

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 3
        assert "error: input" in err

    def test_both_sources(self, capsys, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text(SINGLE_BASIS)
        code, _, _ = run(
            capsys, "verify", "--catalog", "cabello-18", "--input", str(path)
        )
        assert code == 3

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "verify", "--catalog", "nope")
        assert code == 3

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim 3\nray e1 1 0 q\n")
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 3
        assert "error: input" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--catalog", "cabello-18", "--node-cap", "abc"],
            ["verify", "--catalog", "cabello-18", "--node-cap", "-5"],
            ["verify", "--catalog", "cabello-18", "--node-cap", "0"],
            ["derive", "--catalog", "cabello-18", "--form", "bogus"],
            ["verify", "--catalog", "cabello-18", "--bogus"],
            [],
        ],
        ids=["cap-abc", "cap-negative", "cap-zero", "form", "unknown-option", "no-command"],
    )
    def test_option_error(self, capsys, argv):
        # argparse's own exit code, 2, would read as "not a KS proof"
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: input: ")

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--node-cap" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text,line",
        [
            ("dim " + "9" * 5000 + "\n", 1),
            ("dim 2\nray a 1 0\nray b 0 1\npoly a^" + "9" * 5000 + " - a\n", 4),
        ],
        ids=["dim", "exponent"],
    )
    def test_overlong_integer(self, capsys, tmp_path, text, line):
        # more digits than int() converts: an input error, not a traceback
        path = tmp_path / "long.txt"
        path.write_text(text)
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 3
        assert f"error: input: line {line}: " in err

    def test_zero_exponent(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text(GENERAL_MP.replace("a*b*c - 1", "a*b*c - a^0"))
        code, out, err = run(capsys, "derive", "--input", str(path))
        assert code == 3
        assert out == ""
        assert err == "error: input: line 17: exponent must be a positive integer\n"

    def test_large_exponent_reduced_in_one_step(self, capsys, tmp_path):
        path = tmp_path / "power.txt"
        path.write_text("dim 2\nray a 1 0\nray b 0 1\npoly a^1000000 - a\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert time.perf_counter() - start < 2
        assert code == 2  # a^1000000 - a reduces to 0
        assert "verdict: NotKSProof" in out

    def test_exponent_beyond_power_limit(self, capsys, tmp_path):
        # 2^9999999999 is never computed: an input error, not exhausted memory
        path = tmp_path / "power.txt"
        path.write_text("dim 3\nmatrix m spectrum 0,1,2\nrow 0 0 0\nrow 0 1 0\nrow 0 0 2\n"
                        "poly m^9999999999 - m\n")
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 3
        assert out == ""
        assert f"over the limit {MAX_POWER_BITS}" in err

    def test_projector_form_of_parity_proof(self, capsys):
        code, _, err = run(
            capsys, "derive", "--catalog", "mermin-peres", "--form", "projector"
        )
        assert code == 3
        assert "error: input: projector form requires a ray observable set" in err

    def test_bad_pauli_word(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim 4\npauli a +QQ\n")
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 3
        assert "error: input: line 2: " in err

    def test_general_mode_checks_condition_1(self, capsys, tmp_path):
        # 2a - 1 is never zero as an operator (a is a projector)
        path = tmp_path / "c1.txt"
        path.write_text("dim 2\nmode general\nray a 1 0\nray b 0 1\npoly 2*a - 1\n")
        for command in ("verify", "derive"):
            code, _, err = run(capsys, command, "--input", str(path))
            assert code == 3, command
            assert "polynomial 0 does not vanish as an operator" in err

    @pytest.mark.parametrize(
        "line", ["ray a 1/0 1 0", "matrix m spectrum x,1", "poly (1+i*a - 1"]
    )
    def test_malformed_token(self, capsys, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"dim 3\n{line}\n")
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 3
        assert "error: input: line 2: " in err


_FUZZ_RAYS = {
    1: ["1"],
    2: ["1 0", "0 1", "1 1", "1 -1", "1 i", "1 -i"],
    4: ["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1", "1 1 0 0", "1 -1 0 0",
        "0 0 1 1", "0 0 1 -1", "1 1 1 1", "1 -1 1 -1", "1 r2 0 0", "1 0 i 0"],
}
_FUZZ_BAD = ["q", "1/0", "", "(", "c=0", "^", "+QQ", "2", "-1", "spectrum", "a9"]


@st.composite
def proof_files(draw):
    """Proof-file text: a well-formed skeleton, then a few mutated tokens."""
    if draw(st.booleans()):
        lines = draw(st.sampled_from([SINGLE_BASIS, MP_PARITY, GENERAL_MP])).splitlines()
        return _mutated(draw, lines)
    dim = draw(st.sampled_from([1, 2, 4]))
    lines = [f"dim {dim}"]
    mode = draw(st.sampled_from(["", "auto", "ray", "bases-only", "parity", "general"]))
    if mode:
        lines.append(f"mode {mode}")
    rays = draw(st.lists(st.sampled_from(_FUZZ_RAYS[dim]), max_size=6, unique=True))
    labels = [f"a{k}" for k in range(len(rays))]
    lines += [f"ray {label} {vec}" for label, vec in zip(labels, rays)]
    qubits = dim.bit_length() - 1
    for k in range(draw(st.integers(0, 3)) if qubits else 0):
        word = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=qubits, max_size=qubits)))
        lines.append(f"pauli b{k} {draw(st.sampled_from(['+', '-', '']))}{word}")
        labels.append(f"b{k}")
    if draw(st.booleans()):
        spec = draw(st.sampled_from(["", "0,1", "-1,1", "-1,0,1,2"]))
        values = spec.split(",") if spec else ["0", "1"]
        diag = draw(st.lists(st.sampled_from(values), min_size=dim, max_size=dim))
        lines.append("matrix m" + (f" spectrum {spec}" if spec else ""))
        for k in range(dim):
            lines.append("row " + " ".join(diag[k] if j == k else "0" for j in range(dim)))
        labels.append("m")
    if not labels:
        return _mutated(draw, lines)
    for _ in range(draw(st.integers(0, 4))):
        ctx = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
        lines.append("context " + " ".join(ctx))
    for _ in range(draw(st.integers(0, 3))):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            coef = draw(st.sampled_from(["", "", "2*", "i*", "(1+i)*", "r2*"]))
            mono = draw(st.lists(st.sampled_from(labels), max_size=2))
            exp = draw(st.sampled_from(["", "", "^2"]))
            terms.append(coef + ("*".join(mono) + exp if mono else "1"))
        c = draw(st.sampled_from(["", "", "c=1 ", "c=2 ", "c=4 "]))
        ops = [draw(st.sampled_from([" + ", " - "])) for _ in terms[1:]]
        lines.append(f"poly {c}" + "".join(t + o for t, o in zip(terms, ops + [""])))
    return _mutated(draw, lines)


def _mutated(draw, lines):
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        k = draw(st.integers(0, len(lines) - 1))
        parts = lines[k].split(" ")
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_FUZZ_BAD))
        lines[k] = " ".join(parts)
    return "\n".join(lines) + "\n"


class TestFuzzProofFiles:
    """Any text in the proof-file grammar ends with an exit code, never a traceback."""

    @settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        text=proof_files(),
        argv=st.sampled_from([
            ["verify"], ["derive"], ["derive", "--exact-bound"], ["bound"], ["export"],
            ["derive", "--form", "projector"], ["derive", "--form", "dichotomic"],
        ]),
    )
    def test_exit_codes(self, tmp_path_factory, text, argv):
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_text(text)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([*argv, "--input", str(path), "--node-cap", "500"])
        assert code in (0, 2, 3, 4)


class TestDeriveCommand:
    def test_mermin_peres(self, capsys):
        code, out, _ = run(
            capsys, "derive", "--catalog", "mermin-peres", "--exact-bound"
        )
        assert code == 0
        assert "complete set: 6 polynomials (Parity)" in out
        assert "<= 4" in out
        assert "quantum value: 6" in out
        assert "bound: 4 (exact)" in out

    def test_cabello(self, capsys):
        code, out, _ = run(capsys, "derive", "--catalog", "cabello-18")
        assert code == 0
        assert "complete set: 72 polynomials (RayEdgesBases)" in out
        assert "<= 8" in out
        assert "quantum value: 9" in out
        assert "(certified)" in out

    def test_not_a_proof(self, capsys, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text(SINGLE_BASIS)
        code, _, err = run(capsys, "derive", "--input", str(path))
        assert code == 2
        assert "not-a-ks-proof" in err
        assert "e1=" in err

    def test_not_a_proof_before_missing_normalization(self, capsys, tmp_path):
        # a^2 - a vanishes at every assignment, so it has no c; the input is
        # still reported as satisfiable, with or without --exact-bound
        path = tmp_path / "zero.txt"
        path.write_text("dim 2\nmode general\nray a 1 0\nray b 0 1\npoly a + b - 1\npoly a^2 - a\n")
        for flags in ([], ["--exact-bound"]):
            code, _, err = run(capsys, "derive", "--input", str(path), *flags)
            assert code == 2
            assert "not-a-ks-proof" in err

    def test_general_mode_records_computed_c(self, capsys, tmp_path):
        # no c= declared: the record carries the c that F was built with
        path = tmp_path / "mp.txt"
        path.write_text(GENERAL_MP.replace("c=4 ", ""))
        first = tmp_path / "mp.rec"
        code, _, _ = run(capsys, "export", "--input", str(path), "--output", str(first))
        assert code == 0
        record = first.read_text().splitlines()
        assert [l.split(" :: ")[0] for l in record if l.startswith("cpoly")] == ["cpoly c=4"] * 6
        assert "poly a*b*c - 1" in record
        declared = tmp_path / "mp4.txt"
        declared.write_text(GENERAL_MP)
        code, out, _ = run(capsys, "export", "--input", str(declared))
        assert code == 0
        F_line = next(l for l in out.splitlines() if l.startswith("F :: "))
        assert F_line.startswith("F :: -3 + 1/2*a*b*c")
        assert F_line in record
        second = tmp_path / "mp2.rec"
        code, _, _ = run(capsys, "export", "--input", str(first), "--output", str(second))
        assert code == 0
        assert first.read_text() == second.read_text()

    @pytest.mark.parametrize("index,declared", [(2, "c=3"), (0, "c=1")])
    def test_general_mode_rejects_wrong_c(self, capsys, tmp_path, index, declared):
        lines = GENERAL_MP.splitlines()
        polys = [k for k, line in enumerate(lines) if line.startswith("poly")]
        lines[polys[index]] = lines[polys[index]].replace("c=4", declared)
        path = tmp_path / "mp.txt"
        path.write_text("\n".join(lines) + "\n")
        for argv in (["derive"], ["derive", "--exact-bound"], ["verify"]):
            code, _, err = run(capsys, *argv, "--input", str(path))
            assert code == 3, argv
            assert f"polynomial {index} declares {declared}, but its normalization constant is 4" in err

    def test_unused_observable_does_not_block_form(self, capsys, tmp_path, monkeypatch):
        # m is neither a ray nor dichotomic, but no polynomial uses it, so
        # the dichotomic form needs no substitution; the projector form is
        # refused before the search runs
        path = tmp_path / "mp.txt"
        path.write_text(GENERAL_MP + "matrix m spectrum 0,1,2\nrow 0 0 0 0\nrow 0 1 0 0\n"
                        "row 0 0 2 0\nrow 0 0 0 2\n")
        code, out, _ = run(capsys, "derive", "--input", str(path))
        assert code == 0
        assert "form: dichotomic" in out
        assert "bound: 4 (certified); quantum value: 6" in out
        runs = []
        engine = assign.branch_and_bound

        def counted(*args, **kwargs):
            runs.append(1)
            return engine(*args, **kwargs)

        monkeypatch.setattr(assign, "branch_and_bound", counted)
        code, _, err = run(capsys, "derive", "--input", str(path), "--form", "projector")
        assert code == 3
        assert "error: input: projector form requires a ray observable set" in err
        assert runs == []

    @pytest.mark.parametrize("name,bound", [("cabello-18", 8), ("peres-33", 15)])
    def test_exact_bound_ray_catalog(self, capsys, name, bound):
        start = time.monotonic()
        code, out, _ = run(capsys, "derive", "--catalog", name, "--exact-bound")
        assert time.monotonic() - start < 5.0
        assert code == 0
        assert f"bound: {bound} (exact)" in out

    def test_search_deeper_than_recursion_limit(self, capsys, tmp_path):
        # d = 2: rays (1, k) and (-k, 1) form the only orthogonal pairs, so
        # the set is colourable, and its 1,200 variables are a search path
        # longer than the default recursion limit
        n = 600
        assert sys.getrecursionlimit() < 2 * n
        path = tmp_path / "pairs.txt"
        rays = [f"ray a{k} 1 {k}\nray b{k} -{k} 1\n" for k in range(1, n + 1)]
        path.write_text("dim 2\n" + "".join(rays))
        code, _, err = run(capsys, "derive", "--input", str(path))
        assert code == 2
        listed = err.strip().split("satisfying assignment ")[1]
        witness = dict(item.split("=") for item in listed.split(", "))
        assert len(witness) == 2 * n
        for k in range(1, n + 1):
            assert sorted((witness[f"a{k}"], witness[f"b{k}"])) == ["0", "1"]

    def test_one_search_per_command(self, capsys, monkeypatch):
        runs = []
        for module, name in ((assign, "branch_and_bound"), (derive, "ks_colorability")):
            def counted(*args, engine=getattr(module, name), **kwargs):
                runs.append(1)
                return engine(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        for argv in (
            ["verify"], ["derive"], ["derive", "--exact-bound"], ["export"], ["bound"]
        ):
            runs.clear()
            code, _, _ = run(capsys, *argv, "--catalog", "cabello-18")
            assert code == 0
            assert len(runs) == 1, argv


def _catalog_text(name):
    entry = catalog.get(name)
    return render_input_section(proof_file_from_set(entry.load(), entry.mode))


def _without_last(text, directive):
    lines = text.splitlines(keepends=True)
    del lines[max(k for k, line in enumerate(lines) if line.startswith(directive + " "))]
    return "".join(lines)


# XXX * YZI * ZYX = I: a context of the pentagram's XXX and two new observables
PENTAGRAM_EXTRA = "pauli p +YZI\npauli q +ZYX\ncontext XXX p q\n"

AGREEMENT_INPUTS = {
    "mp-less-context": lambda: _without_last(MP_PARITY, "context"),
    "mp-extra-context": lambda: MP_PARITY + MP_EXTRA,
    "pentagram-less-context": lambda: _without_last(_catalog_text("mermin-pentagram"), "context"),
    "pentagram-extra-context": lambda: _catalog_text("mermin-pentagram") + PENTAGRAM_EXTRA,
    "cabello-less-ray": lambda: _without_last(_catalog_text("cabello-18"), "ray"),
}


class TestVerifyDeriveAgree:
    """verify is derive's first half: one complete set, one decision."""

    @pytest.mark.parametrize("name", sorted(AGREEMENT_INPUTS))
    def test_same_verdict_and_witness(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.txt"
        path.write_text(AGREEMENT_INPUTS[name]())
        vcode, vout, _ = run(capsys, "verify", "--input", str(path))
        dcode, _, derr = run(capsys, "derive", "--input", str(path))
        assert vcode == dcode
        assert vcode in (0, 2)
        if vcode == 2:
            witness = next(l for l in vout.splitlines() if l.startswith("witness: "))
            assert derr.strip().endswith("satisfying assignment " + witness[len("witness: "):])

    def test_parity_count_is_not_necessary(self, capsys, tmp_path):
        parity = tmp_path / "mp7.txt"
        parity.write_text(MP_PARITY + MP_EXTRA)
        code, out, _ = run(capsys, "verify", "--input", str(parity))
        assert code == 0
        assert "verdict: KSProof" in out
        code, out, _ = run(capsys, "derive", "--input", str(parity))
        assert code == 0
        assert "mode: parity" in out
        assert "bound: 5 (certified); quantum value: 7" in out
        general = tmp_path / "mp7g.txt"
        polys = GENERAL_MP[len(MP_PARITY):] + "poly c=4 k*p*q - 1\n"
        general.write_text(MP_PARITY + MP_EXTRA + polys)
        code, general_out, _ = run(capsys, "derive", "--input", str(general))
        assert code == 0
        assert "complete set: 7 polynomials (UserSupplied)" in general_out
        for prefix in ("F = ", "inequality: "):
            line = next(l for l in out.splitlines() if l.startswith(prefix))
            assert line in general_out.splitlines()


class TestBoundCommand:
    def test_mermin_peres(self, capsys):
        code, out, _ = run(capsys, "bound", "--catalog", "mermin-peres")
        assert code == 0
        assert "exact classical maximum: 4" in out
        assert "quantum value: 6" in out

    def test_cabello_dichotomic_witness_attains(self, capsys):
        code, out, _ = run(capsys, "bound", "--catalog", "cabello-18", "--form", "dichotomic")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        maximum = Fraction(lines["exact classical maximum"])
        assert maximum == 131
        oset = catalog.get("cabello-18").load()
        graph = build_orthogonality_graph(oset)
        ineq = assemble_F(build_complete_set_rays(oset, graph, enumerate_bases(graph)))
        pres = present(ineq, "dichotomic")
        ids = {label: i for i, label in enumerate(pres.presented_set.labels)}
        witness = {}
        for item in lines["attained at"].split(", "):
            label, value = item.split("=")
            witness[ids[label]] = Fraction(value)
        assert set(witness.values()) <= {-1, 1}
        assert eval_assignment(pres.score, witness) == Scalar(maximum)


class TestExportCommand:
    def test_round_trip_identical(self, capsys, tmp_path):
        first = tmp_path / "mp.rec"
        code, _, _ = run(
            capsys, "export", "--catalog", "mermin-peres", "--output", str(first)
        )
        assert code == 0
        second = tmp_path / "mp2.rec"
        code, _, _ = run(
            capsys, "export", "--input", str(first), "--output", str(second)
        )
        assert code == 0
        assert first.read_text() == second.read_text()
        assert "sha256 " in first.read_text()

    def test_round_trip_with_sqrt2(self, capsys, tmp_path):
        first = tmp_path / "p33.rec"
        code, _, _ = run(
            capsys, "export", "--catalog", "peres-33", "--output", str(first)
        )
        assert code == 0
        second = tmp_path / "p33b.rec"
        code, _, _ = run(
            capsys, "export", "--input", str(first), "--output", str(second)
        )
        assert code == 0
        assert first.read_text() == second.read_text()

    def test_refuses_non_proof(self, capsys, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text(SINGLE_BASIS)
        out = tmp_path / "basis.rec"
        code, _, err = run(
            capsys, "export", "--input", str(path), "--output", str(out)
        )
        assert code == 2
        assert not out.exists()


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        for name in ("mermin-peres", "mermin-pentagram", "cabello-18", "peres-33"):
            assert name in out

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "cabello-18")
        assert code == 0
        assert out.startswith("dim 4")
        assert out.count("ray ") == 18
