"""Proof-file parsing and the command-line workflow."""

import argparse
import ast
import contextlib
import functools
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kscert
from kscert import assign, catalog, compat, derive, exact, model, prooffile
from kscert.cli import _auto_mode, build_parser, main
from kscert.compat import build_orthogonality_graph, enumerate_bases
from kscert.derive import (
    assemble_F,
    build_complete_set_parity,
    build_complete_set_rays,
    present,
)
from kscert.errors import KSCertError
from kscert.exact import Scalar
from kscert.poly import MAX_POWER_BITS, eval_assignment
from kscert.prooffile import (
    parse,
    parse_poly_expr,
    parse_scalar,
    proof_file_from_set,
    render_input_section,
)

from conftest import (
    eigenray_set,
    pauli_contexts,
    pauli_parity_text,
    pauli_word,
    stabilizer_ray_set,
    two_bases_set,
)


def _exactly(message):
    """A pytest.raises pattern that matches message and nothing else."""
    return f"^{re.escape(message)}$"


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
        with pytest.raises(KSCertError, match=_exactly("bad scalar term 'sqrt3' in 'sqrt3'")):
            parse_scalar("sqrt3")

    @pytest.mark.parametrize("token", ["-", "+", "(-)", "1+", "1-", "1++2", "i-", "+-1"])
    def test_sign_with_no_term(self, token):
        with pytest.raises(KSCertError, match=_exactly(f"bad scalar term '' in {token!r}")):
            parse_scalar(token)


class TestParsePolyExpr:
    def test_terms(self):
        terms = parse_poly_expr("2*a*b^2 - (1+i)*c + 1")
        assert terms == [
            (Scalar(2), [("a", 1), ("b", 2)]),
            (Scalar(-1, 0, -1, 0), [("c", 1)]),
            (Scalar(1), []),
        ]

    def test_bad_exponent(self):
        for text in ("a^b", "a^0"):
            with pytest.raises(KSCertError, match=_exactly("exponent must be a positive integer")):
                parse_poly_expr(text)


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
        with pytest.raises(KSCertError, match=_exactly("line 1: dim must come before observables")):
            parse("ray e1 1 0 0\n")

    def test_line_number_in_error(self):
        with pytest.raises(KSCertError, match=_exactly("line 2: bad scalar term 'q' in 'q'")):
            parse("dim 3\nray e1 1 0 q\n")

    def test_unknown_directive(self):
        with pytest.raises(KSCertError, match=_exactly("line 2: unknown directive 'vector'")):
            parse("dim 3\nvector e1 1 0 0\n")

    def test_row_length(self):
        with pytest.raises(KSCertError, match=_exactly("line 3: row has 3 entries, expected 2")):
            parse("dim 2\nmatrix m\nrow 1 0 0\n")

    def test_missing_rows(self):
        with pytest.raises(KSCertError, match=_exactly("line 3: matrix m has 1 rows, expected 2")):
            parse("dim 2\nmatrix m\nrow 1 0\n")

    def test_duplicate_labels(self):
        with pytest.raises(KSCertError, match=_exactly("line 3: duplicate observable label e1")):
            parse("dim 3\nray e1 1 0 0\nray e1 0 1 0\n")

    def test_ray_dimension_mismatch(self):
        pf = parse("dim 4\nray e1 1 0 0\n")
        with pytest.raises(KSCertError,
                           match=_exactly("line 2: observable e1 has dimension 3, set has 4")):
            pf.load()

    def test_derived_section_ignored(self):
        pf = parse(SINGLE_BASIS + "=== derived ===\nnot even a directive\n")
        assert len(pf.observables) == 3

    def test_separator_rule_names_all_other_whitespace(self):
        """parse refuses every character that str.split, str.strip (both
        str.isspace) or str.splitlines takes as whitespace, but space, tab,
        \\n and \\r, so that only those separate tokens and end lines."""
        chars = "".join(map(chr, range(0x110000)))
        other = {c for c in chars if c.isspace() or len(f"a{c}b".splitlines()) > 1}
        assert set(prooffile._OTHER_SPACE.findall(chars)) == other - set(" \t\n\r")


class TestScalarTokensParsedOnce:
    def _count(self, monkeypatch):
        tokens = Counter()

        def counted(token, original=prooffile.parse_scalar):
            tokens[token] += 1
            return original(token)

        monkeypatch.setattr(prooffile, "parse_scalar", counted)
        return tokens

    def test_kp40_each_distinct_token_once(self, monkeypatch):
        text = _eigenray_file("kp-40")
        tokens = self._count(monkeypatch)
        pf = parse(text)
        rays = [line.split()[2:] for line in text.splitlines() if line.startswith("ray ")]
        assert set(tokens) == {t for ray in rays for t in ray}
        assert set(tokens.values()) == {1}
        assert [d.vector for d in pf.observables] == [
            tuple(parse_scalar(t) for t in ray) for ray in rays]

    def test_once_per_call(self, monkeypatch):
        tokens = self._count(monkeypatch)
        parse(SINGLE_BASIS)
        parse(SINGLE_BASIS)
        assert tokens == {"0": 2, "1": 2}

    def test_matrix_rows_share_the_memo(self, monkeypatch):
        tokens = self._count(monkeypatch)
        pf = parse("dim 2\nray e1 1 0\nmatrix m spectrum -1,1\nrow 0 1\nrow 1 0\n")
        assert tokens == {"0": 1, "1": 1}
        assert pf.observables[1].rows == [[Scalar(0), Scalar(1)], [Scalar(1), Scalar(0)]]

    def test_bad_token_keeps_its_line_number(self):
        # only tokens that parse are kept; a bad one raises where it occurs
        with pytest.raises(KSCertError, match=_exactly("line 4: bad scalar term 'q' in 'q'")):
            parse("dim 2\nray a 1 0\nray b 0 1\nray c 1 q\nray d q 1\n")


class TestRayLoadMakesNoProduct:
    def test_kp40_file_and_peres33_catalog(self, monkeypatch, tmp_path):
        """Ray keys are computed in ints, and the catalog builds its
        vectors from shared constants: loading makes no Scalar product."""
        path = tmp_path / "kp-40.txt"
        path.write_text(_eigenray_file("kp-40"), encoding="utf-8")
        products = []

        def counted(a, b, original=Scalar.__mul__):
            products.append((a, b))
            return original(a, b)

        monkeypatch.setattr(Scalar, "__mul__", counted)
        monkeypatch.setattr(Scalar, "__rmul__", counted)
        kp40, _ = prooffile.parse_file(str(path)).load()
        peres = catalog.get("peres-33").load()
        assert (len(kp40), len(peres)) == (40, 33)
        assert products == []


class TestParseRoundTrip:
    def test_input_section_stable(self):
        pf = parse(SINGLE_BASIS)
        text = render_input_section(pf)
        assert render_input_section(parse(text)) == text

    def test_catalog_reconstruction(self, peres33):
        oset, _, _ = peres33
        pf = proof_file_from_set(oset, "ray")
        oset2, _ = parse(render_input_section(pf)).load()
        assert len(oset2) == 33
        for a, b in zip(oset.observables, oset2.observables):
            assert a.matrix == b.matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the commands that print an error: every command loads its input and
# builds the complete set, and all but verify present a form
EVERY = ("verify", "derive", "bound", "export")
PRESENTING = ("derive", "bound", "export")


def _choice_error(option, value, choices):
    """argparse's own message for a value outside an option's choices,
    which quotes the choices differently across Python versions."""
    ap = argparse.ArgumentParser(exit_on_error=False)
    ap.add_argument(option, choices=choices)
    try:
        ap.parse_args([option, value])
    except argparse.ArgumentError as ex:
        return str(ex)
    raise AssertionError(f"{value!r} is a choice of {option}")


def _padded(text):
    """text with a blank line, a full-line comment and an indented comment
    before each of its lines, so its line k is physical line 4k."""
    return "".join(f"\n# line {k}\n   \t# indented\n{line}\n"
                   for k, line in enumerate(text.splitlines(), start=1))


class TestBlankAndCommentLines:
    """parse skips blank and comment-only lines, and every line keeps its
    physical number."""

    @pytest.mark.parametrize("text", [SINGLE_BASIS, MP_PARITY, GENERAL_MP,
                                      "dim 2\nmatrix m spectrum -1,1\nrow 0 1\nrow 1 0\n"],
                             ids=["rays", "parity", "general", "matrix"])
    def test_same_output(self, capsys, tmp_path, text):
        path = tmp_path / "proof.txt"  # one path for both, as the output names it
        outputs = []
        for content in (text, _padded(text)):
            path.write_text(content)
            outputs.append([run(capsys, command, "--input", str(path))
                            for command in ("verify", "derive", "export")])
        assert outputs[1] == outputs[0]

    def test_error_keeps_its_physical_line(self, capsys, tmp_path):
        with pytest.raises(KSCertError, match=_exactly("line 12: bad scalar term 'q' in 'q'")):
            parse(_padded("dim 3\nray e1 1 0 0\nray e2 1 q 0\n"))
        path = tmp_path / "bad.txt"
        path.write_text(_padded("dim 3\nray e1 1 0 0\nray e2 2 0 0\n"))
        assert run(capsys, "verify", "--input", str(path)) == \
            (3, "", "error: input: line 12: observable e2 duplicates e1\n")


class TestVerifyCommand:
    def test_catalog_proof(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "cabello-18")
        assert code == 0
        assert "method: RayColoring" in out
        assert "verdict: KSProof" in out

    def test_parity_catalog(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "mermin-peres")
        assert code == 0
        assert "method: ParityElimination (6 polynomials)" in out
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

    @pytest.mark.parametrize("labels", [("r1", "r2"), ("i", "r2i")], ids=["r1-r2", "i-r2i"])
    @pytest.mark.parametrize("below", [False, True], ids=["declared-above", "declared-below"])
    def test_poly_word_names_observable(self, capsys, tmp_path, labels, below):
        """A poly word that labels an observable is that observable, even
        where it also reads as a scalar (r2 is sqrt2, i the imaginary unit)."""
        x, y = labels
        rays, poly = f"ray {x} 1 0\nray {y} 0 1\n", f"poly {x} + {y} - 1\n"
        path = tmp_path / "labels.txt"
        path.write_text("dim 2\nmode general\n" + (poly + rays if below else rays + poly))
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert f"witness: {x}=0, {y}=1" in out

    # node and propagation counts of every engine, the parity elimination's
    # (row additions, no nodes), the branch and bound's and the ray
    # coloring's, pinned so that a change that alters one shows; a
    # bases-only set is searched as its ray set is
    @pytest.mark.parametrize("source,line", [
        (("--catalog", "mermin-peres"), "search: 0 nodes, 5 propagations"),
        (("--catalog", "mermin-pentagram"), "search: 0 nodes, 4 propagations"),
        (("--input", GENERAL_MP), "search: 74 nodes, 76 propagations"),
        (("--catalog", "cabello-18"), "search: 31 nodes, 131 propagations"),
        (("--catalog", "peres-33"), "search: 47 nodes, 424 propagations"),
        (("--eigenrays", "peres-24"), "search: 31 nodes, 203 propagations"),
        (("--eigenrays", "kp-40"), "search: 127 nodes, 725 propagations"),
        (("--eigenrays", "kp-40"), "method: RayColoring (25 bases, 460 edges)"),
        (("--eigenrays", "stabilizer-60"), "search: 63 nodes, 815 propagations"),
        (("--eigenrays", "peres-24", "--mode", "bases-only"), "search: 31 nodes, 203 propagations"),
        (("--eigenrays", "kp-40", "--mode", "bases-only"), "search: 127 nodes, 725 propagations"),
        (("--eigenrays", "kp-40", "--mode", "bases-only"),
         "method: RayColoring (25 bases, 460 edges)"),
    ], ids=["mermin-peres", "mermin-pentagram", "general-mermin-peres", "cabello-18",
            "peres-33", "peres-24", "kp-40", "kp-40-method", "stabilizer-60",
            "peres-24-bases-only", "kp-40-bases-only", "kp-40-bases-only-method"])
    def test_search_line(self, capsys, tmp_path, source, line):
        option, value, *mode = source
        if option == "--eigenrays":  # a generated ray set, written as a file
            option, value = "--input", _eigenray_file(value)
        if option == "--input":
            (tmp_path / "mp.txt").write_text(value)
            value = str(tmp_path / "mp.txt")
        code, out, _ = run(capsys, "verify", option, value, *mode)
        assert code == 0
        assert line in out.splitlines()

    def test_ray_verify_lists_no_edge(self, capsys, monkeypatch, tmp_path):
        """verify reads a ray set's edges on the graph's masks, in ray and
        in bases-only mode, also where bases-only mode refuses an edge in
        no basis: OrthogonalityGraph.edges is read only by derive, whose F
        has a term per edge."""
        reads = []
        listed = compat.OrthogonalityGraph.edges.func

        def counted(graph):
            reads.append(1)
            return listed(graph)

        monkeypatch.setattr(compat.OrthogonalityGraph, "edges", property(counted))
        path = tmp_path / "kp-40.txt"
        path.write_text(_eigenray_file("kp-40"))
        for mode in ("ray", "bases-only"):
            assert run(capsys, "verify", "--input", str(path), "--mode", mode)[:2] == (
                0, "method: RayColoring (25 bases, 460 edges)\nverdict: KSProof\n"
                   "search: 127 nodes, 725 propagations\n")
        code, _, err = run(capsys, "verify", "--catalog", "cabello-18", "--mode", "bases-only")
        assert (code, "lies in no supplied basis" in err) == (3, True)
        assert reads == []
        for mode in ("ray", "bases-only"):
            assert run(capsys, "derive", "--input", str(path), "--mode", mode)[0] == 0
            assert reads, mode
            reads.clear()

    def test_ray_verify_builds_no_member(self, capsys, monkeypatch, tmp_path):
        """verify and derive read a ray set's graph and bases alone, in ray
        and in bases-only mode, with the output they had when they built
        the complete set first; export's record and the exact bound's max_F
        build every member once: 485 in ray mode, the 25 bases in
        bases-only mode.  Neither mode reaches general_unsat or
        sum_of_squares."""
        calls = []

        def counted(*args, original=derive.ContextPolynomial):
            calls.append(1)
            return original(*args)

        def unreached(*args, **kwargs):
            raise AssertionError("a ray set took the general path")

        monkeypatch.setattr(derive, "ContextPolynomial", counted)
        monkeypatch.setattr(derive, "general_unsat", unreached)
        monkeypatch.setattr(derive, "sum_of_squares", unreached)
        path = tmp_path / "kp-40.txt"
        path.write_text(_eigenray_file("kp-40"))
        for mode, members in (("ray", 485), ("bases-only", 25)):
            calls.clear()
            code, out, _ = run(capsys, "verify", "--input", str(path), "--mode", mode)
            assert code == 0
            assert out == ("method: RayColoring (25 bases, 460 edges)\n"
                           "verdict: KSProof\n"
                           "search: 127 nodes, 725 propagations\n")
            for form in ("projector", "dichotomic"):
                assert run(capsys, "derive", "--input", str(path), "--form", form,
                           "--mode", mode)[0] == 0
            assert calls == [], mode
            for command in ("export", "bound"):
                calls.clear()
                assert run(capsys, command, "--input", str(path), "--form", "projector",
                           "--mode", mode)[0] == 0
                assert len(calls) == members, (mode, command)

    def test_parity_verify_builds_no_member(self, capsys, monkeypatch, tmp_path):
        """verify, derive and the exact bound (bound, derive --exact-bound)
        read a parity set's (context, delta) rows alone, in either form (the
        projector form exits 3, as parity variables are no projectors): the
        exact bound is the coset walk's, with no max_F.  Only export's
        record builds every member, once.  No parity command reaches
        general_unsat or sum_of_squares."""
        calls = []

        def counted(*args, original=derive.ContextPolynomial):
            calls.append(1)
            return original(*args)

        def unreached(*args, **kwargs):
            raise AssertionError("a parity set took the general path or a search")

        monkeypatch.setattr(derive, "ContextPolynomial", counted)
        monkeypatch.setattr(derive, "general_unsat", unreached)
        monkeypatch.setattr(derive, "sum_of_squares", unreached)
        monkeypatch.setattr(derive, "max_F", unreached)
        path = tmp_path / "doily.txt"
        path.write_text(pauli_parity_text(2, "lines"))
        for source, members in ((["--catalog", "mermin-peres"], 6),
                                (["--catalog", "mermin-pentagram"], 5),
                                (["--input", str(path)], 15)):
            calls.clear()
            for argv, code in ((["verify"], 0), (["derive"], 0),
                               (["derive", "--form", "dichotomic"], 0),
                               (["derive", "--form", "projector"], 3),
                               (["derive", "--exact-bound"], 0), (["bound"], 0)):
                assert run(capsys, *argv, *source)[0] == code, argv
            assert calls == [], source
            assert run(capsys, "export", *source)[0] == 0
            assert len(calls) == members, source

    @pytest.mark.parametrize("cap,code", [(126, 4), (127, 0)])
    def test_ray_search_node_cap(self, capsys, tmp_path, cap, code):
        """The ray search on KP-40 takes exactly 127 nodes; one fewer stops it
        with the budget message and nothing on stdout."""
        path = tmp_path / "kp-40.txt"
        path.write_text(_eigenray_file("kp-40"))
        result = run(capsys, "verify", "--input", str(path), "--node-cap", str(cap))
        assert result[0] == code
        if code == 4:
            assert result[1:] == ("", f"error: budget-exceeded: node cap {cap} exceeded\n")

    def test_budget_exceeded(self, capsys):
        assert run(capsys, "verify", "--catalog", "cabello-18", "--node-cap", "2") == \
            (4, "", "error: budget-exceeded: node cap 2 exceeded\n")

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

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"dim 2\nray a 1 0\xff\n")
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 3 and out == ""
        assert err == "error: input: not UTF-8 text: invalid byte at offset 15\n"

    @pytest.mark.parametrize("text", ["dim 3\npoly 0\n", "dim 3000\npoly 1\n", "dim 2\n"])
    def test_no_observables(self, capsys, tmp_path, monkeypatch, text):
        # a constant member must not be evaluated as a dim x dim matrix
        def refuse(cls, n):
            raise AssertionError(f"built a {n} x {n} matrix")
        for name in ("zero", "identity"):
            monkeypatch.setattr(exact.ExactMatrix, name, classmethod(refuse))
        path = tmp_path / "empty.txt"
        path.write_text(text)
        for argv in (["verify"], ["derive"], ["export"]):
            code, out, err = run(capsys, *argv, "--input", str(path))
            assert code == 3 and out == ""
            assert err == "error: input: the file declares no observables\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--catalog", "cabello-18", "--node-cap", "abc"],
             "argument --node-cap: must be a positive integer, not 'abc'"),
            (["verify", "--catalog", "cabello-18", "--node-cap", "-5"],
             "argument --node-cap: must be a positive integer, not '-5'"),
            (["verify", "--catalog", "cabello-18", "--node-cap", "0"],
             "argument --node-cap: must be a positive integer, not '0'"),
            (["verify", "--catalog", "cabello-18", "--node-cap", "\u0663"],
             "argument --node-cap: must be a positive integer, not '\u0663'"),
            # more digits than int() reads
            (["verify", "--catalog", "cabello-18", "--node-cap", "9" * 5000],
             f"argument --node-cap: must be a positive integer, not '{'9' * 5000}'"),
            (["derive", "--catalog", "cabello-18", "--form", "bogus"],
             _choice_error("--form", "bogus", ["projector", "dichotomic"])),
            (["verify", "--catalog", "cabello-18", "--mode", "bogus"],
             _choice_error("--mode", "bogus", prooffile.MODES)),
            (["verify", "--catalog", "cabello-18", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command"),
        ],
        ids=["cap-abc", "cap-negative", "cap-zero", "cap-arabic-indic-digit", "cap-overlong", "form", "mode", "unknown-option", "no-command"],
    )
    def test_option_error(self, capsys, argv, message):
        # argparse's own exit code, 2, would read as "not a KS proof"
        assert run(capsys, *argv) == (3, "", f"error: input: {message}\n")

    def test_bound_takes_no_exact_bound(self, capsys):
        """bound always computes the exact bound; only derive and export,
        which can also stop at the certified one, take --exact-bound."""
        code, out, err = run(capsys, "bound", "--exact-bound", "--catalog", "mermin-peres")
        assert (code, out) == (3, "")
        assert err == "error: input: unrecognized arguments: --exact-bound\n"

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

    @pytest.mark.parametrize("order,message", [
        (("ray", "matrix"), "observable m duplicates a"),
        (("matrix", "ray"), "observable a duplicates m"),
    ])
    def test_ray_and_matrix_duplicates(self, capsys, tmp_path, order, message):
        # m is the projector onto a, so either is a duplicate of the other
        decls = {"ray": "ray a 1 0\nray b 0 1\n",
                 "matrix": "matrix m spectrum 0,1\nrow 1 0\nrow 0 0\n"}
        path = tmp_path / "mixed.txt"
        path.write_text("dim 2\n" + "".join(decls[k] for k in order))
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 3
        line = 2 + decls[order[0]].count("\n")  # the second declaration's first line
        assert err.strip() == f"error: input: line {line}: {message}"

    def test_projector_form_of_parity_proof(self, capsys):
        code, _, err = run(
            capsys, "derive", "--catalog", "mermin-peres", "--form", "projector"
        )
        assert code == 3
        assert "error: input: projector form requires a ray observable set" in err

    @pytest.mark.parametrize("line", ["context a z", "poly a*z - 1"])
    def test_unknown_label(self, capsys, tmp_path, line):
        path = tmp_path / "unknown.txt"
        path.write_text(f"dim 2\nray a 1 0\n{line}\n")
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 3
        assert err.strip() == "error: input: line 3: unknown observable label z"

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run(capsys, "verify", "--catalog", "nope")
        assert code == 3
        assert err.startswith("error: input: unknown catalog entry nope; have cabello-18, ")

    def test_trailing_operator_in_poly(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("dim 2\nray a 1 0\npoly a*\n")
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 3
        assert err.strip() == "error: input: line 3: unexpected end of polynomial"

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

    @pytest.mark.parametrize("text,argv,commands,message", [
        ("dim 2\nrow 1 0\n", [], EVERY, "line 2: row outside a matrix declaration"),
        ("dim 2\nmatrix m\nrow 1 0\nray a 1 0\n", [], EVERY,
         "line 4: matrix m has 1 rows, expected 2"),
        ("dim 2\nmatrix m\nrow 1 0\n", [], EVERY, "line 3: matrix m has 1 rows, expected 2"),
        ("dim 2\nmatrix m\nrow 1 0\nrow 0 1\nrow 0 0\n", [], EVERY,
         "line 5: matrix m has 3 rows, expected 2"),
        # a matrix the file ends short of rows: the last line that is not
        # blank or a comment, which is the derived marker where there is one
        ("dim 2\nmatrix m\nrow 1 0\n\n# trailing\n\n", [], EVERY,
         "line 3: matrix m has 1 rows, expected 2"),
        ("dim 2\nmatrix m\nrow 1 0\n=== derived ===\n", [], EVERY,
         "line 4: matrix m has 1 rows, expected 2"),
        ("dim 2\nray a\n", [], EVERY, "line 2: ray takes a label and components"),
        ("pauli a +X\ndim 2\n", [], EVERY, "line 1: dim must come before observables"),
        ("matrix m\ndim 2\n", [], EVERY, "line 1: dim must come before observables"),
        ("dim 2\nmatrix\n", [], EVERY, "line 2: matrix takes a label"),
        ("dim 2\nmatrix m spectrum\n", [], EVERY,
         "line 2: matrix syntax: matrix LABEL [spectrum a,b,...]"),
        ("dim 2\nmatrix m spectrum -1,1 junk\nrow 1 0\nrow 0 -1\n", [], EVERY,
         "line 2: matrix syntax: matrix LABEL [spectrum a,b,...]"),
        ("dim 2\nray a 1 0\ncontext\n", [], EVERY, "line 3: context takes observable labels"),
        ("dim 2\nray a 1 0\npoly c=0 a\n", [], EVERY, "line 3: c must be positive"),
        ("dim 2\nray a 1 0\npoly c=-1 a - 1\n", [], EVERY, "line 3: c must be positive"),
        ("dim 2\nray a 1 0\npoly c=2.5 a - 1\n", [], EVERY,
         "line 3: c must be an integer or a fraction N/M, not '2.5'"),
        ("dim 2\nray a 1 0\npoly c=+4 a - 1\n", [], EVERY,
         "line 3: c must be an integer or a fraction N/M, not '+4'"),
        ("dim 2\nray a 1 0\npoly c=4\n", [], EVERY, "line 3: empty polynomial expression"),
        ("mode auto\npoly a\n", [], EVERY, "file does not declare dim"),
        ("dim 2\nray a 1 0\npoly ()*a\n", [], EVERY, "line 3: empty scalar"),
        ("dim 3\nray a 1 0 0\nray b - 1 0\n", [], EVERY, "line 3: bad scalar term '' in '-'"),
        ("dim 2\nray a 1 0\npoly (1+)*a\n", [], EVERY, "line 3: bad scalar term '' in '1+'"),
        ("dim 2\nray a 1 0\npoly a -\n", [], EVERY, "line 3: dangling sign in polynomial"),
        ("dim 2\nray a 1 0\npoly a b\n", [], EVERY, "line 3: unexpected token 'b' after term"),
        ("dim 2\nray a 1 0\npoly ^a\n", [], EVERY,
         "line 3: unexpected token '^' in polynomial"),
        ("dim 2\nray a 1 0\npoly a $ b\n", [], EVERY,
         "line 3: cannot tokenize polynomial near ' $ b'"),
        ("dim 2\nray a 1 0\npoly\n", [], EVERY, "line 3: empty polynomial expression"),
        ("dim 2\nray a 1 0\npoly (1+i*a - 1\n", [], EVERY,
         "line 3: unclosed parenthesis in polynomial"),
        ("dim 4\npauli a +X\n", [], EVERY, "line 2: observable a has dimension 2, set has 4"),
        ("dim 3\nray a 1 0\n", [], EVERY, "line 2: observable a has dimension 2, set has 3"),
        ("dim 3\nray a 0 0\n", [], EVERY, "line 2: ray a is the zero vector"),
        ("dim 2\nmatrix m\nrow 0 1\nrow 0 0\n", [], EVERY,
         "line 2: observable m is not Hermitian"),
        ("dim 2\npauli a +X\npauli b +Z\npoly a*b - 1\n", [], EVERY,
         "line 4: observables a and b do not commute"),
        ("dim 3\nray e1 1 0 0\nray e1 0 1 0\n", [], EVERY,
         "line 3: duplicate observable label e1"),
        ("dim 2\npauli a +X\npauli b +Z\n", ["--mode", "parity"], EVERY,
         "this mode requires declared contexts"),
        ("dim 2\nray a 1 0\nray b 0 1\n", ["--mode", "general"], EVERY,
         "general mode requires user-supplied polynomials"),
        ("dim 2\nmode parity\nray a 1 0\nray b 0 1\ncontext a b\n", [], EVERY,
         "observable a is not {-1,1}-dichotomic"),
        ("dim 4\npauli a XI\npauli b IX\ncontext a b\n", [], EVERY,
         "context (a, b) product is not +-identity"),
        ("dim 3\nray e1 1 0 0\nray e2 0 1 0\n", ["--mode", "bases-only"], EVERY,
         "orthogonal pair (e1, e2) lies in no supplied basis"),
        ("dim 2\nray a 1 0\npoly r2^2*a - 1\n", [], EVERY,
         "line 3: unexpected token '^' after term"),
        ("dim 3\ndim 2\nray a 1 0\nray b 0 1\n", [], EVERY, "line 2: dim is declared twice"),
        ("dim 2\nray a 1 0\ndim 3\nray b 0 1 0\n", [], EVERY, "line 3: dim is declared twice"),
        ("dim 2\nmode ray\nmode parity\nray a 1 0\n", [], EVERY, "line 3: mode is declared twice"),
        (MP_PARITY + "context a b c\n", [], EVERY, "line 17: context a b c is declared twice"),
        (MP_PARITY + "context c a b\n", [], EVERY, "line 17: context c a b is declared twice"),
        # the source
        (None, [], EVERY, "exactly one of --catalog and --input is required"),
        (SINGLE_BASIS, ["--catalog", "cabello-18"], EVERY,
         "exactly one of --catalog and --input is required"),
        (None, ["--input", "missing.txt"], EVERY,
         "[Errno 2] No such file or directory: 'missing.txt'"),
        (None, ["--catalog", "nope"], EVERY,
         "unknown catalog entry nope; have cabello-18, mermin-pentagram, mermin-peres, peres-33"),
        (b"dim 2\nray a 1 0\xff\n", [], EVERY, "not UTF-8 text: invalid byte at offset 15"),
        ("", [], EVERY, "file does not declare dim"),
        ("dim 3\npoly 0\n", [], EVERY, "the file declares no observables"),
        # tokens and declarations
        ("dim " + "9" * 5000 + "\n", [], EVERY, "line 1: dim takes one positive integer"),
        ("dim 2\nray a 1 0\nray b 0 1\npoly a^" + "9" * 5000 + " - a\n", [], EVERY,
         "line 4: exponent must be a positive integer"),
        (GENERAL_MP.replace("a*b*c - 1", "a*b*c - a^0"), [], EVERY,
         "line 17: exponent must be a positive integer"),
        ("dim 3\nmatrix m spectrum 0,1,2\nrow 0 0 0\nrow 0 1 0\nrow 0 0 2\npoly m^9999999999 - m\n",
         [], EVERY,
         f"line 6: x^9999999999 at 2 needs 19999999998 bits, over the limit {MAX_POWER_BITS}"),
        ("dim 3\nray a 1/0 1 0\n", [], EVERY, "line 2: bad rational '1/0'"),
        ("dim 3\nmatrix m spectrum x,1\n", [], EVERY, "line 2: bad rational 'x'"),
        # numbers: ASCII digits, an optional sign and denominator, at every site
        (MP_PARITY.replace("dim 4", "dim \u0664"), [], EVERY,
         "line 1: dim takes one positive integer"),
        ("dim 2\nray a 1 0\nray b 0 1\npoly a^\u0663 - a\n", [], EVERY,
         "line 4: cannot tokenize polynomial near '\u0663 - a'"),
        ("dim 3\nray a \u0663 0 0\n", [], EVERY, "line 2: bad scalar term '\u0663' in '\u0663'"),
        ("dim 2\nray a 1 0\npoly c=\u0663 a - 1\n", [], EVERY,
         "line 3: c must be an integer or a fraction N/M, not '\u0663'"),
        ("dim 2\nmatrix m spectrum 0.0,1e0\nrow 1 0\nrow 0 0\n", [], EVERY,
         "line 2: bad rational '0.0'"),
        ("dim 2\nmatrix m spectrum 0,1e0\nrow 1 0\nrow 0 0\n", [], EVERY,
         "line 2: bad rational '1e0'"),
        ("dim 2\nmatrix m spectrum 1_0,0\nrow 10 0\nrow 0 0\n", [], EVERY,
         "line 2: bad rational '1_0'"),
        ("dim 2\nmatrix m spectrum 0,1.\nrow 1 0\nrow 0 0\n", [], EVERY,
         "line 2: bad rational '1.'"),
        ("dim 2\nmatrix m spectrum \u0660,\u0661\nrow 1 0\nrow 0 0\n", [], EVERY,
         "line 2: bad rational '\u0660'"),
        ("dim 2\nmatrix m spectrum 0,+1\nrow 1 0\nrow 0 0\n", [], EVERY,
         "line 2: bad rational '+1'"),
        ("dim 4\npauli a +QQ\n", [], EVERY,
         "line 2: pauli takes a label and a signed word over I, X, Y, Z"),
        ("dim 2\nfoo 1\n", [], EVERY, "line 2: unknown directive 'foo'"),
        ("dim 2\nray a 1 0\ncontext a z\n", [], EVERY, "line 3: unknown observable label z"),
        ("dim 2\nray a 1 0\npoly a*z - 1\n", [], EVERY, "line 3: unknown observable label z"),
        # separators: space and tab between tokens, \n, \r\n or \r after a line,
        # and no other whitespace anywhere, in a comment neither
        ("dim\u00a02\nray a 1 0\n", [], EVERY, "line 1: whitespace U+00A0 is not a space or a tab"),
        ("dim 2\nray a 1\u30000\nray b 0 1\npoly a*b\n", [], EVERY,
         "line 2: whitespace U+3000 is not a space or a tab"),
        ("dim 2\nray a 1\x0b0\nray b 0 q\n", [], EVERY,
         "line 2: whitespace U+000B is not a space or a tab"),
        ("dim 2\nray a 1\x0c0\nray b 0 q\n", [], EVERY,
         "line 2: whitespace U+000C is not a space or a tab"),
        ("dim 2\nray a 1\x850\nray b 0 q\n", [], EVERY,
         "line 2: whitespace U+0085 is not a space or a tab"),
        ("dim 2\nray a 1\u20280\nray b 0 q\n", [], EVERY,
         "line 2: whitespace U+2028 is not a space or a tab"),
        ("dim 2\n# note\x0cray z 1 q\n", [], EVERY,
         "line 2: whitespace U+000C is not a space or a tab"),
        ("dim 2\r\nray a 1 0\rray b 0\u00a01\r\n", [], EVERY,
         "line 3: whitespace U+00A0 is not a space or a tab"),
        # observables and contexts
        ("dim 3\nray a 0 0 0\n", [], EVERY, "line 2: ray a is the zero vector"),
        ("dim 2\nray a 1 0\nray b 2 0\n", [], EVERY, "line 3: observable b duplicates a"),
        ("dim 2\nmatrix m spectrum 0,2\nrow 1 0\nrow 0 0\n", [], EVERY,
         "line 2: declared spectrum ['0', '2'] does not annihilate observable m"),
        ("dim 2\nmatrix m spectrum 1,1\nrow 1 0\nrow 0 1\n", [], EVERY,
         "line 2: spectrum values must be pairwise distinct"),
        ("dim 2\npauli a X\npauli b Z\ncontext a b\n", [], EVERY,
         "line 4: observables a and b do not commute"),
        ("dim 2\npauli a +Z\ncontext a a\n", [], EVERY, "line 3: context repeats observable a"),
        # labels: a word of the polynomial grammar, so that a record reads back
        ("dim 2\nray 1 1 0\n", [], EVERY,
         "line 2: label '1' must be a letter or _ followed by letters, digits or _"),
        ("dim 2\nray a-1 1 0\n", [], EVERY,
         "line 2: label 'a-1' must be a letter or _ followed by letters, digits or _"),
        ("dim 2\npauli 2x +Z\n", [], EVERY,
         "line 2: label '2x' must be a letter or _ followed by letters, digits or _"),
        ("dim 2\nmatrix m.1\nrow 1 0\nrow 0 0\n", [], EVERY,
         "line 2: label 'm.1' must be a letter or _ followed by letters, digits or _"),
        # a line that is malformed apart from its label keeps that message
        ("dim 2\nray 1\n", [], EVERY, "line 2: ray takes a label and components"),
        ("dim 2\nray 1 x 0\n", [], EVERY, "line 2: bad scalar term 'x' in 'x'"),
        ("dim 2\npauli 1\n", [], EVERY,
         "line 2: pauli takes a label and a signed word over I, X, Y, Z"),
        ("dim 2\nmatrix 1 spectrum\n", [], EVERY,
         "line 2: matrix syntax: matrix LABEL [spectrum a,b,...]"),
        # the mode
        ("dim 2\nmatrix m spectrum 0,2\nrow 0 0\nrow 0 2\n", [], EVERY,
         "cannot infer mode: supply contexts for parity proofs, rays for ray proofs, "
         "or explicit polynomials for general proofs"),
        (None, ["--catalog", "cabello-18", "--mode", "parity"], EVERY,
         "this mode requires declared contexts"),
        (None, ["--catalog", "cabello-18", "--mode", "general"], EVERY,
         "general mode requires user-supplied polynomials"),
        (None, ["--catalog", "mermin-peres", "--mode", "ray"], EVERY,
         "orthogonality graph requires a pure ray set"),
        (None, ["--catalog", "mermin-peres", "--mode", "bases-only"], EVERY,
         "orthogonality graph requires a pure ray set"),
        (None, ["--catalog", "cabello-18", "--mode", "bases-only"], EVERY,
         "orthogonal pair (r1, r15) lies in no supplied basis"),
        # the form: verify presents none
        (None, ["--catalog", "mermin-peres", "--form", "projector"], PRESENTING,
         "projector form requires a ray observable set"),
        (GENERAL_MP, ["--form", "projector"], PRESENTING,
         "projector form requires a ray observable set"),
        ("dim 2\nray a 1 0\nmatrix m spectrum 0,2\nrow 0 0\nrow 0 2\npoly m*a\n", [],
         PRESENTING, "dichotomic substitution requires projector variables"),
        # user-supplied members: Condition 1, and the c_i that
        # UserSet.with_constants computes and names by member
        ("dim 2\nmode general\nray a 1 0\nray b 0 1\npoly 2*a - 1\n", [], EVERY,
         "polynomial 0 does not vanish as an operator"),
        (GENERAL_MP.replace("poly c=4 d*e*f - 1", "poly c=3 d*e*f - 1"), [], EVERY,
         "polynomial 1 declares c=3, but its normalization constant is 4"),
        (GENERAL_MP.replace("poly c=4 a*b*c - 1", "poly (1+r2)*a*b*c - 1 - r2"), [], EVERY,
         "polynomial 0: squared modulus is irrational; cannot normalize"),
        (GENERAL_MP + "poly a*a - 1\n", [], EVERY,
         "polynomial 6: polynomial vanishes at every spectral assignment"),
    ], ids=["row-outside-matrix", "too-few-rows", "too-few-rows-at-end", "too-many-rows-at-end",
            "too-few-rows-before-blank-lines", "too-few-rows-at-derived-marker",
            "ray-no-components", "pauli-before-dim", "matrix-before-dim", "matrix-no-label",
            "matrix-bad-spectrum", "matrix-trailing-token", "context-no-labels", "poly-c-zero",
            "poly-c-negative", "poly-c-decimal", "poly-c-plus-sign", "poly-c-no-expression",
            "no-dim", "empty-scalar", "ray-bare-sign", "poly-scalar-bare-sign",
            "dangling-sign", "token-after-term", "token-in-term", "untokenizable", "empty-poly",
            "unclosed-paren", "pauli-wrong-dim", "ray-wrong-dim", "ray-zero-and-wrong-dim",
            "matrix-not-hermitian", "poly-noncommuting", "duplicate-label", "parity-no-contexts",
            "general-no-poly", "not-dichotomic", "not-scalar-multiple", "edge-outside-bases",
            "scalar-power", "dim-twice", "dim-twice-after-observable", "mode-twice",
            "context-twice", "context-twice-reordered",
            "no-source", "both-sources", "missing-file", "unknown-catalog", "non-utf8",
            "empty-file", "no-observables",
            "overlong-dim", "overlong-exponent", "zero-exponent", "power-limit",
            "bad-rational", "bad-spectrum-value",
            "dim-arabic-indic-digit", "exponent-arabic-indic-digit", "ray-arabic-indic-digit",
            "poly-c-arabic-indic-digit", "spectrum-decimal", "spectrum-exponent",
            "spectrum-underscore", "spectrum-trailing-point", "spectrum-arabic-indic-digits",
            "spectrum-plus-sign", "bad-pauli-word", "unknown-directive",
            "unknown-label-in-context", "unknown-label-in-poly",
            "no-break-space", "ideographic-space", "vertical-tab-in-line", "form-feed-in-line",
            "next-line-in-line", "line-separator-in-line", "form-feed-in-comment",
            "no-break-space-after-crlf-and-cr",
            "ray-zero", "duplicate-ray", "spectrum-not-annihilating", "spectrum-repeated",
            "context-noncommuting", "context-repeated-label",
            "ray-label-digit", "ray-label-dash", "pauli-label-digit", "matrix-label-dot",
            "ray-bad-label-no-components", "ray-bad-label-bad-scalar",
            "pauli-bad-label-no-word", "matrix-bad-label-bad-syntax",
            "cannot-infer-mode", "catalog-parity-no-contexts", "catalog-general-no-poly",
            "catalog-ray-mode-of-paulis", "catalog-bases-only-of-paulis",
            "catalog-edge-outside-bases",
            "projector-form-of-paulis", "projector-form-of-general",
            "dichotomic-substitution",
            "condition-1", "normalization-mismatch", "irrational-member", "zero-member"])
    def test_input_error_message(self, capsys, tmp_path, monkeypatch, text, argv, commands,
                                 message):
        """Every message a command prints on exit 3, with each command
        that prints it: a message that moves fails here."""
        monkeypatch.chdir(tmp_path)
        source = []
        if text is not None:
            Path("bad.txt").write_bytes(text if isinstance(text, bytes) else text.encode())
            source = ["--input", "bad.txt"]
        for command in commands:
            result = run(capsys, command, *source, *argv)
            assert result == (3, "", f"error: input: {message}\n"), command


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
        # sometimes a byte that is not UTF-8, at a position modulo the length
        splice=st.none() | st.tuples(st.integers(0, 1 << 16),
                                     st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])),
    )
    def test_exit_codes(self, tmp_path_factory, text, argv, splice):
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        data = text.encode("utf-8")
        if splice is not None:
            at = splice[0] % (len(data) + 1)
            data = data[:at] + splice[1] + data[at:]
        path.write_bytes(data)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([*argv, "--input", str(path), "--node-cap", "500"])
        assert code in (0, 2, 3, 4)


class TestDeriveCommand:
    def test_stabilizer_rays(self, capsys, tmp_path):
        """The 60 two-qubit stabilizer states (verify: test_search_line)."""
        path = tmp_path / "stabilizer-60.txt"
        path.write_text(_eigenray_file("stabilizer-60"))
        code, out, _ = run(capsys, "derive", "--input", str(path))
        assert code == 0
        assert "bound: 104 (certified); quantum value: 105" in out.splitlines()

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

    def test_output_written_before_printing(self, capsys, tmp_path):
        _, plain, _ = run(capsys, "derive", "--catalog", "cabello-18")
        path = tmp_path / "c.rec"
        code, out, _ = run(capsys, "derive", "--catalog", "cabello-18", "--output", str(path))
        assert code == 0
        assert out == plain + f"record written to {path}\n"
        assert path.read_text().startswith("dim 4\n")
        # a failed write leaves stdout empty
        missing = tmp_path / "missing" / "c.rec"
        code, out, err = run(capsys, "derive", "--catalog", "cabello-18", "--output", str(missing))
        assert code == 3 and out == ""
        assert err.startswith("error: input: ")

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

    def test_each_c_is_computed_once(self, capsys, tmp_path, monkeypatch):
        # member 1 declares c=3, but its c is 4: every command computes the
        # c of members 0 and 1, once each, and stops with the same error
        calls = []

        def counted(cp, oset, engine=derive.normalization_constant):
            calls.append(cp)
            return engine(cp, oset)

        monkeypatch.setattr(derive, "normalization_constant", counted)
        path = tmp_path / "mp.txt"
        path.write_text(GENERAL_MP.replace("poly c=4 d*e*f - 1", "poly c=3 d*e*f - 1"))
        for argv in (["verify"], ["derive"], ["derive", "--exact-bound"], ["bound"]):
            calls.clear()
            result = run(capsys, *argv, "--input", str(path))
            assert result == (3, "", "error: input: polynomial 1 declares c=3, but its "
                                     "normalization constant is 4\n"), argv
            assert [cp.c for cp in calls] == [4, 3], argv

    @pytest.mark.parametrize("wrong_c", [False, True])
    def test_irrational_member_same_error_everywhere(self, capsys, tmp_path, wrong_c):
        # (1 + r2)(abc - 1) vanishes as an operator, but its nonzero value
        # -2(1 + r2) has the irrational squared modulus 4(3 + 2r2), so it has
        # no c; verify exits 3 after the search, as derive does.  With member 2
        # declaring a wrong c as well, the first faulty member is named.
        text = GENERAL_MP.replace("poly c=4 a*b*c - 1", "poly (1+r2)*a*b*c - (1+r2)")
        if wrong_c:
            text = text.replace("poly c=4 g*h*k - 1", "poly c=3 g*h*k - 1")
        path = tmp_path / "mp.txt"
        path.write_text(text)
        for argv in (["verify"], ["derive"], ["derive", "--exact-bound"], ["bound"]):
            code, _, err = run(capsys, *argv, "--input", str(path))
            assert code == 3, argv
            assert err == ("error: input: polynomial 0: squared modulus is irrational; "
                           "cannot normalize\n"), argv

    def test_zero_member_named(self, capsys, tmp_path):
        # a*a - 1 reduces to 0 for a dichotomic a: it vanishes as an operator
        # and at every assignment, so the proof stands but member 6 has no c
        path = tmp_path / "mp.txt"
        path.write_text(GENERAL_MP + "poly a*a - 1\n")
        for argv in (["verify"], ["derive"], ["bound"]):
            code, _, err = run(capsys, *argv, "--input", str(path))
            assert code == 3, argv
            assert err == ("error: input: polynomial 6: polynomial vanishes at every "
                           "spectral assignment\n"), argv

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
        """Every command runs decide's search once; the exact route then
        runs max_F's, on a proof only."""
        runs = []
        for module, name in ((assign, "branch_and_bound"), (derive, "ks_colorability")):
            def counted(*args, engine=getattr(module, name), name=name, **kwargs):
                runs.append(name)
                return engine(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        decided = ["ks_colorability"]
        for argv, searches in (
            (["verify"], decided), (["derive"], decided), (["export"], decided),
            (["derive", "--exact-bound"], decided + ["branch_and_bound"]),
            (["bound"], decided + ["branch_and_bound"]),
        ):
            runs.clear()
            code, _, _ = run(capsys, *argv, "--catalog", "cabello-18")
            assert code == 0
            assert runs == searches, argv


def _catalog_text(name):
    oset = catalog.get(name).load()
    return render_input_section(proof_file_from_set(oset, _auto_mode(oset, [])))


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
    "two-bases-only": lambda: render_input_section(proof_file_from_set(two_bases_set(),
                                                                       "bases-only")),
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


    @pytest.mark.parametrize("text", [
        pytest.param("dim 2\nray a 1 0\nray b 0 1\nray c 1 1\n", id="ray-in-no-member"),
        pytest.param("dim 1\nray a 1\n", id="member-reduced-to-0"),
        pytest.param("dim 4\npauli a +ZI\npauli b +IZ\npauli c +ZZ\npauli d +XI\n"
                     "poly c=4 a*b*c - 1\n", id="general-observable-in-no-member"),
    ])
    def test_every_command_assigns_every_observable(self, capsys, tmp_path, text):
        # c is in no member of the first set, the one member of the second,
        # a - 1, reduces to 0 as a's spectrum is (1,), and d is in no member
        # of the third
        path = tmp_path / "colourable.txt"
        path.write_text(text)
        pf = parse(text)
        oset, members = pf.load()
        if not members:
            graph = build_orthogonality_graph(oset)
            members = build_complete_set_rays(oset, graph, enumerate_bases(graph)).polynomials
        for argv in (["verify"], ["derive"], ["derive", "--exact-bound"], ["bound"]):
            code, out, err = run(capsys, *argv, "--input", str(path))
            assert code == 2, argv
            listed = (out.split("witness: ") if argv == ["verify"]
                      else err.split("satisfying assignment "))[1].strip()
            witness = dict(item.split("=") for item in listed.split(", "))
            assert list(witness) == oset.labels, argv
            values = {oset.by_label(label): Fraction(x) for label, x in witness.items()}
            assert all(eval_assignment(cp.poly, values).is_zero for cp in members), argv


class TestLazyProjectors:
    """Ray mode decides, derives and presents from the rays' integer keys,
    and the dichotomic form substitutes P = (1 - A)/2 in the polynomial;
    only a matrix read builds a projector."""

    @pytest.fixture
    def built(self, monkeypatch):
        built, original = [], exact.projector_from_vector

        def counted(v):
            built.append(v)
            return original(v)

        for module in (exact, model):
            monkeypatch.setattr(module, "projector_from_vector", counted)
        return built

    @pytest.mark.parametrize("name", ["cabello-18", "peres-33"])
    @pytest.mark.parametrize(
        "argv", [["verify"], ["derive"], ["export"], ["bound", "--form", "projector"]]
    )
    def test_ray_mode_builds_no_projector(self, capsys, built, name, argv):
        code, _, _ = run(capsys, *argv, "--catalog", name)
        assert code == 0
        assert built == []

    @pytest.mark.parametrize("name", ["cabello-18", "peres-33"])
    @pytest.mark.parametrize("command", ["derive", "export", "bound"])
    def test_dichotomic_form_builds_no_projector(self, capsys, built, name, command):
        code, _, _ = run(capsys, command, "--form", "dichotomic", "--catalog", name)
        assert code == 0
        assert built == []


class TestPauliWords:
    """Parity entries load, deduplicate and certify from their signed words:
    verify, derive and bound build no Pauli matrix and multiply none, and
    export builds each observable's matrix once, for its matrix rows."""

    COUNTED = (exact.mask_matrix, exact.mat_mul, exact.ExactMatrix.__hash__)

    def counted_run(self, capsys, *argv):
        names = {f.__code__: f.__name__ for f in self.COUNTED}
        calls = {name: 0 for name in names.values()}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                calls[names[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            code, _, _ = run(capsys, *argv)
        finally:
            sys.setprofile(None)
        assert code == 0
        return calls

    @pytest.mark.parametrize("name", ["mermin-peres", "mermin-pentagram"])
    @pytest.mark.parametrize("argv", [
        ["verify"], ["derive"], ["derive", "--form", "dichotomic"], ["derive", "--exact-bound"],
        ["derive", "--form", "dichotomic", "--exact-bound"], ["bound"],
    ])
    def test_no_matrix(self, capsys, name, argv):
        calls = self.counted_run(capsys, *argv, "--catalog", name)
        assert calls == dict.fromkeys(calls, 0)

    @pytest.mark.parametrize("name", ["mermin-peres", "mermin-pentagram"])
    def test_export_builds_each_matrix_once(self, capsys, name):
        calls = self.counted_run(capsys, "export", "--catalog", name)
        assert calls["mask_matrix"] == len(catalog.get(name).load())
        assert calls["mat_mul"] == calls["__hash__"] == 0


class TestIndexBuildsNoMatrix:
    """ObservableSet keys rays by their integer vectors and words by their
    masks, so no command on a ray or word set builds a projector or a
    word's matrix; export builds each catalog word's matrix for its
    `matrix` lines."""

    @staticmethod
    def _count(monkeypatch):
        built = Counter()
        for name in ("projector_from_vector", "mask_matrix"):
            def counted(*args, name=name, original=getattr(model, name)):
                built[name] += 1
                return original(*args)

            monkeypatch.setattr(model, name, counted)
        return built

    @pytest.mark.parametrize("name", ["mermin-peres", "mermin-pentagram", "cabello-18", "peres-33"])
    def test_catalog(self, capsys, monkeypatch, name):
        built = self._count(monkeypatch)
        for argv in (["verify"], ["derive"], ["derive", "--exact-bound"], ["bound"]):
            code, _, _ = run(capsys, *argv, "--catalog", name)
            assert code == 0 and not built, argv
        code, _, _ = run(capsys, "export", "--catalog", name)
        words = {"mermin-peres": 9, "mermin-pentagram": 10}.get(name, 0)
        assert code == 0 and dict(built) == ({"mask_matrix": words} if words else {})

    @pytest.mark.parametrize("name", ["peres-24", "kp-40"])
    def test_ray_files(self, capsys, monkeypatch, tmp_path, name):
        (tmp_path / "rays.txt").write_text(_eigenray_file(name), encoding="utf-8")
        built = self._count(monkeypatch)  # after the file, whose rays are built from words
        for command in ("verify", "derive"):
            code, _, _ = run(capsys, command, "--input", str(tmp_path / "rays.txt"))
            assert code == 0 and not built, command


class TestParserReuse:
    def test_no_state_between_calls(self, capsys):
        """The parser is built once per process; a failed parse and --help
        leave nothing behind for the next command."""
        assert build_parser() is build_parser()
        argv = ["verify", "--catalog", "mermin-peres"]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, _, err = run(capsys, "verify", "--catalog", "mermin-peres", "--node-cap", "0")
        assert code == 3
        assert err.startswith("error: input: ")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: kscert" in capsys.readouterr().out
        code, again, err = run(capsys, *argv)
        assert (code, again, err) == (0, first, "")


# parity inputs whose contexts are not all Pauli words, or whose words
# multiply to -I or do not commute
MIXED_INPUTS = {
    # the Mermin-Peres square with XX and YY given as matrices
    "mixed": MP_PARITY.replace("pauli c +XX\n", "matrix c\nrow 0 0 0 1\nrow 0 0 1 0\n"
                               "row 0 1 0 0\nrow 1 0 0 0\n")
                      .replace("pauli k +YY\n", "matrix k spectrum -1,1\nrow 0 0 0 -1\n"
                               "row 0 0 1 0\nrow 0 1 0 0\nrow -1 0 0 0\n"),
    "negated": "dim 2\npauli a +X\npauli b -X\ncontext a b\n",
    "noncommuting": "dim 2\npauli a +X\npauli b +Z\ncontext a b\n",
}

# exit code and sha256 of stdout and of stderr, pinned before Pauli
# contexts were multiplied as words; the verify digests of mixed and
# negated since parity sets are decided by elimination, whose method and
# search lines they print
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
NOT_PROOF = "6f5ad3d9115b1b06a17b9cfbf53de4fed28fe5cb5830cfe0ae77bf112bd207f0"
NOT_COMMUTING = "45b30649ad3599477f8174ebd5a374e6cab1168fc614e878cf4a30f3b735dcf9"
MIXED_DIGESTS = {
    ("mixed", "verify"): (0, "63fe254c36ada9ffdd5aa0415a370292bd76a1e3ac4ee4526a846e9a50a8af93", EMPTY),
    ("mixed", "derive"): (0, "28a607e76e32a82aa06461134f112cde095ac3b64814e4d5a0776096ef831a3b", EMPTY),
    ("mixed", "bound"): (0, "bbddedad9f7c7301bc082aa322fbdc07b054665c01476a4ebe455fd292e42e1d", EMPTY),
    ("negated", "verify"): (2, "dc55a211867a0b910689dd244862388b64159bdb951a481a30b47f8b69fcce48", EMPTY),
    ("negated", "derive"): (2, EMPTY, NOT_PROOF),
    ("negated", "bound"): (2, EMPTY, NOT_PROOF),
    ("noncommuting", "verify"): (3, EMPTY, NOT_COMMUTING),
    ("noncommuting", "derive"): (3, EMPTY, NOT_COMMUTING),
    ("noncommuting", "bound"): (3, EMPTY, NOT_COMMUTING),
}


class TestMixedParityOutputs:
    @pytest.mark.parametrize("name,command", list(MIXED_DIGESTS))
    def test_sha256_of_outputs(self, capsys, monkeypatch, tmp_path, name, command):
        (tmp_path / f"{name}.txt").write_text(MIXED_INPUTS[name], encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # derive prints the input path
        code, out, err = run(capsys, command, "--input", f"{name}.txt")
        out, err = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
        assert (code, out, err) == MIXED_DIGESTS[name, command]

    def test_noncommuting_names_the_pair(self, capsys, tmp_path):
        path = tmp_path / "xz.txt"
        path.write_text(MIXED_INPUTS["noncommuting"])
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert (code, err) == (3, "error: input: line 4: observables a and b do not commute\n")


def _parity_set(text):
    oset, _ = parse(text).load()
    return build_complete_set_parity(oset, oset.declared_contexts)


def _recounted(cs, cert) -> bool:
    """Mermin's parity argument, recounted from the certificate: every
    observable lies in an even number of its contexts, and an odd number
    of them have delta = -1."""
    rows = [cs.rows[k] for k in cert.contexts]
    held = Counter(i for ctx, _ in rows for i in ctx)
    return all(m % 2 == 0 for m in held.values()) and sum(d == -1 for _, d in rows) % 2 == 1


def _violated(rows, witness) -> int:
    """The number of (context, delta) rows whose product under witness is
    not delta."""
    return sum(math.prod(witness[i] for i in ctx) != delta for ctx, delta in rows)


def _zeroes_every_member(cs, witness) -> bool:
    return all(eval_assignment(cp.poly, witness).is_zero for cp in cs.polynomials)


# every parity input of these tests, with the two-qubit lines (the doily)
# and the three-qubit lines, W(5,2), from conftest.pauli_parity_text; all
# but negated and dropped-column are proofs
PARITY_INPUTS = {
    "mermin-peres": lambda: _catalog_text("mermin-peres"),
    "mermin-pentagram": lambda: _catalog_text("mermin-pentagram"),
    "mixed": lambda: MIXED_INPUTS["mixed"],
    "negated": lambda: MIXED_INPUTS["negated"],
    "dropped-column": lambda: MP_PARITY.replace("context c f k\n", ""),
    "doily": lambda: pauli_parity_text(2, "lines"),
    "w52": lambda: pauli_parity_text(3, "lines"),
}


class TestParityElimination:
    """ParitySet.decide eliminates the set's rows; general_unsat, the
    search it replaced, is the oracle."""

    def _check(self, cs):
        cert = cs.decide()
        assert cert.method == "ParityElimination"
        assert cert.stats.nodes == 0
        assert cert.is_proof == assign.general_unsat(cs.oset, cs.polynomials).is_proof
        if cert.is_proof:
            assert _recounted(cs, cert)
        else:
            assert cert.contexts is None
            assert sorted(cert.witness) == list(range(len(cs.oset)))
            assert _zeroes_every_member(cs, cert.witness)
        return cert

    @pytest.mark.parametrize("name", sorted(PARITY_INPUTS))
    def test_agrees_with_search(self, name):
        cert = self._check(_parity_set(PARITY_INPUTS[name]()))
        assert cert.is_proof == (name not in ("negated", "dropped-column"))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([(2, "lines"), (3, "lines"), (3, "maximal")]), data=st.data())
    def test_random_signed_pauli_systems(self, kind, data):
        n = kind[0]
        words, contexts = pauli_contexts(*kind)
        signs = data.draw(st.lists(st.sampled_from("+-"), min_size=len(words),
                                   max_size=len(words)))
        chosen = data.draw(st.lists(st.sampled_from(contexts), max_size=15, unique=True))
        oset = model.ObservableSet(dim=2 ** n)
        for w, sign in zip(words, signs):
            oset.add(model.pauli_observable(sign + pauli_word(w, n), label=pauli_word(w, n)))
        # words are 1, 2, ...: word w has id w - 1, so each context is sorted
        self._check(build_complete_set_parity(oset, [tuple(w - 1 for w in c) for c in chosen]))

    def test_parity_commands_do_not_search(self, capsys, monkeypatch, tmp_path):
        def unreached(*args, **kwargs):
            raise AssertionError("a parity set was searched")

        monkeypatch.setattr(derive, "general_unsat", unreached)
        for name, text in PARITY_INPUTS.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(text())
            want = 2 if name in ("negated", "dropped-column") else 0
            commands = [["verify"], ["derive"], ["export"]]
            if name != "w52":  # its exact bound is still a long search
                commands += [["derive", "--exact-bound"], ["bound"]]
            for argv in commands:
                code, _, _ = run(capsys, *argv, "--input", str(path))
                assert code == want, (name, argv)

    @pytest.mark.parametrize("n,kind,counts", [
        (2, "lines", (15, 15)), (3, "lines", (63, 315)), (3, "maximal", (63, 135)),
        (4, "maximal", (255, 2295)),
    ], ids=["doily", "w52", "three-qubit-maximal", "four-qubit-maximal"])
    def test_pauli_group_counts(self, n, kind, counts):
        words, contexts = pauli_contexts(n, kind)
        assert (len(words), len(contexts)) == counts
        assert {len(c) for c in contexts} == {3 if kind == "lines" else 2 ** n - 1}
        assert sorted({w for c in contexts for w in c}) == list(words)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_signed_four_qubit_maximal_sets(self, capsys, tmp_path, seed):
        """Colourable, as every maximal-set family is: a word's sign flips
        one x_i.  Under the cap no search would finish; the elimination
        runs none."""
        text = pauli_parity_text(4, "maximal", seed)
        assert "-" in text
        path = tmp_path / "four.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "verify", "--input", str(path), "--node-cap", "1000")
        assert code == 2
        assert "verdict: NotKSProof" in out
        cs = _parity_set(text)
        listed = out.split("witness: ")[1].strip()
        witness = {cs.oset.by_label(label): Fraction(v)
                   for label, v in (item.split("=") for item in listed.split(", "))}
        assert sorted(witness) == list(range(255))
        assert _zeroes_every_member(cs, witness)

    def test_exact_route_decides_first(self, capsys, tmp_path):
        """The colourable three-qubit maximal sets: bound and derive
        --exact-bound exit 2 with verify's witness, under a cap that max_F
        alone exceeds."""
        path = tmp_path / "three.txt"
        path.write_text(pauli_parity_text(3, "maximal"))
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 2
        witness = out.split("witness: ")[1].strip()
        for argv in (["bound"], ["derive", "--exact-bound"]):
            code, _, err = run(capsys, *argv, "--input", str(path), "--node-cap", "1000")
            assert (code, err.strip().split("satisfying assignment ")[1]) == (2, witness)

    def test_exact_bound_stops_at_its_ceiling(self, capsys, tmp_path):
        """The doily's exact bound, F = -3, is its coset walk's: no search,
        so any cap holds, where the full search takes 1,970 nodes.  W(5,2)'s
        rank is too large for the walk: max_F searches with the ceiling -1,
        which no assignment reaches, and it still exceeds the cap."""
        outs = {}
        for name, cap, want in (("doily", "1", 0), ("w52", "1000", 4)):
            path = tmp_path / f"{name}.txt"
            path.write_text(PARITY_INPUTS[name]())
            code, outs[name], _ = run(capsys, "bound", "--input", str(path), "--node-cap", cap)
            assert code == want, name
        assert "exact classical maximum: 9" in outs["doily"]


# sha256 of the standard output of bound on the parity proofs, whose exact
# bound and `attained at:` witness are the coset walk's
PARITY_BOUND_DIGESTS = {
    "mermin-peres": "03815add1821e23c12635618039c39af001b21b5cf5ffba0d16e248f2d2d72b9",
    "mermin-pentagram": "6227b8ff6327b7d893342fc46d95c04208452ed31e18ee0ec5d07cb14d583f31",
    "doily": "6c853a639b201e2a42ddb4ce769bd35b951aba7781bed1022880e3f302a92620",
}


class TestBoundCommand:
    @pytest.mark.parametrize("name", list(PARITY_BOUND_DIGESTS))
    def test_sha256_of_parity_stdout(self, capsys, tmp_path, name):
        (tmp_path / "doily.txt").write_text(PARITY_INPUTS["doily"]())
        source = ["--input", str(tmp_path / "doily.txt")] if name == "doily" else ["--catalog", name]
        code, out, _ = run(capsys, "bound", *source)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PARITY_BOUND_DIGESTS[name]

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
        ids = {label: i for i, label in enumerate(pres.labels)}
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


# sha256 lines of the catalog export records, pinned so that a change which
# moves any byte of a record shows: each entry in each form it accepts
# (parity entries are dichotomic only), without and with --exact-bound
EXPORT_DIGESTS = {
    ("mermin-peres", "dichotomic", False): "b9759aec6bff95c396e2c8301feb1bdb648d528ebbcf1b6a53b62efb48fea516",
    ("mermin-peres", "dichotomic", True): "06108c9f0e0634ff8e688c8973356fc4bc3ce817e779f8b4afcdf67643904848",
    ("mermin-pentagram", "dichotomic", False): "1e1d34f3e3aab53f4eb089dd35e4cb40e35035c87acc772fa19862927d419e8d",
    ("mermin-pentagram", "dichotomic", True): "d4c1eef7fe9c0c040538290f9663f2218adb39af287de0b830a42ca159d55446",
    ("cabello-18", "projector", False): "e9153f3275ed54cb3426b1a67c63592063e8f5171988679803b9ccb9f6361c55",
    ("cabello-18", "projector", True): "9849c371a74cbc356231dfb68f5b270e239e7bb8e03288321eed18d226d952a4",
    ("cabello-18", "dichotomic", False): "861b594209f994d87519e717093a136120f061586fb2334621432aab64e1cd2d",
    ("cabello-18", "dichotomic", True): "d39d05bba162e9276dbb089e16138031bd6f336b8c128c02ad65d1bb7c899965",
    ("peres-33", "projector", False): "12c3d6233a5741b0941f90119f876b23a676544c1920002bcee85c40bd29ea97",
    ("peres-33", "projector", True): "dc534d6c8c9d881f8ec075475e125817c29d21d85e2e9feffd37319111e6ac4d",
    ("peres-33", "dichotomic", False): "7a544ac123cd62a8f90488b137c7849db3a9bfab8890e51cccf9c2fee344715d",
    ("peres-33", "dichotomic", True): "f896c74a0c96af82602c32c8069b41326f6b5a237c68f8516f45f962ef3864ed",
}


class TestExportRecordDigests:
    """The catalog export records stay byte-identical."""

    @pytest.mark.parametrize("name,form,exact_bound", list(EXPORT_DIGESTS))
    def test_sha256_line(self, capsys, name, form, exact_bound):
        argv = ["export", "--catalog", name, "--form", form] + ["--exact-bound"] * exact_bound
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == f"sha256 {EXPORT_DIGESTS[name, form, exact_bound]}"


# sha256 of the standard output of derive, export, derive --exact-bound and
# bound, in both forms, on Peres' 24 and Kernaghan and Peres' 40 rays
# (conftest.eigenray_set), each written as a ray file and read by its
# relative name, in ray mode and with --mode bases-only
WORKLOAD_DIGESTS = {
    ("peres-24", "derive", "projector"): "9796d3e2411214983636231ad945132bf9d6096c172f0df740476d9f44de0d57",
    ("peres-24", "derive", "dichotomic"): "cd959aa0690017fdcacd8220c8d63f60408a47fcbb980f74e05195d716eac456",
    ("peres-24", "export", "projector"): "353167370acfac960e11bbba28a7a3ce4d0f0d119260e54c6c19a4cde89bb07c",
    ("peres-24", "export", "dichotomic"): "a211b6e1a9d5acbdb8f841c037282f64ae390a29e68f115bdd28c59c84d0932c",
    ("kp-40", "derive", "projector"): "09716e6a5ad0a1b158be560dc44254b24fdb4e7cacd8574eedc22df9ac4ac429",
    ("kp-40", "derive", "dichotomic"): "ce1682eedc07ab5a1ac14416c10039a62a0ed5ca493e68557ae73564403fd909",
    ("kp-40", "export", "projector"): "a7cda7f70aeb74c6e4b8453d9ff6c3b5e8b7860352fe67a380c43cc7fad484fe",
    ("kp-40", "export", "dichotomic"): "e128480ba2588a1e90ce1650e06fda29b752e0bb18e33f45b0e2fb54e50ff5c4",
    ("peres-24", "derive --exact-bound", "projector"): "442dd99ae1ef8adfe627f69c89b3bb4be4439fd1c9401f250e98845812f2d834",
    ("peres-24", "derive --exact-bound", "dichotomic"): "c04125a1b02bb67a3ec94c840065a9b1c7032229bb53e7796731416f18f00f11",
    ("peres-24", "bound", "projector"): "65c018b61de04d53b7e354109a50f3e7135bba5884fcaa06305477166611cf2e",
    ("peres-24", "bound", "dichotomic"): "6296830bf858f19acfce84b7555414924b4c9233fe7bd192ba53cab2e53f3f2e",
    ("kp-40", "derive --exact-bound", "projector"): "4a21a27d6ee496b847e1ceb6b4baaab98ccfb8378544eeda6afaca0c5637e8d2",
    ("kp-40", "derive --exact-bound", "dichotomic"): "7d1aef461476c09caa37d87ceb2fc753174f15e61d29500d3cc2606801610681",
    ("kp-40", "bound", "projector"): "2c9255b75dae3c1456a2738bdcf8a87f6bd0184c99c23a02aac92ea4836b3584",
    ("kp-40", "bound", "dichotomic"): "7ed3e7e63ac456f1e2aebb823fff61e708b7cfb42f6ebcd4f08d44a36d4cc05c",
    ("peres-24", "derive --mode bases-only", "projector"): "b2bd14aab8f7c96ff8a9b6366a865faf0432231df49118e0312f66b8df1d0ba8",
    ("peres-24", "derive --mode bases-only", "dichotomic"): "1bc3c8d99b1a91772e3c6f3691e307e2d084f6021462250c9ac8da8df3a177e3",
    ("kp-40", "derive --mode bases-only", "projector"): "0a0c836d197f816c9b38dcbf3f3f3e04769854ffe6e11ca1d61346a493909b72",
    ("kp-40", "derive --mode bases-only", "dichotomic"): "23620de7b7b0670ecc431f30e51e72467219ad653ebce2b5da60f0fa21525239",
    ("peres-24", "export --mode bases-only", "projector"): "c58d2250436fa2165b24e4725e0de28906d7a55df82bf27db8a4b70aeb6a9eaf",
    ("peres-24", "export --mode bases-only", "dichotomic"): "5ee7430b2389c3a4741493986da02e2139948c52e9775528ec0f331ac6a53839",
    ("kp-40", "export --mode bases-only", "projector"): "95ec0c1935586a230f216c4b6a9cfb21fce55328623da995f258a2272d6a7ae7",
    ("kp-40", "export --mode bases-only", "dichotomic"): "5ee775b9158cf9a3f0afbcfaca5e4d7549804a4b849efe794e7b4923d0341cdb",
    ("peres-24", "derive --exact-bound --mode bases-only", "projector"): "c4c0c367670fa6e24be3422429430a35caa1caaf1a5ab31f719110c04694dd6e",
    ("peres-24", "derive --exact-bound --mode bases-only", "dichotomic"): "c03dbdbf254f64552eea6fda30f111792dbb78ad855ff7c118e440f054a2890e",
    ("kp-40", "derive --exact-bound --mode bases-only", "projector"): "d721941fe06403d1de1eda2a0de4d7daeadb4edd8f4747d47d668887b9989ce4",
    ("kp-40", "derive --exact-bound --mode bases-only", "dichotomic"): "a1255e73230da4d8fd3647c2c9441fda2192c2a2eed777e26e7954c9109c4dfa",
    ("peres-24", "bound --mode bases-only", "projector"): "8c0fecb57da365be09ec4a9552738474dcf1f6756dd14272f891e613e774787b",
    ("peres-24", "bound --mode bases-only", "dichotomic"): "d5a066ceabf9c06ee833e302663057cfb1500947f46f0afce42fbfa9d1ae3c34",
    ("kp-40", "bound --mode bases-only", "projector"): "5a306187b66b366073ad18b69900e27fd9a8dfb0662b1c84bbba345cb69f0db3",
    ("kp-40", "bound --mode bases-only", "dichotomic"): "81d40b61790a854dd7036c4e60e1cecf4c0191cf37b2c71b2e9a9970cad22ce0",
}


@functools.cache
def _eigenray_file(name):
    if name == "stabilizer-60":
        return render_input_section(proof_file_from_set(stabilizer_ray_set(), "ray"))
    source, prefix = {"peres-24": ("mermin-peres", "p"), "kp-40": ("mermin-pentagram", "k")}[name]
    return render_input_section(proof_file_from_set(eigenray_set(source, prefix), "ray"))


# sha256 of the standard output of verify on the generated ray sets and on
# two colourable ray files, one read in bases-only mode, whose output ends
# in a witness line
VERIFY_DIGESTS = {
    "peres-24": "f6238f5ec28feadbc4a191697937fa1b29706a47a6c831a8442a988d2356b0a4",
    "kp-40": "d31716e07988cd1d25655c8a5ccfb087079b35195418429225afeae71fc92927",
    "cabello-less-ray": "02c328c81de17f21cfa5e2612655276b032c522ab37b58bfd40ce087a72aa454",
    "two-bases-only": "c4cdfae7c26074b5f766e133ad5a4aca667990620684c68b939cd3bd78a0e1f3",
}


class TestWorkloadOutputDigests:
    """verify, derive, export and the exact bound on the generated ray sets
    stay byte-identical."""

    @pytest.mark.parametrize("name", list(VERIFY_DIGESTS))
    def test_sha256_of_verify_stdout(self, capsys, tmp_path, name):
        text = AGREEMENT_INPUTS[name]() if name in AGREEMENT_INPUTS else _eigenray_file(name)
        (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--input", str(tmp_path / f"{name}.txt"))
        assert code == (2 if name in AGREEMENT_INPUTS else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[name]

    @pytest.mark.parametrize("name,command,form", list(WORKLOAD_DIGESTS))
    def test_sha256_of_stdout(self, capsys, monkeypatch, tmp_path, name, command, form):
        (tmp_path / f"{name}.txt").write_text(_eigenray_file(name), encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # derive prints the input path
        code, out, _ = run(capsys, *command.split(), "--input", f"{name}.txt", "--form", form)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == WORKLOAD_DIGESTS[name, command, form]


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

    @pytest.mark.parametrize("name", catalog.names())
    def test_round_trip_under_mode_auto(self, capsys, tmp_path, name):
        # an entry's mode is the one mode auto infers from the set it prints
        _, text, _ = run(capsys, "catalog", name)
        assert text == _catalog_text(name)
        lines = text.splitlines(keepends=True)
        assert lines[1] in ("mode parity\n", "mode ray\n")
        lines[1] = "mode auto\n"
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(lines))
        for command in ("verify", "derive", "export"):
            code, out, err = run(capsys, command, "--input", str(path))
            out = out.replace(f"input: {path}\n", f"input: {name}\n", 1)
            assert (code, out, err) == run(capsys, command, "--catalog", name), command


def test_python_m_kscert_runs_the_command_line(capsys):
    """`python -m kscert` (kscert/__main__.py) is the command line: a fresh
    interpreter prints what main prints, with the same exit code."""
    src = str(Path(kscert.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["verify", "--catalog", "mermin-peres"]
    done = subprocess.run([sys.executable, "-m", "kscert", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
    assert done.returncode == 0


# run by a fresh `python -S`: the modules that verify --input leaves
# imported, then those that export --catalog adds, and export's record
_IMPORTS_BY_COMMAND = """
import contextlib, io, sys
from kscert.cli import main
WATCHED = ("dataclasses", "inspect", "hashlib", "typing", "kscert.catalog")
for argv in (["verify", "--input", sys.argv[1]], ["export", "--catalog", "mermin-peres"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    print(repr((code, [m for m in WATCHED if m in sys.modules], out.getvalue())))
"""


def test_a_command_imports_only_what_its_path_runs(capsys, tmp_path):
    """A ray file's verify imports neither dataclasses, inspect, hashlib,
    typing nor the catalog; export --catalog then imports the catalog and
    hashlib, but not typing, and its record is main's, whose sha256 line
    hashes the body above it.  A fresh interpreter without site runs both,
    so that nothing a test or a .pth file imported counts."""
    path = tmp_path / "cabello-18.txt"
    path.write_text(_catalog_text("cabello-18"))
    src = str(Path(kscert.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", _IMPORTS_BY_COMMAND, str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert done.stderr == ""
    verify, export = map(ast.literal_eval, done.stdout.splitlines())
    assert verify[:2] == (0, [])
    assert export[:2] == (0, ["hashlib", "kscert.catalog"])
    assert export[2] == run(capsys, "export", "--catalog", "mermin-peres")[1]
    body, digest = export[2].rstrip("\n").rsplit("\nsha256 ", 1)
    assert digest == hashlib.sha256(body.encode("utf-8")).hexdigest()
