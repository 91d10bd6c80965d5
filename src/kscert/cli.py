"""Command-line workflow: verify / derive / bound / export / catalog.

Exit codes: 0 success, 2 input is not a KS proof, 3 input error,
4 search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import namedtuple

from .assign import DEFAULT_NODE_CAP
from .compat import build_orthogonality_graph, enumerate_bases
from .derive import (
    assemble_F,
    build_complete_set_bases_only,
    build_complete_set_general,
    build_complete_set_parity,
    build_complete_set_rays,
    check_form,
    present,
    witness_str,
)
from .errors import KSCertError, NotKSProofError, SearchBudgetExceeded
from .poly import render
from .prooffile import (MODES, _positive_int, parse_file, proof_file_from_set,
                        render_input_section, render_record)

EXIT_OK = 0
EXIT_NOT_PROOF = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


# proof_file is None for a catalog entry: _write_record builds it from the
# set, only where a record is rendered
_Loaded = namedtuple("_Loaded", "oset mode user_polys proof_file source")


def _load(args) -> _Loaded:
    if bool(args.catalog) == bool(args.input):
        raise KSCertError("exactly one of --catalog and --input is required")
    if args.catalog:  # an entry reads as a file that declares mode auto
        from . import catalog  # only a catalog command imports the catalog

        pf, oset, user_polys, declared = None, catalog.get(args.catalog).load(), [], "auto"
    else:
        pf = parse_file(args.input)
        (oset, user_polys), declared = pf.load(), pf.mode
    mode = args.mode if args.mode != "auto" else declared
    if mode == "auto":
        mode = _auto_mode(oset, user_polys)
    if pf is not None:
        pf = pf._replace(mode=mode)
    return _Loaded(oset, mode, user_polys, pf, args.catalog or args.input)


def _auto_mode(oset, user_polys) -> str:
    if user_polys:
        return "general"
    if oset.all_rays:
        return "ray"
    if oset.all_dichotomic and oset.declared_contexts:
        return "parity"
    raise KSCertError(
        "cannot infer mode: supply contexts for parity proofs, rays for "
        "ray proofs, or explicit polynomials for general proofs"
    )


def _build_complete_set(loaded):
    oset, mode = loaded.oset, loaded.mode
    if mode in ("ray", "bases-only"):
        graph = build_orthogonality_graph(oset)
        build = build_complete_set_rays if mode == "ray" else build_complete_set_bases_only
        return build(oset, graph, enumerate_bases(graph))
    if mode == "parity":
        if not oset.declared_contexts:
            raise KSCertError("this mode requires declared contexts")
        return build_complete_set_parity(oset, oset.declared_contexts)
    # general, the last of MODES: _load has resolved auto
    if not loaded.user_polys:
        raise KSCertError("general mode requires user-supplied polynomials")
    return build_complete_set_general(oset, loaded.user_polys)


def cmd_verify(args) -> int:
    loaded = _load(args)
    cs = _build_complete_set(loaded)  # a ray or parity set's members are not built
    cert = cs.decide(args.node_cap)
    if cert.is_proof:
        cs.with_constants()  # exit 3 where derive cannot fix a c_i
    print(f"method: {cert.method} ({cs.size_text()})")
    print(f"verdict: {cert.verdict}")
    print(f"search: {cert.stats.nodes} nodes, {cert.stats.propagations} propagations")
    if cert.witness is not None:
        print(f"witness: {witness_str(cert.witness, loaded.oset.labels)}")
    return EXIT_OK if cert.is_proof else EXIT_NOT_PROOF


def _derive(loaded, args, exact_bound):
    cs = _build_complete_set(loaded)
    form = args.form or ("projector" if loaded.oset.all_rays else "dichotomic")
    check_form(cs, form)
    ineq = assemble_F(cs, exact_bound=exact_bound, node_cap=args.node_cap)
    return ineq, present(ineq, form)


def _print_inequality(loaded, ineq, presented):
    cs = ineq.complete_set
    print(f"input: {loaded.source}")
    print(f"mode: {loaded.mode}")
    print(f"complete set: {len(cs)} polynomials ({cs.provenance})")
    print(f"F = {render(ineq.F, loaded.oset.labels)}")
    # every complete-set builder certifies Condition 1, and that makes F zero
    print("quantum certificate: operator F is zero: True")
    print(f"classical certificate on F: {ineq.classical.statement} ({ineq.classical.kind})")
    print(f"form: {presented.form}")
    print(f"inequality: {render(presented.score, presented.labels)} <= {presented.classical_bound}")
    print(
        f"bound: {presented.classical_bound} ({ineq.classical.kind}); "
        f"quantum value: {presented.quantum_value}"
    )


def _write_record(loaded, ineq, presented, path):
    """The derivation record, written to path, or to stdout without one."""
    pf = loaded.proof_file or proof_file_from_set(loaded.oset, loaded.mode)
    record = render_record(pf, ineq, presented)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(record)
    else:
        sys.stdout.write(record)


def cmd_derive(args) -> int:
    loaded = _load(args)
    ineq, presented = _derive(loaded, args, args.exact_bound)
    if args.output:  # written first, so that a failed write prints nothing
        _write_record(loaded, ineq, presented, args.output)
    _print_inequality(loaded, ineq, presented)
    if args.output:
        print(f"record written to {args.output}")
    return EXIT_OK


def cmd_bound(args) -> int:
    loaded = _load(args)
    _, presented = _derive(loaded, args, exact_bound=True)
    print(f"form: {presented.form}")
    print(f"exact classical maximum: {presented.classical_bound}")
    print(f"quantum value: {presented.quantum_value}")
    print(f"attained at: {witness_str(presented.witness, presented.labels)}")
    return EXIT_OK


def cmd_export(args) -> int:
    loaded = _load(args)
    ineq, presented = _derive(loaded, args, args.exact_bound)
    _write_record(loaded, ineq, presented, args.output)
    return EXIT_OK


def cmd_catalog(args) -> int:
    from . import catalog

    if args.name:
        oset = catalog.get(args.name).load()
        sys.stdout.write(render_input_section(proof_file_from_set(oset, _auto_mode(oset, []))))
        return EXIT_OK
    for name in catalog.names():
        entry = catalog.get(name)
        print(f"{name:18s} {entry.description}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Option errors exit 3, as argparse's own 2 means "not a KS proof"."""

    def error(self, message):
        raise KSCertError(message)


def _node_cap(text: str) -> int:
    try:
        return _positive_int(text, f"must be a positive integer, not {text!r}")
    except KSCertError as ex:  # argparse puts the option's name before this type's message
        raise argparse.ArgumentTypeError(str(ex)) from None


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state
    between calls."""
    ap = _Parser(
        prog="kscert",
        description="Verify Kochen-Specker proofs and derive the "
        "state-independent noncontextuality inequalities they induce.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_form=False, with_output=False):
        p.add_argument("--catalog", help="built-in proof name")
        p.add_argument("--input", help="proof file path")
        p.add_argument("--mode", choices=MODES, default="auto")
        p.add_argument("--node-cap", type=_node_cap, default=DEFAULT_NODE_CAP)
        if with_form:
            p.add_argument("--form", choices=["projector", "dichotomic"])
        if with_output:
            p.add_argument("--exact-bound", action="store_true")
            p.add_argument("--output", help="write the derivation record here")

    p = sub.add_parser("verify", help="check whether the input is a KS proof")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="run the full inequality derivation")
    common(p, with_form=True, with_output=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("bound", help="exact classical maximum of the derived score")
    common(p, with_form=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("export", help="derive and write the machine-readable record")
    common(p, with_form=True, with_output=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("catalog", help="list or show built-in proofs")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotKSProofError as ex:
        print(f"error: not-a-ks-proof: {ex}", file=sys.stderr)
        return EXIT_NOT_PROOF
    except SearchBudgetExceeded as ex:
        print(f"error: budget-exceeded: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except (KSCertError, OSError) as ex:
        print(f"error: input: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
