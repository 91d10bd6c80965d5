"""The benchmark's workloads: each is a fixed cycle of kscert CLI commands,
and every command carries the check its output must pass.

* catalog-mix -- the everyday user mix: verify, derive and export on the
  four catalog entries, the dichotomic presentation of the two catalog ray
  sets, the exact classical maximum (`derive --exact-bound` and `bound`) of
  the two parity proofs, the generated Peres-24 set, and seeded near-miss
  inputs whose search must find a witness rather than exhaust the tree.
  Every layer works and none dominates; it is the only workload in which
  assign.classical_max runs.
* kp40-derive -- verify and derive (certified, projector form) on the
  generated Kernaghan-Peres-40 set in d = 8, where operator evaluation
  (poly.eval_operator -> exact.mat_mul) does nearly all of the work and
  assign.classical_max none.

cabello-18 `derive --exact-bound` is left out: that one command runs 53-76 s,
longer than a whole run may take.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

PARITY = ("mermin-peres", "mermin-pentagram")
CATALOG_RAYS = ("cabello-18", "peres-33")

# (classical bound, quantum value) of each proof's default presentation:
# dichotomic for the parity proofs; projector form for ray sets, where a
# set with B bases has quantum value B and bound B - 1.
KNOWN = {
    "mermin-peres": (4, 6),
    "mermin-pentagram": (3, 5),
    "cabello-18": (8, 9),
    "peres-33": (15, 16),
    "peres-24": (23, 24),
    "kp-40": (24, 25),
}


def dichotomic_values(rays) -> tuple:
    """(bound, quantum value) of a ray set's dichotomic presentation.

    F = -sum_edges PiPj - sum_bases (sum P - 1)^2 is quadratic, so the
    presentation scales by 1/4, and the offset is the mean of F over all
    {0,1} assignments: F at P = 1/2.  A basis term is then
    n(n-1)/4 - n/2 + 1 and an edge term 1/4.
    """
    n = rays.dim
    per_basis = Fraction(n * (n - 1), 4) - Fraction(n, 2) + 1
    quantum = 4 * (Fraction(len(rays.edges), 4) + len(rays.bases) * per_basis)
    return quantum - 4, quantum


@dataclass
class Command:
    kind: str  # "verify", or "derive" for every command that runs the derivation
    argv: list
    check: Callable[[int, str, str], Optional[str]]  # error message or None


def _line(text: str, prefix: str) -> Optional[str]:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _parse_witness(text: str) -> dict:
    out = {}
    for item in text.split(","):
        label, _, value = item.strip().partition("=")
        out[label] = Fraction(value)
    return out


def _expect(rc_want: int, *checks):
    def check(rc, out, err):
        if rc != rc_want:
            return f"exit {rc}, expected {rc_want}: {err.strip()[:200]}"
        for c in checks:
            msg = c(out, err)
            if msg:
                return msg
        return None

    return check


def _has(line: str):
    return lambda out, err: None if line in out.splitlines() else f"missing {line!r}"


def _witness(rays, text_of):
    def check(out, err):
        text = text_of(out, err)
        if text is None:
            return "no witness printed"
        return rays.witness_error(_parse_witness(text))

    return check


def _derived(bound, quantum, kind="certified"):
    return _has(f"bound: {bound} ({kind}); quantum value: {quantum}")


def _record_check(bound, quantum):
    """An export record hashes to its own sha256 line, states the known
    bound, and is byte-identical every time the command runs."""
    first = []

    def check(out, err):
        body, sep, tail = out.rpartition("\nsha256 ")
        if not sep or tail.strip() != hashlib.sha256(body.encode()).hexdigest():
            return "record hash does not match its body"
        for line in (f"classical_bound {bound}", f"quantum_value {quantum}"):
            if line not in body.splitlines():
                return f"record lacks {line!r}"
        if not first:
            first.append(out)
        elif out != first[0]:
            return "record differs from the first export"
        return None

    return check


def _ray_counts(rays):
    return _has(f"method: RayColoring ({len(rays.bases)} bases, {len(rays.edges)} edges)")


def _complete_set(rays):
    n = len(rays.edges) + len(rays.bases)
    return _has(f"complete set: {n} polynomials (RayEdgesBases)")


def _proof_commands(src: list, name: str, rays=None) -> list:
    """verify and derive on a KS proof, with checks."""
    bound, quantum = KNOWN[name]
    verify_checks = [_has("verdict: KSProof")]
    derive_checks = [_derived(bound, quantum), _has("quantum certificate: operator F is zero: True")]
    if rays is not None:
        verify_checks.append(_ray_counts(rays))
        derive_checks.append(_complete_set(rays))
    return [
        Command("verify", ["verify", *src], _expect(0, *verify_checks)),
        Command("derive", ["derive", *src], _expect(0, *derive_checks)),
    ]


def _near_miss_commands(rays) -> list:
    src = ["--input", rays.path]
    return [
        Command("verify", ["verify", *src], _expect(
            2, _has("verdict: NotKSProof"),
            _witness(rays, lambda out, err: _line(out, "witness: ")),
        )),
        Command("derive", ["derive", *src], _expect(
            2, _witness(rays, lambda out, err: (err.partition("satisfying assignment ")[2] or None)),
        )),
    ]


def catalog_mix(inputs) -> list:
    cmds = []
    for name in PARITY + CATALOG_RAYS:
        rays = inputs.catalog_rays.get(name)
        cmds += _proof_commands(["--catalog", name], name, rays)
        cmds.append(Command("derive", ["export", "--catalog", name], _expect(0, _record_check(*KNOWN[name]))))
    for name in CATALOG_RAYS:
        bound, quantum = dichotomic_values(inputs.catalog_rays[name])
        cmds.append(Command(
            "derive", ["derive", "--catalog", name, "--form", "dichotomic"],
            _expect(0, _derived(bound, quantum), _has("form: dichotomic")),
        ))
    for name in PARITY:
        bound, quantum = KNOWN[name]
        cmds.append(Command(
            "derive", ["derive", "--exact-bound", "--catalog", name],
            _expect(0, _derived(bound, quantum, "exact")),
        ))
        cmds.append(Command(
            "derive", ["bound", "--catalog", name],
            _expect(0, _has(f"exact classical maximum: {bound}"), _has(f"quantum value: {quantum}")),
        ))
    cmds += _proof_commands(["--input", inputs.peres24.path], "peres-24", inputs.peres24)
    for rays in inputs.near_miss:
        cmds += _near_miss_commands(rays)
    return cmds


def kp40_derive(inputs) -> list:
    return _proof_commands(["--input", inputs.kp40.path], "kp-40", inputs.kp40)


WORKLOADS = {"catalog-mix": catalog_mix, "kp40-derive": kp40_derive}


def build(name: str, inputs, rng) -> list:
    """The workload's cycle of commands, in an order the seed fixes."""
    cmds = WORKLOADS[name](inputs)
    rng.shuffle(cmds)
    return cmds
