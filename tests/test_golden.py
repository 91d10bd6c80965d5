"""The golden output matrix: the sha256 of each (input, command) cell's
exit code, stdout, stderr and written record, against the committed table
golden_outputs.txt.  A change that moves any output of these runs fails
here, and names the cells that moved.

After a change that moves outputs on purpose, rewrite the table with

    PYTHONPATH=src python tests/test_golden.py --moved "INPUT COMMAND" ...

naming every moved cell as its table line reads after the digest.  The
script writes nothing unless the cells named are exactly those that moved;
a cell new to the matrix is added without being named."""

import argparse
import contextlib
import functools
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from kscert import catalog
from kscert.cli import main
from kscert.prooffile import proof_file_from_set, render_input_section

from conftest import pauli_parity_text
from test_cli import _eigenray_file
from test_derive import GENERAL_MP_VARIANTS

TABLE = Path(__file__).with_name("golden_outputs.txt")

# the commands of every input, each run with the input's source; a form
# or mode the input cannot take is a cell too, which exits 3
COMMANDS = (
    "verify",
    "derive",
    "derive --form projector",
    "derive --form dichotomic",
    "derive --exact-bound",
    "bound --form projector",
    "bound --form dichotomic",
    "verify --mode bases-only",
    "derive --mode bases-only",
    "export",
    "export --exact-bound --form dichotomic",
    "derive --output record.txt",
)


def _run(argv) -> tuple:
    """main's exit code, stdout and stderr on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _near_miss(name, seed):
    """Catalog ray set name less 1-3 rays that the seed picks: colourable,
    as both entries are critical."""
    oset = catalog.get(name).load()
    rng = random.Random(seed)
    dropped = tuple(f"ray {label} " for label in rng.sample(oset.labels, rng.randint(1, 3)))
    text = render_input_section(proof_file_from_set(oset, "ray"))
    return "".join(line for line in text.splitlines(True) if not line.startswith(dropped))


def _record(name):
    """The export record of catalog entry name, to be read back as a file."""
    code, out, _ = _run(["export", "--catalog", name])
    assert code == 0
    return out


# input name -> a function giving its file's text; None for a catalog entry
INPUTS = {name: None for name in catalog.names()}
INPUTS |= {name: functools.partial(_eigenray_file, name) for name in ("peres-24", "kp-40")}
INPUTS |= {f"{name}-less-{seed}": functools.partial(_near_miss, name, seed)
           for name in ("cabello-18", "peres-33") for seed in (1, 2, 3)}
INPUTS |= {
    "doily": functools.partial(pauli_parity_text, 2, "lines"),
    "w52": functools.partial(pauli_parity_text, 3, "lines"),
    "three-qubit-maximal-signed": functools.partial(pauli_parity_text, 3, "maximal", 1),
}
INPUTS |= {name: functools.partial(str, text) for name, text in GENERAL_MP_VARIANTS.items()}
INPUTS |= {f"{name}-record": functools.partial(_record, name) for name in catalog.names()}

# W(5,2)'s rank is past the parity coset walk: its exact bound's search
# exits 4 at this cap at once
NODE_CAPS = {"w52": ["--node-cap", "1000"]}

# the catalog listing is the one cell of the input named catalog
NAMES = ["catalog", *INPUTS]


def cells(name) -> dict:
    """command -> argv of each cell of input name."""
    if name == "catalog":
        return {"catalog": ["catalog"]}
    entry = INPUTS[name] is None
    source = ["--catalog", name] if entry else ["--input", f"{name}.txt"]
    out = {c: c.split() + source + NODE_CAPS.get(name, []) for c in COMMANDS}
    if entry:
        out["catalog"] = ["catalog", name]
    return out


def digests(name) -> dict:
    """command -> sha256 of each cell of input name, run in the current
    directory, where the input's file and any record are written."""
    if INPUTS.get(name) is not None:
        Path(f"{name}.txt").write_text(INPUTS[name](), encoding="utf-8")
    out = {}
    for command, argv in cells(name).items():
        result = _run(argv)
        record = Path("record.txt")
        written = record.read_text(encoding="utf-8") if record.exists() else None
        record.unlink(missing_ok=True)
        out[command] = hashlib.sha256(repr((*result, written)).encode()).hexdigest()
    return out


def read_table() -> dict:
    """(input, command) -> sha256, from the table's lines `sha256 input command`."""
    table = {}
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        digest, name, command = line.split(" ", 2)
        table[name, command] = digest
    return table


def test_table_has_every_cell():
    assert sorted(read_table()) == sorted((n, c) for n in NAMES for c in cells(n))


@pytest.mark.parametrize("name", NAMES)
def test_no_output_moved(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    table = read_table()
    got = digests(name)
    moved = [command for command in got if table.get((name, command)) != got[command]]
    assert moved == [], f"moved cells of {name}: {moved}"


def regenerate(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Rewrite the golden output table.")
    ap.add_argument("--moved", nargs="*", default=[], metavar="'INPUT COMMAND'",
                    help="every cell whose output moved, as its table line reads after the digest")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            table = {(n, c): d for n in NAMES for c, d in digests(n).items()}
        finally:
            os.chdir(cwd)
    old = read_table() if TABLE.exists() else {}
    # a cell new to the table moves nothing; one the matrix dropped moves
    moved = {f"{n} {c}" for n, c in old if old[n, c] != table.get((n, c))}
    named = set(args.moved)
    if moved != named:
        for cell in sorted(moved - named):
            print(f"moved, not named: {cell}", file=sys.stderr)
        for cell in sorted(named - moved):
            print(f"named, not moved: {cell}", file=sys.stderr)
        print("table not written", file=sys.stderr)
        return 1
    TABLE.write_text("".join(f"{d} {n} {c}\n" for (n, c), d in table.items()), encoding="utf-8")
    print(f"{len(table)} cells written, {len(moved)} moved")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
