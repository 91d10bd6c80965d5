"""The README's examples run against the current API."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from kscert.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The python block of the README's `## Library` section."""
    return re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)


def test_library_example_prints_its_bounds():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    assert out.getvalue() == "8 9\n"


def cli_examples() -> list:
    """(argv, shown lines) for each `$ kscert ...` command in the `## CLI`
    section's sh blocks: the lines up to the next command or the block's end."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section("CLI"), re.S):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, shown = command.partition("\n")
            argv = shlex.split(line, comments=True)
            assert argv[0] == "kscert", line
            examples.append((argv[1:], shown.splitlines()))
    return examples


def shown_pattern(lines: list) -> str:
    """A regex for output that shows `lines`: a `...` line stands for any
    lines left out, and `...` within a line for any text left out of it."""
    return "".join("(?:.*\n)*" if line == "..." else
                   ".*".join(map(re.escape, line.split("..."))) + "\n" for line in lines)


def colourable_text() -> str:
    """colourable.txt, from the paragraph that gives its lines."""
    para = re.search(r"Here `colourable\.txt` is (.*?), one line each", section("CLI"), re.S)
    return "".join(f"{line}\n" for line in re.findall(r"`([^`]+)`", para.group(1)))


@pytest.mark.parametrize("argv,shown", [pytest.param(argv, shown, id=" ".join(argv))
                                        for argv, shown in cli_examples()])
def test_cli_example_prints_what_it_shows(tmp_path, monkeypatch, argv, shown):
    (tmp_path / "colourable.txt").write_text(colourable_text())
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    assert re.fullmatch(shown_pattern(shown), out.getvalue()), out.getvalue()
