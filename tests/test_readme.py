"""The README's examples run as written: each line of the library tour
with a value in its comment gives that value, and each command of the
command-line block prints the lines and exits with the code its comments
show."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from abelianwords.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def fenced_block(heading: str, language: str) -> list[str]:
    """The lines of the first ``language`` block after ``heading``."""
    section = README[README.index(heading):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    return match.group(1).splitlines()


def split_comment(line: str) -> tuple[str, str]:
    code, _, comment = line.partition("  #")
    return code.strip(), comment.strip()


def tour_lines():
    return [split_comment(line) for line in fenced_block("## Library tour",
                                                          "python")
            if line.strip()]


def cli_commands():
    """(argv, exit code, output lines) of each ``abelianwords`` command;
    the ``# ...`` lines right below one are its output."""
    commands = []
    for line in fenced_block("## Command line", "sh"):
        if line.startswith("abelianwords "):
            command, comment = split_comment(line)
            exit_code = re.search(r"exit (\d)", comment)
            commands.append((shlex.split(command)[1:],
                             int(exit_code.group(1)) if exit_code else 0, []))
        elif line.startswith("# ") and commands:
            commands[-1][2].append(line[2:])
    return commands


def test_library_tour():
    namespace = {}
    checked = 0
    for code, comment in tour_lines():
        try:
            expression = compile(code, "README", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        try:
            # a literal first, prose after two spaces
            expected = ast.literal_eval(comment.split("  ")[0])
        except (ValueError, SyntaxError):
            assert value, code  # "always one of two periods", "verified"
        else:
            assert value == expected, code
            checked += 1
    assert checked == 4


COMMANDS = cli_commands()


@pytest.mark.parametrize("argv, code, lines", COMMANDS,
                         ids=[" ".join(argv) for argv, _, _ in COMMANDS])
def test_command_line(capsys, argv, code, lines):
    assert main(argv) == code
    out = capsys.readouterr().out
    if lines and lines[-1].endswith("...}"):
        # a certificate shown up to its recipe
        assert out.startswith(lines[-1][:-len("...}")])
    elif lines:
        assert out == "\n".join(lines) + "\n"
    else:
        assert out


def test_every_command_is_read():
    assert len(COMMANDS) == 8
    assert [code for _, code, _ in COMMANDS].count(1) == 1
