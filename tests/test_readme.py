"""Every `$ opcalc ...` line of README.md runs through cli.run, exits 0
and prints what the README says it prints.

A command followed by lines in its code block (the `borwein 8` block)
must print exactly those lines.  Otherwise the comment after `#` states
the value when its first phrase, with a leading `exactly` dropped, is a
single token (`exactly pi`, `2, beyond the series domain`): that token is
the `exact:` line, or, ending in `...`, a prefix of the `approx:` line.
A descriptive comment (`erf-bearing closed form`) claims the exit status
only."""

import shlex
from pathlib import Path

import pytest

from opcalc import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """(argv, comment, printed lines) for every `$ opcalc` line, in order."""
    commands, in_block, current = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ opcalc "):
            command, _, comment = line[len("$ opcalc "):].partition("#")
            current = (shlex.split(command), comment.strip(), [])
            commands.append(current)
        elif in_block and current is not None:
            current[2].append(line)
    return commands


def claimed_value(comment: str):
    """The value a comment states, or None for a descriptive one."""
    claim = comment.removeprefix("exactly ").split(",")[0]
    return claim if claim and " " not in claim else None


COMMANDS = readme_commands()


def test_readme_states_values():
    # borwein 8 and the examples; the claims below are not all descriptive
    assert len(COMMANDS) >= 10
    assert sum(1 for _argv, comment, _printed in COMMANDS if claimed_value(comment)) >= 7


@pytest.mark.parametrize("argv, comment, printed", COMMANDS,
                         ids=[" ".join(argv) for argv, _c, _p in COMMANDS])
def test_readme_command_prints_its_claim(capsys, argv, comment, printed):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK, err
    lines = out.splitlines()
    if printed:
        assert lines == printed
        return
    claim = claimed_value(comment)
    if claim is None:
        return
    shown = {key: value.strip() for key, _, value in (line.partition(":") for line in lines)}
    if claim.endswith("..."):
        assert shown["approx"].startswith(claim[:-3]), out
    else:
        assert shown["exact"] == claim, out
