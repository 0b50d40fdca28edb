"""Smoke tests of the outcome comparison tool: 20 parse-corpus texts run and
compared, and the exit status of its diff."""

import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import outcome_corpus  # noqa: E402  (a script as well, so not a package module)

from opcalc.cli import run  # noqa: E402
from opcalc.parser import parse_expression  # noqa: E402


def _outcomes(texts) -> dict:
    stream = io.StringIO()
    outcome_corpus.write(run, texts, stream)
    return outcome_corpus.read(stream.getvalue().splitlines())


def test_outcomes_of_twenty_texts_are_written_and_compared():
    # the corpus starts with its named texts, so these are its first 20
    texts = outcome_corpus.parseable(parse_expression, outcome_corpus.parse_corpus.NAMED)[:20]
    assert len(texts) == 20
    first = _outcomes(texts)
    assert len(first) == 20 * len(outcome_corpus.COMMANDS)
    assert {r["exit"] for r in first.values()} <= {0, 3, 4}
    counts, shown, reasons = outcome_corpus.diff(first, _outcomes(texts))
    assert counts["unchanged"] == len(first) and not shown and not reasons
    # a moved answer and a moved reason are named by category
    argv = next(a for a, r in first.items() if r["exit"] == 0)
    refused = next(a for a, r in first.items() if r["exit"] == 3)
    moved = dict(first)
    moved[argv] = {**first[argv], "stdout": "other"}
    moved[refused] = {**first[refused], "exit": 0}
    counts, shown, _ = outcome_corpus.diff(first, moved)
    assert counts["exit 0 -> exit 0, stdout"] == counts["exit 3 -> exit 0"] == 1
    assert shown["exit 3 -> exit 0"] == [refused]


def test_a_request_past_the_alarm_is_a_timeout():
    def slow(argv):
        while True:
            pass

    assert outcome_corpus.outcome(slow, ["integrate", "x"], alarm=0.05)["exit"] == "timeout"
    assert outcome_corpus.outcome(lambda argv: 1 / 0, [])["exit"] == "traceback"


def test_diff_exits_1_when_any_request_moved(tmp_path, capsys):
    # "the corpus is unchanged" is exit status 0; a moved answer, or a
    # request in one file only, is 1
    rows = [{"argv": ["integrate", t], "exit": 0, "stdout": t, "stderr": ""} for t in "xyz"]
    def status(old, new):
        for name, lines in (("old", old), ("new", new)):
            (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in lines))
        with pytest.raises(SystemExit) as exit_:
            outcome_corpus.main(["diff", str(tmp_path / "old"), str(tmp_path / "new")])
        return exit_.value.code
    assert status(rows, rows) == 0
    assert status(rows, rows[:2] + [{**rows[2], "exit": 4}]) == 1
    assert status(rows, rows[:2]) == 1
    assert "exit 0 -> exit 4" in capsys.readouterr().out
