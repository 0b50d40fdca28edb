"""Smoke test of the outcome comparison tool over 20 parse-corpus texts."""

import io
import sys
from pathlib import Path

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
