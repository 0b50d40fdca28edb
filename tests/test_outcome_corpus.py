"""Smoke tests of the outcome comparison tool: 20 parse-corpus texts run and
compared, and the exit status of its diff; and a seeded sample of the
corpus, pinned.

The sample is 400 seeded parse-corpus texts under every ``COMMANDS`` entry
and every tenth request of ``spec_argvs()`` and of ``series_argvs()``.  The
sha256 over repr((argv, exit, stdout, stderr)) of its requests, in order,
must equal ``SAMPLE_DIGEST``, so a change that moves any byte of a sampled
outcome fails here, as a full ``outcome_corpus.py diff`` would show.  A
change that moves an outcome on purpose re-pins the digest (print it with
``python tests/test_outcome_corpus.py``) and says so in CHANGES."""

import hashlib
import io
import json
import random
import sys
import time
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


SAMPLE_SEED = 38
SAMPLE_DIGEST = (2525, "0489994c61b63499882838567e9311eb0cbdd4a58cbb531df20a370bf4fbeaf3")


def sample_argvs() -> list:
    texts = random.Random(SAMPLE_SEED).sample(
        outcome_corpus.parseable(parse_expression), 400)
    return [[command[0], text, *command[1:]] for text in texts
            for command in outcome_corpus.COMMANDS] \
        + outcome_corpus.spec_argvs()[::10] + outcome_corpus.series_argvs()[::10]


def sample_digest() -> tuple:
    """(requests, sha256, slowest request in seconds, its argv) of the sample."""
    digest, slowest = hashlib.sha256(), (0.0, None)
    argvs = sample_argvs()
    for argv in argvs:
        start = time.perf_counter()
        got = outcome_corpus.outcome(run, argv)
        slowest = max(slowest, (time.perf_counter() - start, argv))
        digest.update(repr((argv, got["exit"], got["stdout"], got["stderr"])).encode())
    return len(argvs), digest.hexdigest(), *slowest


def test_a_seeded_sample_of_the_corpus_is_pinned():
    assert sample_digest()[:2] == SAMPLE_DIGEST


if __name__ == "__main__":
    print(sample_digest())
