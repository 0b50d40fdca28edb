"""The CLI outcomes of the parse corpus, and the difference between two trees.

The outcome of a request is its exit status, stdout and stderr, with the
request run in process under a per-request alarm.  Every text of
``parse_corpus`` that parses is run six ways: ``integrate`` on the real
line, on [0, 1] and on [0, inf), ``laplace --at 2``, ``laplace --at 2
--regularized 3`` (the interval kernel's word route) and ``fourier --at
1/3`` (the delta image read away from 0, complex words included).  So is every
request of ``spec_argvs``: ``borwein 0..22`` and 300 seeded ``lord``
specs, plain and ``--json``; and of ``series_argvs``: seeded exp-poly,
trig and Gaussian integrands over finite intervals at three truncation
orders, plain, ``--precision 30`` and ``--json``, and seeded Gaussian
products on the real line at ``--precision 30``.  A request past the
alarm is a "timeout", and an exception that the CLI lets through a
"traceback".

Write the outcomes of a tree (its ``src`` directory is imported, so run
one tree per process), then compare two such files by category:

    python tests/outcome_corpus.py run PARENT/src parent.jsonl
    python tests/outcome_corpus.py run src new.jsonl
    python tests/outcome_corpus.py diff parent.jsonl new.jsonl

A category names how an outcome moved, such as "exit 3 -> exit 0" or
"exit 3 -> exit 3, reason" (another stderr); an answer that is no longer
byte-identical is "exit 0 -> exit 0, stdout".  Each category prints its
count and its first examples, and the reasons that moved are tallied per
family with the quoted sources and the numbers masked.  ``diff`` exits 1
when any request moved or is in one file only, and 0 when the outcomes are
unchanged, so a refactor that keeps every outcome checks in one status.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
import signal
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import parse_corpus

COMMANDS = (("integrate",), ("integrate", "--interval", "0", "1"),
            ("integrate", "--interval", "0", "inf"), ("laplace", "--at", "2"),
            ("laplace", "--at", "2", "--regularized", "3"), ("fourier", "--at", "1/3"))
ALARM_S = 3
LORD_SEED = 33
SERIES_SEED = 34
TRUNCATIONS = (2, 40, 200)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def outcome(run, argv: list, alarm: float = ALARM_S) -> dict:
    """{"exit", "stdout", "stderr"} of run(argv), exit "timeout" or "traceback"
    when the alarm rings or an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, alarm)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except _Timeout:
        code = "timeout"
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code
    except Exception:  # noqa: BLE001  (recorded, not raised)
        code, err = "traceback", io.StringIO(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def parseable(parse, texts=None) -> list:
    """The texts of the parse corpus (or *texts*) that *parse* accepts."""
    keep = []
    for text in parse_corpus.corpus() if texts is None else texts:
        try:
            parse(text)
        except ValueError:  # the parser's refusals, ParseError among them
            continue
        keep.append(text)
    return keep


def load_tree(src: str):
    """opcalc imported from the tree whose package directory is under *src*."""
    sys.path.insert(0, str(Path(src).resolve()))
    return importlib.import_module("opcalc.cli"), importlib.import_module("opcalc.parser")


def _lord_argv(rng: random.Random) -> list:
    """A seeded lord request of up to 12 inner slots: rates drawn partly
    from a small pool (repeats and merged sums), an outer rate other than
    1 half the time, and, with no inner sinc, often an outer rate that is
    a signed cos sum (a step at its jump); --sinc is then left out or
    given empty."""
    def rate():
        return Fraction(rng.randint(1, 12), rng.randint(1, 12))
    pool = [rate() for _ in range(3)]
    slots = [rng.choice(pool) if rng.random() < 0.4 else rate()
             for _ in range(rng.randint(0, 12))]
    m = rng.randint(0, len(slots))
    outer = rng.choice((Fraction(1), rate()))
    if m == 0 and rng.random() < 0.5:
        outer = abs(sum(rng.choice((1, -1)) * b for b in slots)) or outer
    argv = ["lord"]
    if m or rng.random() < 0.5:
        argv += ["--sinc", ",".join(map(str, slots[:m]))]
    if slots[m:]:
        argv += ["--cos", ",".join(map(str, slots[m:]))]
    return argv + (["--outer", str(outer)] if outer != 1 else [])


def spec_argvs(seed: int = LORD_SEED) -> list:
    """borwein 0..22 and 300 seeded lord requests, each plain and --json."""
    rng = random.Random(seed)
    argvs = [["borwein", str(n)] for n in range(23)]
    argvs += [_lord_argv(rng) for _ in range(300)]
    return [argv + flag for argv in argvs for flag in ([], ["--json"])]


def _series_text(rng: random.Random, gaussian: bool) -> str:
    """A seeded product of rational rates: an exp-poly, trig or Gaussian
    shape, or with *gaussian* a Gaussian times one of the series_only
    factors (trig, exp-poly and sinc products)."""
    def rate():
        return f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"
    k = rng.randint(0, 4)
    trig = [f"cos({rate()}*x)", f"sin({rate()}*x)^2", f"x^{k}*cos({rate()}*x)",
            f"exp({rate()}*x)*cos({rate()}*x)", f"cos({rate()}*x)*sinc({rate()}*x)",
            f"sinc({rate()}*x)^{k + 1}*cos(x)"]
    if gaussian:
        return f"exp(-x^2/(2*{rate()}))*{rng.choice(trig)}"
    return rng.choice([f"x^{k}*exp(-{rate()}*x)", f"(1+x)^{k}*exp({rate()}*x)",
                       f"exp(-{rate()}*x)*cos({rate()}*x)", f"sin({rate()}*x)*cos({rate()}*x)",
                       f"sinc({rate()}*x)^{k + 1}", f"x^{k}*sin({rate()}*x)",
                       f"exp(-x^2/(2*{rate()}))*{rng.choice(trig)}",
                       f"x^{k}*exp(-x^2/2+{rate()}*x)"])


def series_argvs(seed: int = SERIES_SEED) -> list:
    """60 seeded integrands over finite intervals at each of TRUNCATIONS,
    and 60 Gaussian products on the real line: the finite-interval ones
    plain, with --precision 30 and with --json, the real-line ones with
    --precision 30."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(60):
        text = _series_text(rng, gaussian=False)
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        b = a + Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        argvs += [["integrate", text, "--interval", str(a), str(b), "--truncation", str(n)]
                  for n in TRUNCATIONS]
    argvs = [argv + flag for argv in argvs for flag in ([], ["--precision", "30"], ["--json"])]
    return argvs + [["integrate", _series_text(rng, gaussian=True), "--precision", "30"]
                    for _ in range(60)]


def write_argvs(run, argvs, stream) -> None:
    """One JSON line per request: {"argv", "exit", "stdout", "stderr"}."""
    for argv in argvs:
        stream.write(json.dumps({"argv": argv, **outcome(run, argv)}) + "\n")


def write(run, texts, stream) -> None:
    """write_argvs of every text under each of COMMANDS."""
    write_argvs(run, ([command[0], text, *command[1:]] for text in texts
                      for command in COMMANDS), stream)


def read(lines) -> dict:
    """argv -> outcome of the JSON lines that write() wrote."""
    return {tuple(r["argv"]): r for r in map(json.loads, lines)}


def category(old: dict, new: dict):
    """How one request's outcome moved, or None when it did not."""
    if old == new:
        return None
    moved = f"exit {old['exit']} -> exit {new['exit']}"
    if old["exit"] != new["exit"]:
        return moved
    return f"{moved}, {'stdout' if old['stdout'] != new['stdout'] else 'reason'}"


_QUOTED = re.compile(r"'[^']*'|\d+")


def _reasons(stderr: str) -> dict:
    """family -> reason of an unsupported request, quoted sources and numbers masked."""
    pairs = (line.strip().split(": ", 1) for line in stderr.splitlines()[1:])
    return {p[0]: _QUOTED.sub("#", p[1]) for p in pairs if len(p) == 2}


def diff(old: dict, new: dict, examples: int = 3):
    """(category counts, examples per category, (family, old reason, new reason) counts)."""
    counts, shown, reasons = Counter(), {}, Counter()
    for argv in old.keys() & new.keys():
        moved = category(old[argv], new[argv])
        counts[moved or "unchanged"] += 1
        if moved is None:
            continue
        if len(shown.setdefault(moved, [])) < examples:
            shown[moved].append(argv)
        if old[argv]["exit"] == new[argv]["exit"] == 3:
            was, now = _reasons(old[argv]["stderr"]), _reasons(new[argv]["stderr"])
            reasons.update((family, was.get(family), now[family])
                           for family in now if was.get(family) != now[family])
    counts["only in the first"] = len(old.keys() - new.keys())
    counts["only in the second"] = len(new.keys() - old.keys())
    return counts, shown, reasons


def main(argv: list) -> None:
    if argv[:1] == ["run"] and len(argv) == 3:
        cli, parser = load_tree(argv[1])
        with open(argv[2], "w") as fh:
            write(cli.run, parseable(parser.parse_expression), fh)
            write_argvs(cli.run, spec_argvs() + series_argvs(), fh)
    elif argv[:1] == ["diff"] and len(argv) == 3:
        with open(argv[1]) as old, open(argv[2]) as new:
            counts, shown, reasons = diff(read(old), read(new))
        for moved, n in sorted(counts.items()):
            print(f"{n:7d}  {moved}")
            for example in shown.get(moved, ()):
                print(f"           {' '.join(example)}")
        for (family, was, now), n in reasons.most_common():
            print(f"{n:7d}  {family}: {was} -> {now}")
        sys.exit(any(n for moved, n in counts.items() if moved != "unchanged"))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
