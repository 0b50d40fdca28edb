"""The benchmark's outputs, pinned.  The first 4 rounds of each perfbench
workload at seeds 17 and 59 run through opcalc.cli.run in this process,
and the sha256 over repr((argv, stdout, stderr, exit status)) of every
request, in order, must equal the digest recorded for it.  No reference
value is computed here: a change that moves any printed byte of a
benchmark request shows as a new digest.

A benchmark change that alters the workloads (perfbench/workloads.py)
re-pins these digests."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import sys
from pathlib import Path

import pytest

from opcalc import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (seed, workload) -> (requests, digest)
DIGESTS = {
    (17, "sinc_enum"): (120, "6c50c94d382f40b3d16be00198870213e3e68b3527fb289ea303b9af6b02c323"),
    (17, "gauss_series"): (148, "d5032980af85084865fcddeda53fac8bef86c692b5dd300dd38529ef70626f96"),
    (17, "oracle_compare"): (40, "3262995036e3bbacd895600343c1238fa030ede430d047b44cc1b5e34f5e2eb1"),
    (59, "sinc_enum"): (120, "cd0db301692b8cb6316e1ff055255b12af25cbe058ca6444edbdaa06704defb1"),
    (59, "gauss_series"): (148, "3993d39a8df5607d3f8d4798d6d9c86a16ceecbb1b64159a465f2dcba4df4e31"),
    (59, "oracle_compare"): (40, "09203f24cfc8ba43a9251ec8bf5ba3bc5ffbe9ddfa9c2e8754168a262b521a9f"),
}


def _load_workloads():
    """perfbench/workloads.py, with perfbench/ on sys.path only while it imports."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("seed, workload", sorted(DIGESTS))
def test_benchmark_outputs_are_pinned(seed, workload):
    digest, requests = hashlib.sha256(), 0
    for batch in itertools.islice(WORKLOADS.rounds(workload, seed), 4):
        for request in batch:
            argv, out, err = list(request.argv), io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            digest.update(repr((argv, out.getvalue(), err.getvalue(), code)).encode())
            requests += 1
    assert (requests, digest.hexdigest()) == DIGESTS[seed, workload]
