"""Byte snapshot of the CLI over a fixed case list.

Runs ``extrec.cli.main`` in-process on every case and prints one line per
case: the exit code, the sha256 of stdout, the sha256 of stderr, the
outcome, and the argv.  The outcome is the ``quad_status`` of a ``measure``,
the verdict and per-status residual counts of a ``verify``, the ``aborted``
count of a ``records-sim`` and the decision of a ``symtest`` (``-`` when the
case exits non-zero), so a case whose hashes moved but whose outcome did not
moved in value only.  Diffing the output of two checkouts shows every case
whose bytes moved::

    PYTHONPATH=src python scripts/cli_snapshot.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/cli_snapshot.py > old.txt
    diff old.txt new.txt

The cases are ``verify`` on every spec of ``sweep.py``'s ``SPECS``, ``measure``
for every ``--measure`` id on those specs at three (n, k, m, side) points,
seeded ``records-sim`` over ``RECORD_CASES``, and ``symtest`` on the files
under ``tests/data/``.  It takes about three seconds on one core.
"""

import collections
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from extrec import cli

from sweep import SPECS

ROOT = Path(__file__).resolve().parents[1]

POINTS = (("1", "1", "2", "upper"), ("2", "3", "1", "lower"), ("4", "4", "4", "upper"))

#: records-sim cases (spec, n, k, extra options): vectorised and per-draw
#: quantiles, both sides, and one deep case, which the exact sampler draws in
#: full and whose streams hit the draw guard under ``--method scan``.
RECORD_CASES = (
    ("uniform", "2", "2"),
    ("normal", "3", "2"),
    ("exponential:rate=2", "2", "2", "--side", "lower"),
    ("laplace", "4", "1"),
    ("pareto:theta=0.7", "2", "2"),
    ("uniform", "6", "1", "--max-draws", "1000"),
    ("uniform", "6", "1", "--method", "scan", "--max-draws", "1000"),
)


def cases() -> list[list[str]]:
    out = [["verify", "--dist", spec, "--output", "json"] for spec in SPECS]
    for measure in sorted(cli._MEASURES):
        for spec in SPECS:
            for n, k, m, side in POINTS:
                out.append(["measure", "--dist", spec, "--measure", measure, "--n", n, "--k", k,
                            "--m", m, "--side", side, "--output", "json"])
    for spec, n, k, *extra in RECORD_CASES:
        out.append(["records-sim", "--dist", spec, "--n", n, "--k", k, *extra, "--count", "200",
                    "--seed", "7", "--output", "json"])
    for data in sorted((ROOT / "tests" / "data").glob("*.txt")):
        out.append(["symtest", "--input", str(data.relative_to(ROOT)), "--replicates", "199",
                    "--seed", "1", "--output", "json"])
    return out


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def outcome(argv: list[str], code: int, out: bytes) -> str:
    if code != 0:
        return "-"
    payload = json.loads(out)
    if argv[0] == "measure":
        return payload["quad_status"]
    if argv[0] == "verify":
        counts = collections.Counter(row["status"] for row in payload["residuals"])
        return payload["verdict"] + ":" + ",".join(f"{s}={n}" for s, n in sorted(counts.items()))
    if argv[0] == "records-sim":
        return f"aborted={payload['aborted']}"
    return payload["decision"]


def main() -> None:
    os.chdir(ROOT)  # symtest inputs are given relative to the checkout root
    for argv in cases():
        code, out, err = run(argv)
        print(code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest(),
              outcome(argv, code, out), " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
