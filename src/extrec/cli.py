"""Command-line interface.

Subcommands::

    measure      compute one functional of a catalog distribution
    verify       run the full characterization residual grid + verdict
    classc       one-signed density-quantile comparison class of a law
    records-sim  simulate n-th upper/lower k-record realizations
    symtest      bootstrap symmetry test on a newline-delimited data file

Every command accepts ``--output json|table``; JSON payloads follow the
schemas shipped under docs/schemas/.  Exit codes: 0 success, 2 usage or
parse error, 3 numerical failure (quadrature did not settle).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable

import numpy as np

from . import measures as M
from . import symmetry as S
from .dist import _check_count, _decimal, make_distribution
from .quad import DEFAULT_TOL, QuadStatus
from .records import METHODS, SIDES, simulate_records

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_SEED_ENV = "EXTROPY_SEED"

#: --measure id -> its row of the kernel table
_MEASURES = {row.id: row for row in M.KERNELS.values() if row.id is not None}


def _seed_default() -> int:
    raw = os.environ.get(_SEED_ENV)
    if raw is None:
        return 0
    try:
        seed = _decimal(raw, int)
    except ValueError:
        raise ValueError(f"environment variable {_SEED_ENV}={raw!r} is not an integer") from None
    _check_count(seed, f"environment variable {_SEED_ENV}", 0)
    return seed


def _ascii(parse: type) -> Callable[[str], object]:
    """A numeric flag's type: ``parse``, int or float, of ASCII decimals only
    (:func:`_decimal`), named as ``parse`` is for argparse's error message."""
    def read(text: str):
        return _decimal(text, parse)
    read.__name__ = parse.__name__
    return read


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="extrec", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, dist=True):
        if dist:
            p.add_argument("--dist", required=True, help="distribution spec, e.g. power:theta=2")
        p.add_argument("--output", choices=("json", "table"), default="table")

    p = sub.add_parser("measure", help="compute one measure of a distribution")
    common(p)
    p.add_argument("--measure", required=True, choices=sorted(_MEASURES))
    p.add_argument("--n", type=_ascii(int), default=1)
    p.add_argument("--k", type=_ascii(int), default=1)
    p.add_argument("--m", type=_ascii(int), default=2)
    p.add_argument("--side", choices=SIDES, default="upper")
    p.add_argument("--tol", type=_ascii(float), default=DEFAULT_TOL)

    p = sub.add_parser("verify", help="verify the symmetry characterizations")
    common(p)
    p.add_argument("--max-n", type=_ascii(int), default=4)
    p.add_argument("--max-k", type=_ascii(int), default=4)
    p.add_argument("--max-m", type=_ascii(int), default=4)
    p.add_argument("--tol", type=_ascii(float), default=S.RESIDUAL_TOL)
    p.add_argument("--quad-tol", type=_ascii(float), default=DEFAULT_TOL)

    p = sub.add_parser("classc", help="one-signed comparison class membership")
    common(p)
    p.add_argument("--grid-size", type=_ascii(int), default=512)

    p = sub.add_parser("records-sim", help="simulate n-th upper/lower k-records")
    common(p)
    p.add_argument("--n", type=_ascii(int), default=1)
    p.add_argument("--k", type=_ascii(int), default=1)
    p.add_argument("--side", choices=SIDES, default="upper")
    p.add_argument("--count", type=_ascii(int), default=1000)
    p.add_argument("--seed", type=_ascii(int), default=None)
    p.add_argument("--method", choices=METHODS, default="exact",
                   help="exact: one Gamma draw and one inversion per realization; "
                        "scan: the definitional stream scan")
    p.add_argument("--max-draws", type=_ascii(int), default=10_000_000,
                   help="stream length at which a scan realization is aborted")

    p = sub.add_parser("symtest", help="bootstrap symmetry test on a data file")
    common(p, dist=False)
    p.add_argument("--input", required=True, help="newline-delimited decimals, optional header line")
    p.add_argument("--replicates", type=_ascii(int), default=999)
    p.add_argument("--alpha", type=_ascii(float), default=0.05)
    p.add_argument("--seed", type=_ascii(int), default=None)
    return ap


def _emit(payload: dict, table: Callable[[], list[str]], fmt: str) -> None:
    """Write the payload as JSON, or the lines ``table`` builds, which it
    builds only for table output."""
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(table()) + "\n")


def _finite_or_none(v: float) -> float | None:
    return v if math.isfinite(v) else None


def _cmd_measure(args) -> int:
    d = make_distribution(args.dist)
    row = _MEASURES[args.measure]
    mv = M.measure_value(row, d, args.n, args.k, args.m, args.side, args.tol)
    if mv.quad_status is QuadStatus.NO_CONVERGENCE:
        sys.stderr.write(f"error: quadrature did not settle for {args.measure} of {args.dist}\n")
        return EXIT_NUMERICAL
    payload = {
        "command": "measure",
        "dist": d.spec_string(),
        "measure": args.measure,
        "params": mv.params,
        "value": _finite_or_none(mv.value),
        "display": mv.display(),
        "quad_status": mv.quad_status.value,
        "abs_error": _finite_or_none(mv.abs_error),
        "tol": args.tol,
    }
    _emit(payload,
          lambda: [f"{args.measure}({d.spec_string()}) = {mv.display()}   [{mv.quad_status.value}]"],
          args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    d = make_distribution(args.dist)
    rep = S.verify_characterizations(d, args.max_n, args.max_k, args.max_m,
                                     args.tol, args.quad_tol)
    rows = [{
        "family": e.family,
        "n": e.n, "k": e.k, "m": e.m,
        "value": _finite_or_none(e.value),
        "status": e.status.value,
    } for e in rep.residuals]
    payload = {
        "command": "verify",
        "dist": rep.distribution,
        "class_c": rep.class_c.value,
        "tolerance": rep.tolerance,
        "verdict": rep.verdict.value,
        "residuals": rows,
    }

    def table() -> list[str]:
        lines = [f"distribution : {rep.distribution}",
                 f"class        : {rep.class_c.value}",
                 f"verdict      : {rep.verdict.value}   (tolerance {rep.tolerance:g})",
                 f"{'residual':24s} {'value':>16s}  status"]
        for e in rep.residuals:
            val = f"{e.value:.6e}" if math.isfinite(e.value) else "-"
            lines.append(f"{e.key():24s} {val:>16s}  {e.status.value}")
        return lines

    _emit(payload, table, args.output)
    return EXIT_OK


def _cmd_classc(args) -> int:
    d = make_distribution(args.dist)
    cls = S.class_c_check(d, args.grid_size)
    payload = {
        "command": "classc",
        "dist": d.spec_string(),
        "class_c": cls.value,
        "grid_size": args.grid_size,
    }
    _emit(payload, lambda: [f"class_c({d.spec_string()}) = {cls.value}"], args.output)
    return EXIT_OK


def _cmd_records_sim(args) -> int:
    d = make_distribution(args.dist)
    seed = args.seed if args.seed is not None else _seed_default()
    rs = simulate_records(d, args.n, args.k, args.side, args.count, seed, args.max_draws,
                          args.method)
    if rs.aborted:
        # an aborted stream is one whose n-th record is slow to come, so the
        # records that would be most extreme are the ones missing
        sys.stderr.write(f"warning: {rs.aborted} of {args.count} realizations hit --max-draws "
                         f"{args.max_draws}; the sample omits the most extreme records\n")
    payload = {
        "command": "records-sim",
        "dist": d.spec_string(),
        "n": args.n, "k": args.k, "side": args.side,
        "count": args.count, "seed": seed, "method": args.method, "max_draws": args.max_draws,
        "aborted": rs.aborted,
        "values": [float(v) for v in rs.values],
    }

    def table() -> list[str]:
        v = rs.values
        lines = [f"records-sim {d.spec_string()} n={args.n} k={args.k} side={args.side} "
                 f"seed={seed} method={args.method}",
                 f"realizations={v.size} aborted={rs.aborted}"]
        if v.size:
            lines.append(f"mean={v.mean():.6g} min={v.min():.6g} max={v.max():.6g}")
        return lines

    _emit(payload, table, args.output)
    return EXIT_OK


def _read_sample(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not data
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read input file {path!r}: {exc.strerror}") from None
    values = []
    start = 0
    if lines:
        try:  # a line float reads, "1_000" too, is data, not a header
            float(lines[0].strip())
        except ValueError:
            start = 1  # single header line auto-detected
    # float and _decimal agree on ASCII text without an underscore, so a body
    # of such lines, one check in C, skips _decimal's per-line check: 0.8 ms
    # on a 5000-line file
    body = "".join(lines[start:])
    parse = float if body.isascii() and "_" not in body else _decimal
    for ln, raw in enumerate(lines[start:], start=start + 1):
        text = raw.strip()
        if not text:
            continue
        try:
            v = parse(text)
        except ValueError:
            raise ValueError(f"{path}:{ln}: not a decimal value: {text!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"{path}:{ln}: non-finite value: {text!r}")
        values.append(v)
    return np.asarray(values, dtype=float)


def _cmd_symtest(args) -> int:
    x = _read_sample(args.input)
    seed = args.seed if args.seed is not None else _seed_default()
    res = S.symmetry_test(x, args.replicates, args.alpha, seed)
    payload = {
        "command": "symtest",
        "input": args.input,
        "n": int(x.size),
        "statistic": res.statistic,
        "replicates": res.bootstrap_replicates,
        "p_value": res.p_value,
        "alpha": res.alpha,
        "decision": res.decision,
        "seed": res.seed,
    }
    _emit(payload, lambda: [f"symtest {args.input} (n={x.size})",
                            f"T={res.statistic:.6g} p={res.p_value:.6g} alpha={res.alpha:g} "
                            f"-> {res.decision}"], args.output)
    return EXIT_OK


_COMMANDS = {
    "measure": _cmd_measure,
    "verify": _cmd_verify,
    "classc": _cmd_classc,
    "records-sim": _cmd_records_sim,
    "symtest": _cmd_symtest,
}


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
