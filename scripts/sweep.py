"""Library sweep: every kernel-table row on a fixed set of laws, one line per
result, with its status, its value and error bits and the integrand work it
took.  Diffing the output of two checkouts shows every result that moved::

    PYTHONPATH=src python scripts/sweep.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/sweep.py > old.txt
    PYTHONPATH=src python scripts/sweep.py --diff old.txt new.txt

Each result line holds, separated by spaces: the law's spec string, the row's
``measure_id`` (or the verify family), the point ``n,k,m,side`` the row
resolves to (``-`` for a side a gap does not take), the kind (``primary`` and
``oracle`` of a measure row, ``gap`` for a gap row's primary, ``verify`` for a
residual of the (4,4,4) verify grid), the status, ``value.hex()``,
``abs_error.hex()``, and the integrand rounds and nodes the result took,
counted by wrapping ``quad._gk_pieces``.  A verify residual's error and counts
read ``-``: the grid is one call, whose verdict and counts take a line of
their own with the row ``grid``.  Lines starting with ``#`` are totals.

The laws are ``verify_catalog.py``'s specs, a scaled law, narrow and wide
normals and exponentials, power theta = 0.777, the pdf/cdf-only Kumaraswamy
of ``perfbench/userlaw.py`` and seeded draws of power, pareto and exponential
laws.  Value bits and counts may differ across Python and numpy builds, so
compare two checkouts on one machine.  ``--diff`` exits 1 if any line moved.
"""

import argparse
import collections
import random
import sys
from pathlib import Path

from extrec import measures, quad, symmetry
from extrec.dist import Exponential, Normal, Pareto, PowerFunction, Scaled, make_distribution

from verify_catalog import SPECS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from userlaw import Kumaraswamy  # noqa: E402

#: (n, k, m, side) points; each row keeps the parameters it takes, and a
#: point that resolves to one already swept is swept once.
POINTS = ((1, 1, 2, "upper"), (2, 3, 1, "lower"), (4, 4, 4, "upper"), (3, 2, 3, "lower"),
          (2, 1, 2, "upper"), (6, 1, 2, "lower"), (10, 1, 1, "upper"))
DRAWS = 10  # seeded draws per family
SEED = 12


def laws() -> list:
    out = [make_distribution(spec) for spec in SPECS]
    out += [Scaled(Exponential(), 3.0), Normal(0.0, 1e-4), Normal(0.0, 1e-3), Normal(0.0, 1e3),
            Exponential(1e-3), Exponential(1e3), PowerFunction(0.777), Kumaraswamy(2.2, 2.7)]
    rng = random.Random(SEED)

    def draw(lo: float, hi: float) -> float:  # log-uniform, 4 digits so the spec is exact
        return float(f"{10.0 ** rng.uniform(lo, hi):.4g}")

    for _ in range(DRAWS):
        out += [PowerFunction(draw(-0.7, 0.7)), Pareto(draw(-0.7, 0.7)), Exponential(draw(-1, 1))]
    return out


class Work:
    """Integrand rounds and nodes, counted by wrapping ``quad._gk_pieces``."""

    def __init__(self):
        self.rounds = self.nodes = 0
        gk_pieces = quad._gk_pieces

        def counting(F, *args):
            def G(x):
                self.rounds += 1
                self.nodes += x.size
                return F(x)
            return gk_pieces(G, *args)

        quad._gk_pieces = counting

    def take(self) -> tuple[int, int]:
        got, self.rounds, self.nodes = (self.rounds, self.nodes), 0, 0
        return got


def sweep(out) -> None:
    tally = Work()
    statuses = collections.Counter()
    rounds = nodes = 0

    def emit(law, row, point, kind, status, value, error, work):
        nonlocal rounds, nodes
        statuses[status] += 1
        if work is not None:
            rounds, nodes = rounds + work[0], nodes + work[1]
        fields = [law, row, point, kind, status, value, error,
                  *(map(str, work) if work else ("-", "-"))]
        out.write(" ".join(fields) + "\n")

    for d in laws():
        law = d.spec_string()
        seen = set()
        for row in measures.KERNELS.values():
            for point in POINTS:
                params, (n, k, m) = measures.resolve(row, *point)
                side = params.get("side", row.side) or "-"
                if (row.measure_id, n, k, m, side) in seen:
                    continue
                seen.add((row.measure_id, n, k, m, side))
                at = f"{n},{k},{m},{side}"
                for kind, fn in ((("gap", measures.measure_value),) if row.family else
                                 (("primary", measures.measure_value),
                                  ("oracle", measures.oracle_value))):
                    mv = fn(row, d, *point)
                    emit(law, row.measure_id, at, kind, mv.quad_status.value, mv.value.hex(),
                         mv.abs_error.hex(), tally.take())
        report = symmetry.verify_characterizations(d)
        emit(law, "grid", "4,4,4,-", "verify", report.verdict.value, "-", "-", tally.take())
        for e in report.residuals:
            at = ",".join("-" if v is None else str(v) for v in (e.n, e.k, e.m, None))
            emit(law, e.family, at, "verify", e.status.value, e.value.hex(), "-", None)
    out.write(f"# results {sum(statuses.values())} rounds {rounds} nodes {nodes}\n")
    out.write("# " + " ".join(f"{s} {c}" for s, c in sorted(statuses.items())) + "\n")


def read(path: str) -> dict[tuple, list[str]]:
    """Result lines keyed by (law, row, point, kind)."""
    with open(path) as f:
        return {tuple(fields[:4]): fields[4:] for fields in map(str.split, f)
                if fields and not fields[0].startswith("#")}


def diff(a_path: str, b_path: str) -> int:
    a, b = read(a_path), read(b_path)
    moved = collections.Counter()
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            moved["only in one"] += 1
            print("only in", a_path if key in a else b_path, *key)
            continue
        (sa, va, ea, *wa), (sb, vb, eb, *wb) = a[key], b[key]
        what = [label for label, x, y in (("status", sa, sb), ("value", va, vb),
                                           ("error", ea, eb), ("counts", wa, wb)) if x != y]
        for label in what:
            moved[label] += 1
        if what:
            print(*key, "moved:", ",".join(what), " ".join(a[key]), "->", " ".join(b[key]))

    def totals(lines) -> tuple[int, int]:
        counted = [(int(r), int(n)) for *_, r, n in lines.values() if n != "-"]
        return sum(r for r, _ in counted), sum(n for _, n in counted)

    (ra, na), (rb, nb) = totals(a), totals(b)
    print(f"compared {len(a.keys() & b.keys())} results;",
          ", ".join(f"{label} moves {moved[label]}"
                    for label in ("status", "value", "error", "counts", "only in one")))
    print(f"rounds {ra} -> {rb}, nodes {na} -> {nb}")
    return 1 if moved else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"),
                    help="compare two sweep outputs instead of running the sweep")
    args = ap.parse_args()
    if args.diff:
        sys.exit(diff(*args.diff))
    sweep(sys.stdout)


if __name__ == "__main__":
    main()
