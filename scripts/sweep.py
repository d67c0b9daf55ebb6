"""Library sweep: every kernel-table row on a fixed set of laws, one line per
result, with its status, its value and error bits, the integrand work it
took and its variable of integration, and one summary line per law.
Diffing the output of two checkouts shows every result that moved::

    PYTHONPATH=src python scripts/sweep.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/sweep.py > old.txt
    PYTHONPATH=src python scripts/sweep.py --diff old.txt new.txt

Each result line holds, separated by spaces: the law's spec string, the row's
``measure_id`` (or the verify family), the point ``n,k,m,side`` the row
resolves to (``-`` for a side a gap does not take), the kind (``primary`` and
``oracle`` of a measure row, ``gap`` for a gap row's primary, ``verify`` for a
residual of the (4,4,4) verify grid), the status, ``value.hex()``,
``abs_error.hex()``, the integrand rounds and nodes the result took, counted
by wrapping ``quad._gk_pieces``, and the variable (``u`` or ``x``) of the
``measures._integrand`` call behind it (``-`` where ``measures._structural``
decides it).  A verify residual's error, counts and variable read ``-``: the
grid is one call, whose verdict, counts and variables take a line of their
own with the row ``grid``.  A ``#`` line after each law's results gives its
grid's class, verdict, counts of finite and other residuals and worst finite
|residual|; the last two ``#`` lines are totals, the first of them with the
kernel values the whole sweep evaluated (rows times nodes through
``records._Stack.__call__``, counted by wrapping it), which falls where a
stack's table serves a law from the intervals an earlier one evaluated.

The laws are the catalog ``SPECS``, a scaled law, narrow and wide normals
and exponentials, power theta = 0.777, the pdf/cdf-only Kumaraswamy of
``perfbench/userlaw.py`` and seeded draws of power, pareto and exponential
laws.  Value bits and counts may differ across Python and numpy builds, so
compare two checkouts on one machine.  ``--diff`` compares the fields both
lines of a result carry and exits 1 if any moved, so
``tests/golden/sweep_statuses.txt``, the first five fields of each result
line, checks statuses alone.  Its summary also names the largest relative
and the largest absolute move among the values finite on both sides.
Regenerate the golden after a deliberate status change with::

    PYTHONPATH=src python scripts/sweep.py | grep -v '^#' | cut -d' ' -f1-5 \\
        > tests/golden/sweep_statuses.txt
"""

import argparse
import collections
import math
import random
import sys
from pathlib import Path

from extrec import measures, quad, records, symmetry
from extrec.dist import Exponential, Normal, Pareto, PowerFunction, Scaled, make_distribution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from userlaw import Kumaraswamy  # noqa: E402

#: The catalog laws, also the laws of ``cli_snapshot.py``'s verify and measure cases.
SPECS = ["uniform", "normal", "laplace", "logistic", "exponential:rate=1", "power:theta=0.5",
         "power:theta=2", "pareto:theta=1", "pareto:theta=2"]

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
    """Integrand rounds and nodes, counted by wrapping ``quad._gk_pieces``, the
    variables of integration, recorded by wrapping ``measures._integrand``, and
    the running total of kernel values, counted by wrapping ``_Stack.__call__``."""

    def __init__(self):
        self.rounds = self.nodes = self.kernel_values = 0
        self.variables = set()
        gk_pieces, integrand, call = quad._gk_pieces, measures._integrand, records._Stack.__call__

        def counting(F, *args):
            def G(x):
                self.rounds += 1
                self.nodes += x.size
                return F(x)
            return gk_pieces(G, *args)

        def recording(form, kernels, d, side, variable):
            self.variables.add(variable)
            return integrand(form, kernels, d, side, variable)

        def evaluating(kernels, u, L=None):
            self.kernel_values += len(kernels) * u.size
            return call(kernels, u, L)

        quad._gk_pieces, measures._integrand, records._Stack.__call__ = counting, recording, evaluating

    def take(self) -> tuple[int, int, str]:
        got = self.rounds, self.nodes, ",".join(sorted(self.variables)) or "-"
        self.rounds, self.nodes, self.variables = 0, 0, set()
        return got


def sweep(out) -> None:
    tally = Work()
    statuses = collections.Counter()
    rounds = nodes = 0

    def emit(law, row, point, kind, status, value, error, work=("-",) * 3):
        nonlocal rounds, nodes
        statuses[status] += 1
        if work[0] != "-":
            rounds, nodes = rounds + work[0], nodes + work[1]
        out.write(" ".join([law, row, point, kind, status, value, error, *map(str, work)]) + "\n")

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
            emit(law, e.family, at, "verify", e.status.value, e.value.hex(), "-")
        finite = [e for e in report.residuals if e.is_finite]
        worst = max((abs(e.value) for e in finite), default=math.nan)
        out.write(f"# {law} class {report.class_c.value} verdict {report.verdict.value} finite "
                  f"{len(finite)} other {len(report.residuals) - len(finite)} worst {worst:.3e}\n")
    out.write(f"# results {sum(statuses.values())} rounds {rounds} nodes {nodes} "
              f"kernel_values {tally.kernel_values}\n")
    out.write("# " + " ".join(f"{s} {c}" for s, c in sorted(statuses.items())) + "\n")


def read(path: str) -> dict[tuple, list[str]]:
    """Result lines keyed by (law, row, point, kind)."""
    with open(path) as f:
        return {tuple(fields[:4]): fields[4:] for fields in map(str.split, f)
                if fields and not fields[0].startswith("#")}


#: What each field of a result line after its key holds; ``--diff`` compares
#: the fields both lines carry.
FIELDS = ("status", "value", "error", "counts", "counts", "variable")


def summary(path: str) -> dict[str, str]:
    """The ``# results`` totals of a sweep output by name (results, rounds,
    nodes, kernel_values), or {} in one that lacks them."""
    with open(path) as f:
        for fields in map(str.split, f):
            if fields[:2] == ["#", "results"]:
                return dict(zip(fields[1::2], fields[2::2]))
    return {}


def diff(a_path: str, b_path: str) -> int:
    a, b = read(a_path), read(b_path)
    moved = collections.Counter()
    largest = {"relative": (0.0, None), "absolute": (0.0, None)}  # move, key
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            moved["only in one"] += 1
            print("only in", a_path if key in a else b_path, *key)
            continue
        what = list(dict.fromkeys(label for label, x, y in zip(FIELDS, a[key], b[key]) if x != y))
        moved.update(what)
        if what:
            print(*key, "moved:", ",".join(what), " ".join(a[key]), "->", " ".join(b[key]))
        if "value" in what:
            x, y = (float.fromhex(v[1]) for v in (a[key], b[key]))
            if math.isfinite(x) and math.isfinite(y):
                move = abs(y - x)
                relative = move and move / max(abs(x), abs(y))  # 0.0 and -0.0 move by 0
                for label, size in (("absolute", move), ("relative", relative)):
                    if size > largest[label][0]:
                        largest[label] = size, key

    def totals(lines) -> tuple[int, int]:
        counted = [v[3:5] for v in lines.values() if len(v) > 4 and v[4] != "-"]
        return sum(int(r) for r, _ in counted), sum(int(n) for _, n in counted)

    (ra, na), (rb, nb) = totals(a), totals(b)
    print(f"compared {len(a.keys() & b.keys())} results;",
          ", ".join(f"{label} moves {moved[label]}"
                    for label in (*dict.fromkeys(FIELDS), "only in one")))
    kva, kvb = (summary(path).get("kernel_values", "-") for path in (a_path, b_path))
    print(f"rounds {ra} -> {rb}, nodes {na} -> {nb}, kernel values {kva} -> {kvb}")
    print("largest finite value move:", ", ".join(
        f"{label} {size:.3g} at {' '.join(key)}" if key else f"{label} none"
        for label, (size, key) in largest.items()))
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
