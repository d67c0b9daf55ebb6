"""Seeded operation lists for the three workloads and their correctness gates.

A workload is a list of *passes*; pass ``p`` of seed ``s`` is built from
``random.Random("<workload>/<s>/<p>")`` and never repeats the inputs of
another pass, so no cross-call cache inside the program can help a later
pass.  Each op is either a CLI argv run through ``extrec.cli.main`` or, on
``measure-sweep``, a direct library call on a law that only defines
``pdf``/``cdf`` (:mod:`userlaw`).

Gates never run inside the timed region.  ``cheap_gate`` checks every op;
``oracle_gate`` re-derives results with the program's independent reference
routines and runs on the first pass only, because it costs about as much as
the op itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from extrec import measures as M
from extrec import symmetry as S
from extrec.dist import make_distribution
from extrec.records import RecordLaw
from userlaw import Kumaraswamy

#: Fixed tail percentile per workload, and the op count a run needs so that
#: at least ten ops lie beyond it (the run keeps going until it has them).
#: Each percentile lies inside a cluster of similar ops rather than on the
#: edge between two, where it would jump between them from run to run.
TAIL_PERCENTILE = {"verify-catalog": 85, "measure-sweep": 99.25, "monte-carlo": 85}
MIN_OPS = {name: math.ceil(round(10 / (1 - p / 100), 6)) for name, p in TAIL_PERCENTILE.items()}

SYMMETRIC = ("uniform", "normal", "laplace", "logistic")

#: Exit codes the CLI contract allows for valid input, per command.
CONTRACT_EXITS = {"measure": (0, 3), "verify": (0,), "records-sim": (0,), "symtest": (0,)}

#: measure id -> parameters it takes (mirrors the CLI's --measure table).
MEASURE_PARAMS = {
    "extropy": (), "crj": (), "cpj": (), "delta1": (),
    "gcrj": ("m",), "gcpj": ("m",), "delta3": ("m",),
    "record_crj_upper": ("n", "k"), "record_cpj_lower": ("n", "k"),
    "crij_upper": ("n", "k"), "cpij_lower": ("n", "k"),
    "delta2": ("n", "k"), "delta_crij": ("n", "k"), "delta_kij": ("n",),
    "kij": ("n", "k", "side"),
    "record_gcrj_upper": ("n", "k", "m"), "record_gcpj_lower": ("n", "k", "m"),
}
#: Ids whose defining integrand is non-negative, so every finite value is <= 0.
EXTROPY_TYPE = {mid for mid in MEASURE_PARAMS if not mid.startswith("delta")}

VALUE_RTOL = 1e-6


@dataclass
class Op:
    """One timed operation.  ``argv`` for a CLI op, ``call`` for a library op."""

    case: str
    argv: list[str] | None = None
    call: object = None
    meta: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "library"


@dataclass
class Outcome:
    op: Op
    rc: int | None
    out: str
    latency: float
    error: str | None = None


def _close(a: float, b: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _laws(rng: random.Random) -> list[tuple[str, str, dict]]:
    """(family, spec, params) for every catalog family, parameters from ``rng``.

    Power gets one law on each side of theta = 1; uniform has no parameters.
    """
    u = rng.uniform
    theta_lo, theta_hi = _fmt(u(0.55, 0.95)), _fmt(u(1.2, 3.5))
    rate, pareto = _fmt(u(0.5, 3.0)), _fmt(u(1.5, 4.0))
    loc = [_fmt(u(-2.0, 2.0)) for _ in range(3)]
    sc = [_fmt(u(0.5, 2.0)) for _ in range(3)]
    return [
        ("uniform", "uniform", {}),
        ("exponential", f"exponential:rate={rate}", {"rate": float(rate)}),
        ("power", f"power:theta={theta_lo}", {"theta": float(theta_lo)}),
        ("power", f"power:theta={theta_hi}", {"theta": float(theta_hi)}),
        ("pareto", f"pareto:theta={pareto}", {"theta": float(pareto)}),
        ("normal", f"normal:mu={loc[0]},sigma={sc[0]}", {"mu": float(loc[0]), "sigma": float(sc[0])}),
        ("laplace", f"laplace:mu={loc[1]},b={sc[1]}", {"mu": float(loc[1]), "b": float(sc[1])}),
        ("logistic", f"logistic:mu={loc[2]},s={sc[2]}", {"mu": float(loc[2]), "s": float(sc[2])}),
    ]


def _extropy_closed_form(family: str, p: dict) -> float:
    if family == "uniform":
        return -0.5
    if family == "exponential":
        return -p["rate"] / 4.0
    if family == "power":  # finite for theta > 1/2
        return -p["theta"] ** 2 / (2.0 * (2.0 * p["theta"] - 1.0))
    if family == "pareto":
        return -p["theta"] ** 2 / (2.0 * (2.0 * p["theta"] + 1.0))
    if family == "normal":
        return -1.0 / (4.0 * p["sigma"] * math.sqrt(math.pi))
    if family == "laplace":
        return -1.0 / (8.0 * p["b"])
    if family == "logistic":
        return -1.0 / (12.0 * p["s"])
    raise KeyError(family)


# ---------------------------------------------------------------------------
# Passes


#: A fixed law with closed forms, added to every verify and measure pass.
#: Nine laws also put the median verify op inside one law's cluster.
POWER2 = ("power", "power:theta=2", {"theta": 2.0})


def _verify_pass(rng: random.Random, work: Path, tag: str) -> list[Op]:
    return [Op(case=family, argv=["verify", "--dist", spec, "--output", "json"],
               meta={"family": family, "params": p})
            for family, spec, p in _laws(rng) + [POWER2]]


def _measure_pass(rng: random.Random, work: Path, tag: str) -> list[Op]:
    laws = _laws(rng) + [POWER2]
    ops = []
    for family, spec, p in laws:
        for mid, used in MEASURE_PARAMS.items():
            points = 3 if used else 1
            for _ in range(points):
                argv = ["measure", "--dist", spec, "--measure", mid, "--output", "json"]
                nkm = {"n": rng.randint(1, 4), "k": rng.randint(1, 4), "m": rng.randint(1, 4),
                       "side": rng.choice(("upper", "lower"))}
                for name in used:
                    argv += [f"--{name}", str(nkm[name])]
                ops.append(Op(case=mid, argv=argv, meta={
                    "family": family, "params": p, "spec": spec, "measure": mid,
                    "args": {name: nkm[name] for name in used}}))
    ops.extend(_library_ops(rng))
    rng.shuffle(ops)
    return ops


def _library_ops(rng: random.Random) -> list[Op]:
    """measures.* and symmetry.delta* on a law that only has pdf and cdf."""
    law = Kumaraswamy(a=float(_fmt(rng.uniform(1.5, 3.0))), b=float(_fmt(rng.uniform(1.5, 3.0))))
    m = rng.randint(1, 4)
    calls = [
        ("crj", lambda: M.crj(law), lambda: M.crj_via_support(law)),
        ("cpj", lambda: M.cpj(law), lambda: M.cpj_via_support(law)),
        ("extropy", lambda: M.extropy(law), lambda: M.extropy_via_quantile(law)),
        ("delta1", lambda: S.delta1(law), None),
        ("delta3", lambda: S.delta3(law, m), None),
    ]
    return [Op(case=f"library.{name}", call=fn, meta={"measure": name, "law": law, "oracle": oracle})
            for name, fn, oracle in calls]


#: records-sim cases: (label, family, n, k, side, count, max_draws or None).
#: The first four laws have a vectorised quantile, the last three sample in a
#: per-draw Python loop.  The uniform k=1 case is deep enough that a few
#: streams hit the draw guard.
RECORD_CASES = (
    ("uniform-deep", "uniform", 8, 1, "upper", 300, 1_000_000),
    ("exponential", "exponential", 5, 2, "lower", 500, None),
    ("power", "power", 6, 3, "upper", 500, None),
    ("pareto", "pareto", 4, 2, "upper", 500, None),
    ("normal", "normal", 4, 3, "upper", 300, None),
    ("laplace", "laplace", 3, 2, "lower", 300, None),
    ("logistic", "logistic", 5, 4, "upper", 200, None),
)
SYMTEST_CASES = (("symtest-normal-200", "normal", 200), ("symtest-exponential-5000", "exponential", 5000))
REPLICATES = 999


def _monte_carlo_pass(rng: random.Random, work: Path, tag: str) -> list[Op]:
    specs = {family: spec for family, spec, _ in _laws(rng)}  # power: the theta > 1 law
    ops = []
    for label, family, n, k, side, count, max_draws in RECORD_CASES:
        spec = specs[family]
        argv = ["records-sim", "--dist", spec, "--n", str(n), "--k", str(k), "--side", side,
                "--count", str(count), "--seed", str(rng.randrange(2 ** 31)), "--output", "json"]
        if max_draws is not None:
            argv += ["--max-draws", str(max_draws)]
        ops.append(Op(case=label, argv=argv, meta={"spec": spec, "n": n, "k": k, "side": side,
                                                   "count": count}))
    for label, family, size in SYMTEST_CASES:
        path = work / f"{tag}-{label}.txt"
        draw = (lambda: rng.expovariate(1.0)) if family == "exponential" else (lambda: rng.gauss(0.0, 1.0))
        path.write_text("value\n" + "".join(f"{draw():.17g}\n" for _ in range(size)))
        argv = ["symtest", "--input", str(path), "--replicates", str(REPLICATES),
                "--seed", str(rng.randrange(2 ** 31)), "--output", "json"]
        ops.append(Op(case=label, argv=argv, meta={"family": family, "size": size}))
    return ops


_PASSES = {"verify-catalog": _verify_pass, "measure-sweep": _measure_pass,
             "monte-carlo": _monte_carlo_pass}


def build_pass(workload: str, seed: int, index: int, work: Path) -> list[Op]:
    tag = f"s{seed}-p{index}"
    return _PASSES[workload](random.Random(f"{workload}/{seed}/{index}"), work, tag)


# ---------------------------------------------------------------------------
# Result accounting


def results_requested(o: Outcome) -> tuple[int, int]:
    """(results requested, results reported ``no_convergence``) for one op."""
    cmd = o.op.command
    if cmd == "measure":
        return 1, int(o.rc == 3)
    if cmd == "library":
        return 1, int(o.out.startswith("no_convergence"))
    if cmd == "verify" and o.rc == 0:
        rows = json.loads(o.out)["residuals"]
        return len(rows), sum(r["status"] == "no_convergence" for r in rows)
    return 0, 0


def streams(o: Outcome) -> tuple[int, int]:
    """(record streams requested, streams aborted at the draw guard)."""
    if o.op.command == "records-sim" and o.rc == 0:
        return o.op.meta["count"], json.loads(o.out)["aborted"]
    return 0, 0


def library_output(mv) -> str:
    """Stable text form of a MeasureValue, used for determinism checks."""
    return f"{mv.quad_status.value} {mv.value!r}"


# ---------------------------------------------------------------------------
# Gates


def cheap_gate(o: Outcome) -> list[str]:
    """Checks that need no extra quadrature; run on every op."""
    if o.error is not None:
        return [f"raised {o.error}"]
    cmd = o.op.command
    if cmd == "library":
        status, value = o.out.split(" ", 1)
        v = float(value)
        if o.op.meta["measure"] in EXTROPY_TYPE and status == "converged" and v > 0:
            return [f"finite extropy-type value {v} > 0"]
        return []
    if o.rc not in CONTRACT_EXITS[cmd]:
        return [f"exit code {o.rc} outside the contract {CONTRACT_EXITS[cmd]}"]
    if o.rc != 0:
        return []
    payload = json.loads(o.out)
    return {"measure": _gate_measure, "verify": _gate_verify,
            "records-sim": _gate_records, "symtest": _gate_symtest}[cmd](o.op, payload)


def _gate_measure(op: Op, payload: dict) -> list[str]:
    errs = []
    mid, value = op.meta["measure"], payload["value"]
    if mid in EXTROPY_TYPE and value is not None and value > 0:
        errs.append(f"finite extropy-type value {value} > 0")
    if mid == "extropy" and payload["quad_status"] == "converged":
        want = _extropy_closed_form(op.meta["family"], op.meta["params"])
        if not _close(value, want):
            errs.append(f"extropy {value} != closed form {want}")
    if op.meta["spec"] == POWER2[1] and mid in ("crj", "cpj"):
        want = -4.0 / 15.0 if mid == "crj" else -0.1
        if value is None or not _close(value, want):
            errs.append(f"power(2) {mid} {value} != {want}")
    return errs


def _gate_verify(op: Op, payload: dict) -> list[str]:
    errs = []
    family, p = op.meta["family"], op.meta["params"]
    want = "symmetric" if family in SYMMETRIC else "asymmetric"
    if payload["verdict"] != want:
        errs.append(f"verdict {payload['verdict']} for {family}, expected {want}")
    if family == "power":
        theta = p["theta"]
        row = next(r for r in payload["residuals"] if r["family"] == "crj_cpj")
        exact = (1.0 - theta) / (2.0 * (theta + 1.0))
        if row["value"] is None or abs(row["value"] - exact) > 1e-6:
            errs.append(f"crj_cpj residual {row['value']} != {exact}")
    if len(payload["residuals"]) != 105:
        errs.append(f"{len(payload['residuals'])} residuals, expected 105")
    return errs


def _kolmogorov_sf(d: float, n: int) -> float:
    """Asymptotic P(D_n >= d) with Stephens' small-sample correction."""
    lam = d * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    if lam < 0.2:
        return 1.0
    return max(0.0, min(1.0, 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
                                       for j in range(1, 101))))


#: Per-op KS level.  A 30-second monte-carlo run makes about 350 KS tests,
#: so a correct sampler fails about one run in 3000; a wrong law fails at once.
KS_ALPHA = 1e-6


def _gate_records(op: Op, payload: dict) -> list[str]:
    values = payload["values"]
    if len(values) + payload["aborted"] != op.meta["count"]:
        return [f"{len(values)} values + {payload['aborted']} aborted != {op.meta['count']}"]
    law = RecordLaw(make_distribution(op.meta["spec"]), op.meta["n"], op.meta["k"], op.meta["side"])
    xs = sorted(values)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        c = law.cdf(x)
        d = max(d, (i + 1) / n - c, c - i / n)
    p = _kolmogorov_sf(d, n)
    return [] if p > KS_ALPHA else [f"KS against RecordLaw.cdf: D={d:.4f}, p={p:.2e}"]


def _gate_symtest(op: Op, payload: dict) -> list[str]:
    errs = []
    if payload["n"] != op.meta["size"] or payload["replicates"] != REPLICATES:
        errs.append("symtest echoed the wrong sample size or replicate count")
    if op.meta["family"] == "exponential" and op.meta["size"] >= 5000 and payload["decision"] != "reject":
        errs.append(f"symtest did not reject on exponential n={op.meta['size']} (p={payload['p_value']})")
    return errs


_ORACLES = {
    "crj": lambda d, a: M.crj_via_support(d),
    "cpj": lambda d, a: M.cpj_via_support(d),
    "gcrj": lambda d, a: M.gcrj_via_support(d, a["m"]),
    "gcpj": lambda d, a: M.gcpj_via_support(d, a["m"]),
    "record_crj_upper": lambda d, a: M.record_crj_upper_via_support(d, a["n"], a["k"]),
    "record_cpj_lower": lambda d, a: M.record_cpj_lower_via_support(d, a["n"], a["k"]),
    "kij": lambda d, a: M.kij_record_via_support(d, a["n"], a["k"], a["side"]),
    "crij_upper": lambda d, a: M.crij_upper_via_support(d, a["n"], a["k"]),
    "cpij_lower": lambda d, a: M.cpij_lower_via_support(d, a["n"], a["k"]),
    "extropy": lambda d, a: M.extropy_via_quantile(d),
}


def oracle_gate(o: Outcome) -> tuple[list[str], bool]:
    """A settled result agrees in status and value with its reference form.

    Returns (failures, unverified).  Where the reference form itself does not
    settle there is nothing to compare against: that is no failure of the
    op, but it is returned as ``unverified`` and reported.
    """
    if o.error is not None:
        return [], False
    if o.op.command == "library":
        oracle = o.op.meta["oracle"]
        status, value = o.out.split(" ", 1)
        if oracle is None or status == "no_convergence":
            return [], False
        return _compare(o.op.case, status, float(value), oracle())
    if o.op.command != "measure" or o.rc != 0:
        return [], False
    mid = o.op.meta["measure"]
    if mid not in _ORACLES:
        return [], False
    payload = json.loads(o.out)
    ref = _ORACLES[mid](make_distribution(o.op.meta["spec"]), o.op.meta["args"])
    return _compare(f"{mid}({o.op.meta['spec']}, {o.op.meta['args']})",
                    payload["quad_status"], payload["value"], ref)


def _compare(label: str, status: str, value: float, ref) -> tuple[list[str], bool]:
    if ref.quad_status.value == "no_convergence":
        return [], True
    if ref.quad_status.value != status:
        return [f"{label}: status {status} but reference form gives {ref.quad_status.value}"], False
    if status == "converged" and not _close(value, ref.value):
        return [f"{label}: value {value} but reference form gives {ref.value}"], False
    return [], False
