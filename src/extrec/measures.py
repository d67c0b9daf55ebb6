"""Extropy-type information functionals of distributions and their k-records.

The kernel table :data:`KERNELS` is the single source of every measure, gap,
CLI ``--measure`` id and verify residual family, and each of its rows is the
public function of its ``measure_id``: ``crj = KERNELS["crj"]`` here, and the
gap rows such as ``delta1`` in :mod:`extrec.symmetry`.  A row is called as
``row(d, *params, tol=...)``, its params given in ``row.params`` order or by
name, and evaluates as :func:`measure_value`, which the CLI calls for any
row, gaps included; verify evaluates its whole grid the same way.  A row's
kernel, built from (n, k, m) in :mod:`extrec.records`, is a value
``(u^b P(-log u))^m u^e``.

Every row, extropy (``kij`` at n = k = 1) included, is an integral of
``K(u) / dqf`` or ``K(u) * dqf`` over (0, 1), or a gap's over (0, 1/2), and
one function, :func:`_integrand`, writes it in either of two variables: u
(the quantile form) or x with u = sf(x) or cdf(x) (the support form, which
takes no quantile).  The primary integrates in u, which treats bounded and
unbounded supports uniformly, unless the law
:attr:`~extrec.dist.Distribution.bisects`, a bisection per node (a scaled law
takes its base's); then it integrates in x, unless a ``K/dqf`` kernel reaches
an infinite end of the support, where the x form diverges.
:func:`oracle_value`, called as ``row.oracle(d, *params, tol=...)``, takes a
measure row in the other variable, from the same kernel, as an independent
cross-check, so no row names an oracle.  The ``*_via_support`` names are
aliases of their rows' ``oracle``, kept because perfbench's measure-sweep
calls them; ``extropy_via_quantile`` is ``extropy.oracle``, which on a
catalog law, with its own quantile, is the support form, whatever the name
says.  Plain and generalized, base-level and record-level measures share one
kernel, so the reduction identities (m=2 generalized == plain, n=1 record of
order m == base of order k*m) hold exactly.  A gap row (one with a verify
``family``) integrates K(u) - K(1-u) against :func:`eta` over (0, 1/2), or
in x the weight K(sf(x)) - K(cdf(x)) over the support, and has no oracle.

Kernels, ``eta`` and every integrand here take an array of nodes, so the
quadrature evaluates each once per array.  Every evaluation goes from points
``(row, {param: value})`` to integrations in two parts.  The plan
(:func:`_plan`, the only caller of :func:`resolve`) takes no law: it
resolves and checks each point once and gives each its params, its stack
and its row in that stack, and each stack its form, side and kernels as a
:class:`~extrec.records._Stack`, which evaluates each distinct base of its
kernels once per node array and keeps its rows in u per quadrature
interval for every later law (:func:`_integrand`).  The gap rows of one
form share a stack on shared nodes; a measure point is a stack of its own.  A gap point whose
kernel is constant (``delta_kij`` at n = 1) is in no stack: its weight
K(u) - K(1-u) is 0, so it takes the ladder's zero answer.  The integration
(:func:`_integrate`) is per law: the tolerance check, the structural rule
and the variable once per stack, one integration call per stack the rule
does not decide (the oracle's in the other variable, without the rule), and
each point's ``(value, status, abs_error)``, scaled by its prefactor, in
point order.  :func:`_evaluate` wraps each in a :class:`MeasureValue`;
verify builds its residuals from the same list.  verify plans each
(n, k, m) grid once and integrates that plan on every law;
:func:`measure_value` and :func:`oracle_value` plan their one point afresh,
and only its one-kernel stack is kept, on its kernel.

Divergent measures come back as signed markers (value +/-inf), never as a
saturated finite number.  Every ``K/dqf`` kernel has K(0) = 0 and K(1) = 1,
so some divergences take no quadrature (:func:`_structural`): a ``K/dqf``
measure whose kernel meets an infinite end of the support, and every ``K/dqf``
gap on a support with one infinite end, whose weight tends to -1 as u -> 0:
its raw integral is -inf if the upper end is infinite, +inf if the lower.
Any other gap of a law that declares its symmetry
(:attr:`~extrec.dist.Distribution.symmetric`: the symmetric catalog laws and
their scalings) is 0, also without quadrature: its ``eta`` is 0 at every u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .dist import Distribution, lift
from .quad import (_ZERO_ROW, DEFAULT_TOL, QuadResult, QuadStatus, _lift, check_tol,
                   integrate_support_stack)
from .records import _Stack, check_params, phi_power, stack, u_phi, weight

__all__ = [
    "MeasureValue",
    "KERNELS",
    "measure_value",
    "oracle_value",
    "extropy",
    "crj",
    "cpj",
    "gcrj",
    "gcpj",
    "record_crj_upper",
    "record_cpj_lower",
    "record_gcrj_upper",
    "record_gcpj_lower",
    "kij_record",
    "crij_upper",
    "cpij_lower",
    "extropy_via_quantile",
    "crj_via_support",
    "cpj_via_support",
    "gcrj_via_support",
    "gcpj_via_support",
    "record_crj_upper_via_support",
    "record_cpj_lower_via_support",
    "kij_record_via_support",
    "crij_upper_via_support",
    "cpij_lower_via_support",
]


@dataclass(frozen=True)
class MeasureValue:
    """A computed functional: finite value or signed divergence marker.

    ``value`` is +/-inf when the defining integral diverges (``quad_status``
    then carries the matching diverged status, oriented after the -1/2
    prefactor).  Every finite extropy-type value is <= 0.
    """

    measure_id: str
    value: float
    quad_status: QuadStatus
    abs_error: float
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def is_finite(self) -> bool:
        return self.quad_status is QuadStatus.CONVERGED

    @property
    def is_divergent(self) -> bool:
        return self.quad_status in (QuadStatus.DIVERGED_POSITIVE, QuadStatus.DIVERGED_NEGATIVE)

    def display(self) -> str:
        if self.quad_status is QuadStatus.DIVERGED_POSITIVE:
            return "divergent(+)"
        if self.quad_status is QuadStatus.DIVERGED_NEGATIVE:
            return "divergent(-)"
        if self.quad_status is QuadStatus.NO_CONVERGENCE:
            return "no_convergence"
        return f"{self.value:.12g}"


def _scaled(qr: QuadResult, scale: float) -> tuple[float, QuadStatus, float]:
    """(value, status, abs_error) of a constant prefactor times a QuadResult,
    reorienting divergence signs."""
    status = qr.status
    if status is QuadStatus.CONVERGED:
        return scale * qr.value, status, abs(scale) * qr.abs_error_estimate
    if status is QuadStatus.DIVERGED_POSITIVE or status is QuadStatus.DIVERGED_NEGATIVE:
        positive = (status is QuadStatus.DIVERGED_POSITIVE) == (scale > 0)
        return ((math.inf, QuadStatus.DIVERGED_POSITIVE, math.inf) if positive
                else (-math.inf, QuadStatus.DIVERGED_NEGATIVE, math.inf))
    return math.nan, status, math.inf


@dataclass(frozen=True)
class KernelRow:
    """A measure or gap: ``prefactor`` times the integral of its kernel.

    The row is its measure's public function: ``row(d, *params, tol=...)``
    is :func:`measure_value` and ``row.oracle(d, *params, tol=...)`` is
    :func:`oracle_value`, each param given once, in ``params`` order or by
    name.  ``doc`` defines the measure."""

    id: str | None             # CLI --measure id; None if the CLI does not offer it
    measure_id: str            # MeasureValue.measure_id
    params: tuple[str, ...]    # free parameters; the others are ``fixed`` or n=1, k=1, m=2
    kernel: Callable           # (n, k, m) -> its Kernel K; a gap row's weight
                               # K(u) - K(1-u) is derived from it
    form: str                  # "K/dqf": K(u)/dqf, "w*dqf": K(u)*dqf
    side: str | None           # "upper" takes dqf(1-u), "lower" dqf(u); None: the side param
    prefactor: float
    family: str | None = None  # verify residual family, set on gap rows
    fixed: Mapping[str, int] = field(default_factory=dict)
    doc: str = field(default="", repr=False, compare=False)

    def __call__(self, d: Distribution, *values, tol: float = DEFAULT_TOL,
                 **by_name) -> MeasureValue:
        return measure_value(self, d, **self._bind(values, by_name), tol=tol)

    def oracle(self, d: Distribution, *values, tol: float = DEFAULT_TOL,
               **by_name) -> MeasureValue:
        return oracle_value(self, d, **self._bind(values, by_name), tol=tol)

    def _bind(self, values: tuple, by_name: dict) -> dict:
        """{param: value}, as a function with the parameters ``params`` binds
        them: each given once, by position or by name, else TypeError."""
        bound = {**dict(zip(self.params, values)), **by_name}
        if len(bound) != len(values) + len(by_name) or bound.keys() != set(self.params):
            raise TypeError(f"{self.measure_id}({', '.join(('d', *self.params))}, *, tol) "
                            f"takes each param once; got {len(values)} positional and "
                            f"{sorted(by_name)} by name")
        return bound


#: The kernel table, keyed by ``measure_id``; gap rows in verify order.
KERNELS: dict[str, KernelRow] = {row.measure_id: row for row in (
    KernelRow("extropy", "extropy", (), weight, "w*dqf", "lower", -0.5, doc=(
        'J(X) = -1/2 * integral of pdf**2 = -1/2 * integral of dqf: kij_record(d, 1, 1, "lower").')),
    KernelRow("crj", "crj", (), phi_power, "K/dqf", "upper", -0.5, doc=(
        "Cumulative residual extropy, -1/2 * integral of u^2/dqf(1-u).")),
    KernelRow("cpj", "cpj", (), phi_power, "K/dqf", "lower", -0.5, doc=(
        "Cumulative past extropy, -1/2 * integral of u^2/dqf(u).")),
    KernelRow("gcrj", "gcrj", ("m",), phi_power, "K/dqf", "upper", -0.5, doc=(
        "Generalized cumulative residual extropy of order m.")),
    KernelRow("gcpj", "gcpj", ("m",), phi_power, "K/dqf", "lower", -0.5, doc=(
        "Generalized cumulative past extropy of order m.")),
    KernelRow("record_crj_upper", "record_crj_upper", ("n", "k"), phi_power, "K/dqf",
              "upper", -0.5, doc=(
        "CRJ of the n-th upper k-record, -1/2 * integral of phi_n^2(u)/dqf(1-u).")),
    KernelRow("record_cpj_lower", "record_cpj_lower", ("n", "k"), phi_power, "K/dqf",
              "lower", -0.5, doc=(
        "CPJ of the n-th lower k-record, -1/2 * integral of phi_n^2(u)/dqf(u).")),
    KernelRow("record_gcrj_upper", "record_gcrj_upper", ("n", "k", "m"), phi_power, "K/dqf",
              "upper", -0.5, doc="Order-m GCRJ of the n-th upper k-record."),
    KernelRow("record_gcpj_lower", "record_gcpj_lower", ("n", "k", "m"), phi_power, "K/dqf",
              "lower", -0.5, doc="Order-m GCPJ of the n-th lower k-record."),
    KernelRow("kij", "kij_record", ("n", "k", "side"), weight, "w*dqf", None, -0.5, doc=(
        "Inaccuracy extropy between the (n, k) record law and the base law.  Upper: "
        "-1/2 * integral of w(u) * dqf(1-u); lower: same with dqf(u), where w is the "
        "record density transported to u-space.")),
    KernelRow("crij_upper", "crij_upper", ("n", "k"), u_phi, "K/dqf", "upper", -0.5, doc=(
        "Cumulative residual extropy inaccuracy of the upper record vs the base.  Kernel "
        "psi(u) = u * phi_n(u) = u^(k+1) * sum_{i<n} (-k log u)^i / i!.")),
    KernelRow("cpij_lower", "cpij_lower", ("n", "k"), u_phi, "K/dqf", "lower", -0.5, doc=(
        "Cumulative past extropy inaccuracy of the lower record vs the base.")),
    KernelRow("delta1", "delta1", (), phi_power, "K/dqf", None, -0.5, family="crj_cpj", doc=(
        "Residual-minus-past gap crj - cpj, as -1/2 * int_0^1/2 eta(u)(u^2 - (1-u)^2) du.")),
    KernelRow("delta2", "delta2", ("n", "k"), phi_power, "K/dqf", None, -0.5,
              family="record_crj_cpj", doc=(
        "Record-level gap crj(upper record) - cpj(lower record), antisymmetrized.")),
    KernelRow("delta3", "delta3", ("m",), phi_power, "K/dqf", None, 0.5, family="gcrj_gcpj", doc=(
        "Past-minus-residual gap gcpj - gcrj, as +1/2 * int eta(u)(u^m - (1-u)^m) du.  The "
        "sign convention makes delta3 equal gcpj - gcrj whenever both converge.  At m = 2 "
        "the weight is delta1's u^2 - (1-u)^2, so delta3(d, 2) == -delta1(d) exactly.")),
    KernelRow(None, "delta2_generalized", ("n", "k", "m"), phi_power, "K/dqf", None, -0.5,
              family="record_gcrj_gcpj", doc=(
        "Order-m record-level gap gcrj(upper record) - gcpj(lower record).")),
    KernelRow("delta_kij", "delta_kij", ("n",), weight, "w*dqf", None, -0.5,
              family="kij", fixed={"k": 1}, doc=(  # the KIJ equality only characterizes at k = 1
        "Inaccuracy gap kij(upper (n,1) record) - kij(lower (n,1) record).  Uses the "
        "antisymmetrized (0, 1/2) integral of the log-kernel against the density-quantile "
        "gap; identical to the difference of the two inaccuracy measures whenever both "
        "converge, and identically zero at n=1.")),
    KernelRow("delta_crij", "delta_crij", ("n", "k"), u_phi, "K/dqf", None, -0.5,
              family="crij_cpij", doc=(
        "Cumulative inaccuracy gap crij(upper record) - cpij(lower record).")),
)}


def resolve(row: KernelRow, n: int = 1, k: int = 1, m: int = 2, side: str = "upper") -> tuple:
    """The row's free parameters and its kernel's (n, k, m), each a plain int;
    all four arguments are checked, whether or not the row uses them."""
    check_params(n=n, k=k, m=m, side=side)
    given = {"n": int(n), "k": int(k), "m": int(m), "side": side}
    params = {p: given[p] for p in row.params}
    point = {"n": 1, "k": 1, "m": 2, **row.fixed, **params}
    return params, (point["n"], point["k"], point["m"])


def eta(d: Distribution, u):
    """Reciprocal density-quantile gap 1/dqf(1-u) - 1/dqf(u); zero iff symmetric.
    ``u`` is one value or an array of them, each in (0, 1), as ``dqf`` checks."""
    return 1.0 / d.dqf_c(u) - 1.0 / d.dqf(u)


def _diverges_in_x(d: Distribution, form: str, side: str | None) -> bool:
    """A ``K/dqf`` integrand in x tends to a nonzero constant at an infinite
    end of the support: a measure's K(p(x)) tends to 1 at the lower end on
    the upper side and at the upper end on the lower, and a gap's
    K(sf(x)) - K(cdf(x)) tends to -1 at the upper end and +1 at the lower."""
    ends = d.support if side is None else (d.support[0 if side == "upper" else 1],)
    return form == "K/dqf" and any(map(math.isinf, ends))


def _structural(d: Distribution, form: str, side: str | None) -> QuadResult | None:
    """The raw integral of a row that the law's structure decides, or None.
    First a divergence that constant decides: +inf for a measure, and for a
    gap with one infinite end -inf (the upper) or +inf (the lower).  In u,
    K(0) = 0 and K(1) = 1 for every such kernel, so the gap weight
    K(u) - K(1-u) tends to -1 as u -> 0, where 1/dqf_c (upper) or 1/dqf
    (lower) has an infinite integral; a gap on the whole line meets both
    ends.  Then a gap of a law that declares itself ``symmetric`` is the
    ladder's zero answer: its eta and dqf_c - dqf are 0 at every u."""
    lo, hi = (math.isinf(e) for e in d.support)
    if _diverges_in_x(d, form, side) and not (side is None and lo and hi):
        positive = side is not None or lo
        status = QuadStatus.DIVERGED_POSITIVE if positive else QuadStatus.DIVERGED_NEGATIVE
        return QuadResult(math.inf if positive else -math.inf, math.inf, status,
                          "integrand tends to a nonzero constant at an infinite end of the support")
    return _ZERO_ROW if side is None and d.symmetric else None


def _variable(d: Distribution, form: str, side: str | None, oracle: bool = False) -> str:
    """The primary's variable of integration, or with ``oracle`` the other
    one: u, unless the law ``bisects`` (a bisection at every node) and the
    integrand converges in x."""
    in_x = d.bisects and not _diverges_in_x(d, form, side)
    return "x" if in_x != oracle else "u"


def _at(f: Callable, x: np.ndarray) -> np.ndarray:
    """``lift(f, x)``; if f raises an arithmetic error at some node, the array
    is redone through ``quad._lift``, which reads that node as nan, a
    non-finite integrand value, as it does for a scalar integrand."""
    try:
        return lift(f, x)
    except ArithmeticError:
        return _lift(f)(x)


def _integrand(form: str, kernels: _Stack, d: Distribution, side: str | None,
               variable: str) -> tuple[Callable, tuple[float, float]]:
    """(F, domain): the integral of each row of F over the domain is one
    integral of a kernel of the stack, taken in the variable u or x.

    On ``side`` "upper" or "lower" that is the integral over (0, 1) of K(u)
    times g(u), where g is 1/dqf (``K/dqf``) or dqf (``w*dqf``) on the lower
    side and the same of dqf_c on the upper.  With ``side`` None it is the
    gap: the integral over (0, 1/2) of K(u) - K(1-u) times g_c(u) - g(u).
    In x, u = sf(x) on the upper side and cdf(x) on the lower, so g(u) du
    is dx (``K/dqf``) or pdf(x)**2 dx (``w*dqf``) and no quantile is taken.
    A gap in x runs over the whole support, where its weight K(u) - K(1-u)
    is K(sf(x)) - K(cdf(x)) on both sides of the median.  The quadrature
    splits a whole-line support at 0, so there x is shifted to split it at
    the median.

    In u, F reads the stack's rows, or its gap rows K(u) - K(1-u), from the
    stack's :meth:`~extrec.records._Stack.table`: the quadrature calls F on
    whole intervals, the kernels do not depend on the law, so a later law
    on the same stack evaluates only the intervals the table lacks, and a
    node's rows have the same bits in any call, so the table changes no
    output bit.  Only the factor g is the law's.  In x the nodes u are the
    law's sf or cdf, so the stack is called on them directly.
    """
    if variable == "u":
        if side is None:
            def F(u: np.ndarray) -> np.ndarray:
                w = kernels.table(u, gap=True)
                return w * (eta(d, u) if form == "K/dqf" else d.dqf_c(u) - d.dqf(u))
            return F, (0.0, 0.5)
        den = d.dqf_c if side == "upper" else d.dqf

        def F(u: np.ndarray) -> np.ndarray:
            w = kernels.table(u)
            return w / den(u) if form == "K/dqf" else w * den(u)
        return F, (0.0, 1.0)

    c = float(d.quantile(0.5)) if all(map(math.isinf, d.support)) else 0.0

    def F(x: np.ndarray) -> np.ndarray:
        x = x + c
        if side is None:
            sf, cdf = _at(d.sf, x), _at(d.cdf, x)
            w = kernels(np.concatenate([sf, cdf]))
            w, inside = w[:, :x.size] - w[:, x.size:], (sf > 0.0) & (cdf > 0.0)
        else:
            u = _at(d.sf if side == "upper" else d.cdf, x)
            w, inside = kernels(u), u > 0.0
        if form == "K/dqf":
            return w
        return np.where(inside, w * _at(d.pdf, x) ** 2, 0.0)  # K takes log u, so 0 where u is
    return F, d.support


@dataclass(frozen=True)
class _Plan:
    """What evaluating a list of points takes that does not depend on the law."""

    # (row, params, stack, row in it); a zero point's stack and row are None
    points: tuple[tuple[KernelRow, dict, int | None, int | None], ...]
    stacks: tuple[tuple[str, str | None, _Stack], ...]   # (form, side, kernels)


def _plan(points) -> _Plan:
    """The plan of the points ``(row, {param: value})``, each resolved, and so
    checked, here; a param left out takes :func:`resolve`'s default.  The gap
    rows of one form share a stack, in which each distinct kernel is one row,
    and a measure point is a stack of its own.  A gap point whose kernel is
    constant (b = e = 0 and one coefficient, as ``delta_kij``'s at n = 1) is a
    zero point, in no stack: its weight K(u) - K(1-u) is 0 at every u."""
    stacks: dict[tuple, tuple[int, dict]] = {}  # (form, side, point or None) -> (s, {K: row})
    planned = []
    for i, (row, given) in enumerate(points):
        params, nkm = resolve(row, **given)
        K = row.kernel(*nkm)
        if row.family and K.b == K.e == 0 and len(K.logc) == 1:  # constant: its gap weight is 0
            planned.append((row, params, None, None))
            continue
        key = (row.form, params.get("side", row.side), None if row.family else i)
        s, kernels = stacks.setdefault(key, (len(stacks), {}))
        planned.append((row, params, s, kernels.setdefault(K, len(kernels))))
    return _Plan(tuple(planned), tuple((form, side, stack(tuple(kernels)))
                                       for (form, side, _), (_, kernels) in stacks.items()))


def _integrate(d: Distribution, plan: _Plan, tol: float,
               oracle: bool = False) -> list[tuple[float, QuadStatus, float]]:
    """Per point of the plan, in point order, its ``(value, status,
    abs_error)`` on ``d``, its prefactor times its kernel's raw result: one
    integration call per stack in the primary's variable, unless
    :func:`_structural` decides it, or with ``oracle`` in the other one.  A
    zero point takes the ladder's zero answer, ``quad._ZERO_ROW``."""
    check_tol(tol=tol)
    done = []
    for form, side, kernels in plan.stacks:
        qr = None if oracle else _structural(d, form, side)
        done.append([qr] * len(kernels) if qr else integrate_support_stack(
            *_integrand(form, kernels, d, side, _variable(d, form, side, oracle)), tol))
    return [_scaled(_ZERO_ROW if s is None else done[s][j], row.prefactor)
            for row, _, s, j in plan.points]


def _evaluate(d: Distribution, plan: _Plan, tol: float,
              oracle: bool = False) -> list[MeasureValue]:
    """The plan's points on ``d``, each :func:`_integrate`'s result as a
    :class:`MeasureValue`."""
    return [MeasureValue(row.measure_id, *result, dict(params)) for (row, params, _, _), result
            in zip(plan.points, _integrate(d, plan, tol, oracle))]


def measure_value(row: KernelRow, d: Distribution, n: int = 1, k: int = 1, m: int = 2,
                  side: str = "upper", tol: float = DEFAULT_TOL) -> MeasureValue:
    """Evaluate any row of :data:`KERNELS` on ``d``: a gap row by its integral
    over (0, 1/2), every other row over (0, 1), each in the primary's
    variable.  The point is planned afresh, a stack of its own."""
    return _evaluate(d, _plan([(row, {"n": n, "k": k, "m": m, "side": side})]), tol)[0]


def oracle_value(row: KernelRow, d: Distribution, n: int = 1, k: int = 1, m: int = 2,
                 side: str = "upper", tol: float = DEFAULT_TOL) -> MeasureValue:
    """Evaluate a measure row of :data:`KERNELS` on ``d`` in the other
    variable's form: in x (the support form) where the primary integrates in
    u, and in u (the quantile form) where it integrates in x.  It has no
    structural divergence rule.  A gap row has no oracle: ValueError.
    """
    if row.family is not None:
        raise ValueError(f"{row.measure_id} is a gap and has no support form")
    return _evaluate(d, _plan([(row, {"n": n, "k": k, "m": m, "side": side})]), tol, oracle=True)[0]


# Each measure row is the public function of its measure_id; the gap rows are
# named in :mod:`extrec.symmetry`.
extropy = KERNELS["extropy"]
crj = KERNELS["crj"]
cpj = KERNELS["cpj"]
gcrj = KERNELS["gcrj"]
gcpj = KERNELS["gcpj"]
record_crj_upper = KERNELS["record_crj_upper"]
record_cpj_lower = KERNELS["record_cpj_lower"]
record_gcrj_upper = KERNELS["record_gcrj_upper"]
record_gcpj_lower = KERNELS["record_gcpj_lower"]
kij_record = KERNELS["kij_record"]
crij_upper = KERNELS["crij_upper"]
cpij_lower = KERNELS["cpij_lower"]

# The oracle names perfbench's measure-sweep calls, each its row's ``oracle``;
# extropy's is the support form on a law with its own quantile.
extropy_via_quantile = extropy.oracle
crj_via_support = crj.oracle
cpj_via_support = cpj.oracle
gcrj_via_support = gcrj.oracle
gcpj_via_support = gcpj.oracle
record_crj_upper_via_support = record_crj_upper.oracle
record_cpj_lower_via_support = record_cpj_lower.oracle
kij_record_via_support = kij_record.oracle
crij_upper_via_support = crij_upper.oracle
cpij_lower_via_support = cpij_lower.oracle
