"""Per-layer counts and self times from a cProfile run, aggregated by module.

Layers are the modules of the ``extrec`` package.  A function belongs to the
layer of the file that defines it.  Time spent in code outside the package
(the interpreter's builtins, numpy, scipy's QUADPACK wrapper) is charged to
the package layer that called it, split over its callers in proportion to
the time each caller's calls took; so ``quad.self_s`` includes QUADPACK's
compiled loop, and ``cli.self_s`` includes argparse and ``json.dumps``.

Outcome counts that a profile cannot see (how many outer integrations
diverged or did not settle) come from :class:`QuadTally`, which wraps the
public ``integrate_*`` functions where other layers imported them.
"""

from __future__ import annotations

import cProfile
import sys
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "measures", "symmetry", "quad", "records", "dist")

#: Counts that must repeat exactly between two traced passes of one input.
DETERMINISTIC = ("quad.quadpack_calls", "dist.dqf_evals", "records.phi_evals",
                 "symmetry.residual_calls", "dist.quantile_evals")


def profile(fn):
    """Run ``fn()`` under cProfile; return (its result, the raw stats dict)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    prof.create_stats()
    return result, prof.stats


class QuadTally:
    """Counts outer ``integrate_unit``/``integrate_support`` calls by status.

    Installed only while a traced pass runs.  ``quad``'s own internal calls
    (integrate_support -> integrate_unit) use its module globals and are not
    counted again.
    """

    NAMES = ("integrate_unit", "integrate_support")

    def __init__(self, package_modules):
        self.calls = 0
        self.status = defaultdict(int)
        self._patched = []
        quad = sys.modules["extrec.quad"]
        for mod in package_modules:
            if mod is quad:
                continue
            for name in self.NAMES:
                if getattr(mod, name, None) is getattr(quad, name):
                    self._patched.append((mod, name, getattr(mod, name)))

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.calls += 1
            self.status[res.status.value] += 1
            return res
        return counted

    def __enter__(self):
        for mod, name, fn in self._patched:
            setattr(mod, name, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        for mod, name, fn in self._patched:
            setattr(mod, name, fn)


class Profile:
    """Index over one cProfile stats dict."""

    def __init__(self, stats: dict, package_dir: Path, bench_dir: Path):
        self.stats = stats
        self._pkg = str(package_dir.resolve()) + "/"
        self._bench = str(bench_dir.resolve()) + "/"
        self._owner_memo: dict = {}
        self._extended = None

    def layer(self, key) -> str | None:
        """Package layer of a function, 'bench' for the harness, None if foreign."""
        filename = key[0]
        if filename.startswith(self._pkg):
            return Path(filename).stem
        if filename.startswith(self._bench):
            return "bench"
        return None

    def _owners(self, key, stack=()) -> dict:
        """How a function's own time splits over the package or harness
        functions it is charged to: itself if it has a layer, else its callers,
        in proportion to the time each caller's calls took."""
        if self.layer(key) is not None:
            return {key: 1.0}
        if key in self._owner_memo:
            return self._owner_memo[key]
        callers = {c: v for c, v in self.stats[key][4].items() if c not in stack}
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(v[1]) for c, v in callers.items()}
        total = sum(weights.values())
        out: dict = defaultdict(float)
        for caller, w in weights.items():
            if w > 0.0 and caller in self.stats:
                for owner, frac in self._owners(caller, stack + (key,)).items():
                    out[owner] += frac * w / total
        self._owner_memo[key] = dict(out)
        return self._owner_memo[key]

    def extended_self(self) -> dict:
        """Self time per package or harness function, foreign time included."""
        if self._extended is None:
            self._extended = defaultdict(float)
            for key, (_, _, tt, _, _) in self.stats.items():
                for owner, frac in self._owners(key).items():
                    self._extended[owner] += tt * frac
        return self._extended

    def self_times(self) -> dict:
        """Self time per layer."""
        out: dict = defaultdict(float)
        for key, t in self.extended_self().items():
            out[self.layer(key)] += t
        return out

    def self_time_of(self, layer: str, names) -> float:
        """Self time of the named functions of ``layer``, foreign time included."""
        ext = self.extended_self()
        return sum(ext.get(key, 0.0) for key in self.funcs(layer, set(names)))

    def funcs(self, layer: str, names) -> list:
        return [k for k in self.stats if k[2] in names and self.layer(k) == layer]

    def calls(self, layer: str, names, skip: str | None = "layer") -> int:
        """Calls of the named functions of ``layer``.

        ``skip="layer"`` counts only calls from other layers, ``skip="names"``
        drops calls among the named functions themselves (outermost calls of
        the group), and ``None`` counts every call.
        """
        return sum(nc for nc, _ in self._entries(layer, names, skip))

    def inclusive(self, layer: str, names, skip: str | None = "names") -> float:
        """Inclusive time of the named functions' calls, filtered as in :meth:`calls`."""
        return sum(ct for _, ct in self._entries(layer, names, skip))

    def _entries(self, layer, names, skip):
        names = set(names)
        for key in self.funcs(layer, names):
            for caller, (_, nc, _, ct) in self.stats[key][4].items():
                same_layer = self.layer(caller) == layer
                if skip == "layer" and same_layer:
                    continue
                if skip == "names" and same_layer and caller[2] in names:
                    continue
                yield nc, ct

    def foreign_calls(self, from_layer: str, module_part: str, name: str) -> int:
        """Calls from a package layer into a named function of another package."""
        total = 0
        for key, (_, _, _, _, callers) in self.stats.items():
            if key[2] == name and module_part in key[0] and self.layer(key) is None:
                total += sum(v[1] for c, v in callers.items() if self.layer(c) == from_layer)
        return total


def layer_metrics(prof: Profile, tally: QuadTally, replicates: int, realizations: int,
                  aborted: int) -> dict:
    """The per-layer metrics of one traced pass, as (value, unit) pairs."""
    selfs = prof.self_times()
    bootstrap_s = prof.inclusive("symmetry", {"symmetry_test"})
    simulate_s = prof.inclusive("records", {"simulate_records"})
    m = {
        "cli.calls": (prof.calls("cli", {"main"}), "count"),
        "measures.calls": (prof.calls("measures", _public("extrec.measures")), "count"),
        "symmetry.verify_calls": (prof.calls("symmetry", {"verify_characterizations"}), "count"),
        "symmetry.residual_calls": (prof.calls("symmetry", _DELTAS, skip="names"), "count"),
        "symmetry.eta_evals": (prof.calls("symmetry", {"eta"}, skip=None), "count"),
        "symmetry.class_c_s": (prof.inclusive("symmetry", {"class_c_check"}), "s"),
        "symmetry.bootstrap_s": (bootstrap_s, "s"),
        "symmetry.bootstrap_replicates_per_s": (replicates / bootstrap_s if bootstrap_s else 0.0, "1/s"),
        "quad.calls": (tally.calls, "count"),
        "quad.quadpack_calls": (prof.foreign_calls("quad", "scipy", "quad"), "count"),
        "quad.diverged": (tally.status["diverged_positive"] + tally.status["diverged_negative"], "count"),
        "quad.unsettled": (tally.status["no_convergence"], "count"),
        "records.phi_evals": (prof.calls("records", {"_eval"}, skip=None), "count"),
        "records.phi_self_s": (prof.self_time_of("records", {"_eval", "__call__", "at"}), "s"),
        "records.simulate_calls": (prof.calls("records", {"simulate_records"}, skip="names"), "count"),
        "records.simulate_s": (simulate_s, "s"),
        "records.realizations_per_s": (realizations / simulate_s if simulate_s else 0.0, "1/s"),
        "records.aborted": (aborted, "count"),
        "dist.dqf_evals": (prof.calls("dist", _DQF), "count"),
        "dist.dqf_self_s": (prof.inclusive("dist", _DQF, skip="layer"), "s"),
        "dist.quantile_evals": (prof.calls("dist", {"quantile"}, skip=None), "count"),
        "dist.quantile_self_s": (prof.inclusive("dist", _QUANTILE), "s"),
    }
    for lay in LAYERS:
        m[f"{lay}.self_s"] = (selfs.get(lay, 0.0), "s")
    return m


_DELTAS = {"delta1", "delta2", "delta3", "delta2_generalized", "delta_kij", "delta_crij"}
_DQF = {"dqf", "dqf_c"}
_QUANTILE = {"quantile", "quantile_array"}


def _public(module: str) -> set:
    return set(getattr(sys.modules[module], "__all__", ()))
