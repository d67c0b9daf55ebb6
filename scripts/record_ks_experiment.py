"""Monte Carlo validation of the analytic record laws: simulate n-th k-records
and compare their empirical cdf against the closed form by KS distance.
``--method scan`` runs the definitional stream scan instead of the exact
sampler."""

import argparse
import math
import time

import numpy as np

from extrec import make_distribution
from extrec.records import METHODS, RecordLaw, simulate_records


def ks_distance(values, cdf):
    x = np.sort(values)
    n = x.size
    F = np.fromiter((cdf(float(v)) for v in x), dtype=float, count=n)
    return float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(0, n) / n)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dists", nargs="+", default=["exponential:rate=1", "uniform"])
    ap.add_argument("--count", type=int, default=10_000)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--max-k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--method", choices=METHODS, default="exact")
    args = ap.parse_args()

    crit = 1.63 / math.sqrt(args.count)  # 99% one-sample KS critical value
    print(f"count={args.count} seed={args.seed} method={args.method} crit(1%)={crit:.4f}")
    worst = 0.0
    t0 = time.perf_counter()
    for spec in args.dists:
        base = make_distribution(spec)
        for n in range(1, args.max_n + 1):
            for k in range(1, args.max_k + 1):
                for side in ("upper", "lower"):
                    rs = simulate_records(base, n, k, side, args.count, args.seed,
                                          method=args.method)
                    law = RecordLaw(base, n, k, side)
                    d = ks_distance(rs.values, law.cdf)
                    worst = max(worst, d)
                    mark = "ok" if d < crit else "FAIL"
                    print(f"  {spec:20s} n={n} k={k} {side:5s} KS={d:.4f} "
                          f"aborted={rs.aborted} {mark}")
    print(f"worst KS = {worst:.4f} ({time.perf_counter() - t0:.1f}s)")


if __name__ == "__main__":
    main()
