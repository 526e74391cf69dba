#!/usr/bin/env python3
"""Sweep every reachable signature (m, 2l - m) for l up to --max-l and report
the achieved inertia, the eps actually used, and the first-order gap."""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from homscat.classify import realize_signature


def default_omega(l, seed):
    # integers plus a seeded irrational jitter keep the squared frequencies distinct
    rng = np.random.default_rng(seed)
    return np.arange(1.0, l + 1.0) + rng.uniform(0.01, 0.09, size=l)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-l", type=int, default=4)
    parser.add_argument("--eps", type=float, default=1e-2)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args(argv)

    rows = []
    print(f"{'l':>3} {'m':>3} {'target':>10} {'achieved':>12} {'eps_used':>10} {'gap':>10}")
    for l in range(1, args.max_l + 1):
        omega = default_omega(l, (args.seed, l))
        for m in range(1, 2 * l):
            report = realize_signature(l, m, omega, args.eps)
            achieved = report.achieved.inertia
            rows.append(
                {
                    "l": l,
                    "m": m,
                    "omega": [float(x) for x in omega],
                    "achieved": list(achieved),
                    "eps_used": report.eps_used,
                    "first_order_gap": report.first_order_gap,
                }
            )
            target = f"({m},{2 * l - m})"
            print(
                f"{l:>3} {m:>3} {target:>10} {str(achieved):>12} "
                f"{report.eps_used:>10.2e} {report.first_order_gap:>10.2e}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "eps": args.eps, "rows": rows}, indent=2))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
