#!/usr/bin/env python3
"""Order-of-accuracy study: the reduced Hessian of sigma = exp(-eps J B)
divided by eps approaches the bracket of B linearly in eps.

For each seeded draw the script prints the gap |H/eps - bracket(B)| over a
geometric eps sweep together with the fitted constant gap/eps, which should
stabilise as eps shrinks."""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from homscat.classify import hessian_from_scattering
from homscat.majorize import hessian_bracket
from homscat.matkit import CenterBlock, matrix_exponential, max_abs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--l", type=int, default=2)
    parser.add_argument("--draws", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    block = CenterBlock(np.arange(1.0, args.l + 1.0))
    eps_grid = [10.0 ** (-k) for k in range(1, 6)]
    records = []
    for draw in range(args.draws):
        rng = np.random.default_rng((args.seed, draw))
        raw = rng.standard_normal((2 * args.l, 2 * args.l))
        B = 0.5 * (raw + raw.T)
        B /= max_abs(B)
        target = hessian_bracket(block, B)
        print(f"draw {draw}:")
        print(f"  {'eps':>8} {'gap':>12} {'gap/eps':>12}")
        for eps in eps_grid:
            sigma = matrix_exponential(-eps * block.J @ B)
            H = hessian_from_scattering(sigma, block.D)
            gap = max_abs(H / eps - target)
            records.append({"draw": draw, "eps": eps, "gap": gap, "constant": gap / eps})
            print(f"  {eps:>8.0e} {gap:>12.3e} {gap / eps:>12.3e}")
    if args.out:
        Path(args.out).write_text(json.dumps({"l": args.l, "seed": args.seed, "records": records}, indent=2))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
