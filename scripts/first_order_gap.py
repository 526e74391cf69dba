#!/usr/bin/env python3
"""Order-of-accuracy study: the reduced Hessian of sigma = exp(-eps J B)
divided by eps approaches the bracket of B linearly in eps.

For each seeded draw the script prints the gap |H/eps - bracket(B)| over a
geometric eps sweep together with the fitted constant gap/eps, which
stabilises as eps shrinks when H = eps bracket(B) + O(eps^2).  It exits 1
unless, for every draw, the constants at the two smallest eps agree within
the relative bound AGREEMENT; a first-order term missing from the bracket
would make gap/eps grow tenfold per step."""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from homscat.classify import hessian_from_scattering
from homscat.majorize import hessian_bracket
from homscat.matkit import CenterBlock, matrix_exponential, max_abs

# the constants agree within 8e-5 at l = 1..6 over six draws each
AGREEMENT = 1e-3


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
    failed = []
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
        a, b = (record["constant"] for record in records[-2:])
        spread = abs(a - b) / max(a, b)
        print(f"  the constants at the two smallest eps differ by {spread:.3e} relative")
        if not spread <= AGREEMENT:
            failed.append(draw)
    if args.out:
        document = {"l": args.l, "seed": args.seed, "agreement": AGREEMENT, "records": records}
        Path(args.out).write_text(json.dumps(document, indent=2))
        print(f"wrote {args.out}")
    if failed:
        print(f"FAIL: draws {failed} have constants that differ by more than {AGREEMENT:g} relative")
        return 1
    print(f"PASS: every draw's constants agree within {AGREEMENT:g} relative")
    return 0


if __name__ == "__main__":
    sys.exit(main())
