#!/usr/bin/env python3
"""Minor page faults per scatter op after a warm-up; exits 1 when their median exceeds 10.

The integrator keeps one RK4 workspace between solves, so after a warm-up a
scatter op at l = 3 and 4 faults in no fresh pages; with fresh arrays per
pass it took 55-150 minor faults.  The faults counted are this process's
own, which a test runner's heap would perturb, so run it alone, on one
BLAS thread:

    OPENBLAS_NUM_THREADS=1 python3 -W error::RuntimeWarning scripts/scatter_faults.py
"""

import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from homscat.classify import hessian_from_scattering
from homscat.flow import scattering_matrix
from homscat.matkit import inertia
from homscat.models import ModelSpec, scattering_problem

MAX_MEDIAN_FAULTS = 10


def specs():
    """The l = 3 and 4 specs at T_support 3 and 5, each with a seeded symmetric C."""
    rng = np.random.default_rng(7)
    out = []
    for l in (3, 4):
        for T in (3.0, 5.0):
            C = rng.standard_normal((2 * l, 2 * l))
            out.append(ModelSpec(l=l, n_hyp=1, omega=np.arange(1.0, l + 1.0), eps=0.05, C=C + C.T, T_support=T))
    return out


def op(spec):
    problem = scattering_problem(spec)
    return inertia(hessian_from_scattering(scattering_matrix(problem).sigma, problem.D_center))


def main() -> int:
    cycle = specs()
    for spec in cycle * 3:
        op(spec)
    faults = []
    for spec in cycle * 20:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        op(spec)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    median = statistics.median(faults)
    print(f"minor page faults per scatter op after warm-up: median {median}, max {max(faults)} over {len(faults)} ops")
    if median > MAX_MEDIAN_FAULTS:
        print(f"a median of {median} minor page faults per scatter op exceeds {MAX_MEDIAN_FAULTS}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
