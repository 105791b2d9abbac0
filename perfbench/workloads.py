"""Seeded generator for the benchmark's realization documents.

Each workload is a fixed document shape; the seed only sets the
off-diagonal ``form e12 p/q`` coefficients.  Larger numerators and
denominators make every rational operation dearer, so all coefficients come
from one height class (numerator and denominator both in 5..13): the seed
stays part of a workload's identity without adding much run-to-run spread.

Seeds are reduced modulo ``VARIANTS`` so that every seed has a report digest
recorded in ``digests.json``.

    python3 perfbench/workloads.py --workload closure-heavy --seed 1
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction
from math import gcd

VARIANTS = 16
DEFAULT_SEED = 1

_POOL = tuple(
    Fraction(sign * p, q)
    for p in (5, 7, 11, 13)
    for q in (5, 7, 9, 11, 13)
    for sign in (1, -1)
    if gcd(p, q) == 1
)

_M2 = """algebra M2 {{
  basis e11 e12 e22
  unit e11 1, e22 1
  mul e11 e11 = e11 1
  mul e11 e12 = e12 1
  mul e12 e22 = e12 1
  mul e22 e22 = e22 1
}}

coalgebra F = dual M2
"""

# L = triangular 1 + 2 + 3 at N=4, d=2: ideal spans and BasisId hashing
# dominate, through the S^r closure and the Hopf-quotient check.
_CLOSURE_HEAVY = _M2 + """coalgebra P = triangular 1
coalgebra Q = triangular 2
coalgebra R = triangular 3
coalgebra L = sum P Q R

realization {{
  l L
  f F
  x P.l[1,1] = id 1
  x Q.l[1,1] = id 1
  x Q.l[2,2] = id 1
  x Q.l[2,1] = form e12 {0}
  x R.l[1,1] = id 1
  x R.l[2,2] = id 1
  x R.l[3,3] = id 1
  x R.l[2,1] = form e12 {1}
  x R.l[3,2] = form e12 {2}
  x R.l[3,1] = 0
  diag P.l[1,1] P.l[1,1]
  diag Q.l[1,1] Q.l[1,1]
  diag Q.l[2,2] Q.l[2,2]
  diag R.l[1,1] R.l[1,1]
  diag R.l[2,2] R.l[2,2]
  diag R.l[3,3] R.l[3,3]
}}

params {{
  truncation 4
  max-degree 2
  max-stages 4
}}
"""

# L = triangular 2 at N=5, d=3 with the triangular solver: the N+1 rebuild
# reaches 729-word blocks, so kernel persistence, mat_mul and the
# perturbation uniqueness check dominate while ideal spans stay small.
_WINDOW_HEAVY = _M2 + """coalgebra L = triangular 2

realization {{
  l L
  f F
  x l[1,1] = id 1
  x l[2,1] = form e12 {0}
  x l[2,2] = id 1
  diag l[1,1] l[1,1]
  diag l[2,2] l[2,2]
}}

params {{
  truncation 5
  max-degree 3
  max-stages 4
}}
"""

# The same L without diagonal inverse pairs at N=4, d=4: the only passing
# run of the general antipode solver (joint solve over the bounded operator
# algebra), with 81 degree-4 monomial kernel columns.
_GENERAL_SOLVER = _M2 + """coalgebra L = triangular 2

realization {{
  l L
  f F
  x l[1,1] = id 1
  x l[2,1] = form e12 {0}
  x l[2,2] = id 1
}}

params {{
  truncation 4
  max-degree 4
  max-stages 4
}}
"""

WORKLOADS = {
    "closure-heavy": (_CLOSURE_HEAVY, 3),
    "window-heavy": (_WINDOW_HEAVY, 1),
    "general-solver": (_GENERAL_SOLVER, 1),
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def coefficients(workload: str, seed: int) -> list:
    """The off-diagonal coefficients a seed gives a workload."""
    count = WORKLOADS[workload][1]
    rng = random.Random(f"{workload}/{variant(seed)}")
    return [rng.choice(_POOL) for _ in range(count)]


def generate(workload: str, seed: int) -> str:
    """The workload's document text for a seed."""
    template = WORKLOADS[workload][0]
    return template.format(*coefficients(workload, seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    print(generate(args.workload, args.seed), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
