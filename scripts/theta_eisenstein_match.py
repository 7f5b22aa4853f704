"""Compare theta series of unimodular lattices with Eisenstein series.

For E8 (and E8 + E8) the space of modular forms of the matching weight
is one dimensional, so the theta coefficients must reproduce the
divisor-sum Eisenstein coefficients exactly.  This script tabulates
both sides and reports any disagreement.

Usage: python3 scripts/theta_eisenstein_match.py [--indices N]
"""

import argparse
import sys

from k3cycles.lattice import builtin_lattice, direct_sum
from k3cycles.theta import eisenstein_sigma_coeffs, theta_coeffs


def compare(name, lat, weight, indices):
    series = theta_coeffs(lat, None, bound=2 * indices)
    eis = eisenstein_sigma_coeffs(weight, indices)
    theta_table = dict(series.coeffs)
    eis_table = dict(eis.coeffs)
    print(f"{name}: theta weight {series.weight}, Eisenstein weight {weight}")
    print(f"  {'n':>3} {'theta[2n]':>14} {'eisenstein[n]':>14}")
    clean = True
    for n in range(indices + 1):
        a = theta_table.get(2 * n, 0)
        b = eis_table.get(n, 0)
        marker = "" if a == b else "   <- MISMATCH"
        if a != b:
            clean = False
        print(f"  {n:>3} {str(a):>14} {str(b):>14}{marker}")
    return clean


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--indices", type=int, default=10, help="number of coefficients to compare"
    )
    args = parser.parse_args(argv)
    e8 = builtin_lattice("E8")
    ok = compare("E8", e8, 4, args.indices)
    ok &= compare("E8 + E8", direct_sum(e8, e8), 8, min(args.indices, 3))
    print("all coefficients agree" if ok else "DISAGREEMENT FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
