"""Certify the Kuga-Satake polarization package for a signature (n, 2) lattice.

Builds the complex structure j from a negative definite period plane and
the polarizing form <x, y> = trace(a x iota(y)) on the Clifford algebra,
and prints the exact certification: j^2, the orientation o of the plane
against the splitting's negative part, alternating/symmetric checks,
definiteness with inertia, and the sublattice acting by special
endomorphisms.  The inertia comes from the sign of o; at rank 10 and
below it is also computed densely, on all 2^rank monomials, by the test
oracle tests/oracles.py, and the script exits with status 1 if the two
differ.

Usage: python3 scripts/certify_kuga_satake.py [--lattice NAME_OR_JSON]
       [--z1 VEC --z2 VEC]
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from k3cycles.kuga_satake import (
    default_splitting,
    j_element,
    ks_report,
    period_plane,
    polarizer,
    special_endo_lattice,
)
from k3cycles.lattice import BUILTIN_NAMES, Lattice, builtin_lattice, signature

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

# On a 2-core x86 VM the dense walk takes 0.6 s on ks_a8_plane.json and up to
# 8 s on sheared Grams at rank 10, and took 64 s at rank 12.
DENSE_RANK_CAP = 10

DEMO_GRAM = (
    (2, 0, 0, 0, 0),
    (0, 2, 0, 0, 0),
    (0, 0, 2, 0, 0),
    (0, 0, 0, -2, 0),
    (0, 0, 0, 0, -2),
)


def load_lattice(spec):
    if spec is None:
        return Lattice(DEMO_GRAM)
    if spec in BUILTIN_NAMES:
        return builtin_lattice(spec)
    with open(spec, encoding="utf-8") as fh:
        return Lattice.from_dict(json.load(fh))


def parse_vector(text):
    return tuple(Fraction(part.strip()) for part in text.split(","))


def show(z):
    """A vector as a tuple of its entries' str, so 1/2 and not Fraction(1, 2)."""
    return "(" + ", ".join(map(str, z)) + "," * (len(z) == 1) + ")"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lattice", help="builtin name or JSON file")
    parser.add_argument("--z1", help="first plane vector, comma-separated")
    parser.add_argument("--z2", help="second plane vector, comma-separated")
    args = parser.parse_args(argv)

    lat = load_lattice(args.lattice)
    r = lat.rank
    z1 = parse_vector(args.z1) if args.z1 else tuple(int(i == r - 2) for i in range(r))
    z2 = parse_vector(args.z2) if args.z2 else tuple(int(i == r - 1) for i in range(r))

    print(f"lattice: rank {r}, signature {tuple(signature(lat))}")
    print(f"plane:   z1 = {show(z1)}, z2 = {show(z2)}")
    plane = period_plane(lat, z1, z2)
    splitting = default_splitting(lat)
    report = ks_report(lat, splitting, plane)
    print(f"j^2                  = {report.j_square_scalar}")
    print(f"orientation o        = {report.orientation}")
    print(f"alternating form ok  = {report.alternating_ok}")
    print(f"symmetric form ok    = {report.symmetric_ok}")
    print(f"definite             = {report.definite}  inertia {report.inertia}")
    print(f"torus dimension      = {report.torus_dim}")
    print(f"complex dimension    = {report.complex_dim}")
    endo = special_endo_lattice(lat, plane)
    print(f"special endo lattice = rank {endo.rank}, Gram {endo.gram}")
    certified = report.alternating_ok and report.symmetric_ok and report.definite
    if r <= DENSE_RANK_CAP:
        dense = oracles.ks_inertia(lat, polarizer(lat, splitting), j_element(plane)[0])
        print(f"dense inertia        = {dense}")
        certified &= dense == report.inertia
    print("certified" if certified else "CERTIFICATION FAILED")
    return 0 if certified else 1


if __name__ == "__main__":
    sys.exit(main())
