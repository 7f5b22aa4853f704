"""Survey the trace-form transfer: worked examples and the (d, m, N) table.

Shows four exact computations end to end: the admissible rank-2 form
sqrt(2)*<1, 1> over Q(sqrt 2), the trace-zero lattice of the Hamilton
quaternion order over Q, the m = 1 witness at d = 7 (the negated
trace-zero lattice of (q theta - p, -1) over the septic field, with p/q
between its two largest roots), and the full table of degrees and ranks
with d(m + 2) <= 21.  The forms' signature profiles are checked against
their known values, ((0, 2), (2, 0)), ((3, 0),) and (0, 3) six times
then (2, 1); the witness must also be admissible with trace signature
(2, 19).  The table is compared with the recorded
tests/data/feasibility_table.csv; any mismatch is printed and the script
exits with status 1.

Usage: python3 scripts/transfer_survey.py
"""

import sys
import time
from itertools import zip_longest
from pathlib import Path

from k3cycles.lattice import signature
from k3cycles.numberfield import TotallyRealField
from k3cycles.transfer import (
    NumberFieldLattice,
    diagonal_lattice,
    feasibility_table,
    ks_admissible,
    quaternion_trace_zero,
    signature_profile,
    trace_lattice,
)

# x^7 - x^6 - 6x^5 + 4x^4 + 10x^3 - 4x^2 - 4x + 1, discriminant 20134393
SEPTIC = (1, -4, -4, 10, 4, -6, -1, 1)
GOLDEN_CSV = Path(__file__).resolve().parent.parent / "tests" / "data" / "feasibility_table.csv"


def show_form(title, m, want):
    """Print the form's transfer; True when its profile is want."""
    lat = trace_lattice(m)
    profile = tuple(tuple(s) for s in signature_profile(m))
    print(title)
    print(f"  profile over embeddings: {list(profile)}")
    print(f"  trace lattice rank {lat.rank}, signature {tuple(signature(lat))}")
    for row in lat.gram:
        print(f"    {row}")
    print(f"  admissible: {ks_admissible(m)}")
    if profile != want:
        print(f"  profile differs from the known {want}")
    return profile == want


def septic_witness():
    """The m = 1 witness at d = 7 and the seconds quaternion_trace_zero took."""
    field = TotallyRealField(SEPTIC)
    (_lo, hi), (lo, _hi) = field.embeddings()[-2:]
    r = (hi + lo) / 2  # q theta - p is positive at the largest root only
    z = [0] * field.degree
    order = [[[1] + z[1:] if t == s else z for t in range(4)] for s in range(4)]
    start = time.perf_counter()
    m = quaternion_trace_zero(field, [-r.numerator, r.denominator] + z[2:], [-1] + z[1:], order)
    seconds = time.perf_counter() - start
    return NumberFieldLattice(field, tuple(tuple(-x for x in row) for row in m.gram)), seconds


def main():
    sqrt2 = TotallyRealField.quadratic(2)
    ok = show_form(
        "sqrt(2) * <1, 1> over Q(sqrt 2):",
        diagonal_lattice(sqrt2, [[0, 1], [0, 1]]),
        ((0, 2), (2, 0)),
    )

    rationals = TotallyRealField.rationals()
    order = tuple(
        tuple((1,) if t == s else (0,) for t in range(4)) for s in range(4)
    )
    ok &= show_form(
        "\ntrace-zero part of the Hamilton order Z<1, i, j, k>:",
        quaternion_trace_zero(rationals, (-1,), (-1,), order),
        ((3, 0),),
    )

    witness, seconds = septic_witness()
    want = ((0, 3),) * 6 + ((2, 1),)
    ok &= show_form(f"\nm = 1 witness at d = 7 ({seconds:.2f} s for the trace-zero lattice):",
                    witness, want)
    sig = tuple(signature(trace_lattice(witness)))
    if not ks_admissible(witness) or sig != (2, 19):
        print(f"  expected admissible with signature (2, 19), got {sig}")
        ok = False

    print("\nfeasible (degree d, rank m + 2) pairs and the count size N:")
    print(f"  {'d':>3} {'m':>3} {'N':>3}")
    rows = feasibility_table()
    for row in rows:
        print(f"  {row.d:>3} {row.m:>3} {row.n:>3}")

    got = [f"{r.d},{r.m},{r.n}" for r in rows]
    want = GOLDEN_CSV.read_text(encoding="utf-8").splitlines()[1:]
    diff = [(i, g, w) for i, (g, w) in enumerate(zip_longest(got, want)) if g != w]
    if diff:
        print(f"\nfeasibility table differs from {GOLDEN_CSV.name}:")
        for i, g, w in diff:
            print(f"  row {i}: computed {g}, recorded {w}")
        return 1
    print(f"\nfeasibility table matches {GOLDEN_CSV.name} ({len(got)} rows)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
