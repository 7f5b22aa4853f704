"""The benchmark's four workloads: seeded job lists and their checks.

Every job is one `k3cycles <subcommand>` or one public library call.  The
inputs come from `random.Random(f"{workload}:{seed}")` and are never
filtered by how the program behaves on them.  Each check compares the
artifact with a closed form computed here, without importing k3cycles,
wherever one exists; fixed cases are also compared with an artifact
recorded in reference/ (exact fields byte-equal, float fields within
their `*_tol` sibling).

Why each workload and case (the layers in parentheses do most of the work).
The seeded parts are chosen so that their cost does not depend on the seed:
the spread between seeds must stay inside the bounds of BENCHMARK.json.

theta (enumeration `_sweep`, theta)
  E8 to bound 10: the largest bound-scan job; coefficients are 240*sigma_3.
  E8 in a fixed skewed basis with seeded signs, three times, to bound 6:
    the same histogram from a skewed Gram, where preconditioning would show.
  a seeded D4 dual coset, shifted by a seeded lattice vector, to bound 31:
    rational shifts; every nontrivial coset has 8*sigma_1(n) vectors of odd
    norm n (Jacobi's four-square count, carried to the spinor cosets by
    triality).
  D4 and A2+A2 at tau = 0.3 + 0.9i with the transform check: the coset sum
    over the discriminant group.
counts (enumeration `_sweep_eq` and the tuple search with its linalg calls)
  E8 pairs with Gram ((2,1),(1,2)): 13440 = 240*56, the heaviest tuple search
    that fits a pass.  ((2,0),(0,2)) = 30240 takes twice as long and is left
    out for that reason.
  the skewed E8 (as in theta) at norm 6, three times: 240*sigma_3(3).
  a seeded D4 coset at a seeded odd norm t: 8*sigma_1(t).
  D4 pairs under seeded unimodular changes of the target: 192 for
    ((2,1),(1,2)) and 144 for ((2,0),(0,2)), whatever the change.
  genus-2 tables of D4 and A2+A2 to trace 6: many small tuple searches.
kuga-satake (clifford products and traces, linalg.inertia on 2^r forms)
  ks on diagonal Grams of signature (r-2, 2), r = 5, 6, 7, with a seeded
    orientation of the period plane, on a second fixed one at r = 6 and on
    the non-orthogonal A4+<-2>+<-2>: the inertia must be +-2^r and the
    special endomorphisms have known det.
  clifford on A5 with a + v (inverse (a - v)/(a^2 - (v,v))) and on A6 with
    u*w (inverse w*u/((u,u)(w,w)), in GSpin), v, u and w fixed vectors under
    a seeded automorphism and signs: products, inversion, spinor norms and
    the GSpin test all have closed forms.

Each workload's jobs are sized so that the median job (job_p50_s) falls in
a group of jobs of equal cost (the skewed E8 triples, the two rank-6 ks
jobs; in invariants, with an even number of jobs, the mean of gauss on E8
and on the rank-8 Gram at c = 4), well apart in cost from the jobs around
it; otherwise the median would jump between jobs from run to run.
invariants (linalg Smith form, lattice, gauss, numberfield, transfer)
  info on seeded U*D*U^T at rank 10, milgram at ranks 8 and 10, gauss
    at ranks 4 to 10: D even diagonal (DIAGONALS), U a product of r seeded
    shears; signature, det, the discriminant group, Milgram's formula and
    the Gauss sums follow from D.  gauss on E8 at c = 4 is 1.
  info on two fixed draws of the Smith-form fuzz shapes (5x5 entries <= 100,
    8x8 entries <= 5) whose Smith forms finish in about 0.4 s; most draws of
    these shapes do not finish (the Smith-form blowup), so they cannot be
    seeded.
  transfer over Q(sqrt 2), x^3 - 3x - 1 and Q(2cos(2pi/11)) of seeded
    diagonal forms: the trace-form Gram and the embedding signs are
    recomputed here.  The first two artifacts are fed to info, at ranks 8
    and 6: at rank 9 over the cubic field 5 draws in 400 hang in the Smith
    form.  info on the rank-20 artifact does not finish (the Smith-form
    blowup), so it is left out: a benchmark job may not fail.
  table: byte-equal to the recorded CSV.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from harness import Job

REFERENCE = Path(__file__).resolve().parent / "reference"

E8 = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)
# D4 with basis (1,-1,0,0), (0,1,-1,0), (0,0,1,-1), (0,0,1,1) of Z^4.
D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
# e1, (1,1,1,1)/2 and (1,1,1,-1)/2 in that basis: the nontrivial cosets.
D4_COSETS = (
    (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1)),
    (Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1, 2)),
)
A2A2 = ((2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2))
FIELDS = {
    "sqrt2": (-2, 0, 1),
    "cubic": (-1, -3, 0, 1),
    "quintic": (1, 3, -3, -4, 1, 1),
}
FUZZ_5X5 = (
    (71, 63, 69, -20, 67),
    (63, 31, 62, -23, 24),
    (69, 62, -25, 48, -86),
    (-20, -23, 48, 73, -46),
    (67, 24, -86, -46, 72),
)
FUZZ_8X8 = (
    (0, 5, 5, 1, -2, -5, 5, -5),
    (5, -1, -2, 0, 2, 4, -2, 5),
    (5, -2, -5, 4, -2, -4, 3, -2),
    (1, 0, 4, 2, -1, 2, 3, -3),
    (-2, 2, -2, -1, 5, 3, 0, -5),
    (-5, 4, -4, 2, 3, 3, -5, 2),
    (5, -2, 3, 3, 0, -5, 5, 1),
    (-5, 5, -2, -3, -5, 2, 1, 0),
)


# ---------------------------------------------------------------- arithmetic


def sigma(k: int, n: int) -> int:
    """Sum of d^k over the divisors d of n, by trial division."""
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def det(m) -> int:
    """Determinant of an integer matrix (Bareiss elimination)."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def shears(rng: random.Random, n: int, count: int) -> list[list[int]]:
    """A unimodular matrix: identity after `count` seeded row shears by +-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def congruent(u, g) -> list[list[int]]:
    """U G U^T."""
    n = len(g)
    ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def root_a(n: int) -> list[list[int]]:
    """Gram of the root lattice A_n."""
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def inner(g, x, y):
    return sum(x[i] * g[i][j] * y[j] for i in range(len(g)) for j in range(len(g)))


def diagonal_factors(ds) -> list[int]:
    """Invariant factors > 1 of diag(ds), ascending, from prime powers."""
    exps: dict[int, list[int]] = {}
    for d in ds:
        d, p = abs(d), 2
        while d > 1:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exps.setdefault(p, []).append(e)
            p += 1
    factors = [1] * len(ds)
    for p, es in exps.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            factors[len(ds) - 1 - k] *= p**e
    return [f for f in factors if f > 1]


def poly_mulmod(p, q, f):
    """p*q mod the monic f; coefficient lists, constant term first."""
    d = len(f) - 1
    prod = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            prod[i + j] += a * b
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for i in range(d + 1):
                prod[k - d + i] -= c * f[i]
    return (prod + [0] * d)[:d]


def field_trace(x, f) -> int:
    """Trace of multiplication by x on the power basis of Z[t]/(f)."""
    d = len(f) - 1
    return sum(poly_mulmod(x, [int(i == k) for i in range(d)], f)[k] for k in range(d))


def trace_form(a, f) -> list[list[int]]:
    """Gram of (x, y) -> Tr(a x y) on the power basis."""
    d = len(f) - 1
    basis = [[int(i == k) for i in range(d)] for k in range(d)]
    return [[field_trace(poly_mulmod(poly_mulmod(a, bk, f), bl, f), f) for bl in basis] for bk in basis]


def real_roots(f) -> list[float]:
    """Real roots of f, ascending, by sign scan and bisection in floats."""
    bound = 1 + max(abs(c) for c in f)

    def ev(x):
        return sum(c * x**i for i, c in enumerate(f))

    steps = 20000
    grid = [-bound + 2 * bound * k / steps for k in range(steps + 1)]
    roots = []
    for lo, hi in zip(grid, grid[1:]):
        if ev(lo) == 0:
            roots.append(lo)
        elif ev(lo) * ev(hi) < 0:
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if ev(lo) * ev(mid) > 0 else (lo, mid)
            roots.append((lo + hi) / 2)
    return roots


# ------------------------------------------------------------ artifact checks


def _expect(problems, doc, key, want):
    if doc.get(key) != want:
        problems.append(f"{key}: got {str(doc.get(key))[:80]}, want {str(want)[:80]}")


def _near(problems, doc, key, want):
    tol = doc.get(f"{key}_tol")
    got = doc.get(key)
    got = got if isinstance(got, list) else [got]
    want = want if isinstance(want, list) else [want]
    if not isinstance(tol, (int, float)) or len(got) != len(want) or any(
        not isinstance(g, (int, float)) or abs(g - w) > tol for g, w in zip(got, want)
    ):
        problems.append(f"{key}: got {got}, want {want} within {tol}")


def reference_problems(name: str, text: str) -> list[str]:
    """Compare an artifact with the one recorded for a fixed case."""
    path = REFERENCE / name.replace("/", "_")
    ref_text = path.read_text(encoding="utf-8")
    if not ref_text.startswith("{"):
        return [] if text == ref_text else ["differs from the recorded artifact"]
    doc, ref = json.loads(text), json.loads(ref_text)
    problems = []
    if sorted(doc) != sorted(ref):
        problems.append(f"keys {sorted(doc)} differ from the recorded {sorted(ref)}")
    for key, value in ref.items():
        if key.endswith("_tol"):
            _expect(problems, doc, key, value)
        elif f"{key}_tol" in ref:
            _near(problems, doc, key, value)
        elif json.dumps(doc.get(key), sort_keys=True) != json.dumps(value, sort_keys=True):
            problems.append(f"{key}: differs from the recorded artifact")
    return problems


def fixed(name: str, check, **kwargs) -> Job:
    """A case with fixed inputs, also compared with its recorded artifact."""

    def checked(text: str) -> list[str]:
        return check(text) + reference_problems(name, text)

    return Job(name, checked, fixed=True, **kwargs)


def series_check(bound, counts: dict[int, int], h=None):
    """theta coefficients: exactly `counts` (norm -> count), omitting zeros."""
    want = [[str(t), str(c)] for t, c in sorted(counts.items()) if t <= bound and c]

    def check(text):
        doc = json.loads(text)
        problems = []
        _expect(problems, doc, "coeffs", want)
        _expect(problems, doc, "bound", str(bound))
        if h is not None:
            _expect(problems, doc, "h", [str(x) for x in h])
        return problems

    return check


def e8_counts(bound):
    return {0: 1, **{2 * n: 240 * sigma(3, n) for n in range(1, bound // 2 + 1)}}


def d4_coset_counts(bound):
    return {n: 8 * sigma(1, n) for n in range(1, bound + 1, 2)}


def count_check(want: int):
    def check(text):
        problems = []
        _expect(problems, json.loads(text), "count", want)
        return problems

    return check


def lattice_file(gram) -> dict:
    return {"lat.json": {"gram": [list(row) for row in gram]}}


def vec(xs) -> str:
    return ",".join(str(x) for x in xs)


# ------------------------------------------------------------------ workloads


# A fixed skew of the E8 basis (8 row shears).  Seeds only flip the signs of
# the skewed basis vectors: enumeration cost does not depend on those signs,
# so the skewed jobs cost the same for every seed.
SKEW = shears(random.Random("E8 skew"), 8, 8)


def skewed_e8(rng: random.Random) -> list[list[int]]:
    signs = [rng.choice((1, -1)) for _ in range(8)]
    return congruent([[s * x for x in row] for s, row in zip(signs, SKEW)], E8)


def theta_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        fixed(
            "theta/E8-b10",
            series_check(10, e8_counts(10)),
            argv=["theta", "--lattice", "E8", "--bound", "10"],
        )
    ]
    for k in (1, 2, 3):
        gram = skewed_e8(rng)
        jobs.append(
            Job(
                f"theta/E8-skew{k}",
                series_check(6, e8_counts(6)),
                argv=["theta", "--lattice", "lat.json", "--bound", "6"],
                files=lattice_file(gram),
            )
        )
    h = [c + rng.randint(-2, 2) for c in rng.choice(D4_COSETS)]
    jobs.append(
        Job(
            "theta/D4-coset",
            series_check(31, d4_coset_counts(31), h),
            argv=["theta", "--lattice", "lat.json", "--bound", "31", f"--h={vec(h)}"],
            files=lattice_file(D4),
        )
    )
    for name, gram, roots in (("D4", D4, 24), ("A2A2", A2A2, 12)):

        def check(text, roots=roots):
            doc = json.loads(text)
            problems = []
            if doc["coeffs"][:2] != [["0", "1"], ["2", str(roots)]]:
                problems.append(f"coeffs start {doc['coeffs'][:2]}, want {roots} roots")
            _near(problems, doc, "transform_residual", 0.0)
            return problems

        jobs.append(
            fixed(
                f"theta/{name}-tau",
                check,
                argv=["theta", "--lattice", "lat.json", "--bound", "12", "--tau", "0.3", "0.9",
                      "--check-transform"],
                files=lattice_file(gram),
            )
        )
    return jobs


def _target_change(rng, target):
    """U T U^T for a seeded U: one shear by +-1 and a signed permutation,
    with the smaller norm put first.

    The search enumerates the first slot's norm shell, so more shears, or
    the larger norm first, would make its cost depend on the seed.
    """
    u = shears(rng, 2, 1)
    u = [[rng.choice((1, -1)) * x for x in row] for row in u]
    changed = congruent(u, target)
    if changed[0][0] > changed[1][1]:
        changed = congruent([[0, 1], [1, 0]], changed)
    return changed


def _siegel_check(expected):
    """genus-2 table: the given (target, count) entries."""

    def check(text):
        got = {json.dumps(t): c for t, _rank, c in json.loads(text)["entries"]}
        return [
            f"count at {t}: got {got.get(json.dumps(t))}, want {c}"
            for t, c in expected
            if got.get(json.dumps(t)) != c
        ]

    return check


def counts_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        fixed(
            "counts/E8-pairs",
            count_check(13440),
            call={"fn": "tuple_rep_count", "gram": E8, "target": [[2, 1], [1, 2]]},
        ),
    ]
    for k in (1, 2, 3):
        jobs.append(
            Job(
                f"counts/E8-skew{k}-t6",
                count_check(240 * sigma(3, 3)),
                argv=["count", "--lattice", "lat.json", "--t", "6"],
                files=lattice_file(skewed_e8(rng)),
            )
        )
    h = [c + rng.randint(-2, 2) for c in rng.choice(D4_COSETS)]
    t = rng.choice((21, 23, 25, 27))
    jobs.append(
        Job(
            "counts/D4-coset",
            count_check(8 * sigma(1, t)),
            argv=["count", "--lattice", "lat.json", "--t", str(t), f"--h={vec(h)}"],
            files=lattice_file(D4),
        )
    )
    for k, (target, want) in enumerate(
        ((((2, 1), (1, 2)), 192), (((2, 0), (0, 2)), 144)), start=1
    ):
        jobs.append(
            Job(
                f"counts/D4-pairs{k}",
                count_check(want),
                call={"fn": "tuple_rep_count", "gram": D4, "target": _target_change(rng, target)},
            )
        )
    siegel = (
        ("D4", D4, [([[0, 0], [0, 0]], 1), ([[2, 0], [0, 0]], 24), ([[2, 1], [1, 2]], 192),
                    ([[2, 0], [0, 2]], 144)]),
        ("A2A2", A2A2, [([[0, 0], [0, 0]], 1), ([[2, 0], [0, 0]], 12)]),
    )
    for name, gram, expected in siegel:
        jobs.append(
            fixed(
                f"counts/{name}-siegel",
                _siegel_check(expected),
                call={"fn": "siegel_theta_table", "gram": gram, "genus": 2, "bound": 6},
            )
        )
    return jobs


def _ks_check(gram, z1, z2, endo_det):
    r = len(gram)

    def check(text):
        doc = json.loads(text)
        problems = []
        for key in ("alternating_ok", "symmetric_ok", "definite"):
            _expect(problems, doc, key, True)
        if doc.get("inertia") not in ([2**r, 0, 0], [0, 2**r, 0]):
            problems.append(f"inertia {doc.get('inertia')}, want +-2^{r}")
        _expect(problems, doc, "j_square", str(-inner(gram, z1, z1) * inner(gram, z2, z2)))
        _expect(problems, doc, "torus_dim", 2**r)
        _expect(problems, doc, "complex_dim", 2 ** (r - 1))
        _expect(problems, doc, "special_endo_rank", r - 2)
        endo = doc.get("special_endo_gram") or [[0]]
        if abs(det(endo)) != endo_det:
            problems.append(f"special endomorphism det {det(endo)}, want +-{endo_det}")
        return problems

    return check


def fmt(terms: dict) -> str:
    """Clifford element text in the artifact's form: masks ascending."""
    out = ""
    for mask in sorted(m for m, c in terms.items() if c):
        c = Fraction(terms[mask])
        idx = ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)
        term = f"{abs(c)}*e{{{idx}}}"
        out = (("-" if c < 0 else "") + term) if not out else out + (" - " if c < 0 else " + ") + term
    return out or "0*e{}"


def vector_product(gram, u, w) -> dict:
    """u*w in normal form, from e_i e_j + e_j e_i = 2 G_ij."""
    n = len(gram)
    terms = {0: sum(u[i] * w[i] * gram[i][i] for i in range(n))}
    for i in range(n):
        for j in range(n):
            if i < j:
                terms[1 << i | 1 << j] = terms.get(1 << i | 1 << j, 0) + u[i] * w[j]
            elif i > j:
                terms[0] += 2 * u[i] * w[j] * gram[i][j]
                terms[1 << j | 1 << i] = terms.get(1 << j | 1 << i, 0) - u[i] * w[j]
    return terms


def _seeded_images(rng, n, *ambient):
    """Fixed vectors of A_n under a seeded automorphism, one sign each.

    A vector is given in Z^(n+1) with coordinate sum 0; the automorphism
    reverses those coordinates or not, and the result is written in the
    simple-root basis (partial sums).  A general permutation would change
    how many basis monomials the elements have, and the Clifford work, which
    moves by a factor of three with it at rank 7, would depend on the seed.
    """
    flip = rng.random() < 0.5
    out = []
    for x in ambient:
        y = x[::-1] if flip else x
        sign = rng.choice((1, -1))
        out.append([sign * sum(y[: k + 1]) for k in range(n)])
    return out


def _clifford_jobs(rng, n, label) -> list[Job]:
    gram = root_a(n)
    zeros = [0] * (n - 3)
    v, u, w = _seeded_images(
        rng, n, [1, 1, -1, -1] + zeros, [1, -1, 0, 0] + zeros, [0, 1, -1, 0] + zeros
    )
    vv = inner(gram, v, v)
    a = vv + 1
    x = {0: a, **{1 << i: v[i] for i in range(n)}}
    x_inv = {0: Fraction(a, a * a - vv), **{1 << i: Fraction(-v[i], a * a - vv) for i in range(n)}}
    x_want = {
        "element": fmt(x),
        "parity": "mixed",
        "trace": str(2**n * a),
        "scalar_part": str(a),
        "product": "1*e{}",
        "inverse": fmt(x_inv),
        "spinor_norm": fmt({0: a * a + vv, **{1 << i: 2 * a * v[i] for i in range(n)}}),
        "is_gspin": False,
    }
    scale = inner(gram, u, u) * inner(gram, w, w)
    g = vector_product(gram, u, w)
    g_inv = {m: Fraction(c, scale) for m, c in vector_product(gram, w, u).items()}
    g_want = {
        "element": fmt(g),
        "parity": "even",
        "product": "1*e{}",
        "inverse": fmt(g_inv),
        "spinor_norm": fmt({0: scale}),
        "is_gspin": True,
    }
    elem, inv, want = {"a+v": (x, x_inv, x_want), "uw": (g, g_inv, g_want)}[label]

    def check(text):
        doc = json.loads(text)
        problems = []
        for key, value in want.items():
            _expect(problems, doc, key, value)
        return problems

    return [
        Job(
            f"kuga-satake/clifford-A{n}-{label}",
            check,
            argv=["clifford", "--lattice", "lat.json", f"--element={fmt(elem)}",
                  f"--times={fmt(inv)}", "--invert", "--spinor-norm", "--gspin"],
            files=lattice_file(gram),
        )
    ]


def _ks_job(name, gram, make=Job, signs=(1, 1)) -> Job:
    """ks with the period plane spanned by +-the last two basis vectors,
    which are orthogonal to the rest: the special endomorphisms are the
    first r - 2 basis vectors, of known det."""
    r = len(gram)
    z1 = [signs[0] * (i == r - 2) for i in range(r)]
    z2 = [signs[1] * (i == r - 1) for i in range(r)]
    return make(
        name,
        _ks_check(gram, z1, z2, abs(det([row[: r - 2] for row in gram[: r - 2]]))),
        argv=["ks", "--lattice", "lat.json", "--z1", vec(z1), "--z2", vec(z2)],
        files=lattice_file(gram),
    )


def _diagonal(ds) -> list[list[int]]:
    return [[d if i == j else 0 for j in range(len(ds))] for i, d in enumerate(ds)]


def kuga_satake_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for r in (5, 6, 7):
        # The seed orients the period plane; the Gram is fixed, because the
        # order of its entries alone moves the cost by a third.
        signs = (rng.choice((1, -1)), rng.choice((1, -1)))
        gram = _diagonal([2, 2, 4, 4, 2][: r - 2] + [-2, -4])
        jobs.append(_ks_job(f"kuga-satake/ks-orth{r}", gram, signs=signs))
    jobs.append(_ks_job("kuga-satake/ks-orth6-fixed", _diagonal([2, 2, 2, 2, -2, -2]), fixed))
    a4_plane = [row + [0, 0] for row in root_a(4)] + [[0] * 4 + [-2, 0], [0] * 4 + [0, -2]]
    jobs.append(_ks_job("kuga-satake/ks-A4", a4_plane, fixed))
    jobs += _clifford_jobs(rng, 5, "a+v")
    jobs += _clifford_jobs(rng, 6, "uw")
    return jobs


# |d| of the diagonal forms behind the seeded invariants Grams: fixed, so
# that the discriminant group, and with it the Milgram sum, has the same
# size for every seed.  One entry other than 2 keeps the group from being
# elementary abelian (rank 10 is all 2s, for a Milgram sum of 1024 terms);
# with more such entries, or 2n shears, a few draws in a thousand send the
# Smith form past a second.
DIAGONALS = {4: (10, 2, 2, 2), 6: (10,) + (2,) * 5, 8: (6,) + (2,) * 7, 10: (2,) * 10}


def _seeded_even_gram(rng, n):
    """(U D U^T, D): D even diagonal with seeded signs and order, U unimodular."""
    ds = [d * rng.choice((1, -1)) for d in DIAGONALS[n]]
    rng.shuffle(ds)
    return congruent(shears(rng, n, n), _diagonal(ds)), ds


def _info_check(rank, sig, det_signed, factors=None):
    def check(text):
        doc = json.loads(text)
        problems = []
        _expect(problems, doc, "rank", rank)
        if sig is not None:
            _expect(problems, doc, "signature", list(sig))
        _expect(problems, doc, "det_signed", det_signed)
        _expect(problems, doc, "det", abs(det_signed))
        _expect(problems, doc, "discriminant_order", abs(det_signed))
        if factors is not None:
            _expect(problems, doc, "discriminant_group", factors)
        elif math.prod(doc.get("discriminant_group", [0])) != abs(det_signed):
            problems.append("the invariant factors do not multiply to |det|")
        return problems

    return check


def _gauss_value(ds, a, c) -> complex:
    total = 1
    for d in ds:
        total *= sum(cmath.exp(1j * math.pi * ((a * d * x * x) % (2 * c)) / c) for x in range(c))
    return total * c ** (-len(ds) / 2)


def _gauss_check(value: complex, c: int, rank: int):
    def check(text):
        doc = json.loads(text)
        problems = []
        _near(problems, doc, "value", [value.real, value.imag])
        _near(problems, doc, "normalization", c ** (-rank / 2))
        return problems

    return check


def _milgram_check(ds):
    sig = (sum(d > 0 for d in ds) - sum(d < 0 for d in ds)) % 8
    order = abs(math.prod(ds))
    predicted = math.sqrt(order) * cmath.exp(2j * math.pi * sig / 8)

    def check(text):
        doc = json.loads(text)
        problems = []
        _expect(problems, doc, "agrees", True)
        _expect(problems, doc, "signature_mod8", sig)
        _near(problems, doc, "error", 0.0)
        for key in ("predicted", "total"):
            got = complex(*doc.get(key, (math.inf, 0)))
            if abs(got - predicted) > doc["error_tol"]:
                problems.append(f"{key}: got {got}, want {predicted} within {doc['error_tol']}")
        return problems

    return check


def _transfer_case(rng, poly, rank):
    """A seeded diagonal form over Z[t]/(poly) and its closed-form transfer."""
    d = len(poly) - 1
    entries = [[rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-2, 2) for _ in range(d - 1)]
               for _ in range(rank)]
    gram = [[[0] * d for _ in range(rank)] for _ in range(rank)]
    blocks = []
    for i, a in enumerate(entries):
        gram[i][i] = a
        blocks.append(trace_form(a, poly))
    size = rank * d
    z_gram = [[0] * size for _ in range(size)]
    for i, block in enumerate(blocks):
        for k in range(d):
            z_gram[i * d + k][i * d : i * d + d] = block[k]
    profile = []
    for root in real_roots(poly):
        values = [sum(c * root**j for j, c in enumerate(a)) for a in entries]
        profile.append([sum(v > 0 for v in values), sum(v < 0 for v in values)])
    det_signed = math.prod(det(b) for b in blocks)
    sig = [sum(p for p, _q in profile), sum(q for _p, q in profile)]
    field_lattice = {"field": {"poly": list(poly)}, "gram": gram}
    return field_lattice, z_gram, profile, sig, det_signed


def invariants_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    grams = {}
    for n in DIAGONALS:
        gram, ds = _seeded_even_gram(rng, n)
        grams[n] = (gram, ds)
        if n != 10:
            continue
        sig = (sum(d > 0 for d in ds), sum(d < 0 for d in ds))
        jobs.append(
            Job(
                f"invariants/info{n}",
                _info_check(n, sig, math.prod(ds), diagonal_factors(ds)),
                argv=["info", "--lattice", "lat.json"],
                files=lattice_file(gram),
            )
        )
    for name, gram in (("5x5", FUZZ_5X5), ("8x8", FUZZ_8X8)):
        jobs.append(
            fixed(
                f"invariants/info-fuzz{name}",
                _info_check(len(gram), None, det(gram)),
                argv=["info", "--lattice", "lat.json"],
                files=lattice_file(gram),
            )
        )
    for n in (8, 10):
        gram, ds = grams[n]
        jobs.append(
            Job(
                f"invariants/milgram{n}",
                _milgram_check(ds),
                argv=["milgram", "--lattice", "lat.json"],
                files=lattice_file(gram),
            )
        )
    # 6e4 to 1.6e5 residue terms c^rank each, the same for every seed.
    for n, c in ((4, 20), (6, 7), (8, 4), (10, 3)):
        gram, ds = grams[n]
        a = rng.choice((1, 2))
        jobs.append(
            Job(
                f"invariants/gauss{n}",
                _gauss_check(_gauss_value(ds, a, c), c, n),
                argv=["gauss", "--lattice", "lat.json", "--a", str(a), "--c", str(c)],
                files=lattice_file(gram),
            )
        )
    # E8 is hyperbolic over every Z_p, so its normalized Gauss sums are 1.
    a = rng.choice((1, 3))
    jobs.append(
        Job(
            "invariants/gauss-E8",
            _gauss_check(1, 4, 8),
            argv=["gauss", "--lattice", "E8", "--a", str(a), "--c", "4"],
        )
    )
    for field, rank in (("sqrt2", 4), ("cubic", 2), ("quintic", 4)):
        field_lattice, z_gram, profile, sig, det_signed = _transfer_case(rng, FIELDS[field], rank)

        def check(text, z_gram=z_gram, profile=profile, sig=sig, det_signed=det_signed):
            doc = json.loads(text)
            problems = []
            _expect(problems, doc, "gram", z_gram)
            _expect(problems, doc, "profile", profile)
            _expect(problems, doc, "signature", sig)
            _expect(problems, doc, "det_signed", det_signed)
            summed = [sum(p for p, _q in doc.get("profile", [])), sum(q for _p, q in doc.get("profile", []))]
            if summed != doc.get("signature"):
                problems.append("the signature is not the sum of the profile")
            return problems

        jobs.append(
            Job(
                f"invariants/transfer-{field}",
                check,
                argv=["transfer", "--input", "field.json"],
                files={"field.json": field_lattice},
            )
        )
        if field != "quintic":
            jobs.append(
                Job(
                    f"invariants/info-transfer-{field}",
                    _info_check(len(z_gram), sig, det_signed),
                    argv=["info", "--lattice", "input.json"],
                    needs=f"invariants/transfer-{field}",
                )
            )
    jobs.append(fixed("invariants/table", lambda text: [], argv=["table"]))
    return jobs


JOB_LISTS = {
    "theta": theta_jobs,
    "counts": counts_jobs,
    "kuga-satake": kuga_satake_jobs,
    "invariants": invariants_jobs,
}
WORKLOADS = tuple(JOB_LISTS)


def jobs_for(workload: str, seed: int) -> list[Job]:
    return JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))
