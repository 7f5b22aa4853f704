"""Totally real fields with exact arithmetic and certified embeddings.

A field is a monic squarefree integer polynomial all of whose roots are
real (Sturm-verified), together with an integral basis given in the power
basis of a root.  Elements are integer power-basis numerators over one
denominator, multiplied as integer polynomials reduced mod the monic f;
each field caches the integer inverse of its integral basis and the
structure constants of omega_k omega_l in it (Cohen, GTM 138, Sec. 4.2).
The real embeddings are open rational intervals (a, b), ascending, each
holding one root and neither end a root, so every end separates the roots
below it from those above.  The sign of an element g at a root is one
exact Sturm-Tarski query on its interval: the sign changes of the signed
remainder sequence of f and f'g mod f count the roots of f there, each
weighted by the sign of g (Basu-Pollack-Roy, Thm 2.58).  That sequence,
and the Sturm sequence of f that isolates the roots, is kept in integers
as a primitive pseudo-remainder sequence (Cohen, GTM 138, Sec. 3.3) whose
terms are positive multiples of the Sturm terms, and it is evaluated at
p/q homogeneously, as the sum of c_i p^i q^(n-i).  Reducible squarefree
polynomials are tolerated (the arithmetic is then that of a product of
fields), which keeps degree-1 and split test cases cheap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from ._record import record
from .errors import NotAnOrder


def _convolve(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The coefficients of the integer polynomial product p q."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _int_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive part of c * (a mod b) for some integer c > 0, so every
    sign of a mod b is kept; b is nonzero and trimmed."""
    a, lead = list(a), b[-1]
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        top, shift = a[-1], len(a) - len(b)
        g = math.gcd(top, lead)
        up, down = abs(lead) // g, top // g * (1 if lead > 0 else -1)
        a = [c * up for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= down * c
    content = math.gcd(*a)
    return [c // content for c in a] if content > 1 else a


def _int_chain(f: Sequence[int], g: Sequence[int]) -> list[list[int]]:
    """Signed remainder sequence of f and f'g mod f, each term scaled by a
    positive integer to its primitive part (a primitive pseudo-remainder
    sequence with the signs of the Sturm sequence); its last element is
    gcd(f, f'g) up to a scalar, so gcd(f, f') when g = 1.  f is monic."""
    deriv = [i * c for i, c in enumerate(f)][1:]
    chain = [list(f), _int_prem(_convolve(deriv, g), f)]
    while chain[-1]:
        rem = _int_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _int_eval(p: Sequence[int], x: Fraction) -> int:
    """q^n p(x) for x = num/q, q > 0, n = deg p: the homogeneous sum
    c_i num^i q^(n-i), which has the sign of p(x)."""
    num, q = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(p):
        acc, scale = acc * num + c * scale, scale * q
    return acc


def _sign_changes(chain: list[list[int]], x: Fraction) -> int:
    signs = [v > 0 for v in (_int_eval(p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count_roots(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Sum of sign g(theta) over the distinct real roots theta of f in
    (a, b), for chain = _int_chain(f, g) and a < b, neither a root of f.
    With g = 1 this is the number of those roots."""
    return _sign_changes(chain, a) - _sign_changes(chain, b)


@record
class FieldElement:
    """sum num[n] theta^n / den in F, den > 0 and gcd(den, *num) == 1: a
    canonical form, so == and hash compare values and, like the arithmetic,
    the field's polynomial but not its basis; power is the Fraction view."""

    field: TotallyRealField
    num: tuple[int, ...]
    den: int

    def __post_init__(self):
        if len(self.num) != self.field.degree or self.den < 1 or math.gcd(self.den, *self.num) > 1:
            raise ValueError("need one numerator per power of theta, over den > 0, in lowest terms")

    @cached_property
    def power(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return _reduced(self.field, [s * a + t * b for a, b in zip(self.num, other.num)], den)

    def __sub__(self, other: FieldElement) -> FieldElement:
        return self + (-other)

    def __neg__(self) -> FieldElement:
        return _reduced(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return _reduced(self.field, self.field._mod(_convolve(self.num, other.num)),
                            self.den * other.den)
        c = Fraction(other)
        return _reduced(self.field, [c.numerator * a for a in self.num],
                        c.denominator * self.den)

    def __rmul__(self, other) -> FieldElement:
        return self * other

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.field.poly, self.num, self.den) == (other.field.poly, other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.field.poly, self.num, self.den))

    def _check(self, other: FieldElement) -> None:
        if self.field.poly != other.field.poly:
            raise ValueError("field elements belong to different fields")


def _reduced(field: TotallyRealField, num: Sequence[int], den: int) -> FieldElement:
    """sum num[n] theta^n / den (den > 0, one num per degree) in lowest terms, unchecked."""
    g = math.gcd(den, *num)
    x = object.__new__(FieldElement)
    x.__dict__.update(field=field, num=tuple(c // g for c in num), den=den // g)
    return x


@record
class TotallyRealField:
    """Q[x]/(f) for a monic squarefree totally real integer polynomial f.

    basis rows are the integral basis in power-basis coordinates; the
    default is the power basis itself, which is always an order.
    """

    poly: tuple[int, ...]
    basis: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        if len(self.poly) < 2:
            raise ValueError("the defining polynomial must have degree at least 1")
        if any(not isinstance(c, int) or isinstance(c, bool) for c in self.poly):
            raise ValueError("the defining polynomial must have integer coefficients")
        if self.poly[-1] != 1:
            raise ValueError("the defining polynomial must be monic")
        if len(self._chain[-1]) != 1:
            raise ValueError("the defining polynomial must be squarefree")
        d = self.degree
        supplied = bool(self.basis)
        rows = self.basis or [[int(i == j) for j in range(d)] for i in range(d)]
        basis = tuple(tuple(Fraction(c) for c in row) for row in rows)
        object.__setattr__(self, "basis", basis)
        if len(self._isolating) != d:
            raise ValueError("the defining polynomial is not totally real")
        if supplied:
            self._validate_order()

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @cached_property
    def _chain(self) -> list[list[int]]:
        return _int_chain(self.poly, [1])

    @cached_property
    def _isolating(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Open isolating intervals (a, b) of the real roots, ascending: one
        root in each, and neither end a root of f.  Bisection starts from the
        Cauchy bound, which is no root, and moves a midpoint that is a root
        towards a until it is not."""
        f = self.poly
        bound = Fraction(1 + max(abs(c) for c in f))
        found: list[tuple[Fraction, Fraction]] = []
        stack = [(-bound, bound)]
        while stack:
            a, b = stack.pop()
            k = _count_roots(self._chain, a, b)
            if k == 1:
                found.append((a, b))
            elif k > 1:
                m = (a + b) / 2
                while _int_eval(f, m) == 0:
                    m = (a + m) / 2
                stack += [(a, m), (m, b)]
        found.sort()
        return tuple(found)

    @cached_property
    def _dual(self) -> tuple[list[list[int]], int]:
        """Integer columns N_k and den > 0 with N / den the inverse of the
        basis matrix: power coordinates p have basis coordinates p . N_k / den."""
        inv = linalg.inverse([list(row) for row in self.basis])
        if inv is None:
            raise NotAnOrder("the integral basis does not span the field")
        den = math.lcm(*(c.denominator for row in inv for c in row))
        return [[c.numerator * (den // c.denominator) for c in col] for col in zip(*inv)], den

    @cached_property
    def _structure(self) -> list[list[tuple[int, ...]]]:
        """c[k][l]: the integer basis coordinates of omega_k omega_l
        (NotAnOrder when some product leaves the span of the basis)."""
        table = [[self._to_integral(wk * wl) for wl in self.omegas] for wk in self.omegas]
        if any(None in row for row in table):
            raise NotAnOrder("the integral basis is not closed under multiplication")
        return table

    @cached_property
    def omegas(self) -> tuple[FieldElement, ...]:
        """The integral basis as field elements."""
        return tuple(self.from_power(row) for row in self.basis)

    def _validate_order(self) -> None:
        d = self.degree
        if len(self.basis) != d or any(len(r) != d for r in self.basis):
            raise NotAnOrder("the integral basis must be square of size degree")
        if self._to_integral(self.one()) is None:
            raise NotAnOrder("1 is not an integer combination of the basis")
        self._structure  # raises NotAnOrder unless closed under multiplication

    def _to_integral(self, x: FieldElement) -> tuple[int, ...] | None:
        """Integer coordinates of x against the basis, or None."""
        cols, den = self._dual
        den *= x.den
        coords = [sum(map(mul, x.num, col)) for col in cols]
        if any(c % den for c in coords):
            return None
        return tuple(c // den for c in coords)

    def integral_coords(self, power: Sequence) -> tuple[Fraction, ...]:
        """Rational coordinates of a power-basis vector against the basis."""
        if len(power) != self.degree:
            raise ValueError("coordinate vector length does not match the degree")
        x, (cols, den) = self.from_power(power), self._dual
        return tuple(Fraction(sum(map(mul, x.num, col)), den * x.den) for col in cols)

    def _mod(self, v: list[int]) -> list[int]:
        """v mod f for integer coefficients v, padded to length d; f is
        monic, so this stays in integers."""
        d, f = self.degree, self.poly
        for top in range(len(v) - 1, d - 1, -1):
            if c := v[top]:
                for i in range(d):
                    v[top - d + i] -= c * f[i]
        return v[:d] + [0] * (d - len(v))

    def from_power(self, coords: Sequence) -> FieldElement:
        """The element sum coords[n] theta^n, for coords of any length."""
        (nums,), (den,) = linalg._integer_rows([[Fraction(c) for c in coords]])
        return _reduced(self, self._mod(nums), den)

    def element(self, coords: Sequence) -> FieldElement:
        """The element with the given coordinates against the integral basis."""
        if len(coords) != self.degree:
            raise ValueError("coordinate vector length does not match the degree")
        return sum((Fraction(c) * w for c, w in zip(coords, self.omegas)), self.zero())

    def _as_element(self, x) -> FieldElement:
        """x itself when it is an element of this field, else element(x)."""
        if not isinstance(x, FieldElement):
            return self.element(x)
        if x.field.poly != self.poly:
            raise ValueError("field elements belong to different fields")
        return x

    def zero(self) -> FieldElement:
        return self.from_power([])

    def one(self) -> FieldElement:
        return self.from_power([1])

    def gen(self) -> FieldElement:
        return self.from_power([0, 1])

    @cached_property
    def _power_sums(self) -> list[int]:
        """The Newton power sums s_n = tr(theta^n) for n <= 3d - 2, ints
        because f is monic and integral."""
        d, a = self.degree, self.poly
        sums = [d]
        for n in range(1, 3 * d - 1):
            s = -sum(a[d - i] * sums[n - i] for i in range(1, min(n, d + 1)))
            sums.append(s - n * a[d - n] if n <= d else s)
        return sums

    def trace(self, x: FieldElement) -> Fraction:
        """Trace of the multiplication-by-x matrix: sum num[n] s_n / den."""
        return Fraction(sum(map(mul, x.num, self._power_sums)), x.den)

    def embeddings(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Isolating intervals for the real roots, ascending."""
        return self._isolating

    def sign_at(self, i: int, x: FieldElement) -> int:
        """Exact sign of x under the i-th embedding (-1, 0, or 1): one
        Sturm-Tarski query on its interval, from the numerators of x (den > 0
        leaves every sign unchanged)."""
        return _count_roots(_int_chain(self.poly, x.num), *self._isolating[i])

    def to_dict(self) -> dict:
        return {
            "poly": list(self.poly),
            "integral_basis": [[str(c) for c in row] for row in self.basis],
        }

    @classmethod
    def from_dict(cls, data: dict) -> TotallyRealField:
        if not isinstance(data, dict) or "poly" not in data:
            raise ValueError("field JSON must be an object with a 'poly' list")
        poly = data["poly"]
        if not isinstance(poly, list):
            raise ValueError("'poly' must be a list of integers")
        basis = data.get("integral_basis")
        if basis is None:
            return cls(tuple(poly))
        if not isinstance(basis, list) or not all(isinstance(r, list) for r in basis):
            raise ValueError("'integral_basis' must be a list of coordinate rows")
        rows = tuple(tuple(Fraction(str(c)) for c in row) for row in basis)
        return cls(tuple(poly), rows)

    @classmethod
    def rationals(cls) -> TotallyRealField:
        return cls((0, 1))

    @classmethod
    def quadratic(cls, n: int) -> TotallyRealField:
        """Q(sqrt(n)) for a positive nonsquare integer n (power basis)."""
        if n <= 0:
            raise ValueError("quadratic fields here must be real: n > 0")
        return cls((-n, 0, 1))
