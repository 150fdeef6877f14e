"""Exact bivariate polynomial arithmetic over the rationals.

A polynomial in x, y is stored sparsely as a mapping from exponent pairs
(i, j) to nonzero Fraction coefficients.  The zero polynomial is the empty
mapping.  All arithmetic is exact; floating point appears only at the
evaluation boundary and for the irrational roots of `real_roots`, each
given as the nearest double.  Float evaluation has one arithmetic:
`BiPoly.float_terms()` summed term by term as c·x^i·y^j, both in
`BiPoly.eval` at float coordinates and in the integrator's
`PolyField.compiled`.

Rationals are plain `fractions.Fraction` values: they are always stored in
lowest terms with a positive denominator, which is exactly the invariant
this package needs.

Term order everywhere (printing, equality of canonical text) is graded
lexicographic with x > y: higher total degree first, ties broken by higher
x-exponent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Tuple

from .errors import DomainError, PreconditionError, ZeroDenominatorError

Rational = Fraction
Exponent = Tuple[int, int]


def as_rational(value) -> Fraction:
    """Coerce ints, strings like "3/4" or "0.25", and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError(
            f"refusing to coerce float {value!r} to an exact rational; "
            "pass a Fraction or a literal string instead"
        )
    raise DomainError(f"cannot interpret {value!r} as a rational number")


class BiPoly:
    """Immutable sparse polynomial in two variables over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise DomainError(f"negative exponent in term {(i, j)}")
                c = as_rational(c) if not isinstance(c, Fraction) else c
                if c != 0:
                    clean[(int(i), int(j))] = c
        self._terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(c) -> "BiPoly":
        c = as_rational(c)
        return BiPoly({(0, 0): c}) if c else BiPoly()

    @staticmethod
    def monomial(c, i: int, j: int) -> "BiPoly":
        return BiPoly({(i, j): as_rational(c)})

    @staticmethod
    def var(name: str) -> "BiPoly":
        if name == "x":
            return BiPoly({(1, 0): Fraction(1)})
        if name == "y":
            return BiPoly({(0, 1): Fraction(1)})
        raise DomainError(f"unknown variable {name!r}")

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return self._terms.get((0, 0), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def degree_in(self, var: str) -> int:
        if not self._terms:
            return -1
        k = 0 if var == "x" else 1
        return max(e[k] for e in self._terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded-lex descending order with x > y."""
        return sorted(
            self._terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]), reverse=True
        )

    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        return self.sorted_terms()[0][1]

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "BiPoly":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = BiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = BiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return BiPoly._coerce(other) - self

    def __mul__(self, other):
        other = BiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise DomainError("polynomial exponent must be an integer")
        if n < 0:
            raise DomainError("polynomial exponent must be nonnegative")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def diff(self, var: str) -> "BiPoly":
        k = 0 if var == "x" else 1
        out = {}
        for (i, j), c in self._terms.items():
            e = (i, j)[k]
            if e:
                ne = (i - 1, j) if k == 0 else (i, j - 1)
                out[ne] = out.get(ne, Fraction(0)) + c * e
        return BiPoly(out)

    def diff_x(self) -> "BiPoly":
        return self.diff("x")

    def diff_y(self) -> "BiPoly":
        return self.diff("y")

    def float_terms(self) -> list[tuple[float, int, int]]:
        """Float coefficient table [(float(c), i, j), ...] in storage order."""
        return [(float(c), i, j) for (i, j), c in self._terms.items()]

    def eval(self, x, y):
        """Evaluate at a point; exact for Fraction/int coordinates.

        Float coordinates sum `float_terms()` term by term as c·x^i·y^j, the
        same arithmetic as the integrator's `PolyField.compiled`.
        """
        if isinstance(x, float) or isinstance(y, float):
            x, y = float(x), float(y)
            total = 0.0
            for c, i, j in self.float_terms():
                total += c * x**i * y**j
            return total
        x = as_rational(x)
        y = as_rational(y)
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            total += c * x**i * y**j
        return total

    # -- structural operations ----------------------------------------------

    def homogeneous_part(self, d: int) -> "BiPoly":
        """Sum of the terms of total degree exactly d."""
        return BiPoly({e: c for e, c in self._terms.items() if e[0] + e[1] == d})

    def shift(self, dx, dy) -> "BiPoly":
        """Substitute x -> x + dx, y -> y + dy (exact binomial expansion)."""
        dx = as_rational(dx)
        dy = as_rational(dy)
        x = BiPoly.var("x") + BiPoly.const(dx)
        y = BiPoly.var("y") + BiPoly.const(dy)
        return self.subst(x, y)

    def subst(self, px: "BiPoly", py: "BiPoly") -> "BiPoly":
        """Substitute x -> px(x, y), y -> py(x, y)."""
        xpows: list[BiPoly] = [BiPoly.const(1)]
        ypows: list[BiPoly] = [BiPoly.const(1)]
        for _ in range(self.degree_in("x")):
            xpows.append(xpows[-1] * px)
        for _ in range(self.degree_in("y")):
            ypows.append(ypows[-1] * py)
        out = BiPoly.zero()
        for (i, j), c in self._terms.items():
            out = out + BiPoly.const(c) * xpows[i] * ypows[j]
        return out

    def swapped(self) -> "BiPoly":
        """p(y, x): x and y exchanged, terms kept in storage order."""
        return BiPoly({(j, i): c for (i, j), c in self._terms.items()})

    def mul_monomial(self, c, i: int, j: int) -> "BiPoly":
        c = as_rational(c)
        return BiPoly({(e0 + i, e1 + j): cc * c for (e0, e1), cc in self._terms.items()})

    def monomial_order(self, var: str) -> int:
        """Largest k with var^k dividing self; large sentinel for zero poly."""
        if not self._terms:
            return 1 << 30
        k = 0 if var == "x" else 1
        return min(e[k] for e in self._terms)

    def div_monomial(self, var: str, power: int) -> "BiPoly":
        if power == 0:
            return self
        k = 0 if var == "x" else 1
        out = {}
        for (i, j), c in self._terms.items():
            if (i, j)[k] < power:
                raise DomainError(f"{var}^{power} does not divide polynomial")
            out[(i - power, j) if k == 0 else (i, j - power)] = c
        return BiPoly(out)

    def content(self) -> Fraction:
        """Positive rational c with self/c having integer coprime coefficients."""
        return _ucontent(list(self._terms.values()))

    def primitive(self) -> "BiPoly":
        """Scale to content 1 with positive leading (graded-lex) coefficient."""
        if not self._terms:
            return self
        c = self.content()
        p = BiPoly({e: v / c for e, v in self._terms.items()})
        if p.leading_coefficient() < 0:
            p = -p
        return p

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"BiPoly({format_poly(self)!r})"


X = BiPoly.var("x")
Y = BiPoly.var("y")


def format_rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_monomial(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("x")
    elif i > 1:
        parts.append(f"x^{i}")
    if j == 1:
        parts.append("y")
    elif j > 1:
        parts.append(f"y^{j}")
    return "*".join(parts)


def format_poly(p: BiPoly) -> str:
    """Canonical text form: graded-lex descending, e.g. "x*y - 1/2*x^3"."""
    if p.is_zero():
        return "0"
    pieces = []
    for (i, j), c in p.sorted_terms():
        mono = _format_monomial(i, j)
        mag = abs(c)
        if not mono:
            body = format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_rational(mag)}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# -- univariate helpers over Q[x]: the bivariate gcd and real roots ----------
#
# A univariate polynomial is a plain list of rationals (Fractions or ints),
# index = degree, trailing zeros stripped.  The empty list is zero.


def _utrim(u: list[Fraction]) -> list[Fraction]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _uadd(a, b):
    n = max(len(a), len(b))
    return _utrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _uneg(a):
    return [-c for c in a]


def _umul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _utrim(out)


def _udivmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / Fraction(b[-1])
    while len(a) >= len(b) and _utrim(a):
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, cb in enumerate(b):
            a[i + k] -= c * cb
        _utrim(a)
    return _utrim(q), _utrim(a)


def _ucontent(a) -> Fraction:
    if not a:
        return Fraction(0)
    g, l = 0, 1
    for c in a:
        g = math.gcd(g, abs(c.numerator))
        l = l * c.denominator // math.gcd(l, c.denominator)
    return Fraction(g, l)


def _integerize(a) -> list[int]:
    """a times a positive rational, as coprime integers: the signs of a everywhere."""
    c = _ucontent(a)
    return [int(v / c) for v in a]


def _urem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a positive rational, as coprime integers."""
    a, lb = list(a), b[-1]
    while len(a) >= len(b):
        k, la = len(a) - len(b), a[-1] if lb > 0 else -a[-1]
        a = [abs(lb) * v for v in a]
        for i, v in enumerate(b):
            a[i + k] -= la * v
        _utrim(a)
    return _integerize(a) if a else a


def _ugcd(a, b):
    """A gcd as coprime integers, up to sign; [] for gcd(0, 0)."""
    a, b = [_integerize(u) if u else u for u in (_utrim(list(a)), _utrim(list(b)))]
    while b:
        a, b = b, _urem(a, b)
    return a


def _uderiv(a):
    return [i * v for i, v in enumerate(a)][1:]


def _value_at(p: list[int], num: int, den: int) -> int:
    """den^deg(p) * p(num/den) for den > 0: the sign of p at a rational, in integers."""
    v, w = 0, 1
    for c in reversed(p):
        v = v * num + c * w
        w *= den
    return v


def _variations(chain, num: int, den: int) -> int:
    """Sign changes along the chain at num/den, zeros skipped."""
    signs = [v > 0 for v in (_value_at(q, num, den) for q in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sturm(p) -> list[list[int]]:
    """Sturm sequence p, p', -rem(p, p'), ... of a square-free p, scaled to integers."""
    chain = [_integerize(p), _integerize(_uderiv(p))]
    while len(chain[-1]) > 1:
        chain.append(_uneg(_urem(chain[-2], chain[-1])))
    return chain


def _isolate(chain) -> list[tuple[int, int, int]]:
    """Intervals (lo/den, hi/den], den a power of 2, one per distinct real root of chain[0].

    V(t), the sign changes of the chain at t, is right-continuous, so V(lo) - V(hi)
    counts the roots in (lo, hi] also when an end is a root.
    """
    p = chain[0]
    b = 1 << (max(abs(v) for v in p[:-1]) // abs(p[-1]) + 2).bit_length()  # > Cauchy bound
    todo, out = [(-b, b, 1, _variations(chain, -b, 1), _variations(chain, b, 1))], []
    while todo:
        lo, hi, den, v_lo, v_hi = todo.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi, den))
        elif v_lo > v_hi:
            mid, v_mid = lo + hi, _variations(chain, lo + hi, 2 * den)
            todo += [(2 * lo, mid, 2 * den, v_lo, v_mid), (mid, 2 * hi, 2 * den, v_mid, v_hi)]
    return out


def _root_in(p: list[int], lo: int, hi: int, den: int):
    """The root of p in (lo/den, hi/den]: a Fraction if rational, else the nearest float.

    A rational root's denominator divides lc, and such rationals lie 1/lc^2 apart;
    so once the interval is narrower than 1/(2 lc^2), the nearest of them to hi is
    the root if any is.  Else bisection goes on until both ends round to one double.
    """
    lc, s = abs(p[-1]), _value_at(p, hi, den)
    if not s:
        return Fraction(hi, den)
    candidate = True
    while candidate or lo / den != hi / den:
        if candidate and 2 * lc * lc * (hi - lo) < den:
            r = Fraction(hi, den).limit_denominator(lc)
            if not _value_at(p, r.numerator, r.denominator):
                return r
            candidate = False
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        if (_value_at(p, mid, den) > 0) == (s > 0):
            hi = mid
        else:
            lo = mid
    return hi / den


def real_roots(coeffs: list[Fraction]):
    """Distinct real roots of a rational univariate polynomial (ascending coefficients).

    The roots of the square-free part c / gcd(c, c') are isolated by Sturm bisection
    and returned exactly when rational, else as the nearest double.  complex_count
    is the degree less the real roots with multiplicity, summed along g <- gcd(g, g').
    Returns (exact_roots, float_roots, complex_count), the root lists ascending.
    """
    c = _utrim(list(coeffs))
    if not c:
        raise DomainError("zero polynomial has no root list")
    roots, real, g = [], 0, c
    while len(g) > 1:
        h = _ugcd(g, _uderiv(g))
        chain = _sturm(_udivmod(g, h)[0])
        intervals = _isolate(chain)
        if g is c:
            roots = [_root_in(chain[0], *iv) for iv in intervals]
        real += len(intervals)
        g = h
    exact = sorted(r for r in roots if isinstance(r, Fraction))
    return exact, sorted(r for r in roots if isinstance(r, float)), len(c) - 1 - real


def _to_y_coeffs(p: BiPoly) -> list[list[Fraction]]:
    """View p as a polynomial in y with coefficients in Q[x]."""
    dy = p.degree_in("y")
    rows: list[list[Fraction]] = [[] for _ in range(dy + 1)] if dy >= 0 else []
    for (i, j), c in p.terms.items():
        row = rows[j]
        while len(row) <= i:
            row.append(Fraction(0))
        row[i] = c
    return [_utrim(r) for r in rows]


def _from_y_coeffs(rows: list[list[Fraction]]) -> BiPoly:
    terms = {}
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                terms[(i, j)] = c
    return BiPoly(terms)


def _ytrim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _y_content(rows) -> list[int]:
    g: list[int] = []
    for row in rows:
        if row:
            g = _ugcd(g, row)
    return g


def _y_primitive(rows):
    c = _y_content(rows)
    return [_udivmod(row, c)[0] for row in rows] if c else rows


def _y_pseudo_rem(a, b):
    """Pseudo-remainder of a by b, both polynomials in y over Q[x]."""
    a = [list(r) for r in a]
    lb = b[-1]
    while len(a) >= len(b) and _ytrim(a):
        k = len(a) - len(b)
        la = a[-1]
        # scale a by lc(b), then subtract lc(a) * y^k * b
        a = [_umul(r, lb) for r in a]
        for i, rb in enumerate(b):
            a[i + k] = _uadd(a[i + k], _uneg(_umul(rb, la)))
        _ytrim(a)
    return a


def poly_gcd(p: BiPoly, q: BiPoly) -> BiPoly:
    """Greatest common divisor in Q[x, y].

    Primitive polynomial-remainder sequence over Q[x][y] with content
    extraction; adequate at the small degrees this package works with.  The
    result is normalized to be primitive with a positive leading coefficient
    in graded-lex order.
    """
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.primitive()
    if q.is_zero():
        return p.primitive()

    a, b = _to_y_coeffs(p), _to_y_coeffs(q)
    if len(a) < len(b):
        a, b = b, a

    ca, cb = _y_content(a), _y_content(b)
    cont = _ugcd(ca, cb)
    a, b = _y_primitive(a), _y_primitive(b)
    while b:
        a, b = b, _y_primitive(_y_pseudo_rem(a, b))

    # gcd = gcd(contents) * primitive-part gcd; contents live in Q[x]
    return _from_y_coeffs([_umul(row, cont) for row in a]).primitive()


def poly_divexact(p: BiPoly, d: BiPoly) -> BiPoly:
    """Exact division p / d; raises DomainError when the remainder is nonzero."""
    if d.is_zero():
        raise DomainError("division by the zero polynomial")
    if p.is_zero():
        return p
    if d.is_constant():
        c = d.constant_value()
        return BiPoly({e: v / c for e, v in p.terms.items()})
    a, b = _to_y_coeffs(p), _to_y_coeffs(d)
    # long division in y over the rational-function field Q(x); exactness of
    # the quotient makes every coefficient division come out polynomial
    quo: list[list[Fraction]] = [[] for _ in range(len(a) - len(b) + 1)]
    lb = b[-1]
    while len(a) >= len(b) and _ytrim(a):
        k = len(a) - len(b)
        qcoef, rem = _udivmod(a[-1], lb)
        if rem:
            raise DomainError("inexact polynomial division")
        quo[k] = qcoef
        for i, rb in enumerate(b):
            a[i + k] = _uadd(a[i + k], _uneg(_umul(rb, qcoef)))
        _ytrim(a)
    if _ytrim(a):
        raise DomainError("inexact polynomial division")
    return _from_y_coeffs(quo)


def poly_lcm(p: BiPoly, q: BiPoly) -> BiPoly:
    """Least common multiple, normalized primitive with positive lead."""
    if p.is_zero() or q.is_zero():
        raise DomainError("lcm with the zero polynomial")
    g = poly_gcd(p, q)
    return (poly_divexact(p, g) * q).primitive()


def reduce_fraction(n: BiPoly, d: BiPoly) -> tuple[BiPoly, BiPoly]:
    """n/d in lowest terms, d primitive with positive leading coefficient; 0/d gives 0/1."""
    if d.is_zero():
        raise ZeroDenominatorError("right-hand side normalizes to a zero denominator")
    if n.is_zero():
        return n, BiPoly.const(1)
    g = poly_gcd(n, d)
    if not g.is_constant():
        n, d = poly_divexact(n, g), poly_divexact(d, g)
    scale = d.content()
    if d.leading_coefficient() < 0:
        scale = -scale
    return BiPoly({e: c / scale for e, c in n}), BiPoly({e: c / scale for e, c in d})


# -- restriction to an exceptional divisor {var = 0} ---------------------------------


def axis_restriction(p: BiPoly, var: str) -> list[Fraction]:
    """Ascending coefficients of p on {var = 0}, a polynomial in the other variable."""
    k = 0 if var == "x" else 1
    out: list[Fraction] = []
    for e, c in p:
        if e[k] == 0:
            deg = e[1 - k]
            out.extend([Fraction(0)] * (deg + 1 - len(out)))
            out[deg] = c
    return out


def divisor_power(radial: BiPoly, tangential: BiPoly, var: str) -> int:
    """Largest power of var that a chart field can shed with {var = 0} kept invariant.

    Both components must stay divisible, and the radial one must keep at
    least one factor of var so the divisor remains a union of orbits.
    """
    orders = [p.monomial_order(var) for p in (radial, tangential) if not p.is_zero()]
    if not orders:
        return 0
    s = min(orders)
    if not radial.is_zero():
        s = min(s, radial.monomial_order(var) - 1)
    return max(s, 0)


# -- Newton polygon weights ---------------------------------------------------


class NewtonWeights(tuple):
    """Coprime positive weight pair (alpha, beta) for quasi-homogeneous blow-ups."""

    def __new__(cls, alpha: int, beta: int):
        if alpha <= 0 or beta <= 0:
            raise DomainError("weights must be positive")
        if math.gcd(alpha, beta) != 1:
            raise DomainError("weights must be coprime")
        return super().__new__(cls, (alpha, beta))

    @property
    def alpha(self) -> int:
        return self[0]

    @property
    def beta(self) -> int:
        return self[1]

    def __repr__(self):
        return f"NewtonWeights({self[0]}, {self[1]})"


def _field_support(P: BiPoly, Q: BiPoly) -> set[Exponent]:
    """Combined support of the field with the standard component shifts.

    A term x^i y^j in the x-component contributes (i-1, j); one in the
    y-component contributes (i, j-1).  Entries may have one coordinate -1.
    """
    pts = {(i - 1, j) for (i, j), _ in P} | {(i, j - 1) for (i, j), _ in Q}
    return pts


def _lower_hull_normals(points: Iterable[Exponent]) -> list[tuple[int, int]]:
    """Primitive positive inner normals of the compact Newton-polygon edges.

    The polygon is conv(points + R>=0^2); only points on the Pareto-minimal
    staircase matter, and compact edges connect consecutive staircase
    vertices of the lower-left convex chain.
    """
    pts = sorted(set(points))
    frontier = []
    best_j = None
    for i, j in pts:  # ascending i, then j; keep strictly decreasing j
        if best_j is None or j < best_j:
            frontier.append((i, j))
            best_j = j
    # lower convex chain of the frontier
    hull: list[Exponent] = []
    for p in frontier:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    normals = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        alpha, beta = y1 - y2, x2 - x1
        if alpha > 0 and beta > 0:
            g = math.gcd(alpha, beta)
            normals.append((alpha // g, beta // g))
    return normals


def is_nilpotent_origin(P: BiPoly, Q: BiPoly) -> bool:
    """True when the origin is stationary with a nilpotent linearization."""
    if P.eval(0, 0) != 0 or Q.eval(0, 0) != 0:
        return False
    a11 = P.diff_x().eval(0, 0)
    a12 = P.diff_y().eval(0, 0)
    a21 = Q.diff_x().eval(0, 0)
    a22 = Q.diff_y().eval(0, 0)
    return a11 + a22 == 0 and a11 * a22 - a12 * a21 == 0


def newton_weight_candidates(P: BiPoly, Q: BiPoly) -> list[NewtonWeights]:
    """All weight pairs supported by compact edges of the Newton polygon."""
    if P.is_zero() and Q.is_zero():
        raise PreconditionError("zero field has no Newton polygon")
    normals = _lower_hull_normals(_field_support(P, Q))
    return [NewtonWeights(a, b) for a, b in sorted(normals)]


def newton_weights(P: BiPoly, Q: BiPoly) -> NewtonWeights:
    """Blow-up weights from the lowest edge of the field's Newton polygon.

    Requires a stationary nilpotent origin.  When several edges exist the
    lexicographically smallest coprime pair is chosen; use
    `newton_weight_candidates` to inspect all of them.
    """
    if not is_nilpotent_origin(P, Q):
        raise PreconditionError("origin is not a nilpotent stationary point")
    candidates = newton_weight_candidates(P, Q)
    if not candidates:
        raise PreconditionError("Newton polygon of the field has no compact edge")
    return candidates[0]
