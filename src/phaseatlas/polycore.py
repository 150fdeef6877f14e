"""Exact bivariate polynomial arithmetic over the rationals.

A polynomial in x, y is stored sparsely as integer numerators over one
common denominator D > 0: a mapping from exponent pairs (i, j) to nonzero
ints n_ij, for the sum of n_ij/D·x^i·y^j.  The form is canonical, with
gcd(D, n_ij, ...) == 1 and the zero polynomial the empty mapping over D = 1,
so equality and hashing compare the mapping and D.  Arithmetic, gcds and
root isolation run on ints only (primitive parts and pseudo-division in
Z[x][y]; Knuth, TAOCP vol. 2, §4.6.1).  `fractions.Fraction` is the public
boundary: constructors accept Fractions, and `terms`, iteration,
`constant_value()` and exact `eval` return them.  `eval_many` is the one
point evaluator: at a rational point it builds the power tables once for
every polynomial it is given, and `BiPoly.eval` is its one-polynomial case.

Floating point appears only at the evaluation boundary and for the
irrational roots of `real_roots`, each given as the nearest double.  Float
evaluation has one arithmetic: `BiPoly.float_terms()`, n_ij / D (the same
correctly rounded division as float(Fraction(n_ij, D))) cached per
polynomial and summed term by term as c·x^i·y^j, both in `eval_many` at
float coordinates and in the integrator's `PolyField.compiled`.  Its order
is the storage order: a sum or product appends each new exponent as it
first appears and drops one whose coefficient cancels.

Term order for printing and primitive parts is graded lexicographic with
x > y: higher total degree first, ties broken by higher x-exponent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Tuple

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

    __slots__ = ("_num", "_den", "_floats")

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise DomainError(f"negative exponent in term {(i, j)}")
            c = as_rational(c)
            if c:
                clean[(int(i), int(j))] = c
        # over the lcm of lowest-terms denominators the numerators share no factor with it
        self._den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {e: c.numerator * (self._den // c.denominator) for e, c in clean.items()}
        self._floats = None

    @staticmethod
    def _make(num: dict[Exponent, int], den: int) -> "BiPoly":
        """The polynomial sum(num[e]/den·x^i·y^j) from nonzero ints and den > 0, in canonical form."""
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: n // g for e, n in num.items()}
            den //= g
        p = object.__new__(BiPoly)
        p._num, p._den, p._floats = num, den, None
        return p

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def monomial(c, i: int, j: int) -> "BiPoly":
        return BiPoly({(i, j): c})

    @staticmethod
    def var(name: str) -> "BiPoly":
        if name == "x":
            return BiPoly({(1, 0): 1})
        if name == "y":
            return BiPoly({(0, 1): 1})
        raise DomainError(f"unknown variable {name!r}")

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        return {e: Fraction(n, self._den) for e, n in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self._num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return Fraction(self._num.get((0, 0), 0), self._den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(i + j for i, j in self._num)

    def degree_in(self, var: str) -> int:
        if not self._num:
            return -1
        k = 0 if var == "x" else 1
        return max(e[k] for e in self._num)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded-lex descending order with x > y."""
        return sorted(self.terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]), reverse=True)

    def _lead(self) -> int:
        """Numerator of the graded-lex leading term; the polynomial is nonzero."""
        return self._num[max(self._num, key=lambda e: (e[0] + e[1], e[0]))]

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), self._den))

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
        # both sides over the lcm of the two denominators
        g = math.gcd(self._den, other._den)
        sa, sb = other._den // g, self._den // g
        out = {e: n * sa for e, n in self._num.items()}
        for e, n in other._num.items():
            s = out.get(e, 0) + n * sb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return BiPoly._make(out, self._den * sa)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._make({e: -n for e, n in self._num.items()}, self._den)

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
        out: dict[Exponent, int] = {}
        for (i1, j1), c1 in self._num.items():
            for (i2, j2), c2 in other._num.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return BiPoly._make(out, self._den * other._den)

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
        for (i, j), n in self._num.items():
            e = (i, j)[k]
            if e:
                out[(i - 1, j) if k == 0 else (i, j - 1)] = n * e
        return BiPoly._make(out, self._den)

    def diff_x(self) -> "BiPoly":
        return self.diff("x")

    def diff_y(self) -> "BiPoly":
        return self.diff("y")

    def float_terms(self) -> list[tuple[float, int, int]]:
        """Float coefficient table [(float(c), i, j), ...] in storage order, built once: do not modify it."""
        if self._floats is None:
            floats = []
            for (i, j), n in self._num.items():
                try:
                    floats.append((n / self._den, i, j))
                except OverflowError:
                    raise PreconditionError(
                        f"coefficient of {_format_monomial(i, j) or '1'} overflows a float") from None
            self._floats = floats
        return self._floats

    def eval(self, x, y):
        """Value at a point: `eval_many` of this polynomial alone."""
        return eval_many((self,), x, y)[0]

    # -- structural operations ----------------------------------------------

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
        for (i, j), n in self._num.items():
            out = out + BiPoly._make({(0, 0): n}, self._den) * xpows[i] * ypows[j]
        return out

    def subst_monomials(self, x: tuple, y: tuple, factor: tuple = (1, 0, 0)) -> "BiPoly":
        """factor·p(x, y) for monomials x, y, factor, each (c, i, j) for c·x^i·y^j with an int c != 0.

        The terms are re-keyed in storage order, not expanded.  A map that
        merges two terms or leaves a negative exponent raises DomainError.
        """
        (cx, xi, xj), (cy, yi, yj), (c, i0, j0) = x, y, factor
        num = {(i0 + i * xi + j * yi, j0 + i * xj + j * yj): n * c * cx**i * cy**j
               for (i, j), n in self._num.items()}
        if not (c and cx and cy) or len(num) < len(self._num) or any(i < 0 or j < 0 for i, j in num):
            raise DomainError("monomial substitution must map the terms one-to-one onto nonzero monomials")
        return BiPoly._make(num, self._den)

    def swapped(self) -> "BiPoly":
        """p(y, x): x and y exchanged, terms kept in storage order."""
        return BiPoly._make({(j, i): n for (i, j), n in self._num.items()}, self._den)

    def monomial_order(self, var: str) -> int:
        """Largest k with var^k dividing self; large sentinel for zero poly."""
        if not self._num:
            return 1 << 30
        k = 0 if var == "x" else 1
        return min(e[k] for e in self._num)

    def div_monomial(self, var: str, power: int) -> "BiPoly":
        """self / var^power; DomainError unless var^power divides self."""
        return self.subst_monomials((1, 1, 0), (1, 0, 1), (1, -power, 0) if var == "x" else (1, 0, -power))

    def primitive(self) -> "BiPoly":
        """Scale to content 1 with positive leading (graded-lex) coefficient."""
        if not self._num:
            return self
        g = math.gcd(*self._num.values())
        if self._lead() < 0:
            g = -g
        return BiPoly._make({e: n // g for e, n in self._num.items()}, 1)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"BiPoly({format_poly(self)!r})"


def eval_many(polys: Sequence[BiPoly], x, y) -> tuple:
    """Values of the polynomials at one point, in order; exact for Fraction/int coordinates.

    Float coordinates sum each `float_terms()` table term by term as
    c·x^i·y^j, the same arithmetic as the integrator's `PolyField.compiled`;
    a value that overflows is a PreconditionError naming the point.  At
    p/q, r/s the tables p^i·q^(dx-i) and r^j·s^(dy-j) are built once, with
    dx, dy the largest degrees among the polynomials, and each value is
    sum(n_ij·p^i·q^(dx-i)·r^j·s^(dy-j)) / (D·q^dx·s^dy) in ints.
    """
    if isinstance(x, float) or isinstance(y, float):
        x, y = float(x), float(y)
        return tuple(_float_value(poly, x, y) for poly in polys)
    x, y = as_rational(x), as_rational(y)
    (p, q), (r, s) = (x.numerator, x.denominator), (y.numerator, y.denominator)
    dx = max((e[0] for poly in polys for e in poly._num), default=0)
    dy = max((e[1] for poly in polys for e in poly._num), default=0)
    xs = [p**i * q ** (dx - i) for i in range(dx + 1)]
    ys = [r**j * s ** (dy - j) for j in range(dy + 1)]
    scale = xs[0] * ys[0]  # q^dx·s^dy
    return tuple(Fraction(sum(n * xs[i] * ys[j] for (i, j), n in poly._num.items()), poly._den * scale)
                 for poly in polys)


def _float_value(poly: BiPoly, x: float, y: float) -> float:
    """`poly.float_terms()` summed term by term at (x, y); a value beyond the float range raises."""
    total = 0.0
    try:
        for c, i, j in poly.float_terms():
            total += c * x**i * y**j
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise PreconditionError(f"polynomial value at ({x!r}, {y!r}) overflows a float")
    return total


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


# -- univariate helpers over Z[x]: the bivariate gcd and real roots ----------
#
# A univariate polynomial is a plain list of ints, index = degree, trailing
# zeros stripped.  The empty list is zero.  By Gauss's lemma a primitive
# divisor that divides in Q[x] divides in Z[x].


def _utrim(u: list[int]) -> list[int]:
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
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _utrim(out)


def _uquo(a: list[int], b: list[int]) -> list[int] | None:
    """The quotient a / b if b divides a in Z[x], else None; b is nonzero."""
    a, q = list(a), [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        q[k], r = divmod(a[-1], b[-1])
        if r:
            return None
        for i, v in enumerate(b):
            a[i + k] -= q[k] * v
        _utrim(a)
    return None if a else _utrim(q)


def _integerize(a: list[int]) -> list[int]:
    """a divided by the gcd of its entries: coprime integers with the signs of a."""
    g = math.gcd(*a)
    return [v // g for v in a]


def _urem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a positive rational, as coprime integers."""
    a, lb = list(a), b[-1]
    while len(a) >= len(b):
        k, la = len(a) - len(b), a[-1] if lb > 0 else -a[-1]
        a = [abs(lb) * v for v in a]
        for i, v in enumerate(b):
            a[i + k] -= la * v
        _utrim(a)
    return _integerize(a)


def _ugcd(a, b):
    """A gcd as coprime integers, up to sign; [] for gcd(0, 0)."""
    a, b = _integerize(a), _integerize(b)
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

    The root stays strictly inside (lo, hi): bisection returns one it lands on.
    A rational root's denominator divides lc, so it is a multiple of 1/lc; once
    the interval is narrower than 1/(2 lc), the multiple of 1/lc nearest to hi
    is the root if it lies inside and p vanishes there.  Else bisection goes on
    until both ends round to one double.
    """
    lc, s = abs(p[-1]), _value_at(p, hi, den)
    if not s:
        return Fraction(hi, den)
    candidate = True
    while candidate or lo / den != hi / den:
        if candidate and 2 * lc * (hi - lo) < den:
            u = (2 * hi * lc + den) // (2 * den)
            if lo * lc < u * den < hi * lc and not _value_at(p, u, lc):
                return Fraction(u, lc)
            candidate = False
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        v = _value_at(p, mid, den)
        if not v:
            return Fraction(mid, den)
        if (v > 0) == (s > 0):
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
    m = math.lcm(*(v.denominator for v in coeffs))
    c = _utrim([v.numerator * (m // v.denominator) for v in coeffs])
    if not c:
        raise DomainError("zero polynomial has no root list")
    roots, real, g = [], 0, c
    while len(g) > 1:
        h = _ugcd(g, _uderiv(g))
        chain = _sturm(_uquo(g, h))
        intervals = _isolate(chain)
        if g is c:
            roots = [_root_in(chain[0], *iv) for iv in intervals]
        real += len(intervals)
        g = h
    exact = sorted(r for r in roots if isinstance(r, Fraction))
    return exact, sorted(r for r in roots if isinstance(r, float)), len(c) - 1 - real


def _to_y_coeffs(p: BiPoly) -> list[list[int]]:
    """The numerators of p as a polynomial in y with coefficients in Z[x]."""
    rows: list[list[int]] = [[] for _ in range(p.degree_in("y") + 1)]
    for (i, j), n in p._num.items():
        row = rows[j]
        row.extend([0] * (i + 1 - len(row)))
        row[i] = n
    return rows


def _from_y_coeffs(rows: list[list[int]], den: int) -> BiPoly:
    terms = {}
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                terms[(i, j)] = c
    return BiPoly._make(terms, den)


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
    return [_uquo(row, c) for row in rows] if c else rows


def _y_pseudo_rem(a, b):
    """Pseudo-remainder of a by b, both polynomials in y over Z[x]."""
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

    Primitive polynomial-remainder sequence over Z[x][y] on the numerators,
    with content extraction; adequate at the small degrees this package
    works with.  The result is normalized to be primitive with a positive
    leading coefficient in graded-lex order.
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

    # gcd = gcd(contents) * primitive-part gcd; contents live in Z[x]
    return _from_y_coeffs([_umul(row, cont) for row in a], 1).primitive()


def poly_divexact(p: BiPoly, d: BiPoly) -> BiPoly:
    """Exact division p / d; raises DomainError when the remainder is nonzero."""
    if d.is_zero():
        raise DomainError("division by the zero polynomial")
    if p.is_zero():
        return p
    if d.is_constant():
        return p * Fraction(d._den, d._num[(0, 0)])
    # long division in y of p's numerators by the primitive part of d's, whose
    # quotient is integral when it exists (Gauss's lemma)
    g = math.gcd(*d._num.values())
    a, b = _to_y_coeffs(p), [[v // g for v in row] for row in _to_y_coeffs(d)]
    quo: list[list[int]] = [[] for _ in range(len(a) - len(b) + 1)]
    lb = b[-1]
    while len(a) >= len(b) and _ytrim(a):
        k = len(a) - len(b)
        qcoef = _uquo(a[-1], lb)
        if qcoef is None:
            raise DomainError("inexact polynomial division")
        quo[k] = qcoef
        for i, rb in enumerate(b):
            a[i + k] = _uadd(a[i + k], _uneg(_umul(rb, qcoef)))
        _ytrim(a)
    if _ytrim(a):
        raise DomainError("inexact polynomial division")
    # p / d = (quotient / p._den) / (g / d._den)
    return _from_y_coeffs([[c * d._den for c in row] for row in quo], p._den * g)


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
    # 1/scale, for the scale that makes d primitive with a positive lead
    inv = Fraction(d._den if d._lead() > 0 else -d._den, math.gcd(*d._num.values()))
    return n * inv, d * inv


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
            if cross <= 0:
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
    """True when the origin is stationary with a nilpotent linearization.

    The Jacobian there is the linear coefficients of P and Q, read as numerators over D > 0.
    """
    (p0, a11, a12), (q0, a21, a22) = ([f._num.get(e, 0) for e in ((0, 0), (1, 0), (0, 1))] for f in (P, Q))
    return not (p0 or q0) and a11 * Q._den + a22 * P._den == 0 and a11 * a22 - a12 * a21 == 0


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
