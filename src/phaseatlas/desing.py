"""Rational planar systems and their trajectory-equivalent polynomial fields.

A rational system ẋ = p/q, ẏ = r/s (p,q,r,s bivariate polynomials, both
fractions reduced) is turned into the polynomial field

    ẋ = q̄·p,  ẏ = s̄·r,       ℓ = lcm(q, s) = q·q̄ = s·s̄,

which has the same trajectories off the zero set of the denominators; the
multiplier ℓ records how the time parametrisation was stretched.  The
construction is minimal, gcd(ℓ, q̄p, s̄r) = 1, because both fractions are
kept reduced: an irreducible π with π^k ‖ ℓ has π^k ‖ q (so π ∤ q̄ and,
q being coprime to p, π ∤ p) or likewise π^k ‖ s, so π misses q̄p or s̄r.

Also provides the two built-in fixtures: the CDK system

    ẋ = xy/(x²+y²) − ax,   ẏ = y²/(x²+y²) − by + b − 1     (a, b > 0)

and the logarithmic Sprott system, which is not rational and therefore
lives outside the symbolic pipeline as an evaluable field object.
"""

from __future__ import annotations

import math
import textwrap
import zlib
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, PreconditionError, UndefinedPointError
from .polycore import BiPoly, X, Y, as_rational, poly_divexact, poly_lcm, reduce_fraction
from .polycore import poly_gcd  # noqa: F401  bench/tests/test_bench.py expects desing to bind it


@dataclass(frozen=True)
class RationalField:
    """Planar system ẋ = p/q, ẏ = r/s with both fractions kept reduced."""

    p: BiPoly
    q: BiPoly
    r: BiPoly
    s: BiPoly

    def __post_init__(self):
        p, q = reduce_fraction(self.p, self.q)
        r, s = reduce_fraction(self.r, self.s)
        for key, value in (("p", p), ("q", q), ("r", r), ("s", s)):
            object.__setattr__(self, key, value)

    def eval(self, x, y):
        """Exact value of (p/q, r/s); raises off the domain."""
        qv, sv = self.q.eval(x, y), self.s.eval(x, y)
        if qv == 0 or sv == 0:
            raise UndefinedPointError(f"field undefined at ({x}, {y})")
        return (self.p.eval(x, y) / qv, self.r.eval(x, y) / sv)


def _factors(i: int, j: int, x: str, y: str) -> str:
    """Source of the factors x**i, y**j of a term; x**0 is 1.0 and x**1 is x, exactly."""
    return "".join(f" * {v}" + (f"{e}" if e > 1 else "") for v, e in ((x, i), (y, j)) if e)


def field_source(tabs, x: str, y: str, out: str) -> str:
    """Lines that set `out` to the float term tables (P, Q) summed at the point named (x, y).

    Sums c * x**i * y**j from 0.0 in table order, each power taken once by `**`; a value that
    overflows a float is a PreconditionError naming the point.
    """
    powers = sorted({(v, e) for tab in tabs for _, i, j in tab for v, e in ((x, i), (y, j)) if e > 1})
    sums = ["0.0" + "".join(f" + {c!r}{_factors(i, j, x, y)}" for c, i, j in tab) for tab in tabs]
    # source from float reprs and integer exponents only, as dataclasses builds __init__
    return ("try:\n" + "".join(f"    {v}{e} = {v}**{e}\n" for v, e in powers)
            + f"    {out} {sums[0]}, {sums[1]}\nexcept OverflowError:\n    raise PreconditionError("
            f"f'field value at ({{{x}!r}}, {{{y}!r}}) overflows a float') from None\n")


def _monomial(i: int, j: int) -> str:
    return "".join(f"{v}{e}" for v, e in (("x", i), ("y", j)) if e)


def _range_lines(i: int, j: int, have: set) -> str:
    """Lines that set the range {m}l, {m}h of the monomial m = x**i * y**j and of its powers, once each."""
    lines = ""
    for v, e in ((v, e) for v, e in (("x", i), ("y", j)) if e and (v, e) not in have):
        have.add((v, e))
        a, b = (f"{v}lo", f"{v}hi") if e == 1 else ("a", "b")
        lines += "" if e == 1 else f"    a, b = {v}lo**{e}, {v}hi**{e}\n"
        lo = f"0.0 if {v}lo < 0 < {v}hi else " if e % 2 == 0 else ""  # min and max as the builtins: ties keep a
        lines += f"    {v}{e}l, {v}{e}h = {lo}({b} if {b} < {a} else {a}), ({b} if {b} > {a} else {a})\n"
    if i and j and (i, j) not in have:
        have.add((i, j))
        m = _monomial(i, j)
        lines += (f"    c = x{i}l * y{j}l, x{i}l * y{j}h, x{i}h * y{j}l, x{i}h * y{j}h\n"
                  f"    {m}l, {m}h = min(c), max(c)\n")
    return lines


def _bound_lines(tab, s: str, have: set) -> str:
    """Lines that set {s}lo, {s}hi to the padded interval bounds of a term table; an error table raises."""
    if isinstance(tab, Exception):
        return f"    raise PreconditionError({str(tab)!r})\n"
    lines = "".join(_range_lines(i, j, have) for _, i, j in tab)
    for end in ("lo", "hi"):  # a negative c takes the other end of its term's range
        lines += f"    {s}{end} = 0.0" + "".join(
            f" + {c!r}" + (f" * {_monomial(i, j)}{'lh'[(c >= 0) != (end == 'lo')]}" if i or j else "")
            for c, i, j in tab) + "\n"
    return lines + (f"    pad = 1e-14 * max(abs({s}lo), abs({s}hi), 1.0)\n"
                    f"    {s}lo, {s}hi = {s}lo - pad, {s}hi + pad\n")


def box_source(tabs) -> str:
    """Source of box(xlo, xhi, ylo, yhi) -> (excluded, plo, phi[, qlo, qhi]) for the tables (P, Q).

    Moore's natural interval extension: each component sums c * [lo, hi] from 0.0 in table
    order and is padded by 1e-14 * max(|lo|, |hi|, 1.0); Q is bounded only when P's bounds
    hold 0.  A power is v**e at v's two ends, [0, max] for an even one across 0, and a term's
    range is the min and max of its four corner products (a pure power's corners are its own
    ends twice); each is computed once per box, for every term of P and Q.  A table that is an
    error (a coefficient of Q overflows a float) is raised where it would be read.
    """
    have = set()
    return ("def box(xlo, xhi, ylo, yhi):\n" + _bound_lines(tabs[0], "p", have)
            + "    if plo > 0 or phi < 0:\n        return True, plo, phi\n" + _bound_lines(tabs[1], "q", have)
            + "    return qlo > 0 or qhi < 0, plo, phi, qlo, qhi\n")


def compile_named(source: str, kind: str):
    """Code of `source` filed as <phaseatlas KIND CRC>: a profile keeps each distinct source apart."""
    return compile(source, f"<phaseatlas {kind} {zlib.crc32(source.encode()):08x}>", "exec")


@dataclass(frozen=True)
class PolyField:
    """Polynomial planar field (P, Q) with the time multiplier that produced it."""

    P: BiPoly
    Q: BiPoly
    time_factor: BiPoly = field(default_factory=lambda: BiPoly.const(1))
    provenance: tuple = ("general",)

    def eval(self, x, y):
        return (self.P.eval(x, y), self.Q.eval(x, y))

    def compiled(self):
        """Fast float evaluator (x, y) -> (u, v) for the numeric pipeline, built once.

        It sums `BiPoly.float_terms()` as `field_source` writes them, and carries the two
        tables as its `float_terms`, from which `dynamics` inlines the field into its loop.
        """
        return self._rhs

    @cached_property
    def _rhs(self):
        tabs = (self.P.float_terms(), self.Q.float_terms())
        namespace = {"PreconditionError": PreconditionError}
        source = "def rhs(x, y):\n" + textwrap.indent(field_source(tabs, "x", "y", "return"), "    ")
        exec(compile_named(source, "rhs"), namespace)
        rhs = namespace.pop("rhs")  # no cycle through its globals: freed with the field
        rhs.float_terms = tabs
        return rhs

    def box_test(self):
        """Interval box test (xlo, xhi, ylo, yhi) -> (excluded, plo, phi[, qlo, qhi]), built once; see `box_source`."""
        return self._box

    @cached_property
    def _box(self):
        try:
            qtab = self.Q.float_terms()
        except PreconditionError as err:  # P may exclude every box before Q is read
            qtab = err
        namespace = {"PreconditionError": PreconditionError}
        exec(compile_named(box_source((self.P.float_terms(), qtab)), "box"), namespace)
        return namespace.pop("box")  # no cycle through its globals

    def jacobian_polys(self):
        """(∂P/∂x, ∂P/∂y, ∂Q/∂x, ∂Q/∂y), differentiated once per field."""
        return self._jacobian_polys

    @cached_property
    def _jacobian_polys(self):
        return (self.P.diff_x(), self.P.diff_y(), self.Q.diff_x(), self.Q.diff_y())

    def max_degree(self) -> int:
        return max(self.P.total_degree(), self.Q.total_degree())

    def shifted(self, dx, dy) -> "PolyField":
        """Field in coordinates centred at (dx, dy); exact recomposition."""
        dx, dy = as_rational(dx), as_rational(dy)
        return PolyField(
            self.P.shift(dx, dy),
            self.Q.shift(dx, dy),
            self.time_factor.shift(dx, dy),
            self.provenance + (("shift", dx, dy),),
        )


def cdk_rational_field(a, b) -> RationalField:
    """The CDK system with concrete positive rational parameters."""
    a, b = as_rational(a), as_rational(b)
    if a <= 0 or b <= 0:
        raise DomainError("CDK parameters must be positive")
    den = X**2 + Y**2
    p = X * Y - a * (X**3 + X * Y**2)
    r = Y**2 - (b * Y - b + 1) * den
    return RationalField(p, den, r, den)


def desingularize(f: RationalField) -> PolyField:
    """Trajectory-equivalent polynomial field with multiplier lcm(q, s).

    No common factor is left to strip: `RationalField` keeps p/q and r/s
    reduced, which makes gcd(ℓ, q̄p, s̄r) = 1 (see the module docstring).
    """
    ell = poly_lcm(f.q, f.s)
    qbar = poly_divexact(ell, f.q)
    sbar = poly_divexact(ell, f.s)
    return PolyField(qbar * f.p, sbar * f.r, time_factor=ell, provenance=("general",))


def cdk_poly_field(a, b) -> PolyField:
    """Desingularized CDK field ẋ = xy − a(x³+xy²), ẏ = y² − (by−b+1)(x²+y²)."""
    a, b = as_rational(a), as_rational(b)
    f = desingularize(cdk_rational_field(a, b))
    return PolyField(f.P, f.Q, f.time_factor, provenance=("cdk", a, b))


# -- Sprott logarithmic fixture -------------------------------------------------


class SprottField:
    """The logarithmic system ẋ = ½ln x² − y, ẏ = ½ln x² + x.

    Not expressible in the rational grammar, hence a closure-style field:
    `original` is undefined on the y-axis, `multiplied` (both components
    times x²) extends continuously by (0, 0) there and is C¹ on the plane.
    Excluded from all symbolic operations.
    """

    name = "sprott"

    def original(self, x: float, y: float) -> tuple[float, float]:
        if x == 0:
            raise UndefinedPointError("logarithmic field undefined on x = 0")
        half_log = math.log(abs(x))
        return (half_log - y, half_log + x)

    def multiplied(self, x: float, y: float) -> tuple[float, float]:
        if x == 0.0:
            return (0.0, 0.0)
        half_log = math.log(abs(x))
        x2 = x * x
        return (x2 * (half_log - y), x2 * (half_log + x))

    # callable protocol used by the integrator: multiplied field, defined everywhere
    def __call__(self, x: float, y: float) -> tuple[float, float]:
        return self.multiplied(x, y)

    def fixed_point(self) -> tuple[float, float]:
        """Unique stationary point (w, −w) with w·e^w = 1 (the omega constant)."""
        w = 0.5
        for _ in range(60):
            # Newton for g(w) = w e^w − 1
            ew = math.exp(w)
            step = (w * ew - 1.0) / (ew * (1.0 + w))
            w -= step
            if abs(step) < 1e-16:
                break
        return (w, -w)

    def jacobian_original(self, x: float, y: float):
        if x == 0:
            raise UndefinedPointError("logarithmic field undefined on x = 0")
        return ((1.0 / x, -1.0), (1.0 / x + 1.0, 0.0))


def sprott_field() -> SprottField:
    return SprottField()

