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

The float kernels of a `PolyField` (its evaluator, the step loop, the interval
box test and the Newton Jacobian) are generated Python source that names each
coefficient instead of writing its value, so the source depends only on the
field's term shape.  `bind` compiles each distinct source once per process and
gives each field a function over the shared code that reads its own
coefficients.
"""

from __future__ import annotations

import math
import textwrap
import types
import zlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DomainError, PreconditionError, UndefinedPointError
from .polycore import BiPoly, X, Y, as_rational, eval_many, poly_divexact, poly_lcm, reduce_fraction
from .polycore import poly_gcd  # noqa: F401  bench/tests/test_bench.py expects desing to bind it

_UNIT = BiPoly.const(1)  # the time factor of every PolyField built without one


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


def field_source(tabs, x: str, y: str, outs, what: str = "field value", check: bool = False) -> str:
    """Lines that set the names `outs` to the float term tables summed at the point named (x, y).

    Each table sums c * x**i * y**j from 0.0 in table order, its coefficients named as `bind`
    reads them, and each power is taken once, by `**`, before the first sum that reads it.  A
    power that overflows, or with `check` a sum that is not finite, is a PreconditionError
    "WHAT at (x, y) overflows a float"; a table that is an error is raised where it is summed.
    """
    lines, have, k = "", set(), 0
    for tab, out in zip(tabs, outs):
        if isinstance(tab, Exception):
            lines += f"    raise PreconditionError({str(tab)!r})\n"
            continue
        for v, e in ((v, e) for _, i, j in tab for v, e in ((x, i), (y, j)) if e > 1):
            if (v, e) not in have:
                have.add((v, e))
                lines += f"    {v}{e} = {v}**{e}\n"
        lines += f"    {out} = 0.0" + "".join(f" + c{k + n}{_factors(i, j, x, y)}" for n, (_, i, j) in enumerate(tab))
        lines += f"\n    if not isfinite({out}):\n        raise OverflowError\n" if check else "\n"
        k += len(tab)
    # source from coefficient names and integer exponents only, as dataclasses builds __init__
    return (f"try:\n{lines}except OverflowError:\n    raise PreconditionError("
            f"f'{what} at ({{{x}!r}}, {{{y}!r}}) overflows a float') from None\n")


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


def _bound_lines(tab, s: str, have: set, k: int) -> str:
    """Lines that set {s}lo, {s}hi to the padded interval bounds of a term table whose first
    coefficient is c{k}; an error table raises."""
    if isinstance(tab, Exception):
        return f"    raise PreconditionError({str(tab)!r})\n"
    lines = "".join(_range_lines(i, j, have) for _, i, j in tab)
    for end in ("lo", "hi"):  # a negative c takes the other end of its term's range
        lines += f"    {s}{end} = 0.0" + "".join(
            f" + c{k + n}" + (f" * {_monomial(i, j)}{'lh'[(c >= 0) != (end == 'lo')]}" if i or j else "")
            for n, (c, i, j) in enumerate(tab)) + "\n"
    return lines + (f"    pad = 1e-14 * max(abs({s}lo), abs({s}hi), 1.0)\n"
                    f"    {s}lo, {s}hi = {s}lo - pad, {s}hi + pad\n")


def box_source(tabs) -> str:
    """Source of box(xlo, xhi, ylo, yhi) -> (excluded, plo, phi[, qlo, qhi]) for the tables (P, Q).

    Moore's natural interval extension: each component sums c * [lo, hi] from 0.0 in table
    order and is padded by 1e-14 * max(|lo|, |hi|, 1.0); Q is bounded only when P's bounds
    hold 0.  A power is v**e at v's two ends, [0, max] for an even one across 0, and a term's
    range is the min and max of its four corner products (a pure power's corners are its own
    ends twice); each is computed once per box, for every term of P and Q.  The coefficients
    are named as `bind` reads them, and each one's sign picks the ends of its term's range.  A
    table that is an error (a coefficient overflows a float) is raised where it would be read.
    """
    have, k = set(), 0 if isinstance(tabs[0], Exception) else len(tabs[0])
    return ("def box(xlo, xhi, ylo, yhi):\n" + _bound_lines(tabs[0], "p", have, 0)
            + "    if plo > 0 or phi < 0:\n        return True, plo, phi\n" + _bound_lines(tabs[1], "q", have, k)
            + "    return qlo > 0 or qhi < 0, plo, phi, qlo, qhi\n")


# distinct generated sources whose code is kept per process; a portrait-render pass writes 18
_KERNEL_CACHE = 64


@lru_cache(maxsize=_KERNEL_CACHE)
def compile_named(source: str, kind: str):
    """Code of the one function `source` defines, filed as <phaseatlas KIND CRC>.

    A profile keeps each distinct source apart, and each is compiled once per process while it
    is among the last `_KERNEL_CACHE` used: fields of one term shape write one source.
    """
    module = compile(source, f"<phaseatlas {kind} {zlib.crc32(source.encode()):08x}>", "exec")
    (code,) = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    return code


def bind(source: str, kind: str, tabs, namespace):
    """The function `source` defines, over the code every equal source shares (`compile_named`).

    Generated sources name the coefficients of the tables `tabs` c0, c1, ... in table order (an
    error table has none).  The function's globals are `namespace` and the tuple C of those
    coefficients, which it unpacks into the locals c0, c1, ... once per call.
    """
    coeffs = tuple(c for tab in tabs if not isinstance(tab, Exception) for c, _, _ in tab)
    if coeffs:
        head, body = source.split("\n", 1)
        source = f"{head}\n    {''.join(f'c{k}, ' for k in range(len(coeffs)))}= C\n{body}"
    return types.FunctionType(compile_named(source, kind), dict(namespace, C=coeffs))


def float_field(tabs):
    """Float evaluator (x, y) -> (u, v) that sums the term tables (P, Q) as `field_source` writes them.

    It carries the tables as its `float_terms`, from which `dynamics` inlines the field into its
    loop.  `PolyField.compiled` and the portrait worker, which is sent only the tables, build theirs here.
    """
    source = "def rhs(x, y):\n" + textwrap.indent(field_source(tabs, "x", "y", ("u", "v")), "    ")
    rhs = bind(source + "    return u, v\n", "rhs", tabs, {"PreconditionError": PreconditionError})
    rhs.float_terms = tabs
    return rhs


def _table(p: BiPoly):
    """Float term table of p, or the PreconditionError of its coefficient beyond the float range."""
    try:
        return p.float_terms()
    except PreconditionError as err:
        return err


@dataclass(frozen=True)
class PolyField:
    """Polynomial planar field (P, Q) with the time multiplier that produced it."""

    P: BiPoly
    Q: BiPoly
    time_factor: BiPoly = _UNIT
    provenance: tuple = ("general",)

    def eval(self, x, y):
        return eval_many((self.P, self.Q), x, y)

    def compiled(self):
        """Fast float evaluator (x, y) -> (u, v) for the numeric pipeline, built once by
        `float_field` from the two `BiPoly.float_terms()` tables."""
        return self._rhs

    @cached_property
    def _rhs(self):
        return float_field((self.P.float_terms(), self.Q.float_terms()))

    def box_test(self):
        """Interval box test (xlo, xhi, ylo, yhi) -> (excluded, plo, phi[, qlo, qhi]), built once; see `box_source`."""
        return self._box

    @cached_property
    def _box(self):
        tabs = (_table(self.P), _table(self.Q))  # P may exclude every box before Q is read
        return bind(box_source(tabs), "box", tabs, {"PreconditionError": PreconditionError})

    def float_jacobian(self):
        """Float Jacobian (x, y) -> ((Px, Py), (Qx, Qy)) for the finder's Newton step, built once.

        Each entry sums its `jacobian_polys()` table term by term, in the order `jacobian_at`
        evaluates them, with the floats and the errors of `BiPoly.eval` at a float point: a
        coefficient beyond the float range, or a value that overflows, is its PreconditionError.
        """
        return self._jac

    @cached_property
    def _jac(self):
        tabs = [_table(p) for p in self.jacobian_polys()]
        field = field_source(tabs, "x", "y", ("a11", "a12", "a21", "a22"), "polynomial value", check=True)
        source = "def jac(x, y):\n" + textwrap.indent(field, "    ") + "    return (a11, a12), (a21, a22)\n"
        return bind(source, "jac", tabs, {"PreconditionError": PreconditionError, "isfinite": math.isfinite})

    def jacobian_polys(self):
        """(∂P/∂x, ∂P/∂y, ∂Q/∂x, ∂Q/∂y), differentiated once per field."""
        return self._jacobian_polys

    @cached_property
    def _jacobian_polys(self):
        return (self.P.diff_x(), self.P.diff_y(), self.Q.diff_x(), self.Q.diff_y())

    def max_degree(self) -> int:
        return max(self.P.total_degree(), self.Q.total_degree())

    def swapped(self) -> "PolyField":
        """The mirror image (Q(y, x), P(y, x)) of the field in the line y = x, terms kept in storage order,
        with a fresh provenance: a mirror is not the field that `provenance` names."""
        return PolyField(self.Q.swapped(), self.P.swapped(), self.time_factor.swapped())

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
    """Desingularized CDK field ẋ = xy − a(x³+xy²), ẏ = y² − (by−b+1)(x²+y²), in closed form.

    This is `desingularize(cdk_rational_field(a, b))`, built without a gcd.  x²+y² is
    irreducible over Q and divides neither p = x(y − a(x²+y²)) nor r ≡ y² (mod x²+y²),
    so both fractions are already reduced, ℓ = x²+y² and q̄ = s̄ = 1.  The terms are
    stored in the order that route stores them, since `float_terms()` order is the
    integrator's summation order.
    """
    a, b = as_rational(a), as_rational(b)
    if a <= 0 or b <= 0:
        raise DomainError("CDK parameters must be positive")
    P = BiPoly({(1, 1): 1, (3, 0): -a, (1, 2): -a})
    Q = BiPoly({(0, 2): b, (2, 1): -b, (0, 3): -b, (2, 0): b - 1})
    return PolyField(P, Q, BiPoly({(2, 0): 1, (0, 2): 1}), provenance=("cdk", a, b))


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

