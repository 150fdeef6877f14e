"""Textual system specifications and analysis reports.

System files hold two non-empty rational right-hand sides separated by
one ";" or, if there is no ";", by a line end, optionally preceded by
parameter bindings, lines whose first word is "param":

    param a = 1/2
    param b = 1/2
    x*y/(x^2 + y^2) - a*x ; y^2/(x^2 + y^2) - b*y + b - 1

Grammar: +, -, *, /, ^ with nonnegative integer exponents, parentheses,
the variables x and y, declared parameter names, and integer or decimal
literals (decimals are rationalized exactly from their digits).  A
parameter name is an identifier other than x and y, bound once per file;
an exponent must fold to a nonnegative integer without naming x, y or a
parameter.  No product or power the parser forms, the cross-multiplied
numerators and denominators of +, - and / included, may reach a total
degree above 24, and a power of a constant may not have a numerator or
denominator of more than 1024 bits.
Each side is parsed in one pass into a numerator/denominator
pair of polynomials, which `RationalField` reduces to lowest terms once.
Anything else (function calls, undeclared names, division by an
expression that is identically zero, or parentheses, signs and exponents
nested more than 50 deep: "expression nested too deeply") is rejected
with a positioned error.

Reports are nested dictionaries with every number tagged "exact" (a
rational string) or "approx" (a 12-significant-digit float string plus a
tolerance), rendered either as canonical JSON (bit-stable across runs) or
as human-readable text.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .compact import InfinityContinuum
from .desing import RationalField
from .errors import ParseError, UnknownSymbolError, UnsupportedConstructError, ZeroDenominatorError
from .polycore import BiPoly, format_poly, format_rational

# -- tokenizer ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op"
    value: object
    line: int
    column: int


# whitespace, a number, a name, an operator or ";", or any other single character
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<num>\d+\.?\d*|\.\d+)|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^();])|(?P<bad>.)"
)


def _tokenize(text: str, line: int):
    """Tokens of one line of a system file, which is line `line` of that file."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, lexeme, column = m.lastgroup, m.group(), m.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", line, column)
        if kind != "space":
            tokens.append(_Token(kind, Fraction(lexeme) if kind == "num" else lexeme, line, column))
    return tokens


# -- recursive-descent / precedence-climbing parser ------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}

# parentheses, signs and exponents nested deeper than this are rejected; a
# level costs the parser at most seven Python frames, so the deepest accepted
# expression stays well inside the default recursion limit of 1000
_MAX_DEPTH = 50

# a product or power whose result would have a total degree above
# _MAX_DEGREE, or a constant power with a numerator or denominator of more
# than _MAX_POWER_BITS bits, is rejected before it is expanded: a dense
# product costs the product of its factors' term counts ((x+y+1)^100 takes
# about 3 s, the product of four (x+y+1)^24 about 0.8 s), and 9^9^9 would
# not finish
_MAX_DEGREE = 24
_MAX_POWER_BITS = 1024


class _Parser:
    """Parses straight to an unreduced (numerator, denominator) pair of BiPolys.

    Every method combines the pairs of its operands, so the term storage
    order of the result (and with it `float_terms()`) is fixed by the
    expression alone.
    """

    def __init__(self, tokens, bindings):
        self.tokens = tokens
        self.pos = 0
        self.bindings = bindings
        self.depth = 0
        self.symbols = 0  # x, y and parameter names read so far

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:  # a side always has a token
            last = self.tokens[-1]
            raise ParseError("unexpected end of expression", last.line, last.column)
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(f"expected {op!r}, found {tok.value!r}", tok.line, tok.column)

    def nest(self, parse, tok):
        """parse() one nesting level below tok."""
        if self.depth == _MAX_DEPTH:
            raise ParseError("expression nested too deeply", tok.line, tok.column)
        self.depth += 1
        pair = parse()
        self.depth -= 1
        return pair

    def parse_expression(self, min_prec=1):
        ln, ld = self.parse_unary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.value not in ("+", "-", "*", "/"):
                return ln, ld
            prec = _BIN_PREC[tok.value]
            if prec < min_prec:
                return ln, ld
            self.next()
            rn, rd = self.parse_expression(prec + 1)
            mul = functools.partial(self.product, tok)
            if tok.value == "+":
                ln, ld = mul(ln, rd) + mul(rn, ld), mul(ld, rd)
            elif tok.value == "-":
                ln, ld = mul(ln, rd) - mul(rn, ld), mul(ld, rd)
            elif tok.value == "*":
                ln, ld = mul(ln, rn), mul(ld, rd)
            elif rn.is_zero():
                raise ZeroDenominatorError(
                    f"division by zero (line {tok.line}, column {tok.column})"
                )
            else:
                ln, ld = mul(ln, rd), mul(ld, rn)

    @staticmethod
    def product(tok, a, b):
        """a * b for the operator tok, refused at tok above total degree _MAX_DEGREE."""
        if a.total_degree() + b.total_degree() > _MAX_DEGREE:
            raise UnsupportedConstructError(f"product of total degree above {_MAX_DEGREE}", tok.line, tok.column)
        return a * b

    def parse_unary(self):
        # ^ binds tighter than unary minus: -x^2 reads -(x^2)
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.value in ("+", "-"):
            self.next()
            n, d = self.nest(self.parse_unary, tok)
            return (n, d) if tok.value == "+" else (-n, d)
        return self.parse_power()

    def parse_power(self):
        n, d = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.value == "^":
            self.next()
            k = self.parse_exponent(tok)
            if k * max(n.total_degree(), d.total_degree()) > _MAX_DEGREE:
                raise UnsupportedConstructError(
                    f"power of total degree above {_MAX_DEGREE}", tok.line, tok.column
                )
            if n.is_constant() and d.is_constant():
                # |v|^k has at least (bit_length(v) - 1) * k + 1 bits
                parts = (n.constant_value(), d.constant_value())
                v = max(max(abs(c.numerator), c.denominator) for c in parts)
                if (v.bit_length() - 1) * k >= _MAX_POWER_BITS:
                    raise UnsupportedConstructError(
                        f"constant power of more than {_MAX_POWER_BITS} bits", tok.line, tok.column
                    )
            n, d = n**k, d**k
        return n, d

    def parse_exponent(self, caret_tok):
        # right-associative; the exponent must name no symbol and fold to a
        # nonnegative integer
        symbols = self.symbols
        n, d = self.nest(self.parse_unary, caret_tok)
        if self.symbols == symbols:
            value = n.constant_value() / d.constant_value()
            if value.denominator == 1 and value >= 0:
                return int(value)
        raise UnsupportedConstructError(
            "exponent must be a nonnegative integer literal",
            caret_tok.line,
            caret_tok.column,
        )

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            return BiPoly.const(tok.value), BiPoly.const(1)
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.value == "(":
                raise UnsupportedConstructError(
                    f"function application {tok.value!r} is outside the rational grammar",
                    tok.line,
                    tok.column,
                )
            self.symbols += 1
            if tok.value in ("x", "y"):
                return BiPoly.var(tok.value), BiPoly.const(1)
            if tok.value not in self.bindings:
                raise UnknownSymbolError(
                    f"unknown symbol {tok.value!r}; declare parameters with 'param {tok.value} = ...'",
                    tok.line,
                    tok.column,
                )
            return BiPoly.const(self.bindings[tok.value]), BiPoly.const(1)
        if tok.kind == "op" and tok.value == "(":
            pair = self.nest(self.parse_expression, tok)
            self.expect_op(")")
            return pair
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.column)


# -- SystemSpec --------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """A parsed planar system: parameter bindings and the reduced field they give."""

    parameters: tuple  # ((name, Fraction), ...) in declaration order
    field: RationalField

    def canonical_text(self) -> str:
        lines = [f"param {name} = {format_rational(v)}" for name, v in self.parameters]

        def side(n, d):
            if d == BiPoly.const(1):
                return format_poly(n)
            return f"({format_poly(n)})/({format_poly(d)})"

        f = self.field
        lines.append(f"{side(f.p, f.q)} ; {side(f.r, f.s)}")
        return "\n".join(lines) + "\n"


def parse_system(text: str) -> SystemSpec:
    """Parse a system file into a validated SystemSpec.

    Division is only admitted where the result stays a ratio of
    polynomials; each side is reduced to lowest terms once, here.
    """
    params: dict[str, Fraction] = {}
    lines: list[list[_Token]] = []  # the tokens of each body line, never empty
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#") or not stripped:
            continue
        if re.match(r"param\b", stripped):
            rest = stripped[len("param"):].strip()
            if "=" not in rest:
                raise ParseError("param line must read 'param <name> = <rational>'", lineno, 1)
            name, _, value = rest.partition("=")
            name = name.strip()
            value = value.strip()
            if not name.isidentifier():
                raise ParseError(f"invalid parameter name {name!r}", lineno, 1)
            if name in ("x", "y"):
                raise ParseError(f"parameter name {name!r} is a variable", lineno, 1)
            if name in params:
                raise ParseError(f"parameter {name!r} is declared twice", lineno, 1)
            try:
                params[name] = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"invalid rational literal {value!r}: {exc}", lineno, 1)
            continue
        lines.append(_tokenize(raw, lineno))

    if not lines:
        raise ParseError("no right-hand sides found", 1, 1)
    # the sides are separated by ";" if there is one, else by line ends
    tokens = [tok for line in lines for tok in line]
    pieces = lines
    semis = [k for k, tok in enumerate(tokens) if tok.value == ";"]
    if semis:
        ends = [-1, *semis, len(tokens)]
        pieces = [tokens[i + 1:j] for i, j in zip(ends, ends[1:])]
    if len(pieces) != 2:
        raise ParseError(
            f"expected exactly two right-hand sides, found {len(pieces)}", tokens[0].line, 1
        )
    if not all(pieces):  # then there is exactly one ";"
        semi = tokens[semis[0]]
        raise ParseError("empty right-hand side beside ';'", semi.line, semi.column)

    sides = []
    for piece in pieces:
        parser = _Parser(piece, params)
        sides.extend(parser.parse_expression())
        tok = parser.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.column)
    return SystemSpec(parameters=tuple(params.items()), field=RationalField(*sides))


# -- report document ------------------------------------------------------------------


def encode_number(value, tol: float | None = None):
    """Tag a numeric value as exact (rational) or approximate (12 digits)."""
    if isinstance(value, float):
        return {"approx": f"{value:.12g}", "tol": f"{(tol if tol is not None else 1e-12):.3g}"}
    if isinstance(value, complex):
        return {
            "re": encode_number(value.real, tol),
            "im": encode_number(value.imag, tol),
        }
    return {"exact": format_rational(Fraction(value))}


def _encode_matrix(m):
    return [[encode_number(v) for v in row] for row in m]


def encode_stationary_point(p) -> dict:
    doc = {
        "location": [encode_number(v, p.error_bound) for v in p.location],
        "exact": p.exact,
        "jacobian": _encode_matrix(p.jacobian),
        "eigenvalues": [encode_number(complex(ev)) for ev in p.eigenvalues],
        "kind": str(p.kind),
    }
    if p.label:
        doc["label"] = p.label
    return doc


def encode_infinite_point(p) -> dict:
    return {
        "chart": p.chart,
        "direction": p.direction_label,
        "u": encode_number(p.u),
        "kind": str(p.kind),
        "jacobian": _encode_matrix(p.jacobian),
        "antipode_chart": p.antipode_chart,
    }


def build_report(
    system_text: str,
    parameters=(),
    equilibria=None,
    circle=None,
    infinity=None,
    region=None,
    sectors=None,
    diagnostics=(),
) -> dict:
    """Assemble the canonical report document from computed pieces.

    `infinity` is a list of points at infinity or an InfinityContinuum.
    """
    doc: dict = {
        "system": {
            "text": system_text,
            "parameters": {name: encode_number(v) for name, v in parameters},
        },
        "diagnostics": list(diagnostics),
    }
    if equilibria is not None:
        doc["equilibria"] = [encode_stationary_point(p) for p in equilibria]
    if circle is not None:
        doc["stationary_circle"] = {
            "center": [encode_number(v) for v in circle.center],
            "radius": encode_number(circle.radius),
        }
    if isinstance(infinity, InfinityContinuum):
        doc["infinity"] = {
            "continuum": True,
            "one_outgoing_trajectory_each": infinity.one_outgoing_trajectory_each(),
            "transverse_samples": [
                {"u": encode_number(u), "eigenvalue": encode_number(lam)}
                for u, lam in infinity.sample_transverse
            ],
        }
    elif infinity is not None:
        doc["infinity"] = {"points": [encode_infinite_point(p) for p in infinity]}
    if region is not None:
        doc["region"] = region
    if sectors is not None:
        doc["origin_sectors"] = {
            "weights": list(sectors.weights),
            "index": sectors.index,
            "homoclinic": sectors.homoclinic,
            "sectors": [
                {
                    "kind": s.kind,
                    "from": s.start,
                    "to": s.end,
                    "halfplane": s.halfplane,
                    **({"stability": s.stability} if s.stability else {}),
                }
                for s in sectors.sectors
            ],
        }
    return doc


def format_report(report: dict, fmt: str = "json") -> str:
    """Render a report document; identical input gives identical bytes."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    if fmt != "human":
        raise ParseError(f"unknown report format {fmt!r}")
    lines = []

    def num(doc):
        if "exact" in doc:
            return doc["exact"]
        return f"~{doc['approx']}"

    lines.append("system:")
    for line in report["system"]["text"].strip().splitlines():
        lines.append(f"  {line}")
    if report["system"].get("parameters"):
        pairs = ", ".join(f"{k} = {num(v)}" for k, v in sorted(report["system"]["parameters"].items()))
        lines.append(f"  with {pairs}")
    if "region" in report:
        lines.append(f"region: {report['region']}")
    if "equilibria" in report:
        lines.append("finite stationary points:")
        for p in report["equilibria"]:
            loc = ", ".join(num(v) for v in p["location"])
            label = p.get("label", "?")
            lines.append(f"  {label}: ({loc})  {p['kind']}")
    if "stationary_circle" in report:
        c = report["stationary_circle"]
        lines.append(
            "stationary circle: center ("
            + ", ".join(num(v) for v in c["center"])
            + f"), radius {num(c['radius'])}"
        )
    if "origin_sectors" in report:
        s = report["origin_sectors"]
        kinds = ", ".join(x["kind"] for x in s["sectors"])
        lines.append(
            f"origin sectors (weights {tuple(s['weights'])}, index {s['index']}, "
            f"homoclinic {s['homoclinic']}): {kinds}"
        )
    if "infinity" in report:
        inf = report["infinity"]
        if inf.get("continuum"):
            each = "" if inf["one_outgoing_trajectory_each"] else "not "
            lines.append(f"infinity: every point stationary ({each}one outgoing trajectory each)")
        else:
            lines.append("infinity:")
            for p in inf["points"]:
                lines.append(f"  {p['direction']} ({p['chart']}): {p['kind']}")
    for d in report.get("diagnostics", ()):
        lines.append(f"note: {d}")
    return "\n".join(lines) + "\n"
