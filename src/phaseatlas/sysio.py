"""Textual system specifications and analysis reports.

System files hold two rational right-hand sides separated by ";" or a
newline, optionally preceded by parameter bindings:

    param a = 1/2
    param b = 1/2
    x*y/(x^2 + y^2) - a*x ; y^2/(x^2 + y^2) - b*y + b - 1

Grammar: +, -, *, /, ^ with nonnegative integer exponents, parentheses,
the variables x and y, declared parameter names, and integer or decimal
literals (decimals are rationalized exactly from their digits).  Each side
must normalize to a ratio of polynomials; the parser reduces it to lowest
terms.  Anything else (function calls, undeclared names, zero
denominators) is rejected with a positioned error.

Reports are nested dictionaries with every number tagged "exact" (a
rational string) or "approx" (a 12-significant-digit float string plus a
tolerance), rendered either as canonical JSON (bit-stable across runs) or
as human-readable text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .desing import RationalField
from .errors import ParseError, UnknownSymbolError, UnsupportedConstructError
from .polycore import BiPoly, format_poly, format_rational, reduce_fraction

# -- tokenizer ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op"
    value: object
    line: int
    column: int


_OP_CHARS = set("+-*/^()")


def _tokenize(text: str, line_offset: int = 1):
    tokens = []
    line, col = line_offset, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _OP_CHARS:
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            literal = text[i:j]
            tokens.append(_Token("num", Fraction(literal), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


# -- recursive-descent / precedence-climbing parser ------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


class _Parser:
    def __init__(self, tokens, known_symbols):
        self.tokens = tokens
        self.pos = 0
        self.known = known_symbols

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(
                "unexpected end of expression",
                last.line if last else 1,
                last.column if last else 1,
            )
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(f"expected {op!r}, found {tok.value!r}", tok.line, tok.column)

    def parse_expression(self, min_prec=1):
        node = self.parse_unary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.value not in ("+", "-", "*", "/"):
                return node
            prec = _BIN_PREC[tok.value]
            if prec < min_prec:
                return node
            self.next()
            rhs = self.parse_expression(prec + 1)
            node = ({"+": "add", "-": "sub", "*": "mul", "/": "div"}[tok.value], node, rhs)

    def parse_unary(self):
        # ^ binds tighter than unary minus: -x^2 reads -(x^2)
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.value in ("+", "-"):
            self.next()
            inner = self.parse_unary()
            return inner if tok.value == "+" else ("neg", inner)
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.value == "^":
            self.next()
            node = ("pow", node, self.parse_exponent(tok))
        return node

    def parse_exponent(self, caret_tok):
        # right-associative; the exponent must evaluate to a nonnegative integer
        node = self.parse_unary()
        value = _constant_value(node)
        if value is None or value.denominator != 1 or value < 0:
            raise UnsupportedConstructError(
                "exponent must be a nonnegative integer literal",
                caret_tok.line,
                caret_tok.column,
            )
        return int(value)

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            return ("num", tok.value)
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.value == "(":
                raise UnsupportedConstructError(
                    f"function application {tok.value!r} is outside the rational grammar",
                    tok.line,
                    tok.column,
                )
            if tok.value not in self.known:
                raise UnknownSymbolError(
                    f"unknown symbol {tok.value!r}; declare parameters with 'param {tok.value} = ...'",
                    tok.line,
                    tok.column,
                )
            return ("sym", tok.value)
        if tok.kind == "op" and tok.value == "(":
            node = self.parse_expression()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.column)


def _constant_value(node):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "neg":
        v = _constant_value(node[1])
        return None if v is None else -v
    if op in ("add", "sub", "mul", "div", "pow"):
        l = _constant_value(node[1])
        if op == "pow":
            return None if l is None else l ** node[2]
        r = _constant_value(node[2])
        if l is None or r is None:
            return None
        if op == "add":
            return l + r
        if op == "sub":
            return l - r
        if op == "mul":
            return l * r
        return None if r == 0 else l / r
    return None


# -- AST to reduced rational function ----------------------------------------------------


def _to_ratfunc(node, bindings):
    op = node[0]
    if op == "num":
        return BiPoly.const(node[1]), BiPoly.const(1)
    if op == "sym":
        name = node[1]
        if name in ("x", "y"):
            return BiPoly.var(name), BiPoly.const(1)
        value = bindings.get(name)
        if value is None:
            raise ParseError(f"parameter {name!r} has no bound value")
        return BiPoly.const(value), BiPoly.const(1)
    if op == "neg":
        n, d = _to_ratfunc(node[1], bindings)
        return -n, d
    if op == "pow":
        n, d = _to_ratfunc(node[1], bindings)
        return n ** node[2], d ** node[2]
    ln, ld = _to_ratfunc(node[1], bindings)
    rn, rd = _to_ratfunc(node[2], bindings)
    if op == "add":
        return ln * rd + rn * ld, ld * rd
    if op == "sub":
        return ln * rd - rn * ld, ld * rd
    if op == "mul":
        return ln * rn, ld * rd
    if op == "div":
        return ln * rd, ld * rn
    raise ParseError(f"malformed expression node {op!r}")


# -- SystemSpec --------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """A parsed planar system: two expression trees plus parameter bindings."""

    rhs_x: tuple
    rhs_y: tuple
    parameters: tuple  # ((name, Fraction | None), ...) in declaration order

    def bindings(self) -> dict:
        return dict(self.parameters)

    def normalized(self):
        """Reduced (p, q), (r, s) pairs with parameters substituted."""
        b = self.bindings()
        return tuple(reduce_fraction(*_to_ratfunc(rhs, b)) for rhs in (self.rhs_x, self.rhs_y))

    def to_rational_field(self) -> RationalField:
        b = self.bindings()
        return RationalField(*_to_ratfunc(self.rhs_x, b), *_to_ratfunc(self.rhs_y, b))

    def canonical_text(self) -> str:
        lines = [f"param {name} = {format_rational(v)}" for name, v in self.parameters if v is not None]
        (px, qx), (py, qy) = self.normalized()

        def side(n, d):
            if d == BiPoly.const(1):
                return format_poly(n)
            return f"({format_poly(n)})/({format_poly(d)})"

        lines.append(f"{side(px, qx)} ; {side(py, qy)}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, SystemSpec):
            return NotImplemented
        return self.parameters == other.parameters and self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.parameters)


def parse_system(text: str) -> SystemSpec:
    """Parse a system file into a validated SystemSpec.

    Division is only admitted where the result stays a ratio of
    polynomials; each side is normalized (and thereby validated) here.
    """
    params: list[tuple[str, Fraction | None]] = []
    body_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#") or not stripped:
            continue
        if stripped.startswith("param"):
            rest = stripped[len("param"):].strip()
            if "=" not in rest:
                raise ParseError("param line must read 'param <name> = <rational>'", lineno, 1)
            name, _, value = rest.partition("=")
            name = name.strip()
            value = value.strip()
            if not name.isidentifier():
                raise ParseError(f"invalid parameter name {name!r}", lineno, 1)
            try:
                params.append((name, Fraction(value)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"invalid rational literal {value!r}: {exc}", lineno, 1)
            continue
        body_lines.append((lineno, raw))

    if not body_lines:
        raise ParseError("no right-hand sides found", 1, 1)
    body = "\n".join(raw for _, raw in body_lines)
    first_line = body_lines[0][0]
    if ";" in body:
        pieces = body.split(";")
    else:
        pieces = [raw for _, raw in body_lines]
    pieces = [p for p in pieces if p.strip()]
    if len(pieces) != 2:
        raise ParseError(
            f"expected exactly two right-hand sides, found {len(pieces)}", first_line, 1
        )

    known = {"x", "y"} | {name for name, _ in params}
    trees = []
    for piece in pieces:
        tokens = _tokenize(piece, line_offset=first_line)
        parser = _Parser(tokens, known)
        tree = parser.parse_expression()
        if parser.peek() is not None:
            tok = parser.peek()
            raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.column)
        trees.append(tree)

    spec = SystemSpec(rhs_x=trees[0], rhs_y=trees[1], parameters=tuple(params))
    spec.normalized()  # validates denominators and bindings eagerly
    return spec


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


def _encode_matrix(m, tol=None):
    return [[encode_number(v, tol) for v in row] for row in m]


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
    infinity_continuum=None,
    region=None,
    sectors=None,
    diagnostics=(),
) -> dict:
    """Assemble the canonical report document from computed pieces."""
    doc: dict = {
        "system": {
            "text": system_text,
            "parameters": {name: encode_number(v) for name, v in parameters if v is not None},
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
    if infinity is not None:
        doc["infinity"] = {"points": [encode_infinite_point(p) for p in infinity]}
    if infinity_continuum is not None:
        doc["infinity"] = {
            "continuum": True,
            "one_outgoing_trajectory_each": infinity_continuum.one_outgoing_trajectory_each(),
            "transverse_samples": [
                {"u": encode_number(u), "eigenvalue": encode_number(lam)}
                for u, lam in infinity_continuum.sample_transverse
            ],
        }
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
        if "approx" in doc:
            return f"~{doc['approx']}"
        return f"{num(doc['re'])}{'+' if not num(doc['im']).startswith('-') else ''}{num(doc['im'])}i"

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
            lines.append("infinity: every point stationary (one outgoing trajectory each)")
        else:
            lines.append("infinity:")
            for p in inf["points"]:
                lines.append(f"  {p['direction']} ({p['chart']}): {p['kind']}")
    for d in report.get("diagnostics", ()):
        lines.append(f"note: {d}")
    return "\n".join(lines) + "\n"
