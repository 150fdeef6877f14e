import json
import random
from fractions import Fraction

import pytest

from phaseatlas.desing import cdk_rational_field
from phaseatlas.errors import (
    ParseError,
    UnknownSymbolError,
    UnsupportedConstructError,
    ZeroDenominatorError,
)
from phaseatlas.polycore import BiPoly, X, Y, format_poly
from phaseatlas.sysio import (
    SystemSpec,
    build_report,
    encode_number,
    format_report,
    parse_system,
)

F = Fraction

CDK_TEXT = """\
param a = 1/2
param b = 1/2
x*y/(x^2+y^2) - a*x ; y^2/(x^2+y^2) - b*y + b - 1
"""


def test_parse_single_variable():
    f = parse_system("x ; y").field
    assert f.p == X and f.q == BiPoly.const(1)
    assert f.r == Y and f.s == BiPoly.const(1)


def test_parse_cdk_matches_builtin_constructor():
    spec = parse_system(CDK_TEXT)
    assert spec.field == cdk_rational_field(F(1, 2), F(1, 2))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        parse_system("1/0 ; y")
    with pytest.raises(ZeroDenominatorError):
        parse_system("x/(x - x) ; y")
    with pytest.raises(ZeroDenominatorError):
        parse_system("1/(1/0) ; y")


def test_unsupported_construct_names_token():
    with pytest.raises(UnsupportedConstructError) as err:
        parse_system("ln(x) ; y")
    assert "ln" in str(err.value)
    with pytest.raises(UnsupportedConstructError) as err:
        parse_system("x ; sin(y)")
    assert "sin" in str(err.value)


def test_unknown_symbol_reported_with_position():
    with pytest.raises(UnknownSymbolError) as err:
        parse_system("c*x ; y")
    assert "c" in str(err.value)
    assert err.value.line == 1


def test_syntax_error_has_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_system("x + ; y")
    assert err.value.line is not None


def test_non_decimal_digit_is_a_parse_error():
    # "²" is a digit to str.isdigit, but not a decimal one
    with pytest.raises(ParseError) as err:
        parse_system("(x + 1)² ; y")
    assert (err.value.line, err.value.column) == (1, 8)


def test_exponent_must_be_nonnegative_integer():
    with pytest.raises(UnsupportedConstructError):
        parse_system("x^y ; y")
    with pytest.raises(UnsupportedConstructError):
        parse_system("x^(1/2) ; y")
    with pytest.raises(UnsupportedConstructError):
        parse_system("x^(y - y) ; y")
    assert parse_system("x^(2) ; y").field.p == X**2


@pytest.mark.parametrize(
    "text, column",
    [("x^(9^9^9) ; y", 5), ("(x+y+1)^100 ; y", 8)],
    ids=["folded-exponent", "degree-100"],
)
def test_oversized_power_is_rejected_at_its_caret(text, column):
    with pytest.raises(UnsupportedConstructError) as err:
        parse_system(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_power_caps_are_degree_24_and_1024_bits():
    assert parse_system("(x^2+y^2)^2 ; y").field.p == (X**2 + Y**2) ** 2
    assert parse_system("2^64*x ; y").field.p == 2**64 * X
    assert parse_system("x^24 ; 2^1023").field.p == X**24
    for text in ("x^25 ; y", "x ; 2^1024", "x ; (1/2)^1024"):
        with pytest.raises(UnsupportedConstructError):
            parse_system(text)


@pytest.mark.parametrize(
    "text, position",
    [
        ("(x+y+1)^24*(x+y+1)^24*(x+y+1)^24*(x+y+1)^24 ; y", (1, 11)),
        ("(x+y+1)^24*(x+y+1)^24 ; y", (1, 11)),
        # the cross-multiplications of numerators and denominators
        ("x^20 + 1/y^5 ; y", (1, 6)),
        ("x ; 1/y^5 - x^20", (1, 11)),
        ("x^20/(1/y^5) ; y", (1, 5)),
        ("param a = 1\nx ;\n(x+y)^20 * (x+y)^5\n", (3, 10)),
    ],
    ids=["four-factors", "two-factors", "plus", "minus", "divide", "third-line"],
)
def test_product_above_degree_24_is_rejected_at_its_operator(text, position):
    with pytest.raises(UnsupportedConstructError, match="product of total degree above 24") as err:
        parse_system(text)
    assert (err.value.line, err.value.column) == position


def test_products_up_to_degree_24_parse():
    assert parse_system("(x+y)^12*(x-y)^12 ; y").field.p == (X**2 - Y**2) ** 12
    assert parse_system("x^20/y^5 ; 1/y^4 - x^20").field.s == Y**4
    assert parse_system("x^19 + 1/y^5 ; y").field.q == Y**5


def test_decimal_literals_are_exact():
    assert parse_system("0.25*x ; y").field.p == F(1, 4) * X


def test_newline_separated_sides():
    assert parse_system("x\n-y").field.r == -Y


@pytest.mark.parametrize(
    "text, message, position",
    [
        # the first three used to parse as "x ; y"
        ("x ;; y", "found 3", (1, 1)),
        ("x ; y ;", "found 3", (1, 1)),
        ("; x ; y", "found 3", (1, 1)),
        ("x ;\n; y", "found 3", (1, 1)),
        ("x ; y ; z", "found 3", (1, 1)),
        ("x ;", "empty right-hand side", (1, 3)),
        ("\n; x", "empty right-hand side", (2, 1)),
    ],
)
def test_sides_are_exactly_two_nonempty_expressions(text, message, position):
    with pytest.raises(ParseError, match=message) as err:
        parse_system(text)
    assert (err.value.line, err.value.column) == position


@pytest.mark.parametrize(
    "text, position",
    [("x ; y +", (1, 7)), ("x\n+ 1 ; y +", (2, 9))],
    ids=["same-line", "next-line"],
)
def test_second_side_error_reports_its_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.line, err.value.column) == position


def test_precedence_and_associativity():
    f = parse_system("-x^2 ; 2 - 3 - x").field
    assert f.p == -(X**2)  # unary minus binds looser than ^
    assert f.r == -1 - X  # left-associative subtraction


@pytest.mark.parametrize(
    "text",
    ["(" * 1200 + "x" + ")" * 1200 + " ; y", "-" * 1200 + "x ; y"],
    ids=["parentheses", "unary-minus"],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_system(text)


def test_nesting_limit_is_fifty_levels():
    # each level adds the most parser frames one level can: (, + and *
    assert parse_system("(1 + 2*" * 50 + "x" + ")" * 50 + " ; y").field.p.total_degree() == 1
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_system("(1 + 2*" * 51 + "x" + ")" * 51 + " ; y")


def test_long_flat_sum_parses():
    assert parse_system(" + ".join(["x"] * 3000) + " ; y").field.p == 3000 * X


@pytest.mark.parametrize(
    "text, line",
    [
        ("param a = 1/2\nparam a = 2\na*x ; y\n", 2),
        ("param b = 1\nparam x = 2\nx ; y\n", 2),
        # only the whole word "param" starts a binding
        ("parama = 2\na*x ; y\n", 1),
    ],
    ids=["duplicate", "variable-name", "param-prefix"],
)
def test_bad_param_line_is_rejected_with_its_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert err.value.line == line


def _random_spec(rng):
    def rand_poly(allow_const=True):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = F(
                rng.randint(-5, 5) or 1, rng.randint(1, 4)
            )
        p = BiPoly(terms)
        return p if not p.is_zero() or allow_const else p + 1

    pieces = []
    for _ in range(2):
        num = rand_poly()
        use_ratio = rng.random() < 0.5
        if use_ratio:
            den = rand_poly(allow_const=False) + 1
            pieces.append(f"({format_poly(num)})/({format_poly(den)})")
        else:
            pieces.append(format_poly(num))
    return " ; ".join(pieces)


def test_roundtrip_random_specs():
    rng = random.Random(77)
    done = 0
    while done < 100:
        text = _random_spec(rng)
        try:
            spec = parse_system(text)
        except ZeroDenominatorError:
            continue
        again = parse_system(spec.canonical_text())
        assert again == spec, text
        done += 1


def test_roundtrip_with_parameters():
    spec = parse_system(CDK_TEXT)
    again = parse_system(spec.canonical_text())
    assert again == spec


# -- report formatting ----------------------------------------------------------------


def test_empty_report_is_stable_minimal_document():
    doc = build_report("x ; y")
    out1 = format_report(doc)
    out2 = format_report(build_report("x ; y"))
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["system"]["text"] == "x ; y"
    assert parsed["diagnostics"] == []


def test_report_contains_four_equilibria_for_straddling_parameters():
    from phaseatlas.equilibria import cdk_stationary_points

    pts = cdk_stationary_points(F(5, 2), F(1, 2))
    doc = build_report("cdk", parameters=(("a", F(5, 2)), ("b", F(1, 2))), equilibria=pts)
    parsed = json.loads(format_report(doc))
    assert len(parsed["equilibria"]) == 4
    labels = {p["label"] for p in parsed["equilibria"]}
    assert labels == {"s1", "s2", "s3", "s4"}


def test_number_encoding_markers():
    assert encode_number(F(3, 4)) == {"exact": "3/4"}
    enc = encode_number(0.1936491673103708, tol=1e-12)
    assert enc["approx"] == "0.19364916731"
    assert "tol" in enc


def test_format_report_determinism_and_human_mode():
    from phaseatlas.equilibria import cdk_stationary_points

    pts = cdk_stationary_points(F(5, 2), F(1, 2))
    doc = build_report("cdk", parameters=(("a", F(5, 2)), ("b", F(1, 2))), equilibria=pts)
    assert format_report(doc) == format_report(doc)
    human = format_report(doc, "human")
    assert "s3" in human and "saddle" in human


def test_system_echo_survives_report_roundtrip():
    spec = parse_system(CDK_TEXT)
    doc = build_report(spec.canonical_text(), parameters=spec.parameters)
    recovered = json.loads(format_report(doc))["system"]["text"]
    assert parse_system(recovered) == spec
