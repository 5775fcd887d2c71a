import math

import pytest

from ftcsim import exprlang
from ftcsim.exprlang import (ArityMismatch, DomainError, ExprSyntaxError,
                             UnknownIdentifier, VariableOutOfRange,
                             compile_expr, evaluate, format_expr, parse)

# 30 precedence/associativity cases; expected values were produced by an
# independent evaluator (a different parser with the same operator rules)
# and frozen here.
PRECEDENCE = [
    ("2*-3+1", -5.0), ("1+2*3", 7.0), ("(1+2)*3", 9.0), ("2-3-4", -5.0),
    ("2-(3-4)", 3.0), ("12/4/3", 1.0), ("12/(4/3)", 9.0), ("2^3^2", 512.0),
    ("(2^3)^2", 64.0), ("-2^2", -4.0), ("(-2)^2", 4.0), ("2^-2", 0.25),
    ("-2*-3", 6.0), ("2*3^2", 18.0), ("(2*3)^2", 36.0), ("1--2", 3.0),
    ("1--2*3", 7.0), ("6/2*3", 9.0), ("6/-2", -3.0), ("2+3*4^2", 50.0),
    ("-(2+3)", -5.0), ("2^2*3", 12.0), ("5-2^2", 1.0), ("-3^2+1", -8.0),
    ("2*(3+4)", 14.0), ("1+2-3+4", 4.0), ("10/5/2*4", 4.0),
    ("3*-2^2", -12.0), ("-(2^2)^2", -16.0), ("2--3^2", 11.0),
]

# 50 valid expressions with independently computed values; n = 3.
CORPUS = [
    ("0.5*sin(t)+4", 0.0, (0.0, 0.0, 0.0), 4.0),
    ("0.5*sin(t)+4", 1.25, (0.0, 0.0, 0.0), 4.474492309677793),
    ("0.05*sin(x3)", 0.0, (0.0, 0.0, 1.5707963267948966), 0.05),
    ("step(t-15)", 14.999, (0, 0, 0), 0.0),
    ("step(t-15)", 15.0, (0, 0, 0), 1.0),
    ("step(0)", 3.0, (0, 0, 0), 1.0),
    ("sign(-2.5)", 0.0, (0, 0, 0), -1.0),
    ("sign(0)", 0.0, (0, 0, 0), 0.0),
    ("sign(x2)", 0.0, (1.0, 7.25, 0.0), 1.0),
    ("abs(-3.5)+abs(2)", 0.0, (0, 0, 0), 5.5),
    ("pi", 0.0, (0, 0, 0), 3.141592653589793),
    ("2*pi", 0.0, (0, 0, 0), 6.283185307179586),
    ("cos(pi)", 0.0, (0, 0, 0), -1.0),
    ("sin(pi/2)", 0.0, (0, 0, 0), 1.0),
    ("tan(0.5)", 0.0, (0, 0, 0), 0.5463024898437905),
    ("exp(1)", 0.0, (0, 0, 0), 2.718281828459045),
    ("exp(-t)", 2.0, (0, 0, 0), 0.1353352832366127),
    ("log(exp(3))", 0.0, (0, 0, 0), 3.0),
    ("log(10)", 0.0, (0, 0, 0), 2.302585092994046),
    ("sqrt(2)", 0.0, (0, 0, 0), 1.4142135623730951),
    ("sqrt(x1^2+x2^2)", 0.0, (3.0, 4.0, 0.0), 5.0),
    ("min(3, t)", 5.0, (0, 0, 0), 3.0),
    ("min(3, t)", 2.0, (0, 0, 0), 2.0),
    ("max(x1, x2)", 0.0, (-2.0, -7.0, 0.0), -2.0),
    ("max(sin(t), cos(t))", 0.75, (0, 0, 0), 0.7316888688738209),
    ("x1+x2*x3", 0.0, (1.5, -2.0, 4.0), -6.5),
    ("(x1+x2)*x3", 0.0, (1.5, -2.0, 4.0), -2.0),
    ("x1/x2/x3", 0.0, (12.0, 4.0, 1.5), 2.0),
    ("2^10", 0.0, (0, 0, 0), 1024.0),
    ("2^-3", 0.0, (0, 0, 0), 0.125),
    ("(-2)^3", 0.0, (0, 0, 0), -8.0),
    ("(-8)^(1/1)", 0.0, (0, 0, 0), -8.0),
    ("9^0.5", 0.0, (0, 0, 0), 3.0),
    ("x3^2", 0.0, (0.0, 0.0, -1.5), 2.25),
    ("-x3^2", 0.0, (0.0, 0.0, -1.5), -2.25),
    ("1e3+2.5e-2", 0.0, (0, 0, 0), 1000.025),
    (".5*4", 0.0, (0, 0, 0), 2.0),
    ("7.", 0.0, (0, 0, 0), 7.0),
    ("0.1+0.2", 0.0, (0, 0, 0), 0.30000000000000004),
    ("1/3", 0.0, (0, 0, 0), 0.3333333333333333),
    ("sin(cos(tan(0.3)))", 0.0, (0, 0, 0), 0.8148879447955204),
    ("exp(log(7.5))", 0.0, (0, 0, 0), 7.499999999999999),
    ("step(sin(t))", 4.0, (0, 0, 0), 0.0),
    ("0.5*sin(2*t)", 25.0, (0, 0, 0), -0.13118742685196438),
    ("min(max(x1, x2), x3)", 0.0, (2.0, 5.0, 3.5), 3.5),
    ("t^2 - 3*t + 1", 2.5, (0, 0, 0), -0.25),
    ("-(x1 - x2)/(x3 + 1)", 0.0, (5.0, 1.0, 3.0), -1.0),
    ("sqrt(abs(x2))", 0.0, (0.0, -16.0, 0.0), 4.0),
    ("sign(t - 3)*step(t - 1)", 2.0, (0, 0, 0), -1.0),
    ("1 + 2*3 - 4/8 + 2^3", 0.0, (0, 0, 0), 14.5),
]

# input evaluated at t = 2 -> the DomainError message; operands are
# evaluated left to right, so the left one's violation is reported first
DOMAIN_ERRORS = {
    "log(-1)": "log of non-positive value -1.0",
    "log(0)": "log of non-positive value 0.0",
    "sqrt(-4)": "sqrt of negative value -4.0",
    "1/(t-2)": "division by zero",
    "(-2)^0.5": "negative base -2.0 with fractional exponent",
    "0^-1": "zero base with negative exponent",
    "exp(1000)": "exp overflow at 1000.0",
    "2^10000": "pow overflow at 2.0^10000.0",
    "1e300*1e300": "result is not finite",
    "1e308+1e308": "result is not finite",
    "-1e308-1e308": "result is not finite",
    "log(-1)/sqrt(-1)": "log of non-positive value -1.0",
    "log(-1)/0": "log of non-positive value -1.0",
    "cos(1e999)": "cos of non-finite value inf",
    "tan(-1e999)": "tan of non-finite value -inf",
}

# malformed input -> (byte offset of the offending token, error class)
MALFORMED = [
    ("2 +", 3, ExprSyntaxError),
    ("(1+2", 4, ExprSyntaxError),
    ("1 + * 2", 4, ExprSyntaxError),
    ("foo(1)", 0, UnknownIdentifier),
    ("sin()", 4, ExprSyntaxError),
    ("sin(1,2)", 0, ArityMismatch),
    ("min(1)", 0, ArityMismatch),
    ("x0", 0, VariableOutOfRange),
    ("x4", 0, VariableOutOfRange),
    ("bogus", 0, UnknownIdentifier),
    ("1 @ 2", 2, ExprSyntaxError),
    ("2 ** 3", 3, ExprSyntaxError),
    ("1,2", 1, ExprSyntaxError),
    ("sin 2", 0, UnknownIdentifier),
    ("3 + @", 4, ExprSyntaxError),
]


class TestParseExamples:
    def test_stock_input_gain(self):
        e = parse("0.5*sin(t)+4", 3)
        assert evaluate(e, 0.0, [0, 0, 0]) == 4.0

    def test_variable_range_boundary(self):
        parse("0.05*sin(x3)", 3)
        with pytest.raises(VariableOutOfRange):
            parse("0.05*sin(x3)", 2)

    def test_unary_minus_inside_product(self):
        e = parse("2*-3+1", 0)
        assert evaluate(e, 0.0, []) == -5.0

    @pytest.mark.parametrize("src,expected", PRECEDENCE)
    def test_precedence_table(self, src, expected):
        got = evaluate(parse(src, 3), 2.0, (3.0, -4.0, 0.5))
        assert got == expected


class TestEval:
    @pytest.mark.parametrize("src,t,x,expected", CORPUS)
    def test_corpus_against_oracle(self, src, t, x, expected):
        got = evaluate(parse(src, 3), t, x)
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("src,t,x,expected", CORPUS)
    def test_compiled_matches_tree_walker(self, src, t, x, expected):
        # the generated function, called on a list, against the frozen
        # corpus values
        got = compile_expr(parse(src, 3))(t, list(x))
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_closure_built_once_per_expression(self):
        e = parse("0.5*sin(t)+4", 3)
        assert compile_expr(e) is compile_expr(e)

    def test_step_right_continuous(self):
        e = parse("step(t-15)", 0)
        assert evaluate(e, 14.999, []) == 0.0
        assert evaluate(e, 15.0, []) == 1.0

    @pytest.mark.parametrize("src", list(DOMAIN_ERRORS))
    def test_domain_errors_reported(self, src):
        e = parse(src, 0)
        for fn in (lambda: evaluate(e, 2.0, []),
                   lambda: compile_expr(e)(2.0, [])):
            with pytest.raises(DomainError) as exc_info:
                fn()
            assert str(exc_info.value) == DOMAIN_ERRORS[src]

    @pytest.mark.parametrize("name", ["sin", "cos", "tan"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_trig_of_non_finite_state_reported(self, name, value):
        # math.sin(inf) raises a bare ValueError and math.sin(nan) returns
        # nan; both must surface as the DomainError the engine reports
        e = parse(f"0.5*{name}(x2) + 1", 2)
        for fn in (lambda: evaluate(e, 0.0, [0.0, value]),
                   lambda: compile_expr(e)(0.0, [0.0, value])):
            with pytest.raises(DomainError) as exc_info:
                fn()
            assert str(exc_info.value) == f"{name} of non-finite value {value!r}"

    def test_dimension_mismatch_rejected(self):
        e = parse("x1", 1)
        with pytest.raises(ValueError):
            evaluate(e, 0.0, [1.0, 2.0])

    def test_totality_on_stock_expressions(self):
        # the shipped scenario expressions stay in-domain over the whole
        # operating box
        exprs = [parse("0.05*sin(x3)", 3), parse("0.5*sin(t)+4", 3)]
        pts = [(-10.0, -10.0, -10.0), (10.0, 10.0, 10.0), (0.0, 0.0, 0.0),
               (-10.0, 10.0, -5.0), (3.3, -7.7, 9.9)]
        for e in exprs:
            for k in range(41):
                t = k * 1.0
                for x in pts:
                    evaluate(e, t, x)


class TestErrors:
    @pytest.mark.parametrize("src,offset,cls", MALFORMED)
    def test_malformed_corpus_offsets(self, src, offset, cls):
        with pytest.raises(cls) as exc_info:
            parse(src, 3)
        assert exc_info.value.offset == offset

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ", 0)

    def test_depth_limit(self):
        parse("(" * 60 + "1" + ")" * 60, 0)
        with pytest.raises(ExprSyntaxError):
            parse("(" * 70 + "1" + ")" * 70, 0)
        # n terms make a tree n deep, and a 1500-term chain is deeper than
        # the interpreter stack
        parse("+".join(["1"] * 64), 0)
        for terms in (65, 1500):
            with pytest.raises(ExprSyntaxError, match="deeper than 64"):
                parse("+".join(["1"] * terms), 0)


class TestRoundTrip:
    @pytest.mark.parametrize("src", [c[0] for c in CORPUS])
    def test_corpus_reparses_identically(self, src):
        e = parse(src, 3)
        printed = format_expr(e)
        assert parse(printed, 3).node == e.node

    @pytest.mark.parametrize("src,_v", PRECEDENCE)
    def test_precedence_cases_reparse_identically(self, src, _v):
        e = parse(src, 3)
        assert parse(format_expr(e), 3).node == e.node
