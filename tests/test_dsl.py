import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv.catalog import find_entry
from liequiv.dsl import (PAREN_DEPTH, POWER_BITS, DslSyntaxError,
                         UnknownCoordinateError, parse_expr, parse_generator,
                         print_generator)
from liequiv.expr import ONE, ZERO, Expr, is_zero, signed_sum, unknown
from liequiv.generators import AnsatzError, base_coefficients, make_generator
from liequiv.jets import build_registry

REGISTRIES = {dim: build_registry(dim) for dim in (1, 2, 3)}
CONSTANTS = (unknown("a"), unknown("b2"))


def test_parse_boost(spaces):
    reg = spaces[2].reg
    got = parse_generator(reg, "t*d/dx1 + d/du1")
    assert got == find_entry(spaces[2].catalog, "Y1").spec


def test_parse_scaling_dim1(spaces):
    reg = spaces[1].reg
    src = "x1*d/dx1 + u1*d/du1 + 2*p*d/dp + 2*Pi11*d/dPi11 + 2*G*d/dG"
    assert parse_generator(reg, src) == find_entry(spaces[1].catalog, "Z1").spec


def test_unknown_coordinate_is_named(spaces):
    reg = spaces[1].reg
    with pytest.raises(UnknownCoordinateError) as err:
        parse_generator(reg, "q*d/dp")
    assert err.value.coordinate == "q"
    with pytest.raises(UnknownCoordinateError):
        parse_generator(reg, "d/dq")
    with pytest.raises(UnknownCoordinateError) as err:
        parse_generator(reg, "d/dx2")
    assert err.value.coordinate == "x2"
    with pytest.raises(UnknownCoordinateError) as err:
        parse_generator(spaces[3].reg, "d/dx4")
    assert err.value.coordinate == "x4"


def test_syntax_errors_carry_position(spaces):
    reg = spaces[1].reg
    with pytest.raises(DslSyntaxError) as err:
        parse_generator(reg, "2*p d/dp")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(DslSyntaxError):
        parse_generator(reg, "")
    with pytest.raises(DslSyntaxError):
        parse_generator(reg, "d/dp + ")
    with pytest.raises(DslSyntaxError):
        parse_generator(reg, "p**(-1)*d/dp")
    with pytest.raises(DslSyntaxError):
        parse_expr(reg, "p**1/2")
    with pytest.raises(DslSyntaxError) as err:
        parse_generator(reg, "d/dt +\n  2*p d/dp")
    assert err.value.line == 2 and err.value.column == 7
    with pytest.raises(DslSyntaxError) as err:
        parse_generator(reg, "d/dt +\n (t*(p + 1)*d/dp")
    assert (err.value.line, err.value.column) == (2, 13)
    assert str(err.value) == "line 2, column 13: expected ')', found 'd/dp'"
    with pytest.raises(DslSyntaxError) as err:
        parse_expr(reg, "(t + 1")
    assert str(err.value) == "line 1, column 7: expected ')', found 'end of input'"
    with pytest.raises(UnknownCoordinateError) as err:
        parse_generator(reg, "d/dt\n+ q*d/dp")
    assert str(err.value).startswith("line 2, column 3: ")
    # literals too long for int() are reported where they stand
    long = "1" * 5000
    for src, column in ((f"x1*d/dt + {long}*d/dt", 11), (f"1/{long}*d/dt", 1),
                        (f"p**{long}*d/dp", 4)):
        with pytest.raises(DslSyntaxError) as err:
            parse_generator(reg, src)
        assert (err.value.line, err.value.column) == (1, column)
        assert "rational literal of " in str(err.value)


def test_prolonged_directions_are_rejected(spaces):
    reg = spaces[1].reg
    with pytest.raises(DslSyntaxError) as err:
        parse_generator(reg, "d/du1_x1")
    assert "prolonged" in str(err.value)
    with pytest.raises(DslSyntaxError):
        parse_generator(reg, "d/dPi11_d_u1x1")


def test_ansatz_violation_through_dsl(spaces):
    reg = spaces[1].reg
    with pytest.raises(AnsatzError) as err:
        parse_generator(reg, "Pi11*d/dt")
    assert "Pi11" in str(err.value)


def test_symmetric_index_resolution(spaces):
    reg = spaces[2].reg
    a = parse_generator(reg, "d/dPi21")
    b = parse_generator(reg, "d/dPi12")
    assert a == b
    assert parse_expr(reg, "Pi21") == Expr.of(reg.pi[(1, 2)])


def test_zero_generator_round_trip(spaces):
    reg = spaces[1].reg
    g = make_generator(reg)
    assert print_generator(reg, g) == "0"
    assert parse_generator(reg, "0") == g


@pytest.mark.parametrize("src, same_as", [("0*d/dt", "0"), ("0*p*d/dp + d/dt", "d/dt")])
def test_zero_is_a_factor_unless_it_is_the_whole_input(spaces, src, same_as):
    reg = spaces[1].reg
    assert parse_generator(reg, src) == parse_generator(reg, same_as)


@pytest.mark.parametrize("parse, src, column", [
    (parse_generator, "x1*d/dt + 1/0*d/dp", 11),
    (parse_expr, "1/0", 1),
])
def test_zero_denominator_is_a_syntax_error(spaces, parse, src, column):
    with pytest.raises(DslSyntaxError) as err:
        parse(spaces[1].reg, src)
    assert (err.value.line, err.value.column) == (1, column)
    assert "1/0" in str(err.value)


@pytest.mark.parametrize("src, column", [
    ("2**99999999999*d/dt", 4),
    ("x1*d/dt + (2*p)**99999999999*d/dp", 18),
    ("(1/3)**99999999*d/dt", 8),
    ("(-7)**99999999*d/dt", 7),
    ("(2**2000)**1000*d/dt", 12),
    (f"2**{POWER_BITS // 2 + 1}*d/dt", 4),
])
def test_constant_powers_past_the_bit_bound_are_syntax_errors(spaces, src, column):
    """A one-term base whose coefficient c could pass POWER_BITS bits in
    c**n, by n times the bits of c's numerator and denominator other than
    1, is refused at the exponent before the power is built."""
    with pytest.raises(DslSyntaxError) as err:
        parse_generator(spaces[1].reg, src)
    assert (err.value.line, err.value.column) == (1, column)
    assert f"bound of {POWER_BITS} bits" in str(err.value)


@pytest.mark.parametrize("src, column", [
    ("(p + 1)**99999999*d/dp", 10),
    ("(p + 1)**1024*d/dp", 10),
    ("(p + 2**999)**32*d/dp", 15),
    ("((p + 1)**30)**100*d/dp", 16),
    ("(t + x1 + p)**99999999999*d/dt", 15),
])
def test_powers_of_sums_past_the_bound_are_syntax_errors(spaces, src, column):
    """A power of a sum of k terms is refused at the exponent when its
    comb(n + k - 1, k - 1) terms times n times the bits of k - 1 and of the
    largest coefficient could pass POWER_BITS."""
    with pytest.raises(DslSyntaxError) as err:
        parse_generator(spaces[1].reg, src)
    assert (err.value.line, err.value.column) == (1, column)
    assert "terms passes the bound of" in str(err.value)


def test_powers_within_the_bit_bound_are_built(spaces):
    """At the bound a power is built, of one term or of a sum; a coefficient
    of 1 and a zero base are not bounded."""
    reg = spaces[1].reg
    at_bound = parse_expr(reg, f"2**{POWER_BITS // 2}")
    assert at_bound == Expr.const(2 ** (POWER_BITS // 2))
    assert parse_expr(reg, "2**20000") == Expr.const(2 ** 20000)
    assert parse_expr(reg, "(-1/1)**99999999999") == Expr.const(-1)
    assert parse_expr(reg, "0**99999999999") == ZERO
    p = Expr.of(reg.p)
    assert parse_expr(reg, "p**99999999") == p ** 99999999
    assert parse_expr(reg, "(p + 1)**3") == (p + 1) ** 3
    # 32 terms times 31 * (1000 + 1) bits is just within 2**20
    big = Expr.const(2 ** 999)
    assert parse_expr(reg, "(p + 2**999)**31") == (p + big) ** 31


@pytest.mark.parametrize("src, column", [
    ("(p + 1)**1000*(t + 1)**1000*d/dp", 14),
    ("(p + 1)**100*(t + 1)**100*d/dp", 13),
    (f"2**{POWER_BITS // 2}*2**{POWER_BITS // 2 - 2}*d/dt", 10),
    ("d/dt + t*(p + 1)**100*(t + 1)**100*d/dp", 22),
])
def test_products_past_the_bound_are_syntax_errors(spaces, src, column):
    """A product of a and b terms is refused at its "*" when its a * b terms
    times the bits of both largest coefficients and of min(a, b) could pass
    POWER_BITS."""
    with pytest.raises(DslSyntaxError) as err:
        parse_generator(spaces[1].reg, src)
    assert (err.value.line, err.value.column) == (1, column)
    assert f"terms passes the bound of {POWER_BITS} bits" in str(err.value)


def test_products_within_the_bit_bound_are_built(spaces):
    """(2**19 + 1) + (2**19 - 2) + 1 bits is the bound itself."""
    reg = spaces[1].reg
    at_bound = parse_expr(reg, f"2**{POWER_BITS // 2}*2**{POWER_BITS // 2 - 3}")
    assert at_bound == Expr.const(2 ** (POWER_BITS - 3))
    p, t = Expr.of(reg.p), Expr.of(reg.t)
    assert parse_expr(reg, "(p + 1)**50*(t + 1)**50") == (p + 1) ** 50 * (t + 1) ** 50


def nested(depth: int, inner: str = "t") -> str:
    return "(" * depth + inner + ")" * depth


def test_parentheses_nest_up_to_the_bound(spaces):
    """The bound counts open parentheses, so pairs side by side each get it."""
    reg = spaces[1].reg
    t = Expr.of(reg.t)
    assert parse_expr(reg, nested(PAREN_DEPTH)) == t
    assert parse_expr(reg, nested(PAREN_DEPTH) + "*" + nested(PAREN_DEPTH)) == t * t
    assert parse_generator(reg, nested(PAREN_DEPTH) + "*d/dt") == \
        parse_generator(reg, "t*d/dt")


@pytest.mark.parametrize("depth", [PAREN_DEPTH + 1, 10_000])
def test_parentheses_past_the_bound_are_syntax_errors(spaces, depth):
    """The "(" that passes the bound is the error, before any deeper one is
    read."""
    for parse in (parse_expr, parse_generator):
        with pytest.raises(DslSyntaxError) as err:
            parse(spaces[1].reg, "\n  " + nested(depth) + "*d/dt")
        assert (err.value.line, err.value.column) == (2, 3 + PAREN_DEPTH)
        assert f"parentheses nest deeper than {PAREN_DEPTH} levels" in str(err.value)


def test_unknown_constants_round_trip(spaces):
    reg = spaces[1].reg
    g = make_generator(reg, eta_p=unknown("alpha") * reg.p)
    printed = print_generator(reg, g)
    assert printed == "?alpha*p*d/dp"
    assert parse_generator(reg, printed) == g


def test_catalog_round_trip(spaces):
    for dim in (1, 2, 3):
        reg = spaces[dim].reg
        for entry in spaces[dim].catalog:
            printed = print_generator(reg, entry.spec)
            assert parse_generator(reg, printed) == entry.spec, entry.name


def test_parenthesized_coefficients(spaces):
    reg = spaces[2].reg
    g = parse_generator(reg, "(p - 3/2*rho)*d/dp - d/drho")
    assert g.eta_p == reg.p - Expr.const(3) / 2 * reg.rho
    assert g.eta_rho == Expr.const(-1)
    assert parse_generator(reg, print_generator(reg, g)) == g


def test_expression_round_trip(spaces):
    reg = spaces[2].reg
    samples = [
        reg.rho * reg.u_x[(1, 2)] ** 2 - Expr.const(7) / 3,
        reg.pi[(1, 2)] * reg.h + reg.g ** 2 * reg.p,
        Expr.of(reg.pi_d[(1, 2, 2, 1)]) * reg.u_xx[(1, 1, 2)],
        Expr(),
    ]
    for e in samples:
        assert parse_expr(reg, str(e)) == e


def test_whitespace_and_signs(spaces):
    reg = spaces[1].reg
    g1 = parse_generator(reg, "-d/dp")
    assert g1.eta_p == Expr.const(-1)
    g2 = parse_generator(reg, "  - 2 * p * d/dp\n + d/dt ")
    assert g2.eta_p == -2 * reg.p
    assert g2.xi_t == Expr.const(1)


@pytest.mark.parametrize("src", ["- -t*d/dx1", "d/dt + - d/dx1", "(--x1)*d/dt"])
def test_at_most_one_sign_before_a_term(spaces, src):
    with pytest.raises(DslSyntaxError):
        parse_generator(spaces[1].reg, src)


def test_a_sign_inside_parentheses_still_parses(spaces):
    reg = spaces[1].reg
    assert parse_generator(reg, "-(-x1)*d/dt") == make_generator(reg, xi_t=reg.x[0])
    with pytest.raises(DslSyntaxError):
        parse_expr(reg, "--x1")


@st.composite
def specs(draw):
    """(registry, generator): every slot a small polynomial in its admitted
    atoms and ?constants, with rational coefficients."""
    reg = REGISTRIES[draw(st.integers(1, 3))]
    point = [reg.t, *reg.x, *reg.u, reg.p, reg.rho]
    gradient = [*reg.u_x.values(), *reg.pi.values()]
    state = [reg.p, reg.rho, reg.g, reg.h]

    def coeff(atoms):
        factors = st.lists(st.sampled_from(atoms + list(CONSTANTS)), max_size=3)
        terms = st.lists(st.tuples(st.fractions(-5, 5, max_denominator=4), factors),
                         max_size=3)
        e = ZERO
        for c, fs in draw(terms):
            t = Expr.const(c)
            for a in fs:
                t = t * Expr.of(a)
            e = e + t
        if draw(st.booleans()):
            e = e + ONE
        return e

    g = make_generator(
        reg, xi_t=coeff(point), xi_x=tuple(coeff(point) for _ in reg.x),
        eta_u=tuple(coeff(point) for _ in reg.u), eta_p=coeff(point),
        eta_rho=coeff(point),
        mu_pi=tuple(coeff(gradient) for _ in reg.pi_pairs()),
        mu_g=coeff(state), mu_h=coeff(state))
    return reg, g


@settings(derandomize=True, deadline=None, max_examples=100)
@given(specs())
def test_print_parse_round_trip_on_random_specs(case):
    reg, g = case
    assert parse_generator(reg, print_generator(reg, g)) == g


def _reference_coefficient_str(coeff: Expr) -> str:
    """The generator printer's former coefficient rule, written out term by
    term: '' means coefficient one, and the caller folds a one-term sign
    into the separator."""
    if coeff == ONE:
        return ""
    if len(coeff.terms) == 1:
        mono, c = coeff.terms[0]
        if not mono.factors:
            return str(c)
        if c == 1:
            return str(mono)
        return f"{c}*{mono}"
    return f"({coeff})"


def _reference_print_generator(reg, g) -> str:
    pieces = []
    for atom, coeff in base_coefficients(reg, g).items():
        if is_zero(coeff):
            continue
        negative = len(coeff.terms) == 1 and coeff.terms[0][1] < 0
        if negative:
            coeff = -coeff
        rendered = _reference_coefficient_str(coeff)
        term = f"d/d{atom.name}" if not rendered else f"{rendered}*d/d{atom.name}"
        pieces.append((negative, term))
    return signed_sum(pieces)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(specs())
def test_printer_matches_the_term_by_term_reference(case):
    reg, g = case
    assert print_generator(reg, g) == _reference_print_generator(reg, g)


_TOKENS = ("t", "x1", "p", "rho", "Pi21", "u1_x1", "q", "?a", "0", "3/4", "1/0",
           "+", "-", "*", "**", "(", ")", "d/dt", "d/du1_x1", "d/dq", "$")
_POSITION = re.compile(r"line (\d+), column (\d+): ")


@st.composite
def token_strings(draw):
    """(src, token start offsets): drawn tokens, each followed by a run of
    spaces and newlines, so that every drawn token is one token of ``src``."""
    src, starts = draw(st.sampled_from(["", " ", "\n"])), []
    for tok in draw(st.lists(st.sampled_from(_TOKENS), max_size=10)):
        starts.append(len(src))
        src += tok + draw(st.text(" \n", min_size=1, max_size=3))
    return src, starts


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from([1, 2]), token_strings())
def test_random_token_strings_fail_only_with_input_errors_at_a_token(dim, case):
    src, starts = case
    for parse in (parse_generator, parse_expr):
        try:
            parse(REGISTRIES[dim], src)
        except AnsatzError:
            pass
        except (DslSyntaxError, UnknownCoordinateError) as err:
            line, column = map(int, _POSITION.match(str(err)).groups())
            offset = sum(len(text) + 1 for text in src.split("\n")[:line - 1]) + column - 1
            assert offset in starts or offset == len(src), (src, str(err))
