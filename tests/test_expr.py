import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv.expr import (COORD, FUNC, MONO_ONE, ZERO, Atom,
                          CyclicSubstitutionError, Expr, MissingBindingError,
                          Monomial, UnknownSymbolError, UnsupportedFormError,
                          as_expr, atoms_of, collect, coordinate,
                          derivative_of, derive, diff_atom, diff_partial, evaluate,
                          function_symbol, is_zero, replace_atoms, substitute,
                          unknown)

from conftest import random_expr

p = coordinate("p")
rho = coordinate("rho")
u1 = coordinate("u1")
u1_x1 = coordinate("u1_x1")
rho_t = coordinate("rho_t")
rho_x1 = coordinate("rho_x1")
p_t = coordinate("p_t")
G = function_symbol("G", ("p", "rho"))
Pi11 = function_symbol("Pi11", ("u1_x1",))

ATOMS = [p, rho, u1, u1_x1, rho_x1]


def test_ring_identities():
    assert (p + rho) * (p - rho) == p ** 2 - rho ** 2
    assert p + (-1) * p == Expr()
    assert 2 * (rho * u1) + 3 * (u1 * rho) == 5 * rho * u1


def test_zero_is_empty_sum():
    z = p - p
    assert is_zero(z)
    assert z.terms == ()
    assert str(z) == "0"


def test_normalize_idempotent_on_random_trees():
    rnd = random.Random(2024)
    for _ in range(1000):
        e = random_expr(rnd, ATOMS)
        assert as_expr(e) == e
        assert as_expr(as_expr(e)).terms == as_expr(e).terms


def test_ring_axioms_on_random_inputs():
    rnd = random.Random(99)
    for _ in range(200):
        a = random_expr(rnd, ATOMS, 2)
        b = random_expr(rnd, ATOMS, 2)
        c = random_expr(rnd, ATOMS, 2)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_unsupported_exponents():
    with pytest.raises(UnsupportedFormError):
        p ** -1
    with pytest.raises(UnsupportedFormError):
        (p + rho) ** Fraction(1, 2)
    assert p ** 0 == Expr.const(1)


def test_diff_power_rule():
    assert diff_partial(p ** 2 * rho, p) == 2 * p * rho


def test_diff_formal_derivative():
    g_rho = derivative_of(G, "rho")
    assert diff_partial(Expr.of(G), rho) == Expr.of(g_rho)
    assert diff_partial(Expr.of(Pi11), u1_x1) == Expr.of(
        derivative_of(Pi11, "u1_x1"))
    assert diff_partial(Expr.of(G), u1) == Expr()


def test_formal_derivatives_commute():
    g_pr = derivative_of(derivative_of(G, "p"), "rho")
    g_rp = derivative_of(derivative_of(G, "rho"), "p")
    assert g_pr == g_rp
    assert g_pr.name == "G_prho"


def test_derivative_argument_membership():
    with pytest.raises(UnknownSymbolError):
        derivative_of(G, "u1")
    with pytest.raises(UnknownSymbolError):
        derivative_of(p, "p")


def test_diff_requires_coordinate():
    with pytest.raises(UnknownSymbolError):
        diff_partial(Expr.of(G), G)


def test_diff_linearity_and_leibniz():
    rnd = random.Random(5)
    for _ in range(100):
        a = random_expr(rnd, ATOMS + [G], 2)
        b = random_expr(rnd, ATOMS + [G], 2)
        v = rnd.choice(ATOMS)
        assert diff_partial(a + b, v) == diff_partial(a, v) + diff_partial(b, v)
        assert (diff_partial(a * b, v)
                == diff_partial(a, v) * b + a * diff_partial(b, v))


def test_clairaut_on_random_expressions():
    rnd = random.Random(17)
    pool = ATOMS + [G, Pi11]
    for _ in range(100):
        e = random_expr(rnd, pool, 3)
        v, w = rnd.choice(ATOMS), rnd.choice(ATOMS)
        assert (diff_partial(diff_partial(e, v), w)
                == diff_partial(diff_partial(e, w), v))


def test_diff_atom_ignores_declared_arguments():
    # the directional partial treats G as its own coordinate
    assert diff_atom(Expr.of(G) * p, p) == Expr.of(G)
    assert diff_atom(Expr.of(G) * p, G) == Expr.of(p)
    assert diff_atom(Expr.of(G), p) == Expr()


def test_substitute_examples():
    e = rho_t + rho * u1_x1
    assert substitute(e, {rho_t: -rho * u1_x1}) == Expr()
    assert substitute(Expr.of(p), {}) == Expr.of(p)
    g_p = derivative_of(G, "p")
    got = substitute(g_p * p_t, {p_t: -Expr.of(G) * u1_x1})
    assert got == -1 * Expr.of(G) * g_p * u1_x1


def test_substitute_rejects_recursive_bindings():
    with pytest.raises(CyclicSubstitutionError):
        substitute(Expr.of(p), {p: p + rho, rho: Expr.of(u1)})
    with pytest.raises(CyclicSubstitutionError):
        substitute(Expr.of(p), {p: p + 1})


def test_replace_atoms_allows_self_reference():
    a = coordinate("a")
    assert replace_atoms(Expr.of(p), {p: p + a}) == p + a
    # simultaneous swap
    swapped = replace_atoms(p * rho ** 2, {p: Expr.of(rho), rho: Expr.of(p)})
    assert swapped == rho * p ** 2


def test_collect_examples():
    e = rho * u1_x1 + u1 * rho_x1
    got = collect(e, {u1_x1})
    key = Monomial(((u1_x1, 1),))
    assert got[key] == Expr.of(rho)
    assert got[Monomial()] == u1 * rho_x1

    assert collect(Expr(), {p}) == {}

    e2 = (p + rho) * u1_x1 ** 2
    got2 = collect(e2, {u1_x1})
    assert got2 == {Monomial(((u1_x1, 2),)): p + rho}


def test_collect_reconstructs():
    rnd = random.Random(31)
    for _ in range(100):
        e = random_expr(rnd, ATOMS, 3)
        parts = collect(e, {u1_x1, rho_x1})
        back = Expr()
        for mono, coeff in parts.items():
            back = back + Expr(((mono, Fraction(1)),)) * coeff
        assert back == e
        for coeff in parts.values():
            assert u1_x1 not in atoms_of(coeff)
            assert rho_x1 not in atoms_of(coeff)


def test_collect_requires_parametric():
    with pytest.raises(ValueError):
        collect(Expr.of(p), set())


def test_evaluate_examples():
    assert evaluate(2 * p * rho, {p: 3, rho: 2}) == 12
    assert evaluate(p - p, {}) == 0
    with pytest.raises(MissingBindingError):
        evaluate(p * rho, {p: 1})


def test_evaluate_is_ring_homomorphism():
    rnd = random.Random(12)
    for _ in range(100):
        a = random_expr(rnd, ATOMS, 2)
        b = random_expr(rnd, ATOMS, 2)
        point = {atom: Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
                 for atom in ATOMS}
        assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)
        assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)


def test_evaluate_matches_finite_difference():
    rnd = random.Random(77)
    h = 1e-6
    for _ in range(50):
        e = random_expr(rnd, ATOMS, 3)
        v = rnd.choice(ATOMS)
        point = {atom: rnd.uniform(0.5, 1.5) for atom in ATOMS}
        sym = float(evaluate(diff_partial(e, v), point))
        up = dict(point)
        down = dict(point)
        up[v] += h
        down[v] -= h
        fd = (float(evaluate(e, up)) - float(evaluate(e, down))) / (2 * h)
        assert abs(fd - sym) <= 1e-6 * max(1.0, abs(sym))


def test_unknown_atoms():
    a = unknown("alpha")
    assert a.name == "?alpha"
    e = a * p
    assert diff_partial(e, p) == Expr.of(a)


def test_canonical_string_is_stable():
    e = Expr.of(G) * u1_x1 + p_t - 2 * rho * u1_x1
    assert str(e) == "G*u1_x1 + p_t - 2*rho*u1_x1"


# -- normal form against sympy ------------------------------------------------

t = coordinate("t")
x1 = coordinate("x1")
c1 = unknown("c1")
c2 = unknown("c2")
NF_ATOMS = [t, x1, p, rho, u1_x1, c1, c2, G, Pi11, derivative_of(G, "p"),
            derivative_of(G, "rho"), derivative_of(Pi11, "u1_x1")]
DIFF_BY = [t, x1, p, rho, u1_x1, c1]
# replaced atoms are arguments of no function symbol, so sympy's xreplace
# leaves G(p, rho) and Pi11(u1_x1) alone, as replace_atoms does
REPLACEABLE = [t, x1, c1, c2]
MAX_DEPTH = 4


def sym_atom(a):
    """The sympy object an atom stands for: a Symbol, an applied function or
    a derivative of one."""
    if a.kind == COORD:
        return sympy.Symbol(a.name)
    applied = sympy.Function(a.base or a.name)(*map(sympy.Symbol, a.args))
    return applied if a.kind == FUNC else sympy.diff(applied, *a.wrt)


def derivative_tower(f, order):
    layer, out = [f], [f]
    for _ in range(order):
        layer = list({derivative_of(a, v): None for a in layer for v in f.args})
        out += layer
    return out


# every function atom a tree can reach (one derivative per diff node, at
# most one diff node per level), as a plain sympy Symbol of the atom's name
PLAIN = {sym_atom(a): sympy.Symbol(a.name)
         for f in (G, Pi11) for a in derivative_tower(f, MAX_DEPTH + 1)}
UNPLAIN = {v: k for k, v in PLAIN.items()}


def to_plain(sym):
    return sympy.expand(sympy.expand(sym).xreplace(PLAIN))


def plain(e: Expr):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[sympy.Symbol(a.name) ** k
                                     for a, k in mono.factors])
                       for mono, c in e.terms])


def strictly_increasing(keys) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


def assert_normal_form(e: Expr):
    assert strictly_increasing([mono.key for mono, _ in e.terms])
    for mono, c in e.terms:
        assert type(c) is (int if c.denominator == 1 else Fraction) and c != 0
        assert strictly_increasing([a.key for a, _ in mono.factors])
        assert all(type(k) is int and k > 0 for _, k in mono.factors)


coefficients = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                Fraction(-2), Fraction(1, 2)])


@st.composite
def trees(draw, depth=MAX_DEPTH):
    """An operation tree over short sums of a small atom pool, so that like
    terms meet.  ``cancel`` computes (a + b) - a, which cancels every term
    of a."""
    if depth == 0 or draw(st.integers(0, 4)) == 4:
        return ("sum", draw(st.lists(
            st.tuples(coefficients, st.sampled_from([None] + NF_ATOMS)),
            min_size=1, max_size=3)))
    op = draw(st.sampled_from(
        ["add", "sub", "mul", "cancel", "pow", "diff", "replace", "collect"]))
    sub = trees(depth - 1)
    if op in ("add", "sub", "mul", "cancel"):
        return (op, draw(sub), draw(sub))
    if op == "pow":
        return (op, draw(sub), draw(st.integers(0, 2)))
    if op == "diff":
        return (op, draw(sub), draw(st.sampled_from(DIFF_BY)))
    if op == "replace":
        return (op, draw(sub), draw(st.sampled_from(REPLACEABLE)), draw(sub))
    parametric = draw(st.sets(st.sampled_from(NF_ATOMS), min_size=1, max_size=4))
    return (op, draw(sub), parametric, draw(st.integers(0, 20)))


def evaluate_tree(tree):
    """(Expr, sympy expression) of a tree; every node is checked for normal
    form and against sympy's expansion of the same operation."""
    op, args = tree[0], tree[1:]
    if op == "sum":
        e = Expr((Monomial() if a is None else Monomial(((a, 1),)), c)
                 for c, a in args[0])
        sym = sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                          * (1 if a is None else sym_atom(a))
                          for c, a in args[0]])
    elif op == "pow":
        e, sym = evaluate_tree(args[0])
        e, sym = e ** args[1], sym ** args[1]
    elif op == "diff":
        e, sym = evaluate_tree(args[0])
        e, sym = diff_partial(e, args[1]), sympy.diff(sym, sym_atom(args[1]))
    elif op == "replace":
        (e, sym), (v, vsym) = evaluate_tree(args[0]), evaluate_tree(args[2])
        e = replace_atoms(e, {args[1]: v})
        sym = sym.xreplace({sym_atom(args[1]): vsym})
    elif op == "collect":
        e, sym = evaluate_tree(args[0])
        e, sym = collect_one(e, sym, sorted(args[1]), args[2])
    else:
        (a, asym), (b, bsym) = evaluate_tree(args[0]), evaluate_tree(args[1])
        e, sym = {"add": (a + b, asym + bsym),
                  "sub": (a - b, asym - bsym),
                  "mul": (a * b, asym * bsym),
                  "cancel": ((a + b) - a, (asym + bsym) - asym)}[op]
    assert_normal_form(e)
    assert sympy.expand(to_plain(sym) - plain(e)) == 0
    return e, sym


def collect_one(e, sym, parametric, pick):
    """Check ``collect`` on ``e``, then return its bucket number ``pick``
    (cyclically) and sympy's coefficient of the same parametric monomial."""
    buckets = collect(e, parametric)
    keys = list(buckets)
    assert strictly_increasing([key.key for key in keys])
    back = Expr()
    for key, coeff in buckets.items():
        assert set(key.atoms()) <= set(parametric)
        assert coeff and not set(atoms_of(coeff)) & set(parametric)
        back = back + Expr(((key, 1),)) * coeff
    assert back == e
    if not keys:
        return e, sym
    key = keys[pick % len(keys)]
    gens = [sympy.Symbol(a.name) for a in parametric]
    poly = sympy.Poly(to_plain(sym), *gens)
    want = poly.as_dict().get(tuple(key.exponent(a) for a in parametric), 0)
    return buckets[key], sympy.sympify(want).xreplace(UNPLAIN)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(trees())
def test_normal_form_matches_sympy(tree):
    evaluate_tree(tree)


# -- the Leibniz routine against sympy -----------------------------------------

# coordinates, formal derivatives of G and ?constants, each one independent
# symbol for sympy
DERIVE_ATOMS = [t, x1, p, rho, u1_x1, c1, c2, derivative_of(G, "p"),
                derivative_of(G, "rho"),
                derivative_of(derivative_of(G, "p"), "rho")]


def polynomials(max_terms):
    monomial = st.lists(st.tuples(st.sampled_from(DERIVE_ATOMS),
                                  st.integers(1, 3)), max_size=3)
    return st.lists(st.tuples(monomial.map(Monomial), coefficients),
                    max_size=max_terms).map(Expr)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(polynomials(5),
       st.dictionaries(st.sampled_from(DERIVE_ATOMS),
                       st.none() | polynomials(3)))
def test_derive_matches_sympy(e, images):
    """derive(e, image) is sum_a image(a) * d e / d a, with every atom an
    independent symbol and an unlisted or None image meaning zero; each
    atom's pieces are its own summand."""
    def image(a):
        img = images.get(a)
        return None if img is None else img.terms

    total, pieces = derive(e, image)
    assert_normal_form(total)
    sym_e = plain(e)
    want = {}
    for a in atoms_of(e):
        d = sympy.diff(sym_e, sympy.Symbol(a.name))
        want[a] = sympy.expand(plain(images.get(a, ZERO) or ZERO) * d)
    assert sympy.expand(plain(total) - sympy.Add(*want.values())) == 0
    for a, part in pieces.items():
        assert sympy.expand(plain(Expr(part)) - want[a]) == 0
    assert set(pieces) == {a for a in want if images.get(a)}


# -- flat monomial keys and the trusted constructor ----------------------------

# names that are prefixes of one another, and one name under two kinds, so
# that ties on the rank or the name are decided by the next key field
KEY_ATOMS = NF_ATOMS + [coordinate("u1"), coordinate("u1_x1x1"),
                        coordinate("G"), Atom(FUNC, "u1")]


def nested_key(m: Monomial) -> tuple:
    """The monomial key before the flat one: one (atom key, exponent) pair
    per factor."""
    return tuple((a.key, e) for a, e in m.factors)


monomials = st.lists(
    st.tuples(st.sampled_from(KEY_ATOMS), st.integers(0, 3)), max_size=5
).map(Monomial)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(monomials, min_size=1, max_size=12),
       st.sets(st.sampled_from(KEY_ATOMS), min_size=1, max_size=6),
       st.lists(st.fractions(max_denominator=5).filter(bool), min_size=12,
                max_size=12))
def test_flat_key_and_trusted_constructor(monos, parametric, coeffs):
    by_flat = sorted(monos, key=lambda m: m.key)
    assert [nested_key(m) for m in by_flat] == sorted(map(nested_key, monos))
    for m1 in monos:
        assert m1 * MONO_ONE is m1
        assert MONO_ONE * m1 is m1 or m1.is_one()
        for m2 in monos:
            assert (m1.key < m2.key) == (nested_key(m1) < nested_key(m2))
            assert (m1 == m2) == (m1.key == m2.key) == (m1.factors == m2.factors)
            if m1 == m2:
                assert hash(m1) == hash(m2)

    def assert_canonical(m):
        rebuilt = Monomial(m.factors)  # through _normal_form
        assert (m.factors, m.key, hash(m)) == (rebuilt.factors, rebuilt.key,
                                               hash(rebuilt))

    buckets = collect(Expr(zip(monos, coeffs)), parametric)
    for par, coeff in buckets.items():
        assert_canonical(par)
        for rest, _ in coeff.terms:
            assert_canonical(rest)


term_coefficients = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                     Fraction(-2), Fraction(1, 2), Fraction(3)])
# few monomials over many draws, so that sums share and cancel terms
expressions = st.lists(st.tuples(monomials, term_coefficients),
                       max_size=6).map(Expr)


def assert_same(got: Expr, want: Expr):
    assert got.terms == want.terms
    assert [(m.factors, m.key, hash(m)) for m, _ in got.terms] == \
        [(m.factors, m.key, hash(m)) for m, _ in want.terms]
    assert_normal_form(got)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(monomials, monomials, expressions, expressions,
       st.tuples(monomials, term_coefficients), term_coefficients)
def test_merges_match_normal_form(m1, m2, a, b, one, k):
    """Every operator that merges or sorts canonical operands gives what
    _normal_form gives for the concatenated or cross-product pairs."""
    product = m1 * m2
    rebuilt = Monomial(m1.factors + m2.factors)
    assert (product.factors, product.key, hash(product)) == \
        (rebuilt.factors, rebuilt.key, hash(rebuilt))
    assert all(type(e) is int and e > 0 for _, e in product.factors)

    def cross(x, y):
        return Expr((Monomial(p1.factors + p2.factors), c1 * c2)
                    for p1, c1 in x.terms for p2, c2 in y.terms)

    def negated(x):
        return tuple((m, -c) for m, c in x.terms)

    # every other monomial of a, with coefficient k, so that some sums cancel
    shared = Expr(tuple((m, k) for m, _ in a.terms[::2]) + b.terms)
    for y in (b, shared):
        assert_same(a + y, Expr(a.terms + y.terms))
        assert_same(a - y, Expr(a.terms + negated(y)))
    assert_same(a - a, ZERO)
    assert_same(-a, Expr(negated(a)))
    assert_same(a * b, cross(a, b))
    one, const = Expr((one,)), Expr.const(k)
    for x, y in ((a, one), (one, a), (a, const), (const, a), (one, const)):
        assert_same(x * y, cross(x, y))
    assert_same(a * k, cross(a, const))
    assert_same(k * a, cross(const, a))
    assert_same(k - a, Expr(const.terms + negated(a)))
    for atom, _ in m1.factors:
        assert_same(Expr.of(atom), Expr(((Monomial(((atom, 1),)), 1),)))
    for n in (k, 0, 3, Fraction(0)):
        assert_same(Expr.const(n), Expr(((MONO_ONE, n),)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(expressions, st.sets(st.sampled_from(KEY_ATOMS), min_size=1, max_size=6))
def test_collect_buckets_are_canonical(e, parametric):
    """Each bucket, built as it stands from its sorted terms, is what the
    normal form makes of the same terms."""
    for coeff in collect(e, parametric).values():
        assert_same(coeff, Expr(reversed(coeff.terms)))


halves = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(halves, halves, monomials, monomials)
def test_integral_coefficients_are_ints(x, y, m1, m2):
    """Fraction operands whose sum, difference, product, negation or
    scaling by 1/2 then 2 is integral give int coefficients, on every path
    that makes a coefficient: _merge, the one-term and the general product,
    scaling, and construction."""
    a, b = Expr(((m1, x),)), Expr(((m1, y),))
    want = [(a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x),
            (a * Fraction(1, 2) * 2, x), (a / 2 * 2, x)]
    for got, c in want:
        assert_normal_form(got)
        assert [k for _, k in got.terms] == ([c] if c else [])
    two = b + Expr.of(p)
    for got in (Expr(((m1, x), (m2, y))), (a + Expr.of(rho)) * two, a * two,
                Expr.const(x) * two, Expr.const(x) * Expr.const(y)):
        assert_normal_form(got)


def test_integral_fraction_is_the_int():
    two_p = Expr(((Monomial(((p, 1),)), Fraction(4, 2)),))
    assert two_p.terms == (2 * p).terms
    assert two_p == 2 * p and hash(two_p) == hash(2 * p)
    assert type(two_p.terms[0][1]) is int
    two = Expr(((MONO_ONE, Fraction(4, 2)),))
    assert two == Expr(((MONO_ONE, 2),)) == Expr.const(Fraction(4, 2)) == 2
    assert hash(two) == hash(Expr(((MONO_ONE, 2),))) == hash(Expr.const(2))
    assert type(Expr.of(p).terms[0][1]) is int
    assert type((Expr.of(p) / 3).terms[0][1]) is Fraction


def test_float_coefficients_are_refused():
    """A float would enter as the binary fraction nearest to it (0.1 as
    3602879701896397/36028797018963968), so every constructor refuses it,
    as as_expr and the operators already did."""
    refused = (lambda: Expr([(MONO_ONE, 0.1)]),
               lambda: Expr([(Monomial(((p, 1),)), 2.0)]),
               lambda: Expr.const(0.5),
               lambda: as_expr(0.5),
               lambda: Expr.of(p) * 0.5,
               lambda: Expr.of(p) / 0.5)
    for build in refused:
        with pytest.raises(UnsupportedFormError):
            build()


def replace_reference(e: Expr, mapping) -> Expr:
    """Per-term replacement: every term rebuilds the product of its replaced
    factors, one value per unit of exponent, and normalises its kept
    factors."""
    table = {a: as_expr(v) for a, v in mapping.items()}
    pieces = []
    for mono, c in e.terms:
        hit = [table[a] for a, k in mono.factors if a in table
               for _ in range(k)]
        if not hit:
            pieces.append((mono, c))
            continue
        rest = Monomial((a, k) for a, k in mono.factors if a not in table)
        pieces.extend((m * rest, c * cc) for m, cc in reduce(mul, hit).terms)
    return Expr(pieces)


@st.composite
def replacement_tables(draw):
    """Atom -> expression over the same atoms; some values add their own key
    (x -> x + a), so that maps refer to themselves."""
    table = {}
    for a in draw(st.lists(st.sampled_from(KEY_ATOMS), max_size=4, unique=True)):
        v = draw(expressions)
        table[a] = v + a if draw(st.booleans()) else v
    return table


@settings(derandomize=True, deadline=None, max_examples=200)
@given(expressions, replacement_tables())
def test_replace_atoms_matches_per_term_reference(e, table):
    # repeated monomials with exponents up to 3 share replaced-factor tuples
    e = e + e * e
    assert_same(replace_atoms(e, table), replace_reference(e, table))


def test_pickled_atoms_and_monomials_hash_in_a_new_process():
    """The cached hashes of string keys are per process; an unpickled atom
    or monomial must still find its equal in a dict built by that process."""
    import os
    import pickle
    import subprocess
    import sys

    e = 3 * Expr.of(derivative_of(G, "rho")) * u1_x1 ** 2 + p
    script = (
        "import pickle, sys\n"
        "from liequiv.expr import Atom, Monomial\n"
        "e = pickle.loads(sys.stdin.buffer.read())\n"
        "monos = {Monomial(m.factors) for m, _ in e.terms}\n"
        "assert all(m in monos for m, _ in e.terms)\n"
        "atoms = [a for m, _ in e.terms for a in m.atoms()]\n"
        "fresh = {Atom(a.kind, a.name) for a in atoms}\n"
        "assert all(a in fresh for a in atoms)\n")
    for seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", script],
                              input=pickle.dumps(e), capture_output=True,
                              env={**os.environ, "PYTHONHASHSEED": seed,
                                   "PYTHONPATH": ":".join(sys.path)},
                              timeout=60)
        assert done.returncode == 0, done.stderr.decode()
