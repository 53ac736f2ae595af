from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv import linsolve
from liequiv.linsolve import (InconsistentSystemError, express, solve_linear,
                              span_basis)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# entries whose integer forms are large: the lcm of up to four denominators
# near 10**6 times numerators near 10**12
wide_rationals = st.builds(Fraction, st.integers(-10**12, 10**12),
                           st.integers(1, 10**6))
# int-only systems: the solution must still be Fractions
ints = st.integers(-10**12, 10**12)


@st.composite
def systems(draw, rationals=rationals):
    """(equations, variables) of a random sparse system with entries drawn
    from ``rationals``, with duplicate, rescaled and all-zero rows mixed in
    and some variables that occur in no row."""
    scales = rationals.filter(bool)
    n = draw(st.integers(1, 6))
    unused = draw(st.integers(0, 2))
    variables = draw(st.permutations([f"v{i}" for i in range(n + unused)]))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), rationals,
                                         max_size=3), max_size=8))
    if draw(st.booleans()):
        point = draw(st.lists(rationals, min_size=n, max_size=n))
        rhs = [sum((c * point[k] for k, c in row.items()), 0)
               for row in rows]
    else:
        rhs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    equations = [({f"v{k}": c for k, c in row.items()}, b)
                 for row, b in zip(rows, rhs)]
    injected = st.tuples(st.sampled_from(("repeat", "scale", "zero")),
                         st.integers(0, 50), scales)
    for kind, at, s in draw(st.lists(injected, max_size=4)):
        if kind == "zero":
            equations.insert(at % (len(equations) + 1),
                             ({f"v{at % n}": 0}, 0))
        elif equations:
            coeffs, b = equations[at % len(equations)]
            s = s if kind == "scale" else 1
            equations.append(({v: s * c for v, c in coeffs.items()}, s * b))
    return equations, variables


def sympy_system(equations, variables):
    """Coefficient matrix and augmented matrix as sympy Rationals."""
    def q(c):
        c = Fraction(c)
        return sympy.Rational(c.numerator, c.denominator)

    a = sympy.Matrix(len(equations), len(variables),
                     lambda r, k: q(equations[r][0].get(variables[k], 0)))
    b = sympy.Matrix(len(equations), 1, lambda r, _: q(equations[r][1]))
    return a, a.row_join(b)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(systems(), systems(wide_rationals), systems(ints)))
def test_matches_sympy_rref(system):
    equations, variables = system
    a, augmented = sympy_system(equations, variables)
    if a.rank() < augmented.rank():
        with pytest.raises(InconsistentSystemError):
            solve_linear(equations, variables)
        return
    solution, free = solve_linear(equations, variables)
    reduced, pivots = augmented.rref()
    assert free == [v for k, v in enumerate(variables) if k not in pivots]
    assert list(solution) == [variables[k] for k in pivots] + free
    for r, k in enumerate(pivots):
        assert solution[variables[k]] == Fraction(str(reduced[r, -1]))
    for v in free:
        assert solution[v] == 0
    assert all(type(c) is Fraction for c in solution.values())
    for coeffs, b in equations:
        assert sum((c * solution[v] for v, c in coeffs.items()), Fraction(0)) == b


@settings(derandomize=True, deadline=None, max_examples=100)
@given(systems())
def test_row_order_and_repetition_do_not_matter(system):
    equations, variables = system
    try:
        expected = solve_linear(equations, variables)
    except InconsistentSystemError:
        with pytest.raises(InconsistentSystemError):
            solve_linear(equations[::-1] * 2, variables)
        return
    assert solve_linear(equations[::-1] * 2, variables) == expected


def test_no_equations():
    assert solve_linear([], ["a", "b"]) == ({"a": 0, "b": 0}, ["a", "b"])
    assert solve_linear([], []) == ({}, [])


def test_lone_zero_equals_one():
    with pytest.raises(InconsistentSystemError):
        solve_linear([({}, 1)], ["a"])
    with pytest.raises(InconsistentSystemError):
        solve_linear([({"a": 0}, Fraction(1))], ["a"])


def test_rows_equal_up_to_a_fraction_scale_are_one_row(monkeypatch):
    reduced = []
    original = linsolve._reduce

    def counting(row, pivots):
        reduced.append(dict(row))
        return original(row, pivots)

    monkeypatch.setattr(linsolve, "_reduce", counting)
    as_ints = ({"a": 2, "b": -4}, 6)
    scaled = ({"a": Fraction(-2, 3), "b": Fraction(4, 3)}, Fraction(-2))
    solution, free = solve_linear([as_ints, scaled], ["a", "b"])
    # one feature (column 0) holding the primitive row a - 2b = 3: the
    # vectors of a and b with their identity columns 1 and 2, then the
    # target with its marker column 3
    assert reduced == [{0: 1, 1: 1}, {0: -2, 2: 1}, {0: 3, 3: 1}]
    assert solution == {"a": Fraction(3), "b": Fraction(0)} and free == ["b"]
    assert all(type(c) is Fraction for c in solution.values())


def test_one_by_one():
    assert solve_linear([({"a": 2}, 3)], ["a"]) == ({"a": Fraction(3, 2)}, [])
    assert solve_linear([({"a": 2}, 0)], ["a"]) == ({"a": 0}, [])


@st.composite
def spans(draw):
    """(vectors, targets): random ``{feature: rational}`` vectors with zero
    vectors, repeats and scaled copies mixed in, a random combination of
    them (inside their span), and that combination with an extra feature or
    with one entry perturbed (outside it, unless the span holds the
    perturbation)."""
    m = draw(st.integers(1, 5))
    features = st.integers(0, m - 1).map(lambda k: f"f{k}")
    vectors = draw(st.lists(st.dictionaries(features, rationals, max_size=3),
                            max_size=6))
    injected = st.tuples(st.sampled_from(("repeat", "scale", "zero")),
                         st.integers(0, 50), rationals.filter(bool))
    for kind, at, s in draw(st.lists(injected, max_size=4)):
        if kind == "zero" or not vectors:
            copy = {f"f{at % m}": Fraction(0)}
        else:
            s = s if kind == "scale" else 1
            copy = {f: s * c for f, c in vectors[at % len(vectors)].items()}
        vectors.insert(at % (len(vectors) + 1), copy)
    weights = draw(st.lists(rationals, min_size=len(vectors),
                            max_size=len(vectors)))
    inside = {}
    for w, vec in zip(weights, vectors):
        for f, c in vec.items():
            inside[f] = inside.get(f, Fraction(0)) + w * c
    shift = draw(rationals.filter(bool))
    extra = dict(inside, extra=shift)
    perturbed = dict(inside)
    f = draw(features)
    perturbed[f] = perturbed.get(f, Fraction(0)) + shift
    return vectors, [inside, extra, perturbed]


def sympy_columns(vectors, features):
    """The vectors as the columns of a sympy matrix, one row per feature."""
    return sympy.Matrix(len(features), len(vectors), lambda r, k: sympy.Rational(
        str(Fraction(vectors[k].get(features[r], 0)))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spans())
def test_express_matches_sympy(span):
    vectors, targets = span
    basis = span_basis(dict(enumerate(vectors)))
    for target in targets:
        features = sorted({f for vec in vectors for f in vec} | target.keys())
        columns = sympy_columns(vectors, features)
        augmented = columns.row_join(sympy_columns([target], features))
        got = express(basis, target)
        if augmented.rank() > columns.rank():
            assert got is None
            continue
        assert got is not None and list(got) == sorted(got)
        assert all(type(c) is Fraction and c for c in got.values())
        for f in features:
            combined = sum((c * vectors[i].get(f, 0) for i, c in got.items()),
                           Fraction(0))
            assert combined == target.get(f, 0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spans())
def test_independent_vectors_are_the_rref_pivot_columns(span):
    vectors, _ = span
    features = sorted({f for vec in vectors for f in vec})
    _, pivots = sympy_columns(vectors, features).rref()
    assert span_basis(dict(enumerate(vectors))).independent == list(pivots)


def test_a_basis_is_reduced_once_and_each_target_once(monkeypatch):
    reduced = []
    original = linsolve._reduce

    def counting(row, pivots):
        reduced.append(dict(row))
        return original(row, pivots)

    monkeypatch.setattr(linsolve, "_reduce", counting)
    basis = span_basis({"u": {"a": 1, "b": 1}, "v": {"b": Fraction(1, 2)},
                        "w": {"a": 2, "b": 3}})
    assert len(reduced) == 3
    assert express(basis, {"a": 3}) == {"u": Fraction(3), "v": Fraction(-6)}
    assert express(basis, {"c": 1}) is None
    assert len(reduced) == 4
