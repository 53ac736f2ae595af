from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv.linsolve import InconsistentSystemError, solve_linear

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
scales = rationals.filter(bool)


@st.composite
def systems(draw):
    """(equations, variables) of a random sparse rational system, with
    duplicate, rescaled and all-zero rows mixed in and some variables that
    occur in no row."""
    n = draw(st.integers(1, 6))
    unused = draw(st.integers(0, 2))
    variables = draw(st.permutations([f"v{i}" for i in range(n + unused)]))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), rationals,
                                         max_size=3), max_size=8))
    if draw(st.booleans()):
        point = draw(st.lists(rationals, min_size=n, max_size=n))
        rhs = [sum((c * point[k] for k, c in row.items()), Fraction(0))
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
                             ({f"v{at % n}": Fraction(0)}, Fraction(0)))
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


@settings(derandomize=True, deadline=None, max_examples=150)
@given(systems())
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


def test_one_by_one():
    assert solve_linear([({"a": 2}, 3)], ["a"]) == ({"a": Fraction(3, 2)}, [])
    assert solve_linear([({"a": 2}, 0)], ["a"]) == ({"a": 0}, [])
