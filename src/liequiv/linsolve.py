"""Sparse exact elimination over the rationals, on primitive integer rows.

One routine decomposes targets over the span of labelled vectors.
``span_basis`` reduces the span once.  Each vector ``{feature: rational}``
becomes a row ``{column: int}`` of its nonzero entries, scaled by the lcm of
their denominators, with the feature columns first and then one identity
column per vector, set in the vector's own row only.  The row is reduced
against the pivot rows found so far, lowest column first, by the integer
combination ``a*row - f*pivot_row`` that cancels the column (``a`` and ``f``
are the pivot's and the row's entries divided by their gcd), and is then
made primitive: divided by the gcd of its entries, and negated if its
lowest column's entry is negative.  If a feature column is left, the lowest
one becomes the row's pivot; the identity columns of a pivot row hold the
integer combination of vectors it came from.  A vector whose features
reduce to zero lies in the span of the earlier ones, and its identity
entries are a linear relation among them.  So the pivots are the leftmost
independent vectors, the pivot columns of the reduced row-echelon form of
the matrix whose columns are the vectors.  (The fraction-free method:
Bareiss 1968, Math. Comp. 22.)  ``express`` reduces one target row, with a
marker column past the identity columns that holds 1 before scaling; if no
feature column is left, the marker entry ``m`` and the identity entries
``c_i`` say ``m * target + sum_i c_i * vector_i = 0``, so vector ``i`` has
coefficient ``-c_i / m``, and a dependent vector has coefficient 0.

``solve_linear`` takes the same two steps on the transposed system.  Each
equation ``{variable: coefficient}``, ``rhs`` becomes a primitive row with
the rhs in a column of its own, and exact repeats are scaled once;
equations equal up to a nonzero rational scale give equal rows, so each
distinct row is one feature.  Each variable's coefficient column is one
vector and the rhs column is the target, so the independent vectors are
the pivot variables, and ``express`` gives their values with every free
variable at 0.  None of this depends on
the order or the repetition of the equations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


class InconsistentSystemError(Exception):
    """The linear system has no solution."""


class Span(NamedTuple):
    """The span of labelled vectors, reduced once by ``span_basis``."""
    index: dict        # feature -> column
    labels: tuple      # the vectors' labels, in input order
    pivots: dict       # column -> (its primitive row without the column, lead)
    independent: list  # labels of the pivot vectors, in input order


_RHS = object()  # the key of an equation's rhs in its row


def solve_linear(equations, variables):
    """Solve sum_v coeff[v] * v = rhs for each (coeff, rhs) in ``equations``.

    Coefficients and right-hand sides are ints or Fractions.  Returns
    (solution, free) where solution maps pivot variables to exact rationals
    (every value a ``Fraction``) and ``free`` lists the variables the system
    leaves undetermined (their value is taken as 0 in ``solution``).  The
    pivot variables come first in ``solution``, in the order of
    ``variables``, followed by the free ones.  Raises
    InconsistentSystemError when no solution exists.
    """
    variables = list(variables)
    index = {v: i for i, v in enumerate(variables)}
    rhs_col = index[_RHS] = len(variables)
    rows = {}
    for key in dict.fromkeys(frozenset({**c, _RHS: r}.items()) for c, r in equations):
        row, _ = _integer_row(dict(key), index)
        if row:
            _make_primitive(row)
            rows.setdefault(frozenset(row.items()), row)
    columns = [{} for _ in range(rhs_col + 1)]
    for feature, row in enumerate(rows.values()):
        for col, c in row.items():
            columns[col][feature] = c
    basis = span_basis(dict(zip(variables, columns)))
    combo = express(basis, columns[rhs_col])
    if combo is None:
        raise InconsistentSystemError("linear system has no solution")
    solution = {v: combo.get(v, Fraction(0)) for v in basis.independent}
    free = [v for v in variables if v not in solution]
    return solution | dict.fromkeys(free, Fraction(0)), free


def span_basis(vectors) -> Span:
    """Reduce the span of the ``{label: {feature: rational}}`` vectors once,
    for ``express``."""
    index = {}
    for vec in vectors.values():
        for f, c in vec.items():
            if c:
                index.setdefault(f, len(index))
    width = len(index)
    pivots = {}
    independent = []
    for i, (label, vec) in enumerate(vectors.items()):
        row, den = _integer_row(vec, index)
        row[width + i] = den
        _reduce(row, pivots)
        col = min(row)
        if col < width:
            lead = row.pop(col)
            pivots[col] = (row, lead)
            independent.append(label)
    return Span(index, tuple(vectors), pivots, independent)


def express(basis: Span, target) -> dict | None:
    """Exact coefficients ``{label: Fraction}`` of the vectors of ``basis``,
    in input order and without zeros, whose combination is the feature
    vector ``target``; None when ``target`` lies outside their span."""
    index, labels, pivots, _ = basis
    if any(c and f not in index for f, c in target.items()):
        return None
    width = len(index)
    marker = width + len(labels)
    row, den = _integer_row(target, index)
    row[marker] = den
    _reduce(row, pivots)
    if min(row) < width:
        return None
    m = row[marker]
    return {label: Fraction(-row[width + i], m)
            for i, label in enumerate(labels) if width + i in row}


def _integer_row(coeff, index):
    """The nonzero entries of ``coeff`` scaled by the lcm of its
    denominators, as the int row ``{index[key]: entry}``, and that lcm."""
    den = lcm(*[c.denominator for c in coeff.values()])
    return {index[k]: c.numerator * (den // c.denominator)
            for k, c in coeff.items() if c}, den


def _make_primitive(row):
    """Divide the nonempty int ``row`` in place by its content, signed so
    that the lowest column's entry is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def _reduce(row, pivots):
    """Eliminate every pivot column from the int ``row`` in place, lowest
    first, and make it primitive.

    A pivot row's other entries all lie above its pivot column, so each step
    raises the lowest pivot column left in ``row`` and the loop ends; the
    row's own identity or marker column lies above them all and stays.
    """
    while True:
        cols = [k for k in row if k in pivots]
        if not cols:
            break
        col = min(cols)
        f = row.pop(col)
        rest, lead = pivots[col]
        g = gcd(lead, f)
        a, f = lead // g, f // g
        if a != 1:
            for k in row:
                row[k] *= a
        for k, c in rest.items():
            v = row.get(k, 0) - f * c
            if v:
                row[k] = v
            else:
                row.pop(k, None)
    _make_primitive(row)
