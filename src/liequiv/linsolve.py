"""Sparse exact elimination over the rationals, on primitive integer rows.

Each equation ``{variable: coefficient}``, ``rhs`` enters as a row
``{column: int}`` holding only nonzero entries, plus an int rhs: it is
scaled by the lcm of its denominators, divided by the gcd of all its
entries (rhs included) and negated if its lowest column's entry is
negative.  Two rows are equal up to a nonzero rational scale exactly when
these primitive forms are equal, so ``(frozenset(row.items()), rhs)`` is the
key that drops repeated rows on intake.  Every other row is reduced against
the pivot rows found so far, lowest column first, by the integer
combination ``a*row - f*pivot_row`` that cancels the column (``a`` and ``f``
are the pivot's and the row's entries divided by their gcd); the content
is then removed again and the row becomes the pivot row of its lowest
remaining column.  The pivot rows form a row-echelon basis, whose leading
columns are exactly the pivot columns of the reduced row-echelon form, so
the pivot set, the ``free`` list and the solution do not depend on the order
or the repetition of the input rows.  Only back-substitution, from the
highest pivot down with every free variable at 0, works in ``Fraction``.
(The fraction-free method: Bareiss 1968, Math. Comp. 22.)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class InconsistentSystemError(Exception):
    """The linear system has no solution."""


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
    pivots = {}  # column -> (its primitive row without the column, rhs, lead)
    seen = set()
    for coeff, rhs in equations:
        den = lcm(rhs.denominator, *[c.denominator for c in coeff.values()])
        row = {index[v]: c.numerator * (den // c.denominator)
               for v, c in coeff.items() if c}
        rhs = rhs.numerator * (den // rhs.denominator)
        if row:
            rhs = _make_primitive(row, rhs)
            key = (frozenset(row.items()), rhs)
            if key in seen:
                continue
            seen.add(key)
            rhs = _reduce(row, rhs, pivots)
        if not row:
            if rhs:
                raise InconsistentSystemError("linear system has no solution")
            continue
        col = min(row)
        lead = row.pop(col)
        pivots[col] = (row, rhs, lead)

    values = {}
    for col in sorted(pivots, reverse=True):
        rest, rhs, lead = pivots[col]
        total = Fraction(rhs)
        for k, c in rest.items():
            if k in values:
                total -= c * values[k]
        values[col] = total / lead
    free = [v for i, v in enumerate(variables) if i not in pivots]
    solution = {variables[col]: values[col] for col in sorted(pivots)}
    for v in free:
        solution[v] = Fraction(0)
    return solution, free


def _make_primitive(row, rhs):
    """Divide the nonempty int ``row`` in place, and ``rhs``, by their
    content, signed so that the lowest column's entry is positive; return
    the new rhs."""
    g = gcd(rhs, *row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g
        rhs //= g
    return rhs


def _reduce(row, rhs, pivots):
    """Eliminate every pivot column from the int ``row`` in place, lowest
    first, and return the rhs; a nonempty result is primitive.

    A pivot row's other entries all lie above its pivot column, so each step
    raises the lowest pivot column left in ``row`` and the loop ends.
    """
    while True:
        cols = [k for k in row if k in pivots]
        if not cols:
            break
        col = min(cols)
        f = row.pop(col)
        rest, prhs, lead = pivots[col]
        g = gcd(lead, f)
        a, f = lead // g, f // g
        if a != 1:
            for k in row:
                row[k] *= a
            rhs *= a
        for k, c in rest.items():
            v = row.get(k, 0) - f * c
            if v:
                row[k] = v
            else:
                row.pop(k, None)
        rhs -= f * prhs
    if row:
        rhs = _make_primitive(row, rhs)
    return rhs
