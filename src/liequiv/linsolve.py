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

``span_basis`` and ``express`` decompose many targets over one span with the
same routine.  Each vector ``{feature: rational}`` becomes an integer row
whose feature columns come first, followed by one identity column per input
vector, set in the vector's own row only; reduction then leaves in the
identity columns of every pivot row the integer combination of input
vectors it came from.  A vector whose features reduce to zero against the
earlier ones lies in their span and becomes no pivot, so the pivots are the
leftmost independent vectors, the pivot columns of the reduced row-echelon
form of the transposed system.  A target row gets one marker column past
the identity columns, holding 1 before the row is scaled to integers, and
is reduced once: if no feature column is left, the marker entry ``m`` and
the identity entries ``c_i`` say ``m * target + sum_i c_i * vector_i = 0``,
so the coefficient of vector ``i`` is ``-c_i / m``.  A dependent vector never
enters a pivot row and gets coefficient 0, just as ``solve_linear`` gives
each free variable the value 0, so both routines return the same solution.
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
        row, rhs = _integer_row(coeff, index, rhs)
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


def span_basis(vectors):
    """Reduce the span of the ``{feature: rational}`` vectors, once, for
    ``express``; the result is opaque to callers."""
    vectors = list(vectors)
    index = {}
    for vec in vectors:
        for f, c in vec.items():
            if c:
                index.setdefault(f, len(index))
    width = len(index)
    pivots = {}
    for i, vec in enumerate(vectors):
        row, one = _integer_row(vec, index, 1)
        row[width + i] = one
        _reduce(row, 0, pivots)
        col = min(row)
        if col < width:
            lead = row.pop(col)
            pivots[col] = (row, 0, lead)
    return index, pivots, len(vectors)


def express(basis, target):
    """Exact coefficients ``{i: Fraction}`` of the vectors of ``basis``, in
    index order and without zeros, whose combination is the feature vector
    ``target``; None when ``target`` lies outside their span."""
    index, pivots, n = basis
    if any(c and f not in index for f, c in target.items()):
        return None
    width = len(index)
    marker = width + n
    row, one = _integer_row(target, index, 1)
    row[marker] = one
    _reduce(row, 0, pivots)
    if min(row) < width:
        return None
    m = row[marker]
    return {i: Fraction(-row[width + i], m)
            for i in range(n) if width + i in row}


def _integer_row(coeff, index, rhs):
    """``coeff`` and ``rhs`` scaled by the lcm of their denominators: the
    int row ``{index[key]: entry}`` of the nonzero entries, and the int
    rhs."""
    den = lcm(rhs.denominator, *[c.denominator for c in coeff.values()])
    row = {index[k]: c.numerator * (den // c.denominator)
           for k, c in coeff.items() if c}
    return row, rhs.numerator * (den // rhs.denominator)


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
