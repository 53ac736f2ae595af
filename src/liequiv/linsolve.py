"""Sparse exact elimination over the rationals.

Rows are kept as ``{column: Fraction}`` dicts holding only nonzero entries.
Rows that repeat an earlier row up to a nonzero scale are dropped on
intake; every other row is reduced against the pivot rows found so far,
lowest column first, and becomes the pivot row of its lowest remaining
column.  The pivot rows then form a row-echelon basis, whose leading columns
are exactly the pivot columns of the reduced row-echelon form, so the pivot
set, the ``free`` list and the solution do not depend on the order or the
repetition of the input rows.  Back-substitution from the highest pivot down
gives the solution with every free variable at 0.
"""

from __future__ import annotations

from fractions import Fraction


class InconsistentSystemError(Exception):
    """The linear system has no solution."""


def solve_linear(equations, variables):
    """Solve sum_v coeff[v] * v = rhs for each (coeff, rhs) in ``equations``.

    Returns (solution, free) where solution maps pivot variables to exact
    rationals and ``free`` lists the variables the system leaves
    undetermined (their value is taken as 0 in ``solution``).  The pivot
    variables come first in ``solution``, in the order of ``variables``,
    followed by the free ones.  Raises InconsistentSystemError when no
    solution exists.
    """
    variables = list(variables)
    index = {v: i for i, v in enumerate(variables)}
    pivots = {}  # column -> (other entries of its row scaled to pivot 1, rhs)
    seen = set()
    for coeff, rhs in equations:
        row = {index[v]: Fraction(c) for v, c in coeff.items() if c}
        rhs = Fraction(rhs)
        if row:
            lead = row[min(row)]
            key = (frozenset((k, c / lead) for k, c in row.items()), rhs / lead)
            if key in seen:
                continue
            seen.add(key)
        row, rhs = _reduce(row, rhs, pivots)
        if not row:
            if rhs:
                raise InconsistentSystemError("linear system has no solution")
            continue
        col = min(row)
        lead = row.pop(col)
        pivots[col] = ({k: c / lead for k, c in row.items()}, rhs / lead)

    values = {}
    for col in sorted(pivots, reverse=True):
        rest, rhs = pivots[col]
        values[col] = rhs - sum((c * values[k] for k, c in rest.items()
                                 if k in values), Fraction(0))
    free = [v for i, v in enumerate(variables) if i not in pivots]
    solution = {variables[col]: values[col] for col in sorted(pivots)}
    for v in free:
        solution[v] = Fraction(0)
    return solution, free


def _reduce(row, rhs, pivots):
    """Eliminate every pivot column from ``row``, lowest first.

    A pivot row's other entries all lie above its pivot column, so each step
    raises the lowest pivot column left in ``row`` and the loop ends.
    """
    while True:
        cols = [k for k in row if k in pivots]
        if not cols:
            return row, rhs
        col = min(cols)
        f = row.pop(col)
        rest, prhs = pivots[col]
        for k, c in rest.items():
            v = row.get(k, 0) - f * c
            if v:
                row[k] = v
            else:
                row.pop(k, None)
        rhs -= f * prhs
