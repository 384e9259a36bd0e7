"""The exact simplex on hand-checked programs and against vertex enumeration."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdual.exactlp import LPError, maximize

F = Fraction


def test_beale_cycling_program_terminates_at_optimum():
    # Beale's example cycles under Dantzig's rule with naive tie-breaking.
    result = maximize(
        [F(3, 4), -20, F(1, 2), -6],
        leq=[
            ([F(1, 4), -8, -1, 9], 0),
            ([F(1, 2), -12, F(-1, 2), 3], 0),
            ([0, 0, 1, 0], 1),
        ],
    )
    assert result.optimum == F(5, 4)
    assert result.solution == (1, 0, 1, 0)
    assert all(isinstance(v, Fraction) for v in result.solution)


def test_infeasible_program_raises():
    with pytest.raises(LPError, match="infeasible"):
        maximize([1, 1], leq=[([1, 1], 1)], eq=[([1, 1], 2)])


def test_unbounded_program_raises():
    with pytest.raises(LPError, match="unbounded"):
        maximize([1, 0], leq=[([-1, 1], 1)])


def test_equality_only_program():
    result = maximize([1, 2], eq=[([1, 1], 1)])
    assert result.optimum == 2
    assert result.solution == (0, 1)


def test_negative_right_hand_sides_and_redundant_equalities():
    # x + y >= 3/2 written as -x - y <= -3/2, and the same equality twice.
    result = maximize(
        [-1, -3],
        leq=[([-1, -1], F(-3, 2)), ([1, 0], 1)],
        eq=[([1, -1], F(1, 2)), ([2, -2], 1)],
    )
    assert result.optimum == F(-5, 2)
    assert result.solution == (1, F(1, 2))


def _vertex_optimum(objective, leq, eq, bound):
    """Best objective over basic feasible points of the program plus sum(x) <= bound.

    Every vertex solves n linearly independent active constraints, so trying
    each n-subset of constraints (nonnegativity included) finds them all.
    None means infeasible.
    """
    n = len(objective)
    rows = [(list(r), F(v), False) for r, v in leq]
    rows += [(list(r), F(v), True) for r, v in eq]
    rows.append(([1] * n, F(bound), False))
    rows += [([-(i == j) for j in range(n)], F(0), False) for i in range(n)]
    best = None
    for chosen in itertools.combinations(rows, n):
        matrix = [[F(a) for a in r] + [v] for r, v, _ in chosen]
        for c in range(n):  # Gauss-Jordan elimination
            p = next((i for i in range(c, n) if matrix[i][c]), None)
            if p is None:
                break
            matrix[c], matrix[p] = matrix[p], matrix[c]
            for i in range(n):
                if i != c and matrix[i][c]:
                    f = matrix[i][c] / matrix[c][c]
                    matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[c])]
        else:
            x = [matrix[i][n] / matrix[i][i] for i in range(n)]
            if all(
                (sum(a * y for a, y in zip(r, x)) == v)
                if is_eq
                else (sum(a * y for a, y in zip(r, x)) <= v)
                for r, v, is_eq in rows
            ):
                z = sum(c * y for c, y in zip(objective, x))
                best = z if best is None else max(best, z)
    return best


rationals = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    row = st.tuples(st.lists(rationals, min_size=n, max_size=n), rationals)
    return (
        draw(st.lists(rationals, min_size=n, max_size=n)),
        draw(st.lists(row, max_size=4)),
        draw(st.lists(row, max_size=2)),
    )


@settings(max_examples=300, deadline=None)
@given(programs())
def test_maximize_agrees_with_vertex_enumeration(program):
    objective, leq, eq = program
    near = _vertex_optimum(objective, leq, eq, 10**6)
    far = _vertex_optimum(objective, leq, eq, 2 * 10**6)
    if near is None:
        with pytest.raises(LPError, match="infeasible"):
            maximize(objective, leq=leq, eq=eq)
    elif near != far:
        with pytest.raises(LPError, match="unbounded"):
            maximize(objective, leq=leq, eq=eq)
    else:
        result = maximize(objective, leq=leq, eq=eq)
        x = result.solution
        assert result.optimum == near
        assert sum(c * y for c, y in zip(objective, x)) == near
        assert all(y >= 0 for y in x)
        assert all(sum(a * y for a, y in zip(r, x)) <= v for r, v in leq)
        assert all(sum(a * y for a, y in zip(r, x)) == v for r, v in eq)
