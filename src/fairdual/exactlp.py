"""Exact linear programming: a two-phase simplex in integer arithmetic.

`maximize` solves  max c.x  subject to  A x <= b,  A_eq x = b_eq,  x >= 0
for Fraction data and returns an exact optimum and solution.

The tableau is kept in dictionary form and stores only the nonbasic
columns: row i reads  x_B[i] = (rhs[i] - sum_j coef[i][j] * x_N[j]) / det.
Each input row is scaled to integers once; after that every pivot is
fraction-free (Bareiss-style integer pivoting): all entries share the
positive denominator `det`, and the update divides exactly, because every
entry is, up to sign, a minor of the scaled input.

An inequality with a nonnegative right-hand side starts with its slack in
the basis; every other row (equalities, and inequalities with a negative
right-hand side) gets an artificial variable, and phase 1 drives the sum
of artificials to zero. An artificial column is dropped as soon as its
variable leaves the basis, since it never needs to re-enter.

Both the entering and the leaving variable follow Bland's smallest-index
rule (Bland 1977), so the method terminates on degenerate programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import FairdualError, _integer_row


class LPError(FairdualError):
    """The program is infeasible or unbounded."""


@dataclass(frozen=True)
class LPResult:
    optimum: Fraction
    solution: tuple


class _Tableau:
    """Integer dictionary-form tableau; row layout is [rhs, coef over nonbasics].

    Objective rows share the layout: (z0, d) reads z = (z0 - d . x_N) / det,
    so a column with d[j] < 0 improves it.
    """

    def __init__(self, basis, nonbasic, rows, objectives, first_artificial):
        self.basis = basis
        self.nonbasic = nonbasic
        self.rows = rows
        self.objectives = objectives  # the one being optimized comes first
        self.first_artificial = first_artificial
        self.det = 1

    def pivot(self, r: int, q: int) -> None:
        pivot_row = self.rows[r]
        col = q + 1
        p, det = pivot_row[col], self.det
        for row in self.rows + self.objectives:
            if row is pivot_row:
                continue
            factor = row[col]
            if factor:
                row[:] = [(a * p - factor * b) // det for a, b in zip(row, pivot_row)]
            else:
                row[:] = [a * p // det for a in row]
            row[col] = -factor
        pivot_row[col] = det
        self.det = p
        if p < 0:
            self.det = -p
            for row in self.rows + self.objectives:
                row[:] = [-a for a in row]

        leaving = self.basis[r]
        self.basis[r] = self.nonbasic[q]
        if leaving >= self.first_artificial:
            for row in self.rows + self.objectives:
                del row[col]
            del self.nonbasic[q]
        else:
            self.nonbasic[q] = leaving

    def optimize(self) -> None:
        """Pivot until the first objective row has no improving column."""
        while True:
            reduced = self.objectives[0]
            q = None
            for j, variable in enumerate(self.nonbasic):
                if reduced[j + 1] < 0 and (q is None or variable < self.nonbasic[q]):
                    q = j
            if q is None:
                return
            col = q + 1
            r = None
            for i, row in enumerate(self.rows):
                a = row[col]
                if a > 0:
                    if r is None:
                        r = i
                        continue
                    # Compare rhs / a with the incumbent's ratio exactly.
                    best = self.rows[r]
                    lhs, rhs = row[0] * best[col], best[0] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[r]):
                        r = i
            if r is None:
                raise LPError("objective is unbounded")
            self.pivot(r, q)

    def drive_out_artificials(self) -> None:
        """After phase 1, pivot zero-level artificials out or drop their rows."""
        i = 0
        while i < len(self.basis):
            if self.basis[i] < self.first_artificial:
                i += 1
                continue
            q = next((j for j, a in enumerate(self.rows[i][1:]) if a), None)
            if q is None:  # redundant equality
                del self.basis[i], self.rows[i]
                continue
            self.pivot(i, q)
            i += 1


def maximize(objective: Sequence, leq: Sequence = (), eq: Sequence = ()) -> LPResult:
    """Maximize objective . x subject to row . x <= rhs and row . x = rhs.

    Every variable is nonnegative. `leq` and `eq` are sequences of
    (row, rhs) pairs. Raises LPError on an infeasible or unbounded program.
    """
    n = len(objective)
    first_artificial = n + len(leq)
    basis, rows = [], []
    nonbasic = list(range(n))
    surplus = []  # (row, slack variable) for inequalities that need an artificial
    artificial = first_artificial
    for k, (coefficients, value) in enumerate(leq):
        row, _ = _integer_row([value, *coefficients])
        if row[0] >= 0:
            basis.append(n + k)
        else:
            row = [-a for a in row]
            basis.append(artificial)
            artificial += 1
            surplus.append((len(rows), n + k))
        rows.append(row)
    for coefficients, value in eq:
        row, _ = _integer_row([value, *coefficients])
        if row[0] < 0:
            row = [-a for a in row]
        basis.append(artificial)
        artificial += 1
        rows.append(row)
    for i, slack in surplus:
        nonbasic.append(slack)
        for k, row in enumerate(rows):
            row.append(-1 if k == i else 0)

    width = len(nonbasic)
    scaled, objective_scale = _integer_row(objective)
    phase2 = [0, *(-c for c in scaled), *([0] * (width - n))]
    objectives = [phase2]
    artificial_rows = [rows[i] for i, v in enumerate(basis) if v >= first_artificial]
    if artificial_rows:
        # Phase 1 maximizes minus the sum of artificials.
        phase1 = [-sum(column) for column in zip(*artificial_rows)]
        objectives.insert(0, phase1)
    tableau = _Tableau(basis, nonbasic, rows, objectives, first_artificial)
    if artificial_rows:
        tableau.optimize()
        if phase1[0] < 0:
            raise LPError("constraints are infeasible")
        tableau.drive_out_artificials()
        objectives.pop(0)
    tableau.optimize()

    det = tableau.det
    values = [Fraction(0)] * n
    for variable, row in zip(tableau.basis, tableau.rows):
        if variable < n:
            values[variable] = Fraction(row[0], det)
    return LPResult(
        optimum=Fraction(phase2[0], det * objective_scale), solution=tuple(values)
    )
