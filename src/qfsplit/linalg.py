"""Exact linear algebra over GF(p) on sparse vectors.

Vectors are dicts mapping hashable row keys to nonzero residues mod p.
Pivot choice always takes the smallest sortable key, so every routine is
deterministic for a fixed input order.

Every routine runs on one echelon core, ``_eliminate``.  ``solve`` and
``nullspace`` transpose their columns into equation rows keyed by column
index; ``solve`` appends a tail to each row: the right-hand side at key
``ncols`` and, when a witness is asked for, the row's multiplier on the
i-th equation at key ``ncols + 1 + i``.  Tail keys are never pivots, so the
tail carries along exactly the multipliers that produced each reduced row,
and leaving the multipliers off changes no pivot and no coefficient.

``solve`` eliminates only the block of the right-hand side: the columns
reached from the keys of rhs by walking key -> columns containing it ->
their keys.  Blocks share no key, so a row of one block only ever meets
pivot rows of the same block, in the same relative order as in the full
system; every other column keeps coefficient 0, and an infeasible system
yields the same first ``0 = nonzero`` row with the same multipliers.
"""

from __future__ import annotations

from typing import Hashable, Sequence


def _axpy(target: dict, source: dict, factor: int, p: int) -> None:
    """target += factor * source (in place, dropping zeros)."""
    for k, v in source.items():
        s = (target.get(k, 0) + factor * v) % p
        if s:
            target[k] = s
        elif k in target:
            del target[k]


def _eliminate(rows: dict, vec: dict, p: int, insert: bool = True, tail=None):
    """Reduce vec in place against the echelon rows (pivot -> row with
    leading entry 1) and return its leading key, or None once it is zero.

    With insert, a nonzero remainder is normalized and stored as the row of
    its leading key, unless that key is at or beyond ``tail``.
    """
    while vec:
        pivot = min(vec)
        row = rows.get(pivot)
        if row is None:
            if insert and (tail is None or pivot < tail):
                inv = pow(vec[pivot], -1, p)
                rows[pivot] = {k: (v * inv) % p for k, v in vec.items()}
            return pivot
        _axpy(vec, row, -vec[pivot] % p, p)
    return None


class GaussianBasis:
    """Row-echelon accumulator: feed vectors, query span membership and rank."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[Hashable, dict] = {}  # pivot key -> normalized row

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec modulo the current row space: the unique vector
        congruent to vec with no pivot key in its support.

        Each leading key that is not a pivot moves to the remainder; the
        rows' other keys all exceed their pivots, so it never comes back.
        """
        vec = dict(vec)
        remainder = {}
        while True:
            lead = _eliminate(self.rows, vec, self.p, insert=False)
            if lead is None:
                return remainder
            remainder[lead] = vec.pop(lead)

    def add(self, vec: dict) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        return _eliminate(self.rows, dict(vec), self.p) is not None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: dict) -> bool:
        return _eliminate(self.rows, dict(vec), self.p, insert=False) is None


def _equations(indexed_columns, extra_keys=()) -> dict:
    """Equation key -> {column index: coefficient}, in the solver's row order,
    for (index, column) pairs in increasing index order."""
    by_key: dict = {}
    for j, col in indexed_columns:
        for key, v in col.items():
            by_key.setdefault(key, {})[j] = v
    for key in extra_keys:
        by_key.setdefault(key, {})
    return {key: by_key[key] for key in sorted(by_key, key=repr)}


def _back_substitute(rows: dict, x: list, p: int) -> list:
    """Set the pivot coordinates of x (free coordinates already set) so that
    each row's column part dotted with x equals its right-hand side."""
    n = len(x)
    for pivot in sorted(rows, reverse=True):
        row = rows[pivot]
        acc = row.get(n, 0)
        for j, c in row.items():
            if j < n:
                acc -= c * x[j]  # x[pivot] is still 0 here
        x[pivot] = acc % p
    return x


def _rhs_block(columns: Sequence[dict], rhs: dict) -> list[int]:
    """Indices, in increasing order, of the columns connected to a key of rhs
    in the bipartite graph joining each column to the keys it contains."""
    holders: dict = {}
    for j, col in enumerate(columns):
        for key in col:
            holders.setdefault(key, []).append(j)
    reached: set[int] = set()
    seen = set(rhs)
    frontier = list(rhs)
    while frontier:
        for j in holders.get(frontier.pop(), ()):
            if j not in reached:
                reached.add(j)
                for key in columns[j]:
                    if key not in seen:
                        seen.add(key)
                        frontier.append(key)
    return sorted(reached)


def solve(columns: Sequence[dict], rhs: dict, p: int, *, witness: bool = True):
    """Solve sum_j c_j * columns[j] = rhs exactly over GF(p).

    Returns (coefficients, None) when solvable with free variables set to 0,
    or (None, witness) when infeasible; the witness maps row keys of the
    original equations to multipliers exhibiting 0 = nonzero.  With
    ``witness=False`` the multipliers are not carried, an infeasible system
    returns (None, None), and the coefficients are the same.

    Only the block of rhs is eliminated (see ``_rhs_block``); the other
    columns are treated as empty.  That is exact: no key of rhs lies outside
    the block, other blocks could only ever cancel among themselves, and
    within the block the rows meet the same pivots in the same order as in
    the whole system, so the coefficients (0 off the block), the
    feasibility and the witness are those of the whole system.
    """
    n = len(columns)
    equations = _equations(((j, columns[j]) for j in _rhs_block(columns, rhs)), rhs)
    keys = list(equations)
    rows: dict[int, dict] = {}
    for i, (key, row) in enumerate(equations.items()):
        val = rhs.get(key, 0) % p
        if val:
            row[n] = val
        if witness:
            row[n + 1 + i] = 1
        if _eliminate(rows, row, p, tail=n) == n:  # reduced to 0 = nonzero
            if not witness:
                return None, None
            return None, {keys[k - n - 1]: v for k, v in row.items() if k > n}
    return _back_substitute(rows, [0] * n, p), None


def nullspace(columns: Sequence[dict], p: int) -> list[list[int]]:
    """Basis of {c : sum_j c_j * columns[j] = 0}, free variables one-hot."""
    n = len(columns)
    rows: dict[int, dict] = {}
    for coeffs in _equations(enumerate(columns)).values():
        _eliminate(rows, coeffs, p)
    basis = []
    for free in range(n):
        if free not in rows:
            x = [0] * n
            x[free] = 1
            basis.append(_back_substitute(rows, x, p))
    return basis
