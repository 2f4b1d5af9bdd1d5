"""Exact linear algebra over GF(p) on sparse vectors.

Vectors are dicts mapping hashable row keys to nonzero residues mod p.
Pivot choice always takes the smallest sortable key, so every routine is
deterministic for a fixed input order.

Every routine runs on one echelon core, ``_eliminate``.  ``solve`` and
``nullspace`` transpose their columns into equation rows keyed by column
index; ``solve`` appends a tail to each row: the right-hand side at key
``ncols`` and the row's multiplier on the i-th equation at key
``ncols + 1 + i``.  Tail keys are never pivots, so the tail carries along
exactly the multipliers that produced each reduced row.

``solve`` eliminates only the block of the right-hand side (see
``block``).  Three callers build only the block they test: the
Frobenius-image membership of ``localcoh``, which hands it to ``solve``,
and the two double-cover oracles, which answer with one ``GaussianBasis``
span test.
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


def block(keys, holders, entries) -> tuple[dict, set]:
    """The block of a sparse system reached from keys: walk key -> the rows
    holding it (``holders(key)``) -> their keys (``entries(row)``, a mapping).
    Returns row -> entries(row) for every row reached, and the set of keys
    reached; no row outside holds a reached key.

    A block decides its system exactly.  The system is the direct sum of its
    blocks, which share no row and no key, so feasibility, span membership
    and the canonical remainder (``GaussianBasis.reduce``) all split by
    block: a vector whose keys lie in one block is reduced, or combined,
    by that block's rows exactly as by the whole system's, and the other
    blocks could only cancel among themselves.  Eliminating a block alone
    also meets the same pivots in the same relative order as the whole
    system does, so ``solve`` returns the same coefficients (0 off the
    block) and the same first ``0 = nonzero`` row with the same multipliers.
    """
    rows: dict = {}
    seen = set(keys)
    frontier = list(seen)
    while frontier:
        for row in holders(frontier.pop()):
            if row not in rows:
                rows[row] = found = entries(row)
                fresh = found.keys() - seen
                seen |= fresh
                frontier.extend(fresh)
    return rows, seen


def _rhs_block(columns: Sequence[dict], rhs: dict) -> list[int]:
    """Indices, in increasing order, of the columns in the ``block`` of the
    keys of rhs, each column a row of the transposed system."""
    holders: dict = {}
    for j, col in enumerate(columns):
        for key in col:
            holders.setdefault(key, []).append(j)
    reached, _ = block(rhs, lambda key: holders.get(key, ()), columns.__getitem__)
    return sorted(reached)


def solve(columns: Sequence[dict], rhs: dict, p: int):
    """Solve sum_j c_j * columns[j] = rhs exactly over GF(p).

    Returns (coefficients, None) when solvable with free variables set to 0,
    or (None, witness) when infeasible; the witness maps row keys of the
    original equations to multipliers exhibiting 0 = nonzero.

    Only the block of rhs is eliminated (``_rhs_block``); the other columns
    are treated as empty, which changes no answer (see ``block``).
    """
    n = len(columns)
    equations = _equations(((j, columns[j]) for j in _rhs_block(columns, rhs)), rhs)
    keys = list(equations)
    rows: dict[int, dict] = {}
    for i, (key, row) in enumerate(equations.items()):
        val = rhs.get(key, 0) % p
        if val:
            row[n] = val
        row[n + 1 + i] = 1
        if _eliminate(rows, row, p, tail=n) == n:  # reduced to 0 = nonzero
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
