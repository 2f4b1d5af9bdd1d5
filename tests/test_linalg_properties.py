"""Property tests for the GF(p) routines on small sparse systems."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit.linalg import (  # noqa: E402
    GaussianBasis,
    _back_substitute,
    _eliminate,
    _equations,
    block,
    nullspace,
    solve,
)

KEYS = [f"r{i}" for i in range(5)]


@st.composite
def systems(draw):
    """(p, columns, rhs) with at most 6 columns over at most 5 equations."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    vector = st.dictionaries(st.sampled_from(KEYS), st.integers(1, p - 1), max_size=4)
    return p, draw(st.lists(vector, max_size=6)), draw(vector)


def combine(columns, coeffs, p):
    """sum_j coeffs[j] * columns[j], zeros dropped."""
    out: dict = {}
    for c, column in zip(coeffs, columns):
        for key, v in column.items():
            out[key] = (out.get(key, 0) + c * v) % p
    return {key: v for key, v in out.items() if v}


def _rank(vectors, p):
    basis = GaussianBasis(p)
    for vector in vectors:
        basis.add(vector)
    return basis.rank


def _in_span(columns, rhs, p):
    return solve(columns, rhs, p)[0] is not None


def dot(witness, vector, p):
    return sum(witness.get(key, 0) * v for key, v in vector.items()) % p


@settings(deadline=None)
@given(systems())
def test_solve_returns_solution_or_witness(system):
    p, columns, rhs = system
    coeffs, witness = solve(columns, rhs, p)
    if coeffs is not None:
        assert witness is None
        assert len(coeffs) == len(columns)
        assert combine(columns, coeffs, p) == rhs
    else:
        # the witness combines the equations into 0 = nonzero
        assert all(dot(witness, column, p) == 0 for column in columns)
        assert dot(witness, rhs, p) != 0


@settings(deadline=None)
@given(systems())
def test_nullspace_is_a_kernel_basis(system):
    p, columns, _ = system
    kernel = nullspace(columns, p)
    assert len(kernel) == len(columns) - _rank(columns, p)
    for vec in kernel:
        assert combine(columns, vec, p) == {}
    as_dicts = [{j: c for j, c in enumerate(vec) if c} for vec in kernel]
    assert _rank(as_dicts, p) == len(kernel)


@settings(deadline=None)
@given(systems())
def test_basis_contains_agrees_with_in_span(system):
    p, columns, rhs = system
    basis = GaussianBasis(p)
    for column in columns:
        basis.add(column)
    assert basis.contains(rhs) == _in_span(columns, rhs, p)


@settings(deadline=None)
@given(systems(), st.data())
def test_reduce_is_the_canonical_remainder(system, data):
    p, columns, vec = system
    basis = GaussianBasis(p)
    for column in columns:
        basis.add(column)
    remainder = basis.reduce(vec)
    assert not set(remainder) & set(basis.rows)
    difference = combine([vec, remainder], [1, p - 1], p)
    assert _in_span(columns, difference, p)
    shuffled = GaussianBasis(p)
    for column in data.draw(st.permutations(columns)):
        shuffled.add(column)
    assert shuffled.reduce(vec) == remainder


@st.composite
def block_systems(draw):
    """(p, columns, rhs): columns drawn on up to three disjoint key sets and
    shuffled together, so the system splits into several blocks."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    groups = draw(st.integers(1, 3))
    columns = []
    for group in range(groups):
        keys = st.sampled_from([(group, i) for i in range(4)])
        vector = st.dictionaries(keys, st.integers(1, p - 1), min_size=1, max_size=3)
        columns += draw(st.lists(vector, max_size=5))
    columns = draw(st.permutations(columns))
    every_key = [(group, i) for group in range(groups) for i in range(4)]
    rhs = draw(st.dictionaries(st.sampled_from(every_key), st.integers(1, p - 1), max_size=4))
    return p, columns, rhs


@settings(deadline=None)
@given(block_systems())
def test_block_solve_is_a_solution_or_a_global_witness(system):
    p, columns, rhs = system
    coeffs, witness = solve(columns, rhs, p)
    if coeffs is not None:
        assert combine(columns, coeffs, p) == rhs
    else:
        # the witness annihilates every column, not only those of rhs's block
        assert all(dot(witness, column, p) == 0 for column in columns)
        assert dot(witness, rhs, p) != 0


def whole_system_solve(columns, rhs, p):
    """The elimination of every equation row, with no block restriction."""
    n = len(columns)
    equations = _equations(enumerate(columns), rhs)
    keys = list(equations)
    rows: dict = {}
    for i, (key, row) in enumerate(equations.items()):
        if rhs.get(key, 0) % p:
            row[n] = rhs[key] % p
        row[n + 1 + i] = 1
        if _eliminate(rows, row, p, tail=n) == n:
            return None, {keys[k - n - 1]: v for k, v in row.items() if k > n}
    return _back_substitute(rows, [0] * n, p), None


@settings(deadline=None)
@given(block_systems())
def test_block_solve_matches_whole_system(system):
    p, columns, rhs = system
    assert solve(columns, rhs, p) == whole_system_solve(columns, rhs, p)


@settings(deadline=None)
@given(block_systems(), st.data())
def test_fresh_block_changes_nothing(system, data):
    p, columns, rhs = system
    # keys (k + 0.5, i) are new, and their reprs sort among the old ones
    group = data.draw(st.integers(-1, 3)) + 0.5
    keys = st.sampled_from([(group, i) for i in range(3)])
    vector = st.dictionaries(keys, st.integers(1, p - 1), min_size=1, max_size=3)
    extra = data.draw(st.lists(vector, min_size=1, max_size=4))
    coeffs, certificate = solve(columns, rhs, p)
    padded = None if coeffs is None else coeffs + [0] * len(extra)
    assert solve(columns + extra, rhs, p) == (padded, certificate)


@settings(deadline=None)
@given(block_systems())
def test_untouched_rhs_key_is_its_own_witness(system):
    p, columns, _ = system
    key = ("untouched", 0)
    assert solve(columns, {key: 1}, p) == (None, {key: 1})


def scanned_block(columns, keys):
    """The block of keys by repeated scans of every column until no column
    outside it holds one of its keys."""
    keys, reached = set(keys), set()
    while True:
        touching = {j for j, column in enumerate(columns) if not keys.isdisjoint(column)}
        if touching == reached:
            return reached, keys
        reached = touching
        keys |= {key for j in reached for key in columns[j]}


@settings(deadline=None)
@given(block_systems())
def test_block_is_the_closed_fixed_point(system):
    _p, columns, rhs = system
    holders = {}
    for j, column in enumerate(columns):
        for key in column:
            holders.setdefault(key, []).append(j)
    rows, keys = block(rhs, lambda key: holders.get(key, ()), columns.__getitem__)
    reached, reached_keys = scanned_block(columns, rhs)
    assert rows == {j: columns[j] for j in reached}
    assert keys == reached_keys
    # closed: every column holding a reached key is reached, with its keys
    for j, column in enumerate(columns):
        if not keys.isdisjoint(column):
            assert j in rows
            assert keys >= column.keys()
