import pytest

from qfsplit.linalg import GaussianBasis, nullspace, solve


class TestSolve:
    def test_simple_system(self):
        # x + 2y = 4, 3y = 3 over GF(5)
        columns = [{"r0": 1}, {"r0": 2, "r1": 3}]
        coeffs, witness = solve(columns, {"r0": 4, "r1": 3}, 5)
        assert witness is None
        assert coeffs == [2, 1]

    def test_infeasible_with_witness(self):
        columns = [{"r0": 1, "r1": 1}]
        coeffs, witness = solve(columns, {"r0": 1, "r1": 2}, 3)
        assert coeffs is None
        # the witness combines the equations into 0 = nonzero
        total = sum(witness.get(k, 0) * rhs for k, rhs in {"r0": 1, "r1": 2}.items()) % 3
        assert total != 0

    def test_free_variables_default_zero(self):
        columns = [{"r0": 1}, {"r0": 2}]
        coeffs, _ = solve(columns, {"r0": 2}, 7)
        assert coeffs is not None
        assert (coeffs[0] + 2 * coeffs[1]) % 7 == 2

    def test_zero_rhs(self):
        coeffs, _ = solve([{"a": 1}], {}, 3)
        assert coeffs == [0]


class TestRankAndSpan:
    def test_rank(self):
        basis = GaussianBasis(3)
        for vec in [{"a": 1, "b": 1}, {"a": 2, "b": 2}, {"b": 1}]:
            basis.add(vec)
        assert basis.rank == 2

    def test_in_span(self):
        vecs = [{"a": 1, "b": 1}, {"b": 1}]
        assert solve(vecs, {"a": 2}, 5)[0] is not None
        assert solve(vecs, {"c": 1}, 5)[0] is None

    def test_gaussian_basis_reduce(self):
        basis = GaussianBasis(5)
        assert basis.add({"a": 2, "b": 1})
        assert not basis.add({"a": 4, "b": 2})
        rem = basis.reduce({"a": 1})
        assert rem and "b" in rem


class TestNullspace:
    def test_dependent_columns(self):
        columns = [{"a": 1}, {"a": 2}, {"b": 1}]
        kernel = nullspace(columns, 5)
        assert len(kernel) == 1
        (vec,) = kernel
        combo = {}
        for j, c in enumerate(vec):
            for key, v in columns[j].items():
                combo[key] = (combo.get(key, 0) + c * v) % 5
        assert all(v == 0 for v in combo.values())

    def test_independent_columns(self):
        assert nullspace([{"a": 1}, {"b": 1}], 3) == []
