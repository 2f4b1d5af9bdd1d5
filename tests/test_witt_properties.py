"""Property tests for Witt arithmetic over F_p: every sum, difference,
product and negative equals the ghost route's answer, and the carry
polynomial delta computed modulo m^[q] equals the full one truncated."""

import operator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit.ring import PolyRing  # noqa: E402
from qfsplit.witt import WittVector, delta_carry  # noqa: E402


def coordinate_shape(p: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """(monomials, most terms) a coordinate is drawn from.  The ghost route
    raises lifts to the p^{n-1}-th power over Z, so larger p^{n-1} get
    fewer variables and terms: past 27 only 1 and x, past 125 one term."""
    if p ** (n - 1) <= 27:
        return [(0, 0), (1, 0), (0, 1)], 2
    return [(0, 0), (1, 0)], 2 if p ** (n - 1) <= 125 else 1


@st.composite
def vector_pairs(draw):
    """(u, v) of one length n <= 4 over F_p[x, y], p in {2, 3, 5, 7}."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    ring = PolyRing(p, ("x", "y"))
    monomials, most = coordinate_shape(p, n)
    term = st.tuples(st.sampled_from(monomials), st.integers(1, p - 1))

    def vector():
        return WittVector(
            ring, [ring.from_terms(dict(draw(st.lists(term, max_size=most)))) for _ in range(n)]
        )

    return vector(), vector()


def via_ghost(op, *vectors):
    """from_ghost of op applied to the ghost components."""
    ghosts = zip(*(v.ghost() for v in vectors))
    return WittVector.from_ghost(vectors[0].ring, [op(*w) for w in ghosts])


@settings(deadline=None, max_examples=200)
@given(vector_pairs())
def test_operations_equal_the_ghost_route(case):
    u, v = case
    assert u + v == via_ghost(operator.add, u, v)
    assert u - v == via_ghost(operator.sub, u, v)
    assert u * v == via_ghost(operator.mul, u, v)
    assert -u == via_ghost(operator.neg, u)


@st.composite
def proportional_pairs(draw):
    """(u, v) as in vector_pairs, with v's leading coordinate r times u's:
    the sum's carry then comes from tau(1, r) by homogeneity."""
    u, v = draw(vector_pairs())
    r = draw(st.integers(1, u.ring.char - 1))
    return u, WittVector(u.ring, (r * u.components[0],) + v.components[1:])


@settings(deadline=None, max_examples=100)
@given(proportional_pairs())
def test_sums_with_proportional_heads_equal_the_ghost_route(case):
    u, v = case
    assert u + v == via_ghost(operator.add, u, v)
    assert u - v == via_ghost(operator.sub, u, v)


@st.composite
def bounded_deltas(draw):
    """(f, q): f over F_p in 1-3 variables with at most 4 terms of exponent
    up to p + 1, so term powers land on both sides of every bound q."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ring = PolyRing(p, ("x", "y", "z")[: draw(st.integers(1, 3))])
    exps = st.tuples(*[st.integers(0, p + 1) for _ in ring.variables])
    f = ring.from_terms(dict(draw(st.lists(st.tuples(exps, st.integers(1, p - 1)), max_size=4))))
    return f, draw(st.sampled_from([p, 2 * p + 1, p * p, p * p + 1]))


@settings(deadline=None, max_examples=150)
@given(bounded_deltas())
def test_bounded_delta_is_the_truncated_delta(case):
    f, q = case
    assert delta_carry(f, q) == delta_carry(f).truncate(q)
