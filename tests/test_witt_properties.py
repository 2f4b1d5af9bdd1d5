"""Property tests for Witt arithmetic over F_p: every sum, difference,
product and negative equals the ghost route's answer."""

import operator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit.ring import PolyRing  # noqa: E402
from qfsplit.witt import WittVector  # noqa: E402


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
