"""Property tests for arithmetic in the quotient by (x_1^q, ..., x_n^q):
truncated products and powers must equal the truncated full results."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit.ring import PolyRing  # noqa: E402

PRIMES = [2, 3, 5, 7]


@st.composite
def operands(draw, count, max_exp):
    """(ring, [polys], q): up to 3 variables over F_p, p in PRIMES, each
    poly with at most 4 terms and exponents up to max_exp(p)."""
    p = draw(st.sampled_from(PRIMES))
    ring = PolyRing(p, ("x", "y", "z")[: draw(st.integers(1, 3))])
    exps = st.tuples(*[st.integers(0, max_exp(p)) for _ in ring.variables])
    term = st.tuples(exps, st.integers(1, p - 1))
    polys = [ring.from_terms(dict(draw(st.lists(term, max_size=4)))) for _ in range(count)]
    q = draw(st.one_of(st.sampled_from([p, p * p]), st.integers(1, 3 * p)))
    return ring, polys, q


@settings(deadline=None)
@given(operands(1, lambda p: 3 * p))
def test_truncate_keeps_exactly_the_terms_below_q(case):
    _, (a,), q = case
    kept = dict(a.truncate(q).terms())
    assert kept == {exps: c for exps, c in a.terms() if all(e < q for e in exps)}


@settings(deadline=None)
@given(operands(1, lambda p: p * p + 1), st.integers(1, 2))
def test_ideal_membership_is_a_zero_truncation(case, level):
    ring, (a,), _ = case
    q = ring.char**level
    expected = all(any(e >= q for e in exps) for exps, _ in a.terms())
    assert a.in_frobenius_power_ideal(level) is expected


@settings(deadline=None)
@given(operands(2, lambda p: 2 * p))
def test_mul_trunc_is_truncated_product(case):
    _, (a, b), q = case
    assert a.mul_trunc(b, q) == (a * b).truncate(q)


@settings(deadline=None, max_examples=60)
@given(operands(1, lambda p: p + 1), st.data())
def test_pow_trunc_is_truncated_power(case, data):
    ring, (a,), q = case
    p = ring.char
    e = data.draw(st.integers(0, p * p - p - 1))
    assert a.pow_trunc(e, q) == (a**e).truncate(q)


@pytest.mark.parametrize("p", PRIMES)
def test_pow_trunc_on_every_small_bound(p):
    # bounds that p^k does not divide, where the digit cut must round up
    f = PolyRing(p, ("x", "y")).parse("x^2 + x*y + y + 1")
    for e in range(p * p - p):
        full = f**e
        for q in range(1, 2 * p + 2):
            assert f.pow_trunc(e, q) == full.truncate(q), (e, q)


def test_pow_trunc_over_the_integers():
    ring = PolyRing(0, ("x", "y"))
    f = ring.parse("2*x + 3*y^2 + 1")
    for e in (0, 1, 4, 7):
        for q in (1, 3, 6):
            assert f.pow_trunc(e, q) == (f**e).truncate(q)
