"""Property tests for products: the pair loop behind ``*`` against a
term-by-term reference over F_p and over Z, and arithmetic in the quotient
by (x_1^q, ..., x_n^q), where truncated products and powers must equal the
truncated full results."""

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


def term_pair_product(a, b):
    """a * b as a sum of one single-term polynomial per pair of terms."""
    ring = a.ring
    result = ring.zero()
    for e1, c1 in a.terms():
        for e2, c2 in b.terms():
            result = result + ring.from_terms({tuple(x + y for x, y in zip(e1, e2)): c1 * c2})
    return result


def assert_is_the_term_pair_product(a, b):
    product = a * b
    assert product == term_pair_product(a, b)
    p = a.ring.char
    for c in product.term_map().values():
        assert (0 < c < p) if p else c != 0


@st.composite
def integer_operands(draw):
    """Two polynomials over Z in 1-3 variables, each with at most 5 terms of
    exponent at most 2 and coefficients in [-4, 4], so pairs collide and
    cancel often."""
    ring = PolyRing(0, ("x", "y", "z")[: draw(st.integers(1, 3))])
    exps = st.tuples(*[st.integers(0, 2) for _ in ring.variables])
    term = st.tuples(exps, st.integers(-4, 4))
    return [ring.from_terms(dict(draw(st.lists(term, max_size=5)))) for _ in range(2)]


@settings(deadline=None, max_examples=150)
@given(operands(2, lambda p: 2))
def test_product_is_the_term_pair_product(case):
    _, (a, b), _ = case
    assert_is_the_term_pair_product(a, b)


@settings(deadline=None, max_examples=150)
@given(integer_operands())
def test_integer_product_is_the_term_pair_product(case):
    assert_is_the_term_pair_product(*case)


@pytest.mark.parametrize("p", PRIMES + [0])
def test_cancelled_terms_are_not_stored(p):
    # (x + y)(x + (p-1)y) = x^2 - y^2: the two xy pairs sum to p*xy
    ring = PolyRing(p, ("x", "y"))
    a = ring.parse("x + y")
    b = ring.parse("x - y") if p == 0 else ring.parse(f"x + {p - 1}*y")
    product = a * b
    assert product.term_map() == {(2, 0): 1, (0, 2): p - 1 if p else -1}
    assert_is_the_term_pair_product(a, b)
    assert (a * ring.zero()).term_map() == {}


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
    # every bound up to 2p + 1, divisible by p or not, for every exponent up
    # to clause 2's p^2 - p - 1
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
