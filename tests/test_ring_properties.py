"""Property tests for products: the pair loop behind ``*``, ``mul_trunc``
and ``pow_trunc`` against a term-by-term reference over F_p and over Z, in
0 to 4 variables and at the 2^63 - 1 exponent limit, and arithmetic in the
quotient by (x_1^q, ..., x_n^q), where truncated products and powers must
equal the truncated full results at every bound, the named ones 1,
2^63 - 1, 2^63 and 2^64 included.  Also the packed keys themselves: their
Frobenius scaling at the limit, and their hashes."""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit.ring import ExponentOverflowError, PolyRing  # noqa: E402

PRIMES = [2, 3, 5, 7]
VARIABLES = ("x", "y", "z", "w")
LIMIT = 2**63 - 1
NAMED_BOUNDS = (1, LIMIT, 2**63, 2**64)


@st.composite
def operands(draw, count, max_exp):
    """(ring, [polys], q): 0 to 4 variables over F_p, p in PRIMES, each
    poly with at most 4 terms and exponents up to max_exp(p)."""
    p = draw(st.sampled_from(PRIMES))
    ring = PolyRing(p, VARIABLES[: draw(st.integers(0, 4))])
    exps = st.tuples(*[st.integers(0, max_exp(p)) for _ in ring.variables])
    term = st.tuples(exps, st.integers(1, p - 1))
    polys = [ring.from_terms(dict(draw(st.lists(term, max_size=4)))) for _ in range(count)]
    q = draw(st.one_of(st.sampled_from([p, p * p]), st.integers(1, 3 * p)))
    return ring, polys, q


def term_pair_product(a, b, q=None):
    """a * b as a sum of one single-term polynomial per pair of terms; with
    q, only the pairs whose exponent sums are all below q.  from_terms
    raises ExponentOverflowError for a kept sum past 2^63 - 1."""
    ring = a.ring
    result = ring.zero()
    for e1, c1 in a.terms():
        for e2, c2 in b.terms():
            exps = tuple(x + y for x, y in zip(e1, e2))
            if q is None or max(exps, default=0) < q:
                result = result + ring.from_terms({exps: c1 * c2})
    return result


def assert_is_the_term_pair_product(a, b):
    product = a * b
    assert product == term_pair_product(a, b)
    p = a.ring.char
    for c in product.term_map().values():
        assert (0 < c < p) if p else c != 0


@st.composite
def integer_operands(draw):
    """Two polynomials over Z in 0-4 variables, each with at most 5 terms of
    exponent at most 2 and coefficients in [-4, 4], so pairs collide and
    cancel often."""
    ring = PolyRing(0, VARIABLES[: draw(st.integers(0, 4))])
    exps = st.tuples(*[st.integers(0, 2) for _ in ring.variables])
    term = st.tuples(exps, st.integers(-4, 4))
    return [ring.from_terms(dict(draw(st.lists(term, max_size=5)))) for _ in range(2)]


@st.composite
def limit_operands(draw):
    """Two polynomials over F_p or Z in 0-4 variables, each with at most 4
    terms whose exponents are 0, 1, 2^62 or 2^63 - 1."""
    p = draw(st.sampled_from(PRIMES + [0]))
    ring = PolyRing(p, VARIABLES[: draw(st.integers(0, 4))])
    exps = st.tuples(*[st.sampled_from([0, 1, 2**62, LIMIT]) for _ in ring.variables])
    term = st.tuples(exps, st.integers(1, p - 1) if p else st.integers(-4, 4))
    return [ring.from_terms(dict(draw(st.lists(term, max_size=4)))) for _ in range(2)]


def assert_matches_reference(a, b, q=None):
    """a * b (q None) or a.mul_trunc(b, q) equals term_pair_product(a, b, q),
    and raises ExponentOverflowError exactly when the reference does."""
    try:
        expected = term_pair_product(a, b, q)
    except ExponentOverflowError:
        with pytest.raises(ExponentOverflowError):
            a * b if q is None else a.mul_trunc(b, q)
    else:
        assert (a * b if q is None else a.mul_trunc(b, q)) == expected


@settings(deadline=None, max_examples=150)
@given(operands(2, lambda p: 2))
def test_product_is_the_term_pair_product(case):
    _, (a, b), _ = case
    assert_is_the_term_pair_product(a, b)


@settings(deadline=None, max_examples=150)
@given(integer_operands())
def test_integer_product_is_the_term_pair_product(case):
    assert_is_the_term_pair_product(*case)


@settings(deadline=None, max_examples=200)
@given(limit_operands())
def test_products_at_the_exponent_limit(case):
    # * raises exactly when some exponent sum passes 2^63 - 1; mul_trunc
    # skips the pairs that reach q and raises for a kept pair past it
    a, b = case
    for q in (None, 2, 2**62, 2**62 + 1, 2**63, 2**63 + 1, 2**64):
        assert_matches_reference(a, b, q)


@pytest.mark.parametrize("nvars", [1, 4])
def test_from_terms_exponent_range(nvars):
    ring = PolyRing(2, VARIABLES[:nvars])
    low = (0,) * (nvars - 1)
    assert ring.from_terms({low + (LIMIT,): 1}).term_map() == {low + (LIMIT,): 1}
    with pytest.raises(ExponentOverflowError):
        ring.from_terms({low + (LIMIT + 1,): 1})
    with pytest.raises(ValueError) as info:
        ring.from_terms({low + (-1,): 1})
    assert not isinstance(info.value, ExponentOverflowError)


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


@settings(deadline=None, max_examples=150)
@given(st.one_of(operands(2, lambda p: 2 * p).map(lambda case: case[1]), integer_operands()))
def test_mul_trunc_at_the_named_bounds(case):
    # q = 1, p, p^2 and one above every exponent sum (over Z, the bounds of
    # F_3), over F_p and over Z with negative coefficients
    a, b = case
    p = a.ring.char or 3
    top = max((max(e, default=0) for e in (*a.term_map(), *b.term_map())), default=0)
    for q in (1, p, p * p, 2 * top + 1):
        assert_matches_reference(a, b, q)


@settings(deadline=None, max_examples=60)
@given(operands(1, lambda p: p + 1), st.data())
def test_pow_trunc_is_truncated_power(case, data):
    ring, (a,), q = case
    p = ring.char
    e = data.draw(st.integers(0, p * p - p - 1))
    assert a.pow_trunc(e, q) == (a**e).truncate(q)


@settings(deadline=None, max_examples=100)
@given(
    st.one_of(
        operands(1, lambda p: 2 * p).map(lambda case: case[1][0]),
        integer_operands().map(lambda pair: pair[0]),
    ),
    st.integers(0, 5),
)
def test_pow_trunc_at_the_named_bounds(a, e):
    # q = 1 keeps only the constant term, and from 2^63 - 1 on nothing of
    # a small power is cut, over F_p and over Z with negative coefficients
    for q in NAMED_BOUNDS:
        assert a.pow_trunc(e, q) == (a**e).truncate(q)


def binary_power_reference(a, e, q):
    """a^e modulo m^[q] through the products binary powering takes, each
    one a term_pair_product at q, so it raises ExponentOverflowError
    exactly where one of those products keeps a pair past 2^63 - 1."""
    result, base = a.ring.one(), a
    while e > 0:
        if e & 1:
            result = term_pair_product(result, base, q)
        if e > 1:
            base = term_pair_product(base, base, q)
        e >>= 1
    return result


@settings(deadline=None, max_examples=200)
@given(limit_operands(), st.integers(2, 3))
def test_pow_trunc_at_the_exponent_limit(case, e):
    # a kept pair past 2^63 - 1 raises, as in *; the pairs that reach q are
    # skipped, whether q is below 2^63 or not
    a, _ = case
    for q in NAMED_BOUNDS + (2, 2**62, 2**62 + 1, 2**63 + 1):
        try:
            expected = binary_power_reference(a, e, q)
        except ExponentOverflowError:
            with pytest.raises(ExponentOverflowError):
                a.pow_trunc(e, q)
        else:
            assert a.pow_trunc(e, q) == expected


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


@settings(deadline=None, max_examples=200)
@given(limit_operands(), st.integers(1, 3))
def test_packed_frobenius_is_the_frobenius_power(case, k):
    # every key times p^k, with a field that would pass 2^63 - 1 raising
    # before it can spill into the next field
    a, _ = case
    ring = a.ring
    if not ring.char:
        return
    try:
        expected = a.frobenius_power(k)
    except ExponentOverflowError:
        with pytest.raises(ExponentOverflowError):
            ring.frobenius_terms(a.packed(), ring.char**k)
    else:
        assert ring.from_packed(ring.frobenius_terms(a.packed(), ring.char**k)) == expected


@settings(deadline=None, max_examples=300)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 2**11 - 1)] * n), min_size=2, max_size=2)
    )
)
def test_distinct_exponents_below_2_11_hash_apart(pair):
    # the key of (e_1, ..., e_n) hashes to sum e_i 2^(11(i-1)) modulo 2^61 - 1
    ring = PolyRing(2, VARIABLES[: len(pair[0])])
    keys = [next(iter(ring.from_terms({exps: 1}).packed())) for exps in pair]
    assert (hash(keys[0]) == hash(keys[1])) == (pair[0] == pair[1])


@pytest.mark.parametrize(
    "nvars, values",
    [
        (2, range(300)),
        (2, range(0, 2**11, 7)),
        (4, [0, 1, 2, 3, 7, 8, 9, 64, 1023, 1024, 2046, 2047]),
    ],
)
def test_packed_keys_of_a_dense_grid_hash_apart(nvars, values):
    # with 64-bit fields and no pad, e_1 + e_2 2^64 hashed to e_1 + 8 e_2:
    # the 300 x 300 grid shared 2,692 hash values
    ring = PolyRing(2, VARIABLES[:nvars])
    grid = ring.from_terms(dict.fromkeys(itertools.product(values, repeat=nvars), 1))
    assert len({hash(k) for k in grid.packed()}) == len(values) ** nvars
