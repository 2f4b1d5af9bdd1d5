"""Property tests for products: the pair loop behind ``*``, ``mul_trunc``
and ``pow_trunc`` against a term-by-term reference over F_p and over Z, in
0 to 4 variables and at the 2^63 - 1 exponent limit, and arithmetic in the
quotient by (x_1^q, ..., x_n^q), where truncated products and powers must
equal the truncated full results at every bound, the named ones 1,
2^63 - 1, 2^63 and 2^64 included.  Also the packed keys themselves: their
Frobenius scaling at the limit, and their hashes; the one-term products and
powers against the packed route; and the parser: its token scan against a
character loop, and rendered term maps parsed back."""

import itertools
import re
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit.ring import (  # noqa: E402
    ExponentOverflowError,
    PolyParseError,
    PolyRing,
    _tokens,
    identifiers,
)

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


def packed_product(a, b):
    """a * b by the packed route: both operands packed, ``mul_terms`` at no
    cut, the result unpacked."""
    ring = a.ring
    return ring.from_packed(ring.mul_terms(a.packed(), b.packed()))


def packed_power(a, e):
    """a^e by the packed route: ``pow_terms`` for e < p and over Z, else the
    base-p digit loop, each digit power scaled by ``frobenius_terms``."""
    ring, p = a.ring, a.ring.char
    terms = a.packed()
    if not p or e < p:
        return ring.from_packed(ring.pow_terms(terms, e))
    result, factor = {0: 1}, 1
    while e:
        e, d = divmod(e, p)
        if d:
            result = ring.mul_terms(result, ring.frobenius_terms(ring.pow_terms(terms, d), factor))
        factor *= p
    return ring.from_packed(result)


def assert_same_or_both_overflow(fast, reference):
    """fast() equals reference(), and raises ExponentOverflowError exactly
    when reference() does."""
    try:
        expected = reference()
    except ExponentOverflowError:
        with pytest.raises(ExponentOverflowError):
            fast()
    else:
        got = fast()
        assert got == expected
        assert list(got.term_map()) == list(expected.term_map())


LIMIT_EXPONENTS = [0, 1, 2, 2**31 - 1, 2**62, LIMIT // 3, LIMIT // 3 + 1, LIMIT]


@st.composite
def one_term_operands(draw):
    """(one-term poly, poly of 0-4 terms) over F_p or Z in 0-4 variables,
    exponents from LIMIT_EXPONENTS."""
    p = draw(st.sampled_from(PRIMES + [0]))
    ring = PolyRing(p, VARIABLES[: draw(st.integers(0, 4))])
    exps = st.tuples(*[st.sampled_from(LIMIT_EXPONENTS) for _ in ring.variables])
    coeff = st.integers(1, p - 1) if p else st.integers(-4, 4).filter(bool)
    one = ring.from_terms({draw(exps): draw(coeff)})
    other = ring.from_terms(dict(draw(st.lists(st.tuples(exps, coeff), max_size=4))))
    return one, other


@settings(deadline=None, max_examples=300)
@given(one_term_operands())
def test_one_term_products_match_the_packed_route(case):
    # the one-term path shifts exponent tuples; the result, its term order
    # and its overflows are those of the packed product, on either side
    one, other = case
    assert_same_or_both_overflow(lambda: one * other, lambda: packed_product(one, other))
    assert_same_or_both_overflow(lambda: other * one, lambda: packed_product(other, one))


@settings(deadline=None, max_examples=300)
@given(one_term_operands(), st.data())
def test_one_term_powers_match_the_packed_route(case, data):
    one, _ = case
    p = one.ring.char
    small = [0, 1, 2, 3, 4, 5, 70]
    e = data.draw(st.sampled_from(small + ([p, p + 1, p * p - 1, 2, 2**31 - 1, 3**20] if p else [])))
    assert_same_or_both_overflow(lambda: one**e, lambda: packed_power(one, e))


@pytest.mark.parametrize("p", PRIMES)
def test_one_term_powers_at_the_exponent_limit(p):
    ring = PolyRing(p, ("x", "y"))
    # 2 (2^31 - 1)^2 = 2^63 - 2^33 + 2 is kept, 3 (2^31 - 1)^2 is not
    kept = ring.parse("((x^2147483647)^2147483647)^2")
    assert kept == ring.monomial({"x": 2 * (2**31 - 1) ** 2})
    assert kept == packed_power(ring.monomial({"x": (2**31 - 1) ** 2}), 2)
    with pytest.raises(ExponentOverflowError):
        ring.parse("((x^2147483647)^2147483647)^3")
    with pytest.raises(ExponentOverflowError):
        packed_power(ring.monomial({"x": (2**31 - 1) ** 2}), 3)
    half = ring.monomial({"x": 2**62})
    for product in (lambda: half * half, lambda: packed_product(half, half)):
        with pytest.raises(ExponentOverflowError):
            product()
    # an exponent of exactly 2^63 - 1 is kept, one more raises
    top = ring.monomial({"y": LIMIT})
    assert top**1 == top == packed_power(top, 1)
    third = ring.monomial({"y": LIMIT // 3})
    assert third**3 == ring.monomial({"y": LIMIT - 1}) == packed_power(third, 3)
    with pytest.raises(ExponentOverflowError):
        ring.monomial({"y": LIMIT // 3 + 1}) ** 3
    assert ring.parse("(y*x^2147483647)^2147483647").term_map() == {
        ((2**31 - 1) ** 2, 2**31 - 1): 1
    }


def test_a_zero_coefficient_leaves_no_term_to_overflow():
    # 2 is 0 at p = 2, so 2*x^(2^31 - 1) is the zero polynomial and its
    # power is 0; at p = 3 the power is one term
    assert PolyRing(2, ("x",)).parse("(2*x^2147483647)^2147483647").is_zero()
    power = PolyRing(3, ("x",)).parse("(2*x^2147483647)^2147483647")
    assert power.term_map() == {((2**31 - 1) ** 2,): 2}


WHITESPACE = st.text(alphabet=" \t\n\x1c\u3000", max_size=2)


@st.composite
def rendered_polys(draw):
    """(ring, term map, text): text renders the term map with random
    whitespace, coefficients as products of integer factors (each taken mod
    p), variable powers split into factors or nested (x^a)^b, terms
    subtracted with the negated coefficient, and parenthesised groups."""
    p = draw(st.sampled_from(PRIMES))
    names = draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z"), ("α", "xé", "_1")]))
    ring = PolyRing(p, names)
    exps = st.tuples(*[st.integers(0, 6) for _ in names])
    terms = draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=5))

    def coefficient(c):
        # factors whose product is c mod p, each literal shifted by a
        # multiple of p
        a = draw(st.integers(1, p - 1))
        factors = [c] if draw(st.booleans()) else [a, c * pow(a, -1, p) % p]
        return [[str(f + p * draw(st.sampled_from([0, 1, 10**30])))] for f in factors]

    def power(name, e):
        choice = draw(st.integers(0, 3))
        if choice == 0 and e > 1:
            a = draw(st.integers(1, e - 1))
            return [[name, "^", str(a)], [name, "^", str(e - a)]]
        if choice == 1:
            b = draw(st.sampled_from([d for d in range(1, e + 1) if e % d == 0]))
            return [["(", name, "^", str(e // b), ")", "^", str(b)]]
        return [[name] if e == 1 and choice == 2 else [name, "^", str(e)]]

    def term(e, c):
        factors = [f for name, k in zip(names, e) if k for f in power(name, k)]
        if c != 1 or not factors or draw(st.booleans()):
            factors += coefficient(c)
        factors = draw(st.permutations(factors))
        return [tok for i, f in enumerate(factors) for tok in (["*"] if i else []) + f]

    def summed(pieces):
        # the tokens of a sum of (sign, tokens) summands, with no leading "+"
        out = []
        for i, (sign, toks) in enumerate(pieces):
            out += ([sign] if i or sign == "-" else []) + toks
        return out

    pieces = []
    for e, c in terms.items():
        negative = draw(st.booleans())
        pieces.append(("-" if negative else "+", term(e, p - c if negative else c)))
    if len(pieces) > 1 and draw(st.booleans()):
        # a parenthesised group of the first summands, raised to 1 or not
        cut = draw(st.integers(2, len(pieces)))
        suffix = [")", "^", "1"] if draw(st.booleans()) else [")"]
        pieces = [("+", ["("] + summed(pieces[:cut]) + suffix)] + pieces[cut:]
    tokens = summed(pieces) or ["0"]
    text = draw(WHITESPACE) + "".join(tok + draw(WHITESPACE) for tok in tokens)
    return ring, terms, text


@settings(deadline=None, max_examples=200)
@given(rendered_polys())
def test_rendered_term_maps_parse_to_their_polys(case):
    ring, terms, text = case
    assert ring.parse(text) == ring.from_terms(terms)


def test_regex_classes_are_the_str_predicates():
    # the token pattern's \s is str.isspace() and its \w is str.isalnum()
    # or "_", on every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]


def reference_tokens(text):
    """(token, position) pairs by a character loop: whitespace skipped, a
    run of ASCII digits, a name (first character alphabetic or "_", then
    alphanumeric or "_"), or any other single character."""
    tokens, pos = [], 0
    while pos < len(text):
        ch, start = text[pos], pos
        pos += 1
        if ch.isspace():
            continue
        if ch in "0123456789":
            while pos < len(text) and text[pos] in "0123456789":
                pos += 1
        elif ch.isalpha() or ch == "_":
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
        tokens.append((text[start:pos], start))
    return tokens


TRICKY = "x y_1 23 + - * ^ ( ) \t\n\x1c\u3000\u00b2\u00b3\u0663\u00bd\u2167\u00e9\u03b1\u2118\u4e00"
tricky_text = st.text(alphabet=TRICKY, max_size=30) | st.text(max_size=20)


@settings(deadline=None, max_examples=400)
@given(tricky_text)
def test_tokens_match_the_character_loop(text):
    # non-ASCII digits and numeric signs (superscripts, fractions, Roman
    # numerals) are word characters but start no name
    reference = reference_tokens(text)
    assert _tokens(text) == [token for token, _ in reference] + [""]
    names = [t for t, _ in reference if t[0].isalpha() or t[0] == "_"]
    assert identifiers(text) == names


@settings(deadline=None, max_examples=400)
@given(tricky_text)
def test_parse_errors_point_at_a_token(text):
    # every error position is the start of a token, the end of the text,
    # or the end of an integer (an exponent past the bound)
    ring = PolyRing(5, ("x", "y_1", "\u03b1"))
    reference = reference_tokens(text)
    allowed = {start for _, start in reference} | {len(text)}
    allowed |= {start + len(t) for t, start in reference if t[0] in "0123456789"}
    try:
        ring.parse(text)
    except PolyParseError as err:
        assert err.position in allowed
        token = next((t for t, start in reference if start == err.position), "")
        if "unexpected character" in str(err):
            assert str(err).startswith(f"unexpected character {token[0]!r}")
    except ExponentOverflowError:
        pass
