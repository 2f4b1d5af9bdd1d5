"""Property tests for Witt arithmetic over F_p: every sum, difference,
product and negative equals the ghost route's answer, no operation changes
its operands, equal vectors hash equal, the carry polynomial delta computed
modulo m^[q] equals the full one truncated, delta of a power taken by the
identity of ``delta_of_power`` equals delta of the power itself, the
divided-power layers equal the truncated powers over their factorials and
minus delta's definition over Z (``lifted_delta``), and the packed kernel
of sums, products and the Horner carry equals the Poly-based code it
replaced, kept here as the reference.  Both comparisons reach down to where
ExponentOverflowError is raised."""

import itertools
import math
import operator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit.ring import NO_CUT, ExponentOverflowError, Poly, PolyRing, scale_terms  # noqa: E402
from qfsplit.witt import (  # noqa: E402
    WittVector,
    _carry,
    _carry_table,
    _scalar_carry,
    delta_carry,
    delta_of_power,
    divided_power_layers,
)


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


@settings(deadline=None, max_examples=100)
@given(vector_pairs())
def test_operations_leave_operands_unchanged_and_equal_vectors_hash_equal(case):
    # vectors share their packed coordinate maps, so an operation that wrote
    # into an operand's map would change the operand, and every result that
    # shares the map, after the fact
    u, v = case
    ring, n = u.ring, u.n
    before = [u.components, v.components]
    operands = [u, v, u + v, u * v, -u, u - v]  # kernel results as operands too
    before += [w.components for w in operands[2:]]
    results = []
    for a in operands:
        results += [-a, a.frobenius(), a.verschiebung(), a.extend(1)]
        if n > 1:
            results.append(a.restrict())
        for b in operands:
            results += [a + b, a - b, a * b]
    assert [w.components for w in operands] == before
    for w in operands + results:
        rebuilt = WittVector(ring, w.components)
        assert rebuilt == w and hash(rebuilt) == hash(w)
    for left, right in ((u + v, v + u), (u * v, v * u), (u - u, WittVector.zero(ring, n))):
        assert left == right and hash(left) == hash(right)


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


def lifted_delta(f: Poly) -> Poly:
    """delta(f) by its definition over Z, the reference for the layers'
    delta: lift the coefficients, subtract the term powers from the p-th
    power, divide by p exactly and reduce mod p."""
    p = f.ring.char
    lifted = f.lift_integers()
    term_powers = lifted.ring.from_terms(
        {tuple(e * p for e in exps): c**p for exps, c in lifted.term_map().items()}
    )
    return (lifted**p - term_powers).divide_exact(p).reduce_mod(f.ring)


@settings(deadline=None, max_examples=150)
@given(bounded_deltas())
def test_packed_delta_is_the_lifted_delta(case):
    f, _ = case
    assert delta_carry(f) == lifted_delta(f)


@st.composite
def layer_cases(draw):
    """(f, low, top, q) for ``divided_power_layers``: f over F_p,
    p in {2, 3, 5, 7, 11}, in 1-4 variables, either a few terms of
    exponent up to p + 1 or a dense support (every monomial of total degree
    at most 2, or at most 1 in 4 variables at p = 11, where the lifted
    delta's 11th power over Z outgrows a test), and any 0 <= low <= top <= p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(p, ("x", "y", "z", "w")[:nvars])
    coeff = st.integers(1, p - 1)
    if draw(st.booleans()):
        degree = 1 if (p, nvars) == (11, 4) else 2
        grid = itertools.product(range(degree + 1), repeat=nvars)
        support = [e for e in grid if sum(e) <= degree]
        f = ring.from_terms({e: draw(coeff) for e in support})
    else:
        exps = st.tuples(*[st.integers(0, p + 1) for _ in range(nvars)])
        f = ring.from_terms(dict(draw(st.lists(st.tuples(exps, coeff), max_size=5))))
    low = draw(st.integers(0, p))
    top = draw(st.integers(low, p))
    return f, low, top, draw(st.sampled_from([1, p, p + 1, p * p, p * p + 1, NO_CUT]))


@settings(deadline=None, max_examples=200)
@given(layer_cases())
@example((PolyRing(3, ("x", "y")).parse("x + y"), 0, 3, NO_CUT))
@example((PolyRing(5, ("x", "y", "z")).parse("x^3 + y^3 + z^3"), 3, 4, 5))  # clause 1
@example((PolyRing(5, ("x", "y", "z")).parse("x^3 + y^3 + z^3"), 4, 5, 25))  # clause 2
def test_layers_are_the_powers_over_their_factorials_and_minus_delta(case):
    """L_k = f^k / k! modulo m^[q] for k < p (``PolyRing.pow_terms``), and
    L_p = -delta(f) modulo m^[q] (the lifted delta, truncated)."""
    f, low, top, q = case
    ring = f.ring
    p = ring.char
    layers = divided_power_layers(ring, f.packed(), low, top, q)
    assert len(layers) == top - low + 1
    for k, layer in enumerate(layers, start=low):
        if k < p:
            power = ring.pow_terms(f.packed(), k, q)
            expected = scale_terms(power, pow(math.factorial(k), -1, p), p)
            assert layer == expected, k
        else:
            assert ring.from_packed(layer) == -lifted_delta(f).truncate(min(q, 2**63)), k


@pytest.mark.parametrize(
    "p, top, lift_raises",
    [
        (2, 2**62, True),  # x^(2^63) in the lift's square
        (3, (2**63 - 1) // 3, False),  # the cube of x^top is x^(2^63 - 2)
        (3, (2**63 - 1) // 3 + 1, True),  # the cube of x^top passes 2^63 - 1
    ],
)
def test_delta_at_the_exponent_limit(p, top, lift_raises):
    # delta of x^N + y, N = top, by hand: ((x^N + y)^2 - x^(2N) - y^2) / 2
    # = x^N y at p = 2, and ((x^N + y)^3 - x^(3N) - y^3) / 3
    # = x^(2N) y + x^N y^2 at p = 3.  The lift forms the term power x^(pN),
    # which the layers never do, so delta is exact wherever x^(2N) is in
    # range; the bound p^2 cuts x^N before any of its powers is formed
    ring = PolyRing(p, ("x", "y"))
    f = ring.from_terms({(top, 0): 1, (0, 1): 1})
    by_hand = {2: {(top, 1): 1}, 3: {(2 * top, 1): 1, (top, 2): 1}}[p]
    assert delta_carry(f) == ring.from_terms(by_hand)
    if lift_raises:
        with pytest.raises(ExponentOverflowError):
            lifted_delta(f)
    else:
        assert delta_carry(f) == lifted_delta(f)
    assert delta_carry(f, p * p).is_zero()


@pytest.mark.parametrize(
    "p, terms",
    [
        # x^(2N) = x^(2^63) is kept in layer 2 (a term power), N = 2^62
        (3, {(2**62, 0): 1, (0, 1): 1}),
        # x^(4N) = x^(2^63 + 4) is kept in layer 4, N = 2^61 + 1
        (5, {(2**61 + 1, 0): 1, (0, 1): 1}),
        # x^N times x^N y is x^(2^63) y, kept in layer 2 (a product key)
        (2, {(2**62, 0): 1, (2**62, 1): 1}),
    ],
)
def test_delta_raises_past_the_exponent_limit(p, terms):
    # a kept exponent past 2^63 - 1 raises, and so does the lift; the bound
    # p^2 cuts every term of f with such an exponent
    ring = PolyRing(p, ("x", "y"))
    f = ring.from_terms(terms)
    with pytest.raises(ExponentOverflowError):
        delta_carry(f)
    with pytest.raises(ExponentOverflowError):
        lifted_delta(f)
    assert delta_carry(f, p * p).is_zero()


def test_layers_cut_before_the_exponent_limit():
    # the layers raise only for a kept exponent: x^(2N) = x^(2^63) is cut at
    # q = 2^63, and a top layer below 2 never forms it
    ring = PolyRing(3, ("x", "y"))
    f = ring.from_terms({(2**62, 0): 1, (0, 1): 1})
    assert delta_carry(f, 2**63) == ring.from_terms({(2**62, 2): 1})
    assert divided_power_layers(ring, f.packed(), 1, 1) == [f.packed()]
    with pytest.raises(ExponentOverflowError):
        divided_power_layers(ring, f.packed(), 2, 2)


@st.composite
def powers(draw):
    """(f, k, q): f over F_p in 1-2 variables with at most 3 terms of
    exponent up to p + 1, k in [1, 2p] (so k = p and multiples of p, where
    the k * F(f^{k-1}) * delta(f) part is 0, are drawn), and q on both sides
    of p and p^2, or no cut."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ring = PolyRing(p, ("x", "y")[: draw(st.integers(1, 2))])
    exps = st.tuples(*[st.integers(0, p + 1) for _ in ring.variables])
    f = ring.from_terms(dict(draw(st.lists(st.tuples(exps, st.integers(1, p - 1)), max_size=3))))
    q = draw(st.sampled_from([1, p, p + 1, p * p, p * p + 1, NO_CUT]))
    return f, draw(st.integers(1, 2 * p)), q


@settings(deadline=None, max_examples=200)
@given(powers())
@example((PolyRing(3, ("x", "y")).parse("x + y"), 2, NO_CUT))  # F(eps) = x^3 y^3
@example((PolyRing(5, ("x", "y")).parse("x^2 + 3*y + x*y"), 5, 26))  # k = p: no delta(f) part
def test_delta_of_a_power_is_delta_of_the_power(case):
    f, k, q = case
    assert delta_of_power(f, k, q) == delta_carry(f**k, q)


# -- the Poly-based kernel the packed one replaced -------------------------


def reference_ratio(a: Poly, b: Poly) -> int | None:
    """r in F_p with b = r*a, or None when b is no constant multiple of a."""
    ta, tb = a.term_map(), b.term_map()
    if ta.keys() != tb.keys():
        return None
    p = a.ring.char
    e = next(iter(ta))
    r = tb[e] * pow(ta[e], -1, p) % p
    return r if all(tb[k] == r * c % p for k, c in ta.items()) else None


def reference_carry(a: Poly, b: Poly, n: int) -> tuple[Poly, ...]:
    """tau(a, b) in W_{n-1} from the digit tries, each node summing
    value * a^i b^j with a^i b^j a product of two cached powers."""
    ring = a.ring
    p = ring.char
    r = reference_ratio(a, b)
    if r is not None:
        return tuple(c * a.frobenius_power(k + 1) for k, c in enumerate(_scalar_carry(p, n, r)))
    a_powers, b_powers = [ring.one(), a], [ring.one(), b]
    products: dict[tuple[int, int], Poly] = {}

    def power(i: int, j: int) -> Poly:
        if (i, j) not in products:
            while len(a_powers) <= i:
                a_powers.append(a_powers[-1] * a)
            while len(b_powers) <= j:
                b_powers.append(b_powers[-1] * b)
            if i and j:
                products[i, j] = a_powers[i] * b_powers[j]
            else:
                products[i, j] = a_powers[i] if i else b_powers[j]
        return products[i, j]

    def evaluate(trie) -> Poly:
        total = ring.zero()
        for (i, j), child in trie:
            value = child if isinstance(child, int) else evaluate(child).frobenius_power()
            total = total + (value * power(i, j) if i or j else value)
        return total

    return tuple(evaluate(trie) for trie in _carry_table(p, n))


def reference_sum(ring: PolyRing, n: int, vectors) -> tuple[Poly, ...]:
    vectors = [v for v in vectors if any(v)]
    if len(vectors) < 2:
        return vectors[0] if vectors else (ring.zero(),) * n
    head, tails = ring.zero(), [v[1:] for v in vectors]
    for v in vectors:
        if n > 1 and head and v[0]:
            tails.append(reference_carry(head, v[0], n))
        head = head + v[0]
    return (head,) + (reference_sum(ring, n - 1, tails) if n > 1 else ())


def reference_product(ring: PolyRing, a, b) -> tuple[Poly, ...]:
    def teichmuller_times(t, c):
        return tuple(t.frobenius_power(k) * ck for k, ck in enumerate(c))

    n = len(a)
    head = a[0] * b[0]
    if n == 1:
        return (head,)
    a1, b1 = a[1:], b[1:]
    parts = [
        teichmuller_times(a[0].frobenius_power(), b1),
        teichmuller_times(b[0].frobenius_power(), a1),
    ]
    if n > 2 and any(a1[:-1]) and any(b1[:-1]):
        c = reference_product(ring, a1[:-1], b1[:-1])
        parts.append((ring.zero(),) + tuple(ci.frobenius_power() for ci in c))
    return (head,) + reference_sum(ring, n - 1, parts)


def reference_negative(u: WittVector) -> tuple[Poly, ...]:
    ring = u.ring
    if ring.char == 2:
        return reference_product(ring, (ring.one(),) * u.n, u.components)
    return tuple(-a for a in u.components)


def outcome(compute):
    """compute()'s coordinates, or "overflow" if it raises ExponentOverflowError."""
    try:
        value = compute()
    except ExponentOverflowError:
        return "overflow"
    return value.components if isinstance(value, WittVector) else tuple(value)


def packed_carry(a: Poly, b: Poly, n: int) -> tuple[Poly, ...]:
    ring = a.ring
    return tuple(ring.from_packed(c) for c in _carry(ring, a.packed(), b.packed(), n))


# -- the Horner carry against the reference ----------------------------------


def head_shape(p: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """(monomials, most terms) a head is drawn from, bounded as in
    coordinate_shape: tau reaches degree p^{n-1} in the heads, so past 27
    the heads are univariate, where a power of a few terms stays small."""
    if p ** (n - 1) <= 27:
        return [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)], 3
    return [(0, 0), (1, 0), (2, 0), (3, 0)], 3


@st.composite
def carry_heads(draw):
    """(a, b, n), both heads nonzero, over F_p[x, y] with p in {2, 3, 5, 7}
    and n in {2, 3, 4}: a monomial head, proportional heads, heads sharing a
    monomial, or two free multi-term heads."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 4))
    ring = PolyRing(p, ("x", "y"))
    monomials, most = head_shape(p, n)
    coefficient = st.integers(1, p - 1)

    def head(size):
        least, most_terms = size
        chosen = st.lists(st.sampled_from(monomials), min_size=least, max_size=most_terms, unique=True)
        return ring.from_terms({e: draw(coefficient) for e in draw(chosen)})

    kind = draw(st.sampled_from(["monomial", "proportional", "shared", "free"]))
    a = head((1, 1) if kind == "monomial" else (2, most))
    if kind == "proportional":
        b = draw(coefficient) * a
    elif kind == "shared":
        shared = draw(st.sampled_from(sorted(a.term_map())))
        b = head((1, most - 1)) + ring.from_terms({shared: draw(coefficient)})
    else:
        b = head((2, most))
    return a, b or a, n


@settings(deadline=None, max_examples=150)
@given(carry_heads())
@example(tuple(PolyRing(7, ("x", "y")).parse(h) for h in ("x^3 + 2*x + 1", "3*x^2 + 5")) + (4,))
@example(tuple(PolyRing(2, ("x", "y")).parse(h) for h in ("x + y + x*y", "x")) + (4,))
def test_horner_carry_equals_the_reference(case):
    a, b, n = case
    expected = reference_carry(a, b, n)
    assert packed_carry(a, b, n) == expected
    # the zero tail: [a] + [b] = [a + b] + V(tau(a, b))
    lifts = WittVector.teichmuller(a, n) + WittVector.teichmuller(b, n)
    assert lifts.components == (a + b,) + expected


# -- overflow in the packed kernel ---------------------------------------------

HUGE = [0, 1, 2**60, 2**61, 2**62]


@st.composite
def huge_vector_pairs(draw):
    """(u, v) of one length n <= 4 over F_p[x, y], p in {2, 3, 5, 7}, with
    every exponent in HUGE; bivariate while p^{n-1} <= 27, else in x only,
    as in coordinate_shape."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    ring = PolyRing(p, ("x", "y"))
    ys = HUGE if p ** (n - 1) <= 27 else [0]
    term = st.tuples(st.tuples(st.sampled_from(HUGE), st.sampled_from(ys)), st.integers(1, p - 1))

    def vector():
        return WittVector(
            ring, [ring.from_terms(dict(draw(st.lists(term, max_size=2)))) for _ in range(n)]
        )

    return vector(), vector()


@settings(deadline=None, max_examples=300)
@given(huge_vector_pairs())
def test_packed_kernel_overflows_where_the_reference_does(case):
    u, v = case
    ring, n = u.ring, u.n
    a, b = u.components, v.components
    assert outcome(lambda: u + v) == outcome(lambda: reference_sum(ring, n, [a, b]))
    assert outcome(lambda: u * v) == outcome(lambda: reference_product(ring, a, b))
    assert outcome(lambda: -u) == outcome(lambda: reference_negative(u))
