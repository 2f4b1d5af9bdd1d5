"""Length-n Witt vectors over F_p polynomial rings.

Sums and products never leave F_p.  Each rests on a = [a_0] + V(a'), with
a' = (a_1, ..., a_{n-1}) in W_{n-1}, and on [s] + V(x) = (s, x_0, x_1, ...):

* a*b = [a_0 b_0] + V([a_0^p]*b' + [b_0^p]*a' + p*(a'b')), where
  [t]*(c_0, c_1, ...) = (t c_0, t^p c_1, t^{p^2} c_2, ...) and p*c = V F c.
  p*(a'b') in W_{n-1} reads a'b' only up to length n-2, so a product is
  one product in W_{n-2} and one three-term sum in W_{n-1}.
* a+b = [a_0+b_0] + V(tau(a_0, b_0) + a' + b'), where the carry
  tau in W_{n-1}(F_p[X, Y]) is defined by [X] + [Y] = [X+Y] + V(tau).  A
  sum of several vectors carries its running head into each next head.
* -a = (-a_0, -a_1, ...) for odd p, and (1, 1, ..., 1)*a for p = 2, since
  -1 = 2^n - 1 in W_n(F_2) = Z/2^n.

tau is built once per (p, n), on first use, through the ghost route on
F_p[X, Y], and kept as base-p digit tries (see ``_digit_trie``): its
coordinate tau_k is homogeneous of degree p^{k+1}, and
a^i b^j = a^{i_0} b^{j_0} * F(a^{i'} b^{j'}) for i = i_0 + p i',
j = j_0 + p j', so every power of p or more is an exponent scaling.  When
b = r*a for a constant r (such as two constants, or two multiples of one
monomial), homogeneity gives tau_k(a, b) = tau_k(1, r) * a^{p^{k+1}}, with
tau(1, r) read off W_n(F_p) = Z/p^n, so such heads never need a table.
Other heads evaluate each trie node by Horner's rule (see ``_carry``):
homogeneity splits a node's children by digit sum into at most two
groups, and each group is one Horner pass in a, so every product is a
running value times a head or a power of one.

Sums, products, negatives and ``eval_at_teichmuller`` run on coordinates
held as packed-key term maps {key: coeff} (see ``ring``): each operation
packs its operands once, multiplies and adds them with the ring's own pair
and add loops (``multiply_terms``, ``add_terms``), takes a Frobenius power
as one multiplication of every key by p^k (``PolyRing.frobenius_terms``,
which raises ExponentOverflowError for an exponent past 2^63 - 1), and
unpacks the result once.

The ghost route stays as the reference the tests compare against and as
the builder of tau: lift each coordinate to its representative in [0, p),
build w_k = sum_{i<=k} p^i a_i^{p^{k-i}} over Z, operate componentwise,
and solve back with exact division by p^k.  The divisions are exact because
replacing a coordinate by any lift congruent mod p perturbs the ghost by
multiples of p^{k+1}; that also makes the mod-p reduction of each solved
coordinate lift-independent.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .ring import (
    NO_CUT,
    Poly,
    PolyRing,
    RingMismatchError,
    add_terms,
    multiply_terms,
    scale_terms,
)

LENGTH_CAP = 8


class WittLengthError(ValueError):
    """Witt vector length outside [1, LENGTH_CAP]."""


def _checked_length(n: int) -> int:
    """n, once it lies in [1, LENGTH_CAP]: checked before n components are
    built, so a huge n fails at once."""
    if not 1 <= n <= LENGTH_CAP:
        raise WittLengthError(f"length {n} outside [1, {LENGTH_CAP}]")
    return n


class WittVector:
    """Immutable Witt vector (a_0, ..., a_{n-1}) of polynomials over F_p."""

    __slots__ = ("ring", "components")

    def __init__(self, ring: PolyRing, components: Sequence[Poly]):
        if ring.char == 0:
            raise ValueError("Witt vectors require prime characteristic")
        components = tuple(components)
        _checked_length(len(components))
        for a in components:
            if a.ring != ring:
                raise RingMismatchError("component ring differs from Witt ring context")
        self.ring = ring
        self.components = components

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing, n: int) -> "WittVector":
        return cls.teichmuller(ring.zero(), n)

    @classmethod
    def one(cls, ring: PolyRing, n: int) -> "WittVector":
        return cls.teichmuller(ring.one(), n)

    @classmethod
    def p_element(cls, ring: PolyRing, n: int) -> "WittVector":
        """p = (0, 1, 0, ..., 0)."""
        comps = list(cls.zero(ring, n).components)
        if n > 1:
            comps[1] = ring.one()
        return cls(ring, comps)

    @classmethod
    def teichmuller(cls, f: Poly, n: int) -> "WittVector":
        """[f] = (f, 0, ..., 0); multiplicative but not additive.  Every
        constructor from a length comes here, and n is checked before any
        component is built."""
        return cls(f.ring, [f] + [f.ring.zero()] * (_checked_length(n) - 1))

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.components)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WittVector)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.components))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.components)

    def render(self) -> str:
        return "(" + "; ".join(a.render() for a in self.components) + ")"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"WittVector{self.render()}"

    def _check(self, other: "WittVector") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("Witt operands in different rings")
        if self.n != other.n:
            raise WittLengthError(f"length mismatch {self.n} vs {other.n}")

    # -- ghost components ----------------------------------------------------

    def ghost(self) -> tuple[Poly, ...]:
        """Exact integer ghost vector (w_0, ..., w_{n-1}) of the lifts in [0, p)."""
        lift_ring = self.ring.lift_ring()
        p = self.ring.char
        powers: list[Poly] = []  # lift_i^{p^{k-i}} for i <= k
        out = []
        for k, a in enumerate(self.components):
            powers = [q**p for q in powers] + [a.lift_integers()]
            out.append(_ghost_sum(lift_ring, p, powers))
        return tuple(out)

    @classmethod
    def from_ghost(cls, ring: PolyRing, ghost: Sequence[Poly]) -> "WittVector":
        """Solve the ghost recursion back to Witt coordinates mod p."""
        p = ring.char
        lift_ring = ring.lift_ring()
        comps: list[Poly] = []
        powers: list[Poly] = []  # lift_i^{p^{k-i}} for i < k
        for k, w in enumerate(ghost):
            powers = [q**p for q in powers]
            lower = _ghost_sum(lift_ring, p, powers)
            c = (w - lower).divide_exact(p**k).reduce_mod(ring)
            comps.append(c)
            powers.append(c.lift_integers())
        return cls(ring, comps)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return _unpacked(self.ring, _sum(self.ring, self.n, [_packed(self), _packed(other)]))

    def __neg__(self) -> "WittVector":
        ring = self.ring
        if ring.char == 2:
            minus_one = ({0: 1},) * self.n
            return _unpacked(ring, _product(ring, minus_one, _packed(self)))
        return WittVector(ring, [-a for a in self.components])

    def __sub__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return self + (-other)

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return _unpacked(self.ring, _product(self.ring, _packed(self), _packed(other)))

    # -- structural maps ----------------------------------------------------

    def frobenius(self) -> "WittVector":
        """F(a_0, ..., a_{n-1}) = (a_0^p, ..., a_{n-1}^p); a ring homomorphism."""
        return WittVector(self.ring, [a.frobenius_power() for a in self.components])

    def verschiebung(self) -> "WittVector":
        """V: W_n -> W_{n+1}, (a_0, ..., a_{n-1}) -> (0, a_0, ..., a_{n-1})."""
        return WittVector(self.ring, (self.ring.zero(),) + self.components)

    def restrict(self) -> "WittVector":
        """R: W_{n+1} -> W_n, drop the last coordinate."""
        if self.n == 1:
            raise WittLengthError("cannot restrict a length-1 Witt vector")
        return WittVector(self.ring, self.components[:-1])

    def extend(self, extra: int = 1) -> "WittVector":
        """Append extra >= 0 zero coordinates (a section of restriction).  The
        new length is checked before any coordinate is built."""
        if extra < 0:
            raise WittLengthError(f"cannot extend by {extra} coordinates")
        _checked_length(self.n + extra)
        return WittVector(self.ring, self.components + (self.ring.zero(),) * extra)


def _ghost_sum(lift_ring: PolyRing, p: int, powers: Sequence[Poly]) -> Poly:
    """sum_i p^i powers[i] over Z."""
    total = lift_ring.zero()
    for i, q in enumerate(powers):
        total = total + (p**i) * q
    return total


Terms = dict[int, int]  # packed key -> coefficient in [1, p), see ``ring``
Coords = tuple[Terms, ...]


def _packed(a: WittVector) -> Coords:
    return tuple(c.packed() for c in a.components)


def _unpacked(ring: PolyRing, coords: Coords) -> WittVector:
    return WittVector(ring, [ring.from_packed(c) for c in coords])


def _merged(a: Terms, b: Terms, p: int) -> Terms:
    """a + b for two term maps the caller owns: the smaller is added into the
    larger, which is returned."""
    if len(a) < len(b):
        a, b = b, a
    add_terms(a, b, p)
    return a


def _times(ring: PolyRing, a: Terms, b: Terms) -> Terms:
    return multiply_terms(a.items(), b.items(), ring._mask, ring.char)


def _frobenius(ring: PolyRing, a: Terms, k: int = 1) -> Terms:
    """a^{p^k}: every exponent times p^k; k = 0 returns a."""
    return ring.frobenius_terms(a, ring.char**k) if k else a


def _sum(ring: PolyRing, n: int, vectors: Sequence[Coords]) -> Coords:
    """Sum in W_n of coordinate tuples of length n.

    sum_j ([t_j] + V(v'_j)) = [s] + V(sum_j tau(s_{j-1}, t_j) + sum_j v'_j)
    with s_j = t_1 + ... + t_j and s = s_m: one sum in W_{n-1}.
    """
    vectors = [v for v in vectors if any(v)]
    if len(vectors) < 2:
        return vectors[0] if vectors else ({},) * n
    head: Terms = {}
    tails = [v[1:] for v in vectors]
    for v in vectors:
        if n > 1 and head and v[0]:
            tails.append(_carry(ring, head, v[0], n))
        add_terms(head, v[0], ring.char)
    return (head,) + (_sum(ring, n - 1, tails) if n > 1 else ())


def _teichmuller_times(ring: PolyRing, t: Terms, c: Coords) -> Coords:
    """[t]*(c_0, c_1, ...) = (t c_0, t^p c_1, t^{p^2} c_2, ...)."""
    return tuple(_times(ring, _frobenius(ring, t, k), ck) for k, ck in enumerate(c))


def _product(ring: PolyRing, a: Coords, b: Coords) -> Coords:
    """Product in W_n of coordinate tuples of length n (see module docstring)."""
    n = len(a)
    head = _times(ring, a[0], b[0])
    if n == 1:
        return (head,)
    a1, b1 = a[1:], b[1:]
    parts = [
        _teichmuller_times(ring, _frobenius(ring, a[0]), b1),
        _teichmuller_times(ring, _frobenius(ring, b[0]), a1),
    ]
    if n > 2 and any(a1[:-1]) and any(b1[:-1]):
        c = _product(ring, a1[:-1], b1[:-1])
        parts.append(({},) + tuple(_frobenius(ring, ci) for ci in c))
    return (head,) + _sum(ring, n - 1, parts)


def _ratio(a: Terms, b: Terms, p: int) -> int | None:
    """r in F_p with b = r*a, or None when b is no constant multiple of a."""
    if a.keys() != b.keys():
        return None
    e = next(iter(a))
    r = b[e] * pow(a[e], -1, p) % p
    return r if all(b[k] == r * c % p for k, c in a.items()) else None


def _carry(ring: PolyRing, a: Terms, b: Terms, n: int) -> Coords:
    """tau(a, b) in W_{n-1}: [a] + [b] = [a+b] + V(tau(a, b)) in W_n.

    Each trie node (see ``_digit_trie``) is sum X^i Y^j F(Q_ij) over its
    children, and homogeneity splits them by digit sum s = i + j into at
    most two groups.  A group sum_i G_i a^i b^{s-i}, G_i = Q_ij(a, b)^p, is
    taken as a^lo b^{s-hi} (Horner in a over G_i b^{hi-i}) for its least and
    greatest i, so every product is an accumulator or a child value times a
    head or a power of one, never a^i times b^j.
    """
    p = ring.char
    r = _ratio(a, b, p)
    if r is not None:
        # tau_k is homogeneous of degree p^{k+1}: tau_k(a, r a) = tau_k(1, r) a^{p^{k+1}}
        return tuple(
            scale_terms(_frobenius(ring, a, k + 1), c, p)
            for k, c in enumerate(_scalar_carry(p, n, r))
        )
    a_powers, b_powers = [{0: 1}, a], [{0: 1}, b]

    def power(powers: list[Terms], e: int) -> Terms:
        """powers[1]^e, extending the list of powers one head at a time."""
        while len(powers) <= e:
            powers.append(_times(ring, powers[-1], powers[1]))
        return powers[e]

    def evaluate(trie) -> Terms:
        groups: dict[int, dict[int, object]] = {}
        for (i, j), child in trie:
            groups.setdefault(i + j, {})[i] = child
        total: Terms = {}
        for s, row in groups.items():
            lo, hi = min(row), max(row)
            acc: Terms = {}
            for i in range(hi, lo - 1, -1):
                if acc:
                    acc = _times(ring, acc, a)
                if i in row:
                    child, e = row[i], hi - i
                    if isinstance(child, int):
                        term = scale_terms(power(b_powers, e), child, p)
                    else:
                        term = _frobenius(ring, evaluate(child))
                        if e:
                            term = _times(ring, term, power(b_powers, e))
                    acc = _merged(acc, term, p)
            for powers, e in ((a_powers, lo), (b_powers, s - hi)):
                if e and acc:
                    acc = _times(ring, acc, power(powers, e))
            total = _merged(total, acc, p)
        return total

    return tuple(evaluate(trie) for trie in _carry_table(p, n))


def _scalar_carry(p: int, n: int, r: int) -> tuple[int, ...]:
    """tau(1, r) for r in F_p, read off W_n(F_p) = Z/p^n, where
    (e_0, e_1, ...) is sum_k p^k T(e_k) and T(e) = e^{p^{n-1}} mod p^n is
    the Teichmuller lift."""
    modulus = p**n

    def teichmuller(e: int) -> int:
        return pow(e, p ** (n - 1), modulus)

    value = 1 + teichmuller(r)
    coords = []
    for _ in range(n):
        e = value % p
        coords.append(e)
        value = (value - teichmuller(e)) // p
    return tuple(coords[1:])


@functools.cache
def _carry_table(p: int, n: int) -> tuple:
    """Digit tries of tau_0, ..., tau_{n-2}, where [X] + [Y] = [X+Y] + V(tau)
    in W_n(F_p[X, Y]); built through the ghost route."""
    ring = PolyRing(p, ("X", "Y"))
    x, y = (WittVector.teichmuller(ring.gen(name), n).ghost() for name in ring.variables)
    total = WittVector.from_ghost(ring, [a + b for a, b in zip(x, y)])
    return tuple(_digit_trie(c.term_map(), p) for c in total.components[1:])


def _digit_trie(terms: dict[tuple[int, int], int], p: int) -> tuple:
    """sum c X^i Y^j as ((i_0, j_0), child) pairs, one per class of base-p
    last digits: the polynomial is sum X^{i_0} Y^{j_0} F(Q_{i_0 j_0}) with
    Q_{i_0 j_0} = sum c X^{i // p} Y^{j // p} over the class, and child is
    Q's constant when Q is one, its own trie otherwise."""
    classes: dict[tuple[int, int], dict] = {}
    for (i, j), c in terms.items():
        classes.setdefault((i % p, j % p), {})[i // p, j // p] = c
    return tuple(
        (digits, q[0, 0] if list(q) == [(0, 0)] else _digit_trie(q, p))
        for digits, q in sorted(classes.items())
    )


def delta_carry(f: Poly, q: int | None = None) -> Poly:
    """Carry polynomial of f = sum a_I x^I over F_p:

        (1/p) * ((sum a_I x^I)^p - sum (a_I x^I)^p)

    computed exactly over Z with each coefficient lifted to its
    representative in [0, p), then reduced mod p.  It is the defect of
    Teichmuller additivity: [f] = f([x_1], ..., [x_n]) + V(delta_carry(f))
    in W_2.

    With a bound q the result is delta(f) modulo m^[q] = (x_1^q, ..., x_n^q),
    i.e. delta(f).truncate(q): the lift's p-th power is taken in the
    quotient by m^[q] over Z (``PolyRing.pow_terms`` of the lift ring), and
    only the term powers (a_I x^I)^p with every exponent of pI below q are
    subtracted.  Both steps commute with truncation, and so does the exact
    division by p, because m^[q] is a monomial ideal.  Without q the bound
    is ``ring.NO_CUT``, which cuts nothing, so the result is the full
    delta(f).

    The lift runs on packed keys (see ``ring``): a key is the same in F_p
    and in Z, so f is packed once, the p-th power, the subtraction and the
    division by p work on one term map, and the result is unpacked once.
    """
    ring = f.ring
    p = ring.char
    if not p:
        raise ValueError("delta_carry needs prime characteristic")
    q = NO_CUT if q is None else q
    terms = f.packed()
    power = ring.lift_ring().pow_terms(terms, p, q)
    # the terms whose p-th power survives: every exponent below ceil(q / p);
    # each such power is a key of the lift's power, whose coefficients are
    # all positive
    for k, c in ring.cut_terms(terms, -(-q // p)).items():
        power[k * p] -= c**p
    out = {}
    for k, c in power.items():
        quotient, remainder = divmod(c, p)
        if remainder:
            raise ArithmeticError(f"coefficient {c} not divisible by {p}")
        if r := quotient % p:
            out[k] = r
    return ring.from_packed(out)


def eval_at_teichmuller(f: Poly, n: int) -> WittVector:
    """f([x_1], ..., [x_n]) in W_n: substitute Teichmuller lifts of the
    variables and lift each coefficient through its Teichmuller constant,
    that is, the sum of the lifts [c x^e] of f's terms, taken by one _sum."""
    ring = f.ring
    lifts = [
        _packed(WittVector.teichmuller(ring.from_terms({exps: c}), n)) for exps, c in f.terms()
    ]
    return _unpacked(ring, _sum(ring, _checked_length(n), lifts))


def teichmuller_identity_sides(f: Poly) -> tuple[WittVector, WittVector]:
    """The two sides of [f] = f([x]) + V(delta_carry(f)) in W_2."""
    carry = WittVector(f.ring, [f.ring.zero(), delta_carry(f)])
    return WittVector.teichmuller(f, 2), eval_at_teichmuller(f, 2) + carry


def teichmuller_identity_holds(f: Poly) -> bool:
    """Check [f] = f([x]) + V(delta_carry(f)) in W_2."""
    lhs, rhs = teichmuller_identity_sides(f)
    return lhs == rhs
