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

from .ring import Poly, PolyRing, RingMismatchError

LENGTH_CAP = 8


class WittLengthError(ValueError):
    """Witt vector length outside [1, LENGTH_CAP]."""


class WittVector:
    """Immutable Witt vector (a_0, ..., a_{n-1}) of polynomials over F_p."""

    __slots__ = ("ring", "components")

    def __init__(self, ring: PolyRing, components: Sequence[Poly]):
        if ring.char == 0:
            raise ValueError("Witt vectors require prime characteristic")
        components = tuple(components)
        if not 1 <= len(components) <= LENGTH_CAP:
            raise WittLengthError(
                f"length {len(components)} outside [1, {LENGTH_CAP}]"
            )
        for a in components:
            if a.ring != ring:
                raise RingMismatchError("component ring differs from Witt ring context")
        self.ring = ring
        self.components = components

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing, n: int) -> "WittVector":
        return cls(ring, [ring.zero()] * n)

    @classmethod
    def one(cls, ring: PolyRing, n: int) -> "WittVector":
        return cls.teichmuller(ring.one(), n)

    @classmethod
    def p_element(cls, ring: PolyRing, n: int) -> "WittVector":
        """p = (0, 1, 0, ..., 0)."""
        if n < 2:
            return cls.zero(ring, n)
        comps = [ring.zero()] * n
        comps[1] = ring.one()
        return cls(ring, comps)

    @classmethod
    def teichmuller(cls, f: Poly, n: int) -> "WittVector":
        """[f] = (f, 0, ..., 0); multiplicative but not additive."""
        return cls(f.ring, [f if i == 0 else f.ring.zero() for i in range(n)])

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
        return WittVector(self.ring, _sum(self.ring, self.n, [self.components, other.components]))

    def __neg__(self) -> "WittVector":
        ring = self.ring
        if ring.char == 2:
            minus_one = (ring.one(),) * self.n
            return WittVector(ring, _product(ring, minus_one, self.components))
        return WittVector(ring, [-a for a in self.components])

    def __sub__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return self + (-other)

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return WittVector(self.ring, _product(self.ring, self.components, other.components))

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
        """Append zero coordinates (a section of restriction)."""
        return WittVector(self.ring, self.components + (self.ring.zero(),) * extra)


def _ghost_sum(lift_ring: PolyRing, p: int, powers: Sequence[Poly]) -> Poly:
    """sum_i p^i powers[i] over Z."""
    total = lift_ring.zero()
    for i, q in enumerate(powers):
        total = total + (p**i) * q
    return total


Coords = tuple[Poly, ...]


def _sum(ring: PolyRing, n: int, vectors: Sequence[Coords]) -> Coords:
    """Sum in W_n of coordinate tuples of length n.

    sum_j ([t_j] + V(v'_j)) = [s] + V(sum_j tau(s_{j-1}, t_j) + sum_j v'_j)
    with s_j = t_1 + ... + t_j and s = s_m: one sum in W_{n-1}.
    """
    vectors = [v for v in vectors if any(v)]
    if len(vectors) < 2:
        return vectors[0] if vectors else (ring.zero(),) * n
    head, tails = ring.zero(), [v[1:] for v in vectors]
    for v in vectors:
        if n > 1 and head and v[0]:
            tails.append(_carry(head, v[0], n))
        head = head + v[0]
    return (head,) + (_sum(ring, n - 1, tails) if n > 1 else ())


def _teichmuller_times(t: Poly, c: Coords) -> Coords:
    """[t]*(c_0, c_1, ...) = (t c_0, t^p c_1, t^{p^2} c_2, ...)."""
    return tuple(t.frobenius_power(k) * ck for k, ck in enumerate(c))


def _product(ring: PolyRing, a: Coords, b: Coords) -> Coords:
    """Product in W_n of coordinate tuples of length n (see module docstring)."""
    n = len(a)
    head = a[0] * b[0]
    if n == 1:
        return (head,)
    a1, b1 = a[1:], b[1:]
    parts = [
        _teichmuller_times(a[0].frobenius_power(), b1),
        _teichmuller_times(b[0].frobenius_power(), a1),
    ]
    if n > 2 and any(a1[:-1]) and any(b1[:-1]):
        c = _product(ring, a1[:-1], b1[:-1])
        parts.append((ring.zero(),) + tuple(ci.frobenius_power() for ci in c))
    return (head,) + _sum(ring, n - 1, parts)


def _ratio(a: Poly, b: Poly) -> int | None:
    """r in F_p with b = r*a, or None when b is no constant multiple of a."""
    ta, tb = a.term_map(), b.term_map()
    if ta.keys() != tb.keys():
        return None
    p = a.ring.char
    e = next(iter(ta))
    r = tb[e] * pow(ta[e], -1, p) % p
    return r if all(tb[k] == r * c % p for k, c in ta.items()) else None


def _carry(a: Poly, b: Poly, n: int) -> Coords:
    """tau(a, b) in W_{n-1}: [a] + [b] = [a+b] + V(tau(a, b)) in W_n."""
    ring = a.ring
    p = ring.char
    r = _ratio(a, b)
    if r is not None:
        # tau_k is homogeneous of degree p^{k+1}: tau_k(a, r a) = tau_k(1, r) a^{p^{k+1}}
        return tuple(c * a.frobenius_power(k + 1) for k, c in enumerate(_scalar_carry(p, n, r)))
    a_powers, b_powers = [ring.one(), a], [ring.one(), b]
    products: dict[tuple[int, int], Poly] = {}

    def power(i: int, j: int) -> Poly:
        """a^i b^j for 0 <= i, j < p, not both 0."""
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
    quotient by m^[q] over Z (``pow_trunc``), and only the term powers
    (a_I x^I)^p with every exponent of pI below q are subtracted.  Both
    steps commute with truncation, and so does the exact division by p,
    because m^[q] is a monomial ideal.  Without q the result is the full
    delta(f).
    """
    ring = f.ring
    p = ring.char
    if not p:
        raise ValueError("delta_carry needs prime characteristic")
    lifted = f.lift_integers()
    lift_ring = lifted.ring
    power = lifted**p if q is None else lifted.pow_trunc(p, q)
    term_powers = {
        tuple(e * p for e in exps): c**p
        for exps, c in lifted.term_map().items()
        if q is None or max(exps, default=0) * p < q
    }
    carry = (power - lift_ring.from_terms(term_powers)).divide_exact(p)
    return carry.reduce_mod(ring)


def eval_at_teichmuller(f: Poly, n: int) -> WittVector:
    """f([x_1], ..., [x_n]) in W_n: substitute Teichmuller lifts of the
    variables and lift each coefficient through its Teichmuller constant,
    that is, the sum of the lifts [c x^e] of f's terms, taken by one _sum."""
    ring = f.ring
    lifts = [
        WittVector.teichmuller(ring.from_terms({exps: c}), n).components
        for exps, c in f.terms()
    ]
    return WittVector(ring, _sum(ring, n, lifts))


def teichmuller_identity_sides(f: Poly) -> tuple[WittVector, WittVector]:
    """The two sides of [f] = f([x]) + V(delta_carry(f)) in W_2."""
    carry = WittVector(f.ring, [f.ring.zero(), delta_carry(f)])
    return WittVector.teichmuller(f, 2), eval_at_teichmuller(f, 2) + carry


def teichmuller_identity_holds(f: Poly) -> bool:
    """Check [f] = f([x]) + V(delta_carry(f)) in W_2."""
    lhs, rhs = teichmuller_identity_sides(f)
    return lhs == rhs
