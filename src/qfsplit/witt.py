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

A vector stores its coordinates as packed-key term maps {key: coeff}
(see ``ring``): the public constructor packs its Poly components once, and
``components`` unpacks them on each read.  Sums, products, negatives,
Frobenius, Verschiebung and ``eval_at_teichmuller`` run on the stored maps:
products and sums go through the ring's own pair and add loops
(``multiply_terms``, ``add_terms``), and a Frobenius power is one
multiplication of every key by p^k (``PolyRing.frobenius_terms``, which
raises ExponentOverflowError for an exponent past 2^63 - 1).  Results share
maps with their operands, so no operation mutates an operand's map: every
map an operation writes into is one it built itself.

The carry delta(f) of [f] = f([x_1], ..., [x_n]) + V(delta(f)) in W_2
never leaves F_p either: it is -L_p, one layer of the truncated product
prod_i E(a_i m_i T) over the terms a_i m_i of f, with E(u) the exponential
series cut below u^p (``divided_power_layers``, whose docstring proves it).
The same run gives the powers f^k = k! L_k for k < p, which the
hypersurface clauses read, so neither needs a lift to Z/p^2 or a powering
chain.

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
    ExponentOverflowError,
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


Terms = dict[int, int]  # packed key -> coefficient in [1, p), see ``ring``
Coords = tuple[Terms, ...]


def _check_prime(ring: PolyRing) -> None:
    if ring.char == 0:
        raise ValueError("Witt vectors require prime characteristic")


def _checked_length(n: int) -> int:
    """n, once it lies in [1, LENGTH_CAP]: checked before n components are
    built, so a huge n fails at once."""
    if not 1 <= n <= LENGTH_CAP:
        raise WittLengthError(f"length {n} outside [1, {LENGTH_CAP}]")
    return n


class WittVector:
    """Immutable Witt vector (a_0, ..., a_{n-1}) of polynomials over F_p.

    The coordinates are stored as packed-key term maps (module docstring)
    and may be shared with other vectors; no operation mutates them.
    ``components`` unpacks them into Polys on each read.
    """

    __slots__ = ("ring", "_coords")

    def __init__(self, ring: PolyRing, components: Sequence[Poly]):
        _check_prime(ring)
        components = tuple(components)
        _checked_length(len(components))
        for a in components:
            if a.ring != ring:
                raise RingMismatchError("component ring differs from Witt ring context")
        self.ring = ring
        self._coords: Coords = tuple(a.packed() for a in components)

    @classmethod
    def _of(cls, ring: PolyRing, coords: Coords) -> "WittVector":
        """The vector of packed coordinates the kernel built; checks nothing."""
        vector = object.__new__(cls)
        vector.ring = ring
        vector._coords = coords
        return vector

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
        coords = cls.zero(ring, n)._coords
        return cls._of(ring, coords[:1] + ({0: 1},) + coords[2:] if n > 1 else coords)

    @classmethod
    def teichmuller(cls, f: Poly, n: int) -> "WittVector":
        """[f] = (f, 0, ..., 0); multiplicative but not additive.  Every
        constructor from a length comes here, and n is checked before any
        component is built."""
        zeros = ({},) * (_checked_length(n) - 1)
        _check_prime(f.ring)
        return cls._of(f.ring, (f.packed(),) + zeros)

    # -- basic structure ----------------------------------------------------

    @property
    def components(self) -> tuple[Poly, ...]:
        """The coordinates as Polys, unpacked on each read."""
        return tuple(self.ring.from_packed(c) for c in self._coords)

    @property
    def n(self) -> int:
        return len(self._coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WittVector)
            and self.ring == other.ring
            and self._coords == other._coords
        )

    def __hash__(self) -> int:
        return hash((self.ring, tuple(frozenset(c.items()) for c in self._coords)))

    def is_zero(self) -> bool:
        return not any(self._coords)

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
        return WittVector._of(self.ring, _sum(self.ring, self.n, [self._coords, other._coords]))

    def __neg__(self) -> "WittVector":
        ring = self.ring
        if ring.char == 2:
            minus_one = ({0: 1},) * self.n
            return WittVector._of(ring, _product(ring, minus_one, self._coords))
        return WittVector._of(ring, tuple(scale_terms(c, -1, ring.char) for c in self._coords))

    def __sub__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return self + (-other)

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return WittVector._of(self.ring, _product(self.ring, self._coords, other._coords))

    # -- structural maps ----------------------------------------------------

    def frobenius(self) -> "WittVector":
        """F(a_0, ..., a_{n-1}) = (a_0^p, ..., a_{n-1}^p); a ring homomorphism."""
        ring = self.ring
        return WittVector._of(ring, tuple(_frobenius(ring, c) for c in self._coords))

    def verschiebung(self) -> "WittVector":
        """V: W_n -> W_{n+1}, (a_0, ..., a_{n-1}) -> (0, a_0, ..., a_{n-1})."""
        _checked_length(self.n + 1)
        return WittVector._of(self.ring, ({},) + self._coords)

    def restrict(self) -> "WittVector":
        """R: W_{n+1} -> W_n, drop the last coordinate."""
        if self.n == 1:
            raise WittLengthError("cannot restrict a length-1 Witt vector")
        return WittVector._of(self.ring, self._coords[:-1])

    def extend(self, extra: int = 1) -> "WittVector":
        """Append extra >= 0 zero coordinates (a section of restriction).  The
        new length is checked before any coordinate is built."""
        if extra < 0:
            raise WittLengthError(f"cannot extend by {extra} coordinates")
        _checked_length(self.n + extra)
        return WittVector._of(self.ring, self._coords + ({},) * extra)


def _ghost_sum(lift_ring: PolyRing, p: int, powers: Sequence[Poly]) -> Poly:
    """sum_i p^i powers[i] over Z."""
    total = lift_ring.zero()
    for i, q in enumerate(powers):
        total = total + (p**i) * q
    return total


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


def divided_power_layers(
    ring: PolyRing, terms: Terms, low: int, top: int, q: int = NO_CUT
) -> list[Terms]:
    """The layers L_low, ..., L_top of f = sum_i a_i m_i, the packed term
    map terms over F_p, modulo m^[q], for 0 <= low <= top <= p:

        L_j = [T^j] prod_i E(a_i m_i T),   E(u) = sum_{0 <= l < p} u^l / l!,

    so L_j = sum over the alpha with |alpha| = j and every alpha_i < p of
    prod_i a_i^{alpha_i} m_i^{alpha_i} / alpha_i!, read in F_p.  They give

        f^k = k! L_k for k < p,   delta(f) = -L_p.

    Proof.  The multinomial theorem gives f^k = sum_{|alpha| = k}
    k! / prod_i alpha_i! * prod_i (a_i m_i)^{alpha_i}, and for k < p every
    alpha_i < p, so f^k = k! L_k.  For delta, lift each a_i to [0, p):
    f^p - sum_i (a_i m_i)^p is the sum over |alpha| = p with every
    alpha_i < p of binom(p; alpha) prod_i (a_i m_i)^{alpha_i}, since the
    alpha with some alpha_i = p are exactly the term powers it subtracts.
    For those alpha, binom(p; alpha) / p = (p - 1)! / prod_i alpha_i!, and
    (p - 1)! = -1 mod p (Wilson), so delta(f) = -L_p mod p.  Lifts of a_i
    congruent mod p change the sum only by multiples of p^2, so no integer
    above p is needed.  The cut to m^[q] commutes with the recurrence
    because exponents only grow along it: a term of a layer whose exponent
    reaches q leads only to terms that reach q.

    The product is taken one term at a time, in place, highest layer first:
    L_j += sum_{0 < l <= j} L_{j-l} (a_i m_i)^l / l!.  Each power l*m_i is
    built by repeated addition and stops at the cut, so a term's reach, the
    most it can raise a layer, is its number of uncut powers.  After term
    i, a layer whose index plus the reach of the terms left is below low
    can no longer reach low and is dropped.  Keys follow the cut rule of
    ``PolyRing._cut``: an uncut power or a kept product key with an
    exponent past 2^63 - 1 raises ExponentOverflowError (also when its term
    cancels), and no field spills into the next, since every summand's
    fields stay below 2^63.
    """
    p = ring.char
    bias, mask = ring._cut(q), ring._mask
    cut = mask << 1
    steps = []  # per term: (l, biased key of m^l, a^l / l!) for the uncut l
    for key, a in terms.items():
        powers, k, c = [], 0, 1
        for l in range(1, min(p - 1, top) + 1):
            k += key
            if (k + bias) & cut:
                break
            if k & mask:
                raise ExponentOverflowError("exponent overflow in a divided power")
            c = c * a * pow(l, -1, p) % p
            powers.append((l, k + bias, c))
        steps.append(powers)
    reach = sum(len(powers) for powers in steps)
    layers = [ring.cut_terms({0: 1}, q)] + [{} for _ in range(top)]
    for powers in steps:
        reach -= len(powers)
        floor = max(low - reach, 0)
        for j in range(top, floor - 1, -1):
            out: Terms = {}
            get = out.get
            for l, kb, c in powers:
                if l > j:
                    break
                for k, v in layers[j - l].items():
                    s = k + kb
                    if not s & cut:
                        out[s] = get(s, 0) + v * c
            layer = layers[j]
            for s, v in out.items():
                s -= bias
                if s & mask:
                    raise ExponentOverflowError("exponent overflow in a divided power")
                if v := (layer.get(s, 0) + v) % p:
                    layer[s] = v
                elif s in layer:
                    del layer[s]
        for j in range(floor):
            layers[j] = {}
    return layers[low : top + 1]


def delta_carry(f: Poly, q: int | None = None) -> Poly:
    """Carry polynomial of f = sum a_I x^I over F_p:

        (1/p) * ((sum a_I x^I)^p - sum (a_I x^I)^p)

    with each coefficient lifted to its representative in [0, p), then
    reduced mod p.  It is the defect of Teichmuller additivity:
    [f] = f([x_1], ..., [x_n]) + V(delta_carry(f)) in W_2.

    It is -L_p of ``divided_power_layers``, whose docstring proves it, so
    it needs no lift to Z/p^2 and no p-th power: f is packed once, the
    layer is built over F_p, and the result is unpacked once.  With a bound
    q the result is delta(f) modulo m^[q] = (x_1^q, ..., x_n^q), i.e.
    delta(f).truncate(q); without q the bound is ``ring.NO_CUT``, which
    cuts nothing, so the result is the full delta(f).
    """
    ring = f.ring
    if not ring.char:
        raise ValueError("delta_carry needs prime characteristic")
    return ring.from_packed(_delta(ring, f.packed(), NO_CUT if q is None else q))


def _delta(ring: PolyRing, terms: Terms, q: int) -> Terms:
    """delta of the packed term map terms modulo m^[q], packed: -L_p."""
    p = ring.char
    return scale_terms(divided_power_layers(ring, terms, p, p, q)[0], -1, p)


def delta_of_power(f: Poly, k: int, q: int | None = None) -> Poly:
    """delta(f^k) modulo m^[q] for k >= 1, from f rather than from f^k:

        delta(f^k) = k * F(f^{k-1}) * delta(f) + F(eps).

    F multiplies every exponent by p.  With f = sum a_I x^I, let
    T(c) = (c mod p)^p mod p^2, the Teichmuller representative mod p^2, and
    e = (sum T(a_I) x^I)^k over Z; then eps = sum_J ((e_J - T(e_J))/p mod p)
    x^J.  So delta is taken of f alone, and f^k never needs a Z lift.

    Proof, in W_2.  [f] = A + V(delta(f)) with A = sum_I [a_I x^I], and
    [f^k] = [f]^k.  V(a) V(b) = 0 and c V(a) = V(F(c_0) a), so
    [f]^k = A^k + V(k F(f^{k-1}) delta(f)).  A^k and (f^k)([x]) have the
    same first coordinate f^k, and their ghost components w_1 are F(e) and
    sum_J T(b_J) x^{pJ} mod p^2, with b_J = e_J mod p the coefficients of
    f^k; so A^k - (f^k)([x]) = V(F(eps)).  [f^k] = (f^k)([x]) + V(delta(f^k))
    then gives the identity.

    Modulo m^[q] the identity needs delta(f) mod m^[q], -L_p of
    ``divided_power_layers`` as in ``delta_carry``, and f^{k-1} and e only
    modulo m^[r], r = ceil(q/p): x^{pJ} lies outside m^[q] exactly when
    every exponent of J is below r, and then pJ < q.  One power chain over Z/p^2
    gives both: e' = (sum T(a_I) x^I)^{k-1} mod (p^2, m^[r]) is f^{k-1}
    mod p, and e = e' * (sum T(a_I) x^I).  delta(f) is skipped when
    k F(f^{k-1}) is 0 mod m^[q].  f is packed once and the result unpacked
    once.  At k = 1 the identity reads delta(f) = delta(f), and
    ``delta_carry`` answers.
    """
    ring = f.ring
    p = ring.char
    if not p:
        raise ValueError("delta_of_power needs prime characteristic")
    if k < 1:
        raise ValueError("delta_of_power needs k >= 1")
    if k == 1:
        return delta_carry(f, q)
    q = NO_CUT if q is None else q
    r, square = -(-q // p), p * p
    terms = f.packed()
    lift = {key: pow(c, p, square) for key, c in terms.items()}
    power = ring.pow_terms(lift, k - 1, r, square)  # e'
    out: Terms = {}
    if factor := {key: b for key, c in power.items() if (b := c * k % p)}:
        out = ring.mul_terms(_frobenius(ring, factor), _delta(ring, terms, q), q)
    eps = {}
    for key, c in ring.mul_terms(power, lift, r, square).items():
        if t := (c - pow(c, p, square)) // p % p:
            eps[key] = t
    add_terms(out, _frobenius(ring, eps), p)
    return ring.from_packed(out)


def eval_at_teichmuller(f: Poly, n: int) -> WittVector:
    """f([x_1], ..., [x_n]) in W_n: substitute Teichmuller lifts of the
    variables and lift each coefficient through its Teichmuller constant,
    that is, the sum of the lifts [c x^e] of f's terms, taken by one _sum."""
    ring = f.ring
    zeros = ({},) * (_checked_length(n) - 1)
    _check_prime(ring)
    lifts = [({key: c},) + zeros for key, c in f.packed().items()]
    return WittVector._of(ring, _sum(ring, n, lifts))


def teichmuller_identity_sides(f: Poly) -> tuple[WittVector, WittVector]:
    """The two sides of [f] = f([x]) + V(delta_carry(f)) in W_2."""
    lhs = WittVector.teichmuller(f, 2)
    carry = WittVector(f.ring, [f.ring.zero(), delta_carry(f)])
    return lhs, eval_at_teichmuller(f, 2) + carry


def teichmuller_identity_holds(f: Poly) -> bool:
    """Check [f] = f([x]) + V(delta_carry(f)) in W_2."""
    lhs, rhs = teichmuller_identity_sides(f)
    return lhs == rhs
