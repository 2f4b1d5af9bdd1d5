"""Length-n Witt vectors over F_p polynomial rings.

Addition and multiplication are computed through exact integer ghost
components: lift each coordinate to the representative in [0, p), build
the ghost vector w_k = sum_{i<=k} p^i a_i^{p^{k-i}}, operate on ghosts
componentwise over Z, and solve the recursion back with exact division by
p^k.  The divisions are exact because replacing a coordinate by any lift
congruent mod p perturbs the ghost by multiples of p^{k+1}; that also
makes the mod-p reduction of each solved coordinate lift-independent.

A vector is immutable, so its ghost vector (over the canonical lifts) is
computed at most once and kept on the vector.  ``from_ghost`` already
raises the lifts of the coordinates it solves to the powers that ghost
needs, so it leaves the result's ghost in place too, and a chain of
operations never rebuilds the ghost of an intermediate result.
"""

from __future__ import annotations

from typing import Sequence

from .ring import Poly, PolyRing, RingMismatchError

DEFAULT_LENGTH_CAP = 8


class WittLengthError(ValueError):
    """Witt vector length outside [1, length_cap] (DEFAULT_LENGTH_CAP = 8)."""


class WittVector:
    """Immutable Witt vector (a_0, ..., a_{n-1}) of polynomials over F_p."""

    __slots__ = ("ring", "components", "_ghost")

    def __init__(self, ring: PolyRing, components: Sequence[Poly], length_cap: int = DEFAULT_LENGTH_CAP):
        if ring.char == 0:
            raise ValueError("Witt vectors require prime characteristic")
        components = tuple(components)
        if not 1 <= len(components) <= length_cap:
            raise WittLengthError(
                f"length {len(components)} outside [1, {length_cap}]"
            )
        for a in components:
            if a.ring != ring:
                raise RingMismatchError("component ring differs from Witt ring context")
        self.ring = ring
        self.components = components
        self._ghost = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing, n: int) -> "WittVector":
        return cls(ring, [ring.zero()] * n)

    @classmethod
    def one(cls, ring: PolyRing, n: int) -> "WittVector":
        return cls(ring, [ring.one()] + [ring.zero()] * (n - 1))

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
        return cls(f.ring, [f] + [f.ring.zero()] * (n - 1))

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
        """Exact integer ghost vector (w_0, ..., w_{n-1}) of the lifts in
        [0, p), computed on first use and kept on the vector."""
        if self._ghost is not None:
            return self._ghost
        lift_ring = self.ring.lift_ring()
        p = self.ring.char
        lifts = [a.lift_integers(lift_ring) for a in self.components]
        out = []
        for k in range(self.n):
            w = lift_ring.zero()
            for i in range(k + 1):
                w = w + (p**i) * lifts[i] ** (p ** (k - i))
            out.append(w)
        self._ghost = tuple(out)
        return self._ghost

    @classmethod
    def from_ghost(cls, ring: PolyRing, ghost: Sequence[Poly]) -> "WittVector":
        """Solve the ghost recursion back to Witt coordinates mod p.

        The result's own ghost is w'_k = sum_{i<k} p^i lift_i^{p^{k-i}} +
        p^k lift_k over the lifts of the solved coordinates; the sum is the
        part the recursion subtracts, so it is kept as the result's ghost.
        """
        p = ring.char
        lift_ring = ring.lift_ring()
        comps: list[Poly] = []
        lifts: list[Poly] = []
        canonical: list[Poly] = []
        for k, w in enumerate(ghost):
            lower = lift_ring.zero()
            for i in range(k):
                lower = lower + (p**i) * lifts[i] ** (p ** (k - i))
            c = (w - lower).divide_exact(p**k).reduce_mod(ring)
            comps.append(c)
            lifts.append(c.lift_integers(lift_ring))
            canonical.append(lower + (p**k) * lifts[k])
        result = cls(ring, comps)
        result._ghost = tuple(canonical)
        return result

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        gu, gv = self.ghost(), other.ghost()
        return WittVector.from_ghost(self.ring, [a + b for a, b in zip(gu, gv)])

    def __neg__(self) -> "WittVector":
        return WittVector.from_ghost(self.ring, [-a for a in self.ghost()])

    def __sub__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        gu, gv = self.ghost(), other.ghost()
        return WittVector.from_ghost(self.ring, [a - b for a, b in zip(gu, gv)])

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        gu, gv = self.ghost(), other.ghost()
        return WittVector.from_ghost(self.ring, [a * b for a, b in zip(gu, gv)])

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
        """Append zero coordinates (a section of restriction, used in tests)."""
        return WittVector(
            self.ring,
            self.components + (self.ring.zero(),) * extra,
            length_cap=max(DEFAULT_LENGTH_CAP, self.n + extra),
        )


def delta_carry(f: Poly) -> Poly:
    """Carry polynomial of f = sum a_I x^I over F_p:

        (1/p) * ((sum a_I x^I)^p - sum (a_I x^I)^p)

    computed exactly over Z with each coefficient lifted to its
    representative in [0, p), then reduced mod p.  It is the defect of
    Teichmuller additivity: [f] = f([x_1], ..., [x_n]) + V(delta_carry(f))
    in W_2.
    """
    ring = f.ring
    p = ring.char
    if not p:
        raise ValueError("delta_carry needs prime characteristic")
    lift_ring = ring.lift_ring()
    lifted = f.lift_integers(lift_ring)
    term_power_sum = lift_ring.zero()
    for exps, c in lifted.term_map().items():
        term_power_sum = term_power_sum + lift_ring.from_terms(
            {tuple(e * p for e in exps): c**p}
        )
    carry = (lifted**p - term_power_sum).divide_exact(p)
    return carry.reduce_mod(ring)


def eval_at_teichmuller(f: Poly, n: int) -> WittVector:
    """f([x_1], ..., [x_n]) in W_n: substitute Teichmuller lifts of the
    variables and lift each coefficient through its Teichmuller constant."""
    ring = f.ring
    result = WittVector.zero(ring, n)
    for exps, c in f.terms():
        mono = ring.from_terms({exps: c})
        result = result + WittVector.teichmuller(mono, n)
    return result


def teichmuller_identity_holds(f: Poly) -> bool:
    """Check [f] = f([x]) + V(delta_carry(f)) in W_2."""
    lhs = WittVector.teichmuller(f, 2)
    carry = delta_carry(f)
    rhs = eval_at_teichmuller(f, 2) + WittVector(
        f.ring, [f.ring.zero(), carry]
    )
    return lhs == rhs
