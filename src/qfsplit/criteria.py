"""Decision procedures for hypersurfaces: Fedder's F-split test and the
height-2 quasi-F-split test, plus an elliptic point-count oracle used for
cross-checking.

Both tests accept any nonzero f; reports pass them only f in the maximal
ideal m = (x_1, ..., x_n), and every verdict decides the height (1, 2, or
> 2).  Both read f^{p-1} mod m^[p], and the height-2 clause reads
f^{p^2-p-1} * delta(f) mod m^[p^2]; every power of f and delta(f) itself
are layers of one divided-power recurrence over F_p
(``witt.divided_power_layers``), with no lift to Z/p^2 and no powering
chain.  ``height_search`` is a second name for ``quasi2_test``, kept because
perfbench's tracer wraps it by that name.

The height-2 clause is stated for a homogeneous polynomial whose degree
equals the number of variables (the Calabi-Yau case).  Other inputs are
still evaluated but the verdict carries a warning flag instead of a
certification; the double-cover local-cohomology engine is the authority
for those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ring import Poly, scale_terms
from .witt import delta_carry, divided_power_layers

FLAG_CERTIFIED = "criterion-certified"
FLAG_NON_HOMOGENEOUS = "non-homogeneous-criterion"


class ZeroInputError(ValueError):
    """The zero polynomial defines no hypersurface."""


class SingularCurveError(ValueError):
    """The Weierstrass equation is singular."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a splitness analysis.

    f_split and quasi2 are both decided, and f_split implies quasi2; the
    height bound height_le is derived from them.

    witnesses maps "clause1" and "clause2" to the hypersurface clause
    polynomials f^{p-1} and f^{p^2-p-1} * delta(f), computed exactly over
    F_p in the quotient by m^[p] resp. m^[p^2] = (x_1^{p^2}, ..., x_n^{p^2})
    (the powers and delta(f) from divided-power layers, see
    ``quasi2_test``): the terms of each clause polynomial outside that
    ideal.  A clause holds iff its witness is nonzero.  For f flagged
    criterion-certified (homogeneous of degree n in n variables) the
    clause-2 witness has at most the one term (x_1...x_n)^{p^2-1}, the only
    monomial of its degree n(p^2-1) outside m^[p^2].
    """

    f_split: bool
    quasi2: bool
    witnesses: dict[str, Poly] | None = None
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.f_split and not self.quasi2:
            raise ValueError("F-split verdicts must have quasi2")

    @property
    def height_le(self) -> int | None:
        """1 if F-split, 2 if 2-quasi-F-split only, None if height > 2."""
        return 1 if self.f_split else 2 if self.quasi2 else None

    def summary(self) -> str:
        if self.f_split:
            return "F-split (height 1)"
        if self.quasi2:
            return "not F-split; 2-quasi-F-split (height 2)"
        return "not F-split; not 2-quasi-F-split (height > 2)"


def _clause1(f: Poly) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """f, f^{p-2} and f^{p-1} modulo (x_1^p, ..., x_n^p) as packed-key
    term maps (see ``ring``): f is packed once, and both powers come from
    one run of ``witt.divided_power_layers`` at cut p, as
    f^{p-2} = (p-2)! L_{p-2} = L_{p-2} and f^{p-1} = (p-1)! L_{p-1} = -L_{p-1}
    by Wilson's theorem.  The third is the clause-1 witness."""
    if f.is_zero():
        raise ZeroInputError("zero polynomial")
    ring = f.ring
    p = ring.char
    terms = f.packed()
    low, top = divided_power_layers(ring, terms, p - 2, p - 1, p)
    return terms, low, scale_terms(top, -1, p)


def fedder_test(f: Poly) -> bool:
    """True iff f^{p-1} lies outside (x_1^p, ..., x_n^p), i.e. the
    hypersurface is F-split near the origin."""
    return bool(_clause1(f)[2])


def _conformance_flags(f: Poly) -> tuple[str, ...]:
    if f.is_homogeneous() and f.total_degree() == f.ring.nvars:
        return (FLAG_CERTIFIED,)
    return (FLAG_NON_HOMOGENEOUS,)


def quasi2_test(f: Poly) -> Verdict:
    """Height-2 test: F-split, or f^{p^2-p-1} * delta(f) outside
    (x_1^{p^2}, ..., x_n^{p^2}).  Both clause products, and delta(f) itself,
    are computed in the quotient by that ideal, so each witness is the part
    of its clause polynomial outside the ideal.  The power factor is split
    as f^{p^2-p-1} = F(f^{p-2}) * f^{p-1}: F(f^{p-2} mod m^[p]), from the
    f^{p-2} that clause 1 builds on, is already reduced mod m^[p^2], and
    f^{p-1} mod m^[p^2] is computed only when that Frobenius factor is
    nonzero.
    Every power and delta(f) come from the divided-power layers of
    ``witt.divided_power_layers``, over F_p with no lift and no powering
    chain: f^{p-2} and f^{p-1} mod m^[p] from one run at cut p, f^{p-1}
    mod m^[p^2] = -L_{p-1} from a run at cut p^2, and delta(f) = -L_p from
    ``delta_carry``, a second run at cut p^2.  delta_carry runs only when
    the power factor f^{p^2-p-1} mod m^[p^2] is nonzero; when it is 0, so
    is the clause-2 witness, whatever delta(f) is.  f is packed here once
    (``delta_carry`` packs its own), every power and product stays a
    packed-key term map (``PolyRing.mul_terms``, ``frobenius_terms``), and
    only delta and the witnesses are unpacked.
    For certified f (homogeneous of degree n in n variables) the clause-2
    polynomial is homogeneous of degree n(p^2-1), and a term outside
    m^[p^2] has every exponent at most p^2-1, so only (x_1...x_n)^{p^2-1}
    can survive.  Its coefficient is the dot product of the power factor
    with delta(f): one lookup of delta at (x_1...x_n)^{p^2-1} / x^a per
    term x^a of the power factor, not the full product.  Other f keep the
    full truncated product, whose witness can have many terms."""
    ring = f.ring
    p = ring.char
    q = p * p
    terms, low, clause1 = _clause1(f)
    clause1_poly = ring.from_packed(clause1)
    flags = _conformance_flags(f)
    if clause1:
        return Verdict(
            f_split=True,
            quasi2=True,
            witnesses={"clause1": clause1_poly},
            flags=flags,
        )
    power = ring.frobenius_terms(low, p)
    if power:
        (layer,) = divided_power_layers(ring, terms, p - 1, p - 1, q)
        power = ring.mul_terms(power, scale_terms(layer, -1, p), q)
    clause2 = {}
    if power:
        delta = delta_carry(f, q).packed()
        if flags == (FLAG_CERTIFIED,):
            # the key of (x_1...x_n)^{q-1}; every field of a power key is
            # below q, so top - k borrows across no field
            top = (q - 1) * ring._ones
            c = sum(coeff * delta.get(top - k, 0) for k, coeff in power.items()) % p
            if c:
                clause2 = {top: c}
        else:
            clause2 = ring.mul_terms(power, delta, q)
    return Verdict(
        f_split=False,
        quasi2=bool(clause2),
        witnesses={"clause1": clause1_poly, "clause2": ring.from_packed(clause2)},
        flags=flags,
    )


height_search = quasi2_test


def supersingular_oracle(p: int, a: int, b: int) -> bool:
    """Exhaustive point count of y^2 = x^3 + a x + b over F_p, p >= 5.

    Returns True iff #E(F_p) = p + 1 (trace zero, supersingular).
    """
    if p < 5:
        raise ValueError("point-count oracle requires p >= 5")
    a %= p
    b %= p
    if (-16 * (4 * a**3 + 27 * b**2)) % p == 0:
        raise SingularCurveError(f"discriminant vanishes for a={a}, b={b} mod {p}")
    square_counts = {0: 1}
    for y in range(1, p):
        square_counts[y * y % p] = square_counts.get(y * y % p, 0) + 1
    count = 1  # point at infinity
    for x in range(p):
        count += square_counts.get((x * x * x + a * x + b) % p, 0)
    return count == p + 1
