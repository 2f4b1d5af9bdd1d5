"""Decision procedures for hypersurfaces: Fedder's F-split test and the
height-2 quasi-F-split test, plus an elliptic point-count oracle used for
cross-checking.

The height-2 clause is stated for a homogeneous polynomial whose degree
equals the number of variables (the Calabi-Yau case).  Other inputs are
still evaluated but the verdict carries a warning flag instead of a
certification; the double-cover local-cohomology engine is the authority
for those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ring import Poly
from .witt import delta_carry

FLAG_CERTIFIED = "criterion-certified"
FLAG_NON_HOMOGENEOUS = "non-homogeneous-criterion"


class ZeroInputError(ValueError):
    """The zero polynomial defines no hypersurface."""


class SingularCurveError(ValueError):
    """The Weierstrass equation is singular."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a splitness analysis.

    quasi2 is None when the height-2 clause was never evaluated; the height
    bound height_le is derived from f_split and quasi2.

    witnesses maps "clause1" and "clause2" to the hypersurface clause
    polynomials f^{p-1} and f^{p^2-p-1} * delta(f), computed exactly in
    the quotient by m^[p] resp. m^[p^2] = (x_1^{p^2}, ..., x_n^{p^2}): the
    terms of each clause polynomial outside that ideal.  A clause holds iff
    its witness is nonzero.
    """

    f_split: bool
    quasi2: bool | None
    witnesses: dict[str, Poly] | None = None
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.f_split and self.quasi2 is not True:
            raise ValueError("F-split verdicts must have quasi2")

    @property
    def height_le(self) -> int | None:
        """1 if F-split, 2 if 2-quasi-F-split only, None if height > 2 or
        the search was capped."""
        return 1 if self.f_split else 2 if self.quasi2 else None

    def summary(self) -> str:
        if self.f_split:
            return "F-split (height 1)"
        if self.quasi2:
            return "not F-split; 2-quasi-F-split (height 2)"
        if self.quasi2 is None:
            return "not F-split; 2-quasi-F-splitness undecided"
        return "not F-split; not 2-quasi-F-split (height > 2)"


def _clause1(f: Poly) -> tuple[Poly, bool]:
    """f^{p-1} modulo (x_1^p, ..., x_n^p), and whether it is nonzero there."""
    if f.is_zero():
        raise ZeroInputError("zero polynomial")
    p = f.ring.char
    residue = f.pow_trunc(p - 1, p)
    return residue, not residue.is_zero()


def fedder_test(f: Poly) -> bool:
    """True iff f^{p-1} lies outside (x_1^p, ..., x_n^p), i.e. the
    hypersurface is F-split near the origin."""
    return _clause1(f)[1]


def _conformance_flags(f: Poly) -> tuple[str, ...]:
    if f.is_homogeneous() and f.total_degree() == f.ring.nvars:
        return (FLAG_CERTIFIED,)
    return (FLAG_NON_HOMOGENEOUS,)


def quasi2_test(f: Poly) -> Verdict:
    """Height-2 test: F-split, or f^{p^2-p-1} * delta(f) outside
    (x_1^{p^2}, ..., x_n^{p^2}).  Both clause products, and delta(f) itself,
    are computed in the quotient by that ideal, so each witness is the part
    of its clause polynomial outside the ideal.  delta_carry runs once per
    clause-2 evaluation even when the power factor is already 0, so the
    benchmark's trace counts one delta per clause-2 entry."""
    p = f.ring.char
    q = p * p
    clause1_poly, split = _clause1(f)
    flags = _conformance_flags(f)
    if split:
        return Verdict(
            f_split=True,
            quasi2=True,
            witnesses={"clause1": clause1_poly},
            flags=flags,
        )
    clause2_poly = f.pow_trunc(q - p - 1, q).mul_trunc(delta_carry(f, q), q)
    return Verdict(
        f_split=False,
        quasi2=not clause2_poly.is_zero(),
        witnesses={"clause1": clause1_poly, "clause2": clause2_poly},
        flags=flags,
    )


def height_search(f: Poly, max_n: int = 2) -> Verdict:
    """Search heights 1..max_n in order; quasi-F-splitness is monotone in
    the height, so the first success is the answer."""
    if max_n not in (1, 2):
        raise ValueError("max_n must be 1 or 2")
    if max_n == 1:
        split = fedder_test(f)
        return Verdict(
            f_split=split,
            quasi2=True if split else None,
            flags=_conformance_flags(f),
        )
    return quasi2_test(f)


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
