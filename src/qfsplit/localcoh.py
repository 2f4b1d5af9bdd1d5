"""Graded local cohomology for double covers R = k[[x,y,z]]/(z^2 + g).

H^2 of R supported at (x, y) decomposes as a sum of lines spanned by the
symbols z^eps/(x^i y^j) with i, j >= 1; a Cech fraction lands in normal
form by reducing z-powers through z^2 = -g and dropping any monomial that
clears one of the denominator variables.  The 2-quasi-F-split decision
tracks the socle {z/(xy)} through Frobenius: if it survives, the cover is
F-split; if it dies, the Witt carry of the vanishing is extracted and the
verdict is whether that carry class escapes the image of Frobenius.  That
image is tested as the span of the Frobenius images of the labels
z^eps/(x^i y^j) with i, j <= p(1 + p^2) (``frobenius_image_membership``);
that bounded span decides membership in the whole image exactly for the
carry class only.  The carry class rests on delta(h) modulo
(x^{p^2}, y^{p^2}) for h = (-g)^{(p-1)/2} (g at p = 2), which
``witt.delta_of_power`` takes from -g, so h is never lifted to Z
(``witt_carry_class``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from types import MappingProxyType

from . import linalg, witt
from .criteria import Verdict
from .ring import Poly, PolyRing

FLAG_ASSUMED_DOMAIN = "assumed-domain"
FLAG_SOCLE_CRITERION = "socle-criterion-verdict"


class SocleSurvivesError(ValueError):
    """F(socle) != 0: the cover is F-split and no Witt carry is defined."""


class DoubleCover:
    """The ring k[[x,y,z]]/(z^2 + g) for g in (x,y)k[x,y].

    Irreducibility of z^2 + g is not checked; verdicts assume R is a
    domain and reports carry the corresponding flag.
    """

    __slots__ = ("p", "g", "ring_xy", "ring_xyz", "neg_g", "_frobenius_numerator")

    def __init__(self, p: int, g: Poly):
        ring_xy = PolyRing(p, ("x", "y"))
        if g.ring != ring_xy:
            raise ValueError("g must live in GF(p)[x, y]")
        if g.is_zero():
            raise ValueError("g must be nonzero")
        if g.constant_term():
            raise ValueError("g must have zero constant term (g in (x,y))")
        self.p = p
        self.g = g
        self.ring_xy = ring_xy
        self.ring_xyz = PolyRing(p, ("x", "y", "z"))
        self.neg_g = -self.ring_xyz.from_terms(
            {exps + (0,): c for exps, c in g.term_map().items()}
        )
        self._frobenius_numerator = None

    def frobenius_numerator(self) -> Poly:
        """N = z^p reduced to z-degree <= 1, computed on first use and kept
        for the life of the cover: every Frobenius image on H^2 with a z in
        its numerator is a shift of N."""
        if self._frobenius_numerator is None:
            z_p = self.ring_xyz.gen("z") ** self.p
            self._frobenius_numerator = reduce_modulo_cover(z_p, self)
        return self._frobenius_numerator

    def __repr__(self) -> str:
        return f"DoubleCover(p={self.p}, g={self.g.render()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, DoubleCover) and self.p == other.p and self.g == other.g

    def __hash__(self) -> int:
        return hash((self.p, self.g))


class H2Class:
    """Element of H^2_{(x,y)}(R) in the canonical basis z^eps/(x^i y^j)."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: dict[tuple[int, int, int], int]):
        clean = {}
        for (eps, i, j), c in terms.items():
            if eps not in (0, 1):
                raise ValueError("z-exponent must be 0 or 1")
            if i < 1 or j < 1:
                raise ValueError("denominator exponents must be >= 1")
            c %= p
            if c:
                clean[(eps, i, j)] = c
        self.p = p
        self._terms = clean

    @classmethod
    def zero(cls, p: int) -> "H2Class":
        return cls(p, {})

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        for key in sorted(self._terms):
            yield key, self._terms[key]

    def term_map(self) -> dict[tuple[int, int, int], int]:
        return dict(self._terms)

    def coefficient(self, key: tuple[int, int, int]) -> int:
        return self._terms.get(key, 0)

    def __add__(self, other: "H2Class") -> "H2Class":
        if self.p != other.p:
            raise ValueError("characteristic mismatch")
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = (out.get(key, 0) + c) % self.p
        return H2Class(self.p, out)

    def __neg__(self) -> "H2Class":
        return H2Class(self.p, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "H2Class") -> "H2Class":
        return self + (-other)

    def scale(self, c: int) -> "H2Class":
        return H2Class(self.p, {k: v * c for k, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, H2Class) and self.p == other.p and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.p, frozenset(self._terms.items())))

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (eps, i, j), c in self.terms():
            num = "z" if eps else "1"
            xs = "x" if i == 1 else f"x^{i}"
            ys = "y" if j == 1 else f"y^{j}"
            body = f"{{{num}/({xs}*{ys})}}"
            parts.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"H2Class({self.render()})"


def reduce_modulo_cover(numerator: Poly, cover: DoubleCover) -> Poly:
    """Rewrite a polynomial in x, y, z to z-degree <= 1 using z^2 = -g."""
    ring = cover.ring_xyz
    by_zdeg: dict[int, dict[tuple[int, ...], int]] = {}
    for (u, v, w), c in numerator.term_map().items():
        by_zdeg.setdefault(w, {})[(u, v, 0)] = c
    result = ring.zero()
    for w, terms in by_zdeg.items():
        part = ring.from_terms(terms)
        part = part * cover.neg_g ** (w // 2)
        if w % 2:
            part = part * ring.gen("z")
        result = result + part
    return result


def normal_form(numerator: Poly, denom: tuple[int, int], cover: DoubleCover) -> H2Class:
    """Normal form of {numerator / (x^a y^b)} in H^2_{(x,y)}(R).

    A monomial c x^u y^v z^eps contributes c z^eps/(x^{a-u} y^{b-v}) when
    both residual exponents are >= 1 and dies otherwise (it extends to one
    of the Cech charts).
    """
    a, b = denom
    if a < 0 or b < 0:
        raise ValueError("denominator exponents must be >= 0")
    reduced = reduce_modulo_cover(numerator, cover)
    terms: dict[tuple[int, int, int], int] = {}
    for (u, v, eps), c in reduced.term_map().items():
        i = a - u
        j = b - v
        if i >= 1 and j >= 1:
            key = (eps, i, j)
            terms[key] = (terms.get(key, 0) + c) % cover.p
    return H2Class(cover.p, terms)


def socle(cover: DoubleCover) -> H2Class:
    """{z/(xy)}: divides every nonzero element of H^2."""
    return H2Class(cover.p, {(1, 1, 1): 1})


def _frobenius_label_image(label: tuple[int, int, int], cover: DoubleCover) -> dict:
    """Terms of F(z^eps/(x^i y^j)) = {z^(p eps)/(x^(pi) y^(pj))} in normal form.

    eps = 0 gives the single term 1/(x^(pi) y^(pj)); eps = 1 keeps the terms
    c x^u y^v z^w of the cached numerator N = nf(z^p) with u < pi and v < pj,
    as c z^w/(x^(pi-u) y^(pj-v)).
    """
    eps, i, j = label
    a, b = cover.p * i, cover.p * j
    if not eps:
        return {(0, a, b): 1}
    return {
        (w, a - u, b - v): c
        for (u, v, w), c in cover.frobenius_numerator().term_map().items()
        if u < a and v < b
    }


def frobenius_h2(xi: H2Class, cover: DoubleCover) -> H2Class:
    """Frobenius on H^2: p-th power basis terms and renormalize; F_p-linear
    because coefficients satisfy c^p = c.  Each basis term's image is a shift
    of the cover's cached numerator nf(z^p), so z^p is reduced once per
    cover, not once per term."""
    p = cover.p
    out: dict[tuple[int, int, int], int] = {}
    for label, c in xi.terms():
        for key, v in _frobenius_label_image(label, cover).items():
            out[key] = (out.get(key, 0) + c * v) % p
    return H2Class(p, out)


def witt_carry_class(cover: DoubleCover) -> H2Class:
    """The class eta with {[z]^p/[xy]^p} = V(eta) in W_2 local cohomology.

    Requires F(socle) = 0, so every term of the reduced numerator N of z^p
    has u >= p or v >= p.  Split N = P + (N - P), where P holds the terms
    with u >= p (or, equally well, those with v >= p).  The carry is the
    Witt addition defect of the two summands over their integer lifts,
    placed over (x^{p^2}, y^{p^2}).  P and N - P have disjoint supports, so
    the defect is delta(N) - delta(P) - delta(N - P); every term of
    delta(P) has u >= p^2 and every term of delta(N - P) has v >= p^2, so
    both die in the normal form.  The class is therefore nf(delta(N)),
    whichever way N is split.

    It is read off the (p^2, p^2) box.  N has a single z-degree eps:
    N = z * (-g)^{(p-1)/2} for odd p and N = g for p = 2, so N = z^eps * h
    with h in F_p[x, y].  delta(m * h) = m^p * delta(h) for a monomial m
    with coefficient 1, so delta(N) = z^{p eps} * delta(h), and
    z^{p eps} reduces to N^eps = z^eps * h^eps.  The normal form keeps the
    terms c x^u y^v of h^eps * delta(h) with u, v < p^2, as
    c z^eps/(x^{p^2-u} y^{p^2-v}); (x^{p^2}, y^{p^2}) is an ideal, so the
    product and delta(h) are both computed modulo it.

    h is a power of -g, so delta(h) is delta((-g)^k), k = max(1, (p-1)/2),
    taken from -g by ``witt.delta_of_power``: h itself is never lifted to
    Z.  At p = 2, -g = g = h and k = 1.
    """
    p = cover.p
    q = p * p
    if not frobenius_h2(socle(cover), cover).is_zero():
        raise SocleSurvivesError("F(socle) != 0; the cover is F-split at the socle")
    numerator = cover.frobenius_numerator().term_map()
    (eps,) = {w for _, _, w in numerator}
    carry = witt.delta_of_power(-cover.g, max(1, (p - 1) // 2), q)
    if eps:
        h = cover.ring_xy.from_terms({(u, v): c for (u, v, _), c in numerator.items()})
        carry = h.mul_trunc(carry, q)
    return H2Class(p, {(eps, q - u, q - v): c for (u, v), c in carry.term_map().items()})


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of the Frobenius-image membership solve at the label bound
    ``bound`` = p(1 + p^2)."""

    feasible: bool
    coefficients: dict[tuple[int, int, int], int] | None
    witness: dict[tuple[int, int, int], int] | None
    bound: int
    escalations: int  # always 0; the benchmark's tracer still reads it


def _frobenius_label_holders(cover: DoubleCover, bound: int):
    """The reverse of _frobenius_label_image on the box i, j <= bound: a
    function from a key (w, a, b) to the labels whose image holds it.  They
    are (0, a/p, b/p) when w = 0, and (1, (a+u)/p, (b+v)/p) for each term
    x^u y^v z^w of nf(z^p), wherever both divisions are exact and both
    quotients are <= bound."""
    p, top = cover.p, cover.p * bound
    shifts: dict[int, list] = {}  # z-degree w -> (u, v) of the terms of nf(z^p)
    for u, v, w in cover.frobenius_numerator().term_map():
        shifts.setdefault(w, []).append((u, v))

    def holders(key):
        w, a, b = key
        sums = [(1, a + u, b + v) for u, v in shifts.get(w, ())]
        if not w:
            sums.append((0, a, b))
        return [
            (eps, a // p, b // p)
            for eps, a, b in sums
            if not a % p and not b % p and a <= top and b <= top
        ]

    return holders


def frobenius_image_membership(eta: H2Class, cover: DoubleCover) -> MembershipResult:
    """Decide eta in span_{F_p}{ F(z^eps/(x^i y^j)) : i, j <= B } by exact
    linear algebra, at the label bound B = p(1 + p^2).  The answer is
    membership in that bounded span, not in the whole image of Frobenius:
    the two agree for the Witt carry class, which is the only class
    ``analyze`` passes, but not in general (on x^3 + y^7 at p = 2, B = 10,
    F(z^eps/(x^11 y^11)) is nonzero for eps = 0 and 1, and this reads it
    infeasible).

    For the Witt carry class this bound is exact.  Under the label
    dictionary z^w/(x^{T-x} y^{T-y}) <-> key (x, y, w), T = p^2 (1 + p^2),
    the span at B is ``quasi2_cech_oracle``'s span test at level 1 + p^2
    (see its docstring): the carry is its projected twist, and the
    Frobenius images of the labels with i, j <= B are its K_2 rows.  That
    test is the Cech vanishing itself, so the carry is in the span exactly
    when the cover is not 2-quasi-F-split, with no guess and no retry.

    Only the block of eta is built, by ``linalg.block`` with the reverse
    lookup _frobenius_label_holders, and the block decides the span exactly
    (see ``block``).  So the box handed to ``linalg.solve`` only has to
    hold the block: its labels have i, j in [lo, lo + b), the range of the
    indices the block reaches ([1, 1] when it is empty), label (eps, i, j)
    is column (eps*b + i - lo)*b + j - lo of the 2b^2, in label order, and
    every label off the block is an empty column.  Columns come from
    _frobenius_label_image, the routine behind frobenius_h2.
    """
    p = cover.p
    bound = p * (1 + p * p)
    rhs = eta.term_map()
    reached, _ = linalg.block(
        rhs,
        _frobenius_label_holders(cover, bound),
        lambda label: _frobenius_label_image(label, cover),
    )
    indices = [k for _, i, j in reached for k in (i, j)] or [1]
    lo = min(indices)
    b = max(indices) - lo + 1
    empty = MappingProxyType({})  # every label off the block shares it
    columns = [empty] * (2 * b * b)
    for (eps, i, j), image in reached.items():
        columns[(eps * b + i - lo) * b + j - lo] = image
    solution, witness = linalg.solve(columns, rhs, p)
    if solution is None:
        return MembershipResult(False, None, witness, bound, 0)
    coeffs = {}
    for idx, c in enumerate(solution):
        if c:
            eps, ij = divmod(idx, b * b)
            coeffs[(eps, ij // b + lo, ij % b + lo)] = c
    return MembershipResult(True, coeffs, None, bound, 0)


def quasi_homogeneous_grading(g: Poly) -> tuple[int, int, int] | None:
    """Coprime weights (w_x, w_y) and the weighted degree D that make g in
    F_p[x, y] weighted homogeneous, or None when no positive weights do.
    A monomial g gets weights (1, 1)."""
    support = sorted(g.term_map())
    (u0, v0) = support[0]
    # every term must satisfy u*wx + v*wy = u0*wx + v0*wy, so du*wx = -dv*wy
    # pins wx : wy = |dv| : |du|, and positive weights need opposite signs
    weights = None
    for u, v in support[1:]:
        du, dv = u - u0, v - v0
        if du * dv >= 0:
            return None
        k = gcd(du, dv)
        candidate = (abs(dv) // k, abs(du) // k)
        if weights not in (None, candidate):
            return None
        weights = candidate
    wx, wy = weights or (1, 1)
    return wx, wy, u0 * wx + v0 * wy


def has_isolated_singularity(cover: DoubleCover) -> bool:
    """Jacobian check that the origin is the only singular point of the
    affine surface z^2 + g = 0: True exactly when some pure powers x^N, y^N
    lie in J = (g_x, g_y) (+ (g) when p is odd), so those generators vanish
    nowhere else in the (x, y)-plane.  The test is global, not local: a
    cover whose singularity at the origin is isolated but which has a second
    singular point gives False (z^2 + y^2 - x^2 (x-1)^2 at p = 5, also
    singular at (1, 0)).

    The decision is exact for every g.  A reduced grevlex Groebner basis of
    J in F_p[x, y] (``_groebner_basis``) gives A = F_p[x, y]/J: A is
    finite-dimensional iff the basis has leading monomials x^a and y^b, and
    then delta = dim A is the number of standard monomials.  If A is not
    finite-dimensional, no x^N, y^N both lie in J (they would leave only
    the monomials x^u y^v with u, v < N in A), and the answer is False.
    Otherwise x^N, y^N lie in J for some N iff multiplication by x and by y
    is nilpotent on A, and a nilpotent operator on a delta-dimensional space
    has x^delta = 0; so the answer is whether x^delta and y^delta reduce to
    0 modulo the basis.  J = (1) gives delta = 0 and True.  By the
    Nullstellensatz, x and y are nilpotent in A iff V(J) lies in {0} over
    the algebraic closure of F_p, that is, iff the origin is the only
    singular point; so False means the surface is shown not to have an
    isolated singularity.
    """
    g, p = cover.g, cover.p
    gens = [g.derivative("x").term_map(), g.derivative("y").term_map()]
    if p != 2:
        gens.append(g.term_map())
    basis = _groebner_basis(gens, p)
    leads = [lead for lead, _ in basis]
    a = next((u for u, v in leads if not v), None)
    b = next((v for u, v in leads if not u), None)
    if a is None or b is None:
        return False
    # the standard monomials x^u y^v, u < a, are those with v below every
    # lead x^s y^t with s <= u (the lead y^b is one)
    delta = sum(min(t for s, t in leads if s <= u) for u in range(a))
    return not (_remainder({(delta, 0): 1}, basis, p) or _remainder({(0, delta): 1}, basis, p))


# Groebner bases of ideals of F_p[x, y] in grevlex order (x > y), on term
# maps {(u, v): c}.  A basis is a list of (lead, tail): the monic element is
# x^lead + tail, and the tail holds the other terms.


def _grevlex(m: tuple[int, int]) -> tuple[int, int]:
    return m[0] + m[1], m[0]


def _remainder(terms: dict, basis: list, p: int) -> dict:
    """The remainder of terms on division by basis: no term of it is
    divisible by a lead of basis."""
    work, rest = dict(terms), {}
    while work:
        m = max(work, key=_grevlex)
        c = work.pop(m)
        for (s, t), tail in basis:
            du, dv = m[0] - s, m[1] - t
            if du >= 0 and dv >= 0:
                for (u, v), e in tail.items():
                    key = (u + du, v + dv)
                    if r := (work.get(key, 0) - c * e) % p:
                        work[key] = r
                    else:
                        work.pop(key, None)
                break
        else:
            rest[m] = c
    return rest


def _interreduce(polys: list, p: int) -> list:
    """A basis of the ideal of polys whose leads divide no other lead and
    whose tails are reduced modulo the other elements.  An element whose
    lead a newer lead divides is reduced again, never dropped."""
    basis, todo = [], [f for f in polys if f]
    while todo:
        f = _remainder(todo.pop(), basis, p)
        if not f:
            continue
        lead = max(f, key=_grevlex)
        inverse = pow(f.pop(lead), -1, p)
        tail = {m: c * inverse % p for m, c in f.items()}
        kept = []
        for (s, t), other in basis:
            if s >= lead[0] and t >= lead[1]:
                todo.append({(s, t): 1, **other})
            else:
                kept.append(((s, t), other))
        basis = kept + [(lead, tail)]
    for i, (lead, tail) in enumerate(basis):
        basis[i] = (lead, _remainder(tail, basis[:i] + basis[i + 1 :], p))
    return basis


def _groebner_basis(gens: list, p: int) -> list:
    """The reduced grevlex Groebner basis of the ideal of gens, by
    Buchberger's algorithm with the basis interreduced after every new
    element, pairs taken smallest lcm first.  Pairs of coprime leads are
    skipped (their S-polynomial reduces to 0).  A pair whose S-polynomial
    reduced to 0 stays done while both of its leads stay: interreduction
    keeps the ideal, writes every old element as a combination of the new
    ones whose terms lie at or below its lead, and changes an element that
    keeps its lead only below that lead.  So the S-polynomial of a done
    pair keeps a representation whose terms lie below the lcm of its leads,
    and when no pair is left the basis meets Buchberger's criterion in that
    form (lcm representations: Cox, Little and O'Shea, Ideals, Varieties,
    and Algorithms, ch. 2 section 9)."""
    basis, done = _interreduce(gens, p), set()
    while True:
        leads = {lead: tail for lead, tail in basis}
        pairs = [
            ((max(a[0], b[0]), max(a[1], b[1])), a, b)
            for a, b in combinations(leads, 2)
            if (min(a[0], b[0]) or min(a[1], b[1])) and frozenset((a, b)) not in done
        ]
        if not pairs:
            return basis
        lcm, a, b = min(pairs, key=lambda pair: _grevlex(pair[0]))
        s = {}
        for lead, sign in ((a, 1), (b, -1)):
            du, dv = lcm[0] - lead[0], lcm[1] - lead[1]
            for (u, v), c in leads[lead].items():
                key = (u + du, v + dv)
                s[key] = (s.get(key, 0) + sign * c) % p
        s = _remainder({m: c for m, c in s.items() if c}, basis, p)
        if s:
            basis = _interreduce([{lead: 1, **tail} for lead, tail in basis] + [s], p)
            done = {pair for pair in done if pair <= {lead for lead, _ in basis}}
        else:
            done.add(frozenset((a, b)))


@dataclass(frozen=True)
class LocalCohAnalysis:
    """Verdict plus the intermediate classes, for reports and cross-checks."""

    verdict: Verdict
    socle_image: H2Class
    carry: H2Class | None
    membership: MembershipResult | None


def analyze(cover: DoubleCover) -> LocalCohAnalysis:
    """Full 2-quasi-F-split analysis of a double cover.

    A surviving socle certifies F-splitness (height 1).  Otherwise the
    carry class decides: the cover is 2-quasi-F-split iff the carry escapes
    the span of the Frobenius images at the label bound p(1 + p^2), which
    is the Cech criterion (see frobenius_image_membership).
    """
    flags = [FLAG_ASSUMED_DOMAIN]
    if not has_isolated_singularity(cover):
        flags.append(FLAG_SOCLE_CRITERION)
    socle_image = frobenius_h2(socle(cover), cover)
    if not socle_image.is_zero():
        verdict = Verdict(f_split=True, quasi2=True, flags=tuple(flags))
        return LocalCohAnalysis(verdict, socle_image, None, None)
    carry = witt_carry_class(cover)
    membership = frobenius_image_membership(carry, cover)
    verdict = Verdict(f_split=False, quasi2=not membership.feasible, flags=tuple(flags))
    return LocalCohAnalysis(verdict, socle_image, carry, membership)


def quasi2_doublecover(cover: DoubleCover) -> Verdict:
    """2-quasi-F-split decision for k[[x,y,z]]/(z^2 + g)."""
    return analyze(cover).verdict
