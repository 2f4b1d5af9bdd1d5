"""Independent cross-checks for the double-cover verdicts.

Two mechanisms, neither touching the engine's carry-splitting or
Frobenius-image code paths:

* `quasi2_cech_oracle` works in Q = F_* W_2(R) / p.  The cover is
  2-quasi-F-split iff the image of the socle {z/(xy)} survives in H^2 of
  Q, and that image vanishes iff its numerator, pushed to a deep enough
  denominator level L, lies in the submodule x^L Q + y^L Q.  Q carries
  linear coordinates over F_p: a class of (a_0, a_1) maps to
  (a_0, a_1 + delta(a_0)) with the second slot reduced modulo p-th powers
  {c^p}; the delta twist absorbs the Witt addition carry, making the
  coordinate map additive, so the vanishing is a plain span test.  The
  p-th powers are spanned by x^{pu} y^{pv} and x^{pu} y^{pv} nf(z^p); the
  oracle reduces z^p itself once per call and builds every such row, and
  the socle numerator, by re-keying a shift of that one normal form.

* `splitting_search` looks for the splitting itself: a graded module
  homomorphism alpha: Q -> R with alpha(Phi(1)) = 1, solved for on the
  truncated graded pieces of a quasi-homogeneous cover.  Feasibility of
  the truncated system is decided by exact linear algebra; the unknown
  count grows like p^4, so this route is for small primes.

Both routes only ask whether a system is feasible, so they solve without
the infeasibility witness (``witness=False``).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import GaussianBasis, solve
from .localcoh import DoubleCover, reduce_modulo_cover
from .ring import Poly
from .witt import delta_carry


def _z_power_normal_form(cover: DoubleCover) -> dict:
    """The oracle's own nf(z^p) as a term map: z^p rewritten to z-degree
    <= 1 by z^2 = -g, once per oracle call and never the engine's cache."""
    return reduce_modulo_cover(cover.ring_xyz.gen("z") ** cover.p, cover).term_map()


def _shift(terms: dict, du: int, dv: int) -> dict:
    """x^du y^dv times a polynomial given by its term map."""
    return {(u + du, v + dv, w): c for (u, v, w), c in terms.items()}


def _k2_reducer(p: int, zp: dict, monomials) -> GaussianBasis:
    """Row space of the p-th powers nf(m^p), m = x^u y^v z^eps for each
    (u, v, eps) in monomials, on monomial keys (u, v, z-exp).

    nf(m^p) = x^{pu} y^{pv} nf(z^p)^eps, so each row is the single key
    (pu, pv, 0) or the oracle's nf(z^p) (the term map zp) re-keyed by the
    shift (pu, pv); no polynomial is multiplied.
    """
    basis = GaussianBasis(p)
    for u, v, eps in monomials:
        basis.add(_shift(zp, p * u, p * v) if eps else {(p * u, p * v, 0): 1})
    return basis


def _slot1_vector(cover: DoubleCover, poly: Poly, k2: GaussianBasis) -> dict:
    reduced = reduce_modulo_cover(poly, cover)
    return k2.reduce(reduced.term_map())


def _socle_image_vanishes(cover: DoubleCover, shift: int, zp: dict) -> bool:
    """Is (xy)^shift * Phi(socle-numerator) in x^L Q + y^L Q for L = 1 + shift?

    zp is the oracle's nf(z^p); the numerator is its shift by (xy)^{p shift}.
    """
    p = cover.p
    level = 1 + shift
    numerator = _shift(zp, p * shift, p * shift)

    # Slot 0: single-monomial columns x^L.(m, 0) and y^L.(m, 0); membership is
    # per-monomial divisibility by x^{pL} or y^{pL}.
    for u, v, _w in numerator:
        if u < p * level and v < p * level:
            return False

    # Slot 1: the delta twist of the numerator, modulo p-th powers, must lie
    # in the span of transported slot-1 monomials x^{p^2 L} m and y^{p^2 L} m.
    slot_shift = p * p * level
    delta = reduce_modulo_cover(delta_carry(cover.ring_xyz.from_terms(numerator)), cover)
    if delta.is_zero():
        return True
    support = delta.term_map()
    max_x = max(k[0] for k in support)
    max_y = max(k[1] for k in support)
    buffer = p * (1 + cover.g.total_degree())
    box_x = max_x + buffer
    box_y = max_y + buffer
    k2 = _k2_reducer(
        p,
        zp,
        [
            (a, b, w)
            for w in (0, 1)
            for a in range((box_x + buffer) // p + 1)
            for b in range((box_y + buffer) // p + 1)
        ],
    )
    target = k2.reduce(support)
    if not target:
        return True

    # K_2 reduction moves support only along row-support chains, so every
    # column that can interact with the target starts inside the target's
    # row-connected component; columns in other components could at most
    # cancel among themselves and are dropped.
    adjacency: dict = {}
    for row in k2.rows.values():
        keys = list(row)
        for key in keys:
            adjacency.setdefault(key, []).append(keys)
    component = set(target)
    frontier = list(target)
    while frontier:
        key = frontier.pop()
        for keys in adjacency.get(key, ()):
            for other in keys:
                if other not in component:
                    component.add(other)
                    frontier.append(other)

    columns = []
    seen_vectors = set()
    for sx, sy in ((slot_shift, 0), (0, slot_shift)):
        for w in (0, 1):
            for a in range(max(0, box_x - sx) + 1):
                for b in range(max(0, box_y - sy) + 1):
                    key = (sx + a, sy + b, w)
                    if key not in component:
                        continue
                    vec = k2.reduce({key: 1})
                    if not vec:
                        continue
                    stamp = frozenset(vec.items())
                    if stamp in seen_vectors:
                        continue
                    seen_vectors.add(stamp)
                    columns.append(vec)
    coeffs, _ = solve(columns, target, p, witness=False)
    return coeffs is not None


def quasi2_cech_oracle(cover: DoubleCover) -> bool:
    """2-quasi-F-split verdict by brute-force Cech vanishing in Q.

    The class is tested at the natural level and once more one step deeper;
    an exhibited membership is a definitive vanishing certificate, so the
    cover is 2-quasi-F-split only if both levels refuse it.  At each level
    the columns range over a box that reaches p * (1 + deg g) beyond the
    support of the delta twist.
    """
    p = cover.p
    base = p * p - p
    zp = _z_power_normal_form(cover)
    for extra in (0, p):
        if _socle_image_vanishes(cover, base + extra, zp):
            return False
    return True


class NotQuasiHomogeneousError(ValueError):
    """The graded splitting search needs a quasi-homogeneous g."""


def quasi_homogeneous_weights(cover: DoubleCover) -> tuple[int, int, int]:
    """Integer weights (w_x, w_y, w_z) making z^2 + g weighted homogeneous."""
    support = sorted(cover.g.term_map())
    (u0, v0) = support[0]
    # every term must satisfy u*wx + v*wy = u0*wx + v0*wy, pinning wy/wx
    ratio = None
    for u, v in support[1:]:
        du, dv = u - u0, v - v0
        if dv == 0:
            if du != 0:
                raise NotQuasiHomogeneousError(f"{cover.g.render()} is not quasi-homogeneous")
            continue
        candidate = Fraction(-du, dv)
        if candidate <= 0 or (ratio is not None and ratio != candidate):
            raise NotQuasiHomogeneousError(f"{cover.g.render()} is not quasi-homogeneous")
        ratio = candidate
    wx, wy = (ratio.denominator, ratio.numerator) if ratio is not None else (1, 1)
    total = u0 * wx + v0 * wy
    if total % 2:
        wx, wy, total = 2 * wx, 2 * wy, 2 * total
    return wx, wy, total // 2


def _weighted_degree(exps: tuple[int, int, int], weights: tuple[int, int, int]) -> int:
    return exps[0] * weights[0] + exps[1] * weights[1] + exps[2] * weights[2]


def _monomials_of_weight_at_most(cover, weights, cap):
    wx, wy, wz = weights
    out = []
    for eps in (0, 1):
        rest = cap - eps * wz
        if rest < 0:
            continue
        for u in range(rest // wx + 1):
            for v in range((rest - u * wx) // wy + 1):
                out.append((u, v, eps))
    return out


def _times_generator(r: tuple[int, int, int], index: int, neg_g: dict) -> dict:
    """nf(t * r) for the generator t = (x, y, z)[index] and a monomial r of
    z-degree <= 1: bump one exponent, and when z reaches 2 use z^2 = -g,
    one shift of -g (the term map neg_g)."""
    bumped = list(r)
    bumped[index] += 1
    u, v, w = bumped
    if w == 2:
        return _shift(neg_g, u, v)
    return {(u, v, w): 1}


def splitting_search(cover: DoubleCover) -> bool:
    """Feasibility of a graded splitting alpha: Q_{R,2} -> R on a window.

    Coordinates on Q are slot 0 (first Witt component, delta-twisted into
    slot 1) and slot 1 (the V-part modulo p-th powers); with Q-degrees
    scaled by p^2, slot-0 classes of a monomial m sit at p * wdeg(m) and
    slot-1 classes at wdeg(m).  A graded alpha vanishes off the lattice of
    degrees divisible by p^2 and the module action preserves the lattice,
    so the unknowns are the values alpha(b) in R at degree deg(b)/p^2 for
    lattice basis elements b, subject to alpha(t.b) = t*alpha(b) for
    t in {x, y, z} and alpha(class(1, 0)) = 1.  The window is weighted
    R-degree <= 4 p^2.  The equations need t*r for every generator t and
    window monomial r of z-degree <= 1; ``_times_generator`` builds each one
    directly, one bumped exponent or, when z reaches 2, one shift of -g.
    Infeasibility certifies that no splitting exists; feasibility is the
    windowed converse, validated against the other routes on the corpus.
    """
    p = cover.p
    ring = cover.ring_xyz
    weights = quasi_homogeneous_weights(cover)
    degree_cap = 4 * p * p  # weighted R-degree window
    q_cap = p * p * degree_cap

    k2 = _k2_reducer(
        p, _z_power_normal_form(cover), _monomials_of_weight_at_most(cover, weights, q_cap // p)
    )

    def q_degree(slot: str, exps) -> int:
        scale = p if slot == "0" else 1
        return scale * _weighted_degree(exps, weights)

    slot0 = [
        m
        for m in _monomials_of_weight_at_most(cover, weights, q_cap // p)
        if q_degree("0", m) % (p * p) == 0
    ]
    slot1 = [
        m
        for m in _monomials_of_weight_at_most(cover, weights, q_cap)
        if q_degree("1", m) % (p * p) == 0 and k2.reduce({m: 1}) == {m: 1}
    ]

    r_cache: dict[int, list] = {}

    def r_basis(degree: int) -> list:
        if degree not in r_cache:
            r_cache[degree] = [
                m
                for m in _monomials_of_weight_at_most(cover, weights, degree)
                if _weighted_degree(m, weights) == degree
            ]
        return r_cache[degree]

    unknowns: dict[tuple, int] = {}
    for slot, basis in (("0", slot0), ("1", slot1)):
        for b in basis:
            for r in r_basis(q_degree(slot, b) // (p * p)):
                unknowns[((slot, b), r)] = len(unknowns)

    def coords(a0: Poly, a1: Poly) -> dict:
        out: dict = {}
        red0 = reduce_modulo_cover(a0, cover)
        for exps, c in red0.term_map().items():
            out[("0", exps)] = c
        twist = a1 + delta_carry(red0)
        for exps, c in _slot1_vector(cover, twist, k2).items():
            out[("1", exps)] = (out.get(("1", exps), 0) + c) % p
        return {k: v for k, v in out.items() if v}

    columns: dict[tuple, dict] = {key: {} for key in unknowns}

    def add_term(row_key, unknown_key, coeff) -> None:
        if unknown_key not in columns:
            return
        column = columns[unknown_key]
        value = (column.get(row_key, 0) + coeff) % p
        if value:
            column[row_key] = value
        elif row_key in column:
            del column[row_key]

    neg_g = cover.neg_g.term_map()
    gens = [ring.gen(t) for t in ("x", "y", "z")]
    cid = 0
    for slot, basis in (("0", slot0), ("1", slot1)):
        for b in basis:
            source_degree = q_degree(slot, b) // (p * p)
            for index, t_poly in enumerate(gens):
                if source_degree + weights[index] > degree_cap:
                    continue
                if slot == "0":
                    moved = coords(t_poly**p * ring.from_terms({b: 1}), ring.zero())
                else:
                    moved = coords(ring.zero(), t_poly ** (p * p) * ring.from_terms({b: 1}))
                # alpha(t.b) - t*alpha(b) = 0 over R-monomials
                for (mslot, mb), coeff in moved.items():
                    for r in r_basis(q_degree(mslot, mb) // (p * p)):
                        add_term((cid, r), ((mslot, mb), r), coeff)
                for r in r_basis(source_degree):
                    for exps, c in _times_generator(r, index, neg_g).items():
                        add_term((cid, exps), ((slot, b), r), -c)
                cid += 1

    # the unit's unknown is always present: slot 0 and R both start at degree 0
    add_term(("phi", (0, 0, 0)), (("0", (0, 0, 0)), (0, 0, 0)), 1)
    rhs = {("phi", (0, 0, 0)): 1}

    ordered = sorted(columns, key=repr)
    solution, _ = solve([columns[key] for key in ordered], rhs, p, witness=False)
    return solution is not None
