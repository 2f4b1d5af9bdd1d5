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
  the socle numerator, by re-keying a shift of that one normal form.  The
  delta twist of a numerator shifted by a monomial m is m^p times that of
  nf(z^p), so one delta per call serves both levels.  Each level builds
  only the ``linalg.block`` of the twist's support among the K_2 rows of
  its box (its raw-row component), found by reverse lookup from the keys,
  and tests the twist for membership in one span: those rows plus the
  component's slot-range monomials.

* `splitting_search` looks for the splitting itself: a graded module
  homomorphism alpha: Q -> R with alpha(Phi(1)) = 1, solved for on the
  truncated graded pieces of a quasi-homogeneous cover.  Feasibility of
  the truncated system is decided by exact linear algebra; the window
  grows like p^4, so this route is for small primes.  Every module move
  t.b comes from a table built once per call: a shifted monomial, or a
  shift of the search's own nf(z^{p+eps}), nf(delta(nf(z^{p+eps}))) or
  nf(z^{p^2+eps}), then one K_2 reduction.  Only the ``linalg.block`` of
  the phi row is built, walking out from alpha(1) through the rows that
  hold each unknown (forward by t*r, backward by a reverse index of the
  move table).  The block's columns go to one ``GaussianBasis`` in
  ascending weighted degree, and the search is one span test: is phi's
  row in their span?
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import GaussianBasis, block
# unused here, but perfbench/tracing.install wraps it: a traced run needs the name
from .linalg import solve  # noqa: F401
from .localcoh import DoubleCover, reduce_modulo_cover
from .witt import delta_carry


def _z_power_normal_form(cover: DoubleCover, exponent: int | None = None) -> dict:
    """The oracle's own nf(z^exponent) (z^p by default) as a term map: the
    power rewritten to z-degree <= 1 by z^2 = -g, once per oracle call and
    never the engine's cache."""
    e = cover.p if exponent is None else exponent
    return reduce_modulo_cover(cover.ring_xyz.gen("z") ** e, cover).term_map()


def _delta_normal_form(cover: DoubleCover, terms: dict) -> dict:
    """nf(delta(f)) for the polynomial f with the given term map.  For a
    monomial m with coefficient 1, delta(m f) = m^p delta(f), so the carry
    of any shift of f is the matching shift of this one."""
    return reduce_modulo_cover(delta_carry(cover.ring_xyz.from_terms(terms)), cover).term_map()


def _shift(terms: dict, du: int, dv: int) -> dict:
    """x^du y^dv times a polynomial given by its term map."""
    return {(u + du, v + dv, w): c for (u, v, w), c in terms.items()}


def _k2_row(p: int, zp: dict, u: int, v: int, eps: int) -> dict:
    """The row nf(m^p) of m = x^u y^v z^eps: the single key (pu, pv, 0), or
    the oracle's nf(z^p) (the term map zp) re-keyed by the shift (pu, pv)."""
    return _shift(zp, p * u, p * v) if eps else {(p * u, p * v, 0): 1}


def _k2_reducer(p: int, zp: dict, monomials) -> GaussianBasis:
    """Row space of the p-th powers nf(m^p), m = x^u y^v z^eps for each
    (u, v, eps) in monomials, on monomial keys (u, v, z-exp).

    nf(m^p) = x^{pu} y^{pv} nf(z^p)^eps, so each row is a ``_k2_row``; no
    polynomial is multiplied.
    """
    basis = GaussianBasis(p)
    for u, v, eps in monomials:
        basis.add(_k2_row(p, zp, u, v, eps))
    return basis


def _k2_rows_holding(p: int, zp: dict, key: tuple, na: int, nb: int):
    """The labels (u, v, eps), u < na and v < nb, of the ``_k2_row``s whose
    support holds key = (x, y, w), found by reverse lookup: the monomial row
    (x/p, y/p, 0) when w = 0 and p divides x and y, and for each term
    (s, t, w) of zp the row ((x - s)/p, (y - t)/p, 1) when both quotients are
    whole and >= 0."""
    x, y, w = key
    for (s, t, zw), eps in [((0, 0, 0), 0)] + [(term, 1) for term in zp]:
        u, ru = divmod(x - s, p)
        v, rv = divmod(y - t, p)
        if zw == w and not ru and not rv and 0 <= u < na and 0 <= v < nb:
            yield u, v, eps


class _CechLevels:
    """One Cech oracle call: the oracle's nf(z^p) and nf(delta(nf(z^p))),
    shared by both levels.

    A level tests its delta twist only against the K_2 rows of its box's
    raw-row component: the ``linalg.block`` of the twist's support, walked
    with ``_k2_rows_holding``.  Span membership splits by block, so this is
    the whole box's answer; a slot-range monomial holds one key, so it
    joins no two keys and leaves the blocks as they are.
    """

    def __init__(self, cover: DoubleCover):
        self.cover = cover
        self.zp = _z_power_normal_form(cover)
        self.delta_zp = _delta_normal_form(cover, self.zp)

    def box(self, shift: int):
        """The level's delta twist nf(delta(numerator)) as a term map, the
        corner (box_x, box_y) of the box of keys around its support, and the
        extent (na, nb) of K_2 monomials that covers the box; None when the
        twist is 0.

        The numerator is nf(z^p) shifted by (xy)^{p shift}, so its twist is
        nf(delta(nf(z^p))) shifted by (xy)^{p^2 shift}.
        """
        if not self.delta_zp:
            return None
        p = self.cover.p
        support = _shift(self.delta_zp, p * p * shift, p * p * shift)
        buffer = p * (1 + self.cover.g.total_degree())
        box_x = max(k[0] for k in support) + buffer
        box_y = max(k[1] for k in support) + buffer
        return support, box_x, box_y, ((box_x + buffer) // p + 1, (box_y + buffer) // p + 1)

    def component(self, support: dict, na: int, nb: int) -> tuple[set, set]:
        """The keys of the raw-row component of the support's keys among the
        K_2 rows of monomials inside (na, nb), and the labels of its rows."""
        p, zp = self.cover.p, self.zp
        rows, keys = block(
            support,
            lambda key: _k2_rows_holding(p, zp, key, na, nb),
            lambda label: _k2_row(p, zp, *label),
        )
        return keys, set(rows)

    def vanishes(self, shift: int) -> bool:
        """Is (xy)^shift * Phi(socle-numerator) in x^L Q + y^L Q for L = 1 + shift?"""
        p = self.cover.p
        level = 1 + shift
        numerator = _shift(self.zp, p * shift, p * shift)

        # Slot 0: single-monomial columns x^L.(m, 0) and y^L.(m, 0); membership
        # is per-monomial divisibility by x^{pL} or y^{pL}.
        for u, v, _w in numerator:
            if u < p * level and v < p * level:
                return False

        # Slot 1: the delta twist of the numerator must lie in the span of
        # the p-th powers and the transported slot-1 monomials x^{p^2 L} m
        # and y^{p^2 L} m, for m in the slot ranges of the box.
        box = self.box(shift)
        if box is None:
            return True
        support, box_x, box_y, (na, nb) = box
        component, labels = self.component(support, na, nb)
        span = _k2_reducer(p, self.zp, sorted(labels))
        if span.contains(support):
            return True
        slot_shift = p * p * level
        for x, y, w in sorted(component):
            if any(
                sx <= x <= max(sx, box_x) and sy <= y <= max(sy, box_y)
                for sx, sy in ((slot_shift, 0), (0, slot_shift))
            ):
                span.add({(x, y, w): 1})
        return span.contains(support)


def quasi2_cech_oracle(cover: DoubleCover) -> bool:
    """2-quasi-F-split verdict by brute-force Cech vanishing in Q.

    The class is tested at the natural level and once more one step deeper;
    an exhibited membership is a definitive vanishing certificate, so the
    cover is 2-quasi-F-split only if both levels refuse it.  At each level
    the columns range over a box that reaches p * (1 + deg g) beyond the
    support of the delta twist, restricted to the twist's raw-row component
    of the box's K_2 rows, which gives the whole box's answer (see
    ``linalg.block``).
    """
    p = cover.p
    base = p * p - p
    levels = _CechLevels(cover)
    for extra in (0, p):
        if levels.vanishes(base + extra):
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


def _monomials_of_weight_at_most(weights, cap):
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
    u, v, w = _bumped(r, index, 1)
    if w == 2:
        return _shift(neg_g, u, v)
    return {(u, v, w): 1}


def _module_moves(cover: DoubleCover, k2: GaussianBasis, zp: dict):
    """The move table of ``splitting_search``: move(slot, b, index) is the
    coordinate vector {(slot, monomial): coefficient} of t.b for the
    generator t = (x, y, z)[index] and the slot-0 or slot-1 class of the
    monomial b = x^u y^v z^eps (eps <= 1).

    On slot 0, t acts as t^p: for t in {x, y} the image is one shifted
    monomial with zero carry; for t = z it is nf(z^{p+eps}) shifted by
    x^u y^v, whose delta twist nf(delta(nf(z^{p+eps}))) shifted by
    x^{pu} y^{pv} (delta(m f) = m^p delta(f) for a monomial m) lands in
    slot 1.  On slot 1, t acts as t^{p^2}: a shifted monomial, or
    nf(z^{p^2+eps}) shifted by x^u y^v.  The normal forms are reduced once,
    here (zp is the search's nf(z^p)); each slot-1 part is then one re-key
    and one K_2 reduction.
    """
    p = cover.p
    z_slot0 = [zp, _z_power_normal_form(cover, p + 1)]
    twist_slot0 = [_delta_normal_form(cover, terms) for terms in z_slot0]
    z_slot1 = [_z_power_normal_form(cover, p * p + eps) for eps in (0, 1)]

    def move(slot: str, b: tuple[int, int, int], index: int) -> dict:
        u, v, eps = b
        if slot == "0":
            if index < 2:
                return {("0", _bumped(b, index, p)): 1}
            out = {("0", exps): c for exps, c in _shift(z_slot0[eps], u, v).items()}
            twist = _shift(twist_slot0[eps], p * u, p * v)
        else:
            out = {}
            twist = {_bumped(b, index, p * p): 1} if index < 2 else _shift(z_slot1[eps], u, v)
        for exps, c in k2.reduce(twist).items():
            out[("1", exps)] = c
        return out

    return move


def _bumped(b: tuple[int, int, int], index: int, amount: int) -> tuple[int, int, int]:
    exps = list(b)
    exps[index] += amount
    return tuple(exps)


class ShallowWindowError(ValueError):
    """The search window 4 p^2 lies below w_z: no equation involves z, so
    the search would decide nothing."""


def _preimages(out: tuple[int, int, int], index: int, neg_g: dict):
    """The monomials r of z-degree <= 1 whose ``_times_generator`` image
    holds the monomial out, with the coefficient of out there: for x or y,
    out with that exponent lowered by one; for z, out with w = 1 dropped to
    w = 0, or, when w = 0, out minus a term of -g with w raised to 1."""
    if index < 2:
        if out[index]:
            yield _bumped(out, index, -1), 1
        return
    x, y, w = out
    if w:
        yield (x, y, 0), 1
        return
    for (s, t, _), c in neg_g.items():
        if s <= x and t <= y:
            yield (x - s, y - t, 1), c


def _splitting_system(cover: DoubleCover) -> dict:
    """The columns ``splitting_search`` spans: unknown -> {row number:
    coefficient}, in ascending weighted degree, for the block of the
    window's system that holds the phi row.  Rows are numbered in ascending
    weighted degree, phi's row first as row 0.  See ``splitting_search``."""
    p = cover.p
    weights = quasi_homogeneous_weights(cover)
    degree_cap = 4 * p * p  # weighted R-degree window
    if weights[2] > degree_cap:
        raise ShallowWindowError(
            f"w_z = {weights[2]} exceeds the window 4p^2 = {degree_cap} for {cover.g.render()}"
        )
    q_cap = p * p * degree_cap

    zp = _z_power_normal_form(cover)
    slot0_window = _monomials_of_weight_at_most(weights, q_cap // p)
    k2 = _k2_reducer(p, zp, slot0_window)
    move = _module_moves(cover, k2, zp)

    def q_degree(slot: str, exps) -> int:
        scale = p if slot == "0" else 1
        return scale * _weighted_degree(exps, weights)

    # a monomial reduces to itself modulo K_2 iff it is no pivot of K_2
    basis = {("0", m) for m in slot0_window if q_degree("0", m) % (p * p) == 0} | {
        ("1", m)
        for m in _monomials_of_weight_at_most(weights, q_cap)
        if q_degree("1", m) % (p * p) == 0 and m not in k2.rows
    }
    moves = {
        (slot, b, index): move(slot, b, index)
        for slot, b in basis
        for index in range(3)
        if q_degree(slot, b) // (p * p) + weights[index] <= degree_cap
    }
    incoming: dict[tuple, list] = {}
    for equation, image in moves.items():
        for target in image:
            incoming.setdefault(target, []).append(equation)

    neg_g = cover.neg_g.term_map()

    def rows_holding(unknown):
        source, r = unknown
        for index in range(3):
            equation = (*source, index)
            if equation in moves:
                for out in _times_generator(r, index, neg_g):
                    yield equation, out
        for equation in incoming.get(source, ()):
            yield equation, r

    def row(equation, out) -> dict:
        """alpha(t.b) - t*alpha(b) = 0 at the R-monomial out."""
        slot, b, index = equation
        entries = {(target, out): c for target, c in moves[equation].items() if target in basis}
        for r, c in _preimages(out, index, neg_g):
            entries[((slot, b), r)] = -c % p
        return entries

    # the unit's unknown is always present: slot 0 and R both start at degree 0
    unit = (("0", (0, 0, 0)), (0, 0, 0))
    rows, seen = block([unit], rows_holding, lambda at: row(*at))

    def by_degree(item):  # a row (equation, out) or an unknown (source, r)
        return _weighted_degree(item[1], weights), item

    # rows numbered in ascending degree after phi's row 0, of degree 0
    columns = {unknown: {} for unknown in sorted(seen, key=by_degree)}
    columns[unit][0] = 1
    for number, at in enumerate(sorted(rows, key=by_degree), 1):
        for unknown, c in rows[at].items():
            columns[unknown][number] = c
    return columns


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
    R-degree <= 4 p^2; a cover with w_z above it raises
    ``ShallowWindowError``, since no equation would involve z.

    Only the block of the phi row is built: the unknowns and equation rows
    joined to phi's unknown alpha(1) by chains of rows sharing an unknown.
    The walk goes unknown -> rows holding it -> their unknowns.  An unknown
    ((slot, b), r) sits in the rows of the equations of b at each t*r
    (``_times_generator``), and in the rows at r of every equation whose
    module move t.b' holds (slot, b), read off a reverse index of the move
    table (``_module_moves``, every move of the window computed once).  Each
    reached row is built in full by inverting t*r'' on its R-monomial
    (``_preimages``).  The walked set is ``linalg._rhs_block`` of the whole
    window, found without building the rest, and it decides span membership
    exactly (see ``linalg.block``): phi's row lies in its block.

    The system is feasible iff phi's row {0: 1} lies in the span of the
    columns.  Rows are numbered in ascending weighted degree with phi's row
    as 0, and the columns go to one ``GaussianBasis`` in ascending degree
    too.  A row of degree d holds only unknowns of degree <= d, so a column
    of degree d has its rows at degree d or above, and each column is
    reduced against pivots of its own degree or below.  Infeasibility
    certifies that no splitting exists; feasibility is the windowed
    converse, validated against the other routes on the corpus.
    """
    span = GaussianBasis(cover.p)
    for column in _splitting_system(cover).values():
        span.add(column)
    return span.contains({0: 1})
