"""Independent cross-checks for the double-cover verdicts.

Two mechanisms, neither touching the engine's carry-splitting or
Frobenius-image code paths:

* `quasi2_cech_oracle` works in Q = F_* W_2(R) / p.  The cover is
  2-quasi-F-split iff the image of the socle {z/(xy)} survives in H^2 of
  Q, and that image vanishes iff its numerator, pushed to the denominator
  level L = 1 + p^2, lies in the submodule x^L Q + y^L Q; a shallower level
  would add nothing (see the oracle's docstring).  Q carries linear
  coordinates over F_p: a class of (a_0, a_1) maps to
  (a_0, a_1 + delta(a_0)) with the second slot reduced modulo p-th powers
  {c^p}; the delta twist absorbs the Witt addition carry, making the
  coordinate map additive, so the vanishing is a plain span test.  The
  p-th powers are spanned by x^{pu} y^{pv} and x^{pu} y^{pv} nf(z^p); the
  oracle reduces z^p itself once per call and builds every such row, and
  the socle numerator, by re-keying a shift of that one normal form.  The
  delta twist is computed only when slot 0 does not answer.  The slot-1
  part of x^L Q + y^L Q is the monomial ideal (x^T, y^T), T = p^2 L, so
  the test runs in the quotient by it, where finitely many K_2 rows are
  left: is the twist's image in the span of the images of the rows of its
  ``linalg.block``?

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
  move table).  The walk runs on packed ints: an R-monomial is one int, an
  unknown and an equation row add their basis element's or equation's
  number above it, so no order depends on the hash seed.  Rows are
  numbered by weighted degree and, within a degree, fewest entries first.
  The block's columns go to one ``GaussianBasis`` in ascending weighted
  degree, and the search is one span test: is phi's row in their span?
"""

from __future__ import annotations

from .linalg import GaussianBasis, block
# unused here, but perfbench/tracing.install wraps it: a traced run needs the name
from .linalg import solve  # noqa: F401
from .localcoh import DoubleCover, quasi_homogeneous_grading, reduce_modulo_cover
from .witt import delta_carry


def _z_power_normal_form(cover: DoubleCover, exponent: int | None = None) -> dict:
    """The oracle's own nf(z^exponent) (z^p by default) as a term map: the
    power rewritten to z-degree <= 1 by z^2 = -g, once per oracle call and
    never the engine's cache."""
    e = cover.p if exponent is None else exponent
    return reduce_modulo_cover(cover.ring_xyz.gen("z") ** e, cover).term_map()


def _delta_normal_form(cover: DoubleCover, terms: dict, q: int | None = None) -> dict:
    """nf(delta(f)) for the polynomial f with the given term map, with delta
    taken modulo m^[q] (``delta_carry``'s bound; None cuts nothing).  For a
    monomial m with coefficient 1, delta(m f) = m^p delta(f), so the carry
    of any shift of f is the matching shift of this one."""
    delta = delta_carry(cover.ring_xyz.from_terms(terms), q)
    return reduce_modulo_cover(delta, cover).term_map()


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


def _k2_rows_holding(p: int, zp: dict, key: tuple):
    """The labels (u, v, eps) of the ``_k2_row``s whose support holds
    key = (x, y, w), found by reverse lookup: the monomial row (x/p, y/p, 0)
    when w = 0 and p divides x and y, and for each term (s, t, w) of zp the
    row ((x - s)/p, (y - t)/p, 1) when both quotients are whole and >= 0."""
    x, y, w = key
    for (s, t, zw), eps in [((0, 0, 0), 0)] + [(term, 1) for term in zp]:
        u, ru = divmod(x - s, p)
        v, rv = divmod(y - t, p)
        if zw == w and not ru and not rv and u >= 0 and v >= 0:
            yield u, v, eps


def quasi2_cech_oracle(cover: DoubleCover) -> bool:
    """2-quasi-F-split verdict by brute-force Cech vanishing in Q.

    The cover is 2-quasi-F-split iff the socle class does not vanish at
    level L = 1 + s, s = p^2: iff (xy)^s * Phi(socle-numerator), whose
    numerator is nf(z^p) shifted by (xy)^{p s}, is not in x^L Q + y^L Q.
    Let T = p^2 L.  Three facts make this one finite, exact span test.

    Slot 0 is the socle test at every level.  The slot-0 columns x^L.(m, 0)
    and y^L.(m, 0) are the monomials divisible by x^{pL} or y^{pL}, and a
    term x^u y^v of nf(z^p), shifted, escapes both iff u + p s < p L and
    v + p s < p L, that is u, v < p.  Such a term keeps the class alive, and
    no delta is computed.  Otherwise the class vanishes iff its delta twist,
    nf(delta(nf(z^p))) shifted by (xy)^{p^2 s}, lies in the span of the
    K_2 rows and the slot-1 part of x^L Q + y^L Q.

    That slot-1 part is the slot ideal I = (x^T, y^T): x acts on slot 1 as
    x^{p^2}, so x^L Q + y^L Q holds x^T m and y^T m in slot 1 for every
    monomial m.  I is spanned by monomials, so the class vanishes iff
    pi(twist) lies in the span of the pi(K_2 rows), where pi drops every
    term with an exponent >= T; an empty pi(twist) does.  The K_2 row of
    (u, v, eps) is x^{pu} y^{pv} nf(z^p)^eps, so a row with pu >= T or
    pv >= T lies in I: only the rows with u, v < T/p = p (1 + p^2) remain.
    Only the block of pi(twist) among them is built (``linalg.block``, which
    decides the span test); a key outside I is held only by rows with
    u <= x/p < T/p, so ``_k2_rows_holding`` needs no bound.  The twist
    itself needs delta only modulo m^[p^2]: pi keeps the exponents below
    T = p^4 + p^2 after the shift by p^4, that is below p^2 before it, and
    z^2 = -g only raises exponents, so a term of delta with an x- or
    y-exponent of p^2 or more reduces to terms that pi drops (delta's
    z-exponents are at most p < p^2).

    The shallower level s = p^2 - p is subsumed.  Its system has the ideal
    (x^{T'}, y^{T'}), T' = p^2 (1 + p^2 - p), and the twist shift p^4 - p^3.
    Multiplying by (xy)^{p^3} maps it to the deep system term by term: the
    twist to the twist, the K_2 row of (u, v, eps) to that of
    (u + p^2, v + p^2, eps), and x^{T'} m, y^{T'} m into I.  Writing v_0
    and v_1 for "vanishes at the shallow, resp. deep, level", v_0 implies
    v_1, so testing both levels answers not (v_0 or v_1) = not v_1.

    Under the engine's label dictionary, key (x, y, w) <-> z^w / (x^{T-x}
    y^{T-y}), pi(twist) is the carry eta, and the row of (u, v, eps) is
    F(z^eps / (x^i y^j)) with i = T/p - u, j = T/p - v.  So the oracle
    answers the Frobenius-image membership at label bound B = p (1 + p^2),
    with its own code.
    """
    p = cover.p
    zp = _z_power_normal_form(cover)
    if any(u < p and v < p for u, v, _w in zp):
        return True
    bound = p * p * (1 + p * p)  # T = p^2 L

    def pi(terms: dict) -> dict:
        return {key: c for key, c in terms.items() if key[0] < bound and key[1] < bound}

    twist = pi(_shift(_delta_normal_form(cover, zp, p * p), p**4, p**4))
    rows, _keys = block(
        twist,
        lambda key: _k2_rows_holding(p, zp, key),
        lambda label: pi(_k2_row(p, zp, *label)),
    )
    span = GaussianBasis(p)
    for label in sorted(rows):
        span.add(rows[label])
    return not span.contains(twist)


class NotQuasiHomogeneousError(ValueError):
    """The graded splitting search needs a quasi-homogeneous g."""


def quasi_homogeneous_weights(cover: DoubleCover) -> tuple[int, int, int]:
    """Integer weights (w_x, w_y, w_z) making z^2 + g weighted homogeneous:
    the grading of g, doubled when its degree is odd so that w_z is whole."""
    grading = quasi_homogeneous_grading(cover.g)
    if grading is None:
        raise NotQuasiHomogeneousError(f"{cover.g.render()} is not quasi-homogeneous")
    wx, wy, total = grading
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


def _width(cover: DoubleCover) -> int:
    """Bits per exponent field of a packed R-monomial.  For a monomial r of
    the window (weighted degree <= 4 p^2, so every exponent <= 4 p^2), each
    exponent of nf(t * r) is at most 4 p^2 plus the largest exponent of g
    (z^2 = -g), and the field holds that: every key ``_times_generator`` and
    ``_preimages`` build unpacks to its own monomial."""
    top = max(max(a, b) for a, b, _w in cover.neg_g.term_map())
    return (4 * cover.p * cover.p + top).bit_length()


def _pack(m: tuple[int, int, int], width: int) -> int:
    """The R-monomial x^a y^b z^w (w <= 1) as the int (a 2^width + b) 2 + w."""
    a, b, w = m
    return (a << width | b) << 1 | w


def _unpack(key: int, width: int) -> tuple[int, int, int]:
    """The exponents (a, b, w) of a ``_pack``ed R-monomial."""
    return key >> width + 1, key >> 1 & (1 << width) - 1, key & 1


def _times_generator(r: int, index: int, neg_g: dict, width: int) -> dict:
    """nf(t * r) for the generator t = (x, y, z)[index] and a packed monomial
    r of z-degree <= 1: bump one field, and when z reaches 2 use z^2 = -g,
    one shift of -g (neg_g, a packed term map free of z)."""
    if index == 2 and r & 1:
        return {r - 1 + m: c for m, c in neg_g.items()}
    return {r + (2 << width, 2, 1)[index]: 1}


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


def _preimages(out: int, index: int, neg_g: dict, width: int):
    """The packed monomials r of z-degree <= 1 whose ``_times_generator``
    image holds the packed monomial out, with the coefficient of out there:
    for x or y, out with that exponent lowered by one; for z, out with w = 1
    dropped to w = 0, or, when w = 0, out minus a term of -g with w raised
    to 1."""
    x, y, w = _unpack(out, width)
    if index == 0:
        if x:
            yield out - (2 << width), 1
    elif index == 1:
        if y:
            yield out - 2, 1
    elif w:
        yield out - 1, 1
    else:
        for m, c in neg_g.items():
            s, t, _ = _unpack(m, width)
            if s <= x and t <= y:
                yield out - m + 1, c


def _splitting_system(cover: DoubleCover) -> dict:
    """The columns ``splitting_search`` spans: unknown ((slot, b), r) ->
    {row number: coefficient}, in ascending weighted degree, for the block
    of the window's system that holds the phi row.

    The walk runs on packed ints.  The window's lattice basis elements
    (slot, b) are numbered in sorted order, and an R-monomial is packed
    into s = 2 ``_width(cover)`` + 1 bits (``_pack``).  The unknown alpha(b_i)
    at r is i 2^s + r; the equation alpha(t.b_i) = t*alpha(b_i) of
    t = (x, y, z)[index] is e = 3 i + index, and its row at the R-monomial
    out is e 2^s + out.  Phi's row is row 0; the others are numbered by
    (weighted degree, entry count, packed key), fewest entries first within
    each degree, and the unknowns come in (weighted degree, packed key)
    order, so no order depends on the hash seed.  The keys are turned back
    into tuples only for the returned columns.  See ``splitting_search``."""
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

    # the lattice of Q-degrees divisible by p^2 (slot 0 sits at p wdeg, slot 1
    # at wdeg); a monomial reduces to itself modulo K_2 iff it is no pivot of K_2
    basis = sorted(
        [("0", m) for m in slot0_window if _weighted_degree(m, weights) % p == 0]
        + [
            ("1", m)
            for m in _monomials_of_weight_at_most(weights, q_cap)
            if _weighted_degree(m, weights) % (p * p) == 0 and m not in k2.rows
        ]
    )
    number = {element: i for i, element in enumerate(basis)}

    width = _width(cover)
    shift = 2 * width + 1
    low = (1 << shift) - 1
    window = _monomials_of_weight_at_most(weights, degree_cap)
    degree = {_pack(m, width): _weighted_degree(m, weights) for m in window}
    neg_g = {_pack(m, width): c for m, c in cover.neg_g.term_map().items()}

    # moves[e]: the move t.b of each equation e of the window on the basis, as
    # (i 2^s, coefficient) pairs; forward[i]: the equations (e 2^s, index) of
    # b_i; incoming[i]: the equations e 2^s whose move holds b_i
    moves: dict[int, list] = {}
    forward: list[list] = [[] for _ in basis]
    incoming: list[list[int]] = [[] for _ in basis]
    for i, (slot, b) in enumerate(basis):
        source_degree = _weighted_degree(b, weights) // (p if slot == "0" else p * p)
        for index in range(3):
            if source_degree + weights[index] <= degree_cap:
                e = 3 * i + index
                image = [(number[t], c) for t, c in move(slot, b, index).items() if t in number]
                moves[e] = [(target << shift, c) for target, c in image]
                forward[i].append((e << shift, index))
                for target, _c in image:
                    incoming[target].append(e << shift)

    def rows_holding(unknown: int) -> list[int]:
        i, r = unknown >> shift, unknown & low
        found = [e | out for e, index in forward[i] for out in _times_generator(r, index, neg_g, width)]
        found += [e | r for e in incoming[i]]
        return found

    def row(key: int) -> dict:
        """alpha(t.b) - t*alpha(b) = 0 at the R-monomial out."""
        e, out = key >> shift, key & low
        i, index = divmod(e, 3)
        entries = {target | out: c for target, c in moves[e]}
        for r, c in _preimages(out, index, neg_g, width):
            entries[i << shift | r] = -c % p
        return entries

    # the unit's unknown alpha(1) at r = 1 is always present: slot 0 and R
    # both start at degree 0
    unit = number["0", (0, 0, 0)] << shift
    rows, seen = block([unit], rows_holding, row)

    columns = {unknown: {} for unknown in sorted(seen, key=lambda u: (degree[u & low], u))}
    columns[unit][0] = 1
    numbered = sorted(rows, key=lambda key: (degree[key & low], len(rows[key]), key))
    for n, key in enumerate(numbered, 1):
        for unknown, c in rows[key].items():
            columns[unknown][n] = c
    return {(basis[u >> shift], _unpack(u & low, width)): column for u, column in columns.items()}


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
    The walk goes unknown -> rows holding it -> their unknowns, on the
    packed keys of ``_splitting_system``.  An unknown ((slot, b), r) sits
    in the rows of the equations of b at each t*r (``_times_generator``),
    and in the rows at r of every equation whose module move t.b' holds
    (slot, b), read off a reverse index of the move table
    (``_module_moves``, every move of the window computed once).  Each
    reached row is built in full by inverting t*r'' on its R-monomial
    (``_preimages``).  The walked set is ``linalg._rhs_block`` of the whole
    window, found without building the rest, and it decides span membership
    exactly (see ``linalg.block``): phi's row lies in its block.

    The system is feasible iff phi's row {0: 1} lies in the span of the
    columns.  Rows are numbered in ascending weighted degree with phi's row
    as 0, and the columns go to one ``GaussianBasis`` in ascending degree
    too.  A row of degree d holds only unknowns of degree <= d, so a column
    of degree d has its rows at degree d or above, and each column is
    reduced against pivots of its own degree or below.  Within a degree the
    rows with fewest entries come first: pivots, the smallest row numbers,
    then sit in the sparsest rows, and the elimination fills in far less
    (on E6 at p = 3 it adds 2,757 row entries, against 78,009 in (degree,
    key) order).  Infeasibility
    certifies that no splitting exists; feasibility is the windowed
    converse, validated against the other routes on the corpus.
    """
    span = GaussianBasis(cover.p)
    for column in _splitting_system(cover).values():
        span.add(column)
    return span.contains({0: 1})
