"""Property tests: the isolated-singularity check against the capped
sweep it replaced (one fresh solve for every degree), its Groebner basis
against Buchberger's criterion in plain ``Poly`` arithmetic, the Witt
carry class against the direct integer formula and against
nf(delta(nf(z^p))), the single z-degree of nf(z^p) that the carry class
reads, and the membership's block walk against the whole box of Frobenius
columns."""

import json
import os
import sys
import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402
from qfsplit import linalg, localcoh  # noqa: E402
from qfsplit.localcoh import (  # noqa: E402
    DoubleCover,
    H2Class,
    MembershipResult,
    _frobenius_label_holders,
    _frobenius_label_image,
    _groebner_basis,
    frobenius_h2,
    frobenius_image_membership,
    has_isolated_singularity,
    normal_form,
    reduce_modulo_cover,
    socle,
    witt_carry_class,
)
from qfsplit.report import parse_doublecover  # noqa: E402
from qfsplit.ring import PolyRing  # noqa: E402
from qfsplit.witt import delta_carry  # noqa: E402

from conftest import expected_frobenius_numerator  # noqa: E402


def _pure_power_in_ideal(target, gens, degree_cap):
    """Bounded-degree ideal membership target = sum A_i * gen_i via linear algebra."""
    ring = target.ring
    columns = []
    for gen in gens:
        if gen.is_zero():
            continue
        for u in range(degree_cap + 1):
            for v in range(degree_cap + 1 - u):
                columns.append((ring.monomial({"x": u, "y": v}) * gen).term_map())
    if not columns:
        return False
    coeffs, _ = linalg.solve(columns, target.term_map(), ring.char)
    return coeffs is not None


def jacobian_generators(cover):
    """g_x, g_y, and g when p is odd: the generators of J."""
    g = cover.g
    return [g.derivative("x"), g.derivative("y")] + ([g] if cover.p != 2 else [])


def reference_isolated(cover, cap=None):
    """The capped sweep that the Groebner test replaced, as one independent
    solve per n, x first, then y: True when x^n and y^n, n <= cap, are
    combinations of the multiples x^u y^v * gen with u + v <= n + d,
    d = deg g.  The cap defaults to the sweep's (d-1)^2 + d.  True is always
    right; False can be wrong, since the cap bounds the multipliers and not
    the membership."""
    g = cover.g
    gens = jacobian_generators(cover)
    d = max(2, g.total_degree())
    if cap is None:
        cap = (d - 1) * (d - 1) + d
    ring = cover.ring_xy
    for n in range(1, cap + 1):
        if _pure_power_in_ideal(ring.monomial({"x": n}), gens, n + d):
            break
    else:
        return False
    for n in range(1, cap + 1):
        if _pure_power_in_ideal(ring.monomial({"y": n}), gens, n + d):
            return True
    return False


MONOMIALS = [(u, v) for u in range(5) for v in range(5) if 1 <= u + v <= 4]


@st.composite
def covers(draw, degree=4):
    """z^2 + g with g of 1-4 terms, total degree <= degree, no constant term."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    monomials = [(u, v) for u in range(degree + 1) for v in range(degree + 1 - u) if u + v]
    terms = draw(
        st.dictionaries(st.sampled_from(monomials), st.integers(1, p - 1), min_size=1, max_size=4)
    )
    return DoubleCover(p, PolyRing(p, ("x", "y")).from_terms(terms))


def cover(p, g):
    return DoubleCover(p, PolyRing(p, ("x", "y")).parse(g))


@settings(deadline=None, max_examples=40)
@given(covers())
@example(cover(3, "x*y"))  # x^1 needs the degree-0 multiples
@example(cover(2, "x^2*y + y^4"))  # y^n found, x^n never
@example(cover(3, "x^2"))  # neither found
@example(cover(3, "x*y + x^3 + y^3"))  # not quasi-homogeneous: the sweep finds x, y at once
@example(cover(5, "x^2*y + x*y^3 + x^4"))  # not quasi-homogeneous, isolated
def test_groebner_isolated_check_matches_the_reference_sweep(cover):
    assert has_isolated_singularity(cover) == reference_isolated(cover)


@st.composite
def quasi_homogeneous_covers(draw):
    """z^2 + g with 1-3 terms of total degree <= 4 on one weighted line
    u w_x + v w_y = D, weights 1-4."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    (u0, v0), wx, wy = draw(st.sampled_from(MONOMIALS)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    line = [(u, v) for u, v in MONOMIALS if u * wx + v * wy == u0 * wx + v0 * wy]
    terms = draw(st.dictionaries(st.sampled_from(line), st.integers(1, p - 1), min_size=1, max_size=3))
    return DoubleCover(p, PolyRing(p, ("x", "y")).from_terms(terms))


@settings(deadline=None, max_examples=30)
@given(quasi_homogeneous_covers())
@example(cover(2, "y"))  # g_x = 0 and g_y = 1: principal and the unit ideal
@example(cover(2, "x^2*y + y^4"))  # g_x = 0: principal, not a unit
@example(cover(3, "x^2*y^2"))  # not isolated
@example(cover(3, "x^3 + y^4"))  # E6: odd p divides D = 12, g_x = 0 and g is needed
@example(cover(7, "x^3 + y^7"))  # odd p divides D = 21
def test_groebner_isolated_check_matches_the_reference_sweep_on_quasi_homogeneous_covers(cover):
    assert has_isolated_singularity(cover) == reference_isolated(cover)


NO_BASIS_CASES = [
    (23, "x^4 + y^4", True),
    (23, "x^3 + y^6", True),
    (7, "5*x^3*y + 6*x^5*y^4 + x^5*y^6 + 4*x^6*y", False),
]


@pytest.mark.parametrize("p,g,isolated", NO_BASIS_CASES, ids=[g for _, g, _ in NO_BASIS_CASES])
def test_isolated_check_builds_no_elimination_basis(monkeypatch, p, g, isolated):
    # the graded test added up to 12 rows on the first two, the sweep 108
    # and 234, and it ran to its cap on the third
    def refused(*args):
        raise AssertionError("GaussianBasis built")

    monkeypatch.setattr(linalg.GaussianBasis, "__init__", refused)
    assert has_isolated_singularity(cover(p, g)) == isolated


def grevlex_lead(f):
    return max(f.term_map(), key=lambda m: (m[0] + m[1], m[0]))


def remainder(f, basis):
    """f on division by the Poly list basis in grevlex order (x > y), in
    plain Poly arithmetic."""
    ring, rest = f.ring, f.ring.zero()
    while not f.is_zero():
        m = grevlex_lead(f)
        c = f.term_map()[m]
        for b in basis:
            s, t = grevlex_lead(b)
            if m[0] >= s and m[1] >= t:
                scale = c * pow(b.term_map()[s, t], -1, ring.char)
                f = f - b * ring.monomial({"x": m[0] - s, "y": m[1] - t}, scale)
                break
        else:
            term = ring.from_terms({m: c})
            rest, f = rest + term, f - term
    return rest


def s_polynomial(f, g):
    ring = f.ring
    (a, b), (s, t) = grevlex_lead(f), grevlex_lead(g)
    u, v = max(a, s), max(b, t)
    left = ring.monomial({"x": u - a, "y": v - b}, pow(f.term_map()[a, b], -1, ring.char))
    right = ring.monomial({"x": u - s, "y": v - t}, pow(g.term_map()[s, t], -1, ring.char))
    return f * left - g * right


@settings(deadline=None, max_examples=40)
@given(covers(degree=8))
@example(cover(2, "x*y^2 + x^6*y + x^3*y^4 + x^3*y^6"))
@example(cover(7, "y^4 + 3*x^2*y^3 + 6*x^3*y^5 + 5*x^5*y^2"))
@example(cover(5, "x^2"))  # J = (x): not finite-dimensional
@example(cover(3, "x + y^5"))  # J = (1)
def test_isolated_check_basis_is_a_groebner_basis(cover):
    # Buchberger's criterion on the returned basis: every generator of J
    # and every S-polynomial (coprime leads too) leaves remainder 0; the
    # basis is monic and reduced.  A sweep capped at n <= 8 that finds
    # x^n, y^n in J is right, so the check must then answer True.
    ring = cover.ring_xy
    generators = jacobian_generators(cover)
    basis = _groebner_basis([gen.term_map() for gen in generators], cover.p)
    polys = [ring.from_terms({lead: 1, **tail}) for lead, tail in basis]
    for (lead, tail), poly in zip(basis, polys):
        assert grevlex_lead(poly) == lead and lead not in tail
        others = [other for other, _ in basis if other != lead]
        assert not any(u >= s and v >= t for u, v in poly.term_map() for s, t in others)
    for gen in generators:
        assert remainder(gen, polys).is_zero()
    for i, f in enumerate(polys):
        for g in polys[i + 1 :]:
            assert remainder(s_polynomial(f, g), polys).is_zero()
    if reference_isolated(cover, cap=8):
        assert has_isolated_singularity(cover)


def test_isolated_past_the_sweep_cap():
    # the sweep answered False here: it took x^u y^v * gen only up to
    # degree n + d = n + 9 for x^n, y^n, and y^2 needs higher multiples.
    # The certificate in plain Poly arithmetic over F_2:
    # x^6 = g_y and y^2 = (1 + x^2 w + x^4 w^2) g_x + y^2 w^3 g_y, w = y^2 + y^4
    isolated = cover(2, "x*y^2 + x^6*y + x^3*y^4 + x^3*y^6")
    ring = isolated.ring_xy
    x, y = ring.gen("x"), ring.gen("y")
    gx, gy = isolated.g.derivative("x"), isolated.g.derivative("y")
    w = y**2 + y**4
    assert x**6 == gy
    assert y**2 == (ring.one() + x**2 * w + x**4 * w**2) * gx + y**2 * w**3 * gy
    assert has_isolated_singularity(isolated)


# Non-isolated covers on which the capped sweep ran to its cap: 8.2 s,
# 20.9 s, 3.7 s, more than 40 s and 0.5 s for the check alone.
SWEPT_TO_THE_CAP = [
    (3, "2*x^3*y^4 + 2*x^4*y + 2*x^4*y^6 + 2*x^6*y"),
    (7, "5*x^3*y + 6*x^5*y^4 + x^5*y^6 + 4*x^6*y"),
    (7, "y^4 + 3*x^2*y^3 + 6*x^3*y^5 + 5*x^5*y^2"),
    (7, "x^4*y^5 + 4*x^5*y^5 + 6*x^6*y^4"),
    (7, "4*y^4 + 2*x*y^3 + 5*x^5*y^6"),
]


def test_non_isolated_covers_decide_within_a_second():
    start = time.perf_counter()
    assert [has_isolated_singularity(cover(p, g)) for p, g in SWEPT_TO_THE_CAP] == [False] * 5
    assert time.perf_counter() - start < 1.0


def reference_carry(cover, splitting):
    """(1/p)((X+Y)^p - X^p - Y^p) over the integer lifts of the split
    N = X + Y of the reduced z^p numerator, over (x^{p^2}, y^{p^2})."""
    p = cover.p
    ring = cover.ring_xyz
    numerator = reduce_modulo_cover(ring.gen("z") ** p, cover)
    x_terms, y_terms = {}, {}
    for (u, v, w), c in numerator.term_map().items():
        to_x = u >= p if splitting == "x-first" else v < p
        (x_terms if to_x else y_terms)[(u, v, w)] = c
    x_part = ring.from_terms(x_terms).lift_integers()
    y_part = ring.from_terms(y_terms).lift_integers()
    carry = ((x_part + y_part) ** p - x_part**p - y_part**p).divide_exact(p)
    return normal_form(carry.reduce_mod(ring), (p * p, p * p), cover)


@settings(deadline=None, max_examples=60)
@given(covers())
@example(cover(3, "x^3 + y^4"))  # E6
@example(cover(5, "x^3 + y^5"))  # E8
@example(cover(7, "x^4 + y^4"))
@example(cover(2, "x^2*y + y^4"))
def test_carry_class_matches_direct_formula(cover):
    # the one carry class equals the addition defect of either split, and
    # the normal form of the full delta of the reduced z^p numerator
    assume(frobenius_h2(socle(cover), cover).is_zero())
    carry = witt_carry_class(cover)
    for splitting in ("x-first", "y-first"):
        assert carry == reference_carry(cover, splitting)
    assert carry == normal_form_of_full_delta(cover)


def normal_form_of_full_delta(cover):
    """nf(delta(N)) over (x^{p^2}, y^{p^2}) for N = nf(z^p), with delta
    taken in full and N reduced from scratch."""
    p = cover.p
    numerator = reduce_modulo_cover(cover.ring_xyz.gen("z") ** p, cover)
    return normal_form(delta_carry(numerator), (p * p, p * p), cover)


@settings(deadline=None, max_examples=60)
@given(covers())
def test_frobenius_numerator_has_one_z_degree(cover):
    numerator = cover.frobenius_numerator()
    assert {w for _, _, w in numerator.term_map()} == {0 if cover.p == 2 else 1}
    assert numerator == expected_frobenius_numerator(cover)


def box_labels(bound):
    return [(eps, i, j) for eps in (0, 1) for i in range(1, bound + 1) for j in range(1, bound + 1)]


def box_columns(cover, bound, cache):
    """Every column F(z^eps/(x^i y^j)) of the box i, j <= bound, in label order."""
    if (cover, bound) not in cache:
        cache[cover, bound] = [_frobenius_label_image(label, cover) for label in box_labels(bound)]
    return cache[cover, bound]


def label_bound(cover):
    """p(1 + p^2), the label bound of the membership."""
    return cover.p * (1 + cover.p * cover.p)


def former_bound(cover):
    """The membership's former first bound B, ceil((p^2 + (p-1)/2 deg g + p) / p)."""
    p = cover.p
    return -(-(2 * p * p + (p - 1) * cover.g.total_degree() + 2 * p) // (2 * p))


def holding_bound(cover, classes):
    """A bound whose box holds the block of each class at p(1 + p^2): 2B, or
    the largest label index of a block when that is larger."""
    extents = [2 * former_bound(cover)]
    for eta in classes:
        reached, _ = linalg.block(
            eta.term_map(),
            _frobenius_label_holders(cover, label_bound(cover)),
            lambda label: _frobenius_label_image(label, cover),
        )
        extents.extend(k for _, i, j in reached for k in (i, j))
    return min(max(extents), label_bound(cover))


def whole_box_membership(eta, cover, bound, cache):
    """The membership as the whole-box builder: every column of the box
    i, j <= bound, which must hold the block of eta, then one
    ``linalg.solve``."""
    labels = box_labels(bound)
    solution, witness = linalg.solve(box_columns(cover, bound, cache), eta.term_map(), cover.p)
    if solution is None:
        return MembershipResult(False, None, witness, label_bound(cover), 0)
    coeffs = {labels[idx]: c for idx, c in enumerate(solution) if c}
    return MembershipResult(True, coeffs, None, label_bound(cover), 0)


def workload_covers(seed):
    """The covers of the doublecover workload at seed that no earlier seed
    has, the bundled catalog's included at seed 1."""
    covers = {}
    for earlier in range(1, seed + 1):
        fresh = {}
        for job in workloads.generate("doublecover", earlier):
            entry = workloads.prepare(job)
            if (entry.p, entry.poly) not in covers:
                fresh[entry.p, entry.poly] = entry
        covers.update(fresh)
    return [parse_doublecover(entry.p, entry.poly) for entry in fresh.values()]


def edge_classes(cover):
    """F(z^eps/(x^b y^b)), eps = 0, 1, for b = B, 2B, 2B + 1 (B the former
    first bound) and p(1 + p^2), the last label of the box.  A b past
    p(1 + p^2) is outside the box and left out: 2B + 1 = 11 > 10 at p = 2
    once deg g >= 5."""
    first = former_bound(cover)
    return {
        (eps, b): H2Class(cover.p, _frobenius_label_image((eps, b, b), cover))
        for b in (first, 2 * first, 2 * first + 1, label_bound(cover))
        if b <= label_bound(cover)
        for eps in (0, 1)
    }


@pytest.mark.parametrize("seed,count", [(1, 34), (2, 26), (3, 21)])
def test_block_walk_matches_the_whole_box(seed, count):
    # the box at p(1 + p^2) has 2p^2(1 + p^2)^2 columns (3e8 at p = 23), so
    # the edge there is checked by its answer alone
    cache, checked = {}, 0
    for cover in workload_covers(seed):
        p = cover.p
        classes = [
            H2Class(p, {(1, 1, 1): 1}),
            H2Class(p, {(0, p, p): 1}),
            H2Class(p, {(1, p * p - 1, 1): 1}),
        ]
        if frobenius_h2(socle(cover), cover).is_zero():
            classes.append(witt_carry_class(cover))
        edges = edge_classes(cover)
        classes.extend(eta for (_, b), eta in edges.items() if b < label_bound(cover))
        bound = holding_bound(cover, classes)
        for eta in classes:
            assert frobenius_image_membership(eta, cover) == whole_box_membership(eta, cover, bound, cache)
        for (eps, b), eta in edges.items():
            result = frobenius_image_membership(eta, cover)
            assert (result.feasible, result.escalations) == (True, 0)
            assert result.coefficients == {(eps, b, b): 1}
        cache.clear()
        checked += 1
    assert checked == count


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_quasi_homogeneous_covers_match_the_sweep(seed):
    covers = workload_covers(seed)
    if seed == 1:
        with open(workloads.CATALOG, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        catalog = [parse_doublecover(d["p"], d["poly"]) for d in lines if d["kind"] == "doublecover"]
        assert len(catalog) == 5 and set(catalog) <= set(covers)
    graded = [c for c in covers if localcoh.quasi_homogeneous_grading(c.g) is not None]
    assert graded
    for quasi in graded:
        assert has_isolated_singularity(quasi) == reference_isolated(quasi), quasi


@settings(deadline=None, max_examples=40)
@given(covers())
@example(cover(7, "x^4 + y^4"))
@example(cover(2, "x*y"))
def test_label_holders_are_the_exact_preimage(cover):
    # every key of a column of the 2B box, looked up in the box at B, gives
    # exactly the labels of that box whose Frobenius image holds the key
    bound = 6
    expected = {}
    for label in box_labels(bound):
        for key in _frobenius_label_image(label, cover):
            expected.setdefault(key, set()).add(label)
    keys = {key for label in box_labels(2 * bound) for key in _frobenius_label_image(label, cover)}
    assert expected.keys() <= keys
    holders = _frobenius_label_holders(cover, bound)
    for key in keys:
        found = holders(key)
        assert len(found) == len(set(found))
        assert set(found) == expected.get(key, set())


def count_label_images(monkeypatch):
    calls = []

    def counted(label, cover):
        calls.append(label)
        return _frobenius_label_image(label, cover)

    monkeypatch.setattr(localcoh, "_frobenius_label_image", counted)
    return calls


def count_walks_and_columns(monkeypatch):
    """The bound of each block walk (one reverse lookup per walk) and the
    column count of each solve."""
    walks, columns = [], []
    holders, solve = _frobenius_label_holders, linalg.solve
    monkeypatch.setattr(localcoh, "_frobenius_label_holders", lambda c, b: walks.append(b) or holders(c, b))
    monkeypatch.setattr(linalg, "solve", lambda cols, *args: columns.append(len(cols)) or solve(cols, *args))
    return walks, columns


@pytest.mark.parametrize("p", [23, 83])
def test_empty_block_builds_no_column(monkeypatch, p):
    # height 2: the carry is outside the image, and no column of the box
    # at p(1 + p^2) touches any of its keys
    quartic = cover(p, "x^4 + y^4")
    carry = witt_carry_class(quartic)
    calls = count_label_images(monkeypatch)
    walks, columns = count_walks_and_columns(monkeypatch)
    result = frobenius_image_membership(carry, quartic)
    assert (result.feasible, result.escalations) == (False, 0)
    assert calls == []
    assert walks == [label_bound(quartic)]
    assert len(columns) == 1 and columns[0] <= 2


@pytest.mark.parametrize("p,g", [(3, "x^3 + y^4"), (5, "x^3 + y^5"), (7, "x^4 + y^4")])
def test_feasible_edge_builds_only_its_block(monkeypatch, p, g):
    # one walk, and one image per label of the rhs block of a whole box
    # that holds the block, for each edge but the last
    edge_cover = cover(p, g)
    cache = {}
    calls = count_label_images(monkeypatch)
    walks, _ = count_walks_and_columns(monkeypatch)
    for (_, b), eta in edge_classes(edge_cover).items():
        if b == label_bound(edge_cover):
            continue
        bound = holding_bound(edge_cover, [eta])
        block_labels = len(linalg._rhs_block(box_columns(edge_cover, bound, cache), eta.term_map()))
        calls.clear()
        walks.clear()
        result = frobenius_image_membership(eta, edge_cover)
        assert (result.feasible, result.escalations) == (True, 0)
        assert walks == [label_bound(edge_cover)]
        assert len(calls) == block_labels > 0
